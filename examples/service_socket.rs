//! Talking to the scheduling service over real sockets.
//!
//! [`Service::listen`] puts a nonblocking reactor thread in front of the
//! worker shards; any process that can open a TCP connection and speak
//! the length-prefixed JSON frame protocol can then register tenants and
//! re-plan. This example runs the server and a [`SocketClient`] in one
//! process for convenience, but nothing ties them together: the client
//! sees only bytes on the wire.
//!
//! ```sh
//! cargo run --release --example service_socket
//! ```

use steadystate::core::drift::ParamScale;
use steadystate::num::Ratio;
use steadystate::platform::topo;
use steadystate::service::{Service, ServiceConfig, SocketClient, SocketError};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let service = Service::spawn(ServiceConfig::builder().workers(2).build().unwrap());
    let server = service.listen("127.0.0.1:0").expect("bind reactor");
    println!("serving the frame protocol on {}\n", server.addr());

    let mut client = SocketClient::connect(server.addr()).expect("connect");

    // Register two tenants over the wire. The platform travels as a
    // validated spec (nodes, edge list, rational costs) inside the JSON
    // frame and is re-checked server-side.
    let mut fleet = Vec::new();
    for (i, p) in [9usize, 13].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7 + i as u64);
        let (g, m) = topo::random_connected(&mut rng, *p, 0.3, &topo::ParamRange::default());
        let id = format!("wire-{i}");
        let plan = client.register(id.clone(), &g, m).expect("register");
        println!(
            "registered {id} (p = {p:2}) over TCP: rate {:.4} tasks/u ({}, {:.2} ms)",
            plan.throughput, plan.outcome, plan.solve_ms
        );
        fleet.push((id, g));
    }

    // Drifted observations and re-plans, all framed over the socket.
    println!("\ndrift rounds:");
    for round in 0..3i64 {
        for (id, g) in &fleet {
            let drift = ParamScale::nominal(g)
                .with_node(steadystate::platform::NodeId(2), Ratio::new(10 + round, 12));
            let re = client.update(id.clone(), drift).expect("re-plan");
            println!(
                "  {id}: rate {:.4} ({}, {} pivots, {:.2} ms)",
                re.throughput, re.outcome, re.iterations, re.solve_ms
            );
        }
    }

    // Rate and certification come back as typed frames too.
    for (id, _) in &fleet {
        let rate = client.rate(id.clone()).expect("rate");
        let cert = client.certify(id.clone()).expect("certify");
        println!(
            "\n{id}: {:.4} tasks/u after {} answers / {} LP solves ({:.0}% warm)\n\
             {id}: exact rate {} (duality-certified, f64 gap {:.2e})",
            rate.throughput,
            rate.solves,
            rate.lp_solves,
            100.0 * rate.warm_fraction,
            cert.exact,
            cert.f64_gap
        );
    }

    // Service errors arrive as typed error frames, not dropped
    // connections.
    match client.rate("nobody-home") {
        Err(SocketError::Service(e)) => println!("\nasking for an unknown tenant: {e}"),
        other => panic!("expected a typed service error, got {other:?}"),
    }

    server.stop();
    service.shutdown();
    println!("reactor stopped, service drained and joined.");
}
