//! The multi-tenant online scheduling service: several applications
//! share the serving layer, each keeping a hot warm-started re-solve
//! session alive between parameter updates.
//!
//! Each tenant registers a platform + master, then reports drifting
//! resource performance (NWS-style observations) and gets a re-plan back
//! — warm-started from its previous optimal basis, so a re-plan costs a
//! handful of pivots. On top of that this example drives the evented
//! layer's operational levers end to end: a burst of async updates
//! coalesced into one solve, per-tenant deadlines serving the last good
//! plan when solves run long, and warm snapshot persistence carrying the
//! whole fleet across a service restart with zero cold solves. An exact
//! duality-certified checkpoint is available on demand.
//!
//! ```sh
//! cargo run --release --example tenant_service
//! ```

use steadystate::core::drift::ParamScale;
use steadystate::num::Ratio;
use steadystate::platform::topo;
use steadystate::service::{Service, ServiceConfig};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let persist_dir =
        std::env::temp_dir().join(format!("ss-tenant-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&persist_dir);
    let config = ServiceConfig::builder()
        .workers(3)
        .deadline_ms(50.0)
        .persist_dir(persist_dir.clone())
        .build()
        .expect("valid service config");
    let service = Service::spawn(config.clone());
    let client = service.client();
    println!(
        "service up: {} workers, tenants sharded by id, 50ms deadline, snapshots in {}\n",
        service.num_workers(),
        persist_dir.display()
    );

    // Register four tenants with platforms of different sizes.
    let mut tenants = Vec::new();
    for (i, p) in [8usize, 10, 12, 14].iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(40 + i as u64);
        let (g, m) = topo::random_connected(&mut rng, *p, 0.3, &topo::ParamRange::default());
        let id = format!("app-{i}");
        let plan = client.register(id.clone(), g.clone(), m).expect("register");
        println!(
            "registered {id:>6} (p = {p:2}): rate {:.4} tasks/u ({}, {} pivots, {:.2} ms)",
            plan.throughput, plan.outcome, plan.iterations, plan.solve_ms
        );
        tenants.push((id, g));
    }

    // Three rounds of observed drift per tenant: each round a couple of
    // machines get loaded or links congest, and the tenant re-plans.
    println!("\nround | tenant |    rate | path          | pivots |    ms");
    println!("------+--------+---------+---------------+--------+------");
    let mut drift_rng = StdRng::seed_from_u64(99);
    for round in 0..3 {
        for (id, g) in &tenants {
            let mut scale = ParamScale::nominal(g);
            for w in scale.w_mult.iter_mut() {
                if drift_rng.gen_bool(0.3) {
                    *w = Ratio::new(drift_rng.gen_range(8..=20), 12);
                }
            }
            let re = client.update(id.clone(), scale).expect("re-plan");
            println!(
                " {round:4} | {id:>6} | {:7.4} | {:>13} | {:6} | {:5.2}",
                re.throughput, re.outcome, re.iterations, re.solve_ms
            );
        }
    }

    // A burst of async updates — observations arriving faster than
    // solves. Enqueue-time coalescing folds the pending ones into a
    // single re-plan (latest drift wins); every caller still gets an
    // answer, sharing the solve.
    let (burst_id, burst_g) = &tenants[0];
    let mut pending = Vec::new();
    for k in 0..4i64 {
        let drift = ParamScale::nominal(burst_g)
            .with_node(steadystate::platform::NodeId(1), Ratio::new(12 + k, 12));
        pending.push(
            client
                .update_async(burst_id.clone(), drift)
                .expect("enqueue"),
        );
    }
    println!("\nburst of {} updates on {burst_id}:", pending.len());
    for p in pending {
        let re = p.wait().expect("burst re-plan");
        println!(
            "  answered: rate {:.4} ({}, {} caller(s) coalesced{})",
            re.throughput,
            re.outcome,
            re.coalesced,
            if re.stale { ", stale-served" } else { "" }
        );
    }

    // Rate queries are free (no solve), and exact certification is an
    // on-demand checkpoint.
    println!();
    for (id, _) in &tenants {
        let rate = client.rate(id.clone()).expect("rate");
        println!(
            "{id:>6}: {:.4} tasks/u after {} answers / {} LP solves \
             ({:.0}% warm, {} coalesced, {} stale-served)",
            rate.throughput,
            rate.solves,
            rate.lp_solves,
            100.0 * rate.warm_fraction,
            rate.coalesced,
            rate.stale_served
        );
    }
    let cert = client.certify(tenants[0].0.clone()).expect("certify");
    println!(
        "\nexact checkpoint for {}: rate {} (duality-certified), f64 gap {:.2e}",
        cert.tenant, cert.exact, cert.f64_gap
    );

    // Kill the service and restart it from the journaled snapshots: the
    // fleet comes back warm — the first re-plan of every tenant reuses
    // the persisted basis, zero cold solves.
    let snap = client.snapshot().expect("snapshot");
    service.shutdown();
    println!(
        "\nservice stopped ({} tenants journaled); restarting from snapshots...",
        snap.persisted
    );
    let service = Service::spawn(config);
    let client = service.client();
    for (id, g) in &tenants {
        let drift =
            ParamScale::nominal(g).with_node(steadystate::platform::NodeId(0), Ratio::new(13, 12));
        let re = client
            .update(id.clone(), drift)
            .expect("post-restart re-plan");
        assert!(
            re.outcome.used_warm_basis(),
            "{id}: restart re-plan was not warm"
        );
        println!(
            "  {id:>6} re-planned {:>13} after restart: rate {:.4}",
            re.outcome.to_string(),
            re.throughput
        );
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&persist_dir);
    println!("service drained and joined.");
}
