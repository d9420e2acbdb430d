use super::*;
use crate::client::SocketClient;
use crate::worker::{Replier, Request, ShardQueue};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::drift::ParamScale;
use ss_lp::WarmStart;
use ss_num::Ratio;
use ss_platform::{topo, NodeId, Platform};
use std::path::PathBuf;
use std::sync::mpsc::channel;

fn tenant_platform(seed: u64, p: usize) -> (Platform, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default())
}

fn mild_drift(g: &Platform, node: usize, num: i64, den: i64) -> ParamScale {
    ParamScale::nominal(g).with_node(NodeId(node % g.num_nodes()), Ratio::new(num, den))
}

/// A fresh scratch directory under the target-side temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn register_update_rate_certify_roundtrip() {
    let service = Service::spawn(ServiceConfig::default());
    let client = service.client();
    let (g, m) = tenant_platform(1, 8);

    let plan = client.register("acme", g.clone(), m).unwrap();
    assert!(plan.throughput > 0.0);
    assert_eq!(plan.outcome, WarmOutcome::Cold);
    assert!(!plan.stale);
    assert_eq!(plan.coalesced, 1);

    // A drift re-plan goes through the warm machinery, never a
    // hint-less cold solve.
    let re = client.update("acme", mild_drift(&g, 1, 3, 2)).unwrap();
    assert!(re.throughput > 0.0);
    assert_ne!(re.outcome, WarmOutcome::Cold);

    let rate = client.rate("acme").unwrap();
    assert_eq!(rate.solves, 2);
    assert_eq!(rate.lp_solves, 2);
    assert!((rate.throughput - re.throughput).abs() < 1e-12);

    // Exact checkpoint agrees with the fast plan.
    let cert = client.certify("acme").unwrap();
    assert!(cert.f64_gap < 1e-6, "gap {}", cert.f64_gap);
    assert!(cert.exact.is_positive());

    service.shutdown();
}

#[test]
fn unknown_and_duplicate_tenants_error() {
    let service = Service::spawn(ServiceConfig::builder().workers(1).build().unwrap());
    let client = service.client();
    assert_eq!(
        client.rate("ghost").unwrap_err(),
        ServiceError::UnknownTenant("ghost".into())
    );
    let (g, m) = tenant_platform(2, 6);
    client.register("dup", g.clone(), m).unwrap();
    assert_eq!(
        client.register("dup", g, m).unwrap_err(),
        ServiceError::DuplicateTenant("dup".into())
    );
}

#[test]
fn many_tenants_replan_concurrently_and_stay_warm() {
    let service = Service::spawn(ServiceConfig::builder().workers(4).build().unwrap());
    let client = service.client();
    let tenants: Vec<(String, Platform, NodeId)> = (0..8)
        .map(|i| {
            let (g, m) = tenant_platform(100 + i, 6 + (i as usize % 3) * 2);
            (format!("tenant-{i}"), g, m)
        })
        .collect();
    for (id, g, m) in &tenants {
        client.register(id.clone(), g.clone(), *m).unwrap();
    }
    // Concurrent drift updates from one client clone per tenant.
    std::thread::scope(|s| {
        for (id, g, _) in &tenants {
            let c = client.clone();
            s.spawn(move || {
                for round in 0..3i64 {
                    let drift = mild_drift(g, round as usize + 1, 2 + round, 2);
                    let re = c.update(id.clone(), drift).unwrap();
                    assert!(re.throughput > 0.0, "{id} round {round}");
                    assert_ne!(re.outcome, WarmOutcome::Cold, "{id} round {round}");
                }
            });
        }
    });
    // Every tenant served 1 registration + 3 updates, mostly warm.
    let mut warm_total = 0.0;
    for (id, _, _) in &tenants {
        let rate = client.rate(id.clone()).unwrap();
        assert_eq!(rate.solves, 4, "{id}");
        warm_total += rate.warm_fraction;
    }
    assert!(
        warm_total / tenants.len() as f64 > 0.25,
        "warm fraction collapsed: {warm_total}"
    );
    service.shutdown();
}

#[test]
fn queued_updates_coalesce_latest_drift_wins() {
    let q = ShardQueue::new();
    let (tx1, rx1) = channel();
    let (tx2, rx2) = channel();
    let first = ParamScale {
        w_mult: vec![Ratio::new(3, 2)],
        c_mult: vec![],
    };
    let second = ParamScale {
        w_mult: vec![Ratio::new(5, 2)],
        c_mult: vec![],
    };
    q.push(
        Request::Update {
            tenant: "t".into(),
            scale: first,
            replies: vec![Replier::Sync(tx1)],
        },
        true,
    )
    .ok()
    .unwrap();
    q.push(
        Request::Update {
            tenant: "t".into(),
            scale: second.clone(),
            replies: vec![Replier::Sync(tx2)],
        },
        true,
    )
    .ok()
    .unwrap();
    // Both updates merged into one queue entry; a different tenant's
    // update stays separate.
    assert_eq!(q.queued(), 1);
    let (tx3, _rx3) = channel();
    q.push(
        Request::Update {
            tenant: "other".into(),
            scale: second.clone(),
            replies: vec![Replier::Sync(tx3)],
        },
        true,
    )
    .ok()
    .unwrap();
    assert_eq!(q.queued(), 2);

    let batch = q.pop_batch(16).unwrap();
    assert_eq!(batch.len(), 2);
    let Request::Update {
        tenant,
        scale,
        replies,
    } = &batch[0]
    else {
        panic!("expected the coalesced update first");
    };
    assert_eq!(tenant, "t");
    assert_eq!(scale, &second, "latest drift must win");
    assert_eq!(replies.len(), 2, "both callers share the re-plan");
    drop(batch);
    drop(rx1);
    drop(rx2);
}

#[test]
fn restarted_service_resumes_warm_from_snapshots() {
    let dir = scratch_dir("restart");
    let (g, m) = tenant_platform(7, 10);
    let cfg = ServiceConfig::builder()
        .workers(2)
        .persist_dir(dir.clone())
        .build()
        .unwrap();

    // First life: register, drift once, die (graceful shutdown journals).
    let before = {
        let service = Service::spawn(cfg.clone());
        let client = service.client();
        client.register("phoenix", g.clone(), m).unwrap();
        let re = client.update("phoenix", mild_drift(&g, 2, 5, 4)).unwrap();
        service.shutdown();
        re
    };

    // Second life: same persist_dir, fresh worker threads. The tenant is
    // already known (duplicate registration fails), its counters
    // survived, and the first re-plan is warm — zero cold solves.
    let service = Service::spawn(cfg);
    let client = service.client();
    assert_eq!(
        client.register("phoenix", g.clone(), m).unwrap_err(),
        ServiceError::DuplicateTenant("phoenix".into())
    );
    let rate = client.rate("phoenix").unwrap();
    assert!(!rate.resident, "restored tenants start parked");
    assert_eq!(rate.lp_solves, 2, "counters survive the restart");
    assert!((rate.throughput - before.throughput).abs() < 1e-12);

    let re = client.update("phoenix", mild_drift(&g, 3, 7, 5)).unwrap();
    assert!(
        re.outcome.used_warm_basis(),
        "restart re-plan went {:?} instead of warm",
        re.outcome
    );
    let rate = client.rate("phoenix").unwrap();
    assert_eq!(rate.lp_solves, 3);
    assert!(rate.resident);

    // An explicit snapshot journals every tenant.
    assert_eq!(client.snapshot().unwrap(), SnapshotReport { persisted: 1 });
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_eviction_parks_idle_tenants_and_revives_them_warm() {
    let service = Service::spawn(
        ServiceConfig::builder()
            .workers(1)
            .max_resident(1)
            .build()
            .unwrap(),
    );
    let client = service.client();
    let (g1, m1) = tenant_platform(11, 8);
    let (g2, m2) = tenant_platform(12, 8);
    client.register("a", g1.clone(), m1).unwrap();
    client.register("b", g2, m2).unwrap();

    // Registering `b` pushed `a` over the cap: parked, snapshot kept.
    assert!(!client.rate("a").unwrap().resident);
    assert!(client.rate("b").unwrap().resident);

    // Touching `a` revives it warm (not cold) and evicts `b` in turn.
    let re = client.update("a", mild_drift(&g1, 1, 4, 3)).unwrap();
    assert!(
        re.outcome.used_warm_basis(),
        "revived re-plan went {:?}",
        re.outcome
    );
    assert!(client.rate("a").unwrap().resident);
    assert!(!client.rate("b").unwrap().resident);
    service.shutdown();
}

#[test]
fn blown_deadline_serves_stale_plan_then_solves() {
    // A 1 microsecond deadline: every post-registration update blows it
    // (the builder rejects a deadline of exactly zero).
    let service = Service::spawn(
        ServiceConfig::builder()
            .workers(1)
            .deadline_ms(0.001)
            .build()
            .unwrap(),
    );
    let client = service.client();
    let (g, m) = tenant_platform(21, 8);
    let plan = client.register("slow", g.clone(), m).unwrap();

    let re = client.update("slow", mild_drift(&g, 1, 3, 2)).unwrap();
    assert!(re.stale, "deadline 0 must serve stale");
    assert_eq!(re.iterations, 0);
    assert!(
        (re.throughput - plan.throughput).abs() < 1e-12,
        "stale reply carries the last good plan"
    );

    // The fresh solve still ran right after the stale reply (same
    // worker, same queue — so it is visible by the time rate() answers).
    let rate = client.rate("slow").unwrap();
    assert_eq!(rate.stale_served, 1);
    assert_eq!(rate.solves, 2);
    assert_eq!(rate.lp_solves, 2);
    assert!(rate.throughput != plan.throughput || rate.lp_solves == 2);
    service.shutdown();
}

#[test]
fn socket_clients_speak_the_frame_protocol() {
    let service = Service::spawn(ServiceConfig::builder().workers(2).build().unwrap());
    let handle = service.listen("127.0.0.1:0").unwrap();
    let mut sock = SocketClient::connect(handle.addr()).unwrap();

    let (g, m) = tenant_platform(31, 8);
    let plan = sock.register("wire", &g, m).unwrap();
    assert!(plan.throughput > 0.0);
    assert_eq!(plan.outcome, WarmOutcome::Cold);

    let re = sock.update("wire", mild_drift(&g, 1, 3, 2)).unwrap();
    assert_ne!(re.outcome, WarmOutcome::Cold);
    assert!((sock.rate("wire").unwrap().throughput - re.throughput).abs() < 1e-12);

    let cert = sock.certify("wire").unwrap();
    assert!(cert.f64_gap < 1e-6);

    // Socket and in-process clients hit the same tenants.
    let rate = service.client().rate("wire").unwrap();
    assert_eq!(rate.solves, 2);

    // Service-level errors come back as typed error frames.
    match sock.rate("ghost").unwrap_err() {
        SocketError::Service(ServiceError::UnknownTenant(id)) => assert_eq!(id, "ghost"),
        other => panic!("wrong error: {other}"),
    }
    // Snapshot without a persist_dir is a solve error, not a hang.
    assert!(matches!(
        sock.snapshot().unwrap_err(),
        SocketError::Service(ServiceError::Solve(_))
    ));

    handle.stop();
    service.shutdown();
}

#[test]
fn a_deeply_nested_frame_drops_only_its_own_connection() {
    use std::io::{Read, Write};
    let service = Service::spawn(ServiceConfig::builder().workers(1).build().unwrap());
    let handle = service.listen("127.0.0.1:0").unwrap();
    let (g, m) = tenant_platform(41, 6);
    SocketClient::connect(handle.addr())
        .unwrap()
        .register("deep", &g, m)
        .unwrap();

    // 10 KB of `[`: far under MAX_FRAME, far deeper than the parser
    // recurses.
    let payload = "[".repeat(10_000);
    let mut hostile = std::net::TcpStream::connect(handle.addr()).unwrap();
    hostile
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    hostile.write_all(payload.as_bytes()).unwrap();
    hostile
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    match hostile.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("hostile connection not dropped: {other:?}"),
    }

    // The reactor survived: a second client is still served.
    let mut sock = SocketClient::connect(handle.addr()).unwrap();
    assert!(sock.rate("deep").unwrap().throughput > 0.0);
    handle.stop();
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64)
    ))]

    /// Any structurally valid warm snapshot survives the wire encoding
    /// bit-for-bit — the property persistence and the socket protocol
    /// both lean on.
    #[test]
    fn warm_start_serde_round_trips(seed in proptest::prelude::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..12usize);
        let ncols = m + rng.gen_range(1..24usize);
        let art_start = rng.gen_range(0..=ncols);
        let basis: Vec<usize> = (0..m).map(|_| rng.gen_range(0..ncols)).collect();
        let at_upper: Vec<bool> = (0..ncols).map(|_| rng.gen_bool(0.3)).collect();
        let ws = WarmStart::new(m, ncols, art_start, basis, at_upper);

        let wire = serde_json::to_string(&ws).unwrap();
        let back: WarmStart = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(back.num_rows(), ws.num_rows());
        prop_assert_eq!(back.num_cols(), ws.num_cols());
        prop_assert_eq!(back.artificial_start(), ws.artificial_start());
        prop_assert_eq!(back.basis(), ws.basis());
        prop_assert_eq!(back.at_upper(), ws.at_upper());
    }
}
