//! Evented-service experiments: the `service-scale` sweep, the
//! `service-smoke` socket guard, and the service slice of the
//! `bench-check` regression gate.
//!
//! The service's perf claims are operational, not algorithmic: batched
//! queue draining + enqueue-time update coalescing should push sustained
//! re-plans/sec well past a one-blocking-request-at-a-time baseline, and
//! warm snapshot persistence should let a restarted service re-plan every
//! tenant with **zero cold solves**.
//! [`service_scale`] measures both and records them (tenant-count sweep
//! with p50/p99 latency, restart recovery) to `BENCH_service.json`,
//! asserting in-sweep that the batched configuration beats the unbatched
//! baseline at the largest tenant count and that the restart is
//! all-warm. [`service_smoke`] is the CI guard for the socket path: real
//! TCP clients against a real reactor, answers cross-checked against
//! private reference sessions, certificates verified. The `bench-check`
//! slice is the crate's record gate (`gate`) configured for
//! `BENCH_service.json`'s largest tenant count; drift is the crate's
//! shared mild `Drift`.

use crate::harness::{gate, json_lines, json_obj, Drift, GateSpec, Headroom, Metric};
use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::master_slave::MasterSlave;
use ss_core::session::SolveSession;
use ss_platform::{topo, NodeId, Platform};
use ss_service::{Service, ServiceConfig, SocketClient};
use std::sync::Mutex;
use std::time::Instant;

/// Where the sweep records its points (and where the `bench-check` slice
/// reads the committed reference back from).
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");

/// Node count of every tenant platform in the sweep: big enough that a
/// re-plan costs real simplex work, small enough that a 48-tenant sweep
/// stays in CI budget.
const TENANT_P: usize = 20;

/// Mild per-round drift, the §5.5 NWS regime (the warm-scale sweep's).
const DRIFT: Drift = Drift::mild(0.3);

/// The `bench-check` slice: the batched-over-unbatched throughput
/// advantage at the largest recorded tenant count may halve (a ratio of
/// ratios, so machine speed cancels), but never drop below 1.0 — the
/// batched path must at minimum still beat the baseline.
const SERVICE_GATE: GateSpec = GateSpec {
    path: BENCH_PATH,
    array: "service_scale",
    key: "tenants",
    last_only: true,
    metrics: &[Metric {
        name: "batched/unbatched replans/s",
        num: "batched.replans_per_sec",
        den: Some("unbatched.replans_per_sec"),
        headroom: Headroom::Higher(1.0),
    }],
};

fn tenant_fleet(n: usize) -> Vec<(String, Platform, NodeId)> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x5e41 + i as u64);
            let (g, m) =
                topo::random_connected(&mut rng, TENANT_P, 0.3, &topo::ParamRange::default());
            (format!("tenant-{i}"), g, m)
        })
        .collect()
}

/// The batched configuration under test: coalescing and batch draining
/// both on.
fn batched_config(workers: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .workers(workers)
        .batch(64)
        .coalesce(true)
        .build()
        .expect("static config is valid")
}

/// The baseline the tentpole is measured against: one request per queue
/// wakeup, no coalescing — the shape of the old blocking-`recv` service
/// loop.
fn unbatched_config(workers: usize) -> ServiceConfig {
    ServiceConfig::builder()
        .workers(workers)
        .batch(1)
        .coalesce(false)
        .build()
        .expect("static config is valid")
}

struct LoadStats {
    requests: usize,
    lp_solves: usize,
    coalesced: usize,
    replans_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    warm_fraction: f64,
}

/// Drive a service with one producer thread per tenant: `rounds` rounds,
/// each a burst of `burst` async drift updates (observations arriving
/// faster than solves — what coalescing exists for), all answered before
/// the next round. Per-request latency is send→answer.
fn run_load(
    cfg: ServiceConfig,
    fleet: &[(String, Platform, NodeId)],
    rounds: usize,
    burst: usize,
) -> LoadStats {
    let service = Service::spawn(cfg);
    let client = service.client();
    for (id, g, m) in fleet {
        client
            .register(id.clone(), g.clone(), *m)
            .expect("register");
    }

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (ti, (id, g, _)) in fleet.iter().enumerate() {
            let c = client.clone();
            let latencies = &latencies;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xd21f + ti as u64);
                let mut local = Vec::with_capacity(rounds * burst);
                for _ in 0..rounds {
                    let mut pending = Vec::with_capacity(burst);
                    for _ in 0..burst {
                        let drift = DRIFT.sample(&mut rng, g);
                        let sent = Instant::now();
                        let p = c.update_async(id.clone(), drift).expect("enqueue update");
                        pending.push((sent, p));
                    }
                    for (sent, p) in pending {
                        let re = p.wait().expect("re-plan");
                        assert!(re.throughput > 0.0, "{id}: degenerate re-plan");
                        local.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let mut lp_solves = 0;
    let mut coalesced = 0;
    let mut warm_sum = 0.0;
    for (id, _, _) in fleet {
        let rate = client.rate(id.clone()).expect("rate");
        assert_eq!(rate.solves, 1 + rounds * burst, "{id}: lost replies");
        lp_solves += rate.lp_solves;
        coalesced += rate.coalesced;
        warm_sum += rate.warm_fraction;
    }
    service.shutdown();

    let mut lat = latencies.into_inner().unwrap();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let requests = fleet.len() * rounds * burst;
    assert_eq!(lat.len(), requests);
    LoadStats {
        requests,
        lp_solves,
        coalesced,
        replans_per_sec: requests as f64 / elapsed.max(1e-9),
        p50_ms: lat[lat.len() / 2],
        p99_ms: lat[(lat.len() * 99) / 100],
        warm_fraction: warm_sum / fleet.len() as f64,
    }
}

struct ScalePoint {
    tenants: usize,
    batched: LoadStats,
    unbatched: LoadStats,
}

struct RestartPoint {
    tenants: usize,
    cold_register_ms: f64,
    warm_recover_ms: f64,
    cold_solves_after_restart: usize,
}

/// Restart recovery: journal a fleet, kill the service, restart from the
/// snapshot directory, re-plan every tenant once. Every post-restart
/// re-plan must ride a warm basis (zero cold solves) — that is the
/// persistence tentpole's acceptance claim, asserted here. The cold
/// reference is registering the same fleet from scratch, journaling into
/// an empty directory so both sides of the comparison pay the disk.
fn restart_recovery(n: usize) -> RestartPoint {
    let fleet = tenant_fleet(n);
    let dir = std::env::temp_dir().join(format!("ss-bench-service-{}", std::process::id()));
    let cold_dir = dir.with_extension("cold");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
    let persisted = |dir: &std::path::Path| ServiceConfig {
        persist_dir: Some(dir.to_path_buf()),
        ..batched_config(4)
    };

    // Cold reference: a fresh fleet registration is n hint-less solves.
    // Like the warm side below, the clock runs from spawn to the last
    // answer and stops before shutdown's journal-everything pass.
    let t0 = Instant::now();
    let cold_register_ms;
    {
        let service = Service::spawn(persisted(&cold_dir));
        let client = service.client();
        for (id, g, m) in &fleet {
            client
                .register(id.clone(), g.clone(), *m)
                .expect("register");
        }
        cold_register_ms = t0.elapsed().as_secs_f64() * 1e3;
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&cold_dir);

    // First life: register, drift twice, die. Graceful shutdown journals
    // every tenant's warm snapshot.
    {
        let service = Service::spawn(persisted(&dir));
        let client = service.client();
        let mut rng = StdRng::seed_from_u64(0x0eaf);
        for (id, g, m) in &fleet {
            client
                .register(id.clone(), g.clone(), *m)
                .expect("register");
        }
        for _ in 0..2 {
            for (id, g, _) in &fleet {
                client
                    .update(id.clone(), DRIFT.sample(&mut rng, g))
                    .expect("pre-restart drift");
            }
        }
        service.shutdown();
    }

    // Second life: reload the snapshots and re-plan everyone once.
    let mut cold_solves_after_restart = 0;
    let t0 = Instant::now();
    let warm_recover_ms;
    {
        let service = Service::spawn(persisted(&dir));
        let client = service.client();
        let mut rng = StdRng::seed_from_u64(0x0eaf + 1);
        for (id, g, _) in &fleet {
            let re = client
                .update(id.clone(), DRIFT.sample(&mut rng, g))
                .expect("post-restart re-plan");
            if !re.outcome.used_warm_basis() {
                cold_solves_after_restart += 1;
            }
        }
        warm_recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        cold_solves_after_restart, 0,
        "restart-from-snapshot performed cold solves — persistence lost the warm bases"
    );
    RestartPoint {
        tenants: n,
        cold_register_ms,
        warm_recover_ms,
        cold_solves_after_restart,
    }
}

/// `service-scale`: sustained re-plan throughput and latency of the
/// evented service vs the unbatched baseline across tenant counts, plus
/// cold-vs-warm restart recovery, recorded to `BENCH_service.json`. The
/// in-sweep asserts are the tentpole's acceptance criteria: at the
/// largest tenant count the batched configuration must sustain more
/// re-plans/sec than the unbatched baseline, and a restart from
/// snapshots must re-plan every tenant warm (zero cold solves).
pub fn service_scale() {
    banner(
        "service-scale",
        "evented service — batched/coalesced re-plans vs unbatched baseline, restart recovery",
    );
    let mut points = Vec::new();
    for tenants in [4usize, 16, 48] {
        let fleet = tenant_fleet(tenants);
        let rounds = 6;
        let burst = 4;
        let batched = run_load(batched_config(4), &fleet, rounds, burst);
        let unbatched = run_load(unbatched_config(4), &fleet, rounds, burst);
        points.push(ScalePoint {
            tenants,
            batched,
            unbatched,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .flat_map(|pt| {
            [("batched", &pt.batched), ("unbatched", &pt.unbatched)]
                .into_iter()
                .map(|(tag, st)| {
                    vec![
                        pt.tenants.to_string(),
                        tag.into(),
                        st.requests.to_string(),
                        st.lp_solves.to_string(),
                        st.coalesced.to_string(),
                        format!("{:.0}", st.replans_per_sec),
                        format!("{:.2}", st.p50_ms),
                        format!("{:.2}", st.p99_ms),
                        format!("{:.0}%", 100.0 * st.warm_fraction),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    print_table(
        &[
            "tenants",
            "config",
            "requests",
            "lp solves",
            "coalesced",
            "replans/s",
            "p50 ms",
            "p99 ms",
            "warm",
        ],
        &rows,
    );

    // The tentpole's throughput claim, asserted where it matters most:
    // under the heaviest multi-tenant load.
    let last = points.last().expect("sweep is non-empty");
    assert!(
        last.batched.replans_per_sec > last.unbatched.replans_per_sec,
        "batched service is no faster than the unbatched baseline at {} tenants \
         ({:.0}/s vs {:.0}/s)",
        last.tenants,
        last.batched.replans_per_sec,
        last.unbatched.replans_per_sec
    );
    // Coalescing must actually fire under burst load: strictly fewer LP
    // solves than requests answered.
    assert!(
        last.batched.lp_solves < last.batched.requests,
        "no update was coalesced at {} tenants ({} solves for {} requests)",
        last.tenants,
        last.batched.lp_solves,
        last.batched.requests
    );

    let restart = restart_recovery(12);
    println!(
        "\nrestart recovery ({} tenants): cold fleet registration {:.1} ms, \
         warm re-plan-all after restart {:.1} ms, {} cold solves (zero asserted)",
        restart.tenants,
        restart.cold_register_ms,
        restart.warm_recover_ms,
        restart.cold_solves_after_restart
    );

    match write_service_json(&points, &restart) {
        Ok(path) => println!("\nrecorded service sweep to {path}"),
        Err(e) => eprintln!("could not write BENCH_service.json: {e}"),
    }
}

fn write_service_json(points: &[ScalePoint], restart: &RestartPoint) -> std::io::Result<String> {
    let stats_json = |st: &LoadStats| {
        json_obj(&[
            ("requests", st.requests.to_string()),
            ("lp_solves", st.lp_solves.to_string()),
            ("coalesced", st.coalesced.to_string()),
            ("replans_per_sec", format!("{:.1}", st.replans_per_sec)),
            ("p50_ms", format!("{:.3}", st.p50_ms)),
            ("p99_ms", format!("{:.3}", st.p99_ms)),
            ("warm_fraction", format!("{:.3}", st.warm_fraction)),
        ])
    };
    let rows: Vec<String> = points
        .iter()
        .map(|pt| {
            json_obj(&[
                ("tenants", pt.tenants.to_string()),
                ("batched", stats_json(&pt.batched)),
                ("unbatched", stats_json(&pt.unbatched)),
            ])
        })
        .collect();
    let restart = json_obj(&[
        ("tenants", restart.tenants.to_string()),
        (
            "cold_register_ms",
            format!("{:.1}", restart.cold_register_ms),
        ),
        ("warm_recover_ms", format!("{:.1}", restart.warm_recover_ms)),
        (
            "cold_solves_after_restart",
            restart.cold_solves_after_restart.to_string(),
        ),
    ]);
    let s = format!(
        "{{\n  \"service_scale\": {},\n  \"restart\": {restart}\n}}\n",
        json_lines(&rows, 4)
    );
    std::fs::write(BENCH_PATH, s)?;
    Ok("BENCH_service.json".into())
}

/// `service-smoke`: the CI guard for the socket path. A served reactor
/// on an ephemeral port, several concurrent TCP clients each driving its
/// own tenant through drift rounds; every wire answer is cross-checked
/// against a private reference session solving the same instances, and
/// the exact certificate is verified at the end. An in-process client
/// hits the same service concurrently, so both frontends share one
/// tenant map.
pub fn service_smoke() {
    banner(
        "service-smoke",
        "socket-protocol guard — TCP clients vs reference sessions, certificates verified",
    );
    let service = Service::spawn(ServiceConfig::builder().workers(2).build().unwrap());
    let handle = service.listen("127.0.0.1:0").expect("bind reactor");
    let addr = handle.addr();

    let rows: Mutex<Vec<Vec<String>>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for i in 0..3usize {
            let rows = &rows;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x50c7 + i as u64);
                let (g, m) =
                    topo::random_connected(&mut rng, 10 + 2 * i, 0.3, &topo::ParamRange::default());
                let id = format!("wire-{i}");
                let mut sock = SocketClient::connect(addr).expect("connect");
                let mut reference: SolveSession<f64, MasterSlave> =
                    SolveSession::new(MasterSlave::new(m));

                let plan = sock.register(&id, &g, m).expect("register over wire");
                let want = reference.resolve(&g).expect("reference solve");
                let err = (plan.throughput - want.activities.objective_f64()).abs();
                assert!(
                    err <= crate::scale::BACKEND_TOLERANCE,
                    "{id}: wire register off the reference by {err:.3e}"
                );

                let mut drift_rng = StdRng::seed_from_u64(0xd00d + i as u64);
                for round in 0..3 {
                    let scale = DRIFT.sample(&mut drift_rng, &g);
                    let gp = scale.apply(&g);
                    let re = sock.update(&id, scale).expect("update over wire");
                    let want = reference.resolve(&gp).expect("reference re-solve");
                    let err = (re.throughput - want.activities.objective_f64()).abs();
                    assert!(
                        err <= crate::scale::BACKEND_TOLERANCE,
                        "{id} round {round}: wire re-plan off the reference by {err:.3e}"
                    );
                    assert!(re.outcome.used_warm_basis() || round == 0 || !re.stale);
                }

                let rate = sock.rate(&id).expect("rate over wire");
                assert_eq!(rate.solves, 4, "{id}: lost wire replies");
                let cert = sock.certify(&id).expect("certify over wire");
                assert!(
                    cert.f64_gap < 1e-6,
                    "{id}: certificate gap {:.3e}",
                    cert.f64_gap
                );
                rows.lock().unwrap().push(vec![
                    id,
                    rate.solves.to_string(),
                    format!("{:.0}%", 100.0 * rate.warm_fraction),
                    format!("{:.4}", rate.throughput),
                    format!("{:.1e}", cert.f64_gap),
                ]);
            });
        }

        // The in-process frontend shares the tenant map with the wire.
        let client = service.client();
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x1417);
            let (g, m) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
            client.register("local", g.clone(), m).expect("register");
            let mut drift_rng = StdRng::seed_from_u64(0x1418);
            for _ in 0..3 {
                client
                    .update("local", DRIFT.sample(&mut drift_rng, &g))
                    .expect("local re-plan");
            }
        });
    });

    // Cross-frontend visibility: a socket client sees the tenant the
    // in-process client registered.
    let mut sock = SocketClient::connect(addr).expect("connect");
    assert_eq!(sock.rate("local").expect("cross-frontend rate").solves, 4);

    let mut rows = rows.into_inner().unwrap();
    rows.sort();
    print_table(&["tenant", "answers", "warm", "rate", "cert gap"], &rows);
    handle.stop();
    service.shutdown();
    println!("socket clients agree with reference sessions end to end (asserted; failures panic).");
}

/// The `bench-check` slice for `BENCH_service.json`: replays the largest
/// recorded tenant count through [`SERVICE_GATE`], and requires every
/// restart-from-snapshot to stay all-warm (deterministic, no headroom
/// needed; `restart_recovery` asserts it).
pub(crate) fn service_check() -> Vec<String> {
    let verdicts = gate(&SERVICE_GATE, |keys| {
        keys.iter()
            .map(|&tenants| {
                let fleet = tenant_fleet(tenants);
                let batched = run_load(batched_config(4), &fleet, 4, 4);
                let unbatched = run_load(unbatched_config(4), &fleet, 4, 4);
                vec![batched.replans_per_sec / unbatched.replans_per_sec.max(1e-9)]
            })
            .collect()
    });
    let restart = restart_recovery(8);
    println!(
        "service gate: restart re-planned {} tenants warm ({} cold, zero required).",
        restart.tenants, restart.cold_solves_after_restart
    );
    verdicts
}
