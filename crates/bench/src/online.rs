//! Online-churn experiments: the `online-scale` sweep, the
//! `online-smoke` CI guard, and the online slice of the `bench-check`
//! regression gate.
//!
//! The session-edit redesign's perf claim: when workers join and leave a
//! live platform, `SolveSession::apply` migrates the resident basis onto
//! the grown/shrunk LP (`ss_lp::EditPlan`) and repairs it with a handful
//! of pivots, instead of paying a cold refactorizing solve per event.
//! [`online_scale`] measures that on the heavy-tailed Poisson workload of
//! `ss_sim::online` at large pool sizes, replaying the **same** trace in
//! warm-with-edits and cold-per-event modes, and records pivots,
//! wall-clock and job-stretch percentiles (plus the rigid FCFS/EASY
//! batch baselines from `ss-baselines` for context) to
//! `BENCH_lp_online.json`. In-sweep asserts at every pool size: zero
//! cold fallbacks, both arrivals and departures observed, and a strictly
//! lower mean re-plan wall-clock than the cold baseline.
//! [`online_smoke`] is the small deterministic CI guard for the same
//! invariants. The `bench-check` slice is the crate's record gate
//! (`gate`) configured to compare a fresh warm/cold wall-clock ratio
//! against the committed record (a ratio of ratios, so machine speed
//! cancels). Churn changes the LP's shape, so these runs go through
//! `ss_sim::online` rather than the drift-chain harness.

use crate::harness::{gate, json_lines, json_obj, GateSpec, Headroom, Metric};
use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_baselines::{backfill_batch, fcfs_batch, BatchJob, BatchOutcome};
use ss_core::master_slave::MasterSlave;
use ss_core::session::SolveSession;
use ss_platform::NodeId;
use ss_sim::online::{
    quantize, simulate_online, OnlineConfig, OnlineRun, OnlineTrace, ReplanMode, WorkerPool,
};

/// Where the sweep records its points (and where the `bench-check` slice
/// reads the committed reference back from).
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_online.json");

/// The `bench-check` slice: 2x headroom on the warm/cold mean re-plan
/// wall-clock ratio at every recorded pool size (warm and cold re-plans
/// run back to back on the same box, so its speed cancels), a 0.10 floor
/// against sub-millisecond timer noise, and a hard 1.0 cap: whatever the
/// committed advantage, warm must still win.
const ONLINE_GATE: GateSpec = GateSpec {
    path: BENCH_PATH,
    array: "online_scale",
    key: "p",
    last_only: false,
    metrics: &[Metric {
        name: "warm/cold re-plan ms",
        num: "warm.mean_solve_ms",
        den: Some("cold.mean_solve_ms"),
        headroom: Headroom::Lower(0.10, 1.0),
    }],
};

/// Pool sizes of the recorded sweep: the redesign's acceptance sizes.
const SWEEP_P: [usize; 2] = [96, 192];

/// Mean wall-clock per re-plan of a run.
fn mean_solve_ms(run: &OnlineRun) -> f64 {
    run.total_solve_ms() / run.replans.len().max(1) as f64
}

/// One re-plan mode's table cells: replans, cold fallbacks, migrations,
/// pivots, mean re-plan ms, mean and p95 stretch.
fn mode_cells(run: &OnlineRun) -> Vec<String> {
    vec![
        run.replans.len().to_string(),
        run.cold_fallbacks.to_string(),
        run.migrations.to_string(),
        run.total_iterations().to_string(),
        format!("{:.3}", mean_solve_ms(run)),
        format!("{:.2}", run.mean_stretch()),
        format!("{:.2}", run.stretch_percentile(0.95)),
    ]
}

const MODE_HEADERS: [&str; 7] = [
    "replans",
    "cold fb",
    "migrated",
    "pivots",
    "mean ms",
    "mean stretch",
    "p95 stretch",
];

/// Mean and p95 stretch of a rigid batch schedule, measured against the
/// same yardstick as the online runs: flow time over the job's ideal
/// service time on the full cooperating cluster (`work / cluster_rate`),
/// not over the job's own rigid runtime — so a narrow allocation that
/// serves a job slowly shows up as stretch, exactly the throughput the
/// steady-state plan recovers.
struct BatchStats {
    mean_stretch: f64,
    p95_stretch: f64,
}

impl BatchStats {
    fn of(out: &BatchOutcome, run: &OnlineRun, cluster_rate: f64) -> BatchStats {
        let mut s: Vec<f64> = out
            .records
            .iter()
            .zip(&run.jobs)
            .map(|(r, j)| {
                let flow = (&r.finish - &j.arrival).to_f64();
                flow / (j.work.to_f64() / cluster_rate)
            })
            .collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((0.95 * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
        BatchStats {
            mean_stretch: s.iter().sum::<f64>() / s.len() as f64,
            p95_stretch: s[idx],
        }
    }
}

struct ScalePoint {
    p: usize,
    warm: OnlineRun,
    cold: OnlineRun,
    fcfs: BatchStats,
    backfill: BatchStats,
}

/// The sweep's workload at pool size `p`: three quarters of the pool
/// present initially, churn free to dip to half, defaults otherwise
/// (Poisson arrivals, Pareto(1.5) work, 0.1 re-plan penalty).
fn online_cfg(p: usize) -> OnlineConfig {
    OnlineConfig {
        init_workers: p * 3 / 4,
        min_workers: p / 2,
        seed: 0xca11 + p as u64,
        ..OnlineConfig::default()
    }
}

/// Mean per-task time of the initially-present workers.
fn mean_w(pool: &WorkerPool, cfg: &OnlineConfig) -> f64 {
    pool.w[..cfg.init_workers]
        .iter()
        .map(|w| w.to_f64())
        .sum::<f64>()
        / cfg.init_workers as f64
}

/// The rigid-job view of the same trace for the batch baselines: a job of
/// `k` tasks asks for `ceil(k / min_work)` of the initially-present nodes
/// (heavy jobs go wide, up to the full cluster) and runs at perfect
/// speedup inside its allocation, with the pool's mean per-task time.
fn batch_view(run: &OnlineRun, pool: &WorkerPool, cfg: &OnlineConfig) -> Vec<BatchJob> {
    let nodes_total = cfg.init_workers;
    let w = mean_w(pool, cfg);
    run.jobs
        .iter()
        .map(|j| {
            let tasks = j.work.to_f64();
            let width = ((tasks / cfg.min_work.to_f64()).ceil() as usize).clamp(1, nodes_total);
            BatchJob {
                arrival: j.arrival.clone(),
                nodes: width,
                runtime: quantize(tasks * w / width as f64),
            }
        })
        .collect()
}

/// Replay `cfg`'s trace on the seeded `p`-worker pool through a
/// warm-with-edits session and a cold-per-event session, and assert what
/// the sweep and the smoke both claim: the same re-plan stream and job
/// timeline in both modes, zero cold fallbacks, churn in both directions,
/// at least one migrated basis, and no more warm pivots than cold ones.
fn replay(p: usize, cfg: &OnlineConfig) -> (WorkerPool, OnlineRun, OnlineRun) {
    let mut rng = StdRng::seed_from_u64(0x0e11e + p as u64);
    let pool = WorkerPool::random(&mut rng, p);
    let trace = OnlineTrace::generate(cfg);
    assert!(trace.churn_events() > 0, "p={p}: trace has no churn");
    let run = |mode| {
        let mut sess: SolveSession<f64, MasterSlave> =
            SolveSession::new(MasterSlave::new(NodeId(0)));
        simulate_online(&mut sess, &pool, cfg, &trace, mode).expect("online run")
    };
    let (warm, cold) = (run(ReplanMode::WarmEdits), run(ReplanMode::ColdPerEvent));

    assert_eq!(
        warm.replans.len(),
        cold.replans.len(),
        "p={p}: replan streams diverge"
    );
    for (a, b) in warm.jobs.iter().zip(&cold.jobs) {
        assert_eq!(a.finish, b.finish, "p={p}: warm/cold job timelines diverge");
    }
    assert_eq!(
        warm.cold_fallbacks, 0,
        "p={p}: a shape edit fell back to a cold solve"
    );
    assert!(
        warm.replans.iter().any(|r| r.arrival) && warm.replans.iter().any(|r| !r.arrival),
        "p={p}: trace exercised only one churn direction"
    );
    assert!(warm.migrations > 0, "p={p}: no re-plan migrated the basis");
    assert!(
        warm.total_iterations() <= cold.total_iterations(),
        "p={p}: warm re-plans pivot more than cold ({} vs {})",
        warm.total_iterations(),
        cold.total_iterations()
    );
    (pool, warm, cold)
}

/// Run one sweep point: [`replay`] at the sweep's workload, the
/// redesign's wall-clock claim, and the batch baselines.
fn run_point(p: usize) -> ScalePoint {
    let cfg = online_cfg(p);
    let (pool, warm, cold) = replay(p, &cfg);
    assert!(
        warm.total_solve_ms() < cold.total_solve_ms(),
        "p={p}: warm-with-edits is no faster than cold-per-event on mean re-plan wall-clock \
         ({:.3} ms vs {:.3} ms per re-plan)",
        mean_solve_ms(&warm),
        mean_solve_ms(&cold)
    );

    let rigid = batch_view(&warm, &pool, &cfg);
    let cluster_rate = cfg.init_workers as f64 / mean_w(&pool, &cfg);
    let fcfs = BatchStats::of(&fcfs_batch(&rigid, cfg.init_workers), &warm, cluster_rate);
    let backfill = BatchStats::of(
        &backfill_batch(&rigid, cfg.init_workers),
        &warm,
        cluster_rate,
    );

    ScalePoint {
        p,
        warm,
        cold,
        fcfs,
        backfill,
    }
}

/// `online-scale`: arrivals/departures through a live session at large
/// pool sizes, warm-with-edits vs cold-per-event on the identical trace,
/// with FCFS/EASY rigid-batch baselines for stretch context, recorded to
/// `BENCH_lp_online.json`. In-sweep asserts at every `p`: zero cold
/// fallbacks, both churn directions observed, fewer warm pivots, and a
/// strictly lower warm mean re-plan wall-clock.
pub fn online_scale() {
    banner(
        "online-scale",
        "online churn — warm basis edits vs cold re-plans, with batch baselines",
    );
    let points: Vec<ScalePoint> = SWEEP_P.iter().map(|&p| run_point(p)).collect();

    let mut rows = Vec::new();
    for pt in &points {
        for (tag, run) in [("warm-edits", &pt.warm), ("cold/event", &pt.cold)] {
            rows.push([vec![pt.p.to_string(), tag.into()], mode_cells(run)].concat());
        }
        for (tag, st) in [("fcfs", &pt.fcfs), ("backfill", &pt.backfill)] {
            let mut row = vec![pt.p.to_string(), tag.into()];
            row.extend(["-"; 5].map(String::from));
            row.extend([st.mean_stretch, st.p95_stretch].map(|x| format!("{x:.2}")));
            rows.push(row);
        }
    }
    print_table(&[&["p", "mode"], &MODE_HEADERS[..]].concat(), &rows);

    match write_online_json(&points) {
        Ok(path) => println!("\nrecorded online sweep to {path}"),
        Err(e) => eprintln!("could not write BENCH_lp_online.json: {e}"),
    }
}

fn write_online_json(points: &[ScalePoint]) -> std::io::Result<String> {
    let mode_json = |run: &OnlineRun| {
        json_obj(&[
            ("replans", run.replans.len().to_string()),
            ("cold_fallbacks", run.cold_fallbacks.to_string()),
            ("migrations", run.migrations.to_string()),
            ("pivots", run.total_iterations().to_string()),
            ("mean_solve_ms", format!("{:.4}", mean_solve_ms(run))),
            ("mean_stretch", format!("{:.4}", run.mean_stretch())),
            (
                "p95_stretch",
                format!("{:.4}", run.stretch_percentile(0.95)),
            ),
        ])
    };
    let batch_json = |st: &BatchStats| {
        json_obj(&[
            ("mean_stretch", format!("{:.4}", st.mean_stretch)),
            ("p95_stretch", format!("{:.4}", st.p95_stretch)),
        ])
    };
    let rows: Vec<String> = points
        .iter()
        .map(|pt| {
            json_obj(&[
                ("p", pt.p.to_string()),
                ("jobs", pt.warm.jobs.len().to_string()),
                ("warm", mode_json(&pt.warm)),
                ("cold", mode_json(&pt.cold)),
                ("fcfs", batch_json(&pt.fcfs)),
                ("backfill", batch_json(&pt.backfill)),
            ])
        })
        .collect();
    let s = format!("{{\n  \"online_scale\": {}\n}}\n", json_lines(&rows, 4));
    std::fs::write(BENCH_PATH, s)?;
    Ok("BENCH_lp_online.json".into())
}

/// `online-smoke`: the small deterministic CI guard for the session-edit
/// path. A 12-worker pool, 20 heavy-tailed jobs, churn in both
/// directions; every shape edit must ride the migrated basis (zero cold
/// fallbacks), the warm and cold modes must execute the identical
/// schedule, and warm re-plans must pivot no more than cold ones. No
/// wall-clock asserts — timer noise at this size belongs to the gate,
/// not the smoke.
pub fn online_smoke() {
    banner(
        "online-smoke",
        "session-edit guard — churn re-plans stay warm, schedules agree with cold",
    );
    let p = 12;
    let cfg = OnlineConfig {
        njobs: 20,
        ..online_cfg(p)
    };
    let (_, warm, cold) = replay(p, &cfg);
    let rows = [("warm-edits", &warm), ("cold/event", &cold)]
        .map(|(tag, run)| [vec![tag.to_string()], mode_cells(run)].concat());
    print_table(&[&["mode"], &MODE_HEADERS[..]].concat(), &rows);
    println!(
        "every churn re-plan rode the migrated basis; warm and cold schedules agree \
         (asserted; failures panic CI)."
    );
}

/// The `bench-check` slice for `BENCH_lp_online.json`: replays every
/// recorded pool size through [`ONLINE_GATE`]; `run_point` asserts zero
/// cold fallbacks and the strict warm-beats-cold claim internally.
pub(crate) fn online_check() -> Vec<String> {
    gate(&ONLINE_GATE, |ps| {
        ps.iter()
            .map(|&p| {
                let pt = run_point(p);
                vec![mean_solve_ms(&pt.warm) / mean_solve_ms(&pt.cold).max(1e-9)]
            })
            .collect()
    })
}
