//! Online-churn experiments: the `online-scale` sweep, the
//! `online-smoke` CI guard, and the [`online_check`] slice of the
//! `bench-check` regression gate.
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
//! invariants; [`online_check`] compares a fresh warm/cold wall-clock
//! ratio against the committed record (a ratio of ratios, so machine
//! speed cancels).

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
use std::fmt::Write as _;

/// Where the sweep records its points (and where [`online_check`] reads
/// the committed reference back from).
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_online.json");

/// Pool sizes of the recorded sweep: the redesign's acceptance sizes.
const SWEEP_P: [usize; 2] = [96, 192];

/// One re-plan mode's aggregate over a run.
struct ModeStats {
    replans: usize,
    cold_fallbacks: usize,
    migrations: usize,
    pivots: usize,
    mean_solve_ms: f64,
    mean_stretch: f64,
    p95_stretch: f64,
}

impl ModeStats {
    fn of(run: &OnlineRun) -> ModeStats {
        ModeStats {
            replans: run.replans.len(),
            cold_fallbacks: run.cold_fallbacks,
            migrations: run.migrations,
            pivots: run.total_iterations(),
            mean_solve_ms: run.total_solve_ms() / run.replans.len().max(1) as f64,
            mean_stretch: run.mean_stretch(),
            p95_stretch: run.stretch_percentile(0.95),
        }
    }
}

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
    jobs: usize,
    warm: ModeStats,
    cold: ModeStats,
    fcfs: BatchStats,
    backfill: BatchStats,
}

/// The sweep's workload at pool size `p`: three quarters of the pool
/// present initially, churn free to dip to half, defaults otherwise
/// (Poisson arrivals, Pareto(1.5) work, 0.1 re-plan penalty).
fn online_cfg(p: usize, seed: u64) -> OnlineConfig {
    OnlineConfig {
        init_workers: p * 3 / 4,
        min_workers: p / 2,
        seed,
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

/// Run one sweep point: the same pool, config and trace through a
/// warm-with-edits session and a cold-per-event session, plus the batch
/// baselines, with the redesign's acceptance claims asserted in-sweep.
fn run_point(p: usize) -> ScalePoint {
    let mut rng = StdRng::seed_from_u64(0x0e11e + p as u64);
    let pool = WorkerPool::random(&mut rng, p);
    let cfg = online_cfg(p, 0xca11 + p as u64);
    let trace = OnlineTrace::generate(&cfg);
    assert!(trace.churn_events() > 0, "p={p}: trace has no churn");

    let mut warm_sess: SolveSession<f64, MasterSlave> =
        SolveSession::new(MasterSlave::new(NodeId(0)));
    let warm = simulate_online(&mut warm_sess, &pool, &cfg, &trace, ReplanMode::WarmEdits)
        .expect("warm online run");
    let mut cold_sess: SolveSession<f64, MasterSlave> =
        SolveSession::new(MasterSlave::new(NodeId(0)));
    let cold = simulate_online(
        &mut cold_sess,
        &pool,
        &cfg,
        &trace,
        ReplanMode::ColdPerEvent,
    )
    .expect("cold online run");

    // Identical trace and optima: both modes must execute the same
    // schedule and serve the same re-plan stream.
    assert_eq!(
        warm.replans.len(),
        cold.replans.len(),
        "p={p}: replan streams diverge"
    );
    for (a, b) in warm.jobs.iter().zip(&cold.jobs) {
        assert_eq!(a.finish, b.finish, "p={p}: warm/cold job timelines diverge");
    }
    // The redesign's acceptance claims, where they matter: at scale.
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
    assert!(
        warm.total_solve_ms() < cold.total_solve_ms(),
        "p={p}: warm-with-edits is no faster than cold-per-event on mean re-plan wall-clock \
         ({:.3} ms vs {:.3} ms per re-plan)",
        warm.total_solve_ms() / warm.replans.len() as f64,
        cold.total_solve_ms() / cold.replans.len() as f64
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
        jobs: warm.jobs.len(),
        warm: ModeStats::of(&warm),
        cold: ModeStats::of(&cold),
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
        for (tag, st) in [("warm-edits", &pt.warm), ("cold/event", &pt.cold)] {
            rows.push(vec![
                pt.p.to_string(),
                tag.into(),
                st.replans.to_string(),
                st.cold_fallbacks.to_string(),
                st.migrations.to_string(),
                st.pivots.to_string(),
                format!("{:.3}", st.mean_solve_ms),
                format!("{:.2}", st.mean_stretch),
                format!("{:.2}", st.p95_stretch),
            ]);
        }
        for (tag, st) in [("fcfs", &pt.fcfs), ("backfill", &pt.backfill)] {
            rows.push(vec![
                pt.p.to_string(),
                tag.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{:.2}", st.mean_stretch),
                format!("{:.2}", st.p95_stretch),
            ]);
        }
    }
    print_table(
        &[
            "p",
            "mode",
            "replans",
            "cold fb",
            "migrated",
            "pivots",
            "mean ms",
            "mean stretch",
            "p95 stretch",
        ],
        &rows,
    );

    match write_online_json(&points) {
        Ok(path) => println!("\nrecorded online sweep to {path}"),
        Err(e) => eprintln!("could not write BENCH_lp_online.json: {e}"),
    }
}

fn write_online_json(points: &[ScalePoint]) -> std::io::Result<String> {
    fn mode_json(st: &ModeStats) -> String {
        format!(
            "{{\"replans\": {}, \"cold_fallbacks\": {}, \"migrations\": {}, \
             \"pivots\": {}, \"mean_solve_ms\": {:.4}, \"mean_stretch\": {:.4}, \
             \"p95_stretch\": {:.4}}}",
            st.replans,
            st.cold_fallbacks,
            st.migrations,
            st.pivots,
            st.mean_solve_ms,
            st.mean_stretch,
            st.p95_stretch
        )
    }
    fn batch_json(st: &BatchStats) -> String {
        format!(
            "{{\"mean_stretch\": {:.4}, \"p95_stretch\": {:.4}}}",
            st.mean_stretch, st.p95_stretch
        )
    }
    let mut s = String::from("{\n  \"online_scale\": [\n");
    for (i, pt) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"p\": {}, \"jobs\": {}, \"warm\": {}, \"cold\": {}, \
             \"fcfs\": {}, \"backfill\": {}}}",
            pt.p,
            pt.jobs,
            mode_json(&pt.warm),
            mode_json(&pt.cold),
            batch_json(&pt.fcfs),
            batch_json(&pt.backfill)
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
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
    let mut rng = StdRng::seed_from_u64(0x0e11e + p as u64);
    let pool = WorkerPool::random(&mut rng, p);
    let cfg = OnlineConfig {
        njobs: 20,
        ..online_cfg(p, 0xca11 + p as u64)
    };
    let trace = OnlineTrace::generate(&cfg);

    let mut warm_sess: SolveSession<f64, MasterSlave> =
        SolveSession::new(MasterSlave::new(NodeId(0)));
    let warm = simulate_online(&mut warm_sess, &pool, &cfg, &trace, ReplanMode::WarmEdits)
        .expect("warm online run");
    let mut cold_sess: SolveSession<f64, MasterSlave> =
        SolveSession::new(MasterSlave::new(NodeId(0)));
    let cold = simulate_online(
        &mut cold_sess,
        &pool,
        &cfg,
        &trace,
        ReplanMode::ColdPerEvent,
    )
    .expect("cold online run");

    assert_eq!(
        warm.cold_fallbacks, 0,
        "a shape edit fell back to a cold solve"
    );
    assert!(warm.migrations > 0, "no re-plan migrated the basis");
    assert!(
        warm.replans.iter().any(|r| r.arrival) && warm.replans.iter().any(|r| !r.arrival),
        "trace exercised only one churn direction"
    );
    for (a, b) in warm.jobs.iter().zip(&cold.jobs) {
        assert_eq!(a.finish, b.finish, "warm/cold job timelines diverge");
    }
    assert!(
        warm.total_iterations() <= cold.total_iterations(),
        "warm re-plans pivot more than cold ({} vs {})",
        warm.total_iterations(),
        cold.total_iterations()
    );
    print_table(
        &[
            "mode",
            "replans",
            "cold fb",
            "migrated",
            "pivots",
            "mean stretch",
        ],
        &[
            vec![
                "warm-edits".into(),
                warm.replans.len().to_string(),
                warm.cold_fallbacks.to_string(),
                warm.migrations.to_string(),
                warm.total_iterations().to_string(),
                format!("{:.2}", warm.mean_stretch()),
            ],
            vec![
                "cold/event".into(),
                cold.replans.len().to_string(),
                cold.cold_fallbacks.to_string(),
                cold.migrations.to_string(),
                cold.total_iterations().to_string(),
                format!("{:.2}", cold.mean_stretch()),
            ],
        ],
    );
    println!(
        "every churn re-plan rode the migrated basis; warm and cold schedules agree \
         (asserted; failures panic CI)."
    );
}

/// The `bench-check` slice for `BENCH_lp_online.json`: replays every
/// recorded pool size and fails if the fresh **warm/cold mean re-plan
/// wall-clock ratio** regresses past 2x the committed one (capped at 1.0
/// — warm must at minimum still beat cold), or if any shape edit falls
/// back to a cold solve (deterministic, no headroom needed; asserted
/// inside `run_point`).
pub fn online_check() {
    let committed = std::fs::read_to_string(BENCH_PATH)
        .unwrap_or_else(|e| panic!("cannot read committed BENCH_lp_online.json: {e}"));
    let doc = serde_json::parse(&committed)
        .unwrap_or_else(|e| panic!("committed BENCH_lp_online.json is not valid JSON: {e}"));
    let points = crate::warm::json_field(&doc, "online_scale")
        .and_then(crate::warm::json_array)
        .expect("BENCH_lp_online.json: missing `online_scale` array");
    assert!(!points.is_empty(), "committed file records no points");

    let mut rows = Vec::new();
    let mut regressed = false;
    for rec in points {
        let p = crate::warm::json_field(rec, "p")
            .and_then(crate::warm::json_f64)
            .expect("point without `p`") as usize;
        let ms = |side: &str| {
            crate::warm::json_field(rec, side)
                .and_then(|s| crate::warm::json_field(s, "mean_solve_ms"))
                .and_then(crate::warm::json_f64)
                .unwrap_or_else(|| panic!("point without `{side}.mean_solve_ms`"))
        };
        let committed_ratio = ms("warm") / ms("cold").max(1e-9);

        // Fresh replay; run_point asserts zero cold fallbacks and the
        // strict warm-beats-cold wall-clock claim internally.
        let fresh = run_point(p);
        let fresh_ratio = fresh.warm.mean_solve_ms / fresh.cold.mean_solve_ms.max(1e-9);
        // 2x headroom on the ratio of ratios (machine speed cancels: warm
        // and cold re-plans run back to back on the same box), a 0.10
        // absolute floor against sub-millisecond timer noise, and a hard
        // 1.0 cap: whatever the committed advantage, warm must still win.
        let limit = (committed_ratio * 2.0).clamp(0.10, 1.0);
        let ok = fresh_ratio <= limit;
        regressed |= !ok;
        rows.push(vec![
            p.to_string(),
            format!("{committed_ratio:.3}"),
            format!("{fresh_ratio:.3}"),
            format!("{limit:.3}"),
            fresh.warm.cold_fallbacks.to_string(),
            if ok { "ok".into() } else { "REGRESSED".into() },
        ]);
    }
    print_table(
        &[
            "p",
            "committed ms ratio",
            "fresh ms ratio",
            "limit",
            "cold fb",
            "verdict",
        ],
        &rows,
    );
    assert!(
        !regressed,
        "online warm/cold mean re-plan wall-clock ratio regressed past the committed \
         BENCH_lp_online.json"
    );
    println!(
        "fresh online warm/cold wall-clock ratio within 2x of the committed record at every \
         pool size, zero cold fallbacks."
    );
}
