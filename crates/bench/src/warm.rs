//! Warm-started re-solve experiments: the `warm-scale` sweep and the
//! `warm-smoke` / `dual-smoke` / `bench-check` CI guards.
//!
//! §5.5 re-solves the steady-state LP every phase from observed
//! parameters. The [`warm_scale`] sweep drives a large SSMS platform
//! through ~20 drift phases twice — once through a hot
//! [`SolveSession`] (basis reuse) and once solving every phase from
//! scratch — and records pivots, wall-clock and the warm path taken per
//! phase to `BENCH_lp_warm.json`, asserting in-sweep that warm re-solves
//! pivot strictly less on average **and never fall back cold**: with the
//! bounded dual simplex ahead of the composite primal repair, every
//! drifted basis is either restored on optimal-side bases
//! (`dual-repaired`) or patched primal-side (`repaired`).
//!
//! [`warm_smoke`] is the correctness guard (small platforms, exact and
//! `f64` sessions against per-phase cold solves, certificates verified,
//! shape-change fallback). [`dual_smoke`] is the dual-path guard: drift
//! aggressive enough to break primal feasibility every few phases must
//! route through the dual repair — zero cold fallbacks, both scalars,
//! answers identical to cold. [`bench_check`] is the regression gate: a
//! fresh sweep must not pivot more than 2x the committed
//! `BENCH_lp_warm.json` numbers at any recorded platform size.

use crate::parallel::par_map;
use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::MasterSlave;
use ss_core::session::SolveSession;
use ss_core::WarmOutcome;
use ss_lp::{Factor, Kernel, Pricing, SimplexOptions};
use ss_num::Ratio;
use ss_platform::{topo, Platform};
use ss_sim::dynamic::ParamScale;
use std::fmt::Write as _;
use std::time::Instant;

/// Drift phases per platform in the sweep (phase 0 is nominal/cold).
const PHASES: usize = 20;

/// Largest platform at which the sweep asserts warm < cold on mean
/// wall-clock (see the comment at the assert in [`sweep_platform`]).
const WALL_CLOCK_ASSERT_MAX_P: usize = 256;

/// Where the sweep records its phases (and where [`bench_check`] reads
/// the committed reference back from).
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_warm.json");

/// Mild multiplicative drift: each node/edge is rescaled with probability
/// `prob` by a factor in [2/3, 3/2] — the NWS-style "machine got loaded /
/// link got congested" regime of §5.5.
fn random_drift(rng: &mut StdRng, g: &Platform, prob: f64) -> ParamScale {
    let mut s = ParamScale::nominal(g);
    for w in s.w_mult.iter_mut() {
        if rng.gen_bool(prob) {
            *w = Ratio::new(rng.gen_range(8..=18), 12);
        }
    }
    for c in s.c_mult.iter_mut() {
        if rng.gen_bool(prob) {
            *c = Ratio::new(rng.gen_range(8..=18), 12);
        }
    }
    s
}

struct PhasePoint {
    outcome: WarmOutcome,
    warm_pivots: usize,
    cold_pivots: usize,
    warm_ms: f64,
    cold_ms: f64,
    build_ms: f64,
    snapshot_ms: f64,
    priced_columns: usize,
    pricing_ms: f64,
    factor_ms: f64,
    update_ms: f64,
    ftran_btran_ms: f64,
    factor_nnz: usize,
    fill_ratio: f64,
}

/// How many re-solves took each warm path (phase 0's hint-less cold solve
/// excluded).
#[derive(Default)]
struct PathCounts {
    warm: usize,
    dual_repaired: usize,
    repaired: usize,
    cold_fallback: usize,
}

struct WarmSweep {
    p: usize,
    /// The factorization every solve of the sweep ran on.
    factor: Factor,
    phases: Vec<PhasePoint>,
    paths: PathCounts,
    mean_warm: f64,
    mean_cold: f64,
    mean_warm_ms: f64,
    mean_cold_ms: f64,
}

fn sweep_platform(p: usize) -> WarmSweep {
    let mut rng = StdRng::seed_from_u64(p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.25, &topo::ParamRange::default());
    let f = MasterSlave::new(m);
    // One set of options for the session and its cold reference alike.
    let opts = SimplexOptions::default();
    let mut sess: SolveSession<f64, MasterSlave> =
        SolveSession::with_options(MasterSlave::new(m), opts.clone());

    let mut drift_rng = StdRng::seed_from_u64(0xd21f7 + p as u64);
    let mut phases = Vec::with_capacity(PHASES);
    let mut paths = PathCounts::default();
    for t in 0..PHASES {
        let scale = if t == 0 {
            ParamScale::nominal(&g)
        } else {
            random_drift(&mut drift_rng, &g, 0.3)
        };
        let gp = scale.apply(&g);

        // The session's own telemetry is the honest warm clock: it
        // excludes the formulation build (the cold reference builds its
        // problem outside the timer below, so an outer wall-clock here
        // would bill assembly against the warm column only — exactly the
        // asymmetry that once made a 3-pivot pure-warm re-solve look
        // slower than its 100-pivot cold reference) and the snapshot
        // capture that seeds the *next* phase.
        let warm = sess.resolve(&gp).expect("warm re-solve");
        let warm_ms = warm.telemetry.solve_ms;

        // The cold reference: identical instance, fresh two-phase solve.
        let (lp, _) = f.build(&gp).expect("SSMS build");
        let t0 = Instant::now();
        let cold = engine::solve_problem_with::<f64>(&lp, &opts).expect("cold solve");
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

        let err = (warm.activities.objective_f64() - cold.objective_f64()).abs();
        assert!(
            err <= crate::scale::BACKEND_TOLERANCE * (1.0 + cold.objective_f64().abs()),
            "p={p} phase={t}: warm/cold disagree |Δ| = {err:.3e}"
        );
        if t > 0 {
            match warm.telemetry.outcome {
                WarmOutcome::Cold => panic!("p={p} phase={t}: session lost its warm state"),
                WarmOutcome::Warm => paths.warm += 1,
                WarmOutcome::DualRepaired => paths.dual_repaired += 1,
                WarmOutcome::Repaired => paths.repaired += 1,
                WarmOutcome::ColdFallback => paths.cold_fallback += 1,
            }
        }
        phases.push(PhasePoint {
            outcome: warm.telemetry.outcome,
            warm_pivots: warm.telemetry.iterations,
            cold_pivots: cold.iterations(),
            warm_ms,
            cold_ms,
            build_ms: warm.telemetry.build_ms,
            snapshot_ms: warm.telemetry.snapshot_ms,
            priced_columns: warm.telemetry.priced_columns,
            pricing_ms: warm.telemetry.pricing_ms,
            factor_ms: warm.telemetry.factor_ms,
            update_ms: warm.telemetry.update_ms,
            ftran_btran_ms: warm.telemetry.ftran_btran_ms,
            factor_nnz: warm.telemetry.factor_nnz,
            fill_ratio: warm.telemetry.fill_ratio,
        });
    }

    // The sweep's reason to exist, asserted in-sweep: across the re-solve
    // phases (1..), basis reuse pivots strictly less on average — and with
    // the dual repair ahead of the primal one, *no* drifted basis is ever
    // given up cold.
    let resolves = &phases[1..];
    let mean_warm =
        resolves.iter().map(|q| q.warm_pivots).sum::<usize>() as f64 / resolves.len() as f64;
    let mean_cold =
        resolves.iter().map(|q| q.cold_pivots).sum::<usize>() as f64 / resolves.len() as f64;
    assert!(
        mean_warm < mean_cold,
        "p={p}: warm re-solves pivot no less than cold ({mean_warm:.1} vs {mean_cold:.1})"
    );
    assert_eq!(
        paths.cold_fallback, 0,
        "p={p}: {} drifted re-solve(s) fell back cold despite the dual repair",
        paths.cold_fallback
    );
    // And fewer pivots must translate into less *time*: the warm path's
    // higher per-pivot cost (a BTRAN and a row-wise pivot row per violated
    // row, reference-weight bookkeeping) must stay under what the pivot
    // savings buy. Mean over the re-solves — single phases may wobble
    // with the OS scheduler, the mean may not.
    //
    // Asserted up to p = 256 only. Since the primal prices row-wise from
    // maintained reduced costs, a cold p = 512 solve costs ~2 k priced
    // columns per pivot, while a heavy-drift dual repair there still
    // scatters ~45 k (ρ is about a quarter dense at a near-optimal basis):
    // 2.3x fewer pivots no longer pay for 20x the pricing per pivot, and
    // warm loses to cold on the clock. That is a finding, not noise, so at
    // p = 512 the ratio is recorded (`warm_over_cold_ms` in the JSON, and
    // still held to 2x its committed value by `bench-check`) instead of
    // asserted; ROADMAP names it as the next layer to kill.
    let mean_warm_ms = resolves.iter().map(|q| q.warm_ms).sum::<f64>() / resolves.len() as f64;
    let mean_cold_ms = resolves.iter().map(|q| q.cold_ms).sum::<f64>() / resolves.len() as f64;
    assert!(
        p > WALL_CLOCK_ASSERT_MAX_P || mean_warm_ms < mean_cold_ms,
        "p={p}: warm re-solves are no faster than cold on wall-clock \
         ({mean_warm_ms:.2}ms vs {mean_cold_ms:.2}ms)"
    );
    WarmSweep {
        p,
        factor: opts.factor,
        phases,
        paths,
        mean_warm,
        mean_cold,
        mean_warm_ms,
        mean_cold_ms,
    }
}

/// `warm-scale`: a drifting p = 96 / 192 / 256 / 512 platform re-solved
/// across `PHASES` phases through a hot session vs from scratch;
/// per-phase pivots, times, snapshot overhead, factorization split and
/// warm paths recorded to `BENCH_lp_warm.json`, with the in-sweep
/// assertions that warm re-solves pivot strictly less on average, never
/// fall back cold, and — up to p = 256 — beat cold on wall-clock (at
/// p = 512 the warm/cold clock ratio is recorded as `warm_over_cold_ms`
/// instead; see `sweep_platform`). The p ≥ 256 points are
/// what the sparse-LU basis (see `ss_lp::factor`) unlocked: under the
/// eta file their per-phase FTRAN/BTRAN cost grew with accumulated
/// pivots and the sweep did not finish in CI budget.
pub fn warm_scale() {
    banner(
        "warm-scale",
        "§5.5 — warm-started re-solve sessions vs cold per-phase solves (drifting SSMS)",
    );
    let sweeps = par_map(vec![96usize, 192, 256, 512], sweep_platform);

    for sw in &sweeps {
        println!("\np = {} ({} phases):", sw.p, sw.phases.len());
        let rows: Vec<Vec<String>> = sw
            .phases
            .iter()
            .enumerate()
            .map(|(t, q)| {
                vec![
                    t.to_string(),
                    q.outcome.to_string(),
                    q.warm_pivots.to_string(),
                    q.cold_pivots.to_string(),
                    format!("{:.2}", q.warm_ms),
                    format!("{:.2}", q.cold_ms),
                    format!("{:.3}", q.snapshot_ms),
                    q.priced_columns.to_string(),
                    format!("{:.3}", q.pricing_ms),
                    format!("{:.3}", q.factor_ms),
                    format!("{:.3}", q.update_ms),
                    format!("{:.3}", q.ftran_btran_ms),
                    format!("{:.2}", q.fill_ratio),
                ]
            })
            .collect();
        print_table(
            &[
                "phase",
                "path",
                "warm pivots",
                "cold pivots",
                "warm ms",
                "cold ms",
                "snapshot ms",
                "priced cols",
                "pricing ms",
                "factor ms",
                "update ms",
                "ftran ms",
                "fill",
            ],
            &rows,
        );
        println!(
            "paths over re-solves: {} warm, {} dual-repaired, {} repaired, {} cold-fallback \
             (zero asserted)",
            sw.paths.warm, sw.paths.dual_repaired, sw.paths.repaired, sw.paths.cold_fallback
        );
        println!(
            "mean over re-solves: warm {:.1} vs cold {:.1} pivots ({:.1}x fewer, asserted strict)",
            sw.mean_warm,
            sw.mean_cold,
            sw.mean_cold / sw.mean_warm.max(1.0)
        );
        println!(
            "mean over re-solves: warm {:.2}ms vs cold {:.2}ms wall-clock ({})",
            sw.mean_warm_ms,
            sw.mean_cold_ms,
            if sw.p <= WALL_CLOCK_ASSERT_MAX_P {
                "asserted strict"
            } else {
                "recorded, not asserted"
            }
        );
    }

    match write_warm_json(&sweeps) {
        Ok(path) => println!("\nrecorded warm-vs-cold phases to {path}"),
        Err(e) => eprintln!("could not write BENCH_lp_warm.json: {e}"),
    }
}

fn write_warm_json(sweeps: &[WarmSweep]) -> std::io::Result<String> {
    let mut s = format!(
        "{{\n  \"factor\": \"{}\",\n  \"warm_scale\": [\n",
        sweeps.first().map(|sw| sw.factor).unwrap_or_default()
    );
    for (i, sw) in sweeps.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"p\": {}, \"mean_warm_pivots\": {:.2}, \"mean_cold_pivots\": {:.2}, \
             \"mean_warm_ms\": {:.3}, \"mean_cold_ms\": {:.3}, \"warm_over_cold_ms\": {:.3}, \
             \"paths\": {{\"warm\": {}, \"dual_repaired\": {}, \"repaired\": {}, \
             \"cold_fallback\": {}}}, \"phases\": [",
            sw.p,
            sw.mean_warm,
            sw.mean_cold,
            sw.mean_warm_ms,
            sw.mean_cold_ms,
            sw.mean_warm_ms / sw.mean_cold_ms.max(1e-9),
            sw.paths.warm,
            sw.paths.dual_repaired,
            sw.paths.repaired,
            sw.paths.cold_fallback
        );
        for (t, q) in sw.phases.iter().enumerate() {
            let _ = write!(
                s,
                "      {{\"phase\": {}, \"path\": \"{}\", \"warm_pivots\": {}, \
                 \"cold_pivots\": {}, \"warm_ms\": {:.3}, \"cold_ms\": {:.3}, \
                 \"build_ms\": {:.3}, \"snapshot_ms\": {:.3}, \
                 \"priced_columns\": {}, \"pricing_ms\": {:.3}, \
                 \"factor_ms\": {:.3}, \"update_ms\": {:.3}, \
                 \"ftran_btran_ms\": {:.3}, \"factor_nnz\": {}, \
                 \"fill_ratio\": {:.3}}}",
                t,
                q.outcome,
                q.warm_pivots,
                q.cold_pivots,
                q.warm_ms,
                q.cold_ms,
                q.build_ms,
                q.snapshot_ms,
                q.priced_columns,
                q.pricing_ms,
                q.factor_ms,
                q.update_ms,
                q.ftran_btran_ms,
                q.factor_nnz,
                q.fill_ratio
            );
            s.push_str(if t + 1 < sw.phases.len() { ",\n" } else { "\n" });
        }
        s.push_str("    ]}");
        s.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    std::fs::write(BENCH_PATH, s)?;
    Ok("BENCH_lp_warm.json".into())
}

/// `warm-smoke`: the CI guard for the warm-start machinery. Small
/// platforms, both scalar backends: session re-solves must agree with
/// per-phase cold solves (exactly for `Ratio`, within tolerance for
/// `f64`), verify duality certificates at checkpoints, go through the
/// warm machinery from phase 2 on, pivot less in total — and a
/// shape-changing drift must migrate the live basis onto the new form
/// (the session-edit path) and still agree with a cold solve.
pub fn warm_smoke() {
    banner(
        "warm-smoke",
        "warm-start regression guard — sessions vs cold re-solves, both backends, small p",
    );
    let mut rows = Vec::new();
    for p in [8usize, 12] {
        let mut rng = StdRng::seed_from_u64(11_000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
        let mut drift_rng = StdRng::seed_from_u64(22_000 + p as u64);

        let mut exact_sess: SolveSession<Ratio, MasterSlave> =
            SolveSession::new(MasterSlave::new(m));
        let mut fast_sess: SolveSession<f64, MasterSlave> = SolveSession::new(MasterSlave::new(m));
        let mut warm_pivots = 0usize;
        let mut cold_pivots = 0usize;
        let mut warm_used = 0usize;
        for t in 0..6 {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                random_drift(&mut drift_rng, &g, 0.4)
            };
            let gp = scale.apply(&g);
            let exact = exact_sess.resolve(&gp).expect("exact warm re-solve");
            let cold = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &gp)
                .expect("exact cold solve");
            assert_eq!(
                exact.activities.objective(),
                cold.objective(),
                "p={p} phase={t}: exact warm optimum drifted"
            );
            let fast = fast_sess.resolve(&gp).expect("f64 warm re-solve");
            let err = (fast.activities.objective_f64() - cold.objective().to_f64()).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE,
                "p={p} phase={t}: f64 warm drifts by {err:.3e}"
            );
            if t > 0 {
                assert_ne!(
                    exact.telemetry.outcome,
                    WarmOutcome::Cold,
                    "p={p} phase={t}"
                );
                warm_pivots += exact.telemetry.iterations;
                cold_pivots += cold.iterations();
                if exact.telemetry.outcome.used_warm_basis() {
                    warm_used += 1;
                }
            }
            // Checkpoint: exact re-certification of both sessions.
            exact_sess.certify(&gp).expect("exact certification");
            fast_sess.certify(&gp).expect("f64-session certification");
        }
        assert!(
            warm_pivots < cold_pivots,
            "p={p}: warm re-solves did not save pivots ({warm_pivots} vs {cold_pivots})"
        );
        assert!(warm_used > 0, "p={p}: no re-solve reused the warm basis");

        // A platform of a different shape no longer gives the basis up:
        // the session diffs the old and new form layouts, migrates the
        // live basis onto the grown LP, and must agree with a cold solve.
        let mut rng2 = StdRng::seed_from_u64(33_000 + p as u64);
        let (g2, _) = topo::random_connected(&mut rng2, p + 3, 0.3, &topo::ParamRange::default());
        let edited = exact_sess.resolve(&g2).expect("shape-change re-solve");
        assert_ne!(edited.telemetry.outcome, WarmOutcome::Cold, "p={p}");
        if edited.telemetry.outcome.used_warm_basis() {
            let edit = edited
                .telemetry
                .edit
                .unwrap_or_else(|| panic!("p={p}: warm shape change recorded no edit summary"));
            assert!(edit.added_cols > 0, "p={p}: grown LP added no columns");
        }
        let cold2 = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &g2)
            .expect("exact cold solve on the grown shape");
        assert_eq!(
            edited.activities.objective(),
            cold2.objective(),
            "p={p}: migrated optimum drifted off the cold solve"
        );
        let rewarmed = exact_sess.resolve(&g2).expect("re-warm on new shape");
        assert!(rewarmed.telemetry.outcome.used_warm_basis(), "p={p}");

        rows.push(vec![
            p.to_string(),
            format!("{warm_used}/5"),
            warm_pivots.to_string(),
            cold_pivots.to_string(),
            exact_sess.stats().certifications.to_string(),
        ]);
    }
    print_table(
        &["p", "warm used", "warm pivots", "cold pivots", "certs"],
        &rows,
    );
    println!("sessions agree with cold re-solves on both backends (asserted; failures panic CI).");
}

/// Aggressive drift for the dual-path guard: half the parameters move,
/// by up to ~1.7x either way — enough to knock the previous basis primal
/// infeasible every few phases without changing the LP's shape.
fn aggressive_drift(rng: &mut StdRng, g: &Platform) -> ParamScale {
    let mut s = ParamScale::nominal(g);
    for w in s.w_mult.iter_mut() {
        if rng.gen_bool(0.5) {
            *w = Ratio::new(rng.gen_range(7..=20), 12);
        }
    }
    for c in s.c_mult.iter_mut() {
        if rng.gen_bool(0.5) {
            *c = Ratio::new(rng.gen_range(7..=20), 12);
        }
    }
    s
}

/// `dual-smoke`: the CI guard for the bounded dual simplex on the warm
/// repair path. Drifted re-solves on both scalar backends must (a) never
/// fall back cold, (b) route through the dual repair at least once —
/// aggressive `ParamScale` drift reliably breaks primal feasibility —
/// and (c) agree with a fresh cold solve every phase (exactly for
/// `Ratio`, within tolerance for `f64`).
pub fn dual_smoke() {
    banner(
        "dual-smoke",
        "dual-repair regression guard — drifted re-solves must take the dual path, never cold",
    );
    let mut rows = Vec::new();

    // f64 backend: big enough that drift breaks feasibility every few
    // phases (the regime warm-scale sees at p = 192, shrunk for CI).
    {
        let p = 64usize;
        let mut rng = StdRng::seed_from_u64(44_000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
        let mut drift_rng = StdRng::seed_from_u64(55_000 + p as u64);
        let mut sess: SolveSession<f64, MasterSlave> = SolveSession::new(MasterSlave::new(m));
        let mut dual = 0usize;
        let mut fallback = 0usize;
        for t in 0..10 {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                aggressive_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).expect("f64 warm re-solve");
            let cold =
                engine::solve_backend::<f64, _>(&MasterSlave::new(m), &gp).expect("f64 cold solve");
            let err = (warm.activities.objective_f64() - cold.objective_f64()).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE * (1.0 + cold.objective_f64().abs()),
                "f64 p={p} phase={t}: warm/cold disagree |Δ| = {err:.3e}"
            );
            match warm.telemetry.outcome {
                WarmOutcome::DualRepaired => dual += 1,
                WarmOutcome::ColdFallback => fallback += 1,
                _ => {}
            }
        }
        assert_eq!(fallback, 0, "f64 p={p}: drifted re-solves fell back cold");
        assert!(
            dual > 0,
            "f64 p={p}: no drifted re-solve exercised the dual repair"
        );
        rows.push(vec![
            "f64".into(),
            p.to_string(),
            dual.to_string(),
            "0".into(),
        ]);
    }

    // Exact backend: smaller platform, same guarantees — plus exact
    // equality against the cold optimum and a verified certificate.
    {
        let p = 16usize;
        let mut rng = StdRng::seed_from_u64(66_000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.35, &topo::ParamRange::default());
        let mut drift_rng = StdRng::seed_from_u64(77_000 + p as u64);
        let mut sess: SolveSession<Ratio, MasterSlave> = SolveSession::new(MasterSlave::new(m));
        let mut dual = 0usize;
        let mut fallback = 0usize;
        let mut last_gp = g.clone();
        for t in 0..10 {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                aggressive_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).expect("exact warm re-solve");
            let cold = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &gp)
                .expect("exact cold solve");
            assert_eq!(
                warm.activities.objective(),
                cold.objective(),
                "Ratio p={p} phase={t}: warm optimum drifted off the cold one"
            );
            match warm.telemetry.outcome {
                WarmOutcome::DualRepaired => dual += 1,
                WarmOutcome::ColdFallback => fallback += 1,
                _ => {}
            }
            last_gp = gp;
        }
        assert_eq!(fallback, 0, "Ratio p={p}: drifted re-solves fell back cold");
        assert!(
            dual > 0,
            "Ratio p={p}: no drifted re-solve exercised the dual repair"
        );
        // Certify the *last drifted* instance — the state the dual-repair
        // path actually produced, not the nominal platform.
        sess.certify(&last_gp).expect("final exact certification");
        rows.push(vec![
            "Ratio".into(),
            p.to_string(),
            dual.to_string(),
            "0".into(),
        ]);
    }

    print_table(&["backend", "p", "dual-repaired", "cold-fallback"], &rows);
    println!("dual repair carries drifted re-solves on both backends (asserted; failures panic).");
}

/// `pricing-smoke`: the CI guard for the pricing subsystem. A drifting
/// SSMS platform is re-solved through a warm session pinned, through its
/// `SimplexOptions`, to devex and then to Dantzig, and
/// every phase must agree with a Bland-forced cold reference. On top of
/// that, one drifted instance is solved cold under every *explicit* rule
/// on both scalar backends: all optima must coincide (exactly on `Ratio`,
/// within tolerance on `f64`), the recorded [`PivotRule`](ss_lp::PivotRule)
/// must match the requested rule, the exact solve must pass the full
/// LP-duality certificate under every rule on both factorizations, and
/// the pricing telemetry must actually count work (`priced_columns > 0`).
/// Last, a cold `f64` sparse solve at p = 96 must price fewer than half a
/// full sweep per pivot under devex and Dantzig — the guard that fails if
/// the per-iteration full sweep ever comes back.
pub fn pricing_smoke() {
    banner(
        "pricing-smoke",
        "pricing-rule agreement guard — devex/dantzig/bland land on one optimum, warm and cold",
    );
    let p = 24usize;
    let mut rng = StdRng::seed_from_u64(88_000 + p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
    let f = MasterSlave::new(m);

    // Drift sessions, one per cached rule; aggressive drift so the dual
    // repair (and with it the shared pivot-row kernel from the dual side)
    // gets exercised, not just the pure-warm path. Both sessions see the
    // same drift sequence.
    // The Bland-forced cold solve is the agreement reference: the rule
    // every scalar backend can run exactly.
    let bland = SimplexOptions {
        pricing: Pricing::Bland,
        ..SimplexOptions::default()
    };
    let mut last_gp = g.clone();
    for pricing in [Pricing::Devex, Pricing::Dantzig] {
        let mut drift_rng = StdRng::seed_from_u64(99_000 + p as u64);
        let mut sess: SolveSession<f64, MasterSlave> = SolveSession::with_options(
            MasterSlave::new(m),
            SimplexOptions {
                pricing,
                ..SimplexOptions::default()
            },
        );
        let mut rows = Vec::new();
        for t in 0..8 {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                aggressive_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).expect("drifted re-solve");
            let (lp, _) = f.build(&gp).expect("SSMS build");

            let reference = lp.solve_with::<f64>(&bland).expect("Bland reference");
            let err = (warm.activities.objective_f64() - reference.objective()).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE * (1.0 + reference.objective().abs()),
                "phase {t}: session under {pricing:?} pricing drifts off the Bland reference \
                 by {err:.3e}"
            );
            assert_eq!(
                warm.activities.solution().pivot_rule(),
                pricing.resolve::<f64>(),
                "phase {t}: session did not run the rule its options pin"
            );
            assert!(
                warm.telemetry.priced_columns > 0,
                "phase {t}: solve priced no columns — telemetry wiring broken"
            );

            rows.push(vec![
                t.to_string(),
                warm.telemetry.outcome.to_string(),
                warm.telemetry.iterations.to_string(),
                warm.telemetry.priced_columns.to_string(),
                format!("{:.3}", warm.telemetry.pricing_ms),
                format!("{err:.1e}"),
            ]);
            last_gp = gp;
        }
        println!("session pricing: {pricing:?}");
        print_table(
            &[
                "phase",
                "path",
                "pivots",
                "priced cols",
                "pricing ms",
                "|Δ| vs bland",
            ],
            &rows,
        );
    }

    // Explicit rule matrix on the last drifted instance, cold, both
    // scalar backends on both factorizations. Explicit Dantzig/devex are
    // legal on the exact backend too (the Bland stall-fallback past half
    // the budget restores the termination guarantee), so the matrix is
    // 3 rules × 2 scalars × 2 factorizations — the two cached rules and
    // the uncached one must not be told apart by their answers.
    let (lp, _) = f.build(&last_gp).expect("SSMS build");
    let exact_ref = lp
        .solve_with::<Ratio>(&SimplexOptions::default())
        .expect("exact reference");
    let matrix = [Pricing::Bland, Pricing::Dantzig, Pricing::Devex]
        .into_iter()
        .flat_map(|pr| [Factor::EtaFile, Factor::SparseLu].map(|fc| (pr, fc)));
    for (pricing, factor) in matrix {
        let opts = SimplexOptions {
            pricing,
            factor,
            kernel: Kernel::SparseRevised,
            ..SimplexOptions::default()
        };
        let fast = lp
            .solve_with::<f64>(&opts)
            .expect("explicit-rule f64 solve");
        assert_eq!(
            fast.pivot_rule(),
            pricing.resolve::<f64>(),
            "f64 solve did not record the requested rule"
        );
        let err = (fast.objective() - exact_ref.objective().to_f64()).abs();
        assert!(
            err <= crate::scale::BACKEND_TOLERANCE * (1.0 + fast.objective().abs()),
            "{pricing:?} (f64) lands {err:.3e} off the exact optimum"
        );
        let exact = lp
            .solve_with::<Ratio>(&opts)
            .expect("explicit-rule exact solve");
        assert_eq!(
            exact.objective(),
            exact_ref.objective(),
            "{pricing:?} (Ratio) changed the exact optimum"
        );
        lp.verify_optimality(&exact)
            .unwrap_or_else(|e| panic!("{pricing:?} (Ratio) fails the duality certificate: {e}"));
    }
    println!(
        "bland/dantzig/devex agree on both backends, certificates verified (asserted; failures \
         panic CI)."
    );

    // The full sweep must not come back. A cold f64 sparse solve under a
    // cached rule prices one full sweep per (re)seed plus the columns each
    // pivot row touches; the loop this replaced priced every nonbasic
    // column twice per pivot. Half of one sweep per pivot is a bound the
    // maintained cache clears several times over and any per-iteration
    // sweep cannot meet.
    let p_big = 96usize;
    let mut rng = StdRng::seed_from_u64(88_000 + p_big as u64);
    let (g, m) = topo::random_connected(&mut rng, p_big, 0.25, &topo::ParamRange::default());
    let (lp, _) = MasterSlave::new(m).build(&g).expect("SSMS build");
    let ncols = ss_lp::lower::<f64>(&lp).ncols;
    let mut rows = Vec::new();
    for pricing in [Pricing::Devex, Pricing::Dantzig] {
        let opts = SimplexOptions {
            pricing,
            kernel: Kernel::SparseRevised,
            ..SimplexOptions::default()
        };
        let cold = lp.solve_with::<f64>(&opts).expect("cold f64 sparse solve");
        let full_sweeps = cold.iterations() * ncols;
        assert!(
            2 * cold.priced_columns() < full_sweeps,
            "{pricing:?} p={p_big}: {} priced columns over {} pivots × {ncols} columns — the \
             per-iteration full sweep is back",
            cold.priced_columns(),
            cold.iterations()
        );
        rows.push(vec![
            format!("{pricing:?}"),
            cold.iterations().to_string(),
            ncols.to_string(),
            cold.priced_columns().to_string(),
            format!("{:.3}", cold.priced_columns() as f64 / full_sweeps as f64),
        ]);
    }
    print_table(
        &[
            "rule",
            "pivots",
            "columns",
            "priced cols",
            "of pivots × columns",
        ],
        &rows,
    );
    println!(
        "cold p={p_big} solves price < 0.5 sweeps per pivot under both cached rules (asserted)."
    );
}

/// `factor-smoke`: the CI guard for the basis-factorization subsystem. A
/// drifting SSMS platform is re-solved through a warm session pinned,
/// through its `SimplexOptions`, to the eta file and then to sparse LU, and
/// every phase must agree with a cold reference. On top of that, one
/// drifted instance is solved cold under both *explicit* backends on both
/// scalar backends and both kernels: all optima must coincide (exactly on
/// `Ratio`, within tolerance on `f64`), the recorded
/// [`FactorStats`](ss_lp::FactorStats) backend tag must match the
/// requested one on the sparse kernel, the exact solves must pass the
/// full LP-duality certificate under both backends, and the factor
/// telemetry must actually count work (`refactorizations > 0` on the
/// sparse kernel).
pub fn factor_smoke() {
    banner(
        "factor-smoke",
        "basis-factorization agreement guard — eta file and sparse LU land on one optimum",
    );
    let p = 24usize;
    let mut rng = StdRng::seed_from_u64(111_000 + p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
    let f = MasterSlave::new(m);

    // Drift sessions, one per backend; aggressive drift so the dual
    // repair's FTRAN/BTRAN traffic and the warm refactorization both run
    // against the pinned backend, not just cold factorizations. Both
    // sessions see the same drift sequence.
    let mut last_gp = g.clone();
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        let mut drift_rng = StdRng::seed_from_u64(121_000 + p as u64);
        let mut sess: SolveSession<f64, MasterSlave> = SolveSession::with_options(
            MasterSlave::new(m),
            SimplexOptions {
                factor,
                ..SimplexOptions::default()
            },
        );
        let mut rows = Vec::new();
        for t in 0..8 {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                aggressive_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).expect("drifted re-solve");
            let (lp, _) = f.build(&gp).expect("SSMS build");
            let cold = lp
                .solve_with::<f64>(&SimplexOptions::default())
                .expect("cold reference");
            let err = (warm.activities.objective_f64() - cold.objective()).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE * (1.0 + cold.objective().abs()),
                "phase {t}: session under {factor:?} factorization drifts off the cold \
                 reference by {err:.3e}"
            );
            assert_eq!(
                warm.activities.solution().factor().backend,
                factor,
                "phase {t}: session did not run the backend its options pin"
            );
            rows.push(vec![
                t.to_string(),
                warm.telemetry.outcome.to_string(),
                warm.telemetry.iterations.to_string(),
                format!("{:.3}", warm.telemetry.factor_ms),
                format!("{:.3}", warm.telemetry.update_ms),
                format!("{:.3}", warm.telemetry.ftran_btran_ms),
                format!("{:.2}", warm.telemetry.fill_ratio),
                format!("{err:.1e}"),
            ]);
            last_gp = gp;
        }
        println!("session factorization: {factor:?}");
        print_table(
            &[
                "phase",
                "path",
                "pivots",
                "factor ms",
                "update ms",
                "ftran ms",
                "fill",
                "|Δ| vs cold",
            ],
            &rows,
        );
    }

    // Explicit backend matrix on the last drifted instance, cold:
    // 2 factorizations × 2 scalars × 2 kernels, all one optimum.
    let (lp, _) = f.build(&last_gp).expect("SSMS build");
    let exact_ref = lp
        .solve_with::<Ratio>(&SimplexOptions::default())
        .expect("exact reference");
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        for kernel in [Kernel::SparseRevised, Kernel::Dense] {
            let opts = SimplexOptions {
                factor,
                kernel,
                ..SimplexOptions::default()
            };
            let fast = lp
                .solve_with::<f64>(&opts)
                .expect("explicit-backend f64 solve");
            let err = (fast.objective() - exact_ref.objective().to_f64()).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE * (1.0 + fast.objective().abs()),
                "{factor:?}/{kernel:?} (f64) lands {err:.3e} off the exact optimum"
            );
            let exact = lp
                .solve_with::<Ratio>(&opts)
                .expect("explicit-backend exact solve");
            assert_eq!(
                exact.objective(),
                exact_ref.objective(),
                "{factor:?}/{kernel:?} (Ratio) changed the exact optimum"
            );
            lp.verify_optimality(&exact).unwrap_or_else(|e| {
                panic!("{factor:?}/{kernel:?} (Ratio) fails the duality certificate: {e}")
            });
            if kernel == Kernel::SparseRevised {
                // The sparse kernel must have run the backend it was
                // asked for — and actually factorized through it.
                for (scalar, stats) in [("f64", fast.factor()), ("Ratio", exact.factor())] {
                    assert_eq!(
                        stats.backend, factor,
                        "{scalar} solve did not record the requested factorization backend"
                    );
                    assert!(
                        stats.refactorizations > 0,
                        "{factor:?} ({scalar}): no refactorization counted — telemetry wiring \
                         broken"
                    );
                }
            }
        }
    }
    println!(
        "eta and sparse LU agree on both scalars and kernels, certificates verified (asserted; \
         failures panic CI)."
    );
}

/// `bench-check`: the bench-regression gate. Reruns the warm-scale sweep
/// at every platform size recorded in the **committed**
/// `BENCH_lp_warm.json` and fails if, at any of them, the fresh mean warm
/// pivot count regresses by more than 2x — or the fresh **warm/cold
/// wall-clock ratio** regresses past 2x the committed ratio (pivots
/// catch algorithmic regressions; the clock ratio catches a pricing rule
/// whose per-pivot bookkeeping quietly eats the pivot savings). The gate
/// compares ratios, not absolute milliseconds, so machine speed and
/// background load cancel out — the committed file may have been written
/// on a faster box than the CI runner. The sweep's own
/// in-sweep asserts — strictly-fewer-than-cold on pivots (and, up to
/// p = 256, on wall-clock), zero cold fallbacks — also run. The committed file is not
/// rewritten; `warm-scale` does that.
pub fn bench_check() {
    banner(
        "bench-check",
        "bench-regression gate — fresh warm-scale vs the committed BENCH_lp_warm.json",
    );
    let committed = std::fs::read_to_string(BENCH_PATH)
        .unwrap_or_else(|e| panic!("cannot read committed BENCH_lp_warm.json: {e}"));
    let doc = serde_json::parse(&committed)
        .unwrap_or_else(|e| panic!("committed BENCH_lp_warm.json is not valid JSON: {e}"));
    let sweeps = json_field(&doc, "warm_scale")
        .and_then(json_array)
        .expect("BENCH_lp_warm.json: missing `warm_scale` array");

    let reference: Vec<(usize, f64, f64)> = sweeps
        .iter()
        .map(|sw| {
            let p = json_field(sw, "p")
                .and_then(json_f64)
                .expect("sweep entry without `p`") as usize;
            let mean = json_field(sw, "mean_warm_pivots")
                .and_then(json_f64)
                .expect("sweep entry without `mean_warm_pivots`");
            let mean_ms = json_field(sw, "mean_warm_ms")
                .and_then(json_f64)
                .expect("sweep entry without `mean_warm_ms`");
            let mean_cold_ms = json_field(sw, "mean_cold_ms")
                .and_then(json_f64)
                .expect("sweep entry without `mean_cold_ms`");
            (p, mean, mean_ms / mean_cold_ms.max(1e-9))
        })
        .collect();
    assert!(!reference.is_empty(), "committed file records no sweeps");

    let fresh = par_map(
        reference.iter().map(|(p, _, _)| *p).collect(),
        sweep_platform,
    );

    let mut rows = Vec::new();
    let mut regressed = false;
    for ((p, committed_mean, committed_ratio), sw) in reference.iter().zip(&fresh) {
        // 2x headroom: pivot counts are deterministic under the sweep's
        // fixed seeds, so anything past 2x is a behavioral regression,
        // not noise. Tiny committed means get an absolute floor of one
        // pivot so a 0.4 → 0.9 wobble cannot fail the gate.
        let limit = committed_mean.max(1.0) * 2.0;
        let pivots_ok = sw.mean_warm <= limit;
        // The clock gate is a ratio of ratios: fresh warm/cold wall-clock
        // against the committed warm/cold, with the same 2x headroom.
        // Warm and cold re-solves run on the same machine under the same
        // load, so speed differences cancel; what's left is exactly the
        // per-pivot bookkeeping cost the pivot gate cannot see. A small
        // absolute floor (ratio 0.10) keeps sub-millisecond timer noise
        // at tiny p from failing an otherwise-huge warm advantage.
        let fresh_ratio = sw.mean_warm_ms / sw.mean_cold_ms.max(1e-9);
        let ratio_limit = (committed_ratio * 2.0).max(0.10);
        let ms_ok = fresh_ratio <= ratio_limit;
        regressed |= !pivots_ok || !ms_ok;
        rows.push(vec![
            p.to_string(),
            format!("{committed_mean:.2}"),
            format!("{:.2}", sw.mean_warm),
            format!("{limit:.2}"),
            format!("{committed_ratio:.3}"),
            format!("{fresh_ratio:.3}"),
            format!("{ratio_limit:.3}"),
            if pivots_ok && ms_ok {
                "ok".into()
            } else {
                "REGRESSED".into()
            },
        ]);
    }
    print_table(
        &[
            "p",
            "committed pivots",
            "fresh pivots",
            "limit (2x)",
            "committed ms ratio",
            "fresh ms ratio",
            "limit (2x)",
            "verdict",
        ],
        &rows,
    );
    assert!(
        !regressed,
        "warm-scale mean pivots or warm/cold wall-clock ratio regressed past 2x the committed \
         BENCH_lp_warm.json"
    );
    println!(
        "fresh warm-scale pivots and warm/cold wall-clock ratio within 2x of the committed \
         record at every p."
    );

    // The service slice of the gate: batched-over-unbatched throughput
    // and all-warm restarts vs the committed BENCH_service.json.
    crate::service::service_check();

    // The online-churn slice: warm/cold re-plan wall-clock ratio and
    // zero cold fallbacks vs the committed BENCH_lp_online.json.
    crate::online::online_check();
}

/// Look up `key` in a JSON object `Value`.
pub(crate) fn json_field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    match v {
        serde_json::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub(crate) fn json_array(v: &serde_json::Value) -> Option<&[serde_json::Value]> {
    match v {
        serde_json::Value::Array(items) => Some(items),
        _ => None,
    }
}

pub(crate) fn json_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::Int(i) => Some(*i as f64),
        serde_json::Value::UInt(u) => Some(*u as f64),
        serde_json::Value::Float(f) => Some(*f),
        _ => None,
    }
}
