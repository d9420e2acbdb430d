//! Warm-started re-solve experiments: the `warm-scale` sweep, the
//! `warm-smoke` / `dual-smoke` / `pricing-smoke` / `factor-smoke` CI
//! guards and the `bench-check` regression gate.
//!
//! §5.5 re-solves the steady-state LP every phase from observed
//! parameters. Each experiment here configures the crate's three
//! harnesses rather than writing its own loop: `drift_chain` (one warm
//! `SolveSession` through seeded drift phases, each answer checked
//! against a cold solve, the session's own `SolveTelemetry` and
//! `SessionStats` returned), `option_matrix` (one LP under a list of
//! [`SimplexOptions`] on both scalars, one certified optimum) and `gate`
//! (a committed `BENCH_*.json` against a fresh re-run). [`bench_check`]
//! gates this sweep, the service sweep and the online sweep, printing all
//! three verdict tables before it fails.

use crate::harness::{
    drift_chain, gate, json_lines, json_obj, option_matrix, print_phases, ChainSpec, Drift,
    GateSpec, Headroom, Metric, Phase, Tol,
};
use crate::parallel::par_map;
use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::engine::Formulation;
use ss_core::master_slave::MasterSlave;
use ss_core::session::SessionStats;
use ss_core::WarmOutcome;
use ss_lp::{Factor, Kernel, Pricing, SimplexOptions};
use ss_num::Ratio;
use ss_platform::topo;

/// Drift phases per platform in the sweep (phase 0 is nominal/cold).
const PHASES: usize = 20;

/// Largest platform at which the sweep asserts warm < cold on mean
/// wall-clock (see the comment at the assert in [`sweep_platform`]).
const WALL_CLOCK_ASSERT_MAX_P: usize = 256;

/// Where the sweep records its phases (and where [`bench_check`] reads
/// the committed reference back from).
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_warm.json");

/// The warm slice of `bench-check`. Pivot counts are deterministic under
/// the sweep's fixed seeds, so anything past 2x is a behavioral
/// regression, not noise; a floor of one committed pivot (limit 2) keeps a
/// 0.4 → 0.9 wobble from failing. The clock figure is a ratio of ratios:
/// warm and cold re-solves run back to back on one machine, so its speed
/// cancels and what is left is the per-pivot bookkeeping the pivot gate
/// cannot see; a 0.10 floor keeps sub-millisecond timer noise at small p
/// from failing an otherwise-huge warm advantage.
const WARM_GATE: GateSpec = GateSpec {
    path: BENCH_PATH,
    array: "warm_scale",
    key: "p",
    last_only: false,
    metrics: &[
        Metric {
            name: "mean warm pivots",
            num: "mean_warm_pivots",
            den: None,
            headroom: Headroom::Lower(2.0, f64::INFINITY),
        },
        Metric {
            name: "warm/cold ms",
            num: "mean_warm_ms",
            den: Some("mean_cold_ms"),
            headroom: Headroom::Lower(0.10, f64::INFINITY),
        },
    ],
};

struct WarmSweep {
    p: usize,
    /// The factorization every solve of the sweep ran on.
    factor: Factor,
    phases: Vec<Phase>,
    /// The session's lifetime counters; phase 0 is its one cold solve, so
    /// the warm-path split covers exactly the re-solves.
    stats: SessionStats,
    mean_warm: f64,
    mean_cold: f64,
    mean_warm_ms: f64,
    mean_cold_ms: f64,
}

impl WarmSweep {
    fn warm_over_cold_ms(&self) -> f64 {
        self.mean_warm_ms / self.mean_cold_ms.max(1e-9)
    }
}

fn sweep_platform(p: usize) -> WarmSweep {
    let mut rng = StdRng::seed_from_u64(p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.25, &topo::ParamRange::default());
    // One set of options for the session and its cold reference alike.
    // The session's own telemetry is the honest warm clock: it excludes
    // the formulation build (the cold reference builds its problem
    // outside its timer too, so an outer wall-clock would bill assembly
    // against the warm column only — exactly the asymmetry that once made
    // a 3-pivot pure-warm re-solve look slower than its 100-pivot cold
    // reference) and the snapshot capture that seeds the *next* phase.
    let spec = ChainSpec::new(Drift::mild(0.3), 0xd21f7 + p as u64, PHASES, Tol::Rel);
    let chain = drift_chain::<f64>(&g, m, &spec, &mut |_, _, _, _| {});
    let stats = *chain.sess.stats();

    // The sweep's reason to exist, asserted in-sweep: across the re-solve
    // phases (1..), basis reuse pivots strictly less on average — and with
    // the dual repair ahead of the primal one, *no* drifted basis is ever
    // given up cold.
    let resolves = &chain.phases[1..];
    let mean = |f: fn(&Phase) -> f64| resolves.iter().map(f).sum::<f64>() / resolves.len() as f64;
    let mean_warm = mean(|q| q.warm.iterations as f64);
    let mean_cold = mean(|q| q.cold_pivots as f64);
    assert!(
        mean_warm < mean_cold,
        "p={p}: warm re-solves pivot no less than cold ({mean_warm:.1} vs {mean_cold:.1})"
    );
    assert_eq!(
        stats.cold_fallback, 0,
        "p={p}: {} drifted re-solve(s) fell back cold despite the dual repair",
        stats.cold_fallback
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
    let mean_warm_ms = mean(|q| q.warm.solve_ms);
    let mean_cold_ms = mean(|q| q.cold_ms);
    assert!(
        p > WALL_CLOCK_ASSERT_MAX_P || mean_warm_ms < mean_cold_ms,
        "p={p}: warm re-solves are no faster than cold on wall-clock \
         ({mean_warm_ms:.2}ms vs {mean_cold_ms:.2}ms)"
    );
    WarmSweep {
        p,
        factor: spec.opts.factor,
        phases: chain.phases,
        stats,
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
        print_phases(
            &sw.phases,
            &[
                ("cold pivots", |q| q.cold_pivots.to_string()),
                ("warm ms", |q| format!("{:.2}", q.warm.solve_ms)),
                ("cold ms", |q| format!("{:.2}", q.cold_ms)),
                ("snapshot ms", |q| format!("{:.3}", q.warm.snapshot_ms)),
                ("priced cols", |q| q.warm.priced_columns.to_string()),
                ("pricing ms", |q| format!("{:.3}", q.warm.pricing_ms)),
                ("factor ms", |q| format!("{:.3}", q.warm.factor_ms)),
                ("update ms", |q| format!("{:.3}", q.warm.update_ms)),
                ("ftran ms", |q| format!("{:.3}", q.warm.ftran_btran_ms)),
                ("fill", |q| format!("{:.2}", q.warm.fill_ratio)),
            ],
        );
        let st = &sw.stats;
        println!(
            "paths over re-solves: {} warm, {} dual-repaired, {} repaired, {} cold-fallback \
             (zero asserted)",
            st.warm, st.dual_repaired, st.repaired, st.cold_fallback
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
    let rows: Vec<String> = sweeps
        .iter()
        .map(|sw| {
            let phases: Vec<String> = sw
                .phases
                .iter()
                .enumerate()
                .map(|(t, q)| {
                    let w = &q.warm;
                    json_obj(&[
                        ("phase", t.to_string()),
                        ("path", format!("\"{}\"", w.outcome)),
                        ("warm_pivots", w.iterations.to_string()),
                        ("cold_pivots", q.cold_pivots.to_string()),
                        ("warm_ms", format!("{:.3}", w.solve_ms)),
                        ("cold_ms", format!("{:.3}", q.cold_ms)),
                        ("build_ms", format!("{:.3}", w.build_ms)),
                        ("snapshot_ms", format!("{:.3}", w.snapshot_ms)),
                        ("priced_columns", w.priced_columns.to_string()),
                        ("pricing_ms", format!("{:.3}", w.pricing_ms)),
                        ("factor_ms", format!("{:.3}", w.factor_ms)),
                        ("update_ms", format!("{:.3}", w.update_ms)),
                        ("ftran_btran_ms", format!("{:.3}", w.ftran_btran_ms)),
                        ("factor_nnz", w.factor_nnz.to_string()),
                        ("fill_ratio", format!("{:.3}", w.fill_ratio)),
                    ])
                })
                .collect();
            let st = &sw.stats;
            let paths = json_obj(&[
                ("warm", st.warm.to_string()),
                ("dual_repaired", st.dual_repaired.to_string()),
                ("repaired", st.repaired.to_string()),
                ("cold_fallback", st.cold_fallback.to_string()),
            ]);
            json_obj(&[
                ("p", sw.p.to_string()),
                ("mean_warm_pivots", format!("{:.2}", sw.mean_warm)),
                ("mean_cold_pivots", format!("{:.2}", sw.mean_cold)),
                ("mean_warm_ms", format!("{:.3}", sw.mean_warm_ms)),
                ("mean_cold_ms", format!("{:.3}", sw.mean_cold_ms)),
                (
                    "warm_over_cold_ms",
                    format!("{:.3}", sw.warm_over_cold_ms()),
                ),
                ("paths", paths),
                ("phases", json_lines(&phases, 6)),
            ])
        })
        .collect();
    let factor = sweeps.first().map(|sw| sw.factor).unwrap_or_default();
    let s = format!(
        "{{\n  \"factor\": \"{factor}\",\n  \"warm_scale\": {}\n}}\n",
        json_lines(&rows, 4)
    );
    std::fs::write(BENCH_PATH, s)?;
    Ok("BENCH_lp_warm.json".into())
}

/// `warm-smoke`: the CI guard for the warm-start machinery. Small
/// platforms, both scalar backends: session re-solves must agree with
/// per-phase cold solves (exactly for `Ratio`, within tolerance for
/// `f64`, which must also sit within tolerance of the exact optimum),
/// pass an exact certificate every phase, go through the warm machinery
/// from phase 2 on, pivot less in total — and a shape-changing drift must
/// migrate the live basis onto the new form (the session-edit path) and
/// still agree with a cold solve.
pub fn warm_smoke() {
    banner(
        "warm-smoke",
        "warm-start regression guard — sessions vs cold re-solves, both backends, small p",
    );
    let mut rows = Vec::new();
    for p in [8usize, 12] {
        let mut rng = StdRng::seed_from_u64(11_000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
        let spec = ChainSpec::new(Drift::mild(0.4), 22_000 + p as u64, 6, Tol::Abs);
        let mut optimum = Vec::new();
        let mut exact = drift_chain::<Ratio>(&g, m, &spec, &mut |_, sess, gp, s| {
            sess.certify(gp).expect("exact certification");
            optimum.push(s.activities.objective_f64());
        });
        drift_chain::<f64>(&g, m, &spec, &mut |t, sess, gp, s| {
            let err = (s.activities.objective_f64() - optimum[t]).abs();
            assert!(
                err <= crate::scale::BACKEND_TOLERANCE,
                "p={p} phase={t}: f64 warm drifts by {err:.3e}"
            );
            sess.certify(gp).expect("f64-session certification");
        });
        let resolves = &exact.phases[1..];
        let warm_pivots: usize = resolves.iter().map(|q| q.warm.iterations).sum();
        let cold_pivots: usize = resolves.iter().map(|q| q.cold_pivots).sum();
        let st = *exact.sess.stats();
        let warm_used = st.warm + st.dual_repaired + st.repaired;
        assert!(
            warm_pivots < cold_pivots,
            "p={p}: warm re-solves did not save pivots ({warm_pivots} vs {cold_pivots})"
        );
        assert!(warm_used > 0, "p={p}: no re-solve reused the warm basis");

        // A platform of a different shape no longer gives the basis up:
        // the session diffs the old and new form layouts, migrates the
        // live basis onto the grown LP, and must agree with a cold solve.
        let exact_sess = &mut exact.sess;
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
        let cold2 = ss_core::engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &g2)
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
    // f64: big enough that drift breaks feasibility every few phases (the
    // regime warm-scale sees at p = 192, shrunk for CI). Ratio: a smaller
    // platform, exact equality against cold, and a certificate on the
    // last drifted instance — the state the dual-repair path produced.
    let mut rows = Vec::new();
    for (exact, p, density, seed, drift_seed) in [
        (false, 64usize, 0.3, 44_000, 55_000),
        (true, 16, 0.35, 66_000, 77_000),
    ] {
        let mut rng = StdRng::seed_from_u64(seed + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, density, &topo::ParamRange::default());
        let spec = ChainSpec::new(Drift::AGGRESSIVE, drift_seed + p as u64, 10, Tol::Rel);
        let stats = if exact {
            let mut chain = drift_chain::<Ratio>(&g, m, &spec, &mut |_, _, _, _| {});
            chain
                .sess
                .certify(&chain.last)
                .expect("final exact certification");
            *chain.sess.stats()
        } else {
            *drift_chain::<f64>(&g, m, &spec, &mut |_, _, _, _| {})
                .sess
                .stats()
        };
        let backend = if exact { "Ratio" } else { "f64" };
        assert_eq!(
            stats.cold_fallback, 0,
            "{backend} p={p}: drifted re-solves fell back cold"
        );
        assert!(
            stats.dual_repaired > 0,
            "{backend} p={p}: no drifted re-solve exercised the dual repair"
        );
        rows.push(vec![
            backend.into(),
            p.to_string(),
            stats.dual_repaired.to_string(),
            stats.cold_fallback.to_string(),
        ]);
    }
    print_table(&["backend", "p", "dual-repaired", "cold-fallback"], &rows);
    println!("dual repair carries drifted re-solves on both backends (asserted; failures panic).");
}

/// `pricing-smoke`: the CI guard for the pricing subsystem. Warm chains
/// pinned to devex and then Dantzig must agree with a Bland-forced cold
/// reference every phase, run the rule they pin and count priced columns;
/// the last drifted instance then goes through an options matrix of every
/// explicit rule on both factorizations, whose `f64` solves must record
/// the requested [`PivotRule`](ss_lp::PivotRule). Last, a cold `f64`
/// solve at p = 96 must price under half a full sweep per pivot — the
/// guard that fails if the per-iteration full sweep ever comes back.
pub fn pricing_smoke() {
    banner(
        "pricing-smoke",
        "pricing-rule agreement guard — devex/dantzig/bland land on one optimum, warm and cold",
    );
    let p = 24usize;
    let mut rng = StdRng::seed_from_u64(88_000 + p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());

    // One chain per cached rule, both on the same aggressive drift
    // sequence so the dual repair (and with it the shared pivot-row
    // kernel from the dual side) runs, not just the pure-warm path. The
    // Bland-forced cold solve is the agreement reference: the rule every
    // scalar backend can run exactly.
    let mut last = g.clone();
    for pricing in [Pricing::Devex, Pricing::Dantzig] {
        let spec = ChainSpec {
            opts: SimplexOptions {
                pricing,
                ..SimplexOptions::default()
            },
            cold_opts: SimplexOptions {
                pricing: Pricing::Bland,
                ..SimplexOptions::default()
            },
            ..ChainSpec::new(Drift::AGGRESSIVE, 99_000 + p as u64, 8, Tol::Rel)
        };
        let chain = drift_chain::<f64>(&g, m, &spec, &mut |t, _, _, s| {
            assert_eq!(
                s.activities.solution().pivot_rule(),
                pricing.resolve::<f64>(),
                "phase {t}: session did not run the rule its options pin"
            );
            assert!(
                s.telemetry.priced_columns > 0,
                "phase {t}: solve priced no columns — telemetry wiring broken"
            );
        });
        println!("session pricing: {pricing:?}");
        print_phases(
            &chain.phases,
            &[
                ("priced cols", |q| q.warm.priced_columns.to_string()),
                ("pricing ms", |q| format!("{:.3}", q.warm.pricing_ms)),
            ],
        );
        last = chain.last;
    }

    // Explicit rule matrix on the last drifted instance, cold, both
    // scalar backends on both factorizations, next to the default
    // options. Explicit Dantzig/devex are legal on the exact backend too
    // (the Bland stall-fallback past half the budget restores the
    // termination guarantee), so the two cached rules and the uncached
    // one must not be told apart by their answers.
    let (lp, _) = MasterSlave::new(m).build(&last).expect("SSMS build");
    let mut opts = vec![SimplexOptions::default()];
    for pricing in [Pricing::Bland, Pricing::Dantzig, Pricing::Devex] {
        for factor in [Factor::EtaFile, Factor::SparseLu] {
            opts.push(SimplexOptions {
                pricing,
                factor,
                kernel: Kernel::SparseRevised,
                ..SimplexOptions::default()
            });
        }
    }
    for (o, (fast, _)) in opts.iter().zip(option_matrix(&lp, &opts)) {
        assert_eq!(
            fast.pivot_rule(),
            o.pricing.resolve::<f64>(),
            "{o:?}: f64 solve did not record the requested rule"
        );
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

/// `factor-smoke`: the CI guard for the basis-factorization subsystem.
/// Warm chains pinned to the eta file and then sparse LU must agree with a
/// cold reference every phase and run the backend they pin; the last
/// drifted instance then goes through an options matrix of both backends
/// on both kernels, whose sparse-kernel solves must record the requested
/// [`FactorStats`](ss_lp::FactorStats) backend and count at least one
/// refactorization.
pub fn factor_smoke() {
    banner(
        "factor-smoke",
        "basis-factorization agreement guard — eta file and sparse LU land on one optimum",
    );
    let p = 24usize;
    let mut rng = StdRng::seed_from_u64(111_000 + p as u64);
    let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());

    // One chain per backend, both on the same aggressive drift sequence,
    // so the dual repair's FTRAN/BTRAN traffic and the warm
    // refactorization both run against the pinned backend, not just cold
    // factorizations.
    let mut last = g.clone();
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        let spec = ChainSpec {
            opts: SimplexOptions {
                factor,
                ..SimplexOptions::default()
            },
            ..ChainSpec::new(Drift::AGGRESSIVE, 121_000 + p as u64, 8, Tol::Rel)
        };
        let chain = drift_chain::<f64>(&g, m, &spec, &mut |t, _, _, s| {
            assert_eq!(
                s.activities.solution().factor().backend,
                factor,
                "phase {t}: session did not run the backend its options pin"
            );
        });
        println!("session factorization: {factor:?}");
        print_phases(
            &chain.phases,
            &[
                ("factor ms", |q| format!("{:.3}", q.warm.factor_ms)),
                ("update ms", |q| format!("{:.3}", q.warm.update_ms)),
                ("ftran ms", |q| format!("{:.3}", q.warm.ftran_btran_ms)),
                ("fill", |q| format!("{:.2}", q.warm.fill_ratio)),
            ],
        );
        last = chain.last;
    }

    // Explicit backend matrix on the last drifted instance, cold, next to
    // the default options: 2 factorizations × 2 kernels × 2 scalars, all
    // one optimum.
    let (lp, _) = MasterSlave::new(m).build(&last).expect("SSMS build");
    let mut opts = vec![SimplexOptions::default()];
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        for kernel in [Kernel::SparseRevised, Kernel::Dense] {
            opts.push(SimplexOptions {
                factor,
                kernel,
                ..SimplexOptions::default()
            });
        }
    }
    for (o, (fast, exact)) in opts.iter().zip(option_matrix(&lp, &opts)) {
        if o.kernel == Kernel::SparseRevised {
            // The sparse kernel must have run the backend it was asked
            // for — and actually factorized through it.
            for (scalar, stats) in [("f64", fast.factor()), ("Ratio", exact.factor())] {
                assert_eq!(
                    stats.backend, o.factor,
                    "{scalar} solve did not record the requested factorization backend"
                );
                assert!(
                    stats.refactorizations > 0,
                    "{:?} ({scalar}): no refactorization counted — telemetry wiring broken",
                    o.factor
                );
            }
        }
    }
    println!(
        "eta and sparse LU agree on both scalars and kernels, certificates verified (asserted; \
         failures panic CI)."
    );
}

/// `bench-check`: the bench-regression gate. Reruns the warm-scale sweep
/// at every platform size of the **committed** `BENCH_lp_warm.json`
/// (mean warm pivots catch algorithmic regressions; the warm/cold
/// wall-clock ratio catches per-pivot bookkeeping that eats the pivot
/// savings), then the service and online slices. Every gate compares
/// ratios, so machine speed cancels out. All verdict tables print before
/// the one assert, so one slice's regression never hides another's; the
/// sweeps' in-sweep asserts also run. No committed file is rewritten.
pub fn bench_check() {
    banner(
        "bench-check",
        "bench-regression gate — fresh sweeps vs the committed BENCH_*.json records",
    );
    let mut regressed = gate(&WARM_GATE, |ps| {
        par_map(ps.to_vec(), sweep_platform)
            .iter()
            .map(|sw| vec![sw.mean_warm, sw.warm_over_cold_ms()])
            .collect()
    });
    regressed.extend(crate::service::service_check());
    regressed.extend(crate::online::online_check());
    assert!(
        regressed.is_empty(),
        "regressed past the committed record: {}",
        regressed.join("; ")
    );
    println!("\nevery gated figure within its headroom of the committed record.");
}
