//! Dual-repair path tests: warm re-solves that route through the bounded
//! dual simplex must agree with cold solves — exactly for `Ratio`,
//! within tolerance for `f64`, on both kernels (the dense kernel has no
//! warm path and serves as the cold cross-check) — whatever rung of the
//! `warm → dual-repair → primal-repair → cold-fallback` ladder a drift
//! or a garbage hint lands on. See `ss-lp/src/dual.rs` for the
//! deterministic unit cases (dual-feasible hint takes the dual path;
//! tolerated dual-infeasible start; infeasible LP falls through the
//! whole ladder).

use proptest::prelude::*;
use ss_lp::{
    lower, Cmp, Kernel, Problem, Sense, SimplexOptions, SolveError, WarmOutcome, WarmStart,
};
use ss_num::Ratio;

fn sparse_opts() -> SimplexOptions {
    SimplexOptions::with_kernel(Kernel::SparseRevised)
}

/// A steady-state-shaped LP family under multiplicative drift: a chain of
/// conservation equalities coupling boxed activity variables, one shared
/// capacity row, and per-variable rates scaled by the drift vector
/// (indices into a small fixed factor menu, so proptest shrinking stays
/// meaningful).
fn drifting_chain(nvars: usize, rates: &[i64], cap: i64) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..nvars)
        .map(|i| p.add_var_bounded(format!("v{i}"), Ratio::from_int(2 + (i as i64 % 3))))
        .collect();
    for (i, w) in vars.windows(2).enumerate() {
        p.add_constraint(
            format!("conserve{i}"),
            [
                (w[0], Ratio::new(1, rates[i % rates.len()])),
                (w[1], Ratio::new(-1, rates[(i + 1) % rates.len()])),
            ],
            Cmp::Eq,
            Ratio::zero(),
        );
    }
    let cap_terms: Vec<_> = vars.iter().map(|&v| (v, Ratio::one())).collect();
    p.add_constraint("cap", cap_terms, Cmp::Le, Ratio::from_int(cap));
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, Ratio::new(1, rates[i % rates.len()]));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact backend: a warm session dragged across random rate drifts
    /// must reproduce every cold optimum exactly and carry a verifying
    /// duality certificate, whichever repair rung each re-solve used.
    /// At least the mechanics of every rung are reachable here: drifts
    /// that keep the basis feasible stay `Warm`, box-breaking drifts go
    /// `DualRepaired`, and the ladder below absorbs the rest.
    #[test]
    fn warm_resolves_agree_with_cold_across_drifts_exact(
        nvars in 3usize..7,
        cap in 3i64..8,
        phases in proptest::collection::vec((1i64..7, 1i64..7, 1i64..7), 2..5),
    ) {
        let opts = sparse_opts();
        let mut warm: Option<WarmStart> = None;
        for (a, b, c) in phases {
            let p = drifting_chain(nvars, &[a, b, c], cap);
            let run = p.solve_warm_with::<Ratio>(&opts, warm.as_ref()).unwrap();
            let cold = p.solve_exact().unwrap();
            prop_assert_eq!(
                run.solution.objective(),
                cold.objective(),
                "rates ({}, {}, {}) via {:?}: warm drifted off the cold optimum",
                a, b, c, run.outcome
            );
            p.verify_optimality(&run.solution)
                .map_err(|e| TestCaseError::fail(format!("certificate: {e}")))?;
            warm = Some(run.warm);
        }
    }

    /// `f64` backend, same property within tolerance — and the snapshot
    /// keeps seeding the next phase whatever path the previous one took.
    #[test]
    fn warm_resolves_agree_with_cold_across_drifts_f64(
        nvars in 3usize..7,
        cap in 3i64..8,
        phases in proptest::collection::vec((1i64..7, 1i64..7, 1i64..7), 2..5),
    ) {
        let opts = sparse_opts();
        let mut warm: Option<WarmStart> = None;
        for (a, b, c) in phases {
            let p = drifting_chain(nvars, &[a, b, c], cap);
            let run = p.solve_warm_with::<f64>(&opts, warm.as_ref()).unwrap();
            let exact = p.solve_exact().unwrap();
            let err = (run.solution.objective() - exact.objective().to_f64()).abs();
            prop_assert!(
                err < 1e-9,
                "rates ({}, {}, {}) via {:?}: |Δ| = {:.3e}",
                a, b, c, run.outcome, err
            );
            warm = Some(run.warm);
        }
    }

    /// Garbage hints (random column subsets as the basis, random at-upper
    /// flags) land somewhere on the repair ladder — possibly the
    /// dual-infeasible start that must fall through to the composite
    /// primal repair or all the way to the cold fallback — and none of it
    /// may change the answer, on either scalar backend.
    #[test]
    fn garbage_hints_never_change_the_answer(
        nvars in 3usize..6,
        cap in 3i64..8,
        picks in proptest::collection::vec(0usize..64, 1..6),
        upper_mask in 0u64..64,
    ) {
        let p = drifting_chain(nvars, &[2, 3, 5], cap);
        let sf = lower::<Ratio>(&p);
        let basis: Vec<usize> = picks.iter().map(|&k| k % sf.ncols).collect();
        let at_upper: Vec<bool> = (0..sf.ncols).map(|j| upper_mask >> (j % 64) & 1 == 1).collect();
        let hint = WarmStart::new(sf.m, sf.ncols, sf.art_start, basis, at_upper);
        let opts = sparse_opts();

        let run = p.solve_warm_with::<Ratio>(&opts, Some(&hint)).unwrap();
        let cold = p.solve_exact().unwrap();
        prop_assert_eq!(
            run.solution.objective(),
            cold.objective(),
            "outcome {:?}", run.outcome
        );
        p.verify_optimality(&run.solution)
            .map_err(|e| TestCaseError::fail(format!("certificate ({:?}): {e}", run.outcome)))?;

        let fast = p.solve_warm_with::<f64>(&opts, Some(&hint)).unwrap();
        let err = (fast.solution.objective() - cold.objective().to_f64()).abs();
        prop_assert!(err < 1e-9, "f64 via {:?}: |Δ| = {:.3e}", fast.outcome, err);
    }
}

/// Deterministic dual-vs-primal agreement: force the same drifted
/// re-solve down the dual rung (sparse, warm) and down a plain primal
/// solve (both kernels, cold) — four answers, one optimum.
#[test]
fn dual_rung_agrees_with_both_primal_kernels() {
    let before = drifting_chain(5, &[2, 3, 4], 6);
    let after = drifting_chain(5, &[5, 2, 6], 6);
    let opts = sparse_opts();
    let seed = before.solve_warm_with::<Ratio>(&opts, None).unwrap();

    let warm = after
        .solve_warm_with::<Ratio>(&opts, Some(&seed.warm))
        .unwrap();
    assert!(
        warm.outcome.used_warm_basis(),
        "drift fell off the warm ladder: {:?}",
        warm.outcome
    );
    let sparse_cold = after.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    let dense_cold = after.solve_kernel::<Ratio>(Kernel::Dense).unwrap();
    assert_eq!(warm.solution.objective(), sparse_cold.objective());
    assert_eq!(warm.solution.objective(), dense_cold.objective());
    after.verify_optimality(&warm.solution).unwrap();
}

/// An infeasible drift falls through every rung — dual repair, composite
/// repair, cold — and still reports `Infeasible` rather than an answer.
#[test]
fn infeasible_drift_reports_infeasible_through_the_ladder() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", Ratio::from_int(2));
    let y = p.add_var_bounded("y", Ratio::from_int(2));
    p.set_objective_coeff(x, Ratio::one());
    p.add_constraint(
        "need",
        [(x, Ratio::one()), (y, Ratio::one())],
        Cmp::Ge,
        Ratio::from_int(5),
    );
    let sf = lower::<Ratio>(&p);
    let hint = WarmStart::new(
        sf.m,
        sf.ncols,
        sf.art_start,
        sf.basis0.clone(),
        vec![false; sf.ncols],
    );
    let err = p
        .solve_warm_with::<Ratio>(&sparse_opts(), Some(&hint))
        .unwrap_err();
    assert_eq!(err, SolveError::Infeasible);
}

/// The warm outcome surface is honest: a same-problem re-solve is `Warm`
/// with zero repair pivots, and the snapshot-capture time is reported
/// separately from the solve.
#[test]
fn warm_outcome_and_snapshot_accounting() {
    let p = drifting_chain(4, &[2, 3, 4], 5);
    let opts = sparse_opts();
    let first = p.solve_warm_with::<Ratio>(&opts, None).unwrap();
    assert_eq!(first.outcome, WarmOutcome::Cold);
    assert!(first.snapshot_ms >= 0.0);
    let again = p
        .solve_warm_with::<Ratio>(&opts, Some(&first.warm))
        .unwrap();
    assert_eq!(again.outcome, WarmOutcome::Warm);
    assert_eq!(again.solution.phase1_iterations(), 0);
    assert!(again.snapshot_ms >= 0.0);
}
