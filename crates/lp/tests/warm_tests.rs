//! Warm-started re-solves: agreement with cold solves, the repair path,
//! cross-kernel snapshot hand-off, and the cold-fallback conditions.

use ss_lp::{Cmp, Kernel, Problem, Sense, SimplexOptions, WarmOutcome, WarmStart};
use ss_num::Ratio;

/// A small equality-heavy LP family parameterized by drifting
/// coefficients, shaped like a steady-state instance: a conservation
/// equality, a capacity row, and boxed activity variables.
///
/// maximize x/a + y/b
///   s.t.   x/a − y/b == 0          (conservation)
///          x + y ≤ 3               (shared capacity)
///          0 ≤ x ≤ 2, 0 ≤ y ≤ 2
fn drifting_problem(a: i64, b: i64) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", Ratio::from_int(2));
    let y = p.add_var_bounded("y", Ratio::from_int(2));
    p.set_objective_coeff(x, Ratio::new(1, a));
    p.set_objective_coeff(y, Ratio::new(1, b));
    p.add_constraint(
        "conserve",
        [(x, Ratio::new(1, a)), (y, Ratio::new(-1, b))],
        Cmp::Eq,
        Ratio::zero(),
    );
    p.add_constraint(
        "cap",
        [(x, Ratio::one()), (y, Ratio::one())],
        Cmp::Le,
        Ratio::from_int(3),
    );
    p
}

fn sparse_opts() -> SimplexOptions {
    SimplexOptions::with_kernel(Kernel::SparseRevised)
}

#[test]
fn no_hint_is_cold_and_second_solve_is_warm() {
    let p = drifting_problem(2, 3);
    let opts = sparse_opts();
    let first = p.solve_warm_with::<Ratio>(&opts, None).unwrap();
    assert_eq!(first.outcome, WarmOutcome::Cold);
    // Identical problem, hinted with the optimal basis: warm, zero
    // phase-1 pivots, and at most a trivial amount of phase-2 work.
    let second = p
        .solve_warm_with::<Ratio>(&opts, Some(&first.warm))
        .unwrap();
    assert_eq!(second.outcome, WarmOutcome::Warm);
    assert_eq!(second.solution.phase1_iterations(), 0);
    assert_eq!(second.solution.objective(), first.solution.objective());
    assert!(second.solution.iterations() <= first.solution.iterations());
}

#[test]
fn warm_resolve_agrees_with_cold_under_drift() {
    let opts = sparse_opts();
    let mut warm: Option<WarmStart> = None;
    // Drift the coefficient pair through several phases.
    for (a, b) in [(2, 3), (3, 3), (4, 2), (2, 5), (5, 2)] {
        let p = drifting_problem(a, b);
        let run = p.solve_warm_with::<Ratio>(&opts, warm.as_ref()).unwrap();
        let cold = p.solve_exact().unwrap();
        assert_eq!(
            run.solution.objective(),
            cold.objective(),
            "a={a} b={b}: warm and cold optima differ"
        );
        // Warm solutions carry full duals: the certificate must verify.
        p.verify_optimality(&run.solution)
            .unwrap_or_else(|e| panic!("a={a} b={b}: warm certificate failed: {e}"));
        warm = Some(run.warm);
    }
}

#[test]
fn f64_warm_resolve_tracks_exact_optimum() {
    let opts = sparse_opts();
    let mut warm: Option<WarmStart> = None;
    for (a, b) in [(2, 3), (3, 4), (4, 3), (6, 2)] {
        let p = drifting_problem(a, b);
        let run = p.solve_warm_with::<f64>(&opts, warm.as_ref()).unwrap();
        let exact = p.solve_exact().unwrap();
        let err = (run.solution.objective() - exact.objective().to_f64()).abs();
        assert!(err < 1e-9, "a={a} b={b}: |Δ| = {err:.3e}");
        warm = Some(run.warm);
    }
}

#[test]
fn shape_change_triggers_cold_fallback() {
    let opts = sparse_opts();
    let p = drifting_problem(2, 3);
    let run = p.solve_warm_with::<Ratio>(&opts, None).unwrap();
    // Same family plus one extra variable and row: different shape.
    let mut q = drifting_problem(2, 3);
    let z = q.add_var_bounded("z", Ratio::one());
    q.add_constraint("zcap", [(z, Ratio::one())], Cmp::Le, Ratio::one());
    let fallback = q.solve_warm_with::<Ratio>(&opts, Some(&run.warm)).unwrap();
    assert_eq!(fallback.outcome, WarmOutcome::ColdFallback);
    assert_eq!(
        fallback.solution.objective(),
        q.solve_exact().unwrap().objective()
    );
}

#[test]
fn dense_kernel_falls_back_but_its_snapshot_seeds_sparse() {
    let p = drifting_problem(2, 3);
    let dense_opts = SimplexOptions::with_kernel(Kernel::Dense);
    let dense = p.solve_warm_with::<Ratio>(&dense_opts, None).unwrap();
    assert_eq!(dense.outcome, WarmOutcome::Cold);
    // The dense kernel has no warm path: a hint is reported as fallback.
    let again = p
        .solve_warm_with::<Ratio>(&dense_opts, Some(&dense.warm))
        .unwrap();
    assert_eq!(again.outcome, WarmOutcome::ColdFallback);
    // But its snapshot (taken after dense row-dropping, so possibly a
    // short basis) seeds the sparse kernel across kernels.
    let sparse = p
        .solve_warm_with::<Ratio>(&sparse_opts(), Some(&dense.warm))
        .unwrap();
    assert!(sparse.outcome.used_warm_basis(), "got {:?}", sparse.outcome);
    assert_eq!(sparse.solution.objective(), dense.solution.objective());
}

#[test]
fn degenerate_hints_are_repaired_or_rejected_not_wrong() {
    let p = drifting_problem(2, 3);
    let opts = sparse_opts();
    let cold = p.solve_exact().unwrap();
    let sf = ss_lp::lower::<Ratio>(&p);
    // Duplicate columns, garbage at-upper flags: whatever the outcome,
    // the optimum must be the true one.
    let garbage = WarmStart::new(
        sf.m,
        sf.ncols,
        sf.art_start,
        vec![0, 0, 1, 1],
        vec![true; sf.ncols],
    );
    let run = p.solve_warm_with::<Ratio>(&opts, Some(&garbage)).unwrap();
    assert_eq!(run.solution.objective(), cold.objective());
    p.verify_optimality(&run.solution).unwrap();
}

#[test]
fn warm_skips_phase_one_on_equality_heavy_instances() {
    // A chain of equalities: cold solves pay phase-1 pivots, warm
    // re-solves must not.
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..6)
        .map(|i| p.add_var_bounded(format!("v{i}"), Ratio::from_int(4)))
        .collect();
    for w in vars.windows(2) {
        p.add_constraint(
            "link",
            [(w[0], Ratio::one()), (w[1], Ratio::from_int(-1))],
            Cmp::Eq,
            Ratio::zero(),
        );
    }
    p.set_objective_coeff(vars[0], Ratio::one());
    let opts = sparse_opts();
    let cold = p.solve_warm_with::<Ratio>(&opts, None).unwrap();
    assert!(cold.solution.phase1_iterations() > 0);
    let warm = p.solve_warm_with::<Ratio>(&opts, Some(&cold.warm)).unwrap();
    assert_eq!(warm.outcome, WarmOutcome::Warm);
    assert_eq!(warm.solution.phase1_iterations(), 0);
    assert!(warm.solution.iterations() < cold.solution.iterations());
    assert_eq!(warm.solution.objective(), cold.solution.objective());
}
