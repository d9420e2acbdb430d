//! Kernel-agreement tests: the sparse revised simplex must be
//! indistinguishable from the dense tableau at the solution level — exactly
//! equal objectives on `Ratio` (both are exact algorithms), matching
//! optima within tolerance on `f64`, and duality certificates that verify
//! for both.

use proptest::prelude::*;
use ss_lp::{
    Cmp, Kernel, PivotRule, Problem, Sense, SimplexOptions, SolveError, WarmOutcome, WarmStart,
};
use ss_num::Ratio;

fn r(n: i64, d: i64) -> Ratio {
    Ratio::new(n, d)
}

fn ri(n: i64) -> Ratio {
    Ratio::from_int(n)
}

/// Both kernels, exact arithmetic: objective and duals certify.
fn assert_kernels_agree_exact(p: &Problem) {
    let dense = p.solve_kernel::<Ratio>(Kernel::Dense).unwrap();
    let sparse = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    assert_eq!(dense.kernel(), Kernel::Dense);
    assert_eq!(sparse.kernel(), Kernel::SparseRevised);
    assert_eq!(
        dense.objective(),
        sparse.objective(),
        "exact kernels disagree on the optimum"
    );
    p.check_feasible(sparse.values()).unwrap();
    // The sparse kernel's duals must form a complete optimality proof.
    p.verify_optimality(&sparse).unwrap();
    p.verify_optimality(&dense).unwrap();
}

#[test]
fn textbook_instances_agree() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => 36.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(3));
    p.set_objective_coeff(y, ri(5));
    p.add_constraint("c1", [(x, ri(1))], Cmp::Le, ri(4));
    p.add_constraint("c2", [(y, ri(2))], Cmp::Le, ri(12));
    p.add_constraint("c3", [(x, ri(3)), (y, ri(2))], Cmp::Le, ri(18));
    assert_kernels_agree_exact(&p);
    let s = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    assert_eq!(s.objective(), &ri(36));
    assert_eq!(s.value(x), &ri(2));
    assert_eq!(s.value(y), &ri(6));
}

#[test]
fn minimize_ge_and_eq_agree() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(2));
    p.set_objective_coeff(y, ri(3));
    p.add_constraint("c1", [(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(4));
    p.add_constraint("c2", [(x, ri(1))], Cmp::Ge, ri(1));
    assert_kernels_agree_exact(&p);

    let mut q = Problem::new(Sense::Maximize);
    let x = q.add_var("x");
    let y = q.add_var("y");
    q.set_objective_coeff(x, ri(1));
    q.set_objective_coeff(y, ri(2));
    q.add_constraint("sum", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(3));
    q.add_constraint("diff", [(x, ri(1)), (y, ri(-1))], Cmp::Eq, ri(1));
    assert_kernels_agree_exact(&q);
}

#[test]
fn beale_cycling_instance_terminates_sparse() {
    let mut p = Problem::new(Sense::Minimize);
    let x4 = p.add_var("x4");
    let x5 = p.add_var("x5");
    let x6 = p.add_var("x6");
    let x7 = p.add_var("x7");
    p.set_objective_coeff(x4, r(-3, 4));
    p.set_objective_coeff(x5, ri(150));
    p.set_objective_coeff(x6, r(-1, 50));
    p.set_objective_coeff(x7, ri(6));
    p.add_constraint(
        "r1",
        [(x4, r(1, 4)), (x5, ri(-60)), (x6, r(-1, 25)), (x7, ri(9))],
        Cmp::Le,
        ri(0),
    );
    p.add_constraint(
        "r2",
        [(x4, r(1, 2)), (x5, ri(-90)), (x6, r(-1, 50)), (x7, ri(3))],
        Cmp::Le,
        ri(0),
    );
    p.add_constraint("r3", [(x6, ri(1))], Cmp::Le, ri(1));
    assert_kernels_agree_exact(&p);
    let s = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    assert_eq!(s.objective(), &r(-1, 20));
    assert_eq!(s.pivot_rule(), PivotRule::Bland);
}

#[test]
fn redundant_equality_rows_survive_sparse() {
    // The dense kernel drops the redundant row; the sparse kernel parks a
    // zero-level artificial on it. Same optimum, valid certificate.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("e1", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    p.add_constraint("e2", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    assert_kernels_agree_exact(&p);
    let s = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    assert_eq!(s.objective(), &ri(2));
}

/// The `f64` pre-solve of a hint-less exact solve reaches the same
/// verdicts; the exact two-phase solve it hands over to must match the
/// dense tableau's.
#[test]
fn infeasible_and_unbounded_detected_sparse() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("lo", [(x, ri(1))], Cmp::Ge, ri(5));
    p.add_constraint("hi", [(x, ri(1))], Cmp::Le, ri(2));
    assert_eq!(p.solve_f64().unwrap_err(), SolveError::Infeasible);
    for k in [Kernel::SparseRevised, Kernel::Dense] {
        assert_eq!(
            p.solve_kernel::<Ratio>(k).unwrap_err(),
            SolveError::Infeasible
        );
    }

    let mut q = Problem::new(Sense::Maximize);
    let x = q.add_var("x");
    let y = q.add_var("y");
    q.set_objective_coeff(x, ri(1));
    q.add_constraint("c", [(x, ri(1)), (y, ri(-1))], Cmp::Le, ri(1));
    assert_eq!(q.solve_f64().unwrap_err(), SolveError::Unbounded);
    for k in [Kernel::SparseRevised, Kernel::Dense] {
        assert_eq!(
            q.solve_kernel::<Ratio>(k).unwrap_err(),
            SolveError::Unbounded
        );
    }
}

#[test]
fn degenerate_lp_agrees_and_certifies() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    let z = p.add_var("z");
    for v in [x, y, z] {
        p.set_objective_coeff(v, ri(1));
    }
    for (i, pair) in [(x, y), (y, z), (x, z)].iter().enumerate() {
        p.add_constraint(
            format!("c{i}"),
            [(pair.0, ri(1)), (pair.1, ri(1))],
            Cmp::Le,
            ri(2),
        );
    }
    p.add_constraint("all", [(x, ri(1)), (y, ri(1)), (z, ri(1))], Cmp::Le, ri(3));
    assert_kernels_agree_exact(&p);
}

#[test]
fn bounds_only_problem_agrees() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", r(1, 2));
    let y = p.add_var_bounded("y", r(1, 3));
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(1));
    assert_kernels_agree_exact(&p);
    let s = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
    assert_eq!(s.objective(), &r(5, 6));
}

#[test]
fn default_solves_run_on_the_sparse_kernel() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(3));
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("c", [(x, ri(2))], Cmp::Le, ri(4));
    assert_eq!(ss_lp::default_kernel(), Kernel::SparseRevised);
    let exact = p.solve_exact().unwrap();
    assert_eq!(exact.kernel(), Kernel::SparseRevised);
    assert_eq!(exact.objective(), &ri(2));
    assert_eq!(p.solve_f64().unwrap().kernel(), Kernel::SparseRevised);
}

#[test]
fn empty_constraint_set_zero_objective() {
    // No rows, no bounds: zero objective is trivially optimal; a positive
    // objective is unbounded. Both kernels must agree on both.
    let mut p = Problem::new(Sense::Maximize);
    let _x = p.add_var("x");
    for k in [Kernel::Dense, Kernel::SparseRevised] {
        let s = p.solve_kernel::<Ratio>(k).unwrap();
        assert_eq!(s.objective(), &ri(0));
    }
    let mut q = Problem::new(Sense::Maximize);
    let x = q.add_var("x");
    q.set_objective_coeff(x, ri(1));
    for k in [Kernel::Dense, Kernel::SparseRevised] {
        assert_eq!(
            q.solve_kernel::<Ratio>(k).unwrap_err(),
            SolveError::Unbounded
        );
    }
}

#[test]
fn long_pivot_chains_cross_reinversion() {
    // Enough variables and rows that the exact pivot loop refactorizes its
    // basis at least once mid-solve (update cap = 64 pivots): a
    // transportation-style chain where every variable must enter.
    let n = 90usize;
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(1)))
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, ri(1 + (i % 7) as i64));
    }
    // Coupled chain: x_i + x_{i+1} <= 3/2 keeps all bounds and rows active.
    for i in 0..n - 1 {
        p.add_constraint(
            format!("c{i}"),
            [(vars[i], ri(1)), (vars[i + 1], ri(1))],
            Cmp::Le,
            r(3, 2),
        );
    }
    assert_kernels_agree_exact(&p);
    // A hint-less exact solve lets `f64` find the basis; the all-slack
    // hint (feasible: every row is `≤` with a non-negative rhs) keeps
    // every pivot in exact arithmetic.
    let sf = ss_lp::lower::<Ratio>(&p);
    let slack = WarmStart::new(
        sf.m,
        sf.ncols,
        sf.art_start,
        sf.basis0.clone(),
        vec![false; sf.ncols],
    );
    let run = p
        .solve_warm_with::<Ratio>(&SimplexOptions::default(), Some(&slack))
        .unwrap();
    assert_eq!(run.outcome, WarmOutcome::Warm);
    assert_eq!(run.solution.exact_continuation_pivots(), 0);
    assert_eq!(
        run.solution.objective(),
        p.solve_exact().unwrap().objective()
    );
    let s = &run.solution;
    assert!(
        s.iterations() > 64 && s.factor().refactorizations > 1,
        "wanted a reinversion-crossing exact solve, got {} pivots and {} factorizations",
        s.iterations(),
        s.factor().refactorizations
    );
}

/// An LP whose `f64` pre-solve runs out of pivots: one row and 200 boxed
/// columns that each flip to their bound, far past a pre-solve budget
/// linear in the single row. The exact two-phase solve then does all the
/// work and must reach the dense tableau's optimum.
#[test]
fn exhausted_float_presolve_falls_back_to_exact_cold() {
    let n = 200usize;
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(1)))
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, ri(1 + (i % 5) as i64));
    }
    let all = vars.iter().map(|&v| (v, ri(1)));
    p.add_constraint("cap", all, Cmp::Le, ri(1000));
    assert_kernels_agree_exact(&p);
    let s = p.solve_exact().unwrap();
    assert!(
        s.exact_continuation_pivots() >= n && s.iterations() > n,
        "wanted the exact cold solve after a spent pre-solve, got {} exact of {} pivots",
        s.exact_continuation_pivots(),
        s.iterations()
    );
}

// ---------------------------------------------------------------------------
// Property tests: random LPs, kernel agreement on both scalar backends.
// ---------------------------------------------------------------------------

fn random_lp(nv: usize, nc: usize, coeffs: &[i64], rhss: &[i64], objs: &[i64]) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..nv)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(10)))
        .collect();
    for (i, &o) in objs.iter().enumerate().take(nv) {
        p.set_objective_coeff(vars[i], ri(o));
    }
    for ci in 0..nc {
        let terms: Vec<_> = (0..nv)
            .map(|vi| (vars[vi], ri(coeffs[ci * nv + vi])))
            .filter(|(_, c)| !c.is_zero())
            .collect();
        p.add_constraint(format!("c{ci}"), terms, Cmp::Le, ri(rhss[ci]));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact arithmetic: the two kernels are *the same algorithm family*
    /// on different data structures — their optima must be identical
    /// rationals, and the sparse duals must certify.
    #[test]
    fn kernels_identical_on_ratio(
        nv in 1usize..5,
        nc in 1usize..5,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let p = random_lp(nv, nc, &seed, &rhs, &obj);
        let dense = p.solve_kernel::<Ratio>(Kernel::Dense).unwrap();
        let sparse = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
        prop_assert_eq!(dense.objective(), sparse.objective());
        p.check_feasible(sparse.values()).unwrap();
        p.verify_optimality(&sparse).unwrap();
    }

    /// f64: same optimum within tolerance, feasible point either way.
    #[test]
    fn kernels_agree_on_f64(
        nv in 1usize..6,
        nc in 1usize..6,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let p = random_lp(nv, nc, &seed, &rhs, &obj);
        let dense = p.solve_kernel::<f64>(Kernel::Dense).unwrap();
        let sparse = p.solve_kernel::<f64>(Kernel::SparseRevised).unwrap();
        prop_assert!(
            (dense.objective() - sparse.objective()).abs() <= 1e-6 * (1.0 + dense.objective().abs()),
            "dense {} vs sparse {}", dense.objective(), sparse.objective()
        );
    }

    /// Sparse-exact against the problem's own feasibility checker plus
    /// objective recomputation: the returned point really attains the
    /// returned objective.
    #[test]
    fn sparse_point_attains_objective(
        nv in 1usize..5,
        nc in 1usize..5,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let p = random_lp(nv, nc, &seed, &rhs, &obj);
        let s = p.solve_kernel::<Ratio>(Kernel::SparseRevised).unwrap();
        p.check_feasible(s.values()).unwrap();
        prop_assert_eq!(p.eval_objective(s.values()), s.objective().clone());
    }
}
