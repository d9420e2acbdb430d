//! Bounded-variable path tests: native `0 ≤ x ≤ u` handling must be
//! indistinguishable from the lowered-rows oracle on both kernels —
//! identical rational optima, `f64` within tolerance, and duality
//! certificates that verify — while carrying a much smaller basis. Also
//! exercises the pure bound-flip paths (box-only LPs, zero bounds,
//! entering-from-upper pivots).

use proptest::prelude::*;
use ss_lp::{BoundMode, Cmp, Kernel, Problem, Sense, SimplexOptions, Var};
use ss_num::Ratio;

fn r(n: i64, d: i64) -> Ratio {
    Ratio::new(n, d)
}

fn ri(n: i64) -> Ratio {
    Ratio::from_int(n)
}

fn opts(kernel: Kernel, bound_mode: BoundMode) -> SimplexOptions {
    SimplexOptions {
        kernel,
        bound_mode,
        ..SimplexOptions::default()
    }
}

/// Solve `p` on both kernels × both bound modes with exact arithmetic:
/// all four optima must be identical rationals and every solution must
/// carry a verifying duality certificate.
fn assert_bound_modes_agree_exact(p: &Problem) -> Ratio {
    let mut reference: Option<Ratio> = None;
    for kernel in [Kernel::SparseRevised, Kernel::Dense] {
        for mode in [BoundMode::Native, BoundMode::LoweredRows] {
            let s = p
                .solve_with::<Ratio>(&opts(kernel, mode))
                .unwrap_or_else(|e| {
                    panic!("{kernel:?}/{mode:?} failed: {e}");
                });
            p.check_feasible(s.values())
                .unwrap_or_else(|e| panic!("{kernel:?}/{mode:?} infeasible point: {e}"));
            p.verify_optimality(&s)
                .unwrap_or_else(|e| panic!("{kernel:?}/{mode:?} certificate: {e}"));
            match &reference {
                None => reference = Some(s.objective().clone()),
                Some(want) => assert_eq!(
                    s.objective(),
                    want,
                    "{kernel:?}/{mode:?} disagrees with the reference optimum"
                ),
            }
        }
    }
    reference.unwrap()
}

/// And the f64 counterpart within an absolute tolerance.
fn assert_bound_modes_agree_f64(p: &Problem, want: f64) {
    for kernel in [Kernel::SparseRevised, Kernel::Dense] {
        for mode in [BoundMode::Native, BoundMode::LoweredRows] {
            let s = p.solve_with::<f64>(&opts(kernel, mode)).unwrap();
            assert!(
                (s.objective() - want).abs() <= 1e-6 * (1.0 + want.abs()),
                "{kernel:?}/{mode:?}: f64 {} vs exact {}",
                s.objective(),
                want
            );
        }
    }
}

/// Native bounds must actually shrink the standard form: no bound rows.
#[test]
fn native_form_drops_bound_rows() {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<Var> = (0..6)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(1)))
        .collect();
    for &v in &vars {
        p.set_objective_coeff(v, ri(1));
    }
    p.add_constraint("cap", vars.iter().map(|&v| (v, ri(1))), Cmp::Le, ri(4));
    let native = ss_lp::lower::<Ratio>(&p);
    let lowered = ss_lp::lower_with::<Ratio>(&p, BoundMode::LoweredRows);
    assert_eq!(native.m, 1);
    assert_eq!(lowered.m, 7);
    assert_eq!(native.upper.iter().filter(|u| u.is_some()).count(), 6);
    assert!(lowered.upper.iter().all(Option::is_none));
    assert_bound_modes_agree_exact(&p);
}

/// A box-only LP is solved by pure bound flips: every variable with a
/// positive objective flips straight to its upper bound, no basis change.
#[test]
fn box_only_lp_solved_by_bound_flips() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", r(1, 2));
    let y = p.add_var_bounded("y", r(1, 3));
    let z = p.add_var_bounded("z", ri(2));
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(1));
    p.set_objective_coeff(z, ri(3));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, r(41, 6));
    assert_bound_modes_agree_f64(&p, want.to_f64());
    // With no rows at all, the native form has an empty basis and the
    // solve is flips only.
    let s = p
        .solve_with::<Ratio>(&opts(Kernel::SparseRevised, BoundMode::Native))
        .unwrap();
    assert_eq!(s.value(x), &r(1, 2));
    assert_eq!(s.value(y), &r(1, 3));
    assert_eq!(s.value(z), &ri(2));
    // Every active bound carries a positive multiplier (its reduced cost).
    for v in [x, y, z] {
        assert!(s.bound_dual(v).unwrap().is_positive());
    }
}

/// Zero upper bounds pin variables without ever letting them enter the
/// basis (the steady-state formulations use `u = 0` to forbid edges).
#[test]
fn zero_upper_bounds_pin_variables() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(0));
    let y = p.add_var_bounded("y", ri(5));
    p.set_objective_coeff(x, ri(10));
    p.set_objective_coeff(y, ri(1));
    p.add_constraint("cap", [(x, ri(1)), (y, ri(1))], Cmp::Le, ri(3));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, ri(3));
    let s = p
        .solve_with::<Ratio>(&opts(Kernel::SparseRevised, BoundMode::Native))
        .unwrap();
    assert_eq!(s.value(x), &ri(0));
    assert_eq!(s.value(y), &ri(3));
}

/// Minimization with negative-profit bounds exercises the sign-corrected
/// bound multipliers (`μ ≤ 0` for minimize).
#[test]
fn minimize_with_active_bounds_certifies() {
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var_bounded("x", ri(2));
    let y = p.add_var_bounded("y", ri(3));
    p.set_objective_coeff(x, ri(-2)); // profit: push x to its bound
    p.set_objective_coeff(y, ri(1));
    p.add_constraint("mix", [(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(3));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, ri(-3)); // x = 2, y = 1
    let s = p
        .solve_with::<Ratio>(&opts(Kernel::Dense, BoundMode::Native))
        .unwrap();
    assert_eq!(s.value(x), &ri(2));
    assert!(!s.bound_dual(x).unwrap().is_positive());
}

/// A chain that forces basic variables to *leave at their upper bound*
/// (ratio-test case 2), not just enter/flip.
#[test]
fn basic_variables_leave_at_upper() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(1));
    let y = p.add_var_bounded("y", ri(1));
    let z = p.add_var_bounded("z", ri(1));
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(2));
    p.set_objective_coeff(z, ri(1));
    // y is coupled against both x and z; optimum saturates bounds.
    p.add_constraint("c0", [(x, ri(1)), (y, ri(1))], Cmp::Le, r(3, 2));
    p.add_constraint("c1", [(y, ri(1)), (z, ri(1))], Cmp::Le, r(3, 2));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, ri(3)); // x = z = 1/2, y = 1
    assert_bound_modes_agree_f64(&p, 3.0);
}

/// Equality rows + bounds: phase 1 runs with bound metadata live.
#[test]
fn equalities_with_bounds_agree() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(2));
    let y = p.add_var_bounded("y", ri(2));
    let z = p.add_var("z");
    p.set_objective_coeff(x, ri(3));
    p.set_objective_coeff(z, ri(1));
    p.add_constraint("sum", [(x, ri(1)), (y, ri(1)), (z, ri(1))], Cmp::Eq, ri(3));
    p.add_constraint("yz", [(y, ri(1)), (z, ri(-1))], Cmp::Eq, ri(0));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, r(13, 2)); // x = 2, y = z = 1/2
}

/// Redundant equalities leave a zero-level artificial parked in the basis;
/// the guarded bounded ratio test must keep it there on both kernels.
#[test]
fn redundant_rows_with_bounds_agree() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(3));
    let y = p.add_var_bounded("y", ri(3));
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("e1", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    p.add_constraint("e2", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    let want = assert_bound_modes_agree_exact(&p);
    assert_eq!(want, ri(2));
}

/// Unbounded detection must survive the native path (no spurious flips
/// saving an unbounded ray), and infeasibility is still caught in phase 1.
#[test]
fn infeasible_and_unbounded_detected_native() {
    use ss_lp::SolveError;
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(9));
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("lo", [(x, ri(1))], Cmp::Ge, ri(5));
    p.add_constraint("hi", [(x, ri(1))], Cmp::Le, ri(2));
    for kernel in [Kernel::SparseRevised, Kernel::Dense] {
        assert_eq!(
            p.solve_with::<Ratio>(&opts(kernel, BoundMode::Native))
                .unwrap_err(),
            SolveError::Infeasible
        );
    }

    let mut q = Problem::new(Sense::Maximize);
    let x = q.add_var_bounded("x", ri(1));
    let y = q.add_var("y"); // unbounded, carries the ray
    q.set_objective_coeff(x, ri(1));
    q.set_objective_coeff(y, ri(1));
    q.add_constraint("c", [(x, ri(1)), (y, ri(-1))], Cmp::Le, ri(1));
    for kernel in [Kernel::SparseRevised, Kernel::Dense] {
        assert_eq!(
            q.solve_with::<Ratio>(&opts(kernel, BoundMode::Native))
                .unwrap_err(),
            SolveError::Unbounded
        );
    }
}

// ---------------------------------------------------------------------------
// Property tests: random box-constrained LPs, native vs lowered agreement.
// ---------------------------------------------------------------------------

/// Random LP with per-variable bounds small enough that bound flips and
/// at-upper exits actually happen (tight boxes, generous rows).
fn random_boxed_lp(
    nv: usize,
    nc: usize,
    coeffs: &[i64],
    rhss: &[i64],
    objs: &[i64],
    ubs: &[i64],
) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<Var> = (0..nv)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(ubs[i])))
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

    /// Exact arithmetic: native bounds vs lowered rows on both kernels are
    /// four routes to the same rational optimum, all certified.
    #[test]
    fn native_and_lowered_identical_on_ratio(
        nv in 1usize..5,
        nc in 0usize..4,
        coeffs in prop::collection::vec(0i64..6, 60),
        rhss in prop::collection::vec(1i64..20, 8),
        objs in prop::collection::vec(-2i64..5, 8),
        ubs in prop::collection::vec(0i64..6, 8),
    ) {
        let p = random_boxed_lp(nv, nc, &coeffs, &rhss, &objs, &ubs);
        assert_bound_modes_agree_exact(&p);
    }

    /// f64: all four routes agree within tolerance.
    #[test]
    fn native_and_lowered_agree_on_f64(
        nv in 1usize..6,
        nc in 0usize..5,
        coeffs in prop::collection::vec(0i64..6, 60),
        rhss in prop::collection::vec(1i64..20, 8),
        objs in prop::collection::vec(-2i64..5, 8),
        ubs in prop::collection::vec(0i64..6, 8),
    ) {
        let p = random_boxed_lp(nv, nc, &coeffs, &rhss, &objs, &ubs);
        let exact = p
            .solve_with::<Ratio>(&opts(Kernel::SparseRevised, BoundMode::Native))
            .unwrap();
        assert_bound_modes_agree_f64(&p, exact.objective().to_f64());
    }

    /// Box-only instances (no rows at all): the native path is pure bound
    /// flips and must match the lowered oracle exactly.
    #[test]
    fn pure_flip_instances_agree(
        nv in 1usize..7,
        objs in prop::collection::vec(-3i64..5, 8),
        ubs in prop::collection::vec(0i64..6, 8),
    ) {
        let p = random_boxed_lp(nv, 0, &[], &[], &objs, &ubs);
        let want = assert_bound_modes_agree_exact(&p);
        // The optimum is computable by inspection: Σ max(obj, 0) · ub.
        let by_hand: Ratio = (0..nv)
            .map(|i| if objs[i] > 0 { ri(objs[i] * ubs[i]) } else { ri(0) })
            .sum();
        prop_assert_eq!(want, by_hand);
    }
}
