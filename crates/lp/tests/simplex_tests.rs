//! Unit and property tests for the simplex kernel: textbook instances,
//! degenerate/cycling instances, infeasible/unbounded detection, and an
//! exact-vs-f64 cross-check on random LPs.

use proptest::prelude::*;
use ss_lp::{Cmp, PivotRule, Pricing, Problem, Sense, SimplexOptions, SolveError};
use ss_num::Ratio;

fn r(n: i64, d: i64) -> Ratio {
    Ratio::new(n, d)
}

fn ri(n: i64) -> Ratio {
    Ratio::from_int(n)
}

#[test]
fn textbook_max_two_vars() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  =>  (2, 6), z = 36.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(3));
    p.set_objective_coeff(y, ri(5));
    p.add_constraint("c1", [(x, ri(1))], Cmp::Le, ri(4));
    p.add_constraint("c2", [(y, ri(2))], Cmp::Le, ri(12));
    p.add_constraint("c3", [(x, ri(3)), (y, ri(2))], Cmp::Le, ri(18));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(36));
    assert_eq!(s.value(x), &ri(2));
    assert_eq!(s.value(y), &ri(6));
}

#[test]
fn fractional_optimum() {
    // max x + y s.t. 2x + y <= 2, x + 3y <= 3 => x=3/5, y=4/5, z=7/5.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(1));
    p.add_constraint("c1", [(x, ri(2)), (y, ri(1))], Cmp::Le, ri(2));
    p.add_constraint("c2", [(x, ri(1)), (y, ri(3))], Cmp::Le, ri(3));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &r(7, 5));
    assert_eq!(s.value(x), &r(3, 5));
    assert_eq!(s.value(y), &r(4, 5));
}

#[test]
fn minimize_with_ge_constraints() {
    // min 2x + 3y s.t. x + y >= 4, x >= 1 => (4, 0)? check: obj = 8 at (4,0);
    // at (1,3): 2+9=11. So optimum is x=4, y=0, z=8.
    let mut p = Problem::new(Sense::Minimize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(2));
    p.set_objective_coeff(y, ri(3));
    p.add_constraint("c1", [(x, ri(1)), (y, ri(1))], Cmp::Ge, ri(4));
    p.add_constraint("c2", [(x, ri(1))], Cmp::Ge, ri(1));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(8));
    assert_eq!(s.value(x), &ri(4));
    assert_eq!(s.value(y), &ri(0));
}

#[test]
fn equality_constraints() {
    // max x + 2y s.t. x + y == 3, x - y == 1 => x=2, y=1, z=4.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(2));
    p.add_constraint("sum", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(3));
    p.add_constraint("diff", [(x, ri(1)), (y, ri(-1))], Cmp::Eq, ri(1));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(4));
    assert_eq!(s.value(x), &ri(2));
    assert_eq!(s.value(y), &ri(1));
}

#[test]
fn negative_rhs_normalization() {
    // max x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("lo", [(x, ri(-1))], Cmp::Le, ri(-2));
    p.add_constraint("hi", [(x, ri(1))], Cmp::Le, ri(5));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(5));
    // And minimization hits the lower side.
    let mut p2 = Problem::new(Sense::Minimize);
    let x2 = p2.add_var("x");
    p2.set_objective_coeff(x2, ri(1));
    p2.add_constraint("lo", [(x2, ri(-1))], Cmp::Le, ri(-2));
    let s2 = p2.solve_exact().unwrap();
    assert_eq!(s2.objective(), &ri(2));
}

#[test]
fn upper_bounds_reach_the_optimum() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", r(1, 2));
    let y = p.add_var_bounded("y", r(1, 3));
    p.set_objective_coeff(x, ri(1));
    p.set_objective_coeff(y, ri(1));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &r(5, 6));
}

#[test]
fn infeasible_detected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("lo", [(x, ri(1))], Cmp::Ge, ri(5));
    p.add_constraint("hi", [(x, ri(1))], Cmp::Le, ri(2));
    assert_eq!(p.solve_exact().unwrap_err(), SolveError::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("c", [(x, ri(1)), (y, ri(-1))], Cmp::Le, ri(1));
    assert_eq!(p.solve_exact().unwrap_err(), SolveError::Unbounded);
}

#[test]
fn zero_objective_feasibility_probe() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    p.add_constraint("c", [(x, ri(1))], Cmp::Eq, r(7, 3));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(0));
    assert_eq!(s.value(x), &r(7, 3));
}

#[test]
fn beale_cycling_instance_terminates() {
    // Beale's classic cycling example (cycles under naive Dantzig pivoting
    // with textbook tie-breaking). Bland's rule must terminate.
    // min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
    // s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
    //      1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
    //      x6 <= 1
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
    let s = p.solve_exact().unwrap();
    // Known optimum: z = -1/20 at x4 = 1/25, x5 = 0, x6 = 1, x7 = 0.
    assert_eq!(s.objective(), &r(-1, 20));
    assert_eq!(s.value(x6), &ri(1));
}

#[test]
fn degenerate_lp_exact() {
    // Highly degenerate: many constraints active at the optimum.
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
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(3));
}

#[test]
fn redundant_equality_rows_dropped() {
    // x + y == 2 stated twice: phase 1 must drop the redundant row, not fail.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(1));
    p.add_constraint("e1", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    p.add_constraint("e2", [(x, ri(1)), (y, ri(1))], Cmp::Eq, ri(2));
    let s = p.solve_exact().unwrap();
    assert_eq!(s.objective(), &ri(2));
}

/// The anti-cycling contract: under `Pricing::Auto`, `Scalar::EXACT`
/// drives pivot selection — exact scalars must run Bland's rule
/// (termination guarantee on the degenerate steady-state LPs), `f64` must
/// run devex reference pricing, and `Pricing::Bland` overrides. Asserted here
/// so the guarantee cannot silently regress behind a refactor of the
/// kernel.
#[test]
fn exact_scalar_selects_bland_f64_selects_devex() {
    let build = || {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.set_objective_coeff(x, ri(3));
        p.set_objective_coeff(y, ri(5));
        p.add_constraint("c1", [(x, ri(1))], Cmp::Le, ri(4));
        p.add_constraint("c2", [(y, ri(2))], Cmp::Le, ri(12));
        p.add_constraint("c3", [(x, ri(3)), (y, ri(2))], Cmp::Le, ri(18));
        p
    };
    let p = build();

    let exact = p.solve_exact().unwrap();
    assert_eq!(exact.pivot_rule(), PivotRule::Bland);

    let fast = p.solve_f64().unwrap();
    assert_eq!(fast.pivot_rule(), PivotRule::Devex);

    // Pricing::Bland overrides devex for f64 — and both rules agree on the
    // optimum.
    let opts = SimplexOptions {
        pricing: Pricing::Bland,
        ..SimplexOptions::default()
    };
    let forced = p.solve_with::<f64>(&opts).unwrap();
    assert_eq!(forced.pivot_rule(), PivotRule::Bland);
    assert!((forced.objective() - fast.objective()).abs() < 1e-9);
    assert_eq!(exact.objective(), &ri(36));
}

/// Beale's cycling instance again, but from the f64 side with Bland
/// forced: the exact-style rule must terminate there too.
#[test]
fn forced_bland_terminates_on_beale_f64() {
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
    let opts = SimplexOptions {
        pricing: Pricing::Bland,
        ..SimplexOptions::default()
    };
    let s = p.solve_with::<f64>(&opts).unwrap();
    assert_eq!(s.pivot_rule(), PivotRule::Bland);
    assert!((s.objective() - (-0.05)).abs() < 1e-9);
}

#[test]
fn f64_matches_exact_on_textbook() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(3));
    p.set_objective_coeff(y, ri(5));
    p.add_constraint("c1", [(x, ri(1))], Cmp::Le, ri(4));
    p.add_constraint("c2", [(y, ri(2))], Cmp::Le, ri(12));
    p.add_constraint("c3", [(x, ri(3)), (y, ri(2))], Cmp::Le, ri(18));
    let sf = p.solve_f64().unwrap();
    assert!((sf.objective() - 36.0).abs() < 1e-9);
}

#[test]
fn solution_point_is_feasible() {
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var_bounded("x", ri(1));
    let y = p.add_var_bounded("y", ri(1));
    p.set_objective_coeff(x, ri(2));
    p.set_objective_coeff(y, ri(3));
    p.add_constraint("mix", [(x, ri(1)), (y, ri(2))], Cmp::Le, r(3, 2));
    let s = p.solve_exact().unwrap();
    p.check_feasible(s.values()).unwrap();
    assert_eq!(p.eval_objective(s.values()), *s.objective());
}

// ---------------------------------------------------------------------------
// Property tests: random LPs, exact vs f64 agreement, feasibility of optima.
// ---------------------------------------------------------------------------

/// Build a random bounded-feasible LP: maximize c.x subject to Ax <= b with
/// A, b >= 0 entries and every variable given an upper bound, guaranteeing a
/// finite optimum.
fn random_lp(
    nv: usize,
    nc: usize,
    coeffs: &[i64],
    rhss: &[i64],
    objs: &[i64],
) -> (Problem, Vec<ss_lp::Var>) {
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
        let rhs = ri(rhss[ci]);
        p.add_constraint(format!("c{ci}"), terms, Cmp::Le, rhs);
    }
    (p, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_optimum_is_feasible_and_matches_f64(
        nv in 1usize..5,
        nc in 1usize..5,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let (p, _) = random_lp(nv, nc, &seed, &rhs, &obj);
        let se = p.solve_exact().unwrap();
        p.check_feasible(se.values()).unwrap();
        prop_assert_eq!(p.eval_objective(se.values()), se.objective().clone());
        let sf = p.solve_f64().unwrap();
        let exact = se.objective().to_f64();
        prop_assert!((sf.objective() - exact).abs() <= 1e-6 * (1.0 + exact.abs()),
            "exact {} vs f64 {}", exact, sf.objective());
    }

    #[test]
    fn optimum_dominates_random_feasible_points(
        nv in 1usize..4,
        nc in 1usize..4,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
        probe in prop::collection::vec(0i64..10, 8),
    ) {
        let (p, _) = random_lp(nv, nc, &seed, &rhs, &obj);
        let se = p.solve_exact().unwrap();
        // Scale a random non-negative probe point until feasible, then check
        // the simplex optimum dominates it.
        let mut point: Vec<Ratio> = probe.iter().take(nv).map(|&x| r(x, 10)).collect();
        point.resize(nv, Ratio::zero());
        for _ in 0..12 {
            if p.check_feasible(&point).is_ok() {
                break;
            }
            for x in point.iter_mut() {
                *x = &*x * &r(1, 2);
            }
        }
        if p.check_feasible(&point).is_ok() {
            prop_assert!(p.eval_objective(&point) <= *se.objective());
        }
    }
}
