//! Pricing-rule agreement tests: devex, Dantzig, and Bland are different
//! *orderings* over the same simplex — on any LP, under either kernel,
//! either factorization, either bound handling and either scalar backend,
//! they must land on the same optimum. Exact
//! solves must be identical rationals with verifying duality
//! certificates; `f64` solves must agree within tolerance. Explicit
//! Dantzig/devex on the exact backend lean on the Bland stall-fallback
//! (past half the pivot budget) for termination, so the proptests cover
//! that path too.

use proptest::prelude::*;
use ss_lp::{
    lower, solve_audited, BoundMode, CacheAudit, Cmp, Factor, Kernel, KernelOutput, PivotRule,
    Pricing, Problem, RefactorPolicy, Scalar, Sense, SimplexOptions, Solution,
};
use ss_num::Ratio;

fn ri(n: i64) -> Ratio {
    Ratio::from_int(n)
}

fn opts(pricing: Pricing, kernel: Kernel) -> SimplexOptions {
    SimplexOptions {
        pricing,
        kernel,
        ..SimplexOptions::default()
    }
}

const KERNELS: [Kernel; 2] = [Kernel::Dense, Kernel::SparseRevised];
const FACTORS: [Factor; 2] = [Factor::EtaFile, Factor::SparseLu];
const BOUND_MODES: [BoundMode; 2] = [BoundMode::Native, BoundMode::LoweredRows];

/// The whole configuration matrix, every point a `SimplexOptions` literal
/// and nothing else: 2 kernels × 2 factorizations × 2 bound modes × the 3
/// explicit rules, plus `Pricing::Auto` at each.
fn matrix() -> Vec<SimplexOptions> {
    let rules = [
        Pricing::Auto,
        Pricing::Bland,
        Pricing::Dantzig,
        Pricing::Devex,
    ];
    let mut all = Vec::new();
    for kernel in KERNELS {
        for factor in FACTORS {
            for bound_mode in BOUND_MODES {
                for pricing in rules {
                    all.push(SimplexOptions {
                        max_iterations: 0,
                        pricing,
                        kernel,
                        bound_mode,
                        factor,
                        refactor: RefactorPolicy::default(),
                    });
                }
            }
        }
    }
    all
}

/// Every configuration lands on the reference exact optimum, records the
/// requested rule, and produces a verifying certificate.
fn assert_rules_agree_exact(p: &Problem, reference: &Solution<Ratio>) {
    for o in matrix() {
        let s = p.solve_with::<Ratio>(&o).unwrap();
        assert_eq!(
            s.objective(),
            reference.objective(),
            "{o:?} (Ratio) moved the optimum"
        );
        assert_eq!(s.pivot_rule(), o.pricing.resolve::<Ratio>());
        assert_eq!(s.kernel(), o.kernel);
        p.check_feasible(s.values()).unwrap();
        p.verify_optimality(&s).unwrap();
    }
}

fn assert_rules_agree_f64(p: &Problem, reference_obj: f64) {
    for o in matrix() {
        let s = p.solve_with::<f64>(&o).unwrap();
        assert!(
            (s.objective() - reference_obj).abs() <= 1e-9 * (1.0 + reference_obj.abs()),
            "{o:?} (f64): {} vs reference {reference_obj}",
            s.objective()
        );
        assert_eq!(s.pivot_rule(), o.pricing.resolve::<f64>());
        assert_eq!(s.kernel(), o.kernel);
    }
}

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

#[test]
fn textbook_instance_agrees_under_every_rule() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => 36.
    let mut p = Problem::new(Sense::Maximize);
    let x = p.add_var("x");
    let y = p.add_var("y");
    p.set_objective_coeff(x, ri(3));
    p.set_objective_coeff(y, ri(5));
    p.add_constraint("c1", [(x, ri(1))], Cmp::Le, ri(4));
    p.add_constraint("c2", [(y, ri(2))], Cmp::Le, ri(12));
    p.add_constraint("c3", [(x, ri(3)), (y, ri(2))], Cmp::Le, ri(18));
    let reference = p.solve_exact().unwrap();
    assert_eq!(reference.objective(), &ri(36));
    assert_rules_agree_exact(&p, &reference);
    assert_rules_agree_f64(&p, 36.0);
}

#[test]
fn devex_reports_pricing_work() {
    // The telemetry satellite: a devex solve must count priced columns,
    // and the counters must survive assembly into the Solution.
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..12)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(2)))
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, ri(1 + (i % 5) as i64));
    }
    for i in 0..vars.len() - 1 {
        p.add_constraint(
            format!("c{i}"),
            [(vars[i], ri(1)), (vars[i + 1], ri(1))],
            Cmp::Le,
            ri(3),
        );
    }
    for kernel in KERNELS {
        let s = p.solve_with::<f64>(&opts(Pricing::Devex, kernel)).unwrap();
        assert_eq!(s.pivot_rule(), PivotRule::Devex);
        assert!(
            s.priced_columns() > 0,
            "{kernel:?}: devex solve priced nothing"
        );
        assert!(s.pricing_ms() >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact arithmetic: Bland, Dantzig, and devex walk different pivot
    /// sequences but the optimum is a property of the LP — identical
    /// rationals, verifying certificates, at every point of the matrix.
    #[test]
    fn rules_identical_on_ratio(
        nv in 1usize..5,
        nc in 1usize..5,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let p = random_lp(nv, nc, &seed, &rhs, &obj);
        let reference = p.solve_exact().unwrap();
        for o in matrix() {
            let s = p.solve_with::<Ratio>(&o).unwrap();
            prop_assert_eq!(s.objective(), reference.objective(), "{:?}", o);
            p.check_feasible(s.values()).unwrap();
            p.verify_optimality(&s).unwrap();
        }
    }

    /// f64: every point of the matrix within tolerance of the exact
    /// optimum.
    #[test]
    fn rules_agree_on_f64(
        nv in 1usize..6,
        nc in 1usize..6,
        seed in prop::collection::vec(0i64..6, 60),
        rhs in prop::collection::vec(1i64..20, 8),
        obj in prop::collection::vec(0i64..5, 8),
    ) {
        let p = random_lp(nv, nc, &seed, &rhs, &obj);
        let exact = p.solve_exact().unwrap().objective().to_f64();
        for o in matrix() {
            let s = p.solve_with::<f64>(&o).unwrap();
            prop_assert!(
                (s.objective() - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
                "{:?}: {} vs exact {}", o, s.objective(), exact
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The maintained reduced-cost cache: devex and Dantzig on the sparse
// kernel select from `z` carried across pivots by one pivot row each, and
// `ss_lp::solve_audited` re-derives every entry from scratch
// after every primal step.
// ---------------------------------------------------------------------------

const CACHED_RULES: [Pricing; 2] = [Pricing::Devex, Pricing::Dantzig];
/// A bounded LP that `x = 1` satisfies, its rows rotating through `≤`,
/// `≥` and `=` so the cold solve runs a real phase 1 (artificials active,
/// then pinned) before phase 2.
fn mixed_lp(nv: usize, nc: usize, coeffs: &[i64], slack: &[i64], objs: &[i64]) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..nv)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(10)))
        .collect();
    for (i, &o) in objs.iter().enumerate().take(nv) {
        p.set_objective_coeff(vars[i], ri(o));
    }
    for ci in 0..nc {
        let row = &coeffs[ci * nv..(ci + 1) * nv];
        let at_ones: i64 = row.iter().sum();
        let terms: Vec<_> = (0..nv)
            .map(|vi| (vars[vi], ri(row[vi])))
            .filter(|(_, c)| !c.is_zero())
            .collect();
        let (cmp, rhs) = match ci % 3 {
            0 => (Cmp::Le, at_ones + slack[ci]),
            1 => (Cmp::Ge, (at_ones - slack[ci]).max(0)),
            _ => (Cmp::Eq, at_ones),
        };
        p.add_constraint(format!("c{ci}"), terms, cmp, ri(rhs));
    }
    p
}

fn audited<S: Scalar>(
    p: &Problem,
    pricing: Pricing,
    factor: Factor,
    refactor: RefactorPolicy,
) -> (KernelOutput<S>, CacheAudit) {
    let o = SimplexOptions {
        factor,
        refactor,
        ..opts(pricing, Kernel::SparseRevised)
    };
    solve_audited(&lower::<S>(p), &o).expect("feasible and bounded by construction")
}

/// Refactorize every other pivot: the cache is reseeded mid-solve, often.
fn jumpy() -> RefactorPolicy {
    RefactorPolicy {
        max_updates: 2,
        ..RefactorPolicy::default()
    }
}

/// Two chains of boxed variables coupled by one equality row: dozens of
/// pivots in both phases.
fn coupled_chains() -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..24)
        .map(|i| p.add_var_bounded(format!("x{i}"), ri(2 + (i % 3) as i64)))
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        p.set_objective_coeff(v, ri(1 + (i % 5) as i64));
    }
    for i in 0..vars.len() - 1 {
        p.add_constraint(
            format!("c{i}"),
            [(vars[i], ri(1)), (vars[i + 1], ri(2))],
            if i % 4 == 3 { Cmp::Ge } else { Cmp::Le },
            ri(if i % 4 == 3 { 1 } else { 4 }),
        );
    }
    p.add_constraint(
        "tie",
        [(vars[0], ri(1)), (vars[23], ri(-1))],
        Cmp::Eq,
        ri(0),
    );
    p
}

#[test]
fn optimality_is_declared_on_a_fresh_full_sweep() {
    // Whatever the maintained values say, the iteration that returns
    // "optimal" must have repriced every nonbasic phase-2 column from
    // scratch: its priced-column count is exactly that population.
    let p = coupled_chains();
    let sf = lower::<f64>(&p);
    for pricing in CACHED_RULES {
        for factor in FACTORS {
            let (out, audit) = audited::<f64>(&p, pricing, factor, RefactorPolicy::default());
            let basic_active = out.basis.iter().filter(|&&b| b < sf.art_start).count();
            assert_eq!(
                audit.final_sweep,
                sf.art_start - basic_active,
                "{pricing:?}/{factor:?}: last iteration priced {} columns",
                audit.final_sweep
            );
            assert!(out.iterations > 10, "instance too easy to mean anything");
            assert_eq!(audit.checks, out.iterations);
        }
    }
}

#[test]
fn a_mid_solve_refactorization_reseeds_the_cache() {
    let p = coupled_chains();
    for pricing in CACHED_RULES {
        for factor in FACTORS {
            let (calm_out, calm) = audited::<Ratio>(&p, pricing, factor, RefactorPolicy::default());
            let (out, audit) = audited::<Ratio>(&p, pricing, factor, jumpy());
            // Exact arithmetic: the refactorization schedule cannot change
            // the pivot sequence, only how often the cache is rebuilt.
            assert_eq!(out.iterations, calm_out.iterations);
            assert!(
                out.factor.refactorizations > calm_out.factor.refactorizations + 5,
                "{pricing:?}/{factor:?}: policy did not refactorize mid-solve"
            );
            // One reseed per refactorization that a cached iteration
            // followed (all but the initial identity and, at most, one
            // trailing the last pivot of each phase).
            assert!(
                audit.reseeds >= out.factor.refactorizations - 3,
                "{pricing:?}/{factor:?}: {} reseeds for {} refactorizations",
                audit.reseeds,
                out.factor.refactorizations
            );
            assert!(audit.reseeds > calm.reseeds);
            assert_eq!(audit.mismatches, 0);
            assert_eq!(calm.mismatches, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact arithmetic: after *every* primal step the maintained reduced
    /// costs equal a from-scratch repricing, entry for entry — both
    /// cached rules, both factorizations, calm and jumpy refactorization.
    #[test]
    fn maintained_reduced_costs_are_exact_on_ratio(
        nv in 2usize..7,
        nc in 1usize..7,
        coeffs in prop::collection::vec(0i64..6, 42),
        slack in prop::collection::vec(0i64..9, 6),
        obj in prop::collection::vec(0i64..5, 6),
        jump in 0u8..2,
    ) {
        let p = mixed_lp(nv, nc, &coeffs, &slack, &obj);
        let reference = p.solve_exact().unwrap();
        let policy = if jump == 1 { jumpy() } else { RefactorPolicy::default() };
        for pricing in CACHED_RULES {
            for factor in FACTORS {
                let (out, audit) = audited::<Ratio>(&p, pricing, factor, policy);
                prop_assert_eq!(audit.mismatches, 0, "{:?}/{:?}", pricing, factor);
                prop_assert_eq!(audit.checks, out.iterations);
                prop_assert_eq!(&p.eval_objective(&out.values), reference.objective());
            }
        }
    }

    /// f64: the same comparison within 1e-9 relative.
    #[test]
    fn maintained_reduced_costs_track_fresh_ones_on_f64(
        nv in 2usize..7,
        nc in 1usize..7,
        coeffs in prop::collection::vec(0i64..6, 42),
        slack in prop::collection::vec(0i64..9, 6),
        obj in prop::collection::vec(0i64..5, 6),
        jump in 0u8..2,
    ) {
        let p = mixed_lp(nv, nc, &coeffs, &slack, &obj);
        let policy = if jump == 1 { jumpy() } else { RefactorPolicy::default() };
        for pricing in CACHED_RULES {
            for factor in FACTORS {
                let (out, audit) = audited::<f64>(&p, pricing, factor, policy);
                prop_assert!(
                    audit.max_rel_err <= 1e-9,
                    "{:?}/{:?}: cache drifted {:.3e} off a fresh repricing",
                    pricing, factor, audit.max_rel_err
                );
                prop_assert_eq!(audit.checks, out.iterations);
            }
        }
    }
}
