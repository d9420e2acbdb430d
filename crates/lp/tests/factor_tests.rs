//! Basis-factorization backend tests: the eta file (product-form
//! inverse) and the sparse LU (Markowitz + Forrest–Tomlin) must be
//! interchangeable — FTRAN/BTRAN agreement on random bases, full-solve
//! agreement across random drift chains on both kernels and both scalar
//! backends, and the unit cases the warm repair path depends on
//! (dependent warm bases repaired through LU refactorization,
//! Forrest–Tomlin updates after bound flips, the epsilon-negative-basic
//! snap surviving refactorizations forced mid-repair).

use proptest::prelude::*;
use ss_lp::{
    lower, BasisFactorization, Cmp, EtaFile, Factor, Kernel, Problem, RefactorMode, RefactorPolicy,
    Sense, SimplexOptions, SparseLu, StandardForm, WarmStart,
};
use ss_num::Ratio;

fn opts(factor: Factor, kernel: Kernel) -> SimplexOptions {
    SimplexOptions {
        factor,
        kernel,
        ..SimplexOptions::default()
    }
}

/// The steady-state-shaped drifting family also used by the dual-path
/// tests: a chain of conservation equalities over boxed activity
/// variables, one shared capacity row, rates driven by the drift tuple.
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

fn dense_col(sf: &StandardForm<Ratio>, j: usize) -> Vec<Ratio> {
    let mut v = vec![Ratio::zero(); sf.m];
    let (rows, vals) = sf.column(j);
    for (i, a) in rows.iter().zip(vals) {
        v[*i] = a.clone();
    }
    v
}

/// FTRAN output keyed by the basic column each row slot holds — the
/// representation-independent answer (the two backends may assign rows
/// to columns in a different order).
fn by_column(basis: &[usize], d: &[Ratio]) -> Vec<(usize, Ratio)> {
    let mut m: Vec<(usize, Ratio)> = basis.iter().copied().zip(d.iter().cloned()).collect();
    m.sort_unstable_by_key(|(j, _)| *j);
    m
}

/// A deterministic per-column cost for BTRAN inputs, keyed to columns so
/// both backends price the same basis whatever their row assignment.
fn col_cost(j: usize) -> Ratio {
    Ratio::from_int((j as i64 * 7) % 11 - 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random column subsets factorized on both backends must produce
    /// the same FTRAN image (as a column → coefficient map) for every
    /// column of the form, and the same dual prices for column-keyed
    /// basic costs — exact `Ratio` arithmetic, so equality is literal.
    #[test]
    fn eta_and_lu_agree_on_ftran_btran_over_random_bases(
        nvars in 3usize..7,
        cap in 3i64..8,
        a in 1i64..7,
        b in 1i64..7,
        c in 1i64..7,
        picks in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let p = drifting_chain(nvars, &[a, b, c], cap);
        let sf = lower::<Ratio>(&p);
        let pol = RefactorPolicy::default();
        let mut cols: Vec<usize> = picks.iter().map(|&k| k % sf.art_start).collect();
        cols.sort_unstable();
        cols.dedup();

        // The eta file claims rows first; its completed basis (hinted
        // columns + basis0 completions) is then the common ground both
        // backends factorize. Factorizing the raw hint independently
        // would be wrong to compare: Markowitz may claim different rows,
        // completing with different slack columns — a different basis.
        let mut eta: EtaFile<Ratio> = EtaFile::identity(sf.m);
        let Some(re) = eta.refactorize(&sf, &cols, RefactorMode::Strict, &pol) else {
            return Ok(()); // unrepairable hint: the warm path goes cold
        };
        let mut lu: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let rl = lu.refactorize(&sf, &re.basis, RefactorMode::Strict, &pol);
        // A complete nonsingular exact basis factorizes under any pivot
        // order — Markowitz included.
        let Some(rl) = rl else {
            return Err(TestCaseError::fail("LU refused a complete nonsingular basis"));
        };
        let mut be = re.basis.clone();
        let mut bl = rl.basis.clone();
        be.sort_unstable();
        bl.sort_unstable();
        prop_assert_eq!(&be, &bl, "backends kept different column sets");

        for j in 0..sf.ncols {
            let mut ve = dense_col(&sf, j);
            let mut vl = ve.clone();
            eta.ftran(&mut ve);
            lu.ftran(&mut vl);
            prop_assert_eq!(
                by_column(&re.basis, &ve),
                by_column(&rl.basis, &vl),
                "ftran disagrees on column {}", j
            );
        }
        let mut ue: Vec<Ratio> = re.basis.iter().map(|&j| col_cost(j)).collect();
        let mut ul: Vec<Ratio> = rl.basis.iter().map(|&j| col_cost(j)).collect();
        eta.btran(&mut ue);
        lu.btran(&mut ul);
        prop_assert_eq!(ue, ul, "btran disagrees");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-solve agreement across random drift chains: warm sessions
    /// dragged through the same phases under the eta file and under the
    /// sparse LU must reproduce every cold optimum — exactly on `Ratio`
    /// (with verifying certificates), within tolerance on `f64` — with
    /// the Forrest–Tomlin update chain (not just cold factorizations)
    /// doing the work on the warm phases.
    #[test]
    fn factor_backends_agree_across_drift_chains_exact(
        nvars in 3usize..7,
        cap in 3i64..8,
        phases in proptest::collection::vec((1i64..7, 1i64..7, 1i64..7), 2..5),
    ) {
        let eta_opts = opts(Factor::EtaFile, Kernel::SparseRevised);
        let lu_opts = opts(Factor::SparseLu, Kernel::SparseRevised);
        let mut warm_eta: Option<WarmStart> = None;
        let mut warm_lu: Option<WarmStart> = None;
        for (a, b, c) in phases {
            let p = drifting_chain(nvars, &[a, b, c], cap);
            let cold = p.solve_exact().unwrap();
            let re = p.solve_warm_with::<Ratio>(&eta_opts, warm_eta.as_ref()).unwrap();
            let rl = p.solve_warm_with::<Ratio>(&lu_opts, warm_lu.as_ref()).unwrap();
            prop_assert_eq!(
                re.solution.objective(),
                cold.objective(),
                "rates ({}, {}, {}): eta warm drifted off the cold optimum", a, b, c
            );
            prop_assert_eq!(
                rl.solution.objective(),
                cold.objective(),
                "rates ({}, {}, {}): LU warm drifted off the cold optimum", a, b, c
            );
            p.verify_optimality(&rl.solution)
                .map_err(|e| TestCaseError::fail(format!("LU certificate: {e}")))?;
            warm_eta = Some(re.warm);
            warm_lu = Some(rl.warm);
        }
    }

    /// The same chain on the `f64` backend, within tolerance, plus the
    /// dense tableau (which keeps no factorization and must be blind to
    /// the `factor` option) as a second cross-check.
    #[test]
    fn factor_backends_agree_across_drift_chains_f64(
        nvars in 3usize..7,
        cap in 3i64..8,
        phases in proptest::collection::vec((1i64..7, 1i64..7, 1i64..7), 2..4),
    ) {
        let mut warm_eta: Option<WarmStart> = None;
        let mut warm_lu: Option<WarmStart> = None;
        for (a, b, c) in phases {
            let p = drifting_chain(nvars, &[a, b, c], cap);
            let exact = p.solve_exact().unwrap();
            let want = exact.objective().to_f64();
            let re = p
                .solve_warm_with::<f64>(&opts(Factor::EtaFile, Kernel::SparseRevised), warm_eta.as_ref())
                .unwrap();
            let rl = p
                .solve_warm_with::<f64>(&opts(Factor::SparseLu, Kernel::SparseRevised), warm_lu.as_ref())
                .unwrap();
            let dense = p
                .solve_with::<f64>(&opts(Factor::SparseLu, Kernel::Dense))
                .unwrap();
            for (tag, got) in [
                ("eta", re.solution.objective()),
                ("lu", rl.solution.objective()),
                ("dense", dense.objective()),
            ] {
                let err = (got - want).abs();
                prop_assert!(
                    err < 1e-9,
                    "rates ({}, {}, {}) {}: |Δ| = {:.3e}", a, b, c, tag, err
                );
            }
            warm_eta = Some(re.warm);
            warm_lu = Some(rl.warm);
        }
    }
}

/// A dependent (duplicate-column, garbage-statuses) warm hint must be
/// repaired through the LU's Strict refactorization — dropping the
/// dependent columns, completing from `basis0` — and still land on the
/// true optimum with a verifying certificate.
#[test]
fn dependent_warm_basis_is_repaired_through_lu_refactorization() {
    let p = drifting_chain(5, &[2, 3, 5], 4);
    let cold = p.solve_exact().unwrap();
    let sf = lower::<Ratio>(&p);
    let garbage = WarmStart::new(
        sf.m,
        sf.ncols,
        sf.art_start,
        vec![0, 0, 1, 1, 2],
        vec![true; sf.ncols],
    );
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        let run = p
            .solve_warm_with::<Ratio>(&opts(factor, Kernel::SparseRevised), Some(&garbage))
            .unwrap();
        assert_eq!(
            run.solution.objective(),
            cold.objective(),
            "{factor:?}: garbage hint changed the optimum"
        );
        p.verify_optimality(&run.solution)
            .unwrap_or_else(|e| panic!("{factor:?}: certificate failed: {e}"));
    }
}

/// Forrest–Tomlin updates interleaved with bound flips: a boxed LP whose
/// optimum rests several variables at their upper bounds makes the ratio
/// test take flip steps (no basis change) between genuine pivots (F–T
/// updates). Both factorization backends must agree exactly through that
/// interleaving, warm and cold.
#[test]
fn forrest_tomlin_survives_bound_flips() {
    // All variables end at their upper bounds (cap is slack), so the
    // solve path is flip-heavy. `Problem` is not `Clone`; build the
    // family from a constructor parameterized by the cost direction.
    fn flip_heavy(descending: bool) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..4)
            .map(|i| p.add_var_bounded(format!("v{i}"), Ratio::from_int(1 + (i as i64 % 2))))
            .collect();
        let cap_terms: Vec<_> = vars.iter().map(|&v| (v, Ratio::one())).collect();
        p.add_constraint("cap", cap_terms, Cmp::Le, Ratio::from_int(100));
        p.add_constraint(
            "mix",
            [(vars[0], Ratio::one()), (vars[1], Ratio::from_int(-1))],
            Cmp::Le,
            Ratio::from_int(2),
        );
        for (i, &v) in vars.iter().enumerate() {
            let c = if descending {
                4 - i as i64
            } else {
                1 + i as i64
            };
            p.set_objective_coeff(v, Ratio::from_int(c));
        }
        p
    }
    let p = flip_heavy(false);
    let cold = p.solve_exact().unwrap();
    let lu = opts(Factor::SparseLu, Kernel::SparseRevised);
    let run = p.solve_warm_with::<Ratio>(&lu, None).unwrap();
    assert_eq!(run.solution.objective(), cold.objective());
    // Re-solve warm from the optimum after flipping costs so previously
    // at-upper variables want to come back down: more flips, now against
    // a basis carrying F–T updates.
    let q = flip_heavy(true);
    let qcold = q.solve_exact().unwrap();
    let warm = q.solve_warm_with::<Ratio>(&lu, Some(&run.warm)).unwrap();
    assert_eq!(warm.solution.objective(), qcold.objective());
    q.verify_optimality(&warm.solution).unwrap();
    // And the eta backend sees the same chain identically.
    let eta = opts(Factor::EtaFile, Kernel::SparseRevised);
    let run_e = q.solve_warm_with::<Ratio>(&eta, Some(&run.warm)).unwrap();
    assert_eq!(run_e.solution.objective(), qcold.objective());
}

/// Refactorizations forced on (nearly) every pivot — `max_updates = 1` —
/// must not change any answer: this drives the mid-repair reinversion
/// path, where epsilon-negative basic values (the state the dual repair
/// exists to fix) have to survive an LU refactorization un-snapped while
/// ordinary optimization still clamps them.
#[test]
fn aggressive_refactorization_policy_changes_no_answers() {
    let policy = RefactorPolicy {
        max_updates: 1,
        ..RefactorPolicy::default()
    };
    for factor in [Factor::EtaFile, Factor::SparseLu] {
        let o = SimplexOptions {
            factor,
            refactor: policy,
            kernel: Kernel::SparseRevised,
            ..SimplexOptions::default()
        };
        let mut warm: Option<WarmStart> = None;
        for (a, b, c) in [(2i64, 3i64, 5i64), (5, 2, 3), (3, 5, 2), (2, 2, 6)] {
            let p = drifting_chain(6, &[a, b, c], 5);
            let cold = p.solve_exact().unwrap();
            let run = p.solve_warm_with::<Ratio>(&o, warm.as_ref()).unwrap();
            assert_eq!(
                run.solution.objective(),
                cold.objective(),
                "{factor:?} rates ({a}, {b}, {c}): per-pivot refactorization changed the optimum"
            );
            let fast = p.solve_warm_with::<f64>(&o, None).unwrap();
            let err = (fast.solution.objective() - cold.objective().to_f64()).abs();
            assert!(
                err < 1e-9,
                "{factor:?} rates ({a}, {b}, {c}) f64: |Δ| = {err:.3e}"
            );
            warm = Some(run.warm);
        }
    }
}

/// The factor telemetry must be wired end to end: a sparse solve under
/// an explicit backend records that backend's tag and counts its
/// refactorizations, and the LU reports its factor nnz and fill ratio.
#[test]
fn factor_stats_record_backend_and_work() {
    let p = drifting_chain(6, &[2, 3, 5], 5);
    for (factor, tag) in [
        (Factor::EtaFile, ss_lp::Factor::EtaFile),
        (Factor::SparseLu, ss_lp::Factor::SparseLu),
    ] {
        let sol = p
            .solve_with::<f64>(&opts(factor, Kernel::SparseRevised))
            .unwrap();
        let st = sol.factor();
        assert_eq!(st.backend, tag);
        assert!(st.refactorizations > 0, "{factor:?}: no refactorizations");
        assert!(st.factor_nnz > 0, "{factor:?}: empty factorization");
        assert!(st.fill_ratio > 0.0, "{factor:?}: no fill ratio recorded");
    }
}
