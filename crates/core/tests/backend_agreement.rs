//! Property tests for the engine's backend contract: on any strongly
//! connected platform, the fast `f64` backend's objective agrees with the
//! exact, duality-certified backend within `1e-6` — for master–slave and
//! scatter (the two reconstruction-grade formulations the sweeps lean on),
//! plus spot coverage of the remaining formulations.
//!
//! The same contract holds across **pivoting kernels**: the dense tableau
//! and the sparse revised simplex must find the same optimum — within
//! tolerance on `f64`, as identical rationals on the exact backend.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::MasterSlave;
use ss_core::multicast::EdgeCoupling;
use ss_core::{all_to_all, broadcast, dag, multicast, reduce, scatter};
use ss_lp::{solve_audited, Factor, Kernel, Pricing, SimplexOptions};
use ss_num::Ratio;
use ss_platform::{topo, NodeId, Platform};

const TOL: f64 = 1e-6;

/// `random_connected` builds a spanning tree plus duplex extras, so the
/// digraph is strongly connected for every seed.
fn random_platform(seed: u64, p: usize, extra: f64) -> (Platform, NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    topo::random_connected(&mut rng, p, extra, &topo::ParamRange::default())
}

/// The exact activities of `f` on `g`, pinned to `kernel`.
fn exact_on<F: Formulation>(f: &F, g: &Platform, kernel: Kernel) -> engine::Activities<Ratio> {
    let (lp, _) = f.build(g).unwrap();
    engine::solve_problem_with(&lp, &SimplexOptions::with_kernel(kernel)).unwrap()
}

/// `f`'s objective on the `f64` backend under `kernel`.
fn f64_on<F: Formulation>(f: &F, g: &Platform, kernel: Kernel) -> f64 {
    let (lp, _) = f.build(g).unwrap();
    engine::solve_problem_with::<f64>(&lp, &SimplexOptions::with_kernel(kernel))
        .unwrap()
        .objective_f64()
}

fn assert_close(name: &str, exact: &Ratio, approx: f64) -> Result<(), TestCaseError> {
    let e = exact.to_f64();
    prop_assert!(
        (e - approx).abs() <= TOL,
        "{name}: exact {e} vs f64 {approx} (|Δ| = {:.3e})",
        (e - approx).abs()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Master–slave: solve_approx() tracks solve() on random strongly
    /// connected platforms of varying size and density.
    #[test]
    fn master_slave_backends_agree(seed in 0u64..10_000, p in 3usize..9, dense in 0u8..2) {
        let (g, m) = random_platform(seed, p, if dense == 0 { 0.2 } else { 0.5 });
        let exact = ss_core::master_slave::solve(&g, m).unwrap();
        let approx = ss_core::master_slave::solve_approx(&g, m).unwrap();
        assert_close("ssms", &exact.ntask, approx.objective_f64())?;
    }

    /// Scatter: same contract, multi-target flows.
    #[test]
    fn scatter_backends_agree(seed in 0u64..10_000, p in 4usize..8, k in 1usize..4) {
        let (g, src) = random_platform(seed, p, 0.3);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca77e2);
        let targets = topo::pick_targets(&mut rng, &g, src, k.min(p - 1));
        let exact = scatter::solve(&g, src, &targets).unwrap();
        let approx = scatter::solve_approx(&g, src, &targets).unwrap();
        assert_close("scatter", &exact.throughput, approx.objective_f64())?;
    }

    /// The engine's cross_check accepts every platform the individual
    /// backends agree on (no false positives in the sweep guard).
    #[test]
    fn cross_check_accepts_agreeing_platforms(seed in 0u64..10_000, p in 3usize..8) {
        let (g, m) = random_platform(seed, p, 0.3);
        let cc = engine::cross_check(&MasterSlave::new(m), &g, TOL, |s| s.ntask.clone()).unwrap();
        prop_assert!(cc.abs_error <= TOL);
    }

    /// Dense vs sparse kernel on the f64 backend: same optimum within
    /// tolerance on any platform (the sweep's kernel-regression guard).
    #[test]
    fn kernels_agree_on_f64_master_slave(seed in 0u64..10_000, p in 3usize..9, dense in 0u8..2) {
        let (g, m) = random_platform(seed, p, if dense == 0 { 0.2 } else { 0.5 });
        let f = MasterSlave::new(m);
        let (d, s) = (f64_on(&f, &g, Kernel::Dense), f64_on(&f, &g, Kernel::SparseRevised));
        prop_assert!((d - s).abs() <= TOL);
    }

    /// Sparse-exact: where the sparse kernel runs on the exact `Ratio`
    /// backend, its objective equals the dense kernel's **exactly** —
    /// both are exact algorithms, so there is no tolerance to hide behind.
    #[test]
    fn kernels_identical_on_ratio_master_slave(seed in 0u64..10_000, p in 3usize..7) {
        let (g, m) = random_platform(seed, p, 0.3);
        let f = MasterSlave::new(m);
        let dense = exact_on(&f, &g, Kernel::Dense);
        let sparse = exact_on(&f, &g, Kernel::SparseRevised);
        prop_assert_eq!(dense.objective(), sparse.objective());
    }

    /// Same exact-equality contract on all-to-all (p(p-1) coupled flows —
    /// the densest multi-flow structure in the crate).
    #[test]
    fn kernels_identical_on_ratio_all_to_all(seed in 0u64..10_000, p in 3usize..6) {
        let (g, _) = random_platform(seed, p, 0.3);
        let f = all_to_all::AllToAll::new();
        let dense = exact_on(&f, &g, Kernel::Dense);
        let sparse = exact_on(&f, &g, Kernel::SparseRevised);
        prop_assert_eq!(dense.objective(), sparse.objective());
    }

    /// The ported divisible formulation holds the full contract: backend
    /// agreement and kernel agreement on one platform family.
    #[test]
    fn divisible_backends_and_kernels_agree(seed in 0u64..10_000, p in 3usize..8) {
        let (g, m) = random_platform(seed, p, 0.3);
        let f = ss_core::divisible::Divisible::new(m);
        let cc = engine::cross_check(&f, &g, TOL, |s| s.rate.clone()).unwrap();
        prop_assert!(cc.abs_error <= TOL);
        let (d, s) = (f64_on(&f, &g, Kernel::Dense), f64_on(&f, &g, Kernel::SparseRevised));
        prop_assert!((d - s).abs() <= TOL);
    }
}

proptest! {
    // Each case solves eight formulations exactly (all-to-all alone carries
    // p(p-1) flow copies), so a lean case count keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Spot coverage: the remaining formulations hold the same contract.
    #[test]
    fn other_formulations_backends_agree(seed in 0u64..2_000) {
        let (g, root) = random_platform(seed, 5, 0.35);

        let bc = broadcast::solve(&g, root).unwrap();
        assert_close("broadcast", &bc.throughput, broadcast::solve_approx(&g, root).unwrap().objective_f64())?;

        let rd = reduce::solve(&g, root).unwrap();
        assert_close("reduce", &rd.throughput, reduce::solve_approx(&g, root).unwrap().objective_f64())?;

        let a2a = all_to_all::solve(&g).unwrap();
        assert_close("all-to-all", &a2a.throughput, all_to_all::solve_approx(&g).unwrap().objective_f64())?;

        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c);
        let targets = topo::pick_targets(&mut rng, &g, root, 2);
        for coupling in [EdgeCoupling::Sum, EdgeCoupling::Max] {
            let mc = multicast::solve(&g, root, &targets, coupling).unwrap();
            let ap = multicast::solve_approx(&g, root, &targets, coupling).unwrap();
            assert_close("multicast", &mc.throughput, ap.objective_f64())?;
        }

        let mut tg = dag::TaskGraph::diamond();
        tg.pin_task(dag::TaskId(0), root);
        let d = dag::solve(&g, &tg).unwrap();
        assert_close("dag", &d.throughput, dag::solve_approx(&g, &tg).unwrap().objective_f64())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sparse primal selects devex/Dantzig entering columns from
    /// reduced costs it *maintains* across pivots (one pivot row each).
    /// On real SSMS LPs — equality-heavy, so a long phase 1, and massively
    /// degenerate — the audited solve re-derives every entry from scratch
    /// after every primal step: identical under `Ratio` with either rule
    /// forced, within 1e-9 relative under `f64`, on both factorizations.
    #[test]
    fn maintained_reduced_costs_match_fresh_pricing_on_master_slave(
        seed in 0u64..10_000,
        p in 3usize..10,
        dense in 0u8..2,
    ) {
        let (g, m) = random_platform(seed, p, if dense == 0 { 0.2 } else { 0.5 });
        let (lp, _) = MasterSlave::new(m).build(&g).unwrap();
        let exact_sf = ss_lp::lower::<Ratio>(&lp);
        let fast_sf = ss_lp::lower::<f64>(&lp);
        for factor in [Factor::EtaFile, Factor::SparseLu] {
            for pricing in [Pricing::Devex, Pricing::Dantzig] {
                let opts = SimplexOptions {
                    pricing,
                    factor,
                    kernel: Kernel::SparseRevised,
                    ..SimplexOptions::default()
                };
                let (out, audit) = solve_audited(&exact_sf, &opts).unwrap();
                prop_assert_eq!(audit.mismatches, 0, "Ratio {:?}/{:?}", pricing, factor);
                prop_assert_eq!(audit.checks, out.iterations);
                let (out, audit) = solve_audited(&fast_sf, &opts).unwrap();
                prop_assert!(
                    audit.max_rel_err <= 1e-9,
                    "f64 {:?}/{:?}: cache drifted {:.3e} off a fresh repricing",
                    pricing, factor, audit.max_rel_err
                );
                prop_assert_eq!(audit.checks, out.iterations);
            }
        }
    }
}
