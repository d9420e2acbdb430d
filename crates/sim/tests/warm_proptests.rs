//! Property tests for warm-started re-solve sessions under random
//! [`ParamScale`] drifts: a warm re-solve must agree with a cold solve —
//! objective, primal feasibility, and the LP-duality certificate — on
//! both kernels and both scalar backends, and a shape-changing drift must
//! be absorbed by basis migration or a cold fallback — never a wrong
//! answer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::master_slave::MasterSlave;
use ss_core::session::SolveSession;
use ss_core::{engine, WarmOutcome};
use ss_lp::{Kernel, SimplexOptions};
use ss_num::Ratio;
use ss_platform::{topo, Platform};
use ss_sim::dynamic::ParamScale;

fn random_platform(seed: u64, p: usize) -> (Platform, ss_platform::NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    topo::random_connected(&mut rng, p, 0.35, &topo::ParamRange::default())
}

/// A random multiplicative drift with factors in [1/3, 3].
fn random_drift(rng: &mut StdRng, g: &Platform) -> ParamScale {
    let mut s = ParamScale::nominal(g);
    for w in s.w_mult.iter_mut() {
        if rng.gen_bool(0.5) {
            *w = Ratio::new(rng.gen_range(4..=36), 12);
        }
    }
    for c in s.c_mult.iter_mut() {
        if rng.gen_bool(0.5) {
            *c = Ratio::new(rng.gen_range(4..=36), 12);
        }
    }
    s
}

fn kernel_of(pick: u8) -> SimplexOptions {
    SimplexOptions::with_kernel(if pick == 0 {
        Kernel::SparseRevised
    } else {
        Kernel::Dense
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact backend, both kernels: every phase of a warm session matches
    /// the cold optimum exactly and carries a verifying duality
    /// certificate. (The dense kernel has no warm path — its session
    /// reports cold fallbacks — which is exactly what this property
    /// checks: outcomes never change answers.)
    #[test]
    fn warm_sessions_agree_with_cold_exact(
        seed in 0u64..1000,
        p in 5usize..9,
        nphases in 2usize..5,
        pick in 0u8..2,
    ) {
        let (g, m) = random_platform(seed, p);
        let mut drift_rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        let mut sess: SolveSession<Ratio, MasterSlave> =
            SolveSession::with_options(MasterSlave::new(m), kernel_of(pick));
        for t in 0..nphases {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                random_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).unwrap();
            let cold = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &gp).unwrap();
            prop_assert_eq!(
                warm.activities.objective(),
                cold.objective(),
                "phase {} ({:?})", t, warm.telemetry.outcome
            );
            // Warm solutions ship full duals: the certificate must hold.
            let (lp, _) = engine::Formulation::build(&MasterSlave::new(m), &gp).unwrap();
            if let Err(e) = lp.verify_optimality(warm.activities.solution()) {
                return Err(TestCaseError::fail(format!("phase {t}: certificate: {e}")));
            }
            if t > 0 {
                prop_assert!(warm.telemetry.outcome != WarmOutcome::Cold, "phase {}", t);
            }
        }
    }

    /// `f64` backend, both kernels: warm re-solves track the exact
    /// optimum within the sweep tolerance across drifts.
    #[test]
    fn warm_sessions_agree_with_cold_f64(
        seed in 0u64..1000,
        p in 5usize..10,
        nphases in 2usize..5,
        pick in 0u8..2,
    ) {
        let (g, m) = random_platform(seed.wrapping_add(500), p);
        let mut drift_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut sess: SolveSession<f64, MasterSlave> =
            SolveSession::with_options(MasterSlave::new(m), kernel_of(pick));
        for t in 0..nphases {
            let scale = if t == 0 {
                ParamScale::nominal(&g)
            } else {
                random_drift(&mut drift_rng, &g)
            };
            let gp = scale.apply(&g);
            let warm = sess.resolve(&gp).unwrap();
            let exact = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &gp).unwrap();
            let err = (warm.activities.objective_f64() - exact.objective().to_f64()).abs();
            prop_assert!(err < 1e-6, "phase {}: |Δ| = {:.3e} ({:?})", t, err, warm.telemetry.outcome);
        }
    }

    /// A drift that changes the platform's *shape* (more nodes and edges,
    /// hence a different LP layout) migrates the live basis by name-keyed
    /// layout diffing — same optimum as a from-scratch solve, never an
    /// error or a wrong answer — and the session stays warm on the new
    /// shape afterwards.
    #[test]
    fn shape_changing_drift_migrates_and_agrees(
        seed in 0u64..1000,
        p in 5usize..8,
        grow in 1usize..4,
    ) {
        let (g1, m) = random_platform(seed.wrapping_add(900), p);
        let (g2, _) = random_platform(seed.wrapping_add(901), p + grow);
        let mut sess: SolveSession<Ratio, MasterSlave> =
            SolveSession::new(MasterSlave::new(m));
        sess.resolve(&g1).unwrap();
        let edited = sess.resolve(&g2).unwrap();
        // The shape change is either absorbed warm through a migration or
        // served by a cold fallback — never a stale answer.
        prop_assert!(edited.telemetry.outcome != WarmOutcome::Cold);
        if edited.telemetry.outcome.used_warm_basis() {
            prop_assert!(edited.telemetry.edit.is_some());
        }
        let cold = engine::solve_backend::<Ratio, _>(&MasterSlave::new(m), &g2).unwrap();
        prop_assert_eq!(edited.activities.objective(), cold.objective());
        let rewarmed = sess.resolve(&g2).unwrap();
        prop_assert!(rewarmed.telemetry.outcome.used_warm_basis());
    }
}
