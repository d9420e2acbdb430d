//! The wrong-plan reproducer of ROADMAP item 1: one warm session fed an
//! unreset chain of NWS drift events must agree with a cold solve after
//! **every** event. At HEAD it does not — seed 5 returns a super-optimal
//! (infeasible) plan at op 252 through the `DualRepaired` rung — so the
//! test is committed ignored; the fix PR only has to remove the attribute.
//!
//! `stream_rng` and `nws_drift` are copies of the generators in
//! `benchmark/src/script.rs` (the benchmark is its own workspace), so the
//! chain is exactly the `drift_replan` workload's, minus its resets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::engine;
use ss_core::master_slave::MasterSlave;
use ss_core::session::{SessionEvent, SolveSession};
use ss_core::ParamScale;
use ss_num::Ratio;
use ss_platform::topo::{self, ParamRange};
use ss_platform::Platform;

fn stream_rng(seed: u64, domain: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ domain.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ stream.wrapping_mul(0x1656_67b1_9e37_79f9),
    )
}

/// Each node weight and each edge cost is rescaled with probability 0.3
/// by `k/12`, `k ∈ 8..=18`.
fn nws_drift(rng: &mut StdRng, g: &Platform) -> ParamScale {
    let mut s = ParamScale::nominal(g);
    for f in s.w_mult.iter_mut().chain(s.c_mult.iter_mut()) {
        if rng.gen_bool(0.3) {
            *f = Ratio::new(rng.gen_range(8..=18), 12);
        }
    }
    s
}

#[test]
#[ignore = "ROADMAP item 1: Forrest–Tomlin warm-chain defect, fails at HEAD"]
fn unreset_drift_chain_agrees_with_cold_solves() {
    const SEED: u64 = 5;
    let (base, master) = topo::random_connected(
        &mut stream_rng(SEED, 2, 0),
        96,
        0.25,
        &ParamRange::default(),
    );
    let mut sess: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(master));
    sess.apply(SessionEvent::Arrive(base.clone())).unwrap();
    for op in 0..=252u64 {
        let scale = nws_drift(&mut stream_rng(SEED, 3, op), &base);
        let cold = engine::solve_approx(&MasterSlave::new(master), &scale.apply(&base))
            .unwrap()
            .objective_f64();
        let warm = sess.apply(SessionEvent::Drift(scale)).unwrap();
        let got = warm.activities.objective_f64();
        assert!(
            (got - cold).abs() <= 1e-6 * cold.abs().max(1.0),
            "op {op}: warm {got} vs cold {cold}, outcome {:?}",
            warm.telemetry.outcome
        );
    }
}
