//! Seeded input generators shared by the workloads. The program under test
//! only ever sees what these produce.

use crate::workload::fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::drift::ParamScale;
use ss_num::Ratio;
use ss_platform::{Platform, PlatformSpec};

/// The generator of input stream `stream` under `seed`. Distinct streams
/// (platform index, op index, …) are decorrelated by a golden-ratio stride,
/// so an op's input can be rebuilt on demand without replaying the ops
/// before it — which is what lets a script be materialised one op ahead.
pub fn stream_rng(seed: u64, domain: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ domain.wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ stream.wrapping_mul(0x1656_67b1_9e37_79f9),
    )
}

/// One observation of the repo's NWS drift regime (§5.5, the `warm-scale`
/// and `service-scale` sweeps): each node weight and each edge cost is
/// rescaled with probability 0.3 by `k/12`, `k ∈ 8..=18`.
pub fn nws_drift(rng: &mut StdRng, g: &Platform) -> ParamScale {
    let mut s = ParamScale::nominal(g);
    for f in s.w_mult.iter_mut().chain(s.c_mult.iter_mut()) {
        if rng.gen_bool(0.3) {
            *f = Ratio::new(rng.gen_range(8..=18), 12);
        }
    }
    s
}

/// Fold a platform's full description into fingerprint `h`.
pub fn fingerprint_platform(h: u64, g: &Platform) -> u64 {
    fnv1a(h, PlatformSpec::from_platform(g).to_json().as_bytes())
}

/// Fold a drift's factors into fingerprint `h`.
pub fn fingerprint_scale(h: u64, s: &ParamScale) -> u64 {
    s.w_mult
        .iter()
        .chain(&s.c_mult)
        .fold(h, |h, f| fnv1a(h, f.to_string().as_bytes()))
}

/// `|a − b| ≤ 1e-6 · max(1, |b|)`: the answer tolerance of every check.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// Settle a disagreement between the program's f64 `got` and the f64
/// `reference` on platform `g` with the exact, duality-certified solve.
/// `Ok(note)` when the exact optimum sides with the program (the reference
/// was wrong); `Err(detail)` when the program was wrong or nothing could
/// tell.
pub fn arbitrate(
    master: ss_platform::NodeId,
    g: &Platform,
    got: f64,
    reference: &Result<f64, String>,
) -> Result<String, String> {
    let reference = match reference {
        Ok(r) => r.to_string(),
        Err(e) => format!("error ({e})"),
    };
    let f = ss_core::master_slave::MasterSlave::new(master);
    match ss_core::engine::solve(&f, g).map(|s| s.ntask.to_f64()) {
        Ok(exact) if close(got, exact) => Ok(format!(
            "got {got} vs reference {reference}; exact {exact} sides with the program: \
             reference wrong"
        )),
        Ok(exact) => Err(format!(
            "got {got} vs reference {reference}; exact {exact} sides against the program: \
             program wrong"
        )),
        Err(e) => Err(format!(
            "got {got} vs reference {reference}; the exact solve failed: {e}"
        )),
    }
}
