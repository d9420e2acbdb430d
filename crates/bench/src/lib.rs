//! # ss-bench — experiment harness
//!
//! Every quantitative artifact of the paper is regenerated by an
//! experiment function in this crate, surfaced through the `repro` binary
//! (`cargo run --release -p ss-bench --bin repro -- <id>|all|list`). The
//! Criterion benches (`cargo bench -p ss-bench`) time the algorithmic
//! kernels (LP solving, edge-coloring decomposition, simulation).
//!
//! `repro list` prints every experiment id; the README's "Reproducing the
//! paper's experiments" section says what each one covers, and the
//! `BENCH_*.json` files at the repository root hold the recorded sweeps.
//! The CI smokes and the `bench-check` gate are configurations of three
//! crate-private harnesses: a drift chain (one warm session re-planned
//! through seeded drift, every phase checked against a cold solve), an
//! options matrix (one LP under a list of `SimplexOptions` on both
//! scalars) and a committed-record gate.

#![forbid(unsafe_code)]

pub mod apps;
pub mod collectives;
pub mod figures;
mod harness;
pub mod kernels;
pub mod limits;
pub mod online;
pub mod parallel;
pub mod recon;
pub mod scale;
pub mod service;
pub mod table;
pub mod warm;

/// All experiment ids with their runners, in `repro list` order.
pub fn registry() -> Vec<(&'static str, fn())> {
    vec![
        ("fig1", figures::fig1 as fn()),
        ("fig2", figures::fig2),
        ("fig3", figures::fig3),
        ("ssms-recon", recon::ssms_recon),
        ("asymptotic", recon::asymptotic),
        ("scatter", collectives::scatter),
        ("broadcast", collectives::broadcast),
        ("reduce-a2a", collectives::reduce_a2a),
        ("dag", apps::dag),
        ("why", apps::why),
        ("divisible", apps::divisible),
        ("sendrecv", limits::sendrecv),
        ("multiport", limits::multiport),
        ("startup", limits::startup),
        ("fixed-period", limits::fixed_period),
        ("dynamic", limits::dynamic),
        ("lp-scale", scale::lp_scale),
        ("warm-scale", warm::warm_scale),
        ("service-scale", service::service_scale),
        ("online-scale", online::online_scale),
        ("coloring-scale", scale::coloring_scale),
        ("kernel-smoke", kernels::kernel_smoke),
        ("bounded-smoke", kernels::bounded_smoke),
        ("warm-smoke", warm::warm_smoke),
        ("dual-smoke", warm::dual_smoke),
        ("pricing-smoke", warm::pricing_smoke),
        ("factor-smoke", warm::factor_smoke),
        ("service-smoke", service::service_smoke),
        ("online-smoke", online::online_smoke),
        ("bench-check", warm::bench_check),
    ]
}
