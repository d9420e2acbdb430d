//! # ss-core — steady-state scheduling formulations
//!
//! The primary contribution of Beaumont, Legrand, Marchal & Robert,
//! *"Steady-State Scheduling on Heterogeneous Clusters: Why and How?"*
//! (LIP RR-2004-11 / IPDPS 2004): instead of minimizing makespan (NP-hard),
//! characterize the *activity* of every resource per time unit — which
//! rational fraction of time each processor computes, and which fraction
//! each link spends carrying each kind of message — as a linear program
//! whose conservation laws capture steady-state operation. The LP optimum
//! is an upper bound on any periodic schedule's throughput, and (for the
//! problems below except multicast) the bound is achieved by an explicitly
//! reconstructible periodic schedule (`ss-schedule`).
//!
//! Formulations implemented here:
//!
//! | module | problem | paper |
//! |---|---|---|
//! | [`master_slave`] | SSMS: independent equal-size tasks from a master | §3.1 |
//! | [`scatter`] | SSPS: pipelined scatter (distinct messages per target) | §3.2 |
//! | [`multicast`] | pipelined multicast, sum-coupled (achievable) and max-coupled (optimistic bound) | §3.3, §4.3 |
//! | [`broadcast`] | pipelined broadcast (max-coupled bound, achievable per paper ref \[5\]) | §4.3 |
//! | [`reduce`] | pipelined reduce = broadcast on the transposed graph | §4.2 |
//! | [`all_to_all`] | personalized all-to-all (gossip) | §4.2 |
//! | [`dag`] | collections of identical DAGs (mixed data/task parallelism) | §4.2 |
//! | [`model_variants`] | send-OR-receive ports, bounded multiport with dedicated NICs | §5.1 |
//!
//! # The solver engine: one pipeline, two backends
//!
//! Every formulation is a descriptor implementing
//! [`engine::Formulation`] — it knows how to **build** its LP from a
//! [`Platform`](ss_platform::Platform) and how to **extract** its typed
//! solution from solved activities. The engine owns the solve step once,
//! generically over the [`Scalar`](ss_lp::Scalar) backend:
//!
//! * [`engine::solve`] — exact [`Ratio`](ss_num::Ratio) arithmetic with
//!   Bland's anti-cycling rule, plus an LP-duality optimality certificate.
//!   Every returned number is an exact rational, ready for §4.1 period
//!   extraction in `ss-schedule`. Each module's `solve()` /
//!   `solve_with_model()` wrappers take this path.
//! * [`engine::solve_approx`] — fast `f64` arithmetic with devex
//!   pricing, returning raw [`engine::Activities`]`<f64>`. Each module's
//!   `solve_approx()` wrapper takes this path; the `ss-bench` scaling
//!   sweeps run on it, cross-checked against the exact backend via
//!   [`engine::cross_check`].
//!
//! ```
//! use ss_core::engine::{self, Formulation};
//! use ss_core::master_slave::MasterSlave;
//!
//! let (g, master) = ss_platform::paper::fig1();
//! let f = MasterSlave::new(master);
//! // Exact: certified rational optimum.
//! let exact = engine::solve(&f, &g).unwrap();
//! // Fast: f64 approximation of the same LP.
//! let approx = engine::solve_approx(&f, &g).unwrap();
//! assert!((exact.ntask.to_f64() - approx.objective_f64()).abs() < 1e-9);
//! ```
//!
//! The engine also centralizes the port-capacity rows for the §2 model and
//! its §5.1 variants ([`engine::add_port_rows`]), their solution-side
//! verifier ([`engine::check_port_capacities`]), and the flow-balance
//! expression builder ([`engine::flow_balance_expr`]) that every
//! conservation law in this crate is phrased with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all_to_all;
pub mod broadcast;
pub mod collective;
pub mod dag;
pub mod divisible;
pub mod drift;
pub mod engine;
pub mod master_slave;
pub mod model_variants;
pub mod multicast;
pub mod multicast_trees;
pub mod reduce;
pub mod scatter;
pub mod session;

mod error;

pub use drift::ParamScale;
pub use engine::{Activities, Formulation};
pub use error::CoreError;
pub use master_slave::{MasterSlave, MasterSlaveSolution, PortModel};
pub use multicast::EdgeCoupling;
pub use scatter::CollectiveSolution;
pub use session::{SessionEvent, SessionSolve, SessionStats, SolveSession, SolveTelemetry};
pub use ss_lp::{EditSummary, ShapeMismatch, WarmOutcome, WarmStart};
