//! # ss-lp — an exact linear-programming solver
//!
//! A self-contained two-phase primal simplex implementation, generic over the
//! scalar type:
//!
//! * [`Ratio`](ss_num::Ratio) — **exact** arbitrary-precision rational
//!   arithmetic with Bland's anti-cycling rule. Termination and correctness
//!   are guaranteed; the answer has *denominators*, which the steady-state
//!   schedule reconstruction of Beaumont et al. (§4.1) consumes directly
//!   (period = lcm of denominators). On the sparse kernel a hint-less
//!   exact solve lets `f64` find the basis and only proves it in `Ratio`:
//!   the `f64` solve's basis seeds the exact warm entry, and the exact
//!   two-phase solve runs only when the `f64` pre-solve fails (see
//!   [`Solution::exact_continuation_pivots`]).
//! * `f64` — fast floating-point solving with devex reference pricing
//!   (see [`pricing`]) and an epsilon ratio test, used for large scaling
//!   sweeps where exactness is not required. `SimplexOptions { pricing,
//!   .. }` pins Dantzig/Bland/devex explicitly.
//!
//! …on one of two **pivoting kernels** ([`Kernel`]):
//!
//! * [`Kernel::SparseRevised`] — sparse revised simplex (CSC columns, a
//!   sparse-LU basis with Forrest–Tomlin updates, pricing over nonzeros
//!   only); the default for **both** scalar backends, built for the
//!   >90%-zero steady-state LPs at platform scale.
//! * [`Kernel::Dense`] — the full two-phase tableau, O(rows·cols) per
//!   pivot, trivially auditable; the cross-check reference.
//!
//! Every choice — kernel, pricing, factorization, bound handling — is a
//! field of [`SimplexOptions`], a plain value: there is no process-wide
//! solver state.
//!
//! Variable upper bounds `0 ≤ x ≤ u` are handled **natively** in both
//! kernels ([`BoundMode::Native`]): a nonbasic variable tracks whether it
//! rests `AtLower` or `AtUpper`, pricing is sign-aware, and the ratio test
//! admits bound flips that change no basis at all — so box constraints
//! never inflate the basis. [`BoundMode::LoweredRows`] keeps the legacy
//! one-row-per-bound lowering alive as an agreement oracle.
//!
//! ```
//! use ss_lp::{Problem, Sense, Cmp};
//! use ss_num::Ratio;
//!
//! // maximize x + 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0.
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x");
//! let y = p.add_var("y");
//! p.set_objective_coeff(x, Ratio::one());
//! p.set_objective_coeff(y, Ratio::from_int(2));
//! p.add_constraint("cap", [(x, Ratio::one()), (y, Ratio::one())], Cmp::Le, Ratio::from_int(4));
//! p.add_constraint("ylim", [(y, Ratio::one())], Cmp::Le, Ratio::from_int(3));
//! let sol = p.solve_exact().unwrap();
//! assert_eq!(sol.objective(), &Ratio::from_int(7)); // x=1, y=3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod dual;
pub mod edit;
pub mod factor;
mod kernel;
pub mod pricing;
mod problem;
mod scalar;
mod simplex;
mod solution;
mod sparse;
mod standard;
pub mod warm;

pub use edit::{EditPlan, EditSummary, FormLayout};
pub use factor::{
    BasisFactorization, EtaFile, Factor, FactorStats, RefactorMode, RefactorPolicy, Refactorized,
    SparseLu,
};
pub use kernel::{default_kernel, solve_warm_on, Kernel};
pub use pricing::{Pricing, PricingStats};
pub use problem::{Cmp, LinExpr, Problem, Sense, Var};
pub use scalar::Scalar;
pub use simplex::SimplexOptions;
pub use solution::{PivotRule, Solution, SolveError};
pub use sparse::{solve_audited, CacheAudit};
pub use standard::{lower, lower_with, refresh, BoundMode, KernelOutput, StandardForm};
pub use warm::{ShapeMismatch, WarmOutcome, WarmRun, WarmStart};
