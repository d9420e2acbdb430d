//! Solve results and errors.

use crate::factor::FactorStats;
use crate::kernel::Kernel;
use crate::pricing::PricingStats;
use crate::problem::Var;
use crate::scalar::Scalar;
use std::fmt;

/// Why a solve did not produce an optimal solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint set is empty (phase 1 could not zero the artificials).
    Infeasible,
    /// The objective is unbounded in the direction of optimization.
    Unbounded,
    /// The pivot budget was exhausted (only plausible for `f64` cycling).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveError::Infeasible => "linear program is infeasible",
            SolveError::Unbounded => "linear program is unbounded",
            SolveError::IterationLimit => "simplex iteration limit exceeded",
        })
    }
}

impl std::error::Error for SolveError {}

/// Which entering-variable rule the kernel ran with.
///
/// Selection is driven by [`Pricing`](crate::Pricing) (resolved per
/// [`Scalar::EXACT`]): under the default `Pricing::Auto`, exact scalars
/// take Bland's rule (anti-cycling, guaranteed termination on the
/// degenerate steady-state LPs) and `f64` takes devex reference pricing.
/// Every non-Bland rule keeps a Bland fallback after a stall threshold.
/// Recorded on the solution so the guarantee is testable and cannot
/// silently regress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotRule {
    /// Smallest-index positive reduced cost; anti-cycling.
    Bland,
    /// Most-positive reduced cost; fast in practice, may cycle.
    Dantzig,
    /// Devex reference pricing (approximate steepest edge, see
    /// [`crate::pricing`]); the `f64` default.
    Devex,
}

/// An optimal solution to a [`Problem`](crate::Problem).
#[derive(Clone, Debug)]
pub struct Solution<S> {
    values: Vec<S>,
    objective: S,
    iterations: usize,
    phase1_iterations: usize,
    exact_continuation_pivots: usize,
    pivot_rule: PivotRule,
    kernel: Kernel,
    pricing: PricingStats,
    factor: FactorStats,
    row_duals: Vec<S>,
    bound_duals: Vec<Option<S>>,
}

impl<S: Scalar> Solution<S> {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor
    pub(crate) fn new(
        values: Vec<S>,
        objective: S,
        iterations: usize,
        phase1_iterations: usize,
        exact_continuation_pivots: usize,
        pivot_rule: PivotRule,
        kernel: Kernel,
        pricing: PricingStats,
        factor: FactorStats,
        row_duals: Vec<S>,
        bound_duals: Vec<Option<S>>,
    ) -> Self {
        Solution {
            values,
            objective,
            iterations,
            phase1_iterations,
            exact_continuation_pivots,
            pivot_rule,
            kernel,
            pricing,
            factor,
            row_duals,
            bound_duals,
        }
    }

    /// Dual value (Lagrange multiplier) of the `i`-th explicit constraint,
    /// in [`Problem::add_constraint`](crate::Problem::add_constraint)
    /// order. Together with [`Solution::bound_dual`] these certify
    /// optimality: the dual objective `Σ y_i b_i + Σ μ_v ub_v` equals the
    /// primal objective exactly (strong duality), which
    /// [`Problem::verify_optimality`](crate::Problem::verify_optimality)
    /// checks.
    #[inline]
    pub fn row_dual(&self, i: usize) -> &S {
        &self.row_duals[i]
    }

    /// All explicit-row duals.
    #[inline]
    pub fn row_duals(&self) -> &[S] {
        &self.row_duals
    }

    /// Dual of a variable's upper bound (`None` if the variable has no
    /// upper bound).
    ///
    /// Under native bound handling
    /// ([`BoundMode::Native`](crate::BoundMode)) this is the sign-corrected
    /// final reduced cost of the column when it ends nonbasic at its upper
    /// bound (zero otherwise); under lowered rows it is the dual of the
    /// explicit bound row. Both produce the same certificate.
    #[inline]
    pub fn bound_dual(&self, var: Var) -> Option<&S> {
        self.bound_duals[var.index()].as_ref()
    }

    /// Value of a variable at the optimum.
    #[inline]
    pub fn value(&self, var: Var) -> &S {
        &self.values[var.index()]
    }

    /// All variable values, indexed by [`Var::index`].
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// Optimal objective value.
    #[inline]
    pub fn objective(&self) -> &S {
        &self.objective
    }

    /// Total simplex pivots used (both phases).
    #[inline]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Pivots used by phase 1 alone.
    #[inline]
    pub fn phase1_iterations(&self) -> usize {
        self.phase1_iterations
    }

    /// Pivots run in exact arithmetic after the `f64` pre-solve of a
    /// hint-less exact solve: 0 when the `f64` basis was already optimal,
    /// and 0 on every other solve. Included in [`Solution::iterations`].
    #[inline]
    pub fn exact_continuation_pivots(&self) -> usize {
        self.exact_continuation_pivots
    }

    /// The entering-variable rule the kernel selected (see [`PivotRule`]).
    #[inline]
    pub fn pivot_rule(&self) -> PivotRule {
        self.pivot_rule
    }

    /// Which pivoting engine produced this solution (see [`Kernel`]).
    #[inline]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Pricing work the kernel reported (see [`PricingStats`]).
    #[inline]
    pub fn pricing(&self) -> &PricingStats {
        &self.pricing
    }

    /// Columns priced across all iterations and phases.
    #[inline]
    pub fn priced_columns(&self) -> usize {
        self.pricing.priced_columns
    }

    /// Wall-clock spent in entering-column selection, in milliseconds.
    #[inline]
    pub fn pricing_ms(&self) -> f64 {
        self.pricing.pricing_ms
    }

    /// Basis-factorization work the kernel reported (see [`FactorStats`]).
    /// All-zero for the dense tableau, which keeps no factorization.
    #[inline]
    pub fn factor(&self) -> &FactorStats {
        &self.factor
    }

    /// Wall-clock spent in full (re)factorizations, in milliseconds.
    #[inline]
    pub fn factor_ms(&self) -> f64 {
        self.factor.factor_ms
    }

    /// Wall-clock spent applying basis-change updates, in milliseconds.
    #[inline]
    pub fn update_ms(&self) -> f64 {
        self.factor.update_ms
    }

    /// Wall-clock spent in FTRAN/BTRAN solves, in milliseconds.
    #[inline]
    pub fn ftran_btran_ms(&self) -> f64 {
        self.factor.ftran_btran_ms
    }

    /// Stored nonzeros of the most recent full factorization.
    #[inline]
    pub fn factor_nnz(&self) -> usize {
        self.factor.factor_nnz
    }

    /// Peak factor-nnz over basis-nnz fill ratio observed.
    #[inline]
    pub fn fill_ratio(&self) -> f64 {
        self.factor.fill_ratio
    }
}
