//! The pluggable LP-kernel abstraction: one lowering, many pivoting
//! engines.
//!
//! A kernel is anything that can take a lowered [`StandardForm`] to an
//! optimal basis: the crate ships the original [`DenseTableau`] (full
//! two-phase tableau, O(rows·cols) per pivot, trivially auditable) and the
//! [`SparseRevised`](crate::sparse::SparseRevised) revised simplex (CSC
//! columns, a factorized basis, pricing over nonzeros only — built for
//! the >90%-zero steady-state LPs at scale). Both run on either
//! [`Scalar`] backend. The sparse kernel is the default for *every*
//! scalar, the exact `Ratio` path included; the dense tableau is the
//! cross-check reference, selected like everything else through
//! [`SimplexOptions::kernel`].

use crate::scalar::Scalar;
use crate::simplex::SimplexOptions;
use crate::solution::{Solution, SolveError};
use crate::standard::{KernelOutput, StandardForm};
use crate::warm::{WarmKernelSolve, WarmOutcome, WarmRun, WarmStart};
use crate::Problem;

/// A pivoting engine: what [`SimplexOptions::kernel`] selects and what a
/// [`Solution`] records it ran on (like [`PivotRule`](crate::PivotRule), so
/// kernel-selection guarantees are testable).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// Dense two-phase tableau: the cross-check reference.
    Dense,
    /// Sparse revised simplex over a factorized basis (see
    /// [`Factor`](crate::Factor)) — the default for both scalar backends.
    #[default]
    SparseRevised,
}

/// The default [`Kernel`]: `Kernel::default()`, as a function. Exists only
/// because `benchmark/src/workloads/drift_replan.rs:69` calls it and
/// `benchmark/` is frozen; a later `benchmark` PR removes the call and this
/// with it.
pub fn default_kernel() -> Kernel {
    Kernel::default()
}

/// A pivoting engine: drives a lowered [`StandardForm`] to optimality.
///
/// Implementations must honor the crate's pricing contract (see
/// [`crate::pricing`]): the entering rule is
/// `opts.pricing.resolve::<S>()` — Bland for exact scalars under
/// `Pricing::Auto` (anti-cycling, guaranteed termination),
/// devex reference pricing for `f64`, and a Bland stall-fallback past
/// half the pivot budget for every non-Bland rule — reported via
/// [`KernelOutput::pivot_rule`], with pricing work counted in
/// [`KernelOutput::pricing`].
pub trait LpKernel<S: Scalar> {
    /// Solve the lowered system to optimality.
    fn solve(
        &self,
        sf: &StandardForm<S>,
        opts: &SimplexOptions,
    ) -> Result<KernelOutput<S>, SolveError>;

    /// Solve with an optional warm-start hint (see [`crate::warm`] for
    /// the cold → warm → repair → cold-fallback state machine).
    ///
    /// The default implementation cannot consume a hint: it runs the cold
    /// [`solve`](LpKernel::solve) and reports
    /// [`WarmOutcome::ColdFallback`] when one was supplied (the output
    /// still snapshots the final basis, so a warm-capable kernel can pick
    /// up from it on the next re-solve). [`SparseRevised`]
    /// (crate::SparseRevised) overrides this with a real warm path.
    fn solve_warm(
        &self,
        sf: &StandardForm<S>,
        opts: &SimplexOptions,
        warm: Option<&WarmStart>,
    ) -> Result<WarmKernelSolve<S>, SolveError> {
        let output = self.solve(sf, opts)?;
        let outcome = if warm.is_some() {
            WarmOutcome::ColdFallback
        } else {
            WarmOutcome::Cold
        };
        Ok(WarmKernelSolve {
            output,
            outcome,
            mismatch: None,
        })
    }
}

/// The original dense two-phase tableau kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseTableau;

/// The one place a kernel is picked and run: every solve in the crate —
/// cold or warm, freshly lowered or refreshed in place — comes through
/// here. `sf` must be a lowering under `opts.bound_mode`.
fn run<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
    warm: Option<&WarmStart>,
) -> Result<WarmKernelSolve<S>, SolveError> {
    debug_assert_eq!(
        sf.bound_mode, opts.bound_mode,
        "form/options bound-mode mismatch"
    );
    match opts.kernel {
        Kernel::Dense => DenseTableau.solve_warm(sf, opts, warm),
        Kernel::SparseRevised => crate::sparse::SparseRevised.solve_warm(sf, opts, warm),
    }
}

/// Cold solve: lower, run, assemble. No warm-start snapshot is captured —
/// nothing would consume it.
pub(crate) fn solve<S: Scalar>(
    problem: &Problem,
    opts: &SimplexOptions,
) -> Result<Solution<S>, SolveError> {
    let sf = crate::standard::lower_with::<S>(problem, opts.bound_mode);
    let out = run(&sf, opts, None)?.output;
    Ok(crate::standard::assemble(problem, &sf, out, opts.kernel))
}

/// Warm-capable solve over a **pre-lowered** form: the primitive under
/// [`Problem::solve_warm_with`] and the batched-service fast path. `sf`
/// must be a lowering of `problem` under `opts.bound_mode` (either fresh
/// from [`crate::lower_with`] or numerically refreshed in place by
/// [`crate::refresh`]). Returns the assembled solution together with the
/// outcome telemetry and the snapshot seeding the next re-solve.
pub fn solve_warm_on<S: Scalar>(
    problem: &Problem,
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
    warm: Option<&WarmStart>,
) -> Result<WarmRun<S>, SolveError> {
    let ws = run(sf, opts, warm)?;
    // The snapshot seeds the *next* solve; bill its capture separately so
    // warm-vs-cold timing comparisons stay honest.
    let t0 = std::time::Instant::now();
    let next = WarmStart::from_output(sf, &ws.output);
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(WarmRun {
        solution: crate::standard::assemble(problem, sf, ws.output, opts.kernel),
        outcome: ws.outcome,
        warm: next,
        snapshot_ms,
        mismatch: ws.mismatch,
    })
}
