//! Kernel selection and the solve entry points: one lowering, two
//! pivoting engines.
//!
//! A [`Kernel`] takes a lowered [`StandardForm`] to an optimal basis: the
//! crate ships the original dense tableau (full two-phase tableau,
//! O(rows·cols) per pivot, trivially auditable) and the sparse revised
//! simplex (CSC columns, a factorized basis, pricing over nonzeros only —
//! built for the >90%-zero steady-state LPs at scale). Both run on either
//! [`Scalar`] backend. The sparse kernel is the default for *every*
//! scalar, the exact `Ratio` path included; the dense tableau is the
//! cross-check reference, selected like everything else through
//! [`SimplexOptions::kernel`].
//!
//! The two kernels start a hint-less exact solve differently. The dense
//! tableau runs the exact two-phase solve from the identity basis, an
//! oracle that shares no step with the fast path. The sparse kernel
//! runs the `f64` two-phase solve first, on an `f64` copy of the form
//! under a pivot budget linear in `m`, and hands its basis to its own
//! exact warm entry: an optimal `f64` basis is refactorized and proved
//! in `Ratio` with no pivot, and a wrong one is repaired by the warm
//! ladder. Only a failed pre-solve leaves the exact two-phase solve to
//! do the work. The run still reports [`WarmOutcome::Cold`], with both
//! passes' work summed into its counters.

use crate::scalar::Scalar;
use crate::simplex::SimplexOptions;
use crate::solution::{Solution, SolveError};
use crate::standard::{KernelOutput, StandardForm};
use crate::warm::{ShapeMismatch, WarmOutcome, WarmRun, WarmStart};
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

/// What one kernel run hands back: the kernel's output plus how the solve
/// started.
pub(crate) struct KernelRun<S> {
    pub(crate) output: KernelOutput<S>,
    /// How the solve started (see [`WarmOutcome`]).
    pub(crate) outcome: WarmOutcome,
    /// When the outcome is [`WarmOutcome::ColdFallback`] because the hint
    /// was captured from a differently shaped form: the typed diagnosis.
    /// `None` on every other path (including fallbacks for singular or
    /// budget-stalled hints, which are numeric, not shape, failures).
    pub(crate) mismatch: Option<ShapeMismatch>,
}

/// The one place a kernel is picked and run: every solve in the crate —
/// cold or warm, freshly lowered or refreshed in place — comes through
/// here. `sf` must be a lowering under `opts.bound_mode`.
///
/// Both kernels honor the crate's pricing contract (see [`crate::pricing`]):
/// the entering rule is `opts.pricing.resolve::<S>()` — Bland for exact
/// scalars under `Pricing::Auto` (anti-cycling, guaranteed termination),
/// devex reference pricing for `f64`, and a Bland stall-fallback past half
/// the pivot budget for every non-Bland rule — reported via
/// [`KernelOutput::pivot_rule`], with pricing work counted in
/// [`KernelOutput::pricing`].
fn run<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
    warm: Option<&WarmStart>,
) -> Result<KernelRun<S>, SolveError> {
    debug_assert_eq!(
        sf.bound_mode, opts.bound_mode,
        "form/options bound-mode mismatch"
    );
    match opts.kernel {
        // The tableau cannot consume a hint: it solves cold and says so
        // (the caller still snapshots the final basis, so the sparse
        // kernel can pick up from it on the next re-solve).
        Kernel::Dense => Ok(KernelRun {
            output: crate::simplex::solve(sf, opts)?,
            outcome: if warm.is_some() {
                WarmOutcome::ColdFallback
            } else {
                WarmOutcome::Cold
            },
            mismatch: None,
        }),
        Kernel::SparseRevised => crate::sparse::solve_warm(sf, opts, warm),
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
