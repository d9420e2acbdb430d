//! Dense two-phase primal simplex, generic over [`Scalar`] — the
//! [`Kernel::Dense`] engine.
//!
//! Pivoting: Bland's rule when the scalar is exact (guaranteed termination —
//! important because steady-state LPs are heavily degenerate: many activity
//! variables sit at 0 or at the one-port bound), devex reference pricing
//! with a Bland stall-fallback for `f64` (see [`crate::pricing`]; the
//! tableau gets the devex pivot row for free — it *is* row `r` of `B⁻¹A`).
//! Variable upper bounds are handled natively in
//! the ratio test (see [`crate::bounded`]): nonbasic columns rest at either
//! bound, pricing is sign-aware, and bound flips skip the elimination
//! entirely. The tableau is O(rows·cols) per pivot; for the mostly-zero
//! LPs the platform sweeps build at scale, prefer the
//! [`Kernel::SparseRevised`] kernel.

use crate::bounded::{choose_leaving, entering_value, improves, shift_basics, Leaving};
use crate::factor::{Factor, FactorStats, RefactorPolicy};
use crate::kernel::Kernel;
use crate::pricing::{Devex, Pricing, PricingStats};
use crate::scalar::Scalar;
use crate::solution::{PivotRule, SolveError};
use crate::standard::{BoundMode, KernelOutput, StandardForm};
use std::time::Instant;

/// Tuning knobs for the simplex kernels — a plain value, and the only way
/// to choose anything about a solve.
#[derive(Clone, Debug, Default)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases (0 = automatic:
    /// `200 * (rows + cols) + 10_000`).
    pub max_iterations: usize,
    /// Entering-variable pricing strategy (see [`Pricing`]); `Auto`
    /// resolves to devex for `f64`, Bland for exact scalars.
    pub pricing: Pricing,
    /// Which pivoting engine runs the solve (sparse revised simplex by
    /// default; the dense tableau as the cross-check reference).
    pub kernel: Kernel,
    /// How variable upper bounds reach the kernel (native metadata by
    /// default; lowered rows as the agreement oracle).
    pub bound_mode: BoundMode,
    /// Which basis-factorization backend the sparse kernel maintains
    /// (sparse LU by default; the eta file as the agreement oracle).
    /// Ignored by the dense tableau.
    pub factor: Factor,
    /// When the sparse kernel refactorizes its basis (update cap,
    /// fill-growth ratio, stability triggers; see [`RefactorPolicy`]) —
    /// shared by both factorization backends.
    pub refactor: RefactorPolicy,
}

impl SimplexOptions {
    /// Default options with an explicit kernel.
    pub fn with_kernel(kernel: Kernel) -> SimplexOptions {
        SimplexOptions {
            kernel,
            ..SimplexOptions::default()
        }
    }

    /// The pivot budget for a lowered system of `m` rows and `ncols`
    /// columns (shared by both kernels).
    pub(crate) fn budget(&self, m: usize, ncols: usize) -> usize {
        if self.max_iterations == 0 {
            200 * (m + ncols) + 10_000
        } else {
            self.max_iterations
        }
    }
}

struct Tableau<S> {
    /// `rows x ncols` — the transformed constraint matrix `B⁻¹ A`.
    a: Vec<Vec<S>>,
    ncols: usize,
    basis: Vec<usize>,
    /// Current value of each basic variable (parallel to `a`'s rows).
    x: Vec<S>,
    /// Nonbasic-at-upper status per column (structural bounded columns
    /// only; always false under [`BoundMode::LoweredRows`]).
    at_upper: Vec<bool>,
    /// Working upper bounds: the standard form's, plus artificials pinned
    /// to 0 once phase 1 ends (the anti-cycling-safe way to keep them at
    /// level zero through phase 2).
    upper: Vec<Option<S>>,
}

impl<S: Scalar> Tableau<S> {
    /// Eliminate column `col` around `row`: normalize the pivot row,
    /// clear the column from every other row and from `cost`, and record
    /// the basis change. Basic *values* are the caller's job.
    fn eliminate(&mut self, row: usize, col: usize, cost: &mut [S]) {
        let pivot_val = self.a[row][col].clone();
        debug_assert!(!pivot_val.is_zero());
        let prow = &mut self.a[row];
        for x in prow.iter_mut() {
            if !x.is_zero() {
                *x = x.div(&pivot_val);
            }
        }
        let prow = std::mem::take(&mut self.a[row]);
        for (i, arow) in self.a.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = arow[col].clone();
            if factor.is_zero() {
                continue;
            }
            for (x, p) in arow.iter_mut().zip(prow.iter()) {
                if !p.is_zero() {
                    *x = x.sub(&factor.mul(p));
                }
            }
            // Clamp the pivot column explicitly (kills f64 residue).
            arow[col] = S::zero();
        }
        let factor = cost[col].clone();
        if !factor.is_zero() {
            for (x, p) in cost.iter_mut().zip(prow.iter()) {
                if !p.is_zero() {
                    *x = x.sub(&factor.mul(p));
                }
            }
            cost[col] = S::zero();
        }
        self.a[row] = prow;
        self.basis[row] = col;
    }

    /// Bland's rule: smallest-index eligible column (sign-aware via
    /// [`improves`]). Also returns the number of columns scanned.
    fn entering_bland(&self, cost: &[S], active: &[bool]) -> (Option<usize>, usize) {
        let mut scanned = 0usize;
        for j in 0..self.ncols {
            if !active[j] {
                continue;
            }
            scanned += 1;
            if improves(self.at_upper[j], &cost[j]) {
                return (Some(j), scanned);
            }
        }
        (None, scanned)
    }

    /// Dantzig's rule: largest improvement rate `|z_j|` among eligible.
    fn entering_dantzig(&self, cost: &[S], active: &[bool]) -> (Option<usize>, usize) {
        let mut best: Option<(usize, S)> = None;
        let mut scanned = 0usize;
        for j in 0..self.ncols {
            if !active[j] {
                continue;
            }
            scanned += 1;
            if !improves(self.at_upper[j], &cost[j]) {
                continue;
            }
            let score = if self.at_upper[j] {
                cost[j].neg()
            } else {
                cost[j].clone()
            };
            match &best {
                None => best = Some((j, score)),
                Some((_, bs)) if score > *bs => best = Some((j, score)),
                _ => {}
            }
        }
        (best.map(|(j, _)| j), scanned)
    }

    /// Devex reference pricing: largest `z_j²/w_j` among eligible columns
    /// (see [`crate::pricing`]); ties break to the smaller index.
    fn entering_devex(&self, cost: &[S], active: &[bool], devex: &Devex) -> (Option<usize>, usize) {
        let mut best: Option<(usize, f64)> = None;
        let mut scanned = 0usize;
        for j in 0..self.ncols {
            if !active[j] {
                continue;
            }
            scanned += 1;
            if !improves(self.at_upper[j], &cost[j]) {
                continue;
            }
            let score = devex.score(j, cost[j].to_f64());
            match &best {
                None => best = Some((j, score)),
                Some((_, bs)) if score > *bs => best = Some((j, score)),
                _ => {}
            }
        }
        (best.map(|(j, _)| j), scanned)
    }
}

/// Price out the basic variables from a freshly built cost row.
fn price_out<S: Scalar>(t: &Tableau<S>, cost: &mut [S], costs_full: &[S]) {
    for (i, &b) in t.basis.iter().enumerate() {
        let cb = &costs_full[b];
        if cb.is_zero() {
            continue;
        }
        for (j, aij) in t.a[i].iter().enumerate() {
            if !aij.is_zero() {
                cost[j] = cost[j].sub(&cb.mul(aij));
            }
        }
    }
}

/// Run pivots until optimality/unboundedness/limit. Returns iterations used
/// (bound flips included). `rule` is the resolved entering rule; non-Bland
/// rules switch to Bland after a stall threshold to escape cycling. The
/// devex reference framework is per-phase (fresh weights per call), and its
/// pivot-row update is free here — the row is `t.a[row]` pre-elimination.
fn optimize<S: Scalar>(
    t: &mut Tableau<S>,
    cost: &mut [S],
    active: &[bool],
    rule: PivotRule,
    budget: &mut usize,
    stats: &mut PricingStats,
) -> Result<usize, SolveError> {
    let mut iters = 0usize;
    let greedy_cap = match rule {
        PivotRule::Bland => 0,
        _ => budget.saturating_div(2),
    };
    let mut devex = matches!(rule, PivotRule::Devex).then(|| Devex::new(t.ncols));
    loop {
        let tp = Instant::now();
        let (entering, scanned) = if matches!(rule, PivotRule::Bland) || iters >= greedy_cap {
            t.entering_bland(cost, active)
        } else if let Some(dv) = &devex {
            t.entering_devex(cost, active, dv)
        } else {
            t.entering_dantzig(cost, active)
        };
        stats.priced_columns += scanned;
        stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
        let Some(col) = entering else {
            return Ok(iters);
        };
        let sigma_pos = !t.at_upper[col];
        let d: Vec<S> = t.a.iter().map(|row| row[col].clone()).collect();
        let Some((leaving, step)) = choose_leaving(&d, &t.x, &t.basis, &t.upper, col, sigma_pos)
        else {
            return Err(SolveError::Unbounded);
        };
        match leaving {
            Leaving::Flip => {
                shift_basics(&mut t.x, &d, &step, sigma_pos, None);
                t.at_upper[col] = !t.at_upper[col];
            }
            Leaving::Row { row, to_upper } => {
                if let Some(dv) = devex.as_mut() {
                    // Weight update wants the pre-elimination pivot row.
                    let tp = Instant::now();
                    let leave = t.basis[row];
                    let alphas = t.a[row]
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != col && j != leave && active[j])
                        .map(|(j, a)| (j, a.to_f64()));
                    dv.pivot_update(col, leave, t.a[row][col].to_f64(), alphas);
                    stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
                }
                shift_basics(&mut t.x, &d, &step, sigma_pos, Some(row));
                t.at_upper[t.basis[row]] = to_upper;
                t.x[row] = entering_value(t.upper[col].as_ref(), &step, sigma_pos);
                t.at_upper[col] = false;
                t.eliminate(row, col, cost);
            }
        }
        iters += 1;
        if iters >= *budget {
            return Err(SolveError::IterationLimit);
        }
    }
}

/// The dense two-phase solve of a lowered system.
pub(crate) fn solve<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
) -> Result<KernelOutput<S>, SolveError> {
    let m = sf.m;
    let ncols = sf.ncols;
    let art_start = sf.art_start;

    // Scatter the CSC columns into dense rows; basic values start as
    // the rhs (every nonbasic variable starts at its lower bound 0).
    let mut t = Tableau {
        a: vec![vec![S::zero(); ncols]; m],
        ncols,
        basis: sf.basis0.clone(),
        x: sf.rhs.clone(),
        at_upper: vec![false; ncols],
        upper: sf.upper.clone(),
    };
    for j in 0..ncols {
        let (rows, vals) = sf.column(j);
        for (i, v) in rows.iter().zip(vals) {
            t.a[*i][j] = v.clone();
        }
    }

    let mut budget = opts.budget(m, ncols);
    let mut total_iters = 0usize;
    let mut phase1_iters = 0usize;
    let rule = opts.pricing.resolve::<S>();
    let mut stats = PricingStats::default();

    // Phase 1: drive artificials to zero (maximize -sum of artificials).
    if sf.num_artificials() > 0 {
        let mut costs_full = vec![S::zero(); ncols];
        for c in costs_full.iter_mut().skip(art_start) {
            *c = S::one().neg();
        }
        // `cost` starts as a copy of the pristine costs; price_out
        // mutates it against the basic rows while reading the original.
        let mut cost = costs_full.clone();
        price_out(&t, &mut cost, &costs_full);
        let active = vec![true; ncols];
        let it = optimize(&mut t, &mut cost, &active, rule, &mut budget, &mut stats)?;
        phase1_iters = it;
        total_iters += it;
        budget = budget.saturating_sub(it);
        if budget == 0 {
            return Err(SolveError::IterationLimit);
        }
        // Phase-1 objective value: sum of artificial basic values.
        let mut art_sum = S::zero();
        for (i, &b) in t.basis.iter().enumerate() {
            if b >= art_start {
                art_sum = art_sum.add(&t.x[i]);
            }
        }
        if !art_sum.is_zero() {
            return Err(SolveError::Infeasible);
        }
        // Snap lingering zero-level artificials to exact zero and pin
        // every artificial to u = 0: phase 2's ratio test then blocks
        // any step that would lift one, as an ordinary upper-bound
        // candidate with zero headroom. Then pivot zero-level basics
        // out where a real at-lower column is available (a degenerate
        // basis change: no value moves).
        for (i, &b) in t.basis.iter().enumerate() {
            if b >= art_start {
                t.x[i] = S::zero();
            }
        }
        for u in t.upper.iter_mut().skip(art_start) {
            *u = Some(S::zero());
        }
        let mut drop_rows: Vec<usize> = Vec::new();
        for i in 0..t.a.len() {
            if t.basis[i] < art_start {
                continue;
            }
            // An at-upper column cannot enter at value 0, so only
            // at-lower columns qualify for the degenerate swap.
            let col = (0..art_start).find(|&j| !t.a[i][j].is_zero() && !t.at_upper[j]);
            match col {
                Some(j) => {
                    let mut dummy_cost = vec![S::zero(); ncols];
                    t.eliminate(i, j, &mut dummy_cost);
                    t.x[i] = S::zero();
                }
                // Entire row zero over enterable columns: either the
                // constraint is redundant (all-zero row: drop it) or
                // the pinned artificial stays basic at level zero,
                // protected through phase 2 by its u = 0 bound.
                None => {
                    if (0..art_start).all(|j| t.a[i][j].is_zero()) {
                        drop_rows.push(i);
                    }
                }
            }
        }
        for &i in drop_rows.iter().rev() {
            t.a.remove(i);
            t.basis.remove(i);
            t.x.remove(i);
        }
    }

    // Phase 2: original objective over structural + slack columns only.
    let costs_full: Vec<S> = sf.cost2.clone();
    let mut cost = costs_full.clone();
    price_out(&t, &mut cost, &costs_full);
    // Nonbasic-at-upper columns contribute to the initial reduced
    // costs only through the basic rows, which price_out already
    // covers — reduced costs are independent of where nonbasics rest.
    let mut active = vec![true; ncols];
    for a in active.iter_mut().take(ncols).skip(art_start) {
        *a = false; // artificials may never re-enter
    }
    let it = optimize(&mut t, &mut cost, &active, rule, &mut budget, &mut stats)?;
    total_iters += it;

    // Extract the structural solution: at-upper nonbasics sit at their
    // bound, basic variables at their tableau value.
    let mut values = vec![S::zero(); sf.nstruct];
    for (j, v) in values.iter_mut().enumerate() {
        if t.at_upper[j] {
            *v = sf.upper[j].clone().expect("at_upper implies a bound");
        }
    }
    for (i, &b) in t.basis.iter().enumerate() {
        if b < sf.nstruct {
            values[b] = t.x[i].clone();
        }
    }

    // Each witness column's final reduced cost is `-y_i` for the
    // normalized maximize system.
    let reduced_witness = sf.witness.iter().map(|&w| cost[w].clone()).collect();
    // Active bounds get their multiplier from the column's own final
    // reduced cost (`μ_j = z_j ≥ 0` at optimality for at-upper columns).
    let bound_mults = (0..sf.nstruct)
        .map(|j| {
            if t.at_upper[j] {
                cost[j].clone()
            } else {
                S::zero()
            }
        })
        .collect();

    Ok(KernelOutput {
        values,
        reduced_witness,
        bound_mults,
        iterations: total_iters,
        phase1_iterations: phase1_iters,
        exact_continuation_pivots: 0,
        pivot_rule: rule,
        pricing: stats,
        factor: FactorStats::default(),
        basis: t.basis,
        at_upper: t.at_upper,
    })
}
