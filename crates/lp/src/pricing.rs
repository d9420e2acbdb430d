//! The shared **pricing subsystem**: how the simplex engines choose what
//! to price, and how much pricing work they report doing.
//!
//! Pivot counts stopped being the bottleneck once the warm ladder landed:
//! with bound flips free and the basis small, most of a pivot's wall-clock
//! is spent *pricing* — finding out which nonbasic columns matter. This
//! module owns the three answers:
//!
//! * **Devex reference pricing** (`Devex`, Forrest–Goldfarb style
//!   approximate steepest edge) for the primal engines: entering column is
//!   the largest `z_j² / w_j` over reference weights `w_j` that start at 1
//!   and are cheaply updated from each pivot row, so the rule prefers
//!   columns whose *edge direction* is actually steep rather than whose
//!   raw reduced cost is large. Weights drift upward as the reference
//!   framework ages; past `DEVEX_RESET` the framework is reset to the
//!   current basis (all weights back to 1). Weights are plain `f64` even
//!   under the exact scalar — they only rank candidates, every pivot still
//!   runs in exact arithmetic.
//! * **One row-wise pivot-row kernel** (`PivotRow`) for *both* sparse
//!   simplex directions: each pivot row `α = ρᵀA_N` is scattered over ρ's
//!   support through a row → columns index built once per engine, so its
//!   cost tracks the nonzeros of the rows the sparse-LU BTRAN actually
//!   touches — while remaining *exact* full pricing, since every column
//!   with `α_j ≠ 0` is found. The dual reads the row for its ratio test
//!   (only such columns can absorb the leaving row's violation); the
//!   primal reads it for the devex weights.
//! * **Maintained reduced costs**, driven by that row: both directions
//!   seed `z_j = c_j − y·a_j` with one full sweep, then carry it across
//!   each pivot as `z_j ← z_j − (z_q/α_q)·α_j` on the touched columns
//!   only, and reseed from a fresh BTRAN whenever the basis has been
//!   refactorized since. The primal declares optimality only on a fresh
//!   sweep (see `sparse.rs`); Bland's rule never uses the cache.
//!
//! The engine-facing choice is the [`Pricing`] enum on
//! [`SimplexOptions`](crate::SimplexOptions), resolved per scalar by
//! [`Pricing::resolve`]. Every kernel reports its pricing work — columns
//! priced and wall-clock spent pricing — as a [`PricingStats`] on the
//! [`KernelOutput`](crate::KernelOutput) and
//! [`Solution`](crate::Solution).

use crate::factor::Factorization;
use crate::scalar::Scalar;
use crate::solution::PivotRule;
use crate::standard::StandardForm;

/// Entering-variable pricing strategy for a solve.
///
/// `Auto` preserves the crate's historical guarantees: exact scalars keep
/// Bland's rule (anti-cycling, guaranteed termination on the degenerate
/// steady-state LPs), `f64` takes devex. The explicit variants pin a rule
/// for either scalar — every non-Bland rule keeps the Bland stall-fallback
/// past half the pivot budget, so termination is never at stake.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pricing {
    /// Devex for `f64`, Bland for exact scalars.
    #[default]
    Auto,
    /// Force Bland's rule (smallest improving index).
    Bland,
    /// Force Dantzig pricing (most improving reduced cost) — the pre-devex
    /// `f64` default, kept as the A/B reference.
    Dantzig,
    /// Force devex reference pricing.
    Devex,
}

impl Pricing {
    /// Resolve to the concrete entering rule for scalar `S`.
    pub fn resolve<S: Scalar>(self) -> PivotRule {
        match self {
            Pricing::Auto => {
                if S::EXACT {
                    PivotRule::Bland
                } else {
                    PivotRule::Devex
                }
            }
            Pricing::Bland => PivotRule::Bland,
            Pricing::Dantzig => PivotRule::Dantzig,
            Pricing::Devex => PivotRule::Devex,
        }
    }
}

/// How much pricing work a solve did: reduced-cost / pivot-row-entry
/// evaluations and the wall-clock spent selecting entering columns
/// (pivot-row BTRAN and scatter, reduced-cost and devex weight
/// maintenance, dual candidate assembly included).
#[derive(Clone, Copy, Debug, Default)]
pub struct PricingStats {
    /// Column evaluations, summed over all iterations and phases — one
    /// definition for both simplex directions: the columns whose reduced
    /// cost a **fresh sweep** computed from scratch (cache seeds and
    /// reseeds, the optimality proof, every Bland or composite-repair
    /// iteration), plus the columns a **pivot-row scatter** touched
    /// (`α_j` computed and `z_j` updated). Scanning the maintained
    /// reduced costs for the best candidate evaluates nothing and is not
    /// counted.
    pub priced_columns: usize,
    /// Wall-clock spent in entering-column selection, in milliseconds.
    pub pricing_ms: f64,
}

impl PricingStats {
    /// Accumulate another solve's counters (cold fallback after a failed
    /// warm attempt, multi-phase totals).
    pub fn absorb(&mut self, other: &PricingStats) {
        self.priced_columns += other.priced_columns;
        self.pricing_ms += other.pricing_ms;
    }
}

/// Reference-weight blow-up threshold: when any devex weight exceeds this,
/// the reference framework is stale enough that the steepest-edge
/// approximation has degraded to noise — reset it to the current basis.
pub(crate) const DEVEX_RESET: f64 = 1e7;

/// Devex reference weights (Forrest–Goldfarb approximate steepest edge).
///
/// `w_j` approximates `‖B⁻¹a_j‖²` measured against the *reference
/// framework* — the basis at the last reset. The entering score of a
/// column with reduced cost `z_j` is `z_j²/w_j`. After a pivot in which
/// `q` enters on row `r` (pivot element `α_q`) and `l` leaves, the cheap
/// one-row update is
///
/// ```text
/// w_j ← max(w_j, (α_j/α_q)² · w_q)   for each nonbasic j with α_j ≠ 0
/// w_l ← max(w_q/α_q², 1)
/// ```
///
/// which needs exactly the pivot row `α` — the row the revised kernel
/// already computes to carry its reduced costs across the pivot (see
/// [`PivotRow`]), and a tableau row for the dense kernel. Weights only *rank*
/// candidates, so they stay `f64` under every scalar backend; exactness is
/// untouched.
pub(crate) struct Devex {
    w: Vec<f64>,
    max_w: f64,
    #[cfg(test)]
    resets: usize,
}

impl Devex {
    pub(crate) fn new(ncols: usize) -> Devex {
        Devex {
            w: vec![1.0; ncols],
            max_w: 1.0,
            #[cfg(test)]
            resets: 0,
        }
    }

    /// Entering score of column `j` with reduced cost `z` (already
    /// converted): larger is better.
    #[inline]
    pub(crate) fn score(&self, j: usize, z: f64) -> f64 {
        z * z / self.w[j]
    }

    /// Framework resets performed so far.
    #[cfg(test)]
    pub(crate) fn resets(&self) -> usize {
        self.resets
    }

    /// Fold one pivot into the weights: `q` entered with pivot element
    /// `alpha_q`, `leave` left, and `alphas` yields `(j, α_j)` for the
    /// remaining nonbasic columns (zero entries may be skipped by the
    /// caller). Resets the framework if any weight blew past
    /// [`DEVEX_RESET`].
    pub(crate) fn pivot_update<I>(&mut self, q: usize, leave: usize, alpha_q: f64, alphas: I)
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        let aq2 = alpha_q * alpha_q;
        if aq2 <= 0.0 || !aq2.is_finite() {
            // Degenerate or non-finite pivot element: no usable update.
            return;
        }
        let wq = self.w[q].max(1.0);
        let scale = wq / aq2;
        for (j, a) in alphas {
            if a == 0.0 {
                continue;
            }
            let cand = a * a * scale;
            if cand > self.w[j] {
                self.w[j] = cand;
                if cand > self.max_w {
                    self.max_w = cand;
                }
            }
        }
        self.w[leave] = scale.max(1.0);
        if self.w[leave] > self.max_w {
            self.max_w = self.w[leave];
        }
        // The entering column joins the basis; its weight restarts when it
        // next leaves (set above for `leave`, here for hygiene).
        self.w[q] = 1.0;
        if self.max_w > DEVEX_RESET {
            self.reset();
        }
    }

    /// Reset the reference framework to the current basis: all weights
    /// back to 1.
    pub(crate) fn reset(&mut self) {
        for w in self.w.iter_mut() {
            *w = 1.0;
        }
        self.max_w = 1.0;
        #[cfg(test)]
        {
            self.resets += 1;
        }
    }
}

/// One **pivot row** `α = ρᵀA`, `ρ = B⁻ᵀe_r`, computed row-wise — the one
/// kernel behind both simplex directions' pricing.
///
/// Owns a row → columns (CSR) copy of the constraint matrix, ≈ 12 bytes
/// per nonzero, built once per engine and dropped with it, so that a pivot
/// row costs the nonzeros of the rows `ρ` actually touches instead of one
/// dot product per nonbasic column. `alpha[j]` is valid iff
/// `stamp[j] == generation`: clearing between pivots is one counter bump.
pub(crate) struct PivotRow<S> {
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<S>,
    rho: Vec<S>,
    alpha: Vec<S>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<usize>,
}

impl<S: Scalar> PivotRow<S> {
    /// Index every column of `sf` by row (flat arrays, not a `Vec` per
    /// row: the scatter below is the innermost loop of a solve).
    pub(crate) fn new(sf: &StandardForm<S>) -> PivotRow<S> {
        let mut row_ptr = vec![0usize; sf.m + 1];
        for &i in &sf.row_idx {
            row_ptr[i + 1] += 1;
        }
        for i in 0..sf.m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut fill = row_ptr.clone();
        let mut col = vec![0u32; sf.row_idx.len()];
        let mut val = vec![S::zero(); sf.row_idx.len()];
        for j in 0..sf.ncols {
            let (rows, vals) = sf.column(j);
            for (&i, a) in rows.iter().zip(vals) {
                col[fill[i]] = j as u32;
                val[fill[i]] = a.clone();
                fill[i] += 1;
            }
        }
        PivotRow {
            row_ptr,
            col,
            val,
            rho: vec![S::zero(); sf.m],
            alpha: vec![S::zero(); sf.ncols],
            stamp: vec![0; sf.ncols],
            generation: 0,
            touched: Vec::new(),
        }
    }

    /// Compute the pivot row of basis row `row`: one BTRAN of `e_row`,
    /// then `α_j = Σ_i ρ_i·a_ij` scattered over `ρ`'s support. Basic and
    /// inactive columns are left out — nothing reads their entries. The
    /// result is *exact* full pricing: every live column with `α_j ≠ 0`
    /// ends up in [`touched`](Self::touched).
    pub(crate) fn compute(
        &mut self,
        factors: &Factorization<S>,
        row: usize,
        active: &[bool],
        in_basis: &[bool],
    ) {
        self.rho.fill(S::zero());
        self.rho[row] = S::one();
        factors.btran(&mut self.rho);
        self.generation += 1;
        self.touched.clear();
        for (i, ri) in self.rho.iter().enumerate() {
            if ri.is_zero() {
                continue;
            }
            for t in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col[t] as usize;
                if in_basis[j] || !active[j] {
                    continue;
                }
                let v = ri.mul(&self.val[t]);
                if self.stamp[j] == self.generation {
                    self.alpha[j] = self.alpha[j].add(&v);
                } else {
                    self.stamp[j] = self.generation;
                    self.alpha[j] = v;
                    self.touched.push(j);
                }
            }
        }
    }

    /// The columns the last [`compute`](Self::compute) scattered into.
    pub(crate) fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// `α_j` of the last pivot row, for `j` in [`touched`](Self::touched).
    pub(crate) fn alpha(&self, j: usize) -> &S {
        debug_assert_eq!(self.stamp[j], self.generation);
        &self.alpha[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_num::Ratio;

    #[test]
    fn resolution_matrix() {
        // Auto keeps the historical guarantees per scalar.
        assert_eq!(Pricing::Auto.resolve::<Ratio>(), PivotRule::Bland);
        assert_eq!(Pricing::Auto.resolve::<f64>(), PivotRule::Devex);
        // Explicit rules pin either scalar.
        assert_eq!(Pricing::Devex.resolve::<Ratio>(), PivotRule::Devex);
        assert_eq!(Pricing::Dantzig.resolve::<f64>(), PivotRule::Dantzig);
        assert_eq!(Pricing::Bland.resolve::<f64>(), PivotRule::Bland);
    }

    #[test]
    fn devex_scores_prefer_light_reference_weights() {
        let mut d = Devex::new(3);
        // Equal |z|: equal scores while the framework is fresh.
        assert_eq!(d.score(0, 2.0), d.score(1, -2.0));
        // A pivot that inflates w_1 demotes column 1 at equal |z|.
        d.pivot_update(2, 0, 0.5, [(1, 3.0)]);
        assert!(d.score(1, 2.0) < d.score(0, 2.0));
    }

    #[test]
    fn devex_weight_blowup_resets_the_framework() {
        let mut d = Devex::new(4);
        // A tiny pivot element inflates the leaving weight past the
        // threshold: w_l = w_q/α_q² = 1e8 > DEVEX_RESET.
        d.pivot_update(1, 2, 1e-4, [(3, 1.0)]);
        assert_eq!(d.resets(), 1);
        assert!(d.w.iter().all(|&w| w == 1.0));
        // A benign pivot does not reset.
        d.pivot_update(2, 1, 1.0, [(3, 2.0)]);
        assert_eq!(d.resets(), 1);
        assert_eq!(d.w[3], 4.0);
        assert_eq!(d.w[1], 1.0);
    }

    #[test]
    fn devex_degenerate_pivot_is_a_no_op() {
        let mut d = Devex::new(2);
        d.pivot_update(0, 1, 0.0, [(1, 5.0)]);
        assert!(d.w.iter().all(|&w| w == 1.0));
        assert_eq!(d.resets(), 0);
    }
}
