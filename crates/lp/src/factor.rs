//! Basis factorizations for the sparse revised simplex: the
//! [`BasisFactorization`] trait and its two implementors.
//!
//! The revised simplex never forms `B⁻¹` explicitly — it only needs three
//! operations against the current basis matrix `B`:
//!
//! * **FTRAN** — solve `B d = a` (the transformed entering column),
//! * **BTRAN** — solve `Bᵀ y = c_B` (the dual prices),
//! * **update** — replace one column of `B` after a pivot.
//!
//! This module owns that contract. Two backends implement it:
//!
//! * [`EtaFile`] — the historical **product-form inverse**: one elementary
//!   (eta) matrix appended per pivot, `B⁻¹ = E_k ⋯ E_1`. Updates are O(nnz
//!   of the transformed column) but FTRAN/BTRAN cost grows with the number
//!   of etas *accumulated*, so per-iteration cost climbs with pivot count
//!   until the next refactorization. Kept as the agreement oracle.
//! * [`SparseLu`] — a real sparse **LU factorization** (Gilbert–Peierls
//!   left-looking elimination with threshold-Markowitz pivoting: candidate
//!   pivots within `pivot_tol` of the column's largest entry compete on
//!   static row count, trading fill-in against stability) plus
//!   **Forrest–Tomlin column-replacement updates**: a pivot replaces one
//!   column of `U` with its spike, cyclically permutes that column's step
//!   to the logical end, and eliminates the dismantled row with a recorded
//!   row transformation. FTRAN/BTRAN stay O(factor nnz) no matter how many
//!   updates have been absorbed — the property that lifts the platform-size
//!   ceiling (see `warm-scale` at p ≥ 256).
//!
//! Both backends refactorize under one [`RefactorPolicy`] (update-count
//! cap, fill-growth ratio, stability triggers) surfaced on
//! [`SimplexOptions`](crate::SimplexOptions) — replacing the old
//! hard-coded 64-pivot reinversion interval. The backend is the
//! [`Factor`] on the options; solves report their factorization work as
//! [`FactorStats`] next to [`PricingStats`](crate::PricingStats).

use crate::scalar::Scalar;
use crate::standard::StandardForm;
use std::cell::Cell;
use std::time::Instant;

/// A basis-factorization backend of the sparse kernel: what
/// [`SimplexOptions::factor`](crate::SimplexOptions) selects and what
/// [`FactorStats`] records a solve ran with.
///
/// Sparse LU is the default for both scalar backends: for `f64` the
/// O(factor nnz) FTRAN/BTRAN is strictly the better asymptotic, and for
/// exact `Ratio` the measured warm re-solve sweeps also favor LU — fewer
/// arithmetic operations per solve dominates the bookkeeping overhead
/// (the A/B lives in `factor-smoke` and the `warm-scale` bench).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Factor {
    /// Product-form inverse (eta file): O(pivots) FTRAN/BTRAN growth.
    /// Kept as the agreement oracle.
    EtaFile,
    /// Sparse LU with Markowitz ordering and Forrest–Tomlin updates:
    /// O(factor nnz) FTRAN/BTRAN regardless of update count.
    #[default]
    SparseLu,
}

impl std::fmt::Display for Factor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Factor::EtaFile => "eta",
            Factor::SparseLu => "lu",
        })
    }
}

/// When to rebuild the basis factorization from scratch, shared by both
/// backends — the tunable replacement for the old hard-coded 64-pivot
/// reinversion interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefactorPolicy {
    /// Refactorize after this many updates absorbed since the last
    /// rebuild (the old `REINVERT_INTERVAL` semantics).
    pub max_updates: usize,
    /// Refactorize when the factorization's stored nonzeros exceed this
    /// multiple of the post-refactorization baseline (floored at `m`):
    /// the fill-growth trigger that catches dense-ish update chains
    /// before `max_updates` does.
    pub max_fill_growth: f64,
    /// Threshold-Markowitz knob (`f64` only): a pivot candidate must be
    /// at least this fraction of the column's largest eligible entry to
    /// compete on fill-in. 1.0 degenerates to partial pivoting (most
    /// stable, most fill), small values chase sparsity.
    pub pivot_tol: f64,
    /// Stability floor (`f64` only): a Forrest–Tomlin replacement
    /// diagonal smaller than this fraction of the spike's magnitude
    /// rejects the update and forces a refactorization instead; also the
    /// relative tolerance of the FTRAN residual trigger.
    pub stability_tol: f64,
    /// Check the FTRAN residual `‖B d − a_q‖∞` every this many pivots
    /// (`f64` only; 0 disables) and refactorize when it exceeds
    /// `stability_tol` relative to the column — the drift tripwire for
    /// update chains that went numerically bad early.
    pub residual_interval: usize,
}

impl Default for RefactorPolicy {
    fn default() -> Self {
        RefactorPolicy {
            max_updates: 64,
            max_fill_growth: 32.0,
            pivot_tol: 0.01,
            stability_tol: 1e-6,
            residual_interval: 16,
        }
    }
}

/// How much factorization work a solve did, reported next to
/// [`PricingStats`](crate::PricingStats) on the
/// [`Solution`](crate::Solution).
#[derive(Clone, Copy, Debug, Default)]
pub struct FactorStats {
    /// Which backend ran (see [`Factor`]).
    pub backend: Factor,
    /// Wall-clock spent in full refactorizations, in milliseconds.
    pub factor_ms: f64,
    /// Wall-clock spent absorbing pivot updates, in milliseconds.
    pub update_ms: f64,
    /// Wall-clock spent in FTRAN/BTRAN solves, in milliseconds (pricing
    /// BTRANs included — they are also billed to `pricing_ms`).
    pub ftran_btran_ms: f64,
    /// Full factorizations performed, the initial (identity) one
    /// included — always ≥ 1 on the sparse kernel.
    pub refactorizations: usize,
    /// Pivot updates absorbed (eta pushes / Forrest–Tomlin replacements).
    pub updates: usize,
    /// Stored nonzeros right after the most recent refactorization.
    pub factor_nnz: usize,
    /// `factor_nnz / nnz(B)` at the most recent refactorization — the
    /// fill-in ratio of the factorization against the basis itself.
    pub fill_ratio: f64,
}

impl FactorStats {
    /// Accumulate another solve's counters (cold fallback after a failed
    /// warm attempt, multi-phase totals): times and counts add, size
    /// ratios keep the maximum seen.
    pub fn absorb(&mut self, other: &FactorStats) {
        self.factor_ms += other.factor_ms;
        self.update_ms += other.update_ms;
        self.ftran_btran_ms += other.ftran_btran_ms;
        self.refactorizations += other.refactorizations;
        self.updates += other.updates;
        self.factor_nnz = self.factor_nnz.max(other.factor_nnz);
        self.fill_ratio = self.fill_ratio.max(other.fill_ratio);
    }
}

/// What a [`BasisFactorization::refactorize`] call produced: the row →
/// column assignment of the factorized basis, plus whether any hinted
/// column had to be dropped as dependent (and its row completed from the
/// slack/artificial `basis0` unit column).
#[derive(Clone, Debug)]
pub struct Refactorized {
    /// `basis[i]` = column claiming row `i` of the factorized basis.
    pub basis: Vec<usize>,
    /// `true` when a requested column was dropped (dependent / pivot too
    /// small) and replaced by a `basis0` completion column.
    pub dropped: bool,
}

/// Pivot-acceptance regime of a refactorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefactorMode {
    /// Warm-start regime: drop a column whose best pivot is numerically
    /// negligible (it is dependent on the columns before it — accepting
    /// it would poison every later solve), and fail the whole
    /// refactorization (`None`) when even a completion column cannot
    /// pivot — the caller falls back to a cold solve.
    Strict,
    /// Mid-solve reinversion regime: the basis is nonsingular by
    /// invariant, so accept the best pivot even when it is tiny; a column
    /// is dropped only when it has no numerically nonzero entry left at
    /// all (`f64` pathology), and its row is completed from `basis0`.
    Force,
}

/// The operations a sparse revised-simplex engine needs from its basis
/// representation. Implementors factorize a column set of a
/// [`StandardForm`], solve `B d = a` / `Bᵀ y = c` against it, and absorb
/// column replacements.
///
/// Contract: after `refactorize(sf, cols, ..)` returns
/// `Some(Refactorized { basis, .. })`, `ftran`/`btran` solve against the
/// basis matrix whose column on row `i` is `basis[i]`; after
/// `update(row, d, ..)` returns `true`, they solve against that matrix
/// with row `row`'s column replaced by the column whose FTRAN image was
/// `d`. An `update` returning `false` rejected the replacement on
/// stability grounds and **may leave the factorization dismantled**: the
/// caller must refactorize before the next solve.
pub trait BasisFactorization<S: Scalar> {
    /// Which backend this is (see [`Factor`]).
    fn tag(&self) -> Factor;
    /// Solve `B d = v` in place (forward transformation).
    fn ftran(&self, v: &mut [S]);
    /// Solve `Bᵀ y = v` in place (backward transformation).
    fn btran(&self, v: &mut [S]);
    /// Absorb a pivot: the basis column on `row` is replaced by the
    /// column whose transformed (FTRAN) image is `d`. Returns `false`
    /// when the update was rejected as numerically unstable — the caller
    /// must refactorize immediately (see the trait-level contract).
    fn update(&mut self, row: usize, d: &[S], policy: &RefactorPolicy) -> bool;
    /// Factorize the column set `cols` from scratch, dropping dependent
    /// columns and completing unclaimed rows with their `basis0` unit
    /// columns (pivot acceptance per [`RefactorMode`]). `None` only in
    /// [`RefactorMode::Strict`] when a completion column cannot pivot.
    fn refactorize(
        &mut self,
        sf: &StandardForm<S>,
        cols: &[usize],
        mode: RefactorMode,
        policy: &RefactorPolicy,
    ) -> Option<Refactorized>;
    /// Updates absorbed since the last refactorization — resets to zero
    /// at each refactorization point; the engines hold it against the
    /// policy's update cap and residual-check interval.
    fn fresh(&self) -> usize;
    /// Stored nonzeros right now (grows with updates; the fill-growth
    /// refactorization trigger compares it against [`Self::base_nnz`]).
    fn nnz(&self) -> usize;
    /// Stored nonzeros right after the last refactorization.
    fn base_nnz(&self) -> usize;
}

/// Scatter column `j` of `sf` into a dense workvec of length `m`.
fn dense_column<S: Scalar>(sf: &StandardForm<S>, j: usize) -> Vec<S> {
    let mut v = vec![S::zero(); sf.m];
    let (rows, vals) = sf.column(j);
    for (i, a) in rows.iter().zip(vals) {
        v[*i] = a.clone();
    }
    v
}

/// `|a| > |b|` without requiring `abs` on the scalar.
pub(crate) fn abs_gt<S: Scalar>(a: &S, b: &S) -> bool {
    let abs = |x: &S| if x.is_negative() { x.neg() } else { x.clone() };
    abs(a) > abs(b)
}

/// Pivot row for a transformed column: largest untaken `|v_i|` for inexact
/// scalars (keeps the factorization stable), first nonzero for exact ones.
/// `None` when the column has no nonzero in any untaken row (dependent).
fn pick_pivot<S: Scalar>(v: &[S], row_taken: &[bool]) -> Option<usize> {
    let mut pick: Option<usize> = None;
    for (i, x) in v.iter().enumerate() {
        if row_taken[i] || x.is_zero() {
            continue;
        }
        match pick {
            None => pick = Some(i),
            Some(p) if !S::EXACT && abs_gt(x, &v[p]) => pick = Some(i),
            _ => {}
        }
        if S::EXACT {
            break;
        }
    }
    pick
}

/// Last-resort pivot for [`RefactorMode::Force`]: the largest untaken
/// entry even when it fails the epsilon-zero test, excluding only exact
/// floating-point zeros (dividing by those would poison the factors with
/// infinities rather than mere noise).
fn pick_pivot_force<S: Scalar>(v: &[S], row_taken: &[bool]) -> Option<usize> {
    let mut pick: Option<usize> = None;
    for (i, x) in v.iter().enumerate() {
        if row_taken[i] || x.to_f64() == 0.0 {
            continue;
        }
        match pick {
            None => pick = Some(i),
            Some(p) if abs_gt(x, &v[p]) => pick = Some(i),
            _ => {}
        }
    }
    pick
}

// ---------------------------------------------------------------------------
// Eta file (product-form inverse)
// ---------------------------------------------------------------------------

/// One elementary (eta) matrix: the identity with column `row` replaced by
/// the pivot column `d` — `E[row][row] = d_row`, `E[i][row] = d_i`.
/// Stored inverted-application-ready: applying `E⁻¹` to a vector is one
/// division and `terms.len()` multiply-subtracts.
#[derive(Clone)]
struct Eta<S> {
    row: usize,
    pivot: S,
    /// `(i, d_i)` for `i != row`, `d_i` nonzero.
    terms: Vec<(usize, S)>,
}

/// The product-form inverse: `B⁻¹ = E_k ⋯ E_1`, one eta per pivot since
/// the last refactorization. The historical backend, kept as the
/// agreement oracle for [`SparseLu`] (same role the dense tableau plays
/// for the sparse kernel).
#[derive(Clone)]
pub struct EtaFile<S> {
    etas: Vec<Eta<S>>,
    fresh: usize,
    nnz: usize,
    base_nnz: usize,
}

impl<S: Scalar> EtaFile<S> {
    /// The identity factorization (`B = I`; `m` rows).
    pub fn identity(m: usize) -> EtaFile<S> {
        EtaFile {
            etas: Vec::new(),
            fresh: 0,
            nnz: m,
            base_nnz: m,
        }
    }

    /// Append the eta of a pivot on `row` with transformed column `d`.
    fn push(&mut self, row: usize, d: &[S]) {
        let terms: Vec<(usize, S)> = d
            .iter()
            .enumerate()
            .filter(|(i, x)| *i != row && !x.is_zero())
            .map(|(i, x)| (i, x.clone()))
            .collect();
        self.nnz += terms.len() + 1;
        self.etas.push(Eta {
            row,
            pivot: d[row].clone(),
            terms,
        });
        self.fresh += 1;
    }
}

impl<S: Scalar> BasisFactorization<S> for EtaFile<S> {
    fn tag(&self) -> Factor {
        Factor::EtaFile
    }

    fn ftran(&self, v: &mut [S]) {
        for e in &self.etas {
            let t = &v[e.row];
            if t.is_zero() {
                continue;
            }
            let t = t.div(&e.pivot);
            for (i, d) in &e.terms {
                v[*i] = v[*i].sub(&d.mul(&t));
            }
            v[e.row] = t;
        }
    }

    fn btran(&self, v: &mut [S]) {
        for e in self.etas.iter().rev() {
            let mut t = v[e.row].clone();
            for (i, d) in &e.terms {
                if !v[*i].is_zero() {
                    t = t.sub(&d.mul(&v[*i]));
                }
            }
            v[e.row] = t.div(&e.pivot);
        }
    }

    fn update(&mut self, row: usize, d: &[S], _policy: &RefactorPolicy) -> bool {
        self.push(row, d);
        true
    }

    fn refactorize(
        &mut self,
        sf: &StandardForm<S>,
        cols: &[usize],
        mode: RefactorMode,
        _policy: &RefactorPolicy,
    ) -> Option<Refactorized> {
        let m = sf.m;
        self.etas.clear();
        self.fresh = 0;
        self.nnz = m;
        let mut basis = vec![usize::MAX; m];
        let mut row_taken = vec![false; m];
        let mut dropped = false;

        // Pass 1: unit columns of A claim their own row eta-free.
        let mut deferred: Vec<usize> = Vec::new();
        for &j in cols {
            let (rows, vals) = sf.column(j);
            if rows.len() == 1 && !row_taken[rows[0]] && vals[0] == S::one() {
                basis[rows[0]] = j;
                row_taken[rows[0]] = true;
            } else {
                deferred.push(j);
            }
        }
        // Pass 2: eliminate the general columns; pivot acceptance per
        // mode — Strict drops a column whose best pivot is negligible
        // (dependent on the ones before it), Force accepts even tiny
        // pivots (the basis is nonsingular by invariant) and drops only
        // on exact floating-point zero.
        for j in deferred {
            let mut v = dense_column(sf, j);
            self.ftran(&mut v);
            let pick = match mode {
                RefactorMode::Strict => {
                    pick_pivot(&v, &row_taken).filter(|&r| !v[r].is_negligible_pivot())
                }
                RefactorMode::Force => {
                    pick_pivot(&v, &row_taken).or_else(|| pick_pivot_force(&v, &row_taken))
                }
            };
            match pick {
                Some(r) => {
                    self.push(r, &v);
                    basis[r] = j;
                    row_taken[r] = true;
                }
                None => dropped = true,
            }
        }
        // Pass 3: complete unclaimed rows with their slack/artificial
        // unit columns (always independent of the accepted set as a
        // whole, though each one still needs a pivot under the running
        // etas). Completion accepts any nonzero pivot in both modes; a
        // completion that cannot pivot at all fails the refactorization
        // under Strict (cold fallback) — under Force the basis invariant
        // makes that unreachable, but the same `None` propagates.
        for r in 0..m {
            if row_taken[r] {
                continue;
            }
            let j = sf.basis0[r];
            let mut v = dense_column(sf, j);
            self.ftran(&mut v);
            let pr = match mode {
                RefactorMode::Strict => pick_pivot(&v, &row_taken)?,
                RefactorMode::Force => {
                    pick_pivot(&v, &row_taken).or_else(|| pick_pivot_force(&v, &row_taken))?
                }
            };
            self.push(pr, &v);
            basis[pr] = j;
            row_taken[pr] = true;
        }
        self.fresh = 0;
        self.base_nnz = self.nnz;
        Some(Refactorized { basis, dropped })
    }

    fn fresh(&self) -> usize {
        self.fresh
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn base_nnz(&self) -> usize {
        self.base_nnz
    }
}

// ---------------------------------------------------------------------------
// Sparse LU (Gilbert–Peierls + threshold Markowitz + Forrest–Tomlin)
// ---------------------------------------------------------------------------

/// Sparse LU factorization of the basis, maintained across pivots by
/// Forrest–Tomlin column replacements.
///
/// Factorization (`refactorize`): Gilbert–Peierls left-looking
/// elimination — columns in ascending-nonzero order, each solved against
/// the L computed so far, pivot chosen by **threshold Markowitz**:
/// candidates within [`RefactorPolicy::pivot_tol`] of the column's
/// largest eligible entry compete on static row count (an O(1) fill-in
/// surrogate), ties to the larger magnitude. Exact scalars skip the
/// threshold (any nonzero pivot is exact) but keep the Markowitz count —
/// sparsity also caps rational-arithmetic work.
///
/// Representation: steps `k = 0..m` in pivot order with pivot row `p[k]`;
/// `L` as per-step multiplier columns over *rows*, `U` as per-step
/// columns over *steps* plus a separate diagonal, with a row-wise index
/// (`urows`) for the update path. Updates permute steps **logically**
/// (`order`/`pos`) — Forrest–Tomlin moves the replaced step to the
/// logical end, removes its row from `U` and records the elimination as
/// a **row eta** applied between L and U during FTRAN:
///
/// ```text
/// B⁻¹ = Pᵀ U⁻¹ R_j ⋯ R_1 L⁻¹      (P = row permutation, R = row etas)
/// ```
///
/// An update whose replacement diagonal is too small relative to its
/// spike is **rejected** (`update` returns `false`) and the engine
/// refactorizes instead — the stability half of the policy.
#[derive(Clone)]
pub struct SparseLu<S> {
    m: usize,
    /// `p[k]` = pivot row of step `k`.
    p: Vec<usize>,
    /// Inverse of `p`: `step_of_row[p[k]] = k`.
    step_of_row: Vec<usize>,
    /// L multipliers of step `k`: `(row i, l_ik)` — FTRAN applies
    /// `v[i] -= l_ik · v[p[k]]` in step order.
    lcols: Vec<Vec<(usize, S)>>,
    /// Off-diagonal U entries of step `k`'s column: `(step t, u_tk)` with
    /// `pos[t] < pos[k]` (logically upper triangular — the Forrest–Tomlin
    /// invariant).
    ucols: Vec<Vec<(usize, S)>>,
    /// U diagonal per step.
    udiag: Vec<S>,
    /// Row-wise U index: `urows[t]` = steps whose column holds an entry
    /// in row (step) `t` — the update path's elimination frontier.
    urows: Vec<Vec<usize>>,
    /// Steps in logical (triangular) order.
    order: Vec<usize>,
    /// `pos[k]` = logical position of step `k` in `order`.
    pos: Vec<usize>,
    /// Forrest–Tomlin row etas `(target step s, [(step k, μ_k)])`,
    /// applied in append order between L and U during FTRAN.
    retas: Vec<(usize, Vec<(usize, S)>)>,
    fresh: usize,
    lnnz: usize,
    unnz: usize,
    rnnz: usize,
    base_nnz: usize,
}

/// Pivot-acceptance regime of one Gilbert–Peierls column step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PickMode {
    /// Drop the column when its best pivot is negligible.
    Strict,
    /// Accept any nonzero pivot (basis0 completion columns).
    Complete,
    /// Accept even epsilon-tiny pivots; only exact 0.0 disqualifies.
    Force,
}

impl<S: Scalar> SparseLu<S> {
    /// The identity factorization (`B = I`; `m` rows): step `k` pivots
    /// row `k` with a unit diagonal.
    pub fn identity(m: usize) -> SparseLu<S> {
        SparseLu {
            m,
            p: (0..m).collect(),
            step_of_row: (0..m).collect(),
            lcols: vec![Vec::new(); m],
            ucols: vec![Vec::new(); m],
            udiag: vec![S::one(); m],
            urows: vec![Vec::new(); m],
            order: (0..m).collect(),
            pos: (0..m).collect(),
            retas: Vec::new(),
            fresh: 0,
            lnnz: 0,
            unnz: 0,
            rnnz: 0,
            base_nnz: m,
        }
    }

    /// A trivial unit step claiming row `r` (pass-1 slack/artificial
    /// columns: no L, no U, unit diagonal).
    fn push_trivial(&mut self, r: usize) {
        let k = self.p.len();
        self.p.push(r);
        self.step_of_row[r] = k;
        self.udiag.push(S::one());
    }

    /// One Gilbert–Peierls step: scatter column `j`, apply the L computed
    /// so far, pick a pivot among untaken rows per `pick`, and install
    /// the step. Returns the claimed row, `None` when no acceptable pivot
    /// exists (the column is dependent under this regime).
    fn gp_step(
        &mut self,
        sf: &StandardForm<S>,
        j: usize,
        pick: PickMode,
        policy: &RefactorPolicy,
        row_taken: &[bool],
        rcount: &[usize],
    ) -> Option<usize> {
        let m = sf.m;
        let mut v = dense_column(sf, j);
        for k in 0..self.p.len() {
            if v[self.p[k]].is_zero() {
                continue;
            }
            let z = v[self.p[k]].clone();
            for (i, l) in &self.lcols[k] {
                v[*i] = v[*i].sub(&l.mul(&z));
            }
        }
        // Largest eligible entry first (the threshold anchor)...
        let eligible = |i: usize| -> bool {
            if row_taken[i] {
                return false;
            }
            match pick {
                PickMode::Strict | PickMode::Complete => !v[i].is_zero(),
                PickMode::Force => v[i].to_f64() != 0.0,
            }
        };
        let mut vm: Option<usize> = None;
        for i in 0..m {
            if eligible(i) && (vm.is_none() || abs_gt(&v[i], &v[vm.unwrap()])) {
                vm = Some(i);
            }
        }
        let vm = vm?;
        if pick == PickMode::Strict && v[vm].is_negligible_pivot() {
            return None;
        }
        // ...then Markowitz: smallest static row count among candidates
        // within `pivot_tol` of it, ties to the larger magnitude. Exact
        // scalars take every nonzero candidate (no stability regime).
        let threshold = if S::EXACT {
            0.0
        } else {
            policy.pivot_tol * v[vm].to_f64().abs()
        };
        let mut best = vm;
        for i in 0..m {
            if !eligible(i) || (!S::EXACT && v[i].to_f64().abs() < threshold) {
                continue;
            }
            if rcount[i] < rcount[best] || (rcount[i] == rcount[best] && abs_gt(&v[i], &v[best])) {
                best = i;
            }
        }
        let r = best;
        let piv = v[r].clone();
        let k = self.p.len();
        let mut ucol: Vec<(usize, S)> = Vec::new();
        let mut lcol: Vec<(usize, S)> = Vec::new();
        for (i, x) in v.iter().enumerate() {
            if i == r || x.is_zero() {
                continue;
            }
            if row_taken[i] {
                let t = self.step_of_row[i];
                ucol.push((t, x.clone()));
                self.urows[t].push(k);
            } else {
                lcol.push((i, x.div(&piv)));
            }
        }
        self.lnnz += lcol.len();
        self.unnz += ucol.len();
        self.p.push(r);
        self.step_of_row[r] = k;
        self.udiag.push(piv);
        self.lcols[k] = lcol;
        self.ucols[k] = ucol;
        Some(r)
    }
}

impl<S: Scalar> BasisFactorization<S> for SparseLu<S> {
    fn tag(&self) -> Factor {
        Factor::SparseLu
    }

    /// FTRAN: `L`-solve in row space, gather to step space, row etas in
    /// append order, `U` back-substitution in reverse logical order,
    /// scatter back to rows.
    fn ftran(&self, v: &mut [S]) {
        let m = self.m;
        for k in 0..m {
            if v[self.p[k]].is_zero() {
                continue;
            }
            let z = v[self.p[k]].clone();
            for (i, l) in &self.lcols[k] {
                v[*i] = v[*i].sub(&l.mul(&z));
            }
        }
        let mut y: Vec<S> = (0..m)
            .map(|k| std::mem::replace(&mut v[self.p[k]], S::zero()))
            .collect();
        for (s, terms) in &self.retas {
            let mut acc = y[*s].clone();
            for (k, mu) in terms {
                if !y[*k].is_zero() {
                    acc = acc.sub(&mu.mul(&y[*k]));
                }
            }
            y[*s] = acc;
        }
        for li in (0..m).rev() {
            let k = self.order[li];
            if y[k].is_zero() {
                continue;
            }
            let z = y[k].div(&self.udiag[k]);
            for (t, u) in &self.ucols[k] {
                y[*t] = y[*t].sub(&u.mul(&z));
            }
            y[k] = z;
        }
        for (k, yk) in y.into_iter().enumerate() {
            v[self.p[k]] = yk;
        }
    }

    /// BTRAN: the transpose of [`SparseLu::ftran`] — gather, `Uᵀ`
    /// forward-solve in logical order, row etas transposed in reverse
    /// order, scatter, `Lᵀ`-solve in reverse step order.
    fn btran(&self, v: &mut [S]) {
        let m = self.m;
        let mut y: Vec<S> = (0..m)
            .map(|k| std::mem::replace(&mut v[self.p[k]], S::zero()))
            .collect();
        for li in 0..m {
            let k = self.order[li];
            let mut acc = y[k].clone();
            for (t, u) in &self.ucols[k] {
                if !y[*t].is_zero() {
                    acc = acc.sub(&u.mul(&y[*t]));
                }
            }
            y[k] = acc.div(&self.udiag[k]);
        }
        for (s, terms) in self.retas.iter().rev() {
            if y[*s].is_zero() {
                continue;
            }
            for (k, mu) in terms {
                y[*k] = y[*k].sub(&mu.mul(&y[*s]));
            }
        }
        for (k, yk) in y.into_iter().enumerate() {
            v[self.p[k]] = yk;
        }
        for k in (0..m).rev() {
            let mut acc = v[self.p[k]].clone();
            for (i, l) in &self.lcols[k] {
                if !v[*i].is_zero() {
                    acc = acc.sub(&l.mul(&v[*i]));
                }
            }
            v[self.p[k]] = acc;
        }
    }

    /// Forrest–Tomlin column replacement: spike `w = U · (P d)`, detach
    /// the replaced step's column and row from `U`, move the step to the
    /// logical end, eliminate the detached row against the remaining
    /// logical order (recorded as a row eta), and install the spike with
    /// the surviving diagonal. Rejects (returns `false`, factorization
    /// dismantled — refactorize!) when that diagonal is negligible
    /// against the spike.
    fn update(&mut self, row: usize, d: &[S], policy: &RefactorPolicy) -> bool {
        let m = self.m;
        let s = self.step_of_row[row];
        // Spike: the replacement column of U is `w = U z`, `z_k = d[p_k]`
        // (the entering column's FTRAN image gathered to step space).
        let mut w = vec![S::zero(); m];
        for k in 0..m {
            let z = &d[self.p[k]];
            if z.is_zero() {
                continue;
            }
            w[k] = w[k].add(&self.udiag[k].mul(z));
            for (t, u) in &self.ucols[k] {
                w[*t] = w[*t].add(&u.mul(z));
            }
        }
        // Detach column s of U (its entries live in rows above s)...
        let old_col = std::mem::take(&mut self.ucols[s]);
        self.unnz -= old_col.len();
        for (t, _) in &old_col {
            if let Some(ix) = self.urows[*t].iter().position(|&c| c == s) {
                self.urows[*t].swap_remove(ix);
            }
        }
        // ...and row s (entries of other columns in row s), accumulating
        // the detached values as the elimination's dense row workspace.
        let row_cols = std::mem::take(&mut self.urows[s]);
        let mut racc = vec![S::zero(); m];
        for &k in &row_cols {
            if let Some(ix) = self.ucols[k].iter().position(|(t, _)| *t == s) {
                let (_, u) = self.ucols[k].swap_remove(ix);
                self.unnz -= 1;
                racc[k] = u;
            }
        }
        // Cyclic permutation: step s moves to the logical end; everything
        // after it shifts up one. Existing ucols keep the triangular
        // invariant (relative order among the others is preserved).
        let ps = self.pos[s];
        self.order.remove(ps);
        self.order.push(s);
        for li in ps..m {
            self.pos[self.order[li]] = li;
        }
        // Eliminate row s left to right in logical order: each nonzero
        // spawns a row operation `row_s -= μ_k · row_k`, whose fill lands
        // strictly later in the order (row k of U lives in columns with
        // pos > pos[k]). The operations become one recorded row eta; the
        // spike column is transformed on the fly into the new diagonal.
        let mut terms: Vec<(usize, S)> = Vec::new();
        let mut delta = w[s].clone();
        for li in 0..m - 1 {
            let k = self.order[li];
            if racc[k].is_zero() {
                continue;
            }
            let mu = racc[k].div(&self.udiag[k]);
            racc[k] = S::zero();
            for &jcol in &self.urows[k] {
                if let Some((_, u)) = self.ucols[jcol].iter().find(|(t, _)| *t == k) {
                    racc[jcol] = racc[jcol].sub(&mu.mul(u));
                }
            }
            if !w[k].is_zero() {
                delta = delta.sub(&mu.mul(&w[k]));
            }
            terms.push((k, mu));
        }
        // Stability gate: a diagonal negligible against the spike means
        // the replacement column is (numerically) dependent on the rest —
        // absorbing it would poison every later solve. Exact scalars only
        // reject a genuinely singular replacement.
        let stable = if S::EXACT {
            !delta.is_zero()
        } else {
            let wmax = w.iter().fold(1.0f64, |mx, x| mx.max(x.to_f64().abs()));
            !delta.is_negligible_pivot() && delta.to_f64().abs() > policy.stability_tol * wmax
        };
        if !stable {
            return false;
        }
        let mut col: Vec<(usize, S)> = Vec::new();
        for (k, wv) in w.into_iter().enumerate() {
            if k == s || wv.is_zero() {
                continue;
            }
            self.urows[k].push(s);
            col.push((k, wv));
        }
        self.unnz += col.len();
        self.ucols[s] = col;
        self.udiag[s] = delta;
        if !terms.is_empty() {
            self.rnnz += terms.len();
            self.retas.push((s, terms));
        }
        self.fresh += 1;
        true
    }

    fn refactorize(
        &mut self,
        sf: &StandardForm<S>,
        cols: &[usize],
        mode: RefactorMode,
        policy: &RefactorPolicy,
    ) -> Option<Refactorized> {
        let m = sf.m;
        self.m = m;
        self.p = Vec::with_capacity(m);
        self.step_of_row = vec![usize::MAX; m];
        self.lcols = vec![Vec::new(); m];
        self.ucols = vec![Vec::new(); m];
        self.udiag = Vec::with_capacity(m);
        self.urows = vec![Vec::new(); m];
        self.retas = Vec::new();
        self.fresh = 0;
        self.lnnz = 0;
        self.unnz = 0;
        self.rnnz = 0;

        let mut basis = vec![usize::MAX; m];
        let mut row_taken = vec![false; m];
        let mut dropped = false;

        // Pass 1: unit columns claim their row as trivial unit steps.
        let mut deferred: Vec<usize> = Vec::new();
        for &j in cols {
            let (rows, vals) = sf.column(j);
            if rows.len() == 1 && !row_taken[rows[0]] && vals[0] == S::one() {
                let r = rows[0];
                self.push_trivial(r);
                basis[r] = j;
                row_taken[r] = true;
            } else {
                deferred.push(j);
            }
        }
        // Static Markowitz row counts over the columns still to place,
        // and ascending-nonzero column order (both Gilbert–Peierls
        // staples: sparse columns first keeps early L thin, and pivoting
        // into light rows bounds the fill each step can cause).
        let mut rcount = vec![0usize; m];
        for &j in &deferred {
            for &r in sf.column(j).0 {
                rcount[r] += 1;
            }
        }
        deferred.sort_by_key(|&j| sf.column(j).0.len());
        // Pass 2: general columns under the mode's pivot regime.
        let pass2 = match mode {
            RefactorMode::Strict => PickMode::Strict,
            RefactorMode::Force => PickMode::Force,
        };
        for &j in &deferred {
            match self.gp_step(sf, j, pass2, policy, &row_taken, &rcount) {
                Some(r) => {
                    basis[r] = j;
                    row_taken[r] = true;
                }
                None => dropped = true,
            }
        }
        // Pass 3: complete unclaimed rows from basis0 (any nonzero pivot
        // qualifies; `None` under Strict falls the caller back to cold).
        for r in 0..m {
            if row_taken[r] {
                continue;
            }
            let j = sf.basis0[r];
            let complete = match mode {
                RefactorMode::Strict => PickMode::Complete,
                RefactorMode::Force => PickMode::Force,
            };
            let pr = self.gp_step(sf, j, complete, policy, &row_taken, &rcount)?;
            basis[pr] = j;
            row_taken[pr] = true;
        }
        self.order = (0..m).collect();
        self.pos = (0..m).collect();
        self.base_nnz = self.nnz();
        Some(Refactorized { basis, dropped })
    }

    fn fresh(&self) -> usize {
        self.fresh
    }

    fn nnz(&self) -> usize {
        self.lnnz + self.unnz + self.rnnz + self.m
    }

    fn base_nnz(&self) -> usize {
        self.base_nnz
    }
}

// ---------------------------------------------------------------------------
// Engine-facing wrapper: static dispatch + self-timing
// ---------------------------------------------------------------------------

#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
enum FactorBackend<S> {
    Eta(EtaFile<S>),
    Lu(SparseLu<S>),
}

/// Timing/counter cell shared by the wrapper's `&self` and `&mut self`
/// paths. FTRAN/BTRAN take `&self` (they are solves, not mutations), so
/// their accumulated nanoseconds live in a `Cell` — fine within the one
/// solve thread a factorization ever belongs to.
#[derive(Clone, Default)]
struct StatsCell {
    factor_ms: f64,
    update_ms: f64,
    solve_ns: Cell<u64>,
    refactorizations: usize,
    updates: usize,
    factor_nnz: usize,
    basis_nnz: usize,
}

/// The factorization as the sparse engine holds it: one of the two
/// backends behind static dispatch, self-timing every operation into a
/// [`FactorStats`].
#[derive(Clone)]
pub(crate) struct Factorization<S> {
    backend: FactorBackend<S>,
    stats: StatsCell,
}

impl<S: Scalar> Factorization<S> {
    /// The identity factorization of the chosen backend. Counted as the
    /// solve's initial (trivial) factorization: `B = I` stores `m`
    /// diagonal nonzeros against an `m`-nonzero slack basis, so a cold
    /// solve that never hits a refactorization trigger still reports a
    /// factorization and a fill ratio of 1.
    pub(crate) fn identity(kind: Factor, m: usize) -> Factorization<S> {
        let stats = StatsCell {
            refactorizations: 1,
            factor_nnz: m.max(1),
            basis_nnz: m.max(1),
            ..StatsCell::default()
        };
        Factorization {
            backend: match kind {
                Factor::EtaFile => FactorBackend::Eta(EtaFile::identity(m)),
                Factor::SparseLu => FactorBackend::Lu(SparseLu::identity(m)),
            },
            stats,
        }
    }

    fn as_trait(&self) -> &dyn BasisFactorization<S> {
        match &self.backend {
            FactorBackend::Eta(e) => e,
            FactorBackend::Lu(l) => l,
        }
    }

    fn as_trait_mut(&mut self) -> &mut dyn BasisFactorization<S> {
        match &mut self.backend {
            FactorBackend::Eta(e) => e,
            FactorBackend::Lu(l) => l,
        }
    }

    /// Which backend this is.
    pub(crate) fn tag(&self) -> Factor {
        self.as_trait().tag()
    }

    /// `v := B⁻¹ v` (forward transformation), timed.
    pub(crate) fn ftran(&self, v: &mut [S]) {
        let t0 = Instant::now();
        self.as_trait().ftran(v);
        self.stats
            .solve_ns
            .set(self.stats.solve_ns.get() + t0.elapsed().as_nanos() as u64);
    }

    /// `v := B⁻ᵀ v` (backward transformation), timed.
    pub(crate) fn btran(&self, v: &mut [S]) {
        let t0 = Instant::now();
        self.as_trait().btran(v);
        self.stats
            .solve_ns
            .set(self.stats.solve_ns.get() + t0.elapsed().as_nanos() as u64);
    }

    /// Absorb a pivot (see [`BasisFactorization::update`]), timed.
    /// `false` means the update was rejected: refactorize before the next
    /// solve.
    pub(crate) fn update(&mut self, row: usize, d: &[S], policy: &RefactorPolicy) -> bool {
        let t0 = Instant::now();
        let ok = self.as_trait_mut().update(row, d, policy);
        self.stats.update_ms += t0.elapsed().as_secs_f64() * 1e3;
        self.stats.updates += 1;
        ok
    }

    /// Refactorize the column set (see
    /// [`BasisFactorization::refactorize`]), timed; records the factor
    /// and basis nonzero counts behind [`FactorStats::fill_ratio`].
    pub(crate) fn refactorize(
        &mut self,
        sf: &StandardForm<S>,
        cols: &[usize],
        mode: RefactorMode,
        policy: &RefactorPolicy,
    ) -> Option<Refactorized> {
        let t0 = Instant::now();
        let out = self.as_trait_mut().refactorize(sf, cols, mode, policy);
        self.stats.factor_ms += t0.elapsed().as_secs_f64() * 1e3;
        self.stats.refactorizations += 1;
        if let Some(r) = &out {
            self.stats.factor_nnz = self.as_trait().nnz();
            self.stats.basis_nnz = r
                .basis
                .iter()
                .map(|&j| sf.column(j).0.len())
                .sum::<usize>()
                .max(1);
        }
        out
    }

    /// Updates absorbed since the last refactorization (see
    /// [`BasisFactorization::fresh`]).
    pub(crate) fn fresh(&self) -> usize {
        self.as_trait().fresh()
    }

    /// Full factorizations performed so far. Vectors maintained
    /// incrementally across pivots (the reduced-cost caches) are reseeded
    /// whenever this moves.
    pub(crate) fn refactorizations(&self) -> usize {
        self.stats.refactorizations
    }

    /// Stored nonzeros right now.
    pub(crate) fn nnz(&self) -> usize {
        self.as_trait().nnz()
    }

    /// Stored nonzeros right after the last refactorization.
    pub(crate) fn base_nnz(&self) -> usize {
        self.as_trait().base_nnz()
    }

    /// Snapshot the accumulated work counters.
    pub(crate) fn stats(&self) -> FactorStats {
        let c = &self.stats;
        FactorStats {
            backend: self.tag(),
            factor_ms: c.factor_ms,
            update_ms: c.update_ms,
            ftran_btran_ms: c.solve_ns.get() as f64 / 1e6,
            refactorizations: c.refactorizations,
            updates: c.updates,
            factor_nnz: c.factor_nnz,
            fill_ratio: if c.basis_nnz > 0 {
                c.factor_nnz as f64 / c.basis_nnz as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, Cmp, Problem, Sense};
    use ss_num::Ratio;

    fn ratios(xs: &[i64]) -> Vec<Ratio> {
        xs.iter().map(|&x| Ratio::from_int(x)).collect()
    }

    fn dot(a: &[Ratio], b: &[Ratio]) -> Ratio {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn eta_application_maps_pivot_column_to_unit() {
        // Applying only a freshly pushed eta to its own pivot column must
        // produce the unit vector of the pivot row.
        for (m, row, col) in [
            (3usize, 0usize, vec![2i64, 1, 0]),
            (3, 2, vec![0, 3, 5]),
            (2, 1, vec![7, -3]),
        ] {
            let d = ratios(&col);
            assert!(!d[row].is_zero());
            let mut single: EtaFile<Ratio> = EtaFile::identity(m);
            single.push(row, &d);
            let mut v = d.clone();
            single.ftran(&mut v);
            for (i, x) in v.iter().enumerate() {
                let want = if i == row {
                    Ratio::one()
                } else {
                    Ratio::zero()
                };
                assert_eq!(*x, want, "m={m} row={row} i={i}");
            }
        }
    }

    #[test]
    fn eta_btran_is_transpose_of_ftran() {
        // For random-ish integer etas, check <B⁻ᵀu, v> == <u, B⁻¹v>.
        let mut f: EtaFile<Ratio> = EtaFile::identity(3);
        f.push(0, &ratios(&[2, 1, 0]));
        f.push(2, &ratios(&[-1, 4, 3]));
        let u = ratios(&[1, -2, 5]);
        let v = ratios(&[3, 7, -1]);
        let mut bu = u.clone();
        f.btran(&mut bu);
        let mut fv = v.clone();
        f.ftran(&mut fv);
        assert_eq!(dot(&bu, &v), dot(&u, &fv));
    }

    /// A small bounded LP whose lowering has genuinely non-unit basis
    /// columns to factorize.
    fn small_form() -> crate::StandardForm<Ratio> {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::from_int(3));
        let y = p.add_var_bounded("y", Ratio::from_int(3));
        let z = p.add_var("z");
        p.set_objective_coeff(x, Ratio::one());
        p.set_objective_coeff(y, Ratio::from_int(2));
        p.set_objective_coeff(z, Ratio::one());
        p.add_constraint(
            "cap",
            [
                (x, Ratio::one()),
                (y, Ratio::one()),
                (z, Ratio::from_int(2)),
            ],
            Cmp::Le,
            Ratio::from_int(4),
        );
        p.add_constraint(
            "mix",
            [(x, Ratio::from_int(2)), (z, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(5),
        );
        p.add_constraint(
            "flow",
            [
                (x, Ratio::one()),
                (y, Ratio::from_int(-1)),
                (z, Ratio::one()),
            ],
            Cmp::Eq,
            Ratio::one(),
        );
        lower::<Ratio>(&p)
    }

    /// Factorize the structural columns (completed from basis0) on both
    /// backends and return them with their (possibly differently
    /// row-assigned) bases.
    fn both_backends(
        sf: &crate::StandardForm<Ratio>,
        cols: &[usize],
    ) -> (EtaFile<Ratio>, SparseLu<Ratio>, Vec<usize>, Vec<usize>) {
        let pol = RefactorPolicy::default();
        let mut eta: EtaFile<Ratio> = EtaFile::identity(sf.m);
        let re = eta
            .refactorize(sf, cols, RefactorMode::Strict, &pol)
            .expect("eta refactorize");
        let mut lu: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let rl = lu
            .refactorize(sf, cols, RefactorMode::Strict, &pol)
            .expect("lu refactorize");
        // Same column set ends up basic regardless of row assignment.
        let mut be: Vec<usize> = re.basis.clone();
        let mut bl: Vec<usize> = rl.basis.clone();
        be.sort_unstable();
        bl.sort_unstable();
        assert_eq!(be, bl, "backends factorized different column sets");
        (eta, lu, re.basis, rl.basis)
    }

    /// FTRAN output keyed by the basic column each slot holds — the
    /// representation-independent answer (backends may claim rows in a
    /// different order, so elementwise comparison would be wrong).
    fn by_column(basis: &[usize], d: &[Ratio]) -> Vec<(usize, Ratio)> {
        let mut m: Vec<(usize, Ratio)> = basis.iter().copied().zip(d.iter().cloned()).collect();
        m.sort_unstable_by_key(|(j, _)| *j);
        m
    }

    /// A deterministic per-column cost, for BTRAN inputs that must be
    /// keyed to columns rather than to row slots.
    fn col_cost(j: usize) -> Ratio {
        Ratio::from_int((j as i64 * 7) % 11 - 3)
    }

    #[test]
    fn lu_agrees_with_eta_on_ftran_btran() {
        let sf = small_form();
        let cols: Vec<usize> = (0..3).collect(); // the structural columns
        let (eta, lu, basis_e, basis_l) = both_backends(&sf, &cols);
        for j in 0..sf.ncols {
            let mut ve = dense_column(&sf, j);
            let mut vl = ve.clone();
            eta.ftran(&mut ve);
            lu.ftran(&mut vl);
            assert_eq!(
                by_column(&basis_e, &ve),
                by_column(&basis_l, &vl),
                "ftran disagrees on column {j}"
            );
        }
        // BTRAN input is the basic-cost vector (slot-indexed); key it by
        // column so both backends price the same basis. The output lives
        // in row space and must then agree elementwise.
        let ce: Vec<Ratio> = basis_e.iter().map(|&j| col_cost(j)).collect();
        let cl: Vec<Ratio> = basis_l.iter().map(|&j| col_cost(j)).collect();
        let mut ue = ce;
        let mut ul = cl;
        eta.btran(&mut ue);
        lu.btran(&mut ul);
        assert_eq!(ue, ul, "btran disagrees");
    }

    #[test]
    fn lu_btran_is_transpose_of_ftran_after_updates() {
        let sf = small_form();
        let pol = RefactorPolicy::default();
        let cols: Vec<usize> = (0..3).collect();
        let mut lu: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let r = lu
            .refactorize(&sf, &cols, RefactorMode::Strict, &pol)
            .unwrap();
        // Replace the column on row 1 with a slack column via a real
        // Forrest–Tomlin update, then re-check the transpose identity.
        let slack = sf.basis0[1];
        assert!(!r.basis.contains(&slack));
        let mut d = dense_column(&sf, slack);
        lu.ftran(&mut d);
        assert!(lu.update(1, &d, &pol), "F–T update rejected");
        let u = ratios(&[1, -2, 5]);
        let v = ratios(&[3, 7, -1]);
        let mut bu = u.clone();
        lu.btran(&mut bu);
        let mut fv = v.clone();
        lu.ftran(&mut fv);
        assert_eq!(dot(&bu, &v), dot(&u, &fv));
    }

    #[test]
    fn forrest_tomlin_update_matches_refactorization() {
        // After an F–T update, FTRAN/BTRAN must agree exactly (Ratio)
        // with a from-scratch refactorization of the replaced basis.
        let sf = small_form();
        let pol = RefactorPolicy::default();
        let cols: Vec<usize> = (0..3).collect();
        let mut lu: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let r = lu
            .refactorize(&sf, &cols, RefactorMode::Strict, &pol)
            .unwrap();
        let row = 0usize;
        let slack = sf.basis0[2];
        assert!(!r.basis.contains(&slack));
        let mut d = dense_column(&sf, slack);
        lu.ftran(&mut d);
        assert!(!d[row].is_zero(), "test needs a pivotable replacement");
        assert!(lu.update(row, &d, &pol));
        let mut new_basis = r.basis.clone();
        new_basis[row] = slack;
        let mut fresh: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let rf = fresh
            .refactorize(&sf, &new_basis, RefactorMode::Force, &pol)
            .unwrap();
        for j in 0..sf.ncols {
            let mut vu = dense_column(&sf, j);
            let mut vf = vu.clone();
            lu.ftran(&mut vu);
            fresh.ftran(&mut vf);
            assert_eq!(
                by_column(&new_basis, &vu),
                by_column(&rf.basis, &vf),
                "updated vs refactorized ftran, column {j}"
            );
        }
        let cu0: Vec<Ratio> = new_basis.iter().map(|&j| col_cost(j)).collect();
        let cf0: Vec<Ratio> = rf.basis.iter().map(|&j| col_cost(j)).collect();
        let mut cu = cu0;
        let mut cf = cf0;
        lu.btran(&mut cu);
        fresh.btran(&mut cf);
        assert_eq!(cu, cf, "updated vs refactorized btran");
        assert_eq!(lu.fresh(), 1);
        assert_eq!(fresh.fresh(), 0);
    }

    #[test]
    fn strict_refactorization_drops_dependent_columns() {
        let sf = small_form();
        let pol = RefactorPolicy::default();
        // Hinting the same structural column twice cannot happen (the
        // warm path dedupes), but two columns that collide on their only
        // pivot row can: here we force dependence by hinting a column
        // set larger than the rows it can claim.
        let mut lu: SparseLu<Ratio> = SparseLu::identity(sf.m);
        let cols = vec![0usize, 0, 1];
        let r = lu
            .refactorize(&sf, &cols, RefactorMode::Strict, &pol)
            .unwrap();
        assert!(r.dropped, "duplicate column must be dropped");
        // All rows still claimed; the basis is complete and solvable.
        assert!(r.basis.iter().all(|&j| j != usize::MAX));
        let mut v = dense_column(&sf, r.basis[0]);
        lu.ftran(&mut v);
    }

    #[test]
    fn policy_defaults_and_stats_absorb() {
        let p = RefactorPolicy::default();
        assert_eq!(p.max_updates, 64);
        assert!(p.pivot_tol > 0.0 && p.pivot_tol < 1.0);
        assert!(p.residual_interval > 0);
        let mut a = FactorStats {
            factor_ms: 1.0,
            updates: 3,
            factor_nnz: 10,
            fill_ratio: 1.5,
            ..FactorStats::default()
        };
        let b = FactorStats {
            factor_ms: 2.0,
            updates: 4,
            factor_nnz: 8,
            fill_ratio: 2.5,
            ..FactorStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.factor_ms, 3.0);
        assert_eq!(a.updates, 7);
        assert_eq!(a.factor_nnz, 10);
        assert_eq!(a.fill_ratio, 2.5);
    }

    #[test]
    fn wrapper_times_and_reports_backend() {
        let sf = small_form();
        let pol = RefactorPolicy::default();
        assert_eq!(Factor::EtaFile.to_string(), "eta");
        assert_eq!(Factor::SparseLu.to_string(), "lu");
        for kind in [Factor::EtaFile, Factor::SparseLu] {
            let mut f: Factorization<Ratio> = Factorization::identity(kind, sf.m);
            assert_eq!(f.tag(), kind);
            let cols: Vec<usize> = (0..2).collect();
            f.refactorize(&sf, &cols, RefactorMode::Strict, &pol)
                .unwrap();
            let mut v = dense_column(&sf, 2);
            f.ftran(&mut v);
            let st = f.stats();
            assert_eq!(st.backend, kind);
            // The initial identity counts as one, the explicit call as
            // the second.
            assert_eq!(st.refactorizations, 2);
            assert!(st.factor_nnz >= sf.m);
            assert!(st.fill_ratio > 0.0);
        }
    }
}
