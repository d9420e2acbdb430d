//! Sparse revised simplex — the [`Kernel::SparseRevised`](crate::Kernel)
//! engine.
//!
//! The steady-state LPs are >90% zeros at scale: each per-type flow block
//! touches a single edge, so a constraint row has a handful of nonzeros
//! regardless of platform size. This kernel never materializes the
//! tableau. It keeps the constraint matrix in the shared CSC storage of
//! [`StandardForm`] and maintains only a factorization of the current
//! basis `B` behind the [`BasisFactorization`](crate::BasisFactorization)
//! trait (see [`crate::factor`]): sparse LU with threshold-Markowitz
//! pivoting and Forrest–Tomlin updates by default, the historical
//! product-form eta file as the selectable agreement oracle
//! (`SimplexOptions { factor, .. }`).
//!
//! * **FTRAN** (`d = B⁻¹ a_q`) solves against the factors — the entering
//!   column for the ratio test.
//! * **BTRAN** (`y = B⁻ᵀ c_B`, `ρ = B⁻ᵀ e_r`) solves transposed — the
//!   dual prices that seed the reduced costs, and the pivot row that
//!   carries them across a pivot.
//! * **Pricing** selects from **maintained reduced costs**. A full sweep
//!   `z_j = c_j − y·a_j` over the nonbasic columns (O(nnz)) is paid once
//!   per phase to seed `z`; after that each basis change costs one BTRAN
//!   of `e_r` and one **row-wise pivot row** `α = ρᵀA_N`, scattered over
//!   `ρ`'s support through the engine's [`PivotRow`] index, and the
//!   update `z_j ← z_j − (z_q/α_q)·α_j` touches exactly the scattered
//!   columns (`z_leave = −z_q/α_q`, `z_q = 0`; a bound flip changes no
//!   basis and no `z`). Choosing the entering column is then a scan of
//!   `z` — devex `z_j²/w_j` or Dantzig `|z_j|` — with no dot products at
//!   all. With native bounds the test is sign-aware: at-lower columns
//!   enter on `z_j > 0`, at-upper columns on `z_j < 0`.
//!   **Reseed rule:** `z` is recomputed from a fresh BTRAN whenever the
//!   basis was refactorized since the last seed (update cap, fill growth,
//!   rejected update, FTRAN-residual tripwire) — the refactorization
//!   flushes the factors' `f64` drift, the reseed flushes the cache's.
//!   **Optimality proof:** a scan of maintained values that finds no
//!   candidate is a statement about accumulated arithmetic, so the loop
//!   then reseeds and scans again, and reports optimality only when the
//!   *fresh* sweep is empty too — the answer never rests on a stale `z`.
//!   Bland's rule (the exact default, and every rule's anti-cycling tail)
//!   reprices from scratch each iteration and never consults the cache;
//!   so does the composite repair, whose cost vector changes every
//!   iteration. The dual repair ([`crate::dual`]) runs the same
//!   [`PivotRow`] kernel and the same reseed rule from the other side.
//! * **Bounded ratio test** (see [`crate::bounded`]): a step is blocked by
//!   a basic variable hitting either of its bounds *or* by the entering
//!   variable reaching its own opposite bound — a **bound flip** that
//!   costs no eta and no basis change at all. This is what lets the
//!   steady-state formulations keep their thousands of `0 ≤ x ≤ u` box
//!   constraints out of the basis entirely.
//! * **Refactorization**: updates accumulate cost (etas pile up; the LU
//!   absorbs fill and row etas), so the basis is refactorized from
//!   scratch under the shared [`RefactorPolicy`] — update-count cap,
//!   fill-growth ratio, and (for `f64`) stability triggers on the
//!   Forrest–Tomlin diagonal and the FTRAN residual — which also
//!   refreshes the basic values from the bound-adjusted rhs
//!   `b − Σ_{j at upper} u_j a_j` and flushes accumulated `f64` drift.
//!
//! The mutable solve state — eta file, basis, basic values, bound
//! statuses — lives in [`SparseState`], split out from the pivoting loop
//! so that re-solve sessions can rebuild it from a
//! [`WarmStart`](crate::WarmStart) snapshot: the warm path refactorizes
//! the hinted basis against the *new* coefficients, checks primal
//! feasibility, optionally repairs — **dual simplex first**
//! ([`crate::dual`]: the warm basis is still dual feasible after
//! cost/bound drift, so pricing the infeasible rows out keeps every
//! intermediate basis on the optimal side), falling back to the composite
//! primal repair for structural drift — and then runs **phase 2 only**:
//! on the equality-heavy steady-state LPs that skips the phase-1 pivots
//! that dominate a cold solve. See [`crate::warm`] for the full
//! five-state machine.
//!
//! A hint-less solve on an exact scalar starts in `f64`: the two-phase
//! solve runs on an `f64` copy of the form, and its basis is handed to
//! the warm entry above in exact arithmetic, which proves it optimal with
//! no pivot or repairs it (see `solve_exact_cold`). The exact two-phase
//! solve from the identity basis runs only when the `f64` pass fails.
//!
//! Pivoting rules mirror the dense kernel (see [`crate::pricing`]): Bland
//! for exact scalars (the anti-cycling guarantee matters — steady-state
//! LPs are heavily degenerate), devex reference pricing with a Bland
//! stall-fallback for `f64` (the devex weight update reads the same
//! pivot row the reduced-cost update needs, so the weights ride along for
//! free). Zero-level
//! artificials that linger in the basis after phase 1 are never pivoted
//! out eagerly; instead every artificial is **pinned to `u = 0`** once
//! phase 1 ends, so the bounded ratio test blocks any step that would
//! lift one — an ordinary zero-headroom upper-bound candidate, inside
//! Bland's termination proof — and redundant rows simply keep their
//! artificial basic at level zero (its dual price is then exactly zero,
//! matching the dense kernel's row-dropping semantics).

use crate::bounded::{
    choose_leaving, choose_leaving_repair, entering_value, improves, shift_basics, Leaving,
};
use crate::factor::{Factor, FactorStats, Factorization, RefactorMode, RefactorPolicy};
use crate::kernel::KernelRun;
use crate::pricing::{Devex, PivotRow, PricingStats};
use crate::scalar::Scalar;
use crate::simplex::SimplexOptions;
use crate::solution::{PivotRule, SolveError};
use crate::standard::{KernelOutput, StandardForm};
use crate::warm::{ShapeMismatch, WarmOutcome, WarmStart};
use std::time::Instant;

/// The mutable state of a sparse revised-simplex solve: the factorized
/// basis (see [`crate::factor`]), the basis ↔ row assignment, the basic values, and the
/// `AtLower`/`Basic`/`AtUpper` status of every column.
///
/// Split out of the pivoting engine so re-solve sessions can rebuild it
/// from a [`WarmStart`] snapshot against freshly drifted coefficients —
/// see [`crate::warm`] for the cold → warm → dual-repair → primal-repair
/// → cold-fallback state machine.
#[derive(Clone)]
pub(crate) struct SparseState<S> {
    pub(crate) factors: Factorization<S>,
    /// `basis[i]` = column occupying row `i` of the factorized basis.
    pub(crate) basis: Vec<usize>,
    pub(crate) in_basis: Vec<bool>,
    /// `x[i]` = current value of `basis[i]` (always in `[0, u]` once the
    /// solve reaches phase 2; out-of-box values are live state during the
    /// dual and composite repair passes).
    pub(crate) x: Vec<S>,
    /// Nonbasic-at-upper status per column (bounded structural only).
    pub(crate) at_upper: Vec<bool>,
    /// Working upper bounds: the standard form's, plus artificials pinned
    /// to 0 once phase 1 ends.
    pub(crate) upper: Vec<Option<S>>,
}

impl<S: Scalar> SparseState<S> {
    /// The cold starting state: slack/artificial identity basis, every
    /// structural column nonbasic at its lower bound.
    fn cold(sf: &StandardForm<S>, kind: Factor) -> SparseState<S> {
        let mut in_basis = vec![false; sf.ncols];
        for &b in &sf.basis0 {
            in_basis[b] = true;
        }
        SparseState {
            factors: Factorization::identity(kind, sf.m),
            basis: sf.basis0.clone(),
            in_basis,
            x: sf.rhs.clone(),
            at_upper: vec![false; sf.ncols],
            upper: sf.upper.clone(),
        }
    }

    /// Rebuild a state from a [`WarmStart`] against (possibly drifted)
    /// coefficients. Returns the state plus `true` when the hint needed
    /// patching (duplicate or dependent columns dropped, rows completed);
    /// `None` when the completion itself is numerically singular — the
    /// caller falls back to a cold solve. The rebuilt state's basic
    /// values are **unclamped**: the caller checks primal feasibility and
    /// runs the composite repair pass if needed.
    ///
    /// Artificials are pinned to `u = 0` from the start (the warm path
    /// never runs phase 1), so a warm basis with a lingering basic
    /// artificial is accepted only at level zero under the new
    /// coefficients — anything else is an infeasibility the repair pass
    /// drives out like any other out-of-bound basic.
    pub(crate) fn from_warm(
        sf: &StandardForm<S>,
        warm: &WarmStart,
        kind: Factor,
        policy: &RefactorPolicy,
    ) -> Option<(SparseState<S>, bool)> {
        debug_assert!(warm.shape_matches(sf));
        let mut upper = sf.upper.clone();
        for u in upper.iter_mut().skip(sf.art_start) {
            *u = Some(S::zero());
        }
        // Sanitize the hint: keep each column at most once, and only let
        // bounded nonbasic structural columns rest at their upper bound.
        let mut in_keep = vec![false; sf.ncols];
        let mut keep: Vec<usize> = Vec::with_capacity(warm.basis().len());
        for &j in warm.basis() {
            if j < sf.ncols && !in_keep[j] {
                in_keep[j] = true;
                keep.push(j);
            }
        }
        let mut at_upper = vec![false; sf.ncols];
        for j in 0..sf.nstruct {
            at_upper[j] = warm.at_upper()[j] && !in_keep[j] && sf.upper[j].is_some();
        }
        let deduped = keep.len() != warm.basis().len();
        let (st, dropped_any) = Self::factorize(sf, &keep, &at_upper, &upper, kind, policy)?;
        Some((st, deduped || dropped_any))
    }

    /// Factorize the column set `cols` (factors + row assignment),
    /// dropping dependent columns and completing unclaimed rows with their
    /// `basis0` unit columns, then compute the basic values from the
    /// bound-adjusted rhs — *unclamped*, so the caller can check primal
    /// feasibility. Returns `None` only on numerically singular
    /// completion (f64 pathology); the flag reports dropped columns.
    fn factorize(
        sf: &StandardForm<S>,
        cols: &[usize],
        at_upper: &[bool],
        upper: &[Option<S>],
        kind: Factor,
        policy: &RefactorPolicy,
    ) -> Option<(SparseState<S>, bool)> {
        let m = sf.m;
        let mut factors = Factorization::identity(kind, m);
        let refac = factors.refactorize(sf, cols, RefactorMode::Strict, policy)?;
        let basis = refac.basis;
        let dropped_any = refac.dropped;

        let mut in_basis = vec![false; sf.ncols];
        for &b in &basis {
            in_basis[b] = true;
        }
        // A column can be hinted basic *and* at-upper after sanitizing
        // only via completion; basic wins.
        let at_upper: Vec<bool> = at_upper
            .iter()
            .enumerate()
            .map(|(j, &u)| u && !in_basis[j])
            .collect();

        let mut st = SparseState {
            factors,
            basis,
            in_basis,
            x: vec![S::zero(); m],
            at_upper,
            upper: upper.to_vec(),
        };
        st.x = st.adjusted_rhs(sf);
        Some((st, dropped_any))
    }

    /// `B⁻¹ (b − Σ_{j at upper} u_j a_j)` — the basic values implied by
    /// the current factorization and statuses, without any clamping.
    pub(crate) fn adjusted_rhs(&self, sf: &StandardForm<S>) -> Vec<S> {
        let mut b = sf.rhs.clone();
        for (j, up) in self.at_upper.iter().enumerate() {
            if !up {
                continue;
            }
            let u = self.upper[j].as_ref().expect("at_upper implies a bound");
            let (rows, vals) = sf.column(j);
            for (i, a) in rows.iter().zip(vals) {
                b[*i] = b[*i].sub(&u.mul(a));
            }
        }
        self.factors.ftran(&mut b);
        b
    }

    /// `true` when every basic value respects its `[0, u]` box (up to the
    /// scalar's comparison tolerance).
    pub(crate) fn is_feasible(&self) -> bool {
        self.basis.iter().enumerate().all(|(i, &b)| {
            !self.x[i].is_negative()
                && self.upper[b]
                    .as_ref()
                    .is_none_or(|u| !u.sub(&self.x[i]).is_negative())
        })
    }

    /// Snap epsilon-negative basic values to exact zero (f64 drift; a
    /// no-op for exact scalars on feasible states).
    pub(crate) fn clamp_basics(&mut self) {
        for v in self.x.iter_mut() {
            if v.is_zero() || v.is_negative() {
                *v = S::zero();
            }
        }
    }
}

pub(crate) struct Engine<'a, S> {
    pub(crate) sf: &'a StandardForm<S>,
    pub(crate) st: SparseState<S>,
    /// Snap epsilon-negative basics to zero on reinversion. True during
    /// ordinary optimization (values are feasible up to f64 drift); false
    /// during dual/composite repair, where genuinely out-of-box basics are
    /// the state being repaired and must survive a mid-repair reinversion.
    pub(crate) clamp_on_refresh: bool,
    /// Pricing work accumulated across every pass this engine runs
    /// (phase 1, repairs, phase 2); lands on the [`KernelOutput`].
    pub(crate) stats: PricingStats,
    /// When to refactorize (update cap, fill growth, stability; see
    /// [`RefactorPolicy`]) — shared by both factorization backends.
    pub(crate) policy: RefactorPolicy,
    /// The row-wise pivot-row kernel, built by the first pass that needs
    /// one and shared by every later pass (dual repair → phase 2). It
    /// lives and dies with the engine: ≈ 12 bytes per matrix nonzero is
    /// too much to keep on every resident [`StandardForm`].
    pub(crate) pivot_row: Option<PivotRow<S>>,
    /// Primal steps [`optimize`](Self::optimize) has taken, and how many
    /// of them phase 1 took: the work of a pass that stopped short.
    pivots: usize,
    phase1_pivots: usize,
    /// Set on the `f64` pre-solve of a hint-less exact solve, which needs
    /// no anti-cycling guarantee: the exact pass after it has one. The
    /// loop then never falls back to Bland, and gives up with
    /// `IterationLimit` once `m + 16` pivots in a row have neither moved
    /// the objective nor taken the basic artificials below the phase's
    /// fewest — the degenerate stall a cycling `f64` solve sits in.
    presolve: bool,
    /// Test instrumentation, `None` outside [`solve_audited`].
    audit: Option<&'a mut CacheAudit>,
}

/// What the primal loop's maintained reduced costs looked like from the
/// outside — test instrumentation filled by
/// [`solve_audited`], which re-derives every reduced cost
/// from scratch after each primal step and compares.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct CacheAudit {
    /// Primal steps (pivots and bound flips) after which the cache was
    /// compared against a from-scratch repricing.
    pub checks: usize,
    /// Cache entries that differed from the from-scratch value at all
    /// (must stay 0 under an exact scalar).
    pub mismatches: usize,
    /// Largest `|cached − fresh| / (1 + |fresh|)` seen.
    pub max_rel_err: f64,
    /// Full sweeps that (re)seeded the cache.
    pub reseeds: usize,
    /// Columns priced by the last iteration of the last pass — the sweep
    /// that proved optimality.
    pub final_sweep: usize,
}

/// Load column `j` of the constraint matrix into the dense workvec `v`.
pub(crate) fn load_column<S: Scalar>(sf: &StandardForm<S>, j: usize, v: &mut [S]) {
    v.fill(S::zero());
    let (rows, vals) = sf.column(j);
    for (i, a) in rows.iter().zip(vals) {
        v[*i] = a.clone();
    }
}

impl<'a, S: Scalar> Engine<'a, S> {
    fn new(sf: &'a StandardForm<S>, st: SparseState<S>, opts: &SimplexOptions) -> Engine<'a, S> {
        Engine {
            sf,
            st,
            clamp_on_refresh: true,
            stats: PricingStats::default(),
            policy: opts.refactor,
            pivot_row: None,
            pivots: 0,
            phase1_pivots: 0,
            presolve: false,
            audit: None,
        }
    }

    /// Dual prices `y = B⁻ᵀ c_B` for the cost vector `cost`.
    pub(crate) fn prices(&self, cost: &[S]) -> Vec<S> {
        let mut y: Vec<S> = self.st.basis.iter().map(|&b| cost[b].clone()).collect();
        self.st.factors.btran(&mut y);
        y
    }

    /// Reduced cost of column `j` under prices `y`: `c_j − y·a_j`.
    pub(crate) fn reduced_cost(&self, j: usize, cost: &[S], y: &[S]) -> S {
        let mut z = cost[j].clone();
        let (rows, vals) = self.sf.column(j);
        for (i, a) in rows.iter().zip(vals) {
            if !y[*i].is_zero() {
                z = z.sub(&y[*i].mul(a));
            }
        }
        z
    }

    /// Bland: smallest-index nonbasic active column that improves
    /// (sign-aware via [`improves`]). Also returns columns priced.
    fn entering_bland(&self, cost: &[S], active: &[bool], y: &[S]) -> (Option<usize>, usize) {
        let mut scanned = 0usize;
        for (j, act) in active.iter().enumerate().take(self.sf.ncols) {
            if !act || self.st.in_basis[j] {
                continue;
            }
            scanned += 1;
            let z = self.reduced_cost(j, cost, y);
            if improves(self.st.at_upper[j], &z) {
                return (Some(j), scanned);
            }
        }
        (None, scanned)
    }

    /// Dantzig: largest improvement rate `|z_j|` among nonbasic active
    /// columns that improve.
    fn entering_dantzig(&self, cost: &[S], active: &[bool], y: &[S]) -> (Option<usize>, usize) {
        let mut best: Option<(usize, S)> = None;
        let mut scanned = 0usize;
        for (j, act) in active.iter().enumerate() {
            if !act || self.st.in_basis[j] {
                continue;
            }
            scanned += 1;
            let z = self.reduced_cost(j, cost, y);
            if !improves(self.st.at_upper[j], &z) {
                continue;
            }
            let score = if self.st.at_upper[j] { z.neg() } else { z };
            match &best {
                None => best = Some((j, score)),
                Some((_, bs)) if score > *bs => best = Some((j, score)),
                _ => {}
            }
        }
        (best.map(|(j, _)| j), scanned)
    }

    /// Reduced costs from scratch: one BTRAN for `y = B⁻ᵀc_B`, then
    /// `z_j = c_j − y·a_j` for every active nonbasic column. Basic and
    /// inactive entries are an exact zero — the invariant that lets
    /// [`entering_cached`](Self::entering_cached) scan `z` alone. Also
    /// returns how many columns were priced.
    fn fresh_reduced_costs(&self, cost: &[S], active: &[bool]) -> (Vec<S>, usize) {
        let y = self.prices(cost);
        let mut priced = 0usize;
        let z = (0..self.sf.ncols)
            .map(|j| {
                if active[j] && !self.st.in_basis[j] {
                    priced += 1;
                    self.reduced_cost(j, cost, &y)
                } else {
                    S::zero()
                }
            })
            .collect();
        (z, priced)
    }

    /// Seed the reduced-cost cache `z` with one full sweep (see
    /// [`fresh_reduced_costs`](Self::fresh_reduced_costs)). Returns the
    /// refactorization count the seed was taken at.
    pub(crate) fn reseed(&mut self, cost: &[S], active: &[bool], z: &mut Vec<S>) -> usize {
        let (fresh, priced) = self.fresh_reduced_costs(cost, active);
        *z = fresh;
        self.stats.priced_columns += priced;
        if let Some(a) = self.audit.as_mut() {
            a.reseeds += 1;
        }
        self.st.factors.refactorizations()
    }

    /// Entering column from the maintained reduced costs `z`: the
    /// improving column with the largest devex score `z_j²/w_j`, or the
    /// largest `|z_j|` (Dantzig) without reference weights; ties break to
    /// the smaller index. Basic and inactive columns carry an exact zero
    /// in `z` (see [`reseed`](Self::reseed)), which never improves.
    fn entering_cached(&self, z: &[S], devex: Option<&Devex>) -> Option<usize> {
        fn best<S: Scalar, T: PartialOrd>(
            z: &[S],
            at_upper: &[bool],
            score: impl Fn(usize, &S) -> T,
        ) -> Option<usize> {
            let mut best: Option<(usize, T)> = None;
            for (j, zj) in z.iter().enumerate() {
                if !improves(at_upper[j], zj) {
                    continue;
                }
                let sc = score(j, zj);
                if best.as_ref().is_none_or(|(_, bs)| sc > *bs) {
                    best = Some((j, sc));
                }
            }
            best.map(|(j, _)| j)
        }
        let at_upper = &self.st.at_upper;
        match devex {
            Some(dv) => best(z, at_upper, |j, zj| dv.score(j, zj.to_f64())),
            None => best(
                z,
                at_upper,
                |j, zj| {
                    if at_upper[j] {
                        zj.neg()
                    } else {
                        zj.clone()
                    }
                },
            ),
        }
    }

    /// Carry the reduced-cost cache (and the devex weights) across the
    /// pivot of `q` onto `row`: one BTRAN of `e_row` and a scatter of the
    /// pivot row `α` over its support (see [`PivotRow`]), then
    /// `z_j ← z_j − θ·α_j` with `θ = z_q/α_q` on exactly the touched
    /// columns, `z_leave = −θ` (its `α` against its own row is 1) and
    /// `z_q = 0`. Must run *before* [`Engine::pivot`] — the pivot row is
    /// the pre-pivot basis's.
    fn update_reduced_costs(
        &mut self,
        row: usize,
        q: usize,
        d: &[S],
        active: &[bool],
        z: &mut [S],
        devex: Option<&mut Devex>,
    ) {
        let tp = Instant::now();
        let sf = self.sf;
        let pr = self.pivot_row.get_or_insert_with(|| PivotRow::new(sf));
        pr.compute(&self.st.factors, row, active, &self.st.in_basis);
        let leave = self.st.basis[row];
        if let Some(dv) = devex {
            // Weights only rank candidates: plain `f64` on every backend.
            let alphas = pr.touched().iter().filter(|&&j| j != q);
            let alphas = alphas.map(|&j| (j, pr.alpha(j).to_f64()));
            dv.pivot_update(q, leave, d[row].to_f64(), alphas);
        }
        let theta = z[q].div(&d[row]);
        for &j in pr.touched() {
            z[j] = z[j].sub(&theta.mul(pr.alpha(j)));
        }
        if active[leave] {
            z[leave] = theta.neg();
        }
        // The entering column turns basic: exact zero, whatever the
        // update above left in its slot.
        z[q] = S::zero();
        self.stats.priced_columns += pr.touched().len();
        self.stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
    }

    /// [`CacheAudit`] probe: compare every cache entry against a
    /// from-scratch repricing of the current basis.
    fn audit_cache(&mut self, cost: &[S], active: &[bool], z: &[S]) {
        if self.audit.is_none() {
            return;
        }
        let (fresh, _) = self.fresh_reduced_costs(cost, active);
        let a = self.audit.as_mut().expect("checked above");
        for (zj, fj) in z.iter().zip(&fresh) {
            if zj != fj {
                a.mismatches += 1;
            }
            let err = zj.sub(fj).to_f64().abs() / (1.0 + fj.to_f64().abs());
            a.max_rel_err = a.max_rel_err.max(err);
        }
        a.checks += 1;
    }

    /// Replace `basis[row]` by column `q` entering with step `t` in
    /// direction `σ`, whose transformed column is `d`: update the basic
    /// values, absorb the pivot into the factorization, and refactorize
    /// when the policy says so (update cap, fill growth, or a rejected
    /// update).
    pub(crate) fn pivot(
        &mut self,
        row: usize,
        q: usize,
        d: &[S],
        t: &S,
        sigma_pos: bool,
        to_upper: bool,
    ) {
        shift_basics(&mut self.st.x, d, t, sigma_pos, Some(row));
        self.st.x[row] = entering_value(self.st.upper[q].as_ref(), t, sigma_pos);
        let leave = self.st.basis[row];
        self.st.in_basis[leave] = false;
        self.st.at_upper[leave] = to_upper;
        self.st.in_basis[q] = true;
        self.st.at_upper[q] = false;
        self.st.basis[row] = q;
        let ok = self.st.factors.update(row, d, &self.policy);
        let fill_cap =
            self.policy.max_fill_growth * (self.st.factors.base_nnz().max(self.sf.m) as f64);
        if !ok
            || self.st.factors.fresh() >= self.policy.max_updates
            || (self.st.factors.nnz() as f64) > fill_cap
        {
            self.reinvert();
        }
    }

    /// Refactorize the current basis from scratch under the policy's
    /// Force regime (the basis is nonsingular by invariant; a numerically
    /// degenerate column is dropped only as a last resort and its row
    /// completed from `basis0`), then refresh the basic values as
    /// `B⁻¹ (b − Σ_{j at upper} u_j a_j)`.
    pub(crate) fn reinvert(&mut self) {
        let cols = self.st.basis.clone();
        let refac = self
            .st
            .factors
            .refactorize(self.sf, &cols, RefactorMode::Force, &self.policy)
            .expect("reinvert: current basis must refactorize");
        self.st.basis = refac.basis;
        if refac.dropped {
            // A basic column was numerically dependent and got replaced
            // by its row's basis0 unit column: rebuild the membership
            // flags to match the repaired basis.
            for f in self.st.in_basis.iter_mut() {
                *f = false;
            }
            for &b in &self.st.basis {
                self.st.in_basis[b] = true;
                self.st.at_upper[b] = false;
            }
        }
        self.refresh_basics();
    }

    /// `f64` drift tripwire: check the FTRAN residual
    /// `‖B d − a_q‖∞ ≤ stability_tol · ‖a_q‖∞` of the entering column's
    /// transformed image. A violation means the update chain has gone
    /// numerically bad before the update cap — refactorize now.
    fn ftran_residual_ok(&self, q: usize, d: &[S]) -> bool {
        let mut acc = vec![0.0f64; self.sf.m];
        for (i, di) in d.iter().enumerate() {
            let df = di.to_f64();
            if df == 0.0 {
                continue;
            }
            let (rows, vals) = self.sf.column(self.st.basis[i]);
            for (r, a) in rows.iter().zip(vals) {
                acc[*r] += df * a.to_f64();
            }
        }
        let (rows, vals) = self.sf.column(q);
        let mut anorm = 1.0f64;
        for (r, a) in rows.iter().zip(vals) {
            let af = a.to_f64();
            acc[*r] -= af;
            anorm = anorm.max(af.abs());
        }
        let rmax = acc.iter().fold(0.0f64, |mx, x| mx.max(x.abs()));
        rmax <= self.policy.stability_tol * anorm
    }

    /// Recompute the basic values from the factorization and the
    /// bound-adjusted rhs (flushes f64 drift; exact for `Ratio`).
    fn refresh_basics(&mut self) {
        self.st.x = self.st.adjusted_rhs(self.sf);
        if self.clamp_on_refresh {
            self.st.clamp_basics();
        }
    }

    /// Composite feasibility repair: drive out-of-bound basic values back
    /// into their boxes from a warm basis, without artificials.
    ///
    /// This is the warm path's phase-1 substitute. Each iteration prices
    /// with the **composite infeasibility gradient** — `σ_i = +1` for a
    /// basic below 0, `σ_i = −1` for a basic above its bound, 0 otherwise
    /// (so `y = B⁻ᵀσ` and a nonbasic column improves total infeasibility
    /// iff `−y·a_j` improves in its sign-aware direction) — and steps with
    /// the repair ratio test ([`choose_leaving_repair`]): feasible basics
    /// never leave their boxes, infeasible basics block (and leave) at the
    /// bound they violate. The composite objective is monotone, so
    /// progress is strict outside degenerate ties; a small pivot budget
    /// bounds those, and exhausting it (or finding no improving column —
    /// possible from a bad hint even on feasible LPs) returns `None`: the
    /// caller falls back to a cold solve rather than diagnosing
    /// infeasibility from a warm basis.
    fn composite_repair(&mut self, repair_budget: usize) -> Option<usize> {
        self.clamp_on_refresh = false;
        let out = self.composite_repair_inner(repair_budget);
        self.clamp_on_refresh = true;
        if out.is_some() {
            self.st.clamp_basics();
        }
        out
    }

    fn composite_repair_inner(&mut self, repair_budget: usize) -> Option<usize> {
        let zero_cost = vec![S::zero(); self.sf.ncols];
        let mut active = vec![true; self.sf.ncols];
        for a in active.iter_mut().skip(self.sf.art_start) {
            *a = false;
        }
        // Entering rule mirrors `optimize`: greedy Dantzig pricing on the
        // composite gradient for inexact scalars (steepest infeasibility
        // reduction — Bland's index order crawls on wide repairs), with
        // Bland as the exact-scalar / anti-cycling tail regime. The Bland
        // tail is kept short (the last quarter of the budget): a junk
        // warm basis can need most of the budget under Dantzig — watched
        // walk 227 infeasible rows down to 8 by half-budget and finish
        // around 850 — and a half-budget Bland regime turned exactly
        // those repairs into a crawl (5 rows retired in 800 index-order
        // pivots) that exhausted the budget and went cold.
        let use_bland = S::EXACT;
        let dantzig_cap = if use_bland {
            0
        } else {
            repair_budget - repair_budget / 4
        };
        let mut iters = 0usize;
        let mut d = vec![S::zero(); self.sf.m];
        loop {
            // Classify the current infeasibilities.
            let mut sigma = vec![S::zero(); self.sf.m];
            let mut any = false;
            for (i, &b) in self.st.basis.iter().enumerate() {
                if self.st.x[i].is_negative() {
                    sigma[i] = S::one();
                    any = true;
                } else if let Some(u) = &self.st.upper[b] {
                    if u.sub(&self.st.x[i]).is_negative() {
                        sigma[i] = S::one().neg();
                        any = true;
                    }
                }
            }
            if !any {
                return Some(iters);
            }
            if iters >= repair_budget {
                return None;
            }
            // Composite prices; reduced cost of a zero-cost column under
            // them is exactly −y·a_j.
            self.st.factors.btran(&mut sigma);
            let tp = Instant::now();
            let (pick, scanned) = if use_bland || iters >= dantzig_cap {
                self.entering_bland(&zero_cost, &active, &sigma)
            } else {
                self.entering_dantzig(&zero_cost, &active, &sigma)
            };
            self.stats.priced_columns += scanned;
            self.stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
            let q = pick?;
            let sigma_pos = !self.st.at_upper[q];
            load_column(self.sf, q, &mut d);
            self.st.factors.ftran(&mut d);
            let (leaving, step) = choose_leaving_repair(
                &d,
                &self.st.x,
                &self.st.basis,
                &self.st.upper,
                q,
                sigma_pos,
            )?;
            match leaving {
                Leaving::Flip => {
                    shift_basics(&mut self.st.x, &d, &step, sigma_pos, None);
                    self.st.at_upper[q] = !self.st.at_upper[q];
                }
                Leaving::Row { row, to_upper } => {
                    self.pivot(row, q, &d, &step, sigma_pos, to_upper);
                }
            }
            iters += 1;
        }
    }

    /// Run pivots until optimality/unboundedness/limit for the given cost.
    /// The entering rule comes from `opts.pricing` (resolved per scalar);
    /// every non-Bland rule degrades to Bland past half the budget, the
    /// anti-cycling stall fallback. The devex reference framework is
    /// per-phase: fresh weights on every call.
    ///
    /// Devex and Dantzig select from **maintained reduced costs** (see the
    /// module header): seeded by one full sweep, carried across pivots by
    /// [`update_reduced_costs`](Self::update_reduced_costs), reseeded
    /// after every refactorization — and optimality is only ever declared
    /// on a fresh sweep. Bland reprices from scratch every iteration and
    /// never consults the cache.
    fn optimize(
        &mut self,
        cost: &[S],
        active: &[bool],
        opts: &SimplexOptions,
        budget: &mut usize,
    ) -> Result<usize, SolveError> {
        let rule = opts.pricing.resolve::<S>();
        let mut iters = 0usize;
        let greedy_cap = match rule {
            PivotRule::Bland => 0,
            _ if self.presolve => usize::MAX,
            _ => budget.saturating_div(2),
        };
        let mut devex = matches!(rule, PivotRule::Devex).then(|| Devex::new(self.sf.ncols));
        let mut z: Vec<S> = Vec::new();
        // Refactorization count `z` was last seeded at (none yet).
        let mut seeded_at = usize::MAX;
        let mut d = vec![S::zero(); self.sf.m];
        // Pre-solve stall watch: the fewest basic artificials seen in this
        // phase, and the pivots since the last objective move or new low.
        let mut fewest_arts = usize::MAX;
        let mut stalled = 0usize;
        loop {
            let tp = Instant::now();
            let priced_before = self.stats.priced_columns;
            let bland = iters >= greedy_cap;
            let entering = if bland {
                let y = self.prices(cost);
                let (pick, scanned) = self.entering_bland(cost, active, &y);
                self.stats.priced_columns += scanned;
                pick
            } else {
                let stale = self.st.factors.refactorizations() != seeded_at;
                if stale {
                    seeded_at = self.reseed(cost, active, &mut z);
                }
                let mut pick = self.entering_cached(&z, devex.as_ref());
                if pick.is_none() && !stale {
                    // Nothing improves on maintained values: that is a
                    // claim about accumulated arithmetic, not a proof.
                    // Only a fresh sweep may call the basis optimal.
                    seeded_at = self.reseed(cost, active, &mut z);
                    pick = self.entering_cached(&z, devex.as_ref());
                }
                pick
            };
            self.stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
            let Some(q) = entering else {
                if let Some(a) = self.audit.as_mut() {
                    a.final_sweep = self.stats.priced_columns - priced_before;
                }
                return Ok(iters);
            };
            let sigma_pos = !self.st.at_upper[q];
            load_column(self.sf, q, &mut d);
            self.st.factors.ftran(&mut d);
            if !S::EXACT
                && self.policy.residual_interval > 0
                && self.st.factors.fresh() >= self.policy.residual_interval
                && self
                    .st
                    .factors
                    .fresh()
                    .is_multiple_of(self.policy.residual_interval)
                && !self.ftran_residual_ok(q, &d)
            {
                // Update-chain drift caught by the residual trigger:
                // rebuild the factors and re-run the iteration on fresh
                // numbers (fresh() == 0 afterwards, so no re-trigger; the
                // refactorization also reseeds the reduced costs).
                self.reinvert();
                continue;
            }
            let Some((leaving, step)) =
                choose_leaving(&d, &self.st.x, &self.st.basis, &self.st.upper, q, sigma_pos)
            else {
                return Err(SolveError::Unbounded);
            };
            match leaving {
                // A bound flip changes no basis, hence no reduced cost.
                Leaving::Flip => {
                    shift_basics(&mut self.st.x, &d, &step, sigma_pos, None);
                    self.st.at_upper[q] = !self.st.at_upper[q];
                }
                Leaving::Row { row, to_upper } => {
                    if !bland {
                        self.update_reduced_costs(row, q, &d, active, &mut z, devex.as_mut());
                    }
                    self.pivot(row, q, &d, &step, sigma_pos, to_upper);
                }
            }
            if !bland {
                self.audit_cache(cost, active, &z);
            }
            iters += 1;
            self.pivots += 1;
            if self.presolve {
                let art_start = self.sf.art_start;
                let arts = self.st.basis.iter().filter(|&&b| b >= art_start).count();
                if step.is_positive() || arts < fewest_arts {
                    fewest_arts = fewest_arts.min(arts);
                    stalled = 0;
                } else {
                    stalled += 1;
                }
            }
            if iters >= *budget || stalled > self.sf.m + 16 {
                return Err(SolveError::IterationLimit);
            }
        }
    }

    /// Run phase 2 (the real objective; artificials inactive) and package
    /// the output. `budget` must already account for phase-1 spending.
    fn phase2_and_extract(
        &mut self,
        opts: &SimplexOptions,
        budget: &mut usize,
        phase1_iters: usize,
    ) -> Result<KernelOutput<S>, SolveError> {
        let sf = self.sf;
        let mut active = vec![true; sf.ncols];
        for a in active.iter_mut().skip(sf.art_start) {
            *a = false;
        }
        let it = self.optimize(&sf.cost2, &active, opts, budget)?;
        let total_iters = phase1_iters + it;

        let mut values = vec![S::zero(); sf.nstruct];
        for (j, v) in values.iter_mut().enumerate() {
            if self.st.at_upper[j] {
                *v = sf.upper[j].clone().expect("at_upper implies a bound");
            }
        }
        for (i, &b) in self.st.basis.iter().enumerate() {
            if b < sf.nstruct {
                values[b] = self.st.x[i].clone();
            }
        }

        // Witness reduced costs from the final dual prices: the witness of
        // raw row k is a `+e_k` column with zero phase-2 cost, so its
        // reduced cost is exactly `-y_k`. Active bounds take their
        // multiplier from the column's own reduced cost (`μ_j = z_j ≥ 0`
        // at optimality for at-upper columns).
        let y = self.prices(&sf.cost2);
        let reduced_witness = (0..sf.witness.len()).map(|k| y[k].neg()).collect();
        let bound_mults = (0..sf.nstruct)
            .map(|j| {
                if self.st.at_upper[j] {
                    self.reduced_cost(j, &sf.cost2, &y)
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
            pivot_rule: opts.pricing.resolve::<S>(),
            pricing: self.stats,
            factor: self.st.factors.stats(),
            basis: self.st.basis.clone(),
            at_upper: self.st.at_upper.clone(),
        })
    }
}

/// The cold two-phase solve with the reduced-cost cache under audit:
/// after every primal step taken under a cached rule, every cache
/// entry is compared against a from-scratch repricing. Test
/// instrumentation — the differential tests' window into the loop.
#[doc(hidden)]
pub fn solve_audited<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
) -> Result<(KernelOutput<S>, CacheAudit), SolveError> {
    let mut audit = CacheAudit::default();
    let out = solve_cold(sf, opts, Some(&mut audit))?;
    Ok((out, audit))
}

/// The full cold two-phase solve (`audit` is `None` everywhere but
/// [`solve_audited`]).
fn solve_cold<'e, S: Scalar>(
    sf: &'e StandardForm<S>,
    opts: &SimplexOptions,
    audit: Option<&'e mut CacheAudit>,
) -> Result<KernelOutput<S>, SolveError> {
    let mut eng = Engine::new(sf, SparseState::cold(sf, opts.factor), opts);
    eng.audit = audit;
    two_phase(&mut eng, opts)
}

/// The two-phase solve from the engine's slack/artificial identity basis.
fn two_phase<S: Scalar>(
    eng: &mut Engine<'_, S>,
    opts: &SimplexOptions,
) -> Result<KernelOutput<S>, SolveError> {
    let sf = eng.sf;
    let mut budget = opts.budget(sf.m, sf.ncols);
    let mut phase1_iters = 0usize;

    // Phase 1: drive the artificials to zero.
    if sf.num_artificials() > 0 {
        let mut cost1 = vec![S::zero(); sf.ncols];
        for c in cost1.iter_mut().skip(sf.art_start) {
            *c = S::one().neg();
        }
        let active = vec![true; sf.ncols];
        let it = eng.optimize(&cost1, &active, opts, &mut budget);
        eng.phase1_pivots = eng.pivots;
        let it = it?;
        phase1_iters = it;
        budget = budget.saturating_sub(it);
        if budget == 0 {
            return Err(SolveError::IterationLimit);
        }
        let mut art_sum = S::zero();
        for (i, &b) in eng.st.basis.iter().enumerate() {
            if b >= sf.art_start {
                art_sum = art_sum.add(&eng.st.x[i]);
            }
        }
        if !art_sum.is_zero() {
            return Err(SolveError::Infeasible);
        }
        // Snap lingering zero-level artificials to exact zero and pin
        // every artificial to u = 0; the bounded ratio test keeps them
        // at level zero through phase 2.
        for (i, &b) in eng.st.basis.iter().enumerate() {
            if b >= sf.art_start {
                eng.st.x[i] = S::zero();
            }
        }
        for u in eng.st.upper.iter_mut().skip(sf.art_start) {
            *u = Some(S::zero());
        }
    }

    eng.phase2_and_extract(opts, &mut budget, phase1_iters)
}

/// `f64` pivots the pre-solve of a hint-less exact solve may take before
/// it is abandoned for the exact two-phase solve. A stall ends it sooner
/// (see `Engine::presolve`). On the broadcast LPs at p ≤ 10, a
/// successful `f64` solve needs up to 2.2·(m + 16) pivots; an exact
/// pivot there costs about ten `f64` ones, so a failed pre-solve wastes
/// a few percent of the exact solve that follows it.
fn presolve_budget(m: usize) -> usize {
    3 * (m + 16)
}

/// The work of a kernel pass, finished or not: what a hint-less exact
/// solve adds onto its result from its `f64` pre-solve.
struct Spent {
    pivots: usize,
    phase1_pivots: usize,
    pricing: PricingStats,
    factor: FactorStats,
}

/// Step 1 of a hint-less exact solve: the `f64` two-phase solve on an
/// `f64` copy of `sf`, capped at [`presolve_budget`] pivots. Returns the
/// final basis as a hint (`None` when the pre-solve failed) and the work
/// it did. The `f64` form and output die here, before any exact work
/// starts.
fn float_presolve<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
) -> (Option<WarmStart>, Spent) {
    let sf64 = sf.to_f64();
    let opts64 = SimplexOptions {
        max_iterations: presolve_budget(sf.m).min(opts.budget(sf.m, sf.ncols)),
        ..opts.clone()
    };
    let mut eng = Engine::new(&sf64, SparseState::cold(&sf64, opts.factor), &opts64);
    eng.presolve = true;
    let hint = two_phase(&mut eng, &opts64)
        .ok()
        .map(|out| WarmStart::from_output(&sf64, &out));
    let spent = Spent {
        pivots: eng.pivots,
        phase1_pivots: eng.phase1_pivots,
        pricing: eng.stats,
        factor: eng.st.factors.stats(),
    };
    (hint, spent)
}

/// A hint-less solve on an exact scalar: `f64` finds the basis, exact
/// arithmetic proves it (Applegate–Cook–Dash–Espinoza, *Exact solutions
/// to linear programming problems*, ORL 2007).
///
/// 1. [`float_presolve`] runs the `f64` two-phase solve under a pivot
///    budget linear in `m`.
/// 2. Its basis seeds the exact warm entry ([`solve_warm`] with a hint):
///    an optimal `f64` basis refactorizes exactly and phase 2 proves it
///    with no pivot; a wrong one is repaired by the warm ladder, whose
///    last rung is the exact cold solve.
/// 3. A pre-solve that failed (budget, or a verdict `f64` cannot be
///    trusted with) hands over to the exact two-phase solve from the
///    identity basis, which owns every infeasible/unbounded verdict.
///
/// The run reports [`WarmOutcome::Cold`] with both passes' work summed;
/// [`KernelOutput::exact_continuation_pivots`] holds the exact pass's
/// pivots.
fn solve_exact_cold<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
) -> Result<KernelRun<S>, SolveError> {
    let (hint, spent) = float_presolve(sf, opts);
    let mut run = match hint {
        Some(h) => solve_warm(sf, opts, Some(&h))?,
        None => KernelRun {
            output: solve_cold(sf, opts, None)?,
            outcome: WarmOutcome::Cold,
            mismatch: None,
        },
    };
    run.outcome = WarmOutcome::Cold;
    let out = &mut run.output;
    out.exact_continuation_pivots = out.iterations;
    out.iterations += spent.pivots;
    out.phase1_iterations += spent.phase1_pivots;
    out.pricing.absorb(&spent.pricing);
    out.factor.absorb(&spent.factor);
    Ok(run)
}

/// Warm-capable solve: reuse the hinted basis + statuses when the
/// shape matches and the basis refactorizes to a (possibly repaired)
/// feasible point, skipping phase 1 entirely; otherwise fall back to
/// the cold two-phase path. Without a hint, an exact scalar goes through
/// [`solve_exact_cold`], which comes back here with an `f64` basis.
///
/// The repair ladder when drift broke primal feasibility
/// (see [`crate::warm`] for the full five-state machine):
///
/// 1. **Dual repair** ([`crate::dual`]) — after pure cost/bound drift
///    the warm basis is still dual feasible (and mild matrix drift is
///    usually bound-flip-fixable), so the bounded dual simplex prices
///    the infeasible *rows* out directly, staying on optimal-side
///    bases the whole way: phase 2 then has (nearly) nothing to do.
/// 2. **Composite primal repair** — the phase-1 substitute kept for
///    structural drift that breaks dual feasibility beyond flips.
/// 3. **Cold fallback** — both repairs gave the basis up.
pub(crate) fn solve_warm<S: Scalar>(
    sf: &StandardForm<S>,
    opts: &SimplexOptions,
    warm: Option<&WarmStart>,
) -> Result<KernelRun<S>, SolveError> {
    let cold = |outcome: WarmOutcome,
                mismatch: Option<ShapeMismatch>|
     -> Result<KernelRun<S>, SolveError> {
        Ok(KernelRun {
            output: solve_cold(sf, opts, None)?,
            outcome,
            mismatch,
        })
    };
    let Some(w) = warm else {
        if S::EXACT {
            return solve_exact_cold(sf, opts);
        }
        return cold(WarmOutcome::Cold, None);
    };
    if let Some(mm) = w.shape_mismatch(sf) {
        return cold(WarmOutcome::ColdFallback, Some(mm));
    }
    let Some((st, patched)) = SparseState::from_warm(sf, w, opts.factor, &opts.refactor) else {
        return cold(WarmOutcome::ColdFallback, None);
    };
    let mut eng = Engine::new(sf, st, opts);
    let mut repair_iters = 0usize;
    let mut outcome = if patched {
        WarmOutcome::Repaired
    } else {
        WarmOutcome::Warm
    };
    if !eng.st.is_feasible() {
        // Dual first: it walks optimal-side bases, so success means
        // phase 2 is (near-)free. Each dual pivot retires one violated
        // row (new ones appear and are retired in turn); a ~2m budget
        // lets even a hint with a third of its rows knocked out of
        // their boxes converge, while the mild-drift common case
        // exits after a handful of pivots regardless.
        let saved = eng.st.clone();
        // One attempt, one pricing mode: the dual loop computes each
        // pivot row row-wise over ρ's support (see `dual_loop`), which
        // is exact full pricing at a restricted scan's cost — there is
        // no cheaper-but-incomplete mode left to try first, and a
        // second attempt from the snapshot would replay the same
        // deterministic trajectory with a bigger budget.
        match eng.dual_repair(sf.m + 64) {
            Some(it) => {
                repair_iters = it;
                outcome = WarmOutcome::DualRepaired;
            }
            None => {
                // Composite primal repair from the untouched state.
                // Budget ~m/4: drift typically breaks a handful of
                // rows; a repair needing cold-solve-scale pivots is
                // not worth finishing.
                eng.st = saved;
                // Last rung before giving the basis up: a composite
                // repair that runs long still beats re-earning the
                // whole basis from a cold identity start, so the
                // last-resort budget is a full m.
                match eng.composite_repair(2 * sf.m + 64) {
                    Some(it) => {
                        repair_iters = it;
                        outcome = WarmOutcome::Repaired;
                    }
                    None => return cold(WarmOutcome::ColdFallback, None),
                }
            }
        }
    } else {
        eng.st.clamp_basics();
    }
    let mut budget = opts.budget(sf.m, sf.ncols).saturating_sub(repair_iters);
    match eng.phase2_and_extract(opts, &mut budget, repair_iters) {
        Ok(output) => Ok(KernelRun {
            output,
            outcome,
            mismatch: None,
        }),
        // A warm basis that stalls the pivot budget (f64 cycling from
        // an unusual start) is abandoned, not fatal.
        Err(SolveError::IterationLimit) => cold(WarmOutcome::ColdFallback, None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_num::Ratio;

    #[test]
    fn warm_state_rebuilds_and_detects_infeasible_hints() {
        use crate::{lower, Cmp, Problem, Sense};
        // maximize x + y  s.t.  x + y ≤ 4,  x ≤ 3 (box),  y ≤ 3 (box).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::from_int(3));
        let y = p.add_var_bounded("y", Ratio::from_int(3));
        p.set_objective_coeff(x, Ratio::one());
        p.set_objective_coeff(y, Ratio::one());
        p.add_constraint(
            "cap",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(4),
        );
        let sf = lower::<Ratio>(&p);
        let out = solve_cold(&sf, &SimplexOptions::default(), None).unwrap();
        let ws = WarmStart::from_output(&sf, &out);
        let pol = RefactorPolicy::default();
        // The optimal basis snapshot refactorizes feasibly, no repair —
        // under either factorization backend.
        for kind in [Factor::EtaFile, Factor::SparseLu] {
            let (st, repaired) = SparseState::from_warm(&sf, &ws, kind, &pol).unwrap();
            assert!(!repaired);
            assert!(st.is_feasible());
        }
        // A hint resting both columns at their upper bounds (x = y = 3)
        // overshoots the cap row: the slack basic goes negative — primal
        // infeasible, composite repair territory.
        let bad = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![true, true, false],
        );
        let (st, _) = SparseState::from_warm(&sf, &bad, Factor::SparseLu, &pol).unwrap();
        assert!(!st.is_feasible());
        // End to end, the repair pass restores feasibility and the solve
        // still lands on the true optimum (x + y = 4).
        let ws2 = solve_warm(&sf, &SimplexOptions::default(), Some(&bad)).unwrap();
        assert!(ws2.outcome.used_warm_basis());
        let obj: Ratio = sf
            .cost2
            .iter()
            .zip(&ws2.output.values)
            .map(|(c, v)| c * v)
            .sum();
        assert_eq!(obj, Ratio::from_int(4));
    }
}
