//! Shared standard-form lowering: one [`Problem`] → one [`StandardForm`],
//! consumed by every [`Kernel`](crate::Kernel).
//!
//! The lowering is the part of a simplex solve that is independent of the
//! pivoting engine: flip negative right-hand sides, append slack/surplus
//! and artificial columns, record the dual *witness* column of every raw
//! row, and carry variable upper bounds. Kernels see a maximize-form system
//!
//! ```text
//! maximize  cost2 · x   s.t.   A x = rhs,  0 ≤ x ≤ u,  rhs ≥ 0
//! ```
//!
//! with the constraint matrix stored once in **compressed sparse column**
//! (CSC) form — the dense tableau kernel scatters it into rows, the sparse
//! revised-simplex kernel consumes it directly — plus an initial basis
//! `basis0` that is exactly the identity (one slack or artificial unit
//! column per row).
//!
//! ## Bound handling
//!
//! Variable upper bounds `x_j ≤ u_j` have two lowerings, selected by
//! [`BoundMode`]:
//!
//! * [`BoundMode::Native`] (the default) keeps each bound as **column
//!   metadata** in [`StandardForm::upper`]. Kernels run the
//!   bounded-variable ratio test: nonbasic variables rest at *either*
//!   bound (`AtLower`/`AtUpper`), pricing is sign-aware, and an entering
//!   variable may simply flip to its opposite bound without a basis
//!   change. The basis stays the size of the explicit constraint set —
//!   on the steady-state LPs this is ~10x fewer rows than lowering.
//! * [`BoundMode::LoweredRows`] appends one explicit `x_j ≤ u_j` row per
//!   bound (the pre-bounded behaviour), kept alive as an agreement oracle
//!   for tests and cross-checks.

use crate::pricing::PricingStats;
use crate::problem::{Cmp, Problem, Sense};
use crate::scalar::Scalar;
use crate::solution::{PivotRule, Solution};

/// How variable upper bounds are handed to the kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BoundMode {
    /// Keep `0 ≤ x ≤ u` as column metadata; kernels run the
    /// bounded-variable ratio test (smaller basis, bound flips).
    #[default]
    Native,
    /// Lower each upper bound into an explicit `x ≤ u` row (the legacy
    /// shape; the agreement oracle for the native path).
    LoweredRows,
}

/// A lowered LP in kernel-ready standard form, scalar type `S`.
///
/// Column layout: `0..nstruct` structural variables in [`Problem`] order,
/// then one slack/surplus column per row that needs one (in row order),
/// then one artificial column per `≥`/`=` row (in row order, starting at
/// [`StandardForm::art_start`]).
#[derive(Clone, Debug)]
pub struct StandardForm<S> {
    /// Number of rows (explicit constraints, plus lowered upper bounds in
    /// [`BoundMode::LoweredRows`]).
    pub m: usize,
    /// Total columns: structural + slack/surplus + artificial.
    pub ncols: usize,
    /// Number of structural (problem) variables.
    pub nstruct: usize,
    /// First artificial column index; columns `art_start..ncols` may never
    /// re-enter the basis in phase 2.
    pub art_start: usize,
    /// CSC column pointers, length `ncols + 1`.
    pub col_ptr: Vec<usize>,
    /// CSC row indices, sorted ascending within each column.
    pub row_idx: Vec<usize>,
    /// CSC nonzero values, parallel to `row_idx`.
    pub vals: Vec<S>,
    /// Right-hand side per row, normalized non-negative.
    pub rhs: Vec<S>,
    /// Initial basis: the slack (`≤`) or artificial (`≥`, `=`) column of
    /// each row. With the sign normalization these are `+e_i` columns, so
    /// the initial basis matrix is the identity.
    pub basis0: Vec<usize>,
    /// Dual witness column per raw row: a `+e_i` column with zero phase-2
    /// cost, whose final reduced cost is exactly `-y_i`.
    pub witness: Vec<usize>,
    /// Rows whose sign was flipped during rhs normalization (their duals
    /// flip back at extraction).
    pub flipped: Vec<bool>,
    /// `true` if the problem was a minimization lowered to maximize form.
    pub negate: bool,
    /// Phase-2 objective over all columns, in maximize form (zero on
    /// slack/surplus/artificial columns).
    pub cost2: Vec<S>,
    /// Number of explicit constraint rows (the first `num_explicit` raw
    /// rows); the remainder are lowered upper bounds
    /// ([`BoundMode::LoweredRows`] only — `num_explicit == m` natively).
    pub num_explicit: usize,
    /// For raw row `num_explicit + k`: the variable whose upper bound it
    /// lowers ([`BoundMode::LoweredRows`] only; empty natively).
    pub bound_vars: Vec<usize>,
    /// Per-column upper bound ([`BoundMode::Native`] only; all `None` in
    /// [`BoundMode::LoweredRows`]). Slack, surplus and artificial columns
    /// are never bounded.
    pub upper: Vec<Option<S>>,
    /// The bound handling this form was lowered with.
    pub bound_mode: BoundMode,
}

impl<S: Scalar> StandardForm<S> {
    /// The nonzeros of column `j` as parallel `(rows, values)` slices.
    #[inline]
    pub fn column(&self, j: usize) -> (&[usize], &[S]) {
        let r = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[r.clone()], &self.vals[r])
    }

    /// Number of artificial columns.
    #[inline]
    pub fn num_artificials(&self) -> usize {
        self.ncols - self.art_start
    }

    /// Total stored nonzeros of the constraint matrix.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The same form in `f64`: identical layout, every number rounded.
    pub(crate) fn to_f64(&self) -> StandardForm<f64> {
        let cast = |v: &[S]| v.iter().map(S::to_f64).collect::<Vec<f64>>();
        StandardForm {
            m: self.m,
            ncols: self.ncols,
            nstruct: self.nstruct,
            art_start: self.art_start,
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            vals: cast(&self.vals),
            rhs: cast(&self.rhs),
            basis0: self.basis0.clone(),
            witness: self.witness.clone(),
            flipped: self.flipped.clone(),
            negate: self.negate,
            cost2: cast(&self.cost2),
            num_explicit: self.num_explicit,
            bound_vars: self.bound_vars.clone(),
            upper: self
                .upper
                .iter()
                .map(|u| u.as_ref().map(S::to_f64))
                .collect(),
            bound_mode: self.bound_mode,
        }
    }
}

/// What a kernel hands back: enough to reconstruct the full [`Solution`]
/// without the kernel knowing about senses, flips, or bound lowering.
#[derive(Clone, Debug)]
pub struct KernelOutput<S> {
    /// Structural variable values at the optimum (nonbasic-at-upper
    /// variables report their bound).
    pub values: Vec<S>,
    /// Final phase-2 reduced cost of each raw row's witness column
    /// (`= -y_i` in the normalized maximize system).
    pub reduced_witness: Vec<S>,
    /// Bound multiplier `μ_j ≥ 0` per structural variable in the
    /// normalized maximize system: the final reduced cost of column `j`
    /// when it is nonbasic at its upper bound, zero otherwise. Only
    /// meaningful under [`BoundMode::Native`] (bounds have no columns of
    /// their own when lowered to rows).
    pub bound_mults: Vec<S>,
    /// Total pivots across both phases (bound flips included).
    pub iterations: usize,
    /// Pivots spent in phase 1.
    pub phase1_iterations: usize,
    /// Pivots run in exact arithmetic after the `f64` pre-solve of a
    /// hint-less exact solve on the sparse kernel; 0 on every other
    /// solve. Included in [`KernelOutput::iterations`].
    pub exact_continuation_pivots: usize,
    /// Entering-variable rule the kernel ran with.
    pub pivot_rule: PivotRule,
    /// Pricing work done: columns priced, wall-clock spent selecting
    /// entering columns, dual full-sweep fallbacks.
    pub pricing: PricingStats,
    /// Basis-factorization work done: backend, wall-clock split between
    /// refactorization / Forrest–Tomlin updates / FTRAN+BTRAN solves, and
    /// factor fill (see [`FactorStats`](crate::FactorStats)). Zeroed by the
    /// dense tableau, which keeps no factorization.
    pub factor: crate::factor::FactorStats,
    /// Final basic columns (a set; may be shorter than `m` when the kernel
    /// dropped redundant rows). Feeds
    /// [`WarmStart::from_output`](crate::WarmStart::from_output).
    pub basis: Vec<usize>,
    /// Final nonbasic-at-upper status per column (length `ncols`).
    pub at_upper: Vec<bool>,
}

/// Lower `problem` into kernel-ready standard form with native bounds
/// ([`BoundMode::Native`]).
pub fn lower<S: Scalar>(problem: &Problem) -> StandardForm<S> {
    lower_with::<S>(problem, BoundMode::Native)
}

/// Lower `problem` with an explicit [`BoundMode`].
pub fn lower_with<S: Scalar>(problem: &Problem, bound_mode: BoundMode) -> StandardForm<S> {
    let nstruct = problem.num_vars();

    struct RawRow<S> {
        coeffs: Vec<(usize, S)>,
        cmp: Cmp,
        rhs: S,
    }
    let mut raw: Vec<RawRow<S>> = Vec::with_capacity(problem.rows.len());
    for row in &problem.rows {
        raw.push(RawRow {
            coeffs: row
                .expr
                .terms()
                .iter()
                .map(|(v, c)| (v.index(), S::from_ratio(c)))
                .collect(),
            cmp: row.cmp,
            rhs: S::from_ratio(&row.rhs),
        });
    }
    let num_explicit = raw.len();
    let mut bound_vars = Vec::new();
    if bound_mode == BoundMode::LoweredRows {
        for (j, ub) in problem.upper_bounds().iter().enumerate() {
            if let Some(ub) = ub {
                raw.push(RawRow {
                    coeffs: vec![(j, S::one())],
                    cmp: Cmp::Le,
                    rhs: S::from_ratio(ub),
                });
                bound_vars.push(j);
            }
        }
    }

    let m = raw.len();
    let mut nslack = 0usize;
    let mut nart = 0usize;
    let mut flipped = vec![false; m];
    for (i, r) in raw.iter_mut().enumerate() {
        if r.rhs.is_negative() {
            for (_, c) in r.coeffs.iter_mut() {
                *c = c.neg();
            }
            r.rhs = r.rhs.neg();
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            flipped[i] = true;
        }
        match r.cmp {
            Cmp::Le => nslack += 1,
            Cmp::Ge => {
                nslack += 1;
                nart += 1;
            }
            Cmp::Eq => nart += 1,
        }
    }

    let ncols = nstruct + nslack + nart;
    let art_start = nstruct + nslack;

    // Per-column nonzero lists (rows pushed in ascending order because the
    // raw rows are scanned in order).
    let mut cols: Vec<Vec<(usize, S)>> = vec![Vec::new(); ncols];
    let mut basis0 = vec![usize::MAX; m];
    let mut witness = Vec::with_capacity(m);
    let mut next_slack = nstruct;
    let mut next_art = art_start;
    let mut rhs = Vec::with_capacity(m);
    for (i, r) in raw.iter().enumerate() {
        for (j, c) in &r.coeffs {
            cols[*j].push((i, c.clone()));
        }
        rhs.push(r.rhs.clone());
        match r.cmp {
            Cmp::Le => {
                cols[next_slack].push((i, S::one()));
                basis0[i] = next_slack;
                witness.push(next_slack);
                next_slack += 1;
            }
            Cmp::Ge => {
                cols[next_slack].push((i, S::one().neg()));
                next_slack += 1;
                cols[next_art].push((i, S::one()));
                basis0[i] = next_art;
                witness.push(next_art);
                next_art += 1;
            }
            Cmp::Eq => {
                cols[next_art].push((i, S::one()));
                basis0[i] = next_art;
                witness.push(next_art);
                next_art += 1;
            }
        }
    }

    let nnz: usize = cols.iter().map(Vec::len).sum();
    let mut col_ptr = Vec::with_capacity(ncols + 1);
    let mut row_idx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    col_ptr.push(0);
    for col in cols {
        for (i, v) in col {
            row_idx.push(i);
            vals.push(v);
        }
        col_ptr.push(row_idx.len());
    }

    let negate = matches!(problem.sense(), Sense::Minimize);
    let mut cost2 = vec![S::zero(); ncols];
    for (j, c) in problem.objective_terms() {
        let c = S::from_ratio(c);
        cost2[j] = if negate { c.neg() } else { c };
    }

    let mut upper = vec![None; ncols];
    if bound_mode == BoundMode::Native {
        for (j, ub) in problem.upper_bounds().iter().enumerate() {
            if let Some(ub) = ub {
                upper[j] = Some(S::from_ratio(ub));
            }
        }
    }

    StandardForm {
        m,
        ncols,
        nstruct,
        art_start,
        col_ptr,
        row_idx,
        vals,
        rhs,
        basis0,
        witness,
        flipped,
        negate,
        cost2,
        num_explicit,
        bound_vars,
        upper,
        bound_mode,
    }
}

/// Numerically re-lower `problem` **into** an existing same-pattern `sf`,
/// skipping the symbolic work (column layout, CSC pattern, basis/witness
/// assignment) that [`lower_with`] repeats from scratch on every solve.
///
/// This is the amortization lever behind batched re-plan serving: a
/// re-solve session keeps the lowered form of its first solve and every
/// subsequent drift re-plan only rewrites the numeric arrays (`vals`,
/// `rhs`, `cost2`, `upper`, `flipped`) in place — no intermediate
/// per-column `Vec` building, no CSC reassembly, no allocation at all.
///
/// Returns `true` when the refresh succeeded. Returns `false` when the
/// problem no longer matches the form's symbolic pattern — different
/// row/column counts, a drifted right-hand side changing sign (which
/// re-types the row's slack/artificial layout), a bound appearing or
/// disappearing, or a changed sense. **On `false` the form's numeric
/// contents are unspecified**: the caller must discard it and re-lower
/// with [`lower_with`].
///
/// Only [`BoundMode::Native`] forms are refreshable (the lowered-rows
/// oracle re-lowers fully, keeping the agreement path simple).
pub fn refresh<S: Scalar>(problem: &Problem, sf: &mut StandardForm<S>) -> bool {
    if sf.bound_mode != BoundMode::Native
        || problem.num_vars() != sf.nstruct
        || problem.rows.len() != sf.m
        || sf.num_explicit != sf.m
        || matches!(problem.sense(), Sense::Minimize) != sf.negate
    {
        return false;
    }
    // Per-column write cursors: entries of a column were pushed in
    // ascending row order by `lower_with`, and we scan rows in the same
    // order, so each nonzero's flat position is the next unwritten slot of
    // its column.
    let mut cursor: Vec<usize> = sf.col_ptr[..sf.ncols].to_vec();
    let mut next_slack = sf.nstruct;
    let mut next_art = sf.art_start;
    for (i, row) in problem.rows.iter().enumerate() {
        let mut rhs = S::from_ratio(&row.rhs);
        let flip = rhs.is_negative();
        if flip {
            rhs = rhs.neg();
        }
        let cmp = if flip {
            match row.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            }
        } else {
            row.cmp
        };
        for (v, c) in row.expr.terms() {
            let j = v.index();
            let k = cursor[j];
            if k >= sf.col_ptr[j + 1] || sf.row_idx[k] != i {
                return false;
            }
            let val = S::from_ratio(c);
            sf.vals[k] = if flip { val.neg() } else { val };
            cursor[j] = k + 1;
        }
        sf.rhs[i] = rhs;
        sf.flipped[i] = flip;
        // Re-type the row's slack/artificial columns, checking the
        // assignment matches the recorded pattern exactly.
        let mut place = |col: usize, val: S, cursor: &mut [usize]| -> bool {
            let k = cursor[col];
            if k >= sf.col_ptr[col + 1] || sf.row_idx[k] != i {
                return false;
            }
            sf.vals[k] = val;
            cursor[col] = k + 1;
            true
        };
        match cmp {
            Cmp::Le => {
                if sf.basis0[i] != next_slack
                    || sf.witness[i] != next_slack
                    || !place(next_slack, S::one(), &mut cursor)
                {
                    return false;
                }
                next_slack += 1;
            }
            Cmp::Ge => {
                if sf.basis0[i] != next_art
                    || sf.witness[i] != next_art
                    || !place(next_slack, S::one().neg(), &mut cursor)
                {
                    return false;
                }
                next_slack += 1;
                if !place(next_art, S::one(), &mut cursor) {
                    return false;
                }
                next_art += 1;
            }
            Cmp::Eq => {
                if sf.basis0[i] != next_art
                    || sf.witness[i] != next_art
                    || !place(next_art, S::one(), &mut cursor)
                {
                    return false;
                }
                next_art += 1;
            }
        }
    }
    if next_slack != sf.art_start || next_art != sf.ncols {
        return false;
    }
    // Every stored nonzero must have been rewritten — a leftover slot
    // means the problem lost a coefficient the pattern still carries.
    if (0..sf.ncols).any(|j| cursor[j] != sf.col_ptr[j + 1]) {
        return false;
    }
    for c in sf.cost2.iter_mut() {
        *c = S::zero();
    }
    for (j, c) in problem.objective_terms() {
        let c = S::from_ratio(c);
        sf.cost2[j] = if sf.negate { c.neg() } else { c };
    }
    for (j, ub) in problem.upper_bounds().iter().enumerate() {
        match (ub, sf.upper[j].is_some()) {
            (Some(u), true) => sf.upper[j] = Some(S::from_ratio(u)),
            (None, false) => {}
            _ => return false,
        }
    }
    true
}

/// Package a kernel's output into the public [`Solution`]: recompute the
/// objective from the point (exact, sign-safe), and undo the rhs flips and
/// the minimize negation on the duals and bound multipliers.
pub fn assemble<S: Scalar>(
    problem: &Problem,
    sf: &StandardForm<S>,
    out: KernelOutput<S>,
    kernel: crate::kernel::Kernel,
) -> Solution<S> {
    let mut objective = S::zero();
    for (j, c) in problem.objective_terms() {
        objective = objective.add(&S::from_ratio(c).mul(&out.values[j]));
    }

    let mut row_duals = Vec::with_capacity(sf.num_explicit);
    let mut bound_duals = vec![None; sf.nstruct];
    for (k, rw) in out.reduced_witness.iter().enumerate() {
        let mut y = rw.neg();
        if sf.flipped[k] {
            y = y.neg();
        }
        if sf.negate {
            y = y.neg();
        }
        if k < sf.num_explicit {
            row_duals.push(y);
        } else {
            bound_duals[sf.bound_vars[k - sf.num_explicit]] = Some(y);
        }
    }
    if sf.bound_mode == BoundMode::Native {
        // Native bounds have no witness rows; the multiplier of an active
        // bound is the column's own final reduced cost (sign-corrected for
        // minimization, exactly like the row duals).
        for (j, ub) in problem.upper_bounds().iter().enumerate() {
            if ub.is_some() {
                let mu = &out.bound_mults[j];
                bound_duals[j] = Some(if sf.negate { mu.neg() } else { mu.clone() });
            }
        }
    }

    Solution::new(
        out.values,
        objective,
        out.iterations,
        out.phase1_iterations,
        out.exact_continuation_pivots,
        out.pivot_rule,
        kernel,
        out.pricing,
        out.factor,
        row_duals,
        bound_duals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_num::Ratio;

    fn two_row_bounded_problem() -> Problem {
        use crate::problem::Sense;
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var_bounded("x", Ratio::from_int(5));
        let y = p.add_var("y");
        p.set_objective_coeff(x, Ratio::one());
        p.add_constraint(
            "ge",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Ge,
            Ratio::from_int(2),
        );
        p.add_constraint("eq", [(y, Ratio::one())], Cmp::Eq, Ratio::from_int(-1));
        p
    }

    #[test]
    fn native_lowering_keeps_bounds_as_metadata() {
        let p = two_row_bounded_problem();
        let sf = lower::<Ratio>(&p);
        // 2 explicit rows only; the bound lives on the column.
        assert_eq!(sf.m, 2);
        assert_eq!(sf.num_explicit, 2);
        assert!(sf.bound_vars.is_empty());
        assert_eq!(sf.bound_mode, BoundMode::Native);
        assert_eq!(sf.upper[0], Some(Ratio::from_int(5)));
        assert_eq!(sf.upper[1], None);
        // Slack/artificial columns are never bounded.
        assert!(sf.upper[sf.nstruct..].iter().all(Option::is_none));
        assert!(sf.negate);
        assert!(!sf.flipped[0] && sf.flipped[1]);
    }

    #[test]
    fn refresh_matches_full_relower_under_drift() {
        use crate::problem::Sense;
        let build = |a: i64, rhs_ge: i64, ub: i64| {
            let mut p = Problem::new(Sense::Minimize);
            let x = p.add_var_bounded("x", Ratio::from_int(ub));
            let y = p.add_var("y");
            p.set_objective_coeff(x, Ratio::from_int(a));
            p.add_constraint(
                "ge",
                [(x, Ratio::from_int(a)), (y, Ratio::one())],
                Cmp::Ge,
                Ratio::from_int(rhs_ge),
            );
            p.add_constraint("eq", [(y, Ratio::one())], Cmp::Eq, Ratio::from_int(-1));
            p
        };
        let mut sf = lower::<Ratio>(&build(1, 2, 5));
        // Drift every numeric surface: matrix, rhs, objective, bound.
        let drifted = build(3, 7, 9);
        assert!(refresh(&drifted, &mut sf));
        let fresh = lower::<Ratio>(&drifted);
        assert_eq!(sf.vals, fresh.vals);
        assert_eq!(sf.rhs, fresh.rhs);
        assert_eq!(sf.cost2, fresh.cost2);
        assert_eq!(sf.upper, fresh.upper);
        assert_eq!(sf.flipped, fresh.flipped);
        assert_eq!(sf.col_ptr, fresh.col_ptr);
        assert_eq!(sf.row_idx, fresh.row_idx);
        assert_eq!(sf.basis0, fresh.basis0);
    }

    #[test]
    fn refresh_rejects_pattern_changes() {
        use crate::problem::Sense;
        let p = two_row_bounded_problem();
        let mut sf = lower::<Ratio>(&p);
        // A flipped rhs sign re-types the Eq row's normalization: the
        // symbolic pattern survives but an extra structural check must
        // catch genuinely different shapes.
        let mut bigger = Problem::new(Sense::Minimize);
        let x = bigger.add_var_bounded("x", Ratio::from_int(5));
        let y = bigger.add_var("y");
        let z = bigger.add_var("z");
        bigger.set_objective_coeff(x, Ratio::one());
        bigger.add_constraint(
            "ge",
            [(x, Ratio::one()), (y, Ratio::one()), (z, Ratio::one())],
            Cmp::Ge,
            Ratio::from_int(2),
        );
        bigger.add_constraint("eq", [(y, Ratio::one())], Cmp::Eq, Ratio::from_int(-1));
        assert!(!refresh(&bigger, &mut sf));

        // A rhs sign flip that re-types a row (Ge becomes Le, losing its
        // artificial) changes the slack/artificial layout: rejected,
        // caller re-lowers. An Eq-row flip only negates values and stays
        // refreshable.
        let mut p2 = two_row_bounded_problem();
        let mut sf2 = lower::<Ratio>(&p2);
        p2.rows[0].rhs = Ratio::from_int(-2);
        assert!(!refresh(&p2, &mut sf2));
        let mut p3 = two_row_bounded_problem();
        let mut sf3 = lower::<Ratio>(&p3);
        p3.rows[1].rhs = Ratio::one();
        assert!(refresh(&p3, &mut sf3));
        assert_eq!(sf3.vals, lower::<Ratio>(&p3).vals);
        assert_eq!(sf3.flipped, lower::<Ratio>(&p3).flipped);

        // LoweredRows forms never refresh.
        let mut sf4 = lower_with::<Ratio>(&p, BoundMode::LoweredRows);
        assert!(!refresh(&p, &mut sf4));
    }

    #[test]
    fn lowered_rows_shape_and_layout() {
        let p = two_row_bounded_problem();
        let sf = lower_with::<Ratio>(&p, BoundMode::LoweredRows);
        // 2 explicit rows + 1 bound row; Ge gives slack+art, flipped Eq
        // gives art, bound gives slack.
        assert_eq!(sf.m, 3);
        assert_eq!(sf.nstruct, 2);
        assert_eq!(sf.num_explicit, 2);
        assert_eq!(sf.bound_vars, vec![0]);
        assert_eq!(sf.num_artificials(), 2);
        assert!(sf.upper.iter().all(Option::is_none));
        // rhs normalized non-negative.
        assert!(sf.rhs.iter().all(|r| !r.is_negative()));
        // Initial basis columns are +e_i unit columns.
        for (i, &b) in sf.basis0.iter().enumerate() {
            let (rows, vals) = sf.column(b);
            assert_eq!(rows, &[i]);
            assert_eq!(vals, &[Ratio::one()]);
        }
        // Minimize lowered to maximize: cost negated.
        assert_eq!(sf.cost2[0], Ratio::from_int(-1));
    }
}
