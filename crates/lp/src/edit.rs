//! Basis migration across LP shape changes — the online
//! arrivals/departures layer.
//!
//! [`refresh`](crate::standard::refresh) covers numeric drift on a fixed
//! shape; this module covers the *other* online regime: tenants join and
//! leave, so the LP gains and loses columns and rows between solves. The
//! old answer was `shape_matches ⇒ false ⇒ cold fallback` — every arrival
//! threw away the basis and re-ran phase 1 from scratch. The new answer is
//! an [`EditPlan`]: a column correspondence between the old and the new
//! form that carries the warm basis *across* the shape change.
//!
//! A plan comes from **layout diffing**: the caller rebuilds the
//! [`Problem`] from scratch (the session layer does: a platform arrival
//! re-runs the whole formulation), [`FormLayout::capture`] fingerprints
//! each lowered form by its variable/row *names*, and
//! [`FormLayout::plan_to`] matches the two fingerprints into an
//! [`EditPlan`]. Surviving tenants keep their names, so their basic
//! columns survive the diff. Re-lowering is O(nnz) and not the expensive
//! part of a solve; what the plan saves is **pivot work**: the migrated
//! basis refactorizes once and enters phase 2 (or a bounded repair)
//! instead of a cold two-phase solve.
//!
//! [`EditPlan::migrate`] then rewrites a [`WarmStart`]: surviving basic
//! columns are remapped, vanished ones are dropped (the sparse warm path
//! completes the missing rows from `basis0` and repairs the bounded
//! infeasibility via the existing dual ladder), and added columns simply
//! start nonbasic at their lower bound, entering through ordinary pricing
//! if their reduced cost says so.
//!
//! Only [`BoundMode::Native`](crate::BoundMode) forms have a layout — the
//! lowered-rows oracle's bound rows have no problem-side names.

use crate::problem::Problem;
use crate::scalar::Scalar;
use crate::standard::{BoundMode, StandardForm};
use crate::warm::WarmStart;
use std::collections::HashMap;

/// What a shape edit did to the warm basis — the migration receipt,
/// surfaced through `SolveTelemetry` so online re-plans are auditable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditSummary {
    /// Basic columns that survived the edit and were remapped.
    pub kept_basic: usize,
    /// Basic columns the edit removed — each costs a `basis0` completion
    /// plus (usually) a bounded repair pivot on the next solve.
    pub dropped_basic: usize,
    /// Columns of the new form with no preimage in the old one.
    pub added_cols: usize,
    /// Columns of the old form with no image in the new one.
    pub removed_cols: usize,
}

/// A column correspondence from an old [`StandardForm`] to a new one,
/// produced by [`FormLayout::plan_to`].
///
/// `col_map[old_j] = Some(new_j)` when old column `old_j` survives as new
/// column `new_j`; `None` when the edit removed it. The plan carries the
/// new form's dimensions so [`EditPlan::migrate`] can mint a shape-valid
/// [`WarmStart`] without seeing the form itself.
#[derive(Clone, Debug)]
pub struct EditPlan {
    col_map: Vec<Option<usize>>,
    new_m: usize,
    new_ncols: usize,
    new_art_start: usize,
    added_cols: usize,
    removed_cols: usize,
}

impl EditPlan {
    /// Build a plan from a column map into a form of the given dimensions
    /// (every `Some(j)` must satisfy `j < new_ncols`).
    pub(crate) fn new(
        col_map: Vec<Option<usize>>,
        new_m: usize,
        new_ncols: usize,
        new_art_start: usize,
    ) -> EditPlan {
        let mut hit = vec![false; new_ncols];
        let mut removed_cols = 0usize;
        for t in &col_map {
            match t {
                Some(j) => hit[*j] = true,
                None => removed_cols += 1,
            }
        }
        let added_cols = hit.iter().filter(|h| !**h).count();
        EditPlan {
            col_map,
            new_m,
            new_ncols,
            new_art_start,
            added_cols,
            removed_cols,
        }
    }

    /// The old-column → new-column map (length: old `ncols`).
    pub fn col_map(&self) -> &[Option<usize>] {
        &self.col_map
    }

    /// Carry a warm snapshot across the edit.
    ///
    /// Surviving basic columns are remapped; removed ones are dropped
    /// (the warm path completes their rows from `basis0` and repairs),
    /// and at-upper statuses follow their columns. The result always
    /// shape-matches the edited form.
    pub fn migrate(&self, warm: &WarmStart) -> (WarmStart, EditSummary) {
        let mut basis = Vec::with_capacity(warm.basis().len());
        let mut dropped_basic = 0usize;
        for &b in warm.basis() {
            match self.col_map.get(b).copied().flatten() {
                Some(nb) => basis.push(nb),
                None => dropped_basic += 1,
            }
        }
        let kept_basic = basis.len();
        let mut at_upper = vec![false; self.new_ncols];
        for (j, up) in warm.at_upper().iter().enumerate() {
            if *up {
                if let Some(Some(nj)) = self.col_map.get(j) {
                    at_upper[*nj] = true;
                }
            }
        }
        (
            WarmStart::new(
                self.new_m,
                self.new_ncols,
                self.new_art_start,
                basis,
                at_upper,
            ),
            EditSummary {
                kept_basic,
                dropped_basic,
                added_cols: self.added_cols,
                removed_cols: self.removed_cols,
            },
        )
    }
}

/// A name-keyed fingerprint of a lowered form: which variable owns each
/// structural column and which named row owns each slack/artificial
/// column. Two fingerprints diff into an [`EditPlan`] via
/// [`FormLayout::plan_to`], which is how the session layer migrates a
/// basis across a *rebuilt* formulation (arrival/departure re-runs the
/// whole builder; names are the stable identity of what survived).
#[derive(Clone, Debug)]
pub struct FormLayout {
    m: usize,
    ncols: usize,
    art_start: usize,
    var_names: Vec<String>,
    row_names: Vec<String>,
    /// Per row: its slack/surplus column (if any) and artificial column
    /// (if any).
    row_aux: Vec<(Option<usize>, Option<usize>)>,
}

impl FormLayout {
    /// Fingerprint `sf` as lowered from `problem`. Returns `None` for
    /// non-editable forms ([`BoundMode::LoweredRows`], whose bound rows
    /// have no problem-side names).
    pub fn capture<S: Scalar>(problem: &Problem, sf: &StandardForm<S>) -> Option<FormLayout> {
        if sf.bound_mode != BoundMode::Native
            || sf.num_explicit != sf.m
            || problem.num_vars() != sf.nstruct
            || problem.num_constraints() != sf.m
        {
            return None;
        }
        Some(FormLayout {
            m: sf.m,
            ncols: sf.ncols,
            art_start: sf.art_start,
            var_names: (0..sf.nstruct)
                .map(|j| problem.var_name(crate::problem::Var(j)).to_string())
                .collect(),
            row_names: problem.rows.iter().map(|r| r.name.clone()).collect(),
            row_aux: sf.row_aux(),
        })
    }

    /// Diff two fingerprints into an [`EditPlan`] mapping `self`'s columns
    /// onto `new`'s wherever the owning variable/row name survived.
    /// A slack maps only to a slack and an artificial only to an
    /// artificial, so a row whose comparison re-typed (e.g. a flipped
    /// rhs sign) contributes nothing rather than something wrong.
    pub fn plan_to(&self, new: &FormLayout) -> EditPlan {
        let new_vars: HashMap<&str, usize> = new
            .var_names
            .iter()
            .enumerate()
            .map(|(j, n)| (n.as_str(), j))
            .collect();
        let new_rows: HashMap<&str, usize> = new
            .row_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut col_map = vec![None; self.ncols];
        for (j, name) in self.var_names.iter().enumerate() {
            col_map[j] = new_vars.get(name.as_str()).copied();
        }
        for (i, name) in self.row_names.iter().enumerate() {
            let Some(&ni) = new_rows.get(name.as_str()) else {
                continue;
            };
            let (old_slack, old_art) = self.row_aux[i];
            let (new_slack, new_art) = new.row_aux[ni];
            if let (Some(o), Some(n)) = (old_slack, new_slack) {
                col_map[o] = Some(n);
            }
            if let (Some(o), Some(n)) = (old_art, new_art) {
                col_map[o] = Some(n);
            }
        }
        EditPlan::new(col_map, new.m, new.ncols, new.art_start)
    }
}

impl<S: Scalar> StandardForm<S> {
    /// Per row: the slack/surplus column claiming it (if any) and the
    /// artificial column claiming it (if any), recovered from the CSC
    /// layout (slack and artificial columns are singletons).
    pub(crate) fn row_aux(&self) -> Vec<(Option<usize>, Option<usize>)> {
        let mut aux: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); self.m];
        for j in self.nstruct..self.art_start {
            let (rows, _) = self.column(j);
            debug_assert_eq!(rows.len(), 1, "slack columns are singletons");
            aux[rows[0]].0 = Some(j);
        }
        for j in self.art_start..self.ncols {
            let (rows, _) = self.column(j);
            debug_assert_eq!(rows.len(), 1, "artificial columns are singletons");
            aux[rows[0]].1 = Some(j);
        }
        aux
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Sense};
    use crate::standard::lower;
    use ss_num::Ratio;

    /// maximize 3x + 2y (+ z)  s.t.  x + y (+ z) ≤ 6,  y ≥ 1,  0 ≤ x ≤ 4,
    /// over the named subset of variables.
    fn problem_over(vars: &[&str]) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let mut cap = Vec::new();
        let mut floor = Vec::new();
        for &name in vars {
            let (v, cost) = match name {
                "x" => (p.add_var_bounded("x", Ratio::from_int(4)), 3),
                "y" => (p.add_var("y"), 2),
                _ => (p.add_var(name), 1),
            };
            p.set_objective_coeff(v, Ratio::from_int(cost));
            cap.push((v, Ratio::one()));
            if name == "y" {
                floor.push((v, Ratio::one()));
            }
        }
        p.add_constraint("cap", cap, Cmp::Le, Ratio::from_int(6));
        p.add_constraint("floor", floor, Cmp::Ge, Ratio::from_int(1));
        p
    }

    fn base_problem() -> Problem {
        problem_over(&["x", "y"])
    }

    fn lowered(p: &Problem) -> (StandardForm<Ratio>, FormLayout) {
        let sf = lower::<Ratio>(p);
        let layout = FormLayout::capture(p, &sf).expect("native form captures");
        (sf, layout)
    }

    #[test]
    fn migrate_carries_basis_and_statuses() {
        let (sf, l0) = lowered(&base_problem());
        // Pretend a solve left x basic (row 0) and the Ge row's surplus
        // basic (row 1), with y nonbasic... at lower; no at-upper here.
        let warm = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            vec![0, 3],
            vec![false; sf.ncols],
        );
        // A variable arrives in the cap row: slack/artificial shift by 1.
        let (sf, l1) = lowered(&problem_over(&["x", "y", "z"]));
        let (migrated, summary) = l0.plan_to(&l1).migrate(&warm);
        assert!(migrated.shape_matches(&sf));
        assert_eq!(migrated.basis(), &[0, 4]);
        assert_eq!(summary.kept_basic, 2);
        assert_eq!(summary.dropped_basic, 0);
        assert_eq!(summary.added_cols, 1);

        // Now remove the basic structural column: it drops from the basis.
        let (sf, l2) = lowered(&problem_over(&["y", "z"]));
        let (migrated2, summary2) = l1.plan_to(&l2).migrate(&migrated);
        assert!(migrated2.shape_matches(&sf));
        assert_eq!(summary2.dropped_basic, 1);
        assert_eq!(summary2.kept_basic, 1);
    }

    #[test]
    fn layout_diff_matches_by_name() {
        let p1 = base_problem();
        let sf1 = lower::<Ratio>(&p1);
        let l1 = FormLayout::capture(&p1, &sf1).expect("native form captures");

        // Rebuild with a new variable inserted *before* the old ones and
        // the rows in a different order: names still line everything up.
        let mut p2 = Problem::new(Sense::Maximize);
        let w = p2.add_var("w");
        let x = p2.add_var_bounded("x", Ratio::from_int(4));
        let y = p2.add_var("y");
        p2.set_objective_coeff(w, Ratio::one());
        p2.set_objective_coeff(x, Ratio::from_int(3));
        p2.set_objective_coeff(y, Ratio::from_int(2));
        p2.add_constraint("floor", [(y, Ratio::one())], Cmp::Ge, Ratio::from_int(1));
        p2.add_constraint(
            "cap",
            [(x, Ratio::one()), (y, Ratio::one()), (w, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(6),
        );
        let sf2 = lower::<Ratio>(&p2);
        let l2 = FormLayout::capture(&p2, &sf2).expect("native form captures");

        let plan = l1.plan_to(&l2);
        assert_eq!(plan.col_map()[0], Some(1)); // x
        assert_eq!(plan.col_map()[1], Some(2)); // y
                                                // cap's slack follows the renamed row position; aux columns of
                                                // the same named row map slack→slack, art→art.
        let aux1 = sf1.row_aux();
        let aux2 = sf2.row_aux();
        assert_eq!(plan.col_map()[aux1[0].0.unwrap()], aux2[1].0);
        assert_eq!(plan.col_map()[aux1[1].1.unwrap()], aux2[0].1);
        assert_eq!(plan.new_m, sf2.m);
        assert_eq!(plan.new_ncols, sf2.ncols);
    }
}
