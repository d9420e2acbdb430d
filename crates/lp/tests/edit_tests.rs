//! Basis migration across LP shape changes: name-keyed layout diffing
//! between rebuilt problems, warm solves across column/row add/remove, the
//! removed-basic-column repair path, and the mismatch diagnosis.

use ss_lp::{
    lower, solve_warm_on, Cmp, EditSummary, FormLayout, Problem, Scalar, Sense, SimplexOptions,
    StandardForm, WarmRun, WarmStart,
};
use ss_num::Ratio;

/// maximize 3x + 2y + 5z  s.t.  x + y + z ≤ 6 (`cap`),  y ≥ 1 (`floor`),
/// 0 ≤ x ≤ 4,  0 ≤ z ≤ 2 — over y and whichever of x, z `vars` names,
/// plus the row z ≤ 2 (`zcap`) on request.
fn problem(vars: &str, zcap: bool) -> Problem {
    let mut p = Problem::new(Sense::Maximize);
    let mut cap = Vec::new();
    if vars.contains('x') {
        let x = p.add_var_bounded("x", Ratio::from_int(4));
        p.set_objective_coeff(x, Ratio::from_int(3));
        cap.push((x, Ratio::one()));
    }
    let y = p.add_var("y");
    p.set_objective_coeff(y, Ratio::from_int(2));
    cap.push((y, Ratio::one()));
    let z = vars.contains('z').then(|| {
        let z = p.add_var_bounded("z", Ratio::from_int(2));
        p.set_objective_coeff(z, Ratio::from_int(5));
        cap.push((z, Ratio::one()));
        z
    });
    p.add_constraint("cap", cap, Cmp::Le, Ratio::from_int(6));
    p.add_constraint("floor", [(y, Ratio::one())], Cmp::Ge, Ratio::from_int(1));
    if zcap {
        let z = z.expect("zcap constrains z");
        p.add_constraint("zcap", [(z, Ratio::one())], Cmp::Le, Ratio::from_int(2));
    }
    p
}

/// maximize 3x + 2y  s.t.  x + y ≤ 6,  y ≥ 1,  0 ≤ x ≤ 4.
fn base_problem() -> Problem {
    problem("xy", false)
}

/// `base_problem` plus a third variable z in the capacity row and a
/// capacity row of its own.
fn extended_problem() -> Problem {
    problem("xyz", true)
}

/// A problem, its lowering and the lowering's name-keyed fingerprint —
/// what the session layer holds per re-plan.
struct Lowered<S> {
    problem: Problem,
    sf: StandardForm<S>,
    layout: FormLayout,
}

impl<S: Scalar> Lowered<S> {
    fn new(problem: Problem) -> Self {
        let sf = lower::<S>(&problem);
        let layout = FormLayout::capture(&problem, &sf).expect("native form captures");
        Lowered {
            problem,
            sf,
            layout,
        }
    }

    fn solve(&self, warm: Option<&WarmStart>) -> WarmRun<S> {
        solve_warm_on(&self.problem, &self.sf, &SimplexOptions::default(), warm).unwrap()
    }

    /// Carry `warm` (a snapshot of `self`) onto the rebuilt `new`.
    fn migrate_to(&self, new: &Lowered<S>, warm: &WarmStart) -> (WarmStart, EditSummary) {
        self.layout.plan_to(&new.layout).migrate(warm)
    }
}

#[test]
fn add_column_then_row_stays_warm_and_agrees() {
    let old = Lowered::<Ratio>::new(base_problem());
    let warm = old.solve(None).warm;

    // Arrive: a new variable z (cap row coefficient 1, cost 5) plus its
    // own capacity row — the column-then-row change an arrival produces.
    let mid = Lowered::<Ratio>::new(problem("xyz", false));
    let (warm, summary) = old.migrate_to(&mid, &warm);
    assert_eq!(summary.dropped_basic, 0);
    let new = Lowered::<Ratio>::new(extended_problem());
    let (warm, summary) = mid.migrate_to(&new, &warm);
    assert_eq!(summary.dropped_basic, 0);
    assert!(warm.shape_matches(&new.sf));

    let run = new.solve(Some(&warm));
    assert!(
        run.outcome.used_warm_basis(),
        "migrated basis fell back cold: {:?} ({:?})",
        run.outcome,
        run.mismatch
    );
    assert_eq!(
        run.solution.objective(),
        new.solve(None).solution.objective()
    );
}

#[test]
fn removing_a_basic_column_repairs_instead_of_cold() {
    let old = Lowered::<Ratio>::new(extended_problem());
    let warm = old.solve(None).warm;
    // At this data the optimum is x = 3, y = 1, z = 2: x sits strictly
    // inside its box, so it must be basic — removing it is the
    // interesting departed-while-basic case (and the reduced problem
    // stays feasible, unlike removing y from under `floor`).
    let victim = 0usize;
    assert!(
        warm.basis().contains(&victim),
        "x should be basic at the optimum, basis = {:?}",
        warm.basis()
    );

    let new = Lowered::<Ratio>::new(problem("yz", true));
    let (warm, summary) = old.migrate_to(&new, &warm);
    assert_eq!(summary.dropped_basic, 1);
    assert!(warm.shape_matches(&new.sf));

    // Departures leave a short basis: the warm path completes the
    // unclaimed row from basis0 and repairs — never a cold fallback.
    let run = new.solve(Some(&warm));
    assert!(
        run.outcome.used_warm_basis(),
        "dropped-basic migration fell back cold: {:?}",
        run.outcome
    );

    // Agreement with a cold solve of the same rebuilt system.
    assert_eq!(
        run.solution.objective(),
        new.solve(None).solution.objective()
    );
}

#[test]
fn remove_row_then_solve_agrees_f64() {
    let old = Lowered::<f64>::new(extended_problem());
    let warm = old.solve(None).warm;
    // Depart: drop the z capacity row, then the z column.
    let mid = Lowered::<f64>::new(problem("xyz", false));
    let (warm, _) = old.migrate_to(&mid, &warm);
    let new = Lowered::<f64>::new(base_problem());
    let (warm, _) = mid.migrate_to(&new, &warm);
    assert!(warm.shape_matches(&new.sf));

    let run = new.solve(Some(&warm));
    assert!(run.outcome.used_warm_basis(), "{:?}", run.outcome);
    let diff = run.solution.objective() - new.solve(None).solution.objective();
    assert!(diff.abs() < 1e-9, "objectives diverge by {diff}");
}

#[test]
fn layout_diff_migrates_across_rebuilt_problem() {
    // The session-layer path: the problem is *rebuilt* (new var order, new
    // rows) and the two lowerings are matched purely by name.
    let old = Lowered::<Ratio>::new(base_problem());
    let warm = old.solve(None).warm;
    let new = Lowered::<Ratio>::new(extended_problem());

    let (warm, summary) = old.migrate_to(&new, &warm);
    assert!(warm.shape_matches(&new.sf));
    assert_eq!(summary.removed_cols, 0);
    assert!(summary.added_cols > 0);

    let run = new.solve(Some(&warm));
    assert!(run.outcome.used_warm_basis(), "{:?}", run.outcome);
    assert_eq!(
        run.solution.objective(),
        new.solve(None).solution.objective()
    );
}

#[test]
fn mismatch_diagnosis_reaches_the_warm_result() {
    let old = Lowered::<Ratio>::new(base_problem());
    let warm = old.solve(None).warm;
    let new = Lowered::<Ratio>::new(extended_problem());
    // Un-migrated snapshot against the grown form: explainable fallback.
    let mm = warm.shape_mismatch(&new.sf).expect("shapes differ");
    assert_eq!(mm.expected, (new.sf.m, new.sf.ncols));
    assert_eq!(mm.rows, old.sf.m);
    assert_eq!(mm.cols, old.sf.ncols);
    assert!(mm.to_string().contains("cannot seed"));

    let run = new.solve(Some(&warm));
    assert_eq!(run.outcome, ss_lp::WarmOutcome::ColdFallback);
    assert_eq!(run.mismatch, Some(mm));
}
