//! Dynamic platforms and adaptive steady-state scheduling (§5.5).
//!
//! Steady-state scheduling is naturally adaptive: work is organized in
//! periods, so between phases the activity variables can be recomputed
//! from observed resource performance ("use the past to predict the
//! future", monitored NWS-style). This module simulates three policies on
//! a platform whose parameters drift piecewise-constantly:
//!
//! * **Static** — solve the LP once on the initial parameters and replay
//!   that plan forever. When a resource slows down, the plan's period
//!   stretches (its transfers and computations take longer); when
//!   resources speed up, the plan cannot exploit it (it ships a fixed
//!   number of tasks per period).
//! * **Adaptive** — at each phase boundary, re-solve the LP using the
//!   *previous* phase's observed parameters. Pays one phase of mismatch
//!   after every change.
//! * **Omniscient** — re-solve with the current phase's true parameters:
//!   the unbeatable reference.
//!
//! The re-solving policies run through **warm-started re-solve sessions**
//! ([`SolveSession`]): each phase's LP shares the structure of the
//! previous one (same platform graph, drifted coefficients), so from
//! phase 2 on the solve reuses the previous optimal basis and bound
//! statuses and skips phase 1 entirely — drift that knocks the basis
//! primal infeasible is absorbed by the bounded **dual simplex** first
//! (`dual-repaired`), with the composite primal repair and the cold
//! fallback behind it — and the [`SolveTelemetry`] on every
//! [`PhaseReport`] records which path ran and how many pivots it cost. A
//! final exact re-certification checkpoint verifies the adaptive
//! session's last optimum against the full LP-duality certificate.
//!
//! Throughput of a plan under possibly different actual parameters is
//! computed exactly: the §4.1 round structure stretches round-by-round
//! (each round lasts as long as its slowest stretched transfer) and
//! computation stretches per node; the realized period is the max of the
//! communication span and the compute spans, and the plan still completes
//! its fixed task count per period.

use ss_core::drift::ParamScale;
use ss_core::master_slave::{self, MasterSlave};
use ss_core::session::{SessionEvent, SolveSession, SolveTelemetry};
use ss_num::Ratio;
use ss_platform::{NodeId, Platform};
use ss_schedule::{reconstruct_master_slave, PeriodicSchedule};

/// Exact throughput of a fixed plan (solved on `planned` parameters)
/// executed while the platform actually runs at `actual` parameters.
pub fn realized_throughput(
    g_nominal: &Platform,
    sched: &PeriodicSchedule,
    planned: &ParamScale,
    actual: &ParamScale,
) -> Ratio {
    // Stretch each communication round: a transfer on edge e that was
    // allotted mu time now needs mu * (actual_c / planned_c).
    let mut comm_span = Ratio::zero();
    for round in &sched.decomposition.rounds {
        let mu = Ratio::from(round.duration.clone());
        let stretch = round
            .transfers
            .iter()
            .map(|e| &actual.c_mult[e.index()] / &planned.c_mult[e.index()])
            .fold(Ratio::one(), Ratio::max);
        comm_span += &mu * &stretch;
    }
    // Stretch each node's computation.
    let mut compute_span = Ratio::zero();
    for i in g_nominal.node_ids() {
        if !sched.node_work[i.index()].is_positive() {
            continue;
        }
        let Some(w) = g_nominal.node(i).w.as_ratio() else {
            continue;
        };
        let actual_w = w * &actual.w_mult[i.index()];
        let span = &Ratio::from(sched.node_work[i.index()].clone()) * &actual_w;
        compute_span = compute_span.max(span);
    }
    let realized_period = comm_span
        .max(compute_span)
        .max(Ratio::from(sched.period.clone()));
    &Ratio::from(sched.work_per_period()) / &realized_period
}

/// Per-phase throughput of the three policies, with the LP telemetry of
/// the two re-solving ones (warm/cold path, pivot counts, and the pricing
/// work — `priced_columns`/`pricing_ms` — of each re-solve).
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Tasks per time unit the static plan achieves this phase.
    pub static_thr: Ratio,
    /// Tasks per time unit the lagged adaptive plan achieves this phase.
    pub adaptive_thr: Ratio,
    /// Tasks per time unit with perfect knowledge (LP on true parameters).
    pub omniscient_thr: Ratio,
    /// Warm/cold path and pivot work of the adaptive re-solve.
    pub adaptive: SolveTelemetry,
    /// Warm/cold path and pivot work of the omniscient re-solve.
    pub omniscient: SolveTelemetry,
}

/// Run the three policies across a sequence of drift phases.
///
/// `phases[t]` is the true parameter scale during phase `t`; all phases
/// have equal length, so aggregate throughput is the mean. The adaptive
/// and omniscient policies re-solve through warm-started
/// [`SolveSession`]s — from phase 2 on, every re-solve reuses the
/// previous phase's basis (see each report's telemetry) — and the
/// adaptive session's final optimum is re-certified exactly against the
/// LP-duality certificate before returning.
pub fn simulate_policies(
    g: &Platform,
    master: NodeId,
    phases: &[ParamScale],
) -> Result<Vec<PhaseReport>, ss_core::CoreError> {
    assert!(!phases.is_empty());
    let nominal = ParamScale::nominal(g);

    // Static plan from the nominal platform.
    let static_sol = master_slave::solve(g, master)?;
    let static_sched = reconstruct_master_slave(g, &static_sol);

    // One hot session per re-solving policy: the exact backend (the
    // schedules are reconstructed from the optima), warm-started across
    // phases.
    let mut adaptive_sess: SolveSession<Ratio, MasterSlave> =
        SolveSession::new(MasterSlave::new(master));
    let mut omni_sess: SolveSession<Ratio, MasterSlave> =
        SolveSession::new(MasterSlave::new(master));
    adaptive_sess.set_base(g.clone());
    omni_sess.set_base(g.clone());

    let mut reports = Vec::with_capacity(phases.len());
    let mut prev_scale = nominal.clone();
    let mut last_adaptive_platform: Option<Platform> = None;
    for actual in phases {
        // Static: nominal plan under actual parameters.
        let static_thr = realized_throughput(g, &static_sched, &nominal, actual);

        // Adaptive: plan on the previous phase's parameters, fed to the
        // session as a drift event on the registered nominal base.
        let adaptive_platform = prev_scale.apply(g);
        let adaptive_run = adaptive_sess.apply(SessionEvent::Drift(prev_scale.clone()))?;
        let adaptive_sol = adaptive_sess.extract(&adaptive_platform, &adaptive_run)?;
        let adaptive_sched = reconstruct_master_slave(&adaptive_platform, &adaptive_sol);
        // Its plan was built against prev_scale; it executes under actual.
        let adaptive_thr = realized_throughput(g, &adaptive_sched, &prev_scale, actual);

        // Omniscient: plan on the true parameters.
        let omni_platform = actual.apply(g);
        let omni_run = omni_sess.apply(SessionEvent::Drift(actual.clone()))?;
        let omni_sol = omni_sess.extract(&omni_platform, &omni_run)?;
        let omniscient_thr = omni_sol.ntask;

        reports.push(PhaseReport {
            static_thr,
            adaptive_thr,
            omniscient_thr,
            adaptive: adaptive_run.telemetry,
            omniscient: omni_run.telemetry,
        });
        prev_scale = actual.clone();
        last_adaptive_platform = Some(adaptive_platform);
    }
    // Checkpoint: exact re-certification of the adaptive session's final
    // optimum (LP-duality certificate; §5.5's "trust but verify" hook).
    if let Some(gp) = &last_adaptive_platform {
        adaptive_sess.certify(gp)?;
    }
    Ok(reports)
}

/// Mean throughput across phases (phases have equal duration).
pub fn mean_throughput(reports: &[PhaseReport], pick: impl Fn(&PhaseReport) -> &Ratio) -> Ratio {
    let total: Ratio = reports.iter().map(|r| pick(r).clone()).sum();
    &total / &Ratio::from(reports.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_platform::paper;

    /// Stretch accounting: a plan realized on its own parameters achieves
    /// exactly the LP throughput.
    #[test]
    fn no_drift_no_loss() {
        let (g, m) = paper::fig1();
        let nominal = ParamScale::nominal(&g);
        let sol = master_slave::solve(&g, m).unwrap();
        let sched = reconstruct_master_slave(&g, &sol);
        let thr = realized_throughput(&g, &sched, &nominal, &nominal);
        assert_eq!(thr, sol.ntask);
    }

    /// ParamScale survives a serde round trip exactly and rejects
    /// non-positive factors on load.
    #[test]
    fn param_scale_serde_round_trip() {
        let (g, _) = paper::fig1();
        let used = g.edge_ids().next().expect("fig1 has edges");
        let scale = ParamScale::nominal(&g)
            .with_node(g.node_ids().nth(1).unwrap(), Ratio::new(7, 3))
            .with_edge(used, Ratio::new(1, 4));
        let wire = serde_json::to_string(&scale).unwrap();
        let back: ParamScale = serde_json::from_str(&wire).unwrap();
        assert_eq!(back, scale);
        let bad = wire.replace("7/3", "0/1");
        assert!(serde_json::from_str::<ParamScale>(&bad).is_err());
    }

    /// Slowing a used edge reduces realized throughput; speeding it up
    /// cannot raise it above the plan rate.
    #[test]
    fn drift_direction() {
        let (g, m) = paper::fig1();
        let nominal = ParamScale::nominal(&g);
        let sol = master_slave::solve(&g, m).unwrap();
        let sched = reconstruct_master_slave(&g, &sol);
        // Find a used edge.
        let used = g
            .edge_ids()
            .find(|e| sched.edge_busy[e.index()].is_positive())
            .expect("some edge is used");
        let slow = ParamScale::nominal(&g).with_edge(used, Ratio::from_int(4));
        let thr_slow = realized_throughput(&g, &sched, &nominal, &slow);
        assert!(thr_slow < sol.ntask);
        let fast = ParamScale::nominal(&g).with_edge(used, Ratio::new(1, 4));
        let thr_fast = realized_throughput(&g, &sched, &nominal, &fast);
        assert_eq!(thr_fast, sol.ntask, "plan cannot exceed its own rate");
    }

    /// Omniscient ≥ adaptive and omniscient ≥ static in every phase; after
    /// a change has persisted for a phase, adaptive catches back up to
    /// omniscient.
    #[test]
    fn policy_ordering_and_catchup() {
        let (g, m) = paper::fig1();
        let slow_node = ss_platform::NodeId(1);
        let drift = ParamScale::nominal(&g).with_node(slow_node, Ratio::from_int(5));
        let phases = vec![
            ParamScale::nominal(&g),
            drift.clone(),
            drift.clone(), // persists: adaptive has caught up here
            ParamScale::nominal(&g),
            ParamScale::nominal(&g),
        ];
        let reports = simulate_policies(&g, m, &phases).unwrap();
        for (t, r) in reports.iter().enumerate() {
            assert!(r.adaptive_thr <= r.omniscient_thr, "phase {t}");
            assert!(r.static_thr <= r.omniscient_thr, "phase {t}");
        }
        // Phase 2: drift persisted, adaptive == omniscient.
        assert_eq!(reports[2].adaptive_thr, reports[2].omniscient_thr);
        // Phase 4: nominal persisted, adaptive == omniscient == static plan rate.
        assert_eq!(reports[4].adaptive_thr, reports[4].omniscient_thr);
        // Under persistent drift the static plan is strictly worse.
        assert!(reports[2].static_thr < reports[2].omniscient_thr);
    }

    /// The re-solving policies run through warm sessions: the first phase
    /// is a cold solve, every later phase goes through `solve_warm` (and
    /// when the parameters repeat, the previous basis is still optimal —
    /// the warm path with zero phase-1 pivots).
    #[test]
    fn adaptive_resolves_warm_from_phase_two() {
        use ss_core::WarmOutcome;
        let (g, m) = paper::fig1();
        let drift = ParamScale::nominal(&g).with_node(ss_platform::NodeId(1), Ratio::from_int(4));
        let phases = vec![
            ParamScale::nominal(&g),
            drift.clone(),
            drift,
            ParamScale::nominal(&g),
        ];
        let reports = simulate_policies(&g, m, &phases).unwrap();
        assert_eq!(reports[0].adaptive.outcome, WarmOutcome::Cold);
        assert_eq!(reports[0].omniscient.outcome, WarmOutcome::Cold);
        for (t, r) in reports.iter().enumerate().skip(1) {
            // Phase ≥ 2 solves carry a hint: never a hint-less cold solve.
            assert_ne!(r.adaptive.outcome, WarmOutcome::Cold, "phase {t}");
            assert_ne!(r.omniscient.outcome, WarmOutcome::Cold, "phase {t}");
        }
        // Phase 2 plans on freshly drifted parameters: the warm machinery
        // must reuse the hinted basis (repairing it if drift broke primal
        // feasibility) rather than fall all the way back to cold.
        assert!(reports[2].adaptive.outcome.used_warm_basis());
        // Phase 3 re-plans on the *same* parameters as phase 2: the
        // hinted basis is still optimal — pure warm, no repair pivots.
        assert_eq!(reports[3].adaptive.outcome, WarmOutcome::Warm);
        assert_eq!(reports[3].adaptive.phase1_iterations, 0);
        assert!(reports[3].adaptive.iterations <= reports[0].adaptive.iterations);
    }

    /// Aggregate: adaptive beats static when drift persists.
    #[test]
    fn adaptive_beats_static_over_long_drift() {
        let (g, m) = paper::fig1();
        let drift = ParamScale::nominal(&g).with_node(ss_platform::NodeId(1), Ratio::from_int(10));
        let mut phases = vec![ParamScale::nominal(&g)];
        phases.extend(std::iter::repeat_n(drift, 6));
        let reports = simulate_policies(&g, m, &phases).unwrap();
        let adaptive = mean_throughput(&reports, |r| &r.adaptive_thr);
        let stat = mean_throughput(&reports, |r| &r.static_thr);
        let omni = mean_throughput(&reports, |r| &r.omniscient_thr);
        assert!(adaptive > stat);
        assert!(adaptive <= omni);
    }
}
