//! Stateful **re-solve sessions**: solve the same steady-state problem
//! repeatedly against drifting platform parameters, warm-starting every
//! re-solve from the previous optimal basis.
//!
//! §5.5 of the paper argues steady-state scheduling is naturally adaptive:
//! work is organized in phases, and between phases the activity variables
//! are recomputed from observed resource performance. A
//! [`SolveSession`] owns a [`Formulation`] descriptor and carries the
//! scalar-free [`WarmStart`] snapshot from one solve to the next, so a
//! per-phase re-solve reuses the previous basis and bound statuses —
//! skipping the phase-1 pivots that dominate a cold solve of the
//! equality-heavy steady-state LPs. When the platform's *shape* changes
//! (nodes or links appear or disappear), the session diffs the old and new
//! lowerings by variable/row **name** ([`ss_lp::FormLayout`]), migrates
//! the basis through the resulting [`ss_lp::EditPlan`], and warm-starts on
//! the edited shape — departed-while-basic columns are absorbed by the
//! kernel's bounded repair ladder instead of a refactorizing cold solve.
//! Only an unmatchable shape (or a disabled layout capture) falls back
//! cold; the [`SolveTelemetry`] on every result records which path ran,
//! any [`ShapeMismatch`] diagnosed, and the
//! [`EditSummary`] of any migration performed.
//!
//! The **event API** ([`SolveSession::apply`]) is the online entry point:
//! a [`SessionEvent`] is either parameter [`Drift`](SessionEvent::Drift)
//! (a [`ParamScale`] on the registered base platform) or a shape change
//! ([`Arrive`](SessionEvent::Arrive) / [`Depart`](SessionEvent::Depart)
//! carrying the post-event platform). All three re-plan through the same
//! warm pipeline; `Arrive`/`Depart` re-register the base that subsequent
//! drifts scale.
//!
//! Because the snapshot carries only column indices and bound sides — no
//! scalar values — one session can serve fast `f64` re-solves *and* hand
//! the same statuses to an exact `Ratio` re-certification at checkpoints
//! ([`SolveSession::certify`]), which verifies the full LP-duality
//! certificate on the exact optimum.

use crate::drift::ParamScale;
use crate::engine::{activities_from, Activities, Formulation};
use crate::error::CoreError;
use ss_lp::{
    EditSummary, FormLayout, Scalar, ShapeMismatch, SimplexOptions, StandardForm, WarmOutcome,
    WarmStart,
};
use ss_num::Ratio;
use ss_platform::Platform;
use std::marker::PhantomData;
use std::time::Instant;

/// How one session re-solve went: the warm/cold path taken and the pivot
/// work spent.
#[derive(Clone, Copy, Debug)]
pub struct SolveTelemetry {
    /// Which path the solve took (see [`WarmOutcome`]).
    pub outcome: WarmOutcome,
    /// Total simplex pivots (both phases, bound flips included).
    pub iterations: usize,
    /// Pivots spent before phase 2: phase-1 pivots on a cold solve,
    /// dual-simplex pivots on a [`WarmOutcome::DualRepaired`] solve,
    /// composite-repair pivots on a [`WarmOutcome::Repaired`] solve, and
    /// 0 on a pure warm solve.
    pub phase1_iterations: usize,
    /// Wall-clock of the LP solve proper (lower + pivot), in
    /// milliseconds — formulation build and snapshot capture are billed
    /// separately (see [`SolveTelemetry::build_ms`] and
    /// [`SolveTelemetry::snapshot_ms`]).
    pub solve_ms: f64,
    /// Wall-clock spent in [`Formulation::build`] assembling the LP from
    /// the platform, in milliseconds. Kept out of
    /// [`SolveTelemetry::solve_ms`] so warm-vs-cold comparisons measure
    /// pivot work, not problem assembly: benchmarks typically build the
    /// cold reference problem *outside* their solve timer, and folding the
    /// session's build into `solve_ms` once made a pure-warm 3-pivot
    /// re-solve appear slower than its 100-pivot cold reference.
    pub build_ms: f64,
    /// Wall-clock spent capturing the warm-start snapshot that seeds the
    /// *next* re-solve, in milliseconds. Billed separately from
    /// [`SolveTelemetry::solve_ms`]: a cold reference solve does no such
    /// bookkeeping, so folding it into the solve time would overstate
    /// warm cost.
    pub snapshot_ms: f64,
    /// Wall-clock spent lowering the built problem into kernel standard
    /// form, in milliseconds. On every re-solve after the first the
    /// session *refreshes* the cached CSC form numerically in place
    /// instead of re-lowering symbolically (see `ss_lp::refresh`), so this
    /// is the amortized cost batched re-plan serving banks on.
    pub lower_ms: f64,
    /// `true` when this solve reused the session's cached symbolic
    /// lowering (numeric refresh only); `false` on the first solve and
    /// after any shape change.
    pub lowering_reused: bool,
    /// Columns priced across the solve: entering-rule scans in the primal
    /// kernels plus candidate scans in the dual repair (see
    /// `ss_lp::PricingStats`).
    pub priced_columns: usize,
    /// Wall-clock spent inside pricing (reduced costs + entering
    /// selection + devex bookkeeping), in milliseconds.
    pub pricing_ms: f64,
    /// Wall-clock spent in full basis (re)factorizations, in milliseconds
    /// (see `ss_lp::FactorStats`).
    pub factor_ms: f64,
    /// Wall-clock spent applying per-pivot basis updates (eta pushes or
    /// Forrest–Tomlin replacements), in milliseconds.
    pub update_ms: f64,
    /// Wall-clock spent in FTRAN/BTRAN solves against the factorization,
    /// in milliseconds.
    pub ftran_btran_ms: f64,
    /// Stored nonzeros of the most recent full factorization.
    pub factor_nnz: usize,
    /// Peak factor-nnz over basis-nnz fill ratio observed by the solve.
    pub fill_ratio: f64,
    /// The shape mismatch the kernel diagnosed when this solve fell back
    /// cold because the warm snapshot could not seed the lowered form
    /// (`None` on every warm or hint-less solve).
    pub shape_mismatch: Option<ShapeMismatch>,
    /// Summary of the basis migration performed before this solve when the
    /// platform shape changed and the session diffed the old and new
    /// lowerings by name (`None` when the shape was unchanged).
    pub edit: Option<EditSummary>,
}

/// Cumulative counters of a session's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Total re-solves served.
    pub solves: usize,
    /// Solves that started from the hinted basis unrepaired.
    pub warm: usize,
    /// Solves whose warm basis was restored by the bounded dual simplex.
    pub dual_repaired: usize,
    /// Solves that started from the hinted basis after composite primal
    /// repair.
    pub repaired: usize,
    /// Solves that had a hint but fell back to a cold start.
    pub cold_fallback: usize,
    /// Hint-less cold solves (the session's first solve).
    pub cold: usize,
    /// Total pivots across all solves.
    pub iterations: usize,
    /// Exact re-certifications performed ([`SolveSession::certify`]).
    pub certifications: usize,
    /// Re-solves that reused the cached symbolic lowering (numeric
    /// refresh instead of a full CSC rebuild).
    pub lowering_reuses: usize,
    /// Shape changes absorbed by name-keyed basis migration (an
    /// [`EditSummary`] was produced) instead of a cold fallback.
    pub migrations: usize,
}

impl SessionStats {
    fn record(&mut self, t: &SolveTelemetry) {
        self.solves += 1;
        self.iterations += t.iterations;
        if t.lowering_reused {
            self.lowering_reuses += 1;
        }
        if t.edit.is_some() {
            self.migrations += 1;
        }
        match t.outcome {
            WarmOutcome::Cold => self.cold += 1,
            WarmOutcome::Warm => self.warm += 1,
            WarmOutcome::DualRepaired => self.dual_repaired += 1,
            WarmOutcome::Repaired => self.repaired += 1,
            WarmOutcome::ColdFallback => self.cold_fallback += 1,
        }
    }

    /// Fraction of solves that actually reused a warm basis.
    pub fn warm_fraction(&self) -> f64 {
        if self.solves == 0 {
            return 0.0;
        }
        (self.warm + self.dual_repaired + self.repaired) as f64 / self.solves as f64
    }
}

/// One session re-solve: the solved activities, the formulation's variable
/// handles, and how the solve went.
pub struct SessionSolve<S: Scalar, F: Formulation> {
    /// Variable handles from this build (read individual activities).
    pub vars: F::Vars,
    /// The solved activity variables.
    pub activities: Activities<S>,
    /// Warm/cold path and pivot work of this solve.
    pub telemetry: SolveTelemetry,
}

/// One step of an online workload, consumed by [`SolveSession::apply`].
///
/// `Arrive` and `Depart` both carry the **post-event** platform — the
/// graph after the node(s)/link(s) joined or left. They are distinct
/// variants because the operational intent differs (an arrival grows the
/// LP, a departure may drop basic columns into the repair ladder), and so
/// callers' logs read honestly; the session handles both through the same
/// name-keyed basis migration.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// Parameter drift on the registered base platform: re-plan on
    /// `scale.apply(base)` without changing the LP shape.
    Drift(ParamScale),
    /// Resources joined; the platform is the post-arrival graph. Becomes
    /// the new drift base.
    Arrive(Platform),
    /// Resources left; the platform is the post-departure graph. Becomes
    /// the new drift base.
    Depart(Platform),
}

/// A stateful re-solve session: one formulation, many platforms.
///
/// See the [module docs](self) for the warm-start life cycle. The scalar
/// parameter picks the arithmetic of [`SolveSession::resolve`]; exact
/// re-certification is always available via [`SolveSession::certify`]
/// regardless of `S`.
pub struct SolveSession<S: Scalar, F: Formulation> {
    formulation: F,
    opts: SimplexOptions,
    warm: Option<WarmStart>,
    lowered: Option<StandardForm<S>>,
    layout: Option<FormLayout>,
    base: Option<Platform>,
    stats: SessionStats,
    _scalar: PhantomData<S>,
}

impl<S: Scalar, F: Formulation> SolveSession<S, F> {
    /// New session with default options (the warm-capable sparse revised
    /// simplex).
    pub fn new(formulation: F) -> SolveSession<S, F> {
        Self::with_options(formulation, SimplexOptions::default())
    }

    /// New session whose every re-solve and certification runs under
    /// `opts`. Note the dense tableau has no warm path: a dense session
    /// re-solves cold every time (recorded as
    /// [`WarmOutcome::ColdFallback`]).
    pub fn with_options(formulation: F, opts: SimplexOptions) -> SolveSession<S, F> {
        SolveSession {
            formulation,
            opts,
            warm: None,
            lowered: None,
            layout: None,
            base: None,
            stats: SessionStats::default(),
            _scalar: PhantomData,
        }
    }

    /// The owned formulation descriptor.
    pub fn formulation(&self) -> &F {
        &self.formulation
    }

    /// Lifetime counters (warm/cold split, pivots, certifications).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The snapshot that will seed the next re-solve, if any.
    pub fn warm_state(&self) -> Option<&WarmStart> {
        self.warm.as_ref()
    }

    /// Drop the warm state: the next re-solve starts cold. The registered
    /// drift base (see [`SolveSession::set_base`]) survives a reset.
    pub fn reset(&mut self) {
        self.warm = None;
        self.lowered = None;
        self.layout = None;
    }

    /// Register the platform subsequent [`SessionEvent::Drift`] events
    /// scale, without solving. [`SessionEvent::Arrive`] and
    /// [`SessionEvent::Depart`] re-register it implicitly.
    pub fn set_base(&mut self, g: Platform) {
        self.base = Some(g);
    }

    /// The platform drift events currently scale, if one is registered.
    pub fn base(&self) -> Option<&Platform> {
        self.base.as_ref()
    }

    /// Seed the session's warm state from an externally persisted
    /// snapshot (see `ss_lp::WarmStart`'s serde support): the next
    /// [`SolveSession::resolve`] warm-starts from it exactly as if this
    /// session had produced it — the restore path that lets a restarted
    /// service worker resume warm instead of cold.
    pub fn seed_warm(&mut self, warm: WarmStart) {
        self.warm = Some(warm);
    }

    /// Re-solve against `g`'s current parameters, warm-starting from the
    /// previous solve when possible, and advance the session state.
    pub fn resolve(&mut self, g: &Platform) -> Result<SessionSolve<S, F>, CoreError> {
        let tb = Instant::now();
        let (p, vars) = self.formulation.build(g)?;
        let build_ms = tb.elapsed().as_secs_f64() * 1e3;
        // Lower into the cached form when the symbolic pattern still
        // matches (numeric refresh, allocation-free); fall back to a full
        // symbolic lowering on the first solve or after a shape change.
        let tl = Instant::now();
        let reused = self
            .lowered
            .as_mut()
            .is_some_and(|sf| ss_lp::refresh(&p, sf));
        let mut edit: Option<EditSummary> = None;
        if !reused {
            let new_sf = ss_lp::lower_with::<S>(&p, self.opts.bound_mode);
            let new_layout = FormLayout::capture(&p, &new_sf);
            // Shape changed under a live basis: diff the old and new
            // lowerings by name and migrate the snapshot onto the new
            // shape, so arrivals/departures warm-start (dropped basic
            // columns land in the kernel's repair ladder) instead of
            // refactorizing cold.
            if let (Some(w), Some(old), Some(new)) = (
                self.warm.as_ref(),
                self.layout.as_ref(),
                new_layout.as_ref(),
            ) {
                if w.shape_mismatch(&new_sf).is_some() {
                    let plan = old.plan_to(new);
                    let (migrated, summary) = plan.migrate(w);
                    if migrated.shape_mismatch(&new_sf).is_none() {
                        self.warm = Some(migrated);
                        edit = Some(summary);
                    }
                }
            }
            self.layout = new_layout;
            self.lowered = Some(new_sf);
        }
        let lower_ms = tl.elapsed().as_secs_f64() * 1e3;
        let sf = self.lowered.as_ref().expect("lowered form just installed");
        let t0 = Instant::now();
        let run = ss_lp::solve_warm_on::<S>(&p, sf, &self.opts, self.warm.as_ref())?;
        let telemetry = SolveTelemetry {
            outcome: run.outcome,
            iterations: run.solution.iterations(),
            phase1_iterations: run.solution.phase1_iterations(),
            solve_ms: t0.elapsed().as_secs_f64() * 1e3 - run.snapshot_ms,
            build_ms,
            snapshot_ms: run.snapshot_ms,
            lower_ms,
            lowering_reused: reused,
            priced_columns: run.solution.priced_columns(),
            pricing_ms: run.solution.pricing_ms(),
            factor_ms: run.solution.factor_ms(),
            update_ms: run.solution.update_ms(),
            ftran_btran_ms: run.solution.ftran_btran_ms(),
            factor_nnz: run.solution.factor_nnz(),
            fill_ratio: run.solution.fill_ratio(),
            shape_mismatch: run.mismatch,
            edit,
        };
        self.warm = Some(run.warm);
        self.stats.record(&telemetry);
        Ok(SessionSolve {
            vars,
            activities: activities_from(run.solution, &p),
            telemetry,
        })
    }

    /// Apply one online event and re-plan, warm-starting from the live
    /// basis. This is the session's online entry point:
    ///
    /// * [`SessionEvent::Drift`] re-solves on `scale.apply(base)` — the
    ///   shape is unchanged, so the cached lowering refreshes in place and
    ///   the basis carries over directly. Errors if no base platform is
    ///   registered or the scale's dimensions don't match it.
    /// * [`SessionEvent::Arrive`] / [`SessionEvent::Depart`] re-solve on
    ///   the carried post-event platform and re-register it as the drift
    ///   base. The live basis is migrated onto the new LP shape by
    ///   name-keyed layout diffing (see the [module docs](self)).
    pub fn apply(&mut self, event: SessionEvent) -> Result<SessionSolve<S, F>, CoreError> {
        match event {
            SessionEvent::Drift(scale) => {
                let base = self.base.as_ref().ok_or_else(|| {
                    CoreError::Invalid(
                        "drift event with no base platform: apply an Arrive event or call \
                         set_base first"
                            .into(),
                    )
                })?;
                if !scale.fits(base) {
                    return Err(CoreError::Invalid(format!(
                        "drift scale sized {}x{} does not fit a base platform with {} nodes \
                         and {} edges",
                        scale.w_mult.len(),
                        scale.c_mult.len(),
                        base.num_nodes(),
                        base.num_edges()
                    )));
                }
                let g = scale.apply(base);
                self.resolve(&g)
            }
            SessionEvent::Arrive(g) | SessionEvent::Depart(g) => {
                let s = self.resolve(&g)?;
                self.base = Some(g);
                Ok(s)
            }
        }
    }

    /// Exact re-certification checkpoint: re-solve `g` with the **exact
    /// `Ratio` backend**, warm-started from the same scalar-free snapshot
    /// the fast path uses, and verify the full LP-duality optimality
    /// certificate. Returns the certified exact activities.
    ///
    /// The session's warm state advances to the certified basis (for a
    /// same-scalar session this is a no-op in practice — the statuses
    /// agree when the fast path solved to optimality).
    pub fn certify(&mut self, g: &Platform) -> Result<Activities<Ratio>, CoreError> {
        let (p, _) = self.formulation.build(g)?;
        let run = p.solve_warm_with::<Ratio>(&self.opts, self.warm.as_ref())?;
        p.verify_optimality(&run.solution).map_err(|e| {
            CoreError::Invalid(format!(
                "{}: session certification failed: {e}",
                self.formulation.name()
            ))
        })?;
        self.warm = Some(run.warm);
        self.stats.certifications += 1;
        Ok(activities_from(run.solution, &p))
    }
}

impl<F: Formulation> SolveSession<Ratio, F> {
    /// Extract the formulation's typed exact solution (the
    /// reconstruction-grade shape the schedule layer consumes) from a
    /// [`SolveSession::resolve`] / [`SolveSession::apply`] result solved
    /// on `g`.
    pub fn extract(
        &self,
        g: &Platform,
        s: &SessionSolve<Ratio, F>,
    ) -> Result<F::Solution, CoreError> {
        self.formulation.extract(g, &s.vars, &s.activities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master_slave::MasterSlave;
    use ss_platform::{paper, topo};

    #[test]
    fn second_resolve_is_warm_and_cheaper() {
        let (g, m) = paper::fig1();
        let mut sess: SolveSession<Ratio, _> = SolveSession::new(MasterSlave::new(m));
        let first = sess.resolve(&g).unwrap();
        assert_eq!(first.telemetry.outcome, WarmOutcome::Cold);
        assert!(first.telemetry.iterations > 0);
        let second = sess.resolve(&g).unwrap();
        assert!(second.telemetry.outcome.used_warm_basis());
        assert_eq!(second.telemetry.phase1_iterations, 0);
        assert!(second.telemetry.iterations <= first.telemetry.iterations);
        assert_eq!(second.activities.objective(), first.activities.objective());
        let stats = sess.stats();
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.cold, 1);
        assert_eq!(stats.warm + stats.dual_repaired + stats.repaired, 1);
        assert!(stats.warm_fraction() > 0.4);
    }

    #[test]
    fn f64_session_certifies_exactly_at_checkpoints() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        let (g, m) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
        let mut sess: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(m));
        let fast = sess.resolve(&g).unwrap();
        let exact = sess.certify(&g).unwrap();
        assert!((fast.activities.objective_f64() - exact.objective_f64()).abs() < 1e-9);
        assert_eq!(sess.stats().certifications, 1);
        // The certification advanced the warm state: the next fast solve
        // still warm-starts.
        let again = sess.resolve(&g).unwrap();
        assert!(again.telemetry.outcome.used_warm_basis());
    }

    #[test]
    fn arrivals_and_departures_migrate_the_live_basis() {
        let (g1, m) = paper::fig1();
        let mut sess: SolveSession<Ratio, _> = SolveSession::new(MasterSlave::new(m));
        let first = sess.apply(SessionEvent::Arrive(g1.clone())).unwrap();
        assert_eq!(first.telemetry.outcome, WarmOutcome::Cold);

        // A new worker joins, fed from the master: the LP grows, and the
        // live basis migrates onto the grown shape instead of resolving
        // cold.
        let mut g2 = g1.clone();
        let extra = g2.add_node("Pnew", ss_platform::Weight::finite(Ratio::from_int(2)));
        g2.add_edge(m, extra, Ratio::from_int(1)).unwrap();
        let grown = sess.apply(SessionEvent::Arrive(g2.clone())).unwrap();
        assert!(
            grown.telemetry.outcome.used_warm_basis(),
            "arrival fell back cold: {:?} ({:?})",
            grown.telemetry.outcome,
            grown.telemetry.shape_mismatch
        );
        let edit = grown.telemetry.edit.expect("arrival should migrate");
        assert!(edit.added_cols > 0);
        assert_eq!(edit.removed_cols, 0);
        let reference = crate::engine::solve(&MasterSlave::new(m), &g2).unwrap();
        assert_eq!(grown.activities.objective(), &reference.ntask);

        // The worker departs again (its activity was basic: it computed),
        // so the migration drops basic columns into the repair ladder.
        let shrunk = sess.apply(SessionEvent::Depart(g1.clone())).unwrap();
        assert!(
            shrunk.telemetry.outcome.used_warm_basis(),
            "departure fell back cold: {:?}",
            shrunk.telemetry.outcome
        );
        let edit = shrunk.telemetry.edit.expect("departure should migrate");
        assert!(edit.removed_cols > 0);
        assert_eq!(shrunk.activities.objective(), first.activities.objective());
        assert_eq!(sess.stats().migrations, 2);
        assert_eq!(sess.stats().cold_fallback, 0);
        // Arrive/Depart re-registered the drift base each time.
        assert_eq!(sess.base().unwrap().num_nodes(), g1.num_nodes());
    }

    #[test]
    fn unseeded_shape_mismatch_is_a_diagnosed_cold_fallback() {
        let (g1, m) = paper::fig1();
        let mut donor: SolveSession<Ratio, _> = SolveSession::new(MasterSlave::new(m));
        donor.resolve(&g1).unwrap();
        let snap = donor.warm_state().cloned().unwrap();

        let mut g2 = g1.clone();
        let extra = g2.add_node("Pnew", ss_platform::Weight::finite(Ratio::from_int(2)));
        g2.add_edge(m, extra, Ratio::from_int(1)).unwrap();

        // A session revived from a persisted snapshot has no layout to
        // diff against: the mismatch is diagnosed, not silently absorbed.
        let mut sess: SolveSession<Ratio, _> = SolveSession::new(MasterSlave::new(m));
        sess.seed_warm(snap);
        let fb = sess.resolve(&g2).unwrap();
        assert_eq!(fb.telemetry.outcome, WarmOutcome::ColdFallback);
        let mm = fb.telemetry.shape_mismatch.expect("mismatch diagnosed");
        assert!(mm.cols < mm.expected.1);
        assert!(fb.telemetry.edit.is_none());
        // And the session re-warms on the new shape.
        let warm = sess.resolve(&g2).unwrap();
        assert!(warm.telemetry.outcome.used_warm_basis());
        assert_eq!(sess.stats().cold_fallback, 1);
    }

    #[test]
    fn drift_events_require_a_fitting_base() {
        let (g, m) = paper::fig1();
        let mut sess: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(m));
        let nominal = crate::drift::ParamScale::nominal(&g);
        assert!(sess.apply(SessionEvent::Drift(nominal.clone())).is_err());
        sess.set_base(g.clone());
        let s = sess.apply(SessionEvent::Drift(nominal.clone())).unwrap();
        assert_eq!(s.telemetry.outcome, WarmOutcome::Cold);
        // Pure drift keeps the shape: the lowering refreshes in place and
        // the re-plan warm-starts without any migration.
        let slow = nominal.with_node(ss_platform::NodeId(1), Ratio::from_int(2));
        let s2 = sess.apply(SessionEvent::Drift(slow)).unwrap();
        assert!(s2.telemetry.outcome.used_warm_basis());
        assert!(s2.telemetry.lowering_reused);
        assert!(s2.telemetry.edit.is_none());
        // A scale sized for a different platform is rejected up front.
        let bad = crate::drift::ParamScale {
            w_mult: vec![Ratio::one()],
            c_mult: vec![Ratio::one()],
        };
        assert!(sess.apply(SessionEvent::Drift(bad)).is_err());
    }

    #[test]
    fn resolves_reuse_the_cached_lowering_across_drifts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5150);
        let (g, m) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
        let mut sess: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(m));
        let first = sess.resolve(&g).unwrap();
        assert!(!first.telemetry.lowering_reused);
        let second = sess.resolve(&g).unwrap();
        assert!(second.telemetry.lowering_reused);
        assert_eq!(sess.stats().lowering_reuses, 1);
        // The refreshed-form solve agrees with a from-scratch cold solve.
        let cold = crate::engine::solve_approx(&MasterSlave::new(m), &g).unwrap();
        assert!((second.activities.objective_f64() - cold.objective_f64()).abs() < 1e-12);
    }

    #[test]
    fn seeded_warm_snapshot_revives_a_fresh_session_warm() {
        let (g, m) = paper::fig1();
        let mut sess: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(m));
        sess.resolve(&g).unwrap();
        let snap = sess.warm_state().cloned().expect("snapshot after solve");
        // A brand-new session (as after a service restart) seeded with the
        // persisted snapshot re-plans warm, not cold.
        let mut revived: SolveSession<f64, _> = SolveSession::new(MasterSlave::new(m));
        revived.seed_warm(snap);
        let s = revived.resolve(&g).unwrap();
        assert!(
            s.telemetry.outcome.used_warm_basis(),
            "{:?}",
            s.telemetry.outcome
        );
        assert_eq!(revived.stats().cold, 0);
    }

    #[test]
    fn typed_resolution_matches_the_engine_path() {
        let (g, m) = paper::fig1();
        let f = MasterSlave::new(m);
        let reference = crate::engine::solve(&f, &g).unwrap();
        let mut sess: SolveSession<Ratio, _> = SolveSession::new(f);
        let s = sess.apply(SessionEvent::Arrive(g.clone())).unwrap();
        let typed = sess.extract(&g, &s).unwrap();
        assert_eq!(typed.ntask, reference.ntask);
        assert_eq!(s.telemetry.outcome, WarmOutcome::Cold);
        typed.check(&g, &sess.formulation().model).unwrap();
    }

    #[test]
    fn a_session_keeps_its_options_across_re_plans() {
        use ss_lp::{Factor, PivotRule, Pricing};
        let (g, m) = paper::fig1();
        let opts = SimplexOptions {
            pricing: Pricing::Dantzig,
            factor: Factor::EtaFile,
            ..SimplexOptions::default()
        };
        let mut sess: SolveSession<f64, _> = SolveSession::with_options(MasterSlave::new(m), opts);
        sess.resolve(&g).unwrap();
        let second = sess.resolve(&g).unwrap();
        assert!(second.telemetry.outcome.used_warm_basis());
        let sol = second.activities.solution();
        assert_eq!(sol.pivot_rule(), PivotRule::Dantzig);
        assert_eq!(sol.factor().backend, Factor::EtaFile);
    }
}
