//! `drift_replan` — the §5.5 re-plan path.
//!
//! A small fleet of live `SolveSession<f64, MasterSlave>`s, re-planned
//! round-robin; every op applies one `SessionEvent::Drift` drawn from the
//! repo's NWS regime to one session and re-plans warm: `ParamScale::apply`
//! → `Formulation::build` → numeric `refresh` of the cached lowering → warm
//! / dual-repair solve → snapshot. It bypasses cold pricing and symbolic
//! lowering — the workload where parametric build, scratch reuse and the
//! unattributed warm-solve time must show, and where `cold_plan` must not
//! move.

use crate::script::{
    arbitrate, close, fingerprint_platform, fingerprint_scale, nws_drift, stream_rng,
};
use crate::trace::{Layer, Tracer};
use crate::workload::{Failure, OpKind, OpOutcome, Quiet, Scale, Verdict, Workload, FNV_SEED};
use ss_core::drift::ParamScale;
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::MasterSlave;
use ss_core::session::{SessionEvent, SolveSession};
use ss_lp::{SimplexOptions, StandardForm, WarmStart};
use ss_platform::{topo, NodeId, Platform};

/// One live session and the state every pass restarts it from.
struct Live {
    base: Platform,
    master: NodeId,
    session: SolveSession<f64, MasterSlave>,
    /// The warm state every pass starts from.
    snapshot: WarmStart,
    /// The traced replay's own copy of what the session caches: it drives
    /// the layers' public functions itself, so it keeps the lowering and
    /// the warm basis the session would.
    traced_form: StandardForm<f64>,
    traced_warm: WarmStart,
}

/// The `drift_replan` workload. Several sessions rather than one because
/// re-plan cost depends on the platform (one seed in six drew a platform
/// that re-plans 45 % faster than the rest): a fleet averages that out, so
/// the script's total work is insensitive to the seed.
pub struct DriftReplan {
    seed: u64,
    sessions: usize,
    p: usize,
    events: usize,
    setup_reps: usize,
    fleet: Vec<Live>,
}

impl DriftReplan {
    /// The workload at `scale`, its inputs drawn from `seed`.
    pub fn new(seed: u64, scale: Scale) -> DriftReplan {
        let (sessions, p, events, setup_reps) = match scale {
            Scale::Full => (32, 96, 352, 5),
            Scale::Tiny => (2, 12, 24, 2),
        };
        DriftReplan {
            seed,
            sessions,
            p,
            events,
            setup_reps,
            fleet: Vec::new(),
        }
    }

    fn options() -> SimplexOptions {
        SimplexOptions::with_kernel(ss_lp::default_kernel())
    }

    /// The session op `op` re-plans (round-robin).
    fn session_of(&self, op: usize) -> usize {
        op % self.sessions
    }
}

impl Workload for DriftReplan {
    type Input = ParamScale;

    fn name(&self) -> &'static str {
        "drift_replan"
    }

    fn quiet(&self) -> Quiet {
        Quiet::Min
    }

    fn ops(&self) -> usize {
        self.events
    }

    fn setup_reps(&self) -> usize {
        self.setup_reps
    }

    fn set_up(&mut self) -> Result<(), String> {
        self.fleet.clear();
        for i in 0..self.sessions {
            let mut rng = stream_rng(self.seed, 2, i as u64);
            let (base, master) =
                topo::random_connected(&mut rng, self.p, 0.25, &topo::ParamRange::default());
            let mut session = SolveSession::new(MasterSlave::new(master));
            session
                .apply(SessionEvent::Arrive(base.clone()))
                .map_err(|e| format!("first cold solve of session {i}: {e}"))?;
            let snapshot = session
                .warm_state()
                .cloned()
                .ok_or("no warm snapshot after the first solve")?;
            let (p0, _) = MasterSlave::new(master)
                .build(&base)
                .map_err(|e| e.to_string())?;
            let traced_form = ss_lp::lower_with::<f64>(&p0, Self::options().bound_mode);
            self.fleet.push(Live {
                base,
                master,
                session,
                traced_warm: snapshot.clone(),
                snapshot,
                traced_form,
            });
        }
        Ok(())
    }

    fn tear_down(&mut self) {
        self.fleet.clear();
    }

    fn reset(&mut self) -> Result<(), String> {
        for live in &mut self.fleet {
            live.session.seed_warm(live.snapshot.clone());
            live.traced_warm = live.snapshot.clone();
        }
        Ok(())
    }

    fn prepare(&self, op: usize) -> ParamScale {
        let base = &self.fleet[self.session_of(op)].base;
        nws_drift(&mut stream_rng(self.seed, 3, op as u64), base)
    }

    fn run(&mut self, op: usize, scale: ParamScale) -> OpOutcome {
        let s = self.session_of(op);
        match self.fleet[s].session.apply(SessionEvent::Drift(scale)) {
            Ok(s) => {
                let mut out = OpOutcome::new(OpKind::Solve, Ok(s.activities.objective_f64()));
                out.harvest_telemetry(&s.telemetry);
                out
            }
            Err(e) => OpOutcome::new(OpKind::Solve, Err(e.to_string())),
        }
    }

    fn run_traced(&mut self, op: usize, scale: ParamScale, tracer: &mut Tracer) -> OpOutcome {
        let s = self.session_of(op);
        let live = &mut self.fleet[s];
        let opts = Self::options();
        let f = MasterSlave::new(live.master);
        let (g, _) = tracer.span(Layer::DriftApply, || scale.apply(&live.base));
        let (built, _) = tracer.span(Layer::Build, || f.build(&g));
        let (p, _vars) = match built {
            Ok(b) => b,
            Err(e) => return OpOutcome::new(OpKind::Solve, Err(e.to_string())),
        };
        let (reused, _) = tracer.span(Layer::Refresh, || ss_lp::refresh(&p, &mut live.traced_form));
        if !reused {
            return OpOutcome::new(
                OpKind::Solve,
                Err("cached lowering no longer matches the drifted problem".into()),
            );
        }
        let (run, solve) = tracer.span(Layer::Solve, || {
            ss_lp::solve_warm_on::<f64>(&p, &live.traced_form, &opts, Some(&live.traced_warm))
        });
        let (out, spent) = match run {
            Ok(mut run) => {
                let mut out = OpOutcome::new(OpKind::Solve, Ok(*run.solution.objective()));
                out.harvest_solution(&run.solution);
                out.counts.ladder = Some(run.outcome);
                out.counts.lowering_reused = true;
                out.tel[Layer::Snapshot as usize] = run.snapshot_ms;
                out.attach_solve_telemetry(tracer, solve);
                // Keep the new snapshot; the old one is freed with the rest.
                std::mem::swap(&mut live.traced_warm, &mut run.warm);
                (out, Some(run))
            }
            Err(e) => (OpOutcome::new(OpKind::Solve, Err(e.to_string())), None),
        };
        tracer.span(Layer::Release, || drop((g, p, spent)));
        out
    }

    /// Every re-plan against a cold `solve_approx` of the same drifted
    /// platform; a disagreement is arbitrated by the exact certified solve.
    /// This is not decoration: a chain of 4 000 such re-plans returned three
    /// silently wrong plans while this benchmark was being sized.
    fn verify(&mut self, outcomes: &[OpOutcome]) -> Verdict {
        let mut verdict = Verdict::default();
        for (op, out) in outcomes.iter().enumerate() {
            let rung = out
                .counts
                .ladder
                .map_or("error".to_string(), |l| l.to_string());
            let got = match &out.answer {
                Ok(v) => *v,
                Err(e) => {
                    verdict.failures.push(Failure {
                        op,
                        outcome: rung,
                        detail: e.clone(),
                    });
                    continue;
                }
            };
            let live = &self.fleet[self.session_of(op)];
            let g = self.prepare(op).apply(&live.base);
            let cold = engine::solve_approx(&MasterSlave::new(live.master), &g)
                .map(|a| a.objective_f64())
                .map_err(|e| e.to_string());
            if matches!(cold, Ok(c) if close(got, c)) {
                continue;
            }
            match arbitrate(live.master, &g, got, &cold) {
                Ok(note) => verdict.notes.push(format!("op {op} ({rung}): {note}")),
                Err(detail) => verdict.failures.push(Failure {
                    op,
                    outcome: rung,
                    detail,
                }),
            }
        }
        verdict
    }

    fn fingerprint(&self) -> u64 {
        let h = self
            .fleet
            .iter()
            .fold(FNV_SEED, |h, live| fingerprint_platform(h, &live.base));
        (0..self.events).fold(h, |h, op| fingerprint_scale(h, &self.prepare(op)))
    }

    fn lp_shape(&self) -> (usize, usize) {
        let sf = &self.fleet[0].traced_form;
        (sf.m, sf.ncols)
    }
}
