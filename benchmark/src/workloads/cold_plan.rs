//! `cold_plan` — the operator's "plan this cluster now" path.
//!
//! Each op is one `engine::solve_approx(&MasterSlave::new(m), &g)` on a
//! platform the solver has no state for: full `Formulation::build`, symbolic
//! lowering, two-phase f64 solve with primal pricing sweeping every column.
//! No warm state, no exact arithmetic — the workload where pricing work
//! must show and where session / service / exact-backend work must not.

use crate::script::{close, fingerprint_platform, stream_rng};
use crate::trace::{Layer, Tracer};
use crate::workload::{Failure, OpKind, OpOutcome, Quiet, Scale, Verdict, Workload, FNV_SEED};
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::MasterSlave;
use ss_lp::SimplexOptions;
use ss_platform::{topo, Platform};

/// Platforms the set-up plans.
const FIRST_BATCH: usize = 8;

/// The `cold_plan` workload. Platforms are generated one op ahead and
/// dropped after the op, so the script's inputs never sit in the process's
/// memory and `peak_rss_mb` is the solver's own; many distinct platforms per
/// pass keep the script's total work insensitive to the seed (solve time
/// varies by a coefficient of variation of 0.16 from platform to platform).
pub struct ColdPlan {
    seed: u64,
    platforms: usize,
    p: usize,
    cycles: usize,
    setup_reps: usize,
}

impl ColdPlan {
    /// The workload at `scale`, its inputs drawn from `seed`.
    pub fn new(seed: u64, scale: Scale) -> ColdPlan {
        let (platforms, p, cycles, setup_reps) = match scale {
            Scale::Full => (48, 128, 2, 5),
            Scale::Tiny => (3, 12, 2, 2),
        };
        ColdPlan {
            seed,
            platforms,
            p,
            cycles,
            setup_reps,
        }
    }

    /// Platform `op % platforms` of the seed, with its formulation.
    fn instance(&self, op: usize) -> (Platform, MasterSlave) {
        let mut rng = stream_rng(self.seed, 1, (op % self.platforms) as u64);
        let (g, m) = topo::random_connected(&mut rng, self.p, 0.25, &topo::ParamRange::default());
        (g, MasterSlave::new(m))
    }
}

impl Workload for ColdPlan {
    type Input = (Platform, MasterSlave);

    fn name(&self) -> &'static str {
        "cold_plan"
    }

    fn quiet(&self) -> Quiet {
        Quiet::Min
    }

    fn ops(&self) -> usize {
        self.platforms * self.cycles
    }

    fn setup_reps(&self) -> usize {
        self.setup_reps
    }

    /// The solver keeps no state, so what a user pays once is the first
    /// plans of a fresh process: generate and solve the script's first
    /// [`FIRST_BATCH`] platforms (several, because one solve's time depends
    /// on the platform the seed happened to draw first).
    fn set_up(&mut self) -> Result<(), String> {
        for op in 0..FIRST_BATCH.min(self.platforms) {
            let (g, f) = self.instance(op);
            engine::solve_approx(&f, &g).map_err(|e| format!("first cold solve: {e}"))?;
        }
        Ok(())
    }

    fn tear_down(&mut self) {}

    fn reset(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn prepare(&self, op: usize) -> Self::Input {
        self.instance(op)
    }

    fn run(&mut self, _op: usize, (g, f): Self::Input) -> OpOutcome {
        match engine::solve_approx(&f, &g) {
            Ok(acts) => {
                let mut out = OpOutcome::new(OpKind::Solve, Ok(acts.objective_f64()));
                out.harvest_solution(acts.solution());
                out
            }
            Err(e) => OpOutcome::new(OpKind::Solve, Err(e.to_string())),
        }
    }

    fn run_traced(&mut self, _op: usize, (g, f): Self::Input, tracer: &mut Tracer) -> OpOutcome {
        let opts = SimplexOptions::default();
        let (built, _) = tracer.span(Layer::Build, || f.build(&g));
        let (p, _vars) = match built {
            Ok(b) => b,
            Err(e) => return OpOutcome::new(OpKind::Solve, Err(e.to_string())),
        };
        let (sf, _) = tracer.span(Layer::Lower, || {
            ss_lp::lower_with::<f64>(&p, opts.bound_mode)
        });
        let (run, solve) = tracer.span(Layer::Solve, || {
            ss_lp::solve_warm_on::<f64>(&p, &sf, &opts, None)
        });
        let out = match &run {
            Ok(run) => {
                let mut out = OpOutcome::new(OpKind::Solve, Ok(*run.solution.objective()));
                out.harvest_solution(&run.solution);
                out.tel[Layer::Snapshot as usize] = run.snapshot_ms;
                out.attach_solve_telemetry(tracer, solve);
                out
            }
            Err(e) => OpOutcome::new(OpKind::Solve, Err(e.to_string())),
        };
        tracer.span(Layer::Release, || drop((g, p, sf, run)));
        out
    }

    /// Every objective against the exact, duality-certified `engine::solve`
    /// optimum of the same platform.
    fn verify(&mut self, outcomes: &[OpOutcome]) -> Verdict {
        let mut verdict = Verdict::default();
        let exact: Vec<Result<f64, String>> = (0..self.platforms)
            .map(|i| {
                let (g, f) = self.instance(i);
                engine::solve(&f, &g)
                    .map(|s| s.ntask.to_f64())
                    .map_err(|e| e.to_string())
            })
            .collect();
        for (op, out) in outcomes.iter().enumerate() {
            let failure = match (&out.answer, &exact[op % self.platforms]) {
                (Err(e), _) => Some(("error", e.clone())),
                (Ok(got), Ok(want)) if close(*got, *want) => None,
                (Ok(got), Ok(want)) => Some((
                    "cold",
                    format!("objective {got} vs exact certified {want}: program wrong"),
                )),
                (Ok(got), Err(e)) => Some((
                    "cold",
                    format!("objective {got} but the exact reference failed: {e}"),
                )),
            };
            if let Some((outcome, detail)) = failure {
                verdict.failures.push(Failure {
                    op,
                    outcome: outcome.to_string(),
                    detail,
                });
            }
        }
        verdict
    }

    fn fingerprint(&self) -> u64 {
        (0..self.platforms).fold(FNV_SEED, |h, i| {
            fingerprint_platform(h, &self.instance(i).0)
        })
    }

    fn lp_shape(&self) -> (usize, usize) {
        let (g, f) = self.instance(0);
        f.build(&g).map_or((0, 0), |(p, _)| {
            let sf = ss_lp::lower::<f64>(&p);
            (sf.m, sf.ncols)
        })
    }
}
