//! `certified_pipeline` — the paper's "How": exact optimum → periodic
//! schedule → execution.
//!
//! Each op is exact `master_slave::solve` (Ratio arithmetic, Bland's rule,
//! duality-certified) → `MasterSlaveSolution::check` →
//! `reconstruct_master_slave` → `PeriodicSchedule::check` →
//! `simulate_master_slave` over `6p` periods. It reaches `ss-lp` through its *other* scalar and pricing
//! rule, so an f64 gain that costs the exact path shows here; `ss-schedule`
//! and `ss-sim` run nowhere else.

use crate::script::{close, fingerprint_platform, stream_rng};
use crate::trace::{Layer, Tracer};
use crate::workload::{Failure, OpKind, OpOutcome, Quiet, Scale, Verdict, Workload, FNV_SEED};
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::{self, MasterSlave, MasterSlaveSolution};
use ss_num::Ratio;
use ss_platform::{topo, NodeId, Platform};
use ss_schedule::{reconstruct_master_slave, PeriodicSchedule};
use ss_sim::periodic::PeriodicRun;
use ss_sim::simulate_master_slave;
use std::time::Instant;

/// Platforms the set-up takes through the pipeline.
const FIRST_BATCH: usize = 8;

/// The `certified_pipeline` workload. Like `cold_plan` it generates each
/// platform one op ahead, and every op of a pass is a different platform:
/// exact solve times are heavy-tailed (across platforms of this size a
/// coefficient of variation of 0.2 with integer parameters, 0.3 with halves,
/// 0.9 with quarters — one platform in ten then takes 5 × the median), and
/// only many well-behaved instances make the script's total work insensitive
/// to the seed.
pub struct CertifiedPipeline {
    seed: u64,
    platforms: usize,
    p: usize,
    cycles: usize,
    setup_reps: usize,
}

/// Fold the sizes of the exact solution and its schedule into `out`, and
/// judge the execution: the last simulated period may not exceed the plan
/// and must be within 1 % of it. Equality is recorded (`plan_matched`, the
/// `sim.plan_match_frac` metric) but not required: the pipeline fills from
/// below, and one platform in a thousand is still 0.1 % short of its plan
/// after `3p` periods (it got there at period 150 of 144).
fn finish(
    out: &mut OpOutcome,
    sol: &MasterSlaveSolution,
    sched: &PeriodicSchedule,
    run: &PeriodicRun,
) {
    out.counts.max_bits = sol
        .alpha
        .iter()
        .chain(&sol.edge_time)
        .chain([&sol.ntask])
        .map(|r| r.numer().bits().max(r.denom().bits()))
        .max()
        .unwrap_or(0);
    out.counts.rounds = sched.decomposition.num_rounds() as u64;
    out.counts.period_bits = sched.period.bits();
    let plan = &run.plan_per_period;
    let last = run.per_period.last().unwrap_or(plan);
    out.counts.plan_matched = last == plan;
    if last > plan || last.to_f64() < 0.99 * plan.to_f64() {
        out.answer = Err(format!(
            "the simulated schedule completes {last} per period, the plan is {plan}"
        ));
    }
}

impl CertifiedPipeline {
    /// The workload at `scale`, its inputs drawn from `seed`.
    pub fn new(seed: u64, scale: Scale) -> CertifiedPipeline {
        let (platforms, p, cycles, setup_reps) = match scale {
            Scale::Full => (128, 48, 1, 5),
            Scale::Tiny => (3, 8, 2, 2),
        };
        CertifiedPipeline {
            seed,
            platforms,
            p,
            cycles,
            setup_reps,
        }
    }

    /// Platform `op % platforms` of the seed. Integer parameters: the
    /// optimum and every pivot are rational all the same, and fractional
    /// parameters make exact solve times so heavy-tailed (see the struct
    /// docs) that the seed decides the script's total work.
    fn instance(&self, op: usize) -> (Platform, NodeId) {
        let mut rng = stream_rng(self.seed, 4, (op % self.platforms) as u64);
        topo::random_connected(&mut rng, self.p, 0.25, &topo::ParamRange::default())
    }

    /// Periods a reconstructed schedule is executed for: twice the horizon
    /// of the repo's own reconstruction experiment. (Ten periods are not
    /// enough: one platform in ten fills its pipeline later than that.)
    fn periods(g: &Platform) -> usize {
        6 * g.num_nodes()
    }

    fn pipeline(g: &Platform, m: NodeId) -> Result<OpOutcome, String> {
        let sol = master_slave::solve(g, m).map_err(|e| e.to_string())?;
        sol.check(g, &MasterSlave::new(m).model)?;
        let sched = reconstruct_master_slave(g, &sol);
        sched.check(g)?;
        let run = simulate_master_slave(g, m, &sched, Self::periods(g));
        let mut out = OpOutcome::new(OpKind::Solve, Ok(sol.ntask.to_f64()));
        finish(&mut out, &sol, &sched, &run);
        Ok(out)
    }

    fn pipeline_traced(g: &Platform, m: NodeId, tracer: &mut Tracer) -> Result<OpOutcome, String> {
        let f = MasterSlave::new(m);
        let (built, _) = tracer.span(Layer::Build, || f.build(g));
        let (p, vars) = built.map_err(|e| e.to_string())?;
        let (acts, solve) = tracer.span(Layer::ExactSolve, || engine::solve_problem::<Ratio>(&p));
        let acts = acts.map_err(|e| e.to_string())?;
        let mut out = OpOutcome::new(OpKind::Solve, Ok(acts.objective_f64()));
        out.harvest_solution(acts.solution());
        out.attach_solve_telemetry(tracer, solve);
        tracer
            .span(Layer::VerifyOptimality, || {
                p.verify_optimality(acts.solution())
            })
            .0
            .map_err(|e| format!("optimality certificate failed: {e}"))?;
        let (sol, _) = tracer.span(Layer::Extract, || f.extract(g, &vars, &acts));
        let sol = sol.map_err(|e| e.to_string())?;
        tracer
            .span(Layer::SolutionCheck, || sol.check(g, &f.model))
            .0?;
        let (sched, _) = tracer.span(Layer::Reconstruct, || reconstruct_master_slave(g, &sol));
        tracer.span(Layer::ScheduleCheck, || sched.check(g)).0?;
        let (run, _) = tracer.span(Layer::Simulate, || {
            simulate_master_slave(g, m, &sched, Self::periods(g))
        });
        finish(&mut out, &sol, &sched, &run);
        tracer.span(Layer::Release, || drop((p, vars, acts, sol, sched, run)));
        Ok(out)
    }
}

/// Nanoseconds per `acc = acc·x + y` over `Ratio`s the size the exact
/// solves of this workload produce (one u32 limb per numerator and
/// denominator): a fixed micro-kernel over `ss-num`'s public operators, so
/// an `ss-num` change can be told apart from an `ss-lp` one.
fn ratio_muladd_ns() -> f64 {
    const STEPS: usize = 200_000;
    let xs: Vec<Ratio> = (0..64).map(|i| Ratio::new(3 + i % 7, 2 + i % 5)).collect();
    let ys: Vec<Ratio> = (0..64).map(|i| Ratio::new(i % 11 - 5, 1 + i % 3)).collect();
    let run = || {
        let t = Instant::now();
        let mut acc = Ratio::one();
        for i in 0..STEPS {
            acc = &(&acc * &xs[i % 64]) + &ys[i % 64];
            // Keep the operands solve-sized: fold the accumulator back
            // before it outgrows one limb.
            if acc.numer().bits().max(acc.denom().bits()) > 24 {
                acc = Ratio::new(1 + (i % 13) as i64, 1 + (i % 4) as i64);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e9 / STEPS as f64
    };
    (0..5).map(|_| run()).fold(f64::INFINITY, f64::min)
}

impl Workload for CertifiedPipeline {
    type Input = (Platform, NodeId);

    fn name(&self) -> &'static str {
        "certified_pipeline"
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

    /// The pipeline keeps no state, so what a user pays once is the first
    /// schedules of a fresh process: the script's first [`FIRST_BATCH`]
    /// platforms end to end (several, because one exact solve's time depends
    /// heavily on the platform the seed happened to draw first).
    fn set_up(&mut self) -> Result<(), String> {
        for op in 0..FIRST_BATCH.min(self.platforms) {
            let (g, m) = self.instance(op);
            Self::pipeline(&g, m)
                .and_then(|out| out.answer)
                .map_err(|e| format!("first pipeline: {e}"))?;
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

    fn run(&mut self, _op: usize, (g, m): Self::Input) -> OpOutcome {
        Self::pipeline(&g, m).unwrap_or_else(|e| OpOutcome::new(OpKind::Solve, Err(e)))
    }

    fn run_traced(&mut self, _op: usize, (g, m): Self::Input, tracer: &mut Tracer) -> OpOutcome {
        Self::pipeline_traced(&g, m, tracer)
            .unwrap_or_else(|e| OpOutcome::new(OpKind::Solve, Err(e)))
    }

    /// The certificate, both `check`s and the simulated plan are verified
    /// inside the op (a failed one is the op's error). On top, the exact
    /// rate must agree with an independent cold f64 solve.
    fn verify(&mut self, outcomes: &[OpOutcome]) -> Verdict {
        let mut verdict = Verdict::default();
        let approx: Vec<Result<f64, String>> = (0..self.platforms)
            .map(|i| {
                let (g, m) = self.instance(i);
                engine::solve_approx(&MasterSlave::new(m), &g)
                    .map(|a| a.objective_f64())
                    .map_err(|e| e.to_string())
            })
            .collect();
        for (op, out) in outcomes.iter().enumerate() {
            match (&out.answer, &approx[op % self.platforms]) {
                (Err(e), _) => verdict.failures.push(Failure {
                    op,
                    outcome: "error".into(),
                    detail: e.clone(),
                }),
                (Ok(got), Ok(want)) if close(*got, *want) => {}
                // The exact side carries a verified certificate: a
                // disagreement is the f64 reference's defect, not this op's.
                (Ok(got), want) => verdict.notes.push(format!(
                    "op {op}: certified rate {got} vs cold f64 solve {want:?}: reference wrong"
                )),
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
        let (g, m) = self.instance(0);
        let (p, _) = master_slave::build(&g, m, &MasterSlave::new(m).model);
        let sf = ss_lp::lower::<Ratio>(&p);
        (sf.m, sf.ncols)
    }

    fn trace_extras(&mut self, _latency_p50_ms: f64) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![("num.ratio_muladd_ns", ratio_muladd_ns())])
    }
}
