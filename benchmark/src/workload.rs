//! What a scripted workload is: a fixed list of operations generated from
//! the seed, a set-up users pay once, a reset that makes every replay do
//! identical work, and an untimed answer check.

use crate::trace::{Layer, LayerTimes, Tracer, LAYERS};
use ss_core::session::SolveTelemetry;
use ss_lp::{Scalar, Solution, WarmOutcome};

/// Workload size: the gated sizes, or a seconds-long miniature for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is recorded at.
    Full,
    /// Same code paths on toy inputs (`--scale tiny`).
    Tiny,
}

/// How the observations of one operation collapse to its *quiet latency*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quiet {
    /// Identical CPU-bound work: noise is purely additive, take the minimum.
    Min,
    /// The latency contains behaviour that differs from pass to pass (where
    /// in the reactor's 200 µs idle sleep a request lands), so the minimum
    /// would report an alignment nobody gets; what the host adds is still
    /// one-sided. Take the lower quartile: a fixed point of the behaviour's
    /// distribution that six disturbed passes in nine cannot move.
    LowerQuartile,
}

/// What kind of request an operation is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A solver call (the three solver workloads).
    Solve,
    /// Service `update` (drift + re-plan).
    Update,
    /// Service `rate` (read, no solve).
    Rate,
    /// Service `certify` (exact checkpoint).
    Certify,
    /// Service `snapshot` (journal every tenant).
    Snapshot,
}

/// Counts that must repeat exactly from pass to pass and run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simplex pivots, both phases.
    pub pivots: u64,
    /// Pivots before phase 2 (phase 1, dual repair or composite repair).
    pub phase1: u64,
    /// Columns priced.
    pub priced: u64,
    /// Which rung of the warm ladder the solve took, when there is one.
    pub ladder: Option<WarmOutcome>,
    /// The solve reused the cached symbolic lowering.
    pub lowering_reused: bool,
    /// Stored nonzeros of the last factorization.
    pub factor_nnz: u64,
    /// Widest numerator or denominator of an exact solution, in bits.
    pub max_bits: u64,
    /// Communication rounds of the reconstructed schedule.
    pub rounds: u64,
    /// Bits of the reconstructed schedule's period.
    pub period_bits: u64,
    /// The simulated schedule's last period completed exactly the plan.
    pub plan_matched: bool,
    /// LP solves a service tenant has performed (from a `rate` report).
    pub lp_solves: u64,
    /// Re-plan requests a service tenant has answered (from a `rate` report).
    pub answered: u64,
}

/// What one operation returned.
#[derive(Clone, Debug)]
pub struct OpOutcome {
    /// Request kind.
    pub kind: OpKind,
    /// The answer the verification checks (objective / throughput / exact
    /// rate / persisted count), or the error the program returned.
    pub answer: Result<f64, String>,
    /// A second checked figure (`f64_gap` of a certify; 0 otherwise).
    pub aux: f64,
    /// Exact-repeat counts.
    pub counts: Counts,
    /// Per-layer milliseconds the program's own telemetry reported.
    pub tel: LayerTimes,
    /// Peak fill ratio the solve reported.
    pub fill_ratio: f64,
}

impl OpOutcome {
    /// An outcome carrying only an answer.
    pub fn new(kind: OpKind, answer: Result<f64, String>) -> OpOutcome {
        OpOutcome {
            kind,
            answer,
            aux: 0.0,
            counts: Counts::default(),
            tel: [0.0; LAYERS],
            fill_ratio: 0.0,
        }
    }

    /// Copy the counts and layer splits an LP [`Solution`] carries.
    pub fn harvest_solution<S: Scalar>(&mut self, sol: &Solution<S>) {
        self.counts.pivots = sol.iterations() as u64;
        self.counts.phase1 = sol.phase1_iterations() as u64;
        self.counts.priced = sol.priced_columns() as u64;
        self.counts.factor_nnz = sol.factor_nnz() as u64;
        self.fill_ratio = sol.fill_ratio();
        self.tel[Layer::Pricing as usize] = sol.pricing_ms();
        self.tel[Layer::Factor as usize] = sol.factor_ms();
        self.tel[Layer::Update as usize] = sol.update_ms();
        self.tel[Layer::FtranBtran as usize] = sol.ftran_btran_ms();
    }

    /// Copy the counts and layer splits a session re-solve reports.
    pub fn harvest_telemetry(&mut self, t: &SolveTelemetry) {
        self.counts.pivots = t.iterations as u64;
        self.counts.phase1 = t.phase1_iterations as u64;
        self.counts.priced = t.priced_columns as u64;
        self.counts.factor_nnz = t.factor_nnz as u64;
        self.counts.ladder = Some(t.outcome);
        self.counts.lowering_reused = t.lowering_reused;
        self.fill_ratio = t.fill_ratio;
        self.tel[Layer::Build as usize] = t.build_ms;
        let lower = if t.lowering_reused {
            Layer::Refresh
        } else {
            Layer::Lower
        };
        self.tel[lower as usize] = t.lower_ms;
        self.tel[Layer::Solve as usize] = t.solve_ms;
        self.tel[Layer::Snapshot as usize] = t.snapshot_ms;
        self.tel[Layer::Pricing as usize] = t.pricing_ms;
        self.tel[Layer::Factor as usize] = t.factor_ms;
        self.tel[Layer::Update as usize] = t.update_ms;
        self.tel[Layer::FtranBtran as usize] = t.ftran_btran_ms;
    }

    /// Attach the LP splits this outcome carries to span `solve`, as
    /// telemetry-sourced children.
    pub fn attach_solve_telemetry(&self, tracer: &mut Tracer, solve: usize) {
        for l in [
            Layer::Pricing,
            Layer::Factor,
            Layer::Update,
            Layer::FtranBtran,
            Layer::Snapshot,
        ] {
            if self.tel[l as usize] > 0.0 {
                tracer.telemetry(solve, l, self.tel[l as usize]);
            }
        }
    }

    /// `true` when a replay of the same op produced the same answer bits
    /// and the same counts.
    pub fn repeats(&self, other: &OpOutcome) -> bool {
        let same_answer = match (&self.answer, &other.answer) {
            (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
            (Err(_), Err(_)) => true,
            _ => false,
        };
        same_answer && self.kind == other.kind && self.counts == other.counts
    }
}

/// One failed operation: it errored, or its answer was wrong.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Operation index in the script.
    pub op: usize,
    /// What the program did (ladder rung, request kind or `error`).
    pub outcome: String,
    /// Got / expected / which side the exact solve sided with.
    pub detail: String,
}

/// The result of the untimed answer check.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Operations counted in `ops_failed`.
    pub failures: Vec<Failure>,
    /// Disagreements in which the exact solve sided with the program (the
    /// *reference* was wrong): reported, not counted against the program.
    pub notes: Vec<String>,
}

/// A scripted closed-loop workload: one generator thread, one request in
/// flight.
pub trait Workload {
    /// Input of one operation, materialised just before it runs.
    type Input;

    /// Name as in `BENCHMARK.json`.
    fn name(&self) -> &'static str;

    /// How nine observations of one op collapse to its quiet latency.
    fn quiet(&self) -> Quiet;

    /// Number of operations in the script (a constant of the scale).
    fn ops(&self) -> usize;

    /// How many times the set-up is repeated for `setup_s` (a constant of
    /// the scale, sized so the repetitions total about a second).
    fn setup_reps(&self) -> usize;

    /// Everything users pay once: generate inputs from the seed, build
    /// sessions or spawn + listen + connect + register, first cold solve.
    /// Replaces any previous state.
    fn set_up(&mut self) -> Result<(), String>;

    /// Drop what [`Workload::set_up`] built (threads, sockets, files).
    fn tear_down(&mut self);

    /// Restore the state every pass starts from. Untimed.
    fn reset(&mut self) -> Result<(), String>;

    /// Materialise op `op`'s input. Untimed; same `op` ⇒ same input.
    fn prepare(&self, op: usize) -> Self::Input;

    /// The timed operation, through the program's public entry point.
    fn run(&mut self, op: usize, input: Self::Input) -> OpOutcome;

    /// The same work driven layer by layer, recording spans. The caller
    /// has opened the op's root span.
    fn run_traced(&mut self, op: usize, input: Self::Input, tracer: &mut Tracer) -> OpOutcome;

    /// Check every answer against an independent reference. Untimed, after
    /// the passes.
    fn verify(&mut self, outcomes: &[OpOutcome]) -> Verdict;

    /// Hash of the generated inputs (a different seed must change it).
    fn fingerprint(&self) -> u64;

    /// LP rows and columns of a representative instance, for the report.
    fn lp_shape(&self) -> (usize, usize);

    /// Extra per-layer metrics only this workload can measure (traced run
    /// only; may replay the script in other configurations and compare with
    /// the gated configuration's `latency_p50_ms`). Ends with the workload
    /// torn down.
    fn trace_extras(&mut self, _latency_p50_ms: f64) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// FNV-1a, for input fingerprints.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
