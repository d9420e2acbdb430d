//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each crate's public functions; nothing outside `benchmark/` gains a span.
//! Splits finer than a public call (pricing, factor, update, FTRAN/BTRAN,
//! snapshot, the service's `Replan.solve_ms`) are copied from the telemetry
//! the public API already returns and tagged [`Source::Telemetry`]: they
//! annotate their parent and never enter self-time arithmetic (the
//! program's own counters overlap — a pricing BTRAN is billed to both
//! `pricing_ms` and `ftran_btran_ms`).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed layer boundary. The discriminant indexes [`LayerTimes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole operation (root span).
    Op,
    /// `ParamScale::apply` (ss-core drift on an ss-platform graph).
    DriftApply,
    /// `Formulation::build`.
    Build,
    /// `ss_lp::lower_with`.
    Lower,
    /// `ss_lp::refresh`.
    Refresh,
    /// The f64 LP solve call (`solve_warm_on`).
    Solve,
    /// The exact `Ratio` LP solve call (`engine::solve_problem`).
    ExactSolve,
    /// Telemetry: time inside pricing.
    Pricing,
    /// Telemetry: full refactorizations.
    Factor,
    /// Telemetry: per-pivot basis updates.
    Update,
    /// Telemetry: FTRAN/BTRAN solves.
    FtranBtran,
    /// Telemetry: warm snapshot capture.
    Snapshot,
    /// `Problem::verify_optimality`.
    VerifyOptimality,
    /// `Formulation::extract`.
    Extract,
    /// `MasterSlaveSolution::check`.
    SolutionCheck,
    /// `reconstruct_master_slave`.
    Reconstruct,
    /// `PeriodicSchedule::check`.
    ScheduleCheck,
    /// `simulate_master_slave`.
    Simulate,
    /// Freeing what the op built (platform, problem, forms, solution).
    Release,
    /// `encode_frame` of the request.
    Encode,
    /// Socket write → reactor → worker → socket read.
    RoundTrip,
    /// Parse of the response frame.
    Decode,
    /// Telemetry: `Replan.solve_ms` reported by the service.
    ServiceSolve,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = Layer::ServiceSolve as usize + 1;

/// Milliseconds per layer for one operation.
pub type LayerTimes = [f64; LAYERS];

impl Layer {
    /// Every layer, in discriminant order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Op,
        Layer::DriftApply,
        Layer::Build,
        Layer::Lower,
        Layer::Refresh,
        Layer::Solve,
        Layer::ExactSolve,
        Layer::Pricing,
        Layer::Factor,
        Layer::Update,
        Layer::FtranBtran,
        Layer::Snapshot,
        Layer::VerifyOptimality,
        Layer::Extract,
        Layer::SolutionCheck,
        Layer::Reconstruct,
        Layer::ScheduleCheck,
        Layer::Simulate,
        Layer::Release,
        Layer::Encode,
        Layer::RoundTrip,
        Layer::Decode,
        Layer::ServiceSolve,
    ];

    /// `true` for the splits the program reports (never timed here): they
    /// annotate a measured span and stay out of self-time arithmetic.
    pub fn is_telemetry(self) -> bool {
        matches!(
            self,
            Layer::Pricing
                | Layer::Factor
                | Layer::Update
                | Layer::FtranBtran
                | Layer::Snapshot
                | Layer::ServiceSolve
        )
    }

    /// Span name as written to the trace file: `<crate>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "bench.op",
            Layer::DriftApply => "platform.drift_apply",
            Layer::Build => "core.build",
            Layer::Lower => "lp.lower",
            Layer::Refresh => "lp.refresh",
            Layer::Solve => "lp.solve",
            Layer::ExactSolve => "lp.solve_exact",
            Layer::Pricing => "lp.pricing",
            Layer::Factor => "lp.factor",
            Layer::Update => "lp.update",
            Layer::FtranBtran => "lp.ftran_btran",
            Layer::Snapshot => "lp.snapshot",
            Layer::VerifyOptimality => "num.verify_optimality",
            Layer::Extract => "core.extract",
            Layer::SolutionCheck => "core.check",
            Layer::Reconstruct => "schedule.reconstruct",
            Layer::ScheduleCheck => "schedule.check",
            Layer::Simulate => "sim.simulate",
            Layer::Release => "core.release",
            Layer::Encode => "service.encode",
            Layer::RoundTrip => "service.roundtrip",
            Layer::Decode => "service.decode",
            Layer::ServiceSolve => "service.solve",
        }
    }
}

/// Where a span's interval came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Span,
    /// A duration the program reported; placed at its parent's start.
    Telemetry,
}

/// One recorded span. Spans of one operation share `(pass, op)`.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The span that caused this one (`None` for the operation root).
    pub parent: Option<usize>,
    /// Traced pass number.
    pub pass: usize,
    /// Operation index within the script.
    pub op: usize,
    /// Layer boundary.
    pub layer: Layer,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Measured here or reported by the program.
    pub source: Source,
}

/// Span recorder for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pass: usize,
    op: usize,
    root: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            pass: 0,
            op: 0,
            root: None,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<usize>,
        layer: Layer,
        start_ns: u64,
        source: Source,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            pass: self.pass,
            op: self.op,
            layer,
            start_ns,
            end_ns: start_ns,
            source,
        });
        id
    }

    /// Open the root span of operation `op` in traced pass `pass`.
    pub fn begin_op(&mut self, pass: usize, op: usize) {
        self.pass = pass;
        self.op = op;
        let now = self.now();
        self.root = Some(self.push(None, Layer::Op, now, Source::Span));
    }

    /// Close the current root span; returns its duration in nanoseconds.
    pub fn end_op(&mut self) -> u64 {
        let root = self.root.take().expect("end_op without begin_op");
        let now = self.now();
        self.spans[root].end_ns = now;
        now - self.spans[root].start_ns
    }

    /// Time `f` as a child of the current root span.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        let id = self.push(self.root, layer, start, Source::Span);
        self.spans[id].end_ns = end;
        (out, id)
    }

    /// Attach a program-reported duration as a child of `parent`.
    pub fn telemetry(&mut self, parent: usize, layer: Layer, ms: f64) {
        let start = self.spans[parent].start_ns;
        let id = self.push(Some(parent), layer, start, Source::Telemetry);
        self.spans[id].end_ns = start + (ms.max(0.0) * 1e6) as u64;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer milliseconds of each operation of `pass`, indexed by op.
    /// Measured spans contribute *self time* (duration minus measured
    /// children); telemetry spans contribute their reported duration.
    /// `[Layer::Op]` therefore holds what no layer span covers.
    pub fn layer_times(&self, pass: usize, ops: usize) -> Vec<LayerTimes> {
        let mut out = vec![[0.0; LAYERS]; ops];
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Source::Span) = (s.parent, s.source) {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for s in self.spans.iter().filter(|s| s.pass == pass) {
            let dur = s.end_ns - s.start_ns;
            let ns = match s.source {
                Source::Span => dur.saturating_sub(child_ns[s.id]),
                Source::Telemetry => dur,
            };
            out[s.op][s.layer as usize] += ns as f64 / 1e6;
        }
        out
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let source = match s.source {
                Source::Span => "span",
                Source::Telemetry => "telemetry",
            };
            writeln!(
                w,
                "{{\"workload\":\"{workload}\",\"pass\":{},\"op\":{},\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"source\":\"{source}\"}}",
                s.pass,
                s.op,
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_measured_children_only() {
        let mut t = Tracer::new();
        t.begin_op(0, 0);
        let (_, solve) = t.span(Layer::Solve, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.telemetry(solve, Layer::Pricing, 1.5);
        let wall = t.end_op() as f64 / 1e6;
        let lt = t.layer_times(0, 1)[0];
        assert!(lt[Layer::Solve as usize] >= 2.0);
        assert_eq!(lt[Layer::Pricing as usize], 1.5);
        // Root self time = wall − measured children; telemetry is not
        // subtracted from its parent.
        let covered = lt[Layer::Solve as usize] + lt[Layer::Op as usize];
        assert!((covered - wall).abs() < 1e-6);
        assert_eq!(t.spans().len(), 3);
    }
}
