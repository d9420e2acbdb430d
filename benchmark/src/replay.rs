//! The replay protocol every workload is measured by.
//!
//! A workload is a fixed *script* of N operations. After the set-up
//! repetitions, one untimed warm-up pass and then `passes` timed passes
//! replay the script; state is reset before every pass, so every pass does
//! bit-identical work (checked: answers and counts must repeat, or the run
//! is reported `nondeterministic`). Each operation's input is materialised
//! just before it runs, outside the timed span. The answer check runs after
//! the passes, untimed. A traced run adds passes that drive the layers'
//! public functions one by one with spans around each.

use crate::stats;
use crate::trace::{Layer, LayerTimes, Tracer, LAYERS};
use crate::workload::{OpKind, OpOutcome, Quiet, Verdict, Workload};
use std::time::Instant;

/// Nominal wall-clock of one pass at full scale, in seconds: the script
/// lengths are constants sized to it, and `--seconds` buys timed passes at
/// this price (`15` → the nine passes `BENCHMARK.json` is recorded with).
pub const PASS_SECONDS: f64 = 1.7;

/// Timed passes a `--seconds` budget buys (at least one).
pub fn passes_for(seconds: u64) -> usize {
    ((seconds as f64 / PASS_SECONDS).round() as usize).max(1)
}

/// How one run replays its script.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Timed, untraced passes.
    pub passes: usize,
    /// Passes replayed layer by layer with spans (0 = no traced run).
    pub traced_passes: usize,
}

/// What the traced passes add.
pub struct Traced {
    /// Root-span wall of every op, `[op][pass]`, in milliseconds.
    pub lat_ms: Vec<Vec<f64>>,
    /// Quiet per-layer milliseconds of every op.
    pub layers: Vec<LayerTimes>,
    /// Outcomes of the first traced pass (they carry the counts only the
    /// layer-by-layer replay can see).
    pub outcomes: Vec<OpOutcome>,
    /// Ops whose layer-by-layer answer differs from the public entry
    /// point's.
    pub diverged: Vec<usize>,
    /// The workload's own extra per-layer metrics.
    pub extras: Vec<(&'static str, f64)>,
    /// The recorder, for the trace file.
    pub tracer: Tracer,
}

/// Everything one run measured.
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// How observations collapse to a quiet latency.
    pub quiet: Quiet,
    /// Seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every observation, `[op][pass]`, in milliseconds.
    pub lat_ms: Vec<Vec<f64>>,
    /// Wall-clock of every timed pass, in seconds.
    pub pass_wall_s: Vec<f64>,
    /// Outcomes of the first timed pass.
    pub outcomes: Vec<OpOutcome>,
    /// Ops whose answer or counts differed between passes.
    pub unrepeatable: Vec<usize>,
    /// The answer check.
    pub verdict: Verdict,
    /// Seconds the answer check took.
    pub verify_s: f64,
    /// `VmHWM` when the timed passes ended (before the reference solves of
    /// the answer check, which would otherwise set the high-water mark).
    pub peak_rss_mb: f64,
    /// Hash of the generated inputs.
    pub fingerprint: u64,
    /// LP rows and columns of a representative instance.
    pub lp_shape: (usize, usize),
    /// The traced passes, if any.
    pub traced: Option<Traced>,
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn collapse(quiet: Quiet, xs: &[f64]) -> f64 {
    match quiet {
        Quiet::Min => stats::min(xs),
        Quiet::LowerQuartile => stats::quantile(xs, 0.25),
    }
}

/// Run `w` through the replay protocol.
pub fn run<W: Workload>(w: &mut W, cfg: &RunConfig) -> Result<RunResult, String> {
    // Set-up, repeated; the last one stays live.
    let reps = w.setup_reps().max(1);
    let mut setup_s = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep > 0 {
            w.tear_down();
        }
        let t = Instant::now();
        w.set_up()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let n = w.ops();
    if n == 0 {
        return Err("empty script".into());
    }

    // Warm-up pass: measuring apparatus, billed nowhere.
    w.reset()?;
    for op in 0..n {
        let input = w.prepare(op);
        std::hint::black_box(w.run(op, input));
    }

    let mut lat_ms = vec![Vec::with_capacity(cfg.passes); n];
    let mut pass_wall_s = Vec::with_capacity(cfg.passes);
    let mut outcomes: Vec<OpOutcome> = Vec::with_capacity(n);
    let mut unrepeatable = Vec::new();
    for pass in 0..cfg.passes {
        w.reset()?;
        let t_pass = Instant::now();
        for (op, lat) in lat_ms.iter_mut().enumerate() {
            let input = w.prepare(op);
            let t = Instant::now();
            let out = w.run(op, input);
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            if pass == 0 {
                outcomes.push(out);
            } else if !out.repeats(&outcomes[op]) && !unrepeatable.contains(&op) {
                unrepeatable.push(op);
            }
        }
        pass_wall_s.push(t_pass.elapsed().as_secs_f64());
    }
    let peak_rss_mb = peak_rss_mb();

    let mut traced = None;
    if cfg.traced_passes > 0 {
        let mut tracer = Tracer::new();
        let mut t_lat = vec![Vec::with_capacity(cfg.traced_passes); n];
        let mut t_outcomes: Vec<OpOutcome> = Vec::with_capacity(n);
        let mut diverged = Vec::new();
        for pass in 0..cfg.traced_passes {
            w.reset()?;
            for (op, lat) in t_lat.iter_mut().enumerate() {
                let input = w.prepare(op);
                tracer.begin_op(pass, op);
                let out = w.run_traced(op, input, &mut tracer);
                lat.push(tracer.end_op() as f64 / 1e6);
                let same = match (&out.answer, &outcomes[op].answer) {
                    (Ok(a), Ok(b)) => crate::script::close(*a, *b),
                    (Err(_), Err(_)) => true,
                    _ => false,
                };
                if !same && !diverged.contains(&op) {
                    diverged.push(op);
                }
                if pass == 0 {
                    t_outcomes.push(out);
                }
            }
        }
        let per_pass: Vec<Vec<LayerTimes>> = (0..cfg.traced_passes)
            .map(|pass| tracer.layer_times(pass, n))
            .collect();
        let layers = (0..n)
            .map(|op| {
                let mut lt = [0.0; LAYERS];
                for (l, slot) in lt.iter_mut().enumerate() {
                    let xs: Vec<f64> = per_pass.iter().map(|p| p[op][l]).collect();
                    *slot = collapse(w.quiet(), &xs);
                }
                lt
            })
            .collect();
        traced = Some(Traced {
            lat_ms: t_lat,
            layers,
            outcomes: t_outcomes,
            diverged,
            extras: Vec::new(),
            tracer,
        });
    }

    let fingerprint = w.fingerprint();
    let lp_shape = w.lp_shape();
    let t = Instant::now();
    let verdict = w.verify(&outcomes);
    let verify_s = t.elapsed().as_secs_f64();

    let mut result = RunResult {
        workload: w.name(),
        quiet: w.quiet(),
        setup_s,
        lat_ms,
        pass_wall_s,
        outcomes,
        unrepeatable,
        verdict,
        verify_s,
        peak_rss_mb,
        fingerprint,
        lp_shape,
        traced,
    };
    let latency_p50_ms = result.latency_p50_ms();
    if let Some(traced) = &mut result.traced {
        traced.extras = w.trace_extras(latency_p50_ms)?;
    }
    w.tear_down();
    Ok(result)
}

impl RunResult {
    /// Number of operations in the script.
    pub fn ops(&self) -> usize {
        self.lat_ms.len()
    }

    /// Indices of the failed operations (errored or wrong), each once.
    pub fn failed_ops(&self) -> Vec<usize> {
        let mut ops: Vec<usize> = self.verdict.failures.iter().map(|f| f.op).collect();
        ops.sort_unstable();
        ops.dedup();
        ops
    }

    /// `true` when no op failed and every pass repeated exactly.
    pub fn correct(&self) -> bool {
        self.verdict.failures.is_empty()
            && self.unrepeatable.is_empty()
            && self.traced.as_ref().is_none_or(|t| t.diverged.is_empty())
    }

    /// Quiet latency of every op, in milliseconds.
    pub fn quiet_ms(&self) -> Vec<f64> {
        self.lat_ms
            .iter()
            .map(|xs| collapse(self.quiet, xs))
            .collect()
    }

    /// Completed operations per second of quiet time: a failed op spends
    /// its time and completes nothing.
    pub fn ops_per_s(&self) -> f64 {
        let total_s: f64 = self.quiet_ms().iter().sum::<f64>() / 1e3;
        (self.ops() - self.failed_ops().len()) as f64 / total_s
    }

    /// The ops `latency_p50_ms` is taken over: `update` requests where the
    /// script has any, every op otherwise; failed ops count as missing.
    fn latency_ops(&self) -> Vec<usize> {
        let failed = self.failed_ops();
        let updates = self.outcomes.iter().any(|o| o.kind == OpKind::Update);
        (0..self.ops())
            .filter(|op| !updates || self.outcomes[*op].kind == OpKind::Update)
            .filter(|op| failed.binary_search(op).is_err())
            .collect()
    }

    /// Median quiet latency, in milliseconds.
    pub fn latency_p50_ms(&self) -> f64 {
        let quiet = self.quiet_ms();
        let xs: Vec<f64> = self.latency_ops().iter().map(|&op| quiet[op]).collect();
        stats::median(&xs)
    }

    /// Median quiet latency over ops of `kind`, in milliseconds.
    pub fn kind_p50_ms(&self, kind: OpKind) -> f64 {
        let quiet = self.quiet_ms();
        let xs: Vec<f64> = (0..self.ops())
            .filter(|&op| self.outcomes[op].kind == kind)
            .map(|op| quiet[op])
            .collect();
        stats::median(&xs)
    }

    /// Raw p50 / p90 / p99 over every observation, and how many there are.
    /// Printed, never gated: the upper percentiles of identical runs moved
    /// by a third and more on the sizing host.
    pub fn raw_percentiles_ms(&self) -> (f64, f64, f64, usize) {
        let all: Vec<f64> = self.lat_ms.iter().flatten().copied().collect();
        (
            stats::quantile(&all, 0.5),
            stats::quantile(&all, 0.9),
            stats::quantile(&all, 0.99),
            all.len(),
        )
    }

    /// Minimum over the set-up repetitions, in seconds.
    pub fn setup_min_s(&self) -> f64 {
        stats::min(&self.setup_s)
    }

    /// `(p75 − p25) / median` of the pass walls.
    pub fn pass_spread_frac(&self) -> f64 {
        let m = stats::median(&self.pass_wall_s);
        if m == 0.0 {
            return 0.0;
        }
        (stats::quantile(&self.pass_wall_s, 0.75) - stats::quantile(&self.pass_wall_s, 0.25)) / m
    }

    /// Share of observations above 1.25 × that op's best.
    pub fn ops_disturbed_frac(&self) -> f64 {
        let (mut disturbed, mut total) = (0usize, 0usize);
        for xs in &self.lat_ms {
            let best = stats::min(xs);
            disturbed += xs.iter().filter(|x| **x > 1.25 * best).count();
            total += xs.len();
        }
        disturbed as f64 / total.max(1) as f64
    }

    /// Share of traced op wall no layer span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let Some(t) = &self.traced else { return 0.0 };
        let measured = |lt: &LayerTimes| -> f64 {
            Layer::ALL
                .iter()
                .filter(|l| !l.is_telemetry())
                .map(|l| lt[*l as usize])
                .sum()
        };
        let wall: f64 = t.layers.iter().map(measured).sum();
        let root: f64 = t.layers.iter().map(|lt| lt[Layer::Op as usize]).sum();
        if wall == 0.0 {
            0.0
        } else {
            root / wall
        }
    }

    /// `(traced − untraced) / untraced` over the summed quiet op walls.
    pub fn tracing_overhead_frac(&self) -> f64 {
        let Some(t) = &self.traced else { return 0.0 };
        let traced: f64 = t.lat_ms.iter().map(|xs| collapse(self.quiet, xs)).sum();
        let plain: f64 = self.quiet_ms().iter().sum();
        (traced - plain) / plain
    }
}
