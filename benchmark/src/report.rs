//! Metric definitions and the run report: every metric by name with its
//! unit, the failures the answer check found, and the one-line JSON result.

use crate::replay::RunResult;
use crate::stats;
use crate::trace::{Layer, LayerTimes, LAYERS};
use crate::workload::{OpKind, OpOutcome};
use ss_lp::WarmOutcome;

/// A measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, the same four on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    // Set-ups last tens of milliseconds, so theirs is the widest bound.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The per-layer metrics, `<crate>.<name>`. Times are means per operation
/// of the quiet per-layer time unless the README says otherwise; a layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("platform.drift_apply_ms", "ms"),
    ("platform.spec_roundtrip_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.check_ms", "ms"),
    ("core.release_ms", "ms"),
    ("core.session_overhead_ms", "ms"),
    ("core.warm_frac", "ratio"),
    ("core.dual_repaired_frac", "ratio"),
    ("core.repaired_frac", "ratio"),
    ("core.cold_fallback_frac", "ratio"),
    ("lp.lower_ms", "ms"),
    ("lp.refresh_ms", "ms"),
    ("lp.lowering_reused_frac", "ratio"),
    ("lp.solve_ms", "ms"),
    ("lp.pricing_ms", "ms"),
    ("lp.factor_ms", "ms"),
    ("lp.update_ms", "ms"),
    ("lp.ftran_btran_ms", "ms"),
    ("lp.snapshot_ms", "ms"),
    ("lp.solve_unattributed_ms", "ms"),
    ("lp.pivots_per_op", "count"),
    ("lp.phase1_pivots_per_op", "count"),
    ("lp.priced_columns_per_op", "count"),
    ("lp.priced_columns_per_pivot", "count"),
    ("lp.factor_nnz", "count"),
    ("lp.fill_ratio", "ratio"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("num.exact_solve_ms", "ms"),
    ("num.verify_optimality_ms", "ms"),
    ("num.ratio_muladd_ns", "ns"),
    ("num.solution_max_bits", "bits"),
    ("schedule.reconstruct_ms", "ms"),
    ("schedule.check_ms", "ms"),
    ("schedule.rounds", "count"),
    ("schedule.period_bits", "bits"),
    ("sim.simulate_ms", "ms"),
    ("sim.plan_match_frac", "ratio"),
    ("service.update_ms", "ms"),
    ("service.rate_ms", "ms"),
    ("service.certify_ms", "ms"),
    ("service.snapshot_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.decode_ms", "ms"),
    ("service.reactor_protocol_ms", "ms"),
    ("service.persist_ms", "ms"),
    ("service.worker_overhead_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.lp_solves_per_update", "ratio"),
    ("service.warm_frac", "ratio"),
    ("service.register_ms", "ms"),
    ("service.restart_recover_ms", "ms"),
    ("service.restart_cold_solves", "count"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.tracing_overhead_frac", "ratio"),
    ("bench.pass_spread_frac", "ratio"),
    ("bench.ops_disturbed_frac", "ratio"),
    ("bench.verify_s", "s"),
];

/// The end-to-end metrics of `r`.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let values = [
        r.ops_per_s(),
        r.latency_p50_ms(),
        r.peak_rss_mb,
        r.setup_min_s(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect()
}

fn frac(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics of `r`, every name of [`PER_LAYER`] in order.
///
/// Layer times come from the traced passes when the run has them, and from
/// the telemetry the untraced ops returned otherwise (so an untraced run
/// still prints the splits the program reports, but no span-timed layer).
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let n = r.ops() as f64;
    let telemetry_only: Vec<LayerTimes>;
    let layers: &[LayerTimes] = match &r.traced {
        Some(t) => &t.layers,
        None => {
            telemetry_only = r.outcomes.iter().map(|o| o.tel).collect();
            &telemetry_only
        }
    };
    // Counts only the layer-by-layer replay can see (the certified pipeline's
    // public entry point returns no LP telemetry) come from the traced pass.
    let counted: &[OpOutcome] = r.traced.as_ref().map_or(&r.outcomes, |t| &t.outcomes);
    let mean = |l: Layer| layers.iter().map(|lt| lt[l as usize]).sum::<f64>() / n;
    let sum_count = |f: fn(&OpOutcome) -> u64| counted.iter().map(f).sum::<u64>() as f64;
    let max_count = |f: fn(&OpOutcome) -> u64| counted.iter().map(f).max().unwrap_or(0) as f64;

    let laddered: Vec<&OpOutcome> = r
        .outcomes
        .iter()
        .filter(|o| o.counts.ladder.is_some())
        .collect();
    let rung = |w: WarmOutcome| {
        frac(
            laddered
                .iter()
                .filter(|o| o.counts.ladder == Some(w))
                .count(),
            laddered.len(),
        )
    };
    // `apply` wall minus what the session's telemetry bills: only session
    // ops (a ladder rung on a solver op) have both sides.
    let quiet = r.quiet_ms();
    let overhead: Vec<f64> = r
        .outcomes
        .iter()
        .zip(&quiet)
        .filter(|(o, _)| o.kind == OpKind::Solve && o.counts.ladder.is_some())
        .map(|(o, wall)| {
            let billed: f64 = [
                Layer::Build,
                Layer::Lower,
                Layer::Refresh,
                Layer::Solve,
                Layer::Snapshot,
            ]
            .iter()
            .map(|l| o.tel[*l as usize])
            .sum();
            wall - billed
        })
        .collect();
    let solve_ms = mean(Layer::Solve) + mean(Layer::ExactSolve) + mean(Layer::ServiceSolve);
    let split: f64 = [
        Layer::Pricing,
        Layer::Factor,
        Layer::Update,
        Layer::FtranBtran,
        Layer::Snapshot,
    ]
    .iter()
    .map(|l| mean(*l))
    .sum();
    let pivots = sum_count(|o| o.counts.pivots);
    let priced = sum_count(|o| o.counts.priced);
    let solving: Vec<&OpOutcome> = counted.iter().filter(|o| o.counts.factor_nnz > 0).collect();
    let rates: Vec<&OpOutcome> = r
        .outcomes
        .iter()
        .filter(|o| o.kind == OpKind::Rate)
        .collect();
    let update_solve: Vec<f64> = r
        .outcomes
        .iter()
        .filter(|o| o.kind == OpKind::Update)
        .map(|o| o.tel[Layer::ServiceSolve as usize])
        .collect();
    let service = |kind: OpKind| {
        if r.workload == "service_mixed" {
            r.kind_p50_ms(kind)
        } else {
            0.0
        }
    };

    let value = |name: &str| -> f64 {
        match name {
            "platform.drift_apply_ms" => mean(Layer::DriftApply),
            "core.build_ms" => mean(Layer::Build),
            "core.extract_ms" => mean(Layer::Extract),
            "core.check_ms" => mean(Layer::SolutionCheck),
            "core.release_ms" => mean(Layer::Release),
            "core.session_overhead_ms" => stats::mean(&overhead),
            "core.warm_frac" => rung(WarmOutcome::Warm),
            "core.dual_repaired_frac" => rung(WarmOutcome::DualRepaired),
            "core.repaired_frac" => rung(WarmOutcome::Repaired),
            "core.cold_fallback_frac" => rung(WarmOutcome::ColdFallback),
            "lp.lower_ms" => mean(Layer::Lower),
            "lp.refresh_ms" => mean(Layer::Refresh),
            "lp.lowering_reused_frac" => frac(
                laddered.iter().filter(|o| o.counts.lowering_reused).count(),
                laddered.len(),
            ),
            "lp.solve_ms" => solve_ms,
            "lp.pricing_ms" => mean(Layer::Pricing),
            "lp.factor_ms" => mean(Layer::Factor),
            "lp.update_ms" => mean(Layer::Update),
            "lp.ftran_btran_ms" => mean(Layer::FtranBtran),
            "lp.snapshot_ms" => mean(Layer::Snapshot),
            // A lower bound: the program bills a pricing BTRAN to both
            // `pricing_ms` and `ftran_btran_ms`.
            "lp.solve_unattributed_ms" => (solve_ms - split).max(0.0),
            "lp.pivots_per_op" => pivots / n,
            "lp.phase1_pivots_per_op" => sum_count(|o| o.counts.phase1) / n,
            "lp.priced_columns_per_op" => priced / n,
            "lp.priced_columns_per_pivot" if pivots > 0.0 => priced / pivots,
            "lp.factor_nnz" => {
                solving.iter().map(|o| o.counts.factor_nnz).sum::<u64>() as f64
                    / solving.len().max(1) as f64
            }
            "lp.fill_ratio" => counted.iter().map(|o| o.fill_ratio).fold(0.0, f64::max),
            "lp.rows" => r.lp_shape.0 as f64,
            "lp.cols" => r.lp_shape.1 as f64,
            "num.exact_solve_ms" => mean(Layer::ExactSolve),
            "num.verify_optimality_ms" => mean(Layer::VerifyOptimality),
            "num.solution_max_bits" => max_count(|o| o.counts.max_bits),
            "schedule.reconstruct_ms" => mean(Layer::Reconstruct),
            "schedule.check_ms" => mean(Layer::ScheduleCheck),
            "schedule.rounds" => sum_count(|o| o.counts.rounds) / n,
            "schedule.period_bits" => max_count(|o| o.counts.period_bits),
            "sim.simulate_ms" => mean(Layer::Simulate),
            "sim.plan_match_frac" => frac(
                r.outcomes.iter().filter(|o| o.counts.plan_matched).count(),
                r.ops(),
            ),
            "service.update_ms" => service(OpKind::Update),
            "service.rate_ms" => service(OpKind::Rate),
            "service.certify_ms" => service(OpKind::Certify),
            "service.snapshot_ms" => service(OpKind::Snapshot),
            "service.encode_ms" => mean(Layer::Encode),
            "service.decode_ms" => mean(Layer::Decode),
            "service.solve_ms" => stats::mean(&update_solve),
            "service.lp_solves_per_update" => {
                let answered: u64 = rates.iter().map(|o| o.counts.answered).sum();
                let solves: u64 = rates.iter().map(|o| o.counts.lp_solves).sum();
                if answered == 0 {
                    0.0
                } else {
                    solves as f64 / answered as f64
                }
            }
            "service.warm_frac" => stats::mean(&rates.iter().map(|o| o.aux).collect::<Vec<_>>()),
            "bench.unattributed_frac" => r.unattributed_frac(),
            "bench.tracing_overhead_frac" => r.tracing_overhead_frac(),
            "bench.pass_spread_frac" => r.pass_spread_frac(),
            "bench.ops_disturbed_frac" => r.ops_disturbed_frac(),
            "bench.verify_s" => r.verify_s,
            // Measured only by a workload's own `trace_extras`, or not
            // exercised by this workload.
            _ => 0.0,
        }
    };
    let extras = r.traced.as_ref().map_or(&[][..], |t| &t.extras[..]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: extras
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| value(name), |(_, v)| *v),
            unit,
        })
        .collect()
}

/// The counts that must repeat exactly between two runs of one seed, as one
/// JSON object (`--selfcheck` compares them verbatim).
pub fn counts_json(r: &RunResult) -> String {
    let m = per_layer(r);
    let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    format!(
        "{{\"fingerprint\":\"{:016x}\",\"ops_attempted\":{},\"ops_failed\":{},\"nondeterministic\":{},\
         \"lp.pivots_per_op\":{},\"lp.priced_columns_per_op\":{},\"core.warm_frac\":{},\
         \"core.dual_repaired_frac\":{},\"core.repaired_frac\":{},\"core.cold_fallback_frac\":{}}}",
        r.fingerprint,
        r.ops(),
        r.failed_ops().len(),
        r.unrepeatable.len(),
        get("lp.pivots_per_op"),
        get("lp.priced_columns_per_op"),
        get("core.warm_frac"),
        get("core.dual_repaired_frac"),
        get("core.repaired_frac"),
        get("core.cold_fallback_frac"),
    )
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(r: &RunResult, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.ops(),
        r.failed_ops().len(),
        body.join(", ")
    )
}

/// Print the human-readable report: every metric by name with its unit, the
/// ungated raw percentiles, and every failure the answer check found.
pub fn print(r: &RunResult, seed: u64) {
    println!(
        "== {} · seed {seed} · {} ops × {} timed passes (+1 warm-up, {} traced) · inputs {:016x}",
        r.workload,
        r.ops(),
        r.pass_wall_s.len(),
        r.traced.as_ref().map_or(0, |t| t.lat_ms[0].len()),
        r.fingerprint
    );
    for m in end_to_end(r) {
        println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let (p50, p90, p99, samples) = r.raw_percentiles_ms();
    println!(
        "  raw latency (not gated): p50 {p50:.4} ms · p90 {p90:.4} ms · p99 {p99:.4} ms over {samples} observations"
    );
    println!(
        "  set-up: min {:.4} s · median {:.4} s over {} repetitions; pass walls (s): {}",
        r.setup_min_s(),
        stats::median(&r.setup_s),
        r.setup_s.len(),
        r.pass_wall_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  -- per layer{}",
        if r.traced.is_some() {
            " (traced)"
        } else {
            " (telemetry only; run --trace 1 for spans)"
        }
    );
    for m in per_layer(r) {
        println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  ops_attempted {} · ops_failed {} · nondeterministic {}{}",
        r.ops(),
        r.failed_ops().len(),
        r.unrepeatable.len(),
        r.traced.as_ref().map_or(String::new(), |t| format!(
            " · traced answers diverged {}",
            t.diverged.len()
        ))
    );
    for f in &r.verdict.failures {
        println!("  FAILED op {} [{}]: {}", f.op, f.outcome, f.detail);
    }
    for note in &r.verdict.notes {
        println!("  note: {note}");
    }
    for op in &r.unrepeatable {
        println!("  NONDETERMINISTIC op {op}: answer or counts differed between passes");
    }
    if let Some(t) = &r.traced {
        for op in &t.diverged {
            println!("  DIVERGED op {op}: the layer-by-layer replay answered differently");
        }
        // Largest attributed layers first, so the dominant line is obvious.
        let mut lines: Vec<(f64, &'static str)> = (0..LAYERS)
            .map(|l| {
                (
                    t.layers.iter().map(|lt| lt[l]).sum::<f64>() / r.ops() as f64,
                    Layer::ALL[l].name(),
                )
            })
            .filter(|(ms, _)| *ms > 0.0)
            .collect();
        lines.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let shown: Vec<String> = lines
            .iter()
            .map(|(ms, name)| format!("{name} {ms:.4}"))
            .collect();
        println!(
            "  layer lines, ms per op, largest first: {}",
            shown.join(" · ")
        );
    }
    println!("#counts {}", counts_json(r));
}
