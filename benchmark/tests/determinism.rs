//! Determinism and schema: the same seed gives the same inputs, counts and
//! failures; a different seed changes the inputs; every emitted name fits
//! the contract; `BENCHMARK.json` declares exactly what the program emits.

use serde_json::Value;
use ss_benchmark::replay::RunConfig;
use ss_benchmark::report::{self, END_TO_END, PER_LAYER};
use ss_benchmark::workload::Scale;
use ss_benchmark::{run_named, workloads};

/// Two timed passes (so pass-to-pass repeatability is exercised) and one
/// traced pass (so the counts only the layer-by-layer replay sees exist).
const TINY: RunConfig = RunConfig {
    passes: 2,
    traced_passes: 1,
};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key `{key}`")),
        other => panic!("`{key}` of a non-object {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(xs) => xs,
        other => panic!("not an array: {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::UInt(u) => *u as f64,
        Value::Float(f) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn same_seed_same_counts_and_a_different_seed_changes_the_inputs() {
    for name in workloads::NAMES {
        let a = run_named(name, 7, Scale::Tiny, &TINY).expect(name);
        let b = run_named(name, 7, Scale::Tiny, &TINY).expect(name);
        // Fingerprint, ops_failed, nondeterministic, lp.* counts and the
        // ladder fractions, verbatim.
        assert_eq!(report::counts_json(&a), report::counts_json(&b), "{name}");
        assert!(a.correct(), "{name}: {:?}", a.verdict.failures);
        assert!(
            a.unrepeatable.is_empty(),
            "{name}: passes differed at {:?}",
            a.unrepeatable
        );
        let per_layer = |r| -> Vec<(&'static str, f64)> {
            report::per_layer(r)
                .into_iter()
                // Everything that is not a time: counts, sizes, and the
                // ratios of counts (the `bench.*` ratios are ratios of times).
                .filter(|m| matches!(m.unit, "count" | "bits" | "ratio"))
                .filter(|m| !m.name.starts_with("bench."))
                .map(|m| (m.name, m.value))
                .collect()
        };
        assert_eq!(per_layer(&a), per_layer(&b), "{name}");

        let c = run_named(name, 8, Scale::Tiny, &TINY).expect(name);
        assert_ne!(
            a.fingerprint, c.fingerprint,
            "{name}: seed 8 drew seed 7's inputs"
        );
    }
}

#[test]
fn every_name_fits_the_contract() {
    assert!(workloads::NAMES.len() <= 8 && workloads::NAMES.len() >= 2);
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let names: Vec<&str> = workloads::NAMES
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    for name in &names {
        assert!(valid_name(name), "`{name}`");
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.1));
    for unit in units {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "`{unit}`"
        );
    }
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "`{name}` is used twice");
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let r = run_named("cold_plan", 1, Scale::Tiny, &TINY).expect("cold_plan");
    for metrics in [report::end_to_end(&r), report::per_layer(&r)] {
        let line = report::contract_line(&r, &metrics);
        assert!(!line.contains('\n'));
        let v = serde_json::parse(&line).expect("result line is JSON");
        let Value::Object(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&v, "correct"), &Value::Bool(true));
        assert_eq!(number(field(&v, "attempted")), r.ops() as f64);
        assert_eq!(number(field(&v, "failed")), 0.0);
        let Value::Object(emitted) = field(&v, "metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(emitted.len(), metrics.len());
        for ((name, entry), m) in emitted.iter().zip(&metrics) {
            assert_eq!(name, m.name);
            assert_eq!(text(field(entry, "unit")), m.unit);
            assert!(number(field(entry, "value")).is_finite());
        }
    }
    // End-to-end metrics are never 0.
    assert!(report::end_to_end(&r).iter().all(|m| m.value > 0.0));
}

#[test]
fn benchmark_json_declares_what_the_program_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::parse(&std::fs::read_to_string(path).expect(path)).expect("JSON");
    let Value::Object(entries) = &doc else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let command: Vec<&str> = items(field(&doc, "command")).iter().map(text).collect();
    assert_eq!(command, ["bash", "benchmark/run.sh"]);
    let paths: Vec<&str> = items(field(&doc, "paths")).iter().map(text).collect();
    assert_eq!(paths, ["benchmark"]);
    // `run_seconds` buys the nine timed passes the protocol is named for.
    let seconds = number(field(&doc, "run_seconds"));
    assert_eq!(ss_benchmark::replay::passes_for(seconds as u64), 9);

    let declared: Vec<&str> = items(field(&doc, "workloads"))
        .iter()
        .map(|w| {
            assert!(text(field(w, "why")).len() <= 200);
            text(field(w, "name"))
        })
        .collect();
    assert_eq!(declared, workloads::NAMES);

    let e2e = items(field(&doc, "end_to_end"));
    assert_eq!(e2e.len(), END_TO_END.len());
    for (d, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(field(d, "name")), m.name);
        assert_eq!(text(field(d, "unit")), m.unit);
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(field(d, "better")), better);
        assert_eq!(number(field(d, "bound")), m.bound);
    }
    let layers = items(field(&doc, "per_layer"));
    assert_eq!(layers.len(), PER_LAYER.len());
    for (d, m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(text(field(d, "name")), m.0);
        assert_eq!(text(field(d, "unit")), m.1);
        assert!(matches!(text(field(d, "better")), "higher" | "lower"));
    }
}
