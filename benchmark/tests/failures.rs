//! Failure accounting: a wrong answer and a refused request are both
//! counted in `ops_failed`, reported with what happened, and never panicked
//! on.

use ss_benchmark::replay::{self, RunConfig};
use ss_benchmark::report;
use ss_benchmark::workload::{OpKind, OpOutcome, Scale, Workload};
use ss_benchmark::workloads::service_mixed::Step;
use ss_benchmark::workloads::{ColdPlan, DriftReplan, ServiceMixed};

/// One replay of `w`'s script through its public entry point.
fn one_pass<W: Workload>(w: &mut W) -> Vec<OpOutcome> {
    w.set_up().expect("set_up");
    w.reset().expect("reset");
    (0..w.ops())
        .map(|op| {
            let input = w.prepare(op);
            w.run(op, input)
        })
        .collect()
}

#[test]
fn a_wrong_objective_is_counted_and_the_exact_solve_says_who_was_wrong() {
    // Against the exact certified optimum.
    let mut cold = ColdPlan::new(3, Scale::Tiny);
    let mut outcomes = one_pass(&mut cold);
    assert!(cold.verify(&outcomes).failures.is_empty());
    let honest = *outcomes[2].answer.as_ref().expect("solved");
    outcomes[2].answer = Ok(honest * 1.25);
    let verdict = cold.verify(&outcomes);
    assert_eq!(verdict.failures.len(), 1);
    assert_eq!(verdict.failures[0].op, 2);
    assert!(
        verdict.failures[0].detail.contains("program wrong"),
        "{}",
        verdict.failures[0].detail
    );

    // Against a cold f64 reference, arbitrated by the exact solve.
    let mut drift = DriftReplan::new(3, Scale::Tiny);
    let mut outcomes = one_pass(&mut drift);
    assert!(drift.verify(&outcomes).failures.is_empty());
    let honest = *outcomes[5].answer.as_ref().expect("re-planned");
    outcomes[5].answer = Ok(honest * 0.9);
    outcomes[7].answer = Err("solver gave up".into());
    let verdict = drift.verify(&outcomes);
    let failed: Vec<usize> = verdict.failures.iter().map(|f| f.op).collect();
    assert_eq!(failed, [5, 7]);
    assert!(
        verdict.failures[0]
            .detail
            .contains("sides against the program: program wrong"),
        "{}",
        verdict.failures[0].detail
    );
    assert_eq!(verdict.failures[1].detail, "solver gave up");
}

#[test]
fn a_refused_request_is_counted_not_panicked_on() {
    let mut w = ServiceMixed::new(3, Scale::Tiny);
    // Script an update for a tenant nobody registered: the service answers
    // with an `unknown-tenant` error frame.
    let refused = w
        .script
        .iter()
        .position(|s| s.kind == OpKind::Update)
        .expect("the script has updates");
    w.script[refused] = Step {
        kind: OpKind::Update,
        tenant: 99,
    };
    let cfg = RunConfig {
        passes: 2,
        traced_passes: 1,
    };
    let r = replay::run(&mut w, &cfg).expect("the run itself completes");
    assert_eq!(r.failed_ops(), [refused]);
    assert!(
        r.verdict.failures[0].detail.contains("unknown tenant"),
        "{}",
        r.verdict.failures[0].detail
    );
    assert!(!r.correct());
    // The refusal repeats in every pass and in the traced replay: it is a
    // failure, not nondeterminism.
    assert!(r.unrepeatable.is_empty());
    assert!(r.traced.as_ref().expect("traced").diverged.is_empty());
    // A failed op completes nothing and its latency is missing.
    let line = report::contract_line(&r, &report::end_to_end(&r));
    assert!(line.contains("\"correct\": false"), "{line}");
    assert!(line.contains("\"failed\": 1"), "{line}");
    let completed = (r.ops() - 1) as f64;
    let quiet_s: f64 = r.quiet_ms().iter().sum::<f64>() / 1e3;
    assert!((r.ops_per_s() - completed / quiet_s).abs() < 1e-9);
}
