//! Dynamic adaptation (§5.5): a grid whose resources drift over time —
//! machines get loaded by other users, links get congested. The
//! steady-state framework adapts by re-solving the LP each phase from
//! observed performance ("use the past to predict the future").
//!
//! Compares three policies through a day of simulated drift:
//! static (plan once), adaptive (re-plan from last phase's observations),
//! omniscient (re-plan with perfect knowledge).
//!
//! The re-solving policies run through **warm-started re-solve
//! sessions**: from phase 2 on, each re-plan reuses the previous phase's
//! optimal basis instead of solving from scratch — the `lp` column below
//! shows the per-phase path (cold / warm / repaired / cold-fallback) and
//! pivot count of the adaptive session.
//!
//! ```sh
//! cargo run --release --example adaptive_grid
//! ```

use steadystate::core::drift::ParamScale;
use steadystate::num::Ratio;
use steadystate::platform::paper;
use steadystate::sim::dynamic::{mean_throughput, simulate_policies};

fn main() {
    let (g, master) = paper::fig1();

    // A drift scenario: P2's machine gets progressively loaded, then the
    // P1-P3 link congests, then everything returns to nominal.
    let nominal = ParamScale::nominal(&g);
    let p2 = g.find_node("P2").unwrap();
    let p1p3 = g
        .edge_between(g.find_node("P1").unwrap(), g.find_node("P3").unwrap())
        .unwrap();
    let phases = vec![
        nominal.clone(),
        nominal.clone(),
        ParamScale::nominal(&g).with_node(p2, Ratio::from_int(3)),
        ParamScale::nominal(&g).with_node(p2, Ratio::from_int(6)),
        ParamScale::nominal(&g).with_node(p2, Ratio::from_int(6)),
        ParamScale::nominal(&g)
            .with_node(p2, Ratio::from_int(6))
            .with_edge(p1p3, Ratio::from_int(4)),
        ParamScale::nominal(&g)
            .with_node(p2, Ratio::from_int(6))
            .with_edge(p1p3, Ratio::from_int(4)),
        nominal.clone(),
        nominal.clone(),
    ];

    let reports = simulate_policies(&g, master, &phases).expect("policies simulate");
    println!("phase |   static | adaptive | omniscient | adaptive lp (path, pivots)");
    println!("------+----------+----------+------------+---------------------------");
    let mut warm_pivots = 0usize;
    for (t, r) in reports.iter().enumerate() {
        println!(
            "  {t:3} | {:8.4} | {:8.4} | {:10.4} | {:>13}, {:3}",
            r.static_thr.to_f64(),
            r.adaptive_thr.to_f64(),
            r.omniscient_thr.to_f64(),
            r.adaptive.outcome.to_string(),
            r.adaptive.iterations,
        );
        if t > 0 {
            warm_pivots += r.adaptive.iterations;
        }
    }
    let s = mean_throughput(&reports, |r| &r.static_thr);
    let a = mean_throughput(&reports, |r| &r.adaptive_thr);
    let o = mean_throughput(&reports, |r| &r.omniscient_thr);
    println!("------+----------+----------+------------+---------------------------");
    println!(
        " mean | {:8.4} | {:8.4} | {:10.4} |",
        s.to_f64(),
        a.to_f64(),
        o.to_f64()
    );
    println!(
        "\nadaptive recovers {:.1}% of the omniscient throughput; static only {:.1}%.",
        100.0 * (&a / &o).to_f64(),
        100.0 * (&s / &o).to_f64(),
    );
    println!(
        "warm-started re-plans cost {warm_pivots} pivots total across {} phases \
         (a cold solve costs {} pivots *per phase*).",
        reports.len() - 1,
        reports[0].adaptive.iterations,
    );
    assert!(a >= s);
}
