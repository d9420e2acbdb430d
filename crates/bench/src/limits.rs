//! §5 limitation experiments: communication models, start-up costs,
//! fixed periods, dynamic adaptation.

use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::drift::ParamScale;
use ss_core::{master_slave, model_variants};
use ss_num::{BigInt, Ratio};
use ss_platform::{paper, topo};
use ss_schedule::coloring::{greedy_shared_port_schedule, shared_port_load_bound};
use ss_schedule::{fixed_period as fp, reconstruct_master_slave, startup as su};
use ss_sim::dynamic::{mean_throughput, simulate_policies};

/// §5.1.1: send-OR-receive — LP degradation, and the greedy general-graph
/// orchestration vs its load lower bound (bipartite coloring no longer
/// applies; the problem is NP-hard).
pub fn sendrecv() {
    banner(
        "sendrecv",
        "§5.1.1 — send-OR-receive: LP loss and greedy orchestration quality",
    );
    let mut rows = Vec::new();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let (g, m) = topo::random_connected(&mut rng, 7, 0.3, &topo::ParamRange::default());
        let full = master_slave::solve(&g, m).expect("one-port LP");
        let half = model_variants::solve_send_or_receive(&g, m).expect("half-duplex LP");
        // Orchestrate the half-duplex activity with the greedy scheduler.
        let sched = reconstruct_master_slave(&g, &half);
        let (makespan, _) = greedy_shared_port_schedule(&g, &sched.edge_busy);
        let bound = shared_port_load_bound(&g, &sched.edge_busy);
        let quality = if bound.is_zero() {
            "1.000".to_string()
        } else {
            format!(
                "{:.3}",
                (&Ratio::from(makespan.clone()) / &Ratio::from(bound.clone())).to_f64()
            )
        };
        rows.push(vec![
            seed.to_string(),
            full.ntask.to_string(),
            half.ntask.to_string(),
            format!("{:.3}", (&half.ntask / &full.ntask).to_f64()),
            makespan.to_string(),
            bound.to_string(),
            quality,
        ]);
        assert!(half.ntask <= full.ntask);
    }
    print_table(
        &[
            "seed",
            "1-port ntask",
            "send-or-recv",
            "ratio",
            "greedy span",
            "load bound",
            "span/bound",
        ],
        &rows,
    );
    println!(
        "shape: the LP itself is an easy edit (ratio < 1 shows the model cost); the loss moved to\n\
         reconstruction — greedy edge coloring of a general graph, within 2x of the load bound (§5.1.1)."
    );
}

/// §5.1.2: dedicated NICs — throughput vs card count.
pub fn multiport() {
    banner(
        "multiport",
        "§5.1.2 — bounded multiport with dedicated NICs",
    );
    let mut rng = StdRng::seed_from_u64(77);
    let (g, m) = topo::star(&mut rng, 7, &topo::ParamRange::default());
    let compute_bound = g.total_compute_rate();
    let mut rows = Vec::new();
    for k in 1..=4u32 {
        let sol = model_variants::solve_multiport(&g, m, k).expect("multiport LP");
        rows.push(vec![
            k.to_string(),
            sol.ntask.to_string(),
            compute_bound.to_string(),
            format!("{:.3}", (&sol.ntask / &compute_bound).to_f64()),
        ]);
    }
    print_table(&["k cards", "ntask", "compute bound", "fraction"], &rows);
    println!("shape: ntask grows with k until the platform turns compute-bound, then saturates.");
}

/// §5.2: start-up costs — grouping m periods amortizes latencies; the
/// paper's m = ceil(sqrt(n/ntask)) drives T(n)/T_opt to 1.
pub fn startup() {
    banner(
        "startup",
        "§5.2 — start-up costs and sqrt(n) period grouping (Fig. 1 platform)",
    );
    let (g, m) = paper::fig1();
    let sol = master_slave::solve(&g, m).expect("solves");
    let sched = reconstruct_master_slave(&g, &sol);
    let startups = vec![Ratio::from_int(2); g.num_edges()];
    println!(
        "T = {}, ntask = {}, per-super-period overhead = {}",
        sched.period,
        sol.ntask,
        su::round_overhead(&sched, &startups)
    );

    println!("\n(a) effective throughput vs grouping factor m:");
    let mut rows = Vec::new();
    for mfac in [1i64, 2, 4, 16, 64, 256, 1024] {
        let grp = su::group(&sched, &startups, BigInt::from(mfac));
        rows.push(vec![
            mfac.to_string(),
            grp.effective_throughput.to_string(),
            format!("{:.4}", grp.effective_throughput.to_f64()),
            format!("{:.4}", (&grp.effective_throughput / &sol.ntask).to_f64()),
        ]);
    }
    print_table(&["m", "effective ntask", "~float", "fraction of LP"], &rows);

    println!("\n(b) total-time bound with m = ceil(sqrt(n/ntask)):");
    let mut rows = Vec::new();
    for n in [1_000u64, 100_000, 10_000_000, 1_000_000_000] {
        let mm = su::optimal_m(n, &sol.ntask);
        let t = su::total_time_bound(&g, &sched, &startups, m, n);
        let lb = su::lower_bound(n, &sol.ntask);
        rows.push(vec![
            n.to_string(),
            mm.to_string(),
            format!("{:.4}", (&t / &lb).to_f64()),
        ]);
    }
    print_table(&["n", "m", "T(n)/T_opt"], &rows);
    println!("shape: fraction -> 1 in (a) as m grows; ratio -> 1 in (b) at rate O(1/sqrt(n)) — §5.2's recipe.");
}

/// §5.4: fixed-length periods — per-path floor rounding; loss <= #paths/T.
pub fn fixed_period() {
    banner(
        "fixed-period",
        "§5.4 — fixed-length periods (Fig. 1 platform)",
    );
    let (g, m) = paper::fig1();
    let sol = master_slave::solve(&g, m).expect("solves");
    let natural = reconstruct_master_slave(&g, &sol).period.clone();
    println!(
        "LP optimum ntask = {}, natural period T = {}",
        sol.ntask, natural
    );
    let mut rows = Vec::new();
    for t in [2i64, 5, 10, 30, 60, 300, 3000] {
        let plan = fp::master_slave_fixed_period(&g, m, &sol, BigInt::from(t)).expect("plan");
        plan.check(&g).expect("feasible");
        rows.push(vec![
            t.to_string(),
            plan.achieved.to_string(),
            format!("{:.4}", plan.achieved.to_f64()),
            format!("{:.4}", plan.relative_loss().to_f64()),
        ]);
    }
    print_table(&["T_fix", "achieved", "~float", "relative loss"], &rows);
    println!("shape: loss shrinks as O(1/T_fix) and hits 0 whenever T_fix is a multiple of the natural period.");
}

/// §5.5: dynamic platforms — static vs lagged-adaptive vs omniscient.
pub fn dynamic() {
    banner(
        "dynamic",
        "§5.5 — adaptive re-solving under parameter drift (Fig. 1 platform)",
    );
    let (g, m) = paper::fig1();
    let p2 = g.find_node("P2").unwrap();
    let e13 = g
        .edge_between(g.find_node("P1").unwrap(), g.find_node("P3").unwrap())
        .unwrap();
    let nominal = ParamScale::nominal(&g);
    let phases = vec![
        nominal.clone(),
        nominal.clone(),
        ParamScale::nominal(&g).with_node(p2, Ratio::from_int(4)),
        ParamScale::nominal(&g).with_node(p2, Ratio::from_int(4)),
        ParamScale::nominal(&g)
            .with_node(p2, Ratio::from_int(4))
            .with_edge(e13, Ratio::from_int(3)),
        ParamScale::nominal(&g)
            .with_node(p2, Ratio::from_int(4))
            .with_edge(e13, Ratio::from_int(3)),
        nominal.clone(),
        nominal.clone(),
    ];
    let reports = simulate_policies(&g, m, &phases).expect("simulates");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .enumerate()
        .map(|(t, r)| {
            vec![
                t.to_string(),
                format!("{:.4}", r.static_thr.to_f64()),
                format!("{:.4}", r.adaptive_thr.to_f64()),
                format!("{:.4}", r.omniscient_thr.to_f64()),
            ]
        })
        .collect();
    print_table(&["phase", "static", "adaptive", "omniscient"], &rows);
    let s = mean_throughput(&reports, |r| &r.static_thr);
    let a = mean_throughput(&reports, |r| &r.adaptive_thr);
    let o = mean_throughput(&reports, |r| &r.omniscient_thr);
    println!(
        "means: static {:.4} <= adaptive {:.4} <= omniscient {:.4}",
        s.to_f64(),
        a.to_f64(),
        o.to_f64()
    );
    println!("shape: adaptive trails omniscient by exactly one phase after each change and recovers; static never does.");
}
