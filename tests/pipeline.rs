//! End-to-end integration tests: platform → LP → reconstruction →
//! simulation, across crates, for each primitive of the paper.

use rand::rngs::StdRng;
use rand::SeedableRng;
use steadystate::baselines::{heft_batch, simulate_tree_greedy, ServiceOrder};
use steadystate::core::drift::ParamScale;
use steadystate::core::master_slave::PortModel;
use steadystate::core::multicast::EdgeCoupling;
use steadystate::core::{all_to_all, broadcast, dag, master_slave, multicast, reduce, scatter};
use steadystate::num::{BigInt, Ratio};
use steadystate::platform::{paper, topo, PlatformSpec};
use steadystate::schedule::{
    fixed_period, flowpaths, phases, reconstruct_collective, reconstruct_master_slave, startup,
};
use steadystate::sim::dynamic::simulate_policies;
use steadystate::sim::{simulate_collective, simulate_master_slave};

/// The full master–slave pipeline on the paper's own platform: the LP
/// bound, the reconstructed schedule, and the executed schedule agree
/// exactly.
#[test]
fn fig1_full_pipeline_exact_agreement() {
    let (g, master) = paper::fig1();
    let sol = master_slave::solve(&g, master).unwrap();
    sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();

    let sched = reconstruct_master_slave(&g, &sol);
    sched.check(&g).unwrap();
    assert_eq!(
        Ratio::from(sched.work_per_period()),
        &sol.ntask * &Ratio::from(sched.period.clone())
    );

    let run = simulate_master_slave(&g, master, &sched, 30);
    assert_eq!(run.per_period.last().unwrap(), &run.plan_per_period);
    // §4.2: deficit vs the LP bound is a constant, not growing in K.
    let warmup = flowpaths::master_slave_warmup(&g, master, &sol).unwrap() as u64;
    let constant = Ratio::from(&BigInt::from(warmup + 1) * &sched.work_per_period());
    assert!(run.deficit(&sol.ntask) <= constant);
}

/// Serde round-trip composes with the whole pipeline: solving the
/// JSON-round-tripped platform gives the identical throughput.
#[test]
fn pipeline_survives_serialization() {
    let (g, master) = paper::fig1();
    let json = PlatformSpec::from_platform(&g).to_json();
    let g2 = PlatformSpec::from_json(&json)
        .unwrap()
        .to_platform()
        .unwrap();
    let s1 = master_slave::solve(&g, master).unwrap();
    let s2 = master_slave::solve(&g2, master).unwrap();
    assert_eq!(s1.ntask, s2.ntask);
}

/// Scatter: LP → reconstruction → simulation on random platforms, plus
/// the baselines never beat the bound.
#[test]
fn scatter_pipeline_random_platforms() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let (g, src) = topo::random_connected(&mut rng, 7, 0.3, &topo::ParamRange::default());
        let targets = topo::pick_targets(&mut rng, &g, src, 3);
        let sol = scatter::solve(&g, src, &targets).unwrap();
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
        let sched = reconstruct_collective(&g, &sol).unwrap();
        sched.check(&g).unwrap();
        let run = simulate_collective(&g, src, &targets, &sol.flows, &sched, 30);
        assert_eq!(
            run.per_period.last().unwrap(),
            &run.plan_per_period,
            "seed {seed}"
        );
        let flat =
            steadystate::baselines::collectives::flat_tree_scatter_rate(&g, src, &targets).unwrap();
        assert!(sol.throughput >= flat);
    }
}

/// The multicast counterexample, end to end: max-LP bound 1 is NOT
/// reconstructible, sum-LP is, and the simulated sum schedule delivers
/// its (strictly smaller) rate.
#[test]
fn fig2_multicast_counterexample() {
    let (g, src, targets) = paper::fig2_multicast();
    let (lo, hi) = multicast::bounds(&g, src, &targets).unwrap();
    assert_eq!(hi.throughput, Ratio::one());
    assert!(lo.throughput < hi.throughput);
    // Reconstruction refuses the max bound...
    assert!(reconstruct_collective(&g, &hi).is_err());
    // ...and accepts + executes the achievable sum solution.
    let sched = reconstruct_collective(&g, &lo).unwrap();
    sched.check(&g).unwrap();
    let run = simulate_collective(&g, src, &targets, &lo.flows, &sched, 20);
    assert_eq!(run.per_period.last().unwrap(), &run.plan_per_period);
    // The infeasibility certificate: summed load on the slow edge exceeds
    // one time unit per time unit under the max-LP flows.
    let p3 = g.find_node("P3").unwrap();
    let p4 = g.find_node("P4").unwrap();
    let slow = g.edge_between(p3, p4).unwrap();
    let needed = &hi.total_edge_rate(slow) * g.edge(slow).c;
    assert!(needed > Ratio::one());
}

/// Broadcast ≥ multicast ≥ scatter ≥ all-to-all orderings on one platform
/// (more sharing can only help; more traffic can only hurt).
#[test]
fn collective_throughput_orderings() {
    let mut rng = StdRng::seed_from_u64(77);
    let (g, src) = topo::random_connected(&mut rng, 5, 0.4, &topo::ParamRange::default());
    let targets: Vec<_> = g.node_ids().filter(|&n| n != src).collect();
    let bc = broadcast::solve(&g, src).unwrap();
    let mc_max = multicast::solve(&g, src, &targets, EdgeCoupling::Max).unwrap();
    let sc = scatter::solve(&g, src, &targets).unwrap();
    // Broadcast to all == multicast-max to all nodes.
    assert_eq!(bc.throughput, mc_max.throughput);
    // Scatter (sum) can never beat multicast (max) on the same targets.
    assert!(sc.throughput <= mc_max.throughput);
    // Personalized all-to-all adds p(p-1) streams: per-pair rate is at most
    // the single-source scatter rate.
    let a2a = all_to_all::solve(&g).unwrap();
    assert!(a2a.throughput <= sc.throughput);
}

/// Reduce equals broadcast on the reversed platform (exact duality).
#[test]
fn reduce_broadcast_duality() {
    let mut rng = StdRng::seed_from_u64(31);
    let (g, root) = topo::random_tree(&mut rng, 6, &topo::ParamRange::default());
    let red = reduce::solve(&g, root).unwrap();
    let bc_rev = broadcast::solve(&g.reversed(), root).unwrap();
    assert_eq!(red.throughput, bc_rev.throughput);
}

/// DAG collections subsume master–slave exactly (pinned input task).
#[test]
fn dag_subsumes_master_slave() {
    let mut rng = StdRng::seed_from_u64(11);
    let (g, master) = topo::random_connected(&mut rng, 5, 0.3, &topo::ParamRange::default());
    let mut tg = dag::TaskGraph::new();
    let input = tg.add_task("in", Ratio::zero());
    let work = tg.add_task("work", Ratio::one());
    tg.pin_task(input, master);
    tg.add_dep(input, work, Ratio::one());
    let d = dag::solve(&g, &tg).unwrap();
    let ms = master_slave::solve(&g, master).unwrap();
    assert_eq!(d.throughput, ms.ntask);
}

/// §5.2 startup costs: grouped schedules converge to the LP rate, and the
/// paper's m = ceil(sqrt(n/ntask)) keeps total time within o(n) of optimal.
#[test]
fn startup_grouping_converges() {
    let (g, master) = paper::fig1();
    let sol = master_slave::solve(&g, master).unwrap();
    let sched = reconstruct_master_slave(&g, &sol);
    let startups = vec![Ratio::from_int(3); g.num_edges()];
    let mut last = Ratio::zero();
    for m in [1i64, 4, 16, 64, 256] {
        let grp = startup::group(&sched, &startups, BigInt::from(m));
        assert!(grp.effective_throughput > last);
        assert!(grp.effective_throughput < sol.ntask);
        last = grp.effective_throughput;
    }
    let t = startup::total_time_bound(&g, &sched, &startups, master, 1_000_000_000_000);
    let lb = startup::lower_bound(1_000_000_000_000, &sol.ntask);
    assert!(&t / &lb < Ratio::new(1001, 1000));
}

/// §5.4 fixed periods: loss bounded by #paths / T and vanishing.
#[test]
fn fixed_period_loss_vanishes() {
    let mut rng = StdRng::seed_from_u64(5);
    let (g, m) = topo::random_connected(&mut rng, 6, 0.3, &topo::ParamRange::default());
    let sol = master_slave::solve(&g, m).unwrap();
    let plan_small = fixed_period::master_slave_fixed_period(&g, m, &sol, BigInt::from(7)).unwrap();
    let plan_large =
        fixed_period::master_slave_fixed_period(&g, m, &sol, BigInt::from(100_000)).unwrap();
    plan_small.check(&g).unwrap();
    plan_large.check(&g).unwrap();
    // Floor rounding is not monotone in T (a small T dividing every path
    // denominator can be lossless), but the §5.4 loss bound #paths/T is:
    // each plan is within (number of paths) / T of the optimum, from below.
    for plan in [&plan_small, &plan_large] {
        assert!(plan.achieved <= plan.optimum);
        let bound = Ratio::new(plan.paths.len() as i64, 1) / Ratio::from(plan.period.clone());
        assert!(&plan.optimum - &plan.achieved <= bound);
    }
    assert!(plan_large.relative_loss() < Ratio::new(1, 1000));
}

/// §5.5: adaptive re-solving beats the static plan under persistent drift
/// and never beats omniscient.
#[test]
fn dynamic_adaptation_ordering() {
    let (g, master) = paper::fig1();
    let drift =
        ParamScale::nominal(&g).with_node(steadystate::platform::NodeId(1), Ratio::from_int(8));
    let mut phs = vec![ParamScale::nominal(&g)];
    phs.extend(std::iter::repeat_n(drift, 5));
    let reports = simulate_policies(&g, master, &phs).unwrap();
    let mean = |f: &dyn Fn(&steadystate::sim::dynamic::PhaseReport) -> Ratio| -> Ratio {
        let total: Ratio = reports.iter().map(f).sum();
        &total / &Ratio::from(reports.len())
    };
    let s = mean(&|r| r.static_thr.clone());
    let a = mean(&|r| r.adaptive_thr.clone());
    let o = mean(&|r| r.omniscient_thr.clone());
    assert!(s < a && a <= o);
}

/// The "why": on heterogeneous trees the steady-state rate dominates all
/// online baselines for long horizons; the LP bound dominates everything.
#[test]
fn why_steady_state_dominates_baselines() {
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let (g, m) = topo::random_tree(&mut rng, 6, &topo::ParamRange::default());
        let sol = master_slave::solve(&g, m).unwrap();
        let sched = reconstruct_master_slave(&g, &sol);
        let periods = 30usize;
        let run = simulate_master_slave(&g, m, &sched, periods);
        let k = Ratio::from(&sched.period * &BigInt::from(periods as u64));
        let upper = &k * &sol.ntask;
        let n_pool = (&upper * &Ratio::from_int(2))
            .ceil()
            .to_u64()
            .unwrap()
            .max(1);
        let steady_done = Ratio::from(run.completed_within(&k));
        assert!(steady_done <= upper);
        for order in [ServiceOrder::Fifo, ServiceOrder::BandwidthCentric] {
            let out = simulate_tree_greedy(&g, m, n_pool, order).unwrap();
            assert!(
                Ratio::from(out.completed_by(&k) as u64) <= upper,
                "seed {seed}"
            );
        }
        let heft = heft_batch(&g, m, n_pool);
        assert!(
            Ratio::from(heft.completed_by(&k) as u64) <= upper,
            "seed {seed}"
        );
    }
}

/// §4.2 phase accounting matches the simulator: the analytic lower bound
/// never overstates what execution achieves.
#[test]
fn phase_bounds_sound_vs_simulation() {
    let (g, master) = paper::fig1();
    let sol = master_slave::solve(&g, master).unwrap();
    let sched = reconstruct_master_slave(&g, &sol);
    let warmup = flowpaths::master_slave_warmup(&g, master, &sol).unwrap();
    let bounds = phases::PhaseBounds {
        warmup_periods: warmup,
        work_per_period: sched.work_per_period(),
        period: sched.period.clone(),
    };
    let run = simulate_master_slave(&g, master, &sched, 40);
    for k_periods in [5u64, 10, 20, 40] {
        let k = Ratio::from(&sched.period * &BigInt::from(k_periods));
        let analytic_lo = bounds.lower_bound(&k);
        let simulated = Ratio::from(run.completed_within(&k));
        assert!(simulated >= analytic_lo, "K = {k_periods} periods");
        assert!(simulated <= bounds.upper_bound(&k));
    }
}

/// Port-model variants (§5.1) nest across the whole stack.
#[test]
fn port_model_nesting_end_to_end() {
    let mut rng = StdRng::seed_from_u64(4);
    let (g, m) = topo::star(&mut rng, 6, &topo::ParamRange::default());
    let rows = steadystate::core::model_variants::compare_port_models(&g, m, 3).unwrap();
    assert!(rows[1].1 <= rows[0].1);
    assert!(rows[0].1 <= rows[2].1);
}
