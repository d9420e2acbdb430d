//! One bench per steady-state formulation: end-to-end build + solve on
//! fixed reference platforms (the per-experiment cost the `repro` harness
//! pays), with an **exact-vs-f64 backend pairing per formulation** so the
//! speedup of the fast path is a recorded, regenerable number.
//!
//! Results are written to `BENCH_lp_backends.json` at the workspace root
//! (mean/min/max nanoseconds per solve, per backend).

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::engine::Formulation;
use ss_core::multicast::EdgeCoupling;
use ss_core::{all_to_all, broadcast, dag, master_slave, multicast, reduce, scatter};
use ss_lp::Kernel;
use ss_num::Ratio;
use ss_platform::{paper, topo};

fn bench_formulations(c: &mut Criterion) {
    let (fig1, m1) = paper::fig1();
    let (fig2, src2, targets2) = paper::fig2_multicast();
    let mut rng = StdRng::seed_from_u64(9);
    let (g5, r5) = topo::random_connected(&mut rng, 5, 0.4, &topo::ParamRange::default());

    let mut group = c.benchmark_group("formulations");
    group.sample_size(10);
    group.bench_function("ssms_fig1", |b| {
        b.iter(|| master_slave::solve(&fig1, m1).unwrap())
    });
    group.bench_function("scatter_fig2_targets", |b| {
        b.iter(|| scatter::solve(&fig2, src2, &targets2).unwrap())
    });
    group.bench_function("multicast_max_fig2", |b| {
        b.iter(|| multicast::solve(&fig2, src2, &targets2, EdgeCoupling::Max).unwrap())
    });
    group.bench_function("broadcast_p5", |b| {
        b.iter(|| broadcast::solve(&g5, r5).unwrap())
    });
    group.bench_function("reduce_p5", |b| b.iter(|| reduce::solve(&g5, r5).unwrap()));
    group.bench_function("all_to_all_p5", |b| {
        b.iter(|| all_to_all::solve(&g5).unwrap())
    });
    group.bench_function("dag_diamond_p5", |b| {
        let mut tg = dag::TaskGraph::diamond();
        let input = dag::TaskId(0);
        tg.pin_task(input, r5);
        let _ = Ratio::one();
        b.iter(|| dag::solve(&g5, &tg).unwrap())
    });
    group.finish();
}

/// Exact vs f64 on an identical formulation instance, for all eight
/// formulations, on a common 8-node random platform (fig2 for multicast so
/// the max coupling has structure to share).
fn bench_backends(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);
    let (g, root) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
    let targets = topo::pick_targets(&mut rng, &g, root, 3);
    let (fig2, src2, targets2) = paper::fig2_multicast();
    let mut tg = dag::TaskGraph::diamond();
    tg.pin_task(dag::TaskId(0), root);

    let mut group = c.benchmark_group("lp_backends");
    group.sample_size(10);

    group.bench_function("master_slave/exact", |b| {
        b.iter(|| master_slave::solve(&g, root).unwrap())
    });
    group.bench_function("master_slave/f64", |b| {
        b.iter(|| master_slave::solve_approx(&g, root).unwrap())
    });

    group.bench_function("scatter/exact", |b| {
        b.iter(|| scatter::solve(&g, root, &targets).unwrap())
    });
    group.bench_function("scatter/f64", |b| {
        b.iter(|| scatter::solve_approx(&g, root, &targets).unwrap())
    });

    group.bench_function("multicast_sum/exact", |b| {
        b.iter(|| multicast::solve(&fig2, src2, &targets2, EdgeCoupling::Sum).unwrap())
    });
    group.bench_function("multicast_sum/f64", |b| {
        b.iter(|| multicast::solve_approx(&fig2, src2, &targets2, EdgeCoupling::Sum).unwrap())
    });

    group.bench_function("multicast_max/exact", |b| {
        b.iter(|| multicast::solve(&fig2, src2, &targets2, EdgeCoupling::Max).unwrap())
    });
    group.bench_function("multicast_max/f64", |b| {
        b.iter(|| multicast::solve_approx(&fig2, src2, &targets2, EdgeCoupling::Max).unwrap())
    });

    group.bench_function("broadcast/exact", |b| {
        b.iter(|| broadcast::solve(&g, root).unwrap())
    });
    group.bench_function("broadcast/f64", |b| {
        b.iter(|| broadcast::solve_approx(&g, root).unwrap())
    });

    group.bench_function("reduce/exact", |b| {
        b.iter(|| reduce::solve(&g, root).unwrap())
    });
    group.bench_function("reduce/f64", |b| {
        b.iter(|| reduce::solve_approx(&g, root).unwrap())
    });

    // All-to-all carries p(p-1) flow copies; a 6-node platform keeps the
    // exact side of the pairing affordable while preserving the contrast.
    let mut rng6 = StdRng::seed_from_u64(42);
    let (g6, _) = topo::random_connected(&mut rng6, 6, 0.3, &topo::ParamRange::default());
    group.bench_function("all_to_all/exact", |b| {
        b.iter(|| all_to_all::solve(&g6).unwrap())
    });
    group.bench_function("all_to_all/f64", |b| {
        b.iter(|| all_to_all::solve_approx(&g6).unwrap())
    });

    group.bench_function("dag/exact", |b| b.iter(|| dag::solve(&g, &tg).unwrap()));
    group.bench_function("dag/f64", |b| {
        b.iter(|| dag::solve_approx(&g, &tg).unwrap())
    });

    group.finish();
}

/// Dense tableau vs sparse revised simplex on identical `f64` instances:
/// the kernel pairing per formulation, recorded alongside the backend
/// pairing (the `repro -- lp-scale` sweep additionally writes its own
/// machine-readable copy to `BENCH_lp_sparse.json`).
fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);
    let (g, root) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
    let mut tg = dag::TaskGraph::diamond();
    tg.pin_task(dag::TaskId(0), root);

    let mut group = c.benchmark_group("lp_kernels");
    group.sample_size(10);

    let ms = master_slave::MasterSlave::new(root);
    let (ms_prob, _) = ms.build(&g).unwrap();
    group.bench_function("master_slave/dense", |b| {
        b.iter(|| ms_prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
    });
    group.bench_function("master_slave/sparse", |b| {
        b.iter(|| ms_prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
    });

    let a2a = all_to_all::AllToAll::new();
    let (a2a_prob, _) = a2a.build(&g).unwrap();
    group.bench_function("all_to_all/dense", |b| {
        b.iter(|| a2a_prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
    });
    group.bench_function("all_to_all/sparse", |b| {
        b.iter(|| a2a_prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
    });

    let dagf = dag::DagCollection { dag: &tg };
    let (dag_prob, _) = dagf.build(&g).unwrap();
    group.bench_function("dag/dense", |b| {
        b.iter(|| dag_prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
    });
    group.bench_function("dag/sparse", |b| {
        b.iter(|| dag_prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
    });

    let div = ss_core::divisible::Divisible::new(root);
    let (div_prob, _) = div.build(&g).unwrap();
    group.bench_function("divisible/dense", |b| {
        b.iter(|| div_prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
    });
    group.bench_function("divisible/sparse", |b| {
        b.iter(|| div_prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
    });

    // Sanity-anchor the pairing itself: both kernels agree on each
    // instance (the bench must never record a speedup for a wrong answer).
    for prob in [&ms_prob, &a2a_prob, &dag_prob, &div_prob] {
        let d = prob.solve_kernel::<f64>(Kernel::Dense).unwrap();
        let s = prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap();
        assert!((d.objective() - s.objective()).abs() <= 1e-6 * (1.0 + d.objective().abs()));
    }
    group.finish();
}

criterion_group!(benches, bench_formulations, bench_backends, bench_kernels);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    c.final_summary();
    // Record the backend pairing next to the repo's other experiment
    // artifacts (workspace root, two levels up from crates/bench).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_backends.json");
    match c.write_json_summary(out) {
        Ok(()) => println!("\nrecorded backend results to BENCH_lp_backends.json"),
        Err(e) => eprintln!("\ncould not write BENCH_lp_backends.json: {e}"),
    }
}
