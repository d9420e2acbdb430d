//! Dense-tableau vs sparse-revised-simplex kernel comparisons.
//!
//! * [`formulation_pairings`] times every steady-state formulation's `f64`
//!   solve on both kernels (identical instances) — the per-formulation
//!   half of `BENCH_lp_sparse.json`, written by the `lp-scale` sweep.
//! * [`kernel_smoke`] is the CI guard: small platforms, all four
//!   backend × kernel combinations, hard agreement asserts. A kernel
//!   regression fails the workflow here instead of surfacing as a bench
//!   curiosity.
//! * [`bounded_smoke`] is the bounded-variable guard: box-heavy
//!   formulations solved with native `0 ≤ x ≤ u` handling vs the
//!   lowered-rows oracle, identical exact optima and verifying
//!   certificates required on both kernels.
//!
//! Both smokes are calls to the crate's options-matrix harness
//! (`option_matrix`): one LP under a list of [`SimplexOptions`] on `f64`
//! and `Ratio`, one exact optimum, a certificate on every exact solve.
//! Only the checks particular to a smoke (the kernel tag, the bound-row
//! count) are written out here.

use crate::harness::option_matrix;
use crate::table::{banner, print_table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::all_to_all::AllToAll;
use ss_core::collective::Collective;
use ss_core::divisible::Divisible;
use ss_core::engine::Formulation;
use ss_core::master_slave::{MasterSlave, PortModel};
use ss_core::multicast::EdgeCoupling;
use ss_core::multicast_trees::TreePackingForm;
use ss_core::{dag, engine};
use ss_lp::{BoundMode, Kernel, SimplexOptions};
use ss_num::Ratio;
use ss_platform::{paper, topo, NodeId, Platform};
use std::time::Instant;

/// One formulation's dense-vs-sparse timing on an identical instance.
pub struct KernelPairing {
    /// Formulation name.
    pub name: &'static str,
    /// Median wall-clock per `f64` solve on the dense tableau (ms).
    pub dense_ms: f64,
    /// Median wall-clock per `f64` solve on the sparse revised simplex (ms).
    pub sparse_ms: f64,
}

impl KernelPairing {
    /// `dense / sparse` (>1 means the sparse kernel wins).
    pub fn speedup(&self) -> f64 {
        self.dense_ms / self.sparse_ms
    }
}

/// Median wall-clock of `runs` invocations, in milliseconds.
fn median_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Time `f`'s `f64` build + solve on `g` under each kernel, each through
/// its own explicit options.
fn pair<F: Formulation>(name: &'static str, f: &F, g: &Platform) -> KernelPairing {
    const RUNS: usize = 5;
    let time = |kernel| {
        let opts = SimplexOptions::with_kernel(kernel);
        median_ms(RUNS, || {
            let (lp, _) = f.build(g).expect("formulation builds");
            engine::solve_problem_with::<f64>(&lp, &opts).expect("f64 solve");
        })
    };
    KernelPairing {
        name,
        dense_ms: time(Kernel::Dense),
        sparse_ms: time(Kernel::SparseRevised),
    }
}

/// Dense-vs-sparse `f64` timings for every formulation on its reference
/// platform (the same instances the `formulations` Criterion bench uses).
pub fn formulation_pairings() -> Vec<KernelPairing> {
    let mut rng = StdRng::seed_from_u64(41);
    let (g, root) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
    let targets = topo::pick_targets(&mut rng, &g, root, 3);
    let (fig2, src2, targets2) = paper::fig2_multicast();
    let mut tg = dag::TaskGraph::diamond();
    tg.pin_task(dag::TaskId(0), root);

    let mut rng6 = StdRng::seed_from_u64(42);
    let (g6, _) = topo::random_connected(&mut rng6, 6, 0.3, &topo::ParamRange::default());

    use EdgeCoupling::{Max, Sum};
    let collective = |source, targets: &[NodeId], coupling| Collective {
        source,
        targets: targets.to_vec(),
        coupling,
        model: PortModel::FullOverlapOnePort,
    };
    // Broadcast reaches everyone but the root; reduce is broadcast on the
    // transposed platform.
    let everyone: Vec<NodeId> = g.node_ids().filter(|&n| n != root).collect();
    let reversed = g.reversed();
    let trees = TreePackingForm::new(src2, &targets2);

    vec![
        pair("ssms", &MasterSlave::new(root), &g),
        pair("scatter", &collective(root, &targets, Sum), &g),
        pair("multicast-sum", &collective(src2, &targets2, Sum), &fig2),
        pair("multicast-max", &collective(src2, &targets2, Max), &fig2),
        pair("broadcast", &collective(root, &everyone, Max), &g),
        pair("reduce", &collective(root, &everyone, Max), &reversed),
        pair("all-to-all", &AllToAll::new(), &g6),
        pair("dag", &dag::DagCollection { dag: &tg }, &g),
        pair("divisible", &Divisible::new(root), &g),
        pair("multicast-trees", &trees, &fig2),
    ]
}

/// Print a pairing table (used by the `lp-scale` experiment).
pub fn print_pairings(pairs: &[KernelPairing]) {
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                format!("{:.3}", p.dense_ms),
                format!("{:.3}", p.sparse_ms),
                format!("{:.2}x", p.speedup()),
            ]
        })
        .collect();
    print_table(&["formulation", "dense ms", "sparse ms", "speedup"], &rows);
}

/// CI smoke: both kernels × both backends on small platforms, with hard
/// agreement asserts (`repro -- kernel-smoke`; wired into the workflow).
pub fn kernel_smoke() {
    banner(
        "kernel-smoke",
        "kernel regression guard — dense vs sparse on both backends, small p",
    );
    let kernels = [Kernel::SparseRevised, Kernel::Dense].map(SimplexOptions::with_kernel);
    let mut rows = Vec::new();
    for p in [4usize, 8, 12] {
        let mut rng = StdRng::seed_from_u64(7000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
        let (lp, _) = MasterSlave::new(m).build(&g).expect("SSMS build");
        let solved = option_matrix(&lp, &kernels);
        let ((sparse, exact), (dense, dense_exact)) = (&solved[0], &solved[1]);
        assert_eq!(dense_exact.kernel(), Kernel::Dense);

        // The ported divisible formulation rides the same guard.
        let (lp, _) = Divisible::new(m).build(&g).expect("divisible build");
        let divisible = option_matrix(&lp, &kernels);

        rows.push(vec![
            p.to_string(),
            format!("{:.6}", dense.objective()),
            format!("{:.6}", sparse.objective()),
            exact.objective().to_string(),
            format!(
                "{:.1e}",
                (exact.objective().to_f64() - sparse.objective()).abs()
            ),
            exact.exact_continuation_pivots().to_string(),
            divisible[0].1.exact_continuation_pivots().to_string(),
        ]);
    }
    print_table(
        &[
            "p",
            "dense f64",
            "sparse f64",
            "exact",
            "|Δ|",
            "exact cont. ssms",
            "exact cont. divisible",
        ],
        &rows,
    );
    println!("exact cont. = pivots the sparse exact solve ran in Ratio after its f64 pre-solve.");
    println!("all kernel/backends agree (asserted; a disagreement panics and fails CI).");
}

/// CI smoke for the bounded-variable simplex: box-heavy formulations
/// (SSMS is all `0 ≤ x ≤ 1` activity variables) solved with native bound
/// metadata vs the lowered-rows oracle, on both kernels and both scalar
/// backends, with certificates verified on every exact solve
/// (`repro -- bounded-smoke`; wired into the workflow).
pub fn bounded_smoke() {
    banner(
        "bounded-smoke",
        "bounded-variable guard — native 0 ≤ x ≤ u vs lowered bound rows, both kernels",
    );
    let modes = [
        (Kernel::SparseRevised, BoundMode::Native),
        (Kernel::SparseRevised, BoundMode::LoweredRows),
        (Kernel::Dense, BoundMode::Native),
        (Kernel::Dense, BoundMode::LoweredRows),
    ]
    .map(|(kernel, bound_mode)| SimplexOptions {
        kernel,
        bound_mode,
        ..SimplexOptions::default()
    });

    let mut rows = Vec::new();
    let (fig1, m1) = paper::fig1();
    let mut platforms = vec![("fig1".to_string(), fig1, m1)];
    for p in [6usize, 10, 14] {
        let mut rng = StdRng::seed_from_u64(9000 + p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.3, &topo::ParamRange::default());
        platforms.push((format!("rand-{p}"), g, m));
    }
    for (name, g, m) in &platforms {
        let (lp, _) = MasterSlave::new(*m).build(g).expect("SSMS build");
        let native_rows = ss_lp::lower::<Ratio>(&lp).m;
        let lowered_rows = ss_lp::lower_with::<Ratio>(&lp, BoundMode::LoweredRows).m;
        assert!(native_rows < lowered_rows, "{name}: nothing to fold?");

        // The first mode is the default one the sweeps run.
        let solved = option_matrix(&lp, &modes);
        let (fast, reference) = &solved[0];
        rows.push(vec![
            name.clone(),
            format!("{native_rows}/{lowered_rows}"),
            reference.objective().to_string(),
            reference.iterations().to_string(),
            format!(
                "{:.1e}",
                (fast.objective() - reference.objective().to_f64()).abs()
            ),
        ]);
    }
    print_table(
        &["platform", "rows n/l", "exact ntask", "pivots", "f64 |Δ|"],
        &rows,
    );
    println!("native and lowered bound handling agree on both kernels (asserted).");
}
