//! LP kernel scaling (§3's "polynomial in |V| + |E|" claim): SSMS solve
//! time on random connected platforms — exact rational vs f64 backend,
//! and dense-tableau vs sparse-revised-simplex kernel on the f64 side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ss_core::master_slave::{self, PortModel};
use ss_lp::Kernel;
use ss_platform::topo;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssms_lp");
    group.sample_size(10);
    for p in [4usize, 8, 12, 16] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.25, &topo::ParamRange::default());
        let (prob, _) = master_slave::build(&g, m, &PortModel::FullOverlapOnePort);
        group.bench_with_input(BenchmarkId::new("exact", p), &prob, |b, prob| {
            b.iter(|| prob.solve_exact().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("f64_dense", p), &prob, |b, prob| {
            b.iter(|| prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("f64_sparse", p), &prob, |b, prob| {
            b.iter(|| prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
        });
    }
    group.finish();
    // Beyond the exact backend's comfort zone, pair the two f64 kernels
    // only — the regime the sparse revised simplex was built for.
    let mut group = c.benchmark_group("ssms_lp_large");
    group.sample_size(10);
    for p in [32usize, 48] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let (g, m) = topo::random_connected(&mut rng, p, 0.25, &topo::ParamRange::default());
        let (prob, _) = master_slave::build(&g, m, &PortModel::FullOverlapOnePort);
        group.bench_with_input(BenchmarkId::new("f64_dense", p), &prob, |b, prob| {
            b.iter(|| prob.solve_kernel::<f64>(Kernel::Dense).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("f64_sparse", p), &prob, |b, prob| {
            b.iter(|| prob.solve_kernel::<f64>(Kernel::SparseRevised).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
