//! Criterion micro-benchmarks of the GEMM substrate: the FP32 reference
//! kernels and the INT8 kernels the accelerator datapath uses.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::gemm;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("gemm_i8");
    for &(m, k, n) in &[(64usize, 512usize, 64usize), (64, 64, 64), (64, 2048, 64)] {
        let a = tensor::init::uniform_i8(&mut rng, m, k);
        let b = tensor::init::uniform_i8(&mut rng, k, n);
        group.throughput(Throughput::Elements((m * k * n) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(a, b),
            |bench, (a, b)| bench.iter(|| black_box(gemm::matmul_i8(a, b).unwrap())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("gemm_f32");
    for &(m, k, n) in &[(64usize, 512usize, 64usize), (64, 512, 512)] {
        let a = tensor::init::normal(&mut rng, m, k, 1.0);
        let b = tensor::init::normal(&mut rng, k, n, 1.0);
        group.throughput(Throughput::Elements((m * k * n) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(a, b),
            |bench, (a, b)| bench.iter(|| black_box(gemm::matmul(a, b).unwrap())),
        );
    }
    group.finish();

    // Blocked vs naive INT8 at the paper's deepest reduction.
    let a = tensor::init::uniform_i8(&mut rng, 64, 2048);
    let b = tensor::init::uniform_i8(&mut rng, 2048, 64);
    c.bench_function("gemm_i8_blocked/64x2048x64", |bench| {
        let one = tensor::Policy {
            threads: 1,
            ..tensor::Policy::current()
        };
        one.run(|| bench.iter(|| black_box(gemm::matmul_i8(&a, &b).unwrap())));
    });

    // The QK^T path (no materialised transpose).
    let q = tensor::init::uniform_i8(&mut rng, 64, 64);
    let k64 = tensor::init::uniform_i8(&mut rng, 64, 64);
    c.bench_function("gemm_i8_nt/64x64x64", |bench| {
        bench.iter(|| black_box(gemm::matmul_i8_nt(&q, &k64).unwrap()))
    });
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
