//! Criterion comparison of the GEMM kernel tiers — naive reference vs
//! serial register-tiled vs parallel — at the paper's Algorithm-1 shapes
//! (`s = 64`, Transformer-base):
//!
//! * `64 x 512 x 64` — one projection / `W_G` / `W_2` panel pass;
//! * `64 x 64 x 64` — one per-head attention GEMM (`P_i V_i`);
//! * `64 x 512 x 2048` — the full FFN `X W_1` sublayer.
//!
//! Besides the criterion groups, the harness measures median wall-clock
//! per kernel tier directly and writes `results/BENCH_gemm.json` with
//! the speedups, so the artifact is regenerated by
//! `cargo bench -p bench-harness --bench par_gemm`.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use tensor::gemm;
use tensor::prepack::{self, PackedI8, PackedMat};

const SHAPES: [(usize, usize, usize); 3] = [(64, 512, 64), (64, 64, 64), (64, 512, 2048)];

/// Decode-loop shapes (`m` = in-flight rows, `k = d_model`): the weight
/// GEMMs the incremental decoder issues per step. These are where the
/// prepacked weight cache must beat the per-call-packed blocked kernel.
const DECODE_SHAPES: [(usize, usize, usize); 4] =
    [(1, 512, 512), (1, 512, 2048), (8, 512, 512), (16, 512, 512)];

fn bench_par_gemm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("par_gemm_i8");
    for &(m, k, n) in &SHAPES {
        let a = tensor::init::uniform_i8(&mut rng, m, k);
        let b = tensor::init::uniform_i8(&mut rng, k, n);
        group.throughput(Throughput::Elements((m * k * n) as u64));
        let shape = format!("{m}x{k}x{n}");
        group.bench_with_input(
            BenchmarkId::new("naive", &shape),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(gemm::matmul_i8_ref(a, b).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("blocked", &shape),
            &(&a, &b),
            |bench, (a, b)| one_worker(|| bench.iter(|| black_box(gemm::matmul_i8(a, b).unwrap()))),
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", &shape),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(gemm::matmul_i8(a, b).unwrap())),
        );
    }
    for &(m, k, n) in &DECODE_SHAPES {
        let a = tensor::init::uniform_i8(&mut rng, m, k);
        let b = tensor::init::uniform_i8(&mut rng, k, n);
        let packed = PackedI8::from_i8(&b);
        group.throughput(Throughput::Elements((m * k * n) as u64));
        let shape = format!("{m}x{k}x{n}");
        group.bench_with_input(
            BenchmarkId::new("blocked", &shape),
            &(&a, &b),
            |bench, (a, b)| one_worker(|| bench.iter(|| black_box(gemm::matmul_i8(a, b).unwrap()))),
        );
        group.bench_with_input(
            BenchmarkId::new("prepacked", &shape),
            &(&a, &packed),
            |bench, (a, p)| bench.iter(|| black_box(prepack::matmul_i8_prepacked(a, p).unwrap())),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("par_gemm_f32");
    let (m, k, n) = SHAPES[0];
    let a = tensor::init::normal(&mut rng, m, k, 1.0);
    let b = tensor::init::normal(&mut rng, k, n, 1.0);
    group.throughput(Throughput::Elements((m * k * n) as u64));
    let shape = format!("{m}x{k}x{n}");
    group.bench_with_input(
        BenchmarkId::new("naive", &shape),
        &(&a, &b),
        |bench, (a, b)| bench.iter(|| black_box(gemm::matmul_ref(a, b).unwrap())),
    );
    group.bench_with_input(
        BenchmarkId::new("parallel", &shape),
        &(&a, &b),
        |bench, (a, b)| bench.iter(|| black_box(gemm::matmul(a, b).unwrap())),
    );
    group.finish();
}

criterion_group!(benches, bench_par_gemm);

/// Runs `body` with the GEMMs pinned to the calling thread (the serial
/// "blocked" tier).
fn one_worker<R>(body: impl FnOnce() -> R) -> R {
    tensor::Policy {
        threads: 1,
        ..tensor::Policy::current()
    }
    .run(body)
}

/// Median nanoseconds of `f` over `reps` timed runs (plus two warm-ups).
fn median_ns<O>(reps: usize, mut f: impl FnMut() -> O) -> u64 {
    for _ in 0..2 {
        black_box(f());
    }
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct ShapeResult {
    m: usize,
    k: usize,
    n: usize,
    naive_ns: u64,
    blocked_ns: u64,
    parallel_ns: u64,
    /// Prepacked-weight kernel (pack cost excluded — paid once per
    /// weight lifetime, not per call).
    prepacked_ns: u64,
    /// Serial register-tiled kernel vs naive reference.
    blocked_speedup: f64,
    /// Auto-parallel kernel (ACCEL_THREADS workers) vs naive reference.
    parallel_speedup: f64,
    /// Prepacked kernel vs the per-call-packed blocked kernel — the
    /// weight-stationary win at this shape.
    prepacked_speedup_vs_blocked: f64,
}

#[derive(Serialize)]
struct GemmBenchReport {
    threads: usize,
    i8: Vec<ShapeResult>,
    /// Decode-step weight GEMM shapes (`m` = in-flight rows); the
    /// acceptance gate is `prepacked_ns < blocked_ns` on every row.
    decode_i8: Vec<ShapeResult>,
    f32: Vec<ShapeResult>,
}

fn measure_i8(m: usize, k: usize, n: usize, rng: &mut StdRng) -> ShapeResult {
    let a = tensor::init::uniform_i8(rng, m, k);
    let b = tensor::init::uniform_i8(rng, k, n);
    let packed = PackedI8::from_i8(&b);
    let reps = if m * k * n > 10_000_000 { 7 } else { 15 };
    let naive_ns = median_ns(reps, || gemm::matmul_i8_ref(&a, &b).unwrap());
    let blocked_ns = one_worker(|| median_ns(reps, || gemm::matmul_i8(&a, &b).unwrap()));
    let parallel_ns = median_ns(reps, || gemm::matmul_i8(&a, &b).unwrap());
    let prepacked_ns = median_ns(reps, || prepack::matmul_i8_prepacked(&a, &packed).unwrap());
    ShapeResult {
        m,
        k,
        n,
        naive_ns,
        blocked_ns,
        parallel_ns,
        prepacked_ns,
        blocked_speedup: naive_ns as f64 / blocked_ns as f64,
        parallel_speedup: naive_ns as f64 / parallel_ns as f64,
        prepacked_speedup_vs_blocked: blocked_ns as f64 / prepacked_ns as f64,
    }
}

fn measure_f32(m: usize, k: usize, n: usize, rng: &mut StdRng) -> ShapeResult {
    let a = tensor::init::normal(rng, m, k, 1.0);
    let b = tensor::init::normal(rng, k, n, 1.0);
    let packed = PackedMat::from_f32(&b);
    let reps = if m * k * n > 10_000_000 { 7 } else { 15 };
    let naive_ns = median_ns(reps, || gemm::matmul_ref(&a, &b).unwrap());
    let blocked_ns = one_worker(|| median_ns(reps, || gemm::matmul(&a, &b).unwrap()));
    let parallel_ns = median_ns(reps, || gemm::matmul(&a, &b).unwrap());
    let prepacked_ns = median_ns(reps, || prepack::matmul_prepacked(&a, &packed).unwrap());
    ShapeResult {
        m,
        k,
        n,
        naive_ns,
        blocked_ns,
        parallel_ns,
        prepacked_ns,
        blocked_speedup: naive_ns as f64 / blocked_ns as f64,
        parallel_speedup: naive_ns as f64 / parallel_ns as f64,
        prepacked_speedup_vs_blocked: blocked_ns as f64 / prepacked_ns as f64,
    }
}

fn emit_report() {
    let mut rng = StdRng::seed_from_u64(9);
    let report = GemmBenchReport {
        threads: tensor::par::threads(),
        i8: SHAPES
            .iter()
            .map(|&(m, k, n)| measure_i8(m, k, n, &mut rng))
            .collect(),
        decode_i8: DECODE_SHAPES
            .iter()
            .map(|&(m, k, n)| measure_i8(m, k, n, &mut rng))
            .collect(),
        f32: SHAPES
            .iter()
            .map(|&(m, k, n)| measure_f32(m, k, n, &mut rng))
            .collect(),
    };
    for r in report.i8.iter().chain(&report.decode_i8).chain(&report.f32) {
        println!(
            "{}x{}x{}: naive {} ns, blocked {:.2}x, parallel {:.2}x, prepacked {:.2}x vs blocked",
            r.m,
            r.k,
            r.n,
            r.naive_ns,
            r.blocked_speedup,
            r.parallel_speedup,
            r.prepacked_speedup_vs_blocked
        );
    }
    for r in &report.decode_i8 {
        assert!(
            r.prepacked_ns < r.blocked_ns,
            "prepacked kernel must beat per-call packing at decode shape \
             {}x{}x{} ({} ns vs {} ns)",
            r.m,
            r.k,
            r.n,
            r.prepacked_ns,
            r.blocked_ns
        );
    }
    bench_harness::write_json("BENCH_gemm", &report);
}

fn main() {
    benches();
    emit_report();
}
