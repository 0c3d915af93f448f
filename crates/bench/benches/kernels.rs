//! Criterion micro-benchmarks of the nonlinear-function kernels: the
//! shift-add EXP/LN units, the rsqrt ROM, the full hardware softmax and
//! the hardware LayerNorm — and, at the shapes one head of a 64-row
//! prefill chunk sees them, the causal softmax, the LayerNorm and the
//! `P` requantize drain, each beside the form it replaced.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fixedmath::explog::{exp_unit, ln_unit};
use fixedmath::fx::{to_fx, FRAC};
use fixedmath::quant::{QuantParams, Requantizer};
use fixedmath::rsqrt::rsqrt_fx;
use quantized::layernorm::HwLayerNorm;
use quantized::softmax::{scaled_masked_softmax, scaled_prefix_softmax, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Mat;

fn bench_units(c: &mut Criterion) {
    let xs: Vec<i32> = (0..1024).map(|i| to_fx(-(i as f32) / 64.0, FRAC)).collect();
    c.bench_function("exp_unit/1024", |b| {
        b.iter(|| xs.iter().map(|&x| exp_unit(black_box(x))).sum::<i32>())
    });
    let ys: Vec<i32> = (1..1025).map(|i| i * 37).collect();
    c.bench_function("ln_unit/1024", |b| {
        b.iter(|| ys.iter().map(|&x| ln_unit(black_box(x))).sum::<i32>())
    });
    let vs: Vec<i64> = (1..1025).map(|i| i * 4097).collect();
    c.bench_function("rsqrt_fx/1024", |b| {
        b.iter(|| vs.iter().map(|&x| rsqrt_fx(black_box(x))).sum::<i64>())
    });
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("hw_softmax");
    for &s in &[16usize, 64, 128] {
        let d = Mat::from_fn(s, s, |_, _| rng.random_range(-80_000..80_000i32));
        group.bench_with_input(BenchmarkId::from_parameter(s), &d, |b, d| {
            b.iter(|| {
                black_box(scaled_masked_softmax(
                    d,
                    5e-5,
                    64,
                    None,
                    SoftmaxMode::Hardware,
                ))
            })
        });
    }
    group.finish();
}

/// One head of a 64-row causal chunk whose session holds 192 rows: row
/// `j` may attend `129 + j` of the 192 score columns. `dense_mask` is
/// the `Mat<bool>` form (build included, as the chunk path paid it per
/// layer and session); `prefix` states the same rows as lengths.
fn bench_causal_softmax(c: &mut Criterion) {
    let (rows, ctx) = (64usize, 192usize);
    let mut rng = StdRng::seed_from_u64(4);
    let d = Mat::from_fn(rows, ctx, |_, _| rng.random_range(-80_000..80_000i32));
    let mut group = c.benchmark_group("hw_softmax_causal_64x192");
    group.bench_function("dense_mask", |b| {
        b.iter(|| {
            let mask = Mat::from_fn(rows, ctx, |j, t| t > ctx - rows + j);
            black_box(scaled_masked_softmax(
                &d,
                5e-5,
                64,
                Some(&mask),
                SoftmaxMode::Hardware,
            ))
        })
    });
    group.bench_function("prefix", |b| {
        b.iter(|| {
            let live: Vec<usize> = (0..rows).map(|j| ctx - rows + j + 1).collect();
            black_box(scaled_prefix_softmax(
                &d,
                5e-5,
                64,
                &live,
                SoftmaxMode::Hardware,
            ))
        })
    });
    group.finish();
}

/// The `probs x V_i` drain of one head of a 64-row chunk: 64 x 64
/// accumulators to `P` codes, element by element and as one slice.
fn bench_requantize_drain(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let rq = Requantizer::from_ratio(3.1e-3);
    let acc: Vec<i32> = (0..64 * 64)
        .map(|_| rng.random_range(-60_000..60_000i32))
        .collect();
    let mut out = vec![0i8; acc.len()];
    let mut group = c.benchmark_group("requantize_drain_64x64");
    group.bench_function("per_element", |b| {
        b.iter(|| {
            for (o, &a) in out.iter_mut().zip(&acc) {
                *o = black_box(&rq).apply_sat_i8(a);
            }
            black_box(out[0])
        })
    });
    group.bench_function("slice", |b| {
        b.iter(|| {
            rq.apply_sat_i8_slice(black_box(&acc), &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_layernorm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let d = 512;
    let gamma: Vec<f32> = (0..d).map(|_| rng.random_range(0.5..1.5f32)).collect();
    let beta: Vec<f32> = (0..d).map(|_| rng.random_range(-0.2..0.2f32)).collect();
    let ln = HwLayerNorm::from_f32(
        &gamma,
        &beta,
        QuantParams::new(0.02),
        QuantParams::new(0.02),
    );
    let g = Mat::from_fn(64, d, |_, _| rng.random_range(-200..200i32));
    c.bench_function("hw_layernorm/64x512", |b| {
        b.iter(|| black_box(ln.forward(&g)))
    });
}

criterion_group!(
    benches,
    bench_units,
    bench_softmax,
    bench_causal_softmax,
    bench_requantize_drain,
    bench_layernorm
);
criterion_main!(benches);
