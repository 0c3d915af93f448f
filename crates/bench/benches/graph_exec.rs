//! Criterion benchmarks of ResBlock forwards through the operator-graph
//! executors: graph construction cost, FP32 `FloatExec`, INT8
//! `QuantExec`, and the cached-KV decode step (`cached_mha_rows` via
//! `step_session`, a one-row chunk) that serving's decode loop drives.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Mat;
use transformer::config::ModelConfig;
use transformer::ffn::FfnResBlock;
use transformer::mha::MhaResBlock;
use transformer::tasks::{Task, TaskGen, BOS};

fn bench_graph_build(c: &mut Criterion) {
    let cfg = graph::GraphConfig {
        d_model: 512,
        d_ff: 2048,
        h: 8,
    };
    c.bench_function("graph_build/mha_paper", |b| {
        b.iter(|| black_box(graph::mha_graph(&cfg)))
    });
    c.bench_function("graph_build/plan_mha_paper", |b| {
        let g = graph::mha_graph(&cfg);
        b.iter(|| black_box(g.plan()))
    });
}

fn bench_block_executors(c: &mut Criterion) {
    let cfg = transformer::train::study_config();
    let s = 12;
    let mut rng = StdRng::seed_from_u64(5);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let x = calib[0].clone();

    // FloatExec: graph-driven FP32 inference forwards.
    c.bench_function("graph_exec/float_mha/study", |b| {
        b.iter(|| black_box(mha.forward_inference(&x, &x, &x, None)))
    });
    c.bench_function("graph_exec/float_ffn/study", |b| {
        b.iter(|| black_box(ffn.forward_inference(&x)))
    });

    // QuantExec: graph-driven INT8 forwards.
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
    let xq = qmha.quantize_input_q(&x);
    let xf = qffn.quantize_input(&x);
    c.bench_function("graph_exec/quant_mha/study", |b| {
        b.iter(|| black_box(qmha.forward(&xq, &xq, None)))
    });
    c.bench_function("graph_exec/quant_ffn/study", |b| {
        b.iter(|| black_box(qffn.forward(&xf)))
    });
}

fn bench_cached_step(c: &mut Criterion) {
    // The serving-facing decode step: one token through all layers of a
    // small model (a one-row chunk through `cached_mha_rows`).
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(6);
    let model = transformer::model::Seq2SeqTransformer::new(&cfg, &mut rng);
    let corpus = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7).corpus(4, &mut rng);
    let quant = quantized::QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let src = &corpus[0].0;
    c.bench_function("graph_exec/quant_row_step/tiny", |b| {
        b.iter(|| {
            let mut arena = quantized::incremental::KvArena::for_model(&quant);
            let mut session = quant.start_session(&mut arena, src);
            black_box(quant.step_session(&mut arena, &mut session, BOS))
        })
    });
}

criterion_group!(
    benches,
    bench_graph_build,
    bench_block_executors,
    bench_cached_step
);
criterion_main!(benches);
