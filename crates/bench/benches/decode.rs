//! Criterion benchmarks of the INT8 decoding strategies: full-prefix
//! recompute vs KV-cached incremental.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS, EOS};
use transformer::train::study_config;

fn setup() -> (QuantSeq2Seq, Vec<usize>) {
    let cfg = study_config();
    let mut rng = StdRng::seed_from_u64(31);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 8, 10);
    let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(32));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let src = corpus[0].0.clone();
    (quant, src)
}

fn bench_decode(c: &mut Criterion) {
    let (quant, src) = setup();
    let max_len = 10;
    c.bench_function("int8_greedy_full_recompute", |b| {
        b.iter(|| black_box(quant.greedy_decode(&src, BOS, EOS, max_len)))
    });
    c.bench_function("int8_greedy_kv_cached", |b| {
        b.iter(|| black_box(quant.greedy_decode_incremental(&src, max_len)))
    });
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
