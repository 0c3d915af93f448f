//! Reproducibility guarantees: everything seeded must be bit-identical
//! across runs — training, quantization, the accelerator, and the
//! experiment pipelines built on them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::transformer::checkpoint::state_dict;
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS, EOS};
use transformer_accel::transformer::train::{train, TrainSpec};

fn spec() -> TrainSpec {
    TrainSpec {
        steps: 25,
        batch: 4,
        warmup: 10,
        lr_scale: 0.5,
        ..TrainSpec::default()
    }
}

fn tiny_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 1;
    cfg
}

#[test]
fn training_is_bit_deterministic() {
    let cfg = tiny_cfg();
    let run = || {
        let mut model = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(11));
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
        let report = train(&mut model, &gen, &spec());
        (report.losses, state_dict(&mut model))
    };
    let (losses_a, params_a) = run();
    let (losses_b, params_b) = run();
    assert_eq!(losses_a, losses_b, "loss curves must be identical");
    assert_eq!(params_a, params_b, "trained parameters must be identical");
}

#[test]
fn training_a_clone_of_an_untrained_model_is_bit_identical() {
    // Weight gradients are allocated on first use, so an untrained model
    // and its clones hold none. A clone — fresh, or after an inference
    // pass — must train to exactly the bits the original does.
    let cfg = tiny_cfg();
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let fresh = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(11));
    let mut used = fresh.clone();
    let _ = used.greedy_decode(&[4, 5, 6], BOS, EOS, 4);
    let run = |mut model: Seq2SeqTransformer| {
        let report = train(&mut model, &gen, &spec());
        (report.losses, state_dict(&mut model))
    };
    let want = run(fresh.clone());
    assert_eq!(run(fresh), want, "the original");
    assert_eq!(run(used), want, "a clone that ran inference");
}

#[test]
fn quantization_pipeline_is_deterministic() {
    let cfg = tiny_cfg();
    let build = || {
        let mut model = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(12));
        let gen = TaskGen::new(Task::Copy, cfg.vocab, 3, 5);
        let _ = train(&mut model, &gen, &spec());
        let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(13));
        let q = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
        (q, corpus)
    };
    let (qa, corpus) = build();
    let (qb, _) = build();
    for (src, tgt) in &corpus {
        let mut tin = vec![transformer_accel::transformer::tasks::BOS];
        tin.extend_from_slice(tgt);
        assert_eq!(
            qa.forward_logits(src, &tin),
            qb.forward_logits(src, &tin),
            "quantized logits must be bit-identical across rebuilds"
        );
    }
}

#[test]
fn schedules_and_area_are_pure_functions() {
    use transformer_accel::accel::{scheduler, AccelConfig};
    let cfg = AccelConfig::paper_default();
    let a = scheduler::schedule_mha(&cfg);
    let b = scheduler::schedule_mha(&cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.timeline.events().len(), b.timeline.events().len());
    let area = transformer_accel::accel::area::AreaModel::new(cfg.clone());
    assert_eq!(
        area.top(),
        transformer_accel::accel::area::AreaModel::new(cfg).top()
    );
}

#[test]
fn rtl_emission_is_reproducible() {
    let a = transformer_accel::accel::rtl::emit_all(64);
    let b = transformer_accel::accel::rtl::emit_all(64);
    assert_eq!(a.len(), b.len());
    for ((na, ca), (nb, cb)) in a.iter().zip(&b) {
        assert_eq!(na, nb);
        assert_eq!(ca, cb, "artifact {na} differs across emissions");
    }
}
