//! Cross-crate integration tests: FP32 reference → INT8 datapath →
//! the paper's accelerator backend, end to end.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::{AccelConfig, Backend, PaperBackend};
use transformer_accel::graph::{ffn_graph, mha_graph};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, QuantSeq2Seq, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen};

fn max_abs_diff(a: &tensor::Mat<f32>, b: &tensor::Mat<f32>) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn full_encoder_layer_through_accelerator_tracks_fp32() {
    let model_cfg = ModelConfig::tiny_for_tests();
    let s = 8;
    let mut rng = StdRng::seed_from_u64(100);
    let mut mha_f32 = MhaResBlock::new(&model_cfg, &mut rng);
    let mut ffn_f32 = FfnResBlock::new(&model_cfg, &mut rng);
    let calib: Vec<_> = (0..5)
        .map(|_| tensor::init::normal(&mut rng, s, model_cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha_f32, &calib, &calib, SoftmaxMode::Hardware);
    let mha_outs: Vec<_> = calib
        .iter()
        .map(|x| mha_f32.forward(x, x, x, None))
        .collect();
    let qffn = QuantFfnResBlock::from_f32(&ffn_f32, &mha_outs);

    let accel = PaperBackend::new(AccelConfig {
        model: model_cfg,
        s: 16,
        ..AccelConfig::paper_default()
    });
    let mha_prog = accel.lower_mha(&mha_graph(&qmha.graph_config()), s);
    let ffn_prog = accel.lower_ffn(&ffn_graph(&qffn.graph_config()));

    let x = &calib[0];
    let xq = qmha.quantize_input_q(x);
    let mha_out = accel.run_mha(&mha_prog, &qmha, &xq, &xq, None);
    let ffn_out = accel.run_ffn(&ffn_prog, &qffn, &mha_out);

    let want = ffn_f32.forward(&mha_f32.forward(x, x, x, None));
    let got = qffn.dequantize_output(&ffn_out);
    let err = max_abs_diff(&got, &want);
    assert!(err < 0.35, "layer error {err}");
    assert!(accel.cycles(&mha_prog, s) > 0);
    assert!(accel.cycles(&ffn_prog, s) > 0);
}

#[test]
fn accelerator_numerics_are_exactly_the_quantized_datapath() {
    let model_cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(200);
    let mha = MhaResBlock::new(&model_cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, 6, model_cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let accel = PaperBackend::new(AccelConfig {
        model: model_cfg,
        s: 8,
        ..AccelConfig::paper_default()
    });
    let prog = accel.lower_mha(&mha_graph(&qmha.graph_config()), 6);

    for x in &calib {
        let xq = qmha.quantize_input_q(x);
        let (want, _) = qmha.forward(&xq, &xq, None);
        let got = accel.run_mha(&prog, &qmha, &xq, &xq, None);
        assert_eq!(got, want, "accelerator must be bit-identical");
    }
}

#[test]
fn trained_model_survives_quantization_with_small_bleu_drop() {
    // A short training run (enough to clearly beat chance) and the full
    // two-step quantization recipe — a miniature of experiment E9.
    let mut cfg = transformer_accel::transformer::train::study_config();
    cfg.n_layers = 1;
    cfg.d_model = 32;
    cfg.d_ff = 128;
    let mut rng = StdRng::seed_from_u64(300);
    let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Copy, cfg.vocab, 3, 6);
    let spec = transformer_accel::transformer::train::TrainSpec {
        steps: 250,
        batch: 6,
        warmup: 50,
        lr_scale: 0.5,
        ..Default::default()
    };
    let _ = transformer_accel::transformer::train::train(&mut model, &gen, &spec);

    let mut eval_rng = StdRng::seed_from_u64(301);
    let test = gen.corpus(12, &mut eval_rng);
    let calib = gen.corpus(6, &mut eval_rng);
    let fp32 = transformer_accel::transformer::train::evaluate(&mut model, &test);

    let q = QuantSeq2Seq::from_trained(&model, &calib, SoftmaxMode::Hardware);
    let qv = q.evaluate(&test);
    // INT8 should stay within a generous fraction of the FP32 score
    // (the trained score itself may be moderate after 250 steps).
    assert!(
        qv.bleu >= fp32.bleu * 0.5 - 5.0,
        "quantization destroyed the model: {} -> {}",
        fp32.bleu,
        qv.bleu
    );
}

#[test]
fn sequence_lengths_flow_through_all_layers_of_the_stack() {
    // odd, non-power-of-two sequence lengths must work everywhere
    let model_cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(400);
    let mha = MhaResBlock::new(&model_cfg, &mut rng);
    let calib: Vec<_> = (0..2)
        .map(|_| tensor::init::normal(&mut rng, 11, model_cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let accel = PaperBackend::new(AccelConfig {
        model: model_cfg.clone(),
        s: 16,
        ..AccelConfig::paper_default()
    });
    let graph = mha_graph(&qmha.graph_config());
    for s in [1usize, 3, 7, 11] {
        let x = tensor::init::normal(&mut rng, s, model_cfg.d_model, 1.0);
        let xq = qmha.quantize_input_q(&x);
        let mask = tensor::ops::causal_mask(s);
        let prog = accel.lower_mha(&graph, s);
        let out = accel.run_mha(&prog, &qmha, &xq, &xq, Some(&mask));
        assert_eq!(out.shape(), (s, model_cfg.d_model));
        assert!(accel.cycles(&prog, s) > 0, "s={s}");
    }
}

/// Paper-scale bit-identity: Transformer-base at s = 64, the exact
/// Table-III configuration, executed GEMM pass by GEMM pass through the
/// register-true PE grid. Heavy (hundreds of millions of PE updates) —
/// run explicitly with `cargo test --release -- --ignored`.
#[test]
#[ignore = "paper-scale; run with --release -- --ignored"]
fn paper_scale_engine_bit_identity() {
    use transformer_accel::accel::engine::ArrayEngine;
    use transformer_accel::accel::isa::mha_program;
    let model_cfg = ModelConfig::transformer_base();
    let mut rng = StdRng::seed_from_u64(0xB16);
    let mha = MhaResBlock::new(&model_cfg, &mut rng);
    let calib: Vec<_> = (0..1)
        .map(|_| tensor::init::normal(&mut rng, 64, model_cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let xq = qmha.quantize_input_q(&calib[0]);
    let (want, _) = qmha.forward(&xq, &xq, None);
    let program = mha_program(model_cfg.h, 64);
    let run = ArrayEngine::register_true(64).run_mha(&program, &qmha, &xq, &xq, None);
    assert_eq!(run.out, want);
    assert_eq!(run.stats.gemm_passes, 48, "Algorithm 1 at base scale");
}
