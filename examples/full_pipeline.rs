//! The grand tour: every stage of the reproduction in one run.
//!
//! 1. train a small FP32 Transformer on the grammar task;
//! 2. snapshot and restore its parameters (checkpointing);
//! 3. quantize it with the two-step INT8 recipe and score BLEU;
//! 4. pack an encoder layer's weights into a weight-memory image;
//! 5. execute that layer on the register-true systolic array (the
//!    execution engine) and check bit-identity with the datapath;
//! 6. report the layer's cycle-accurate schedule and the full-model
//!    inference projection.
//!
//! ```text
//! cargo run --release --example full_pipeline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::engine::ArrayEngine;
use transformer_accel::accel::isa::mha_program;
use transformer_accel::accel::pipeline::{full_inference, PipelineConfig};
use transformer_accel::accel::weights::WeightImage;
use transformer_accel::accel::{scheduler, AccelConfig};
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::transformer::checkpoint::{load_state_dict, state_dict};
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen};
use transformer_accel::transformer::train::{evaluate, study_config, train, TrainSpec};

fn main() {
    // 1. Train.
    let cfg = study_config();
    println!("[1/6] training on the grammar (SVO->SOV) task...");
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Grammar, cfg.vocab, 6, 9);
    let spec = TrainSpec {
        steps: 600,
        batch: 8,
        warmup: 100,
        lr_scale: 0.5,
        ..TrainSpec::default()
    };
    let report = train(&mut model, &gen, &spec);
    println!("      final loss {:.3}", report.final_loss);

    // 2. Checkpoint round-trip.
    println!("[2/6] checkpoint round-trip...");
    let sd = state_dict(&mut model);
    let mut restored = Seq2SeqTransformer::new(&cfg, &mut StdRng::seed_from_u64(999));
    load_state_dict(&mut restored, &sd).expect("restore");
    println!(
        "      {} buffers, {} parameters",
        sd.len(),
        sd.param_count()
    );

    // 3. Quantize and score.
    println!("[3/6] two-step INT8 quantization...");
    let mut eval_rng = StdRng::seed_from_u64(7);
    let test = gen.corpus(24, &mut eval_rng);
    let calib = gen.corpus(8, &mut eval_rng);
    let fp32 = evaluate(&mut restored, &test);
    let quant = QuantSeq2Seq::from_trained(&restored, &calib, SoftmaxMode::Hardware);
    let q_eval = quant.evaluate_parallel(&test, 4);
    println!(
        "      BLEU: FP32 {:.1} -> INT8+HW softmax {:.1}",
        fp32.bleu, q_eval.bleu
    );

    // 4. Weight image of encoder layer 0.
    println!("[4/6] packing the weight-memory image...");
    let layer0 = &quant.encoder_layers()[0];
    let img = WeightImage::from_mha(&layer0.mha);
    println!(
        "      MHA image: {} bytes in {} x 512-bit words, {} panels",
        img.byte_len(),
        img.word_len(),
        img.directory().len()
    );

    // 5. Execute on the PE grid.
    println!("[5/6] executing encoder layer 0 on the systolic array...");
    let (src, _) = &test[0];
    let x = restored.src_embedding().forward_inference(src);
    let xq = layer0.mha.quantize_input_q(&x);
    let program = mha_program(cfg.h, src.len());
    let run = ArrayEngine::new(cfg.max_len).run_mha(&program, &layer0.mha, &xq, &xq, None);
    let (want, _) = layer0.mha.forward(&xq, &xq, None);
    assert_eq!(
        run.out, want,
        "engine must be bit-identical to the datapath"
    );
    println!(
        "      {} GEMM passes, {} MACs — output bit-identical to the datapath",
        run.stats.gemm_passes, run.stats.macs
    );

    // 6. Timing.
    println!("[6/6] cycle-accurate timing...");
    let accel_cfg = AccelConfig {
        model: cfg.clone(),
        s: cfg.max_len,
        ..AccelConfig::paper_default()
    };
    let mha = scheduler::schedule_mha_cross(&accel_cfg, src.len(), src.len());
    println!(
        "      MHA ResBlock at s={}: {} cycles = {:.2} us, SA {:.0}% busy",
        src.len(),
        mha.cycles.get(),
        mha.latency_us,
        100.0 * mha.sa_utilization
    );
    let inf = full_inference(&accel_cfg, &PipelineConfig::default(), src.len(), src.len());
    println!(
        "      full {}-layer inference of this sentence: {:.1} us",
        cfg.n_layers, inf.total_us
    );
    println!("\ndone — every stage green.");
}
