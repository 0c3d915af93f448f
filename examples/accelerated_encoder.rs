//! Runs one full encoder layer *through the paper's accelerator* — each
//! quantized ResBlock lowered to its Algorithm-1 command stream and
//! executed on the `s × 64` array, INT8 activations in, INT8 activations
//! out — and validates the result against the FP32 reference block,
//! reporting numeric error and cycle-accurate timing.
//!
//! ```text
//! cargo run --release --example accelerated_encoder
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::{scheduler, AccelConfig, Backend, PaperBackend};
use transformer_accel::graph::{ffn_graph, mha_graph};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;

fn main() {
    // A genuinely paper-sized layer: Transformer-base, s = 64.
    let model_cfg = ModelConfig::transformer_base();
    let s = 64;
    let mut rng = StdRng::seed_from_u64(0xE9C0);
    println!("building FP32 Transformer-base encoder layer (this allocates ~3M parameters)...");
    let mut mha_f32 = MhaResBlock::new(&model_cfg, &mut rng);
    let mut ffn_f32 = FfnResBlock::new(&model_cfg, &mut rng);

    let calib: Vec<_> = (0..2)
        .map(|_| tensor::init::normal(&mut rng, s, model_cfg.d_model, 1.0))
        .collect();
    println!("calibrating INT8 scales...");
    let qmha = QuantMhaResBlock::from_f32(&mha_f32, &calib, &calib, SoftmaxMode::Hardware);
    let qffn = {
        let mha_outs: Vec<_> = calib
            .iter()
            .map(|x| mha_f32.forward(x, x, x, None))
            .collect();
        QuantFfnResBlock::from_f32(&ffn_f32, &mha_outs)
    };

    let cfg = AccelConfig::paper_default();
    let accel = PaperBackend::new(cfg.clone());
    let mha_prog = accel.lower_mha(&mha_graph(&qmha.graph_config()), s);
    let ffn_prog = accel.lower_ffn(&ffn_graph(&qffn.graph_config()));

    // Drive the layer: x -> MHA ResBlock -> FFN ResBlock.
    let x = &calib[0];
    let xq = qmha.quantize_input_q(x);
    let mha_out = accel.run_mha(&mha_prog, &qmha, &xq, &xq, None);
    let ffn_out = accel.run_ffn(&ffn_prog, &qffn, &mha_out);
    let mha_report = scheduler::schedule_mha(&cfg);
    let ffn_report = scheduler::schedule_ffn(&cfg);

    // FP32 reference for the same layer.
    let ref_mha = mha_f32.forward(x, x, x, None);
    let ref_ffn = ffn_f32.forward(&ref_mha);
    let got = qffn.dequantize_output(&ffn_out);
    let max_err = got
        .as_slice()
        .iter()
        .zip(ref_ffn.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);

    println!(
        "\nlayer output: {}x{} INT8 codes",
        ffn_out.rows(),
        ffn_out.cols()
    );
    println!("max abs error vs FP32 reference (LayerNorm-domain values): {max_err:.3}");
    println!(
        "MHA ResBlock: {} cycles ({:.1} us), SA utilization {:.1}%",
        mha_report.cycles.get(),
        mha_report.latency_us,
        100.0 * mha_report.sa_utilization
    );
    println!(
        "FFN ResBlock: {} cycles ({:.1} us), SA utilization {:.1}%",
        ffn_report.cycles.get(),
        ffn_report.latency_us,
        100.0 * ffn_report.sa_utilization
    );
    println!(
        "encoder layer total: {:.1} us @ 200 MHz",
        mha_report.latency_us + ffn_report.latency_us
    );

    println!("\nMHA schedule (first head), Gantt view:");
    let gantt = mha_report.timeline.gantt(110);
    println!("{gantt}");
}
