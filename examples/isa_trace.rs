//! Prints the accelerator's command stream (the static program a
//! control unit would execute for Algorithm 1) together with each
//! command's cost, and verifies that interpreting the program through
//! `PaperBackend` reproduces both the pinned cycle count and the
//! datapath's exact output.
//!
//! ```text
//! cargo run --example isa_trace
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::isa::{mha_program, Command};
use transformer_accel::accel::{AccelConfig, Backend, BackendProgram, PaperBackend};
use transformer_accel::quantized::{QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::mha::MhaResBlock;

fn describe(cmd: &Command, cfg: &AccelConfig) -> (String, String) {
    let d = cfg.model.d_model;
    let s = cfg.s;
    match cmd {
        Command::ProjectQ { head } => (format!("ProjectQ[h{head}]"), format!("GEMM k={d} +drain")),
        Command::ProjectK { head } => (format!("ProjectK[h{head}]"), format!("GEMM k={d} +drain")),
        Command::ProjectV { head } => (format!("ProjectV[h{head}]"), format!("GEMM k={d} +drain")),
        Command::ScoreTile { head, tile } => (
            format!("ScoreTile[h{head}.{tile}]"),
            format!("GEMM k={} +drain", cfg.model.d_k()),
        ),
        Command::Softmax { head } => (
            format!("Softmax[h{head}]"),
            format!("{} cycles (softmax unit, overlapped)", 2 * s + 4),
        ),
        Command::Context { head } => (format!("Context[h{head}]"), format!("GEMM k={s} +drain")),
        Command::OutputPanel { panel } => (
            format!("OutputPanel[{panel}]"),
            format!("GEMM k={d} +drain"),
        ),
        Command::FfnHidden { panel } => {
            (format!("FfnHidden[{panel}]"), format!("GEMM k={d} +drain"))
        }
        Command::FfnOutput { panel } => (
            format!("FfnOutput[{panel}]"),
            format!("GEMM k={} +drain", cfg.model.d_ff),
        ),
        Command::LayerNorm => ("LayerNorm".into(), "tail + output sweep".into()),
    }
}

fn main() {
    let cfg = AccelConfig::paper_default();
    let program = mha_program(cfg.model.h, cfg.s);
    println!(
        "MHA ResBlock command stream ({} commands, Transformer-base, s = 64):\n",
        program.len()
    );
    for (i, cmd) in program.iter().enumerate() {
        let (name, cost) = describe(cmd, &cfg);
        if i < 14 || i >= program.len() - 3 {
            println!("  {i:>3}: {name:<18} {cost}");
        } else if i == 14 {
            println!("  ...: (heads 2..7 repeat the same six-command pattern)");
        }
    }

    let cycles = PaperBackend::new(cfg.clone()).cycles(&BackendProgram::Isa(program), cfg.s);
    println!(
        "\ntiming interpretation: {cycles} cycles (pinned reproduction count: 20998 — exact match: {})",
        cycles == 20_998
    );

    // And the same program, executed bit-exactly on a real block.
    let model_cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0x15A);
    let mha = MhaResBlock::new(&model_cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, 8, model_cfg.d_model, 1.0))
        .collect();
    let q = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let xq = q.quantize_input_q(&calib[0]);
    let small = AccelConfig {
        model: model_cfg.clone(),
        s: 8,
        ..cfg
    };
    let small_program = BackendProgram::Isa(mha_program(model_cfg.h, 8));
    let got = PaperBackend::new(small).run_mha(&small_program, &q, &xq, &xq, None);
    let (want, _) = q.forward(&xq, &xq, None);
    println!(
        "execution interpretation on a tiny block: bit-identical to the datapath: {}",
        got == want
    );
}
