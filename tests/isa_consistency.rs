//! Three-way consistency: the same MHA ResBlock computed by (1) the
//! quantized datapath, (2) the register-true array engine, and (3) the
//! command-stream interpreter (through `PaperBackend::run_*`) must
//! agree bit for bit; and the scheduler's reports must be the timing
//! walk of the same programs for every policy and sequence length (the
//! numbers themselves are pinned in `tests/isa_golden.rs`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::engine::ArrayEngine;
use transformer_accel::accel::isa::{ffn_program, mha_program, schedule_program};
use transformer_accel::accel::{
    scheduler, AccelConfig, Backend, BackendProgram, PaperBackend, SchedPolicy,
};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;

/// The paper backend provisioned for `model` at `s` rows.
fn backend(model: &ModelConfig, s: usize) -> PaperBackend {
    PaperBackend::new(AccelConfig {
        model: model.clone(),
        s,
        ..AccelConfig::paper_default()
    })
}

fn mini_cfg() -> ModelConfig {
    ModelConfig {
        name: "mini64h".into(),
        d_model: 128,
        d_ff: 512,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    }
}

#[test]
fn three_way_mha_bit_identity() {
    let cfg = mini_cfg();
    let s = 16;
    let mut rng = StdRng::seed_from_u64(0x3A7);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let q = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let xq = q.quantize_input_q(&calib[0]);

    let (datapath, _) = q.forward(&xq, &xq, None);
    let engine_out = ArrayEngine::new(s).execute_mha(&q, &xq, &xq, None).out;
    let program = BackendProgram::Isa(mha_program(cfg.h, s));
    let isa_out = backend(&cfg, s).run_mha(&program, &q, &xq, &xq, None);

    assert_eq!(datapath, engine_out, "datapath vs PE-grid engine");
    assert_eq!(datapath, isa_out, "datapath vs command stream");
}

#[test]
fn three_way_ffn_bit_identity() {
    let cfg = mini_cfg();
    let s = 12;
    let mut rng = StdRng::seed_from_u64(0x3A8);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let q = QuantFfnResBlock::from_f32(&ffn, &calib);
    let x = q.quantize_input(&calib[1]);

    let (datapath, _) = q.forward(&x);
    let engine_out = ArrayEngine::new(s).execute_ffn(&q, &x).out;
    let program = BackendProgram::Isa(ffn_program(cfg.d_model, cfg.d_ff));
    let isa_out = backend(&cfg, s).run_ffn(&program, &q, &x);

    assert_eq!(datapath, engine_out);
    assert_eq!(datapath, isa_out);
}

#[test]
fn isa_timing_matches_scheduler_across_policies_and_lengths() {
    for pol in [
        SchedPolicy::naive(),
        SchedPolicy::paper(),
        SchedPolicy::aggressive(),
    ] {
        for s in [16usize, 64] {
            let mut cfg = AccelConfig::paper_default();
            cfg.sched = pol;
            cfg.s = s;
            let mha = mha_program(cfg.model.h, s);
            assert_eq!(
                schedule_program(&cfg, &mha, s),
                scheduler::schedule_mha(&cfg).cycles,
                "MHA {pol:?} s={s}"
            );
            let ffn = ffn_program(cfg.model.d_model, cfg.model.d_ff);
            assert_eq!(
                schedule_program(&cfg, &ffn, s),
                scheduler::schedule_ffn(&cfg).cycles,
                "FFN {pol:?} s={s}"
            );
        }
    }
}

#[test]
fn isa_timing_matches_for_long_sequences_with_tiling() {
    let mut cfg = AccelConfig::paper_default();
    cfg.s = 128;
    let prog = mha_program(cfg.model.h, 128);
    // two score tiles per head appear in the program
    let tiles = prog
        .iter()
        .filter(|c| matches!(c, transformer_accel::accel::isa::Command::ScoreTile { .. }))
        .count();
    assert_eq!(tiles, 16);
    assert_eq!(
        schedule_program(&cfg, &prog, 128),
        scheduler::schedule_mha(&cfg).cycles
    );
}
