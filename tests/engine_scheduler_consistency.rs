//! Cross-validation between the two views of the accelerator: the
//! array-level execution engine (what the PE grid actually does, pass by
//! pass) and the scheduler (when each pass happens). Their op
//! inventories must agree exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::engine::ArrayEngine;
use transformer_accel::accel::isa::{ffn_program, Command};
use transformer_accel::accel::scheduler::ScheduleReport;
use transformer_accel::accel::{
    scheduler, AccelConfig, Accelerator, Backend, BackendProgram, PaperBackend,
};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;

fn table1_mini() -> ModelConfig {
    // 64h-patterned mini model: h = 2 so panels are exactly 64 wide and
    // the Algorithm-1 structure matches the paper's counting.
    ModelConfig {
        name: "mini-64h".into(),
        d_model: 128,
        d_ff: 512,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    }
}

fn quantized_blocks(s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, tensor::Mat<i8>) {
    let cfg = table1_mini();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
    let codes = qmha.quantize_input_q(&calib[0]);
    (qmha, qffn, codes)
}

fn accel_cfg(s: usize) -> AccelConfig {
    AccelConfig {
        model: table1_mini(),
        s,
        ..AccelConfig::paper_default()
    }
}

/// Events the schedule placed on the systolic array.
fn sa_events(rep: &ScheduleReport) -> usize {
    rep.timeline
        .events()
        .iter()
        .filter(|e| rep.timeline.unit_name(e.unit) == "systolic_array")
        .count()
}

#[test]
fn mha_gemm_pass_counts_agree() {
    let s = 16;
    let (qmha, _, codes) = quantized_blocks(s);
    let mut engine = ArrayEngine::new(s);
    let run = engine.execute_mha(&qmha, &codes, &codes, None);

    let rep = scheduler::schedule_mha_cross(&accel_cfg(s), s, s);
    let scheduled_gemms = sa_events(&rep);
    assert_eq!(
        run.stats.gemm_passes, scheduled_gemms,
        "engine executed {} GEMM passes, scheduler issued {}",
        run.stats.gemm_passes, scheduled_gemms
    );
}

#[test]
fn ffn_gemm_pass_counts_agree() {
    let s = 16;
    let (_, qffn, _) = quantized_blocks(s);
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let x = qffn.quantize_input(&tensor::init::normal(&mut rng, s, 128, 1.0));
    let mut engine = ArrayEngine::new(s);
    let run = engine.execute_ffn(&qffn, &x);

    let rep = scheduler::schedule_ffn_len(&accel_cfg(s), s);
    assert_eq!(run.stats.gemm_passes, sa_events(&rep));

    // Off the 64h pattern: d_ff 300 and d_model 100 both leave a ragged
    // last panel. The closed-form scheduler used to floor `d / 64`
    // (5 GEMMs, 1126 cycles) while the program and the PE grid ran 7;
    // the schedule is now the walk of the program, so all three
    // inventories agree and the facade reports the cycles of the
    // program it ran.
    let model = ModelConfig {
        name: "ragged".into(),
        d_model: 100,
        d_ff: 300,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    };
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let ffn = FfnResBlock::new(&model, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, model.d_model, 1.0))
        .collect();
    let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
    let x = qffn.quantize_input(&calib[0]);
    let cfg = AccelConfig {
        model: model.clone(),
        s,
        ..AccelConfig::paper_default()
    };

    let run = ArrayEngine::new(s).execute_ffn(&qffn, &x);
    let rep = scheduler::schedule_ffn_len(&cfg, s);
    let program = ffn_program(model.d_model, model.d_ff);
    let program_gemms = program
        .iter()
        .filter(|c| !matches!(c, Command::LayerNorm))
        .count();
    assert_eq!(run.stats.gemm_passes, 7);
    assert_eq!(sa_events(&rep), 7);
    assert_eq!(program_gemms, 7);

    let mut accel = Accelerator::new(cfg.clone());
    accel.load_ffn(qffn.clone());
    let (out, report) = accel.run_ffn(&x).unwrap();
    assert_eq!(out, run.out);
    let ran = PaperBackend::new(cfg).cycles(&BackendProgram::Isa(program), s);
    assert_eq!(report.schedule.cycles.get(), ran);
    assert_eq!(ran, 1654);
}

#[test]
fn engine_macs_match_analysis_counts() {
    let s = 16;
    let (qmha, qffn, codes) = quantized_blocks(s);
    let cfg = table1_mini();
    let mut engine = ArrayEngine::new(s);

    let run = engine.execute_mha(&qmha, &codes, &codes, None);
    let analytic = transformer_accel::accel::analysis::mha_macs(&cfg, s);
    // the engine pads K to 64 rows for the QK^T pass, so its MAC count
    // includes the zero-padding work: qk/av terms count 64 columns
    // instead of s
    let padded_qk_extra = (64 - s) as u64 * s as u64 * cfg.d_k() as u64 * cfg.h as u64;
    assert_eq!(run.stats.macs, analytic.total() + padded_qk_extra);

    let run = engine.execute_ffn(&qffn, &codes);
    assert_eq!(
        run.stats.macs,
        transformer_accel::accel::analysis::ffn_macs(&cfg, s)
    );
}

#[test]
fn scheduler_streams_at_least_the_engine_work() {
    // The scheduler's SA busy time (streams + blocking drains) must be
    // at least the work the array provably performs (stream cycles =
    // reduction depths), and no more than the engine's fully isolated
    // per-pass total.
    let s = 16;
    let (qmha, _, codes) = quantized_blocks(s);
    let mut engine = ArrayEngine::new(s);
    let run = engine.execute_mha(&qmha, &codes, &codes, None);
    let rep = scheduler::schedule_mha_cross(&accel_cfg(s), s, s);
    assert!(rep.sa_busy <= run.stats.isolated_cycles);
    assert!(rep.cycles <= run.stats.isolated_cycles + hwsim::cycles::Cycle(2048));
}
