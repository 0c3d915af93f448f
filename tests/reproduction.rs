//! Regression tests pinning the reproduction's headline numbers against
//! the paper's published values (see EXPERIMENTS.md for the narrative).

use transformer_accel::accel::area::{estimate_power, AreaModel};
use transformer_accel::accel::{scheduler, AccelConfig, SchedPolicy};
use transformer_accel::baseline::gpu::{ffn_trace, mha_trace, GpuModel};
use transformer_accel::transformer::config::ModelConfig;

#[test]
fn e4_cycle_counts_bracket_the_paper() {
    let mut cfg = AccelConfig::paper_default();
    let mha = scheduler::schedule_mha(&cfg).cycles.get();
    let ffn = scheduler::schedule_ffn(&cfg).cycles.get();
    // The cycle model's exact counts, so any drift fails here...
    assert_eq!((mha, ffn), (20_998, 35_846));
    // ...and where they sit against the published 21,344 MHA / 42,099 FFN.
    assert!((mha as f64 - 21_344.0).abs() / 21_344.0 < 0.02, "MHA {mha}");
    assert!((ffn as f64 - 42_099.0).abs() / 42_099.0 < 0.16, "FFN {ffn}");
    // And the optimistic (double-buffered) bound stays below the paper.
    cfg.sched = SchedPolicy::aggressive();
    assert!(scheduler::schedule_mha(&cfg).cycles.get() < 21_344);
}

#[test]
fn e7_table2_is_reproduced() {
    let model = AreaModel::new(AccelConfig::paper_default());
    let top = model.top();
    assert!((top.lut - 471_563.0).abs() / 471_563.0 < 0.005);
    assert!((top.ff - 217_859.0).abs() / 217_859.0 < 0.005);
    assert!((top.bram - 498.0).abs() < 5.0);
    assert_eq!(top.dsp, 129.0);
}

#[test]
fn e8_table3_speedups_have_the_published_shape() {
    let cfg = AccelConfig::paper_default();
    let gpu = GpuModel::v100_pytorch();
    let fpga_mha = scheduler::schedule_mha(&cfg).latency_us;
    let fpga_ffn = scheduler::schedule_ffn(&cfg).latency_us;
    let su_mha = gpu.latency_us(&mha_trace(&cfg.model, 64)) / fpga_mha;
    let su_ffn = gpu.latency_us(&ffn_trace(&cfg.model, 64)) / fpga_ffn;
    // paper: 14.6x and 3.4x
    assert!((su_mha - 14.6).abs() < 1.5, "MHA speed-up {su_mha}");
    assert!((su_ffn - 3.4).abs() < 1.0, "FFN speed-up {su_ffn}");
    assert!(su_mha > 3.0 * su_ffn, "MHA advantage must dwarf FFN's");
}

#[test]
fn e10_power_is_within_the_published_envelope() {
    let cfg = AccelConfig::paper_default();
    let p = estimate_power(&AreaModel::new(cfg.clone()), &cfg);
    assert!((p.total_w() - 16.7).abs() < 0.2, "{}", p.total_w());
}

#[test]
fn e2_eq3_conclusion_holds_for_every_table1_model() {
    for cfg in ModelConfig::table1() {
        let exact = transformer_accel::accel::analysis::qk_ratio(&cfg, 64);
        assert!(exact < 0.03, "{}: {exact}", cfg.name);
    }
}

#[test]
fn e6_fig7_savings_are_exactly_two_passes() {
    let mut cfg = AccelConfig::paper_default();
    use transformer_accel::accel::LayerNormMode::*;
    cfg.sched.layernorm = Straightforward;
    let sf = scheduler::schedule_ffn(&cfg).cycles.get();
    cfg.sched.layernorm = InlineMeanAndVariance;
    let opt = scheduler::schedule_ffn(&cfg).cycles.get();
    assert_eq!(sf - opt, 2 * 512, "two d_model passes saved");
}

#[test]
fn e5_softmax_hiding_condition_at_the_paper_point() {
    assert!(transformer_accel::accel::softmax_module::hides_behind_vw(
        64, 512
    ));
    // the schedule with and without the overlap must differ by the
    // per-head softmax exposure
    let mut cfg = AccelConfig::paper_default();
    let on = scheduler::schedule_mha(&cfg).cycles.get();
    cfg.sched.overlap_softmax = false;
    let off = scheduler::schedule_mha(&cfg).cycles.get();
    assert!(off > on, "{off} vs {on}");
}
