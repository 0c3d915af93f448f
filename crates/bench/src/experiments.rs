//! The experiments, one function each: every function computes its
//! rows and returns them as [`Artifact`]s (plus a few derived figures as
//! notes). The row structs fix the JSON keys, which are also the
//! rendered tables' headers.

use std::time::Instant;

use accel::area::{energy_uj, estimate_power, AreaModel, V100_TDP_W};
use accel::config::LayerNormMode;
use accel::{AccelConfig, SchedPolicy};
use baseline::gpu::{ffn_trace, mha_trace, GpuModel};
use quantized::{QuantScheme, SoftmaxMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serving::{ContinuousBatcher, EngineConfig, Request, Response};
use tensor::Mat;
use transformer::config::ModelConfig;

use crate::{json, Artifact, Output};

/// E1 — Table I, extended with the Fig. 4 panel counts that the
/// `d_model = 64h` pattern implies.
pub(crate) fn table1() -> Output {
    #[derive(Serialize)]
    struct Row {
        name: String,
        d_model: usize,
        d_ff: usize,
        h: usize,
        d_k: usize,
        follows_64h: bool,
        wg_panels: usize,
        w1_panels: usize,
        w2_panels: usize,
    }
    let rows: Vec<Row> = ModelConfig::table1()
        .into_iter()
        .map(|cfg| {
            let (wg, w1, w2) = accel::partition::expected_panel_counts(cfg.h);
            Row {
                d_k: cfg.d_k(),
                follows_64h: cfg.follows_64h_pattern(),
                name: cfg.name,
                d_model: cfg.d_model,
                d_ff: cfg.d_ff,
                h: cfg.h,
                wg_panels: wg,
                w1_panels: w1,
                w2_panels: w2,
            }
        })
        .collect();
    Output::new(vec![json("table1", &rows)])
}

/// E2 — Eq. (3): the share of MHA multiplications spent in `Q_i K_i^T`,
/// as the exact MAC ratio and as the paper's closed form
/// `s / (s + 256h² + 64)` (whose printed algebra carries extra dimension
/// factors — see DESIGN.md).
pub(crate) fn eq3_ratio() -> Output {
    use accel::analysis::{qk_ratio, qk_ratio_closed_form};
    #[derive(Serialize)]
    struct Row {
        model: String,
        h: usize,
        s: usize,
        exact_pct: f64,
        paper_closed_form_pct: f64,
    }
    let mut rows = Vec::new();
    for cfg in ModelConfig::table1() {
        for s in [16usize, 32, 64, 128, 256, 512] {
            rows.push(Row {
                model: cfg.name.clone(),
                h: cfg.h,
                s,
                exact_pct: 100.0 * qk_ratio(&cfg, s),
                paper_closed_form_pct: 100.0 * qk_ratio_closed_form(cfg.h, s),
            });
        }
    }
    Output::new(vec![json("eq3_ratio", &rows)])
}

/// E3 — Fig. 4: partitioned-GEMM equivalence over every Table-I
/// configuration, plus the `Q_i K_i^T` padding/tiling plan across
/// sequence lengths.
///
/// # Panics
///
/// Panics if any partitioned product differs from the monolithic GEMM.
pub(crate) fn partition_check() -> Output {
    use accel::partition::{partitioned_matmul_i8, qk_matmul_i8, qk_plan, weight_panels};
    use tensor::gemm;
    #[derive(Serialize)]
    struct Row {
        check: String,
        detail: String,
        ok: bool,
    }
    let mut rng = StdRng::seed_from_u64(0xF164);
    let mut rows = Vec::new();
    let s = 16; // small row count keeps the full-width GEMMs quick
    for cfg in ModelConfig::table1() {
        let specs = [
            ("W_G", cfg.d_model, cfg.d_model, cfg.h),
            ("W_1", cfg.d_model, cfg.d_ff, 4 * cfg.h),
            ("W_2", cfg.d_ff, cfg.d_model, cfg.h),
        ];
        for (name, rows_w, cols_w, want_panels) in specs {
            let x = tensor::init::uniform_i8(&mut rng, s, rows_w);
            let w = tensor::init::uniform_i8(&mut rng, rows_w, cols_w);
            let panels_ok = weight_panels(&w).len() == want_panels;
            let equal = partitioned_matmul_i8(&x, &w).expect("panel shapes")
                == gemm::matmul_i8(&x, &w).expect("GEMM shapes");
            rows.push(Row {
                check: format!("{}: {name}", cfg.name),
                detail: format!("{want_panels} panels, bit-identical GEMM"),
                ok: panels_ok && equal,
            });
        }
    }
    for seq in [7usize, 63, 64, 65, 128, 200] {
        let q = tensor::init::uniform_i8(&mut rng, seq, 64);
        let k = tensor::init::uniform_i8(&mut rng, seq, 64);
        let plan = qk_plan(seq);
        let equal = qk_matmul_i8(&q, &k).expect("QK shapes")
            == gemm::matmul_i8_nt(&q, &k).expect("QK shapes");
        rows.push(Row {
            check: format!("QK^T s={seq}"),
            detail: format!("pad to {} rows, {} tile(s)", plan.padded_k_rows, plan.tiles),
            ok: equal,
        });
    }
    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| !r.ok)
        .map(|r| r.check.as_str())
        .collect();
    assert!(failed.is_empty(), "partition check failed: {failed:?}");
    Output::new(vec![json("partition_check", &rows)])
}

/// E4 — Algorithm-1 cycle counts (paper: 21,344 MHA / 42,099 FFN at
/// s = 64, batch 1) under the published policy and the scheduling
/// ablations, bracketing the published numbers.
pub(crate) fn cycle_counts() -> Output {
    #[derive(Serialize)]
    struct Row {
        policy: String,
        mha_cycles: u64,
        ffn_cycles: u64,
        mha_sa_util: f64,
        ffn_sa_util: f64,
    }
    let rows: Vec<Row> = [
        (SchedPolicy::naive(), "naive (no optimisation)"),
        (SchedPolicy::paper(), "paper (softmax overlap + LN step1+2)"),
        (SchedPolicy::aggressive(), "aggressive (+ drain overlap)"),
    ]
    .into_iter()
    .map(|(policy, name)| {
        let mut cfg = AccelConfig::paper_default();
        cfg.sched = policy;
        let mha = accel::scheduler::schedule_mha(&cfg);
        let ffn = accel::scheduler::schedule_ffn(&cfg);
        Row {
            policy: name.into(),
            mha_cycles: mha.cycles.get(),
            ffn_cycles: ffn.cycles.get(),
            mha_sa_util: mha.sa_utilization,
            ffn_sa_util: ffn.sa_utilization,
        }
    })
    .collect();
    let paper = &rows[1];
    let vs = |got: u64, want: f64| 100.0 * (got as f64 - want) / want;
    let note = format!(
        "paper policy vs the paper: MHA {} vs 21,344 cycles ({:+.1}%), FFN {} vs 42,099 ({:+.1}%)",
        paper.mha_cycles,
        vs(paper.mha_cycles, 21_344.0),
        paper.ffn_cycles,
        vs(paper.ffn_cycles, 42_099.0),
    );
    Output::new(vec![json("cycle_counts", &rows)]).note(note)
}

/// E5 — Fig. 6: the scaled masked-softmax module: the accuracy of the
/// shift-add EXP/LN pipeline against exact FP32 softmax, and the module
/// latency against the Section-IV hiding condition (`V·W_Vi`).
pub(crate) fn softmax_module() -> Output {
    use accel::softmax_module::{hides_behind_vw, latency_after_last_input};
    use fixedmath::explog::{exp_unit_max_abs_error, exp_unit_pwl2_max_abs_error};
    use quantized::softmax::scaled_masked_softmax;
    #[derive(Serialize)]
    struct AccuracyRow {
        s: usize,
        masked: bool,
        max_code_err: i32,
        mean_abs_code_err: f64,
        row_sum_min: i32,
        row_sum_max: i32,
    }
    #[derive(Serialize)]
    struct LatencyRow {
        s: usize,
        latency_cycles: u64,
        vw_stream_plus_drain: u64,
        hidden: bool,
    }
    let accuracy = |s: usize, masked: bool, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Mat::from_fn(s, s, |_, _| rng.random_range(-80_000..80_000i32));
        let mask = masked.then(|| tensor::ops::causal_mask(s));
        let hw = scaled_masked_softmax(&d, 5e-5, 64, mask.as_ref(), SoftmaxMode::Hardware);
        let sw = scaled_masked_softmax(&d, 5e-5, 64, mask.as_ref(), SoftmaxMode::Fp32);
        let errs: Vec<i32> = hw
            .as_slice()
            .iter()
            .zip(sw.as_slice())
            .map(|(&a, &b)| (i32::from(a) - i32::from(b)).abs())
            .collect();
        let sums: Vec<i32> = (0..s)
            .map(|r| hw.row(r).iter().map(|&x| i32::from(x)).sum())
            .collect();
        AccuracyRow {
            s,
            masked,
            max_code_err: errs.iter().copied().max().unwrap_or(0),
            mean_abs_code_err: errs.iter().map(|&e| f64::from(e)).sum::<f64>() / hw.len() as f64,
            row_sum_min: sums.iter().copied().min().unwrap_or(i32::MAX),
            row_sum_max: sums.iter().copied().max().unwrap_or(i32::MIN),
        }
    };
    let acc: Vec<AccuracyRow> = [16usize, 64, 128]
        .into_iter()
        .flat_map(|s| [accuracy(s, false, 7), accuracy(s, true, 8)])
        .collect();
    let d_model = 512;
    let lat: Vec<LatencyRow> = [16usize, 32, 64, 128, 256, 512]
        .into_iter()
        .map(|s| LatencyRow {
            s,
            latency_cycles: latency_after_last_input(s).get(),
            vw_stream_plus_drain: (d_model + 64) as u64,
            hidden: hides_behind_vw(s, d_model),
        })
        .collect();
    Output::new(vec![
        json("softmax_module_accuracy", &acc),
        json("softmax_module_latency", &lat),
    ])
    .note(format!(
        "EXP unit max abs error over [-16, 0]: {:.4} (the paper's 1-segment 2^f), {:.4} (2-segment PWL ablation)",
        exp_unit_max_abs_error(),
        exp_unit_pwl2_max_abs_error()
    ))
}

/// E6 — Fig. 7: the LayerNorm latency optimisation, as the module's
/// added latency per variant and as the end-to-end ResBlock cycles.
pub(crate) fn layernorm_latency() -> Output {
    use accel::layernorm_module::{added_latency, output_cycles};
    #[derive(Serialize)]
    struct Row {
        variant: String,
        added_latency_cycles: u64,
        output_cycles: u64,
        mha_total_cycles: u64,
        ffn_total_cycles: u64,
    }
    let d_model = 512;
    let rows: Vec<Row> = [
        (LayerNormMode::Straightforward, "straightforward"),
        (LayerNormMode::InlineMean, "step one (inline E(G))"),
        (
            LayerNormMode::InlineMeanAndVariance,
            "step one + two (Eq. 9)",
        ),
    ]
    .into_iter()
    .map(|(mode, name)| {
        let mut cfg = AccelConfig::paper_default();
        cfg.sched.layernorm = mode;
        Row {
            variant: name.into(),
            added_latency_cycles: added_latency(mode, d_model).get(),
            output_cycles: output_cycles(d_model).get(),
            mha_total_cycles: accel::scheduler::schedule_mha(&cfg).cycles.get(),
            ffn_total_cycles: accel::scheduler::schedule_ffn(&cfg).cycles.get(),
        }
    })
    .collect();
    let saved = rows[0].mha_total_cycles - rows[2].mha_total_cycles;
    Output::new(vec![json("layernorm_latency", &rows)]).note(format!(
        "end-to-end saving of the full optimisation on the MHA ResBlock: {saved} cycles"
    ))
}

/// E7/E10 — Table II: utilization of the accelerator and its primary
/// modules on the VU13P from the calibrated area model, plus the
/// 200 MHz / 16.7 W operating point.
pub(crate) fn table2() -> Output {
    #[derive(Serialize)]
    struct Row {
        name: String,
        lut: f64,
        ff: f64,
        bram: f64,
        dsp: f64,
    }
    let cfg = AccelConfig::paper_default();
    let model = AreaModel::new(cfg.clone());
    let rows: Vec<Row> = model
        .table2()
        .into_iter()
        .map(|m| Row {
            name: m.name,
            lut: m.resources.lut,
            ff: m.resources.ff,
            bram: m.resources.bram,
            dsp: m.resources.dsp,
        })
        .collect();
    let device = hwsim::resources::Device::vu13p();
    let (l, f, b, d) = device.utilization_pct(&model.top());
    // The Fig. 5 activation buffers live in URAM, a Vivado column the
    // paper's table does not have.
    let dm = accel::datamem::plan(&cfg);
    let p = estimate_power(&model, &cfg);
    Output::new(vec![json("table2", &rows)])
        .note(format!(
            "Top utilization of {}: {l:.1}% LUT, {f:.1}% FF, {b:.1}% BRAM, {d:.1}% DSP",
            device.name
        ))
        .note(format!(
            "data memory (Fig. 5 activation buffers, URAM): {} blocks of {} ({:.1} Mbit)",
            dm.total_uram,
            accel::datamem::VU13P_URAM,
            dm.total_bits as f64 / 1e6
        ))
        .note(format!(
            "operating point: {:.0} MHz, {:.1} W ({:.1} W dynamic + {:.1} W static); paper 16.7 W (13.3 + 3.4)",
            cfg.clock.as_mhz(),
            p.total_w(),
            p.dynamic_w,
            p.static_w
        ))
}

/// E8 — Table III: FPGA vs GPU latency and speed-up for both ResBlocks
/// (batch 1, s = 64, 200 MHz): the cycle-accurate schedule against the
/// calibrated V100/PyTorch model.
pub(crate) fn table3() -> Output {
    #[derive(Serialize)]
    struct Row {
        layer: String,
        fpga_cycles: u64,
        fpga_us: f64,
        gpu_us: f64,
        speedup: f64,
        paper_fpga_us: f64,
        paper_gpu_us: f64,
        paper_speedup: f64,
    }
    let cfg = AccelConfig::paper_default();
    let gpu = GpuModel::v100_pytorch();
    let layers = [
        (
            "MHA ResBlock",
            accel::scheduler::schedule_mha(&cfg),
            mha_trace(&cfg.model, cfg.s),
            (106.7, 1557.8, 14.6),
        ),
        (
            "FFN ResBlock",
            accel::scheduler::schedule_ffn(&cfg),
            ffn_trace(&cfg.model, cfg.s),
            (210.5, 713.4, 3.4),
        ),
    ];
    let rows: Vec<Row> = layers
        .into_iter()
        .map(
            |(layer, fpga, trace, (paper_fpga_us, paper_gpu_us, paper_speedup))| {
                let gpu_us = gpu.latency_us(&trace);
                Row {
                    layer: layer.into(),
                    fpga_cycles: fpga.cycles.get(),
                    fpga_us: fpga.latency_us,
                    gpu_us,
                    speedup: gpu_us / fpga.latency_us,
                    paper_fpga_us,
                    paper_gpu_us,
                    paper_speedup,
                }
            },
        )
        .collect();
    // Energy: the FPGA's modelled power against a 250 W-class V100.
    let p = estimate_power(&AreaModel::new(cfg.clone()), &cfg);
    let notes = rows
        .iter()
        .map(|r| {
            let fpga = energy_uj(p.total_w(), r.fpga_us);
            let gpu = energy_uj(V100_TDP_W, r.gpu_us);
            format!(
                "energy, {}: FPGA {:.2} mJ vs GPU {:.1} mJ ({:.0}x)",
                r.layer,
                fpga / 1000.0,
                gpu / 1000.0,
                gpu / fpga
            )
        })
        .collect();
    Output {
        artifacts: vec![json("table3", &rows)],
        notes,
    }
}

/// E9 — Section V-A: the two-step INT8 quantization study. The paper
/// trains Transformer-base on IWSLT'16 de-en (not redistributable);
/// this trains a small Transformer on two synthetic corpora — pure
/// reordering and the SVO→SOV clause task — quantizes it with the same
/// two-step recipe and scores corpus BLEU. Trains for about a minute in
/// release.
pub(crate) fn quantization() -> Output {
    use quantized::QuantSeq2Seq;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen};
    use transformer::train::{evaluate, study_config, train, TrainSpec};
    #[derive(Serialize)]
    struct Row {
        task: String,
        step: String,
        bleu: f64,
        exact_match: f32,
        paper_bleu: f64,
    }
    let cfg = study_config();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for task in [Task::Reverse, Task::Grammar] {
        eprintln!("training '{}' on the {} task...", cfg.name, task.name());
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(task, cfg.vocab, 4, 10);
        let spec = TrainSpec {
            steps: 1200,
            batch: 8,
            warmup: 150,
            lr_scale: 0.5,
            ..TrainSpec::default()
        };
        let report = train(&mut model, &gen, &spec);
        notes.push(format!(
            "{}: {} steps of {} (d_model = {}, h = {}, {}+{} layers), loss {:.3} -> {:.3}",
            task.name(),
            spec.steps,
            cfg.name,
            cfg.d_model,
            cfg.h,
            cfg.n_layers,
            cfg.n_layers,
            report.losses[0],
            report.final_loss
        ));
        let mut eval_rng = StdRng::seed_from_u64(0xE7A1);
        let test = gen.corpus(64, &mut eval_rng);
        let calib = gen.corpus(16, &mut eval_rng);
        let fp32 = evaluate(&mut model, &test);
        let q1 = QuantSeq2Seq::from_trained(&model, &calib, SoftmaxMode::Fp32);
        let e1 = q1.evaluate_parallel(&test, 8);
        let mut q2 = q1.clone();
        q2.set_softmax_mode(SoftmaxMode::Hardware);
        let e2 = q2.evaluate_parallel(&test, 8);
        for (step, (bleu, exact_match), paper_bleu) in [
            ("FP32", (fp32.bleu, fp32.exact_match), 23.88),
            (
                "INT8 + FP32 softmax (step 1)",
                (e1.bleu, e1.exact_match),
                23.48,
            ),
            (
                "INT8 + hardware softmax (step 2)",
                (e2.bleu, e2.exact_match),
                23.57,
            ),
        ] {
            rows.push(Row {
                task: task.name().into(),
                step: step.into(),
                bleu,
                exact_match,
                paper_bleu,
            });
        }
    }
    Output {
        artifacts: vec![json("quantization", &rows)],
        notes,
    }
}

/// E11 — cycle counts, resources and power when the accelerator is
/// re-provisioned for every Table-I model and for longer sequences.
pub(crate) fn scaling() -> Output {
    #[derive(Serialize)]
    struct Row {
        model: String,
        s: usize,
        mha_cycles: u64,
        ffn_cycles: u64,
        mha_us: f64,
        ffn_us: f64,
        lut: f64,
        bram: f64,
        power_w: f64,
        fits_vu13p: bool,
    }
    let mut rows = Vec::new();
    for model in ModelConfig::table1() {
        for s in [64usize, 128] {
            let mut cfg = AccelConfig::paper_default();
            cfg.model = model.clone();
            cfg.s = s;
            let mha = accel::scheduler::schedule_mha(&cfg);
            let ffn = accel::scheduler::schedule_ffn(&cfg);
            let area = AreaModel::new(cfg.clone());
            let top = area.top();
            rows.push(Row {
                model: model.name.clone(),
                s,
                mha_cycles: mha.cycles.get(),
                ffn_cycles: ffn.cycles.get(),
                mha_us: mha.latency_us,
                ffn_us: ffn.latency_us,
                lut: top.lut,
                bram: top.bram,
                power_w: estimate_power(&area, &cfg).total_w(),
                fits_vu13p: area.fits_vu13p(),
            });
        }
    }
    Output::new(vec![json("scaling", &rows)])
}

/// E12 — full-model inference latency (s_src = s_tgt = 64) projected
/// from the per-ResBlock models, with the weight-bandwidth stalls a
/// multi-layer run introduces.
pub(crate) fn full_inference() -> Output {
    use accel::pipeline::{encoder_layer, full_inference, PipelineConfig};
    #[derive(Serialize)]
    struct Row {
        model: String,
        bandwidth_b_per_cycle: u64,
        layer_stall_cycles: u64,
        encoder_us: f64,
        decoder_us: f64,
        sentence_us: f64,
    }
    let mut rows = Vec::new();
    for model in [
        ModelConfig::transformer_base(),
        ModelConfig::transformer_big(),
    ] {
        for bw in [32u64, 64, 128, 256] {
            let cfg = AccelConfig {
                model: model.clone(),
                ..AccelConfig::paper_default()
            };
            let pcfg = PipelineConfig {
                weight_bandwidth_bytes_per_cycle: bw,
            };
            let rep = full_inference(&cfg, &pcfg, 64, 64);
            rows.push(Row {
                model: model.name.clone(),
                bandwidth_b_per_cycle: bw,
                layer_stall_cycles: encoder_layer(&cfg, &pcfg).weight_stall.get(),
                encoder_us: cfg.clock.cycles_to_us(rep.encoder_cycles),
                decoder_us: cfg.clock.cycles_to_us(rep.decoder_cycles),
                sentence_us: rep.total_us,
            });
        }
    }
    Output::new(vec![json("full_inference", &rows)]).note(format!(
        "arithmetic intensity of one base layer at s = 64: {:.1} MAC/byte",
        accel::pipeline::layer_arithmetic_intensity(&AccelConfig::paper_default())
    ))
}

/// E13 — per-tensor (the paper's) vs per-channel weight quantization on
/// both ResBlocks with shared activation scales, then on a linear layer
/// with one dominant output column (the skew trained models drift to).
pub(crate) fn quant_scheme() -> Output {
    use quantized::calib::{FfnScales, MhaScales};
    use quantized::{QuantFfnResBlock, QuantMhaResBlock};
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;
    #[derive(Serialize)]
    struct Row {
        block: String,
        scheme: String,
        rms_error: f64,
        max_error: f64,
        sqnr_db: f64,
    }
    /// RMS, max and SQNR of `got` against `want`, averaged (max: the
    /// largest) over the pairs.
    fn row(block: &str, scheme: &str, pairs: &[(Mat<f32>, Mat<f32>)]) -> Row {
        let (mut rms, mut max, mut sqnr) = (0.0, 0f64, 0.0);
        for (got, want) in pairs {
            rms += f64::from(tensor::ops::mse(got, want).expect("same shapes")).sqrt();
            let worst = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .map(|(a, b)| f64::from((a - b).abs()))
                .fold(0.0, f64::max);
            max = max.max(worst);
            sqnr += quantized::sqnr::sqnr_db(want, got);
        }
        let n = pairs.len() as f64;
        Row {
            block: block.into(),
            scheme: scheme.into(),
            rms_error: rms / n,
            max_error: max,
            sqnr_db: sqnr / n,
        }
    }
    let schemes = [
        (QuantScheme::PerTensor, "per-tensor (paper)"),
        (QuantScheme::PerChannel, "per-channel"),
    ];
    let cfg = ModelConfig {
        name: "ablation".into(),
        d_model: 128,
        d_ff: 512,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    };
    let s = 16;
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let mut mha = MhaResBlock::new(&cfg, &mut rng);
    let mut ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..8)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let test: Vec<Mat<f32>> = (0..8)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();

    // Shared activation scales so the comparison isolates the weight
    // granularity: calibrate once through the per-tensor constructor.
    let base = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let (q, k, v, _) = base.projections();
    let scales = MhaScales {
        x_q: q.in_scale(),
        x_kv: k.in_scale(),
        q: q.out_scale(),
        k: k.out_scale(),
        v: v.out_scale(),
        p: base.p_scale(),
        out: base.out_scale(),
    };
    let mut rows = Vec::new();
    for (scheme, name) in schemes {
        let qmha = QuantMhaResBlock::from_f32_with_scales_scheme(
            &mha,
            scales,
            SoftmaxMode::Hardware,
            scheme,
        );
        let pairs: Vec<_> = test
            .iter()
            .map(|x| (qmha.forward_f32(x, x, None), mha.forward(x, x, x, None)))
            .collect();
        rows.push(row("MHA ResBlock", name, &pairs));
    }
    let base = QuantFfnResBlock::from_f32(&ffn, &calib);
    let fscales = FfnScales {
        x: base.sublayers().0.in_scale(),
        hidden: base.sublayers().0.out_scale(),
        out: base.out_scale(),
    };
    for (scheme, name) in schemes {
        let qffn = QuantFfnResBlock::from_f32_with_scales_scheme(&ffn, fscales, scheme);
        let pairs: Vec<_> = test
            .iter()
            .map(|x| (qffn.forward_f32(x), ffn.forward(x)))
            .collect();
        rows.push(row("FFN ResBlock", name, &pairs));
    }

    // Stress case: one output column 80x the others, where per-tensor
    // quantization crushes the resolution of every other column.
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let mut w = tensor::init::normal(&mut rng, 64, 16, 0.05);
    for r in 0..64 {
        w[(r, 0)] *= 80.0;
    }
    let lin = transformer::linear::Linear::from_parts("skew", w, vec![0.0; 16]);
    let x = tensor::init::normal(&mut rng, 8, 64, 1.0);
    let want = quantized::calib::linear_f32(&lin, &x);
    let in_s = fixedmath::quant::QuantParams::from_max_abs(tensor::ops::max_abs(&x));
    let out_s = fixedmath::quant::QuantParams::from_max_abs(tensor::ops::max_abs(&want));
    for (scheme, name) in schemes {
        let q = quantized::QLinear::from_f32_scheme(&lin, in_s, out_s, scheme);
        let got = q.dequantize_output(&q.forward(&q.quantize_input(&x)));
        rows.push(row("skewed linear (stress)", name, &[(got, want.clone())]));
    }
    Output::new(vec![json("quant_scheme", &rows)])
}

/// E14 — the batch-size crossover behind Table III: the calibrated GPU
/// model (with a *modelled* efficiency ramp, see
/// `baseline::gpu::GpuModel::efficiency_at_batch`) against the
/// fixed-latency accelerator. The batch-1 row is the calibrated
/// Table III.
pub(crate) fn gpu_crossover() -> Output {
    #[derive(Serialize)]
    struct Row {
        batch: usize,
        gpu_mha_us_per_sentence: f64,
        gpu_ffn_us_per_sentence: f64,
        fpga_mha_us: f64,
        fpga_ffn_us: f64,
        mha_speedup: f64,
        ffn_speedup: f64,
    }
    let cfg = AccelConfig::paper_default();
    let gpu = GpuModel::v100_pytorch();
    let fpga_mha = accel::scheduler::schedule_mha(&cfg).latency_us;
    let fpga_ffn = accel::scheduler::schedule_ffn(&cfg).latency_us;
    let mha_t = mha_trace(&cfg.model, cfg.s);
    let ffn_t = ffn_trace(&cfg.model, cfg.s);
    let rows: Vec<Row> = [1usize, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|batch| {
            let gm = gpu.latency_us_per_sentence(&mha_t, batch);
            let gf = gpu.latency_us_per_sentence(&ffn_t, batch);
            Row {
                batch,
                gpu_mha_us_per_sentence: gm,
                gpu_ffn_us_per_sentence: gf,
                fpga_mha_us: fpga_mha,
                fpga_ffn_us: fpga_ffn,
                mha_speedup: gm / fpga_mha,
                ffn_speedup: gf / fpga_ffn,
            }
        })
        .collect();
    let cross = |speedup: fn(&Row) -> f64| {
        rows.iter()
            .find(|r| speedup(r) < 1.0)
            .map_or("never in this sweep".into(), |r| {
                format!("at batch {}", r.batch)
            })
    };
    let note = format!(
        "the GPU's per-sentence latency first beats the FPGA's: MHA {}, FFN {}",
        cross(|r| r.mha_speedup),
        cross(|r| r.ffn_speedup)
    );
    Output::new(vec![json("gpu_crossover", &rows)]).note(note)
}

/// E15 — the Verilog skeletons and golden stimulus/response vectors
/// from the bit-exact Rust units, under `rtl/`.
pub(crate) fn emit_rtl() -> Output {
    let files = accel::rtl::emit_all(64);
    Output::new(
        files
            .into_iter()
            .map(|(file, text)| Artifact::Rtl(file, text))
            .collect(),
    )
}

/// E16 — design-space Pareto analysis on the VU13P: every Table-I
/// model on arrays of 16–256 rows (each running a workload as long as
/// its array is tall, so only the `fits` column compares them), and the
/// latency-vs-LUT frontier of the fixed 64-token workload on arrays of
/// 64–256 rows.
pub(crate) fn pareto() -> Output {
    use accel::sweep::{evaluate_point_fixed_workload, pareto_latency_vs_lut, sweep, DesignPoint};
    #[derive(Serialize)]
    struct Out {
        grid: Vec<DesignPoint>,
        frontier_fixed_s64: Vec<DesignPoint>,
    }
    let grid = sweep(&ModelConfig::table1(), &[16, 32, 64, 128, 256]);
    let base = ModelConfig::transformer_base();
    let fixed: Vec<DesignPoint> = [64usize, 96, 128, 192, 256]
        .into_iter()
        .map(|array_s| evaluate_point_fixed_workload(&base, array_s, 64))
        .collect();
    let frontier_fixed_s64 = pareto_latency_vs_lut(&fixed);
    Output::new(vec![json(
        "pareto",
        &Out {
            grid,
            frontier_fixed_s64,
        },
    )])
}

/// E18 — ABFT checker overhead on the continuous-batching decode path:
/// the same paper-shape decode workload with the checker off and on
/// (best of three runs each). Asserts that the checker changes no
/// output bit, detects nothing without a fault plan, and costs under
/// 20 % of tokens/s (target < 10 %).
///
/// # Panics
///
/// Panics if any of those assertions fails.
pub(crate) fn faults_overhead() -> Output {
    const N_REQUESTS: usize = 16;
    // `ignore_eos`, so both settings decode exactly this many tokens.
    const MAX_NEW: usize = 16;
    // A mid-size batch, where the weight GEMMs dominate.
    const MAX_BATCH: usize = 8;
    const REPS: usize = 3;
    #[derive(Serialize)]
    struct CheckerPoint {
        checker: bool,
        tokens: usize,
        /// Best-of-`REPS` wall time for the full decode loop.
        elapsed_s: f64,
        tokens_per_sec: f64,
        /// ABFT row checks performed (one per QLinear GEMM pass).
        checked: u64,
        /// Must stay 0: no fault plan is installed.
        detected: u64,
    }
    #[derive(Serialize)]
    struct FaultsBench {
        model: String,
        d_model: usize,
        d_ff: usize,
        heads: usize,
        n_layers: usize,
        requests: usize,
        tokens_per_request: usize,
        max_batch: usize,
        off: CheckerPoint,
        on: CheckerPoint,
        overhead_pct: f64,
    }
    let cfg = ModelConfig {
        name: "Transformer-base-2L".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: 64,
    };
    let mut rng = StdRng::seed_from_u64(0xD0_0DE);
    let fp32 = transformer::model::Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = transformer::tasks::TaskGen::new(transformer::tasks::Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0xCA11B));
    let q = quantized::QuantSeq2Seq::from_trained(&fp32, &calib, SoftmaxMode::Hardware);
    let srcs: Vec<Vec<usize>> = gen
        .corpus(N_REQUESTS, &mut StdRng::seed_from_u64(0xF00D))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    // One full decode of the workload without a fault plan: the
    // responses, the wall-clock seconds and the checker counters.
    let run_once = |checker: bool| -> (Vec<Response>, f64, u64, u64) {
        let mut engine = ContinuousBatcher::new(
            &q,
            EngineConfig {
                max_batch: MAX_BATCH,
                ignore_eos: true,
                ..EngineConfig::default()
            },
        )
        .expect("nonzero max_batch")
        .with_checker(checker);
        for (id, src) in srcs.iter().enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), MAX_NEW))
                .expect("valid request");
        }
        let t0 = Instant::now();
        let responses = engine.run_to_completion();
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            responses.len() == N_REQUESTS && responses.iter().all(|r| r.tokens.len() == MAX_NEW)
        );
        let stats = engine.stats();
        (
            responses,
            elapsed,
            stats.checked as u64,
            stats.detected as u64,
        )
    };
    let measure = |checker: bool| {
        let best = (0..REPS)
            .map(|_| run_once(checker))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("REPS > 0");
        let (responses, elapsed_s, checked, detected) = best;
        let tokens = N_REQUESTS * MAX_NEW;
        let point = CheckerPoint {
            checker,
            tokens,
            elapsed_s,
            tokens_per_sec: tokens as f64 / elapsed_s,
            checked,
            detected,
        };
        (responses, point)
    };
    let (base_out, off) = measure(false);
    let (checked_out, on) = measure(true);
    assert_eq!(base_out, checked_out, "checker-on run changed output bits");
    assert_eq!(off.checked, 0, "checker-off run must not run the checker");
    assert!(on.checked > 0, "checker-on run must exercise the checker");
    assert_eq!(on.detected, 0, "fault-free run must detect nothing");
    let overhead_pct = 100.0 * (1.0 - on.tokens_per_sec / off.tokens_per_sec);
    assert!(
        overhead_pct < 20.0,
        "ABFT checker overhead {overhead_pct:.1}% exceeds the 20% ceiling (target < 10%)"
    );
    let report = FaultsBench {
        model: cfg.name.clone(),
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        heads: cfg.h,
        n_layers: cfg.n_layers,
        requests: N_REQUESTS,
        tokens_per_request: MAX_NEW,
        max_batch: MAX_BATCH,
        off,
        on,
        overhead_pct,
    };
    Output::new(vec![json("BENCH_faults", &report)])
}

/// E19 — cross-backend design-space exploration: the paper's full-size
/// systolic array, a KV260-class tiled array and an FTRANS-style
/// block-circulant FFN unit, lowered from the same graph IR and placed
/// on a cycles × LUT × accuracy Pareto front.
pub(crate) fn backends() -> Output {
    use accel::explorer::{explore_default, ExplorerReport};
    let report = explore_default();
    let note = format!(
        "front backends: MHA {:?}, FFN {:?}",
        ExplorerReport::front_backends(&report.mha_front),
        ExplorerReport::front_backends(&report.ffn_front),
    );
    Output::new(vec![json("BENCH_backends", &report)]).note(note)
}
