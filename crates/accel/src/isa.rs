//! The accelerator's command stream: Algorithm 1 as an explicit
//! instruction sequence, and the only place its schedule is written
//! down.
//!
//! A real implementation of the paper's design has a small control unit
//! stepping through a static schedule; this module makes that program
//! first-class and gives it its two semantics:
//!
//! * [`mha_program`] / [`ffn_program`] — the instruction list for one
//!   ResBlock, lowered from the operator graph;
//! * the **bit-exact interpreter**,
//!   [`crate::engine::ArrayEngine::run_mha`] /
//!   [`crate::engine::ArrayEngine::run_ffn`], which every backend that
//!   executes the stream calls: it runs each GEMM command as passes
//!   through the systolic array (outputs equal
//!   [`quantized::QuantMhaResBlock::forward`] exactly);
//! * the **timing walk** behind [`schedule_program`] and every
//!   [`crate::scheduler`] report — the *only* schedule: Algorithm 1's
//!   dependency edges and the `overlap_*` policy switches are read
//!   there and nowhere else, so a cycle count cannot drift from the
//!   program that was run.
//!
//! One program, two semantics — the strongest form of the workspace's
//! "numerics and timing never diverge" rule.

use hwsim::cycles::Cycle;
use hwsim::timeline::{EventId, Timeline, UnitId};
use serde::Serialize;

use crate::config::AccelConfig;
use crate::layernorm_module;
use crate::partition::PANEL_COLS;
use crate::softmax_module;

/// One command of the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Command {
    /// `Temp1 = Q · W_Q[head] + bias` (Algorithm 1 line 3).
    ProjectQ {
        /// Head index.
        head: usize,
    },
    /// `Temp2 = K · W_K[head] + bias` (line 4).
    ProjectK {
        /// Head index.
        head: usize,
    },
    /// One output tile of `Temp1 × Temp2ᵀ` (line 5 / Section III).
    ScoreTile {
        /// Head index.
        head: usize,
        /// Output-column tile index.
        tile: usize,
    },
    /// The softmax module over this head's score matrix (line 6, the
    /// overlapped nonlinearity).
    Softmax {
        /// Head index.
        head: usize,
    },
    /// `Temp2 = V · W_V[head] + bias` (line 6).
    ProjectV {
        /// Head index.
        head: usize,
    },
    /// `P[head] = softmax_output × Temp2` (line 7).
    Context {
        /// Head index.
        head: usize,
    },
    /// `G[panel] = P · W_G[panel] + bias + residual` (line 10).
    OutputPanel {
        /// Output panel index.
        panel: usize,
    },
    /// `P[panel] = ReLU(X · W_1[panel] + b)` (line 16).
    FfnHidden {
        /// Hidden panel index.
        panel: usize,
    },
    /// `G[panel] = P · W_2[panel] + b + X[panel]` (line 19).
    FfnOutput {
        /// Output panel index.
        panel: usize,
    },
    /// The LayerNorm module (lines 12/21).
    LayerNorm,
}

/// The Algorithm-1 command stream for the MHA ResBlock at key/value
/// length `s_kv` — lowered from the [`graph::mha_graph`] dataflow by
/// [`crate::exec::lower_mha`], so the schedule and every software
/// backend share one operator-graph description. The lowering only
/// reads the graph's *shape* (`h` and the node order), so `d_model` is
/// pinned to `h` panels of 64.
pub fn mha_program(h: usize, s_kv: usize) -> Vec<Command> {
    let g = graph::mha_graph(&graph::GraphConfig {
        d_model: h * PANEL_COLS,
        d_ff: 0,
        h,
    });
    crate::exec::lower_mha(&g, s_kv)
}

/// The Algorithm-1 command stream for the FFN ResBlock — lowered from
/// the [`graph::ffn_graph`] dataflow by [`crate::exec::lower_ffn`].
pub fn ffn_program(d_model: usize, d_ff: usize) -> Vec<Command> {
    let g = graph::ffn_graph(&graph::GraphConfig {
        d_model,
        d_ff,
        h: 1,
    });
    crate::exec::lower_ffn(&g)
}

/// The one Algorithm-1 timing walk: maps every command onto the
/// four-unit timeline (SA, output drain, Softmax, LayerNorm) under the
/// configuration's scheduling policy and returns it with the SA's unit
/// id. The dependency edges written here — score tiles wait for both
/// projections, the softmax for the last tile, `V W_V` for the softmax
/// unless it overlaps, the context for both, every `G`/`FfnOutput` panel
/// for the whole `P`, LayerNorm for the last panel — exist nowhere else;
/// [`schedule_program`] and [`crate::scheduler`] only read the result.
pub(crate) fn walk(cfg: &AccelConfig, program: &[Command], s_kv: usize) -> (Timeline, UnitId) {
    let d_model = cfg.model.d_model;
    let d_ff = cfg.model.d_ff;
    let d_k = cfg.model.d_k();
    let h = cfg.model.h;
    let pol = cfg.sched;
    let mut tl = Timeline::new();
    let sa = tl.add_unit("systolic_array");
    let drain_u = tl.add_unit("output_drain");
    let sm_u = tl.add_unit("softmax");
    let ln_u = tl.add_unit("layernorm");

    // One GEMM pass: a `k`-cycle stream through the array plus the
    // 64-cycle column-serial drain, which blocks the array unless the
    // accumulators are double-buffered. Returns the event whose end
    // marks the *drained* result.
    let drain_cycles = Cycle(PANEL_COLS as u64);
    let gemm = |tl: &mut Timeline, label: String, k: usize, deps: &[EventId]| -> EventId {
        if pol.overlap_drain {
            let stream = tl.schedule(sa, format!("{label}:stream"), Cycle(k as u64), deps);
            tl.schedule(drain_u, format!("{label}:drain"), drain_cycles, &[stream])
        } else {
            tl.schedule(sa, label, Cycle(k as u64) + drain_cycles, deps)
        }
    };

    let mut proj_q: Vec<Option<EventId>> = vec![None; h];
    let mut proj_k: Vec<Option<EventId>> = vec![None; h];
    let mut last_score: Vec<Option<EventId>> = vec![None; h];
    let mut softmax_ev: Vec<Option<EventId>> = vec![None; h];
    let mut proj_v: Vec<Option<EventId>> = vec![None; h];
    // The drained `P` panels (MHA contexts or FFN hidden panels) every
    // output panel's reduction spans.
    let mut p_panels: Vec<EventId> = Vec::new();
    let mut last_out: Option<EventId> = None;

    for cmd in program {
        match *cmd {
            Command::ProjectQ { head } => {
                proj_q[head] = Some(gemm(&mut tl, format!("h{head}:QWq"), d_model, &[]));
            }
            Command::ProjectK { head } => {
                proj_k[head] = Some(gemm(&mut tl, format!("h{head}:KWk"), d_model, &[]));
            }
            Command::ScoreTile { head, tile } => {
                let deps = [proj_q[head].expect("order"), proj_k[head].expect("order")];
                last_score[head] = Some(gemm(&mut tl, format!("h{head}:QK^T.{tile}"), d_k, &deps));
            }
            Command::Softmax { head } => {
                softmax_ev[head] = Some(tl.schedule(
                    sm_u,
                    format!("h{head}:softmax"),
                    softmax_module::latency_after_last_input(s_kv),
                    &[last_score[head].expect("order")],
                ));
            }
            Command::ProjectV { head } => {
                // In parallel with the softmax when the policy allows
                // (line 6, the paper's key overlap).
                let deps: &[EventId] = if pol.overlap_softmax {
                    &[]
                } else {
                    &[softmax_ev[head].expect("order")]
                };
                proj_v[head] = Some(gemm(&mut tl, format!("h{head}:VWv"), d_model, deps));
            }
            Command::Context { head } => {
                let deps = [
                    softmax_ev[head].expect("order"),
                    proj_v[head].expect("order"),
                ];
                p_panels.push(gemm(&mut tl, format!("h{head}:PV"), s_kv, &deps));
            }
            Command::OutputPanel { panel } => {
                last_out = Some(gemm(&mut tl, format!("G{panel}"), d_model, &p_panels));
            }
            // ReLU fuses into the bias adders on the drain path (Fig. 5).
            Command::FfnHidden { panel } => {
                p_panels.push(gemm(&mut tl, format!("P{panel}"), d_model, &[]));
            }
            Command::FfnOutput { panel } => {
                last_out = Some(gemm(&mut tl, format!("G{panel}"), d_ff, &p_panels));
            }
            // The accumulators ran inline with the `G` drains (per the
            // policy); the tail starts at the last `G` column.
            Command::LayerNorm => {
                tl.schedule(
                    ln_u,
                    "layernorm",
                    layernorm_module::total_tail(pol.layernorm, d_model),
                    &[last_out.expect("order")],
                );
            }
        }
    }
    (tl, sa)
}

/// Timing interpretation of a program: the makespan of the one timing
/// walk under the configuration's scheduling policy (`s_kv` = key/value
/// length, the `Context` reduction depth and the softmax width).
pub fn schedule_program(cfg: &AccelConfig, program: &[Command], s_kv: usize) -> Cycle {
    walk(cfg, program, s_kv).0.makespan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArrayEngine;
    use quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::simd::Int8Kernel;
    use tensor::{gemm, Mat, Policy};
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    fn blocks(cfg: &ModelConfig, s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, Mat<i8>) {
        let mut rng = StdRng::seed_from_u64(0x15A);
        let mha = MhaResBlock::new(cfg, &mut rng);
        let ffn = FfnResBlock::new(cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..3)
            .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let xq = qmha.quantize_input_q(&calib[0]);
        (qmha, qffn, xq)
    }

    /// 64-wide heads, and a `d_ff` that leaves a ragged last panel.
    fn ragged_cfg() -> ModelConfig {
        ModelConfig {
            name: "ragged64h".into(),
            d_model: 128,
            d_ff: 300,
            h: 2,
            n_layers: 1,
            vocab: 16,
            max_len: 8,
        }
    }

    /// The interpreter's panel GEMM as it was before panels ran against
    /// the resident prepacked weights, frozen as the reference for the
    /// engine's unchecked fast path: copy the `k x width` weight panel
    /// out, re-pack and multiply it, then bias and requantize element by
    /// element.
    fn linear_cols_reference(
        lin: &quantized::QLinear,
        x: &Mat<i8>,
        c0: usize,
        width: usize,
    ) -> Mat<i8> {
        let w = lin
            .weight_q()
            .submatrix(0, c0, lin.weight_q().rows(), width)
            .expect("column slice");
        let acc = gemm::matmul_i8(x, &w).expect("widths");
        Mat::from_fn(acc.rows(), acc.cols(), |r, c| {
            lin.requantize_col(c0 + c, acc[(r, c)] + lin.bias_q()[c0 + c])
        })
    }

    #[test]
    fn panel_gemm_matches_the_frozen_submatrix_reference() {
        // Every panel the interpreter issues against Q/K/V/O/W1/W2: the
        // tiny shape (d_k = 8, panels start inside a pack tile) and a
        // 64-wide-head shape whose d_ff leaves a ragged last panel —
        // on the host's fastest kernels and on the scalar ones.
        for tier in [Int8Kernel::Amx, Int8Kernel::Scalar] {
            let policy = Policy {
                int8_cap: tier,
                ..Policy::current()
            };
            policy.run(|| {
                for cfg in [ModelConfig::tiny_for_tests(), ragged_cfg()] {
                    let (qmha, qffn, xq) = blocks(&cfg, 8);
                    let d_k = qmha.d_k();
                    let (wq, wk, wv, wo) = qmha.projections();
                    for (name, lin) in [("Q", wq), ("K", wk), ("V", wv), ("O", wo)] {
                        for head in 0..cfg.h {
                            assert_eq!(
                                lin.forward_cols(&xq, head * d_k, d_k),
                                linear_cols_reference(lin, &xq, head * d_k, d_k),
                                "{} W_{name} panel {head} {tier:?}",
                                cfg.name
                            );
                        }
                    }
                    let (w1, w2) = qffn.sublayers();
                    let hidden = w1.forward(&xq);
                    for (name, lin, x) in [("1", w1, &xq), ("2", w2, &hidden)] {
                        let d_out = lin.weight_q().cols();
                        for c0 in (0..d_out).step_by(PANEL_COLS) {
                            let width = PANEL_COLS.min(d_out - c0);
                            assert_eq!(
                                lin.forward_cols(x, c0, width),
                                linear_cols_reference(lin, x, c0, width),
                                "{} W_{name} cols {c0}+{width} {tier:?}",
                                cfg.name
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn ragged_ffn_execution_is_bit_identical_to_the_datapath() {
        let cfg = ragged_cfg();
        let (_, qffn, xq) = blocks(&cfg, 8);
        let program = ffn_program(cfg.d_model, cfg.d_ff);
        let got = ArrayEngine::new(8).run_ffn(&program, &qffn, &xq).out;
        assert_eq!(got, qffn.forward(&xq).0);
    }

    #[test]
    fn program_shapes_match_algorithm1() {
        let p = mha_program(8, 64);
        // per head: PQ, PK, 1 score tile, softmax, PV, context = 6
        assert_eq!(p.len(), 8 * 6 + 8 + 1);
        assert_eq!(*p.last().unwrap(), Command::LayerNorm);
        let p = ffn_program(512, 2048);
        assert_eq!(p.len(), 32 + 8 + 1);
    }

    #[test]
    fn mha_execution_is_bit_identical_to_the_datapath() {
        for cfg in [
            ModelConfig::tiny_for_tests(),
            ModelConfig {
                name: "mini64h".into(),
                d_model: 128,
                d_ff: 512,
                h: 2,
                n_layers: 1,
                vocab: 16,
                max_len: 8,
            },
        ] {
            let (qmha, _, xq) = blocks(&cfg, 8);
            let program = mha_program(cfg.h, 8);
            let got = ArrayEngine::new(8)
                .run_mha(&program, &qmha, &xq, &xq, None)
                .out;
            let (want, _) = qmha.forward(&xq, &xq, None);
            assert_eq!(got, want, "{}", cfg.name);
        }
    }

    #[test]
    fn masked_mha_execution_matches() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let mask = tensor::ops::causal_mask(8);
        let program = mha_program(cfg.h, 8);
        let got = ArrayEngine::new(8)
            .run_mha(&program, &qmha, &xq, &xq, Some(&mask))
            .out;
        let (want, _) = qmha.forward(&xq, &xq, Some(&mask));
        assert_eq!(got, want);
    }

    #[test]
    fn ffn_execution_is_bit_identical_to_the_datapath() {
        let cfg = ModelConfig::tiny_for_tests();
        let (_, qffn, _) = blocks(&cfg, 8);
        let mut rng = StdRng::seed_from_u64(0xF0);
        let x = qffn.quantize_input(&tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0));
        let program = ffn_program(cfg.d_model, cfg.d_ff);
        let got = ArrayEngine::new(8).run_ffn(&program, &qffn, &x).out;
        let (want, _) = qffn.forward(&x);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "not part of an MHA program")]
    fn ffn_commands_rejected_in_mha_execution() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let program = [Command::FfnHidden { panel: 0 }];
        let _ = ArrayEngine::new(8).run_mha(&program, &qmha, &xq, &xq, None);
    }
}
