//! The accelerator's command stream: Algorithm 1 as an explicit
//! instruction sequence, and the only place its schedule is written
//! down.
//!
//! A real implementation of the paper's design has a small control unit
//! stepping through a static schedule; this module makes that program
//! first-class and gives it one interpreter per semantics:
//!
//! * [`mha_program`] / [`ffn_program`] — the instruction list for one
//!   ResBlock, lowered from the operator graph;
//! * the **bit-exact interpreter** (`execute_mha` / `execute_ffn`,
//!   reached through [`crate::backend::Backend::run_mha`] /
//!   [`crate::backend::Backend::run_ffn`]) driving the quantized
//!   datapath command by command (outputs equal
//!   [`quantized::QuantMhaResBlock::forward`] exactly);
//! * the **timing walk** behind [`schedule_program`] and every
//!   [`crate::scheduler`] report — the *only* schedule: Algorithm 1's
//!   dependency edges and the `overlap_*` policy switches are read
//!   there and nowhere else, so a cycle count cannot drift from the
//!   program that was run;
//! * [`validate_mha_program`] / [`validate_ffn_program`] /
//!   [`harden_program`] — the control unit's structural check of the
//!   command store and its recompute-from-source recovery.
//!
//! One program, two semantics — the strongest form of the workspace's
//! "numerics and timing never diverge" rule.

use faults::{FaultKind, Injector};
use hwsim::cycles::Cycle;
use hwsim::timeline::{EventId, Timeline, UnitId};
use quantized::softmax::scaled_masked_softmax;
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use serde::Serialize;
use tensor::{gemm, Mat};

use crate::config::AccelConfig;
use crate::layernorm_module;
use crate::partition::{qk_plan, PANEL_COLS};
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

/// A structural defect found in a command stream — the control unit's
/// detection vocabulary for faults injected into the ISA program store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramFault {
    /// A command's head/tile/panel index exceeds the block's geometry.
    IndexOutOfRange {
        /// Offending command slot.
        slot: usize,
    },
    /// A command ran before its data dependencies (e.g. `ScoreTile`
    /// before both projections), or after the terminating `LayerNorm`,
    /// or belongs to the other ResBlock's program.
    OrderViolation {
        /// Offending command slot.
        slot: usize,
    },
    /// The program does not visit every required site exactly once
    /// (a duplicated command always shadows a missing one).
    CoverageViolation {
        /// Which command family is mis-covered.
        what: &'static str,
    },
    /// The program does not end with a `LayerNorm`.
    MissingLayerNorm,
}

impl std::fmt::Display for ProgramFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramFault::IndexOutOfRange { slot } => {
                write!(f, "command {slot}: index out of range")
            }
            ProgramFault::OrderViolation { slot } => {
                write!(f, "command {slot}: dependency order violated")
            }
            ProgramFault::CoverageViolation { what } => {
                write!(f, "{what} commands do not cover every site exactly once")
            }
            ProgramFault::MissingLayerNorm => write!(f, "program does not end with LayerNorm"),
        }
    }
}

impl std::error::Error for ProgramFault {}

/// Structurally validates an MHA command stream against the block
/// geometry `(h, s_kv)`: every index in range, every dependency
/// satisfied in order, every projection/score-tile/softmax/context/
/// output-panel site covered exactly once, `LayerNorm` terminal.
///
/// The Algorithm-1 schedule is a *static* program, so the checker can
/// demand exact coverage — which is what makes single bit flips in the
/// command store detectable: flipping an index bit either leaves the
/// valid range (range check), runs a command before its operands exist
/// (order check), or duplicates one site while starving another
/// (coverage check).
pub fn validate_mha_program(
    program: &[Command],
    h: usize,
    s_kv: usize,
) -> Result<(), ProgramFault> {
    let tiles = qk_plan(s_kv).tiles;
    let mut pq = vec![0usize; h];
    let mut pk = vec![0usize; h];
    let mut pv = vec![0usize; h];
    let mut sm = vec![0usize; h];
    let mut ctx = vec![0usize; h];
    let mut score = vec![vec![0usize; tiles]; h];
    let mut out = vec![0usize; h];
    let mut ln = 0usize;
    for (slot, cmd) in program.iter().enumerate() {
        if ln > 0 {
            return Err(ProgramFault::OrderViolation { slot });
        }
        match *cmd {
            Command::ProjectQ { head } if head < h => pq[head] += 1,
            Command::ProjectK { head } if head < h => pk[head] += 1,
            Command::ProjectV { head } if head < h => pv[head] += 1,
            Command::ScoreTile { head, tile } if head < h && tile < tiles => {
                if pq[head] == 0 || pk[head] == 0 {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                score[head][tile] += 1;
            }
            Command::Softmax { head } if head < h => {
                if score[head].contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                sm[head] += 1;
            }
            Command::Context { head } if head < h => {
                if sm[head] == 0 || pv[head] == 0 {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                ctx[head] += 1;
            }
            Command::OutputPanel { panel } if panel < h => {
                if ctx.contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                out[panel] += 1;
            }
            Command::LayerNorm => ln += 1,
            Command::ProjectQ { .. }
            | Command::ProjectK { .. }
            | Command::ProjectV { .. }
            | Command::ScoreTile { .. }
            | Command::Softmax { .. }
            | Command::Context { .. }
            | Command::OutputPanel { .. } => {
                return Err(ProgramFault::IndexOutOfRange { slot });
            }
            Command::FfnHidden { .. } | Command::FfnOutput { .. } => {
                return Err(ProgramFault::OrderViolation { slot });
            }
        }
    }
    if ln == 0 {
        return Err(ProgramFault::MissingLayerNorm);
    }
    for head in 0..h {
        if pq[head] != 1 || pk[head] != 1 || pv[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "projection" });
        }
        if score[head].iter().any(|&n| n != 1) {
            return Err(ProgramFault::CoverageViolation { what: "score-tile" });
        }
        if sm[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "softmax" });
        }
        if ctx[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "context" });
        }
        if out[head] != 1 {
            return Err(ProgramFault::CoverageViolation {
                what: "output-panel",
            });
        }
    }
    Ok(())
}

/// Structurally validates an FFN command stream against `(d_model,
/// d_ff)`: every hidden panel written exactly once before any output
/// panel reads the hidden matrix, every output panel written exactly
/// once, `LayerNorm` terminal.
pub fn validate_ffn_program(
    program: &[Command],
    d_model: usize,
    d_ff: usize,
) -> Result<(), ProgramFault> {
    let hidden_panels = d_ff.div_ceil(PANEL_COLS);
    let out_panels = d_model.div_ceil(PANEL_COLS);
    let mut hidden = vec![0usize; hidden_panels];
    let mut out = vec![0usize; out_panels];
    let mut ln = 0usize;
    for (slot, cmd) in program.iter().enumerate() {
        if ln > 0 {
            return Err(ProgramFault::OrderViolation { slot });
        }
        match *cmd {
            Command::FfnHidden { panel } if panel < hidden_panels => hidden[panel] += 1,
            Command::FfnOutput { panel } if panel < out_panels => {
                if hidden.contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                out[panel] += 1;
            }
            Command::LayerNorm => ln += 1,
            Command::FfnHidden { .. } | Command::FfnOutput { .. } => {
                return Err(ProgramFault::IndexOutOfRange { slot });
            }
            _ => return Err(ProgramFault::OrderViolation { slot }),
        }
    }
    if ln == 0 {
        return Err(ProgramFault::MissingLayerNorm);
    }
    if hidden.iter().any(|&n| n != 1) {
        return Err(ProgramFault::CoverageViolation { what: "ffn-hidden" });
    }
    if out.iter().any(|&n| n != 1) {
        return Err(ProgramFault::CoverageViolation { what: "ffn-output" });
    }
    Ok(())
}

/// Applies a fault to a command's index field (the bits a program-store
/// upset would corrupt). `LayerNorm` carries no operand bits and is
/// returned unchanged.
fn corrupt_command(cmd: Command, kind: FaultKind) -> Command {
    let flip = |v: usize| kind.apply_word(v as u32, 32) as usize;
    match cmd {
        Command::ProjectQ { head } => Command::ProjectQ { head: flip(head) },
        Command::ProjectK { head } => Command::ProjectK { head: flip(head) },
        Command::ProjectV { head } => Command::ProjectV { head: flip(head) },
        Command::ScoreTile { head, tile } => Command::ScoreTile {
            head: flip(head),
            tile,
        },
        Command::Softmax { head } => Command::Softmax { head: flip(head) },
        Command::Context { head } => Command::Context { head: flip(head) },
        Command::OutputPanel { panel } => Command::OutputPanel { panel: flip(panel) },
        Command::FfnHidden { panel } => Command::FfnHidden { panel: flip(panel) },
        Command::FfnOutput { panel } => Command::FfnOutput { panel: flip(panel) },
        Command::LayerNorm => Command::LayerNorm,
    }
}

/// Lowers a program into a faulty command store and hardens it: claims
/// the injector's next program index, applies that program's scheduled
/// `IsaCommand` faults to the lowered stream, then puts it through the
/// control unit's structural validator — the hardware analogue of an
/// instruction-store parity + ordering check. A program that fails
/// validation is discarded and re-lowered from the graph
/// (recompute-from-source recovery). Returns the program to run and
/// whether a fault was detected.
pub fn harden_program(
    inj: &mut Injector,
    lower: impl Fn() -> Vec<Command>,
    validate: impl Fn(&[Command]) -> Result<(), ProgramFault>,
) -> (Vec<Command>, bool) {
    let mut prog = lower();
    let mut hit = 0usize;
    for (slot, kind) in inj.isa_faults() {
        if slot < prog.len() {
            prog[slot] = corrupt_command(prog[slot], kind);
            hit += 1;
        }
    }
    inj.note_injected(hit);
    if hit > 0 && validate(&prog).is_err() {
        return (lower(), true);
    }
    (prog, false)
}

/// Bit-exact execution of [`mha_program`] against a quantized block.
///
/// # Panics
///
/// Panics on malformed programs (commands out of Algorithm-1 order).
pub(crate) fn execute_mha(
    program: &[Command],
    block: &QuantMhaResBlock,
    xq: &Mat<i8>,
    xkv: &Mat<i8>,
    mask: Option<&Mat<bool>>,
) -> Mat<i8> {
    let d_k = block.d_k();
    let h = block.heads();
    let (wq, wk, wv, wo) = block.projections();
    let mut q: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut k: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut v: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut scores: Vec<Option<Mat<i32>>> = vec![None; h];
    let mut probs: Vec<Option<Mat<i8>>> = vec![None; h];
    // P is assembled in place as each head's Context lands; every
    // OutputPanel then streams the one shared matrix.
    let mut p = Mat::<i8>::zeros(xq.rows(), h * d_k);
    let mut ctx_done = vec![false; h];
    let mut g: Mat<i32> = Mat::zeros(xq.rows(), wq.weight_q().cols());
    let mut ln_out: Option<Mat<i8>> = None;
    let score_tiles = qk_plan(xkv.rows()).tiles;

    for cmd in program {
        match *cmd {
            Command::ProjectQ { head } => {
                q[head] = Some(wq.forward_cols(xq, head * d_k, d_k));
            }
            Command::ProjectK { head } => {
                k[head] = Some(wk.forward_cols(xkv, head * d_k, d_k));
            }
            Command::ProjectV { head } => {
                v[head] = Some(wv.forward_cols(xkv, head * d_k, d_k));
            }
            Command::ScoreTile { head, tile } => {
                // tiles are produced in order; compute the whole score
                // matrix on the first tile (the engine-level tiling is
                // exercised in crate::engine; here we keep the
                // command-stream semantics minimal).
                if tile == 0 {
                    let qi = q[head].as_ref().expect("ProjectQ before ScoreTile");
                    let ki = k[head].as_ref().expect("ProjectK before ScoreTile");
                    scores[head] = Some(crate::partition::qk_matmul_i8(qi, ki).expect("shapes"));
                } else {
                    assert!(tile < score_tiles, "tile out of plan");
                }
            }
            Command::Softmax { head } => {
                let d = scores[head].as_ref().expect("ScoreTile before Softmax");
                probs[head] = Some(scaled_masked_softmax(
                    d,
                    block.d_scale(),
                    d_k,
                    mask,
                    block.softmax_mode(),
                ));
            }
            Command::Context { head } => {
                let pr = probs[head].as_ref().expect("Softmax before Context");
                let vi = v[head].as_ref().expect("ProjectV before Context");
                let acc = gemm::matmul_i8(pr, vi).expect("shapes");
                for r in 0..p.rows() {
                    let dst = &mut p.row_mut(r)[head * d_k..(head + 1) * d_k];
                    block.requantize_p_into(acc.row(r), dst);
                }
                ctx_done[head] = true;
            }
            Command::OutputPanel { panel } => {
                assert!(
                    ctx_done.iter().all(|&done| done),
                    "all Contexts before OutputPanel"
                );
                let c0 = panel * d_k;
                let g_cols = wo.forward_cols(&p, c0, d_k);
                for r in 0..g.rows() {
                    for c in 0..d_k {
                        g[(r, c0 + c)] = g_cols[(r, c)] as i32 + xq[(r, c0 + c)] as i32;
                    }
                }
            }
            Command::LayerNorm => {
                ln_out = Some(block.layernorm().forward(&g));
            }
            other => panic!("command {other:?} is not part of an MHA program"),
        }
    }
    ln_out.expect("program must end with LayerNorm")
}

/// Bit-exact execution of [`ffn_program`] against a quantized block.
///
/// # Panics
///
/// Panics on malformed programs.
pub(crate) fn execute_ffn(program: &[Command], block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8> {
    let (w1, w2) = block.sublayers();
    let d_ff = w1.weight_q().cols();
    let d_model = w2.weight_q().cols();
    let mut hidden = Mat::<i8>::zeros(x.rows(), d_ff);
    let mut g = Mat::<i32>::zeros(x.rows(), d_model);
    let mut ln_out: Option<Mat<i8>> = None;
    for cmd in program {
        match *cmd {
            Command::FfnHidden { panel } => {
                let c0 = panel * PANEL_COLS;
                let width = PANEL_COLS.min(d_ff - c0);
                let cols = w1.forward_cols(x, c0, width);
                for r in 0..hidden.rows() {
                    for c in 0..width {
                        hidden[(r, c0 + c)] = cols[(r, c)].max(0); // fused ReLU
                    }
                }
            }
            Command::FfnOutput { panel } => {
                let c0 = panel * PANEL_COLS;
                let width = PANEL_COLS.min(d_model - c0);
                let cols = w2.forward_cols(&hidden, c0, width);
                for r in 0..g.rows() {
                    for c in 0..width {
                        g[(r, c0 + c)] = cols[(r, c)] as i32 + x[(r, c0 + c)] as i32;
                    }
                }
            }
            Command::LayerNorm => {
                ln_out = Some(block.layernorm().forward(&g));
            }
            other => panic!("command {other:?} is not part of an FFN program"),
        }
    }
    ln_out.expect("program must end with LayerNorm")
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
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
    /// the resident prepacked weights, frozen as the reference: copy the
    /// `k x width` weight panel out, re-pack and multiply it, then bias
    /// and requantize element by element.
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
        // on the dispatched kernels and with the scalar ones forced.
        for force_scalar in [false, true] {
            tensor::simd::set_simd_override(force_scalar.then_some(false));
            for cfg in [ModelConfig::tiny_for_tests(), ragged_cfg()] {
                let (qmha, qffn, xq) = blocks(&cfg, 8);
                let d_k = qmha.d_k();
                let (wq, wk, wv, wo) = qmha.projections();
                for (name, lin) in [("Q", wq), ("K", wk), ("V", wv), ("O", wo)] {
                    for head in 0..cfg.h {
                        assert_eq!(
                            lin.forward_cols(&xq, head * d_k, d_k),
                            linear_cols_reference(lin, &xq, head * d_k, d_k),
                            "{} W_{name} panel {head} scalar={force_scalar}",
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
                            "{} W_{name} cols {c0}+{width} scalar={force_scalar}",
                            cfg.name
                        );
                    }
                }
            }
        }
        tensor::simd::set_simd_override(None);
    }

    #[test]
    fn ragged_ffn_execution_is_bit_identical_to_the_datapath() {
        let cfg = ragged_cfg();
        let (_, qffn, xq) = blocks(&cfg, 8);
        let got = execute_ffn(&ffn_program(cfg.d_model, cfg.d_ff), &qffn, &xq);
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
            let got = execute_mha(&program, &qmha, &xq, &xq, None);
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
        let got = execute_mha(&program, &qmha, &xq, &xq, Some(&mask));
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
        let got = execute_ffn(&program, &qffn, &x);
        let (want, _) = qffn.forward(&x);
        assert_eq!(got, want);
    }

    /// An injector whose plan flips bit 0 of one command slot of the
    /// first program lowered.
    fn bit_flip_in_program_0(slot: usize) -> Injector {
        use faults::{FaultEvent, FaultPlan, FaultSite};
        Injector::new(FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::IsaCommand { program: 0, slot },
            kind: FaultKind::BitFlip { bit: 0 },
        }]))
    }

    #[test]
    fn isa_command_fault_is_detected_and_recovered_by_relowering() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let pristine = mha_program(cfg.h, 8);
        let want = execute_mha(&pristine, &qmha, &xq, &xq, None);
        // Slot 2 is head 0's ScoreTile; flipping its head index makes
        // the program reference an unprojected head — the structural
        // validator flags it and the program is re-lowered.
        let mut inj = bit_flip_in_program_0(2);
        let harden = |inj: &mut Injector| {
            harden_program(
                inj,
                || mha_program(cfg.h, 8),
                |p| validate_mha_program(p, cfg.h, 8),
            )
        };
        let (prog, detected) = harden(&mut inj);
        assert!(detected);
        assert_eq!(inj.injected(), 1);
        assert_eq!(
            execute_mha(&prog, &qmha, &xq, &xq, None),
            want,
            "re-lowered program must compute correctly"
        );
        // The next program index carries no events: clean, no detection.
        let (prog, detected) = harden(&mut inj);
        assert!(!detected);
        assert_eq!(prog, pristine);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn out_of_range_isa_fault_is_inert() {
        let (h, s_kv) = (4, 8);
        let mut inj = bit_flip_in_program_0(10_000);
        let (prog, detected) = harden_program(
            &mut inj,
            || mha_program(h, s_kv),
            |p| validate_mha_program(p, h, s_kv),
        );
        assert_eq!(prog, mha_program(h, s_kv));
        assert!(!detected);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn lowered_programs_validate_clean() {
        for (h, s_kv) in [(8, 64), (2, 8), (4, 128)] {
            validate_mha_program(&mha_program(h, s_kv), h, s_kv).expect("lowered MHA is valid");
        }
        for (d_model, d_ff) in [(512, 2048), (64, 256), (100, 300)] {
            validate_ffn_program(&ffn_program(d_model, d_ff), d_model, d_ff)
                .expect("lowered FFN is valid");
        }
    }

    #[test]
    fn validator_catches_any_single_index_corruption() {
        // Flip every index field of every command of the canonical MHA
        // program in turn: exact-coverage validation must flag each one
        // (a corrupted index either leaves the range, runs before its
        // operands, or double-covers one site while starving another).
        let (h, s_kv) = (4usize, 64usize);
        let prog = mha_program(h, s_kv);
        for slot in 0..prog.len() {
            for bit in 0..8u32 {
                let mut bad = prog.clone();
                let corrupted = match bad[slot] {
                    Command::ProjectQ { head } => Command::ProjectQ {
                        head: head ^ (1 << bit),
                    },
                    Command::ProjectK { head } => Command::ProjectK {
                        head: head ^ (1 << bit),
                    },
                    Command::ProjectV { head } => Command::ProjectV {
                        head: head ^ (1 << bit),
                    },
                    Command::ScoreTile { head, tile } => Command::ScoreTile {
                        head: head ^ (1 << bit),
                        tile,
                    },
                    Command::Softmax { head } => Command::Softmax {
                        head: head ^ (1 << bit),
                    },
                    Command::Context { head } => Command::Context {
                        head: head ^ (1 << bit),
                    },
                    Command::OutputPanel { panel } => Command::OutputPanel {
                        panel: panel ^ (1 << bit),
                    },
                    Command::LayerNorm => continue, // no index field to corrupt
                    _ => unreachable!("MHA program"),
                };
                bad[slot] = corrupted;
                assert!(
                    validate_mha_program(&bad, h, s_kv).is_err(),
                    "slot {slot} bit {bit} escaped validation"
                );
            }
        }
        let prog = ffn_program(128, 256);
        for slot in 0..prog.len() {
            let mut bad = prog.clone();
            let corrupted = match bad[slot] {
                Command::FfnHidden { panel } => Command::FfnHidden { panel: panel ^ 1 },
                Command::FfnOutput { panel } => Command::FfnOutput { panel: panel ^ 1 },
                Command::LayerNorm => continue,
                _ => unreachable!("FFN program"),
            };
            bad[slot] = corrupted;
            assert!(
                validate_ffn_program(&bad, 128, 256).is_err(),
                "slot {slot} escaped validation"
            );
        }
    }

    #[test]
    fn validator_rejects_truncated_and_cross_block_programs() {
        let mut prog = mha_program(2, 8);
        assert!(validate_mha_program(&prog[..prog.len() - 1], 2, 8).is_err());
        prog.insert(0, Command::FfnHidden { panel: 0 });
        assert!(validate_mha_program(&prog, 2, 8).is_err());
        let ffn = ffn_program(64, 256);
        assert!(validate_ffn_program(&ffn[..ffn.len() - 1], 64, 256).is_err());
        let mut ffn_bad = ffn.clone();
        ffn_bad.insert(0, Command::Softmax { head: 0 });
        assert!(validate_ffn_program(&ffn_bad, 64, 256).is_err());
        // Hidden panels must all land before the first output panel.
        let mut swapped = ffn.clone();
        let first_out = swapped
            .iter()
            .position(|c| matches!(c, Command::FfnOutput { .. }))
            .unwrap();
        swapped.swap(0, first_out);
        assert!(validate_ffn_program(&swapped, 64, 256).is_err());
    }

    #[test]
    #[should_panic(expected = "not part of an MHA program")]
    fn ffn_commands_rejected_in_mha_execution() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let _ = execute_mha(&[Command::FfnHidden { panel: 0 }], &qmha, &xq, &xq, None);
    }
}
