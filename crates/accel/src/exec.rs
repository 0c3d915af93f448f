//! Lowering from the ResBlock operator graphs to the accelerator ISA.
//!
//! [`lower_mha`] / [`lower_ffn`] walk a [`Graph`] in plan order and emit
//! [`Command`]s; [`crate::isa::mha_program`] and
//! [`crate::isa::ffn_program`] are thin wrappers over this lowering,
//! so the static schedule the timing model runs is *derived from the
//! same dataflow description* every software executor interprets. Nodes
//! the hardware fuses into a neighbouring unit (ReLU into the bias
//! adders, the residual add into the output drain) lower to no command
//! at all — the convention documented on [`Op`]. Running a lowered
//! program is [`crate::backend::Backend`]'s job.

use graph::{Graph, GraphKind, Node, Op, WeightId};

use crate::isa::Command;
use crate::partition::{qk_plan, PANEL_COLS};

fn producer<'g>(g: &'g Graph, name: &str) -> Option<&'g Node> {
    g.nodes.iter().find(|n| n.output == name)
}

/// Lowers the [`GraphKind::Mha`] graph to the Algorithm-1 command
/// stream at key/value length `s_kv`.
///
/// The per-head projections run inside the hardware's head loop, so
/// each `SplitHeads` node — not the full-width `Linear` that feeds it —
/// lowers to the `Project{Q,K,V}` command of its producer's weight.
/// `Concat` and the residual `Add` are free (panel writeback and the
/// output drain); `Linear(W_G)` lowers to one `OutputPanel` per head.
///
/// # Panics
///
/// Panics if the graph is not an MHA graph or a `SplitHeads` input is
/// not produced by a projection (e.g. the cached-KV graph, whose K/V
/// live in a cache the accelerator model does not stream).
pub fn lower_mha(g: &Graph, s_kv: usize) -> Vec<Command> {
    assert_eq!(g.kind, GraphKind::Mha, "lower_mha lowers the MHA graph");
    let tiles = qk_plan(s_kv).tiles;
    let mut prog = Vec::new();
    for node in &g.nodes {
        match node.op {
            // Full-width projections are realised per head (below).
            Op::Linear(WeightId::Wq | WeightId::Wk | WeightId::Wv) => {}
            Op::SplitHeads => {
                let head = node.head.expect("SplitHeads carries a head index");
                let src = producer(g, &node.inputs[0]).unwrap_or_else(|| {
                    panic!(
                        "SplitHeads input {:?} has no producer; cached graphs are not lowerable",
                        node.inputs[0]
                    )
                });
                match src.op {
                    Op::Linear(WeightId::Wq) => prog.push(Command::ProjectQ { head }),
                    Op::Linear(WeightId::Wk) => prog.push(Command::ProjectK { head }),
                    Op::Linear(WeightId::Wv) => prog.push(Command::ProjectV { head }),
                    ref other => panic!("SplitHeads fed by {other:?}, not a projection"),
                }
            }
            Op::HeadMatmul {
                transpose_rhs: true,
            } => {
                let head = node.head.expect("score matmul is per head");
                for tile in 0..tiles {
                    prog.push(Command::ScoreTile { head, tile });
                }
            }
            Op::ScaledMaskedSoftmax => {
                let head = node.head.expect("softmax is per head");
                prog.push(Command::Softmax { head });
            }
            Op::HeadMatmul {
                transpose_rhs: false,
            } => {
                let head = node.head.expect("context matmul is per head");
                prog.push(Command::Context { head });
            }
            // Panel writeback into data memory; no command.
            Op::Concat => {}
            // The hardware's output drain already performs the residual
            // add, so the fused `LinearAdd(Wo)` node lowers to exactly
            // the commands the unfused `Linear(Wo)` + `Add` pair did —
            // graph fusion is timing-transparent here.
            Op::Linear(WeightId::Wo) | Op::LinearAdd(WeightId::Wo) => {
                for panel in 0..g.cfg.h {
                    prog.push(Command::OutputPanel { panel });
                }
            }
            // Residual add is fused into the output drain; no command.
            Op::Add => {}
            Op::LayerNorm => prog.push(Command::LayerNorm),
            ref other => panic!("{other:?} is not part of the MHA dataflow"),
        }
    }
    prog
}

/// Lowers the [`GraphKind::Ffn`] graph to the Algorithm-1 command
/// stream (lines 14–22): one `FfnHidden` per 64-column hidden panel,
/// one `FfnOutput` per output panel, then `LayerNorm`. ReLU and the
/// residual add are fused into neighbouring units and lower to nothing.
///
/// # Panics
///
/// Panics if the graph is not an FFN graph.
pub fn lower_ffn(g: &Graph) -> Vec<Command> {
    assert_eq!(g.kind, GraphKind::Ffn, "lower_ffn lowers the FFN graph");
    let mut prog = Vec::new();
    for node in &g.nodes {
        match node.op {
            // ReLU runs on the bias adders and the residual add on the
            // output drain (Fig. 5), so the fused nodes lower to the
            // same panel commands as their unfused `Linear` producers —
            // same program, same cycle count.
            Op::Linear(WeightId::W1) | Op::LinearRelu(WeightId::W1) => {
                for panel in 0..g.cfg.d_ff.div_ceil(PANEL_COLS) {
                    prog.push(Command::FfnHidden { panel });
                }
            }
            // Fused into the bias adders (Fig. 5); no command.
            Op::Relu => {}
            Op::Linear(WeightId::W2) | Op::LinearAdd(WeightId::W2) => {
                for panel in 0..g.cfg.d_model.div_ceil(PANEL_COLS) {
                    prog.push(Command::FfnOutput { panel });
                }
            }
            // Residual add is fused into the output drain; no command.
            Op::Add => {}
            Op::LayerNorm => prog.push(Command::LayerNorm),
            ref other => panic!("{other:?} is not part of the FFN dataflow"),
        }
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{ffn_graph, mha_graph, GraphConfig};

    /// The pre-refactor hand-written Algorithm-1 loops — frozen here as
    /// the golden reference the lowering must reproduce exactly.
    fn handwritten_mha(h: usize, s_kv: usize) -> Vec<Command> {
        let mut prog = Vec::new();
        let tiles = qk_plan(s_kv).tiles;
        for head in 0..h {
            prog.push(Command::ProjectQ { head });
            prog.push(Command::ProjectK { head });
            for tile in 0..tiles {
                prog.push(Command::ScoreTile { head, tile });
            }
            prog.push(Command::Softmax { head });
            prog.push(Command::ProjectV { head });
            prog.push(Command::Context { head });
        }
        for panel in 0..h {
            prog.push(Command::OutputPanel { panel });
        }
        prog.push(Command::LayerNorm);
        prog
    }

    fn handwritten_ffn(d_model: usize, d_ff: usize) -> Vec<Command> {
        let mut prog = Vec::new();
        for panel in 0..d_ff.div_ceil(PANEL_COLS) {
            prog.push(Command::FfnHidden { panel });
        }
        for panel in 0..d_model.div_ceil(PANEL_COLS) {
            prog.push(Command::FfnOutput { panel });
        }
        prog.push(Command::LayerNorm);
        prog
    }

    #[test]
    fn lowered_mha_program_matches_handwritten() {
        for (h, s_kv) in [(8, 64), (2, 8), (4, 128)] {
            let g = mha_graph(&GraphConfig {
                d_model: h * PANEL_COLS,
                d_ff: 0,
                h,
            });
            assert_eq!(lower_mha(&g, s_kv), handwritten_mha(h, s_kv));
            assert_eq!(crate::isa::mha_program(h, s_kv), handwritten_mha(h, s_kv));
        }
    }

    #[test]
    fn lowered_ffn_program_matches_handwritten() {
        for (d_model, d_ff) in [(512, 2048), (64, 256), (100, 300)] {
            let g = ffn_graph(&GraphConfig {
                d_model,
                d_ff,
                h: 1,
            });
            assert_eq!(lower_ffn(&g), handwritten_ffn(d_model, d_ff));
            assert_eq!(
                crate::isa::ffn_program(d_model, d_ff),
                handwritten_ffn(d_model, d_ff)
            );
        }
    }

    #[test]
    fn fused_graphs_lower_to_identical_programs() {
        // Fusion must be invisible to the accelerator: the fused graph
        // lowers to the exact command stream of the unfused graph, so
        // every pinned cycle count (MHA 20998 / FFN 35846 at the paper
        // point) is preserved by construction.
        for (h, s_kv) in [(8, 64), (2, 8), (4, 128)] {
            let g = mha_graph(&GraphConfig {
                d_model: h * PANEL_COLS,
                d_ff: 0,
                h,
            });
            assert_eq!(lower_mha(&graph::fuse(&g), s_kv), lower_mha(&g, s_kv));
        }
        for (d_model, d_ff) in [(512, 2048), (64, 256), (100, 300)] {
            let g = ffn_graph(&GraphConfig {
                d_model,
                d_ff,
                h: 1,
            });
            assert_eq!(lower_ffn(&graph::fuse(&g)), lower_ffn(&g));
        }
    }

    #[test]
    #[should_panic(expected = "lower_mha lowers the MHA graph")]
    fn cached_graph_is_rejected() {
        // The accelerator model has no cached-KV schedule: K/V would
        // live in a cache the array does not stream.
        let g = graph::mha_cached_graph(&GraphConfig {
            d_model: 32,
            d_ff: 0,
            h: 4,
        });
        let _ = lower_mha(&g, 8);
    }
}
