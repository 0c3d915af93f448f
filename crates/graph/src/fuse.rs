//! Graph-rewrite operator fusion.
//!
//! The paper's accelerator never spills intermediates between the GEMM
//! and its trailing elementwise ops: ReLU and the residual adders live
//! on the systolic array's drain path (Fig. 5), so `x W + b`, the
//! activation, and the residual addition are one streaming pass. The
//! software executors, in contrast, used to materialize a full tensor
//! between every [`Op`]. This pass closes that gap **once, on the
//! graph**, so every executor — FP32 interpreter, INT8 interpreter, the
//! decode hot paths, and the accelerator lowering — inherits the same
//! rewrite instead of hand-fusing per backend.
//!
//! # Pattern table
//!
//! | pattern                          | rewrite                        | elided tensor        |
//! |----------------------------------|--------------------------------|----------------------|
//! | `Linear(w)` → `Relu`             | [`Op::LinearRelu`]`(w)`        | the pre-activation   |
//! | `Linear(w)` → `Add` (either arm) | [`Op::LinearAdd`]`(w)`         | the sublayer output  |
//!
//! In the builder graphs this fuses `W1`→ReLU (eliding `"pre"`),
//! `Wo`→Add (eliding `"attn_out"`), and `W2`→Add (eliding `"ffn_out"`)
//! — two-plus intermediate tensors per ResBlock, three per decoder
//! layer pass.
//!
//! The third fusion family from the plan — dequant→requant pairs on
//! adjacent INT8 edges — needs no rewrite here: the quantizer already
//! arranges the residual edges in a **shared scale** (`Wo` requantizes
//! into the query-input domain, `W2` into the FFN-input domain), so the
//! dequant→requant composition on those edges is the *identity* rescale
//! and the executors' integer residual add is the already-elided form.
//! The `fixedmath` property suite pins that identity bit-for-bit; a
//! non-identity rescale composition would double-round and is therefore
//! **not** a legal fusion.
//!
//! # Legality rules
//!
//! A `Linear` producer is fused into its consumer only when:
//!
//! 1. the producer's output has **exactly one consumer** (the candidate
//!    node) — otherwise the intermediate is observable;
//! 2. the producer's output is **not the graph's declared output**
//!    (truncated graphs expose intermediates on purpose);
//! 3. both nodes sit **outside the per-head groups** (`head == None`),
//!    so head-group contiguity is untouched.
//!
//! The fused node keeps the *consumer's* output name, so downstream
//! references ("hidden", "g") and executor taps keep resolving; only
//! the producer's name disappears. Fused and unfused graphs are
//! **bit-identical** under every executor (the differential suite
//! `tests/fusion_identity.rs` pins all five against the unfused
//! graphs), so the blocks always run the fused graph.

use crate::graph::{Graph, Node};
use crate::op::Op;
use std::collections::HashMap;

/// Applies the fusion rewrite and returns the fused graph. Graphs with
/// no matching pattern come back equal to the input. The result always
/// [`Graph::validate`]s.
pub fn fuse(g: &Graph) -> Graph {
    // Use counts per tensor name; the declared output gets an extra use
    // so it can never be elided (legality rule 2).
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for node in &g.nodes {
        for input in &node.inputs {
            *uses.entry(input.as_str()).or_insert(0) += 1;
        }
    }
    *uses.entry(g.output.as_str()).or_insert(0) += 1;
    // Producer index per tensor name (node outputs only; graph inputs
    // have no producer and therefore never fuse).
    let producer: HashMap<&str, usize> = g
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.output.as_str(), i))
        .collect();

    // A producer index is fusable into a consumer when it is a
    // head-less Linear whose output feeds exactly that consumer.
    let fusable_linear = |name: &str| -> Option<usize> {
        let &i = producer.get(name)?;
        let p = &g.nodes[i];
        match p.op {
            Op::Linear(_) if p.head.is_none() && uses[name] == 1 => Some(i),
            _ => None,
        }
    };

    let mut drop = vec![false; g.nodes.len()];
    let mut rewritten: Vec<Node> = Vec::with_capacity(g.nodes.len());
    for node in &g.nodes {
        let replacement = match node.op {
            Op::Relu if node.head.is_none() && node.inputs.len() == 1 => {
                fusable_linear(&node.inputs[0]).map(|i| {
                    drop[i] = true;
                    let Op::Linear(w) = g.nodes[i].op else {
                        unreachable!("fusable_linear only returns Linear producers")
                    };
                    Node {
                        op: Op::LinearRelu(w),
                        head: None,
                        inputs: g.nodes[i].inputs.clone(),
                        output: node.output.clone(),
                    }
                })
            }
            Op::Add if node.head.is_none() && node.inputs.len() == 2 => {
                // The builders put the sublayer in arm 1 and the
                // residual in arm 0; try that orientation first so the
                // rewrite is deterministic when both arms would match.
                [1usize, 0]
                    .into_iter()
                    .find_map(|arm| fusable_linear(&node.inputs[arm]).map(|i| (arm, i)))
                    .map(|(arm, i)| {
                        drop[i] = true;
                        let Op::Linear(w) = g.nodes[i].op else {
                            unreachable!("fusable_linear only returns Linear producers")
                        };
                        Node {
                            op: Op::LinearAdd(w),
                            head: None,
                            inputs: vec![
                                g.nodes[i].inputs[0].clone(),
                                node.inputs[1 - arm].clone(),
                            ],
                            output: node.output.clone(),
                        }
                    })
            }
            _ => None,
        };
        rewritten.push(replacement.unwrap_or_else(|| node.clone()));
    }

    let nodes: Vec<Node> = rewritten
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !drop[*i])
        .map(|(_, n)| n)
        .collect();
    let fused = Graph {
        kind: g.kind,
        cfg: g.cfg,
        inputs: g.inputs.clone(),
        nodes,
        output: g.output.clone(),
    };
    fused.validate();
    fused
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ffn_graph, mha_cached_graph, mha_graph, GraphConfig};
    use crate::op::WeightId;

    fn cfg() -> GraphConfig {
        GraphConfig {
            d_model: 128,
            d_ff: 512,
            h: 2,
        }
    }

    #[test]
    fn ffn_fuses_relu_and_residual() {
        let g = fuse(&ffn_graph(&cfg()));
        let ops: Vec<Op> = g.nodes.iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![
                Op::LinearRelu(WeightId::W1),
                Op::LinearAdd(WeightId::W2),
                Op::LayerNorm
            ]
        );
        // Downstream names survive; the elided intermediates are gone.
        assert_eq!(g.nodes[0].output, "hidden");
        assert_eq!(g.nodes[1].output, "g");
        assert_eq!(g.nodes[1].inputs, vec!["hidden".to_string(), "x".into()]);
        assert!(g.nodes.iter().all(|n| n.output != "pre"));
        assert!(g.nodes.iter().all(|n| n.output != "ffn_out"));
    }

    #[test]
    fn mha_fuses_output_projection_into_residual() {
        for g in [mha_graph(&cfg()), mha_cached_graph(&cfg())] {
            let residual = g.inputs[0].clone();
            let fused = fuse(&g);
            assert_eq!(fused.nodes.len(), g.nodes.len() - 1);
            let wo = fused
                .nodes
                .iter()
                .find(|n| n.op == Op::LinearAdd(WeightId::Wo))
                .expect("Wo fused into the residual add");
            assert_eq!(wo.inputs, vec!["p".to_string(), residual]);
            assert_eq!(wo.output, "g");
            assert!(fused.nodes.iter().all(|n| n.output != "attn_out"));
            // Q/K/V projections feed SplitHeads, not Relu/Add: untouched.
            assert!(fused.nodes.iter().any(|n| n.op == Op::Linear(WeightId::Wq)));
        }
    }

    #[test]
    fn truncated_output_is_never_elided() {
        // "attn_out" is the declared output of the truncated graph, so
        // the Wo Linear must survive even though the Add is gone with it.
        let g = mha_graph(&cfg()).truncated("attn_out");
        let fused = fuse(&g);
        assert!(fused
            .nodes
            .iter()
            .any(|n| n.op == Op::Linear(WeightId::Wo) && n.output == "attn_out"));
    }

    #[test]
    fn multi_consumer_linear_is_not_fused() {
        // Give the FFN's pre-activation a second consumer; fusing W1
        // would then erase an observable tensor.
        let mut g = ffn_graph(&cfg());
        let ln = g.nodes.len() - 1;
        g.nodes[ln].inputs.push("pre".into());
        let fused = fuse(&g);
        assert!(fused.nodes.iter().any(|n| n.op == Op::Linear(WeightId::W1)));
        assert!(fused
            .nodes
            .iter()
            .all(|n| n.op != Op::LinearRelu(WeightId::W1)));
        // The W2 → Add pair is still independently fusable.
        assert!(fused
            .nodes
            .iter()
            .any(|n| n.op == Op::LinearAdd(WeightId::W2)));
    }

    #[test]
    fn fuse_is_idempotent() {
        let g = ffn_graph(&cfg());
        let once = fuse(&g);
        assert_eq!(fuse(&once), once);
    }

    #[test]
    fn fused_graphs_plan() {
        for g in [
            fuse(&mha_graph(&cfg())),
            fuse(&mha_cached_graph(&cfg())),
            fuse(&ffn_graph(&cfg())),
        ] {
            let plan = g.plan();
            assert_eq!(plan.steps.len(), g.nodes.len());
            assert_eq!(plan.slot_names[plan.output_slot], "y");
        }
    }
}
