//! The ResBlock graphs: nodes over named tensors, builders, and the
//! slot-resolved execution plan.

use std::sync::Arc;

use crate::op::{Op, WeightId};

/// The shape parameters a graph is built from — the subset of the model
/// configuration the two ResBlocks care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// Model width (`d_model`).
    pub d_model: usize,
    /// FFN hidden width (`d_ff`); unused by the MHA graphs.
    pub d_ff: usize,
    /// Number of attention heads; unused by the FFN graph.
    pub h: usize,
}

impl GraphConfig {
    /// Per-head width `d_model / h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is zero or does not divide `d_model`.
    pub fn d_k(&self) -> usize {
        assert!(self.h > 0, "h must be positive");
        assert_eq!(self.d_model % self.h, 0, "h must divide d_model");
        self.d_model / self.h
    }
}

/// Which ResBlock dataflow a graph encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// The full MHA ResBlock: project K/V from an input, Fig. 3a.
    Mha,
    /// The MHA ResBlock against **already projected** per-row K/V caches
    /// (the incremental-decode dataflow; K/V projections happen outside
    /// the graph when the cached rows are appended).
    MhaCached,
    /// The position-wise FFN ResBlock, Fig. 3b.
    Ffn,
}

/// One node: an operator applied to named inputs, producing one named
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Head index for nodes inside a per-head group (`None` for the
    /// shared pre/post sections). Executors may fan head groups out
    /// across threads; nodes of one head are contiguous and heads appear
    /// in ascending order.
    pub head: Option<usize>,
    /// Names of the tensors this node consumes.
    pub inputs: Vec<String>,
    /// Name of the tensor this node produces (unique per graph).
    pub output: String,
}

/// A ResBlock dataflow: graph inputs, nodes in executable order, and the
/// designated output tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// Which ResBlock this graph encodes.
    pub kind: GraphKind,
    /// Shape parameters the graph was built for.
    pub cfg: GraphConfig,
    /// Names of the tensors the caller must bind.
    pub inputs: Vec<String>,
    /// Nodes in dependency order (node `i` only reads graph inputs and
    /// outputs of nodes `< i`).
    pub nodes: Vec<Node>,
    /// Name of the graph's final output tensor.
    pub output: String,
}

impl Graph {
    /// Checks the dataflow invariants: single assignment, every input
    /// defined before use, the declared output produced by some node,
    /// and per-head groups contiguous in ascending head order.
    ///
    /// Builder-produced graphs always validate; this is for hand-built
    /// or truncated graphs.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub(crate) fn validate(&self) {
        let mut defined: Vec<&str> = self.inputs.iter().map(String::as_str).collect();
        let mut last_head: Option<usize> = None;
        let mut heads_done = false;
        for node in &self.nodes {
            for input in &node.inputs {
                assert!(
                    defined.iter().any(|d| d == input),
                    "node output {:?} reads undefined tensor {input:?}",
                    node.output
                );
            }
            assert!(
                !defined.iter().any(|d| *d == node.output),
                "tensor {:?} assigned twice",
                node.output
            );
            defined.push(&node.output);
            match (node.head, last_head) {
                (Some(h), None) => {
                    assert!(!heads_done, "head groups must be contiguous");
                    assert_eq!(h, 0, "head groups must start at head 0");
                    last_head = Some(h);
                }
                (Some(h), Some(prev)) => {
                    assert!(
                        h == prev || h == prev + 1,
                        "head groups must be contiguous and ascending"
                    );
                    last_head = Some(h);
                }
                (None, Some(_)) => {
                    heads_done = true;
                    last_head = None;
                }
                (None, None) => {}
            }
        }
        assert!(
            defined.iter().any(|d| *d == self.output),
            "declared output {:?} is never produced",
            self.output
        );
    }

    /// A copy of this graph cut short at the node producing `output`
    /// (inclusive). Used e.g. to evaluate the pre-residual attention
    /// output without running the residual add and LayerNorm.
    ///
    /// # Panics
    ///
    /// Panics if no node produces `output`.
    pub fn truncated(&self, output: &str) -> Graph {
        let end = self
            .nodes
            .iter()
            .position(|n| n.output == output)
            .unwrap_or_else(|| panic!("no node produces {output:?}"));
        Graph {
            kind: self.kind,
            cfg: self.cfg,
            inputs: self.inputs.clone(),
            nodes: self.nodes[..=end].to_vec(),
            output: output.to_string(),
        }
    }

    /// Resolves tensor names to dense value slots: one slot per graph
    /// input and per node output, in that order. Executors walk
    /// [`ExecPlan::steps`] and index slots instead of comparing strings
    /// per node.
    ///
    /// # Panics
    ///
    /// Panics if the graph does not [`Graph::validate`].
    pub fn plan(&self) -> ExecPlan {
        self.validate();
        let mut slot_names: Vec<String> = self.inputs.clone();
        slot_names.extend(self.nodes.iter().map(|n| n.output.clone()));
        let slot_of = |name: &str, upto: usize| -> usize {
            slot_names[..upto]
                .iter()
                .position(|n| n == name)
                .expect("validated graph resolves every name")
        };
        let n_inputs = self.inputs.len();
        let steps = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| PlanStep {
                node: i,
                inputs: node
                    .inputs
                    .iter()
                    .map(|name| slot_of(name, n_inputs + i))
                    .collect(),
                output: n_inputs + i,
            })
            .collect();
        let output_slot = slot_of(&self.output, slot_names.len());
        ExecPlan {
            slot_names: slot_names.into(),
            steps,
            output_slot,
        }
    }
}

/// One executable step of an [`ExecPlan`]: which node to run and which
/// value slots it reads and writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Index into [`Graph::nodes`].
    pub node: usize,
    /// Slot indices of the node's inputs (same order as
    /// [`Node::inputs`]).
    pub inputs: Vec<usize>,
    /// Slot index the node's output is stored into.
    pub output: usize,
}

/// A name-resolved execution order for one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    /// Slot index → tensor name (graph inputs first, then node outputs).
    /// Shared, so every [`Env`](crate::Env) of a run borrows the plan's
    /// names instead of cloning ~70 `String`s.
    pub slot_names: Arc<[String]>,
    /// Steps in graph-node order.
    pub steps: Vec<PlanStep>,
    /// Slot holding the graph's declared output.
    pub output_slot: usize,
}

/// Appends the per-head node group for head `i`, reading the named
/// query/key/value sources. The node order inside a group mirrors
/// Algorithm 1 lines 3–7 (`ProjectQ`, `ProjectK`, score tiles, softmax,
/// `ProjectV`, context), which is exactly what the ISA lowering relies
/// on.
fn push_head_group(nodes: &mut Vec<Node>, i: usize, q_src: &str, k_src: &str, v_src: &str) {
    let head = Some(i);
    nodes.push(Node {
        op: Op::SplitHeads,
        head,
        inputs: vec![q_src.into()],
        output: format!("q.{i}"),
    });
    nodes.push(Node {
        op: Op::SplitHeads,
        head,
        inputs: vec![k_src.into()],
        output: format!("k.{i}"),
    });
    nodes.push(Node {
        op: Op::HeadMatmul {
            transpose_rhs: true,
        },
        head,
        inputs: vec![format!("q.{i}"), format!("k.{i}")],
        output: format!("scores.{i}"),
    });
    nodes.push(Node {
        op: Op::ScaledMaskedSoftmax,
        head,
        inputs: vec![format!("scores.{i}")],
        output: format!("probs.{i}"),
    });
    nodes.push(Node {
        op: Op::SplitHeads,
        head,
        inputs: vec![v_src.into()],
        output: format!("v.{i}"),
    });
    nodes.push(Node {
        op: Op::HeadMatmul {
            transpose_rhs: false,
        },
        head,
        inputs: vec![format!("probs.{i}"), format!("v.{i}")],
        output: format!("p.{i}"),
    });
}

/// Appends the shared MHA tail: concat, output projection, residual add
/// (residual input first, matching the reference implementations), and
/// LayerNorm producing `"y"`.
fn push_mha_tail(nodes: &mut Vec<Node>, h: usize, residual: &str) {
    nodes.push(Node {
        op: Op::Concat,
        head: None,
        inputs: (0..h).map(|i| format!("p.{i}")).collect(),
        output: "p".into(),
    });
    nodes.push(Node {
        op: Op::Linear(WeightId::Wo),
        head: None,
        inputs: vec!["p".into()],
        output: "attn_out".into(),
    });
    nodes.push(Node {
        op: Op::Add,
        head: None,
        inputs: vec![residual.into(), "attn_out".into()],
        output: "g".into(),
    });
    nodes.push(Node {
        op: Op::LayerNorm,
        head: None,
        inputs: vec!["g".into()],
        output: "y".into(),
    });
}

/// The full MHA ResBlock graph (Fig. 3a / Algorithm 1 lines 1–13):
/// inputs `x_q`, `x_k`, `x_v`; output `y = LayerNorm(x_q + MHA(...))`.
/// In the Transformer `x_k` and `x_v` are always the same tensor
/// (Fig. 1); they are distinct graph inputs so the key and value
/// projections have explicit sources.
///
/// # Panics
///
/// Panics if `cfg.h` is zero or does not divide `cfg.d_model`.
pub fn mha_graph(cfg: &GraphConfig) -> Graph {
    let _ = cfg.d_k();
    let mut nodes = Vec::new();
    nodes.push(Node {
        op: Op::Linear(WeightId::Wq),
        head: None,
        inputs: vec!["x_q".into()],
        output: "q".into(),
    });
    nodes.push(Node {
        op: Op::Linear(WeightId::Wk),
        head: None,
        inputs: vec!["x_k".into()],
        output: "k".into(),
    });
    nodes.push(Node {
        op: Op::Linear(WeightId::Wv),
        head: None,
        inputs: vec!["x_v".into()],
        output: "v".into(),
    });
    for i in 0..cfg.h {
        push_head_group(&mut nodes, i, "q", "k", "v");
    }
    push_mha_tail(&mut nodes, cfg.h, "x_q");
    let g = Graph {
        kind: GraphKind::Mha,
        cfg: *cfg,
        inputs: vec!["x_q".into(), "x_k".into(), "x_v".into()],
        nodes,
        output: "y".into(),
    };
    g.validate();
    g
}

/// The cached-KV MHA ResBlock dataflow of incremental decoding,
/// written down: inputs `x` (one active row per session), `keys`/`vals`
/// (per-row projected caches); output `y`. The K/V projections are
/// *not* part of this graph — cache rows are projected once when
/// appended, which is the entire point of KV caching. No executor runs
/// it (the decoders implement it as plain functions; see the crate
/// docs); the fusion pass is tested and timed on it.
///
/// # Panics
///
/// Panics if `cfg.h` is zero or does not divide `cfg.d_model`.
pub fn mha_cached_graph(cfg: &GraphConfig) -> Graph {
    let _ = cfg.d_k();
    let mut nodes = vec![Node {
        op: Op::Linear(WeightId::Wq),
        head: None,
        inputs: vec!["x".into()],
        output: "q".into(),
    }];
    for i in 0..cfg.h {
        push_head_group(&mut nodes, i, "q", "keys", "vals");
    }
    push_mha_tail(&mut nodes, cfg.h, "x");
    let g = Graph {
        kind: GraphKind::MhaCached,
        cfg: *cfg,
        inputs: vec!["x".into(), "keys".into(), "vals".into()],
        nodes,
        output: "y".into(),
    };
    g.validate();
    g
}

/// The FFN ResBlock graph (Fig. 3b / Algorithm 1 lines 14–22): input
/// `x`; output `y = LayerNorm(x + ReLU(x W1 + b1) W2 + b2)`.
///
/// # Panics
///
/// Panics if `cfg.d_ff` is zero.
pub fn ffn_graph(cfg: &GraphConfig) -> Graph {
    assert!(cfg.d_ff > 0, "d_ff must be positive");
    let nodes = vec![
        Node {
            op: Op::Linear(WeightId::W1),
            head: None,
            inputs: vec!["x".into()],
            output: "pre".into(),
        },
        Node {
            op: Op::Relu,
            head: None,
            inputs: vec!["pre".into()],
            output: "hidden".into(),
        },
        Node {
            op: Op::Linear(WeightId::W2),
            head: None,
            inputs: vec!["hidden".into()],
            output: "ffn_out".into(),
        },
        Node {
            op: Op::Add,
            head: None,
            inputs: vec!["x".into(), "ffn_out".into()],
            output: "g".into(),
        },
        Node {
            op: Op::LayerNorm,
            head: None,
            inputs: vec!["g".into()],
            output: "y".into(),
        },
    ];
    let g = Graph {
        kind: GraphKind::Ffn,
        cfg: *cfg,
        inputs: vec!["x".into()],
        nodes,
        output: "y".into(),
    };
    g.validate();
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GraphConfig {
        GraphConfig {
            d_model: 128,
            d_ff: 512,
            h: 2,
        }
    }

    #[test]
    fn mha_graph_validates_and_plans() {
        let g = mha_graph(&cfg());
        // 3 projections + 6 per head + concat/wo/add/ln
        assert_eq!(g.nodes.len(), 3 + 6 * 2 + 4);
        let plan = g.plan();
        assert_eq!(plan.steps.len(), g.nodes.len());
        assert_eq!(plan.slot_names[plan.output_slot], "y");
    }

    #[test]
    fn cached_graph_has_no_kv_projections() {
        let g = mha_cached_graph(&cfg());
        let projections = g
            .nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Linear(WeightId::Wk | WeightId::Wv)))
            .count();
        assert_eq!(projections, 0);
        assert_eq!(g.nodes.len(), 1 + 6 * 2 + 4);
    }

    #[test]
    fn ffn_graph_shape() {
        let g = ffn_graph(&cfg());
        assert_eq!(g.nodes.len(), 5);
        assert_eq!(g.output, "y");
        assert!(matches!(g.nodes[0].op, Op::Linear(WeightId::W1)));
    }

    #[test]
    fn head_groups_are_contiguous_and_ordered() {
        let g = mha_graph(&cfg());
        let heads: Vec<Option<usize>> = g.nodes.iter().map(|n| n.head).collect();
        let first = heads.iter().position(|h| h.is_some()).unwrap();
        let last = heads.iter().rposition(|h| h.is_some()).unwrap();
        assert!(heads[..first].iter().all(|h| h.is_none()));
        assert!(heads[last + 1..].iter().all(|h| h.is_none()));
        let mut prev = 0usize;
        for h in heads[first..=last].iter().map(|h| h.unwrap()) {
            assert!(h == prev || h == prev + 1);
            prev = h;
        }
        assert_eq!(prev, cfg().h - 1);
    }

    #[test]
    fn truncated_graph_ends_at_requested_tensor() {
        let g = mha_graph(&cfg()).truncated("attn_out");
        assert_eq!(g.output, "attn_out");
        assert_eq!(g.nodes.last().unwrap().op, Op::Linear(WeightId::Wo));
        g.validate();
        let plan = g.plan();
        assert_eq!(plan.slot_names[plan.output_slot], "attn_out");
    }

    #[test]
    #[should_panic(expected = "never produced")]
    fn missing_output_rejected() {
        let mut g = ffn_graph(&cfg());
        g.output = "nonsense".into();
        g.validate();
    }

    #[test]
    #[should_panic(expected = "undefined tensor")]
    fn undefined_input_rejected() {
        let mut g = ffn_graph(&cfg());
        g.nodes[0].inputs[0] = "ghost".into();
        g.validate();
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_assignment_rejected() {
        let mut g = ffn_graph(&cfg());
        let out = g.nodes[0].output.clone();
        g.nodes[1].output = out;
        g.validate();
    }

    #[test]
    #[should_panic(expected = "no node produces")]
    fn truncating_at_unknown_tensor_panics() {
        let _ = ffn_graph(&cfg()).truncated("ghost");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_head_split_rejected() {
        let _ = mha_graph(&GraphConfig {
            d_model: 100,
            d_ff: 0,
            h: 3,
        });
    }
}
