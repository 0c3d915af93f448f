//! The FP32 executor for the ResBlock operator graphs.
//!
//! [`FloatExec`] interprets a graph node-by-node with the reference FP32
//! primitives — it is what [`crate::mha::MhaResBlock::forward_inference`],
//! [`crate::mha::MultiHeadAttention::forward_inference`] and
//! [`crate::ffn::FfnResBlock::forward_inference`] run through.
//!
//! It is **bit-identical** to the hand-rolled loops it replaced: it
//! calls the same primitives (`gemm`, `ops`, `softmax_rows`,
//! `layernorm_rows`) in the same order, and the GEMM kernels never
//! reorder a row's accumulation.

use graph::{Env, ExecStats, Executor, Graph, Node, Op, PlanStep, WeightId};
use tensor::{gemm, ops, Mat};

use crate::ffn::FfnResBlock;
use crate::functional::softmax_rows;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::mha::{MhaResBlock, MultiHeadAttention};

fn weight_index(id: WeightId) -> usize {
    match id {
        WeightId::Wq => 0,
        WeightId::Wk => 1,
        WeightId::Wv => 2,
        WeightId::Wo => 3,
        WeightId::W1 => 4,
        WeightId::W2 => 5,
    }
}

/// FP32 graph interpreter over a ResBlock's parameters.
///
/// Binds borrowed [`Linear`] layers to [`WeightId`] slots plus an
/// optional [`LayerNorm`]; [`Executor::run`] then walks the plan
/// sequentially, evaluating each node with the reference primitives.
#[derive(Debug)]
pub struct FloatExec<'a> {
    weights: [Option<&'a Linear>; 6],
    ln: Option<&'a LayerNorm>,
    stats: ExecStats,
}

impl<'a> FloatExec<'a> {
    /// Executor over a full MHA ResBlock (all four projections + LayerNorm).
    pub fn mha_res(block: &'a MhaResBlock) -> Self {
        let mut e = Self::mha(block.mha());
        e.ln = Some(block.layernorm());
        e
    }

    /// Executor over a bare attention block (no LayerNorm bound; graphs
    /// must be truncated before any `LayerNorm` node).
    pub fn mha(mha: &'a MultiHeadAttention) -> Self {
        let (wq, wk, wv, wo) = mha.projections();
        Self {
            weights: [Some(wq), Some(wk), Some(wv), Some(wo), None, None],
            ln: None,
            stats: ExecStats::default(),
        }
    }

    /// Executor over an FFN ResBlock (both sublayers + LayerNorm).
    pub fn ffn_res(block: &'a FfnResBlock) -> Self {
        let (lin1, lin2) = block.sublayers();
        Self {
            weights: [None, None, None, None, Some(lin1), Some(lin2)],
            ln: Some(block.layernorm()),
            stats: ExecStats::default(),
        }
    }

    fn weight(&self, id: WeightId) -> &'a Linear {
        self.weights[weight_index(id)].unwrap_or_else(|| panic!("no {id:?} bound to this executor"))
    }

    fn eval(
        &self,
        graph: &Graph,
        node: &Node,
        step: &PlanStep,
        env: &Env<Mat<f32>>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let input = |i: usize| env.value(step.inputs[i]);
        match node.op {
            Op::Linear(id) => self.weight(id).forward_inference(input(0)),
            Op::SplitHeads => {
                let d_k = graph.cfg.d_k();
                let c0 = node.head.expect("SplitHeads outside a head group") * d_k;
                let x = input(0);
                x.submatrix(0, c0, x.rows(), d_k).expect("head panel")
            }
            Op::HeadMatmul { transpose_rhs } => {
                let (a, b) = (input(0), input(1));
                if transpose_rhs {
                    gemm::matmul_nt(a, b).expect("head shapes")
                } else {
                    gemm::matmul(a, b).expect("head shapes")
                }
            }
            Op::ScaledMaskedSoftmax => {
                let scale = 1.0 / (graph.cfg.d_k() as f32).sqrt();
                let scores = ops::scale(input(0), scale);
                let masked = match mask {
                    Some(m) => ops::mask_scores(&scores, m).expect("mask shape"),
                    None => scores,
                };
                softmax_rows(&masked, None)
            }
            Op::Concat => {
                let panels: Vec<Mat<f32>> =
                    step.inputs.iter().map(|&s| env.value(s).clone()).collect();
                Mat::hconcat(&panels).expect("heads share row count")
            }
            Op::Relu => ops::relu(input(0)),
            Op::Add => ops::add(input(0), input(1)).expect("residual shape invariant"),
            Op::LinearRelu(id) => self.weight(id).forward_inference_relu(input(0)),
            Op::LinearAdd(id) => self.weight(id).forward_inference_add(input(0), input(1)),
            Op::LayerNorm => self
                .ln
                .expect("no layernorm bound to this executor")
                .forward_inference(input(0)),
        }
    }
}

impl Executor for FloatExec<'_> {
    type Value = Mat<f32>;

    fn run(
        &mut self,
        graph: &Graph,
        inputs: Vec<(&str, Mat<f32>)>,
        mask: Option<&Mat<bool>>,
    ) -> Env<Mat<f32>> {
        let plan = graph.plan();
        let mut env = Env::new(plan.slot_names.clone());
        for (name, value) in inputs {
            let slot = env.slot(name);
            env.set(slot, value);
        }
        for step in &plan.steps {
            let node = &graph.nodes[step.node];
            let out = self.eval(graph, node, step, &env, mask);
            if matches!(node.op, Op::LinearRelu(_) | Op::LinearAdd(_)) {
                // The elided producer output has the fused node's shape.
                let bytes = out.rows() * out.cols() * std::mem::size_of::<f32>();
                self.stats.ops_fused += 1;
                self.stats.intermediates_elided_bytes += bytes;
                graph::tally::note_fused(1, bytes);
            }
            env.set(step.output, out);
            self.stats.nodes += 1;
        }
        env
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::attention_forward;
    use crate::config::ModelConfig;
    use graph::{ffn_graph, mha_graph, GraphConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gcfg(cfg: &ModelConfig) -> GraphConfig {
        GraphConfig {
            d_model: cfg.d_model,
            d_ff: cfg.d_ff,
            h: cfg.h,
        }
    }

    /// Frozen copy of the pre-refactor `MhaResBlock::forward_inference`
    /// loop — the golden reference the graph path must reproduce bit for
    /// bit.
    fn mha_res_reference(
        block: &MhaResBlock,
        xq: &Mat<f32>,
        xkv: &Mat<f32>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let mha = block.mha();
        let (wq, wk, wv, wo) = mha.projections();
        let h = mha.heads();
        let d_k = wq.d_in() / h;
        let q = wq.forward_inference(xq);
        let k = wk.forward_inference(xkv);
        let v = wv.forward_inference(xkv);
        let scale = 1.0 / (d_k as f32).sqrt();
        let mut heads = Vec::with_capacity(h);
        for i in 0..h {
            let c0 = i * d_k;
            let qi = q.submatrix(0, c0, q.rows(), d_k).unwrap();
            let ki = k.submatrix(0, c0, k.rows(), d_k).unwrap();
            let vi = v.submatrix(0, c0, v.rows(), d_k).unwrap();
            let (out, _) = attention_forward(&qi, &ki, &vi, mask, scale);
            heads.push(out);
        }
        let concat = Mat::hconcat(&heads).unwrap();
        let sub = wo.forward_inference(&concat);
        let res = ops::add(xq, &sub).unwrap();
        block.layernorm().forward_inference(&res)
    }

    #[test]
    fn float_exec_matches_reference_bitwise() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(11);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
        let want = mha_res_reference(&block, &x, &x, None);
        let got = block.forward_inference(&x, &x, &x, None);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn float_exec_matches_reference_with_mask() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(12);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let mask = Mat::from_fn(4, 4, |r, c| c > r);
        let want = mha_res_reference(&block, &x, &x, Some(&mask));
        let got = block.forward_inference(&x, &x, &x, Some(&mask));
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn truncated_graph_yields_pre_residual_attention() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(13);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 3, cfg.d_model, 1.0);
        let attn = block.mha().forward_inference(&x, &x, &x, None);
        let full = block.forward_inference(&x, &x, &x, None);
        let res = ops::add(&x, &attn).unwrap();
        let want = block.layernorm().forward_inference(&res);
        assert_eq!(full.as_slice(), want.as_slice());
    }

    #[test]
    fn ffn_exec_matches_reference_bitwise() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(14);
        let block = FfnResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
        // frozen pre-refactor loop
        let (lin1, lin2) = block.sublayers();
        let pre = lin1.forward_inference(&x);
        let hidden = ops::relu(&pre);
        let sub = lin2.forward_inference(&hidden);
        let res = ops::add(&x, &sub).unwrap();
        let want = block.layernorm().forward_inference(&res);
        let got = block.forward_inference(&x);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn exec_reports_node_counts() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(15);
        let block = FfnResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, cfg.d_model, 1.0);
        let g = ffn_graph(&gcfg(&cfg));
        let mut exec = FloatExec::ffn_res(&block);
        let mut env = exec.run(&g, vec![("x", x)], None);
        let _ = env.take("y");
        assert_eq!(exec.stats().nodes, g.nodes.len());
    }

    #[test]
    #[should_panic(expected = "no layernorm bound")]
    fn bare_attention_executor_rejects_layernorm_nodes() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(18);
        let block = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, cfg.d_model, 1.0);
        let g = mha_graph(&gcfg(&cfg));
        let mut exec = FloatExec::mha(block.mha());
        let _ = exec.run(
            &g,
            vec![("x_q", x.clone()), ("x_k", x.clone()), ("x_v", x)],
            None,
        );
    }
}
