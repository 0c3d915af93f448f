//! Multi-head attention and the MHA ResBlock (Fig. 2 of the paper).
//!
//! Projections are stored as full `d_model x d_model` matrices; each
//! head uses a 64-column panel, exactly the layout the accelerator's
//! partitioning scheme (Fig. 4) exploits.

use rand::Rng;
use tensor::{ops, Mat};

use crate::attention::{attention_backward, attention_forward, AttentionCache};
use crate::config::ModelConfig;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::opt::HasParams;

/// Multi-head attention: `h` scaled dot-product heads over 64-wide
/// projections, concatenated and linearly combined (`W_G` in the paper's
/// notation, `W^O` in Vaswani et al.).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    h: usize,
    d_k: usize,
    head_caches: Vec<AttentionCache>,
}

impl MultiHeadAttention {
    /// Creates an MHA block for the given configuration.
    pub(crate) fn new(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        cfg.validate();
        let d = cfg.d_model;
        Self {
            wq: Linear::new(format!("{name}.wq"), d, d, rng),
            wk: Linear::new(format!("{name}.wk"), d, d, rng),
            wv: Linear::new(format!("{name}.wv"), d, d, rng),
            wo: Linear::new(format!("{name}.wo"), d, d, rng),
            h: cfg.h,
            d_k: cfg.d_k(),
            head_caches: Vec::new(),
        }
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.h
    }

    /// Borrow of the four projection layers `(W_Q, W_K, W_V, W_G)` — used
    /// by the quantized model to import trained weights.
    pub fn projections(&self) -> (&Linear, &Linear, &Linear, &Linear) {
        (&self.wq, &self.wk, &self.wv, &self.wo)
    }

    /// Forward pass. `xq: [s_q, d_model]`, `xk`/`xv`: `[s_v, d_model]`
    /// (always equal tensors in the Transformer, see Fig. 1); optional
    /// mask is `[s_q, s_v]`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ from `d_model`.
    pub(crate) fn forward(
        &mut self,
        xq: &Mat<f32>,
        xk: &Mat<f32>,
        xv: &Mat<f32>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let q = self.wq.forward(xq);
        let k = self.wk.forward(xk);
        let v = self.wv.forward(xv);
        let scale = 1.0 / (self.d_k as f32).sqrt();
        self.head_caches.clear();
        let mut heads = Vec::with_capacity(self.h);
        for i in 0..self.h {
            let c0 = i * self.d_k;
            let qi = q.submatrix(0, c0, q.rows(), self.d_k).expect("head panel");
            let ki = k.submatrix(0, c0, k.rows(), self.d_k).expect("head panel");
            let vi = v.submatrix(0, c0, v.rows(), self.d_k).expect("head panel");
            let (out, cache) = attention_forward(&qi, &ki, &vi, mask, scale);
            heads.push(out);
            self.head_caches.push(cache);
        }
        let concat = Mat::hconcat(&heads).expect("heads share row count");
        self.wo.forward(&concat)
    }

    /// Inference-only forward (no gradient caches touched). Runs the
    /// [`graph::mha_graph`] dataflow truncated at the pre-residual
    /// attention output, interpreted by [`crate::exec::FloatExec`].
    #[cfg(test)]
    pub(crate) fn forward_inference(
        &self,
        xq: &Mat<f32>,
        xk: &Mat<f32>,
        xv: &Mat<f32>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let g = graph::mha_graph(&self.graph_config()).truncated("attn_out");
        let mut env = crate::exec::FloatExec::mha(self).run(
            &g,
            vec![
                ("x_q", xq.clone()),
                ("x_k", xk.clone()),
                ("x_v", xv.clone()),
            ],
            mask,
        );
        env.take("attn_out")
    }

    /// The graph-shape parameters of this block (`d_ff` is not an MHA
    /// concern and is left zero).
    pub fn graph_config(&self) -> graph::GraphConfig {
        graph::GraphConfig {
            d_model: self.wq.d_in(),
            d_ff: 0,
            h: self.h,
        }
    }

    /// Backward pass: returns `(dxq, dxk, dxv)`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> (Mat<f32>, Mat<f32>, Mat<f32>) {
        assert!(
            !self.head_caches.is_empty(),
            "mha backward called without forward"
        );
        let dconcat = self.wo.backward(dy);
        let mut dqs = Vec::with_capacity(self.h);
        let mut dks = Vec::with_capacity(self.h);
        let mut dvs = Vec::with_capacity(self.h);
        for (i, cache) in self.head_caches.drain(..).enumerate() {
            let c0 = i * self.d_k;
            let dhead = dconcat
                .submatrix(0, c0, dconcat.rows(), self.d_k)
                .expect("head panel");
            let (dq, dk, dv) = attention_backward(&cache, &dhead);
            dqs.push(dq);
            dks.push(dk);
            dvs.push(dv);
        }
        let dq = Mat::hconcat(&dqs).expect("heads share row count");
        let dk = Mat::hconcat(&dks).expect("heads share row count");
        let dv = Mat::hconcat(&dvs).expect("heads share row count");
        (
            self.wq.backward(&dq),
            self.wk.backward(&dk),
            self.wv.backward(&dv),
        )
    }
}

impl HasParams for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

/// The MHA **ResBlock**: `LayerNorm(x_q + MHA(x_q, x_k, x_v))` — one of
/// the two layer types the accelerator implements (Algorithm 1, lines
/// 1–13).
#[derive(Debug, Clone)]
pub struct MhaResBlock {
    /// The wrapped attention block.
    mha: MultiHeadAttention,
    ln: LayerNorm,
}

impl MhaResBlock {
    /// Creates a ResBlock for the given configuration.
    pub fn new(cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self::with_name("mha_res", cfg, rng)
    }

    /// Creates a named ResBlock (names scope optimizer state).
    pub(crate) fn with_name(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self {
            mha: MultiHeadAttention::new(name, cfg, rng),
            ln: LayerNorm::new(format!("{name}.ln"), cfg.d_model),
        }
    }

    /// Borrow of the inner attention block.
    pub fn mha(&self) -> &MultiHeadAttention {
        &self.mha
    }

    /// Borrow of the inner layer norm.
    pub fn layernorm(&self) -> &LayerNorm {
        &self.ln
    }

    /// Forward: `LayerNorm(x_q + MHA(x_q, x_k, x_v, mask))`.
    pub fn forward(
        &mut self,
        xq: &Mat<f32>,
        xk: &Mat<f32>,
        xv: &Mat<f32>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let sub = self.mha.forward(xq, xk, xv, mask);
        let res = ops::add(xq, &sub).expect("residual shape invariant");
        self.ln.forward(&res)
    }

    /// Inference-only forward (no gradient caches touched). Runs the
    /// full [`graph::mha_graph`] dataflow — projections, heads, concat,
    /// output projection, residual and LayerNorm — fused by
    /// [`graph::fuse`], through [`crate::exec::FloatExec`].
    pub fn forward_inference(
        &self,
        xq: &Mat<f32>,
        xk: &Mat<f32>,
        xv: &Mat<f32>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let g = graph::fuse(&graph::mha_graph(&self.mha.graph_config()));
        let mut env = crate::exec::FloatExec::mha_res(self).run(
            &g,
            vec![
                ("x_q", xq.clone()),
                ("x_k", xk.clone()),
                ("x_v", xv.clone()),
            ],
            mask,
        );
        env.take("y")
    }

    /// Backward: returns `(dxq, dxk, dxv)` with the residual path folded
    /// into `dxq`.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> (Mat<f32>, Mat<f32>, Mat<f32>) {
        let dres = self.ln.backward(dy);
        let (dxq_mha, dxk, dxv) = self.mha.backward(&dres);
        let dxq = ops::add(&dres, &dxq_mha).expect("residual shape invariant");
        (dxq, dxk, dxv)
    }
}

impl HasParams for MhaResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.mha.visit_params(f);
        self.ln.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> ModelConfig {
        ModelConfig::tiny_for_tests()
    }

    #[test]
    fn forward_shapes() {
        let cfg = tiny();
        let mut rng = StdRng::seed_from_u64(1);
        let mut mha = MultiHeadAttention::new("t", &cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
        let y = mha.forward(&x, &x, &x, None);
        assert_eq!(y.shape(), (6, cfg.d_model));
    }

    #[test]
    fn cross_attention_shapes() {
        let cfg = tiny();
        let mut rng = StdRng::seed_from_u64(2);
        let mut mha = MultiHeadAttention::new("t", &cfg, &mut rng);
        let xq = tensor::init::normal(&mut rng, 3, cfg.d_model, 1.0);
        let xkv = tensor::init::normal(&mut rng, 7, cfg.d_model, 1.0);
        let y = mha.forward(&xq, &xkv, &xkv, None);
        assert_eq!(y.shape(), (3, cfg.d_model));
    }

    #[test]
    fn param_count_matches_four_projections() {
        let cfg = tiny();
        let mut rng = StdRng::seed_from_u64(3);
        let mut mha = MultiHeadAttention::new("t", &cfg, &mut rng);
        let d = cfg.d_model;
        assert_eq!(mha.param_count(), 4 * (d * d + d));
    }

    #[test]
    fn resblock_normalizes_output_rows() {
        let cfg = tiny();
        let mut rng = StdRng::seed_from_u64(4);
        let mut blk = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
        let y = blk.forward(&x, &x, &x, None);
        for r in 0..5 {
            let n = cfg.d_model as f32;
            let mean: f32 = y.row(r).iter().sum::<f32>() / n;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        }
    }

    #[test]
    fn mha_gradients_match_finite_differences() {
        let cfg = ModelConfig {
            name: "micro".into(),
            d_model: 8,
            d_ff: 16,
            h: 2,
            n_layers: 1,
            vocab: 8,
            max_len: 4,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut blk = MhaResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 3, 8, 1.0);
        let dy = tensor::init::normal(&mut rng, 3, 8, 1.0);

        let _ = blk.forward(&x, &x, &x, None);
        let (dxq, dxk, dxv) = blk.backward(&dy);
        // self-attention: total dx = dxq + dxk + dxv
        let dx = ops::add(&ops::add(&dxq, &dxk).unwrap(), &dxv).unwrap();

        let mut blk2 = blk.clone();
        let loss = |b: &mut MhaResBlock, x: &Mat<f32>| -> f32 {
            b.forward(x, x, x, None)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let h = 1e-3f32;
        for r in 0..3 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp[(r, c)] += h;
                let mut xm = x.clone();
                xm[(r, c)] -= h;
                let fd = (loss(&mut blk2, &xp) - loss(&mut blk2, &xm)) / (2.0 * h);
                assert!(
                    (fd - dx[(r, c)]).abs() < 5e-2,
                    "dx({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        let cfg = tiny();
        let mut rng = StdRng::seed_from_u64(6);
        let mut mha = MultiHeadAttention::new("t", &cfg, &mut rng);
        let _ = mha.backward(&Mat::zeros(1, cfg.d_model));
    }
}
