//! The position-wise feed-forward ResBlock (Eq. (2) of the paper):
//! `LayerNorm(x + ReLU(x W1 + b1) W2 + b2)`.

use graph::Executor;
use rand::Rng;
use tensor::{ops, Mat};

use crate::config::ModelConfig;
use crate::layernorm::LayerNorm;
use crate::linear::Linear;
use crate::opt::HasParams;

/// The FFN ResBlock — the second layer type the accelerator implements
/// (Algorithm 1, lines 14–22).
#[derive(Debug, Clone)]
pub struct FfnResBlock {
    lin1: Linear,
    lin2: Linear,
    ln: LayerNorm,
    cache_pre_relu: Option<Mat<f32>>,
}

impl FfnResBlock {
    /// Creates a ResBlock for the given configuration.
    pub fn new(cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self::with_name("ffn_res", cfg, rng)
    }

    /// Creates a named ResBlock (names scope optimizer state).
    pub fn with_name(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        cfg.validate();
        Self {
            lin1: Linear::new(format!("{name}.lin1"), cfg.d_model, cfg.d_ff, rng),
            lin2: Linear::new(format!("{name}.lin2"), cfg.d_ff, cfg.d_model, rng),
            ln: LayerNorm::new(format!("{name}.ln"), cfg.d_model),
            cache_pre_relu: None,
        }
    }

    /// Borrows the two linear sublayers `(W1/b1, W2/b2)` — used by the
    /// quantized model to import trained weights.
    pub fn sublayers(&self) -> (&Linear, &Linear) {
        (&self.lin1, &self.lin2)
    }

    /// Borrow of the inner layer norm.
    pub fn layernorm(&self) -> &LayerNorm {
        &self.ln
    }

    /// Forward: `LayerNorm(x + ReLU(x W1 + b1) W2 + b2)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_model`.
    pub fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        let pre = self.lin1.forward(x);
        let hidden = ops::relu(&pre);
        self.cache_pre_relu = Some(pre);
        let sub = self.lin2.forward(&hidden);
        let res = ops::add(x, &sub).expect("residual shape invariant");
        self.ln.forward(&res)
    }

    /// Inference-only forward (no gradient caches touched). Runs the
    /// [`graph::ffn_graph`] dataflow, fused by [`graph::fuse`], through
    /// [`crate::exec::FloatExec`].
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        let g = graph::fuse(&graph::ffn_graph(&self.graph_config()));
        let mut exec = crate::exec::FloatExec::ffn_res(self);
        let mut env = exec.run(&g, vec![("x", x.clone())], None);
        env.take("y")
    }

    /// The graph-shape parameters of this block (`h` is not an FFN
    /// concern and is left at one).
    pub fn graph_config(&self) -> graph::GraphConfig {
        graph::GraphConfig {
            d_model: self.lin1.d_in(),
            d_ff: self.lin1.d_out(),
            h: 1,
        }
    }

    /// Backward: returns `dX` (residual path included).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let pre = self
            .cache_pre_relu
            .take()
            .expect("ffn backward called without forward");
        let dres = self.ln.backward(dy);
        let dhidden = self.lin2.backward(&dres);
        let dpre = ops::hadamard(&dhidden, &ops::relu_grad_mask(&pre)).expect("shape invariant");
        let dx_ffn = self.lin1.backward(&dpre);
        ops::add(&dres, &dx_ffn).expect("residual shape invariant")
    }
}

impl HasParams for FfnResBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
        self.ln.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_normalization() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(1);
        let mut blk = FfnResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
        let y = blk.forward(&x);
        assert_eq!(y.shape(), (5, cfg.d_model));
        for r in 0..5 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / cfg.d_model as f32;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(2);
        let mut blk = FfnResBlock::new(&cfg, &mut rng);
        let (d, f) = (cfg.d_model, cfg.d_ff);
        // W1 + b1 + W2 + b2 + gamma + beta
        assert_eq!(blk.param_count(), d * f + f + f * d + d + 2 * d);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let cfg = ModelConfig {
            name: "micro".into(),
            d_model: 6,
            d_ff: 12,
            h: 2,
            n_layers: 1,
            vocab: 8,
            max_len: 4,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut blk = FfnResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 3, 6, 1.0);
        let dy = tensor::init::normal(&mut rng, 3, 6, 1.0);

        let _ = blk.forward(&x);
        let dx = blk.backward(&dy);

        let mut blk2 = blk.clone();
        let loss = |b: &mut FfnResBlock, x: &Mat<f32>| -> f32 {
            b.forward(x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, g)| a * g)
                .sum()
        };
        let h = 1e-3f32;
        for r in 0..3 {
            for c in 0..6 {
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
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(4);
        let mut blk = FfnResBlock::new(&cfg, &mut rng);
        let _ = blk.backward(&Mat::zeros(1, cfg.d_model));
    }

    #[test]
    fn relu_cache_consumed_each_pass() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let mut blk = FfnResBlock::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, cfg.d_model, 1.0);
        let dy = Mat::filled(2, cfg.d_model, 1.0f32);
        let _ = blk.forward(&x);
        let _ = blk.backward(&dy);
        // second forward/backward works fine (cache re-populated)
        let _ = blk.forward(&x);
        let _ = blk.backward(&dy);
    }
}
