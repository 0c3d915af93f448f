//! Decoder layer and decoder stack (right half of Fig. 1): masked
//! self-attention, encoder–decoder cross-attention, and the FFN ResBlock.

use rand::Rng;
use tensor::{ops, Mat};

use crate::config::ModelConfig;
use crate::ffn::FfnResBlock;
use crate::mha::MhaResBlock;
use crate::opt::HasParams;

/// One decoder layer: causal self-attention, cross-attention over the
/// encoder memory, then the FFN ResBlock.
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    self_mha: MhaResBlock,
    cross_mha: MhaResBlock,
    ffn: FfnResBlock,
}

impl DecoderLayer {
    /// Creates a layer with parameter names scoped by `name`.
    pub(crate) fn new(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self {
            self_mha: MhaResBlock::with_name(&format!("{name}.self"), cfg, rng),
            cross_mha: MhaResBlock::with_name(&format!("{name}.cross"), cfg, rng),
            ffn: FfnResBlock::with_name(&format!("{name}.ffn"), cfg, rng),
        }
    }

    /// Borrows the three ResBlocks `(self_mha, cross_mha, ffn)`.
    pub fn blocks(&self) -> (&MhaResBlock, &MhaResBlock, &FfnResBlock) {
        (&self.self_mha, &self.cross_mha, &self.ffn)
    }

    /// Forward pass. `x: [s_tgt, d_model]` decoder stream, `memory:
    /// [s_src, d_model]` encoder output, `self_mask` the causal mask.
    pub(crate) fn forward(
        &mut self,
        x: &Mat<f32>,
        memory: &Mat<f32>,
        self_mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let a = self.self_mha.forward(x, x, x, self_mask);
        let b = self.cross_mha.forward(&a, memory, memory, None);
        self.ffn.forward(&b)
    }

    /// Backward pass: returns `(dx, dmemory)`.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> (Mat<f32>, Mat<f32>) {
        let db = self.ffn.backward(dy);
        let (da, dmem_k, dmem_v) = self.cross_mha.backward(&db);
        let dmemory = ops::add(&dmem_k, &dmem_v).expect("shape invariant");
        let (dq, dk, dv) = self.self_mha.backward(&da);
        let dx = ops::add(&ops::add(&dq, &dk).expect("shape"), &dv).expect("shape");
        (dx, dmemory)
    }
}

impl HasParams for DecoderLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.self_mha.visit_params(f);
        self.cross_mha.visit_params(f);
        self.ffn.visit_params(f);
    }
}

/// A stack of `n_layers` identical decoder layers.
#[derive(Debug, Clone)]
pub struct Decoder {
    layers: Vec<DecoderLayer>,
}

impl Decoder {
    /// Creates the stack described by `cfg`.
    pub(crate) fn new(cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|i| DecoderLayer::new(&format!("dec{i}"), cfg, rng))
            .collect();
        Self { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow of the layer stack (used for weight export/quantization).
    pub fn layers(&self) -> &[DecoderLayer] {
        &self.layers
    }

    /// Forward through all layers.
    pub(crate) fn forward(
        &mut self,
        x: &Mat<f32>,
        memory: &Mat<f32>,
        self_mask: Option<&Mat<bool>>,
    ) -> Mat<f32> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, memory, self_mask);
        }
        h
    }

    /// Backward through all layers: returns `(dx, dmemory)` where
    /// `dmemory` accumulates every layer's cross-attention contribution.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> (Mat<f32>, Mat<f32>) {
        let mut d = dy.clone();
        let mut dmem_total: Option<Mat<f32>> = None;
        for layer in self.layers.iter_mut().rev() {
            let (dx, dmem) = layer.backward(&d);
            d = dx;
            dmem_total = Some(match dmem_total {
                Some(acc) => ops::add(&acc, &dmem).expect("shape invariant"),
                None => dmem,
            });
        }
        (d, dmem_total.expect("decoder has at least one layer"))
    }
}

impl HasParams for Decoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn decoder_shapes() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(1);
        let mut dec = Decoder::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
        let mem = tensor::init::normal(&mut rng, 7, cfg.d_model, 1.0);
        let mask = ops::causal_mask(5);
        let y = dec.forward(&x, &mem, Some(&mask));
        assert_eq!(y.shape(), (5, cfg.d_model));
    }

    #[test]
    fn backward_produces_both_gradients() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(2);
        let mut dec = Decoder::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let mem = tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
        let _ = dec.forward(&x, &mem, Some(&ops::causal_mask(4)));
        let dy = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let (dx, dmem) = dec.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dmem.shape(), mem.shape());
        assert!(
            tensor::ops::fro_norm(&dmem) > 0.0,
            "memory must get gradient"
        );
    }

    #[test]
    fn causal_decoding_is_prefix_stable() {
        // With a causal mask, position t's output must not depend on
        // positions > t: running the decoder on a prefix must give the
        // same prefix outputs.
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(3);
        let mut dec = Decoder::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
        let mem = tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
        let full = dec.forward(&x, &mem, Some(&ops::causal_mask(6)));
        let prefix_x = x.submatrix(0, 0, 3, cfg.d_model).unwrap();
        let prefix = dec.forward(&prefix_x, &mem, Some(&ops::causal_mask(3)));
        for r in 0..3 {
            for c in 0..cfg.d_model {
                assert!(
                    (full[(r, c)] - prefix[(r, c)]).abs() < 1e-4,
                    "prefix mismatch at ({r},{c})"
                );
            }
        }
    }
}
