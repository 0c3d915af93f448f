//! Encoder layer and encoder stack (left half of Fig. 1).

use rand::Rng;
use tensor::Mat;

use crate::config::ModelConfig;
use crate::ffn::FfnResBlock;
use crate::mha::MhaResBlock;
use crate::opt::HasParams;

/// One encoder layer: self-attention MHA ResBlock followed by an FFN
/// ResBlock.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    mha: MhaResBlock,
    ffn: FfnResBlock,
}

impl EncoderLayer {
    /// Creates a layer with parameter names scoped by `name`.
    pub(crate) fn new(name: &str, cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        Self {
            mha: MhaResBlock::with_name(&format!("{name}.mha"), cfg, rng),
            ffn: FfnResBlock::with_name(&format!("{name}.ffn"), cfg, rng),
        }
    }

    /// Borrows the two ResBlocks `(mha, ffn)`.
    pub fn blocks(&self) -> (&MhaResBlock, &FfnResBlock) {
        (&self.mha, &self.ffn)
    }

    /// Forward pass with an optional self-attention mask.
    pub(crate) fn forward(&mut self, x: &Mat<f32>, mask: Option<&Mat<bool>>) -> Mat<f32> {
        let a = self.mha.forward(x, x, x, mask);
        self.ffn.forward(&a)
    }

    /// Backward pass.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let da = self.ffn.backward(dy);
        let (dq, dk, dv) = self.mha.backward(&da);
        // self-attention: x feeds q, k and v
        let dx = tensor::ops::add(&dq, &dk).expect("shape invariant");
        tensor::ops::add(&dx, &dv).expect("shape invariant")
    }
}

impl HasParams for EncoderLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.mha.visit_params(f);
        self.ffn.visit_params(f);
    }
}

/// A stack of `n_layers` identical encoder layers.
#[derive(Debug, Clone)]
pub struct Encoder {
    layers: Vec<EncoderLayer>,
}

impl Encoder {
    /// Creates the stack described by `cfg`.
    pub(crate) fn new(cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        let layers = (0..cfg.n_layers)
            .map(|i| EncoderLayer::new(&format!("enc{i}"), cfg, rng))
            .collect();
        Self { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrow of the layer stack (used for weight export/quantization).
    pub fn layers(&self) -> &[EncoderLayer] {
        &self.layers
    }

    /// Forward through all layers.
    pub(crate) fn forward(&mut self, x: &Mat<f32>, mask: Option<&Mat<bool>>) -> Mat<f32> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, mask);
        }
        h
    }

    /// Inference-only forward through all layers.
    pub fn forward_inference(&self, x: &Mat<f32>, mask: Option<&Mat<bool>>) -> Mat<f32> {
        let mut h = x.clone();
        for layer in &self.layers {
            let (mha, ffn) = layer.blocks();
            let a = mha.forward_inference(&h, &h, &h, mask);
            h = ffn.forward_inference(&a);
        }
        h
    }

    /// Backward through all layers (reverse order).
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let mut d = dy.clone();
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(&d);
        }
        d
    }
}

impl HasParams for Encoder {
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
    fn stack_preserves_shape() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(1);
        let mut enc = Encoder::new(&cfg, &mut rng);
        assert_eq!(enc.n_layers(), cfg.n_layers);
        let x = tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
        let y = enc.forward(&x, None);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn backward_returns_input_shaped_grad() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(2);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let x = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let _ = enc.forward(&x, None);
        let dy = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
        let dx = enc.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        assert!(enc.grad_norm() > 0.0);
    }

    #[test]
    fn layers_have_distinct_parameters() {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = Encoder::new(&cfg, &mut rng);
        let mut names = Vec::new();
        enc.visit_params(&mut |n, _, _| names.push(n.to_string()));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate parameter names");
    }
}
