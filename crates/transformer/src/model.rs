//! The full sequence-to-sequence Transformer (Fig. 1): embeddings,
//! encoder stack, decoder stack and the output projection, with training
//! support.

use rand::Rng;
use tensor::{ops, Mat};

use crate::config::ModelConfig;
use crate::decoder::Decoder;
use crate::embedding::Embedding;
use crate::encoder::Encoder;
use crate::linear::Linear;
use crate::opt::HasParams;

/// An encoder–decoder Transformer for sequence-to-sequence tasks.
#[derive(Debug, Clone)]
pub struct Seq2SeqTransformer {
    cfg: ModelConfig,
    src_emb: Embedding,
    tgt_emb: Embedding,
    encoder: Encoder,
    decoder: Decoder,
    out_proj: Linear,
}

impl Seq2SeqTransformer {
    /// Creates a randomly initialised model for `cfg`.
    pub fn new(cfg: &ModelConfig, rng: &mut impl Rng) -> Self {
        cfg.validate();
        Self {
            cfg: cfg.clone(),
            src_emb: Embedding::new("src_emb", cfg.vocab, cfg.d_model, rng),
            tgt_emb: Embedding::new("tgt_emb", cfg.vocab, cfg.d_model, rng),
            encoder: Encoder::new(cfg, rng),
            decoder: Decoder::new(cfg, rng),
            out_proj: Linear::new("out_proj", cfg.d_model, cfg.vocab, rng),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Borrow of the encoder stack (the quantized model imports its
    /// weights from here).
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Borrow of the decoder stack.
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// Borrow of the source embedding.
    pub fn src_embedding(&self) -> &Embedding {
        &self.src_emb
    }

    /// Borrow of the target embedding.
    pub fn tgt_embedding(&self) -> &Embedding {
        &self.tgt_emb
    }

    /// Borrow of the output projection.
    pub fn output_projection(&self) -> &Linear {
        &self.out_proj
    }

    /// Teacher-forced forward: embeds `src` and `tgt_in`, runs the stacks
    /// and returns per-position vocabulary logits `[s_tgt, vocab]`.
    ///
    /// # Panics
    ///
    /// Panics if either sequence is empty or contains out-of-vocabulary
    /// ids.
    pub fn forward_train(&mut self, src: &[usize], tgt_in: &[usize]) -> Mat<f32> {
        assert!(
            !src.is_empty() && !tgt_in.is_empty(),
            "sequences must be non-empty"
        );
        let src_x = self.src_emb.forward(src);
        let memory = self.encoder.forward(&src_x, None);
        let tgt_x = self.tgt_emb.forward(tgt_in);
        let mask = ops::causal_mask(tgt_in.len());
        let dec = self.decoder.forward(&tgt_x, &memory, Some(&mask));
        self.out_proj.forward(&dec)
    }

    /// Backward from `dlogits` (as returned by
    /// [`crate::loss::cross_entropy`]), accumulating every parameter
    /// gradient.
    pub fn backward(&mut self, dlogits: &Mat<f32>) {
        let ddec = self.out_proj.backward(dlogits);
        let (dtgt_x, dmemory) = self.decoder.backward(&ddec);
        self.tgt_emb.backward(&dtgt_x);
        let dsrc_x = self.encoder.backward(&dmemory);
        self.src_emb.backward(&dsrc_x);
    }

    /// Runs the encoder over a source sequence, returning the memory
    /// for subsequent [`Seq2SeqTransformer::decode_step_logits`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn encode(&mut self, src: &[usize]) -> Mat<f32> {
        assert!(!src.is_empty(), "source must be non-empty");
        let src_x = self.src_emb.forward_inference(src);
        self.encoder.forward(&src_x, None)
    }

    /// Runs the decoder over `prefix` (starting with BOS) against an
    /// encoder `memory` and returns the vocabulary logits of the *last*
    /// position — the next-token distribution.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty.
    pub(crate) fn decode_step_logits(&mut self, prefix: &[usize], memory: &Mat<f32>) -> Vec<f32> {
        assert!(!prefix.is_empty(), "prefix must be non-empty");
        let tgt_x = self.tgt_emb.forward_inference(prefix);
        let mask = ops::causal_mask(prefix.len());
        let dec = self.decoder.forward(&tgt_x, memory, Some(&mask));
        let last = dec
            .submatrix(dec.rows() - 1, 0, 1, self.cfg.d_model)
            .expect("last row");
        self.out_proj.forward_inference(&last).row(0).to_vec()
    }

    /// Greedy autoregressive decoding: starts from `bos`, stops at `eos`
    /// or after `max_len` generated tokens. Returns the generated ids
    /// (without `bos`, without the terminating `eos`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn greedy_decode(
        &mut self,
        src: &[usize],
        bos: usize,
        eos: usize,
        max_len: usize,
    ) -> Vec<usize> {
        let memory = self.encode(src);
        let mut tokens = vec![bos];
        let mut out = Vec::new();
        for _ in 0..max_len {
            let logits = self.decode_step_logits(&tokens, &memory);
            let next = ops::argmax(&logits);
            if next == eos {
                break;
            }
            out.push(next);
            tokens.push(next);
        }
        out
    }
}

impl HasParams for Seq2SeqTransformer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.src_emb.visit_params(f);
        self.tgt_emb.visit_params(f);
        self.encoder.visit_params(f);
        self.decoder.visit_params(f);
        self.out_proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Seq2SeqTransformer {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 1;
        let mut rng = StdRng::seed_from_u64(seed);
        Seq2SeqTransformer::new(&cfg, &mut rng)
    }

    #[test]
    fn forward_produces_vocab_logits() {
        let mut m = tiny_model(1);
        let logits = m.forward_train(&[3, 4, 5], &[1, 3, 4]);
        assert_eq!(logits.shape(), (3, m.config().vocab));
        assert!(logits.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn backward_fills_all_gradients() {
        let mut m = tiny_model(2);
        let logits = m.forward_train(&[3, 4], &[1, 3]);
        let (_, d) = cross_entropy(&logits, &[3, 2], None);
        m.backward(&d);
        assert!(m.grad_norm() > 0.0);
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use crate::opt::Adam;
        let mut m = tiny_model(3);
        let src = [3usize, 4, 5, 6];
        let tgt_in = [1usize, 6, 5, 4];
        let tgt_out = [6usize, 5, 4, 2];
        let logits = m.forward_train(&src, &tgt_in);
        let (loss0, d) = cross_entropy(&logits, &tgt_out, None);
        m.backward(&d);
        let mut adam = Adam::new(1e-2);
        adam.step(&mut m);
        m.zero_grad();
        let logits = m.forward_train(&src, &tgt_in);
        let (loss1, _) = cross_entropy(&logits, &tgt_out, None);
        assert!(loss1 < loss0, "loss did not decrease: {loss0} -> {loss1}");
    }

    #[test]
    fn greedy_decode_terminates_and_respects_max_len() {
        let mut m = tiny_model(4);
        let out = m.greedy_decode(&[3, 4, 5], 1, 2, 6);
        assert!(out.len() <= 6);
        assert!(out.iter().all(|&t| t < m.config().vocab));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_source_rejected() {
        let mut m = tiny_model(5);
        let _ = m.forward_train(&[], &[1]);
    }
}
