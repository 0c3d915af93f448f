//! Token embedding with sinusoidal positional encoding (Vaswani et al.,
//! Section 3.4–3.5). Outside the accelerator's scope ("other components
//! beside the stacks ... have not been taken into account by this work"),
//! but required to train the quantization-study model.

use std::sync::RwLock;

use rand::Rng;
use tensor::Mat;

use crate::opt::{grad_buf, HasParams};

/// Element `j` of the sinusoidal encoding of position `pos`. The one
/// expression every encoding in this module evaluates, so a memoised
/// value is the recomputed one bit for bit.
fn pos_encoding(pos: usize, j: usize, d_model: usize) -> f32 {
    let i = (j / 2) as f32;
    let angle = pos as f32 / (10_000f32).powf(2.0 * i / d_model as f32);
    if j.is_multiple_of(2) {
        angle.sin()
    } else {
        angle.cos()
    }
}

/// Sinusoidal positional encoding matrix `[s, d_model]`:
/// `PE(pos, 2i) = sin(pos / 10000^(2i/d))`, `PE(pos, 2i+1) = cos(...)`.
pub fn sinusoidal_pos_encoding(s: usize, d_model: usize) -> Mat<f32> {
    Mat::from_fn(s, d_model, |pos, j| pos_encoding(pos, j, d_model))
}

/// Positions [`Embedding::embed_into`] memoises the encoding of (2 KiB
/// each at `d_model = 512`); later ones are recomputed per call.
const POS_ROWS_MEMOISED: usize = 4096;

/// Encoding rows of positions `0..len / d_model`, grown on demand by the
/// INT8 incremental decoder (`powf` + `sin`/`cos` per element cost 6.5 us a
/// token at `d_model = 512`, against 0.1 us for the copy).
#[derive(Debug, Default)]
struct PosRows(RwLock<Vec<f32>>);

impl Clone for PosRows {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Learned token embedding table with `sqrt(d_model)` scaling and
/// additive positional encoding.
#[derive(Debug, Clone)]
pub struct Embedding {
    name: String,
    table: Mat<f32>,
    /// Allocated on first use ([`grad_buf`]).
    grad: Option<Mat<f32>>,
    cache_tokens: Option<Vec<usize>>,
    pos_rows: PosRows,
}

impl Embedding {
    /// Creates an embedding for `vocab` tokens of width `d_model`.
    pub fn new(name: impl Into<String>, vocab: usize, d_model: usize, rng: &mut impl Rng) -> Self {
        Self {
            name: name.into(),
            table: tensor::init::normal(rng, vocab, d_model, 1.0 / (d_model as f32).sqrt()),
            grad: None,
            cache_tokens: None,
            pos_rows: PosRows::default(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.table.cols()
    }

    /// Borrow of the raw embedding table.
    pub fn table(&self) -> &Mat<f32> {
        &self.table
    }

    /// Embeds a token sequence: `emb[t] * sqrt(d_model) + PE`, caching the
    /// tokens for [`Embedding::backward`].
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary.
    pub fn forward(&mut self, tokens: &[usize]) -> Mat<f32> {
        let out = self.forward_inference(tokens);
        self.cache_tokens = Some(tokens.to_vec());
        out
    }

    /// Inference-only forward (no cache).
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary.
    pub fn forward_inference(&self, tokens: &[usize]) -> Mat<f32> {
        let d = self.d_model();
        let scale = (d as f32).sqrt();
        let pe = sinusoidal_pos_encoding(tokens.len(), d);
        Mat::from_fn(tokens.len(), d, |r, c| {
            let t = tokens[r];
            assert!(
                t < self.vocab(),
                "token {t} out of vocabulary ({})",
                self.vocab()
            );
            self.table[(t, c)] * scale + pe[(r, c)]
        })
    }

    /// Embeds a single token at absolute position `pos` (for
    /// incremental decoding, where the sinusoidal encoding must match
    /// the token's true position, not index 0).
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of vocabulary.
    pub fn embed_at(&self, token: usize, pos: usize) -> Vec<f32> {
        let mut row = vec![0.0; self.d_model()];
        self.embed_into(token, pos, &mut row);
        row
    }

    /// [`Embedding::embed_at`] written into `out` (one `d_model` row of
    /// a stacked activation matrix), with the position's sinusoid row
    /// memoised.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of vocabulary or `out` is not
    /// `d_model` wide.
    pub fn embed_into(&self, token: usize, pos: usize, out: &mut [f32]) {
        assert!(
            token < self.vocab(),
            "token {token} out of vocabulary ({})",
            self.vocab()
        );
        let d = self.d_model();
        assert_eq!(out.len(), d, "output row must be d_model wide");
        let scale = (d as f32).sqrt();
        let table = self.table.row(token);
        if pos >= POS_ROWS_MEMOISED {
            for (j, (o, &t)) in out.iter_mut().zip(table).enumerate() {
                *o = t * scale + pos_encoding(pos, j, d);
            }
            return;
        }
        let fill = |out: &mut [f32], rows: &[f32]| {
            let pe = &rows[pos * d..(pos + 1) * d];
            for ((o, &t), &p) in out.iter_mut().zip(table).zip(pe) {
                *o = t * scale + p;
            }
        };
        {
            let rows = self.pos_rows.0.read().expect("position rows lock");
            if rows.len() >= (pos + 1) * d {
                return fill(out, &rows);
            }
        }
        let mut rows = self.pos_rows.0.write().expect("position rows lock");
        for p in rows.len() / d..=pos {
            rows.extend((0..d).map(|j| pos_encoding(p, j, d)));
        }
        fill(out, &rows);
    }

    /// Backward: scatters `dy` rows into the embedding-table gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward(&mut self, dy: &Mat<f32>) {
        let tokens = self
            .cache_tokens
            .take()
            .expect("embedding backward called without forward");
        assert_eq!(
            dy.shape(),
            (tokens.len(), self.d_model()),
            "dy shape mismatch"
        );
        let scale = (self.d_model() as f32).sqrt();
        let grad = grad_buf(&mut self.grad, self.table.shape());
        for (r, &t) in tokens.iter().enumerate() {
            for (g, v) in grad.row_mut(t).iter_mut().zip(dy.row(r)) {
                *g += v * scale;
            }
        }
    }
}

impl HasParams for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        let n = format!("{}.table", self.name);
        let grad = grad_buf(&mut self.grad, self.table.shape());
        f(&n, self.table.as_mut_slice(), grad.as_mut_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pos_encoding_first_row_is_alternating_zero_one() {
        let pe = sinusoidal_pos_encoding(4, 6);
        for j in 0..6 {
            let want = if j % 2 == 0 { 0.0 } else { 1.0 };
            assert!((pe[(0, j)] - want).abs() < 1e-6, "pe(0,{j})");
        }
    }

    #[test]
    fn pos_encoding_values_bounded() {
        let pe = sinusoidal_pos_encoding(64, 32);
        assert!(pe.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn pos_encoding_rows_distinct() {
        let pe = sinusoidal_pos_encoding(16, 8);
        for r in 1..16 {
            assert_ne!(pe.row(0), pe.row(r), "row {r} equals row 0");
        }
    }

    #[test]
    fn forward_uses_table_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut emb = Embedding::new("e", 10, 4, &mut rng);
        let x = emb.forward(&[3, 3, 7]);
        assert_eq!(x.shape(), (3, 4));
        // same token at different positions differs only by PE
        let pe = sinusoidal_pos_encoding(3, 4);
        for c in 0..4 {
            let diff = (x[(0, c)] - pe[(0, c)]) - (x[(1, c)] - pe[(1, c)]);
            assert!(diff.abs() < 1e-5);
        }
    }

    #[test]
    fn embed_at_is_bit_identical_to_the_unmemoised_expression() {
        // The body `embed_at` had before the sinusoid rows were memoised.
        fn recomputed(emb: &Embedding, token: usize, pos: usize) -> Vec<f32> {
            let d = emb.d_model();
            let scale = (d as f32).sqrt();
            (0..d)
                .map(|j| {
                    let i = (j / 2) as f32;
                    let angle = pos as f32 / (10_000f32).powf(2.0 * i / d as f32);
                    let pe = if j % 2 == 0 { angle.sin() } else { angle.cos() };
                    emb.table[(token, j)] * scale + pe
                })
                .collect()
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(5);
        let max_len = 384;
        let emb = Embedding::new("e", 7, 512, &mut rng);
        // Descending first, so the memo is filled past `pos` in one go
        // and then read; ascending afterwards grows it row by row on a
        // clone (which starts empty).
        for pos in (0..max_len).rev() {
            let want = recomputed(&emb, pos % 7, pos);
            assert_eq!(bits(&emb.embed_at(pos % 7, pos)), bits(&want), "pos {pos}");
        }
        let grown = emb.clone();
        let mut row = vec![0.0; 512];
        for pos in (0..max_len).chain([POS_ROWS_MEMOISED - 1, POS_ROWS_MEMOISED, 100_000]) {
            grown.embed_into(3, pos, &mut row);
            assert_eq!(bits(&row), bits(&recomputed(&grown, 3, pos)), "pos {pos}");
        }
        // The full-sequence path shares the expression.
        let seq = emb.forward_inference(&[1, 2, 3]);
        for (r, &t) in [1usize, 2, 3].iter().enumerate() {
            assert_eq!(bits(seq.row(r)), bits(&recomputed(&emb, t, r)));
        }
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn forward_rejects_oov() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut emb = Embedding::new("e", 4, 4, &mut rng);
        let _ = emb.forward(&[4]);
    }

    #[test]
    fn backward_scatters_scaled_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut emb = Embedding::new("e", 5, 2, &mut rng);
        let _ = emb.forward(&[1, 1, 4]);
        let dy = Mat::filled(3, 2, 1.0f32);
        emb.backward(&dy);
        let scale = 2f32.sqrt();
        emb.visit_params(&mut |_, _, g| {
            // token 1 hit twice, token 4 once, others zero
            assert!((g[2] - 2.0 * scale).abs() < 1e-5);
            assert!((g[4 * 2] - scale).abs() < 1e-5);
            assert_eq!(g[0], 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut emb = Embedding::new("e", 4, 2, &mut rng);
        emb.backward(&Mat::zeros(1, 2));
    }
}
