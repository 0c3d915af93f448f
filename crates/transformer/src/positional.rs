//! Learned positional embeddings — the positional scheme of the BERT
//! rows of Table I (Devlin et al. 2019), as an alternative to the
//! sinusoidal encoding of [`crate::embedding`].

use rand::Rng;
use tensor::Mat;

use crate::opt::{grad_buf, HasParams};

/// A trainable `[max_len, d_model]` position table, added to the token
/// embeddings.
#[derive(Debug, Clone)]
pub struct LearnedPositional {
    name: String,
    table: Mat<f32>,
    /// Allocated on first use ([`grad_buf`]).
    grad: Option<Mat<f32>>,
    cache_len: Option<usize>,
}

impl LearnedPositional {
    /// Creates a table for positions `0..max_len`.
    pub fn new(
        name: impl Into<String>,
        max_len: usize,
        d_model: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            name: name.into(),
            table: tensor::init::normal(rng, max_len, d_model, 0.02),
            grad: None,
            cache_len: None,
        }
    }

    /// Maximum supported position.
    pub fn max_len(&self) -> usize {
        self.table.rows()
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.table.cols()
    }

    /// Adds position rows `0..x.rows()` to `x`, caching for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x` is longer than the table or has a different width.
    pub fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        let out = self.forward_inference(x);
        self.cache_len = Some(x.rows());
        out
    }

    /// Inference-only forward.
    ///
    /// # Panics
    ///
    /// Panics if `x` is longer than the table or has a different width.
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        assert!(
            x.rows() <= self.max_len(),
            "sequence length {} exceeds the position table ({})",
            x.rows(),
            self.max_len()
        );
        assert_eq!(x.cols(), self.d_model(), "width mismatch");
        Mat::from_fn(x.rows(), x.cols(), |r, c| x[(r, c)] + self.table[(r, c)])
    }

    /// Backward: accumulates the position-table gradient and passes the
    /// upstream gradient through unchanged (additive op).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let len = self.cache_len.take().expect("backward without forward");
        assert_eq!(dy.shape(), (len, self.d_model()), "dy shape mismatch");
        let grad = grad_buf(&mut self.grad, self.table.shape());
        for r in 0..len {
            for (g, v) in grad.row_mut(r).iter_mut().zip(dy.row(r)) {
                *g += v;
            }
        }
        dy.clone()
    }
}

impl HasParams for LearnedPositional {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        let n = format!("{}.pos", self.name);
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
    fn forward_adds_position_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pos = LearnedPositional::new("p", 8, 4, &mut rng);
        let x = Mat::zeros(3, 4);
        let y = pos.forward(&x);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(y[(r, c)], pos.table[(r, c)]);
            }
        }
    }

    #[test]
    fn distinct_positions_get_distinct_offsets() {
        let mut rng = StdRng::seed_from_u64(2);
        let pos = LearnedPositional::new("p", 8, 8, &mut rng);
        let x = Mat::zeros(8, 8);
        let y = pos.forward_inference(&x);
        for r in 1..8 {
            assert_ne!(y.row(0), y.row(r));
        }
    }

    #[test]
    fn backward_accumulates_only_used_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut pos = LearnedPositional::new("p", 6, 2, &mut rng);
        let x = Mat::zeros(2, 2);
        let _ = pos.forward(&x);
        let dy = Mat::filled(2, 2, 1.5f32);
        let dx = pos.backward(&dy);
        assert_eq!(dx, dy, "additive op passes gradient through");
        pos.visit_params(&mut |_, _, g| {
            assert_eq!(&g[..4], &[1.5, 1.5, 1.5, 1.5]);
            assert!(g[4..].iter().all(|&v| v == 0.0), "unused rows untouched");
        });
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pos = LearnedPositional::new("p", 4, 3, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, 3, 1.0);
        let dy = tensor::init::normal(&mut rng, 2, 3, 1.0);
        let _ = pos.forward(&x);
        let _ = pos.backward(&dy);
        let h = 1e-3f32;
        let loss = |p: &LearnedPositional| -> f32 {
            p.forward_inference(&x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut grads = Vec::new();
        pos.visit_params(&mut |_, _, g| grads = g.to_vec());
        for r in 0..2 {
            for c in 0..3 {
                let mut pp = pos.clone();
                pp.table[(r, c)] += h;
                let mut pm = pos.clone();
                pm.table[(r, c)] -= h;
                let fd = (loss(&pp) - loss(&pm)) / (2.0 * h);
                let analytic = grads[r * 3 + c];
                assert!(
                    (fd - analytic).abs() < 1e-2,
                    "({r},{c}): {fd} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn trains_to_separate_positions() {
        // A toy objective: make position 0's first feature large and
        // position 1's negative. SGD through HasParams must drive them
        // apart — learned positions are genuinely trainable.
        use crate::opt::Adam;
        let mut rng = StdRng::seed_from_u64(5);
        let mut pos = LearnedPositional::new("p", 2, 2, &mut rng);
        let mut adam = Adam::new(0.05);
        for _ in 0..100 {
            pos.zero_grad();
            let x = Mat::zeros(2, 2);
            let y = pos.forward(&x);
            // loss = -(y[0,0] - y[1,0]); gradient is constant
            let mut dy = Mat::zeros(2, 2);
            dy[(0, 0)] = -1.0;
            dy[(1, 0)] = 1.0;
            let _ = pos.backward(&dy);
            adam.step(&mut pos);
            drop(y);
        }
        assert!(pos.table[(0, 0)] > 1.0);
        assert!(pos.table[(1, 0)] < -1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the position table")]
    fn overlong_sequence_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let pos = LearnedPositional::new("p", 2, 2, &mut rng);
        let _ = pos.forward_inference(&Mat::zeros(3, 2));
    }
}
