//! Trainable layer normalization with cached-activation backward.

use tensor::Mat;

use crate::functional::{layernorm_rows, LAYERNORM_EPS};
use crate::opt::HasParams;

/// Layer normalization with learnable `gamma`/`beta` over the last
/// dimension (Eq. (6) of the paper; Ba et al. 2016).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    name: String,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    grad_gamma: Vec<f32>,
    grad_beta: Vec<f32>,
    eps: f32,
    /// Cached (x_hat, rstd) per forward call.
    cache: Option<(Mat<f32>, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a LayerNorm over `dim` features with `gamma = 1`,
    /// `beta = 0` and the paper's `eps = 1e-8`.
    pub(crate) fn new(name: impl Into<String>, dim: usize) -> Self {
        Self {
            name: name.into(),
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            grad_gamma: vec![0.0; dim],
            grad_beta: vec![0.0; dim],
            eps: LAYERNORM_EPS,
            cache: None,
        }
    }

    /// Creates a LayerNorm from explicit affine parameters.
    ///
    /// # Panics
    ///
    /// Panics if `gamma.len() != beta.len()`.
    #[cfg(test)]
    pub(crate) fn from_parts(name: impl Into<String>, gamma: Vec<f32>, beta: Vec<f32>) -> Self {
        assert_eq!(gamma.len(), beta.len(), "gamma/beta length mismatch");
        let dim = gamma.len();
        Self {
            name: name.into(),
            gamma,
            beta,
            grad_gamma: vec![0.0; dim],
            grad_beta: vec![0.0; dim],
            eps: LAYERNORM_EPS,
            cache: None,
        }
    }

    /// Feature dimension.
    pub(crate) fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Borrow of `gamma`.
    pub fn gamma(&self) -> &[f32] {
        &self.gamma
    }

    /// Borrow of `beta`.
    pub fn beta(&self) -> &[f32] {
        &self.beta
    }

    /// Forward pass, caching normalised activations for backward.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`.
    pub(crate) fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        assert_eq!(x.cols(), self.dim(), "layernorm width mismatch");
        let (out, xhat, rstds) =
            tensor::norm::layernorm_rows_stats(x, &self.gamma, &self.beta, self.eps);
        self.cache = Some((xhat, rstds));
        out
    }

    /// Inference-only forward (no cache).
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        layernorm_rows(x, &self.gamma, &self.beta, self.eps)
    }

    /// Backward pass: accumulates `dgamma`, `dbeta` and returns `dX`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched `dy` shape.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let (xhat, rstds) = self
            .cache
            .take()
            .expect("layernorm backward called without forward");
        assert_eq!(dy.shape(), xhat.shape(), "dy shape mismatch");
        let (rows, cols) = xhat.shape();
        let n = cols as f32;
        let mut dx = Mat::zeros(rows, cols);
        for r in 0..rows {
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            let mut dxhat = vec![0.0f32; cols];
            for c in 0..cols {
                let d = dy[(r, c)];
                self.grad_gamma[c] += d * xhat[(r, c)];
                self.grad_beta[c] += d;
                let dxh = d * self.gamma[c];
                dxhat[c] = dxh;
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * xhat[(r, c)];
            }
            let rstd = rstds[r];
            for c in 0..cols {
                dx[(r, c)] = rstd / n * (n * dxhat[c] - sum_dxhat - xhat[(r, c)] * sum_dxhat_xhat);
            }
        }
        dx
    }
}

impl HasParams for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        let g = format!("{}.gamma", self.name);
        f(&g, &mut self.gamma, &mut self.grad_gamma);
        let b = format!("{}.beta", self.name);
        f(&b, &mut self.beta, &mut self.grad_beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_functional_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ln =
            LayerNorm::from_parts("t", vec![1.0, 2.0, 0.5, -1.0], vec![0.1, -0.2, 0.0, 0.3]);
        let x = tensor::init::normal(&mut rng, 3, 4, 2.0);
        let got = ln.forward(&x);
        let want = layernorm_rows(&x, ln.gamma(), ln.beta(), LAYERNORM_EPS);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ln = LayerNorm::new("t", 5);
        // non-trivial affine parameters
        for (i, g) in ln.gamma.iter_mut().enumerate() {
            *g = 1.0 + 0.1 * i as f32;
        }
        let x = tensor::init::normal(&mut rng, 2, 5, 1.5);
        let dy = tensor::init::normal(&mut rng, 2, 5, 1.0);

        let _ = ln.forward(&x);
        let dx = ln.backward(&dy);

        let loss = |ln: &LayerNorm, x: &Mat<f32>| -> f32 {
            ln.forward_inference(x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..5 {
                let mut xp = x.clone();
                xp[(r, c)] += h;
                let mut xm = x.clone();
                xm[(r, c)] -= h;
                let fd = (loss(&ln, &xp) - loss(&ln, &xm)) / (2.0 * h);
                assert!(
                    (fd - dx[(r, c)]).abs() < 2e-2,
                    "dx({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
        // gamma gradient check
        for c in 0..5 {
            let mut lp = ln.clone();
            lp.gamma[c] += h;
            let mut lm = ln.clone();
            lm.gamma[c] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!(
                (fd - ln.grad_gamma[c]).abs() < 2e-2,
                "dgamma({c}): fd {fd} vs {}",
                ln.grad_gamma[c]
            );
        }
        // beta gradient check
        for c in 0..5 {
            let mut lp = ln.clone();
            lp.beta[c] += h;
            let mut lm = ln.clone();
            lm.beta[c] -= h;
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
            assert!(
                (fd - ln.grad_beta[c]).abs() < 2e-2,
                "dbeta({c}): fd {fd} vs {}",
                ln.grad_beta[c]
            );
        }
    }

    #[test]
    fn default_params_are_identity_affine() {
        let ln = LayerNorm::new("t", 3);
        assert_eq!(ln.gamma(), &[1.0, 1.0, 1.0]);
        assert_eq!(ln.beta(), &[0.0, 0.0, 0.0]);
        assert_eq!(ln.dim(), 3);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        let mut ln = LayerNorm::new("t", 2);
        let _ = ln.backward(&Mat::zeros(1, 2));
    }
}
