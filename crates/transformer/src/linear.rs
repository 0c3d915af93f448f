//! Fully connected layer `y = x W + b` with cached-activation backward.

use std::sync::OnceLock;

use rand::Rng;
use tensor::prepack::{self, PackedF32};
use tensor::{gemm, ops, Mat};

use crate::greedy::{GreedyStats, Screen};
use crate::opt::{grad_buf, HasParams};

/// A linear (dense) layer with weight `W: [in, out]` and bias
/// `b: [out]`, holding its own gradients and forward cache. The weight
/// gradient is allocated on the first `backward` or
/// [`HasParams::visit_params`].
///
/// Inference forwards run against a lazily built **prepacked** copy of
/// `W` (the GEMM microkernel's tile layout, built on first use and
/// cached), so repeated decode steps never re-pack the weights. The
/// cache is invalidated whenever the optimiser mutates the parameters
/// through [`HasParams::visit_params`]; results are bit-identical with
/// or without it. The INT8 screen behind [`Linear::argmax_rows`] is a
/// second derived cache under the same rules.
#[derive(Debug)]
pub struct Linear {
    name: String,
    w: Mat<f32>,
    b: Vec<f32>,
    grad_w: Option<Mat<f32>>,
    grad_b: Vec<f32>,
    cache_x: Option<Mat<f32>>,
    packed: OnceLock<PackedF32>,
    screen: OnceLock<Screen>,
}

impl Clone for Linear {
    fn clone(&self) -> Self {
        // The packed cache and the screen are derived state; let the
        // clone rebuild them on demand instead of copying them.
        Self {
            name: self.name.clone(),
            w: self.w.clone(),
            b: self.b.clone(),
            grad_w: self.grad_w.clone(),
            grad_b: self.grad_b.clone(),
            cache_x: self.cache_x.clone(),
            packed: OnceLock::new(),
            screen: OnceLock::new(),
        }
    }
}

impl Linear {
    /// Creates a Xavier-initialised layer mapping `d_in -> d_out`.
    pub fn new(name: impl Into<String>, d_in: usize, d_out: usize, rng: &mut impl Rng) -> Self {
        Self {
            name: name.into(),
            w: tensor::init::xavier(rng, d_in, d_out),
            b: vec![0.0; d_out],
            grad_w: None,
            grad_b: vec![0.0; d_out],
            cache_x: None,
            packed: OnceLock::new(),
            screen: OnceLock::new(),
        }
    }

    /// Creates a layer from explicit weights (for tests and for loading
    /// trained parameters into the quantized model).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != w.cols()`.
    pub fn from_parts(name: impl Into<String>, w: Mat<f32>, b: Vec<f32>) -> Self {
        assert_eq!(b.len(), w.cols(), "bias length must match output width");
        let d_out = w.cols();
        Self {
            name: name.into(),
            w,
            b,
            grad_w: None,
            grad_b: vec![0.0; d_out],
            cache_x: None,
            packed: OnceLock::new(),
            screen: OnceLock::new(),
        }
    }

    /// Input width.
    pub fn d_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub(crate) fn d_out(&self) -> usize {
        self.w.cols()
    }

    /// Borrow of the weight matrix.
    pub fn weight(&self) -> &Mat<f32> {
        &self.w
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Forward pass, caching the input for [`Linear::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.d_in()`.
    pub(crate) fn forward(&mut self, x: &Mat<f32>) -> Mat<f32> {
        let y = self.forward_inference(x);
        self.cache_x = Some(x.clone());
        y
    }

    /// Forward pass without caching (inference only). The bias is added
    /// in the GEMM's drain (`v + b` per element, as a separate pass
    /// would), so no second copy of the output is made.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.d_in()`.
    pub fn forward_inference(&self, x: &Mat<f32>) -> Mat<f32> {
        prepack::matmul_prepacked_fused(x, self.packed(), |_r, row| {
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        })
        .expect("linear: input width mismatch")
    }

    /// The prepacked weights, built on first use.
    fn packed(&self) -> &PackedF32 {
        self.packed.get_or_init(|| PackedF32::from_f32(&self.w))
    }

    /// Greedy head: `ops::argmax(self.forward_inference(x).row(r))` for
    /// every row `r` — the same index, ties to the last — without
    /// forming the logits, plus what the screen did. An INT8 copy of the
    /// weights (built on first use, 1 byte per weight) brackets every
    /// logit, and only the columns the brackets cannot rule out are
    /// recomputed exactly; [`crate::greedy`] has the proof. Rows the
    /// screen cannot take (all-zero, non-finite or huge activations, too
    /// many candidates) run the full projection, so a NaN logit panics
    /// as `ops::argmax` does.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.d_in()` or `self.d_out() == 0`.
    pub fn argmax_rows(&self, x: &Mat<f32>) -> (Vec<usize>, GreedyStats) {
        assert_eq!(x.cols(), self.d_in(), "linear: input width mismatch");
        self.screen()
            .argmax_rows(x, self.packed(), &self.b, |r| self.argmax_full(x.row(r)))
    }

    /// The full projection and `ops::argmax` for one activation row.
    fn argmax_full(&self, x_row: &[f32]) -> usize {
        let row = Mat::from_vec(1, x_row.len(), x_row.to_vec()).expect("one row");
        ops::argmax(self.forward_inference(&row).row(0))
    }

    /// The INT8 screen, built on first use.
    fn screen(&self) -> &Screen {
        self.screen.get_or_init(|| Screen::build(&self.w, &self.b))
    }

    /// The certificate behind [`Linear::argmax_rows`]: for each row, the
    /// interval `(lo_j, hi_j)` the screen proves column `j`'s logit lies
    /// in, or `None` for a row it does not take.
    #[doc(hidden)]
    pub fn greedy_intervals(&self, x: &Mat<f32>) -> Vec<Option<Vec<(f64, f64)>>> {
        assert_eq!(x.cols(), self.d_in(), "linear: input width mismatch");
        self.screen().intervals(x)
    }

    /// Fused `Linear → ReLU` inference: `max(0, x W + b)` with bias and
    /// activation applied in the GEMM's drain while each output row is
    /// cache-hot — no pre-activation tensor, no second pass.
    /// Bit-identical to `relu(forward_inference(x))` (same accumulators,
    /// same per-element `+ b` then `max`).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.d_in()`.
    pub(crate) fn forward_inference_relu(&self, x: &Mat<f32>) -> Mat<f32> {
        prepack::matmul_prepacked_fused(x, self.packed(), |_r, row| {
            for (v, b) in row.iter_mut().zip(&self.b) {
                *v = (*v + b).max(0.0);
            }
        })
        .expect("linear: input width mismatch")
    }

    /// Fused `Linear → residual Add` inference:
    /// `residual + (x W + b)` with bias and residual applied in the
    /// GEMM's drain — no sublayer-output tensor, no second pass.
    /// Bit-identical to `add(residual, forward_inference(x))` (per
    /// element: `+ b` first, then the residual, matching the unfused op
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.d_in()` or `residual`'s shape differs
    /// from the output shape.
    pub(crate) fn forward_inference_add(&self, x: &Mat<f32>, residual: &Mat<f32>) -> Mat<f32> {
        assert_eq!(
            residual.shape(),
            (x.rows(), self.d_out()),
            "residual shape must match the linear output"
        );
        prepack::matmul_prepacked_fused(x, self.packed(), |r, row| {
            for ((v, b), res) in row.iter_mut().zip(&self.b).zip(residual.row(r)) {
                *v = res + (*v + b);
            }
        })
        .expect("linear: input width mismatch")
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dX`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`, or if `dy` has the wrong shape.
    pub(crate) fn backward(&mut self, dy: &Mat<f32>) -> Mat<f32> {
        let x = self
            .cache_x
            .take()
            .expect("linear backward called without forward");
        assert_eq!(dy.shape(), (x.rows(), self.d_out()), "dy shape mismatch");
        // dW += X^T dY
        let dw = gemm::matmul(&x.transposed(), dy).expect("shapes checked");
        let grad_w = grad_buf(&mut self.grad_w, self.w.shape());
        *grad_w = ops::add(grad_w, &dw).expect("grad shape invariant");
        // db += column sums of dY
        for r in 0..dy.rows() {
            for (gb, v) in self.grad_b.iter_mut().zip(dy.row(r)) {
                *gb += v;
            }
        }
        // dX = dY W^T
        gemm::matmul_nt(dy, &self.w).expect("shapes checked")
    }
}

impl HasParams for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        // The visitor gets mutable access to the weights (optimiser
        // steps), so the prepacked copy may go stale — drop it and let
        // the next inference forward rebuild it. Likewise the screen.
        self.packed.take();
        self.screen.take();
        let wname = format!("{}.w", self.name);
        let grad_w = grad_buf(&mut self.grad_w, self.w.shape());
        f(&wname, self.w.as_mut_slice(), grad_w.as_mut_slice());
        let bname = format!("{}.b", self.name);
        f(&bname, &mut self.b, &mut self.grad_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fd_check_linear(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lin = Linear::new("t", 4, 3, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, 4, 1.0);
        let dy = tensor::init::normal(&mut rng, 2, 3, 1.0);

        let _ = lin.forward(&x);
        let dx = lin.backward(&dy);

        // loss = <y, dy>; finite differences on x
        let h = 1e-3f32;
        let loss = |l: &Linear, x: &Mat<f32>| -> f32 {
            l.forward_inference(x)
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += h;
                let mut xm = x.clone();
                xm[(r, c)] -= h;
                let fd = (loss(&lin, &xp) - loss(&lin, &xm)) / (2.0 * h);
                assert!(
                    (fd - dx[(r, c)]).abs() < 2e-2,
                    "dx({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
        // finite differences on W
        let mut lin2 = lin.clone();
        for r in 0..4 {
            for c in 0..3 {
                let mut wp = lin.weight().clone();
                wp[(r, c)] += h;
                let mut wm = lin.weight().clone();
                wm[(r, c)] -= h;
                let lp = Linear::from_parts("t", wp, lin.bias().to_vec());
                let lm = Linear::from_parts("t", wm, lin.bias().to_vec());
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                let mut analytic = 0.0;
                lin2.visit_params(&mut |n, _, g| {
                    if n.ends_with(".w") {
                        analytic = g[r * 3 + c];
                    }
                });
                assert!(
                    (fd - analytic).abs() < 2e-2,
                    "dw({r},{c}): fd {fd} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        fd_check_linear(1);
        fd_check_linear(2);
    }

    #[test]
    fn forward_applies_bias() {
        let w = Mat::from_vec(2, 2, vec![1.0f32, 0.0, 0.0, 1.0]).unwrap();
        let mut lin = Linear::from_parts("id", w, vec![1.0, -1.0]);
        let x = Mat::from_vec(1, 2, vec![3.0f32, 4.0]).unwrap();
        let y = lin.forward(&x);
        assert_eq!(y.as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn bias_grad_sums_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut lin = Linear::new("t", 3, 2, &mut rng);
        let x = tensor::init::normal(&mut rng, 4, 3, 1.0);
        let dy = Mat::filled(4, 2, 1.0f32);
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
        lin.visit_params(&mut |n, _, g| {
            if n.ends_with(".b") {
                assert_eq!(g, &[4.0, 4.0]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new("t", 2, 2, &mut rng);
        let dy = Mat::zeros(1, 2);
        let _ = lin.backward(&dy);
    }

    #[test]
    fn packed_cache_invalidated_by_param_mutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lin = Linear::new("t", 6, 5, &mut rng);
        let x = tensor::init::normal(&mut rng, 3, 6, 1.0);
        let before = lin.forward_inference(&x); // builds the packed cache
        lin.visit_params(&mut |n, w, _| {
            if n.ends_with(".w") {
                for v in w {
                    *v += 0.25;
                }
            }
        });
        let fresh = Linear::from_parts("t", lin.weight().clone(), lin.bias().to_vec());
        let got = lin.forward_inference(&x);
        let want = fresh.forward_inference(&x);
        assert_ne!(got, before, "mutation must change the output");
        assert!(
            got.as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "stale packed weights used after visit_params"
        );
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lin = Linear::new("t", 2, 2, &mut rng);
        let x = tensor::init::normal(&mut rng, 1, 2, 1.0);
        let dy = tensor::init::normal(&mut rng, 1, 2, 1.0);
        let _ = lin.forward(&x);
        let _ = lin.backward(&dy);
        assert!(lin.grad_norm() > 0.0);
        lin.zero_grad();
        assert_eq!(lin.grad_norm(), 0.0);
    }
}
