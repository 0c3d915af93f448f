//! The LayerNorm module (Fig. 8) with the Eq. (9) variance
//! reformulation: `var = E[G ⊙ G] − E[G]²`, computed from two running
//! sums that accumulate *while the systolic array is still producing G*
//! (the step-one/step-two latency optimisation of Fig. 7).

use fixedmath::fx::{to_fx, FRAC};
use fixedmath::quant::QuantParams;
use fixedmath::rsqrt::{rsqrt_fx, OUT_FRAC};
use fixedmath::sat::rounding_shr;
use serde::{Deserialize, Serialize};
use tensor::Mat;

/// Running row statistics: the two accumulators (`Σ G` and `Σ G ⊙ G`)
/// that Fig. 7's optimisation keeps attached to the module input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowStats {
    /// `Σ G(i, k)` over the row.
    pub sum: i64,
    /// `Σ G(i, k)^2` over the row.
    pub sum_sq: i64,
    /// Number of elements accumulated.
    pub n: usize,
}

impl RowStats {
    /// Accumulates one element (one cycle of streaming input).
    pub fn push(&mut self, g: i32) {
        self.sum += g as i64;
        self.sum_sq += g as i64 * g as i64;
        self.n += 1;
    }

    /// Mean in `Q.12` fixed point (round-to-nearest constant division —
    /// one fixed-point multiply in hardware).
    pub fn mean_fx(&self) -> i64 {
        assert!(self.n > 0, "empty row");
        let n = self.n as i64;
        let num = self.sum << FRAC;
        if num >= 0 {
            (num + n / 2) / n
        } else {
            -((-num + n / 2) / n)
        }
    }

    /// Variance in `Q.12` fixed point via Eq. (9):
    /// `var = E[G²] − E[G]²` (never negative up to rounding; clamped).
    pub fn var_fx(&self) -> i64 {
        assert!(self.n > 0, "empty row");
        let n = self.n as i64;
        let mean = self.mean_fx();
        let e2 = ((self.sum_sq << FRAC) + n / 2) / n;
        let mean_sq = rounding_shr(mean * mean, FRAC);
        (e2 - mean_sq).max(0)
    }
}

/// Bit-exact LayerNorm over INT8-domain codes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HwLayerNorm {
    gamma_fx: Vec<i32>,
    beta_fx: Vec<i32>,
    eps_fx: i64,
    in_scale: QuantParams,
    out_scale: QuantParams,
}

impl HwLayerNorm {
    /// Builds the module from FP32 affine parameters.
    ///
    /// `in_scale` is the scale of the incoming `G` codes (the residual
    /// domain); `out_scale` the scale of the INT8 output. `gamma / s_out`
    /// and `beta / s_out` are pre-folded into fixed-point constants, as
    /// hardware would bake them into the γ/β BRAM.
    ///
    /// # Panics
    ///
    /// Panics if `gamma.len() != beta.len()`.
    pub fn from_f32(
        gamma: &[f32],
        beta: &[f32],
        in_scale: QuantParams,
        out_scale: QuantParams,
    ) -> Self {
        assert_eq!(gamma.len(), beta.len(), "gamma/beta length mismatch");
        let s_out = out_scale.scale();
        let gamma_fx = gamma.iter().map(|&g| to_fx(g / s_out, FRAC)).collect();
        let beta_fx = beta.iter().map(|&b| to_fx(b / s_out, FRAC)).collect();
        // ε lives in the code² domain: ε / s_in²; at least one LSB so the
        // rsqrt ROM never sees zero.
        let s_in = in_scale.scale() as f64;
        let eps_fx = ((tensor::norm::LAYERNORM_EPS as f64 / (s_in * s_in)) * (1i64 << FRAC) as f64)
            .round()
            .max(1.0) as i64;
        Self {
            gamma_fx,
            beta_fx,
            eps_fx,
            in_scale,
            out_scale,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.gamma_fx.len()
    }

    /// Output scale of the produced codes.
    pub fn out_scale(&self) -> QuantParams {
        self.out_scale
    }

    /// Input (residual-domain) scale.
    pub fn in_scale(&self) -> QuantParams {
        self.in_scale
    }

    /// Row statistics of `g` — what the inline accumulators hold when
    /// the last element arrives.
    pub fn row_stats(&self, g_row: &[i32]) -> RowStats {
        let mut st = RowStats::default();
        for &v in g_row {
            st.push(v);
        }
        st
    }

    /// Normalizes one row given its (already accumulated) statistics.
    pub fn normalize_row(&self, g_row: &[i32], stats: &RowStats) -> Vec<i8> {
        let mut out = vec![0i8; g_row.len()];
        self.normalize_row_into(g_row, stats, &mut out);
        out
    }

    /// [`HwLayerNorm::normalize_row`] written straight into `out` — the
    /// module's output register row.
    ///
    /// # Panics
    ///
    /// Panics if `g_row`, `out` and the module differ in width, or the
    /// statistics cover a different number of elements.
    pub fn normalize_row_into(&self, g_row: &[i32], stats: &RowStats, out: &mut [i8]) {
        assert_eq!(g_row.len(), self.dim(), "row width mismatch");
        assert_eq!(out.len(), self.dim(), "output row width mismatch");
        assert_eq!(stats.n, g_row.len(), "stats cover a different row length");
        let mean = stats.mean_fx();
        let var = stats.var_fx() + self.eps_fx;
        let r = rsqrt_fx(var); // Q.24
        let params = self.gamma_fx.iter().zip(&self.beta_fx);
        for ((o, &g), (&gam, &bet)) in out.iter_mut().zip(g_row).zip(params) {
            let diff = ((g as i64) << FRAC) - mean; // Q.12
            let norm = rounding_shr(diff * r, OUT_FRAC); // Q.12, ~N(0,1)
            let out_fx = rounding_shr(norm * gam as i64, FRAC) + bet as i64;
            *o = rounding_shr(out_fx, FRAC).clamp(-127, 127) as i8; // symmetric INT8
        }
    }

    /// Full forward: `G` codes (`i32`, residual domain) to INT8 output
    /// codes.
    ///
    /// # Panics
    ///
    /// Panics if `g.cols() != self.dim()`.
    pub fn forward(&self, g: &Mat<i32>) -> Mat<i8> {
        assert_eq!(g.cols(), self.dim(), "layernorm width mismatch");
        let _span = tensor::phase::span(tensor::phase::Phase::LayerNorm);
        let mut out = Mat::zeros(g.rows(), g.cols());
        for r in 0..g.rows() {
            let stats = self.row_stats(g.row(r));
            self.normalize_row_into(g.row(r), &stats, out.row_mut(r));
        }
        out
    }

    /// Dequantizes output codes.
    pub fn dequantize_output(&self, y: &Mat<i8>) -> Mat<f32> {
        y.map(|&v| self.out_scale.dequantize(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::norm::{layernorm_rows, LAYERNORM_EPS};

    fn reference(g_codes: &Mat<i32>, in_scale: f32, gamma: &[f32], beta: &[f32]) -> Mat<f32> {
        let g_real = g_codes.map(|&c| c as f32 * in_scale);
        layernorm_rows(&g_real, gamma, beta, LAYERNORM_EPS)
    }

    #[test]
    fn matches_fp32_layernorm_within_budget() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = 32;
        let gamma: Vec<f32> = (0..d).map(|_| rng.random_range(0.5..1.5f32)).collect();
        let beta: Vec<f32> = (0..d).map(|_| rng.random_range(-0.3..0.3f32)).collect();
        let in_scale = QuantParams::new(0.02);
        let g = Mat::from_fn(4, d, |_, _| rng.random_range(-200..200i32));
        let want = reference(&g, 0.02, &gamma, &beta);
        let out_scale = QuantParams::from_max_abs(tensor::ops::max_abs(&want));
        let ln = HwLayerNorm::from_f32(&gamma, &beta, in_scale, out_scale);
        let got = ln.dequantize_output(&ln.forward(&g));
        // ~3% of the output range: rsqrt LUT (1%) + Q.12 rounding + INT8.
        let tol = 3.2 * out_scale.scale().max(0.02);
        for (gv, wv) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((gv - wv).abs() < tol, "{gv} vs {wv} (tol {tol})");
        }
    }

    #[test]
    fn row_stats_match_direct_computation() {
        let row = [3i32, -7, 12, 0, 5];
        let ln = HwLayerNorm::from_f32(
            &[1.0; 5],
            &[0.0; 5],
            QuantParams::new(0.1),
            QuantParams::new(0.05),
        );
        let st = ln.row_stats(&row);
        assert_eq!(st.sum, 13);
        assert_eq!(st.sum_sq, 9 + 49 + 144 + 25);
        assert_eq!(st.n, 5);
        // mean = 2.6 -> Q.12 ~ 10650
        assert!((st.mean_fx() - (2.6 * 4096.0) as i64).abs() <= 2);
    }

    #[test]
    fn eq9_variance_equals_two_pass_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let n = rng.random_range(4..64usize);
            let row: Vec<i32> = (0..n).map(|_| rng.random_range(-127..=127)).collect();
            let mut st = RowStats::default();
            for &v in &row {
                st.push(v);
            }
            let mean = row.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
            let var = row
                .iter()
                .map(|&x| (x as f64 - mean) * (x as f64 - mean))
                .sum::<f64>()
                / n as f64;
            let got = st.var_fx() as f64 / 4096.0;
            assert!(
                (got - var).abs() < 0.51 + var * 1e-3,
                "n={n}: {got} vs {var}"
            );
        }
    }

    #[test]
    fn streaming_accumulation_matches_batch_forward() {
        // Fig. 7's whole point: the accumulators consume G column by
        // column as the systolic array drains it. Feeding elements one
        // at a time must give exactly the batch result.
        let mut rng = StdRng::seed_from_u64(5);
        let d = 16usize;
        let ln = HwLayerNorm::from_f32(
            &vec![1.1f32; d],
            &vec![-0.1f32; d],
            QuantParams::new(0.03),
            QuantParams::new(0.02),
        );
        let g = Mat::from_fn(3, d, |_, _| rng.random_range(-150..150i32));
        let batch = ln.forward(&g);
        for r in 0..3 {
            // stream: one element per "cycle"
            let mut st = RowStats::default();
            for &v in g.row(r) {
                st.push(v);
            }
            let row = ln.normalize_row(g.row(r), &st);
            assert_eq!(row.as_slice(), batch.row(r), "row {r}");
        }
    }

    #[test]
    fn constant_row_outputs_beta() {
        let ln = HwLayerNorm::from_f32(
            &[1.0; 8],
            &[0.5; 8],
            QuantParams::new(0.05),
            QuantParams::new(0.01),
        );
        let g = Mat::filled(1, 8, 64i32);
        let y = ln.forward(&g);
        // normalized value ~0 -> output = beta/s_out = 50
        for &v in y.row(0) {
            assert!((v as i32 - 50).abs() <= 1, "{v}");
        }
    }

    #[test]
    fn saturates_rather_than_wraps() {
        let ln = HwLayerNorm::from_f32(
            &[100.0; 4],
            &[0.0; 4],
            QuantParams::new(0.05),
            QuantParams::new(0.01),
        );
        let g = Mat::from_vec(1, 4, vec![127i32, -127, 127, -127]).unwrap();
        let y = ln.forward(&g);
        assert!(y.as_slice().iter().all(|&v| v == 127 || v == -127));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let ln = HwLayerNorm::from_f32(
            &[1.0; 4],
            &[0.0; 4],
            QuantParams::new(0.1),
            QuantParams::new(0.1),
        );
        let _ = ln.forward(&Mat::zeros(1, 5));
    }
}
