//! Quantized linear sublayer: INT8 GEMM + `i32` bias + requantization —
//! the operation the systolic array and its `s` bias adders perform.
//!
//! Two weight-quantization granularities are supported:
//!
//! * [`QuantScheme::PerTensor`] — one scale for the whole matrix; this
//!   is what the paper (following Bhandare et al. 2019) uses and what
//!   every block defaults to;
//! * [`QuantScheme::PerChannel`] — one scale per output column. In
//!   hardware this costs one extra requantizer constant per column of
//!   the drain path (the `s` adders already exist), and it measurably
//!   tightens the quantization error — quantified by the
//!   `quant_scheme` experiment binary.

use std::iter::repeat;

use fixedmath::quant::{QuantParams, Requantizer};
use serde::{Deserialize, Serialize};
use tensor::phase::{self, Phase};
use tensor::prepack::{self, PackedI8, PackedI8Cols};
use tensor::Mat;
use transformer::linear::Linear;

use faults::abft;

/// Weight-quantization granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantScheme {
    /// One scale per weight matrix (the paper's scheme).
    PerTensor,
    /// One scale per output column.
    PerChannel,
}

/// A quantized linear layer `y = requant(x_q W_q + b_q)`.
///
/// The quantized weights are frozen at construction, so the matrix is
/// also **prepacked** once into the GEMM microkernel's tile layout
/// (`w_packed`) — the software analogue of the paper's weights staying
/// resident beside the systolic array; every forward call streams only
/// the activations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QLinear {
    w_q: Mat<i8>,
    w_packed: PackedI8,
    /// ABFT row-sum checksum of `w_q` (`B·e`), latched once at
    /// quantization time from the pristine weights — the reference every
    /// decode-step row check verifies against.
    w_rowsum: Vec<i64>,
    bias_q: Vec<i32>,
    in_scale: QuantParams,
    w_scales: Vec<QuantParams>,
    out_scale: QuantParams,
    requants: Vec<Requantizer>,
    scheme: QuantScheme,
}

impl QLinear {
    /// Quantizes an FP32 [`Linear`] with the paper's per-tensor scheme,
    /// given the input activation scale and the desired output
    /// activation scale.
    pub fn from_f32(lin: &Linear, in_scale: QuantParams, out_scale: QuantParams) -> Self {
        Self::from_f32_scheme(lin, in_scale, out_scale, QuantScheme::PerTensor)
    }

    /// Quantizes with an explicit granularity.
    pub fn from_f32_scheme(
        lin: &Linear,
        in_scale: QuantParams,
        out_scale: QuantParams,
        scheme: QuantScheme,
    ) -> Self {
        let w = lin.weight();
        let (d_in, d_out) = w.shape();
        let w_scales: Vec<QuantParams> = match scheme {
            QuantScheme::PerTensor => {
                vec![QuantParams::from_max_abs(tensor::ops::max_abs(w))]
            }
            QuantScheme::PerChannel => (0..d_out)
                .map(|c| {
                    let col_max = (0..d_in).fold(0.0f32, |m, r| m.max(w[(r, c)].abs()));
                    QuantParams::from_max_abs(col_max)
                })
                .collect(),
        };
        let scale_of = |c: usize| w_scales[if w_scales.len() == 1 { 0 } else { c }];
        let w_q = Mat::from_fn(d_in, d_out, |r, c| scale_of(c).quantize(w[(r, c)]));
        let bias_q = lin
            .bias()
            .iter()
            .enumerate()
            .map(|(c, &b)| in_scale.quantize_bias(&scale_of(c), b))
            .collect();
        let requants = w_scales
            .iter()
            .map(|ws| {
                Requantizer::from_ratio(
                    in_scale.scale() as f64 * ws.scale() as f64 / out_scale.scale() as f64,
                )
            })
            .collect();
        let w_packed = PackedI8::from_i8(&w_q);
        let w_rowsum = abft::weight_rowsum(&w_q);
        Self {
            w_q,
            w_packed,
            w_rowsum,
            bias_q,
            in_scale,
            w_scales,
            out_scale,
            requants,
            scheme,
        }
    }

    /// Input activation scale.
    pub fn in_scale(&self) -> QuantParams {
        self.in_scale
    }

    /// Weight scale of output column `c`.
    pub fn w_scale_of(&self, c: usize) -> QuantParams {
        self.w_scales[if self.w_scales.len() == 1 { 0 } else { c }]
    }

    /// Weight scale (per-tensor scheme only).
    ///
    /// # Panics
    ///
    /// Panics under [`QuantScheme::PerChannel`], where no single scale
    /// exists.
    pub fn w_scale(&self) -> QuantParams {
        assert_eq!(
            self.scheme,
            QuantScheme::PerTensor,
            "per-channel layers have one scale per column; use w_scale_of"
        );
        self.w_scales[0]
    }

    /// Output activation scale.
    pub fn out_scale(&self) -> QuantParams {
        self.out_scale
    }

    /// Borrow of the quantized weight matrix (`[d_in, d_out]`).
    pub fn weight_q(&self) -> &Mat<i8> {
        &self.w_q
    }

    /// Borrow of the accumulator-domain bias.
    pub fn bias_q(&self) -> &[i32] {
        &self.bias_q
    }

    /// Raw accumulator output `x_q W_q`, before the bias (`i32`, scale
    /// `in_scale * w_scale_of(col)`), through the fault seam when fault
    /// hooks are active. This is what the systolic array hands to the
    /// bias adders.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    pub(crate) fn forward_acc(&self, x: &Mat<i8>) -> Mat<i32> {
        let _span = phase::span(Phase::WeightGemm);
        let mut acc =
            prepack::matmul_i8_prepacked(x, &self.w_packed).expect("qlinear width mismatch");
        // Zero-cost when off: one thread-local read guards the whole
        // fault/checker seam, and the checker never modifies `acc`.
        if faults::active() {
            self.fault_hook(x, &mut acc);
        }
        acc
    }

    /// The drain every requantizing forward shares: bias add and
    /// requantization of one accumulator row covering output columns
    /// `c0 .. c0 + out.len()`, then `code(q, e)` makes each output
    /// element from its INT8 code `q` and the matching item `e` of
    /// `extra` (a residual row, or `repeat(())`). The per-tensor /
    /// per-channel branch is taken once per row, so the requantizer
    /// multiply vectorises over the row.
    #[inline(always)]
    fn drain<O, E>(
        &self,
        c0: usize,
        acc: &[i32],
        extra: impl Iterator<Item = E>,
        out: &mut [O],
        code: impl Fn(i8, E) -> O,
    ) {
        let cols = c0..c0 + out.len();
        let bias = &self.bias_q[cols.clone()];
        let row = out.iter_mut().zip(acc).zip(bias);
        if let [rq] = self.requants[..] {
            for (((o, &a), &b), e) in row.zip(extra) {
                *o = code(rq.apply_sat_i8(a + b), e);
            }
        } else {
            for ((((o, &a), &b), rq), e) in row.zip(&self.requants[cols]).zip(extra) {
                *o = code(rq.apply_sat_i8(a + b), e);
            }
        }
    }

    /// The serving path's fault seam, on the **pre-bias** accumulators:
    /// apply this GEMM pass's scheduled faults (weight-SRAM events as
    /// accumulator deltas — arithmetically identical to streaming the
    /// corrupted word — then accumulator upsets), then run the ABFT row
    /// check against the rowsum latched at quantization time. Counters
    /// go to the thread's active [`faults::FaultState`] — the serving
    /// engine stepping on this thread.
    #[cold]
    fn fault_hook(&self, x: &Mat<i8>, acc: &mut Mat<i32>) {
        faults::with_active(|state| {
            if let Some(inj) = state.injector.as_mut() {
                state.counters.injected += inj.apply_gemm_pass(x, &self.w_q, acc) as u64;
            }
            if state.checker {
                state.counters.checked += 1;
                state.counters.detected += abft::verify_rows(x, &self.w_rowsum, acc) as u64;
            }
        });
    }

    /// Full quantized forward: accumulate, then requantize to
    /// `out_scale` INT8 codes — in the GEMM's drain
    /// ([`QLinear::forward_cols`] over every column, bit-identical),
    /// unless fault hooks are active: the injector and the ABFT row
    /// check need the full pre-bias accumulator tensor
    /// ([`QLinear::forward_acc`]), which the drain never forms.
    pub fn forward(&self, x: &Mat<i8>) -> Mat<i8> {
        let _span = phase::span(Phase::WeightGemm);
        if !faults::active() {
            return self.forward_cols(x, 0, self.bias_q.len());
        }
        let acc = self.forward_acc(x);
        let mut out = Mat::zeros(acc.rows(), acc.cols());
        for r in 0..acc.rows() {
            self.drain(0, acc.row(r), repeat(()), out.row_mut(r), |q, ()| q);
        }
        out
    }

    /// Fused `Linear → ReLU`: bias, requantization and the activation
    /// all run in the GEMM's drain while each accumulator row is still
    /// in registers — the INT8 pre-activation tensor is never
    /// materialized. Bit-identical to `forward(x)` followed by
    /// `max(0)` on every code.
    ///
    /// Falls back to the unfused pair when fault hooks are active: the
    /// ABFT row check needs the full pre-bias accumulator tensor, which
    /// the fused drain never forms.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in`.
    pub(crate) fn forward_relu(&self, x: &Mat<i8>) -> Mat<i8> {
        let _span = phase::span(Phase::WeightGemm);
        if faults::active() {
            return self.forward(x).map(|&v| v.max(0));
        }
        prepack::matmul_i8_prepacked_fused(x, &self.w_packed, |_r, acc, out: &mut [i8]| {
            self.drain(0, acc, repeat(()), out, |q, ()| q.max(0));
        })
        .expect("qlinear width mismatch")
    }

    /// Fused `Linear → residual Add`: bias, requantization and the
    /// widening residual addition run in the GEMM's drain — the
    /// sublayer's INT8 output codes are never materialized. Operands
    /// must share a scale (the quantizer arranges the residual edges
    /// that way, so the dequant→requant pair between them composes to
    /// the identity rescale). Bit-identical to
    /// [`residual_add_i8`]`(&self.forward(x), residual)`.
    ///
    /// Falls back to the unfused pair when fault hooks are active (see
    /// [`QLinear::forward_relu`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or `residual`'s shape differs from
    /// the output shape.
    pub fn forward_add(&self, x: &Mat<i8>, residual: &Mat<i8>) -> Mat<i32> {
        assert_eq!(
            residual.shape(),
            (x.rows(), self.bias_q.len()),
            "residual shape must match the linear output"
        );
        let _span = phase::span(Phase::WeightGemm);
        if faults::active() {
            return residual_add_i8(&self.forward(x), residual);
        }
        prepack::matmul_i8_prepacked_fused(x, &self.w_packed, |r, acc, out: &mut [i32]| {
            self.drain(0, acc, residual.row(r).iter(), out, |q, &rv| {
                q as i32 + rv as i32
            });
        })
        .expect("qlinear width mismatch")
    }

    /// Output columns `[c0, c0 + width)` of [`QLinear::forward`] — the
    /// GEMM one accelerator panel command issues. It runs against those
    /// columns of the resident prepacked weights (no sub-matrix copy, no
    /// re-pack), with bias add and per-column requantization in the
    /// GEMM's drain. Bit-identical to the matching columns of
    /// `forward(x)` on a fault-free run.
    ///
    /// This is the modelled array's datapath, not a serving-path GEMM:
    /// it never passes through the fault seam, so it neither consumes
    /// nor renumbers injector/ABFT GEMM passes.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != d_in` or the column range exceeds `d_out`.
    pub fn forward_cols(&self, x: &Mat<i8>, c0: usize, width: usize) -> Mat<i8> {
        let panel = PackedI8Cols::new(&self.w_packed, c0, width);
        prepack::matmul_i8_prepacked_fused(x, panel, |_r, acc, out: &mut [i8]| {
            self.drain(c0, acc, repeat(()), out, |q, ()| q);
        })
        .expect("qlinear width mismatch")
    }

    /// Requantizes an accumulator drained from output column `col`.
    pub fn requantize_col(&self, col: usize, acc: i32) -> i8 {
        let r = &self.requants[if self.requants.len() == 1 { 0 } else { col }];
        r.apply_sat_i8(acc)
    }

    /// Quantizes an FP32 activation into this layer's input codes.
    pub fn quantize_input(&self, x: &Mat<f32>) -> Mat<i8> {
        x.map(|&v| self.in_scale.quantize(v))
    }

    /// Dequantizes output codes back to FP32.
    pub fn dequantize_output(&self, y: &Mat<i8>) -> Mat<f32> {
        y.map(|&v| self.out_scale.dequantize(v))
    }
}

/// Saturating INT8 residual add in the shared scale domain: the paper's
/// "another `s` adders ... to add the residual". Operands must already be
/// in the same scale.
pub fn residual_add_i8(a: &Mat<i8>, b: &Mat<i8>) -> Mat<i32> {
    assert_eq!(a.shape(), b.shape(), "residual shape mismatch");
    Mat::from_fn(a.rows(), a.cols(), |r, c| {
        a[(r, c)] as i32 + b[(r, c)] as i32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_layer(
        seed: u64,
        d_in: usize,
        d_out: usize,
        scheme: QuantScheme,
    ) -> (Linear, QLinear, Mat<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lin = Linear::new("t", d_in, d_out, &mut rng);
        let x = tensor::init::normal(&mut rng, 6, d_in, 1.0);
        let y = crate::calib::linear_f32(&lin, &x);
        let in_scale = QuantParams::from_max_abs(tensor::ops::max_abs(&x));
        let out_scale = QuantParams::from_max_abs(tensor::ops::max_abs(&y));
        let q = QLinear::from_f32_scheme(&lin, in_scale, out_scale, scheme);
        (lin, q, x)
    }

    #[test]
    fn quantized_forward_tracks_fp32() {
        let (lin, q, x) = make_layer(1, 16, 12, QuantScheme::PerTensor);
        let want = crate::calib::linear_f32(&lin, &x);
        let got_codes = q.forward(&q.quantize_input(&x));
        let got = q.dequantize_output(&got_codes);
        // INT8 error budget: a couple of output quantization steps.
        let tol = 4.0 * q.out_scale().scale();
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < tol, "{g} vs {w} (tol {tol})");
        }
    }

    #[test]
    fn forward_equals_acc_plus_requant() {
        for scheme in [QuantScheme::PerTensor, QuantScheme::PerChannel] {
            let (_, q, x) = make_layer(2, 8, 8, scheme);
            let xq = q.quantize_input(&x);
            let acc = q.forward_acc(&xq);
            let direct = q.forward(&xq);
            let via_requant = Mat::from_fn(acc.rows(), acc.cols(), |r, c| {
                q.requantize_col(c, acc[(r, c)] + q.bias_q()[c])
            });
            assert_eq!(direct, via_requant, "{scheme:?}");
        }
    }

    #[test]
    fn bias_lands_in_accumulator_domain() {
        let w = Mat::zeros(2, 2);
        let lin = Linear::from_parts("t", w, vec![1.0, -0.5]);
        let in_scale = QuantParams::new(0.1);
        let out_scale = QuantParams::new(0.01);
        let q = QLinear::from_f32(&lin, in_scale, out_scale);
        let x = Mat::zeros(1, 2);
        let y = q.forward(&x);
        // zero weights: output is requantized bias: 1.0 -> 100, -0.5 -> -50
        assert_eq!(y.as_slice(), &[100, -50]);
    }

    #[test]
    fn residual_add_widens_without_saturating() {
        let a = Mat::from_vec(1, 2, vec![100i8, -100]).unwrap();
        let b = Mat::from_vec(1, 2, vec![100i8, -100]).unwrap();
        let sum = residual_add_i8(&a, &b);
        assert_eq!(sum.as_slice(), &[200, -200]);
    }

    #[test]
    fn weight_extremes_map_to_127() {
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new("t", 4, 4, &mut rng);
        let q = QLinear::from_f32(&lin, QuantParams::new(0.1), QuantParams::new(0.1));
        let wmax = q
            .weight_q()
            .as_slice()
            .iter()
            .map(|&x| (x as i32).abs())
            .max()
            .unwrap();
        assert_eq!(wmax, 127);
    }

    #[test]
    fn per_channel_every_column_reaches_127() {
        let (_, q, _) = make_layer(4, 24, 10, QuantScheme::PerChannel);
        for c in 0..10 {
            let col_max = (0..24)
                .map(|r| (q.weight_q()[(r, c)] as i32).abs())
                .max()
                .unwrap();
            assert_eq!(col_max, 127, "column {c} underuses the code range");
        }
    }

    #[test]
    fn per_channel_error_not_worse_than_per_tensor() {
        // With a deliberately skewed matrix (one huge column), per-tensor
        // quantization crushes the small columns; per-channel must do
        // strictly better.
        let mut rng = StdRng::seed_from_u64(5);
        let mut w = tensor::init::normal(&mut rng, 16, 8, 0.05);
        for r in 0..16 {
            w[(r, 0)] *= 100.0; // dominant column
        }
        let lin = Linear::from_parts("t", w, vec![0.0; 8]);
        let x = tensor::init::normal(&mut rng, 4, 16, 1.0);
        let want = crate::calib::linear_f32(&lin, &x);
        let in_scale = QuantParams::from_max_abs(tensor::ops::max_abs(&x));
        let out_scale = QuantParams::from_max_abs(tensor::ops::max_abs(&want));
        let err = |scheme| {
            let q = QLinear::from_f32_scheme(&lin, in_scale, out_scale, scheme);
            let got = q.dequantize_output(&q.forward(&q.quantize_input(&x)));
            tensor::ops::mse(&got, &want).unwrap()
        };
        let pt = err(QuantScheme::PerTensor);
        let pc = err(QuantScheme::PerChannel);
        assert!(pc < pt * 0.5, "per-channel {pc} vs per-tensor {pt}");
    }

    #[test]
    fn forward_cols_equals_the_matching_columns_of_forward() {
        for scheme in [QuantScheme::PerTensor, QuantScheme::PerChannel] {
            let (_, q, x) = make_layer(8, 24, 40, scheme);
            let xq = q.quantize_input(&x);
            let full = q.forward(&xq);
            for (c0, width) in [(0, 16), (16, 24), (8, 8), (35, 5), (0, 40)] {
                let want = full.submatrix(0, c0, full.rows(), width).unwrap();
                assert_eq!(
                    q.forward_cols(&xq, c0, width),
                    want,
                    "{scheme:?} {c0}+{width}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "per-channel")]
    fn per_tensor_accessors_guarded() {
        let (_, q, _) = make_layer(6, 8, 8, QuantScheme::PerChannel);
        let _ = q.w_scale();
    }
}
