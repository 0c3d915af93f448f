//! Symmetric INT8 quantization parameters and the integer-only
//! requantizer.
//!
//! The paper quantizes every trainable matrix and activation matrix with
//! INT8 (Section V-A, following Bhandare et al. 2019). A GEMM then
//! accumulates `i8 x i8` into `i32`; converting that accumulator into the
//! INT8 scale of the *next* operand requires multiplying by
//! `s_a * s_w / s_out` — a real number the hardware realises as a 32-bit
//! fixed-point multiplier plus a rounding shift ([`Requantizer`]), exactly
//! as in TFLite/gemmlowp-style integer inference.

use serde::{Deserialize, Serialize};

use crate::sat::{rounding_shr, sat_i8};

/// Symmetric per-tensor quantization parameters: `real = scale * q`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Creates parameters with an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantization scale must be finite and positive, got {scale}"
        );
        Self { scale }
    }

    /// Chooses the scale so that `max_abs` maps to 127. A zero or
    /// non-finite `max_abs` falls back to scale 1.0 (an all-zero tensor).
    pub fn from_max_abs(max_abs: f32) -> Self {
        if !max_abs.is_finite() || max_abs <= 0.0 {
            Self { scale: 1.0 }
        } else {
            Self {
                scale: max_abs / 127.0,
            }
        }
    }

    /// The quantization step (real value of one LSB).
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a real value to INT8 (round-to-nearest, saturate to
    /// `[-127, 127]`).
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round();
        sat_i8(q.clamp(i32::MIN as f32, i32::MAX as f32) as i32)
    }

    /// Recovers the real value of a quantized code.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a bias term into the `i32` accumulator domain of a GEMM
    /// whose inputs have scales `self` and `w`: `b_q = round(b / (s_a s_w))`.
    pub fn quantize_bias(&self, w: &QuantParams, b: f32) -> i32 {
        let s = self.scale as f64 * w.scale as f64;
        (b as f64 / s)
            .round()
            .clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }
}

/// Integer-only multiplier approximating a positive real ratio `m`, as
/// `m ≈ mult * 2^(-shift)` with `mult < 2^31`.
///
/// Applying it to an `i32` accumulator uses one 64-bit multiply and one
/// rounding shift — the standard hardware requantization stage.
///
/// # Example
///
/// ```
/// use fixedmath::quant::Requantizer;
/// let r = Requantizer::from_ratio(0.5);
/// assert_eq!(r.apply(100), 50);
/// assert_eq!(r.apply_sat_i8(1000), 127); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requantizer {
    mult: i32,
    shift: u32,
}

impl Requantizer {
    /// Builds the fixed-point representation of `ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not finite and positive, or is so large that
    /// it cannot be represented (`>= 2^31`).
    pub fn from_ratio(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio > 0.0,
            "requantizer ratio must be finite and positive, got {ratio}"
        );
        // Normalise ratio into [0.5, 1) * 2^exp.
        let exp = ratio.log2().ceil() as i32;
        let m0 = ratio / (2f64).powi(exp); // in (0.5, 1]
                                           // mult = round(m0 * 2^31), shift = 31 - exp
        let mut mult = (m0 * (1u64 << 31) as f64).round() as i64;
        let mut shift = 31 - exp;
        if mult == 1i64 << 31 {
            mult >>= 1;
            shift -= 1;
        }
        assert!(shift >= 0, "ratio {ratio} too large to represent");
        assert!(shift <= 62, "ratio {ratio} too small to represent");
        Self {
            mult: mult as i32,
            shift: shift as u32,
        }
    }

    /// The real ratio this requantizer realises.
    pub fn as_f64(&self) -> f64 {
        self.mult as f64 / (1u64 << self.shift) as f64
    }

    /// Applies the multiplier to an accumulator with round-to-nearest.
    #[inline]
    pub fn apply(&self, acc: i32) -> i64 {
        rounding_shr(acc as i64 * self.mult as i64, self.shift)
    }

    /// Applies the multiplier and saturates to symmetric INT8.
    #[inline]
    pub fn apply_sat_i8(&self, acc: i32) -> i8 {
        self.apply(acc).clamp(-127, 127) as i8
    }

    /// [`Requantizer::apply_sat_i8`] over a slice — the array's output
    /// drain: `out[i] = self.apply_sat_i8(acc[i])`, bit for bit. The
    /// multiplier and shift are read once, so the loop is a straight
    /// multiply / rounding-shift / clamp that vectorises.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn apply_sat_i8_slice(&self, acc: &[i32], out: &mut [i8]) {
        assert_eq!(acc.len(), out.len(), "requantize drain length mismatch");
        let rq = *self;
        for (o, &a) in out.iter_mut().zip(acc) {
            *o = rq.apply_sat_i8(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_max_abs_maps_extreme_to_127() {
        let q = QuantParams::from_max_abs(12.7);
        assert_eq!(q.quantize(12.7), 127);
        assert_eq!(q.quantize(-12.7), -127);
        assert_eq!(q.quantize(25.0), 127, "saturates beyond calibration");
    }

    #[test]
    fn zero_max_abs_degenerates_gracefully() {
        let q = QuantParams::from_max_abs(0.0);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn quantize_dequantize_error_within_half_step() {
        let q = QuantParams::from_max_abs(4.0);
        for i in -100..=100 {
            let x = i as f32 * 0.04;
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.scale() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn bias_quantization_uses_product_scale() {
        let a = QuantParams::new(0.1);
        let w = QuantParams::new(0.02);
        assert_eq!(a.quantize_bias(&w, 1.0), 500);
        assert_eq!(a.quantize_bias(&w, -0.002), -1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_scale_rejected() {
        QuantParams::new(-1.0);
    }

    #[test]
    fn requantizer_is_accurate_over_ratio_range() {
        for &ratio in &[1e-6, 0.001, 0.5, 1.0, 1.5, 37.0, 60_000.0] {
            let r = Requantizer::from_ratio(ratio);
            let rel = (r.as_f64() - ratio).abs() / ratio;
            assert!(rel < 1e-8, "ratio {ratio}: rel err {rel}");
        }
    }

    #[test]
    fn requantizer_apply_matches_float() {
        let r = Requantizer::from_ratio(0.0375);
        for acc in [-1_000_000, -1234, -1, 0, 1, 999, 1_000_000] {
            let want = (acc as f64 * 0.0375).round() as i64;
            let got = r.apply(acc);
            assert!((got - want).abs() <= 1, "acc={acc}: {got} vs {want}");
        }
    }

    #[test]
    fn requantizer_saturation() {
        let r = Requantizer::from_ratio(1.0);
        assert_eq!(r.apply_sat_i8(200), 127);
        assert_eq!(r.apply_sat_i8(-200), -127);
        assert_eq!(r.apply_sat_i8(13), 13);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn requantizer_rejects_zero() {
        Requantizer::from_ratio(0.0);
    }

    #[test]
    fn requantizer_power_of_two_exact() {
        let r = Requantizer::from_ratio(0.125);
        for acc in -512..=512 {
            assert_eq!(r.apply(acc), rounding_shr(acc as i64, 3));
        }
    }
}
