//! Plain `Qm.n` fixed-point conversions on `i32` words.
//!
//! The softmax and LayerNorm pipelines run on 32-bit fixed-point words
//! with a crate-wide fraction width of [`FRAC`] bits, giving a resolution
//! of `2^-12 ≈ 2.4e-4` — comfortably finer than INT8 quantization noise.

/// Fraction bits used by the nonlinear-function pipelines (Q19.12).
pub const FRAC: u32 = 12;

/// The value `1.0` in crate fixed-point.
pub const ONE: i32 = 1 << FRAC;

/// Converts an `f32` to fixed-point with `frac` fraction bits
/// (round-to-nearest).
///
/// # Example
///
/// ```
/// use fixedmath::fx;
/// assert_eq!(fx::to_fx(1.5, fx::FRAC), 3 << (fx::FRAC - 1));
/// ```
#[inline]
pub fn to_fx(x: f32, frac: u32) -> i32 {
    let v = (x as f64 * (1i64 << frac) as f64).round();
    v.clamp(i32::MIN as f64, i32::MAX as f64) as i32
}

/// Converts fixed-point back to `f32`.
#[inline]
pub fn to_f32(x: i32, frac: u32) -> f32 {
    x as f32 / (1i64 << frac) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small_values() {
        for &x in &[0.0f32, 1.0, -1.0, 0.5, -0.25, 3.25, -2.5] {
            let fx = to_fx(x, FRAC);
            let back = to_f32(fx, FRAC);
            assert!((back - x).abs() <= 1.0 / ONE as f32, "{x} -> {back}");
        }
    }

    #[test]
    fn one_constant_matches() {
        assert_eq!(to_fx(1.0, FRAC), ONE);
        assert_eq!(to_f32(ONE, FRAC), 1.0);
    }

    #[test]
    fn to_fx_saturates_extremes() {
        assert_eq!(to_fx(1e12, FRAC), i32::MAX);
        assert_eq!(to_fx(-1e12, FRAC), i32::MIN);
    }
}
