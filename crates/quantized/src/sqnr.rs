//! Signal-to-quantization-noise analysis: the standard PTQ diagnostic
//! for locating which tensor in a datapath loses the accuracy.

use tensor::Mat;

/// Signal-to-quantization-noise ratio in dB between a reference tensor
/// and its reconstruction: `10·log10(Σ ref² / Σ (ref − approx)²)`.
///
/// Returns `f64::INFINITY` for an exact reconstruction.
///
/// # Panics
///
/// Panics if shapes differ or the reference is all-zero with a nonzero
/// approximation (SQNR undefined).
pub fn sqnr_db(reference: &Mat<f32>, approx: &Mat<f32>) -> f64 {
    assert_eq!(reference.shape(), approx.shape(), "sqnr shape mismatch");
    let mut signal = 0.0f64;
    let mut noise = 0.0f64;
    for (r, a) in reference.as_slice().iter().zip(approx.as_slice()) {
        signal += (*r as f64) * (*r as f64);
        noise += (*r as f64 - *a as f64) * (*r as f64 - *a as f64);
    }
    if noise == 0.0 {
        return f64::INFINITY;
    }
    assert!(signal > 0.0, "SQNR undefined for a zero reference signal");
    10.0 * (signal / noise).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixedmath::quant::QuantParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The theoretical SQNR of an ideal uniform `bits`-bit quantizer driven
    /// at full scale: `6.02·bits + 1.76` dB. Symmetric INT8 tops out around
    /// 49.9 dB; real tensors (non-uniform distributions, headroom for the
    /// max-abs calibration) land well below.
    fn ideal_uniform_sqnr_db(bits: u32) -> f64 {
        6.02 * bits as f64 + 1.76
    }

    #[test]
    fn exact_reconstruction_is_infinite() {
        let m = Mat::from_fn(3, 3, |r, c| (r * c) as f32 + 1.0);
        assert_eq!(sqnr_db(&m, &m), f64::INFINITY);
    }

    #[test]
    fn int8_quantization_lands_near_theory_for_uniform_input() {
        // Uniformly distributed full-scale input: measured SQNR should be
        // within a few dB of the 49.9 dB ideal.
        let mut rng = StdRng::seed_from_u64(1);
        let x = tensor::init::uniform(&mut rng, 64, 64, -1.0, 1.0);
        let q = QuantParams::from_max_abs(1.0);
        let approx = x.map(|&v| q.dequantize(q.quantize(v)));
        let db = sqnr_db(&x, &approx);
        let ideal = ideal_uniform_sqnr_db(8);
        assert!(
            (db - ideal).abs() < 3.0,
            "measured {db:.1} dB vs ideal {ideal:.1} dB"
        );
    }

    #[test]
    fn gaussian_input_loses_headroom() {
        // Normal data calibrated by max-abs wastes codes on the tails:
        // SQNR drops well below the uniform ideal but stays "INT8-good"
        // (> 30 dB).
        let mut rng = StdRng::seed_from_u64(2);
        let x = tensor::init::normal(&mut rng, 64, 64, 1.0);
        let q = QuantParams::from_max_abs(tensor::ops::max_abs(&x));
        let approx = x.map(|&v| q.dequantize(q.quantize(v)));
        let db = sqnr_db(&x, &approx);
        assert!(db > 30.0 && db < ideal_uniform_sqnr_db(8), "{db}");
    }

    #[test]
    fn ideal_formula() {
        assert!((ideal_uniform_sqnr_db(8) - 49.92).abs() < 0.01);
        assert!((ideal_uniform_sqnr_db(16) - 98.08).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        let a = Mat::<f32>::zeros(2, 2);
        let b = Mat::<f32>::zeros(2, 3);
        let _ = sqnr_db(&a, &b);
    }
}
