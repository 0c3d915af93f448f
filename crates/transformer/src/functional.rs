//! Stateless reference functions: numerically stable softmax and layer
//! normalization, exactly as defined by Eqs. (4)–(8) of the paper but in
//! FP32. These are the golden references the fixed-point datapath is
//! measured against.

use tensor::Mat;

/// Row-wise numerically stable softmax with an optional boolean mask
/// (`true` = illegal connection, probability forced to zero — Eq. (4)).
///
/// Fully masked rows return all-zero probabilities rather than NaN, which
/// matches the hardware's behaviour when every key position is illegal.
///
/// # Panics
///
/// Panics if `mask` is present with a different shape than `scores`.
pub fn softmax_rows(scores: &Mat<f32>, mask: Option<&Mat<bool>>) -> Mat<f32> {
    if let Some(m) = mask {
        assert_eq!(m.shape(), scores.shape(), "mask shape mismatch");
    }
    let (rows, cols) = scores.shape();
    let mut out = Mat::zeros(rows, cols);
    for r in 0..rows {
        softmax_row(scores.row(r), mask.map(|m| m.row(r)), out.row_mut(r));
    }
    out
}

/// One row of [`softmax_rows`]: `dead[c] == true` marks an illegal
/// column. Every element of `out` is written (zeros for illegal columns
/// and for a fully masked row).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn softmax_row(scores: &[f32], dead: Option<&[bool]>, out: &mut [f32]) {
    assert_eq!(scores.len(), out.len(), "softmax row length mismatch");
    if let Some(d) = dead {
        assert_eq!(d.len(), scores.len(), "mask row length mismatch");
    }
    let legal = |c: usize| dead.is_none_or(|d| !d[c]);
    let mut max = f32::NEG_INFINITY;
    for (c, &s) in scores.iter().enumerate() {
        if legal(c) {
            max = max.max(s);
        }
    }
    if max == f32::NEG_INFINITY {
        out.fill(0.0); // fully masked row -> all zeros
        return;
    }
    let mut sum = 0.0;
    for (c, (o, &s)) in out.iter_mut().zip(scores).enumerate() {
        *o = if legal(c) {
            let e = (s - max).exp();
            sum += e;
            e
        } else {
            0.0
        };
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Backward pass of row-wise softmax: given probabilities `p` (the
/// forward output) and upstream gradient `dp`, returns the gradient with
/// respect to the pre-softmax scores:
/// `ds = p ⊙ (dp − rowsum(dp ⊙ p))`.
pub fn softmax_rows_backward(p: &Mat<f32>, dp: &Mat<f32>) -> Mat<f32> {
    assert_eq!(p.shape(), dp.shape(), "softmax backward shape mismatch");
    let (rows, cols) = p.shape();
    let mut out = Mat::zeros(rows, cols);
    for r in 0..rows {
        let dot: f32 = (0..cols).map(|c| dp[(r, c)] * p[(r, c)]).sum();
        for c in 0..cols {
            out[(r, c)] = p[(r, c)] * (dp[(r, c)] - dot);
        }
    }
    out
}

// The layer-normalization core now lives in `tensor::norm` so the FP32
// reference, the trainable module and the INT8 calibration replay all
// share one routine; re-exported here to keep the historical paths.
pub use tensor::norm::{layernorm_rows, LAYERNORM_EPS};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let s = Mat::from_fn(3, 5, |r, c| (r * c) as f32 * 0.3 - 1.0);
        let p = softmax_rows(&s, None);
        for r in 0..3 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let s = Mat::from_fn(2, 4, |r, c| (r + c) as f32);
        let shifted = s.map(|&x| x + 100.0);
        let p1 = softmax_rows(&s, None);
        let p2 = softmax_rows(&shifted, None);
        for (a, b) in p1.as_slice().iter().zip(p2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_extreme_values_without_nan() {
        let s = Mat::from_vec(1, 3, vec![1e30f32, -1e30, 0.0]).unwrap();
        let p = softmax_rows(&s, None);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        assert!((p[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn masked_entries_get_zero_probability() {
        let s = Mat::from_fn(2, 3, |_, c| c as f32);
        let mask = Mat::from_fn(2, 3, |r, c| r == 0 && c == 2);
        let p = softmax_rows(&s, Some(&mask));
        assert_eq!(p[(0, 2)], 0.0);
        let sum0: f32 = p.row(0).iter().sum();
        assert!((sum0 - 1.0).abs() < 1e-6);
        assert!(p[(1, 2)] > 0.0);
    }

    #[test]
    fn fully_masked_row_is_all_zero() {
        let s = Mat::from_fn(1, 3, |_, c| c as f32);
        let mask = Mat::filled(1, 3, true);
        let p = softmax_rows(&s, Some(&mask));
        assert!(p.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let s = Mat::from_vec(2, 3, vec![0.1f32, -0.4, 0.7, 1.0, 0.0, -1.0]).unwrap();
        let dp = Mat::from_vec(2, 3, vec![0.3f32, -0.2, 0.5, 1.0, 2.0, -0.7]).unwrap();
        let p = softmax_rows(&s, None);
        let ds = softmax_rows_backward(&p, &dp);
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut sp = s.clone();
                sp[(r, c)] += h;
                let mut sm = s.clone();
                sm[(r, c)] -= h;
                let pp = softmax_rows(&sp, None);
                let pm = softmax_rows(&sm, None);
                // directional derivative of <p, dp>
                let fd: f32 = pp
                    .as_slice()
                    .iter()
                    .zip(pm.as_slice())
                    .zip(dp.as_slice())
                    .map(|((a, b), g)| (a - b) / (2.0 * h) * g)
                    .sum();
                assert!(
                    (fd - ds[(r, c)]).abs() < 1e-3,
                    "({r},{c}): fd {fd} vs analytic {}",
                    ds[(r, c)]
                );
            }
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let x = Mat::from_fn(2, 8, |r, c| (r * 8 + c) as f32);
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let y = layernorm_rows(&x, &gamma, &beta, LAYERNORM_EPS);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_applies_affine() {
        let x = Mat::from_fn(1, 4, |_, c| c as f32);
        let y = layernorm_rows(&x, &[2.0; 4], &[1.0; 4], LAYERNORM_EPS);
        let base = layernorm_rows(&x, &[1.0; 4], &[0.0; 4], LAYERNORM_EPS);
        for c in 0..4 {
            assert!((y[(0, c)] - (2.0 * base[(0, c)] + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_constant_row_is_beta() {
        let x = Mat::filled(1, 4, 3.0f32);
        let y = layernorm_rows(&x, &[1.5; 4], &[0.25; 4], LAYERNORM_EPS);
        for c in 0..4 {
            assert!((y[(0, c)] - 0.25).abs() < 1e-3);
        }
    }
}
