//! Broadcast and elementwise helpers mirroring the paper's Fig. 3 matrix
//! operations: bias broadcast, residual add, ReLU and additive masking.

use crate::{Mat, ShapeError};

/// Adds `bias` (a length-`cols` vector) to every row of `m`, returning a
/// new matrix. This is the "s adders behind the systolic array" operation
/// in the paper's top-level architecture (Fig. 5).
///
/// # Errors
///
/// Returns [`ShapeError`] if `bias.len() != m.cols()`.
pub fn add_row_bias(m: &Mat<f32>, bias: &[f32]) -> Result<Mat<f32>, ShapeError> {
    if bias.len() != m.cols() {
        return Err(ShapeError::new("add_row_bias", m.shape(), (1, bias.len())));
    }
    let mut out = m.clone();
    for r in 0..out.rows() {
        for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
    Ok(out)
}

/// Elementwise sum of two equally shaped matrices (the residual add).
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes differ.
pub fn add(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new("add", a.shape(), b.shape()));
    }
    let mut out = a.clone();
    for (o, v) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += v;
    }
    Ok(out)
}

/// Elementwise (Hadamard) product.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes differ.
pub fn hadamard(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new("hadamard", a.shape(), b.shape()));
    }
    let mut out = a.clone();
    for (o, v) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o *= v;
    }
    Ok(out)
}

/// Multiplies every element by `k`.
pub fn scale(m: &Mat<f32>, k: f32) -> Mat<f32> {
    m.map(|&x| x * k)
}

/// Rectified linear unit, applied elementwise.
pub fn relu(m: &Mat<f32>) -> Mat<f32> {
    m.map(|&x| x.max(0.0))
}

/// Derivative mask of ReLU at the pre-activation `m` (1 where `m > 0`).
pub fn relu_grad_mask(m: &Mat<f32>) -> Mat<f32> {
    m.map(|&x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Applies an additive mask: where `mask[(i,j)]` is `true` (an illegal
/// connection in the paper's terminology), the score is replaced by
/// `f32::NEG_INFINITY` so that softmax assigns it zero probability.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes differ.
pub fn mask_scores(scores: &Mat<f32>, mask: &Mat<bool>) -> Result<Mat<f32>, ShapeError> {
    if scores.shape() != mask.shape() {
        return Err(ShapeError::new("mask_scores", scores.shape(), mask.shape()));
    }
    Ok(Mat::from_fn(scores.rows(), scores.cols(), |r, c| {
        if mask[(r, c)] {
            f32::NEG_INFINITY
        } else {
            scores[(r, c)]
        }
    }))
}

/// Index of the maximum element of a non-empty slice (ties break to the
/// last occurrence, matching `Iterator::max_by`) — the greedy-decoding
/// primitive.
///
/// # Panics
///
/// Panics if the slice is empty or contains a NaN.
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of an empty slice");
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("argmax over NaN"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

/// Maximum absolute element; 0 for an empty matrix. Used by quantization
/// calibration.
pub fn max_abs(m: &Mat<f32>) -> f32 {
    m.as_slice().iter().fold(0.0f32, |a, &x| a.max(x.abs()))
}

/// Mean squared error between two equally shaped matrices.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes differ.
pub fn mse(a: &Mat<f32>, b: &Mat<f32>) -> Result<f32, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new("mse", a.shape(), b.shape()));
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    let sum: f32 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    Ok(sum / a.len() as f32)
}

/// Frobenius norm.
pub fn fro_norm(m: &Mat<f32>) -> f32 {
    m.as_slice().iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Builds the causal (subsequent-position) mask of size `s x s` used by the
/// decoder self-attention: `mask[(i, j)] = true` (illegal) for `j > i`.
pub fn causal_mask(s: usize) -> Mat<bool> {
    Mat::from_fn(s, s, |i, j| j > i)
}

/// Builds a key-padding mask of size `s x s`: column `j` is illegal when
/// `valid[j]` is `false` (the key position is padding).
///
/// # Panics
///
/// Panics if `valid.len() != s`.
pub fn padding_mask(s: usize, valid: &[bool]) -> Mat<bool> {
    assert_eq!(
        valid.len(),
        s,
        "padding mask needs one flag per key position"
    );
    Mat::from_fn(s, s, |_, j| !valid[j])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_broadcasts_per_row() {
        let m = Mat::from_fn(2, 3, |r, _| r as f32);
        let out = add_row_bias(&m, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[2.0, 3.0, 4.0]);
        assert!(add_row_bias(&m, &[1.0]).is_err());
    }

    #[test]
    fn add_is_elementwise() {
        let a = Mat::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Mat::from_fn(2, 2, |r, c| (r * c) as f32 + 1.0);
        let s = add(&a, &b).unwrap();
        assert_eq!(s, Mat::from_fn(2, 2, |r, c| (r + c + r * c) as f32 + 1.0));
        assert!(add(&a, &Mat::zeros(3, 2)).is_err());
    }

    #[test]
    fn hadamard_multiplies() {
        let a = Mat::from_vec(1, 3, vec![1.0f32, 2.0, 3.0]).unwrap();
        let b = Mat::from_vec(1, 3, vec![4.0f32, 0.5, -1.0]).unwrap();
        assert_eq!(hadamard(&a, &b).unwrap().as_slice(), &[4.0, 1.0, -3.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let m = Mat::from_vec(1, 4, vec![-2.0f32, -0.0, 0.5, 3.0]).unwrap();
        assert_eq!(relu(&m).as_slice(), &[0.0, 0.0, 0.5, 3.0]);
        assert_eq!(relu_grad_mask(&m).as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn mask_sets_neg_infinity() {
        let scores = Mat::from_fn(2, 2, |r, c| (r + c) as f32);
        let mask = Mat::from_fn(2, 2, |r, c| r == 0 && c == 1);
        let out = mask_scores(&scores, &mask).unwrap();
        assert_eq!(out[(0, 0)], 0.0);
        assert_eq!(out[(0, 1)], f32::NEG_INFINITY);
    }

    #[test]
    fn causal_mask_is_strictly_upper() {
        let m = causal_mask(3);
        assert!(!m[(0, 0)]);
        assert!(m[(0, 2)]);
        assert!(!m[(2, 1)]);
        let illegal: usize = m.as_slice().iter().filter(|&&x| x).count();
        assert_eq!(illegal, 3); // 3*(3-1)/2
    }

    #[test]
    fn padding_mask_blocks_invalid_keys() {
        let m = padding_mask(3, &[true, true, false]);
        assert!(!m[(1, 0)]);
        assert!(m[(0, 2)]);
        assert!(m[(2, 2)]);
    }

    #[test]
    fn max_abs_and_norms() {
        let m = Mat::from_vec(1, 3, vec![-4.0f32, 3.0, 2.0]).unwrap();
        assert_eq!(max_abs(&m), 4.0);
        assert!((fro_norm(&m) - 29.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(max_abs(&Mat::<f32>::zeros(0, 0)), 0.0);
    }

    #[test]
    fn argmax_finds_the_maximum() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 1, "ties break to the last");
        assert_eq!(argmax(&[-3.0]), 0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn argmax_rejects_empty() {
        let _ = argmax(&[]);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let m = Mat::from_fn(3, 3, |r, c| (r * c) as f32);
        assert_eq!(mse(&m, &m).unwrap(), 0.0);
        let shifted = m.map(|&x| x + 2.0);
        assert!((mse(&m, &shifted).unwrap() - 4.0).abs() < 1e-6);
    }
}
