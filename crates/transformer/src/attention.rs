//! Scaled dot-product attention (Eq. (1) of the paper) with an explicit
//! forward cache for manual backpropagation.

use tensor::{gemm, ops, Mat};

use crate::functional::{softmax_rows, softmax_rows_backward};

/// Everything the backward pass needs from an attention forward pass.
#[derive(Debug, Clone)]
pub struct AttentionCache {
    q: Mat<f32>,
    k: Mat<f32>,
    v: Mat<f32>,
    probs: Mat<f32>,
    scale: f32,
}

/// Computes `softmax(mask(Q K^T * scale)) V`.
///
/// `q: [s_q, d_k]`, `k: [s_v, d_k]`, `v: [s_v, d_k]`; the optional mask is
/// `[s_q, s_v]` with `true` marking illegal connections. Returns the
/// `[s_q, d_k]` context and the cache for [`attention_backward`].
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn attention_forward(
    q: &Mat<f32>,
    k: &Mat<f32>,
    v: &Mat<f32>,
    mask: Option<&Mat<bool>>,
    scale: f32,
) -> (Mat<f32>, AttentionCache) {
    assert_eq!(q.cols(), k.cols(), "q/k width mismatch");
    assert_eq!(k.rows(), v.rows(), "k/v length mismatch");
    let scores = ops::scale(&gemm::matmul_nt(q, k).expect("shapes checked"), scale);
    let masked = match mask {
        Some(m) => ops::mask_scores(&scores, m).expect("mask shape mismatch"),
        None => scores,
    };
    let probs = softmax_rows(&masked, None);
    let out = gemm::matmul(&probs, v).expect("shapes checked");
    let cache = AttentionCache {
        q: q.clone(),
        k: k.clone(),
        v: v.clone(),
        probs,
        scale,
    };
    (out, cache)
}

/// Backward pass of [`attention_forward`]: returns `(dQ, dK, dV)`.
///
/// # Panics
///
/// Panics if `dout` does not match the forward output shape.
pub(crate) fn attention_backward(
    cache: &AttentionCache,
    dout: &Mat<f32>,
) -> (Mat<f32>, Mat<f32>, Mat<f32>) {
    let AttentionCache {
        q,
        k,
        v,
        probs,
        scale,
    } = cache;
    assert_eq!(dout.shape(), (q.rows(), v.cols()), "dout shape mismatch");
    // out = P V
    let dprobs = gemm::matmul_nt(dout, v).expect("shapes checked");
    let dv = gemm::matmul(&probs.transposed(), dout).expect("shapes checked");
    // P = softmax(S); masked entries have P = 0 so dS is 0 there too.
    let dscores = softmax_rows_backward(probs, &dprobs);
    let dscores = ops::scale(&dscores, *scale);
    // S = Q K^T
    let dq = gemm::matmul(&dscores, k).expect("shapes checked");
    let dk = gemm::matmul(&dscores.transposed(), q).expect("shapes checked");
    (dq, dk, dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_convex_combination_of_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = tensor::init::normal(&mut rng, 3, 4, 1.0);
        let k = tensor::init::normal(&mut rng, 5, 4, 1.0);
        let v = tensor::init::normal(&mut rng, 5, 4, 1.0);
        let (out, cache) = attention_forward(&q, &k, &v, None, 0.5);
        assert_eq!(out.shape(), (3, 4));
        // each probability row sums to 1
        for r in 0..3 {
            let s: f32 = cache.probs.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // outputs bounded by value extremes
        let vmax = v.as_slice().iter().cloned().fold(f32::MIN, f32::max);
        let vmin = v.as_slice().iter().cloned().fold(f32::MAX, f32::min);
        assert!(out
            .as_slice()
            .iter()
            .all(|&x| x <= vmax + 1e-5 && x >= vmin - 1e-5));
    }

    #[test]
    fn causal_mask_zeroes_future_attention() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = tensor::init::normal(&mut rng, 4, 2, 1.0);
        let k = tensor::init::normal(&mut rng, 4, 2, 1.0);
        let v = tensor::init::normal(&mut rng, 4, 2, 1.0);
        let mask = ops::causal_mask(4);
        let (_, cache) = attention_forward(&q, &k, &v, Some(&mask), 1.0);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(cache.probs[(i, j)], 0.0, "future prob ({i},{j}) nonzero");
            }
        }
    }

    #[test]
    fn uniform_scores_average_values() {
        // With q = 0, all scores are equal -> output = mean of values.
        let q = Mat::zeros(1, 2);
        let k = Mat::from_fn(4, 2, |r, c| (r + c) as f32);
        let v = Mat::from_fn(4, 2, |r, _| r as f32);
        let (out, _) = attention_forward(&q, &k, &v, None, 1.0);
        assert!((out[(0, 0)] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = tensor::init::normal(&mut rng, 3, 2, 1.0);
        let k = tensor::init::normal(&mut rng, 4, 2, 1.0);
        let v = tensor::init::normal(&mut rng, 4, 2, 1.0);
        let dout = tensor::init::normal(&mut rng, 3, 2, 1.0);
        let scale = 1.0 / (2.0f32).sqrt();
        let mask = ops::causal_mask(4).submatrix(0, 0, 3, 4).unwrap();

        let (_, cache) = attention_forward(&q, &k, &v, Some(&mask), scale);
        let (dq, dk, dv) = attention_backward(&cache, &dout);

        let loss = |q: &Mat<f32>, k: &Mat<f32>, v: &Mat<f32>| -> f32 {
            let (o, _) = attention_forward(q, k, v, Some(&mask), scale);
            o.as_slice()
                .iter()
                .zip(dout.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-3f32;
        let grids: [(&Mat<f32>, &Mat<f32>, &str); 3] =
            [(&q, &dq, "q"), (&k, &dk, "k"), (&v, &dv, "v")];
        for (mat, grad, name) in grids {
            for r in 0..mat.rows() {
                for c in 0..mat.cols() {
                    let mut p = mat.clone();
                    p[(r, c)] += h;
                    let mut m = mat.clone();
                    m[(r, c)] -= h;
                    let (lp, lm) = match name {
                        "q" => (loss(&p, &k, &v), loss(&m, &k, &v)),
                        "k" => (loss(&q, &p, &v), loss(&q, &m, &v)),
                        _ => (loss(&q, &k, &p), loss(&q, &k, &m)),
                    };
                    let fd = (lp - lm) / (2.0 * h);
                    assert!(
                        (fd - grad[(r, c)]).abs() < 2e-2,
                        "d{name}({r},{c}): fd {fd} vs {}",
                        grad[(r, c)]
                    );
                }
            }
        }
    }
}
