//! Token-level cross-entropy loss with fused softmax backward.

use tensor::Mat;

/// Mean cross-entropy over a sequence of logit rows and target token ids,
/// returning `(loss, dlogits)` where `dlogits` is the gradient of the
/// *mean* loss.
///
/// Uses a numerically stable log-softmax; positions whose target is
/// `ignore` (e.g. padding) contribute neither loss nor gradient.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target id is out of
/// range (and not `ignore`).
pub fn cross_entropy(
    logits: &Mat<f32>,
    targets: &[usize],
    ignore: Option<usize>,
) -> (f32, Mat<f32>) {
    assert_eq!(targets.len(), logits.rows(), "one target per logit row");
    let (rows, cols) = logits.shape();
    let mut dlogits = Mat::zeros(rows, cols);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for r in 0..rows {
        let t = targets[r];
        if Some(t) == ignore {
            continue;
        }
        assert!(t < cols, "target {t} out of range ({cols})");
        counted += 1;
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f32 = row.iter().map(|&x| (x - max).exp()).sum();
        let log_z = max + sum_exp.ln();
        loss += (log_z - row[t]) as f64;
        for c in 0..cols {
            let p = (row[c] - log_z).exp();
            dlogits[(r, c)] = p;
        }
        dlogits[(r, t)] -= 1.0;
    }
    if counted == 0 {
        return (0.0, dlogits);
    }
    let inv = 1.0 / counted as f32;
    dlogits.apply(|v| *v *= inv);
    ((loss / counted as f64) as f32, dlogits)
}

/// Label-smoothed cross-entropy (Szegedy et al. 2016; Vaswani et al.
/// use ε = 0.1): the target distribution is
/// `(1 − ε)·onehot + ε/V·uniform`. With `smoothing = 0` this reduces to
/// [`cross_entropy`] exactly.
///
/// # Panics
///
/// Panics on mismatched shapes, out-of-range targets, or
/// `smoothing ∉ [0, 1)`.
pub(crate) fn cross_entropy_smoothed(
    logits: &Mat<f32>,
    targets: &[usize],
    ignore: Option<usize>,
    smoothing: f32,
) -> (f32, Mat<f32>) {
    assert!(
        (0.0..1.0).contains(&smoothing),
        "smoothing must be in [0, 1)"
    );
    assert_eq!(targets.len(), logits.rows(), "one target per logit row");
    if smoothing == 0.0 {
        return cross_entropy(logits, targets, ignore);
    }
    let (rows, cols) = logits.shape();
    let uniform = smoothing / cols as f32;
    let confident = 1.0 - smoothing;
    let mut dlogits = Mat::zeros(rows, cols);
    let mut loss = 0.0f64;
    let mut counted = 0usize;
    for r in 0..rows {
        let t = targets[r];
        if Some(t) == ignore {
            continue;
        }
        assert!(t < cols, "target {t} out of range ({cols})");
        counted += 1;
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum_exp: f32 = row.iter().map(|&x| (x - max).exp()).sum();
        let log_z = max + sum_exp.ln();
        // loss = -Σ q_c log p_c = log Z - Σ q_c x_c
        let mut qx = 0.0f32;
        for c in 0..cols {
            let q = uniform + if c == t { confident } else { 0.0 };
            qx += q * row[c];
            dlogits[(r, c)] = (row[c] - log_z).exp() - q;
        }
        loss += (log_z - qx) as f64;
    }
    if counted == 0 {
        return (0.0, dlogits);
    }
    let inv = 1.0 / counted as f32;
    dlogits.apply(|v| *v *= inv);
    ((loss / counted as f64) as f32, dlogits)
}

/// Fraction of positions where the argmax of the logits equals the
/// target (ignoring `ignore` positions). Returns 1.0 for an empty batch.
pub(crate) fn token_accuracy(logits: &Mat<f32>, targets: &[usize], ignore: Option<usize>) -> f32 {
    assert_eq!(targets.len(), logits.rows(), "one target per logit row");
    let mut hit = 0usize;
    let mut total = 0usize;
    for (r, &t) in targets.iter().enumerate() {
        if Some(t) == ignore {
            continue;
        }
        total += 1;
        let row = logits.row(r);
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty row");
        if argmax == t {
            hit += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f32 / total as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let mut logits = Mat::zeros(2, 4);
        logits[(0, 1)] = 20.0;
        logits[(1, 3)] = 20.0;
        let (loss, _) = cross_entropy(&logits, &[1, 3], None);
        assert!(loss < 1e-3, "loss {loss}");
        assert_eq!(token_accuracy(&logits, &[1, 3], None), 1.0);
    }

    #[test]
    fn uniform_prediction_loss_is_log_vocab() {
        let logits = Mat::zeros(1, 8);
        let (loss, _) = cross_entropy(&logits, &[5], None);
        assert!((loss - (8f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Mat::from_vec(2, 3, vec![0.5f32, -1.0, 2.0, 0.0, 0.3, -0.7]).unwrap();
        let targets = [2usize, 0];
        let (_, d) = cross_entropy(&logits, &targets, None);
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp[(r, c)] += h;
                let mut lm = logits.clone();
                lm[(r, c)] -= h;
                let (fp, _) = cross_entropy(&lp, &targets, None);
                let (fm, _) = cross_entropy(&lm, &targets, None);
                let fd = (fp - fm) / (2.0 * h);
                assert!(
                    (fd - d[(r, c)]).abs() < 1e-3,
                    "({r},{c}): {fd} vs {}",
                    d[(r, c)]
                );
            }
        }
    }

    #[test]
    fn ignored_positions_contribute_nothing() {
        let mut logits = Mat::zeros(2, 4);
        logits[(0, 1)] = 10.0;
        let (loss_all, _) = cross_entropy(&logits, &[1, 0], None);
        let (loss_ign, d) = cross_entropy(&logits, &[1, 0], Some(0));
        assert!(loss_ign < loss_all);
        assert!(d.row(1).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Mat::from_fn(3, 5, |r, c| (r * c) as f32 * 0.2);
        let (_, d) = cross_entropy(&logits, &[0, 2, 4], None);
        for r in 0..3 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn smoothed_with_zero_equals_plain() {
        let logits = Mat::from_fn(2, 4, |r, c| (r * c) as f32 * 0.3 - 0.5);
        let t = [1usize, 3];
        let (l0, d0) = cross_entropy(&logits, &t, None);
        let (ls, ds) = cross_entropy_smoothed(&logits, &t, None, 0.0);
        assert_eq!(l0, ls);
        assert_eq!(d0, ds);
    }

    #[test]
    fn smoothed_gradient_matches_finite_differences() {
        let logits = Mat::from_vec(2, 3, vec![0.4f32, -0.9, 1.3, 0.2, 0.1, -0.6]).unwrap();
        let targets = [0usize, 2];
        let eps = 0.1;
        let (_, d) = cross_entropy_smoothed(&logits, &targets, None, eps);
        let h = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut lp = logits.clone();
                lp[(r, c)] += h;
                let mut lm = logits.clone();
                lm[(r, c)] -= h;
                let (fp, _) = cross_entropy_smoothed(&lp, &targets, None, eps);
                let (fm, _) = cross_entropy_smoothed(&lm, &targets, None, eps);
                let fd = (fp - fm) / (2.0 * h);
                assert!(
                    (fd - d[(r, c)]).abs() < 1e-3,
                    "({r},{c}): {fd} vs {}",
                    d[(r, c)]
                );
            }
        }
    }

    #[test]
    fn smoothing_raises_loss_on_perfect_predictions() {
        let mut logits = Mat::zeros(1, 4);
        logits[(0, 2)] = 30.0;
        let (plain, _) = cross_entropy(&logits, &[2], None);
        let (smooth, _) = cross_entropy_smoothed(&logits, &[2], None, 0.1);
        assert!(smooth > plain, "{smooth} vs {plain}");
    }

    #[test]
    #[should_panic(expected = "smoothing")]
    fn invalid_smoothing_rejected() {
        let logits = Mat::zeros(1, 2);
        let _ = cross_entropy_smoothed(&logits, &[0], None, 1.0);
    }

    #[test]
    fn empty_after_ignore_is_safe() {
        let logits = Mat::zeros(2, 3);
        let (loss, d) = cross_entropy(&logits, &[1, 1], Some(1));
        assert_eq!(loss, 0.0);
        assert!(d.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(token_accuracy(&logits, &[1, 1], Some(1)), 1.0);
    }
}
