//! The scaled masked-softmax module (Eq. (4), Fig. 6).
//!
//! The hardware pipeline has four stages per output column:
//!
//! 1. scale the score by `1/sqrt(d_k)` (a `>> 3` when `d_k = 64`) and
//!    track the per-row maximum as columns stream in;
//! 2. EXP unit on `x - max`, accumulating the row sum;
//! 3. LN unit on the sum (the log-sum-exp trick of Eq. (5), which
//!    removes the divider);
//! 4. EXP unit on `x - max - ln(sum)`, producing the probability.
//!
//! Masked entries (`M(i,j) = 1`) are excluded from the maximum and the
//! sum and output exactly zero. A mask is stated either as a dense
//! `Mat<bool>` ([`scaled_masked_softmax`]) or, when each row's legal
//! columns are a prefix — causal attention, a prefill chunk's tail — as
//! one length per row ([`scaled_prefix_softmax`]); both run the same
//! per-row pipeline, and the prefix form never touches a dead column.

use fixedmath::explog::{exp_unit, ln_unit};
use fixedmath::fx::{FRAC, ONE};
use fixedmath::quant::{QuantParams, Requantizer};
use fixedmath::sat::sat_i8;
use tensor::Mat;

/// Which softmax implementation a quantized block uses — the two steps
/// of the paper's Section V-A quantization study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftmaxMode {
    /// INT8 datapath everywhere, but softmax internals in FP32
    /// (quantization step one; BLEU 23.48 in the paper).
    Fp32,
    /// The shift-add hardware pipeline of Fig. 6 (quantization step two;
    /// BLEU 23.57 in the paper).
    Hardware,
}

/// The fixed scale of softmax probability codes: `1/127` (probabilities
/// in `[0, 1]` map to codes `0..=127`).
pub(crate) fn prob_scale() -> QuantParams {
    QuantParams::new(1.0 / 127.0)
}

/// Scaled masked-softmax over score *accumulators*.
///
/// `d_acc` holds raw `i32` accumulators of `Q_i K_i^T` with real scale
/// `d_scale` (= `s_q * s_k`); `d_k` is the head width (64 in every
/// Table-I config, making the scale stage the paper's `>> 3`; other
/// widths fold `1/sqrt(d_k)` into the input requantizer). Returns
/// probability codes with scale [`prob_scale`].
///
/// # Panics
///
/// Panics if the mask shape differs from `d_acc` or `d_k == 0`.
///
/// # Example
///
/// ```
/// use quantized::softmax::{scaled_masked_softmax, SoftmaxMode};
/// let d = tensor::Mat::from_vec(1, 2, vec![50_000i32, 0]).unwrap();
/// let p = scaled_masked_softmax(&d, 1e-3, 64, None, SoftmaxMode::Hardware);
/// assert!(p[(0, 0)] > p[(0, 1)]); // higher score, higher probability
/// ```
pub fn scaled_masked_softmax(
    d_acc: &Mat<i32>,
    d_scale: f32,
    d_k: usize,
    mask: Option<&Mat<bool>>,
    mode: SoftmaxMode,
) -> Mat<i8> {
    if let Some(m) = mask {
        assert_eq!(m.shape(), d_acc.shape(), "mask shape mismatch");
    }
    softmax_by_row(d_acc, d_scale, d_k, mode, |r| match mask {
        None => Legal::Prefix(d_acc.cols()),
        Some(m) => Legal::Dense(m.row(r)),
    })
}

/// [`scaled_masked_softmax`] for masks that are a legal *prefix* per
/// row: row `r` attends columns `0 .. live[r]` and no others — a causal
/// mask, or the intra-chunk tail of a prefill chunk. Bit-identical to
/// passing the equivalent dense mask (`mask[(r, c)] = c >= live[r]`),
/// but only the live prefix is ever computed: the columns beyond it get
/// their exact-zero codes without being read.
///
/// # Panics
///
/// Panics if `live.len() != d_acc.rows()`, any `live[r] > d_acc.cols()`,
/// or `d_k == 0`.
///
/// # Example
///
/// ```
/// use quantized::softmax::{scaled_prefix_softmax, SoftmaxMode};
/// let d = tensor::Mat::from_vec(2, 2, vec![7i32, 9_999, 7, 7]).unwrap();
/// let p = scaled_prefix_softmax(&d, 1e-3, 64, &[1, 2], SoftmaxMode::Hardware);
/// assert_eq!(p[(0, 1)], 0); // row 0 may only see column 0
/// assert_eq!(p[(1, 0)], p[(1, 1)]);
/// ```
pub fn scaled_prefix_softmax(
    d_acc: &Mat<i32>,
    d_scale: f32,
    d_k: usize,
    live: &[usize],
    mode: SoftmaxMode,
) -> Mat<i8> {
    assert_eq!(live.len(), d_acc.rows(), "one prefix length per score row");
    let cols = d_acc.cols();
    assert!(
        live.iter().all(|&n| n <= cols),
        "prefix length exceeds the {cols} score columns"
    );
    softmax_by_row(d_acc, d_scale, d_k, mode, |r| Legal::Prefix(live[r]))
}

/// The key positions one score row may attend.
#[derive(Clone, Copy)]
enum Legal<'a> {
    /// The first `n` columns (all of them, for an unmasked row).
    Prefix(usize),
    /// Per-column flags, `true` = illegal (Eq. (4)'s `M(i,j) = 1`).
    Dense(&'a [bool]),
}

/// Runs the mode's row kernel over every row of `d_acc`. A prefix row
/// hands the kernel only its live columns; the rest of the output row
/// keeps the zero codes it was allocated with.
fn softmax_by_row<'a>(
    d_acc: &Mat<i32>,
    d_scale: f32,
    d_k: usize,
    mode: SoftmaxMode,
    legal: impl Fn(usize) -> Legal<'a>,
) -> Mat<i8> {
    let (rows, cols) = d_acc.shape();
    let mut out = Mat::zeros(rows, cols);
    let kernel = RowSoftmax::new(mode, d_scale, d_k);
    let mut bufs = SoftmaxBufs::default();
    for r in 0..rows {
        match legal(r) {
            Legal::Prefix(n) => kernel.run(
                &mut bufs,
                &d_acc.row(r)[..n],
                None,
                &mut out.row_mut(r)[..n],
            ),
            Legal::Dense(dead) => kernel.run(&mut bufs, d_acc.row(r), Some(dead), out.row_mut(r)),
        }
    }
    out
}

/// One block's softmax row pipeline — its mode with the scale folded
/// in — built once and run row by row over caller-owned buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowSoftmax {
    /// Stage 0 of the hardware pipeline: accumulator -> Q.12 fixed
    /// point, with 1/sqrt(d_k) folded in. For d_k = 64 this ratio is
    /// exactly d_scale * 2^12 / 8, i.e. the paper's ">> 3" after scale
    /// alignment.
    Hardware { to_fx: Requantizer },
    /// FP32 internals: the real scale of an accumulator over sqrt(d_k).
    Fp32 { scale: f32 },
}

/// The scratch rows [`RowSoftmax::run`] needs, reused across rows and
/// calls (they only ever grow).
#[derive(Debug, Default)]
pub(crate) struct SoftmaxBufs {
    x_fx: Vec<i64>,
    d32: Vec<i32>,
    scores: Vec<f32>,
    probs: Vec<f32>,
}

impl RowSoftmax {
    /// The pipeline of `mode` for score accumulators of real scale
    /// `d_scale` and head width `d_k`.
    ///
    /// # Panics
    ///
    /// Panics if `d_k == 0`.
    pub(crate) fn new(mode: SoftmaxMode, d_scale: f32, d_k: usize) -> Self {
        assert!(d_k > 0, "d_k must be positive");
        match mode {
            SoftmaxMode::Hardware => {
                let ratio = d_scale as f64 / (d_k as f64).sqrt() * (1i64 << FRAC) as f64;
                RowSoftmax::Hardware {
                    to_fx: Requantizer::from_ratio(ratio),
                }
            }
            SoftmaxMode::Fp32 => RowSoftmax::Fp32 {
                scale: d_scale / (d_k as f32).sqrt(),
            },
        }
    }

    /// Probability codes of one row: `acc`, `dead` (when present) and
    /// `out` cover the same columns; `out` arrives zeroed.
    pub(crate) fn run(
        &self,
        bufs: &mut SoftmaxBufs,
        acc: &[i32],
        dead: Option<&[bool]>,
        out: &mut [i8],
    ) {
        let n = acc.len();
        match *self {
            RowSoftmax::Hardware { to_fx } => {
                grow(&mut bufs.x_fx, n);
                grow(&mut bufs.d32, n);
                hw_softmax_row(
                    to_fx,
                    acc,
                    dead,
                    &mut bufs.x_fx[..n],
                    &mut bufs.d32[..n],
                    out,
                )
            }
            RowSoftmax::Fp32 { scale } => {
                grow(&mut bufs.scores, n);
                grow(&mut bufs.probs, n);
                let (scores, probs) = (&mut bufs.scores[..n], &mut bufs.probs[..n]);
                for (s, &a) in scores.iter_mut().zip(acc) {
                    *s = a as f32 * scale;
                }
                transformer::functional::softmax_row(scores, dead, probs);
                for (o, &p) in out.iter_mut().zip(probs.iter()) {
                    *o = sat_i8((p * 127.0).round() as i32);
                }
            }
        }
    }
}

/// Grows `buf` to at least `n` elements (never shrinks).
fn grow<T: Copy + Default>(buf: &mut Vec<T>, n: usize) {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
}

/// The Fig. 6 pipeline over one row. All five slices have one length;
/// `out` arrives zeroed and a row with no legal column leaves it so.
fn hw_softmax_row(
    to_fx: Requantizer,
    acc: &[i32],
    dead: Option<&[bool]>,
    x_fx: &mut [i64],
    d32: &mut [i32],
    out: &mut [i8],
) {
    // Masked columns carry a sentinel so low that every later stage
    // treats them as probability zero without re-consulting the mask:
    // `exp_unit` underflows to exactly 0, so they add nothing to the sum
    // and quantize to the exact-zero code the mask contract requires.
    // (i64::MIN / 4 leaves headroom for the `- max - ln_sum` arithmetic.)
    const MASKED: i64 = i64::MIN / 4;
    // Stage 1: fixed-point conversion and running maximum over legal
    // columns.
    let mut max_fx = MASKED;
    match dead {
        None => {
            for (slot, &a) in x_fx.iter_mut().zip(acc) {
                let v = to_fx.apply(a);
                *slot = v;
                max_fx = max_fx.max(v);
            }
        }
        Some(dead) => {
            for ((slot, &a), &dead) in x_fx.iter_mut().zip(acc).zip(dead) {
                let v = if dead { MASKED } else { to_fx.apply(a) };
                *slot = v;
                max_fx = max_fx.max(v);
            }
        }
    }
    if max_fx == MASKED {
        return; // no legal column -> zeros
    }
    // The EXP unit underflows to exactly 0 for anything at or below
    // -31 * ONE, so clamping to this floor (instead of i32::MIN)
    // changes no output while keeping the unit's internal shift-adds
    // far from i32 overflow for the sentinel values.
    const EXP_FLOOR: i64 = -(1 << 26);
    const EXP_FLOOR32: i32 = -(1 << 26);
    // Stage 2: EXP and sum (masked sentinels underflow to +0). The
    // clamp narrows each argument into i32 range, in a sweep of its
    // own so that the EXP sweep after it is pure 32-bit work and
    // vectorises at full width; the clamped arguments are kept for
    // stage 4.
    for (d, &v) in d32.iter_mut().zip(x_fx.iter()) {
        *d = (v - max_fx).clamp(EXP_FLOOR, 0) as i32;
    }
    // exp_unit <= ONE = 2^12, so 2^16 terms fit an i32 partial sum and
    // the i64 total is the same integer.
    let mut sum = 0i64;
    for chunk in d32.chunks(1 << 16) {
        let part: i32 = chunk.iter().map(|&c| exp_unit(c)).sum();
        sum += i64::from(part);
    }
    // Stage 3: LN of the sum (sum >= exp(0) = ONE > 0 always).
    let ln_sum = ln_unit(sum.clamp(1, i32::MAX as i64) as i32);
    // Stage 4: final EXP and INT8 quantization (multiply by 127;
    // e <= ONE keeps `e * 127 + ONE/2` far inside i32, so the whole
    // stage runs in i32). Re-clamping the stage-2 value is exact:
    // `(v - max - ln).clamp(F, 0)` equals
    // `((v - max).clamp(F, 0) - ln).clamp(F, 0)` because `ln >= 0`
    // and anything below the floor stays pinned at the floor either
    // way.
    for (o, &d) in out.iter_mut().zip(d32.iter()) {
        let e = exp_unit((d - ln_sum).max(EXP_FLOOR32));
        *o = sat_i8((e * 127 + (ONE / 2)) >> FRAC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_acc(rng: &mut impl Rng, rows: usize, cols: usize, mag: i32) -> Mat<i32> {
        Mat::from_fn(rows, cols, |_, _| rng.random_range(-mag..=mag))
    }

    #[test]
    fn rows_sum_to_roughly_127() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = random_acc(&mut rng, 8, 16, 40_000);
        let p = scaled_masked_softmax(&d, 1e-4, 64, None, SoftmaxMode::Hardware);
        for r in 0..8 {
            let sum: i32 = p.row(r).iter().map(|&x| x as i32).sum();
            // the approximate exp/ln pipeline does not renormalise, so the
            // sum wanders around 127 by the approximation error (~8%)
            assert!((108..=146).contains(&sum), "row {r} sums to {sum}");
        }
    }

    #[test]
    fn hardware_close_to_fp32_probabilities() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = random_acc(&mut rng, 16, 16, 60_000);
        let scale = 5e-5;
        let hw = scaled_masked_softmax(&d, scale, 64, None, SoftmaxMode::Hardware);
        let sw = scaled_masked_softmax(&d, scale, 64, None, SoftmaxMode::Fp32);
        let mut max_diff = 0i32;
        for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
            max_diff = max_diff.max((*a as i32 - *b as i32).abs());
        }
        // within ~10 codes of 127 (= 8% absolute probability error)
        assert!(max_diff <= 10, "max code diff {max_diff}");
    }

    #[test]
    fn masked_entries_are_exactly_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = random_acc(&mut rng, 6, 6, 50_000);
        let mask = tensor::ops::causal_mask(6);
        for mode in [SoftmaxMode::Hardware, SoftmaxMode::Fp32] {
            let p = scaled_masked_softmax(&d, 1e-4, 64, Some(&mask), mode);
            for i in 0..6 {
                for j in (i + 1)..6 {
                    assert_eq!(p[(i, j)], 0, "mode {mode:?} leak at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn fully_masked_row_is_zero() {
        let d = Mat::filled(2, 3, 1000i32);
        let mask = Mat::from_fn(2, 3, |r, _| r == 0);
        let p = scaled_masked_softmax(&d, 1e-3, 64, Some(&mask), SoftmaxMode::Hardware);
        assert!(p.row(0).iter().all(|&x| x == 0));
        assert!(p.row(1).iter().any(|&x| x > 0));
    }

    #[test]
    fn dominant_score_wins() {
        let mut d = Mat::filled(1, 8, 0i32);
        d[(0, 3)] = 1_000_000;
        let p = scaled_masked_softmax(&d, 1e-4, 64, None, SoftmaxMode::Hardware);
        assert!(p[(0, 3)] >= 120, "dominant prob {}", p[(0, 3)]);
        for c in 0..8 {
            if c != 3 {
                assert!(p[(0, c)] <= 2);
            }
        }
    }

    #[test]
    fn uniform_scores_give_uniform_probs() {
        let d = Mat::filled(1, 4, 12_345i32);
        let p = scaled_masked_softmax(&d, 1e-4, 64, None, SoftmaxMode::Hardware);
        let first = p[(0, 0)];
        assert!(p.row(0).iter().all(|&x| (x - first).abs() <= 1));
        // ~127/4 = 32
        assert!((28..=36).contains(&(first as i32)), "uniform prob {first}");
    }

    #[test]
    fn non_power_of_two_dk_supported() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = random_acc(&mut rng, 4, 4, 30_000);
        let hw = scaled_masked_softmax(&d, 1e-4, 8, None, SoftmaxMode::Hardware);
        let sw = scaled_masked_softmax(&d, 1e-4, 8, None, SoftmaxMode::Fp32);
        for (a, b) in hw.as_slice().iter().zip(sw.as_slice()) {
            assert!((*a as i32 - *b as i32).abs() <= 10);
        }
    }

    #[test]
    fn output_codes_are_nonnegative() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = random_acc(&mut rng, 8, 8, 80_000);
        let p = scaled_masked_softmax(&d, 1e-4, 64, None, SoftmaxMode::Hardware);
        assert!(p.as_slice().iter().all(|&x| x >= 0));
    }
}
