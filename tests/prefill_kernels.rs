//! The per-element stages of the prefill chunk path — hardware softmax by
//! prefix length, the slice requantize drain, single-pass LayerNorm and
//! row-copy panels — against the definitions they replaced. Every stage
//! is integer-exact, so "equal" here means equal codes, element for
//! element; the references below are frozen copies of the bodies the
//! kernels took over from and share no arithmetic with them beyond the
//! EXP/LN/rsqrt units, which did not change.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer_accel::fixedmath::explog::{exp_unit, ln_unit};
use transformer_accel::fixedmath::fx::{to_fx, FRAC, ONE};
use transformer_accel::fixedmath::quant::{QuantParams, Requantizer};
use transformer_accel::fixedmath::rsqrt::{rsqrt_fx, OUT_FRAC};
use transformer_accel::fixedmath::sat::{sat_i32, sat_i8};
use transformer_accel::quantized::layernorm::HwLayerNorm;
use transformer_accel::quantized::softmax::{
    scaled_masked_softmax, scaled_prefix_softmax, SoftmaxMode,
};
use transformer_accel::tensor::Mat;

/// The rounding shifter in its magnitude form: round `|x|`, restore the
/// sign.
fn rounding_shr_ref(x: i64, shift: u32) -> i64 {
    if shift == 0 {
        return x;
    }
    let bias = 1i64 << (shift - 1);
    let sign = x >> 63;
    let mag = (x ^ sign) - sign;
    let r = (mag + bias) >> shift;
    (r ^ sign) - sign
}

/// `Requantizer::from_ratio`'s fixed-point split, `(mult, shift)`.
fn requant_ref(ratio: f64) -> (i64, u32) {
    let exp = ratio.log2().ceil() as i32;
    let m0 = ratio / (2f64).powi(exp);
    let mut mult = (m0 * (1u64 << 31) as f64).round() as i64;
    let mut shift = 31 - exp;
    if mult == 1i64 << 31 {
        mult >>= 1;
        shift -= 1;
    }
    (mult, shift as u32)
}

fn apply_ref((mult, shift): (i64, u32), acc: i32) -> i64 {
    rounding_shr_ref(acc as i64 * mult, shift)
}

/// The hardware softmax as one body over the whole matrix with an
/// optional dense mask — what every caller ran before the row kernel.
fn hw_softmax_ref(d_acc: &Mat<i32>, d_scale: f32, d_k: usize, mask: Option<&Mat<bool>>) -> Mat<i8> {
    let (rows, cols) = d_acc.shape();
    let to_fx = requant_ref(d_scale as f64 / (d_k as f64).sqrt() * (1i64 << FRAC) as f64);
    let mut out = Mat::zeros(rows, cols);
    const MASKED: i64 = i64::MIN / 4;
    const EXP_FLOOR: i64 = -(1 << 26);
    let mut x_fx = vec![0i64; cols];
    for r in 0..rows {
        let mut max_fx = MASKED;
        for c in 0..cols {
            let dead = mask.is_some_and(|m| m[(r, c)]);
            let v = if dead {
                MASKED
            } else {
                apply_ref(to_fx, d_acc[(r, c)])
            };
            x_fx[c] = v;
            max_fx = max_fx.max(v);
        }
        if max_fx == MASKED {
            continue;
        }
        let mut sum = 0i64;
        for &v in &x_fx {
            sum += i64::from(exp_unit((v - max_fx).clamp(EXP_FLOOR, 0) as i32));
        }
        let ln_sum = ln_unit(sum.clamp(1, i32::MAX as i64) as i32);
        for c in 0..cols {
            let x = (x_fx[c] - max_fx - ln_sum as i64).clamp(EXP_FLOOR, 0) as i32;
            out[(r, c)] = sat_i8((exp_unit(x) * 127 + (ONE / 2)) >> FRAC);
        }
    }
    out
}

/// The FP32-internals softmax over the whole matrix with an optional
/// dense mask.
fn fp32_softmax_ref(
    d_acc: &Mat<i32>,
    d_scale: f32,
    d_k: usize,
    mask: Option<&Mat<bool>>,
) -> Mat<i8> {
    let (rows, cols) = d_acc.shape();
    let scale = d_scale / (d_k as f32).sqrt();
    let scores = d_acc.map(|&a| a as f32 * scale);
    let mut probs = Mat::<f32>::zeros(rows, cols);
    for r in 0..rows {
        let legal = |c: usize| mask.is_none_or(|m| !m[(r, c)]);
        let mut max = f32::NEG_INFINITY;
        for c in 0..cols {
            if legal(c) {
                max = max.max(scores[(r, c)]);
            }
        }
        if max == f32::NEG_INFINITY {
            continue;
        }
        let mut sum = 0.0;
        for c in 0..cols {
            if legal(c) {
                let e = (scores[(r, c)] - max).exp();
                probs[(r, c)] = e;
                sum += e;
            }
        }
        for c in 0..cols {
            probs[(r, c)] /= sum;
        }
    }
    Mat::from_fn(rows, cols, |r, c| {
        sat_i8((probs[(r, c)] * 127.0).round() as i32)
    })
}

fn softmax_ref(
    d_acc: &Mat<i32>,
    d_scale: f32,
    d_k: usize,
    mask: Option<&Mat<bool>>,
    mode: SoftmaxMode,
) -> Mat<i8> {
    match mode {
        SoftmaxMode::Hardware => hw_softmax_ref(d_acc, d_scale, d_k, mask),
        SoftmaxMode::Fp32 => fp32_softmax_ref(d_acc, d_scale, d_k, mask),
    }
}

/// Scores with the i32 extremes mixed in.
fn scores(rng: &mut StdRng, rows: usize, cols: usize) -> Mat<i32> {
    Mat::from_fn(rows, cols, |_, _| match rng.random_range(0..24u32) {
        0 => i32::MAX,
        1 => i32::MIN,
        2 => 0,
        _ => rng.random_range(-90_000..=90_000),
    })
}

/// The LayerNorm module rebuilt from its FP32 parameters, with the
/// per-row body `forward` ran before it wrote rows in place.
struct LnRef {
    gamma_fx: Vec<i32>,
    beta_fx: Vec<i32>,
    eps_fx: i64,
}

impl LnRef {
    fn new(gamma: &[f32], beta: &[f32], s_in: f32, s_out: f32) -> Self {
        let s_in = s_in as f64;
        Self {
            gamma_fx: gamma.iter().map(|&g| to_fx(g / s_out, FRAC)).collect(),
            beta_fx: beta.iter().map(|&b| to_fx(b / s_out, FRAC)).collect(),
            eps_fx: ((transformer_accel::tensor::norm::LAYERNORM_EPS as f64 / (s_in * s_in))
                * (1i64 << FRAC) as f64)
                .round()
                .max(1.0) as i64,
        }
    }

    fn row(&self, g_row: &[i32]) -> Vec<i8> {
        let n = g_row.len() as i64;
        let sum: i64 = g_row.iter().map(|&g| g as i64).sum();
        let sum_sq: i64 = g_row.iter().map(|&g| g as i64 * g as i64).sum();
        let num = sum << FRAC;
        let mean = if num >= 0 {
            (num + n / 2) / n
        } else {
            -((-num + n / 2) / n)
        };
        let e2 = ((sum_sq << FRAC) + n / 2) / n;
        let var = (e2 - rounding_shr_ref(mean * mean, FRAC)).max(0);
        let r = rsqrt_fx(var + self.eps_fx);
        g_row
            .iter()
            .zip(self.gamma_fx.iter().zip(&self.beta_fx))
            .map(|(&g, (&gam, &bet))| {
                let diff = ((g as i64) << FRAC) - mean;
                let norm = rounding_shr_ref(diff * r, OUT_FRAC);
                let out_fx = rounding_shr_ref(norm * gam as i64, FRAC) + bet as i64;
                sat_i8(sat_i32(rounding_shr_ref(out_fx, FRAC)))
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// (a) Prefix lengths, the same rows as a dense mask, and the
    /// whole-matrix reference agree, in both modes; so do unmasked and
    /// arbitrary dense-masked calls.
    #[test]
    fn prefix_softmax_equals_dense_mask_equals_reference(
        rows in 1usize..=70,
        cols in 1usize..=300,
        hw in prop_bool::ANY,
        wide_head in prop_bool::ANY,
        scale_exp in -5.0f32..-2.5,
        seed in 0u64..1 << 32,
    ) {
        let mode = if hw { SoftmaxMode::Hardware } else { SoftmaxMode::Fp32 };
        let d_k = if wide_head { 64 } else { 8 };
        let d_scale = 10f32.powf(scale_exp);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = scores(&mut rng, rows, cols);
        let live: Vec<usize> = (0..rows)
            .map(|_| match rng.random_range(0..6u32) {
                0 => 0,
                1 => 1,
                2 => cols - 1,
                3 => cols,
                _ => rng.random_range(0..=cols),
            })
            .collect();
        let dense = Mat::from_fn(rows, cols, |r, c| c >= live[r]);
        let want = softmax_ref(&d, d_scale, d_k, Some(&dense), mode);
        prop_assert_eq!(&scaled_prefix_softmax(&d, d_scale, d_k, &live, mode), &want);
        prop_assert_eq!(&scaled_masked_softmax(&d, d_scale, d_k, Some(&dense), mode), &want);
        for (r, &n) in live.iter().enumerate() {
            prop_assert!(want.row(r)[n..].iter().all(|&p| p == 0), "row {}", r);
        }
        // Unmasked: `None`, every prefix full, and the reference.
        let want = softmax_ref(&d, d_scale, d_k, None, mode);
        prop_assert_eq!(&scaled_masked_softmax(&d, d_scale, d_k, None, mode), &want);
        prop_assert_eq!(&scaled_prefix_softmax(&d, d_scale, d_k, &vec![cols; rows], mode), &want);
        // A mask that is no prefix at all.
        let holes = Mat::from_fn(rows, cols, |_, _| rng.random_range(0..3u32) == 0);
        prop_assert_eq!(
            scaled_masked_softmax(&d, d_scale, d_k, Some(&holes), mode),
            softmax_ref(&d, d_scale, d_k, Some(&holes), mode)
        );
    }

    /// (b) The slice drain is the per-element requantizer, which is the
    /// multiply / magnitude-rounding shift / two-step saturation it
    /// always was — at every shift the representation allows.
    #[test]
    fn slice_requantize_equals_per_element(
        shift in 0u32..=62,
        frac in 0.5001f64..0.9999,
        len in 0usize..200,
        seed in 0u64..1 << 32,
    ) {
        let ratio = frac * (2f64).powi(31 - shift as i32);
        let rq = Requantizer::from_ratio(ratio);
        let parts = requant_ref(ratio);
        prop_assert_eq!(parts.1, shift);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc: Vec<i32> = (0..len)
            .map(|_| {
                let bits = rng.random_range(1..=31u32);
                rng.random_range(i32::MIN >> (31 - bits)..=i32::MAX >> (31 - bits))
            })
            .collect();
        acc.extend([i32::MIN, i32::MAX, i32::MIN + 1, -1, 0, 1]);
        let mut out = vec![0i8; acc.len()];
        rq.apply_sat_i8_slice(&acc, &mut out);
        for (&a, &o) in acc.iter().zip(&out) {
            prop_assert_eq!(o, rq.apply_sat_i8(a), "acc {} shift {}", a, shift);
            prop_assert_eq!(rq.apply(a), apply_ref(parts, a), "acc {} shift {}", a, shift);
            prop_assert_eq!(o, sat_i8(sat_i32(apply_ref(parts, a))), "acc {} shift {}", a, shift);
        }
    }

    /// (c) `forward` is `normalize_row(row_stats)` row by row, and both
    /// are the pre-refactor row body — saturating γ and constant rows
    /// included.
    #[test]
    fn layernorm_forward_equals_row_by_row(
        rows in 1usize..6,
        narrow in 1usize..=96,
        full_width in prop_bool::ANY,
        big_gamma in prop_bool::ANY,
        mag in 1i32..40_000,
        seed in 0u64..1 << 32,
    ) {
        let d = if full_width { 512 } else { narrow };
        let mut rng = StdRng::seed_from_u64(seed);
        let top = if big_gamma { 120.0 } else { 1.5 };
        let gamma: Vec<f32> = (0..d).map(|_| rng.random_range(-top..top)).collect();
        let beta: Vec<f32> = (0..d).map(|_| rng.random_range(-0.5..0.5f32)).collect();
        let (s_in, s_out) = (rng.random_range(0.005..0.1f32), rng.random_range(0.005..0.05f32));
        let ln = HwLayerNorm::from_f32(&gamma, &beta, QuantParams::new(s_in), QuantParams::new(s_out));
        let reference = LnRef::new(&gamma, &beta, s_in, s_out);
        let constant = rng.random_range(-mag..=mag);
        let g = Mat::from_fn(rows, d, |r, _| {
            if r == 0 { constant } else { rng.random_range(-mag..=mag) }
        });
        let got = ln.forward(&g);
        for r in 0..rows {
            let by_row = ln.normalize_row(g.row(r), &ln.row_stats(g.row(r)));
            prop_assert_eq!(got.row(r), by_row.as_slice(), "row {}", r);
            prop_assert_eq!(got.row(r), reference.row(g.row(r)).as_slice(), "row {}", r);
        }
        if big_gamma {
            prop_assert!(got.as_slice().iter().all(|&v| v != i8::MIN), "symmetric INT8");
        }
    }

    /// (d) `submatrix` and `hconcat` are their element-wise definitions,
    /// empty and full rectangles included.
    #[test]
    fn submatrix_and_hconcat_equal_their_definitions(
        rows in 0usize..20,
        cols in 0usize..40,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Mat::from_fn(rows, cols, |_, _| rng.random_range(-128..=127i32) as i8);
        let r0 = rng.random_range(0..=rows);
        let c0 = rng.random_range(0..=cols);
        for (r0, c0, h, w) in [
            (r0, c0, rng.random_range(0..=rows - r0), rng.random_range(0..=cols - c0)),
            (0, 0, rows, cols),
            (r0, c0, 0, cols - c0),
            (r0, c0, rows - r0, 0),
        ] {
            let want = Mat::from_fn(h, w, |r, c| m[(r0 + r, c0 + c)]);
            prop_assert_eq!(m.submatrix(r0, c0, h, w).unwrap(), want);
        }
        prop_assert!(m.submatrix(r0, c0, rows - r0 + 1, 0).is_err());
        prop_assert!(m.submatrix(r0, c0, 0, cols - c0 + 1).is_err());
        // Split at c0 and join again, by value and by reference.
        let (left, right) = (
            m.submatrix(0, 0, rows, c0).unwrap(),
            m.submatrix(0, c0, rows, cols - c0).unwrap(),
        );
        prop_assert_eq!(&Mat::hconcat(&[&left, &right]).unwrap(), &m);
        prop_assert_eq!(&Mat::hconcat(&[left, right]).unwrap(), &m);
    }
}
