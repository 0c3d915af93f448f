//! Multiplier-free EXP and LN units (Fig. 6 of the paper; architecture
//! from Wang et al., "A high-speed and low-complexity architecture for
//! softmax function in deep learning", APCCAS 2018).
//!
//! Both units operate on crate fixed-point (`Q19.12`, see [`crate::fx`])
//! and use only shifts, adds and a leading-one detector:
//!
//! * **EXP**: `exp(x) = 2^(x·log2 e)` with
//!   `x·log2 e ≈ x + (x >> 1) - (x >> 4)` (= `x·1.4375`, 0.36% low) and
//!   `2^f ≈ 1 + f` for the fractional part `f ∈ [0, 1)` (exact at both
//!   endpoints, ≤ 6.2% high in between). Valid for `x <= 0`, which the
//!   log-sum-exp trick guarantees.
//! * **LN**: `ln(x) = ln 2 · log2 x`, `log2 x ≈ e + (m - 1)` from the
//!   leading-one position (`x = m·2^e`, `m ∈ [1, 2)`), and the `ln 2`
//!   product realised as `v>>1 + v>>3 + v>>4 + v>>7` (= `v·0.6953`,
//!   0.32% high).
//!
//! The combined softmax built from these units stays within ~2% absolute
//! of the exact softmax — Section V-A of the paper measures the end
//! effect as a BLEU change of +0.09 (23.48 → 23.57), i.e. noise.

use crate::fx::{FRAC, ONE};

/// Hardware EXP unit: `exp(x)` for `x <= 0`, in `Q19.12` fixed point.
///
/// Returns a value in `[0, ONE]`. Inputs `x > 0` are clamped to 0 (the
/// unit is only ever fed `x - max <= 0`); inputs below the underflow
/// threshold return 0, mirroring the hardware's finite shifter.
///
/// # Example
///
/// ```
/// use fixedmath::{explog::exp_unit, fx};
/// assert_eq!(exp_unit(0), fx::ONE); // e^0 == 1 exactly
/// let y = exp_unit(fx::to_fx(-1.0, fx::FRAC));
/// assert!((fx::to_f32(y, fx::FRAC) - 0.3679).abs() < 0.03);
/// ```
#[inline]
pub fn exp_unit(x: i32) -> i32 {
    exp_unit_with_frac(x, FRAC)
}

/// [`exp_unit`] generalised over the fixed-point fraction width — the
/// Q-format ablation (experiment E5 reports softmax error vs `frac`).
///
/// # Panics
///
/// Panics if `frac` is 0 or ≥ 30.
#[inline]
pub(crate) fn exp_unit_with_frac(x: i32, frac: u32) -> i32 {
    assert!(frac > 0 && frac < 30, "frac {frac} out of range");
    let one = 1i32 << frac;
    let x = x.min(0);
    // y = x * log2(e), via shift-add: x + x/2 - x/16 = 1.4375 x.
    let y = x + (x >> 1) - (x >> 4);
    // Split y into integer exponent k (<= 0) and fraction f in [0, one).
    let k = y >> frac; // arithmetic shift: floor division
    let f = y - (k << frac);
    debug_assert!((0..one).contains(&f));
    // 2^f ~= 1 + f; then scale by 2^k (a right shift, truncating as the
    // hardware shifter does). Saturating the shift count at 31 models the
    // underflow branch of the hardware's finite shifter without a branch:
    // the mantissa is below 2^(frac+1) <= 2^30, so any shift >= 31
    // produces exactly 0 — and the branch-free body lets the softmax
    // stages auto-vectorise over columns.
    let neg_k = ((-k) as u32).min(31);
    (one + f) >> neg_k
}

/// Hardware LN unit: `ln(x)` for `x > 0`, in `Q19.12` fixed point.
///
/// # Panics
///
/// Panics if `x <= 0` (the softmax sum always contains the `exp(0) = 1`
/// term, so the hardware never sees a non-positive input).
///
/// # Example
///
/// ```
/// use fixedmath::{explog::ln_unit, fx};
/// assert_eq!(ln_unit(fx::ONE), 0); // ln(1) == 0 exactly
/// let y = ln_unit(fx::to_fx(8.0, fx::FRAC));
/// assert!((fx::to_f32(y, fx::FRAC) - 2.079).abs() < 0.05);
/// ```
#[inline]
pub fn ln_unit(x: i32) -> i32 {
    ln_unit_with_frac(x, FRAC)
}

/// [`ln_unit`] generalised over the fixed-point fraction width.
///
/// # Panics
///
/// Panics if `x <= 0` or `frac` is 0 or ≥ 30.
#[inline]
pub(crate) fn ln_unit_with_frac(x: i32, frac: u32) -> i32 {
    assert!(frac > 0 && frac < 30, "frac {frac} out of range");
    assert!(x > 0, "ln_unit input must be positive, got {x}");
    let one = 1i32 << frac;
    // Leading-one detection: x = m * 2^e with m in [1, 2).
    let p = 31 - x.leading_zeros() as i32; // MSB position
    let e = p - frac as i32;
    // Normalise mantissa to Q.frac in [one, 2*one).
    let m = if e >= 0 { x >> e } else { x << (-e) };
    debug_assert!((one..2 * one).contains(&m));
    // log2(x) ~= e + (m - 1)
    let log2 = (e << frac) + (m - one);
    // ln(x) = log2(x) * ln(2); ln(2) ~= 1/2 + 1/8 + 1/16 + 1/128 = 0.6953.
    (log2 >> 1) + (log2 >> 3) + (log2 >> 4) + (log2 >> 7)
}

/// Ablation variant of [`exp_unit`] with a **two-segment** piecewise-
/// linear `2^f` (still shift-add only):
///
/// * `f ∈ [0, 1/2)`: `2^f ≈ 1 + f·(1/2 + 1/4 + 1/16)` (= `1 + 0.8125 f`)
/// * `f ∈ [1/2, 1)`: `2^f ≈ 0.8125 + f·(1 + 1/8 + 1/16)` (continuous at
///   `f = 1/2`, exact at `f = 1`)
///
/// Cuts the fractional approximation's worst-case error from 8.6% to
/// about 1.8% for one extra comparator and two extra adders per lane —
/// quantifying how much accuracy headroom the paper's single-segment
/// choice left on the table (it needed none: see experiment E9).
#[inline]
pub(crate) fn exp_unit_pwl2(x: i32) -> i32 {
    let x = x.min(0);
    let y = x + (x >> 1) - (x >> 4);
    let k = y >> FRAC;
    let f = y - (k << FRAC);
    debug_assert!((0..ONE).contains(&f));
    let neg_k = (-k) as u32;
    if neg_k >= 31 {
        return 0;
    }
    let half = ONE >> 1;
    let mant = if f < half {
        ONE + (f >> 1) + (f >> 2) + (f >> 4)
    } else {
        (ONE - (ONE >> 3) - (ONE >> 4)) + f + (f >> 3) + (f >> 4)
    };
    mant >> neg_k
}

/// Maximum absolute error of [`exp_unit`] over `x ∈ [-16, 0]`, measured
/// against `f64::exp`. Exposed for accuracy reporting (experiment E5).
pub fn exp_unit_max_abs_error() -> f64 {
    let mut worst = 0.0f64;
    let lo = crate::fx::to_fx(-16.0, FRAC);
    let mut x = lo;
    while x <= 0 {
        let approx = exp_unit(x) as f64 / ONE as f64;
        let exact = (x as f64 / ONE as f64).exp();
        worst = worst.max((approx - exact).abs());
        x += 7; // sample densely but not exhaustively
    }
    worst
}

/// Maximum absolute error of [`exp_unit_pwl2`] over `x ∈ [-16, 0]`.
pub fn exp_unit_pwl2_max_abs_error() -> f64 {
    let mut worst = 0.0f64;
    let lo = crate::fx::to_fx(-16.0, FRAC);
    let mut x = lo;
    while x <= 0 {
        let approx = exp_unit_pwl2(x) as f64 / ONE as f64;
        let exact = (x as f64 / ONE as f64).exp();
        worst = worst.max((approx - exact).abs());
        x += 7;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::{to_f32, to_fx};

    #[test]
    fn exp_exact_at_zero() {
        assert_eq!(exp_unit(0), ONE);
    }

    #[test]
    fn exp_clamps_positive_inputs() {
        assert_eq!(exp_unit(to_fx(3.0, FRAC)), ONE);
    }

    #[test]
    fn exp_monotone_nonincreasing_as_x_decreases() {
        let mut prev = exp_unit(0);
        for i in 1..200 {
            let x = -i * (ONE / 16);
            let y = exp_unit(x);
            assert!(y <= prev, "exp not monotone at x={x}: {y} > {prev}");
            prev = y;
        }
    }

    #[test]
    fn exp_absolute_error_bounded() {
        // The shift-add EXP approximation stays within 7% absolute of e^x
        // on the range the softmax uses.
        let mut x = to_fx(-12.0, FRAC);
        while x <= 0 {
            let approx = to_f32(exp_unit(x), FRAC) as f64;
            let exact = (x as f64 / ONE as f64).exp();
            assert!(
                (approx - exact).abs() < 0.07,
                "x={} approx={approx} exact={exact}",
                x as f64 / ONE as f64
            );
            x += 13;
        }
    }

    #[test]
    fn exp_underflows_to_zero() {
        assert_eq!(exp_unit(to_fx(-40.0, FRAC)), 0);
        assert_eq!(exp_unit(i32::MIN / 2), 0);
    }

    #[test]
    fn ln_exact_at_one_and_powers_of_two() {
        assert_eq!(ln_unit(ONE), 0);
        // ln(2^k) = k * 0.6953 with the shift-add constant
        let ln2_approx = 0.5 + 0.125 + 0.0625 + 1.0 / 128.0;
        for k in 1..8 {
            let y = to_f32(ln_unit(ONE << k), FRAC) as f64;
            let want = k as f64 * ln2_approx;
            assert!((y - want).abs() < 0.01, "k={k}: {y} vs {want}");
        }
    }

    #[test]
    fn ln_absolute_error_bounded() {
        // The `log2(m) ~= m - 1` approximation has a worst-case error of
        // 0.086 (at m ~= 1.44); through the ln2 constant this bounds the
        // unit's *absolute* error by ~0.061 + 0.4% of ln(x). Over the
        // softmax sum range [1, s] = [1, 512] that is < 0.09. (For the
        // softmax, an absolute ln-error shifts every logit of a row
        // equally, i.e. scales the whole row by a common factor — which is
        // why the paper's BLEU is unaffected.)
        let mut x = ONE;
        while x < 512 * ONE {
            let approx = to_f32(ln_unit(x), FRAC) as f64;
            let exact = (x as f64 / ONE as f64).ln();
            assert!(
                (approx - exact).abs() < 0.09,
                "x={} approx={approx} exact={exact}",
                x as f64 / ONE as f64
            );
            x += ONE / 3 + 1;
        }
    }

    #[test]
    fn ln_handles_subunit_inputs() {
        let y = to_f32(ln_unit(to_fx(0.5, FRAC)), FRAC) as f64;
        assert!((y - (-0.693)).abs() < 0.05, "ln(0.5) ~ {y}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ln_rejects_zero() {
        ln_unit(0);
    }

    #[test]
    fn exp_ln_roundtrip_error_small() {
        // exp(ln(x)) should recover x within the combined approximation
        // error (~10% relative) — this is the path the softmax takes.
        for &v in &[1.0f32, 1.5, 2.0, 5.0, 17.0, 63.0] {
            let x = to_fx(v, FRAC);
            let ln = ln_unit(x);
            let back = to_f32(exp_unit(-ln), FRAC); // exp(-ln x) = 1/x
            let want = 1.0 / v;
            assert!(
                (back - want).abs() / want < 0.15,
                "v={v}: 1/x approx {back} want {want}"
            );
        }
    }

    #[test]
    fn reported_max_error_is_sane() {
        let e = exp_unit_max_abs_error();
        assert!(e > 0.0 && e < 0.07, "max exp error {e}");
    }

    #[test]
    fn frac_generic_units_match_the_specialised_ones() {
        for x in [-40_000i32, -5000, -1, 0] {
            assert_eq!(exp_unit(x), exp_unit_with_frac(x, FRAC));
        }
        for x in [1i32, 4096, 123_456] {
            assert_eq!(ln_unit(x), ln_unit_with_frac(x, FRAC));
        }
    }

    #[test]
    fn wider_fractions_reduce_exp_error() {
        let err_at = |frac: u32| {
            let one = 1i32 << frac;
            let mut worst = 0.0f64;
            let mut x = -(16 << frac);
            while x <= 0 {
                let approx = exp_unit_with_frac(x, frac) as f64 / one as f64;
                let exact = (x as f64 / one as f64).exp();
                worst = worst.max((approx - exact).abs());
                x += (one >> 4).max(1);
            }
            worst
        };
        // error is dominated by the approximation at frac >= 10, by
        // quantization below it: very coarse formats are strictly worse,
        // and wide formats converge to the analytic PWL bound (~0.044)
        assert!(err_at(6) > err_at(12), "{} vs {}", err_at(6), err_at(12));
        assert!((err_at(16) - 0.044).abs() < 0.01, "{}", err_at(16));
        for f in [8u32, 10, 12, 16] {
            assert!(err_at(f) < 0.1, "frac {f}: {}", err_at(f));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_frac_rejected() {
        let _ = exp_unit_with_frac(-1, 0);
    }

    #[test]
    fn pwl2_is_strictly_more_accurate() {
        let one_seg = exp_unit_max_abs_error();
        let two_seg = exp_unit_pwl2_max_abs_error();
        assert!(
            two_seg < one_seg / 2.0,
            "pwl2 {two_seg} vs single-segment {one_seg}"
        );
        assert!(two_seg < 0.03, "{two_seg}");
    }

    #[test]
    fn pwl2_exact_at_zero_and_monotone() {
        assert_eq!(exp_unit_pwl2(0), ONE);
        let mut prev = exp_unit_pwl2(0);
        for i in 1..200 {
            let y = exp_unit_pwl2(-i * (ONE / 16));
            assert!(y <= prev, "not monotone at step {i}");
            prev = y;
        }
        assert_eq!(exp_unit_pwl2(to_fx(-40.0, FRAC)), 0);
    }

    #[test]
    fn pwl2_segments_are_continuous() {
        // mantissa continuity at f = 1/2: evaluate two x values whose
        // fractional parts straddle the boundary within 1 LSB
        let half = ONE >> 1;
        let seg0 = ONE + ((half - 1) >> 1) + ((half - 1) >> 2) + ((half - 1) >> 4);
        let seg1 = (ONE - (ONE >> 3) - (ONE >> 4)) + half + (half >> 3) + (half >> 4);
        assert!(
            (seg0 - seg1).abs() <= 4,
            "discontinuity {} vs {}",
            seg0,
            seg1
        );
    }
}
