//! Saturating casts and rounding shifts — the glue arithmetic of every
//! fixed-point datapath stage.

/// Saturates an `i32` into the symmetric INT8 range `[-127, 127]`.
///
/// The accelerator never produces `-128` (symmetric quantization), which
/// keeps INT8 negation closed and the PE multiplier result within 14 bits.
///
/// # Example
///
/// ```
/// assert_eq!(fixedmath::sat::sat_i8(300), 127);
/// assert_eq!(fixedmath::sat::sat_i8(-300), -127);
/// assert_eq!(fixedmath::sat::sat_i8(-5), -5);
/// ```
#[inline]
pub fn sat_i8(x: i32) -> i8 {
    x.clamp(-127, 127) as i8
}

/// Saturates an `i64` into `i32` range.
#[inline]
pub fn sat_i32(x: i64) -> i32 {
    x.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Arithmetic right shift with round-to-nearest (ties away from zero),
/// matching the behaviour of a hardware rounding shifter.
///
/// `shift == 0` returns `x` unchanged.
///
/// # Panics
///
/// Panics if `shift >= 63`.
///
/// # Example
///
/// ```
/// use fixedmath::sat::rounding_shr;
/// assert_eq!(rounding_shr(5, 1), 3);   // 2.5 rounds away to 3
/// assert_eq!(rounding_shr(-5, 1), -3); // -2.5 rounds away to -3
/// assert_eq!(rounding_shr(4, 1), 2);
/// ```
#[inline]
pub fn rounding_shr(x: i64, shift: u32) -> i64 {
    assert!(shift < 63, "shift {shift} out of range");
    if shift == 0 {
        return x;
    }
    // Ties away from zero in four operations, with no sign split: add
    // half, add the sign word (-1 for negatives), floor-shift. For
    // `x >= 0` that is `floor((x + h) / 2^s)`. For `x < 0` the rounded
    // magnitude negated is `-floor((|x| + h) / 2^s) = ceil((x - h) / 2^s)
    // = floor((x - h + 2^s - 1) / 2^s) = floor((x + h - 1) / 2^s)`,
    // because `2^s - h = h`. This sits inside the softmax, LayerNorm
    // and requantize inner loops, where a data-dependent sign branch
    // would mispredict half the time and block vectorisation, and where
    // the magnitude/restore form costs twice the 64-bit lane operations.
    let half = 1i64 << (shift - 1);
    (x + (half + (x >> 63))) >> shift
}

/// Truncating arithmetic right shift (the plain `>>` of Verilog on a
/// signed value) — used where the paper's datapath shifts without
/// rounding, e.g. the `>> 3` scale in the softmax input.
#[inline]
pub fn trunc_shr(x: i32, shift: u32) -> i32 {
    x >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_i8_clamps_symmetrically() {
        assert_eq!(sat_i8(i32::MAX), 127);
        assert_eq!(sat_i8(i32::MIN), -127);
        assert_eq!(sat_i8(-128), -127);
        assert_eq!(sat_i8(127), 127);
        assert_eq!(sat_i8(0), 0);
    }

    #[test]
    fn sat_i32_clamps() {
        assert_eq!(sat_i32(i64::MAX), i32::MAX);
        assert_eq!(sat_i32(i64::MIN), i32::MIN);
        assert_eq!(sat_i32(42), 42);
    }

    #[test]
    fn rounding_shr_rounds_to_nearest() {
        assert_eq!(rounding_shr(7, 2), 2); // 1.75 -> 2
        assert_eq!(rounding_shr(6, 2), 2); // 1.5  -> 2 (away)
        assert_eq!(rounding_shr(5, 2), 1); // 1.25 -> 1
        assert_eq!(rounding_shr(-6, 2), -2);
        assert_eq!(rounding_shr(-7, 2), -2);
        assert_eq!(rounding_shr(0, 10), 0);
        assert_eq!(rounding_shr(123, 0), 123);
    }

    /// The magnitude form the four-operation body replaced: round `|x|`,
    /// restore the sign.
    fn rounding_shr_by_magnitude(x: i64, shift: u32) -> i64 {
        let r = (x.unsigned_abs() + (1u64 << (shift - 1))) >> shift;
        if x < 0 {
            -(r as i64)
        } else {
            r as i64
        }
    }

    #[test]
    fn rounding_shr_equals_the_magnitude_form() {
        let edges = [
            0i64,
            1,
            2,
            3,
            (1 << 31) - 1,
            1 << 31,
            (1 << 62) - 1,
            1 << 62,
            i64::MAX >> 1,
        ];
        for shift in 1..=62u32 {
            let half = 1i64 << (shift - 1);
            for &e in &edges {
                for x in [e, e + half, e - half, e + half - 1, e - half + 1] {
                    // Stay where `|x| + half` fits an i64 (every product
                    // of two 32-bit words does).
                    if x.unsigned_abs() > (i64::MAX - half) as u64 {
                        continue;
                    }
                    for v in [x, -x] {
                        assert_eq!(
                            rounding_shr(v, shift),
                            rounding_shr_by_magnitude(v, shift),
                            "x={v} shift={shift}"
                        );
                    }
                }
            }
        }
        for x in -5000i64..5000 {
            for shift in 1..12 {
                assert_eq!(
                    rounding_shr(x, shift),
                    rounding_shr_by_magnitude(x, shift),
                    "x={x} shift={shift}"
                );
            }
        }
    }

    #[test]
    fn rounding_shr_symmetry() {
        for x in -1000i64..1000 {
            for s in 1..8 {
                assert_eq!(rounding_shr(-x, s), -rounding_shr(x, s), "x={x} s={s}");
            }
        }
    }

    #[test]
    fn trunc_shr_matches_verilog_semantics() {
        assert_eq!(trunc_shr(-1, 3), -1); // arithmetic shift keeps sign
        assert_eq!(trunc_shr(-8, 3), -1);
        assert_eq!(trunc_shr(7, 3), 0);
    }
}
