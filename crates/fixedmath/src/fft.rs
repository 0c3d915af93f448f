//! A small fixed-point radix-2 complex FFT — the arithmetic core of the
//! FTRANS-style block-circulant FFN backend.
//!
//! FTRANS (arXiv 2007.08563) compresses Transformer weight matrices
//! into `b × b` circulant blocks; a circulant matrix–vector product is a
//! circular convolution, which an FFT unit computes as
//! `y = IFFT(FFT(x) ∘ FFT(c))` in `O(b log b)` multiplies instead of
//! `O(b²)`. The hardware unit is tiny: `b` is 8 or 16, so the whole
//! transform fits a handful of butterfly stages.
//!
//! Everything here runs on `i32` fixed-point words with a caller-chosen
//! fraction width (use [`crate::fx::FRAC`] for the accelerator's Q19.12
//! convention), with round-to-nearest shifts after every multiply —
//! matching what a DSP-slice butterfly datapath would do. The
//! forward/inverse pair is exercised against a naive DFT and the
//! circular-convolution theorem in this module's tests; end-to-end
//! accuracy of the circulant FFN lands in `accel`'s SQNR harness.

use crate::sat::rounding_shr;

/// A fixed-point complex number (both parts share the fraction width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: i32,
    /// Imaginary part.
    pub im: i32,
}

impl Cpx {
    /// The complex zero.
    pub const ZERO: Cpx = Cpx { re: 0, im: 0 };

    /// Builds from fixed-point parts.
    pub fn new(re: i32, im: i32) -> Self {
        Self { re, im }
    }

    /// Builds a purely real value.
    pub(crate) fn real(re: i32) -> Self {
        Self { re, im: 0 }
    }

    /// Complex multiply with a rounding `frac`-bit normalisation — one
    /// butterfly's four-multiplier datapath.
    pub fn mul(self, o: Cpx, frac: u32) -> Cpx {
        let re = self.re as i64 * o.re as i64 - self.im as i64 * o.im as i64;
        let im = self.re as i64 * o.im as i64 + self.im as i64 * o.re as i64;
        Cpx::new(rounding_shr(re, frac) as i32, rounding_shr(im, frac) as i32)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Cpx {
        Cpx::new(self.re, -self.im)
    }
}

/// Complex addition (wrapping is a caller bug; ranges here are far
/// inside `i32`).
impl std::ops::Add for Cpx {
    type Output = Cpx;
    fn add(self, o: Cpx) -> Cpx {
        Cpx::new(self.re + o.re, self.im + o.im)
    }
}

/// Complex subtraction.
impl std::ops::Sub for Cpx {
    type Output = Cpx;
    fn sub(self, o: Cpx) -> Cpx {
        Cpx::new(self.re - o.re, self.im - o.im)
    }
}

/// Precomputes the forward twiddle factors `e^{-2πik/n}` for
/// `k = 0..n/2` in fixed point — the unit's ROM contents.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn twiddles(n: usize, frac: u32) -> Vec<Cpx> {
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    (0..n / 2)
        .map(|k| {
            let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Cpx::new(
                crate::fx::to_fx(theta.cos() as f32, frac),
                crate::fx::to_fx(theta.sin() as f32, frac),
            )
        })
        .collect()
}

/// Calls `swap(i, j)` for every pair `i < j` that the bit-reversal
/// permutation of `0..n` exchanges.
fn bit_reversed_pairs(n: usize, mut swap: impl FnMut(usize, usize)) {
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            swap(i, j);
        }
    }
}

fn bit_reverse_permute(x: &mut [Cpx]) {
    bit_reversed_pairs(x.len(), |i, j| x.swap(i, j));
}

/// In-place radix-2 decimation-in-time FFT. `tw` must come from
/// [`twiddles`] at the same `n` and `frac`.
///
/// # Panics
///
/// Panics if the length is not a power of two or the twiddle table does
/// not match.
pub(crate) fn fft_in_place(x: &mut [Cpx], tw: &[Cpx], frac: u32) {
    let n = x.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    assert_eq!(tw.len(), n / 2, "twiddle table size mismatch");
    if n <= 1 {
        return;
    }
    bit_reverse_permute(x);
    let mut len = 2;
    while len <= n {
        let step = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let w = tw[k * step];
                let a = x[start + k];
                let b = x[start + k + len / 2].mul(w, frac);
                x[start + k] = a + b;
                x[start + k + len / 2] = a - b;
            }
        }
        len <<= 1;
    }
}

/// In-place inverse FFT via the conjugation trick, including the `1/n`
/// normalisation as a rounding right-shift (exact for power-of-two `n`).
///
/// # Panics
///
/// Same conditions as [`fft_in_place`].
pub fn ifft_in_place(x: &mut [Cpx], tw: &[Cpx], frac: u32) {
    let n = x.len();
    for v in x.iter_mut() {
        *v = v.conj();
    }
    fft_in_place(x, tw, frac);
    let shift = n.trailing_zeros();
    for v in x.iter_mut() {
        *v = Cpx::new(
            rounding_shr(v.re as i64, shift) as i32,
            rounding_shr(-v.im as i64, shift) as i32,
        );
    }
}

/// Forward FFT of a real fixed-point signal — the common entry point
/// for activations and circulant kernels.
pub fn fft_real(x: &[i32], tw: &[Cpx], frac: u32) -> Vec<Cpx> {
    let mut buf: Vec<Cpx> = x.iter().map(|&v| Cpx::real(v)).collect();
    fft_in_place(&mut buf, tw, frac);
    buf
}

/// [`fft_in_place`] over `lanes` independent length-`n` transforms held
/// planar: `re`/`im` are `n` planes of `lanes` words each, element `k`
/// of lane `l` at `[k * lanes + l]`. The bit-reversal swaps whole planes
/// and each butterfly is one unit-stride loop over the lanes, rounding
/// its product exactly as [`Cpx::mul`] does, so every lane ends
/// bit-identical to a scalar transform of it.
///
/// # Panics
///
/// Panics if `lanes` is zero, the planes differ in size or are not a
/// whole number of lanes, or `n` and `tw` break [`fft_in_place`]'s
/// conditions.
pub fn fft_planes(re: &mut [i32], im: &mut [i32], lanes: usize, tw: &[Cpx], frac: u32) {
    assert!(lanes > 0, "planar FFT needs at least one lane");
    assert_eq!(re.len(), im.len(), "re/im plane size mismatch");
    assert_eq!(re.len() % lanes, 0, "planes must hold whole lanes");
    let n = re.len() / lanes;
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    assert_eq!(tw.len(), n / 2, "twiddle table size mismatch");
    bit_reversed_pairs(n, |i, j| {
        for planes in [&mut *re, &mut *im] {
            let (lo, hi) = planes.split_at_mut(j * lanes);
            lo[i * lanes..(i + 1) * lanes].swap_with_slice(&mut hi[..lanes]);
        }
    });
    let mut len = 2;
    while len <= n {
        let step = n / len;
        let half = len / 2 * lanes;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (wr, wi) = (tw[k * step].re as i64, tw[k * step].im as i64);
                let at = (start + k) * lanes;
                let (a_re, b_re) = re[at..at + half + lanes].split_at_mut(half);
                let (a_im, b_im) = im[at..at + half + lanes].split_at_mut(half);
                let upper = a_re[..lanes].iter_mut().zip(&mut a_im[..lanes]);
                let lower = b_re.iter_mut().zip(b_im.iter_mut());
                for ((ar, ai), (br, bi)) in upper.zip(lower) {
                    let (xr, xi) = (*br as i64, *bi as i64);
                    let pr = rounding_shr(xr * wr - xi * wi, frac) as i32;
                    let pi = rounding_shr(xr * wi + xi * wr, frac) as i32;
                    (*br, *bi) = (*ar - pr, *ai - pi);
                    (*ar, *ai) = (*ar + pr, *ai + pi);
                }
            }
        }
        len <<= 1;
    }
}

/// [`ifft_in_place`] over the planar layout of [`fft_planes`]: conjugate,
/// forward transform, conjugate again with the `1/n` rounding shift.
///
/// # Panics
///
/// Same conditions as [`fft_planes`].
pub fn ifft_planes(re: &mut [i32], im: &mut [i32], lanes: usize, tw: &[Cpx], frac: u32) {
    for v in im.iter_mut() {
        *v = -*v;
    }
    fft_planes(re, im, lanes, tw, frac);
    let shift = (re.len() / lanes).trailing_zeros();
    for (r, i) in re.iter_mut().zip(im.iter_mut()) {
        *r = rounding_shr(*r as i64, shift) as i32;
        *i = rounding_shr(-*i as i64, shift) as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::{self, FRAC};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_dft(x: &[Cpx]) -> Vec<(f64, f64)> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut re = 0.0;
                let mut im = 0.0;
                for (t, v) in x.iter().enumerate() {
                    let theta = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    let (vr, vi) = (fx::to_f32(v.re, FRAC) as f64, fx::to_f32(v.im, FRAC) as f64);
                    re += vr * theta.cos() - vi * theta.sin();
                    im += vr * theta.sin() + vi * theta.cos();
                }
                (re, im)
            })
            .collect()
    }

    fn fixture(n: usize) -> Vec<Cpx> {
        (0..n)
            .map(|i| {
                Cpx::new(
                    fx::to_fx(((i * 7 + 3) % 11) as f32 / 4.0 - 1.0, FRAC),
                    fx::to_fx(((i * 5 + 1) % 7) as f32 / 8.0 - 0.4, FRAC),
                )
            })
            .collect()
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let tw = twiddles(8, FRAC);
        let mut x = vec![Cpx::ZERO; 8];
        x[0] = Cpx::real(fx::ONE);
        fft_in_place(&mut x, &tw, FRAC);
        for v in &x {
            assert_eq!(v.re, fx::ONE);
            assert!(v.im.abs() <= 1);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [4usize, 8, 16] {
            let tw = twiddles(n, FRAC);
            let mut x = fixture(n);
            let want = naive_dft(&x);
            fft_in_place(&mut x, &tw, FRAC);
            for (got, (wr, wi)) in x.iter().zip(&want) {
                let tol = 8.0 / fx::ONE as f64 * n as f64;
                assert!(
                    (fx::to_f32(got.re, FRAC) as f64 - wr).abs() < tol,
                    "n={n} re {got:?} vs {wr}"
                );
                assert!((fx::to_f32(got.im, FRAC) as f64 - wi).abs() < tol);
            }
        }
    }

    #[test]
    fn round_trip_is_near_identity() {
        let n = 16;
        let tw = twiddles(n, FRAC);
        let orig = fixture(n);
        let mut x = orig.clone();
        fft_in_place(&mut x, &tw, FRAC);
        ifft_in_place(&mut x, &tw, FRAC);
        for (got, want) in x.iter().zip(&orig) {
            assert!((got.re - want.re).abs() <= 16, "{got:?} vs {want:?}");
            assert!((got.im - want.im).abs() <= 16);
        }
    }

    #[test]
    fn circular_convolution_theorem_holds() {
        // y = IFFT(FFT(a) ∘ FFT(b)) must equal the direct O(n²)
        // circular convolution.
        let n = 8usize;
        let tw = twiddles(n, FRAC);
        let a: Vec<i32> = (0..n)
            .map(|i| fx::to_fx((i as f32 - 3.0) / 4.0, FRAC))
            .collect();
        let b: Vec<i32> = (0..n)
            .map(|i| fx::to_fx(((i * 3) % 5) as f32 / 5.0, FRAC))
            .collect();
        let fa = fft_real(&a, &tw, FRAC);
        let fb = fft_real(&b, &tw, FRAC);
        let mut prod: Vec<Cpx> = fa.iter().zip(&fb).map(|(x, y)| x.mul(*y, FRAC)).collect();
        ifft_in_place(&mut prod, &tw, FRAC);
        for t in 0..n {
            let mut want = 0.0f64;
            for d in 0..n {
                want += fx::to_f32(a[d], FRAC) as f64 * fx::to_f32(b[(t + n - d) % n], FRAC) as f64;
            }
            let got = fx::to_f32(prod[t].re, FRAC) as f64;
            assert!(
                (got - want).abs() < 64.0 / fx::ONE as f64,
                "t={t}: {got} vs {want}"
            );
            assert!(prod[t].im.abs() <= 64, "real inputs, real output");
        }
    }

    // ---- Planar batched transforms -------------------------------------

    #[test]
    fn planar_transforms_equal_the_scalar_ones_lane_by_lane() {
        let mut rng = StdRng::seed_from_u64(0xF17);
        for n in [2usize, 4, 8, 16] {
            let tw = twiddles(n, FRAC);
            for lanes in [1usize, 3, 64, 256] {
                let mut re: Vec<i32> = (0..n * lanes)
                    .map(|_| rng.random_range(-(1 << 24)..1 << 24))
                    .collect();
                let mut im: Vec<i32> = (0..n * lanes)
                    .map(|_| rng.random_range(-(1 << 24)..1 << 24))
                    .collect();
                let lane = |re: &[i32], im: &[i32], l: usize| -> Vec<Cpx> {
                    (0..n)
                        .map(|k| Cpx::new(re[k * lanes + l], im[k * lanes + l]))
                        .collect()
                };
                let mut want: Vec<Vec<Cpx>> = (0..lanes).map(|l| lane(&re, &im, l)).collect();
                fft_planes(&mut re, &mut im, lanes, &tw, FRAC);
                for (l, w) in want.iter_mut().enumerate() {
                    fft_in_place(w, &tw, FRAC);
                    assert_eq!(
                        lane(&re, &im, l),
                        *w,
                        "forward n={n} lanes={lanes} lane {l}"
                    );
                }
                ifft_planes(&mut re, &mut im, lanes, &tw, FRAC);
                for (l, w) in want.iter_mut().enumerate() {
                    ifft_in_place(w, &tw, FRAC);
                    assert_eq!(
                        lane(&re, &im, l),
                        *w,
                        "inverse n={n} lanes={lanes} lane {l}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole lanes")]
    fn ragged_planes_rejected() {
        fft_planes(&mut [0; 9], &mut [0; 9], 2, &twiddles(4, FRAC), FRAC);
    }

    // ---- Real input: the exact symmetry the half-spectrum unit rests on -

    /// Bins `0` and `n/2` real, bin `n − k` the conjugate of bin `k`.
    fn is_hermitian(x: &[Cpx]) -> bool {
        let n = x.len();
        x[0].im == 0 && x[n / 2].im == 0 && (1..n / 2).all(|k| x[n - k] == x[k].conj())
    }

    /// [`fft_real`] with the rounding shift as a parameter: the mutation
    /// harness for the symmetry property.
    fn fft_real_rounded_by(x: &[i32], tw: &[Cpx], round: fn(i64, u32) -> i64) -> Vec<Cpx> {
        let n = x.len();
        let mut x: Vec<Cpx> = x.iter().map(|&v| Cpx::real(v)).collect();
        bit_reverse_permute(&mut x);
        let mut len = 2;
        while len <= n {
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let (w, a, b) = (tw[k * (n / len)], x[start + k], x[start + k + len / 2]);
                    let re = b.re as i64 * w.re as i64 - b.im as i64 * w.im as i64;
                    let im = b.re as i64 * w.im as i64 + b.im as i64 * w.re as i64;
                    let b = Cpx::new(round(re, FRAC) as i32, round(im, FRAC) as i32);
                    x[start + k] = a + b;
                    x[start + k + len / 2] = a - b;
                }
            }
            len <<= 1;
        }
        x
    }

    proptest! {
        #[test]
        fn spectrum_of_a_real_signal_is_exactly_hermitian(
            log2n in 1u32..=4,
            samples in proptest::collection::vec(-(1i32 << 24)..1 << 24, 16),
        ) {
            let n = 1usize << log2n;
            let tw = twiddles(n, FRAC);
            let spectrum = fft_real(&samples[..n], &tw, FRAC);
            prop_assert!(is_hermitian(&spectrum), "{:?}", spectrum);
            // (and the mutation harness below is this transform)
            prop_assert_eq!(fft_real_rounded_by(&samples[..n], &tw, rounding_shr), spectrum);
        }
    }

    #[test]
    fn a_round_half_up_shift_breaks_the_symmetry() {
        // `rounding_shr` rounds ties away from zero, so it is odd and
        // commutes with the conjugation that maps bin k to bin n − k.
        // Round-half-up sends the tie −90.5 to −90 but +90.5 to +91: a
        // single sample of 128 LSB at t = 1 puts exactly that tie into
        // the cos 45° butterflies of a length-8 transform.
        let half_up = |v: i64, s: u32| (v + (1 << (s - 1))) >> s;
        let tw = twiddles(8, FRAC);
        let x = [0, 128, 0, 0, 0, 0, 0, 0];
        assert!(is_hermitian(&fft_real_rounded_by(&x, &tw, rounding_shr)));
        assert!(!is_hermitian(&fft_real_rounded_by(&x, &tw, half_up)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = twiddles(6, FRAC);
    }
}
