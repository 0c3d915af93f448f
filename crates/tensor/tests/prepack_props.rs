//! Property tests for the weight-stationary path: prepacked GEMM/GEMV
//! entry points, the persistent-pool determinism guarantee, and the
//! SIMD-vs-scalar kernel identity.
//!
//! The invariant under test everywhere is **bit-identity**: packing a
//! weight matrix once ([`tensor::prepack::PackedMat`]), changing the
//! worker count, or swapping the scalar kernels for the AVX2
//! microkernels must never change a single output bit relative to the
//! per-call-packed kernels and the naive references.
//!
//! Worker counts and kernel tiers are set per test with a [`Policy`],
//! on the calling thread only; the thread-count sweeps run on shapes
//! above [`gemm::SERIAL_CUTOFF_MACS`], where the count splits the rows.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tensor::prepack::{self, PackedI8, PackedMat};
use tensor::simd::Int8Kernel;
use tensor::{gemm, init, par, Mat, Policy};

/// Thread counts swept on shapes above the serial cutoff.
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Worker counts worth sweeping for an `m x k x n` GEMM: [`THREADS`]
/// above the serial cutoff, none at or below it.
fn sweep(m: usize, k: usize, n: usize) -> &'static [usize] {
    if m * k * n > gemm::SERIAL_CUTOFF_MACS {
        &THREADS
    } else {
        &[]
    }
}

/// Runs `body` at `t` workers.
fn at_threads<R>(t: usize, body: impl FnOnce() -> R) -> R {
    Policy {
        threads: t,
        ..Policy::current()
    }
    .run(body)
}

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check_prepacked_f32(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform(&mut rng, m, k, -2.0, 2.0);
    let b = init::uniform(&mut rng, k, n, -2.0, 2.0);
    let packed = PackedMat::from_f32(&b);
    let want = gemm::matmul_ref(&a, &b).unwrap();
    assert_eq!(
        bits(&gemm::matmul(&a, &b).unwrap()),
        bits(&want),
        "matmul ({m},{k},{n})"
    );
    assert_eq!(
        bits(&prepack::matmul_prepacked(&a, &packed).unwrap()),
        bits(&want),
        "prepacked ({m},{k},{n})"
    );
    for &t in sweep(m, k, n) {
        let got = at_threads(t, || prepack::matmul_prepacked(&a, &packed).unwrap());
        assert_eq!(bits(&got), bits(&want), "prepacked ({m},{k},{n}) t={t}");
    }
}

fn check_prepacked_i8(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform_i8(&mut rng, m, k);
    let b = init::uniform_i8(&mut rng, k, n);
    let packed = PackedI8::from_i8(&b);
    let want = gemm::matmul_i8_ref(&a, &b).unwrap();
    assert_eq!(
        gemm::matmul_i8(&a, &b).unwrap(),
        want,
        "matmul_i8 ({m},{k},{n})"
    );
    assert_eq!(
        prepack::matmul_i8_prepacked(&a, &packed).unwrap(),
        want,
        "prepacked_i8 ({m},{k},{n})"
    );
    for &t in sweep(m, k, n) {
        let got = at_threads(t, || prepack::matmul_i8_prepacked(&a, &packed).unwrap());
        assert_eq!(got, want, "prepacked_i8 ({m},{k},{n}) t={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prepacked_f32_bit_identical((m, k, n) in (1usize..24, 1usize..48, 1usize..40), seed in 0u64..1000) {
        check_prepacked_f32(m, k, n, seed);
    }

    #[test]
    fn prepacked_i8_bit_identical((m, k, n) in (1usize..24, 1usize..48, 1usize..40), seed in 0u64..1000) {
        check_prepacked_i8(m, k, n, seed);
    }

    #[test]
    fn prepacked_gemv_bit_identical((k, n) in (1usize..96, 1usize..80), seed in 0u64..1000) {
        // The m = 1 decode shape takes the dedicated GEMV kernel.
        check_prepacked_i8(1, k, n, seed);
        check_prepacked_f32(1, k, n, seed);
    }
}

/// Shapes that straddle the microkernel boundaries: NR = 16 lanes,
/// MR = 4 rows, and the GEMV tile-pair loop (odd/even tile counts).
#[test]
fn prepacked_pinned_boundary_shapes() {
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 512, 64),   // batch-1 decode projection
        (1, 64, 512),   // wide GEMV, even tile count
        (1, 64, 48),    // odd tile count with full last tile
        (1, 64, 17),    // two tiles, ragged last
        (1, 64, 16),    // exactly one tile
        (1, 64, 15),    // single ragged tile
        (4, 512, 64),   // one full MR quad
        (5, 37, 33),    // quad + remainder row, ragged tiles
        (16, 512, 512), // issue's decode-batch upper shape
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = 100 + i as u64;
        check_prepacked_i8(m, k, n, seed);
        check_prepacked_f32(m, k, n, seed);
    }
}

/// The same workloads, run with the pool pinned to each of [`THREADS`]
/// workers through a [`Policy`] of that count, must agree bit
/// for bit.
#[test]
fn pool_is_deterministic_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    // Big enough to clear SERIAL_CUTOFF_MACS so auto-threaded entry
    // points actually hit the pool.
    let a = init::uniform(&mut rng, 96, 128, -2.0, 2.0);
    let b = init::uniform(&mut rng, 128, 80, -2.0, 2.0);
    let ai = init::uniform_i8(&mut rng, 96, 128);
    let bi = init::uniform_i8(&mut rng, 128, 80);
    let packed_f = PackedMat::from_f32(&b);
    let packed_i = PackedI8::from_i8(&bi);
    let items: Vec<u64> = (0..100).collect();

    let run = || {
        (
            bits(&gemm::matmul(&a, &b).unwrap()),
            gemm::matmul_i8(&ai, &bi).unwrap(),
            bits(&prepack::matmul_prepacked(&a, &packed_f).unwrap()),
            prepack::matmul_i8_prepacked(&ai, &packed_i).unwrap(),
            par::par_map(&items, |x| x.wrapping_mul(0x9e37_79b9).rotate_left(13)),
        )
    };

    let baseline = at_threads(1, run);
    for &t in &THREADS[1..] {
        let got = at_threads(t, run);
        assert_eq!(got.0, baseline.0, "f32 GEMM diverged at {t} threads");
        assert_eq!(got.1, baseline.1, "i8 GEMM diverged at {t} threads");
        assert_eq!(got.2, baseline.2, "prepacked f32 diverged at {t} threads");
        assert_eq!(got.3, baseline.3, "prepacked i8 diverged at {t} threads");
        assert_eq!(got.4, baseline.4, "par_map diverged at {t} threads");
    }
}

/// Forcing the scalar kernels and forcing the SIMD kernels (where the
/// hardware has them) must produce bit-identical INT8 results, GEMM and
/// GEMV alike.
#[test]
fn simd_and_scalar_kernels_agree() {
    let mut rng = StdRng::seed_from_u64(77);
    for &(m, k, n) in &[
        (1usize, 512usize, 512usize),
        (1, 33, 17),
        (8, 512, 64),
        (13, 96, 130),
    ] {
        let a = init::uniform_i8(&mut rng, m, k);
        let b = init::uniform_i8(&mut rng, k, n);
        let packed = PackedI8::from_i8(&b);

        let both = |cap| {
            Policy {
                int8_cap: cap,
                ..Policy::current()
            }
            .run(|| {
                (
                    gemm::matmul_i8(&a, &b).unwrap(),
                    prepack::matmul_i8_prepacked(&a, &packed).unwrap(),
                )
            })
        };
        let (scalar_plain, scalar_packed) = both(Int8Kernel::Scalar);
        let (simd_plain, simd_packed) = both(Int8Kernel::Amx);
        let want = gemm::matmul_i8_ref(&a, &b).unwrap();
        assert_eq!(scalar_plain, want, "scalar ({m},{k},{n})");
        assert_eq!(scalar_packed, want, "scalar prepacked ({m},{k},{n})");
        assert_eq!(simd_plain, want, "simd ({m},{k},{n})");
        assert_eq!(simd_packed, want, "simd prepacked ({m},{k},{n})");
    }
}
