//! Randomized equivalence tests for the blocked/parallel GEMM kernels.
//!
//! Every optimised kernel must be **bit-identical** to its naive
//! reference (`*_ref`) — exact for the integer kernels, and equal down to
//! the `f32` bit pattern for the float kernels, because blocking and
//! row-band parallelism never reorder a single element's accumulation.
//! Shapes deliberately cross the internal block sizes (`BK = 64`,
//! `BN = 128`) and the serial cutoff, and degenerate dims (`m = 1`,
//! `k = 1`, `n = 1`) are pinned explicitly.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tensor::{gemm, init, Mat};

/// Thread counts exercised for every shape: serial, a couple of
/// odd/even splits, and more threads than rows.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check_f32(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform(&mut rng, m, k, -2.0, 2.0);
    let b = init::uniform(&mut rng, k, n, -2.0, 2.0);
    let want = gemm::matmul_ref(&a, &b).unwrap();
    assert_eq!(
        bits(&gemm::matmul(&a, &b).unwrap()),
        bits(&want),
        "matmul ({m},{k},{n})"
    );
    for t in THREADS {
        let got = gemm::matmul_with_threads(&a, &b, t).unwrap();
        assert_eq!(bits(&got), bits(&want), "matmul ({m},{k},{n}) t={t}");
    }

    let bt = init::uniform(&mut rng, n, k, -2.0, 2.0);
    let want_nt = gemm::matmul_nt_ref(&a, &bt).unwrap();
    assert_eq!(
        bits(&gemm::matmul_nt(&a, &bt).unwrap()),
        bits(&want_nt),
        "matmul_nt ({m},{k},{n})"
    );
    for t in THREADS {
        let got = gemm::matmul_nt_with_threads(&a, &bt, t).unwrap();
        assert_eq!(bits(&got), bits(&want_nt), "matmul_nt ({m},{k},{n}) t={t}");
    }
}

fn check_i8(m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform_i8(&mut rng, m, k);
    let b = init::uniform_i8(&mut rng, k, n);
    let want = gemm::matmul_i8_ref(&a, &b).unwrap();
    assert_eq!(
        gemm::matmul_i8(&a, &b).unwrap(),
        want,
        "matmul_i8 ({m},{k},{n})"
    );
    for t in THREADS {
        let got = gemm::matmul_i8_with_threads(&a, &b, t).unwrap();
        assert_eq!(got, want, "matmul_i8 ({m},{k},{n}) t={t}");
    }

    let bt = init::uniform_i8(&mut rng, n, k);
    let want_nt = gemm::matmul_i8_nt_ref(&a, &bt).unwrap();
    assert_eq!(
        gemm::matmul_i8_nt(&a, &bt).unwrap(),
        want_nt,
        "matmul_i8_nt ({m},{k},{n})"
    );
    for t in THREADS {
        let got = gemm::matmul_i8_nt_with_threads(&a, &bt, t).unwrap();
        assert_eq!(got, want_nt, "matmul_i8_nt ({m},{k},{n}) t={t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes crossing the BK/BN block boundaries.
    #[test]
    fn random_shapes_f32_bit_identical(
        m in 1usize..40,
        k in 1usize..150,
        n in 1usize..150,
        seed in 0u64..1_000_000,
    ) {
        check_f32(m, k, n, seed);
    }

    /// Random shapes crossing the BK/BN block boundaries (integer),
    /// `k = 0` included: an empty reduction is the zero matrix for
    /// `matmul_i8` and `matmul_i8_nt` alike, on every kernel tier.
    #[test]
    fn random_shapes_i8_bit_identical(
        m in 1usize..40,
        k in 0usize..150,
        n in 1usize..150,
        seed in 0u64..1_000_000,
    ) {
        check_i8(m, k, n, seed);
    }
}

#[test]
fn degenerate_dims_bit_identical() {
    // Single row / empty or single reduction step / single column, plus
    // non-multiples of the 64/128 block sizes.
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (1, 0, 16),
        (2, 0, 1),
        (8, 0, 40),
        (33, 0, 16),
        (64, 0, 40),
        (1, 512, 64),
        (64, 1, 64),
        (64, 512, 1),
        (1, 1, 200),
        (3, 65, 129),
        (5, 127, 131),
        (2, 66, 258),
    ] {
        check_f32(m, k, n, 0xF00D ^ (m * 31 + k * 7 + n) as u64);
        check_i8(m, k, n, 0xBEEF ^ (m * 31 + k * 7 + n) as u64);
    }
}

#[test]
fn cutoff_boundary_bit_identical() {
    // Shapes straddling SERIAL_CUTOFF_MACS = 2^16: the auto path picks
    // serial just below and parallel just above; both must match the
    // reference (and each other) bit for bit.
    let k = 64;
    let n = 64;
    let rows_at_cutoff = gemm::SERIAL_CUTOFF_MACS / (k * n); // == 16
    for m in [rows_at_cutoff - 1, rows_at_cutoff, rows_at_cutoff + 1] {
        check_f32(m, k, n, 99);
        check_i8(m, k, n, 101);
    }
}

#[test]
fn env_thread_override_does_not_change_results() {
    // `matmul*` reads ACCEL_THREADS via par::threads(); whatever it
    // returns, results must match the single-thread configuration.
    let mut rng = StdRng::seed_from_u64(7);
    let a = init::uniform(&mut rng, 33, 140, -1.0, 1.0);
    let b = init::uniform(&mut rng, 140, 70, -1.0, 1.0);
    let auto = gemm::matmul(&a, &b).unwrap();
    let serial = gemm::matmul_with_threads(&a, &b, 1).unwrap();
    assert_eq!(bits(&auto), bits(&serial));
    assert!(tensor::par::threads() >= 1);
}
