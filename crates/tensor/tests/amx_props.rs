//! Property tests for the AMX-INT8 tile tier under the prepacked weight
//! GEMMs.
//!
//! The invariant is the one `prepack_props` asserts for VNNI:
//! **bit-identity**. Whatever [`simd::int8_kernel`] dispatches to — AMX
//! tiles, the VNNI kernels under them (`m == 1`, `k` not a multiple of
//! 64), or the scalar kernels once a policy's cap (`ACCEL_FORCE_SCALAR`
//! in the default) switches both SIMD tiers off — every output equals the naive
//! reference, through the plain and fused entry points at every swept
//! worker count and through unaligned [`PackedI8Cols`] ranges. On an
//! AMX host the shapes with `k % 64 == 0` and `m >= 2` run on tiles and
//! the others on VNNI, so one run covers all three kernels; the
//! same-shape AMX-vs-VNNI comparison needs crate-internal entry points
//! and lives in `simd::tests`.
//!
//! Every test passes on a host without AMX: the identity properties
//! hold on whatever tier is there (a notice says tiles were not
//! covered), and the tests that are about tile state skip with a
//! notice.
//!
//! The worker-count sweeps run under a [`Policy`] of that count, on
//! shapes above [`gemm::SERIAL_CUTOFF_MACS`] only: below it every count
//! takes the one serial path. A policy is the calling thread's, so no
//! test here waits for another.

use std::sync::Barrier;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tensor::prepack::{self, PackedI8, PackedI8Cols};
use tensor::simd::{self, Int8Kernel};
use tensor::{gemm, init, Mat, Policy};

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

/// The calling thread's policy with the INT8 cap at `cap`.
fn capped(cap: Int8Kernel) -> Policy {
    Policy {
        int8_cap: cap,
        ..Policy::current()
    }
}

/// `true` when the tier in force is AMX; otherwise prints why the
/// calling test covers less (or nothing) on this host.
fn amx_or_notice(test: &str) -> bool {
    let kernel = simd::int8_kernel();
    if kernel != Int8Kernel::Amx {
        eprintln!("{test}: no AMX tier on this host (int8 kernel = {kernel:?}); tiles not covered");
    }
    kernel == Int8Kernel::Amx
}

/// What CI prints at the top of every kernel-matrix leg.
#[test]
fn reports_the_dispatch_tier() {
    eprintln!(
        "int8_kernel() = {:?} (simd_enabled = {}, {} = {:?})",
        simd::int8_kernel(),
        simd::simd_enabled(),
        simd::ENV_FORCE_SCALAR,
        std::env::var_os(simd::ENV_FORCE_SCALAR),
    );
}

/// Requantize-like drain: bias by the row index, halve, saturate.
fn drain(r: usize, acc: &[i32], out: &mut [i8]) {
    for (o, &v) in out.iter_mut().zip(acc) {
        *o = ((v + r as i32) / 2).clamp(-127, 127) as i8;
    }
}

fn drained(acc: &Mat<i32>) -> Mat<i8> {
    Mat::from_fn(acc.rows(), acc.cols(), |r, c| {
        ((acc[(r, c)] + r as i32) / 2).clamp(-127, 127) as i8
    })
}

/// Every prepacked entry point against the naive reference, under the
/// ambient dispatch.
fn check_entry_points(a: &Mat<i8>, b: &Mat<i8>, tag: &str) {
    let packed = PackedI8::from_i8(b);
    let want = gemm::matmul_i8_ref(a, b).unwrap();
    assert_eq!(
        prepack::matmul_i8_prepacked(a, &packed).unwrap(),
        want,
        "plain {tag}"
    );
    let fused: Mat<i8> = prepack::matmul_i8_prepacked_fused(a, &packed, drain).unwrap();
    assert_eq!(fused, drained(&want), "fused {tag}");
    for &t in sweep(a.rows(), a.cols(), b.cols()) {
        let (plain, fused) = at_threads(t, || {
            let fused: Mat<i8> = prepack::matmul_i8_prepacked_fused(a, &packed, drain).unwrap();
            (prepack::matmul_i8_prepacked(a, &packed).unwrap(), fused)
        });
        assert_eq!(plain, want, "plain t={t} {tag}");
        assert_eq!(fused, drained(&want), "fused t={t} {tag}");
    }
    // The per-call-packed GEMM shares the band dispatch.
    assert_eq!(gemm::matmul_i8(a, b).unwrap(), want, "matmul_i8 {tag}");
}

/// A reduction depth around the tile kernel's 64-byte step: multiples
/// of 64 (tiles), of 4 only (whole quads, VNNI), and of neither.
fn depth() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..8).prop_map(|(steps, tail)| {
        let k = 64 * steps + [0, 0, 0, 1, 3, 4, 20, 63][tail];
        k.max(1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prepacked_entry_points_match_the_reference(
        (m, k, n) in (1usize..=70, depth(), 1usize..=70),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::uniform_i8(&mut rng, m, k);
        let b = init::uniform_i8(&mut rng, k, n);
        check_entry_points(&a, &b, &format!("({m},{k},{n}) seed {seed}"));
    }

    #[test]
    fn column_ranges_match_the_copied_out_submatrix(
        m in 1usize..=70,
        (c0, width) in (0usize..300, 1usize..=70),
        seed in 0u64..1000,
    ) {
        // d_ff = 300 as the output width (18 full tiles and a ragged
        // one) under a one-step reduction, and as the reduction depth
        // (not a multiple of 64: the whole GEMM stays on VNNI).
        let mut rng = StdRng::seed_from_u64(seed);
        for (k, n) in [(64usize, 300usize), (300, 64)] {
            let (c0, width) = (c0 % n, width.min(n - c0 % n));
            let a = init::uniform_i8(&mut rng, m, k);
            let b = init::uniform_i8(&mut rng, k, n);
            let packed = PackedI8::from_i8(&b);
            let sub = b.submatrix(0, c0, k, width).unwrap();
            let want = gemm::matmul_i8_ref(&a, &sub).unwrap();
            let cols = PackedI8Cols::new(&packed, c0, width);
            let copy = |_r: usize, acc: &[i32], out: &mut [i32]| out.copy_from_slice(acc);
            let got: Mat<i32> = prepack::matmul_i8_prepacked_fused(&a, cols, copy).unwrap();
            prop_assert_eq!(&got, &want, "m={} k={} cols {}..{}", m, k, c0, c0 + width);
            for &t in sweep(m, k, width) {
                let got: Mat<i32> =
                    at_threads(t, || prepack::matmul_i8_prepacked_fused(&a, cols, copy).unwrap());
                prop_assert_eq!(&got, &want, "m={} k={} cols {}..{} t={}", m, k, c0, c0 + width, t);
            }
        }
    }
}

/// The head-panel ranges of a `d_k = 8` model: eight columns at every
/// multiple of eight, half of them starting inside a tile.
#[test]
fn head_width_panels_at_unaligned_starts() {
    let mut rng = StdRng::seed_from_u64(8);
    let (k, n, d_k) = (128usize, 64usize, 8usize);
    let b = init::uniform_i8(&mut rng, k, n);
    let packed = PackedI8::from_i8(&b);
    for m in [1usize, 2, 16, 33, 70] {
        let a = init::uniform_i8(&mut rng, m, k);
        let whole = gemm::matmul_i8_ref(&a, &b).unwrap();
        for head in 0..n / d_k {
            let got: Mat<i8> = prepack::matmul_i8_prepacked_fused(
                &a,
                PackedI8Cols::new(&packed, head * d_k, d_k),
                drain,
            )
            .unwrap();
            let want = drained(&whole.submatrix(0, head * d_k, m, d_k).unwrap());
            assert_eq!(got, want, "m={m} head {head}");
        }
    }
}

/// `tdpbssd` is signed x signed and the tier skips the `+ 128` offset
/// and its `128 * colsum` compensation: the extreme codes pin that. An
/// unsigned-operand kernel without the compensation misses every one
/// of these by `128 * k * b`.
#[test]
fn extreme_codes_take_the_signed_path() {
    amx_or_notice("extreme_codes_take_the_signed_path");
    for (m, k, n) in [(2usize, 64usize, 16usize), (16, 512, 33), (70, 192, 64)] {
        for (av, bv) in [(-128i8, -128i8), (-128, 127), (127, -128), (127, 127)] {
            let a = Mat::filled(m, k, av);
            let b = Mat::filled(k, n, bv);
            check_entry_points(&a, &b, &format!("({m},{k},{n}) a={av} b={bv}"));
            let got = prepack::matmul_i8_prepacked(&a, &PackedI8::from_i8(&b)).unwrap();
            let each = k as i32 * i32::from(av) * i32::from(bv);
            assert!(got.as_slice().iter().all(|&v| v == each), "a={av} b={bv}");
        }
    }
    // Alternating extremes per row and column, so sign errors cannot
    // cancel across a tile.
    let a = Mat::from_fn(33, 128, |r, c| if (r + c) % 2 == 0 { -128 } else { 127 });
    let b = Mat::from_fn(
        128,
        40,
        |r, c| if (r * 3 + c) % 3 == 0 { 127 } else { -128 },
    );
    check_entry_points(&a, &b, "alternating extremes");
}

/// A scalar cap switches AMX off together with VNNI: the reported tier
/// follows, and the scalar results are the tile results.
#[test]
fn override_bypasses_amx() {
    let top = capped(Int8Kernel::Amx);
    top.run(|| amx_or_notice("override_bypasses_amx"));
    let mut rng = StdRng::seed_from_u64(21);
    let a = init::uniform_i8(&mut rng, 48, 128);
    let b = init::uniform_i8(&mut rng, 128, 80);
    let packed = PackedI8::from_i8(&b);
    let on = top.run(|| prepack::matmul_i8_prepacked(&a, &packed).unwrap());
    let off = capped(Int8Kernel::Scalar).run(|| {
        assert_eq!(simd::int8_kernel(), Int8Kernel::Scalar);
        assert!(!simd::simd_enabled());
        prepack::matmul_i8_prepacked(&a, &packed).unwrap()
    });
    assert_eq!(on, off);
    assert_eq!(on, gemm::matmul_i8_ref(&a, &b).unwrap());
}

/// The marker the child below prints and the parent looks for.
const CHILD_MARKER: &str = "amx_props child: int8 kernel under ACCEL_FORCE_SCALAR=1 is Scalar";

/// `ACCEL_FORCE_SCALAR` is read once per process, so the proof needs a
/// process of its own: this test re-runs this binary with the variable
/// set, filtered to [`force_scalar_child`].
#[test]
fn force_scalar_env_bypasses_amx() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "force_scalar_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(simd::ENV_FORCE_SCALAR, "1")
        .env("AMX_PROPS_CHILD", "1")
        .output()
        .expect("spawn child test process");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stderr}");
    assert!(
        stderr.contains(CHILD_MARKER),
        "child did not run the check:\n{stderr}"
    );
}

/// The child half of [`force_scalar_env_bypasses_amx`]; a no-op in a
/// normal run.
#[test]
fn force_scalar_child() {
    if std::env::var_os("AMX_PROPS_CHILD").is_none() {
        return;
    }
    assert_eq!(simd::int8_kernel(), Int8Kernel::Scalar);
    assert!(!simd::simd_enabled());
    let mut rng = StdRng::seed_from_u64(22);
    let a = init::uniform_i8(&mut rng, 40, 64);
    let b = init::uniform_i8(&mut rng, 64, 48);
    check_entry_points(&a, &b, "under ACCEL_FORCE_SCALAR=1");
    eprintln!("{CHILD_MARKER}");
}

/// Tile configuration and tile data are per-thread state: two threads
/// running tile GEMMs at the same moment must each get the serial
/// result. A barrier before every round makes the two GEMMs overlap
/// (each takes tens of microseconds, the release skew is well under
/// one); the pool path runs the same check at two and more workers,
/// whose bands are one GEMM's halves.
#[test]
fn concurrent_tile_gemms_agree_with_serial() {
    if !amx_or_notice("concurrent_tile_gemms_agree_with_serial") {
        eprintln!("concurrent_tile_gemms_agree_with_serial: skipped");
        return;
    }
    let mut rng = StdRng::seed_from_u64(23);
    let shapes = [(64usize, 512usize, 512usize), (37, 256, 200)];
    let work: Vec<(Mat<i8>, PackedI8, Mat<i32>)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let a = init::uniform_i8(&mut rng, m, k);
            let b = init::uniform_i8(&mut rng, k, n);
            let want = gemm::matmul_i8_ref(&a, &b).unwrap();
            (a, PackedI8::from_i8(&b), want)
        })
        .collect();
    let rounds = 50;
    let barrier = Barrier::new(2);
    // Each thread runs its GEMMs itself, on tiles.
    let one = Policy {
        threads: 1,
        ..Policy::current()
    };
    std::thread::scope(|scope| {
        for (a, packed, want) in &work {
            let barrier = &barrier;
            scope.spawn(move || {
                one.run(|| {
                    for round in 0..rounds {
                        barrier.wait();
                        let got = prepack::matmul_i8_prepacked(a, packed).unwrap();
                        assert_eq!(&got, want, "round {round}");
                    }
                })
            });
        }
    });
    for (a, packed, want) in &work {
        for &t in &THREADS[1..] {
            let (got, fused) = at_threads(t, || {
                let fused: Mat<i8> = prepack::matmul_i8_prepacked_fused(a, packed, drain).unwrap();
                (prepack::matmul_i8_prepacked(a, packed).unwrap(), fused)
            });
            assert_eq!(&got, want, "pool t={t}");
            assert_eq!(fused, drained(want), "pool fused t={t}");
        }
    }
}
