//! Explicit SIMD microkernels for the INT8 datapath, and one for the
//! `f32` weight GEMM.
//!
//! The scalar quad kernels in [`crate::gemm`] already auto-vectorise
//! reasonably under `-C target-cpu=native`, but the INT8 GEMMs sit on
//! the serving hot path (chunked prefill is one multi-row GEMM per
//! weight matrix per chunk), so this module provides two hand-written
//! x86_64 tiers above them, picked at run time ([`int8_kernel`]).
//!
//! # `f32`: AVX-512F
//!
//! [`band_f32`] is the explicit twin of the scalar `f32` band kernel
//! (the FP32 output projection): a 16-row by 16-lane register block —
//! one packed `B` vector per `k` step feeding 16 broadcast multiplies —
//! that keeps `vmulps` and `vaddps` separate and `k` ascending, so it is
//! bit-identical to the scalar kernel and the naive reference. A fused
//! multiply-add rounds once where they round twice, and is never used.
//! Gated on `avx512f` alone, under the same switches as the INT8 tiers.
//!
//! # Tier 2: AVX-512 VNNI
//!
//! `std::arch` kernels built around `vpdpbusd` — four `u8 x i8`
//! products fused into each `i32` lane per instruction, i.e. 64
//! multiply-accumulates per 512-bit operation:
//!
//! * [`band_i8q`] — the `MR x NR` register-tiled GEMM microkernel over
//!   the quad-packed `B` tiles ([`crate::gemm::pack_quads`]);
//! * [`gemv_i8q`] — a dedicated single-row (`m == 1`) kernel walking
//!   four packed tiles at once to keep independent accumulator chains
//!   busy;
//! * [`band_nt_i8q`] — the `a * b^T` kernel (attention scores), reading
//!   `b`'s rows directly with 64-byte `vpdpbusd` strides.
//!
//! `vpdpbusd`'s first operand is **unsigned**, so activations are fed
//! as `a + 128` (prepared once per GEMM by
//! [`crate::gemm::offset_rows`]) and the kernels subtract
//! `128 * colsum(B)` afterwards. The compensation is exact in `i32`
//! (worst case `4096 * 255 * 127 + 128 * 4096 * 128 < 2^31`), and
//! integer accumulation is order-independent, so results are
//! **bit-identical** to the scalar quad kernels and the naive
//! references for any input.
//!
//! # Tier 3: AMX-INT8 tiles
//!
//! [`band_i8_amx`] runs every multi-row GEMM whose reduction depth is a
//! multiple of 64 on the host's tile unit — a `16 x 64`-byte INT8
//! systolic array of its own, eight times the VNNI peak per
//! instruction (`tdpbssd`: 16 x 16 x 64 MACs). It sits beneath the same
//! dispatch site as the VNNI band kernel ([`crate::gemm::run_band_i8q`]),
//! so every prepacked weight GEMM, the per-call-packed
//! [`crate::gemm::matmul_i8`] and the transpose-packed multi-row
//! `a * b^T` take it with no new entry point, option or pack format:
//!
//! * **Layout reuse.** The quad pack's `[tile][kq][lane][KQ]` layout is
//!   the `tdpbssd` B-tile layout already: 16 consecutive `kq` rows of
//!   one column tile, 64 bytes each, stride 64. `B` tiles load straight
//!   from the resident pack. The pack starts on a cache line
//!   ([`crate::gemm::AlignedI8`]) so each tile row is one line — a tile
//!   load of line-straddling rows takes 16.8 ns instead of 3.0.
//! * **Signed x signed.** `tdpbssd` multiplies `i8` by `i8`, so the
//!   tier reads the activations themselves: no `a + 128` copy, no
//!   `128 * colsum` compensation. For the same alignment reason a
//!   band's rows are copied (plainly, no arithmetic, no allocation) into
//!   a line-aligned thread-local buffer first.
//! * **Register block.** `2 x 2`: four accumulator tiles, two `A` tiles
//!   (32 rows), two `B` tiles (32 columns) — all eight tile registers,
//!   one tile load per `tdpbssd`. Column-tile pairs are the outer loop,
//!   as in the VNNI kernel, so the weights stream through once per
//!   band.
//! * **Remainders.** A ragged last row block runs as a second pass
//!   under a partial-row tile configuration (`r` rows in the upper
//!   tile, or 16 above and `r - 16` below): with AMX on, no row of an
//!   eligible GEMM falls back to VNNI. A lone last column tile runs a
//!   `2 x 1` block; a ragged one is stored through a stack copy.
//!   `m == 1` keeps the VNNI GEMV, and a `k` that is not a multiple of
//!   64 keeps the whole GEMM on VNNI (`AMX_MIN_ROWS`, `AMX_K_STEP`:
//!   both set by measurement, see their docs).
//! * **Permission.** Linux keeps tile data (8 KiB of XSAVE state per
//!   thread) off until a process asks. Detection is `cpuid(7,0).edx`
//!   bits 24/25, the palette-1 shape from `cpuid(0x1d,1)`, `XCR0` bits
//!   17/18, then one `arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)`,
//!   all behind one `OnceLock`; any failure leaves the VNNI/scalar
//!   dispatch exactly as it was. Linux/x86_64 only.
//! * **Tile state** never outlives a call: each pass configures the
//!   calling thread's tiles (`ldtilecfg`) and releases them
//!   (`tilerelease`) before returning, so pool workers are independent
//!   and an idle thread carries no tile data through context switches.
//!
//! The instructions are issued through stable `asm!` (the
//! `std::arch` AMX intrinsics are unstable); they assemble at any
//! `target-cpu` and execute only behind the run-time check.
//!
//! # Dispatch
//!
//! Dispatch is runtime-gated: [`simd_enabled`] checks AVX-512
//! F/BW/VNNI support via `is_x86_feature_detected!` (cached) and
//! honours the [`ENV_FORCE_SCALAR`] environment variable, read once per
//! process, plus an in-process override for tests
//! ([`set_simd_override`]); both switch AMX off together with VNNI. On
//! hardware without VNNI (or non-x86_64 targets) the entry points
//! report "not handled" and callers fall back to the scalar kernels.
//! [`int8_kernel`] reports the tier in force.
//!
//! # Unsafe inventory
//!
//! All `unsafe` in the `tensor` crate is confined to this module's
//! `x86` submodule (and the safe wrappers' calls into it) and to
//! [`crate::par`] (the scoped-lifetime extension and the affinity
//! syscall); the rest of the crate remains `#![deny(unsafe_code)]`-
//! clean. In `x86`: the seven `#[target_feature]` VNNI/AVX-512 kernels
//! and their two lane helpers (raw-pointer loads inside lengths the
//! callers derive from the slices they pass), the `f32` band kernel with
//! its two register-block helpers (bounds `assert!`ed in the safe
//! [`band_f32`] wrapper on every call), and in `x86::amx` the
//! probe (`xgetbv`, the `arch_prctl` syscall), six one-instruction
//! `asm!` wrappers, the accumulator store and the two kernel functions.
//! The tile kernel's buffer contract is `assert!`ed in the safe
//! [`band_i8_amx`] wrapper on every call and `debug_assert!`ed again
//! where the pointers are formed.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable forcing the scalar kernels (any non-empty value
/// other than `0`). Useful for debugging and for CI legs that pin the
/// fallback path. Read once per process and cached (parsing lives in
/// [`crate::envcfg`]).
pub use crate::envcfg::ENV_FORCE_SCALAR;

/// In-process override: 0 = follow env + detection, 1 = force scalar,
/// 2 = force SIMD (still requires hardware support).
static SIMD_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn force_scalar_env() -> bool {
    crate::envcfg::force_scalar()
}

#[cfg(target_arch = "x86_64")]
fn vnni_available() -> bool {
    static VNNI: OnceLock<bool> = OnceLock::new();
    *VNNI.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn vnni_available() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn avx512f_available() -> bool {
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// Whether a hand-written tier the hardware offers (`available`) is
/// switched on: the in-process override first, then
/// [`ENV_FORCE_SCALAR`].
fn tier_enabled(available: fn() -> bool) -> bool {
    match SIMD_OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => available(),
        _ => !force_scalar_env() && available(),
    }
}

/// Whether the SIMD kernels will be used for the next INT8 GEMM.
///
/// `true` iff the target is x86_64 with AVX-512 VNNI,
/// [`ENV_FORCE_SCALAR`] is not set, and no in-process override forces
/// scalar. Because SIMD and scalar kernels are bit-identical, this only
/// affects speed.
pub fn simd_enabled() -> bool {
    tier_enabled(vnni_available)
}

/// Crate-internal alias for [`simd_enabled`] used by the GEMM entry
/// points to decide whether the unsigned-offset activation copy is
/// worth preparing.
#[inline]
pub(crate) fn int8_simd_active() -> bool {
    simd_enabled()
}

/// The INT8 GEMM microkernel tiers, slowest to fastest. All three are
/// bit-identical; see [`int8_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Int8Kernel {
    /// Portable scalar quad kernels ([`crate::gemm`]).
    Scalar,
    /// AVX-512 VNNI `vpdpbusd` kernels.
    Vnni,
    /// AMX-INT8 `tdpbssd` tile kernel for multi-row GEMMs, with the VNNI
    /// kernels under it for the shapes tiles do not take (`m == 1`, a
    /// handful of rows, `k` not a multiple of 64).
    Amx,
}

/// The best microkernel tier the next INT8 GEMM can dispatch to — what
/// the hardware offers minus what [`ENV_FORCE_SCALAR`] /
/// [`set_simd_override`] switch off (they disable VNNI and AMX
/// together). Read-only; it only ever affects speed.
pub fn int8_kernel() -> Int8Kernel {
    if !simd_enabled() {
        Int8Kernel::Scalar
    } else if amx_available() {
        Int8Kernel::Amx
    } else {
        Int8Kernel::Vnni
    }
}

/// Fewest activation rows the tile kernel takes: every multi-row GEMM.
/// Measured on the `512 x 2048` FFN weight, L2-hot, fused drain, VNNI →
/// AMX: 23.5–30.7 → 13.7–14.8 us at `m = 2`, 33–39 → 14 at `m = 3` (a
/// row count off the VNNI kernel's `MR = 4` grid runs its remainder one
/// row at a time), 23–25 → 13–19 at `m = 4`, 50 → 18 at `m = 8`, 74–81
/// → 22–32 at `m = 16`. `m = 1` never asks: the prepacked entry points
/// send it to the VNNI GEMV (9–12 us here) before any band runs.
const AMX_MIN_ROWS: usize = 2;

/// Reduction bytes one tile row holds: the tile kernel walks `k` in
/// whole 64-byte steps, and a `k` that is not a multiple of this keeps
/// the whole GEMM on VNNI. No weight matrix of the model shapes has one
/// (`d_model`, `d_ff`, `d_k` are multiples of 64); the attention `P * V`
/// product over a ragged context does, at 3 % of a prefill pass in all,
/// and a tail block would cost a second tile configuration plus padded
/// copies of both operands' last step on every block visit.
const AMX_K_STEP: usize = 64;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn amx_available() -> bool {
    static AMX: OnceLock<bool> = OnceLock::new();
    *AMX.get_or_init(x86::amx::amx_request)
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn amx_available() -> bool {
    false
}

/// Whether an `m`-row GEMM of reduction depth `k` runs on AMX tiles.
/// The GEMM entry points ask once per call (tiles read the signed
/// activations, so the `a + 128` copy is skipped) and [`band_i8_amx`]
/// asks again per band, so an override flipped in between only changes
/// which bit-identical kernel runs.
#[inline]
pub(crate) fn amx_takes(m: usize, k: usize) -> bool {
    m >= AMX_MIN_ROWS && k > 0 && k.is_multiple_of(AMX_K_STEP) && int8_kernel() == Int8Kernel::Amx
}

/// Overrides SIMD dispatch for this process: `Some(false)` forces the
/// scalar kernels, `Some(true)` requests the SIMD kernels (still subject
/// to hardware support), `None` restores env + runtime detection.
/// Intended for the SIMD-vs-scalar identity tests; safe to flip at any
/// time because both paths produce bit-identical results.
pub fn set_simd_override(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    SIMD_OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
thread_local! {
    /// This thread's line-aligned copy of a band's activation rows, for
    /// [`band_i8_amx`]; kept between GEMMs.
    static AMX_ROWS: std::cell::Cell<crate::gemm::AlignedI8> =
        std::cell::Cell::new(crate::gemm::AlignedI8::default());
}

/// AMX band GEMM over quad-packed `B` tiles: `out_band = a[first_row..]
/// [..rows] * B` for the `rows = out_band.len() / n` rows of the band,
/// reading the signed activations. Returns `false` (without touching
/// `out_band`) when [`amx_takes`] declines the GEMM, in which case the
/// caller runs the VNNI or scalar kernel.
///
/// The band's rows are first copied into a line-aligned thread-local
/// buffer. A `Mat<i8>` from the system allocator starts 16 bytes into a
/// cache line, so every row of an `A` tile loaded from it straddles two
/// lines — 16.8 instead of 3.0 ns per tile load — and each row is
/// loaded once per column-tile pair; the copy (`k` bytes a row, once
/// per band, no `+ 128`, no allocation) pays for itself from the second
/// pair on.
#[inline]
pub(crate) fn band_i8_amx(
    a: &crate::Mat<i8>,
    quads: &[i8],
    first_row: usize,
    out_band: &mut [i32],
    n: usize,
) -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let (m, k) = a.shape();
        if n > 0 && amx_takes(m, k) {
            assert_eq!(out_band.len() % n, 0, "band must hold whole rows");
            let rows = &a.as_slice()[first_row * k..(first_row + out_band.len() / n) * k];
            // The kernel addresses `quads` and `out_band` through raw
            // pointers; with the slice above these are its bounds.
            assert!(
                quads.len() >= n.div_ceil(crate::gemm::NR) * k * crate::gemm::NR,
                "packed tiles too short"
            );
            let mut aligned = AMX_ROWS.take();
            if aligned.len() < rows.len() {
                aligned = crate::gemm::AlignedI8::zeroed(rows.len());
            }
            aligned.as_mut_slice()[..rows.len()].copy_from_slice(rows);
            // SAFETY: `amx_takes` implies AMX-TILE/AMX-INT8 were detected
            // and the kernel granted tile-data permission; the first
            // argument holds exactly the band's `out_band.len() / n` rows
            // of `k` bytes, and `quads` was checked above.
            #[allow(unsafe_code)]
            unsafe {
                x86::amx::band_i8_amx(&aligned.as_slice()[..rows.len()], k, quads, out_band, n);
            }
            AMX_ROWS.set(aligned);
            return true;
        }
    }
    let _ = (a, quads, first_row, out_band, n);
    false
}

/// AVX-512 `f32` band GEMM over `[tile][p][lane]` packed `B` tiles:
/// `out_band = a[first_row..][..rows] * B`. Returns `false` (without
/// touching `out_band`) when AVX-512F is unavailable or switched off, in
/// which case the caller runs the scalar band kernel.
///
/// Bit-identical to that kernel: per output element the same `k`
/// products, each rounded by `vmulps`, are added in ascending `k` from
/// `+0.0` by `vaddps` — never a fused multiply-add, which rounds once.
#[inline]
pub(crate) fn band_f32(
    a: &crate::Mat<f32>,
    packed: &[f32],
    first_row: usize,
    out_band: &mut [f32],
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if n > 0 && tier_enabled(avx512f_available) {
            let k = a.cols();
            assert_eq!(out_band.len() % n, 0, "band must hold whole rows");
            let rows = &a.as_slice()[first_row * k..(first_row + out_band.len() / n) * k];
            // The kernel addresses `packed` through raw pointers; with
            // the slice above this is its bound.
            assert!(
                packed.len() >= n.div_ceil(crate::gemm::NR) * k * crate::gemm::NR,
                "packed tiles too short"
            );
            // SAFETY: AVX-512F was detected at run time; `rows` holds
            // exactly the band's `out_band.len() / n` rows of `k` floats
            // and `packed` was checked above.
            #[allow(unsafe_code)]
            unsafe {
                x86::band_f32_avx512(rows, k, packed, out_band, n);
            }
            return true;
        }
    }
    let _ = (a, packed, first_row, out_band, n);
    false
}

/// VNNI band GEMM over quad-packed `B` tiles. Returns `false` (without
/// touching `out_band`) when the SIMD path is unavailable or disabled,
/// in which case the caller must run the scalar kernel.
#[inline]
pub(crate) fn band_i8q(
    au: &[u8],
    k: usize,
    quads: &[i8],
    colsum: &[i32],
    first_row: usize,
    out_band: &mut [i32],
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() && !au.is_empty() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::band_i8q_vnni(au, k, quads, colsum, first_row, out_band, n);
            }
            return true;
        }
    }
    let _ = (au, k, quads, colsum, first_row, out_band, n);
    false
}

/// VNNI single-row GEMV over quad-packed `B` tiles (`out = arow * B`).
/// Returns `false` (without touching `out`) when the SIMD path is
/// unavailable or disabled.
#[inline]
pub(crate) fn gemv_i8q(
    au: &[u8],
    k: usize,
    quads: &[i8],
    colsum: &[i32],
    out: &mut [i32],
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() && !au.is_empty() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::gemv_i8q_vnni(au, k, quads, colsum, out, n);
            }
            return true;
        }
    }
    let _ = (au, k, quads, colsum, out, n);
    false
}

/// VNNI `a * b^T` band kernel (`b` rows read directly; `rowsum[j]` is
/// the sum of `b.row(j)` for the unsigned-offset compensation). Returns
/// `false` when the SIMD path is unavailable or disabled.
#[inline]
pub(crate) fn band_nt_i8q(
    au: &[u8],
    k: usize,
    b: &crate::Mat<i8>,
    rowsum: &[i32],
    first_row: usize,
    out_band: &mut [i32],
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() && !au.is_empty() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::band_nt_i8q_vnni(au, k, b, rowsum, first_row, out_band, n);
            }
            return true;
        }
    }
    let _ = (au, k, b, rowsum, first_row, out_band, n);
    false
}

/// SIMD fast path for [`crate::gemm::pack_quads`]: packs the whole of
/// `b` into `quads`/`colsum` (which must be zeroed and correctly sized)
/// and returns `true`, or returns `false` without touching them when the
/// SIMD path is unavailable — the caller then runs the scalar pack.
/// Byte-identical to the scalar pack either way.
#[inline]
pub(crate) fn pack_quads_into(b: &crate::Mat<i8>, quads: &mut [i8], colsum: &mut [i32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::pack_quads_vnni(b, quads, colsum);
            }
            return true;
        }
    }
    let _ = (b, quads, colsum);
    false
}

/// SIMD fast path for [`crate::gemm::pack_quads_t`] (same contract as
/// [`pack_quads_into`]): packs the transpose-given `bt` or reports
/// `false` for the scalar fallback.
#[inline]
pub(crate) fn pack_quads_t_into(bt: &crate::Mat<i8>, quads: &mut [i8], colsum: &mut [i32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::pack_quads_t_vnni(bt, quads, colsum);
            }
            return true;
        }
    }
    let _ = (bt, quads, colsum);
    false
}

/// Per-head dot products of one activation row against one cache row:
/// `out[i] = sum_j q[i*d_k + j] * krow[i*d_k + j]` for each head `i`.
///
/// This is the score kernel of the fused decode-attention drain: instead
/// of gathering per-head K panels and dispatching one `1 x ctx` GEMV per
/// head, the caller walks the cache rows once and computes every head's
/// score for that row in a single pass. Integer accumulation is exact
/// and order-independent, so the result is bit-identical to the per-head
/// GEMV path regardless of dispatch.
pub fn head_dots_i8(q: &[i8], krow: &[i8], d_k: usize, out: &mut [i32]) {
    assert_eq!(q.len(), krow.len(), "row widths must match");
    assert_eq!(out.len() * d_k, q.len(), "heads * d_k must cover the row");
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() && d_k > 0 && d_k.is_multiple_of(32) {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::head_dots_i8_vnni(q, krow, d_k, out);
            }
            return;
        }
    }
    for (i, o) in out.iter_mut().enumerate() {
        let base = i * d_k;
        let mut acc = 0i32;
        for j in 0..d_k {
            acc += i32::from(q[base + j]) * i32::from(krow[base + j]);
        }
        *o = acc;
    }
}

/// Probability-weighted accumulation `acc[j] += p * v[j]`.
///
/// The P*V kernel of the fused decode-attention drain: each cache V row
/// is folded into the per-head accumulators as soon as it is visited, so
/// no per-head V panel is ever materialised. `|p * v| <= 127 * 127`
/// fits `i16` exactly and the adds are plain `i32`, so SIMD and scalar
/// are bit-identical. `p == 0` (common after the hardware softmax
/// floors small probabilities) is skipped outright — adding zero is a
/// no-op in integer arithmetic.
pub fn scaled_add_i8(acc: &mut [i32], v: &[i8], p: i8) {
    assert_eq!(acc.len(), v.len(), "accumulator and row must match");
    if p == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies VNNI was detected at runtime.
            #[allow(unsafe_code)]
            unsafe {
                x86::scaled_add_i8_avx512(acc, v, p);
            }
            return;
        }
    }
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += i32::from(p) * i32::from(x);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::gemm::{KQ, MR, NR};
    use crate::Mat;
    use std::arch::x86_64::{
        __m512, __m512i, _mm256_loadu_si256, _mm512_add_epi32, _mm512_add_ps,
        _mm512_castsi512_si256, _mm512_cvtepi16_epi32, _mm512_cvtepi8_epi16, _mm512_dpbusd_epi32,
        _mm512_dpwssd_epi32, _mm512_extracti64x4_epi64, _mm512_loadu_ps, _mm512_loadu_si512,
        _mm512_mask_storeu_ps, _mm512_maskz_loadu_epi8, _mm512_mul_ps, _mm512_mullo_epi16,
        _mm512_reduce_add_epi32, _mm512_set1_epi16, _mm512_set1_epi32, _mm512_set1_epi8,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_setzero_si512, _mm512_shuffle_i32x4,
        _mm512_slli_epi32, _mm512_storeu_si512, _mm512_sub_epi32, _mm512_unpackhi_epi16,
        _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpackhi_epi8, _mm512_unpacklo_epi16,
        _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_unpacklo_epi8,
    };

    /// Signed per-head dot products via `vpdpwssd`: both operands are
    /// sign-extended to `i16` lanes (so no unsigned-offset compensation
    /// is needed) and pairs of `i16` products accumulate exactly into
    /// `i32` lanes. Caller guarantees `d_k % 32 == 0`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn head_dots_i8_vnni(q: &[i8], krow: &[i8], d_k: usize, out: &mut [i32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let base = i * d_k;
            let mut acc = _mm512_setzero_si512();
            let mut j = 0;
            while j < d_k {
                let qa = _mm512_cvtepi8_epi16(_mm256_loadu_si256(q.as_ptr().add(base + j).cast()));
                let kb =
                    _mm512_cvtepi8_epi16(_mm256_loadu_si256(krow.as_ptr().add(base + j).cast()));
                acc = _mm512_dpwssd_epi32(acc, qa, kb);
                j += 32;
            }
            *o = _mm512_reduce_add_epi32(acc);
        }
    }

    /// Vectorised `acc[j] += p * v[j]`: 32 `i8` values are sign-extended
    /// to `i16`, multiplied by the broadcast scalar with `vpmullw`
    /// (exact: `|p * v| <= 127 * 127 < 2^15`), sign-extended to `i32`
    /// halves, and added into the accumulators. Scalar tail for the
    /// ragged end.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn scaled_add_i8_avx512(acc: &mut [i32], v: &[i8], p: i8) {
        let pv = _mm512_set1_epi16(i16::from(p));
        let n = acc.len();
        let mut j = 0;
        while j + 32 <= n {
            let x = _mm512_cvtepi8_epi16(_mm256_loadu_si256(v.as_ptr().add(j).cast()));
            let prod = _mm512_mullo_epi16(x, pv);
            let lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(prod));
            let hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(prod));
            let a0 = _mm512_loadu_si512(acc.as_ptr().add(j).cast());
            _mm512_storeu_si512(acc.as_mut_ptr().add(j).cast(), _mm512_add_epi32(a0, lo));
            let a1 = _mm512_loadu_si512(acc.as_ptr().add(j + 16).cast());
            _mm512_storeu_si512(
                acc.as_mut_ptr().add(j + 16).cast(),
                _mm512_add_epi32(a1, hi),
            );
            j += 32;
        }
        for t in j..n {
            acc[t] += i32::from(p) * i32::from(v[t]);
        }
    }

    /// Spills one 16-lane `i32` accumulator into `out[..w]`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store_tile(acc: __m512i, out: &mut [i32], w: usize) {
        let mut lanes = [0i32; NR];
        _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc);
        out[..w].copy_from_slice(&lanes[..w]);
    }

    /// Reads activation quad `q` of an offset row as the broadcast
    /// 32-bit group `vpdpbusd` expects.
    ///
    /// # Safety
    ///
    /// `row` must hold at least `(q + 1) * KQ` bytes.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn bcast_quad(row: *const u8, q: usize) -> __m512i {
        _mm512_set1_epi32(row.add(q * KQ).cast::<i32>().read_unaligned())
    }

    /// VNNI twin of the scalar `band_i8q` kernel in [`crate::gemm`]:
    /// same `[tile][kq][lane][4]` quad layout, `MR`-row register quads,
    /// one `vpdpbusd` per row per 64-byte tile load (64 MACs), and the
    /// `128 * colsum` compensation subtracted once per output tile.
    /// Integer accumulation is exact, so the result is bit-identical to
    /// the scalar kernel and the naive reference.
    ///
    /// The main loop walks **two** packed tiles per pass (`MR x 2`
    /// register block, eight independent accumulators). With a single
    /// tile the four `vpdpbusd` chains cap throughput at roughly
    /// `MR / latency` ops per cycle — about 0.8 with the ~5-cycle VNNI
    /// latency — leaving the FMA ports half idle; eight chains nearly
    /// double the sustained MAC rate while each activation broadcast is
    /// shared by both tiles.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn band_i8q_vnni(
        au: &[u8],
        k: usize,
        quads: &[i8],
        colsum: &[i32],
        first_row: usize,
        out_band: &mut [i32],
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let kq = k.div_ceil(KQ);
        let stride = kq * KQ;
        let tile_len = kq * NR * KQ;
        let rows = out_band.len() / n;
        let tiles = n.div_ceil(NR);
        let mut t = 0;
        while t + 2 <= tiles {
            let bt0 = quads.as_ptr().add(t * tile_len);
            let bt1 = quads.as_ptr().add((t + 1) * tile_len);
            let comp0 =
                _mm512_slli_epi32(_mm512_loadu_si512(colsum.as_ptr().add(t * NR).cast()), 7);
            let comp1 = _mm512_slli_epi32(
                _mm512_loadu_si512(colsum.as_ptr().add((t + 1) * NR).cast()),
                7,
            );
            let j0 = t * NR;
            // A paired left tile is never the last, so it is always full
            // width; only the right tile can be ragged.
            let w1 = NR.min(n - j0 - NR);
            let mut r = 0;
            while r + MR <= rows {
                let a0 = au.as_ptr().add((first_row + r) * stride);
                let a1 = au.as_ptr().add((first_row + r + 1) * stride);
                let a2 = au.as_ptr().add((first_row + r + 2) * stride);
                let a3 = au.as_ptr().add((first_row + r + 3) * stride);
                let mut c00 = _mm512_setzero_si512();
                let mut c01 = _mm512_setzero_si512();
                let mut c10 = _mm512_setzero_si512();
                let mut c11 = _mm512_setzero_si512();
                let mut c20 = _mm512_setzero_si512();
                let mut c21 = _mm512_setzero_si512();
                let mut c30 = _mm512_setzero_si512();
                let mut c31 = _mm512_setzero_si512();
                for q in 0..kq {
                    let off = q * NR * KQ;
                    let bv0 = _mm512_loadu_si512(bt0.add(off).cast());
                    let bv1 = _mm512_loadu_si512(bt1.add(off).cast());
                    let x0 = bcast_quad(a0, q);
                    c00 = _mm512_dpbusd_epi32(c00, x0, bv0);
                    c01 = _mm512_dpbusd_epi32(c01, x0, bv1);
                    let x1 = bcast_quad(a1, q);
                    c10 = _mm512_dpbusd_epi32(c10, x1, bv0);
                    c11 = _mm512_dpbusd_epi32(c11, x1, bv1);
                    let x2 = bcast_quad(a2, q);
                    c20 = _mm512_dpbusd_epi32(c20, x2, bv0);
                    c21 = _mm512_dpbusd_epi32(c21, x2, bv1);
                    let x3 = bcast_quad(a3, q);
                    c30 = _mm512_dpbusd_epi32(c30, x3, bv0);
                    c31 = _mm512_dpbusd_epi32(c31, x3, bv1);
                }
                let pairs = [(c00, c01), (c10, c11), (c20, c21), (c30, c31)];
                for (i, (cl, cr)) in pairs.iter().copied().enumerate() {
                    let at = (r + i) * n + j0;
                    store_tile(_mm512_sub_epi32(cl, comp0), &mut out_band[at..at + NR], NR);
                    store_tile(
                        _mm512_sub_epi32(cr, comp1),
                        &mut out_band[at + NR..at + NR + w1],
                        w1,
                    );
                }
                r += MR;
            }
            while r < rows {
                let a0 = au.as_ptr().add((first_row + r) * stride);
                let mut c0 = _mm512_setzero_si512();
                let mut c1 = _mm512_setzero_si512();
                for q in 0..kq {
                    let off = q * NR * KQ;
                    let x0 = bcast_quad(a0, q);
                    c0 = _mm512_dpbusd_epi32(c0, x0, _mm512_loadu_si512(bt0.add(off).cast()));
                    c1 = _mm512_dpbusd_epi32(c1, x0, _mm512_loadu_si512(bt1.add(off).cast()));
                }
                let at = r * n + j0;
                store_tile(_mm512_sub_epi32(c0, comp0), &mut out_band[at..at + NR], NR);
                store_tile(
                    _mm512_sub_epi32(c1, comp1),
                    &mut out_band[at + NR..at + NR + w1],
                    w1,
                );
                r += 1;
            }
            t += 2;
        }
        if t < tiles {
            let bt = quads.as_ptr().add(t * tile_len);
            let comp = _mm512_slli_epi32(_mm512_loadu_si512(colsum.as_ptr().add(t * NR).cast()), 7);
            let j0 = t * NR;
            let w = NR.min(n - j0);
            let mut r = 0;
            while r + MR <= rows {
                let a0 = au.as_ptr().add((first_row + r) * stride);
                let a1 = au.as_ptr().add((first_row + r + 1) * stride);
                let a2 = au.as_ptr().add((first_row + r + 2) * stride);
                let a3 = au.as_ptr().add((first_row + r + 3) * stride);
                let mut c0 = _mm512_setzero_si512();
                let mut c1 = _mm512_setzero_si512();
                let mut c2 = _mm512_setzero_si512();
                let mut c3 = _mm512_setzero_si512();
                for q in 0..kq {
                    let bv = _mm512_loadu_si512(bt.add(q * NR * KQ).cast());
                    c0 = _mm512_dpbusd_epi32(c0, bcast_quad(a0, q), bv);
                    c1 = _mm512_dpbusd_epi32(c1, bcast_quad(a1, q), bv);
                    c2 = _mm512_dpbusd_epi32(c2, bcast_quad(a2, q), bv);
                    c3 = _mm512_dpbusd_epi32(c3, bcast_quad(a3, q), bv);
                }
                for (i, c) in [c0, c1, c2, c3].iter().copied().enumerate() {
                    let at = (r + i) * n + j0;
                    store_tile(_mm512_sub_epi32(c, comp), &mut out_band[at..at + w], w);
                }
                r += MR;
            }
            while r < rows {
                let a0 = au.as_ptr().add((first_row + r) * stride);
                let mut c0 = _mm512_setzero_si512();
                for q in 0..kq {
                    let bv = _mm512_loadu_si512(bt.add(q * NR * KQ).cast());
                    c0 = _mm512_dpbusd_epi32(c0, bcast_quad(a0, q), bv);
                }
                let at = r * n + j0;
                store_tile(_mm512_sub_epi32(c0, comp), &mut out_band[at..at + w], w);
                r += 1;
            }
        }
    }

    /// Dedicated single-row GEMV over quad-packed tiles: walks four
    /// tiles per pass so each broadcast activation quad feeds four
    /// independent `vpdpbusd` chains (the chain latency would otherwise
    /// leave the unit idle — the GEMV is bandwidth-bound on `B` either
    /// way). Bit-identical to the scalar quad kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn gemv_i8q_vnni(
        au: &[u8],
        k: usize,
        quads: &[i8],
        colsum: &[i32],
        out: &mut [i32],
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let kq = k.div_ceil(KQ);
        let tile_len = kq * NR * KQ;
        let tiles = n.div_ceil(NR);
        let arow = au.as_ptr();
        let mut t = 0;
        while t + 4 <= tiles {
            let b0 = quads.as_ptr().add(t * tile_len);
            let b1 = quads.as_ptr().add((t + 1) * tile_len);
            let b2 = quads.as_ptr().add((t + 2) * tile_len);
            let b3 = quads.as_ptr().add((t + 3) * tile_len);
            let mut c0 = _mm512_setzero_si512();
            let mut c1 = _mm512_setzero_si512();
            let mut c2 = _mm512_setzero_si512();
            let mut c3 = _mm512_setzero_si512();
            for q in 0..kq {
                let x = bcast_quad(arow, q);
                let off = q * NR * KQ;
                c0 = _mm512_dpbusd_epi32(c0, x, _mm512_loadu_si512(b0.add(off).cast()));
                c1 = _mm512_dpbusd_epi32(c1, x, _mm512_loadu_si512(b1.add(off).cast()));
                c2 = _mm512_dpbusd_epi32(c2, x, _mm512_loadu_si512(b2.add(off).cast()));
                c3 = _mm512_dpbusd_epi32(c3, x, _mm512_loadu_si512(b3.add(off).cast()));
            }
            for (i, c) in [c0, c1, c2, c3].iter().copied().enumerate() {
                let j0 = (t + i) * NR;
                let w = NR.min(n - j0);
                let comp = _mm512_slli_epi32(
                    _mm512_loadu_si512(colsum.as_ptr().add((t + i) * NR).cast()),
                    7,
                );
                store_tile(_mm512_sub_epi32(c, comp), &mut out[j0..j0 + w], w);
            }
            t += 4;
        }
        while t < tiles {
            let bt = quads.as_ptr().add(t * tile_len);
            let mut c0 = _mm512_setzero_si512();
            for q in 0..kq {
                let bv = _mm512_loadu_si512(bt.add(q * NR * KQ).cast());
                c0 = _mm512_dpbusd_epi32(c0, bcast_quad(arow, q), bv);
            }
            let comp = _mm512_slli_epi32(_mm512_loadu_si512(colsum.as_ptr().add(t * NR).cast()), 7);
            let j0 = t * NR;
            let w = NR.min(n - j0);
            store_tile(_mm512_sub_epi32(c0, comp), &mut out[j0..j0 + w], w);
            t += 1;
        }
    }

    /// VNNI `a * b^T` kernel: each output element is a length-`k` dot
    /// product taken in 64-byte `vpdpbusd` strides over `b`'s contiguous
    /// rows, four `b` rows sharing every activation load. The
    /// `128 * rowsum(b_j)` compensation is subtracted after the lane
    /// reduction. Bit-identical to the scalar `band_nt` kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn band_nt_i8q_vnni(
        au: &[u8],
        k: usize,
        b: &Mat<i8>,
        rowsum: &[i32],
        first_row: usize,
        out_band: &mut [i32],
        n: usize,
    ) {
        if n == 0 {
            return;
        }
        let kq4 = k.div_ceil(KQ) * KQ;
        let rows = out_band.len() / n;
        let kb = k / 64 * 64;
        let tail = k - kb;
        let tail_mask: u64 = if tail == 0 { 0 } else { (1u64 << tail) - 1 };
        for r in 0..rows {
            let arow = au.as_ptr().add((first_row + r) * kq4);
            let orow = &mut out_band[r * n..(r + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let mut c0 = _mm512_setzero_si512();
                let mut c1 = _mm512_setzero_si512();
                let mut c2 = _mm512_setzero_si512();
                let mut c3 = _mm512_setzero_si512();
                let b0 = b.row(j).as_ptr();
                let b1 = b.row(j + 1).as_ptr();
                let b2 = b.row(j + 2).as_ptr();
                let b3 = b.row(j + 3).as_ptr();
                let mut p = 0;
                while p < kb {
                    let av = _mm512_loadu_si512(arow.add(p).cast());
                    c0 = _mm512_dpbusd_epi32(c0, av, _mm512_loadu_si512(b0.add(p).cast()));
                    c1 = _mm512_dpbusd_epi32(c1, av, _mm512_loadu_si512(b1.add(p).cast()));
                    c2 = _mm512_dpbusd_epi32(c2, av, _mm512_loadu_si512(b2.add(p).cast()));
                    c3 = _mm512_dpbusd_epi32(c3, av, _mm512_loadu_si512(b3.add(p).cast()));
                    p += 64;
                }
                if tail != 0 {
                    let av = _mm512_maskz_loadu_epi8(tail_mask, arow.add(p).cast());
                    c0 = _mm512_dpbusd_epi32(
                        c0,
                        av,
                        _mm512_maskz_loadu_epi8(tail_mask, b0.add(p).cast()),
                    );
                    c1 = _mm512_dpbusd_epi32(
                        c1,
                        av,
                        _mm512_maskz_loadu_epi8(tail_mask, b1.add(p).cast()),
                    );
                    c2 = _mm512_dpbusd_epi32(
                        c2,
                        av,
                        _mm512_maskz_loadu_epi8(tail_mask, b2.add(p).cast()),
                    );
                    c3 = _mm512_dpbusd_epi32(
                        c3,
                        av,
                        _mm512_maskz_loadu_epi8(tail_mask, b3.add(p).cast()),
                    );
                }
                orow[j] = _mm512_reduce_add_epi32(c0) - 128 * rowsum[j];
                orow[j + 1] = _mm512_reduce_add_epi32(c1) - 128 * rowsum[j + 1];
                orow[j + 2] = _mm512_reduce_add_epi32(c2) - 128 * rowsum[j + 2];
                orow[j + 3] = _mm512_reduce_add_epi32(c3) - 128 * rowsum[j + 3];
                j += 4;
            }
            while j < n {
                let bj = b.row(j).as_ptr();
                let mut c0 = _mm512_setzero_si512();
                let mut p = 0;
                while p < kb {
                    let av = _mm512_loadu_si512(arow.add(p).cast());
                    c0 = _mm512_dpbusd_epi32(c0, av, _mm512_loadu_si512(bj.add(p).cast()));
                    p += 64;
                }
                if tail != 0 {
                    let av = _mm512_maskz_loadu_epi8(tail_mask, arow.add(p).cast());
                    c0 = _mm512_dpbusd_epi32(
                        c0,
                        av,
                        _mm512_maskz_loadu_epi8(tail_mask, bj.add(p).cast()),
                    );
                }
                orow[j] = _mm512_reduce_add_epi32(c0) - 128 * rowsum[j];
                j += 1;
            }
        }
    }

    /// SIMD [`crate::gemm::pack_quads`]: packs `b` (`k x n`, row-major)
    /// into the `[tile][kq][lane][KQ]` quad layout four tiles at a time.
    ///
    /// One pass loads 64 columns of four adjacent `b` rows (one
    /// reduction quad) as four vectors and byte-interleaves them — the
    /// `epi8`/`epi16` unpacks operate per 128-bit lane, which is exactly
    /// per column tile — then regroups the lanes with `shuffle_i32x4` so
    /// each vector holds one tile's finished 64-byte quad group. Column
    /// sums fall out of a `vpdpbusd` against an all-ones u8 vector on
    /// each finished group (each lane's four bytes land in their own
    /// `i32` lane). Ragged `k` tails and tiles beyond the last full
    /// four-tile group are delegated to the scalar pack, so the result
    /// is byte-identical to [`crate::gemm::pack_quads_scalar_range`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn pack_quads_vnni(b: &Mat<i8>, quads: &mut [i8], colsum: &mut [i32]) {
        let (k, n) = b.shape();
        let kq = k.div_ceil(KQ);
        let tile_len = kq * NR * KQ;
        let tiles = n.div_ceil(NR);
        let groups = n / (4 * NR);
        let kfull = k / KQ;
        let ones = _mm512_set1_epi8(1);
        for g in 0..groups {
            let j0 = g * 4 * NR;
            let t0 = g * 4;
            let mut acc = [_mm512_setzero_si512(); 4];
            for q in 0..kfull {
                let r0 = _mm512_loadu_si512(b.row(q * KQ).as_ptr().add(j0).cast());
                let r1 = _mm512_loadu_si512(b.row(q * KQ + 1).as_ptr().add(j0).cast());
                let r2 = _mm512_loadu_si512(b.row(q * KQ + 2).as_ptr().add(j0).cast());
                let r3 = _mm512_loadu_si512(b.row(q * KQ + 3).as_ptr().add(j0).cast());
                // Per 128-bit lane L (tile t0 + L): interleave the four
                // rows' bytes into [col][row] quad order.
                let t01l = _mm512_unpacklo_epi8(r0, r1);
                let t01h = _mm512_unpackhi_epi8(r0, r1);
                let t23l = _mm512_unpacklo_epi8(r2, r3);
                let t23h = _mm512_unpackhi_epi8(r2, r3);
                let u0 = _mm512_unpacklo_epi16(t01l, t23l); // lanes 0-3 of each tile
                let u1 = _mm512_unpackhi_epi16(t01l, t23l); // lanes 4-7
                let u2 = _mm512_unpacklo_epi16(t01h, t23h); // lanes 8-11
                let u3 = _mm512_unpackhi_epi16(t01h, t23h); // lanes 12-15
                                                            // Gather each tile's four 128-bit pieces into one vector.
                let w01l = _mm512_shuffle_i32x4::<0x44>(u0, u1);
                let w23l = _mm512_shuffle_i32x4::<0x44>(u2, u3);
                let w01h = _mm512_shuffle_i32x4::<0xee>(u0, u1);
                let w23h = _mm512_shuffle_i32x4::<0xee>(u2, u3);
                let z = [
                    _mm512_shuffle_i32x4::<0x88>(w01l, w23l),
                    _mm512_shuffle_i32x4::<0xdd>(w01l, w23l),
                    _mm512_shuffle_i32x4::<0x88>(w01h, w23h),
                    _mm512_shuffle_i32x4::<0xdd>(w01h, w23h),
                ];
                for (l, &zv) in z.iter().enumerate() {
                    let dst = quads.as_mut_ptr().add((t0 + l) * tile_len + q * NR * KQ);
                    _mm512_storeu_si512(dst.cast(), zv);
                    acc[l] = _mm512_dpbusd_epi32(acc[l], ones, zv);
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                _mm512_storeu_si512(colsum.as_mut_ptr().add((t0 + l) * NR).cast(), a);
            }
            // Ragged k tail (a final partial reduction quad).
            for p in kfull * KQ..k {
                let brow = &b.row(p)[j0..j0 + 4 * NR];
                let (q, u) = (p / KQ, p % KQ);
                for (l, &v) in brow.iter().enumerate() {
                    let t = t0 + l / NR;
                    let lane = l % NR;
                    quads[t * tile_len + q * NR * KQ + lane * KQ + u] = v;
                    colsum[t * NR + lane] += i32::from(v);
                }
            }
        }
        crate::gemm::pack_quads_scalar_range(b, quads, colsum, groups * 4, tiles);
    }

    /// SIMD [`crate::gemm::pack_quads_t`]: packs a transpose-given `bt`
    /// (`n x k` row-major, the K-cache shape) one full tile at a time.
    ///
    /// Viewed as `u32` elements, a tile's quad layout is exactly the
    /// transpose of the 16-row `u32` matrix formed by the tile's `bt`
    /// rows — so the kernel loads 64 bytes from each of the 16 rows and
    /// runs the classic four-stage AVX-512 16x16 `u32` transpose
    /// (`unpack epi32/epi64`, then two `shuffle_i32x4` rounds), storing
    /// 16 finished quad groups per pass. Column sums come from a
    /// `vpdpbusd` against all-ones on each stored group. Ragged `k`
    /// tails and the last partial tile go through the scalar pack;
    /// byte-identical to [`crate::gemm::pack_quads_t_scalar_range`].
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F/BW/VNNI (callers check [`super::simd_enabled`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn pack_quads_t_vnni(bt: &Mat<i8>, quads: &mut [i8], colsum: &mut [i32]) {
        let (n, k) = bt.shape();
        let kq = k.div_ceil(KQ);
        let tile_len = kq * NR * KQ;
        let tiles = n.div_ceil(NR);
        let full_tiles = n / NR;
        let blocks = k / 64; // 16-quad blocks fully covered by 64-byte loads
        let ones = _mm512_set1_epi8(1);
        for t in 0..full_tiles {
            let j0 = t * NR;
            let tbase = t * tile_len;
            let mut acc = _mm512_setzero_si512();
            for blk in 0..blocks {
                let off = blk * 64;
                let mut r = [_mm512_setzero_si512(); 16];
                for (l, rv) in r.iter_mut().enumerate() {
                    *rv = _mm512_loadu_si512(bt.row(j0 + l).as_ptr().add(off).cast());
                }
                // 16x16 u32 transpose: rows l -> columns (quads).
                let mut s = [_mm512_setzero_si512(); 16];
                for i in 0..8 {
                    s[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
                    s[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
                }
                let mut u = [_mm512_setzero_si512(); 16];
                for gp in 0..4 {
                    u[4 * gp] = _mm512_unpacklo_epi64(s[4 * gp], s[4 * gp + 2]);
                    u[4 * gp + 1] = _mm512_unpackhi_epi64(s[4 * gp], s[4 * gp + 2]);
                    u[4 * gp + 2] = _mm512_unpacklo_epi64(s[4 * gp + 1], s[4 * gp + 3]);
                    u[4 * gp + 3] = _mm512_unpackhi_epi64(s[4 * gp + 1], s[4 * gp + 3]);
                }
                let mut out = [_mm512_setzero_si512(); 16];
                for c in 0..4 {
                    let p0 = _mm512_shuffle_i32x4::<0x88>(u[c], u[4 + c]);
                    let p1 = _mm512_shuffle_i32x4::<0xdd>(u[c], u[4 + c]);
                    let q0 = _mm512_shuffle_i32x4::<0x88>(u[8 + c], u[12 + c]);
                    let q1 = _mm512_shuffle_i32x4::<0xdd>(u[8 + c], u[12 + c]);
                    out[c] = _mm512_shuffle_i32x4::<0x88>(p0, q0);
                    out[c + 8] = _mm512_shuffle_i32x4::<0xdd>(p0, q0);
                    out[c + 4] = _mm512_shuffle_i32x4::<0x88>(p1, q1);
                    out[c + 12] = _mm512_shuffle_i32x4::<0xdd>(p1, q1);
                }
                for (j, &ov) in out.iter().enumerate() {
                    let dst = quads.as_mut_ptr().add(tbase + (blk * NR + j) * NR * KQ);
                    _mm512_storeu_si512(dst.cast(), ov);
                    acc = _mm512_dpbusd_epi32(acc, ones, ov);
                }
            }
            _mm512_storeu_si512(colsum.as_mut_ptr().add(t * NR).cast(), acc);
            // Ragged k tail: the bytes past the last whole 64-byte block.
            for l in 0..NR {
                let src = bt.row(j0 + l);
                let mut s = 0i32;
                for (p, &v) in src.iter().enumerate().skip(blocks * 64) {
                    let (q, u) = (p / KQ, p % KQ);
                    quads[tbase + q * NR * KQ + l * KQ + u] = v;
                    s += i32::from(v);
                }
                colsum[t * NR + l] += s;
            }
        }
        crate::gemm::pack_quads_t_scalar_range(bt, quads, colsum, full_tiles, tiles);
    }

    /// An `R`-row by `T`-tile register block of the `f32` kernel: the
    /// `R * T` accumulators of rows `a[r * k..]` against the `T` adjacent
    /// packed tiles at `bt`, summed over all `k` in ascending order from
    /// `+0.0` with a separate multiply and add.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `a` must hold `R * k` floats and `bt`
    /// `T * k * NR`.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn f32_block<const R: usize, const T: usize>(
        a: *const f32,
        k: usize,
        bt: *const f32,
    ) -> [[__m512; T]; R] {
        let tile_len = k * NR;
        let mut c = [[_mm512_setzero_ps(); T]; R];
        for p in 0..k {
            let mut bv = [_mm512_setzero_ps(); T];
            for (t, b) in bv.iter_mut().enumerate() {
                *b = _mm512_loadu_ps(bt.add(t * tile_len + p * NR));
            }
            for (r, cr) in c.iter_mut().enumerate() {
                let x = _mm512_set1_ps(*a.add(r * k + p));
                for (acc, &b) in cr.iter_mut().zip(&bv) {
                    *acc = _mm512_add_ps(*acc, _mm512_mul_ps(x, b));
                }
            }
        }
        c
    }

    /// Every row of a band against the `T` adjacent packed tiles at `bt`
    /// (the first is tile `t0`), storing the lanes `masks` selects.
    /// Rows run as 16-row register blocks one tile at a time (16
    /// accumulators, one `B` load per `p` feeding 16 broadcast
    /// multiplies: the two FP ports are the limit), then as `MR`-row and
    /// single-row blocks across all `T` tiles, whose extra accumulators
    /// hide the add latency.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `a` holds `rows * k` floats, `bt` `T` tiles of
    /// `k * NR`, and `out` `rows` rows of `n` with every lane in `masks`
    /// inside its row.
    #[allow(unsafe_code)]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn f32_tile_group<const T: usize>(
        a: *const f32,
        k: usize,
        rows: usize,
        bt: *const f32,
        out: *mut f32,
        n: usize,
        t0: usize,
        masks: [u16; T],
    ) {
        let tile_len = k * NR;
        let mut r = 0;
        while r + 16 <= rows {
            for (i, &mask) in masks.iter().enumerate() {
                let c = f32_block::<16, 1>(a.add(r * k), k, bt.add(i * tile_len));
                for (q, [v]) in c.iter().enumerate() {
                    _mm512_mask_storeu_ps(out.add((r + q) * n + (t0 + i) * NR), mask, *v);
                }
            }
            r += 16;
        }
        while r + MR <= rows {
            let c = f32_block::<MR, T>(a.add(r * k), k, bt);
            for (q, cr) in c.iter().enumerate() {
                for (i, (&v, &mask)) in cr.iter().zip(&masks).enumerate() {
                    _mm512_mask_storeu_ps(out.add((r + q) * n + (t0 + i) * NR), mask, v);
                }
            }
            r += MR;
        }
        while r < rows {
            let [c] = f32_block::<1, T>(a.add(r * k), k, bt);
            for (i, (&v, &mask)) in c.iter().zip(&masks).enumerate() {
                _mm512_mask_storeu_ps(out.add(r * n + (t0 + i) * NR), mask, v);
            }
            r += 1;
        }
    }

    /// AVX-512 twin of the scalar `band_f32` kernel in [`crate::gemm`]
    /// over the same `[tile][p][lane]` packed tiles, with the tile loop
    /// outermost as there so the weights stream past once: tile pairs
    /// through [`f32_tile_group`], or groups of four for a one-row band,
    /// which has no other source of independent accumulators.
    ///
    /// Per element the `k` products are rounded by `vmulps` and summed
    /// by `vaddps` in ascending `k` from `+0.0` — the scalar kernel's
    /// operations exactly, so the result is bit-identical to it and to
    /// [`crate::gemm::matmul_ref`]. `vfmadd` would round once per step
    /// and is never used.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `n > 0`, `a.len() == out_band.len() / n * k`,
    /// `packed.len() >= ceil(n / NR) * k * NR` (callers go through
    /// [`super::band_f32`], which asserts these).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn band_f32_avx512(
        a: &[f32],
        k: usize,
        packed: &[f32],
        out_band: &mut [f32],
        n: usize,
    ) {
        let rows = out_band.len() / n;
        let tiles = n.div_ceil(NR);
        debug_assert!(a.len() >= rows * k && packed.len() >= tiles * k * NR);
        let (ap, out) = (a.as_ptr(), out_band.as_mut_ptr());
        let bt = |t: usize| packed.as_ptr().add(t * k * NR);
        // Lanes of tile `t` that are real columns.
        let lanes = |t: usize| -> u16 {
            match n - t * NR {
                w if w < NR => (1u16 << w) - 1,
                _ => u16::MAX,
            }
        };
        let mut t = 0;
        while rows == 1 && t + 4 <= tiles {
            let masks = [lanes(t), lanes(t + 1), lanes(t + 2), lanes(t + 3)];
            f32_tile_group::<4>(ap, k, rows, bt(t), out, n, t, masks);
            t += 4;
        }
        while t + 2 <= tiles {
            f32_tile_group::<2>(ap, k, rows, bt(t), out, n, t, [lanes(t), lanes(t + 1)]);
            t += 2;
        }
        if t < tiles {
            f32_tile_group::<1>(ap, k, rows, bt(t), out, n, t, [lanes(t)]);
        }
    }

    /// The AMX-INT8 tile kernel. Linux only: tile data needs a
    /// permission syscall ([`amx::amx_request`]).
    #[cfg(target_os = "linux")]
    pub(super) mod amx {
        use crate::gemm::NR;
        use std::arch::asm;
        use std::arch::x86_64::{__cpuid, __cpuid_count};

        /// Rows of a tile register, and of one `tdpbssd` row block.
        const TILE_ROWS: usize = 16;
        /// Bytes of a tile row: 64 reduction bytes of `A`, or one quad of
        /// all `NR` lanes of `B`, or `NR` `i32` accumulators.
        const TILE_ROW_BYTES: usize = 64;
        /// Bytes of one `B` tile: `TILE_ROWS` consecutive `kq` rows.
        const TILE_BYTES: usize = TILE_ROWS * TILE_ROW_BYTES;

        /// Detects AMX-TILE + AMX-INT8 and asks the kernel for permission to
        /// use tile data; `true` only when every step succeeds.
        ///
        /// * `cpuid(7,0).edx` bits 24 / 25 — the two ISA extensions;
        /// * `cpuid(0x1d,1)` — palette 1 is the layout this kernel assumes
        ///   (8 tiles of 16 rows x 64 bytes);
        /// * `xgetbv(0)` bits 17 / 18 — the OS saves tile config and data;
        /// * `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)` — Linux
        ///   keeps tile data off until a process asks (the state is 8 KiB per
        ///   thread); the grant covers every thread of the process.
        pub(in crate::simd) fn amx_request() -> bool {
            const AMX_TILE: u32 = 1 << 24;
            const AMX_INT8: u32 = 1 << 25;
            const OSXSAVE: u32 = 1 << 27;
            const XCR0_TILE: u32 = (1 << 17) | (1 << 18);
            const SYS_ARCH_PRCTL: i64 = 158;
            const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
            const XFEATURE_XTILEDATA: i64 = 18;
            extern "C" {
                fn syscall(num: i64, ...) -> i64;
            }
            if __cpuid(0).eax < 0x1d {
                return false;
            }
            let ext = __cpuid_count(7, 0).edx;
            if ext & AMX_TILE == 0 || ext & AMX_INT8 == 0 || __cpuid(1).ecx & OSXSAVE == 0 {
                return false;
            }
            let palette = __cpuid_count(0x1d, 1);
            let want_eax = (8 * TILE_BYTES) as u32 | (TILE_BYTES as u32) << 16;
            let want_ebx = TILE_ROW_BYTES as u32 | 8 << 16;
            if palette.eax != want_eax
                || palette.ebx != want_ebx
                || palette.ecx & 0xffff != TILE_ROWS as u32
            {
                return false;
            }
            let xcr0: u32;
            // SAFETY: OSXSAVE is set, so `xgetbv` with ecx = 0 is defined; it
            // reads XCR0 into edx:eax and touches nothing else.
            #[allow(unsafe_code)]
            unsafe {
                asm!("xgetbv", in("ecx") 0u32, out("eax") xcr0, out("edx") _,
                     options(nomem, nostack, preserves_flags));
            }
            if xcr0 & XCR0_TILE != XCR0_TILE {
                return false;
            }
            // SAFETY: glibc's variadic `syscall(2)` wrapper (std links glibc);
            // `arch_prctl(ARCH_REQ_XCOMP_PERM, ..)` takes two integers and only
            // changes this process's permitted XSAVE features.
            #[allow(unsafe_code)]
            let granted =
                unsafe { syscall(SYS_ARCH_PRCTL, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) };
            granted == 0
        }

        /// The 64-byte `ldtilecfg` operand (palette 1).
        #[repr(C, align(64))]
        struct TileCfg {
            palette: u8,
            start_row: u8,
            reserved: [u8; 14],
            colsb: [u16; 16],
            rows: [u8; 16],
        }

        impl TileCfg {
            /// The `2 x 2` register block's configuration: `tmm0..=3` are the
            /// accumulators `C00 C01 C10 C11`, `tmm4/5` the activation tiles
            /// of the upper (`r0` rows) and lower (`r1` rows) half of the row
            /// block, `tmm6/7` two adjacent `B` tiles. `r1 == 0` leaves the
            /// lower half unconfigured (a `1 x 2` block).
            fn block(r0: usize, r1: usize) -> Self {
                debug_assert!((1..=TILE_ROWS).contains(&r0) && r1 <= TILE_ROWS);
                let mut cfg = TileCfg {
                    palette: 1,
                    start_row: 0,
                    reserved: [0; 14],
                    colsb: [0; 16],
                    rows: [0; 16],
                };
                let tile_rows = [r0, r0, r1, r1, r0, r1, TILE_ROWS, TILE_ROWS];
                for (t, &r) in tile_rows.iter().enumerate() {
                    if r > 0 {
                        cfg.rows[t] = r as u8;
                        cfg.colsb[t] = TILE_ROW_BYTES as u16;
                    }
                }
                cfg
            }
        }

        /// `ldtilecfg`: configures (and zeroes) this thread's tiles.
        ///
        /// # Safety
        ///
        /// AMX must be available and permitted ([`amx_request`]).
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_config(cfg: &TileCfg) {
            asm!("ldtilecfg [{}]", in(reg) cfg, options(nostack, readonly, preserves_flags));
        }

        /// `tilerelease`: returns the tiles to their init state, so context
        /// switches stop saving 8 KiB of tile data for this thread.
        ///
        /// # Safety
        ///
        /// AMX must be available and permitted.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_release() {
            asm!("tilerelease", options(nomem, nostack, preserves_flags));
        }

        /// `tilezero tmm<T>`.
        ///
        /// # Safety
        ///
        /// Tile `T` must be configured on this thread.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_zero<const T: usize>() {
            asm!("tilezero tmm{t}", t = const T, options(nomem, nostack, preserves_flags));
        }

        /// `tileloadd tmm<T>, [base + stride]`: row `i` of the tile comes
        /// from `base + i * stride`.
        ///
        /// # Safety
        ///
        /// Tile `T` must be configured on this thread, and every configured
        /// row's `colsb` bytes at `base + i * stride` must be readable.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_load<const T: usize>(base: *const u8, stride: usize) {
            asm!("tileloadd tmm{t}, [{b} + {s}]", t = const T, b = in(reg) base, s = in(reg) stride,
                 options(nostack, readonly, preserves_flags));
        }

        /// `tilestored [base + stride], tmm<T>`.
        ///
        /// # Safety
        ///
        /// Tile `T` must be configured on this thread, and every configured
        /// row's `colsb` bytes at `base + i * stride` must be writable.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_store<const T: usize>(base: *mut i32, stride: usize) {
            asm!("tilestored [{b} + {s}], tmm{t}", t = const T, b = in(reg) base, s = in(reg) stride,
                 options(nostack, preserves_flags));
        }

        /// `tdpbssd tmm<C>, tmm<A>, tmm<B>`: `C += A * B` with signed x
        /// signed bytes, four per `i32` lane per step.
        ///
        /// # Safety
        ///
        /// The three tiles must be configured on this thread with matching
        /// shapes (`C.rows == A.rows`, `A.colsb / 4 == B.rows`,
        /// `C.colsb == B.colsb`), as [`TileCfg::block`] lays them out.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn tile_dp<const C: usize, const A: usize, const B: usize>() {
            asm!("tdpbssd tmm{c}, tmm{a}, tmm{b}", c = const C, a = const A, b = const B,
                 options(nomem, nostack, preserves_flags));
        }

        /// Stores accumulator tile `T` (`rows` rows) at `out[at..]` with row
        /// stride `n`. A full-width tile is stored in place; a ragged last
        /// column tile (`w < NR`) goes through a stack copy so no lane lands
        /// beyond column `n`.
        ///
        /// # Safety
        ///
        /// Tile `T` must hold `rows` configured rows, and
        /// `at + (rows - 1) * n + w <= out.len()`.
        #[allow(unsafe_code)]
        #[inline(always)]
        unsafe fn store_acc<const T: usize>(
            out: &mut [i32],
            at: usize,
            n: usize,
            rows: usize,
            w: usize,
        ) {
            debug_assert!(at + (rows - 1) * n + w <= out.len());
            if w == NR {
                tile_store::<T>(out.as_mut_ptr().add(at), n * 4);
            } else {
                let mut lanes = [0i32; TILE_ROWS * NR];
                tile_store::<T>(lanes.as_mut_ptr(), TILE_ROW_BYTES);
                for r in 0..rows {
                    out[at + r * n..at + r * n + w].copy_from_slice(&lanes[r * NR..r * NR + w]);
                }
            }
        }

        /// One pass of the tile kernel over `blocks` row blocks of `r0 + r1`
        /// rows each, starting at row `row0` of the band, under one tile
        /// configuration.
        ///
        /// Column-tile pairs are the outer loop, as in the VNNI kernel: a
        /// pair's `2 * k * NR` weight bytes stay cache-hot across every row
        /// block, and the weights as a whole stream through once. Per
        /// 64-byte step of `k` the `2 x 2` block issues two `A` loads, two
        /// `B` loads and four `tdpbssd` — 16 KiB of MACs per 4 KiB loaded. A
        /// `B` tile is 16 consecutive `kq` rows of the resident quad pack
        /// (stride 64), an `A` tile 16 rows of the row-major activations
        /// (stride `k`); nothing is repacked.
        ///
        /// # Safety
        ///
        /// AMX available and permitted; `k % 64 == 0`; `a` holds rows up to
        /// `row0 + blocks * (r0 + r1)`, `quads` holds
        /// `ceil(n / NR)` tiles of `k * NR` bytes, `out` rows up to
        /// `row0 + blocks * (r0 + r1)` of width `n`.
        #[allow(unsafe_code)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn amx_pass<const LOWER: bool>(
            a: &[i8],
            k: usize,
            quads: &[i8],
            row0: usize,
            blocks: usize,
            (r0, r1): (usize, usize),
            out: &mut [i32],
            n: usize,
        ) {
            debug_assert_eq!(LOWER, r1 > 0);
            let steps = k / TILE_ROW_BYTES;
            let tile_len = k * NR;
            let tiles = n.div_ceil(NR);
            debug_assert!(quads.len() >= tiles * tile_len);
            debug_assert!(a.len() >= (row0 + blocks * (r0 + r1)) * k);
            debug_assert!(out.len() >= (row0 + blocks * (r0 + r1)) * n);
            tile_config(&TileCfg::block(r0, r1));
            let mut t = 0;
            while t < tiles {
                let pair = t + 1 < tiles;
                let b0 = quads.as_ptr().add(t * tile_len).cast::<u8>();
                let b1 = b0.add(tile_len);
                let j0 = t * NR;
                let w0 = NR.min(n - j0);
                let w1 = if pair { NR.min(n - j0 - NR) } else { 0 };
                for blk in 0..blocks {
                    let row = row0 + blk * (r0 + r1);
                    let a0 = a.as_ptr().add(row * k).cast::<u8>();
                    let a1 = a0.add(r0 * k);
                    tile_zero::<0>();
                    tile_zero::<1>();
                    if LOWER {
                        tile_zero::<2>();
                        tile_zero::<3>();
                    }
                    for s in 0..steps {
                        tile_load::<4>(a0.add(s * TILE_ROW_BYTES), k);
                        tile_load::<6>(b0.add(s * TILE_BYTES), TILE_ROW_BYTES);
                        tile_dp::<0, 4, 6>();
                        if pair {
                            tile_load::<7>(b1.add(s * TILE_BYTES), TILE_ROW_BYTES);
                            tile_dp::<1, 4, 7>();
                        }
                        if LOWER {
                            tile_load::<5>(a1.add(s * TILE_ROW_BYTES), k);
                            tile_dp::<2, 5, 6>();
                            if pair {
                                tile_dp::<3, 5, 7>();
                            }
                        }
                    }
                    let at = row * n + j0;
                    store_acc::<0>(out, at, n, r0, w0);
                    if pair {
                        store_acc::<1>(out, at + NR, n, r0, w1);
                    }
                    if LOWER {
                        store_acc::<2>(out, at + r0 * n, n, r1, w0);
                        if pair {
                            store_acc::<3>(out, at + r0 * n + NR, n, r1, w1);
                        }
                    }
                }
                t += 2;
            }
            tile_release();
        }

        /// AMX-INT8 twin of [`super::band_i8q_vnni`] over the same resident quad
        /// pack: `out_band = a * B` for the band's rows `a`. `tdpbssd` is signed
        /// x signed, so it reads `a` itself — no `a + 128` copy, no
        /// `128 * colsum` compensation. Integer accumulation is exact in any
        /// order, so the result is bit-identical to the VNNI and scalar
        /// kernels.
        ///
        /// Whole 32-row blocks run as one pass of `2 x 2` register blocks;
        /// the ragged remainder (`1..=31` rows) runs as a second pass under a
        /// partial-row tile configuration — `r` rows in the upper tile, or 16
        /// above and `r - 16` below — so every row stays on tiles. Each pass
        /// configures the calling thread's tiles and releases them before it
        /// returns; tile state never outlives the call.
        ///
        /// # Safety
        ///
        /// AMX available and permitted ([`amx_request`]); `k % 64 == 0`,
        /// `n > 0`, `a.len() >= out_band.len() / n * k`,
        /// `quads.len() >= ceil(n / NR) * k * NR` (callers go through
        /// [`super::super::band_i8_amx`], which asserts these).
        #[allow(unsafe_code)]
        pub(in crate::simd) unsafe fn band_i8_amx(
            a: &[i8],
            k: usize,
            quads: &[i8],
            out_band: &mut [i32],
            n: usize,
        ) {
            let rows = out_band.len() / n;
            let blocks = rows / (2 * TILE_ROWS);
            if blocks > 0 {
                let shape = (TILE_ROWS, TILE_ROWS);
                amx_pass::<true>(a, k, quads, 0, blocks, shape, out_band, n);
            }
            let done = blocks * 2 * TILE_ROWS;
            match rows - done {
                0 => {}
                r if r <= TILE_ROWS => amx_pass::<false>(a, k, quads, done, 1, (r, 0), out_band, n),
                r => {
                    let shape = (TILE_ROWS, r - TILE_ROWS);
                    amx_pass::<true>(a, k, quads, done, 1, shape, out_band, n)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The override is process-global and this binary's tests run on
    /// parallel threads: the tests that flip it, and the ones that need
    /// a tier to stay live while they call its kernel, hold this.
    static OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn override_controls_dispatch() {
        let _guard = override_lock();
        let ambient = (simd_enabled(), int8_kernel());
        set_simd_override(Some(false));
        assert!(!simd_enabled());
        assert_eq!(int8_kernel(), Int8Kernel::Scalar);
        assert!(
            !amx_takes(64, 512),
            "the override switches AMX off with VNNI"
        );
        set_simd_override(Some(true));
        // Forcing SIMD on still requires hardware support.
        assert_eq!(simd_enabled(), vnni_available());
        assert_eq!(
            int8_kernel() == Int8Kernel::Amx,
            vnni_available() && amx_available()
        );
        set_simd_override(None);
        assert_eq!((simd_enabled(), int8_kernel()), ambient);
    }

    #[test]
    fn tile_tier_declines_what_it_cannot_take() {
        let _guard = override_lock();
        // Whatever the host: one row is the GEMV's, and a reduction depth
        // off the 64-byte step stays on VNNI.
        assert!(!amx_takes(1, 512));
        assert!(!amx_takes(64, 0));
        assert!(!amx_takes(64, 300));
        assert!(!amx_takes(64, 66));
        assert_eq!(amx_takes(2, 64), int8_kernel() == Int8Kernel::Amx);
        // A declined band leaves the output alone and says so.
        set_simd_override(Some(false));
        let a = crate::Mat::from_vec(2, 64, i8_stream(9, 128)).unwrap();
        let (quads, _) = crate::gemm::pack_quads(&crate::Mat::filled(64, 16, 1i8));
        let mut out = vec![i32::MIN; 32];
        assert!(!band_i8_amx(&a, quads.as_slice(), 0, &mut out, 16));
        assert!(out.iter().all(|&v| v == i32::MIN));
        set_simd_override(None);
    }

    /// The three band kernels on one pack: AMX tiles, VNNI, and the
    /// naive reference (which the scalar quad kernel is tested against
    /// in `gemm`). Shapes cover every register-block case: `1 x 2` and
    /// `2 x 2` blocks, a lone last column tile, ragged column tiles on
    /// either side of a pair, partial-row tiles in the upper and the
    /// lower half, bands that start inside `a`, and the extreme codes
    /// (signed x signed, no `+ 128` offset anywhere).
    #[test]
    fn amx_band_matches_vnni_band_and_reference() {
        let _guard = override_lock();
        set_simd_override(None);
        if int8_kernel() != Int8Kernel::Amx {
            eprintln!(
                "amx_band_matches_vnni_band_and_reference: skipped, no AMX tier on this host \
                 (int8 kernel = {:?})",
                int8_kernel()
            );
            return;
        }
        let extremes = |len: usize, phase: usize| -> Vec<i8> {
            (0..len)
                .map(|i| {
                    if (i / 3 + phase).is_multiple_of(2) {
                        -128
                    } else {
                        127
                    }
                })
                .collect()
        };
        let mut seed = 40;
        for k in [64usize, 192, 512] {
            for n in [1usize, 15, 16, 17, 32, 33, 48, 100] {
                for m in [2usize, 5, 16, 17, 31, 32, 33, 48, 49, 64, 70] {
                    seed += 1;
                    let extreme = seed % 4 == 0;
                    let (av, bv) = if extreme {
                        (extremes(m * k, 0), extremes(k * n, 1))
                    } else {
                        (i8_stream(seed, m * k), i8_stream(seed + 1000, k * n))
                    };
                    let a = crate::Mat::from_vec(m, k, av).unwrap();
                    let b = crate::Mat::from_vec(k, n, bv).unwrap();
                    let want = crate::gemm::matmul_i8_ref(&a, &b).unwrap();
                    let (quads, colsum) = crate::gemm::pack_quads(&b);
                    let au = crate::gemm::offset_rows(&a, 1);
                    // The whole matrix as one band, then its tail as a
                    // band of its own (`first_row > 0`).
                    for first_row in [0, m / 3] {
                        let rows = m - first_row;
                        let mut amx = vec![i32::MIN; rows * n];
                        let mut vnni = vec![i32::MIN; rows * n];
                        assert!(band_i8_amx(&a, quads.as_slice(), first_row, &mut amx, n));
                        assert!(band_i8q(
                            &au,
                            k,
                            quads.as_slice(),
                            &colsum,
                            first_row,
                            &mut vnni,
                            n
                        ));
                        let tag = format!("({m},{k},{n}) from row {first_row}, extreme {extreme}");
                        assert_eq!(amx, vnni, "amx vs vnni {tag}");
                        assert_eq!(amx, want.as_slice()[first_row * n..], "amx vs ref {tag}");
                    }
                }
            }
        }
    }

    /// The AVX-512 `f32` band against the naive reference, bit for bit,
    /// over every register-block case: 16-, 4- and 1-row blocks, tile
    /// groups of four (one-row bands), two and one, ragged last tiles,
    /// bands that start inside `a`, and signed zeros / subnormals.
    #[test]
    fn f32_band_matches_reference_bitwise() {
        let _guard = override_lock();
        set_simd_override(None);
        let mut seed = 7;
        for k in [1usize, 3, 64, 130] {
            for n in [1usize, 15, 16, 17, 33, 48, 64, 65, 100] {
                for m in [1usize, 2, 4, 5, 16, 17, 20, 23, 37] {
                    seed += 1;
                    let f = |s: u64, len: usize| -> Vec<f32> {
                        i8_stream(s, len)
                            .iter()
                            .map(|&v| match v {
                                0 => -0.0,
                                1 => f32::MIN_POSITIVE / 4.0,
                                v => f32::from(v) * 0.37 + 0.011 * f32::from(v).powi(2),
                            })
                            .collect()
                    };
                    let a = crate::Mat::from_vec(m, k, f(seed, m * k)).unwrap();
                    let b = crate::Mat::from_vec(k, n, f(seed + 500, k * n)).unwrap();
                    let want = crate::gemm::matmul_ref(&a, &b).unwrap();
                    let packed = crate::gemm::pack_tiles(&b, crate::gemm::widen_f32);
                    for first_row in [0, m / 3] {
                        let mut got = vec![f32::NAN; (m - first_row) * n];
                        if !band_f32(&a, &packed, first_row, &mut got, n) {
                            eprintln!("f32_band_matches_reference_bitwise: skipped, no AVX-512F");
                            return;
                        }
                        let same = got
                            .iter()
                            .zip(&want.as_slice()[first_row * n..])
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "({m},{k},{n}) from row {first_row}");
                    }
                }
            }
        }
        // Switched off, the band is declined and left alone.
        set_simd_override(Some(false));
        let a = crate::Mat::filled(1, 4, 1.0f32);
        let mut out = [f32::NAN; 16];
        assert!(!band_f32(&a, &[0.0; 64], 0, &mut out, 16));
        assert!(out.iter().all(|v| v.is_nan()));
        set_simd_override(None);
    }

    /// Deterministic pseudo-random i8 stream for the kernel tests.
    fn i8_stream(seed: u64, len: usize) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as i8
            })
            .collect()
    }

    #[test]
    fn head_dots_match_scalar_reference() {
        // d_k = 64 exercises the VNNI path on capable hardware; d_k = 16
        // always takes the scalar fallback. Either way the entry point
        // must match the plain nested-loop reference bit for bit.
        for (heads, d_k, seed) in [(8usize, 64usize, 1u64), (4, 16, 2), (2, 96, 3), (1, 32, 4)] {
            let q = i8_stream(seed, heads * d_k);
            let krow = i8_stream(seed + 100, heads * d_k);
            let mut got = vec![0i32; heads];
            head_dots_i8(&q, &krow, d_k, &mut got);
            let want: Vec<i32> = (0..heads)
                .map(|i| {
                    (0..d_k)
                        .map(|j| i32::from(q[i * d_k + j]) * i32::from(krow[i * d_k + j]))
                        .sum()
                })
                .collect();
            assert_eq!(got, want, "heads={heads} d_k={d_k}");
        }
    }

    #[test]
    fn scaled_add_matches_scalar_reference() {
        // Lengths straddle the 32-lane vector width to hit the ragged
        // tail; p covers the skip case (0), the negative extreme, and a
        // typical positive probability code.
        for (len, p, seed) in [
            (64usize, 127i8, 5u64),
            (33, -128, 6),
            (31, 0, 7),
            (100, 3, 8),
        ] {
            let v = i8_stream(seed, len);
            let base: Vec<i32> = i8_stream(seed + 200, len)
                .iter()
                .map(|&x| i32::from(x) << 8)
                .collect();
            let mut got = base.clone();
            scaled_add_i8(&mut got, &v, p);
            let want: Vec<i32> = base
                .iter()
                .zip(&v)
                .map(|(&a, &x)| a + i32::from(p) * i32::from(x))
                .collect();
            assert_eq!(got, want, "len={len} p={p}");
        }
    }
}
