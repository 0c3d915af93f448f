//! General matrix-matrix multiplication kernels.
//!
//! Two numeric domains are needed by the workspace:
//!
//! * `f32 x f32 -> f32` for the reference Transformer ([`matmul`]);
//! * `i8 x i8 -> i32` for the INT8 datapath the accelerator implements
//!   ([`matmul_i8`]). The `i32` accumulator never overflows for the
//!   reduction depths used by the paper (`k <= 4096`): the worst case is
//!   `4096 * 127 * 128 = 66,584,576`, far below `i32::MAX`.
//!
//! # Kernel structure
//!
//! The four public entry points ([`matmul`], [`matmul_nt`], [`matmul_i8`],
//! [`matmul_i8_nt`]) are parallelised over horizontal output bands on the
//! persistent worker pool in [`crate::par`]. The worker count has one
//! source, [`crate::par::threads`]: the calling thread's
//! [`crate::Policy`] (by default `ACCEL_THREADS` or the machine's
//! available parallelism); problems at or below [`SERIAL_CUTOFF_MACS`]
//! run on the calling thread to avoid dispatch overhead. The INT8
//! kernels dispatch to the AVX-512 VNNI and AMX microkernels in
//! [`crate::simd`] up to the policy's tier cap where the hardware has
//! them (bit-identical either way); single-row INT8 GEMMs use a
//! dedicated GEMV kernel.
//!
//! [`matmul`] and [`matmul_i8`] (two rows or more) are the prepacked
//! GEMMs of [`crate::prepack`] with the pack paid per call: they pack `B`
//! and run the same body. Weight matrices that are multiplied repeatedly
//! should be packed once there instead.
//!
//! The `f32` kernel packs `B` once into `NR`-lane column tiles
//! (`[tile][k][lane]` layout via [`pack_tiles`]) shared read-only by all
//! bands, then runs a register-tiled `MR x NR` microkernel: `MR` rows of
//! `A` against one tile, with the `MR * NR` accumulators living in
//! registers across the whole `k` sweep so each output element is loaded
//! and stored exactly once. The INT8 kernel packs `B` into the
//! `[tile][kq][lane][KQ]` **quad** layout ([`pack_quads`]) that both the
//! scalar kernel and the `vpdpbusd`-based VNNI microkernel consume — one
//! 64-byte load covers a reduction quad of all `NR` lanes, and the i8
//! (not i32-widened) storage keeps the per-token weight traffic of the
//! decode GEMV at 1x the weight bytes. The `*_nt` kernels read `B`'s
//! rows directly (they already are the contiguous panels of `B^T`) with
//! a blocked dot product.
//!
//! Every kernel is **bit-identical** to its naive reference
//! ([`matmul_ref`] etc.) for any thread count: tiling over `n`, register
//! blocking over rows, and splitting rows across threads never reorder
//! the per-element accumulation (each output element still sums its `k`
//! products in ascending-`k` order on a single thread). The integer
//! kernels are exact regardless; for `f32` the unchanged summation order
//! is what preserves bit equality. There is deliberately **no** skip of
//! zero operands — a data-dependent early-out gives data-dependent
//! timing (unlike the fixed-schedule systolic array being modelled) and
//! silently drops `0.0 * NaN` propagation in the float kernel.

use crate::{par, prepack, simd, Mat, ShapeError};

/// Column-tile width of the register microkernel (one 512-bit vector of
/// `i32`/`f32` lanes; also vectorises as two 256-bit ops on AVX2).
pub(crate) const NR: usize = 16;
/// Rows of `A` processed together by the register microkernel — each
/// packed `B` vector load feeds `MR` rows' accumulators.
pub(crate) const MR: usize = 4;
/// Output-column block size for the `*_nt` dot-product kernels: how many
/// rows of `B` stay hot in cache while a band of `A` rows streams by.
const BJ: usize = 32;

/// Problems with at most this many multiply-accumulates (`m * k * n`)
/// run serially on the calling thread — below this size thread-spawn
/// overhead exceeds the compute being split.
pub const SERIAL_CUTOFF_MACS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Tile packing
// ---------------------------------------------------------------------------

/// Packs `b` (`k x n`) into `NR`-lane column tiles.
///
/// Layout: `[tile][p][lane]` — for column tile `t`, the `NR` values of
/// row `p` restricted to columns `t*NR..` are contiguous, so the
/// microkernel's per-`p` tile load is a single vector read. The last
/// tile is zero-padded to `NR`; padded lanes are computed and discarded,
/// which cannot perturb real lanes (lanes are independent). The packed
/// buffer is built once per GEMM and shared read-only by every band.
pub(crate) fn pack_tiles(b: &Mat<f32>) -> Vec<f32> {
    let (k, n) = b.shape();
    let tiles = n.div_ceil(NR);
    let mut packed = vec![0f32; tiles * k * NR];
    for t in 0..tiles {
        let j0 = t * NR;
        let w = NR.min(n - j0);
        for p in 0..k {
            let base = (t * k + p) * NR;
            packed[base..base + w].copy_from_slice(&b.row(p)[j0..j0 + w]);
        }
    }
    packed
}

// ---------------------------------------------------------------------------
// Band kernels (each runs on one worker thread over a row band)
// ---------------------------------------------------------------------------

/// Computes `out_band = a[first_row..][..rows] * B` from packed `B`
/// tiles with a register-tiled `MR x NR` microkernel: the accumulators
/// stay in registers across the whole `k` sweep and each output element
/// is written exactly once. The tile loop is outermost so one packed
/// tile (`k * NR` elements) stays hot in cache across every row of the
/// band — without this, wide-`n` GEMMs (the FFN's `n = d_ff`) re-stream
/// the whole packed `B` per row quad. Per element the `k` products
/// accumulate in ascending-`k` order from zero, matching the naive
/// reference bit for bit (the loop nesting never changes what one
/// element sums, only the visit order across independent elements).
fn band_f32(a: &Mat<f32>, packed: &[f32], first_row: usize, out_band: &mut [f32], n: usize) {
    if n == 0 {
        return;
    }
    let k = a.cols();
    let rows = out_band.len() / n;
    let tiles = n.div_ceil(NR);
    for t in 0..tiles {
        let bt = &packed[t * k * NR..(t + 1) * k * NR];
        let j0 = t * NR;
        let w = NR.min(n - j0);
        let mut r = 0;
        // MR-row register tiles.
        while r + MR <= rows {
            let (a0, a1, a2, a3) = (
                a.row(first_row + r),
                a.row(first_row + r + 1),
                a.row(first_row + r + 2),
                a.row(first_row + r + 3),
            );
            let mut c0 = [0f32; NR];
            let mut c1 = [0f32; NR];
            let mut c2 = [0f32; NR];
            let mut c3 = [0f32; NR];
            for p in 0..k {
                let bv = &bt[p * NR..(p + 1) * NR];
                let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
                for l in 0..NR {
                    c0[l] += x0 * bv[l];
                    c1[l] += x1 * bv[l];
                    c2[l] += x2 * bv[l];
                    c3[l] += x3 * bv[l];
                }
            }
            for (q, c) in [c0, c1, c2, c3].iter().enumerate() {
                let at = (r + q) * n + j0;
                out_band[at..at + w].copy_from_slice(&c[..w]);
            }
            r += MR;
        }
        // Remainder rows, one at a time.
        while r < rows {
            let a0 = a.row(first_row + r);
            let mut c0 = [0f32; NR];
            for p in 0..k {
                let bv = &bt[p * NR..(p + 1) * NR];
                let x0 = a0[p];
                for l in 0..NR {
                    c0[l] += x0 * bv[l];
                }
            }
            out_band[r * n + j0..r * n + j0 + w].copy_from_slice(&c0[..w]);
            r += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// INT8 quad packing (the VNNI-friendly layout)
// ---------------------------------------------------------------------------

/// Reduction-depth group size of the INT8 packed layout: the four
/// adjacent `k` values one `vpdpbusd` lane consumes.
pub(crate) const KQ: usize = 4;

/// Bytes of a cache line, and of one `kq` row of the quad pack.
pub(crate) const LINE: usize = 64;

/// `i8` storage whose first byte sits on a cache-line boundary.
///
/// A `kq` row of the quad pack is 64 bytes — one line exactly when the
/// pack starts on one, two otherwise, and the system allocator starts a
/// `Vec<i8>` 16 bytes into a line. An AMX `tileloadd` whose 16 rows each
/// straddle two lines takes 16.8 ns instead of 3.0 (measured, L1-hot),
/// which is the whole difference between the tile kernel and the VNNI
/// one; `vpdpbusd`'s 64-byte loads gain too. So the packs (and the tile
/// kernel's copy of misaligned activations) live in a `Vec` over-
/// allocated by 63 bytes, addressed from its first aligned byte. The
/// heap block never reallocates, so the offset holds for the value's
/// lifetime; a clone is re-aligned.
#[derive(Debug, Default)]
pub(crate) struct AlignedI8 {
    buf: Vec<i8>,
    off: usize,
    len: usize,
}

impl AlignedI8 {
    /// `len` zero bytes, the first on a line boundary.
    pub(crate) fn zeroed(len: usize) -> Self {
        let buf = vec![0i8; len + LINE - 1];
        let off = buf.as_ptr().align_offset(LINE);
        assert!(off < LINE, "a byte pointer can always be aligned");
        Self { buf, off, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn as_slice(&self) -> &[i8] {
        &self.buf[self.off..self.off + self.len]
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [i8] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

impl From<&[i8]> for AlignedI8 {
    fn from(bytes: &[i8]) -> Self {
        let mut aligned = Self::zeroed(bytes.len());
        aligned.as_mut_slice().copy_from_slice(bytes);
        aligned
    }
}

impl Clone for AlignedI8 {
    fn clone(&self) -> Self {
        self.as_slice().into()
    }
}

impl PartialEq for AlignedI8 {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl serde::Serialize for AlignedI8 {
    fn to_value(&self) -> serde::value::Value {
        self.as_slice().to_value()
    }
}

impl serde::Deserialize for AlignedI8 {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        Vec::<i8>::from_value(v).map(|bytes| bytes.as_slice().into())
    }
}

/// Packs an INT8 `b` (`k x n`) into `[tile][kq][lane][KQ]` quads plus
/// per-`(tile, lane)` column sums.
///
/// Each column tile holds `NR` output lanes; within a tile, the `KQ`
/// values of rows `q*KQ .. q*KQ+4` for one lane are adjacent, so a
/// 64-byte vector load covers one reduction quad of all 16 lanes —
/// exactly the operand shape `vpdpbusd` consumes. Rows beyond `k` and
/// lanes beyond `n` are zero-padded (padded products are exactly zero,
/// so they cannot perturb real lanes).
///
/// The column sums exist for the unsigned-offset trick: the VNNI
/// microkernel feeds activations as `a + 128` (u8) and subtracts
/// `128 * colsum` afterwards, which is exact in `i32` — worst case
/// `|acc| <= 4096 * 255 * 127 + 128 * 4096 * 128 < 2^31`.
pub(crate) fn pack_quads(b: &Mat<i8>) -> (AlignedI8, Vec<i32>) {
    let (k, n) = b.shape();
    let tiles = n.div_ceil(NR);
    let kq = k.div_ceil(KQ);
    let mut quads = AlignedI8::zeroed(tiles * kq * NR * KQ);
    let mut colsum = vec![0i32; tiles * NR];
    if !simd::pack_quads_into(b, quads.as_mut_slice(), &mut colsum) {
        pack_quads_range(b, quads.as_mut_slice(), &mut colsum, 0, tiles);
    }
    (quads, colsum)
}

/// Scalar [`pack_quads`] body over column tiles `t0 .. t1`, writing into
/// tile-relative chunks: `quads_chunk` / `colsum_chunk` are the
/// sub-slices of the full buffers covering exactly those tiles
/// (zero-initialised). The SIMD pack delegates ragged edges here, and
/// the two are byte-identical.
pub(crate) fn pack_quads_range(
    b: &Mat<i8>,
    quads_chunk: &mut [i8],
    colsum_chunk: &mut [i32],
    t0: usize,
    t1: usize,
) {
    let (k, n) = b.shape();
    let kq = k.div_ceil(KQ);
    for t in t0..t1 {
        let j0 = t * NR;
        let w = NR.min(n - j0);
        for p in 0..k {
            let brow = &b.row(p)[j0..j0 + w];
            let (q, u) = (p / KQ, p % KQ);
            let base = ((t - t0) * kq + q) * NR * KQ + u;
            for (l, &v) in brow.iter().enumerate() {
                quads_chunk[base + l * KQ] = v;
                colsum_chunk[(t - t0) * NR + l] += i32::from(v);
            }
        }
    }
}

/// [`pack_quads`] for a `B` given as its transpose: `bt` is `n x k`
/// row-major (the attention K-cache shape), and the result is the quad
/// layout of `bt^T` — each `bt` row becomes one output lane, read
/// contiguously and scattered into its `KQ`-byte quad slots. Packing
/// per call costs `O(n * k)` byte moves, which the multi-row chunked
/// score GEMM amortises across its rows; the single-row decode shape
/// keeps the direct `*_nt` kernel instead.
pub(crate) fn pack_quads_t(bt: &Mat<i8>) -> (AlignedI8, Vec<i32>) {
    let (n, k) = bt.shape();
    let tiles = n.div_ceil(NR);
    let kq = k.div_ceil(KQ);
    let mut quads = AlignedI8::zeroed(tiles * kq * NR * KQ);
    let mut colsum = vec![0i32; tiles * NR];
    if !simd::pack_quads_t_into(bt, quads.as_mut_slice(), &mut colsum) {
        pack_quads_t_scalar_range(bt, quads.as_mut_slice(), &mut colsum, 0, tiles);
    }
    (quads, colsum)
}

/// Scalar [`pack_quads_t`] body over column tiles `t0 .. t1`, writing
/// into caller-provided (zeroed) buffers. The SIMD pack delegates ragged
/// edges here; both producers are byte-identical.
pub(crate) fn pack_quads_t_scalar_range(
    bt: &Mat<i8>,
    quads: &mut [i8],
    colsum: &mut [i32],
    t0: usize,
    t1: usize,
) {
    let (n, k) = bt.shape();
    let kq = k.div_ceil(KQ);
    for t in t0..t1 {
        let j0 = t * NR;
        let w = NR.min(n - j0);
        let tbase = t * kq * NR * KQ;
        for l in 0..w {
            let src = bt.row(j0 + l);
            let mut s = 0i32;
            for (q, chunk) in src.chunks(KQ).enumerate() {
                let dst = tbase + q * NR * KQ + l * KQ;
                for (u, &v) in chunk.iter().enumerate() {
                    quads[dst + u] = v;
                    s += i32::from(v);
                }
            }
            colsum[t * NR + l] += s;
        }
    }
}

/// The activation matrix recoded for the VNNI microkernel: each row of
/// `a` as `a + 128` (u8), zero-padded to a whole number of quads.
/// Padded bytes multiply the packed `B`'s zero padding, contributing
/// exactly nothing. At `k = 0` there is nothing to recode: the result is
/// empty, which sends the GEMM to the scalar kernels (their empty dot
/// products are the zero matrix).
pub(crate) fn offset_rows(a: &Mat<i8>, threads_hint: usize) -> Vec<u8> {
    let (m, k) = a.shape();
    let kq4 = k.div_ceil(KQ) * KQ;
    if kq4 == 0 {
        return Vec::new();
    }
    let mut au = vec![0u8; m * kq4];
    let fill = |first_row: usize, chunk: &mut [u8]| {
        for (r, dst) in chunk.chunks_mut(kq4).enumerate() {
            for (d, &v) in dst.iter_mut().zip(a.row(first_row + r)) {
                *d = (i32::from(v) + 128) as u8;
            }
        }
    };
    if threads_hint <= 1 || m < 64 {
        fill(0, &mut au);
    } else {
        par::row_bands(&mut au, m, kq4, threads_hint, |first_row, chunk| {
            fill(first_row, chunk)
        });
    }
    au
}

/// The activations in the form the INT8 band kernels of this GEMM will
/// read: [`offset_rows`] when the VNNI tier takes it, nothing (an empty
/// vector) when AMX tiles or the scalar kernel do — both read `a`
/// itself.
pub(crate) fn vnni_rows(a: &Mat<i8>, threads_hint: usize) -> Vec<u8> {
    if simd::int8_simd_active() && !simd::amx_takes(a.rows(), a.cols()) {
        offset_rows(a, threads_hint)
    } else {
        Vec::new()
    }
}

/// Scalar band kernel over the INT8 quad layout: bit-identical to the
/// naive reference (integer accumulation is exact in any order) and to
/// the VNNI microkernel. Reads the original signed activations — the
/// unsigned-offset trick is a VNNI implementation detail.
fn band_i8q(a: &Mat<i8>, quads: &[i8], first_row: usize, out_band: &mut [i32], n: usize) {
    if n == 0 {
        return;
    }
    let k = a.cols();
    let kq = k.div_ceil(KQ);
    let rows = out_band.len() / n;
    let tiles = n.div_ceil(NR);
    for t in 0..tiles {
        let bt = &quads[t * kq * NR * KQ..(t + 1) * kq * NR * KQ];
        let j0 = t * NR;
        let w = NR.min(n - j0);
        for r in 0..rows {
            let arow = a.row(first_row + r);
            let mut c = [0i32; NR];
            for q in 0..kq {
                let p0 = q * KQ;
                let take = KQ.min(k - p0);
                let aq = &arow[p0..p0 + take];
                let bq = &bt[q * NR * KQ..(q + 1) * NR * KQ];
                for (l, cl) in c.iter_mut().enumerate() {
                    let bl = &bq[l * KQ..l * KQ + take];
                    let mut dot = 0i32;
                    for (&x, &y) in aq.iter().zip(bl) {
                        dot += i32::from(x) * i32::from(y);
                    }
                    *cl += dot;
                }
            }
            out_band[r * n + j0..r * n + j0 + w].copy_from_slice(&c[..w]);
        }
    }
}

/// Direct (pack-free) single-row INT8 GEMV: `out = a.row(0) * b`,
/// streaming `b`'s rows once in axpy order. For `m == 1` the quad pack
/// is `O(k * n)` — the same order as the multiply itself — so packing
/// can never pay for itself; this kernel reads `b` in place instead.
/// Each output element accumulates its `k` products in ascending order
/// from zero, so the result is bit-identical to the naive reference
/// (and to the packed kernels — integer accumulation is exact).
fn gemv_i8_direct(a: &Mat<i8>, b: &Mat<i8>, out: &mut [i32]) {
    let arow = a.row(0);
    for (p, &av) in arow.iter().enumerate() {
        let av = i32::from(av);
        for (o, &bv) in out.iter_mut().zip(b.row(p)) {
            *o += av * i32::from(bv);
        }
    }
}

/// Identity widening for the `f32` dot-product kernel.
#[inline]
fn widen_f32(v: f32) -> f32 {
    v
}

/// `i8 -> i32` widening for the integer dot-product kernel.
#[inline]
fn widen_i8(v: i8) -> i32 {
    i32::from(v)
}

/// Runs the `f32` band kernel over prepacked tiles: the AVX-512 kernel
/// from [`crate::simd`] when available/enabled, otherwise the scalar
/// one. Both round every product and every ascending-`k` add separately
/// (no FMA, no reassociation), so they are bit-identical and dispatch
/// only affects speed.
#[inline]
pub(crate) fn run_band_f32(
    a: &Mat<f32>,
    packed: &[f32],
    first_row: usize,
    out_band: &mut [f32],
    n: usize,
) {
    if !simd::band_f32(a, packed, first_row, out_band, n) {
        band_f32(a, packed, first_row, out_band, n);
    }
}

/// Runs the INT8 band kernel over the quad-packed layout: the AMX tile
/// kernel from [`crate::simd`] when the GEMM's shape and the host allow
/// it, else the VNNI microkernel when available/enabled (consuming the
/// unsigned-offset activations `au` from [`vnni_rows`]), otherwise the
/// scalar quad kernel. All three are bit-identical, so dispatch only
/// affects speed.
#[inline]
pub(crate) fn run_band_i8q(
    a: &Mat<i8>,
    au: &[u8],
    quads: &[i8],
    colsum: &[i32],
    first_row: usize,
    out_band: &mut [i32],
    n: usize,
) {
    if simd::band_i8_amx(a, quads, first_row, out_band, n)
        || simd::band_i8q(au, a.cols(), quads, colsum, first_row, out_band, n)
    {
        return;
    }
    band_i8q(a, quads, first_row, out_band, n);
}

/// Runs the single-row INT8 GEMV over the quad-packed layout: the
/// dedicated VNNI kernel when available/enabled, otherwise the scalar
/// quad kernel restricted to one row. Bit-identical either way.
#[inline]
pub(crate) fn run_gemv_i8q(
    a: &Mat<i8>,
    au: &[u8],
    quads: &[i8],
    colsum: &[i32],
    out: &mut [i32],
    n: usize,
) {
    debug_assert_eq!(a.rows(), 1);
    if crate::simd::gemv_i8q(au, a.cols(), quads, colsum, out, n) {
        return;
    }
    band_i8q(a, quads, 0, out, n);
}

macro_rules! band_kernel_nt {
    ($name:ident, $ta:ty, $to:ty, $zero:expr, $widen:path) => {
        /// Computes `out_band = a[first_row..][..rows] * b^T` by blocked
        /// dot products: `BJ` rows of `b` stay in cache while the band's
        /// `a` rows stream past. Each element uses one accumulator over
        /// ascending `k`, matching the naive reference bit for bit.
        fn $name(a: &Mat<$ta>, b: &Mat<$ta>, first_row: usize, out_band: &mut [$to], n: usize) {
            if n == 0 {
                return;
            }
            let rows = out_band.len() / n;
            let mut j0 = 0;
            while j0 < n {
                let jb = BJ.min(n - j0);
                for r in 0..rows {
                    let arow = a.row(first_row + r);
                    let orow = &mut out_band[r * n + j0..r * n + j0 + jb];
                    for (o, j) in orow.iter_mut().zip(j0..) {
                        let brow = b.row(j);
                        let mut acc = $zero;
                        for (&x, &y) in arow.iter().zip(brow) {
                            acc += $widen(x) * $widen(y);
                        }
                        *o = acc;
                    }
                }
                j0 += jb;
            }
        }
    };
}

band_kernel_nt!(band_nt_f32, f32, f32, 0.0f32, widen_f32);
band_kernel_nt!(band_nt_i8, i8, i32, 0i32, widen_i8);

/// Worker count for an `m x k x n` problem: serial below the cutoff,
/// otherwise [`par::threads`].
pub(crate) fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    if m * k * n <= SERIAL_CUTOFF_MACS {
        1
    } else {
        par::threads()
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `f32` GEMM: returns `a * b`.
///
/// Packs `b` on the calling thread and runs
/// [`crate::prepack::matmul_prepacked`] over the pack (see the
/// [module docs](self)); bit-identical to [`matmul_ref`] for any thread
/// count.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use tensor::{Mat, gemm};
/// # fn main() -> Result<(), tensor::ShapeError> {
/// let id = Mat::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
/// let a = Mat::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// assert_eq!(gemm::matmul(&a, &id)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul", a.shape(), b.shape()));
    }
    prepack::matmul_prepacked(a, &prepack::PackedF32::from_f32(b))
}

/// `f32` GEMM against the transpose of `b`: returns `a * b^T`.
///
/// Avoids materialising the transpose for the attention score computation
/// `Q_i K_i^T`; `b`'s rows already are the contiguous panels of `b^T`.
/// Parallelised over output row bands; bit-identical to
/// [`matmul_nt_ref`] for any thread count.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.cols()`.
pub fn matmul_nt(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_nt", a.shape(), b.shape()));
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Mat::zeros(m, n);
    let threads = auto_threads(m, a.cols(), n);
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        band_nt_f32(a, b, first_row, band, n);
    });
    Ok(out)
}

/// INT8 GEMM with `i32` accumulation: returns `a * b` exactly as an INT8
/// MAC array (the paper's systolic array) would compute it.
///
/// A single row streams `b` in place (packing would cost as much as the
/// multiply); more rows pack `b` on the calling thread and run
/// [`crate::prepack::matmul_i8_prepacked`] over the pack. Integer
/// arithmetic is exact, so the result equals [`matmul_i8_ref`] for any
/// blocking or thread count.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use tensor::{Mat, gemm};
/// # fn main() -> Result<(), tensor::ShapeError> {
/// let a = Mat::from_vec(1, 2, vec![100i8, -100])?;
/// let b = Mat::from_vec(2, 1, vec![100i8, 100])?;
/// assert_eq!(gemm::matmul_i8(&a, &b)?[(0, 0)], 0);
/// # Ok(())
/// # }
/// ```
pub fn matmul_i8(a: &Mat<i8>, b: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul_i8", a.shape(), b.shape()));
    }
    if a.rows() == 1 {
        // Repeatedly-multiplied weights go through `crate::prepack`,
        // which amortises the pack and keeps the VNNI GEMV.
        let mut out = Mat::<i32>::zeros(1, b.cols());
        gemv_i8_direct(a, b, out.as_mut_slice());
        return Ok(out);
    }
    prepack::matmul_i8_prepacked(a, &prepack::PackedI8::from_i8(b))
}

/// INT8 GEMM against the transpose of `b`: returns `a * b^T` with `i32`
/// accumulation.
///
/// Parallelised over output row bands with the widening dot-product
/// kernel; exact, so identical to [`matmul_i8_nt_ref`] for any thread
/// count.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.cols()`.
pub fn matmul_i8_nt(a: &Mat<i8>, b: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_i8_nt", a.shape(), b.shape()));
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Mat::zeros(m, n);
    let threads = auto_threads(m, a.cols(), n);
    if crate::simd::int8_simd_active() && m >= 8 {
        // Multi-row `a * b^T` (the chunked-prefill attention scores):
        // transpose-pack `b` into the quad layout once and run the far
        // faster register-tiled GEMM microkernel — the `O(n * k)` pack
        // amortises across the chunk's rows.
        let (quads, colsum) = pack_quads_t(b);
        let au = vnni_rows(a, threads);
        par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
            run_band_i8q(a, &au, quads.as_slice(), &colsum, first_row, band, n);
        });
        return Ok(out);
    }
    if crate::simd::int8_simd_active() {
        // The *_nt VNNI kernel reads `b`'s rows directly (no packing),
        // so it only needs the offset activations plus `b`'s row sums
        // for the unsigned-offset compensation.
        let au = offset_rows(a, threads);
        let rowsum: Vec<i32> = (0..n)
            .map(|j| b.row(j).iter().map(|&v| i32::from(v)).sum())
            .collect();
        par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
            if !crate::simd::band_nt_i8q(&au, a.cols(), b, &rowsum, first_row, band, n) {
                band_nt_i8(a, b, first_row, band, n);
            }
        });
        return Ok(out);
    }
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        band_nt_i8(a, b, first_row, band, n);
    });
    Ok(out)
}

// ---------------------------------------------------------------------------
// Naive reference kernels (oracles for the equivalence tests)
// ---------------------------------------------------------------------------

/// Naive triple-loop `f32` GEMM reference (`ikj` order, no blocking, no
/// threads, no zero skipping). The blocked/parallel [`matmul`] must match
/// this bit for bit.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.rows()`.
pub fn matmul_ref(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul_ref", a.shape(), b.shape()));
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Mat::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            let brow = b.row(p);
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
    Ok(out)
}

/// Naive `a * b^T` `f32` reference. See [`matmul_ref`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.cols()`.
pub fn matmul_nt_ref(a: &Mat<f32>, b: &Mat<f32>) -> Result<Mat<f32>, ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_nt_ref", a.shape(), b.shape()));
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Mat::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            out[(i, j)] = acc;
        }
    }
    Ok(out)
}

/// Naive triple-loop INT8 GEMM reference. See [`matmul_ref`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.rows()`.
pub fn matmul_i8_ref(a: &Mat<i8>, b: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new("matmul_i8_ref", a.shape(), b.shape()));
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Mat::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            let av = i32::from(av);
            let brow = b.row(p);
            for j in 0..n {
                orow[j] += av * i32::from(brow[j]);
            }
        }
    }
    Ok(out)
}

/// Naive `a * b^T` INT8 reference. See [`matmul_ref`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.cols()`.
pub fn matmul_i8_nt_ref(a: &Mat<i8>, b: &Mat<i8>) -> Result<Mat<i32>, ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new("matmul_i8_nt_ref", a.shape(), b.shape()));
    }
    let (m, n) = (a.rows(), b.rows());
    let mut out = Mat::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut acc = 0i32;
            for (x, y) in arow.iter().zip(brow) {
                acc += i32::from(*x) * i32::from(*y);
            }
            out[(i, j)] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_f32(a: &Mat<f32>, b: &Mat<f32>) -> Mat<f32> {
        Mat::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|p| a[(i, p)] * b[(p, j)]).sum()
        })
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Mat::from_fn(4, 7, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Mat::from_fn(7, 3, |r, c| (r * c) as f32 * 0.25 - 1.0);
        let got = matmul(&a, &b).unwrap();
        let want = naive_f32(&a, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn matmul_shape_error() {
        let a = Mat::<f32>::zeros(2, 3);
        let b = Mat::<f32>::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_ref(&a, &b).is_err());
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Mat::from_fn(3, 5, |r, c| (r + 2 * c) as f32);
        let b = Mat::from_fn(4, 5, |r, c| (2 * r + c) as f32 * 0.5);
        let got = matmul_nt(&a, &b).unwrap();
        let want = matmul(&a, &b.transposed()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_i8_exact() {
        let a = Mat::from_vec(2, 2, vec![1i8, -2, 3, 4]).unwrap();
        let b = Mat::from_vec(2, 2, vec![5i8, 6, 7, -8]).unwrap();
        let c = matmul_i8(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[5 - 14, 6 + 16, 15 + 28, 18 - 32]);
    }

    #[test]
    fn matmul_i8_nt_equals_explicit_transpose() {
        let a = Mat::from_fn(3, 4, |r, c| (r as i8) - (c as i8));
        let b = Mat::from_fn(2, 4, |r, c| (r as i8 * 3) + c as i8);
        let got = matmul_i8_nt(&a, &b).unwrap();
        let want = matmul_i8(&a, &b.transposed()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matmul_i8_worst_case_no_overflow() {
        // Deepest reduction in any Table-I config: k = d_ff = 4096.
        let a = Mat::filled(1, 4096, -128i8);
        let b = Mat::filled(4096, 1, -128i8);
        let c = matmul_i8(&a, &b).unwrap();
        assert_eq!(c[(0, 0)], 4096 * 128 * 128);
    }

    #[test]
    fn blocked_i8_gemm_is_bit_identical() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (7, 130, 65),
            (64, 512, 64),
            (3, 64, 200),
        ] {
            let a = crate::init::uniform_i8(&mut rng, m, k);
            let b = crate::init::uniform_i8(&mut rng, k, n);
            let want = matmul_i8_ref(&a, &b).unwrap();
            assert_eq!(matmul_i8(&a, &b).unwrap(), want, "({m},{k},{n})");
        }
    }

    #[test]
    fn blocked_i8_gemm_shape_error() {
        let a = Mat::<i8>::zeros(2, 3);
        let b = Mat::<i8>::zeros(2, 3);
        assert!(matmul_i8(&a, &b).is_err());
    }

    #[test]
    fn empty_matmul_is_ok() {
        let a = Mat::<f32>::zeros(0, 3);
        let b = Mat::<f32>::zeros(3, 2);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 2));
        let d = matmul(&Mat::<f32>::zeros(2, 0), &Mat::<f32>::zeros(0, 3)).unwrap();
        assert_eq!(d.shape(), (2, 3));
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_times_nan_propagates() {
        // The old kernel skipped `a` zeros, silently dropping 0.0 * NaN.
        let a = Mat::from_vec(1, 2, vec![0.0f32, 1.0]).unwrap();
        let b = Mat::from_vec(2, 1, vec![f32::NAN, 2.0]).unwrap();
        assert!(matmul(&a, &b).unwrap()[(0, 0)].is_nan());
        assert!(matmul_ref(&a, &b).unwrap()[(0, 0)].is_nan());
        assert!(matmul_nt(&a, &b.transposed()).unwrap()[(0, 0)].is_nan());
    }

    #[test]
    fn pack_dispatch_matches_scalar() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        // Shapes hitting every edge: ragged tiles, ragged quads, shapes
        // below every SIMD block size, and the real serving shapes.
        for &(k, n) in &[
            (1usize, 1usize),
            (3, 16),
            (7, 130),
            (64, 64),
            (65, 63),
            (513, 64),
            (64, 513),
            (100, 200),
        ] {
            let b = Mat::from_fn(k, n, |_, _| rng.random_range(-127i8..=127));
            let (q_fast, c_fast) = pack_quads(&b);
            let tiles = n.div_ceil(NR);
            let kq = k.div_ceil(KQ);
            let mut q_ref = vec![0i8; tiles * kq * NR * KQ];
            let mut c_ref = vec![0i32; tiles * NR];
            pack_quads_range(&b, &mut q_ref, &mut c_ref, 0, tiles);
            assert_eq!(q_fast.as_slice(), q_ref, "pack_quads quads ({k},{n})");
            assert_eq!(c_fast, c_ref, "pack_quads colsum ({k},{n})");

            // pack_quads_t parity on the transpose-given (n x k) shape.
            let src = Mat::from_fn(n, k, |_, _| rng.random_range(-127i8..=127));
            let (qt2, ct2) = pack_quads_t(&src);
            let t2 = n.div_ceil(NR);
            let kq2 = k.div_ceil(KQ);
            let mut qt_ref = vec![0i8; t2 * kq2 * NR * KQ];
            let mut ct_ref = vec![0i32; t2 * NR];
            pack_quads_t_scalar_range(&src, &mut qt_ref, &mut ct_ref, 0, t2);
            assert_eq!(qt2.as_slice(), qt_ref, "pack_quads_t quads ({n},{k})");
            assert_eq!(ct2, ct_ref, "pack_quads_t colsum ({n},{k})");
        }
    }

    #[test]
    fn f32_parallel_is_bit_identical_to_ref() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // Above the serial cutoff, so every worker count splits the rows.
        for &(m, k, n) in &[(13usize, 129usize, 67usize), (64, 512, 64)] {
            assert!(m * k * n > SERIAL_CUTOFF_MACS);
            let a = crate::init::uniform(&mut rng, m, k, -1.0, 1.0);
            let b = crate::init::uniform(&mut rng, k, n, -1.0, 1.0);
            let want = matmul_ref(&a, &b).unwrap();
            for t in [1usize, 2, 5] {
                let policy = crate::Policy {
                    threads: t,
                    ..crate::Policy::current()
                };
                let got = policy.run(|| matmul(&a, &b).unwrap());
                assert!(
                    got.as_slice()
                        .iter()
                        .zip(want.as_slice())
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "({m},{k},{n}) t={t}"
                );
            }
        }
    }
}
