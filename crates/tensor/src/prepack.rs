//! Prepacked weight matrices — the software analogue of the paper's
//! on-chip weight residency.
//!
//! The accelerator keeps each weight matrix resident next to the
//! systolic array and streams only activations through it. The software
//! GEMM in [`crate::gemm`] instead re-packs `B` on **every call**; for
//! the batch-1 decode hot path (`m = 1`, `k = d_model`) that packing is
//! `O(k * n)` work — the same order as the multiply-accumulate itself,
//! i.e. roughly half of every decode GEMM was spent re-deriving a
//! layout that never changes.
//!
//! [`PackedF32`] captures the `f32` `pack_tiles` layout once and
//! [`PackedI8`] the INT8 quad layout ([`crate::gemm::pack_quads`]:
//! `[tile][kq][lane][KQ]` `i8` quads plus the per-lane column sums the
//! VNNI microkernel's unsigned-offset compensation needs). Storing the
//! INT8 pack as `i8` rather than widened `i32` also matters for decode
//! throughput on its own: the GEMV is memory-bound on the weight
//! stream, and the quad layout moves 1x the weight bytes per token
//! instead of 4x.
//!
//! The [`matmul_prepacked`] / [`matmul_i8_prepacked`] entry points (and
//! [`matmul_prepacked_tile`], one row against one column tile) run
//! the identical band kernels (including the VNNI microkernels from
//! [`crate::simd`] and the dedicated `m == 1` GEMV) straight from the
//! cached tiles. Results are **bit-identical** to
//! [`crate::gemm::matmul`] / [`crate::gemm::matmul_i8`] and the naive
//! references for any shape and thread count, because the packed layout
//! and the per-element accumulation order are exactly the same — only
//! the packing work moves from per-call to per-weight-lifetime.
//!
//! `quantized::QLinear` packs eagerly at construction (its weights are
//! immutable); `transformer::Linear` caches lazily and invalidates when
//! the optimiser mutates the weights.

use crate::gemm;
use crate::{par, Mat, ShapeError};
use serde::{Deserialize, Serialize};

/// A `k x n` matrix frozen in the register-microkernel's packed-tile
/// layout (`[tile][p][lane]`, `NR` lanes per tile, last tile
/// zero-padded). Build once per weight matrix via
/// [`PackedMat::from_f32`]; multiply via [`matmul_prepacked`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedMat<T> {
    /// Tiles in `[tile][p][lane]` order, `tiles * k * NR` elements.
    packed: Vec<T>,
    /// Reduction depth (rows of the original `B`).
    k: usize,
    /// Output width (columns of the original `B`).
    n: usize,
}

/// Prepacked `f32` weight matrix.
pub type PackedF32 = PackedMat<f32>;

impl<T> PackedMat<T> {
    /// Reduction depth — the `a.cols()` this packed matrix multiplies
    /// against.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width — columns of the product.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Below this many weight elements the one-time pack runs serially —
/// splitting a small pack across the pool costs more in dispatch than
/// the byte moves it saves.
const PARALLEL_PACK_CUTOFF: usize = 1 << 15;

impl PackedMat<f32> {
    /// Packs an `f32` weight matrix once, in the exact layout
    /// [`crate::gemm::matmul`] builds per call.
    ///
    /// Large matrices pack in parallel across the persistent pool
    /// ([`Self::from_f32_with_threads`]): each worker writes — and
    /// therefore **first-touches** — a contiguous range of column
    /// tiles, so the packed pages are faulted in by (and stay local to)
    /// the workers that stream them in the band loop, instead of all
    /// landing on the packing thread's node. The packed bytes are
    /// identical either way.
    pub fn from_f32(b: &Mat<f32>) -> Self {
        Self::from_f32_with_threads(b, par::threads())
    }

    /// [`Self::from_f32`] with an explicit worker count.
    pub fn from_f32_with_threads(b: &Mat<f32>, threads: usize) -> Self {
        let (k, n) = b.shape();
        let tiles = n.div_ceil(gemm::NR);
        let t = threads.min(tiles).max(1);
        if t <= 1 || k * n < PARALLEL_PACK_CUTOFF {
            return Self {
                packed: gemm::pack_tiles(b, gemm::widen_f32),
                k,
                n,
            };
        }
        let stride = k * gemm::NR;
        let mut packed = vec![0f32; tiles * stride];
        par::row_bands(&mut packed, tiles, stride, t, |t0, chunk| {
            gemm::pack_tiles_f32_range(b, chunk, t0, t0 + chunk.len() / stride);
        });
        Self { packed, k, n }
    }
}

/// An INT8 `k x n` weight matrix frozen in the quad-packed layout the
/// INT8 kernels consume (`[tile][kq][lane][KQ]` `i8` quads, see
/// [`crate::gemm::pack_quads`]), together with the per-`(tile, lane)`
/// column sums used by the VNNI unsigned-offset compensation. Build
/// once per weight matrix via [`PackedI8::from_i8`]; multiply via
/// [`matmul_i8_prepacked`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedI8 {
    /// Quad tiles in `[tile][kq][lane][KQ]` order, on a cache-line
    /// boundary so every `kq` row is one line.
    quads: gemm::AlignedI8,
    /// `tiles * NR` column sums (zero for padded lanes).
    colsum: Vec<i32>,
    /// Reduction depth (rows of the original `B`).
    k: usize,
    /// Output width (columns of the original `B`).
    n: usize,
}

impl PackedI8 {
    /// Packs an INT8 weight matrix once into the quad layout
    /// [`crate::gemm::matmul_i8`] builds per call.
    ///
    /// Large matrices pack in parallel across the persistent pool with
    /// per-worker first-touch of the tile ranges (see
    /// [`PackedMat::from_f32`]); the packed bytes are identical either
    /// way.
    pub fn from_i8(b: &Mat<i8>) -> Self {
        Self::from_i8_with_threads(b, par::threads())
    }

    /// [`Self::from_i8`] with an explicit worker count.
    pub fn from_i8_with_threads(b: &Mat<i8>, threads: usize) -> Self {
        let (k, n) = b.shape();
        let tiles = n.div_ceil(gemm::NR);
        let t = threads.min(tiles).max(1);
        if t <= 1 || k * n < PARALLEL_PACK_CUTOFF {
            let (quads, colsum) = gemm::pack_quads(b);
            return Self {
                quads,
                colsum,
                k,
                n,
            };
        }
        let qstride = k.div_ceil(gemm::KQ) * gemm::NR * gemm::KQ;
        let mut quads = gemm::AlignedI8::zeroed(tiles * qstride);
        let mut colsum = vec![0i32; tiles * gemm::NR];
        let tile_chunk = tiles.div_ceil(t);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = quads
            .as_mut_slice()
            .chunks_mut(tile_chunk * qstride)
            .zip(colsum.chunks_mut(tile_chunk * gemm::NR))
            .enumerate()
            .map(|(idx, (qc, cc))| {
                let t0 = idx * tile_chunk;
                Box::new(move || {
                    gemm::pack_quads_range(b, qc, cc, t0, t0 + cc.len() / gemm::NR);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        par::scope_run(tasks);
        Self {
            quads,
            colsum,
            k,
            n,
        }
    }

    /// Reduction depth — the `a.cols()` this packed matrix multiplies
    /// against.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width — columns of the product.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Columns `[c0, c0 + width)` of a [`PackedI8`], borrowed — what one
/// accelerator panel command multiplies against. The quad layout is
/// tile-major, so the column tiles covering the range are one contiguous
/// slice of the pack: a panel GEMM streams the resident weights in place
/// instead of copying a `k x width` sub-matrix out and re-packing it.
/// The fused entry points ([`matmul_i8_prepacked_fused`] /
/// [`matmul_i8_prepacked_epilogue`]) take this view; a whole
/// `&PackedI8` converts into the full-width one.
///
/// A range that starts or ends inside a tile still works: the covering
/// tiles are multiplied whole and the epilogue sees only the requested
/// columns (lanes are independent, so the extra ones cannot perturb
/// them). Tile-aligned ranges — the paper's 64-column panels — compute
/// nothing extra.
#[derive(Debug, Clone, Copy)]
pub struct PackedI8Cols<'a> {
    /// Quads of the covering tiles.
    quads: &'a [i8],
    /// Column sums of the covering tiles.
    colsum: &'a [i32],
    /// Reduction depth.
    k: usize,
    /// Columns the covering tiles hold (a ragged last tile is clipped).
    cover: usize,
    /// Columns of the first covering tile that precede `c0`.
    skip: usize,
    /// Columns requested.
    width: usize,
}

impl<'a> PackedI8Cols<'a> {
    /// Borrows columns `[c0, c0 + width)` of `b`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `b.n()`.
    pub fn new(b: &'a PackedI8, c0: usize, width: usize) -> Self {
        assert!(
            c0 + width <= b.n,
            "columns {c0}..{} exceed the packed width {}",
            c0 + width,
            b.n
        );
        let (t0, t1) = (c0 / gemm::NR, (c0 + width).div_ceil(gemm::NR));
        let tile_len = b.k.div_ceil(gemm::KQ) * gemm::NR * gemm::KQ;
        Self {
            quads: &b.quads.as_slice()[t0 * tile_len..t1 * tile_len],
            colsum: &b.colsum[t0 * gemm::NR..t1 * gemm::NR],
            k: b.k,
            cover: (t1 * gemm::NR).min(b.n) - t0 * gemm::NR,
            skip: c0 - t0 * gemm::NR,
            width,
        }
    }
}

impl<'a> From<&'a PackedI8> for PackedI8Cols<'a> {
    fn from(b: &'a PackedI8) -> Self {
        Self::new(b, 0, b.n)
    }
}

/// `f32` GEMM against a prepacked `B`: returns `a * B`, bit-identical to
/// [`crate::gemm::matmul`] on the original matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_prepacked(a: &Mat<f32>, b: &PackedMat<f32>) -> Result<Mat<f32>, ShapeError> {
    matmul_prepacked_with_threads(a, b, gemm::auto_threads(a.rows(), a.cols(), b.n))
}

/// [`matmul_prepacked`] with an explicit worker count (no cutoff, no
/// environment lookup).
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_prepacked_with_threads(
    a: &Mat<f32>,
    b: &PackedMat<f32>,
    threads: usize,
) -> Result<Mat<f32>, ShapeError> {
    if a.cols() != b.k {
        return Err(ShapeError::new("matmul_prepacked", a.shape(), (b.k, b.n)));
    }
    let (m, n) = (a.rows(), b.n);
    let mut out = Mat::zeros(m, n);
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        gemm::run_band_f32(a, &b.packed, first_row, band, n);
    });
    Ok(out)
}

/// Columns one packed column tile holds (the microkernel's lane count).
pub const TILE_COLS: usize = gemm::NR;

/// One row of `a` against one column tile of a prepacked `B`: the
/// [`TILE_COLS`] products `a.row(row) * B[:, tile * TILE_COLS ..]`,
/// bit-identical to those elements of [`matmul_prepacked`] — it runs
/// the same band kernel on a one-row, one-tile band. Lanes past `b.n()`
/// in a ragged last tile multiply the pack's zero padding.
///
/// This is the exact-recompute primitive for callers that need a few
/// columns of a wide product (a verified arg-max), not the whole row.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
///
/// # Panics
///
/// Panics if `row >= a.rows()` or the tile lies past `b.n()`.
pub fn matmul_prepacked_tile(
    a: &Mat<f32>,
    row: usize,
    b: &PackedMat<f32>,
    tile: usize,
) -> Result<[f32; TILE_COLS], ShapeError> {
    if a.cols() != b.k {
        return Err(ShapeError::new("matmul_prepacked", a.shape(), (b.k, b.n)));
    }
    assert!(row < a.rows(), "row {row} of {}", a.rows());
    let stride = b.k * gemm::NR;
    let mut out = [0f32; TILE_COLS];
    gemm::run_band_f32(
        a,
        &b.packed[tile * stride..(tile + 1) * stride],
        row,
        &mut out,
        TILE_COLS,
    );
    Ok(out)
}

/// INT8 GEMM against a prepacked `B`: returns `a * B` with `i32`
/// accumulation, bit-identical to [`crate::gemm::matmul_i8`] on the
/// original matrix. Single-row inputs (`m == 1`, the batch-1 decode
/// shape) take the dedicated GEMV kernel.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_i8_prepacked(a: &Mat<i8>, b: &PackedI8) -> Result<Mat<i32>, ShapeError> {
    matmul_i8_prepacked_with_threads(a, b, gemm::auto_threads(a.rows(), a.cols(), b.n))
}

/// [`matmul_i8_prepacked`] with an explicit worker count (no cutoff, no
/// environment lookup).
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_i8_prepacked_with_threads(
    a: &Mat<i8>,
    b: &PackedI8,
    threads: usize,
) -> Result<Mat<i32>, ShapeError> {
    if a.cols() != b.k {
        return Err(ShapeError::new(
            "matmul_i8_prepacked",
            a.shape(),
            (b.k, b.n),
        ));
    }
    let (m, n) = (a.rows(), b.n);
    let mut out = Mat::<i32>::zeros(m, n);
    let au = gemm::vnni_rows(a, threads);
    if m == 1 {
        gemm::run_gemv_i8q(a, &au, b.quads.as_slice(), &b.colsum, out.as_mut_slice(), n);
        return Ok(out);
    }
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        gemm::run_band_i8q(a, &au, b.quads.as_slice(), &b.colsum, first_row, band, n);
    });
    Ok(out)
}

/// [`matmul_prepacked_epilogue`] with the same automatic worker count
/// as [`matmul_prepacked`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_prepacked_fused<F>(
    a: &Mat<f32>,
    b: &PackedMat<f32>,
    epi: F,
) -> Result<Mat<f32>, ShapeError>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    matmul_prepacked_epilogue(a, b, gemm::auto_threads(a.rows(), a.cols(), b.n), epi)
}

/// [`matmul_i8_prepacked_epilogue`] with the same automatic worker
/// count as [`matmul_i8_prepacked`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_i8_prepacked_fused<'b, O, F>(
    a: &Mat<i8>,
    b: impl Into<PackedI8Cols<'b>>,
    epi: F,
) -> Result<Mat<O>, ShapeError>
where
    O: Copy + Default + Send,
    F: Fn(usize, &[i32], &mut [O]) + Sync,
{
    let b = b.into();
    matmul_i8_prepacked_epilogue(a, b, gemm::auto_threads(a.rows(), a.cols(), b.width), epi)
}

/// `f32` GEMM against a prepacked `B` with a **fused epilogue**: after a
/// band's rows are computed, `epi(global_row, row)` rewrites each row in
/// place while it is still cache-hot — bias add, ReLU, residual add —
/// instead of a second full pass over a materialized intermediate.
///
/// The accumulator values handed to `epi` are bit-identical to
/// [`matmul_prepacked_with_threads`] output, and `epi` runs over rows in
/// ascending order within each band, so any per-element epilogue that
/// matches the unfused op sequence element-for-element yields
/// bit-identical results to the unfused pipeline.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_prepacked_epilogue<F>(
    a: &Mat<f32>,
    b: &PackedMat<f32>,
    threads: usize,
    epi: F,
) -> Result<Mat<f32>, ShapeError>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if a.cols() != b.k {
        return Err(ShapeError::new("matmul_prepacked", a.shape(), (b.k, b.n)));
    }
    let (m, n) = (a.rows(), b.n);
    let mut out = Mat::zeros(m, n);
    if n == 0 {
        return Ok(out);
    }
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        gemm::run_band_f32(a, &b.packed, first_row, band, n);
        for (r, row) in band.chunks_mut(n).enumerate() {
            epi(first_row + r, row);
        }
    });
    Ok(out)
}

/// Byte budget of a worker's accumulator scratch in
/// [`matmul_i8_prepacked_epilogue`]: a row block's `i32` accumulators
/// must still be in L2 when the epilogue drains them, beside the weight
/// tiles streaming through.
const ACC_SCRATCH_BYTES: usize = 256 << 10;

/// Fewest rows of a drain block — one `2 x 2` tile block of the AMX
/// kernel, eight `MR`-row passes of the VNNI one. Wider outputs than
/// `ACC_SCRATCH_BYTES / (4 * DRAIN_MIN_ROWS)` columns (2048) exceed the
/// budget rather than split a register block.
const DRAIN_MIN_ROWS: usize = 32;

thread_local! {
    /// This thread's accumulator scratch, kept between GEMMs so the
    /// serving loop's per-call `rows x cover` allocation (and the page
    /// faults of zeroing it) happens once per thread instead.
    static ACC_SCRATCH: std::cell::Cell<Vec<i32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `body` on `len` elements of this thread's accumulator scratch.
/// The contents are whatever the last GEMM left: every band kernel
/// writes each element of its output before anyone reads it. The buffer
/// is taken out of the slot while `body` runs, so an epilogue that
/// itself multiplies finds an empty slot and allocates its own.
fn with_acc_scratch<R>(len: usize, body: impl FnOnce(&mut [i32]) -> R) -> R {
    // Start on a cache line (see `gemm::AlignedI8`): tile stores of
    // line-straddling accumulator rows take twice as long.
    const PAD: usize = gemm::LINE / 4;
    let mut buf = ACC_SCRATCH.take();
    if buf.len() < len + PAD {
        buf.resize(len + PAD, 0);
    }
    let off = buf.as_ptr().align_offset(gemm::LINE).min(PAD);
    let result = body(&mut buf[off..off + len]);
    ACC_SCRATCH.set(buf);
    result
}

/// INT8 GEMM against a prepacked `B` with a **fused epilogue** draining
/// the `i32` accumulators directly into the output element type: each
/// band accumulates one row block at a time (at least
/// [`DRAIN_MIN_ROWS`] rows, as many as fit `ACC_SCRATCH_BYTES`) into the
/// worker thread's reusable `i32` scratch, and
/// `epi(global_row, acc_row, out_row)` drains the block's rows — bias
/// add, requantize, ReLU, residual add — right after its last tile is
/// stored, while the accumulators are still in cache. The full-tensor
/// `i32` intermediate of the unfused path is never materialized, and
/// nothing is allocated per call but the output.
///
/// The accumulator rows handed to `epi` are bit-identical to
/// [`matmul_i8_prepacked_with_threads`] output (integer accumulation,
/// same kernels), so any per-element epilogue matching the unfused op
/// sequence yields bit-identical results to the unfused pipeline.
///
/// `b` is a whole `&PackedI8` or a [`PackedI8Cols`] column range of
/// one; for a range the product (and every row handed to `epi`) has the
/// range's width, equal to multiplying the copied-out sub-matrix.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.k()`.
pub fn matmul_i8_prepacked_epilogue<'b, O, F>(
    a: &Mat<i8>,
    b: impl Into<PackedI8Cols<'b>>,
    threads: usize,
    epi: F,
) -> Result<Mat<O>, ShapeError>
where
    O: Copy + Default + Send,
    F: Fn(usize, &[i32], &mut [O]) + Sync,
{
    let b = b.into();
    if a.cols() != b.k {
        return Err(ShapeError::new(
            "matmul_i8_prepacked",
            a.shape(),
            (b.k, b.width),
        ));
    }
    // The kernels run over the covering tiles (`cover` columns); the
    // epilogue drains the requested `n` of them.
    let (m, n, cover) = (a.rows(), b.width, b.cover);
    let wanted = b.skip..b.skip + n;
    let mut out = Mat::<O>::zeros(m, n);
    if n == 0 {
        return Ok(out);
    }
    let au = gemm::vnni_rows(a, threads);
    if m == 1 {
        with_acc_scratch(cover, |acc| {
            gemm::run_gemv_i8q(a, &au, b.quads, b.colsum, acc, cover);
            epi(0, &acc[wanted], out.as_mut_slice());
        });
        return Ok(out);
    }
    let block = (ACC_SCRATCH_BYTES / (4 * cover) / DRAIN_MIN_ROWS).max(1) * DRAIN_MIN_ROWS;
    par::row_bands(out.as_mut_slice(), m, n, threads, |first_row, band| {
        let rows = band.len() / n;
        with_acc_scratch(block.min(rows) * cover, |scratch| {
            for (i, out_block) in band.chunks_mut(block * n).enumerate() {
                let row0 = first_row + i * block;
                let acc = &mut scratch[..out_block.len() / n * cover];
                gemm::run_band_i8q(a, &au, b.quads, b.colsum, row0, acc, cover);
                for (r, (acc_row, out_row)) in
                    acc.chunks(cover).zip(out_block.chunks_mut(n)).enumerate()
                {
                    epi(row0 + r, &acc_row[wanted.clone()], out_row);
                }
            }
        });
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepacked_matches_unpacked_f32() {
        let a = Mat::from_fn(5, 33, |r, c| (r as f32 - c as f32) * 0.37);
        let b = Mat::from_fn(33, 20, |r, c| (r * c) as f32 * 0.11 - 1.5);
        let packed = PackedMat::from_f32(&b);
        assert_eq!(packed.k(), 33);
        assert_eq!(packed.n(), 20);
        let got = matmul_prepacked(&a, &packed).unwrap();
        let want = gemm::matmul(&a, &b).unwrap();
        assert!(got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    #[test]
    fn prepacked_matches_unpacked_i8_incl_gemv() {
        for m in [1usize, 2, 7] {
            let a = Mat::from_fn(m, 40, |r, c| ((r * 31 + c * 7) % 255) as i8);
            let b = Mat::from_fn(40, 23, |r, c| ((r * 13 + c * 5) % 251) as i8);
            let packed = PackedI8::from_i8(&b);
            assert_eq!(packed.k(), 40);
            assert_eq!(packed.n(), 23);
            let got = matmul_i8_prepacked(&a, &packed).unwrap();
            assert_eq!(got, gemm::matmul_i8(&a, &b).unwrap(), "m={m}");
        }
    }

    #[test]
    fn single_tile_matches_the_full_product() {
        let a = Mat::from_fn(5, 33, |r, c| (r as f32 - c as f32) * 0.37);
        let b = Mat::from_fn(33, 40, |r, c| (r * c) as f32 * 0.11 - 1.5);
        let packed = PackedMat::from_f32(&b);
        let full = matmul_prepacked(&a, &packed).unwrap();
        for row in 0..5 {
            for tile in 0..3 {
                let got = matmul_prepacked_tile(&a, row, &packed, tile).unwrap();
                for (lane, g) in got.iter().enumerate() {
                    let col = tile * TILE_COLS + lane;
                    let want = if col < 40 { full[(row, col)] } else { 0.0 };
                    assert_eq!(g.to_bits(), want.to_bits(), "row {row} col {col}");
                }
            }
        }
        assert!(matmul_prepacked_tile(&Mat::zeros(1, 3), 0, &packed, 0).is_err());
    }

    #[test]
    fn prepacked_shape_errors() {
        let packed = PackedI8::from_i8(&Mat::<i8>::zeros(4, 4));
        assert!(matmul_i8_prepacked(&Mat::<i8>::zeros(2, 3), &packed).is_err());
        let packed_f = PackedMat::from_f32(&Mat::<f32>::zeros(4, 4));
        assert!(matmul_prepacked(&Mat::<f32>::zeros(2, 3), &packed_f).is_err());
    }

    #[test]
    fn parallel_pack_bytes_match_serial() {
        // Both packers must produce identical packed bytes regardless of
        // worker count (the parallel path is the first-touch pack).
        let bf = Mat::from_fn(96, 384, |r, c| (r as f32 * 0.3 - c as f32 * 0.1).sin());
        let bi = Mat::from_fn(96, 384, |r, c| ((r * 17 + c * 3) % 253) as i8);
        let serial_f = PackedMat::from_f32_with_threads(&bf, 1);
        let serial_i = PackedI8::from_i8_with_threads(&bi, 1);
        for t in [2, 3, 8] {
            assert_eq!(PackedMat::from_f32_with_threads(&bf, t), serial_f, "t={t}");
            assert_eq!(PackedI8::from_i8_with_threads(&bi, t), serial_i, "t={t}");
        }
    }

    #[test]
    fn f32_epilogue_matches_separate_pass() {
        let a = Mat::from_fn(6, 40, |r, c| (r as f32 - c as f32) * 0.21);
        let b = Mat::from_fn(40, 33, |r, c| (r * c) as f32 * 0.07 - 0.9);
        let bias: Vec<f32> = (0..33).map(|c| c as f32 * 0.05 - 0.4).collect();
        let packed = PackedMat::from_f32(&b);
        for t in [1usize, 2, 4] {
            let fused = matmul_prepacked_epilogue(&a, &packed, t, |_r, row| {
                for (v, &bc) in row.iter_mut().zip(&bias) {
                    *v = (*v + bc).max(0.0);
                }
            })
            .unwrap();
            let mut want = matmul_prepacked_with_threads(&a, &packed, t).unwrap();
            for r in 0..want.rows() {
                for c in 0..want.cols() {
                    want[(r, c)] = (want[(r, c)] + bias[c]).max(0.0);
                }
            }
            assert_eq!(
                fused
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "t={t}"
            );
        }
    }

    #[test]
    fn i8_epilogue_matches_separate_pass_incl_gemv() {
        for m in [1usize, 2, 9] {
            let a = Mat::from_fn(m, 36, |r, c| ((r * 29 + c * 11) % 255) as i8);
            let b = Mat::from_fn(36, 21, |r, c| ((r * 7 + c * 13) % 251) as i8);
            let packed = PackedI8::from_i8(&b);
            // Epilogue: add a row-dependent bias, halve with truncation,
            // saturate into i8 — stand-in for bias + requantize + ReLU.
            let fused: Mat<i8> = matmul_i8_prepacked_epilogue(&a, &packed, 3, |r, acc, out| {
                for (o, &v) in out.iter_mut().zip(acc) {
                    *o = ((v + r as i32) / 2).clamp(-127, 127) as i8;
                }
            })
            .unwrap();
            let raw = matmul_i8_prepacked_with_threads(&a, &packed, 3).unwrap();
            let want = Mat::from_fn(m, 21, |r, c| {
                ((raw[(r, c)] + r as i32) / 2).clamp(-127, 127) as i8
            });
            assert_eq!(fused, want, "m={m}");
        }
    }

    #[test]
    fn column_range_matches_the_copied_out_submatrix() {
        // Tile-aligned panels, ranges that start/end inside a tile, the
        // ragged last tile, an empty range, and the m == 1 GEMV.
        let b = Mat::from_fn(37, 150, |r, c| ((r * 13 + c * 5) % 251) as i8);
        let packed = PackedI8::from_i8(&b);
        let ranges = [
            (0, 64),
            (64, 64),
            (128, 22),
            (8, 8),
            (24, 40),
            (145, 5),
            (0, 150),
            (16, 0),
        ];
        for m in [1usize, 2, 9] {
            let a = Mat::from_fn(m, 37, |r, c| ((r * 31 + c * 7) % 255) as i8);
            for (c0, width) in ranges {
                let got: Mat<i32> = matmul_i8_prepacked_epilogue(
                    &a,
                    PackedI8Cols::new(&packed, c0, width),
                    3,
                    |_r, acc, out| out.copy_from_slice(acc),
                )
                .unwrap();
                let sub = b.submatrix(0, c0, 37, width).unwrap();
                let want = gemm::matmul_i8(&a, &sub).unwrap();
                assert_eq!(got, want, "m={m} cols {c0}..{}", c0 + width);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the packed width")]
    fn column_range_past_the_end_is_rejected() {
        let packed = PackedI8::from_i8(&Mat::<i8>::zeros(4, 20));
        let _ = PackedI8Cols::new(&packed, 16, 5);
    }

    #[test]
    fn packed_mat_serde_round_trips() {
        let b = Mat::from_fn(6, 9, |r, c| (r as i8) - 2 * (c as i8));
        let packed = PackedI8::from_i8(&b);
        let json = serde_json::to_string(&packed).unwrap();
        let back: PackedI8 = serde_json::from_str(&json).unwrap();
        assert_eq!(back, packed);
    }
}
