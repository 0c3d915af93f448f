//! Certified greedy head: `argmax` of a linear layer's output rows
//! without forming the logits.
//!
//! Greedy decoding keeps one number per row of the output projection —
//! `ops::argmax(forward_inference(x).row(r))` — and throws the other
//! `n - 1` logits away. [`Linear::argmax_rows`](crate::linear::Linear::argmax_rows)
//! returns exactly that index (ties to the last, as `ops::argmax`) from
//! an INT8 **screen** that brackets every logit, followed by an exact
//! recomputation of the few columns the brackets cannot rule out. The
//! screen streams 1 byte per weight instead of 4 and runs on the INT8
//! GEMM tiers (scalar / VNNI / AMX — bit-identical, so the result does
//! not depend on the host).
//!
//! # What is computed
//!
//! Fix one activation row `x` (`k` floats), weights `W` (`k x n`), bias
//! `b`. The **reference logit** of column `j` is the `f32` value the
//! projection computes: products `fl(x_p * w_pj)` summed in ascending
//! `p` from `+0.0`, then `+ b_j`, every operation rounded to `f32`. Call
//! it `l_j`; `L_j = sum_p x_p w_pj + b_j` is the same expression over the
//! reals. Below, `u = 2^-24`, `gamma_m = m u / (1 - m u)`, `v = 2^-53`.
//!
//! *Screen, built once per weight matrix.* Column `j` gets a scale
//! `s_j > 0` and codes `q_pj` in `[-127, 127]`; write `w^_pj = s_j q_pj`.
//! Nothing is assumed about how well the codes fit: the build **measures**
//! `d_j >= max_p |w_pj - w^_pj|`, `h_j >= sum_p |w^_pj|` and
//! `omega_j = max_p |w_pj|`.
//!
//! *Row code, per call.* `x` is coded twice against one step `tau > 0`:
//! `c_p` at step `254 tau` and a residual `c'_p` at step `tau`, both in
//! `[-127, 127]`; write `x^_p = tau (254 c_p + c'_p)`. Again nothing is
//! assumed about the rounding: the coder measures
//! `e >= max_p |x_p - x^_p|` and `X >= sum_p |x_p|`. (One code would
//! leave `e ~ max|x| / 254`; the residual makes it `~ max|x| / 64516`
//! for one more GEMM row over the same weight stream.)
//!
//! *One INT8 GEMM* of the stacked code rows against the packed `q` gives
//! the integers `A_j = sum_p c_p q_pj` and `A'_j = sum_p c'_p q_pj`
//! exactly, hence `M_j = 254 A_j + A'_j` (below `2^53` in magnitude, so
//! exact in `f64`) and
//!
//! ```text
//! a_j = tau s_j M_j + b_j = sum_p x^_p w^_pj + b_j      (over the reals).
//! ```
//!
//! # The certificate `|a_j - l_j| <= E_j`
//!
//! ```text
//! E_j = d_j X + e h_j + gamma_{k+2} (X omega_j + |b_j|) + (k + 1) 2^-149
//! ```
//!
//! 1. **Coding error, `|a_j - L_j| <= d_j X + e h_j`.** Split
//!    `x_p w_pj - x^_p w^_pj = x_p (w_pj - w^_pj) + (x_p - x^_p) w^_pj`
//!    and sum absolute values: the first part is at most `d_j sum |x_p|`,
//!    the second at most `e sum |w^_pj|`.
//! 2. **The reference's own rounding,
//!    `|l_j - L_j| <= gamma_{k+1} (X omega_j + |b_j|) + k 2^-149`.** Model
//!    each `f32` operation as `fl(y) = y (1 + delta) + eta`, `|delta| <= u`,
//!    with `eta = 0` for additions (a sum that lands among the subnormals
//!    is exact) and `|eta| <= 2^-150` for a product that underflows. The
//!    first add `0 + z_1` is exact, so product `p` passes through its own
//!    rounding and at most `k` additions (`k - 1` partial sums and the
//!    bias), so `l_j` is the sum of `x_p w_pj (1 + theta_p)` and
//!    `eta_p (1 + theta'_p)` over `p`, plus `b_j (1 + delta)`, with
//!    `|theta_p| <= gamma_{k+1}`. Bound `sum |x_p w_pj|` by `X omega_j`
//!    and the underflow terms by `k 2^-150 (1 + gamma_k) <= k 2^-149`.
//!    This needs no overflow; see the guards.
//! 3. **Measured quantities and `f64` evaluation.** `d_j`, `h_j`, `e`,
//!    `X`, `a_j`, `E_j` and the interval ends `a_j -+ E_j` are evaluated
//!    in `f64`, each through at most `k + 16` roundings of relative size
//!    `v`. Measuring a maximum of `|y - fl(z)|` can miss at most
//!    `v |z|`, which is why the build adds `2^-50 omega_j` to `d_j` and
//!    the coder `2^-50 max|x|` to `e`. Every term of `E_j` is a product
//!    with a per-column table, and the tables are stored inflated by
//!    `1 + 2^-20 >= (1 + (k + 16) v)(1 + 2^-21)` (`k < 2^20` is a guard),
//!    so the evaluated `E_j` is at least `(1 + 2^-21)` times the
//!    expression above with the true maxima. Steps 1 and 2 used
//!    `gamma_{k+1}` and `k 2^-149`; `E_j` carries `gamma_{k+2}` and
//!    `(k + 1) 2^-149`, which leaves `u S_j` spare, `S_j = X omega_j +
//!    |b_j|`. The roundings of `a_j` (three) and of `a_j -+ E_j` (one
//!    each) move an interval end by at most `4 v (|a_j| + |b_j| + E_j)
//!    <= 2^-49 (S_j + E_j)` (use `|a_j| <= |l_j| + E_j` and
//!    `|l_j| <= 2 S_j + E_j`), less than the spare `u S_j + 2^-21 E_j`.
//!    No `f64` operation here underflows: every operand is zero or at
//!    least `2^-200` in magnitude.
//!
//! So the evaluated ends satisfy `lo_j <= l_j <= hi_j` for every column.
//!
//! # From intervals to the exact arg-max
//!
//! Let `T = max_j lo_j` and `l* = max_j l_j`. Then `T <= l*`, and every
//! maximiser `j*` — **all** of them when several columns tie — has
//! `hi_{j*} >= l_{j*} = l* >= T`. The candidate set `{j : hi_j >= T}`
//! therefore contains every maximiser, and every other candidate has
//! `l_j < l*`. The head recomputes the candidates' reference logits with
//! the projection's own kernel ([`tensor::prepack::matmul_prepacked_tile`]
//! — whole column tiles, `+ b_j` last as the projection's drain does;
//! extra columns of a tile are exact logits too and cannot win unless
//! they are maximisers) and keeps the last maximal one in ascending
//! column order, comparing as `ops::argmax` does (`-0.0 == +0.0`). That
//! is the index `ops::argmax` returns on the full row. There is no
//! second implementation of the `f32` dot product and no tolerance
//! chosen by experiment: a loose `E_j` only costs more candidates.
//!
//! # Guards
//!
//! A row is screened only if `0 < max_p |x_p| < 2^100` with no NaN, and
//! a screen is usable only if every weight and bias is finite,
//! `k < 2^20`, `n > 0` and `k 2^100 max|w| + max|b| < 2^126`. Together
//! they keep every partial sum of the reference below
//! `(X omega_j + |b_j|)(1 + gamma_{k+1}) < 2^127`, so step 2's "no
//! overflow" holds and every `l_j` is finite. Any other row — an
//! all-zero row (every column ties at `b_j`), `inf`, NaN, huge values —
//! and any row with more than 128 (`MAX_VERIFY_TILES`) candidate tiles takes
//! the full projection and `ops::argmax` for that row alone, so the
//! worst case costs what the projection costs and a NaN logit panics
//! with `ops::argmax`'s message, as before.

use std::cmp::Ordering;

use tensor::prepack::{self, PackedF32, PackedI8, TILE_COLS};
use tensor::{par, Mat};

/// `f32` unit roundoff.
const U: f64 = 1.0 / (1u64 << 24) as f64;

/// Inflation of every per-column table (step 3 of the module proof).
const INFLATE: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;

/// Relative allowance for the roundings inside a measured `f64` maximum
/// (step 3 of the module proof).
const MEASURE_SLACK: f64 = 1.0 / (1u64 << 50) as f64;

/// Activations at or above this magnitude are not screened.
const ACT_LIMIT: f32 = (1u128 << 100) as f32;

/// Residual steps per coarse step of the row code.
const FINE: f64 = 254.0;

/// Most candidate tiles a row verifies before the full projection is the
/// cheaper way to the same answer: a tile's `k`-long dependent add chain
/// costs about what streaming four tiles does, so 128 tiles are a
/// quarter-vocabulary's worth of the `n = 8192` projection.
const MAX_VERIFY_TILES: usize = 128;

/// What one [`Linear::argmax_rows`](crate::linear::Linear::argmax_rows)
/// call did beyond returning tokens — the screen's selectivity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Column tiles recomputed exactly, summed over the screened rows
    /// (each holds [`TILE_COLS`] columns; at least one per row).
    pub candidate_tiles: usize,
    /// Rows that took the full projection instead (guards, or more than
    /// 128 candidate tiles).
    pub fallback_rows: usize,
}

/// The measured quantities of one coded activation row.
#[derive(Debug, Clone, Copy)]
struct RowCode {
    /// Residual step `tau`.
    tau: f64,
    /// `X >= sum |x_p|`.
    l1: f64,
    /// `e >= max |x_p - x^_p|`.
    err: f64,
}

/// Codes `x` as `tau (254 coarse + fine)` and measures the fit, or
/// returns `None` for a row the guards exclude.
fn code_row(x: &[f32], coarse: &mut [i8], fine: &mut [i8]) -> Option<RowCode> {
    // Sums and maxima run in `LANES` independent lanes: any summation
    // order gives a valid `X`, and one serial chain per row would cost
    // more than the arithmetic.
    const LANES: usize = 8;
    let mut max = [0f32; LANES];
    let mut l1 = [0f64; LANES];
    for (i, &v) in x.iter().enumerate() {
        let a = v.abs();
        max[i % LANES] = if a > max[i % LANES] {
            a
        } else {
            max[i % LANES]
        };
        l1[i % LANES] += f64::from(a);
    }
    let max = max.iter().fold(0f32, |m, &v| m.max(v));
    let l1: f64 = l1.iter().sum();
    // The lane maxima skip NaN; the sum does not.
    if !(max > 0.0 && max < ACT_LIMIT) || l1.is_nan() {
        return None;
    }
    let tau = f64::from(max) / 127.0 / FINE;
    let (inv_coarse, inv_fine) = (1.0 / (tau * FINE), 1.0 / tau);
    let mut err = [0f64; LANES];
    for (i, ((&v, c), f)) in x.iter().zip(coarse).zip(fine).enumerate() {
        let v = f64::from(v);
        let hi = (v * inv_coarse).round_ties_even().clamp(-127.0, 127.0);
        let lo = ((v - hi * (tau * FINE)) * inv_fine)
            .round_ties_even()
            .clamp(-127.0, 127.0);
        (*c, *f) = (hi as i8, lo as i8);
        err[i % LANES] = max_of(err[i % LANES], (v - tau * (FINE * hi + lo)).abs());
    }
    let err = err.iter().fold(0f64, |m, &v| m.max(v));
    Some(RowCode {
        tau,
        l1,
        err: err + MEASURE_SLACK * f64::from(max),
    })
}

/// One column tile's slice of the certificate's tables. Padding columns
/// of a ragged last tile keep `bias = -inf`, so their interval is
/// `[-inf, -inf]`: never a candidate, never the threshold.
#[derive(Debug, Clone)]
struct TileTables {
    /// `s_j`.
    scale: [f64; TILE_COLS],
    /// `b_j`.
    bias: [f64; TILE_COLS],
    /// `d_j + gamma_{k+2} omega_j`, inflated: multiplies `X`.
    per_l1: [f64; TILE_COLS],
    /// `h_j`, inflated: multiplies `e`.
    per_err: [f64; TILE_COLS],
    /// `gamma_{k+2} |b_j| + (k + 1) 2^-149`, inflated.
    floor: [f64; TILE_COLS],
}

/// `max(a, b)` for values that are never NaN — the form that compiles to
/// one vector instruction.
#[inline]
fn max_of(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// The INT8 screen of one weight matrix: packed codes plus the
/// per-column tables of the certificate.
#[derive(Debug)]
pub(crate) struct Screen {
    codes: PackedI8,
    tiles: Vec<TileTables>,
    /// Output width `n`.
    n: usize,
    /// The screen-side guards hold.
    usable: bool,
}

impl Screen {
    /// Codes `w` column by column and measures the certificate's tables.
    /// Walks `w` by rows (it is row-major): two passes, no transpose.
    pub(crate) fn build(w: &Mat<f32>, b: &[f32]) -> Self {
        let (k, n) = w.shape();
        let mut omega = vec![0f32; n];
        let mut finite = b.iter().all(|v| v.is_finite());
        for p in 0..k {
            for (m, &v) in omega.iter_mut().zip(w.row(p)) {
                let a = v.abs();
                *m = if a > *m { a } else { *m };
                finite &= v.is_finite();
            }
        }
        let scale: Vec<f64> = omega
            .iter()
            .map(|&m| if m > 0.0 { f64::from(m) / 127.0 } else { 1.0 })
            .collect();
        let inv: Vec<f64> = scale.iter().map(|s| 1.0 / s).collect();
        let mut codes = Mat::<i8>::zeros(k, n);
        let mut dev = vec![0f64; n];
        let mut mass = vec![0f64; n];
        for p in 0..k {
            let row = codes.row_mut(p);
            for j in 0..n {
                let v = f64::from(w.row(p)[j]);
                let q = (v * inv[j]).round_ties_even().clamp(-127.0, 127.0);
                row[j] = q as i8;
                dev[j] = max_of(dev[j], (v - scale[j] * q).abs());
                mass[j] += q.abs();
            }
        }
        let ku = (k + 2) as f64 * U;
        let gamma = ku / (1.0 - ku);
        let underflow = (k + 1) as f64 * f64::from(f32::from_bits(1));
        let mut tiles = vec![
            TileTables {
                scale: [0.0; TILE_COLS],
                bias: [f64::NEG_INFINITY; TILE_COLS],
                per_l1: [0.0; TILE_COLS],
                per_err: [0.0; TILE_COLS],
                floor: [0.0; TILE_COLS],
            };
            n.div_ceil(TILE_COLS)
        ];
        for j in 0..n {
            let (tile, l) = (&mut tiles[j / TILE_COLS], j % TILE_COLS);
            let om = f64::from(omega[j]);
            tile.scale[l] = scale[j];
            tile.bias[l] = f64::from(b[j]);
            tile.per_l1[l] = (dev[j] + MEASURE_SLACK * om + gamma * om) * INFLATE;
            tile.per_err[l] = scale[j] * mass[j] * INFLATE;
            tile.floor[l] = (gamma * tile.bias[l].abs() + underflow) * INFLATE;
        }
        let omega_max = omega.iter().fold(0f32, |m, &v| m.max(v));
        let bias_max = b.iter().fold(0f32, |m, &v| m.max(v.abs()));
        let headroom = k as f64 * f64::from(omega_max) * f64::from(ACT_LIMIT) + f64::from(bias_max);
        Self {
            codes: PackedI8::from_i8(&codes),
            tiles,
            n,
            usable: finite && n > 0 && k < 1 << 20 && headroom < f64::from(f32::MAX) / 4.0,
        }
    }

    /// Interval ends `(lo, hi)` of tile `t`'s columns for a coded row
    /// whose GEMM accumulator rows are `coarse` / `fine`.
    #[inline]
    fn tile_bounds(
        &self,
        rc: &RowCode,
        t: usize,
        coarse: &[i32],
        fine: &[i32],
    ) -> ([f64; TILE_COLS], [f64; TILE_COLS]) {
        let j0 = t * TILE_COLS;
        let accs = |row: &[i32]| -> [i32; TILE_COLS] {
            match row.get(j0..j0 + TILE_COLS) {
                Some(full) => full.try_into().expect("one tile"),
                None => {
                    let mut a = [0; TILE_COLS];
                    a[..row.len() - j0].copy_from_slice(&row[j0..]);
                    a
                }
            }
        };
        let (coarse, fine, tb) = (accs(coarse), accs(fine), &self.tiles[t]);
        let mut lo = [0f64; TILE_COLS];
        let mut hi = [0f64; TILE_COLS];
        for l in 0..TILE_COLS {
            let m = FINE * f64::from(coarse[l]) + f64::from(fine[l]);
            let a = rc.tau * (tb.scale[l] * m) + tb.bias[l];
            let e = rc.l1 * tb.per_l1[l] + rc.err * tb.per_err[l] + tb.floor[l];
            lo[l] = a - e;
            hi[l] = a + e;
        }
        (lo, hi)
    }

    /// Per row, the tiles whose columns the intervals cannot rule out
    /// (ascending) — `None` for a row that is not screened or has more
    /// than [`MAX_VERIFY_TILES`] of them. `acc` holds the GEMM's `coarse`
    /// accumulator rows above its `fine` ones.
    ///
    /// Tiles are the outer loop so a tile's tables are read once for all
    /// rows; per row the scan keeps each tile's largest `hi` and the
    /// lane-wise largest `lo`.
    fn candidate_tiles(&self, rcs: &[Option<RowCode>], acc: &Mat<i32>) -> Vec<Option<Vec<usize>>> {
        let (m, tiles) = (rcs.len(), self.tiles.len());
        let mut tile_hi = vec![f64::NEG_INFINITY; m * tiles];
        let mut best_lo = vec![[f64::NEG_INFINITY; TILE_COLS]; m];
        for t in 0..tiles {
            for (r, rc) in rcs.iter().enumerate() {
                let Some(rc) = rc else { continue };
                let (lo, mut hi) = self.tile_bounds(rc, t, acc.row(r), acc.row(m + r));
                for (b, &v) in best_lo[r].iter_mut().zip(&lo) {
                    *b = max_of(*b, v);
                }
                let mut width = TILE_COLS / 2;
                while width > 0 {
                    for l in 0..width {
                        hi[l] = max_of(hi[l], hi[l + width]);
                    }
                    width /= 2;
                }
                tile_hi[r * tiles + t] = hi[0];
            }
        }
        rcs.iter()
            .enumerate()
            .map(|(r, rc)| {
                rc.as_ref()?;
                let threshold = best_lo[r].iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
                let row_hi = &tile_hi[r * tiles..(r + 1) * tiles];
                let candidates: Vec<usize> =
                    (0..tiles).filter(|&t| row_hi[t] >= threshold).collect();
                (candidates.len() <= MAX_VERIFY_TILES).then_some(candidates)
            })
            .collect()
    }

    /// `argmax` of each row's reference logits (see the module docs).
    /// `weights` / `bias` are the projection's own packed weights and
    /// bias; `full_row(r)` is the full projection plus `ops::argmax` for
    /// row `r`.
    pub(crate) fn argmax_rows(
        &self,
        x: &Mat<f32>,
        weights: &PackedF32,
        bias: &[f32],
        full_row: impl Fn(usize) -> usize + Sync,
    ) -> (Vec<usize>, GreedyStats) {
        let candidates = match self.code_rows(x) {
            Some((codes, rcs)) => self.candidate_tiles(&rcs, &self.accumulate(&codes)),
            None => vec![None; x.rows()],
        };
        let rows: Vec<(usize, Option<Vec<usize>>)> = candidates.into_iter().enumerate().collect();
        let per_row = par::par_map(&rows, |(r, tiles)| {
            let Some(tiles) = tiles else {
                return (full_row(*r), None);
            };
            let mut best = (f32::NEG_INFINITY, 0);
            for &t in tiles {
                let tile = prepack::matmul_prepacked_tile(x, *r, weights, t)
                    .expect("screen depth is the layer's");
                let j0 = t * TILE_COLS;
                for (j, (&dot, &b)) in tile.iter().zip(&bias[j0..]).enumerate() {
                    let logit = dot + b;
                    if logit.partial_cmp(&best.0).expect("argmax over NaN") != Ordering::Less {
                        best = (logit, j0 + j);
                    }
                }
            }
            (best.1, Some(tiles.len()))
        });
        let mut stats = GreedyStats::default();
        let tokens = per_row
            .into_iter()
            .map(|(token, verified)| {
                match verified {
                    Some(tiles) => stats.candidate_tiles += tiles,
                    None => stats.fallback_rows += 1,
                }
                token
            })
            .collect();
        (tokens, stats)
    }

    /// Both code rows of every admissible row of `x`, stacked (`coarse`
    /// in rows `0..m`, `fine` in `m..2m`), with each row's measurements;
    /// `None` when no row can be screened.
    fn code_rows(&self, x: &Mat<f32>) -> Option<(Mat<i8>, Vec<Option<RowCode>>)> {
        if !self.usable {
            return None;
        }
        let (m, k) = x.shape();
        let mut codes = Mat::<i8>::zeros(2 * m, k);
        let (coarse, fine) = codes.as_mut_slice().split_at_mut(m * k);
        let rcs: Vec<Option<RowCode>> = (0..m)
            .map(|r| {
                let at = r * k..(r + 1) * k;
                code_row(x.row(r), &mut coarse[at.clone()], &mut fine[at])
            })
            .collect();
        rcs.iter().any(Option::is_some).then_some((codes, rcs))
    }

    /// The exact integer sums `A_j` (rows `0..m`) and `A'_j` (`m..2m`) of
    /// stacked code rows against the packed weight codes.
    fn accumulate(&self, codes: &Mat<i8>) -> Mat<i32> {
        prepack::matmul_i8_prepacked(codes, &self.codes).expect("screen depth is the layer's")
    }

    /// Every column's interval `(lo_j, hi_j)` per row, `None` for rows
    /// the guards exclude — the certificate itself, for the soundness
    /// tests.
    pub(crate) fn intervals(&self, x: &Mat<f32>) -> Vec<Option<Vec<(f64, f64)>>> {
        let m = x.rows();
        let Some((codes, rcs)) = self.code_rows(x) else {
            return vec![None; m];
        };
        let acc = self.accumulate(&codes);
        rcs.iter()
            .enumerate()
            .map(|(r, rc)| {
                let rc = rc.as_ref()?;
                let mut out = Vec::with_capacity(self.tiles.len() * TILE_COLS);
                for t in 0..self.tiles.len() {
                    let (lo, hi) = self.tile_bounds(rc, t, acc.row(r), acc.row(m + r));
                    out.extend(lo.into_iter().zip(hi));
                }
                out.truncate(self.n);
                Some(out)
            })
            .collect()
    }
}
