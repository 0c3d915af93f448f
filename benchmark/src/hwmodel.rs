//! The modelled-hardware column: cycles the paper's `64 x 64` systolic
//! array would spend on the step trace a serving workload produced.
//!
//! Same analytic pass model as experiment E17 (`compute = k + m + n - 2`,
//! `drain = n`, the closed form of
//! `accel::systolic::SystolicArray::simulate_analytic`), generalised
//! from "b rows at one mean context" to the harness's own bookkeeping:
//! each request's rows and context in each step. The encoder pass and
//! cross-attention K/V projections an admission runs, and the FP32
//! output projection (host side in the paper's split), are not modelled.

use accel::EngineStats;
use hwsim::cycles::Cycle;
use transformer::config::ModelConfig;

use crate::measure::RowGroup;

/// Array height (the paper's maximum sequence length) and panel width.
const ARRAY: usize = 64;

/// One GEMM pass through the array: `m x k` times `k x n`.
fn pass(m: usize, k: usize, n: usize) -> EngineStats {
    EngineStats {
        gemm_passes: 1,
        macs: (m * k * n) as u64,
        isolated_cycles: Cycle((k + m + n - 2 + n) as u64),
        ..EngineStats::default()
    }
}

/// `count` passes of an `m x k x n` GEMM with `m` tiled to the array
/// height.
fn tiled(acc: &mut EngineStats, rows: usize, k: usize, n: usize, count: usize) {
    for r0 in (0..rows).step_by(ARRAY) {
        let m = ARRAY.min(rows - r0);
        for _ in 0..count {
            acc.merge(&pass(m, k, n));
        }
    }
}

/// Attention of `rows` query rows of one head over `ctx` cached rows:
/// score tiles against 64-row key tiles, then `P * V`.
fn attention(acc: &mut EngineStats, rows: usize, ctx: usize, d_k: usize) {
    for r0 in (0..rows).step_by(ARRAY) {
        let m = ARRAY.min(rows - r0);
        for t0 in (0..ctx).step_by(ARRAY) {
            acc.merge(&pass(m, d_k, ARRAY.min(ctx - t0)));
        }
        acc.merge(&pass(m, ctx, d_k));
    }
}

/// Models one engine step: each decoder layer's weight GEMMs run once
/// over all stacked rows, attention runs per request and head.
pub fn step(cfg: &ModelConfig, groups: &[RowGroup]) -> EngineStats {
    let d = cfg.d_model;
    let panels = d / ARRAY;
    let total: usize = groups.iter().map(|g| g.rows).sum();
    let mut acc = EngineStats::default();
    for _ in 0..cfg.n_layers {
        // Self-attention W_Q, W_K, W_V, W_G; cross-attention W_Q, W_G
        // (source-side K/V are projected once, at admission).
        tiled(&mut acc, total, d, ARRAY, 6 * panels);
        for g in groups {
            for _ in 0..cfg.h {
                attention(&mut acc, g.rows, g.ctx, cfg.d_k());
                attention(&mut acc, g.rows, g.src, cfg.d_k());
            }
        }
        tiled(&mut acc, total, d, ARRAY, cfg.d_ff / ARRAY);
        tiled(&mut acc, total, cfg.d_ff, ARRAY, panels);
    }
    acc
}

/// Models a whole step trace.
pub fn trace(cfg: &ModelConfig, steps: &[Vec<RowGroup>]) -> EngineStats {
    steps.iter().map(|groups| step(cfg, groups)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::model_config;

    #[test]
    fn one_decode_row_matches_the_closed_form() {
        let cfg = model_config();
        let g = [RowGroup {
            rows: 1,
            ctx: 10,
            src: 20,
        }];
        let s = step(&cfg, &g);
        // Per layer: 48 + 32 + 8 weight passes, 8 heads x (1 + 1) x 2
        // attention passes (contexts fit one key tile).
        assert_eq!(s.gemm_passes, 6 * (88 + 32));
        let w512 = 512 + 1 + 64 - 2 + 64;
        let w2048 = 2048 + 1 + 64 - 2 + 64;
        let att = |c: usize| (64 + 1 + c - 2 + c) + (c + 1 + 64 - 2 + 64);
        let per_layer = 80 * w512 + 8 * w2048 + 8 * (att(10) + att(20));
        assert_eq!(s.isolated_cycles.get(), 6 * per_layer as u64);
        // Sixteen rows share the weight passes: cycles grow far slower
        // than rows.
        let g16 = vec![g[0]; 16];
        let s16 = step(&cfg, &g16);
        assert!(s16.isolated_cycles.get() < 4 * s.isolated_cycles.get());
        assert_eq!(
            trace(&cfg, &[g.to_vec(), g16]).gemm_passes,
            s.gemm_passes + s16.gemm_passes
        );
    }

    #[test]
    fn long_chunks_and_contexts_are_tiled() {
        let cfg = model_config();
        let s = step(
            &cfg,
            &[RowGroup {
                rows: 100,
                ctx: 130,
                src: 64,
            }],
        );
        // Two row tiles; self-attention sees three key tiles, cross one.
        let per_layer = 2 * 88 + 8 * 2 * ((3 + 1) + (1 + 1));
        assert_eq!(s.gemm_passes, 6 * per_layer);
    }
}
