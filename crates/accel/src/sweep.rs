//! Design-space sweeps and Pareto-frontier extraction — the systematic
//! version of the paper's single published design point.

use serde::Serialize;
use transformer::config::ModelConfig;

use crate::area::{estimate_power, AreaModel};
use crate::config::AccelConfig;
use crate::scheduler;

/// One evaluated design point.
#[derive(Debug, Clone, Serialize)]
pub struct DesignPoint {
    /// Target model name.
    pub model: String,
    /// Array rows / max sequence length.
    pub s: usize,
    /// MHA + FFN ResBlock latency (µs) — one encoder layer's compute.
    pub layer_latency_us: f64,
    /// Total LUTs.
    pub lut: f64,
    /// Total BRAM36 blocks.
    pub bram: f64,
    /// Estimated power (W).
    pub power_w: f64,
    /// Whether the point fits the VU13P.
    pub fits: bool,
}

/// Evaluates one configuration.
pub(crate) fn evaluate_point(model: &ModelConfig, s: usize) -> DesignPoint {
    let cfg = AccelConfig {
        model: model.clone(),
        s,
        ..AccelConfig::paper_default()
    };
    let mha = scheduler::schedule_mha(&cfg);
    let ffn = scheduler::schedule_ffn(&cfg);
    let area = AreaModel::new(cfg.clone());
    let top = area.top();
    DesignPoint {
        model: model.name.clone(),
        s,
        layer_latency_us: mha.latency_us + ffn.latency_us,
        lut: top.lut,
        bram: top.bram,
        power_w: estimate_power(&area, &cfg).total_w(),
        fits: area.fits_vu13p(),
    }
}

/// Evaluates an `array_s`-row array running a *fixed* workload of
/// `workload_s`-token sentences (`workload_s <= array_s`). This is the
/// deployment question the paper answers with `s = 64`: what array
/// height should serve a given sequence-length budget?
///
/// # Panics
///
/// Panics if `workload_s > array_s`.
pub fn evaluate_point_fixed_workload(
    model: &ModelConfig,
    array_s: usize,
    workload_s: usize,
) -> DesignPoint {
    assert!(workload_s <= array_s, "workload exceeds the array");
    let cfg = AccelConfig {
        model: model.clone(),
        s: array_s,
        ..AccelConfig::paper_default()
    };
    let mha = scheduler::schedule_mha_cross(&cfg, workload_s, workload_s);
    let ffn = scheduler::schedule_ffn_len(&cfg, workload_s);
    let area = AreaModel::new(cfg.clone());
    let top = area.top();
    DesignPoint {
        model: model.name.clone(),
        s: array_s,
        layer_latency_us: mha.latency_us + ffn.latency_us,
        lut: top.lut,
        bram: top.bram,
        power_w: estimate_power(&area, &cfg).total_w(),
        fits: area.fits_vu13p(),
    }
}

/// Sweeps every `(model, s)` combination.
///
/// Points are evaluated in parallel (`tensor::par`, honouring
/// `ACCEL_THREADS`) but returned in grid order — models outermost,
/// `s_values` inner — identically to a serial double loop.
pub fn sweep(models: &[ModelConfig], s_values: &[usize]) -> Vec<DesignPoint> {
    let grid: Vec<(&ModelConfig, usize)> = models
        .iter()
        .flat_map(|m| s_values.iter().map(move |&s| (m, s)))
        .collect();
    tensor::par::par_map(&grid, |&(m, s)| evaluate_point(m, s))
}

/// Extracts the Pareto frontier over `(layer_latency_us, lut)` from the
/// *feasible* points (both minimised): a point survives if no other
/// feasible point is at least as good on both axes and strictly better
/// on one. Returned sorted by latency.
///
/// The dominance machinery lives in [`crate::pareto`], which handles
/// any number of objectives; this keeps the historical two-axis entry
/// point (and the `results/pareto.json` layout) stable.
pub fn pareto_latency_vs_lut(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let feasible: Vec<DesignPoint> = points.iter().filter(|p| p.fits).cloned().collect();
    let mut frontier = crate::pareto::front_by(&feasible, |p| vec![p.layer_latency_us, p.lut]);
    frontier.dedup_by(|a, b| a.layer_latency_us == b.layer_latency_us && a.lut == b.lut);
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_sweep() -> Vec<DesignPoint> {
        sweep(&[ModelConfig::transformer_base()], &[16, 32, 64, 128, 256])
    }

    #[test]
    fn sweep_covers_the_grid() {
        let pts = sweep(&ModelConfig::table1(), &[32, 64]);
        assert_eq!(pts.len(), 8);
        assert!(pts.iter().all(|p| p.layer_latency_us > 0.0 && p.lut > 0.0));
    }

    #[test]
    fn infeasible_points_are_flagged_and_excluded_from_frontier() {
        let pts = base_sweep();
        let s256 = pts.iter().find(|p| p.s == 256).unwrap();
        assert!(!s256.fits, "s = 256 exceeds the VU13P LUT budget");
        let frontier = pareto_latency_vs_lut(&pts);
        assert!(frontier.iter().all(|p| p.fits));
    }

    #[test]
    fn frontier_is_monotone() {
        let pts = base_sweep();
        let frontier = pareto_latency_vs_lut(&pts);
        assert!(!frontier.is_empty());
        // along the frontier, lower latency must cost more LUTs
        for w in frontier.windows(2) {
            assert!(w[0].layer_latency_us <= w[1].layer_latency_us);
            assert!(w[0].lut >= w[1].lut, "frontier not monotone in LUTs");
        }
    }

    #[test]
    fn dominated_points_are_removed() {
        // For the base model, MHA latency grows with s while FFN is
        // s-independent and LUTs grow linearly in s — so larger s is
        // strictly dominated (slower AND bigger): the frontier should be
        // exactly the smallest feasible s.
        let pts = base_sweep();
        let frontier = pareto_latency_vs_lut(&pts);
        assert_eq!(frontier.len(), 1, "{frontier:?}");
        assert_eq!(frontier[0].s, 16);
    }

    #[test]
    fn for_a_fixed_s64_workload_the_paper_array_is_optimal() {
        // Deployment view: sentences are 64 tokens; candidate arrays are
        // 64..256 rows. Extra rows sit idle (stream cycles depend on k,
        // not rows) while LUTs scale linearly — so the 64-row array
        // Pareto-dominates everything larger, exactly the paper's
        // "s x 64 with s = max sequence length" sizing rule.
        let base = ModelConfig::transformer_base();
        let pts: Vec<DesignPoint> = [64usize, 128, 192, 256]
            .iter()
            .map(|&array_s| evaluate_point_fixed_workload(&base, array_s, 64))
            .collect();
        let frontier = pareto_latency_vs_lut(&pts);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].s, 64);
        // and latency is identical across array sizes (rows idle)
        for p in &pts {
            assert!((p.layer_latency_us - pts[0].layer_latency_us).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_point_is_dominated_only_by_smaller_arrays() {
        // The paper's s = 64 is off this frontier (s = 16 computes the
        // same layer more slowly per-token but these latency numbers are
        // for the *whole layer at the array's own s*)... the interesting
        // check: nothing with MORE LUTs beats s = 64's latency by much.
        let pts = base_sweep();
        let p64 = pts.iter().find(|p| p.s == 64).unwrap();
        let p128 = pts.iter().find(|p| p.s == 128).unwrap();
        assert!(p128.lut > p64.lut && p128.layer_latency_us >= p64.layer_latency_us);
    }
}
