//! Cross-backend design-space explorer: evaluates every configured
//! [`Backend`] on the shared MHA/FFN graphs and extracts the
//! cycles × area × accuracy Pareto front.
//!
//! This generalises [`crate::sweep`] (which walks the paper backend's
//! own `(model, s)` grid) to *heterogeneous* backends: each candidate is
//! lowered from the same [`graph::mha_graph`] / [`graph::ffn_graph`]
//! builders, costed with its own cycle and area models, and — for the
//! lossy circulant backend — scored against the bit-exact quantized
//! reference through the SQNR harness. Dominance runs over three
//! minimised objectives via [`crate::pareto`]:
//!
//! 1. `cycles` — the backend's cycle count for the ResBlock;
//! 2. `lut` — total LUTs of the backend instance;
//! 3. `noise_power` — relative noise power vs the reference
//!    (`10^(-SQNR/10)`; exactly `0.0` for bit-exact backends).
//!
//! The `backends` bench binary serialises an [`ExplorerReport`] to
//! `results/BENCH_backends.json` (schema documented in the README).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use transformer::ffn::FfnResBlock;

use graph::{ffn_graph, mha_graph, GraphConfig};
use quantized::sqnr::sqnr_db;
use quantized::QuantFfnResBlock;

use crate::backend::{Backend, BackendProgram};
use crate::circulant::{circulantize_ffn, CirculantBackend, CirculantConfig};
use crate::config::AccelConfig;
use crate::tiled::{TiledBackend, TiledConfig};
use crate::PaperBackend;

/// One evaluated (backend, ResBlock) candidate.
#[derive(Debug, Clone, Serialize)]
pub struct BackendPoint {
    /// Backend name (`caps().name`).
    pub backend: String,
    /// `"mha"` or `"ffn"`.
    pub workload: String,
    /// Human-readable configuration summary.
    pub config: String,
    /// PE-grid rows (FFT lanes for the circulant unit).
    pub rows: usize,
    /// PE-grid columns.
    pub cols: usize,
    /// Cycle count of the lowered program.
    pub cycles: u64,
    /// Latency at the configuration's clock (µs).
    pub latency_us: f64,
    /// Total LUTs.
    pub lut: f64,
    /// Total flip-flops.
    pub ff: f64,
    /// Total BRAM36 blocks.
    pub bram: f64,
    /// Total DSP slices.
    pub dsp: f64,
    /// DDR traffic of the program (bytes; `0` for backends with the
    /// working set resident on chip).
    pub ddr_bytes: u64,
    /// Weight-parameter compression factor (`1.0` = dense).
    pub weight_compression: f64,
    /// Whether the backend is bit-exact against the quantized
    /// reference.
    pub exact: bool,
    /// Measured SQNR vs the reference (dB) for lossy backends.
    pub sqnr_db: Option<f64>,
    /// Relative noise power (`10^(-SQNR/10)`, `0.0` when exact) — the
    /// accuracy objective.
    pub noise_power: f64,
}

/// The explorer's output: every candidate plus the per-ResBlock Pareto
/// fronts.
#[derive(Debug, Clone, Serialize)]
pub struct ExplorerReport {
    /// All evaluated candidates.
    pub points: Vec<BackendPoint>,
    /// Front over the MHA candidates (cycles × LUT × noise).
    pub mha_front: Vec<BackendPoint>,
    /// Front over the FFN candidates.
    pub ffn_front: Vec<BackendPoint>,
}

impl ExplorerReport {
    /// Distinct backend names appearing on a front.
    pub fn front_backends(front: &[BackendPoint]) -> Vec<String> {
        let mut names: Vec<String> = front.iter().map(|p| p.backend.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// What to explore.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Model, workload length (`base.s`), clock and policy shared by
    /// every candidate.
    pub base: AccelConfig,
    /// Square tiled-SA grids to evaluate (`R = C`).
    pub tiled_grids: Vec<usize>,
    /// DDR bandwidths (bytes/cycle) crossed with the grids.
    pub tiled_bandwidths: Vec<u64>,
    /// On-chip weight-cache capacities (bytes) crossed with the grids
    /// and bandwidths (`0` = the pure-streaming design).
    pub tiled_weight_caches: Vec<u64>,
    /// Circulant block sizes to evaluate.
    pub circ_blocks: Vec<usize>,
    /// Seed for the circulant accuracy measurement's weights/input.
    pub seed: u64,
}

impl ExploreConfig {
    /// The default survey at the paper's design point: the paper
    /// backend, 8/16/32-wide tiled grids at nominal and starved DDR
    /// bandwidth with and without a 256 KiB weight cache, and circulant
    /// blocks 4/8/16.
    pub(crate) fn paper_default() -> Self {
        Self {
            base: AccelConfig::paper_default(),
            tiled_grids: vec![8, 16, 32],
            tiled_bandwidths: vec![4, 8],
            tiled_weight_caches: vec![0, 256 << 10],
            circ_blocks: vec![4, 8, 16],
            seed: 0xF7A25,
        }
    }
}

fn point(
    be: &dyn Backend,
    base: &AccelConfig,
    workload: &str,
    config: String,
    cycles: u64,
    ddr_bytes: u64,
    sqnr: Option<f64>,
) -> BackendPoint {
    let caps = be.caps();
    let a = be.area();
    BackendPoint {
        backend: caps.name.to_string(),
        workload: workload.to_string(),
        config,
        rows: caps.array.0,
        cols: caps.array.1,
        cycles,
        latency_us: base.clock.cycles_to_us(hwsim::cycles::Cycle(cycles)),
        lut: a.lut,
        ff: a.ff,
        bram: a.bram,
        dsp: a.dsp,
        ddr_bytes,
        weight_compression: caps.weight_compression,
        exact: caps.exact,
        sqnr_db: sqnr,
        noise_power: sqnr.map_or(0.0, |db| 10f64.powf(-db / 10.0)),
    }
}

/// Measures the circulant backend's end-to-end FFN SQNR against the
/// bit-exact reference, on block-circulant (FTRANS-regime) weights
/// generated from `seed`.
pub fn measure_circulant_ffn_sqnr(be: &CirculantBackend, seed: u64) -> f64 {
    let base = &be.config().base;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = FfnResBlock::new(&base.model, &mut rng);
    circulantize_ffn(&mut block, be.config().block);
    let calib: Vec<tensor::Mat<f32>> = (0..2)
        .map(|_| tensor::init::normal(&mut rng, base.s, base.model.d_model, 1.0))
        .collect();
    let q = QuantFfnResBlock::from_f32(&block, &calib);
    let xq = q.quantize_input(&calib[0]);
    let prog = be.lower_ffn(&ffn_graph(&q.graph_config()));
    let got = be.run_ffn(&prog, &q, &xq);
    let (want, _) = q.forward(&xq);
    sqnr_db(&q.dequantize_output(&want), &q.dequantize_output(&got))
}

fn tiled_ddr_bytes(prog: &BackendProgram) -> u64 {
    match prog {
        BackendProgram::Tiled(p) => p.ddr_bytes(),
        _ => 0,
    }
}

/// Runs the survey: lowers the shared graphs on every candidate,
/// costs them, and extracts the per-ResBlock fronts.
pub fn explore(cfg: &ExploreConfig) -> ExplorerReport {
    let base = &cfg.base;
    let gcfg = GraphConfig {
        d_model: base.model.d_model,
        d_ff: base.model.d_ff,
        h: base.model.h,
    };
    let mha_g = mha_graph(&gcfg);
    let ffn_g = ffn_graph(&gcfg);
    let s_kv = base.s;
    let mut points = Vec::new();

    // paper backend: one point per ResBlock
    let paper = PaperBackend::new(base.clone());
    let pm = paper.lower_mha(&mha_g, s_kv);
    points.push(point(
        &paper,
        base,
        "mha",
        format!("s={} full array", base.s),
        paper.cycles(&pm, s_kv),
        0,
        None,
    ));
    let pf = paper.lower_ffn(&ffn_g);
    points.push(point(
        &paper,
        base,
        "ffn",
        format!("s={} full array", base.s),
        paper.cycles(&pf, s_kv),
        0,
        None,
    ));

    // tiled-SA: grid × bandwidth × weight-cache cross product
    for &rc in &cfg.tiled_grids {
        for &bw in &cfg.tiled_bandwidths {
            for &wc in &cfg.tiled_weight_caches {
                let be = TiledBackend::new(TiledConfig {
                    base: base.clone(),
                    rows: rc,
                    cols: rc,
                    tile_k: 512,
                    ddr_bytes_per_cycle: bw,
                    weight_cache_bytes: wc,
                });
                let desc = if wc == 0 {
                    format!("{rc}x{rc} grid, {bw} B/cyc DDR")
                } else {
                    format!("{rc}x{rc} grid, {bw} B/cyc DDR, {} KiB wcache", wc >> 10)
                };
                let m = be.lower_mha(&mha_g, s_kv);
                points.push(point(
                    &be,
                    base,
                    "mha",
                    desc.clone(),
                    be.cycles(&m, s_kv),
                    tiled_ddr_bytes(&m),
                    None,
                ));
                let f = be.lower_ffn(&ffn_g);
                points.push(point(
                    &be,
                    base,
                    "ffn",
                    desc,
                    be.cycles(&f, s_kv),
                    tiled_ddr_bytes(&f),
                    None,
                ));
            }
        }
    }

    // block-circulant: FFN only, accuracy measured
    for &b in &cfg.circ_blocks {
        let be = CirculantBackend::new(CirculantConfig {
            base: base.clone(),
            block: b,
            lanes: 16,
        });
        let prog = be.lower_ffn(&ffn_g);
        let sqnr = measure_circulant_ffn_sqnr(&be, cfg.seed);
        points.push(point(
            &be,
            base,
            "ffn",
            format!("b={b} circulant blocks"),
            be.cycles(&prog, s_kv),
            0,
            Some(sqnr),
        ));
    }

    let front = |workload: &str| {
        let cand: Vec<BackendPoint> = points
            .iter()
            .filter(|p| p.workload == workload)
            .cloned()
            .collect();
        crate::pareto::front_by(&cand, |p| vec![p.cycles as f64, p.lut, p.noise_power])
    };
    let mha_front = front("mha");
    let ffn_front = front("ffn");
    ExplorerReport {
        points,
        mha_front,
        ffn_front,
    }
}

/// The survey at [`ExploreConfig::paper_default`] — what the `backends`
/// bench binary serialises.
pub fn explore_default() -> ExplorerReport {
    explore(&ExploreConfig::paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use transformer::config::ModelConfig;

    fn tiny_survey() -> ExplorerReport {
        let mut base = AccelConfig::paper_default();
        base.model = ModelConfig::tiny_for_tests();
        base.s = 8;
        explore(&ExploreConfig {
            base,
            tiled_grids: vec![4, 8],
            tiled_bandwidths: vec![8],
            tiled_weight_caches: vec![0, 4 << 10],
            circ_blocks: vec![4, 8],
            seed: 7,
        })
    }

    #[test]
    fn survey_covers_every_candidate() {
        let r = tiny_survey();
        // paper 2 + tiled 2 grids × 1 bw × 2 caches × 2 workloads
        // + circulant 2
        assert_eq!(r.points.len(), 2 + 8 + 2);
        assert!(r.points.iter().all(|p| p.cycles > 0 && p.lut > 0.0));
        // exact backends carry zero noise, circulant a measured SQNR
        for p in &r.points {
            match p.backend.as_str() {
                "ftrans-circulant" => {
                    assert!(p.sqnr_db.is_some() && p.noise_power > 0.0 && !p.exact)
                }
                _ => assert!(p.sqnr_db.is_none() && p.noise_power == 0.0 && p.exact),
            }
        }
    }

    #[test]
    fn fronts_are_nondegenerate_across_backends() {
        let r = tiny_survey();
        let mha = ExplorerReport::front_backends(&r.mha_front);
        let ffn = ExplorerReport::front_backends(&r.ffn_front);
        assert!(mha.len() >= 2, "MHA front collapsed to {mha:?}");
        assert!(ffn.len() >= 2, "FFN front collapsed to {ffn:?}");
        assert!(ffn.contains(&"ftrans-circulant".to_string()), "{ffn:?}");
    }

    #[test]
    fn front_points_are_members_of_the_survey() {
        let r = tiny_survey();
        for p in r.mha_front.iter().chain(&r.ffn_front) {
            assert!(r.points.iter().any(|q| q.backend == p.backend
                && q.config == p.config
                && q.workload == p.workload));
        }
    }
}
