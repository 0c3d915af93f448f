//! KV260-style tiled systolic-array backend: a small `R × C` PE grid
//! that streams every operand tile through DDR instead of holding the
//! paper's full `s × 64` working set on chip.
//!
//! The paper's design (arXiv 2009 / SOCC'20) sizes the array to the
//! whole problem — `s` rows, 64 columns, all weights resident in BRAM —
//! which is a VU13P-class budget. Edge parts (the KV260's Zynq
//! UltraScale+ fabric, arXiv 2503.16731) can afford a much smaller grid
//! and must tile: each output block is computed from `A`/`B` tiles
//! fetched over a narrow DDR interface, double-buffered so transfers
//! overlap compute.
//!
//! The backend deliberately reuses the **same ISA lowering** as the
//! paper backend ([`crate::exec::lower_mha`] / [`crate::exec::lower_ffn`]
//! from the shared graph builders) and puts a *tile scheduler in front
//! of it*: [`tile_schedule`] expands each GEMM-shaped [`Command`] into a
//! [`TiledGemm`] describing its output-stationary tile walk and DDR
//! traffic. The cycle model charges `max(compute, memory)` per output
//! tile (double buffering hides the smaller of the two) and is therefore
//! bandwidth-aware: shrink `ddr_bytes_per_cycle` and GEMMs with low
//! arithmetic intensity go memory-bound.
//!
//! **Bit-exactness.** Tiling an INT8×INT8→INT32 GEMM only regroups the
//! integer partial sums; i32 addition is associative and commutative and
//! cannot overflow here (the accumulator headroom argument is the same
//! as the paper datapath's), so the tiled array produces exactly the
//! untiled result. Execution therefore replays the embedded command
//! stream on the [`crate::engine::ArrayEngine`] [`crate::PaperBackend`]
//! runs on — a faithful bit-level model of the tiled datapath, asserted
//! bit-identical against the quantized reference in
//! `crates/accel/tests/backend_identity.rs`. The same engine takes a
//! fault plan and an ABFT checker, so a tiled program can be
//! fault-injected exactly like the paper's.

use graph::Graph;
use hwsim::memory::MemorySpec;
use hwsim::resources::Resources;
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use serde::Serialize;
use tensor::Mat;

use crate::area;
use crate::backend::{Backend, BackendCaps, BackendProgram};
use crate::config::AccelConfig;
use crate::engine::ArrayEngine;
use crate::isa::Command;
use crate::layernorm_module;
use crate::partition::PANEL_COLS;
use crate::softmax_module;

/// Tiled-backend configuration: the model/policy base plus the grid
/// geometry and DDR interface.
#[derive(Debug, Clone, Serialize)]
pub struct TiledConfig {
    /// Model dimensions, clock and LayerNorm policy (the array geometry
    /// fields of `base` — `base.s` — give the *workload* row count, not
    /// the grid height).
    pub base: AccelConfig,
    /// PE-grid rows (`R`).
    pub rows: usize,
    /// PE-grid columns (`C`).
    pub cols: usize,
    /// Depth of the on-chip `A`/`B` tile buffers along the reduction
    /// dimension: `k` is streamed in chunks of at most `tile_k`.
    pub tile_k: usize,
    /// Sustained DDR bandwidth in bytes per array clock cycle. The
    /// KV260's 64-bit DDR4 at rough parity with a 200 MHz fabric clock
    /// sustains on the order of 8 B/cycle.
    pub ddr_bytes_per_cycle: u64,
    /// On-chip weight-cache capacity in bytes (`0` = stream everything,
    /// the original backend). The tile scheduler pins whole **weight**
    /// operands (`B` of the projection/FFN GEMMs — never the
    /// activation-derived `K`/`V` panels of `ScoreTile`/`Context`)
    /// resident in BRAM, first-fit in program order, so a pinned weight
    /// is fetched from DDR once per program instead of once per
    /// output-tile row. Residency is benefit-gated: a weight is only
    /// pinned when the cycle model says it does not lose (it can — a
    /// single-row-tile GEMM re-reads nothing, so pinning would just
    /// serialize the fill).
    pub weight_cache_bytes: u64,
}

impl TiledConfig {
    /// A KV260-class default: 16×16 PEs, 512-deep tile buffers, 8 B per
    /// cycle of DDR bandwidth, paper model/clock/policy.
    pub(crate) fn kv260_default() -> Self {
        Self {
            base: AccelConfig::paper_default(),
            rows: 16,
            cols: 16,
            tile_k: 512,
            ddr_bytes_per_cycle: 8,
            weight_cache_bytes: 0,
        }
    }

    /// Validates geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the bandwidth is zero.
    pub(crate) fn validate(&self) {
        self.base.validate();
        assert!(
            self.rows > 0 && self.cols > 0 && self.tile_k > 0,
            "tile grid dimensions must be positive"
        );
        assert!(self.ddr_bytes_per_cycle > 0, "zero DDR bandwidth");
    }
}

/// One GEMM-shaped command expanded into its tile walk: an `m × k × n`
/// product executed output-stationary on the `R × C` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TiledGemm {
    /// The ISA command this GEMM came from (kept for execution and
    /// golden tests).
    pub src: Command,
    /// Output rows.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// `⌈m / R⌉` output-tile rows.
    pub row_tiles: usize,
    /// `⌈n / C⌉` output-tile columns.
    pub col_tiles: usize,
    /// `⌈k / tile_k⌉` reduction chunks per output tile.
    pub k_tiles: usize,
    /// Whether the scheduler pinned this GEMM's `B` operand (a static
    /// weight) in the on-chip weight cache. Resident weights are fetched
    /// from DDR exactly once (`k · n` bytes) instead of once per
    /// output-tile row.
    pub weight_resident: bool,
    /// Total DDR read traffic (bytes): `A` re-read once per output-tile
    /// column (`col_tiles · m · k`) plus `B` — re-read once per
    /// output-tile row (`row_tiles · k · n`) when streamed, or fetched
    /// once (`k · n`) when [`Self::weight_resident`]. INT8 operands.
    pub ddr_read_bytes: u64,
    /// Total DDR write traffic (bytes): the requantized INT8 output,
    /// `m · n`.
    pub ddr_write_bytes: u64,
}

/// One scheduled operation on the tiled accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TiledOp {
    /// A tiled GEMM.
    Gemm(TiledGemm),
    /// Scaled masked softmax over one head's score rows (`R` lanes, so
    /// `⌈s / R⌉` serial passes).
    Softmax {
        /// Head index.
        head: usize,
    },
    /// Residual-add + LayerNorm tail.
    LayerNorm,
}

/// A tile-scheduled program: the same command stream the paper backend
/// runs, with every GEMM annotated by its tile walk and DDR traffic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct TiledProgram {
    /// Scheduled operations, in issue order.
    pub ops: Vec<TiledOp>,
}

impl TiledProgram {
    /// Total DDR traffic (read + write bytes) across the program.
    pub fn ddr_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TiledOp::Gemm(g) => g.ddr_read_bytes + g.ddr_write_bytes,
                _ => 0,
            })
            .sum()
    }

    /// Reconstructs the ISA command stream the schedule was derived
    /// from (the tile walk annotates commands; it never reorders them).
    pub fn commands(&self) -> Vec<Command> {
        self.ops
            .iter()
            .map(|op| match *op {
                TiledOp::Gemm(g) => g.src,
                TiledOp::Softmax { head } => Command::Softmax { head },
                TiledOp::LayerNorm => Command::LayerNorm,
            })
            .collect()
    }
}

/// GEMM shape of a command for a workload of `s` query rows and `s_kv`
/// key/value rows under model dims `(d_model, d_ff, d_k)`.
fn gemm_shape(
    cmd: &Command,
    s: usize,
    s_kv: usize,
    dims: (usize, usize, usize),
) -> (usize, usize, usize) {
    let (d_model, d_ff, d_k) = dims;
    let panel_width = |total: usize, panel: usize| (total - panel * PANEL_COLS).min(PANEL_COLS);
    match *cmd {
        Command::ProjectQ { .. } => (s, d_model, d_k),
        Command::ProjectK { .. } | Command::ProjectV { .. } => (s_kv, d_model, d_k),
        Command::ScoreTile { .. } => (s, d_k, PANEL_COLS),
        Command::Context { .. } => (s, s_kv, d_k),
        // One OutputPanel per head: W_O splits into `h` uniform
        // `d_model × d_k` slices (= 64 columns at the paper point, but
        // *not* PANEL_COLS-wide for models off the 64h pattern).
        Command::OutputPanel { .. } => (s, d_model, d_k),
        Command::FfnHidden { panel } => (s, d_model, panel_width(d_ff, panel)),
        Command::FfnOutput { panel } => (s, d_ff, panel_width(d_model, panel)),
        Command::Softmax { .. } | Command::LayerNorm => unreachable!("not a GEMM"),
    }
}

/// Whether a command's `B` operand is a static model weight (eligible
/// for the on-chip weight cache). `ScoreTile` and `Context` multiply
/// against activation-derived `K`/`V` panels, which change every
/// invocation and are never cached.
fn is_weight_gemm(cmd: &Command) -> bool {
    matches!(
        *cmd,
        Command::ProjectQ { .. }
            | Command::ProjectK { .. }
            | Command::ProjectV { .. }
            | Command::OutputPanel { .. }
            | Command::FfnHidden { .. }
            | Command::FfnOutput { .. }
    )
}

/// The tile scheduler: expands an ISA program (from the shared graph
/// lowering) into a [`TiledProgram`] for a workload of `s` query rows /
/// `s_kv` key-value rows.
///
/// When [`TiledConfig::weight_cache_bytes`] is non-zero, weight operands
/// are pinned resident first-fit in program order, each only if the
/// cycle model agrees residency does not lose (see the config field
/// docs).
pub(crate) fn tile_schedule(
    cfg: &TiledConfig,
    program: &[Command],
    s: usize,
    s_kv: usize,
) -> TiledProgram {
    cfg.validate();
    let dims = (
        cfg.base.model.d_model,
        cfg.base.model.d_ff,
        cfg.base.model.d_k(),
    );
    let mut cache_left = cfg.weight_cache_bytes;
    let ops = program
        .iter()
        .map(|cmd| match *cmd {
            Command::Softmax { head } => TiledOp::Softmax { head },
            Command::LayerNorm => TiledOp::LayerNorm,
            _ => {
                let (m, k, n) = gemm_shape(cmd, s, s_kv, dims);
                let row_tiles = m.div_ceil(cfg.rows);
                let col_tiles = n.div_ceil(cfg.cols);
                let k_tiles = k.div_ceil(cfg.tile_k);
                let mut g = TiledGemm {
                    src: *cmd,
                    m,
                    k,
                    n,
                    row_tiles,
                    col_tiles,
                    k_tiles,
                    weight_resident: false,
                    ddr_read_bytes: (col_tiles * m * k + row_tiles * k * n) as u64,
                    ddr_write_bytes: (m * n) as u64,
                };
                let weight_bytes = (k * n) as u64;
                if is_weight_gemm(cmd) && weight_bytes <= cache_left {
                    let resident = TiledGemm {
                        weight_resident: true,
                        ddr_read_bytes: (col_tiles * m * k) as u64 + weight_bytes,
                        ..g
                    };
                    if gemm_cycles_for(cfg, &resident) <= gemm_cycles_for(cfg, &g) {
                        cache_left -= weight_bytes;
                        g = resident;
                    }
                }
                TiledOp::Gemm(g)
            }
        })
        .collect();
    TiledProgram { ops }
}

/// Cycle cost of one tiled GEMM (shared by the scheduler's residency
/// benefit gate and [`TiledBackend::gemm_cycles`]): per output tile, a
/// compute pass of `k + k_tiles·(rm + cn − 2) + cn` cycles overlapped
/// against the tile's DDR traffic; double buffering hides the smaller
/// of the two, so each tile costs `max(compute, mem)`. The first tile's
/// fetch cannot be hidden and is charged as a prologue. A resident
/// weight contributes no per-tile `B` traffic; its one-time DDR fill is
/// charged as an additional (unhidden) prologue.
fn gemm_cycles_for(cfg: &TiledConfig, g: &TiledGemm) -> u64 {
    let bw = cfg.ddr_bytes_per_cycle;
    let mut total = 0u64;
    let mut first_mem = None;
    for i in 0..g.row_tiles {
        let rm = (g.m - i * cfg.rows).min(cfg.rows);
        for j in 0..g.col_tiles {
            let cn = (g.n - j * cfg.cols).min(cfg.cols);
            let compute = (g.k + g.k_tiles * (rm + cn - 2) + cn) as u64;
            let b_bytes = if g.weight_resident { 0 } else { g.k * cn };
            let bytes = (rm * g.k + b_bytes + rm * cn) as u64;
            let mem = bytes.div_ceil(bw);
            if first_mem.is_none() {
                first_mem = Some(mem);
            }
            total += compute.max(mem);
        }
    }
    let fill = if g.weight_resident {
        ((g.k * g.n) as u64).div_ceil(bw)
    } else {
        0
    };
    total + fill + first_mem.unwrap_or(0)
}

/// The tiled-SA [`Backend`].
#[derive(Debug, Clone)]
pub struct TiledBackend {
    cfg: TiledConfig,
}

impl TiledBackend {
    /// Wraps a validated configuration.
    pub fn new(cfg: TiledConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The KV260-class default point.
    pub fn kv260_default() -> Self {
        Self::new(TiledConfig::kv260_default())
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &TiledConfig {
        &self.cfg
    }

    fn program<'p>(&self, prog: &'p BackendProgram) -> &'p TiledProgram {
        match prog {
            BackendProgram::Tiled(p) => p,
            other => panic!("tiled backend fed a foreign program ({} ops)", other.len()),
        }
    }

    /// Cycle cost of one tiled GEMM: per output tile, a compute pass of
    /// `k + k_tiles·(rm + cn − 2) + cn` cycles (stream the full
    /// reduction in `tile_k` chunks, pay the pipeline fill/drain per
    /// chunk, one final accumulator drain) overlapped against the
    /// tile's DDR traffic; double buffering hides the smaller of the
    /// two, so each tile costs `max(compute, mem)`. The first tile's
    /// fetch cannot be hidden and is charged as a prologue, and a
    /// resident weight's one-time DDR fill is charged the same way.
    pub(crate) fn gemm_cycles(&self, g: &TiledGemm) -> u64 {
        gemm_cycles_for(&self.cfg, g)
    }

    fn op_cycles(&self, op: &TiledOp, s: usize, s_kv: usize) -> u64 {
        match op {
            TiledOp::Gemm(g) => self.gemm_cycles(g),
            TiledOp::Softmax { .. } => {
                // R lanes serve R score rows at a time.
                let passes = s.div_ceil(self.cfg.rows) as u64;
                passes * softmax_module::latency_after_last_input(s_kv).get()
            }
            TiledOp::LayerNorm => {
                let d = self.cfg.base.model.d_model;
                let passes = s.div_ceil(self.cfg.rows) as u64;
                passes
                    * (d as u64
                        + layernorm_module::total_tail(self.cfg.base.sched.layernorm, d).get())
            }
        }
    }
}

impl Backend for TiledBackend {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "tiled-sa",
            array: (self.cfg.rows, self.cfg.cols),
            supports_mha: true,
            supports_ffn: true,
            exact: true,
            weight_compression: 1.0,
        }
    }

    /// Area: `R × C` LUT-fabric PEs, `R` softmax + LayerNorm lanes,
    /// double-buffered `A`/`B`/`C` tile SRAM, per-row control — and by
    /// default **no weight memory** (weights stream from DDR; that is
    /// the point of the design). A non-zero
    /// [`TiledConfig::weight_cache_bytes`] adds a single-buffered BRAM
    /// block of that capacity (no double buffering: a resident weight is
    /// filled once, then only read).
    fn area(&self) -> Resources {
        let pes = (self.cfg.rows * self.cfg.cols) as f64;
        let rows = self.cfg.rows as f64;
        let pe = Resources::new(area::LUT_PER_PE * pes, area::FF_PER_PE * pes, 0.0, 0.0);
        let lanes = Resources::new(
            (area::LUT_PER_SOFTMAX_LANE + area::LUT_PER_LN_LANE) * rows,
            (area::FF_PER_SOFTMAX_LANE + area::FF_PER_LN_LANE) * rows,
            0.0,
            0.0,
        );
        let a_buf = MemorySpec::new((self.cfg.rows * self.cfg.tile_k) as u64, 8).bram36_blocks();
        let b_buf = MemorySpec::new((self.cfg.tile_k * self.cfg.cols) as u64, 8).bram36_blocks();
        let c_buf = MemorySpec::new((self.cfg.rows * self.cfg.cols) as u64, 32).bram36_blocks();
        // double-buffered so DDR transfers overlap compute
        let wcache = if self.cfg.weight_cache_bytes > 0 {
            MemorySpec::new(self.cfg.weight_cache_bytes, 8).bram36_blocks()
        } else {
            0.0
        };
        let tile_sram = Resources::new(0.0, 0.0, 2.0 * (a_buf + b_buf + c_buf) + wcache, 0.0);
        let misc = Resources::new(
            area::MISC_LUT_PER_ROW * rows,
            area::MISC_FF_PER_ROW * rows,
            area::MISC_BRAM_PER_ROW * rows,
            0.0,
        );
        pe + lanes + tile_sram + misc
    }

    fn lower_mha(&self, g: &Graph, s_kv: usize) -> BackendProgram {
        let isa_prog = crate::exec::lower_mha(g, s_kv);
        BackendProgram::Tiled(tile_schedule(&self.cfg, &isa_prog, self.cfg.base.s, s_kv))
    }

    fn lower_ffn(&self, g: &Graph) -> BackendProgram {
        let isa_prog = crate::exec::lower_ffn(g);
        BackendProgram::Tiled(tile_schedule(
            &self.cfg,
            &isa_prog,
            self.cfg.base.s,
            self.cfg.base.s,
        ))
    }

    fn cycles(&self, prog: &BackendProgram, s_kv: usize) -> u64 {
        let s = self.cfg.base.s;
        self.program(prog)
            .ops
            .iter()
            .map(|op| self.op_cycles(op, s, s_kv))
            .sum()
    }

    fn run_mha(
        &self,
        prog: &BackendProgram,
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<i8> {
        ArrayEngine::new(self.cfg.base.s)
            .run_mha(&self.program(prog).commands(), block, xq, xkv, mask)
            .out
    }

    fn run_ffn(&self, prog: &BackendProgram, block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8> {
        ArrayEngine::new(self.cfg.base.s)
            .run_ffn(&self.program(prog).commands(), block, x)
            .out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa;
    use graph::{ffn_graph, mha_graph, GraphConfig};

    fn paper_graph_cfg() -> GraphConfig {
        GraphConfig {
            d_model: 512,
            d_ff: 2048,
            h: 8,
        }
    }

    #[test]
    fn schedule_preserves_the_command_stream() {
        let be = TiledBackend::kv260_default();
        let prog = be.lower_mha(&mha_graph(&paper_graph_cfg()), 64);
        let tiled = match &prog {
            BackendProgram::Tiled(p) => p,
            _ => unreachable!(),
        };
        assert_eq!(tiled.commands(), isa::mha_program(8, 64));
        let ffn = be.lower_ffn(&ffn_graph(&paper_graph_cfg()));
        let tiled = match &ffn {
            BackendProgram::Tiled(p) => p,
            _ => unreachable!(),
        };
        assert_eq!(tiled.commands(), isa::ffn_program(512, 2048));
    }

    #[test]
    fn tile_walk_counts_are_exact() {
        // ProjectQ at the paper point on a 16×16 grid: 64×512×64.
        let be = TiledBackend::kv260_default();
        let prog = be.lower_mha(&mha_graph(&paper_graph_cfg()), 64);
        let BackendProgram::Tiled(p) = &prog else {
            unreachable!()
        };
        let TiledOp::Gemm(g) = p.ops[0] else {
            panic!("first op should be ProjectQ's GEMM")
        };
        assert_eq!((g.m, g.k, g.n), (64, 512, 64));
        assert_eq!((g.row_tiles, g.col_tiles, g.k_tiles), (4, 4, 1));
        // A re-read per output-tile column, B per output-tile row.
        assert_eq!(g.ddr_read_bytes, (4 * 64 * 512 + 4 * 512 * 64) as u64);
        assert_eq!(g.ddr_write_bytes, 64 * 64);
    }

    #[test]
    fn cycle_model_is_bandwidth_aware() {
        // Starving the DDR interface must slow the schedule down; a
        // huge interface must leave it compute-bound and insensitive.
        let mk = |bw: u64| {
            let cfg = TiledConfig {
                ddr_bytes_per_cycle: bw,
                ..TiledConfig::kv260_default()
            };
            let be = TiledBackend::new(cfg);
            let prog = be.lower_ffn(&ffn_graph(&paper_graph_cfg()));
            be.cycles(&prog, 64)
        };
        let starved = mk(1);
        let nominal = mk(8);
        let wide = mk(1 << 20);
        let wider = mk(1 << 21);
        assert!(starved > nominal, "{starved} vs {nominal}");
        assert!(nominal > wide);
        assert_eq!(wide, wider, "compute-bound regime");
    }

    #[test]
    fn smaller_grid_is_slower_but_smaller() {
        let mk = |rc: usize| {
            let cfg = TiledConfig {
                rows: rc,
                cols: rc,
                ..TiledConfig::kv260_default()
            };
            let be = TiledBackend::new(cfg);
            let prog = be.lower_mha(&mha_graph(&paper_graph_cfg()), 64);
            (be.cycles(&prog, 64), be.area().lut)
        };
        let (c8, a8) = mk(8);
        let (c32, a32) = mk(32);
        assert!(c8 > c32, "fewer PEs must cost cycles: {c8} vs {c32}");
        assert!(a8 < a32, "fewer PEs must save LUTs");
    }

    #[test]
    fn weight_cache_cuts_ddr_rereads_monotonically() {
        // DDR traffic and cycles must never grow as the cache grows,
        // and a cache big enough for every weight must strictly beat
        // the streaming baseline on both.
        let mk = |wc: u64| {
            let cfg = TiledConfig {
                weight_cache_bytes: wc,
                ..TiledConfig::kv260_default()
            };
            let be = TiledBackend::new(cfg);
            let mha = be.lower_mha(&mha_graph(&paper_graph_cfg()), 64);
            let ffn = be.lower_ffn(&ffn_graph(&paper_graph_cfg()));
            let (BackendProgram::Tiled(pm), BackendProgram::Tiled(pf)) = (&mha, &ffn) else {
                unreachable!()
            };
            (
                pm.ddr_bytes() + pf.ddr_bytes(),
                be.cycles(&mha, 64) + be.cycles(&ffn, 64),
            )
        };
        let sweep: Vec<(u64, u64)> = [0u64, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
            .iter()
            .map(|&w| mk(w))
            .collect();
        for w in sweep.windows(2) {
            assert!(w[1].0 <= w[0].0, "DDR bytes grew with cache: {sweep:?}");
            assert!(w[1].1 <= w[0].1, "cycles grew with cache: {sweep:?}");
        }
        let (cold_ddr, cold_cyc) = sweep[0];
        let (hot_ddr, hot_cyc) = *sweep.last().unwrap();
        assert!(hot_ddr < cold_ddr, "{hot_ddr} vs {cold_ddr}");
        assert!(hot_cyc < cold_cyc, "{hot_cyc} vs {cold_cyc}");
    }

    #[test]
    fn weight_cache_pins_weights_but_never_activation_panels() {
        let cfg = TiledConfig {
            weight_cache_bytes: u64::MAX,
            ..TiledConfig::kv260_default()
        };
        let be = TiledBackend::new(cfg);
        let prog = be.lower_mha(&mha_graph(&paper_graph_cfg()), 64);
        let BackendProgram::Tiled(p) = &prog else {
            unreachable!()
        };
        for op in &p.ops {
            if let TiledOp::Gemm(g) = op {
                match g.src {
                    Command::ScoreTile { .. } | Command::Context { .. } => assert!(
                        !g.weight_resident,
                        "K/V panels are activations, never cached: {:?}",
                        g.src
                    ),
                    _ => assert!(g.weight_resident, "weight not pinned: {:?}", g.src),
                }
            }
        }
        // Resident ProjectQ reads its weight once instead of per
        // output-tile row (cf. tile_walk_counts_are_exact's 4×).
        let TiledOp::Gemm(g) = p.ops[0] else {
            panic!("first op should be ProjectQ's GEMM")
        };
        assert_eq!(g.ddr_read_bytes, (4 * 64 * 512 + 512 * 64) as u64);
    }

    #[test]
    fn weight_cache_costs_bram() {
        let base = TiledBackend::kv260_default().area().bram;
        let cached = TiledBackend::new(TiledConfig {
            weight_cache_bytes: 256 << 10,
            ..TiledConfig::kv260_default()
        })
        .area()
        .bram;
        assert!(cached > base, "{cached} vs {base}");
    }

    #[test]
    fn tiled_area_is_far_below_the_paper_point() {
        let be = TiledBackend::kv260_default();
        let paper = crate::area::AreaModel::new(AccelConfig::paper_default()).top();
        let tiled = be.area();
        assert!(
            tiled.lut < paper.lut / 4.0,
            "{} vs {}",
            tiled.lut,
            paper.lut
        );
        assert!(tiled.bram < paper.bram, "no on-chip weight store");
    }
}
