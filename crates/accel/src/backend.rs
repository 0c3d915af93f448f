//! The backend seam: one trait over the graph IR, many accelerator
//! architectures behind it.
//!
//! The paper's `s × 64` systolic design used to be the *only* way a
//! [`graph::Graph`] could reach hardware; this module turns it into one
//! of several [`Backend`]s. A backend is four things:
//!
//! 1. a **capability descriptor** ([`BackendCaps`]) — name, PE-grid
//!    geometry, which ResBlocks it can run, whether it is bit-exact
//!    against the quantized reference, and its weight-compression
//!    factor;
//! 2. a **lowering** from the *shared* graph builders
//!    ([`graph::mha_graph`] / [`graph::ffn_graph`]) to a
//!    backend-specific [`BackendProgram`] — no backend constructs its
//!    own graphs;
//! 3. a **cycle model** interpreting that program on the backend's
//!    units ([`Backend::cycles`]) and an **area model**
//!    ([`Backend::area`]);
//! 4. a **bit-level executor** ([`Backend::run_mha`] /
//!    [`Backend::run_ffn`]) whose output either equals the quantized
//!    reference exactly (`caps().exact`) or lands within the backend's
//!    documented SQNR bound (the FTRANS-style circulant backend).
//!
//! Implementations:
//!
//! * [`PaperBackend`] — the SOCC'20 engine: the graph lowering
//!   ([`crate::exec`]), the two interpreters of the lowered command
//!   stream ([`crate::isa`]: bit-exact execution and the one timing
//!   walk) and the Table-II area model. It is the public way to run a
//!   ResBlock on the modelled array — [`crate::top::Accelerator`] is a
//!   length-checked wrapper over it (golden ISA programs, schedules and
//!   the MHA 20998 / FFN 35846 cycle pins are asserted by
//!   `tests/isa_golden.rs`);
//! * [`crate::tiled::TiledBackend`] — a KV260-style small tiled array
//!   with explicit DDR tile traffic and a bandwidth-aware cycle model;
//! * [`crate::circulant::CirculantBackend`] — FTRANS-style
//!   block-circulant FFN weights executed via a fixed-point FFT unit.
//!
//! The cross-backend design-space explorer ([`crate::explorer`]) walks
//! `Vec<Box<dyn Backend>>` and emits a cycles × area × accuracy Pareto
//! front.

use graph::Graph;
use hwsim::resources::Resources;
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use tensor::Mat;

use crate::area::AreaModel;
use crate::config::AccelConfig;
use crate::isa::{self, Command};

/// What a backend can do and how it is built — the static half of the
/// trait, used by the explorer to route work and label points.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCaps {
    /// Short stable identifier (`"paper-sa"`, `"tiled-sa"`,
    /// `"ftrans-circulant"`).
    pub name: &'static str,
    /// PE-grid geometry `(rows, cols)`; for the circulant backend this
    /// is the FFT unit's butterfly count expressed as a `(lanes, 1)`
    /// grid.
    pub array: (usize, usize),
    /// Whether [`Backend::lower_mha`] / [`Backend::run_mha`] are
    /// implemented.
    pub supports_mha: bool,
    /// Whether [`Backend::lower_ffn`] / [`Backend::run_ffn`] are
    /// implemented.
    pub supports_ffn: bool,
    /// `true` iff the executor is bit-identical to the quantized
    /// reference datapath on every input.
    pub exact: bool,
    /// Weight-storage compression factor (`1.0` = uncompressed; a
    /// block-circulant backend with block size `b` stores `b` real
    /// numbers per `b × b` block — a kernel's half-spectrum — so `b×`
    /// fewer weights).
    pub weight_compression: f64,
}

/// A lowered program, backend-tagged. Keeping this an enum (rather than
/// an associated type) keeps [`Backend`] object-safe so the explorer
/// can hold heterogeneous `Box<dyn Backend>` collections.
#[derive(Debug, Clone)]
pub enum BackendProgram {
    /// The paper backend's Algorithm-1 command stream.
    Isa(Vec<Command>),
    /// The tiled-SA backend's tile schedule (ISA commands expanded into
    /// DDR-tile traffic).
    Tiled(crate::tiled::TiledProgram),
    /// The circulant backend's FFT-unit schedule.
    Circulant(crate::circulant::CircProgram),
}

impl BackendProgram {
    /// Number of top-level operations in the program.
    pub fn len(&self) -> usize {
        match self {
            BackendProgram::Isa(p) => p.len(),
            BackendProgram::Tiled(p) => p.ops.len(),
            BackendProgram::Circulant(p) => p.ops.len(),
        }
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One accelerator architecture behind the graph IR. See the module
/// docs for the contract; all methods take `&self` — backends are
/// descriptions of an architecture, and execution carries no
/// *observable* cross-run state: a backend may keep weight-derived
/// state resident between runs, as the hardware keeps its weights (the
/// circulant backend's kernel spectra), provided every run returns
/// exactly what a fresh backend would.
pub trait Backend {
    /// The capability descriptor.
    fn caps(&self) -> BackendCaps;

    /// Resource cost of instantiating this backend.
    fn area(&self) -> Resources;

    /// Lowers the shared [`graph::mha_graph`] dataflow at key/value
    /// length `s_kv`.
    ///
    /// # Panics
    ///
    /// Panics if `caps().supports_mha` is `false` or the graph is not
    /// an MHA graph.
    fn lower_mha(&self, g: &Graph, s_kv: usize) -> BackendProgram;

    /// Lowers the shared [`graph::ffn_graph`] dataflow.
    ///
    /// # Panics
    ///
    /// Panics if `caps().supports_ffn` is `false` or the graph is not
    /// an FFN graph.
    fn lower_ffn(&self, g: &Graph) -> BackendProgram;

    /// Cycle count of a lowered program on this backend's units
    /// (`s_kv` = sequence length of the workload, as in
    /// [`crate::isa::schedule_program`]).
    ///
    /// # Panics
    ///
    /// Panics if the program was lowered by a different backend.
    fn cycles(&self, prog: &BackendProgram, s_kv: usize) -> u64;

    /// Executes a lowered MHA program against a quantized block.
    ///
    /// # Panics
    ///
    /// Panics if MHA is unsupported or the program is foreign.
    fn run_mha(
        &self,
        prog: &BackendProgram,
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<i8>;

    /// Executes a lowered FFN program against a quantized block.
    ///
    /// # Panics
    ///
    /// Panics if FFN is unsupported or the program is foreign.
    fn run_ffn(&self, prog: &BackendProgram, block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8>;
}

/// The SOCC'20 design as a [`Backend`]: the graph lowering
/// ([`crate::exec::lower_mha`] / [`crate::exec::lower_ffn`]), the
/// bit-exact interpreter of the lowered command stream, the timing walk
/// of the same stream ([`crate::isa::schedule_program`]) and the
/// Table-II area model.
#[derive(Debug, Clone)]
pub struct PaperBackend {
    cfg: AccelConfig,
}

impl PaperBackend {
    /// Wraps a configuration (usually [`AccelConfig::paper_default`]).
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The paper's published design point.
    pub fn paper_default() -> Self {
        Self::new(AccelConfig::paper_default())
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    pub(crate) fn isa<'p>(&self, prog: &'p BackendProgram) -> &'p [Command] {
        match prog {
            BackendProgram::Isa(p) => p,
            other => panic!("paper backend fed a foreign program ({} ops)", other.len()),
        }
    }
}

impl Backend for PaperBackend {
    fn caps(&self) -> BackendCaps {
        BackendCaps {
            name: "paper-sa",
            array: (self.cfg.s, crate::partition::PANEL_COLS),
            supports_mha: true,
            supports_ffn: true,
            exact: true,
            weight_compression: 1.0,
        }
    }

    fn area(&self) -> Resources {
        AreaModel::new(self.cfg.clone()).top()
    }

    fn lower_mha(&self, g: &Graph, s_kv: usize) -> BackendProgram {
        BackendProgram::Isa(crate::exec::lower_mha(g, s_kv))
    }

    fn lower_ffn(&self, g: &Graph) -> BackendProgram {
        BackendProgram::Isa(crate::exec::lower_ffn(g))
    }

    fn cycles(&self, prog: &BackendProgram, s_kv: usize) -> u64 {
        isa::schedule_program(&self.cfg, self.isa(prog), s_kv).get()
    }

    fn run_mha(
        &self,
        prog: &BackendProgram,
        block: &QuantMhaResBlock,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> Mat<i8> {
        isa::execute_mha(self.isa(prog), block, xq, xkv, mask)
    }

    fn run_ffn(&self, prog: &BackendProgram, block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8> {
        isa::execute_ffn(self.isa(prog), block, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{ffn_graph, mha_graph, GraphConfig};
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    #[test]
    fn paper_backend_lowering_and_timing_equal_the_unwrapped_stack() {
        // The trait adds nothing of its own: the command streams are
        // the `isa` programs and the cycle counts the pinned paper
        // point (MHA 20998 / FFN 35846).
        let be = PaperBackend::paper_default();
        let cfg = be.config().clone();
        let gcfg = GraphConfig {
            d_model: cfg.model.d_model,
            d_ff: cfg.model.d_ff,
            h: cfg.model.h,
        };
        let mha = be.lower_mha(&mha_graph(&gcfg), cfg.s);
        let ffn = be.lower_ffn(&ffn_graph(&gcfg));
        match (&mha, &ffn) {
            (BackendProgram::Isa(m), BackendProgram::Isa(f)) => {
                assert_eq!(*m, isa::mha_program(cfg.model.h, cfg.s));
                assert_eq!(*f, isa::ffn_program(cfg.model.d_model, cfg.model.d_ff));
            }
            _ => panic!("paper backend must lower to ISA programs"),
        }
        assert_eq!(be.cycles(&mha, cfg.s), 20_998);
        assert_eq!(be.cycles(&ffn, cfg.s), 35_846);
        let caps = be.caps();
        assert_eq!(caps.array, (64, 64));
        assert!(caps.exact && caps.supports_mha && caps.supports_ffn);
        assert_eq!(caps.weight_compression, 1.0);
        // Area passes through the Table-II model untouched.
        let top = be.area();
        assert!((top.lut - AreaModel::new(cfg).top().lut).abs() < 1e-9);
    }

    #[test]
    fn paper_backend_execution_is_bit_identical() {
        let mcfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(0xBE);
        let mha = MhaResBlock::new(&mcfg, &mut rng);
        let ffn = FfnResBlock::new(&mcfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..3)
            .map(|_| tensor::init::normal(&mut rng, 8, mcfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let xq = qmha.quantize_input_q(&calib[0]);

        let mut acfg = AccelConfig::paper_default();
        acfg.model = mcfg.clone();
        acfg.s = 8;
        let be = PaperBackend::new(acfg);
        let gcfg = GraphConfig {
            d_model: mcfg.d_model,
            d_ff: mcfg.d_ff,
            h: mcfg.h,
        };
        let prog = be.lower_mha(&mha_graph(&gcfg), 8);
        let got = be.run_mha(&prog, &qmha, &xq, &xq, None);
        let (want, _) = qmha.forward(&xq, &xq, None);
        assert_eq!(got, want);
        let mha_cycles = be.cycles(&prog, 8);
        assert_eq!(
            mha_cycles,
            isa::schedule_program(be.config(), &isa::mha_program(mcfg.h, 8), 8).get()
        );

        let x = qffn.quantize_input(&calib[1]);
        let prog = be.lower_ffn(&ffn_graph(&gcfg));
        let got = be.run_ffn(&prog, &qffn, &x);
        let (want, _) = qffn.forward(&x);
        assert_eq!(got, want);
        // A layer's cycles are the sum over the programs it ran.
        let layer = mha_cycles + be.cycles(&prog, 8);
        let blocks = crate::scheduler::schedule_mha(be.config()).cycles
            + crate::scheduler::schedule_ffn(be.config()).cycles;
        assert_eq!(layer, blocks.get());
    }

    #[test]
    #[should_panic(expected = "foreign program")]
    fn foreign_program_rejected() {
        let be = PaperBackend::paper_default();
        let prog = BackendProgram::Tiled(crate::tiled::TiledProgram { ops: vec![] });
        let _ = be.cycles(&prog, 64);
    }
}
