//! The SOCC'20 Transformer accelerator, as a bit- and cycle-accurate
//! simulation.
//!
//! This crate is the reproduction of the paper's contribution proper:
//!
//! * [`partition`] — the Fig. 4 scheme that splits `W_G`, `W_1`, `W_2`
//!   into 64-column panels so a single `s x 64` systolic array serves
//!   both ResBlocks, plus the `Q_i K_i^T` padding/tiling rule;
//! * [`systolic`] — the `s x 64` INT8 systolic array: a functional
//!   PE-array simulation *and* the stream/drain timing model;
//! * [`softmax_module`] — the four-stage scaled masked-softmax timing
//!   (numerics live in [`quantized::softmax`]);
//! * [`layernorm_module`] — the Fig. 7 latency-optimised LayerNorm
//!   timing in all three published variants;
//! * [`exec`] / [`isa`] — Algorithm 1 as data: the ResBlock operator
//!   graphs lowered to a command stream, its bit-exact interpreter and
//!   the one timing walk that places each command on the SA / drain /
//!   Softmax / LayerNorm units, with the paper's two overlap
//!   optimisations as toggleable policies;
//! * [`scheduler`] — [`ScheduleReport`]s (cycles, SA utilization,
//!   Gantt timeline) read off that walk for the MHA and FFN ResBlocks;
//! * [`backend`] — the [`Backend`] trait, the public way to lower and
//!   run a ResBlock; [`PaperBackend`] is this paper's design, beside the
//!   tiled and block-circulant alternatives;
//! * [`engine`] — the register-true PE-grid reference with the ABFT and
//!   fault-injection seams, kept independent of the interpreter so the
//!   two can be compared;
//! * [`area`] — a parametric LUT/FF/BRAM/DSP model calibrated to the
//!   paper's Table II, plus the 16.7 W power point;
//! * [`analysis`] — Eq. (3) and MAC/parameter counting;
//! * [`top`] — the [`Accelerator`] facade: loaded weights and length
//!   checks over [`PaperBackend`].
//!
//! # Example
//!
//! ```
//! use accel::{AccelConfig, Accelerator};
//! use transformer::config::ModelConfig;
//!
//! let cfg = AccelConfig::paper_default(); // Transformer-base, s = 64
//! let accel = Accelerator::new(cfg);
//! let mha = accel.schedule_mha();
//! let ffn = accel.schedule_ffn();
//! // Paper: 21,344 and 42,099 cycles; the model is within ~15%.
//! assert!((mha.cycles.get() as f64 - 21_344.0).abs() / 21_344.0 < 0.15);
//! assert!((ffn.cycles.get() as f64 - 42_099.0).abs() / 42_099.0 < 0.20);
//! let _ = ModelConfig::transformer_base();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod area;
pub mod backend;
pub mod circulant;
pub mod config;
pub mod datamem;
pub mod engine;
pub mod exec;
pub mod explorer;
pub mod isa;
pub mod layernorm_module;
pub mod pareto;
pub mod partition;
pub mod pipeline;
pub mod rtl;
pub mod scheduler;
pub mod softmax_module;
pub mod sweep;
pub mod systolic;
pub mod tiled;
pub mod top;
pub mod weights;

pub use backend::{Backend, BackendCaps, BackendProgram, PaperBackend};
pub use circulant::CirculantBackend;
pub use config::{AccelConfig, LayerNormMode, SchedPolicy};
pub use engine::{ArrayEngine, CheckMode, EngineRun, EngineStats, Fidelity};
pub use exec::{lower_ffn, lower_mha};
pub use isa::{validate_ffn_program, validate_mha_program, ProgramFault};
pub use scheduler::ScheduleReport;
pub use tiled::{TiledBackend, TiledConfig};
pub use top::Accelerator;
