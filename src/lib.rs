//! `transformer-accel` — a bit- and cycle-accurate Rust reproduction of
//! *Hardware Accelerator for Multi-Head Attention and Position-Wise
//! Feed-Forward in the Transformer* (Lu et al., IEEE SOCC 2020,
//! arXiv:2009.08605).
//!
//! This facade crate re-exports the workspace's layers:
//!
//! | crate | role |
//! |---|---|
//! | [`tensor`] | dense matrix substrate (f32/i8/i32 GEMM) |
//! | [`fixedmath`] | INT8 quantizers, shift-add EXP/LN units, rsqrt ROM |
//! | [`graph`] | operator-graph IR (MHA/FFN ResBlocks) + fusion pass + executor trait |
//! | [`transformer`] | FP32 reference model + training + BLEU |
//! | [`quantized`] | bit-exact INT8 datapath (softmax Fig. 6, LayerNorm Fig. 8) |
//! | [`faults`] | deterministic fault injection + ABFT checksum checking |
//! | [`serving`] | continuous-batching inference engine over the INT8 decoder |
//! | [`hwsim`] | cycle-level simulation framework + FPGA resource vocab |
//! | [`accel`] | the paper's accelerator: SA, scheduler (Algorithm 1), area model |
//! | [`baseline`] | calibrated V100/PyTorch latency model + CPU baseline |
//!
//! # Quickstart
//!
//! ```
//! use transformer_accel::accel::{scheduler, AccelConfig};
//!
//! let mha = scheduler::schedule_mha(&AccelConfig::paper_default());
//! println!(
//!     "MHA ResBlock: {} cycles = {:.1} us @ 200 MHz (paper: 21,344 / 106.7 us)",
//!     mha.cycles.get(),
//!     mha.latency_us
//! );
//! assert!(mha.sa_utilization > 0.95);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench/src/bin/`
//! for the per-table/figure experiment harness (E1–E16, E18, E19 in
//! DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use accel;
pub use baseline;
pub use faults;
pub use fixedmath;
pub use graph;
pub use hwsim;
pub use quantized;
pub use serving;
pub use tensor;
pub use transformer;

#[cfg(test)]
mod top;
