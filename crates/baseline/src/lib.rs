//! Comparison baselines for Table III.
//!
//! * [`gpu`] — a calibrated latency model of the paper's GPU baseline
//!   (Transformer base on an NVIDIA V100 through PyTorch, batch 1,
//!   `s = 64`). At batch 1 the GPU is *framework/launch-overhead
//!   dominated*: the kernel-heavy MHA ResBlock pays ~21 per-op
//!   overheads while the GEMM-heavy FFN pays only ~6 — which is exactly
//!   why the paper measures a 14.6× speed-up on MHA but only 3.4× on
//!   FFN. The model makes that mechanism explicit and is calibrated to
//!   reproduce the two published latencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gpu;

pub use gpu::GpuModel;
