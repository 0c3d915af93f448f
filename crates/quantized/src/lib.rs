//! Bit-accurate INT8 datapath of the SOCC'20 accelerator.
//!
//! This crate computes *exactly* what the synthesized hardware computes:
//! symmetric INT8 GEMMs with `i32` accumulation and fixed-point
//! requantization ([`qlinear`]), the multiplier-free scaled
//! masked-softmax of Fig. 6 ([`softmax`]), and the LayerNorm pipeline of
//! Fig. 8 with the `var = E[G²] − E[G]²` reformulation of Eq. (9)
//! ([`layernorm`]). The cycle-level simulator in the `accel` crate reuses
//! these functions verbatim, so timing and numerics can never diverge.
//!
//! The quantization flow follows the paper's Section V-A two-step recipe:
//!
//! 1. quantize every trainable matrix and activation matrix of Fig. 3
//!    with INT8 while keeping the softmax internals in FP32
//!    ([`SoftmaxMode::Fp32`]);
//! 2. replace the softmax with the shift-add hardware pipeline
//!    ([`SoftmaxMode::Hardware`]).
//!
//! # Example
//!
//! ```
//! use quantized::{QuantMhaResBlock, SoftmaxMode};
//! use transformer::{config::ModelConfig, mha::MhaResBlock};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = ModelConfig::tiny_for_tests();
//! let mut rng = StdRng::seed_from_u64(0);
//! let block = MhaResBlock::new(&cfg, &mut rng);
//! let calib: Vec<_> = (0..4)
//!     .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
//!     .collect();
//! let qblock = QuantMhaResBlock::from_f32(&block, &calib, &calib, SoftmaxMode::Hardware);
//! let x = &calib[0];
//! let xq = qblock.quantize_input_q(x);
//! let (y_codes, _) = qblock.forward(&xq, &xq, None);
//! assert_eq!(y_codes.shape(), (8, cfg.d_model));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod exec;
pub mod ffn;
pub mod incremental;
pub mod layernorm;
pub mod mha;
pub mod model;
pub mod qlinear;
pub mod softmax;
pub mod sqnr;

pub use exec::{attention_cohorts, cached_mha_rows, CacheRef, Cohort, QVal, QuantExec};
pub use ffn::QuantFfnResBlock;
pub use mha::QuantMhaResBlock;
pub use model::QuantSeq2Seq;
pub use qlinear::{QLinear, QuantScheme};
pub use softmax::SoftmaxMode;
