//! FP32 reference Transformer, after Vaswani et al., *Attention Is All You
//! Need* (2017) — the model the SOCC'20 accelerator targets.
//!
//! This crate is the **accuracy substrate** of the reproduction:
//!
//! * the exact floating-point semantics of the MHA ResBlock and the FFN
//!   ResBlock (Eqs. 1–2 and Fig. 3 of the paper), against which the INT8
//!   datapath and the accelerator simulator are validated;
//! * the Table-I model configurations ([`config`]);
//! * a full encoder–decoder stack with **manual-gradient training**
//!   ([`train`], [`opt`]) so the Section V-A quantization experiment can
//!   be reproduced end-to-end on a synthetic translation task
//!   ([`tasks`]) scored with real corpus BLEU ([`bleu`]).
//!
//! Layers follow a cached forward/backward discipline: `forward` stores
//! what `backward` needs; `backward` consumes it and accumulates parameter
//! gradients in place. Gradient correctness is enforced by
//! finite-difference tests in every layer module.
//!
//! # Example
//!
//! ```
//! use transformer::config::ModelConfig;
//! use transformer::mha::MhaResBlock;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = ModelConfig::tiny_for_tests();
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut block = MhaResBlock::new(&cfg, &mut rng);
//! let x = tensor::init::normal(&mut rng, 4, cfg.d_model, 1.0);
//! let y = block.forward(&x, &x, &x, None);
//! assert_eq!(y.shape(), x.shape());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod batching;
pub mod bleu;
pub mod checkpoint;
pub mod config;
pub mod decode;
pub mod decoder;
pub mod embedding;
pub mod encoder;
pub mod exec;
pub mod ffn;
pub mod functional;
pub mod greedy;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod mha;
pub mod model;
pub mod opt;
pub mod positional;
pub mod tasks;
pub mod train;

pub use config::ModelConfig;
pub use model::Seq2SeqTransformer;
pub use opt::HasParams;
