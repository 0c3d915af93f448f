//! Operator-graph IR for the paper's two ResBlocks, plus the value
//! environment ([`Env`]) every whole-block forward path in the workspace
//! runs it in.
//!
//! The paper's core claim is that **one** shared `s × 64` systolic array
//! executes both the MHA and FFN ResBlocks under a single Algorithm-1
//! schedule. This crate makes that "one dataflow, many backends" idea
//! first-class in software: the ResBlock dataflow is written down once
//! as a small graph of named-tensor operators ([`mha_graph`],
//! [`ffn_graph`]). Two executors *interpret* it node by node, each
//! through an inherent `run` (no caller picks one generically, so there
//! is no trait between them):
//!
//! | Executor | Crate | Interprets the graph as |
//! |---|---|---|
//! | `FloatExec` | `transformer` | FP32 reference ops |
//! | `QuantExec` | `quantized` | bit-exact INT8/fixed-point ops |
//!
//! The accelerator models do not interpret the graph, they *lower* it:
//! an `accel::Backend` turns the same graph into its own program
//! (`isa::Command` streams for the paper's array) and then runs and
//! times that program.
//!
//! Cached-KV incremental decoding is **not** an executor: the
//! attention ResBlock over per-session caches is a plain function,
//! `quantized::cached_mha_rows`. It fuses the per-head group into one
//! kernel rather than walking nodes, and its inputs are borrowed caches
//! of differing lengths that no other executor can take (the
//! accelerator lowering rejects the cached kind) — as an executor it
//! would only add a name-keyed environment for its one caller to build
//! and unwrap around every call. The dataflow
//! it implements is still written down as [`mha_cached_graph`], which
//! the fusion pass's tests consume.
//!
//! The non-negotiable invariant is **bit-identity**: every executor
//! and every exact backend produces exactly the bits its hand-rolled
//! predecessor produced, so the graph refactor can never silently
//! change a decode, a BLEU score or a cycle count. Differential tests
//! in each crate (and at the workspace root) enforce this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
pub mod fuse;
mod graph;
mod op;
pub mod tally;

pub use exec::Env;
pub use fuse::fuse;
pub use graph::{
    ffn_graph, mha_cached_graph, mha_graph, ExecPlan, Graph, GraphConfig, GraphKind, Node, PlanStep,
};
pub use op::{Op, WeightId};
pub use tally::FusionTally;
