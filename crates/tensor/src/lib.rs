//! Dense row-major matrix substrate for the `transformer-accel` workspace.
//!
//! The crate provides a small, dependency-light matrix library tuned for the
//! needs of the SOCC'20 Transformer-accelerator reproduction:
//!
//! * [`Mat<T>`] — an owned, row-major, 2-D array with shape-checked
//!   operations and cheap row access;
//! * floating-point GEMM ([`gemm::matmul`]) and the integer GEMM used by the
//!   INT8 datapath ([`gemm::matmul_i8`], producing `i32` accumulators);
//! * broadcast / elementwise helpers ([`ops`]) mirroring the operations that
//!   appear in the paper's Fig. 3 (bias add, residual add, ReLU, masking);
//! * deterministic random initialisation ([`init`]) for tests, benches and
//!   model construction.
//!
//! # Example
//!
//! ```
//! use tensor::{Mat, gemm};
//!
//! # fn main() -> Result<(), tensor::ShapeError> {
//! let a = Mat::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Mat::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
//! let c = gemm::matmul(&a, &b)?;
//! assert_eq!(c.shape(), (2, 2));
//! assert_eq!(c[(0, 0)], 10.0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD microkernels ([`simd`]) and the
// persistent pool ([`par`]: the scoped-lifetime extension and the
// `sched_setaffinity` worker-pinning syscall) carry the only documented
// `#[allow(unsafe_code)]` exemptions; everything else in the crate
// remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod envcfg;
mod error;
pub mod gemm;
pub mod init;
pub mod kvpool;
mod mat;
pub mod norm;
pub mod ops;
pub mod par;
pub mod phase;
mod policy;
pub mod prepack;
pub mod simd;

pub use error::ShapeError;
pub use mat::Mat;
pub use policy::Policy;
