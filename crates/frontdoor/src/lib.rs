//! Overload-safe multi-tenant TCP front door for the continuous
//! batching engine.
//!
//! The accelerator work in this workspace ends at
//! [`serving::ContinuousBatcher`] — an in-process engine. This crate
//! puts a network in front of it without giving up the properties the
//! rest of the stack works hard for: bounded memory under any offered
//! load, bit-identical decoding no matter how hostile the traffic,
//! and no failure mode in which a client can panic or wedge the
//! engine thread.
//!
//! The pieces, bottom-up:
//!
//! * [`poll`] — a hand-rolled readiness abstraction (real `epoll` on
//!   Linux via the C ABI `std` already links, a scan fallback
//!   elsewhere); the offline-deps policy means no `mio`/`tokio` here.
//! * [`frame`] — the length-prefixed wire protocol and an incremental
//!   decoder whose parsing is total: garbage bytes produce a typed
//!   error, never a panic.
//! * [`admission`] — per-tenant token-bucket quotas, three priority
//!   classes, and a bounded staging buffer that sheds
//!   lowest-priority-first instead of growing.
//! * [`server`] — the single-threaded event loop that owns the
//!   sockets *and* the engine: accept → parse → admit → feed → step →
//!   stream → flush → reap, with wall-clock deadlines, write budgets,
//!   idle timeouts, and disconnect-cancels-request semantics.
//! * [`client`], [`chaos`] — a blocking protocol client and the chaos
//!   scenarios the integration tests and CI soak job run against a live
//!   door. (Load generation lives with the benchmark: `spine`'s
//!   `wire_open` workload drives a door with its own seeded open-loop
//!   generator, `benchmark/src/gen.rs`.)

#![deny(unsafe_code)] // narrowly re-allowed in `poll` for the epoll FFI
#![warn(missing_docs)]

pub mod admission;
pub mod chaos;
pub mod client;
pub mod frame;
pub mod poll;
pub(crate) mod server;

pub use admission::{Admission, AdmissionConfig};
pub use client::{Client, Completion};
pub use frame::{ClientFrame, Decoder, RejectCode, ServerFrame, Submit};
pub use server::{DoorConfig, DoorStats, FrontDoor};
