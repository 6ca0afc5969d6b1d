//! `ms-gate`: the Meteor Shower ingestion gateway.
//!
//! A gateway is a hardware-accelerated unit (HAU) that sits on the
//! engine's front edge and absorbs high-rate producer traffic the way
//! the paper's input managers do:
//!
//! - **No thread of its own, thousands of connections.** A [`Gate`]'s
//!   producer sockets join its host's `poll(2)` loop (`ms-net`), so the
//!   gate, its connections and the worker's other HAUs share a thread.
//! - **Ack-after-WAL.** A batch is acknowledged only after every tuple
//!   it produced is framed into the worker's preservation log. An
//!   acked event therefore survives SIGKILL of the hosting worker and
//!   replays through the standard `resume_seq` recovery machinery.
//! - **Per-key pre-aggregation.** Within a batch, events sharing a key
//!   fold into one tuple before they ever touch the log or an engine
//!   edge, shrinking both WAL and edge volume on skewed workloads.
//! - **Admission-level load shedding.** A bounded per-checkpoint
//!   budget in event bytes sheds overload at the socket with
//!   an explicit `Busy { retry_after_ms }` ack instead of letting
//!   queues grow without bound; shed batches are provably absent
//!   downstream because they never reach the log.
//!
//! The wire alphabet ([`ms_core::gate::GateMsg`]) and admission
//! configuration ([`ms_core::gate::GateConfig`]) live in `ms-core` so
//! that producers need no dependency on this crate.

#![warn(missing_docs)]

pub mod admission;
pub mod meter;
pub mod run;

pub use admission::{field, is_fin_marker, Admission, FrameStep, GateCore};
pub use meter::GateSample;
pub use run::{listen, Gate, GateOp, GateWiring};
