//! The Meteor Shower DSPS engine and fault-tolerance schemes.
//!
//! This crate assembles the substrate (`ms-sim`: the event kernel and
//! the network, storage and cluster cost models) into a full simulated
//! Distributed Stream Processing System and implements the four
//! schemes the paper evaluates:
//!
//! * **Baseline** — independent periodic synchronous checkpoints with
//!   input preservation (the state of the art the paper compares
//!   against, §II-B3);
//! * **MS-src** — token-coordinated application checkpoints with
//!   source preservation (§III-A);
//! * **MS-src+ap** — plus parallel, asynchronous (COW-child)
//!   checkpointing via controller-broadcast 1-hop tokens (§III-B);
//! * **MS-src+ap+aa** — plus application-aware checkpoint timing
//!   driven by the state-size profiler (§III-C).
//!
//! Entry point: implement [`AppSpec`] (or use the apps in `ms-apps`),
//! build an [`Engine`] with an [`EngineConfig`], call
//! [`Engine::run`], and read the [`RunReport`].
//!
//! ```
//! use ms_core::graph::QueryNetwork;
//! use ms_core::operator::Passthrough;
//! use ms_runtime::{AppSpec, Engine, EngineConfig, SimpleApp};
//! use ms_core::time::SimDuration;
//!
//! let mut qn = QueryNetwork::new();
//! let src = qn.add_operator("src");
//! let sink = qn.add_operator("sink");
//! qn.connect(src, sink).unwrap();
//! // A pass-through "application" (sources need timers to emit, so
//! // real apps implement Operator; see ms-apps for full examples).
//! let app = SimpleApp::new("demo", qn, |_, _| {
//!     Box::new(Passthrough::new()) as Box<dyn ms_core::operator::Operator>
//! });
//! let cfg = EngineConfig {
//!     warmup: SimDuration::from_secs(1),
//!     measure: SimDuration::from_secs(5),
//!     ..EngineConfig::default()
//! };
//! let report = Engine::new(app, cfg).unwrap().run();
//! assert_eq!(report.app, "demo");
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod config;
pub mod engine;
pub mod event;
pub mod hau;
pub mod report;

pub use app::{AppSpec, SimpleApp};
pub use config::{EngineConfig, FailTarget, FailurePlan};
pub use engine::Engine;
pub use hau::EmitCtx;
pub use report::{CheckpointRecord, RecoveryRecord, RunReport};
