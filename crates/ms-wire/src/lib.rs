//! Real TCP transport and multi-process cluster runtime for the
//! Meteor Shower reproduction.
//!
//! Everything below `ms-wire` models or abstracts: the simulator
//! (`ms-runtime`) replays the protocol in virtual time, and `ms-live`
//! holds it as operator-host state machines whose only I/O is their
//! stable store ([`FsStore`], a SIGKILL-durable directory every process
//! shares). This crate is the distribution layer — those `ms-live`
//! hosts, wired across *process* boundaries by length-prefixed binary
//! frames over `TcpStream`, with a controller daemon and worker daemons
//! forming a miniature cluster on localhost (or any reachable network).
//!
//! | module | role |
//! |---|---|
//! | [`message`] | the wire alphabet ([`WireMsg`]) + frame codec |
//! | [`chaos`] | decorators around [`FsStore`]: injected disk faults ([`FaultStore`]) + transient-failure retry ([`RetryStore`]) |
//! | [`apps`] | demo operators (count source, doubler, keyed stats, summer), graph shapes and source pacing |
//! | [`worker`] | the `ms-worker` daemon: operator hosts on the event-loop core |
//! | `evloop` | the worker's data plane: one poll-driven I/O thread that runs every HAU the worker hosts — paced sources, ingestion gates, interiors, sinks |
//! | [`controller`] | the `ms-controller` daemon: deploy / pace / detect / recover |
//! | [`cadence`] | the live telemetry plane: §III-C aware barrier initiation + adaptive checkpoint cadence |
//! | [`ledger`] | the epoch-keyed run ledger (JSONL telemetry trail) + `ms_ledger` summarizer |
//! | [`args`] | the strict `--flag VALUE` parser both daemons share |
//!
//! # Run a 3-process cluster on localhost
//!
//! ```sh
//! cargo build --release -p ms-wire
//! D=$(mktemp -d)
//! target/release/ms-controller --store "$D/store" --addr-file "$D/addr" \
//!     --workers 2 --shape chain3 --limit 4000 --delay-us 300 \
//!     --result-file "$D/result" &
//! target/release/ms-worker --name wa --store "$D/store" --controller-file "$D/addr" &
//! target/release/ms-worker --name wb --store "$D/store" --controller-file "$D/addr" &
//! wait %1 && cat "$D/result"
//! ```
//!
//! Kill a worker mid-stream (`kill -9`) and start a spare with a new
//! `--name`: the controller detects the lost heartbeat, rolls the
//! survivors back, restores the latest complete checkpoint from
//! `$D/store`, sources replay their preserved logs, and the result
//! file is byte-identical to the failure-free run. The
//! `kill_recover` integration test automates exactly that.

#![warn(missing_docs)]

pub mod apps;
pub mod args;
pub mod cadence;
pub mod chaos;
pub mod controller;
mod evloop;
pub mod ledger;
pub mod message;
mod placement;
pub mod worker;

pub use apps::{build_operator, demo_network, route_key};
pub use cadence::{CheckpointCause, EpochSignals, PlaneConfig, TelemetryPlane};
pub use chaos::{FaultStore, RetryStore, StoreFaultSpec};
pub use controller::{run_controller, ClusterReport, ControllerConfig};
pub use ledger::{
    by_shard_summary, read_decisions, read_ledger, summarize, worst_shard_skew, DecisionRecord,
    LedgerFollower, LedgerRecord, LedgerWriter, LEDGER_FILE,
};
pub use message::{send_msg, Assignment, GateSpec, OpPlacement, WireMsg};
pub use ms_live::FsStore;
pub use worker::{run_worker, ControllerAddr, WorkerConfig};
