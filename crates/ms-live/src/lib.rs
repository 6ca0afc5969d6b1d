//! The operator-host layer of the Meteor Shower token protocol.
//!
//! One HAU of MS-src (§III-A/B) as sans-IO state machines —
//! [`SourceCore`] (preserve before send; mark → snapshot → token;
//! replay on recovery) and [`InteriorCore`] (token alignment, cut,
//! forward) — plus what they persist through: the [`Persister`] that
//! serializes and writes captures off the hot path, the
//! [`StableStore`] contract, the checkpoint payload codec, and
//! [`FsStore`], the filesystem store every process of a cluster shares.
//!
//! The hosts own no threads, sockets or clocks; their only I/O goes
//! through the store they are handed. `ms-wire` drives them from its
//! poll(2) I/O thread across OS processes, `ms-gate`
//! feeds a source core from producer connections, and this crate's
//! tests pump them deterministically on one thread over an `FsStore`
//! in a temp directory.
//!
//! Scope: one operator per HAU; acyclic graphs.

#![warn(missing_docs)]

pub mod ckpt_codec;
pub mod host;
pub mod protocol;
pub mod storage;
pub mod store;

pub use host::{
    Capture, DurableHook, HostExit, HostMsg, HostWiring, InteriorCore, Outbox, OutputRoute,
    PersistItem, Persister, RouteKeyFn, SourceCore, STATE_GAUGE_SAMPLE_EVERY,
};
pub use protocol::{CountSource, Doubler, Summer};
pub use storage::{
    CkptState, CkptWrite, CkptWritten, LiveHauCheckpoint, RebasePolicy, StableStore,
};
pub use store::FsStore;
