//! Real network I/O for the cluster daemons.
//!
//! * [`ready`] — level-triggered `poll(2)` readiness and a self-pipe
//!   waker, the one blocking point of every event loop;
//! * [`vectored`] — `writev(2)` of queued frames, tolerant of partial
//!   writes;
//! * [`fault`] — deterministic edge-sever plans the chaos tests
//!   inject into the transport.
//!
//! The simulator's network cost model lives in `ms_sim::net`; nothing
//! here depends on it.

#![warn(missing_docs)]

pub mod fault;
pub mod ready;
pub mod vectored;
