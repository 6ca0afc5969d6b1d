//! Storage cost model: shared storage, local disks, checkpoint store
//! and tuple-preservation buffers.
//!
//! The paper assumes "a shared storage system in the data center where
//! computing nodes can share data … implemented by a central storage
//! system or a distributed storage system like GFS" (§III), plus a
//! local disk per node used for optional double-saving of checkpoints
//! and for the baseline's input-preservation spill (50 MB in-memory
//! buffer, dumped to disk when full, §II-B3).
//!
//! Like [`crate::net`], this module is a deterministic cost model plus
//! data plane: devices compute *when* an access completes; the stores
//! keep the actual bytes so recovery restores real state.

pub use crate::checkpoint::{CheckpointStore, HauCheckpoint};
pub use crate::device::BwDevice;
pub use crate::preserve::{InputPreservationBuffer, SourceLog, SpillAction};

use ms_core::time::SimDuration;

/// Storage configuration (bandwidths in bytes/second).
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Aggregate effective *write* bandwidth of the shared storage
    /// service as observed by the whole cluster. The paper's EC2
    /// measurements imply ≈7.5 MB/s effective under 55-way contention
    /// (Fig. 14: e.g. SignalGuru's ~1 GB state takes ~133 s of disk
    /// I/O); this default reproduces that regime.
    pub shared_write_bw: u64,
    /// Aggregate effective *read* bandwidth of the shared storage
    /// service (recovery path). Fig. 16 implies ≈25 MB/s.
    pub shared_read_bw: u64,
    /// Per-node local disk bandwidth (spills, double-saves).
    pub local_disk_bw: u64,
    /// Fixed per-access overhead (request setup, seek, metadata).
    pub access_overhead: SimDuration,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            shared_write_bw: 7_500_000,
            shared_read_bw: 25_000_000,
            local_disk_bw: 60_000_000,
            access_overhead: SimDuration::from_millis(5),
        }
    }
}
