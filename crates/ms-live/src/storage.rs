//! Stable storage for the operator hosts.
//!
//! [`StableStore`] is the storage contract of the MS-src protocol:
//! individual checkpoints land in it (written by a background
//! persister thread, standing in for the forked COW child), source
//! logs are appended *before* tuples are sent (source preservation),
//! and application-checkpoint completeness is tracked exactly as in
//! `ms_sim::storage`. [`FsStore`](crate::FsStore) implements it on a
//! directory shared by every process of a cluster.
//!
//! # Incremental checkpoints
//!
//! The write side ([`CkptWrite`]) distinguishes a full snapshot from a
//! [`CkptState::Delta`] — the keys an operator changed or removed
//! since its *previous* capture, tagged with that capture's epoch (the
//! delta's base pointer; controller epochs keep increasing across
//! recoveries, so the base is explicit, never "epoch − 1"). Stores
//! keep the chain and fold it back on read: [`StableStore::get_checkpoint`]
//! always returns a complete [`LiveHauCheckpoint`], byte-identical to
//! the full snapshot the operator would have written, so every restore
//! path is oblivious to how the bytes were stored. A [`RebasePolicy`]
//! bounds recovery cost: the store rewrites a full snapshot when the
//! chain grows past `max_chain` deltas or the accumulated delta bytes
//! exceed `max_delta_pct` percent of the base, and garbage-collects
//! epochs older than the newest complete epoch's oldest needed base.
//!
//! A capture reaches the store as it left the host: bytes, or a frozen
//! [`TableView`] the store encodes straight into the checkpoint file
//! ([`CkptState::FullView`], [`CkptState::DeltaView`]). Stores take the
//! write by reference ([`StableStore::write_checkpoint`]), so a retry
//! re-reads the same capture and nothing copies it.

use ms_core::delta::{StateDelta, TableView};
use ms_core::error::Result;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::CkptFile;
use ms_core::operator::OperatorSnapshot;
use ms_core::tuple::Tuple;

/// The state portion of a checkpoint on its way to stable storage.
/// A full state and a delta each come as owned bytes or as a view;
/// both forms of one kind land as the same file bytes.
#[derive(Clone, Debug)]
pub enum CkptState {
    /// Complete serialized operator state.
    Full(OperatorSnapshot),
    /// Changes since the capture persisted at `base` (which this same
    /// operator wrote earlier — the persister is a FIFO, so the base
    /// is always durable first).
    Delta {
        /// Epoch of the previous durable capture this delta builds on.
        base: EpochId,
        /// The changed/removed key set.
        delta: StateDelta,
    },
    /// Complete operator state as a table view: the data is
    /// [`TableView::write_table`]'s bytes.
    FullView(TableView),
    /// Changes since the capture persisted at `base`, as a table view:
    /// the delta is [`TableView::write_delta`]'s bytes.
    DeltaView {
        /// Epoch of the previous durable capture this delta builds on.
        base: EpochId,
        /// The capture whose delta this is.
        view: TableView,
    },
}

impl CkptState {
    /// The operator's logical state size at capture time.
    pub fn logical_bytes(&self) -> u64 {
        match self {
            CkptState::Full(s) => s.logical_bytes,
            CkptState::Delta { delta, .. } => delta.logical_bytes,
            CkptState::FullView(view) | CkptState::DeltaView { view, .. } => view.logical_bytes(),
        }
    }

    /// The epoch a delta builds on; `None` for a full state.
    pub fn base(&self) -> Option<EpochId> {
        match self {
            CkptState::Full(_) | CkptState::FullView(_) => None,
            CkptState::Delta { base, .. } | CkptState::DeltaView { base, .. } => Some(*base),
        }
    }

    /// Encoded bytes of the state: a full state's data, or a delta's
    /// payload ([`StateDelta::encoded_bytes`]).
    pub fn encoded_bytes(&self) -> usize {
        match self {
            CkptState::Full(s) => s.data.len(),
            CkptState::Delta { delta, .. } => delta.encoded_bytes(),
            CkptState::FullView(view) => view.encoded_bytes(),
            CkptState::DeltaView { view, .. } => view.delta_bytes(),
        }
    }
}

/// One HAU's checkpoint as submitted to a store: the state capture
/// (full or delta) plus the cut metadata of [`LiveHauCheckpoint`].
#[derive(Clone, Debug)]
pub struct CkptWrite {
    /// The state capture.
    pub state: CkptState,
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// Tuples inside the alignment window at cut time.
    pub in_flight: Vec<(u32, Tuple)>,
    /// Per-input replay thresholds at the cut.
    pub resume_seq: Vec<u64>,
}

impl CkptWrite {
    /// A full-snapshot write with no in-flight portion (sources, or
    /// tests).
    pub fn full(snapshot: OperatorSnapshot, next_seq: u64) -> CkptWrite {
        CkptWrite {
            state: CkptState::Full(snapshot),
            next_seq,
            in_flight: Vec::new(),
            resume_seq: Vec::new(),
        }
    }
}

/// A store's account of one checkpoint write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CkptWritten {
    /// The epoch is now complete: every HAU has checkpointed it, each
    /// resolvable to a full snapshot.
    pub complete: bool,
    /// The file that landed: a submitted delta the store rebased is a
    /// full file, with the full file's size.
    pub file: CkptFile,
}

/// When a store rewrites a delta chain into a fresh full snapshot.
/// Both bounds cap recovery-time fold work; the byte bound also keeps
/// a chain of large deltas from costing more disk than it saves.
#[derive(Clone, Copy, Debug)]
pub struct RebasePolicy {
    /// Rebase when the chain (including the incoming delta) would hold
    /// this many deltas.
    pub max_chain: u32,
    /// Rebase when cumulative delta bytes (including the incoming
    /// delta) exceed this percentage of the base snapshot's size.
    pub max_delta_pct: u32,
}

impl Default for RebasePolicy {
    fn default() -> RebasePolicy {
        RebasePolicy {
            max_chain: 8,
            max_delta_pct: 50,
        }
    }
}

impl RebasePolicy {
    /// Should a chain of `chain_len` deltas totalling `cum_delta_bytes`
    /// on a `base_bytes` base be rebased?
    pub fn should_rebase(&self, chain_len: u32, cum_delta_bytes: u64, base_bytes: u64) -> bool {
        chain_len >= self.max_chain
            || cum_delta_bytes.saturating_mul(100)
                > base_bytes.saturating_mul(self.max_delta_pct as u64)
    }
}

/// The stable-storage contract every driver of the operator hosts
/// shares (preserve / mark / checkpoint / load — §III-A).
///
/// Implementations must be safe to call from many operator threads
/// (and, for multi-process stores, many OS processes) at once. The
/// protocol's ordering obligation sits with the *caller*: a source
/// appends a tuple to the log before sending it downstream, and marks
/// its epoch boundary when it emits the checkpoint token. For delta
/// writes, the caller additionally guarantees the base capture was
/// submitted (and therefore, under FIFO persistence, durable) first.
pub trait StableStore: Send + Sync {
    /// Persists one individual checkpoint and says what it wrote:
    /// whether `epoch` is now complete, and the file that landed
    /// ([`CkptWritten`]). An `Err` means stable storage is unusable —
    /// the caller must stop streaming and surface the failure, never
    /// continue unpreserved. The write is borrowed: a failed attempt
    /// leaves it intact for the next.
    fn write_checkpoint(
        &self,
        epoch: EpochId,
        op: OperatorId,
        ckpt: &CkptWrite,
    ) -> Result<CkptWritten>;

    /// [`StableStore::write_checkpoint`] of an owned write; returns
    /// `true` if `epoch` is now complete.
    fn put_checkpoint(&self, epoch: EpochId, op: OperatorId, ckpt: CkptWrite) -> Result<bool> {
        self.write_checkpoint(epoch, op, &ckpt).map(|w| w.complete)
    }

    /// Reads one individual checkpoint, folding any delta chain: the
    /// returned snapshot is always complete, byte-identical to the
    /// full snapshot the operator would have produced at `epoch`.
    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint>;

    /// The most recent complete application checkpoint.
    fn latest_complete(&self) -> Option<EpochId>;

    /// Source preservation: appends a run of emitted tuples in one
    /// storage round (called *before* any of them is sent downstream) —
    /// implementations amortize lock acquisition, encoding, and the
    /// write syscall across the run. The replay depends only on the
    /// tuples, never on how they were grouped into calls. `Ok` carries
    /// the bytes the log grew by (0 when every tuple was already
    /// durable); `Err` means *none* of the run may be treated as
    /// durable: the caller must not send or ack any tuple in it.
    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<u64>;

    /// Records a source's stream boundary for an epoch: the first
    /// sequence number *after* the checkpoint.
    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()>;

    /// The tuples a source must replay to recover from `epoch`.
    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple>;

    /// Total preserved tuples across sources (reporting).
    fn preserved_tuples(&self) -> usize;
}

/// One HAU's checkpoint in the live store: the operator state at the
/// token cut, plus the in-flight portion of the cut (§III-B).
#[derive(Clone, Debug)]
pub struct LiveHauCheckpoint {
    /// The operator snapshot.
    pub snapshot: OperatorSnapshot,
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// Tuples that were inside the alignment window at cut time: they
    /// arrived on an input *after* that input's token but before the
    /// cut, tagged with the input port they arrived on. They are part
    /// of the cut — restored hosts apply them before reading any
    /// channel input.
    pub in_flight: Vec<(u32, Tuple)>,
    /// Per input port, the first sequence number *not yet* accounted
    /// for by this checkpoint (applied or captured in `in_flight`).
    /// On recovery the host drops replayed tuples below this
    /// threshold, so upstream replay cannot double-apply the captured
    /// channel state.
    pub resume_seq: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::Path;

    use super::*;
    use crate::ckpt_codec;
    use crate::store::tests::{delta_write, snap, tmpdir};
    use crate::store::FsStore;
    use ms_core::codec::FRAME_HEADER_BYTES;
    use ms_core::delta::DeltaTable;

    /// How many deltas lie between op 0's file for `epoch` and its full
    /// base (0 = stored full), following the base pointers on disk.
    fn chain_len(dir: &Path, mut epoch: u64) -> usize {
        let mut deltas = 0;
        while !dir.join(format!("ckpt/e{epoch}_op0.ckpt")).exists() {
            let file = fs::read(dir.join(format!("ckpt/e{epoch}_op0.delta"))).unwrap();
            let (_, base) = ckpt_codec::decode_delta_base(&file[FRAME_HEADER_BYTES..]).unwrap();
            epoch = base.0;
            deltas += 1;
        }
        deltas
    }

    #[test]
    fn delta_chain_folds_on_read() {
        let op = OperatorId(0);
        let dir = tmpdir("fold_on_read");
        let s = FsStore::open(&dir, 1).unwrap();
        let mut t = DeltaTable::new();
        for k in 0..8u64 {
            t.insert(k, vec![k as u8; 16]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 10))
            .unwrap();
        t.mark_clean();
        t.insert(3, vec![0xAA; 16]);
        t.remove(5);
        let write = CkptWrite {
            resume_seq: vec![7],
            ..delta_write(EpochId(1), t.take_delta(99), 20)
        };
        s.put_checkpoint(EpochId(2), op, write).unwrap();
        let got = s.get_checkpoint(EpochId(2), op).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot(), "fold is byte-identical");
        assert_eq!(got.snapshot.logical_bytes, 99);
        assert_eq!(got.next_seq, 20);
        assert_eq!(got.resume_seq, vec![7]);
        assert_eq!(chain_len(&dir, 2), 1);
        // Epoch 1 is still intact underneath.
        let base = s.get_checkpoint(EpochId(1), op).unwrap();
        assert_eq!(base.next_seq, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chain_rebases_after_max_chain_and_gc_drops_old_epochs() {
        let op = OperatorId(0);
        // A second op keeps epochs incomplete until the end, so GC
        // only runs once we ask for it.
        let other = OperatorId(1);
        let dir = tmpdir("max_chain_gc");
        let s = FsStore::open(&dir, 2).unwrap().with_policy(RebasePolicy {
            max_chain: 3,
            max_delta_pct: 10_000, // byte bound effectively off
        });
        let mut t = DeltaTable::new();
        for k in 0..64u64 {
            t.insert(k, vec![k as u8; 32]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        for e in 2..=5u64 {
            t.insert(e, vec![0xBB; 32]);
            let write = delta_write(EpochId(e - 1), t.take_delta(0), e);
            s.put_checkpoint(EpochId(e), op, write).unwrap();
        }
        // Epochs 2 and 3 stay deltas (chain 1, 2); epoch 4 would be the
        // third delta — rebased to a full. Epoch 5 chains on it.
        assert_eq!(chain_len(&dir, 2), 1);
        assert_eq!(chain_len(&dir, 3), 2);
        assert_eq!(chain_len(&dir, 4), 0);
        assert_eq!(chain_len(&dir, 5), 1);
        assert_eq!(s.latest_complete(), None, "op 1 has checkpointed nothing");
        // Completing epoch 5 GCs everything below its oldest needed
        // base (op's full at epoch 4).
        assert!(s
            .put_checkpoint(EpochId(5), other, CkptWrite::full(snap(vec![9]), 0))
            .unwrap());
        assert!(s.get_checkpoint(EpochId(4), op).is_some());
        assert!(s.get_checkpoint(EpochId(2), op).is_none(), "GC'd");
        assert!(s.get_checkpoint(EpochId(3), op).is_none(), "GC'd");
        assert_eq!(s.latest_complete(), Some(EpochId(5)));
        // The surviving chain still folds to the live table.
        let got = s.get_checkpoint(EpochId(5), op).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_bound_forces_rebase() {
        let op = OperatorId(0);
        let dir = tmpdir("byte_bound");
        let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 1000,
            max_delta_pct: 50,
        });
        let mut t = DeltaTable::new();
        t.insert(0, vec![1; 64]);
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        // A delta rewriting the whole (small) table dwarfs 50% of the
        // base: stored as a rebased full.
        t.insert(0, vec![2; 64]);
        s.put_checkpoint(EpochId(2), op, delta_write(EpochId(1), t.take_delta(0), 0))
            .unwrap();
        assert_eq!(chain_len(&dir, 2), 0);
        assert_eq!(
            s.get_checkpoint(EpochId(2), op).unwrap().snapshot.data,
            t.snapshot()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
