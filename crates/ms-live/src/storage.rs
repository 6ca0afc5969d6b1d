//! Stable storage for the operator hosts.
//!
//! [`StableStore`] is the storage contract of the MS-src protocol:
//! individual checkpoints land in it (written by a background
//! persister thread, standing in for the forked COW child), source
//! logs are appended *before* tuples are sent (source preservation),
//! and application-checkpoint completeness is tracked exactly as in
//! `ms-storage`. [`LiveStorage`] is the in-memory implementation used
//! by tests and benches; `ms-wire` provides a filesystem
//! implementation shared by every process of a TCP cluster, so one
//! operator-host layer serves both.
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

use std::collections::HashMap;

use ms_core::delta::{self, StateDelta};
use ms_core::error::{Error, Result};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::operator::OperatorSnapshot;
use ms_core::tuple::Tuple;
use parking_lot::Mutex;

/// The state portion of a checkpoint on its way to stable storage.
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
}

impl CkptState {
    /// The operator's logical state size at capture time.
    pub fn logical_bytes(&self) -> u64 {
        match self {
            CkptState::Full(s) => s.logical_bytes,
            CkptState::Delta { delta, .. } => delta.logical_bytes,
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
    /// Persists one individual checkpoint; returns `true` if `epoch`
    /// is now complete (every HAU has checkpointed it, each resolvable
    /// to a full snapshot). An `Err` means stable storage is unusable —
    /// the caller must stop streaming and surface the failure, never
    /// continue unpreserved.
    fn put_checkpoint(&self, epoch: EpochId, op: OperatorId, ckpt: CkptWrite) -> Result<bool>;

    /// Reads one individual checkpoint, folding any delta chain: the
    /// returned snapshot is always complete, byte-identical to the
    /// full snapshot the operator would have produced at `epoch`.
    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint>;

    /// The most recent complete application checkpoint.
    fn latest_complete(&self) -> Option<EpochId>;

    /// Source preservation: appends a run of emitted tuples in one
    /// storage round (called *before* any of them is sent downstream) —
    /// implementations amortize lock acquisition, encoding, and the
    /// write syscall across the run. The durable bytes depend only on
    /// the tuples, never on how they were grouped into calls (same log
    /// bytes, same replay), and `Err` means *none* of the run may be
    /// treated as durable: the caller must not send or ack any tuple
    /// in it.
    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<()>;

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

impl LiveHauCheckpoint {
    /// A checkpoint with no in-flight portion (sources, or tests).
    pub fn bare(snapshot: OperatorSnapshot, next_seq: u64) -> LiveHauCheckpoint {
        LiveHauCheckpoint {
            snapshot,
            next_seq,
            in_flight: Vec::new(),
            resume_seq: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Inner {
    ckpts: HashMap<(EpochId, OperatorId), CkptWrite>,
    /// Per-source preserved tuples.
    logs: HashMap<OperatorId, Vec<Tuple>>,
    /// Per-source `(epoch, first seq after the boundary)` marks.
    marks: HashMap<OperatorId, Vec<(EpochId, u64)>>,
    complete: Vec<EpochId>,
}

impl Inner {
    /// Walks the chain under `(epoch, op)` back to its full base.
    /// Returns `(base epoch, deltas oldest-first)`, or `None` for a
    /// broken chain.
    fn chain_of(&self, epoch: EpochId, op: OperatorId) -> Option<(EpochId, Vec<&StateDelta>)> {
        let mut deltas = Vec::new();
        let mut at = epoch;
        loop {
            match self.ckpts.get(&(at, op))?.state {
                CkptState::Full(_) => break,
                CkptState::Delta { base, ref delta } => {
                    // Bases strictly precede their deltas; anything
                    // else is a corrupt chain, treated as broken.
                    if base >= at {
                        return None;
                    }
                    deltas.push(delta);
                    at = base;
                }
            }
        }
        deltas.reverse();
        Some((at, deltas))
    }

    /// Is every stored checkpoint of `epoch` resolvable, and are there
    /// enough of them?
    fn epoch_complete(&self, epoch: EpochId, expected: usize) -> bool {
        let ops: Vec<OperatorId> = self
            .ckpts
            .keys()
            .filter(|(e, _)| *e == epoch)
            .map(|&(_, op)| op)
            .collect();
        ops.len() >= expected && ops.iter().all(|&op| self.chain_of(epoch, op).is_some())
    }
}

/// The shared store.
pub struct LiveStorage {
    expected: usize,
    policy: RebasePolicy,
    inner: Mutex<Inner>,
}

impl LiveStorage {
    /// Creates a store expecting `expected` individual checkpoints per
    /// application checkpoint, with the default rebase policy.
    pub fn new(expected: usize) -> LiveStorage {
        LiveStorage::with_policy(expected, RebasePolicy::default())
    }

    /// Creates a store with an explicit rebase policy.
    pub fn with_policy(expected: usize, policy: RebasePolicy) -> LiveStorage {
        LiveStorage {
            expected,
            policy,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Diagnostic: how many deltas sit between `(epoch, op)` and its
    /// full base (0 = stored as a full snapshot), or `None` if absent
    /// or broken.
    pub fn chain_len(&self, epoch: EpochId, op: OperatorId) -> Option<usize> {
        self.inner
            .lock()
            .chain_of(epoch, op)
            .map(|(_, deltas)| deltas.len())
    }
}

impl StableStore for LiveStorage {
    fn put_checkpoint(&self, epoch: EpochId, op: OperatorId, ckpt: CkptWrite) -> Result<bool> {
        // One checkpoint format across runtimes: every accepted write
        // round-trips through the shared payload codec, so this
        // in-memory store can never hold state the filesystem store
        // could not persist and re-read.
        let ckpt = crate::ckpt_codec::roundtrip(ckpt)?;
        let mut g = self.inner.lock();
        let ckpt = match ckpt.state {
            CkptState::Delta { base, delta } => {
                let (base_epoch, mut chain) = g.chain_of(base, op).ok_or_else(|| {
                    Error::Storage(format!(
                        "delta checkpoint {epoch}/{op} references missing base {base}"
                    ))
                })?;
                let base_bytes = match &g.ckpts[&(base_epoch, op)].state {
                    CkptState::Full(s) => s.data.len() as u64,
                    CkptState::Delta { .. } => unreachable!("chain_of ends at a full"),
                };
                let cum: u64 = chain.iter().map(|d| d.encoded_bytes() as u64).sum::<u64>()
                    + delta.encoded_bytes() as u64;
                if self
                    .policy
                    .should_rebase(chain.len() as u32 + 1, cum, base_bytes)
                {
                    // Fold the whole chain (including the incoming
                    // delta) into a fresh full snapshot at this epoch.
                    let base_data = match &g.ckpts[&(base_epoch, op)].state {
                        CkptState::Full(s) => s.data.clone(),
                        CkptState::Delta { .. } => unreachable!("chain_of ends at a full"),
                    };
                    chain.push(&delta);
                    let folded: Vec<StateDelta> = chain.into_iter().cloned().collect();
                    let data = delta::fold(&base_data, &folded)?;
                    CkptWrite {
                        state: CkptState::Full(OperatorSnapshot {
                            data,
                            logical_bytes: delta.logical_bytes,
                        }),
                        ..ckpt
                    }
                } else {
                    CkptWrite {
                        state: CkptState::Delta { base, delta },
                        ..ckpt
                    }
                }
            }
            full => CkptWrite {
                state: full,
                ..ckpt
            },
        };
        g.ckpts.insert((epoch, op), ckpt);
        let complete = g.epoch_complete(epoch, self.expected);
        if complete && !g.complete.contains(&epoch) {
            g.complete.push(epoch);
            // GC: everything older than the oldest base this epoch's
            // chains rest on is unreachable from the newest complete
            // epoch and will never be restored.
            let oldest_base = g
                .ckpts
                .keys()
                .filter(|(e, _)| *e == epoch)
                .map(|&(_, o)| o)
                .collect::<Vec<_>>()
                .into_iter()
                .filter_map(|o| g.chain_of(epoch, o).map(|(b, _)| b))
                .min();
            if let Some(b) = oldest_base {
                g.ckpts.retain(|(e, _), _| *e >= b);
                // Dropping files below `b` may have broken the chains
                // of older complete epochs; prune them from the
                // complete list so `latest_complete` never names an
                // unrestorable epoch.
                let expected = self.expected;
                let still: Vec<EpochId> = g
                    .complete
                    .iter()
                    .copied()
                    .filter(|&e| g.epoch_complete(e, expected))
                    .collect();
                g.complete = still;
            }
        }
        Ok(complete)
    }

    fn get_checkpoint(&self, epoch: EpochId, op: OperatorId) -> Option<LiveHauCheckpoint> {
        let g = self.inner.lock();
        let top = g.ckpts.get(&(epoch, op))?;
        let snapshot = match &top.state {
            CkptState::Full(s) => s.clone(),
            CkptState::Delta { delta, .. } => {
                let (base_epoch, deltas) = g.chain_of(epoch, op)?;
                let base_data = match &g.ckpts[&(base_epoch, op)].state {
                    CkptState::Full(s) => &s.data,
                    CkptState::Delta { .. } => return None,
                };
                let owned: Vec<StateDelta> = deltas.into_iter().cloned().collect();
                OperatorSnapshot {
                    data: delta::fold(base_data, &owned).ok()?,
                    logical_bytes: delta.logical_bytes,
                }
            }
        };
        Some(LiveHauCheckpoint {
            snapshot,
            next_seq: top.next_seq,
            in_flight: top.in_flight.clone(),
            resume_seq: top.resume_seq.clone(),
        })
    }

    fn latest_complete(&self) -> Option<EpochId> {
        self.inner.lock().complete.iter().max().copied()
    }

    fn append_log_batch(&self, source: OperatorId, batch: &[Tuple]) -> Result<()> {
        self.inner
            .lock()
            .logs
            .entry(source)
            .or_default()
            .extend(batch.iter().cloned());
        Ok(())
    }

    fn mark_epoch(&self, source: OperatorId, epoch: EpochId, next_seq: u64) -> Result<()> {
        self.inner
            .lock()
            .marks
            .entry(source)
            .or_default()
            .push((epoch, next_seq));
        Ok(())
    }

    fn replay_from(&self, source: OperatorId, epoch: EpochId) -> Vec<Tuple> {
        let g = self.inner.lock();
        let from_seq = g
            .marks
            .get(&source)
            .and_then(|ms| ms.iter().find(|(e, _)| *e == epoch))
            .map(|&(_, s)| s)
            .unwrap_or(0);
        g.logs
            .get(&source)
            .map(|log| log.iter().filter(|t| t.seq >= from_seq).cloned().collect())
            .unwrap_or_default()
    }

    fn preserved_tuples(&self) -> usize {
        self.inner.lock().logs.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::delta::DeltaTable;
    use ms_core::time::SimTime;

    fn tup(seq: u64) -> Tuple {
        Tuple::new(OperatorId(0), seq, SimTime::ZERO, vec![])
    }

    fn snap(data: Vec<u8>) -> OperatorSnapshot {
        OperatorSnapshot {
            logical_bytes: data.len() as u64,
            data,
        }
    }

    #[test]
    fn completeness() {
        let s = LiveStorage::new(2);
        let ck = || CkptWrite::full(OperatorSnapshot::empty(), 0);
        assert!(!s.put_checkpoint(EpochId(1), OperatorId(0), ck()).unwrap());
        assert_eq!(s.latest_complete(), None);
        assert!(s.put_checkpoint(EpochId(1), OperatorId(1), ck()).unwrap());
        assert_eq!(s.latest_complete(), Some(EpochId(1)));
    }

    #[test]
    fn log_replay_respects_marks() {
        let s = LiveStorage::new(1);
        for seq in 0..10 {
            s.append_log_batch(OperatorId(0), &[tup(seq)]).unwrap();
        }
        s.mark_epoch(OperatorId(0), EpochId(1), 6).unwrap();
        let replay = s.replay_from(OperatorId(0), EpochId(1));
        assert_eq!(replay.len(), 4);
        assert_eq!(replay[0].seq, 6);
        // Unknown epoch: everything.
        assert_eq!(s.replay_from(OperatorId(0), EpochId(9)).len(), 10);
    }

    #[test]
    fn delta_chain_folds_on_read() {
        let op = OperatorId(0);
        let s = LiveStorage::new(1);
        let mut t = DeltaTable::new();
        for k in 0..8u64 {
            t.insert(k, vec![k as u8; 16]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 10))
            .unwrap();
        t.mark_clean();
        t.insert(3, vec![0xAA; 16]);
        t.remove(5);
        s.put_checkpoint(
            EpochId(2),
            op,
            CkptWrite {
                state: CkptState::Delta {
                    base: EpochId(1),
                    delta: t.take_delta(99),
                },
                next_seq: 20,
                in_flight: Vec::new(),
                resume_seq: vec![7],
            },
        )
        .unwrap();
        let got = s.get_checkpoint(EpochId(2), op).unwrap();
        assert_eq!(got.snapshot.data, t.snapshot(), "fold is byte-identical");
        assert_eq!(got.snapshot.logical_bytes, 99);
        assert_eq!(got.next_seq, 20);
        assert_eq!(got.resume_seq, vec![7]);
        assert_eq!(s.chain_len(EpochId(2), op), Some(1));
        // Epoch 1 is still intact underneath.
        let base = s.get_checkpoint(EpochId(1), op).unwrap();
        assert_eq!(base.next_seq, 10);
    }

    #[test]
    fn delta_without_base_is_a_storage_error() {
        let s = LiveStorage::new(1);
        let err = s.put_checkpoint(
            EpochId(5),
            OperatorId(0),
            CkptWrite {
                state: CkptState::Delta {
                    base: EpochId(4),
                    delta: StateDelta::default(),
                },
                next_seq: 0,
                in_flight: Vec::new(),
                resume_seq: Vec::new(),
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn chain_rebases_after_max_chain_and_gc_drops_old_epochs() {
        let op = OperatorId(0);
        // A second op keeps epochs incomplete until the end, so GC
        // only runs once we ask for it.
        let other = OperatorId(1);
        let s = LiveStorage::with_policy(
            2,
            RebasePolicy {
                max_chain: 3,
                max_delta_pct: 10_000, // byte bound effectively off
            },
        );
        let mut t = DeltaTable::new();
        for k in 0..64u64 {
            t.insert(k, vec![k as u8; 32]);
        }
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        let mut prev = EpochId(1);
        for e in 2..=5u64 {
            t.insert(e, vec![0xBB; 32]);
            s.put_checkpoint(
                EpochId(e),
                op,
                CkptWrite {
                    state: CkptState::Delta {
                        base: prev,
                        delta: t.take_delta(0),
                    },
                    next_seq: e,
                    in_flight: Vec::new(),
                    resume_seq: Vec::new(),
                },
            )
            .unwrap();
            prev = EpochId(e);
        }
        // Epochs 2 and 3 stay deltas (chain 1, 2); epoch 4 would be the
        // third delta — rebased to a full. Epoch 5 chains on it.
        assert_eq!(s.chain_len(EpochId(2), op), Some(1));
        assert_eq!(s.chain_len(EpochId(3), op), Some(2));
        assert_eq!(s.chain_len(EpochId(4), op), Some(0));
        assert_eq!(s.chain_len(EpochId(5), op), Some(1));
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
    }

    #[test]
    fn byte_bound_forces_rebase() {
        let op = OperatorId(0);
        let s = LiveStorage::with_policy(
            1,
            RebasePolicy {
                max_chain: 1000,
                max_delta_pct: 50,
            },
        );
        let mut t = DeltaTable::new();
        t.insert(0, vec![1; 64]);
        s.put_checkpoint(EpochId(1), op, CkptWrite::full(snap(t.snapshot()), 0))
            .unwrap();
        t.mark_clean();
        // A delta rewriting the whole (small) table dwarfs 50% of the
        // base: stored as a rebased full.
        t.insert(0, vec![2; 64]);
        s.put_checkpoint(
            EpochId(2),
            op,
            CkptWrite {
                state: CkptState::Delta {
                    base: EpochId(1),
                    delta: t.take_delta(0),
                },
                next_seq: 0,
                in_flight: Vec::new(),
                resume_seq: Vec::new(),
            },
        )
        .unwrap();
        assert_eq!(s.chain_len(EpochId(2), op), Some(0));
        assert_eq!(
            s.get_checkpoint(EpochId(2), op).unwrap().snapshot.data,
            t.snapshot()
        );
    }
}
