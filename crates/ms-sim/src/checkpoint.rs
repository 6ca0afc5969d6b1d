//! The checkpoint store kept on the shared storage system.
//!
//! Meteor Shower recovers an application from its Most Recent
//! (complete) Checkpoint — "an application's checkpoint contains the
//! individual checkpoints of all HAUs belonging to this application"
//! (§III-A). The baseline instead restores single HAUs from their own
//! most recent individual checkpoint. This store supports both views.

use std::collections::{BTreeMap, HashMap};

use ms_core::ids::{EpochId, HauId, OperatorId};
use ms_core::operator::OperatorSnapshot;
use ms_core::state::StateSize;
use ms_core::time::SimTime;
use ms_core::tuple::Tuple;

/// One HAU's individual checkpoint for one epoch.
#[derive(Clone, Debug, Default)]
pub struct HauCheckpoint {
    /// Snapshots of the HAU's constituent operators ("the state of an
    /// HAU is the sum of all its constituent operators' states").
    pub ops: Vec<(OperatorId, OperatorSnapshot)>,
    /// In-flight tuples folded into the checkpoint (MS-src+ap saves
    /// "all the tuples between the incoming tokens and the output
    /// tokens", Fig. 8): tuples to re-inject into the input buffer from
    /// each upstream neighbour on restore…
    pub input_backlog: Vec<(HauId, Vec<Tuple>)>,
    /// …and tuples pending in each downstream output buffer.
    pub output_pending: Vec<(HauId, Vec<Tuple>)>,
    /// When the snapshot was initiated.
    pub taken_at: SimTime,
    /// Opaque engine bookkeeping (sequence counters, input watermarks)
    /// serialized with `ms_core::codec`; restored alongside the
    /// operator state so recovered HAUs neither duplicate nor skip
    /// tuples.
    pub meta: Vec<u8>,
}

impl HauCheckpoint {
    /// Logical bytes this checkpoint occupies — what the disk-I/O cost
    /// model charges for writing and for reading it back.
    pub fn logical_bytes(&self) -> u64 {
        let ops: u64 = self.ops.iter().map(|(_, s)| s.logical_bytes).sum();
        let inputs: u64 = self
            .input_backlog
            .iter()
            .flat_map(|(_, ts)| ts.iter())
            .map(StateSize::state_size)
            .sum();
        let outputs: u64 = self
            .output_pending
            .iter()
            .flat_map(|(_, ts)| ts.iter())
            .map(StateSize::state_size)
            .sum();
        ops + inputs + outputs
    }
}

/// The shared checkpoint store.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    /// HAU count needed for an epoch to be a complete application
    /// checkpoint (Meteor Shower schemes). Zero disables completeness
    /// tracking (the baseline's independent per-HAU checkpoints).
    expected_haus: usize,
    epochs: BTreeMap<EpochId, HashMap<HauId, HauCheckpoint>>,
    latest_complete: Option<EpochId>,
}

impl CheckpointStore {
    /// Creates a store expecting `expected_haus` individual checkpoints
    /// per application checkpoint (pass 0 for baseline semantics).
    pub fn new(expected_haus: usize) -> CheckpointStore {
        CheckpointStore {
            expected_haus,
            epochs: BTreeMap::new(),
            latest_complete: None,
        }
    }

    /// Stores one individual checkpoint. Returns `true` if this write
    /// completed the application-wide checkpoint for `epoch`.
    pub fn put(&mut self, epoch: EpochId, hau: HauId, ckpt: HauCheckpoint) -> bool {
        let slot = self.epochs.entry(epoch).or_default();
        slot.insert(hau, ckpt);
        let complete = self.expected_haus > 0 && slot.len() == self.expected_haus;
        if complete && self.latest_complete.is_none_or(|e| e < epoch) {
            self.latest_complete = Some(epoch);
        }
        complete
    }

    /// Reads one individual checkpoint.
    pub fn get(&self, epoch: EpochId, hau: HauId) -> Option<&HauCheckpoint> {
        self.epochs.get(&epoch).and_then(|m| m.get(&hau))
    }

    /// The most recent *complete* application checkpoint, if any.
    pub fn latest_complete(&self) -> Option<EpochId> {
        self.latest_complete
    }

    /// The most recent individual checkpoint of one HAU regardless of
    /// application completeness (baseline recovery, §II-B3).
    pub fn latest_for_hau(&self, hau: HauId) -> Option<(EpochId, &HauCheckpoint)> {
        self.epochs
            .iter()
            .rev()
            .find_map(|(e, m)| m.get(&hau).map(|c| (*e, c)))
    }

    /// Drops every epoch strictly older than `keep_from`. The paper
    /// retains only the MRC once it is complete; source logs are
    /// trimmed in the same motion.
    pub fn gc_before(&mut self, keep_from: EpochId) {
        self.epochs.retain(|e, _| *e >= keep_from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::time::SimTime;
    use ms_core::value::Value;

    fn snap(bytes: u64) -> HauCheckpoint {
        HauCheckpoint {
            ops: vec![(
                OperatorId(0),
                OperatorSnapshot {
                    data: vec![],
                    logical_bytes: bytes,
                },
            )],
            input_backlog: vec![],
            output_pending: vec![],
            taken_at: SimTime::ZERO,
            meta: vec![],
        }
    }

    #[test]
    fn completeness_requires_all_haus() {
        let mut s = CheckpointStore::new(3);
        assert!(!s.put(EpochId(1), HauId(0), snap(10)));
        assert!(!s.put(EpochId(1), HauId(1), snap(10)));
        assert_eq!(s.latest_complete(), None);
        assert!(s.put(EpochId(1), HauId(2), snap(10)));
        assert_eq!(s.latest_complete(), Some(EpochId(1)));
    }

    #[test]
    fn completeness_is_monotone_across_epochs() {
        let mut s = CheckpointStore::new(1);
        assert!(s.put(EpochId(2), HauId(0), snap(1)));
        assert!(s.put(EpochId(1), HauId(0), snap(1)));
        // A late epoch-1 completion must not regress the MRC.
        assert_eq!(s.latest_complete(), Some(EpochId(2)));
    }

    #[test]
    fn baseline_mode_tracks_per_hau_latest() {
        let mut s = CheckpointStore::new(0);
        assert!(!s.put(EpochId(1), HauId(4), snap(10)));
        assert!(!s.put(EpochId(3), HauId(4), snap(20)));
        assert!(!s.put(EpochId(2), HauId(5), snap(30)));
        assert_eq!(s.latest_complete(), None);
        let (e, c) = s.latest_for_hau(HauId(4)).unwrap();
        assert_eq!(e, EpochId(3));
        assert_eq!(c.logical_bytes(), 20);
    }

    #[test]
    fn gc_drops_old_epochs() {
        let mut s = CheckpointStore::new(1);
        s.put(EpochId(1), HauId(0), snap(10));
        s.put(EpochId(2), HauId(0), snap(10));
        s.gc_before(EpochId(2));
        assert!(s.get(EpochId(1), HauId(0)).is_none());
        assert!(s.get(EpochId(2), HauId(0)).is_some());
    }

    #[test]
    fn logical_bytes_counts_inflight_tuples() {
        let mut c = snap(100);
        let t = Tuple::new(OperatorId(1), 0, SimTime::ZERO, vec![Value::blob(50)]);
        let wire = t.state_size();
        c.input_backlog.push((HauId(9), vec![t.clone()]));
        c.output_pending.push((HauId(8), vec![t]));
        assert_eq!(c.logical_bytes(), 100 + 2 * wire);
    }
}
