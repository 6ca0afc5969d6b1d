//! Property tests for incremental checkpoints: folding a randomized
//! base + delta chain must be *byte-identical* to the full snapshot at
//! every epoch — the contract that makes recovery from a chain
//! indistinguishable from recovery from a full snapshot — and the
//! delta wire encoding must roundtrip exactly at its pre-sized length.
//! The one-pass [`fold`] must equal the decode → apply → encode fold it
//! replaced, kept here as the oracle, and a table's O(1) size counters
//! must equal a walk of its entries whatever it went through. A frozen
//! [`TableView`] must stay the table as it was at its freeze, however
//! the paged, copy-on-write table changes while the view is alive.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta::{
    apply_delta, decode_table, encode_table, fold, DeltaTable, StateDelta, TableView,
};
use ms_core::error::Result;
use proptest::prelude::*;

/// The reference fold: decode the base into an owned map, apply every
/// delta oldest-first, re-encode.
fn oracle_fold(base: &[u8], deltas: &[StateDelta]) -> Result<Vec<u8>> {
    let mut table = decode_table(base)?;
    for d in deltas {
        apply_delta(&mut table, d);
    }
    Ok(encode_table(&table))
}

/// Deltas as any encoder could write them, not only as
/// `DeltaTable::take_delta` does: unsorted, with repeated keys, a key
/// both changed and removed, removals of absent keys, empty deltas.
fn arb_raw_deltas() -> impl Strategy<Value = Vec<StateDelta>> {
    proptest::collection::vec(
        (
            arb_entries(),
            proptest::collection::vec(0u64..48, 0..12),
            any::<u64>(),
        )
            .prop_map(|(changed, removed, logical_bytes)| StateDelta {
                changed,
                removed,
                logical_bytes,
            }),
        0..6,
    )
}

/// A table's life as `(step, key, value)`: step 0–2 inserts (so
/// overwrites, often with a new length, are common), 3–4 removes
/// (present or absent), 5 takes a delta, 6 marks clean, 7 restores the
/// table from its own snapshot.
fn arb_steps() -> impl Strategy<Value = Vec<(u8, u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u8..8,
            0u64..24,
            proptest::collection::vec(any::<u8>(), 0..24),
        ),
        0..64,
    )
}

fn table_of(entries: Vec<(u64, Vec<u8>)>) -> DeltaTable {
    let mut t = DeltaTable::new();
    for (k, v) in entries {
        t.insert(k, v);
    }
    t
}

#[test]
fn fold_matches_oracle_on_the_edge_cases() {
    let empty = DeltaTable::new().snapshot();
    let noop = StateDelta {
        logical_bytes: 5,
        ..StateDelta::default()
    };
    let full = table_of((0..6).map(|k| (k, vec![k as u8; k as usize])).collect()).snapshot();
    let remove_then_reinsert = [
        StateDelta {
            removed: vec![2, 9],
            ..StateDelta::default()
        },
        StateDelta {
            changed: vec![(2, vec![0xEE; 3])],
            ..StateDelta::default()
        },
    ];
    let written_then_removed = [StateDelta {
        changed: vec![(7, vec![1]), (3, vec![2])],
        removed: vec![7],
        logical_bytes: 0,
    }];
    for base in [&empty, &full] {
        for chain in [
            &[][..],
            &[noop.clone()][..],
            &[noop.clone(), noop.clone()][..],
            &remove_then_reinsert[..],
            &written_then_removed[..],
        ] {
            assert_eq!(
                fold(base, chain).unwrap(),
                oracle_fold(base, chain).unwrap()
            );
        }
    }
}

fn arb_entries() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (0u64..48, proptest::collection::vec(any::<u8>(), 0..24)),
        0..32,
    )
}

/// Per-epoch mutation batches: `(insert?, key, value)` — a remove
/// ignores the value. Keys overlap across epochs on purpose, so
/// chains exercise overwrite-after-remove and remove-of-absent paths.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<(bool, u64, Vec<u8>)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                any::<bool>(),
                0u64..48,
                proptest::collection::vec(any::<u8>(), 0..24),
            ),
            0..16,
        ),
        1..6,
    )
}

proptest! {
    /// At every epoch of a randomized chain, folding the base plus all
    /// deltas so far reproduces the operator's full snapshot exactly.
    #[test]
    fn folding_random_chain_is_byte_identical_at_every_epoch(
        init in arb_entries(),
        epochs in arb_epochs(),
    ) {
        let mut t = DeltaTable::new();
        for (k, v) in init {
            t.insert(k, v);
        }
        let base = t.snapshot();
        t.mark_clean();
        let mut deltas = Vec::new();
        for ops in epochs {
            for (is_insert, k, v) in ops {
                if is_insert {
                    t.insert(k, v);
                } else {
                    t.remove(k);
                }
            }
            deltas.push(t.take_delta(t.value_bytes()));
            prop_assert_eq!(fold(&base, &deltas).unwrap(), t.snapshot());
        }
    }

    /// Delta payloads roundtrip through the codec at exactly their
    /// pre-sized length.
    #[test]
    fn delta_encoding_roundtrips_at_exact_size(
        changed in arb_entries(),
        removed in proptest::collection::vec(any::<u64>(), 0..16),
        logical in any::<u64>(),
    ) {
        let d = StateDelta {
            changed: changed.into_iter().collect::<std::collections::BTreeMap<_, _>>().into_iter().collect(),
            removed: removed.into_iter().collect::<std::collections::BTreeSet<_>>().into_iter().collect(),
            logical_bytes: logical,
        };
        let mut w = SnapshotWriter::with_capacity(d.encoded_bytes());
        d.encode_into(&mut w);
        let bytes = w.finish();
        prop_assert_eq!(bytes.len(), d.encoded_bytes());
        let back = StateDelta::decode_from(&mut SnapshotReader::new(&bytes)).unwrap();
        prop_assert_eq!(back, d);
    }

    /// `value_bytes()` is Σ entry lengths and `encoded_bytes()` is the
    /// snapshot's length after every step of any mutation history —
    /// both are maintained counters, never a walk.
    #[test]
    fn size_counters_equal_a_walk_after_any_history(steps in arb_steps()) {
        let mut t = DeltaTable::new();
        for (step, k, v) in steps {
            match step {
                0..=2 => t.insert(k, v),
                3 | 4 => {
                    t.remove(k);
                }
                5 => {
                    t.take_delta(t.value_bytes());
                }
                6 => t.mark_clean(),
                _ => t = DeltaTable::restore(&t.snapshot()).unwrap(),
            }
            let walked: u64 = t.iter().map(|(_, v)| v.len() as u64).sum();
            prop_assert_eq!(t.value_bytes(), walked);
            prop_assert_eq!(t.encoded_bytes(), t.snapshot().len());
        }
    }

    /// The one-pass fold equals the oracle on random bases and raw
    /// delta chains, empty ones included.
    #[test]
    fn fold_equals_the_decode_apply_encode_oracle(
        init in arb_entries(),
        deltas in arb_raw_deltas(),
    ) {
        let base = table_of(init).snapshot();
        prop_assert_eq!(fold(&base, &deltas).unwrap(), oracle_fold(&base, &deltas).unwrap());
    }

    /// Truncated base bytes give `Err`; mutated or random ones never
    /// panic, give `Err` wherever the oracle does, and otherwise either
    /// the oracle's bytes or `Err` (a base whose keys are out of order
    /// decodes under the oracle but is not one `encode_table` wrote).
    #[test]
    fn fold_of_truncated_or_hostile_base_errs_never_panics(
        init in arb_entries(),
        deltas in arb_raw_deltas(),
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let base = table_of(init).snapshot();
        let truncated = &base[..at % base.len()];
        prop_assert!(fold(truncated, &deltas).is_err());
        prop_assert!(oracle_fold(truncated, &deltas).is_err());
        let mut mutated = base.clone();
        mutated[at % base.len()] = byte;
        for hostile in [&mutated, &junk] {
            let (got, want) = (fold(hostile, &deltas).ok(), oracle_fold(hostile, &deltas).ok());
            prop_assert!(want.is_some() || got.is_none());
            prop_assert!(got.is_none() || got == want);
        }
    }
}

/// The table a [`DeltaTable`] should be: its entries, and the keys
/// written and removed since the last capture.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<u64, Vec<u8>>,
    written: BTreeSet<u64>,
    removed: BTreeSet<u64>,
}

impl Oracle {
    fn insert(&mut self, k: u64, v: Vec<u8>) {
        self.entries.insert(k, v);
        self.removed.remove(&k);
        self.written.insert(k);
    }

    fn remove(&mut self, k: u64) -> Option<Vec<u8>> {
        self.written.remove(&k);
        self.removed.insert(k);
        self.entries.remove(&k)
    }

    /// The capture's delta, and the marks cleared.
    fn capture(&mut self, logical_bytes: u64) -> StateDelta {
        let written = std::mem::take(&mut self.written);
        StateDelta {
            changed: written
                .into_iter()
                .map(|k| (k, self.entries[&k].clone()))
                .collect(),
            removed: std::mem::take(&mut self.removed).into_iter().collect(),
            logical_bytes,
        }
    }
}

/// A view, and what the oracle said it must hold at its freeze: the
/// full table's bytes, the delta, and the table the delta applies to.
struct Frozen {
    view: TableView,
    table: Vec<u8>,
    delta: StateDelta,
    before: BTreeMap<u64, Vec<u8>>,
}

/// Every encoding of a view is what the oracle held at its freeze.
fn check_view(f: &Frozen) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(f.view.encode(), f.table.clone());
    prop_assert_eq!(f.view.encoded_bytes(), f.table.len());
    let mut streamed = Vec::new();
    f.view.write_table(&mut streamed).unwrap();
    prop_assert_eq!(&streamed, &f.table);
    prop_assert_eq!(f.view.to_delta(), f.delta.clone());
    let mut want = SnapshotWriter::new();
    f.delta.encode_into(&mut want);
    let mut got = Vec::new();
    f.view.write_delta(&mut got).unwrap();
    prop_assert_eq!(&got, &want.finish());
    prop_assert_eq!(f.view.delta_bytes(), got.len());
    // The delta is the diff: applied to the table at the capture
    // before, it gives the table at this one.
    let mut applied = f.before.clone();
    apply_delta(&mut applied, &f.delta);
    prop_assert_eq!(encode_table(&applied), f.table.clone());
    Ok(())
}

/// A table's life with views: step 0–3 inserts, 4–5 removes (keys span
/// four pages, so pages empty and refill), 6–7 freezes a view kept
/// alive while the table goes on (at most two at once, the oldest
/// checked and dropped first), 8 takes an owned delta, 9 drops the
/// oldest view.
fn arb_view_steps() -> impl Strategy<Value = Vec<(u8, u64, Vec<u8>)>> {
    proptest::collection::vec(
        (
            0u8..10,
            0u64..64,
            proptest::collection::vec(any::<u8>(), 0..24),
        ),
        0..96,
    )
}

proptest! {
    /// Each view's full encode is `encode_table` of the oracle at its
    /// freeze and its delta is the oracle's diff since the capture
    /// before, while writes land with one or two views alive; the live
    /// table tracks the oracle throughout.
    #[test]
    fn views_hold_the_table_at_their_freeze_while_it_changes(steps in arb_view_steps()) {
        let mut t = DeltaTable::new();
        let mut oracle = Oracle::default();
        let mut captured: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut views: VecDeque<Frozen> = VecDeque::new();
        for (step, k, v) in steps {
            match step {
                0..=3 => {
                    t.insert(k, v.clone());
                    oracle.insert(k, v);
                }
                4 | 5 => prop_assert_eq!(t.remove(k), oracle.remove(k)),
                6 | 7 => {
                    if views.len() == 2 {
                        check_view(&views.pop_front().unwrap())?;
                    }
                    let logical = t.value_bytes() + k;
                    let before = std::mem::replace(&mut captured, oracle.entries.clone());
                    views.push_back(Frozen {
                        view: t.freeze(logical),
                        table: encode_table(&oracle.entries),
                        delta: oracle.capture(logical),
                        before,
                    });
                }
                8 => {
                    captured = oracle.entries.clone();
                    prop_assert_eq!(t.take_delta(k), oracle.capture(k));
                }
                _ => {
                    if let Some(f) = views.pop_front() {
                        check_view(&f)?;
                    }
                }
            }
            prop_assert_eq!(t.snapshot(), encode_table(&oracle.entries));
            prop_assert_eq!(t.len(), oracle.entries.len());
        }
        for f in &views {
            check_view(f)?;
        }
    }

    /// A delta computed elsewhere, as a view, encodes as itself.
    #[test]
    fn a_view_of_a_computed_delta_is_that_delta(
        changed in arb_entries(),
        removed in proptest::collection::vec(48u64..96, 0..16),
        logical in any::<u64>(),
    ) {
        let d = StateDelta {
            changed: changed.into_iter().collect::<BTreeMap<_, _>>().into_iter().collect(),
            removed: removed.into_iter().collect::<BTreeSet<_>>().into_iter().collect(),
            logical_bytes: logical,
        };
        let view = TableView::from(d.clone());
        prop_assert_eq!(view.to_delta(), d.clone());
        prop_assert_eq!(view.delta_bytes(), d.encoded_bytes());
    }
}
