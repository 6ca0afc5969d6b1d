//! [`GateCore`]: the gateway's pure admission state machine.
//!
//! Everything the event loop decides — protocol violations, duplicate
//! suppression, load shedding, pre-aggregation, tuple stamping, Fin
//! accounting — lives here with no sockets or threads, so the
//! durability-critical logic is unit- and property-testable in
//! isolation. [`GateCore::on_frame`] takes one producer frame as the
//! connection's decoder holds it and returns what to stage and ack.
//! The caller ([`crate::Gate`], or a test) owns the ordering
//! obligation: every tuple of an [`Admission::Accept`] goes to the
//! preservation log *before* the batch is acked.
//!
//! A batch is never copied out of its frame. The payload is parsed
//! in place ([`GateMsg::decode_in_place`]), which checks every event
//! before any admission decision, so a malformed batch drops its
//! connection even when its id is a duplicate, and is never staged,
//! deduped or charged. An admitted batch's events then fold straight
//! from the payload: a fixed inline table of `INLINE_KEYS` entries
//! takes a batch's first distinct keys, and the first key that finds
//! it full switches the batch to sort-and-merge over a reused buffer.
//! Either way the tuples come out in ascending key order with wrapping
//! sums — what a `BTreeMap` fold yields, byte for byte.

use std::collections::{BTreeMap, BTreeSet};

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::error::Result;
use ms_core::gate::{GateConfig, GateMsg, Inbound, EVENT_BYTES};
use ms_core::ids::OperatorId;
use ms_core::operator::OperatorSnapshot;
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};
use ms_core::value::Value;

/// Distinct keys a batch's fold holds in its inline table. A batch
/// with more switches to sort-and-merge when the next new key
/// arrives: a linear probe of a few keys beats sorting, and sorting
/// beats probing a full table (measured in DESIGN.md, "Ingestion
/// gateway").
const INLINE_KEYS: usize = 16;

/// Field layout of every tuple a gateway emits. Downstream operators
/// read only field 0 (the value); the rest make the preservation log
/// self-describing, so recovery can rebuild the duplicate-suppression
/// table from replayed WAL records alone.
pub mod field {
    /// The batch's events of this key, summed (pre-aggregation).
    pub const VALUE: usize = 0;
    /// The event key.
    pub const KEY: usize = 1;
    /// The producer the batch came from.
    pub const PRODUCER: usize = 2;
    /// The producer's batch id.
    pub const BATCH: usize = 3;
    /// 1 on the final tuple of a batch, else 0. A WAL whose torn tail
    /// cut a batch short is missing exactly this record, so replay
    /// rebuilds the dedup table only from batches it holds completely.
    ///
    /// The value [`FIN_MARKER`] (2) marks a producer's `Fin` instead:
    /// the record is WAL-only (never routed downstream) and makes an
    /// acked `FinOk` survive a rollback past the last checkpoint.
    pub const LAST: usize = 4;

    /// [`LAST`] value of a Fin WAL marker.
    pub const FIN_MARKER: i64 = 2;
}

/// True if `t` is a Fin WAL marker (see [`field::LAST`]): a
/// preservation-log record that carries a producer's `Fin` across a
/// crash and must never be routed downstream.
pub fn is_fin_marker(t: &Tuple) -> bool {
    t.field(field::LAST).and_then(Value::as_int) == Some(field::FIN_MARKER)
}

/// What the gateway decided about one incoming batch.
#[derive(Debug)]
pub enum Admission {
    /// Admitted: the stamped tuples, ready to WAL-append (in order)
    /// and then route. Ack `Accepted` only after the last append.
    Accept(Vec<Tuple>),
    /// The batch id was already accepted (a retry of an acked or
    /// WAL-durable batch): re-ack `Accepted`, admit nothing.
    Duplicate,
    /// Over the admission budget: ack `Busy`, log and emit nothing.
    Shed,
}

/// What one producer frame asks of the gateway ([`GateCore::on_frame`]).
#[derive(Debug)]
pub enum FrameStep {
    /// A `Hello` bound the connection to its producer; nothing to ack.
    Hello,
    /// A batch's admission: stage and ack `Accepted`, re-ack
    /// `Accepted`, or ack `Busy`.
    Batch {
        /// The batch id to ack.
        batch: u64,
        /// What was decided about it.
        admission: Admission,
    },
    /// A producer's `Fin`, recorded: ack `FinOk` once `marker` — the
    /// first `Fin` of that producer only — is in the preservation log.
    Fin {
        /// The Fin WAL marker to append, if this is the first `Fin`.
        marker: Option<Tuple>,
    },
    /// A protocol violation (a malformed payload, a batch before
    /// `Hello`, a gateway-to-producer message): drop the connection.
    /// Nothing was admitted, deduped or charged to the window.
    Drop,
}

/// The gateway's checkpointable state plus admission-window counters.
pub struct GateCore {
    op: OperatorId,
    cfg: GateConfig,
    /// Per producer, the highest accepted batch id (the protocol is
    /// stop-and-wait with strictly increasing ids, so one id per
    /// producer suppresses every duplicate).
    dedup: BTreeMap<u64, u64>,
    finished: BTreeSet<u64>,
    /// Admission-window usage in [`EVENT_BYTES`] units, reset at every
    /// checkpoint.
    window_bytes: u64,
    /// One batch's folded `(key, sum)` pairs, reused across batches.
    folded: Vec<(u64, i64)>,
}

impl GateCore {
    /// A fresh core for gateway operator `op`.
    pub fn new(op: OperatorId, cfg: GateConfig) -> GateCore {
        GateCore {
            op,
            cfg,
            dedup: BTreeMap::new(),
            finished: BTreeSet::new(),
            window_bytes: 0,
            folded: Vec::new(),
        }
    }

    /// Decides one producer frame's payload on a connection bound to
    /// `*producer` (a `Hello` or `Fin` binds it). A batch is parsed
    /// and checked whole before any admission decision; on `Accept`
    /// its tuples are stamped from `*next_seq`, which advances.
    pub fn on_frame(
        &mut self,
        next_seq: &mut u64,
        producer: &mut Option<u64>,
        payload: &[u8],
    ) -> FrameStep {
        let Ok(msg) = GateMsg::decode_in_place(payload) else {
            return FrameStep::Drop;
        };
        match msg {
            Inbound::Batch { batch, events } => match *producer {
                Some(p) => FrameStep::Batch {
                    batch,
                    admission: self.admit_events(next_seq, p, batch, events.iter()),
                },
                None => FrameStep::Drop,
            },
            Inbound::Msg(GateMsg::Hello { producer: p }) => {
                *producer = Some(p);
                FrameStep::Hello
            }
            Inbound::Msg(GateMsg::Fin { producer: p }) => {
                producer.get_or_insert(p);
                let marker = (!self.is_finished(p)).then(|| self.fin_marker(next_seq, p));
                self.fin(p);
                FrameStep::Fin { marker }
            }
            // Gateway-to-producer messages arriving at the gateway are
            // a protocol violation.
            Inbound::Msg(_) => FrameStep::Drop,
        }
    }

    /// Decides one batch of decoded events — [`GateCore::on_frame`]'s
    /// admission, for a caller that holds the events already. On
    /// `Accept`, tuples are stamped from `*next_seq` (which advances)
    /// and the admission window is charged.
    pub fn admit(
        &mut self,
        next_seq: &mut u64,
        producer: u64,
        batch: u64,
        events: &[(u64, i64)],
    ) -> Admission {
        self.admit_events(next_seq, producer, batch, events.iter().copied())
    }

    fn admit_events(
        &mut self,
        next_seq: &mut u64,
        producer: u64,
        batch: u64,
        events: impl ExactSizeIterator<Item = (u64, i64)>,
    ) -> Admission {
        if self.dedup.get(&producer).is_some_and(|&last| batch <= last) {
            return Admission::Duplicate;
        }
        let cost = events.len() as u64 * EVENT_BYTES;
        if self.cfg.budget_bytes > 0
            && self.window_bytes.saturating_add(cost) > self.cfg.budget_bytes
        {
            return Admission::Shed;
        }
        self.window_bytes += cost;
        self.dedup.insert(producer, batch);
        // Pre-aggregation: one tuple per distinct key per batch,
        // ascending key order — deterministic in the batch alone, so a
        // retried batch regenerates byte-identical tuples.
        fold(events, &mut self.folded);
        let n = self.folded.len();
        let tuples = self
            .folded
            .iter()
            .enumerate()
            .map(|(i, &(k, v))| {
                // Collected from an array, the fields are allocated
                // once, in place; a `Vec` would be copied into them.
                let fields: Fields = [
                    Value::Int(v),
                    Value::Int(k as i64),
                    Value::Int(producer as i64),
                    Value::Int(batch as i64),
                    Value::Int((i + 1 == n) as i64),
                ]
                .into_iter()
                .collect();
                let t = Tuple::new(self.op, *next_seq, SimTime::ZERO, fields);
                *next_seq += 1;
                t
            })
            .collect();
        Admission::Accept(tuples)
    }

    /// Records a producer's Fin; returns `true` once every expected
    /// producer has finished (never under `expected_producers == 0`).
    pub fn fin(&mut self, producer: u64) -> bool {
        self.finished.insert(producer);
        self.all_finished()
    }

    /// True once every expected producer has finished (never under
    /// `expected_producers == 0`).
    pub fn all_finished(&self) -> bool {
        self.cfg.expected_producers > 0
            && self.finished.len() >= self.cfg.expected_producers as usize
    }

    /// True if `producer` already Fin'd (its marker is already
    /// durable — a retried `Fin` re-acks without re-appending).
    pub fn is_finished(&self, producer: u64) -> bool {
        self.finished.contains(&producer)
    }

    /// Builds the WAL marker for a producer's `Fin`, consuming one
    /// emission sequence number. The caller appends it to the
    /// preservation log *before* queueing `FinOk` — the same
    /// ack-after-WAL contract as batches — so a rollback to a
    /// checkpoint that predates the ack replays the marker and the
    /// recovered gate still knows the producer is done.
    pub fn fin_marker(&self, next_seq: &mut u64, producer: u64) -> Tuple {
        let t = Tuple::new(
            self.op,
            *next_seq,
            SimTime::ZERO,
            vec![
                Value::Int(0),
                Value::Int(0),
                Value::Int(producer as i64),
                Value::Int(0),
                Value::Int(field::FIN_MARKER),
            ],
        );
        *next_seq += 1;
        t
    }

    /// Opens a fresh admission window (called at each checkpoint cut).
    pub fn reset_window(&mut self) {
        self.window_bytes = 0;
    }

    /// The configured `Busy` retry hint.
    pub fn retry_after_ms(&self) -> u64 {
        self.cfg.retry_after_ms
    }

    /// Serializes the checkpointable state (dedup table + finished
    /// set). Window counters are deliberately excluded: recovery opens
    /// a fresh admission window.
    pub fn snapshot(&self) -> OperatorSnapshot {
        let mut w = SnapshotWriter::new();
        w.put_seq(self.dedup.iter(), |w, (p, b)| {
            w.put_u64(*p).put_u64(*b);
        });
        w.put_seq(self.finished.iter(), |w, p| {
            w.put_u64(*p);
        });
        let data = w.finish();
        OperatorSnapshot {
            logical_bytes: data.len() as u64,
            data,
        }
    }

    /// Restores from a [`GateCore::snapshot`].
    pub fn restore(&mut self, snapshot: &OperatorSnapshot) -> Result<()> {
        let mut r = SnapshotReader::new(&snapshot.data);
        let dedup = r.get_seq(|r| Ok((r.get_u64()?, r.get_u64()?)))?;
        let finished = r.get_seq(|r| r.get_u64())?;
        self.dedup = dedup.into_iter().collect();
        self.finished = finished.into_iter().collect();
        self.reset_window();
        Ok(())
    }

    /// Folds replayed WAL tuples into the dedup table: batches logged
    /// *after* the restored checkpoint's mark were durable (and
    /// possibly acked) even though the snapshot predates them, so a
    /// producer retrying one must get `Duplicate`, not a second
    /// admission. Only batches whose final tuple survived count — a
    /// torn batch was never fully durable, was never acked, and must
    /// be re-admitted whole.
    pub fn rebuild_from_replay(&mut self, replay: &[Tuple]) {
        for t in replay {
            let last = t.field(field::LAST).and_then(Value::as_int);
            if last == Some(field::FIN_MARKER) {
                // A durable Fin marker: the producer's FinOk was (or
                // was about to be) acked — it is finished, even though
                // the restored snapshot predates the Fin.
                if let Some(p) = t.field(field::PRODUCER).and_then(Value::as_int) {
                    self.finished.insert(p as u64);
                }
                continue;
            }
            if last != Some(1) {
                continue;
            }
            let (Some(p), Some(b)) = (
                t.field(field::PRODUCER).and_then(Value::as_int),
                t.field(field::BATCH).and_then(Value::as_int),
            ) else {
                continue;
            };
            let e = self.dedup.entry(p as u64).or_insert(b as u64);
            *e = (*e).max(b as u64);
        }
    }

    /// Accepted batches so far for `producer` (diagnostics/tests).
    pub fn last_accepted(&self, producer: u64) -> Option<u64> {
        self.dedup.get(&producer).copied()
    }

    /// Admission-window usage in [`EVENT_BYTES`] units (diagnostics/tests).
    pub fn window_bytes(&self) -> u64 {
        self.window_bytes
    }
}

/// Folds `events` into `out` as one `(key, wrapping sum)` pair per
/// distinct key, in ascending key order. Up to [`INLINE_KEYS`]
/// distinct keys fold in a table on the stack; the first key beyond
/// it moves the table and the rest of the events into `out` to be
/// sorted and merged.
fn fold(mut events: impl Iterator<Item = (u64, i64)>, out: &mut Vec<(u64, i64)>) {
    out.clear();
    let mut table = [(0u64, 0i64); INLINE_KEYS];
    let mut n = 0;
    while let Some((k, v)) = events.next() {
        if let Some(slot) = table[..n].iter_mut().find(|slot| slot.0 == k) {
            // Wrapping: the fold must never panic on hostile producer
            // input, and wrapping is still deterministic.
            slot.1 = slot.1.wrapping_add(v);
        } else if n < INLINE_KEYS {
            table[n] = (k, v);
            n += 1;
        } else {
            out.extend_from_slice(&table);
            out.push((k, v));
            out.extend(events);
            out.sort_unstable_by_key(|e| e.0);
            out.dedup_by(|later, kept| {
                later.0 == kept.0 && {
                    kept.1 = kept.1.wrapping_add(later.1);
                    true
                }
            });
            return;
        }
    }
    out.extend_from_slice(&table[..n]);
    out.sort_unstable_by_key(|e| e.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(cfg: GateConfig) -> GateCore {
        GateCore::new(OperatorId(0), cfg)
    }

    #[test]
    fn preagg_folds_per_key_deterministically() {
        let mut c = core(GateConfig::default());
        let mut seq = 0;
        let events = [(7, 10), (3, 1), (7, 5), (3, 2), (9, -4)];
        let Admission::Accept(tuples) = c.admit(&mut seq, 1, 1, &events) else {
            panic!("accept expected");
        };
        // Ascending key order, one tuple per key, summed values.
        let got: Vec<(i64, i64)> = tuples
            .iter()
            .map(|t| {
                (
                    t.field(field::KEY).and_then(Value::as_int).unwrap(),
                    t.field(field::VALUE).and_then(Value::as_int).unwrap(),
                )
            })
            .collect();
        assert_eq!(got, vec![(3, 3), (7, 15), (9, -4)]);
        assert_eq!(seq, 3);
        assert_eq!(
            tuples
                .last()
                .unwrap()
                .field(field::LAST)
                .and_then(Value::as_int),
            Some(1)
        );
        assert!(tuples[..2]
            .iter()
            .all(|t| t.field(field::LAST).and_then(Value::as_int) == Some(0)));
    }

    #[test]
    fn duplicate_batches_admit_nothing() {
        let mut c = core(GateConfig::default());
        let mut seq = 0;
        assert!(matches!(
            c.admit(&mut seq, 1, 1, &[(0, 1)]),
            Admission::Accept(_)
        ));
        let before = seq;
        assert!(matches!(
            c.admit(&mut seq, 1, 1, &[(0, 1)]),
            Admission::Duplicate
        ));
        assert!(matches!(
            c.admit(&mut seq, 1, 0, &[(0, 1)]),
            Admission::Duplicate
        ));
        assert_eq!(seq, before, "duplicates consume no sequence numbers");
        // A different producer's batch 1 is not a duplicate.
        assert!(matches!(
            c.admit(&mut seq, 2, 1, &[(0, 1)]),
            Admission::Accept(_)
        ));
    }

    #[test]
    fn budget_sheds_and_checkpoint_reopens_window() {
        let mut c = core(GateConfig {
            budget_bytes: 2 * EVENT_BYTES,
            ..GateConfig::default()
        });
        let mut seq = 0;
        assert!(matches!(
            c.admit(&mut seq, 1, 1, &[(0, 1), (1, 1)]),
            Admission::Accept(_)
        ));
        // Window full: shed, and the batch id is NOT recorded — a
        // retry after the window reopens must be admitted.
        assert!(matches!(
            c.admit(&mut seq, 1, 2, &[(0, 1)]),
            Admission::Shed
        ));
        assert_eq!(c.last_accepted(1), Some(1));
        c.reset_window();
        assert!(matches!(
            c.admit(&mut seq, 1, 2, &[(0, 1)]),
            Admission::Accept(_)
        ));
        // A batch alone bigger than the whole budget is always shed.
        let big: Vec<(u64, i64)> = (0..3).map(|k| (k, 1)).collect();
        c.reset_window();
        assert!(matches!(c.admit(&mut seq, 1, 3, &big), Admission::Shed));
    }

    #[test]
    fn snapshot_restores_dedup_and_fin_state() {
        let mut c = core(GateConfig {
            expected_producers: 2,
            ..GateConfig::default()
        });
        let mut seq = 0;
        c.admit(&mut seq, 1, 4, &[(0, 1)]);
        c.admit(&mut seq, 9, 2, &[(0, 1)]);
        assert!(!c.fin(9));
        let snap = c.snapshot();
        let mut r = core(GateConfig {
            expected_producers: 2,
            ..GateConfig::default()
        });
        r.restore(&snap).unwrap();
        let mut seq2 = 100;
        assert!(matches!(
            r.admit(&mut seq2, 1, 4, &[(0, 1)]),
            Admission::Duplicate
        ));
        assert!(matches!(
            r.admit(&mut seq2, 9, 2, &[(0, 1)]),
            Admission::Duplicate
        ));
        assert!(matches!(
            r.admit(&mut seq2, 1, 5, &[(0, 1)]),
            Admission::Accept(_)
        ));
        assert!(r.fin(1), "restored Fin from 9 plus fresh Fin from 1");
    }

    #[test]
    fn replay_rebuild_restores_fins_from_markers() {
        let mut pre = core(GateConfig {
            expected_producers: 2,
            ..GateConfig::default()
        });
        let mut seq = 0;
        let Admission::Accept(mut replay) = pre.admit(&mut seq, 1, 1, &[(0, 5)]) else {
            panic!("accept expected");
        };
        replay.push(pre.fin_marker(&mut seq, 1));
        replay.push(pre.fin_marker(&mut seq, 2));
        assert!(replay[1..].iter().all(is_fin_marker));
        assert!(!is_fin_marker(&replay[0]));

        let mut r = core(GateConfig {
            expected_producers: 2,
            ..GateConfig::default()
        });
        r.rebuild_from_replay(&replay);
        assert!(r.is_finished(1) && r.is_finished(2));
        assert!(
            r.all_finished(),
            "both Fins were WAL-durable — the recovered gate must not wait for them"
        );
        // The marker did not poison the dedup table: batch 2 from
        // producer 1 is new.
        let mut seq2 = 50;
        assert!(matches!(
            r.admit(&mut seq2, 1, 2, &[(0, 1)]),
            Admission::Accept(_)
        ));
    }

    #[test]
    fn on_frame_binds_producers_and_drops_protocol_violations() {
        let mut c = core(GateConfig::default());
        let (mut seq, mut bound) = (0, None);
        let batch = GateMsg::Batch {
            batch: 1,
            events: vec![(2, 5), (1, 1), (2, -3)],
        }
        .encode();
        // A batch before `Hello` has no producer to dedup under.
        assert!(matches!(
            c.on_frame(&mut seq, &mut bound, &batch),
            FrameStep::Drop
        ));
        assert_eq!((seq, c.window_bytes()), (0, 0));
        let hello = GateMsg::Hello { producer: 4 }.encode();
        assert!(matches!(
            c.on_frame(&mut seq, &mut bound, &hello),
            FrameStep::Hello
        ));
        assert_eq!(bound, Some(4));
        let FrameStep::Batch {
            batch: 1,
            admission: Admission::Accept(tuples),
        } = c.on_frame(&mut seq, &mut bound, &batch)
        else {
            panic!("accept expected");
        };
        let folded: Vec<_> = tuples
            .iter()
            .map(|t| (t.field(field::KEY), t.field(field::VALUE)))
            .collect();
        assert_eq!(
            folded,
            [
                (Some(&Value::Int(1)), Some(&Value::Int(1))),
                (Some(&Value::Int(2)), Some(&Value::Int(2)))
            ]
        );
        // A gateway-to-producer message is a violation.
        let ack = GateMsg::Accepted { batch: 1 }.encode();
        assert!(matches!(
            c.on_frame(&mut seq, &mut bound, &ack),
            FrameStep::Drop
        ));
        // Only a producer's first `Fin` carries a WAL marker.
        let fin = GateMsg::Fin { producer: 4 }.encode();
        let FrameStep::Fin { marker: Some(m) } = c.on_frame(&mut seq, &mut bound, &fin) else {
            panic!("first Fin carries its marker");
        };
        assert!(is_fin_marker(&m));
        assert!(matches!(
            c.on_frame(&mut seq, &mut bound, &fin),
            FrameStep::Fin { marker: None }
        ));
        assert!(c.is_finished(4));
    }

    #[test]
    fn fin_markers_consume_sequence_numbers() {
        let c = core(GateConfig::default());
        let mut seq = 7;
        let m = c.fin_marker(&mut seq, 42);
        assert_eq!(m.seq, 7);
        assert_eq!(seq, 8, "marker consumes one emission sequence");
        assert_eq!(
            m.field(field::PRODUCER).and_then(Value::as_int),
            Some(42),
            "marker carries the producer id"
        );
    }

    #[test]
    fn replay_rebuild_skips_torn_batches() {
        let mut c = core(GateConfig::default());
        let mut seq = 0;
        let Admission::Accept(full_batch) = c.admit(&mut seq, 1, 1, &[(0, 1), (1, 2)]) else {
            panic!("accept expected");
        };
        let Admission::Accept(torn_batch) = c.admit(&mut seq, 2, 1, &[(0, 1), (1, 2)]) else {
            panic!("accept expected");
        };
        // Producer 2's final tuple was torn off the WAL by the crash.
        let mut replay = full_batch;
        replay.extend(torn_batch.into_iter().take(1));
        let mut r = core(GateConfig::default());
        r.rebuild_from_replay(&replay);
        let mut seq2 = 50;
        assert!(matches!(
            r.admit(&mut seq2, 1, 1, &[(0, 1), (1, 2)]),
            Admission::Duplicate
        ));
        assert!(
            matches!(
                r.admit(&mut seq2, 2, 1, &[(0, 1), (1, 2)]),
                Admission::Accept(_)
            ),
            "torn batch was never fully durable — re-admit it whole"
        );
    }
}
