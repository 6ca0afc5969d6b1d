//! Property tests for the producer↔gateway protocol: frame roundtrips
//! for every message shape, one-byte torn reads reassembling
//! losslessly, and the duplicate-batch idempotence the ack-after-WAL
//! contract rests on — including across a WAL-replay rebuild. The
//! gate's in-place ingest (a frame read into the decoder, parsed and
//! folded where it lies) is held to a `BTreeMap` fold of the decoded
//! events, and every cut, extension and byte flip of a batch payload
//! is either refused whole or admitted exactly as decoded.

use std::collections::BTreeMap;
use std::io::Read;

use ms_core::codec::{frame, read_frame, write_frame, FrameDecoder};
use ms_core::gate::{GateConfig, GateMsg, EVENT_BYTES};
use ms_core::ids::OperatorId;
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_gate::{field, Admission, FrameStep, GateCore};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn arb_events() -> impl Strategy<Value = Vec<(u64, i64)>> {
    proptest::collection::vec((0u64..32, any::<i64>()), 0..24)
}

fn arb_msg() -> impl Strategy<Value = GateMsg> {
    prop_oneof![
        any::<u64>().prop_map(|producer| GateMsg::Hello { producer }),
        (any::<u64>(), arb_events()).prop_map(|(batch, events)| GateMsg::Batch { batch, events }),
        any::<u64>().prop_map(|producer| GateMsg::Fin { producer }),
        any::<u64>().prop_map(|batch| GateMsg::Accepted { batch }),
        (any::<u64>(), any::<u64>()).prop_map(|(batch, retry_after_ms)| GateMsg::Busy {
            batch,
            retry_after_ms
        }),
        // The vendored proptest has no `Just`; a unit range works.
        (0u64..1).prop_map(|_| GateMsg::FinOk),
    ]
}

/// A reader that hands out at most one byte per `read` call — the
/// worst-case torn read a TCP stream can produce.
struct OneByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

/// Golden bytes captured from the encoder before `ms-core::codec`
/// dropped the `bytes` crate: deployed producers speak this layout, so
/// it is pinned against that encoder, not against a roundtrip.
#[test]
fn gate_batch_matches_golden_bytes() {
    const GOLDEN: &str = "010200000000000000010300000000000000010200000000000000\
        010500000000000000020a0000000000000001ffffffffffffffff02ffffffffffffffff";
    let msg = GateMsg::Batch {
        batch: 3,
        events: vec![(5, 10), (u64::MAX, -1)],
    };
    let payload = msg.encode();
    let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    assert_eq!(GateMsg::decode(&payload).unwrap(), msg);
}

proptest! {
    /// Every producer-protocol message survives its codec bit-exactly.
    #[test]
    fn gate_msg_roundtrip(msg in arb_msg()) {
        prop_assert_eq!(GateMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Trailing garbage after a valid encoding is an error, never a
    /// silent partial parse.
    #[test]
    fn trailing_bytes_rejected(msg in arb_msg(), extra in 1usize..8) {
        let mut bytes = msg.encode();
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(GateMsg::decode(&bytes).is_err());
    }

    /// A framed stream of protocol messages reassembles through
    /// one-byte torn reads, ending in a clean EOF.
    #[test]
    fn framed_stream_survives_one_byte_tearing(msgs in proptest::collection::vec(arb_msg(), 0..6)) {
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, &m.encode()).unwrap();
        }
        let mut torn = OneByteReader { bytes: &stream, pos: 0 };
        for m in &msgs {
            let payload = read_frame(&mut torn).unwrap().unwrap();
            prop_assert_eq!(&GateMsg::decode(&payload).unwrap(), m);
        }
        prop_assert_eq!(read_frame(&mut torn).unwrap(), None);
    }

    /// The incremental decoder the gate's event loop runs on
    /// reassembles frames fed in arbitrary chunk sizes with nothing
    /// left over.
    #[test]
    fn decoder_reassembles_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_msg(), 0..6),
        chunk in 1usize..7,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&frame(&m.encode()));
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(GateMsg::decode(&p).unwrap());
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Re-admitting any batch (any number of times) is idempotent: the
    /// retries admit nothing and the emitted tuple stream is exactly
    /// the first admission's.
    #[test]
    fn duplicate_batches_admit_nothing(
        producer in any::<u64>(),
        batches in proptest::collection::vec(arb_events(), 1..5),
        retries in 1usize..4,
    ) {
        let cfg = GateConfig::default();
        let mut core = GateCore::new(OperatorId(0), cfg);
        let mut next_seq = 0u64;
        let mut emitted = Vec::new();
        for (i, events) in batches.iter().enumerate() {
            match core.admit(&mut next_seq, producer, i as u64 + 1, events) {
                Admission::Accept(ts) => emitted.extend(ts),
                other => prop_assert!(false, "first admission must accept, got {other:?}"),
            }
        }
        let seq_after = next_seq;
        for _ in 0..retries {
            for (i, events) in batches.iter().enumerate() {
                match core.admit(&mut next_seq, producer, i as u64 + 1, events) {
                    Admission::Duplicate => {}
                    other => prop_assert!(false, "retry must dedup, got {other:?}"),
                }
            }
        }
        // Duplicates must not consume sequence numbers.
        prop_assert_eq!(next_seq, seq_after);
        prop_assert_eq!(emitted.len() as u64, next_seq);
    }

    /// Recovery parity: a fresh core rebuilt from the WAL'd tuples of
    /// the crashed one answers every previously acked batch as a
    /// duplicate and admits a genuinely new batch normally.
    #[test]
    fn replay_rebuild_preserves_dedup(
        producer in any::<u64>(),
        batches in proptest::collection::vec(arb_events(), 1..5),
    ) {
        let cfg = GateConfig::default();
        let mut pre = GateCore::new(OperatorId(0), cfg);
        let mut next_seq = 0u64;
        let mut walled = Vec::new();
        for (i, events) in batches.iter().enumerate() {
            if let Admission::Accept(ts) = pre.admit(&mut next_seq, producer, i as u64 + 1, events) {
                walled.extend(ts);
            }
        }
        // "Crash": a new core sees only what reached the WAL.
        let mut post = GateCore::new(OperatorId(0), cfg);
        post.rebuild_from_replay(&walled);
        let mut seq2 = next_seq;
        for (i, events) in batches.iter().enumerate() {
            // Empty batches emit no tuples, so the WAL holds no trace
            // of them — they re-admit (emitting nothing) instead of
            // deduping, which is indistinguishable downstream.
            if events.is_empty() {
                continue;
            }
            match post.admit(&mut seq2, producer, i as u64 + 1, events) {
                Admission::Duplicate => {}
                other => prop_assert!(false, "acked batch {} must dedup after replay, got {other:?}", i + 1),
            }
        }
        prop_assert_eq!(seq2, next_seq);
        let fresh = post.admit(&mut seq2, producer, batches.len() as u64 + 1, &[(1, 1)]);
        prop_assert!(matches!(fresh, Admission::Accept(_)));
    }
}

/// A batch of `n` events from `seed`, keyed by `shape`: 0 cycles 8 hot
/// keys, 1 gives every event its own key (in scrambled order), 2 runs
/// hot keys for the first half and then spreads over 40 keys, so the
/// fold's inline table overflows mid-batch. A quarter of the values
/// are `i64::MIN` or `i64::MAX`, so sums wrap.
fn shaped_events(shape: u64, n: usize, seed: u64) -> Vec<(u64, i64)> {
    let mut rng = proptest::TestRng::new(seed);
    (0..n as u64)
        .map(|j| {
            let key = match shape {
                0 => j % 8,
                1 => j.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                _ if j < n as u64 / 2 => j % 8,
                _ => rng.below(40) * 1_000_003,
            };
            let value = match rng.below(8) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.next_u64() as i64,
            };
            (key, value)
        })
        .collect()
}

/// The oracle: per-key wrapping sums in ascending key order.
fn btree_fold(events: &[(u64, i64)]) -> Vec<(u64, i64)> {
    let mut folded: BTreeMap<u64, i64> = BTreeMap::new();
    for &(k, v) in events {
        let slot = folded.entry(k).or_insert(0);
        *slot = slot.wrapping_add(v);
    }
    folded.into_iter().collect()
}

fn int(t: &Tuple, i: usize) -> i64 {
    t.field(i).and_then(Value::as_int).expect("int field")
}

/// A core that has accepted batch `last` of `producer` (one event),
/// and the next emission sequence after it.
fn primed(cfg: GateConfig, producer: u64, last: u64) -> (GateCore, u64) {
    let mut core = GateCore::new(OperatorId(0), cfg);
    let mut seq = 0;
    let first = core.admit(&mut seq, producer, last, &[(3, 4)]);
    assert!(matches!(first, Admission::Accept(_)));
    (core, seq)
}

/// One frame's step on a bound connection, next to the admission
/// window, dedup entry and sequence it left behind.
fn step(core: &mut GateCore, seq: &mut u64, producer: u64, payload: &[u8]) -> FrameStep {
    let mut bound = Some(producer);
    core.on_frame(seq, &mut bound, payload)
}

proptest! {
    /// The tuples a gate admits from an encoded frame — read into the
    /// decoder, popped in place, parsed and folded — are field for
    /// field the `BTreeMap` fold of the batch's events, for hot keys,
    /// unique keys and batches that overflow the inline table.
    #[test]
    fn frame_admission_matches_btreemap_fold(
        shape in 0u64..3,
        n in 0usize..4097,
        seed in any::<u64>(),
        producer in any::<u64>(),
        batch in any::<u64>(),
        first_seq in 0u64..1_000_000,
    ) {
        let events = shaped_events(shape, n, seed);
        let framed = frame(&GateMsg::Batch { batch, events: events.clone() }.encode());
        let mut dec = FrameDecoder::new();
        let mut src = &framed[..];
        while dec.read_from(&mut src).unwrap() > 0 {}
        let payload = dec.pop_frame().unwrap().expect("one whole frame");
        let mut core = GateCore::new(OperatorId(0), GateConfig::default());
        let mut seq = first_seq;
        let got = match step(&mut core, &mut seq, producer, payload) {
            FrameStep::Batch { batch: b, admission: Admission::Accept(tuples) } => {
                prop_assert_eq!(b, batch);
                tuples
            }
            other => return Err(TestCaseError::fail(format!("expected an accept, got {other:?}"))),
        };
        let want = btree_fold(&events);
        prop_assert_eq!(got.len(), want.len());
        for (i, (t, &(k, v))) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(t.producer, OperatorId(0));
            prop_assert_eq!(t.seq, first_seq + i as u64);
            prop_assert_eq!(int(t, field::VALUE), v);
            prop_assert_eq!(int(t, field::KEY), k as i64);
            prop_assert_eq!(int(t, field::PRODUCER), producer as i64);
            prop_assert_eq!(int(t, field::BATCH), batch as i64);
            prop_assert_eq!(int(t, field::LAST), (i + 1 == want.len()) as i64);
        }
        prop_assert_eq!(seq, first_seq + want.len() as u64);
        prop_assert_eq!(core.window_bytes(), n as u64 * EVENT_BYTES);
        // The decoded-events adapter admits the same tuples.
        let mut again = GateCore::new(OperatorId(0), GateConfig::default());
        let mut seq2 = first_seq;
        match again.admit(&mut seq2, producer, batch, &events) {
            Admission::Accept(tuples) => prop_assert_eq!(tuples, got),
            other => prop_assert!(false, "adapter must accept, got {other:?}"),
        }
    }

    /// Every truncation, extension and single-byte flip of a valid
    /// `Batch` payload is either refused — the connection dropped, and
    /// the dedup table, admission window and sequence untouched — or
    /// admitted exactly as `GateMsg::decode` decodes it.
    #[test]
    fn mutated_batch_payload_is_refused_whole_or_admitted_as_decoded(
        events in arb_events(),
        batch in 1u64..6,
        extra in proptest::collection::vec(any::<u8>(), 1..40),
        mask in 1u8..255,
        budget_events in 0u64..30,
    ) {
        let cfg = GateConfig { budget_bytes: budget_events * EVENT_BYTES, ..GateConfig::default() };
        let (producer, last) = (7, 3);
        let payload = GateMsg::Batch { batch, events }.encode();
        // Each mutant, and whether it must be refused on its own
        // account: a batch's length is exact, and a tag byte — message,
        // batch id, count, and each event's key and value — is fixed.
        let tags: Vec<usize> = [0, 9, 18]
            .into_iter()
            .chain((27..payload.len()).step_by(9))
            .collect();
        let mut mutants: Vec<(Vec<u8>, bool)> =
            (0..payload.len()).map(|cut| (payload[..cut].to_vec(), true)).collect();
        for len in 1..=extra.len() {
            let mut longer = payload.clone();
            longer.extend_from_slice(&extra[..len]);
            mutants.push((longer, true));
        }
        for at in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[at] ^= mask;
            mutants.push((flipped, tags.contains(&at)));
        }
        for (m, refuse) in &mutants {
            let (mut core, seq0) = primed(cfg, producer, last);
            let (window0, mut seq) = (core.window_bytes(), seq0);
            let got = step(&mut core, &mut seq, producer, m);
            prop_assert!(!refuse || matches!(got, FrameStep::Drop), "must refuse, got {got:?}");
            match GateMsg::decode(m) {
                Err(_) => {
                    prop_assert!(matches!(got, FrameStep::Drop), "refused payload must drop, got {got:?}");
                    prop_assert_eq!(core.last_accepted(producer), Some(last));
                    prop_assert_eq!(core.window_bytes(), window0);
                    prop_assert_eq!(seq, seq0);
                }
                Ok(GateMsg::Batch { batch: b, events: decoded }) => {
                    let (mut oracle, mut oracle_seq) = primed(cfg, producer, last);
                    let want = oracle.admit(&mut oracle_seq, producer, b, &decoded);
                    let FrameStep::Batch { batch: got_b, admission } = got else {
                        return Err(TestCaseError::fail(format!("decodable batch not admitted: {got:?}")));
                    };
                    prop_assert_eq!(got_b, b);
                    match (admission, want) {
                        (Admission::Accept(a), Admission::Accept(w)) => prop_assert_eq!(a, w),
                        (Admission::Duplicate, Admission::Duplicate) | (Admission::Shed, Admission::Shed) => {}
                        (a, w) => prop_assert!(false, "admitted {a:?}, decode admits {w:?}"),
                    }
                    prop_assert_eq!(seq, oracle_seq);
                    prop_assert_eq!(core.window_bytes(), oracle.window_bytes());
                    prop_assert_eq!(core.last_accepted(producer), oracle.last_accepted(producer));
                }
                Ok(other) => prop_assert!(
                    !matches!(got, FrameStep::Batch { .. }),
                    "a payload decoding to {other:?} was admitted as a batch"
                ),
            }
        }
    }

    /// Validation comes before deduplication: a malformed payload that
    /// carries an already-accepted batch id still drops the connection,
    /// while the same batch well-formed is re-acked as a duplicate.
    #[test]
    fn malformed_duplicate_still_drops(events in arb_events(), cut in 1usize..18, bad_tag in 3u8..255) {
        let (producer, last) = (11, 4);
        let good = GateMsg::Batch { batch: last, events: events.clone() }.encode();
        let mut truncated = good.clone();
        truncated.truncate(good.len() - cut.min(good.len()));
        let mut trailing = good.clone();
        trailing.push(0);
        let mut malformed = vec![truncated, trailing];
        if !events.is_empty() {
            // The first event's value tag (an `i64` is tag 2).
            let mut wrong_tag = good.clone();
            wrong_tag[27 + 9] = bad_tag;
            malformed.push(wrong_tag);
        }
        for m in &malformed {
            let (mut core, seq0) = primed(GateConfig::default(), producer, last);
            let mut seq = seq0;
            let got = step(&mut core, &mut seq, producer, m);
            prop_assert!(matches!(got, FrameStep::Drop), "malformed duplicate must drop, got {got:?}");
            prop_assert_eq!(core.window_bytes(), EVENT_BYTES);
            prop_assert_eq!(seq, seq0);
        }
        let (mut core, mut seq) = primed(GateConfig::default(), producer, last);
        let got = step(&mut core, &mut seq, producer, &good);
        prop_assert!(
            matches!(got, FrameStep::Batch { admission: Admission::Duplicate, .. }),
            "well-formed duplicate must re-ack, got {got:?}"
        );
    }
}
