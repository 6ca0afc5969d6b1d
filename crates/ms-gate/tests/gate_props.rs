//! Property tests for the producer↔gateway protocol: frame roundtrips
//! for every message shape, one-byte torn reads reassembling
//! losslessly, and the duplicate-batch idempotence the ack-after-WAL
//! contract rests on — including across a WAL-replay rebuild.

use std::io::Read;

use ms_core::codec::{frame, read_frame, write_frame, FrameDecoder};
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::OperatorId;
use ms_gate::{Admission, GateCore};
use proptest::prelude::*;

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
        preagg in any::<bool>(),
    ) {
        let cfg = GateConfig { preagg, ..GateConfig::default() };
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
        preagg in any::<bool>(),
    ) {
        let cfg = GateConfig { preagg, ..GateConfig::default() };
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
