//! Property tests for the frame layer and the wire-message codec:
//! roundtrips must be exact, and torn reads — down to one byte at a
//! time — must reassemble losslessly or error, never panic or
//! misparse.

use std::io::Read;

use ms_core::codec::{frame, read_frame, write_frame, FrameDecoder};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::{BackpressureGauges, OperatorSample};
use ms_core::time::SimTime;
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_gate::GateSample;
use ms_wire::WireMsg;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        0u32..64,
        any::<u64>(),
        0u64..1 << 40,
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(p, seq, t, fields)| {
            Tuple::new(OperatorId(p), seq, SimTime::from_micros(t), fields)
        })
}

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..8)
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

/// Spreads one generated `u64` across distinct per-field values
/// (near-MAX ones included).
fn spread(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
}

fn spread_sample(seed: u64, delta: bool) -> OperatorSample {
    let v = |i: u64| spread(seed, i);
    OperatorSample {
        tuples_in: v(1),
        tuples_out: v(2),
        bytes_out: v(3),
        state_bytes: v(4),
        ckpt_epoch: v(5),
        ckpt_bytes: v(6),
        ckpt_is_delta: delta,
        align_wait_us: v(9),
        capture_us: v(12),
        persist_us: v(11),
        cow_pages_copied: v(13),
        file_bytes: v(14),
        file_is_delta: !delta,
    }
}

/// The data frame, pinned byte for byte: the length prefix, the
/// message tag, then one batch record — version `b1`, producer 1,
/// count 1, first and last seq 9, base time 0, and the tuple as seq
/// delta 0, time delta 0, one field, `Int(5)` as a zigzag varint. The
/// preservation log holds the same records, so a change here is a
/// new record version, never a silent edit.
#[test]
fn framed_tuple_batch_matches_golden_bytes() {
    const GOLDEN: &str = "14000000011100000000000000b10101090900000001210a";
    let t = Tuple::new(OperatorId(1), 9, SimTime::ZERO, vec![Value::Int(5)]);
    let msg = WireMsg::TupleBatch(vec![t]);
    let framed = frame(&msg.encode());
    let hex: String = framed.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);
    assert_eq!(WireMsg::decode(&framed[4..]).unwrap(), msg);
}

proptest! {
    /// Frames written to a stream read back exactly, ending in a clean
    /// EOF.
    #[test]
    fn frame_stream_roundtrip(payloads in arb_payloads()) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), p);
        }
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// `read_frame` reassembles frames from one-byte-at-a-time reads.
    #[test]
    fn frame_reads_survive_one_byte_tearing(payloads in arb_payloads()) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut torn = OneByteReader { bytes: &stream, pos: 0 };
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut torn).unwrap().unwrap(), p);
        }
        prop_assert_eq!(read_frame(&mut torn).unwrap(), None);
    }

    /// The incremental decoder reassembles frames fed in arbitrary
    /// chunk sizes (including single bytes) with nothing left over.
    #[test]
    fn decoder_reassembles_arbitrary_chunking(
        payloads in arb_payloads(),
        chunk in 1usize..7,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(p);
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Truncating a framed stream anywhere is an error (torn frame) or
    /// a clean EOF at a boundary — never a panic, never a misparse of
    /// the intact prefix.
    #[test]
    fn truncation_never_misparses(payloads in arb_payloads(), cut in 0usize..64) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let keep = stream.len().saturating_sub(cut);
        let mut cursor = std::io::Cursor::new(&stream[..keep]);
        let mut seen = 0usize;
        // A torn tail errors and a boundary cut yields EOF — either way
        // the loop ends after the intact prefix.
        while let Ok(Some(p)) = read_frame(&mut cursor) {
            prop_assert_eq!(&p, &payloads[seen]);
            seen += 1;
        }
        prop_assert!(seen <= payloads.len());
    }

    /// Tuple batches survive the full message codec bit-exactly —
    /// any batch size including empty, every tuple's own `seq` and
    /// fields intact and in order.
    #[test]
    fn wire_tuple_batch_roundtrip(ts in proptest::collection::vec(arb_tuple(), 0..6)) {
        let msg = WireMsg::TupleBatch(ts);
        prop_assert_eq!(WireMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Framed tuple batches reassemble from one-byte torn reads and
    /// from arbitrary rechunking, exactly like single-tuple frames.
    #[test]
    fn tuple_batch_frames_survive_tearing(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_tuple(), 0..5), 0..4),
        chunk in 1usize..7,
    ) {
        let msgs: Vec<WireMsg> = batches.into_iter().map(WireMsg::TupleBatch).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&frame(&m.encode()));
        }
        // Worst-case torn reads: one byte per read call.
        let mut torn = OneByteReader { bytes: &stream, pos: 0 };
        for m in &msgs {
            let p = read_frame(&mut torn).unwrap().unwrap();
            prop_assert_eq!(&WireMsg::decode(&p).unwrap(), m);
        }
        prop_assert_eq!(read_frame(&mut torn).unwrap(), None);
        // Arbitrary rechunking through the incremental decoder.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(WireMsg::decode(&p).unwrap());
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Tokens and stream hellos roundtrip for any id values.
    #[test]
    fn wire_control_roundtrip(e in any::<u64>(), generation in any::<u64>(), f in 0u32..1024, t in 0u32..1024) {
        let token = WireMsg::Token(EpochId(e));
        prop_assert_eq!(WireMsg::decode(&token.encode()).unwrap(), token);
        let hello = WireMsg::StreamHello {
            generation,
            from: OperatorId(f),
            to: OperatorId(t),
        };
        prop_assert_eq!(WireMsg::decode(&hello.encode()).unwrap(), hello);
    }

    /// Checkpoint-durability acks roundtrip for any generation, epoch,
    /// operator and sample, or none — the controller's epoch barrier
    /// and its ledger rows depend on these arriving intact.
    #[test]
    fn wire_ckpt_done_roundtrip(
        generation in any::<u64>(),
        e in any::<u64>(),
        op in 0u32..1024,
        (has_sample, seed, delta) in (any::<bool>(), any::<u64>(), any::<bool>()),
    ) {
        let msg = WireMsg::CkptDone {
            generation,
            epoch: EpochId(e),
            op: OperatorId(op),
            sample: has_sample.then(|| spread_sample(seed, delta)),
        };
        prop_assert_eq!(WireMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Heartbeats roundtrip for any sample values — all eleven counters
    /// and both flags of every operator sample, any gauge values,
    /// and any number of samples including none.
    #[test]
    fn wire_telemetry_roundtrip(
        generation in any::<u64>(),
        gauges in (any::<u64>(), any::<u64>(), any::<u64>()),
        raw in proptest::collection::vec((0u32..1024, any::<u64>(), any::<bool>()), 0..6),
    ) {
        let ops = raw
            .iter()
            .map(|&(op, seed, delta)| (OperatorId(op), spread_sample(seed, delta)))
            .collect();
        let gates = raw
            .iter()
            .map(|&(op, seed, _)| {
                let v = |i: u64| spread(seed, i);
                let s = GateSample {
                    accepted_batches: v(1),
                    shed_batches: v(2),
                    wal_bytes: v(5),
                    ack_p50_us: v(6),
                    ack_p99_us: v(7),
                };
                (OperatorId(op), s)
            })
            .collect();
        let msg = WireMsg::Heartbeat {
            generation,
            gauges: BackpressureGauges {
                queued_tuples: gauges.0,
                open_windows: gauges.1,
                window_tuples: gauges.2,
            },
            ops,
            gates,
        };
        prop_assert_eq!(WireMsg::decode(&msg.encode()).unwrap(), msg);
    }

    /// Heartbeat hellos and worker-error reports roundtrip for any
    /// printable name and detail strings, including empty ones.
    #[test]
    fn wire_fault_channel_roundtrip(
        name in "[ -~]{0,24}",
        generation in any::<u64>(),
        detail in "[ -~]{0,64}",
    ) {
        let hb = WireMsg::HeartbeatHello { name };
        let hb_bytes = hb.encode();
        prop_assert_eq!(WireMsg::decode(&hb_bytes).unwrap(), hb);
        let err = WireMsg::WorkerError { generation, detail };
        let err_bytes = err.encode();
        prop_assert_eq!(WireMsg::decode(&err_bytes).unwrap(), err);
    }
}
