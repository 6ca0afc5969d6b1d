//! Hostile bytes against the batch-record decoder and the log scan:
//! random buffers, records cut short anywhere and records with a bit
//! flipped must come back as an error or stop at a clean record
//! boundary — never a panic, never tuples the writer did not write
//! from a cut.

use std::fs;
use std::path::PathBuf;

use ms_core::codec::{frame_batch, SnapshotReader, SnapshotWriter, BATCH_V1, MAX_FRAME_BYTES};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::time::SimTime;
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_live::store::scan_log;
use ms_live::{FsStore, StableStore};
use proptest::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ms_batch_fuzz_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(d.join("log")).unwrap();
    d
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..3).prop_map(Value::Int),
        (-3i64..3).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        "[a-z]{0,6}".prop_map(Value::Str),
        proptest::collection::vec((-9i64..9).prop_map(Value::Int), 0..3).prop_map(Value::List),
    ]
}

/// Runs of 1–3 producers, seqs that mostly step by one, times that
/// mostly repeat — the shapes the delta and repeat tags compress.
fn arb_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        (
            0u32..3,
            prop_oneof![1u64..2, 1u64..2, 1u64..2, any::<u64>()],
            prop_oneof![0u64..1, 0u64..1, any::<u64>()],
            proptest::collection::vec(arb_value(), 0..5),
        ),
        0..12,
    )
    .prop_map(|raw| {
        let mut seq = 0u64;
        raw.into_iter()
            .map(|(p, step, time, fields)| {
                seq = seq.wrapping_add(step);
                Tuple::new(OperatorId(p / 2), seq, SimTime::from_micros(time), fields)
            })
            .collect()
    })
}

fn encode(tuples: &[Tuple]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_batch(tuples);
    w.finish()
}

/// Is `got` the tuples of some whole-record prefix of `records`?
fn is_record_prefix(got: &[Tuple], records: &[Vec<Tuple>]) -> bool {
    let mut n = 0;
    records.iter().any(|r| {
        n += r.len();
        n == got.len()
    }) || got.is_empty()
}

proptest! {
    #[test]
    fn random_bytes_never_panic_the_decoder(
        buffers in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 16..17),
    ) {
        for bytes in buffers {
            let _ = SnapshotReader::new(&bytes).get_batch();
            let versioned = [&[BATCH_V1][..], &bytes].concat();
            let _ = SnapshotReader::new(&versioned).get_batch();
        }
    }

    /// A batch cut anywhere decodes to an error, or — cut exactly
    /// between two records — to the whole records before the cut.
    #[test]
    fn cut_batches_error_or_stop_at_a_record_boundary(tuples in arb_tuples()) {
        let bytes = encode(&tuples);
        let records: Vec<Vec<Tuple>> = tuples
            .chunk_by(|a, b| a.producer == b.producer)
            .map(<[Tuple]>::to_vec)
            .collect();
        // Compared re-encoded: bit for bit, NaN fields included.
        let back = SnapshotReader::new(&bytes).get_batch().unwrap();
        prop_assert_eq!(encode(&back), bytes.clone());
        for keep in 0..bytes.len() {
            if let Ok(got) = SnapshotReader::new(&bytes[..keep]).get_batch() {
                prop_assert!(is_record_prefix(&got, &records), "cut at {} misread", keep);
                prop_assert_eq!(encode(&got), encode(&tuples[..got.len()]));
            }
        }
    }

    /// Every byte of a batch with one bit flipped: decoded or refused,
    /// never a panic.
    #[test]
    fn flipped_bits_never_panic_the_decoder(tuples in arb_tuples(), bit in 0u8..8) {
        let bytes = encode(&tuples);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            let _ = SnapshotReader::new(&flipped).get_batch();
        }
    }

    /// A log cut anywhere scans to its whole records; a flipped bit or
    /// garbage after them scans to an error or to a prefix of whole
    /// records — and a cold open over any of it replays without a
    /// panic.
    #[test]
    fn damaged_logs_scan_to_an_error_or_a_record_boundary(
        runs in proptest::collection::vec(arb_tuples(), 1..4),
        cut in any::<usize>(),
        at in any::<usize>(),
        bit in 0u8..8,
        garbage in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut log = Vec::new();
        let mut boundaries = vec![0u64];
        for record in runs.iter().flat_map(|run| run.chunk_by(|a, b| a.producer == b.producer)) {
            log.extend(frame_batch(record, MAX_FRAME_BYTES));
            boundaries.push(log.len() as u64);
        }
        let d = tmpdir("scan");
        let path = d.join("log").join("op0.log");
        let mut damaged = [log.clone(), garbage].concat();
        if !log.is_empty() {
            damaged[at % log.len()] ^= 1 << bit;
        }
        let keep = cut % (log.len() + 1);
        fs::write(&path, &log[..keep]).unwrap();
        let last_whole = boundaries.iter().filter(|&&b| b <= keep as u64).max();
        prop_assert_eq!(scan_log(&path, 0).unwrap().clean_len, *last_whole.unwrap());
        for bytes in [&log[..keep], &damaged[..]] {
            fs::write(&path, bytes).unwrap();
            if let Ok(scan) = scan_log(&path, 0) {
                prop_assert!(scan.clean_len <= bytes.len() as u64);
            }
            let s = FsStore::open(&d, 1).unwrap();
            let _ = s.replay_from(OperatorId(0), EpochId(0));
            let _ = s.append_log_batch(OperatorId(0), &[Tuple::new(OperatorId(0), u64::MAX, SimTime::ZERO, vec![])]);
        }
        let _ = fs::remove_dir_all(&d);
    }
}
