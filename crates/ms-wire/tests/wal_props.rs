//! Property tests for the group-commit preservation log: the log must
//! not depend on how a run was grouped into appends — N one-tuple
//! appends and one N-tuple append give the same file bytes and the same
//! replay — and the torn-tail scan must hold when the tear lands
//! mid-batch. And the
//! streaming header scan that recovery runs on must agree with the
//! whole-log reader it replaced while decoding only the replayed suffix.

use std::fs;
use std::path::PathBuf;

use ms_core::codec::{FrameDecoder, SnapshotReader, FRAME_HEADER_BYTES};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::time::SimTime;
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_live::store::scan_log;
use ms_live::StableStore;
use ms_wire::FsStore;
use proptest::prelude::*;

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ms_wal_props_{tag}_{case}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Tuples with strictly increasing seqs (the gate's stamping
/// invariant) and varied payloads.
fn arb_run() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((1u64..4, any::<i64>(), "[a-z]{0,8}"), 1..24).prop_map(|raw| {
        let mut seq = 0u64;
        raw.into_iter()
            .map(|(gap, v, s)| {
                seq += gap;
                Tuple::new(
                    OperatorId(0),
                    seq,
                    SimTime::from_micros(seq),
                    vec![Value::Int(v), Value::Str(s)],
                )
            })
            .collect()
    })
}

fn log_bytes(root: &std::path::Path) -> Vec<u8> {
    fs::read(root.join("log").join("op0.log")).unwrap_or_default()
}

/// Decodes every complete frame of `bytes` — the whole-log reader
/// `FsStore` used before the streaming scan, kept here as the
/// reference.
fn decode_all(bytes: &[u8]) -> Vec<Tuple> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let mut out = Vec::new();
    while let Ok(Some(p)) = dec.next_frame() {
        out.push(SnapshotReader::new(&p).get_tuple().unwrap());
    }
    out
}

proptest! {
    /// For any log, replay boundary and torn tail, `scan_log` finds the
    /// clean prefix, frame count and last sequence the whole-log reader
    /// finds, and decoding just `suffix_offset..clean_len` yields
    /// exactly the tuples that reader's `seq >= from_seq` filter keeps —
    /// so a log of N tuples marked at N-k costs k decodes, not N.
    #[test]
    fn scan_and_suffix_decode_equal_whole_log_read_and_filter(
        run in arb_run(),
        from_seq in 0u64..80,
        cut in 0usize..40,
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let d = tmpdir("scan", case);
        let s = FsStore::open(&d, 1).unwrap();
        s.append_log_batch(op, &run).unwrap();
        s.mark_epoch(op, EpochId(1), from_seq).unwrap();
        let path = d.join("log").join("op0.log");
        let full = fs::read(&path).unwrap();
        let torn = &full[..full.len() - cut.min(full.len())];
        fs::write(&path, torn).unwrap();

        let all = decode_all(torn);
        let clean_len: usize = all
            .iter()
            .map(|t| FRAME_HEADER_BYTES + ms_core::codec::SnapshotWriter::encoded_tuple_bytes(t))
            .sum();
        let expect: Vec<Tuple> = all.iter().filter(|t| t.seq >= from_seq).cloned().collect();

        let scan = scan_log(&path, from_seq).unwrap();
        prop_assert_eq!(scan.clean_len, clean_len as u64);
        prop_assert_eq!(scan.frames, all.len());
        prop_assert_eq!(scan.last_seq, all.last().map(|t| t.seq));
        // Every decode the replay pays for: the suffix's frames, no more.
        let suffix = decode_all(&torn[scan.suffix_offset as usize..clean_len]);
        prop_assert_eq!(suffix.len(), expect.len());
        prop_assert_eq!(&suffix, &expect);
        prop_assert_eq!(FsStore::open(&d, 1).unwrap().replay_from(op, EpochId(1)), expect);
        prop_assert_eq!(s.preserved_tuples(), all.len());
        let _ = fs::remove_dir_all(&d);
    }

    /// A run appended as arbitrary batches produces byte-identical log
    /// files — and therefore identical replay — to the same run
    /// appended one tuple at a time.
    #[test]
    fn batched_append_is_byte_identical_to_singles(
        run in arb_run(),
        splits in proptest::collection::vec(1usize..6, 0..8),
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let da = tmpdir("batch", case);
        let db = tmpdir("single", case);
        let a = FsStore::open(&da, 1).unwrap();
        let b = FsStore::open(&db, 1).unwrap();

        // Store A: the run in arbitrary batch sizes (cycling over the
        // generated splits; remainder as one final batch).
        let mut i = 0;
        let mut batches = 0u64;
        for w in splits.iter().cycle() {
            if i >= run.len() {
                break;
            }
            let end = (i + w).min(run.len());
            a.append_log_batch(op, &run[i..end]).unwrap();
            batches += 1;
            i = end;
        }
        if i < run.len() {
            a.append_log_batch(op, &run[i..]).unwrap();
            batches += 1;
        }
        // Store B: one append per tuple.
        for t in &run {
            b.append_log_batch(op, std::slice::from_ref(t)).unwrap();
        }

        prop_assert_eq!(log_bytes(&da), log_bytes(&db));
        prop_assert_eq!(
            a.replay_from(op, EpochId(0)),
            b.replay_from(op, EpochId(0))
        );
        // Group commit: one write syscall per admitted batch.
        prop_assert_eq!(a.log_write_syscalls(), batches);
        prop_assert_eq!(b.log_write_syscalls(), run.len() as u64);

        let _ = fs::remove_dir_all(&da);
        let _ = fs::remove_dir_all(&db);
    }

    /// Re-appending an already-durable suffix (the retry shape after a
    /// transient error or producer resend) adds no bytes — the dedup
    /// guard holds across batch boundaries exactly as per tuple.
    #[test]
    fn batch_retry_appends_nothing(run in arb_run(), case in 0u64..1) {
        let op = OperatorId(0);
        let d = tmpdir("retry", case);
        let s = FsStore::open(&d, 1).unwrap();
        s.append_log_batch(op, &run).unwrap();
        let before = log_bytes(&d);
        let writes = s.log_write_syscalls();
        // Full-batch retry and partial-suffix retry both no-op.
        s.append_log_batch(op, &run).unwrap();
        s.append_log_batch(op, &run[run.len() / 2..]).unwrap();
        prop_assert_eq!(log_bytes(&d), before);
        prop_assert_eq!(s.log_write_syscalls(), writes);
        let _ = fs::remove_dir_all(&d);
    }

    /// A tear landing mid-batch truncates to the last complete frame:
    /// replay returns exactly the clean prefix, and the next append
    /// (on a cold handle, as after a crash) resumes cleanly behind it.
    #[test]
    fn torn_tail_mid_batch_is_detected(
        run in arb_run(),
        cut in 1usize..16,
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let d = tmpdir("torn", case);
        {
            let s = FsStore::open(&d, 1).unwrap();
            s.append_log_batch(op, &run).unwrap();
        }
        let path = d.join("log").join("op0.log");
        let full = fs::read(&path).unwrap();
        // Tear somewhere inside the batch's bytes (never a whole-file
        // cut to zero — that's just an empty log).
        let keep = full.len().saturating_sub(cut.min(full.len() - 1)).max(1);
        fs::write(&path, &full[..keep]).unwrap();

        // A fresh handle (the crash-recovery shape) must see only the
        // clean prefix and resume appends directly behind it.
        let s = FsStore::open(&d, 1).unwrap();
        let replayed = s.replay_from(op, EpochId(0));
        prop_assert!(replayed.len() < run.len(), "tear must drop the torn frame");
        prop_assert_eq!(replayed.as_slice(), &run[..replayed.len()]);

        let next = Tuple::new(
            OperatorId(0),
            run.last().unwrap().seq + 1,
            SimTime::ZERO,
            vec![Value::Int(-1)],
        );
        s.append_log_batch(op, std::slice::from_ref(&next)).unwrap();
        let after = s.replay_from(op, EpochId(0));
        let mut expect: Vec<Tuple> = run[..replayed.len()].to_vec();
        expect.push(next);
        prop_assert_eq!(after, expect);
        let _ = fs::remove_dir_all(&d);
    }
}
