//! Property tests for the group-commit preservation log, a sequence of
//! framed batch records: the replay must not depend on how a run was
//! grouped into appends, a tear must drop the torn record whole and
//! let appends resume on its boundary, and the streaming header scan
//! that recovery runs on must agree with the whole-log reader it
//! replaced while decoding only the records the replay needs.

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

/// The run cut into consecutive appends of the generated sizes
/// (cycling; the remainder as one final append).
fn split<'a>(run: &'a [Tuple], sizes: &[usize]) -> Vec<&'a [Tuple]> {
    let mut parts = Vec::new();
    let mut i = 0;
    for w in sizes.iter().cycle() {
        if i >= run.len() {
            break;
        }
        let end = (i + w).min(run.len());
        parts.push(&run[i..end]);
        i = end;
    }
    if i < run.len() {
        parts.push(&run[i..]);
    }
    parts
}

fn arb_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..6, 0..8)
}

fn log_bytes(root: &std::path::Path) -> Vec<u8> {
    fs::read(root.join("log").join("op0.log")).unwrap_or_default()
}

/// Every complete record of `bytes`, decoded, with its framed length —
/// the whole-log reader, kept here as the reference.
fn decode_all(bytes: &[u8]) -> Vec<(usize, Vec<Tuple>)> {
    let mut dec = FrameDecoder::new();
    dec.feed(bytes);
    let mut out = Vec::new();
    while let Ok(Some(p)) = dec.next_frame() {
        let tuples = SnapshotReader::new(&p).get_batch().unwrap();
        out.push((FRAME_HEADER_BYTES + p.len(), tuples));
    }
    out
}

proptest! {
    /// For any log, replay boundary and torn tail, `scan_log` finds the
    /// clean prefix, record and tuple counts and last sequence the
    /// whole-log reader finds; its suffix starts at the first record
    /// that reaches the boundary, so decoding `suffix_offset..clean_len`
    /// and dropping the tuples below the boundary yields exactly what
    /// that reader's `seq >= from_seq` filter keeps — a log of N
    /// records marked inside record N-k costs k+1 decodes, not N.
    #[test]
    fn scan_and_suffix_decode_equal_whole_log_read_and_filter(
        run in arb_run(),
        sizes in arb_sizes(),
        from_seq in 0u64..80,
        cut in 0usize..40,
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let d = tmpdir("scan", case);
        let s = FsStore::open(&d, 1).unwrap();
        for part in split(&run, &sizes) {
            s.append_log_batch(op, part).unwrap();
        }
        s.mark_epoch(op, EpochId(1), from_seq).unwrap();
        let path = d.join("log").join("op0.log");
        let full = fs::read(&path).unwrap();
        let torn = &full[..full.len() - cut.min(full.len())];
        fs::write(&path, torn).unwrap();

        let records = decode_all(torn);
        let clean_len: usize = records.iter().map(|(len, _)| len).sum();
        let all: Vec<Tuple> = records.iter().flat_map(|(_, ts)| ts.clone()).collect();
        let expect: Vec<Tuple> = all.iter().filter(|t| t.seq >= from_seq).cloned().collect();

        let scan = scan_log(&path, from_seq).unwrap();
        prop_assert_eq!(scan.clean_len, clean_len as u64);
        prop_assert_eq!(scan.records, records.len());
        prop_assert_eq!(scan.tuples, all.len());
        prop_assert_eq!(scan.last_seq, all.last().map(|t| t.seq));
        // The records the replay pays for: every one reaching the
        // boundary, none wholly below it.
        let suffix = decode_all(&torn[scan.suffix_offset as usize..clean_len]);
        let skipped = records.len() - suffix.len();
        prop_assert!(records[..skipped].iter().all(|(_, ts)| ts.last().unwrap().seq < from_seq));
        prop_assert!(suffix.iter().all(|(_, ts)| ts.last().unwrap().seq >= from_seq));
        let kept: Vec<Tuple> = suffix
            .into_iter()
            .flat_map(|(_, ts)| ts)
            .filter(|t| t.seq >= from_seq)
            .collect();
        prop_assert_eq!(&kept, &expect);
        prop_assert_eq!(FsStore::open(&d, 1).unwrap().replay_from(op, EpochId(1)), expect);
        prop_assert_eq!(s.preserved_tuples(), all.len());
        let _ = fs::remove_dir_all(&d);
    }

    /// A run appended as arbitrary batches replays exactly as the same
    /// run appended one tuple at a time — though the bytes differ: each
    /// append is one record — and each append is one write syscall
    /// that reports the bytes the log grew by.
    #[test]
    fn replay_is_identical_however_the_run_was_split_into_appends(
        run in arb_run(),
        sizes in arb_sizes(),
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let da = tmpdir("batch", case);
        let db = tmpdir("single", case);
        let a = FsStore::open(&da, 1).unwrap();
        let b = FsStore::open(&db, 1).unwrap();

        let parts = split(&run, &sizes);
        let mut grown = 0;
        for part in &parts {
            grown += a.append_log_batch(op, part).unwrap();
        }
        for t in &run {
            b.append_log_batch(op, std::slice::from_ref(t)).unwrap();
        }

        prop_assert_eq!(a.replay_from(op, EpochId(0)), run.clone());
        prop_assert_eq!(b.replay_from(op, EpochId(0)), run.clone());
        prop_assert_eq!(grown, log_bytes(&da).len() as u64);
        prop_assert_eq!(a.preserved_tuples(), run.len());
        prop_assert_eq!(b.preserved_tuples(), run.len());
        // Group commit: one write syscall per admitted batch.
        prop_assert_eq!(a.log_write_syscalls(), parts.len() as u64);
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
        prop_assert_eq!(s.append_log_batch(op, &run).unwrap(), 0);
        prop_assert_eq!(s.append_log_batch(op, &run[run.len() / 2..]).unwrap(), 0);
        prop_assert_eq!(log_bytes(&d), before);
        prop_assert_eq!(s.log_write_syscalls(), writes);
        let _ = fs::remove_dir_all(&d);
    }

    /// A tear anywhere inside the last record drops that record whole:
    /// replay returns exactly the earlier records' tuples, and the next
    /// append (on a cold handle, as after a crash) lands on the torn
    /// record's boundary, behind bytes left as they were.
    #[test]
    fn torn_tail_mid_batch_is_detected(
        run in arb_run(),
        sizes in arb_sizes(),
        cut in 1usize..400,
        case in 0u64..1,
    ) {
        let op = OperatorId(0);
        let d = tmpdir("torn", case);
        let parts = split(&run, &sizes);
        let mut boundary = 0;
        {
            let s = FsStore::open(&d, 1).unwrap();
            for part in &parts[..parts.len() - 1] {
                boundary += s.append_log_batch(op, part).unwrap() as usize;
            }
            s.append_log_batch(op, parts[parts.len() - 1]).unwrap();
        }
        let path = d.join("log").join("op0.log");
        let full = fs::read(&path).unwrap();
        // Tear somewhere inside the last record, from its last byte
        // back to its first.
        let keep = full.len() - 1 - cut % (full.len() - boundary);
        fs::write(&path, &full[..keep]).unwrap();

        let s = FsStore::open(&d, 1).unwrap();
        let durable = run.len() - parts[parts.len() - 1].len();
        prop_assert_eq!(s.replay_from(op, EpochId(0)), run[..durable].to_vec());

        let next = Tuple::new(
            OperatorId(0),
            run.last().unwrap().seq + 1,
            SimTime::ZERO,
            vec![Value::Int(-1)],
        );
        s.append_log_batch(op, std::slice::from_ref(&next)).unwrap();
        let mut expect = run[..durable].to_vec();
        expect.push(next);
        prop_assert_eq!(s.replay_from(op, EpochId(0)), expect);
        prop_assert_eq!(&fs::read(&path).unwrap()[..boundary], &full[..boundary]);
        let _ = fs::remove_dir_all(&d);
    }
}
