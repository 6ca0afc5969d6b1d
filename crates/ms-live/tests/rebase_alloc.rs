//! A delta write, a rebase and a chain restore hold fixed buffers,
//! never a delta link or a copy of the base: the base and each link
//! stream from their files, into the rebased file or into the one
//! buffer a restore returns. A hostile length or count in a base or a
//! link is an error, never an allocation sized by that field.
//!
//! The allocator below counts live bytes and their high-water mark for
//! the whole test binary, so the tests take one lock and run one at a
//! time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ms_core::codec::SnapshotWriter;
use ms_core::delta::{DeltaTable, StateDelta};
use ms_core::error::Error;
use ms_core::ids::{EpochId, OperatorId};
use ms_core::operator::OperatorSnapshot;
use ms_live::ckpt_codec::{self, FullHead};
use ms_live::{CkptState, CkptWrite, FsStore, RebasePolicy, StableStore};

/// The system allocator, counting live bytes and their peak. Zeroed
/// allocation and reallocation keep their default implementations,
/// which go through `alloc` and `dealloc`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// so its guarantees hold; the counters are statistics no allocation
// depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What a rebase may hold, whatever the chain's size: the base's read
/// and write buffers, one buffer per run of each link, the file names.
const FIXED: usize = 2 << 20;

/// Peak live bytes `f` allocated on top of what was live before it.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ms_live_alloc_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn full(data: Vec<u8>) -> CkptWrite {
    CkptWrite::full(
        OperatorSnapshot {
            logical_bytes: data.len() as u64,
            data,
        },
        0,
    )
}

fn delta_write(base: EpochId, delta: StateDelta, next_seq: u64) -> CkptWrite {
    CkptWrite {
        state: CkptState::Delta { base, delta },
        next_seq,
        in_flight: Vec::new(),
        resume_seq: vec![next_seq],
    }
}

#[test]
fn rebase_and_restore_of_a_16_mib_base_hold_no_link() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let op = OperatorId(0);
    let dir = tmpdir("rebase");
    let ckpt = dir.join("ckpt");
    let policy = RebasePolicy {
        max_chain: 8,
        max_delta_pct: 1_000_000,
    };
    let s = FsStore::open(&dir, 1).unwrap().with_policy(policy);
    // 65,536 keys of 256 bytes: a 16 MiB base.
    let mut t = DeltaTable::new();
    for k in 0..1u64 << 16 {
        t.insert(k, vec![k as u8; 256]);
    }
    let base = t.snapshot();
    assert!(base.len() >= 16 << 20);
    s.put_checkpoint(EpochId(1), op, full(base)).unwrap();
    t.mark_clean();
    // The longest chain the policy keeps: seven links, each rewriting
    // 4,096 keys, some of them the link before's, over 1 MiB apiece.
    // Every one of those delta writes walks the chain under it.
    let top = EpochId(u64::from(policy.max_chain));
    let mut chain_bytes = 0;
    for e in 2..=top.0 {
        for i in 0..4096 {
            t.insert((e * 3000 + i) % (1 << 16), vec![e as u8; 256]);
        }
        t.remove(e * 1000 + 1);
        let w = delta_write(EpochId(e - 1), t.take_delta(t.value_bytes()), e);
        let (put, peak) = peak_of(|| s.put_checkpoint(EpochId(e), op, w));
        put.unwrap();
        let link = fs::metadata(ckpt.join(format!("e{e}_op0.delta"))).unwrap();
        assert!(link.len() >= 1 << 20, "link e{e} is {} bytes", link.len());
        chain_bytes += link.len() as usize;
        assert!(
            peak < 1 << 20,
            "delta write e{e} peaked at {peak} bytes on a {chain_bytes}-byte chain"
        );
    }

    // A restore of the chain: one buffer, sized for the base and every
    // link's writes, and fixed buffers.
    let (got, peak) = peak_of(|| s.get_checkpoint(top, op));
    let got = got.expect("the chain restores");
    assert_eq!(got.snapshot.data, t.snapshot());
    let state = got.snapshot.data.len();
    drop(got);
    assert!(
        peak < state + chain_bytes + FIXED,
        "restore peaked at {peak} bytes for a {state}-byte state and a {chain_bytes}-byte chain"
    );

    // The rebase: no link and no copy of the base at all.
    t.insert(u64::MAX, vec![0xBB; 256]);
    t.remove(7);
    let newest = t.take_delta(t.value_bytes());
    let e = EpochId(top.0 + 1);
    let (put, peak) = peak_of(|| s.put_checkpoint(e, op, delta_write(top, newest, e.0)));
    assert!(put.unwrap(), "{e} completes");
    assert!(
        ckpt.join(format!("e{}_op0.ckpt", e.0)).exists(),
        "the eighth delta rebases"
    );
    assert!(
        peak < FIXED,
        "rebase peaked at {peak} bytes on a {chain_bytes}-byte chain and a {state}-byte base"
    );
    let rebased = s.get_checkpoint(e, op).unwrap();
    assert_eq!(rebased.snapshot.data, t.snapshot());
    assert_eq!(rebased.resume_seq, vec![e.0]);
    let _ = fs::remove_dir_all(&dir);
}

/// A delta payload on base epoch 1: its header, the runs `runs` writes,
/// then an empty cut.
fn link(runs: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.put_u64(2).put_u64(1).put_u64(0);
    runs(&mut w);
    // No tuple in flight, no resume sequence.
    w.put_u64(0).put_u64(0);
    w.finish()
}

/// Links no encoder writes: keys out of order in either run, an entry
/// longer than its frame, a count past the bytes. Each fails the restore
/// and the rebase that read it, and neither allocates by its fields.
#[test]
fn hostile_links_err_without_a_large_allocation() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let op = OperatorId(0);
    let canonical = link(|w| {
        w.put_u64(2)
            .put_u64(3)
            .put_bytes(&[1; 8])
            .put_u64(5)
            .put_bytes(&[2; 8]);
        w.put_u64(1).put_u64(4);
    });
    let changed_descend = link(|w| {
        w.put_u64(2)
            .put_u64(5)
            .put_bytes(&[1; 8])
            .put_u64(3)
            .put_bytes(&[2; 8]);
        w.put_u64(0);
    });
    let removed_descend = link(|w| {
        w.put_u64(0);
        w.put_u64(2).put_u64(9).put_u64(4);
    });
    let mut past_frame = SnapshotWriter::new();
    past_frame.put_u64(2).put_u64(1).put_u64(0);
    past_frame.put_u64(1).put_u64(5).put_bytes_header(1 << 30);
    let past_frame = [past_frame.finish(), vec![7; 16]].concat();
    let count_past_bytes = link(|w| {
        w.put_u64(1 << 40).put_u64(5).put_bytes(&[1; 8]);
        w.put_u64(u64::MAX >> 1).put_u64(6);
    });
    let cases = [
        ("canonical", canonical),
        ("changed_descend", changed_descend),
        ("removed_descend", removed_descend),
        ("past_frame", past_frame),
        ("count_past_bytes", count_past_bytes),
    ];
    for (tag, payload) in cases {
        let dir = tmpdir(tag);
        let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 2,
            max_delta_pct: 1_000_000,
        });
        let mut t = DeltaTable::new();
        for k in 0..8 {
            t.insert(k, vec![k as u8; 8]);
        }
        s.put_checkpoint(EpochId(1), op, full(t.snapshot()))
            .unwrap();
        let frame = [&(payload.len() as u32).to_le_bytes()[..], &payload].concat();
        fs::write(dir.join("ckpt").join("e2_op0.delta"), frame).unwrap();
        let (restored, peak) = peak_of(|| s.get_checkpoint(EpochId(2), op));
        assert!(peak < 1 << 20, "{tag}: restore peaked at {peak} bytes");
        // The next delta rebases, which reads the link.
        t.mark_clean();
        t.insert(6, vec![6; 8]);
        let w = delta_write(EpochId(2), t.take_delta(8), 3);
        let (put, peak) = peak_of(|| s.put_checkpoint(EpochId(3), op, w));
        assert!(peak < 1 << 20, "{tag}: rebase peaked at {peak} bytes");
        if tag == "canonical" {
            let mut want = DeltaTable::restore(&t.snapshot()).unwrap();
            want.insert(3, [1; 8]);
            want.insert(5, [2; 8]);
            want.remove(4);
            assert_eq!(restored.unwrap().snapshot.data, want.snapshot());
            assert!(put.unwrap(), "{tag}: epoch 3 completes");
        } else {
            assert!(restored.is_none(), "{tag}: a hostile link restores");
            assert!(matches!(put, Err(Error::Storage(_))), "{tag}: {put:?}");
            assert!(!dir.join("ckpt").join("e3_op0.ckpt").exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn hostile_lengths_in_a_base_err_without_a_large_allocation() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let op = OperatorId(0);
    let small = |e: u64| {
        let mut t = DeltaTable::new();
        t.insert(e, vec![1; 8]);
        t.take_delta(8)
    };
    // A table of one entry whose value claims 1 GiB, 16 bytes behind it.
    let mut w = SnapshotWriter::new();
    w.put_u64(1).put_u64(5).put_bytes_header(1 << 30);
    let entry_too_long = [w.finish(), vec![7; 16]].concat();
    // A full payload whose data claims 512 MiB in a frame of 100 bytes.
    let head = FullHead {
        next_seq: 0,
        logical_bytes: 0,
        data_len: 1 << 29,
    };
    let [head, _] = ckpt_codec::encode_full_parts(&head, &[], &[]);
    let data_too_long = [head, vec![0; 100]].concat();

    for (tag, hostile) in [("entry", None), ("data", Some(data_too_long))] {
        let dir = tmpdir(tag);
        let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
            max_chain: 2,
            max_delta_pct: 1_000_000,
        });
        s.put_checkpoint(EpochId(1), op, full(entry_too_long.clone()))
            .unwrap();
        if let Some(payload) = &hostile {
            let frame = [&(payload.len() as u32).to_le_bytes()[..], payload].concat();
            fs::write(dir.join("ckpt").join("e1_op0.ckpt"), frame).unwrap();
        }
        s.put_checkpoint(EpochId(2), op, delta_write(EpochId(1), small(2), 2))
            .unwrap();
        let (restored, peak) = peak_of(|| s.get_checkpoint(EpochId(2), op));
        assert!(restored.is_none(), "{tag}: a chain on a hostile base");
        assert!(peak < 1 << 20, "{tag}: restore peaked at {peak} bytes");
        // The next delta rebases, which reads the base's body.
        let (put, peak) =
            peak_of(|| s.put_checkpoint(EpochId(3), op, delta_write(EpochId(2), small(3), 3)));
        assert!(matches!(put, Err(Error::Storage(_))), "{tag}: {put:?}");
        assert!(peak < 1 << 20, "{tag}: rebase peaked at {peak} bytes");
        assert!(!dir.join("ckpt").join("e3_op0.ckpt").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
