//! A rebase and a chain restore hold what the chain costs, not copies
//! of the base: the base streams from its file through a fixed buffer,
//! into the rebased file or into the one buffer a restore returns. A
//! hostile length in a base is an error, never an allocation sized by
//! that field.
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

/// The fixed slack a fold may hold beyond the chain: its buffers, the
/// patch, the file names.
const SLACK: usize = 4 << 20;

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
fn rebase_and_restore_of_a_16_mib_base_hold_the_chain_not_the_base() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let op = OperatorId(0);
    let dir = tmpdir("rebase");
    let ckpt = dir.join("ckpt");
    let s = FsStore::open(&dir, 1).unwrap().with_policy(RebasePolicy {
        max_chain: 3,
        max_delta_pct: 1_000_000,
    });
    // 65,536 keys of 256 bytes: a 16 MiB base.
    let mut t = DeltaTable::new();
    for k in 0..1u64 << 16 {
        t.insert(k, vec![k as u8; 256]);
    }
    let base = t.snapshot();
    assert!(base.len() >= 16 << 20);
    s.put_checkpoint(EpochId(1), op, full(base)).unwrap();
    t.mark_clean();
    // Two small deltas chain on it; the third rebases.
    for e in 2..=3u64 {
        t.insert(e * 1000, vec![0xAA; 256]);
        t.remove(e * 1000 + 1);
        let w = delta_write(EpochId(e - 1), t.take_delta(t.value_bytes()), e);
        s.put_checkpoint(EpochId(e), op, w).unwrap();
        assert!(ckpt.join(format!("e{e}_op0.delta")).exists());
    }

    // A restore of the chain: one buffer of the folded state, plus the
    // chain.
    let chain_bytes: usize = (2..=3)
        .map(|e| {
            fs::metadata(ckpt.join(format!("e{e}_op0.delta")))
                .unwrap()
                .len() as usize
        })
        .sum();
    let (got, peak) = peak_of(|| s.get_checkpoint(EpochId(3), op));
    let got = got.expect("the chain restores");
    assert_eq!(got.snapshot.data, t.snapshot());
    let state = got.snapshot.data.len();
    drop(got);
    assert!(
        peak < state + chain_bytes + SLACK,
        "restore peaked at {peak} bytes for a {state}-byte state and a {chain_bytes}-byte chain"
    );

    // The rebase: no copy of the base at all.
    t.insert(u64::MAX, vec![0xBB; 256]);
    t.remove(7);
    let newest = t.take_delta(t.value_bytes());
    let chain_bytes = chain_bytes + newest.encoded_bytes();
    let (put, peak) =
        peak_of(|| s.put_checkpoint(EpochId(4), op, delta_write(EpochId(3), newest, 4)));
    assert!(put.unwrap(), "epoch 4 completes");
    assert!(ckpt.join("e4_op0.ckpt").exists(), "the third delta rebases");
    assert!(
        peak < chain_bytes + SLACK,
        "rebase peaked at {peak} bytes for a {chain_bytes}-byte chain on a {state}-byte base"
    );
    let rebased = s.get_checkpoint(EpochId(4), op).unwrap();
    assert_eq!(rebased.snapshot.data, t.snapshot());
    assert_eq!(rebased.resume_seq, vec![4]);
    let _ = fs::remove_dir_all(&dir);
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
