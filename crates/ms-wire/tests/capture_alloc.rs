//! A checkpoint capture copies no state on either thread: the host
//! thread takes a copy-on-write view of the table, and the persister
//! encodes the view straight into the checkpoint file through the
//! production store stack, `RetryStore(FsStore)`, which retries on
//! the same borrowed write instead of cloning it.
//!
//! The allocator below counts live bytes and their high-water mark for
//! the whole test binary, plus the allocations the size of one
//! `KeyedStat` record — what copying a value out makes — so the tests
//! take one lock and run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ms_core::ids::{EpochId, OperatorId, PortId};
use ms_core::operator::{DeferredSnapshot, Operator, OperatorContext};
use ms_core::time::SimTime;
use ms_core::tuple::{Fields, Tuple};
use ms_core::value::Value;
use ms_live::{FsStore, PersistItem, StableStore};
use ms_wire::apps::{KeyedStat, FEATURE_BYTES, KEY_STRIDE};
use ms_wire::RetryStore;

/// The system allocator, counting live bytes, their peak, and the
/// allocations the size of one record. Zeroed allocation and
/// reallocation keep their default implementations, which go through
/// `alloc` and `dealloc`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static RECORD_SIZED: AtomicUsize = AtomicUsize::new(0);

/// Bytes of one `KeyedStat` record: an 8-byte counter and the feature
/// vector.
const RECORD_BYTES: usize = 8 + FEATURE_BYTES;

// SAFETY: both methods forward their arguments unchanged to `System`,
// so its guarantees hold; the counters are statistics no allocation
// depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            if layout.size() == RECORD_BYTES {
                RECORD_SIZED.fetch_add(1, Ordering::Relaxed);
            }
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

/// Peak live bytes `f` allocated on top of what was live before it,
/// and how many record-sized allocations it made.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let records = RECORD_SIZED.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (out, peak, RECORD_SIZED.load(Ordering::Relaxed) - records)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ms_wire_capture_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Drops what the operator emits.
struct Discard;

impl OperatorContext for Discard {
    fn emit_fields(&mut self, _: PortId, _: Fields) {}
    fn emit_all_fields(&mut self, _: Fields) {}
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn self_id(&self) -> OperatorId {
        OperatorId(1)
    }
    fn rand_f64(&mut self) -> f64 {
        0.0
    }
    fn rand_u64(&mut self) -> u64 {
        0
    }
}

/// 65,536 keys: a 17 MiB `KeyedStat`, the `bigstate_paced` table.
const KEYS: u64 = 1 << 16;

/// Applies one tuple per key in `keys`.
fn touch(op: &mut KeyedStat, keys: impl Iterator<Item = u64>) {
    for k in keys {
        let t = Tuple::new(
            OperatorId(0),
            k,
            SimTime::ZERO,
            vec![Value::Int((k * KEY_STRIDE) as i64)],
        );
        op.on_tuple(PortId(0), t, &mut Discard);
    }
}

fn item(epoch: u64, snapshot: DeferredSnapshot, base: Option<EpochId>) -> PersistItem {
    PersistItem {
        epoch: EpochId(epoch),
        op: OperatorId(0),
        snapshot,
        base,
        next_seq: 0,
        resume_seq: vec![epoch],
        align_us: 0,
        capture_us: 0,
        meter: None,
    }
}

#[test]
fn a_full_capture_and_its_persist_hold_no_copy_of_the_table() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let dir = tmpdir("full");
    let store = RetryStore::new(FsStore::open(&dir, 1).unwrap());
    let mut op = KeyedStat::new(KEYS);
    touch(&mut op, 0..KEYS);
    let state = op.snapshot().data;
    assert!(state.len() >= 16 << 20, "a {}-byte table", state.len());

    // The capture and the persist, as the host and the persister run
    // them: 4 MiB of slack for the page map, the write buffer and the
    // file names, far below one copy of the table.
    let (complete, peak, _) = peak_of(|| {
        let capture = op.snapshot_deferred();
        assert!(matches!(capture, DeferredSnapshot::Full(_)));
        item(1, capture, None).persist(&store)
    });
    assert!(complete.unwrap(), "epoch 1 completes");
    assert!(
        peak <= 4 << 20,
        "a full capture and persist of a {}-byte table peaked at {peak} bytes",
        state.len()
    );
    let got = store.get_checkpoint(EpochId(1), OperatorId(0)).unwrap();
    assert_eq!(got.snapshot.data, state, "the file holds the table's bytes");
    assert_eq!(got.resume_seq, vec![1]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_delta_capture_clones_no_value_on_the_capturing_thread() {
    let _one = ONE_AT_A_TIME.lock().unwrap();
    let dir = tmpdir("delta");
    let store = RetryStore::new(FsStore::open(&dir, 1).unwrap());
    let mut op = KeyedStat::new(KEYS);
    touch(&mut op, 0..KEYS);
    item(1, op.snapshot_deferred(), None)
        .persist(&store)
        .unwrap();

    // An epoch of `bigstate_paced`: about 9,300 keys written.
    let dirty = 9_300u64;
    touch(&mut op, (0..dirty).map(|i| i * 7 % KEYS));
    let (capture, peak, records) = peak_of(|| op.snapshot_delta().expect("KeyedStat deltas"));
    assert_eq!(records, 0, "the capture copied {records} values");
    assert!(
        peak < 1 << 20,
        "the capture of {dirty} changed keys peaked at {peak} bytes"
    );
    let DeferredSnapshot::Delta(view) = &capture else {
        panic!("a delta capture is a delta view");
    };
    let want = view.to_delta();
    assert_eq!(want.changed.len() as u64, dirty);

    // The persister encodes the delta from the view, no value copied
    // there either.
    let (complete, peak, records) = peak_of(|| item(2, capture, Some(EpochId(1))).persist(&store));
    assert!(complete.unwrap());
    assert_eq!(records, 0, "the persist copied {records} values");
    assert!(peak < 1 << 20, "the delta persist peaked at {peak} bytes");
    assert!(dir.join("ckpt").join("e2_op0.delta").exists());
    let got = store.get_checkpoint(EpochId(2), OperatorId(0)).unwrap();
    assert_eq!(got.snapshot.data, op.snapshot().data);
    let _ = fs::remove_dir_all(&dir);
}
