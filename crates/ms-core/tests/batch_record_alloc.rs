//! The batch-record decoder allocates for the bytes a record holds,
//! not for the counts its header claims. A header announcing 2⁴⁰
//! tuples in front of a 30-byte body — from a peer's `TupleBatch`, or a
//! log record — must be refused before anything is reserved for them.
//!
//! The allocator below counts live bytes and their high-water mark for
//! the whole test binary, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ms_core::codec::{SnapshotReader, BATCH_V1};
use ms_core::error::Error;

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

/// `v` as a LEB128 varint.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

#[test]
fn hostile_record_counts_allocate_only_what_arrives() {
    // Producer 0, 2⁴⁰ tuples, seqs 0..2⁴⁰−1, base time 0 — then a
    // 30-byte body of one-field tuples whose field count claims 2⁴⁰.
    let mut header = vec![BATCH_V1, 0];
    header.extend(varint(1 << 40));
    header.extend(varint(0));
    header.extend(varint((1 << 40) - 1));
    header.extend(varint(0));
    let many_tuples = [header.clone(), vec![0; 30]].concat();
    let mut one = vec![BATCH_V1, 0, 1, 0, 0, 0, 0, 0];
    one.extend(varint(1 << 40));
    let many_fields = [one, vec![0x21; 30]].concat();

    for record in [many_tuples, many_fields] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let got = SnapshotReader::new(&record).get_batch();
        let peak = PEAK.load(Ordering::Relaxed) - before;

        assert!(matches!(got, Err(Error::Codec(_))), "{got:?}");
        assert!(
            peak < 1 << 20,
            "get_batch peaked at {peak} bytes for a {}-byte record",
            record.len()
        );
    }
}
