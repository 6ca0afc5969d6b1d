//! The gate's ingest allocates for what it emits, not for what it
//! reads. A batch read into the frame decoder, popped as a slice of its
//! buffer, parsed and folded in place allocates its tuples and nothing
//! whose size follows the event count — no copied payload, no decoded
//! event vector. And the decoder's socket read grows its buffer with
//! the bytes that arrive: a length prefix claiming `MAX_FRAME_BYTES`
//! followed by 16 bytes and EOF leaves it holding one read chunk.
//!
//! The allocator below counts bytes for the whole test binary, so this
//! file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use ms_core::codec::{frame, FrameDecoder, MAX_FRAME_BYTES, READ_CHUNK};
use ms_core::gate::{GateConfig, GateMsg};
use ms_core::ids::OperatorId;
use ms_gate::{Admission, FrameStep, GateCore};

/// The system allocator, counting bytes allocated in total, live bytes
/// and their peak. Zeroed allocation and reallocation keep their
/// default implementations, which go through `alloc` and `dealloc`.
struct Counting;

static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`,
// so its guarantees hold; the counters are statistics no allocation
// depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
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

/// Bytes allocated while one `events`-event batch on 8 keys is read
/// from a socket into `dec`, popped in place and staged by `core`.
fn staging_bytes(
    core: &mut GateCore,
    dec: &mut FrameDecoder,
    seq: &mut u64,
    batch: u64,
    events: u64,
) -> usize {
    let framed = frame(
        &GateMsg::Batch {
            batch,
            events: (0..events).map(|i| (i % 8, i as i64)).collect(),
        }
        .encode(),
    );
    let (mut tx, mut rx) = UnixStream::pair().unwrap();
    tx.write_all(&framed).unwrap();
    drop(tx);
    let before = TOTAL.load(Ordering::Relaxed);
    let mut got = 0;
    while got < framed.len() {
        got += dec.read_from(&mut rx).unwrap();
    }
    let payload = dec.pop_frame().unwrap().expect("one whole frame");
    let step = core.on_frame(seq, &mut Some(1), payload);
    let allocated = TOTAL.load(Ordering::Relaxed) - before;
    match step {
        FrameStep::Batch {
            admission: Admission::Accept(tuples),
            ..
        } => assert_eq!(tuples.len(), 8),
        other => panic!("expected an accept, got {other:?}"),
    }
    allocated
}

#[test]
fn ingest_allocates_per_tuple_and_reads_per_chunk() {
    // Staging: a 2048-event batch allocates what a 1024-event one does
    // (its 8 tuples), less than its decoded events alone would take.
    let mut core = GateCore::new(OperatorId(0), GateConfig::default());
    let mut dec = FrameDecoder::new();
    let mut seq = 0;
    staging_bytes(&mut core, &mut dec, &mut seq, 1, 2048);
    let half = staging_bytes(&mut core, &mut dec, &mut seq, 2, 1024);
    let full = staging_bytes(&mut core, &mut dec, &mut seq, 3, 2048);
    assert_eq!(
        full, half,
        "staging 2048 events allocated {full} bytes, 1024 events {half}"
    );
    assert!(
        full < 2048 * 16,
        "staging allocated {full} bytes for 8 tuples"
    );

    // Socket read: a hostile length prefix, 16 bytes, EOF.
    let (mut tx, mut rx) = UnixStream::pair().unwrap();
    tx.write_all(&(MAX_FRAME_BYTES as u32).to_le_bytes())
        .unwrap();
    tx.write_all(&[7; 16]).unwrap();
    tx.shutdown(Shutdown::Write).unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut dec = FrameDecoder::new();
    while dec.read_from(&mut rx).unwrap() > 0 {
        assert!(dec.pop_frame().unwrap().is_none(), "no frame is complete");
    }
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(dec.buffered(), 20);
    assert!(
        peak <= READ_CHUNK,
        "the decoder held {peak} bytes for 20 that arrived"
    );
}
