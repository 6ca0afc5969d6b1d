//! `read_frame` allocates for the bytes that arrive, not for the bytes
//! a length prefix claims. A header announcing `MAX_FRAME_BYTES`
//! followed by 16 payload bytes and EOF is a torn frame, and reading it
//! must never hold anything near the claimed 64 MiB — otherwise any
//! process that can connect to the controller makes it allocate and
//! zero that much by sending four bytes.
//!
//! The allocator below counts live bytes and their high-water mark for
//! the whole test binary, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ms_core::codec::{read_frame, MAX_FRAME_BYTES};
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

#[test]
fn hostile_length_prefix_allocates_only_what_arrives() {
    let mut stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(&[7; 16]);
    let mut cursor = std::io::Cursor::new(stream);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let got = read_frame(&mut cursor);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert!(matches!(got, Err(Error::Wire(_))), "{got:?}");
    assert!(
        peak < 1 << 20,
        "read_frame peaked at {peak} bytes for 16 that arrived"
    );
}
