//! A counting global allocator, so the traced run can report how many
//! bytes each layer holds at its high-water mark.
//!
//! Counting is off unless [`enable`] turns it on (the traced run does so
//! around the calls it measures); while off, each allocation pays one
//! relaxed load. The live-byte counter is signed: memory allocated while
//! counting was off may be freed while it is on, which only ever lowers
//! the counter, and every measurement is relative to the counter at the
//! start of a span.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The allocator wrapper installed by `main.rs`.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and never affect the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off. Call it only while no other thread of the
/// benchmark allocates.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Starts a span: resets the high-water mark to the live count and
/// returns that count as the span's base.
pub fn span_start() -> isize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    base
}

/// Bytes above `base` held at the span's high-water mark.
pub fn span_peak(base: isize) -> usize {
    (PEAK.load(Ordering::Relaxed) - base).max(0) as usize
}
