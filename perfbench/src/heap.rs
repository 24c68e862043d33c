//! Peak live heap: a counting wrapper around the system allocator.
//!
//! `VmHWM` mixes the program's allocations with how many per-thread malloc
//! arenas glibc happened to create: across ten seeds of `suite-cold` it
//! read 221–304 MB. The bytes the program holds live through the Rust
//! allocator do not depend on arenas, so `peak_heap_mb` reports their
//! maximum; `VmHWM` is still printed on each run's `memory` line.
//!
//! Each thread batches its size changes and publishes them once they pass
//! [`FLUSH`] bytes, so the counter costs one thread-local update per
//! allocation and the peak is exact to within `FLUSH` bytes per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

const FLUSH: isize = 64 << 10;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn publish(delta: isize) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn note(delta: isize) {
    let batched = PENDING.try_with(|pending| {
        let total = pending.get() + delta;
        if total.abs() >= FLUSH {
            pending.set(0);
            publish(total);
        } else {
            pending.set(total);
        }
    });
    // The thread's slot is gone (the thread is exiting): publish directly.
    if batched.is_err() {
        publish(delta);
    }
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over;
// the bookkeeping touches only atomics and a const-initialised `Cell`
// without a destructor, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note(size(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note(size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            note(size(new_size) - size(layout.size()));
        }
        moved
    }
}

/// Starts a new peak window at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MB (2^20 bytes).
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}
