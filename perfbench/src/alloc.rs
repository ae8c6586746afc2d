//! A counting global allocator, switched on only in the traced run.
//!
//! When off, each allocation pays one relaxed atomic load; when on, it also
//! counts the call and its bytes. The counts are process-wide, so they are
//! taken only around single-threaded sections.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls and bytes requested since the counter was last read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, o: Allocs) {
        self.calls += o.calls;
        self.bytes += o.bytes;
    }
}

/// Turns counting on or off.
pub fn enable(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// The totals so far; subtract two readings to count a section.
pub fn read() -> Allocs {
    Allocs {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

impl std::ops::Sub for Allocs {
    type Output = Allocs;
    fn sub(self, o: Allocs) -> Allocs {
        Allocs {
            calls: self.calls - o.calls,
            bytes: self.bytes - o.bytes,
        }
    }
}
