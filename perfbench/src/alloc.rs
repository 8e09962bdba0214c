//! Counting global allocator: bytes requested while counting is on.
//!
//! Counting is switched on only in the traced run (`--trace 1`), so
//! the untraced run pays one relaxed load per allocation and nothing
//! more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The process allocator: [`System`] plus a byte counter.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches byte counting on for the rest of the process.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Runs `f`, returning its value, its wall time in nanoseconds and the
/// bytes it allocated (0 unless counting is on). Nothing the caller
/// keeps is freed inside the span.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let b0 = bytes();
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    let ns = t0.elapsed().as_nanos() as f64;
    (v, ns, bytes() - b0)
}
