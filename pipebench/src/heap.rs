//! Peak live heap, counted by the benchmark binary's global allocator.
//!
//! Resident memory swings by a quarter between runs of the same work
//! (allocator arenas keep freed pages, and how much depends on thread
//! timing), so the memory metric counts the bytes the program holds in
//! live allocations instead. Each thread batches its byte delta and
//! publishes it in steps of [`STEP`], so the hot path is a thread-local
//! add. A thread that exits drops its unpublished remainder, so the count
//! drifts by up to `STEP` per exited thread; a peak is therefore read
//! relative to the live count when its window opened.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Bytes a thread may hold unpublished.
const STEP: i64 = 64 << 10;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// The live count when the current peak window opened.
static BASE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static PENDING: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, with live bytes counted.
pub struct Counting;

fn account(delta: i64) {
    let publish = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() >= STEP {
                p.set(0);
                v
            } else {
                p.set(v);
                0
            }
        })
        .unwrap_or(delta);
    if publish != 0 {
        let live = LIVE.fetch_add(publish, Ordering::Relaxed) + publish;
        if publish > 0 && live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics that no
// allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Opens a new peak window at the current live size.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// The most bytes held at once since the last [`reset_peak`], beyond
/// what was live when it was called, in MiB.
pub fn peak_mb() -> f64 {
    let grown = PEAK.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed);
    grown.max(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_allocation_raises_the_peak() {
        reset_peak();
        let block = vec![1u8; 8 << 20];
        assert!(peak_mb() >= 7.9, "{}", peak_mb());
        drop(block);
    }
}
