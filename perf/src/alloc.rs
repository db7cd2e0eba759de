//! A counting global allocator: two relaxed atomics in front of the
//! system allocator. Always on, so both sides of any comparison pay the
//! same (small) cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

// Relaxed: pure statistics, they publish no other data.
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes requested, allocation calls)` since process start.
pub fn totals() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), COUNT.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_known_allocation_is_counted() {
        // Other test threads allocate too, so the totals only bound from
        // below.
        let (bytes, count) = super::totals();
        let block = std::hint::black_box(Vec::<u8>::with_capacity(1 << 20));
        let (bytes_after, count_after) = super::totals();
        assert!(bytes_after - bytes >= 1 << 20);
        assert!(count_after > count);
        drop(block);
    }
}
