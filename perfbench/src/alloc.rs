//! A counting global allocator: the traced run reads the counter around
//! every layer call to report allocations per slot for each layer.
//!
//! It counts allocation *events* (alloc, alloc_zeroed, realloc), as
//! `fifoms-repro alloc-audit` does, so its zero for bare FIFOMS and
//! iSLIP means the same thing as the audit's. The count is per thread,
//! so allocations on other threads (parallel tests) never land in a
//! layer's count. The untraced runs pay one thread-local increment per
//! allocation, which the steady-state loops of the bare switches never
//! make.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so reaching it never
    // allocates, which the allocator itself relies on.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are nobody's layer cost.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation events made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// [`System`] with an event counter in front.
pub struct CountingAlloc;

// SAFETY: every operation defers verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter increment does not touch the returned
// memory and does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System::alloc` under the caller's layout
    // obligations, unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: forwards to `System::alloc_zeroed` under the caller's layout
    // obligations, unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr`/`layout` were produced by a matching allocation on
    // `System`, the only allocator behind this wrapper.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System::realloc` under the caller's
    // obligations, unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
