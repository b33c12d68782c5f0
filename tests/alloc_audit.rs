//! Steady-state allocation audit with a real counting global allocator.
//!
//! Integration tests compile as their own crates, so installing a
//! `#[global_allocator]` here taxes only this test binary — the library
//! crates stay `forbid(unsafe_code)` and the workspace's other tests run
//! on the plain system allocator. The audit harness itself is
//! [`fifoms_sim::alloc_audit`]; this file supplies the counter it needs
//! and asserts that after warmup the engine's slot loop (`traffic → admit
//! → run_slot → stats`) performs **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fifoms::core::{AdmissionPolicy, BufferConfig};
use fifoms::prelude::*;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every operation defers verbatim to `System`, which upholds the
// GlobalAlloc contract; the relaxed counter increment does not touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System::alloc` under the caller's obligations.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System::realloc` under the caller's
    // obligations.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Every case runs sequentially in one test: a second thread would share
/// the process-wide counter, so parallel test execution could
/// cross-attribute allocations.
///
/// The cases cover both schedulers at N=8, FIFOMS at N=64 and load 0.9
/// (where ~2.3 request/grant rounds run per slot), and FIFOMS at N=32
/// overloaded to 1.2 behind pushout buffers (VOQ cap 16, input cap 64),
/// where every slot sheds and evicts copies. iSLIP still allocates now
/// and then at N=64, so it is audited at N=8 only.
#[test]
fn steady_state_slot_loop_is_allocation_free() {
    let pushout = BufferConfig::bounded(16, 64).with_policy(AdmissionPolicy::Pushout);
    let cases: [(&str, Box<dyn Switch>, TrafficKind); 4] = [
        (
            "FIFOMS n=8",
            SwitchKind::Fifoms.build(8, 1),
            TrafficKind::bernoulli_at_load(0.6, 0.25, 8),
        ),
        (
            "iSLIP n=8",
            SwitchKind::Islip(None).build(8, 1),
            TrafficKind::bernoulli_at_load(0.6, 0.25, 8),
        ),
        (
            "FIFOMS n=64",
            SwitchKind::Fifoms.build(64, 1),
            TrafficKind::bernoulli_at_load(0.9, 0.2, 64),
        ),
        (
            "FIFOMS n=32 pushout",
            Box::new(MulticastVoqSwitch::new(32, 1).with_buffers(pushout)),
            TrafficKind::bernoulli_at_load(1.2, 0.25, 32),
        ),
    ];
    for (label, mut sw, traffic) in cases {
        let mut tr = traffic.build(sw.ports(), 2);
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 3_000, 3_000, &alloc_events).unwrap();
        assert!(
            report.packets_admitted > 0 && report.copies_delivered > 0,
            "{label}: audit must exercise real load"
        );
        assert!(
            report.is_clean(),
            "{label}: steady-state slot loop allocated: {:?}",
            report.phase_allocs
        );
    }
}
