//! Dynamic allocation-discipline check for the churn patch: after one
//! warm-up cycle, folding events into a [`DynamicBaseline`] performs
//! **zero** heap allocations.
//!
//! The runtime counterpart of the `alloc-discipline` entries for
//! `apply_event_traced`, `remove_links` and `restore_links` in
//! `cargo xtask analyze` (see `crates/xtask/src/rules/alloc.rs`): the rule
//! proves those bodies lexically allocation-free, and this test proves the
//! whole `apply_event` call graph — tree repairs, rebucketing, delta
//! filtering — transitively allocation-free once its buffers reach their
//! high-water marks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rtr_eval::baseline::Baseline;
use rtr_eval::churn::DynamicBaseline;
use rtr_topology::{generate, LinkId, TimelineEvent};

/// [`System`] wrapped with an allocation counter. Deallocations are not
/// counted: freeing is fine in steady state; acquiring fresh memory is
/// what the contract bans.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; the count is a side effect.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, delegated unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller passes a pointer previously
        // returned by `alloc` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`; the count is a side effect.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller upholds the `realloc`
        // contract on `ptr`, `layout`, and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// One test function only: the counter is process-global, and a second
/// test running in parallel would attribute its allocations to this one.
#[test]
fn steady_state_churn_events_allocate_nothing() {
    let topo = generate::isp_like(60, 130, 2000.0, 17).expect("fixture topology");
    let batch: Vec<LinkId> = topo.link_ids().step_by(9).collect();
    let down = TimelineEvent {
        at_ms: 10,
        down: batch.clone(),
        up: vec![],
    };
    let up = TimelineEvent {
        at_ms: 20,
        down: vec![],
        up: batch,
    };
    let base = Arc::new(Baseline::new(topo));
    let mut dynbase = DynamicBaseline::new(Arc::clone(&base));

    // Warm-up: one down/up cycle grows every repair and rebucketing
    // buffer, and every bucket, to its high-water mark.
    let cut = dynbase.apply_event(&down);
    let healed = dynbase.apply_event(&up);
    assert!(cut.labels_touched > 0 && healed.labels_touched > 0);

    // Steady state: further cycles must not touch the allocator at all.
    let before = allocs();
    for _ in 0..3 {
        let _ = dynbase.apply_event(&down);
        let _ = dynbase.apply_event(&up);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state apply_event must perform zero heap allocations \
         (got {} across 3 cycles)",
        after - before
    );
    assert_eq!(dynbase.divergence(&dynbase.rebuilt()), None);
}
