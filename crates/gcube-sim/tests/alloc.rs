//! Allocation count of the forwarding path. A cached FFGCR plan at
//! α ≤ 3 is a walk of a few words, so once the arena and the scratch
//! buffers have grown to the run's working set, injecting, forwarding and
//! delivering packets allocates nothing.
//!
//! A counting global allocator tallies the calling thread's allocations:
//! per thread, so the test harness's own threads do not count. This file
//! holds that one test, since the allocator is the binary's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gcube_sim::{CachedFfgcr, RoutingAlgorithm, SimConfig, Simulator};
use gcube_topology::{NodeId, Topology};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// After a warm-up, 200 cycles of fault-free cached FFGCR on GC(12,4) at
/// rate 0.01 make fewer than one allocation per 100 injected packets (an
/// explicit route per packet would make one each).
///
/// The warm-up fills what grows once per run: the walk table, by planning
/// every key `(EC(s), EC(d), required classes)` — sources `0..4` against
/// every destination cover all 256 — and the arena and scratch buffers,
/// by 200 cycles of the run itself. A key first met inside the window
/// would allocate while building its walk, which is a cost per key, not
/// per packet.
#[test]
fn cached_ffgcr_forwarding_allocates_nothing_per_packet() {
    let (warm, measured) = (200, 200);
    let cfg = SimConfig::new(12, 4)
        .with_rate(0.01)
        .with_cycles(warm + measured, 2_000, warm)
        .with_seed(3);
    let algo = CachedFfgcr::new();
    let sim = Simulator::new(cfg, &algo);
    let gc = sim.cube();
    for s in 0..gc.modulus() {
        for d in 0..gc.num_nodes() {
            algo.plan_route(gc, sim.faults(), NodeId(s), NodeId(d))
                .unwrap();
        }
    }
    let keys = algo.stats().expect("the cache was used").misses;
    assert_eq!(keys, 256, "every key of GC(12,4) is built");
    let mut stepper = sim.session().stepper();
    stepper.step_many(warm);
    let before = allocations();
    stepper.step_many(measured);
    let made = allocations() - before;
    let report = stepper.finish();
    // Injections from the warm-up cycle on: exactly the measured cycles.
    let injected = report.metrics.injected;
    assert!(injected >= 4_000, "the measured cycles inject: {injected}");
    assert!(
        made * 100 < injected,
        "{made} allocations for {injected} injected packets"
    );
}
