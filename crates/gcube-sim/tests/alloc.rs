//! Allocation count of the forwarding path. A cached FFGCR plan at
//! α ≤ 3 is a walk of a few words, so once the arena and the scratch
//! buffers have grown to the run's working set, injecting, forwarding and
//! delivering packets allocates nothing, and reading the ledger for the
//! observers each cycle allocates nothing either.
//!
//! A counting global allocator tallies the calling thread's allocations:
//! per thread, so the test harness's own threads do not count. This file
//! holds only these tests, since the allocator is the binary's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gcube_sim::{
    CachedFfgcr, ProfileCollector, ProfilerSink, RoutingAlgorithm, SimConfig, Simulator, Stepper,
    TelemetryCollector, TelemetrySink, TraceSink,
};
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

/// Warm-up and measured cycles of every run here.
const WARM: u64 = 200;
const MEASURED: u64 = 200;

/// Fault-free cached FFGCR on GC(12,4) at rate 0.01, with the walk table
/// already holding every key `(EC(s), EC(d), required classes)`: sources
/// `0..4` against every destination cover all 256. A key first met inside
/// the measured cycles would allocate while building its walk, which is a
/// cost per key, not per packet.
fn warm_sim(algo: &CachedFfgcr) -> Simulator<'_> {
    let cfg = SimConfig::new(12, 4)
        .with_rate(0.01)
        .with_cycles(WARM + MEASURED, 2_000, WARM)
        .with_seed(3);
    let sim = Simulator::new(cfg, algo);
    let gc = sim.cube();
    for s in 0..gc.modulus() {
        for d in 0..gc.num_nodes() {
            algo.plan_route(gc, sim.faults(), NodeId(s), NodeId(d))
                .unwrap();
        }
    }
    let keys = algo.stats().expect("the cache was used").misses;
    assert_eq!(keys, 256, "every key of GC(12,4) is built");
    sim
}

/// Step through the warm-up, which grows the arena and the scratch
/// buffers to the run's working set, then count the measured cycles'
/// allocations. Returns them with the packets injected from the warm-up
/// cycle on: exactly the measured cycles.
fn measure<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    mut stepper: Stepper<'_, '_, S, T, P>,
) -> (u64, u64) {
    stepper.step_many(WARM);
    let before = allocations();
    stepper.step_many(MEASURED);
    let made = allocations() - before;
    let injected = stepper.finish().metrics.injected;
    assert!(injected >= 4_000, "the measured cycles inject: {injected}");
    (made, injected)
}

/// After a warm-up, 200 cycles of fault-free cached FFGCR on GC(12,4) at
/// rate 0.01 make fewer than one allocation per 100 injected packets (an
/// explicit route per packet would make one each).
#[test]
fn cached_ffgcr_forwarding_allocates_nothing_per_packet() {
    let algo = CachedFfgcr::new();
    let sim = warm_sim(&algo);
    let (made, injected) = measure(sim.session().stepper());
    assert!(
        made * 100 < injected,
        "{made} allocations for {injected} injected packets"
    );
}

/// The same run with telemetry and a profiler attached (interval 50):
/// the per-cycle ledger difference and the shared view allocate nothing,
/// so only the window closes (four in the measured cycles) allocate, far
/// fewer than one allocation per 100 injected packets. One allocation per
/// cycle would make at least 200.
#[test]
fn observed_run_allocates_nothing_per_cycle() {
    let algo = CachedFfgcr::new();
    let sim = warm_sim(&algo);
    let mut telem = TelemetryCollector::new(sim.cube(), 50);
    let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), 50);
    let stepper = sim
        .session()
        .telemetry(&mut telem)
        .profile(&mut prof)
        .stepper();
    let (made, injected) = measure(stepper);
    assert!(
        made * 100 < injected,
        "{made} allocations for {injected} injected packets"
    );
    assert_eq!(
        prof.cycles(),
        WARM + MEASURED,
        "the profiler saw every cycle"
    );
}
