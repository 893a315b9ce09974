//! The cycle kernel and its two schedules.
//!
//! Every run — `Simulator::session().run()`, a [`crate::session::Stepper`],
//! a restored [`crate::checkpoint::Checkpoint`], a `gcube serve` session —
//! executes the same per-cycle phases, implemented once on [`Shard`]: the
//! structure-of-arrays state ([`crate::soa`]) of one node range plus
//! replicas of everything the phases read network-wide.
//!
//! # The cycle
//!
//! 1. **Fault step (replicated).** Every shard owns an identical replica
//!    of the ground truth, the routing view, and the fault injector (all
//!    seeded deterministically), so fault events, stranding of its own
//!    nodes' queues, and view reconvergence are computed locally and
//!    identically everywhere.
//! 2. **Collective launch (replicated).** The RNG-free planner derives the
//!    same wave on every shard; each shard injects only the packets whose
//!    source it owns, ahead of the cycle's unicast injection.
//! 3. **Injection (replicated draw).** Every shard draws the whole traffic
//!    stream from its own replica of the generator, in node order, against
//!    its identical truth and view replicas, and gives every attempt the
//!    next packet id; it plans and accounts only the sources it owns.
//! 4. **Forwarding scan.** Each shard walks its occupancy bitset in the
//!    global rotated service order. A head is sunk, dropped on its TTL,
//!    forwarded, or — when its next hop is dead in the truth — handed to
//!    recovery. Classification reads only the packet and the truth, never
//!    the view, so it is order-independent.
//! 5. **Move exchange.** A forwarded packet that stays inside the shard
//!    remains an arena slot, kept in scan order; only moves into another
//!    shard's nodes are materialised. Arrivals enter the FIFO queues in
//!    `(service index, packet id)` order.
//! 6. **Recovery resolution.** Blocked heads are resolved in service
//!    order against the coordinator's view: the observed failure enters
//!    the view, then the packet is replanned in place or dropped (TTL,
//!    re-route budget, no route).
//! 7. **Observer sampling.** Per-cycle telemetry deltas and ending-class
//!    snapshots are folded into the attached telemetry sink and profiler.
//!
//! Metrics and windows are additive per shard. Trace events are buffered
//! under a `(stream, index, seq)` key and emitted in key order, so the
//! narration does not depend on which shard produced an event.
//!
//! # One driver, two schedules
//!
//! The [`Coordinator`] is shard 0 plus everything network-global: the
//! health monitor, the collective repair ledger, and the run's clock. It
//! owns every other shard and the [`Exchange`] too, so a paused run — a
//! [`crate::session::Stepper`], a daemon session, a run about to be
//! checkpointed — is one value at any shard count.
//! [`Coordinator::step_many`] is the only driver: `try_run` calls it
//! once with no cycle limit, a stepper once per request.
//!
//! * **One shard** (`threads(1)` and the daemon's sessions). The
//!   coordinator owns every node. There is no [`Exchange`], no barrier
//!   and no thread: injections are planned inline, every forwarded packet
//!   stays an arena slot, and blocked heads are resolved inline, during
//!   the scan.
//! * **`T` shards** (`T = min(threads, 2^α)`). Theorem 2 makes ending
//!   classes the shard key: a hop over a dimension `≥ α` stays inside the
//!   sender's ending class, so each shard owns a contiguous chunk of
//!   classes and cross-shard traffic is confined to the low `α`
//!   dimensions. Each `step_many(k)` call opens one `std::thread::scope`
//!   that lends each worker its shard for up to `k` cycles of
//!   [`Shard::worker_step`]; the coordinator steps on the calling thread
//!   (it alone touches the caller's sinks, so they need no `Send` bound),
//!   and the scope's join hands every shard back. Injection needs no
//!   round: each shard replays the draw and plans its own sources. The
//!   plan-cache key includes the source class, so concurrent shards touch
//!   disjoint keys and the cache counters equal the one-shard run's. All
//!   cross-shard traffic flows through the preallocated [`Exchange`] in
//!   rounds separated by a [`SpinBarrier`]:
//!   - **Round B** (moves): each sender swaps its per-receiver move
//!     buffers into a mailbox grid double-buffered on cycle parity, so a
//!     fast shard's next-cycle publish never races a slow shard's drain.
//!   - **Round C** (recovery): blocked heads travel to the coordinator as
//!     snapshots; it rules on them in service order and publishes the
//!     verdicts plus the ordered view mutations, which every replica
//!     applies.
//!   - **Round D** (observers, only with telemetry or a profiler): shards
//!     publish their deltas and class snapshots; the coordinator folds and
//!     samples them between two barriers, while the plan caches are
//!     quiescent.
//!
//! The outputs are bitwise identical for every thread count, and so is
//! where a run stops between calls: every cycle ends with every shard's
//! packets in its queues, which is all a checkpoint records. Wall-clock
//! phase timings are coordinator-only and never enter the deterministic
//! exports.

use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use gcube_routing::faults::fault_budget;
use gcube_routing::plan_cache::PlanCache;
use gcube_routing::{FaultSet, Trajectory, WalkRule};
use gcube_topology::{LinkId, NodeId, Topology};

use crate::collective::{is_collective, CollectivePlanner, LaunchPlan, OpTracker, RepairLedger};
use crate::engine::Simulator;
use crate::injection::FaultInjector;
use crate::metrics::{
    merge_ops, merge_windows, ChurnReport, Metrics, OpStat, WindowStat, MAX_TREES,
};
use crate::packet::Packet;
use crate::profiler::{ProfSample, ProfilerSink, ShardProfile};
use crate::soa::{NodeQueues, PacketStore};
use crate::strategy::{PlannedRoute, TreeChoice};
use crate::telemetry::{CycleView, FaultBudgetMonitor, Phase, ShardTelemetry, TelemetrySink};
use crate::trace::{DropCause, TraceEvent, TraceEventKind, TraceSink, NETWORK_EVENT_PACKET};
use crate::traffic::TrafficGen;

/// Trace-stream tags for the per-cycle merge key, in emission order:
/// network health, stranding drops, collective launch, injection,
/// forwarding-scan resolutions (including recovery), move drain.
const SUB_HEALTH: u64 = 0;
const SUB_STRAND: u64 = 1;
const SUB_LAUNCH: u64 = 2;
const SUB_INJECT: u64 = 3;
const SUB_SCAN: u64 = 4;
const SUB_MOVE: u64 = 5;

/// Sort key of one trace event within its cycle: stream tag, then node id
/// (strand, inject), BFS rank (launch) or service index (scan, move), then
/// the event's sequence within that slot.
#[inline]
fn ekey(sub: u64, idx: u64, seq: u64) -> u64 {
    debug_assert!(idx < 1 << 40 && seq < 1 << 20);
    (sub << 60) | (idx << 20) | seq
}

/// Lock an exchange cell. A cell is poisoned only when a shard panicked
/// while holding it, and then the whole run is going down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("exchange cell poisoned by a panicking shard")
}

/// Re-synchronise the routing view onto the ground truth, skipping the
/// copy when neither set changed since the last sync (their generation
/// stamps still match the recorded pair).
fn sync_view(view: &mut FaultSet, truth: &FaultSet, synced: &mut (u64, u64)) {
    if *synced != (truth.generation(), view.generation()) {
        view.sync_from(truth);
        *synced = (truth.generation(), view.generation());
    }
}

/// A sense-reversing hybrid barrier. With enough cores for every shard,
/// waiters spin (briefly yielding between probes) — a handful of atomic
/// operations per round, microseconds cheaper than parking on a
/// `std::sync::Barrier`, which matters at thousands of rounds per
/// second. On an oversubscribed host (more shards than cores) waiters
/// park on a condvar instead: a yield loop there keeps pre-empting the
/// one thread everyone is waiting on, turning each round into a storm
/// of context switches.
///
/// A participant that panics never arrives, so every participant holds a
/// [`PoisonOnUnwind`] guard: unwinding poisons the barrier, and every
/// waiter — present or future — panics with "peer shard panicked"
/// instead of waiting forever.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    total: usize,
    /// Spin before probing again; false parks waiters on the condvar.
    spin: bool,
    /// Guards no data (so a poisoned guard is safe to recover): it only
    /// orders generation bumps against parking waiters.
    lock: Mutex<()>,
    parked: Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            total,
            spin: cores >= total,
            lock: Mutex::new(()),
            parked: Condvar::new(),
        }
    }

    /// Block until all `total` threads arrive. Memory ordering: every
    /// write before any thread's `wait` is visible to every thread after
    /// its `wait` (the arrivals form a release sequence on `count`; the
    /// last arriver publishes via a release store of `generation`).
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            // Publish under the lock so a parking waiter cannot check
            // the generation and then miss the wakeup.
            let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.fetch_add(1, Ordering::Release);
            drop(guard);
            self.parked.notify_all();
            return;
        }
        let check_poison = || {
            if self.poisoned.load(Ordering::Acquire) {
                panic!("peer shard panicked");
            }
        };
        if self.spin {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                check_poison();
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        } else {
            let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            while self.generation.load(Ordering::Acquire) == gen {
                check_poison();
                guard = self
                    .parked
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Release every waiter into a panic; called by an unwinding
    /// participant.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Notify under the lock: a parked waiter either saw the flag or
        // is already waiting and receives this wakeup.
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.notify_all();
    }
}

/// Poisons the barrier when its owner unwinds (see [`SpinBarrier`]).
struct PoisonOnUnwind<'b>(&'b SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// A routing-view mutation discovered during recovery, published once
/// and applied by every replica in the identical order.
#[derive(Clone, Copy)]
enum ViewOp {
    Node(NodeId),
    Link(LinkId),
}

/// The coordinator's ruling on one blocked head. Drops are fully
/// accounted by the coordinator; the owner only mutates its queue.
enum Verdict {
    Replan(Trajectory),
    Drop,
}

/// Round D cell: a worker's per-cycle counter delta and ending-class
/// snapshot, copied into pre-sized buffers (no per-window clones).
struct TelemetryCell {
    delta: ShardTelemetry,
    class_queued: Vec<u64>,
    class_occupied: Vec<u64>,
}

/// A mailbox cell of `(service index, packet)` pairs.
type PacketCell = Mutex<Vec<(u32, Packet)>>;
/// A buffered-trace cell of `(sort key, event)` pairs.
type EventCell = Mutex<Vec<(u64, TraceEvent)>>;

/// The shared-memory mailbox grid of the multi-shard schedule. Everything
/// is preallocated; per-cycle traffic is mutex-swaps of `Vec`s whose
/// capacities circulate between senders and cells.
///
/// Cells written before a barrier and read after it are race-free by
/// construction. Cells that a fast shard could refill for cycle `c+1`
/// while a slow shard still drains cycle `c` (the move grid, the event
/// cells, the contribution counters — anything written *before* the
/// round barrier and read *after* it with no later barrier in the same
/// cycle) are double-buffered on cycle parity.
pub(crate) struct Exchange {
    barrier: SpinBarrier,
    shards: usize,
    /// `moves[parity][sender * shards + receiver]`: packets the sender
    /// moved into the receiver's shard this cycle, tagged with the
    /// sender-side service index.
    moves: [Vec<PacketCell>; 2],
    /// Per-sender blocked heads for the coordinator. Only written in
    /// cycles where Round C runs (its barrier gates the reuse), so no
    /// parity split is needed.
    candidates: Vec<PacketCell>,
    /// Per-sender buffered trace events for the coordinator's merge.
    events: [Vec<EventCell>; 2],
    /// Per-sender in-flight contributions for the cooperative exit test.
    contrib: [Vec<AtomicU64>; 2],
    /// Per-sender forwarded-hop counts for the profiler's deterministic
    /// `moved` counter, published alongside `contrib`. Written only when
    /// a profiler is attached.
    hops: [Vec<AtomicU64>; 2],
    /// Round C broadcast: per-shard verdicts plus the shared ordered
    /// view-op list (read in place by every worker).
    verdicts: Vec<Mutex<Vec<(u32, Verdict)>>>,
    view_ops: Mutex<Vec<ViewOp>>,
    verdict_drops: AtomicU64,
    telemetry: Vec<Mutex<TelemetryCell>>,
}

impl Exchange {
    fn new(shards: usize, classes: usize, n_dims: usize) -> Exchange {
        fn cells<T>(count: usize) -> Vec<Mutex<Vec<T>>> {
            (0..count).map(|_| Mutex::new(Vec::new())).collect()
        }
        fn counters(count: usize) -> [Vec<AtomicU64>; 2] {
            [0, 1].map(|_| (0..count).map(|_| AtomicU64::new(0)).collect())
        }
        Exchange {
            barrier: SpinBarrier::new(shards),
            shards,
            moves: [cells(shards * shards), cells(shards * shards)],
            candidates: cells(shards),
            events: [cells(shards), cells(shards)],
            contrib: counters(shards),
            hops: counters(shards),
            verdicts: cells(shards),
            view_ops: Mutex::new(Vec::new()),
            verdict_drops: AtomicU64::new(0),
            telemetry: (0..shards)
                .map(|_| {
                    Mutex::new(TelemetryCell {
                        delta: ShardTelemetry::new(n_dims),
                        class_queued: vec![0; classes],
                        class_occupied: vec![0; classes],
                    })
                })
                .collect(),
        }
    }

    /// Sum one parity's per-shard counters.
    fn total(counters: &[AtomicU64]) -> u64 {
        counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Split `num_classes` ending classes into `shards` contiguous chunks
/// (first `num_classes % shards` chunks one class larger). Each entry is
/// the half-open class range `[lo, hi)` owned by that shard. Exported so
/// the CLI health report can print the layout.
pub fn class_ranges(num_classes: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = num_classes / shards;
    let rem = num_classes % shards;
    let mut start = 0;
    (0..shards)
        .map(|s| {
            let len = base + usize::from(s < rem);
            let range = (start, start + len);
            start += len;
            range
        })
        .collect()
}

/// What the fault step did, so the coordinator can run the
/// network-global accounting (fault-event counters, health monitor,
/// staleness hooks) exactly once.
struct CycleStart {
    applied: usize,
    reconverged: bool,
    stale: bool,
}

/// One node range's state and the kernel's per-cycle phases over it:
/// its packets and queues, its replicas of the truth, view, fault
/// injector, traffic generator and packet-id counter, and its additive
/// share of the run's metrics, windows, collective records, telemetry
/// delta and trace events.
pub(crate) struct Shard {
    me: usize,
    /// Ending class → owning shard.
    class_owner: Vec<usize>,
    class_range: (usize, usize),
    pub(crate) cmask: usize,
    n_nodes: u64,
    pub(crate) store: PacketStore,
    pub(crate) queues: NodeQueues,
    pub(crate) class_queued: Vec<u64>,
    pub(crate) class_occupied: Vec<u64>,
    pub(crate) truth: FaultSet,
    pub(crate) view: FaultSet,
    pub(crate) synced: (u64, u64),
    pub(crate) injector: FaultInjector,
    pub(crate) converge_at: Option<u64>,
    /// The traffic stream, drawn whole by every shard.
    pub(crate) traffic: TrafficGen,
    /// The id of the next injection attempt, network-wide.
    pub(crate) next_id: u64,
    dynamic: bool,
    ttl: u64,
    warmup: u64,
    window: u64,
    /// The current cycle's window (opened by the fault step).
    widx: usize,
    reroute_budget: u32,
    /// Finite buffers (one-shard runs only; sharded runs refuse them).
    capacity: Option<usize>,
    pub(crate) metrics: Metrics,
    pub(crate) windows: Vec<WindowStat>,
    /// The collective planner; every shard's planner wraps the same tree
    /// cache (the plan is replicated, so cache races only ever produce
    /// identical trees).
    pub(crate) collective: Option<CollectivePlanner>,
    /// Per-op completion records for this shard's share of each wave:
    /// identical metadata everywhere, disjoint outcomes, merged
    /// positionally by [`Coordinator::reduce`].
    pub(crate) op_tracker: OpTracker,
    tracing_on: bool,
    telemetry_on: bool,
    profiling_on: bool,
    delta: ShardTelemetry,
    events: Vec<(u64, TraceEvent)>,
    /// Whole-run report-only profiler counters for this shard.
    profile: ShardProfile,
    /// Forwarded hops this cycle (profiler's deterministic `moved`).
    cycle_hops: u64,
    /// Scratch for occupancy-bitset scans (stranding and forwarding).
    scan_buf: Vec<u32>,
    /// `(service index, slot)` of this cycle's forwarded packets in scan
    /// order; after the drain, only those staying in this shard.
    moves: Vec<(u32, u32)>,
    /// Materialised moves into each other shard.
    out_moves: Vec<Vec<(u32, Packet)>>,
    /// Materialised moves from other shards.
    arrivals: Vec<(u32, Packet)>,
    /// Blocked heads awaiting Round C (multi-shard schedule only).
    candidates: Vec<(u32, Packet)>,
    /// Finite-buffer scratch: arrivals granted this cycle per node, with
    /// a touched-list so resetting costs O(arrivals), not O(nodes).
    arriving: Vec<u32>,
    arrival_nodes: Vec<usize>,
}

impl Shard {
    fn new(
        sim: &Simulator,
        me: usize,
        shards: usize,
        collective_cache: Option<Arc<PlanCache>>,
    ) -> Shard {
        let cfg = &sim.config;
        let n_nodes = sim.gc.num_nodes();
        let cmask = (1usize << sim.gc.alpha()) - 1;
        let ranges = class_ranges(cmask + 1, shards);
        let mut class_owner = vec![0; cmask + 1];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            class_owner[lo..hi].fill(s);
        }
        // Ground truth vs. routing view (see `crate::engine`): with no
        // schedule and an oracle view they stay identical to the static
        // fault set.
        let truth = sim.faults.clone();
        let view = sim.faults.clone();
        let synced = (truth.generation(), view.generation());
        // Finite buffers alone read per-node queue lengths.
        let queues = NodeQueues::new(n_nodes, cfg.buffer_capacity.is_some());
        let rule = WalkRule::new(sim.gc.n(), sim.gc.alpha()).unwrap_or_default();
        let injector = FaultInjector::new(&sim.gc, cfg.schedule.clone(), cfg.seed);
        Shard {
            me,
            class_owner,
            class_range: ranges[me],
            cmask,
            n_nodes,
            store: PacketStore::new(rule),
            queues,
            class_queued: vec![0; cmask + 1],
            class_occupied: vec![0; cmask + 1],
            truth,
            view,
            synced,
            injector,
            converge_at: None,
            traffic: TrafficGen::with_pattern(cfg.seed, cfg.injection_rate, cfg.pattern),
            next_id: 0,
            dynamic: !cfg.schedule.is_none(),
            ttl: cfg.effective_ttl(),
            warmup: cfg.warmup_cycles.min(cfg.inject_cycles),
            window: cfg.window.max(1),
            widx: 0,
            reroute_budget: cfg.reroute_budget,
            capacity: cfg.buffer_capacity,
            metrics: Metrics::default(),
            windows: Vec::new(),
            collective: collective_cache.map(|cache| {
                CollectivePlanner::new(
                    cfg.collective
                        .expect("cache is only built for collective runs"),
                    cfg.collective_interval,
                    cfg.seed,
                    cache,
                )
            }),
            op_tracker: OpTracker::new(),
            tracing_on: false,
            telemetry_on: false,
            profiling_on: false,
            delta: ShardTelemetry::new(sim.gc.n() as usize),
            events: Vec::new(),
            profile: ShardProfile::default(),
            cycle_hops: 0,
            scan_buf: Vec::new(),
            moves: Vec::new(),
            out_moves: (0..shards).map(|_| Vec::new()).collect(),
            arrivals: Vec::new(),
            candidates: Vec::new(),
            // Only materialised for finite buffers: at GC(20) the dense
            // array would cost 4 MiB for a mode that cannot engage.
            arriving: if cfg.buffer_capacity.is_some() {
                vec![0; n_nodes as usize]
            } else {
                Vec::new()
            },
            arrival_nodes: Vec::new(),
        }
    }

    /// Which observers are attached: each gates its own accounting.
    fn observe(&mut self, tracing: bool, telemetry: bool, profiling: bool) {
        self.tracing_on = tracing;
        self.telemetry_on = telemetry;
        self.profiling_on = profiling;
    }

    /// Buffer one trace event under its merge key (tracing only).
    #[inline]
    fn trace(&mut self, key: u64, cycle: u64, packet: u64, node: NodeId, kind: TraceEventKind) {
        if self.tracing_on {
            let ev = TraceEvent {
                cycle,
                packet,
                node,
                kind,
            };
            self.events.push((key, ev));
        }
    }

    /// Append `slot` to node `v`'s queue, keeping the class aggregates.
    #[inline]
    fn enqueue(&mut self, v: usize, slot: u32) {
        if self.queues.is_empty(v) {
            self.class_occupied[v & self.cmask] += 1;
        }
        self.class_queued[v & self.cmask] += 1;
        self.queues.push_back(&mut self.store, v, slot);
    }

    /// This cycle's rotation of the service order: node `v` is served
    /// at index `(v - offset) mod 2^n`.
    #[inline]
    fn offset(&self, cycle: u64) -> usize {
        (cycle & (self.n_nodes - 1)) as usize
    }

    /// Packets sitting in this shard's queues.
    fn queued(&self) -> u64 {
        let (lo, hi) = self.class_range;
        self.class_queued[lo..hi].iter().sum()
    }

    /// Pop node `v`'s head, keeping the class aggregates.
    #[inline]
    fn pop_head(&mut self, v: usize) -> u32 {
        let slot = self.queues.pop_front(&mut self.store, v);
        self.class_queued[v & self.cmask] -= 1;
        if self.queues.is_empty(v) {
            self.class_occupied[v & self.cmask] -= 1;
        }
        slot
    }

    /// Phase 1: open the cycle's window, then (dynamic runs) replicate
    /// the fault step, strand this shard's own dead queues, and advance
    /// the view-reconvergence state machine. Every shard computes the
    /// identical outcome; only the coordinator feeds it into the global
    /// counters and sinks.
    fn begin_cycle(&mut self, sim: &Simulator, cycle: u64) -> CycleStart {
        let widx = (cycle / self.window) as usize;
        self.widx = widx;
        if self.windows.len() <= widx {
            self.windows.push(WindowStat {
                start: widx as u64 * self.window,
                end: (widx as u64 + 1) * self.window,
                ..WindowStat::default()
            });
        }
        let mut start = CycleStart {
            applied: 0,
            reconverged: false,
            stale: false,
        };
        if !self.dynamic {
            return start;
        }
        start.applied = self.injector.step(cycle, &mut self.truth);
        if start.applied > 0 {
            // The occupancy bitset holds exactly this shard's non-empty
            // nodes, in ascending order — the stranding order.
            let mut buf = mem::take(&mut self.scan_buf);
            self.queues.collect_occupied(&mut buf);
            for &vq in &buf {
                let v = vq as usize;
                if !self.truth.is_node_faulty(NodeId(u64::from(vq))) {
                    continue;
                }
                let mut seq = 0;
                while !self.queues.is_empty(v) {
                    let slot = self.pop_head(v);
                    let pkt = self.store.remove(slot);
                    let key = ekey(SUB_STRAND, v as u64, seq);
                    self.count_drop(&pkt, DropCause::Stranded, cycle, NodeId(v as u64), key);
                    seq += 1;
                }
            }
            self.scan_buf = buf;
            let delay = sim.knowledge_delay(&self.truth);
            if delay == 0 {
                sync_view(&mut self.view, &self.truth, &mut self.synced);
            } else {
                // A new event during an ongoing exchange restarts it:
                // convergence is measured from the last change.
                self.converge_at = Some(cycle + delay);
            }
        }
        if let Some(t) = self.converge_at {
            if cycle >= t {
                sync_view(&mut self.view, &self.truth, &mut self.synced);
                self.converge_at = None;
                start.reconverged = true;
            } else {
                start.stale = true;
            }
        }
        start
    }

    /// Phase 2: the replicated collective launch. Every shard computes
    /// the same plan (the planner is RNG-free and routes on the identical
    /// view replica; sources are filtered by the truth) and injects only
    /// the wave packets whose source it owns, ahead of the unicast
    /// injection. Returns `None` when no op is due, `Some(None)` for a
    /// skipped op (dead root class or nothing to send), and the drained
    /// plan otherwise, for the coordinator's repair ledger.
    fn launch_collective(&mut self, sim: &Simulator, cycle: u64) -> Option<Option<LaunchPlan>> {
        let plan = {
            let cp = self.collective.as_ref()?;
            let op_index = cp.due(cycle, sim.config.inject_cycles)?;
            cp.plan(
                &sim.gc,
                &self.view,
                self.view.generation(),
                &self.truth,
                op_index,
            )
        };
        let Some(mut plan) = plan else {
            return Some(None);
        };
        self.op_tracker.begin(&plan, cycle);
        let widx = self.widx;
        for pkt in plan.packets.drain(..) {
            let vu = pkt.src.0 as usize;
            if self.class_owner[vu & self.cmask] != self.me {
                continue;
            }
            self.metrics.injected_total += 1;
            self.metrics.collective_injected += 1;
            if self.telemetry_on {
                self.delta.injected += 1;
            }
            self.windows[widx].injected += 1;
            let kind = TraceEventKind::Inject {
                dst: pkt.route.dest(),
                planned_hops: pkt.route.hops() as u64,
            };
            self.trace(
                ekey(SUB_LAUNCH, u64::from(pkt.rank), 0),
                cycle,
                pkt.id,
                pkt.src,
                kind,
            );
            let slot = self
                .store
                .alloc(pkt.id, cycle, Trajectory::Route(pkt.route));
            self.enqueue(vu, slot);
        }
        Some(Some(plan))
    }

    /// Phase 3: draw the traffic stream in node order and give every
    /// attempt the next packet id, then plan and account the attempts whose
    /// source this shard owns. Every shard draws against identical truth
    /// and view replicas, so the stream, the ids and the attempt count
    /// (returned) are the same everywhere; a suppressed draw is counted by
    /// its source's owner alone.
    fn inject(&mut self, sim: &Simulator, cycle: u64) -> u64 {
        let measuring = cycle >= self.warmup;
        let mut attempts = 0u64;
        let mut planned = 0u64;
        let mut from = 0;
        while let Some(v) =
            self.traffic
                .next_source(self.truth.dead_node_words(), from, self.n_nodes)
        {
            from = v + 1;
            if let Some(cap) = self.capacity {
                // Backpressure: the source buffer is full. Finite buffers
                // run on one shard, which owns every source.
                if self.queues.len(v as usize) >= cap {
                    if measuring {
                        self.metrics.blocked_injections += 1;
                    }
                    continue;
                }
            }
            let own = self.class_owner[v as usize & self.cmask] == self.me;
            let src = NodeId(v);
            let Some(dst) = self.traffic.pick_dest(&sim.gc, &self.view, src) else {
                // The offered load just shrank by one packet: count it
                // instead of silently skewing throughput comparisons
                // (permutation partner faulty or self, or no healthy
                // destination at all).
                if own {
                    self.metrics.suppressed_injections_total += 1;
                    if measuring {
                        self.metrics.suppressed_injections += 1;
                    }
                }
                continue;
            };
            // Ids are assigned per injection *attempt*: a failed route
            // consumes its id too, so ids are a pure function of the
            // traffic stream, whichever shard plans the route.
            let id = self.next_id;
            self.next_id += 1;
            attempts += 1;
            if own {
                planned += 1;
                let route = sim.algorithm.plan_route(&sim.gc, &self.view, src, dst);
                self.account_injection(cycle, src, dst, id, route.ok());
            }
        }
        if self.profiling_on {
            let (lo, hi) = self.class_range;
            self.profile.steal_units += (hi - lo) as u64;
            self.profile.planned_reqs += planned;
        }
        attempts
    }

    /// Phase 3, owner side: account one planned injection attempt
    /// (`None`: no route).
    fn account_injection(
        &mut self,
        cycle: u64,
        src: NodeId,
        dst: NodeId,
        id: u64,
        plan: Option<PlannedRoute>,
    ) {
        let measuring = cycle >= self.warmup;
        let widx = self.widx;
        let Some(planned) = plan else {
            self.metrics.route_failures_total += 1;
            if measuring {
                self.metrics.route_failures += 1;
            }
            return;
        };
        let key = |seq| ekey(SUB_INJECT, src.0, seq);
        let planned_hops = planned.path.hops() as u64;
        self.metrics.injected_total += 1;
        if self.telemetry_on {
            self.delta.injected += 1;
        }
        if measuring {
            self.metrics.injected += 1;
        }
        self.windows[widx].injected += 1;
        let kind = TraceEventKind::Inject { dst, planned_hops };
        self.trace(key(0), cycle, id, src, kind);
        if let Some(tc) = planned.tree {
            self.account_tree_choice(cycle, key(1), id, src, tc);
        }
        if planned_hops == 0 {
            // src == dst cannot happen (pick_dest), but a zero-hop route
            // would sink immediately, without ever touching the arena.
            self.metrics.delivered_total += 1;
            if self.telemetry_on {
                self.delta.delivered += 1;
            }
            if measuring {
                self.metrics.delivered += 1;
                self.metrics.latency_hist.record(0);
                self.metrics.hops_hist.record(0);
            }
            self.windows[widx].delivered += 1;
            let kind = TraceEventKind::Deliver {
                latency: 0,
                hops: 0,
            };
            self.trace(key(2), cycle, id, src, kind);
        } else {
            let slot = self.store.alloc(id, cycle, planned.path);
            self.enqueue(src.0 as usize, slot);
        }
    }

    /// Account one planned route's tree choice (multitree strategies
    /// only): whole-run per-tree counters, the switch/exhaustion ledgers,
    /// the window series, the telemetry delta, and — for a switch or an
    /// exhaustion — a `tree_switch` event under `key`.
    fn account_tree_choice(&mut self, cycle: u64, key: u64, id: u64, node: NodeId, tc: TreeChoice) {
        if tc.exhausted {
            self.metrics.tree_exhausted += 1;
        } else {
            self.metrics.tree_routes[tc.tree as usize % MAX_TREES] += 1;
        }
        self.metrics.tree_switches += u64::from(tc.switches);
        let widx = self.widx;
        self.windows[widx].tree_switches += u64::from(tc.switches);
        if self.telemetry_on {
            self.delta.tree_switches += u64::from(tc.switches);
            self.delta.tree_exhausted += u64::from(tc.exhausted);
        }
        if tc.switches > 0 || tc.exhausted {
            let kind = TraceEventKind::TreeSwitch {
                tree: tc.tree,
                switches: tc.switches,
                exhausted: tc.exhausted,
            };
            self.trace(key, cycle, id, node, kind);
        }
    }

    /// Account one dropped packet in the aggregate and window counters,
    /// and narrate it into the trace.
    ///
    /// A packet that ever re-routed counts towards `rerouted_packets`
    /// here — at its final resolution — so packets rerouted more than
    /// once, rerouted while queued behind another packet, or dropped
    /// after rerouting are all counted exactly once. The per-cause
    /// counters (`dropped_stranded`, `dropped_unrecoverable`,
    /// `ttl_expired`) partition `dropped` exactly.
    fn count_drop(&mut self, pkt: &Packet, cause: DropCause, cycle: u64, node: NodeId, key: u64) {
        let widx = self.widx;
        self.windows[widx].dropped += 1;
        self.metrics.dropped_total += 1;
        if self.telemetry_on {
            self.delta.dropped += 1;
        }
        if is_collective(pkt.id) {
            // Collective packets keep the whole-run and window ledgers
            // but stay out of the measured unicast drop taxonomy.
            self.metrics.collective_dropped += 1;
            self.op_tracker.dropped(pkt.id);
        } else if cycle >= self.warmup && pkt.injected_at >= self.warmup {
            self.metrics.dropped += 1;
            match cause {
                DropCause::TtlExpired => self.metrics.ttl_expired += 1,
                DropCause::Stranded => self.metrics.dropped_stranded += 1,
                DropCause::Unrecoverable => self.metrics.dropped_unrecoverable += 1,
            }
            if pkt.reroutes > 0 {
                self.metrics.rerouted_packets += 1;
            }
        }
        self.trace(key, cycle, pkt.id, node, TraceEventKind::Drop { cause });
    }

    /// Account the delivery of `slot` at cycle `at` and recycle it: the
    /// sink at the destination after a replan (`at` = this cycle) and
    /// the arrival of a forwarded packet (`at` = next cycle, one cycle of
    /// latency for the hop itself).
    #[inline]
    fn deliver(&mut self, slot: u32, cycle: u64, at: u64, key: u64) {
        let su = slot as usize;
        let id = self.store.id[su];
        let injected_at = self.store.injected_at[su];
        let hops = u64::from(self.store.hops_taken[su]);
        let widx = self.widx;
        self.metrics.delivered_total += 1;
        if self.telemetry_on {
            self.delta.delivered += 1;
        }
        self.windows[widx].delivered += 1;
        if is_collective(id) {
            self.metrics.collective_delivered += 1;
            self.windows[widx].collective_delivered += 1;
            if self.telemetry_on {
                self.delta.collective_delivered += 1;
            }
            self.op_tracker.deliver(id, cycle);
        } else if cycle >= self.warmup && injected_at >= self.warmup {
            self.metrics.delivered += 1;
            self.metrics.total_latency += at - injected_at;
            self.metrics.latency_hist.record(at - injected_at);
            self.metrics.hops_hist.record(hops);
            self.metrics.rerouted_hops += self.store.detour_hops(slot);
            if self.store.reroutes[su] > 0 {
                self.metrics.rerouted_packets += 1;
            }
        }
        if self.tracing_on {
            let node = self.store.current(slot);
            let kind = TraceEventKind::Deliver {
                latency: at - injected_at,
                hops,
            };
            self.trace(key, cycle, id, node, kind);
        }
        self.store.discard(slot);
    }

    /// Phase 4: the forwarding scan over this shard's nodes, in the
    /// global rotated service order (the occupancy bitset holds only
    /// owned nodes). Each node may forward its queue head: one packet per
    /// directed link per cycle holds by construction, since a link's
    /// sending endpoint serves at most one packet per cycle. Forwarded
    /// slots collect in `moves`; blocked heads are resolved on the spot
    /// when `inline_recovery` (one shard), or snapshotted into
    /// `candidates` for Round C with the queue untouched.
    fn scan(&mut self, sim: &Simulator, cycle: u64, inline_recovery: bool) {
        let mask = self.n_nodes as usize - 1;
        let offset = self.offset(cycle);
        // The snapshot is exact: the scan pops only at the node being
        // visited and defers every push until the exchange.
        let mut buf = mem::take(&mut self.scan_buf);
        self.queues.collect_occupied_rotated(offset, &mut buf);
        for &vq in &buf {
            let v = vq as usize;
            // Global service index of node v under this cycle's rotation.
            let svc = (v.wrapping_sub(offset) & mask) as u32;
            let Some(head) = self.queues.front(v) else {
                continue;
            };
            let from = self.store.current(head);
            let Some(to) = self.store.next_hop(head) else {
                // A recovery replan can find the packet already at its
                // destination (the original route passed through it on
                // the way elsewhere): sink it instead of forwarding.
                let slot = self.pop_head(v);
                self.deliver(slot, cycle, cycle, ekey(SUB_SCAN, u64::from(svc), 0));
                continue;
            };
            let dim = (from.0 ^ to.0).trailing_zeros();
            if self.dynamic && !self.truth.is_link_usable(LinkId::new(from, dim)) {
                // The planned hop is dead: the holder observes the
                // failure. Either way this packet spends the cycle here.
                let pkt = self.store.snapshot(head);
                if inline_recovery {
                    let (_, verdict) = self.resolve(sim, cycle, svc, &pkt);
                    self.apply_verdict(v, verdict);
                } else {
                    self.candidates.push((svc, pkt));
                }
                continue;
            }
            // The TTL applies to static runs too: a packet out of hop
            // budget dies here whether or not faults are in play.
            if u64::from(self.store.hops_taken[head as usize]) >= self.ttl {
                let slot = self.pop_head(v);
                let pkt = self.store.remove(slot);
                let key = ekey(SUB_SCAN, u64::from(svc), 0);
                self.count_drop(&pkt, DropCause::TtlExpired, cycle, from, key);
                continue;
            }
            if let Some(cap) = self.capacity {
                // A packet sinking at its destination always fits (eager
                // readership at the consumer); otherwise the target
                // buffer must have room. Arrivals granted this cycle count
                // against the room; departures free their slot next cycle
                // — conservative store-and-forward.
                let t = to.0 as usize;
                if !self.store.sinks_at(head, to) {
                    if self.queues.len(t) + self.arriving[t] as usize >= cap {
                        continue; // backpressure: wait for room
                    }
                    if self.arriving[t] == 0 {
                        self.arrival_nodes.push(t);
                    }
                    self.arriving[t] += 1;
                }
            }
            // Unconditional whole-run hop ledger: the telemetry
            // per-dimension counters must reconcile with it exactly.
            self.metrics.forwarded_hops_total += 1;
            if self.telemetry_on {
                self.delta.dim_hops[dim as usize] += 1;
            }
            if self.profiling_on {
                self.cycle_hops += 1;
            }
            let slot = self.pop_head(v);
            self.store.advance(slot, to);
            if self.tracing_on {
                let key = ekey(SUB_MOVE, u64::from(svc), 0);
                let id = self.store.id[slot as usize];
                self.trace(key, cycle, id, to, TraceEventKind::Hop { from });
            }
            self.moves.push((svc, slot));
        }
        self.scan_buf = buf;
        for &t in &self.arrival_nodes {
            self.arriving[t] = 0;
        }
        self.arrival_nodes.clear();
    }

    /// Phase 5, sender side: account the packets that arrived at their
    /// destination (the scan already narrated every hop). The rest stay
    /// arena slots: the one-shard schedule pushes them at once, in scan
    /// order; with peers, the moves staying in this shard are kept for the
    /// arrival merge and the others are materialised per receiving shard.
    fn drain_moves(&mut self, cycle: u64) {
        let measuring = cycle >= self.warmup;
        let solo = self.out_moves.len() == 1;
        let mut moves = mem::take(&mut self.moves);
        let mut kept = 0;
        for i in 0..moves.len() {
            let (svc, slot) = moves[i];
            if measuring && self.store.injected_at[slot as usize] >= self.warmup {
                self.metrics.total_hops += 1;
            }
            let cur = self.store.current(slot);
            if self.store.arrived(slot) {
                self.deliver(slot, cycle, cycle + 1, ekey(SUB_MOVE, u64::from(svc), 1));
                continue;
            }
            if solo {
                // No other shard can deliver into these queues: push now,
                // in scan order.
                self.enqueue(cur.0 as usize, slot);
                continue;
            }
            let dest = self.class_owner[cur.0 as usize & self.cmask];
            if dest == self.me {
                moves[kept] = (svc, slot);
                kept += 1;
            } else {
                // Materialising moves the path (a few words), not a clone.
                let pkt = self.store.remove(slot);
                self.out_moves[dest].push((svc, pkt));
            }
        }
        moves.truncate(kept);
        self.moves = moves;
    }

    /// Phase 5, receiver side: append this cycle's arrivals to the FIFO
    /// queues in `(service index, packet id)` order — the service order
    /// of the senders. The shard's own moves are already in service
    /// order; other shards' arrivals are sorted and merged in. The packet
    /// id tiebreak is defensive: service indices are unique network-wide
    /// by construction, but an unstable sort must never be handed a
    /// collision it could order differently across runs.
    fn push_arrivals(&mut self) {
        let mut remote = mem::take(&mut self.arrivals);
        remote.sort_unstable_by_key(|&(svc, ref pkt)| (svc, pkt.id));
        let mut remote_iter = remote.drain(..).peekable();
        let mut moves = mem::take(&mut self.moves);
        for &(svc, slot) in &moves {
            while let Some((_, pkt)) = remote_iter.next_if(|&(r, _)| r < svc) {
                self.insert_arrival(pkt);
            }
            let cur = self.store.current(slot).0 as usize;
            self.enqueue(cur, slot);
        }
        for (_, pkt) in remote_iter {
            self.insert_arrival(pkt);
        }
        moves.clear();
        self.moves = moves;
        self.arrivals = remote;
    }

    /// Queue `pkt` at the back of its current node's queue.
    pub(crate) fn insert_arrival(&mut self, pkt: Packet) {
        let cur = pkt.current().0 as usize;
        let slot = self.store.insert(pkt);
        self.enqueue(cur, slot);
    }

    /// Phase 6: resolve one blocked head against this replica's view (the
    /// coordinator's). The blocked node learns exactly which component
    /// failed and that knowledge enters the view at once — neighbours of
    /// a fault notice the silence first — then the packet is replanned
    /// from where it sits, burning one unit of its re-route budget, or
    /// dropped. Everything is accounted here; the caller applies the
    /// returned view mutation to other replicas and the verdict to the
    /// owner's queue.
    fn resolve(
        &mut self,
        sim: &Simulator,
        cycle: u64,
        svc: u32,
        pkt: &Packet,
    ) -> (ViewOp, Verdict) {
        let key = |seq| ekey(SUB_SCAN, u64::from(svc), seq);
        let from = pkt.current();
        let to = pkt
            .next_hop(self.store.rule())
            .expect("blocked heads have a next hop");
        let op = if self.truth.is_node_faulty(to) {
            ViewOp::Node(to)
        } else {
            ViewOp::Link(LinkId::new(from, (from.0 ^ to.0).trailing_zeros()))
        };
        self.apply_view_ops(&[op]);
        if self.telemetry_on {
            self.delta.stale_views += 1;
        }
        // The packet was planned against knowledge that missed this fault.
        self.trace(
            key(0),
            cycle,
            pkt.id,
            from,
            TraceEventKind::StaleView { blocked: to },
        );
        let cause = if pkt.hops_taken >= self.ttl {
            DropCause::TtlExpired
        } else if pkt.reroutes >= self.reroute_budget {
            DropCause::Unrecoverable
        } else {
            match sim
                .algorithm
                .plan_route(&sim.gc, &self.view, from, pkt.dest())
            {
                Ok(planned) => {
                    if self.telemetry_on {
                        self.delta.reroutes += 1;
                    }
                    let budget_left = self.reroute_budget - (pkt.reroutes + 1);
                    self.trace(
                        key(1),
                        cycle,
                        pkt.id,
                        from,
                        TraceEventKind::Reroute { budget_left },
                    );
                    if let Some(tc) = planned.tree {
                        self.account_tree_choice(cycle, key(2), pkt.id, from, tc);
                    }
                    return (op, Verdict::Replan(planned.path));
                }
                Err(_) => DropCause::Unrecoverable,
            }
        };
        self.count_drop(pkt, cause, cycle, from, key(1));
        (op, Verdict::Drop)
    }

    /// Apply view mutations, keeping this replica's generation history
    /// identical to every other shard's.
    fn apply_view_ops(&mut self, ops: &[ViewOp]) {
        for op in ops {
            match *op {
                ViewOp::Node(n) => self.view.add_node(n),
                ViewOp::Link(l) => self.view.add_link(l),
            }
        }
    }

    /// Apply a recovery verdict to node `v`'s head (already accounted).
    fn apply_verdict(&mut self, v: usize, verdict: Verdict) {
        match verdict {
            Verdict::Replan(path) => {
                let head = self.queues.front(v).expect("blocked queue is non-empty");
                self.store.replan(head, path);
            }
            Verdict::Drop => {
                let slot = self.pop_head(v);
                self.store.discard(slot);
            }
        }
    }
}

/// Multi-shard rounds, shared by the coordinator and the workers.
impl Shard {
    /// A barrier wait, timed when the profiler is attached: the
    /// accumulated wait is the shard's coordination overhead
    /// (report-only — wall clock).
    fn barrier_wait(&mut self, ex: &Exchange) {
        if self.profiling_on {
            let t = Instant::now();
            ex.barrier.wait();
            self.profile.barrier_nanos += t.elapsed().as_nanos() as u64;
        } else {
            ex.barrier.wait();
        }
    }

    /// Round B, before its barrier: publish this cycle's cross-shard
    /// moves, blocked heads, trace events, in-flight contribution
    /// (queued packets, own moves still to push, and outgoing moves) and
    /// forwarded-hop count.
    fn publish(&mut self, ex: &Exchange, parity: usize) {
        let me = self.me;
        let outgoing: u64 = self.out_moves.iter().map(|m| m.len() as u64).sum();
        if self.profiling_on {
            self.profile.moves_self += self.moves.len() as u64;
            self.profile.moves_out += outgoing;
            self.profile.events_out += self.events.len() as u64;
            ex.hops[parity][me].store(mem::take(&mut self.cycle_hops), Ordering::Relaxed);
        }
        let contrib = self.queued() + self.moves.len() as u64 + outgoing;
        ex.contrib[parity][me].store(contrib, Ordering::Relaxed);
        // Swap non-empty buffers into the grid, taking the cells' drained
        // (empty, capacity-bearing) vectors back: the steady state
        // allocates nothing.
        for (r, buf) in self.out_moves.iter_mut().enumerate() {
            if !buf.is_empty() {
                let mut cell = lock(&ex.moves[parity][me * ex.shards + r]);
                debug_assert!(cell.is_empty(), "receiver must have drained last use");
                mem::swap(&mut *cell, buf);
            }
        }
        if !self.candidates.is_empty() {
            lock(&ex.candidates[me]).append(&mut self.candidates);
        }
        if !self.events.is_empty() {
            lock(&ex.events[parity][me]).append(&mut self.events);
        }
    }

    /// Round B, after its barrier: drain every sender's mailbox for this
    /// shard and push the cycle's arrivals.
    fn receive(&mut self, ex: &Exchange, parity: usize) {
        for s in 0..ex.shards {
            if s != self.me {
                let mut cell = lock(&ex.moves[parity][s * ex.shards + self.me]);
                self.arrivals.append(&mut cell);
            }
        }
        self.push_arrivals();
    }

    /// Apply the coordinator's rulings on this shard's blocked heads,
    /// published by service index.
    fn apply_verdicts(&mut self, ex: &Exchange, cycle: u64) {
        let mask = self.n_nodes as usize - 1;
        let offset = self.offset(cycle);
        let verdicts = mem::take(&mut *lock(&ex.verdicts[self.me]));
        for (svc, verdict) in verdicts {
            self.apply_verdict((svc as usize + offset) & mask, verdict);
        }
    }

    /// Round D, before its first barrier: copy the counter delta and the
    /// owned class-range snapshot into this shard's pre-sized cell.
    fn publish_telemetry(&mut self, ex: &Exchange) {
        let (lo, hi) = self.class_range;
        let mut cell = lock(&ex.telemetry[self.me]);
        cell.delta.copy_from(&self.delta);
        cell.class_queued[lo..hi].copy_from_slice(&self.class_queued[lo..hi]);
        cell.class_occupied[lo..hi].copy_from_slice(&self.class_occupied[lo..hi]);
        self.delta.reset();
    }

    /// One cycle of a worker shard: the kernel's phases over its own
    /// nodes, in lockstep with [`Coordinator::step`] and with no access
    /// to the sinks. Returns whether the run ended with this cycle, by
    /// the coordinator's own test on the same exchanged counts.
    fn worker_step(&mut self, sim: &Simulator, ex: &Exchange, cycle: u64) -> bool {
        let inject_cycles = sim.config.inject_cycles;
        let parity = (cycle & 1) as usize;
        if self.profiling_on {
            self.profile.cycles = cycle + 1;
        }
        self.begin_cycle(sim, cycle);
        // The repair ledger and op counters are the coordinator's; a
        // worker only injects its own share of the wave.
        let _ = self.launch_collective(sim, cycle);
        if cycle < inject_cycles {
            self.inject(sim, cycle);
        }
        self.scan(sim, cycle, false);
        self.drain_moves(cycle);
        self.publish(ex, parity);
        self.barrier_wait(ex); // Round B: all mailboxes published.
        let total_contrib = Exchange::total(&ex.contrib[parity]);
        self.receive(ex, parity);
        let mut verdict_drops = 0;
        if self.dynamic && !self.truth.is_empty() {
            self.barrier_wait(ex); // Round C: verdicts published.
            verdict_drops = ex.verdict_drops.load(Ordering::Relaxed);
            self.apply_view_ops(&lock(&ex.view_ops));
            self.apply_verdicts(ex, cycle);
        }
        if self.telemetry_on || self.profiling_on {
            self.publish_telemetry(ex);
            self.barrier_wait(ex); // Round D: all cells published.
            self.barrier_wait(ex); // Round D: coordinator folded and sampled.
        }
        cycle >= inject_cycles && total_contrib - verdict_drops == 0
    }
}

/// Record one phase's wall-clock time into both timing consumers.
fn lap<T: TelemetrySink, P: ProfilerSink>(
    started: Option<Instant>,
    phase: Phase,
    telem: &mut T,
    prof: &mut P,
) {
    if let Some(t) = started {
        let nanos = t.elapsed().as_nanos() as u64;
        telem.phase_time(phase, nanos);
        prof.phase_time(phase, nanos);
    }
}

/// Shard 0 plus everything network-global: the health monitor, the
/// collective repair ledger, and the run's clock. It also owns the other
/// shards between calls, so it is the whole paused run that steppers,
/// checkpoints and the daemon hold.
pub(crate) struct Coordinator {
    pub(crate) shard: Shard,
    /// Shards `1..T` and their mailbox grid (`None` for one shard), lent
    /// to worker threads for the length of one [`Coordinator::step_many`].
    workers: Vec<Shard>,
    ex: Option<Exchange>,
    pub(crate) monitor: FaultBudgetMonitor,
    pub(crate) repair_ledger: RepairLedger,
    /// The next cycle to execute.
    pub(crate) cycle: u64,
    pub(crate) ended_at: u64,
    pub(crate) done: bool,
    /// Packets in flight network-wide after the last executed cycle.
    pub(crate) in_flight: u64,
    shards: usize,
    /// Every shard's class range.
    ranges: Vec<(usize, usize)>,
    /// Global end-of-cycle class snapshots, assembled in Round D.
    global_cq: Vec<u64>,
    global_co: Vec<u64>,
}

impl Coordinator {
    /// Initialise a run on `shards` shards, including the initial
    /// fault-budget classification (trace event and counter) for runs
    /// that start faulty. Checkpoint restore must *not* call this with a
    /// live sink — the cycle-0 health event would be re-emitted.
    pub(crate) fn new<S: TraceSink, T: TelemetrySink>(
        sim: &Simulator,
        shards: usize,
        sink: &mut S,
        telem: &mut T,
    ) -> Coordinator {
        let cfg = &sim.config;
        let collective_cache = cfg.collective.map(|_| Arc::new(PlanCache::new(&sim.gc)));
        let mut shard = Shard::new(sim, 0, shards, collective_cache.clone());
        shard.metrics.nodes = sim.gc.num_nodes();
        let classes = shard.cmask + 1;
        let ex = (shards > 1).then(|| Exchange::new(shards, classes, sim.gc.n() as usize));
        let workers = (1..shards)
            .map(|me| Shard::new(sim, me, shards, collective_cache.clone()))
            .collect();
        // The Theorem-3 fault-budget monitor runs whether or not
        // telemetry is attached: health transitions are trace events and
        // metric counters, so replay verification covers them.
        let mut monitor = FaultBudgetMonitor::for_strategy(sim.algorithm.survives_bound_exceeded());
        if let Some((from, to)) = monitor.update(&sim.gc, &shard.truth) {
            shard.metrics.health_transitions += 1;
            telem.health_transition(0, from, to);
            if sink.enabled() {
                sink.record(&TraceEvent {
                    cycle: 0,
                    packet: NETWORK_EVENT_PACKET,
                    node: NodeId(0),
                    kind: TraceEventKind::Health {
                        state: to,
                        faults: shard.truth.len() as u64,
                    },
                });
            }
        }
        Coordinator {
            shard,
            workers,
            ex,
            monitor,
            repair_ledger: RepairLedger::new(classes),
            cycle: 0,
            ended_at: cfg.inject_cycles + cfg.drain_cycles,
            done: false,
            in_flight: 0,
            shards,
            ranges: class_ranges(classes, shards),
            global_cq: vec![0; classes],
            global_co: vec![0; classes],
        }
    }

    /// Whether the run has executed its last cycle.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Every shard, coordinator first, in shard order.
    pub(crate) fn shards(&self) -> impl Iterator<Item = &Shard> {
        std::iter::once(&self.shard).chain(&self.workers)
    }

    /// Every shard, mutably, coordinator first.
    pub(crate) fn shards_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        std::iter::once(&mut self.shard).chain(&mut self.workers)
    }

    /// The index of the shard owning node `v`.
    pub(crate) fn owner_of(&self, v: NodeId) -> usize {
        self.shard.class_owner[v.0 as usize & self.shard.cmask]
    }

    /// The run's additive records summed over every shard: metrics,
    /// windows and collective-op outcomes. [`Coordinator::finish`]
    /// reports them and a checkpoint records them, so neither depends on
    /// how the run was sharded.
    pub(crate) fn reduce(&self) -> (Metrics, Vec<WindowStat>, Vec<OpStat>) {
        let mut metrics = self.shard.metrics;
        let mut windows = self.shard.windows.clone();
        let mut ops = self.shard.op_tracker.ops().to_vec();
        for w in self.shards().skip(1) {
            metrics.absorb(&w.metrics);
            merge_windows(&mut windows, &w.windows);
            merge_ops(&mut ops, w.op_tracker.ops());
        }
        (metrics, windows, ops)
    }

    /// Execute up to `cycles` cycles, stopping early when the run
    /// completes; returns whether it has. The one-shard schedule steps
    /// inline. With more shards, one `std::thread::scope` lends each
    /// worker its shard for the whole call, so a run driven to the end in
    /// one call starts one thread per worker.
    pub(crate) fn step_many<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        cycles: u64,
        sink: &mut S,
        telem: &mut T,
        prof: &mut P,
    ) -> bool {
        let total_cycles = sim.config.inject_cycles + sim.config.drain_cycles;
        self.done |= self.cycle >= total_cycles;
        if self.done || cycles == 0 {
            return self.done;
        }
        let Some(ex) = self.ex.take() else {
            assert_eq!(self.shards, 1, "a sharded run does not survive a panic");
            // `any` stops at the cycle that ends the run.
            return (0..cycles).any(|_| self.step(sim, None, sink, telem, prof));
        };
        let mut workers = mem::take(&mut self.workers);
        let (start, count) = (self.cycle, cycles.min(total_cycles - self.cycle));
        let (tracing, telemetry, profiling) = (sink.enabled(), telem.enabled(), prof.enabled());
        std::thread::scope(|scope| {
            for w in &mut workers {
                w.observe(tracing, telemetry, profiling);
                let ex = &ex;
                scope.spawn(move || {
                    let _poison = PoisonOnUnwind(&ex.barrier);
                    let started = Instant::now();
                    (start..start + count).any(|cycle| w.worker_step(sim, ex, cycle));
                    w.profile.run_nanos += started.elapsed().as_nanos() as u64;
                });
            }
            let _poison = PoisonOnUnwind(&ex.barrier);
            let started = Instant::now();
            (0..count).any(|_| self.step(sim, Some(&ex), sink, telem, prof));
            self.shard.profile.run_nanos += started.elapsed().as_nanos() as u64;
        });
        (self.ex, self.workers) = (Some(ex), workers);
        self.done
    }

    /// Execute one cycle: inline under the one-shard schedule (`ex` is
    /// `None`), or lockstepped with the workers through `ex`. Returns
    /// `true` once the run is complete (all cycles executed, or injection
    /// over and the network drained); calling again after that is a
    /// no-op returning `true`.
    fn step<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        ex: Option<&Exchange>,
        sink: &mut S,
        telem: &mut T,
        prof: &mut P,
    ) -> bool {
        debug_assert_eq!(ex.is_some(), self.shards > 1);
        let cfg = &sim.config;
        let total_cycles = cfg.inject_cycles + cfg.drain_cycles;
        if self.done || self.cycle >= total_cycles {
            self.done = true;
            return true;
        }
        let cycle = self.cycle;
        let parity = (cycle & 1) as usize;
        let (telemetry_on, profiling_on) = (telem.enabled(), prof.enabled());
        // Phase timers are wall-clock and report-only; they run when
        // either a telemetry sink or a profiler is attached.
        let timing = telemetry_on || profiling_on;
        self.shard
            .observe(sink.enabled(), telemetry_on, profiling_on);
        if profiling_on {
            self.shard.profile.cycles = cycle + 1;
        }

        // Phase 1: the replicated fault step, then the network-global
        // accounting every replica leaves to the coordinator.
        let started = timing.then(Instant::now);
        let start = self.shard.begin_cycle(sim, cycle);
        if start.applied > 0 {
            self.shard.metrics.fault_events += start.applied as u64;
            telem.fault_events(start.applied as u64);
            // Re-classify against the Theorem 3 budget only when the
            // fault set actually changed.
            if let Some((from, to)) = self.monitor.update(&sim.gc, &self.shard.truth) {
                self.shard.metrics.health_transitions += 1;
                telem.health_transition(cycle, from, to);
                let kind = TraceEventKind::Health {
                    state: to,
                    faults: self.shard.truth.len() as u64,
                };
                let key = ekey(SUB_HEALTH, 0, 0);
                self.shard
                    .trace(key, cycle, NETWORK_EVENT_PACKET, NodeId(0), kind);
            }
        }
        if start.reconverged {
            self.shard.metrics.reconvergences += 1;
            telem.reconvergence();
        } else if start.stale {
            self.shard.metrics.stale_cycles += 1;
            telem.stale_cycle();
        }
        lap(started, Phase::Reconvergence, telem, prof);

        // Phases 2–3: collective launch, then injection. Sources route on
        // the *view*: right after a fault event they may plan through a
        // dead component and only find out en route.
        let started = timing.then(Instant::now);
        if let Some(outcome) = self.shard.launch_collective(sim, cycle) {
            match outcome {
                // The repair ledger accounts every tree transition once,
                // however many shards re-derived the plan.
                Some(plan) => {
                    if let Some(rep) = self.repair_ledger.note(&plan) {
                        let m = &mut self.shard.metrics;
                        if rep.rebuilt {
                            m.tree_rebuilds += 1;
                        } else {
                            m.tree_regrafts += 1;
                        }
                        m.tree_lost_nodes += rep.lost_nodes;
                        telem.tree_repair(rep.rebuilt);
                        let kind = TraceEventKind::TreeRepair {
                            regrafted: rep.regrafted_subtrees,
                            reattached: rep.reattached_nodes,
                            lost: rep.lost_nodes,
                            rebuilt: rep.rebuilt,
                        };
                        let key = ekey(SUB_LAUNCH, 0, 0);
                        self.shard
                            .trace(key, cycle, NETWORK_EVENT_PACKET, plan.root, kind);
                    }
                    self.shard.metrics.collective_ops += 1;
                }
                None => self.shard.metrics.collective_skipped += 1,
            }
        }
        let cycle_injected = if cycle < cfg.inject_cycles {
            self.shard.inject(sim, cycle)
        } else {
            0
        };
        lap(started, Phase::Planning, telem, prof);

        // Phases 4–6: forwarding scan, move exchange, recovery.
        let started = timing.then(Instant::now);
        self.shard.scan(sim, cycle, ex.is_none());
        self.shard.drain_moves(cycle);
        let cycle_moved = match ex {
            None => {
                self.in_flight = self.shard.queued();
                mem::take(&mut self.shard.cycle_hops)
            }
            Some(ex) => self.exchange(sim, ex, cycle),
        };
        // Emit the cycle's events in merge-key order.
        if sink.enabled() {
            if let Some(ex) = ex {
                for cell in &ex.events[parity] {
                    self.shard.events.append(&mut lock(cell));
                }
            }
            self.shard.events.sort_unstable_by_key(|&(key, _)| key);
            for (_, ev) in self.shard.events.drain(..) {
                sink.record(&ev);
            }
        }
        lap(started, Phase::Forwarding, telem, prof);

        // Phase 7: observer sampling, guarded so the observer-off run
        // pays nothing. Under the multi-shard schedule this is Round D:
        // between its two barriers the cells belong to the coordinator
        // and all planning is quiescent, so cache counters are race-free
        // and cycle-exact.
        if timing {
            let sample_started = Instant::now();
            if telemetry_on {
                telem.absorb_shard(&self.shard.delta);
            }
            self.shard.delta.reset();
            if let Some(ex) = ex {
                self.fold_round_d(ex, telem);
            }
            // One cache fetch serves both consumers.
            let want_telem_cache = telemetry_on && telem.wants_sample(cycle);
            let want_prof_cache = profiling_on && prof.wants_cache(cycle);
            let cache = if want_telem_cache || want_prof_cache {
                sim.algorithm.cache_stats()
            } else {
                None
            };
            let (class_queued, class_occupied) = self.class_snapshot();
            if telemetry_on {
                telem.end_cycle(CycleView {
                    cycle,
                    class_queued,
                    class_occupied,
                    in_flight: self.in_flight,
                    health: self.monitor.state(),
                    live_faults: self.shard.truth.len() as u64,
                    cache: cache.filter(|_| want_telem_cache),
                });
            }
            if profiling_on {
                prof.cycle_sample(&ProfSample {
                    cycle,
                    injected: cycle_injected,
                    moved: cycle_moved,
                    in_flight: self.in_flight,
                    class_queued,
                    class_occupied,
                    cache: cache.filter(|_| want_prof_cache),
                });
            }
            if let Some(ex) = ex {
                self.shard.barrier_wait(ex); // Round D: folded and sampled.
            }
            lap(Some(sample_started), Phase::Telemetry, telem, prof);
        }

        self.cycle += 1;
        if cycle >= cfg.inject_cycles && self.in_flight == 0 {
            self.ended_at = cycle + 1;
            self.done = true;
        } else if self.cycle >= total_cycles {
            self.done = true;
        }
        self.done
    }

    /// The network-wide end-of-cycle class snapshot: the coordinator's
    /// own arrays when it owns every class, else the Round D assembly.
    fn class_snapshot(&self) -> (&[u64], &[u64]) {
        if self.shards == 1 {
            (&self.shard.class_queued, &self.shard.class_occupied)
        } else {
            (&self.global_cq, &self.global_co)
        }
    }

    /// Rounds B and C: exchange moves, then resolve every blocked head in
    /// service order against the coordinator's view — the one-shard
    /// interleaving of discovery, replan, and drop accounting — and
    /// publish the rulings. Returns the profiler's `moved` count; leaves
    /// the global in-flight count in `self.in_flight`.
    fn exchange(&mut self, sim: &Simulator, ex: &Exchange, cycle: u64) -> u64 {
        let parity = (cycle & 1) as usize;
        let shard = &mut self.shard;
        shard.publish(ex, parity);
        shard.barrier_wait(ex); // Round B: all mailboxes published.
        let total_contrib = Exchange::total(&ex.contrib[parity]);
        let moved = if shard.profiling_on {
            Exchange::total(&ex.hops[parity])
        } else {
            0
        };
        shard.receive(ex, parity);
        let mut verdict_drops = 0u64;
        if shard.dynamic && !shard.truth.is_empty() {
            // Workers are parked at the Round C barrier, so the verdict
            // and view-op cells are the coordinator's alone until it
            // arrives there too.
            let mut candidates = Vec::new();
            for cell in &ex.candidates {
                candidates.append(&mut lock(cell));
            }
            candidates.sort_unstable_by_key(|&(svc, ref pkt)| (svc, pkt.id));
            let mut view_ops = lock(&ex.view_ops);
            view_ops.clear();
            for (svc, pkt) in candidates {
                let (op, verdict) = shard.resolve(sim, cycle, svc, &pkt);
                view_ops.push(op);
                verdict_drops += u64::from(matches!(verdict, Verdict::Drop));
                let owner = shard.class_owner[pkt.current().0 as usize & shard.cmask];
                lock(&ex.verdicts[owner]).push((svc, verdict));
            }
            drop(view_ops);
            ex.verdict_drops.store(verdict_drops, Ordering::Relaxed);
            shard.barrier_wait(ex); // Round C: verdicts published.

            // The coordinator's view already holds the mutations.
            shard.apply_verdicts(ex, cycle);
        }
        self.in_flight = total_contrib - verdict_drops;
        moved
    }

    /// Round D, coordinator side: publish its own class slice, wait for
    /// every worker's cell, then fold the deltas and class slices.
    fn fold_round_d<T: TelemetrySink>(&mut self, ex: &Exchange, telem: &mut T) {
        let (lo, hi) = self.shard.class_range;
        self.global_cq[lo..hi].copy_from_slice(&self.shard.class_queued[lo..hi]);
        self.global_co[lo..hi].copy_from_slice(&self.shard.class_occupied[lo..hi]);
        self.shard.barrier_wait(ex); // Round D: all cells published.
        for (cell, &(lo, hi)) in ex.telemetry.iter().zip(&self.ranges).skip(1) {
            let cell = lock(cell);
            if self.shard.telemetry_on {
                telem.absorb_shard(&cell.delta);
            }
            self.global_cq[lo..hi].copy_from_slice(&cell.class_queued[lo..hi]);
            self.global_co[lo..hi].copy_from_slice(&cell.class_occupied[lo..hi]);
        }
    }

    /// Close out the run and build its report: call once, after
    /// [`Coordinator::step_many`] returned `true`. The report's counters
    /// are [`Coordinator::reduce`]'s sums over every shard.
    pub(crate) fn finish<T: TelemetrySink, P: ProfilerSink>(
        &mut self,
        sim: &Simulator,
        telem: &mut T,
        prof: &mut P,
    ) -> ChurnReport {
        if telem.enabled() {
            let (class_queued, class_occupied) = self.class_snapshot();
            telem.finish(CycleView {
                cycle: self.ended_at,
                class_queued,
                class_occupied,
                in_flight: self.in_flight,
                health: self.monitor.state(),
                live_faults: self.shard.truth.len() as u64,
                cache: sim.algorithm.cache_stats(),
            });
        }
        let (mut metrics, mut windows, collectives) = self.reduce();
        if prof.enabled() {
            if self.shards > 1 {
                for (s, shard) in self.shards().enumerate() {
                    prof.shard_profile(s, &shard.profile);
                }
            }
            prof.finish_run(self.ended_at, self.shards);
        }
        metrics.cycles = self.ended_at - self.shard.warmup;
        metrics.in_flight_at_end = self.in_flight;
        windows.truncate((self.ended_at as usize).div_ceil(self.shard.window as usize));
        if let Some(last) = windows.last_mut() {
            last.end = last.end.min(self.ended_at);
        }
        ChurnReport {
            metrics,
            windows,
            trace: self.shard.injector.trace().to_vec(),
            budget: fault_budget(&sim.gc, &self.shard.truth),
            tree_health: sim.algorithm.tree_health(&sim.gc, &self.shard.truth),
            collectives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KnowledgeModel, SimConfig};
    use crate::injection::{CategoryMix, FaultKind, FaultSchedule};
    use crate::strategy::{CachedFtgcr, FaultFreeGcr, FaultTolerantGcr};
    use crate::telemetry::TelemetryCollector;
    use crate::trace::MemorySink;

    #[test]
    fn class_ranges_cover_contiguously() {
        for (nc, t) in [(4usize, 2usize), (4, 3), (16, 7), (8, 8), (2, 2)] {
            let ranges = class_ranges(nc, t);
            assert_eq!(ranges.len(), t);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[t - 1].1, nc);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                assert!(w[0].1 > w[0].0, "every shard owns at least one class");
            }
        }
    }

    /// A shard that panics never reaches the barrier again; the poison
    /// guard must turn every other shard's wait into a panic, so the
    /// run's panic surfaces instead of hanging the scope.
    #[test]
    fn panicking_shard_does_not_hang_the_run() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        use std::time::Duration;

        use gcube_routing::{FaultSet, Route, RoutingError};
        use gcube_topology::GaussianCube;

        use crate::strategy::RoutingAlgorithm;

        /// FFGCR whose 50th planning call panics.
        struct PanicsOnce(AtomicUsize);
        impl RoutingAlgorithm for PanicsOnce {
            fn name(&self) -> &'static str {
                "panics-once"
            }
            fn compute_route(
                &self,
                gc: &GaussianCube,
                faults: &FaultSet,
                s: NodeId,
                d: NodeId,
            ) -> Result<Route, RoutingError> {
                if self.0.fetch_add(1, Ordering::Relaxed) == 50 {
                    panic!("planner failure");
                }
                FaultFreeGcr.compute_route(gc, faults, s, d)
            }
        }

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let algo = PanicsOnce(AtomicUsize::new(0));
                let cfg = SimConfig::new(6, 4).with_cycles(200, 200, 0).with_rate(0.1);
                Simulator::new(cfg, &algo).session().threads(2).run()
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking shard must not hang the run");
        assert!(panicked, "the planner's panic must surface");
    }

    #[test]
    fn spin_barrier_synchronises_rounds() {
        use std::sync::atomic::AtomicU64;
        let barrier = SpinBarrier::new(4);
        let counter = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..100u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between barriers every thread sees all 4
                        // increments of the finished round.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * 4);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    /// The arrival merge orders by the full `(service index, packet id)`
    /// key: artificial collisions on the service index — impossible in a
    /// real run, but exactly what an unstable sort would scramble — must
    /// come out in packet-id order.
    #[test]
    fn arrival_merge_breaks_service_ties_by_packet_id() {
        use gcube_routing::Route;
        let cfg = SimConfig::new(6, 2).with_cycles(10, 10, 0).with_rate(0.0);
        let sim = Simulator::new(cfg, &FaultFreeGcr);
        let mut shard = Shard::new(&sim, 0, 1, None);
        let dest = 4u64; // even node, class 0
        let mk = |id: u64| {
            let route = Route::new(vec![NodeId(6), NodeId(dest)]);
            let mut p = Packet::new(id, 0, Trajectory::Route(route));
            // Sitting at the destination of its hop.
            p.advance(&WalkRule::default(), NodeId(dest));
            p
        };
        // Same service index from "different shards", ids out of order,
        // plus a later service index that must stay last.
        shard.arrivals.push((7, mk(30)));
        shard.arrivals.push((7, mk(10)));
        shard.arrivals.push((7, mk(20)));
        shard.arrivals.push((9, mk(5)));
        shard.push_arrivals();
        let mut ids = Vec::new();
        while let Some(head) = shard.queues.front(dest as usize) {
            ids.push(shard.store.id[head as usize]);
            let slot = shard.queues.pop_front(&mut shard.store, dest as usize);
            shard.store.discard(slot);
        }
        assert_eq!(ids, vec![10, 20, 30, 5], "ties break by packet id");
    }

    fn churn_config() -> SimConfig {
        churn_config_on(6, 2)
    }

    /// The churn scenario on `GC(n, m)`.
    fn churn_config_on(n: u32, m: u64) -> SimConfig {
        SimConfig::new(n, m)
            .with_cycles(300, 3_000, 40)
            .with_rate(0.08)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_reroute_budget(2)
            .with_schedule(FaultSchedule::Bernoulli {
                rate: 0.02,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix::default(),
                node_fraction: 0.7,
            })
    }

    #[test]
    fn sharded_matches_sequential_static() {
        let sim = Simulator::new(
            SimConfig::new(6, 2)
                .with_cycles(200, 2_000, 20)
                .with_rate(0.05),
            &FaultFreeGcr,
        );
        let seq = sim.session().run();
        for threads in [2, 4] {
            let par = sim.session().threads(threads).run();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn sharded_matches_sequential_under_churn_with_observers() {
        let sim = Simulator::new(churn_config(), &FaultTolerantGcr);
        let mut seq_sink = MemorySink::new();
        let mut seq_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
        let seq = sim
            .session()
            .trace(&mut seq_sink)
            .telemetry(&mut seq_tel)
            .run();
        assert!(seq.metrics.fault_events > 0, "churn must fire");
        for threads in [2, 3, 4] {
            let mut par_sink = MemorySink::new();
            let mut par_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
            let par = sim
                .session()
                .threads(threads)
                .trace(&mut par_sink)
                .telemetry(&mut par_tel)
                .run();
            assert_eq!(seq, par, "report mismatch at threads={threads}");
            assert_eq!(
                seq_sink.events(),
                par_sink.events(),
                "trace mismatch at threads={threads}"
            );
            assert_eq!(
                seq_tel.to_csv(),
                par_tel.to_csv(),
                "telemetry mismatch at threads={threads}"
            );
        }
    }

    #[test]
    fn sharded_matches_sequential_with_collectives() {
        use crate::config::CollectiveOp;
        for op in [
            CollectiveOp::Broadcast,
            CollectiveOp::Multicast,
            CollectiveOp::Gather,
        ] {
            let cfg = churn_config()
                .with_collective(op)
                .with_collective_interval(40);
            let sim = Simulator::new(cfg, &FaultTolerantGcr);
            let mut seq_sink = MemorySink::new();
            let mut seq_tel = TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
            let seq = sim
                .session()
                .trace(&mut seq_sink)
                .telemetry(&mut seq_tel)
                .run();
            assert!(seq.metrics.collective_ops > 0, "{op:?}: ops must launch");
            assert!(
                seq.metrics.collective_injected > 0,
                "{op:?}: wave must inject"
            );
            assert_eq!(
                seq.collectives.len() as u64,
                seq.metrics.collective_ops,
                "{op:?}: one record per op"
            );
            for threads in [2, 4] {
                let mut par_sink = MemorySink::new();
                let mut par_tel =
                    TelemetryCollector::new(sim.cube(), sim.config().telemetry_interval);
                let par = sim
                    .session()
                    .threads(threads)
                    .trace(&mut par_sink)
                    .telemetry(&mut par_tel)
                    .run();
                assert_eq!(seq, par, "{op:?}: report mismatch at threads={threads}");
                assert_eq!(
                    seq_sink.events(),
                    par_sink.events(),
                    "{op:?}: trace mismatch at threads={threads}"
                );
                assert_eq!(
                    seq_tel.to_csv(),
                    par_tel.to_csv(),
                    "{op:?}: telemetry mismatch at threads={threads}"
                );
            }
        }
    }

    /// The plan-cache counters are part of the shard contract: each shard
    /// plans only its own classes' injections and the key includes the
    /// source class, so hits, misses and entries equal the one-shard run's.
    /// `GC(7, 4)` has four ending classes, so 3 and 4 threads run 3 and 4
    /// shards.
    #[test]
    fn sharded_matches_sequential_with_plan_cache() {
        for (n, m) in [(6, 2), (7, 4)] {
            let run = |threads| {
                let cached = CachedFtgcr::new();
                let sim = Simulator::new(churn_config_on(n, m).with_faults(2), &cached);
                let report = sim.session().threads(threads).run();
                (report, cached.stats())
            };
            let (seq, seq_stats) = run(1);
            assert!(
                seq_stats.is_some_and(|s| s.hits > 0 && s.misses > 0),
                "GC({n},{m}): the cache must be exercised: {seq_stats:?}"
            );
            for threads in [2, 3, 4] {
                let (par, par_stats) = run(threads);
                assert_eq!(seq, par, "GC({n},{m}): report at threads={threads}");
                assert_eq!(
                    seq_stats, par_stats,
                    "GC({n},{m}): cache counters at threads={threads}"
                );
            }
        }
    }

    /// Every shard replays the whole draw, suppressed destinations
    /// included, and only the source's owner counts a suppressed draw:
    /// bit-complement partners die and revive under node churn, on 3
    /// shards owning 2, 1 and 1 ending classes.
    #[test]
    fn sharded_matches_sequential_with_suppressed_draws() {
        use crate::traffic::TrafficPattern;
        let cfg = churn_config_on(7, 4)
            .with_pattern(TrafficPattern::BitComplement)
            .with_schedule(FaultSchedule::Bernoulli {
                rate: 0.02,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix::default(),
                node_fraction: 1.0,
            });
        let sim = Simulator::new(cfg, &FaultTolerantGcr);
        assert_eq!(crate::session::effective_shards(sim.cube(), 3), 3);
        let mut seq_sink = MemorySink::new();
        let seq = sim.session().trace(&mut seq_sink).run();
        assert!(
            seq.metrics.suppressed_injections_total > 0,
            "faulty complements must suppress draws"
        );
        let mut par_sink = MemorySink::new();
        let par = sim.session().threads(3).trace(&mut par_sink).run();
        assert_eq!(seq, par, "report mismatch at threads=3");
        assert_eq!(
            seq_sink.events(),
            par_sink.events(),
            "trace mismatch at threads=3"
        );
    }
}
