//! Deterministic mid-run engine checkpoints: serialize a paused run so a
//! later process can resume it **bitwise** — same remaining trace events,
//! same final metrics, same artifacts — on any number of shards.
//!
//! A checkpoint file is line-oriented: an [`ArtifactMeta`] header
//! (`kind = checkpoint`, carrying the cube shape, seed, and strategy wire
//! name), then one JSON object per state section, then an `end` marker so
//! truncated files are detected. Everything that steers the run is
//! captured explicitly: both RNG streams (traffic and fault injector) as
//! raw xoshiro words, the ground-truth and routing-view fault sets
//! (sorted — their in-memory form hashes nondeterministically), the
//! scheduled-but-unapplied fault operations, the metrics, windows and
//! collective-op records summed over every shard, and every queued
//! packet, node by node and front to back.
//!
//! Arena slot numbers are not state. The kernel uses a slot only as a
//! handle: the scan serves nodes in rotated node order and pops each
//! node's FIFO head, arrivals merge by service index and packet id, and
//! every count and trace event is keyed by packet id and node. A
//! multi-shard run gives each packet a new slot whenever it crosses into
//! another shard and still equals the one-shard run bitwise. So capture
//! numbers slots densely in queue order with an empty freelist — still
//! the format-1 text — and restore puts each packet at the back of its
//! node's queue in whichever shard owns the node. Files written with
//! sparse slots and a freelist restore the same way. The text at a given
//! cycle is byte-identical at every thread count (the header's `threads`
//! is always 1), and it restores at any thread count.
//!
//! What is *not* captured is anything derivable: the cube, the link
//! table, unicast plan caches, and per-cycle scratch are rebuilt from
//! the config — the cached and uncached strategy variants plan identical
//! routes, so a fresh walk cache is bitwise-safe. The collective
//! broadcast-tree cache is the exception: a regraft patches the
//! *previous* tree, so the cached shape (and the repair outcome the next
//! fault event reports) is history, not derivation — its entries are
//! captured and re-seeded on restore.
//!
//! The `trace_mark` field records how many trace events the run had
//! emitted at capture. Restoring into the session that wrote those events
//! truncates its sink back to the mark (rewind); restoring elsewhere
//! yields exactly the suffix `uninterrupted[mark..]`.

use std::collections::BTreeMap;

use gcube_routing::{
    BroadcastTree, FaultSet, HealthState, RepairOutcome, Route, Trajectory, TreeSnapshot,
};
use gcube_topology::{GaussianCube, LinkId, NodeId, Topology};

use crate::artifact::{ArtifactKind, ArtifactMeta, ARTIFACT_FORMAT};
use crate::collective::{OpTracker, RepairLedger};
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::injection::{FaultAction, FaultEvent, FaultKind, FaultTarget, PendingOp};
use crate::metrics::{Histogram, Metrics, OpStat, WindowStat, HIST_BUCKETS, MAX_TREES};
use crate::packet::Packet;
use crate::proto::{self, Fields, JsonValue, Line, View};
use crate::shard::Coordinator;
use crate::soa::NIL;
use crate::telemetry::{FaultBudgetMonitor, NullTelemetry};
use crate::trace::NullSink;

/// Every scalar `u64` counter of [`Metrics`], in serialization order.
/// Adding a field to `Metrics` without adding it here is caught by the
/// exhaustive-struct round-trip test below.
macro_rules! with_metric_fields {
    ($cb:ident, $($extra:tt)*) => {
        $cb!(
            $($extra)*;
            injected, delivered, total_latency, total_hops, route_failures,
            blocked_injections, suppressed_injections, in_flight_at_end,
            cycles, nodes, dropped, ttl_expired, dropped_stranded,
            dropped_unrecoverable, rerouted_packets, rerouted_hops,
            fault_events, forwarded_hops_total, health_transitions,
            stale_cycles, reconvergences, injected_total, delivered_total,
            dropped_total, route_failures_total, suppressed_injections_total,
            tree_switches, tree_exhausted, collective_ops, collective_skipped,
            collective_injected, collective_delivered, collective_dropped,
            tree_regrafts, tree_rebuilds, tree_lost_nodes
        )
    };
}

/// A captured packet's route: capture writes every path as its node
/// sequence and parsing reads one, so a checkpoint holds no walk.
fn route_of(p: &Packet) -> &Route {
    match &p.path {
        Trajectory::Route(r) => r,
        Trajectory::Walk(_) => unreachable!("checkpoints hold explicit routes"),
    }
}

// --- small JSON helpers -------------------------------------------------

fn u64_arr(xs: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = xs.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn elem_u64(v: &JsonValue) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| "expected an integer".to_string())
}

fn u64s(items: &[JsonValue]) -> Result<Vec<u64>, String> {
    items.iter().map(elem_u64).collect()
}

fn rng_words(v: &impl Fields, key: &str) -> Result<[u64; 4], String> {
    u64s(v.req(key)?)?
        .try_into()
        .map_err(|_| format!("field {key:?} must hold exactly 4 RNG words"))
}

fn action_to_str(a: FaultAction) -> &'static str {
    match a {
        FaultAction::Fail => "fail",
        FaultAction::Repair => "repair",
    }
}

fn action_from_str(s: &str) -> Result<FaultAction, String> {
    match s {
        "fail" => Ok(FaultAction::Fail),
        "repair" => Ok(FaultAction::Repair),
        other => Err(format!("bad fault action {other:?}")),
    }
}

fn hist_to_json(h: &Histogram) -> String {
    format!(
        "{{\"buckets\":{},\"count\":{},\"max\":{}}}",
        u64_arr(h.buckets().iter().copied()),
        h.count(),
        h.max(),
    )
}

fn hist_from_json(v: &JsonValue) -> Result<Histogram, String> {
    let buckets: [u64; HIST_BUCKETS] = u64s(v.req("buckets")?)?
        .try_into()
        .map_err(|_| format!("histogram must hold exactly {HIST_BUCKETS} buckets"))?;
    Ok(Histogram::from_parts(
        buckets,
        v.req("count")?,
        v.req("max")?,
    ))
}

// --- fault-set / packet representations ---------------------------------

/// A fault set flattened to its ascending parts.
#[derive(Clone, Debug, PartialEq)]
struct FaultsRepr {
    nodes: Vec<u64>,
    links: Vec<(u64, u32)>,
    generation: u64,
}

impl FaultsRepr {
    fn capture(f: &FaultSet) -> FaultsRepr {
        FaultsRepr {
            nodes: f.faulty_nodes().map(|v| v.0).collect(),
            links: f.faulty_links().map(|l| (l.lo.0, l.dim)).collect(),
            generation: f.generation(),
        }
    }

    fn to_json(&self) -> String {
        let links: Vec<String> = self
            .links
            .iter()
            .map(|(lo, dim)| format!("[{lo},{dim}]"))
            .collect();
        format!(
            "{{\"nodes\":{},\"links\":[{}],\"generation\":{}}}",
            u64_arr(self.nodes.iter().copied()),
            links.join(","),
            self.generation,
        )
    }

    fn from_json(v: &JsonValue) -> Result<FaultsRepr, String> {
        let mut links = Vec::new();
        for l in v.req::<&[JsonValue]>("links")? {
            let pair = l.as_arr().ok_or("fault link must be [lo, dim]")?;
            let [lo, dim] = pair else {
                return Err("fault link must be [lo, dim]".into());
            };
            links.push((
                elem_u64(lo)?,
                u32::try_from(elem_u64(dim)?).map_err(|_| "link dim out of range")?,
            ));
        }
        Ok(FaultsRepr {
            nodes: u64s(v.req("nodes")?)?,
            links,
            generation: v.req("generation")?,
        })
    }

    fn rebuild(&self) -> FaultSet {
        FaultSet::from_parts(
            self.nodes.iter().map(|&v| NodeId(v)),
            self.links
                .iter()
                .map(|&(lo, dim)| LinkId::new(NodeId(lo), dim)),
            self.generation,
        )
    }
}

/// One cached collective broadcast tree, flattened for serialization.
/// The cached tree is *history*, not derivation: regrafting patches the
/// previous tree in place, so the current shape (and the repair outcome
/// the next fault event reports) depends on every generation the tree
/// lived through. `u64::MAX` in `parent` and `depth` marks uncovered
/// nodes.
#[derive(Clone, Debug, PartialEq)]
struct TreeRepr {
    class: u64,
    root: u64,
    generation: u64,
    regrafted: u64,
    reattached: u64,
    lost: u64,
    rebuilt: bool,
    parent: Vec<u64>,
    depth: Vec<u64>,
    order: Vec<u64>,
}

impl TreeRepr {
    fn capture(s: &TreeSnapshot) -> TreeRepr {
        TreeRepr {
            class: s.class,
            root: s.root.0,
            generation: s.generation,
            regrafted: s.repair.regrafted_subtrees,
            reattached: s.repair.reattached_nodes,
            lost: s.repair.lost_nodes,
            rebuilt: s.repair.rebuilt,
            parent: s
                .tree
                .parent
                .iter()
                .map(|p| p.map_or(u64::MAX, |v| v.0))
                .collect(),
            depth: s.tree.depth.iter().map(|&d| u64::from(d)).collect(),
            order: s.tree.order.iter().map(|v| v.0).collect(),
        }
    }

    fn rebuild(&self) -> Result<TreeSnapshot, String> {
        let depth = self
            .depth
            .iter()
            .map(|&d| u32::try_from(d))
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|_| "tree depth out of range".to_string())?;
        Ok(TreeSnapshot {
            class: self.class,
            root: NodeId(self.root),
            generation: self.generation,
            repair: RepairOutcome {
                regrafted_subtrees: self.regrafted,
                reattached_nodes: self.reattached,
                lost_nodes: self.lost,
                rebuilt: self.rebuilt,
            },
            tree: BroadcastTree {
                root: NodeId(self.root),
                parent: self
                    .parent
                    .iter()
                    .map(|&p| (p != u64::MAX).then_some(NodeId(p)))
                    .collect(),
                depth,
                order: self.order.iter().map(|&v| NodeId(v)).collect(),
            },
        })
    }
}

// --- the checkpoint -----------------------------------------------------

/// A serialized engine state, restorable bitwise. Build one with
/// [`Checkpoint::capture`] (or [`crate::session::Stepper::checkpoint`]),
/// persist with [`Checkpoint::to_text`] / [`Checkpoint::from_text`], and
/// resume via [`crate::session::SimSession::stepper_from`].
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    config: SimConfig,
    strategy: String,
    trees: usize,
    trace_mark: u64,
    cycle: u64,
    done: bool,
    ended_at: u64,
    next_id: u64,
    in_flight: u64,
    converge_at: Option<u64>,
    synced: (u64, u64),
    traffic_rng: [u64; 4],
    injector_rng: [u64; 4],
    monitor_state: HealthState,
    monitor_downgraded: bool,
    truth: FaultsRepr,
    view: FaultsRepr,
    pending: Vec<(u64, FaultAction, FaultTarget, FaultKind)>,
    fault_trace: Vec<FaultEvent>,
    metrics: Metrics,
    windows: Vec<WindowStat>,
    arena: usize,
    free: Vec<u32>,
    /// Every in-flight packet with its slot id.
    live: Vec<(u32, Packet)>,
    queues: Vec<(u64, Vec<u32>)>,
    ledger: Vec<Option<(NodeId, u64)>>,
    ops: Vec<OpStat>,
    tree_cache: Vec<TreeRepr>,
}

impl Checkpoint {
    /// Snapshot a paused engine. `trace_mark` is how many trace events the
    /// run's sink holds at this instant (0 for untraced runs). Fails for
    /// strategies without a wire identity (the e-cube baseline).
    pub(crate) fn capture(
        sim: &Simulator,
        core: &Coordinator,
        trace_mark: u64,
    ) -> Result<Checkpoint, String> {
        let shard = &core.shard;
        let (strategy, trees) = sim.algorithm().wire_spec().ok_or_else(|| {
            format!(
                "strategy {:?} has no wire identity and cannot be checkpointed",
                sim.algorithm().name()
            )
        })?;

        // Every queued packet, node by node and front to back, in dense
        // slots (see the module docs). A walk-form packet is written as
        // its node sequence, replayed from where it was planned, so the
        // text is the same whichever form the planner chose.
        let shards: Vec<_> = core.shards().collect();
        let mut live = Vec::with_capacity(core.in_flight as usize);
        let mut queues = Vec::new();
        for v in 0..sim.cube().num_nodes() {
            let owner = shards[core.owner_of(NodeId(v))];
            let Some(mut s) = owner.queues.front(v as usize) else {
                continue;
            };
            let first = live.len() as u32;
            loop {
                let pkt = owner.store.snapshot(s).into_explicit(owner.store.rule());
                live.push((live.len() as u32, pkt));
                match owner.store.next[s as usize] {
                    NIL => break,
                    nxt => s = nxt,
                }
            }
            queues.push((v, (first..live.len() as u32).collect()));
        }

        let mut pending = Vec::new();
        for (&cycle, ops) in shard.injector.pending() {
            for op in ops {
                pending.push((cycle, op.action, op.target, op.kind));
            }
        }

        let (metrics, windows, ops) = core.reduce();
        Ok(Checkpoint {
            config: sim.config().clone(),
            strategy: strategy.to_string(),
            trees,
            trace_mark,
            cycle: core.cycle,
            done: core.done,
            ended_at: core.ended_at,
            next_id: shard.next_id,
            in_flight: core.in_flight,
            converge_at: shard.converge_at,
            synced: shard.synced,
            traffic_rng: shard.traffic.rng_state(),
            injector_rng: shard.injector.rng_state(),
            monitor_state: core.monitor.state(),
            monitor_downgraded: core.monitor.downgraded(),
            truth: FaultsRepr::capture(&shard.truth),
            view: FaultsRepr::capture(&shard.view),
            pending,
            fault_trace: shard.injector.trace().to_vec(),
            metrics,
            windows,
            arena: live.len(),
            free: Vec::new(),
            live,
            queues,
            ledger: core.repair_ledger.last().to_vec(),
            ops,
            tree_cache: shard
                .collective
                .as_ref()
                .map(|cp| {
                    cp.cache()
                        .tree_snapshots()
                        .iter()
                        .map(TreeRepr::capture)
                        .collect()
                })
                .unwrap_or_default(),
        })
    }

    /// The run configuration the checkpoint was taken under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Strategy wire name ([`crate::strategy::build_strategy`] accepts it).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Spanning trees per bundle (0 for single-tree strategies).
    pub fn trees(&self) -> usize {
        self.trees
    }

    /// The next cycle the restored engine will execute.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Trace events emitted before capture (see module docs).
    pub fn trace_mark(&self) -> u64 {
        self.trace_mark
    }

    /// The provenance header a checkpoint file is stamped with.
    pub fn meta(&self) -> ArtifactMeta {
        ArtifactMeta {
            kind: ArtifactKind::Checkpoint,
            format: ARTIFACT_FORMAT,
            n: u64::from(self.config.n),
            modulus: self.config.modulus,
            seed: self.config.seed,
            threads: 1,
            strategy: self.strategy.clone(),
        }
    }

    // -- serialization ---------------------------------------------------

    /// Render the checkpoint as its line-oriented text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.meta().to_jsonl_line());
        out.push('\n');

        out.push_str(&format!(
            "{{\"section\":\"run\",\"strategy\":{},\"trees\":{},\"trace_mark\":{},\
             \"config\":{}}}\n",
            proto::quote(&self.strategy),
            self.trees,
            self.trace_mark,
            proto::config_to_json(&self.config),
        ));

        out.push_str(&format!(
            "{{\"section\":\"core\",\"cycle\":{},\"done\":{},\"ended_at\":{},\
             \"next_id\":{},\"in_flight\":{},\"converge_at\":{},\
             \"synced\":[{},{}],\"traffic_rng\":{},\"injector_rng\":{},\
             \"monitor_state\":{},\"monitor_downgraded\":{}}}\n",
            self.cycle,
            self.done,
            self.ended_at,
            self.next_id,
            self.in_flight,
            self.converge_at
                .map_or("null".to_string(), |c| c.to_string()),
            self.synced.0,
            self.synced.1,
            u64_arr(self.traffic_rng),
            u64_arr(self.injector_rng),
            proto::quote(self.monitor_state.as_str()),
            self.monitor_downgraded,
        ));

        out.push_str(&format!(
            "{{\"section\":\"faults\",\"truth\":{},\"view\":{}}}\n",
            self.truth.to_json(),
            self.view.to_json(),
        ));

        let pending: Vec<String> = self
            .pending
            .iter()
            .map(|(cycle, action, target, kind)| {
                format!(
                    "{{\"cycle\":{cycle},\"action\":{},\"target\":{},\"kind\":{}}}",
                    proto::quote(action_to_str(*action)),
                    proto::quote(&proto::target_to_str(*target)),
                    proto::quote(&proto::kind_to_str(*kind)),
                )
            })
            .collect();
        let applied: Vec<String> = self
            .fault_trace
            .iter()
            .map(|e| {
                format!(
                    "{{\"cycle\":{},\"action\":{},\"target\":{}}}",
                    e.cycle,
                    proto::quote(action_to_str(e.action)),
                    proto::quote(&proto::target_to_str(e.target)),
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"section\":\"injector\",\"pending\":[{}],\"applied\":[{}]}}\n",
            pending.join(","),
            applied.join(","),
        ));

        let mut parts: Vec<String> = Vec::new();
        macro_rules! put {
            ($m:expr; $($f:ident),*) => {
                $( parts.push(format!("\"{}\":{}", stringify!($f), $m.$f)); )*
            };
        }
        with_metric_fields!(put, &self.metrics);
        parts.push(format!(
            "\"tree_routes\":{}",
            u64_arr(self.metrics.tree_routes)
        ));
        parts.push(format!(
            "\"latency_hist\":{}",
            hist_to_json(&self.metrics.latency_hist)
        ));
        parts.push(format!(
            "\"hops_hist\":{}",
            hist_to_json(&self.metrics.hops_hist)
        ));
        out.push_str(&format!(
            "{{\"section\":\"metrics\",{}}}\n",
            parts.join(","),
        ));

        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                format!(
                    "[{},{},{},{},{},{},{}]",
                    w.start,
                    w.end,
                    w.injected,
                    w.delivered,
                    w.dropped,
                    w.tree_switches,
                    w.collective_delivered,
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"section\":\"windows\",\"items\":[{}]}}\n",
            windows.join(","),
        ));

        let live: Vec<String> = self
            .live
            .iter()
            .map(|(slot, p)| {
                format!(
                    "[{slot},{},{},{},{},{},{},{}]",
                    p.id,
                    p.injected_at,
                    p.hop_idx,
                    p.hops_taken,
                    p.planned_hops,
                    p.reroutes,
                    u64_arr(route_of(p).nodes().iter().map(|v| v.0)),
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"section\":\"packets\",\"arena\":{},\"free\":{},\"live\":[{}]}}\n",
            self.arena,
            u64_arr(self.free.iter().map(|&s| u64::from(s))),
            live.join(","),
        ));

        let queues: Vec<String> = self
            .queues
            .iter()
            .map(|(v, slots)| format!("[{v},{}]", u64_arr(slots.iter().map(|&s| u64::from(s)))))
            .collect();
        out.push_str(&format!(
            "{{\"section\":\"queues\",\"items\":[{}]}}\n",
            queues.join(","),
        ));

        let ledger: Vec<String> = self
            .ledger
            .iter()
            .map(|e| match e {
                None => "null".to_string(),
                Some((v, cycle)) => format!("[{},{cycle}]", v.0),
            })
            .collect();
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|o| {
                format!(
                    "[{},{},{},{},{},{},{}]",
                    o.op, o.root, o.started, o.expected, o.delivered, o.dropped, o.last_delivery,
                )
            })
            .collect();
        let trees: Vec<String> = self
            .tree_cache
            .iter()
            .map(|t| {
                format!(
                    "{{\"class\":{},\"root\":{},\"generation\":{},\"regrafted\":{},\
                     \"reattached\":{},\"lost\":{},\"rebuilt\":{},\"parent\":{},\
                     \"depth\":{},\"order\":{}}}",
                    t.class,
                    t.root,
                    t.generation,
                    t.regrafted,
                    t.reattached,
                    t.lost,
                    t.rebuilt,
                    u64_arr(t.parent.iter().copied()),
                    u64_arr(t.depth.iter().copied()),
                    u64_arr(t.order.iter().copied()),
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"section\":\"collective\",\"ledger\":[{}],\"ops\":[{}],\"trees\":[{}]}}\n",
            ledger.join(","),
            ops.join(","),
            trees.join(","),
        ));

        out.push_str("{\"section\":\"end\"}\n");
        out
    }

    /// Parse a checkpoint file produced by [`Checkpoint::to_text`].
    pub fn from_text(text: &str) -> Result<Checkpoint, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty checkpoint file")?;
        let meta = ArtifactMeta::parse(header)
            .ok_or("checkpoint file has no meta header")?
            .map_err(|e| format!("bad checkpoint header: {e}"))?;
        if meta.kind != ArtifactKind::Checkpoint {
            return Err(format!(
                "artifact is a {} stream, not a checkpoint",
                meta.kind
            ));
        }

        let mut sections = Vec::new();
        let mut ended = false;
        for line in lines {
            if ended {
                return Err("data after the end marker".into());
            }
            let v = Line::parse(line)?;
            match v.req::<&str>("section")? {
                "end" => ended = true,
                "run" | "core" | "faults" | "injector" | "metrics" | "windows" | "packets"
                | "queues" | "collective" => sections.push(v),
                other => return Err(format!("unknown checkpoint section {other:?}")),
            }
        }
        if !ended {
            return Err("checkpoint file is truncated (no end marker)".into());
        }
        let section = |name: &str| {
            sections
                .iter()
                .find(|s| s.req::<&str>("section") == Ok(name))
                .ok_or_else(|| format!("checkpoint missing section {name:?}"))
        };
        let run = section("run")?;
        let core = section("core")?;
        let faults = section("faults")?;
        let injector = section("injector")?;
        let metrics_v = section("metrics")?;
        let windows = section("windows")?;
        let packets = section("packets")?;
        let queues = section("queues")?;
        let collective = section("collective")?;

        let config = proto::config_from_json(run.req("config")?)?;
        let strategy = run.req::<&str>("strategy")?.to_string();
        if (
            u64::from(config.n),
            config.modulus,
            config.seed,
            strategy.as_str(),
        ) != (meta.n, meta.modulus, meta.seed, meta.strategy.as_str())
        {
            return Err("checkpoint header disagrees with its run section".into());
        }

        let synced = match core.req::<&[JsonValue]>("synced")? {
            [a, b] => (elem_u64(a)?, elem_u64(b)?),
            _ => return Err("field \"synced\" must be [truth_gen, view_gen]".into()),
        };
        let converge_at = match core.lookup("converge_at") {
            Some(View::Null) => None,
            _ => Some(core.req("converge_at")?),
        };
        let monitor_state =
            HealthState::from_str(core.req("monitor_state")?).ok_or("bad monitor_state")?;

        let mut pending = Vec::new();
        for p in injector.req::<&[JsonValue]>("pending")? {
            pending.push((
                p.req("cycle")?,
                action_from_str(p.req("action")?)?,
                proto::target_from_str(p.req("target")?)?,
                proto::kind_from_str(p.req("kind")?)?,
            ));
        }
        let mut fault_trace = Vec::new();
        for e in injector.req::<&[JsonValue]>("applied")? {
            fault_trace.push(FaultEvent {
                cycle: e.req("cycle")?,
                action: action_from_str(e.req("action")?)?,
                target: proto::target_from_str(e.req("target")?)?,
            });
        }

        let mut m = Metrics::default();
        macro_rules! get {
            ($v:expr; $($f:ident),*) => {
                $( m.$f = $v.req(stringify!($f))?; )*
            };
        }
        with_metric_fields!(get, &metrics_v);
        m.tree_routes = u64s(metrics_v.req("tree_routes")?)?
            .try_into()
            .map_err(|_| format!("tree_routes must hold exactly {MAX_TREES} counters"))?;
        m.latency_hist = hist_from_json(metrics_v.req("latency_hist")?)?;
        m.hops_hist = hist_from_json(metrics_v.req("hops_hist")?)?;

        let mut window_stats = Vec::new();
        for w in windows.req::<&[JsonValue]>("items")? {
            let cols = u64s(w.as_arr().ok_or("window entry must be an array")?)?;
            let [start, end, injected, delivered, dropped, tree_switches, collective_delivered] =
                cols[..]
            else {
                return Err("window entry must hold 7 counters".into());
            };
            window_stats.push(WindowStat {
                start,
                end,
                injected,
                delivered,
                dropped,
                tree_switches,
                collective_delivered,
            });
        }

        let arena = packets.req::<u64>("arena")? as usize;
        let to_u32 = |x: u64| u32::try_from(x).map_err(|_| "slot out of u32 range".to_string());
        let free = u64s(packets.req("free")?)?
            .into_iter()
            .map(to_u32)
            .collect::<Result<Vec<u32>, String>>()?;
        let mut live = Vec::new();
        for p in packets.req::<&[JsonValue]>("live")? {
            let cols = p.as_arr().ok_or("live packet must be an array")?;
            let [slot, id, injected_at, hop_idx, hops_taken, planned_hops, reroutes, route] = cols
            else {
                return Err("live packet must hold 8 columns".into());
            };
            let route = u64s(route.as_arr().ok_or("route must be an array")?)?;
            if route.is_empty() {
                return Err("a route holds at least its source".into());
            }
            let col = |v: &JsonValue| Ok::<_, String>(u64::from(to_u32(elem_u64(v)?)?));
            let hop_idx = col(hop_idx)? as usize;
            // `validate` refuses a hop index past the route's end.
            let cur = NodeId(route[hop_idx.min(route.len() - 1)]);
            let packet = Packet {
                id: elem_u64(id)?,
                injected_at: elem_u64(injected_at)?,
                hop_idx,
                path: Trajectory::Route(Route::new(route.into_iter().map(NodeId).collect())),
                cur,
                edges: 0,
                hops_taken: col(hops_taken)?,
                planned_hops: col(planned_hops)?,
                reroutes: to_u32(elem_u64(reroutes)?)?,
            };
            live.push((to_u32(elem_u64(slot)?)?, packet));
        }

        let mut queue_items = Vec::new();
        for q in queues.req::<&[JsonValue]>("items")? {
            let pair = q.as_arr().ok_or("queue entry must be [node, [slots]]")?;
            let [node, slots] = pair else {
                return Err("queue entry must be [node, [slots]]".into());
            };
            queue_items.push((
                elem_u64(node)?,
                u64s(slots.as_arr().ok_or("queue slots must be an array")?)?
                    .into_iter()
                    .map(to_u32)
                    .collect::<Result<Vec<u32>, String>>()?,
            ));
        }

        let mut ledger = Vec::new();
        for e in collective.req::<&[JsonValue]>("ledger")? {
            ledger.push(match e {
                JsonValue::Null => None,
                other => {
                    let pair = other.as_arr().ok_or("ledger entry must be [node, cycle]")?;
                    let [node, cycle] = pair else {
                        return Err("ledger entry must be [node, cycle]".into());
                    };
                    Some((NodeId(elem_u64(node)?), elem_u64(cycle)?))
                }
            });
        }
        let mut ops = Vec::new();
        for o in collective.req::<&[JsonValue]>("ops")? {
            let cols = u64s(o.as_arr().ok_or("op entry must be an array")?)?;
            let [op, root, started, expected, delivered, dropped, last_delivery] = cols[..] else {
                return Err("op entry must hold 7 counters".into());
            };
            ops.push(OpStat {
                op,
                root,
                started,
                expected,
                delivered,
                dropped,
                last_delivery,
            });
        }
        let mut tree_cache = Vec::new();
        for t in collective.req::<&[JsonValue]>("trees")? {
            tree_cache.push(TreeRepr {
                class: t.req("class")?,
                root: t.req("root")?,
                generation: t.req("generation")?,
                regrafted: t.req("regrafted")?,
                reattached: t.req("reattached")?,
                lost: t.req("lost")?,
                rebuilt: t.req("rebuilt")?,
                parent: u64s(t.req("parent")?)?,
                depth: u64s(t.req("depth")?)?,
                order: u64s(t.req("order")?)?,
            });
        }

        Ok(Checkpoint {
            config,
            strategy,
            trees: run.req::<u64>("trees")? as usize,
            trace_mark: run.req("trace_mark")?,
            cycle: core.req("cycle")?,
            done: core.req("done")?,
            ended_at: core.req("ended_at")?,
            next_id: core.req("next_id")?,
            in_flight: core.req("in_flight")?,
            converge_at,
            synced,
            traffic_rng: rng_words(core, "traffic_rng")?,
            injector_rng: rng_words(core, "injector_rng")?,
            monitor_state,
            monitor_downgraded: core.req("monitor_downgraded")?,
            truth: FaultsRepr::from_json(faults.req("truth")?)?,
            view: FaultsRepr::from_json(faults.req("view")?)?,
            pending,
            fault_trace,
            metrics: m,
            windows: window_stats,
            arena,
            free,
            live,
            queues: queue_items,
            ledger,
            ops,
            tree_cache,
        })
    }

    // -- restore ---------------------------------------------------------

    /// Check every value [`Checkpoint::rebuild`] sizes or indexes with
    /// before it allocates: the arena holds exactly the live and free
    /// slots listed, each slot once; every queued slot is live, queued
    /// once, and sits at the node it is queued at; node ids lie inside the
    /// cube and fault links are links of it; each packet's hop index lies
    /// inside its route, and each hop of the route is a link of the cube;
    /// and the repair ledger has one entry per ending class. Returns each
    /// slot's index into `live` (`FREE` for a free slot).
    fn validate(&self, gc: &GaussianCube) -> Result<Vec<usize>, String> {
        const UNLISTED: usize = usize::MAX;
        const FREE: usize = usize::MAX - 1;
        let n_nodes = gc.num_nodes();
        if self.arena != self.live.len() + self.free.len() {
            return Err(format!(
                "arena of {} slots, but {} live and {} free slots listed",
                self.arena,
                self.live.len(),
                self.free.len()
            ));
        }
        let outside = |slot: u32| format!("slot {slot} outside the arena of {}", self.arena);
        let mut index = vec![UNLISTED; self.arena];
        let mut list = |slot: u32, entry: usize| match index.get_mut(slot as usize) {
            Some(e) if *e == UNLISTED => {
                *e = entry;
                Ok(())
            }
            Some(_) => Err(format!("slot {slot} listed twice")),
            None => Err(outside(slot)),
        };
        for &slot in &self.free {
            list(slot, FREE)?;
        }
        let node = |v: u64| {
            if v < n_nodes {
                Ok(())
            } else {
                Err(format!("node {v} outside the cube"))
            }
        };
        for (i, &(slot, ref p)) in self.live.iter().enumerate() {
            list(slot, i)?;
            let route = route_of(p).nodes();
            if p.hop_idx >= route.len() {
                return Err(format!(
                    "packet in slot {slot} is at hop {} of a {}-node route",
                    p.hop_idx,
                    route.len()
                ));
            }
            route.iter().try_for_each(|v| node(v.0))?;
            for hop in route.windows(2) {
                let flipped = hop[0].0 ^ hop[1].0;
                let dim = flipped.trailing_zeros();
                if flipped.count_ones() != 1 || !gc.has_link(hop[0], dim) {
                    return Err(format!(
                        "packet in slot {slot} hops {} -> {}, not a link of the cube",
                        hop[0].0, hop[1].0
                    ));
                }
            }
        }
        let mut queued = vec![false; self.live.len()];
        for &(v, ref slots) in &self.queues {
            node(v)?;
            for &slot in slots {
                let i = match index.get(slot as usize) {
                    Some(&i) if i < self.live.len() && !queued[i] => i,
                    Some(_) => {
                        return Err(format!(
                            "queued slot {slot} is not a live packet, or is queued twice"
                        ))
                    }
                    None => return Err(outside(slot)),
                };
                queued[i] = true;
                let at = self.live[i].1.current().0;
                if at != v {
                    return Err(format!(
                        "packet in slot {slot} is queued at node {v} but sits at node {at}"
                    ));
                }
            }
        }
        let target = |t: FaultTarget| t.check(gc).map_err(|e| e.to_string());
        for f in [&self.truth, &self.view] {
            f.nodes.iter().try_for_each(|&v| node(v))?;
            f.links
                .iter()
                .try_for_each(|&(lo, dim)| target(FaultTarget::link(NodeId(lo), dim)))?;
        }
        for (_, _, t, _) in &self.pending {
            target(*t)?;
        }
        let classes = 1usize << gc.alpha();
        if self.ledger.len() != classes {
            return Err(format!(
                "repair ledger holds {} classes, the cube has {classes}",
                self.ledger.len()
            ));
        }
        Ok(index)
    }

    /// Rebuild a running engine on `shards` shards from this checkpoint.
    /// `sim` must have been constructed from [`Checkpoint::config`] and a
    /// strategy matching [`Checkpoint::strategy`] / [`Checkpoint::trees`]
    /// — derived state (cube, plan caches) is rebuilt from it.
    pub(crate) fn rebuild(&self, sim: &Simulator, shards: usize) -> Result<Coordinator, String> {
        if sim.config() != &self.config {
            return Err("simulator config differs from the checkpoint's".into());
        }
        match sim.algorithm().wire_spec() {
            Some((name, trees)) if name == self.strategy && trees == self.trees => {}
            other => {
                return Err(format!(
                    "simulator strategy {other:?} differs from the checkpoint's ({:?}, {})",
                    self.strategy, self.trees
                ));
            }
        }
        let index = self.validate(sim.cube())?;

        // Null sinks on purpose: the cycle-0 health event was already
        // emitted by the original run (it sits before the trace mark).
        let mut core = Coordinator::new(sim, shards, &mut NullSink, &mut NullTelemetry);
        core.cycle = self.cycle;
        core.done = self.done;
        core.ended_at = self.ended_at;
        core.in_flight = self.in_flight;
        core.monitor = FaultBudgetMonitor::from_parts(
            self.monitor_state,
            sim.algorithm().survives_bound_exceeded(),
            self.monitor_downgraded,
        );
        core.repair_ledger = RepairLedger::from_last(self.ledger.clone());

        let mut pending: BTreeMap<u64, Vec<PendingOp>> = BTreeMap::new();
        for &(cycle, action, target, kind) in &self.pending {
            pending.entry(cycle).or_default().push(PendingOp {
                action,
                target,
                kind,
            });
        }
        let (truth, view) = (self.truth.rebuild(), self.view.rebuild());
        for (s, shard) in core.shards_mut().enumerate() {
            // Every shard holds a replica of the fault state and of the
            // traffic stream.
            shard.next_id = self.next_id;
            shard.traffic.restore_rng(self.traffic_rng);
            shard.converge_at = self.converge_at;
            shard.synced = self.synced;
            shard
                .injector
                .restore(self.injector_rng, pending.clone(), self.fault_trace.clone());
            shard.truth = truth.clone();
            shard.view = view.clone();
            // The counts restore into the coordinator. Workers get the
            // same windows and collective ops with nothing counted yet,
            // so the positional reduction lines up.
            if s == 0 {
                shard.metrics = self.metrics;
                shard.windows = self.windows.clone();
                shard.op_tracker = OpTracker::from_ops(self.ops.clone());
            } else {
                let windows = self.windows.iter().map(|w| WindowStat {
                    start: w.start,
                    end: w.end,
                    ..WindowStat::default()
                });
                shard.windows = windows.collect();
                let ops = self.ops.iter().map(|o| OpStat {
                    delivered: 0,
                    dropped: 0,
                    last_delivery: 0,
                    ..*o
                });
                shard.op_tracker = OpTracker::from_ops(ops.collect());
            }
        }

        for &(v, ref slots) in &self.queues {
            let owner = core.owner_of(NodeId(v));
            let shard = core
                .shards_mut()
                .nth(owner)
                .expect("every class has an owner");
            for &slot in slots {
                shard.insert_arrival(self.live[index[slot as usize]].1.clone());
            }
        }

        // Re-seed the collective tree cache, which every shard shares: a
        // regraft diffs against the cached previous tree, so both the
        // next repair outcome and the patched tree's shape depend on this
        // history.
        if let Some(cp) = &core.shard.collective {
            for t in &self.tree_cache {
                cp.cache().restore_tree(t.rebuild()?);
            }
        } else if !self.tree_cache.is_empty() {
            return Err("checkpoint holds collective trees but the run has no collective".into());
        }
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CollectiveOp;
    use crate::injection::{CategoryMix, FaultSchedule};
    use crate::profiler::NullProfiler;
    use crate::strategy::build_strategy;
    use crate::trace::{to_jsonl, MemorySink};

    fn churn_config() -> SimConfig {
        SimConfig::new(6, 2)
            .with_rate(0.08)
            .with_cycles(200, 800, 20)
            .with_seed(0xc0de)
            .with_faults(1)
            .with_schedule(FaultSchedule::Bernoulli {
                rate: 0.02,
                kind: FaultKind::Transient { repair_after: 40 },
                mix: CategoryMix::default(),
                node_fraction: 0.5,
            })
            .with_collective(CollectiveOp::Broadcast)
            .with_collective_interval(25)
    }

    /// Run to `pause` cycles, checkpoint, then confirm that (a) the text
    /// form round-trips to an equal `Checkpoint`, and (b) the restored
    /// engine replays exactly the uninterrupted run's trace suffix and
    /// final metrics.
    fn round_trip_at(pause: u64) {
        let cfg = churn_config();
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(cfg.clone(), &*algo).unwrap();

        let (mut telem, mut prof) = (NullTelemetry, NullProfiler);
        let mut sink = MemorySink::default();
        let mut core = Coordinator::new(&sim, 1, &mut sink, &mut telem);
        core.step_many(&sim, pause, &mut sink, &mut telem, &mut prof);
        let ck = Checkpoint::capture(&sim, &core, sink.events().len() as u64).unwrap();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck, "text form must round-trip");

        // Finish the original run untouched.
        core.step_many(&sim, u64::MAX, &mut sink, &mut telem, &mut prof);
        let full = core.finish(&sim, &mut telem, &mut prof);

        // Resume from the parsed checkpoint in a fresh simulator.
        let algo2 = build_strategy(back.strategy(), back.trees()).unwrap();
        let sim2 = Simulator::try_new(back.config().clone(), &*algo2).unwrap();
        let mut sink2 = MemorySink::default();
        let mut core2 = back.rebuild(&sim2, 1).unwrap();
        core2.step_many(&sim2, u64::MAX, &mut sink2, &mut telem, &mut prof);
        let resumed = core2.finish(&sim2, &mut telem, &mut prof);

        let mark = back.trace_mark() as usize;
        assert_eq!(
            to_jsonl(&sink.events()[mark..]),
            to_jsonl(sink2.events()),
            "restored run must replay the exact trace suffix (pause {pause})"
        );
        assert_eq!(
            format!("{:?}", full.metrics),
            format!("{:?}", resumed.metrics),
            "final metrics must match (pause {pause})"
        );
        assert_eq!(
            format!("{:?}", full.windows),
            format!("{:?}", resumed.windows),
            "window series must match (pause {pause})"
        );
        assert_eq!(
            format!("{:?}", full.trace),
            format!("{:?}", resumed.trace),
            "fault event history must match (pause {pause})"
        );
        assert_eq!(
            format!("{:?}", full.collectives),
            format!("{:?}", resumed.collectives),
            "collective records must match (pause {pause})"
        );
    }

    #[test]
    fn round_trips_mid_injection() {
        round_trip_at(97);
    }

    #[test]
    fn round_trips_during_drain() {
        round_trip_at(250);
    }

    #[test]
    fn round_trips_at_cycle_zero() {
        round_trip_at(0);
    }

    #[test]
    fn rejects_mismatched_simulator() {
        let cfg = churn_config();
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(cfg.clone(), &*algo).unwrap();
        let core = Coordinator::new(&sim, 1, &mut NullSink, &mut NullTelemetry);
        let ck = Checkpoint::capture(&sim, &core, 0).unwrap();

        let other_cfg = cfg.clone().with_seed(1);
        let sim_seed = Simulator::try_new(other_cfg, &*algo).unwrap();
        assert!(
            ck.rebuild(&sim_seed, 1).is_err(),
            "wrong config must be refused"
        );

        let ffgcr = build_strategy("ffgcr", 0).unwrap();
        let sim_algo = Simulator::try_new(cfg, &*ffgcr).unwrap();
        assert!(
            ck.rebuild(&sim_algo, 1).is_err(),
            "wrong strategy must be refused"
        );
    }

    #[test]
    fn truncated_and_corrupt_files_are_rejected() {
        let cfg = SimConfig::new(6, 2);
        let algo = build_strategy("ffgcr", 0).unwrap();
        let sim = Simulator::try_new(cfg, &*algo).unwrap();
        let core = Coordinator::new(&sim, 1, &mut NullSink, &mut NullTelemetry);
        let ck = Checkpoint::capture(&sim, &core, 0).unwrap();
        let text = ck.to_text();

        let no_end = text.replace("{\"section\":\"end\"}\n", "");
        let err = Checkpoint::from_text(&no_end).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        let headless = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(Checkpoint::from_text(&headless).is_err());

        assert!(Checkpoint::from_text("").is_err());
    }

    /// A mid-run checkpoint with packets queued, its text, and a restore
    /// of edited text through `stepper_from` on a simulator built from the
    /// unedited config.
    fn restore_edited(edit: impl Fn(&Checkpoint, &str) -> String) -> Result<(), String> {
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(churn_config(), &*algo).unwrap();
        let mut stepper = sim.session().stepper();
        stepper.step_many(60);
        let ck = stepper.checkpoint(0).unwrap();
        assert!(!ck.live.is_empty() && !ck.queues.is_empty());
        let text = ck.to_text();
        sim.session().stepper_from(&Checkpoint::from_text(&text)?)?;
        let edited = Checkpoint::from_text(&edit(&ck, &text))?;
        sim.session().stepper_from(&edited).map(drop)
    }

    fn with_arena(ck: &Checkpoint, text: &str, arena: &str) -> String {
        text.replace(
            &format!("\"arena\":{}", ck.arena),
            &format!("\"arena\":{arena}"),
        )
    }

    /// At 2^40 slots the arena allocation used to abort the process.
    #[test]
    fn huge_arena_is_an_error_not_an_abort() {
        let err = restore_edited(|ck, text| with_arena(ck, text, "1099511627776")).unwrap_err();
        assert!(err.contains("arena of 1099511627776 slots"), "{err}");
    }

    /// At `u64::MAX` slots the arena allocation used to panic with a
    /// capacity overflow.
    #[test]
    fn arena_past_capacity_is_an_error_not_a_panic() {
        let err =
            restore_edited(|ck, text| with_arena(ck, text, "18446744073709551615")).unwrap_err();
        assert!(err.contains("arena of 18446744073709551615 slots"), "{err}");
    }

    /// A queued slot outside the arena used to panic with an index out of
    /// bounds in `NodeQueues::push_back`.
    #[test]
    fn queued_slot_outside_the_arena_is_an_error_not_a_panic() {
        let err = restore_edited(|ck, text| {
            let (v, slots) = &ck.queues[0];
            let listed = |first: u32| {
                let rest = slots[1..].iter().map(|&s| u64::from(s));
                format!(
                    "[{v},{}]",
                    u64_arr(std::iter::once(u64::from(first)).chain(rest))
                )
            };
            text.replacen(&listed(slots[0]), &listed(ck.arena as u32 + 5), 1)
        })
        .unwrap_err();
        assert!(err.contains("outside the arena"), "{err}");
    }

    /// Append `v` to the first live packet's route.
    fn extend_route(c: &mut Checkpoint, v: NodeId) {
        let mut nodes = route_of(&c.live[0].1).nodes().to_vec();
        nodes.push(v);
        c.live[0].1.path = Trajectory::Route(Route::new(nodes));
    }

    /// Every other inconsistency `rebuild` would index with is refused
    /// too, each with its own reason.
    #[test]
    fn inconsistent_slots_and_ids_are_errors() {
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(churn_config(), &*algo).unwrap();
        let mut stepper = sim.session().stepper();
        stepper.step_many(60);
        let mut ck = stepper.checkpoint(0).unwrap();
        scatter_slots(&mut ck);
        assert!(!ck.free.is_empty() && ck.live.len() >= 2);
        type Edit = fn(&mut Checkpoint);
        let edits: [(&str, Edit); 11] = [
            ("listed twice", |c| c.free.push(c.live[0].0)),
            ("listed twice", |c| c.live[1].0 = c.live[0].0),
            ("not a live packet", |c| c.queues[0].1.push(c.free[0])),
            ("queued twice", |c| {
                let s = c.queues[0].1[0];
                c.queues[0].1.push(s);
            }),
            ("hop", |c| {
                c.live[0].1.hop_idx = route_of(&c.live[0].1).nodes().len()
            }),
            ("queued at node", |c| c.queues[0].0 ^= 1),
            ("node 64 outside", |c| extend_route(c, NodeId(64))),
            ("not a link", |c| {
                let last = c.live[0].1.dest();
                extend_route(c, NodeId(last.0 ^ 3));
            }),
            ("node 70 outside", |c| c.truth.nodes.push(70)),
            ("dimension 6", |c| c.view.links.push((0, 6))),
            ("repair ledger", |c| c.ledger.truncate(1)),
        ];
        for (want, edit) in edits {
            let mut bad = ck.clone();
            edit(&mut bad);
            bad.arena = bad.live.len() + bad.free.len();
            let err = bad.rebuild(&sim, 1).map(drop).unwrap_err();
            assert!(err.contains(want), "want {want:?}, got {err}");
        }
    }

    /// Rewrite `ck` in the shape an arena-recording capture wrote: live
    /// slots scattered over a larger arena in reverse queue order, listed
    /// in slot order, with every gap on the freelist.
    fn scatter_slots(ck: &mut Checkpoint) {
        let n = ck.live.len() as u32;
        let scatter = |s: u32| 3 * (n - 1 - s) + 2;
        for (slot, _) in &mut ck.live {
            *slot = scatter(*slot);
        }
        for (_, slots) in &mut ck.queues {
            slots.iter_mut().for_each(|s| *s = scatter(*s));
        }
        ck.live.sort_by_key(|&(slot, _)| slot);
        ck.arena = 3 * n as usize + 1;
        ck.free = (0..ck.arena as u32).rev().filter(|s| s % 3 != 2).collect();
    }

    /// Slot numbers are not state: a checkpoint with sparse slots and a
    /// non-empty freelist restores to the same run as the dense one.
    #[test]
    fn scattered_slots_restore_bitwise() {
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(churn_config(), &*algo).unwrap();
        let mut stepper = sim.session().stepper();
        stepper.step_many(97);
        let dense = stepper.checkpoint(0).unwrap();
        assert!(dense.live.len() >= 2, "the pause must hold packets");
        let mut sparse = dense.clone();
        scatter_slots(&mut sparse);
        let sparse = Checkpoint::from_text(&sparse.to_text()).unwrap();
        assert!(!sparse.free.is_empty());
        let finish = |ck: &Checkpoint| {
            let algo = build_strategy("ftgcr", 0).unwrap();
            let sim = Simulator::try_new(churn_config(), &*algo).unwrap();
            let mut sink = MemorySink::default();
            let mut st = sim.session().trace(&mut sink).stepper_from(ck).unwrap();
            st.step_many(u64::MAX);
            let report = st.finish();
            (report, to_jsonl(sink.events()))
        };
        assert_eq!(finish(&dense), finish(&sparse));
    }

    #[test]
    fn ecube_cannot_be_checkpointed() {
        let algo = crate::strategy::EcubeBaseline;
        let sim = Simulator::try_new(SimConfig::new(4, 4), &algo).unwrap();
        let core = Coordinator::new(&sim, 1, &mut NullSink, &mut NullTelemetry);
        let err = Checkpoint::capture(&sim, &core, 0).unwrap_err();
        assert!(err.contains("wire identity"), "{err}");
    }
}
