//! Offline trace forensics: everything `gcube analyze` knows how to do
//! with a recorded artifact.
//!
//! A JSONL trace is a complete flight record — every inject, hop,
//! stale-view discovery, reroute, drop, delivery, health transition and
//! tree repair, in deterministic engine order. This module turns that
//! stream back into answers:
//!
//! * [`RunForensics`] — one pass over the events building per-packet
//!   records, per-fault impact attribution (which blocked node cost how
//!   many reroutes, drops and wasted hops), and link/node congestion
//!   counts;
//! * [`render_profile`] — the phase/imbalance breakdown tables of a
//!   profiler artifact ([`gcube_sim::ProfileCollector`]'s JSONL export);
//! * [`diff_deterministic`] — the A/B regression gate: strip the
//!   `report_only` wall-clock lines, validate the provenance headers,
//!   and compare what must be bitwise identical.
//!
//! Attribution leans on an engine invariant: a recovery begins with a
//! `StaleView` event naming the blocked next hop, and the packet's
//! verdict (`Reroute` or `Drop`) lands at the same cycle. Grouping by
//! the blocked node therefore reconstructs "what did this fault cost"
//! without the engine ever writing a fault ledger into the trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gcube_sim::proto::{Fields, Line};
use gcube_sim::{ArtifactMeta, DropCause, TraceEvent, TraceEventKind};
use gcube_topology::NodeId;

/// How a packet's story ended within the recorded window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketOutcome {
    /// Delivered at `cycle` after `latency` cycles and `hops` links.
    Delivered {
        /// Delivery cycle.
        cycle: u64,
        /// Injection-to-delivery cycles.
        latency: u64,
        /// Links traversed.
        hops: u64,
    },
    /// Dropped at `cycle`.
    Dropped {
        /// Drop cycle.
        cycle: u64,
        /// Why.
        cause: DropCause,
    },
    /// Still in flight when the record ends.
    InFlight,
}

/// Per-packet aggregate reconstructed from the stream.
#[derive(Clone, Copy, Debug)]
pub struct PacketRecord {
    /// Packet id (injection order).
    pub id: u64,
    /// Injection cycle (absent if the record starts mid-flight).
    pub injected_at: Option<u64>,
    /// Source node.
    pub src: Option<NodeId>,
    /// Destination node.
    pub dst: Option<NodeId>,
    /// Length of the injection-time plan.
    pub planned_hops: u64,
    /// Hops actually taken.
    pub hops: u64,
    /// Blocked-next-hop discoveries.
    pub stale_views: u64,
    /// Successful replans.
    pub reroutes: u64,
    /// Final disposition.
    pub outcome: PacketOutcome,
}

/// What one blocked node cost the run: every recovery that started with
/// a `StaleView` naming it, attributed in full.
#[derive(Clone, Copy, Debug)]
pub struct FaultImpact {
    /// The node packets found unreachable.
    pub blocked: NodeId,
    /// First cycle a packet hit it.
    pub first_cycle: u64,
    /// Last cycle a packet hit it.
    pub last_cycle: u64,
    /// Blocked-next-hop discoveries.
    pub stale_views: u64,
    /// Recoveries that replanned successfully.
    pub reroutes: u64,
    /// Recoveries that ended in a drop.
    pub drops: u64,
    /// Hops already spent by the packets this fault killed.
    pub hops_wasted: u64,
    /// Distinct packets affected.
    pub packets: u64,
}

/// One pass over a recorded trace: per-packet records, per-fault impact
/// attribution, congestion counts, and network-event totals.
pub struct RunForensics<'a> {
    events: &'a [TraceEvent],
    packets: BTreeMap<u64, PacketRecord>,
    faults: BTreeMap<u64, FaultImpact>,
    fault_packets: BTreeMap<u64, std::collections::BTreeSet<u64>>,
    /// Directed link loads: `(from, to) -> hops carried`.
    links: BTreeMap<(u64, u64), u64>,
    /// Transit arrivals per node (hop events landing there).
    nodes: BTreeMap<u64, u64>,
    health_transitions: u64,
    tree_regrafts: u64,
    tree_rebuilds: u64,
    first_cycle: u64,
    last_cycle: u64,
}

impl<'a> RunForensics<'a> {
    /// Build the forensic indexes from a recorded stream (engine order).
    pub fn from_events(events: &'a [TraceEvent]) -> RunForensics<'a> {
        let mut f = RunForensics {
            events,
            packets: BTreeMap::new(),
            faults: BTreeMap::new(),
            fault_packets: BTreeMap::new(),
            links: BTreeMap::new(),
            nodes: BTreeMap::new(),
            health_transitions: 0,
            tree_regrafts: 0,
            tree_rebuilds: 0,
            first_cycle: events.first().map_or(0, |e| e.cycle),
            last_cycle: events.last().map_or(0, |e| e.cycle),
        };
        // The recovery protocol emits StaleView then the same packet's
        // verdict within the same cycle; this remembers the last
        // discovery per packet so the verdict can be attributed.
        let mut pending: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // packet -> (cycle, blocked)
        for e in events {
            let rec = f.packets.entry(e.packet).or_insert(PacketRecord {
                id: e.packet,
                injected_at: None,
                src: None,
                dst: None,
                planned_hops: 0,
                hops: 0,
                stale_views: 0,
                reroutes: 0,
                outcome: PacketOutcome::InFlight,
            });
            match e.kind {
                TraceEventKind::Inject { dst, planned_hops } => {
                    rec.injected_at = Some(e.cycle);
                    rec.src = Some(e.node);
                    rec.dst = Some(dst);
                    rec.planned_hops = planned_hops;
                }
                TraceEventKind::Hop { from } => {
                    rec.hops += 1;
                    *f.links.entry((from.0, e.node.0)).or_insert(0) += 1;
                    *f.nodes.entry(e.node.0).or_insert(0) += 1;
                }
                TraceEventKind::StaleView { blocked } => {
                    rec.stale_views += 1;
                    pending.insert(e.packet, (e.cycle, blocked.0));
                    let imp = f.faults.entry(blocked.0).or_insert(FaultImpact {
                        blocked,
                        first_cycle: e.cycle,
                        last_cycle: e.cycle,
                        stale_views: 0,
                        reroutes: 0,
                        drops: 0,
                        hops_wasted: 0,
                        packets: 0,
                    });
                    imp.stale_views += 1;
                    imp.last_cycle = e.cycle;
                    f.fault_packets
                        .entry(blocked.0)
                        .or_default()
                        .insert(e.packet);
                }
                TraceEventKind::Reroute { .. } => {
                    rec.reroutes += 1;
                    if let Some(&(cycle, blocked)) = pending.get(&e.packet) {
                        if cycle == e.cycle {
                            f.faults.get_mut(&blocked).expect("seen").reroutes += 1;
                        }
                    }
                }
                TraceEventKind::Drop { cause } => {
                    rec.outcome = PacketOutcome::Dropped {
                        cycle: e.cycle,
                        cause,
                    };
                    if let Some((cycle, blocked)) = pending.remove(&e.packet) {
                        if cycle == e.cycle {
                            let imp = f.faults.get_mut(&blocked).expect("seen");
                            imp.drops += 1;
                            imp.hops_wasted += rec.hops;
                        }
                    }
                }
                TraceEventKind::Deliver { latency, hops } => {
                    rec.outcome = PacketOutcome::Delivered {
                        cycle: e.cycle,
                        latency,
                        hops,
                    };
                    pending.remove(&e.packet);
                }
                TraceEventKind::Health { .. } => {
                    f.health_transitions += 1;
                    f.packets.remove(&e.packet); // network event, not a packet
                }
                TraceEventKind::TreeSwitch { .. } => {}
                TraceEventKind::TreeRepair { rebuilt, .. } => {
                    if rebuilt {
                        f.tree_rebuilds += 1;
                    } else {
                        f.tree_regrafts += 1;
                    }
                    f.packets.remove(&e.packet); // network event, not a packet
                }
            }
        }
        for (blocked, set) in &f.fault_packets {
            f.faults.get_mut(blocked).expect("seen").packets = set.len() as u64;
        }
        f
    }

    /// Per-packet records, ordered by packet id.
    pub fn packets(&self) -> impl Iterator<Item = &PacketRecord> {
        self.packets.values()
    }

    /// One packet's record.
    pub fn packet(&self, id: u64) -> Option<&PacketRecord> {
        self.packets.get(&id)
    }

    /// Per-fault impact records, ordered by blocked node.
    pub fn fault_impacts(&self) -> impl Iterator<Item = &FaultImpact> {
        self.faults.values()
    }

    /// The `k` most-loaded directed links, busiest first (ties broken by
    /// link id for deterministic output).
    pub fn top_links(&self, k: usize) -> Vec<((u64, u64), u64)> {
        let mut v: Vec<_> = self.links.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// The `k` busiest transit nodes, busiest first.
    pub fn top_nodes(&self, k: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = self.nodes.iter().map(|(&n, &c)| (n, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Render one packet's full timeline, event by event.
    pub fn timeline(&self, id: u64) -> String {
        let mut out = String::new();
        let Some(rec) = self.packets.get(&id) else {
            let _ = writeln!(out, "packet {id}: not in this trace");
            return out;
        };
        let _ = writeln!(
            out,
            "packet {id}: {} -> {}, planned {} hops",
            rec.src.map_or_else(|| "?".into(), |v| v.to_string()),
            rec.dst.map_or_else(|| "?".into(), |v| v.to_string()),
            rec.planned_hops
        );
        for e in self.events.iter().filter(|e| e.packet == id) {
            let what = match e.kind {
                TraceEventKind::Inject { dst, planned_hops } => {
                    format!("inject -> {dst} ({planned_hops} hops planned)")
                }
                TraceEventKind::Hop { from } => format!("hop {from} -> {}", e.node),
                TraceEventKind::StaleView { blocked } => {
                    format!("stale view: next hop {blocked} is blocked")
                }
                TraceEventKind::Reroute { budget_left } => {
                    format!("reroute ({budget_left} budget left)")
                }
                TraceEventKind::Drop { cause } => format!("DROP ({})", cause.as_str()),
                TraceEventKind::Deliver { latency, hops } => {
                    format!("DELIVER ({latency} cycles, {hops} hops)")
                }
                // Network-scoped kinds never carry a real packet id.
                _ => continue,
            };
            let _ = writeln!(out, "  cycle {:>6}  {what}", e.cycle);
        }
        let verdict = match rec.outcome {
            PacketOutcome::Delivered { latency, hops, .. } => format!(
                "delivered: {latency} cycles, {hops} hops ({} over plan), {} reroutes",
                hops.saturating_sub(rec.planned_hops),
                rec.reroutes
            ),
            PacketOutcome::Dropped { cycle, cause } => format!(
                "dropped at cycle {cycle} ({}): {} hops wasted, {} reroutes spent",
                cause.as_str(),
                rec.hops,
                rec.reroutes
            ),
            PacketOutcome::InFlight => "still in flight when the record ends".to_string(),
        };
        let _ = writeln!(out, "  => {verdict}");
        out
    }

    /// Render the run overview: packet totals and network events.
    pub fn summary(&self) -> String {
        let (mut delivered, mut dropped, mut in_flight) = (0u64, 0u64, 0u64);
        let (mut reroutes, mut stale) = (0u64, 0u64);
        for p in self.packets.values() {
            match p.outcome {
                PacketOutcome::Delivered { .. } => delivered += 1,
                PacketOutcome::Dropped { .. } => dropped += 1,
                PacketOutcome::InFlight => in_flight += 1,
            }
            reroutes += p.reroutes;
            stale += p.stale_views;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "events {}  cycles {}..{}",
            self.events.len(),
            self.first_cycle,
            self.last_cycle
        );
        let _ = writeln!(
            out,
            "packets {}  delivered {delivered}  dropped {dropped}  in-flight {in_flight}",
            self.packets.len()
        );
        let _ = writeln!(
            out,
            "recoveries: {stale} stale views, {reroutes} reroutes, {} distinct blocked nodes",
            self.faults.len()
        );
        let _ = writeln!(
            out,
            "network: {} health transitions, {} tree re-grafts, {} rebuilds",
            self.health_transitions, self.tree_regrafts, self.tree_rebuilds
        );
        out
    }

    /// Render the per-fault impact table, costliest first (drops, then
    /// reroutes). "Cost" is everything attributable to that blocked
    /// node: discoveries, verdicts, and the hops its drops wasted.
    pub fn fault_impact_table(&self, top: usize) -> String {
        let mut impacts: Vec<&FaultImpact> = self.faults.values().collect();
        impacts.sort_by(|a, b| {
            (b.drops, b.reroutes, b.stale_views)
                .cmp(&(a.drops, a.reroutes, a.stale_views))
                .then(a.blocked.0.cmp(&b.blocked.0))
        });
        let mut out = String::new();
        if impacts.is_empty() {
            let _ = writeln!(out, "no recoveries recorded: every planned hop was live");
            return out;
        }
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>14}",
            "blocked", "packets", "stale", "reroutes", "drops", "hops lost", "cycles"
        );
        for i in impacts.iter().take(top) {
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>6}..{:<6}",
                i.blocked.0,
                i.packets,
                i.stale_views,
                i.reroutes,
                i.drops,
                i.hops_wasted,
                i.first_cycle,
                i.last_cycle
            );
        }
        if impacts.len() > top {
            let _ = writeln!(out, "... {} more", impacts.len() - top);
        }
        out
    }

    /// Render the congestion hot-spot tables.
    pub fn congestion_table(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "top directed links (hops carried):");
        for ((from, to), c) in self.top_links(top) {
            let _ = writeln!(out, "  {from:>6} -> {to:<6} {c:>8}");
        }
        let _ = writeln!(out, "top transit nodes (hop arrivals):");
        for (n, c) in self.top_nodes(top) {
            let _ = writeln!(out, "  {n:>6}           {c:>8}");
        }
        out
    }
}

/// Render the phase/imbalance breakdown of a profiler JSONL artifact
/// ([`gcube_sim::ProfileCollector::to_jsonl`]'s output, header
/// included). Works on the deterministic stream alone; the wall-clock
/// sections appear only when the artifact carries `report_only` lines.
/// A line that is not a JSON object, or a mistyped field, is an error; a
/// missing counter reads as 0.
pub fn render_profile(text: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut rows = 0u64;
    let mut phases: Vec<(String, u64)> = Vec::new();
    let mut shards: Vec<String> = Vec::new();
    let mut worst: Option<(u64, u64)> = None; // (imbalance_milli, cycle)
    let mut read = |line: &str| -> Result<(), String> {
        if let Some(parsed) = ArtifactMeta::parse(line) {
            let m = parsed?;
            let _ = writeln!(
                out,
                "provenance: {} artifact, GC({}, {}), seed {}, {} threads, {}",
                m.kind, m.n, m.modulus, m.seed, m.threads, m.strategy
            );
            return Ok(());
        }
        let f = Line::parse(line)?;
        let num = |key: &str| f.opt::<u64>(key).map(Option::unwrap_or_default);
        if f.lookup("summary").is_some() {
            let _ = writeln!(
                out,
                "cycles {}  injected {}  moved {}  max in-flight {}",
                num("cycles")?,
                num("injected")?,
                num("moved")?,
                num("max_in_flight")?,
            );
            let _ = writeln!(
                out,
                "imbalance: avg {:.3}  max {:.3}  (1.000 = perfectly balanced)",
                num("imbalance_avg_milli")? as f64 / 1000.0,
                num("imbalance_max_milli")? as f64 / 1000.0,
            );
        } else if f.lookup("report_only").is_some() {
            if let Some(p) = f.opt::<&str>("phase")? {
                phases.push((p.to_string(), num("nanos")?));
            } else if let Some(s) = f.opt::<u64>("shard")? {
                let barrier = num("barrier_nanos")?;
                let run = num("run_nanos")?;
                shards.push(format!(
                    "  shard {s}: {} cycles, planned {} class units ({} reqs), \
                     {}+{} moves (self+out), barrier {:.1}% of {:.3}ms",
                    num("cycles")?,
                    num("steal_units")?,
                    num("planned_reqs")?,
                    num("moves_self")?,
                    num("moves_out")?,
                    if run == 0 {
                        0.0
                    } else {
                        100.0 * barrier as f64 / run as f64
                    },
                    run as f64 / 1e6,
                ));
            }
        } else if let Some(cycle) = f.opt::<u64>("cycle")? {
            // A deterministic sample row (anything else is unrecognised).
            rows += 1;
            let imb = num("imbalance_milli")?;
            if worst.is_none_or(|(w, _)| imb > w) {
                worst = Some((imb, cycle));
            }
        }
        Ok(())
    };
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.is_empty() {
            read(line).map_err(|e| format!("profile line {}: {e}", i + 1))?;
        }
    }
    let _ = writeln!(out, "sample windows: {rows}");
    if let Some((imb, cycle)) = worst {
        let _ = writeln!(
            out,
            "worst window: imbalance {:.3} ending at cycle {cycle}",
            imb as f64 / 1000.0
        );
    }
    if !phases.is_empty() {
        let total: u64 = phases.iter().map(|&(_, n)| n).sum();
        let _ = writeln!(out, "--- phase split (wall clock, report-only) ---");
        for (p, n) in &phases {
            let _ = writeln!(
                out,
                "  {p:<14} {:>10.3}ms  {:>5.1}%",
                *n as f64 / 1e6,
                100.0 * *n as f64 / total.max(1) as f64
            );
        }
    }
    if !shards.is_empty() {
        let _ = writeln!(out, "--- per-shard split (report-only) ---");
        for s in &shards {
            let _ = writeln!(out, "{s}");
        }
    }
    if rows == 0 && phases.is_empty() {
        return Err("no profile lines recognised — is this a profile artifact?".into());
    }
    Ok(out)
}

/// The A/B regression gate's verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffOutcome {
    /// Whether the deterministic streams are bitwise identical.
    pub identical: bool,
    /// Human-readable detail (counts, or the first divergence).
    pub detail: String,
}

/// Compare the deterministic content of two JSONL artifacts — the A/B
/// regression gate. Provenance headers are validated for compatibility
/// (same kind, cube, seed and strategy; thread counts may differ — that
/// is the point), then `report_only` wall-clock lines are stripped and
/// the rest must match line for line.
pub fn diff_deterministic(a_text: &str, b_text: &str) -> Result<DiffOutcome, String> {
    let split = |text: &str| -> Result<(Option<ArtifactMeta>, Vec<String>), String> {
        let mut meta = None;
        let mut lines = Vec::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if let Some(parsed) = ArtifactMeta::parse(line) {
                if meta.is_some() || !lines.is_empty() {
                    return Err("meta header must be the first line".into());
                }
                meta = Some(parsed?);
                continue;
            }
            if line.starts_with("{\"report_only\"") {
                continue;
            }
            lines.push(line.to_string());
        }
        Ok((meta, lines))
    };
    let (meta_a, lines_a) = split(a_text).map_err(|e| format!("artifact A: {e}"))?;
    let (meta_b, lines_b) = split(b_text).map_err(|e| format!("artifact B: {e}"))?;
    if let (Some(a), Some(b)) = (&meta_a, &meta_b) {
        a.check_compatible(b)
            .map_err(|e| format!("artifacts are not comparable: {e}"))?;
    }
    let threads = |m: &Option<ArtifactMeta>| {
        m.as_ref()
            .map_or_else(|| "?".to_string(), |m| m.threads.to_string())
    };
    for (i, (a, b)) in lines_a.iter().zip(lines_b.iter()).enumerate() {
        if a != b {
            return Ok(DiffOutcome {
                identical: false,
                detail: format!(
                    "DIVERGED at deterministic line {}:\n  A (threads {}): {a}\n  B (threads {}): {b}",
                    i + 1,
                    threads(&meta_a),
                    threads(&meta_b)
                ),
            });
        }
    }
    if lines_a.len() != lines_b.len() {
        return Ok(DiffOutcome {
            identical: false,
            detail: format!(
                "DIVERGED: A has {} deterministic lines, B has {}",
                lines_a.len(),
                lines_b.len()
            ),
        });
    }
    Ok(DiffOutcome {
        identical: true,
        detail: format!(
            "identical: {} deterministic lines match (threads {} vs {})",
            lines_a.len(),
            threads(&meta_a),
            threads(&meta_b)
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_sim::trace::NETWORK_EVENT_PACKET;

    fn ev(cycle: u64, packet: u64, node: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            cycle,
            packet,
            node: NodeId(node),
            kind,
        }
    }

    /// A two-packet story: packet 0 hits a blocked node, reroutes and
    /// delivers; packet 1 hits the same node and is dropped.
    fn sample() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                0,
                1,
                TraceEventKind::Inject {
                    dst: NodeId(6),
                    planned_hops: 2,
                },
            ),
            ev(
                0,
                1,
                2,
                TraceEventKind::Inject {
                    dst: NodeId(6),
                    planned_hops: 2,
                },
            ),
            ev(1, 0, 3, TraceEventKind::Hop { from: NodeId(1) }),
            ev(1, 1, 3, TraceEventKind::Hop { from: NodeId(2) }),
            ev(2, 0, 3, TraceEventKind::StaleView { blocked: NodeId(7) }),
            ev(2, 0, 3, TraceEventKind::Reroute { budget_left: 1 }),
            ev(2, 1, 3, TraceEventKind::StaleView { blocked: NodeId(7) }),
            ev(
                2,
                1,
                3,
                TraceEventKind::Drop {
                    cause: DropCause::Unrecoverable,
                },
            ),
            ev(3, 0, 6, TraceEventKind::Hop { from: NodeId(3) }),
            ev(
                3,
                0,
                6,
                TraceEventKind::Deliver {
                    latency: 3,
                    hops: 2,
                },
            ),
            ev(
                4,
                NETWORK_EVENT_PACKET,
                4,
                TraceEventKind::TreeRepair {
                    regrafted: 1,
                    reattached: 3,
                    lost: 0,
                    rebuilt: false,
                },
            ),
        ]
    }

    #[test]
    fn packet_records_reconstruct_outcomes() {
        let events = sample();
        let f = RunForensics::from_events(&events);
        assert_eq!(f.packets().count(), 2, "network events are not packets");
        let p0 = f.packet(0).unwrap();
        assert_eq!(p0.hops, 2);
        assert_eq!(p0.reroutes, 1);
        assert!(matches!(
            p0.outcome,
            PacketOutcome::Delivered {
                latency: 3,
                hops: 2,
                ..
            }
        ));
        let p1 = f.packet(1).unwrap();
        assert!(matches!(
            p1.outcome,
            PacketOutcome::Dropped {
                cycle: 2,
                cause: DropCause::Unrecoverable
            }
        ));
        let tl = f.timeline(0);
        assert!(tl.contains("stale view"), "{tl}");
        assert!(tl.contains("DELIVER"), "{tl}");
        assert!(f.timeline(99).contains("not in this trace"));
    }

    #[test]
    fn fault_impact_attributes_verdicts_to_the_blocked_node() {
        let events = sample();
        let f = RunForensics::from_events(&events);
        let impacts: Vec<_> = f.fault_impacts().collect();
        assert_eq!(impacts.len(), 1);
        let i = impacts[0];
        assert_eq!(i.blocked, NodeId(7));
        assert_eq!((i.stale_views, i.reroutes, i.drops), (2, 1, 1));
        assert_eq!(i.packets, 2);
        assert_eq!(i.hops_wasted, 1, "packet 1 had taken one hop when dropped");
        let table = f.fault_impact_table(10);
        assert!(table.contains('7'), "{table}");
    }

    #[test]
    fn congestion_counts_directed_links() {
        let events = sample();
        let f = RunForensics::from_events(&events);
        let links = f.top_links(10);
        assert_eq!(links[0].1, 1);
        assert_eq!(
            f.top_nodes(1),
            vec![(3, 2)],
            "both packets transited node 3"
        );
        assert_eq!(f.summary().lines().count(), 4);
    }

    #[test]
    fn diff_gate_ignores_report_only_but_not_data() {
        let a = "{\"cycle\":1,\"injected\":5}\n{\"report_only\":true,\"phase\":\"planning\",\"nanos\":10}\n";
        let b = "{\"cycle\":1,\"injected\":5}\n{\"report_only\":true,\"phase\":\"planning\",\"nanos\":99}\n";
        let d = diff_deterministic(a, b).unwrap();
        assert!(d.identical, "{}", d.detail);
        let c = "{\"cycle\":1,\"injected\":6}\n";
        let d = diff_deterministic(a, c).unwrap();
        assert!(!d.identical);
        assert!(d.detail.contains("line 1"), "{}", d.detail);
        let short = diff_deterministic(a, "").unwrap();
        assert!(!short.identical);
    }

    #[test]
    fn diff_gate_validates_provenance() {
        let meta = |threads: u64, seed: u64| {
            format!(
                "{{\"meta\":\"profile\",\"format\":1,\"n\":6,\"modulus\":2,\"seed\":{seed},\
                 \"threads\":{threads},\"strategy\":\"ftgcr\"}}"
            )
        };
        let a = format!("{}\n{{\"cycle\":1}}\n", meta(1, 42));
        let b = format!("{}\n{{\"cycle\":1}}\n", meta(4, 42));
        let d = diff_deterministic(&a, &b).unwrap();
        assert!(d.identical, "thread counts may differ: {}", d.detail);
        assert!(d.detail.contains("1 vs 4"), "{}", d.detail);
        let c = format!("{}\n{{\"cycle\":1}}\n", meta(4, 43));
        assert!(diff_deterministic(&a, &c).is_err(), "seed mismatch");
    }

    #[test]
    fn profile_rendering_reads_the_collector_export() {
        let text = "\
{\"meta\":\"profile\",\"format\":1,\"n\":6,\"modulus\":2,\"seed\":42,\"threads\":4,\"strategy\":\"ftgcr\"}
{\"cycle\":49,\"injected\":10,\"moved\":30,\"in_flight\":4,\"queued_total\":4,\"queued_max\":2,\"occupied_total\":4,\"imbalance_milli\":2000,\"cache_hits\":0,\"cache_misses\":0,\"cache_entries\":0}
{\"summary\":true,\"cycles\":50,\"injected\":10,\"moved\":30,\"max_in_flight\":4,\"imbalance_avg_milli\":1500,\"imbalance_max_milli\":2000,\"dropped_samples\":0,\"moved_log2\":[0,1],\"in_flight_log2\":[0,1]}
{\"report_only\":true,\"phase\":\"planning\",\"nanos\":1000000}
{\"report_only\":true,\"shard\":0,\"cycles\":50,\"steal_units\":9,\"planned_reqs\":10,\"moves_self\":20,\"moves_out\":10,\"events_out\":0,\"barrier_nanos\":500000,\"run_nanos\":2000000}
";
        let r = render_profile(text).unwrap();
        assert!(r.contains("provenance: profile artifact"), "{r}");
        assert!(r.contains("imbalance: avg 1.500  max 2.000"), "{r}");
        assert!(r.contains("planning"), "{r}");
        assert!(r.contains("shard 0"), "{r}");
        assert!(r.contains("barrier 25.0%"), "{r}");
        assert!(render_profile("not json\n").is_err());
    }
}
