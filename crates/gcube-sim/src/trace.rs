//! Per-packet flight recorder: the simulator's observability layer.
//!
//! Every packet's life is a short story — injected, forwarded hop by hop,
//! possibly exposed to a stale routing view and re-planned, finally
//! delivered or dropped with a cause. The engine narrates that story as a
//! stream of [`TraceEvent`]s into a [`TraceSink`]. Aggregate counters
//! ([`crate::metrics::Metrics`]) answer "how much"; the trace answers
//! "which packet, where, when, why" — the evidence layer behind the
//! paper-figure numbers.
//!
//! # Zero cost when off
//!
//! The engine is generic over its sink, and [`NullSink`] reports
//! [`TraceSink::enabled`]` == false` as a compile-time-foldable constant:
//! with tracing off, every event construction is dead code and the
//! allocation-free hot path is byte-for-byte the untraced engine. The
//! benchmark's observer-free workloads (`fwd-dense`, `inject-sparse`,
//! `churn-t2`) time that path against their bounds.
//!
//! # Determinism
//!
//! The engine is seeded and lockstep-synchronised, so the event stream is
//! a pure function of [`crate::config::SimConfig`] and the routing
//! algorithm — for *any* thread count: every schedule buffers the
//! cycle's events under a merge key and flushes them in key order, so
//! per-shard events reach the sink in the one-shard order. [`crate::replay`] re-executes a recorded run and
//! asserts event-for-event equality — a standing determinism check.

use std::fmt;
use std::io::{self, Write};

use gcube_routing::faults::HealthState;
use gcube_topology::NodeId;

/// Packet id used for network-scoped events ([`TraceEventKind::Health`])
/// that are not about any one packet.
pub const NETWORK_EVENT_PACKET: u64 = u64::MAX;

/// Why a packet was removed from the network without being delivered.
///
/// The drop-cause taxonomy (see `DESIGN.md` §9): every dropped packet has
/// exactly one cause, and the per-cause counters in
/// [`crate::metrics::Metrics`] partition `dropped`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropCause {
    /// The node buffering the packet failed.
    Stranded,
    /// No recovery route existed, or the re-route budget ran out.
    Unrecoverable,
    /// The per-packet hop budget ran out.
    TtlExpired,
}

impl DropCause {
    /// Stable lower-snake name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::Stranded => "stranded",
            DropCause::Unrecoverable => "unrecoverable",
            DropCause::TtlExpired => "ttl_expired",
        }
    }

    /// Inverse of [`DropCause::as_str`]. Not the std `FromStr` trait —
    /// that returns `Result`, and an `Option` reads better at the single
    /// JSONL-parsing call site.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<DropCause> {
        match s {
            "stranded" => Some(DropCause::Stranded),
            "unrecoverable" => Some(DropCause::Unrecoverable),
            "ttl_expired" => Some(DropCause::TtlExpired),
            _ => None,
        }
    }
}

/// What happened to a packet at one point of its flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The packet entered the network at `node` bound for `dst` with a
    /// `planned_hops`-link route.
    Inject {
        /// Destination.
        dst: NodeId,
        /// Length of the injection-time plan, in links.
        planned_hops: u64,
    },
    /// The packet moved over one link onto `node` (coming `from`).
    Hop {
        /// The node it departed.
        from: NodeId,
    },
    /// The packet's planned next hop (`blocked`) proved dead in the ground
    /// truth: the plan was made against a stale (or since-invalidated)
    /// view. Always followed, same cycle, by a `Reroute` or a `Drop`.
    StaleView {
        /// The dead next hop the packet could not take.
        blocked: NodeId,
    },
    /// The packet was re-planned in place at `node`.
    Reroute {
        /// Re-route budget remaining after this re-plan.
        budget_left: u32,
    },
    /// The packet was removed undelivered.
    Drop {
        /// Why (see the taxonomy on [`DropCause`]).
        cause: DropCause,
    },
    /// The packet reached its destination.
    Deliver {
        /// Cycles from injection to delivery.
        latency: u64,
        /// Links actually traversed (detours included).
        hops: u64,
    },
    /// The network's Theorem-3 health classification changed. This is a
    /// network-scoped event: `packet` is [`NETWORK_EVENT_PACKET`] and
    /// `node` is `NodeId(0)`. Emitted by the fault-budget monitor whenever
    /// the live fault set crosses a health boundary, so replay
    /// verification covers health transitions too.
    Health {
        /// The state entered.
        state: HealthState,
        /// Live faulty components (nodes + links) at the transition.
        faults: u64,
    },
    /// A multitree plan did not get its first-choice spanning tree:
    /// `switches` trees were rejected for faults before tree `tree`
    /// carried the plan — or, when `exhausted`, the whole bundle was
    /// blocked and the plan came from the FTGCR fallback. Emitted right
    /// after the `Inject` or `Reroute` event whose plan it describes;
    /// first-choice plans emit nothing.
    TreeSwitch {
        /// The tree that carried the plan (start tree when `exhausted`).
        tree: u32,
        /// Trees tried and rejected before this plan.
        switches: u32,
        /// All trees were blocked; the plan is an FTGCR fallback.
        exhausted: bool,
    },
    /// The collective broadcast tree for one root class changed shape in
    /// response to a fault generation bump: orphaned subtrees were
    /// re-grafted onto healthy attachment points (or, when `rebuilt`, the
    /// whole tree was reconstructed from scratch). A network-scoped event
    /// like [`TraceEventKind::Health`]: `packet` is
    /// [`NETWORK_EVENT_PACKET`] and `node` is the tree's root. Emitted
    /// once per repair, before the operation's `Inject` events.
    TreeRepair {
        /// Orphaned subtrees reattached in place.
        regrafted: u64,
        /// Nodes those subtrees carried back into coverage.
        reattached: u64,
        /// Healthy nodes the repair could not reconnect to the root.
        lost: u64,
        /// The tree was rebuilt from scratch instead of patched.
        rebuilt: bool,
    },
}

/// One flight-recorder event: a packet did something at a node on a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event took effect.
    pub cycle: u64,
    /// Packet id (injection order, unique within a run).
    pub packet: u64,
    /// Node where the event happened (for `Hop`: the node arrived at).
    pub node: NodeId,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Render as one JSONL line (no trailing newline): one flat object,
    /// fields in a fixed order, read back by [`crate::replay::parse_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let head = format!(
            "{{\"cycle\":{},\"packet\":{},\"node\":{}",
            self.cycle, self.packet, self.node.0
        );
        let tail = match self.kind {
            TraceEventKind::Inject { dst, planned_hops } => {
                format!(
                    ",\"event\":\"inject\",\"dst\":{},\"planned_hops\":{planned_hops}}}",
                    dst.0
                )
            }
            TraceEventKind::Hop { from } => {
                format!(",\"event\":\"hop\",\"from\":{}}}", from.0)
            }
            TraceEventKind::StaleView { blocked } => {
                format!(",\"event\":\"stale_view\",\"blocked\":{}}}", blocked.0)
            }
            TraceEventKind::Reroute { budget_left } => {
                format!(",\"event\":\"reroute\",\"budget_left\":{budget_left}}}")
            }
            TraceEventKind::Drop { cause } => {
                format!(",\"event\":\"drop\",\"cause\":\"{}\"}}", cause.as_str())
            }
            TraceEventKind::Deliver { latency, hops } => {
                format!(",\"event\":\"deliver\",\"latency\":{latency},\"hops\":{hops}}}")
            }
            TraceEventKind::Health { state, faults } => {
                format!(
                    ",\"event\":\"health\",\"state\":\"{}\",\"faults\":{faults}}}",
                    state.as_str()
                )
            }
            TraceEventKind::TreeSwitch {
                tree,
                switches,
                exhausted,
            } => {
                format!(
                    ",\"event\":\"tree_switch\",\"tree\":{tree},\"switches\":{switches},\"exhausted\":{exhausted}}}"
                )
            }
            TraceEventKind::TreeRepair {
                regrafted,
                reattached,
                lost,
                rebuilt,
            } => {
                format!(
                    ",\"event\":\"tree_repair\",\"regrafted\":{regrafted},\"reattached\":{reattached},\"lost\":{lost},\"rebuilt\":{rebuilt}}}"
                )
            }
        };
        head + &tail
    }
}

/// Consumer of the engine's event stream.
///
/// The engine monomorphises over the sink, and guards every event
/// construction with [`TraceSink::enabled`], so a sink whose `enabled`
/// is a constant `false` costs nothing — not even the event struct.
pub trait TraceSink {
    /// Whether events should be generated at all. The engine checks this
    /// before *constructing* each event, so return `false` from a
    /// constant implementation to compile tracing out entirely.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Called in deterministic engine order.
    fn record(&mut self, event: &TraceEvent);
}

/// Mutable references are sinks too: this is what lets
/// [`crate::SimSession::trace`] borrow a caller-owned sink (`&mut sink`)
/// while the session stores its sink by value.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event)
    }
}

/// The tracing-off sink: `enabled()` is a constant `false`, so the
/// monomorphised engine contains no tracing code at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn record(&mut self, _event: &TraceEvent) {}
}

/// In-memory sink: keeps the whole flight record for replay verification
/// and post-run analysis.
#[derive(Clone, Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty recorder.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, yielding its events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Drop every event after the first `len` — rewinding the record to a
    /// checkpoint's trace mark, so a restored run appends its re-executed
    /// suffix onto exactly the prefix it branched from. No-op when the
    /// sink already holds `len` events or fewer.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Streaming JSONL sink: writes one line per event into any [`Write`].
///
/// I/O errors are latched (the first one wins) instead of panicking
/// mid-simulation; check [`JsonlSink::finish`] after the run.
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer (use a `BufWriter` for files).
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            written: 0,
            error: None,
        }
    }

    /// Wrap a writer and stamp the artifact's provenance header
    /// ([`crate::artifact::ArtifactMeta`]) as the first line. A write
    /// failure is latched like any event write; the header does not
    /// count toward [`JsonlSink::written`].
    pub fn with_meta(out: W, meta: &crate::artifact::ArtifactMeta) -> JsonlSink<W> {
        let mut sink = JsonlSink::new(out);
        if let Err(e) = writeln!(sink.out, "{}", meta.to_jsonl_line()) {
            sink.error = Some(e);
        }
        sink
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The latched I/O error, if any write has failed. Lets callers abort
    /// a doomed run early instead of discovering the failure at
    /// [`JsonlSink::finish`].
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flush and surface any latched I/O error.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        match writeln!(self.out, "{}", event.to_jsonl()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Serialise a recorded trace as a JSONL string (one event per line).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 3,
                packet: 0,
                node: NodeId(5),
                kind: TraceEventKind::Inject {
                    dst: NodeId(9),
                    planned_hops: 4,
                },
            },
            TraceEvent {
                cycle: 4,
                packet: 0,
                node: NodeId(7),
                kind: TraceEventKind::Hop { from: NodeId(5) },
            },
            TraceEvent {
                cycle: 5,
                packet: 0,
                node: NodeId(7),
                kind: TraceEventKind::StaleView { blocked: NodeId(6) },
            },
            TraceEvent {
                cycle: 5,
                packet: 0,
                node: NodeId(7),
                kind: TraceEventKind::Reroute { budget_left: 7 },
            },
            TraceEvent {
                cycle: 5,
                packet: 0,
                node: NodeId(7),
                kind: TraceEventKind::TreeSwitch {
                    tree: 1,
                    switches: 1,
                    exhausted: false,
                },
            },
            TraceEvent {
                cycle: 9,
                packet: 0,
                node: NodeId(9),
                kind: TraceEventKind::Deliver {
                    latency: 6,
                    hops: 5,
                },
            },
            TraceEvent {
                cycle: 11,
                packet: 1,
                node: NodeId(2),
                kind: TraceEventKind::Drop {
                    cause: DropCause::TtlExpired,
                },
            },
            TraceEvent {
                cycle: 12,
                packet: NETWORK_EVENT_PACKET,
                node: NodeId(0),
                kind: TraceEventKind::Health {
                    state: HealthState::Degraded,
                    faults: 2,
                },
            },
            TraceEvent {
                cycle: 13,
                packet: NETWORK_EVENT_PACKET,
                node: NodeId(3),
                kind: TraceEventKind::TreeRepair {
                    regrafted: 2,
                    reattached: 9,
                    lost: 1,
                    rebuilt: false,
                },
            },
        ]
    }

    #[test]
    fn jsonl_lines_are_flat_json() {
        for e in sample_events() {
            let line = e.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"cycle\":"), "{line}");
            assert!(line.contains("\"event\":\""), "{line}");
            assert!(!line.contains('\n'));
        }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let mut sink = MemorySink::new();
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.events(), sample_events().as_slice());
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(MemorySink::new().enabled());
    }

    #[test]
    fn jsonl_sink_streams_and_counts() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for e in sample_events() {
                sink.record(&e);
            }
            assert_eq!(sink.finish().unwrap(), 9);
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 9);
        assert_eq!(text, to_jsonl(&sample_events()));
    }

    /// A writer that fails after `ok` successful writes — a stand-in for
    /// a disk filling up mid-run.
    struct FailAfter {
        ok: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "disk full"));
            }
            self.ok -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_io_errors_and_surfaces_them() {
        let mut sink = JsonlSink::new(FailAfter { ok: 2 });
        for e in sample_events() {
            sink.record(&e); // must not panic once the writer dies
        }
        // writeln! may split a line across write calls, so only bound it.
        assert!(sink.written() >= 1 && sink.written() < 9);
        let err = sink.error().expect("error latched");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let err = sink.finish().expect_err("finish surfaces the error");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn drop_cause_names_round_trip() {
        for c in [
            DropCause::Stranded,
            DropCause::Unrecoverable,
            DropCause::TtlExpired,
        ] {
            assert_eq!(DropCause::from_str(c.as_str()), Some(c));
        }
        assert_eq!(DropCause::from_str("gremlins"), None);
    }
}
