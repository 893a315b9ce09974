//! Replay verification: re-execute a recorded run and assert
//! event-for-event equality.
//!
//! The engine is deterministic and fully seeded, so a run's flight
//! record ([`crate::trace`]) is a pure function of the
//! [`SimConfig`](crate::config::SimConfig) and routing algorithm. That
//! makes a recorded trace *checkable*: [`verify_replay`] re-runs the
//! simulation and compares the two streams event by event — through a
//! streaming comparator sink, so the re-executed trace is never
//! materialised (memory stays bounded by the *recorded* trace, however
//! long the replay runs). Any divergence — a non-deterministic data
//! structure, an RNG ordering change, a corrupted trace file — is
//! reported with the index and both versions of the first mismatching
//! event.
//!
//! The JSONL side ([`parse_jsonl`]) reads each line with the shared
//! lexer's borrowed entry point ([`Line`]) and is strict about the schema
//! [`TraceEvent::to_jsonl`] writes: an unknown, missing, duplicated or
//! mistyped field is an error naming the line.

use std::fmt;

use gcube_routing::faults::HealthState;
use gcube_topology::NodeId;

use crate::artifact::{ArtifactKind, ArtifactMeta};
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::proto::{Fields, Line};
use crate::strategy::RoutingAlgorithm;
use crate::trace::{DropCause, TraceEvent, TraceEventKind, TraceSink};

/// Why a replay check failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The re-executed run produced a different event at `index`.
    Mismatch {
        /// Position (0-based) of the first diverging event.
        index: usize,
        /// What the recorded trace says happened.
        recorded: TraceEvent,
        /// What the re-executed run actually did.
        replayed: TraceEvent,
    },
    /// The streams agree on their common prefix but have different
    /// lengths.
    LengthMismatch {
        /// Events in the recorded trace.
        recorded: usize,
        /// Events in the re-executed run.
        replayed: usize,
    },
    /// The simulator refused the configuration.
    Config(String),
    /// A JSONL line could not be parsed (line number is 1-based).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Mismatch {
                index,
                recorded,
                replayed,
            } => write!(
                f,
                "replay diverged at event {index}: recorded {recorded}, replayed {replayed}"
            ),
            ReplayError::LengthMismatch { recorded, replayed } => write!(
                f,
                "replay event count differs: recorded {recorded}, replayed {replayed}"
            ),
            ReplayError::Config(msg) => write!(f, "replay config rejected: {msg}"),
            ReplayError::Parse { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Streaming comparator: checks the re-executed stream against the
/// recorded one as events are emitted, holding only a cursor and the
/// first divergence. The old implementation materialised a second
/// [`MemorySink`](crate::trace::MemorySink) copy of the whole replay;
/// this keeps verification memory bounded by the recorded slice alone.
struct CompareSink<'r> {
    recorded: &'r [TraceEvent],
    /// Events the re-executed run has emitted so far.
    replayed: usize,
    /// First mismatch, latched; later events are only counted.
    divergence: Option<ReplayError>,
}

impl TraceSink for CompareSink<'_> {
    fn record(&mut self, event: &TraceEvent) {
        let index = self.replayed;
        self.replayed += 1;
        if self.divergence.is_some() {
            return;
        }
        if let Some(r) = self.recorded.get(index) {
            if r != event {
                self.divergence = Some(ReplayError::Mismatch {
                    index,
                    recorded: *r,
                    replayed: *event,
                });
            }
        }
        // Replay running past the record is a length mismatch, reported
        // with the full replayed count once the run finishes.
    }
}

/// Re-execute `config` under `algorithm` and check the resulting event
/// stream equals `recorded`, event for event. `Ok(n)` returns the number
/// of matching events.
pub fn verify_replay(
    config: SimConfig,
    algorithm: &dyn RoutingAlgorithm,
    recorded: &[TraceEvent],
) -> Result<usize, ReplayError> {
    let sim =
        Simulator::try_new(config, algorithm).map_err(|e| ReplayError::Config(e.to_string()))?;
    let mut sink = CompareSink {
        recorded,
        replayed: 0,
        divergence: None,
    };
    sim.session().trace(&mut sink).run();
    if let Some(err) = sink.divergence {
        return Err(err);
    }
    if recorded.len() != sink.replayed {
        return Err(ReplayError::LengthMismatch {
            recorded: recorded.len(),
            replayed: sink.replayed,
        });
    }
    Ok(sink.replayed)
}

/// Parse a whole JSONL trace (one event per non-empty line) back into
/// events. Inverse of [`crate::trace::to_jsonl`]. A leading
/// [`ArtifactMeta`] header line is validated and skipped; see
/// [`parse_jsonl_with_meta`] to keep it.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, ReplayError> {
    parse_jsonl_with_meta(text).map(|(_, events)| events)
}

/// Parse a whole JSONL trace, returning the provenance header (if the
/// file has one) alongside the events. A file without a header is a v0
/// artifact and parses to `(None, events)`; a *malformed* or
/// wrong-kind header is an error, as is a header that is not the first
/// non-blank line.
pub fn parse_jsonl_with_meta(
    text: &str,
) -> Result<(Option<ArtifactMeta>, Vec<TraceEvent>), ReplayError> {
    let mut meta = None;
    let mut events = Vec::new();
    let mut fields = Line::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if ArtifactMeta::is_meta_line(line) {
            let parse_err = |message| ReplayError::Parse {
                line: i + 1,
                message,
            };
            if meta.is_some() || !events.is_empty() {
                return Err(parse_err(
                    "meta header must be the first non-blank line".to_string(),
                ));
            }
            let m = ArtifactMeta::parse(line)
                .expect("is_meta_line implies parse returns Some")
                .map_err(parse_err)?;
            if m.kind != ArtifactKind::Trace {
                return Err(ReplayError::Parse {
                    line: i + 1,
                    message: format!("expected a trace artifact, got {}", m.kind),
                });
            }
            meta = Some(m);
            continue;
        }
        let event = fields.read(line).and_then(|()| event_from(&fields));
        events.push(event.map_err(|message| ReplayError::Parse {
            line: i + 1,
            message,
        })?);
    }
    Ok((meta, events))
}

/// The event one line of the flat trace schema describes, its fields read
/// in the order [`TraceEvent::to_jsonl`] writes them.
#[rustfmt::skip] // one row per event kind
fn event_from(f: &Line<'_>) -> Result<TraceEvent, String> {
    use TraceEventKind as K;
    fn named<T>(f: &Line<'_>, key: &str, parse: fn(&str) -> Option<T>) -> Result<T, String> {
        let t = f.req(key)?;
        parse(t).ok_or_else(|| format!("unknown {key} {t:?}"))
    }
    let id = |key: &str| f.req(key).map(NodeId);
    let (cycle, packet, node) = (f.req("cycle")?, f.req("packet")?, id("node")?);
    // Each kind, with the number of fields it adds to the four every
    // line carries.
    let (kind, own) = match f.req("event")? {
        "inject" => (K::Inject { dst: id("dst")?, planned_hops: f.req("planned_hops")? }, 2),
        "hop" => (K::Hop { from: id("from")? }, 1),
        "stale_view" => (K::StaleView { blocked: id("blocked")? }, 1),
        "reroute" => (K::Reroute { budget_left: f.req("budget_left")? }, 1),
        "drop" => (K::Drop { cause: named(f, "cause", DropCause::from_str)? }, 1),
        "deliver" => (K::Deliver { latency: f.req("latency")?, hops: f.req("hops")? }, 2),
        "health" => (K::Health {
            state: named(f, "state", HealthState::from_str)?,
            faults: f.req("faults")?,
        }, 2),
        "tree_switch" => (K::TreeSwitch {
            tree: f.req("tree")?,
            switches: f.req("switches")?,
            exhausted: f.req("exhausted")?,
        }, 3),
        "tree_repair" => (K::TreeRepair {
            regrafted: f.req("regrafted")?,
            reattached: f.req("reattached")?,
            lost: f.req("lost")?,
            rebuilt: f.req("rebuilt")?,
        }, 4),
        other => return Err(format!("unknown event type {other:?}")),
    };
    f.expect_len(4 + own)?;
    Ok(TraceEvent { cycle, packet, node, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::to_jsonl;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 0,
                packet: 0,
                node: NodeId(1),
                kind: TraceEventKind::Inject {
                    dst: NodeId(6),
                    planned_hops: 3,
                },
            },
            TraceEvent {
                cycle: 1,
                packet: 0,
                node: NodeId(3),
                kind: TraceEventKind::Hop { from: NodeId(1) },
            },
            TraceEvent {
                cycle: 2,
                packet: 0,
                node: NodeId(3),
                kind: TraceEventKind::StaleView { blocked: NodeId(2) },
            },
            TraceEvent {
                cycle: 2,
                packet: 0,
                node: NodeId(3),
                kind: TraceEventKind::Reroute { budget_left: 4 },
            },
            TraceEvent {
                cycle: 2,
                packet: 0,
                node: NodeId(3),
                kind: TraceEventKind::TreeSwitch {
                    tree: 1,
                    switches: 1,
                    exhausted: false,
                },
            },
            TraceEvent {
                cycle: 3,
                packet: 2,
                node: NodeId(5),
                kind: TraceEventKind::TreeSwitch {
                    tree: 0,
                    switches: 2,
                    exhausted: true,
                },
            },
            TraceEvent {
                cycle: 6,
                packet: 0,
                node: NodeId(6),
                kind: TraceEventKind::Deliver {
                    latency: 6,
                    hops: 4,
                },
            },
            TraceEvent {
                cycle: 7,
                packet: 1,
                node: NodeId(2),
                kind: TraceEventKind::Drop {
                    cause: DropCause::Stranded,
                },
            },
            TraceEvent {
                cycle: 8,
                packet: crate::trace::NETWORK_EVENT_PACKET,
                node: NodeId(0),
                kind: TraceEventKind::Health {
                    state: HealthState::BoundExceeded,
                    faults: 5,
                },
            },
            TraceEvent {
                cycle: 9,
                packet: crate::trace::NETWORK_EVENT_PACKET,
                node: NodeId(4),
                kind: TraceEventKind::TreeRepair {
                    regrafted: 1,
                    reattached: 6,
                    lost: 0,
                    rebuilt: true,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample_events();
        let text = to_jsonl(&events);
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"cycle\":1}").is_err());
        assert!(parse_jsonl("{\"cycle\":1,\"packet\":0,\"node\":2,\"event\":\"warp\"}").is_err());
        assert!(parse_jsonl(
            "{\"cycle\":1,\"packet\":0,\"node\":2,\"event\":\"drop\",\"cause\":\"x\"}"
        )
        .is_err());
        assert!(
            parse_jsonl(
                "{\"cycle\":1,\"packet\":0,\"node\":2,\"event\":\"tree_switch\",\
                 \"tree\":1,\"switches\":0,\"exhausted\":\"maybe\"}"
            )
            .is_err(),
            "exhausted must be an unquoted bool"
        );
        assert!(
            parse_jsonl(
                "{\"cycle\":1,\"packet\":0,\"node\":2,\"event\":\"tree_repair\",\
                 \"regrafted\":1,\"reattached\":3,\"lost\":0,\"rebuilt\":\"no\"}"
            )
            .is_err(),
            "rebuilt must be an unquoted bool"
        );
        assert!(
            parse_jsonl(
                "{\"cycle\":1,\"packet\":0,\"node\":2,\"event\":\"tree_repair\",\
                 \"regrafted\":1,\"reattached\":3,\"rebuilt\":false}"
            )
            .is_err(),
            "tree_repair requires the lost field"
        );
        // Error carries the 1-based line number.
        let err = parse_jsonl(
            "{\"cycle\":0,\"packet\":0,\"node\":0,\"event\":\"hop\",\"from\":1}\nbroken",
        )
        .unwrap_err();
        match err {
            ReplayError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn meta_header_is_validated_and_optional() {
        use crate::artifact::ARTIFACT_FORMAT;
        let events = sample_events();
        let meta = ArtifactMeta {
            kind: ArtifactKind::Trace,
            format: ARTIFACT_FORMAT,
            n: 6,
            modulus: 2,
            seed: 42,
            threads: 4,
            strategy: "ftgcr".to_string(),
        };
        let mut text = meta.to_jsonl_line();
        text.push('\n');
        text.push_str(&to_jsonl(&events));

        // Stamped file: both entry points parse, meta comes back.
        assert_eq!(parse_jsonl(&text).unwrap(), events);
        let (m, ev) = parse_jsonl_with_meta(&text).unwrap();
        assert_eq!(m.as_ref(), Some(&meta));
        assert_eq!(ev, events);

        // Unstamped file is v0: meta is None.
        let (m, ev) = parse_jsonl_with_meta(&to_jsonl(&events)).unwrap();
        assert!(m.is_none());
        assert_eq!(ev, events);

        // Wrong-kind header is rejected.
        let mut telem = meta.clone();
        telem.kind = ArtifactKind::Telemetry;
        let bad = format!("{}\n{}", telem.to_jsonl_line(), to_jsonl(&events));
        assert!(parse_jsonl_with_meta(&bad).is_err());

        // A header after the first event is rejected with its line.
        let late = format!("{}{}", to_jsonl(&events), meta.to_jsonl_line());
        match parse_jsonl_with_meta(&late).unwrap_err() {
            ReplayError::Parse { line, message } => {
                assert_eq!(line, events.len() + 1);
                assert!(message.contains("first non-blank line"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }

        // A malformed header is an error, not silently treated as v0.
        let broken = format!("{{\"meta\":\"trace\"}}\n{}", to_jsonl(&events));
        assert!(parse_jsonl_with_meta(&broken).is_err());
    }

    #[test]
    fn parse_skips_blank_lines() {
        let events = sample_events();
        let mut text = String::from("\n");
        text.push_str(&to_jsonl(&events));
        text.push('\n');
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }
}
