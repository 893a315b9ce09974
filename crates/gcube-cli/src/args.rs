//! Hand-rolled argument parsing for the `gcube` CLI (no external parser —
//! the offline dependency budget is spent on the science crates).

use gcube_routing::multitree::MAX_TREES;
use gcube_sim::traffic::TrafficPattern;
use gcube_sim::{
    CategoryMix, CollectiveOp, FaultKind, FaultSchedule, FaultTarget, KnowledgeModel, SimError,
    TimedFault,
};
use gcube_topology::{GaussianCube, LinkId, NodeId};

/// Routing strategy selector of `gcube run`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyArg {
    /// FFGCR on fault-free runs, FTGCR as soon as any fault is possible.
    Auto,
    /// Plan-cached FFGCR (fault-oblivious), regardless of faults.
    Ffgcr,
    /// Plan-cached FTGCR.
    Ftgcr,
    /// Independent spanning trees with FTGCR fallback (`--trees K`).
    Multitree,
}

/// Dynamic-fault options of `gcube run` (all default to "off").
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnArgs {
    /// Fault events applied mid-run.
    pub schedule: FaultSchedule,
    /// Knowledge-convergence model.
    pub knowledge: KnowledgeModel,
    /// Per-packet hop budget override.
    pub ttl: Option<u64>,
    /// Per-packet local re-route budget.
    pub reroute_budget: u32,
    /// Delivery-ratio window width in cycles.
    pub window: u64,
}

impl Default for ChurnArgs {
    fn default() -> ChurnArgs {
        ChurnArgs {
            schedule: FaultSchedule::None,
            knowledge: KnowledgeModel::Oracle,
            ttl: None,
            reroute_budget: 8,
            window: 100,
        }
    }
}

/// Parsed CLI command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `gcube topology <n> <M>` — structure summary.
    Topology {
        /// Dimension.
        n: u32,
        /// Modulus.
        modulus: u64,
    },
    /// `gcube route <n> <M> <s> <d> [--fault-node V]* [--fault-link V:DIM]*
    /// [--fault-free]` — compute and print a route.
    Route {
        /// Dimension.
        n: u32,
        /// Modulus.
        modulus: u64,
        /// Source label.
        s: u64,
        /// Destination label.
        d: u64,
        /// Faulty nodes.
        fault_nodes: Vec<NodeId>,
        /// Faulty links.
        fault_links: Vec<LinkId>,
        /// Use FFGCR (fault-oblivious) instead of FTGCR.
        fault_free: bool,
    },
    /// `gcube run <n> <M> [--rate R] [--cycles C] [--faults K]
    /// [--pattern P] [--seed S]` plus the churn flags (see [`USAGE`]) —
    /// run the cycle simulator.
    Run {
        /// Dimension.
        n: u32,
        /// Modulus.
        modulus: u64,
        /// Injection rate.
        rate: f64,
        /// Injection cycles.
        cycles: u64,
        /// Faulty node count.
        faults: usize,
        /// Traffic pattern.
        pattern: TrafficPattern,
        /// RNG seed.
        seed: u64,
        /// Dynamic-fault options.
        churn: ChurnArgs,
        /// Write a JSONL flight-recorder trace to this path.
        trace: Option<String>,
        /// Print latency/hop percentiles alongside the averages.
        percentiles: bool,
        /// Re-execute the run and check it replays event-for-event.
        verify_replay: bool,
        /// Write the telemetry time series to this path (CSV, or JSONL
        /// when the path ends in `.jsonl`).
        telemetry: Option<String>,
        /// Cycles per telemetry sampling window.
        telemetry_interval: u64,
        /// Print the end-of-run health report (implies collecting
        /// telemetry).
        health_report: bool,
        /// Write the per-shard/per-phase profile (JSONL) to this path
        /// and print the profiler report. Samples every
        /// `telemetry_interval` cycles.
        profile: Option<String>,
        /// Worker threads (`0` = available parallelism, `1` = the
        /// one-shard schedule).
        threads: usize,
        /// Routing strategy override.
        strategy: StrategyArg,
        /// Spanning trees per bundle for `--strategy multitree`.
        trees: usize,
        /// Periodic collective traffic class riding alongside unicast.
        collective: Option<CollectiveOp>,
        /// Cycles between collective operations.
        collective_interval: u64,
    },
    /// `gcube serve [--socket PATH | --connect PATH] [--max-sessions N]
    /// [--workers N]` — the routing-as-a-service daemon (or, with
    /// `--connect`, a line-pumping client for an already-running one).
    Serve {
        /// Bind a Unix socket here and accept concurrent connections;
        /// `None` speaks the protocol on stdin/stdout instead.
        socket: Option<String>,
        /// Client mode: connect to a daemon's socket and pipe
        /// stdin/stdout through it.
        connect: Option<String>,
        /// Admission-control cap on concurrently open sessions.
        max_sessions: usize,
        /// Execution permits for cycle-advancing requests (`0` =
        /// available parallelism).
        workers: usize,
    },
    /// `gcube analyze <trace|profile|diff> ...` — offline forensics over
    /// recorded run artifacts (see [`AnalyzeMode`]).
    Analyze {
        /// Which analysis to run.
        mode: AnalyzeMode,
    },
    /// `gcube diameter [max_m]` — Figure 2 series.
    Diameter {
        /// Largest tree order.
        max_m: u32,
    },
    /// `gcube tolerance [max_n]` — Figure 4 series.
    Tolerance {
        /// Largest dimension.
        max_n: u32,
    },
    /// `gcube robustness <n> <M> <k>` — unified fault-tolerance metrics.
    Robustness {
        /// Dimension.
        n: u32,
        /// Modulus.
        modulus: u64,
        /// Faults per trial.
        k: usize,
    },
    /// `gcube help`.
    Help,
}

/// The three `gcube analyze` sub-modes.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalyzeMode {
    /// Reconstruct a recorded JSONL trace: run summary, fault-impact
    /// attribution, congestion hot-spots — or one packet's timeline.
    Trace {
        /// Trace artifact path.
        path: String,
        /// Print this packet's full timeline instead of the tables.
        packet: Option<u64>,
        /// Rows per hot-spot/impact table.
        top: usize,
    },
    /// Render a profiler artifact's phase/imbalance breakdown.
    Profile {
        /// Profile artifact path.
        path: String,
    },
    /// A/B regression gate: compare the deterministic content of two
    /// artifacts (e.g. a 1-thread and a 4-thread run).
    Diff {
        /// Baseline artifact path.
        a: String,
        /// Candidate artifact path.
        b: String,
    },
}

/// The usage banner printed by `gcube help` and on errors.
pub const USAGE: &str = "\
gcube — Gaussian Cube fault-tolerant routing (ICPP 2003 reproduction)

USAGE:
  gcube topology <n> <M>
  gcube route <n> <M> <src> <dst> [--fault-node V]... [--fault-link V:DIM]... [--fault-free]
  gcube run <n> <M> [--rate R] [--cycles C] [--faults K] [--pattern P] [--seed S]
            [--threads N] [--strategy S] [--trees K]
            [--collective OP] [--collective-interval I]
            [--churn R | --fault-at SPEC]... [--fault-kind KIND] [--mix A:B:C]
            [--node-fraction F] [--knowledge MODEL] [--ttl T]
            [--reroute-budget B] [--window W]
            [--trace PATH] [--percentiles] [--verify-replay]
            [--telemetry PATH] [--telemetry-interval I] [--health-report]
            [--profile PATH]
  gcube serve [--socket PATH | --connect PATH] [--max-sessions N] [--workers N]
  gcube analyze trace <PATH> [--packet ID] [--top K]
  gcube analyze profile <PATH>
  gcube analyze diff <A> <B>
  gcube diameter [max_m]
  gcube tolerance [max_n]
  gcube robustness <n> <M> <k>
  gcube help

PATTERNS: uniform (default), complement, reversal, transpose
STRATEGY:
  --strategy S         auto (default) | ffgcr | ftgcr | multitree
                       auto picks FFGCR on fault-free runs and FTGCR
                       otherwise; multitree routes over independent
                       spanning trees, switching trees on faults and
                       falling back to FTGCR only when every tree is
                       blocked — it keeps delivering past the Theorem-3
                       fault budget
  --trees K            spanning trees per ending-class bundle for
                       --strategy multitree (default 2, max 2)
COLLECTIVES (fault-tolerant tree traffic riding alongside unicast):
  --collective OP      broadcast | multicast | gather — launch one
                       operation every interval over the fault-screened
                       broadcast tree of a rotating root class; faults on
                       tree edges are repaired by subtree re-grafting
                       (re-rooting only when the root itself dies)
  --collective-interval I  cycles between operations (default 50)
PARALLELISM:
  --threads N          worker threads for the deterministic shard engine
                       (default 1 = sequential, 0 = all available cores);
                       the effective shard count is capped at the cube's
                       2^alpha ending classes, and any N produces bitwise
                       identical results. Oversubscribing cores is safe:
                       workers park between rounds instead of spinning,
                       so N above the core count costs bounded barrier
                       overhead, not a slowdown storm
CHURN (dynamic faults applied while packets are in flight):
  --churn R            per-cycle Bernoulli fault-arrival probability
  --fault-at SPEC      scripted event, CYCLE:node:V or CYCLE:link:V:DIM (repeatable)
  --fault-kind KIND    permanent (default) | transient:REPAIR | intermittent:DOWN:PERIOD
  --mix A:B:C          category placement weights for --churn (default 1:1:1)
  --node-fraction F    probability a --churn arrival hits a node, not a link (default 0.5)
  --knowledge MODEL    oracle (default) | paper | measured — stale-view convergence
  --ttl T              per-packet hop budget (default 4n+16)
  --reroute-budget B   local re-routes per packet before dropping (default 8)
  --window W           delivery-ratio window width in cycles (default 100)
OBSERVABILITY:
  --trace PATH         record every packet event (inject/hop/stale-view/
                       reroute/drop/deliver) as JSONL to PATH
  --percentiles        print p50/p95/p99/max latency and hop percentiles
  --verify-replay      re-execute the run and assert it replays
                       event-for-event (determinism check)
  --telemetry PATH     record the network time series (per-dimension link
                       utilization, ending-class queues, cache hit rate,
                       churn and health columns) to PATH — CSV, or JSONL
                       when PATH ends in .jsonl
  --telemetry-interval I   cycles per telemetry sampling window (default 100)
  --health-report      print the end-of-run health report: utilization
                       profile, Theorem 3 fault-budget standing, health
                       transitions, and phase timings
  --profile PATH       record the per-shard performance profile to PATH
                       (JSONL) and print the profiler report: per-window
                       deterministic counters (injected/moved/in-flight,
                       queue imbalance, plan-cache deltas) plus
                       report-only wall-clock phase and barrier timings;
                       samples every --telemetry-interval cycles
FORENSICS (offline analysis of recorded artifacts):
  analyze trace PATH   reconstruct the run: packet outcomes, per-fault
                       impact attribution (stale views, reroutes, drops
                       and wasted hops per blocked node), and top-K
                       congested links/nodes; --packet ID prints one
                       packet's event-by-event timeline, --top K resizes
                       the tables (default 10)
  analyze profile PATH render a profile artifact: provenance, sample
                       windows, load-imbalance factor, wall-clock phase
                       split and the per-shard barrier/planning table
  analyze diff A B     the A/B regression gate: strip report-only
                       wall-clock lines, validate provenance headers,
                       and require the deterministic remainder to match
                       line for line (exit 1 on divergence)
SERVE (routing as a service — newline-delimited JSON, one request per line):
  --socket PATH        bind a Unix socket and serve concurrent
                       connections (default: speak the protocol on
                       stdin/stdout — handy for piped smoke tests)
  --connect PATH       client mode: pipe stdin/stdout through a
                       daemon already listening on PATH
  --max-sessions N     admission-control cap on open sessions
                       (default 64; `open` past it answers
                       admission_refused)
  --workers N          execution permits for step/run requests
                       (default 0 = available parallelism); idle
                       sessions hold no permit
  Requests: open, step, run, snapshot, restore, telemetry, close,
  shutdown — see DESIGN.md §16 for the full protocol grammar.
Node labels are decimal or binary with a 0b prefix.";

fn parse_label(s: &str) -> Result<u64, SimError> {
    let parsed = if let Some(bin) = s.strip_prefix("0b") {
        u64::from_str_radix(bin, 2)
    } else {
        s.parse::<u64>()
    };
    parsed.map_err(|_| SimError::Cli(format!("invalid node label: {s}")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, SimError> {
    s.parse()
        .map_err(|_| SimError::Cli(format!("invalid {what}: {s}")))
}

/// `permanent` | `transient:REPAIR` | `intermittent:DOWN:PERIOD`.
fn parse_kind(s: &str) -> Result<FaultKind, SimError> {
    let mut parts = s.split(':');
    match parts.next() {
        Some("permanent") => match parts.next() {
            None => Ok(FaultKind::Permanent),
            Some(_) => Err(SimError::Cli(format!("permanent takes no parameters: {s}"))),
        },
        Some("transient") => {
            let repair_after = parse_num(parts.next().unwrap_or(""), "transient repair delay")?;
            Ok(FaultKind::Transient { repair_after })
        }
        Some("intermittent") => {
            let down_for = parse_num(parts.next().unwrap_or(""), "intermittent down time")?;
            let period = parse_num(parts.next().unwrap_or(""), "intermittent period")?;
            if period <= down_for {
                return Err(SimError::Cli(format!(
                    "intermittent period must exceed its down time: {s}"
                )));
            }
            Ok(FaultKind::Intermittent { down_for, period })
        }
        _ => Err(SimError::Cli(format!(
            "fault kind must be permanent, transient:REPAIR or intermittent:DOWN:PERIOD, got {s}"
        ))),
    }
}

/// `A:B:C` category weights.
fn parse_mix(s: &str) -> Result<CategoryMix, SimError> {
    let parts: Vec<&str> = s.split(':').collect();
    let [a, b, c] = parts.as_slice() else {
        return Err(SimError::Cli(format!("mix must be A:B:C, got {s}")));
    };
    Ok(CategoryMix {
        a: parse_num(a, "A-category weight")?,
        b: parse_num(b, "B-category weight")?,
        c: parse_num(c, "C-category weight")?,
    })
}

/// `CYCLE:node:V` or `CYCLE:link:V:DIM`; the persistence comes from the
/// session-wide `--fault-kind`.
fn parse_timed(s: &str, kind: FaultKind) -> Result<TimedFault, SimError> {
    let parts: Vec<&str> = s.split(':').collect();
    match parts.as_slice() {
        [cycle, "node", v] => Ok(TimedFault {
            cycle: parse_num(cycle, "event cycle")?,
            target: FaultTarget::Node(NodeId(parse_label(v)?)),
            kind,
        }),
        [cycle, "link", v, dim] => Ok(TimedFault {
            cycle: parse_num(cycle, "event cycle")?,
            target: FaultTarget::link(NodeId(parse_label(v)?), parse_num(dim, "link dimension")?),
            kind,
        }),
        _ => Err(SimError::Cli(format!(
            "fault event must be CYCLE:node:V or CYCLE:link:V:DIM, got {s}"
        ))),
    }
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, SimError> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "topology" => {
            let n = parse_num(next(&mut it, "n")?, "dimension n")?;
            let modulus = parse_num(next(&mut it, "M")?, "modulus M")?;
            reject_extra(&mut it)?;
            Ok(Command::Topology { n, modulus })
        }
        "route" => {
            let n = parse_num(next(&mut it, "n")?, "dimension n")?;
            let modulus = parse_num(next(&mut it, "M")?, "modulus M")?;
            let s = parse_label(next(&mut it, "src")?)?;
            let d = parse_label(next(&mut it, "dst")?)?;
            // Fault flags name nodes and links of this cube.
            let gc = GaussianCube::new(n, modulus).map_err(|e| SimError::InvalidTopology {
                n,
                modulus,
                reason: e.to_string(),
            });
            let check = |t: FaultTarget| t.check(gc.as_ref().map_err(SimError::clone)?);
            let mut fault_nodes = Vec::new();
            let mut fault_links = Vec::new();
            let mut fault_free = false;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--fault-node" => {
                        let v = NodeId(parse_label(next(&mut it, "fault node")?)?);
                        check(FaultTarget::Node(v))?;
                        fault_nodes.push(v);
                    }
                    "--fault-link" => {
                        let spec = next(&mut it, "fault link")?;
                        let (v, dim) = spec.split_once(':').ok_or_else(|| {
                            SimError::Cli(format!("fault link must be V:DIM, got {spec}"))
                        })?;
                        let (v, dim) = (NodeId(parse_label(v)?), parse_num(dim, "link dimension")?);
                        check(FaultTarget::link(v, dim))?;
                        fault_links.push(LinkId::new(v, dim));
                    }
                    "--fault-free" => fault_free = true,
                    other => return Err(SimError::Cli(format!("unknown flag: {other}"))),
                }
            }
            Ok(Command::Route {
                n,
                modulus,
                s,
                d,
                fault_nodes,
                fault_links,
                fault_free,
            })
        }
        "run" => {
            let n = parse_num(next(&mut it, "n")?, "dimension n")?;
            let modulus = parse_num(next(&mut it, "M")?, "modulus M")?;
            let mut rate = 0.005f64;
            let mut cycles = 600u64;
            let mut faults = 0usize;
            let mut pattern = TrafficPattern::Uniform;
            let mut seed = 0x6ca5u64;
            let mut churn = ChurnArgs::default();
            let mut churn_rate: Option<f64> = None;
            let mut kind = FaultKind::Permanent;
            let mut mix = CategoryMix::default();
            let mut node_fraction = 0.5f64;
            let mut trace: Option<String> = None;
            let mut percentiles = false;
            let mut verify_replay = false;
            let mut telemetry: Option<String> = None;
            let mut telemetry_interval = 100u64;
            let mut health_report = false;
            let mut profile: Option<String> = None;
            let mut threads = 1usize;
            let mut strategy = StrategyArg::Auto;
            let mut trees: Option<usize> = None;
            let mut collective: Option<CollectiveOp> = None;
            let mut collective_interval: Option<u64> = None;
            // Raw --fault-at specs are re-parsed once --fault-kind is known
            // (flags may come in any order).
            let mut raw_events: Vec<String> = Vec::new();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--rate" => rate = parse_num(next(&mut it, "rate")?, "rate")?,
                    "--cycles" => cycles = parse_num(next(&mut it, "cycles")?, "cycles")?,
                    "--faults" => faults = parse_num(next(&mut it, "faults")?, "faults")?,
                    "--seed" => seed = parse_num(next(&mut it, "seed")?, "seed")?,
                    "--pattern" => {
                        pattern = match next(&mut it, "pattern")?.as_str() {
                            "uniform" => TrafficPattern::Uniform,
                            "complement" => TrafficPattern::BitComplement,
                            "reversal" => TrafficPattern::BitReversal,
                            "transpose" => TrafficPattern::Transpose,
                            p => return Err(SimError::Cli(format!("unknown pattern: {p}"))),
                        }
                    }
                    "--churn" => {
                        churn_rate = Some(parse_num(next(&mut it, "churn rate")?, "churn rate")?)
                    }
                    "--fault-at" => raw_events.push(next(&mut it, "fault event")?.clone()),
                    "--fault-kind" => kind = parse_kind(next(&mut it, "fault kind")?)?,
                    "--mix" => mix = parse_mix(next(&mut it, "category mix")?)?,
                    "--node-fraction" => {
                        node_fraction = parse_num(next(&mut it, "node fraction")?, "node fraction")?
                    }
                    "--knowledge" => {
                        churn.knowledge = match next(&mut it, "knowledge model")?.as_str() {
                            "oracle" => KnowledgeModel::Oracle,
                            "paper" => KnowledgeModel::PaperDelay,
                            "measured" => KnowledgeModel::Measured,
                            m => {
                                return Err(SimError::Cli(format!("unknown knowledge model: {m}")))
                            }
                        }
                    }
                    "--ttl" => churn.ttl = Some(parse_num(next(&mut it, "ttl")?, "ttl")?),
                    "--reroute-budget" => {
                        churn.reroute_budget =
                            parse_num(next(&mut it, "reroute budget")?, "reroute budget")?
                    }
                    "--window" => churn.window = parse_num(next(&mut it, "window")?, "window")?,
                    "--trace" => trace = Some(next(&mut it, "trace path")?.clone()),
                    "--percentiles" => percentiles = true,
                    "--verify-replay" => verify_replay = true,
                    "--telemetry" => telemetry = Some(next(&mut it, "telemetry path")?.clone()),
                    "--telemetry-interval" => {
                        telemetry_interval =
                            parse_num(next(&mut it, "telemetry interval")?, "telemetry interval")?;
                        if telemetry_interval == 0 {
                            return Err(SimError::Cli(
                                "telemetry interval must be at least 1 cycle".into(),
                            ));
                        }
                    }
                    "--health-report" => health_report = true,
                    "--profile" => profile = Some(next(&mut it, "profile path")?.clone()),
                    "--threads" => threads = parse_num(next(&mut it, "threads")?, "threads")?,
                    "--strategy" => {
                        strategy = match next(&mut it, "strategy")?.as_str() {
                            "auto" => StrategyArg::Auto,
                            "ffgcr" => StrategyArg::Ffgcr,
                            "ftgcr" => StrategyArg::Ftgcr,
                            "multitree" => StrategyArg::Multitree,
                            s => return Err(SimError::Cli(format!("unknown strategy: {s}"))),
                        }
                    }
                    "--trees" => {
                        trees = Some(parse_num(next(&mut it, "tree count")?, "tree count")?)
                    }
                    "--collective" => {
                        let op = next(&mut it, "collective op")?;
                        collective = Some(CollectiveOp::from_str(op).ok_or_else(|| {
                            SimError::Cli(format!(
                                "collective must be broadcast, multicast or gather, got {op}"
                            ))
                        })?);
                    }
                    "--collective-interval" => {
                        collective_interval = Some(parse_num(
                            next(&mut it, "collective interval")?,
                            "collective interval",
                        )?);
                        if collective_interval == Some(0) {
                            return Err(SimError::Cli(
                                "collective interval must be at least 1 cycle".into(),
                            ));
                        }
                    }
                    other => return Err(SimError::Cli(format!("unknown flag: {other}"))),
                }
            }
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(SimError::InvalidRate(rate));
            }
            if trees.is_some() && strategy != StrategyArg::Multitree {
                return Err(SimError::Cli(
                    "--trees requires --strategy multitree".into(),
                ));
            }
            let trees = trees.unwrap_or(2);
            if !(1..=MAX_TREES).contains(&trees) {
                return Err(SimError::Cli(format!(
                    "tree count must be 1..={MAX_TREES}, got {trees}"
                )));
            }
            if collective_interval.is_some() && collective.is_none() {
                return Err(SimError::Cli(
                    "--collective-interval requires --collective".into(),
                ));
            }
            let collective_interval = collective_interval.unwrap_or(50);
            if churn_rate.is_some() && !raw_events.is_empty() {
                return Err(SimError::Cli(
                    "--churn and --fault-at are mutually exclusive".into(),
                ));
            }
            if let Some(r) = churn_rate {
                if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                    return Err(SimError::InvalidChurnRate(r));
                }
                churn.schedule = FaultSchedule::Bernoulli {
                    rate: r,
                    kind,
                    mix,
                    node_fraction,
                };
            } else if !raw_events.is_empty() {
                let events = raw_events
                    .iter()
                    .map(|s| parse_timed(s, kind))
                    .collect::<Result<Vec<_>, _>>()?;
                churn.schedule = FaultSchedule::Scripted(events);
            }
            Ok(Command::Run {
                n,
                modulus,
                rate,
                cycles,
                faults,
                pattern,
                seed,
                churn,
                trace,
                percentiles,
                verify_replay,
                telemetry,
                telemetry_interval,
                health_report,
                profile,
                threads,
                strategy,
                trees,
                collective,
                collective_interval,
            })
        }
        "serve" => {
            let mut socket: Option<String> = None;
            let mut connect: Option<String> = None;
            let mut max_sessions = 64usize;
            let mut workers = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--socket" => socket = Some(next(&mut it, "socket path")?.clone()),
                    "--connect" => connect = Some(next(&mut it, "daemon socket path")?.clone()),
                    "--max-sessions" => {
                        max_sessions = parse_num(next(&mut it, "session limit")?, "session limit")?;
                        if max_sessions == 0 {
                            return Err(SimError::Cli("--max-sessions must be at least 1".into()));
                        }
                    }
                    "--workers" => workers = parse_num(next(&mut it, "workers")?, "workers")?,
                    other => return Err(SimError::Cli(format!("unknown flag: {other}"))),
                }
            }
            if socket.is_some() && connect.is_some() {
                return Err(SimError::Cli(
                    "--socket and --connect are mutually exclusive".into(),
                ));
            }
            Ok(Command::Serve {
                socket,
                connect,
                max_sessions,
                workers,
            })
        }
        "analyze" => {
            let mode = match next(&mut it, "analyze mode (trace|profile|diff)")?.as_str() {
                "trace" => {
                    let path = next(&mut it, "trace path")?.clone();
                    let mut packet: Option<u64> = None;
                    let mut top = 10usize;
                    while let Some(flag) = it.next() {
                        match flag.as_str() {
                            "--packet" => {
                                packet = Some(parse_num(next(&mut it, "packet id")?, "packet id")?)
                            }
                            "--top" => {
                                top = parse_num(next(&mut it, "table size")?, "table size")?;
                                if top == 0 {
                                    return Err(SimError::Cli("--top must be at least 1".into()));
                                }
                            }
                            other => return Err(SimError::Cli(format!("unknown flag: {other}"))),
                        }
                    }
                    AnalyzeMode::Trace { path, packet, top }
                }
                "profile" => {
                    let path = next(&mut it, "profile path")?.clone();
                    reject_extra(&mut it)?;
                    AnalyzeMode::Profile { path }
                }
                "diff" => {
                    let a = next(&mut it, "baseline artifact")?.clone();
                    let b = next(&mut it, "candidate artifact")?.clone();
                    reject_extra(&mut it)?;
                    AnalyzeMode::Diff { a, b }
                }
                m => {
                    return Err(SimError::Cli(format!(
                        "analyze mode must be trace, profile or diff, got {m}"
                    )))
                }
            };
            Ok(Command::Analyze { mode })
        }
        "diameter" => {
            let max_m = match it.next() {
                Some(v) => parse_num(v, "max_m")?,
                None => 14,
            };
            reject_extra(&mut it)?;
            Ok(Command::Diameter { max_m })
        }
        "tolerance" => {
            let max_n = match it.next() {
                Some(v) => parse_num(v, "max_n")?,
                None => 24,
            };
            reject_extra(&mut it)?;
            Ok(Command::Tolerance { max_n })
        }
        "robustness" => {
            let n = parse_num(next(&mut it, "n")?, "dimension n")?;
            let modulus = parse_num(next(&mut it, "M")?, "modulus M")?;
            let k = parse_num(next(&mut it, "k")?, "fault count k")?;
            reject_extra(&mut it)?;
            Ok(Command::Robustness { n, modulus, k })
        }
        other => Err(SimError::Cli(format!(
            "unknown command: {other}\n\n{USAGE}"
        ))),
    }
}

fn next<'a>(it: &mut std::slice::Iter<'a, String>, what: &str) -> Result<&'a String, SimError> {
    it.next()
        .ok_or_else(|| SimError::Cli(format!("missing argument: {what}\n\n{USAGE}")))
}

fn reject_extra(it: &mut std::slice::Iter<'_, String>) -> Result<(), SimError> {
    match it.next() {
        Some(extra) => Err(SimError::Cli(format!("unexpected argument: {extra}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_topology() {
        assert_eq!(
            parse(&argv("topology 8 4")),
            Ok(Command::Topology { n: 8, modulus: 4 })
        );
        assert!(parse(&argv("topology 8")).is_err());
        assert!(parse(&argv("topology 8 4 9")).is_err());
    }

    #[test]
    fn parses_route_with_faults() {
        let c = parse(&argv(
            "route 8 4 0 0b1011 --fault-node 6 --fault-link 2:2 --fault-free",
        ))
        .unwrap();
        match c {
            Command::Route {
                n,
                modulus,
                s,
                d,
                fault_nodes,
                fault_links,
                fault_free,
            } => {
                assert_eq!((n, modulus, s, d), (8, 4, 0, 0b1011));
                assert_eq!(fault_nodes, vec![NodeId(6)]);
                assert_eq!(fault_links, vec![LinkId::new(NodeId(2), 2)]);
                assert!(fault_free);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_run_defaults_and_flags() {
        let c = parse(&argv("run 10 2")).unwrap();
        match c {
            Command::Run {
                n,
                modulus,
                rate,
                faults,
                pattern,
                churn,
                ..
            } => {
                assert_eq!((n, modulus), (10, 2));
                assert_eq!(rate, 0.005);
                assert_eq!(faults, 0);
                assert_eq!(pattern, TrafficPattern::Uniform);
                assert_eq!(churn, ChurnArgs::default());
            }
            other => panic!("wrong command: {other:?}"),
        }
        let c = parse(&argv("run 8 2 --rate 0.02 --faults 1 --pattern complement")).unwrap();
        match c {
            Command::Run {
                rate,
                faults,
                pattern,
                ..
            } => {
                assert_eq!(rate, 0.02);
                assert_eq!(faults, 1);
                assert_eq!(pattern, TrafficPattern::BitComplement);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_run_bernoulli_churn() {
        let c = parse(&argv(
            "run 8 2 --churn 0.02 --fault-kind transient:40 --mix 2:1:0.5 \
             --node-fraction 0.3 --knowledge paper --ttl 64 --reroute-budget 4 --window 50",
        ))
        .unwrap();
        let Command::Run { churn, .. } = c else {
            panic!("wrong command: {c:?}")
        };
        assert_eq!(
            churn.schedule,
            FaultSchedule::Bernoulli {
                rate: 0.02,
                kind: FaultKind::Transient { repair_after: 40 },
                mix: CategoryMix {
                    a: 2.0,
                    b: 1.0,
                    c: 0.5
                },
                node_fraction: 0.3,
            }
        );
        assert_eq!(churn.knowledge, KnowledgeModel::PaperDelay);
        assert_eq!(churn.ttl, Some(64));
        assert_eq!(churn.reroute_budget, 4);
        assert_eq!(churn.window, 50);
    }

    #[test]
    fn parses_run_scripted_churn() {
        // --fault-kind after --fault-at must still apply (order-free flags).
        let c = parse(&argv(
            "run 8 2 --fault-at 300:node:9 --fault-at 400:link:0b10:3 \
             --fault-kind intermittent:5:20 --knowledge measured",
        ))
        .unwrap();
        let Command::Run { churn, .. } = c else {
            panic!("wrong command: {c:?}")
        };
        let kind = FaultKind::Intermittent {
            down_for: 5,
            period: 20,
        };
        assert_eq!(
            churn.schedule,
            FaultSchedule::Scripted(vec![
                TimedFault {
                    cycle: 300,
                    target: FaultTarget::Node(NodeId(9)),
                    kind
                },
                TimedFault {
                    cycle: 400,
                    target: FaultTarget::Link(LinkId::new(NodeId(0b10), 3)),
                    kind,
                },
            ])
        );
        assert_eq!(churn.knowledge, KnowledgeModel::Measured);
    }

    #[test]
    fn route_refuses_fault_targets_outside_the_cube() {
        for (bad, target) in [
            ("--fault-link 0:70", FaultTarget::link(NodeId(0), 70)),
            ("--fault-link 0:6", FaultTarget::link(NodeId(0), 6)),
            ("--fault-link 64:0", FaultTarget::link(NodeId(64), 0)),
            ("--fault-node 64", FaultTarget::Node(NodeId(64))),
            // Node 0 of GC(6,2) has no dimension-5 link (Theorem 1).
            ("--fault-link 0:5", FaultTarget::link(NodeId(0), 5)),
        ] {
            let e = parse(&argv(&format!("route 6 2 0 5 {bad}"))).unwrap_err();
            assert_eq!(e, SimError::InvalidFaultTarget { target, n: 6 }, "{bad}");
            assert_eq!(e.code(), "invalid_fault_target");
        }
        assert!(parse(&argv("route 6 2 0 5 --fault-node 63 --fault-link 63:5")).is_ok());
        // `run` parses the same spelling without overflowing a shift and
        // leaves the range check to `Simulator::try_new`.
        let c = parse(&argv("run 6 2 --fault-at 10:link:0:70")).unwrap();
        let Command::Run { churn, .. } = c else {
            panic!("wrong command: {c:?}")
        };
        let FaultSchedule::Scripted(events) = churn.schedule else {
            panic!("scripted schedule expected")
        };
        assert_eq!(events[0].target, FaultTarget::link(NodeId(0), 70));
    }

    #[test]
    fn rejects_bad_churn_flags() {
        for bad in [
            "run 8 2 --churn 0.1 --fault-at 10:node:1", // mutually exclusive
            "run 8 2 --churn 1.5",                      // rate out of range
            "run 8 2 --fault-at 10:disk:1",             // unknown target
            "run 8 2 --fault-kind transient",           // missing parameter
            "run 8 2 --fault-kind intermittent:9:9",    // period <= down
            "run 8 2 --mix 1:2",                        // not three weights
            "run 8 2 --knowledge psychic",              // unknown model
        ] {
            assert!(parse(&argv(bad)).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn rejects_out_of_range_injection_rate() {
        // Used to be silently clamped by the engine; now a typed error
        // callers can match on instead of substring-checking.
        for bad in [
            "run 8 2 --rate 1.2",
            "run 8 2 --rate -0.5",
            "run 8 2 --rate NaN",
            "run 8 2 --rate inf",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(SimError::InvalidRate(_))),
                "must reject: {bad}"
            );
        }
        assert!(matches!(
            parse(&argv("run 8 2 --churn 1.5")),
            Err(SimError::InvalidChurnRate(_))
        ));
        assert!(parse(&argv("run 8 2 --rate 1.0")).is_ok());
        assert!(parse(&argv("run 8 2 --rate 0")).is_ok());
    }

    #[test]
    fn parses_threads() {
        let Command::Run { threads, .. } = parse(&argv("run 8 2")).unwrap() else {
            panic!()
        };
        assert_eq!(threads, 1, "default is the one-shard schedule");
        let Command::Run { threads, .. } = parse(&argv("run 8 2 --threads 4")).unwrap() else {
            panic!()
        };
        assert_eq!(threads, 4);
        let Command::Run { threads, .. } = parse(&argv("run 8 2 --threads 0")).unwrap() else {
            panic!()
        };
        assert_eq!(threads, 0, "0 = available parallelism, resolved later");
        assert!(matches!(
            parse(&argv("run 8 2 --threads lots")),
            Err(SimError::Cli(_))
        ));
        assert!(matches!(
            parse(&argv("run 8 2 --threads -1")),
            Err(SimError::Cli(_))
        ));
    }

    #[test]
    fn parses_strategy_flags() {
        let Command::Run {
            strategy, trees, ..
        } = parse(&argv("run 8 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(strategy, StrategyArg::Auto, "default keeps the auto pick");
        assert_eq!(trees, 2);
        for (arg, want) in [
            ("auto", StrategyArg::Auto),
            ("ffgcr", StrategyArg::Ffgcr),
            ("ftgcr", StrategyArg::Ftgcr),
            ("multitree", StrategyArg::Multitree),
        ] {
            let Command::Run { strategy, .. } =
                parse(&argv(&format!("run 8 2 --strategy {arg}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(strategy, want, "--strategy {arg}");
        }
        let Command::Run { trees, .. } =
            parse(&argv("run 8 2 --strategy multitree --trees 1")).unwrap()
        else {
            panic!()
        };
        assert_eq!(trees, 1);
        for bad in [
            "run 8 2 --strategy psychic",
            "run 8 2 --trees 2", // needs multitree
            "run 8 2 --strategy ftgcr --trees 2",
            "run 8 2 --strategy multitree --trees 0",
            "run 8 2 --strategy multitree --trees 3", // beyond MAX_TREES
        ] {
            assert!(parse(&argv(bad)).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn parses_collective_flags() {
        let Command::Run {
            collective,
            collective_interval,
            ..
        } = parse(&argv("run 8 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(collective, None, "default is unicast-only");
        assert_eq!(collective_interval, 50);
        for (arg, want) in [
            ("broadcast", CollectiveOp::Broadcast),
            ("multicast", CollectiveOp::Multicast),
            ("gather", CollectiveOp::Gather),
        ] {
            let Command::Run { collective, .. } =
                parse(&argv(&format!("run 8 2 --collective {arg}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(collective, Some(want), "--collective {arg}");
        }
        let Command::Run {
            collective_interval,
            ..
        } = parse(&argv(
            "run 8 2 --collective gather --collective-interval 25",
        ))
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(collective_interval, 25);
        for bad in [
            "run 8 2 --collective scatter",
            "run 8 2 --collective-interval 25", // needs --collective
            "run 8 2 --collective broadcast --collective-interval 0",
        ] {
            assert!(parse(&argv(bad)).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn parses_observability_flags() {
        let c = parse(&argv(
            "run 8 2 --trace run.jsonl --percentiles --verify-replay",
        ))
        .unwrap();
        let Command::Run {
            trace,
            percentiles,
            verify_replay,
            ..
        } = c
        else {
            panic!("wrong command: {c:?}")
        };
        assert_eq!(trace.as_deref(), Some("run.jsonl"));
        assert!(percentiles);
        assert!(verify_replay);
        // All default to off.
        let Command::Run {
            trace,
            percentiles,
            verify_replay,
            ..
        } = parse(&argv("run 8 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(trace, None);
        assert!(!percentiles && !verify_replay);
    }

    #[test]
    fn parses_telemetry_flags() {
        let c = parse(&argv(
            "run 8 2 --telemetry net.csv --telemetry-interval 25 --health-report",
        ))
        .unwrap();
        let Command::Run {
            telemetry,
            telemetry_interval,
            health_report,
            ..
        } = c
        else {
            panic!("wrong command: {c:?}")
        };
        assert_eq!(telemetry.as_deref(), Some("net.csv"));
        assert_eq!(telemetry_interval, 25);
        assert!(health_report);
        // All default to off.
        let Command::Run {
            telemetry,
            telemetry_interval,
            health_report,
            ..
        } = parse(&argv("run 8 2")).unwrap()
        else {
            panic!()
        };
        assert_eq!(telemetry, None);
        assert_eq!(telemetry_interval, 100);
        assert!(!health_report);
    }

    #[test]
    fn rejects_zero_telemetry_interval() {
        let e = parse(&argv("run 8 2 --telemetry-interval 0")).unwrap_err();
        assert!(e.to_string().contains("telemetry interval"), "{e}");
    }

    #[test]
    fn parses_profile_flag() {
        let Command::Run {
            profile, telemetry, ..
        } = parse(&argv("run 8 2 --profile run.profile.jsonl")).unwrap()
        else {
            panic!()
        };
        assert_eq!(profile.as_deref(), Some("run.profile.jsonl"));
        assert_eq!(telemetry, None, "--profile must not require --telemetry");
        let Command::Run { profile, .. } = parse(&argv("run 8 2")).unwrap() else {
            panic!()
        };
        assert_eq!(profile, None);
    }

    #[test]
    fn parses_analyze_commands() {
        assert_eq!(
            parse(&argv("analyze trace run.jsonl")),
            Ok(Command::Analyze {
                mode: AnalyzeMode::Trace {
                    path: "run.jsonl".into(),
                    packet: None,
                    top: 10,
                }
            })
        );
        assert_eq!(
            parse(&argv("analyze trace run.jsonl --packet 7 --top 3")),
            Ok(Command::Analyze {
                mode: AnalyzeMode::Trace {
                    path: "run.jsonl".into(),
                    packet: Some(7),
                    top: 3,
                }
            })
        );
        assert_eq!(
            parse(&argv("analyze profile run.profile.jsonl")),
            Ok(Command::Analyze {
                mode: AnalyzeMode::Profile {
                    path: "run.profile.jsonl".into(),
                }
            })
        );
        assert_eq!(
            parse(&argv("analyze diff a.jsonl b.jsonl")),
            Ok(Command::Analyze {
                mode: AnalyzeMode::Diff {
                    a: "a.jsonl".into(),
                    b: "b.jsonl".into(),
                }
            })
        );
        let e = parse(&argv("analyze frobnicate x")).unwrap_err();
        assert!(e.to_string().contains("trace, profile or diff"), "{e}");
        let e = parse(&argv("analyze trace run.jsonl --top 0")).unwrap_err();
        assert!(e.to_string().contains("--top"), "{e}");
        let e = parse(&argv("analyze diff a.jsonl")).unwrap_err();
        assert!(e.to_string().contains("candidate artifact"), "{e}");
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&argv("serve")),
            Ok(Command::Serve {
                socket: None,
                connect: None,
                max_sessions: 64,
                workers: 0,
            })
        );
        assert_eq!(
            parse(&argv(
                "serve --socket /tmp/g.sock --max-sessions 8 --workers 2"
            )),
            Ok(Command::Serve {
                socket: Some("/tmp/g.sock".into()),
                connect: None,
                max_sessions: 8,
                workers: 2,
            })
        );
        assert_eq!(
            parse(&argv("serve --connect /tmp/g.sock")),
            Ok(Command::Serve {
                socket: None,
                connect: Some("/tmp/g.sock".into()),
                max_sessions: 64,
                workers: 0,
            })
        );
        for bad in [
            "serve --socket /a --connect /b", // pick one side of the socket
            "serve --max-sessions 0",
            "serve --port 80",
        ] {
            assert!(parse(&argv(bad)).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn parses_series_commands() {
        assert_eq!(
            parse(&argv("diameter")),
            Ok(Command::Diameter { max_m: 14 })
        );
        assert_eq!(
            parse(&argv("diameter 10")),
            Ok(Command::Diameter { max_m: 10 })
        );
        assert_eq!(
            parse(&argv("tolerance 20")),
            Ok(Command::Tolerance { max_n: 20 })
        );
        assert_eq!(
            parse(&argv("robustness 8 2 4")),
            Ok(Command::Robustness {
                n: 8,
                modulus: 2,
                k: 4
            })
        );
    }

    #[test]
    fn binary_labels() {
        assert_eq!(parse_label("0b1010").unwrap(), 10);
        assert_eq!(parse_label("42").unwrap(), 42);
        assert!(parse_label("0bxyz").is_err());
        assert!(parse_label("twelve").is_err());
    }

    #[test]
    fn errors_are_helpful() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
        assert!(e.to_string().contains("USAGE"));
        let e = parse(&argv("route 8 4 0 1 --fault-link nodim")).unwrap_err();
        assert!(e.to_string().contains("V:DIM"));
        assert_eq!(parse(&[]), Ok(Command::Help));
    }
}
