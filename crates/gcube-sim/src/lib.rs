//! Cycle-driven network simulator for Gaussian Cubes (paper §6).
//!
//! Reproduces the paper's evaluation model:
//!
//! 1. source and destination nodes are non-faulty;
//! 2. *eager readership*: packet service is faster than packet arrival —
//!    modelled as store-and-forward with unbounded FIFO queues, one packet
//!    per directed link per cycle, and instantaneous sinking at the
//!    destination;
//! 3. a faulty node makes all of its incident links faulty;
//! 4. nodes know their incident link status and the B/C faults of their
//!    ending class (the routing algorithms consume the global [`FaultSet`]
//!    accordingly).
//!
//! Metrics match the paper: **average latency** `LP/DP` (total latency of
//! delivered packets over their count, in cycles) and **throughput**
//! `DP/PT` (delivered packets per cycle of total processing time), plotted
//! as `log2` in Figures 6 and 8.
//!
//! Beyond the paper's static evaluation, the [`injection`] module adds
//! *dynamic* fault churn — seeded timed fault events (permanent,
//! transient, intermittent) applied while packets are in flight — and the
//! engine recovers online: local re-routes under a budget and TTL, with a
//! stale-knowledge window modelling the paper's claim-4 fault-status
//! exchange. See [`engine`] for the recovery semantics and
//! [`metrics::ChurnReport`] for the degradation time series.
//!
//! [`FaultSet`]: gcube_routing::FaultSet

pub mod artifact;
pub mod checkpoint;
pub mod collective;
pub mod config;
pub mod engine;
pub mod error;
pub mod injection;
pub mod metrics;
pub mod packet;
pub mod profiler;
pub mod proto;
pub mod replay;
pub mod runner;
pub mod server;
pub mod session;
mod shard;
mod soa;
pub mod strategy;
pub mod telemetry;
pub mod trace;
pub mod traffic;

pub use artifact::{ArtifactKind, ArtifactMeta, ARTIFACT_FORMAT};
pub use checkpoint::Checkpoint;
pub use collective::{is_collective, op_of, COLLECTIVE_BIT};
pub use config::{CollectiveOp, KnowledgeModel, SimConfig};
pub use engine::Simulator;
pub use error::SimError;
pub use injection::{
    CategoryMix, FaultAction, FaultEvent, FaultInjector, FaultKind, FaultSchedule, FaultTarget,
    TimedFault,
};
pub use metrics::{ChurnReport, Histogram, Metrics, OpStat, WindowStat};
pub use profiler::{NullProfiler, ProfileCollector, ProfileSample, ProfilerSink, ShardProfile};
pub use proto::Request;
pub use replay::{parse_jsonl, parse_jsonl_with_meta, verify_replay, ReplayError};
pub use runner::{run_churn_sweep, run_sweep, ChurnPoint, SweepPoint};
pub use server::{resolve_strategy_name, serve, ServerConfig};
pub use session::{effective_shards, resolve_threads, SimSession, Stepper};
pub use shard::class_ranges;
pub use strategy::{
    build_strategy, CachedFfgcr, CachedFtgcr, EcubeBaseline, FaultFreeGcr, FaultTolerantGcr,
    MultiTreeStrategy, PlannedRoute, RoutingAlgorithm, TreeChoice, TreeHealth,
};
pub use telemetry::{
    CycleView, FaultBudgetMonitor, HealthTransition, NullTelemetry, Phase, Tally,
    TelemetryCollector, TelemetrySample, TelemetrySink,
};
pub use trace::{
    DropCause, JsonlSink, MemorySink, NullSink, TraceEvent, TraceEventKind, TraceSink,
};
pub use traffic::TrafficPattern;
