//! The `SimSession` builder — the simulator's single front door.
//!
//! The engine used to grow one entry point per observer combination
//! (`run`, `run_report`, `run_traced`, `run_instrumented<S, T>`); the
//! sharded engine would have forced a fifth. A session composes instead:
//!
//! ```
//! use gcube_sim::{MemorySink, SimConfig, Simulator, FaultFreeGcr};
//!
//! let sim = Simulator::new(SimConfig::new(6, 2), &FaultFreeGcr);
//! let mut sink = MemorySink::new();
//! let report = sim.session().threads(2).trace(&mut sink).run();
//! assert_eq!(report.metrics.delivered, report.metrics.injected);
//! ```
//!
//! `trace`, `telemetry`, and `profile` rebind the session's sink type
//! parameters, so the engine still monomorphises over the sinks: a
//! session that never attaches one compiles to the same zero-observer
//! loop as before. Every run executes the one cycle kernel of
//! [`crate::shard`] through one driver: [`SimSession::try_run`] is a
//! [`Stepper`] driven to the end. `threads(n)` picks the schedule for
//! runs, steppers and restored checkpoints alike — one shard inline, or
//! up to `2^α` lockstepped shards — and the output is bitwise identical
//! for any thread count.

use gcube_topology::GaussianCube;

use crate::checkpoint::Checkpoint;
use crate::engine::Simulator;
use crate::error::SimError;
use crate::metrics::ChurnReport;
use crate::profiler::{NullProfiler, ProfilerSink};
use crate::shard::Coordinator;
use crate::telemetry::{NullTelemetry, TelemetrySink};
use crate::trace::{NullSink, TraceSink};

/// Resolve a requested thread count: `0` means "use all available
/// parallelism", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// How many shards a run on `gc` with `threads` threads actually uses:
/// ending classes are the shard key (Theorem 2), so the count is capped
/// at `2^α`. One shard means the inline one-shard schedule.
pub fn effective_shards(gc: &GaussianCube, threads: usize) -> usize {
    threads.max(1).min(1 << gc.alpha())
}

/// A configured-but-not-yet-started run: thread count plus the attached
/// observers. Built by [`Simulator::session`], consumed by
/// [`SimSession::run`] / [`SimSession::try_run`].
pub struct SimSession<'s, 'a, S = NullSink, T = NullTelemetry, P = NullProfiler> {
    sim: &'s Simulator<'a>,
    threads: usize,
    trace: S,
    telemetry: T,
    profiler: P,
}

impl<'s, 'a> SimSession<'s, 'a> {
    pub(crate) fn new(sim: &'s Simulator<'a>) -> Self {
        SimSession {
            sim,
            threads: 1,
            trace: NullSink,
            telemetry: NullTelemetry,
            profiler: NullProfiler,
        }
    }
}

impl<'s, 'a, S: TraceSink, T: TelemetrySink, P: ProfilerSink> SimSession<'s, 'a, S, T, P> {
    /// Worker threads for the shard engine. `0` resolves to the machine's
    /// available parallelism; the default is `1` (sequential). The
    /// effective shard count is capped at the cube's `2^α` ending
    /// classes — see [`effective_shards`].
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Attach a flight recorder: every per-packet event is streamed into
    /// `sink` in deterministic engine order (identical for every thread
    /// count). Pass `&mut sink` to keep the sink afterwards.
    #[must_use]
    pub fn trace<S2: TraceSink>(self, sink: S2) -> SimSession<'s, 'a, S2, T, P> {
        SimSession {
            sim: self.sim,
            threads: self.threads,
            trace: sink,
            telemetry: self.telemetry,
            profiler: self.profiler,
        }
    }

    /// Attach a telemetry sink sampling the per-window time series. Pass
    /// `&mut collector` to keep the collector afterwards.
    #[must_use]
    pub fn telemetry<T2: TelemetrySink>(self, telemetry: T2) -> SimSession<'s, 'a, S, T2, P> {
        SimSession {
            sim: self.sim,
            threads: self.threads,
            trace: self.trace,
            telemetry,
            profiler: self.profiler,
        }
    }

    /// Attach a performance profiler recording per-cycle deterministic
    /// counters plus report-only wall-clock/per-shard breakdowns —
    /// independent of `telemetry`. Pass `&mut collector` to keep the
    /// collector afterwards.
    #[must_use]
    pub fn profile<P2: ProfilerSink>(self, profiler: P2) -> SimSession<'s, 'a, S, T, P2> {
        SimSession {
            sim: self.sim,
            threads: self.threads,
            trace: self.trace,
            telemetry: self.telemetry,
            profiler,
        }
    }

    /// Run to completion. Like [`Simulator::new`], panics on a session
    /// the engine refuses to start; use [`SimSession::try_run`] to handle
    /// that as an error.
    pub fn run(self) -> ChurnReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("invalid simulation session: {e}"))
    }

    /// Run to completion, reporting refusals (currently only finite
    /// buffers combined with a sharded run) as a [`SimError`].
    pub fn try_run(self) -> Result<ChurnReport, SimError> {
        let mut stepper = self.try_stepper()?;
        stepper.step_many(u64::MAX);
        Ok(stepper.finish())
    }

    /// The shard count `threads(n)` gives this session, or the refusal.
    fn shards(&self) -> Result<usize, SimError> {
        let shards = effective_shards(self.sim.cube(), resolve_threads(self.threads));
        if shards > 1 && self.sim.config().buffer_capacity.is_some() {
            return Err(SimError::FiniteBuffersRequireSingleThread);
        }
        Ok(shards)
    }

    fn try_stepper(mut self) -> Result<Stepper<'s, 'a, S, T, P>, SimError> {
        let shards = self.shards()?;
        let core = Coordinator::new(self.sim, shards, &mut self.trace, &mut self.telemetry);
        Ok(self.resume(core))
    }

    fn resume(self, core: Coordinator) -> Stepper<'s, 'a, S, T, P> {
        Stepper {
            sim: self.sim,
            core,
            trace: self.trace,
            telemetry: self.telemetry,
            profiler: self.profiler,
        }
    }

    /// Start the run paused at cycle 0 instead of running it to
    /// completion: the returned [`Stepper`] advances on request and can
    /// checkpoint between cycles. It runs on the shards `threads(n)`
    /// asks for, and panics on a session [`SimSession::try_run`] would
    /// refuse.
    pub fn stepper(self) -> Stepper<'s, 'a, S, T, P> {
        self.try_stepper()
            .unwrap_or_else(|e| panic!("invalid simulation session: {e}"))
    }

    /// Resume a run from a [`Checkpoint`] instead of cycle 0, on the
    /// shards `threads(n)` asks for, whatever the thread count of the run
    /// that wrote it. The session's simulator must match the checkpoint's
    /// config and strategy; the attached trace sink receives only events
    /// from the checkpoint's cycle onward (the prefix lives wherever the
    /// original run recorded it — see [`Checkpoint::trace_mark`]).
    pub fn stepper_from(self, checkpoint: &Checkpoint) -> Result<Stepper<'s, 'a, S, T, P>, String> {
        let shards = self.shards().map_err(|e| e.to_string())?;
        let core = checkpoint.rebuild(self.sim, shards)?;
        Ok(self.resume(core))
    }
}

/// A paused run that advances on request, on as many shards as its
/// session asked for. Created by [`SimSession::stepper`] (fresh at cycle
/// 0, sinks already holding the cycle-0 events) or
/// [`SimSession::stepper_from`] (resumed from a checkpoint).
pub struct Stepper<'s, 'a, S = NullSink, T = NullTelemetry, P = NullProfiler> {
    sim: &'s Simulator<'a>,
    core: Coordinator,
    trace: S,
    telemetry: T,
    profiler: P,
}

impl<'s, 'a, S: TraceSink, T: TelemetrySink, P: ProfilerSink> Stepper<'s, 'a, S, T, P> {
    /// Execute one cycle. Returns `true` once the run is complete;
    /// further calls are no-ops returning `true`.
    pub fn step(&mut self) -> bool {
        self.step_many(1)
    }

    /// Execute up to `cycles` cycles, stopping early when the run
    /// completes. Returns whether the run is now complete. On more than
    /// one shard each call starts one thread per worker shard, so large
    /// batches amortise that cost.
    pub fn step_many(&mut self, cycles: u64) -> bool {
        self.core.step_many(
            self.sim,
            cycles,
            &mut self.trace,
            &mut self.telemetry,
            &mut self.profiler,
        )
    }

    /// The next cycle [`Stepper::step`] will execute.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Whether the run has executed its last cycle.
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.core.in_flight
    }

    /// The simulator this run executes on.
    pub fn sim(&self) -> &'s Simulator<'a> {
        self.sim
    }

    /// Serialize the paused state. `trace_mark` is how many trace events
    /// this run has emitted so far (`sink.events().len()` when recording
    /// into a [`crate::trace::MemorySink`]; 0 when untraced) — see
    /// [`Checkpoint::trace_mark`]. Fails for strategies without a wire
    /// identity (the e-cube baseline).
    pub fn checkpoint(&self, trace_mark: u64) -> Result<Checkpoint, String> {
        Checkpoint::capture(self.sim, &self.core, trace_mark)
    }

    /// Close out the run and build its report (call once done; see
    /// [`SimSession::try_run`] for the run-to-completion shortcut).
    pub fn finish(mut self) -> ChurnReport {
        self.core
            .finish(self.sim, &mut self.telemetry, &mut self.profiler)
    }
}
