//! What every workload shares: the round loop, correctness gates, the
//! per-round deterministic statistics, and the per-layer accumulators.

use std::path::PathBuf;
use std::time::Instant;

use gcube_sim::{
    build_strategy, ArtifactKind, ArtifactMeta, Checkpoint, Metrics, ProfileCollector,
    ProfilerSink, RoutingAlgorithm, SimConfig, Simulator, Stepper, TelemetrySink, TraceSink,
    ARTIFACT_FORMAT,
};

use crate::spans::{Span, Tracer};
use crate::spec::{golden, DEFAULT_SEED};
use crate::stats::percentile_sorted;
use crate::timed::{LogHist, Timed};

/// Settings of one workload process.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to spend measuring.
    pub seconds: f64,
    /// Per-layer run: alternate untraced and traced rounds.
    pub trace: bool,
    /// Recording golden statistics: one untimed round, nothing to gate
    /// its statistics against.
    pub golden: bool,
    /// Scratch directory inside the checkout (socket, snapshots).
    pub work: PathBuf,
    /// The run's time origin, shared by every tracer.
    pub epoch: Instant,
}

/// Deterministic statistics of one round: a pure function of the
/// workload and seed, gated against `golden.json` at the default seed
/// and against the first round otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Measured cycles (after warm-up), summed over the round's runs.
    pub cycles: u64,
    /// Forwarded packet-hops, whole run.
    pub hops: u64,
    /// Packets injected, whole run.
    pub injected: u64,
    /// Packets delivered, whole run.
    pub delivered: u64,
    /// Packets dropped, whole run.
    pub dropped: u64,
    /// Packets still in flight at the end.
    pub in_flight: u64,
    /// Packets that re-routed at least once.
    pub reroutes: u64,
    /// Route computations that failed.
    pub route_failures: u64,
    /// Fault events applied.
    pub fault_events: u64,
    /// Trace events recorded (0 where nothing records).
    pub events: u64,
}

impl RoundStats {
    /// The statistics of one run's ledger.
    pub fn of(m: &Metrics) -> RoundStats {
        RoundStats {
            cycles: m.cycles,
            hops: m.forwarded_hops_total,
            injected: m.injected_total,
            delivered: m.delivered_total,
            dropped: m.dropped_total,
            in_flight: m.in_flight_at_end,
            reroutes: m.rerouted_packets,
            route_failures: m.route_failures_total,
            fault_events: m.fault_events,
            events: 0,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &RoundStats) {
        self.cycles += o.cycles;
        self.hops += o.hops;
        self.injected += o.injected;
        self.delivered += o.delivered;
        self.dropped += o.dropped;
        self.in_flight += o.in_flight;
        self.reroutes += o.reroutes;
        self.route_failures += o.route_failures;
        self.fault_events += o.fault_events;
        self.events += o.events;
    }

    /// `(name, value)` pairs, the shape `golden.json` stores.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("cycles", self.cycles),
            ("hops", self.hops),
            ("injected", self.injected),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("in_flight", self.in_flight),
            ("reroutes", self.reroutes),
            ("route_failures", self.route_failures),
            ("fault_events", self.fault_events),
            ("events", self.events),
        ]
    }

    /// Packet conservation: every injected packet is delivered, dropped
    /// or still in flight.
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped + self.in_flight
    }
}

/// The timed outcome of one untraced round.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Simulated packet-hops per host second of the round's job.
    pub hops_per_s: f64,
    /// Set-up time, nanoseconds.
    pub setup_ns: u64,
    /// Median per-operation latency, nanoseconds.
    pub latency_p50_ns: f64,
    /// 99th-percentile per-operation latency, nanoseconds.
    pub latency_p99_ns: f64,
    /// Peak resident set during the round, MiB.
    pub peak_rss_mb: f64,
}

/// Per-layer accumulators, filled by traced rounds. Times are
/// nanoseconds; see `metrics::per_layer` for what each becomes.
#[derive(Default)]
pub struct Layers {
    /// The traced rounds, timed as the untraced ones are.
    pub rounds: Vec<Round>,
    /// `Simulator::try_new`, per run.
    pub setup_sim_ns: Vec<u64>,
    /// `session().stepper()` (cycle-0 state), per run.
    pub setup_core_ns: Vec<u64>,
    /// `plan_route` calls, failures and summed time, from `Timed`.
    pub plan_calls: u64,
    pub plan_failures: u64,
    pub plan_busy_ns: u64,
    /// Per-call planning time.
    pub plan_hist: LogHist,
    /// Plan-cache counters at the end of each run.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Every `Stepper::step`.
    pub step_ns: Vec<u64>,
    /// Reconvergence, planning and forwarding, from the profiler.
    pub phase_ns: [u64; 3],
    /// `TrafficGen::fires` draws the stepped runs made (nodes × cycles).
    pub inject_draws: u64,
    /// Checkpoint capture (`checkpoint` + `to_text`), size, `from_text`
    /// and `stepper_from`, per checkpoint.
    pub ck_capture_ns: Vec<u64>,
    pub ck_bytes: Vec<u64>,
    pub ck_parse_ns: Vec<u64>,
    pub ck_restore_ns: Vec<u64>,
    /// Shard-engine counters, per shard and run.
    pub barrier_fraction: Vec<f64>,
    pub imbalance_milli: Vec<u64>,
    pub steal_units: u64,
    /// 1-thread over 2-thread run time, per round.
    pub speedup_t2: Vec<f64>,
    /// Observed over unobserved step time, per round.
    pub observer_ratio: Vec<f64>,
    /// Bytes of trace JSONL written.
    pub trace_bytes: u64,
    /// In-process `Server::handle_line` calls.
    pub server_op_ns: Vec<u64>,
    /// Spans, one list per recording thread.
    pub spans: Vec<Vec<Span>>,
}

impl Layers {
    /// Fold a finished timed strategy's counters in.
    pub fn absorb_plans<A: RoutingAlgorithm + ?Sized>(&mut self, t: &Timed<A>) {
        use std::sync::atomic::Ordering::Relaxed;
        self.plan_calls += t.stats.calls.load(Relaxed);
        self.plan_failures += t.stats.failures.load(Relaxed);
        self.plan_busy_ns += t.stats.busy_ns.load(Relaxed);
        self.plan_hist.merge(&t.stats.hist);
        if let Some(c) = t.cache_stats() {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
        }
    }

    /// Fold a profiler's phase split and shard counters in.
    pub fn absorb_profile(&mut self, p: &ProfileCollector) {
        for (acc, ns) in self.phase_ns.iter_mut().zip(p.phase_nanos()) {
            *acc += ns;
        }
        self.imbalance_milli.push(p.imbalance_avg_milli());
        for (_, s) in p.shard_profiles() {
            self.barrier_fraction.push(s.barrier_fraction());
            self.steal_units += s.steal_units;
        }
    }
}

/// Everything one workload process measured and checked.
#[derive(Default)]
pub struct Record {
    /// Operations attempted: latency-timed operations plus gates.
    pub attempted: u64,
    /// Failed operations and gates.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Untraced rounds.
    pub rounds: Vec<Round>,
    /// Each timed operation's fastest time across the untraced rounds,
    /// in operation order, nanoseconds.
    pub op_min_ns: Vec<u64>,
    /// Set-up times after the rounds (see [`repeat_setups`]), nanoseconds.
    pub setup_repeats_ns: Vec<u64>,
    /// Per-layer data of the traced rounds.
    pub layers: Layers,
    /// The reference statistics later rounds must repeat.
    reference: Option<RoundStats>,
}

impl Record {
    /// Count one gate; a failed gate is recorded with `msg`.
    pub fn gate(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg());
            }
        }
    }

    /// Gate a round's statistics: conservation, then golden values at the
    /// default seed (or the first round's values at any other seed).
    pub fn gate_stats(&mut self, ctx: &Ctx, stats: RoundStats) {
        self.gate(stats.conserved(), || {
            format!("packets not conserved: {stats:?}")
        });
        if self.reference.is_none() {
            self.reference = Some(if ctx.seed == DEFAULT_SEED && !ctx.golden {
                match golden_stats(&ctx.workload) {
                    Ok(g) => g,
                    Err(e) => {
                        self.gate(false, || e);
                        stats
                    }
                }
            } else {
                stats
            });
        }
        let want = self.reference.expect("set above");
        self.gate(stats == want, || {
            format!("round statistics {stats:?} differ from the expected {want:?}")
        });
    }

    /// The statistics every round repeats.
    pub fn stats(&self) -> RoundStats {
        self.reference.unwrap_or_default()
    }

    /// Fold one untraced round's operation latencies, in operation
    /// order, into the per-operation minima.
    pub fn fold_fastest(&mut self, lat: &[u64]) {
        for (best, &ns) in self.op_min_ns.iter_mut().zip(lat) {
            *best = (*best).min(ns);
        }
        if lat.len() > self.op_min_ns.len() {
            self.op_min_ns
                .extend_from_slice(&lat[self.op_min_ns.len()..]);
        }
    }
}

fn golden_stats(workload: &str) -> Result<RoundStats, String> {
    let g = golden(workload)?;
    let get = |k: &str| {
        g.iter()
            .find(|(name, _)| name == k)
            .map(|&(_, v)| v)
            .ok_or(format!("golden {workload} lacks {k}"))
    };
    Ok(RoundStats {
        cycles: get("cycles")?,
        hops: get("hops")?,
        injected: get("injected")?,
        delivered: get("delivered")?,
        dropped: get("dropped")?,
        in_flight: get("in_flight")?,
        reroutes: get("reroutes")?,
        route_failures: get("route_failures")?,
        fault_events: get("fault_events")?,
        events: get("events")?,
    })
}

/// Run rounds until `ctx.seconds` have passed and at least `min` rounds
/// ran. Every workload's round holds at least 1000 timed operations, so
/// a round's 99th percentile has ten samples beyond it. In a traced run
/// every second round is traced, so the untraced rounds in between give
/// the tracing overhead.
pub fn for_rounds(
    ctx: &Ctx,
    min: usize,
    mut round: impl FnMut(usize, bool) -> Result<(), String>,
) -> Result<(), String> {
    if ctx.golden {
        return round(0, false);
    }
    let start = Instant::now();
    let min = if ctx.trace { min.max(4) } else { min };
    let mut i = 0;
    loop {
        reset_peak_rss()?;
        round(i, ctx.trace && i % 2 == 1)?;
        i += 1;
        let enough = start.elapsed().as_secs_f64() >= ctx.seconds;
        if i >= min && enough && (!ctx.trace || i % 2 == 0) {
            return Ok(());
        }
    }
}

/// Set-ups an untraced run times in all: one per round, then repeats.
const SETUPS: usize = 40;
/// Nanoseconds the repeats may take in all.
const SETUP_BUDGET_NS: u64 = 500_000_000;

/// After the rounds of an untraced run, time `setup` (which returns its
/// nanoseconds) again until the run holds [`SETUPS`] set-ups or the
/// repeats took [`SETUP_BUDGET_NS`]. A set-up can take under a
/// millisecond, where the median of one per round is at the mercy of a
/// few page faults. The repeats run after the rounds, so they touch no
/// round's time or peak memory.
pub fn repeat_setups(
    ctx: &Ctx,
    rec: &mut Record,
    mut setup: impl FnMut() -> Result<u64, String>,
) -> Result<(), String> {
    if ctx.trace || ctx.golden {
        return Ok(());
    }
    let mut spent = 0;
    while rec.rounds.len() + rec.setup_repeats_ns.len() < SETUPS && spent < SETUP_BUDGET_NS {
        let ns = setup()?;
        spent += ns;
        rec.setup_repeats_ns.push(ns);
    }
    Ok(())
}

/// A routing strategy built by wire name, timed in traced rounds.
pub enum Planner {
    /// Untraced.
    Plain(Box<dyn RoutingAlgorithm + Send + Sync>),
    /// Every `plan_route` timed.
    Timed(Timed<dyn RoutingAlgorithm + Send + Sync>),
}

impl Planner {
    /// A fresh strategy (cold plan cache), timed when `traced`.
    pub fn new(name: &str, traced: bool) -> Planner {
        let algo = build_strategy(name, 0).expect("workloads use known strategies");
        if traced {
            Planner::Timed(Timed::new(algo))
        } else {
            Planner::Plain(algo)
        }
    }

    /// The strategy to simulate with.
    pub fn algo(&self) -> &dyn RoutingAlgorithm {
        match self {
            Planner::Plain(a) => a.as_ref(),
            Planner::Timed(t) => t,
        }
    }

    /// Planning nanoseconds so far (0 untraced).
    pub fn busy_ns(&self) -> u64 {
        match self {
            Planner::Plain(_) => 0,
            Planner::Timed(t) => t.busy_ns(),
        }
    }

    /// Fold the timing into `layers` (no-op untraced).
    pub fn finish(&self, layers: &mut Layers) {
        if let Planner::Timed(t) = self {
            layers.absorb_plans(t);
        }
    }
}

/// Step `st` to completion. Each cycle's latency goes into `lat`; in a
/// traced round each cycle is a `step` span credited with its planning
/// time. `before` runs ahead of every cycle (checkpoints hook in there).
pub fn step_to_end<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    st: &mut Stepper<'_, '_, S, T, P>,
    planner: &Planner,
    tr: &mut Tracer,
    lat: &mut Vec<u64>,
    mut before: impl FnMut(&Stepper<'_, '_, S, T, P>, &mut Tracer) -> Result<(), String>,
) -> Result<(), String> {
    loop {
        before(st, tr)?;
        let span = tr.enter("step");
        let planned = planner.busy_ns();
        let t = Instant::now();
        let done = st.step();
        lat.push(t.elapsed().as_nanos() as u64);
        if tr.on() {
            tr.add_plan(planner.busy_ns() - planned);
        }
        tr.exit(span);
        if done {
            return Ok(());
        }
    }
}

/// Checkpoint `st` and write it as text, timing the capture into the
/// per-layer data of a traced round.
pub fn capture<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    st: &Stepper<'_, '_, S, T, P>,
    mark: u64,
    tr: &mut Tracer,
    rec: &mut Record,
) -> Result<String, String> {
    let span = tr.enter("checkpoint");
    let t = Instant::now();
    let text = st.checkpoint(mark)?.to_text();
    if tr.on() {
        rec.layers.ck_capture_ns.push(t.elapsed().as_nanos() as u64);
        rec.layers.ck_bytes.push(text.len() as u64);
    }
    tr.exit(span);
    Ok(text)
}

/// Capture `st` as text, parse it back and restore a stepper from it:
/// the probe traced rounds take of workloads that do not checkpoint.
pub fn checkpoint_roundtrip<S: TraceSink, T: TelemetrySink, P: ProfilerSink>(
    sim: &Simulator<'_>,
    st: &Stepper<'_, '_, S, T, P>,
    mark: u64,
    tr: &mut Tracer,
    rec: &mut Record,
) -> Result<(), String> {
    let text = capture(st, mark, tr, rec)?;
    restore(sim, &text, st.cycle(), tr, rec)
}

/// Parse checkpoint `text` and restore a stepper on `sim` from it; the
/// stepper must resume at `cycle`. A traced round times both stages.
pub fn restore(
    sim: &Simulator<'_>,
    text: &str,
    cycle: u64,
    tr: &mut Tracer,
    rec: &mut Record,
) -> Result<(), String> {
    let span = tr.enter("restore");
    let t = Instant::now();
    let ck = Checkpoint::from_text(text)?;
    let parsed = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let resumed = sim.session().stepper_from(&ck)?;
    let restored = t.elapsed().as_nanos() as u64;
    rec.gate(resumed.cycle() == cycle && ck.cycle() == cycle, || {
        format!(
            "checkpoint taken at cycle {cycle} resumed at {} (recorded {})",
            resumed.cycle(),
            ck.cycle()
        )
    });
    drop(resumed);
    tr.exit(span);
    if tr.on() {
        rec.layers.ck_parse_ns.push(parsed);
        rec.layers.ck_restore_ns.push(restored);
    }
    Ok(())
}

/// Median and 99th percentile of one round's operation latencies.
pub fn round_latency(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 50.0),
        percentile_sorted(samples, 99.0),
    )
}

/// This process's peak resident set since the last
/// [`reset_peak_rss`], MiB (`VmHWM`).
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb(std::process::id())
}

/// Restart this process's peak resident set at its current size, so
/// each round reports its own peak.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident set of process `pid`, MiB (`VmHWM` in its status).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read the status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("no VmHWM for process {pid}"))
}

/// Mean nanoseconds of one `TrafficGen::fires` draw at `rate`, over
/// enough draws to take tens of milliseconds.
pub fn traffic_draw_ns(seed: u64, rate: f64) -> f64 {
    const DRAWS: u64 = 1 << 22;
    let mut gen = gcube_sim::traffic::TrafficGen::new(seed, rate);
    let t = Instant::now();
    let mut fired = 0u64;
    for _ in 0..DRAWS {
        fired += u64::from(gen.fires());
    }
    std::hint::black_box(fired);
    t.elapsed().as_nanos() as f64 / DRAWS as f64
}

/// The provenance header line of a 1-thread FTGCR artifact of `kind` for
/// `cfg`, as the daemon and the CLI stamp it.
pub fn meta_line(cfg: &SimConfig, kind: ArtifactKind) -> String {
    ArtifactMeta {
        kind,
        format: ARTIFACT_FORMAT,
        n: u64::from(cfg.n),
        modulus: cfg.modulus,
        seed: cfg.seed,
        threads: 1,
        strategy: "ftgcr".to_string(),
    }
    .to_jsonl_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_each_operations_minimum() {
        let mut rec = Record::default();
        rec.fold_fastest(&[5, 9, 7]);
        rec.fold_fastest(&[6, 3, 8, 4]);
        rec.fold_fastest(&[2, 10]);
        assert_eq!(rec.op_min_ns, [2, 3, 7, 4]);
    }

    fn ctx(trace: bool) -> Ctx {
        Ctx {
            workload: "fwd-dense".into(),
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace,
            golden: false,
            work: PathBuf::new(),
            epoch: Instant::now(),
        }
    }

    #[test]
    fn setup_repeats_stop_at_the_count_or_the_budget() {
        let mut rec = Record {
            rounds: vec![Round::default(); 3],
            ..Record::default()
        };
        repeat_setups(&ctx(false), &mut rec, || Ok(1_000)).unwrap();
        assert_eq!(rec.setup_repeats_ns.len(), SETUPS - 3);

        let half = SETUP_BUDGET_NS / 2;
        let mut slow = Record::default();
        repeat_setups(&ctx(false), &mut slow, || Ok(half)).unwrap();
        assert_eq!(slow.setup_repeats_ns, [half, half]);

        let mut traced = Record::default();
        repeat_setups(&ctx(true), &mut traced, || Ok(1)).unwrap();
        assert!(traced.setup_repeats_ns.is_empty());
    }
}
