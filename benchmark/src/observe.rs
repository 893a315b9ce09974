//! `observe-analyze`: the churn configuration on one thread with every
//! observer attached and a checkpoint every 100 cycles, then every
//! artifact read back through the public readers.
//!
//! The round's job, timed for `hops_per_s`, is the observed run plus the
//! read-back: trace `to_jsonl` → `parse_jsonl_with_meta` →
//! `verify_replay` → `RunForensics` summary and congestion; telemetry
//! `to_jsonl`; profile `to_jsonl` → `render_profile`; and each
//! checkpoint `from_text` → `stepper_from`.

use std::cell::Cell;
use std::time::Instant;

use gcube_analysis::forensics::{render_profile, RunForensics};
use gcube_sim::trace::to_jsonl;
use gcube_sim::{
    parse_jsonl_with_meta, verify_replay, ArtifactKind, MemorySink, ProfileCollector, SimConfig,
    Simulator, TelemetryCollector, TraceEvent, TraceSink,
};

use crate::harness::{
    capture, for_rounds, meta_line, repeat_setups, restore, step_to_end, Ctx, Planner, Record,
    Round, RoundStats,
};
use crate::sim::{churn_config, file_round};
use crate::spans::Tracer;
use gcube_topology::Topology;

/// Injection cycles of an `observe-analyze` round.
pub const OBSERVE_INJECT: u64 = 1_000;
/// Cycles between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 100;

/// A memory sink that also counts its events where the caller can read
/// them while the stepper holds the sink (the checkpoint's trace mark).
struct Marked<'a> {
    sink: &'a mut MemorySink,
    count: &'a Cell<u64>,
}

impl TraceSink for Marked<'_> {
    fn record(&mut self, event: &TraceEvent) {
        self.sink.record(event);
        self.count.set(self.count.get() + 1);
    }
}

/// Run the workload.
pub fn observe_analyze(ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
    let cfg = churn_config(ctx.seed, OBSERVE_INJECT);
    for_rounds(ctx, 5, |_, traced| {
        let mut tr = Tracer::new(traced, ctx.epoch);
        let root = tr.enter("round");
        let planner = Planner::new("ftgcr", traced);

        let span = tr.enter("setup");
        let t = Instant::now();
        let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
        let sim_ns = t.elapsed().as_nanos() as u64;
        let mut mem = MemorySink::new();
        let count = Cell::new(0);
        let mut telem = TelemetryCollector::new(sim.cube(), cfg.telemetry_interval);
        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.window);
        let t = Instant::now();
        let mut st = sim
            .session()
            .trace(Marked {
                sink: &mut mem,
                count: &count,
            })
            .telemetry(&mut telem)
            .profile(&mut prof)
            .stepper();
        let core_ns = t.elapsed().as_nanos() as u64;
        tr.exit(span);

        let t_job = Instant::now();
        let mut lat = Vec::new();
        let mut checkpoints = Vec::new();
        step_to_end(&mut st, &planner, &mut tr, &mut lat, |st, tr| {
            let c = st.cycle();
            if c > 0 && c % CHECKPOINT_EVERY == 0 {
                checkpoints.push((c, capture(st, count.get(), tr, rec)?));
            }
            Ok(())
        })?;
        let span = tr.enter("finish");
        let report = st.finish();
        tr.exit(span);

        let span = tr.enter("export");
        let trace_text = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Trace),
            to_jsonl(mem.events())
        );
        let telem_text = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Telemetry),
            telem.to_jsonl()
        );
        let prof_text = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Profile),
            prof.to_jsonl()
        );
        tr.exit(span);

        let span = tr.enter("parse");
        let (header, events) = parse_jsonl_with_meta(&trace_text).map_err(|e| e.to_string())?;
        tr.exit(span);
        rec.gate(header.is_some() && events == mem.events(), || {
            "the parsed trace differs from the recorded one".to_string()
        });

        let span = tr.enter("verify");
        let replayer = Planner::new("ftgcr", false);
        let verified = verify_replay(cfg.clone(), replayer.algo(), &events);
        tr.exit(span);
        rec.gate(verified == Ok(events.len()), || {
            format!("replay verification failed: {verified:?}")
        });

        let span = tr.enter("forensics");
        let forensics = RunForensics::from_events(&events);
        let summary = forensics.summary();
        let congestion = forensics.congestion_table(10);
        let rendered = render_profile(&prof_text);
        tr.exit(span);
        rec.gate(
            !summary.is_empty() && !congestion.is_empty() && rendered.is_ok(),
            || format!("forensics produced nothing: {rendered:?}"),
        );
        rec.gate(telem_text.lines().count() > 1, || {
            "telemetry export is empty".to_string()
        });

        for (cycle, text) in &checkpoints {
            restore(&sim, text, *cycle, &mut tr, rec)?;
        }
        let job_ns = t_job.elapsed().as_nanos() as u64;
        tr.exit(root);

        let mut stats = RoundStats::of(&report.metrics);
        stats.events = mem.events().len() as u64;
        rec.gate_stats(ctx, stats);
        planner.finish(&mut rec.layers);
        if traced {
            let layers = &mut rec.layers;
            layers.setup_sim_ns.push(sim_ns);
            layers.setup_core_ns.push(core_ns);
            layers.absorb_profile(&prof);
            layers.inject_draws += sim.cube().num_nodes() * cfg.inject_cycles;
            layers.trace_bytes += trace_text.len() as u64;
            layers.step_ns.extend_from_slice(&lat);
            let observed: u64 = lat.iter().sum();
            let bare = unobserved_step_ns(&cfg)?;
            layers.observer_ratio.push(observed as f64 / bare as f64);
        }
        let round = Round {
            hops_per_s: stats.hops as f64 / (job_ns as f64 / 1e9),
            setup_ns: sim_ns + core_ns,
            ..Round::default()
        };
        file_round(rec, tr, round, &mut lat)
    })?;
    repeat_setups(ctx, rec, || observed_setup_ns(&cfg))
}

/// One more set-up, timed as a round times its own: `try_new`,
/// then `stepper()` with every observer attached.
fn observed_setup_ns(cfg: &SimConfig) -> Result<u64, String> {
    let planner = Planner::new("ftgcr", false);
    let t = Instant::now();
    let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
    let sim_ns = t.elapsed().as_nanos() as u64;
    let mut mem = MemorySink::new();
    let mut telem = TelemetryCollector::new(sim.cube(), cfg.telemetry_interval);
    let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.window);
    let t = Instant::now();
    let st = sim
        .session()
        .trace(&mut mem)
        .telemetry(&mut telem)
        .profile(&mut prof)
        .stepper();
    let core_ns = t.elapsed().as_nanos() as u64;
    drop(st);
    Ok(sim_ns + core_ns)
}

/// Summed `Stepper::step` time of the same run with no observer.
fn unobserved_step_ns(cfg: &SimConfig) -> Result<u64, String> {
    let planner = Planner::new("ftgcr", false);
    let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
    let mut st = sim.session().stepper();
    let mut total = 0;
    loop {
        let t = Instant::now();
        let done = st.step();
        total += t.elapsed().as_nanos() as u64;
        if done {
            return Ok(total);
        }
    }
}
