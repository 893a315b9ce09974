//! The in-process simulator workloads: `fwd-dense`, `inject-sparse` and
//! `churn-t2`.
//!
//! A round is one fresh job: a new strategy (cold plan cache), a new
//! `Simulator`, a run to completion. `setup_s` is `Simulator::try_new`
//! plus `session().stepper()`, the cycle-0 state. The per-operation
//! latency is one `Stepper::step`, i.e. one simulated cycle.

use std::time::Instant;

use gcube_sim::{
    CategoryMix, ChurnReport, FaultKind, FaultSchedule, KnowledgeModel, NullProfiler,
    ProfileCollector, ProfilerSink, SimConfig, Simulator,
};

use crate::harness::{
    checkpoint_roundtrip, for_rounds, own_peak_rss_mb, repeat_setups, round_latency, step_to_end,
    Ctx, Planner, Record, Round, RoundStats,
};
use crate::spans::Tracer;
use gcube_topology::Topology;

/// Dense forwarding: GC(16,4), fault-free, rate 0.01.
pub fn fwd_dense_config(seed: u64) -> SimConfig {
    SimConfig::new(16, 4)
        .with_rate(0.01)
        .with_cycles(1_000, 2_000, 100)
        .with_seed(seed)
}

/// Sparse injection on a million nodes: GC(20,4), rate 0.0002.
pub fn inject_sparse_config(seed: u64) -> SimConfig {
    SimConfig::new(20, 4)
        .with_rate(0.0002)
        .with_cycles(1_000, 2_000, 100)
        .with_seed(seed)
}

/// Planning under churn: GC(12,4), rate 0.02, Bernoulli transient
/// faults at 0.05 per cycle, 30% of them on nodes, knowledge lagging by
/// the paper's exchange bound.
pub fn churn_config(seed: u64, inject: u64) -> SimConfig {
    SimConfig::new(12, 4)
        .with_rate(0.02)
        .with_cycles(inject, 2_000, inject / 10)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 80 },
            mix: CategoryMix::default(),
            node_fraction: 0.3,
        })
        .with_knowledge(KnowledgeModel::PaperDelay)
        .with_seed(seed)
}

/// Injection cycles of a `churn-t2` round.
pub const CHURN_INJECT: u64 = 1_000;

/// What one stepped run produced.
pub struct Stepped {
    /// The run's report.
    pub report: ChurnReport,
    /// `try_new` plus `stepper()`, nanoseconds.
    pub setup_ns: u64,
    /// Stepping to completion plus `finish`, nanoseconds.
    pub run_ns: u64,
}

/// One stepped 1-thread run of `cfg` with a fresh `strategy`. Traced runs
/// time planning, attach a profiler for the phase split, and take a
/// checkpoint probe half-way through injection.
pub fn stepped_run(
    cfg: &SimConfig,
    strategy: &str,
    traced: bool,
    tr: &mut Tracer,
    lat: &mut Vec<u64>,
    rec: &mut Record,
) -> Result<Stepped, String> {
    let planner = Planner::new(strategy, traced);
    let span = tr.enter("setup");
    let t = Instant::now();
    let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
    let sim_ns = t.elapsed().as_nanos() as u64;
    tr.exit(span);
    let out = if traced {
        rec.layers.setup_sim_ns.push(sim_ns);
        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.window);
        let first = lat.len();
        let out = drive(&sim, &mut prof, &planner, traced, tr, lat, rec)?;
        rec.layers.step_ns.extend_from_slice(&lat[first..]);
        rec.layers.absorb_profile(&prof);
        rec.layers.inject_draws += sim.cube().num_nodes() * cfg.inject_cycles;
        out
    } else {
        drive(&sim, NullProfiler, &planner, traced, tr, lat, rec)?
    };
    planner.finish(&mut rec.layers);
    Ok(Stepped {
        setup_ns: sim_ns + out.setup_ns,
        ..out
    })
}

/// One more set-up of `cfg` with a fresh `strategy`, timed as
/// [`stepped_run`] times its own: `try_new` plus `stepper()`.
pub fn setup_ns(cfg: &SimConfig, strategy: &str) -> Result<u64, String> {
    let planner = Planner::new(strategy, false);
    let t = Instant::now();
    let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
    let st = sim.session().stepper();
    let ns = t.elapsed().as_nanos() as u64;
    drop(st);
    Ok(ns)
}

fn drive<P: ProfilerSink>(
    sim: &Simulator<'_>,
    prof: P,
    planner: &Planner,
    traced: bool,
    tr: &mut Tracer,
    lat: &mut Vec<u64>,
    rec: &mut Record,
) -> Result<Stepped, String> {
    let span = tr.enter("setup");
    let t = Instant::now();
    let mut st = sim.session().profile(prof).stepper();
    let setup_ns = t.elapsed().as_nanos() as u64;
    tr.exit(span);
    if traced {
        rec.layers.setup_core_ns.push(setup_ns);
    }

    let t = Instant::now();
    let probe_at = sim.config().inject_cycles / 2;
    let mut probe_ns = 0;
    step_to_end(&mut st, planner, tr, lat, |st, tr| {
        if traced && st.cycle() == probe_at {
            let t = Instant::now();
            checkpoint_roundtrip(sim, st, 0, tr, rec)?;
            probe_ns += t.elapsed().as_nanos() as u64;
        }
        Ok(())
    })?;
    let span = tr.enter("finish");
    let report = st.finish();
    tr.exit(span);
    Ok(Stepped {
        report,
        setup_ns,
        // The probe is no part of the job the untraced round times.
        run_ns: t.elapsed().as_nanos() as u64 - probe_ns,
    })
}

/// `fwd-dense` and `inject-sparse`: one stepped run per round.
pub fn stepped_workload(ctx: &Ctx, cfg: SimConfig, rec: &mut Record) -> Result<(), String> {
    for_rounds(ctx, 5, |_, traced| {
        let mut tr = Tracer::new(traced, ctx.epoch);
        let root = tr.enter("round");
        let mut lat = Vec::new();
        let run = stepped_run(&cfg, "ffgcr", traced, &mut tr, &mut lat, rec)?;
        tr.exit(root);
        let stats = RoundStats::of(&run.report.metrics);
        rec.gate_stats(ctx, stats);
        let round = Round {
            hops_per_s: stats.hops as f64 / (run.run_ns as f64 / 1e9),
            setup_ns: run.setup_ns,
            ..Round::default()
        };
        file_round(rec, tr, round, &mut lat)
    })?;
    repeat_setups(ctx, rec, || setup_ns(&cfg, "ffgcr"))
}

/// `churn-t2`: per round, a stepped 1-thread run (set-up and per-cycle
/// latency) and a 2-thread shard-engine run (`hops_per_s`) whose report
/// must equal the 1-thread one.
pub fn churn_t2(ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
    let cfg = churn_config(ctx.seed, CHURN_INJECT);
    for_rounds(ctx, 5, |_, traced| {
        let mut tr = Tracer::new(traced, ctx.epoch);
        let root = tr.enter("round");
        let mut lat = Vec::new();
        let one = stepped_run(&cfg, "ftgcr", traced, &mut tr, &mut lat, rec)?;

        let planner = Planner::new("ftgcr", traced);
        let span = tr.enter("run");
        let t2 = Instant::now();
        let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
        let report = if traced {
            let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.window);
            let r = sim.session().threads(2).profile(&mut prof).try_run();
            rec.layers.absorb_profile(&prof);
            r
        } else {
            sim.session().threads(2).try_run()
        }
        .map_err(|e| e.to_string())?;
        let two_ns = t2.elapsed().as_nanos() as u64;
        tr.exit(span);
        planner.finish(&mut rec.layers);
        tr.exit(root);

        rec.gate(report == one.report, || {
            "the 2-thread report differs from the 1-thread report".to_string()
        });
        let stats = RoundStats::of(&report.metrics);
        rec.gate_stats(ctx, stats);
        if traced {
            rec.layers
                .speedup_t2
                .push(one.run_ns as f64 / two_ns as f64);
        }
        let round = Round {
            hops_per_s: stats.hops as f64 / (two_ns as f64 / 1e9),
            setup_ns: one.setup_ns,
            ..Round::default()
        };
        file_round(rec, tr, round, &mut lat)
    })?;
    repeat_setups(ctx, rec, || setup_ns(&cfg, "ftgcr"))
}

/// File a finished round: an untraced round feeds the end-to-end metrics,
/// a traced round the per-layer ones. A round that did not measure its
/// peak resident set elsewhere takes this process's.
pub fn file_round(
    rec: &mut Record,
    tr: Tracer,
    mut round: Round,
    lat: &mut [u64],
) -> Result<(), String> {
    rec.attempted += lat.len() as u64;
    if !tr.on() {
        rec.fold_fastest(lat);
    }
    (round.latency_p50_ns, round.latency_p99_ns) = round_latency(lat);
    if round.peak_rss_mb == 0.0 {
        round.peak_rss_mb = own_peak_rss_mb()?;
    }
    if tr.on() {
        rec.layers.spans.push(tr.into_spans());
        rec.layers.rounds.push(round);
    } else {
        rec.rounds.push(round);
    }
    Ok(())
}
