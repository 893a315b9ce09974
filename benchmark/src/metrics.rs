//! Turning a workload's [`Record`] into the printed metrics.

use std::collections::BTreeMap;

use crate::harness::{Record, Round};
use crate::serve::io_residual_share;
use crate::spans::{layer_times, merge, Span, LAYERS};
use crate::stats::{median, percentile, quartiles};

/// One printed metric value with the spread behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The reported number.
    pub value: f64,
    /// First quartile of the per-round samples.
    pub q1: f64,
    /// Third quartile of the per-round samples.
    pub q3: f64,
    /// Samples behind the quartiles.
    pub n: usize,
    /// The per-round samples themselves.
    pub samples: Vec<f64>,
}

impl Value {
    /// A median with its quartiles.
    pub fn of(samples: &[f64]) -> Value {
        let (q1, q2, q3) = quartiles(samples);
        Value {
            value: q2,
            q1,
            q3,
            n: samples.len(),
            samples: samples.to_vec(),
        }
    }

    /// The best sample (the highest when `higher` is better, else the
    /// lowest), with the quartiles of all of them.
    pub fn best(samples: &[f64], higher: bool) -> Value {
        let pick = if higher { f64::max } else { f64::min };
        let init = if higher {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        Value {
            value: samples.iter().copied().fold(init, pick),
            ..Value::of(samples)
        }
    }

    /// A single number with no spread.
    pub fn one(value: f64) -> Value {
        Value {
            value,
            q1: value,
            q3: value,
            n: 1,
            samples: Vec::new(),
        }
    }
}

/// The end-to-end metrics of the untraced rounds. Every round does the
/// same work, and on a shared host interference only ever slows it down,
/// so throughput and memory report the run's best round. Every round also
/// repeats the same operations in the same order, so each operation's
/// latency is its fastest execution across the rounds, and the latency
/// percentiles are taken over those: a host interruption must hit the
/// same operation in every round to show. The per-round values ride along
/// as samples and quartiles. Set-up time reports the median of every
/// set-up the rounds timed, so that work moved into set-up shows.
pub fn end_to_end(rec: &Record) -> BTreeMap<String, Value> {
    let best = |higher: bool, f: &dyn Fn(&Round) -> f64| {
        Value::best(&rec.rounds.iter().map(f).collect::<Vec<_>>(), higher)
    };
    let fastest = |p: f64, f: &dyn Fn(&Round) -> f64| Value {
        value: percentile(&rec.op_min_ns, p) / 1e3,
        ..Value::of(&rec.rounds.iter().map(f).collect::<Vec<_>>())
    };
    let setup: Vec<f64> = rec
        .rounds
        .iter()
        .map(|r| r.setup_ns)
        .chain(rec.setup_repeats_ns.iter().copied())
        .map(|ns| ns as f64 / 1e9)
        .collect();
    [
        ("hops_per_s", best(true, &|r| r.hops_per_s)),
        ("latency_p50_us", fastest(50.0, &|r| r.latency_p50_ns / 1e3)),
        ("latency_p99_us", fastest(99.0, &|r| r.latency_p99_ns / 1e3)),
        ("setup_s", Value::of(&setup)),
        ("peak_rss_mb", best(false, &|r| r.peak_rss_mb)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn median_s(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>())
}

fn median_us(ns: &[u64]) -> f64 {
    median_s(ns) * 1e6
}

/// The per-layer metrics of the traced rounds, and their spans merged
/// across threads; `draw_ns` is the traffic probe's measurement. Times
/// are totals over the traced rounds (so a share is a time over
/// `trace.wall_s`); counts are per round.
pub fn per_layer(rec: &mut Record, draw_ns: f64) -> (BTreeMap<String, Value>, Vec<Span>) {
    let spans = merge(std::mem::take(&mut rec.layers.spans));
    let (times, total_ns) = layer_times(&spans);
    let l = &rec.layers;
    let traced = l.rounds.len().max(1) as f64;
    let stats = rec.stats();
    let plain_hops: Vec<f64> = rec.rounds.iter().map(|r| r.hops_per_s).collect();
    let traced_hops: Vec<f64> = l.rounds.iter().map(|r| r.hops_per_s).collect();
    let step_total: u64 = l.step_ns.iter().sum();
    let f = |x: u64| x as f64;

    let mut out: Vec<(String, f64)> = vec![
        ("trace.wall_s".into(), f(total_ns) / 1e9),
        (
            "trace.overhead_ratio".into(),
            ratio(max(&plain_hops), max(&traced_hops)),
        ),
        ("setup.simulator_s".into(), median_s(&l.setup_sim_ns)),
        ("setup.core_s".into(), median_s(&l.setup_core_ns)),
        ("routing.plan_calls".into(), f(l.plan_calls) / traced),
        ("routing.plan_failures".into(), f(l.plan_failures) / traced),
        ("routing.plan_busy_s".into(), f(l.plan_busy_ns) / 1e9),
        ("routing.plan_ns_p50".into(), l.plan_hist.percentile(50.0)),
        ("routing.plan_ns_p99".into(), l.plan_hist.percentile(99.0)),
        (
            "routing.cache_hit_rate".into(),
            ratio(f(l.cache_hits), f(l.cache_hits + l.cache_misses)),
        ),
        ("routing.cache_misses".into(), f(l.cache_misses) / traced),
        (
            "engine.step_us_p50".into(),
            percentile(&l.step_ns, 50.0) / 1e3,
        ),
        (
            "engine.step_us_p99".into(),
            percentile(&l.step_ns, 99.0) / 1e3,
        ),
        ("engine.self_s".into(), f(times["engine"]) / 1e9),
        (
            "engine.phase.reconvergence_s".into(),
            f(l.phase_ns[0]) / 1e9,
        ),
        ("engine.phase.planning_s".into(), f(l.phase_ns[1]) / 1e9),
        ("engine.phase.forwarding_s".into(), f(l.phase_ns[2]) / 1e9),
        ("traffic.draw_ns".into(), draw_ns),
        (
            "traffic.inject_share".into(),
            ratio(f(l.inject_draws) * draw_ns, f(step_total)),
        ),
        ("checkpoint.capture_us".into(), median_us(&l.ck_capture_ns)),
        (
            "checkpoint.bytes".into(),
            median(&l.ck_bytes.iter().map(|&b| f(b)).collect::<Vec<_>>()),
        ),
        ("checkpoint.parse_us".into(), median_us(&l.ck_parse_ns)),
        ("checkpoint.restore_us".into(), median_us(&l.ck_restore_ns)),
        (
            "shard.barrier_fraction".into(),
            median_or_zero(&l.barrier_fraction),
        ),
        (
            "shard.imbalance_avg_milli".into(),
            median_or_zero(&l.imbalance_milli.iter().map(|&m| f(m)).collect::<Vec<_>>()),
        ),
        ("shard.steal_units".into(), f(l.steal_units) / traced),
        ("shard.speedup_t2".into(), median_or_zero(&l.speedup_t2)),
        (
            "observers.overhead_ratio".into(),
            median_or_zero(&l.observer_ratio),
        ),
        ("observers.trace_events".into(), f(stats.events)),
        ("observers.trace_bytes".into(), f(l.trace_bytes) / traced),
        ("server.io_residual_share".into(), io_residual_share(rec)),
    ];
    for (name, value) in stats.fields() {
        if name != "in_flight" && name != "fault_events" && name != "events" {
            out.push((format!("engine.{name}"), f(value)));
        }
    }
    for layer in LAYERS {
        out.push((
            format!("share.{layer}"),
            ratio(f(times[layer]), f(total_ns)),
        ));
    }
    let values = out.into_iter().map(|(k, v)| (k, Value::one(v))).collect();
    (values, spans)
}
