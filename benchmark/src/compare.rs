//! `benchmark compare PARENT.json[,...] CHANGE.json[,...]`: one row per
//! workload and end-to-end metric, judged against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use gcube_sim::proto::{parse_json, JsonValue};

use crate::metrics::Value;
use crate::spec::Spec;
use crate::stats::{quartiles, verdict, Bound, Side, Verdict};

/// One workload run read back from a result file.
pub struct RunRow {
    /// Workload name.
    pub workload: String,
    /// Whether it was a per-layer run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Printed metrics with their spreads.
    pub metrics: BTreeMap<String, Value>,
}

/// Read one run's `detail` object back (the inverse of what
/// `report::print_run` prints).
fn parse_run(v: &JsonValue) -> Option<RunRow> {
    let mut metrics = BTreeMap::new();
    if let Some(JsonValue::Obj(fields)) = v.get("metrics") {
        for (name, m) in fields {
            let get = |k: &str| m.get(k).and_then(JsonValue::as_f64);
            let samples = m.get("samples").and_then(JsonValue::as_arr).unwrap_or(&[]);
            let value = Value {
                value: get("value")?,
                q1: get("q1")?,
                q3: get("q3")?,
                n: m.get("n").and_then(JsonValue::as_u64)? as usize,
                samples: samples.iter().filter_map(JsonValue::as_f64).collect(),
            };
            metrics.insert(name.clone(), value);
        }
    }
    Some(RunRow {
        workload: v.get("workload")?.as_str()?.to_string(),
        trace: v.get("trace")?.as_u64()? == 1,
        attempted: v.get("attempted")?.as_u64()?,
        failed: v.get("failed")?.as_u64()?,
        metrics,
    })
}

/// The runs of a result file's text.
pub fn load_runs(text: &str) -> Result<Vec<RunRow>, String> {
    parse_json(text.trim())
        .map_err(|e| format!("not a result file: {e}"))?
        .get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("result file has no runs")?
        .iter()
        .map(|r| parse_run(r).ok_or_else(|| "malformed run in result file".to_string()))
        .collect()
}

/// One side's runs of `metric` on `workload`, with their spread: between
/// runs when there are several, within the run's rounds otherwise.
fn side(runs: &[RunRow], workload: &str, metric: &str) -> Option<Side> {
    let picked: Vec<&Value> = runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric))
        .collect();
    let values: Vec<f64> = picked.iter().map(|v| v.value).collect();
    let spread = match picked.as_slice() {
        [] => return None,
        [one] => one.q3 - one.q1,
        _ => {
            let (q1, _, q3) = quartiles(&values);
            q3 - q1
        }
    };
    Some(Side { values, spread })
}

fn fail_ratio(runs: &[RunRow], workload: &str) -> f64 {
    let (a, f) = runs
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    if a == 0 {
        0.0
    } else {
        f as f64 / a as f64
    }
}

/// The runs of comma-separated result files, in order: alternate parent
/// and change files with `--runs 1` each to get pairs for a gain claim.
fn read_side(paths: &str) -> Result<Vec<RunRow>, String> {
    let mut runs = Vec::new();
    for p in paths.split(',') {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        runs.extend(load_runs(&text)?);
    }
    Ok(runs)
}

/// Print the comparison; `Ok(false)` when any row regressed.
pub fn compare(spec: &Spec, parent_paths: &str, change_paths: &str) -> Result<bool, String> {
    let (parent, change) = (read_side(parent_paths)?, read_side(change_paths)?);
    let mut clean = true;
    println!(
        "{:<16} {:<15} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(p), Some(c)) = (side(&parent, w, &m.name), side(&change, w, &m.name)) else {
                println!("{w:<16} {:<15} missing on one side", m.name);
                continue;
            };
            let bound = Bound::for_metric(&m.name, m.bound);
            let v = verdict(&p, &c, m.higher, bound);
            clean &= v != Verdict::Worse;
            let show = |s: &Side| {
                let (q1, q2, q3) = quartiles(&s.values);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let (mp, mc) = (quartiles(&p.values).1, quartiles(&c.values).1);
            println!(
                "{w:<16} {:<15} {:>30} {:>30} {:>+7.2}% {:>6.1}%  {}",
                m.name,
                show(&p),
                show(&c),
                100.0 * (mc - mp) / mp.abs(),
                100.0 * bound.allowed(mp) / mp.abs(),
                v.as_str()
            );
        }
        let (fp, fc) = (fail_ratio(&parent, w), fail_ratio(&change, w));
        if fc > fp {
            clean = false;
            println!("{w:<16} fail_ratio      {fp:.6} -> {fc:.6}  worse");
        }
    }
    Ok(clean)
}
