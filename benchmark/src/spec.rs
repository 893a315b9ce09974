//! The benchmark's definition, read from `BENCHMARK.json` (embedded at
//! build time, so the binary and its definition cannot drift apart), and
//! the golden simulated statistics from `golden.json`.

use gcube_sim::proto::{parse_json, JsonValue};

/// One metric of the definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only; `0` for per-layer metrics).
    pub bound: f64,
}

/// The parsed definition.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<Metric>,
}

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");
const GOLDEN_TEXT: &str = include_str!("../golden.json");

fn metrics(v: &JsonValue, key: &str) -> Result<Vec<Metric>, String> {
    let list = v
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json lacks {key}"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key} entry lacks {k}"))
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                higher: field("better")? == "higher",
                bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

impl Spec {
    /// The embedded definition.
    pub fn load() -> Result<Spec, String> {
        let v = parse_json(SPEC_TEXT)?;
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .ok_or("BENCHMARK.json lacks workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            workloads,
            run_seconds: v
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json lacks run_seconds")?,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }

    /// The metrics a run with `trace` prints.
    pub fn printed(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The seed the golden statistics were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// The golden per-round statistics of `workload` at [`DEFAULT_SEED`], as
/// `(field, value)` pairs.
pub fn golden(workload: &str) -> Result<Vec<(String, u64)>, String> {
    let v = parse_json(GOLDEN_TEXT)?;
    let seed = v.get("seed").and_then(JsonValue::as_u64);
    if seed != Some(DEFAULT_SEED) {
        return Err(format!(
            "golden.json records seed {seed:?}, not {DEFAULT_SEED}"
        ));
    }
    match v.get("workloads").and_then(|w| w.get(workload)) {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .map(|(k, x)| {
                x.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or(format!("golden {workload}.{k} is not a count"))
            })
            .collect(),
        _ => Err(format!("golden.json has no entry for {workload}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_stays_within_its_limits() {
        let spec = Spec::load().unwrap();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        assert!(!setup.higher && setup.unit == "s");
        let largest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s has the largest bound");
    }

    #[test]
    fn every_workload_has_golden_statistics() {
        let spec = Spec::load().unwrap();
        for w in &spec.workloads {
            let g = golden(w).unwrap();
            assert!(g.iter().any(|(k, n)| k == "hops" && *n > 0), "{w}");
        }
    }
}
