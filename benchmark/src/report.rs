//! Printing a run, running every workload, provenance, and recording
//! golden statistics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gcube_sim::proto::quote;

use crate::harness::{Ctx, Record};
use crate::metrics::Value;
use crate::spec::{Spec, DEFAULT_SEED};
use crate::{run_workload, Scratch, OUT_DIR};

/// A number as JSON (all its digits; non-finite values are refused
/// before printing).
fn num(v: f64) -> String {
    format!("{v}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host fingerprint fields, as the inside of a JSON object.
fn host_fields() -> String {
    format!(
        "\"host_cores\":{},\"cpu\":{},\"rustc\":{}",
        host_cores(),
        quote(&cpu_model()),
        quote(&command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
    )
}

/// Print one workload run: a readable table, a `detail` line with the
/// spreads and provenance, and last the result line.
pub fn print_run(
    spec: &Spec,
    ctx: &Ctx,
    rec: &Record,
    rounds: usize,
    values: &BTreeMap<String, Value>,
) -> Result<(), String> {
    let mut metrics = String::new();
    let mut detail = String::new();
    println!(
        "{} seed {} ({}, {rounds} rounds)",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "per layer" } else { "end to end" }
    );
    for m in spec.printed(ctx.trace) {
        let v = values
            .get(&m.name)
            .ok_or(format!("{} did not produce {}", ctx.workload, m.name))?;
        for x in [v.value, v.q1, v.q3] {
            if !x.is_finite() {
                return Err(format!("{} measured a non-finite {}", ctx.workload, m.name));
            }
        }
        println!(
            "  {:<32} {:>16.6} {:<7} [{:.6} .. {:.6}] n={}",
            m.name, v.value, m.unit, v.q1, v.q3, v.n
        );
        let sep = if metrics.is_empty() { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            quote(&m.name),
            num(v.value),
            quote(&m.unit)
        );
        let samples: Vec<String> = v.samples.iter().map(|&x| num(x)).collect();
        let _ = write!(
            detail,
            "{sep}{}:{{\"value\":{},\"unit\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
            quote(&m.name),
            num(v.value),
            quote(&m.unit),
            num(v.q1),
            num(v.q3),
            v.n,
            samples.join(",")
        );
    }
    for f in &rec.failures {
        eprintln!("FAILED: {f}");
    }
    let failures: Vec<String> = rec.failures.iter().map(|f| quote(f)).collect();
    println!(
        "{{\"detail\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"rounds\":{rounds},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],{},\"metrics\":{{{detail}}}}}}}",
        quote(&ctx.workload),
        ctx.seed,
        u8::from(ctx.trace),
        rec.failed == 0,
        rec.attempted,
        rec.failed,
        failures.join(","),
        host_fields(),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        rec.failed == 0,
        rec.attempted.max(1),
        rec.failed
    );
    Ok(())
}

/// Run one workload in a child process and return its `detail` line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("{\"detail\":"))
        .and_then(|l| l.strip_suffix('}'))
        .ok_or(format!(
            "{workload} printed no result (exit {})",
            out.status
        ))?;
    Ok((detail.to_string(), out.status.success()))
}

/// Run every workload `runs` times (interleaved, seeds `seed`,
/// `seed + 1`, ...), each in its own process, then once traced if asked;
/// write the result file and print the summary.
pub fn all(
    spec: &Spec,
    out: &Option<PathBuf>,
    seed: u64,
    seconds: f64,
    runs: usize,
    traced: bool,
) -> Result<bool, String> {
    let started = Instant::now();
    let mut details = Vec::new();
    let mut ok = true;
    for r in 0..runs as u64 {
        for w in &spec.workloads {
            let (d, success) = child(w, seed + r, seconds, false)?;
            ok &= success;
            details.push(d);
        }
    }
    if traced {
        for w in &spec.workloads {
            let (d, success) = child(w, seed, seconds, true)?;
            ok &= success;
            details.push(d);
        }
    }

    let git = if Path::new(".git").exists() {
        let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_default();
        let dirty =
            command_output("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        format!("\"git_commit\":{},\"git_dirty\":{dirty}", quote(&commit))
    } else {
        "\"git_commit\":\"unknown\",\"git_dirty\":false".to_string()
    };
    let cores = host_cores();
    let note = format!(
        "2-thread numbers were measured on a host with {cores} cores; \
         they support no claim about hosts with 4 or more cores"
    );
    let mut file = format!(
        "{{\"provenance\":{{{},{git},\"seed\":{seed},\"runs\":{runs},\"seconds\":{},\
         \"parallel_note\":{}}},\n\"runs\":[\n",
        host_fields(),
        num(seconds),
        quote(&note)
    );
    file.push_str(&details.join(",\n"));
    file.push_str("\n]}\n");
    let path = out.clone().unwrap_or_else(|| {
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        PathBuf::from(OUT_DIR).join(format!("result-{secs}.json"))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, &file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let rows = crate::compare::load_runs(&file)?;
    println!(
        "\nmedian of {runs} end-to-end runs per workload [quartiles] ({:.0} s):",
        started.elapsed().as_secs_f64()
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let values: Vec<f64> = rows
                .iter()
                .filter(|r| &r.workload == w && !r.trace)
                .filter_map(|r| r.metrics.get(&m.name).map(|v| v.value))
                .collect();
            let v = Value::of(&values);
            println!(
                "  {w:<16} {:<16} {:>16.6} {:<7} [{:.6} .. {:.6}]",
                m.name, v.value, m.unit, v.q1, v.q3
            );
        }
    }
    println!("result file: {}", path.display());
    Ok(ok)
}

/// Run one untimed round of every workload at the default seed and print
/// the statistics as `golden.json`.
pub fn golden(spec: &Spec) -> Result<(), String> {
    let work = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n");
    for (i, w) in spec.workloads.iter().enumerate() {
        let ctx = Ctx {
            workload: w.clone(),
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            golden: true,
            work: work.clone(),
            epoch: Instant::now(),
        };
        let mut rec = Record::default();
        run_workload(&ctx, &mut rec)?;
        if rec.failed > 0 {
            return Err(format!("{w} failed its gates: {:?}", rec.failures));
        }
        let fields: Vec<String> = rec
            .stats()
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let sep = if i + 1 < spec.workloads.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    {}: {{{}}}{sep}", quote(w), fields.join(", "));
    }
    out.push_str("  }\n}\n");
    print!("{out}");
    Ok(())
}
