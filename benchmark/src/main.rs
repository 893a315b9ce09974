//! The repository's benchmark: five end-to-end workloads over the
//! simulator, the daemon and the artifact readers, plus a traced run
//! that splits their time by layer. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! benchmark [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--out PATH]
//! benchmark compare PARENT.json[,...] CHANGE.json[,...]
//! benchmark golden
//! ```

mod compare;
mod harness;
mod metrics;
mod observe;
mod report;
mod serve;
mod sim;
mod spans;
mod spec;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{traffic_draw_ns, Ctx, Record};
use spec::{Spec, DEFAULT_SEED};

/// Where runs put scratch files and results, relative to the checkout.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String], run_seconds: f64) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: run_seconds,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
    match ctx.workload.as_str() {
        "fwd-dense" => sim::stepped_workload(ctx, sim::fwd_dense_config(ctx.seed), rec),
        "inject-sparse" => sim::stepped_workload(ctx, sim::inject_sparse_config(ctx.seed), rec),
        "churn-t2" => sim::churn_t2(ctx, rec),
        "serve-mixed" => serve::serve_mixed(ctx, rec),
        "observe-analyze" => observe::observe_analyze(ctx, rec),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The injection rate whose Bernoulli draw the traffic probe times.
fn workload_rate(workload: &str, seed: u64) -> f64 {
    match workload {
        "fwd-dense" => sim::fwd_dense_config(seed).injection_rate,
        "inject-sparse" => sim::inject_sparse_config(seed).injection_rate,
        "serve-mixed" => serve::session_config(seed, 0).injection_rate,
        _ => sim::churn_config(seed, sim::CHURN_INJECT).injection_rate,
    }
}

/// One workload in this process: measure, check, print.
fn single(spec: &Spec, args: &Args, workload: String) -> Result<bool, String> {
    if !spec.workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            spec.workloads.join(", ")
        ));
    }
    let work = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        golden: false,
        work,
        epoch: Instant::now(),
    };
    let mut rec = Record::default();
    run_workload(&ctx, &mut rec)?;
    let values = if ctx.trace {
        let draw_ns = traffic_draw_ns(ctx.seed, workload_rate(&ctx.workload, ctx.seed));
        let (values, spans) = metrics::per_layer(&mut rec, draw_ns);
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        std::fs::write(&path, spans::to_jsonl(&spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
        values
    } else {
        metrics::end_to_end(&rec)
    };
    let rounds = if ctx.trace {
        rec.layers.rounds.len()
    } else {
        rec.rounds.len()
    };
    report::print_run(spec, &ctx, &rec, rounds, &values)?;
    Ok(rec.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = (|| -> Result<bool, String> {
        let spec = Spec::load()?;
        match argv.first().map(String::as_str) {
            Some("compare") => match &argv[1..] {
                [a, b] => compare::compare(&spec, a, b),
                _ => Err("usage: benchmark compare PARENT.json[,...] CHANGE.json[,...]".into()),
            },
            Some("golden") => report::golden(&spec).map(|()| true),
            _ => {
                let args = parse_args(&argv, spec.run_seconds)?;
                match args.workload.clone() {
                    Some(w) => single(&spec, &args, w),
                    None => report::all(
                        &spec,
                        &args.out,
                        args.seed,
                        args.seconds,
                        args.runs,
                        args.trace,
                    ),
                }
            }
        }
    })();
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
