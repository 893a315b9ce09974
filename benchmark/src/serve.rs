//! `serve-mixed`: the real `gcube serve` binary on a Unix socket, driven
//! by two closed-loop clients (each waits for a reply before its next
//! request).
//!
//! Every round starts a fresh daemon; `setup_s` is the time from spawning
//! it to the first `open` reply, and `peak_rss_mb` is the daemon's. Each
//! client then runs [`SESSIONS`] sessions one after another: `open`, 60 ×
//! `step 1`, `snapshot`, `restore` (a rewind onto the same session),
//! `step 8` until done, `telemetry`, `close`. The per-operation latency
//! is one request round trip, any op. Sessions cycle through [`SEEDS`]
//! seeds, whose direct `Simulator` runs are the reference every `close`
//! reply is checked against; those runs also give the simulated hops
//! behind `hops_per_s`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gcube_sim::proto::{config_to_json, parse_json, quote, JsonValue};
use gcube_sim::server::{Server, ServerConfig};
use gcube_sim::trace::to_jsonl;
use gcube_sim::{
    ArtifactKind, CategoryMix, FaultKind, FaultSchedule, MemorySink, Metrics, SimConfig, Simulator,
    TelemetryCollector,
};

use crate::harness::{
    for_rounds, meta_line, peak_rss_mb, repeat_setups, Ctx, Planner, Record, Round, RoundStats,
};
use crate::sim::{file_round, stepped_run};
use crate::spans::{Span, Tracer};
use crate::stats::{median, percentile};

/// Sessions each client runs per round.
pub const SESSIONS: usize = 120;
/// Concurrent client connections.
const CLIENTS: usize = 2;
/// Distinct session seeds per run.
const SEEDS: u64 = 8;
/// Sessions per client in the traced in-process replay.
const INPROC_SESSIONS: usize = SESSIONS / 4;

/// The configuration of session seed `k` of a run with seed `seed`.
pub fn session_config(seed: u64, k: u64) -> SimConfig {
    SimConfig::new(8, 2)
        .with_rate(0.05)
        .with_cycles(150, 2_000, 15)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.01,
            kind: FaultKind::Transient { repair_after: 40 },
            mix: CategoryMix::default(),
            node_fraction: 0.5,
        })
        .with_telemetry_interval(50)
        .with_seed(seed.wrapping_mul(SEEDS).wrapping_add(k))
}

/// A session seed's direct run: the fields `close` reports, the round
/// statistics, and (for seed 0) the exact trace artifact.
struct Reference {
    metrics: Metrics,
    stats: RoundStats,
    trace: String,
}

fn reference(cfg: &SimConfig) -> Result<Reference, String> {
    let planner = Planner::new("ftgcr", false);
    let sim = Simulator::try_new(cfg.clone(), planner.algo()).map_err(|e| e.to_string())?;
    let mut sink = MemorySink::new();
    let mut telem = TelemetryCollector::new(sim.cube(), cfg.telemetry_interval);
    let report = sim
        .session()
        .trace(&mut sink)
        .telemetry(&mut telem)
        .try_run()
        .map_err(|e| e.to_string())?;
    let mut stats = RoundStats::of(&report.metrics);
    stats.events = sink.events().len() as u64;
    Ok(Reference {
        metrics: report.metrics,
        stats,
        trace: format!(
            "{}\n{}",
            meta_line(cfg, ArtifactKind::Trace),
            to_jsonl(sink.events())
        ),
    })
}

/// One request/reply channel to a daemon.
trait Conn {
    /// Send one request line; return the reply's first line.
    fn call(&mut self, line: &str) -> Result<String, String>;
}

/// A socket connection.
struct Socket {
    out: UnixStream,
    input: BufReader<UnixStream>,
}

impl Socket {
    fn connect(path: &Path) -> std::io::Result<Socket> {
        let out = UnixStream::connect(path)?;
        let input = BufReader::new(out.try_clone()?);
        Ok(Socket { out, input })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.input.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("socket read failed: {e}")),
        }
    }
}

impl Conn for Socket {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("socket write failed: {e}"))?;
        let first = self.read_line()?;
        // `telemetry` announces how many artifact lines follow its header.
        if first.contains("\"op\":\"telemetry\"") {
            let extra = parse_json(&first)?
                .get("lines")
                .and_then(JsonValue::as_u64)
                .ok_or("telemetry reply without a line count")?;
            for _ in 0..extra {
                self.read_line()?;
            }
        }
        Ok(first)
    }
}

/// The daemon in this process, called directly.
struct InProcess<'a>(&'a Server);

impl Conn for InProcess<'_> {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let reply = self.0.handle_line(line);
        Ok(reply.text.lines().next().unwrap_or_default().to_string())
    }
}

/// What one client thread brings back from a round.
#[derive(Default)]
struct ClientOut {
    latency_ns: Vec<u64>,
    gates: Vec<Result<(), String>>,
    hops: u64,
}

/// Drive one session through the script over `conn`.
#[allow(clippy::too_many_arguments)]
fn session<C: Conn>(
    conn: &mut C,
    id: &str,
    cfg: &SimConfig,
    want: &Reference,
    ck_path: &str,
    trace_path: Option<&str>,
    span_name: &'static str,
    tr: &mut Tracer,
    out: &mut ClientOut,
) -> Result<(), String> {
    let id = quote(id);
    let mut call = |line: String| -> Result<JsonValue, String> {
        let span = tr.enter(span_name);
        let t = Instant::now();
        let reply = conn.call(&line);
        out.latency_ns.push(t.elapsed().as_nanos() as u64);
        tr.exit(span);
        let reply = reply?;
        let v = parse_json(&reply)?;
        if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("request {line} failed: {reply}"));
        }
        Ok(v)
    };
    let field = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_u64);

    call(format!(
        "{{\"op\":\"open\",\"session\":{id},\"strategy\":\"ftgcr\",\"config\":{}}}",
        config_to_json(cfg)
    ))?;
    for _ in 0..60 {
        call(format!(
            "{{\"op\":\"step\",\"session\":{id},\"cycles\":1,\"force\":true}}"
        ))?;
    }
    let ck = quote(ck_path);
    let snap = call(format!(
        "{{\"op\":\"snapshot\",\"session\":{id},\"path\":{ck}}}"
    ))?;
    let back = call(format!(
        "{{\"op\":\"restore\",\"session\":{id},\"path\":{ck}}}"
    ))?;
    out.gates.push(
        if field(&snap, "cycle") == Some(60)
            && field(&back, "cycle") == Some(60)
            && back.get("rewound").and_then(JsonValue::as_bool) == Some(true)
        {
            Ok(())
        } else {
            Err(format!(
                "snapshot/restore at cycle 60 went wrong: {snap:?} {back:?}"
            ))
        },
    );
    loop {
        let r = call(format!(
            "{{\"op\":\"step\",\"session\":{id},\"cycles\":8,\"force\":true}}"
        ))?;
        if r.get("done").and_then(JsonValue::as_bool) == Some(true) {
            break;
        }
    }
    call(format!("{{\"op\":\"telemetry\",\"session\":{id}}}"))?;
    let close = call(match trace_path {
        Some(p) => format!(
            "{{\"op\":\"close\",\"session\":{id},\"trace\":{}}}",
            quote(p)
        ),
        None => format!("{{\"op\":\"close\",\"session\":{id}}}"),
    })?;
    let m = &want.metrics;
    let expected = [
        ("cycles", m.cycles),
        ("injected", m.injected),
        ("delivered", m.delivered),
        ("dropped", m.dropped),
        ("route_failures", m.route_failures),
        ("in_flight_at_end", m.in_flight_at_end),
        ("trace_events", want.stats.events),
    ];
    let wrong: Vec<_> = expected
        .iter()
        .filter(|&&(k, v)| field(&close, k) != Some(v))
        .collect();
    out.gates.push(if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "session {id} closed with {close:?}, expected {wrong:?}"
        ))
    });
    out.hops += want.stats.hops;
    Ok(())
}

/// Run `sessions` sessions for client `c` over `conn`.
#[allow(clippy::too_many_arguments)]
fn client<C: Conn>(
    conn: &mut C,
    c: usize,
    sessions: usize,
    cfgs: &[SimConfig],
    refs: &[Reference],
    work: &Path,
    trace_first: bool,
    span_name: &'static str,
    tr: &mut Tracer,
) -> Result<ClientOut, String> {
    let mut out = ClientOut::default();
    let root = tr.enter("round");
    let ck = work.join(format!("{span_name}-c{c}.ck"));
    let ck = ck.to_str().ok_or("scratch path is not UTF-8")?;
    let trace_path = work.join("gate.trace.jsonl");
    for i in 0..sessions {
        let k = (c * sessions + i) % SEEDS as usize;
        let trace = (trace_first && i == 0)
            .then(|| trace_path.to_str())
            .flatten();
        session(
            conn,
            &format!("c{c}s{i}"),
            &cfgs[k],
            &refs[k],
            ck,
            trace,
            span_name,
            tr,
            &mut out,
        )?;
    }
    tr.exit(root);
    Ok(out)
}

/// A spawned daemon, killed and reaped if dropped while still running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Spawn the daemon and open a first session on a fresh connection;
/// returns the daemon, that connection, and the nanoseconds it took.
fn start_daemon(
    gcube: &Path,
    sock: &Path,
    first_open: &str,
) -> Result<(Daemon, Socket, u64), String> {
    let t = Instant::now();
    let child = Command::new(gcube)
        .arg("serve")
        .arg("--socket")
        .arg(sock)
        .args(["--workers", "2", "--max-sessions", "16"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", gcube.display()))?;
    let mut daemon = Daemon(child);
    let mut conn = loop {
        match Socket::connect(sock) {
            Ok(s) => break s,
            Err(e) => {
                if let Ok(Some(status)) = daemon.0.try_wait() {
                    return Err(format!("the daemon exited early: {status}"));
                }
                if t.elapsed() > Duration::from_secs(10) {
                    return Err(format!("the daemon never accepted connections: {e}"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    };
    let reply = conn.call(first_open)?;
    let setup_ns = t.elapsed().as_nanos() as u64;
    if !reply.contains("\"ok\":true") {
        return Err(format!("the first open failed: {reply}"));
    }
    Ok((daemon, conn, setup_ns))
}

/// Ask the daemon to shut down and wait for it to exit.
fn stop_daemon(mut daemon: Daemon, mut conn: Socket) -> Result<(), String> {
    conn.call("{\"op\":\"shutdown\"}")?;
    drop(conn);
    let t = Instant::now();
    while t.elapsed() < Duration::from_secs(10) {
        match daemon.0.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
        }
    }
    Err("the daemon did not exit after shutdown".to_string())
}

/// The `gcube` binary: `$GCUBE_BIN`, else where `cargo build --release`
/// puts it.
fn gcube_binary() -> Result<PathBuf, String> {
    let bin = std::env::var_os("GCUBE_BIN")
        .map_or_else(|| PathBuf::from("target/release/gcube"), PathBuf::from);
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build it with `cargo build --release --workspace --bin gcube`",
            bin.display()
        ))
    }
}

/// Run the workload.
pub fn serve_mixed(ctx: &Ctx, rec: &mut Record) -> Result<(), String> {
    let gcube = gcube_binary()?;
    let cfgs: Vec<SimConfig> = (0..SEEDS).map(|k| session_config(ctx.seed, k)).collect();
    let refs = cfgs.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
    let sock = ctx.work.join("d.sock");
    let probe_open = format!(
        "{{\"op\":\"open\",\"session\":\"setup\",\"strategy\":\"ftgcr\",\"config\":{}}}",
        config_to_json(&cfgs[0])
    );
    let mut round_stats = RoundStats::default();
    for j in 0..CLIENTS * SESSIONS {
        round_stats.add(&refs[j % SEEDS as usize].stats);
    }

    for_rounds(ctx, 5, |_, traced| {
        let mut tr = Tracer::new(traced, ctx.epoch);
        let root = tr.enter("round");
        let span = tr.enter("spawn");
        let (daemon, mut conn, setup_ns) = start_daemon(&gcube, &sock, &probe_open)?;
        tr.exit(span);
        conn.call("{\"op\":\"close\",\"session\":\"setup\"}")?;
        tr.exit(root);

        let t = Instant::now();
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (cfgs, refs, sock, work) = (&cfgs, &refs, &sock, &ctx.work);
                    s.spawn(move || {
                        let mut tr = Tracer::new(traced, ctx.epoch);
                        let mut conn = Socket::connect(sock)
                            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
                        let out = client(
                            &mut conn,
                            c,
                            SESSIONS,
                            cfgs,
                            refs,
                            work,
                            c == 0,
                            "request",
                            &mut tr,
                        )?;
                        Ok::<_, String>((out, tr.into_spans()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client panicked".to_string()))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let job_ns = t.elapsed().as_nanos() as u64;

        let mut tr_end = Tracer::new(traced, ctx.epoch);
        let root = tr_end.enter("round");
        let daemon_rss_mb = peak_rss_mb(daemon.0.id())?;
        stop_daemon(daemon, conn)?;
        let span = tr_end.enter("gate");
        let served = std::fs::read_to_string(ctx.work.join("gate.trace.jsonl"))
            .map_err(|e| format!("cannot read the gated trace: {e}"))?;
        rec.gate(served == refs[0].trace, || {
            "the daemon's trace differs from the direct Simulator run".to_string()
        });
        tr_end.exit(span);
        tr_end.exit(root);

        let mut lat = Vec::new();
        let mut hops = 0;
        let mut spans = vec![tr.into_spans(), tr_end.into_spans()];
        for (out, client_spans) in outs {
            lat.extend(out.latency_ns);
            hops += out.hops;
            for g in out.gates {
                rec.gate(g.is_ok(), || g.unwrap_err());
            }
            spans.push(client_spans);
        }
        rec.gate_stats(ctx, round_stats);
        rec.gate(hops == round_stats.hops, || {
            format!("served {hops} hops, expected {}", round_stats.hops)
        });

        // A traced round adds the layers the socket hides: the same script
        // handled in-process, and each session seed stepped directly.
        let mut tr = Tracer::new(traced, ctx.epoch);
        if traced {
            spans.extend(in_process(ctx, &cfgs, &refs, rec)?);
            let root = tr.enter("round");
            for (cfg, want) in cfgs.iter().zip(&refs) {
                let run = stepped_run(cfg, "ftgcr", true, &mut tr, &mut Vec::new(), rec)?;
                let stats = RoundStats::of(&run.report.metrics);
                rec.gate(stats.hops == want.stats.hops, || {
                    format!("a timed session run diverged: {stats:?}")
                });
            }
            tr.exit(root);
            rec.layers.spans.extend(spans);
        }
        let round = Round {
            hops_per_s: hops as f64 / (job_ns as f64 / 1e9),
            setup_ns,
            peak_rss_mb: daemon_rss_mb,
            ..Round::default()
        };
        file_round(rec, tr, round, &mut lat)
    })?;
    repeat_setups(ctx, rec, || {
        let (daemon, mut conn, ns) = start_daemon(&gcube, &sock, &probe_open)?;
        conn.call("{\"op\":\"close\",\"session\":\"setup\"}")?;
        stop_daemon(daemon, conn)?;
        Ok(ns)
    })
}

/// Replay the clients' script through `Server::handle_line` in this
/// process, on two threads, timing every call.
fn in_process(
    ctx: &Ctx,
    cfgs: &[SimConfig],
    refs: &[Reference],
    rec: &mut Record,
) -> Result<Vec<Vec<Span>>, String> {
    let server = Server::new(ServerConfig {
        max_sessions: 16,
        workers: 2,
    });
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    let mut tr = Tracer::new(true, ctx.epoch);
                    let out = client(
                        &mut InProcess(server),
                        c,
                        INPROC_SESSIONS,
                        cfgs,
                        refs,
                        &ctx.work,
                        false,
                        "server",
                        &mut tr,
                    )?;
                    Ok::<_, String>((out, tr.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a replay thread panicked".to_string()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut spans = Vec::new();
    for (out, s) in outs {
        rec.layers.server_op_ns.extend(out.latency_ns);
        for g in out.gates {
            rec.gate(g.is_ok(), || g.unwrap_err());
        }
        spans.push(s);
    }
    Ok(spans)
}

/// Share of the end-to-end median request latency the in-process
/// handling does not explain: socket I/O and the daemon's connection
/// threads.
pub fn io_residual_share(rec: &Record) -> f64 {
    if rec.layers.server_op_ns.is_empty() || rec.rounds.is_empty() {
        return 0.0;
    }
    let inproc = percentile(&rec.layers.server_op_ns, 50.0);
    let e2e = median(
        &rec.rounds
            .iter()
            .map(|r| r.latency_p50_ns)
            .collect::<Vec<_>>(),
    );
    1.0 - inproc / e2e
}
