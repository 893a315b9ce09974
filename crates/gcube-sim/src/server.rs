//! Routing as a service: the `gcube serve` daemon.
//!
//! The daemon multiplexes many independent simulation sessions — each one
//! a run paused between cycles — behind the newline-delimited JSON
//! protocol of [`crate::proto`]. A session advances through the same
//! driver as a [`crate::session::Stepper`], on one shard: the wire config
//! carries no thread count, and parallelism comes from running *sessions*
//! concurrently (a bounded worker budget, see below). The outputs are
//! thread-invariant, so a session's artifacts are bitwise identical to a
//! `gcube run` with the same config and seed at any `--threads`.
//!
//! ## Concurrency model
//!
//! Sessions live in a shared map of `Arc<Mutex<SessionEntry>>`. A request
//! locks only its own session, so N connections advancing N different
//! sessions proceed in parallel; two requests for the *same* session
//! serialize on its mutex. Cycle-advancing work (`step`, `run`, `close`)
//! additionally holds one of `workers` execution permits — when all
//! permits are busy the daemon answers a typed `overloaded` backpressure
//! error instead of queueing unboundedly. A permit goes back when its
//! holder drops it, so a request that panics mid-step returns it too.
//!
//! ## Admission control
//!
//! Admission rides the Theorem-3 fault-budget monitor:
//!
//! * `open` refuses any session past `max_sessions` (code
//!   `admission_refused`). A session whose *configured* fault set already
//!   exceeds the bound is admitted — the client asked for a best-effort
//!   run — but its `service_class` says `"degraded"`, not `"normal"`.
//! * A running session whose fault schedule pushes it **past** the bound
//!   it was admitted under is *suspended*: `step` and `run` answer
//!   `bound_exceeded` (override with `"force": true`); `snapshot`,
//!   `telemetry`, and `close` stay available, so the client can
//!   checkpoint or drain a suspended run. Strategies that survive the
//!   bound (multitree) degrade instead of suspending.
//!
//! Every session-scoped response is stamped with the session's
//! [`ArtifactMeta`] provenance under `"meta"` — the same header its
//! artifacts carry, so a client can bind responses to artifact files
//! without trusting its own bookkeeping.
//!
//! ## Snapshot / restore
//!
//! `snapshot` serializes the paused engine ([`Checkpoint`]) with
//! `trace_mark` = events recorded so far. `restore` onto the *same*
//! session rewinds it: the in-memory trace is truncated back to the mark,
//! so artifacts written at `close` equal an uninterrupted run's bit for
//! bit. `restore` onto a *new* session id replays the identical suffix
//! but records only from the checkpoint onward (prefix lives with
//! whoever wrote the checkpoint). Telemetry across a restore boundary is
//! suffix-only in both cases: the collector restarts at the checkpoint
//! (window counters only cover re-executed cycles) — the deterministic
//! trace and final metrics are unaffected, since observers never steer.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::artifact::{ArtifactKind, ArtifactMeta, ARTIFACT_FORMAT};
use crate::checkpoint::Checkpoint;
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::metrics::ChurnReport;
use crate::profiler::NullProfiler;
use crate::proto::{self, Request};
use crate::shard::Coordinator;
use crate::strategy::{build_strategy, RoutingAlgorithm};
use crate::telemetry::TelemetryCollector;
use crate::trace::{MemorySink, TraceSink};

/// How long a cycle-advancing request waits for an execution permit
/// before answering `overloaded`.
const PERMIT_WAIT: Duration = Duration::from_millis(200);

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently open sessions; `open` past this answers
    /// `admission_refused`.
    pub max_sessions: usize,
    /// Execution permits for cycle-advancing requests (`0` = available
    /// parallelism). Bounds CPU, not sessions: idle sessions are cheap.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 64,
            workers: 0,
        }
    }
}

/// A counting semaphore (std has none): execution permits for the
/// cycle-advancing requests.
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Permits {
    fn new(n: usize) -> Permits {
        Permits {
            free: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    /// Try to take a permit, waiting at most `wait`.
    fn acquire(&self, wait: Duration) -> Option<Permit<'_>> {
        let guard = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut guard, timeout) = self
            .cv
            .wait_timeout_while(guard, wait, |free| *free == 0)
            .unwrap_or_else(PoisonError::into_inner);
        if timeout.timed_out() && *guard == 0 {
            return None;
        }
        *guard -= 1;
        Some(Permit(self))
    }
}

/// A held execution permit, released when dropped — unwinding included.
struct Permit<'p>(&'p Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.cv.notify_one();
    }
}

/// One open session: its immutable identity (config + resolved strategy)
/// and the paused engine with its recording sinks.
struct SessionEntry {
    config: SimConfig,
    strategy: String,
    trees: usize,
    algo: Box<dyn RoutingAlgorithm + Send + Sync>,
    core: Coordinator,
    sink: MemorySink,
    telem: TelemetryCollector,
    /// Whether the session was already past the Theorem-3 bound when it
    /// was admitted (static faults the client configured). Such a run is
    /// best-effort by request — `degraded`, never `suspended`.
    admitted_past_bound: bool,
}

/// Rebuild the simulator a session's engine steps against. The simulator
/// borrows the strategy, so it cannot live in the entry; reconstruction is
/// deterministic (same config, same algorithm) and cheap relative to a
/// cycle batch.
fn session_sim<'a>(config: &SimConfig, algo: &'a dyn RoutingAlgorithm) -> Simulator<'a> {
    Simulator::try_new(config.clone(), algo).expect("session config was validated at open")
}

impl SessionEntry {
    /// The provenance header for this session's artifacts of `kind`.
    fn meta(&self, kind: ArtifactKind) -> ArtifactMeta {
        ArtifactMeta {
            kind,
            format: ARTIFACT_FORMAT,
            n: u64::from(self.config.n),
            modulus: self.config.modulus,
            seed: self.config.seed,
            threads: 1,
            strategy: self.strategy.clone(),
        }
    }

    /// The session's admission class right now: `"normal"`, `"degraded"`
    /// (budget consumed, or past the bound by the client's own static
    /// configuration / under a surviving strategy), or `"suspended"`
    /// (churn pushed the run past the bound it was admitted under, and
    /// the strategy does not survive that — stepping refused without
    /// `force`).
    fn service_class(&self) -> &'static str {
        use gcube_routing::HealthState::*;
        match self.core.monitor.state() {
            BoundExceeded if !self.algo.survives_bound_exceeded() && !self.admitted_past_bound => {
                "suspended"
            }
            BoundExceeded | Degraded => "degraded",
            Healthy => "normal",
        }
    }

    fn health(&self) -> &'static str {
        self.core.monitor.state().as_str()
    }

    /// Advance up to `cycles` cycles (`None` = to completion).
    fn advance(&mut self, cycles: Option<u64>) {
        // Borrow fields disjointly: the simulator borrows only `algo`,
        // leaving `core` and the sinks free for the driver.
        let sim = session_sim(&self.config, self.algo.as_ref());
        let (sink, telem) = (&mut self.sink, &mut self.telem);
        let cycles = cycles.unwrap_or(u64::MAX);
        self.core
            .step_many(&sim, cycles, sink, telem, &mut NullProfiler);
    }

    fn finish(&mut self) -> ChurnReport {
        let sim = session_sim(&self.config, self.algo.as_ref());
        self.core.finish(&sim, &mut self.telem, &mut NullProfiler)
    }
}

/// Resolve the wire strategy name against a concrete config: `auto`
/// picks the fault-free planner only when nothing can ever be faulty.
/// (The CLI applies the same rule, so daemon and single-run artifacts
/// carry the same strategy stamp.)
pub fn resolve_strategy_name(name: &str, config: &SimConfig) -> String {
    if name == "auto" {
        if config.faulty_nodes == 0 && config.schedule.is_none() {
            "ffgcr".to_string()
        } else {
            "ftgcr".to_string()
        }
    } else {
        name.to_string()
    }
}

/// The daemon state: the session map plus tuning. Protocol handling is
/// [`Server::handle_line`]; transports ([`serve`]) are thin line pumps
/// around it.
pub struct Server {
    cfg: ServerConfig,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>,
    permits: Permits,
    shutdown: AtomicBool,
}

/// A handled request: the response text (one line, except `telemetry`
/// which appends its JSONL payload) and whether the daemon should stop.
pub struct Reply {
    /// Response text, no trailing newline.
    pub text: String,
    /// `true` after a `shutdown` request was acknowledged.
    pub shutdown: bool,
}

fn err_reply(code: &str, msg: &str) -> Reply {
    Reply {
        text: format!(
            "{{\"ok\":false,\"code\":{},\"error\":{}}}",
            proto::quote(code),
            proto::quote(msg),
        ),
        shutdown: false,
    }
}

fn ok_reply(op: &str, session: &str, fields: &str, meta: &ArtifactMeta) -> Reply {
    let mut text = format!(
        "{{\"ok\":true,\"op\":{},\"session\":{}",
        proto::quote(op),
        proto::quote(session),
    );
    if !fields.is_empty() {
        text.push(',');
        text.push_str(fields);
    }
    text.push_str(&format!(",\"meta\":{}}}", meta.to_jsonl_line()));
    Reply {
        text,
        shutdown: false,
    }
}

impl Server {
    /// Build a daemon with the given tuning.
    pub fn new(cfg: ServerConfig) -> Server {
        let workers = crate::session::resolve_threads(cfg.workers);
        Server {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            permits: Permits::new(workers),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether a `shutdown` request has been acknowledged.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn entry(&self, session: &str) -> Result<Arc<Mutex<SessionEntry>>, Reply> {
        self.sessions
            .lock()
            .unwrap()
            .get(session)
            .cloned()
            .ok_or_else(|| err_reply("no_such_session", &format!("no session {session:?}")))
    }

    /// Handle one request line, producing one reply. Thread-safe: called
    /// concurrently from every connection.
    pub fn handle_line(&self, line: &str) -> Reply {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => return err_reply("bad_request", &e),
        };
        match request {
            Request::Open {
                session,
                config,
                strategy,
                trees,
            } => self.open(session, config, &strategy, trees),
            Request::Step {
                session,
                cycles,
                force,
            } => self.advance(&session, Some(cycles), force),
            Request::Run { session, force } => self.advance(&session, None, force),
            Request::Snapshot { session, path } => self.snapshot(&session, &path),
            Request::Restore { session, path } => self.restore(&session, &path),
            Request::Telemetry { session } => self.telemetry(&session),
            Request::Close {
                session,
                trace,
                telemetry,
            } => self.close(&session, trace.as_deref(), telemetry.as_deref()),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Reply {
                    text: format!(
                        "{{\"ok\":true,\"op\":\"shutdown\",\"sessions_discarded\":{}}}",
                        self.session_count()
                    ),
                    shutdown: true,
                }
            }
        }
    }

    fn open(&self, session: String, config: SimConfig, strategy: &str, trees: usize) -> Reply {
        {
            let sessions = self.sessions.lock().unwrap();
            if sessions.contains_key(&session) {
                return err_reply(
                    "session_exists",
                    &format!("session {session:?} is already open"),
                );
            }
            if sessions.len() >= self.cfg.max_sessions {
                return err_reply(
                    "admission_refused",
                    &format!(
                        "session limit reached ({} open, max {})",
                        sessions.len(),
                        self.cfg.max_sessions
                    ),
                );
            }
        }
        let strategy = resolve_strategy_name(strategy, &config);
        let algo = match build_strategy(&strategy, trees) {
            Ok(a) => a,
            Err(e) => return err_reply("bad_request", &e),
        };
        // Normalize to the strategy's wire identity: single-tree
        // strategies ignore the request's tree count, and checkpoints
        // compare against the wire value.
        let trees = algo.wire_spec().map_or(trees, |(_, t)| t);
        let (core, telem, total_cycles) = {
            let sim = match Simulator::try_new(config.clone(), algo.as_ref()) {
                Ok(s) => s,
                Err(e) => return err_reply(e.code(), &e.to_string()),
            };
            let mut sink = MemorySink::default();
            let mut telem = TelemetryCollector::new(sim.cube(), config.telemetry_interval);
            let core = Coordinator::new(&sim, 1, &mut sink, &mut telem);
            // `sink` captured the cycle-0 events; it moves into the entry
            // below via this tuple's closure over it.
            drop(sim);
            (
                (core, sink),
                telem,
                config.inject_cycles + config.drain_cycles,
            )
        };
        let (core, sink) = core;
        // Static faults the client configured may already exceed the
        // Theorem-3 bound: that is an explicit request for a best-effort
        // run, recorded so later churn (not the client's own baseline)
        // is what triggers suspension.
        let admitted_past_bound = core.monitor.state() == gcube_routing::HealthState::BoundExceeded;
        let entry = SessionEntry {
            config,
            strategy,
            trees,
            algo,
            core,
            sink,
            telem,
            admitted_past_bound,
        };
        let fields = format!(
            "\"cycle\":0,\"total_cycles\":{},\"health\":{},\"service_class\":{}",
            total_cycles,
            proto::quote(entry.health()),
            proto::quote(entry.service_class()),
        );
        let meta = entry.meta(ArtifactKind::Trace);
        let mut sessions = self.sessions.lock().unwrap();
        // Re-check under the lock: another connection may have raced us.
        if sessions.contains_key(&session) {
            return err_reply(
                "session_exists",
                &format!("session {session:?} is already open"),
            );
        }
        if sessions.len() >= self.cfg.max_sessions {
            return err_reply("admission_refused", "session limit reached");
        }
        sessions.insert(session.clone(), Arc::new(Mutex::new(entry)));
        drop(sessions);
        ok_reply("open", &session, &fields, &meta)
    }

    fn advance(&self, session: &str, cycles: Option<u64>, force: bool) -> Reply {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(r) => return r,
        };
        let mut entry = entry.lock().unwrap();
        if entry.service_class() == "suspended" && !force {
            return err_reply(
                "bound_exceeded",
                "session is suspended (fault budget exceeded); \
                 pass \"force\":true to step it anyway",
            );
        }
        let Some(permit) = self.permits.acquire(PERMIT_WAIT) else {
            return err_reply("overloaded", "all worker permits are busy; retry");
        };
        entry.advance(cycles);
        drop(permit);
        let op = if cycles.is_some() { "step" } else { "run" };
        let fields = format!(
            "\"cycle\":{},\"done\":{},\"in_flight\":{},\"health\":{},\"service_class\":{}",
            entry.core.cycle,
            entry.core.is_done(),
            entry.core.in_flight,
            proto::quote(entry.health()),
            proto::quote(entry.service_class()),
        );
        let meta = entry.meta(ArtifactKind::Trace);
        ok_reply(op, session, &fields, &meta)
    }

    fn snapshot(&self, session: &str, path: &str) -> Reply {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(r) => return r,
        };
        let entry = entry.lock().unwrap();
        let sim = session_sim(&entry.config, entry.algo.as_ref());
        let mark = entry.sink.events().len() as u64;
        let ck = match Checkpoint::capture(&sim, &entry.core, mark) {
            Ok(c) => c,
            Err(e) => return err_reply("bad_request", &e),
        };
        if let Err(e) = std::fs::write(path, ck.to_text()) {
            return err_reply("io", &format!("cannot write {path:?}: {e}"));
        }
        let fields = format!(
            "\"cycle\":{},\"trace_mark\":{mark},\"path\":{}",
            entry.core.cycle,
            proto::quote(path),
        );
        let meta = entry.meta(ArtifactKind::Checkpoint);
        ok_reply("snapshot", session, &fields, &meta)
    }

    fn restore(&self, session: &str, path: &str) -> Reply {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return err_reply("io", &format!("cannot read {path:?}: {e}")),
        };
        let ck = match Checkpoint::from_text(&text) {
            Ok(c) => c,
            Err(e) => return err_reply("checkpoint_mismatch", &e),
        };
        let algo = match build_strategy(ck.strategy(), ck.trees()) {
            Ok(a) => a,
            Err(e) => return err_reply("checkpoint_mismatch", &e),
        };
        let core = {
            let sim = match Simulator::try_new(ck.config().clone(), algo.as_ref()) {
                Ok(s) => s,
                Err(e) => return err_reply(e.code(), &e.to_string()),
            };
            match ck.rebuild(&sim, 1) {
                Ok(c) => c,
                Err(e) => return err_reply("checkpoint_mismatch", &e),
            }
        };
        let telem = {
            // Suffix-only across the boundary — see module docs.
            let gc = gcube_topology::GaussianCube::new(ck.config().n, ck.config().modulus)
                .expect("checkpoint config was validated");
            TelemetryCollector::new(&gc, ck.config().telemetry_interval)
        };
        let mark = ck.trace_mark() as usize;

        let existing = self.sessions.lock().unwrap().get(session).cloned();
        let reply_fields = |e: &SessionEntry, rewound: bool| {
            format!(
                "\"cycle\":{},\"trace_mark\":{mark},\"rewound\":{rewound},\
                 \"health\":{},\"service_class\":{}",
                e.core.cycle,
                proto::quote(e.health()),
                proto::quote(e.service_class()),
            )
        };
        match existing {
            Some(slot) => {
                // Rewind: the session must be the lineage that wrote the
                // checkpoint, or the retained trace prefix would be some
                // other run's.
                let mut entry = slot.lock().unwrap();
                if entry.config != *ck.config()
                    || entry.strategy != ck.strategy()
                    || entry.trees != ck.trees()
                {
                    return err_reply(
                        "checkpoint_mismatch",
                        "checkpoint was taken from a different run shape \
                         than this session",
                    );
                }
                if entry.sink.events().len() < mark {
                    return err_reply(
                        "checkpoint_mismatch",
                        "session holds fewer trace events than the \
                         checkpoint's mark — not this run's checkpoint",
                    );
                }
                entry.sink.truncate(mark);
                entry.core = core;
                entry.algo = algo;
                entry.telem = telem;
                let fields = reply_fields(&entry, true);
                let meta = entry.meta(ArtifactKind::Checkpoint);
                ok_reply("restore", session, &fields, &meta)
            }
            None => {
                {
                    let sessions = self.sessions.lock().unwrap();
                    if sessions.len() >= self.cfg.max_sessions {
                        return err_reply("admission_refused", "session limit reached");
                    }
                }
                // Restoring is re-admission: whatever health the
                // checkpointed run had is the baseline this session is
                // accepted at.
                let admitted_past_bound =
                    core.monitor.state() == gcube_routing::HealthState::BoundExceeded;
                let entry = SessionEntry {
                    config: ck.config().clone(),
                    strategy: ck.strategy().to_string(),
                    trees: ck.trees(),
                    algo,
                    core,
                    sink: MemorySink::default(),
                    telem,
                    admitted_past_bound,
                };
                let fields = reply_fields(&entry, false);
                let meta = entry.meta(ArtifactKind::Checkpoint);
                let mut sessions = self.sessions.lock().unwrap();
                if sessions.contains_key(session) {
                    return err_reply("session_exists", "session appeared concurrently");
                }
                if sessions.len() >= self.cfg.max_sessions {
                    return err_reply("admission_refused", "session limit reached");
                }
                sessions.insert(session.to_string(), Arc::new(Mutex::new(entry)));
                drop(sessions);
                ok_reply("restore", session, &fields, &meta)
            }
        }
    }

    fn telemetry(&self, session: &str) -> Reply {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(r) => return r,
        };
        let entry = entry.lock().unwrap();
        let meta = entry.meta(ArtifactKind::Telemetry);
        let payload = entry.telem.to_jsonl();
        let lines = 1 + payload.lines().count();
        let mut reply = ok_reply(
            "telemetry",
            session,
            &format!("\"lines\":{lines},\"evicted\":{}", entry.telem.evicted()),
            &meta,
        );
        // The header line is followed by exactly `lines` raw JSONL lines:
        // the artifact meta header, then one line per retained sample —
        // the same wire shape `close` writes to a telemetry file.
        reply.text.push('\n');
        reply.text.push_str(&meta.to_jsonl_line());
        if !payload.is_empty() {
            reply.text.push('\n');
            reply.text.push_str(payload.trim_end_matches('\n'));
        }
        reply
    }

    fn close(&self, session: &str, trace: Option<&str>, telemetry: Option<&str>) -> Reply {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(r) => return r,
        };
        {
            let mut entry = entry.lock().unwrap();
            // Closing an unfinished session drains it first — artifacts
            // describe complete runs. This is cycle-advancing work, so it
            // holds a permit like step/run (but is never refused: close
            // must always be possible, so it waits instead).
            if !entry.core.is_done() {
                let permit =
                    std::iter::repeat_with(|| self.permits.acquire(PERMIT_WAIT)).find_map(|p| p);
                entry.advance(None);
                drop(permit);
            }
            let report = entry.finish();

            if let Some(path) = trace {
                if let Err(e) = write_trace_artifact(&entry, path) {
                    return err_reply("io", &format!("cannot write {path:?}: {e}"));
                }
            }
            if let Some(path) = telemetry {
                // Same bytes the CLI writes for a `.jsonl` telemetry path.
                let body = format!(
                    "{}\n{}",
                    entry.meta(ArtifactKind::Telemetry).to_jsonl_line(),
                    entry.telem.to_jsonl()
                );
                if let Err(e) = std::fs::write(path, body) {
                    return err_reply("io", &format!("cannot write {path:?}: {e}"));
                }
            }

            let m = &report.metrics;
            let fields = format!(
                "\"cycles\":{},\"injected\":{},\"delivered\":{},\"dropped\":{},\
                 \"route_failures\":{},\"in_flight_at_end\":{},\"trace_events\":{},\
                 \"health\":{},\"service_class\":{}",
                m.cycles,
                m.injected,
                m.delivered,
                m.dropped,
                m.route_failures,
                m.in_flight_at_end,
                entry.sink.events().len(),
                proto::quote(entry.health()),
                proto::quote(entry.service_class()),
            );
            let meta = entry.meta(ArtifactKind::Trace);
            let reply = ok_reply("close", session, &fields, &meta);
            drop(entry);
            self.sessions.lock().unwrap().remove(session);
            reply
        }
    }
}

fn write_trace_artifact(entry: &SessionEntry, path: &str) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut jsonl =
        crate::trace::JsonlSink::with_meta(BufWriter::new(file), &entry.meta(ArtifactKind::Trace));
    for e in entry.sink.events() {
        jsonl.record(e);
    }
    jsonl.finish()?;
    Ok(())
}

// --- transports ---------------------------------------------------------

/// Longest request line the daemon reads, in bytes (newline excluded).
/// Far above any legitimate request; a longer line is discarded up to its
/// newline, so memory stays bounded, and answered `bad_request`.
const MAX_LINE_BYTES: usize = 8 << 20;

/// Pump one connection: read request lines from `input`, write reply
/// lines to `output`. Returns after EOF or an acknowledged shutdown.
/// Over-long and non-UTF-8 lines get a `bad_request` reply and the
/// connection goes on.
fn pump<R: BufRead, W: Write>(server: &Server, mut input: R, mut output: W) -> io::Result<()> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cap = MAX_LINE_BYTES as u64 + 1; // room for the newline
        if io::Read::take(&mut input, cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        let reply = if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            input.skip_until(b'\n')?;
            err_reply(
                "bad_request",
                &format!("request line longer than {MAX_LINE_BYTES} bytes"),
            )
        } else {
            match std::str::from_utf8(&buf) {
                Err(_) => err_reply("bad_request", "request line is not valid UTF-8"),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => server.handle_line(line),
            }
        };
        output.write_all(reply.text.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if reply.shutdown {
            return Ok(());
        }
    }
}

/// Run the daemon on stdin/stdout (one client — useful for piping a
/// script of requests) or, with a socket path, on a Unix listener with
/// one thread per connection. Blocks until `shutdown` is received (or
/// stdin reaches EOF in stdin mode).
pub fn serve(cfg: ServerConfig, socket: Option<&Path>) -> io::Result<()> {
    let server = Arc::new(Server::new(cfg));
    match socket {
        None => {
            let stdin = io::stdin();
            let stdout = io::stdout();
            pump(&server, stdin.lock(), stdout.lock())
        }
        Some(path) => serve_unix(server, path),
    }
}

fn serve_unix(server: Arc<Server>, path: &Path) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    // A stale socket file from a crashed daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let path_buf: PathBuf = path.to_path_buf();
    let mut handles = Vec::new();
    loop {
        let (stream, _) = listener.accept()?;
        if server.is_shutdown() {
            break;
        }
        let conn_server = Arc::clone(&server);
        let conn_path = path_buf.clone();
        handles.push(std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let _ = pump(&conn_server, reader, stream);
            if conn_server.is_shutdown() {
                // Wake the accept loop so the daemon can exit.
                let _ = UnixStream::connect(&conn_path);
            }
        }));
        if server.is_shutdown() {
            break;
        }
    }
    for h in handles {
        let _ = h.join();
    }
    std::fs::remove_file(path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{config_to_json, parse_json, JsonValue};
    use crate::trace::to_jsonl;

    /// One test's scratch directory, removed when the test ends.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("gcube-serve-test-{}-{test}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn cfg() -> SimConfig {
        SimConfig::new(6, 2)
            .with_rate(0.05)
            .with_cycles(150, 600, 20)
            .with_seed(0xbeef)
            .with_faults(2)
    }

    fn open_line(session: &str, c: &SimConfig) -> String {
        format!(
            "{{\"op\":\"open\",\"session\":\"{session}\",\"strategy\":\"ftgcr\",\"config\":{}}}",
            config_to_json(c)
        )
    }

    fn parse_ok(reply: &Reply) -> JsonValue {
        let first = reply.text.lines().next().unwrap();
        let v = parse_json(first).unwrap();
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "expected ok reply, got: {first}"
        );
        v
    }

    fn code_of(reply: &Reply) -> String {
        let v = parse_json(reply.text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        v.get("code")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    }

    /// The daemon's artifacts must be bitwise the single-run API's.
    #[test]
    fn served_session_matches_direct_run() {
        let dir = Scratch::new("served");
        let server = Server::new(ServerConfig::default());
        parse_ok(&server.handle_line(&open_line("s1", &cfg())));
        let run = parse_ok(&server.handle_line(r#"{"op":"run","session":"s1"}"#));
        assert_eq!(run.get("done").and_then(JsonValue::as_bool), Some(true));

        let trace_path = dir.path("direct-trace.jsonl");
        let telem_path = dir.path("direct-telem.jsonl");
        let close = parse_ok(&server.handle_line(&format!(
            r#"{{"op":"close","session":"s1","trace":"{trace_path}","telemetry":"{telem_path}"}}"#
        )));
        assert_eq!(server.session_count(), 0, "close must free the session");

        // Direct single-run equivalent.
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::try_new(cfg(), &*algo).unwrap();
        let mut sink = MemorySink::default();
        let mut telem = TelemetryCollector::new(sim.cube(), cfg().telemetry_interval);
        let report = sim
            .session()
            .trace(&mut sink)
            .telemetry(&mut telem)
            .try_run()
            .unwrap();

        assert_eq!(
            close.get("delivered").and_then(JsonValue::as_u64),
            Some(report.metrics.delivered)
        );
        let served_trace = std::fs::read_to_string(&trace_path).unwrap();
        let meta = ArtifactMeta {
            kind: ArtifactKind::Trace,
            format: ARTIFACT_FORMAT,
            n: 6,
            modulus: 2,
            seed: 0xbeef,
            threads: 1,
            strategy: "ftgcr".into(),
        };
        let direct_trace = format!("{}\n{}", meta.to_jsonl_line(), to_jsonl(sink.events()));
        assert_eq!(
            served_trace, direct_trace,
            "trace artifact must be bitwise equal"
        );

        let served_telem = std::fs::read_to_string(&telem_path).unwrap();
        let mut telem_meta = meta.clone();
        telem_meta.kind = ArtifactKind::Telemetry;
        let direct_telem = format!("{}\n{}", telem_meta.to_jsonl_line(), telem.to_jsonl());
        assert_eq!(
            served_telem, direct_telem,
            "telemetry artifact must be bitwise equal"
        );
    }

    /// Interleaved stepping of concurrent sessions must not perturb any
    /// of them: each equals its serial single-session run.
    #[test]
    fn interleaved_sessions_are_deterministic() {
        let dir = Scratch::new("interleaved");
        let server = Server::new(ServerConfig::default());
        let seeds = [1u64, 2, 3, 4];
        for (i, &seed) in seeds.iter().enumerate() {
            let c = cfg().with_seed(seed);
            parse_ok(&server.handle_line(&open_line(&format!("s{i}"), &c)));
        }
        // Round-robin in uneven bites until all complete.
        let mut done = [false; 4];
        let mut bite = 7u64;
        while !done.iter().all(|&d| d) {
            for (i, d) in done.iter_mut().enumerate() {
                if *d {
                    continue;
                }
                let r = parse_ok(&server.handle_line(&format!(
                    "{{\"op\":\"step\",\"session\":\"s{i}\",\"cycles\":{bite}}}"
                )));
                *d = r.get("done").and_then(JsonValue::as_bool) == Some(true);
                bite = bite % 13 + 3;
            }
        }
        for (i, &seed) in seeds.iter().enumerate() {
            let path = dir.path(&format!("inter-{i}.jsonl"));
            parse_ok(&server.handle_line(&format!(
                "{{\"op\":\"close\",\"session\":\"s{i}\",\"trace\":\"{path}\"}}"
            )));
            let served = std::fs::read_to_string(&path).unwrap();

            let algo = build_strategy("ftgcr", 0).unwrap();
            let sim = Simulator::try_new(cfg().with_seed(seed), &*algo).unwrap();
            let mut sink = MemorySink::default();
            sim.session().trace(&mut sink).try_run().unwrap();
            assert!(
                served.ends_with(&to_jsonl(sink.events())),
                "session s{i} diverged from its serial run"
            );
        }
    }

    /// Snapshot mid-run, keep stepping, restore back onto the same
    /// session (rewind), finish: artifacts equal the uninterrupted run.
    #[test]
    fn rewind_restore_reproduces_uninterrupted_artifacts() {
        let dir = Scratch::new("rewind");
        let server = Server::new(ServerConfig::default());
        let c = cfg().with_seed(77);

        // Uninterrupted reference.
        parse_ok(&server.handle_line(&open_line("ref", &c)));
        parse_ok(&server.handle_line(r#"{"op":"run","session":"ref"}"#));
        let ref_path = dir.path("rewind-ref.jsonl");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"close","session":"ref","trace":"{ref_path}"}}"#
        )));

        // Interrupted run: step, snapshot, step past, rewind, finish.
        parse_ok(&server.handle_line(&open_line("s", &c)));
        parse_ok(&server.handle_line(r#"{"op":"step","session":"s","cycles":60}"#));
        let ck_path = dir.path("rewind.ck");
        let snap = parse_ok(&server.handle_line(&format!(
            r#"{{"op":"snapshot","session":"s","path":"{ck_path}"}}"#
        )));
        assert_eq!(snap.get("cycle").and_then(JsonValue::as_u64), Some(60));
        parse_ok(&server.handle_line(r#"{"op":"step","session":"s","cycles":100}"#));
        let restore = parse_ok(&server.handle_line(&format!(
            r#"{{"op":"restore","session":"s","path":"{ck_path}"}}"#
        )));
        assert_eq!(
            restore.get("rewound").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(restore.get("cycle").and_then(JsonValue::as_u64), Some(60));
        let s_path = dir.path("rewind-s.jsonl");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"close","session":"s","trace":"{s_path}"}}"#
        )));

        assert_eq!(
            std::fs::read_to_string(&s_path).unwrap(),
            std::fs::read_to_string(&ref_path).unwrap(),
            "rewound session must reproduce the uninterrupted artifact bitwise"
        );
    }

    /// Restoring into a fresh session replays the suffix.
    #[test]
    fn restore_into_new_session_replays_suffix() {
        let dir = Scratch::new("suffix");
        let server = Server::new(ServerConfig::default());
        let c = cfg().with_seed(99);
        parse_ok(&server.handle_line(&open_line("a", &c)));
        parse_ok(&server.handle_line(r#"{"op":"step","session":"a","cycles":50}"#));
        let ck_path = dir.path("suffix.ck");
        let snap = parse_ok(&server.handle_line(&format!(
            r#"{{"op":"snapshot","session":"a","path":"{ck_path}"}}"#
        )));
        let mark = snap.get("trace_mark").and_then(JsonValue::as_u64).unwrap() as usize;

        let a_path = dir.path("suffix-a.jsonl");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"close","session":"a","trace":"{a_path}"}}"#
        )));
        let b = parse_ok(&server.handle_line(&format!(
            r#"{{"op":"restore","session":"b","path":"{ck_path}"}}"#
        )));
        assert_eq!(b.get("rewound").and_then(JsonValue::as_bool), Some(false));
        let b_path = dir.path("suffix-b.jsonl");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"close","session":"b","trace":"{b_path}"}}"#
        )));

        // a's artifact: meta + full stream. b's: meta + suffix only.
        let full: Vec<String> = std::fs::read_to_string(&a_path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let suffix: Vec<String> = std::fs::read_to_string(&b_path)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(suffix[0], full[0], "same provenance header");
        assert_eq!(
            &suffix[1..],
            &full[1 + mark..],
            "fresh session must hold exactly the post-mark suffix"
        );
    }

    #[test]
    fn admission_and_errors() {
        let server = Server::new(ServerConfig {
            max_sessions: 1,
            workers: 1,
        });
        parse_ok(&server.handle_line(&open_line("only", &cfg())));
        assert_eq!(
            code_of(&server.handle_line(&open_line("only", &cfg()))),
            "session_exists"
        );
        assert_eq!(
            code_of(&server.handle_line(&open_line("more", &cfg()))),
            "admission_refused"
        );
        assert_eq!(
            code_of(&server.handle_line(r#"{"op":"step","session":"ghost"}"#)),
            "no_such_session"
        );
        assert_eq!(
            code_of(&server.handle_line("{\"op\":\"warp\"}")),
            "bad_request"
        );
        assert_eq!(code_of(&server.handle_line("not json")), "bad_request");
        // Engine refusals surface their stable SimError codes.
        parse_ok(&server.handle_line(r#"{"op":"close","session":"only"}"#));
        let bad = format!(
            "{{\"op\":\"open\",\"session\":\"x\",\"config\":{}}}",
            config_to_json(&SimConfig::new(6, 3))
        );
        assert_eq!(code_of(&server.handle_line(&bad)), "invalid_topology");
    }

    /// A scripted fault outside the cube is refused at `open` with its
    /// typed code (it used to panic the session's first step), and the
    /// connection keeps serving.
    #[test]
    fn open_refuses_fault_targets_outside_the_cube() {
        use crate::injection::{FaultKind, FaultSchedule, FaultTarget, TimedFault};
        use gcube_topology::NodeId;
        let server = Server::new(ServerConfig::default());
        let scripted = |v, dim| {
            cfg().with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 10,
                target: FaultTarget::link(NodeId(v), dim),
                kind: FaultKind::Permanent,
            }]))
        };
        // Dimension 70 lies outside GC(6,2); node 0 has no dimension-5
        // link (Theorem 1), while node 63 has one.
        for (dim, spelled) in [(70, "link:0:70"), (5, "link:0:5")] {
            let bad = open_line("x", &scripted(0, dim));
            assert!(bad.contains(spelled), "{bad}");
            assert_eq!(code_of(&server.handle_line(&bad)), "invalid_fault_target");
        }
        parse_ok(&server.handle_line(&open_line("x", &scripted(63, 5))));
    }

    /// A multitree tree count outside `1..=MAX_TREES` is refused at `open`
    /// (`bad_request`) and at `restore` (`checkpoint_mismatch`); it used
    /// to be admitted and panic the session's first step. The daemon keeps
    /// serving: a valid multitree session opens and steps afterwards.
    #[test]
    fn multitree_tree_count_is_checked_at_open_and_restore() {
        let dir = Scratch::new("trees");
        let server = Server::new(ServerConfig::default());
        let open = |session: &str, trees: usize| {
            format!(
                "{{\"op\":\"open\",\"session\":\"{session}\",\"strategy\":\"multitree\",\
                 \"trees\":{trees},\"config\":{}}}",
                config_to_json(&cfg())
            )
        };
        for trees in [0, 5] {
            assert_eq!(
                code_of(&server.handle_line(&open("m", trees))),
                "bad_request"
            );
        }
        parse_ok(&server.handle_line(&open("m", 2)));
        parse_ok(&server.handle_line(r#"{"op":"step","session":"m","cycles":200}"#));
        let ck_path = dir.path("trees.ck");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"snapshot","session":"m","path":"{ck_path}"}}"#
        )));
        let text = std::fs::read_to_string(&ck_path).unwrap();
        assert!(text.contains("\"trees\":2,"), "{text}");
        std::fs::write(&ck_path, text.replace("\"trees\":2,", "\"trees\":5,")).unwrap();
        for session in ["m", "fresh"] {
            let restore = format!(r#"{{"op":"restore","session":"{session}","path":"{ck_path}"}}"#);
            assert_eq!(
                code_of(&server.handle_line(&restore)),
                "checkpoint_mismatch"
            );
        }
        parse_ok(&server.handle_line(r#"{"op":"step","session":"m","cycles":10}"#));
    }

    /// With every permit held, a cycle-advancing request gives up after
    /// `PERMIT_WAIT` with `overloaded`; once a permit is free, the same
    /// request succeeds.
    #[test]
    fn busy_permits_answer_overloaded() {
        let server = Server::new(ServerConfig {
            max_sessions: 4,
            workers: 1,
        });
        parse_ok(&server.handle_line(&open_line("o", &cfg())));
        let step = r#"{"op":"step","session":"o","cycles":5}"#;
        let held = server.permits.acquire(PERMIT_WAIT).expect("a free permit");
        assert_eq!(code_of(&server.handle_line(step)), "overloaded");
        drop(held);
        let r = parse_ok(&server.handle_line(step));
        assert_eq!(r.get("cycle").and_then(JsonValue::as_u64), Some(5));
    }

    /// A request that panics while it holds a permit still hands it back:
    /// otherwise `workers` such panics would leave every later `step`
    /// answering `overloaded` and `close` waiting forever.
    #[test]
    fn a_panicking_holder_releases_its_permit() {
        let permits = Permits::new(1);
        let joined = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = permits.acquire(PERMIT_WAIT).expect("a free permit");
                    panic!("the step failed");
                })
                .join()
        });
        assert!(joined.is_err(), "the holder panicked");
        assert!(
            permits.acquire(Duration::ZERO).is_some(),
            "the permit must be free again"
        );
    }

    #[test]
    fn static_faults_admit_degraded_and_churn_suspends() {
        let dir = Scratch::new("suspend");
        use crate::injection::{FaultKind, FaultSchedule, FaultTarget, TimedFault};
        use gcube_topology::NodeId;

        let server = Server::new(ServerConfig::default());
        // Node faults are never A-category: any static node fault puts
        // the run past the Theorem-3 bound. The client configured them,
        // so the session admits — marked degraded, free to step.
        let r = parse_ok(&server.handle_line(&open_line("static", &cfg())));
        assert_eq!(
            r.get("service_class").and_then(JsonValue::as_str),
            Some("degraded")
        );
        parse_ok(&server.handle_line(r#"{"op":"step","session":"static","cycles":5}"#));

        // A session admitted healthy that the fault *schedule* pushes
        // past the bound is suspended: stepping refused without force.
        let c = cfg()
            .with_faults(0)
            .with_schedule(FaultSchedule::Scripted(vec![TimedFault {
                cycle: 30,
                target: FaultTarget::Node(NodeId(5)),
                kind: FaultKind::Permanent,
            }]));
        let r = parse_ok(&server.handle_line(&open_line("churned", &c)));
        assert_eq!(
            r.get("service_class").and_then(JsonValue::as_str),
            Some("normal")
        );
        let r = parse_ok(&server.handle_line(r#"{"op":"step","session":"churned","cycles":40}"#));
        assert_eq!(
            r.get("service_class").and_then(JsonValue::as_str),
            Some("suspended")
        );
        assert_eq!(
            code_of(&server.handle_line(r#"{"op":"step","session":"churned","cycles":10}"#)),
            "bound_exceeded"
        );
        // Force overrides; snapshot and close stay available throughout.
        parse_ok(
            &server.handle_line(r#"{"op":"step","session":"churned","cycles":10,"force":true}"#),
        );
        let ck = dir.path("suspended.ck");
        parse_ok(&server.handle_line(&format!(
            r#"{{"op":"snapshot","session":"churned","path":"{ck}"}}"#
        )));
        parse_ok(&server.handle_line(r#"{"op":"close","session":"churned"}"#));

        // The surviving strategy degrades instead of suspending under
        // the same schedule.
        let multi = format!(
            "{{\"op\":\"open\",\"session\":\"m\",\"strategy\":\"multitree\",\"trees\":2,\
             \"config\":{}}}",
            config_to_json(&c)
        );
        parse_ok(&server.handle_line(&multi));
        let r = parse_ok(&server.handle_line(r#"{"op":"step","session":"m","cycles":40}"#));
        assert_eq!(
            r.get("service_class").and_then(JsonValue::as_str),
            Some("degraded"),
            "multitree survives the bound: degraded, never suspended"
        );
        parse_ok(&server.handle_line(r#"{"op":"step","session":"m","cycles":10}"#));
    }

    #[test]
    fn telemetry_streams_the_artifact_shape() {
        let server = Server::new(ServerConfig::default());
        parse_ok(&server.handle_line(&open_line("t", &cfg())));
        parse_ok(&server.handle_line(r#"{"op":"step","session":"t","cycles":45}"#));
        let reply = server.handle_line(r#"{"op":"telemetry","session":"t"}"#);
        let mut lines = reply.text.lines();
        let head = parse_json(lines.next().unwrap()).unwrap();
        let n = head.get("lines").and_then(JsonValue::as_u64).unwrap() as usize;
        let rest: Vec<&str> = lines.collect();
        assert_eq!(rest.len(), n, "header must announce the exact line count");
        assert!(ArtifactMeta::is_meta_line(rest[0]));
        // 45 cycles at interval 100: no full window yet — meta line only.
        assert_eq!(n, 1);
        parse_ok(&server.handle_line(r#"{"op":"step","session":"t","cycles":100}"#));
        let reply = server.handle_line(r#"{"op":"telemetry","session":"t"}"#);
        let head = parse_json(reply.text.lines().next().unwrap()).unwrap();
        assert!(head.get("lines").and_then(JsonValue::as_u64).unwrap() >= 2);
    }

    #[test]
    fn shutdown_acknowledges_and_reports() {
        let server = Server::new(ServerConfig::default());
        parse_ok(&server.handle_line(&open_line("s", &cfg())));
        let reply = server.handle_line(r#"{"op":"shutdown"}"#);
        assert!(reply.shutdown);
        assert!(server.is_shutdown());
        let v = parse_json(&reply.text).unwrap();
        assert_eq!(
            v.get("sessions_discarded").and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    /// Over-long and non-UTF-8 lines get one `bad_request` each and the
    /// connection keeps serving; a line of exactly the cap is read whole.
    #[test]
    fn pump_bounds_lines_and_keeps_serving() {
        let server = Server::new(ServerConfig::default());
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.push(b'\n');
        input.extend_from_slice(b"\xff\xfe{\"op\":\"shutdown\"}\n");
        let head = r#"{"op":"telemetry","session":"nope","pad":""#;
        let pad = MAX_LINE_BYTES - head.len() - 2;
        input.extend_from_slice(format!("{head}{}\"}}\n", "x".repeat(pad)).as_bytes());
        for line in [
            open_line("p", &cfg()),
            r#"{"op":"step","session":"p","cycles":5}"#.to_string(),
            r#"{"op":"close","session":"p"}"#.to_string(),
        ] {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        let mut out = Vec::new();
        pump(&server, &input[..], &mut out).unwrap();
        let replies: Vec<JsonValue> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse_json(l).unwrap())
            .collect();
        let code = |v: &JsonValue| {
            v.get("code")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        let codes: Vec<Option<String>> = replies.iter().map(code).collect();
        assert_eq!(
            codes,
            [
                Some("bad_request".to_string()),
                Some("bad_request".to_string()),
                Some("no_such_session".to_string()),
                None,
                None,
                None,
            ]
        );
        for r in &replies[3..] {
            assert_eq!(r.get("ok").and_then(JsonValue::as_bool), Some(true));
        }
        assert!(!server.is_shutdown(), "the non-UTF-8 line must not be read");
    }
}
