//! `gcube` — command-line interface to the Gaussian Cube reproduction.
//!
//! ```sh
//! gcube topology 10 4
//! gcube route 10 4 0 0b1011010110 --fault-node 6
//! gcube run 10 2 --rate 0.01 --faults 1
//! gcube serve --socket /tmp/gcube.sock
//! gcube diameter 14
//! gcube robustness 8 2 4
//! ```

mod args;

use std::process::ExitCode;

use args::{parse, AnalyzeMode, ChurnArgs, Command, StrategyArg, USAGE};
use gcube_analysis::forensics::{diff_deterministic, render_profile, RunForensics};
use gcube_analysis::robustness::{algorithmic_robustness, connectivity_robustness};
use gcube_analysis::tables::{num, Table};
use gcube_analysis::{diameter, structure, tolerance};
use gcube_routing::faults::{categorize, theorem5_precondition};
use gcube_routing::{collective, ffgcr, ftgcr, FaultSet};
use gcube_sim::{
    class_ranges, effective_shards, parse_jsonl_with_meta, resolve_threads, ArtifactKind,
    ArtifactMeta, CachedFfgcr, CachedFtgcr, JsonlSink, MemorySink, MultiTreeStrategy,
    ProfileCollector, RoutingAlgorithm, SimConfig, Simulator, TelemetryCollector, TraceSink,
    ARTIFACT_FORMAT,
};
use gcube_topology::classes::dims;
use gcube_topology::{GaussianCube, GaussianTree, NodeId, Topology};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Topology { n, modulus } => topology(n, modulus),
        Command::Route {
            n,
            modulus,
            s,
            d,
            fault_nodes,
            fault_links,
            fault_free,
        } => route(n, modulus, s, d, fault_nodes, fault_links, fault_free),
        Command::Run {
            n,
            modulus,
            rate,
            cycles,
            faults,
            pattern,
            seed,
            churn,
            trace,
            percentiles,
            verify_replay,
            telemetry,
            telemetry_interval,
            health_report,
            profile,
            threads,
            strategy,
            trees,
            collective,
            collective_interval,
        } => simulate(
            n,
            modulus,
            rate,
            cycles,
            faults,
            pattern,
            seed,
            churn,
            threads,
            strategy,
            trees,
            collective,
            collective_interval,
            SimulateOutput {
                trace,
                percentiles,
                verify_replay,
                telemetry,
                telemetry_interval,
                health_report,
                profile,
            },
        ),
        Command::Serve {
            socket,
            connect,
            max_sessions,
            workers,
        } => serve(socket, connect, max_sessions, workers),
        Command::Analyze { mode } => analyze(mode),
        Command::Diameter { max_m } => {
            let mut t = Table::new(["m", "nodes", "diameter"]);
            for p in diameter::series(max_m.min(20)) {
                t.row([p.m.to_string(), p.nodes.to_string(), p.diameter.to_string()]);
            }
            print!("{}", t.render());
            Ok(())
        }
        Command::Tolerance { max_n } => {
            let mut t = Table::new(["n", "alpha", "T_paper", "log2_T", "T_guaranteed"]);
            for p in tolerance::series(max_n.min(30)) {
                t.row([
                    p.n.to_string(),
                    p.alpha.to_string(),
                    p.t_paper.to_string(),
                    num(p.log2_t_paper, 3),
                    p.t_guaranteed.to_string(),
                ]);
            }
            print!("{}", t.render());
            Ok(())
        }
        Command::Robustness { n, modulus, k } => {
            let gc = GaussianCube::new(n, modulus).map_err(|e| e.to_string())?;
            if n > 14 {
                return Err("robustness Monte Carlo supports n <= 14".into());
            }
            let conn = connectivity_robustness(&gc, k, 30, 0xc11);
            let alg = algorithmic_robustness(&gc, k, 30, 12, 0xc11);
            println!("GC({n}, {modulus}) with {k} random node faults (30 trials):");
            println!("  pair connectivity  : {:.4}", conn.pair_connectivity);
            println!("  fully connected    : {:.3}", conn.fully_connected_ratio);
            println!("  FTGCR delivery     : {:.4}", alg.delivery_ratio);
            println!("  Thm-5 precondition : {:.3}", alg.precondition_ratio);
            println!("  mean detour (hops) : {:.3}", alg.mean_detour);
            Ok(())
        }
    }
}

fn topology(n: u32, modulus: u64) -> Result<(), String> {
    let gc = GaussianCube::new(n, modulus).map_err(|e| e.to_string())?;
    let row = structure::structure_row(n, modulus);
    println!("GC({n}, {modulus}):  α = {}", gc.alpha());
    println!("  nodes        : {}", row.nodes);
    println!("  links        : {}", row.links);
    println!(
        "  degree       : min {} / mean {:.2} / max {}",
        row.min_degree, row.mean_degree, row.max_degree
    );
    println!("  availability : {}", row.availability);
    let tree = GaussianTree::new(gc.alpha()).map_err(|e| e.to_string())?;
    println!(
        "  projection   : T_{} ({} classes, tree diameter {})",
        gc.alpha(),
        tree.num_nodes(),
        tree.diameter()
    );
    for k in 0..(1u64 << gc.alpha()) {
        println!("  Dim(α,{k})     : {:?}", dims(n, gc.alpha(), k));
    }
    // Broadcast depth from node 0 as a latency indicator.
    let bt = collective::broadcast_tree(&gc, NodeId(0)).map_err(|e| e.to_string())?;
    println!("  broadcast    : depth {} from node 0", bt.max_depth());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn route(
    n: u32,
    modulus: u64,
    s: u64,
    d: u64,
    fault_nodes: Vec<NodeId>,
    fault_links: Vec<gcube_topology::LinkId>,
    fault_free: bool,
) -> Result<(), String> {
    let gc = GaussianCube::new(n, modulus).map_err(|e| e.to_string())?;
    let mut faults = FaultSet::new();
    for v in fault_nodes {
        faults.add_node(v);
    }
    for l in fault_links {
        faults.add_link(l);
    }
    let (s, d) = (NodeId(s), NodeId(d));
    if !faults.is_empty() {
        let counts = categorize(&gc, &faults);
        println!(
            "faults: {counts:?}; Theorem-5 precondition: {}",
            theorem5_precondition(&gc, &faults)
        );
    }
    if fault_free {
        let r = ffgcr::route(&gc, s, d).map_err(|e| e.to_string())?;
        println!(
            "FFGCR {} -> {} ({} hops, optimal):",
            s.to_binary(n),
            d.to_binary(n),
            r.hops()
        );
        println!("  {r}");
    } else {
        let (r, stats) = ftgcr::route(&gc, &faults, s, d).map_err(|e| e.to_string())?;
        let opt = ffgcr::route_len(&gc, s, d);
        println!(
            "FTGCR {} -> {} ({} hops; fault-free optimum {opt}):",
            s.to_binary(n),
            d.to_binary(n),
            r.hops()
        );
        println!("  {r}");
        println!(
            "  crossings {}, masked columns {}, repairs {} moves / {} bounces{}",
            stats.crossings,
            stats.masked_columns,
            stats.flip_moves,
            stats.bounces_inserted,
            if stats.bfs_fallback {
                " [BFS fallback]"
            } else {
                ""
            }
        );
    }
    Ok(())
}

/// Observability options of `gcube run`.
struct SimulateOutput {
    trace: Option<String>,
    percentiles: bool,
    verify_replay: bool,
    telemetry: Option<String>,
    telemetry_interval: u64,
    health_report: bool,
    profile: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn simulate(
    n: u32,
    modulus: u64,
    rate: f64,
    cycles: u64,
    faults: usize,
    pattern: gcube_sim::traffic::TrafficPattern,
    seed: u64,
    churn: ChurnArgs,
    threads: usize,
    strategy: StrategyArg,
    trees: usize,
    collective: Option<gcube_sim::CollectiveOp>,
    collective_interval: u64,
    out: SimulateOutput,
) -> Result<(), String> {
    if n > 14 {
        return Err("simulation supports n <= 14 (16k nodes)".into());
    }
    let dynamic = !churn.schedule.is_none();
    let mut cfg = SimConfig::new(n, modulus)
        .with_rate(rate)
        .with_cycles(cycles, cycles * 20, cycles / 10)
        .with_faults(faults)
        .with_pattern(pattern)
        .with_seed(seed)
        .with_schedule(churn.schedule)
        .with_knowledge(churn.knowledge)
        .with_reroute_budget(churn.reroute_budget)
        .with_window(churn.window)
        .with_telemetry_interval(out.telemetry_interval);
    if let Some(ttl) = churn.ttl {
        cfg = cfg.with_ttl(ttl);
    }
    if let Some(op) = collective {
        cfg = cfg
            .with_collective(op)
            .with_collective_interval(collective_interval);
    }
    // Pick the routing strategy. `auto` keeps the historic rule: any
    // fault — static or dynamic — needs the fault-tolerant strategy.
    // Everything runs plan-cached: identical routes, amortised planning.
    let ffgcr = CachedFfgcr::new();
    let ftgcr = CachedFtgcr::new();
    let multitree = MultiTreeStrategy::new(trees);
    let algo: &dyn RoutingAlgorithm = match strategy {
        StrategyArg::Ffgcr => &ffgcr,
        StrategyArg::Ftgcr => &ftgcr,
        StrategyArg::Multitree => &multitree,
        StrategyArg::Auto if faults == 0 && !dynamic => &ffgcr,
        StrategyArg::Auto => &ftgcr,
    };
    let sim = Simulator::try_new(cfg.clone(), algo).map_err(|e| e.to_string())?;
    if faults > 0 {
        let list: Vec<String> = sim.faults().faulty_nodes().map(|v| v.to_string()).collect();
        println!("faulty nodes: {}", list.join(", "));
    }
    // With tracing or replay verification on, record the flight into
    // memory; otherwise the zero-cost no-sink path runs. Telemetry and
    // profiling are orthogonal: attach a collector only when asked, so
    // the default path stays the sink-free monomorphisation. Each of
    // the eight arms is its own monomorphised engine.
    let recording = out.trace.is_some() || out.verify_replay;
    let mut sink = MemorySink::new();
    let mut telem = (out.telemetry.is_some() || out.health_report)
        .then(|| TelemetryCollector::new(sim.cube(), out.telemetry_interval));
    let mut prof = out
        .profile
        .is_some()
        .then(|| ProfileCollector::new(1 << sim.cube().alpha(), out.telemetry_interval));
    let r = match (&mut telem, &mut prof, recording) {
        (Some(t), Some(p), true) => sim
            .session()
            .threads(threads)
            .trace(&mut sink)
            .telemetry(t)
            .profile(p)
            .try_run(),
        (Some(t), Some(p), false) => sim
            .session()
            .threads(threads)
            .telemetry(t)
            .profile(p)
            .try_run(),
        (Some(t), None, true) => sim
            .session()
            .threads(threads)
            .trace(&mut sink)
            .telemetry(t)
            .try_run(),
        (Some(t), None, false) => sim.session().threads(threads).telemetry(t).try_run(),
        (None, Some(p), true) => sim
            .session()
            .threads(threads)
            .trace(&mut sink)
            .profile(p)
            .try_run(),
        (None, Some(p), false) => sim.session().threads(threads).profile(p).try_run(),
        (None, None, true) => sim.session().threads(threads).trace(&mut sink).try_run(),
        (None, None, false) => sim.session().threads(threads).try_run(),
    }
    .map_err(|e| e.to_string())?;
    // Provenance header stamped onto every JSONL artifact this run
    // writes, so `gcube analyze` can validate what it is fed. The
    // strategy field carries the stable wire spelling (ffgcr / ftgcr /
    // multitree) shared with `gcube serve`, so daemon-written and
    // single-run artifacts diff clean against each other.
    let wire_strategy = gcube_sim::resolve_strategy_name(
        match strategy {
            StrategyArg::Auto => "auto",
            StrategyArg::Ffgcr => "ffgcr",
            StrategyArg::Ftgcr => "ftgcr",
            StrategyArg::Multitree => "multitree",
        },
        &cfg,
    );
    let meta_for = |kind: ArtifactKind| ArtifactMeta {
        kind,
        format: ARTIFACT_FORMAT,
        n: n as u64,
        modulus,
        seed,
        threads: resolve_threads(threads) as u64,
        strategy: wire_strategy.clone(),
    };
    if out.verify_replay {
        // Re-execute against a fresh instance (cold caches, cold atlas)
        // and compare event-for-event.
        let fresh = CachedFtgcr::new();
        let fresh_ff = CachedFfgcr::new();
        let fresh_mt = MultiTreeStrategy::new(trees);
        let fresh_algo: &dyn RoutingAlgorithm = match strategy {
            StrategyArg::Ffgcr => &fresh_ff,
            StrategyArg::Ftgcr => &fresh,
            StrategyArg::Multitree => &fresh_mt,
            StrategyArg::Auto if faults == 0 && !dynamic => &fresh_ff,
            StrategyArg::Auto => &fresh,
        };
        let count =
            gcube_sim::verify_replay(cfg, fresh_algo, sink.events()).map_err(|e| e.to_string())?;
        println!("replay verified  : {count} events match");
    }
    if let Some(path) = &out.trace {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        let mut jsonl = JsonlSink::with_meta(
            std::io::BufWriter::new(file),
            &meta_for(ArtifactKind::Trace),
        );
        for e in sink.events() {
            jsonl.record(e);
        }
        let written = jsonl
            .finish()
            .map_err(|e| format!("trace write to {path} failed: {e}"))?;
        println!("trace written    : {written} events -> {path}");
    }
    if let Some(path) = &out.telemetry {
        let t = telem.as_ref().expect("telemetry was collected");
        // CSV stays headerless-compatible; the JSONL form is stamped.
        let data = if path.ends_with(".jsonl") {
            format!(
                "{}\n{}",
                meta_for(ArtifactKind::Telemetry).to_jsonl_line(),
                t.to_jsonl()
            )
        } else {
            t.to_csv()
        };
        std::fs::write(path, data).map_err(|e| format!("cannot write telemetry to {path}: {e}"))?;
        println!(
            "telemetry written: {} samples ({} evicted) -> {path}",
            t.len(),
            t.evicted()
        );
    }
    if let Some(path) = &out.profile {
        let p = prof.as_ref().expect("profile was collected");
        let data = format!(
            "{}\n{}",
            meta_for(ArtifactKind::Profile).to_jsonl_line(),
            p.to_jsonl()
        );
        std::fs::write(path, data).map_err(|e| format!("cannot write profile to {path}: {e}"))?;
        println!(
            "profile written  : {} sample windows -> {path}",
            p.samples().count()
        );
        print!("{}", p.report());
    }
    let m = r.metrics;
    println!("algorithm        : {}", algo.name());
    if let Some(stats) = algo.cache_stats() {
        println!(
            "plan cache       : {} hits / {} misses ({:.1}% hit rate), {} entries",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.entries
        );
    }
    let tree_carried: u64 = m.tree_routes.iter().sum();
    if tree_carried > 0 || m.tree_exhausted > 0 {
        println!(
            "tree routes      : {tree_carried} carried ({} switches), {} FTGCR fallbacks",
            m.tree_switches, m.tree_exhausted
        );
    }
    println!("injected         : {}", m.injected);
    println!("delivered        : {}", m.delivered);
    if m.suppressed_injections_total > 0 {
        println!(
            "suppressed inj   : {} measured / {} total (permutation partner faulty)",
            m.suppressed_injections, m.suppressed_injections_total
        );
    }
    println!("route failures   : {}", m.route_failures);
    println!("avg latency      : {:.3} cycles", m.avg_latency());
    println!("avg hops         : {:.3}", m.avg_hops());
    if out.percentiles {
        let fmt = |h: &gcube_sim::Histogram| {
            format!(
                "p50 {} / p95 {} / p99 {} / max {}",
                h.p50().map_or_else(|| "-".into(), |v| v.to_string()),
                h.p95().map_or_else(|| "-".into(), |v| v.to_string()),
                h.p99().map_or_else(|| "-".into(), |v| v.to_string()),
                h.max()
            )
        };
        println!("latency pctl     : {}", fmt(&m.latency_hist));
        println!("hops pctl        : {}", fmt(&m.hops_hist));
    }
    let log2 = m
        .log2_throughput()
        .map_or_else(|| "n/a".into(), |v| format!("{v:.3}"));
    println!(
        "throughput       : {:.4} pkts/cycle (log2 {log2})",
        m.throughput()
    );
    println!("measured cycles  : {}", m.cycles);
    if let Some(op) = collective {
        println!(
            "collective       : {} every {} cycles — {} ops launched, {} skipped (dead root class)",
            op.as_str(),
            collective_interval,
            m.collective_ops,
            m.collective_skipped
        );
        println!(
            "  wave packets   : {} injected, {} delivered, {} dropped (coverage {:.4})",
            m.collective_injected,
            m.collective_delivered,
            m.collective_dropped,
            m.collective_coverage()
        );
        if m.tree_regrafts + m.tree_rebuilds > 0 {
            println!(
                "  tree repairs   : {} re-grafts, {} full rebuilds, {} nodes lost to partitions",
                m.tree_regrafts, m.tree_rebuilds, m.tree_lost_nodes
            );
        }
        if !r.collectives.is_empty() {
            println!("  per-op coverage (op root: delivered/expected, completion cycles):");
            for s in r.collectives.iter().take(20) {
                println!(
                    "    op {:>3} @ node {:>5}: {:>5}/{:<5} ({:.3})  {} cycles",
                    s.op,
                    s.root,
                    s.delivered,
                    s.expected,
                    s.coverage(),
                    s.last_delivery.saturating_sub(s.started)
                );
            }
            if r.collectives.len() > 20 {
                println!("    ... {} more", r.collectives.len() - 20);
            }
        }
    }
    if dynamic {
        println!("fault events     : {}", m.fault_events);
        println!(
            "dropped          : {} (ttl {}, stranded {}, unrecoverable {})",
            m.dropped, m.ttl_expired, m.dropped_stranded, m.dropped_unrecoverable
        );
        println!(
            "delivery ratio   : {:.4} of resolved ({:.4} of injected)",
            m.delivery_ratio(),
            m.completion_ratio()
        );
        println!("rerouted packets : {}", m.rerouted_packets);
        println!("detour hops      : {}", m.rerouted_hops);
        println!(
            "stale knowledge  : {} cycles over {} reconvergences",
            m.stale_cycles, m.reconvergences
        );
        println!(
            "final health     : {} ({} transitions; {} live faults, \
             Thm-3 headroom {} of {})",
            r.budget.state,
            m.health_transitions,
            r.budget.total,
            r.budget.headroom_paper(),
            r.budget.t_paper
        );
        println!("delivery windows (cycles: delivered/resolved ratio):");
        for w in &r.windows {
            println!(
                "  {:>6}..{:<6} inj {:>5}  dlv {:>5}  drop {:>4}  ratio {:.3}",
                w.start,
                w.end,
                w.injected,
                w.delivered,
                w.dropped,
                w.delivery_ratio()
            );
        }
        if !r.trace.is_empty() {
            println!("fault trace ({} events):", r.trace.len());
            for e in r.trace.iter().take(20) {
                let what = match e.target {
                    gcube_sim::FaultTarget::Node(v) => format!("node {v}"),
                    gcube_sim::FaultTarget::Link(l) => format!("link {l}"),
                };
                let act = match e.action {
                    gcube_sim::FaultAction::Fail => "fail",
                    gcube_sim::FaultAction::Repair => "repair",
                };
                println!("  cycle {:>6}: {act:<6} {what}", e.cycle);
            }
            if r.trace.len() > 20 {
                println!("  ... {} more", r.trace.len() - 20);
            }
        }
    }
    if m.in_flight_at_end > 0 {
        println!(
            "WARNING: {} packets undrained (raise --cycles?)",
            m.in_flight_at_end
        );
    }
    if out.health_report {
        let t = telem.as_ref().expect("telemetry was collected");
        print!(
            "{}",
            t.health_report_with_trees(&r.budget, r.tree_health.as_deref())
        );
        // Shard layout: which ending classes each worker owned (Theorem 2
        // partitions the cube so this assignment is the parallel unit).
        let resolved = resolve_threads(threads);
        let shards = effective_shards(sim.cube(), resolved);
        let num_classes = 1usize << sim.cube().alpha();
        let nodes_per_class = sim.cube().num_nodes() / num_classes as u64;
        println!("--- shard layout ---");
        println!(
            "threads: {threads} requested -> {resolved} resolved -> {shards} shard{} \
             over {num_classes} ending class{}",
            if shards == 1 { "" } else { "s" },
            if num_classes == 1 { "" } else { "es" },
        );
        if shards == 1 {
            println!("  one shard owns every class");
        } else {
            for (s, (lo, hi)) in class_ranges(num_classes, shards).into_iter().enumerate() {
                println!(
                    "  shard {s}: classes {lo}..{} ({} nodes)",
                    hi - 1,
                    (hi - lo) as u64 * nodes_per_class
                );
            }
        }
    }
    Ok(())
}

/// `gcube serve` — the routing-as-a-service daemon, or (with
/// `--connect`) a thin client piping stdin/stdout through the socket of
/// one that is already running.
fn serve(
    socket: Option<String>,
    connect: Option<String>,
    max_sessions: usize,
    workers: usize,
) -> Result<(), String> {
    if let Some(path) = connect {
        return serve_client(&path);
    }
    let cfg = gcube_sim::ServerConfig {
        max_sessions,
        workers,
    };
    gcube_sim::serve(cfg, socket.as_deref().map(std::path::Path::new))
        .map_err(|e| format!("serve failed: {e}"))
}

/// Client mode: forward stdin lines to the daemon socket and stream the
/// replies back to stdout. Replies arrive on their own thread so a
/// long-running request never deadlocks the pipe.
fn serve_client(path: &str) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let stream = UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to daemon at {path}: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("socket clone failed: {e}"))?;
    let pump = std::thread::spawn(move || {
        let mut out = std::io::stdout().lock();
        for line in BufReader::new(reader).lines() {
            let Ok(line) = line else { break };
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                break;
            }
        }
    });
    let mut writer = stream;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin read failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("socket write failed: {e}"))?;
    }
    // EOF on stdin: half-close so the daemon side sees the end of the
    // conversation, then drain the remaining replies.
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = pump.join();
    Ok(())
}

/// `gcube analyze` — offline forensics over recorded artifacts.
fn analyze(mode: AnalyzeMode) -> Result<(), String> {
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read artifact {path}: {e}"))
    };
    match mode {
        AnalyzeMode::Trace { path, packet, top } => {
            let text = read(&path)?;
            let (meta, events) =
                parse_jsonl_with_meta(&text).map_err(|e| format!("{path}: {e}"))?;
            if let Some(m) = &meta {
                println!(
                    "provenance       : GC({}, {}), seed {}, {} threads, {} (format {})",
                    m.n, m.modulus, m.seed, m.threads, m.strategy, m.format
                );
            } else {
                println!("provenance       : unstamped v0 artifact");
            }
            let f = RunForensics::from_events(&events);
            if let Some(id) = packet {
                print!("{}", f.timeline(id));
                return Ok(());
            }
            print!("{}", f.summary());
            println!("--- fault impact (per blocked node) ---");
            print!("{}", f.fault_impact_table(top));
            println!("--- congestion hot-spots ---");
            print!("{}", f.congestion_table(top));
            Ok(())
        }
        AnalyzeMode::Profile { path } => {
            let text = read(&path)?;
            print!(
                "{}",
                render_profile(&text).map_err(|e| format!("{path}: {e}"))?
            );
            Ok(())
        }
        AnalyzeMode::Diff { a, b } => {
            let outcome = diff_deterministic(&read(&a)?, &read(&b)?)?;
            println!("A: {a}");
            println!("B: {b}");
            println!("{}", outcome.detail);
            if outcome.identical {
                Ok(())
            } else {
                Err("deterministic streams diverged".into())
            }
        }
    }
}
