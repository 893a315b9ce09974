//! Every artifact and wire reader, fed hostile input, returns `Ok` or
//! `Err` and never panics.
//!
//! Each case starts from a valid artifact written by the real writers — a
//! trace, a profiler export and a telemetry export, each with its
//! provenance header, a checkpoint, and an `open` request — and mutates
//! it once: a truncation at a random byte, one byte replaced by a
//! structural character, a digit, a letter or a multi-byte character, or
//! one field of one line duplicated or removed. The mutated text then
//! goes through every reader. A checkpoint that still parses is also
//! restored, on a simulator built from its own config and strategy.

use std::sync::OnceLock;

use proptest::prelude::*;

use gcube::analysis::forensics::{diff_deterministic, render_profile};
use gcube::sim::proto::{config_to_json, parse_json, quote, JsonValue};
use gcube::sim::trace::to_jsonl;
use gcube::sim::{
    build_strategy, parse_jsonl_with_meta, ArtifactKind, ArtifactMeta, CategoryMix, Checkpoint,
    CollectiveOp, DropCause, FaultKind, FaultSchedule, FaultTarget, MemorySink, ProfileCollector,
    Request, SimConfig, Simulator, TelemetryCollector, TimedFault, TraceEvent, TraceEventKind,
    ARTIFACT_FORMAT,
};
use gcube::topology::NodeId;

/// What a replaced byte becomes.
const REPLACEMENTS: [&str; 13] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "7", "0", "z", "é", "€",
];

fn churn_config() -> SimConfig {
    SimConfig::new(6, 2)
        .with_rate(0.05)
        .with_cycles(20, 80, 2)
        .with_seed(0x5eed)
        .with_faults(1)
        .with_schedule(FaultSchedule::Bernoulli {
            rate: 0.05,
            kind: FaultKind::Transient { repair_after: 15 },
            mix: CategoryMix::default(),
            node_fraction: 0.5,
        })
        .with_collective(CollectiveOp::Broadcast)
        .with_collective_interval(10)
        .with_window(10)
}

fn meta_line(cfg: &SimConfig, kind: ArtifactKind) -> String {
    ArtifactMeta {
        kind,
        format: ARTIFACT_FORMAT,
        n: u64::from(cfg.n),
        modulus: cfg.modulus,
        seed: cfg.seed,
        threads: 1,
        strategy: "ftgcr".to_string(),
    }
    .to_jsonl_line()
}

/// The valid artifacts every case starts from: trace, profile,
/// telemetry, checkpoint, `open` request.
fn corpus() -> &'static [String; 5] {
    static CORPUS: OnceLock<[String; 5]> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let cfg = churn_config();
        let algo = build_strategy("ftgcr", 0).unwrap();
        let sim = Simulator::new(cfg.clone(), &*algo);

        let mut sink = MemorySink::new();
        let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), cfg.window);
        let mut telem = TelemetryCollector::new(sim.cube(), cfg.window);
        sim.session()
            .trace(&mut sink)
            .profile(&mut prof)
            .telemetry(&mut telem)
            .run();
        // The run draws no drops or tree events; append one of each so
        // every event kind's fields are in play.
        let mut events = sink.events().to_vec();
        let at = |kind| TraceEvent {
            cycle: 99,
            packet: 7,
            node: NodeId(5),
            kind,
        };
        events.extend([
            at(TraceEventKind::Drop {
                cause: DropCause::Stranded,
            }),
            at(TraceEventKind::TreeSwitch {
                tree: 1,
                switches: 2,
                exhausted: true,
            }),
            at(TraceEventKind::TreeRepair {
                regrafted: 1,
                reattached: 4,
                lost: 0,
                rebuilt: false,
            }),
        ]);
        let trace = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Trace),
            to_jsonl(&events)
        );
        let profile = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Profile),
            prof.to_jsonl()
        );
        let telemetry = format!(
            "{}\n{}",
            meta_line(&cfg, ArtifactKind::Telemetry),
            telem.to_jsonl()
        );

        let mut stepper = sim.session().stepper();
        stepper.step_many(25);
        let checkpoint = stepper.checkpoint(0).unwrap().to_text();

        let scripted = cfg.clone().with_schedule(FaultSchedule::Scripted(vec![TimedFault {
            cycle: 9,
            target: FaultTarget::Node(NodeId(3)),
            kind: FaultKind::Intermittent {
                down_for: 2,
                period: 5,
            },
        }]));
        let open = format!(
            "{{\"op\":\"open\",\"session\":\"s1\",\"strategy\":\"ftgcr\",\"trees\":2,\"config\":{}}}",
            config_to_json(&scripted)
        );
        [trace, profile, telemetry, checkpoint, open]
    })
}

/// Write a parsed value back out (numbers keep their raw text).
fn render(v: &JsonValue) -> String {
    let join = |items: Vec<String>| items.join(",");
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(raw) => raw.clone(),
        JsonValue::Str(s) => quote(s),
        JsonValue::Arr(items) => format!("[{}]", join(items.iter().map(render).collect())),
        JsonValue::Obj(fields) => format!(
            "{{{}}}",
            join(
                fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", quote(k), render(v)))
                    .collect()
            )
        ),
    }
}

/// Apply mutation `kind` to `text`; `a` and `b` pick where and what.
fn mutate(text: &str, kind: u8, a: u64, b: u64) -> String {
    let mut out = text.to_string();
    let mut at = (a % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    match kind {
        0 => out.truncate(at),
        1 => {
            let len = text[at..].chars().next().map_or(0, char::len_utf8);
            out.replace_range(at..at + len, REPLACEMENTS[b as usize % REPLACEMENTS.len()]);
        }
        _ => {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = (a % lines.len() as u64) as usize;
            if let Ok(JsonValue::Obj(mut fields)) = parse_json(&lines[i]) {
                if !fields.is_empty() {
                    let f = b as usize % fields.len();
                    if (b >> 32) & 1 == 0 {
                        fields.remove(f);
                    } else {
                        fields.insert(f + 1, fields[f].clone());
                    }
                    lines[i] = render(&JsonValue::Obj(fields));
                }
            }
            out = lines.join("\n");
        }
    }
    out
}

/// Every reader over `text`; `original` is what it was mutated from.
fn read_everything(original: &str, text: &str) {
    let _ = parse_json(text);
    for line in text.lines() {
        let _ = parse_json(line);
        let _ = Request::parse(line);
        let _ = ArtifactMeta::parse(line);
    }
    let _ = parse_jsonl_with_meta(text);
    if let Ok(ck) = Checkpoint::from_text(text) {
        if let Ok(algo) = build_strategy(ck.strategy(), ck.trees()) {
            if let Ok(sim) = Simulator::try_new(ck.config().clone(), &*algo) {
                let _ = sim.session().stepper_from(&ck).map(drop);
            }
        }
    }
    let _ = render_profile(text);
    let _ = diff_deterministic(original, text);
}

#[test]
fn the_unmutated_corpus_reads_cleanly() {
    let [trace, profile, telemetry, checkpoint, open] = corpus();
    let (meta, events) = parse_jsonl_with_meta(trace).unwrap();
    assert!(
        meta.is_some() && events.len() > 100,
        "{} events",
        events.len()
    );
    assert!(render_profile(profile).unwrap().contains("sample windows"));
    let meta = ArtifactMeta::parse(telemetry.lines().next().unwrap());
    assert_eq!(meta.unwrap().unwrap().kind, ArtifactKind::Telemetry);
    assert!(telemetry.lines().count() > 2, "{telemetry}");
    let ck = Checkpoint::from_text(checkpoint).unwrap();
    let algo = build_strategy(ck.strategy(), ck.trees()).unwrap();
    let sim = Simulator::try_new(ck.config().clone(), &*algo).unwrap();
    assert_eq!(sim.session().stepper_from(&ck).unwrap().cycle(), 25);
    assert!(matches!(Request::parse(open), Ok(Request::Open { .. })));
    for text in corpus() {
        assert!(diff_deterministic(text, text).unwrap().identical);
        for line in text.lines() {
            let reparsed = render(&parse_json(line).unwrap());
            assert_eq!(parse_json(&reparsed), parse_json(line));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn readers_never_panic_on_mutated_artifacts(
        (which, kind, a, b) in (0usize..5, 0u8..3, any::<u64>(), any::<u64>())
    ) {
        let original = &corpus()[which];
        read_everything(original, &mutate(original, kind, a, b));
    }
}
