//! Pinned outputs of the reference configurations.
//!
//! Each configuration's four deterministic outputs — the report's `Debug`
//! form, the trace JSONL, the telemetry CSV, and the profiler's
//! deterministic stream — are hashed (FNV-1a 64) and compared against
//! constants recorded from the reference engine. Every thread count must
//! hit the same four digests, so this is both a seq≡sharded check and a
//! regression pin: an engine refactor that changes any observable byte
//! fails here, whatever schedule it runs.
//!
//! To re-pin after an *intended* output change, copy the `got` digests
//! from the failure message into the table.

use gcube_sim::trace::to_jsonl;
use gcube_sim::{
    build_strategy, CategoryMix, CollectiveOp, FaultKind, FaultSchedule, KnowledgeModel,
    MemorySink, ProfileCollector, SimConfig, Simulator, TelemetryCollector, TrafficPattern,
};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn churn(rate: f64, repair_after: u64) -> FaultSchedule {
    FaultSchedule::Bernoulli {
        rate,
        kind: FaultKind::Transient { repair_after },
        mix: CategoryMix::default(),
        node_fraction: 0.6,
    }
}

/// One pinned configuration: name, strategy wire name and tree count,
/// config, whether it may shard, and the expected
/// `[report, trace, telemetry, profile]` digests.
struct Case {
    name: &'static str,
    strategy: (&'static str, usize),
    config: SimConfig,
    shardable: bool,
    digests: [u64; 4],
}

fn cases() -> Vec<Case> {
    let base = || {
        SimConfig::new(6, 4)
            .with_cycles(160, 1_200, 20)
            .with_seed(0x5eed)
            .with_telemetry_interval(40)
    };
    vec![
        Case {
            name: "static-ffgcr",
            strategy: ("ffgcr", 0),
            config: base().with_rate(0.06),
            shardable: true,
            digests: [
                0xf70a65672df34efe,
                0x78edf3642b30fde2,
                0xd3c22626051f7d33,
                0x4c82e8c803dd8985,
            ],
        },
        Case {
            name: "churn-ftgcr-paper",
            strategy: ("ftgcr", 0),
            config: base()
                .with_rate(0.08)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_reroute_budget(2)
                .with_schedule(churn(0.03, 50)),
            shardable: true,
            digests: [
                0x88059dee973c7bbb,
                0xbf30512049493b19,
                0xb956a05bb4e6b8f5,
                0x3100409b146921d1,
            ],
        },
        Case {
            name: "measured-ttl-budget1",
            strategy: ("ftgcr", 0),
            config: base()
                .with_rate(0.08)
                .with_faults(1)
                .with_knowledge(KnowledgeModel::Measured)
                .with_ttl(9)
                .with_reroute_budget(1)
                .with_schedule(churn(0.03, 40)),
            shardable: true,
            digests: [
                0x21f67e0774e9d6a5,
                0xca8f1d438c67991f,
                0x0025611c4b5be8a0,
                0x61f75ebcf81485de,
            ],
        },
        Case {
            name: "multitree2-churn",
            strategy: ("multitree", 2),
            config: base()
                .with_rate(0.08)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_reroute_budget(2)
                .with_schedule(churn(0.03, 50)),
            shardable: true,
            digests: [
                0x78a1d9483c3c176c,
                0x103482494df5bb20,
                0x2d506ca88d08251f,
                0x4f2050cb4f543caf,
            ],
        },
        Case {
            name: "broadcast-churn",
            strategy: ("ftgcr", 0),
            config: base()
                .with_rate(0.05)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_schedule(churn(0.03, 50))
                .with_collective(CollectiveOp::Broadcast)
                .with_collective_interval(30),
            shardable: true,
            digests: [
                0x23732d206c027598,
                0xac9a65de2b4079c2,
                0x3e1c28d925f46f24,
                0x82590d746a2f7f47,
            ],
        },
        Case {
            name: "gather-churn",
            strategy: ("ftgcr", 0),
            config: base()
                .with_rate(0.05)
                .with_knowledge(KnowledgeModel::PaperDelay)
                .with_schedule(churn(0.03, 50))
                .with_collective(CollectiveOp::Gather)
                .with_collective_interval(30),
            shardable: true,
            digests: [
                0x125c98f1447facc3,
                0xb83c9e781f97942a,
                0xab61721314e1b903,
                0x67e56c5ac51787cd,
            ],
        },
        Case {
            name: "bit-complement",
            strategy: ("ffgcr", 0),
            config: base()
                .with_rate(0.05)
                .with_pattern(TrafficPattern::BitComplement),
            shardable: true,
            digests: [
                0xbb96c927c227b377,
                0x7d7fa8d0f30ff39b,
                0xb10aac294d6fca51,
                0xe2762152c497ac55,
            ],
        },
        Case {
            name: "finite-buffers",
            strategy: ("ffgcr", 0),
            config: base().with_rate(0.2).with_buffer_capacity(3),
            shardable: false,
            digests: [
                0x17a6797dde13fcf9,
                0x9130530e9c72307f,
                0x8e3d7ea718cc465c,
                0xbd7ef1b1d33e2255,
            ],
        },
    ]
}

/// Run `case` on `threads` threads with every observer attached and hash
/// the four outputs.
fn digests(case: &Case, threads: usize) -> [u64; 4] {
    let algo = build_strategy(case.strategy.0, case.strategy.1).expect("known strategy");
    let sim = Simulator::new(case.config.clone(), &*algo);
    let mut trace = MemorySink::new();
    let mut telem = TelemetryCollector::new(sim.cube(), case.config.telemetry_interval);
    let mut prof = ProfileCollector::new(1 << sim.cube().alpha(), case.config.telemetry_interval);
    let report = sim
        .session()
        .threads(threads)
        .trace(&mut trace)
        .telemetry(&mut telem)
        .profile(&mut prof)
        .run();
    // A pin is only worth something if the case exercises its feature.
    let m = &report.metrics;
    match case.name {
        "churn-ftgcr-paper" | "multitree2-churn" => {
            assert!(
                m.fault_events > 0 && m.rerouted_packets > 0,
                "{}",
                case.name
            )
        }
        "measured-ttl-budget1" => assert!(m.ttl_expired > 0 && m.dropped > 0, "{}", case.name),
        "broadcast-churn" | "gather-churn" => {
            assert!(m.collective_ops > 0 && m.fault_events > 0, "{}", case.name)
        }
        "finite-buffers" => assert!(m.blocked_injections > 0, "{}", case.name),
        _ => assert!(m.delivered > 0, "{}", case.name),
    }
    [
        fnv1a(format!("{report:?}").as_bytes()),
        fnv1a(to_jsonl(trace.events()).as_bytes()),
        fnv1a(telem.to_csv().as_bytes()),
        fnv1a(prof.deterministic_jsonl().as_bytes()),
    ]
}

#[test]
fn reference_outputs_are_pinned_at_every_thread_count() {
    let mut failures = Vec::new();
    for case in cases() {
        let classes = 1usize << (case.config.modulus.trailing_zeros());
        let threads: &[usize] = if !case.shardable {
            &[1]
        } else if classes >= 4 {
            &[1, 2, 4]
        } else {
            &[1, 2]
        };
        for &t in threads {
            let got = digests(&case, t);
            if got != case.digests {
                failures.push(format!(
                    "{} @ {t} threads: got {got:#018x?}, pinned {:#018x?}",
                    case.name, case.digests
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "digest mismatches:\n{}",
        failures.join("\n")
    );
}
