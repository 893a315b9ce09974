//! Coarse spans around the calls the benchmark makes into each layer.
//!
//! Spans live in memory and are written as JSONL when the run ends. Each
//! thread keeps its own [`Tracer`]; a thread's top-level spans never
//! overlap, so the time the spans of one layer do not hand to a child is
//! that layer's self time, and the self times of all layers plus the
//! top-level spans' own residue add up to the traced wall time. Planning
//! runs per packet, so it enters a step span as a nanosecond total
//! (`plan_ns`), not as child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Identifier, unique within a run (1-based).
    pub id: u64,
    /// The enclosing span, `0` for a top-level span.
    pub parent: u64,
    /// What the span covers (see [`layer_of`]).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Route planning done inside the span, in nanoseconds.
    pub plan_ns: u64,
}

/// Span recorder for one thread. A disabled tracer records nothing, so
/// the untraced run executes the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span (`None` when tracing is off).
pub type Open = Option<usize>;

impl Tracer {
    /// A tracer timing from `epoch`; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u64 + 1,
            parent: self.open.last().map_or(0, |&p| p as u64 + 1),
            name,
            start_ns: self.now(),
            end_ns: 0,
            plan_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if let Some(idx) = span {
            assert_eq!(self.open.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.now();
        }
    }

    /// Credit `ns` of route planning to the innermost open span.
    pub fn add_plan(&mut self, ns: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].plan_ns += ns;
        }
    }

    /// The finished spans, in the order they were opened.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Join the spans of several threads, renumbering ids so they stay
/// unique.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in per_thread {
        let offset = out.len() as u64;
        out.extend(spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: if s.parent == 0 { 0 } else { s.parent + offset },
            ..s
        }));
    }
    out
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "setup" => "setup",
        "step" | "finish" => "engine",
        "run" => "shard",
        "checkpoint" | "restore" => "checkpoint",
        "export" => "export",
        "parse" => "parse",
        "verify" => "verify",
        "forensics" => "forensics",
        "spawn" => "spawn",
        "request" => "client",
        "server" => "server",
        "gate" => "gate",
        _ => "residual",
    }
}

/// Every layer [`layer_of`] can return, in reporting order; `routing` is
/// the planning time credited to spans.
pub const LAYERS: [&str; 14] = [
    "setup",
    "routing",
    "engine",
    "shard",
    "checkpoint",
    "export",
    "parse",
    "verify",
    "forensics",
    "spawn",
    "client",
    "server",
    "gate",
    "residual",
];

/// Self time per layer and the summed duration of the top-level spans
/// (the denominator the shares add up to).
pub fn layer_times(spans: &[Span]) -> (BTreeMap<&'static str, u64>, u64) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut times: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    let mut total = 0;
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        if s.parent == 0 {
            total += dur;
        }
        let own = dur
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
            .saturating_sub(s.plan_ns);
        *times.get_mut(layer_of(s.name)).expect("known layer") += own;
        *times.get_mut("routing").expect("known layer") += s.plan_ns;
    }
    (times, total)
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"plan_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.plan_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, plan: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            plan_ns: plan,
        }
    }

    #[test]
    fn self_times_add_up_to_the_top_level_spans() {
        let spans = vec![
            span(1, 0, "round", 0, 100, 0),
            span(2, 1, "setup", 0, 10, 0),
            span(3, 1, "step", 10, 60, 20),
            span(4, 1, "checkpoint", 60, 70, 0),
            span(5, 0, "round", 200, 250, 0),
            span(6, 5, "request", 200, 240, 0),
        ];
        let (times, total) = layer_times(&spans);
        assert_eq!(total, 150);
        assert_eq!(times["setup"], 10);
        assert_eq!(times["engine"], 30);
        assert_eq!(times["routing"], 20);
        assert_eq!(times["checkpoint"], 10);
        assert_eq!(times["client"], 40);
        assert_eq!(times["residual"], 30 + 10);
        assert_eq!(times.values().sum::<u64>(), total);
    }

    #[test]
    fn tracer_nests_and_merge_renumbers() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let round = t.enter("round");
        let step = t.enter("step");
        t.add_plan(5);
        t.exit(step);
        t.exit(round);
        let a = t.into_spans();
        assert_eq!(a[1].parent, a[0].id);
        assert_eq!(a[1].plan_ns, 5);

        let merged = merge(vec![a.clone(), a]);
        let ids: Vec<u64> = merged.iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        assert_eq!(merged[3].parent, 3);
        assert_eq!(to_jsonl(&merged).lines().count(), 4);

        let mut off = Tracer::new(false, epoch);
        let s = off.enter("round");
        off.exit(s);
        assert!(off.into_spans().is_empty());
    }
}
