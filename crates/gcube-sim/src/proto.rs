//! Wire protocol for routing-as-a-service: newline-delimited JSON, and the
//! workspace's one JSON reader.
//!
//! The daemon ([`crate::server`]) speaks one JSON object per line, both
//! directions. This module owns everything about that surface that is
//! *not* connection handling: the JSON lexer every artifact reader shares
//! (the workspace vendors no JSON library), the [`SimConfig`] codec, the
//! stable spellings for fault kinds and targets (shared with the CLI and
//! the checkpoint codec), and the typed [`Request`] grammar.
//!
//! The lexer has two entry points. [`parse_json`] decodes a whole document
//! into an owned [`JsonValue`] tree. [`Line`] reads one JSONL object and
//! keeps its keys, numbers and escape-free strings as slices of the line,
//! so the trace reader makes no heap allocation per field. Both go through
//! the same scanner: strings are scanned once, and nesting deeper than
//! `MAX_DEPTH` (64) is an error, not a stack overflow. [`Fields`] gives both
//! forms one set of typed getters with one wording for every error.
//!
//! Numbers ride as raw text until a caller asks for a concrete type:
//! `u64` seeds round-trip exactly instead of detouring through `f64` and
//! losing the top bits.

use std::borrow::Cow;
use std::cell::Cell;

use crate::config::{CollectiveOp, KnowledgeModel, SimConfig};
use crate::injection::{CategoryMix, FaultKind, FaultSchedule, FaultTarget, TimedFault};
use crate::traffic::TrafficPattern;
use gcube_topology::NodeId;

// --- JSON value ---------------------------------------------------------

/// Deepest nesting of arrays and objects the lexer accepts. Deeper input
/// is a parse error, so a hostile line cannot overflow the stack of the
/// daemon thread reading it; the deepest artifact written here nests 4.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object fields keep their wire order (a `Vec`, not
/// a map): requests are small, and order-preservation makes round-trip
/// tests exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw wire text (see module docs).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in wire order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field lookup on an object (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A borrowed look at this value, as the typed getters see it.
    #[inline]
    pub fn view(&self) -> View<'_> {
        match self {
            JsonValue::Null => View::Null,
            JsonValue::Bool(b) => View::Bool(*b),
            JsonValue::Num(raw) => View::Num(raw),
            JsonValue::Str(s) => View::Str(s),
            JsonValue::Arr(_) | JsonValue::Obj(_) => View::Tree(self),
        }
    }

    /// The string payload, for [`JsonValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        FromView::from_view(self.view())
    }

    /// The boolean payload, for [`JsonValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        FromView::from_view(self.view())
    }

    /// The number as `u64` (exact; rejects floats and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        FromView::from_view(self.view())
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        FromView::from_view(self.view())
    }

    /// The elements, for [`JsonValue::Arr`].
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        FromView::from_view(self.view())
    }

    /// Whether this is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A borrowed look at one JSON value: what the typed getters convert.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum View<'v> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's raw text.
    Num(&'v str),
    /// A string, unescaped.
    Str(&'v str),
    /// An array or an object.
    Tree(&'v JsonValue),
}

/// A type a JSON value can be read as, through [`Fields::req`] and
/// [`Fields::opt`].
pub trait FromView<'v>: Sized {
    /// How a mistyped-field error names the expected type.
    const WHAT: &'static str;
    /// The value as `Self`, if it has that type.
    fn from_view(v: View<'v>) -> Option<Self>;
}

/// `impl FromView` for a type: its name in errors, and the one view it
/// reads.
macro_rules! from_view {
    ($($t:ty => $what:literal, $view:pat => $read:expr;)*) => {$(
        impl<'v> FromView<'v> for $t {
            const WHAT: &'static str = $what;
            #[inline]
            fn from_view(v: View<'v>) -> Option<$t> {
                match v {
                    $view => $read,
                    _ => None,
                }
            }
        }
    )*};
}

from_view! {
    u64 => "an unsigned integer", View::Num(raw) => raw.parse().ok();
    u32 => "an unsigned integer below 2^32", View::Num(raw) => raw.parse().ok();
    f64 => "a number", View::Num(raw) => raw.parse().ok();
    bool => "a boolean", View::Bool(b) => Some(b);
    &'v str => "a string", View::Str(s) => Some(s);
    &'v [JsonValue] => "an array", View::Tree(JsonValue::Arr(items)) => Some(items);
    &'v JsonValue => "an object", View::Tree(obj @ JsonValue::Obj(_)) => Some(obj);
}

/// Typed field access shared by every reader, for owned objects
/// ([`JsonValue`]) and borrowed lines ([`Line`]) alike.
pub trait Fields {
    /// The value under `key` (its first occurrence), if present.
    fn lookup(&self, key: &str) -> Option<View<'_>>;

    /// Field `key` as `T`. A missing or mistyped field is an error that
    /// names the key.
    fn req<'s, T: FromView<'s>>(&'s self, key: &str) -> Result<T, String> {
        let v = self
            .lookup(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        T::from_view(v).ok_or_else(|| format!("field {key:?} must be {}", T::WHAT))
    }

    /// Like [`Fields::req`], but a missing or `null` field is `None`.
    fn opt<'s, T: FromView<'s>>(&'s self, key: &str) -> Result<Option<T>, String> {
        match self.lookup(key) {
            None | Some(View::Null) => Ok(None),
            Some(_) => self.req(key).map(Some),
        }
    }
}

impl Fields for JsonValue {
    #[inline]
    fn lookup(&self, key: &str) -> Option<View<'_>> {
        self.get(key).map(JsonValue::view)
    }
}

/// Parse one JSON document (object, array, or scalar). Trailing
/// non-whitespace is an error — a line holds exactly one value.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut lx = Lexer::new(text);
    let v = lx.value(0)?.into_owned();
    lx.end()?;
    Ok(v)
}

/// One JSONL object, read without copying: keys, numbers and escape-free
/// strings are slices of the line; only an escaped string or a nested
/// array or object is decoded into an owned value. Keys are compared as
/// written, so an escaped key matches no field name. Read the fields
/// through [`Fields`].
#[derive(Debug, Default)]
pub struct Line<'a> {
    fields: Vec<(&'a str, Lexed<'a>)>,
    /// Where the next lookup starts: readers mostly ask for fields in the
    /// order they were written.
    next: Cell<usize>,
}

impl<'a> Line<'a> {
    /// Read `line`, which must hold exactly one JSON object.
    pub fn parse(line: &'a str) -> Result<Line<'a>, String> {
        let mut fields = Line::default();
        fields.read(line)?;
        Ok(fields)
    }

    /// Like [`Line::parse`], but into this record's storage, so a reader
    /// of many lines allocates once.
    pub fn read(&mut self, line: &'a str) -> Result<(), String> {
        let fields = &mut self.fields;
        fields.clear();
        self.next.set(0);
        let mut lx = Lexer::new(line);
        lx.expect(b'{')?;
        lx.members(b'}', |lx| {
            let key = lx.key()?;
            fields.push((key, lx.value(1)?));
            Ok(())
        })?;
        Ok(lx.end()?)
    }

    /// Reject a line that holds anything but `n` fields. After the caller
    /// reads `n` distinct required keys, this leaves no room for an
    /// unknown or duplicated field.
    pub fn expect_len(&self, n: usize) -> Result<(), String> {
        match self.fields.len() {
            len if len == n => Ok(()),
            len => Err(format!(
                "{len} fields where {n} belong (unknown or repeated field)"
            )),
        }
    }
}

impl Fields for Line<'_> {
    #[inline]
    fn lookup(&self, key: &str) -> Option<View<'_>> {
        // Keys are short: a byte loop beats a call to `memcmp`.
        let same = |(k, _): &(&str, _)| k.len() == key.len() && k.bytes().eq(key.bytes());
        let hint = self.next.get();
        let i = match self.fields.get(hint) {
            Some(f) if same(f) => hint,
            _ => self.fields.iter().position(same)?,
        };
        self.next.set(i + 1);
        Some(self.fields[i].1.view())
    }
}

/// One lexed value: borrowed from the input when it can be, owned when
/// decoding had to copy (an escaped string, an array or an object).
#[derive(Debug)]
enum Lexed<'a> {
    Borrowed(View<'a>),
    Owned(JsonValue),
}

impl Lexed<'_> {
    #[inline]
    fn view(&self) -> View<'_> {
        match self {
            Lexed::Borrowed(v) => *v,
            Lexed::Owned(v) => v.view(),
        }
    }

    fn into_owned(self) -> JsonValue {
        match self {
            Lexed::Owned(v) => v,
            Lexed::Borrowed(View::Null) => JsonValue::Null,
            Lexed::Borrowed(View::Bool(b)) => JsonValue::Bool(b),
            Lexed::Borrowed(View::Num(raw)) => JsonValue::Num(raw.to_string()),
            Lexed::Borrowed(View::Str(s)) => JsonValue::Str(s.to_string()),
            Lexed::Borrowed(View::Tree(v)) => v.clone(),
        }
    }
}

/// Why lexing stopped, and at which byte. `Copy`, so the lexer's results
/// carry no drop glue on the hot path; the entry points render it.
#[derive(Clone, Copy, Debug)]
struct Bad {
    what: &'static str,
    at: usize,
}

impl From<Bad> for String {
    fn from(bad: Bad) -> String {
        format!("{} at byte {}", bad.what, bad.at)
    }
}

/// The scanner behind both entry points. Every method starts at a
/// non-blank byte, and [`Lexer::value`] also eats the blanks after it.
struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Lexer<'a> {
        let mut lx = Lexer { text, pos: 0 };
        lx.skip_ws();
        lx
    }

    fn bad<T>(&self, what: &'static str) -> Result<T, Bad> {
        Err(Bad { what, at: self.pos })
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    #[inline]
    fn skip_ws(&mut self) {
        self.pos += self
            .rest()
            .iter()
            .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), Bad> {
        match b {
            _ if self.eat(b) => Ok(()),
            b'{' => self.bad("expected '{'"),
            b':' => self.bad("expected ':'"),
            _ => self.bad("expected '\"'"),
        }
    }

    fn end(&mut self) -> Result<(), Bad> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(_) => self.bad("trailing data"),
        }
    }

    /// One value at nesting `depth` (the number of enclosing arrays and
    /// objects). This and the scalar lexers below are forced inline: the
    /// flat-line loop of [`Line::parse`] is the trace reader's hot path,
    /// and the recursion through [`Lexer::nested`] otherwise keeps them
    /// out of it.
    #[inline(always)]
    fn value(&mut self, depth: usize) -> Result<Lexed<'a>, Bad> {
        let v = match self.peek() {
            Some(b'{' | b'[') => Lexed::Owned(self.nested(depth)?),
            _ => self.scalar()?,
        };
        self.skip_ws();
        Ok(v)
    }

    /// A string, number, boolean or `null`.
    #[inline(always)]
    fn scalar(&mut self) -> Result<Lexed<'a>, Bad> {
        Ok(match self.peek() {
            Some(b'"') => match self.string()? {
                Cow::Borrowed(s) => Lexed::Borrowed(View::Str(s)),
                Cow::Owned(s) => Lexed::Owned(JsonValue::Str(s)),
            },
            Some(b't') => self.keyword("true", View::Bool(true))?,
            Some(b'f') => self.keyword("false", View::Bool(false))?,
            Some(b'n') => self.keyword("null", View::Null)?,
            Some(b'-' | b'0'..=b'9') => Lexed::Borrowed(View::Num(self.number()?)),
            Some(_) => return self.bad("unexpected character"),
            None => return self.bad("unexpected end of input"),
        })
    }

    fn keyword(&mut self, word: &str, v: View<'a>) -> Result<Lexed<'a>, Bad> {
        if !self.rest().starts_with(word.as_bytes()) {
            return self.bad("bad keyword");
        }
        self.pos += word.len();
        Ok(Lexed::Borrowed(v))
    }

    /// A number's raw text, checked against JSON's grammar (leading zeros
    /// aside): `-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    #[inline(always)]
    fn number(&mut self) -> Result<&'a str, Bad> {
        let start = self.pos;
        self.eat(b'-');
        let mut ok = self.digits();
        if ok && self.eat(b'.') {
            ok = self.digits();
        }
        if ok && (self.eat(b'e') || self.eat(b'E')) {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            ok = self.digits();
        }
        if !ok {
            return self.bad("malformed number");
        }
        Ok(&self.text[start..self.pos])
    }

    /// Eat a run of digits; whether there was at least one.
    #[inline]
    fn digits(&mut self) -> bool {
        let n = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n > 0
    }

    /// A string, scanned once: borrowed when it holds no escape, decoded
    /// into an owned copy when it does. `"` and `\` are ASCII, so every
    /// slice taken between them falls on a character boundary.
    #[inline(always)]
    fn string(&mut self) -> Result<Cow<'a, str>, Bad> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let rest = self.rest();
            let Some(i) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return self.bad("unterminated string");
            };
            let run = &self.text[self.pos..self.pos + i];
            self.pos += i + 1;
            if rest[i] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            s.push(self.escape()?);
        }
    }

    /// The character an escape stands for; the backslash is already eaten.
    fn escape(&mut self) -> Result<char, Bad> {
        let Some(esc) = self.peek() else {
            return self.bad("unterminated string");
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self.text.get(self.pos..self.pos + 4);
                let Some(code) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
                    return self.bad("bad \\u escape");
                };
                self.pos += 4;
                // Surrogate pairs are not emitted by any writer in this
                // workspace; map them to U+FFFD.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return self.bad("bad escape"),
        })
    }

    /// `"key":` — an object member's key as written, up to the start of
    /// its value.
    #[inline(always)]
    fn key(&mut self) -> Result<&'a str, Bad> {
        let start = self.pos + 1;
        self.string()?;
        let key = &self.text[start..self.pos - 1];
        self.colon()?;
        Ok(key)
    }

    fn colon(&mut self) -> Result<(), Bad> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    /// The comma-separated members of an array or object whose opening
    /// bracket was just eaten, through the closing `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Bad>,
    ) -> Result<(), Bad> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            member(self)?;
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.bad("expected ',' or a closing bracket"),
            }
        }
    }

    /// An array or object, decoded.
    #[cold]
    #[inline(never)]
    fn nested(&mut self, depth: usize) -> Result<JsonValue, Bad> {
        if depth >= MAX_DEPTH {
            return self.bad("arrays and objects nested too deep");
        }
        let open = self.peek();
        self.pos += 1;
        if open == Some(b'{') {
            let mut fields = Vec::new();
            self.members(b'}', |lx| {
                let key = lx.string()?.into_owned();
                lx.colon()?;
                fields.push((key, lx.value(depth + 1)?.into_owned()));
                Ok(())
            })?;
            Ok(JsonValue::Obj(fields))
        } else {
            let mut items = Vec::new();
            self.members(b']', |lx| {
                items.push(lx.value(depth + 1)?.into_owned());
                Ok(())
            })?;
            Ok(JsonValue::Arr(items))
        }
    }
}

/// Render `s` as a quoted JSON string (escaping `"`, `\`, and control
/// characters).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// --- stable spellings ---------------------------------------------------

/// `"node:V"` / `"link:LO:DIM"` — the wire and checkpoint spelling of a
/// fault target.
pub fn target_to_str(t: FaultTarget) -> String {
    match t {
        FaultTarget::Node(v) => format!("node:{}", v.0),
        FaultTarget::Link(l) => format!("link:{}:{}", l.lo.0, l.dim),
    }
}

/// Inverse of [`target_to_str`].
pub fn target_from_str(s: &str) -> Result<FaultTarget, String> {
    let mut it = s.split(':');
    let bad = || format!("bad fault target {s:?} (expected node:V or link:LO:DIM)");
    match it.next() {
        Some("node") => {
            let v: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultTarget::Node(NodeId(v)))
        }
        Some("link") => {
            let lo: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            let dim: u32 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultTarget::link(NodeId(lo), dim))
        }
        _ => Err(bad()),
    }
}

/// `"permanent"` / `"transient:R"` / `"intermittent:D:P"` — the CLI's
/// `--fault-kind` spelling, reused on the wire and in checkpoints.
pub fn kind_to_str(k: FaultKind) -> String {
    match k {
        FaultKind::Permanent => "permanent".to_string(),
        FaultKind::Transient { repair_after } => format!("transient:{repair_after}"),
        FaultKind::Intermittent { down_for, period } => {
            format!("intermittent:{down_for}:{period}")
        }
    }
}

/// Inverse of [`kind_to_str`].
pub fn kind_from_str(s: &str) -> Result<FaultKind, String> {
    let bad =
        || format!("bad fault kind {s:?} (expected permanent, transient:R, or intermittent:D:P)");
    let mut it = s.split(':');
    match it.next() {
        Some("permanent") if it.next().is_none() => Ok(FaultKind::Permanent),
        Some("transient") => {
            let repair_after = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() {
                return Err(bad());
            }
            Ok(FaultKind::Transient { repair_after })
        }
        Some("intermittent") => {
            let down_for: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            let period: u64 = it.next().and_then(|x| x.parse().ok()).ok_or_else(bad)?;
            if it.next().is_some() || period <= down_for {
                return Err(bad());
            }
            Ok(FaultKind::Intermittent { down_for, period })
        }
        _ => Err(bad()),
    }
}

/// Stable lower-snake name of a traffic pattern.
pub fn pattern_to_str(p: TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::Uniform => "uniform",
        TrafficPattern::BitComplement => "bit_complement",
        TrafficPattern::BitReversal => "bit_reversal",
        TrafficPattern::Transpose => "transpose",
    }
}

/// Inverse of [`pattern_to_str`].
pub fn pattern_from_str(s: &str) -> Result<TrafficPattern, String> {
    match s {
        "uniform" => Ok(TrafficPattern::Uniform),
        "bit_complement" => Ok(TrafficPattern::BitComplement),
        "bit_reversal" => Ok(TrafficPattern::BitReversal),
        "transpose" => Ok(TrafficPattern::Transpose),
        other => Err(format!("unknown traffic pattern {other:?}")),
    }
}

/// Stable lower-snake name of a knowledge model.
pub fn knowledge_to_str(k: KnowledgeModel) -> &'static str {
    match k {
        KnowledgeModel::Oracle => "oracle",
        KnowledgeModel::PaperDelay => "paper_delay",
        KnowledgeModel::Measured => "measured",
    }
}

/// Inverse of [`knowledge_to_str`].
pub fn knowledge_from_str(s: &str) -> Result<KnowledgeModel, String> {
    match s {
        "oracle" => Ok(KnowledgeModel::Oracle),
        "paper_delay" => Ok(KnowledgeModel::PaperDelay),
        "measured" => Ok(KnowledgeModel::Measured),
        other => Err(format!("unknown knowledge model {other:?}")),
    }
}

// --- SimConfig codec ----------------------------------------------------

fn schedule_to_json(s: &FaultSchedule) -> String {
    match s {
        FaultSchedule::None => "{\"type\":\"none\"}".to_string(),
        FaultSchedule::Bernoulli {
            rate,
            kind,
            mix,
            node_fraction,
        } => format!(
            "{{\"type\":\"bernoulli\",\"rate\":{rate},\"kind\":{},\
             \"mix\":[{},{},{}],\"node_fraction\":{node_fraction}}}",
            quote(&kind_to_str(*kind)),
            mix.a,
            mix.b,
            mix.c,
        ),
        FaultSchedule::Scripted(events) => {
            let items: Vec<String> = events
                .iter()
                .map(|e| {
                    format!(
                        "{{\"cycle\":{},\"target\":{},\"kind\":{}}}",
                        e.cycle,
                        quote(&target_to_str(e.target)),
                        quote(&kind_to_str(e.kind)),
                    )
                })
                .collect();
            format!("{{\"type\":\"scripted\",\"events\":[{}]}}", items.join(","))
        }
    }
}

fn schedule_from_json(v: &JsonValue) -> Result<FaultSchedule, String> {
    let kind = |v: &JsonValue| -> Result<FaultKind, String> {
        v.opt("kind")?
            .map_or(Ok(FaultKind::Permanent), kind_from_str)
    };
    match v.req::<&str>("type")? {
        "none" => Ok(FaultSchedule::None),
        "bernoulli" => {
            let mix = match v.opt::<&[JsonValue]>("mix")? {
                Some([a, b, c]) => {
                    let w = |x: &JsonValue| x.as_f64().ok_or("mix entries must be numbers");
                    CategoryMix {
                        a: w(a)?,
                        b: w(b)?,
                        c: w(c)?,
                    }
                }
                Some(_) => return Err("mix must have exactly three weights".into()),
                None => CategoryMix::default(),
            };
            Ok(FaultSchedule::Bernoulli {
                rate: v.req("rate")?,
                kind: kind(v)?,
                mix,
                node_fraction: v.opt("node_fraction")?.unwrap_or(0.5),
            })
        }
        "scripted" => v
            .req::<&[JsonValue]>("events")?
            .iter()
            .map(|e| {
                Ok(TimedFault {
                    cycle: e.req("cycle")?,
                    target: target_from_str(e.req("target")?)?,
                    kind: kind(e)?,
                })
            })
            .collect::<Result<_, String>>()
            .map(FaultSchedule::Scripted),
        other => Err(format!("unknown schedule type {other:?}")),
    }
}

/// Render a full [`SimConfig`] as one JSON object (every field explicit,
/// so a config round-trips bit-exactly — `f64` fields use Rust's
/// shortest-round-trip formatting).
pub fn config_to_json(cfg: &SimConfig) -> String {
    let opt_u64 = |o: Option<u64>| o.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"n\":{},\"modulus\":{},\"inject_cycles\":{},\"drain_cycles\":{},\
         \"warmup_cycles\":{},\"rate\":{},\"seed\":{},\"faults\":{},\
         \"pattern\":{},\"buffer_capacity\":{},\"schedule\":{},\
         \"knowledge\":{},\"reroute_budget\":{},\"ttl\":{},\"window\":{},\
         \"telemetry_interval\":{},\"collective\":{},\"collective_interval\":{}}}",
        cfg.n,
        cfg.modulus,
        cfg.inject_cycles,
        cfg.drain_cycles,
        cfg.warmup_cycles,
        cfg.injection_rate,
        cfg.seed,
        cfg.faulty_nodes,
        quote(pattern_to_str(cfg.pattern)),
        opt_u64(cfg.buffer_capacity.map(|c| c as u64)),
        schedule_to_json(&cfg.schedule),
        quote(knowledge_to_str(cfg.knowledge)),
        cfg.reroute_budget,
        opt_u64(cfg.ttl),
        cfg.window,
        cfg.telemetry_interval,
        cfg.collective
            .map_or("null".to_string(), |op| quote(op.as_str())),
        cfg.collective_interval,
    )
}

/// Parse a [`SimConfig`] from a JSON object. `n` and `modulus` are
/// required; every other field defaults as [`SimConfig::new`] does, so a
/// client only sends what it overrides.
pub fn config_from_json(v: &JsonValue) -> Result<SimConfig, String> {
    fn set<'v, T: FromView<'v>>(v: &'v JsonValue, key: &str, slot: &mut T) -> Result<(), String> {
        if let Some(x) = v.opt(key)? {
            *slot = x;
        }
        Ok(())
    }
    let mut cfg = SimConfig::new(v.req("n")?, v.req("modulus")?);
    set(v, "inject_cycles", &mut cfg.inject_cycles)?;
    set(v, "drain_cycles", &mut cfg.drain_cycles)?;
    set(v, "warmup_cycles", &mut cfg.warmup_cycles)?;
    set(v, "rate", &mut cfg.injection_rate)?;
    set(v, "seed", &mut cfg.seed)?;
    set(v, "reroute_budget", &mut cfg.reroute_budget)?;
    set(v, "window", &mut cfg.window)?;
    set(v, "telemetry_interval", &mut cfg.telemetry_interval)?;
    set(v, "collective_interval", &mut cfg.collective_interval)?;
    cfg.window = cfg.window.max(1);
    cfg.telemetry_interval = cfg.telemetry_interval.max(1);
    cfg.collective_interval = cfg.collective_interval.max(1);
    if let Some(x) = v.opt::<u64>("faults")? {
        cfg.faulty_nodes = x as usize;
    }
    if let Some(p) = v.opt("pattern")? {
        cfg.pattern = pattern_from_str(p)?;
    }
    cfg.buffer_capacity = v.opt::<u64>("buffer_capacity")?.map(|c| c as usize);
    if let Some(s) = v.opt("schedule")? {
        cfg.schedule = schedule_from_json(s)?;
    }
    if let Some(k) = v.opt("knowledge")? {
        cfg.knowledge = knowledge_from_str(k)?;
    }
    cfg.ttl = v.opt("ttl")?;
    cfg.collective = v
        .opt("collective")?
        .map(|s| CollectiveOp::from_str(s).ok_or_else(|| format!("unknown collective op {s:?}")))
        .transpose()?;
    Ok(cfg)
}

// --- requests -----------------------------------------------------------

/// One parsed daemon request — the typed form of a wire line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new session and build its engine at cycle 0.
    Open {
        /// Caller-chosen session id (any non-empty string).
        session: String,
        /// Full run configuration.
        config: SimConfig,
        /// Strategy wire name (`auto` resolves against the config).
        strategy: String,
        /// Spanning trees per bundle (multitree only).
        trees: usize,
    },
    /// Advance a session by `cycles` cycles (or to completion, if it
    /// finishes earlier).
    Step {
        /// Target session.
        session: String,
        /// Cycles to execute (default 1).
        cycles: u64,
        /// Step a suspended (bound-exceeded) session anyway.
        force: bool,
    },
    /// Run a session to completion.
    Run {
        /// Target session.
        session: String,
        /// Run a suspended (bound-exceeded) session anyway.
        force: bool,
    },
    /// Serialize a session's engine state to a checkpoint file.
    Snapshot {
        /// Target session.
        session: String,
        /// Checkpoint file path (created/truncated).
        path: String,
    },
    /// Rebuild a session from a checkpoint file. Restoring onto an
    /// existing session rewinds it (its recorded trace is truncated to
    /// the checkpoint's mark); restoring onto a new id starts the record
    /// at the checkpoint.
    Restore {
        /// Session to create or rewind.
        session: String,
        /// Checkpoint file path.
        path: String,
    },
    /// Stream a session's telemetry samples collected so far.
    Telemetry {
        /// Target session.
        session: String,
    },
    /// Finish a session: optionally write its trace / telemetry
    /// artifacts (CLI-identical JSONL), report final metrics, free it.
    Close {
        /// Target session.
        session: String,
        /// Trace artifact path (JSONL, meta-stamped) — omitted: not written.
        trace: Option<String>,
        /// Telemetry artifact path (JSONL, meta-stamped) — omitted: not
        /// written.
        telemetry: Option<String>,
    },
    /// Stop the daemon (open sessions are discarded).
    Shutdown,
}

impl Request {
    /// Parse one wire line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Line::parse(line)?;
        let op: &str = v.req("op")?;
        let session = || -> Result<String, String> {
            match v.req::<&str>("session")? {
                "" => Err("\"session\" must be non-empty".into()),
                s => Ok(s.to_string()),
            }
        };
        let text = |key: &str| v.opt::<&str>(key).map(|s| s.map(str::to_string));
        let path = || text("path")?.ok_or_else(|| format!("{op:?} request needs a \"path\""));
        let force = v.opt("force")?.unwrap_or(false);
        match op {
            "open" => Ok(Request::Open {
                session: session()?,
                config: config_from_json(v.req("config")?)?,
                strategy: text("strategy")?.unwrap_or_else(|| "auto".to_string()),
                trees: v.opt::<u64>("trees")?.unwrap_or(2) as usize,
            }),
            "step" => Ok(Request::Step {
                session: session()?,
                cycles: v.opt("cycles")?.unwrap_or(1),
                force,
            }),
            "run" => Ok(Request::Run {
                session: session()?,
                force,
            }),
            "snapshot" => Ok(Request::Snapshot {
                session: session()?,
                path: path()?,
            }),
            "restore" => Ok(Request::Restore {
                session: session()?,
                path: path()?,
            }),
            "telemetry" => Ok(Request::Telemetry {
                session: session()?,
            }),
            "close" => Ok(Request::Close {
                session: session()?,
                trace: text("trace")?,
                telemetry: text("telemetry")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcube_topology::LinkId;

    #[test]
    fn json_parses_nested_values() {
        let v = parse_json(r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y"},"d":-3}"#).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-3.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert!(arr[2].is_null());
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn json_u64_fidelity() {
        let v = parse_json(&format!("{{\"seed\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn json_rejects_junk() {
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("nul").is_err());
        assert!(parse_json("\"open").is_err());
    }

    #[test]
    fn quote_escapes() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let v = parse_json(&quote("a\"b\\c\nd\t\u{1}")).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\t\u{1}"));
    }

    #[test]
    fn spellings_round_trip() {
        for t in [
            FaultTarget::Node(NodeId(42)),
            FaultTarget::Link(LinkId::new(NodeId(6), 3)),
        ] {
            assert_eq!(target_from_str(&target_to_str(t)).unwrap(), t);
        }
        for k in [
            FaultKind::Permanent,
            FaultKind::Transient { repair_after: 9 },
            FaultKind::Intermittent {
                down_for: 3,
                period: 10,
            },
        ] {
            assert_eq!(kind_from_str(&kind_to_str(k)).unwrap(), k);
        }
        assert!(kind_from_str("intermittent:10:3").is_err(), "period > down");
        for p in [
            TrafficPattern::Uniform,
            TrafficPattern::BitComplement,
            TrafficPattern::BitReversal,
            TrafficPattern::Transpose,
        ] {
            assert_eq!(pattern_from_str(pattern_to_str(p)).unwrap(), p);
        }
        for m in [
            KnowledgeModel::Oracle,
            KnowledgeModel::PaperDelay,
            KnowledgeModel::Measured,
        ] {
            assert_eq!(knowledge_from_str(knowledge_to_str(m)).unwrap(), m);
        }
    }

    #[test]
    fn config_round_trips_all_schedules() {
        let base = SimConfig::new(8, 2)
            .with_rate(0.0125)
            .with_cycles(300, 6_000, 30)
            .with_seed(u64::MAX - 7)
            .with_faults(2)
            .with_pattern(TrafficPattern::Transpose)
            .with_knowledge(KnowledgeModel::PaperDelay)
            .with_reroute_budget(5)
            .with_ttl(77)
            .with_window(50)
            .with_telemetry_interval(25)
            .with_collective(CollectiveOp::Gather)
            .with_collective_interval(40);
        for schedule in [
            FaultSchedule::None,
            FaultSchedule::Bernoulli {
                rate: 0.001,
                kind: FaultKind::Transient { repair_after: 60 },
                mix: CategoryMix {
                    a: 1.0,
                    b: 0.5,
                    c: 0.25,
                },
                node_fraction: 0.75,
            },
            FaultSchedule::Scripted(vec![
                TimedFault {
                    cycle: 100,
                    target: FaultTarget::Node(NodeId(9)),
                    kind: FaultKind::Permanent,
                },
                TimedFault {
                    cycle: 150,
                    target: FaultTarget::Link(LinkId::new(NodeId(4), 2)),
                    kind: FaultKind::Intermittent {
                        down_for: 5,
                        period: 20,
                    },
                },
            ]),
        ] {
            let cfg = base.clone().with_schedule(schedule);
            let text = config_to_json(&cfg);
            let back = config_from_json(&parse_json(&text).unwrap()).unwrap();
            assert_eq!(back, cfg, "codec must round-trip: {text}");
        }
    }

    #[test]
    fn config_defaults_partial_input() {
        let v = parse_json(r#"{"n":6,"modulus":2,"rate":0.05}"#).unwrap();
        let cfg = config_from_json(&v).unwrap();
        let expected = SimConfig::new(6, 2).with_rate(0.05);
        assert_eq!(cfg, expected);
        assert!(config_from_json(&parse_json(r#"{"n":6}"#).unwrap()).is_err());
    }

    #[test]
    fn requests_parse() {
        let r = Request::parse(
            r#"{"op":"open","session":"s1","strategy":"multitree","trees":3,"config":{"n":6,"modulus":2}}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Open {
                session: "s1".into(),
                config: SimConfig::new(6, 2),
                strategy: "multitree".into(),
                trees: 3,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"step","session":"s1"}"#).unwrap(),
            Request::Step {
                session: "s1".into(),
                cycles: 1,
                force: false,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"run","session":"s1","force":true}"#).unwrap(),
            Request::Run {
                session: "s1".into(),
                force: true,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"close","session":"s1","trace":"/tmp/t.jsonl"}"#).unwrap(),
            Request::Close {
                session: "s1".into(),
                trace: Some("/tmp/t.jsonl".into()),
                telemetry: None,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert!(Request::parse(r#"{"op":"warp"}"#).is_err());
        assert!(
            Request::parse(r#"{"op":"step"}"#).is_err(),
            "missing session"
        );
        assert!(
            Request::parse(r#"{"op":"open","session":"","config":{"n":6,"modulus":2}}"#).is_err()
        );
    }

    /// Nesting past `MAX_DEPTH` is a parse error on a thread with a
    /// daemon connection's 2 MiB stack, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let rejected = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let line = format!(r#"{{"op":"step","session":{deep}}}"#);
                parse_json(&deep).is_err() && Request::parse(&line).is_err()
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(rejected);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse_json(&over).is_err());
    }

    /// Strings are scanned once: a 4 MiB session id parses in linear time.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let session = "s".repeat(4 << 20);
        let line = format!(r#"{{"op":"step","session":"{session}"}}"#);
        let t = std::time::Instant::now();
        let r = Request::parse(&line).unwrap();
        assert!(
            t.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            t.elapsed()
        );
        assert_eq!(
            r,
            Request::Step {
                session,
                cycles: 1,
                force: false,
            }
        );
    }

    /// Escapes decode in both entry points; a mistyped field is an error
    /// that names it, and an extra field is refused.
    #[test]
    fn line_reader_borrows_and_checks_fields() {
        let text = r#"{"a":1,"b":"x\"y","c":[1,{"d":null}],"e":true}"#;
        let line = Line::parse(text).unwrap();
        assert_eq!(line.req::<u64>("a"), Ok(1));
        assert_eq!(line.req::<&str>("b"), Ok("x\"y"));
        assert_eq!(line.req::<&[JsonValue]>("c").map(<[_]>::len), Ok(2));
        assert_eq!(line.req::<bool>("e"), Ok(true));
        assert_eq!(line.opt::<u64>("z"), Ok(None));
        let err = line.req::<u64>("b").unwrap_err();
        assert!(err.contains("\"b\""), "{err}");
        assert!(line.expect_len(4).is_ok());
        assert!(line.expect_len(3).is_err(), "an unread field is refused");
        assert_eq!(
            parse_json(text)
                .unwrap()
                .get("b")
                .and_then(JsonValue::as_str),
            Some("x\"y")
        );
        for junk in [
            "",
            "[]",
            "{\"a\":1",
            "{\"a\":01.}",
            "{\"a\":\"\\u12\"}",
            "{a:1}",
        ] {
            assert!(Line::parse(junk).is_err(), "{junk:?}");
        }
    }
}
