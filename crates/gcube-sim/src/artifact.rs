//! Artifact schema stamping: a `meta` header line for the JSONL
//! artifacts (trace, telemetry, profile).
//!
//! Recorded artifacts outlive the run that produced them — they get
//! diffed across machines in CI and fed back into `gcube-cli analyze`.
//! A bare event stream carries no provenance, so two files from
//! different cubes or seeds diff "cleanly" into nonsense. Writers
//! therefore stamp the first line of every artifact with an
//! [`ArtifactMeta`]: artifact kind, format version, cube shape, seed,
//! thread count, and strategy name. Readers validate the header and
//! refuse mismatched artifacts; a file *without* a header is treated as
//! format v0 (pre-stamping, PR 3/4 era) for back-compat.
//!
//! The header is one flat JSON object, read through the shared lexer
//! ([`crate::proto::Line`]); every field is required and no other is
//! allowed.

use std::fmt;

use crate::proto::{Fields, Line};

/// Current artifact format version written by this build.
pub const ARTIFACT_FORMAT: u64 = 1;

/// Which artifact stream a file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Per-packet flight-recorder events ([`crate::trace`]).
    Trace,
    /// Per-window telemetry series ([`crate::telemetry`]).
    Telemetry,
    /// Profiler samples ([`crate::profiler`]).
    Profile,
    /// Mid-run engine checkpoint ([`crate::checkpoint`]).
    Checkpoint,
}

impl ArtifactKind {
    /// Stable lower-case name used in the header line.
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Telemetry => "telemetry",
            ArtifactKind::Profile => "profile",
            ArtifactKind::Checkpoint => "checkpoint",
        }
    }

    /// Inverse of [`as_str`](ArtifactKind::as_str). (Not the `FromStr`
    /// trait: absence of a kind is ordinary data here, not an error.)
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        match s {
            "trace" => Some(ArtifactKind::Trace),
            "telemetry" => Some(ArtifactKind::Telemetry),
            "profile" => Some(ArtifactKind::Profile),
            "checkpoint" => Some(ArtifactKind::Checkpoint),
            _ => None,
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Provenance header for a recorded artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Which stream the file carries.
    pub kind: ArtifactKind,
    /// Schema format version ([`ARTIFACT_FORMAT`] for new files).
    pub format: u64,
    /// Cube dimension count `n`.
    pub n: u64,
    /// Cube modulus (`2^k`).
    pub modulus: u64,
    /// Traffic/fault RNG seed.
    pub seed: u64,
    /// Worker threads the run used (1 = the one-shard schedule).
    pub threads: u64,
    /// Routing strategy name as the CLI spells it.
    pub strategy: String,
}

impl ArtifactMeta {
    /// Render the header as one JSONL line (no trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        format!(
            "{{\"meta\":\"{}\",\"format\":{},\"n\":{},\"modulus\":{},\"seed\":{},\
             \"threads\":{},\"strategy\":\"{}\"}}",
            self.kind.as_str(),
            self.format,
            self.n,
            self.modulus,
            self.seed,
            self.threads,
            self.strategy,
        )
    }

    /// Whether `line` looks like a meta header (cheap check; parsing
    /// may still fail).
    pub fn is_meta_line(line: &str) -> bool {
        line.trim_start().starts_with("{\"meta\":")
    }

    /// Parse a header line. Returns `None` when `line` is not a meta
    /// line at all (v0 artifact), `Some(Err)` when it is one but is
    /// malformed or from an unsupported future format.
    pub fn parse(line: &str) -> Option<Result<ArtifactMeta, String>> {
        let line = line.trim();
        Self::is_meta_line(line).then(|| Self::parse_strict(line))
    }

    fn parse_strict(line: &str) -> Result<ArtifactMeta, String> {
        let f = Line::parse(line)?;
        let kind = f.req("meta")?;
        let meta = ArtifactMeta {
            kind: ArtifactKind::parse(kind)
                .ok_or_else(|| format!("unknown artifact kind {kind:?}"))?,
            format: f.req("format")?,
            n: f.req("n")?,
            modulus: f.req("modulus")?,
            seed: f.req("seed")?,
            threads: f.req("threads")?,
            strategy: f.req::<&str>("strategy")?.to_string(),
        };
        f.expect_len(7)?;
        if meta.format > ARTIFACT_FORMAT {
            return Err(format!(
                "artifact format {} is newer than supported format {ARTIFACT_FORMAT}",
                meta.format
            ));
        }
        Ok(meta)
    }

    /// Check that `other` describes the same run shape: same kind,
    /// cube, seed, and strategy. Thread count is deliberately *not*
    /// compared — the deterministic streams are thread-invariant, and
    /// cross-thread diffing is precisely what the A/B gate does.
    pub fn check_compatible(&self, other: &ArtifactMeta) -> Result<(), String> {
        if self.kind != other.kind {
            return Err(format!(
                "artifact kind mismatch: {} vs {}",
                self.kind, other.kind
            ));
        }
        if (self.n, self.modulus) != (other.n, other.modulus) {
            return Err(format!(
                "cube mismatch: GC({}, {}) vs GC({}, {})",
                self.n, self.modulus, other.n, other.modulus
            ));
        }
        if self.seed != other.seed {
            return Err(format!("seed mismatch: {} vs {}", self.seed, other.seed));
        }
        if self.strategy != other.strategy {
            return Err(format!(
                "strategy mismatch: {} vs {}",
                self.strategy, other.strategy
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ArtifactMeta {
        ArtifactMeta {
            kind: ArtifactKind::Trace,
            format: ARTIFACT_FORMAT,
            n: 6,
            modulus: 2,
            seed: 42,
            threads: 4,
            strategy: "ftgcr".to_string(),
        }
    }

    #[test]
    fn header_round_trips() {
        let m = meta();
        let line = m.to_jsonl_line();
        assert!(ArtifactMeta::is_meta_line(&line));
        assert_eq!(ArtifactMeta::parse(&line).unwrap().unwrap(), m);
    }

    #[test]
    fn event_lines_are_not_meta() {
        assert!(ArtifactMeta::parse("{\"cycle\":0,\"packet\":1}").is_none());
        assert!(ArtifactMeta::parse("").is_none());
    }

    #[test]
    fn malformed_and_future_headers_are_rejected() {
        assert!(ArtifactMeta::parse("{\"meta\":\"trace\"}")
            .unwrap()
            .is_err());
        assert!(ArtifactMeta::parse("{\"meta\":\"warp\",\"format\":1}")
            .unwrap()
            .is_err());
        let mut m = meta();
        m.format = ARTIFACT_FORMAT + 1;
        let err = ArtifactMeta::parse(&m.to_jsonl_line())
            .unwrap()
            .unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn compatibility_ignores_threads_but_not_shape() {
        let a = meta();
        let mut b = meta();
        b.threads = 1;
        assert!(a.check_compatible(&b).is_ok(), "threads must not matter");
        b.seed = 43;
        assert!(a.check_compatible(&b).is_err());
        let mut c = meta();
        c.n = 8;
        assert!(a.check_compatible(&c).is_err());
        let mut d = meta();
        d.kind = ArtifactKind::Telemetry;
        assert!(a.check_compatible(&d).is_err());
        let mut e = meta();
        e.strategy = "ffgcr".to_string();
        assert!(a.check_compatible(&e).is_err());
    }
}
