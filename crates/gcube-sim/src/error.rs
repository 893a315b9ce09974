//! The simulator's unified error type.
//!
//! Every validation path — [`SimConfig::validate`], [`Simulator::try_new`],
//! the session builder, and the CLI's argument parser — reports through
//! [`SimError`], so callers match on variants instead of substring-checking
//! messages. Invalid parameters fail loudly instead of being silently
//! clamped (a typo'd `--rate 1.2` used to run as `1.0`).
//!
//! Since the daemon protocol ([`crate::proto`]) made these errors part of
//! the wire surface, every variant also carries a stable machine-readable
//! [`SimError::code`] shared by server responses and CLI diagnostics, and
//! the enum is `#[non_exhaustive]` so new refusal kinds can be added
//! without breaking downstream matches.
//!
//! [`SimConfig::validate`]: crate::SimConfig::validate
//! [`Simulator::try_new`]: crate::Simulator::try_new

use std::fmt;

use crate::injection::FaultTarget;

/// Why a simulation cannot be configured or started.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The injection rate is not a probability in `[0, 1]`.
    InvalidRate(f64),
    /// A Bernoulli churn rate is not a probability in `[0, 1]`.
    InvalidChurnRate(f64),
    /// The `(n, M)` pair does not describe a valid Gaussian Cube. The
    /// rejected parameters ride along so a server response can say which
    /// field was wrong without parsing the reason text.
    InvalidTopology {
        /// The dimension count that was requested.
        n: u32,
        /// The modulus that was requested.
        modulus: u64,
        /// Human-readable reason from the topology layer.
        reason: String,
    },
    /// Finite per-node buffers (backpressure) are only defined for the
    /// one-shard schedule: cross-shard capacity checks would need mid-cycle
    /// coordination, so `--threads` above 1 rejects them.
    FiniteBuffersRequireSingleThread,
    /// The collective traffic class injects a whole broadcast wave in one
    /// cycle, which finite buffers would immediately deadlock; the two
    /// options cannot be combined.
    CollectiveNeedsUnboundedBuffers,
    /// A fault target names a node or link the cube does not have (see
    /// [`FaultTarget::check`]).
    InvalidFaultTarget {
        /// The target as scripted.
        target: FaultTarget,
        /// The cube's dimension count.
        n: u32,
    },
    /// A command-line argument failed to parse or combine.
    Cli(String),
}

impl SimError {
    /// Stable machine-readable code for this error kind — the shared
    /// vocabulary of daemon responses and CLI exit diagnostics. Codes are
    /// lower_snake, never reused, and survive message-text rewording.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::InvalidRate(_) => "invalid_rate",
            SimError::InvalidChurnRate(_) => "invalid_churn_rate",
            SimError::InvalidTopology { .. } => "invalid_topology",
            SimError::FiniteBuffersRequireSingleThread => "finite_buffers_single_thread",
            SimError::CollectiveNeedsUnboundedBuffers => "collective_needs_unbounded_buffers",
            SimError::InvalidFaultTarget { .. } => "invalid_fault_target",
            SimError::Cli(_) => "cli",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidRate(v) => {
                write!(f, "injection rate must be a probability in [0, 1], got {v}")
            }
            SimError::InvalidChurnRate(v) => {
                write!(f, "churn rate must be a probability in [0, 1], got {v}")
            }
            SimError::InvalidTopology { n, modulus, reason } => {
                write!(f, "invalid Gaussian Cube GC({n}, {modulus}): {reason}")
            }
            SimError::FiniteBuffersRequireSingleThread => write!(
                f,
                "finite buffer capacity (backpressure) requires a single-threaded run"
            ),
            SimError::CollectiveNeedsUnboundedBuffers => write!(
                f,
                "collective traffic requires unbounded buffers (drop --buffer-capacity)"
            ),
            SimError::InvalidFaultTarget { target, n } => match target {
                FaultTarget::Node(v) => write!(
                    f,
                    "fault target node {0} lies outside the cube: node {0} is not below 2^{n}",
                    v.0
                ),
                FaultTarget::Link(l) if l.dim >= *n => write!(
                    f,
                    "fault target link {}:{1} lies outside the cube: dimension {1} is not \
                     below n = {n}",
                    l.lo.0, l.dim
                ),
                FaultTarget::Link(l) if l.lo.0.checked_shr(*n).unwrap_or(0) != 0 => write!(
                    f,
                    "fault target link {0}:{1} lies outside the cube: node {0} is not below 2^{n}",
                    l.lo.0, l.dim
                ),
                FaultTarget::Link(l) => write!(
                    f,
                    "fault target link {0}:{1} is not a link of the cube: node {0} has no \
                     dimension-{1} link",
                    l.lo.0, l.dim
                ),
            },
            SimError::Cli(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_user_facing() {
        assert_eq!(
            SimError::InvalidRate(1.2).to_string(),
            "injection rate must be a probability in [0, 1], got 1.2"
        );
        assert_eq!(
            SimError::InvalidChurnRate(-0.5).to_string(),
            "churn rate must be a probability in [0, 1], got -0.5"
        );
        assert_eq!(
            SimError::InvalidTopology {
                n: 6,
                modulus: 3,
                reason: "modulus must be a power of two".into()
            }
            .to_string(),
            "invalid Gaussian Cube GC(6, 3): modulus must be a power of two"
        );
        assert!(SimError::FiniteBuffersRequireSingleThread
            .to_string()
            .contains("single-threaded"));
        assert!(SimError::CollectiveNeedsUnboundedBuffers
            .to_string()
            .contains("unbounded buffers"));
        assert_eq!(
            SimError::InvalidFaultTarget {
                target: FaultTarget::link(gcube_topology::NodeId(0), 70),
                n: 6
            }
            .to_string(),
            "fault target link 0:70 lies outside the cube: dimension 70 is not below n = 6"
        );
        assert_eq!(
            SimError::Cli("unknown flag".into()).to_string(),
            "unknown flag"
        );
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            SimError::InvalidRate(2.0),
            SimError::InvalidChurnRate(2.0),
            SimError::InvalidTopology {
                n: 0,
                modulus: 0,
                reason: String::new(),
            },
            SimError::FiniteBuffersRequireSingleThread,
            SimError::CollectiveNeedsUnboundedBuffers,
            SimError::InvalidFaultTarget {
                target: FaultTarget::Node(gcube_topology::NodeId(64)),
                n: 6,
            },
            SimError::Cli(String::new()),
        ];
        let codes: Vec<&str> = all.iter().map(|e| e.code()).collect();
        assert_eq!(
            codes,
            vec![
                "invalid_rate",
                "invalid_churn_rate",
                "invalid_topology",
                "finite_buffers_single_thread",
                "collective_needs_unbounded_buffers",
                "invalid_fault_target",
                "cli",
            ]
        );
        let unique: std::collections::HashSet<&str> = codes.iter().copied().collect();
        assert_eq!(unique.len(), codes.len(), "codes must be distinct");
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&SimError::InvalidRate(2.0));
    }
}
