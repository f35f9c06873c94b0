//! Error types for the LCRB problem layer.

use core::fmt;

use lcrb_community::PartitionSizeError;
use lcrb_diffusion::{SeedError, StopReason};
use lcrb_graph::NodeId;

/// Errors produced when constructing or solving an LCRB instance.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LcrbError {
    /// The community partition does not cover the graph's node set.
    PartitionMismatch(PartitionSizeError),
    /// The designated rumor community id does not exist.
    UnknownCommunity {
        /// The requested community id.
        community: usize,
        /// How many communities the partition has.
        community_count: usize,
    },
    /// A rumor seed lies outside the designated rumor community
    /// (Definition 2 requires `S_R ⊆ V(C_k)`).
    SeedOutsideCommunity {
        /// The offending seed.
        node: NodeId,
        /// The community the seed actually belongs to.
        actual_community: usize,
        /// The designated rumor community.
        rumor_community: usize,
    },
    /// No rumor seeds were supplied; the problem is vacuous.
    NoRumorSeeds,
    /// Seed validation failed at the diffusion layer.
    Seeds(SeedError),
    /// The protection level `α` is outside the LCRB-P range
    /// `0 < α <= 1`.
    InvalidAlpha {
        /// The rejected value.
        alpha: f64,
    },
    /// The greedy configuration requested zero Monte-Carlo
    /// realizations.
    NoRealizations,
    /// The sketch estimator's accuracy parameters are out of range.
    InvalidSketchParams {
        /// What was wrong with the parameters.
        reason: &'static str,
    },
    /// The sketch estimator only supports the OPOAO objective model
    /// (RR sketches invert the OPOAO timestamp rule over realizations
    /// that fix one out-neighbour choice per (node, hop)).
    SketchModelUnsupported,
    /// A [`crate::engine::SolveRequest`] combined options that no
    /// algorithm implements (e.g. an α stopping rule on a pure-budget
    /// baseline).
    UnsupportedRequest {
        /// Which combination is unsupported.
        reason: &'static str,
    },
    /// The solve was stopped at a checkpoint — by a
    /// [`lcrb_diffusion::CancelToken`], a deadline, or a work-unit
    /// budget — before any usable partial result existed. (When a
    /// prefix *is* salvageable the engine returns a degraded
    /// [`crate::engine::SolveReport`] instead; see
    /// [`crate::engine::Completion`].)
    Interrupted {
        /// What stopped the solve.
        reason: StopReason,
    },
}

impl fmt::Display for LcrbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LcrbError::PartitionMismatch(e) => write!(f, "{e}"),
            LcrbError::UnknownCommunity {
                community,
                community_count,
            } => write!(
                f,
                "community {community} does not exist (partition has {community_count} communities)"
            ),
            LcrbError::SeedOutsideCommunity {
                node,
                actual_community,
                rumor_community,
            } => write!(
                f,
                "rumor seed {node} is in community {actual_community}, not the rumor community {rumor_community}"
            ),
            LcrbError::NoRumorSeeds => f.write_str("at least one rumor seed is required"),
            LcrbError::Seeds(e) => write!(f, "{e}"),
            LcrbError::InvalidAlpha { alpha } => {
                write!(f, "protection level alpha {alpha} is not in (0, 1]")
            }
            LcrbError::NoRealizations => {
                f.write_str("the greedy objective needs at least one realization")
            }
            LcrbError::InvalidSketchParams { reason } => {
                write!(f, "invalid sketch estimator parameters: {reason}")
            }
            LcrbError::SketchModelUnsupported => {
                f.write_str("the sketch estimator supports only the OPOAO objective model")
            }
            LcrbError::UnsupportedRequest { reason } => {
                write!(f, "unsupported solve request: {reason}")
            }
            LcrbError::Interrupted { reason } => {
                write!(f, "solve interrupted: {reason}")
            }
        }
    }
}

impl std::error::Error for LcrbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LcrbError::PartitionMismatch(e) => Some(e),
            LcrbError::Seeds(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionSizeError> for LcrbError {
    fn from(e: PartitionSizeError) -> Self {
        LcrbError::PartitionMismatch(e)
    }
}

impl From<SeedError> for LcrbError {
    fn from(e: SeedError) -> Self {
        LcrbError::Seeds(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LcrbError::UnknownCommunity {
            community: 7,
            community_count: 3,
        };
        assert!(e.to_string().contains("community 7"));
        let e = LcrbError::InvalidAlpha { alpha: 1.5 };
        assert!(e.to_string().contains("1.5"));
        assert!(LcrbError::NoRumorSeeds.to_string().contains("rumor seed"));
        let e = LcrbError::UnsupportedRequest {
            reason: "alpha stop on a heuristic",
        };
        assert!(e.to_string().contains("alpha stop on a heuristic"));
        let e = LcrbError::Interrupted {
            reason: StopReason::Cancelled,
        };
        assert_eq!(e.to_string(), "solve interrupted: cancelled");
    }

    #[test]
    fn source_chains() {
        let e = LcrbError::from(PartitionSizeError {
            labels: 2,
            nodes: 3,
        });
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&LcrbError::NoRumorSeeds).is_none());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LcrbError>();
    }
}
