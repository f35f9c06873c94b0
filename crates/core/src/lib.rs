//! # lcrb
//!
//! A from-scratch Rust implementation of *Least Cost Rumor Blocking
//! in Social Networks* (Fan, Lu, Wu, Thuraisingham, Ma, Bi — ICDCS
//! 2013).
//!
//! The paper asks: given a social network with community structure
//! and a set of rumor originators inside one community, what is the
//! cheapest set of *protector* originators that keeps the rumor from
//! escaping? Its key observation is that only the **bridge ends** —
//! boundary nodes of the neighboring communities — need protecting.
//! Two variants are studied:
//!
//! - **LCRB-P** (under the stochastic OPOAO model): protect an `α`
//!   fraction of bridge ends in expectation. The objective is
//!   monotone submodular (Theorem 1), so the greedy — the paper's
//!   Algorithm 1, here with CELF lazy evaluation
//!   ([`SolveRequest::greedy_alpha`]) — is a
//!   `(1 − 1/e)`-approximation.
//! - **LCRB-D** (under the deterministic DOAM model): protect *all*
//!   bridge ends. This is equivalent to Set Cover (Theorems 2–3), so
//!   the Set Cover Based Greedy (Algorithm 3, [`SolveRequest::scbg`])
//!   achieves the optimal `O(ln |B|)` factor.
//!
//! [`Solver::solve`] is the one entry point that selects protectors:
//! it answers both algorithms and the paper's comparison heuristics
//! (MaxDegree, Proximity, Random, NoBlocking, plus PageRank; see
//! [`Algorithm`]). The evaluation harness behind the figures is
//! [`evaluate::evaluate_protector_sets`] over
//! [`Solver::solve_many`]'s selections. The kernels the solver drives
//! ([`greedy_with_budget`], [`scbg`]) stay public for direct
//! measurement of one layer.
//!
//! ## Quickstart
//!
//! ```
//! use lcrb::{RumorBlockingInstance, SolveDetail, SolveRequest, Solver};
//! use lcrb_community::{louvain, LouvainConfig};
//! use lcrb_graph::generators::planted_partition;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small community-structured network...
//! let mut rng = SmallRng::seed_from_u64(1);
//! let (graph, _) = planted_partition(&[30, 30, 30], 0.3, 0.02, false, &mut rng)?;
//! // ...its detected communities...
//! let partition = louvain(&graph, &LouvainConfig::default()).partition;
//! // ...a rumor starting in community 0...
//! let instance = RumorBlockingInstance::with_random_seeds(graph, partition, 0, 3, &mut rng)?;
//! // ...and the least-cost protector set that blocks every escape.
//! let report = Solver::new(instance).solve(&SolveRequest::scbg())?;
//! let SolveDetail::Scbg(solution) = &report.detail else {
//!     unreachable!("an SCBG request carries an SCBG detail");
//! };
//! assert!(solution.is_complete());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bridge;
pub mod engine;
mod error;
pub mod evaluate;
mod greedy;
mod heuristics;
mod instance;
mod objective;
mod scbg;
pub mod setcover;
mod sketch_objective;
pub mod source;

pub use bridge::{find_bridge_ends, BridgeEndRule, BridgeEnds};
pub use engine::{
    Algorithm, CacheCounters, CacheStats, Completion, SolveDetail, SolveReport, SolveRequest,
    Solver, SolverConfig, StageTiming, StopRule,
};
// The budget/cancellation vocabulary rides on every `SolveRequest`,
// so re-export it from the problem layer too.
pub use error::LcrbError;
pub use greedy::{greedy_with_budget, CandidatePool, Estimator, GreedyConfig, GreedySelection};
pub use heuristics::{max_degree_ordering, protectors_to_cover_all, proximity_pool};
pub use instance::RumorBlockingInstance;
pub use lcrb_diffusion::{CancelToken, RunBudget, StopReason};
pub use objective::{ObjectiveModel, ProtectionObjective};
pub use scbg::{scbg, ScbgConfig, ScbgSolution};
pub use sketch_objective::{CoverageScratch, SketchIndex, SketchObjective, SketchParams};
