//! # lcrb-diffusion
//!
//! Two-cascade diffusion engine for the reproduction of *Least Cost
//! Rumor Blocking in Social Networks* (Fan et al., ICDCS 2013).
//!
//! The paper studies a rumor cascade R and a protector cascade P
//! spreading simultaneously on a directed social graph, under two
//! models (§III) sharing three properties: both cascades start at
//! step 0, P wins simultaneous arrivals, and activation is
//! progressive. This crate implements, from scratch:
//!
//! - [`OpoaoModel`]: the Opportunistic One-Activate-One model — each
//!   active node targets one uniformly random out-neighbor per step;
//! - [`DoamModel`]: the Deterministic One-Activate-Many model —
//!   newly active nodes broadcast to all inactive out-neighbors —
//!   plus [`doam_analytic`], the exact BFS-distance oracle, and
//!   [`doam_safe_targets`] for fast coverage checks;
//! - [`OpoaoRealization`]: common-random-numbers couplings of the
//!   OPOAO choices (the paper's timestamp/random-graph construction,
//!   §V-A), which make the greedy objective a deterministic
//!   submodular function per realization;
//! - [`monte_carlo`]: a thread-parallel, seed-reproducible
//!   Monte-Carlo driver over any [`TwoCascadeModel`];
//! - [`rr_sketch_into`]: reverse-reachable sketch generation under
//!   the OPOAO timestamp semantics, with [`RrScratch`] /
//!   [`SketchBatch`] storage (the RIS estimator's sampling
//!   primitive);
//! - [`CompetitiveIcModel`] / [`CompetitiveLtModel`]: the competitive
//!   IC / LT extension models from the paper's related work.
//!
//! The hot path is CSR-first: every model simulates against a frozen
//! [`lcrb_graph::CsrGraph`] snapshot with per-run scratch in a
//! reusable, epoch-versioned [`SimWorkspace`] (see
//! [`TwoCascadeModel::run_into`] and [`monte_carlo_csr`]) — snapshot
//! once, simulate many, zero steady-state allocation. The
//! `DiGraph`-based entry points remain as thin one-off wrappers.
//!
//! ## Example
//!
//! ```
//! use lcrb_diffusion::{DoamModel, SeedSets};
//! use lcrb_graph::{DiGraph, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // rumor 0 -> 1 -> 2; protector 3 -> 2 arrives at the same hop as
//! // the rumor, and the protector cascade has priority.
//! let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (3, 1)])?;
//! let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(3)])?;
//! let outcome = DoamModel::default().run_deterministic(&g, &seeds);
//! assert!(outcome.status(NodeId::new(1)).is_protected());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod budget;
mod doam;
mod ic;
mod lt;
mod model;
mod montecarlo;
mod opoao;
mod outcome;
mod pool;
mod realization;
mod seeds;
mod sis;
mod sketch;
mod timestamps;
mod workspace;

pub use analytic::{doam_analytic, doam_analytic_csr, doam_safe_targets, doam_safe_targets_csr};
pub use budget::{CancelToken, RunBudget, StopReason, WorkMeter};
pub use doam::DoamModel;
pub use ic::{CompetitiveIcModel, IcRealization, InvalidProbabilityError};
pub use lt::CompetitiveLtModel;
pub use model::TwoCascadeModel;
pub use montecarlo::{
    monte_carlo, monte_carlo_csr, monte_carlo_csr_budgeted, AveragedOutcome, MonteCarloConfig,
};
pub use opoao::{LaneWorkspace, OpoaoModel, OPOAO_LANES, PAPER_OPOAO_HOPS};
pub use outcome::{DiffusionOutcome, HopRecord, Status};
pub use pool::{ScratchLease, ScratchPool};
pub use realization::OpoaoRealization;
pub use seeds::{derive_stream, splitmix64, SeedError, SeedSets};
pub use sis::{CompetitiveSisModel, SisOutcome, SisRecord, SisState};
pub use sketch::{rr_sketch_batch_into, rr_sketch_into, RrScratch, SketchBatch};
pub use timestamps::{run_opoao_timestamped, EdgeStamp, TimestampedOutcome};
pub use workspace::SimWorkspace;
