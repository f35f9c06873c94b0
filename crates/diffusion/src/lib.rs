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
//!   plus [`doam_analytic_csr`], the exact BFS-distance oracle, and
//!   [`doam_safe_targets_csr`] for fast coverage checks;
//! - [`OpoaoRealization`]: common-random-numbers couplings of the
//!   OPOAO choices (the paper's timestamp/random-graph construction,
//!   §V-A), which make the greedy objective a deterministic
//!   submodular function per realization; every OPOAO run, Monte
//!   Carlo included, is one. A [`TargetTable`] holds one
//!   realization's targets for a loop that runs it many times;
//! - [`monte_carlo_sets`]: the thread-parallel, seed-reproducible
//!   Monte-Carlo loop over any [`TwoCascadeModel`], which scores one
//!   protector set or many on common runs (one lane-packed pass per
//!   run under OPOAO, a single set on one lane); [`monte_carlo_csr`]
//!   is its one-set call;
//! - [`rr_sketch_into`]: reverse-reachable sketch generation under
//!   the OPOAO timestamp semantics, with [`RrScratch`] /
//!   [`SketchBatch`] storage (the RIS estimator's sampling
//!   primitive); [`rr_sketch_batch_into`] draws a run of sketches,
//!   polling a [`WorkMeter`] before each;
//! - [`CompetitiveIcModel`] / [`CompetitiveLtModel`]: the competitive
//!   IC / LT extension models from the paper's related work, stochastic
//!   models for simulating protector sets (the LCRB-P objective and
//!   its realizations are OPOAO's).
//!
//! Every model simulates against a frozen [`lcrb_graph::CsrGraph`]
//! snapshot with per-run scratch in a reusable, epoch-versioned
//! [`SimWorkspace`] (see [`TwoCascadeModel::run_into`] and
//! [`monte_carlo_csr`]) — snapshot once, simulate many, zero
//! steady-state allocation. [`SimWorkspace::to_outcome`] turns the
//! last run into an owned [`DiffusionOutcome`]. The mutable
//! [`lcrb_graph::DiGraph`] only builds the graph and validates
//! [`SeedSets`].
//!
//! ## Example
//!
//! ```
//! use lcrb_diffusion::{DoamModel, SeedSets, SimWorkspace};
//! use lcrb_graph::{CsrGraph, DiGraph, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // rumor 0 -> 1 -> 2; protector 3 -> 2 arrives at the same hop as
//! // the rumor, and the protector cascade has priority.
//! let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (3, 1)])?;
//! let seeds = SeedSets::new(&g, vec![NodeId::new(0)], vec![NodeId::new(3)])?;
//! let mut ws = SimWorkspace::new();
//! DoamModel::default().run_deterministic_into(&CsrGraph::from(&g), &seeds, &mut ws);
//! assert!(ws.status(NodeId::new(1)).is_protected());
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
mod sketch;
mod timestamps;
mod workspace;

pub use analytic::{doam_analytic_csr, doam_safe_targets_csr};
pub use budget::{CancelToken, RunBudget, StopReason, WorkMeter};
pub use doam::DoamModel;
pub use ic::{CompetitiveIcModel, InvalidProbabilityError};
pub use lt::CompetitiveLtModel;
pub use model::TwoCascadeModel;
pub use montecarlo::{monte_carlo_csr, monte_carlo_sets, AveragedOutcome, MonteCarloConfig};
pub use opoao::{
    LaneWorkspace, OpoaoModel, TargetSource, TargetTable, OPOAO_LANES, PAPER_OPOAO_HOPS,
};
pub use outcome::{DiffusionOutcome, HopRecord, Status};
pub use pool::{ScratchLease, ScratchPool};
pub use realization::OpoaoRealization;
pub use seeds::{derive_stream, splitmix64, SeedError, SeedSets};
pub use sketch::{rr_sketch_batch_into, rr_sketch_into, RrScratch, SketchBatch};
pub use timestamps::{run_opoao_timestamped, EdgeStamp, TimestampedOutcome};
pub use workspace::SimWorkspace;

/// Fixtures shared by the unit tests of the model modules.
#[cfg(test)]
mod testutil {
    use lcrb_graph::{CsrGraph, DiGraph, NodeId};
    use rand::Rng;

    use crate::{DiffusionOutcome, SeedSets, SimWorkspace, TwoCascadeModel};

    /// Rumors `r` and protectors `p` on `g`.
    pub(crate) fn seeds(g: &DiGraph, r: &[usize], p: &[usize]) -> SeedSets {
        let ids = |v: &[usize]| v.iter().map(|&i| NodeId::new(i)).collect();
        SeedSets::new(g, ids(r), ids(p)).unwrap()
    }

    /// One run of `model` in a fresh workspace, as an owned outcome:
    /// the reference the workspace-reuse tests compare against.
    pub(crate) fn fresh_run<M, R>(
        model: &M,
        graph: &CsrGraph,
        seeds: &SeedSets,
        rng: &mut R,
    ) -> DiffusionOutcome
    where
        M: TwoCascadeModel,
        R: Rng + ?Sized,
    {
        let mut ws = SimWorkspace::new();
        model.run_into(graph, seeds, &mut ws, rng);
        ws.to_outcome()
    }
}
