//! # lcrb-repro
//!
//! Umbrella crate for the reproduction of *Least Cost Rumor Blocking
//! in Social Networks* (Fan, Lu, Wu, Thuraisingham, Ma, Bi — ICDCS
//! 2013). It re-exports the workspace libraries under one roof:
//!
//! - [`graph`] — directed-graph substrate (storage, BFS, generators,
//!   I/O, metrics, PageRank);
//! - [`community`] — Louvain / modularity / partition metrics;
//! - [`diffusion`] — the OPOAO and DOAM two-cascade models, coupled
//!   realizations, Monte Carlo, RR sketches, competitive IC/LT;
//! - [`lcrb`] — the paper's algorithms: bridge ends, the LCRB-P
//!   greedy, SCBG, heuristics, and the evaluation harness;
//! - [`datasets`] — calibrated synthetic stand-ins for the Enron and
//!   Hep networks.
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured
//! results. Runnable walkthroughs live in `examples/`.
//!
//! ## End-to-end example
//!
//! ```
//! use lcrb_repro::prelude::*;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A community-structured network (synthetic Hep stand-in).
//! let ds = hep_like(&DatasetConfig::new(0.02, 7));
//!
//! // 2. A rumor breaks out in the pinned community.
//! let mut rng = SmallRng::seed_from_u64(7);
//! let instance = RumorBlockingInstance::with_random_seeds(
//!     ds.graph.clone(),
//!     ds.planted.clone(),
//!     ds.pinned_communities[0],
//!     2,
//!     &mut rng,
//! )?;
//!
//! // 3. A shared solver session answers queries from `&self` with
//! //    cached artifacts: SCBG picks the least-cost protector set...
//! let solver = Solver::new(instance);
//! let report = solver.solve(&SolveRequest::scbg())?;
//! let SolveDetail::Scbg(solution) = &report.detail else {
//!     unreachable!("an SCBG request carries an SCBG detail");
//! };
//! assert!(solution.is_complete());
//!
//! // 4. ...and the DOAM simulation certifies containment.
//! let seeds = solver.instance().seed_sets(report.protectors.clone())?;
//! let mut ws = SimWorkspace::new();
//! DoamModel::default().run_deterministic_into(solver.instance().snapshot(), &seeds, &mut ws);
//! for v in &solution.bridge_ends.nodes {
//!     assert!(!ws.status(*v).is_infected());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub use lcrb_community as community;
pub use lcrb_datasets as datasets;
pub use lcrb_diffusion as diffusion;
pub use lcrb_graph as graph;

pub use lcrb;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use lcrb::{
        find_bridge_ends, greedy_with_budget, scbg, Algorithm, BridgeEndRule, CacheStats,
        CancelToken, CandidatePool, Completion, Estimator, GreedyConfig, LcrbError,
        RumorBlockingInstance, RunBudget, ScbgConfig, SketchIndex, SketchObjective, SketchParams,
        SolveDetail, SolveReport, SolveRequest, Solver, SolverConfig, StopReason, StopRule,
    };
    pub use lcrb_community::{louvain, LouvainConfig, Partition};
    pub use lcrb_datasets::{enron_like, hep_like, DatasetConfig};
    pub use lcrb_diffusion::{
        doam_analytic_csr, monte_carlo_csr, DoamModel, MonteCarloConfig, OpoaoModel, SeedSets,
        SimWorkspace, Status, TwoCascadeModel,
    };
    pub use lcrb_graph::{DiGraph, NodeId};
}
