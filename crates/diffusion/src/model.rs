//! The common interface implemented by every two-cascade diffusion
//! model in this crate.

use rand::Rng;

use lcrb_graph::CsrGraph;

use crate::{OpoaoModel, SeedSets, SimWorkspace};

/// A diffusion process in which a rumor cascade R and a protector
/// cascade P compete on a directed graph, with P given priority on
/// simultaneous arrival (§III of the paper).
///
/// Simulations execute against a frozen [`CsrGraph`] snapshot and
/// write their result into a caller-owned [`SimWorkspace`], so
/// repeated runs (Monte-Carlo batches, greedy objective evaluations)
/// perform no per-run heap allocation. A caller that needs an owned
/// result materializes it with [`SimWorkspace::to_outcome`].
///
/// Implementations must be deterministic functions of `(graph,
/// seeds, rng stream)` so that Monte-Carlo runs are reproducible from
/// a seed. Deterministic models (e.g. DOAM) simply ignore the RNG.
pub trait TwoCascadeModel {
    /// Runs one diffusion to completion (or to the model's hop
    /// budget), writing the result into `ws`. Read it back through
    /// the workspace accessors ([`SimWorkspace::status`],
    /// [`SimWorkspace::trace`], ...) or materialize it with
    /// [`SimWorkspace::to_outcome`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if `seeds` was validated against a
    /// different graph than the one `graph` snapshots.
    fn run_into<R: Rng + ?Sized>(
        &self,
        graph: &CsrGraph,
        seeds: &SeedSets,
        ws: &mut SimWorkspace,
        rng: &mut R,
    );

    /// The OPOAO model behind `self`, if it is one. The Monte-Carlo
    /// loop ([`crate::monte_carlo_sets`]) uses it to score
    /// every protector set, one or many, in one lane-packed pass per
    /// run; every other model returns `None` and runs set by set
    /// through [`TwoCascadeModel::run_into`].
    fn as_opoao(&self) -> Option<&OpoaoModel> {
        None
    }

    /// Short stable name for reports ("opoao", "doam", ...).
    fn name(&self) -> &'static str;
}
