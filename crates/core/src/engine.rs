//! Solver sessions: the one public entry point that selects
//! protectors, for every algorithm, with epoch-keyed artifact caching
//! shared across threads.
//!
//! Every selection — the CELF greedy, SCBG and the comparison
//! heuristics — is a [`SolveRequest`] answered by
//! [`Solver::solve`]. The algorithm kernels underneath rebuild every
//! expensive artifact per call: the bridge-end set, the RR-sketch
//! sample, the CELF priority state, degree/PageRank orderings. A
//! [`Solver`] owns the [`RumorBlockingInstance`] plus an
//! `ArtifactCache` and reuses those artifacts across queries, so a
//! budget sweep or an α sweep pays the construction cost once.
//!
//! Reuse is sound because each artifact depends only on what its
//! cache key names — never on the stopping rule:
//!
//! - the bridge-end set depends only on the instance and the
//!   [`BridgeEndRule`];
//! - a [`SketchIndex`] depends on the instance, the bridge ends, the
//!   `(ε, δ)` schedule, the master seed, and the hop budget — not on
//!   any budget or α;
//! - a CELF trajectory is *prefix-consistent*: the stopping rule only
//!   decides where the pick sequence stops, never which node is
//!   picked next (see `crate::greedy`'s trajectory invariant), so a
//!   smaller budget reads a prefix and a larger one resumes the
//!   stored heap, bitwise identical to a cold run.
//!
//! Every cache entry is stamped with the solver's **epoch**; mutating
//! the instance ([`Solver::set_rumor_seeds`]) or calling
//! [`Solver::invalidate`] bumps the epoch, so stale artifacts can
//! never serve a changed problem.
//!
//! # Concurrency
//!
//! [`Solver::solve`] takes `&self`: one solver can be shared across
//! threads (it is `Sync`) and answer requests concurrently, either
//! hand-rolled over `std::thread::scope` or through the batched
//! [`Solver::solve_many`]. The state is split three ways:
//!
//! - **request-immutable**: the frozen instance, the master seed, and
//!   the epoch — read-only during any `&self` solve (the epoch is a
//!   plain integer precisely because the only writers,
//!   [`Solver::invalidate`] and [`Solver::set_rumor_seeds`], take
//!   `&mut self`, which statically excludes racing in-flight solves);
//! - **shared mutable**: the `ArtifactCache` (internally
//!   synchronized, per-family locking with single-builder/waiters
//!   discipline — concurrent same-key solves build an artifact once)
//!   and the scratch pool (`lcrb_diffusion::ScratchPool`, leasing
//!   workspaces behind RAII guards);
//! - **per-request**: stage timers, derived RNG streams, scratch
//!   leases — created inside each solve, never shared.
//!
//! Determinism survives concurrency because every randomness stream
//! is derived from `(master seed, request content)` via
//! [`lcrb_diffusion::derive_stream`] — never from worker identity or
//! arrival order — and because a CELF trajectory is claimed by exactly
//! one solve at a time: same-key requests serialize on the trajectory
//! and each resumes a bitwise-identical prefix.
//!
//! # Examples
//!
//! ```
//! use lcrb::engine::{Solver, SolveRequest};
//! use lcrb::RumorBlockingInstance;
//! use lcrb_community::Partition;
//! use lcrb_graph::{DiGraph, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
//! let p = Partition::from_labels(vec![0, 0, 1, 1]);
//! let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
//! let solver = Solver::new(inst);
//! let report = solver.solve(&SolveRequest::greedy_budget(1))?;
//! assert_eq!(report.protectors.len(), 1);
//! // A batch fans out across worker threads; results come back in
//! // request order and reuse the cached artifacts.
//! let batch = [SolveRequest::greedy_budget(2), SolveRequest::scbg()];
//! let reports = solver.solve_many(&batch);
//! assert_eq!(reports.len(), 2);
//! assert!(solver.cache_stats().hits() > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

// All blocking primitives come through the `lcrb-sync` facade: the
// default backend is a zero-cost `std::sync` passthrough, while test
// builds with the `sched` feature can run the whole cache protocol
// under a deterministic scheduler (see `tests/concurrency_model.rs`).
use lcrb_sync::{Condvar, Mutex, MutexGuard};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use lcrb_diffusion::{derive_stream, CancelToken, RunBudget, ScratchPool, StopReason, WorkMeter};
use lcrb_graph::NodeId;

use crate::greedy::{
    advance_trajectory, candidate_pool, selection_from_trajectory, GreedyTrajectory, SigmaBackend,
    SigmaScratch,
};
use crate::heuristics::{max_degree_ordering, pagerank_ordering, proximity_pool};
use crate::scbg::scbg_metered;
use crate::{
    find_bridge_ends, scbg, BridgeEndRule, BridgeEnds, CandidatePool, Estimator, GreedyConfig,
    GreedySelection, LcrbError, ProtectionObjective, RumorBlockingInstance, ScbgConfig,
    ScbgSolution, SketchIndex, SketchObjective,
};

/// Which selection algorithm a [`SolveRequest`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Algorithm {
    /// Algorithm 1 (CELF greedy) for LCRB-P — the only algorithm that
    /// honors [`StopRule::Alpha`].
    Greedy,
    /// Set Cover Based Greedy (Algorithm 3) for LCRB-D; ignores a
    /// budget (it always covers every bridge end it can) and rejects
    /// an α stop.
    Scbg,
    /// Highest out-degree first.
    MaxDegree,
    /// Random direct out-neighbors of the rumor originators.
    Proximity,
    /// Uniformly random non-rumor nodes.
    Random,
    /// Highest PageRank first.
    PageRank,
    /// No protectors — the reference line.
    NoBlocking,
}

impl Algorithm {
    /// The canonical display name (matches the paper-figure labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::Scbg => "scbg",
            Algorithm::MaxDegree => "max-degree",
            Algorithm::Proximity => "proximity",
            Algorithm::Random => "random",
            Algorithm::PageRank => "pagerank",
            Algorithm::NoBlocking => "no-blocking",
        }
    }
}

/// When a solve stops adding protectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Select at most this many protectors.
    Budget(usize),
    /// Select until `σ̂ ≥ α·|B|` (greedy only; `α ∈ (0, 1]`).
    Alpha(f64),
}

/// One query against a [`Solver`]: which algorithm, when to stop, and
/// every knob the algorithms share. Construct via the named builders
/// ([`SolveRequest::greedy_budget`], [`SolveRequest::greedy_alpha`],
/// [`SolveRequest::scbg`], [`SolveRequest::heuristic`]) and adjust
/// fields with struct-update syntax.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// The selection algorithm to run.
    pub algorithm: Algorithm,
    /// The stopping rule ([`StopRule::Alpha`] is greedy-only).
    pub stop: StopRule,
    /// σ̂ estimator for the greedy (Monte Carlo or RR sketches).
    pub estimator: Estimator,
    /// Bridge-end detection rule.
    pub rule: BridgeEndRule,
    /// Realizations for the Monte-Carlo greedy estimator.
    pub realizations: usize,
    /// Hop budget of the greedy's OPOAO objective.
    pub max_hops: u32,
    /// Candidate pool for the greedy.
    pub candidates: CandidatePool,
    /// Worker threads for the greedy's initial gain sweep.
    pub threads: usize,
    /// Work-unit caps and optional wall-clock deadline, checked only
    /// at deterministic checkpoint boundaries (see [`Completion`]).
    /// Defaults to [`RunBudget::unlimited`].
    pub budget: RunBudget,
    /// Cooperative cancellation token polled at the same checkpoints;
    /// observing it aborts the solve with [`LcrbError::Interrupted`].
    pub cancel: Option<CancelToken>,
}

impl SolveRequest {
    fn base(algorithm: Algorithm, stop: StopRule) -> Self {
        let defaults = GreedyConfig::default();
        SolveRequest {
            algorithm,
            stop,
            estimator: defaults.estimator,
            rule: defaults.rule,
            realizations: defaults.realizations,
            max_hops: defaults.max_hops,
            candidates: defaults.candidates,
            threads: defaults.threads,
            budget: RunBudget::unlimited(),
            cancel: None,
        }
    }

    /// Budget-mode greedy: select exactly `budget` protectors (fewer
    /// only if gains hit zero).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Algorithm, SolveRequest, StopRule};
    ///
    /// let req = SolveRequest::greedy_budget(3);
    /// assert_eq!(req.algorithm, Algorithm::Greedy);
    /// assert_eq!(req.stop, StopRule::Budget(3));
    /// ```
    #[must_use]
    pub fn greedy_budget(budget: usize) -> Self {
        SolveRequest::base(Algorithm::Greedy, StopRule::Budget(budget))
    }

    /// α-mode greedy: select until `σ̂ ≥ α·|B|`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Algorithm, SolveRequest, StopRule};
    ///
    /// let req = SolveRequest::greedy_alpha(0.8);
    /// assert_eq!(req.algorithm, Algorithm::Greedy);
    /// assert_eq!(req.stop, StopRule::Alpha(0.8));
    /// ```
    #[must_use]
    pub fn greedy_alpha(alpha: f64) -> Self {
        SolveRequest::base(Algorithm::Greedy, StopRule::Alpha(alpha))
    }

    /// Set Cover Based Greedy for LCRB-D (the budget is ignored;
    /// SCBG always covers everything it can).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Algorithm, SolveRequest};
    ///
    /// let req = SolveRequest::scbg();
    /// assert_eq!(req.algorithm, Algorithm::Scbg);
    /// ```
    #[must_use]
    pub fn scbg() -> Self {
        SolveRequest::base(Algorithm::Scbg, StopRule::Budget(usize::MAX))
    }

    /// A budgeted heuristic baseline ([`Algorithm::MaxDegree`],
    /// [`Algorithm::Proximity`], [`Algorithm::Random`],
    /// [`Algorithm::PageRank`], or [`Algorithm::NoBlocking`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Algorithm, SolveRequest, StopRule};
    ///
    /// let req = SolveRequest::heuristic(Algorithm::MaxDegree, 4);
    /// assert_eq!(req.algorithm, Algorithm::MaxDegree);
    /// assert_eq!(req.stop, StopRule::Budget(4));
    /// ```
    #[must_use]
    pub fn heuristic(algorithm: Algorithm, budget: usize) -> Self {
        SolveRequest::base(algorithm, StopRule::Budget(budget))
    }

    /// Replaces the σ̂ estimator (builder style).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::SolveRequest;
    /// use lcrb::{Estimator, SketchParams};
    ///
    /// let req = SolveRequest::greedy_budget(2)
    ///     .with_estimator(Estimator::Sketch(SketchParams::default()));
    /// assert!(matches!(req.estimator, Estimator::Sketch(_)));
    /// ```
    #[must_use]
    pub fn with_estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// Replaces the stopping rule (builder style).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{SolveRequest, StopRule};
    ///
    /// let req = SolveRequest::greedy_budget(2).with_stop(StopRule::Alpha(0.9));
    /// assert_eq!(req.stop, StopRule::Alpha(0.9));
    /// ```
    #[must_use]
    pub fn with_stop(mut self, stop: StopRule) -> Self {
        self.stop = stop;
        self
    }

    /// Attaches a work-unit/deadline budget (builder style). The
    /// solve stops at the first checkpoint where a cap is exhausted
    /// and returns a [`Completion::Degraded`] report carrying the
    /// best-so-far selection.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::SolveRequest;
    /// use lcrb::RunBudget;
    ///
    /// let req = SolveRequest::greedy_budget(3)
    ///     .with_budget(RunBudget::unlimited().with_max_advances(1));
    /// assert!(!req.budget.is_unlimited());
    /// ```
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cooperative cancellation token (builder style).
    /// Cancelling the token makes the solve abort with
    /// [`LcrbError::Interrupted`] at its next checkpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::SolveRequest;
    /// use lcrb::CancelToken;
    ///
    /// let token = CancelToken::new();
    /// let req = SolveRequest::scbg().with_cancel(token.clone());
    /// assert_eq!(req.cancel, Some(token));
    /// ```
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The equivalent kernel [`GreedyConfig`] (the stopping rule is
    /// not part of it; the engine passes the target separately).
    fn greedy_config(&self, master_seed: u64) -> GreedyConfig {
        GreedyConfig {
            realizations: self.realizations,
            master_seed,
            max_hops: self.max_hops,
            candidates: self.candidates,
            rule: self.rule,
            threads: self.threads,
            estimator: self.estimator,
        }
    }
}

/// Hit/miss counters for one artifact kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache at the current epoch.
    pub hits: u64,
    /// Lookups that had to (re)build the artifact.
    pub misses: u64,
}

impl CacheCounters {
    fn delta_since(self, earlier: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Per-artifact-kind cache counters. Cumulative over the session's
/// life; read a point-in-time snapshot with [`Solver::cache_stats`]
/// and charge a window of work by diffing two snapshots with
/// [`CacheStats::delta_since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bridge-end set lookups.
    pub bridge: CacheCounters,
    /// RR-sketch index lookups.
    pub sketch: CacheCounters,
    /// CELF trajectory lookups.
    pub celf: CacheCounters,
    /// SCBG solution lookups.
    pub scbg: CacheCounters,
    /// Heuristic ordering/pool lookups (degree, PageRank, proximity).
    pub ordering: CacheCounters,
}

impl CacheStats {
    /// Total hits across every artifact kind.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.bridge.hits + self.sketch.hits + self.celf.hits + self.scbg.hits + self.ordering.hits
    }

    /// Total misses across every artifact kind.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.bridge.misses
            + self.sketch.misses
            + self.celf.misses
            + self.scbg.misses
            + self.ordering.misses
    }

    /// The counter increments between `earlier` and `self` (both
    /// snapshots of the same solver's cumulative stats).
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            bridge: self.bridge.delta_since(earlier.bridge),
            sketch: self.sketch.delta_since(earlier.sketch),
            celf: self.celf.delta_since(earlier.celf),
            scbg: self.scbg.delta_since(earlier.scbg),
            ordering: self.ordering.delta_since(earlier.ordering),
        }
    }
}

/// Wall-clock duration of one named stage of a solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (`"bridge"`, `"estimator"`, `"select"`, ...).
    pub stage: &'static str,
    /// Elapsed nanoseconds.
    pub nanos: u128,
}

/// How much of the requested work a [`SolveReport`] reflects.
///
/// A solve whose [`RunBudget`] expires at a deterministic checkpoint
/// does not fail: it degrades, returning the best-so-far selection
/// (always a prefix of the uninterrupted run — see the trajectory
/// invariant in `crate::greedy`). Cancellation never degrades; it
/// aborts the solve with [`LcrbError::Interrupted`] instead, because
/// a cancelled caller has no use for a partial answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Completion {
    /// The algorithm ran to its own stopping rule; the report is its
    /// exact output.
    Exact,
    /// A work-unit cap or deadline stopped the solve at a checkpoint;
    /// the report carries the best-so-far selection.
    Degraded {
        /// Checkpoints completed before the stop, in the stage's own
        /// units: CELF picks made or bridge ends covered.
        checkpoints_done: u64,
        /// The checkpoint total an uninterrupted run would reach: the
        /// pick budget (or candidate-pool size in α mode) or the
        /// bridge-end count.
        checkpoints_total: u64,
        /// Which budget dimension stopped the solve.
        reason: StopReason,
    },
}

impl Completion {
    /// `true` for [`Completion::Exact`].
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(self, Completion::Exact)
    }
}

/// Algorithm-specific detail attached to a [`SolveReport`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum SolveDetail {
    /// The full greedy selection (σ̂ history, target, evaluations).
    Greedy(GreedySelection),
    /// The full SCBG solution (coverage accounting).
    Scbg(ScbgSolution),
    /// Heuristic baselines carry no extra detail.
    Heuristic,
}

/// The outcome of one [`Solver::solve`]: the selection plus
/// observability metadata (per-stage timings, a cache-counter
/// snapshot).
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Canonical algorithm name ([`Algorithm::name`]).
    pub algorithm: String,
    /// Selected protector originators, in selection order.
    pub protectors: Vec<NodeId>,
    /// The solver epoch this solve ran at.
    pub epoch: u64,
    /// Per-stage wall-clock timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// The session's **cumulative** cache counters, snapshotted when
    /// this solve completed. Under concurrent solves the increments
    /// of overlapping requests interleave, so a snapshot cannot be
    /// attributed to one request; charge a window of work by diffing
    /// [`Solver::cache_stats`] snapshots taken around it instead.
    pub cache_snapshot: CacheStats,
    /// Whether the solve ran to completion or degraded at a budget
    /// checkpoint.
    pub completion: Completion,
    /// Algorithm-specific detail.
    pub detail: SolveDetail,
}

impl SolveReport {
    /// Nanoseconds spent in `stage`, if it ran.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let report = solver.solve(&SolveRequest::greedy_budget(1))?;
    /// assert!(report.stage_nanos("select").is_some());
    /// assert!(report.stage_nanos("nope").is_none());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn stage_nanos(&self, stage: &str) -> Option<u128> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.nanos)
    }

    /// Total nanoseconds across all recorded stages.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let report = solver.solve(&SolveRequest::greedy_budget(1))?;
    /// let sum: u128 = report.stages.iter().map(|s| s.nanos).sum();
    /// assert_eq!(report.total_nanos(), sum);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn total_nanos(&self) -> u128 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// `true` when a work-unit cap or deadline stopped this solve at a
    /// checkpoint, making the selection a best-so-far prefix.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::{RumorBlockingInstance, RunBudget};
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let starved = solver.solve(
    ///     &SolveRequest::greedy_budget(1)
    ///         .with_budget(RunBudget::unlimited().with_max_advances(0)),
    /// )?;
    /// assert!(starved.is_degraded());
    /// assert!(starved.protectors.is_empty());
    /// // Budgets meter work performed: the unbudgeted re-ask resumes
    /// // the parked trajectory and completes exactly.
    /// let exact = solver.solve(&SolveRequest::greedy_budget(1))?;
    /// assert!(!exact.is_degraded());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.completion.is_exact()
    }
}

/// Construction options for a [`Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverConfig {
    /// Master seed every derived randomness stream mixes from
    /// (realization batches, sketch sampling, heuristic shuffles).
    pub master_seed: u64,
}

/// A clock read for stage timings. Observability metadata only: the
/// solver's *selections* never read the clock, so determinism of the
/// outputs is preserved.
#[expect(
    clippy::disallowed_methods,
    reason = "stage timings are observability metadata; selections never read the clock"
)]
fn now() -> std::time::Instant {
    std::time::Instant::now()
}

struct StageClock {
    last: std::time::Instant,
    stages: Vec<StageTiming>,
}

impl StageClock {
    fn start() -> Self {
        StageClock {
            last: now(),
            stages: Vec::new(),
        }
    }

    fn lap(&mut self, stage: &'static str) {
        let t = now();
        self.stages.push(StageTiming {
            stage,
            nanos: t.duration_since(self.last).as_nanos(),
        });
        self.last = t;
    }
}

/// Locks a mutex, tolerating poison: every value stored behind an
/// engine mutex stays valid across a panic (maps hold fully built
/// entries or removable `Building` markers; gate booleans are
/// monotone), so inheriting a poisoned guard is always safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A one-shot broadcast latch: waiters block until the first
/// [`Gate::open`].
///
/// This is the wakeup primitive behind the engine's "single builder,
/// many waiters" protocol (the [`FamilyCache`] claim markers). It is
/// `pub` so the schedule-exploration tests
/// (`tests/concurrency_model.rs`) can model-check the primitive
/// itself; production code has no reason to construct one.
#[derive(Debug, Default)]
pub struct Gate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    /// Opens the gate and wakes every current and future waiter.
    /// Idempotent: the flag is monotone.
    pub fn open(&self) {
        *lock(&self.done) = true;
        self.cv.notify_all();
    }

    /// Blocks until the gate is open; returns immediately if it
    /// already is.
    pub fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Lock-free hit/miss tallies for one artifact family. Relaxed
/// ordering suffices: the counters are monotone statistics, never
/// used for synchronization.
#[derive(Debug, Default)]
struct FamilyCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FamilyCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn snapshot(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
        }
    }
}

/// One slot of a [`FamilyCache`]: a value at rest, or the marker of
/// the one caller that holds the key (building its artifact, or
/// advancing a value it took out); waiters park on the gate.
#[derive(Debug)]
enum Slot<V> {
    Building(Arc<Gate>),
    Ready(V),
}

/// An internally synchronized, epoch-stamped artifact family with
/// single-builder/waiters discipline: concurrent same-key lookups
/// build the artifact exactly once, everyone else blocks on the
/// builder's gate and then clones the shared result.
///
/// Resumable state that must never be cloned and diverged (the CELF
/// trajectories) lives in the same slots: the engine's `take` hands
/// the value to one caller at a time, and `peek` reads it in place.
///
/// The family mutex is held only for map bookkeeping — never across a
/// build, a wait, or any simulation call.
///
/// `pub` for the same reason as [`Gate`]: the deterministic-schedule
/// tests drive the probe-or-publish race on the real type. The engine
/// itself only uses it through `ArtifactCache`.
#[derive(Debug)]
pub struct FamilyCache<K, V> {
    map: Mutex<BTreeMap<K, (u64, Slot<V>)>>,
    counters: FamilyCounters,
}

// Manual impl: the derive would demand `K: Default + V: Default`,
// but an empty map needs neither.
impl<K, V> Default for FamilyCache<K, V> {
    fn default() -> Self {
        FamilyCache {
            map: Mutex::new(BTreeMap::new()),
            counters: FamilyCounters::default(),
        }
    }
}

/// One caller's claim on a key, whose `Building` marker it put in the
/// map. [`BuildGuard::store`] publishes the value as `Ready`; dropped
/// without a store (a failed or panicked build, an interrupted
/// advance) the guard removes its own marker, so the next caller
/// starts cold instead of deadlocking or inheriting a half-built
/// value. Either way the gate opens and the waiters probe again.
struct BuildGuard<'a, K: Copy + Ord, V> {
    cache: &'a FamilyCache<K, V>,
    key: K,
    epoch: u64,
    gate: Arc<Gate>,
    stored: bool,
}

impl<K: Copy + Ord, V> BuildGuard<'_, K, V> {
    fn store(mut self, value: V) {
        lock(&self.cache.map).insert(self.key, (self.epoch, Slot::Ready(value)));
        self.stored = true;
        // Drop opens the gate for the waiters.
    }
}

impl<K: Copy + Ord, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.stored {
            let mut map = lock(&self.cache.map);
            // Only remove *our* marker: a concurrent epoch change may
            // have replaced the slot already.
            if let Some((_, Slot::Building(g))) = map.get(&self.key) {
                if Arc::ptr_eq(g, &self.gate) {
                    map.remove(&self.key);
                }
            }
        }
        self.gate.open();
    }
}

impl<K: Copy + Ord, V: Clone> FamilyCache<K, V> {
    /// Returns the current-epoch artifact for `key`, building it with
    /// `build` on a miss. Concurrent same-key callers build exactly
    /// once: one claims the slot, the rest park on its [`Gate`] and
    /// clone the published value. A failed (or panicked) build vacates
    /// the slot and frees the waiters to retry.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error; the cache keeps no trace of the
    /// failed attempt beyond the charged miss.
    pub fn get_or_try_build<E>(
        &self,
        key: K,
        epoch: u64,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut map = self.lock_unclaimed(key, epoch);
        if let Some((e, Slot::Ready(v))) = map.get(&key) {
            if *e == epoch {
                self.counters.hit();
                return Ok(v.clone());
            }
        }
        // Vacant, or stamped with a stale epoch (including a stale
        // Building marker): claim the slot and rebuild.
        let guard = self.claim(&mut map, key, epoch);
        drop(map);
        self.counters.miss();
        // Injectable failure between claiming the slot and running
        // the builder: the guard must vacate the marker and open the
        // gate during unwind.
        lcrb_sync::fault::point("family.build");
        // The build runs outside every lock; on error the guard
        // vacates the slot and frees the waiters.
        let value = build()?;
        guard.store(value.clone());
        Ok(value)
    }

    /// [`FamilyCache::get_or_try_build`] for infallible builders.
    pub fn get_or_build(&self, key: K, epoch: u64, build: impl FnOnce() -> V) -> V {
        match self.get_or_try_build(key, epoch, || Ok::<_, std::convert::Infallible>(build())) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }
}

impl<K: Copy + Ord, V> FamilyCache<K, V> {
    /// Claims `key` for one caller, once no other same-epoch claim
    /// holds it, and hands it the current-epoch value, taken out of
    /// the map (a hit), or `None` on a vacant or stale key (a miss).
    /// The guard must [`BuildGuard::store`] the advanced value;
    /// dropped, it vacates the key, so the next caller starts cold
    /// rather than resume a half-advanced value.
    fn take(&self, key: K, epoch: u64) -> (Option<V>, BuildGuard<'_, K, V>) {
        let mut map = self.lock_unclaimed(key, epoch);
        let value = match map.remove(&key) {
            Some((e, Slot::Ready(v))) if e == epoch => Some(v),
            _ => None,
        };
        if value.is_some() {
            self.counters.hit();
        } else {
            self.counters.miss();
        }
        (value, self.claim(&mut map, key, epoch))
    }

    /// Answers from the current-epoch value for `key` in place, under
    /// the map lock and without a claim; `answer` returns `None` when
    /// the value cannot answer (a trajectory that would have to
    /// advance). Counts a hit only when it answers.
    fn peek<T>(&self, key: K, epoch: u64, answer: impl FnOnce(&V) -> Option<T>) -> Option<T> {
        let map = lock(&self.map);
        let out = match map.get(&key) {
            Some((e, Slot::Ready(v))) if *e == epoch => answer(v),
            _ => None,
        };
        if out.is_some() {
            self.counters.hit();
        }
        out
    }

    /// Locks the map once no same-epoch claim holds `key`, waiting
    /// such a claim out with the map guard dropped. A stale-epoch
    /// marker is not waited on but reclaimed: the epoch moves only
    /// under `&mut Solver`, which clears every map while no solve is
    /// in flight, so its holder can no longer be running.
    fn lock_unclaimed(&self, key: K, epoch: u64) -> MutexGuard<'_, BTreeMap<K, (u64, Slot<V>)>> {
        loop {
            let map = lock(&self.map);
            let gate = match map.get(&key) {
                Some((e, Slot::Building(g))) if *e == epoch => Arc::clone(g),
                _ => return map,
            };
            drop(map);
            gate.wait();
        }
    }

    /// Puts the caller's `Building` marker for `key` into the locked
    /// map and returns the guard that publishes or vacates it.
    fn claim(
        &self,
        map: &mut BTreeMap<K, (u64, Slot<V>)>,
        key: K,
        epoch: u64,
    ) -> BuildGuard<'_, K, V> {
        let gate = Arc::new(Gate::default());
        map.insert(key, (epoch, Slot::Building(Arc::clone(&gate))));
        BuildGuard {
            cache: self,
            key,
            epoch,
            gate,
            stored: false,
        }
    }

    /// Drops every slot (values and in-progress markers alike).
    pub fn clear(&self) {
        lock(&self.map).clear();
    }

    /// Snapshot of the family's cumulative hit/miss counters.
    #[must_use]
    pub fn counter_snapshot(&self) -> CacheCounters {
        self.counters.snapshot()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EstimatorKey {
    tag: u8,
    realizations: usize,
    epsilon_bits: u64,
    delta_bits: u64,
    min_sketches: usize,
    max_sketches: usize,
}

fn estimator_key(estimator: &Estimator, realizations: usize) -> EstimatorKey {
    match estimator {
        Estimator::MonteCarlo => EstimatorKey {
            tag: 0,
            realizations,
            epsilon_bits: 0,
            delta_bits: 0,
            min_sketches: 0,
            max_sketches: 0,
        },
        Estimator::Sketch(p) => EstimatorKey {
            tag: 1,
            realizations: 0,
            epsilon_bits: p.epsilon.to_bits(),
            delta_bits: p.delta.to_bits(),
            min_sketches: p.min_sketches,
            max_sketches: p.max_sketches,
        },
    }
}

fn rule_tag(rule: BridgeEndRule) -> u8 {
    match rule {
        BridgeEndRule::WithinCommunity => 0,
        BridgeEndRule::AnyPath => 1,
    }
}

fn candidates_key(pool: CandidatePool) -> (u8, u32) {
    match pool {
        CandidatePool::AllNonRumor => (0, 0),
        CandidatePool::BackwardRadius(r) => (1, r),
        CandidatePool::BbstUnion => (2, 0),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct SketchKey {
    rule: u8,
    max_hops: u32,
    epsilon_bits: u64,
    delta_bits: u64,
    min_sketches: usize,
    max_sketches: usize,
}

/// A CELF trajectory is keyed by everything the pick sequence depends
/// on — rule, estimator, hop budget, candidate pool — and by nothing
/// it does not (the stopping rule and thread count never change which
/// node is picked next).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CelfKey {
    rule: u8,
    estimator: EstimatorKey,
    max_hops: u32,
    candidates: (u8, u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ScbgKey {
    rule: u8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct OrderingKey {
    tag: u8,
}

/// The solver's epoch-keyed artifact store: one internally
/// synchronized [`FamilyCache`] per artifact family, the resumable
/// CELF trajectories included. Private to the engine; inspect it
/// through [`Solver::cache_stats`].
#[derive(Debug, Default)]
struct ArtifactCache {
    bridge: FamilyCache<u8, Arc<BridgeEnds>>,
    sketch: FamilyCache<SketchKey, Arc<SketchIndex>>,
    celf: FamilyCache<CelfKey, GreedyTrajectory>,
    scbg: FamilyCache<ScbgKey, ScbgSolution>,
    ordering: FamilyCache<OrderingKey, Arc<Vec<NodeId>>>,
}

impl ArtifactCache {
    fn clear(&self) {
        self.bridge.clear();
        self.sketch.clear();
        self.celf.clear();
        self.scbg.clear();
        self.ordering.clear();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            bridge: self.bridge.counters.snapshot(),
            sketch: self.sketch.counters.snapshot(),
            celf: self.celf.counters.snapshot(),
            scbg: self.scbg.counters.snapshot(),
            ordering: self.ordering.counters.snapshot(),
        }
    }
}

/// A solver session: owns the instance, a deterministic derived-seed
/// policy, and the artifact cache; answers [`SolveRequest`]s from
/// `&self`, so one session can serve many threads concurrently.
///
/// See the [module docs](self) for the caching model, the soundness
/// argument, and the concurrency invariants.
#[derive(Debug)]
pub struct Solver {
    instance: RumorBlockingInstance,
    master_seed: u64,
    /// Plain (non-atomic) by design: `&self` solves only read it, and
    /// the only writers ([`Solver::invalidate`],
    /// [`Solver::set_rumor_seeds`]) take `&mut self`, which statically
    /// excludes concurrent solves — an in-flight solve always
    /// completes against the epoch it started with.
    epoch: u64,
    cache: ArtifactCache,
    scratch: ScratchPool<SigmaScratch>,
}

impl Solver {
    /// Creates a session with the default configuration
    /// (`master_seed = 0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::Solver;
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// assert_eq!(solver.master_seed(), 0);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn new(instance: RumorBlockingInstance) -> Self {
        Solver::with_config(instance, SolverConfig::default())
    }

    /// Creates a session with an explicit configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolverConfig};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::with_config(inst, SolverConfig { master_seed: 9 });
    /// assert_eq!(solver.master_seed(), 9);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn with_config(instance: RumorBlockingInstance, config: SolverConfig) -> Self {
        Solver {
            instance,
            master_seed: config.master_seed,
            epoch: 0,
            cache: ArtifactCache::default(),
            scratch: ScratchPool::new(),
        }
    }

    /// The problem instance this session solves.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::Solver;
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// assert_eq!(solver.instance().rumor_seeds(), &[NodeId::new(0)]);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn instance(&self) -> &RumorBlockingInstance {
        &self.instance
    }

    /// The master seed derived randomness streams mix from.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolverConfig};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::with_config(inst, SolverConfig { master_seed: 7 });
    /// assert_eq!(solver.master_seed(), 7);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The current cache epoch (bumped by every invalidation).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::Solver;
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let mut solver = Solver::new(inst);
    /// assert_eq!(solver.epoch(), 0);
    /// solver.invalidate();
    /// assert_eq!(solver.epoch(), 1);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A point-in-time snapshot of the session's cumulative cache
    /// hit/miss counters. Charge a window of work (one solve, one
    /// batch) by snapshotting before and after and diffing with
    /// [`CacheStats::delta_since`].
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let before = solver.cache_stats();
    /// solver.solve(&SolveRequest::greedy_budget(1))?;
    /// let delta = solver.cache_stats().delta_since(&before);
    /// assert!(delta.misses() >= 2); // cold: bridge + CELF trajectory
    /// assert_eq!(delta.hits(), 0);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached artifact and bumps the epoch. Called
    /// automatically when the instance changes
    /// ([`Solver::set_rumor_seeds`]); call it manually only to
    /// reclaim memory or to force cold re-solves.
    ///
    /// Takes `&mut self` deliberately: the exclusive borrow waits out
    /// every in-flight `&self` solve, so invalidation never races a
    /// running request — in-flight solves complete against their
    /// epoch's artifacts, and anything they store afterwards carries
    /// the old epoch stamp and is lazily evicted, never served.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let mut solver = Solver::new(inst);
    /// solver.solve(&SolveRequest::greedy_budget(1))?;
    /// solver.invalidate();
    /// let before = solver.cache_stats();
    /// solver.solve(&SolveRequest::greedy_budget(1))?;
    /// // Everything rebuilt from scratch after the invalidation.
    /// assert_eq!(solver.cache_stats().delta_since(&before).hits(), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn invalidate(&mut self) {
        self.epoch += 1;
        self.cache.clear();
        // Pooled scratches cache seed pairs built from the old rumor
        // set; they must not survive an instance change.
        self.scratch.clear();
    }

    /// Replaces the rumor originators (revalidating them against the
    /// rumor community) and invalidates every cached artifact.
    ///
    /// Like [`Solver::invalidate`], the `&mut self` receiver is the
    /// epoch story: no solve can be in flight while the instance
    /// swaps, and stale artifacts are never served afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`RumorBlockingInstance::with_rumor_seeds`] errors;
    /// on error the session is unchanged.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::Solver;
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let mut solver = Solver::new(inst);
    /// solver.set_rumor_seeds(vec![NodeId::new(1)])?;
    /// assert_eq!(solver.instance().rumor_seeds(), &[NodeId::new(1)]);
    /// assert_eq!(solver.epoch(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn set_rumor_seeds(&mut self, rumor_seeds: Vec<NodeId>) -> Result<(), LcrbError> {
        self.instance = self.instance.with_rumor_seeds(rumor_seeds)?;
        self.invalidate();
        Ok(())
    }

    /// A deterministic RNG stream derived from the master seed, the
    /// stream name, and the budget — so identical requests draw
    /// identical randomness regardless of solve order or which worker
    /// thread runs them.
    pub(crate) fn named_rng(&self, name: &str, budget: usize) -> SmallRng {
        let mut s = derive_stream(self.master_seed, 0x6c63_7262); // "lcrb"
        for &b in name.as_bytes() {
            s = derive_stream(s, u64::from(b));
        }
        SmallRng::seed_from_u64(derive_stream(s, budget as u64))
    }

    /// Answers one [`SolveRequest`], reusing every cached artifact
    /// the request's key matches. Takes `&self`: solves may run
    /// concurrently from many threads against one session.
    ///
    /// # Errors
    ///
    /// - [`LcrbError::InvalidAlpha`] for an out-of-range
    ///   [`StopRule::Alpha`];
    /// - [`LcrbError::UnsupportedRequest`] for an α stop on anything
    ///   but the greedy;
    /// - [`LcrbError::Interrupted`] when the request's
    ///   [`CancelToken`] is observed at a checkpoint, or when a stop
    ///   lands where no usable partial result exists (work-unit and
    ///   deadline stops otherwise degrade the report instead — see
    ///   [`Completion`]);
    /// - plus whatever the underlying algorithm returns
    ///   ([`LcrbError::NoRealizations`],
    ///   [`LcrbError::InvalidSketchParams`], ...).
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let report = solver.solve(&SolveRequest::greedy_budget(1))?;
    /// assert_eq!(report.protectors.len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveReport, LcrbError> {
        let mut meter = WorkMeter::new(request.budget, request.cancel.clone());
        // Entry checkpoint: an already-cancelled or already-expired
        // request fails fast before touching any shared state.
        meter
            .poll()
            .map_err(|reason| LcrbError::Interrupted { reason })?;
        match request.algorithm {
            Algorithm::Greedy => self.solve_greedy(request, &mut meter),
            Algorithm::Scbg => self.solve_scbg(request, &mut meter),
            // Heuristics run no simulation kernels; the entry poll
            // above is their only checkpoint and they always complete
            // exactly.
            Algorithm::MaxDegree
            | Algorithm::Proximity
            | Algorithm::Random
            | Algorithm::PageRank
            | Algorithm::NoBlocking => self.solve_heuristic(request),
        }
    }

    /// Answers a batch of requests, fanning out across worker threads
    /// (one per available core, capped at the batch size). Results
    /// come back in request order; each element is that request's own
    /// `Result`, so one failing request never poisons the batch.
    ///
    /// Requests without a work cap (`max_sims`, `max_advances`) give
    /// outputs bitwise identical to solving them serially in any order:
    /// randomness streams derive from request content, and shared
    /// artifacts (CELF trajectories above all) are built once and
    /// resumed under a single-builder claim. Capped requests that share
    /// a CELF trajectory are not order-free: each spends its own
    /// allowance from wherever the trajectory stands when it resumes
    /// it, so the answers depend on which runs first. For a
    /// reproducible capped batch, call [`Solver::solve_many_threaded`]
    /// with one worker, which solves in request order.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Algorithm, Solver, SolveRequest};
    /// use lcrb::RumorBlockingInstance;
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let batch = [
    ///     SolveRequest::greedy_budget(1),
    ///     SolveRequest::heuristic(Algorithm::MaxDegree, 1),
    /// ];
    /// let reports = solver.solve_many(&batch);
    /// assert_eq!(reports.len(), 2);
    /// assert_eq!(reports[0].as_ref().unwrap().algorithm, "greedy");
    /// assert_eq!(reports[1].as_ref().unwrap().algorithm, "max-degree");
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn solve_many(&self, requests: &[SolveRequest]) -> Vec<Result<SolveReport, LcrbError>> {
        self.solve_many_threaded(requests, 0)
    }

    /// [`Solver::solve_many`] with an explicit worker count
    /// (`0` means one worker per available core). `threads == 1`
    /// degenerates to a serial in-order loop. Any other count produces
    /// bitwise-identical reports in the same order, unless requests
    /// with a work cap share a CELF trajectory: those race for it, and
    /// each one's answer depends on how far the others have advanced
    /// it, so only `threads == 1` repeats such a batch run to run.
    ///
    /// To cancel a whole batch, put clones of one [`CancelToken`] on
    /// every request: clones share the flag, so cancelling any of them
    /// stops every in-flight request at its next checkpoint and fails
    /// every queued one fast, each as its own
    /// [`LcrbError::Interrupted`] slot.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcrb::engine::{Solver, SolveRequest};
    /// use lcrb::{CancelToken, RumorBlockingInstance};
    /// use lcrb_community::Partition;
    /// use lcrb_graph::{DiGraph, NodeId};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let p = Partition::from_labels(vec![0, 0, 1, 1]);
    /// let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)])?;
    /// let solver = Solver::new(inst);
    /// let batch = [SolveRequest::greedy_budget(1), SolveRequest::greedy_budget(2)];
    /// let serial = solver.solve_many_threaded(&batch, 1);
    /// let parallel = solver.solve_many_threaded(&batch, 2);
    /// let picks = |r: &Result<lcrb::SolveReport, lcrb::LcrbError>| {
    ///     r.as_ref().unwrap().protectors.clone()
    /// };
    /// assert_eq!(picks(&serial[1]), picks(&parallel[1]));
    /// // One token shared by the batch cancels it slot by slot.
    /// let token = CancelToken::new();
    /// let batch = batch.map(|r| r.with_cancel(token.clone()));
    /// token.cancel();
    /// assert!(solver.solve_many_threaded(&batch, 2).iter().all(Result::is_err));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn solve_many_threaded(
        &self,
        requests: &[SolveRequest],
        threads: usize,
    ) -> Vec<Result<SolveReport, LcrbError>> {
        let threads = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
        .min(requests.len())
        .max(1);
        if threads == 1 {
            return requests.iter().map(|r| self.solve(r)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut indexed = lcrb_sync::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let next = &next;
                handles.push(scope.spawn(move || {
                    // Work-queue scheduling: workers pull the next
                    // unclaimed request index. Which worker runs a
                    // request never affects its output — streams and
                    // artifacts are keyed by request content.
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, AtomicOrdering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        out.push((i, self.solve(request)));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                // xtask-allow: panic -- re-raising a worker panic on the coordinating thread is the intended behavior
                .flat_map(|h| h.join().expect("solve worker panicked"))
                .collect::<Vec<_>>()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, report)| report).collect()
    }

    fn solve_greedy(
        &self,
        request: &SolveRequest,
        meter: &mut WorkMeter,
    ) -> Result<SolveReport, LcrbError> {
        let config = request.greedy_config(self.master_seed);
        let (target_alpha, cap) = match request.stop {
            StopRule::Alpha(a) => {
                if a.is_nan() || a <= 0.0 || a > 1.0 {
                    return Err(LcrbError::InvalidAlpha { alpha: a });
                }
                (Some(a), usize::MAX)
            }
            StopRule::Budget(k) => (None, k),
        };
        if let Estimator::Sketch(params) = config.estimator {
            params.validate()?;
        }
        let mut clock = StageClock::start();
        let epoch = self.epoch;

        let bridge = self
            .cache
            .bridge
            .get_or_build(rule_tag(config.rule), epoch, || {
                Arc::new(find_bridge_ends(&self.instance, config.rule))
            });
        clock.lap("bridge");

        let backend = match config.estimator {
            Estimator::MonteCarlo => SigmaBackend::Mc(ProtectionObjective::new(
                &self.instance,
                bridge.nodes.clone(),
                config.realizations,
                self.master_seed,
                config.max_hops,
            )?),
            Estimator::Sketch(params) => {
                let key = SketchKey {
                    rule: rule_tag(config.rule),
                    max_hops: config.max_hops,
                    epsilon_bits: params.epsilon.to_bits(),
                    delta_bits: params.delta.to_bits(),
                    min_sketches: params.min_sketches,
                    max_sketches: params.max_sketches,
                };
                // Cancel/deadline stops inside the builder surface as
                // errors; the BuildGuard then vacates the Building
                // slot and frees same-key waiters — cancellation is a
                // recovery window exactly like a failed build.
                let index = self.cache.sketch.get_or_try_build(key, epoch, || {
                    SketchIndex::build_metered(
                        &self.instance,
                        bridge.nodes.clone(),
                        params,
                        self.master_seed,
                        config.max_hops,
                        meter,
                    )
                    .map(Arc::new)
                })?;
                SigmaBackend::Sketch(SketchObjective::from_index(&self.instance, index))
            }
        };
        clock.lap("estimator");

        let target = match target_alpha {
            Some(a) => a * bridge.len() as f64,
            None => f64::INFINITY,
        };

        let celf_key = CelfKey {
            rule: rule_tag(config.rule),
            estimator: estimator_key(&config.estimator, config.realizations),
            max_hops: config.max_hops,
            candidates: candidates_key(config.candidates),
        };
        // A trajectory parked with the answer already in it (a replay)
        // is read in place: no claim, gate or scratch, so concurrent
        // replays never wait on each other.
        let answered = self.cache.celf.peek(celf_key, epoch, |traj| {
            traj.answers(target, cap).then(|| {
                let selection = selection_from_trajectory(traj, target, cap, 0, (*bridge).clone());
                (selection, traj.candidate_count())
            })
        });
        let (selection, candidate_count, advance_stop) = match answered {
            Some((selection, candidate_count)) => (selection, candidate_count, None),
            None => {
                self.advance_greedy(&backend, &bridge, &config, celf_key, target, cap, meter)?
            }
        };
        clock.lap("select");

        let completion = if let Some(reason) = advance_stop {
            Completion::Degraded {
                checkpoints_done: selection.protectors.len() as u64,
                checkpoints_total: if cap == usize::MAX {
                    candidate_count as u64
                } else {
                    cap as u64
                },
                reason,
            }
        } else {
            Completion::Exact
        };

        Ok(SolveReport {
            algorithm: Algorithm::Greedy.name().to_owned(),
            protectors: selection.protectors.clone(),
            epoch,
            stages: clock.stages,
            cache_snapshot: self.cache.stats(),
            completion,
            detail: SolveDetail::Greedy(selection),
        })
    }

    /// The greedy solve's claim path: takes the CELF trajectory,
    /// advances it to the stopping rule and stores it again.
    #[allow(clippy::too_many_arguments)]
    fn advance_greedy(
        &self,
        backend: &SigmaBackend<'_>,
        bridge: &BridgeEnds,
        config: &GreedyConfig,
        celf_key: CelfKey,
        target: f64,
        cap: usize,
        meter: &mut WorkMeter,
    ) -> Result<(GreedySelection, usize, Option<StopReason>), LcrbError> {
        // The claim holds this key exclusively: concurrent same-key
        // solves wait here and then resume the trajectory we store.
        let (cached, claim) = self.cache.celf.take(celf_key, self.epoch);
        let mut traj = cached.unwrap_or_else(|| {
            GreedyTrajectory::new(candidate_pool(&self.instance, bridge, config.candidates))
        });
        let evals_before = traj.evaluations();
        // Injectable failure while the claim holds the trajectory: the
        // guard's drop must vacate the slot so the next same-key solve
        // cold-builds instead of resuming a half-advanced prefix.
        lcrb_sync::fault::point("celf.advance");
        // On error (σ̂ failure or an observed cancellation) the guard
        // drops without storing: the slot is vacated and the next
        // same-key solve cold-builds, never inheriting a partially
        // extended trajectory. Budget/deadline stops return
        // `Ok(Some(reason))` with the trajectory parked at a pick
        // boundary — prefix-consistent, so parking it is sound.
        let advance_stop = advance_trajectory(
            backend,
            &mut traj,
            target,
            cap,
            config.threads,
            &self.scratch,
            meter,
        )?;
        let evaluations = traj.evaluations() - evals_before;
        let selection = selection_from_trajectory(&traj, target, cap, evaluations, bridge.clone());
        let candidate_count = traj.candidate_count();
        claim.store(traj);
        Ok((selection, candidate_count, advance_stop))
    }

    fn solve_scbg(
        &self,
        request: &SolveRequest,
        meter: &mut WorkMeter,
    ) -> Result<SolveReport, LcrbError> {
        if let StopRule::Alpha(_) = request.stop {
            return Err(LcrbError::UnsupportedRequest {
                reason: "SCBG covers every bridge end; alpha targets apply only to the greedy",
            });
        }
        let mut clock = StageClock::start();
        let epoch = self.epoch;
        let scbg_config = ScbgConfig {
            rule: request.rule,
            ..ScbgConfig::default()
        };
        // SCBG runs no simulations or sketches, so work-unit caps
        // never stop it; only cancel- or deadline-carrying requests
        // need checkpoints, and those bypass the cache because a
        // deadline-truncated partial cover must never be published as
        // the exact artifact.
        let (solution, stop) = if meter.polls_needed() {
            scbg_metered(&self.instance, &scbg_config, meter)
                .map_err(|reason| LcrbError::Interrupted { reason })?
        } else {
            let key = ScbgKey {
                rule: rule_tag(request.rule),
            };
            let solution = self
                .cache
                .scbg
                .get_or_build(key, epoch, || scbg(&self.instance, &scbg_config));
            (solution, None)
        };
        clock.lap("select");
        let completion = match stop {
            Some(reason) => Completion::Degraded {
                checkpoints_done: solution.covered as u64,
                checkpoints_total: solution.bridge_ends.len() as u64,
                reason,
            },
            None => Completion::Exact,
        };
        Ok(SolveReport {
            algorithm: Algorithm::Scbg.name().to_owned(),
            protectors: solution.protectors.clone(),
            epoch,
            stages: clock.stages,
            cache_snapshot: self.cache.stats(),
            completion,
            detail: SolveDetail::Scbg(solution),
        })
    }

    fn solve_heuristic(&self, request: &SolveRequest) -> Result<SolveReport, LcrbError> {
        let StopRule::Budget(budget) = request.stop else {
            return Err(LcrbError::UnsupportedRequest {
                reason:
                    "heuristic baselines select by budget; alpha targets apply only to the greedy",
            });
        };
        let mut clock = StageClock::start();
        let protectors = match request.algorithm {
            Algorithm::MaxDegree => {
                let ordering = self.cached_ordering(OrderingKey { tag: 0 }, max_degree_ordering);
                clock.lap("ordering");
                let mut nodes = ordering.to_vec();
                nodes.truncate(budget);
                nodes
            }
            Algorithm::PageRank => {
                let ordering = self.cached_ordering(OrderingKey { tag: 1 }, pagerank_ordering);
                clock.lap("ordering");
                let mut nodes = ordering.to_vec();
                nodes.truncate(budget);
                nodes
            }
            Algorithm::Proximity => {
                let pool = self.cached_ordering(OrderingKey { tag: 2 }, proximity_pool);
                clock.lap("ordering");
                let mut rng = self.named_rng(Algorithm::Proximity.name(), budget);
                let mut nodes = pool.to_vec();
                nodes.shuffle(&mut rng);
                nodes.truncate(budget);
                nodes
            }
            Algorithm::Random => {
                let mut rng = self.named_rng(Algorithm::Random.name(), budget);
                let mut nodes: Vec<NodeId> = self
                    .instance
                    .snapshot()
                    .nodes()
                    .filter(|&v| !self.instance.is_rumor_seed(v))
                    .collect();
                nodes.shuffle(&mut rng);
                nodes.truncate(budget);
                nodes
            }
            Algorithm::NoBlocking => Vec::new(),
            Algorithm::Greedy | Algorithm::Scbg => {
                unreachable!("non-heuristic algorithms are dispatched by solve()")
            }
        };
        clock.lap("select");
        Ok(SolveReport {
            algorithm: request.algorithm.name().to_owned(),
            protectors,
            epoch: self.epoch,
            stages: clock.stages,
            cache_snapshot: self.cache.stats(),
            completion: Completion::Exact,
            detail: SolveDetail::Heuristic,
        })
    }

    fn cached_ordering(
        &self,
        key: OrderingKey,
        build: impl FnOnce(&RumorBlockingInstance) -> Vec<NodeId>,
    ) -> Arc<Vec<NodeId>> {
        self.cache
            .ordering
            .get_or_build(key, self.epoch, || Arc::new(build(&self.instance)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_with_budget;
    use lcrb_community::Partition;
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn chain_instance() -> RumorBlockingInstance {
        let g = generators::path_graph(4);
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap()
    }

    fn community_instance(seed: u64) -> RumorBlockingInstance {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, labels) =
            generators::planted_partition(&[20, 20, 20], 0.3, 0.03, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap()
    }

    fn sketch_request(budget: usize) -> SolveRequest {
        SolveRequest::greedy_budget(budget)
            .with_estimator(Estimator::Sketch(crate::SketchParams::default()))
    }

    /// The cache-counter increments charged by `work`.
    fn charged<R>(solver: &Solver, work: impl FnOnce() -> R) -> (R, CacheStats) {
        let before = solver.cache_stats();
        let out = work();
        (out, solver.cache_stats().delta_since(&before))
    }

    #[test]
    fn solver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Solver>();
        assert_send_sync::<SolveRequest>();
        assert_send_sync::<SolveReport>();
    }

    #[test]
    fn greedy_solve_matches_free_function_cold() {
        let inst = community_instance(5);
        let config = GreedyConfig {
            realizations: 16,
            max_hops: 20,
            ..GreedyConfig::default()
        };
        let free = greedy_with_budget(&inst, 2, &config).unwrap();
        let solver = Solver::new(inst);
        let (report, delta) = charged(&solver, || {
            solver
                .solve(&SolveRequest {
                    realizations: 16,
                    max_hops: 20,
                    ..SolveRequest::greedy_budget(2)
                })
                .unwrap()
        });
        assert_eq!(report.protectors, free.protectors);
        let SolveDetail::Greedy(sel) = &report.detail else {
            panic!("expected greedy detail");
        };
        assert_eq!(sel.sigma_history, free.sigma_history);
        assert_eq!(sel.achieved, free.achieved);
        assert_eq!(sel.evaluations, free.evaluations);
        // A cold solve misses everything it looks up.
        assert_eq!(delta.hits(), 0);
        assert!(delta.misses() >= 2); // bridge + celf
        assert_eq!(report.cache_snapshot, solver.cache_stats());
    }

    #[test]
    fn greedy_alpha_solve_matches_free_function() {
        // The reference is the budget-mode kernel run to a budget no
        // solve can reach: an α-mode report must be the shortest
        // prefix of that trajectory whose σ̂ reaches α·|B| — the
        // prefix consistency the CELF cache relies on.
        let inst = community_instance(7);
        let config = GreedyConfig {
            realizations: 12,
            max_hops: 15,
            ..GreedyConfig::default()
        };
        let full = greedy_with_budget(&inst, inst.graph().node_count(), &config).unwrap();
        let solver = Solver::new(inst);
        let report = solver
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_alpha(0.6)
            })
            .unwrap();
        let SolveDetail::Greedy(sel) = &report.detail else {
            panic!("expected greedy detail");
        };
        let target = 0.6 * full.bridge_ends.len() as f64;
        assert_eq!(sel.target, target);
        // σ̂(∅) is below the target here, so the prefix is non-empty
        // and its length is read off the σ̂ history.
        assert!(!report.protectors.is_empty());
        let len = full
            .sigma_history
            .iter()
            .position(|&sigma| sigma >= target)
            .map_or(full.protectors.len(), |i| i + 1);
        assert_eq!(report.protectors, full.protectors[..len]);
        assert_eq!(sel.sigma_history, full.sigma_history[..len]);
        assert_eq!(sel.achieved, full.sigma_history[len - 1]);
        assert_eq!(sel.target_met, sel.achieved >= target);
        assert!(sel.target_met);
    }

    #[test]
    fn warm_resolve_is_bitwise_identical_and_hits_cache() {
        let inst = community_instance(9);
        let solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 12,
            max_hops: 15,
            ..SolveRequest::greedy_budget(2)
        };
        let cold = solver.solve(&req).unwrap();
        let (warm, delta) = charged(&solver, || solver.solve(&req).unwrap());
        assert_eq!(warm.protectors, cold.protectors);
        let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&cold.detail, &warm.detail) else {
            panic!("expected greedy details");
        };
        assert_eq!(a.sigma_history, b.sigma_history);
        assert_eq!(a.achieved, b.achieved);
        // The warm solve re-evaluates nothing and hits every artifact.
        assert_eq!(b.evaluations, 0);
        assert_eq!(delta.misses(), 0);
        assert!(delta.hits() >= 2);
    }

    #[test]
    fn celf_key_separates_every_input_the_picks_depend_on() {
        let inst = community_instance(43);
        let solver = Solver::new(inst.clone());
        let base = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(2)
        };
        solver.solve(&base).unwrap();
        let sketch = base
            .clone()
            .with_estimator(Estimator::Sketch(crate::SketchParams::default()));
        // Each differs from the base in exactly one input, and so
        // shares a key with no request solved before it. The last
        // differs from the sketch variant only in its hop budget,
        // which the sketch sample depends on too.
        let variants = [
            SolveRequest {
                max_hops: 11,
                ..base.clone()
            },
            SolveRequest {
                realizations: 9,
                ..base.clone()
            },
            SolveRequest {
                candidates: CandidatePool::AllNonRumor,
                ..base.clone()
            },
            sketch.clone(),
            SolveRequest {
                max_hops: 11,
                ..sketch
            },
        ];
        for (i, variant) in variants.iter().enumerate() {
            let (warm, delta) = charged(&solver, || solver.solve(variant).unwrap());
            assert_eq!((delta.celf.misses, delta.celf.hits), (1, 0), "variant {i}");
            if i == variants.len() - 1 {
                assert_eq!((delta.sketch.misses, delta.sketch.hits), (1, 0));
            }
            let cold = Solver::new(inst.clone()).solve(variant).unwrap();
            assert_eq!(warm.protectors, cold.protectors, "variant {i}");
            let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&warm.detail, &cold.detail)
            else {
                panic!("expected greedy details");
            };
            let bits = |h: &[f64]| h.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.sigma_history),
                bits(&b.sigma_history),
                "variant {i}"
            );
            assert_eq!(a.achieved.to_bits(), b.achieved.to_bits(), "variant {i}");
        }
    }

    #[test]
    fn budget_change_resumes_the_cached_trajectory() {
        let inst = community_instance(11);
        let solver = Solver::new(inst.clone());
        let small = solver
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_budget(1)
            })
            .unwrap();
        let (grown, delta) = charged(&solver, || {
            solver
                .solve(&SolveRequest {
                    realizations: 12,
                    max_hops: 15,
                    ..SolveRequest::greedy_budget(3)
                })
                .unwrap()
        });
        // Prefix consistency: the grown solve extends the small one.
        assert_eq!(
            &grown.protectors[..small.protectors.len()],
            &small.protectors[..]
        );
        assert!(delta.hits() > 0);
        // And matches a cold solver asked for the large budget directly.
        let fresh = Solver::new(inst);
        let cold = fresh
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_budget(3)
            })
            .unwrap();
        assert_eq!(grown.protectors, cold.protectors);
        let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&grown.detail, &cold.detail) else {
            panic!("expected greedy details");
        };
        assert_eq!(a.sigma_history, b.sigma_history);
        assert_eq!(a.achieved, b.achieved);
        // Shrinking back reads a prefix without any new evaluations.
        let shrunk = solver
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_budget(1)
            })
            .unwrap();
        assert_eq!(shrunk.protectors, small.protectors);
        let SolveDetail::Greedy(s) = &shrunk.detail else {
            panic!("expected greedy detail");
        };
        assert_eq!(s.evaluations, 0);
    }

    #[test]
    fn sketch_index_is_shared_across_budgets() {
        let inst = community_instance(13);
        let solver = Solver::new(inst.clone());
        let (cold, cold_delta) = charged(&solver, || solver.solve(&sketch_request(1)).unwrap());
        assert_eq!(cold_delta.sketch.misses, 1);
        let (warm, warm_delta) = charged(&solver, || solver.solve(&sketch_request(3)).unwrap());
        assert_eq!(warm_delta.sketch.hits, 1);
        assert_eq!(warm_delta.sketch.misses, 0);
        assert_eq!(warm_delta.bridge.hits, 1);
        let _ = cold;
        // Bitwise identical to a cold budget-3 sketch solve.
        let fresh = Solver::new(inst);
        let direct = fresh.solve(&sketch_request(3)).unwrap();
        assert_eq!(warm.protectors, direct.protectors);
        let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&warm.detail, &direct.detail)
        else {
            panic!("expected greedy details");
        };
        assert_eq!(a.sigma_history, b.sigma_history);
    }

    #[test]
    fn alpha_after_budget_reuses_the_trajectory() {
        let inst = community_instance(15);
        let solver = Solver::new(inst.clone());
        solver
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_budget(4)
            })
            .unwrap();
        let warm = solver
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_alpha(0.6)
            })
            .unwrap();
        let fresh = Solver::new(inst);
        let cold = fresh
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                ..SolveRequest::greedy_alpha(0.6)
            })
            .unwrap();
        assert_eq!(warm.protectors, cold.protectors);
        let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&warm.detail, &cold.detail) else {
            panic!("expected greedy details");
        };
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.target, b.target);
        assert_eq!(a.target_met, b.target_met);
    }

    #[test]
    fn invalidate_forces_cold_resolve() {
        let inst = community_instance(17);
        let mut solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(1)
        };
        let cold = solver.solve(&req).unwrap();
        assert_eq!(solver.epoch(), 0);
        solver.invalidate();
        assert_eq!(solver.epoch(), 1);
        let before = solver.cache_stats();
        let after = solver.solve(&req).unwrap();
        let delta = solver.cache_stats().delta_since(&before);
        assert_eq!(after.epoch, 1);
        assert_eq!(delta.hits(), 0);
        assert_eq!(after.protectors, cold.protectors);
    }

    #[test]
    fn set_rumor_seeds_revalidates_and_invalidates() {
        let inst = community_instance(19);
        let members = inst.rumor_community_members();
        let fresh_seed = members
            .iter()
            .copied()
            .find(|&v| !inst.is_rumor_seed(v))
            .unwrap();
        let mut solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(1)
        };
        solver.solve(&req).unwrap();
        let epoch_before = solver.epoch();
        solver.set_rumor_seeds(vec![fresh_seed]).unwrap();
        assert_eq!(solver.epoch(), epoch_before + 1);
        assert_eq!(solver.instance().rumor_seeds(), &[fresh_seed]);
        let before = solver.cache_stats();
        solver.solve(&req).unwrap();
        assert_eq!(solver.cache_stats().delta_since(&before).hits(), 0);
        // An invalid update leaves the session untouched.
        let err = solver.set_rumor_seeds(vec![]).unwrap_err();
        assert!(matches!(err, LcrbError::NoRumorSeeds));
        assert_eq!(solver.instance().rumor_seeds(), &[fresh_seed]);
    }

    #[test]
    fn scbg_solve_matches_free_function_and_caches() {
        let inst = community_instance(21);
        let free = scbg(&inst, &ScbgConfig::default());
        let solver = Solver::new(inst);
        let cold = solver.solve(&SolveRequest::scbg()).unwrap();
        assert_eq!(cold.protectors, free.protectors);
        let SolveDetail::Scbg(sol) = &cold.detail else {
            panic!("expected scbg detail");
        };
        assert_eq!(sol.covered, free.covered);
        let (warm, delta) = charged(&solver, || solver.solve(&SolveRequest::scbg()).unwrap());
        assert_eq!(delta.scbg.hits, 1);
        assert_eq!(warm.protectors, free.protectors);
    }

    #[test]
    fn heuristics_match_their_orderings_and_cache_them() {
        let inst = community_instance(25);
        let solver = Solver::new(inst.clone());
        // Deterministic heuristics are budget prefixes of their
        // orderings.
        let md = solver
            .solve(&SolveRequest::heuristic(Algorithm::MaxDegree, 3))
            .unwrap();
        let mut ordering = max_degree_ordering(&inst);
        ordering.truncate(3);
        assert_eq!(md.protectors, ordering);
        let (_md_warm, delta) = charged(&solver, || {
            solver
                .solve(&SolveRequest::heuristic(Algorithm::MaxDegree, 5))
                .unwrap()
        });
        assert_eq!(delta.ordering.hits, 1);
        let pr = solver
            .solve(&SolveRequest::heuristic(Algorithm::PageRank, 3))
            .unwrap();
        let mut pr_ordering = pagerank_ordering(&inst);
        pr_ordering.truncate(3);
        assert_eq!(pr.protectors, pr_ordering);
        // Proximity picks come from the pool.
        let pool = proximity_pool(&inst);
        let prox = solver
            .solve(&SolveRequest::heuristic(Algorithm::Proximity, 2))
            .unwrap();
        assert!(prox.protectors.iter().all(|v| pool.contains(v)));
        // Random picks are valid non-rumor nodes of the right count.
        let rnd = solver
            .solve(&SolveRequest::heuristic(Algorithm::Random, 4))
            .unwrap();
        assert_eq!(rnd.protectors.len(), 4);
        assert!(rnd.protectors.iter().all(|&v| !inst.is_rumor_seed(v)));
        let none = solver
            .solve(&SolveRequest::heuristic(Algorithm::NoBlocking, 4))
            .unwrap();
        assert!(none.protectors.is_empty());
    }

    #[test]
    fn heuristic_solves_are_deterministic_per_request() {
        let inst = community_instance(27);
        let a = Solver::new(inst.clone());
        let b = Solver::new(inst);
        for algo in [Algorithm::Proximity, Algorithm::Random] {
            let req = SolveRequest::heuristic(algo, 3);
            assert_eq!(
                a.solve(&req).unwrap().protectors,
                b.solve(&req).unwrap().protectors
            );
            // Same request twice on one solver: same picks.
            assert_eq!(
                a.solve(&req).unwrap().protectors,
                b.solve(&req).unwrap().protectors
            );
        }
    }

    #[test]
    fn unsupported_requests_are_typed_errors() {
        let inst = chain_instance();
        let solver = Solver::new(inst);
        for req in [
            SolveRequest {
                stop: StopRule::Alpha(0.5),
                ..SolveRequest::heuristic(Algorithm::MaxDegree, 1)
            },
            SolveRequest {
                stop: StopRule::Alpha(0.5),
                ..SolveRequest::scbg()
            },
        ] {
            assert!(matches!(
                solver.solve(&req).unwrap_err(),
                LcrbError::UnsupportedRequest { .. }
            ));
        }
        assert!(matches!(
            solver.solve(&SolveRequest::greedy_alpha(1.5)).unwrap_err(),
            LcrbError::InvalidAlpha { .. }
        ));
        let bad_sketch =
            SolveRequest::greedy_budget(1).with_estimator(Estimator::Sketch(crate::SketchParams {
                epsilon: 0.0,
                ..crate::SketchParams::default()
            }));
        assert!(matches!(
            solver.solve(&bad_sketch).unwrap_err(),
            LcrbError::InvalidSketchParams { .. }
        ));
    }

    #[test]
    fn failed_solve_does_not_poison_the_cache() {
        let inst = community_instance(29);
        let solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(2)
        };
        let cold = solver.solve(&req).unwrap();
        // A failing request (bad sketch params) between two good ones.
        let bad =
            SolveRequest::greedy_budget(2).with_estimator(Estimator::Sketch(crate::SketchParams {
                delta: 1.0,
                ..crate::SketchParams::default()
            }));
        assert!(solver.solve(&bad).is_err());
        let (warm, delta) = charged(&solver, || solver.solve(&req).unwrap());
        assert_eq!(warm.protectors, cold.protectors);
        assert_eq!(delta.misses(), 0);
    }

    #[test]
    fn failed_sketch_build_frees_same_key_waiters() {
        // InvalidSketchParams that pass `validate()` but fail at build
        // time don't exist today, so exercise the error path at the
        // family-cache level directly: a failed build vacates the slot
        // and the next lookup rebuilds.
        let cache: FamilyCache<u8, u32> = FamilyCache::default();
        let err: Result<u32, &str> = cache.get_or_try_build(1, 0, || Err("boom"));
        assert_eq!(err, Err("boom"));
        // The slot was vacated: the next build runs (another miss).
        let ok: Result<u32, &str> = cache.get_or_try_build(1, 0, || Ok(7));
        assert_eq!(ok, Ok(7));
        let stats = cache.counters.snapshot();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
        // And the stored value now hits.
        let again: Result<u32, &str> = cache.get_or_try_build(1, 0, || Err("unused"));
        assert_eq!(again, Ok(7));
        assert_eq!(cache.counters.snapshot().hits, 1);
    }

    #[test]
    fn family_cache_builds_once_under_contention() {
        let cache: FamilyCache<u8, u64> = FamilyCache::default();
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let builds = &builds;
                scope.spawn(move || {
                    let v = cache.get_or_build(3, 0, || {
                        builds.fetch_add(1, AtomicOrdering::Relaxed);
                        // Widen the race window so waiters actually park.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(builds.load(AtomicOrdering::Relaxed), 1);
        let stats = cache.counters.snapshot();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    /// The CELF claim under every 2-thread schedule: a same-epoch
    /// `take` waits out the other claim, so each advance resumes the
    /// value the other stored and none is lost. CI runs this in the
    /// schedule-exploration job next to `tests/concurrency_model.rs`.
    #[test]
    fn dfs_take_waits_out_a_same_epoch_claim() {
        use lcrb_sync::sched::{self, Config};
        let exploration = sched::explore_dfs(&Config::default(), || {
            let cache: FamilyCache<u8, u64> = FamilyCache::default();
            let advance = || {
                let (value, claim) = cache.take(7, 0);
                claim.store(value.map_or(1, |v| v + 1));
            };
            lcrb_sync::thread::scope(|scope| {
                let handles = [scope.spawn(advance), scope.spawn(advance)];
                for h in handles {
                    h.join().expect("advance");
                }
            });
            assert_eq!(
                cache.peek(7, 0, |&v| Some(v)),
                Some(2),
                "an advance was lost"
            );
            let counters = cache.counter_snapshot();
            assert_eq!((counters.hits, counters.misses), (2, 1));
        })
        .expect("a claim must hold its key under every schedule");
        assert!(exploration.schedules > 1);
        assert!(exploration.complete);
    }

    #[test]
    fn solve_many_matches_serial_solves() {
        let inst = community_instance(37);
        let batch = [
            SolveRequest {
                realizations: 8,
                max_hops: 10,
                ..SolveRequest::greedy_budget(2)
            },
            SolveRequest::scbg(),
            SolveRequest::heuristic(Algorithm::MaxDegree, 2),
            SolveRequest {
                realizations: 8,
                max_hops: 10,
                ..SolveRequest::greedy_budget(3)
            },
        ];
        let serial_solver = Solver::new(inst.clone());
        let serial: Vec<_> = batch.iter().map(|r| serial_solver.solve(r)).collect();
        let solver = Solver::new(inst);
        let parallel = solver.solve_many_threaded(&batch, 3);
        assert_eq!(parallel.len(), serial.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.algorithm, p.algorithm);
            assert_eq!(s.protectors, p.protectors);
        }
    }

    #[test]
    fn solve_many_preserves_order_and_isolates_errors() {
        let inst = community_instance(39);
        let solver = Solver::new(inst);
        let batch = [
            SolveRequest::heuristic(Algorithm::MaxDegree, 1),
            SolveRequest::greedy_alpha(1.5), // invalid α
            SolveRequest::heuristic(Algorithm::NoBlocking, 1),
        ];
        let reports = solver.solve_many_threaded(&batch, 2);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].as_ref().unwrap().algorithm, "max-degree");
        assert!(matches!(
            reports[1].as_ref().unwrap_err(),
            LcrbError::InvalidAlpha { .. }
        ));
        assert_eq!(reports[2].as_ref().unwrap().algorithm, "no-blocking");
    }

    #[test]
    fn concurrent_same_key_solves_build_the_trajectory_once() {
        let inst = community_instance(41);
        let solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(2)
        };
        let batch = vec![req.clone(); 6];
        let (reports, delta) = charged(&solver, || solver.solve_many_threaded(&batch, 6));
        let first = reports[0].as_ref().unwrap();
        for r in &reports {
            let r = r.as_ref().unwrap();
            assert_eq!(r.protectors, first.protectors);
        }
        // Exactly one cold build: the other five solves waited on the
        // claim and resumed the parked trajectory.
        assert_eq!(delta.celf.misses, 1);
        assert_eq!(delta.celf.hits, 5);
        assert_eq!(delta.bridge.misses, 1);
    }

    #[test]
    fn reports_carry_stage_timings() {
        let inst = chain_instance();
        let solver = Solver::new(inst);
        let report = solver
            .solve(&SolveRequest {
                realizations: 4,
                ..SolveRequest::greedy_budget(1)
            })
            .unwrap();
        let names: Vec<_> = report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, ["bridge", "estimator", "select"]);
        assert!(report.stage_nanos("select").is_some());
        assert!(report.stage_nanos("nope").is_none());
        assert_eq!(
            report.total_nanos(),
            report.stages.iter().map(|s| s.nanos).sum::<u128>()
        );
    }

    #[test]
    fn cache_stats_accumulate_and_delta() {
        let inst = community_instance(35);
        let solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(1)
        };
        let before = solver.cache_stats();
        assert_eq!(before.hits() + before.misses(), 0);
        solver.solve(&req).unwrap();
        solver.solve(&req).unwrap();
        let after = solver.cache_stats();
        assert!(after.hits() >= 2);
        assert!(after.misses() >= 2);
        let delta = after.delta_since(&before);
        assert_eq!(delta.hits(), after.hits());
    }

    #[test]
    fn advance_budget_degrades_to_prefix_of_exact_run() {
        let inst = community_instance(41);
        let req = SolveRequest {
            realizations: 12,
            max_hops: 15,
            ..SolveRequest::greedy_budget(3)
        };
        let exact = Solver::new(inst.clone()).solve(&req).unwrap();
        assert_eq!(exact.completion, Completion::Exact);
        assert!(!exact.is_degraded());
        assert_eq!(exact.protectors.len(), 3);

        let starved = Solver::new(inst)
            .solve(
                &req.clone()
                    .with_budget(RunBudget::unlimited().with_max_advances(1)),
            )
            .unwrap();
        assert_eq!(
            starved.completion,
            Completion::Degraded {
                checkpoints_done: 1,
                checkpoints_total: 3,
                reason: StopReason::AdvanceBudget,
            }
        );
        assert!(starved.is_degraded());
        // Best-so-far is a bitwise prefix of the uncancelled run.
        assert_eq!(starved.protectors[..], exact.protectors[..1]);
        let (SolveDetail::Greedy(s), SolveDetail::Greedy(e)) = (&starved.detail, &exact.detail)
        else {
            panic!("expected greedy details");
        };
        assert_eq!(s.sigma_history[..], e.sigma_history[..1]);
    }

    #[test]
    fn degraded_solve_parks_a_reusable_prefix() {
        let inst = community_instance(43);
        let req = SolveRequest {
            realizations: 12,
            max_hops: 15,
            ..SolveRequest::greedy_budget(3)
        };
        let solver = Solver::new(inst.clone());
        let starved = solver
            .solve(
                &req.clone()
                    .with_budget(RunBudget::unlimited().with_max_advances(2)),
            )
            .unwrap();
        assert!(starved.is_degraded());
        assert_eq!(starved.protectors.len(), 2);
        // The parked partial trajectory resumes and the finished solve
        // is bitwise-equal to a cold exact run: degraded solves never
        // poison the session.
        let resumed = solver.solve(&req).unwrap();
        assert_eq!(resumed.completion, Completion::Exact);
        let cold = Solver::new(inst).solve(&req).unwrap();
        assert_eq!(resumed.protectors, cold.protectors);
        let (SolveDetail::Greedy(a), SolveDetail::Greedy(b)) = (&resumed.detail, &cold.detail)
        else {
            panic!("expected greedy details");
        };
        assert_eq!(a.sigma_history, b.sigma_history);
    }

    #[test]
    fn sim_budget_stops_the_initial_sweep_gracefully() {
        let inst = community_instance(45);
        let report = Solver::new(inst)
            .solve(&SolveRequest {
                realizations: 12,
                max_hops: 15,
                budget: RunBudget::unlimited().with_max_sims(0),
                ..SolveRequest::greedy_budget(2)
            })
            .unwrap();
        assert!(report.is_degraded());
        assert!(report.protectors.is_empty());
        let Completion::Degraded { reason, .. } = report.completion else {
            panic!("expected a degraded completion");
        };
        assert_eq!(reason, StopReason::SimBudget);
    }

    #[test]
    fn cancelled_request_errors_without_poisoning_the_session() {
        let inst = community_instance(49);
        let solver = Solver::new(inst.clone());
        let token = CancelToken::new();
        token.cancel();
        let req = SolveRequest {
            realizations: 12,
            max_hops: 15,
            ..SolveRequest::greedy_budget(2)
        };
        let err = solver.solve(&req.clone().with_cancel(token)).unwrap_err();
        assert!(matches!(
            err,
            LcrbError::Interrupted {
                reason: StopReason::Cancelled
            }
        ));
        // The aborted build vacated its cache slots: a later solve on
        // the same session rebuilds and matches a cold solver.
        let after = solver.solve(&req).unwrap();
        assert_eq!(after.completion, Completion::Exact);
        let cold = Solver::new(inst).solve(&req).unwrap();
        assert_eq!(after.protectors, cold.protectors);
    }

    #[test]
    fn expired_deadline_interrupts_every_algorithm() {
        let inst = community_instance(51);
        let solver = Solver::new(inst);
        let deadline = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        for req in [
            SolveRequest::greedy_budget(1),
            sketch_request(1),
            SolveRequest::scbg(),
        ] {
            let err = solver.solve(&req.with_budget(deadline)).unwrap_err();
            assert!(matches!(
                err,
                LcrbError::Interrupted {
                    reason: StopReason::DeadlineExpired
                }
            ));
        }
    }

    #[test]
    fn batch_cancel_interrupts_every_request() {
        let inst = community_instance(55);
        let solver = Solver::new(inst);
        let req = SolveRequest {
            realizations: 8,
            max_hops: 10,
            ..SolveRequest::greedy_budget(1)
        };
        let plain_batch = vec![req.clone(); 4];
        // One token cloned onto every request: clones share the flag.
        let token = CancelToken::new();
        let batch = vec![req.with_cancel(token.clone()); 4];
        // An untripped token leaves the batch equal to a plain one.
        let with_token = solver.solve_many_threaded(&batch, 2);
        let plain = solver.solve_many_threaded(&plain_batch, 2);
        for (a, b) in with_token.iter().zip(&plain) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.protectors, b.protectors);
            assert_eq!(a.completion, Completion::Exact);
            assert_eq!(b.completion, Completion::Exact);
        }
        token.cancel();
        for slot in solver.solve_many_threaded(&batch, 2) {
            assert!(matches!(
                slot,
                Err(LcrbError::Interrupted {
                    reason: StopReason::Cancelled
                })
            ));
        }
    }
}
