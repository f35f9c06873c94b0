//! The greedy algorithm for LCRB-P (Algorithm 1 of the paper), with
//! CELF lazy evaluation.
//!
//! Algorithm 1 repeatedly adds the node with the largest marginal
//! gain in expected bridge-end protection until `σ(S_P) ≥ α·|B|`.
//! Submodularity of `σ` (Theorem 1) gives the classic `(1 − 1/e)`
//! guarantee and also makes CELF lazy evaluation sound: a node's
//! marginal gain can only shrink as the solution grows, so a stale
//! heap entry that still tops the heap after re-scoring is the true
//! argmax. The paper's conclusion flags greedy's cost as its main
//! drawback; CELF (plus parallel evaluation of the initial gains) is
//! the standard remedy, and the only pick loop here. Its picks reach
//! plain Algorithm 1's round maximum bit for bit, with no more
//! evaluations (`greedy_budget_mode_invariants` in the crate's
//! property tests).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lcrb_diffusion::{
    LaneWorkspace, ScratchPool, SimWorkspace, StopReason, TargetTable, WorkMeter, OPOAO_LANES,
};
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::NodeId;

use crate::scbg::BbstWalker;
use crate::{
    find_bridge_ends, BridgeEndRule, BridgeEnds, CoverageScratch, LcrbError, ProtectionObjective,
    RumorBlockingInstance, SketchObjective, SketchParams,
};

/// Where Algorithm 1 looks for protector candidates.
///
/// The paper's pseudocode scans all of `V \ (S_P ∪ S_R)`; on large
/// networks a restricted pool evaluates far fewer candidates without
/// hurting quality (nodes that cannot reach any bridge end in time
/// have zero gain anyway).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CandidatePool {
    /// Every node except the rumor originators (the paper's literal
    /// candidate set).
    AllNonRumor,
    /// Nodes that can reach some bridge end within `radius` hops
    /// (backward BFS from the bridge ends).
    BackwardRadius(u32),
    /// Nodes that can reach some bridge end `v` within `d_R(v)` hops —
    /// the union of the SCBG BBSTs, i.e. everything that could beat
    /// the rumor to some bridge end under DOAM timing. The default.
    #[default]
    BbstUnion,
}

/// How the greedy estimates `σ̂` (see DESIGN.md "Estimators").
///
/// Monte Carlo re-simulates the realization batch for every marginal
/// gain query; the sketch estimator pays a one-time RR-sketch sample
/// and answers every query by coverage counting
/// ([`SketchObjective`]). Sketches ignore
/// [`GreedyConfig::realizations`] (the sample size comes from the
/// `(ε, δ)` schedule in [`SketchParams`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Estimator {
    /// Simulation over the coupled realization batch (the default).
    #[default]
    MonteCarlo,
    /// Reverse-reachable sketch coverage (the RIS estimator).
    Sketch(SketchParams),
}

/// Configuration for [`greedy_with_budget`] (the session engine
/// builds one from each greedy [`crate::engine::SolveRequest`]).
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// Number of coupled realizations for the `σ̂` estimator.
    pub realizations: usize,
    /// Master seed for the realization batch.
    pub master_seed: u64,
    /// Hop budget per simulated OPOAO diffusion.
    pub max_hops: u32,
    /// Candidate pool to draw from.
    pub candidates: CandidatePool,
    /// Bridge-end detection rule.
    pub rule: BridgeEndRule,
    /// Worker threads for the initial gain sweep (0 = available
    /// parallelism).
    pub threads: usize,
    /// How `σ̂` is estimated: Monte-Carlo simulation or RR-sketch
    /// coverage.
    pub estimator: Estimator,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            realizations: 64,
            master_seed: 0,
            max_hops: lcrb_diffusion::PAPER_OPOAO_HOPS,
            candidates: CandidatePool::default(),
            rule: BridgeEndRule::default(),
            threads: 0,
            estimator: Estimator::default(),
        }
    }
}

/// The outcome of a greedy run.
#[derive(Clone, Debug)]
pub struct GreedySelection {
    /// Selected protector originators, in selection order.
    pub protectors: Vec<NodeId>,
    /// `σ̂` after each selection (index 0 = after the first pick).
    pub sigma_history: Vec<f64>,
    /// The stopping target `α·|B|` (`f64::INFINITY` in budget mode).
    pub target: f64,
    /// Final `σ̂` achieved.
    pub achieved: f64,
    /// Whether the target was reached before the candidate pool or
    /// the budget ran out.
    pub target_met: bool,
    /// Number of logical `σ̂` evaluations: one per candidate set
    /// scored, however the evaluations were packed — the initial
    /// sweep scores 64 candidates per OPOAO realization pass and still
    /// counts each of them.
    pub evaluations: usize,
    /// The bridge ends protected against.
    pub bridge_ends: BridgeEnds,
}

/// An `f64` known to be finite, ordered for use in the CELF heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FiniteF64(f64);

impl Eq for FiniteF64 {}

impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            // xtask-allow: panic -- FiniteF64 wraps only checked-finite gains, so partial_cmp cannot return None
            .expect("gains are finite by construction")
    }
}

/// Budget-mode greedy: selects exactly `budget` protectors (or fewer
/// if gains hit zero). This is how the paper's OPOAO experiments use
/// the greedy — "for the same number of protector and rumor
/// originators, how many nodes will be infected?" (§VI-B2).
///
/// This is the one-shot kernel behind
/// [`crate::engine::SolveRequest::greedy_budget`]: it rebuilds the
/// bridge ends and the `σ̂` estimator per call. Select through a
/// [`crate::engine::Solver`], which reuses the sketch sample and CELF
/// state across budgets and also serves α targets; call this
/// directly only to measure the greedy layer on its own.
///
/// # Errors
///
/// Returns [`LcrbError::NoRealizations`] if `config.realizations ==
/// 0`.
pub fn greedy_with_budget(
    instance: &RumorBlockingInstance,
    budget: usize,
    config: &GreedyConfig,
) -> Result<GreedySelection, LcrbError> {
    let bridge_ends = find_bridge_ends(instance, config.rule);
    let backend = build_backend(instance, config, bridge_ends.nodes.clone())?;
    let mut traj = GreedyTrajectory::new(candidate_pool(instance, &bridge_ends, config.candidates));
    // A one-shot pool: the sequential CELF loop leases one long-lived
    // scratch (a `SimWorkspace` plus reusable seed pair against the
    // CSR snapshot for Monte Carlo, coverage stamps for sketches) and
    // the initial sweep leases one per worker.
    let pool = ScratchPool::new();
    let mut meter = WorkMeter::unlimited();
    advance_trajectory(
        &backend,
        &mut traj,
        f64::INFINITY,
        budget,
        config.threads,
        &pool,
        &mut meter,
    )?;
    let evaluations = traj.evaluations();
    Ok(selection_from_trajectory(
        &traj,
        f64::INFINITY,
        budget,
        evaluations,
        bridge_ends,
    ))
}

/// The `σ̂` estimator selected by [`GreedyConfig::estimator`], behind
/// one `sigma_with`-shaped call for the CELF loop.
///
/// Crate-internal so the session engine ([`crate::engine::Solver`])
/// can assemble one from cached artifacts (a shared
/// [`crate::SketchIndex`]) instead of rebuilding per solve.
pub(crate) enum SigmaBackend<'a> {
    Mc(ProtectionObjective<'a>),
    Sketch(SketchObjective<'a>),
}

/// Per-worker scratch covering either backend (all parts are empty
/// until first used, so carrying the unused ones is free): a
/// [`SimWorkspace`], a reusable seed pair and a trial-set buffer for
/// Monte Carlo, lane masks and one realization's target table for the
/// packed OPOAO sweep, coverage stamps for sketches.
#[derive(Debug, Default)]
pub(crate) struct SigmaScratch {
    ws: SimWorkspace,
    seeds: Option<lcrb_diffusion::SeedSets>,
    trial: Vec<NodeId>,
    lanes: LaneWorkspace,
    targets: TargetTable,
    coverage: CoverageScratch,
}

impl SigmaBackend<'_> {
    pub(crate) fn sigma_with(
        &self,
        protectors: &[NodeId],
        s: &mut SigmaScratch,
    ) -> Result<f64, LcrbError> {
        match self {
            SigmaBackend::Mc(obj) => {
                obj.sigma_with_cached_seeds(protectors, &mut s.seeds, &mut s.ws)
            }
            SigmaBackend::Sketch(obj) => obj.sigma_with(protectors, &mut s.coverage),
        }
    }

    /// `σ̂(selection ∪ {candidate})`, equal bit for bit to
    /// `sigma_with` on that set, for the CELF re-scores.
    ///
    /// Monte Carlo replays the realization batch on the trial set. The
    /// sketch backend marks the selection's sketches in `s` when
    /// `*marks` is `None`, stores covered(S) there, and then reads only
    /// the candidate's sketches. The caller owns `marks`: it starts
    /// `None` with every new lease and selection, and `s` serves
    /// nothing else while it is `Some`.
    pub(crate) fn sigma_plus(
        &self,
        selection: &[NodeId],
        candidate: NodeId,
        marks: &mut Option<u64>,
        s: &mut SigmaScratch,
    ) -> Result<f64, LcrbError> {
        match self {
            SigmaBackend::Mc(obj) => {
                s.trial.clear();
                s.trial.extend_from_slice(selection);
                s.trial.push(candidate);
                obj.sigma_with_cached_seeds(&s.trial, &mut s.seeds, &mut s.ws)
            }
            SigmaBackend::Sketch(obj) => {
                let covered =
                    *marks.get_or_insert_with(|| obj.mark_selection(selection, &mut s.coverage));
                obj.sigma_plus_marked(covered, candidate, &s.coverage)
            }
        }
    }

    /// Monte-Carlo simulations charged per `sigma_with` evaluation:
    /// one per realization for the MC backend, zero for sketches
    /// (their sampling cost is charged at sketch generation).
    pub(crate) fn sim_cost(&self) -> u64 {
        match self {
            SigmaBackend::Mc(obj) => obj.realization_count() as u64,
            SigmaBackend::Sketch(_) => 0,
        }
    }
}

/// Builds the `σ̂` backend the config asks for, sampling sketches or
/// deriving the realization batch as needed.
pub(crate) fn build_backend<'a>(
    instance: &'a RumorBlockingInstance,
    config: &GreedyConfig,
    bridge_nodes: Vec<NodeId>,
) -> Result<SigmaBackend<'a>, LcrbError> {
    Ok(match config.estimator {
        Estimator::MonteCarlo => SigmaBackend::Mc(ProtectionObjective::new(
            instance,
            bridge_nodes,
            config.realizations,
            config.master_seed,
            config.max_hops,
        )?),
        Estimator::Sketch(params) => SigmaBackend::Sketch(SketchObjective::build(
            instance,
            bridge_nodes,
            params,
            config.master_seed,
            config.max_hops,
        )?),
    })
}

/// The resumable state of one greedy run: the CELF pick sequence so
/// far, plus everything needed to continue it.
///
/// The key invariant (CELF prefix consistency): the stopping rule —
/// target `α·|B|` or budget cap — only decides *where the pick
/// sequence stops*, never *which node is picked next*. So a
/// trajectory extended under one stopping rule serves any other rule
/// bitwise-identically: smaller budgets and already-met targets read
/// a prefix; larger ones resume the loop from the stored heap, which
/// has seen exactly the same push/pop sequence an uninterrupted cold
/// run would have produced. The session engine caches trajectories
/// across solves on the strength of this invariant.
#[derive(Clone, Debug)]
pub(crate) struct GreedyTrajectory {
    candidates: Vec<NodeId>,
    selected: Vec<NodeId>,
    sigma_history: Vec<f64>,
    sigma_empty: f64,
    sigma_current: f64,
    /// Cumulative σ̂ evaluations over the trajectory's whole life.
    evaluations: usize,
    /// CELF heap: (gain, candidate index, round the gain was scored).
    heap: BinaryHeap<(FiniteF64, usize, usize)>,
    round: usize,
    /// Whether `sigma_empty` has been evaluated.
    started: bool,
    /// Whether the initial parallel gain sweep has run.
    swept: bool,
    /// The pick loop ended with no positive marginal gain left;
    /// gains only shrink (submodularity), so no extension can ever
    /// add another pick.
    exhausted: bool,
}

impl GreedyTrajectory {
    pub(crate) fn new(candidates: Vec<NodeId>) -> Self {
        GreedyTrajectory {
            candidates,
            selected: Vec::new(),
            sigma_history: Vec::new(),
            sigma_empty: 0.0,
            sigma_current: 0.0,
            evaluations: 0,
            heap: BinaryHeap::new(),
            round: 0,
            started: false,
            swept: false,
            exhausted: false,
        }
    }

    /// Cumulative σ̂ evaluations across every extension so far.
    pub(crate) fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Size of the candidate pool the trajectory selects from.
    pub(crate) fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the trajectory already answers a solve to `target` or
    /// `cap` picks: [`advance_trajectory`] would evaluate and pick
    /// nothing.
    pub(crate) fn answers(&self, target: f64, cap: usize) -> bool {
        self.started && self.stops(target, cap)
    }

    /// The pick loop's stopping rule: σ̂ meets `target`, `cap` picks
    /// are made, or no candidate or positive gain is left.
    fn stops(&self, target: f64, cap: usize) -> bool {
        self.sigma_current >= target
            || self.selected.len() >= cap
            || self.exhausted
            || self.candidates.is_empty()
    }
}

/// Maps a checkpoint stop to `advance_trajectory`'s outcome:
/// cancellation aborts the solve as a typed error (the caller's drop
/// path vacates its lease), budget/deadline stops degrade gracefully
/// (the trajectory stays prefix-consistent and is parked).
fn stop_outcome(stop: StopReason) -> Result<Option<StopReason>, LcrbError> {
    if stop == StopReason::Cancelled {
        Err(LcrbError::Interrupted { reason: stop })
    } else {
        Ok(Some(stop))
    }
}

/// Extends `traj` until the stopping rule holds: `σ̂ ≥ target`, `cap`
/// picks made, or the candidate pool is out of positive gains.
///
/// Replays exactly the cold Algorithm 1 + CELF loop; on a fresh
/// trajectory this *is* the cold run. Scratch space is leased from
/// `pool` (one lease for the sequential loop, one per worker in the
/// initial sweep) and returned when the call finishes, so concurrent
/// callers share the pool without sharing buffers.
///
/// Re-scores go through [`SigmaBackend::sigma_plus`]. Its selection
/// marks live in this call's lease and are dropped at every pick: a
/// pooled scratch may serve another trajectory before the next call.
///
/// Budget checkpoints sit at the loop's serial boundaries: σ̂
/// evaluations charge their simulation cost before running
/// (all-or-nothing — the initial sweep is charged whole), advances
/// are checked before each pick's work starts. Any stop therefore
/// leaves `traj` exactly as an uninterrupted run would have it after
/// the same picks — prefix-consistent and safe to park. Returns
/// `Ok(None)` when a stopping rule was reached, `Ok(Some(reason))`
/// when a budget or deadline checkpoint stopped the loop early.
pub(crate) fn advance_trajectory(
    backend: &SigmaBackend<'_>,
    traj: &mut GreedyTrajectory,
    target: f64,
    cap: usize,
    threads: usize,
    pool: &ScratchPool<SigmaScratch>,
    meter: &mut WorkMeter,
) -> Result<Option<StopReason>, LcrbError> {
    let sim_cost = backend.sim_cost();
    let mut lease = pool.lease();
    let scratch = &mut *lease;
    let mut marks = None;
    if !traj.started {
        if let Err(stop) = meter.charge_sims(sim_cost) {
            return stop_outcome(stop);
        }
        traj.sigma_empty = backend.sigma_with(&[], scratch)?;
        traj.sigma_current = traj.sigma_empty;
        traj.evaluations += 1;
        traj.started = true;
    }

    while !traj.stops(target, cap) {
        if meter.advances_exhausted() {
            return Ok(Some(StopReason::AdvanceBudget));
        }
        if !traj.swept {
            // Initial sweep: marginal gain of every candidate alone,
            // evaluated in parallel. Runs at most once per trajectory
            // (always with the empty selection), so resumed runs see
            // the same gains a cold run would. Charged whole: a sweep
            // that does not fit under the simulation cap never starts,
            // so partial sweeps cannot exist.
            if let Err(stop) = meter.charge_sims(sim_cost * traj.candidates.len() as u64) {
                return stop_outcome(stop);
            }
            let gains = match parallel_initial_gains(
                backend,
                &traj.candidates,
                traj.sigma_current,
                threads,
                pool,
                meter,
            ) {
                Ok(gains) => gains,
                // A cancellation/deadline poll fired mid-sweep: the
                // sweep mutated nothing (`swept` stays false), so the
                // trajectory is still the pre-sweep prefix.
                Err(LcrbError::Interrupted { reason }) => return stop_outcome(reason),
                Err(e) => return Err(e),
            };
            traj.evaluations += traj.candidates.len();
            traj.heap = gains
                .iter()
                .enumerate()
                .map(|(i, &g)| (FiniteF64(g), i, 0))
                // xtask-allow: hotreach -- runs once per trajectory (guarded by `swept`), not per pick
                .collect();
            traj.swept = true;
        }
        let Some((FiniteF64(gain), idx, scored_round)) = traj.heap.pop() else {
            traj.exhausted = true;
            break;
        };
        if scored_round < traj.round {
            // Stale: re-score against the current selection.
            if let Err(stop) = meter.charge_sims(sim_cost) {
                // Restore the popped entry so the parked heap matches
                // an uninterrupted run's at this boundary.
                traj.heap.push((FiniteF64(gain), idx, scored_round));
                return stop_outcome(stop);
            }
            let s =
                backend.sigma_plus(&traj.selected, traj.candidates[idx], &mut marks, scratch)?;
            traj.evaluations += 1;
            traj.heap
                .push((FiniteF64(s - traj.sigma_current), idx, traj.round));
            continue;
        }
        if gain <= 1e-12 {
            traj.exhausted = true; // no candidate can improve σ̂ any further
            break;
        }
        traj.selected.push(traj.candidates[idx]);
        traj.sigma_current += gain;
        traj.sigma_history.push(traj.sigma_current);
        traj.round += 1;
        marks = None;
        meter.note_advance();
    }
    Ok(None)
}

/// Materializes a [`GreedySelection`] as the stopping rule's prefix
/// of the (possibly longer) trajectory.
///
/// `evaluations` is the number of σ̂ evaluations the caller charges to
/// this solve — the whole trajectory for a cold run, the extension
/// delta for a warm cached one.
pub(crate) fn selection_from_trajectory(
    traj: &GreedyTrajectory,
    target: f64,
    cap: usize,
    evaluations: usize,
    bridge_ends: BridgeEnds,
) -> GreedySelection {
    let limit = traj.selected.len().min(cap);
    // Smallest prefix meeting the target, else everything available
    // under the cap — exactly where the cold loop would have stopped.
    let len = (0..=limit)
        .find(|&k| {
            let achieved = if k == 0 {
                traj.sigma_empty
            } else {
                traj.sigma_history[k - 1]
            };
            achieved >= target
        })
        .unwrap_or(limit);
    let achieved = if len == 0 {
        traj.sigma_empty
    } else {
        traj.sigma_history[len - 1]
    };
    GreedySelection {
        protectors: traj.selected[..len].to_vec(),
        sigma_history: traj.sigma_history[..len].to_vec(),
        target,
        achieved,
        target_met: achieved >= target,
        evaluations,
        bridge_ends,
    }
}

/// The candidates `pool` names, in ascending id order.
pub(crate) fn candidate_pool(
    instance: &RumorBlockingInstance,
    bridge_ends: &BridgeEnds,
    pool: CandidatePool,
) -> Vec<NodeId> {
    let csr = instance.snapshot();
    let mut nodes: Vec<NodeId> = match pool {
        CandidatePool::AllNonRumor => csr
            .nodes()
            .filter(|&v| !instance.is_rumor_seed(v))
            .collect(),
        CandidatePool::BackwardRadius(radius) => {
            let mut back = CsrBfsScratch::new();
            back.run(csr, &bridge_ends.nodes, Direction::Backward, radius);
            csr.nodes()
                .filter(|&v| back.is_reached(v) && !instance.is_rumor_seed(v))
                .collect()
        }
        CandidatePool::BbstUnion => {
            let mut in_pool = vec![false; csr.node_count()];
            let mut walker = BbstWalker::new(instance, None);
            for &v in &bridge_ends.nodes {
                for u in walker.members(v) {
                    in_pool[u.index()] = true;
                }
            }
            csr.nodes().filter(|&v| in_pool[v.index()]).collect()
        }
    };
    nodes.sort_unstable();
    nodes
}

/// The initial CELF gain sweep: `σ̂({c}) − σ̂(∅)` for every candidate
/// `c`, spread over `threads` workers.
///
/// The Monte-Carlo backend packs the pool, in order, into chunks
/// of [`OPOAO_LANES`] candidates and runs one lane-kernel pass per
/// (realization, chunk) unit. Units are numbered realization-major, so
/// a worker's contiguous run of them visits each realization in one
/// stretch: the worker fills that realization's [`TargetTable`] once,
/// at its first unit there, and every pass of the stretch reads it.
/// The tables are refilled at every sweep's start. Each candidate's
/// saved-bridge-end count is summed as an integer, so its `σ̂` equals
/// what `sigma_with` returns, bit for bit, at any thread count. The
/// sketch backend scores one candidate per unit.
///
/// Cancellation/deadline polls run per unit (the simulation cost was
/// already charged whole by the caller); a stop surfaces as
/// [`LcrbError::Interrupted`] and the sweep's partial results are
/// discarded, so interruption can never produce a half-populated heap.
fn parallel_initial_gains(
    objective: &SigmaBackend<'_>,
    candidates: &[NodeId],
    sigma_empty: f64,
    threads: usize,
    pool: &ScratchPool<SigmaScratch>,
    meter: &WorkMeter,
) -> Result<Vec<f64>, LcrbError> {
    if let SigmaBackend::Mc(obj) = objective {
        let chunks = candidates.len().div_ceil(OPOAO_LANES);
        let partials = run_units(
            obj.realization_count() * chunks,
            threads,
            pool,
            meter,
            // Per worker: its totals, and the realization its table
            // holds (none at the sweep's start).
            // xtask-allow: hotreach -- one accumulator per worker thread for the whole sweep
            || (vec![0; candidates.len()], None),
            |unit, scratch, (totals, filled)| {
                let realization = unit / chunks;
                if *filled != Some(realization) {
                    obj.fill_targets(realization, &mut scratch.targets);
                    *filled = Some(realization);
                }
                let lo = unit % chunks * OPOAO_LANES;
                let hi = (lo + OPOAO_LANES).min(candidates.len());
                obj.add_saved(
                    &scratch.targets,
                    candidates[lo..hi].iter().map(std::slice::from_ref),
                    &mut scratch.lanes,
                    &mut totals[lo..hi],
                )
            },
        )?;
        // xtask-allow: hotreach -- once-per-sweep result buffer sized to the candidate pool
        let mut totals = vec![0; candidates.len()];
        for (partial, _) in partials {
            for (total, saved) in totals.iter_mut().zip(partial) {
                *total += saved;
            }
        }
        return Ok(totals
            .into_iter()
            .map(|total| obj.average(total) - sigma_empty)
            // xtask-allow: hotreach -- the σ̂ gains of one sweep, one Vec sized to the candidate pool
            .collect());
    }
    let partials = run_units(
        candidates.len(),
        threads,
        pool,
        meter,
        // xtask-allow: hotreach -- one accumulator per worker thread for the whole sweep
        Vec::new,
        |i, scratch, sigmas| {
            sigmas.push((i, objective.sigma_with(&[candidates[i]], scratch)?));
            Ok(())
        },
    )?;
    // xtask-allow: hotreach -- once-per-sweep result buffer sized to the candidate pool
    let mut gains = vec![0.0; candidates.len()];
    for (i, sigma) in partials.into_iter().flatten() {
        gains[i] = sigma - sigma_empty;
    }
    Ok(gains)
}

/// Runs work units `0..units` on up to `threads` workers (0 = available
/// parallelism), worker `t` of `w` taking the contiguous run
/// `t·units/w .. (t+1)·units/w`. Each worker leases one scratch for
/// its whole run (the objective is shared immutably) and folds its
/// units into its own accumulator from `init`, in order; the
/// accumulators come back in worker order.
///
/// Polls `meter` once per unit. After a stop the coordinator
/// re-observes it (both stop conditions are monotone) and returns
/// [`LcrbError::Interrupted`], discarding every accumulator.
fn run_units<T, I, W>(
    units: usize,
    threads: usize,
    pool: &ScratchPool<SigmaScratch>,
    meter: &WorkMeter,
    init: I,
    work: W,
) -> Result<Vec<T>, LcrbError>
where
    T: Send,
    I: Fn() -> T + Sync,
    W: Fn(usize, &mut SigmaScratch, &mut T) -> Result<(), LcrbError> + Sync,
{
    let workers = if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
    .min(units)
    .max(1);
    let worker = |t: usize| -> Result<T, LcrbError> {
        let mut scratch = pool.lease();
        let mut acc = init();
        for unit in t * units / workers..(t + 1) * units / workers {
            meter
                .poll()
                .map_err(|reason| LcrbError::Interrupted { reason })?;
            work(unit, &mut scratch, &mut acc)?;
        }
        Ok(acc)
    };
    let results = if workers == 1 {
        // xtask-allow: hotreach -- the single worker's accumulator, once per sweep
        vec![worker(0)]
    } else {
        std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..workers)
                .map(|t| scope.spawn(move || worker(t)))
                // xtask-allow: hotreach -- one join handle per worker, once per sweep
                .collect();
            handles
                .into_iter()
                // xtask-allow: panic -- re-raising a worker panic on the coordinating thread is the intended behavior
                .map(|h| h.join().expect("gain worker panicked"))
                // xtask-allow: hotreach -- one accumulator slot per worker, gathered once per sweep
                .collect::<Vec<_>>()
        })
    };
    meter
        .poll()
        .map_err(|reason| LcrbError::Interrupted { reason })?;
    // xtask-allow: hotreach -- the per-worker results unwrapped once per sweep
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SolveDetail, SolveRequest, Solver};
    use lcrb_community::Partition;
    use lcrb_graph::generators;
    use lcrb_graph::DiGraph;
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

    /// A cold α-mode (or any greedy) solve through the session engine.
    fn solve(
        inst: &RumorBlockingInstance,
        request: &SolveRequest,
    ) -> Result<GreedySelection, LcrbError> {
        let report = Solver::new(inst.clone()).solve(request)?;
        let SolveDetail::Greedy(sel) = report.detail else {
            panic!("expected greedy detail");
        };
        Ok(sel)
    }

    #[test]
    fn rejects_bad_alpha() {
        let inst = chain_instance();
        for alpha in [0.0, -0.5, 1.5, f64::NAN] {
            let request = SolveRequest {
                realizations: 4,
                ..SolveRequest::greedy_alpha(alpha)
            };
            assert!(matches!(
                solve(&inst, &request).unwrap_err(),
                LcrbError::InvalidAlpha { .. }
            ));
        }
    }

    #[test]
    fn rejects_zero_realizations() {
        let inst = chain_instance();
        let cfg = GreedyConfig {
            realizations: 0,
            ..GreedyConfig::default()
        };
        assert!(matches!(
            greedy_with_budget(&inst, 1, &cfg).unwrap_err(),
            LcrbError::NoRealizations
        ));
    }

    #[test]
    fn chain_is_fully_protectable_with_one_node() {
        let inst = chain_instance();
        let request = SolveRequest {
            realizations: 8,
            ..SolveRequest::greedy_alpha(1.0)
        };
        let sel = solve(&inst, &request).unwrap();
        assert!(sel.target_met);
        assert_eq!(sel.bridge_ends.nodes, vec![NodeId::new(2)]);
        // Protecting node 1 or node 2 saves the single bridge end.
        assert_eq!(sel.protectors.len(), 1);
        assert!(sel.achieved >= sel.target);
        assert_eq!(sel.sigma_history.len(), 1);
    }

    #[test]
    fn budget_mode_selects_exactly_budget_when_gains_remain() {
        let inst = community_instance(5);
        let cfg = GreedyConfig {
            realizations: 16,
            max_hops: 20,
            ..GreedyConfig::default()
        };
        let sel = greedy_with_budget(&inst, 2, &cfg).unwrap();
        assert!(sel.protectors.len() <= 2);
        assert_eq!(sel.target, f64::INFINITY);
        assert!(!sel.target_met);
        // σ̂ history is nondecreasing.
        for w in sel.sigma_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn candidate_pools_are_subsets_of_all_non_rumor() {
        let inst = community_instance(9);
        let bridges = find_bridge_ends(&inst, BridgeEndRule::WithinCommunity);
        let all = candidate_pool(&inst, &bridges, CandidatePool::AllNonRumor);
        let radius = candidate_pool(&inst, &bridges, CandidatePool::BackwardRadius(2));
        let bbst = candidate_pool(&inst, &bridges, CandidatePool::BbstUnion);
        let all_set: std::collections::HashSet<_> = all.iter().collect();
        assert!(radius.iter().all(|v| all_set.contains(v)));
        assert!(bbst.iter().all(|v| all_set.contains(v)));
        // Bridge ends themselves are always candidates in both
        // restricted pools.
        for v in &bridges.nodes {
            assert!(radius.contains(v));
            assert!(bbst.contains(v));
        }
        // No rumor seed anywhere.
        for v in inst.rumor_seeds() {
            assert!(!all.contains(v));
        }
    }

    #[test]
    fn empty_bridge_set_returns_empty_selection() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 0)]).unwrap();
        let p = Partition::from_labels(vec![0, 0, 1, 1]);
        let inst = RumorBlockingInstance::new(g, p, 0, vec![NodeId::new(0)]).unwrap();
        let sel = solve(
            &inst,
            &SolveRequest {
                realizations: 4,
                ..SolveRequest::greedy_alpha(0.8)
            },
        )
        .unwrap();
        assert!(sel.protectors.is_empty());
        assert!(sel.target_met); // target = α·0 = 0
    }

    #[test]
    fn sketch_estimator_solves_the_chain() {
        let inst = chain_instance();
        let request = SolveRequest::greedy_alpha(1.0)
            .with_estimator(Estimator::Sketch(SketchParams::default()));
        let sel = solve(&inst, &request).unwrap();
        assert!(sel.target_met);
        assert_eq!(sel.protectors.len(), 1);
        // On the forced chain the only useful picks are 1 and 2.
        assert!(matches!(sel.protectors[0].raw(), 1 | 2));
    }

    #[test]
    fn sketch_estimator_is_deterministic_across_threads() {
        let inst = community_instance(17);
        let base = SolveRequest {
            threads: 1,
            ..SolveRequest::greedy_alpha(0.7)
        }
        .with_estimator(Estimator::Sketch(SketchParams::default()));
        let a = solve(&inst, &base).unwrap();
        let b = solve(&inst, &SolveRequest { threads: 4, ..base }).unwrap();
        assert_eq!(a.protectors, b.protectors);
        assert_eq!(a.achieved, b.achieved);
    }

    #[test]
    fn sketch_and_mc_selections_have_comparable_quality() {
        let inst = community_instance(19);
        let mc_cfg = GreedyConfig {
            realizations: 32,
            ..GreedyConfig::default()
        };
        let sk_cfg = GreedyConfig {
            estimator: Estimator::Sketch(SketchParams::default()),
            ..GreedyConfig::default()
        };
        let budget = 3;
        let mc = greedy_with_budget(&inst, budget, &mc_cfg).unwrap();
        let sk = greedy_with_budget(&inst, budget, &sk_cfg).unwrap();
        // Judge both selections with the same MC objective.
        let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
        let judge = ProtectionObjective::new(&inst, bridges.nodes, 64, 123, 31).unwrap();
        let empty = judge.sigma(&[]).unwrap();
        let mc_q = judge.sigma(&mc.protectors).unwrap();
        let sk_q = judge.sigma(&sk.protectors).unwrap();
        assert!(sk_q >= empty, "sketch pick must not hurt");
        // The sketch pick recovers most of the MC pick's improvement.
        assert!(
            sk_q - empty >= 0.5 * (mc_q - empty) - 1e-9,
            "sketch quality {sk_q} too far below MC {mc_q} (empty {empty})"
        );
    }

    /// 150 nodes, two rumor seeds: 148 candidates under `AllNonRumor`,
    /// two full lane chunks and a partial third.
    fn three_chunk_instance() -> (RumorBlockingInstance, BridgeEnds, Vec<NodeId>) {
        let mut rng = SmallRng::seed_from_u64(23);
        let (g, labels) =
            generators::planted_partition(&[50, 50, 50], 0.12, 0.02, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        let inst = RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap();
        let bridges = find_bridge_ends(&inst, BridgeEndRule::default());
        let candidates = candidate_pool(&inst, &bridges, CandidatePool::AllNonRumor);
        assert!(candidates.len() > 2 * OPOAO_LANES);
        assert_ne!(
            candidates.len() % OPOAO_LANES,
            0,
            "the last chunk must be partial"
        );
        (inst, bridges, candidates)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lane_sweep_matches_per_candidate_sigma_at_any_thread_count() {
        let (inst, bridges, candidates) = three_chunk_instance();
        // Six realizations over three chunks, where a worker's run of
        // units spans realizations, and one realization, where workers
        // can split the sweep only by chunk.
        let pool = ScratchPool::new();
        for realizations in [6, 1] {
            let cfg = GreedyConfig {
                realizations,
                max_hops: 12,
                candidates: CandidatePool::AllNonRumor,
                ..GreedyConfig::default()
            };
            let backend = build_backend(&inst, &cfg, bridges.nodes.clone()).unwrap();
            let mut scratch = SigmaScratch::default();
            let empty = backend.sigma_with(&[], &mut scratch).unwrap();
            let expected: Vec<f64> = candidates
                .iter()
                .map(|&c| backend.sigma_with(&[c], &mut scratch).unwrap() - empty)
                .collect();
            assert!(expected.iter().any(|&gain| gain > 0.0));
            for threads in [1, 2, 7] {
                let gains = parallel_initial_gains(
                    &backend,
                    &candidates,
                    empty,
                    threads,
                    &pool,
                    &WorkMeter::unlimited(),
                )
                .unwrap();
                assert_eq!(
                    bits(&gains),
                    bits(&expected),
                    "{realizations} realizations, threads {threads}"
                );
            }

            let solves = [1, 2, 7].map(|threads| {
                greedy_with_budget(&inst, 3, &GreedyConfig { threads, ..cfg }).unwrap()
            });
            assert_eq!(solves[0].protectors.len(), 3);
            assert!(solves[0].evaluations > candidates.len());
            for s in &solves[1..] {
                assert_eq!(s.protectors, solves[0].protectors);
                assert_eq!(bits(&s.sigma_history), bits(&solves[0].sigma_history));
                assert_eq!(s.evaluations, solves[0].evaluations);
            }
        }
    }

    #[test]
    fn cancelled_lane_sweep_returns_nothing() {
        let (inst, bridges, candidates) = three_chunk_instance();
        let cfg = GreedyConfig {
            realizations: 4,
            ..GreedyConfig::default()
        };
        let backend = build_backend(&inst, &cfg, bridges.nodes).unwrap();
        let token = lcrb_diffusion::CancelToken::new();
        token.cancel();
        let meter = WorkMeter::new(lcrb_diffusion::RunBudget::unlimited(), Some(token));
        for threads in [1, 3] {
            let err = parallel_initial_gains(
                &backend,
                &candidates,
                0.0,
                threads,
                &ScratchPool::new(),
                &meter,
            )
            .unwrap_err();
            assert_eq!(
                err,
                LcrbError::Interrupted {
                    reason: StopReason::Cancelled
                }
            );
        }
    }

    #[test]
    fn threads_do_not_change_selection() {
        let inst = community_instance(11);
        let base = SolveRequest {
            realizations: 12,
            threads: 1,
            ..SolveRequest::greedy_alpha(0.7)
        };
        let a = solve(&inst, &base).unwrap();
        let b = solve(&inst, &SolveRequest { threads: 4, ..base }).unwrap();
        assert_eq!(a.protectors, b.protectors);
        assert_eq!(a.achieved, b.achieved);
    }
}
