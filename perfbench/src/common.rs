//! What the three workloads share: input sizes, the per-run tally,
//! the timed solve wrapper and seeded rumor draws.

use std::time::Instant;

use lcrb::{LcrbError, RumorBlockingInstance, SolveDetail, SolveReport, SolveRequest, Solver};
use lcrb_diffusion::derive_stream;
use lcrb_graph::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::json::Json;
use crate::stats::Gate;
use crate::trace;

/// Input sizes. `full` is the benchmark; `tiny` is the smoke-test size.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Hep-like scale for the MC and session workloads.
    pub hep_scale: f64,
    /// Enron-like scale for the DOAM workload.
    pub enron_scale: f64,
    /// Rumor fractions of the MC workload (trimmed from the paper's
    /// 1/5/10 % to fit the run length, see the README).
    pub mc_fractions: &'static [f64],
    /// Realizations behind the MC greedy's σ̂.
    pub realizations: usize,
    /// Monte-Carlo runs per OPOAO evaluation.
    pub mc_runs: usize,
    /// First greedy budget of a session phase, and how many
    /// budget-changed solves extend it by one pick each.
    pub session_budget: usize,
    pub session_extend: usize,
    /// The `--size` value that selects these sizes.
    pub name: &'static str,
    /// Set-ups timed back to back in one process: at least
    /// `setup_reps`, and in a `--setup-only` process as many more as
    /// fit in `setup_secs`. An untraced run times them in `setup_procs`
    /// fresh processes; `setup_s` is the median of their medians.
    pub setup_reps: usize,
    pub setup_secs: f64,
    pub setup_procs: usize,
    /// Rounds that always run and feed `infected_final` and
    /// `protectors_total`, so both repeat exactly at one seed; one
    /// entry per workload, in `workloads::NAMES` order.
    pub quality_rounds: [usize; 3],
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        hep_scale: 0.2,
        enron_scale: 1.0,
        mc_fractions: &[0.01],
        realizations: 16,
        mc_runs: 100,
        session_budget: 2,
        session_extend: 6,
        name: "full",
        setup_reps: 3,
        setup_secs: 0.05,
        setup_procs: 15,
        quality_rounds: [4, 2, 20],
    };

    pub const TINY: Sizes = Sizes {
        hep_scale: 0.05,
        enron_scale: 0.1,
        mc_fractions: &[0.05, 0.10],
        realizations: 4,
        mc_runs: 10,
        session_budget: 1,
        session_extend: 2,
        name: "tiny",
        setup_reps: 1,
        setup_secs: 0.0,
        setup_procs: 2,
        quality_rounds: [1, 1, 1],
    };
}

/// A seed stream derived from the run seed and a chain of keys.
pub fn stream(seed: u64, keys: &[u64]) -> u64 {
    keys.iter().fold(seed, |s, &k| derive_stream(s, k))
}

/// `count` distinct rumor originators drawn uniformly from the rumor
/// community of `base`.
pub fn draw_rumors(base: &RumorBlockingInstance, count: usize, seed: u64) -> Vec<NodeId> {
    let mut members = base.rumor_community_members();
    members.shuffle(&mut SmallRng::seed_from_u64(seed));
    members.truncate(count.max(1));
    members
}

/// `round(|C| · fraction)`, at least one.
pub fn rumor_count(base: &RumorBlockingInstance, fraction: f64) -> usize {
    let size = base.rumor_community_members().len();
    ((size as f64 * fraction).round() as usize).max(1)
}

/// Everything one run accumulates across its rounds.
#[derive(Debug, Default)]
pub struct Tally {
    pub gate: Gate,
    /// Latency of every timed `Solver::solve` call, ms.
    pub solve_ms: Vec<f64>,
    /// Latency of the first solve on each fresh solver state, ms.
    pub first_solve_ms: Vec<f64>,
    /// Completed solves, batch slots included.
    pub solves: u64,
    pub infected_final: f64,
    pub protectors_total: f64,
    /// `|C|`, `|R|` and `|B|` of the first round's instances.
    pub instances: Vec<Json>,
    /// CELF σ̂ evaluations and picks of the greedy solves that built
    /// a trajectory from scratch.
    pub greedy_evaluations: u64,
    pub greedy_picks: u64,
    /// Time inside `evaluate_protector_sets` and the sets it scored.
    pub evaluate_ns: u128,
    pub evaluated_sets: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.gate.merge(other.gate);
        self.solve_ms.extend(other.solve_ms);
        self.first_solve_ms.extend(other.first_solve_ms);
        self.solves += other.solves;
        self.infected_final += other.infected_final;
        self.protectors_total += other.protectors_total;
        self.instances.extend(other.instances);
        self.greedy_evaluations += other.greedy_evaluations;
        self.greedy_picks += other.greedy_picks;
        self.evaluate_ns += other.evaluate_ns;
        self.evaluated_sets += other.evaluated_sets;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// One timed `Solver::solve`. A solve that errs or degrades counts
    /// as failed; `first` marks the first solve on a fresh solver state.
    pub fn solve(
        &mut self,
        solver: &Solver,
        request: &SolveRequest,
        first: bool,
    ) -> Option<SolveReport> {
        let span = trace::span("core.engine");
        let start = Instant::now();
        let out = solver.solve(request);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        self.solve_ms.push(ms);
        if first {
            self.first_solve_ms.push(ms);
        }
        self.accept(request, out, first)
    }

    /// Counts one solve result (from `solve` or a batch slot).
    pub fn accept(
        &mut self,
        request: &SolveRequest,
        out: Result<SolveReport, LcrbError>,
        fresh: bool,
    ) -> Option<SolveReport> {
        match out {
            Ok(report) => {
                self.gate.check(report.completion.is_exact(), || {
                    format!(
                        "{} solve degraded: {:?}",
                        report.algorithm, report.completion
                    )
                });
                self.solves += 1;
                if let SolveDetail::Greedy(g) = &report.detail {
                    if let lcrb::StopRule::Budget(budget) = request.stop {
                        self.gate.check(report.protectors.len() == budget, || {
                            format!(
                                "greedy returned {} picks for budget {budget}",
                                report.protectors.len()
                            )
                        });
                    }
                    if fresh {
                        self.greedy_evaluations += g.evaluations as u64;
                        self.greedy_picks += g.protectors.len() as u64;
                    }
                }
                Some(report)
            }
            Err(e) => {
                self.gate.check(false, || {
                    format!("{} solve failed: {e}", request.algorithm.name())
                });
                None
            }
        }
    }

    /// Checks that a warm re-ask returns the first answer bit for bit.
    pub fn check_replay(&mut self, first: &SolveReport, replay: Option<&SolveReport>) {
        let same = replay.is_some_and(|r| same_answer(first, r));
        self.gate
            .check(same, || format!("{} warm replay differs", first.algorithm));
    }

    /// Adds the session's cache counter increments since `before`.
    pub fn add_cache(&mut self, solver: &Solver, before: &lcrb::CacheStats) {
        let delta = solver.cache_stats().delta_since(before);
        self.cache_hits += delta.hits();
        self.cache_misses += delta.misses();
    }
}

/// Bitwise equality of two answers: protectors, and for a greedy the
/// σ̂ trajectory.
pub fn same_answer(a: &SolveReport, b: &SolveReport) -> bool {
    let sigma = |r: &SolveReport| match &r.detail {
        SolveDetail::Greedy(g) => g.sigma_history.iter().map(|s| s.to_bits()).collect(),
        _ => Vec::new(),
    };
    a.protectors == b.protectors && sigma(a) == sigma(b)
}

/// Drops the last protector: the deliberately corrupted selection the
/// benchmark's own tests feed to the output checks.
pub fn corrupt(report: &mut SolveReport) {
    report.protectors.pop();
}

/// One instance's sizes for the provenance record.
pub fn instance_json(inst: &RumorBlockingInstance, bridge_ends: usize) -> Json {
    Json::obj([
        (
            "community",
            Json::Int(inst.rumor_community_members().len() as u64),
        ),
        ("rumors", Json::Int(inst.rumor_seeds().len() as u64)),
        ("bridge_ends", Json::Int(bridge_ends as u64)),
    ])
}
