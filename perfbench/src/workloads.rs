//! The three workloads. Each generates its network, then runs rounds:
//! a fixed unit of work on fresh rumor draws. The network is a fixed
//! stand-in for the paper's dataset (dataset seed 1, the `experiments`
//! default); the run seed drives everything else. Round `r` draws its
//! rumor originators and its Monte-Carlo and sketch streams from
//! `(seed, r)`, so a run at one seed always sees the same inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lcrb::evaluate::evaluate_protector_sets;
use lcrb::{
    Algorithm, CandidatePool, Estimator, RumorBlockingInstance, SketchParams, SolveDetail,
    SolveReport, SolveRequest, Solver, SolverConfig,
};
use lcrb_datasets::{enron_like, hep_like, DatasetConfig, SyntheticDataset};
use lcrb_diffusion::{DoamModel, MonteCarloConfig, OpoaoModel, TwoCascadeModel};
use lcrb_graph::NodeId;

use crate::common::{corrupt, draw_rumors, instance_json, rumor_count, stream, Sizes, Tally};
use crate::trace;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["lcrbp_opoao_mc", "lcrbd_doam_scbg", "session_sketch_mixed"];

/// What a round needs besides the workload's own state.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx {
    pub seed: u64,
    pub sizes: Sizes,
    pub threads: usize,
    /// Whether this round feeds `infected_final` / `protectors_total`.
    pub quality: bool,
    /// Corrupt the round's first selection before its output checks.
    pub corrupt: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Mc,
    Doam,
    Session,
}

/// A set-up workload: one generated network and a session per rumor
/// community. MC and DOAM rounds re-seed copies of these base
/// instances; the session workload writes to its one session.
pub struct Workload {
    kind: Kind,
    nodes: usize,
    arcs: usize,
    solvers: Vec<Solver>,
}

/// Seed of the generated networks.
const DATASET_SEED: u64 = 1;

fn generate(build: fn(&DatasetConfig) -> SyntheticDataset, scale: f64) -> SyntheticDataset {
    let _span = trace::span("datasets.synthetic");
    build(&DatasetConfig::new(scale, DATASET_SEED))
}

/// A session on `ds` with the given rumor community and a placeholder
/// rumor originator (rounds replace it).
fn base_solver(ds: &SyntheticDataset, community: usize, seed: u64) -> Solver {
    let inst = {
        let _span = trace::span("core.instance");
        let first = ds.planted.members(community)[0];
        RumorBlockingInstance::new(ds.graph.clone(), ds.planted.clone(), community, vec![first])
            .expect("a pinned community member is a valid rumor originator")
    };
    let _span = trace::span("core.engine");
    Solver::with_config(inst, SolverConfig { master_seed: seed })
}

/// The MC greedy request of the LCRB-P workload.
fn mc_greedy(budget: usize, sizes: &Sizes, threads: usize) -> SolveRequest {
    SolveRequest {
        realizations: sizes.realizations,
        candidates: CandidatePool::BackwardRadius(1),
        threads,
        ..SolveRequest::greedy_budget(budget)
    }
}

/// The sketch greedy request of the session workload (one caller
/// thread per solve).
pub fn sketch_greedy(budget: usize) -> SolveRequest {
    SolveRequest {
        threads: 1,
        ..SolveRequest::greedy_budget(budget)
            .with_estimator(Estimator::Sketch(SketchParams::default()))
    }
}

/// Exact replays of every budget per phase.
const SESSION_REPLAYS: usize = 3;

/// Candidate pools of the session's `solve_many_threaded` batch: each
/// builds its own CELF trajectory over the shared sketch index.
const BATCH_POOLS: [CandidatePool; 4] = [
    CandidatePool::BackwardRadius(1),
    CandidatePool::BackwardRadius(2),
    CandidatePool::BbstUnion,
    CandidatePool::AllNonRumor,
];

pub fn batch_requests(budget: usize) -> Vec<SolveRequest> {
    BATCH_POOLS
        .iter()
        .map(|&candidates| SolveRequest {
            candidates,
            ..sketch_greedy(budget)
        })
        .collect()
}

impl Workload {
    pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
        let kind = match name {
            "lcrbp_opoao_mc" => Kind::Mc,
            "lcrbd_doam_scbg" => Kind::Doam,
            "session_sketch_mixed" => Kind::Session,
            _ => return None,
        };
        Some(Workload::build(kind, seed, sizes))
    }

    fn build(kind: Kind, seed: u64, sizes: &Sizes) -> Workload {
        let ds = match kind {
            Kind::Doam => generate(enron_like, sizes.enron_scale),
            Kind::Mc | Kind::Session => generate(hep_like, sizes.hep_scale),
        };
        Workload {
            kind,
            nodes: ds.graph.node_count(),
            arcs: ds.graph.edge_count(),
            solvers: ds
                .pinned_communities
                .iter()
                .map(|&c| base_solver(&ds, c, seed))
                .collect(),
        }
    }

    /// `(nodes, arcs)` of the generated graph.
    pub fn graph_size(&self) -> (usize, usize) {
        (self.nodes, self.arcs)
    }

    /// The instance the layer probes run on: the last base instance
    /// (for DOAM, the small community) re-seeded with a 5 % draw.
    pub fn probe_instance(&self, seed: u64) -> RumorBlockingInstance {
        let base = self.solvers.last().expect("a pinned community").instance();
        let rumors = draw_rumors(base, rumor_count(base, 0.05), stream(seed, &[0x9b0e]));
        base.with_rumor_seeds(rumors)
            .expect("drawn originators lie in the rumor community")
    }

    /// Runs round `round`; returns the wall time of its timed section.
    pub fn round(&mut self, round: u64, ctx: &RoundCtx, tally: &mut Tally) -> f64 {
        match self.kind {
            Kind::Mc => mc_round(&self.solvers[0], round, ctx, tally),
            Kind::Doam => doam_round(&self.solvers, round, ctx, tally),
            Kind::Session => session_round(&mut self.solvers[0], round, ctx, tally),
        }
    }
}

/// A fresh cold session on `base` re-seeded with `rumors`.
fn fresh_solver(base: &Solver, rumors: Vec<NodeId>, seed: u64) -> Solver {
    let inst = {
        let _span = trace::span("core.instance");
        base.instance()
            .with_rumor_seeds(rumors)
            .expect("drawn originators lie in the rumor community")
    };
    let _span = trace::span("core.engine");
    Solver::with_config(inst, SolverConfig { master_seed: seed })
}

/// Scores named sets under `model` and returns each set's mean final
/// infected count.
fn evaluate<M: TwoCascadeModel + Sync>(
    inst: &RumorBlockingInstance,
    model: &M,
    sets: &[(String, Vec<NodeId>)],
    mc: &MonteCarloConfig,
    tally: &mut Tally,
) -> Vec<f64> {
    let span = trace::span("core.evaluate");
    let start = Instant::now();
    let report = evaluate_protector_sets(inst, model, sets, mc);
    tally.evaluate_ns += start.elapsed().as_nanos();
    drop(span);
    tally.evaluated_sets += sets.len() as u64;
    match report {
        Ok(report) => report
            .runs
            .iter()
            .map(|r| r.averaged.mean_final_infected())
            .collect(),
        Err(e) => {
            tally
                .gate
                .check(false, || format!("evaluation failed: {e}"));
            Vec::new()
        }
    }
}

fn bridge_count(report: &SolveReport) -> usize {
    match &report.detail {
        SolveDetail::Greedy(g) => g.bridge_ends.len(),
        SolveDetail::Scbg(s) => s.bridge_ends.len(),
        _ => 0,
    }
}

/// LCRB-P: per rumor fraction, one cold solver runs the MC greedy
/// (budget = |R|), the baselines, and a 100-run OPOAO evaluation.
fn mc_round(base: &Solver, round: u64, ctx: &RoundCtx, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    for (cell, &fraction) in ctx.sizes.mc_fractions.iter().enumerate() {
        let _request = trace::request("bench.request");
        let seed = stream(ctx.seed, &[round, cell as u64]);
        let budget = rumor_count(base.instance(), fraction);
        let solver = fresh_solver(base, draw_rumors(base.instance(), budget, seed), seed);
        let before = solver.cache_stats();
        let request = mc_greedy(budget, &ctx.sizes, ctx.threads);
        let Some(mut greedy) = tally.solve(&solver, &request, true) else {
            continue;
        };
        if ctx.corrupt && cell == 0 {
            corrupt(&mut greedy);
        }
        let replay = solver.solve(&request).ok();
        tally.check_replay(&greedy, replay.as_ref());
        // The baselines run as one batch, so the latency quantiles rest
        // on the greedy solves alone: timed one by one, the
        // microsecond-scale baselines would put the median among them,
        // where it jumps between processes.
        let baselines = [
            Algorithm::Proximity,
            Algorithm::MaxDegree,
            Algorithm::NoBlocking,
        ]
        .map(|a| SolveRequest::heuristic(a, budget));
        let mut sets = vec![("greedy".to_owned(), greedy.protectors.clone())];
        let outs = {
            let _span = trace::span("core.engine");
            solver.solve_many_threaded(&baselines, ctx.threads)
        };
        for (req, out) in baselines.iter().zip(outs) {
            if let Some(r) = tally.accept(req, out, false) {
                sets.push((r.algorithm, r.protectors));
            }
        }
        tally.add_cache(&solver, &before);
        let mc = MonteCarloConfig {
            runs: ctx.sizes.mc_runs,
            base_seed: seed,
            threads: ctx.threads,
        };
        let infected = evaluate(solver.instance(), &OpoaoModel::default(), &sets, &mc, tally);
        if ctx.quality {
            tally.infected_final += infected.first().copied().unwrap_or(0.0);
            tally.protectors_total += greedy.protectors.len() as f64;
        }
        if round == 0 {
            tally
                .instances
                .push(instance_json(solver.instance(), bridge_count(&greedy)));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Paper rumor fractions per pinned community, large (|C| ≈ 2631)
/// first, then small (|C| ≈ 80), with the rumor draws each cell gets
/// per round. SCBG latency differs by an order of magnitude between
/// cells, so the draws are weighted to put the latency quantiles inside
/// one cell's population (large, 5 %) rather than on the boundary
/// between two cells.
const DOAM_CELLS: [&[(f64, usize)]; 2] = [
    &[(0.01, 1), (0.05, 8), (0.10, 1)],
    &[(0.05, 1), (0.10, 1), (0.20, 1)],
];

/// LCRB-D: per (community, fraction) cell and draw, one solver runs
/// SCBG, the proximity and max-degree heuristics at SCBG's size, and a
/// DOAM evaluation of SCBG's protectors.
fn doam_round(bases: &[Solver], round: u64, ctx: &RoundCtx, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut first = true;
    for (community, base) in bases.iter().enumerate() {
        let community_size = base.instance().rumor_community_members().len();
        for (cell, &(fraction, draws)) in DOAM_CELLS[community].iter().enumerate() {
            for draw in 0..draws {
                let _request = trace::request("bench.request");
                let seed = stream(
                    ctx.seed,
                    &[round, community as u64, cell as u64, draw as u64],
                );
                let count = rumor_count(base.instance(), fraction);
                let solver = fresh_solver(base, draw_rumors(base.instance(), count, seed), seed);
                let before = solver.cache_stats();
                let Some(mut cover) = tally.solve(&solver, &SolveRequest::scbg(), true) else {
                    continue;
                };
                if let SolveDetail::Scbg(sol) = &cover.detail {
                    tally.gate.check(sol.is_complete(), || {
                        "SCBG left a bridge end uncovered".to_owned()
                    });
                }
                if ctx.corrupt && first {
                    corrupt(&mut cover);
                }
                first = false;
                let replay = solver.solve(&SolveRequest::scbg()).ok();
                tally.check_replay(&cover, replay.as_ref());
                // The heuristics run as one batch, as the MC baselines
                // do, so the latency quantiles rest on the SCBG solves.
                let budget = cover.protectors.len();
                let heuristics = [Algorithm::Proximity, Algorithm::MaxDegree]
                    .map(|a| SolveRequest::heuristic(a, budget));
                let outs = {
                    let _span = trace::span("core.engine");
                    solver.solve_many_threaded(&heuristics, 1)
                };
                for (req, out) in heuristics.iter().zip(outs) {
                    tally.accept(req, out, false);
                }
                tally.add_cache(&solver, &before);
                let sets = [("scbg".to_owned(), cover.protectors.clone())];
                let mc = MonteCarloConfig {
                    runs: 1,
                    base_seed: seed,
                    threads: 1,
                };
                let infected =
                    evaluate(solver.instance(), &DoamModel::default(), &sets, &mc, tally)
                        .first()
                        .copied()
                        .unwrap_or(f64::INFINITY);
                tally.gate.check(infected <= community_size as f64, || {
                    format!("SCBG let {infected} nodes be infected, |C| = {community_size}")
                });
                if ctx.quality {
                    tally.infected_final += infected;
                    tally.protectors_total += budget as f64;
                }
                if round == 0 {
                    tally
                        .instances
                        .push(instance_json(solver.instance(), bridge_count(&cover)));
                }
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// The read script of one session phase after its first solve:
/// budget-changed greedy solves (CELF extends), exact replays of every
/// budget, then the heuristics.
fn session_script(sizes: &Sizes) -> Vec<SolveRequest> {
    let (first, top) = (
        sizes.session_budget,
        sizes.session_budget + sizes.session_extend,
    );
    let mut script: Vec<SolveRequest> = (first + 1..=top).map(sketch_greedy).collect();
    for _ in 0..SESSION_REPLAYS {
        script.extend((first..=top).map(sketch_greedy));
    }
    for algorithm in [
        Algorithm::MaxDegree,
        Algorithm::Proximity,
        Algorithm::PageRank,
    ] {
        script.push(SolveRequest::heuristic(algorithm, top));
    }
    script
}

/// One session phase: a write (fresh rumor draw), the first greedy
/// solve, the read script from `threads` closed-loop callers, one
/// `solve_many_threaded` batch, and a 100-run OPOAO evaluation of the
/// largest greedy selection.
fn session_round(session: &mut Solver, round: u64, ctx: &RoundCtx, tally: &mut Tally) -> f64 {
    let _request = trace::request("bench.request");
    let seed = stream(ctx.seed, &[round]);
    let start = Instant::now();
    let count = rumor_count(session.instance(), 0.05);
    let rumors = draw_rumors(session.instance(), count, seed);
    {
        let _span = trace::span("core.engine");
        session
            .set_rumor_seeds(rumors)
            .expect("drawn originators lie in the rumor community");
    }
    let solver = &*session;
    let before = solver.cache_stats();
    let budget = ctx.sizes.session_budget;
    let Some(mut first) = tally.solve(solver, &sketch_greedy(budget), true) else {
        return start.elapsed().as_secs_f64();
    };
    if ctx.corrupt {
        corrupt(&mut first);
    }
    let script = session_script(&ctx.sizes);
    let next = AtomicUsize::new(0);
    let parent = trace::context();
    let answers: Vec<(Tally, Vec<(usize, SolveReport)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|_| {
                let (script, next) = (&script, &next);
                scope.spawn(move || {
                    let _adopted = trace::adopt(parent);
                    let mut mine = Tally::default();
                    let mut greedy = Vec::new();
                    // Closed loop: the next request goes out only after
                    // the previous answer came back.
                    while let Some(request) = script.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let report = mine.solve(solver, request, false);
                        if let (Some(report), lcrb::StopRule::Budget(budget)) =
                            (report, request.stop)
                        {
                            if request.algorithm == Algorithm::Greedy {
                                greedy.push((budget, report));
                            }
                        }
                    }
                    (mine, greedy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session caller panicked"))
            .collect()
    });
    let mut greedy = vec![(budget, first)];
    for (mine, reports) in answers {
        tally.merge(mine);
        greedy.extend(reports);
    }
    // Every answer for one budget must be the first answer for it.
    for (i, (budget, report)) in greedy.iter().enumerate() {
        if let Some((_, earlier)) = greedy[..i].iter().find(|(b, _)| b == budget) {
            tally.check_replay(earlier, Some(report));
        }
    }
    let batch = batch_requests(budget + ctx.sizes.session_extend);
    let outs = {
        let _span = trace::span("core.engine");
        solver.solve_many_threaded(&batch, ctx.threads)
    };
    let batch_answers: Vec<Option<SolveReport>> = batch
        .iter()
        .zip(outs)
        .map(|(req, out)| tally.accept(req, out, true))
        .collect();
    tally.add_cache(solver, &before);
    let largest = greedy
        .iter()
        .max_by_key(|(budget, _)| *budget)
        .map(|(_, r)| r.protectors.clone())
        .unwrap_or_default();
    let sets = [("greedy".to_owned(), largest.clone())];
    let mc = MonteCarloConfig {
        runs: ctx.sizes.mc_runs,
        base_seed: seed,
        threads: ctx.threads,
    };
    let infected = evaluate(solver.instance(), &OpoaoModel::default(), &sets, &mc, tally);
    let wall = start.elapsed().as_secs_f64();
    if ctx.quality {
        tally.infected_final += infected.first().copied().unwrap_or(0.0);
        tally.protectors_total += largest.len() as f64;
    }
    if round == 0 {
        tally
            .instances
            .push(instance_json(solver.instance(), bridge_count(&greedy[0].1)));
        // Untimed: the same batch on a cold twin session with one worker
        // must pick the same protectors.
        let twin = Solver::with_config(
            solver.instance().clone(),
            SolverConfig {
                master_seed: solver.master_seed(),
            },
        );
        let serial = twin.solve_many_threaded(&batch, 1);
        for (parallel, serial) in batch_answers.iter().zip(&serial) {
            let same =
                matches!((parallel, serial), (Some(p), Ok(s)) if p.protectors == s.protectors);
            tally.gate.check(same, || {
                format!("batch at {} workers differs from 1 worker", ctx.threads)
            });
        }
    }
    wall
}
