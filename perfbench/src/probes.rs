//! The layer probes of a traced round: each layer's public entry point
//! called directly on the workload's probe instance, inside a span
//! named after the layer. They give the per-layer metrics that the
//! workloads reach only through `Solver::solve`.

use std::hint::black_box;
use std::time::Instant;

use lcrb::{
    find_bridge_ends, greedy_with_budget, scbg, BridgeEndRule, CandidatePool, CoverageScratch,
    Estimator, GreedyConfig, ProtectionObjective, RumorBlockingInstance, ScbgConfig,
    SketchObjective, SketchParams, SolveRequest, Solver, SolverConfig,
};
use lcrb_diffusion::{
    doam_analytic_csr, monte_carlo_csr, MonteCarloConfig, OpoaoModel, SimWorkspace,
    TwoCascadeModel, PAPER_OPOAO_HOPS,
};
use lcrb_graph::traversal::{CsrBfsScratch, Direction};
use lcrb_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::common::{stream, Tally};
use crate::stats::median;
use crate::trace;
use crate::workloads::{batch_requests, sketch_greedy};

/// Repetitions of the sub-millisecond probes; each reports a median.
const REPS: usize = 9;

/// One probe pass's measurements, keyed by per-layer metric name.
pub type Sample = Vec<(&'static str, f64)>;

/// Times `f` once inside a span named `layer`; returns (result, ms).
fn timed<T>(layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(layer);
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median ms of `REPS` calls of `f`, each inside a span named `layer`.
fn timed_median(layer: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|i| timed(layer, || f(i)).1).collect();
    median(&times)
}

/// Runs every probe once on `inst`.
pub fn run(inst: &RumorBlockingInstance, seed: u64, threads: usize, tally: &mut Tally) -> Sample {
    let _request = trace::request("bench.probe");
    let mut out: Sample = Vec::new();
    let csr = inst.snapshot();
    let n = csr.node_count();

    let (_, freeze_ms) = timed("graph.csr", || CsrGraph::from(inst.graph()));
    out.push(("graph.csr.freeze_ms", freeze_ms));

    // L0: forward BFS from the rumor originators over the whole graph.
    let mut bfs = CsrBfsScratch::new();
    let bfs_ms = timed_median("graph.csr_bfs", |_| {
        bfs.run(csr, inst.rumor_seeds(), Direction::Forward, u32::MAX);
    });
    let arcs: usize = bfs.order().iter().map(|&v| csr.out_degree(v)).sum();
    out.push(("graph.csr_bfs.ms", bfs_ms));
    out.push(("graph.csr_bfs.arcs", arcs as f64));
    out.push((
        "graph.csr_bfs.ns_per_arc",
        bfs_ms * 1e6 / arcs.max(1) as f64,
    ));

    let (bridge, bridge_ms) = timed("core.bridge", || {
        find_bridge_ends(inst, BridgeEndRule::default())
    });
    out.push(("core.bridge.ms", bridge_ms));
    out.push(("core.bridge.ends", bridge.len() as f64));

    // A fixed protector set: the first |R| bridge ends.
    let protectors: Vec<_> = bridge
        .nodes
        .iter()
        .copied()
        .take(inst.rumor_seeds().len())
        .collect();
    let seeds = inst
        .seed_sets(protectors.clone())
        .expect("bridge ends are never rumor originators");

    // L1: one OPOAO realization on a reused workspace.
    let model = OpoaoModel::default();
    let mut ws = SimWorkspace::with_capacity(n);
    let mut hops = 0;
    let run_ms = timed_median("diffusion.opoao", |i| {
        let mut rng = SmallRng::seed_from_u64(stream(seed, &[0x0a0a, i as u64]));
        model.run_into(csr, &seeds, &mut ws, &mut rng);
        hops += ws.trace().len();
    });
    out.push(("diffusion.opoao.run_us", run_ms * 1e3));
    out.push(("diffusion.opoao.hops", hops as f64 / REPS as f64));

    let (mut d_r, mut d_p) = (CsrBfsScratch::new(), CsrBfsScratch::new());
    let doam_ms = timed_median("diffusion.analytic", |_| {
        black_box(doam_analytic_csr(csr, &seeds, &mut d_r, &mut d_p));
    });
    out.push(("diffusion.analytic.doam_ms", doam_ms));

    // L2 MC: a 100-run batch at one worker and at `threads` workers.
    let batch = |workers: usize| {
        let mc = MonteCarloConfig {
            runs: 100,
            base_seed: seed,
            threads: workers,
        };
        timed("diffusion.montecarlo", || {
            monte_carlo_csr(&model, csr, &seeds, &mc)
        })
        .1
    };
    let (t1, tn) = (batch(1), batch(threads));
    out.push(("diffusion.montecarlo.batch_ms_t1", t1));
    out.push(("diffusion.montecarlo.batch_ms_tN", tn));
    out.push(("diffusion.montecarlo.runs_per_s", 100.0 / (tn / 1e3)));
    out.push(("diffusion.montecarlo.scaling", t1 / tn));

    let (objective, build_ms) = timed("core.objective", || {
        ProtectionObjective::new(inst, bridge.nodes.clone(), 16, seed, PAPER_OPOAO_HOPS)
            .expect("16 realizations is a valid batch")
    });
    let sigma_ms = timed_median("core.objective", |_| {
        black_box(objective.sigma_with(&protectors, &mut ws).ok());
    });
    out.push(("core.objective.build_ms", build_ms));
    out.push(("core.objective.sigma_us", sigma_ms * 1e3));

    let (sketches, build_ms) = timed("core.sketch_objective", || {
        SketchObjective::build(
            inst,
            bridge.nodes.clone(),
            SketchParams::default(),
            seed,
            PAPER_OPOAO_HOPS,
        )
        .expect("default sketch parameters are valid")
    });
    let mut coverage = CoverageScratch::new();
    let sigma_ms = timed_median("core.sketch_objective", |_| {
        black_box(sketches.sigma_with(&protectors, &mut coverage).ok());
    });
    out.push(("core.sketch_objective.build_ms", build_ms));
    out.push((
        "core.sketch_objective.sketches",
        sketches.sketch_count() as f64,
    ));
    out.push(("core.sketch_objective.sigma_us", sigma_ms * 1e3));

    // L3: a budget-mode CELF greedy called directly, on the sketch
    // estimator the session uses; an MC greedy would take seconds.
    let config = GreedyConfig {
        master_seed: seed,
        threads: 1,
        estimator: Estimator::Sketch(SketchParams::default()),
        ..GreedyConfig::default()
    };
    let budget = inst.rumor_seeds().len().max(2);
    let (greedy, greedy_ms) = timed("core.greedy", || greedy_with_budget(inst, budget, &config));
    out.push(("core.greedy.ms", greedy_ms));
    if let Ok(g) = greedy {
        out.push(("core.greedy.probe_evaluations", g.evaluations as f64));
        out.push(("core.greedy.probe_picks", g.protectors.len() as f64));
    }

    let (cover, scbg_ms) = timed("core.scbg", || scbg(inst, &ScbgConfig::default()));
    out.push(("core.scbg.ms", scbg_ms));
    out.push(("core.scbg.candidates", cover.candidate_count as f64));
    out.push((
        "core.scbg.covered_ratio",
        cover.covered as f64 / cover.bridge_ends.len().max(1) as f64,
    ));

    out.extend(engine(inst, seed, threads, tally));
    out
}

/// L4: cold, budget-extended and replayed sketch-greedy solves on one
/// session, then the session workload's batch at one worker and at
/// `threads` workers.
fn engine(inst: &RumorBlockingInstance, seed: u64, threads: usize, tally: &mut Tally) -> Sample {
    let session = || Solver::with_config(inst.clone(), SolverConfig { master_seed: seed });
    let budget = inst.rumor_seeds().len().max(2);
    let solver = session();
    let before = solver.cache_stats();
    let time = |request| {
        let (out, ms) = timed("core.engine", || solver.solve(&request));
        (out.ok(), ms)
    };
    let (_, cold_ms) = time(sketch_greedy(budget));
    let (_, extend_ms) = time(sketch_greedy(budget + 2));
    let (_, replay_ms) = time(sketch_greedy(budget + 2));
    let lookups = solver.cache_stats().delta_since(&before);
    tally.cache_hits += lookups.hits();
    tally.cache_misses += lookups.misses();
    // As `engine_concurrent`: the batch runs on a warm session (bridge
    // ends and sketch index cached), and each request's distinct pool
    // builds its own CELF trajectory.
    let batch = batch_requests(budget);
    let batch_ms = |workers| {
        let solver = session();
        let warm = SolveRequest {
            candidates: CandidatePool::BackwardRadius(3),
            ..sketch_greedy(budget)
        };
        let _ = timed("core.engine", || solver.solve(&warm));
        timed("core.engine", || {
            solver.solve_many_threaded(&batch, workers)
        })
        .1
    };
    let (t1, tn) = (batch_ms(1), batch_ms(threads));
    vec![
        ("core.engine.cold_ms", cold_ms),
        ("core.engine.extend_ms", extend_ms),
        ("core.engine.replay_us", replay_ms * 1e3),
        ("core.engine.batch_ms_t1", t1),
        ("core.engine.batch_ms_tN", tn),
        ("core.engine.scaling", t1 / tn),
    ]
}
