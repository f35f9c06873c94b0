//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation section (see DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use lcrb::evaluate::{evaluate_protector_sets, HopSeriesReport};
use lcrb::{
    max_degree_ordering, protectors_to_cover_all, proximity_pool, scbg, Algorithm, BridgeEndRule,
    CandidatePool, Estimator, RumorBlockingInstance, ScbgConfig, SolveDetail, SolveRequest, Solver,
    SolverConfig,
};
use lcrb_datasets::{
    enron_like, enron_like_heterogeneous, hep_like, hep_like_heterogeneous, DatasetConfig,
    SyntheticDataset,
};
use lcrb_diffusion::{DoamModel, MonteCarloConfig, OpoaoModel, SimWorkspace, TwoCascadeModel};
use lcrb_graph::NodeId;

/// Which network / rumor community an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Hep-like network, rumor community ≈ 308 nodes (paper Figs 4/7).
    Hep,
    /// Enron-like network, rumor community ≈ 80 nodes (Figs 5/8).
    EnronSmall,
    /// Enron-like network, rumor community ≈ 2631 nodes (Figs 6/9).
    EnronLarge,
}

impl DatasetKind {
    /// Builds the dataset at `scale` and returns it with the id of
    /// the designated rumor community. When `heterogeneous` is set,
    /// the degree-heterogeneous (Chung–Lu) variants are used — the
    /// ablation studying how hub structure changes the heuristics.
    #[must_use]
    pub fn build(self, scale: f64, seed: u64, heterogeneous: bool) -> (SyntheticDataset, usize) {
        let cfg = DatasetConfig::new(scale, seed);
        let (ds, pinned) = match self {
            DatasetKind::Hep => {
                let ds = if heterogeneous {
                    hep_like_heterogeneous(&cfg)
                } else {
                    hep_like(&cfg)
                };
                (ds, 0)
            }
            DatasetKind::EnronSmall => {
                let ds = if heterogeneous {
                    enron_like_heterogeneous(&cfg)
                } else {
                    enron_like(&cfg)
                };
                (ds, 1)
            }
            DatasetKind::EnronLarge => {
                let ds = if heterogeneous {
                    enron_like_heterogeneous(&cfg)
                } else {
                    enron_like(&cfg)
                };
                (ds, 0)
            }
        };
        let c = ds.pinned_communities[pinned];
        (ds, c)
    }

    /// The rumor-seed fractions the paper pairs with this dataset
    /// (Table I).
    #[must_use]
    pub fn paper_fractions(self) -> &'static [f64] {
        match self {
            DatasetKind::Hep | DatasetKind::EnronLarge => &[0.01, 0.05, 0.10],
            DatasetKind::EnronSmall => &[0.05, 0.10, 0.20],
        }
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Hep => "hep-like",
            DatasetKind::EnronSmall => "enron-like (small community)",
            DatasetKind::EnronLarge => "enron-like (large community)",
        }
    }
}

/// The diffusion model a figure runs under, which also picks the
/// selection it compares with the heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FigureModel {
    /// OPOAO (Figs 4–6): the LCRB-P greedy at the rumor budget.
    Opoao,
    /// DOAM (Figs 7–9): SCBG, whose size is everyone's budget.
    Doam,
}

/// One figure of the paper, as a harness specification.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Experiment id ("fig4" ... "fig9").
    pub id: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Dataset / community.
    pub dataset: DatasetKind,
    /// Diffusion model and selection.
    pub model: FigureModel,
}

/// The six figures of the paper's evaluation.
pub const FIGURES: [FigureSpec; 6] = [
    FigureSpec {
        id: "fig4",
        title: "Infected nodes under OPOAO, Hep |C|~308",
        dataset: DatasetKind::Hep,
        model: FigureModel::Opoao,
    },
    FigureSpec {
        id: "fig5",
        title: "Infected nodes under OPOAO, Enron |C|~80",
        dataset: DatasetKind::EnronSmall,
        model: FigureModel::Opoao,
    },
    FigureSpec {
        id: "fig6",
        title: "Infected nodes under OPOAO, Enron |C|~2631",
        dataset: DatasetKind::EnronLarge,
        model: FigureModel::Opoao,
    },
    FigureSpec {
        id: "fig7",
        title: "Infected nodes under DOAM, Hep |C|~308",
        dataset: DatasetKind::Hep,
        model: FigureModel::Doam,
    },
    FigureSpec {
        id: "fig8",
        title: "Infected nodes under DOAM, Enron |C|~80",
        dataset: DatasetKind::EnronSmall,
        model: FigureModel::Doam,
    },
    FigureSpec {
        id: "fig9",
        title: "Infected nodes under DOAM, Enron |C|~2631",
        dataset: DatasetKind::EnronLarge,
        model: FigureModel::Doam,
    },
];

/// Looks up a figure spec by id ("fig4" ... "fig9").
#[must_use]
pub fn figure_spec(id: &str) -> Option<FigureSpec> {
    FIGURES.iter().copied().find(|f| f.id == id)
}

/// Harness-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Dataset scale in `(0, 1]`.
    pub scale: f64,
    /// Monte-Carlo runs per OPOAO evaluation.
    pub mc_runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Rumor-seed redraws averaged in Table I and in each
    /// source-detection regime.
    pub trials: usize,
    /// Realizations for the greedy objective.
    pub realizations: usize,
    /// Candidate pool for the greedy (restricted by default for
    /// speed; `CandidatePool::AllNonRumor` reproduces the paper's
    /// literal Algorithm 1).
    pub greedy_pool: CandidatePool,
    /// Use the degree-heterogeneous (Chung–Lu) dataset variants.
    pub heterogeneous: bool,
    /// σ̂ estimator driving the LCRB-P greedy in the OPOAO figures:
    /// fixed-realization Monte Carlo (the paper's Algorithm 1) or the
    /// RR-sketch estimator (`--estimator sketch`).
    pub estimator: Estimator,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 1.0,
            mc_runs: 100,
            seed: 1,
            trials: 3,
            realizations: 16,
            greedy_pool: CandidatePool::BackwardRadius(1),
            heterogeneous: false,
            estimator: Estimator::default(),
        }
    }
}

/// One rumor-fraction sub-experiment of a figure.
#[derive(Clone, Debug)]
pub struct SubExperiment {
    /// Fraction of the community seeded with rumors.
    pub fraction: f64,
    /// Actual number of rumor originators.
    pub rumor_count: usize,
    /// Protector budget used by every strategy.
    pub budget: usize,
    /// Number of bridge ends of the drawn instance.
    pub bridge_ends: usize,
    /// The hop-series comparison.
    pub report: HopSeriesReport,
}

/// A regenerated figure: one sub-experiment per rumor fraction.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Experiment id ("fig4" ...).
    pub id: &'static str,
    /// Title string.
    pub title: &'static str,
    /// Dataset summary line.
    pub dataset_summary: String,
    /// Size of the rumor community actually used.
    pub community_size: usize,
    /// Sub-experiments in fraction order.
    pub subs: Vec<SubExperiment>,
}

fn instance_for(
    ds: &SyntheticDataset,
    community: usize,
    fraction: f64,
    seed: u64,
) -> RumorBlockingInstance {
    let size = ds.planted.community_sizes()[community];
    let count = ((size as f64 * fraction).round() as usize).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        community,
        count,
        &mut rng,
    )
    .expect("pinned communities are non-empty")
}

/// Regenerates one figure, one sub-experiment per rumor fraction.
/// Each draws an instance, selects with the figure's algorithm, gives
/// Proximity, MaxDegree and NoBlocking the same budget, and scores
/// all four on common runs:
///
/// - OPOAO (Figs 4–6): the greedy, with protector and rumor budgets
///   equal; mean infected count per hop over `mc_runs` simulations.
/// - DOAM (Figs 7–9): SCBG, whose solution size fixes the budget; the
///   heuristics draw that many nodes from their own candidate pools
///   (§VI-B2: "we compute their solutions first, then randomly choose
///   the protectors with the predetermined size"); one deterministic
///   run.
#[must_use]
pub fn run_figure(spec: &FigureSpec, cfg: &HarnessConfig) -> FigureResult {
    let (ds, community) = spec.dataset.build(cfg.scale, cfg.seed, cfg.heterogeneous);
    let community_size = ds.planted.community_sizes()[community];
    let mut subs = Vec::new();
    for (i, &fraction) in spec.dataset.paper_fractions().iter().enumerate() {
        let inst = instance_for(&ds, community, fraction, cfg.seed ^ (i as u64) << 8);
        let rumor_count = inst.rumor_seeds().len();
        // One solver session per drawn instance: the selection and the
        // baselines share its cached bridge ends and orderings.
        let solver = Solver::with_config(
            inst,
            SolverConfig {
                master_seed: cfg.seed,
            },
        );
        let request = match spec.model {
            FigureModel::Opoao => SolveRequest {
                realizations: cfg.realizations,
                candidates: cfg.greedy_pool,
                estimator: cfg.estimator,
                ..SolveRequest::greedy_budget(rumor_count)
            },
            FigureModel::Doam => SolveRequest::scbg(),
        };
        let selected = solver
            .solve(&request)
            .expect("budget-mode greedy and SCBG cannot fail on a valid instance");
        let bridge_ends = match &selected.detail {
            SolveDetail::Greedy(greedy) => greedy.bridge_ends.len(),
            SolveDetail::Scbg(sol) => sol.bridge_ends.len(),
            _ => unreachable!("a greedy or SCBG request carries its own detail"),
        };
        let budget = match spec.model {
            FigureModel::Opoao => rumor_count,
            FigureModel::Doam => selected.protectors.len(),
        };
        let mut sets = vec![(selected.algorithm, selected.protectors)];
        // The baselines batch through `solve_many`: results come back
        // in request order, so the figure's strategy order holds.
        let baselines = [
            Algorithm::Proximity,
            Algorithm::MaxDegree,
            Algorithm::NoBlocking,
        ]
        .map(|algorithm| SolveRequest::heuristic(algorithm, budget));
        for run in solver.solve_many(&baselines) {
            let run = run.expect("budgeted heuristics cannot fail on a valid instance");
            sets.push((run.algorithm, run.protectors));
        }
        let report = match spec.model {
            FigureModel::Opoao => evaluate_protector_sets(
                solver.instance(),
                &OpoaoModel::default(),
                &sets,
                &MonteCarloConfig {
                    runs: cfg.mc_runs,
                    base_seed: cfg.seed,
                    threads: 0,
                },
            ),
            FigureModel::Doam => evaluate_protector_sets(
                solver.instance(),
                &DoamModel::default(),
                &sets,
                &MonteCarloConfig {
                    runs: 1,
                    base_seed: cfg.seed,
                    threads: 1,
                },
            ),
        }
        .expect("selector outputs are valid protector sets");
        subs.push(SubExperiment {
            fraction,
            rumor_count,
            budget,
            bridge_ends,
            report,
        });
    }
    FigureResult {
        id: spec.id,
        title: spec.title,
        dataset_summary: ds.summary().to_string(),
        community_size,
        subs,
    }
}

/// One row of the paper's Table I: the average number of protectors
/// each algorithm needs to protect *all* bridge ends under DOAM.
#[derive(Clone, Debug)]
pub struct TableOneRow {
    /// Dataset label.
    pub dataset: &'static str,
    /// Network size `|N|`.
    pub network_size: usize,
    /// Rumor community size `|C|`.
    pub community_size: usize,
    /// Bridge-end count `|B|` (averaged over trials).
    pub bridge_ends: f64,
    /// Rumor fraction `|R| / |C|`.
    pub fraction: f64,
    /// Average protectors selected by SCBG.
    pub scbg: f64,
    /// Average protectors needed by Proximity to cover all bridge
    /// ends.
    pub proximity: f64,
    /// Average protectors needed by MaxDegree to cover all bridge
    /// ends.
    pub max_degree: f64,
}

/// The Proximity coverage ordering: the shuffled direct-out-neighbor
/// pool, extended (when the pool alone cannot cover) with the
/// remaining nodes in decreasing degree order.
fn proximity_ordering<R: Rng + ?Sized>(inst: &RumorBlockingInstance, rng: &mut R) -> Vec<NodeId> {
    let mut pool = proximity_pool(inst);
    pool.shuffle(rng);
    let mut in_pool = vec![false; inst.graph().node_count()];
    for &v in &pool {
        in_pool[v.index()] = true;
    }
    for v in max_degree_ordering(inst) {
        if !in_pool[v.index()] {
            pool.push(v);
        }
    }
    pool
}

/// Regenerates Table I: for each (dataset, rumor fraction) cell,
/// averages over `cfg.trials` rumor-seed draws.
#[must_use]
pub fn run_table_one(cfg: &HarnessConfig) -> Vec<TableOneRow> {
    let mut rows = Vec::new();
    for kind in [
        DatasetKind::Hep,
        DatasetKind::EnronSmall,
        DatasetKind::EnronLarge,
    ] {
        let (ds, community) = kind.build(cfg.scale, cfg.seed, cfg.heterogeneous);
        let community_size = ds.planted.community_sizes()[community];
        for &fraction in kind.paper_fractions() {
            let (mut s_sum, mut p_sum, mut m_sum, mut b_sum) = (0.0, 0.0, 0.0, 0.0);
            for trial in 0..cfg.trials.max(1) {
                let inst = instance_for(
                    &ds,
                    community,
                    fraction,
                    cfg.seed ^ ((trial as u64 + 1) << 16) ^ (fraction.to_bits() >> 32),
                );
                let sol = scbg(&inst, &ScbgConfig::default());
                s_sum += sol.protectors.len() as f64;
                b_sum += sol.bridge_ends.len() as f64;
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ trial as u64);
                let prox_order = proximity_ordering(&inst, &mut rng);
                let prox =
                    protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &prox_order)
                        .expect("ordering spans all non-rumor nodes, so coverage succeeds");
                p_sum += prox.len() as f64;
                let md_order = max_degree_ordering(&inst);
                let md = protectors_to_cover_all(&inst, BridgeEndRule::WithinCommunity, &md_order)
                    .expect("ordering spans all non-rumor nodes, so coverage succeeds");
                m_sum += md.len() as f64;
            }
            let t = cfg.trials.max(1) as f64;
            rows.push(TableOneRow {
                dataset: kind.label(),
                network_size: ds.graph.node_count(),
                community_size,
                bridge_ends: b_sum / t,
                fraction,
                scbg: s_sum / t,
                proximity: p_sum / t,
                max_degree: m_sum / t,
            });
        }
    }
    rows
}

/// One row of the source-detection accuracy experiment (an
/// extension beyond the paper: its §VII names source location as an
/// open problem; `lcrb::source` is our implementation and this is
/// its evaluation).
#[derive(Clone, Debug)]
pub struct SourceDetectionRow {
    /// Snapshot kind ("doam-2", "opoao-8", ...).
    pub snapshot: &'static str,
    /// Trials aggregated.
    pub trials: usize,
    /// Candidates ranked per trial (the rumor community size).
    pub candidates: usize,
    /// Mean 0-based rank of the true source.
    pub mean_rank: f64,
    /// Trials where the true source ranked first.
    pub top1: usize,
    /// Trials where it ranked within the top 10% of candidates.
    pub top10pct: usize,
}

/// Evaluates the distance-centrality source ranker on the Hep-like
/// network: single hidden originator, several snapshot regimes,
/// `cfg.trials` repetitions each.
#[must_use]
pub fn run_source_detection(cfg: &HarnessConfig) -> Vec<SourceDetectionRow> {
    let (ds, community) = DatasetKind::Hep.build(cfg.scale, cfg.seed, cfg.heterogeneous);
    let regimes: [(&'static str, bool, u32); 4] = [
        ("doam-2", true, 2),
        ("doam-3", true, 3),
        ("opoao-8", false, 8),
        ("opoao-15", false, 15),
    ];
    let mut rows = Vec::new();
    let mut ws = SimWorkspace::new();
    for (label, deterministic, hops) in regimes {
        let mut rank_sum = 0.0;
        let mut top1 = 0;
        let mut top10 = 0;
        let mut candidates_len = 0;
        for trial in 0..cfg.trials {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ((trial as u64 + 7) << 24));
            let inst = RumorBlockingInstance::with_random_seeds(
                ds.graph.clone(),
                ds.planted.clone(),
                community,
                1,
                &mut rng,
            )
            .expect("pinned community exists");
            let true_source = inst.rumor_seeds()[0];
            let seeds = inst.seed_sets(vec![]).expect("no protectors is valid");
            let snapshot = inst.snapshot();
            if deterministic {
                DoamModel::new(hops).run_deterministic_into(snapshot, &seeds, &mut ws);
            } else {
                OpoaoModel::new(hops).run_into(snapshot, &seeds, &mut ws, &mut rng);
            }
            let suspects = inst.rumor_community_members();
            candidates_len = suspects.len();
            let infected = ws.to_outcome().infected_nodes();
            let ranking = lcrb::source::rank_sources(snapshot, &infected, &suspects);
            let rank = ranking
                .rank_of(true_source)
                .expect("true source is a community member");
            rank_sum += rank as f64;
            if rank == 0 {
                top1 += 1;
            }
            if rank < suspects.len().div_ceil(10) {
                top10 += 1;
            }
        }
        rows.push(SourceDetectionRow {
            snapshot: label,
            trials: cfg.trials,
            candidates: candidates_len,
            mean_rank: rank_sum / cfg.trials as f64,
            top1,
            top10pct: top10,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HarnessConfig {
        HarnessConfig {
            scale: 0.05,
            mc_runs: 4,
            seed: 3,
            trials: 1,
            realizations: 4,
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn heterogeneous_datasets_plug_into_every_experiment() {
        let cfg = HarnessConfig {
            heterogeneous: true,
            ..quick_cfg()
        };
        let rows = run_table_one(&cfg);
        assert_eq!(rows.len(), 9);
        for row in rows.iter().filter(|r| r.dataset.contains("large")) {
            assert!(row.scbg <= row.proximity + 1e-9);
        }
        let spec = figure_spec("fig8").unwrap();
        let result = run_figure(&spec, &cfg);
        assert_eq!(result.subs.len(), 3);
    }

    #[test]
    fn source_detection_rows_are_sane() {
        let cfg = HarnessConfig {
            trials: 5,
            ..quick_cfg()
        };
        let rows = run_source_detection(&cfg);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.trials, cfg.trials);
            assert!(row.mean_rank >= 0.0);
            assert!(row.top1 <= row.trials);
            assert!(row.top10pct >= row.top1);
        }
        // Deterministic tight snapshots localize well.
        let doam2 = rows.iter().find(|r| r.snapshot == "doam-2").unwrap();
        assert!(
            doam2.top10pct * 2 >= doam2.trials,
            "doam-2 top10 {}/{}",
            doam2.top10pct,
            doam2.trials
        );
    }

    #[test]
    fn sketch_estimator_plugs_into_opoao_figures() {
        let cfg = HarnessConfig {
            estimator: Estimator::Sketch(lcrb::SketchParams {
                epsilon: 0.25,
                delta: 0.1,
                min_sketches: 64,
                max_sketches: 1024,
            }),
            ..quick_cfg()
        };
        let spec = figure_spec("fig5").unwrap();
        let result = run_figure(&spec, &cfg);
        assert_eq!(result.subs.len(), 3);
        for sub in &result.subs {
            // The sketch-selected greedy still beats doing nothing.
            let greedy = sub.report.runs[0].averaged.mean_final_infected();
            let nb = sub.report.runs[3].averaged.mean_final_infected();
            assert!(greedy <= nb + 1e-9);
        }
    }

    #[test]
    fn figure_specs_are_complete() {
        for id in ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9"] {
            assert!(figure_spec(id).is_some(), "missing {id}");
        }
        assert!(figure_spec("fig99").is_none());
    }

    #[test]
    fn opoao_figure_produces_all_strategies_and_fractions() {
        let spec = figure_spec("fig5").unwrap();
        let result = run_figure(&spec, &quick_cfg());
        assert_eq!(result.subs.len(), 3);
        for sub in &result.subs {
            assert_eq!(sub.report.runs.len(), 4);
            assert_eq!(sub.budget, sub.rumor_count);
            let names: Vec<&str> = sub.report.runs.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names, ["greedy", "proximity", "max-degree", "no-blocking"]);
            // NoBlocking is the worst (or tied): protection never
            // increases infections.
            let nb = sub.report.runs[3].averaged.mean_final_infected();
            for run in &sub.report.runs[..3] {
                assert!(run.averaged.mean_final_infected() <= nb + 1e-9);
            }
        }
    }

    #[test]
    fn doam_figure_uses_scbg_budget() {
        let spec = figure_spec("fig8").unwrap();
        let result = run_figure(&spec, &quick_cfg());
        for sub in &result.subs {
            assert_eq!(sub.report.runs[0].name, "scbg");
            assert_eq!(sub.report.runs[0].protectors.len(), sub.budget);
            // Heuristics use at most the same budget (pool may be
            // smaller for proximity).
            assert!(sub.report.runs[1].protectors.len() <= sub.budget);
            assert_eq!(sub.report.runs[2].protectors.len(), sub.budget);
        }
    }

    #[test]
    fn table_one_has_nine_rows_with_sane_values() {
        let rows = run_table_one(&quick_cfg());
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(row.scbg >= 0.0);
            assert!(row.proximity >= 0.0);
            assert!(row.max_degree >= 0.0);
            assert!(row.bridge_ends >= 0.0);
            assert!(row.fraction > 0.0);
        }
        // The headline result: SCBG needs the fewest protectors on
        // the large Enron community at every fraction.
        for row in rows.iter().filter(|r| r.dataset.contains("large")) {
            assert!(
                row.scbg <= row.proximity + 1e-9,
                "scbg {} > proximity {}",
                row.scbg,
                row.proximity
            );
            assert!(row.scbg <= row.max_degree + 1e-9);
        }
    }
}
