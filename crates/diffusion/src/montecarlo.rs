//! Parallel Monte-Carlo driver for stochastic diffusion models.
//!
//! The paper's Figures 4–6 report "the average results obtained by
//! repeated Monte Carlo simulation"; this module is that averaging
//! loop, parallelized across std scoped threads and reproducible from
//! a single base seed. One loop, [`monte_carlo_sets`], scores one
//! protector set or many. It alone decides which stream run `r`
//! draws from, so run `r` of every set scored with one
//! [`MonteCarloConfig`] sees the same randomness, and under OPOAO one
//! lane-packed pass per run scores up to [`OPOAO_LANES`] sets.

// xtask-allow-file: index -- hop series are read below their own length, and each worker holds one accumulator per set
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::CsrGraph;

use crate::{
    derive_stream, HopRecord, LaneWorkspace, OpoaoRealization, SeedSets, SimWorkspace,
    TwoCascadeModel, OPOAO_LANES,
};

/// Configuration for [`monte_carlo_csr`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of independent simulation runs.
    pub runs: usize,
    /// Base seed. Run `r` draws from the stream
    /// [`derive_stream`]`(base_seed, r)` whatever the model, protector
    /// set or thread count. Every set scored with one config therefore
    /// meets the same randomness in run `r` — for OPOAO, the same
    /// [`OpoaoRealization`] — and two sets' runs pair up
    /// ([`AveragedOutcome::final_infected_by_run`]).
    pub base_seed: u64,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            runs: 100,
            base_seed: 0,
            threads: 0,
        }
    }
}

impl MonteCarloConfig {
    /// Workers for a batch: `threads` (or the available parallelism),
    /// at most one per run.
    fn workers(&self) -> usize {
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            threads => threads,
        };
        threads.min(self.runs).max(1)
    }
}

/// Per-hop averages over a batch of Monte-Carlo runs.
///
/// Hop series from runs of different lengths are aligned by carrying
/// each run's final value forward (a quiescent diffusion keeps its
/// totals), so `mean_infected_by_hop[h]` is the expected number of
/// infected nodes after `h` hops — exactly the series plotted in the
/// paper's figures.
#[derive(Clone, Debug, PartialEq)]
pub struct AveragedOutcome {
    /// Number of runs averaged.
    pub runs: usize,
    /// Expected cumulative infected count per hop (index = hop).
    pub mean_infected_by_hop: Vec<f64>,
    /// Expected cumulative protected count per hop (index = hop).
    pub mean_protected_by_hop: Vec<f64>,
    /// Sample standard deviation of the final infected count across
    /// runs (0 for fewer than 2 runs) — the error bar on
    /// [`AveragedOutcome::mean_final_infected`].
    pub std_final_infected: f64,
    /// Each run's final infected count, indexed by run: the sample
    /// behind the two fields above. Two sets scored with one
    /// [`MonteCarloConfig`] share run `r`'s randomness, so their
    /// entries `r` form a pair.
    pub final_infected_by_run: Vec<usize>,
}

impl AveragedOutcome {
    /// Expected infected count at the end of diffusion.
    #[must_use]
    pub fn mean_final_infected(&self) -> f64 {
        self.mean_infected_by_hop.last().copied().unwrap_or(0.0)
    }

    /// Expected protected count at the end of diffusion.
    #[must_use]
    pub fn mean_final_protected(&self) -> f64 {
        self.mean_protected_by_hop.last().copied().unwrap_or(0.0)
    }

    /// Expected infected count after `hop` hops (final value carried
    /// forward).
    #[must_use]
    pub fn mean_infected_at_hop(&self, hop: u32) -> f64 {
        let idx = (hop as usize).min(self.mean_infected_by_hop.len().saturating_sub(1));
        self.mean_infected_by_hop.get(idx).copied().unwrap_or(0.0)
    }
}

#[derive(Default)]
struct SeriesAccumulator {
    /// Per hop, the summed cumulative (infected, protected) counts.
    /// Every term is an integer, so the sums are exact in any order.
    sums: Vec<(f64, f64)>,
    /// Final infected count of each run added, in the order added.
    finals: Vec<usize>,
}

impl SeriesAccumulator {
    /// Adds a series of `len` hops, hop `h` being `at(h)`. The shorter
    /// of it and the sums carries its last value forward: a finished
    /// diffusion keeps its totals.
    fn add(&mut self, len: usize, at: impl Fn(usize) -> (f64, f64)) {
        if len > self.sums.len() {
            let pad = self.sums.last().copied().unwrap_or_default();
            self.sums.resize(len, pad);
        }
        let last = len.checked_sub(1).map_or((0.0, 0.0), &at);
        for (h, sum) in self.sums.iter_mut().enumerate() {
            let (infected, protected) = if h < len { at(h) } else { last };
            *sum = (sum.0 + infected, sum.1 + protected);
        }
    }

    /// Accumulates one run directly from its hop trace — the
    /// workspace path, which never materializes a `DiffusionOutcome`.
    fn add_trace(&mut self, trace: &[HopRecord]) {
        self.add(trace.len(), |h| {
            let rec = &trace[h];
            (rec.total_infected as f64, rec.total_protected as f64)
        });
        let last = trace.last();
        self.finals.push(last.map_or(0, |r| r.total_infected));
    }

    /// Adds `other`'s sums into ours. The per-run finals are left to
    /// the caller, which knows each worker's runs.
    fn merge(mut self, other: SeriesAccumulator) -> SeriesAccumulator {
        self.add(other.sums.len(), |h| other.sums[h]);
        self
    }

    /// The average of the runs whose finals, in run order, are
    /// `finals`.
    fn into_average(self, finals: Vec<usize>) -> AveragedOutcome {
        let runs = finals.len().max(1) as f64;
        let std_final_infected = if finals.len() >= 2 {
            // The counts are integers, so both sums are exact in f64
            // (below 2^53) whatever the order of the terms.
            let sum: f64 = finals.iter().map(|&fin| fin as f64).sum();
            let sumsq: f64 = finals.iter().map(|&fin| (fin * fin) as f64).sum();
            let mean = sum / runs;
            ((sumsq / runs - mean * mean).max(0.0) * runs / (runs - 1.0)).sqrt()
        } else {
            0.0
        };
        AveragedOutcome {
            runs: finals.len(),
            mean_infected_by_hop: self.sums.iter().map(|s| s.0 / runs).collect(),
            mean_protected_by_hop: self.sums.iter().map(|s| s.1 / runs).collect(),
            std_final_infected,
            final_infected_by_run: finals,
        }
    }
}

/// Run `run`'s RNG: the stream [`derive_stream`]`(base_seed, run)`,
/// the same for every model, protector set and thread count.
fn run_rng(base_seed: u64, run: usize) -> SmallRng {
    SmallRng::seed_from_u64(derive_stream(base_seed, run as u64))
}

/// Runs `config.runs` independent simulations of `model` on the
/// snapshot `graph` and averages the hop series: the one-set case of
/// [`monte_carlo_sets`]. Deterministic for a fixed `config` regardless
/// of `threads`.
///
/// # Panics
///
/// Panics if `seeds` refers to nodes outside `graph`.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::{monte_carlo_csr, MonteCarloConfig, OpoaoModel, SeedSets};
/// use lcrb_graph::generators::path_graph;
/// use lcrb_graph::{CsrGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = path_graph(4);
/// let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)])?;
/// let config = MonteCarloConfig {
///     runs: 10,
///     ..MonteCarloConfig::default()
/// };
/// let avg = monte_carlo_csr(&OpoaoModel::default(), &CsrGraph::from(&g), &seeds, &config);
/// assert_eq!(avg.mean_final_infected(), 4.0); // path diffusion is forced
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn monte_carlo_csr<M>(
    model: &M,
    graph: &CsrGraph,
    seeds: &SeedSets,
    config: &MonteCarloConfig,
) -> AveragedOutcome
where
    M: TwoCascadeModel + Sync,
{
    monte_carlo_sets(model, graph, std::slice::from_ref(seeds), config)
        .pop()
        // xtask-allow: panic -- the driver returns one average per set, and it was given one set
        .expect("one set scored")
}

/// The Monte-Carlo loop: `config.runs` runs of `model` on `graph` for
/// each set of `seeds`, one [`AveragedOutcome`] per set, in order.
/// Entry `i` equals [`monte_carlo_csr`]`(model, graph, &seeds[i],
/// config)` bit for bit.
///
/// Worker `t` of `w` runs runs `t, t + w, ...` and keeps its
/// workspace across them, so the steady-state loop makes no per-run
/// heap allocation. Run `r` of every set draws from the stream
/// [`derive_stream`]`(base_seed, r)`, so the sets'
/// [`AveragedOutcome::final_infected_by_run`] pair up. For an OPOAO model
/// ([`TwoCascadeModel::as_opoao`]) and sets with equal rumors, run
/// `r` draws one [`OpoaoRealization`], and one
/// [`crate::OpoaoModel::run_lanes_into`] pass scores up to
/// [`OPOAO_LANES`] sets on it, a single set on one lane. Otherwise
/// each set's [`TwoCascadeModel::run_into`] starts from that stream
/// afresh. Either way every set gets, bit for bit and at any thread
/// count, what the scalar kernel gives it alone.
///
/// # Panics
///
/// Panics if a seed set refers to nodes outside `graph`.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::{monte_carlo_csr, monte_carlo_sets, MonteCarloConfig, OpoaoModel, SeedSets};
/// use lcrb_graph::{CsrGraph, DiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])?;
/// let csr = CsrGraph::from(&g);
/// let none = SeedSets::rumors_only(&g, vec![NodeId::new(0)])?;
/// let guarded = none.with_protectors(&g, vec![NodeId::new(3)])?;
/// let config = MonteCarloConfig { runs: 20, ..MonteCarloConfig::default() };
/// let model = OpoaoModel::default();
/// let scored = monte_carlo_sets(&model, &csr, &[none.clone(), guarded], &config);
/// assert_eq!(scored[0], monte_carlo_csr(&model, &csr, &none, &config));
/// // Paired runs: the protector never raises a run's infections.
/// let (a, b) = (&scored[0].final_infected_by_run, &scored[1].final_infected_by_run);
/// assert!(a.iter().zip(b).all(|(x, y)| y <= x));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn monte_carlo_sets<M>(
    model: &M,
    graph: &CsrGraph,
    seeds: &[SeedSets],
    config: &MonteCarloConfig,
) -> Vec<AveragedOutcome>
where
    M: TwoCascadeModel + Sync,
{
    // The lanes score sets that share their rumors.
    let shared_rumors = (seeds.first().map(SeedSets::rumors))
        .filter(|&rumors| seeds.iter().all(|s| s.rumors() == rumors));
    let lanes = model.as_opoao().zip(shared_rumors);
    let (runs, workers) = (config.runs, config.workers());
    let work = |t: usize| {
        // xtask-allow: hotreach -- one accumulator per set per worker per batch, outside the per-run loop
        let mut accs: Vec<SeriesAccumulator> = seeds.iter().map(|_| Default::default()).collect();
        // Both workspaces grow on first use, so an arm allocates only its own.
        let (mut ws, mut lane_ws) = (SimWorkspace::new(), LaneWorkspace::traced());
        // xtask-allow: hotreach -- one trace buffer per worker per batch, refilled by every run
        let mut trace = Vec::new();
        for run in (t..runs).step_by(workers) {
            let Some((opoao, rumors)) = lanes else {
                for (set, acc) in seeds.iter().zip(&mut accs) {
                    model.run_into(graph, set, &mut ws, &mut run_rng(config.base_seed, run));
                    acc.add_trace(ws.trace());
                }
                continue;
            };
            let realization = OpoaoRealization::draw(&mut run_rng(config.base_seed, run));
            for (sets, accs) in seeds.chunks(OPOAO_LANES).zip(accs.chunks_mut(OPOAO_LANES)) {
                opoao
                    .run_lanes_into(
                        graph,
                        rumors,
                        sets.iter().map(SeedSets::protectors),
                        &mut lane_ws,
                        &realization,
                    )
                    // xtask-allow: panic -- seed sets are validated at construction and chunks never exceed the lane count
                    .expect("validated seed sets fit the lanes");
                for (lane, acc) in accs.iter_mut().enumerate() {
                    lane_ws.trace_into(lane, &mut trace);
                    acc.add_trace(&trace);
                }
            }
        }
        accs
    };
    // Worker 0 runs on the calling thread, the others on scoped threads.
    let mut per_worker: Vec<Vec<SeriesAccumulator>> = std::thread::scope(|scope| {
        let work = &work;
        // xtask-allow: hotreach -- one join handle per extra worker per batch, outside the per-run loop
        let others: Vec<_> = (1..workers).map(|t| scope.spawn(move || work(t))).collect();
        let first = work(0);
        let joined = others.into_iter().map(|h| {
            // xtask-allow: panic -- re-raising a worker panic on the coordinating thread is the intended behavior
            h.join().expect("monte carlo worker panicked")
        });
        // xtask-allow: hotreach -- one result per worker per batch, gathered once for the merge
        std::iter::once(first).chain(joined).collect()
    });
    (0..seeds.len())
        .map(|set| {
            let accs: Vec<_> = per_worker
                .iter_mut()
                .map(|accs| std::mem::take(&mut accs[set]))
                // xtask-allow: hotreach -- each set's worker accumulators, gathered once for the merge
                .collect();
            // Run `r` is entry `r / w` of worker `r % w`.
            let finals = (0..runs)
                .map(|r| accs[r % workers].finals[r / workers])
                // xtask-allow: hotreach -- one per-run sample per set per batch, built once after the runs
                .collect();
            accs.into_iter()
                .reduce(SeriesAccumulator::merge)
                .unwrap_or_default()
                .into_average(finals)
        })
        // xtask-allow: hotreach -- one average per set, gathered once per batch
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fresh_run, seeds};
    use crate::{DoamModel, OpoaoModel, TwoCascadeModel};
    use lcrb_graph::{generators, DiGraph};
    use rand::Rng;

    /// OPOAO through the scalar kernel alone: `as_opoao` stays `None`,
    /// so the loop runs it set by set — the reference for the lanes.
    struct ScalarOpoao(OpoaoModel);

    impl TwoCascadeModel for ScalarOpoao {
        fn run_into<R: Rng + ?Sized>(
            &self,
            graph: &CsrGraph,
            seeds: &SeedSets,
            ws: &mut SimWorkspace,
            rng: &mut R,
        ) {
            self.0.run_into(graph, seeds, ws, rng);
        }

        fn name(&self) -> &'static str {
            "scalar-opoao"
        }
    }

    #[test]
    fn deterministic_model_average_equals_single_run() {
        let g = generators::path_graph(6);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[3]);
        let avg = monte_carlo_csr(
            &DoamModel::default(),
            &csr,
            &s,
            &MonteCarloConfig {
                runs: 7,
                ..Default::default()
            },
        );
        let single = fresh_run(
            &DoamModel::default(),
            &csr,
            &s,
            &mut SmallRng::seed_from_u64(0),
        );
        assert_eq!(avg.runs, 7);
        assert_eq!(avg.mean_final_infected(), single.infected_count() as f64);
        assert_eq!(avg.mean_final_protected(), single.protected_count() as f64);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0, 1], &[2]);
        let model = OpoaoModel::new(12);
        let base = MonteCarloConfig {
            runs: 24,
            base_seed: 9,
            threads: 1,
        };
        let a = monte_carlo_csr(&model, &csr, &s, &base);
        let b = monte_carlo_csr(&model, &csr, &s, &MonteCarloConfig { threads: 4, ..base });
        assert_eq!(a.runs, b.runs);
        for (x, y) in a.mean_infected_by_hop.iter().zip(&b.mean_infected_by_hop) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn series_is_monotone_nondecreasing() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::gnm_directed(50, 200, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[1]);
        let avg = monte_carlo_csr(
            &OpoaoModel::default(),
            &csr,
            &s,
            &MonteCarloConfig {
                runs: 20,
                base_seed: 3,
                threads: 2,
            },
        );
        for w in avg.mean_infected_by_hop.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        for w in avg.mean_protected_by_hop.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!(avg.mean_infected_at_hop(0) >= 1.0 - 1e-12);
        assert_eq!(avg.mean_infected_at_hop(10_000), avg.mean_final_infected());
    }

    #[test]
    fn std_of_deterministic_model_is_zero() {
        let g = generators::path_graph(5);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo_csr(
            &DoamModel::default(),
            &csr,
            &s,
            &MonteCarloConfig {
                runs: 6,
                ..Default::default()
            },
        );
        assert_eq!(avg.std_final_infected, 0.0);
    }

    #[test]
    fn std_reflects_run_variability_and_is_thread_invariant() {
        // 0 -> {1, 2}; 2 -> 3: some OPOAO runs (hop budget 1) infect
        // node 1, others node 2 — final counts genuinely vary.
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (2, 3)]).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let model = OpoaoModel::new(2);
        let cfg = MonteCarloConfig {
            runs: 64,
            base_seed: 5,
            threads: 1,
        };
        let a = monte_carlo_csr(&model, &csr, &s, &cfg);
        assert!(a.std_final_infected > 0.0);
        let b = monte_carlo_csr(&model, &csr, &s, &MonteCarloConfig { threads: 4, ..cfg });
        assert!((a.std_final_infected - b.std_final_infected).abs() < 1e-9);
    }

    #[test]
    fn packed_sets_equal_per_set_batches_and_share_each_runs_realization() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = generators::gnm_directed(50, 200, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let sets = [
            seeds(&g, &[0, 1], &[]),
            seeds(&g, &[0, 1], &[2]),
            seeds(&g, &[0, 1], &[3, 4]),
        ];
        let model = OpoaoModel::new(10);
        let mut ws = SimWorkspace::new();
        for (threads, count) in [(1, 3), (3, 3), (2, 1)] {
            let cfg = MonteCarloConfig {
                runs: 12,
                base_seed: 8,
                threads,
            };
            let sets = &sets[..count];
            let packed = monte_carlo_sets(&model, &csr, sets, &cfg);
            for (set, avg) in sets.iter().zip(&packed) {
                assert_eq!(*avg, monte_carlo_csr(&ScalarOpoao(model), &csr, set, &cfg));
                // Run r is the realization drawn from run r's stream.
                for (r, &fin) in avg.final_infected_by_run.iter().enumerate() {
                    let real = OpoaoRealization::draw(&mut run_rng(8, r));
                    model.run_realized_into(&csr, set, &mut ws, &real);
                    assert_eq!(fin, ws.infected_count(), "run {r}");
                }
            }
        }
    }

    #[test]
    fn other_models_and_mixed_rumors_run_set_by_set() {
        let mut rng = SmallRng::seed_from_u64(19);
        let g = generators::gnm_directed(30, 120, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let sets = [seeds(&g, &[0], &[]), seeds(&g, &[0], &[5])];
        let cfg = MonteCarloConfig {
            runs: 9,
            base_seed: 2,
            threads: 2,
        };
        let ic = crate::CompetitiveIcModel::new(0.3).unwrap();
        let scored = monte_carlo_sets(&ic, &csr, &sets, &cfg);
        for (set, avg) in sets.iter().zip(&scored) {
            assert_eq!(*avg, monte_carlo_csr(&ic, &csr, set, &cfg));
        }
        // Sets with different rumors cannot share lanes.
        let opoao = OpoaoModel::new(6);
        let mixed = [sets[0].clone(), seeds(&g, &[1], &[5])];
        let scored = monte_carlo_sets(&opoao, &csr, &mixed, &cfg);
        for (set, avg) in mixed.iter().zip(&scored) {
            assert_eq!(*avg, monte_carlo_csr(&opoao, &csr, set, &cfg));
        }
    }

    #[test]
    fn per_run_finals_are_in_run_order_for_any_thread_count() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[1]);
        let ic = crate::CompetitiveIcModel::new(0.4).unwrap();
        let cfg = MonteCarloConfig {
            runs: 11,
            base_seed: 4,
            threads: 1,
        };
        let serial = monte_carlo_csr(&ic, &csr, &s, &cfg);
        assert_eq!(serial.final_infected_by_run.len(), 11);
        // The set-by-set path tracks the spread of a stochastic model.
        assert!(serial.std_final_infected > 0.0);
        let mut ws = SimWorkspace::new();
        for (r, &fin) in serial.final_infected_by_run.iter().enumerate() {
            ic.run_into(&csr, &s, &mut ws, &mut run_rng(4, r));
            assert_eq!(fin, ws.infected_count(), "run {r}");
        }
        for threads in [2, 4, 11] {
            let threaded = monte_carlo_csr(&ic, &csr, &s, &MonteCarloConfig { threads, ..cfg });
            assert_eq!(threaded.final_infected_by_run, serial.final_infected_by_run);
        }
    }

    #[test]
    fn zero_runs() {
        let g = generators::path_graph(3);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo_csr(
            &OpoaoModel::default(),
            &csr,
            &s,
            &MonteCarloConfig {
                runs: 0,
                ..Default::default()
            },
        );
        assert_eq!(avg.runs, 0);
        assert_eq!(avg.mean_final_infected(), 0.0);
        assert!(avg.final_infected_by_run.is_empty());
        let none = monte_carlo_sets(
            &OpoaoModel::default(),
            &csr,
            &[s.clone(), s],
            &MonteCarloConfig {
                runs: 0,
                ..Default::default()
            },
        );
        assert!(none
            .iter()
            .all(|a| a.runs == 0 && a.mean_infected_by_hop.is_empty()));
    }

    #[test]
    fn variable_length_traces_align_correctly() {
        // A graph where some runs die fast (rumor picks the sink) and
        // others spread: 0 -> {1, 2}, 2 -> 3 -> 4.
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (2, 3), (3, 4)]).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo_csr(
            &OpoaoModel::new(20),
            &csr,
            &s,
            &MonteCarloConfig {
                runs: 200,
                base_seed: 11,
                threads: 3,
            },
        );
        // OPOAO re-selects every step, so node 0 eventually reaches
        // both children and every run infects all 5 nodes — but runs
        // quiesce at different hops, exercising trace alignment. The
        // early-hop means must sit strictly between the extremes.
        let f = avg.mean_final_infected();
        assert!((4.99..=5.0).contains(&f), "final {f}");
        let at_two = avg.mean_infected_at_hop(2);
        assert!(at_two > 2.0 && at_two < 5.0, "hop-2 mean {at_two}");
        for w in avg.mean_infected_by_hop.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }
}
