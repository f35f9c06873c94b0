//! Parallel Monte-Carlo driver for stochastic diffusion models.
//!
//! The paper's Figures 4–6 report "the average results obtained by
//! repeated Monte Carlo simulation"; this module is that averaging
//! loop, parallelized across std scoped threads and reproducible from
//! a single base seed. It alone decides which stream run `r` draws
//! from, so run `r` of every protector set scored with one
//! [`MonteCarloConfig`] sees the same randomness, and
//! [`monte_carlo_sets`] scores up to [`OPOAO_LANES`] OPOAO sets in one
//! lane-packed pass per run.

// xtask-allow-file: index -- accumulator arrays are node_count-sized at construction and merged series share one length
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::{CsrGraph, NodeId};

use crate::budget::{StopReason, WorkMeter};
use crate::{
    derive_stream, HopRecord, LaneWorkspace, OpoaoModel, OpoaoRealization, SeedSets, SimWorkspace,
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
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Workers for a batch: `threads`, at most one per run.
    fn workers(&self) -> usize {
        self.effective_threads().min(self.runs).max(1)
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
    infected: Vec<f64>,
    protected: Vec<f64>,
    final_sum: f64,
    final_sumsq: f64,
    /// Final infected count of each run added, in the order added.
    finals: Vec<usize>,
}

impl SeriesAccumulator {
    /// Accumulates one run directly from its hop trace — the
    /// workspace path, which never materializes a `DiffusionOutcome`.
    fn add_trace(&mut self, trace: &[HopRecord]) {
        let len = trace.len();
        if len > self.infected.len() {
            // Newly revealed hops start from the sums accumulated so
            // far: previous runs carry their final value forward.
            let pad_i = self.infected.last().copied().unwrap_or(0.0);
            let pad_p = self.protected.last().copied().unwrap_or(0.0);
            // All prior runs were flat after their last hop, so the
            // carried-forward sum is exactly the previous tail.
            let grow = len - self.infected.len();
            self.infected.extend(std::iter::repeat_n(pad_i, grow));
            self.protected.extend(std::iter::repeat_n(pad_p, grow));
        }
        for (h, rec) in trace.iter().enumerate() {
            self.infected[h] += rec.total_infected as f64;
            self.protected[h] += rec.total_protected as f64;
        }
        // Carry this run's final value into any longer tail.
        let final_infected = trace.last().map_or(0, |r| r.total_infected);
        let (fi, fp) = (
            final_infected as f64,
            trace.last().map_or(0, |r| r.total_protected) as f64,
        );
        for h in len..self.infected.len() {
            self.infected[h] += fi;
            self.protected[h] += fp;
        }
        self.final_sum += fi;
        self.final_sumsq += fi * fi;
        self.finals.push(final_infected);
    }

    /// Adds `other`'s sums into ours. The per-run finals are left to
    /// [`average_workers`], which knows each worker's runs.
    fn merge(mut self, other: SeriesAccumulator) -> SeriesAccumulator {
        if other.infected.len() > self.infected.len() {
            return other.merge(self);
        }
        // `other` is the shorter series: pad it against ours.
        let (oi_last, op_last) = (
            other.infected.last().copied().unwrap_or(0.0),
            other.protected.last().copied().unwrap_or(0.0),
        );
        for h in 0..self.infected.len() {
            self.infected[h] += other.infected.get(h).copied().unwrap_or(oi_last);
            self.protected[h] += other.protected.get(h).copied().unwrap_or(op_last);
        }
        self.final_sum += other.final_sum;
        self.final_sumsq += other.final_sumsq;
        self
    }

    /// The average of the runs whose finals, in run order, are
    /// `finals`.
    fn into_average(self, finals: Vec<usize>) -> AveragedOutcome {
        let runs = finals.len().max(1) as f64;
        let std_final_infected = if finals.len() >= 2 {
            let mean = self.final_sum / runs;
            ((self.final_sumsq / runs - mean * mean).max(0.0) * runs / (runs - 1.0)).sqrt()
        } else {
            0.0
        };
        AveragedOutcome {
            runs: finals.len(),
            mean_infected_by_hop: self.infected.iter().map(|s| s / runs).collect(),
            mean_protected_by_hop: self.protected.iter().map(|s| s / runs).collect(),
            std_final_infected,
            final_infected_by_run: finals,
        }
    }
}

/// Folds one batch's per-worker accumulators, in worker order, into
/// its average. Worker `t` of `w` ran runs `t, t + w, ...`, so run
/// `r`'s final count is entry `r / w` of worker `r % w`.
fn average_workers(workers: Vec<SeriesAccumulator>) -> AveragedOutcome {
    let w = workers.len();
    let runs = workers.iter().map(|acc| acc.finals.len()).sum();
    // xtask-allow: hotreach -- one per-run sample per batch, built once after the runs
    let finals = (0..runs).map(|r| workers[r % w].finals[r / w]).collect();
    workers
        .into_iter()
        .reduce(SeriesAccumulator::merge)
        .unwrap_or_default()
        .into_average(finals)
}

/// Run `run`'s RNG: the stream [`derive_stream`]`(base_seed, run)`,
/// the same for every model, protector set and thread count.
fn run_rng(base_seed: u64, run: usize) -> SmallRng {
    SmallRng::seed_from_u64(derive_stream(base_seed, run as u64))
}

/// Runs `work(t)` for every worker `t` of `workers`, on scoped threads
/// when there is more than one, and returns the results in worker
/// order.
fn on_workers<T, F>(workers: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers == 1 {
        // xtask-allow: hotreach -- one result per batch, outside the per-run loop
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        // xtask-allow: hotreach -- one join handle per worker per batch, outside the per-run loop
        let handles: Vec<_> = (0..workers).map(|t| scope.spawn(move || work(t))).collect();
        handles
            .into_iter()
            // xtask-allow: panic -- re-raising a worker panic on the coordinating thread is the intended behavior
            .map(|h| h.join().expect("monte carlo worker panicked"))
            // xtask-allow: hotreach -- one result per worker per batch, gathered once for the merge
            .collect()
    })
}

/// Runs `config.runs` independent simulations of `model` on the
/// snapshot `graph` and averages the hop series.
///
/// Each worker thread owns one long-lived [`SimWorkspace`] reused for
/// all of its runs and accumulates hop series straight from the
/// workspace trace, so the steady-state loop performs no per-run heap
/// allocation. Deterministic for a fixed `config` regardless of
/// `threads`.
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
    monte_carlo_csr_budgeted(model, graph, seeds, config, &mut WorkMeter::unlimited())
        // xtask-allow: panic -- an unlimited meter has no cap to charge against and no token or deadline to observe
        .expect("an unlimited meter cannot stop the batch")
}

/// [`monte_carlo_csr`] under a [`WorkMeter`]: the batch's simulation
/// cost is charged up front (all-or-nothing against
/// [`crate::RunBudget::max_sims`]) and cancellation/deadline polls run
/// per simulation — only when the meter has a token or deadline to
/// observe, so an unmetered batch runs the bare loop.
///
/// The checkpoint discipline keeps the work-budget path
/// deterministic: either the whole batch fits under the cap and the
/// result is bitwise-identical to an unlimited run (for any thread
/// count), or the kernel stops *before* running it — a truncated
/// average is never produced. Cancellation and deadlines observed
/// mid-batch also discard the batch by returning the stop instead of
/// a partial mean.
///
/// # Errors
///
/// The [`StopReason`] that fired: a work-cap rejection up front, or a
/// cancellation/deadline observed during the batch.
pub fn monte_carlo_csr_budgeted<M>(
    model: &M,
    graph: &CsrGraph,
    seeds: &SeedSets,
    config: &MonteCarloConfig,
    meter: &mut WorkMeter,
) -> Result<AveragedOutcome, StopReason>
where
    M: TwoCascadeModel + Sync,
{
    meter.charge_sims(config.runs as u64)?;
    let runs = config.runs;
    let polls = meter.polls_needed();
    let workers = config.workers();
    let shared: &WorkMeter = meter;
    let accumulators = on_workers(workers, |t| {
        let mut acc = SeriesAccumulator::default();
        let mut ws = SimWorkspace::with_capacity(graph.node_count());
        for run in (t..runs).step_by(workers) {
            if polls && shared.poll().is_err() {
                // The stop is re-observed (and reported) by the
                // coordinator's poll below; both stop conditions are
                // monotone.
                break;
            }
            model.run_into(graph, seeds, &mut ws, &mut run_rng(config.base_seed, run));
            acc.add_trace(ws.trace());
        }
        acc
    });
    meter.poll()?;
    Ok(average_workers(accumulators))
}

/// Scores several protector sets that share their rumors, one
/// [`AveragedOutcome`] per entry of `seeds`, in order. Entry `i`
/// equals [`monte_carlo_csr`]`(model, graph, &seeds[i], config)` bit
/// for bit, and run `r` of every set meets the same randomness, so
/// the sets' [`AveragedOutcome::final_infected_by_run`] pair up.
///
/// For an OPOAO model ([`TwoCascadeModel::as_opoao`]) and sets with
/// equal rumors, each run draws one [`OpoaoRealization`] and one
/// [`OpoaoModel::run_lanes_into`] pass scores up to [`OPOAO_LANES`]
/// sets on it; runs spread over `config.threads` workers as in
/// [`monte_carlo_csr`]. A single set takes the lanes too: a one-lane
/// pass ran 10–20 % faster than the scalar realized run on the
/// hep-like graph at scale 0.2. Other models run set by set.
///
/// # Panics
///
/// Panics if a seed set refers to nodes outside `graph`, as
/// [`monte_carlo_csr`] does.
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
    match (model.as_opoao(), seeds.first()) {
        (Some(opoao), Some(first)) if seeds.iter().all(|s| s.rumors() == first.rumors()) => {
            monte_carlo_lanes(opoao, graph, first.rumors(), seeds, config)
        }
        _ => seeds
            .iter()
            .map(|s| monte_carlo_csr(model, graph, s, config))
            // xtask-allow: hotreach -- one average per set, gathered once per call
            .collect(),
    }
}

/// The lane-packed path of [`monte_carlo_sets`]: each worker runs its
/// runs as [`monte_carlo_csr_budgeted`] does, scoring every set on
/// each run's realization, and each set's accumulators merge in the
/// same worker order.
fn monte_carlo_lanes(
    model: &OpoaoModel,
    graph: &CsrGraph,
    rumors: &[NodeId],
    seeds: &[SeedSets],
    config: &MonteCarloConfig,
) -> Vec<AveragedOutcome> {
    let runs = config.runs;
    let workers = config.workers();
    let mut per_worker = on_workers(workers, |t| {
        // xtask-allow: hotreach -- one accumulator per set per worker per batch, outside the per-run loop
        let mut accs: Vec<SeriesAccumulator> = seeds.iter().map(|_| Default::default()).collect();
        let mut lanes = LaneWorkspace::traced();
        // xtask-allow: hotreach -- one trace buffer per worker per batch, refilled by every run
        let mut trace = Vec::new();
        for run in (t..runs).step_by(workers) {
            let realization = OpoaoRealization::draw(&mut run_rng(config.base_seed, run));
            for (sets, accs) in seeds.chunks(OPOAO_LANES).zip(accs.chunks_mut(OPOAO_LANES)) {
                model
                    .run_lanes_into(
                        graph,
                        rumors,
                        sets.iter().map(SeedSets::protectors),
                        &mut lanes,
                        &realization,
                    )
                    // xtask-allow: panic -- seed sets are validated at construction and chunks never exceed the lane count
                    .expect("validated seed sets fit the lanes");
                for (lane, acc) in accs.iter_mut().enumerate() {
                    lanes.trace_into(lane, &mut trace);
                    acc.add_trace(&trace);
                }
            }
        }
        accs
    });
    (0..seeds.len())
        .map(|set| {
            let accs = per_worker
                .iter_mut()
                .map(|accs| std::mem::take(&mut accs[set]));
            // xtask-allow: hotreach -- each set's worker accumulators, gathered once for the merge
            average_workers(accs.collect())
        })
        // xtask-allow: hotreach -- one average per set, gathered once per batch
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, RunBudget};
    use crate::testutil::{fresh_run, seeds};
    use crate::{DoamModel, OpoaoModel, TwoCascadeModel};
    use lcrb_graph::{generators, DiGraph};

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
                assert_eq!(*avg, monte_carlo_csr(&model, &csr, set, &cfg));
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

    #[test]
    fn budgeted_driver_matches_unbudgeted_when_the_batch_fits() {
        let mut rng = SmallRng::seed_from_u64(13);
        let g = generators::gnm_directed(40, 160, &mut rng).unwrap();
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[1]);
        let cfg = MonteCarloConfig {
            runs: 16,
            base_seed: 7,
            threads: 3,
        };
        let plain = monte_carlo_csr(&OpoaoModel::new(8), &csr, &s, &cfg);
        for budget in [
            RunBudget::unlimited(),
            RunBudget::unlimited().with_max_sims(16),
        ] {
            let mut meter = WorkMeter::new(budget, Some(CancelToken::new()), None);
            let metered = monte_carlo_csr_budgeted(&OpoaoModel::new(8), &csr, &s, &cfg, &mut meter)
                .expect("batch fits");
            assert_eq!(plain, metered);
            assert_eq!(meter.spent().0, 16);
        }
    }

    #[test]
    fn budgeted_driver_rejects_an_oversized_batch_without_charging() {
        let g = generators::path_graph(4);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let cfg = MonteCarloConfig {
            runs: 8,
            base_seed: 1,
            threads: 1,
        };
        let mut meter = WorkMeter::new(RunBudget::unlimited().with_max_sims(7), None, None);
        assert_eq!(
            monte_carlo_csr_budgeted(&OpoaoModel::default(), &csr, &s, &cfg, &mut meter),
            Err(StopReason::SimBudget)
        );
        assert_eq!(meter.spent().0, 0, "rejected batch must not charge");
    }

    #[test]
    fn budgeted_driver_observes_cancellation_in_serial_and_threaded_paths() {
        let g = generators::path_graph(5);
        let csr = CsrGraph::from(&g);
        let s = seeds(&g, &[0], &[]);
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 3] {
            let cfg = MonteCarloConfig {
                runs: 8,
                base_seed: 2,
                threads,
            };
            let mut meter = WorkMeter::new(RunBudget::unlimited(), Some(token.clone()), None);
            assert_eq!(
                monte_carlo_csr_budgeted(&OpoaoModel::default(), &csr, &s, &cfg, &mut meter),
                Err(StopReason::Cancelled)
            );
        }
    }
}
