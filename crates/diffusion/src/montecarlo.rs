//! Parallel Monte-Carlo driver for stochastic diffusion models.
//!
//! The paper's Figures 4–6 report "the average results obtained by
//! repeated Monte Carlo simulation"; this module is that averaging
//! loop, parallelized across std scoped threads and reproducible from
//! a single base seed.

// xtask-allow-file: index -- accumulator arrays are node_count-sized at construction and merged series share one length
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lcrb_graph::{CsrGraph, DiGraph};

use crate::budget::{StopReason, WorkMeter};
use crate::{HopRecord, SeedSets, SimWorkspace, TwoCascadeModel};

/// Configuration for [`monte_carlo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of independent simulation runs.
    pub runs: usize,
    /// Base seed; run `i` uses a seed derived from `(base_seed, i)`,
    /// so results are independent of the thread count.
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
    runs: usize,
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
        let (fi, fp) = (
            trace.last().map_or(0, |r| r.total_infected) as f64,
            trace.last().map_or(0, |r| r.total_protected) as f64,
        );
        for h in len..self.infected.len() {
            self.infected[h] += fi;
            self.protected[h] += fp;
        }
        self.final_sum += fi;
        self.final_sumsq += fi * fi;
        self.runs += 1;
    }

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
        self.runs += other.runs;
        self
    }

    fn into_average(self) -> AveragedOutcome {
        let runs = self.runs.max(1) as f64;
        let std_final_infected = if self.runs >= 2 {
            let mean = self.final_sum / runs;
            ((self.final_sumsq / runs - mean * mean).max(0.0) * runs / (runs - 1.0)).sqrt()
        } else {
            0.0
        };
        AveragedOutcome {
            runs: self.runs,
            mean_infected_by_hop: self.infected.iter().map(|s| s / runs).collect(),
            mean_protected_by_hop: self.protected.iter().map(|s| s / runs).collect(),
            std_final_infected,
        }
    }
}

/// Derives the per-run RNG seed so results do not depend on thread
/// scheduling.
#[inline]
fn run_seed(base: u64, run: usize) -> u64 {
    (base ^ (run as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x243F_6A88_85A3_08D3)
}

/// Runs `config.runs` independent simulations of `model` and averages
/// the hop series.
///
/// Deterministic for a fixed `config` regardless of `threads`.
///
/// # Examples
///
/// ```
/// use lcrb_diffusion::{monte_carlo, MonteCarloConfig, OpoaoModel, SeedSets};
/// use lcrb_graph::generators::path_graph;
/// use lcrb_graph::NodeId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = path_graph(4);
/// let seeds = SeedSets::rumors_only(&g, vec![NodeId::new(0)])?;
/// let avg = monte_carlo(&OpoaoModel::default(), &g, &seeds, &MonteCarloConfig {
///     runs: 10,
///     ..MonteCarloConfig::default()
/// });
/// assert_eq!(avg.mean_final_infected(), 4.0); // path diffusion is forced
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn monte_carlo<M>(
    model: &M,
    graph: &DiGraph,
    seeds: &SeedSets,
    config: &MonteCarloConfig,
) -> AveragedOutcome
where
    M: TwoCascadeModel + Sync,
{
    let csr = CsrGraph::from(graph);
    monte_carlo_csr(model, &csr, seeds, config)
}

/// [`monte_carlo`] against a pre-built snapshot — the hot path.
///
/// Each worker thread owns one long-lived [`SimWorkspace`] reused for
/// all of its runs and accumulates hop series straight from the
/// workspace trace, so the steady-state loop performs no per-run heap
/// allocation. Results are identical to [`monte_carlo`] on the source
/// graph, and deterministic for a fixed `config` regardless of
/// `threads`.
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
    if runs == 0 {
        return Ok(SeriesAccumulator::default().into_average());
    }
    let polls = meter.polls_needed();
    let threads = config.effective_threads().min(runs).max(1);
    if threads == 1 {
        let mut acc = SeriesAccumulator::default();
        let mut ws = SimWorkspace::with_capacity(graph.node_count());
        for run in 0..runs {
            if polls {
                meter.poll()?;
            }
            let mut rng = SmallRng::seed_from_u64(run_seed(config.base_seed, run));
            model.run_into(graph, seeds, &mut ws, &mut rng);
            acc.add_trace(ws.trace());
        }
        return Ok(acc.into_average());
    }
    let shared: &WorkMeter = meter;
    let accumulators = std::thread::scope(|scope| {
        // xtask-allow: hotreach -- one join handle per worker per batch, outside the per-run loop
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let base_seed = config.base_seed;
            handles.push(scope.spawn(move || {
                let mut acc = SeriesAccumulator::default();
                let mut ws = SimWorkspace::with_capacity(graph.node_count());
                let mut run = t;
                while run < runs {
                    if polls && shared.poll().is_err() {
                        // The stop is re-observed (and reported) by
                        // the coordinator's poll below; both stop
                        // conditions are monotone.
                        break;
                    }
                    let mut rng = SmallRng::seed_from_u64(run_seed(base_seed, run));
                    model.run_into(graph, seeds, &mut ws, &mut rng);
                    acc.add_trace(ws.trace());
                    run += threads;
                }
                acc
            }));
        }
        handles
            .into_iter()
            // xtask-allow: panic -- re-raising a worker panic on the coordinating thread is the intended behavior
            .map(|h| h.join().expect("monte carlo worker panicked"))
            // xtask-allow: hotreach -- one accumulator per worker per batch, gathered once for the merge
            .collect::<Vec<_>>()
    });
    meter.poll()?;
    Ok(accumulators
        .into_iter()
        .reduce(SeriesAccumulator::merge)
        // xtask-allow: panic -- thread count is clamped to at least 1, so one accumulator always exists
        .expect("at least one worker")
        .into_average())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{CancelToken, RunBudget};
    use crate::{DoamModel, OpoaoModel};
    use lcrb_graph::generators;
    use lcrb_graph::NodeId;

    fn seeds(g: &DiGraph, r: &[usize], p: &[usize]) -> SeedSets {
        SeedSets::new(
            g,
            r.iter().map(|&i| NodeId::new(i)).collect(),
            p.iter().map(|&i| NodeId::new(i)).collect(),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_model_average_equals_single_run() {
        let g = generators::path_graph(6);
        let s = seeds(&g, &[0], &[3]);
        let avg = monte_carlo(
            &DoamModel::default(),
            &g,
            &s,
            &MonteCarloConfig {
                runs: 7,
                ..Default::default()
            },
        );
        let single = DoamModel::default().run_deterministic(&g, &s);
        assert_eq!(avg.runs, 7);
        assert_eq!(avg.mean_final_infected(), single.infected_count() as f64);
        assert_eq!(avg.mean_final_protected(), single.protected_count() as f64);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let s = seeds(&g, &[0, 1], &[2]);
        let model = OpoaoModel::new(12);
        let base = MonteCarloConfig {
            runs: 24,
            base_seed: 9,
            threads: 1,
        };
        let a = monte_carlo(&model, &g, &s, &base);
        let b = monte_carlo(&model, &g, &s, &MonteCarloConfig { threads: 4, ..base });
        assert_eq!(a.runs, b.runs);
        for (x, y) in a.mean_infected_by_hop.iter().zip(&b.mean_infected_by_hop) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn series_is_monotone_nondecreasing() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = generators::gnm_directed(50, 200, &mut rng).unwrap();
        let s = seeds(&g, &[0], &[1]);
        let avg = monte_carlo(
            &OpoaoModel::default(),
            &g,
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
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo(
            &DoamModel::default(),
            &g,
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
        let s = seeds(&g, &[0], &[]);
        let model = OpoaoModel::new(2);
        let cfg = MonteCarloConfig {
            runs: 64,
            base_seed: 5,
            threads: 1,
        };
        let a = monte_carlo(&model, &g, &s, &cfg);
        assert!(a.std_final_infected > 0.0);
        let b = monte_carlo(&model, &g, &s, &MonteCarloConfig { threads: 4, ..cfg });
        assert!((a.std_final_infected - b.std_final_infected).abs() < 1e-9);
    }

    #[test]
    fn csr_path_matches_digraph_path() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = generators::gnm_directed(60, 240, &mut rng).unwrap();
        let csr = lcrb_graph::CsrGraph::from(&g);
        let s = seeds(&g, &[0, 1], &[2]);
        let cfg = MonteCarloConfig {
            runs: 32,
            base_seed: 4,
            threads: 2,
        };
        let a = monte_carlo(&OpoaoModel::new(12), &g, &s, &cfg);
        let b = monte_carlo_csr(&OpoaoModel::new(12), &csr, &s, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_runs() {
        let g = generators::path_graph(3);
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo(
            &OpoaoModel::default(),
            &g,
            &s,
            &MonteCarloConfig {
                runs: 0,
                ..Default::default()
            },
        );
        assert_eq!(avg.runs, 0);
        assert_eq!(avg.mean_final_infected(), 0.0);
    }

    #[test]
    fn variable_length_traces_align_correctly() {
        // A graph where some runs die fast (rumor picks the sink) and
        // others spread: 0 -> {1, 2}, 2 -> 3 -> 4.
        let g = DiGraph::from_edges(5, [(0, 1), (0, 2), (2, 3), (3, 4)]).unwrap();
        let s = seeds(&g, &[0], &[]);
        let avg = monte_carlo(
            &OpoaoModel::new(20),
            &g,
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
        let csr = lcrb_graph::CsrGraph::from(&g);
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
        let csr = lcrb_graph::CsrGraph::from(&g);
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
        let csr = lcrb_graph::CsrGraph::from(&g);
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
