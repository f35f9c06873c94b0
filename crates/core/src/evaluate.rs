//! The experiment harness behind the paper's figures: run several
//! protector-selection strategies on one instance, simulate the
//! chosen model with Monte Carlo, and collect per-hop infected
//! series. Every strategy is scored on the same runs, so two
//! strategies can be compared run by run
//! ([`HopSeriesReport::paired_differences`]).

use lcrb_diffusion::{monte_carlo_sets, AveragedOutcome, MonteCarloConfig, TwoCascadeModel};
use lcrb_graph::NodeId;

use crate::{LcrbError, RumorBlockingInstance};

/// Two-sided 95 % normal quantile behind
/// [`PairedDifference::half_width`].
const Z_95: f64 = 1.96;

/// One algorithm's evaluation: its protector set and the averaged
/// diffusion it produced.
#[derive(Clone, Debug)]
pub struct AlgorithmRun {
    /// Display name of the strategy.
    pub name: String,
    /// The protector originators it chose.
    pub protectors: Vec<NodeId>,
    /// Monte-Carlo-averaged hop series.
    pub averaged: AveragedOutcome,
}

/// A hop-by-hop comparison of several strategies on one instance —
/// the data behind one of the paper's figures.
#[derive(Clone, Debug)]
pub struct HopSeriesReport {
    /// One entry per strategy, in evaluation order.
    pub runs: Vec<AlgorithmRun>,
}

/// One strategy's paired difference from a baseline in final infected
/// count (the hop-31 count under the paper's budget, since a run's
/// final count carries forward): the mean over runs of
/// `strategy(r) − baseline(r)` with its 95 % confidence interval.
/// Negative means fewer infections than the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct PairedDifference {
    /// The strategy's display name.
    pub name: String,
    /// Number of paired runs.
    pub runs: usize,
    /// Mean paired difference.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval, `1.96 · s / √runs`
    /// for the sample standard deviation `s` of the differences (a
    /// normal approximation, sound for the tens to hundreds of runs
    /// the figures use); infinite for fewer than two runs.
    pub half_width: f64,
}

impl PairedDifference {
    /// Lower end of the 95 % confidence interval.
    #[must_use]
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper end of the 95 % confidence interval.
    #[must_use]
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    fn of(name: &str, strategy: &[usize], baseline: &[usize]) -> Self {
        let runs = strategy.len();
        let diffs = strategy
            .iter()
            .zip(baseline)
            .map(|(&s, &b)| s as f64 - b as f64);
        let mean = diffs.clone().sum::<f64>() / runs.max(1) as f64;
        let half_width = if runs >= 2 {
            let var = diffs.map(|d| (d - mean).powi(2)).sum::<f64>() / (runs - 1) as f64;
            Z_95 * (var / runs as f64).sqrt()
        } else {
            f64::INFINITY
        };
        PairedDifference {
            name: name.to_owned(),
            runs,
            mean,
            half_width,
        }
    }
}

impl HopSeriesReport {
    /// The longest hop series across all runs.
    #[must_use]
    pub fn max_hops(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.averaged.mean_infected_by_hop.len())
            .max()
            .unwrap_or(0)
    }

    /// Each strategy's paired difference in final infected count from
    /// the strategy named `baseline`, in evaluation order (the
    /// baseline's own entry is 0). The strategies of one report share
    /// every Monte-Carlo run, so run `r` of each is a pair.
    ///
    /// Returns `None` if no strategy is named `baseline`.
    #[must_use]
    pub fn paired_differences(&self, baseline: &str) -> Option<Vec<PairedDifference>> {
        let base = self.runs.iter().find(|r| r.name == baseline)?;
        let base = &base.averaged.final_infected_by_run;
        Some(
            self.runs
                .iter()
                .map(|r| PairedDifference::of(&r.name, &r.averaged.final_infected_by_run, base))
                .collect(),
        )
    }

    /// Renders a fixed-width text table: one row per hop, one column
    /// per strategy, cells = mean infected count (the paper plots the
    /// same series on a log-time chart).
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:>4}", "hop");
        for run in &self.runs {
            let _ = write!(out, " {:>14}", run.name);
        }
        out.push('\n');
        for hop in 0..self.max_hops() {
            let _ = write!(out, "{hop:>4}");
            for run in &self.runs {
                let _ = write!(
                    out,
                    " {:>14.2}",
                    run.averaged.mean_infected_at_hop(hop as u32)
                );
            }
            out.push('\n');
        }
        out
    }

    /// Renders the same data as CSV (`hop,<name>,...`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("hop");
        for run in &self.runs {
            let _ = write!(out, ",{}", run.name);
        }
        out.push('\n');
        for hop in 0..self.max_hops() {
            let _ = write!(out, "{hop}");
            for run in &self.runs {
                let _ = write!(out, ",{}", run.averaged.mean_infected_at_hop(hop as u32));
            }
            out.push('\n');
        }
        out
    }
}

/// Evaluates pre-computed protector sets under `model`, Monte-Carlo
/// averaged with `mc`.
///
/// Every set is scored on the same runs in one Monte-Carlo batch
/// ([`monte_carlo_sets`]): run `r` draws from the stream `mc` assigns
/// it, whatever the set. Under OPOAO that stream is one realization,
/// and one lane-packed pass per run scores up to 64 sets on it; each
/// set's [`AveragedOutcome`] equals what the scalar realized kernel
/// gives that set alone, bit for bit. Other models run set by set.
///
/// # Errors
///
/// Returns [`LcrbError::Seeds`] for the first protector set, in
/// order, that is invalid for the instance; nothing is simulated
/// then.
pub fn evaluate_protector_sets<M>(
    instance: &RumorBlockingInstance,
    model: &M,
    sets: &[(String, Vec<NodeId>)],
    mc: &MonteCarloConfig,
) -> Result<HopSeriesReport, LcrbError>
where
    M: TwoCascadeModel + Sync,
{
    let seeds = sets
        .iter()
        .map(|(_, protectors)| instance.seed_sets(protectors.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let averaged = monte_carlo_sets(model, instance.snapshot(), &seeds, mc);
    Ok(HopSeriesReport {
        runs: sets
            .iter()
            .zip(averaged)
            .map(|((name, protectors), averaged)| AlgorithmRun {
                name: name.clone(),
                protectors: protectors.clone(),
                averaged,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, SolveRequest, Solver, SolverConfig};
    use lcrb_community::Partition;
    use lcrb_diffusion::{DoamModel, OpoaoModel};
    use lcrb_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn instance() -> RumorBlockingInstance {
        let mut rng = SmallRng::seed_from_u64(8);
        let (g, labels) =
            generators::planted_partition(&[25, 25], 0.3, 0.04, false, &mut rng).unwrap();
        let p = Partition::from_labels(labels);
        RumorBlockingInstance::with_random_seeds(g, p, 0, 2, &mut rng).unwrap()
    }

    #[test]
    fn evaluate_reports_one_run_per_set() {
        let inst = instance();
        let sets = vec![
            ("empty".to_owned(), vec![]),
            ("one".to_owned(), vec![NodeId::new(30)]),
        ];
        let report = evaluate_protector_sets(
            &inst,
            &DoamModel::default(),
            &sets,
            &MonteCarloConfig {
                runs: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.runs[0].name, "empty");
        // Protection can only reduce infections.
        assert!(
            report.runs[1].averaged.mean_final_infected()
                <= report.runs[0].averaged.mean_final_infected()
        );
    }

    #[test]
    fn invalid_protector_set_errors() {
        let inst = instance();
        let bad = inst.rumor_seeds()[0];
        let sets = vec![("bad".to_owned(), vec![bad])];
        assert!(evaluate_protector_sets(
            &inst,
            &DoamModel::default(),
            &sets,
            &MonteCarloConfig::default()
        )
        .is_err());
        // Among packed OPOAO sets, the invalid one's own error.
        let sets = vec![
            ("ok".to_owned(), vec![NodeId::new(30)]),
            ("bad".to_owned(), vec![NodeId::new(31), bad]),
        ];
        assert!(matches!(
            evaluate_protector_sets(&inst, &OpoaoModel::default(), &sets, &MonteCarloConfig::default()),
            Err(LcrbError::Seeds(lcrb_diffusion::SeedError::Overlap { node })) if node == bad
        ));
    }

    /// Answers the requests in one [`Solver`] session and evaluates
    /// the selections — the solve-then-evaluate path the figures use.
    fn run_requests<M: TwoCascadeModel + Sync>(
        inst: &RumorBlockingInstance,
        model: &M,
        requests: &[SolveRequest],
        selection_seed: u64,
        mc: &MonteCarloConfig,
    ) -> HopSeriesReport {
        let solver = Solver::with_config(
            inst.clone(),
            SolverConfig {
                master_seed: selection_seed,
            },
        );
        let sets: Vec<_> = solver
            .solve_many(requests)
            .into_iter()
            .map(|report| {
                let report = report.unwrap();
                (report.algorithm, report.protectors)
            })
            .collect();
        evaluate_protector_sets(inst, model, &sets, mc).unwrap()
    }

    #[test]
    fn budgeted_session_runs_all_strategies() {
        let inst = instance();
        let requests = [
            SolveRequest::heuristic(Algorithm::NoBlocking, 2),
            SolveRequest::heuristic(Algorithm::MaxDegree, 2),
            SolveRequest::heuristic(Algorithm::Proximity, 2),
            SolveRequest {
                realizations: 8,
                max_hops: 10,
                ..SolveRequest::greedy_budget(2)
            },
            SolveRequest::scbg(),
        ];
        let report = run_requests(
            &inst,
            &OpoaoModel::new(10),
            &requests,
            7,
            &MonteCarloConfig {
                runs: 5,
                ..Default::default()
            },
        );
        assert_eq!(report.runs.len(), 5);
        assert_eq!(report.runs[0].name, "no-blocking");
        assert!(report.runs[0].protectors.is_empty());
        assert_eq!(report.runs[1].protectors.len(), 2);
        assert_eq!(report.runs[3].name, "greedy");
        assert_eq!(report.runs[4].name, "scbg");
    }

    #[test]
    fn table_and_csv_rendering() {
        let inst = instance();
        let report = run_requests(
            &inst,
            &DoamModel::default(),
            &[SolveRequest::heuristic(Algorithm::NoBlocking, 0)],
            0,
            &MonteCarloConfig {
                runs: 1,
                ..Default::default()
            },
        );
        let table = report.render_table();
        assert!(table.contains("no-blocking"));
        assert!(table.lines().count() >= 2);
        let csv = report.to_csv();
        assert!(csv.starts_with("hop,no-blocking"));
        assert_eq!(csv.lines().count(), report.max_hops() + 1);
    }

    /// A report entry whose runs ended with `finals` infected.
    fn scored(name: &str, finals: &[usize]) -> AlgorithmRun {
        AlgorithmRun {
            name: name.to_owned(),
            protectors: vec![],
            averaged: AveragedOutcome {
                runs: finals.len(),
                mean_infected_by_hop: vec![],
                mean_protected_by_hop: vec![],
                std_final_infected: 0.0,
                final_infected_by_run: finals.to_vec(),
            },
        }
    }

    #[test]
    fn paired_differences_pair_runs_by_index() {
        let report = HopSeriesReport {
            runs: vec![scored("a", &[10, 12, 14]), scored("base", &[20, 20, 20])],
        };
        let diffs = report.paired_differences("base").unwrap();
        assert_eq!(diffs[0].name, "a");
        assert_eq!(diffs[0].runs, 3);
        assert_eq!(diffs[0].mean, -8.0);
        // Differences -10, -8, -6: sample sd 2.
        let half = 1.96 * 2.0 / 3f64.sqrt();
        assert!((diffs[0].half_width - half).abs() < 1e-12);
        assert!(diffs[0].high() < 0.0);
        assert_eq!((diffs[1].mean, diffs[1].half_width), (0.0, 0.0));
        assert!(report.paired_differences("missing").is_none());
        // One run forms no interval.
        let single = HopSeriesReport {
            runs: vec![scored("a", &[1]), scored("base", &[9])],
        };
        let d = &single.paired_differences("base").unwrap()[0];
        assert_eq!(d.mean, -8.0);
        assert!(d.half_width.is_infinite() && d.low() < 0.0 && d.high() > 0.0);
    }

    #[test]
    fn opoao_sets_are_scored_on_common_runs() {
        let inst = instance();
        let sets = vec![
            ("none".to_owned(), vec![]),
            ("one".to_owned(), vec![NodeId::new(30)]),
            ("two".to_owned(), vec![NodeId::new(30), NodeId::new(31)]),
        ];
        let mc = MonteCarloConfig {
            runs: 16,
            base_seed: 3,
            threads: 2,
        };
        let model = OpoaoModel::new(12);
        let report = evaluate_protector_sets(&inst, &model, &sets, &mc).unwrap();
        for (run, (_, protectors)) in report.runs.iter().zip(&sets) {
            let seeds = inst.seed_sets(protectors.clone()).unwrap();
            let alone = lcrb_diffusion::monte_carlo_csr(&model, inst.snapshot(), &seeds, &mc);
            assert_eq!(run.averaged, alone);
        }
        // On a shared realization, adding protectors never raises a
        // run's infections.
        let diffs = report.paired_differences("none").unwrap();
        assert!(diffs.iter().all(|d| d.mean <= 0.0));
        let finals = |i: usize| &report.runs[i].averaged.final_infected_by_run;
        for r in 0..16 {
            assert!(finals(2)[r] <= finals(1)[r] && finals(1)[r] <= finals(0)[r]);
        }
    }

    #[test]
    fn empty_report() {
        let report = HopSeriesReport { runs: vec![] };
        assert_eq!(report.max_hops(), 0);
        assert_eq!(report.to_csv(), "hop\n");
    }
}
