//! The experiment harness behind the paper's figures: run several
//! protector-selection strategies on one instance, simulate the
//! chosen model with Monte Carlo, and collect per-hop infected
//! series.

use lcrb_diffusion::{monte_carlo_csr, AveragedOutcome, MonteCarloConfig, TwoCascadeModel};
use lcrb_graph::NodeId;

use crate::{LcrbError, RumorBlockingInstance};

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
/// # Errors
///
/// Returns [`LcrbError::Seeds`] if any protector set is invalid for
/// the instance.
pub fn evaluate_protector_sets<M>(
    instance: &RumorBlockingInstance,
    model: &M,
    sets: &[(String, Vec<NodeId>)],
    mc: &MonteCarloConfig,
) -> Result<HopSeriesReport, LcrbError>
where
    M: TwoCascadeModel + Sync,
{
    let mut runs = Vec::with_capacity(sets.len());
    for (name, protectors) in sets {
        let seeds = instance.seed_sets(protectors.clone())?;
        let averaged = monte_carlo_csr(model, instance.snapshot(), &seeds, mc);
        runs.push(AlgorithmRun {
            name: name.clone(),
            protectors: protectors.clone(),
            averaged,
        });
    }
    Ok(HopSeriesReport { runs })
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

    #[test]
    fn empty_report() {
        let report = HopSeriesReport { runs: vec![] };
        assert_eq!(report.max_hops(), 0);
        assert_eq!(report.to_csv(), "hop\n");
    }
}
