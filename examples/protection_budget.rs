//! How much protection does each additional protector buy?
//!
//! ```text
//! cargo run --release --example protection_budget \
//!     [--estimator mc|sketch] [--max-sims N] [--deadline-ms MS]
//! ```
//!
//! Opens a [`Solver`] session, runs the LCRB-P greedy (Algorithm 1,
//! with CELF) in budget mode, and prints the marginal value of every
//! pick — the diminishing-returns curve that Theorem 1's
//! submodularity guarantees — then solves the α-target variants the
//! problem definition asks for. Because every query goes through the
//! same session, the α solves reuse the bridge ends, the estimator
//! state, and the CELF trajectory the budget sweep already paid for;
//! the cache counters printed at the end show the reuse.
//!
//! The `--estimator` flag picks the σ̂ estimator behind the greedy:
//! `mc` (default) evaluates protector sets on fixed Monte-Carlo
//! realizations; `sketch` switches to the RR-sketch estimator, which
//! trades a one-time sampling pass for much cheaper per-set queries.
//!
//! `--max-sims` caps the Monte-Carlo simulation budget (a
//! deterministic work-unit cap: every solve degrades to the same prefix
//! on every run, since the α batch is solved in request order) and
//! `--deadline-ms` attaches an advisory wall-clock deadline; either way
//! a starved solve reports `Completion::Degraded` instead of failing.

use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Options {
    estimator: Estimator,
    budget: RunBudget,
}

fn parse_options() -> Result<Options, String> {
    let mut estimator = Estimator::MonteCarlo;
    let mut budget = RunBudget::unlimited();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let (name, inline) = match flag.split_once('=') {
            Some((n, v)) => (n.to_owned(), Some(v.to_owned())),
            None => (flag, None),
        };
        let value = match inline {
            Some(v) => v,
            None => match args.next() {
                Some(v) => v,
                None => return Err(format!("{name} needs a value")),
            },
        };
        match name.as_str() {
            "--estimator" => {
                estimator = match value.as_str() {
                    "mc" => Estimator::MonteCarlo,
                    "sketch" => Estimator::Sketch(SketchParams::default()),
                    other => {
                        return Err(format!(
                            "unknown estimator {other:?} (expected mc or sketch)"
                        ))
                    }
                }
            }
            "--max-sims" => {
                let n: u64 = value
                    .parse()
                    .map_err(|e| format!("--max-sims expects a count: {e}"))?;
                budget = budget.with_max_sims(n);
            }
            "--deadline-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("--deadline-ms expects milliseconds: {e}"))?;
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            other => {
                return Err(format!(
                "unknown argument {other:?} (expected --estimator, --max-sims, or --deadline-ms)"
            ))
            }
        }
    }
    Ok(Options { estimator, budget })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Options { estimator, budget } = parse_options()?;
    println!(
        "estimator: {}",
        match estimator {
            Estimator::MonteCarlo => "monte carlo",
            Estimator::Sketch(_) => "rr sketch",
        }
    );
    let ds = hep_like(&DatasetConfig::new(0.08, 5));
    println!("network: {}", ds.summary());
    let mut rng = SmallRng::seed_from_u64(21);
    let instance = RumorBlockingInstance::with_random_seeds(
        ds.graph.clone(),
        ds.planted.clone(),
        ds.pinned_communities[0],
        2,
        &mut rng,
    )?;

    let solver = Solver::with_config(instance, SolverConfig { master_seed: 9 });
    let base = SolveRequest {
        realizations: 32,
        candidates: CandidatePool::BackwardRadius(2),
        estimator,
        budget,
        ..SolveRequest::greedy_budget(0)
    };

    // Budget sweep: watch σ̂ climb with diminishing returns.
    let picks = 12;
    let report = solver.solve(&base.clone().with_stop(StopRule::Budget(picks)))?;
    if let Completion::Degraded {
        checkpoints_done,
        checkpoints_total,
        reason,
    } = report.completion
    {
        println!(
            "degraded solve: {reason} after {checkpoints_done}/{checkpoints_total} checkpoints"
        );
    }
    let SolveDetail::Greedy(selection) = &report.detail else {
        unreachable!("a greedy request carries a greedy detail");
    };
    let total_bridges = selection.bridge_ends.len() as f64;
    println!(
        "{} bridge ends; σ̂ after each greedy pick (expected bridge ends kept safe):",
        selection.bridge_ends.len()
    );
    let mut previous = 0.0;
    for (i, (&node, &sigma)) in report
        .protectors
        .iter()
        .zip(&selection.sigma_history)
        .enumerate()
    {
        println!(
            "  pick {:>2}: node {:>5}  σ̂ = {:6.2} ({:5.1}% of |B|)  marginal +{:.2}",
            i + 1,
            node.to_string(),
            sigma,
            100.0 * sigma / total_bridges,
            sigma - previous
        );
        previous = sigma;
    }
    println!(
        "  ({} σ̂ evaluations thanks to CELF lazy evaluation)\n",
        selection.evaluations
    );

    // α-target mode: the LCRB-P problem statement. The three targets
    // go through `solve_many_threaded` as one batch — each resumes the
    // session's cached trajectory instead of starting cold, and the
    // cache-counter delta around the batch shows the reuse. One worker
    // solves them in order: under `--max-sims` each request spends its
    // own allowance from wherever the shared trajectory stands, so a
    // parallel batch would print whichever order won the race.
    let alphas = [0.5, 0.8, 0.95];
    let batch = alphas.map(|alpha| base.clone().with_stop(StopRule::Alpha(alpha)));
    let before = solver.cache_stats();
    let reports = solver.solve_many_threaded(&batch, 1);
    let batch_delta = solver.cache_stats().delta_since(&before);
    for (alpha, report) in alphas.iter().zip(reports) {
        let report = report?;
        let SolveDetail::Greedy(sel) = &report.detail else {
            unreachable!("a greedy request carries a greedy detail");
        };
        println!(
            "alpha = {alpha:4.2}: target σ̂ >= {:6.2} -> {} protectors, achieved {:6.2} ({}; {} new σ̂ evaluations)",
            sel.target,
            report.protectors.len(),
            sel.achieved,
            if sel.target_met { "met" } else { "NOT met" },
            sel.evaluations,
        );
    }
    println!(
        "alpha batch: {} cache hits / {} misses across {} batched solves",
        batch_delta.hits(),
        batch_delta.misses(),
        alphas.len()
    );
    let stats = solver.cache_stats();
    println!(
        "\nsession cache: {} hits / {} misses across {} solves",
        stats.hits(),
        stats.misses(),
        4
    );
    Ok(())
}
