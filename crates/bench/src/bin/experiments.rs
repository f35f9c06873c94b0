//! Command-line front end regenerating the paper's tables and
//! figures.
//!
//! ```text
//! experiments <fig4|fig5|fig6|fig7|fig8|fig9|table1|sources|all>
//!             [--scale S] [--runs N] [--seed K] [--trials T]
//!             [--realizations R] [--out DIR] [--full-greedy]
//!             [--heterogeneous] [--estimator mc|sketch]
//!             [--epsilon E] [--delta D]
//! ```
//!
//! Defaults: DOAM experiments (fig7–9, table1) run at the paper's
//! full network sizes (`--scale 1.0`); OPOAO experiments (fig4–6) run
//! at `--scale 0.2` because the Monte-Carlo greedy is the expensive
//! step (the paper itself notes the greedy "is time consuming",
//! §VII). Pass `--scale 1.0` to the fig4–6 subcommands to run the
//! full sizes.

use std::process::ExitCode;

use lcrb::evaluate::HopSeriesReport;
use lcrb::{CandidatePool, Estimator, SketchParams};
use lcrb_bench::harness::{
    self, figure_spec, run_source_detection, run_table_one, FigureModel, FigureResult,
    HarnessConfig, FIGURES,
};
use lcrb_bench::report::{write_report, TextTable};

struct CliOptions {
    scale: Option<f64>,
    runs: usize,
    seed: u64,
    trials: usize,
    realizations: usize,
    out: String,
    full_greedy: bool,
    heterogeneous: bool,
    estimator: Estimator,
    epsilon: Option<f64>,
    delta: Option<f64>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: None,
            runs: 100,
            seed: 1,
            trials: 3,
            realizations: 16,
            out: "results".to_owned(),
            full_greedy: false,
            heterogeneous: false,
            estimator: Estimator::default(),
            epsilon: None,
            delta: None,
        }
    }
}

fn usage() -> &'static str {
    "usage: experiments <fig4|fig5|fig6|fig7|fig8|fig9|table1|sources|all> \
     [--scale S] [--runs N] [--seed K] [--trials T] [--realizations R] \
     [--out DIR] [--full-greedy] [--heterogeneous] [--estimator mc|sketch] \
     [--epsilon E] [--delta D]"
}

fn parse_options(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scale" => {
                let v: f64 = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {v}"));
                }
                opts.scale = Some(v);
            }
            "--runs" => {
                opts.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("bad --runs: {e}"))?;
                if opts.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--trials" => {
                opts.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("bad --trials: {e}"))?;
                if opts.trials == 0 {
                    return Err("--trials must be at least 1".to_owned());
                }
            }
            "--realizations" => {
                opts.realizations = value("--realizations")?
                    .parse()
                    .map_err(|e| format!("bad --realizations: {e}"))?;
                if opts.realizations == 0 {
                    return Err("--realizations must be at least 1".to_owned());
                }
            }
            "--out" => opts.out = value("--out")?,
            "--full-greedy" => opts.full_greedy = true,
            "--heterogeneous" => opts.heterogeneous = true,
            "--estimator" => {
                opts.estimator = match value("--estimator")?.as_str() {
                    "mc" => Estimator::MonteCarlo,
                    "sketch" => Estimator::Sketch(SketchParams::default()),
                    other => return Err(format!("--estimator must be mc or sketch, got {other}")),
                };
            }
            "--epsilon" => {
                opts.epsilon = Some(
                    value("--epsilon")?
                        .parse()
                        .map_err(|e| format!("bad --epsilon: {e}"))?,
                );
            }
            "--delta" => {
                opts.delta = Some(
                    value("--delta")?
                        .parse()
                        .map_err(|e| format!("bad --delta: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Estimator::Sketch(ref mut params) = opts.estimator {
        if let Some(e) = opts.epsilon {
            params.epsilon = e;
        }
        if let Some(d) = opts.delta {
            params.delta = d;
        }
    } else if opts.epsilon.is_some() || opts.delta.is_some() {
        return Err("--epsilon/--delta require --estimator sketch".to_owned());
    }
    Ok(opts)
}

fn harness_config(opts: &CliOptions, default_scale: f64) -> HarnessConfig {
    HarnessConfig {
        scale: opts.scale.unwrap_or(default_scale),
        mc_runs: opts.runs,
        seed: opts.seed,
        trials: opts.trials,
        realizations: opts.realizations,
        greedy_pool: if opts.full_greedy {
            CandidatePool::AllNonRumor
        } else {
            CandidatePool::BackwardRadius(1)
        },
        heterogeneous: opts.heterogeneous,
        estimator: opts.estimator,
    }
}

/// Prints each strategy's paired difference in final infected count
/// from `baseline`, with its 95 % confidence interval. Reports of
/// single runs (the deterministic DOAM figures) print nothing.
fn print_paired(report: &HopSeriesReport, baseline: &str) {
    let Some(diffs) = report.paired_differences(baseline) else {
        return;
    };
    let cells: Vec<String> = diffs
        .iter()
        .filter(|d| d.name != baseline && d.runs >= 2)
        .map(|d| {
            format!(
                "{} {:+.1} [{:+.1}, {:+.1}]",
                d.name,
                d.mean,
                d.low(),
                d.high()
            )
        })
        .collect();
    if !cells.is_empty() {
        println!(
            "   final infected minus {baseline}'s, paired, 95% CI: {}",
            cells.join("; ")
        );
    }
}

fn print_figure(result: &FigureResult, out_dir: &str) {
    println!("== {} — {}", result.id, result.title);
    println!(
        "   dataset: {} | rumor community size {}",
        result.dataset_summary, result.community_size
    );
    for sub in &result.subs {
        println!(
            "-- |R| = {} ({:.0}% of |C|), protector budget {}, |B| = {}",
            sub.rumor_count,
            sub.fraction * 100.0,
            sub.budget,
            sub.bridge_ends
        );
        println!("{}", sub.report.render_table());
        for baseline in ["greedy", "no-blocking"] {
            print_paired(&sub.report, baseline);
        }
        let name = format!(
            "{}_r{:02}pct.csv",
            result.id,
            (sub.fraction * 100.0).round() as u32
        );
        if let Err(e) = write_report(out_dir, &name, &sub.report.to_csv()) {
            eprintln!("warning: could not write {out_dir}/{name}: {e}");
        } else {
            println!("   (written to {out_dir}/{name})");
        }
        println!();
    }
}

fn run_figure(id: &str, opts: &CliOptions) -> Result<(), String> {
    let spec = figure_spec(id).ok_or_else(|| format!("unknown figure {id}"))?;
    let default_scale = match spec.model {
        FigureModel::Opoao => 0.2,
        FigureModel::Doam => 1.0,
    };
    let cfg = harness_config(opts, default_scale);
    let mode = match (spec.model, cfg.estimator) {
        (FigureModel::Opoao, Estimator::MonteCarlo) => "OPOAO mode, mc estimator",
        (FigureModel::Opoao, Estimator::Sketch(_)) => "OPOAO mode, sketch estimator",
        (FigureModel::Doam, _) => "DOAM mode",
    };
    eprintln!("running {id} at scale {} ({mode})...", cfg.scale);
    print_figure(&harness::run_figure(&spec, &cfg), &opts.out);
    Ok(())
}

fn run_table(opts: &CliOptions) -> Result<(), String> {
    let cfg = harness_config(opts, 1.0);
    eprintln!(
        "running table1 at scale {} ({} trials per cell)...",
        cfg.scale, cfg.trials
    );
    let rows = run_table_one(&cfg);
    let mut table = TextTable::new([
        "dataset",
        "|N|",
        "|C|",
        "|B|",
        "|R|/|C|",
        "SCBG",
        "Proximity",
        "MaxDegree",
    ]);
    for r in &rows {
        table.push_row([
            r.dataset.to_owned(),
            r.network_size.to_string(),
            r.community_size.to_string(),
            format!("{:.1}", r.bridge_ends),
            format!("{:.0}%", r.fraction * 100.0),
            format!("{:.1}", r.scbg),
            format!("{:.1}", r.proximity),
            format!("{:.1}", r.max_degree),
        ]);
    }
    println!("== table1 — protectors needed to cover all bridge ends (DOAM)");
    println!("{}", table.render());
    write_report(&opts.out, "table1.csv", &table.to_csv())
        .map_err(|e| format!("could not write table1.csv: {e}"))?;
    println!("   (written to {}/table1.csv)", opts.out);
    Ok(())
}

fn run_sources(opts: &CliOptions) -> Result<(), String> {
    let cfg = harness_config(opts, 0.2);
    eprintln!(
        "running source-detection accuracy at scale {} ({} trials per regime)...",
        cfg.scale, cfg.trials
    );
    let rows = run_source_detection(&cfg);
    let mut table = TextTable::new([
        "snapshot",
        "trials",
        "candidates",
        "mean rank",
        "top-1",
        "top-10%",
    ]);
    for r in &rows {
        table.push_row([
            r.snapshot.to_owned(),
            r.trials.to_string(),
            r.candidates.to_string(),
            format!("{:.1}", r.mean_rank),
            r.top1.to_string(),
            r.top10pct.to_string(),
        ]);
    }
    println!("== sources — locating the rumor originator from a snapshot (extension)");
    println!("{}", table.render());
    write_report(&opts.out, "sources.csv", &table.to_csv())
        .map_err(|e| format!("could not write sources.csv: {e}"))?;
    println!("   (written to {}/sources.csv)", opts.out);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command.as_str() {
        "table1" => run_table(&opts),
        "sources" => run_sources(&opts),
        "all" => {
            let mut result = Ok(());
            for spec in &FIGURES {
                result = result.and_then(|()| run_figure(spec.id, &opts));
            }
            result.and_then(|()| run_table(&opts))
        }
        id if id.starts_with("fig") => run_figure(id, &opts),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        parse_options(&args)
    }

    #[test]
    fn zero_counts_are_rejected() {
        for (flag, message) in [
            ("--realizations", "--realizations must be at least 1"),
            ("--runs", "--runs must be at least 1"),
            ("--trials", "--trials must be at least 1"),
        ] {
            assert_eq!(parse(&[flag, "0"]).err().as_deref(), Some(message));
            assert!(parse(&[flag, "1"]).is_ok(), "{flag} 1");
        }
    }

    #[test]
    fn out_of_range_scale_is_rejected() {
        let err = parse(&["--scale", "0"]).err().unwrap_or_default();
        assert!(err.contains("--scale must be in (0, 1]"), "{err}");
        assert_eq!(
            parse(&["--scale", "0.5"]).ok().and_then(|o| o.scale),
            Some(0.5)
        );
    }
}
