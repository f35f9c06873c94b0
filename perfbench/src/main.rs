//! The LCRB benchmark: one command, three workloads, end-to-end metrics
//! by default and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lcrbp_opoao_mc|lcrbd_doam_scbg|session_sketch_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//!     [--trace-out <file>] [--corrupt-selection] [--setup-only]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! is the run's provenance record. A failed output check makes the
//! command exit with code 1. See `README.md` for the metric
//! definitions.

// The repository's clippy configuration bans wall-clock reads to keep
// the library replayable; measuring wall-clock time is this binary's job.
#![allow(clippy::disallowed_methods)]

mod common;
mod json;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashSet};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use common::{Sizes, Tally};
use json::Json;
use stats::{median, quantile};
use trace::SpanRecord;
use workloads::{RoundCtx, Workload, NAMES};

/// Layers whose self time the traced run reports; `bench` is the
/// benchmark's own code around them.
const SELF_TIME_LAYERS: &[&str] = &[
    "bench",
    "datasets.synthetic",
    "core.instance",
    "core.engine",
    "core.evaluate",
    "graph.csr",
    "graph.csr_bfs",
    "core.bridge",
    "diffusion.opoao",
    "diffusion.analytic",
    "diffusion.montecarlo",
    "core.objective",
    "core.sketch_objective",
    "core.greedy",
    "core.scbg",
];

/// Per-layer metrics measured by the probes, with their units.
const PROBED: &[(&str, &str)] = &[
    ("graph.csr.freeze_ms", "ms"),
    ("graph.csr_bfs.ms", "ms"),
    ("graph.csr_bfs.arcs", "count"),
    ("graph.csr_bfs.ns_per_arc", "ns"),
    ("core.bridge.ms", "ms"),
    ("core.bridge.ends", "count"),
    ("diffusion.opoao.run_us", "us"),
    ("diffusion.opoao.hops", "count"),
    ("diffusion.analytic.doam_ms", "ms"),
    ("diffusion.montecarlo.batch_ms_t1", "ms"),
    ("diffusion.montecarlo.batch_ms_tN", "ms"),
    ("diffusion.montecarlo.runs_per_s", "1/s"),
    ("diffusion.montecarlo.scaling", "ratio"),
    ("core.objective.build_ms", "ms"),
    ("core.objective.sigma_us", "us"),
    ("core.sketch_objective.build_ms", "ms"),
    ("core.sketch_objective.sketches", "count"),
    ("core.sketch_objective.sigma_us", "us"),
    ("core.greedy.ms", "ms"),
    ("core.scbg.ms", "ms"),
    ("core.scbg.candidates", "count"),
    ("core.scbg.covered_ratio", "ratio"),
    ("core.engine.cold_ms", "ms"),
    ("core.engine.extend_ms", "ms"),
    ("core.engine.replay_us", "us"),
    ("core.engine.batch_ms_t1", "ms"),
    ("core.engine.batch_ms_tN", "ms"),
    ("core.engine.scaling", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    trace_out: Option<String>,
    corrupt: bool,
    setup_only: bool,
}

fn usage() -> String {
    format!(
        "usage: lcrb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|tiny] [--trace-out <file>] [--corrupt-selection] [--setup-only]",
        NAMES.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sizes: Sizes::FULL,
        trace_out: None,
        corrupt: false,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--size" => {
                parsed.sizes = match value()?.as_str() {
                    "full" => Sizes::FULL,
                    "tiny" => Sizes::TINY,
                    other => return Err(format!("--size must be full or tiny, got {other}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(value()?.clone()),
            "--corrupt-selection" => parsed.corrupt = true,
            "--setup-only" => parsed.setup_only = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown or missing --workload {:?}",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "none".to_owned())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sizes = args.sizes;

    if args.setup_only {
        let (times, _) = set_up(&args, sizes.setup_secs);
        println!("{:?}", median(&times));
        return ExitCode::SUCCESS;
    }
    let setup_s = if args.trace {
        f64::NAN
    } else {
        match setup_in_fresh_processes(&args) {
            Ok(secs) => secs,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    trace::set_enabled(args.trace);
    let (setup_times, mut workload) = set_up(&args, 0.0);
    let setup_spans = trace::take();
    let probe_instance = args.trace.then(|| workload.probe_instance(args.seed));

    // Rounds until the measuring time is up. A traced run measures pairs
    // of rounds on the same inputs, one untraced and one traced, so the
    // pair's difference is the tracing overhead. Which one goes first
    // alternates, so that neither always runs on caches the other
    // warmed. A probe pass of the layers follows each pair.
    let mut tally = Tally::default();
    let mut probe_tally = Tally::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut samples: Vec<probes::Sample> = Vec::new();
    let quality_rounds = sizes.quality_rounds[NAMES
        .iter()
        .position(|&n| n == args.workload)
        .expect("the workload name was validated")];
    // A traced run reports no quality metric; one pair suffices.
    let min_rounds = if args.trace { 2 } else { quality_rounds.max(1) };
    let window = Duration::from_secs_f64(args.seconds);
    let measuring = Instant::now();
    let mut round = 0u64;
    loop {
        let (traced, inputs) = if args.trace {
            let pair = round / 2;
            ((round % 2 == 1) != (pair % 2 == 1), pair)
        } else {
            (false, round)
        };
        trace::set_enabled(traced);
        let ctx = RoundCtx {
            seed: args.seed,
            sizes,
            threads,
            quality: !traced && (inputs as usize) < quality_rounds,
            corrupt: args.corrupt && round == 0,
        };
        let span = trace::request("bench.round");
        let wall = workload.round(inputs, &ctx, &mut tally);
        drop(span);
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        round += 1;
        let pair_done = !args.trace || round.is_multiple_of(2);
        if let (true, Some(inst)) = (pair_done, &probe_instance) {
            trace::set_enabled(true);
            samples.push(probes::run(inst, args.seed, threads, &mut probe_tally));
        }
        if pair_done && round as usize >= min_rounds && measuring.elapsed() >= window {
            break;
        }
    }
    trace::set_enabled(false);
    let spans = trace::take();

    let (nodes, arcs) = workload.graph_size();
    let scaling_note = if threads < 2 {
        "not a scaling result: fewer than 2 cores visible"
    } else {
        "scaling = time at 1 worker / time at available_parallelism workers"
    };
    let provenance = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("available_parallelism", Json::Int(threads as u64)),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("git_rev", Json::str(git_rev())),
        ("nodes", Json::Int(nodes as u64)),
        ("arcs", Json::Int(arcs as u64)),
        ("instances", Json::Arr(tally.instances.clone())),
        ("rounds", Json::Int(round)),
        (
            "round_wall_s",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        ("setup_processes", Json::Int(sizes.setup_procs as u64)),
        ("solve_samples", Json::Int(tally.solve_ms.len() as u64)),
        (
            "first_solve_samples",
            Json::Int(tally.first_solve_ms.len() as u64),
        ),
        ("scaling_note", Json::str(scaling_note)),
    ]);

    let gate = &tally.gate;
    let mut report: Vec<(String, f64, &str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        report.push((name.to_owned(), value, unit));
    };
    if args.trace {
        layer_metrics(
            &mut put,
            &tally,
            &probe_tally,
            &samples,
            &setup_spans,
            setup_times.len(),
            &spans,
            round,
            traced_walls.len(),
        );
        let paired: Vec<f64> = traced_walls
            .iter()
            .zip(&walls)
            .map(|(traced, untraced)| (traced - untraced) * 1e3)
            .collect();
        let overhead_ms = median(&paired);
        put("trace.overhead_ms", overhead_ms, "ms");
        put(
            "trace.spans",
            spans.len() as f64 / traced_walls.len().max(1) as f64,
            "count",
        );
        let out = args.trace_out.clone().unwrap_or_else(|| {
            format!(
                "{}/out/trace-{}-seed{}.json",
                env!("CARGO_MANIFEST_DIR"),
                args.workload,
                args.seed
            )
        });
        let doc = trace_document(
            &provenance,
            &walls,
            &traced_walls,
            overhead_ms,
            &setup_spans,
            setup_times.len(),
            &spans,
        );
        if let Err(e) = write_file(&out, &doc.to_string()) {
            eprintln!("warning: could not write the trace to {out}: {e}");
        } else {
            eprintln!("trace written to {out}");
        }
    } else {
        let solve_time: f64 = walls.iter().sum();
        put("setup_s", setup_s, "s");
        put("wall_s", median(&walls), "s");
        put("solves_per_s", tally.solves as f64 / solve_time, "1/s");
        put("solve_ms_p50", median(&tally.solve_ms), "ms");
        put("solve_ms_p90", quantile(&tally.solve_ms, 0.9), "ms");
        put("first_solve_ms_p50", median(&tally.first_solve_ms), "ms");
        put("infected_final", tally.infected_final, "nodes");
        put("protectors_total", tally.protectors_total, "nodes");
        put("peak_rss_mb", peak_rss_mb(), "MB");
        put(
            "ok_frac",
            1.0 - gate.failed as f64 / gate.attempted.max(1) as f64,
            "ratio",
        );
    }

    for (name, value, unit) in &report {
        eprintln!("{name:>40} {value:>14.4} {unit}");
    }
    for message in &gate.messages {
        eprintln!("check failed: {message}");
    }
    let correct = gate.failed == 0;
    println!("{}", Json::obj([("provenance", provenance)]));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(gate.attempted.max(1))),
            ("failed", Json::Int(gate.failed)),
            (
                "metrics",
                Json::Obj(
                    report
                        .iter()
                        .map(|(name, value, unit)| (name.clone(), metric(*value, unit)))
                        .collect()
                )
            ),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Sets the workload up back to back, each set-up dropped before the
/// next starts, until `setup_reps` set-ups have run and together took
/// `min_secs`; returns each one's seconds and the last one.
fn set_up(args: &Args, min_secs: f64) -> (Vec<f64>, Workload) {
    let mut times: Vec<f64> = Vec::new();
    let mut workload = None;
    while times.len() < args.sizes.setup_reps.max(1) || times.iter().sum::<f64>() < min_secs {
        drop(workload.take());
        let _setup = trace::request("bench.setup");
        let start = Instant::now();
        workload = Workload::setup(&args.workload, args.seed, &args.sizes);
        times.push(start.elapsed().as_secs_f64());
    }
    let workload = workload.expect("the workload name was validated");
    (times, workload)
}

/// `setup_s`: the median, over `setup_procs` fresh processes running
/// this binary with `--setup-only`, of each one's median set-up time.
/// All set-ups in one process run at one speed, which can differ by
/// half from the next process's, so the samples must come from several
/// processes; each is waited for before the next starts.
fn setup_in_fresh_processes(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let seed = args.seed.to_string();
    let mut medians = Vec::new();
    for _ in 0..args.sizes.setup_procs.max(1) {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--size", args.sizes.name, "--trace", "0", "--setup-only"])
            .output()
            .map_err(|e| format!("set-up process did not run: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(secs) if out.status.success() => medians.push(secs),
            _ => return Err(format!("set-up process failed ({}): {text}", out.status)),
        }
    }
    Ok(median(&medians))
}

fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Self time per span name, ms per `units`.
fn self_ms_per(spans: &[SpanRecord], units: usize) -> BTreeMap<&'static str, f64> {
    trace::self_ns(spans)
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / 1e6 / units.max(1) as f64))
        .collect()
}

/// Self time per span name of the spans whose request tree is (or is
/// not) rooted at a probe pass, ms per traced round.
fn self_ms(spans: &[SpanRecord], probe: bool, rounds: usize) -> BTreeMap<&'static str, f64> {
    let probe_requests: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "bench.probe")
        .map(|s| s.request)
        .collect();
    let part: Vec<_> = spans
        .iter()
        .filter(|s| probe_requests.contains(&s.request) == probe)
        .cloned()
        .collect();
    self_ms_per(&part, rounds)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    put: &mut impl FnMut(&str, f64, &'static str),
    tally: &Tally,
    probe_tally: &Tally,
    samples: &[probes::Sample],
    setup_spans: &[SpanRecord],
    setups: usize,
    spans: &[SpanRecord],
    rounds: u64,
    traced_rounds: usize,
) {
    // Counts are per round: the tally spans every round, the probe
    // tally every probe pass.
    let per_round = |n: u64| n as f64 / rounds.max(1) as f64;
    let per_probe = |n: u64| n as f64 / traced_rounds.max(1) as f64;
    let gen: Vec<f64> = setup_spans
        .iter()
        .filter(|s| s.name == "datasets.synthetic")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    put("datasets.synthetic.gen_ms", median(&gen), "ms");
    let probed = |name: &str| {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.iter().find(|(k, _)| *k == name).map(|&(_, v)| v))
            .collect();
        median(&values)
    };
    for &(name, unit) in PROBED {
        put(name, probed(name), unit);
    }
    // CELF work of the workload's own fresh greedy solves; the DOAM
    // workload runs none, so it reports the greedy probe's.
    let (evaluations, picks) = if tally.greedy_picks > 0 {
        (
            per_round(tally.greedy_evaluations),
            per_round(tally.greedy_picks),
        )
    } else {
        (
            probed("core.greedy.probe_evaluations"),
            probed("core.greedy.probe_picks"),
        )
    };
    put("core.greedy.evaluations", evaluations, "count");
    put("core.greedy.picks", picks, "count");
    put("core.greedy.evals_per_pick", evaluations / picks, "count");
    let hits = per_round(tally.cache_hits) + per_probe(probe_tally.cache_hits);
    let lookups = hits + per_round(tally.cache_misses) + per_probe(probe_tally.cache_misses);
    put("core.engine.cache_hit_ratio", hits / lookups, "ratio");
    put("core.engine.cache_lookups", lookups, "count");
    put(
        "core.evaluate.ms_per_set",
        tally.evaluate_ns as f64 / 1e6 / tally.evaluated_sets.max(1) as f64,
        "ms",
    );
    // Self time of one set-up plus one traced round with its probe pass.
    let tables = [
        self_ms_per(setup_spans, setups),
        self_ms(spans, false, traced_rounds),
        self_ms(spans, true, traced_rounds),
    ];
    for &layer in SELF_TIME_LAYERS {
        let total: f64 = tables
            .iter()
            .flatten()
            .filter(|(name, _)| name.split('.').next() == Some(layer) || **name == layer)
            .map(|(_, ms)| ms)
            .sum();
        put(&format!("{layer}.self_ms"), total, "ms");
    }
}

fn trace_document(
    provenance: &Json,
    walls: &[f64],
    traced_walls: &[f64],
    overhead_ms: f64,
    setup_spans: &[SpanRecord],
    setups: usize,
    spans: &[SpanRecord],
) -> Json {
    let rounds = traced_walls.len();
    let table = |ms: BTreeMap<&'static str, f64>| {
        Json::Obj(
            ms.into_iter()
                .map(|(k, v)| (k.to_owned(), Json::Num(v)))
                .collect(),
        )
    };
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    Json::obj([
        ("provenance", provenance.clone()),
        ("wall_s_untraced", nums(walls)),
        ("wall_s_traced", nums(traced_walls)),
        ("overhead_ms", Json::Num(overhead_ms)),
        ("self_ms_per_setup", table(self_ms_per(setup_spans, setups))),
        (
            "self_ms_per_traced_round_workload",
            table(self_ms(spans, false, rounds)),
        ),
        (
            "self_ms_per_traced_round_probe",
            table(self_ms(spans, true, rounds)),
        ),
        ("spans", trace::spans_json(&[setup_spans, spans].concat())),
    ])
}
