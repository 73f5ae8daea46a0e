//! Wall-clock benchmark of `pruneperf`'s plan daemon and search.
//!
//! ```text
//! perfbench --workload <serve_warm|serve_churn|search_resnet50>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it makes the separate traced run that gives the per-layer
//! metrics and writes a Chrome trace under `.perfbench_out/`. Either way
//! every output is checked, the metrics are printed by name with their
//! units, and the last line of standard output is one JSON result. A
//! wrong output makes the exit code non-zero.

#![forbid(unsafe_code)]

mod check;
mod client;
mod daemon;
mod mix;
mod report;
mod search_wl;
mod serve_wl;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use report::Outcome;
use serve_wl::Mix;

/// Workload names, as declared in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["serve_warm", "serve_churn", "search_resnet50"];

/// Every per-layer metric with its unit, in declaration order. A layer
/// that a workload's path never reaches reports `0` and is marked so.
const PER_LAYER: [(&str, &str); 31] = [
    ("serve.http.read_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.catalog.resolve_ms", "ms"),
    ("core.accuracy.build_ms", "ms"),
    ("core.pruner.candidates_ms", "ms"),
    ("core.pruner.plan_ms", "ms"),
    ("profiler.runner.verify_ms", "ms"),
    ("serve.protocol.render_us", "us"),
    ("serve.planner.handle_ms", "ms"),
    ("serve.planner.stage_coverage", "ratio"),
    ("serve.server.overhead_ms", "ms"),
    ("serve.admission.worker_share_max", "ratio"),
    ("profiler.cache.hit_ratio", "ratio"),
    ("profiler.cache.misses", "count"),
    ("profiler.cache.evictions", "count"),
    ("profiler.cache.hit_us", "us"),
    ("profiler.cache.miss_us", "us"),
    ("profiler.cache.miss_unbounded_us", "us"),
    ("gpusim.chains_assembled", "count"),
    ("gpusim.kernel_evals", "count"),
    ("gpusim.engine_runs", "count"),
    ("profiler.retry_attempts", "count"),
    ("core.search.space_build_ms", "ms"),
    ("core.search.evaluate_us", "us"),
    ("core.search.archive_offer_us", "us"),
    ("core.search.evaluated", "count"),
    ("core.search.front", "count"),
    ("core.search.rounds", "count"),
    ("core.search.other_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("run.peak_rss_mb", "MiB"),
];

/// Where traced runs write their Chrome traces and layer tables.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got '{value}'"))
        };
        let slot_taken = match flag.as_str() {
            "--workload" => workload.replace(value.clone()).is_some(),
            "--seed" => seed.replace(number()?).is_some(),
            "--seconds" => seconds.replace(number()?).is_some(),
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
                .is_some(),
            _ => return Err(format!("unexpected argument '{flag}'")),
        };
        if slot_taken {
            return Err(format!("flag {flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {})",
            WORKLOADS.join(" | ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("serve_warm", false) => serve_wl::run(Mix::Warm, args.seed, args.seconds)?,
        ("serve_churn", false) => serve_wl::run(Mix::Churn, args.seed, args.seconds)?,
        ("search_resnet50", false) => search_wl::run(args.seed, args.seconds)?,
        ("serve_warm", true) => serve_wl::run_traced(Mix::Warm, args.seed, out_dir)?,
        ("serve_churn", true) => serve_wl::run_traced(Mix::Churn, args.seed, out_dir)?,
        ("search_resnet50", true) => search_wl::run_traced(args.seed, out_dir)?,
        (other, _) => return Err(format!("unknown workload '{other}'")),
    };
    if args.trace {
        complete_layer_table(&mut outcome, &args.workload, args.seed, out_dir)?;
    }
    Ok(outcome)
}

/// Puts the per-layer metrics in declaration order, adds the ones this
/// workload's path does not reach as `0`, prints the table and writes it
/// beside the trace.
fn complete_layer_table(
    outcome: &mut Outcome,
    workload: &str,
    seed: u64,
    out_dir: &Path,
) -> Result<(), String> {
    let measured = std::mem::take(&mut outcome.metrics);
    let mut table = format!("per-layer metrics, workload {workload}, seed {seed}\n");
    for (name, unit) in PER_LAYER {
        let found = measured.iter().find(|m| m.name == name);
        let value = match (name, found) {
            ("run.peak_rss_mb", _) => daemon::peak_rss_kb() as f64 / 1024.0,
            (_, Some(m)) => m.value,
            (_, None) => 0.0,
        };
        let note = if found.is_some() || name == "run.peak_rss_mb" {
            ""
        } else {
            "  (not on this workload's path)"
        };
        table.push_str(&format!("  {name:<36} {value:>16.6} {unit}{note}\n"));
        outcome.metric(name, value, unit);
    }
    for m in &measured {
        if !PER_LAYER.iter().any(|(n, _)| *n == m.name) {
            return Err(format!("metric {} is not declared", m.name));
        }
    }
    let path = out_dir.join(format!("{workload}-seed{seed}.layers.txt"));
    std::fs::write(&path, &table).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    outcome.line(table.trim_end().to_string());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("daemon") => {
            let max = argv
                .get(2)
                .filter(|_| argv.get(1).map(String::as_str) == Some("--max-requests"))
                .and_then(|v| v.parse().ok());
            let Some(max) = max else {
                eprintln!("usage: perfbench daemon --max-requests N");
                return ExitCode::from(2);
            };
            return match daemon::run_daemon(max) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("record-search") => {
            return match search_wl::record() {
                Ok(table) => {
                    println!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench record-search: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "workload={} seed={} trace={} nproc={}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(1, |n| n.get())
            );
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.result_json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed or gave wrong output",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_command_line_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "serve_warm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_warm", 3, 10, true)
        );
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "serve_warm"])).is_err());
        assert!(parse_args(&args(&["--seed", "1", "--seed", "2"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "serve_warm",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc: serde::Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(|l| l.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_declared_metrics_are_the_reported_ones() {
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let mut o = Outcome::default();
        for (name, unit) in [
            ("setup_s", "s"),
            ("ops_per_s", "1/s"),
            ("op_p50_ms", "ms"),
            ("op_tail_ms", "ms"),
            ("pass_s", "s"),
            ("peak_rss_mb", "MiB"),
        ] {
            o.metric(name, 1.0, unit);
        }
        let reported: Vec<(String, String)> = o
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), reported);
    }
}
