//! The repository benchmark: four seeded workloads driven through the same
//! public entry points users hit (`backboning_cli::parse_args` + `execute` /
//! `execute_compare`, and `backboning_server::Server` over real TCP).
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli_ba --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --all
//! ```
//!
//! One run sets up (several times; `setup_s` is the median), measures for
//! `--seconds`, checks every output, and prints as its last line one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. `--all` runs every workload both ways and prints every
//! metric. Any output mismatch makes the exit code non-zero.

mod batch;
mod client;
mod common;
mod serve;
mod trace;

use std::process::ExitCode;

use common::Outcome;

pub const WORKLOADS: [&str; 4] = ["cli_ba", "compare_er", "serve_churn", "serve_poll"];

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("rps", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.ingest_s", "s"),
    ("graph.io.mb_per_s", "MB/s"),
    ("graph.io.parse_s", "s"),
    ("graph.csr.finish_s", "s"),
    ("graph.csr.bytes", "bytes"),
    ("core.pipeline.score_s.nc", "s"),
    ("core.pipeline.score_s.df", "s"),
    ("core.pipeline.score_s.hss-approx", "s"),
    ("core.pipeline.select_s", "s"),
    ("core.pipeline.build_s", "s"),
    ("core.pipeline.serialize_s", "s"),
    ("core.pipeline.kept_edges", "count"),
    ("core.scored.bytes", "bytes"),
    ("eval.comparison.run_s", "s"),
    ("eval.comparison.scorings", "count"),
    ("server.http.connect_ms", "ms"),
    ("server.http.overhead_ms", "ms"),
    ("server.route_p50_ms.backbone", "ms"),
    ("server.route_p50_ms.upload", "ms"),
    ("server.route_p50_ms.patch", "ms"),
    ("server.registry.score_hit_ratio", "ratio"),
    ("server.registry.score_evictions", "count"),
    ("server.registry.patch_s", "s"),
    ("graph.delta.apply_s", "s"),
    ("graph.delta.compact_s", "s"),
    ("graph.delta.compactions", "count"),
    ("core.delta.rescore_s", "s"),
    ("core.delta.ops", "count"),
    ("trace.overhead_s", "s"),
];

/// Scoring threads for every workload (the benchmark host has two cores).
pub const THREADS: &str = "2";

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --all [--seed <n>] [--seconds <s>]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Run, bool), String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut all = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag}: missing value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--all" => all = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !all && !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown or missing workload `{}`", run.workload));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((run, all))
}

fn execute(run: &Run) -> Outcome {
    let result = match run.workload.as_str() {
        "cli_ba" => batch::cli_ba(run),
        "compare_er" => batch::compare_er(run),
        "serve_churn" => serve::serve_churn(run),
        _ => serve::serve_poll(run),
    };
    result.unwrap_or_else(|error| {
        let mut outcome = Outcome::default();
        outcome.check(Err(format!("run aborted: {error}")));
        outcome
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Print the human-readable lines and every metric of `metrics` by name
/// with its unit; returns the JSON object of those metrics.
fn print_metrics(run: &Run, outcome: &Outcome, metrics: &[(&str, &str)]) -> String {
    for line in &outcome.notes {
        println!("{line}");
    }
    for failure in outcome.failures.iter().take(5) {
        println!("MISMATCH: {failure}");
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("threads: BACKBONING_THREADS={THREADS}, available parallelism {cores}");
    let mode = if run.trace { "per-layer" } else { "end-to-end" };
    println!(
        "{} seed={} trace={} ({mode}):",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    let mut fields = Vec::new();
    for (name, unit) in metrics {
        let value = outcome.values.get(*name).copied().unwrap_or(0.0);
        println!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (name, value) in &outcome.values {
        if !END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|(known, _)| known == name)
        {
            println!("  {name:<34} {value:>16.6} (also measured, not gated)");
        }
    }
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} operations failed)",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    // Pin scoring and pool sizing before any thread count is resolved.
    std::env::set_var("BACKBONING_THREADS", THREADS);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, all) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if all {
        let mut failed = 0;
        for workload in WORKLOADS {
            for trace in [false, true] {
                let run = Run {
                    workload: workload.to_string(),
                    trace,
                    ..run
                };
                let outcome = execute(&run);
                print_metrics(&run, &outcome, if trace { PER_LAYER } else { END_TO_END });
                failed += outcome.failed;
            }
        }
        println!("perfbench --all: {failed} failed operation(s)");
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let outcome = execute(&run);
    let metrics = print_metrics(
        &run,
        &outcome,
        if run.trace { PER_LAYER } else { END_TO_END },
    );
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
