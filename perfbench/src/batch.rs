//! The two batch workloads, driven through `backboning_cli::execute` and
//! `execute_compare`: `cli_ba` (file → backbone TSV) and `compare_er`
//! (file → method-comparison JSON).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use backboning::{Method, Pipeline, ScoredEdge, ThresholdPolicy};
use backboning_cli::{parse_args, Command};
use backboning_eval::comparison::multiplicative_resample;
use backboning_eval::Comparison;
use backboning_gen::ScenarioSpec;
use backboning_graph::io::{
    read_edge_list_csr, read_edge_list_csr_file, write_edge_list, EdgeListOptions,
};
use backboning_graph::{CsrBuilder, CsrGraph};
use backboning_parallel::par_map;

use crate::common::{digest, median, peak_rss_mib, reset_peak_rss, secs, timed, work_dir, Outcome};
use crate::trace::{per_request, render_self_table, self_by_name, write_spans, Span, Tracer};
use crate::Run;

/// Set-up repeats until it has run this many times and for this long;
/// `setup_s` is the median pass.
const SETUP_MIN_PASSES: usize = 3;
const SETUP_MIN_SECONDS: f64 = 3.0;

/// Generate `spec` and write it to `path`: one set-up pass. Returns the
/// node count, edge count and file size.
pub fn generate_file(spec: &str, path: &Path) -> Result<(usize, usize, u64), String> {
    let graph = ScenarioSpec::parse(spec)
        .and_then(|spec| spec.generate())
        .map_err(|e| e.to_string())?;
    // Write a fresh file rather than truncating the last pass's: ext4 flushes
    // a truncated-and-rewritten file on close, which would put disk latency
    // into the set-up time.
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    backboning_graph::io::write_edge_list_file(&graph, path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((graph.node_count(), graph.edge_count(), bytes))
}

/// Repeat the set-up `pass` (at least [`SETUP_MIN_PASSES`] times and
/// [`SETUP_MIN_SECONDS`]), record the median as `setup_s`, and keep what the
/// last pass set up. The files the passes wrote into `dir` are then synced
/// to disk, untimed, so their writeback does not compete with the
/// measured window.
pub fn setup<T>(
    outcome: &mut Outcome,
    dir: &Path,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_PASSES || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        // Drop the previous pass's state before timing the next one.
        drop(last.take());
        let (value, seconds) = timed(&mut pass);
        times.push(seconds);
        last = Some(value?);
    }
    outcome.set("setup_s", median(&times));
    outcome.note(format!(
        "set-up: {} passes, median {:.4} s",
        times.len(),
        median(&times)
    ));
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        File::open(&path)
            .and_then(|file| file.sync_all())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(last.expect("at least one set-up pass"))
}

/// Run `unit` back to back until `seconds` have passed and at least
/// `min_units` have run. Returns each unit's wall time and peak RSS (MiB,
/// the high-water mark is reset before each unit).
fn measure(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> Result<(), String>,
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let start = std::time::Instant::now();
    let (mut times, mut rss) = (Vec::new(), Vec::new());
    while times.len() < min_units || secs(start.elapsed()) < seconds {
        reset_peak_rss();
        let (result, took) = timed(|| unit(times.len()));
        rss.push(peak_rss_mib());
        times.push(took);
        outcome.check(result);
    }
    (times, rss)
}

fn record_e2e(outcome: &mut Outcome, times: &[f64], rss: &[f64]) {
    let list = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    outcome.note(format!(
        "unit seconds: {}; peak RSS MiB: {}",
        list(times),
        list(rss)
    ));
    outcome.set("run_s", median(times));
    outcome.set("peak_rss_mib", median(rss));
    outcome.set("rps", times.len() as f64 / times.iter().sum::<f64>());
}

/// Check that the digest of `bytes` equals the first digest seen.
fn same_digest(reference: &mut Option<u64>, bytes: &[u8], what: &str) -> Result<(), String> {
    let seen = digest(bytes);
    match *reference {
        None => {
            *reference = Some(seen);
            Ok(())
        }
        Some(expected) if expected == seen => Ok(()),
        Some(expected) => Err(format!("{what}: digest {seen:016x} != {expected:016x}")),
    }
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), String>,
) -> Result<(), String> {
    let mut out =
        BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    write(&mut out)?;
    out.flush().map_err(|e| e.to_string())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The shared ingest probes: `read_edge_list_csr` over the file's bytes in
/// memory (parse share), and `CsrBuilder::finish` after replaying the
/// parsed graph's labeled edges (CSR share). Also records the computed CSR
/// size.
pub fn ingest_probes(
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    path: &Path,
    options: &EdgeListOptions,
    graph: &CsrGraph,
) -> Result<(), String> {
    let bytes = read(path)?;
    let (parsed, parse_s) = tracer.probe("graph.io.parse", || {
        read_edge_list_csr(bytes.as_slice(), options)
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let mut builder = CsrBuilder::new(options.direction);
    let label = |node| {
        graph
            .label(node)
            .map_or_else(|| node.to_string(), str::to_string)
    };
    for edge in graph.edges() {
        builder
            .add_labeled_edge(&label(edge.source), &label(edge.target), edge.weight)
            .map_err(|e| e.to_string())?;
    }
    let (rebuilt, finish_s) = tracer.probe("graph.csr.finish", || builder.finish());
    let rebuilt = rebuilt.map_err(|e| e.to_string())?;
    outcome.check(
        if parsed.edge_count() == graph.edge_count() && rebuilt.edge_count() == graph.edge_count() {
            Ok(())
        } else {
            Err("ingest probes: edge counts differ from the ingested graph".to_string())
        },
    );
    outcome.set("graph.io.parse_s", parse_s);
    outcome.set("graph.csr.finish_s", finish_s);
    outcome.set("graph.csr.bytes", graph.memory_bytes() as f64);
    Ok(())
}

fn finish_trace(
    outcome: &mut Outcome,
    dir: &Path,
    spans: &[Span],
    untraced: &[f64],
    traced: &[f64],
    file_bytes: u64,
) -> Result<(), String> {
    let ingest = median(&per_request(spans, "graph.io.ingest"));
    outcome.set("graph.io.ingest_s", ingest);
    outcome.set("graph.io.mb_per_s", file_bytes as f64 / 1e6 / ingest);
    outcome.set("trace.overhead_s", median(traced) - median(untraced));
    outcome.note(format!(
        "tracing overhead: traced unit {:.4} s vs untraced unit {:.4} s (traced unit replays the layer calls)",
        median(traced),
        median(untraced)
    ));
    let units: Vec<u64> = (0..traced.len() as u64).collect();
    let table = render_self_table("traced units", &self_by_name(spans, Some(&units)));
    outcome.notes.extend(table);
    write_spans(&dir.join("spans.tsv"), spans)
}

/// `cli_ba`: the batch user's whole path — a 300k-node directed BA edge
/// list (~900k edges) to an NC backbone TSV file.
pub fn cli_ba(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = work_dir("cli_ba")?;
    let spec = format!(
        "ba:n=300000,m=3,w=lognormal(0,1),noise=0.1,seed={}",
        run.seed
    );
    let input = dir.join("input.tsv");
    let (nodes, edges, bytes) = setup(&mut outcome, &dir, || generate_file(&spec, &input))?;
    outcome.note(format!(
        "input: {spec} -> {nodes} nodes, {edges} edges, {bytes} bytes"
    ));

    let args = [
        "-m",
        "nc",
        "--top-share",
        "0.1",
        "-o",
        "backbone",
        input.to_str().unwrap_or_default(),
    ];
    let Ok(Command::Run(config)) = parse_args(args.map(String::from)) else {
        return Err("cli_ba: arguments did not parse as a run".to_string());
    };
    let output = dir.join("backbone.tsv");
    let mut reference = None;
    let execute_unit = |reference: &mut Option<u64>| -> Result<(), String> {
        write_file(&output, |out| backboning_cli::execute(&config, out))?;
        same_digest(reference, &read(&output)?, "backbone TSV")
    };

    let window = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let (times, rss) = measure(window, 2, |_| execute_unit(&mut reference), &mut outcome);
    record_e2e(&mut outcome, &times, &rss);
    outcome.note(format!(
        "backbone digest {:016x} over {} runs",
        reference.unwrap_or_default(),
        times.len()
    ));
    if !run.trace {
        return Ok(outcome);
    }

    // Traced half: the same unit replayed as its layer calls.
    let mut tracer = Tracer::new(std::time::Instant::now(), 0, true);
    let pipeline = Pipeline::new(Method::NoiseCorrected, ThresholdPolicy::TopShare(0.1));
    let mut last = None;
    let (traced, _) = measure(
        window,
        2,
        |unit| {
            let unit = unit as u64;
            let (graph, kept, scored_len) =
                tracer.span("unit", unit, |tracer| -> Result<_, String> {
                    let graph = tracer.span("graph.io.ingest", unit, |_| {
                        read_edge_list_csr_file(&input, &config.options).map_err(|e| e.to_string())
                    })?;
                    let scored = tracer
                        .span("core.pipeline.score.nc", unit, |_| pipeline.score(&graph))
                        .map_err(|e| e.to_string())?;
                    let kept = tracer
                        .span("core.pipeline.select", unit, |_| {
                            pipeline.select(&graph, &scored)
                        })
                        .map_err(|e| e.to_string())?;
                    let backbone = tracer
                        .span("core.pipeline.build", unit, |_| {
                            graph.subgraph_with_edges(&kept)
                        })
                        .map_err(|e| e.to_string())?;
                    tracer.span("core.pipeline.serialize", unit, |_| {
                        write_file(&output, |out| {
                            write_edge_list(&backbone, out).map_err(|e| e.to_string())
                        })
                    })?;
                    Ok((graph, kept.len(), scored.len()))
                })?;
            last = Some((graph, kept, scored_len));
            same_digest(&mut reference, &read(&output)?, "traced backbone TSV")
        },
        &mut outcome,
    );
    let (graph, kept, scored_len) = last.ok_or("no traced unit ran")?;
    ingest_probes(&mut tracer, &mut outcome, &input, &config.options, &graph)?;
    let spans = tracer.into_spans();
    for (metric, span) in [
        ("core.pipeline.score_s.nc", "core.pipeline.score.nc"),
        ("core.pipeline.select_s", "core.pipeline.select"),
        ("core.pipeline.build_s", "core.pipeline.build"),
        ("core.pipeline.serialize_s", "core.pipeline.serialize"),
    ] {
        outcome.set(metric, median(&per_request(&spans, span)));
    }
    outcome.set("core.pipeline.kept_edges", kept as f64);
    outcome.set(
        "core.scored.bytes",
        (scored_len * std::mem::size_of::<ScoredEdge>()) as f64,
    );
    finish_trace(&mut outcome, &dir, &spans, &times, &traced, bytes)?;
    Ok(outcome)
}

/// Drop every `, "score_wall_ms": <number>` field: what remains of the
/// CLI's compare report is its stable form.
fn strip_wall_times(report: &str) -> String {
    const FIELD: &str = ", \"score_wall_ms\": ";
    let mut stable = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(at) = rest.find(FIELD) {
        stable.push_str(&rest[..at]);
        let tail = &rest[at + FIELD.len()..];
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    stable.push_str(rest);
    stable
}

const COMPARE_METHODS: [&str; 3] = ["nc", "df", "hss-approx"];

/// `compare_er`: the paper's Section V evaluation — an undirected ER graph
/// (20k nodes, 60k edges) compared across nc, df and hss-approx with four
/// noise resamples.
pub fn compare_er(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = work_dir("compare_er")?;
    let spec = format!(
        "er:n=20000,e=60000,w=lognormal(0,1),noise=0.1,seed={}",
        run.seed
    );
    let input = dir.join("input.tsv");
    let (nodes, edges, bytes) = setup(&mut outcome, &dir, || generate_file(&spec, &input))?;
    outcome.note(format!(
        "input: {spec} -> {nodes} nodes, {edges} edges, {bytes} bytes"
    ));

    let args = [
        "compare",
        "--undirected",
        "--methods",
        "nc,df,hss-approx",
        "--top-share",
        "0.1",
        "--noise",
        "0.1",
        "--resamples",
        "4",
        "-o",
        "json",
        input.to_str().unwrap_or_default(),
    ];
    let Ok(Command::Compare(config)) = parse_args(args.map(String::from)) else {
        return Err("compare_er: arguments did not parse as a comparison".to_string());
    };
    let output = dir.join("report.json");
    let mut reference = None;
    let stable_output = || -> Result<String, String> {
        let text =
            String::from_utf8(read(&output)?).map_err(|_| "report is not UTF-8".to_string())?;
        Ok(strip_wall_times(&text))
    };

    let window = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let (times, rss) = measure(
        window,
        2,
        |_| {
            write_file(&output, |out| backboning_cli::execute_compare(&config, out))?;
            same_digest(
                &mut reference,
                stable_output()?.as_bytes(),
                "stable compare report",
            )
        },
        &mut outcome,
    );
    record_e2e(&mut outcome, &times, &rss);
    outcome.note(format!(
        "stable report digest {:016x} over {} runs",
        reference.unwrap_or_default(),
        times.len()
    ));
    if !run.trace {
        return Ok(outcome);
    }

    // Traced half: ingest, then the comparison with its base scoring passes
    // supplied (and spanned) from here.
    let mut tracer = Tracer::new(std::time::Instant::now(), 0, true);
    let comparison = Comparison::new(config.comparison.clone()).map_err(|e| e.to_string())?;
    let threads = config.comparison.threads;
    let mut last = None;
    let (traced, _) = measure(
        window,
        2,
        |unit| {
            let unit = unit as u64;
            let (graph, report) = tracer.span("unit", unit, |tracer| -> Result<_, String> {
                let graph = tracer.span("graph.io.ingest", unit, |_| {
                    read_edge_list_csr_file(&input, &config.options).map_err(|e| e.to_string())
                })?;
                let report = tracer.span("eval.comparison.run", unit, |tracer| {
                    comparison.run_with_scores(&graph, |method| {
                        let name = format!("core.pipeline.score.{}", method.cli_name());
                        tracer.span(&name, unit, |_| {
                            Pipeline::new(method, ThresholdPolicy::TopShare(0.1))
                                .with_threads(threads)
                                .score(&graph)
                                .map(Arc::new)
                        })
                    })
                });
                Ok((graph, report.map_err(|e| e.to_string())?))
            })?;
            let mut stable = report.to_json_stable();
            stable.push('\n');
            let check = same_digest(
                &mut reference,
                stable.as_bytes(),
                "traced stable compare report",
            );
            last = Some((graph, report));
            check
        },
        &mut outcome,
    );
    let (graph, report) = last.ok_or("no traced unit ran")?;

    // The noise resamples re-score every method inside the comparison, out
    // of reach of the spans above. Replay them as the comparison runs them
    // (trials through `par_map` with the configured thread count, one
    // scoring thread each), then charge the replay's wall time to each
    // method by its share of the work.
    let resamples = config.comparison.noise_resamples as u64;
    let methods: Vec<Method> = COMPARE_METHODS
        .iter()
        .filter_map(|m| Method::parse(m))
        .collect();
    let matched = report.matched_edges;
    let probe = u64::MAX - 1;
    let epoch = std::time::Instant::now();
    let trials: Vec<u64> = (0..resamples).collect();
    let (workers, replay_s) = timed(|| {
        par_map(
            &trials,
            config.comparison.threads,
            |_, &trial| -> Result<Vec<Span>, String> {
                let mut tracer = Tracer::new(epoch, (trial + 1) << 40, true);
                let noisy = tracer.span("eval.comparison.resample", probe, |_| {
                    multiplicative_resample(
                        &graph,
                        config.comparison.noise_level,
                        config.comparison.seed.wrapping_add(trial),
                    )
                });
                for &method in &methods {
                    let pipeline =
                        Pipeline::new(method, ThresholdPolicy::TopK(matched)).with_threads(1);
                    let name = format!("core.pipeline.score.{}", method.cli_name());
                    let scored = tracer
                        .span(&name, probe, |_| pipeline.score(&noisy))
                        .map_err(|e| e.to_string())?;
                    tracer
                        .span("core.pipeline.select", probe, |_| {
                            pipeline.select(&noisy, &scored)
                        })
                        .map_err(|e| e.to_string())?;
                }
                Ok(tracer.into_spans())
            },
        )
    });
    let workers: Result<Vec<Vec<Span>>, String> = workers.into_iter().collect();
    let resample_spans: Vec<Span> = workers?.into_iter().flatten().collect();
    ingest_probes(&mut tracer, &mut outcome, &input, &config.options, &graph)?;
    let mut spans = tracer.into_spans();
    let busy: f64 = resample_spans.iter().map(Span::seconds).sum();
    outcome.note(format!(
        "noise-resample replay: {replay_s:.4} s wall, {busy:.4} s busy summed over its threads"
    ));
    outcome.notes.extend(render_self_table(
        "noise-resample replay",
        &self_by_name(&resample_spans, None),
    ));

    // Score time per comparison: the base pass (median over traced units)
    // plus the resample passes' share of the replay's wall time.
    for method in COMPARE_METHODS {
        let span = format!("core.pipeline.score.{method}");
        let base: Vec<f64> = per_request(&spans, &span);
        let resampled: f64 =
            per_request(&resample_spans, &span).iter().sum::<f64>() / busy * replay_s;
        outcome.set(
            &format!("core.pipeline.score_s.{method}"),
            median(&base) + resampled,
        );
    }
    spans.extend(resample_spans);
    let comparison_s = median(&per_request(&spans, "eval.comparison.run"));
    outcome.set("eval.comparison.run_s", comparison_s);
    outcome.set(
        "eval.comparison.scorings",
        (methods.len() as u64 * (1 + resamples)) as f64,
    );
    outcome.set("core.pipeline.kept_edges", report.matched_edges as f64);
    outcome.set(
        "core.scored.bytes",
        (graph.edge_count() * std::mem::size_of::<ScoredEdge>()) as f64,
    );
    finish_trace(&mut outcome, &dir, &spans, &times, &traced, bytes)?;

    // The unit's split with the resample passes attributed to scoring: the
    // comparison's own share is what remains of its span.
    let mut split = BTreeMap::new();
    split.insert(
        "graph.io.ingest".to_string(),
        outcome.values["graph.io.ingest_s"],
    );
    let mut scoring = 0.0;
    for method in COMPARE_METHODS {
        let score = outcome.values[&format!("core.pipeline.score_s.{method}")];
        scoring += score;
        split.insert(format!("core.pipeline.score.{method} (all passes)"), score);
    }
    split.insert(
        "eval.comparison (rest)".to_string(),
        (comparison_s - scoring).max(0.0),
    );
    outcome.notes.extend(render_self_table(
        "one unit, resample scoring attributed",
        &split,
    ));
    Ok(outcome)
}
