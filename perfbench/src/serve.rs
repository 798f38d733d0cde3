//! The two serving workloads, driven over real TCP against
//! `backboning_server::Server` bound on `127.0.0.1:0` in this process:
//! `serve_churn` (PATCH batches beside backbone reads on one large graph)
//! and `serve_poll` (skewed backbone polling over eight small graphs).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use backboning::json::JsonObject;
use backboning::{apply_batch, delta_rescore, Method, Pipeline, ScoredEdge, ThresholdPolicy};
use backboning_cli::{parse_args, Command};
use backboning_graph::io::{read_edge_list_csr, read_edge_list_csr_file, EdgeListOptions};
use backboning_graph::{CsrGraph, DeltaBatch, DeltaGraph, Direction};
use backboning_server::{Registry, Server, ServerConfig};

use crate::batch::{generate_file, ingest_probes, setup};
use crate::client::{self, counter, route_field, scrape, Reply};
use crate::common::{derive_seed, median, secs, stretch_peaks, tail, work_dir, Outcome, Rng};
use crate::trace::{per_request, write_spans, Span, Tracer};
use crate::Run;

const BACKBONE_ROUTE: &str = "/graphs/{name}/backbone";
const GRAPH_ROUTE: &str = "/graphs/{name}";

fn bind() -> Result<Server, String> {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())
}

fn undirected() -> EdgeListOptions {
    EdgeListOptions::with_direction(Direction::Undirected)
}

/// What `backbone -m <method> --top-share <share> --undirected -o <output>`
/// writes for `path`, through `backboning_cli::execute`.
fn cli_output(path: &Path, method: &str, share: f64, output: &str) -> Result<Vec<u8>, String> {
    let share = share.to_string();
    let args = [
        "-m",
        method,
        "--top-share",
        &share,
        "--undirected",
        "-o",
        output,
        path.to_str().unwrap_or_default(),
    ];
    let Ok(Command::Run(config)) = parse_args(args.map(String::from)) else {
        return Err(format!("cli arguments {args:?} did not parse"));
    };
    let mut out = Vec::new();
    backboning_cli::execute(&config, &mut out)?;
    Ok(out)
}

/// The server's summary body for `graph`: the pipeline's stable summary
/// wrapped as the backbone route wraps it.
fn summary_body(graph_name: &str, stable: &str) -> Vec<u8> {
    let mut body = JsonObject::pretty();
    body.string("graph", graph_name).raw("summary", stable);
    let mut text = body.finish();
    text.push('\n');
    text.into_bytes()
}

/// Every request one connection made, in order.
type Samples = Vec<Result<Sample, String>>;

/// Expected summary bodies by method, one map per graph state.
type StateBodies = Vec<HashMap<&'static str, Vec<u8>>>;

/// One finished client request.
struct Sample {
    /// Client connection (0 or 1).
    conn: usize,
    /// `patch`, or the method a backbone GET asked for.
    kind: String,
    /// Writer requests: batches applied when it was sent.
    generation: usize,
    latency_s: f64,
    connect_s: f64,
    body: Vec<u8>,
}

/// Median and tail (with its percentile and sample count) of `latencies`,
/// as notes and unbounded values named `<prefix>_p50_ms` / `<prefix>_tail_ms`.
fn latency_notes(outcome: &mut Outcome, prefix: &str, latencies: &[f64]) {
    let p50 = median(latencies) * 1e3;
    outcome.set(&format!("{prefix}_p50_ms"), p50);
    match tail(latencies) {
        Some((percentile, value)) => {
            outcome.set(&format!("{prefix}_tail_ms"), value * 1e3);
            outcome.note(format!(
                "{prefix}: p50 {p50:.3} ms, tail p{percentile} {:.3} ms over {} samples",
                value * 1e3,
                latencies.len()
            ));
        }
        None => outcome.note(format!(
            "{prefix}: p50 {p50:.3} ms over {} samples (too few for a tail)",
            latencies.len()
        )),
    }
}

/// Server-side counters and route figures between two `/metrics` scrapes.
fn server_layers(outcome: &mut Outcome, before: &str, after: &str, client_backbone: &[f64]) {
    let delta = |name: &str| counter(after, name) - counter(before, name);
    let hits = delta("score_cache_hits_total");
    let misses = delta("score_cache_misses_total");
    outcome.set(
        "server.registry.score_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    outcome.set(
        "server.registry.score_evictions",
        delta("score_cache_evictions_total"),
    );
    for (metric, method, route) in [
        ("server.route_p50_ms.backbone", "GET", BACKBONE_ROUTE),
        ("server.route_p50_ms.upload", "POST", GRAPH_ROUTE),
        ("server.route_p50_ms.patch", "PATCH", GRAPH_ROUTE),
    ] {
        let p50 = route_field(after, method, route, "p50_seconds").unwrap_or(0.0);
        outcome.set(metric, p50 * 1e3);
    }
    // The histogram's sum and count are exact (its quantiles are bucket
    // bounds), so the overhead compares means over the same requests.
    let field =
        |text: &str, name: &str| route_field(text, "GET", BACKBONE_ROUTE, name).unwrap_or(0.0);
    let count = field(after, "count") - field(before, "count");
    let server_mean = (field(after, "sum_seconds") - field(before, "sum_seconds")) / count.max(1.0);
    let client_mean = client_backbone.iter().sum::<f64>() / client_backbone.len().max(1) as f64;
    outcome.set("server.http.overhead_ms", (client_mean - server_mean) * 1e3);
    outcome.note(format!(
        "backbone GETs: client mean {:.3} ms over {}, server mean {:.3} ms over {count}",
        client_mean * 1e3,
        client_backbone.len(),
        server_mean * 1e3
    ));
}

/// Run `conn` on two client threads for `seconds`; the first thread to
/// return stops the other. Returns every sample and the wall time.
fn two_connections(
    seconds: f64,
    traced: bool,
    epoch: Instant,
    conn: impl Fn(usize, &mut Tracer, &AtomicBool, f64) -> Samples + Sync,
) -> (Samples, Vec<Span>, f64) {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let results: Vec<(Samples, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|index| {
                let (stop, conn) = (&stop, &conn);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, (index as u64 + 1) << 40, traced);
                    let samples = conn(index, &mut tracer, stop, seconds);
                    stop.store(true, Ordering::SeqCst);
                    (samples, tracer.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(start.elapsed());
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (s, sp) in results {
        samples.extend(s);
        spans.extend(sp);
    }
    (samples, spans, wall)
}

fn sample(conn: usize, kind: &str, generation: usize, reply: Reply) -> Sample {
    Sample {
        conn,
        kind: kind.to_string(),
        generation,
        latency_s: reply.total_s,
        connect_s: reply.connect_s,
        body: reply.body,
    }
}

/// Seeded 16-op delta batches against an undirected graph whose edge set
/// the generator tracks. Every fourth batch is structural (12 reweights,
/// 2 adds, 2 removes); the rest reweight only, so both the reweight fast
/// path and compaction run. Within a batch, reweights and removes touch
/// distinct edges that exist before it and adds create pairs absent before
/// it, so every op is valid in any order and the ops can be shuffled.
fn churn_batches(graph: &CsrGraph, seed: u64, count: usize) -> Vec<String> {
    let label = |node: usize| {
        graph
            .label(node)
            .map_or_else(|| node.to_string(), str::to_string)
    };
    let mut edges: Vec<(usize, usize)> = graph
        .edges()
        .map(|e| (e.source.min(e.target), e.source.max(e.target)))
        .collect();
    let mut present: HashSet<(usize, usize)> = edges.iter().copied().collect();
    let mut rng = Rng::new(derive_seed(seed, 7));
    let nodes = graph.node_count();
    let weight = |rng: &mut Rng| format!("{:.4}", 0.05 + 5.0 * rng.unit());
    (0..count)
        .map(|index| {
            let structural = index % 4 == 3;
            let mut ops = Vec::new();
            let mut removed = Vec::new();
            if structural {
                for _ in 0..2 {
                    let (a, b) = edges.swap_remove(rng.below(edges.len()));
                    ops.push(format!("remove {} {}", label(a), label(b)));
                    removed.push((a, b));
                }
            }
            while ops.len() < if structural { 14 } else { 16 } {
                let (a, b) = edges[rng.below(edges.len())];
                ops.push(format!(
                    "reweight {} {} {}",
                    label(a),
                    label(b),
                    weight(&mut rng)
                ));
            }
            if structural {
                for _ in 0..2 {
                    let pair = loop {
                        let (a, b) = (rng.below(nodes), rng.below(nodes));
                        let pair = (a.min(b), a.max(b));
                        if a != b && !present.contains(&pair) {
                            break pair;
                        }
                    };
                    ops.push(format!(
                        "add {} {} {}",
                        label(pair.0),
                        label(pair.1),
                        weight(&mut rng)
                    ));
                    edges.push(pair);
                    present.insert(pair);
                }
                for pair in removed {
                    present.remove(&pair);
                }
            }
            // Interleave so structural ops do not all lead the batch.
            let len = ops.len();
            for i in 0..len {
                ops.swap(i, rng.below(len));
            }
            ops.join("\n") + "\n"
        })
        .collect()
}

const CHURN_GRAPH: &str = "churn";
const CHURN_METHODS: [&str; 2] = ["nc", "df"];

fn summary_path(graph: &str, method: &str) -> String {
    format!("/graphs/{graph}/backbone?method={method}&top_share=0.1&output=summary")
}

/// One churn window: connection 0 applies batches `from..` (PATCH, then an
/// nc and a df summary read, per cycle); connection 1 reads summaries.
fn churn_window(
    addr: SocketAddr,
    batches: &[String],
    from: usize,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Samples, Vec<Span>, f64) {
    two_connections(seconds, traced, epoch, |conn, tracer, stop, seconds| {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut request = (conn as u64) << 32;
        let mut generation = from;
        while secs(start.elapsed()) < seconds && !stop.load(Ordering::SeqCst) {
            if conn == 0 {
                let Some(batch) = batches.get(generation) else {
                    break;
                };
                request += 1;
                let path = format!("/graphs/{CHURN_GRAPH}");
                let reply =
                    client::expect(tracer, request, addr, "PATCH", &path, batch.as_bytes(), 200);
                generation += 1;
                let tag = format!("\"generation\": {generation},");
                samples.push(reply.and_then(|reply| {
                    if String::from_utf8_lossy(&reply.body).contains(&tag) {
                        Ok(sample(conn, "patch", generation, reply))
                    } else {
                        Err(format!("PATCH {generation}: response lacks {tag}"))
                    }
                }));
            }
            for method in CHURN_METHODS {
                request += 1;
                let reply = client::expect(
                    tracer,
                    request,
                    addr,
                    "GET",
                    &summary_path(CHURN_GRAPH, method),
                    b"",
                    200,
                );
                samples.push(reply.map(|reply| sample(conn, method, generation, reply)));
            }
        }
        samples
    })
}

/// Expected summary bodies of every state `0..=applied`: the batches are
/// applied offline (`apply_batch`, as `backbone patch` does) and each state
/// is scored from scratch. Returns the final state too.
fn churn_expectations(
    initial: &CsrGraph,
    batches: &[String],
    applied: usize,
) -> Result<(StateBodies, CsrGraph), String> {
    let mut states = Vec::new();
    let mut graph = initial.clone();
    for generation in 0..=applied {
        if generation > 0 {
            let batch =
                DeltaBatch::parse_tsv(&batches[generation - 1]).map_err(|e| e.to_string())?;
            graph = apply_batch(&graph, &batch).map_err(|e| e.to_string())?.0;
        }
        let mut bodies = HashMap::new();
        for method in CHURN_METHODS {
            let method_value = Method::parse(method).expect("known method");
            let run = Pipeline::new(method_value, ThresholdPolicy::TopShare(0.1))
                .run(&graph)
                .map_err(|e| e.to_string())?;
            bodies.insert(
                method,
                summary_body(CHURN_GRAPH, &run.summary_json_stable()),
            );
        }
        states.push(bodies);
    }
    Ok((states, graph))
}

fn read_input(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `serve_churn`: a 100k-node BA graph (~300k edges, 9 MB) uploaded, one
/// cold nc backbone, then PATCH batches beside summary reads.
pub fn serve_churn(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = work_dir("serve_churn")?;
    let spec = format!(
        "ba:n=100000,m=3,w=lognormal(0,1),noise=0.1,seed={}",
        run.seed
    );
    let input = dir.join("input.tsv");
    let (server, body, (nodes, edges, bytes)) = setup(&mut outcome, &dir, || {
        let shape = generate_file(&spec, &input)?;
        let body = read_input(&input)?;
        Ok((bind()?, body, shape))
    })?;
    let addr = server.addr();
    outcome.note(format!(
        "input: {spec} -> {nodes} nodes, {edges} edges, {bytes} bytes"
    ));

    // The reference: what the CLI emits for the same file and query.
    let expected_first = cli_output(&input, "nc", 0.1, "backbone")?;
    let initial = read_edge_list_csr(body.as_slice(), &undirected()).map_err(|e| e.to_string())?;
    let mut off = Tracer::new(Instant::now(), 0, false);
    let (mut uploads, mut firsts) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let upload = client::expect(
            &mut off,
            0,
            addr,
            "POST",
            &format!("/graphs/{CHURN_GRAPH}"),
            &body,
            201,
        );
        outcome.check(upload.map(|reply| uploads.push(reply.total_s)));
        let path = format!("/graphs/{CHURN_GRAPH}/backbone?method=nc&top_share=0.1");
        let first = client::expect(&mut off, 0, addr, "GET", &path, b"", 200);
        outcome.check(first.and_then(|reply| {
            firsts.push(reply.total_s);
            if reply.body == expected_first {
                Ok(())
            } else {
                Err("first nc backbone differs from the CLI's output".to_string())
            }
        }));
    }
    outcome.set("upload_s", median(&uploads));
    outcome.set("first_backbone_ms", median(&firsts) * 1e3);
    outcome.note(format!(
        "upload {:.4} s, first backbone {:.3} ms (medians of {})",
        median(&uploads),
        median(&firsts) * 1e3,
        uploads.len()
    ));
    // Warm the df cache slot so the window starts with both methods cached.
    for method in CHURN_METHODS {
        outcome.check(
            client::expect(
                &mut off,
                0,
                addr,
                "GET",
                &summary_path(CHURN_GRAPH, method),
                b"",
                200,
            )
            .map(drop),
        );
    }

    let batches = churn_batches(&initial, run.seed, 4096);
    let before = scrape(addr)?;
    let epoch = Instant::now();
    let half = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let ((mut samples, _, wall), peaks) =
        stretch_peaks(|| churn_window(addr, &batches, 0, half, false, epoch));
    outcome.set("peak_rss_mib", median(&peaks));
    let untraced_count = samples.len();
    let mut spans = Vec::new();
    if run.trace {
        let applied = samples
            .iter()
            .flatten()
            .filter(|s| s.kind == "patch")
            .count();
        let (traced, traced_spans, _) = churn_window(addr, &batches, applied, half, true, epoch);
        samples.extend(traced);
        spans = traced_spans;
    }
    let after = scrape(addr)?;
    drop(server);

    // Check every response against the state it must reflect.
    let ok: Vec<Sample> = samples
        .into_iter()
        .enumerate()
        .filter_map(|(index, sample)| {
            let traced = index >= untraced_count;
            match sample {
                Ok(sample) => Some((traced, sample)),
                Err(error) => {
                    outcome.check(Err(error));
                    None
                }
            }
        })
        .map(|(traced, mut sample)| {
            // Mark traced samples by their connection id (2, 3).
            if traced {
                sample.conn += 2;
            }
            sample
        })
        .collect();
    let applied = ok.iter().filter(|s| s.kind == "patch").count();
    let (states, final_graph) = churn_expectations(&initial, &batches, applied)?;
    let reachable: HashMap<&str, HashSet<&[u8]>> = CHURN_METHODS
        .iter()
        .map(|&m| (m, states.iter().map(|state| state[m].as_slice()).collect()))
        .collect();
    for sample in ok.iter().filter(|s| s.kind != "patch") {
        let check = if sample.conn % 2 == 0 {
            // The writer reads the state after its own last patch.
            (states[sample.generation][sample.kind.as_str()] == sample.body)
                .then_some(())
                .ok_or_else(|| {
                    format!(
                        "{} summary after batch {} differs",
                        sample.kind, sample.generation
                    )
                })
        } else {
            reachable[sample.kind.as_str()]
                .contains(sample.body.as_slice())
                .then_some(())
                .ok_or_else(|| format!("reader {} summary matches no reachable state", sample.kind))
        };
        outcome.check(check);
    }
    outcome.attempted += ok.iter().filter(|s| s.kind == "patch").count() as u64;

    // Writer cycles: a PATCH and the reads that follow it.
    let untraced: Vec<&Sample> = ok.iter().filter(|s| s.conn < 2).collect();
    let cycles = |samples: &[&Sample]| -> Vec<f64> {
        let mut by_generation: HashMap<usize, f64> = HashMap::new();
        for s in samples
            .iter()
            .filter(|s| s.conn % 2 == 0 && s.generation > 0)
        {
            *by_generation.entry(s.generation).or_insert(0.0) += s.latency_s;
        }
        by_generation.into_values().collect()
    };
    let untraced_cycles = cycles(&untraced);
    outcome.set("run_s", median(&untraced_cycles));
    outcome.set("rps", untraced.len() as f64 / wall);
    let reads: Vec<f64> = untraced
        .iter()
        .filter(|s| s.kind != "patch")
        .map(|s| s.latency_s)
        .collect();
    let patches: Vec<f64> = untraced
        .iter()
        .filter(|s| s.kind == "patch")
        .map(|s| s.latency_s)
        .collect();
    latency_notes(&mut outcome, "read", &reads);
    outcome.set("patch_p50_ms", median(&patches) * 1e3);
    outcome.note(format!(
        "{} writer cycles (run_s {:.4} s), patch p50 {:.3} ms over {} batches, {} requests in {wall:.2} s",
        untraced_cycles.len(),
        median(&untraced_cycles),
        median(&patches) * 1e3,
        patches.len(),
        untraced.len()
    ));
    if !run.trace {
        return Ok(outcome);
    }

    // Per-layer figures.
    let traced: Vec<&Sample> = ok.iter().filter(|s| s.conn >= 2).collect();
    let traced_cycles = cycles(&traced);
    outcome.set(
        "trace.overhead_s",
        median(&traced_cycles) - median(&untraced_cycles),
    );
    outcome.note(format!(
        "tracing overhead: traced cycle {:.4} s vs untraced {:.4} s",
        median(&traced_cycles),
        median(&untraced_cycles)
    ));
    outcome.set(
        "server.http.connect_ms",
        median(&per_request(&spans, "server.http.connect")) * 1e3,
    );
    let window_reads: Vec<f64> = ok
        .iter()
        .filter(|s| s.kind != "patch")
        .map(|s| s.latency_s)
        .collect();
    server_layers(&mut outcome, &before, &after, &window_reads);
    let connects: Vec<f64> = traced.iter().map(|s| s.connect_s).collect();
    outcome.note(format!(
        "client connect p50 {:.4} ms over {}",
        median(&connects) * 1e3,
        connects.len()
    ));

    // Layer calls from outside, each a request of its own in the span file.
    let mut tracer = Tracer::new(epoch, 0, true);
    let (ingested, ingest_s) = tracer.probe("graph.io.ingest", || {
        read_edge_list_csr_file(&input, &undirected())
    });
    let ingested = ingested.map_err(|e| e.to_string())?;
    outcome.set("graph.io.ingest_s", ingest_s);
    outcome.set("graph.io.mb_per_s", bytes as f64 / 1e6 / ingest_s);
    ingest_probes(&mut tracer, &mut outcome, &input, &undirected(), &ingested)?;

    // A read's layers on the final state: score once, then select + build.
    let mut select = Vec::new();
    let mut build = Vec::new();
    for method in CHURN_METHODS {
        let pipeline = Pipeline::new(
            Method::parse(method).expect("known method"),
            ThresholdPolicy::TopShare(0.1),
        );
        let (scored, score_s) = tracer.probe(&format!("core.pipeline.score.{method}"), || {
            pipeline.score(&initial)
        });
        scored.map_err(|e| e.to_string())?;
        outcome.set(&format!("core.pipeline.score_s.{method}"), score_s);
        let scored = pipeline.score(&final_graph).map_err(|e| e.to_string())?;
        for _ in 0..3 {
            let (kept, select_s) = tracer.probe("core.pipeline.select", || {
                pipeline.select(&final_graph, &scored)
            });
            let kept = kept.map_err(|e| e.to_string())?;
            let (backbone, build_s) = tracer.probe("core.pipeline.build", || {
                final_graph.subgraph_with_edges(&kept)
            });
            backbone.map_err(|e| e.to_string())?;
            select.push(select_s);
            build.push(build_s);
            if method == "nc" {
                outcome.set("core.pipeline.kept_edges", kept.len() as f64);
            }
        }
    }
    outcome.set("core.pipeline.select_s", median(&select));
    outcome.set("core.pipeline.build_s", median(&build));
    outcome.set(
        "core.scored.bytes",
        (final_graph.edge_count() * std::mem::size_of::<ScoredEdge>()) as f64,
    );
    let read_ms = outcome.values["read_p50_ms"];
    outcome.note(format!(
        "a summary read (p50 {read_ms:.3} ms): select {:.3} ms ({:.1}%) + build {:.3} ms ({:.1}%)",
        median(&select) * 1e3,
        100.0 * median(&select) * 1e3 / read_ms,
        median(&build) * 1e3,
        100.0 * median(&build) * 1e3 / read_ms
    ));

    churn_patch_layers(&mut tracer, &mut outcome, &initial, &batches[..applied])?;
    spans.extend(tracer.into_spans());
    write_spans(&dir.join("spans.tsv"), &spans)?;
    Ok(outcome)
}

/// The patch path's layers, fed the batches the window applied:
/// `Registry::patch` on an in-process registry with nc and df cached, and
/// the same work split into `DeltaGraph::apply`, `DeltaGraph::to_csr` and
/// `delta_rescore`.
fn churn_patch_layers(
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    initial: &CsrGraph,
    batches: &[String],
) -> Result<(), String> {
    let parsed: Vec<DeltaBatch> = batches
        .iter()
        .map(|text| DeltaBatch::parse_tsv(text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let methods: Vec<Method> = CHURN_METHODS
        .iter()
        .filter_map(|m| Method::parse(m))
        .collect();

    let registry = Registry::new(0);
    let entry = registry.insert(CHURN_GRAPH, initial.clone())?;
    for &method in &methods {
        registry.scored(&entry, method).map_err(|e| e.to_string())?;
    }
    let mut patch = Vec::new();
    for batch in &parsed {
        let (result, took) =
            tracer.probe("server.registry.patch", || registry.patch(&entry, batch));
        result.map_err(|e| e.to_string())?;
        patch.push(took);
    }
    outcome.set("server.registry.patch_s", median(&patch));

    let mut delta = DeltaGraph::from_csr(initial);
    let mut graph = Arc::new(initial.clone());
    let mut scores: Vec<_> = methods
        .iter()
        .map(|&m| m.score_with_threads(initial, 0).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let (mut apply, mut compact, mut rescore) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = 0;
    for batch in &parsed {
        ops += batch.len();
        let (effect, took) = tracer.probe("graph.delta.apply", || delta.apply(batch));
        let effect = effect.map_err(|e| e.to_string())?;
        apply.push(took);
        graph = Arc::new(if effect.structure_changed {
            let (rebuilt, took) = tracer.probe("graph.delta.compact", || delta.to_csr());
            compact.push(took);
            rebuilt.map_err(|e| e.to_string())?
        } else {
            let updates: Vec<(usize, f64)> = effect
                .changed_edges
                .iter()
                .map(|&id| (id, delta.edge_weight(id).expect("changed edge is live")))
                .collect();
            graph
                .with_reweighted_edges(&updates)
                .map_err(|e| e.to_string())?
        });
        let (rescored, took) = tracer.probe("core.delta.rescore", || {
            methods
                .iter()
                .zip(&scores)
                .map(|(&method, previous)| delta_rescore(method, &graph, previous, &effect, 0))
                .collect::<Result<Vec<_>, _>>()
        });
        scores = rescored.map_err(|e| e.to_string())?;
        rescore.push(took);
    }
    outcome.set("graph.delta.apply_s", median(&apply));
    outcome.set("graph.delta.compact_s", median(&compact));
    outcome.set("graph.delta.compactions", compact.len() as f64);
    outcome.set("core.delta.rescore_s", median(&rescore));
    outcome.set("core.delta.ops", ops as f64);
    outcome.note(format!(
        "{} batches, {ops} ops, {} compactions: registry patch {:.3} ms, apply {:.3} ms, compact {:.3} ms, rescore nc+df {:.3} ms (medians)",
        parsed.len(),
        compact.len(),
        median(&patch) * 1e3,
        median(&apply) * 1e3,
        median(&compact) * 1e3,
        median(&rescore) * 1e3
    ));
    Ok(())
}

const POLL_GRAPHS: usize = 8;
const POLL_METHODS: [&str; 5] = ["nc", "df", "naive", "mst", "hss-approx"];
const POLL_POPULARITY: [f64; 5] = [60.0, 20.0, 12.0, 6.0, 2.0];
const POLL_SHARES: [f64; 3] = [0.05, 0.1, 0.2];

/// `serve_poll`: eight small community graphs polled for backbones with
/// skewed method popularity, so rare hss-approx requests evict cache slots.
pub fn serve_poll(run: &Run) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let dir = work_dir("serve_poll")?;
    let specs: Vec<String> = (0..POLL_GRAPHS as u64)
        .map(|i| {
            format!(
                "sb:n=2000,b=8,pin=0.02,pout=0.0008,w=lognormal(0,1),noise=0.1,seed={}",
                derive_seed(run.seed, i)
            )
        })
        .collect();
    let inputs: Vec<PathBuf> = (0..POLL_GRAPHS)
        .map(|i| dir.join(format!("g{i}.tsv")))
        .collect();
    let mut uploads = Vec::new();
    let mut off = Tracer::new(Instant::now(), 0, false);
    let (server, shapes) = setup(&mut outcome, &dir, || {
        let server = bind()?;
        let mut shapes = Vec::new();
        for (i, (spec, input)) in specs.iter().zip(&inputs).enumerate() {
            shapes.push(generate_file(spec, input)?);
            let body = read_input(input)?;
            let reply = client::expect(
                &mut off,
                0,
                server.addr(),
                "POST",
                &format!("/graphs/g{i}"),
                &body,
                201,
            )?;
            uploads.push(reply.total_s);
        }
        Ok((server, shapes))
    })?;
    let addr = server.addr();
    for (spec, (nodes, edges, bytes)) in specs.iter().zip(&shapes) {
        outcome.note(format!(
            "input: {spec} -> {nodes} nodes, {edges} edges, {bytes} bytes"
        ));
    }
    outcome.set("upload_s", median(&uploads));

    // Every (graph, method, share) body, as the CLI emits it.
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    for (i, input) in inputs.iter().enumerate() {
        for method in POLL_METHODS {
            for share in POLL_SHARES {
                expected.insert(
                    poll_path(i, method, share),
                    cli_output(input, method, share, "backbone")?,
                );
            }
        }
    }

    let before = scrape(addr)?;
    let epoch = Instant::now();
    let half = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let poll = |traced: bool, stream: u64| {
        let expected = &expected;
        two_connections(half, traced, epoch, move |conn, tracer, stop, seconds| {
            let mut rng = Rng::new(derive_seed(run.seed, 100 + 2 * stream + conn as u64));
            let start = Instant::now();
            let mut samples = Vec::new();
            let mut request = (conn as u64) << 32;
            while secs(start.elapsed()) < seconds && !stop.load(Ordering::SeqCst) {
                request += 1;
                let method = POLL_METHODS[rng.weighted(&POLL_POPULARITY)];
                let path = poll_path(
                    rng.below(POLL_GRAPHS),
                    method,
                    POLL_SHARES[rng.below(POLL_SHARES.len())],
                );
                let reply = client::expect(tracer, request, addr, "GET", &path, b"", 200);
                samples.push(reply.and_then(|reply| {
                    if reply.body == expected[&path] {
                        Ok(sample(
                            conn,
                            method,
                            0,
                            Reply {
                                body: Vec::new(),
                                ..reply
                            },
                        ))
                    } else {
                        Err(format!("{path}: body differs from the CLI's output"))
                    }
                }));
            }
            samples
        })
    };
    let ((untraced, _, wall), peaks) = stretch_peaks(|| poll(false, 0));
    outcome.set("peak_rss_mib", median(&peaks));
    let (traced, spans) = if run.trace {
        let (traced, spans, _) = poll(true, 1);
        (traced, spans)
    } else {
        (Vec::new(), Vec::new())
    };
    let after = scrape(addr)?;
    drop(server);

    let latencies = |samples: Samples, outcome: &mut Outcome| -> Vec<f64> {
        let mut latencies = Vec::new();
        for sample in samples {
            outcome.check(sample.map(|s| latencies.push(s.latency_s)));
        }
        latencies
    };
    let untraced = latencies(untraced, &mut outcome);
    let traced = latencies(traced, &mut outcome);
    outcome.set("run_s", median(&untraced));
    outcome.set("rps", untraced.len() as f64 / wall);
    latency_notes(&mut outcome, "read", &untraced);
    outcome.note(format!(
        "{} GETs in {wall:.2} s; upload p50 {:.4} s over {}",
        untraced.len(),
        median(&uploads),
        uploads.len()
    ));
    if !run.trace {
        return Ok(outcome);
    }

    outcome.set("trace.overhead_s", median(&traced) - median(&untraced));
    outcome.note(format!(
        "tracing overhead: traced GET {:.4} ms vs untraced {:.4} ms",
        median(&traced) * 1e3,
        median(&untraced) * 1e3
    ));
    outcome.set(
        "server.http.connect_ms",
        median(&per_request(&spans, "server.http.connect")) * 1e3,
    );
    let all: Vec<f64> = untraced.iter().chain(&traced).copied().collect();
    server_layers(&mut outcome, &before, &after, &all);

    // Layer calls over the same eight inputs, each a request of its own in
    // the span file; medians across graphs.
    let mut tracer = Tracer::new(epoch, 0, true);
    let mut figures: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut record = |metric, value| figures.entry(metric).or_default().push(value);
    let mut first = None;
    for (input, (_, _, bytes)) in inputs.iter().zip(&shapes) {
        let (graph, ingest_s) = tracer.probe("graph.io.ingest", || {
            read_edge_list_csr_file(input, &undirected())
        });
        let graph = graph.map_err(|e| e.to_string())?;
        record("graph.io.ingest_s", ingest_s);
        record("graph.io.mb_per_s", *bytes as f64 / 1e6 / ingest_s);
        for (method, metric) in [
            ("nc", "core.pipeline.score_s.nc"),
            ("df", "core.pipeline.score_s.df"),
            ("hss-approx", "core.pipeline.score_s.hss-approx"),
        ] {
            let pipeline = Pipeline::new(
                Method::parse(method).expect("known method"),
                ThresholdPolicy::TopShare(0.1),
            );
            let (scored, score_s) = tracer.probe(&format!("core.pipeline.score.{method}"), || {
                pipeline.score(&graph)
            });
            let scored = scored.map_err(|e| e.to_string())?;
            record(metric, score_s);
            if method == "nc" {
                let (kept, select_s) =
                    tracer.probe("core.pipeline.select", || pipeline.select(&graph, &scored));
                let kept = kept.map_err(|e| e.to_string())?;
                let (backbone, build_s) =
                    tracer.probe("core.pipeline.build", || graph.subgraph_with_edges(&kept));
                let backbone = backbone.map_err(|e| e.to_string())?;
                let mut sink = Vec::new();
                let (written, serialize_s) = tracer.probe("core.pipeline.serialize", || {
                    backboning_graph::io::write_edge_list(&backbone, &mut sink)
                });
                written.map_err(|e| e.to_string())?;
                record("core.pipeline.select_s", select_s);
                record("core.pipeline.build_s", build_s);
                record("core.pipeline.serialize_s", serialize_s);
                record("core.pipeline.kept_edges", kept.len() as f64);
                record(
                    "core.scored.bytes",
                    (scored.len() * std::mem::size_of::<ScoredEdge>()) as f64,
                );
            }
        }
        first.get_or_insert((input.clone(), graph));
    }
    for (metric, values) in &figures {
        outcome.set(metric, median(values));
    }
    let (input, graph) = first.expect("eight graphs");
    ingest_probes(&mut tracer, &mut outcome, &input, &undirected(), &graph)?;
    let mut all_spans = spans;
    all_spans.extend(tracer.into_spans());
    write_spans(&dir.join("spans.tsv"), &all_spans)?;
    Ok(outcome)
}

fn poll_path(graph: usize, method: &str, share: f64) -> String {
    format!("/graphs/g{graph}/backbone?method={method}&top_share={share}")
}
