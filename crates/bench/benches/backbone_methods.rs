//! Criterion micro-benchmarks of the six backboning methods on a common
//! country-network workload (supports the Figure 9 method-ordering claim:
//! NC ≈ NT ≈ DF, HSS and DS far slower).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use backboning::{BackboneExtractor, HighSalienceSkeleton};
use backboning_data::{CountryData, CountryDataConfig, CountryNetworkKind};
use backboning_eval::Method;
use backboning_graph::generators::barabasi_albert;

fn backbone_methods(criterion: &mut Criterion) {
    let data = CountryData::generate(&CountryDataConfig {
        country_count: 80,
        years: 1,
        ..CountryDataConfig::default()
    });
    let graph = data.network(CountryNetworkKind::Trade, 0);

    let mut group = criterion.benchmark_group("backbone_methods/trade_network");
    group.sample_size(10);
    for method in Method::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.short_name()),
            &method,
            |bencher, method| {
                bencher.iter(|| {
                    // DS may legitimately fail (no doubly-stochastic scaling); the
                    // benchmark measures the attempt either way.
                    let _ = black_box(method.score(black_box(graph)));
                });
            },
        );
    }
    group.finish();
}

/// End-to-end High Salience Skeleton extraction on a BA substrate: the seed
/// adjacency path vs the parallel CSR engine, plus the full score-and-prune
/// pipeline (the perf-trajectory companion of `bench_snapshot`).
fn hss_end_to_end(criterion: &mut Criterion) {
    let graph = barabasi_albert(500, 3, 7).expect("valid BA parameters");
    let hss = HighSalienceSkeleton::new();

    let mut group = criterion.benchmark_group("hss_end_to_end/ba_500");
    group.sample_size(10);
    group.bench_function("seed_adjacency_path", |bencher| {
        bencher.iter(|| black_box(hss.score_adjacency_reference(black_box(&graph))));
    });
    group.bench_function("csr_engine_auto_threads", |bencher| {
        bencher.iter(|| black_box(hss.score_with_threads(black_box(&graph), 0)));
    });
    group.bench_function("extract_top_quarter", |bencher| {
        let k = graph.edge_count() / 4;
        bencher.iter(|| {
            let scored = hss.score(black_box(&graph)).expect("HSS scores a BA graph");
            black_box(graph.subgraph_with_edges(&scored.top_k(&graph, k)))
        });
    });
    group.finish();
}

criterion_group!(benches, backbone_methods, hss_end_to_end);
criterion_main!(benches);
