//! Workspace integration test: a full end-to-end pipeline on synthetic country
//! data — generate, backbone, evaluate topology/quality/stability, and analyse
//! communities — across all crates.

use backboning_data::{
    CountryData, CountryDataConfig, CountryNetworkKind, OccupationData, OccupationDataConfig,
};
use backboning_eval::metrics::{coverage, quality_ratio, stability};
use backboning_eval::Method;
use backboning_netsci::community::label_propagation;
use backboning_netsci::{modularity, Partition};

fn small_country_data() -> CountryData {
    CountryData::generate(&CountryDataConfig::small())
}

#[test]
fn noise_corrected_pipeline_on_the_trade_network() {
    let data = small_country_data();
    let kind = CountryNetworkKind::Trade;
    let year0 = data.network(kind, 0);
    let year1 = data.network(kind, 1);

    let target = year0.edge_count() / 5;
    let edges = Method::NoiseCorrected.edge_set(year0, target).unwrap();
    assert_eq!(edges.len(), target);

    // Topology: dropping 80% of the edges must not destroy the node set.
    let coverage_value = coverage(year0, &edges);
    assert!(coverage_value > 0.5, "coverage {coverage_value} too low");

    // Quality: the backbone should explain the gravity model at least as well
    // as the full network (the Table II criterion), within a small tolerance.
    let quality = quality_ratio(&data, kind, year0, &edges).unwrap();
    assert!(quality > 0.9, "quality {quality} unexpectedly low");

    // Stability: the retained edges must be strongly correlated across years.
    let stability_value = stability(&edges, year0, year1).unwrap();
    assert!(stability_value > 0.6, "stability {stability_value} too low");
}

#[test]
fn all_methods_run_end_to_end_on_a_country_network() {
    let data = small_country_data();
    let graph = data.network(CountryNetworkKind::Flight, 0);
    let target = graph.edge_count() / 10;
    for method in Method::all() {
        match method.edge_set(graph, target) {
            Ok(edges) => {
                assert!(
                    !edges.is_empty(),
                    "{} returned an empty backbone",
                    method.short_name()
                );
                let backbone = graph.subgraph_with_edges(&edges).unwrap();
                assert_eq!(backbone.node_count(), graph.node_count());
            }
            Err(_) => {
                // Only the Doubly-Stochastic method may legitimately fail
                // (no feasible scaling), mirroring the "n/a" of the paper.
                assert_eq!(
                    method,
                    Method::DoublyStochastic,
                    "{} failed unexpectedly",
                    method.short_name()
                );
            }
        }
    }
}

#[test]
fn backboning_sharpens_community_structure_in_the_occupation_data() {
    let data = OccupationData::generate(&OccupationDataConfig::small());
    let classification = Partition::from_labels(data.major_group.clone());

    let full_modularity = modularity(&data.co_occurrence, &classification);
    let target = data.co_occurrence.edge_count() / 7;
    let nc_edges = Method::NoiseCorrected
        .edge_set(&data.co_occurrence, target)
        .unwrap();
    let backbone = data.co_occurrence.subgraph_with_edges(&nc_edges).unwrap();
    let backbone_modularity = modularity(&backbone, &classification);
    assert!(
        backbone_modularity > full_modularity,
        "backbone modularity {backbone_modularity} should exceed the hairball's {full_modularity}"
    );

    // Detected communities on the backbone should correlate with the
    // classification at least somewhat.
    let detected = label_propagation(&backbone, 3, 100);
    assert!(detected.community_count() > 1);
}

#[test]
fn quality_and_stability_are_defined_for_every_network_kind() {
    let data = small_country_data();
    for kind in CountryNetworkKind::all() {
        let graph = data.network(kind, 0);
        let target = (graph.edge_count() / 5).max(20);
        let edges = Method::NoiseCorrected.edge_set(graph, target).unwrap();
        let quality = quality_ratio(&data, kind, graph, &edges).unwrap();
        assert!(
            quality.is_finite() && quality > 0.0,
            "{}: quality {quality}",
            kind.name()
        );
        let stability_value = stability(&edges, graph, data.network(kind, 1)).unwrap();
        assert!(
            stability_value > 0.3,
            "{}: stability {stability_value} too low",
            kind.name()
        );
    }
}
