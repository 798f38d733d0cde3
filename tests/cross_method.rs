//! Workspace integration and property tests comparing the backboning methods
//! against each other on shared invariants.

use proptest::prelude::*;

use backboning::{BackboneExtractor, DisparityFilter, NaiveThreshold, NoiseCorrected};
use backboning_data::noisy_barabasi_albert;
use backboning_eval::metrics::jaccard_index;
use backboning_eval::Method;
use backboning_graph::{Direction, WeightedGraph};

#[test]
fn statistical_methods_beat_random_selection_on_noisy_synthetic_data() {
    let network = noisy_barabasi_albert(150, 3, 0.25, 11).unwrap();
    let true_edges = network.true_edge_indices();
    let k = network.true_edge_count;

    // A "random" baseline: take the first k edges in insertion order (insertion
    // order interleaves true and noise edges deterministically).
    let arbitrary: Vec<usize> = (0..k).collect();
    let arbitrary_recovery = jaccard_index(&arbitrary, &true_edges);

    for method in [
        Method::NoiseCorrected,
        Method::DisparityFilter,
        Method::NaiveThreshold,
    ] {
        let recovered = method.edge_set(&network.graph, k).unwrap();
        let recovery = jaccard_index(&recovered, &true_edges);
        assert!(
            recovery > arbitrary_recovery,
            "{} recovery {recovery} does not beat the arbitrary baseline {arbitrary_recovery}",
            method.short_name()
        );
    }
}

#[test]
fn noise_corrected_is_most_noise_resilient_on_average() {
    // The Figure 4 headline: averaged over noise levels, NC recovers at least
    // as much of the true network as DF and NT.
    let mut totals = [0.0f64; 3]; // NC, DF, NT
    let noise_levels = [0.1, 0.2, 0.3];
    for (run, &eta) in noise_levels.iter().enumerate() {
        let network = noisy_barabasi_albert(150, 3, eta, 100 + run as u64).unwrap();
        let truth = network.true_edge_indices();
        let k = network.true_edge_count;
        for (slot, method) in [
            Method::NoiseCorrected,
            Method::DisparityFilter,
            Method::NaiveThreshold,
        ]
        .iter()
        .enumerate()
        {
            let recovered = method.edge_set(&network.graph, k).unwrap();
            totals[slot] += jaccard_index(&recovered, &truth);
        }
    }
    assert!(
        totals[0] >= totals[1] - 1e-9,
        "NC ({}) should not trail DF ({})",
        totals[0],
        totals[1]
    );
    assert!(
        totals[0] >= totals[2] - 1e-9,
        "NC ({}) should not trail NT ({})",
        totals[0],
        totals[2]
    );
}

/// Strategy: a random small directed weighted graph as an edge list.
fn arbitrary_graph() -> impl Strategy<Value = WeightedGraph> {
    proptest::collection::vec(((0usize..12), (0usize..12), 0.1f64..100.0), 1..60).prop_map(
        |edges| {
            let mut graph = WeightedGraph::with_nodes(Direction::Directed, 12);
            for (source, target, weight) in edges {
                if source != target {
                    graph.add_edge(source, target, weight).unwrap();
                }
            }
            graph
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every method scores every edge exactly once, and thresholding never
    /// invents edges that were not in the original graph.
    #[test]
    fn scoring_covers_all_edges_and_filtering_is_a_subset(graph in arbitrary_graph()) {
        let extractors: Vec<Box<dyn BackboneExtractor>> = vec![
            Box::new(NoiseCorrected::default()),
            Box::new(DisparityFilter::new()),
            Box::new(NaiveThreshold::new()),
        ];
        for extractor in &extractors {
            let scored = extractor.score(&graph).unwrap();
            prop_assert_eq!(scored.len(), graph.edge_count());
            let kept = scored.top_k(&graph, graph.edge_count() / 2);
            prop_assert!(kept.len() <= graph.edge_count());
            for index in kept {
                prop_assert!(graph.edge(index).is_some());
            }
        }
    }

    /// The Noise-Corrected score threshold is monotone: raising delta never
    /// keeps more edges.
    #[test]
    fn nc_threshold_is_monotone(graph in arbitrary_graph()) {
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let relaxed = scored.filter(0.5).len();
        let medium = scored.filter(1.28).len();
        let strict = scored.filter(2.32).len();
        prop_assert!(relaxed >= medium);
        prop_assert!(medium >= strict);
    }

    /// Scaling all edge weights by a constant leaves the NC and DF rankings
    /// unchanged (both null models are share-based).
    #[test]
    fn rankings_are_scale_invariant(graph in arbitrary_graph(), factor in 2.0f64..50.0) {
        let mut scaled = WeightedGraph::with_nodes(Direction::Directed, graph.node_count());
        for edge in graph.edges() {
            scaled.add_edge(edge.source, edge.target, edge.weight * factor).unwrap();
        }
        if graph.edge_count() >= 4 {
            let k = graph.edge_count() / 2;
            for method in [Method::NoiseCorrected, Method::DisparityFilter] {
                let original: std::collections::HashSet<usize> =
                    method.edge_set(&graph, k).unwrap().into_iter().collect();
                let rescaled: std::collections::HashSet<usize> =
                    method.edge_set(&scaled, k).unwrap().into_iter().collect();
                // Allow at most one edge of slack for ties at the cut point.
                let overlap = original.intersection(&rescaled).count();
                prop_assert!(overlap + 1 >= k, "{}: overlap {overlap} of {k}", method.short_name());
            }
        }
    }
}
