//! Property tests for the core scoring invariants.

use proptest::prelude::*;

use backboning::{BackboneExtractor, NoiseCorrected};
use backboning_graph::{Direction, WeightedGraph};

/// Strategy: a small random directed weighted graph, possibly with repeated
/// (accumulated) edges and zero-ish weights.
fn small_graph() -> impl Strategy<Value = WeightedGraph> {
    proptest::collection::vec(((0usize..10), (0usize..10), 0.05f64..50.0), 1..50).prop_map(
        |edges| {
            let mut graph = WeightedGraph::with_nodes(Direction::Directed, 10);
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Raising the NC significance threshold δ never grows the backbone.
    #[test]
    fn raising_delta_never_grows_the_backbone(graph in small_graph()) {
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let deltas = [-1.0, 0.0, 0.5, 1.28, 1.64, 2.32, 5.0];
        let mut previous = usize::MAX;
        for delta in deltas {
            let kept = scored.filter(delta).len();
            prop_assert!(
                kept <= previous,
                "delta {} kept {} edges, more than the looser threshold's {}",
                delta, kept, previous
            );
            previous = kept;
        }
    }

    /// `top_k` returns exactly k edges whenever the graph has at least k,
    /// and all of them whenever it has fewer.
    #[test]
    fn top_k_returns_exactly_k_when_available(graph in small_graph(), k in 0usize..60) {
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let kept = scored.top_k(&graph, k);
        prop_assert_eq!(kept.len(), k.min(graph.edge_count()));
        // And every returned index refers to a real edge, with no duplicates.
        let unique: std::collections::HashSet<usize> = kept.iter().copied().collect();
        prop_assert_eq!(unique.len(), kept.len());
        for index in kept {
            prop_assert!(graph.edge(index).is_some());
        }
    }

    /// The δ-threshold rule and the score-ranked selection are consistent:
    /// filtering at the k-th best score keeps at least k edges.
    #[test]
    fn threshold_for_count_is_consistent_with_filter(graph in small_graph()) {
        let scored = NoiseCorrected::default().score(&graph).unwrap();
        let k = graph.edge_count() / 2;
        if let Some(threshold) = scored.threshold_for_count(k) {
            let kept = scored.filter(threshold).len();
            prop_assert!(
                kept >= k,
                "filter({}) kept only {} of the {} requested edges",
                threshold, kept, k
            );
        }
    }
}
