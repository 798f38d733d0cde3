//! Coverage: the Topology criterion (Figure 7).

use backboning_graph::GraphView;

/// Coverage of the backbone made of `original`'s `kept` edges: the share of
/// the original network's non-isolated nodes that keep at least one edge in
/// the backbone,
///
/// ```text
/// Coverage = (|V| − |I_backbone|) / (|V| − |I_original|)
/// ```
///
/// Returns 1 for an original network without any non-isolated node (nothing
/// can be lost). Counted with one node bitmap; no subgraph is built.
///
/// # Panics
///
/// When a kept edge id is not an edge of `original`.
pub fn coverage<G: GraphView>(original: &G, kept: &[usize]) -> f64 {
    backboning::pipeline::coverage(original, kept)
        .expect("kept edges must belong to the original network")
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{Direction, WeightedGraph};

    fn original() -> WeightedGraph {
        WeightedGraph::from_edges(
            Direction::Undirected,
            5,
            vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)],
        )
        .unwrap()
    }

    #[test]
    fn full_backbone_has_full_coverage() {
        assert_eq!(coverage(&original(), &[0, 1, 2]), 1.0);
    }

    #[test]
    fn dropping_a_nodes_last_edge_reduces_coverage() {
        // Keep only edges 1 and 2: node 0 becomes isolated (3 of 4 connected nodes remain).
        assert!((coverage(&original(), &[1, 2]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn already_isolated_nodes_do_not_count() {
        // Node 4 is isolated in the original; edge 0 keeps nodes 0 and 1.
        assert!((coverage(&original(), &[0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_backbone_has_zero_coverage() {
        assert_eq!(coverage(&original(), &[]), 0.0);
    }

    #[test]
    fn edgeless_original_network() {
        let graph = WeightedGraph::with_nodes(Direction::Undirected, 3);
        assert_eq!(coverage(&graph, &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "belong to the original network")]
    fn foreign_edge_ids_panic() {
        coverage(&original(), &[7]);
    }
}
