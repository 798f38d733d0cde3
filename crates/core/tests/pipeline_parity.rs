//! Thread-parity property tests for the [`backboning::Pipeline`], extending
//! the `parallel_parity` harness to the full score → select → backbone flow:
//! the kept edge set must be **bit-identical** at 1, 2 and 4 worker threads
//! for every method and every threshold policy. A run's backbone is a view
//! over the input graph, so the view's bytes and coverage are also pinned
//! against the materialised subgraph of the kept edges.

use proptest::prelude::*;

use backboning::{Method, Pipeline, ThresholdPolicy};
use backboning_graph::io::write_edge_list;
use backboning_graph::{CsrGraph, Direction, WeightedGraph};

/// Strategy: a small random weighted graph of either direction, possibly with
/// accumulated duplicate edges, isolated nodes and weak weights (the same
/// shape as the `parallel_parity` scoring harness).
fn random_graph() -> impl Strategy<Value = WeightedGraph> {
    (
        proptest::collection::vec(((0usize..12), (0usize..12), 0.05f64..50.0), 1..80),
        0usize..2,
    )
        .prop_map(|(edges, directed)| {
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut graph = WeightedGraph::with_nodes(direction, 12);
            for (source, target, weight) in edges {
                if source != target {
                    graph.add_edge(source, target, weight).unwrap();
                }
            }
            graph
        })
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn policies() -> [ThresholdPolicy; 4] {
    [
        ThresholdPolicy::Score(0.5),
        ThresholdPolicy::TopK(7),
        ThresholdPolicy::TopShare(0.4),
        ThresholdPolicy::Coverage(0.8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every method × policy keeps exactly the same edge set at every thread
    /// count (Doubly Stochastic may fail when no scaling exists — then it
    /// must fail at every thread count).
    #[test]
    fn pipeline_edge_sets_are_thread_count_invariant(graph in random_graph()) {
        for method in Method::every() {
            for policy in policies() {
                let reference = Pipeline::new(method, policy)
                    .with_threads(1)
                    .edge_set(&graph);
                for threads in THREAD_COUNTS {
                    let result = Pipeline::new(method, policy)
                        .with_threads(threads)
                        .edge_set(&graph);
                    match (&reference, &result) {
                        (Ok(expected), Ok(got)) => {
                            prop_assert!(
                                expected == got,
                                "{} × {} differs at {} threads",
                                method,
                                policy,
                                threads
                            );
                        }
                        (Err(_), Err(_)) => {
                            // Only DS may fail (no feasible scaling).
                            prop_assert!(method == Method::DoublyStochastic);
                        }
                        _ => prop_assert!(
                            false,
                            "{} × {}: success at 1 thread but not at {}",
                            method,
                            policy,
                            threads
                        ),
                    }
                }
            }
        }
    }

    /// The full run is deterministic: two identical runs produce the same
    /// scores, kept set and backbone (wall time aside).
    #[test]
    fn pipeline_runs_are_reproducible(graph in random_graph()) {
        for method in [Method::NoiseCorrected, Method::DisparityFilter, Method::NaiveThreshold] {
            let policy = ThresholdPolicy::TopShare(0.5);
            let first = Pipeline::new(method, policy).run(&graph).unwrap();
            let second = Pipeline::new(method, policy).run(&graph).unwrap();
            prop_assert_eq!(&first.scored, &second.scored);
            prop_assert_eq!(&first.kept, &second.kept);
            prop_assert_eq!(first.nodes_covered, second.nodes_covered);
            prop_assert!((first.coverage - second.coverage).abs() < 1e-15);
        }
    }

    /// The kept-edge view writes exactly the bytes of the materialised
    /// backbone, for directed and undirected, labeled and unlabeled graphs
    /// with self-loops, under every method and policy; its node coverage is
    /// the subgraph's non-isolated node count; and every score row carries
    /// its edge's endpoints and weight.
    #[test]
    fn backbone_view_matches_the_materialised_subgraph(graph in view_graph()) {
        for method in Method::every() {
            for policy in policies() {
                let Ok(run) = Pipeline::new(method, policy).with_threads(1).run(&graph) else {
                    // Only DS may fail (no feasible scaling).
                    prop_assert!(method == Method::DoublyStochastic);
                    continue;
                };
                let mut view = Vec::new();
                run.write_backbone(&graph, &mut view).unwrap();
                let subgraph = graph.subgraph_with_edges(&run.kept).unwrap();
                let mut materialised = Vec::new();
                write_edge_list(&subgraph, &mut materialised).unwrap();
                prop_assert!(view == materialised, "{} × {}: view bytes differ", method, policy);
                prop_assert_eq!(run.nodes_covered, subgraph.non_isolated_node_count());
                for (i, row) in run.scored.rows(&graph).enumerate() {
                    let edge = graph.edge(i).unwrap();
                    prop_assert_eq!((row.edge_index, row.source, row.target), (i, edge.source, edge.target));
                    prop_assert_eq!(row.weight.to_bits(), edge.weight.to_bits());
                }
            }
        }
    }
}

/// Strategy: a small compact graph of either direction, labeled or
/// unlabeled, with self-loops allowed.
fn view_graph() -> impl Strategy<Value = CsrGraph> {
    (
        proptest::collection::vec(((0usize..10), (0usize..10), 0.05f64..50.0), 1..50),
        0usize..2,
        0usize..2,
    )
        .prop_map(|(edges, directed, labeled)| {
            let direction = [Direction::Directed, Direction::Undirected][directed];
            let graph = if labeled == 1 {
                let triples = edges
                    .into_iter()
                    .map(|(s, t, w)| (format!("n{s}"), format!("n{t}"), w));
                WeightedGraph::from_labeled_edges(direction, triples).unwrap()
            } else {
                WeightedGraph::from_edges(direction, 10, edges).unwrap()
            };
            CsrGraph::from_graph(&graph).unwrap()
        })
}
