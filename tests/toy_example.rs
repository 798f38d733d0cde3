//! Workspace integration test: the Figure 3 toy example, exercised through
//! the public APIs of the graph, backboning and eval crates together.

use backboning::{
    BackboneExtractor, DisparityFilter, HighSalienceSkeleton, MaximumSpanningTree, NaiveThreshold,
    NoiseCorrected,
};
use backboning_eval::experiments::fig3;
use backboning_graph::GraphBuilder;

#[test]
fn figure3_toy_example_reproduces_the_papers_contrast() {
    let result = fig3::run();
    let index_of = |a: usize, b: usize| {
        result
            .edges
            .iter()
            .position(|&(s, t, _)| (s, t) == (a, b) || (s, t) == (b, a))
            .expect("edge present in the toy graph")
    };
    let peripheral = index_of(1, 2);
    for hub_target in [1usize, 2usize] {
        let hub_edge = index_of(0, hub_target);
        assert!(
            result.nc_scores[peripheral] > result.nc_scores[hub_edge],
            "NC must rank the peripheral edge above the hub edge to node {hub_target}"
        );
        assert!(
            result.df_scores[hub_edge] >= result.df_scores[peripheral],
            "DF must keep the hub edge to node {hub_target}"
        );
    }
}

#[test]
fn every_method_scores_the_toy_graph_consistently() {
    let graph = fig3::toy_graph();
    let extractors: Vec<Box<dyn BackboneExtractor>> = vec![
        Box::new(NoiseCorrected::default()),
        Box::new(DisparityFilter::new()),
        Box::new(HighSalienceSkeleton::new()),
        Box::new(MaximumSpanningTree::new()),
        Box::new(NaiveThreshold::new()),
    ];
    for extractor in &extractors {
        let scored = extractor
            .score(&graph)
            .expect("method applies to the toy graph");
        assert_eq!(scored.len(), graph.edge_count(), "{}", extractor.name());
        // Selecting every edge reproduces the original edge count; selecting the
        // top half produces a strictly smaller backbone with the same node set.
        let all = graph
            .subgraph_with_edges(&scored.top_k(&graph, graph.edge_count()))
            .unwrap();
        assert_eq!(all.edge_count(), graph.edge_count());
        let half = graph
            .subgraph_with_edges(&scored.top_k(&graph, graph.edge_count() / 2))
            .unwrap();
        assert_eq!(half.edge_count(), graph.edge_count() / 2);
        assert_eq!(half.node_count(), graph.node_count());
    }
}

#[test]
fn labels_survive_backbone_extraction() {
    let graph = GraphBuilder::undirected()
        .edge("hub", "a", 20.0)
        .edge("hub", "b", 20.0)
        .edge("hub", "c", 20.0)
        .edge("a", "b", 10.0)
        .build()
        .unwrap();
    let scored = NoiseCorrected::default().score(&graph).unwrap();
    let backbone = graph.subgraph_with_edges(&scored.top_k(&graph, 2)).unwrap();
    assert_eq!(backbone.node_count(), graph.node_count());
    assert!(backbone.node_by_label("hub").is_some());
    assert!(backbone.node_by_label("a").is_some());
}
