//! Quickstart: extract the Noise-Corrected backbone of a small noisy network.
//!
//! ```text
//! cargo run -p backboning-bench --example quickstart
//! ```

use backboning::{BackboneExtractor, DisparityFilter, NoiseCorrected, DELTA_P05};
use backboning_graph::GraphBuilder;

fn main() {
    // A tiny "hairball": a hub connected to everything plus one genuine
    // peripheral relationship (the Figure 3 toy example of the paper).
    let graph = GraphBuilder::undirected()
        .edge("hub", "alice", 20.0)
        .edge("hub", "bob", 20.0)
        .edge("hub", "carol", 20.0)
        .edge("hub", "dave", 20.0)
        .edge("hub", "erin", 20.0)
        .edge("alice", "bob", 10.0)
        .build()
        .expect("valid graph");

    println!(
        "original network: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // Score every edge with the Noise-Corrected backbone. The score is the
    // number of standard deviations by which the edge exceeds its null-model
    // expectation, so filtering at DELTA_P05 ≈ 1.64 keeps edges significant at
    // roughly p < 0.05.
    let nc = NoiseCorrected::default();
    let scored = nc.score(&graph).expect("NC scores any weighted graph");
    println!("\nedge scores (standard deviations above the expectation):");
    for edge in scored.rows(&graph) {
        println!(
            "  {:>5} - {:<5}  weight {:>5.1}   score {:>7.2}",
            graph.label(edge.source).unwrap_or("?"),
            graph.label(edge.target).unwrap_or("?"),
            edge.weight,
            edge.score
        );
    }

    let backbone = graph
        .subgraph_with_edges(&scored.filter(DELTA_P05))
        .expect("threshold filtering");
    println!(
        "\nNoise-Corrected backbone at delta = {DELTA_P05}: {} of {} edges kept",
        backbone.edge_count(),
        graph.edge_count()
    );
    for edge in backbone.edges() {
        println!(
            "  kept {} - {}",
            backbone.label(edge.source).unwrap_or("?"),
            backbone.label(edge.target).unwrap_or("?")
        );
    }

    // Compare with the Disparity Filter at the same backbone size.
    let df_scored = DisparityFilter::new()
        .score(&graph)
        .expect("DF scores any weighted graph");
    let df_backbone = graph
        .subgraph_with_edges(&df_scored.top_k(&graph, backbone.edge_count()))
        .expect("top-k filtering");
    println!("\nDisparity Filter backbone of the same size keeps:");
    for edge in df_backbone.edges() {
        println!(
            "  kept {} - {}",
            df_backbone.label(edge.source).unwrap_or("?"),
            df_backbone.label(edge.target).unwrap_or("?")
        );
    }
    println!("\nNote how NC favours the alice-bob edge while DF favours the hub's spokes.");
}
