//! Figure 3: the toy example contrasting the Noise-Corrected backbone and the
//! Disparity Filter.
//!
//! A hub (node 1 of the paper's figure) is connected to five nodes; two of the
//! peripheral nodes are also connected to each other by a weaker edge. The
//! Disparity Filter keeps the hub's edges towards that pair (from the pair's
//! perspective they carry most of the strength), while the Noise-Corrected
//! backbone considers the peripheral–peripheral edge the real surprise.

use backboning::{BackboneExtractor, DisparityFilter, NoiseCorrected};
use backboning_graph::{GraphBuilder, WeightedGraph};

use crate::report::{fmt3, TextTable};

/// The scores of every toy-example edge under both methods.
#[derive(Debug, Clone)]
pub struct ToyExampleResult {
    /// Edge endpoints (hub = node 0, connected peripheral pair = nodes 1 and 2).
    pub edges: Vec<(usize, usize, f64)>,
    /// NC score (standard deviations above the null) per edge.
    pub nc_scores: Vec<f64>,
    /// Disparity Filter score (1 − α) per edge.
    pub df_scores: Vec<f64>,
}

impl ToyExampleResult {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["edge", "weight", "NC score", "DF score"]);
        for (index, &(source, target, weight)) in self.edges.iter().enumerate() {
            table.add_row(vec![
                format!("{source}-{target}"),
                format!("{weight}"),
                fmt3(self.nc_scores[index]),
                fmt3(self.df_scores[index]),
            ]);
        }
        table.render()
    }
}

/// The toy graph of Figure 3: hub 0 with five spokes of weight 20 and a
/// peripheral edge 1–2 of weight 10.
pub fn toy_graph() -> WeightedGraph {
    GraphBuilder::undirected()
        .indexed_edge(0, 1, 20.0)
        .indexed_edge(0, 2, 20.0)
        .indexed_edge(0, 3, 20.0)
        .indexed_edge(0, 4, 20.0)
        .indexed_edge(0, 5, 20.0)
        .indexed_edge(1, 2, 10.0)
        .build()
        .expect("valid toy graph")
}

/// Run the Figure 3 comparison.
pub fn run() -> ToyExampleResult {
    let graph = toy_graph();
    let nc = NoiseCorrected::default()
        .score(&graph)
        .expect("NC scores the toy graph");
    let df = DisparityFilter::new()
        .score(&graph)
        .expect("DF scores the toy graph");
    let mut edges = Vec::new();
    let mut nc_scores = Vec::new();
    let mut df_scores = Vec::new();
    for edge in graph.edges() {
        edges.push((edge.source, edge.target, edge.weight));
        nc_scores.push(nc.scores()[edge.index]);
        df_scores.push(df.scores()[edge.index]);
    }
    ToyExampleResult {
        edges,
        nc_scores,
        df_scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nc_and_df_disagree_on_the_hub_edges_to_the_pair() {
        let result = run();
        let index_of = |a: usize, b: usize| {
            result
                .edges
                .iter()
                .position(|&(s, t, _)| (s, t) == (a, b) || (s, t) == (b, a))
                .unwrap()
        };
        let peripheral = index_of(1, 2);
        let hub_to_pair = index_of(0, 1);
        // NC: peripheral edge more salient than the hub edge to the same node.
        assert!(result.nc_scores[peripheral] > result.nc_scores[hub_to_pair]);
        // DF: the hub edge is at least as salient as the peripheral edge.
        assert!(result.df_scores[hub_to_pair] >= result.df_scores[peripheral]);
        let rendered = result.render();
        assert!(rendered.contains("1-2"));
    }
}
