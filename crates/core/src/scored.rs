//! The scored-edge representation shared by all backboning methods.
//!
//! Every method assigns each edge a *significance score* such that higher
//! means "more salient" and the method's natural pruning rule is
//! `score ≥ threshold`:
//!
//! | Method | `score` | threshold meaning |
//! |---|---|---|
//! | Noise-Corrected | `L̃ij / sqrt(V[L̃ij])` (standard deviations above the null) | the paper's `δ` |
//! | NC (binomial p-value variant) | `1 − p` | `1 − p_max` |
//! | Disparity Filter | `1 − α` | `1 − α_max` |
//! | High Salience Skeleton | salience ∈ [0, 1] | salience cut |
//! | Doubly Stochastic | doubly-stochastic weight | weight cut |
//! | Maximum Spanning Tree | 1 for tree edges, 0 otherwise | any value in (0, 1] |
//! | Naive Threshold | raw weight | the naive weight cut `δ` |
//!
//! On top of thresholding, [`ScoredEdges`] supports selecting the `k` highest
//! scoring edges or a fixed *share* of edges — the mechanism the paper uses to
//! compare methods at equal backbone sizes in the coverage, quality and
//! stability experiments.

use backboning_graph::{EdgeRef, GraphView, NodeId, WeightedGraph};

use crate::error::{BackboneError, BackboneResult};

/// How the two directed scores of an undirected edge are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Symmetrization {
    /// Keep the larger of the two directional scores (the default of the
    /// reference implementation: an edge is salient if it is salient in
    /// either direction).
    #[default]
    Max,
    /// Keep the smaller of the two directional scores (stricter: the edge must
    /// be salient in both directions).
    Min,
    /// Average the two directional scores.
    Average,
}

impl Symmetrization {
    /// Combine two directional scores.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Symmetrization::Max => a.max(b),
            Symmetrization::Min => a.min(b),
            Symmetrization::Average => 0.5 * (a + b),
        }
    }
}

/// One scored edge by value: a row of [`ScoredEdges`] joined with the
/// edge it scores (see [`ScoredEdges::get`] and [`ScoredEdges::rows`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEdge {
    /// Dense index of the edge in the original graph.
    pub edge_index: usize,
    /// Source endpoint in the original graph.
    pub source: NodeId,
    /// Target endpoint in the original graph.
    pub target: NodeId,
    /// Original edge weight.
    pub weight: f64,
    /// Method-specific significance score (higher = more salient).
    pub score: f64,
    /// Method-specific raw score, when it differs from `score` (for the
    /// Noise-Corrected backbone: the transformed lift `L̃ij`).
    pub raw_score: Option<f64>,
    /// Standard deviation of the raw score under the null model (NC only).
    pub std_dev: Option<f64>,
    /// p-value of the edge under the method's null model, when defined.
    pub p_value: Option<f64>,
}

/// The scores of a graph's edges under one backboning method, stored as
/// columns indexed by dense edge id.
///
/// Only the scores are stored: an edge's endpoints and weight stay in the
/// graph that was scored, and callers read them from there by edge id. The
/// optional columns exist only for the methods that set them — the
/// transformed lift and its standard deviation for NC, the p-value for NCB
/// and DF.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredEdges {
    method: &'static str,
    pub(crate) node_count: usize,
    pub(crate) scores: Vec<f64>,
    pub(crate) raw_scores: Option<Vec<f64>>,
    pub(crate) std_devs: Option<Vec<f64>>,
    pub(crate) p_values: Option<Vec<f64>>,
}

impl ScoredEdges {
    /// Create a score set from the score column (position `i` scores edge
    /// `i`). Intended for use by backbone implementations.
    pub fn new(method: &'static str, node_count: usize, scores: Vec<f64>) -> Self {
        ScoredEdges {
            method,
            node_count,
            scores,
            raw_scores: None,
            std_devs: None,
            p_values: None,
        }
    }

    /// Attach the raw-score and standard-deviation columns (NC).
    pub(crate) fn with_lift(mut self, raw_scores: Vec<f64>, std_devs: Vec<f64>) -> Self {
        self.raw_scores = Some(raw_scores);
        self.std_devs = Some(std_devs);
        self
    }

    /// Attach the p-value column (NCB, DF).
    pub(crate) fn with_p_values(mut self, p_values: Vec<f64>) -> Self {
        self.p_values = Some(p_values);
        self
    }

    /// Every stored column, the score column first.
    pub(crate) fn columns_mut(&mut self) -> impl Iterator<Item = &mut Vec<f64>> {
        [
            Some(&mut self.scores),
            self.raw_scores.as_mut(),
            self.std_devs.as_mut(),
            self.p_values.as_mut(),
        ]
        .into_iter()
        .flatten()
    }

    /// Name of the method that produced the scores.
    pub fn method(&self) -> &'static str {
        self.method
    }

    /// Number of nodes in the original graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of scored edges (equals the original graph's edge count).
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether there are no scored edges.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// All scores, in original edge order.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    fn row(&self, edge: EdgeRef) -> ScoredEdge {
        let i = edge.index;
        ScoredEdge {
            edge_index: i,
            source: edge.source,
            target: edge.target,
            weight: edge.weight,
            score: self.scores[i],
            raw_score: self.raw_scores.as_ref().map(|column| column[i]),
            std_dev: self.std_devs.as_ref().map(|column| column[i]),
            p_value: self.p_values.as_ref().map(|column| column[i]),
        }
    }

    /// The row of edge `edge_index` of `graph` (the scored graph), if both
    /// have it.
    pub fn get<G: GraphView>(&self, graph: &G, edge_index: usize) -> Option<ScoredEdge> {
        let edge = graph.edge(edge_index).filter(|_| edge_index < self.len())?;
        Some(self.row(edge))
    }

    /// Every row, in original edge order, joined with the edges of `graph`
    /// (the scored graph).
    pub fn rows<'a, G: GraphView>(&'a self, graph: &'a G) -> impl Iterator<Item = ScoredEdge> + 'a {
        graph.edges().take(self.len()).map(|edge| self.row(edge))
    }

    /// Indices (into the original graph) of edges whose score is at least
    /// `threshold`.
    pub fn filter(&self, threshold: f64) -> Vec<usize> {
        (0..self.scores.len())
            .filter(|&i| self.scores[i] >= threshold)
            .collect()
    }

    /// Indices of the `k` highest scoring edges of `graph` (the scored
    /// graph), in ranking order (descending score, ties broken by descending
    /// weight, then by edge index).
    ///
    /// # Tie-break and determinism contract
    ///
    /// The ranking comparator is a **total order** over edges: descending
    /// `score`, then descending `weight`, then *ascending* `edge_index` as the
    /// final tiebreaker (incomparable floats — NaN — compare equal and fall
    /// through to the next key). Because `edge_index` is unique, two distinct
    /// edges never compare equal, so the selected set and its order are a pure
    /// function of the scores: independent of thread count, selection
    /// algorithm, and call order. Equal-score, equal-weight edges are kept in
    /// original edge order — the contract the evaluation sweeps and the
    /// `Pipeline` golden tests rely on. Weights are read from `graph` only on
    /// score ties.
    ///
    /// Uses `select_nth_unstable_by` partial selection — `O(E)` to isolate the
    /// top `k`, plus `O(k log k)` to order them — instead of a full
    /// `O(E log E)` sort. The returned set and order are exactly those of a
    /// full sort, because the tie-break comparator is a total order.
    pub fn top_k<G: GraphView>(&self, graph: &G, k: usize) -> Vec<usize> {
        let scores = &self.scores;
        let weight = |i: usize| graph.edge(i).expect("scored edge index in range").weight;
        let rank_order = |&a: &usize, &b: &usize| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    weight(b)
                        .partial_cmp(&weight(a))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.cmp(&b))
        };
        if k == 0 || scores.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        if k < order.len() {
            order.select_nth_unstable_by(k - 1, rank_order);
            order.truncate(k);
        }
        order.sort_unstable_by(rank_order);
        order
    }

    /// Indices of the top `share` (in `[0, 1]`) of edges by score.
    ///
    /// The edge count is `round(share × E)` — round-half-up, so `share = 0.5`
    /// of 5 edges keeps 3 — and the selection inherits the deterministic
    /// tie-break contract of [`ScoredEdges::top_k`]: the result is the same
    /// set, in the same ranking order, on every run and at every thread
    /// count.
    pub fn top_share<G: GraphView>(&self, graph: &G, share: f64) -> BackboneResult<Vec<usize>> {
        if !(0.0..=1.0).contains(&share) {
            return Err(BackboneError::InvalidParameter {
                parameter: "share",
                message: format!("must lie in [0, 1], got {share}"),
            });
        }
        let k = (share * self.scores.len() as f64).round() as usize;
        Ok(self.top_k(graph, k))
    }

    /// The score threshold that keeps exactly the top `k` edges (the k-th
    /// highest score), or `None` when `k` is zero or exceeds the edge count.
    pub fn threshold_for_count(&self, k: usize) -> Option<f64> {
        if k == 0 || k > self.scores.len() {
            return None;
        }
        let mut scores = self.scores.clone();
        // Partial selection: only the k-th highest score is needed.
        let (_, kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| {
            b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
        });
        Some(*kth)
    }
}

/// The common interface of all backboning methods.
pub trait BackboneExtractor {
    /// Human-readable method name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Score every edge of the graph.
    fn score(&self, graph: &WeightedGraph) -> BackboneResult<ScoredEdges>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::Direction;

    fn sample_scores() -> (WeightedGraph, ScoredEdges) {
        let graph = WeightedGraph::from_edges(
            Direction::Directed,
            4,
            vec![(0, 1, 10.0), (1, 2, 5.0), (2, 3, 1.0), (3, 0, 7.0)],
        )
        .unwrap();
        let scores = graph.edges().map(|e| e.weight / 10.0).collect();
        let scored = ScoredEdges::new("test", graph.node_count(), scores);
        (graph, scored)
    }

    #[test]
    fn basic_accessors() {
        let (graph, scored) = sample_scores();
        assert_eq!(scored.method(), "test");
        assert_eq!(scored.len(), 4);
        assert!(!scored.is_empty());
        assert_eq!(scored.node_count(), 4);
        assert_eq!(scored.scores(), &[1.0, 0.5, 0.1, 0.7]);
        let row = scored.get(&graph, 2).unwrap();
        assert_eq!((row.edge_index, row.source, row.target), (2, 2, 3));
        assert_eq!((row.weight, row.score), (1.0, 0.1));
        assert_eq!(
            (row.raw_score, row.std_dev, row.p_value),
            (None, None, None)
        );
        assert!(scored.get(&graph, 9).is_none());
    }

    #[test]
    fn filter_by_threshold() {
        let (_, scored) = sample_scores();
        assert_eq!(scored.filter(0.6), vec![0, 3]);
        assert_eq!(scored.filter(0.0).len(), 4);
        assert!(scored.filter(2.0).is_empty());
    }

    #[test]
    fn top_k_is_sorted_by_score() {
        let (graph, scored) = sample_scores();
        assert_eq!(scored.top_k(&graph, 2), vec![0, 3]);
        assert_eq!(scored.top_k(&graph, 0), Vec::<usize>::new());
        assert_eq!(scored.top_k(&graph, 10).len(), 4);
    }

    #[test]
    fn top_share_selects_fraction() {
        let (graph, scored) = sample_scores();
        assert_eq!(scored.top_share(&graph, 0.5).unwrap(), vec![0, 3]);
        assert_eq!(scored.top_share(&graph, 1.0).unwrap().len(), 4);
        assert!(scored.top_share(&graph, 0.0).unwrap().is_empty());
        assert!(scored.top_share(&graph, 1.5).is_err());
    }

    #[test]
    fn threshold_for_count_matches_filter() {
        let (_, scored) = sample_scores();
        let threshold = scored.threshold_for_count(2).unwrap();
        assert_eq!(scored.filter(threshold).len(), 2);
        assert_eq!(scored.threshold_for_count(0), None);
        assert_eq!(scored.threshold_for_count(99), None);
    }

    #[test]
    fn backbone_graphs_preserve_node_set() {
        let (graph, scored) = sample_scores();
        let backbone = graph.subgraph_with_edges(&scored.filter(0.6)).unwrap();
        assert_eq!(backbone.node_count(), 4);
        assert_eq!(backbone.edge_count(), 2);

        let top = graph.subgraph_with_edges(&scored.top_k(&graph, 1)).unwrap();
        assert_eq!(top.edge_count(), 1);
        assert!(top.has_edge(0, 1));

        let share = graph
            .subgraph_with_edges(&scored.top_share(&graph, 0.75).unwrap())
            .unwrap();
        assert_eq!(share.edge_count(), 3);
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let graph = WeightedGraph::from_edges(
            Direction::Directed,
            3,
            vec![(0, 1, 5.0), (1, 2, 5.0), (2, 0, 5.0)],
        )
        .unwrap();
        let scored = ScoredEdges::new("tied", 3, vec![1.0; 3]);
        assert_eq!(scored.top_k(&graph, 2), vec![0, 1]);
        // Equal scores fall back to descending weight.
        let heavier_last = WeightedGraph::from_edges(
            Direction::Directed,
            3,
            vec![(0, 1, 5.0), (1, 2, 5.0), (2, 0, 6.0)],
        )
        .unwrap();
        assert_eq!(scored.top_k(&heavier_last, 2), vec![2, 0]);
    }

    #[test]
    fn symmetrization_combinations() {
        assert_eq!(Symmetrization::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(Symmetrization::Min.combine(1.0, 2.0), 1.0);
        assert_eq!(Symmetrization::Average.combine(1.0, 2.0), 1.5);
        assert_eq!(Symmetrization::default(), Symmetrization::Max);
    }

    #[test]
    fn into_iterator_yields_all_edges() {
        let (graph, scored) = sample_scores();
        let scored = scored
            .with_lift(vec![0.0; 4], vec![1.0; 4])
            .with_p_values(vec![0.5; 4]);
        let rows: Vec<ScoredEdge> = scored.rows(&graph).collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(Some(rows[3]), scored.get(&graph, 3));
        let row = rows[3];
        assert_eq!((row.source, row.target, row.weight), (3, 0, 7.0));
        assert_eq!(
            (row.raw_score, row.std_dev, row.p_value),
            (Some(0.0), Some(1.0), Some(0.5))
        );
    }
}
