//! Section VI: the occupation skill-relatedness case study.
//!
//! The paper extracts NC and DF backbones (of comparable size) from an
//! occupation skill co-occurrence network and evaluates them on four
//! statistics:
//!
//! 1. the relative Infomap codelength gain from partitioning the backbone
//!    (paper: 15.0% for NC vs 9.3% for DF);
//! 2. the modularity of the expert occupation classification on the backbone
//!    (paper: 0.192 vs 0.115);
//! 3. the normalized mutual information between the detected communities and
//!    the classification (paper: 0.423 vs 0.401);
//! 4. the correlation between skill overlap and occupation-switching flows,
//!    restricted to the backbone's pairs (paper: 0.454 for NC vs 0.431 for DF
//!    vs 0.390 on all pairs).

use backboning::{BackboneExtractor, DisparityFilter, NoiseCorrected};
use backboning_data::OccupationData;
use backboning_graph::WeightedGraph;
use backboning_netsci::community::infomap;
use backboning_netsci::{modularity, normalized_mutual_information, Partition};
use backboning_stats::OlsModel;

use crate::report::{fmt3, TextTable};

/// Case-study statistics of one backbone (or of the full network).
#[derive(Debug, Clone)]
pub struct CaseStudyEntry {
    /// Label ("full network", "Noise-Corrected", "Disparity Filter").
    pub label: String,
    /// Number of edges of the (backbone) network.
    pub edges: usize,
    /// Number of non-isolated nodes.
    pub covered_nodes: usize,
    /// Infomap codelength without communities (bits).
    pub baseline_codelength: f64,
    /// Infomap codelength with the detected communities (bits).
    pub partitioned_codelength: f64,
    /// Relative codelength gain.
    pub codelength_gain: f64,
    /// Modularity of the expert (major-group) classification on this network.
    pub classification_modularity: f64,
    /// NMI between detected communities and the classification.
    pub nmi_with_classification: f64,
    /// Correlation between predicted and observed flows on this network's pairs.
    pub flow_correlation: f64,
}

/// Results of the case study.
#[derive(Debug, Clone)]
pub struct CaseStudyResult {
    /// Statistics for the full network, the NC backbone and the DF backbone.
    pub entries: Vec<CaseStudyEntry>,
}

impl CaseStudyResult {
    /// The entry with the given label.
    pub fn entry(&self, label: &str) -> Option<&CaseStudyEntry> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// Render the case-study comparison table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "network",
            "edges",
            "covered nodes",
            "codelength gain",
            "classification modularity",
            "NMI vs classification",
            "flow correlation",
        ]);
        for entry in &self.entries {
            table.add_row(vec![
                entry.label.clone(),
                entry.edges.to_string(),
                entry.covered_nodes.to_string(),
                format!("{:.1}%", entry.codelength_gain * 100.0),
                fmt3(entry.classification_modularity),
                fmt3(entry.nmi_with_classification),
                fmt3(entry.flow_correlation),
            ]);
        }
        table.render()
    }
}

/// Correlation between observed flows and the flows predicted by the
/// case-study regression `F_ij = β1 C_ij + β2 S_i. + β3 S_.j`, restricted to
/// the ordered occupation pairs connected in `pair_source`.
fn flow_prediction_correlation(data: &OccupationData, pair_source: &WeightedGraph) -> f64 {
    let outgoing = data.outgoing_switches();
    let incoming = data.incoming_switches();
    let mut flows = Vec::new();
    let mut common_skills = Vec::new();
    let mut origin_size = Vec::new();
    let mut destination_size = Vec::new();
    // Ordered pairs: each undirected co-occurrence edge contributes both directions.
    for edge in pair_source.edges() {
        for (origin, destination) in [(edge.source, edge.target), (edge.target, edge.source)] {
            let flow = data.flows.edge_weight(origin, destination).unwrap_or(0.0);
            let skills = data
                .co_occurrence
                .edge_weight(origin, destination)
                .unwrap_or(0.0);
            flows.push(flow);
            common_skills.push(skills);
            origin_size.push(outgoing[origin]);
            destination_size.push(incoming[destination]);
        }
    }
    let fit = OlsModel::new()
        .predictor("common_skills", common_skills)
        .predictor("origin_size", origin_size)
        .predictor("destination_size", destination_size)
        .fit(&flows)
        .expect("enough observations for the case-study regression");
    fit.fit_correlation()
}

/// Compute the full set of case-study statistics for one network.
fn evaluate(label: &str, data: &OccupationData, network: &WeightedGraph) -> CaseStudyEntry {
    let classification = Partition::from_labels(data.major_group.clone());
    let infomap_result = infomap(network, 30);
    let entry_modularity = modularity(network, &classification);
    let nmi = normalized_mutual_information(&infomap_result.partition, &classification);
    CaseStudyEntry {
        label: label.to_string(),
        edges: network.edge_count(),
        covered_nodes: network.non_isolated_node_count(),
        baseline_codelength: infomap_result.baseline_codelength,
        partitioned_codelength: infomap_result.codelength,
        codelength_gain: infomap_result.compression_gain(),
        classification_modularity: entry_modularity,
        nmi_with_classification: nmi,
        flow_correlation: flow_prediction_correlation(data, network),
    }
}

/// Run the case study.
///
/// `edge_share` controls the size of the two backbones (both methods keep the
/// same number of edges, as in the paper's figures).
pub fn run(data: &OccupationData, edge_share: f64) -> CaseStudyResult {
    let full = &data.co_occurrence;
    let target_edges = ((edge_share * full.edge_count() as f64).round() as usize).max(10);

    let nc_scored = NoiseCorrected::default()
        .score(full)
        .expect("NC scores the co-occurrence network");
    let nc_backbone = full
        .subgraph_with_edges(&nc_scored.top_k(full, target_edges))
        .expect("NC backbone extraction");

    let df_scored = DisparityFilter::new()
        .score(full)
        .expect("DF scores the co-occurrence network");
    let df_backbone = full
        .subgraph_with_edges(&df_scored.top_k(full, target_edges))
        .expect("DF backbone extraction");

    let entries = vec![
        evaluate("full network", data, full),
        evaluate("Noise-Corrected", data, &nc_backbone),
        evaluate("Disparity Filter", data, &df_backbone),
    ];
    CaseStudyResult { entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_data::OccupationDataConfig;

    #[test]
    fn backbones_improve_over_the_full_hairball() {
        let data = OccupationData::generate(&OccupationDataConfig::small());
        let result = run(&data, 0.15);
        assert_eq!(result.entries.len(), 3);

        let full = result.entry("full network").unwrap();
        let nc = result.entry("Noise-Corrected").unwrap();
        let df = result.entry("Disparity Filter").unwrap();

        // Equal backbone sizes.
        assert_eq!(nc.edges, df.edges);
        assert!(nc.edges < full.edges);

        // Pruning the hairball must reveal structure: the NC backbone's
        // codelength gain and classification modularity beat the full network's.
        assert!(nc.codelength_gain >= full.codelength_gain);
        assert!(nc.classification_modularity > full.classification_modularity);

        // The paper's headline comparison: NC beats DF on the classification
        // modularity of the backbone and matches-or-beats it on flow prediction.
        assert!(
            nc.classification_modularity >= df.classification_modularity,
            "NC modularity {} < DF modularity {}",
            nc.classification_modularity,
            df.classification_modularity
        );
        assert!(nc.flow_correlation > 0.0);
        assert!(result.render().contains("Noise-Corrected"));
    }
}
