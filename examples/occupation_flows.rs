//! Case-study example: backbone the occupation skill co-occurrence network and
//! check how well it predicts occupation-switching flows (paper, Section VI).
//!
//! ```text
//! cargo run --release -p backboning-bench --example occupation_flows
//! ```

use backboning::{BackboneExtractor, DisparityFilter, NoiseCorrected};
use backboning_data::{OccupationData, OccupationDataConfig};
use backboning_eval::experiments::case_study;
use backboning_netsci::community::infomap;
use backboning_netsci::{modularity, Partition};

fn main() {
    let data = OccupationData::generate(&OccupationDataConfig::default());
    println!(
        "synthetic occupation data: {} occupations, {} skills, co-occurrence hairball with {} edges",
        data.occupation_count(),
        data.skills[0].len(),
        data.co_occurrence.edge_count()
    );

    // The full co-occurrence network is a hairball: the expert classification
    // has almost no modularity on it.
    let classification = Partition::from_labels(data.major_group.clone());
    println!(
        "modularity of the expert classification on the full hairball: {:.3}",
        modularity(&data.co_occurrence, &classification)
    );

    // Extract NC and DF backbones of equal size and inspect them.
    let target = data.co_occurrence.edge_count() / 7;
    let full = &data.co_occurrence;
    let nc_scored = NoiseCorrected::default().score(full).expect("NC scoring");
    let nc_backbone = full
        .subgraph_with_edges(&nc_scored.top_k(full, target))
        .expect("NC backbone");
    let df_scored = DisparityFilter::new().score(full).expect("DF scoring");
    let df_backbone = full
        .subgraph_with_edges(&df_scored.top_k(full, target))
        .expect("DF backbone");

    for (label, backbone) in [
        ("Noise-Corrected", &nc_backbone),
        ("Disparity Filter", &df_backbone),
    ] {
        let result = infomap(backbone, 30);
        println!(
            "{label} backbone: {} edges, {} covered occupations, codelength {:.2} -> {:.2} bits ({:.1}% gain), classification modularity {:.3}",
            backbone.edge_count(),
            backbone.non_isolated_node_count(),
            result.baseline_codelength,
            result.codelength,
            result.compression_gain() * 100.0,
            modularity(backbone, &classification)
        );
    }

    // The full case-study table (including flow-prediction correlations).
    let result = case_study::run(&data, 0.15);
    println!("\n{}", result.render());
}
