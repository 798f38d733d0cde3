//! Country-network example: extract backbones of the synthetic Trade network
//! with every method and compare their topology, quality and stability.
//!
//! ```text
//! cargo run --release -p backboning-bench --example country_trade
//! ```

use backboning_data::{CountryData, CountryDataConfig, CountryNetworkKind};
use backboning_eval::metrics::{coverage, quality_ratio, stability};
use backboning_eval::{Method, TextTable};

fn main() {
    let data = CountryData::generate(&CountryDataConfig {
        country_count: 80,
        ..CountryDataConfig::default()
    });
    let kind = CountryNetworkKind::Trade;
    let year0 = data.network(kind, 0);
    let year1 = data.network(kind, 1);
    println!(
        "synthetic Trade network: {} countries, {} edges, total weight {:.3e}",
        year0.node_count(),
        year0.edge_count(),
        year0.total_weight()
    );

    let target_edges = year0.edge_count() / 5;
    let mut table = TextTable::new(vec!["method", "edges", "coverage", "quality", "stability"]);
    for method in Method::all() {
        let Ok(edges) = method.edge_set(year0, target_edges) else {
            table.add_row(vec![
                method.full_name().to_string(),
                "n/a".into(),
                "n/a".into(),
                "n/a".into(),
                "n/a".into(),
            ]);
            continue;
        };
        let coverage_value = coverage(year0, &edges);
        let quality_value = quality_ratio(&data, kind, year0, &edges).unwrap_or(f64::NAN);
        let stability_value = stability(&edges, year0, year1).unwrap_or(f64::NAN);
        table.add_row(vec![
            method.full_name().to_string(),
            edges.len().to_string(),
            format!("{coverage_value:.3}"),
            format!("{quality_value:.3}"),
            format!("{stability_value:.3}"),
        ]);
    }
    println!("\nbackbones restricted to ~{target_edges} edges:\n");
    println!("{}", table.render());
    println!(
        "Quality > 1 means the backbone explains the gravity model better than the full network."
    );
}
