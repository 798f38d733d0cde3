//! Figure 2: the effect of the threshold δ on the Noise-Corrected score
//! distribution.
//!
//! The paper plots, for the Country Space and Business networks, the
//! distribution of `L̃ij − δ·sqrt(V[L̃ij])` for δ ∈ {1, 2, 3}: larger δ shifts
//! the distribution left and shrinks the acceptance region (values above
//! zero). This module reproduces the histogram and the acceptance share per δ.

use backboning::{BackboneExtractor, NoiseCorrected};
use backboning_data::{CountryData, CountryNetworkKind};
use backboning_stats::histogram::LinearHistogram;

use crate::report::{fmt3, TextTable};

/// The shifted-score distribution of one network at one δ.
#[derive(Debug, Clone)]
pub struct ThresholdDistribution {
    /// The δ value.
    pub delta: f64,
    /// Share of edges accepted (shifted score above zero).
    pub accepted_share: f64,
    /// Histogram of the shifted scores.
    pub histogram: LinearHistogram,
}

/// Results of the Figure 2 experiment for one network.
#[derive(Debug, Clone)]
pub struct ThresholdResult {
    /// The network the distributions belong to.
    pub kind: CountryNetworkKind,
    /// One distribution per δ.
    pub distributions: Vec<ThresholdDistribution>,
}

impl ThresholdResult {
    /// Render the acceptance-share table plus a coarse ASCII histogram.
    pub fn render(&self) -> String {
        let mut output = format!("Figure 2 — {} network\n", self.kind.name());
        let mut table = TextTable::new(vec!["delta", "share of edges accepted"]);
        for distribution in &self.distributions {
            table.add_row(vec![
                format!("{:.0}", distribution.delta),
                fmt3(distribution.accepted_share),
            ]);
        }
        output.push_str(&table.render());
        output.push('\n');
        for distribution in &self.distributions {
            output.push_str(&format!("delta = {:.0}\n", distribution.delta));
            let shares = distribution.histogram.shares();
            let centers = distribution.histogram.bin_centers();
            for (center, share) in centers.iter().zip(shares) {
                let bars = (share * 200.0).round() as usize;
                output.push_str(&format!("{center:>8.2} | {}\n", "#".repeat(bars.min(80))));
            }
        }
        output
    }
}

/// Run the Figure 2 experiment on one network of the dataset.
pub fn run(
    data: &CountryData,
    kind: CountryNetworkKind,
    deltas: &[f64],
    bins: usize,
) -> ThresholdResult {
    let graph = data.network(kind, 0);
    let scored = NoiseCorrected::default()
        .score(graph)
        .expect("NC scores any weighted graph");
    let mut distributions = Vec::with_capacity(deltas.len());
    for &delta in deltas {
        let shifted: Vec<f64> = scored
            .rows(graph)
            .map(|edge| edge.raw_score.unwrap_or(0.0) - delta * edge.std_dev.unwrap_or(0.0))
            .collect();
        let accepted = shifted.iter().filter(|&&s| s > 0.0).count();
        let accepted_share = accepted as f64 / shifted.len().max(1) as f64;
        let histogram =
            LinearHistogram::new(&shifted, bins).expect("scores are non-empty and finite");
        distributions.push(ThresholdDistribution {
            delta,
            accepted_share,
            histogram,
        });
    }
    ThresholdResult {
        kind,
        distributions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_data::CountryDataConfig;

    #[test]
    fn higher_delta_accepts_fewer_edges() {
        let data = CountryData::generate(&CountryDataConfig::small());
        let result = run(&data, CountryNetworkKind::Business, &[1.0, 2.0, 3.0], 20);
        assert_eq!(result.distributions.len(), 3);
        let shares: Vec<f64> = result
            .distributions
            .iter()
            .map(|d| d.accepted_share)
            .collect();
        assert!(shares[0] >= shares[1]);
        assert!(shares[1] >= shares[2]);
        assert!(shares[2] > 0.0, "even delta = 3 keeps some edges");
        let rendered = result.render();
        assert!(rendered.contains("Business"));
        assert!(rendered.contains("delta"));
    }
}
