//! Variance validation: Table I of the paper.
//!
//! The Noise-Corrected backbone's central claim is that it estimates the
//! *variance* of the transformed edge weights correctly. Because the country
//! networks are observed in several years, the paper validates the claim by
//! correlating the NC-predicted variance of `L̃ij` with the variance actually
//! observed across the yearly snapshots.

use backboning::{BackboneExtractor, NoiseCorrected};
use backboning_graph::WeightedGraph;
use backboning_stats::pearson;
use backboning_stats::{StatsError, StatsResult};

/// Correlation between the NC-predicted variance of the transformed edge
/// weight and its observed variance across yearly observations.
///
/// For every edge of the first year that also appears in every later year,
/// the predicted variance is `V[L̃ij]` computed by the NC backbone on the
/// first year, and the observed variance is the sample variance of the
/// transformed lift across all years. The function returns the Pearson
/// correlation between the two, computed on ranks of magnitude (log–log),
/// mirroring how the paper treats the broadly distributed variances.
pub fn variance_validation_correlation(years: &[WeightedGraph]) -> StatsResult<f64> {
    if years.len() < 2 {
        return Err(StatsError::InvalidParameter {
            parameter: "years",
            message: format!("need at least 2 yearly observations, got {}", years.len()),
        });
    }
    let nc = NoiseCorrected::default();
    let first_year = &years[0];
    let scored_first = nc
        .score(first_year)
        .map_err(|e| StatsError::InvalidParameter {
            parameter: "years",
            message: format!("cannot score first year: {e}"),
        })?;

    // Transformed lift of every year, keyed by (source, target) of the first year.
    let mut yearly_lifts: Vec<std::collections::HashMap<(usize, usize), f64>> = Vec::new();
    for year in years {
        let scored = nc.score(year).map_err(|e| StatsError::InvalidParameter {
            parameter: "years",
            message: format!("cannot score year: {e}"),
        })?;
        let mut lift_by_pair = std::collections::HashMap::new();
        for edge in scored.rows(year) {
            lift_by_pair.insert((edge.source, edge.target), edge.raw_score.unwrap_or(0.0));
        }
        yearly_lifts.push(lift_by_pair);
    }

    let mut predicted = Vec::new();
    let mut observed = Vec::new();
    for edge in scored_first.rows(first_year) {
        let key = (edge.source, edge.target);
        // Only edges observed in every year have a meaningful sample variance.
        let lifts: Vec<f64> = yearly_lifts
            .iter()
            .filter_map(|year| year.get(&key).copied())
            .collect();
        if lifts.len() < years.len() {
            continue;
        }
        let mean = lifts.iter().sum::<f64>() / lifts.len() as f64;
        let sample_variance =
            lifts.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / (lifts.len() - 1) as f64;
        let predicted_variance = edge.std_dev.map(|s| s * s).unwrap_or(0.0);
        if predicted_variance > 0.0 && sample_variance > 0.0 {
            predicted.push(predicted_variance.ln());
            observed.push(sample_variance.ln());
        }
    }
    if predicted.len() < 10 {
        return Err(StatsError::InvalidParameter {
            parameter: "years",
            message: format!(
                "only {} edges observed in every year with positive variances",
                predicted.len()
            ),
        });
    }
    pearson(&predicted, &observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_data::{CountryData, CountryDataConfig, CountryNetworkKind};

    #[test]
    fn needs_at_least_two_years() {
        let data = CountryData::generate(&CountryDataConfig::small());
        let single = vec![data.network(CountryNetworkKind::Trade, 0).clone()];
        assert!(variance_validation_correlation(&single).is_err());
    }

    #[test]
    fn predicted_variance_correlates_with_observed_variance() {
        // The synthetic networks are generated with binomial-like count noise,
        // which is exactly the NC null model, so the predicted and observed
        // variances must correlate positively — the Table I claim.
        let data = CountryData::generate(&CountryDataConfig::small());
        for kind in [CountryNetworkKind::Trade, CountryNetworkKind::Flight] {
            let years = data.yearly_networks(kind).to_vec();
            let correlation = variance_validation_correlation(&years).unwrap();
            assert!(
                correlation > 0.2,
                "{}: validation correlation {correlation} too low",
                kind.name()
            );
        }
    }
}
