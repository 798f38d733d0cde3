//! Cross-family method invariants on generated substrates.
//!
//! The `csr_scoring_parity` suite pins CSR-vs-adjacency bit-parity on small
//! random graphs; this suite re-verifies the same invariants — plus thread
//! invariance and the hss-approx error bound — on every `backboning_gen`
//! family (BA, ER, geometric, stochastic block), so method bugs that only
//! surface on community-structured, spatial or heavy-tailed substrates have
//! a test to fail.

use backboning::high_salience::max_salience_error_bound;
use backboning::{HighSalienceSkeleton, Method, Pipeline, ThresholdPolicy};
use backboning_gen::ScenarioSpec;
use backboning_graph::{CsrGraph, WeightedGraph};

/// One spec per family, each with a different weight distribution and the
/// paper's noise layer on — small enough for exact HSS, structured enough to
/// exercise hubs (ba), homogeneity (er), spatial clustering (geo) and
/// communities (sb).
const FAMILY_SPECS: [&str; 4] = [
    "ba:n=400,m=3,w=powerlaw(2.5),noise=0.1,seed=4242",
    "er:n=400,e=1200,w=uniform(10),noise=0.1,seed=4242",
    "geo:n=400,r=0.08,w=lognormal(0,1),noise=0.1,seed=4242",
    "sb:n=400,b=4,pin=0.08,pout=0.004,w=uniform(10),noise=0.1,seed=4242",
];

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn substrate(text: &str) -> (CsrGraph, WeightedGraph) {
    let csr = ScenarioSpec::parse(text).unwrap().generate().unwrap();
    let adjacency = csr.to_weighted_graph().unwrap();
    (csr, adjacency)
}

/// Every scalable method scores the CSR graph bit-identically to its
/// adjacency twin, on every family.
#[test]
fn scalable_methods_csr_adjacency_parity_per_family() {
    for text in FAMILY_SPECS {
        let (csr, adjacency) = substrate(text);
        assert!(csr.edge_count() > 100, "{text}: degenerate substrate");
        for method in Method::scalable() {
            let reference = method
                .score(&adjacency)
                .unwrap_or_else(|error| panic!("{text} / {method}: {error}"));
            let compact = method.score(&csr).unwrap();
            assert!(
                reference == compact,
                "{text}: {method} scores differ between adjacency and CSR"
            );
        }
    }
}

/// Every scalable method is thread-invariant on every family: scores at
/// 2/3/8 threads are bit-identical to the single-threaded run, on both
/// representations.
#[test]
fn scalable_methods_thread_invariance_per_family() {
    for text in FAMILY_SPECS {
        let (csr, adjacency) = substrate(text);
        for method in Method::scalable() {
            let baseline = method.score_with_threads(&csr, 1).unwrap();
            for threads in THREAD_COUNTS {
                let compact = method.score_with_threads(&csr, threads).unwrap();
                assert!(
                    baseline == compact,
                    "{text}: {method} CSR scores change at {threads} threads"
                );
                let reference = method.score_with_threads(&adjacency, threads).unwrap();
                assert!(
                    baseline == reference,
                    "{text}: {method} adjacency scores change at {threads} threads"
                );
            }
        }
    }
}

/// The full score → select pipeline keeps exactly the same edge set on
/// either representation, per family and method.
#[test]
fn pipeline_edge_sets_match_across_representations_per_family() {
    for text in FAMILY_SPECS {
        let (csr, adjacency) = substrate(text);
        for method in Method::scalable() {
            let policy = ThresholdPolicy::TopShare(0.1);
            let reference = Pipeline::new(method, policy).run(&adjacency).unwrap();
            let compact = Pipeline::new(method, policy).run(&csr).unwrap();
            assert_eq!(
                reference.kept, compact.kept,
                "{text}: {method} keeps different edges on CSR vs adjacency"
            );
        }
    }
}

/// The Hoeffding bound of hss-approx holds on a community substrate: max
/// per-edge deviation between sampled (256 roots) and exact salience stays
/// within `max_salience_error_bound` at 95% confidence — the same check
/// `bench_snapshot` records for the ba/er substrates, here on stochastic
/// block and at every thread count.
#[test]
fn hss_approx_bound_holds_on_stochastic_block() {
    let (csr, _) = substrate(FAMILY_SPECS[3]);
    let hss = HighSalienceSkeleton::new();
    let exact = hss.score_with_threads(&csr, 0).unwrap();
    let roots = 256;
    let bound = max_salience_error_bound(roots, csr.edge_count(), 0.95);
    assert!(
        bound > 0.0 && bound < 1.0,
        "bound {bound} is not informative"
    );

    let baseline = hss
        .score_sampled_with_threads(&csr, roots, 4242, 1)
        .unwrap();
    for threads in THREAD_COUNTS {
        let sampled = hss
            .score_sampled_with_threads(&csr, roots, 4242, threads)
            .unwrap();
        assert!(
            baseline == sampled,
            "hss-approx on sb substrate changes at {threads} threads"
        );
        let max_deviation = exact
            .scores()
            .iter()
            .zip(sampled.scores())
            .map(|(exact_score, sampled_score)| (exact_score - sampled_score).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_deviation <= bound,
            "max deviation {max_deviation} exceeds 95% bound {bound} at {threads} threads"
        );
    }
}
