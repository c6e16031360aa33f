//! Property-based tests for the core ranking machinery.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use deepeye_core::{
    compute_factors, partial_order_log_scores, DominanceGraph, Factors, HybridRanker,
};
use proptest::prelude::*;

fn factor_strategy() -> impl Strategy<Value = Factors> {
    (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(m, q, w)| Factors { m, q, w })
}

fn factors_vec(max: usize) -> impl Strategy<Value = Vec<Factors>> {
    proptest::collection::vec(factor_strategy(), 0..max)
}

/// Factor sets with heavy duplication: coordinates on a five-point grid,
/// each optionally nudged one ulp up, so equal triples and one-ulp
/// neighbours (whose factor sums round to the same value) are common.
fn duplicated_factors(max: usize) -> impl Strategy<Value = Vec<Factors>> {
    let coord = (0u8..5, any::<bool>()).prop_map(|(k, nudge)| {
        let x = f64::from(k) * 0.2456902871255874;
        if nudge {
            f64::from_bits(x.to_bits() + 1)
        } else {
            x
        }
    });
    let triple = (coord.clone(), coord.clone(), coord).prop_map(|(m, q, w)| Factors { m, q, w });
    proptest::collection::vec(triple, 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grouped scorer equals the explicit graph's scores: within 1e-9,
    /// with the same -inf (sink) pattern, and bit-identical on equal
    /// triples.
    #[test]
    fn grouped_scores_equal_naive_graph(factors in duplicated_factors(80)) {
        let scores = partial_order_log_scores(&factors);
        let reference = DominanceGraph::build_naive(&factors).log_scores();
        prop_assert_eq!(scores.len(), reference.len());
        for (i, (&s, &r)) in scores.iter().zip(&reference).enumerate() {
            prop_assert_eq!(s == f64::NEG_INFINITY, r == f64::NEG_INFINITY, "node {}", i);
            if r.is_finite() {
                prop_assert!((s - r).abs() < 1e-9, "node {}: {} vs {}", i, s, r);
            }
        }
        for a in 0..factors.len() {
            for b in 0..a {
                if factors[a] == factors[b] {
                    prop_assert_eq!(scores[a].to_bits(), scores[b].to_bits());
                }
            }
        }
    }

    /// Dominance is a partial order: reflexive (⪰), antisymmetric on ≻,
    /// transitive — for ⪰ on every generated triple, for ≻ whenever it
    /// holds pairwise.
    #[test]
    fn dominance_axioms(a in factor_strategy(), b in factor_strategy(), c in factor_strategy()) {
        prop_assert!(a.dominates(&a));
        prop_assert!(!a.strictly_dominates(&a));
        prop_assert!(!(a.strictly_dominates(&b) && b.strictly_dominates(&a)));
        if a.dominates(&b) && b.dominates(&c) {
            prop_assert!(a.dominates(&c));
        }
        if a.strictly_dominates(&b) && b.strictly_dominates(&c) {
            prop_assert!(a.strictly_dominates(&c));
        }
    }

    /// Eq. 9 edge weights are positive on strict dominance and bounded by 1.
    #[test]
    fn edge_weight_bounds(a in factor_strategy(), b in factor_strategy()) {
        if a.strictly_dominates(&b) {
            let w = a.edge_weight(&b);
            prop_assert!(w > 0.0 && w <= 1.0, "w={w}");
        }
    }

    /// Eq. 9 is antisymmetric as a function of its endpoints —
    /// `w(a, b) == -w(b, a)` exactly (the factor differences negate
    /// term-by-term, so no epsilon is needed) — and zero on the diagonal.
    #[test]
    fn edge_weight_antisymmetric(a in factor_strategy(), b in factor_strategy()) {
        prop_assert_eq!(a.edge_weight(&b), -b.edge_weight(&a));
        prop_assert_eq!(a.edge_weight(&a), 0.0);
    }

    /// Pruned and naive graph construction agree exactly on edges and
    /// on the final ranking.
    #[test]
    fn pruned_equals_naive(factors in factors_vec(60)) {
        let naive = DominanceGraph::build_naive(&factors);
        let pruned = DominanceGraph::build_pruned(&factors);
        prop_assert_eq!(naive.edge_count(), pruned.edge_count());
        for u in 0..factors.len() {
            for v in 0..factors.len() {
                prop_assert_eq!(naive.has_edge(u, v), pruned.has_edge(u, v));
            }
        }
        prop_assert_eq!(naive.ranking(), pruned.ranking());
    }

    /// The strict-dominance graph is acyclic: scores terminate and every
    /// node gets a finite log-score or -inf.
    #[test]
    fn graph_scores_terminate(factors in factors_vec(60)) {
        let g = DominanceGraph::build_pruned(&factors);
        let scores = g.log_scores();
        prop_assert_eq!(scores.len(), factors.len());
        for s in scores {
            prop_assert!(s == f64::NEG_INFINITY || s.is_finite());
        }
    }

    /// top_k output is a prefix of the full ranking, which is a
    /// permutation.
    #[test]
    fn topk_is_ranking_prefix((factors, k) in (factors_vec(40), 0usize..50)) {
        let g = DominanceGraph::build_pruned(&factors);
        let full = g.ranking();
        let mut sorted = full.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..factors.len()).collect::<Vec<_>>());
        let top = g.top_k(k);
        prop_assert_eq!(top.as_slice(), &full[..k.min(factors.len())]);
    }

    /// A node that strictly dominates another never ranks below it.
    #[test]
    fn dominance_respected_in_ranking(factors in factors_vec(30)) {
        let g = DominanceGraph::build_pruned(&factors);
        let ranking = g.ranking();
        let pos = |i: usize| ranking.iter().position(|&x| x == i).unwrap();
        for u in 0..factors.len() {
            for v in 0..factors.len() {
                if u != v && factors[u].strictly_dominates(&factors[v]) {
                    prop_assert!(
                        pos(u) < pos(v),
                        "dominating node {u} ranked below {v}"
                    );
                }
            }
        }
    }

    /// Hybrid combine is a permutation and matches the extremes: pure LTR
    /// at α=0, pure partial order as α→∞.
    #[test]
    fn hybrid_combine_laws(n in 1usize..30, seed in 0u64..1000) {
        // Two deterministic pseudo-random permutations of 0..n.
        let perm = |s: u64| {
            let mut v: Vec<usize> = (0..n).collect();
            let mut state = s.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v.swap(i, (state as usize) % (i + 1));
            }
            v
        };
        let ltr = perm(seed);
        let po = perm(seed ^ 0xabcdef);
        let combined = HybridRanker::new(1.0).combine(&ltr, &po);
        let mut sorted = combined.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(HybridRanker::new(0.0).combine(&ltr, &po), ltr.clone());
        prop_assert_eq!(HybridRanker::new(1e9).combine(&ltr, &po), po.clone());
    }
}

/// compute_factors on a real node set always yields normalized triples.
#[test]
fn compute_factors_normalized_on_real_nodes() {
    let table = deepeye_data::TableBuilder::new("t")
        .text("cat", ["a", "b", "c", "a", "b", "c", "a", "b"])
        .numeric("v", [1.0, 5.0, 2.0, 4.0, 3.0, 8.0, 2.0, 6.0])
        .numeric("w", [2.0, 10.0, 4.0, 8.0, 6.0, 16.0, 4.0, 12.0])
        .build()
        .unwrap();
    let nodes = deepeye_core::DeepEye::with_defaults().candidates(&table);
    assert!(!nodes.is_empty());
    let factors = compute_factors(&nodes);
    for f in &factors {
        assert!((0.0..=1.0).contains(&f.m));
        assert!((0.0..=1.0).contains(&f.q));
        assert!((0.0..=1.0).contains(&f.w));
    }
    // Normalization attains 1 somewhere for W.
    assert!(factors.iter().any(|f| (f.w - 1.0).abs() < 1e-9));
}
