//! The three ranking methods DeepEye compares (§III, §IV): partial order,
//! learning-to-rank (LambdaMART over the 14-feature vectors), and the
//! hybrid combination of §IV-D.

use crate::graph::{partial_order_log_scores, rank_order};
use crate::node::VisNode;
use crate::partial_order::{compute_factors, Factors};
use deepeye_ml::{LambdaMart, LambdaMartParams, QueryGroup};

/// Rank a set of valid nodes with the partial-order scores (Algorithm 1).
/// Returns node indices best-first; see [`rank_by_factors`].
pub fn rank_by_partial_order(nodes: &[VisNode]) -> Vec<usize> {
    rank_by_factors(&compute_factors(nodes))
}

/// The partial-order ranking of nodes whose factors are already computed
/// (by [`compute_factors`]), best-first by [`partial_order_log_scores`].
/// Ties break by factor sum, then by index, exactly like
/// [`crate::graph::DominanceGraph::top_k`]. Equal triples score
/// bit-identically, so ORDER BY twins tie and keep index order.
pub fn rank_by_factors(factors: &[Factors]) -> Vec<usize> {
    rank_order(&partial_order_log_scores(factors), factors)
}

/// [`rank_by_factors`] under a `rank.partial_order` span.
pub fn rank_by_factors_observed(factors: &[Factors], obs: &deepeye_obs::Observer) -> Vec<usize> {
    let _span = obs.span("rank.partial_order");
    rank_by_factors(factors)
}

/// A trained learning-to-rank model over visualization nodes.
#[derive(Debug, Clone)]
pub struct LtrRanker {
    model: LambdaMart,
}

/// One training "query" for the ranker: a dataset's candidate nodes with
/// graded relevance (higher = better, e.g. from merged human comparisons).
#[derive(Debug, Clone)]
pub struct RankingExample {
    pub features: Vec<Vec<f64>>,
    pub relevance: Vec<f64>,
}

impl LtrRanker {
    /// Train LambdaMART on per-dataset ranking examples.
    pub fn train(examples: &[RankingExample], params: LambdaMartParams) -> Self {
        let groups: Vec<QueryGroup> = examples
            .iter()
            .map(|e| QueryGroup::new(e.features.clone(), e.relevance.clone()))
            .collect();
        LtrRanker {
            model: LambdaMart::train(&groups, params),
        }
    }

    pub fn fit(examples: &[RankingExample]) -> Self {
        Self::train(examples, LambdaMartParams::default())
    }

    /// Ranking score of a node (higher = better).
    pub fn score(&self, node: &VisNode) -> f64 {
        self.model.score(&node.feature_vector())
    }

    /// Ranking score of a raw feature vector (e.g. the paper-faithful
    /// original-column features of [`crate::features::pair_feature_vector`]).
    pub fn score_features(&self, features: &[f64]) -> f64 {
        self.model.score(features)
    }

    /// Rank nodes best-first.
    pub fn rank(&self, nodes: &[VisNode]) -> Vec<usize> {
        let scores: Vec<f64> = nodes.iter().map(|n| self.score(n)).collect();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order
    }

    /// [`LtrRanker::rank`] under a `rank.ltr` span.
    pub fn rank_observed(&self, nodes: &[VisNode], obs: &deepeye_obs::Observer) -> Vec<usize> {
        let _span = obs.span("rank.ltr");
        self.rank(nodes)
    }

    /// Rank arbitrary feature vectors best-first. Exact score ties (e.g.
    /// transform variants of one combo under transform-blind features) are
    /// broken by a deterministic hash of the index — an *uninformed*
    /// shuffle — rather than input order, so the ranker is not silently
    /// credited with the candidate generator's ordering heuristics.
    pub fn rank_features(&self, features: &[Vec<f64>]) -> Vec<usize> {
        let scores: Vec<f64> = features.iter().map(|f| self.score_features(f)).collect();
        let tie_key = |i: usize| (i as u64).wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let mut order: Vec<usize> = (0..features.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .total_cmp(&scores[a])
                .then_with(|| tie_key(a).cmp(&tie_key(b)))
        });
        order
    }
}

impl LtrRanker {
    /// Serialize the trained ranker.
    pub fn to_text(&self) -> String {
        self.model.to_text()
    }

    /// Decode a ranker saved by [`LtrRanker::to_text`].
    pub fn from_text(text: &str) -> Result<Self, deepeye_ml::PersistError> {
        Ok(LtrRanker {
            model: LambdaMart::from_text(text)?,
        })
    }
}

/// HybridRank (§IV-D): combine the two rankings by position. A node at
/// position `l_v` under learning-to-rank and `p_v` under the partial order
/// gets combined score `l_v + α·p_v` (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridRanker {
    /// Preference weight α of the partial order relative to LTR.
    pub alpha: f64,
}

impl Default for HybridRanker {
    fn default() -> Self {
        HybridRanker { alpha: 1.0 }
    }
}

impl HybridRanker {
    pub fn new(alpha: f64) -> Self {
        HybridRanker { alpha }
    }

    /// The §IV-D combined score for a node at position `l_pos` under LTR
    /// and `p_pos` under the partial order: `l_v + α·p_v`, lower is
    /// better. Provenance records recompute exactly this expression, so
    /// the exported hybrid parts reconcile with the ranking by
    /// construction.
    pub fn combined_score(&self, l_pos: usize, p_pos: usize) -> f64 {
        l_pos as f64 + self.alpha * p_pos as f64
    }

    /// Combine two rankings (each a best-first list of node indices over
    /// the same node set) into a hybrid best-first list.
    pub fn combine(&self, ltr_order: &[usize], po_order: &[usize]) -> Vec<usize> {
        let n = ltr_order.len();
        debug_assert_eq!(n, po_order.len(), "rankings must cover the same nodes");
        let mut l_pos = vec![0usize; n];
        let mut p_pos = vec![0usize; n];
        for (pos, &node) in ltr_order.iter().enumerate() {
            l_pos[node] = pos;
        }
        for (pos, &node) in po_order.iter().enumerate() {
            p_pos[node] = pos;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let sa = self.combined_score(l_pos[a], p_pos[a]);
            let sb = self.combined_score(l_pos[b], p_pos[b]);
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        order
    }

    /// Rank nodes with both methods and combine.
    pub fn rank(&self, ltr: &LtrRanker, nodes: &[VisNode]) -> Vec<usize> {
        let ltr_order = ltr.rank(nodes);
        let po_order = rank_by_partial_order(nodes);
        self.combine(&ltr_order, &po_order)
    }

    /// Learn α from labeled data (§IV-D: "the preference weight … can be
    /// learned by some labelled data"): grid-search the α that maximizes
    /// mean NDCG of the combined ranking over validation groups, where each
    /// group provides both rankings and gold relevance grades per node.
    pub fn learn_alpha(
        groups: &[(Vec<usize>, Vec<usize>, Vec<f64>)], // (ltr order, po order, relevance by node)
    ) -> Self {
        const GRID: [f64; 9] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0];
        let mut best = (f64::NEG_INFINITY, 1.0);
        for &alpha in &GRID {
            let ranker = HybridRanker::new(alpha);
            let mut total = 0.0;
            for (ltr_order, po_order, relevance) in groups {
                let combined = ranker.combine(ltr_order, po_order);
                let ranked_rel: Vec<f64> = combined.iter().map(|&i| relevance[i]).collect();
                total += deepeye_ml::ndcg(&ranked_rel);
            }
            let mean = if groups.is_empty() {
                0.0
            } else {
                total / groups.len() as f64
            };
            if mean > best.0 {
                best = (mean, alpha);
            }
        }
        HybridRanker::new(best.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepeye_data::{Table, TableBuilder};
    use deepeye_query::{Aggregate, ChartType, SortOrder, Transform, UdfRegistry, VisQuery};

    fn table() -> Table {
        TableBuilder::new("t")
            .text("carrier", ["UA", "AA", "UA", "MQ", "OO", "AA", "UA", "MQ"])
            .numeric("delay", [5.0, 3.0, -1.0, 2.0, -9.0, 4.0, 1.0, 7.0])
            .numeric(
                "passengers",
                [10.0, 30.0, 20.0, 25.0, 40.0, 35.0, 15.0, 22.0],
            )
            .build()
            .unwrap()
    }

    fn nodes() -> Vec<VisNode> {
        let t = table();
        let mk = |chart, y: &str, agg| {
            VisNode::build(
                &t,
                VisQuery {
                    chart,
                    x: "carrier".into(),
                    y: Some(y.into()),
                    transform: Transform::Group,
                    aggregate: agg,
                    order: SortOrder::None,
                },
                &UdfRegistry::default(),
            )
            .unwrap()
        };
        vec![
            mk(ChartType::Bar, "passengers", Aggregate::Avg),
            mk(ChartType::Pie, "passengers", Aggregate::Sum),
            mk(ChartType::Pie, "delay", Aggregate::Sum), // negative slices: bad
            mk(ChartType::Bar, "delay", Aggregate::Avg),
        ]
    }

    #[test]
    fn partial_order_ranking_is_permutation() {
        let ns = nodes();
        let order = rank_by_partial_order(&ns);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ns.len()).collect::<Vec<_>>());
    }

    #[test]
    fn partial_order_puts_negative_pie_last_among_pies() {
        let ns = nodes();
        let order = rank_by_partial_order(&ns);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(2), "SUM pie should outrank negative-slice pie");
    }

    #[test]
    fn ltr_learns_simple_preference() {
        let ns = nodes();
        // Teach the ranker that bar charts (chart code 0) are best.
        let features: Vec<Vec<f64>> = ns.iter().map(VisNode::feature_vector).collect();
        let relevance: Vec<f64> = ns
            .iter()
            .map(|n| {
                if n.chart_type() == ChartType::Bar {
                    2.0
                } else {
                    0.0
                }
            })
            .collect();
        let examples = vec![
            RankingExample {
                features,
                relevance
            };
            3
        ];
        let ranker = LtrRanker::fit(&examples);
        let order = ranker.rank(&ns);
        assert_eq!(ns[order[0]].chart_type(), ChartType::Bar);
        assert_eq!(ns[order[1]].chart_type(), ChartType::Bar);
    }

    #[test]
    fn hybrid_with_zero_alpha_is_ltr() {
        let ltr = vec![2usize, 0, 3, 1];
        let po = vec![1usize, 3, 0, 2];
        let h = HybridRanker::new(0.0);
        assert_eq!(h.combine(&ltr, &po), ltr);
    }

    #[test]
    fn hybrid_with_large_alpha_follows_partial_order() {
        let ltr = vec![2usize, 0, 3, 1];
        let po = vec![1usize, 3, 0, 2];
        let h = HybridRanker::new(1e6);
        assert_eq!(h.combine(&ltr, &po), po);
    }

    #[test]
    fn hybrid_combines_positions() {
        // Node 0: positions (0, 2) → 0 + 2α; node 1: (1, 0) → 1.
        let ltr = vec![0usize, 1, 2];
        let po = vec![1usize, 2, 0];
        let h = HybridRanker::new(1.0);
        // Scores: n0 = 0+2 = 2, n1 = 1+0 = 1, n2 = 2+1 = 3.
        assert_eq!(h.combine(&ltr, &po), vec![1, 0, 2]);
    }

    #[test]
    fn learn_alpha_prefers_the_better_signal() {
        // Gold relevance agrees with the PO order, LTR is scrambled:
        // learning should pick a large α.
        let po = vec![0usize, 1, 2, 3];
        let ltr = vec![3usize, 2, 1, 0];
        let relevance = vec![3.0, 2.0, 1.0, 0.0];
        let groups = vec![(ltr, po, relevance)];
        let learned = HybridRanker::learn_alpha(&groups);
        // α ≥ 1 lets the partial order dominate (at α = 1 the scores tie
        // and the deterministic tie-break already restores gold order).
        assert!(learned.alpha >= 1.0, "alpha={}", learned.alpha);
        // And the reverse.
        let po = vec![3usize, 2, 1, 0];
        let ltr = vec![0usize, 1, 2, 3];
        let relevance = vec![3.0, 2.0, 1.0, 0.0];
        let learned = HybridRanker::learn_alpha(&[(ltr, po, relevance)]);
        assert_eq!(learned.alpha, 0.0);
    }

    #[test]
    fn learn_alpha_empty_is_default_scale() {
        let learned = HybridRanker::learn_alpha(&[]);
        assert!(learned.alpha.is_finite());
    }
}
