//! The dominance graph G(V, E) of §IV-C and Algorithm 1.
//!
//! Nodes are valid visualizations; a directed edge `u → v` with the weight
//! of Eq. 9 exists when `u ≻ v` (strictly better on the partial order).
//! Scores propagate as `S(v) = Σ_{(v,u)∈E} (w(v,u) + S(u))` and the top-k
//! nodes are those with the largest scores.
//!
//! [`DominanceGraph`] is Algorithm 1's data structure, kept for the pruning
//! ablations and as the reference the ranking path is tested against. The
//! ranking path itself scores with [`partial_order_log_scores`], which
//! needs no edge list.

use crate::partial_order::Factors;

/// Dominance graph over a set of factor triples.
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceGraph {
    factors: Vec<Factors>,
    /// Out-edges: `edges[u]` lists `(v, weight)` with `u ≻ v`.
    edges: Vec<Vec<(usize, f64)>>,
    /// Number of pairwise factor comparisons performed (for the pruning
    /// ablation bench).
    comparisons: usize,
}

impl DominanceGraph {
    /// Build by comparing every ordered pair — the baseline the paper calls
    /// "expensive to enumerate every node pair".
    pub fn build_naive(factors: &[Factors]) -> Self {
        let n = factors.len();
        let mut edges = vec![Vec::new(); n];
        let mut comparisons = 0;
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                comparisons += 1;
                if factors[u].strictly_dominates(&factors[v]) {
                    edges[u].push((v, factors[u].edge_weight(&factors[v])));
                }
            }
        }
        DominanceGraph {
            factors: factors.to_vec(),
            edges,
            comparisons,
        }
    }

    /// Build with the paper's quick-sort-style pruning: pick a pivot `v`,
    /// partition the rest into better (`v^≺`), worse (`v^≻`), and
    /// incomparable; every `(better, worse)` pair is then connected by
    /// transitivity without an explicit comparison.
    pub fn build_pruned(factors: &[Factors]) -> Self {
        let n = factors.len();
        let mut edges = vec![Vec::new(); n];
        let mut comparisons = 0usize;
        let all: Vec<usize> = (0..n).collect();
        partition_recurse(factors, &all, &mut edges, &mut comparisons);
        DominanceGraph {
            factors: factors.to_vec(),
            edges,
            comparisons,
        }
    }

    /// Assemble a graph from precomputed edges (used by the range-tree
    /// builder in [`crate::range_tree`]).
    pub(crate) fn from_edges(factors: Vec<Factors>, edges: Vec<Vec<(usize, f64)>>) -> Self {
        debug_assert_eq!(factors.len(), edges.len());
        DominanceGraph {
            factors,
            edges,
            comparisons: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.factors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    pub fn comparisons(&self) -> usize {
        self.comparisons
    }

    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Does the edge `u → v` exist?
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edges[u].iter().any(|&(t, _)| t == v)
    }

    /// The score S(v) of every node: 0 for sinks, otherwise the sum of
    /// `w(v, u) + S(u)` over out-edges. Returned in linear scale; on a
    /// densely dominated set the recurrence grows exponentially with chain
    /// length and may saturate to `+inf` — rank with [`Self::log_scores`]
    /// (which [`Self::top_k`] uses) when that matters.
    pub fn scores(&self) -> Vec<f64> {
        self.log_scores().into_iter().map(f64::exp).collect()
    }

    /// `ln S(v)` for every node (`-inf` for sinks). The log-space
    /// computation keeps the induced ranking exact even where linear S
    /// overflows: `ln Σ (w + S(u)) = logsumexp(logaddexp(ln w, ln S(u)))`.
    pub fn log_scores(&self) -> Vec<f64> {
        let n = self.len();
        let mut memo: Vec<Option<f64>> = vec![None; n];
        // Iterative DFS to avoid recursion depth issues on long chains.
        for start in 0..n {
            if memo[start].is_some() {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if memo[node].is_some() {
                    stack.pop();
                    continue;
                }
                if *child < self.edges[node].len() {
                    let next = self.edges[node][*child].0;
                    *child += 1;
                    if memo[next].is_none() {
                        stack.push((next, 0));
                    }
                } else {
                    // logsumexp over `ln(w) ⊕ ln S(u)` per edge.
                    let terms: Vec<f64> = self.edges[node]
                        .iter()
                        .map(|&(u, w)| {
                            let lw = if w > 0.0 { w.ln() } else { f64::NEG_INFINITY };
                            // Children are resolved before their parents by
                            // the DFS above; an unresolved child contributes
                            // nothing (ln 0).
                            log_add(lw, memo[u].unwrap_or(f64::NEG_INFINITY))
                        })
                        .collect();
                    memo[node] = Some(log_sum(&terms));
                    stack.pop();
                }
            }
        }
        memo.into_iter()
            .map(|s| s.unwrap_or(f64::NEG_INFINITY))
            .collect()
    }

    /// Algorithm 1: the indices of the top-k nodes by score, best first.
    /// Ties break toward the node with the larger factor sum, then by index
    /// (deterministic output).
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order = rank_order(&self.log_scores(), &self.factors);
        order.truncate(k);
        order
    }

    /// Full ranking (top-k with k = n).
    pub fn ranking(&self) -> Vec<usize> {
        self.top_k(self.len())
    }
}

/// Partial-order scores `ln S(v)` for a factor set, without building the
/// dominance graph.
///
/// Nodes with equal factor triples (ORDER BY variants, same-shape charts)
/// dominate and are dominated by exactly the same nodes, so they share one
/// score, and each contributes the same term to every node above them.
/// The scorer therefore groups nodes by triple, orders the G groups
/// lexicographically by `(m, q, w)` — a linear extension of strict
/// dominance, so every group a group dominates is scored before it — and
/// folds, for each group g over every group h it strictly dominates,
/// `ln S(g) = logsumexp_h [ln |h| + logaddexp(ln w(g,h), ln S(h))]`.
/// O(n log n + G²) time, O(n) memory, and no edge list. Agrees with
/// [`DominanceGraph::log_scores`] up to summation order, and equal triples
/// get bit-identical scores.
pub fn partial_order_log_scores(factors: &[Factors]) -> Vec<f64> {
    // `x + 0.0` maps -0.0 to 0.0, which float comparison already equates
    // but `total_cmp` would order below it.
    let key = |i: usize| {
        let f = factors[i];
        [f.m + 0.0, f.q + 0.0, f.w + 0.0]
    };
    let mut order: Vec<usize> = (0..factors.len()).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (key(a), key(b));
        ka[0]
            .total_cmp(&kb[0])
            .then(ka[1].total_cmp(&kb[1]))
            .then(ka[2].total_cmp(&kb[2]))
    });
    let groups: Vec<&[usize]> = order.chunk_by(|&a, &b| key(a) == key(b)).collect();

    let mut log_s = vec![f64::NEG_INFINITY; factors.len()];
    let mut group_log_s = Vec::with_capacity(groups.len());
    for (g, members) in groups.iter().enumerate() {
        let fg = factors[members[0]];
        let mut acc = f64::NEG_INFINITY;
        for (lower, &lower_log_s) in groups[..g].iter().zip(&group_log_s) {
            let fh = factors[lower[0]];
            if fg.strictly_dominates(&fh) {
                let w = fg.edge_weight(&fh);
                let lw = if w > 0.0 { w.ln() } else { f64::NEG_INFINITY };
                acc = log_add(acc, (lower.len() as f64).ln() + log_add(lw, lower_log_s));
            }
        }
        group_log_s.push(acc);
        for &i in *members {
            log_s[i] = acc;
        }
    }
    log_s
}

/// Node indices best-first by `ln S`; ties break toward the larger factor
/// sum, then the smaller index (deterministic output).
pub(crate) fn rank_order(log_scores: &[f64], factors: &[Factors]) -> Vec<usize> {
    let sum = |i: usize| factors[i].m + factors[i].q + factors[i].w;
    let mut order: Vec<usize> = (0..factors.len()).collect();
    order.sort_by(|&a, &b| {
        log_scores[b]
            .total_cmp(&log_scores[a])
            .then_with(|| sum(b).total_cmp(&sum(a)))
            .then(a.cmp(&b))
    });
    order
}

/// `ln(e^a + e^b)` with proper `-inf` handling.
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ e^{t_i}`; `-inf` for an empty slice (a sink's S = 0).
fn log_sum(terms: &[f64]) -> f64 {
    terms.iter().copied().fold(f64::NEG_INFINITY, log_add)
}

/// Recursive pivot partitioning. Adds the dominance edges *within* `set`.
fn partition_recurse(
    factors: &[Factors],
    set: &[usize],
    edges: &mut [Vec<(usize, f64)>],
    comparisons: &mut usize,
) {
    if set.len() < 2 {
        return;
    }
    // Brute force tiny sets: the bookkeeping outweighs the savings.
    if set.len() <= 8 {
        for (a, &u) in set.iter().enumerate() {
            for &v in set.iter().skip(a + 1) {
                *comparisons += 1;
                if factors[u].strictly_dominates(&factors[v]) {
                    edges[u].push((v, factors[u].edge_weight(&factors[v])));
                } else if factors[v].strictly_dominates(&factors[u]) {
                    edges[v].push((u, factors[v].edge_weight(&factors[u])));
                }
            }
        }
        return;
    }

    let pivot = set[set.len() / 2];
    let mut better = Vec::new(); // strictly dominate the pivot
    let mut worse = Vec::new(); // strictly dominated by the pivot
    let mut incomparable = Vec::new();
    for &v in set {
        if v == pivot {
            continue;
        }
        *comparisons += 1;
        if factors[v].strictly_dominates(&factors[pivot]) {
            edges[v].push((pivot, factors[v].edge_weight(&factors[pivot])));
            better.push(v);
        } else if factors[pivot].strictly_dominates(&factors[v]) {
            edges[pivot].push((v, factors[pivot].edge_weight(&factors[v])));
            worse.push(v);
        } else {
            incomparable.push(v);
        }
    }

    // Transitivity: every b ∈ better strictly dominates every w ∈ worse —
    // no comparison needed (b ≻ pivot ≻ w). Edge weights still come from
    // the factor difference, which is free to compute.
    for &b in &better {
        for &w in &worse {
            edges[b].push((w, factors[b].edge_weight(&factors[w])));
        }
    }

    // Cross pairs involving the incomparable set are not implied; resolve
    // them explicitly.
    for &i in &incomparable {
        for &other in better.iter().chain(&worse) {
            *comparisons += 1;
            if factors[i].strictly_dominates(&factors[other]) {
                edges[i].push((other, factors[i].edge_weight(&factors[other])));
            } else if factors[other].strictly_dominates(&factors[i]) {
                edges[other].push((i, factors[other].edge_weight(&factors[i])));
            }
        }
    }

    partition_recurse(factors, &better, edges, comparisons);
    partition_recurse(factors, &worse, edges, comparisons);
    partition_recurse(factors, &incomparable, edges, comparisons);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(m: f64, q: f64, w: f64) -> Factors {
        Factors { m, q, w }
    }

    /// The worked Example 5/6 of the paper: five nodes with known factors.
    /// Node order: 1(c), 1(d), 5(b), 5(c), 5(d).
    fn example_nodes() -> Vec<Factors> {
        vec![
            f(1.00, 0.99976, 0.89), // Figure 1(c)
            f(0.00, 0.99633, 0.52), // Figure 1(d)
            f(0.72, 0.99, 0.40),    // Figure 5(b)
            f(0.80, 0.99, 0.40),    // Figure 5(c) — dominates 5(b)
            f(0.30, 0.999, 0.60),   // Figure 5(d) — dominates 1(d)
        ]
    }

    #[test]
    fn example_6_edge_weight() {
        // w(1(c), 1(d)) from the paper: ((1−0) + (0.99976−0.99633) + (0.89−0.52))/3.
        let nodes = example_nodes();
        let w = nodes[0].edge_weight(&nodes[1]);
        assert!((w - 0.4578).abs() < 1e-4, "w={w}");
    }

    #[test]
    fn example_6_scores_and_topk() {
        let nodes = example_nodes();
        let g = DominanceGraph::build_naive(&nodes);
        // 1(c) ≻ 1(d); 5(d) ≻ 1(d); 5(c) ≻ 5(b).
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(4, 1));
        assert!(g.has_edge(3, 2));
        let scores = g.scores();
        // Sinks score zero.
        assert_eq!(scores[1], 0.0);
        assert_eq!(scores[2], 0.0);
        assert!(scores[0] > scores[4] && scores[4] > scores[3]);
        // Top-3 = 1(c), 5(d), 5(c) as in Example 6.
        assert_eq!(g.top_k(3), vec![0, 4, 3]);
    }

    #[test]
    fn pruned_equals_naive() {
        // Deterministic pseudo-random factor clouds of several sizes.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        for n in [3usize, 10, 37, 120] {
            let factors: Vec<Factors> = (0..n).map(|_| f(next(), next(), next())).collect();
            let naive = DominanceGraph::build_naive(&factors);
            let pruned = DominanceGraph::build_pruned(&factors);
            assert_eq!(naive.edge_count(), pruned.edge_count(), "n={n}");
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        naive.has_edge(u, v),
                        pruned.has_edge(u, v),
                        "edge {u}->{v}, n={n}"
                    );
                }
            }
            // Same ranking too.
            assert_eq!(naive.ranking(), pruned.ranking(), "n={n}");
        }
    }

    #[test]
    fn pruning_saves_comparisons_on_chains() {
        // A totally ordered chain is the best case for transitivity pruning.
        let factors: Vec<Factors> = (0..200)
            .map(|i| {
                let x = i as f64 / 200.0;
                f(x, x, x)
            })
            .collect();
        let naive = DominanceGraph::build_naive(&factors);
        let pruned = DominanceGraph::build_pruned(&factors);
        assert!(
            pruned.comparisons() * 2 < naive.comparisons(),
            "pruned {} vs naive {}",
            pruned.comparisons(),
            naive.comparisons()
        );
        assert_eq!(naive.edge_count(), pruned.edge_count());
    }

    #[test]
    fn scores_on_chain_accumulate() {
        // a ≻ b ≻ c: S(c)=0, S(b)=w(b,c), S(a)=w(a,b)+S(b)+w(a,c)+S(c).
        let factors = vec![f(1.0, 1.0, 1.0), f(0.5, 0.5, 0.5), f(0.0, 0.0, 0.0)];
        let g = DominanceGraph::build_naive(&factors);
        let s = g.scores();
        assert_eq!(s[2], 0.0);
        assert!((s[1] - 0.5).abs() < 1e-12);
        assert!((s[0] - (0.5 + (0.5 + 0.0) + 1.0)).abs() < 1e-12);
        assert_eq!(g.top_k(2), vec![0, 1]);
    }

    #[test]
    fn incomparable_nodes_tie_break_deterministically() {
        let factors = vec![f(1.0, 0.0, 0.0), f(0.0, 1.0, 0.0), f(0.0, 0.0, 1.0)];
        let g = DominanceGraph::build_naive(&factors);
        assert_eq!(g.edge_count(), 0);
        let order = g.ranking();
        assert_eq!(order, vec![0, 1, 2]); // all tie at S=0, index order
    }

    #[test]
    fn empty_and_singleton() {
        let g = DominanceGraph::build_pruned(&[]);
        assert!(g.is_empty());
        assert!(g.top_k(5).is_empty());
        let g = DominanceGraph::build_pruned(&[f(0.5, 0.5, 0.5)]);
        assert_eq!(g.top_k(5), vec![0]);
        assert_eq!(g.scores(), vec![0.0]);
    }

    #[test]
    fn equal_factors_produce_no_edges() {
        // ⪰ holds both ways but ≻ holds neither: no cycle, no edge.
        let factors = vec![f(0.5, 0.5, 0.5), f(0.5, 0.5, 0.5)];
        let g = DominanceGraph::build_naive(&factors);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let factors: Vec<Factors> = (0..2000)
            .map(|i| {
                let x = i as f64 / 2000.0;
                f(x, x, x)
            })
            .collect();
        let g = DominanceGraph::build_pruned(&factors);
        // Linear S overflows on a 2000-deep transitive chain, but the
        // log-space scores stay finite and the ranking stays exact.
        let log_scores = g.log_scores();
        assert!(log_scores[1..].iter().all(|s| s.is_finite()));
        assert_eq!(log_scores[0], f64::NEG_INFINITY); // the unique sink
        assert_eq!(g.top_k(1), vec![1999]);
        let ranking = g.ranking();
        // Full ranking is the exact reverse chain.
        assert!(ranking.windows(2).all(|w| w[0] > w[1]));
    }

    /// The next float above a positive `x`.
    fn ulp_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn one_ulp_dominance_is_scored() {
        // m one ulp apart: the factor sums round to the same value, which
        // let a sum-ordered scorer visit v before the u it dominates.
        let u = f(0.9827611485023496, 0.9, 0.9);
        let v = f(ulp_up(u.m), u.q, u.w);
        assert_eq!(v.m + v.q + v.w, u.m + u.q + u.w);
        assert!(v.strictly_dominates(&u));
        let scores = partial_order_log_scores(&[v, u]);
        assert!(scores[0].is_finite(), "v scored {}", scores[0]);
        assert_eq!(scores[1], f64::NEG_INFINITY);
        assert_eq!(scores, DominanceGraph::build_naive(&[v, u]).log_scores());
    }

    #[test]
    fn negative_zero_groups_with_zero() {
        let factors = vec![f(-0.0, 0.5, 0.5), f(0.0, 0.5, 0.5), f(0.0, 0.25, 0.5)];
        let scores = partial_order_log_scores(&factors);
        assert_eq!(scores[0].to_bits(), scores[1].to_bits());
        assert_eq!(scores, DominanceGraph::build_naive(&factors).log_scores());
    }

    #[test]
    fn grouped_scores_match_the_graph_on_a_large_duplicated_set() {
        // 4,500 nodes over 200 distinct triples, some one ulp apart.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut distinct: Vec<Factors> = (0..200)
            .map(|_| {
                let c = |x: u64| (x % 8) as f64 / 8.0;
                f(c(next()), c(next()), c(next()))
            })
            .collect();
        for i in (0..200).step_by(10) {
            distinct[i].m = ulp_up(distinct[i + 1].m.max(0.125));
            distinct[i].q = distinct[i + 1].q;
            distinct[i].w = distinct[i + 1].w;
        }
        let factors: Vec<Factors> = (0..4_500)
            .map(|_| distinct[(next() % 200) as usize])
            .collect();
        let scores = partial_order_log_scores(&factors);
        let reference = DominanceGraph::build_naive(&factors).log_scores();
        for (i, (&s, &r)) in scores.iter().zip(&reference).enumerate() {
            assert_eq!(s.is_finite(), r.is_finite(), "node {i}: {s} vs {r}");
            if s.is_finite() {
                assert!((s - r).abs() < 1e-9, "node {i}: {s} vs {r}");
            }
        }
    }

    #[test]
    fn identical_triples_score_bit_identically_and_tie_by_index() {
        let factors = vec![
            f(0.3, 0.3, 0.3),
            f(0.9, 0.8, 0.7),
            f(0.1, 0.2, 0.3),
            f(0.9, 0.8, 0.7),
            f(0.3, 0.3, 0.3),
            f(0.9, 0.8, 0.7),
        ];
        let scores = partial_order_log_scores(&factors);
        assert_eq!(scores[1].to_bits(), scores[3].to_bits());
        assert_eq!(scores[1].to_bits(), scores[5].to_bits());
        assert_eq!(scores[0].to_bits(), scores[4].to_bits());
        assert_eq!(
            crate::ranking::rank_by_factors(&factors),
            vec![1, 3, 5, 0, 4, 2]
        );
    }
}
