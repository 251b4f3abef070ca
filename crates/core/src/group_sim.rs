//! Group-pair similarity (§3.4, Eq. 4–7).

use crate::prematch::PreMatch;
use hhgraph::MatchedSubgraph;
use serde::{Deserialize, Serialize};

/// The three component scores of a candidate group pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupScore {
    /// Average aggregated record similarity over the subgraph's vertices
    /// (Eq. 5).
    pub avg_sim: f64,
    /// Dice-style edge similarity relating matched-edge quality to the
    /// total relationships of both groups (Eq. 6).
    pub e_sim: f64,
    /// Uniqueness: how exclusively the matched records' labels belong to
    /// this group pair (Eq. 7).
    pub unique: f64,
}

/// The weights `(α, β)` of the aggregated group similarity (Eq. 4);
/// the uniqueness weight is the remainder `1 − α − β`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SelectionWeights {
    /// Weight of the average record similarity.
    pub alpha: f64,
    /// Weight of the edge similarity.
    pub beta: f64,
}

impl SelectionWeights {
    /// Construct weights.
    ///
    /// # Panics
    ///
    /// Panics if `α`, `β` or `1 − α − β` is negative.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha >= 0.0 && beta >= 0.0, "weights must be non-negative");
        assert!(
            alpha + beta <= 1.0 + 1e-9,
            "α + β must not exceed 1 (the remainder weights uniqueness)"
        );
        Self { alpha, beta }
    }

    /// The paper's best configuration `(α, β) = (0.2, 0.7)` (Table 4).
    #[must_use]
    pub fn paper_best() -> Self {
        Self::new(0.2, 0.7)
    }

    /// The uniqueness weight `1 − α − β`.
    #[must_use]
    pub fn uniqueness_weight(self) -> f64 {
        (1.0 - self.alpha - self.beta).max(0.0)
    }

    /// Aggregated group similarity `g_sim` (Eq. 4).
    #[must_use]
    pub fn g_sim(self, score: &GroupScore) -> f64 {
        self.alpha * score.avg_sim
            + self.beta * score.e_sim
            + self.uniqueness_weight() * score.unique
    }
}

impl Default for SelectionWeights {
    fn default() -> Self {
        Self::paper_best()
    }
}

/// Compute the three component scores of a subgraph.
///
/// `positions` holds each vertex's `(old, new)` record position in
/// `pre`'s index space, parallel to `sub.vertices`. `fallback_sim` is
/// used as the record similarity of a vertex pair that was clustered
/// together transitively without a direct match pair (its direct
/// similarity is unknown but at least threshold-adjacent).
#[must_use]
pub fn score_subgraph(
    sub: &MatchedSubgraph,
    positions: &[(u32, u32)],
    pre: &PreMatch,
    fallback_sim: f64,
) -> GroupScore {
    debug_assert_eq!(positions.len(), sub.vertices.len());
    if sub.vertices.is_empty() {
        return GroupScore {
            avg_sim: 0.0,
            e_sim: 0.0,
            unique: 0.0,
        };
    }
    // Eq. 5: average record similarity
    let sum_sim: f64 = positions
        .iter()
        .map(|&(p, q)| pre.sim(p as usize, q as usize).unwrap_or(fallback_sim))
        .sum();
    let avg_sim = sum_sim / sub.vertices.len() as f64;

    // Eq. 6: Dice-style edge similarity over the enriched edge counts
    let denom = (sub.old_edge_count + sub.new_edge_count) as f64;
    let e_sim = if denom == 0.0 {
        0.0
    } else {
        2.0 * sub.edge_sim_sum() / denom
    };

    // Eq. 7: uniqueness — 2·|R_sub| over the summed cluster sizes of the
    // vertices' labels
    let label_mass: u64 = positions
        .iter()
        .map(|&(p, _)| {
            pre.old_label(p as usize)
                .map_or(0, |label| u64::from(pre.size_of_label(label)))
        })
        .sum();
    let unique = if label_mass == 0 {
        0.0
    } else {
        2.0 * sub.vertices.len() as f64 / label_mass as f64
    };

    GroupScore {
        avg_sim,
        e_sim,
        unique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::RecordId;
    use hhgraph::SubgraphEdge;

    /// Positions of the paper example's vertices: old `i` ↔ new `i`.
    const POS: [(u32, u32); 3] = [(0, 0), (1, 1), (2, 2)];

    /// A pre-matching over three old and `3 · (cluster − 1)` new records
    /// whose old record `i` matches new record `i` at similarity 1 plus
    /// `cluster − 2` further new records, so every vertex's label names
    /// a cluster of `cluster` records.
    fn prematch_with_clusters(cluster: u32) -> PreMatch {
        let extra = cluster - 2;
        let pairs: Vec<(u32, u32, f64)> = (0..3)
            .flat_map(|i| {
                let others = (0..extra).map(move |k| (i, 3 + i * extra + k, 0.9));
                std::iter::once((i, i, 1.0)).chain(others)
            })
            .collect();
        PreMatch::from_sorted_pairs(3, (3 + 3 * extra) as usize, pairs)
    }

    /// Build a synthetic subgraph + prematch mirroring the paper's worked
    /// example (Eq. 8): 3 vertices, 3 perfect edges, |E_i| = 10,
    /// |E_{i+1}| = 3, every label in a cluster of size 3.
    fn paper_example() -> (MatchedSubgraph, PreMatch) {
        let vertices = vec![
            (RecordId(0), RecordId(10)),
            (RecordId(1), RecordId(11)),
            (RecordId(3), RecordId(12)),
        ];
        let edges = vec![
            SubgraphEdge {
                u: 0,
                v: 1,
                rp_sim: 1.0,
            },
            SubgraphEdge {
                u: 0,
                v: 2,
                rp_sim: 1.0,
            },
            SubgraphEdge {
                u: 1,
                v: 2,
                rp_sim: 1.0,
            },
        ];
        let sub = MatchedSubgraph {
            vertices,
            edges,
            old_edge_count: 10,
            new_edge_count: 3,
        };
        (sub, prematch_with_clusters(3))
    }

    #[test]
    fn eq8_true_pair_scores() {
        let (sub, pre) = paper_example();
        let s = score_subgraph(&sub, &POS, &pre, 0.5);
        assert!((s.avg_sim - 1.0).abs() < 1e-9);
        assert!((s.e_sim - 2.0 * 3.0 / 13.0).abs() < 1e-9); // 0.4615…
        assert!((s.unique - 2.0 * 3.0 / 9.0).abs() < 1e-9); // 0.666…
    }

    #[test]
    fn eq8_decoy_pair_scores() {
        // Fig. 4 decoy: 2 vertices kept, 1 edge, |E_i| = 10, |E_{i+1}| = 3
        let (mut sub, pre) = paper_example();
        sub.vertices.truncate(2);
        sub.edges = vec![SubgraphEdge {
            u: 0,
            v: 1,
            rp_sim: 1.0,
        }];
        let s = score_subgraph(&sub, &POS[..2], &pre, 0.5);
        assert!((s.avg_sim - 1.0).abs() < 1e-9);
        assert!((s.e_sim - 2.0 / 13.0).abs() < 1e-9); // 0.1538…
        assert!((s.unique - 2.0 * 2.0 / 6.0).abs() < 1e-9); // 0.666…
    }

    #[test]
    fn paper_weights_prefer_true_pair() {
        // with any positive β the true pair must win (the paper's point)
        let (true_sub, pre) = paper_example();
        let (mut decoy, _) = paper_example();
        decoy.vertices.truncate(2);
        decoy.edges = vec![SubgraphEdge {
            u: 0,
            v: 1,
            rp_sim: 1.0,
        }];
        let w = SelectionWeights::paper_best();
        let g_true = w.g_sim(&score_subgraph(&true_sub, &POS, &pre, 0.5));
        let g_decoy = w.g_sim(&score_subgraph(&decoy, &POS[..2], &pre, 0.5));
        assert!(g_true > g_decoy, "{g_true} vs {g_decoy}");
    }

    #[test]
    fn alpha_only_cannot_separate() {
        // with (α, β) = (1, 0) both pairs score identically — exactly why
        // Table 4 shows that configuration losing
        let (true_sub, pre) = paper_example();
        let (mut decoy, _) = paper_example();
        decoy.vertices.truncate(2);
        decoy.edges = vec![SubgraphEdge {
            u: 0,
            v: 1,
            rp_sim: 1.0,
        }];
        let w = SelectionWeights::new(1.0, 0.0);
        let g_true = w.g_sim(&score_subgraph(&true_sub, &POS, &pre, 0.5));
        let g_decoy = w.g_sim(&score_subgraph(&decoy, &POS[..2], &pre, 0.5));
        assert!((g_true - g_decoy).abs() < 1e-9);
    }

    #[test]
    fn fallback_sim_fills_missing_pairs() {
        let (sub, _) = paper_example();
        // no direct match pairs at all (transitive-only clusters)
        let pre = PreMatch::from_sorted_pairs(3, 3, []);
        let s = score_subgraph(&sub, &POS, &pre, 0.6);
        assert!((s.avg_sim - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_subgraph_scores_zero() {
        let sub = MatchedSubgraph {
            old_edge_count: 10,
            new_edge_count: 3,
            ..MatchedSubgraph::default()
        };
        let pre = PreMatch::default();
        let s = score_subgraph(&sub, &[], &pre, 0.5);
        assert_eq!(s.avg_sim, 0.0);
        assert_eq!(s.e_sim, 0.0);
        assert_eq!(s.unique, 0.0);
    }

    #[test]
    fn uniqueness_is_one_for_exclusive_labels() {
        let (sub, _) = paper_example();
        let pre = prematch_with_clusters(2); // only the pair itself
        let s = score_subgraph(&sub, &POS, &pre, 0.5);
        assert!((s.unique - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weight_validation() {
        assert!((SelectionWeights::new(0.2, 0.7).uniqueness_weight() - 0.1).abs() < 1e-9);
        assert_eq!(SelectionWeights::new(0.5, 0.5).uniqueness_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn overweight_panics() {
        let _ = SelectionWeights::new(0.8, 0.8);
    }

    /// Positions outside the pre-matching have no label and add no
    /// label mass — guard the division.
    #[test]
    fn missing_labels_do_not_divide_by_zero() {
        let (sub, _) = paper_example();
        let s = score_subgraph(&sub, &POS, &PreMatch::default(), 0.5);
        assert_eq!(s.unique, 0.0);
    }
}
