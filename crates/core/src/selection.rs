//! Greedy selection of group links (Algorithm 2) and record-link
//! extraction from the accepted subgraphs.

use crate::group_sim::GroupScore;
use crate::prematch::PreMatch;
use census_model::{GroupMapping, HouseholdId, RecordId, RecordMapping};
use hhgraph::MatchedSubgraph;
use std::collections::HashMap;

/// One candidate group pair with its matched subgraph and scores — the
/// quadruple `⟨g_i, g_{i+1}, g_sub, g_sim⟩` of Algorithm 2.
#[derive(Debug, Clone)]
pub struct ScoredSubgroup {
    /// Old-census household.
    pub old: HouseholdId,
    /// New-census household.
    pub new: HouseholdId,
    /// The matched common subgraph.
    pub sub: MatchedSubgraph,
    /// Each vertex's `(old, new)` record position in the pre-matching's
    /// index space, parallel to `sub.vertices`.
    pub positions: Box<[(u32, u32)]>,
    /// Component scores (Eq. 5–7).
    pub score: GroupScore,
    /// Aggregated similarity (Eq. 4).
    pub g_sim: f64,
}

impl ScoredSubgroup {
    /// The positions of vertex `(o, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `(o, n)` is not a vertex of the subgraph.
    #[must_use]
    pub fn position_of(&self, o: RecordId, n: RecordId) -> (u32, u32) {
        let k = self
            .sub
            .vertices
            .iter()
            .position(|&v| v == (o, n))
            .expect("record link is a vertex of its subgraph");
        self.positions[k]
    }
}

/// Why Algorithm 2 skipped a candidate group pair, for decision
/// provenance. Conflict variants carry the index (into the candidate
/// slice) of the already-accepted winner whose claimed records blocked
/// this candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The matched subgraph had no vertices.
    EmptySubgraph,
    /// `g_sim` fell below the `min_g_sim` acceptance floor.
    BelowMinGSim,
    /// A record-disjointness conflict with a winner of strictly higher
    /// `g_sim`.
    LowerGSim {
        /// Candidate index of the blocking winner.
        winner: usize,
    },
    /// A record-disjointness conflict with a winner of equal `g_sim`
    /// that sorted earlier under the `(old, new)` ascending tie-break.
    TieBreak {
        /// Candidate index of the blocking winner.
        winner: usize,
    },
}

/// The outcome of one selection round: the winners, the record links
/// they produced, and (when auditing) the losers with reasons.
#[derive(Debug, Clone, Default)]
pub struct SelectionOutcome {
    /// Indices into the candidate slice of the accepted group pairs, in
    /// acceptance order.
    pub accepted: Vec<usize>,
    /// Every record link added, with the candidate index of the
    /// subgroup it was extracted from (for provenance).
    pub added: Vec<(RecordId, RecordId, usize)>,
    /// When auditing: every skipped candidate with its reason, in
    /// consideration order. Empty otherwise.
    pub rejections: Vec<(usize, RejectReason)>,
}

/// Algorithm 2's acceptance floor: whether a candidate scoring `g_sim`
/// is skipped as [`RejectReason::BelowMinGSim`]. The linker applies the
/// same test before materialising a candidate, so a candidate it drops
/// is exactly one selection would skip.
pub(crate) fn below_min_g_sim(g_sim: f64, min_g_sim: f64) -> bool {
    g_sim < min_g_sim
}

/// Core of Algorithm 2: greedy acceptance in descending `g_sim` order
/// under record-disjointness. Claimed records map to the index of the
/// winner that claimed them so conflicts can be attributed; rejection
/// records are only pushed when `audit` is set.
fn run_selection(
    candidates: &[ScoredSubgroup],
    min_g_sim: f64,
    audit: bool,
) -> (Vec<usize>, Vec<(usize, RejectReason)>) {
    // descending g_sim; deterministic tie-break on household ids — sort
    // extracted keys instead of indices so comparisons stay in cache
    let mut order: Vec<(f64, HouseholdId, HouseholdId, usize)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (c.g_sim, c.old, c.new, i))
        .collect();
    order.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });

    // records of each household already claimed by accepted links,
    // mapped to the claiming candidate's index
    let mut linked_old: HashMap<HouseholdId, HashMap<RecordId, usize>> = HashMap::new();
    let mut linked_new: HashMap<HouseholdId, HashMap<RecordId, usize>> = HashMap::new();
    let mut accepted = Vec::new();
    let mut rejections = Vec::new();

    for (_, _, _, idx) in order {
        let cand = &candidates[idx];
        if cand.sub.vertices.is_empty() {
            if audit {
                rejections.push((idx, RejectReason::EmptySubgraph));
            }
            continue;
        }
        if below_min_g_sim(cand.g_sim, min_g_sim) {
            if audit {
                rejections.push((idx, RejectReason::BelowMinGSim));
            }
            continue;
        }
        let old_blocker = linked_old.get(&cand.old).and_then(|m| {
            cand.sub
                .vertices
                .iter()
                .find_map(|&(o, _)| m.get(&o).copied())
        });
        let new_blocker = linked_new.get(&cand.new).and_then(|m| {
            cand.sub
                .vertices
                .iter()
                .find_map(|&(_, n)| m.get(&n).copied())
        });
        if let Some(winner) = old_blocker.or(new_blocker) {
            if audit {
                // the acceptance order compares g_sim exactly, so only
                // an exactly equal winner won on the household tie-break
                let reason = if candidates[winner].g_sim == cand.g_sim {
                    RejectReason::TieBreak { winner }
                } else {
                    RejectReason::LowerGSim { winner }
                };
                rejections.push((idx, reason));
            }
            continue;
        }
        let old_claims = linked_old.entry(cand.old).or_default();
        for &(o, _) in &cand.sub.vertices {
            old_claims.insert(o, idx);
        }
        let new_claims = linked_new.entry(cand.new).or_default();
        for &(_, n) in &cand.sub.vertices {
            new_claims.insert(n, idx);
        }
        accepted.push(idx);
    }
    (accepted, rejections)
}

/// Algorithm 2: greedily accept candidate group pairs in descending
/// `g_sim` order, subject to record-disjointness per household —
/// a household may link to several counterparts (N:M), but only through
/// disjoint member subsets.
///
/// `min_g_sim` extends the paper's algorithm with a minimum acceptance
/// score: single-vertex, zero-edge subgraphs between unrelated households
/// otherwise sail through unopposed (the paper's hand-curated reference
/// set of large households hides this case). Pass `0.0` for the strict
/// paper behaviour.
///
/// Returns, for each accepted group pair in acceptance order, the index
/// into `candidates` it came from.
#[must_use]
pub fn select_group_links(candidates: &[ScoredSubgroup], min_g_sim: f64) -> Vec<usize> {
    run_selection(candidates, min_g_sim, false).0
}

/// Extract record links from an accepted subgraph into the global record
/// mapping (paper line 11, `extractRecordMapping`).
///
/// Vertices may share records when a household contains several
/// equal-label members; links are taken greedily in descending
/// (edge-degree, pair-similarity) order so the structurally
/// best-supported pair wins, and the 1:1 constraint of
/// [`RecordMapping::insert`] rejects the rest. `positions` places the
/// vertices in `pre` (see [`ScoredSubgroup::positions`]). Returns the
/// links added, in acceptance order.
pub fn extract_record_links(
    sub: &MatchedSubgraph,
    positions: &[(u32, u32)],
    pre: &PreMatch,
    fallback_sim: f64,
    mapping: &mut RecordMapping,
) -> Vec<(RecordId, RecordId)> {
    let mut degree = vec![0usize; sub.vertices.len()];
    for e in &sub.edges {
        degree[e.u] += 1;
        degree[e.v] += 1;
    }
    let sims: Vec<f64> = positions
        .iter()
        .map(|&(p, q)| pre.sim(p as usize, q as usize).unwrap_or(fallback_sim))
        .collect();
    let mut order: Vec<usize> = (0..sub.vertices.len()).collect();
    order.sort_by(|&a, &b| {
        degree[b]
            .cmp(&degree[a])
            .then(
                sims[b]
                    .partial_cmp(&sims[a])
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then_with(|| sub.vertices[a].cmp(&sub.vertices[b]))
    });
    let mut added = Vec::new();
    for idx in order {
        let (o, n) = sub.vertices[idx];
        if !mapping.contains_old(o) && !mapping.contains_new(n) && mapping.insert(o, n) {
            added.push((o, n));
        }
    }
    added
}

/// Convenience: run selection and extraction, extending `groups` and
/// `records`. Returns the full [`SelectionOutcome`]; `audit` additionally
/// collects every skipped candidate with its [`RejectReason`] (the
/// accept/reject decisions themselves are identical either way).
pub fn select_and_extract(
    candidates: &[ScoredSubgroup],
    pre: &PreMatch,
    fallback_sim: f64,
    min_g_sim: f64,
    audit: bool,
    groups: &mut GroupMapping,
    records: &mut RecordMapping,
) -> SelectionOutcome {
    let (accepted, rejections) = run_selection(candidates, min_g_sim, audit);
    let mut added = Vec::new();
    for &idx in &accepted {
        let cand = &candidates[idx];
        groups.insert(cand.old, cand.new);
        for (o, n) in extract_record_links(&cand.sub, &cand.positions, pre, fallback_sim, records) {
            added.push((o, n, idx));
        }
    }
    SelectionOutcome {
        accepted,
        added,
        rejections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhgraph::SubgraphEdge;

    fn sub(vertices: Vec<(u64, u64)>, edges: usize) -> MatchedSubgraph {
        let n = vertices.len();
        MatchedSubgraph {
            vertices: vertices
                .into_iter()
                .map(|(o, n)| (RecordId(o), RecordId(n)))
                .collect(),
            edges: (0..edges.min(n.saturating_sub(1)))
                .map(|i| SubgraphEdge {
                    u: i,
                    v: i + 1,
                    rp_sim: 1.0,
                })
                .collect(),
            old_edge_count: 10,
            new_edge_count: 3,
        }
    }

    fn scored(old: u64, new: u64, vertices: Vec<(u64, u64)>, g_sim: f64) -> ScoredSubgroup {
        let edges = vertices.len().saturating_sub(1);
        ScoredSubgroup {
            old: HouseholdId(old),
            new: HouseholdId(new),
            positions: vertices
                .iter()
                .map(|&(o, n)| (o as u32, n as u32))
                .collect(),
            sub: sub(vertices, edges),
            score: GroupScore {
                avg_sim: 1.0,
                e_sim: 0.5,
                unique: 0.5,
            },
            g_sim,
        }
    }

    #[test]
    fn highest_g_sim_wins_conflicts() {
        // the paper's Fig. 4: household 0 links either new 0 (g_sim high)
        // or new 1 (low); shared old records force a choice
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11), (3, 12)], 0.9),
            scored(0, 1, vec![(0, 13), (1, 14), (3, 15)], 0.4),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted, vec![0]);
    }

    #[test]
    fn disjoint_subgroups_allow_n_to_m() {
        // household 0 splits into new 0 and new 1 with disjoint members
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11)], 0.9),
            scored(0, 1, vec![(2, 20), (3, 21)], 0.8),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted.len(), 2);
    }

    #[test]
    fn new_side_conflicts_also_block() {
        // two old households claim the same new records
        let cands = vec![
            scored(0, 5, vec![(0, 10), (1, 11)], 0.9),
            scored(1, 5, vec![(2, 10), (3, 11)], 0.8),
        ];
        let accepted = select_group_links(&cands, 0.0);
        assert_eq!(accepted, vec![0]);
    }

    #[test]
    fn empty_subgraphs_are_skipped() {
        let cands = vec![scored(0, 0, vec![], 0.9)];
        assert!(select_group_links(&cands, 0.0).is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let cands = vec![
            scored(1, 1, vec![(5, 15)], 0.5),
            scored(0, 0, vec![(4, 14)], 0.5),
        ];
        let accepted = select_group_links(&cands, 0.0);
        // same score: (old, new) ascending decides; both disjoint → both in
        assert_eq!(accepted, vec![1, 0]);
    }

    #[test]
    fn min_g_sim_filters_weak_candidates() {
        let cands = vec![
            scored(0, 0, vec![(0, 10)], 0.15),
            scored(1, 1, vec![(1, 11)], 0.35),
        ];
        let accepted = select_group_links(&cands, 0.2);
        assert_eq!(accepted, vec![1]);
        // strict paper behaviour keeps both
        assert_eq!(select_group_links(&cands, 0.0).len(), 2);
    }

    #[test]
    fn extraction_respects_one_to_one() {
        // two vertices sharing the same new record: only one survives
        let s = MatchedSubgraph {
            vertices: vec![
                (RecordId(0), RecordId(10)),
                (RecordId(1), RecordId(10)),
                (RecordId(2), RecordId(12)),
            ],
            edges: vec![SubgraphEdge {
                u: 0,
                v: 2,
                rp_sim: 1.0,
            }],
            old_edge_count: 3,
            new_edge_count: 3,
        };
        let pre = PreMatch::default();
        let mut m = RecordMapping::new();
        let added = extract_record_links(&s, &[(0, 0), (1, 0), (2, 2)], &pre, 0.5, &mut m);
        assert_eq!(added.len(), 2);
        // the degree-1 vertex (0,10) wins over the degree-0 (1,10)
        assert!(m.contains(RecordId(0), RecordId(10)));
        assert!(m.contains(RecordId(2), RecordId(12)));
        assert!(!m.contains_old(RecordId(1)));
    }

    #[test]
    fn extraction_prefers_higher_similarity_on_equal_degree() {
        let s = MatchedSubgraph {
            vertices: vec![(RecordId(0), RecordId(10)), (RecordId(1), RecordId(10))],
            old_edge_count: 1,
            new_edge_count: 1,
            ..MatchedSubgraph::default()
        };
        // old positions 0 and 1 both match new position 0
        let pre = PreMatch::from_sorted_pairs(2, 1, [(0, 0, 0.6), (1, 0, 0.9)]);
        let mut m = RecordMapping::new();
        extract_record_links(&s, &[(0, 0), (1, 0)], &pre, 0.5, &mut m);
        assert!(m.contains(RecordId(1), RecordId(10)));
    }

    #[test]
    fn select_and_extract_populates_both_mappings() {
        let cands = vec![scored(0, 0, vec![(0, 10), (1, 11)], 0.9)];
        let pre = PreMatch::default();
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(&cands, &pre, 0.5, 0.0, false, &mut groups, &mut records);
        assert_eq!(out.accepted, vec![0]);
        assert_eq!(out.added.len(), 2);
        assert!(out.added.iter().all(|&(_, _, idx)| idx == 0));
        assert!(out.rejections.is_empty());
        assert!(groups.contains(HouseholdId(0), HouseholdId(0)));
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn audit_attributes_rejections_without_changing_decisions() {
        let cands = vec![
            scored(0, 0, vec![(0, 10), (1, 11), (3, 12)], 0.9), // winner
            scored(0, 1, vec![(0, 13), (1, 14)], 0.4),          // conflict: lower g_sim
            scored(2, 2, vec![], 0.9),                          // empty subgraph
            scored(3, 3, vec![(7, 17)], 0.05),                  // below min_g_sim
        ];
        let pre = PreMatch::default();
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let audited = select_and_extract(&cands, &pre, 0.5, 0.2, true, &mut groups, &mut records);

        let mut groups2 = GroupMapping::new();
        let mut records2 = RecordMapping::new();
        let silent = select_and_extract(&cands, &pre, 0.5, 0.2, false, &mut groups2, &mut records2);
        assert_eq!(audited.accepted, silent.accepted);
        assert_eq!(audited.added, silent.added);
        assert!(silent.rejections.is_empty());

        assert_eq!(audited.accepted, vec![0]);
        let reasons: HashMap<usize, RejectReason> = audited.rejections.into_iter().collect();
        assert_eq!(reasons[&1], RejectReason::LowerGSim { winner: 0 });
        assert_eq!(reasons[&2], RejectReason::EmptySubgraph);
        assert_eq!(reasons[&3], RejectReason::BelowMinGSim);
    }

    #[test]
    fn audit_marks_equal_score_conflicts_as_tie_breaks() {
        // same g_sim, overlapping old records: (old, new) ascending wins
        let cands = vec![
            scored(1, 1, vec![(5, 15)], 0.5),
            scored(1, 0, vec![(5, 16)], 0.5),
        ];
        let pre = PreMatch::default();
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(&cands, &pre, 0.5, 0.0, true, &mut groups, &mut records);
        assert_eq!(out.accepted, vec![1]);
        assert_eq!(
            out.rejections,
            vec![(0, RejectReason::TieBreak { winner: 1 })]
        );
    }

    #[test]
    fn audit_marks_one_ulp_conflicts_as_lower_g_sim() {
        // a loser one ulp below its winner lost on g_sim, not on the
        // household tie-break (which would have preferred it)
        let g = 0.5f64;
        let below = f64::from_bits(g.to_bits() - 1);
        let cands = vec![
            scored(1, 1, vec![(5, 15)], g),
            scored(1, 0, vec![(5, 16)], below),
        ];
        let pre = PreMatch::default();
        let mut groups = GroupMapping::new();
        let mut records = RecordMapping::new();
        let out = select_and_extract(&cands, &pre, 0.5, 0.0, true, &mut groups, &mut records);
        assert_eq!(out.accepted, vec![0]);
        assert_eq!(
            out.rejections,
            vec![(1, RejectReason::LowerGSim { winner: 0 })]
        );
    }
}
