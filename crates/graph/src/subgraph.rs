//! Common-subgraph matching between two enriched household graphs (§3.3).
//!
//! Vertices of the matched subgraph are cross-census record pairs with
//! equal pre-matching cluster labels; two vertices are connected iff both
//! endpoint pairs are connected in their own enriched graphs with the
//! *same relationship type* and *similar age differences*.

use crate::enrich::EnrichedGraph;
use census_model::{RecordId, RelType};
use textsim::age_difference_similarity;

/// Parameters of subgraph matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphConfig {
    /// Tolerance (in years) for comparing the age-difference property of
    /// two edges; similarity decays linearly and reaches 0 at the
    /// tolerance. The paper's footnote 2 uses 3 years.
    pub age_diff_tolerance: u32,
    /// Relationship-property similarity assumed for an edge pair whose age
    /// difference is missing on either side (missing ages must neither be
    /// free evidence nor a hard veto).
    pub missing_age_sim: f64,
    /// Minimum relationship-property similarity for an edge to enter the
    /// subgraph. `> 0.0` means "within the tolerance".
    pub min_edge_sim: f64,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        Self {
            age_diff_tolerance: 3,
            missing_age_sim: 0.5,
            min_edge_sim: 1e-9,
        }
    }
}

/// One matched edge: indices into [`MatchedSubgraph::vertices`] plus the
/// relationship-property similarity `rp_sim` of the underlying edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgraphEdge {
    /// First vertex index.
    pub u: usize,
    /// Second vertex index.
    pub v: usize,
    /// Relationship-property similarity in `[0, 1]`.
    pub rp_sim: f64,
}

/// The common subgraph of one household pair.
#[derive(Debug, Clone, Default)]
pub struct MatchedSubgraph {
    /// Vertices: `(old record, new record)` pairs with equal labels.
    pub vertices: Vec<(RecordId, RecordId)>,
    /// Matched edges between vertices.
    pub edges: Vec<SubgraphEdge>,
    /// `|E_i|` of the old enriched graph (complete-graph edge count),
    /// kept for the Dice-style edge-similarity denominator (Eq. 6).
    pub old_edge_count: usize,
    /// `|E_{i+1}|` of the new enriched graph.
    pub new_edge_count: usize,
}

impl MatchedSubgraph {
    /// Whether the subgraph is empty (no shared labels).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Compute the common subgraph of two enriched graphs.
///
/// `label_of_old` / `label_of_new` map record ids of the old / new census
/// to their pre-matching cluster labels; records without a label never
/// match. (Record ids are snapshot-local, so the two sides need separate
/// label functions.) Vertices are equal-label cross pairs that also pass
/// `accept` — the linkage pipeline passes the direct match-pair predicate
/// here, because at relaxed thresholds the transitive closure can fuse
/// most frequent-name records into one giant cluster, and raw label
/// equality would then pair every John with every John. A record may
/// still appear in several vertices when the other household has several
/// accepted candidates — the later group-link selection and record-link
/// extraction resolve that.
pub fn match_subgraph<F, G, A>(
    old: &EnrichedGraph,
    new: &EnrichedGraph,
    label_of_old: F,
    label_of_new: G,
    accept: A,
    config: &SubgraphConfig,
) -> MatchedSubgraph
where
    F: Fn(RecordId) -> Option<u64>,
    G: Fn(RecordId) -> Option<u64>,
    A: Fn(RecordId, RecordId) -> bool,
{
    let mut scratch = SubgraphScratch::default();
    match_subgraph_with(
        old,
        new,
        |i| label_of_old(old.nodes()[i]),
        |j| label_of_new(new.nodes()[j]),
        |i, j| accept(old.nodes()[i], new.nodes()[j]),
        config,
        &mut scratch,
    );
    scratch.materialize(old, new)
}

/// The working buffers and the result of [`match_subgraph_with`]:
/// households are small, so on a candidate sweep the per-call label,
/// vertex and edge vectors cost more in allocator traffic than the
/// matching itself. The last matched subgraph stays here in node-index
/// form until the next call; [`SubgraphScratch::materialize`] copies it
/// out as a [`MatchedSubgraph`] when the caller wants to keep it.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    old_labels: Vec<Option<u64>>,
    new_labels: Vec<Option<u64>>,
    vert_idx: Vec<(usize, usize)>,
    edges: Vec<SubgraphEdge>,
    edge_counts: (usize, usize),
}

impl SubgraphScratch {
    /// Node indices `(old node, new node)` of each vertex of the subgraph
    /// last matched with this scratch.
    #[must_use]
    pub fn vertex_nodes(&self) -> &[(usize, usize)] {
        &self.vert_idx
    }

    /// Matched edges of the last subgraph, indexing
    /// [`SubgraphScratch::vertex_nodes`].
    #[must_use]
    pub fn edges(&self) -> &[SubgraphEdge] {
        &self.edges
    }

    /// `(|E_i|, |E_{i+1}|)`: the enriched edge counts of the two graphs
    /// last matched.
    #[must_use]
    pub fn edge_counts(&self) -> (usize, usize) {
        self.edge_counts
    }

    /// Whether the last subgraph is empty (no shared labels).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vert_idx.is_empty()
    }

    /// The last subgraph as an owned [`MatchedSubgraph`] over record ids;
    /// `old` and `new` must be the graphs it was matched from.
    #[must_use]
    pub fn materialize(&self, old: &EnrichedGraph, new: &EnrichedGraph) -> MatchedSubgraph {
        debug_assert_eq!(self.edge_counts, (old.edge_count(), new.edge_count()));
        MatchedSubgraph {
            vertices: self
                .vert_idx
                .iter()
                .map(|&(i, j)| (old.nodes()[i], new.nodes()[j]))
                .collect(),
            edges: self.edges.clone(),
            old_edge_count: self.edge_counts.0,
            new_edge_count: self.edge_counts.1,
        }
    }
}

impl obs::MemoryFootprint for SubgraphScratch {
    fn footprint(&self) -> obs::Footprint {
        let bytes = obs::footprint::vec_capacity_bytes(&self.old_labels)
            + obs::footprint::vec_capacity_bytes(&self.new_labels)
            + obs::footprint::vec_capacity_bytes(&self.vert_idx)
            + obs::footprint::vec_capacity_bytes(&self.edges);
        obs::Footprint::new(bytes, self.vert_idx.len() as u64)
    }
}

/// [`match_subgraph`] over node indices, leaving the result in `scratch`
/// instead of allocating it: `label_of_old(i)` labels node `i` of `old`,
/// `accept(i, j)` decides node pair `(i, j)`. Callers that keep per-node
/// state in their own index space (the linker's pre-matching positions)
/// look it up by node index directly, with no record-id hashing, and can
/// score the subgraph from [`SubgraphScratch::vertex_nodes`] and
/// [`SubgraphScratch::edges`] before deciding whether to
/// [`SubgraphScratch::materialize`] it.
pub fn match_subgraph_with<F, G, A>(
    old: &EnrichedGraph,
    new: &EnrichedGraph,
    label_of_old: F,
    label_of_new: G,
    accept: A,
    config: &SubgraphConfig,
    scratch: &mut SubgraphScratch,
) where
    F: Fn(usize) -> Option<u64>,
    G: Fn(usize) -> Option<u64>,
    A: Fn(usize, usize) -> bool,
{
    let SubgraphScratch {
        old_labels,
        new_labels,
        vert_idx,
        edges,
        edge_counts,
    } = scratch;
    *edge_counts = (old.edge_count(), new.edge_count());
    old_labels.clear();
    old_labels.extend((0..old.node_count()).map(&label_of_old));
    new_labels.clear();
    new_labels.extend((0..new.node_count()).map(&label_of_new));

    // vertices: equal-label cross pairs (node-index form)
    vert_idx.clear();
    for (i, lo) in old_labels.iter().enumerate() {
        let Some(lo) = lo else { continue };
        for (j, ln) in new_labels.iter().enumerate() {
            if Some(lo) == ln.as_ref() && accept(i, j) {
                vert_idx.push((i, j));
            }
        }
    }

    // edges: both endpoint pairs connected, same rel type, similar age diff
    edges.clear();
    for (u, &(o1, n1)) in vert_idx.iter().enumerate() {
        for (v, &(o2, n2)) in vert_idx.iter().enumerate().skip(u + 1) {
            if o1 == o2 || n1 == n2 {
                continue; // a record cannot relate to itself
            }
            let Some((rel_old, diff_old)) = old.directed_edge(o1, o2) else {
                continue;
            };
            let Some((rel_new, diff_new)) = new.directed_edge(n1, n2) else {
                continue;
            };
            if rel_old != rel_new || rel_old == RelType::SamePerson {
                continue;
            }
            let rp_sim = match (diff_old, diff_new) {
                (Some(a), Some(b)) => age_difference_similarity(a, b, config.age_diff_tolerance),
                _ => config.missing_age_sim,
            };
            if rp_sim >= config.min_edge_sim && rp_sim > 0.0 {
                edges.push(SubgraphEdge { u, v, rp_sim });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{CensusDataset, Household, HouseholdId, PersonRecord, RecordId, Role, Sex};
    use std::collections::HashMap;

    fn rec(id: u64, hh: u64, role: Role, age: u32, sex: Sex) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), role);
        r.age = Some(age);
        r.sex = Some(sex);
        r
    }

    /// The paper's Fig. 4 setting: `g_1871^a` (5 members) vs `g_1881^a`
    /// (3 members, same family ten years older) and vs the decoy
    /// `g_1881^d` (same labels, different structure).
    struct Fig4 {
        old: CensusDataset,
        new: CensusDataset,
        labels: HashMap<RecordId, u64>,
    }

    fn fig4() -> Fig4 {
        // old: John(39,A) Elizabeth(37,B) Alice(8,-) William(2,C) lodger John Riley(63,-)
        let old_records = vec![
            rec(0, 0, Role::Head, 39, Sex::Male),      // label A
            rec(1, 0, Role::Spouse, 37, Sex::Female),  // label B
            rec(2, 0, Role::Daughter, 8, Sex::Female), // unlabeled (marries away)
            rec(3, 0, Role::Son, 2, Sex::Male),        // label C
            rec(4, 0, Role::Lodger, 63, Sex::Male),    // unlabeled (dies)
        ];
        let old_hh = Household::new(HouseholdId(0), (0..5).map(RecordId).collect());
        let old = CensusDataset::new(1871, old_records, vec![old_hh]).unwrap();

        // new household a: the same John/Elizabeth/William, aged +10
        let rec_n = |id: u64, hh: u64, role, age, sex| {
            let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), role);
            r.age = Some(age);
            r.sex = Some(sex);
            r
        };
        let new_records = vec![
            rec_n(10, 0, Role::Head, 49, Sex::Male),     // A
            rec_n(11, 0, Role::Spouse, 47, Sex::Female), // B
            rec_n(12, 0, Role::Son, 12, Sex::Male),      // C
            // decoy household d: same names, structurally different ages
            rec_n(13, 1, Role::Head, 30, Sex::Male),     // A
            rec_n(14, 1, Role::Spouse, 29, Sex::Female), // B
            rec_n(15, 1, Role::Son, 3, Sex::Male),       // C
        ];
        let new_hh = vec![
            Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11), RecordId(12)],
            ),
            Household::new(
                HouseholdId(1),
                vec![RecordId(13), RecordId(14), RecordId(15)],
            ),
        ];
        let new = CensusDataset::new(1881, new_records, new_hh).unwrap();

        let labels: HashMap<RecordId, u64> = [
            (0, 0),
            (10, 0),
            (13, 0), // A
            (1, 1),
            (11, 1),
            (14, 1), // B
            (3, 2),
            (12, 2),
            (15, 2), // C
        ]
        .into_iter()
        .map(|(r, l)| (RecordId(r), l))
        .collect();
        Fig4 { old, new, labels }
    }

    #[test]
    fn true_pair_matches_all_three_edges() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 3);
        assert_eq!(sub.edges.len(), 3, "all three family edges should match");
        assert_eq!(sub.old_edge_count, 10); // 5 members → 10 enriched edges
        assert_eq!(sub.new_edge_count, 3);
        for e in &sub.edges {
            assert!((e.rp_sim - 1.0).abs() < 1e-9); // identical age diffs
        }
    }

    #[test]
    fn decoy_pair_keeps_fewer_edges() {
        // Fig. 4 bottom-right: the decoy shares the labels but its age
        // structure differs, so edges are rejected.
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_decoy = crate::EnrichedGraph::build(&f.new, HouseholdId(1)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_decoy,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 3);
        // head-spouse diff old 2 vs decoy 1 → similar (within tolerance);
        // head-son diff old 37 vs decoy 27, spouse-son 35 vs 26 → rejected
        assert!(
            sub.edges.len() < 3,
            "decoy must lose structurally different edges"
        );
    }

    #[test]
    fn no_shared_labels_is_empty() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |_| None,
            |_| None,
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert!(sub.is_empty());
        assert_eq!(sub.edges.len(), 0);
    }

    #[test]
    fn rel_type_mismatch_blocks_edge() {
        // old: head + son; new: head + spouse — same labels but the edge
        // types (parent-child vs spouse) differ
        let old_records = vec![
            rec(0, 0, Role::Head, 40, Sex::Male),
            rec(1, 0, Role::Son, 20, Sex::Male),
        ];
        let old = CensusDataset::new(
            1871,
            old_records,
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new_records = vec![
            rec(10, 0, Role::Head, 50, Sex::Male),
            rec(11, 0, Role::Spouse, 30, Sex::Female),
        ];
        let new = CensusDataset::new(
            1881,
            new_records,
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11)],
            )],
        )
        .unwrap();
        let labels: HashMap<RecordId, u64> = [(0, 0), (10, 0), (1, 1), (11, 1)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 2);
        assert!(sub.edges.is_empty());
    }

    #[test]
    fn missing_age_uses_default_similarity() {
        let mut r0 = rec(0, 0, Role::Head, 40, Sex::Male);
        r0.age = None;
        let old = CensusDataset::new(
            1871,
            vec![r0, rec(1, 0, Role::Son, 20, Sex::Male)],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            vec![
                rec(10, 0, Role::Head, 50, Sex::Male),
                rec(11, 0, Role::Son, 30, Sex::Male),
            ],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(10), RecordId(11)],
            )],
        )
        .unwrap();
        let labels: HashMap<RecordId, u64> = [(0, 0), (10, 0), (1, 1), (11, 1)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let config = SubgraphConfig::default();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &config,
        );
        assert_eq!(sub.edges.len(), 1);
        assert!((sub.edges[0].rp_sim - config.missing_age_sim).abs() < 1e-9);
    }

    #[test]
    fn ambiguous_records_produce_multiple_vertices() {
        // two Johns (same label) in the old household, one in the new
        let old = CensusDataset::new(
            1871,
            vec![
                rec(0, 0, Role::Head, 40, Sex::Male),
                rec(1, 0, Role::Son, 18, Sex::Male),
            ],
            vec![Household::new(
                HouseholdId(0),
                vec![RecordId(0), RecordId(1)],
            )],
        )
        .unwrap();
        let new = CensusDataset::new(
            1881,
            vec![rec(10, 0, Role::Head, 50, Sex::Male)],
            vec![Household::new(HouseholdId(0), vec![RecordId(10)])],
        )
        .unwrap();
        // all three share one label
        let labels: HashMap<RecordId, u64> = [(0, 0), (1, 0), (10, 0)]
            .into_iter()
            .map(|(r, l)| (RecordId(r), l))
            .collect();
        let g_old = crate::EnrichedGraph::build(&old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&new, HouseholdId(0)).unwrap();
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| labels.get(&r).copied(),
            |r| labels.get(&r).copied(),
            |_, _| true,
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices.len(), 2); // both old Johns pair the new John
        assert!(sub.edges.is_empty()); // no edge: shared new endpoint
    }

    #[test]
    fn accept_filter_restricts_vertices() {
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_new = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        // only allow the head pair as a direct match
        let sub = match_subgraph(
            &g_old,
            &g_new,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |o, n| o == RecordId(0) && n == RecordId(10),
            &SubgraphConfig::default(),
        );
        assert_eq!(sub.vertices, vec![(RecordId(0), RecordId(10))]);
        assert!(sub.edges.is_empty());
    }

    #[test]
    fn reused_scratch_materializes_the_last_match() {
        // a scratch carries no state from one match into the next: after
        // matching the true pair, matching the decoy leaves exactly the
        // decoy's subgraph, as a fresh match computes it
        let f = fig4();
        let g_old = crate::EnrichedGraph::build(&f.old, HouseholdId(0)).unwrap();
        let g_true = crate::EnrichedGraph::build(&f.new, HouseholdId(0)).unwrap();
        let g_decoy = crate::EnrichedGraph::build(&f.new, HouseholdId(1)).unwrap();
        let label = |g: &crate::EnrichedGraph, i: usize| f.labels.get(&g.nodes()[i]).copied();
        let config = SubgraphConfig::default();
        let mut scratch = SubgraphScratch::default();
        for g_new in [&g_true, &g_decoy] {
            match_subgraph_with(
                &g_old,
                g_new,
                |i| label(&g_old, i),
                |j| label(g_new, j),
                |_, _| true,
                &config,
                &mut scratch,
            );
        }
        let fresh = match_subgraph(
            &g_old,
            &g_decoy,
            |r| f.labels.get(&r).copied(),
            |r| f.labels.get(&r).copied(),
            |_, _| true,
            &config,
        );
        let kept = scratch.materialize(&g_old, &g_decoy);
        assert_eq!(kept.vertices, fresh.vertices);
        assert_eq!(kept.edges, fresh.edges);
        assert_eq!(scratch.edges(), &fresh.edges[..]);
        assert_eq!(scratch.vertex_nodes().len(), fresh.vertices.len());
        assert_eq!(
            scratch.edge_counts(),
            (fresh.old_edge_count, fresh.new_edge_count)
        );
        assert!(!scratch.is_empty());
    }
}
