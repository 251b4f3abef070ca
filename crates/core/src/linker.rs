//! A reusable linker for one snapshot pair.
//!
//! Parameter sweeps (the paper's Tables 3–5) run the pipeline many times
//! over the *same* pair of censuses; group enrichment and the household
//! index never change between runs. [`Linker`] computes them once and
//! lets each [`Linker::run`] reuse them.

use crate::config::{LinkageConfig, Parallelism};
use crate::csr::MergeRows;
use crate::mem::MemGovernor;
use crate::pairscore::{PairScoreCache, Residue};
use crate::prematch::{score_matches, PreMatch};
use crate::profiles::ProfileCache;
use crate::remainder::match_remaining_cached;
use crate::selection::{select_and_extract, RejectReason, ScoredSubgroup, SelectionOutcome};
use crate::{IterationStats, LinkPhase, LinkageResult};
use census_model::{
    CensusDataset, GroupMapping, HouseholdId, PersonRecord, RecordId, RecordMapping,
};
use hhgraph::{match_subgraph_with, EnrichedGraph, SubgraphScratch};

/// A candidate group pair: the household ids plus their enriched-graph
/// indices, so the scoring hot loop skips the household→graph hash maps.
type GroupCandidate = ((HouseholdId, HouseholdId), (u32, u32));
use obs::{
    Collector, Counter, DecisionRecord, EventKind, Footprint, GroupDecision, Histogram, LiveHist,
    LosingCandidate, MemoryFootprint, RejectedCandidate, RejectionReason, ITERATION_SPAN,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Graph slot of a record no enriched graph holds.
const NO_GRAPH: u32 = u32::MAX;

/// The enriched graphs of one snapshot in record-position space: each
/// graph's node positions (in [`CensusDataset::records`] order, which is
/// the pre-matching's index space) as compressed rows, and the inverse —
/// the graph each position belongs to. Built once per [`Linker`] through
/// the dataset's id index, so the per-iteration loops never look a
/// record id up, whatever the id space looks like.
struct GraphPositions {
    /// `start[g]..start[g + 1]` is graph `g`'s slice of `pos`.
    start: Vec<u32>,
    /// Node positions, graph after graph, in node order.
    pos: Vec<u32>,
    /// Graph index of each record position ([`NO_GRAPH`] = none).
    graph_of: Vec<u32>,
}

impl GraphPositions {
    fn build(ds: &CensusDataset, graphs: &[EnrichedGraph]) -> Self {
        let mut start = Vec::with_capacity(graphs.len() + 1);
        start.push(0);
        let mut pos = Vec::with_capacity(ds.records().len());
        let mut graph_of = vec![NO_GRAPH; ds.records().len()];
        for (gi, g) in graphs.iter().enumerate() {
            for &r in g.nodes() {
                let p = ds.position(r).expect("graph nodes are dataset records");
                pos.push(p as u32);
                graph_of[p] = gi as u32;
            }
            start.push(pos.len() as u32);
        }
        Self {
            start,
            pos,
            graph_of,
        }
    }

    /// The record positions of graph `g`'s nodes, in node order.
    fn nodes(&self, g: usize) -> &[u32] {
        &self.pos[self.start[g] as usize..self.start[g + 1] as usize]
    }
}

impl MemoryFootprint for GraphPositions {
    fn footprint(&self) -> Footprint {
        use obs::footprint::vec_capacity_bytes as cap;
        Footprint::new(
            cap(&self.start) + cap(&self.pos) + cap(&self.graph_of),
            self.pos.len() as u64,
        )
    }
}

/// Precomputed state for linking one snapshot pair repeatedly.
pub struct Linker<'a> {
    old: &'a CensusDataset,
    new: &'a CensusDataset,
    old_graphs: Vec<EnrichedGraph>,
    new_graphs: Vec<EnrichedGraph>,
    old_positions: GraphPositions,
    new_positions: GraphPositions,
}

/// Emit the decision provenance of one selection round: a
/// [`GroupDecision`] per winner (with its record links and the top-k
/// candidates it beat) and a standalone [`RejectedCandidate`] per loser.
fn emit_group_decisions(
    config: &LinkageConfig,
    delta: f64,
    iteration: usize,
    candidates: &[ScoredSubgroup],
    outcome: &SelectionOutcome,
    obs: &Collector,
) {
    let top_k = obs.decision_top_k();
    // conflict losers, grouped under the winner that blocked them
    let mut losers_of: HashMap<usize, Vec<LosingCandidate>> = HashMap::new();
    for &(idx, reason) in &outcome.rejections {
        let (winner, why) = match reason {
            RejectReason::LowerGSim { winner } => (winner, RejectionReason::LowerGSim),
            RejectReason::TieBreak { winner } => (winner, RejectionReason::TieBreak),
            RejectReason::EmptySubgraph | RejectReason::BelowMinGSim => continue,
        };
        let c = &candidates[idx];
        losers_of.entry(winner).or_default().push(LosingCandidate {
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            g_sim: c.g_sim,
            reason: why,
        });
    }
    let mut records_of: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for &(o, n, idx) in &outcome.added {
        records_of.entry(idx).or_default().push((o.raw(), n.raw()));
    }
    for &idx in &outcome.accepted {
        let c = &candidates[idx];
        let mut losers = losers_of.remove(&idx).unwrap_or_default();
        losers.sort_by(|a, b| {
            b.g_sim
                .partial_cmp(&a.g_sim)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.old_group, a.new_group).cmp(&(b.old_group, b.new_group)))
        });
        losers.truncate(top_k);
        obs.decide(DecisionRecord::Group(GroupDecision {
            iteration,
            delta,
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            avg_sim: c.score.avg_sim,
            e_sim: c.score.e_sim,
            unique: c.score.unique,
            alpha: config.weights.alpha,
            beta: config.weights.beta,
            g_sim: c.g_sim,
            subgraph_size: c.sub.vertices.len(),
            records: records_of.remove(&idx).unwrap_or_default(),
            losers,
        }));
    }
    for &(idx, reason) in &outcome.rejections {
        let c = &candidates[idx];
        let (why, winner) = match reason {
            RejectReason::EmptySubgraph => (RejectionReason::EmptySubgraph, None),
            RejectReason::BelowMinGSim => (RejectionReason::BelowMinGSim, None),
            RejectReason::LowerGSim { winner } => (
                RejectionReason::LowerGSim,
                Some((candidates[winner].old.raw(), candidates[winner].new.raw())),
            ),
            RejectReason::TieBreak { winner } => (
                RejectionReason::TieBreak,
                Some((candidates[winner].old.raw(), candidates[winner].new.raw())),
            ),
        };
        obs.decide(DecisionRecord::Rejected(RejectedCandidate {
            iteration,
            delta,
            old_group: c.old.raw(),
            new_group: c.new.raw(),
            g_sim: c.g_sim,
            subgraph_size: c.sub.vertices.len(),
            reason: why,
            winner,
        }));
    }
}

impl<'a> Linker<'a> {
    /// Enrich both snapshots once (`completeGroups`, §3.1).
    #[must_use]
    pub fn new(old: &'a CensusDataset, new: &'a CensusDataset) -> Self {
        Self::new_traced(old, new, &Collector::disabled())
    }

    /// [`Linker::new`] recording the enrichment as an `enrich` span on
    /// `obs`.
    #[must_use]
    pub fn new_traced(old: &'a CensusDataset, new: &'a CensusDataset, obs: &Collector) -> Self {
        let _enrich = obs.span("enrich");
        let old_graphs = EnrichedGraph::build_all(old);
        let new_graphs = EnrichedGraph::build_all(new);
        let old_positions = GraphPositions::build(old, &old_graphs);
        let new_positions = GraphPositions::build(new, &new_graphs);
        if obs.is_enabled() {
            let fp = old_graphs
                .iter()
                .chain(new_graphs.iter())
                .fold(Footprint::ZERO, |acc, g| acc.plus(g.footprint()));
            obs.snapshot_footprint("enriched_graphs", fp);
            obs.snapshot_footprint(
                "graph_positions",
                old_positions.footprint().plus(new_positions.footprint()),
            );
        }
        Self {
            old,
            new,
            old_graphs,
            new_graphs,
            old_positions,
            new_positions,
        }
    }

    /// The enriched graphs of the old census, in household order.
    #[must_use]
    pub fn old_graphs(&self) -> &[EnrichedGraph] {
        &self.old_graphs
    }

    /// The enriched graphs of the new census, in household order.
    #[must_use]
    pub fn new_graphs(&self) -> &[EnrichedGraph] {
        &self.new_graphs
    }

    /// Candidate group pairs: households connected by at least one match
    /// pair of `pm` (anchors included), sorted by household ids. Walks
    /// the match rows of each old graph's node positions, mapping the
    /// matched new positions to their graphs.
    fn household_candidates(&self, pm: &PreMatch) -> Vec<GroupCandidate> {
        let mut out = Vec::new();
        let mut new_graphs: Vec<u32> = Vec::new();
        for (gi_o, g_old) in self.old_graphs.iter().enumerate() {
            new_graphs.clear();
            for &p in self.old_positions.nodes(gi_o) {
                // a record listed by two households belongs to the later
                if self.old_positions.graph_of[p as usize] != gi_o as u32 {
                    continue;
                }
                new_graphs.extend(
                    pm.matched_new(p as usize)
                        .iter()
                        .map(|&q| self.new_positions.graph_of[q as usize])
                        .filter(|&gi_n| gi_n != NO_GRAPH),
                );
            }
            new_graphs.sort_unstable();
            new_graphs.dedup();
            out.extend(new_graphs.iter().map(|&gi_n| {
                let household = self.new_graphs[gi_n as usize].household;
                ((g_old.household, household), (gi_o as u32, gi_n))
            }));
        }
        out.sort_unstable();
        out
    }

    /// Match and score the subgraphs of candidate household pairs,
    /// in parallel across worker threads. Order of the result follows
    /// the (sorted) input order, so runs stay deterministic.
    ///
    /// Graph nodes are looked up in `pm` by their record positions: a
    /// label read and, for the accept check, a binary search within the
    /// old record's match row.
    #[allow(clippy::too_many_arguments)] // internal plumbing of run_traced
    fn score_candidates(
        &self,
        cand_list: &[GroupCandidate],
        pm: &PreMatch,
        config: &LinkageConfig,
        par: Parallelism,
        delta: f64,
        iteration: usize,
        obs: &Collector,
    ) -> Vec<ScoredSubgroup> {
        let score_one = |&((go, gn), (gi_o, gi_n)): &GroupCandidate,
                         scratch: &mut SubgraphScratch|
         -> Option<ScoredSubgroup> {
            let old_pos = self.old_positions.nodes(gi_o as usize);
            let new_pos = self.new_positions.nodes(gi_n as usize);
            let sub = match_subgraph_with(
                &self.old_graphs[gi_o as usize],
                &self.new_graphs[gi_n as usize],
                |i| pm.old_label(old_pos[i] as usize).map(u64::from),
                |j| pm.new_label(new_pos[j] as usize).map(u64::from),
                |i, j| pm.sim(old_pos[i] as usize, new_pos[j] as usize).is_some(),
                &config.subgraph,
                scratch,
            );
            if sub.is_empty() {
                return None;
            }
            let positions = scratch
                .vertex_nodes()
                .iter()
                .map(|&(i, j)| (old_pos[i], new_pos[j]))
                .collect();
            Some(ScoredSubgroup::new(
                go,
                gn,
                sub,
                positions,
                pm,
                config.weights,
                delta,
            ))
        };
        obs.add(Counter::SubgraphPairsScored, cand_list.len() as u64);
        let threads = par.threads.max(1);
        let shards = par.shards.max(1);
        // household candidates carry more work per item than record
        // pairs, so fan out at half the configured pair cutoff
        let chunked = shards > 1 || threads > 1;
        let scored = if !chunked || cand_list.len() < config.parallel_cutoff / 2 {
            let mut scratch = SubgraphScratch::default();
            let out: Vec<ScoredSubgroup> = cand_list
                .iter()
                .filter_map(|c| score_one(c, &mut scratch))
                .collect();
            if obs.is_enabled() {
                obs.snapshot_footprint("subgraph_scratch", scratch.footprint());
            }
            out
        } else {
            // a sharded run splits into one chunk per shard (each with
            // its own scratch); an unsharded parallel run keeps the
            // classic one-chunk-per-thread split. Either way the chunks
            // are concatenated in list order, so the output is exactly
            // the serial order regardless of completion order.
            let n_chunks = if shards > 1 { shards } else { threads };
            let chunk = cand_list.len().div_ceil(n_chunks).max(1);
            let chunks: Vec<&[GroupCandidate]> = cand_list.chunks(chunk).collect();
            let results = crate::shard::run_sharded(chunks.len(), threads, obs, |ci, worker| {
                let t0 = obs.timeline_start();
                let start = Instant::now();
                let mut scratch = SubgraphScratch::default();
                let scored = chunks[ci]
                    .iter()
                    .filter_map(|c| score_one(c, &mut scratch))
                    .collect::<Vec<_>>();
                obs.thread_chunk(
                    "subgraph",
                    Some(iteration),
                    ci,
                    worker,
                    chunks[ci].len(),
                    start.elapsed(),
                );
                if let Some(t0) = t0 {
                    obs.timeline_task(
                        worker,
                        EventKind::SubgraphChunk,
                        ci as u64,
                        Some(iteration),
                        t0,
                    );
                }
                scored
            });
            results.into_iter().flatten().collect()
        };
        obs.add(Counter::GroupCandidates, scored.len() as u64);
        if obs.is_enabled() {
            let mut sizes = Histogram::new();
            for c in &scored {
                sizes.record(c.sub.vertices.len() as u64);
            }
            obs.observe_hist(LiveHist::SubgraphSize, &sizes);
        }
        scored
    }

    /// Run Algorithm 1 with the given configuration, reusing the cached
    /// enrichment.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn run(&self, config: &LinkageConfig) -> LinkageResult {
        self.run_traced(config, &Collector::disabled())
    }

    /// [`Linker::run`] reporting spans and counters to `obs`: one
    /// `iteration` span per δ step (with nested `prematch` / `subgraph`
    /// / `selection` phases), a `remainder` span, pair and link
    /// counters, and the profile-cache totals. With a disabled
    /// collector every instrumentation point is a single branch, so
    /// this *is* the uninstrumented hot path.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn run_traced(&self, config: &LinkageConfig, obs: &Collector) -> LinkageResult {
        config.validate();
        let year_gap = i64::from(self.new.year - self.old.year);
        let mem = MemGovernor::new(config.memory_budget);
        // resolve `shards: 0` (auto) against the workload size once, so
        // every phase of this run agrees on the shard count
        let par = Parallelism {
            shards: config.resolved_shards(self.old.records().len() + self.new.records().len()),
            ..config.parallelism()
        };
        // the governor may veto the cross-iteration pair cache, dropping
        // the run to the recompute-every-iteration path (bit-identical)
        let mut incremental = config.incremental;

        // every pass works in record-position space: the residue is the
        // two snapshots with the linked records marked, and the pair
        // cache, the pre-matching and the graph positions index the same
        // positions
        let all_old: Vec<&PersonRecord> = self.old.records().iter().collect();
        let all_new: Vec<&PersonRecord> = self.new.records().iter().collect();
        let mut residue = Residue::new(&all_old, &all_new);
        let (n_old, n_new) = (all_old.len(), all_new.len());
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let mut iterations = Vec::new();
        let mut provenance = HashMap::new();

        // compiled profiles are δ-independent: build each residue
        // record's profile once and reuse it across the whole schedule
        // (and the remainder pass, whose specs usually coincide)
        let mut cache = ProfileCache::new();
        // so is agg_sim itself: in incremental mode every blocked pair
        // is scored once against the schedule floor, and later
        // iterations only filter the cached scores
        let mut pair_cache: Option<PairScoreCache> = None;
        // score the cache at the exact bound the loop's break condition
        // uses: float-stepped deltas can land marginally below δ_low, so
        // a cache scored at δ_low exactly could miss their pairs
        let floor = (config.delta_low - 1e-9).max(0.0);

        let mut delta = config.delta_high;
        let mut iter_idx = 0usize;
        loop {
            let _iter = obs.iter_span(ITERATION_SPAN, iter_idx, Some(delta));
            // δ-iteration boundary marker on the driver's timeline lane;
            // detail carries the threshold in basis points
            obs.timeline_instant(
                0,
                EventKind::Iteration,
                obs::score_bp(delta),
                Some(iter_idx),
            );
            let sim = config.sim_func.with_threshold(delta);
            let pm = {
                let _prematch = obs.span("prematch");
                if incremental && pair_cache.is_none() {
                    // the first iteration: nothing is linked yet, so the
                    // cache is built over the whole residue index space
                    let build_sim = config.sim_func.with_threshold(floor);
                    let (old_profiles, new_profiles) =
                        cache.profiles(&build_sim, &all_old, &all_new);
                    pair_cache = PairScoreCache::build(
                        &all_old,
                        &all_new,
                        &old_profiles,
                        &new_profiles,
                        year_gap,
                        &build_sim,
                        config.blocking,
                        par,
                        config.prematch_max_age_gap,
                        &mem,
                        obs,
                    );
                    // governor refused the cache: recompute per iteration
                    incremental = pair_cache.is_some();
                }
                // confirmed links ride along as anchors: two-record
                // clusters with similarity 1.0, so later iterations see
                // them as matched
                let pm = if incremental {
                    let pc = pair_cache.as_ref().expect("pair cache just built");
                    let pm = PreMatch::from_sorted_pairs(
                        n_old,
                        n_new,
                        MergeRows::new(pc.select_iter(delta, &residue), residue.anchors()),
                    );
                    if iter_idx > 0 {
                        let hits = pm.match_count() - residue.linked();
                        obs.add(Counter::PairCacheHits, hits as u64);
                        obs.add(Counter::PairCacheFiltered, (pc.len() - hits) as u64);
                    }
                    pm
                } else {
                    let (old_pos, new_pos) = (residue.unlinked_old(), residue.unlinked_new());
                    let remaining_old: Vec<&PersonRecord> =
                        old_pos.iter().map(|&p| all_old[p as usize]).collect();
                    let remaining_new: Vec<&PersonRecord> =
                        new_pos.iter().map(|&q| all_new[q as usize]).collect();
                    let (old_profiles, new_profiles) =
                        cache.profiles_at(&sim, &all_old, &all_new, &old_pos, &new_pos);
                    let matches = score_matches(
                        &remaining_old,
                        &remaining_new,
                        &old_profiles,
                        &new_profiles,
                        year_gap,
                        &sim,
                        config.blocking,
                        par,
                        config.prematch_max_age_gap,
                        &mem,
                        obs,
                    );
                    // residue index → record position is increasing, so
                    // the matches stay sorted
                    let matches = matches
                        .iter()
                        .map(|&(i, j, s)| (old_pos[i as usize], new_pos[j as usize], s));
                    PreMatch::from_sorted_pairs(
                        n_old,
                        n_new,
                        MergeRows::new(matches, residue.anchors()),
                    )
                };
                if obs.is_enabled() {
                    if let Some(pc) = &pair_cache {
                        obs.snapshot_footprint("pair_score_cache", pc.footprint());
                    }
                    obs.snapshot_footprint("profile_cache", cache.footprint());
                    obs.snapshot_footprint("prematch", pm.footprint());
                    obs.snapshot_footprint("residue", residue.footprint());
                }
                pm
            };

            let candidates = {
                let _subgraph = obs.span("subgraph");
                let cand_list = self.household_candidates(&pm);
                self.score_candidates(&cand_list, &pm, config, par, delta, iter_idx, obs)
            };

            let _selection = obs.span("selection");
            let records_before = records.len();
            let groups_before = groups.len();
            // truth telemetry reuses the audit plumbing: rejections are
            // recorded either way, and `select_and_extract` is
            // audit-neutral, so the mappings stay bit-identical
            let audit = obs.decisions_enabled() || obs.truth_enabled();
            let outcome = select_and_extract(
                &candidates,
                &pm,
                delta,
                config.min_g_sim,
                audit,
                &mut groups,
                &mut records,
            );
            for &(o, n, cand_idx) in &outcome.added {
                provenance.insert(
                    (o, n),
                    LinkPhase::Subgraph {
                        delta,
                        g_sim: candidates[cand_idx].g_sim,
                    },
                );
            }
            if obs.decisions_enabled() {
                emit_group_decisions(config, delta, iter_idx, &candidates, &outcome, obs);
            }
            if obs.truth_enabled() {
                for &(idx, reason) in &outcome.rejections {
                    let c = &candidates[idx];
                    let why = match reason {
                        RejectReason::LowerGSim { .. } => RejectionReason::LowerGSim,
                        RejectReason::TieBreak { .. } => RejectionReason::TieBreak,
                        RejectReason::BelowMinGSim => RejectionReason::BelowMinGSim,
                        RejectReason::EmptySubgraph => RejectionReason::EmptySubgraph,
                    };
                    obs.truth_rejected(c.old.raw(), c.new.raw(), why);
                }
                for &(o, n, _) in &outcome.added {
                    obs.truth_added(o.raw(), n.raw());
                }
            }
            let record_links = records.len() - records_before;
            let group_links = groups.len() - groups_before;
            let progress = !outcome.accepted.is_empty() && (group_links > 0 || record_links > 0);
            obs.add(Counter::GroupLinksAccepted, group_links as u64);
            obs.add(Counter::RecordLinks, record_links as u64);

            iterations.push(IterationStats {
                delta,
                prematch_pairs: pm.match_count(),
                candidates: candidates.len(),
                group_links,
                record_links,
            });

            for &(o, n, idx) in &outcome.added {
                let (p, q) = candidates[idx].position_of(o, n);
                residue.link(p, q);
            }
            obs.snapshot_decision_footprint();
            drop(_selection);

            if config.delta_step <= 0.0 {
                break;
            }
            delta -= config.delta_step;
            iter_idx += 1;
            if !progress || delta < config.delta_low - 1e-9 {
                break;
            }
        }

        // snapshot which records reach the remainder pass unlinked — the
        // funnel's lost_remainder / lost_selection boundary
        let remainder_entry: Option<(HashSet<RecordId>, HashSet<RecordId>)> =
            obs.truth_enabled().then(|| {
                let ids = |pos: Vec<u32>, records: &[&PersonRecord]| {
                    pos.iter().map(|&p| records[p as usize].id).collect()
                };
                (
                    ids(residue.unlinked_old(), &all_old),
                    ids(residue.unlinked_new(), &all_new),
                )
            });
        let remainder_added = {
            let _remainder = obs.span("remainder");
            match_remaining_cached(
                self.old,
                self.new,
                &residue,
                &config.remainder,
                config.blocking,
                par,
                &mut records,
                &mut groups,
                &mut cache,
                pair_cache.as_ref(),
                obs,
            )
        };
        for &(o, n) in &remainder_added {
            provenance.insert((o, n), LinkPhase::Remainder);
            obs.truth_added(o.raw(), n.raw());
        }
        obs.add(Counter::ProfilesBuilt, cache.built() as u64);
        obs.add(Counter::ProfilesReused, cache.reused() as u64);

        if let Some((rem_old, rem_new)) = &remainder_entry {
            crate::quality::finalize_quality(
                &crate::quality::QualityInputs {
                    old: self.old,
                    new: self.new,
                    config,
                    records: &records,
                    groups: &groups,
                    iterations: &iterations,
                    provenance: &provenance,
                    remainder_old: rem_old,
                    remainder_new: rem_new,
                },
                obs,
            );
        }

        LinkageResult {
            records,
            groups,
            iterations,
            remainder_links: remainder_added.len(),
            provenance,
            profiles_built: cache.built(),
            profiles_reused: cache.reused(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_synth::{generate_series, SimConfig};

    #[test]
    fn linker_matches_free_function() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let config = LinkageConfig::default();
        let direct = crate::link(old, new, &config);
        let linker = Linker::new(old, new);
        let cached = linker.run(&config);
        let a: std::collections::BTreeSet<_> = direct.records.iter().collect();
        let b: std::collections::BTreeSet<_> = cached.records.iter().collect();
        assert_eq!(a, b);
        let ga: std::collections::BTreeSet<_> = direct.groups.iter().collect();
        let gb: std::collections::BTreeSet<_> = cached.groups.iter().collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn provenance_covers_every_link() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let result = Linker::new(old, new).run(&LinkageConfig::default());
        for (o, n) in result.records.iter() {
            let phase = result.explain(o, n);
            assert!(phase.is_some(), "link {o}->{n} has no provenance");
        }
        // subgraph links dominate; their deltas are within the schedule
        let mut subgraph = 0;
        let mut remainder = 0;
        for (&_, phase) in &result.provenance {
            match phase {
                crate::LinkPhase::Subgraph { delta, g_sim } => {
                    subgraph += 1;
                    assert!(*delta > 0.5 - 1e-9 && *delta < 0.7 + 1e-9); // float-stepped schedule
                    assert!((0.0..=1.0).contains(g_sim));
                }
                crate::LinkPhase::Remainder => remainder += 1,
            }
        }
        assert!(subgraph > remainder);
        assert_eq!(subgraph + remainder, result.records.len());
    }

    #[test]
    fn anchors_form_two_record_clusters() {
        use census_model::{HouseholdId, Role};
        let recs: Vec<PersonRecord> = (0..4)
            .map(|i| PersonRecord::empty(RecordId(i), HouseholdId(0), Role::Head))
            .collect();
        let refs: Vec<&PersonRecord> = recs.iter().collect();
        let mut residue = Residue::new(&refs, &refs);
        residue.link(3, 1);
        residue.link(1, 3);
        // the unlinked records 0 and 2 match new 0 and new 2
        let matches = [(0, 0, 0.8), (0, 2, 0.75), (2, 2, 0.9)];
        let pm = PreMatch::from_sorted_pairs(
            4,
            4,
            MergeRows::new(matches.into_iter(), residue.anchors()),
        );
        assert_eq!(pm.match_count(), 5);
        for (p, q) in [(3, 1), (1, 3)] {
            let label = pm.old_label(p).unwrap();
            assert_eq!(pm.new_label(q), Some(label));
            assert_eq!(pm.size_of_label(label), 2);
            assert_eq!(pm.sim(p, q), Some(1.0));
        }
        assert_ne!(pm.old_label(3), pm.old_label(1));
        // the matches cluster transitively: old 0, 2 and new 0, 2
        let l = pm.old_label(0).unwrap();
        assert_eq!(pm.old_label(2), Some(l));
        assert_eq!(pm.size_of_label(l), 4);
    }

    #[test]
    fn incremental_default_matches_recompute() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let incremental = linker.run(&LinkageConfig::default());
        let recompute = linker.run(&LinkageConfig {
            incremental: false,
            ..LinkageConfig::default()
        });
        let a: std::collections::BTreeSet<_> = incremental.records.iter().collect();
        let b: std::collections::BTreeSet<_> = recompute.records.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn linker_reuses_across_configs() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let linker = Linker::new(old, new);
        let iter = linker.run(&LinkageConfig::paper_best());
        let oneshot = linker.run(&LinkageConfig::non_iterative());
        assert!(iter.iterations.len() > oneshot.iterations.len());
        // graphs cover every household
        assert_eq!(linker.old_graphs().len(), old.household_count());
        assert_eq!(linker.new_graphs().len(), new.household_count());
    }
}
