//! Sharded candidate-pair generation and scoring.
//!
//! The linkage pipeline partitions its work by *blocking key*: a
//! [`ShardPlan`] assigns every packed `u64` key to one of K shards with
//! size-balanced (LPT greedy) assignment, each shard generates and
//! scores its pairs independently — with its own similarity tables and
//! scratch — on a work-stealing pool, and a deterministic merge phase
//! re-establishes the global order regardless of shard completion order.
//!
//! # Why the merged result is bit-identical to the unsharded engine
//!
//! A candidate pair can be proposed by several blocking keys that land
//! in different shards. Each shard therefore keeps a generated pair only
//! when the pair's *owner* key — the highest-priority key the two
//! records collide on, a pure function of the records (see
//! [`crate::blocking`]) — is the bucket key it was generated from. That
//! makes the per-shard pair sets pairwise disjoint and their union
//! exactly the deduplicated unsharded candidate set. Scoring is
//! memoisation-transparent (`CompiledValue::similarity` is
//! deterministic), and the merge concatenates per-shard results and
//! sorts them into the unsharded engine's `(old, new)` order, so every
//! downstream phase sees byte-for-byte the input it would have seen with
//! one shard — for any shard count, thread count and completion order.

use crate::blocking::{append_keys, owner_key, KeyFields};
use crate::config::Parallelism;
use crate::mem::MemGovernor;
use crate::prematch::{
    note_budget_rejected, sample_match_scores, score_shard, BatchStats, ShardScore,
};
use crate::simfunc::{CompiledProfile, SimFunc};
use census_model::PersonRecord;
use obs::{Collector, EventKind, Footprint, ShardStat};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A size-balanced assignment of blocking keys to shards.
///
/// Built with the LPT (longest-processing-time-first) greedy rule over
/// per-key pair weights: keys in decreasing weight order, each to the
/// currently least-loaded shard. The classic LPT guarantee bounds every
/// shard's load by `total/K + max single key weight` — see
/// [`ShardPlan::balance_bound`] — and the construction is fully
/// deterministic (ties break on key value, then lowest shard id).
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// `(key, shard)`, sorted by key for binary-search lookup.
    assignment: Vec<(u64, u32)>,
    /// Pair-weight load per shard.
    loads: Vec<u64>,
    /// Largest single key weight.
    max_weight: u64,
    /// Sum of all key weights.
    total_weight: u64,
}

impl ShardPlan {
    /// Build a plan over `(key, weight)` entries (keys must be unique).
    pub(crate) fn build(weights: &[(u64, u64)], shards: usize) -> Self {
        let shards = shards.max(1);
        let mut order: Vec<(u64, u64)> = weights.to_vec();
        order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
            (0..shards as u32).map(|s| Reverse((0u64, s))).collect();
        let mut assignment: Vec<(u64, u32)> = Vec::with_capacity(order.len());
        let mut loads = vec![0u64; shards];
        for &(key, w) in &order {
            let Reverse((load, s)) = heap.pop().expect("heap has one entry per shard");
            assignment.push((key, s));
            loads[s as usize] = load + w;
            heap.push(Reverse((load + w, s)));
        }
        assignment.sort_unstable_by_key(|&(k, _)| k);
        Self {
            assignment,
            loads,
            max_weight: order.first().map_or(0, |&(_, w)| w),
            total_weight: order.iter().map(|&(_, w)| w).sum(),
        }
    }

    /// Number of shards (some may hold no keys).
    pub(crate) fn shards(&self) -> usize {
        self.loads.len()
    }

    /// The shard a key was assigned to, `None` for unknown keys.
    pub(crate) fn shard_of(&self, key: u64) -> Option<usize> {
        self.assignment
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.assignment[i].1 as usize)
    }

    /// Pair-weight load per shard.
    pub(crate) fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The LPT guarantee: no shard's load exceeds this bound.
    pub(crate) fn balance_bound(&self) -> u64 {
        self.total_weight / self.loads.len() as u64 + self.max_weight
    }
}

/// Candidate pairs partitioned by owning shard, plus the totals the
/// driver reports before scoring starts.
pub(crate) struct ShardedPairs {
    /// Per-shard pairs in global `(old_idx, new_idx)` indices, each
    /// shard sorted and deduplicated.
    pub per_shard: Vec<Vec<(u32, u32)>>,
    /// Blocking keys assigned to each shard.
    pub keys_per_shard: Vec<usize>,
    /// Total pairs across shards (= the unsharded deduplicated count).
    pub total: usize,
    /// Predicted pair-weight load per shard from the LPT plan — the
    /// baseline the timeline's plan-quality ratio measures against.
    pub plan_loads: Vec<u64>,
}

/// Generate candidate pairs partitioned into `par.shards` shards.
///
/// The union of the per-shard sets equals
/// `candidate_pairs_filtered(old, new, year_gap, Standard, …)` and the
/// sets are pairwise disjoint — every pair appears exactly once, in the
/// shard that owns its highest-priority colliding key. Pass
/// `max_age_gap: None` to reproduce the unfiltered `candidate_pairs`
/// output.
pub(crate) fn sharded_candidate_pairs(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    par: Parallelism,
    max_age_gap: Option<u32>,
    obs: &Collector,
) -> ShardedPairs {
    let shards = par.shards.max(1);
    let old_kf: Vec<KeyFields> = old.iter().map(|r| KeyFields::of(r)).collect();
    let new_kf: Vec<KeyFields> = new.iter().map(|r| KeyFields::of(r)).collect();
    let mut buckets: HashMap<u64, (Vec<u32>, Vec<u32>)> = HashMap::new();
    let mut scratch = Vec::with_capacity(6);
    for (i, &kf) in old_kf.iter().enumerate() {
        scratch.clear();
        append_keys(kf, year_gap, true, &mut scratch);
        for &k in &scratch {
            buckets.entry(k).or_default().0.push(i as u32);
        }
    }
    for (j, &kf) in new_kf.iter().enumerate() {
        scratch.clear();
        append_keys(kf, 0, false, &mut scratch);
        for &k in &scratch {
            buckets.entry(k).or_default().1.push(j as u32);
        }
    }
    let weights: Vec<(u64, u64)> = buckets
        .iter()
        .map(|(&k, (os, ns))| (k, os.len() as u64 * ns.len() as u64))
        .collect();
    let plan = ShardPlan::build(&weights, shards);
    debug_assert!(plan.loads().iter().all(|&l| l <= plan.balance_bound()));

    // truth telemetry: attribute each true record pair to the shard that
    // owns its blocking key. The collector keeps the first map of the
    // run (the δ-schedule's full-population prematch); later replans
    // over residues are ignored, so the check avoids recomputing them.
    if obs.truth_enabled() && obs.truth_shard_map().is_none() {
        if let Some(tc) = obs.truth_config() {
            let old_at: HashMap<u64, usize> =
                old.iter().enumerate().map(|(i, r)| (r.id.raw(), i)).collect();
            let new_at: HashMap<u64, usize> =
                new.iter().enumerate().map(|(j, r)| (r.id.raw(), j)).collect();
            let mut map = Vec::new();
            for &(o, n) in &tc.record_pairs {
                let (Some(&i), Some(&j)) = (old_at.get(&o), new_at.get(&n)) else {
                    continue;
                };
                if let Some(s) =
                    owner_key(old_kf[i], new_kf[j], year_gap).and_then(|k| plan.shard_of(k))
                {
                    map.push((o, n, s));
                }
            }
            obs.truth_shard_map_set(map);
        }
    }

    // per-shard key lists, in key order (deterministic regardless of the
    // bucket map's iteration order)
    let mut shard_keys: Vec<Vec<u64>> = vec![Vec::new(); plan.shards()];
    for &(k, s) in &plan.assignment {
        shard_keys[s as usize].push(k);
    }

    let gen_one = |s: usize, _worker: usize| -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for &k in &shard_keys[s] {
            let (os, ns) = &buckets[&k];
            for &o in os {
                for &n in ns {
                    // the shard owning a pair's owner key keeps it (fast
                    // path: the generating key usually is the owner); the
                    // age filter then drops implausible pairs before they
                    // reach the sort
                    let owned = owner_key(old_kf[o as usize], new_kf[n as usize], year_gap)
                        .is_some_and(|ok| ok == k || plan.shard_of(ok) == Some(s));
                    if owned
                        && max_age_gap.is_none_or(|tol| {
                            crate::prematch::age_plausible(
                                old[o as usize],
                                new[n as usize],
                                year_gap,
                                tol,
                            )
                        })
                    {
                        out.push((o, n));
                    }
                }
            }
        }
        // duplicates remain when several of the shard's own keys propose
        // the same pair — dedup mirrors the unsharded engine's global
        // dedup, shard-locally
        out.sort_unstable();
        out.dedup();
        out
    };
    let per_shard = run_sharded(plan.shards(), par.threads, obs, gen_one);
    let keys_per_shard = shard_keys.iter().map(Vec::len).collect();
    let total = per_shard.iter().map(Vec::len).sum();
    ShardedPairs {
        per_shard,
        keys_per_shard,
        total,
        plan_loads: plan.loads().to_vec(),
    }
}

/// Score sharded candidate pairs and merge into the unsharded engine's
/// output: `(old_idx, new_idx, agg_sim)` sorted by `(old, new)`.
///
/// Each shard scores on the work-stealing pool with its own
/// shard-local similarity tables, sized so that the memory budget is
/// split across the tables that can be live concurrently. Per-shard
/// telemetry (keys, pairs, matches, table bytes, wall time) is recorded
/// as [`ShardStat`] rows; counter totals equal the unsharded engine's.
pub(crate) fn sharded_scores(
    sharded: &ShardedPairs,
    old_profiles: &[&CompiledProfile],
    new_profiles: &[&CompiledProfile],
    sim: &SimFunc,
    par: Parallelism,
    mem: &MemGovernor,
    obs: &Collector,
) -> Vec<(u32, u32, f64)> {
    if sharded.total == 0 {
        return Vec::new();
    }
    // first plan of the run wins: this registers the headline prematch
    // plan the timeline's plan-quality ratio is judged against
    obs.timeline_plan(&sharded.plan_loads);
    let n_specs = old_profiles
        .first()
        .or(new_profiles.first())
        .map_or(0, |p| p.values().len());
    let nonempty = sharded.per_shard.iter().filter(|p| !p.is_empty()).count();
    let concurrent = par.threads.max(1).min(nonempty.max(1));
    // divide the budget across every table that can be live at once:
    // n_specs tables per shard × concurrently-running shards
    let max_cells = mem.sim_table_max_cells(n_specs * concurrent);

    let score_one = |s: usize, worker: usize| -> (ShardScore, u64, usize) {
        let t0 = obs.timeline_start();
        let start = Instant::now();
        let score = score_shard(
            &sharded.per_shard[s],
            old_profiles,
            new_profiles,
            sim,
            max_cells,
        );
        let duration_us = obs_us(start.elapsed());
        if let Some(t0) = t0 {
            obs.timeline_task(worker, EventKind::Shard, s as u64, None, t0);
        }
        (score, duration_us, worker)
    };
    let results = run_sharded(sharded.per_shard.len(), par.threads, obs, score_one);

    // deterministic merge: fold telemetry in shard order, then sort the
    // concatenated matches into the unsharded (old, new) order; the
    // driver thread reports the merge and sort as worker-0 events
    let merge_t0 = obs.timeline_start();
    let total = results.iter().map(|(score, ..)| score.matched.len()).sum();
    let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(total);
    let mut stats = BatchStats::default();
    let mut budget_rejected = 0u64;
    let mut fp = Footprint::ZERO;
    let mut arena_fp = Footprint::ZERO;
    let mut scratch_fp = Footprint::ZERO;
    for (s, (score, duration_us, worker)) in results.into_iter().enumerate() {
        obs.shard_stat(ShardStat {
            shard: s,
            keys: sharded.keys_per_shard[s] as u64,
            pairs: sharded.per_shard[s].len() as u64,
            matched: score.matched.len() as u64,
            sim_table_bytes: score.tables.bytes,
            sim_table_cells: score.tables.elements,
            duration_us,
        });
        obs.thread_chunk(
            "prematch",
            None,
            s,
            worker,
            sharded.per_shard[s].len(),
            std::time::Duration::from_micros(duration_us),
        );
        stats.merge(&score.stats);
        budget_rejected += score.budget_rejected;
        fp = fp.plus(score.tables);
        arena_fp = arena_fp.plus(score.arenas);
        if score.scratch.bytes > scratch_fp.bytes {
            scratch_fp = score.scratch;
        }
        merged.extend(score.matched);
    }
    if let Some(t0) = merge_t0 {
        obs.timeline_task(0, EventKind::Merge, merged.len() as u64, None, t0);
    }
    let sort_t0 = obs.timeline_start();
    merged.sort_unstable_by_key(|m| (m.0, m.1));
    if let Some(t0) = sort_t0 {
        obs.timeline_task(0, EventKind::Sort, merged.len() as u64, None, t0);
    }
    stats.report(obs);
    note_budget_rejected(obs, budget_rejected, max_cells);
    if obs.is_enabled() {
        obs.snapshot_footprint("sim_tables", fp);
        obs.snapshot_footprint("value_arenas", arena_fp);
        // each worker frees a shard's scratch before its next shard: at
        // most `concurrent` are live, bounded by the largest one each
        let live = concurrent as u64;
        obs.snapshot_footprint(
            "tile_scratch",
            Footprint::new(scratch_fp.bytes * live, scratch_fp.elements * live),
        );
    }
    sample_match_scores(&merged, obs);
    merged
}

fn obs_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Run `n` shard tasks on a work-stealing pool of at most `threads`
/// workers and return the results **in task order**, independent of
/// completion order — the merge-determinism backbone. With one worker
/// (or one task) this degenerates to a plain serial loop.
///
/// `f` receives `(task index, worker index)`; the worker index is the
/// spawn order of the claiming pool thread (0 on the serial path), a
/// stable identity for timeline and chunk attribution. When the
/// collector records a timeline the pool also reports the gap between
/// a worker finishing one task and claiming the next as a
/// [`EventKind::QueueWait`] event (zero-length gaps are elided).
pub(crate) fn run_sharded<T, F>(n: usize, threads: usize, obs: &Collector, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(|i| f(i, 0)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let f = &f;
                scope.spawn(move |_| {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    let mut last_end: Option<Instant> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(prev) = last_end.take() {
                            obs.timeline_gap(w, prev, i as u64);
                        }
                        done.push((i, f(i, w)));
                        if obs.timeline_enabled() {
                            last_end = Some(Instant::now());
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("shard worker panicked") {
                slots[i] = Some(t);
            }
        }
    })
    .expect("crossbeam scope");
    slots
        .into_iter()
        .map(|t| t.expect("every shard task ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{candidate_pairs_filtered, BlockingStrategy};
    use census_synth::{generate_series, SimConfig};
    use proptest::prelude::*;

    fn snapshot_pair() -> (census_model::CensusDataset, census_model::CensusDataset) {
        let mut series = generate_series(&SimConfig::small());
        let new = series.snapshots.remove(1);
        let old = series.snapshots.remove(0);
        (old, new)
    }

    fn par(shards: usize) -> Parallelism {
        Parallelism {
            shards,
            ..Parallelism::default()
        }
    }

    #[test]
    fn union_of_shards_equals_unsharded_filtered_pairs() {
        let (old, new) = snapshot_pair();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        for max_age_gap in [None, Some(3)] {
            let reference =
                candidate_pairs_filtered(&o, &n, gap, BlockingStrategy::Standard, 1, max_age_gap);
            for shards in [1, 2, 7, 64, 10_000] {
                let sharded = sharded_candidate_pairs(
                    &o,
                    &n,
                    gap,
                    par(shards),
                    max_age_gap,
                    &Collector::disabled(),
                );
                assert_eq!(sharded.per_shard.len(), shards);
                assert_eq!(sharded.total, reference.len(), "{shards} shards");
                let mut union: Vec<(u32, u32)> =
                    sharded.per_shard.iter().flatten().copied().collect();
                union.sort_unstable();
                // disjointness: the concatenation has no duplicates
                let len_before = union.len();
                union.dedup();
                assert_eq!(union.len(), len_before, "{shards} shards overlap");
                assert_eq!(union, reference, "{shards} shards");
            }
        }
    }

    #[test]
    fn more_shards_than_keys_leaves_trailing_shards_empty() {
        let (old, new) = snapshot_pair();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let sharded =
            sharded_candidate_pairs(&o, &n, gap, par(10_000), Some(3), &Collector::disabled());
        let empty = sharded.per_shard.iter().filter(|p| p.is_empty()).count();
        assert!(empty > 0, "expected empty shards with 10k shards");
        assert!(sharded.total > 0);
    }

    #[test]
    fn run_sharded_returns_results_in_task_order() {
        let obs = Collector::disabled();
        for threads in [1, 2, 5] {
            let out = run_sharded(17, threads, &obs, |i, _| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_sharded(0, 4, &obs, |i, _| i).is_empty());
    }

    #[test]
    fn run_sharded_hands_each_task_a_valid_worker_index() {
        let obs = Collector::disabled();
        for threads in [1, 3] {
            let workers = run_sharded(20, threads, &obs, |_, w| w);
            for &w in &workers {
                assert!(w < threads, "worker index {w} out of range");
            }
            if threads == 1 {
                assert!(workers.iter().all(|&w| w == 0), "serial path is worker 0");
            }
        }
    }

    proptest! {
        #[test]
        fn plan_assigns_every_key_to_exactly_one_shard(
            shards in 1usize..40,
            entries in proptest::collection::vec((any::<u64>(), 0u64..10_000), 0..200),
        ) {
            let mut entries = entries;
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries.dedup_by_key(|&mut (k, _)| k);
            let plan = ShardPlan::build(&entries, shards);
            prop_assert_eq!(plan.shards(), shards);
            // every key resolves to exactly one in-range shard
            for &(k, _) in &entries {
                let s = plan.shard_of(k).expect("assigned");
                prop_assert!(s < shards);
            }
            prop_assert_eq!(plan.assignment.len(), entries.len());
            // loads account for exactly the input weights
            let total: u64 = entries.iter().map(|&(_, w)| w).sum();
            prop_assert_eq!(plan.loads().iter().sum::<u64>(), total);
        }

        #[test]
        fn plan_loads_stay_within_the_lpt_balance_bound(
            shards in 1usize..40,
            entries in proptest::collection::vec((any::<u64>(), 0u64..10_000), 0..200),
        ) {
            let mut entries = entries;
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries.dedup_by_key(|&mut (k, _)| k);
            let plan = ShardPlan::build(&entries, shards);
            let bound = plan.balance_bound();
            for &load in plan.loads() {
                prop_assert!(
                    load <= bound,
                    "load {} exceeds LPT bound {}", load, bound
                );
            }
        }

        #[test]
        fn plan_is_deterministic(
            shards in 1usize..20,
            entries in proptest::collection::vec((any::<u64>(), 0u64..1000), 0..100),
        ) {
            let mut entries = entries;
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries.dedup_by_key(|&mut (k, _)| k);
            let a = ShardPlan::build(&entries, shards);
            // shuffled input (reversed) must yield the identical plan
            let mut rev = entries.clone();
            rev.reverse();
            let b = ShardPlan::build(&rev, shards);
            prop_assert_eq!(a.assignment, b.assignment);
            prop_assert_eq!(a.loads, b.loads);
        }
    }
}
