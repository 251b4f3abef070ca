//! The shard plan of pre-matching, and the pool that runs its tasks.
//!
//! Blocking partitions the candidate space by *blocking key*: a
//! [`ShardPlan`] assigns every packed `u64` key to one of K shards with
//! size-balanced (LPT greedy) assignment, and [`crate::blocking`] emits
//! each shard's pairs as sorted runs ([`ShardedPairs`]). `K = 1` is a
//! one-shard plan, not a separate engine: the plan, the generation
//! tasks and the scorer are the same for every shard and thread count,
//! which change only how the work is cut into tasks for
//! [`run_sharded`].
//!
//! # Why the merged result is bit-identical for every plan
//!
//! A candidate pair can be proposed by several blocking keys that land
//! in different shards. A generation task keeps a pair only when the
//! pair's *owner* key — the highest-priority key the two records collide
//! on, a pure function of the records (see [`crate::blocking`]) — is the
//! bucket key it was generated from. That makes the per-shard pair sets
//! pairwise disjoint and their union exactly the candidate set. Scoring
//! reads one set of interned values and is deterministic, and the
//! scorer sorts the concatenated per-shard matches into `(old, new)`
//! order when there is more than one shard, so every downstream phase
//! sees byte-for-byte the same input — for any shard count, thread count
//! and completion order.

use obs::Collector;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

    /// Sum of all key weights: the pairs the buckets propose before the
    /// ownership and age filters.
    pub(crate) fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The LPT guarantee: no shard's load exceeds this bound.
    pub(crate) fn balance_bound(&self) -> u64 {
        self.total_weight / self.loads.len() as u64 + self.max_weight
    }
}

/// Candidate pairs partitioned by owning shard, plus the totals the
/// driver reports before scoring starts.
pub(crate) struct ShardedPairs {
    /// Per shard, its pairs in global `(old_idx, new_idx)` indices as
    /// sorted runs over ascending old-position ranges: concatenated in
    /// order, a shard's runs are sorted and duplicate-free.
    pub per_shard: Vec<Vec<Vec<(u32, u32)>>>,
    /// Blocking keys assigned to each shard.
    pub keys_per_shard: Vec<usize>,
    /// Total pairs across shards.
    pub total: usize,
    /// Predicted pair-weight load per shard from the LPT plan — the
    /// baseline the timeline's plan-quality ratio measures against.
    pub plan_loads: Vec<u64>,
}

impl ShardedPairs {
    pub(crate) fn new(
        per_shard: Vec<Vec<Vec<(u32, u32)>>>,
        keys_per_shard: Vec<usize>,
        plan_loads: Vec<u64>,
    ) -> Self {
        let total = per_shard.iter().flatten().map(Vec::len).sum();
        Self {
            per_shard,
            keys_per_shard,
            total,
            plan_loads,
        }
    }

    /// Every pair, sorted by `(old, new)`.
    pub(crate) fn into_sorted(self) -> Vec<(u32, u32)> {
        let shards = self.per_shard.len();
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(self.total);
        for run in self.per_shard.into_iter().flatten() {
            pairs.extend(run);
        }
        if shards > 1 {
            pairs.sort_unstable();
        }
        pairs
    }
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
    use crate::blocking::{block_pairs, BlockingStrategy};
    use crate::config::Parallelism;
    use census_model::PersonRecord;
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
    fn more_shards_than_keys_leaves_trailing_shards_empty() {
        let (old, new) = snapshot_pair();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let sharded = block_pairs(
            &o,
            &n,
            gap,
            BlockingStrategy::Standard,
            par(10_000),
            Some(3),
            &Collector::disabled(),
        );
        let empty = sharded
            .per_shard
            .iter()
            .filter(|runs| runs.iter().all(Vec::is_empty))
            .count();
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
