//! Pre-matching (§3.2): attribute-based matching and clustering of the
//! records of two censuses.
//!
//! Candidate pairs from the blocking layer are scored with the weighted
//! attribute similarity (Eq. 3); pairs at or above δ become match pairs;
//! the connected components of the match pairs become clusters, and every
//! record is assigned its cluster label.
//!
//! Scoring is one function for every plan, [`score_pairs`]: the values
//! of both sides are interned once into global [`ValueIds`] and
//! [`MultisetArena`]s, the blocking plan's sorted runs are cut into
//! chunks of at most ⌈pairs/threads⌉ pairs, and the chunks run on the
//! shard pool (`crate::shard::run_sharded`) through one tile kernel.
//! The thread count, shard count and cutoff change only how the chunks
//! are cut, never which code scores them.

use crate::blocking::BlockingStrategy;
use crate::cluster::UnionFind;
use crate::config::Parallelism;
use crate::csr::MatchCsr;
use crate::mem::MemGovernor;
use crate::pairscore::{PairScoreCache, Residue};
use crate::shard::{run_sharded, ShardedPairs};
use crate::simfunc::{CompiledProfile, SimFunc};
use census_model::PersonRecord;
use obs::{Collector, Counter, EventKind, Footprint, MemoryFootprint, ShardStat};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use textsim::{CompiledValue, MultisetArena};

/// Dense per-attribute value ids over both record sides: profiles with
/// equal raw values (hence equal compiled representations) share an id,
/// so `(old id, new id)` names one `CompiledValue::similarity` work
/// item. Laid out `ids[record * n_specs + spec]`.
struct ValueIds<'p> {
    n_specs: usize,
    /// Id-space size per spec (unique values across both sides).
    uniques: Vec<usize>,
    old: Vec<u32>,
    new: Vec<u32>,
    /// One representative compiled value per interned id per spec, in id
    /// order — the batch kernel's arena build input. Valid because a
    /// spec's values all compile under one measure, so equal raw values
    /// yield equal representations.
    reps: Vec<Vec<&'p CompiledValue>>,
}

impl<'p> ValueIds<'p> {
    fn build(old_profiles: &[&'p CompiledProfile], new_profiles: &[&'p CompiledProfile]) -> Self {
        fn assign<'p>(
            profiles: &[&'p CompiledProfile],
            intern: &mut [HashMap<&'p str, u32>],
            reps: &mut [Vec<&'p CompiledValue>],
        ) -> Vec<u32> {
            let mut ids = Vec::with_capacity(profiles.len() * intern.len());
            for p in profiles {
                for (k, v) in p.values().iter().enumerate() {
                    let next = intern[k].len() as u32;
                    let id = *intern[k].entry(v.raw()).or_insert(next);
                    // ids are assigned densely, so `id == next` exactly
                    // when this raw value was first seen
                    if id == next {
                        reps[k].push(v);
                    }
                    ids.push(id);
                }
            }
            ids
        }
        let n_specs = old_profiles
            .first()
            .or(new_profiles.first())
            .map_or(0, |p| p.values().len());
        let mut intern: Vec<HashMap<&str, u32>> = (0..n_specs).map(|_| HashMap::new()).collect();
        let mut reps: Vec<Vec<&CompiledValue>> = (0..n_specs).map(|_| Vec::new()).collect();
        let old = assign(old_profiles, &mut intern, &mut reps);
        let new = assign(new_profiles, &mut intern, &mut reps);
        Self {
            n_specs,
            uniques: intern.iter().map(HashMap::len).collect(),
            old,
            new,
            reps,
        }
    }

    /// One [`MultisetArena`] per spec over the representatives, for the
    /// batch kernel's streaming merge loop.
    fn arenas(&self) -> Vec<MultisetArena<'p>> {
        self.reps.iter().map(|r| MultisetArena::build(r)).collect()
    }
}

/// Heap footprint of the batch kernel's arenas: packed bytes and laid-out
/// values, reported as the `value_arenas` memory row.
fn arena_footprint(arenas: &[MultisetArena]) -> Footprint {
    arenas.iter().fold(Footprint::ZERO, |acc, a| {
        acc.plus(Footprint::new(a.heap_bytes(), a.len() as u64))
    })
}

/// Pairs per batch-kernel tile. The tile scratch ([`TileScratch`], some
/// 65 bytes a pair with the default specs) scales with this constant,
/// once per scoring worker, so it sets the kernel's transient memory:
/// about 4 MiB a worker at 2^16 pairs, where 2^20 held ~85 MiB. Smaller
/// tiles dedup less of the value repetition tile-locally (the
/// `prematch.batch_dedup_rate` falls), but the tile's sort keys stay
/// cache-resident, and on the paper-scale pair that gained more than
/// the lost dedup cost — see DESIGN.md §14 for the measurement.
const BATCH_TILE_PAIRS: usize = 1 << 16;

/// Per-tile buffers of [`batch_score_into`], reused tile to tile; every
/// vector is bounded by [`BATCH_TILE_PAIRS`] entries (times the spec
/// count for the similarity stash), whatever the candidate count.
#[derive(Default)]
struct TileScratch {
    /// The selection vector: tile slots still above the early-exit bound.
    alive: Vec<u32>,
    /// Running weighted sums, aligned with `alive`.
    partials: Vec<f64>,
    /// One column's similarities, aligned with `alive`.
    lane: Vec<f64>,
    /// Per-slot spec similarities, read by the survivor fold.
    sims: Vec<f64>,
    /// Packed `(old id, new id[, slot])` keys of the tile-local dedup.
    keys: Vec<u64>,
    uniq: Vec<u64>,
    uniq_sims: Vec<f64>,
}

impl MemoryFootprint for TileScratch {
    fn footprint(&self) -> Footprint {
        use obs::footprint::vec_capacity_bytes as cap;
        let bytes = cap(&self.alive)
            + cap(&self.partials)
            + cap(&self.lane)
            + cap(&self.sims)
            + cap(&self.keys)
            + cap(&self.uniq)
            + cap(&self.uniq_sims);
        Footprint::new(bytes, self.partials.capacity() as u64)
    }
}

/// Telemetry of one batch-scoring pass.
#[derive(Default)]
struct BatchStats {
    /// Work items requested: still-alive pairs summed over the attribute
    /// columns — the same probe set the per-pair early-exit loop
    /// (`SimFunc::matches_compiled_counted`) makes.
    probes: u64,
    /// Unique `(old value-id, new value-id)` items actually computed —
    /// `1 − unique/probes` is the kernel's dedup win.
    unique: u64,
    /// Early-exit prune tally of the column compaction.
    prunes: u64,
}

impl BatchStats {
    /// Fold another pass's telemetry into this one.
    fn merge(&mut self, other: &Self) {
        self.probes += other.probes;
        self.unique += other.unique;
        self.prunes += other.prunes;
    }

    /// Add the tallies to the collector's counters.
    fn report(&self, obs: &Collector) {
        obs.add(Counter::PairScoreBatchProbes, self.probes);
        obs.add(Counter::PairScoreBatchedUnique, self.unique);
        obs.add(Counter::EarlyExitPrunes, self.prunes);
    }
}

/// Scored match pairs: `(old index, new index, agg_sim)`.
type Matches = Vec<(u32, u32, f64)>;

/// The attribute-at-a-time batch scoring kernel — the one pre-matching
/// scorer.
///
/// Pairs are processed in tiles. Per tile, attribute columns are
/// materialised one at a time in descending-weight order: a planning
/// pass dedups the column of interned value-id pairs to unique work
/// items by a tile-local sort, and each unique item is scored once
/// through the spec's [`MultisetArena`], streaming the packed gram
/// buffer linearly instead of chasing `CompiledValue` pointers. After
/// every column the tile's selection vector is compacted at the *same*
/// early-exit bound the per-pair loop `SimFunc::matches_compiled_counted`
/// checks (`SimFunc::bound_fails_after`), so later — lighter-weight —
/// columns shrink to the survivors and the kernel's probe set is exactly
/// that loop's. Survivors fold in original spec order
/// (`SimFunc::fold_survivor`); decisions, scores and prune counts are
/// bit-identical to the per-pair oracle — only the order the
/// per-attribute similarities are materialised in changes.
///
/// Returns the matches, sized to their count, and the footprint of the
/// tile scratch at its largest.
fn batch_score_into(
    pairs: &[(u32, u32)],
    sim: &SimFunc,
    ids: &ValueIds,
    arenas: &[MultisetArena],
    stats: &mut BatchStats,
) -> (Matches, Footprint) {
    let n_specs = ids.n_specs;
    let order = sim.spec_order();
    // every pair is a potential match: reserving that bound up front
    // avoids the copies of a doubling growth, and the pages of the unused
    // tail are never touched; the shrink below releases them
    let mut out = Vec::with_capacity(pairs.len());
    let mut scratch = TileScratch::default();
    let TileScratch {
        alive,
        partials,
        lane,
        sims,
        keys,
        uniq,
        uniq_sims,
    } = &mut scratch;
    for tile in pairs.chunks(BATCH_TILE_PAIRS) {
        let base = |p: u32| {
            let (i, j) = tile[p as usize];
            (i as usize * n_specs, j as usize * n_specs)
        };
        alive.clear();
        alive.extend(0..tile.len() as u32);
        partials.clear();
        partials.resize(tile.len(), 0.0);
        // stale slots are never read: the fold only visits survivors,
        // and every survivor had all its spec slots written
        sims.resize(tile.len() * n_specs, 0.0);
        for (k, &spec) in order.iter().enumerate() {
            if alive.is_empty() {
                break;
            }
            stats.probes += alive.len() as u64;
            lane.clear();
            // dedup within the tile by sorting the column's packed id
            // pairs, so each distinct item is scored exactly once
            const SLOT_BITS: u32 = BATCH_TILE_PAIRS.trailing_zeros();
            let max_id = ids.uniques[spec].saturating_sub(1) as u64;
            let id_bits = 64 - max_id.leading_zeros();
            if 2 * id_bits + SLOT_BITS <= 64 {
                // run-scan scatter: the ids and the lane slot all fit one
                // u64 (slots are tile-local, < the tile size), so sorting
                // groups equal (a, b) runs adjacently and each run's
                // single arena merge scatters straight back to its slots
                // — no second lookup
                let mask = (1u64 << id_bits) - 1;
                let slot_mask = (1u64 << SLOT_BITS) - 1;
                keys.clear();
                keys.extend(alive.iter().enumerate().map(|(idx, &p)| {
                    let (bo, bn) = base(p);
                    (u64::from(ids.old[bo + spec]) << (id_bits + SLOT_BITS))
                        | (u64::from(ids.new[bn + spec]) << SLOT_BITS)
                        | idx as u64
                }));
                keys.sort_unstable();
                lane.resize(alive.len(), 0.0);
                let mut run = u64::MAX;
                let mut v = 0.0;
                for &packed in keys.iter() {
                    let key = packed >> SLOT_BITS;
                    if key != run {
                        run = key;
                        stats.unique += 1;
                        v = arenas[spec].similarity((key >> id_bits) as u32, (key & mask) as u32);
                    }
                    lane[(packed & slot_mask) as usize] = v;
                }
            } else {
                // id spaces too wide to pack a slot alongside: dedup into
                // a sorted unique list and gather by binary search
                keys.clear();
                keys.extend(alive.iter().map(|&p| {
                    let (bo, bn) = base(p);
                    (u64::from(ids.old[bo + spec]) << 32) | u64::from(ids.new[bn + spec])
                }));
                uniq.clear();
                uniq.extend_from_slice(keys);
                uniq.sort_unstable();
                uniq.dedup();
                stats.unique += uniq.len() as u64;
                uniq_sims.clear();
                uniq_sims.extend(
                    uniq.iter()
                        .map(|&key| arenas[spec].similarity((key >> 32) as u32, key as u32)),
                );
                lane.extend(
                    keys.iter()
                        .map(|key| uniq_sims[uniq.binary_search(key).expect("key in unique set")]),
                );
            }
            // fold the column into the running bounds and compact the
            // selection vector — the per-pair loop's prune,
            // column-at-a-time
            let last = k + 1 == order.len();
            let w = sim.weight_of(spec);
            let mut kept = 0usize;
            for idx in 0..alive.len() {
                let p = alive[idx];
                let v = lane[idx];
                sims[p as usize * n_specs + spec] = v;
                let partial = partials[idx] + w * v;
                if sim.bound_fails_after(partial, k) {
                    // a fail on the last column is the threshold decision
                    // itself, not an early exit — the per-pair loop does
                    // not count it either
                    if !last {
                        stats.prunes += 1;
                    }
                } else {
                    alive[kept] = p;
                    partials[kept] = partial;
                    kept += 1;
                }
            }
            alive.truncate(kept);
            partials.truncate(kept);
        }
        for &p in alive.iter() {
            if let Some(s) = sim.fold_survivor(&sims[p as usize * n_specs..][..n_specs]) {
                let (i, j) = tile[p as usize];
                out.push((i, j, s));
            }
        }
    }
    out.shrink_to_fit();
    (out, scratch.footprint())
}

/// Whether a candidate pair is age-plausible: the new age must lie within
/// `tolerance` years of `old age + year_gap` (the paper's footnote 2:
/// pairs whose normalised age difference exceeds 3 years are never
/// accepted). Pairs with a missing age on either side pass.
pub(crate) fn age_plausible(
    old: &PersonRecord,
    new: &PersonRecord,
    year_gap: i64,
    tolerance: u32,
) -> bool {
    ages_plausible(old.age, new.age, year_gap, tolerance)
}

/// [`age_plausible`] over the two recorded ages.
pub(crate) fn ages_plausible(
    old: Option<u32>,
    new: Option<u32>,
    year_gap: i64,
    tolerance: u32,
) -> bool {
    match (old, new) {
        (Some(a), Some(b)) => {
            let expected = i64::from(a) + year_gap;
            (i64::from(b) - expected).unsigned_abs() <= u64::from(tolerance)
        }
        _ => true,
    }
}

/// The pre-matching result over two record slices, in their index
/// space: the cluster label of every record position on each side, the
/// record count of every cluster, and the match pairs with their
/// aggregated similarity as compressed rows keyed by the old position.
///
/// Labels are union-find roots over the old positions followed by the
/// new ones, so they are dense (`< old_len + new_len`) and the sizes are
/// a plain vector. Every position has a label; unmatched records form
/// singleton clusters.
#[derive(Debug, Clone, Default)]
pub struct PreMatch {
    label_old: Vec<u32>,
    label_new: Vec<u32>,
    /// Records (both sides) per label.
    sizes: Vec<u32>,
    pairs: MatchCsr,
}

impl PreMatch {
    /// Cluster `old_len` × `new_len` records by the transitive closure of
    /// match pairs given as `(old position, new position, agg_sim)`,
    /// sorted by `(old, new)`. The pairs are walked twice: once to size
    /// the rows exactly, once to fill them.
    #[must_use]
    pub(crate) fn from_sorted_pairs<I>(old_len: usize, new_len: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
        I::IntoIter: Clone,
    {
        Self::from_csr(MatchCsr::from_sorted(old_len, pairs), new_len)
    }

    /// Cluster the match pairs of `pairs` (one row per old position) over
    /// `new_len` new positions.
    fn from_csr(pairs: MatchCsr, new_len: usize) -> Self {
        let old_len = pairs.rows();
        let mut uf = UnionFind::new(old_len + new_len);
        for (p, q, _) in pairs.iter() {
            uf.union(p as usize, old_len + q as usize);
        }
        let label_old: Vec<u32> = (0..old_len).map(|p| uf.find(p) as u32).collect();
        let label_new: Vec<u32> = (0..new_len).map(|q| uf.find(old_len + q) as u32).collect();
        let mut sizes = vec![0u32; old_len + new_len];
        for &label in label_old.iter().chain(&label_new) {
            sizes[label as usize] += 1;
        }
        Self {
            label_old,
            label_new,
            sizes,
            pairs,
        }
    }

    /// Number of match pairs.
    #[must_use]
    pub fn match_count(&self) -> usize {
        self.pairs.len()
    }

    /// Number of old-side record positions.
    #[must_use]
    pub fn old_len(&self) -> usize {
        self.label_old.len()
    }

    /// Number of new-side record positions.
    #[must_use]
    pub fn new_len(&self) -> usize {
        self.label_new.len()
    }

    /// Cluster label of old position `p` (`None` past the end).
    #[must_use]
    pub fn old_label(&self, p: usize) -> Option<u32> {
        self.label_old.get(p).copied()
    }

    /// Cluster label of new position `q` (`None` past the end).
    #[must_use]
    pub fn new_label(&self, q: usize) -> Option<u32> {
        self.label_new.get(q).copied()
    }

    /// The number of records in the cluster a label names (0 for unknown
    /// labels).
    #[must_use]
    pub fn size_of_label(&self, label: u32) -> u32 {
        self.sizes.get(label as usize).copied().unwrap_or(0)
    }

    /// `agg_sim` of match pair `(p, q)`, or `None` when the pair did not
    /// reach the threshold — a binary search within row `p`.
    #[must_use]
    pub fn sim(&self, p: usize, q: usize) -> Option<f64> {
        self.pairs.get(p, q as u32)
    }

    /// The new positions old position `p` matched, ascending.
    pub(crate) fn matched_new(&self, p: usize) -> &[u32] {
        self.pairs.row(p).0
    }

    /// Every match pair as `(old position, new position, agg_sim)`, in
    /// `(old, new)` order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.pairs.iter()
    }
}

impl MemoryFootprint for PreMatch {
    fn footprint(&self) -> Footprint {
        let labels = obs::footprint::vec_capacity_bytes(&self.label_old)
            + obs::footprint::vec_capacity_bytes(&self.label_new)
            + obs::footprint::vec_capacity_bytes(&self.sizes);
        let pairs = self.pairs.footprint();
        Footprint::new(labels + pairs.bytes, pairs.elements)
    }
}

/// One scored chunk of a shard's runs.
struct ScoredChunk {
    shard: usize,
    matched: Matches,
    stats: BatchStats,
    scratch: Footprint,
    elapsed: Duration,
}

/// Score a blocking plan's candidate pairs with the batch kernel: `(old
/// idx, new idx, agg_sim)` of the pairs at or above the threshold,
/// sorted by `(old, new)` — decision- and score-identical to the naive
/// `aggregate_profiles` path (see `SimFunc::matches_compiled`).
///
/// Each shard's runs are cut into chunks of at most ⌈pairs/threads⌉
/// pairs (one worker when `par.is_serial` holds for the pair count) and
/// scored on the shard pool against one global set of interned values
/// and arenas. A shard's chunks come back in run order, so its matches
/// are sorted already; only a plan of several shards sorts the merged
/// matches, and only such a plan records [`ShardStat`] rows and
/// per-shard timeline events.
pub(crate) fn score_pairs(
    blocked: &ShardedPairs,
    old_profiles: &[&CompiledProfile],
    new_profiles: &[&CompiledProfile],
    sim: &SimFunc,
    par: Parallelism,
    obs: &Collector,
) -> Matches {
    if blocked.total == 0 {
        return Vec::new();
    }
    let sharded = blocked.per_shard.len() > 1;
    if sharded {
        // first plan of the run wins: this registers the headline
        // prematch plan the timeline's plan-quality ratio is judged
        // against
        obs.timeline_plan(&blocked.plan_loads);
    }
    let ids = ValueIds::build(old_profiles, new_profiles);
    let arenas = ids.arenas();
    if obs.is_enabled() {
        obs.snapshot_footprint("value_arenas", arena_footprint(&arenas));
    }
    let threads = if par.is_serial(blocked.total) {
        1
    } else {
        par.threads.max(1)
    };
    let max_chunk = blocked.total.div_ceil(threads);
    let chunks: Vec<(usize, &[(u32, u32)])> = blocked
        .per_shard
        .iter()
        .enumerate()
        .flat_map(|(s, runs)| {
            runs.iter()
                .flat_map(move |run| run.chunks(max_chunk).map(move |c| (s, c)))
        })
        .collect();
    let parts = run_sharded(chunks.len(), threads, obs, |ci, worker| {
        let (shard, pairs) = chunks[ci];
        let t0 = obs.timeline_start();
        let start = Instant::now();
        let mut stats = BatchStats::default();
        let (matched, scratch) = batch_score_into(pairs, sim, &ids, &arenas, &mut stats);
        let elapsed = start.elapsed();
        obs.thread_chunk("prematch", None, ci, worker, pairs.len(), elapsed);
        if let Some(t0) = t0 {
            let (kind, detail) = if sharded {
                (EventKind::Shard, shard)
            } else {
                (EventKind::PrematchTile, ci)
            };
            obs.timeline_task(worker, kind, detail as u64, None, t0);
        }
        ScoredChunk {
            shard,
            matched,
            stats,
            scratch,
            elapsed,
        }
    });

    // fold the telemetry per shard in chunk order; the driver thread
    // reports the merge and sort as worker-0 events
    let merge_t0 = obs.timeline_start();
    let mut stats = BatchStats::default();
    let mut scratch = Footprint::ZERO;
    let mut per_shard = vec![(0u64, Duration::ZERO); blocked.per_shard.len()];
    for chunk in &parts {
        stats.merge(&chunk.stats);
        if chunk.scratch.bytes > scratch.bytes {
            scratch = chunk.scratch;
        }
        per_shard[chunk.shard].0 += chunk.matched.len() as u64;
        per_shard[chunk.shard].1 += chunk.elapsed;
    }
    stats.report(obs);
    // concatenate in chunk order into the first chunk's matches, grown
    // once to the exact total, so the chunks are never all copied at once
    let total: usize = per_shard.iter().map(|&(m, _)| m as usize).sum();
    let mut parts = parts.into_iter().map(|chunk| chunk.matched);
    let mut merged = parts.next().unwrap_or_default();
    merged.reserve_exact(total - merged.len());
    for part in parts {
        merged.extend(part);
    }
    if obs.is_enabled() {
        // each worker frees a chunk's scratch before its next chunk: at
        // most one per worker is live, bounded by the largest
        let live = threads.min(chunks.len()) as u64;
        obs.snapshot_footprint(
            "tile_scratch",
            Footprint::new(scratch.bytes * live, scratch.elements * live),
        );
    }
    if sharded {
        for (s, (runs, &(matched, elapsed))) in blocked.per_shard.iter().zip(&per_shard).enumerate()
        {
            obs.shard_stat(ShardStat {
                shard: s,
                keys: blocked.keys_per_shard[s] as u64,
                pairs: runs.iter().map(Vec::len).sum::<usize>() as u64,
                matched,
                duration_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            });
        }
        if let Some(t0) = merge_t0 {
            obs.timeline_task(0, EventKind::Merge, per_shard.len() as u64, None, t0);
        }
        let sort_t0 = obs.timeline_start();
        merged.sort_unstable_by_key(|m| (m.0, m.1));
        if let Some(t0) = sort_t0 {
            obs.timeline_task(0, EventKind::Sort, merged.len() as u64, None, t0);
        }
    }
    sample_match_scores(&merged, obs);
    merged
}

/// Record every matched pair's `agg_sim` into the pair-score histogram
/// (in basis points), batched through one local histogram so the hot
/// path takes the collector lock once.
fn sample_match_scores(matched: &[(u32, u32, f64)], obs: &Collector) {
    if obs.is_enabled() {
        let mut hist = obs::Histogram::new();
        for &(_, _, s) in matched {
            hist.record(obs::score_bp(s));
        }
        obs.observe_hist(obs::LiveHist::PairScore, &hist);
    }
}

/// Run pre-matching over two record sets.
///
/// `year_gap` is `new.year - old.year` (used by the blocking age bands
/// and the age-plausibility filter). `max_age_gap` rejects candidate
/// pairs whose normalised age difference exceeds the tolerance — the
/// paper's footnote 2 guarantee; `None` disables the filter.
#[must_use]
pub fn prematch(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    sim: &SimFunc,
    strategy: BlockingStrategy,
    threads: usize,
    max_age_gap: Option<u32>,
) -> PreMatch {
    let old_compiled: Vec<CompiledProfile> = old.iter().map(|r| sim.compile(r)).collect();
    let new_compiled: Vec<CompiledProfile> = new.iter().map(|r| sim.compile(r)).collect();
    let old_profiles: Vec<&CompiledProfile> = old_compiled.iter().collect();
    let new_profiles: Vec<&CompiledProfile> = new_compiled.iter().collect();
    prematch_with_profiles(
        old,
        new,
        &old_profiles,
        &new_profiles,
        year_gap,
        sim,
        strategy,
        Parallelism {
            threads,
            ..Parallelism::default()
        },
        max_age_gap,
        &MemGovernor::unlimited(),
        &Collector::disabled(),
    )
}

/// [`prematch`] over profiles the caller already compiled (e.g. served
/// by a `ProfileCache` across the iterative driver's δ schedule).
/// `old_profiles[i]` must be `sim.compile(old[i])` — same specs, same
/// order — and likewise for the new side. Pair/prune counters and
/// per-thread chunk timings are reported to `obs` (pass
/// [`Collector::disabled`] when not tracing); `mem` is the budget the
/// build's pair-score cache is gated by (pass [`MemGovernor::unlimited`]
/// when not budgeting — a build at its own threshold is never refused,
/// so the result is the same either way).
#[allow(clippy::too_many_arguments)] // prematch's inputs plus the profile slices
#[must_use]
pub fn prematch_with_profiles(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    old_profiles: &[&CompiledProfile],
    new_profiles: &[&CompiledProfile],
    year_gap: i64,
    sim: &SimFunc,
    strategy: BlockingStrategy,
    par: Parallelism,
    max_age_gap: Option<u32>,
    mem: &MemGovernor,
    obs: &Collector,
) -> PreMatch {
    let scored = PairScoreCache::build_residue(
        &Residue::new(old, new),
        old_profiles,
        new_profiles,
        year_gap,
        sim,
        Some(sim.threshold),
        strategy,
        par,
        max_age_gap,
        mem,
        obs,
    )
    .expect("a build at its own fallback is never refused");
    scored.report_prematch(obs);
    PreMatch::from_csr(scored.into_pairs(), new.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};

    fn rec(id: u64, fname: &str, sname: &str, sex: Sex, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(sex);
        r.age = Some(age);
        r.address = "mill lane".into();
        r.occupation = "weaver".into();
        r
    }

    /// The paper's Fig. 3 scenario: exact name matching at threshold 1
    /// over first name + surname.
    fn fig3_simfunc() -> SimFunc {
        use crate::simfunc::AttributeSpec;
        use census_model::Attribute;
        use textsim::StringMeasure;
        SimFunc::new(
            vec![
                AttributeSpec {
                    attribute: Attribute::FirstName,
                    measure: StringMeasure::QGram(2),
                    weight: 0.5,
                },
                AttributeSpec {
                    attribute: Attribute::Surname,
                    measure: StringMeasure::QGram(2),
                    weight: 0.5,
                },
            ],
            1.0,
        )
    }

    #[test]
    fn fig3_clusters_by_full_name() {
        // 1871: john ashworth, alice ashworth; 1881: john ashworth ×2,
        // alice smith
        let o1 = rec(0, "john", "ashworth", Sex::Male, 39);
        let o2 = rec(1, "alice", "ashworth", Sex::Female, 8);
        let n1 = rec(0, "john", "ashworth", Sex::Male, 49);
        let n2 = rec(1, "john", "ashworth", Sex::Male, 30);
        let n3 = rec(2, "alice", "smith", Sex::Female, 18);
        let pm = prematch(
            &[&o1, &o2],
            &[&n1, &n2, &n3],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        // john_old clusters with both new johns
        let l_john = pm.old_label(0);
        assert_eq!(pm.new_label(0), l_john);
        assert_eq!(pm.new_label(1), l_john);
        assert_eq!(pm.size_of_label(l_john.unwrap()), 3);
        // alice ashworth does not cluster with alice smith at threshold 1
        assert_ne!(pm.old_label(1), pm.new_label(2));
        assert_eq!(pm.size_of_label(pm.old_label(1).unwrap()), 1);
        assert_eq!(pm.match_count(), 2);
    }

    #[test]
    fn pair_sims_store_aggregate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        let s = pm.sim(0, 0).unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn below_threshold_pairs_are_not_stored() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49); // one letter off
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        assert_eq!(pm.match_count(), 0);
        // …but both records still get (distinct singleton) labels
        assert_ne!(pm.old_label(0), pm.new_label(0));
    }

    #[test]
    fn lower_threshold_recovers_typos() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49);
        let f = fig3_simfunc().with_threshold(0.8);
        let pm = prematch(&[&o], &[&n], 10, &f, BlockingStrategy::Full, 1, None);
        assert_eq!(pm.match_count(), 1);
        assert_eq!(pm.old_label(0), pm.new_label(0));
    }

    #[test]
    fn transitive_closure_joins_within_one_side() {
        // two distinct old spellings both match one new record → all three
        // share a cluster
        let o1 = rec(0, "jon", "ashworth", Sex::Male, 39);
        let o2 = rec(1, "john", "ashworth", Sex::Male, 41);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let f = fig3_simfunc().with_threshold(0.8);
        let pm = prematch(&[&o1, &o2], &[&n], 10, &f, BlockingStrategy::Full, 1, None);
        let l = pm.new_label(0);
        assert_eq!(pm.old_label(0), l);
        assert_eq!(pm.old_label(1), l);
        assert_eq!(pm.size_of_label(l.unwrap()), 3);
    }

    #[test]
    fn parallel_equals_sequential() {
        // build a few hundred records and compare 1-thread vs 4-thread
        let olds: Vec<PersonRecord> = (0..150)
            .map(|i| {
                rec(
                    i,
                    if i % 3 == 0 { "john" } else { "mary" },
                    "ashworth",
                    Sex::Male,
                    30,
                )
            })
            .collect();
        let news: Vec<PersonRecord> = (0..150)
            .map(|i| {
                rec(
                    i,
                    if i % 2 == 0 { "john" } else { "marey" },
                    "ashworth",
                    Sex::Male,
                    40,
                )
            })
            .collect();
        let or: Vec<&PersonRecord> = olds.iter().collect();
        let nr: Vec<&PersonRecord> = news.iter().collect();
        let f = fig3_simfunc().with_threshold(0.8);
        let seq = prematch(&or, &nr, 10, &f, BlockingStrategy::Full, 1, None);
        let par = prematch(&or, &nr, 10, &f, BlockingStrategy::Full, 4, None);
        assert_eq!(seq.match_count(), par.match_count());
        let pairs = |pm: &PreMatch| pm.pairs().collect::<Vec<_>>();
        assert_eq!(pairs(&seq), pairs(&par));
        // labels are root indices; same unions → same partition (roots may
        // differ in principle, so compare partition structure)
        let part = |pm: &PreMatch| {
            let mut groups: HashMap<u32, Vec<String>> = HashMap::new();
            for p in 0..pm.old_len() {
                let l = pm.old_label(p).unwrap();
                groups.entry(l).or_default().push(format!("o{p}"));
            }
            for q in 0..pm.new_len() {
                let l = pm.new_label(q).unwrap();
                groups.entry(l).or_default().push(format!("n{q}"));
            }
            let mut v: Vec<Vec<String>> = groups
                .into_values()
                .map(|mut g| {
                    g.sort();
                    g
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(part(&seq), part(&par));
    }

    #[test]
    fn age_filter_rejects_implausible_pairs() {
        // a dead 3-year-old vs a child born after the old census: names
        // identical, ages impossible
        let o = rec(0, "john", "smith", Sex::Male, 3);
        let n = rec(0, "john", "smith", Sex::Male, 5);
        let with_filter = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            Some(3),
        );
        assert_eq!(with_filter.match_count(), 0);
        let without = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            None,
        );
        assert_eq!(without.match_count(), 1);
    }

    #[test]
    fn age_filter_passes_missing_ages() {
        let mut o = rec(0, "john", "smith", Sex::Male, 3);
        o.age = None;
        let n = rec(0, "john", "smith", Sex::Male, 5);
        let pm = prematch(
            &[&o],
            &[&n],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            1,
            Some(3),
        );
        assert_eq!(pm.match_count(), 1);
    }

    #[test]
    fn empty_inputs() {
        let pm = prematch(
            &[],
            &[],
            10,
            &fig3_simfunc(),
            BlockingStrategy::Full,
            2,
            None,
        );
        assert_eq!(pm.match_count(), 0);
        assert_eq!(pm.old_len(), 0);
    }
}
