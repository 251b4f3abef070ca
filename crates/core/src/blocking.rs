//! Candidate pair generation (blocking).
//!
//! The paper compares every record of `R_i` with every record of
//! `R_{i+1}` — feasible for Rawtenstall-sized data but quadratic. This
//! module provides the standard multi-pass blocking used by real linkage
//! systems, plus the exhaustive cross product for paper-fidelity runs at
//! small scale. The default key set is chosen so that every noise class
//! the generator produces is still recoverable:
//!
//! 1. `soundex(surname) × first letter of first name` — robust to surname
//!    typos;
//! 2. `soundex(first name) × sex × age band` — catches women whose
//!    surname changed at marriage; the age band of the old record is
//!    shifted by the census gap and both adjacent bands are indexed, so
//!    age misreporting of ±3 years cannot split a true pair.
//!
//! Keys are packed into a single `u64` per pass — soundex bytes, sex code
//! and age band occupy disjoint bit ranges under a per-pass tag, so two
//! records share a packed key exactly when they would have shared the
//! equivalent formatted string key.
//!
//! # One keyed pipeline
//!
//! [`block_pairs`] is the one way Standard blocking runs, for every
//! thread and shard count. The keys are bucketed once (sorted `(key,
//! position)` lists, joined on the key), a [`ShardPlan`] assigns the
//! buckets to shards — `shards = 1` is a one-shard plan — and
//! generation tasks are `(shard, old-position range)` pairs. A task
//! keeps a pair when it is age-plausible and its *owner* key (see
//! [`owner_key`]) is the bucket key that proposed it, so every candidate
//! pair is emitted exactly once, by one task: a task's run only needs
//! sorting, never deduplication, and a shard's runs, concatenated in
//! range order, are already sorted. Threads change only how many ranges
//! a shard is cut into.

use crate::config::{Parallelism, DEFAULT_PARALLEL_CUTOFF};
use crate::prematch::{age_plausible, ages_plausible};
use crate::shard::{run_sharded, ShardPlan, ShardedPairs};
use census_model::{CensusDataset, PersonRecord};
use obs::Collector;
use std::collections::HashMap;
use std::ops::Range;
use textsim::{fold_diacritic, soundex_code};

/// How candidate pairs are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockingStrategy {
    /// Multi-pass phonetic + age-band blocking (default; near-linear).
    #[default]
    Standard,
    /// Full `R_i × R_{i+1}` cross product — the paper's setting; use only
    /// at small scale.
    Full,
}

/// Width (in years) of the age bands of blocking pass 2.
const AGE_BAND: i64 = 10;

// Pass tags occupy the top two bits of a packed key, so keys of
// different passes can never collide.
const TAG_SURNAME_FIRST: u64 = 1 << 62;
const TAG_SURNAME_SEX: u64 = 2 << 62;
const TAG_FIRSTNAME_AGE: u64 = 3 << 62;
/// Distinguishes a real age band of 0 from a missing age in pass 2 keys.
const HAS_AGE: u64 = 1 << 16;

/// First significant character of a name — the character
/// `normalize_name(s).chars().next()` would return, computed without
/// building the normalised string.
fn first_letter(s: &str) -> Option<char> {
    s.chars()
        .flat_map(char::to_lowercase)
        .map(fold_diacritic)
        .find(|&c| c.is_alphanumeric() || c == '-' || c == '\'')
}

/// The age band, clamped into the 16 bits reserved for it. Realistic
/// bands are single digits; the clamp only matters for absurd ages and
/// clamps both sides of a pair identically.
fn band_bits(band: i64) -> u64 {
    u64::from(band.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16 as u16)
}

/// The per-record ingredients of the packed blocking keys, computed once
/// per record so that pair *ownership* (see [`owner_key`]) can be decided
/// from the same source of truth as key emission — any drift between the
/// two would silently drop or duplicate candidate pairs under sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyFields {
    /// `soundex(surname)` as a big-endian `u32`, when the surname yields one.
    sx: Option<u32>,
    /// First significant letter of the first name.
    fl: Option<char>,
    /// `soundex(first name)` as a big-endian `u32`.
    fx: Option<u32>,
    /// Sex code byte (`m`/`f`/`?`).
    sex: u8,
    /// Recorded age.
    age: Option<u32>,
}

impl KeyFields {
    pub(crate) fn of(r: &PersonRecord) -> Self {
        Self {
            sx: soundex_code(&r.surname).map(u32::from_be_bytes),
            fl: first_letter(&r.first_name),
            fx: soundex_code(&r.first_name).map(u32::from_be_bytes),
            sex: r.sex.map_or(b'?', |s| s.code().as_bytes()[0]),
            age: r.age,
        }
    }

    /// Pass 1 key: surname soundex × first letter of the first name.
    fn surname_first_key(self) -> Option<u64> {
        match (self.sx, self.fl) {
            (Some(sx), Some(fl)) => {
                Some(TAG_SURNAME_FIRST | u64::from(sx) << 21 | u64::from(fl as u32))
            }
            _ => None,
        }
    }

    /// Pass 3 key: surname soundex × sex.
    fn surname_sex_key(self) -> Option<u64> {
        self.sx
            .map(|sx| TAG_SURNAME_SEX | u64::from(sx) << 8 | u64::from(self.sex))
    }

    /// Pass 2 key base: first-name soundex × sex, before the age-band
    /// bits are attached.
    fn firstname_age_base(self) -> Option<u64> {
        self.fx
            .map(|fx| TAG_FIRSTNAME_AGE | u64::from(fx) << 25 | u64::from(self.sex) << 17)
    }
}

/// The blocking keys of a record, from its [`KeyFields`], appended to
/// `out`. `shift` is added to the age before banding (the census gap for
/// old-side records, 0 for new-side). Field packing: soundex codes are 4
/// ASCII bytes (32 bits), the sex code byte is `m`/`f`/`?`, the first
/// letter is a `char` (≤ 21 bits) — each pass places them in disjoint
/// bit ranges, so packed keys are bijective with the formatted keys they
/// replace.
pub(crate) fn append_keys(kf: KeyFields, shift: i64, both_bands: bool, out: &mut Vec<u64>) {
    if let Some(k) = kf.surname_first_key() {
        out.push(k);
    }
    // pass 3: surname soundex × sex — catches first-name typos at the
    // word start (which break both the first-letter and the fn-soundex
    // keys) and records with a missing first name
    if let Some(k) = kf.surname_sex_key() {
        out.push(k);
    }
    if let Some(base) = kf.firstname_age_base() {
        if let Some(age) = kf.age {
            let band = (i64::from(age) + shift).div_euclid(AGE_BAND);
            out.push(base | HAS_AGE | band_bits(band));
            if both_bands {
                // index the adjacent bands too, so ±age noise at a band
                // boundary cannot hide a true pair
                out.push(base | HAS_AGE | band_bits(band + 1));
                out.push(base | HAS_AGE | band_bits(band - 1));
            }
        } else {
            out.push(base);
        }
    }
}

/// The blocking key that *owns* a candidate pair under sharded pair
/// generation: the highest-priority key the two records collide on
/// (surname×first-letter, then surname×sex, then first-name×age-band,
/// mirroring the emission order of [`append_keys`]). Every generated
/// pair collides on at least one key, so the owner is total over
/// candidate pairs, and it is a pure function of the two records — every
/// shard computes the same owner with no coordination. A shard keeps a
/// generated pair exactly when the owner is the bucket key it was
/// generated from, which makes the per-shard pair sets pairwise disjoint
/// and their union exactly the deduplicated unsharded output. Returns
/// `None` when the records share no key (such a pair is never generated).
pub(crate) fn owner_key(old: KeyFields, new: KeyFields, year_gap: i64) -> Option<u64> {
    if let (Some(a), Some(b)) = (old.surname_first_key(), new.surname_first_key()) {
        if a == b {
            return Some(a);
        }
    }
    if let (Some(a), Some(b)) = (old.surname_sex_key(), new.surname_sex_key()) {
        if a == b {
            return Some(a);
        }
    }
    if let (Some(a), Some(b)) = (old.firstname_age_base(), new.firstname_age_base()) {
        if a == b {
            match (old.age, new.age) {
                (Some(oa), Some(na)) => {
                    // the old side indexes bands {b-1, b, b+1} of the
                    // shifted age; the pair collides when the new side's
                    // band-bit pattern matches any of them
                    let ob = (i64::from(oa) + year_gap).div_euclid(AGE_BAND);
                    let nb = band_bits(i64::from(na).div_euclid(AGE_BAND));
                    if [ob, ob + 1, ob - 1].into_iter().any(|w| band_bits(w) == nb) {
                        return Some(b | HAS_AGE | nb);
                    }
                }
                (None, None) => return Some(b),
                _ => {}
            }
        }
    }
    None
}

/// Per-family blocking disagreement for a record pair, as
/// `[surname_first, surname_sex, firstname_age]`: a family is `true`
/// when both sides emitted a key for it but the keys did not collide —
/// the family actively rejected the pair, as opposed to being
/// unavailable because a side is missing the underlying field. Quality
/// telemetry uses this to attribute `not_blocked` losses; a pair with
/// `owner_key == None` can still show `false` for a family whose key one
/// side could not produce.
pub(crate) fn family_disagreement(old: KeyFields, new: KeyFields, year_gap: i64) -> [bool; 3] {
    let miss = |a: Option<u64>, b: Option<u64>| matches!((a, b), (Some(x), Some(y)) if x != y);
    let sf = miss(old.surname_first_key(), new.surname_first_key());
    let ss = miss(old.surname_sex_key(), new.surname_sex_key());
    let fa = match (old.firstname_age_base(), new.firstname_age_base()) {
        (Some(a), Some(b)) => {
            a != b
                || match (old.age, new.age) {
                    (Some(oa), Some(na)) => {
                        let ob = (i64::from(oa) + year_gap).div_euclid(AGE_BAND);
                        let nb = band_bits(i64::from(na).div_euclid(AGE_BAND));
                        ![ob, ob + 1, ob - 1].into_iter().any(|w| band_bits(w) == nb)
                    }
                    (None, None) => false,
                    _ => true, // mixed presence never collides (HAS_AGE bit)
                }
        }
        _ => false,
    };
    [sf, ss, fa]
}

/// Capacity to pre-allocate for a `Full` cross product. `checked_mul`
/// guards against overflow on huge (or adversarial) inputs, and the
/// clamp keeps a legitimate but enormous product from reserving the
/// whole address space up front — the vector still grows to the true
/// size by doubling.
pub(crate) fn full_prealloc_capacity(n_old: usize, n_new: usize) -> usize {
    const MAX_PREALLOC: usize = 1 << 24; // 16Mi pairs = 128 MiB of (u32, u32)
    n_old
        .checked_mul(n_new)
        .map_or(MAX_PREALLOC, |c| c.min(MAX_PREALLOC))
}

fn pack_pair(o: u32, n: u32) -> u64 {
    u64::from(o) << 32 | u64::from(n)
}

fn unpack_pair(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// Generate candidate `(old index, new index)` pairs over two record
/// slices. Indices refer to positions in the given slices. The result is
/// deduplicated and sorted.
#[must_use]
pub fn candidate_pairs(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
) -> Vec<(u32, u32)> {
    candidate_pairs_par(old, new, year_gap, strategy, 1)
}

/// [`candidate_pairs`] with pair generation cut into at least `threads`
/// tasks. The result is identical for any thread count.
#[must_use]
pub fn candidate_pairs_par(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
    threads: usize,
) -> Vec<(u32, u32)> {
    let par = Parallelism {
        threads: threads.max(1),
        cutoff: DEFAULT_PARALLEL_CUTOFF,
        shards: 1,
    };
    block_pairs(
        old,
        new,
        year_gap,
        strategy,
        par,
        None,
        &Collector::disabled(),
    )
    .into_sorted()
}

/// Block `old × new` into `par.shards` shards: every candidate pair
/// exactly once, as sorted runs per shard (see the module docs). Pairs
/// whose ages are implausible under `max_age_gap` are dropped at
/// emission (`None` keeps every blocked pair). Generation fans out over
/// `par.threads` workers unless `par.is_serial` holds for the pairs the
/// buckets propose. `Full` is one shard holding the cross product as a
/// single run.
pub(crate) fn block_pairs(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    year_gap: i64,
    strategy: BlockingStrategy,
    par: Parallelism,
    max_age_gap: Option<u32>,
    obs: &Collector,
) -> ShardedPairs {
    if strategy == BlockingStrategy::Full {
        let mut run = Vec::with_capacity(full_prealloc_capacity(old.len(), new.len()));
        for (i, &o) in old.iter().enumerate() {
            for (j, &n) in new.iter().enumerate() {
                if max_age_gap.is_none_or(|tol| age_plausible(o, n, year_gap, tol)) {
                    run.push((i as u32, j as u32));
                }
            }
        }
        return ShardedPairs::new(
            vec![vec![run]],
            vec![0],
            vec![(old.len() * new.len()) as u64],
        );
    }
    let old_kf: Vec<KeyFields> = old.iter().map(|r| KeyFields::of(r)).collect();
    let new_kf: Vec<KeyFields> = new.iter().map(|r| KeyFields::of(r)).collect();
    let old_entries = key_entries(&old_kf, year_gap, true);
    let new_entries = key_entries(&new_kf, 0, false);
    let buckets = join_buckets(&old_entries, &new_entries);
    let weights: Vec<(u64, u64)> = buckets
        .iter()
        .map(|b| (b.key, (b.old.len() * b.new.len()) as u64))
        .collect();
    let plan = ShardPlan::build(&weights, par.shards);
    debug_assert!(plan.loads().iter().all(|&l| l <= plan.balance_bound()));
    if obs.truth_enabled() && obs.truth_shard_map().is_none() {
        record_truth_shards(old, new, &old_kf, &new_kf, year_gap, &plan, obs);
    }
    let mut shard_buckets: Vec<Vec<&Bucket>> = vec![Vec::new(); plan.shards()];
    for b in &buckets {
        let s = plan.shard_of(b.key).expect("every bucket key is planned");
        shard_buckets[s].push(b);
    }
    let threads = if par.is_serial(plan.total_weight() as usize) {
        1
    } else {
        par.threads.max(1)
    };
    let ranges = threads.div_ceil(plan.shards());
    let bound = |r: usize| (old.len() * r / ranges) as u32;
    let generate = |task: usize, _worker: usize| -> Vec<(u32, u32)> {
        let (s, r) = (task / ranges, task % ranges);
        let (lo, hi) = (bound(r), bound(r + 1));
        let mut packed: Vec<u64> = Vec::new();
        for b in &shard_buckets[s] {
            let olds = &old_entries[b.old.clone()];
            let olds =
                &olds[olds.partition_point(|e| e.1 < lo)..olds.partition_point(|e| e.1 < hi)];
            for &(key, o) in olds {
                let okf = old_kf[o as usize];
                for &(_, n) in &new_entries[b.new.clone()] {
                    let nkf = new_kf[n as usize];
                    if max_age_gap.is_none_or(|tol| ages_plausible(okf.age, nkf.age, year_gap, tol))
                        && owner_key(okf, nkf, year_gap) == Some(key)
                    {
                        packed.push(pack_pair(o, n));
                    }
                }
            }
        }
        // strict ownership emits each pair once: sorting is all a run needs
        packed.sort_unstable();
        packed.into_iter().map(unpack_pair).collect()
    };
    let mut runs = run_sharded(plan.shards() * ranges, threads, obs, generate).into_iter();
    let per_shard = (0..plan.shards())
        .map(|_| runs.by_ref().take(ranges).collect())
        .collect();
    ShardedPairs::new(
        per_shard,
        shard_buckets.iter().map(Vec::len).collect(),
        plan.loads().to_vec(),
    )
}

/// One blocking key both sides emit: its ranges in the two sorted entry
/// lists of [`key_entries`].
struct Bucket {
    key: u64,
    old: Range<usize>,
    new: Range<usize>,
}

/// Every `(key, position)` a side emits, sorted — so each key's
/// positions form one ascending run. A record never emits one key twice
/// except when an absurd age clamps two bands together; the dedup keeps
/// such a record from proposing its pairs twice.
fn key_entries(kfs: &[KeyFields], shift: i64, both_bands: bool) -> Vec<(u64, u32)> {
    let mut entries = Vec::with_capacity(kfs.len() * 5);
    let mut keys = Vec::with_capacity(5);
    for (i, &kf) in kfs.iter().enumerate() {
        keys.clear();
        append_keys(kf, shift, both_bands, &mut keys);
        entries.extend(keys.iter().map(|&k| (k, i as u32)));
    }
    entries.sort_unstable();
    entries.dedup();
    entries
}

/// The keys both sides emit, ascending, with their entry ranges.
fn join_buckets(old: &[(u64, u32)], new: &[(u64, u32)]) -> Vec<Bucket> {
    let run_end = |e: &[(u64, u32)], i: usize| i + e[i..].partition_point(|x| x.0 == e[i].0);
    let mut buckets = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].0.cmp(&new[j].0) {
            std::cmp::Ordering::Less => i = run_end(old, i),
            std::cmp::Ordering::Greater => j = run_end(new, j),
            std::cmp::Ordering::Equal => {
                let (ie, je) = (run_end(old, i), run_end(new, j));
                buckets.push(Bucket {
                    key: old[i].0,
                    old: i..ie,
                    new: j..je,
                });
                (i, j) = (ie, je);
            }
        }
    }
    buckets
}

/// Truth telemetry: attribute each true record pair to the shard that
/// owns its blocking key. The collector keeps the first map of the run
/// (the δ-schedule's full-population blocking); later residues are
/// skipped by the caller.
fn record_truth_shards(
    old: &[&PersonRecord],
    new: &[&PersonRecord],
    old_kf: &[KeyFields],
    new_kf: &[KeyFields],
    year_gap: i64,
    plan: &ShardPlan,
    obs: &Collector,
) {
    let Some(tc) = obs.truth_config() else {
        return;
    };
    let old_at: HashMap<u64, usize> = old
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.raw(), i))
        .collect();
    let new_at: HashMap<u64, usize> = new
        .iter()
        .enumerate()
        .map(|(j, r)| (r.id.raw(), j))
        .collect();
    let mut map = Vec::new();
    for &(o, n) in &tc.record_pairs {
        let (Some(&i), Some(&j)) = (old_at.get(&o), new_at.get(&n)) else {
            continue;
        };
        if let Some(s) = owner_key(old_kf[i], new_kf[j], year_gap).and_then(|k| plan.shard_of(k)) {
            map.push((o, n, s));
        }
    }
    obs.truth_shard_map_set(map);
}

/// Convenience: candidate pairs over whole datasets, with the year gap
/// derived from the dataset years.
#[must_use]
pub fn dataset_candidate_pairs(
    old: &CensusDataset,
    new: &CensusDataset,
    strategy: BlockingStrategy,
) -> Vec<(u32, u32)> {
    let old_refs: Vec<&PersonRecord> = old.records().iter().collect();
    let new_refs: Vec<&PersonRecord> = new.records().iter().collect();
    candidate_pairs(
        &old_refs,
        &new_refs,
        i64::from(new.year - old.year),
        strategy,
    )
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
        r
    }

    #[test]
    fn full_strategy_is_cross_product() {
        let o1 = rec(0, "a", "b", Sex::Male, 20);
        let o2 = rec(1, "c", "d", Sex::Male, 30);
        let n1 = rec(0, "e", "f", Sex::Male, 40);
        let pairs = candidate_pairs(&[&o1, &o2], &[&n1], 10, BlockingStrategy::Full);
        assert_eq!(pairs, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn full_prealloc_capacity_is_guarded() {
        assert_eq!(full_prealloc_capacity(10, 10), 100);
        assert_eq!(full_prealloc_capacity(0, 5), 0);
        // a product that overflows usize must not panic or reserve it all
        assert_eq!(full_prealloc_capacity(usize::MAX, 2), 1 << 24);
        // a huge but representable product is clamped
        assert_eq!(full_prealloc_capacity(1 << 20, 1 << 20), 1 << 24);
    }

    #[test]
    fn identical_name_is_candidate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn surname_typo_is_candidate() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashwerth", Sex::Male, 49); // same soundex
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn married_woman_with_new_surname_is_candidate() {
        // surname changes completely, but first name + sex + shifted age
        // band match via pass 2
        let o = rec(0, "alice", "ashworth", Sex::Female, 8);
        let n = rec(0, "alice", "smith", Sex::Female, 18);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn age_noise_across_band_boundary_is_candidate() {
        // true age 19+10=29 (band 2), reported 31 (band 3): adjacent-band
        // indexing must still propose the pair
        let o = rec(0, "alice", "ashworth", Sex::Female, 19);
        let n = rec(0, "alice", "smith", Sex::Female, 31);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn unrelated_records_are_not_candidates() {
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "mary", "pilkington", Sex::Female, 20);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
    }

    #[test]
    fn pairs_are_deduplicated() {
        // same name and compatible age: both passes propose the pair
        let o = rec(0, "john", "ashworth", Sex::Male, 39);
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn missing_names_fall_out_gracefully() {
        let mut o = rec(0, "", "", Sex::Male, 39);
        o.age = None;
        let n = rec(0, "john", "ashworth", Sex::Male, 49);
        let pairs = candidate_pairs(&[&o], &[&n], 10, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
    }

    #[test]
    fn missing_age_blocks_separately_from_banded_age() {
        // missing age must not share a key with a real band-0 age
        let mut o = rec(0, "john", "pilkington", Sex::Male, 0);
        o.age = None;
        o.surname = String::new();
        let mut n = rec(0, "john", "ramsbottom", Sex::Male, 3);
        n.surname = String::new();
        let pairs = candidate_pairs(&[&o], &[&n], 0, BlockingStrategy::Standard);
        assert!(pairs.is_empty());
        // two missing ages do share the pass-2 key
        let mut n2 = rec(0, "john", "ramsbottom", Sex::Male, 3);
        n2.age = None;
        n2.surname = String::new();
        let pairs = candidate_pairs(&[&o], &[&n2], 0, BlockingStrategy::Standard);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    fn small_pair() -> census_synth::CensusSeries {
        census_synth::generate_series(&census_synth::SimConfig::small())
    }

    #[test]
    fn thread_and_shard_counts_only_cut_the_tasks() {
        let series = small_pair();
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let reference = candidate_pairs(&o, &n, gap, BlockingStrategy::Standard);
        assert!(
            reference.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
        for threads in [2, 3, 8] {
            for shards in [1, 2, 7, 10_000] {
                let par = Parallelism {
                    threads,
                    cutoff: 0,
                    shards,
                };
                let blocked = block_pairs(
                    &o,
                    &n,
                    gap,
                    BlockingStrategy::Standard,
                    par,
                    None,
                    &Collector::disabled(),
                );
                assert_eq!(blocked.per_shard.len(), shards);
                // a shard's runs, concatenated in range order, are sorted
                for runs in &blocked.per_shard {
                    let flat: Vec<_> = runs.iter().flatten().collect();
                    assert!(
                        flat.windows(2).all(|w| w[0] < w[1]),
                        "{threads} threads, {shards} shards"
                    );
                }
                assert_eq!(blocked.total, reference.len());
                assert_eq!(
                    blocked.into_sorted(),
                    reference,
                    "{threads} threads, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn fused_age_filter_equals_retain_after_the_fact() {
        let series = small_pair();
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        for strategy in [BlockingStrategy::Standard, BlockingStrategy::Full] {
            for (threads, shards) in [(1, 1), (4, 1), (2, 7)] {
                let mut unfused = candidate_pairs_par(&o, &n, gap, strategy, threads);
                unfused.retain(|&(i, j)| age_plausible(o[i as usize], n[j as usize], gap, 3));
                let par = Parallelism {
                    threads,
                    cutoff: 0,
                    shards,
                };
                let fused =
                    block_pairs(&o, &n, gap, strategy, par, Some(3), &Collector::disabled())
                        .into_sorted();
                assert_eq!(
                    unfused, fused,
                    "{strategy:?} at {threads} threads, {shards} shards"
                );
                assert!(!fused.is_empty());
            }
        }
    }

    #[test]
    fn owner_key_agrees_with_emitted_key_collisions() {
        // exhaustive cross-check on a synthetic snapshot pair against an
        // independent oracle: a pair is a blocking candidate iff the key
        // sets the two sides emit intersect — and exactly then `owner_key`
        // is Some, naming a key both sides emitted
        let series = small_pair();
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let gap = i64::from(new.year - old.year);
        let candidates: std::collections::HashSet<(u32, u32)> =
            candidate_pairs(&o, &n, gap, BlockingStrategy::Standard)
                .into_iter()
                .collect();
        let old_kf: Vec<KeyFields> = o.iter().map(|r| KeyFields::of(r)).collect();
        let new_kf: Vec<KeyFields> = n.iter().map(|r| KeyFields::of(r)).collect();
        let mut ko = Vec::new();
        let mut kn = Vec::new();
        for (i, &okf) in old_kf.iter().enumerate() {
            ko.clear();
            append_keys(okf, gap, true, &mut ko);
            for (j, &nkf) in new_kf.iter().enumerate() {
                kn.clear();
                append_keys(nkf, 0, false, &mut kn);
                let collide = ko.iter().any(|k| kn.contains(k));
                let is_candidate = candidates.contains(&(i as u32, j as u32));
                assert_eq!(
                    collide, is_candidate,
                    "key sets and candidates disagree at ({i},{j})"
                );
                let owner = owner_key(okf, nkf, gap);
                assert_eq!(
                    owner.is_some(),
                    collide,
                    "owner/collision disagree at ({i},{j}): owner={owner:?}"
                );
                if let Some(k) = owner {
                    assert!(
                        ko.contains(&k) && kn.contains(&k),
                        "owner {k:#x} of ({i},{j}) not emitted by both sides"
                    );
                }
            }
        }
        assert!(!candidates.is_empty());
    }

    #[test]
    fn owner_key_respects_age_presence() {
        // a missing age must never collide with a banded age via pass 2
        let with_age = KeyFields::of(&rec(0, "john", "", Sex::Male, 3));
        let mut r = rec(1, "john", "", Sex::Male, 0);
        r.age = None;
        let no_age = KeyFields::of(&r);
        assert_eq!(owner_key(no_age, with_age, 0), None);
        assert_eq!(owner_key(with_age, no_age, 0), None);
        // two missing ages do share the bare pass-2 base
        assert!(owner_key(no_age, no_age, 0).is_some());
    }

    #[test]
    fn blocking_recall_on_synthetic_pair() {
        // measure: the fraction of true links proposed by Standard
        // blocking must be near-total
        use census_synth::{generate_series, SimConfig};
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let truth = series.truth_between(0, 1).unwrap();
        let pairs = dataset_candidate_pairs(old, new, BlockingStrategy::Standard);
        let proposed: std::collections::HashSet<(u64, u64)> = pairs
            .iter()
            .map(|&(i, j)| {
                (
                    old.records()[i as usize].id.raw(),
                    new.records()[j as usize].id.raw(),
                )
            })
            .collect();
        let total = truth.records.len();
        let found = truth
            .records
            .iter()
            .filter(|&(o, n)| proposed.contains(&(o.raw(), n.raw())))
            .count();
        let recall = found as f64 / total as f64;
        assert!(
            recall > 0.93,
            "blocking recall {recall:.3} too low ({found}/{total})"
        );
    }
}
