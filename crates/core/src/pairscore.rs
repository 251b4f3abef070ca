//! Scored candidate pairs of a residue, cached across δ steps.
//!
//! The aggregated attribute similarity (Eq. 3) is δ-independent: a pair
//! scored at δ = 0.70 has exactly the same `agg_sim` at δ = 0.65.
//! [`PairScoreCache`] is the one way a residue becomes scored pairs: it
//! blocks the residue's unlinked records once, scores them with the
//! batch kernel at the schedule's floor (keeping early-exit pruning,
//! against that floor) and keeps every pair that reaches it as
//! compressed rows keyed by the old record's position (12 bytes a pair,
//! see `crate::csr`). Each later iteration is then a filter-only pass
//! over the rows of the [`Residue`]'s unlinked records — cached pairs
//! with `agg_sim ≥ δ_current` whose new endpoint is unlinked too — with
//! zero re-blocking, re-tokenisation or re-scoring, and no record-id
//! lookups: the residue marks linked records by position. When the
//! memory budget refuses a floor cache, the build scores at the current
//! δ instead; the driver rebuilds it over the next residue, where the
//! budget gate is evaluated again.
//!
//! ## Why the filter is exact
//!
//! `SimFunc::matches_compiled` accepts a pair iff its full aggregate
//! score satisfies `s ≥ threshold`; the early-exit bound only prunes
//! pairs *provably* below the threshold, so the accepted set at any δ is
//! exactly `{pairs : agg_sim ≥ δ}`. A cache built at floor `f ≤ δ`
//! therefore contains every pair that any iteration at δ ≥ f can accept,
//! with bit-identical scores, and filtering it at δ reproduces a fresh
//! scoring pass exactly. Residues preserve this: blocking keys are
//! per-record, so the blocked pairs of a residue are precisely the
//! blocked pairs of any earlier residue restricted to its endpoints, and
//! the age-plausibility filter is per-pair and δ-independent.
//!
//! ## Observability
//!
//! Because pairs are scored once at the floor, the `pair_agg_sim_bp`
//! histogram of a traced run reflects the floor-scored pair set
//! (everything with `agg_sim ≥ δ_low`), sampled at build time;
//! filter-only iterations add no histogram samples, only
//! `pair_cache_hits`/`pair_cache_filtered` counters.

use crate::blocking::{block_pairs, BlockingStrategy};
use crate::config::Parallelism;
use crate::csr::MatchCsr;
use crate::mem::MemGovernor;
use crate::prematch::{age_plausible, score_pairs};
use crate::simfunc::{AttributeSpec, CompiledProfile, SimFunc};
use census_model::{PersonRecord, RecordId};
use obs::{Collector, Counter, Footprint, MemoryFootprint};

/// Partner slot of a record that is not linked yet.
const UNLINKED: u32 = u32::MAX;

/// The records the iterative driver links, in one fixed index space: the
/// slices a [`PairScoreCache`] is built over, with the records already
/// linked paired up. Positions index [`Residue::old_records`] and
/// [`Residue::new_records`]. The unlinked records are the residue the
/// next pass draws from; the linked pairs are the anchors a
/// [`crate::PreMatch`] carries.
#[derive(Debug, Clone)]
pub struct Residue<'r> {
    old: Vec<&'r PersonRecord>,
    new: Vec<&'r PersonRecord>,
    /// New position each old record is linked to ([`UNLINKED`] if none).
    partner_old: Vec<u32>,
    /// Old position each new record is linked to ([`UNLINKED`] if none).
    partner_new: Vec<u32>,
}

impl<'r> Residue<'r> {
    /// A residue over `old × new` with nothing linked yet.
    ///
    /// # Panics
    ///
    /// Panics if a side holds `u32::MAX` records or more.
    #[must_use]
    pub fn new(old: &[&'r PersonRecord], new: &[&'r PersonRecord]) -> Self {
        assert!(
            old.len() < UNLINKED as usize && new.len() < UNLINKED as usize,
            "record positions must fit u32"
        );
        Self {
            old: old.to_vec(),
            new: new.to_vec(),
            partner_old: vec![UNLINKED; old.len()],
            partner_new: vec![UNLINKED; new.len()],
        }
    }

    /// Every old record, linked or not, by position.
    #[must_use]
    pub fn old_records(&self) -> &[&'r PersonRecord] {
        &self.old
    }

    /// Every new record, linked or not, by position.
    #[must_use]
    pub fn new_records(&self) -> &[&'r PersonRecord] {
        &self.new
    }

    /// Record the link of old position `p` to new position `q`.
    ///
    /// # Panics
    ///
    /// Panics if either record is linked already (links are 1:1).
    pub fn link(&mut self, p: u32, q: u32) {
        assert!(
            self.partner_old[p as usize] == UNLINKED && self.partner_new[q as usize] == UNLINKED,
            "record linked twice"
        );
        self.partner_old[p as usize] = q;
        self.partner_new[q as usize] = p;
    }

    /// Whether old position `p` is linked.
    pub(crate) fn is_linked_old(&self, p: u32) -> bool {
        self.partner_old[p as usize] != UNLINKED
    }

    /// Whether new position `q` is linked.
    pub(crate) fn is_linked_new(&self, q: u32) -> bool {
        self.partner_new[q as usize] != UNLINKED
    }

    /// Number of linked pairs.
    pub(crate) fn linked(&self) -> usize {
        self.partner_old.iter().filter(|&&q| q != UNLINKED).count()
    }

    /// Positions of the unlinked old records, ascending.
    pub(crate) fn unlinked_old(&self) -> Vec<u32> {
        unlinked(&self.partner_old)
    }

    /// Positions of the unlinked new records, ascending.
    pub(crate) fn unlinked_new(&self) -> Vec<u32> {
        unlinked(&self.partner_new)
    }

    /// The linked pairs as `(old, new, 1.0)` anchors, in old order.
    pub(crate) fn anchors(&self) -> impl Iterator<Item = (u32, u32, f64)> + Clone + '_ {
        self.partner_old
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q != UNLINKED)
            .map(|(p, &q)| (p as u32, q, 1.0))
    }
}

fn unlinked(partner: &[u32]) -> Vec<u32> {
    (0..partner.len() as u32)
        .filter(|&p| partner[p as usize] == UNLINKED)
        .collect()
}

impl MemoryFootprint for Residue<'_> {
    fn footprint(&self) -> Footprint {
        use obs::footprint::vec_capacity_bytes as cap;
        let bytes =
            cap(&self.old) + cap(&self.new) + cap(&self.partner_old) + cap(&self.partner_new);
        Footprint::new(bytes, (self.old.len() + self.new.len()) as u64)
    }
}

/// Pair scores computed once per residue and filtered per δ step — the
/// one path by which records become scored pairs. See the module docs
/// for the exactness argument.
#[derive(Debug, Clone)]
pub struct PairScoreCache {
    specs: Vec<AttributeSpec>,
    /// The threshold the pairs were scored against: the schedule floor,
    /// or the current δ when the budget refused a floor cache.
    floor: f64,
    /// Age-plausibility tolerance applied before scoring, if any.
    tolerance: Option<u32>,
    strategy: BlockingStrategy,
    /// Blocked pairs the build scored.
    scored: u64,
    /// Every pair at or above the floor, as rows keyed by the old
    /// record's position in the build slices — the `(old, new)` order a
    /// fresh scoring pass yields.
    pairs: MatchCsr,
}

impl PairScoreCache {
    /// Block and score every candidate pair of `old × new` once, at
    /// `sim`'s threshold (the schedule floor). `old_profiles[i]` must be
    /// `sim.compile(old[i])`, and likewise for the new side.
    ///
    /// Returns `None` when `mem` refuses the cache (its estimated size
    /// over the blocked pairs exceeds the pair-cache budget share) —
    /// recorded as a `mem_fallback_pair_cache` counter and trace event.
    /// The driver's per-residue build, over a residue with nothing
    /// linked.
    #[allow(clippy::too_many_arguments)] // the full pre-matching input set
    #[must_use]
    pub fn build(
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
    ) -> Option<Self> {
        Self::build_residue(
            &Residue::new(old, new),
            old_profiles,
            new_profiles,
            year_gap,
            sim,
            None,
            strategy,
            par,
            max_age_gap,
            mem,
            obs,
        )
    }

    /// Block the unlinked records of `residue` once (their profiles are
    /// `old_profiles` / `new_profiles`, in position order), score them
    /// with the batch kernel and lay the matches out as rows over the
    /// residue's positions. The budget gate picks the threshold after
    /// blocking: `sim`'s (the schedule floor) when `mem` admits a cache
    /// over the blocked pairs, `fallback` otherwise — or no cache, when
    /// there is no fallback. A fallback equal to the floor has nothing
    /// to gate.
    #[allow(clippy::too_many_arguments)] // the full pre-matching input set
    pub(crate) fn build_residue(
        residue: &Residue,
        old_profiles: &[&CompiledProfile],
        new_profiles: &[&CompiledProfile],
        year_gap: i64,
        sim: &SimFunc,
        fallback: Option<f64>,
        strategy: BlockingStrategy,
        par: Parallelism,
        max_age_gap: Option<u32>,
        mem: &MemGovernor,
        obs: &Collector,
    ) -> Option<Self> {
        let (old_pos, new_pos) = (residue.unlinked_old(), residue.unlinked_new());
        debug_assert_eq!(old_pos.len(), old_profiles.len());
        debug_assert_eq!(new_pos.len(), new_profiles.len());
        let (threshold, scored, matches) = {
            let old: Vec<&PersonRecord> =
                old_pos.iter().map(|&p| residue.old[p as usize]).collect();
            let new: Vec<&PersonRecord> =
                new_pos.iter().map(|&q| residue.new[q as usize]).collect();
            // the budget gate sees the candidate pair count before any
            // scoring starts; the blocked pairs are dropped once scored.
            // Blocking is named by a child span of the enclosing phase
            let blocked = {
                let _blocking = obs.span("blocking");
                block_pairs(&old, &new, year_gap, strategy, par, max_age_gap, obs)
            };
            let n_pairs = blocked.total;
            obs.add(Counter::BlockingPairsGenerated, n_pairs as u64);
            let threshold = if fallback == Some(sim.threshold) || mem.allow_pair_cache(n_pairs) {
                sim.threshold
            } else {
                obs.add(Counter::MemFallbackPairCache, 1);
                obs.event(
                    "mem_fallback_pair_cache",
                    format!(
                        "pair-score cache over {n_pairs} blocked pairs (~{} bytes) exceeds the \
                         budget share; not scoring at the floor",
                        n_pairs as u64 * MemGovernor::PAIR_ENTRY_BYTES
                    ),
                );
                fallback?
            };
            let sim = sim.with_threshold(threshold);
            let matches = score_pairs(&blocked, old_profiles, new_profiles, &sim, par, obs);
            (threshold, n_pairs as u64, matches)
        };
        Some(Self {
            specs: sim.specs().to_vec(),
            floor: threshold,
            tolerance: max_age_gap,
            strategy,
            scored,
            // the kernel's output is sorted by (old, new) and the residue
            // positions ascend, so one linear pass lays it out as rows
            pairs: MatchCsr::from_sorted(
                residue.old.len(),
                matches
                    .iter()
                    .map(|&(i, j, s)| (old_pos[i as usize], new_pos[j as usize], s)),
            ),
        })
    }

    /// Report the build as a δ-schedule pre-matching pass: the blocked
    /// pairs it scored and the matches it kept.
    pub(crate) fn report_prematch(&self, obs: &Collector) {
        obs.add(Counter::PrematchPairsScored, self.scored);
        obs.add(Counter::PrematchPairsMatched, self.pairs.len() as u64);
    }

    /// Blocked pairs the build scored.
    pub(crate) fn scored(&self) -> u64 {
        self.scored
    }

    /// The scored pairs as rows, for a pre-matching over the build
    /// slices.
    pub(crate) fn into_pairs(self) -> MatchCsr {
        self.pairs
    }

    /// Number of cached pairs (everything at or above the floor).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the cache holds no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.len() == 0
    }

    /// The threshold the cache was scored against.
    #[must_use]
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Filter-only pre-matching pass: the match pairs a fresh scoring of
    /// the residue's unlinked records at `delta` would produce, as `(old
    /// position, new position, agg_sim)` in the residue's index space,
    /// sorted by `(old, new)`. The residue must be over the cache's build
    /// slices, and `delta` at or above the build floor.
    #[must_use]
    pub fn select(&self, delta: f64, residue: &Residue) -> Vec<(u32, u32, f64)> {
        self.select_iter(delta, residue).collect()
    }

    /// [`PairScoreCache::select`] as a lazy walk over the unlinked rows.
    pub(crate) fn select_iter<'s>(
        &'s self,
        delta: f64,
        residue: &'s Residue,
    ) -> impl Iterator<Item = (u32, u32, f64)> + Clone + 's {
        debug_assert_eq!(self.pairs.rows(), residue.old_records().len());
        (0..self.pairs.rows())
            .filter(move |&p| !residue.is_linked_old(p as u32))
            .flat_map(move |p| self.pairs.row_pairs(p))
            .filter(move |&(_, q, s)| s >= delta && !residue.is_linked_new(q))
    }

    /// Whether a remainder pass with this similarity function, age
    /// tolerance and blocking strategy can be served from the cache:
    /// same attribute specs (so the cached scores *are* that function's
    /// scores), a threshold at or above the floor (so no accepted pair
    /// is missing), an age filter at least as strict as the build's (so
    /// re-applying it loses nothing), and the same blocking strategy.
    #[must_use]
    pub fn covers(&self, sim: &SimFunc, max_age_gap: u32, strategy: BlockingStrategy) -> bool {
        sim.specs() == self.specs.as_slice()
            && sim.threshold >= self.floor
            && self.tolerance.is_none_or(|t| max_age_gap <= t)
            && strategy == self.strategy
    }

    /// Serve a remainder pass from the cache: the residue's unlinked
    /// pairs at or above `sim.threshold`, with the remainder's (stricter)
    /// age filter re-applied, as `(agg_sim, old id, new id)`. Callers
    /// must check [`PairScoreCache::covers`] first.
    #[must_use]
    pub fn select_remainder(
        &self,
        sim: &SimFunc,
        max_age_gap: u32,
        year_gap: i64,
        residue: &Residue,
    ) -> Vec<(f64, RecordId, RecordId)> {
        self.select_iter(sim.threshold, residue)
            .filter_map(|(p, q, s)| {
                let (ro, rn) = (
                    residue.old_records()[p as usize],
                    residue.new_records()[q as usize],
                );
                age_plausible(ro, rn, year_gap, max_age_gap).then_some((s, ro.id, rn.id))
            })
            .collect()
    }
}

impl MemoryFootprint for PairScoreCache {
    fn footprint(&self) -> Footprint {
        let pairs = self.pairs.footprint();
        let bytes = pairs.bytes + obs::footprint::vec_capacity_bytes(&self.specs);
        Footprint::new(bytes, pairs.elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prematch::prematch_with_profiles;
    use census_model::{HouseholdId, Role, Sex};

    fn rec(id: u64, fname: &str, sname: &str, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(Sex::Male);
        r.age = Some(age);
        r.address = "mill lane".into();
        r.occupation = "weaver".into();
        r
    }

    fn profiles<'a>(
        sim: &SimFunc,
        recs: &[&PersonRecord],
        store: &'a mut Vec<CompiledProfile>,
    ) -> Vec<&'a CompiledProfile> {
        *store = recs.iter().map(|r| sim.compile(r)).collect();
        store.iter().collect()
    }

    #[test]
    fn select_matches_fresh_scoring_at_every_delta() {
        let olds: Vec<PersonRecord> = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "jon", "mary", "marey"][i as usize % 4],
                    ["ashworth", "ashwerth"][i as usize % 2],
                    30 + (i % 7) as u32,
                )
            })
            .collect();
        let news: Vec<PersonRecord> = (0..40)
            .map(|i| {
                rec(
                    i,
                    ["john", "mary"][i as usize % 2],
                    "ashworth",
                    40 + (i % 7) as u32,
                )
            })
            .collect();
        let o: Vec<&PersonRecord> = olds.iter().collect();
        let n: Vec<&PersonRecord> = news.iter().collect();
        let par = Parallelism::default();
        let floor_sim = SimFunc::omega2(0.5);
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let op = profiles(&floor_sim, &o, &mut ostore);
        let np = profiles(&floor_sim, &n, &mut nstore);
        let cache = PairScoreCache::build(
            &o,
            &n,
            &op,
            &np,
            10,
            &floor_sim,
            BlockingStrategy::Full,
            par,
            Some(3),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        for delta in [0.5, 0.55, 0.6, 0.7, 0.9] {
            let sim = floor_sim.with_threshold(delta);
            let fresh = prematch_with_profiles(
                &o,
                &n,
                &op,
                &np,
                10,
                &sim,
                BlockingStrategy::Full,
                par,
                Some(3),
                &MemGovernor::unlimited(),
                &Collector::disabled(),
            );
            let selected = cache.select(delta, &Residue::new(&o, &n));
            assert_eq!(selected, fresh.pairs().collect::<Vec<_>>(), "δ={delta}");
        }
    }

    #[test]
    fn select_drops_linked_endpoints() {
        let o1 = rec(0, "john", "ashworth", 30);
        let o2 = rec(1, "mary", "ashworth", 33);
        let n1 = rec(0, "john", "ashworth", 40);
        let n2 = rec(1, "mary", "ashworth", 43);
        let sim = SimFunc::omega2(0.5);
        let all_o = [&o1, &o2];
        let all_n = [&n1, &n2];
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let op = profiles(&sim, &all_o, &mut ostore);
        let np = profiles(&sim, &all_n, &mut nstore);
        let cache = PairScoreCache::build(
            &all_o,
            &all_n,
            &op,
            &np,
            10,
            &sim,
            BlockingStrategy::Full,
            Parallelism::default(),
            None,
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        assert!(cache.len() >= 2);
        // once john is linked, only the mary pair survives the filter
        let mut residue = Residue::new(&all_o, &all_n);
        residue.link(0, 0);
        let selected = cache.select(0.5, &residue);
        assert_eq!(selected.len(), 1);
        assert_eq!((selected[0].0, selected[0].1), (1, 1)); // record positions
    }

    #[test]
    fn residue_tracks_links_and_anchors() {
        let recs: Vec<PersonRecord> = (0..4).map(|i| rec(i, "john", "ashworth", 30)).collect();
        let refs: Vec<&PersonRecord> = recs.iter().collect();
        let mut residue = Residue::new(&refs, &refs[..3]);
        residue.link(2, 0);
        residue.link(0, 1);
        assert!(residue.is_linked_old(0) && !residue.is_linked_old(1));
        assert!(residue.is_linked_new(1) && !residue.is_linked_new(2));
        assert_eq!(residue.linked(), 2);
        assert_eq!(residue.unlinked_old(), [1, 3]);
        assert_eq!(residue.unlinked_new(), [2]);
        // anchors come in old-position order, whatever the link order
        let anchors: Vec<_> = residue.anchors().collect();
        assert_eq!(anchors, [(0, 1, 1.0), (2, 0, 1.0)]);
    }

    #[test]
    fn covers_requires_specs_threshold_and_tolerance() {
        let o = rec(0, "john", "ashworth", 30);
        let n = rec(0, "john", "ashworth", 40);
        let sim = SimFunc::omega2(0.5);
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let op = profiles(&sim, &[&o], &mut ostore);
        let np = profiles(&sim, &[&n], &mut nstore);
        let cache = PairScoreCache::build(
            &[&o],
            &[&n],
            &op,
            &np,
            10,
            &sim,
            BlockingStrategy::Standard,
            Parallelism::default(),
            Some(3),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        let std = BlockingStrategy::Standard;
        assert!(cache.covers(&SimFunc::omega2(0.78), 3, std));
        assert!(cache.covers(&SimFunc::omega2(0.5), 2, std));
        // different specs
        assert!(!cache.covers(&SimFunc::omega1(0.78), 3, std));
        // threshold below the floor
        assert!(!cache.covers(&SimFunc::omega2(0.4), 3, std));
        // looser age tolerance than the build applied
        assert!(!cache.covers(&SimFunc::omega2(0.78), 5, std));
        // different blocking strategy
        assert!(!cache.covers(&SimFunc::omega2(0.78), 3, BlockingStrategy::Full));
    }

    #[test]
    fn select_remainder_reapplies_age_filter() {
        // ages drift by 5 — inside a build tolerance of 6, outside a
        // remainder tolerance of 3
        let o = rec(0, "john", "ashworth", 30);
        let n = rec(0, "john", "ashworth", 45);
        let sim = SimFunc::omega2(0.5);
        let (mut ostore, mut nstore) = (Vec::new(), Vec::new());
        let op = profiles(&sim, &[&o], &mut ostore);
        let np = profiles(&sim, &[&n], &mut nstore);
        let cache = PairScoreCache::build(
            &[&o],
            &[&n],
            &op,
            &np,
            10,
            &sim,
            BlockingStrategy::Full,
            Parallelism::default(),
            Some(6),
            &MemGovernor::unlimited(),
            &Collector::disabled(),
        )
        .unwrap();
        assert_eq!(cache.len(), 1);
        let rem = SimFunc::omega2(0.78);
        assert!(cache.covers(&rem, 3, BlockingStrategy::Full));
        let residue = Residue::new(&[&o], &[&n]);
        let scored = cache.select_remainder(&rem, 3, 10, &residue);
        assert!(scored.is_empty(), "remainder age filter must re-apply");
        let scored = cache.select_remainder(&rem, 6, 10, &residue);
        assert_eq!(scored.len(), 1);
    }
}
