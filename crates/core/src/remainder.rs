//! Matching of remaining records (Algorithm 1, lines 17–19).
//!
//! Records that the subgraph phase could not place are matched with a
//! second, attribute-only similarity function under a greedy 1:1
//! assignment, with an age-plausibility filter. The group links induced
//! by those new record links extend the group mapping.

use crate::blocking::BlockingStrategy;
use crate::config::{Parallelism, RemainderConfig};
use crate::mem::MemGovernor;
use crate::pairscore::{PairScoreCache, Residue};
use crate::profiles::ProfileCache;
use crate::simfunc::SimFunc;
use census_model::{CensusDataset, GroupMapping, PersonRecord, RecordId, RecordMapping};
use obs::{Collector, Counter, EventKind};

/// Match the remaining records 1:1, extending `records`, and derive the
/// induced group links into `groups`. Returns the record links added.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's inputs
pub fn match_remaining(
    old_ds: &CensusDataset,
    new_ds: &CensusDataset,
    remaining_old: &[&PersonRecord],
    remaining_new: &[&PersonRecord],
    config: &RemainderConfig,
    blocking: BlockingStrategy,
    records: &mut RecordMapping,
    groups: &mut GroupMapping,
) -> Vec<(RecordId, RecordId)> {
    let mut cache = ProfileCache::new();
    match_remaining_cached(
        old_ds,
        new_ds,
        &Residue::new(remaining_old, remaining_new),
        config,
        blocking,
        Parallelism::default(),
        records,
        groups,
        &mut cache,
        None,
        &MemGovernor::unlimited(),
        &Collector::disabled(),
    )
}

/// [`match_remaining`] over the unlinked records of `residue`, reusing an
/// existing [`ProfileCache`]: when the remainder function's specs equal
/// the cache's, every residue record's profile is a cache hit from the
/// subgraph iterations. When a [`PairScoreCache`] built over the
/// residue's records is given and it covers the remainder function
/// (same specs, threshold at or above its floor, age filter no looser
/// than its build — see [`PairScoreCache::covers`]), scoring is skipped
/// entirely and the residue pairs are served from the cached scores;
/// otherwise the pass builds a cache of its own over the residue, at
/// the remainder function's threshold and age filter, with `mem`
/// capping its similarity tables. Pair counters are reported to `obs`
/// (pass [`Collector::disabled`] when not tracing).
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's inputs
pub fn match_remaining_cached(
    old_ds: &CensusDataset,
    new_ds: &CensusDataset,
    residue: &Residue,
    config: &RemainderConfig,
    blocking: BlockingStrategy,
    par: Parallelism,
    records: &mut RecordMapping,
    groups: &mut GroupMapping,
    cache: &mut ProfileCache,
    pair_cache: Option<&PairScoreCache>,
    mem: &MemGovernor,
    obs: &Collector,
) -> Vec<(RecordId, RecordId)> {
    if !config.enabled || residue.unlinked_old().is_empty() || residue.unlinked_new().is_empty() {
        return Vec::new();
    }
    let year_gap = i64::from(new_ds.year - old_ds.year);
    let sim: &SimFunc = &config.sim_func;
    let served = pair_cache.filter(|pc| pc.covers(sim, config.max_age_gap, blocking));
    let fresh;
    let pc = match served {
        Some(pc) => pc,
        None => {
            // a build of its own: pre-matching work inside the remainder
            // phase, so its scoring events nest in a `prematch` span
            let _prematch = obs.span("prematch");
            let (old_profiles, new_profiles) = cache.residue_profiles(sim, residue);
            fresh = PairScoreCache::build_residue(
                residue,
                &old_profiles,
                &new_profiles,
                year_gap,
                sim,
                Some(sim.threshold),
                blocking,
                par,
                Some(config.max_age_gap),
                mem,
                obs,
            )
            .expect("a build at its own fallback is never refused");
            obs.add(Counter::RemainderPairsScored, fresh.scored());
            &fresh
        }
    };
    // selection walks the whole cached pair set: one worker-0 timeline
    // event covers it, detail = pairs selected
    let t0 = obs.timeline_start();
    let mut scored = pc.select_remainder(sim, config.max_age_gap, year_gap, residue);
    if let Some(t0) = t0 {
        obs.timeline_task(0, EventKind::RemainderChunk, scored.len() as u64, None, t0);
    }
    if served.is_some() {
        obs.add(Counter::PairCacheHits, scored.len() as u64);
        obs.add(Counter::PairCacheFiltered, (pc.len() - scored.len()) as u64);
    }
    // mutual-best filter: drop pairs whose runner-up on either side is
    // within the margin — those are exactly the ambiguous leftovers
    if config.mutual_best_margin > 0.0 {
        use std::collections::HashMap;
        let mut best_old: HashMap<RecordId, (f64, f64)> = HashMap::new(); // (best, second)
        let mut best_new: HashMap<RecordId, (f64, f64)> = HashMap::new();
        let bump = |m: &mut HashMap<RecordId, (f64, f64)>, k: RecordId, s: f64| {
            let e = m.entry(k).or_insert((f64::MIN, f64::MIN));
            if s > e.0 {
                e.1 = e.0;
                e.0 = s;
            } else if s > e.1 {
                e.1 = s;
            }
        };
        for &(s, o, n) in &scored {
            bump(&mut best_old, o, s);
            bump(&mut best_new, n, s);
        }
        let margin = config.mutual_best_margin;
        scored.retain(|&(s, o, n)| {
            let bo = best_old[&o];
            let bn = best_new[&n];
            s >= bo.0
                && s >= bn.0
                && (bo.1 == f64::MIN || s - bo.1 >= margin)
                && (bn.1 == f64::MIN || s - bn.1 >= margin)
        });
    }
    // greedy best-first 1:1 assignment, deterministic tie-break
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
    });
    let mut added = Vec::new();
    for (s, o, n) in scored {
        if records.contains_old(o) || records.contains_new(n) {
            continue;
        }
        if records.insert(o, n) {
            added.push((o, n));
            // line 19: extend the group mapping with the induced pair
            let (Some(ro), Some(rn)) = (old_ds.record(o), new_ds.record(n)) else {
                continue;
            };
            groups.insert(ro.household, rn.household);
            if obs.decisions_enabled() {
                obs.decide(obs::DecisionRecord::Remainder(obs::RemainderDecision {
                    old_record: o.raw(),
                    new_record: n.raw(),
                    old_group: ro.household.raw(),
                    new_group: rn.household.raw(),
                    agg_sim: s,
                }));
            }
        }
    }
    obs.add(Counter::RemainderLinks, added.len() as u64);
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{Household, HouseholdId, Role, Sex};

    fn rec(id: u64, hh: u64, fname: &str, sname: &str, age: u32) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(hh), Role::Head);
        r.first_name = fname.into();
        r.surname = sname.into();
        r.sex = Some(Sex::Male);
        r.age = Some(age);
        r.address = "mill lane".into();
        r.occupation = "weaver".into();
        r
    }

    fn dataset(year: i32, records: Vec<PersonRecord>) -> CensusDataset {
        let mut households: std::collections::BTreeMap<HouseholdId, Vec<RecordId>> =
            std::collections::BTreeMap::new();
        for r in &records {
            households.entry(r.household).or_default().push(r.id);
        }
        let hh = households
            .into_iter()
            .map(|(id, members)| Household::new(id, members))
            .collect();
        CensusDataset::new(year, records, hh).unwrap()
    }

    #[test]
    fn matches_remaining_and_induces_group_link() {
        let old = dataset(1871, vec![rec(0, 0, "john", "ashworth", 39)]);
        let new = dataset(1881, vec![rec(0, 7, "john", "ashworth", 49)]);
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &RemainderConfig::default(),
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 1);
        assert!(records.contains(RecordId(0), RecordId(0)));
        assert!(groups.contains(HouseholdId(0), HouseholdId(7)));
    }

    #[test]
    fn age_filter_rejects_implausible_pairs() {
        let old = dataset(1871, vec![rec(0, 0, "john", "ashworth", 39)]);
        let new = dataset(1881, vec![rec(0, 0, "john", "ashworth", 20)]); // too young
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &RemainderConfig::default(),
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 0);
    }

    #[test]
    fn missing_age_passes_the_filter() {
        let mut r_old = rec(0, 0, "john", "ashworth", 39);
        r_old.age = None;
        let old = dataset(1871, vec![r_old]);
        let new = dataset(1881, vec![rec(0, 0, "john", "ashworth", 20)]);
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &RemainderConfig::default(),
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 1);
    }

    #[test]
    fn greedy_takes_best_assignment() {
        // old john matches both new records; the closer one (higher sim)
        // must win, the other old record takes the leftover
        let old = dataset(
            1871,
            vec![
                rec(0, 0, "john", "ashworth", 39),
                rec(1, 1, "jon", "ashworth", 41),
            ],
        );
        let new = dataset(
            1881,
            vec![
                rec(0, 0, "john", "ashworth", 49),
                rec(1, 1, "john", "ashwerth", 51),
            ],
        );
        let mut config = RemainderConfig::default();
        config.sim_func = config.sim_func.with_threshold(0.55);
        config.mutual_best_margin = 0.0;
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &config,
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 2);
        assert!(records.contains(RecordId(0), RecordId(0)));
        assert!(records.contains(RecordId(1), RecordId(1)));
    }

    #[test]
    fn ambiguous_pairs_are_dropped_by_margin() {
        // two identical old johns compete for one new john: no link
        let old = dataset(
            1871,
            vec![
                rec(0, 0, "john", "ashworth", 39),
                rec(1, 1, "john", "ashworth", 39),
            ],
        );
        let new = dataset(1881, vec![rec(0, 0, "john", "ashworth", 49)]);
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &RemainderConfig::default(),
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 0, "ambiguous pair must not be linked");
    }

    #[test]
    fn disabled_config_is_a_no_op() {
        let old = dataset(1871, vec![rec(0, 0, "john", "ashworth", 39)]);
        let new = dataset(1881, vec![rec(0, 0, "john", "ashworth", 49)]);
        let config = RemainderConfig {
            enabled: false,
            ..RemainderConfig::default()
        };
        let mut records = RecordMapping::new();
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &config,
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 0);
        assert!(records.is_empty());
    }

    #[test]
    fn already_linked_records_are_skipped() {
        let old = dataset(1871, vec![rec(0, 0, "john", "ashworth", 39)]);
        let new = dataset(1881, vec![rec(0, 0, "john", "ashworth", 49)]);
        let mut records = RecordMapping::new();
        records.insert(RecordId(0), RecordId(5)); // old side taken elsewhere
        let mut groups = GroupMapping::new();
        let o: Vec<&PersonRecord> = old.records().iter().collect();
        let n: Vec<&PersonRecord> = new.records().iter().collect();
        let added = match_remaining(
            &old,
            &new,
            &o,
            &n,
            &RemainderConfig::default(),
            BlockingStrategy::Full,
            &mut records,
            &mut groups,
        );
        assert_eq!(added.len(), 0);
    }
}
