//! Cross-iteration cache of compiled record profiles.
//!
//! The iterative driver (Algorithm 1) re-scores largely the same residue
//! records at δ, δ−Δ, …, and the remaining-records pass scores them once
//! more. Compiling a record's profile — normalisation plus per-attribute
//! tokenisation — is the expensive half of that work and depends only on
//! the attribute *specs*, not on δ. [`ProfileCache`] therefore keeps one
//! compiled profile per record per census side, reusing it for as long as
//! the similarity function's specs stay the same and rebuilding lazily
//! when they change (e.g. a remainder pass with different weights).
//! Profiles are keyed by the record's position in the run's record
//! slices — the index space of [`crate::Residue`] — so the slots are a
//! plain vector whatever the record ids look like.

use crate::pairscore::Residue;
use crate::simfunc::{AttributeSpec, CompiledProfile, SimFunc};
use census_model::PersonRecord;
use obs::{Footprint, MemoryFootprint};
use std::collections::HashMap;
use textsim::CompiledValue;

/// A per-run cache of [`CompiledProfile`]s for the two census sides,
/// keyed by record position and invalidated when the attribute specs
/// change. Every call on one cache must pass the same record slices.
#[derive(Debug, Default)]
pub struct ProfileCache {
    specs: Vec<AttributeSpec>,
    old: Vec<Option<CompiledProfile>>,
    new: Vec<Option<CompiledProfile>>,
    /// Per-spec memo of compiled raw values, shared across both sides —
    /// census attributes repeat heavily, so most compiles are clones.
    value_memo: Vec<HashMap<String, CompiledValue>>,
    built: usize,
    reused: usize,
}

impl ProfileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every cached profile when `sim`'s specs differ from the ones
    /// the cache was filled under — a profile is only valid for the exact
    /// spec list that compiled it.
    fn ensure_specs(&mut self, sim: &SimFunc) {
        if self.specs.as_slice() != sim.specs() {
            self.specs = sim.specs().to_vec();
            self.old.clear();
            self.new.clear();
            self.value_memo = vec![HashMap::new(); sim.specs().len()];
        }
    }

    fn fill(
        side: &mut Vec<Option<CompiledProfile>>,
        sim: &SimFunc,
        records: &[&PersonRecord],
        positions: &[u32],
        value_memo: &mut [HashMap<String, CompiledValue>],
        built: &mut usize,
        reused: &mut usize,
    ) {
        if side.len() < records.len() {
            side.resize_with(records.len(), || None);
        }
        for &p in positions {
            let slot = &mut side[p as usize];
            if slot.is_none() {
                *slot = Some(sim.compile_memoized(records[p as usize], value_memo));
                *built += 1;
            } else {
                *reused += 1;
            }
        }
    }

    /// Compile-or-fetch the profiles of every record of both sides,
    /// returned in input order. Records seen in an earlier call under the
    /// same specs reuse their cached profile.
    pub fn profiles<'c>(
        &'c mut self,
        sim: &SimFunc,
        old: &[&PersonRecord],
        new: &[&PersonRecord],
    ) -> (Vec<&'c CompiledProfile>, Vec<&'c CompiledProfile>) {
        let all = |n: usize| (0..n as u32).collect::<Vec<u32>>();
        self.profiles_at(sim, old, new, &all(old.len()), &all(new.len()))
    }

    /// [`ProfileCache::profiles`] for the records at `old_pos` / `new_pos`
    /// of the two sides only (a residue), returned in position order.
    pub fn profiles_at<'c>(
        &'c mut self,
        sim: &SimFunc,
        old: &[&PersonRecord],
        new: &[&PersonRecord],
        old_pos: &[u32],
        new_pos: &[u32],
    ) -> (Vec<&'c CompiledProfile>, Vec<&'c CompiledProfile>) {
        self.ensure_specs(sim);
        Self::fill(
            &mut self.old,
            sim,
            old,
            old_pos,
            &mut self.value_memo,
            &mut self.built,
            &mut self.reused,
        );
        Self::fill(
            &mut self.new,
            sim,
            new,
            new_pos,
            &mut self.value_memo,
            &mut self.built,
            &mut self.reused,
        );
        let get = |side: &'c [Option<CompiledProfile>], positions: &[u32]| {
            positions
                .iter()
                .map(|&p| side[p as usize].as_ref().expect("profile just filled"))
                .collect()
        };
        (get(&self.old, old_pos), get(&self.new, new_pos))
    }

    /// [`ProfileCache::profiles_at`] for the unlinked records of
    /// `residue`.
    pub(crate) fn residue_profiles<'c>(
        &'c mut self,
        sim: &SimFunc,
        residue: &Residue,
    ) -> (Vec<&'c CompiledProfile>, Vec<&'c CompiledProfile>) {
        let (old_pos, new_pos) = (residue.unlinked_old(), residue.unlinked_new());
        self.profiles_at(
            sim,
            residue.old_records(),
            residue.new_records(),
            &old_pos,
            &new_pos,
        )
    }

    /// Profiles compiled so far (cache misses).
    #[must_use]
    pub fn built(&self) -> usize {
        self.built
    }

    /// Profiles served from the cache (hits).
    #[must_use]
    pub fn reused(&self) -> usize {
        self.reused
    }
}

impl MemoryFootprint for ProfileCache {
    fn footprint(&self) -> Footprint {
        // slot vectors by capacity; each filled profile's compiled values
        // and each memo entry by their real owned heap (key string plus
        // `CompiledValue::heap_bytes`, which counts the raw string and
        // the measure-specific gram buffers)
        let slots = obs::footprint::vec_capacity_bytes(&self.old)
            + obs::footprint::vec_capacity_bytes(&self.new);
        let profiles: u64 = self
            .old
            .iter()
            .chain(self.new.iter())
            .flatten()
            .map(|p| {
                std::mem::size_of_val(p.values()) as u64
                    + p.values()
                        .iter()
                        .map(CompiledValue::heap_bytes)
                        .sum::<u64>()
            })
            .sum();
        let mut memo = 0u64;
        let mut memo_entries = 0u64;
        for m in &self.value_memo {
            memo_entries += m.len() as u64;
            memo +=
                obs::footprint::map_bytes(m.len(), std::mem::size_of::<(String, CompiledValue)>());
            memo += m
                .iter()
                .map(|(k, v)| k.capacity() as u64 + v.heap_bytes())
                .sum::<u64>();
        }
        let filled = (self.old.iter().flatten().count() + self.new.iter().flatten().count()) as u64;
        Footprint::new(slots + profiles + memo, filled + memo_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::{HouseholdId, RecordId, Role, Sex};

    fn rec(id: u64, fname: &str) -> PersonRecord {
        let mut r = PersonRecord::empty(RecordId(id), HouseholdId(0), Role::Head);
        r.first_name = fname.into();
        r.surname = "ashworth".into();
        r.sex = Some(Sex::Male);
        r
    }

    #[test]
    fn second_pass_reuses_every_profile() {
        let sim = SimFunc::omega2(0.7);
        let (a, b, c) = (rec(0, "john"), rec(1, "mary"), rec(2, "alice"));
        let mut cache = ProfileCache::new();
        {
            let (o, n) = cache.profiles(&sim, &[&a, &b], &[&c]);
            assert_eq!(o.len(), 2);
            assert_eq!(n.len(), 1);
        }
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 0);
        // lower threshold, same specs: everything is a hit
        let lowered = sim.with_threshold(0.5);
        let _ = cache.profiles(&lowered, &[&a, &b], &[&c]);
        assert_eq!(cache.built(), 3);
        assert_eq!(cache.reused(), 3);
    }

    #[test]
    fn changed_specs_invalidate_the_cache() {
        let (a, b) = (rec(0, "john"), rec(1, "mary"));
        let mut cache = ProfileCache::new();
        let _ = cache.profiles(&SimFunc::omega2(0.7), &[&a], &[&b]);
        assert_eq!(cache.built(), 2);
        // ω1 has different weights → different specs → full rebuild
        let _ = cache.profiles(&SimFunc::omega1(0.7), &[&a], &[&b]);
        assert_eq!(cache.built(), 4);
        assert_eq!(cache.reused(), 0);
    }

    #[test]
    fn cached_profiles_score_identically_to_fresh_ones() {
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(0, "john"), rec(1, "jon"));
        let mut cache = ProfileCache::new();
        let _ = cache.profiles(&sim, &[&a], &[&b]); // warm
        let (o, n) = cache.profiles(&sim, &[&a], &[&b]); // all hits
        let fresh = sim.aggregate_compiled(&sim.compile(&a), &sim.compile(&b));
        assert_eq!(sim.aggregate_compiled(o[0], n[0]), fresh);
    }

    #[test]
    fn profiles_are_keyed_by_position_not_id() {
        // two records sharing an id at different positions, and an id far
        // beyond the slice length: each position gets its own profile
        let sim = SimFunc::omega2(0.5);
        let (a, b, c) = (rec(7, "john"), rec(7, "mary"), rec(1 << 40, "alice"));
        let mut cache = ProfileCache::new();
        let (o, _) = cache.profiles(&sim, &[&a, &b, &c], &[]);
        assert!((sim.aggregate_compiled(o[0], o[1]) - 1.0).abs() > 0.05);
        assert_eq!(cache.built(), 3);
        // a residue of positions 0 and 2 is served from the cache, in order
        let (o, _) = cache.profiles_at(&sim, &[&a, &b, &c], &[], &[0, 2], &[]);
        let fresh = sim.aggregate_compiled(&sim.compile(&a), &sim.compile(&c));
        assert_eq!(sim.aggregate_compiled(o[0], o[1]), fresh);
        assert_eq!((cache.built(), cache.reused()), (3, 2));
    }

    #[test]
    fn sides_are_independent() {
        // the same record id on both sides must not collide
        let sim = SimFunc::omega2(0.5);
        let (a, b) = (rec(7, "john"), rec(7, "mary"));
        let mut cache = ProfileCache::new();
        let (o, n) = cache.profiles(&sim, &[&a], &[&b]);
        assert!((sim.aggregate_compiled(o[0], n[0]) - 1.0).abs() > 0.05);
    }
}
