//! Differential suite: the attribute-at-a-time batch scoring kernel —
//! the one pre-matching scorer, for every thread and shard count —
//! must reproduce the per-pair oracle `SimFunc::matches_compiled`
//! **bit for bit**: over the blocked, age-filtered candidate pairs,
//! `prematch_with_profiles`' match pairs equal `{pair → s :
//! matches_compiled(pair) = Some(s)}` under `f64::to_bits` equality, and
//! a traced run's `early_exit_prunes` equals the oracle's
//! `matches_compiled_counted` tally.
//!
//! The two share the descending-weight early-exit arithmetic — the batch
//! kernel compacts its per-tile selection vector at the oracle loop's
//! own bound check (`SimFunc::bound_fails_after`) and folds survivors
//! through `SimFunc::fold_survivor` — and differ only in *when and
//! where* per-attribute similarities are materialised (column work
//! items deduped tile-locally and streamed through
//! `textsim::MultisetArena`, instead of one `CompiledValue` merge per
//! pair and attribute).

mod common;

use census_model::{CensusDataset, PersonRecord, RecordId};
use common::{medium_pair_series, small_series};
use linkage_core::{
    candidate_pairs, prematch_with_profiles, BlockingStrategy, CompiledProfile, LinkageConfig,
    MemGovernor, Parallelism, SimFunc,
};
use obs::{Collector, Counter};
use std::collections::HashMap;

/// The pipeline's pre-matching age tolerance (paper footnote 2).
const MAX_AGE_GAP: u32 = 3;

/// Exact match pairs keyed by record ids, scores as raw bits.
type Matches = HashMap<(RecordId, RecordId), u64>;

/// Both sides of one snapshot pair, with the blocked, age-filtered
/// candidate pairs the oracle scores.
struct Corpus<'a> {
    old: Vec<&'a PersonRecord>,
    new: Vec<&'a PersonRecord>,
    year_gap: i64,
    pairs: Vec<(u32, u32)>,
}

impl<'a> Corpus<'a> {
    fn new(old_ds: &'a CensusDataset, new_ds: &'a CensusDataset) -> Self {
        let year_gap = i64::from(new_ds.year - old_ds.year);
        let old: Vec<&PersonRecord> = old_ds.records().iter().collect();
        let new: Vec<&PersonRecord> = new_ds.records().iter().collect();
        let mut pairs = candidate_pairs(&old, &new, year_gap, BlockingStrategy::Standard);
        pairs.retain(|&(i, j)| {
            match (old[i as usize].age, new[j as usize].age) {
                (Some(a), Some(b)) => {
                    (i64::from(b) - i64::from(a) - year_gap).unsigned_abs()
                        <= u64::from(MAX_AGE_GAP)
                }
                // a missing age never vetoes a pair
                _ => true,
            }
        });
        Self {
            old,
            new,
            year_gap,
            pairs,
        }
    }

    fn profiles(&self, sim: &SimFunc) -> (Vec<CompiledProfile>, Vec<CompiledProfile>) {
        (
            self.old.iter().map(|r| sim.compile(r)).collect(),
            self.new.iter().map(|r| sim.compile(r)).collect(),
        )
    }

    /// The per-pair oracle: every accepted pair with its score, and the
    /// early-exit prune tally.
    fn oracle(&self, sim: &SimFunc) -> (Matches, u64) {
        let (op, np) = self.profiles(sim);
        let mut prunes = 0u64;
        let matches = self
            .pairs
            .iter()
            .filter_map(|&(i, j)| {
                let s = sim.matches_compiled_counted(&op[i as usize], &np[j as usize], &mut prunes);
                s.map(|s| {
                    (
                        (self.old[i as usize].id, self.new[j as usize].id),
                        s.to_bits(),
                    )
                })
            })
            .collect();
        (matches, prunes)
    }

    /// The batch kernel through `prematch_with_profiles` on a traced
    /// run: match pairs, early-exit prunes and pairs scored.
    fn batch(&self, sim: &SimFunc, par: Parallelism) -> (Matches, u64, u64) {
        let (op, np) = self.profiles(sim);
        let (op, np): (Vec<&CompiledProfile>, Vec<&CompiledProfile>) =
            (op.iter().collect(), np.iter().collect());
        let obs = Collector::enabled();
        let pm = prematch_with_profiles(
            &self.old,
            &self.new,
            &op,
            &np,
            self.year_gap,
            sim,
            BlockingStrategy::Standard,
            par,
            Some(MAX_AGE_GAP),
            &MemGovernor::unlimited(),
            &obs,
        );
        let matches = pm
            .pairs()
            .map(|(i, j, s)| {
                let pair = (self.old[i as usize].id, self.new[j as usize].id);
                (pair, s.to_bits())
            })
            .collect();
        (
            matches,
            obs.counter(Counter::EarlyExitPrunes),
            obs.counter(Counter::PrematchPairsScored),
        )
    }

    fn assert_batch_equals_oracle(&self, sim: &SimFunc, par: Parallelism, label: &str) {
        let (expected, expected_prunes) = self.oracle(sim);
        let (got, prunes, scored) = self.batch(sim, par);
        assert_eq!(scored, self.pairs.len() as u64, "{label}: pairs scored");
        assert_eq!(got.len(), expected.len(), "{label}: match count");
        assert!(
            got == expected,
            "{label}: match pairs or score bits diverged"
        );
        assert_eq!(prunes, expected_prunes, "{label}: early-exit prunes");
    }
}

/// ω1/ω2 × δ {0.5, 0.6, 0.7} × shards {1, auto, 7} × serial/forced-
/// parallel on the small corpus. `auto` resolves as the driver does; a
/// fixed 7 keeps the sharded engine in the matrix where the small
/// corpus resolves `auto` to one shard.
#[test]
fn batch_equals_oracle_across_the_matrix() {
    let series = small_series();
    let corpus = Corpus::new(&series.snapshots[0], &series.snapshots[1]);
    let total = corpus.old.len() + corpus.new.len();
    for (omega, base) in [(1, SimFunc::omega1(0.5)), (2, SimFunc::omega2(0.5))] {
        for delta in [0.5, 0.6, 0.7] {
            let sim = base.with_threshold(delta);
            for shards in [1usize, 0, 7] {
                for (mode, threads, cutoff) in [("serial", 1usize, usize::MAX), ("parallel", 4, 0)]
                {
                    let config = LinkageConfig {
                        threads,
                        parallel_cutoff: cutoff,
                        shards,
                        ..LinkageConfig::default()
                    };
                    let par = Parallelism {
                        shards: config.resolved_shards(total),
                        ..config.parallelism()
                    };
                    corpus.assert_batch_equals_oracle(
                        &sim,
                        par,
                        &format!("ω{omega} δ={delta} shards={shards} {mode}"),
                    );
                }
            }
        }
    }
}

/// The medium corpus spans many scoring tiles and wider value
/// universes than the small one, in one task.
#[test]
fn batch_equals_oracle_on_the_medium_corpus() {
    let series = medium_pair_series();
    let corpus = Corpus::new(&series.snapshots[0], &series.snapshots[1]);
    let sim = SimFunc::omega2(0.5);
    let par = Parallelism {
        threads: 1,
        shards: 1,
        ..Parallelism::default()
    };
    corpus.assert_batch_equals_oracle(&sim, par, "medium serial");
}
