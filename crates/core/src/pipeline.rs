//! Entry points and result types of the linkage (Algorithm 1): `link`,
//! `link_traced` and `link_series`, the per-link provenance and the
//! per-iteration statistics. The iterative driver itself is
//! [`crate::Linker`].

use crate::config::LinkageConfig;
use census_model::{CensusDataset, GroupMapping, RecordId, RecordMapping};
use std::collections::HashMap;

/// How a record link was found — the provenance a reviewer asks for when
/// auditing a linkage decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkPhase {
    /// Extracted from an accepted subgraph at this threshold, with the
    /// aggregated group similarity of the subgroup it came from.
    Subgraph {
        /// δ of the iteration that produced the link.
        delta: f64,
        /// `g_sim` of the accepted subgroup.
        g_sim: f64,
    },
    /// Added by the final attribute-only pass over remaining records.
    Remainder,
}

/// Statistics of one δ iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// Threshold δ used in this iteration.
    pub delta: f64,
    /// Match pairs produced by pre-matching.
    pub prematch_pairs: usize,
    /// Candidate group pairs that produced a non-empty subgraph.
    pub candidates: usize,
    /// Group links accepted by Algorithm 2.
    pub group_links: usize,
    /// Record links extracted from the accepted subgraphs.
    pub record_links: usize,
}

/// The output of [`link`]: the two mappings plus per-iteration trace.
#[derive(Debug, Clone)]
pub struct LinkageResult {
    /// The 1:1 record mapping `M_R`.
    pub records: RecordMapping,
    /// The N:M group mapping `M_G`.
    pub groups: GroupMapping,
    /// Per-iteration statistics, in execution order.
    pub iterations: Vec<IterationStats>,
    /// Record links added by the final remaining-records pass.
    pub remainder_links: usize,
    /// Per-link provenance: which phase produced each record link.
    pub provenance: HashMap<(RecordId, RecordId), LinkPhase>,
    /// Compiled record profiles built during the run (profile-cache
    /// misses; see `ProfileCache`).
    pub profiles_built: usize,
    /// Compiled record profiles served from the cross-iteration cache
    /// (hits): residue records re-scored at δ−Δ and the remainder pass
    /// reuse the profiles built at δ.
    pub profiles_reused: usize,
}

impl LinkageResult {
    /// How the given record link was found, if it exists.
    #[must_use]
    pub fn explain(&self, old: RecordId, new: RecordId) -> Option<LinkPhase> {
        self.provenance.get(&(old, new)).copied()
    }
}

/// Link two successive census snapshots (Algorithm 1).
///
/// One-shot convenience over [`crate::Linker`]; when the same pair is
/// linked repeatedly with different configurations, build a `Linker` once
/// and call [`crate::Linker::run`] instead.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`LinkageConfig::validate`]).
#[must_use]
pub fn link(old: &CensusDataset, new: &CensusDataset, config: &LinkageConfig) -> LinkageResult {
    crate::Linker::new(old, new).run(config)
}

/// [`link`] reporting phase spans and counters to `obs`.
///
/// Records the `enrich` phase plus everything [`crate::Linker::run_traced`]
/// reports; call [`obs::Collector::finish`] afterwards to snapshot the
/// [`obs::RunTrace`].
///
/// # Panics
///
/// Panics if `config` is invalid (see [`LinkageConfig::validate`]).
#[must_use]
pub fn link_traced(
    old: &CensusDataset,
    new: &CensusDataset,
    config: &LinkageConfig,
    obs: &obs::Collector,
) -> LinkageResult {
    crate::Linker::new_traced(old, new, obs).run_traced(config, obs)
}

/// Link every successive pair of a census series with one configuration.
///
/// Convenience for evolution analyses spanning many censuses; results are
/// returned in pair order.
///
/// # Panics
///
/// Panics if `snapshots` has fewer than two elements or `config` is
/// invalid.
#[must_use]
pub fn link_series(snapshots: &[&CensusDataset], config: &LinkageConfig) -> Vec<LinkageResult> {
    assert!(
        snapshots.len() >= 2,
        "link_series needs at least two snapshots"
    );
    snapshots
        .windows(2)
        .map(|w| link(w[0], w[1], config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkageConfig;
    use census_synth::{generate_series, GroundTruth, SimConfig};

    fn f1(truth_links: usize, found_links: usize, correct: usize) -> (f64, f64, f64) {
        let p = if found_links == 0 {
            0.0
        } else {
            correct as f64 / found_links as f64
        };
        let r = if truth_links == 0 {
            0.0
        } else {
            correct as f64 / truth_links as f64
        };
        let f = if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        };
        (p, r, f)
    }

    fn record_quality(result: &LinkageResult, truth: &GroundTruth) -> (f64, f64, f64) {
        let correct = result
            .records
            .iter()
            .filter(|&(o, n)| truth.records.contains(o, n))
            .count();
        f1(truth.records.len(), result.records.len(), correct)
    }

    fn group_quality(result: &LinkageResult, truth: &GroundTruth) -> (f64, f64, f64) {
        let correct = result
            .groups
            .iter()
            .filter(|&(o, n)| truth.groups.contains(o, n))
            .count();
        f1(truth.groups.len(), result.groups.len(), correct)
    }

    #[test]
    fn links_synthetic_pair_with_high_quality() {
        let series = generate_series(&SimConfig::small());
        let truth = series.truth_between(0, 1).unwrap();
        let result = link(
            &series.snapshots[0],
            &series.snapshots[1],
            &LinkageConfig::default(),
        );
        let (p, r, f) = record_quality(&result, &truth);
        assert!(f > 0.8, "record F1 too low: P={p:.3} R={r:.3} F={f:.3}");
        let (gp, gr, gf) = group_quality(&result, &truth);
        assert!(gf > 0.75, "group F1 too low: P={gp:.3} R={gr:.3} F={gf:.3}");
    }

    #[test]
    fn iterative_runs_planned_schedule() {
        let series = generate_series(&SimConfig::small());
        let config = LinkageConfig::default();
        let result = link(&series.snapshots[0], &series.snapshots[1], &config);
        assert!(!result.iterations.is_empty());
        assert!(result.iterations.len() <= config.planned_iterations());
        // δ decreases strictly across iterations
        for w in result.iterations.windows(2) {
            assert!(w[1].delta < w[0].delta);
        }
        assert!((result.iterations[0].delta - 0.7).abs() < 1e-9);
    }

    #[test]
    fn non_iterative_is_single_pass() {
        let series = generate_series(&SimConfig::small());
        let result = link(
            &series.snapshots[0],
            &series.snapshots[1],
            &LinkageConfig::non_iterative(),
        );
        assert_eq!(result.iterations.len(), 1);
        assert!((result.iterations[0].delta - 0.5).abs() < 1e-9);
    }

    #[test]
    fn iterative_beats_non_iterative_on_coverage() {
        // Table 5's claim, checked directionally on synthetic data
        let mut sim = SimConfig::small();
        sim.initial_households = 220;
        let series = generate_series(&sim);
        let truth = series.truth_between(0, 1).unwrap();
        let iter = link(
            &series.snapshots[0],
            &series.snapshots[1],
            &LinkageConfig::default(),
        );
        let oneshot = link(
            &series.snapshots[0],
            &series.snapshots[1],
            &LinkageConfig::non_iterative(),
        );
        let (_, r_iter, f_iter) = record_quality(&iter, &truth);
        let (_, r_one, f_one) = record_quality(&oneshot, &truth);
        // Table 5's robust shape on synthetic truth: the iterative
        // schedule recovers more true links overall (the one-shot pass may
        // trade a little precision either way at small scale)
        assert!(
            r_iter >= r_one - 0.005,
            "iterative recall {r_iter:.3} should not trail one-shot {r_one:.3}"
        );
        assert!(
            f_iter >= f_one - 0.01,
            "iterative F1 {f_iter:.3} should not trail one-shot {f_one:.3}"
        );
    }

    #[test]
    fn mappings_are_structurally_sound() {
        let series = generate_series(&SimConfig::small());
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let result = link(old, new, &LinkageConfig::default());
        // every record link refers to real records and 1:1 holds by type
        for (o, n) in result.records.iter() {
            assert!(old.record(o).is_some());
            assert!(new.record(n).is_some());
        }
        // every group link refers to real households
        for (go, gn) in result.groups.iter() {
            assert!(old.household(go).is_some());
            assert!(new.household(gn).is_some());
        }
        // every record link's household pair is in the group mapping
        for (o, n) in result.records.iter() {
            let ho = old.record(o).unwrap().household;
            let hn = new.record(n).unwrap().household;
            assert!(
                result.groups.contains(ho, hn),
                "record link {o}->{n} without group link {ho}->{hn}"
            );
        }
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let series = generate_series(&SimConfig::small());
        let run = || {
            let r = link(
                &series.snapshots[0],
                &series.snapshots[1],
                &LinkageConfig::default(),
            );
            let mut links: Vec<_> = r.records.iter().collect();
            links.sort();
            (links, r.groups.iter().collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn link_series_covers_every_pair() {
        let series = generate_series(&SimConfig::small());
        let refs: Vec<&CensusDataset> = series.snapshots.iter().collect();
        let results = link_series(&refs, &LinkageConfig::default());
        assert_eq!(results.len(), refs.len() - 1);
        for r in &results {
            assert!(!r.records.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least two snapshots")]
    fn link_series_rejects_single_snapshot() {
        let series = generate_series(&SimConfig::small());
        let _ = link_series(&[&series.snapshots[0]], &LinkageConfig::default());
    }

    #[test]
    fn empty_datasets_produce_empty_mappings() {
        let old = CensusDataset::new(1871, vec![], vec![]).unwrap();
        let new = CensusDataset::new(1881, vec![], vec![]).unwrap();
        let result = link(&old, &new, &LinkageConfig::default());
        assert!(result.records.is_empty());
        assert!(result.groups.is_empty());
    }
}
