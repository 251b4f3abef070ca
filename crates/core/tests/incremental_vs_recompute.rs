//! Differential suite: floor cache vs per-δ cache. A run whose pair
//! cache is scored once at the schedule floor and filtered per δ step
//! must be **bit-identical** to one whose budget refuses that cache, so
//! that every δ step is scored by a cache built at that δ over the
//! current residue — same record links, same group links, same
//! provenance δs and g_sims, same per-iteration stats — across
//! similarity functions, schedule floors and scales. `agg_sim` is
//! δ-independent (Eq. 3), so any divergence is a bug in the pair-score
//! cache, not a tolerance matter; every comparison is exact.

mod common;

use common::{assert_links_identical, medium_pair_series, small_series};
use linkage_core::{LinkageConfig, SimFunc};

/// The same configuration with a zero memory budget: the gate refuses
/// the floor cache at every residue.
fn per_delta(config: &LinkageConfig) -> LinkageConfig {
    LinkageConfig {
        memory_budget: Some(0),
        ..config.clone()
    }
}

#[test]
fn small_scale_over_simfuncs_and_floors() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for (name, sim_func) in [("ω1", SimFunc::omega1(0.5)), ("ω2", SimFunc::omega2(0.5))] {
        for delta_low in [0.5, 0.6] {
            let config = LinkageConfig {
                sim_func: sim_func.clone(),
                delta_low,
                ..LinkageConfig::default()
            };
            assert_links_identical(
                old,
                new,
                &config,
                &per_delta(&config),
                &format!("{name} δ_low={delta_low}"),
            );
        }
    }
}

#[test]
fn non_iterative_schedule_is_identical_too() {
    // a single-pass schedule exercises the build-then-filter-at-the-same-δ
    // corner (the cache floor equals the only δ)
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::non_iterative();
    assert_links_identical(old, new, &config, &per_delta(&config), "non-iterative");
}

#[test]
fn medium_scale_series_is_identical() {
    // a 2-snapshot medium series with standard blocking — the
    // configuration the bench speedup is claimed at
    let series = medium_pair_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    assert_links_identical(old, new, &config, &per_delta(&config), "medium 2-snapshot");
}
