//! Differential shard suite — the headline proof that the sharded
//! linkage engine is an *execution strategy*, not a semantics change.
//!
//! Every test pits a sharded run against the single-shard engine on the
//! same corpus and demands **bit-identical** output: record mappings,
//! group links, provenance (exact δ and g_sim per link), per-iteration
//! stats, and the per-pair results feeding evolution analysis. Shard
//! counts cover the interesting plans — a single giant shard, a few
//! balanced shards, a prime count, auto-resolution, and pathological
//! plans with far more shards than blocking keys (so most shards are
//! empty) — across serial and multi-threaded execution, both schedule
//! floors, the floor cache and the per-δ caches a zero budget forces,
//! and a remainder function the pair cache cannot cover (so the
//! remainder builds and scores its own cache through the shard plan).

mod common;

use common::{assert_same_result, canonical, medium_pair_series, small_series};
use linkage_core::{link, link_series, LinkageConfig, Linker, RemainderConfig, SimFunc};
use obs::{Collector, DecisionConfig};

fn sharded(config: &LinkageConfig, shards: usize, threads: usize) -> LinkageConfig {
    LinkageConfig {
        shards,
        threads,
        ..config.clone()
    }
}

#[test]
fn sharded_engine_is_bit_identical_across_shard_counts_threads_and_floors() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for delta_low in [0.5, 0.6] {
        let base = LinkageConfig {
            delta_low,
            ..LinkageConfig::default()
        };
        let reference = link(old, new, &sharded(&base, 1, 1));
        assert!(!reference.records.is_empty(), "degenerate corpus");
        // shards: 0 = auto-resolved against the workload size
        for shards in [2, 7, 0] {
            for threads in [1, 4] {
                let run = link(old, new, &sharded(&base, shards, threads));
                assert_same_result(
                    &run,
                    &reference,
                    &format!("δ_low={delta_low} shards={shards} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn per_delta_driver_exercises_the_sharded_remainder_fresh_path() {
    // a zero budget scores every δ step with a cache built at that δ,
    // and an ω1 remainder function has specs no pre-matching cache
    // holds, so the remainder pass blocks and scores its residue itself
    // — under sharding both run through the shard plan and must merge
    // back to the same pairs
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let base = LinkageConfig {
        memory_budget: Some(0),
        remainder: RemainderConfig {
            sim_func: SimFunc::omega1(0.78),
            ..RemainderConfig::default()
        },
        ..LinkageConfig::default()
    };
    let reference = link(old, new, &sharded(&base, 1, 1));
    for shards in [2, 7] {
        let run = link(old, new, &sharded(&base, shards, 1));
        assert_same_result(&run, &reference, &format!("per-δ shards={shards}"));
    }
    // the path the test names is the one that ran: the remainder scored
    // pairs of its own, and its sharded scoring events sit inside spans
    // of their phase
    let obs = Collector::enabled().with_timeline();
    let traced = Linker::new_traced(old, new, &obs).run_traced(&sharded(&base, 7, 2), &obs);
    let trace = obs.finish();
    assert_same_result(&traced, &reference, "traced per-δ shards=7");
    assert!(trace.counter("remainder_pairs_scored") > 0);
    trace.validate_pipeline().expect("valid trace");
}

#[test]
fn degenerate_plans_with_more_shards_than_blocks_change_nothing() {
    // far more shards than blocking keys: most shards own zero keys and
    // must contribute empty (not wrong) results; the merge still
    // re-establishes the global order
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let base = LinkageConfig::default();
    let reference = link(old, new, &sharded(&base, 1, 1));
    let run = link(old, new, &sharded(&base, 10_000, 1));
    assert_same_result(&run, &reference, "shards=10000 (mostly empty)");
}

#[test]
fn medium_scale_sharded_series_feeds_evolution_identically() {
    // the full multi-snapshot path: every pairwise result that evolution
    // analysis consumes must be bit-identical under auto-sharding
    let series = medium_pair_series();
    let snaps: Vec<_> = series.snapshots.iter().collect();
    let reference = link_series(&snaps, &sharded(&LinkageConfig::default(), 1, 1));
    let auto = link_series(&snaps, &sharded(&LinkageConfig::default(), 0, 1));
    assert_eq!(reference.len(), auto.len());
    for (i, (a, b)) in auto.iter().zip(&reference).enumerate() {
        assert_same_result(a, b, &format!("medium series pair {i} (auto shards)"));
    }
}

#[test]
fn sharded_parallel_runs_are_deterministic_and_reproducible() {
    // three repeats with a work-stealing pool must serialize to the same
    // bytes and log byte-identical decision provenance: shard completion
    // order must never leak into the output
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    let config = sharded(&LinkageConfig::default(), 7, 4);
    let mut runs = Vec::new();
    for _ in 0..3 {
        let obs = Collector::enabled().with_decisions(DecisionConfig::default());
        let result = linker.run_traced(&config, &obs);
        let decisions = obs
            .take_decisions()
            .expect("decision log enabled")
            .to_jsonl()
            .expect("serializable decision log");
        assert!(!decisions.is_empty(), "no decisions recorded");
        runs.push((canonical(&result), decisions));
    }
    assert_eq!(runs[0], runs[1], "repeat 1 diverged");
    assert_eq!(runs[0], runs[2], "repeat 2 diverged");
}
