//! Integration tests of the observability layer: the trace recorded by
//! [`link_traced`] must agree exactly with the [`LinkageResult`] it
//! accompanies, and tracing must never change the linkage outcome.

use census_synth::{generate_series, SimConfig};
use linkage_core::{link, link_traced, LinkageConfig, RemainderConfig, SimFunc};
use obs::{Collector, EventKind, PIPELINE_PHASES};

fn pair() -> census_synth::CensusSeries {
    generate_series(&SimConfig::small())
}

#[test]
fn iteration_spans_match_result_one_to_one() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    assert_eq!(
        trace.iterations.len(),
        result.iterations.len(),
        "one trace span per executed δ iteration"
    );
    for (span, stats) in trace.iterations.iter().zip(&result.iterations) {
        assert!(
            (span.delta - stats.delta).abs() < 1e-9,
            "iteration {} δ mismatch: trace {} vs result {}",
            span.index,
            span.delta,
            stats.delta
        );
    }
    // indices are contiguous from 0 in execution order
    for (i, span) in trace.iterations.iter().enumerate() {
        assert_eq!(span.index, i);
    }
}

#[test]
fn trace_has_all_pipeline_phases_and_consistent_times() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let _ = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    assert!(trace.enabled);
    for phase in PIPELINE_PHASES {
        assert!(
            trace.phase(phase).is_some(),
            "phase {phase:?} missing from trace"
        );
    }
    // the full pipeline invariants (phase sums ≤ totals, δ monotone)
    trace.validate_pipeline().unwrap();

    // iterative phases sum to at most each iteration's wall time
    for it in &trace.iterations {
        let sum: u64 = it.phases.iter().map(|p| p.total_us).sum();
        assert!(sum <= it.total_us, "iteration {} over-counts", it.index);
    }
}

#[test]
fn tracing_does_not_change_the_result() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    let plain = link(old, new, &config);
    let traced = link_traced(old, new, &config, &Collector::enabled());

    let a: std::collections::BTreeSet<_> = plain.records.iter().collect();
    let b: std::collections::BTreeSet<_> = traced.records.iter().collect();
    assert_eq!(a, b);
    let ga: std::collections::BTreeSet<_> = plain.groups.iter().collect();
    let gb: std::collections::BTreeSet<_> = traced.groups.iter().collect();
    assert_eq!(ga, gb);
    assert_eq!(plain.iterations.len(), traced.iterations.len());
    assert_eq!(plain.remainder_links, traced.remainder_links);
}

#[test]
fn counters_agree_with_result_fields() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    let trace = obs.finish();

    let counter = |name: &str| trace.counter(name);
    assert_eq!(counter("profiles_built"), result.profiles_built as u64);
    assert_eq!(counter("profiles_reused"), result.profiles_reused as u64);
    assert_eq!(counter("remainder_links"), result.remainder_links as u64);
    assert_eq!(
        counter("record_links"),
        result.records.len() as u64 - result.remainder_links as u64
    );
    let group_links: usize = result.iterations.iter().map(|i| i.group_links).sum();
    assert_eq!(counter("group_links_accepted"), group_links as u64);
    // scoring happened and the hit rate is well-formed
    assert!(counter("prematch_pairs_scored") > 0);
    let rate = trace.profile_cache_hit_rate();
    assert!((0.0..=1.0).contains(&rate));
}

#[test]
fn pair_cache_scores_each_unique_pair_at_most_once() {
    // the point of the floor cache: across the *whole* δ schedule
    // (5 iterations by default), every unique blocked pair is scored at
    // most once — later iterations are served from the pair-score cache
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig::default();
    let obs = Collector::enabled();
    let result = link_traced(old, new, &config, &obs);
    let trace = obs.finish();

    let unique_pairs =
        linkage_core::dataset_candidate_pairs(old, new, config.blocking).len() as u64;
    let scored = trace.counter("prematch_pairs_scored");
    assert!(scored > 0);
    assert!(
        scored <= unique_pairs,
        "scored {scored} pairs but only {unique_pairs} unique blocked pairs exist"
    );
    // every iteration after the first was served from the cache
    assert!(result.iterations.len() >= 2, "schedule must iterate");
    assert!(trace.counter("pair_cache_hits") > 0);
    assert!(trace.counter("blocking_pairs_generated") >= scored);
}

#[test]
fn uncovered_remainder_counts_only_remainder_pairs() {
    // an ω1 remainder function has specs the pre-matching cache does not
    // hold, so the remainder builds a cache of its own: its pairs are
    // counted as remainder pairs, never as δ-schedule pairs
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let counters = |config: &LinkageConfig| {
        let obs = Collector::enabled();
        let _ = link_traced(old, new, config, &obs);
        let trace = obs.finish();
        (
            trace.counter("prematch_pairs_scored"),
            trace.counter("prematch_pairs_matched"),
            trace.counter("remainder_pairs_scored"),
        )
    };
    let default = counters(&LinkageConfig::default());
    let uncovered = counters(&LinkageConfig {
        remainder: RemainderConfig {
            sim_func: SimFunc::omega1(0.78),
            ..RemainderConfig::default()
        },
        ..LinkageConfig::default()
    });
    assert_eq!(default.2, 0, "default remainder is served from the cache");
    assert!(uncovered.2 > 0, "uncovered remainder scored no pairs");
    assert_eq!(
        (uncovered.0, uncovered.1),
        (default.0, default.1),
        "the remainder's pairs leaked into the δ-schedule counters"
    );
}

#[test]
fn timeline_records_worker_events_without_changing_the_result() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    // sharded, multi-threaded, with the fan-out cutoff forced low so the
    // run exercises every event source: shards, merge/sort, subgraph
    // chunks, the remainder pass and the δ-iteration markers
    let config = LinkageConfig {
        shards: 4,
        threads: 2,
        parallel_cutoff: 1,
        ..LinkageConfig::default()
    };
    let plain = link(old, new, &config);
    let obs = Collector::enabled().with_timeline();
    let timed = link_traced(old, new, &config, &obs);
    let trace = obs.finish();

    // timeline recording never changes the linkage outcome
    let a: std::collections::BTreeSet<_> = plain.records.iter().collect();
    let b: std::collections::BTreeSet<_> = timed.records.iter().collect();
    assert_eq!(a, b);
    assert_eq!(plain.remainder_links, timed.remainder_links);

    let tl = trace.timeline.as_ref().expect("timeline recorded");
    assert!(!tl.events.is_empty());
    assert!(tl.workers >= 1);
    assert!(tl.active_us > 0);
    let kinds: std::collections::BTreeSet<EventKind> = tl.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Shard), "{kinds:?}");
    assert!(kinds.contains(&EventKind::Merge), "{kinds:?}");
    assert!(kinds.contains(&EventKind::Sort), "{kinds:?}");
    assert!(kinds.contains(&EventKind::Iteration), "{kinds:?}");
    assert!(kinds.contains(&EventKind::RemainderChunk), "{kinds:?}");
    // one δ-boundary marker per executed iteration, on the driver lane
    let iter_marks = tl
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Iteration)
        .count();
    assert_eq!(iter_marks, timed.iterations.len());
    // derived analytics are well-formed
    assert!(tl.mean_utilization() > 0.0 && tl.mean_utilization() <= 1.0);
    assert!(tl.critical_path_us > 0);
    assert!(!tl.stragglers.is_empty(), "sharded run yields stragglers");
    let pq = tl.plan_quality.as_ref().expect("LPT plan registered");
    assert!(pq.predicted_skew >= 1.0 && pq.actual_skew >= 1.0);
    // every phase-scoped event sits inside its phase's span windows
    trace.validate_pipeline().unwrap();
    trace.validate_basic().unwrap();
}

#[test]
fn footprints_cover_the_index_space_structures() {
    // the pair-score cache, each iteration's pre-matching, the scoring
    // workers' tile scratch, the subgraph workers' scratch and the
    // materialised candidate list are snapshotted, per-iteration
    // structures once per δ step, and the trace stays valid
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for threads in [1, 2] {
        let obs = Collector::enabled();
        let config = LinkageConfig {
            threads,
            parallel_cutoff: 0,
            ..LinkageConfig::default()
        };
        let result = link_traced(old, new, &config, &obs);
        let trace = obs.finish();
        trace.validate_pipeline().expect("valid trace");
        let snapshots = |name: &str| {
            trace
                .footprints
                .iter()
                .filter(|f| f.structure == name)
                .collect::<Vec<_>>()
        };
        for name in [
            "pair_score_cache",
            "tile_scratch",
            "graph_positions",
            "residue",
            "subgraph_scratch",
            "group_candidates",
        ] {
            assert!(
                !snapshots(name).is_empty(),
                "{threads} thread(s): no {name} footprint"
            );
        }
        let prematch = snapshots("prematch");
        assert_eq!(
            prematch.len(),
            result.iterations.len(),
            "one prematch snapshot a δ step"
        );
        for (snap, stats) in prematch.iter().zip(&result.iterations) {
            // one element per match pair, anchors included, at 12 bytes
            // a pair plus the per-record labels, sizes and row offsets
            assert_eq!(snap.elements, stats.prematch_pairs as u64);
            assert!(
                snap.bytes >= 12 * snap.elements,
                "prematch bytes {}",
                snap.bytes
            );
        }
        let candidates = snapshots("group_candidates");
        assert_eq!(
            candidates.len(),
            result.iterations.len(),
            "one group_candidates snapshot a δ step"
        );
        for (snap, stats) in candidates.iter().zip(&result.iterations) {
            // only the candidates that reach min_g_sim are materialised
            assert!(snap.elements <= stats.candidates as u64);
        }
        let cache = &snapshots("pair_score_cache")[0];
        assert!(
            cache.bytes < 13 * cache.elements + 8 * 4096,
            "cache bytes {}",
            cache.bytes
        );
    }
}

#[test]
fn disabled_collector_records_nothing() {
    let series = pair();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::disabled();
    let result = link_traced(old, new, &LinkageConfig::default(), &obs);
    assert!(!result.records.is_empty());
    let trace = obs.finish();
    assert!(!trace.enabled);
    assert!(trace.spans.is_empty());
    assert!(trace.iterations.is_empty());
    assert!(trace.counters.iter().all(|c| c.value == 0));
}
