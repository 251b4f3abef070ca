//! Differential test for budget-aware degradation: a memory budget may
//! only ever degrade *caches*, so linkage output must be bit-identical
//! under any budget — including one of zero bytes, which refuses every
//! cache the governor controls. Each fallback path is additionally
//! pinned by its counter: a run that was supposed to degrade must say
//! so in the trace.

mod common;

use common::{link_sets, small_series};
use linkage_core::{LinkageConfig, Linker};
use obs::Collector;

#[test]
fn output_is_bit_identical_under_any_budget() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    // the floor cache of an unbudgeted run is built over the whole input:
    // its blocked pairs at 12 B a pair, against the 50% share, size a
    // budget that refuses iteration 0's residue and admits any smaller
    // one — the run switches to a floor cache after its first δ step
    let first_residue = {
        let obs = Collector::enabled();
        let _ = linker.run_traced(&LinkageConfig::default(), &obs);
        obs.finish().counter("blocking_pairs_generated")
    };
    let late_switch = Some(2 * 12 * first_residue - 2);
    // serial scoring reaches the sim-table path; the schedule reaches
    // the floor-cache and per-δ cache paths
    for threads in [1, 2] {
        let base_config = LinkageConfig {
            threads,
            parallel_cutoff: if threads == 1 { usize::MAX } else { 0 },
            ..LinkageConfig::default()
        };
        let baseline = linker.run(&base_config);
        assert!(!baseline.records.is_empty());
        let expected = link_sets(&baseline);
        // a zero budget (first in the sweep) scores every δ step with a
        // cache of its own; only its remainder reuses one
        let mut per_delta_hits = 0;
        for budget in [Some(0), Some(64 << 10), late_switch, Some(4 << 20), None] {
            let obs = Collector::enabled();
            let run = linker.run_traced(
                &LinkageConfig {
                    memory_budget: budget,
                    ..base_config.clone()
                },
                &obs,
            );
            assert_eq!(
                link_sets(&run),
                expected,
                "budget {budget:?} (threads {threads}) changed the linkage output"
            );
            let trace = obs.finish();
            if budget == Some(0) {
                per_delta_hits = trace.counter("pair_cache_hits");
            }
            if budget == late_switch {
                // refused at iteration 0 only, so iteration 1's residue
                // got a floor cache, and the later δ steps reuse it
                assert!(run.iterations.len() > 2, "schedule too short");
                assert_eq!(trace.counter("mem_fallback_pair_cache"), 1);
                assert!(
                    trace.counter("pair_cache_hits") > per_delta_hits,
                    "threads {threads}: no δ step reused a floor cache"
                );
            }
        }
    }
}

#[test]
fn zero_budget_records_each_fallback() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let linker = Linker::new(old, new);
    // threads = 1 with an unreachable cutoff forces the serial scorer,
    // whose sim tables are the structures the budget refuses
    let config = LinkageConfig {
        memory_budget: Some(0),
        threads: 1,
        parallel_cutoff: usize::MAX,
        ..LinkageConfig::default()
    };
    let obs = Collector::enabled();
    let _ = linker.run_traced(&config, &obs);
    let trace = obs.finish();
    assert!(
        trace.counter("mem_fallback_pair_cache") >= 1,
        "zero budget must refuse the pair-score cache"
    );
    assert!(
        trace.counter("mem_fallback_sim_table") >= 1,
        "zero budget must refuse the similarity tables"
    );
    for event in ["mem_fallback_pair_cache", "mem_fallback_sim_table"] {
        assert!(
            trace.events.iter().any(|e| e.name == event),
            "fallback event {event} missing from the trace"
        );
    }
}

#[test]
fn unlimited_run_records_no_fallbacks() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let obs = Collector::enabled();
    let _ = Linker::new(old, new).run_traced(&LinkageConfig::default(), &obs);
    let trace = obs.finish();
    assert_eq!(trace.counter("mem_fallback_pair_cache"), 0);
    assert_eq!(trace.counter("mem_fallback_sim_table"), 0);
    assert_eq!(trace.counter("mem_fallback_decision_caps"), 0);
}

#[test]
fn tracing_and_memory_accounting_do_not_change_results() {
    let series = small_series();
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let config = LinkageConfig {
        memory_budget: Some(1 << 20),
        ..LinkageConfig::default()
    };
    let obs = Collector::enabled().with_memory();
    let linker = Linker::new_traced(old, new, &obs);
    let plain = linker.run(&config);
    let traced = linker.run_traced(&config, &obs);
    let trace = obs.finish();
    assert_eq!(link_sets(&plain), link_sets(&traced));
    trace.validate_basic().expect("traced budget run valid");
    // footprint snapshots cover the pipeline's big structures
    for structure in ["enriched_graphs", "profile_cache"] {
        assert!(
            trace.footprints.iter().any(|f| f.structure == structure),
            "no footprint snapshot for {structure}"
        );
    }
}
