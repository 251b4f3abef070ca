//! End-to-end integration: generator → linkage → evaluation → evolution,
//! across crate boundaries.

use temporal_census_linkage::prelude::*;

fn small_series(seed: u64) -> CensusSeries {
    let mut config = SimConfig::small();
    config.seed = seed;
    generate_series(&config)
}

#[test]
fn full_pipeline_quality_holds_across_seeds() {
    // quality must be robust to the random world, not one lucky seed
    for seed in [1, 42, 1851] {
        let series = small_series(seed);
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let truth = series.truth_between(0, 1).unwrap();
        let result = link(old, new, &LinkageConfig::default());
        let q = evaluate_record_mapping(&result.records, &truth.records);
        assert!(
            q.f1 > 0.82,
            "seed {seed}: record F1 {:.3} below floor (P {:.3} R {:.3})",
            q.f1,
            q.precision,
            q.recall
        );
        let g = evaluate_group_mapping(&result.groups, &truth.groups);
        assert!(
            g.f1 > 0.75,
            "seed {seed}: group F1 {:.3} below floor (P {:.3} R {:.3})",
            g.f1,
            g.precision,
            g.recall
        );
    }
}

#[test]
fn record_links_imply_group_links() {
    let series = small_series(7);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let result = link(old, new, &LinkageConfig::default());
    for (o, n) in result.records.iter() {
        let ho = old.record(o).unwrap().household;
        let hn = new.record(n).unwrap().household;
        assert!(
            result.groups.contains(ho, hn),
            "record link {o}→{n} lacks its group link {ho}→{hn}"
        );
    }
}

#[test]
fn clean_data_links_nearly_perfectly() {
    // with observation noise off, the only remaining difficulty is
    // genuine ambiguity; quality should be near-perfect
    let mut config = SimConfig::small();
    config.noise = NoiseConfig::clean();
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());
    let q = evaluate_record_mapping(&result.records, &truth.records);
    assert!(
        q.f1 > 0.93,
        "clean data should link nearly perfectly: F1 {:.3}",
        q.f1
    );
}

#[test]
fn heavy_noise_degrades_gracefully() {
    let mut config = SimConfig::small();
    config.noise = NoiseConfig::heavy();
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());
    let q = evaluate_record_mapping(&result.records, &truth.records);
    // heavy corruption must hurt recall but never crash, and precision
    // should stay defensible
    assert!(q.precision > 0.8, "precision {:.3}", q.precision);
    assert!(q.recall > 0.5, "recall {:.3}", q.recall);
}

#[test]
fn baselines_rank_as_in_the_paper() {
    let mut config = SimConfig::small();
    config.initial_households = 250;
    let series = generate_series(&config);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();

    let ours = link(old, new, &LinkageConfig::default());
    let cl = collective_link(old, new, &CollectiveConfig::default());
    let gs = graphsim_link(old, new, &GraphSimConfig::default());

    let ours_rec = evaluate_record_mapping(&ours.records, &truth.records);
    let cl_rec = evaluate_record_mapping(&cl, &truth.records);
    assert!(
        ours_rec.recall > cl_rec.recall,
        "Table 6 shape: our recall {:.3} must beat CL {:.3}",
        ours_rec.recall,
        cl_rec.recall
    );

    let ours_grp = evaluate_group_mapping(&ours.groups, &truth.groups);
    let gs_grp = evaluate_group_mapping(&gs.groups, &truth.groups);
    assert!(
        ours_grp.recall > gs_grp.recall,
        "Table 7 shape: our group recall {:.3} must beat GraphSim {:.3}",
        ours_grp.recall,
        gs_grp.recall
    );
}

#[test]
fn evolution_graph_over_whole_series() {
    let mut config = SimConfig::small();
    config.snapshots = 4;
    let series = generate_series(&config);
    let linkage_config = LinkageConfig::default();
    let mappings: Vec<(RecordMapping, GroupMapping)> = series
        .snapshots
        .windows(2)
        .map(|w| {
            let r = link(&w[0], &w[1], &linkage_config);
            (r.records, r.groups)
        })
        .collect();
    let snapshots: Vec<&CensusDataset> = series.snapshots.iter().collect();
    let graph = EvolutionGraph::build(&snapshots, &mappings);

    assert_eq!(graph.snapshot_count(), 4);
    assert!(graph.edges.len() > 100, "expect substantial linkage");

    let chains = preserve_chain_counts(&graph);
    assert_eq!(chains.len(), 3);
    for w in chains.windows(2) {
        assert!(w[0] >= w[1], "chains must decay: {chains:?}");
    }
    assert!(chains[2] > 0, "some households should survive all decades");

    let (components, largest, total) = largest_component(&graph);
    assert!(components > 1);
    assert!(largest <= total);
    assert!(
        largest as f64 / total as f64 > 0.15,
        "largest component should be substantial: {largest}/{total}"
    );
}

#[test]
fn truth_patterns_versus_found_patterns_agree_in_shape() {
    let series = small_series(3);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let truth = series.truth_between(0, 1).unwrap();
    let result = link(old, new, &LinkageConfig::default());

    let found = detect_patterns(old, new, &result.records, &result.groups);
    let ideal = detect_patterns(old, new, &truth.records, &truth.groups);

    // found counts track truth counts within a generous band
    let close = |a: usize, b: usize| {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() <= 0.35 * a.max(b).max(10.0)
    };
    assert!(
        close(found.counts.preserve_g, ideal.counts.preserve_g),
        "preserve_G found {} vs truth {}",
        found.counts.preserve_g,
        ideal.counts.preserve_g
    );
    assert!(
        close(found.counts.preserve_r, ideal.counts.preserve_r),
        "preserve_R found {} vs truth {}",
        found.counts.preserve_r,
        ideal.counts.preserve_r
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // one pre-matching pipeline runs as one task or is cut into several
    // (by thread count, shard count and cutoff); joins and shard merges
    // are ordered, so the mappings and the per-link provenance must be
    // bit-identical however the tasks are cut
    let series = small_series(5);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let run = |threads: usize, shards: usize, parallel_cutoff: usize| {
        let config = LinkageConfig {
            threads,
            shards,
            parallel_cutoff,
            ..LinkageConfig::default()
        };
        link(old, new, &config)
    };
    let default_cutoff = LinkageConfig::default().parallel_cutoff;
    let base = run(1, 1, default_cutoff);
    assert!(!base.records.is_empty());
    let rec = |x: &temporal_census_linkage::linkage::LinkageResult| {
        x.records.iter().collect::<std::collections::BTreeSet<_>>()
    };
    let grp = |x: &temporal_census_linkage::linkage::LinkageResult| {
        x.groups.iter().collect::<std::collections::BTreeSet<_>>()
    };
    for threads in [2, 8] {
        // shards 0 resolves to at least the thread count: a plan of
        // several shards; cutoff 0 fans out every pass into tasks
        for shards in [1, 0] {
            for cutoff in [default_cutoff, 0] {
                let mode = format!("{threads} threads, shards {shards}, cutoff {cutoff}");
                let r = run(threads, shards, cutoff);
                assert_eq!(rec(&base), rec(&r), "records differ at {mode}");
                assert_eq!(grp(&base), grp(&r), "groups differ at {mode}");
                assert_eq!(
                    base.provenance, r.provenance,
                    "provenance differs at {mode}"
                );
            }
        }
    }
}

#[test]
fn driver_and_budget_modes_do_not_change_results() {
    // a zero memory budget refuses the floor pair-score cache at every
    // residue, so each δ step is scored by a cache built at that δ: it
    // must reproduce the default run exactly. An ω1 remainder function has specs no pre-matching cache
    // holds, so the remainder blocks and scores its residue itself; run
    // under the per-δ caches and a sharded plan it must reproduce the
    // same remainder over the unsharded floor cache
    let series = small_series(5);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let uncovered = LinkageConfig {
        remainder: temporal_census_linkage::linkage::RemainderConfig {
            sim_func: SimFunc::omega1(0.78),
            ..Default::default()
        },
        ..LinkageConfig::default()
    };
    let modes = [
        (
            "zero budget",
            LinkageConfig::default(),
            LinkageConfig {
                memory_budget: Some(0),
                ..LinkageConfig::default()
            },
        ),
        (
            "uncovered remainder",
            uncovered.clone(),
            LinkageConfig {
                memory_budget: Some(0),
                shards: 7,
                ..uncovered
            },
        ),
    ];
    for (mode, base_config, config) in modes {
        let base = link(old, new, &base_config);
        assert!(!base.records.is_empty());
        assert!(base.remainder_links > 0, "{mode}: no remainder links");
        let r = link(old, new, &config);
        let rec = |x: &temporal_census_linkage::linkage::LinkageResult| {
            x.records.iter().collect::<std::collections::BTreeSet<_>>()
        };
        let grp = |x: &temporal_census_linkage::linkage::LinkageResult| {
            x.groups.iter().collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(rec(&base), rec(&r), "records differ in {mode} mode");
        assert_eq!(grp(&base), grp(&r), "groups differ in {mode} mode");
        assert_eq!(
            base.provenance, r.provenance,
            "provenance differs in {mode} mode"
        );
    }
}

#[test]
fn candidate_gate_does_not_change_results() {
    // a plain run materialises only the candidates that reach min_g_sim;
    // a run logging decisions keeps every candidate to report the
    // losers. Dropping a candidate selection would skip must change
    // nothing: mappings, provenance and the per-iteration candidate
    // counts (which count every non-empty subgraph) stay equal
    use obs::{Collector, Counter, DecisionConfig};
    use temporal_census_linkage::linkage::link_traced;
    let series = small_series(5);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    for min_g_sim in [0.0, 0.2, 0.6] {
        for threads in [1, 2] {
            let mode = format!("min_g_sim {min_g_sim}, {threads} thread(s)");
            let config = LinkageConfig {
                min_g_sim,
                threads,
                parallel_cutoff: 0,
                ..LinkageConfig::default()
            };
            let gated = link(old, new, &config);
            let audited = link_traced(
                old,
                new,
                &config,
                &Collector::enabled().with_decisions(DecisionConfig::default()),
            );
            assert!(!gated.records.is_empty(), "{mode}: no links");
            let rec = |x: &temporal_census_linkage::linkage::LinkageResult| {
                x.records.iter().collect::<std::collections::BTreeSet<_>>()
            };
            let grp = |x: &temporal_census_linkage::linkage::LinkageResult| {
                x.groups.iter().collect::<std::collections::BTreeSet<_>>()
            };
            assert_eq!(rec(&gated), rec(&audited), "records differ at {mode}");
            assert_eq!(grp(&gated), grp(&audited), "groups differ at {mode}");
            assert_eq!(
                gated.provenance, audited.provenance,
                "provenance differs at {mode}"
            );
            assert_eq!(
                gated.iterations, audited.iterations,
                "iterations differ at {mode}"
            );

            // the counter counts the same non-empty subgraphs
            let obs = Collector::enabled();
            let traced = link_traced(old, new, &config, &obs);
            let candidates: usize = traced.iterations.iter().map(|i| i.candidates).sum();
            assert_eq!(
                obs.counter(Counter::GroupCandidates),
                candidates as u64,
                "group_candidates counter at {mode}"
            );
            // and the gate is live: only a zero floor keeps every one
            let kept: u64 = obs
                .finish()
                .footprints
                .iter()
                .filter(|f| f.structure == "group_candidates")
                .map(|f| f.elements)
                .sum();
            if min_g_sim == 0.0 {
                assert_eq!(kept, candidates as u64, "{mode}: candidates dropped");
            } else {
                assert!(kept < candidates as u64, "{mode}: nothing dropped");
            }
        }
    }
}

#[test]
fn sparse_record_ids_link_like_dense_ones() {
    // record ids are opaque labels: spreading them far apart, so that no
    // dense id-indexed array could hold them, must not change a link
    let sparse = |id: RecordId| RecordId(id.raw() * 100_000 + 7);
    let dense = |id: RecordId| RecordId((id.raw() - 7) / 100_000);
    let respace = |ds: &CensusDataset| {
        let records = ds
            .records()
            .iter()
            .map(|r| PersonRecord {
                id: sparse(r.id),
                ..r.clone()
            })
            .collect();
        let households = ds
            .households()
            .iter()
            .map(|h| Household::new(h.id, h.members.iter().map(|&m| sparse(m)).collect()))
            .collect();
        CensusDataset::new(ds.year, records, households).expect("re-spaced snapshot is valid")
    };
    for seed in [1, 42, 1851] {
        let series = small_series(seed);
        let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
        let config = LinkageConfig::default();
        let base = link(old, new, &config);
        let spread = link(&respace(old), &respace(new), &config);
        let records = |pairs: Vec<(RecordId, RecordId)>| {
            pairs.into_iter().collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(
            records(base.records.iter().collect()),
            records(
                spread
                    .records
                    .iter()
                    .map(|(o, n)| (dense(o), dense(n)))
                    .collect()
            ),
            "seed {seed}: record mappings differ"
        );
        // household ids are untouched
        let groups = |x: &temporal_census_linkage::linkage::LinkageResult| {
            x.groups.iter().collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(
            groups(&base),
            groups(&spread),
            "seed {seed}: group mappings differ"
        );
    }
}

#[test]
fn prematch_matches_the_per_pair_oracle() {
    // the batch kernel behind `prematch` must reproduce the per-pair
    // early-exit scorer bit for bit, as one scoring task and cut into
    // several
    use temporal_census_linkage::linkage::{
        candidate_pairs, prematch, BlockingStrategy, DEFAULT_PARALLEL_CUTOFF,
    };
    let series = generate_series(&SimConfig::small());
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let old_recs: Vec<&PersonRecord> = old.records().iter().collect();
    let new_recs: Vec<&PersonRecord> = new.records().iter().collect();
    let year_gap = i64::from(new.year - old.year);
    let sim = SimFunc::default();

    let pairs = candidate_pairs(&old_recs, &new_recs, year_gap, BlockingStrategy::Standard);
    assert!(
        pairs.len() >= DEFAULT_PARALLEL_CUTOFF,
        "{} pairs cannot reach the parallel kernel",
        pairs.len()
    );
    let old_profiles: Vec<_> = old_recs.iter().map(|r| sim.compile(r)).collect();
    let new_profiles: Vec<_> = new_recs.iter().map(|r| sim.compile(r)).collect();
    let oracle: std::collections::HashMap<(RecordId, RecordId), u64> = pairs
        .iter()
        .filter_map(|&(i, j)| {
            let (i, j) = (i as usize, j as usize);
            sim.matches_compiled(&old_profiles[i], &new_profiles[j])
                .map(|s| ((old_recs[i].id, new_recs[j].id), s.to_bits()))
        })
        .collect();
    assert!(!oracle.is_empty());

    for threads in [1, 4] {
        let pm = prematch(
            &old_recs,
            &new_recs,
            year_gap,
            &sim,
            BlockingStrategy::Standard,
            threads,
            None,
        );
        let got: std::collections::HashMap<(RecordId, RecordId), u64> = pm
            .pairs()
            .map(|(i, j, s)| {
                let pair = (old_recs[i as usize].id, new_recs[j as usize].id);
                (pair, s.to_bits())
            })
            .collect();
        assert_eq!(got.len(), oracle.len(), "match count at {threads} threads");
        assert!(got == oracle, "pair scores diverged at {threads} threads");
    }
}

#[test]
fn blocking_output_is_the_same_at_every_thread_count() {
    // blocking cuts pair generation into at least `threads` tasks; the
    // candidate pairs must come back identical and strictly ascending
    use temporal_census_linkage::linkage::{candidate_pairs_par, BlockingStrategy};
    let series = small_series(3);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let old_recs: Vec<&PersonRecord> = old.records().iter().collect();
    let new_recs: Vec<&PersonRecord> = new.records().iter().collect();
    let year_gap = i64::from(new.year - old.year);
    let block = |threads| {
        candidate_pairs_par(
            &old_recs,
            &new_recs,
            year_gap,
            BlockingStrategy::Standard,
            threads,
        )
    };
    let reference = block(1);
    assert!(!reference.is_empty());
    assert!(
        reference.windows(2).all(|w| w[0] < w[1]),
        "pairs not strictly ascending"
    );
    for threads in [2, 3, 8] {
        assert_eq!(block(threads), reference, "{threads} threads");
    }
}

#[test]
fn profile_cache_reuses_profiles_across_iterations() {
    let series = small_series(9);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);
    let total = old.records().len() + new.records().len();

    // default pipeline: pairs are scored once at the schedule floor, so
    // each profile is compiled exactly once and no later pass needs to
    // fetch it again
    let result = link(old, new, &LinkageConfig::default());
    assert!(
        result.profiles_built <= total,
        "{} built, {total} records",
        result.profiles_built
    );
    assert!(result.profiles_built > 0);

    // zero budget: the floor cache is refused, so each δ step scores
    // the residue records afresh — those must all be profile-cache hits
    let per_delta = link(
        old,
        new,
        &LinkageConfig {
            memory_budget: Some(0),
            ..LinkageConfig::default()
        },
    );
    assert!(
        per_delta.profiles_built <= total,
        "{} built, {total} records",
        per_delta.profiles_built
    );
    assert!(
        per_delta.profiles_reused > 0,
        "per-δ caches should reuse cached profiles"
    );
}

#[test]
fn csv_round_trip_preserves_linkage_behaviour() {
    use temporal_census_linkage::model::csv::{read_dataset, write_dataset};
    let series = small_series(11);
    let (old, new) = (&series.snapshots[0], &series.snapshots[1]);

    let round_trip = |ds: &CensusDataset| -> CensusDataset {
        let mut buf = Vec::new();
        write_dataset(ds, &mut buf).unwrap();
        read_dataset(ds.year, buf.as_slice()).unwrap()
    };
    let old2 = round_trip(old);
    let new2 = round_trip(new);

    let config = LinkageConfig::default();
    let r1 = link(old, new, &config);
    let r2 = link(&old2, &new2, &config);
    assert_eq!(r1.records.len(), r2.records.len());
    let links1: std::collections::BTreeSet<_> = r1.records.iter().collect();
    let links2: std::collections::BTreeSet<_> = r2.records.iter().collect();
    assert_eq!(links1, links2, "CSV round trip must not change the result");
}
