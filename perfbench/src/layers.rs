//! The traced run's per-layer probe: calls each layer's public functions
//! on the workload's pairs inside spans, links each pair once per
//! collector setting the layer metrics need, and derives the per-layer
//! metrics from the spans and the program's `RunTrace` counters.

use crate::spans::Tracer;
use crate::stats::{median, paired_overhead_pct, Calls};
use crate::workload::{
    call, evolve, mapping_digest, mapping_problems, truth_trace_problems, Inputs,
};
use census_model::{CensusDataset, GroupMapping, PersonRecord, RecordMapping};
use hhgraph::EnrichedGraph;
use linkage_core::{
    candidate_pairs_par, link, link_traced, prematch_with_profiles, CompiledProfile, LinkageConfig,
    LinkageResult, MemGovernor, PairScoreCache,
};
use obs::{Collector, RunTrace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest rounds of the back-to-back disabled / enabled / truth-fed
/// links behind the collector-cost metrics.
const MIN_ROUNDS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Counter totals over several traces.
#[derive(Default)]
struct Counters(BTreeMap<String, u64>);

impl Counters {
    fn add(&mut self, trace: &RunTrace) {
        for c in &trace.counters {
            *self.0.entry(c.name.clone()).or_default() += c.value;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn refs(ds: &CensusDataset) -> Vec<&PersonRecord> {
    ds.records().iter().collect()
}

/// Record the outcome of an output check as a failed call.
fn fail_if(calls: &mut Calls, what: &str, problems: &[String]) {
    if !problems.is_empty() {
        calls.failed += 1;
        eprintln!("check failed: {what}: {}", problems.join("; "));
    }
}

/// Link one pair with `obs` in a span; `None` if the call panicked.
fn traced_link(
    name: &'static str,
    (old, new): (&CensusDataset, &CensusDataset),
    config: &LinkageConfig,
    obs: Collector,
    calls: &mut Calls,
    tr: &mut Tracer,
) -> Option<(LinkageResult, RunTrace)> {
    call(calls, || {
        tr.span(name, |_| {
            let result = link_traced(old, new, config, &obs);
            (result, obs.finish())
        })
    })
}

/// Run the probe over every pair of `inputs` and derive the per-layer
/// metrics; the collector-cost rounds repeat for `budget`. Failed calls
/// and checks are counted into `calls`.
#[allow(clippy::too_many_lines)] // one linear pass over the layers
pub fn probe(
    inputs: &Inputs,
    config: &LinkageConfig,
    calls: &mut Calls,
    tr: &mut Tracer,
    budget: Duration,
) -> LayerMetrics {
    let sim = config.sim_func.with_threshold(config.delta_low);
    let par = config.parallelism();
    let sharded = LinkageConfig {
        shards: 0,
        ..config.clone()
    };
    let mut m = LayerMetrics::new();
    let mut counters = Counters::default();
    let (mut graphs, mut edges, mut profiles, mut blocked) = (0usize, 0usize, 0usize, 0usize);
    let (mut phase_us, mut unattributed_us) = (BTreeMap::<&str, u64>::new(), 0i64);
    let (mut peak_live, mut prematch_alloc, mut subgraph_alloc) = (0u64, 0u64, 0u64);
    let mut explained = 0.0;
    let (mut utilization, mut skew) = (Vec::new(), Vec::new());
    let mut mappings: Vec<(RecordMapping, GroupMapping)> = Vec::new();

    for (p, pair) in inputs.pairs().enumerate() {
        let (old, new) = pair;
        let year_gap = i64::from(new.year - old.year);
        let (old_refs, new_refs) = (refs(old), refs(new));

        // hhgraph: household enrichment
        if let Some(g) = call(calls, || {
            tr.span("hhgraph.enrich.build_all", |_| {
                (EnrichedGraph::build_all(old), EnrichedGraph::build_all(new))
            })
        }) {
            graphs += g.0.len() + g.1.len();
            edges +=
                g.0.iter()
                    .chain(&g.1)
                    .map(EnrichedGraph::edge_count)
                    .sum::<usize>();
        }

        // textsim: compiled similarity profiles
        let Some((old_c, new_c)) = call(calls, || {
            tr.span("textsim.compile", |_| {
                let c =
                    |rs: &[&PersonRecord]| rs.iter().map(|r| sim.compile(r)).collect::<Vec<_>>();
                (c(&old_refs), c(&new_refs))
            })
        }) else {
            continue;
        };
        profiles += old_c.len() + new_c.len();
        let old_p: Vec<&CompiledProfile> = old_c.iter().collect();
        let new_p: Vec<&CompiledProfile> = new_c.iter().collect();

        // blocking: the unfiltered public path
        if let Some(pairs) = call(calls, || {
            tr.span("blocking.candidate_pairs", |_| {
                candidate_pairs_par(
                    &old_refs,
                    &new_refs,
                    year_gap,
                    config.blocking,
                    config.threads,
                )
            })
        }) {
            blocked += pairs.len();
        }

        // pair scoring once at δ_low, then pre-matching at the same δ
        let cache = call(calls, || {
            tr.span("pairscore.build", |_| {
                PairScoreCache::build(
                    &old_refs,
                    &new_refs,
                    &old_p,
                    &new_p,
                    year_gap,
                    &sim,
                    config.blocking,
                    par,
                    config.prematch_max_age_gap,
                    &MemGovernor::unlimited(),
                    &Collector::disabled(),
                )
            })
        });
        let pm = call(calls, || {
            tr.span("prematch.prematch_with_profiles", |_| {
                prematch_with_profiles(
                    &old_refs,
                    &new_refs,
                    &old_p,
                    &new_p,
                    year_gap,
                    &sim,
                    config.blocking,
                    par,
                    config.prematch_max_age_gap,
                    &MemGovernor::unlimited(),
                    &Collector::disabled(),
                )
            })
        });
        if let (Some(cache), Some(pm)) = (&cache, &pm) {
            if cache.as_ref().map(PairScoreCache::len) != Some(pm.match_count()) {
                fail_if(
                    calls,
                    "prematch",
                    &[format!(
                        "pair {p}: {} cached pairs at δ_low, {} pre-match pairs",
                        cache.as_ref().map_or(0, PairScoreCache::len),
                        pm.match_count()
                    )],
                );
            }
        }
        drop((cache, pm, old_c, new_c));

        // the linker's phases and counters, from the enabled collector
        let Some((result, trace)) = traced_link(
            "linkage.link_traced",
            pair,
            config,
            Collector::enabled(),
            calls,
            tr,
        ) else {
            continue;
        };
        let mut problems = mapping_problems(old, new, &result.records, &result.groups);
        if let Err(e) = trace.validate_pipeline() {
            problems.push(e);
        }
        fail_if(calls, "enabled link", &problems);
        counters.add(&trace);
        let mut phases_sum = 0;
        for ph in &trace.phases {
            *phase_us.entry(phase_key(&ph.name)).or_default() += ph.total_us;
            phases_sum += ph.total_us;
        }
        unattributed_us += trace.total_us as i64 - phases_sum as i64;
        let digest = mapping_digest(&result.records, &result.groups);
        mappings.push((result.records, result.groups));

        // memory: allocation tracking and footprints
        if let Some((_, trace)) = traced_link(
            "linkage.link_traced_memory",
            pair,
            config,
            Collector::enabled().with_memory(),
            calls,
            tr,
        ) {
            if let Some(mem) = &trace.memory {
                let phase_alloc = |name: &str| {
                    mem.phases
                        .iter()
                        .find(|ph| ph.name == name)
                        .map_or(0, |ph| ph.alloc_bytes)
                };
                prematch_alloc += phase_alloc("prematch");
                subgraph_alloc += phase_alloc("subgraph");
                if mem.peak_live_bytes > peak_live {
                    peak_live = mem.peak_live_bytes;
                    let mut structures: Vec<&str> = trace
                        .footprints
                        .iter()
                        .map(|f| f.structure.as_str())
                        .collect();
                    structures.sort_unstable();
                    structures.dedup();
                    let footprint: u64 = structures
                        .iter()
                        .filter_map(|s| trace.max_footprint_bytes(s))
                        .sum();
                    explained = footprint as f64 / peak_live.max(1) as f64;
                }
            } else {
                fail_if(calls, "memory link", &["no memory section".to_owned()]);
            }
        }

        // shard scheduling: the auto-sharded engine under the timeline
        if let Some((result, trace)) = traced_link(
            "linkage.link_traced_sharded",
            pair,
            &sharded,
            Collector::enabled().with_timeline(),
            calls,
            tr,
        ) {
            if mapping_digest(&result.records, &result.groups) != digest {
                fail_if(
                    calls,
                    "sharded link",
                    &[format!("pair {p}: sharded mappings differ from unsharded")],
                );
            }
            if let Some(tl) = &trace.timeline {
                utilization.push(tl.mean_utilization());
                if let Some(pq) = &tl.plan_quality {
                    skew.push(pq.ratio);
                }
            }
        }
    }

    // collector cost: disabled, enabled and truth-fed links back to back,
    // each round summed over the pairs, with the order rotated per round
    let (mut disabled, mut enabled, mut truth_fed) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while disabled.len() < MIN_ROUNDS || start.elapsed() < budget {
        let round = disabled.len();
        let mut sums = [0.0; 3];
        for (p, pair) in inputs.pairs().enumerate() {
            for k in 0..3 {
                let setting = (k + round) % 3;
                let t0 = Instant::now();
                let linked = match setting {
                    0 => call(calls, || {
                        tr.span("linkage.link", |_| link(pair.0, pair.1, config))
                    })
                    .is_some(),
                    1 => traced_link(
                        "linkage.link_traced",
                        pair,
                        config,
                        Collector::enabled(),
                        calls,
                        tr,
                    )
                    .is_some(),
                    _ => {
                        let truth =
                            Collector::enabled().with_truth(inputs.truth_configs[p].clone());
                        let Some((result, trace)) = traced_link(
                            "linkage.link_traced_truth",
                            pair,
                            config,
                            truth,
                            calls,
                            tr,
                        ) else {
                            continue;
                        };
                        let problems = truth_trace_problems(
                            &trace,
                            &result.records,
                            &result.groups,
                            &inputs.truths[p],
                        );
                        fail_if(calls, "truth-fed link", &problems);
                        true
                    }
                };
                if linked {
                    sums[setting] += t0.elapsed().as_secs_f64();
                }
            }
        }
        disabled.push(sums[0]);
        enabled.push(sums[1]);
        truth_fed.push(sums[2]);
    }

    // evolution over the enabled runs' mappings
    let evolution = if mappings.len() == inputs.truths.len() {
        evolve(
            &inputs.series.snapshots,
            &mappings,
            calls,
            tr,
            [
                "evolution.build",
                "evolution.detect_patterns",
                "evolution.chains",
            ],
        )
    } else {
        None
    };

    let s = |tr: &Tracer, name: &str| tr.self_s(name);
    m.insert("synth.generate_s", s(tr, "synth.generate_series"));
    m.insert(
        "synth.records",
        inputs
            .series
            .snapshots
            .iter()
            .map(|d| d.records().len())
            .sum::<usize>() as f64,
    );
    m.insert("enrich.build_all_s", s(tr, "hhgraph.enrich.build_all"));
    m.insert("enrich.graphs", graphs as f64);
    m.insert("enrich.edges", edges as f64);
    m.insert("textsim.compile_s", s(tr, "textsim.compile"));
    m.insert("textsim.profiles", profiles as f64);
    m.insert(
        "blocking.candidate_pairs_s",
        s(tr, "blocking.candidate_pairs"),
    );
    m.insert("blocking.pairs", blocked as f64);
    m.insert(
        "blocking.pairs_generated",
        counters.get("blocking_pairs_generated"),
    );
    let build_s = s(tr, "pairscore.build");
    let prematch_s = s(tr, "prematch.prematch_with_profiles");
    m.insert("pairscore.build_s", build_s);
    m.insert("prematch.call_s", prematch_s);
    // both block and score the same pairs at δ_low; pre-matching also
    // clusters them
    m.insert("cluster.derived_s", prematch_s - build_s);
    let scored = counters.get("prematch_pairs_scored");
    m.insert("prematch.pairs_scored", scored);
    let prematch_us = phase_us.get("prematch").copied().unwrap_or(0) as f64;
    m.insert("prematch.ns_per_pair", ratio(prematch_us * 1000.0, scored));
    m.insert(
        "prematch.early_exit_ratio",
        ratio(
            counters.get("early_exit_prunes"),
            scored + counters.get("remainder_pairs_scored"),
        ),
    );
    let probes = counters.get("pair_score_batch_probes");
    let unique = counters.get("pair_score_batched_unique");
    m.insert("prematch.batch_dedup_rate", ratio(probes - unique, probes));
    let hits = counters.get("pair_cache_hits");
    m.insert(
        "pair_cache.hit_ratio",
        ratio(hits, hits + counters.get("pair_cache_filtered")),
    );
    for (phase, name) in [
        ("enrich", "phase.enrich_s"),
        ("prematch", "phase.prematch_s"),
        ("subgraph", "phase.subgraph_s"),
        ("selection", "phase.selection_s"),
        ("remainder", "phase.remainder_s"),
    ] {
        m.insert(name, phase_us.get(phase).copied().unwrap_or(0) as f64 / 1e6);
    }
    m.insert("phase.unattributed_s", unattributed_us as f64 / 1e6);
    m.insert("selection.candidates", counters.get("group_candidates"));
    m.insert(
        "selection.group_links",
        counters.get("group_links_accepted"),
    );
    m.insert("remainder.links", counters.get("remainder_links"));
    m.insert("timeline.mean_utilization", mean(&utilization));
    m.insert("timeline.plan_skew_ratio", mean(&skew));
    m.insert("mem.peak_live_mb", peak_live as f64 / MIB);
    m.insert("mem.prematch_alloc_mb", prematch_alloc as f64 / MIB);
    m.insert("mem.subgraph_alloc_mb", subgraph_alloc as f64 / MIB);
    m.insert("mem.footprint_explained_share", explained);
    m.insert("evolution.graph_build_s", s(tr, "evolution.build"));
    m.insert("evolution.detect_s", s(tr, "evolution.detect_patterns"));
    m.insert("evolution.chains_s", s(tr, "evolution.chains"));
    m.insert(
        "evolution.vertices",
        evolution.as_ref().map_or(0, |e| e.graph.vertex_count()) as f64,
    );
    m.insert(
        "obs.collector_overhead_pct",
        paired_overhead_pct(&enabled, &disabled),
    );
    let replay: Vec<f64> = truth_fed.iter().zip(&enabled).map(|(t, e)| t - e).collect();
    m.insert("obs.quality_replay_s", median(&replay));
    m
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The pipeline phase names the per-layer table knows, as `'static`
/// keys; any other phase is folded into `other`.
fn phase_key(name: &str) -> &'static str {
    obs::PIPELINE_PHASES
        .iter()
        .copied()
        .find(|p| *p == name)
        .unwrap_or("other")
}
