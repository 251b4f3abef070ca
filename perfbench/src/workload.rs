//! The three workloads: their generated inputs, the batch job each one
//! times, and the checks every job output must pass.

use crate::spans::Tracer;
use crate::stats::{group_counts, pooled, record_counts, Calls};
use census_eval::{evaluate_group_mapping, evaluate_record_mapping};
use census_model::{CensusDataset, GroupMapping, RecordMapping};
use census_synth::{generate_series, CensusSeries, GroundTruth, SimConfig};
use evolution::{
    detect_patterns, largest_component, preserve_chain_counts, EvolutionGraph, PatternCounts,
};
use linkage_core::{link, link_traced, LinkageConfig};
use obs::{Collector, Quality, RunTrace, TruthConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 1851→1861 pair at the paper's scale, collector disabled.
    PairPaper,
    /// Six censuses at 800 households, every pair linked, then the
    /// evolution analysis.
    SeriesEvolve,
    /// One 1,600-household pair linked with ground-truth quality
    /// telemetry, the way `link --truth` runs.
    PairTruth,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PairPaper,
        Workload::SeriesEvolve,
        Workload::PairTruth,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairPaper => "pair-paper",
            Workload::SeriesEvolve => "series-evolve",
            Workload::PairTruth => "pair-truth",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator configuration for `seed`.
    #[must_use]
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let base = match self {
            Workload::PairPaper => SimConfig {
                snapshots: 2,
                ..SimConfig::paper_scale()
            },
            Workload::SeriesEvolve => SimConfig {
                snapshots: 6,
                ..SimConfig::medium()
            },
            Workload::PairTruth => SimConfig {
                snapshots: 2,
                initial_households: 1600,
                ..SimConfig::default()
            },
        };
        SimConfig { seed, ..base }
    }
}

/// A workload's generated input and the truth it is scored against.
pub struct Inputs {
    /// The generated census snapshots.
    pub series: CensusSeries,
    /// Ground truth of each adjacent snapshot pair.
    pub truths: Vec<GroundTruth>,
    /// The same truth as raw ids, the form `Collector::with_truth` takes.
    pub truth_configs: Vec<TruthConfig>,
}

impl Inputs {
    /// The adjacent snapshot pairs, in order.
    pub fn pairs(&self) -> impl Iterator<Item = (&CensusDataset, &CensusDataset)> + '_ {
        self.series.snapshots.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Input records of the job: old + new, summed over pairs.
    #[must_use]
    pub fn pair_records(&self) -> usize {
        self.pairs()
            .map(|(o, n)| o.records().len() + n.records().len())
            .sum()
    }
}

/// Generate the workload's snapshots and derive their truth: the work
/// `setup_s` measures.
#[must_use]
pub fn setup(w: Workload, seed: u64, tr: &mut Tracer) -> Inputs {
    let series = tr.span("synth.generate_series", |_| {
        generate_series(&w.sim_config(seed))
    });
    let (truths, truth_configs) = tr.span("synth.ground_truth", |_| {
        let truths: Vec<GroundTruth> = (1..series.snapshots.len())
            .map(|j| series.truth_between(j - 1, j).expect("adjacent snapshots"))
            .collect();
        let configs = truths.iter().map(truth_config).collect();
        (truths, configs)
    });
    Inputs {
        series,
        truths,
        truth_configs,
    }
}

fn truth_config(t: &GroundTruth) -> TruthConfig {
    TruthConfig {
        record_pairs: t.records.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
        group_pairs: t.groups.iter().map(|(o, n)| (o.raw(), n.raw())).collect(),
    }
}

/// Run one call into the program, counting it; a panic counts as a
/// failed call and yields `None`.
pub fn call<T>(calls: &mut Calls, f: impl FnOnce() -> T) -> Option<T> {
    calls.attempted += 1;
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            calls.failed += 1;
            None
        }
    }
}

/// The evolution analysis of `series-evolve`.
pub struct Evolution {
    /// The evolution graph over all snapshots.
    pub graph: EvolutionGraph,
    /// `detect_patterns` counts of each pair, called separately.
    pub patterns: Vec<PatternCounts>,
    /// `preserve_chain_counts` of the graph.
    pub chains: Vec<usize>,
    /// `largest_component` of the graph.
    pub component: (usize, usize, usize),
}

/// What one job produced.
#[derive(Default)]
pub struct JobOutput {
    /// `(M_R, M_G)` of each pair.
    pub mappings: Vec<(RecordMapping, GroupMapping)>,
    /// The truth-fed trace of each pair (`pair-truth` only).
    pub traces: Vec<RunTrace>,
    /// The evolution analysis (`series-evolve` only).
    pub evolution: Option<Evolution>,
}

/// The job a workload times: from generated snapshots to complete
/// mappings, plus the evolution analysis (`series-evolve`) or the
/// quality section (`pair-truth`). Each call into the program runs in a
/// span of `tr`. Returns `None` once a call panics.
pub fn run_job(
    w: Workload,
    inputs: &Inputs,
    config: &LinkageConfig,
    calls: &mut Calls,
    tr: &mut Tracer,
) -> Option<JobOutput> {
    let mut out = JobOutput::default();
    for (p, (old, new)) in inputs.pairs().enumerate() {
        if w == Workload::PairTruth {
            let truth = inputs.truth_configs[p].clone();
            let (result, trace) = call(calls, || {
                tr.span("job.link_traced_truth", |_| {
                    let obs = Collector::enabled().with_truth(truth);
                    let result = link_traced(old, new, config, &obs);
                    (result, obs.finish())
                })
            })?;
            out.mappings.push((result.records, result.groups));
            out.traces.push(trace);
        } else {
            let result = call(calls, || tr.span("job.link", |_| link(old, new, config)))?;
            out.mappings.push((result.records, result.groups));
        }
    }
    if w == Workload::SeriesEvolve {
        out.evolution = Some(evolve(
            &inputs.series.snapshots,
            &out.mappings,
            calls,
            tr,
            JOB_EVOLUTION_SPANS,
        )?);
    }
    Some(out)
}

/// Span names of the evolution calls inside the timed job. They differ
/// from the probe's, so the per-layer `evolution.*` times count the
/// probe's calls only.
pub const JOB_EVOLUTION_SPANS: [&str; 3] = [
    "job.evolution_build",
    "job.detect_patterns",
    "job.evolution_chains",
];

/// `EvolutionGraph::build`, `detect_patterns` per pair,
/// `preserve_chain_counts` and `largest_component`, each a counted call
/// in a span; `names` name the spans of the build, the detection and
/// the two chain analyses.
pub fn evolve(
    snapshots: &[CensusDataset],
    mappings: &[(RecordMapping, GroupMapping)],
    calls: &mut Calls,
    tr: &mut Tracer,
    names: [&'static str; 3],
) -> Option<Evolution> {
    let refs: Vec<&CensusDataset> = snapshots.iter().collect();
    let graph = call(calls, || {
        tr.span(names[0], |_| EvolutionGraph::build(&refs, mappings))
    })?;
    let mut patterns = Vec::with_capacity(mappings.len());
    for (t, (records, groups)) in mappings.iter().enumerate() {
        let p = call(calls, || {
            tr.span(names[1], |_| {
                detect_patterns(&snapshots[t], &snapshots[t + 1], records, groups)
            })
        })?;
        patterns.push(p.counts);
    }
    let chains = call(calls, || {
        tr.span(names[2], |_| preserve_chain_counts(&graph))
    })?;
    let component = call(calls, || tr.span(names[2], |_| largest_component(&graph)))?;
    Some(Evolution {
        graph,
        patterns,
        chains,
        component,
    })
}

/// Problems found in a record/group mapping pair: every linked id must
/// exist in its snapshot. 1:1 needs no check here: `RecordMapping` is a
/// two-way map whose `insert` refuses a second partner for either end.
#[must_use]
pub fn mapping_problems(
    old: &CensusDataset,
    new: &CensusDataset,
    records: &RecordMapping,
    groups: &GroupMapping,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (o, n) in records.iter() {
        if old.record(o).is_none() {
            problems.push(format!("record link {o}->{n}: old record missing"));
        }
        if new.record(n).is_none() {
            problems.push(format!("record link {o}->{n}: new record missing"));
        }
    }
    for (go, gn) in groups.iter() {
        if old.household(go).is_none() || new.household(gn).is_none() {
            problems.push(format!("group link {go}->{gn}: endpoint missing"));
        }
    }
    problems.truncate(5);
    problems
}

/// Order-independent digest of one pair's mappings.
#[must_use]
pub fn mapping_digest(records: &RecordMapping, groups: &GroupMapping) -> (usize, usize, u64) {
    let mut pairs: Vec<(u64, u64)> = records.iter().map(|(o, n)| (o.raw(), n.raw())).collect();
    pairs.sort_unstable();
    let mut h = DefaultHasher::new();
    pairs.hash(&mut h);
    // the group mapping iterates in sorted order already
    for (o, n) in groups.iter() {
        (o.raw(), n.raw()).hash(&mut h);
    }
    (records.len(), groups.len(), h.finish())
}

/// Pattern counts per pair, chain counts and component summary.
pub type EvolutionCounts = (Vec<PatternCounts>, Vec<usize>, (usize, usize, usize));

/// Everything that must repeat exactly across the jobs of one
/// invocation: each pair's mapping digest and the evolution counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `mapping_digest` of each pair.
    pub pairs: Vec<(usize, usize, u64)>,
    /// Pattern counts per pair, chain counts and component summary.
    pub evolution: Option<EvolutionCounts>,
}

impl Fingerprint {
    /// The fingerprint of a job output.
    #[must_use]
    pub fn of(out: &JobOutput) -> Self {
        Self {
            pairs: out
                .mappings
                .iter()
                .map(|(r, g)| mapping_digest(r, g))
                .collect(),
            evolution: out
                .evolution
                .as_ref()
                .map(|e| (e.patterns.clone(), e.chains.clone(), e.component)),
        }
    }
}

/// Check a job's output. Each failed check fails the call that produced
/// the output: returns the number of failed calls and what went wrong.
///
/// `expected` is the fingerprint every job of this invocation must
/// reproduce; on `pair-truth` it is the plain (collector-disabled)
/// run's, so the truth-fed mappings must equal the plain mappings.
#[must_use]
pub fn check_job(inputs: &Inputs, out: &JobOutput, expected: &Fingerprint) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    let actual = Fingerprint::of(out);
    for (p, ((old, new), (records, groups))) in inputs.pairs().zip(&out.mappings).enumerate() {
        let mut problems = mapping_problems(old, new, records, groups);
        if expected.pairs.get(p) != actual.pairs.get(p) {
            problems.push(format!(
                "pair {p}: mappings differ from the reference run ({:?} vs {:?})",
                actual.pairs.get(p),
                expected.pairs.get(p)
            ));
        }
        if let Some(trace) = out.traces.get(p) {
            problems.extend(truth_trace_problems(
                trace,
                records,
                groups,
                &inputs.truths[p],
            ));
        }
        if !problems.is_empty() {
            failed += 1;
            notes.extend(problems.into_iter().map(|m| format!("pair {p}: {m}")));
        }
    }
    if let Some(e) = &out.evolution {
        let mut problems = evolution_problems(e);
        if expected.evolution != actual.evolution {
            problems.push("evolution counts differ from the reference run".to_owned());
        }
        if !problems.is_empty() {
            failed += 1;
            notes.extend(problems);
        }
    }
    (failed, notes)
}

/// A truth-fed trace must pass `validate_pipeline`, and its quality
/// section must agree with `census_eval` on the same mappings.
#[must_use]
pub fn truth_trace_problems(
    trace: &RunTrace,
    records: &RecordMapping,
    groups: &GroupMapping,
    truth: &GroundTruth,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = trace.validate_pipeline() {
        problems.push(format!("trace fails validate_pipeline: {e}"));
    }
    match &trace.quality {
        None => problems.push("truth-fed trace has no quality section".to_owned()),
        Some(q) => {
            let rec = evaluate_record_mapping(records, &truth.records);
            let grp = evaluate_group_mapping(groups, &truth.groups);
            if q.records.quality.f1 != rec.f1 || q.groups.quality.f1 != grp.f1 {
                problems.push(format!(
                    "trace quality F1 (records {}, groups {}) differs from census_eval ({}, {})",
                    q.records.quality.f1, q.groups.quality.f1, rec.f1, grp.f1
                ));
            }
        }
    }
    problems
}

/// Internal consistency of the evolution analysis: the separately
/// called `detect_patterns` must agree with the graph's own detection,
/// and the component summary must cover the graph's vertices.
#[must_use]
pub fn evolution_problems(e: &Evolution) -> Vec<String> {
    let mut problems = Vec::new();
    let graph_counts: Vec<PatternCounts> = e.graph.pair_patterns.iter().map(|p| p.counts).collect();
    if graph_counts != e.patterns {
        problems.push("detect_patterns disagrees with EvolutionGraph::build".to_owned());
    }
    let (components, largest, vertices) = e.component;
    if vertices != e.graph.vertex_count() || largest > vertices || components == 0 {
        problems.push(format!(
            "largest_component {:?} inconsistent with {} vertices",
            e.component,
            e.graph.vertex_count()
        ));
    }
    if e.chains.len() + 1 != e.graph.snapshot_count() {
        problems.push(format!(
            "preserve_chain_counts has {} lengths for {} snapshots",
            e.chains.len(),
            e.graph.snapshot_count()
        ));
    }
    problems
}

/// Record and group quality of a job, pooled over its pairs.
#[must_use]
pub fn pooled_quality(inputs: &Inputs, out: &JobOutput) -> (Quality, Quality) {
    let (mut rec, mut grp) = (Vec::new(), Vec::new());
    for ((records, groups), truth) in out.mappings.iter().zip(&inputs.truths) {
        rec.push(record_counts(records, &truth.records));
        grp.push(group_counts(groups, &truth.groups));
    }
    (pooled(&rec), pooled(&grp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_model::RecordId;

    fn small_series_job(w: Workload) -> (Inputs, JobOutput, Calls) {
        let mut off = Tracer::disabled();
        let inputs = Inputs {
            series: generate_series(&SimConfig {
                snapshots: 3,
                initial_households: 60,
                ..SimConfig::default()
            }),
            truths: Vec::new(),
            truth_configs: Vec::new(),
        };
        let truths: Vec<GroundTruth> = (1..3)
            .map(|j| inputs.series.truth_between(j - 1, j).unwrap())
            .collect();
        let inputs = Inputs {
            truth_configs: truths.iter().map(truth_config).collect(),
            truths,
            ..inputs
        };
        let mut calls = Calls::default();
        let out = run_job(w, &inputs, &LinkageConfig::default(), &mut calls, &mut off).unwrap();
        (inputs, out, calls)
    }

    #[test]
    fn clean_jobs_pass_every_check() {
        for w in Workload::ALL {
            let (inputs, out, calls) = small_series_job(w);
            // two links, plus build + 2 detections + 2 chain analyses
            let expected_calls = if w == Workload::SeriesEvolve { 7 } else { 2 };
            assert_eq!(calls.attempted, expected_calls, "{w:?}");
            let (failed, notes) = check_job(&inputs, &out, &Fingerprint::of(&out));
            assert_eq!((failed, notes), (0, Vec::new()), "{w:?}");
        }
    }

    #[test]
    fn broken_outputs_fail_their_calls() {
        let (inputs, mut out, mut calls) = small_series_job(Workload::SeriesEvolve);
        let expected = Fingerprint::of(&out);
        // a link to a record that exists in neither snapshot
        out.mappings[1]
            .0
            .insert(RecordId(u64::MAX - 1), RecordId(u64::MAX));
        // evolution counts that no longer match the graph's own
        out.evolution.as_mut().unwrap().patterns[0].preserve_r += 1;
        let (failed, notes) = check_job(&inputs, &out, &expected);
        assert_eq!(failed, 2, "{notes:?}");
        assert!(notes.iter().any(|n| n.contains("old record missing")));
        assert!(notes
            .iter()
            .any(|n| n.contains("differ from the reference")));
        assert!(notes
            .iter()
            .any(|n| n.contains("detect_patterns disagrees")));
        calls.failed += failed;
        assert_eq!(calls.failed_share(), 2.0 / 7.0);
    }

    #[test]
    fn a_panicking_call_counts_as_failed() {
        let mut calls = Calls::default();
        assert_eq!(call(&mut calls, || 3), Some(3));
        let r: Option<()> = call(&mut calls, || panic!("deliberate"));
        assert!(r.is_none());
        assert_eq!((calls.attempted, calls.failed), (2, 1));
        assert_eq!(calls.failed_share(), 0.5);
    }

    #[test]
    fn workloads_round_trip_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.sim_config(7).seed, 7);
        }
        assert_eq!(Workload::parse("pair"), None);
    }
}
