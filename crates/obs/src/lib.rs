//! Structured run tracing and metrics for the linkage pipeline.
//!
//! The iterative driver (Algorithm 1) is a multi-phase pipeline —
//! enrichment, then per-δ pre-matching / subgraph matching / selection,
//! then the remainder pass — whose behaviour is opaque without per-phase
//! timing and counters. This crate provides the in-tree instrumentation
//! layer (the build is offline, so crates.io `tracing` is unavailable):
//!
//! * [`Collector`] — nested phase spans with wall-clock timing, optional
//!   per-δ-iteration tagging, atomic pipeline [`Counter`]s, and
//!   worker-attributed chunk timings from the parallel scoring loops
//!   (workers report in completion order; each record carries its
//!   stable worker id and the trace is sorted deterministically).
//! * [`timeline`] — an opt-in per-worker event recorder
//!   ([`Collector::with_timeline`]): bounded rings of fixed-size
//!   timestamped events drained into a [`Timeline`] trace section with
//!   derived scheduler analytics (utilization, stragglers, LPT plan
//!   quality, critical path).
//! * [`RunTrace`] — the serialisable report assembled by
//!   [`Collector::finish`]: aggregated phase statistics, a per-iteration
//!   breakdown, counters, chunk timings and the raw spans. Serialises to
//!   JSON via the vendored `serde_json` and renders as a human-readable
//!   phase table.
//! * [`TraceSink`] — a small accumulator for harnesses that run many
//!   linkages (the eval experiment runners) and want one labelled trace
//!   per run.
//!
//! # Cost model
//!
//! A disabled collector ([`Collector::disabled`]) reduces every call to
//! a single predictable branch on a plain `bool` — no locks, no clock
//! reads, no allocation — so instrumented hot paths stay within noise of
//! the uninstrumented code. Spans must be opened and closed from one
//! thread (the pipeline driver); counters, chunk timings and timeline
//! events may be reported from any thread. Chunk timings arrive in
//! completion order, not per-thread order — each record carries the
//! reporting worker's id for attribution.
//!
//! # Example
//!
//! ```
//! use obs::{Collector, Counter};
//!
//! let obs = Collector::enabled();
//! {
//!     let _phase = obs.span("prematch");
//!     obs.add(Counter::PrematchPairsScored, 10);
//! } // span ends when the guard drops
//! let trace = obs.finish();
//! assert_eq!(trace.phases.len(), 1);
//! assert_eq!(trace.counter("prematch_pairs_scored"), 10);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod decision;
pub mod diff;
pub mod footprint;
pub mod hist;
pub mod progress;
pub mod quality;
mod report;
pub mod timeline;

pub use alloc::{CountingAlloc, MemStats, PhaseMemStat};
pub use decision::{
    DecisionConfig, DecisionLog, DecisionRecord, GroupDecision, LosingCandidate, RejectedCandidate,
    RejectionReason, RemainderDecision,
};
pub use footprint::{Footprint, FootprintSnapshot, MemoryFootprint};
pub use hist::{score_bp, Histogram, LiveHist, NamedHistogram, HIST_BUCKETS};
pub use progress::{fmt_bytes, Progress};
pub use quality::{
    BlockingMisses, IterationQuality, Quality, QualityCounts, QualitySection, RecallFunnel,
    SelectionLosses, ShardQuality, SimBand, TruthConfig,
};
pub use report::{
    ChunkTiming, CounterValue, IterationTrace, LabeledTrace, MemoryStats, MultiTrace, PhaseMem,
    PhaseStat, RunTrace, ShardStat, SpanRecord, TraceEvent, PIPELINE_PHASES,
};
pub use timeline::{
    EventKind, PlanQuality, Straggler, Timeline, TimelineEvent, WorkerUtilization,
    DEFAULT_EVENT_CAPACITY,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The pipeline counters a [`Collector`] tracks.
///
/// Counters are fixed-slot atomics (not a string-keyed map) so that
/// incrementing one from a scoring loop is a single relaxed
/// `fetch_add`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Candidate record pairs scored by the δ schedule's pre-matching
    /// (never by the remaining-records pass).
    PrematchPairsScored,
    /// Pairs those passes kept: at or above the threshold they were
    /// scored at (the schedule floor for a cached pass).
    PrematchPairsMatched,
    /// Pairs rejected by the descending-weight early-exit bound before
    /// all attributes were scored (pre-matching and remainder combined).
    EarlyExitPrunes,
    /// Candidate household pairs given to the subgraph matcher.
    SubgraphPairsScored,
    /// Household pairs whose matched subgraph was non-empty (the inputs
    /// of Algorithm 2).
    GroupCandidates,
    /// Group links accepted by Algorithm 2.
    GroupLinksAccepted,
    /// Record links extracted from accepted subgraphs.
    RecordLinks,
    /// Age-plausible candidate pairs scored by a remaining-records pass
    /// the pre-matching cache could not serve (0 when it was served).
    RemainderPairsScored,
    /// Record links added by the remaining-records pass.
    RemainderLinks,
    /// Compiled profiles built (profile-cache misses).
    ProfilesBuilt,
    /// Compiled profiles served from the cache (hits).
    ProfilesReused,
    /// Cached pair scores reused by a filter-only pass over a cache built
    /// by an earlier pass (later δ steps, and a covered remainder pass).
    PairCacheHits,
    /// Cached pair scores skipped by a filter-only pass (below the
    /// current δ, or an endpoint already linked).
    PairCacheFiltered,
    /// Candidate pairs emitted by the blocking layer, after the
    /// age-plausibility filter of the pass that blocked them, if any.
    BlockingPairsGenerated,
    /// Batch-kernel work items requested: scored pairs × attribute
    /// specs, before value-pair deduplication.
    PairScoreBatchProbes,
    /// Unique `(old value-id, new value-id)` items the batch kernel
    /// actually computed — `1 − unique/probes` is the dedup win.
    PairScoreBatchedUnique,
    /// Memory-budget fallbacks: `SimTable`s skipped in favour of direct
    /// similarity computation.
    MemFallbackSimTable,
    /// Memory-budget fallbacks: pair-score caches skipped in favour of
    /// per-iteration recomputation.
    MemFallbackPairCache,
    /// Memory-budget fallbacks: decision-log caps tightened below their
    /// configured values.
    MemFallbackDecisionCaps,
    /// Evolution: preserved individuals (`preserve_R`) across all
    /// snapshot pairs.
    EvolutionPreserveR,
    /// Evolution: newly appearing individuals (`add_R`).
    EvolutionAddR,
    /// Evolution: disappearing individuals (`remove_R`).
    EvolutionRemoveR,
    /// Evolution: preserved households (`preserve_G`).
    EvolutionPreserveG,
    /// Evolution: newly appearing households (`add_G`).
    EvolutionAddG,
    /// Evolution: disappearing households (`remove_G`).
    EvolutionRemoveG,
    /// Timeline events lost to per-worker ring-buffer overflow (oldest
    /// dropped first; see [`timeline`]).
    TimelineDropped,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 26] = [
        Counter::PrematchPairsScored,
        Counter::PrematchPairsMatched,
        Counter::EarlyExitPrunes,
        Counter::SubgraphPairsScored,
        Counter::GroupCandidates,
        Counter::GroupLinksAccepted,
        Counter::RecordLinks,
        Counter::RemainderPairsScored,
        Counter::RemainderLinks,
        Counter::ProfilesBuilt,
        Counter::ProfilesReused,
        Counter::PairCacheHits,
        Counter::PairCacheFiltered,
        Counter::BlockingPairsGenerated,
        Counter::PairScoreBatchProbes,
        Counter::PairScoreBatchedUnique,
        Counter::MemFallbackSimTable,
        Counter::MemFallbackPairCache,
        Counter::MemFallbackDecisionCaps,
        Counter::EvolutionPreserveR,
        Counter::EvolutionAddR,
        Counter::EvolutionRemoveR,
        Counter::EvolutionPreserveG,
        Counter::EvolutionAddG,
        Counter::EvolutionRemoveG,
        Counter::TimelineDropped,
    ];

    /// Stable snake_case name used in the JSON trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::PrematchPairsScored => "prematch_pairs_scored",
            Counter::PrematchPairsMatched => "prematch_pairs_matched",
            Counter::EarlyExitPrunes => "early_exit_prunes",
            Counter::SubgraphPairsScored => "subgraph_pairs_scored",
            Counter::GroupCandidates => "group_candidates",
            Counter::GroupLinksAccepted => "group_links_accepted",
            Counter::RecordLinks => "record_links",
            Counter::RemainderPairsScored => "remainder_pairs_scored",
            Counter::RemainderLinks => "remainder_links",
            Counter::ProfilesBuilt => "profiles_built",
            Counter::ProfilesReused => "profiles_reused",
            Counter::PairCacheHits => "pair_cache_hits",
            Counter::PairCacheFiltered => "pair_cache_filtered",
            Counter::BlockingPairsGenerated => "blocking_pairs_generated",
            Counter::PairScoreBatchProbes => "pair_score_batch_probes",
            Counter::PairScoreBatchedUnique => "pair_score_batched_unique",
            Counter::MemFallbackSimTable => "mem_fallback_sim_table",
            Counter::MemFallbackPairCache => "mem_fallback_pair_cache",
            Counter::MemFallbackDecisionCaps => "mem_fallback_decision_caps",
            Counter::EvolutionPreserveR => "evolution_preserve_r",
            Counter::EvolutionAddR => "evolution_add_r",
            Counter::EvolutionRemoveR => "evolution_remove_r",
            Counter::EvolutionPreserveG => "evolution_preserve_g",
            Counter::EvolutionAddG => "evolution_add_g",
            Counter::EvolutionRemoveG => "evolution_remove_g",
            Counter::TimelineDropped => "timeline_dropped",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The span grouping one δ iteration of the driver; its children are the
/// per-iteration phases. Treated specially when a [`RunTrace`] is
/// assembled: it forms the per-iteration breakdown rather than a phase.
pub const ITERATION_SPAN: &str = "iteration";

struct Frame {
    name: &'static str,
    iteration: Option<usize>,
    delta: Option<f64>,
    start: Instant,
}

#[derive(Default)]
struct SpanState {
    stack: Vec<Frame>,
    finished: Vec<SpanRecord>,
}

/// Ground-truth state behind [`Collector::with_truth`]: the loaded truth
/// mappings, the live taps (selection rejections, shard attribution, the
/// recovered-pairs gauge feeding `--progress`), and the finalised
/// [`QualitySection`] once the pipeline computes it.
struct TruthState {
    config: quality::TruthConfig,
    record_set: std::collections::HashSet<(u64, u64)>,
    rejections: Vec<(u64, u64, RejectionReason)>,
    shard_map: Option<Vec<(u64, u64, usize)>>,
    recovered: u64,
    quality: Option<quality::QualitySection>,
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it.
/// The collector's state stays structurally valid mid-operation (every
/// push/pop is a single call), so the data behind a poisoned lock is
/// still usable — and instrumentation must never turn a caught pipeline
/// panic into a second panic.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The instrumentation collector threaded through a pipeline run.
///
/// See the crate docs for the cost model. A collector observes exactly
/// one run; build a fresh one per run and snapshot it with
/// [`Collector::finish`].
pub struct Collector {
    enabled: bool,
    memory: bool,
    epoch: Instant,
    state: Mutex<SpanState>,
    counters: [AtomicU64; Counter::ALL.len()],
    chunks: Mutex<Vec<ChunkTiming>>,
    hists: Mutex<Vec<Histogram>>,
    decisions: Option<Mutex<DecisionLog>>,
    footprints: Mutex<Vec<FootprintSnapshot>>,
    events: Mutex<Vec<TraceEvent>>,
    shard_stats: Mutex<Vec<ShardStat>>,
    progress: Option<Mutex<Progress>>,
    timeline: Option<timeline::TimelineState>,
    truth: Option<Mutex<TruthState>>,
}

impl Collector {
    /// A collector that records spans, counters and chunk timings.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A no-op collector: every call short-circuits on a plain branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Build a collector with the given state.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            memory: false,
            epoch: Instant::now(),
            state: Mutex::new(SpanState::default()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            chunks: Mutex::new(Vec::new()),
            hists: Mutex::new(vec![Histogram::new(); LiveHist::ALL.len()]),
            decisions: None,
            footprints: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            shard_stats: Mutex::new(Vec::new()),
            progress: None,
            timeline: None,
            truth: None,
        }
    }

    /// Turn on allocation tracking for this run: resets the
    /// process-global counting-allocator state (see [`alloc`]) and, at
    /// [`Collector::finish`], attaches a per-phase memory table to the
    /// trace. Has no effect on a disabled collector, and records only
    /// zeros unless a [`CountingAlloc`] is the binary's global
    /// allocator. One memory-tracked run at a time per process.
    #[must_use]
    pub fn with_memory(mut self) -> Self {
        if self.enabled {
            alloc::start_tracking();
            self.memory = true;
        }
        self
    }

    /// Whether allocation tracking was requested for this run.
    #[must_use]
    pub fn memory_enabled(&self) -> bool {
        self.memory
    }

    /// Attach a live progress reporter, driven by span pushes, counter
    /// updates and chunk timings. Has no effect on a disabled
    /// collector.
    #[must_use]
    pub fn with_progress(mut self, progress: Progress) -> Self {
        if self.enabled {
            self.progress = Some(Mutex::new(progress));
        }
        self
    }

    /// Turn on per-worker timeline recording (see [`timeline`]) with
    /// the default per-worker ring capacity. Has no effect on a
    /// disabled collector.
    #[must_use]
    pub fn with_timeline(self) -> Self {
        self.with_timeline_capacity(timeline::DEFAULT_EVENT_CAPACITY)
    }

    /// Turn on per-worker timeline recording with an explicit
    /// per-worker ring capacity (events; at least 1). Overflow drops
    /// the oldest events and counts them in `timeline_dropped`. Has no
    /// effect on a disabled collector.
    #[must_use]
    pub fn with_timeline_capacity(mut self, capacity: usize) -> Self {
        if self.enabled {
            self.timeline = Some(timeline::TimelineState::new(capacity));
        }
        self
    }

    /// Whether timeline recording is on.
    #[must_use]
    pub fn timeline_enabled(&self) -> bool {
        self.timeline.is_some()
    }

    /// Mark the start of a timed unit of work. Returns `None` — at the
    /// cost of one branch, no clock read — unless timeline recording is
    /// on. Pair every `Some` with a [`Collector::timeline_task`] call;
    /// the busy-worker gauge feeding the live progress utilization line
    /// counts starts not yet finished.
    #[must_use]
    pub fn timeline_start(&self) -> Option<Instant> {
        let state = self.timeline.as_ref()?;
        state.task_started();
        Some(Instant::now())
    }

    /// Record a completed unit of work that began at `start` (the
    /// instant handed out by [`Collector::timeline_start`]) into
    /// `worker`'s ring. Thread-safe.
    pub fn timeline_task(
        &self,
        worker: usize,
        kind: EventKind,
        detail: u64,
        iteration: Option<usize>,
        start: Instant,
    ) {
        let Some(state) = &self.timeline else {
            return;
        };
        let event = TimelineEvent {
            worker: u32::try_from(worker).unwrap_or(u32::MAX),
            kind,
            start_us: as_us(start.duration_since(self.epoch)),
            duration_us: as_us(start.elapsed()),
            detail,
            iteration,
        };
        state.push(event);
        state.task_finished();
        if let Some(p) = &self.progress {
            lock_or_recover(p).utilization(state.busy(), state.workers());
        }
    }

    /// Record an instant (zero-duration) timeline event at the current
    /// time. Thread-safe; a no-op unless timeline recording is on.
    pub fn timeline_instant(
        &self,
        worker: usize,
        kind: EventKind,
        detail: u64,
        iteration: Option<usize>,
    ) {
        let Some(state) = &self.timeline else {
            return;
        };
        state.push(TimelineEvent {
            worker: u32::try_from(worker).unwrap_or(u32::MAX),
            kind,
            start_us: as_us(self.epoch.elapsed()),
            duration_us: 0,
            detail,
            iteration,
        });
    }

    /// Record the queue-wait gap a pool worker spent between `since`
    /// (when its previous task ended) and now, while waiting to claim
    /// task `detail`. Gaps that truncate to 0µs are not recorded.
    /// Thread-safe; a no-op unless timeline recording is on.
    pub fn timeline_gap(&self, worker: usize, since: Instant, detail: u64) {
        let Some(state) = &self.timeline else {
            return;
        };
        let duration_us = as_us(since.elapsed());
        if duration_us == 0 {
            return;
        }
        state.push(TimelineEvent {
            worker: u32::try_from(worker).unwrap_or(u32::MAX),
            kind: EventKind::QueueWait,
            start_us: as_us(since.duration_since(self.epoch)),
            duration_us,
            detail,
            iteration: None,
        });
    }

    /// Record the LPT plan's predicted per-shard loads for the
    /// plan-quality analytics. The first plan of the run wins (the
    /// headline pre-matching plan; the remainder pass replans a much
    /// smaller residue). A no-op unless timeline recording is on.
    pub fn timeline_plan(&self, loads: &[u64]) {
        if let Some(state) = &self.timeline {
            state.set_plan(loads);
        }
    }

    /// Turn on bounded decision-provenance recording (see
    /// [`decision`]). Has no effect on a disabled collector.
    #[must_use]
    pub fn with_decisions(mut self, config: DecisionConfig) -> Self {
        if self.enabled {
            self.decisions = Some(Mutex::new(DecisionLog::new(config)));
        }
        self
    }

    /// Load ground-truth mappings for quality telemetry (see
    /// [`quality`]): the pipeline classifies every true record pair into
    /// the recall-loss funnel and [`Collector::finish`] attaches a
    /// [`QualitySection`] to the trace. Has no effect on a disabled
    /// collector.
    #[must_use]
    pub fn with_truth(mut self, config: quality::TruthConfig) -> Self {
        if self.enabled {
            let record_set = config.record_pairs.iter().copied().collect();
            self.truth = Some(Mutex::new(TruthState {
                config,
                record_set,
                rejections: Vec::new(),
                shard_map: None,
                recovered: 0,
                quality: None,
            }));
        }
        self
    }

    /// Whether ground-truth quality telemetry is on.
    #[must_use]
    pub fn truth_enabled(&self) -> bool {
        self.truth.is_some()
    }

    /// A copy of the loaded ground-truth mappings, or `None` when truth
    /// telemetry is off.
    #[must_use]
    pub fn truth_config(&self) -> Option<quality::TruthConfig> {
        self.truth
            .as_ref()
            .map(|t| lock_or_recover(t).config.clone())
    }

    /// Record a selection rejection of a true-relevant household pair
    /// (raw ids), for the funnel's `lost_selection` reason join. A no-op
    /// unless truth telemetry is on.
    pub fn truth_rejected(&self, old_group: u64, new_group: u64, reason: RejectionReason) {
        if let Some(t) = &self.truth {
            lock_or_recover(t)
                .rejections
                .push((old_group, new_group, reason));
        }
    }

    /// The recorded selection rejections, in arrival order.
    #[must_use]
    pub fn truth_rejections(&self) -> Vec<(u64, u64, RejectionReason)> {
        self.truth
            .as_ref()
            .map_or_else(Vec::new, |t| lock_or_recover(t).rejections.clone())
    }

    /// Record the blocking layer's shard attribution of true record
    /// pairs (raw old id, raw new id, owning shard). The first map of
    /// the run wins — the remainder pass replans a smaller residue. A
    /// no-op unless truth telemetry is on.
    pub fn truth_shard_map_set(&self, map: Vec<(u64, u64, usize)>) {
        if let Some(t) = &self.truth {
            let mut guard = lock_or_recover(t);
            if guard.shard_map.is_none() {
                guard.shard_map = Some(map);
            }
        }
    }

    /// The recorded shard attribution, if any pass reported one.
    #[must_use]
    pub fn truth_shard_map(&self) -> Option<Vec<(u64, u64, usize)>> {
        self.truth
            .as_ref()
            .and_then(|t| lock_or_recover(t).shard_map.clone())
    }

    /// Report a record link the pipeline just accepted. Counts it
    /// towards the live truth-coverage gauge if the pair is true, and
    /// feeds the `--progress` readout. A no-op unless truth telemetry
    /// is on.
    pub fn truth_added(&self, old_record: u64, new_record: u64) {
        let Some(t) = &self.truth else {
            return;
        };
        let (recovered, total) = {
            let mut guard = lock_or_recover(t);
            if !guard.record_set.contains(&(old_record, new_record)) {
                return;
            }
            guard.recovered += 1;
            (guard.recovered, guard.record_set.len() as u64)
        };
        if let Some(p) = &self.progress {
            lock_or_recover(p).truth_coverage(recovered, total);
        }
    }

    /// Attach the finalised quality section computed by the pipeline;
    /// [`Collector::finish`] copies it into the trace. A no-op unless
    /// truth telemetry is on.
    pub fn set_quality(&self, section: quality::QualitySection) {
        if let Some(t) = &self.truth {
            lock_or_recover(t).quality = Some(section);
        }
    }

    /// Whether this collector records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether decision provenance is being recorded.
    #[must_use]
    pub fn decisions_enabled(&self) -> bool {
        self.decisions.is_some()
    }

    /// How many losing candidates each group decision should list
    /// (0 when decision recording is off).
    #[must_use]
    pub fn decision_top_k(&self) -> usize {
        self.decisions
            .as_ref()
            .map_or(0, |d| lock_or_recover(d).top_k())
    }

    /// Append a decision record to the bounded log. Thread-safe; a
    /// no-op unless [`Collector::with_decisions`] was applied.
    pub fn decide(&self, record: DecisionRecord) {
        if let Some(log) = &self.decisions {
            lock_or_recover(log).push(record);
        }
    }

    /// Take the decision log out of the collector (leaving an empty one
    /// behind), or `None` when decision recording is off.
    #[must_use]
    pub fn take_decisions(&self) -> Option<DecisionLog> {
        self.decisions.as_ref().map(|log| {
            let mut guard = lock_or_recover(log);
            let empty = DecisionLog::new(DecisionConfig {
                top_k: guard.top_k(),
                ..DecisionConfig::default()
            });
            std::mem::replace(&mut *guard, empty)
        })
    }

    /// Open a phase span; it ends (and is recorded) when the returned
    /// guard drops. Spans nest: a span opened while another is active
    /// becomes its child and inherits its iteration tag.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.push_span(name, None, None)
    }

    /// Open a span tagged with a δ-iteration index (and optionally the
    /// δ value itself). Child spans inherit the tag; the [`RunTrace`]
    /// groups tagged spans into the per-iteration breakdown.
    #[must_use]
    pub fn iter_span(
        &self,
        name: &'static str,
        iteration: usize,
        delta: Option<f64>,
    ) -> SpanGuard<'_> {
        self.push_span(name, Some(iteration), delta)
    }

    fn push_span(
        &self,
        name: &'static str,
        iteration: Option<usize>,
        delta: Option<f64>,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { collector: None };
        }
        let slot = alloc::phase_slot(name);
        let recognised = slot != alloc::OTHER_SLOT;
        let (inherited_iteration, inherited_delta) = {
            let mut st = lock_or_recover(&self.state);
            st.stack.push(Frame {
                name,
                iteration,
                delta,
                start: Instant::now(),
            });
            let mut it = iteration;
            let mut dl = delta;
            for f in st.stack.iter().rev() {
                if it.is_none() {
                    it = f.iteration;
                }
                if dl.is_none() {
                    dl = f.delta;
                }
            }
            (it, dl)
        };
        // attribute subsequent allocations to the innermost recognised
        // phase; unrecognised child spans keep their parent's slot
        if recognised {
            if self.memory {
                alloc::set_phase(slot);
            }
            if let Some(p) = &self.progress {
                lock_or_recover(p).phase_started(name, inherited_iteration, inherited_delta);
            }
        }
        SpanGuard {
            collector: Some(self),
        }
    }

    fn end_span(&self) {
        let mut st = lock_or_recover(&self.state);
        let Some(frame) = st.stack.pop() else {
            // a panic unwound past an outer guard before this one
            // dropped; the span is already closed — never re-panic
            return;
        };
        let duration_us = as_us(frame.start.elapsed());
        let parent = st.stack.last().map(|f| f.name.to_owned());
        let mut iteration = frame.iteration;
        let mut delta = frame.delta;
        for f in st.stack.iter().rev() {
            if iteration.is_none() {
                iteration = f.iteration;
            }
            if delta.is_none() {
                delta = f.delta;
            }
        }
        let path = st
            .stack
            .iter()
            .map(|f| f.name)
            .chain([frame.name])
            .collect::<Vec<_>>()
            .join("/");
        let depth = st.stack.len();
        st.finished.push(SpanRecord {
            name: frame.name.to_owned(),
            path,
            parent,
            depth,
            iteration,
            delta,
            start_us: as_us(frame.start.duration_since(self.epoch)),
            duration_us,
        });
        if self.memory {
            // restore attribution to the nearest recognised ancestor
            let slot = st
                .stack
                .iter()
                .rev()
                .map(|f| alloc::phase_slot(f.name))
                .find(|&s| s != alloc::OTHER_SLOT)
                .unwrap_or(alloc::OTHER_SLOT);
            alloc::set_phase(slot);
        }
    }

    /// Add `n` to a counter. Thread-safe; a no-op when disabled.
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled && n > 0 {
            let done = self.counters[counter.index()].fetch_add(n, Ordering::Relaxed) + n;
            if self.progress.is_some() {
                self.progress_tick(counter, done);
            }
        }
    }

    /// Feed the progress reporter on counters that measure scoring
    /// work. The blocking-pair counter is the best available
    /// denominator for pre-matching; the other loops report without
    /// one.
    fn progress_tick(&self, counter: Counter, done: u64) {
        let (what, total) = match counter {
            Counter::PrematchPairsScored => {
                ("pairs", self.counter(Counter::BlockingPairsGenerated))
            }
            Counter::SubgraphPairsScored => ("household pairs", 0),
            Counter::RemainderPairsScored => ("remainder pairs", 0),
            _ => return,
        };
        if let Some(p) = &self.progress {
            lock_or_recover(p).tick(what, done, total);
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Record the wall time one worker spent on one chunk of a parallel
    /// scoring loop, attributed to the stable `worker` id that ran it.
    /// Thread-safe; records arrive in completion order and
    /// [`Collector::finish`] sorts them deterministically. A no-op when
    /// disabled.
    pub fn thread_chunk(
        &self,
        phase: &'static str,
        iteration: Option<usize>,
        chunk: usize,
        worker: usize,
        items: usize,
        duration: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let duration_us = as_us(duration);
        lock_or_recover(&self.chunks).push(ChunkTiming {
            phase: phase.to_owned(),
            iteration,
            chunk,
            worker,
            items,
            duration_us,
        });
        if let Some(p) = &self.progress {
            lock_or_recover(p).chunk(items, duration_us);
        }
    }

    /// Record a footprint snapshot of one structure, tagged with the
    /// active phase and δ iteration. Call at phase boundaries — the
    /// estimate walks the structure. A no-op when disabled.
    pub fn snapshot_footprint(&self, structure: &'static str, fp: Footprint) {
        if !self.enabled {
            return;
        }
        let (phase, iteration) = self.current_phase();
        lock_or_recover(&self.footprints).push(FootprintSnapshot {
            structure: structure.to_owned(),
            phase,
            iteration,
            bytes: fp.bytes,
            elements: fp.elements,
        });
    }

    /// Record a footprint snapshot of the decision log itself, as a
    /// `"decision_log"` structure row. A no-op when disabled or when
    /// decision recording is off.
    pub fn snapshot_decision_footprint(&self) {
        if !self.enabled {
            return;
        }
        if let Some(log) = &self.decisions {
            let fp = lock_or_recover(log).footprint();
            self.snapshot_footprint("decision_log", fp);
        }
    }

    /// Record one shard's scoring telemetry. Thread-safe — workers on
    /// the sharded scoring pool report in completion order, and
    /// [`Collector::finish`] sorts rows by shard id so the assembled
    /// trace is identical for any completion order. As with
    /// [`Collector::timeline_plan`], the first pass of the run wins: a
    /// later sharded pass (a per-δ rebuild, the remainder's own scoring)
    /// reports no rows for shard ids already recorded. A no-op when
    /// disabled.
    pub fn shard_stat(&self, stat: ShardStat) {
        if !self.enabled {
            return;
        }
        let mut stats = lock_or_recover(&self.shard_stats);
        if stats.iter().all(|s| s.shard != stat.shard) {
            stats.push(stat);
        }
    }

    /// Record a point event (e.g. a memory-budget fallback), tagged
    /// with the active phase and δ iteration. A no-op when disabled.
    pub fn event(&self, name: &'static str, detail: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let (phase, iteration) = self.current_phase();
        lock_or_recover(&self.events).push(TraceEvent {
            name: name.to_owned(),
            phase,
            iteration,
            detail: detail.into(),
        });
    }

    /// The innermost recognised phase on the span stack and the
    /// inherited δ-iteration index (`""`/`None` outside spans).
    fn current_phase(&self) -> (String, Option<usize>) {
        let st = lock_or_recover(&self.state);
        let phase = st
            .stack
            .iter()
            .rev()
            .find(|f| alloc::phase_slot(f.name) != alloc::OTHER_SLOT)
            .map(|f| f.name.to_owned())
            .unwrap_or_default();
        let iteration = st.stack.iter().rev().find_map(|f| f.iteration);
        (phase, iteration)
    }

    /// Record one sample into a live histogram. Thread-safe; a no-op
    /// when disabled. Hot loops should prefer [`Collector::observe_hist`]
    /// with a thread-local histogram to amortise the lock.
    pub fn observe(&self, which: LiveHist, value: u64) {
        if self.enabled {
            lock_or_recover(&self.hists)[which.index()].record(value);
        }
    }

    /// Merge a locally-accumulated histogram into a live histogram slot
    /// (one lock per batch instead of per sample). Thread-safe; a no-op
    /// when disabled.
    pub fn observe_hist(&self, which: LiveHist, hist: &Histogram) {
        if self.enabled && !hist.is_empty() {
            lock_or_recover(&self.hists)[which.index()].merge(hist);
        }
    }

    /// Snapshot the collected spans, counters, chunk timings and
    /// histograms into a [`RunTrace`]. Total wall time is measured from
    /// the collector's construction. Open spans are not included — close
    /// every guard before finishing (a caught panic closes its spans via
    /// the guards' `Drop` during unwinding).
    #[must_use]
    pub fn finish(&self) -> RunTrace {
        let total_us = as_us(self.epoch.elapsed());
        let spans = {
            let st = lock_or_recover(&self.state);
            st.finished.clone()
        };
        let chunks = {
            let mut c = lock_or_recover(&self.chunks).clone();
            // workers report in completion order; sort so identical runs
            // yield identical traces
            c.sort_by(|a, b| {
                (a.phase.as_str(), a.iteration, a.chunk, a.worker).cmp(&(
                    b.phase.as_str(),
                    b.iteration,
                    b.chunk,
                    b.worker,
                ))
            });
            c
        };
        let shard_stats = {
            let mut s = lock_or_recover(&self.shard_stats).clone();
            // workers report in completion order; the trace is sorted by
            // shard id so identical runs yield identical traces
            s.sort_by_key(|st| st.shard);
            s
        };
        // drain the timeline (and fold ring overflow into its counter)
        // before snapshotting counters
        let timeline = self.timeline.as_ref().map(|state| {
            let (events, dropped, loads) = state.drain();
            // store (not add) so finishing twice stays consistent with
            // the re-drained ring counts
            if dropped > 0 {
                self.counters[Counter::TimelineDropped.index()].store(dropped, Ordering::Relaxed);
            }
            timeline::Timeline::derive(events, dropped, &loads, &shard_stats)
        });
        let counters = Counter::ALL
            .iter()
            .map(|&c| CounterValue {
                name: c.name().to_owned(),
                value: self.counter(c),
            })
            .collect();
        let live_hists = if self.enabled {
            let hists = lock_or_recover(&self.hists);
            LiveHist::ALL
                .iter()
                .map(|&h| NamedHistogram {
                    name: h.name().to_owned(),
                    unit: h.unit().to_owned(),
                    hist: hists[h.index()].clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let memory = if self.memory {
            let stats = alloc::stop_tracking();
            Some(MemoryStats {
                bytes_allocated: stats.bytes_allocated,
                allocs: stats.allocs,
                frees: stats.frees,
                live_bytes_at_finish: stats.live_bytes,
                peak_live_bytes: stats.peak_live_bytes,
                phases: stats
                    .phases
                    .iter()
                    .filter(|p| p.allocs > 0)
                    .map(|p| PhaseMem {
                        name: p.name.to_owned(),
                        alloc_bytes: p.alloc_bytes,
                        allocs: p.allocs,
                        peak_live_bytes: p.peak_live_bytes,
                    })
                    .collect(),
            })
        } else {
            None
        };
        let footprints = lock_or_recover(&self.footprints).clone();
        let events = lock_or_recover(&self.events).clone();
        let quality = self
            .truth
            .as_ref()
            .and_then(|t| lock_or_recover(t).quality.clone());
        RunTrace::assemble(
            self.enabled,
            total_us,
            spans,
            counters,
            chunks,
            live_hists,
            memory,
            footprints,
            events,
            shard_stats,
            timeline,
            quality,
        )
    }
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// RAII guard returned by [`Collector::span`]; records the span when
/// dropped. Guards must drop in LIFO order (natural lexical scoping).
pub struct SpanGuard<'a> {
    collector: Option<&'a Collector>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.collector {
            c.end_span();
        }
    }
}

/// Accumulates one labelled [`RunTrace`] per pipeline run, for harnesses
/// that link many times (parameter sweeps, the eval experiment runners).
///
/// A disabled sink hands out disabled collectors and drops every record,
/// so traced runners cost nothing when tracing is off.
#[derive(Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    /// The recorded traces, in run order.
    pub traces: Vec<LabeledTrace>,
}

impl TraceSink {
    /// A sink that records traces.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            traces: Vec::new(),
        }
    }

    /// A sink that drops everything and hands out no-op collectors.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this sink records traces.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh collector matching the sink's state, for one run.
    #[must_use]
    pub fn collector(&self) -> Collector {
        Collector::new(self.enabled)
    }

    /// Record the finished trace of `collector` under `label`.
    pub fn record(&mut self, label: impl Into<String>, collector: &Collector) {
        if self.enabled {
            self.traces.push(LabeledTrace {
                label: label.into(),
                trace: collector.finish(),
            });
        }
    }

    /// The recorded traces as one serialisable document.
    #[must_use]
    pub fn into_multi(self) -> MultiTrace {
        MultiTrace { runs: self.traces }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let obs = Collector::disabled();
        {
            let _a = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 100);
            obs.thread_chunk("prematch", None, 0, 0, 10, Duration::from_millis(1));
            obs.timeline_plan(&[1, 2, 3]);
            obs.timeline_instant(0, EventKind::Iteration, 0, Some(0));
        }
        let trace = obs.finish();
        assert!(!trace.enabled);
        assert!(trace.spans.is_empty());
        assert!(trace.chunks.is_empty());
        assert_eq!(trace.counter("prematch_pairs_scored"), 0);
        assert!(trace.timeline.is_none());
    }

    #[test]
    fn timeline_is_opt_in_and_records_worker_events() {
        // enabled but without with_timeline: starts hand out None and
        // nothing is recorded
        let obs = Collector::enabled();
        assert!(!obs.timeline_enabled());
        assert!(obs.timeline_start().is_none());
        obs.timeline_instant(0, EventKind::Iteration, 0, None);
        assert!(obs.finish().timeline.is_none());

        let obs = Collector::enabled().with_timeline();
        assert!(obs.timeline_enabled());
        let t0 = obs.timeline_start().expect("timeline on");
        std::thread::sleep(Duration::from_millis(2));
        obs.timeline_task(1, EventKind::Shard, 7, None, t0);
        obs.timeline_instant(0, EventKind::Iteration, 0, Some(0));
        let trace = obs.finish();
        assert_eq!(trace.counter("timeline_dropped"), 0);
        let tl = trace.timeline.as_ref().expect("timeline section");
        assert_eq!(tl.workers, 2);
        assert_eq!(tl.dropped, 0);
        let shard = tl
            .events
            .iter()
            .find(|e| e.kind == EventKind::Shard)
            .expect("shard event");
        assert_eq!(shard.worker, 1);
        assert_eq!(shard.detail, 7);
        assert!(shard.duration_us >= 1_000);
        assert!(tl.active_us >= shard.duration_us);
    }

    #[test]
    fn timeline_ring_overflow_feeds_the_dropped_counter() {
        let obs = Collector::enabled().with_timeline_capacity(2);
        for i in 0..5 {
            let t0 = obs.timeline_start().expect("timeline on");
            obs.timeline_task(0, EventKind::Shard, i, None, t0);
        }
        let trace = obs.finish();
        let tl = trace.timeline.as_ref().expect("timeline section");
        assert_eq!(tl.events.len(), 2);
        assert_eq!(tl.dropped, 3);
        assert_eq!(trace.counter("timeline_dropped"), 3);
        // the survivors are the newest events
        assert_eq!(
            tl.events.iter().map(|e| e.detail).collect::<Vec<_>>(),
            vec![3, 4]
        );
        trace.validate_basic().expect("overflow must not corrupt");
    }

    #[test]
    fn timeline_events_from_worker_threads_round_trip_through_json() {
        let obs = Collector::enabled().with_timeline();
        obs.timeline_plan(&[40, 60]);
        std::thread::scope(|scope| {
            for w in 0..3usize {
                let obs = &obs;
                scope.spawn(move || {
                    let t0 = obs.timeline_start().expect("timeline on");
                    obs.timeline_task(w, EventKind::Shard, w as u64, None, t0);
                });
            }
        });
        {
            let _pm = obs.span("prematch");
        }
        let trace = obs.finish();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        let tl = back.timeline.as_ref().expect("timeline survives serde");
        assert_eq!(tl.workers, 3);
        assert_eq!(tl.events.len(), 3);
        assert_eq!(tl.utilization.len(), 3);
        assert_eq!(back.timeline, trace.timeline);
    }

    #[test]
    fn spans_nest_and_inherit_iteration_tags() {
        let obs = Collector::enabled();
        {
            let _it = obs.iter_span(ITERATION_SPAN, 3, Some(0.65));
            let _pm = obs.span("prematch");
            let _pr = obs.span("profiles");
        }
        let trace = obs.finish();
        // innermost closes first
        assert_eq!(trace.spans[0].path, "iteration/prematch/profiles");
        assert_eq!(trace.spans[0].parent.as_deref(), Some("prematch"));
        assert_eq!(trace.spans[0].iteration, Some(3));
        assert_eq!(trace.spans[0].delta, Some(0.65));
        assert_eq!(trace.spans[0].depth, 2);
        assert_eq!(trace.spans[2].path, "iteration");
        assert_eq!(trace.spans[2].depth, 0);
    }

    #[test]
    fn phase_aggregation_counts_calls_and_sums_time() {
        let obs = Collector::enabled();
        for i in 0..3 {
            let _it = obs.iter_span(ITERATION_SPAN, i, Some(0.7 - 0.05 * i as f64));
            let _pm = obs.span("prematch");
        }
        {
            let _r = obs.span("remainder");
        }
        let trace = obs.finish();
        let pm = trace.phase("prematch").expect("prematch aggregated");
        assert_eq!(pm.calls, 3);
        assert!(trace.phase("remainder").is_some());
        // the iteration grouping span is not itself a phase
        assert!(trace.phase(ITERATION_SPAN).is_none());
        assert_eq!(trace.iterations.len(), 3);
        assert_eq!(trace.iterations[0].index, 0);
        assert!((trace.iterations[2].delta - 0.6).abs() < 1e-9);
        assert_eq!(trace.iterations[1].phases.len(), 1);
    }

    #[test]
    fn counters_accumulate_and_report_by_name() {
        let obs = Collector::enabled();
        obs.add(Counter::EarlyExitPrunes, 5);
        obs.add(Counter::EarlyExitPrunes, 7);
        obs.add(Counter::ProfilesBuilt, 2);
        obs.add(Counter::ProfilesReused, 6);
        let trace = obs.finish();
        assert_eq!(trace.counter("early_exit_prunes"), 12);
        assert!((trace.profile_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chunk_timings_are_recorded_from_any_thread() {
        let obs = Collector::enabled();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let obs = &obs;
                scope.spawn(move || {
                    obs.thread_chunk(
                        "subgraph",
                        Some(0),
                        t,
                        t,
                        100 * t,
                        Duration::from_micros(50),
                    );
                });
            }
        });
        let trace = obs.finish();
        assert_eq!(trace.chunks.len(), 4);
        assert!(trace.chunks.iter().all(|c| c.phase == "subgraph"));
        // completion order is nondeterministic; the trace is sorted
        assert_eq!(
            trace.chunks.iter().map(|c| c.worker).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn trace_round_trips_through_json() {
        let obs = Collector::enabled();
        {
            let _it = obs.iter_span(ITERATION_SPAN, 0, Some(0.7));
            let _pm = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 11);
        }
        let trace = obs.finish();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.iterations.len(), 1);
        assert_eq!(back.counter("prematch_pairs_scored"), 11);
        assert_eq!(back.spans.len(), trace.spans.len());
    }

    #[test]
    fn panic_inside_span_still_closes_it() {
        let obs = Collector::enabled();
        {
            let _outer = obs.span("enrich");
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = obs.span("prematch");
            obs.add(Counter::PrematchPairsScored, 3);
            panic!("scoring blew up");
        }));
        assert!(caught.is_err());
        let trace = obs.finish();
        // the guard's Drop ran during unwinding, so the span is closed
        assert!(trace.phase("prematch").is_some());
        assert_eq!(trace.counter("prematch_pairs_scored"), 3);
        trace
            .validate_basic()
            .expect("trace valid after caught panic");
    }

    #[test]
    fn panicking_worker_thread_does_not_poison_the_collector() {
        let obs = Collector::enabled();
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _span = obs.span("subgraph");
                    obs.thread_chunk("subgraph", None, 0, 0, 5, Duration::from_micros(10));
                    panic!("worker died mid-span");
                })
                .join()
        });
        assert!(result.is_err());
        // the main thread can keep instrumenting and finish cleanly
        {
            let _s = obs.span("selection");
            obs.observe(LiveHist::SubgraphSize, 4);
        }
        let trace = obs.finish();
        assert!(trace.phase("subgraph").is_some());
        assert!(trace.phase("selection").is_some());
        assert_eq!(trace.chunks.len(), 1);
        trace
            .validate_basic()
            .expect("trace valid after worker panic");
    }

    #[test]
    fn live_histograms_flow_into_the_trace() {
        let obs = Collector::enabled();
        obs.observe(LiveHist::PairScore, score_bp(0.8));
        obs.observe(LiveHist::PairScore, score_bp(0.6));
        let mut local = Histogram::new();
        local.record(3);
        local.record(7);
        obs.observe_hist(LiveHist::SubgraphSize, &local);
        {
            let _s = obs.span("prematch");
        }
        let trace = obs.finish();
        assert_eq!(trace.histogram("pair_agg_sim_bp").unwrap().count, 2);
        assert_eq!(trace.histogram("subgraph_size").unwrap().count, 2);
        assert_eq!(trace.histogram("subgraph_size").unwrap().max, 7);
        // derived phase-latency histogram appears alongside
        assert_eq!(trace.histogram("phase_us_prematch").unwrap().count, 1);
        trace.validate_basic().unwrap();

        let off = Collector::disabled();
        off.observe(LiveHist::PairScore, 1);
        off.observe_hist(LiveHist::SubgraphSize, &local);
        assert!(off.finish().histograms.is_empty());
    }

    #[test]
    fn decision_log_is_opt_in_and_bounded() {
        let obs = Collector::enabled();
        assert!(!obs.decisions_enabled());
        assert_eq!(obs.decision_top_k(), 0);
        obs.decide(DecisionRecord::Remainder(RemainderDecision {
            old_record: 1,
            new_record: 2,
            old_group: 3,
            new_group: 4,
            agg_sim: 0.9,
        }));
        assert!(obs.take_decisions().is_none());

        let obs = Collector::enabled().with_decisions(DecisionConfig {
            max_links: 1,
            max_rejections: 8,
            top_k: 2,
        });
        assert!(obs.decisions_enabled());
        assert_eq!(obs.decision_top_k(), 2);
        for r in 0..3 {
            obs.decide(DecisionRecord::Remainder(RemainderDecision {
                old_record: r,
                new_record: r,
                old_group: r,
                new_group: r,
                agg_sim: 0.5,
            }));
        }
        let log = obs.take_decisions().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.dropped_links, 2);
        // taking leaves an empty log behind
        assert!(obs.take_decisions().unwrap().is_empty());

        // a disabled collector never records decisions, even when asked
        let off = Collector::disabled().with_decisions(DecisionConfig::default());
        assert!(!off.decisions_enabled());
        assert!(off.take_decisions().is_none());
    }

    #[test]
    fn truth_telemetry_is_opt_in_and_flows_into_the_trace() {
        // enabled but without with_truth: every tap is a no-op
        let obs = Collector::enabled();
        assert!(!obs.truth_enabled());
        assert!(obs.truth_config().is_none());
        obs.truth_rejected(1, 2, RejectionReason::TieBreak);
        obs.truth_added(1, 2);
        obs.truth_shard_map_set(vec![(1, 2, 0)]);
        assert!(obs.truth_rejections().is_empty());
        assert!(obs.truth_shard_map().is_none());
        assert!(obs.finish().quality.is_none());

        let obs = Collector::enabled().with_truth(TruthConfig {
            record_pairs: vec![(1, 2), (3, 4)],
            group_pairs: vec![(10, 20)],
        });
        assert!(obs.truth_enabled());
        assert_eq!(obs.truth_config().unwrap().record_pairs.len(), 2);
        obs.truth_rejected(10, 20, RejectionReason::LowerGSim);
        assert_eq!(obs.truth_rejections().len(), 1);
        // first shard map wins
        obs.truth_shard_map_set(vec![(1, 2, 3)]);
        obs.truth_shard_map_set(vec![(1, 2, 7)]);
        assert_eq!(obs.truth_shard_map().unwrap(), vec![(1, 2, 3)]);
        // only true pairs count towards the coverage gauge
        obs.truth_added(9, 9);
        obs.truth_added(1, 2);
        // no quality section unless the pipeline finalised one
        assert!(obs.finish().quality.is_none());
        let section = QualitySection {
            records: QualityCounts::from_counts(1, 2, 1),
            groups: QualityCounts::from_counts(1, 1, 1),
            funnel: RecallFunnel {
                total: 2,
                recovered_selection: 1,
                recovered_remainder: 0,
                missing_endpoint: 0,
                not_blocked: 1,
                age_filtered: 0,
                below_delta: 0,
                lost_selection: 0,
                lost_remainder: 0,
                delta_floor: 0.5,
                blocking: BlockingMisses::default(),
                selection: SelectionLosses::default(),
            },
            per_iteration: vec![IterationQuality {
                iteration: 0,
                delta: 0.7,
                recovered: 1,
            }],
            per_shard: Vec::new(),
            bands: vec![
                SimBand {
                    lo_bp: 3000,
                    hi_bp: 3500,
                    truth_pairs: 1,
                    recovered: 0,
                },
                SimBand {
                    lo_bp: 9000,
                    hi_bp: 9500,
                    truth_pairs: 1,
                    recovered: 1,
                },
            ],
        };
        obs.set_quality(section.clone());
        let trace = obs.finish();
        assert_eq!(trace.quality.as_ref(), Some(&section));
        trace.validate_basic().unwrap();
        let json = serde_json::to_string(&trace).unwrap();
        let back: RunTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.quality, trace.quality);

        // a disabled collector never tracks truth, even when asked
        let off = Collector::disabled().with_truth(TruthConfig::default());
        assert!(!off.truth_enabled());
    }

    #[test]
    fn sink_records_labelled_traces_only_when_enabled() {
        let mut sink = TraceSink::disabled();
        let obs = sink.collector();
        assert!(!obs.is_enabled());
        sink.record("run-1", &obs);
        assert!(sink.traces.is_empty());

        let mut sink = TraceSink::enabled();
        let obs = sink.collector();
        {
            let _s = obs.span("prematch");
        }
        sink.record("run-1", &obs);
        let multi = sink.into_multi();
        assert_eq!(multi.runs.len(), 1);
        assert_eq!(multi.runs[0].label, "run-1");
    }

    #[test]
    fn empty_multi_trace_validates_and_serialises() {
        let multi = TraceSink::enabled().into_multi();
        assert!(multi.runs.is_empty());
        multi.validate().unwrap();
        assert!(multi.run("anything").is_none());
        let json = serde_json::to_string(&multi).unwrap();
        let back: MultiTrace = serde_json::from_str(&json).unwrap();
        assert!(back.runs.is_empty());
    }

    #[test]
    fn duplicate_labels_are_kept_and_lookup_returns_the_first() {
        let mut sink = TraceSink::enabled();
        let first = sink.collector();
        first.add(Counter::RecordLinks, 1);
        sink.record("pair", &first);
        let second = sink.collector();
        second.add(Counter::RecordLinks, 2);
        sink.record("pair", &second);
        let multi = sink.into_multi();
        assert_eq!(multi.runs.len(), 2);
        multi.validate().unwrap();
        assert_eq!(multi.run("pair").unwrap().counter("record_links"), 1);
    }

    #[test]
    fn first_sharded_pass_keeps_its_shard_rows() {
        let obs = Collector::enabled();
        let stat = |shard, pairs| ShardStat {
            shard,
            keys: 1,
            pairs,
            matched: 0,
            sim_table_bytes: 0,
            sim_table_cells: 0,
            duration_us: 1,
        };
        // a second pass over the same plan reports the same shard ids
        for pairs in [10, 3] {
            obs.shard_stat(stat(1, pairs));
            obs.shard_stat(stat(0, pairs));
        }
        let trace = obs.finish();
        trace.validate_basic().unwrap();
        let rows: Vec<_> = trace.shards.iter().map(|s| (s.shard, s.pairs)).collect();
        assert_eq!(rows, [(0, 10), (1, 10)]);
    }

    #[test]
    fn into_multi_on_disabled_sink_is_empty() {
        let mut sink = TraceSink::disabled();
        let obs = sink.collector();
        sink.record("dropped", &obs);
        let multi = sink.into_multi();
        assert!(multi.runs.is_empty());
        multi.validate().unwrap();
    }
}
