//! Configuration of the full linkage pipeline (the inputs of Algorithm 1).

use crate::blocking::BlockingStrategy;
use crate::group_sim::SelectionWeights;
use crate::simfunc::SimFunc;
use hhgraph::SubgraphConfig;

/// Configuration of the final attribute-only pass over records left
/// unmatched by the iterative subgraph phase (`Sim_func_rem`, line 17 of
/// Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RemainderConfig {
    /// Similarity function and threshold for remaining records. The paper
    /// leaves it open; a high-threshold ω2 is a conservative default.
    pub sim_func: SimFunc,
    /// Maximum allowed deviation (years) between the expected age
    /// (old age + census gap) and the recorded new age. Pairs beyond it
    /// are rejected — the same filter the paper applies to its collective
    /// baseline (§5.3).
    pub max_age_gap: u32,
    /// Disable to stop after the subgraph phase (for ablations).
    pub enabled: bool,
    /// Require each accepted pair to be the *mutual best* candidate with
    /// this similarity margin over the runner-up on both sides. Remaining
    /// records have no graph support, so ambiguity (a second candidate
    /// almost as good) is the dominant error source; `0.0` disables.
    pub mutual_best_margin: f64,
}

impl Default for RemainderConfig {
    fn default() -> Self {
        Self {
            sim_func: SimFunc::omega2(0.78),
            max_age_gap: 3,
            enabled: true,
            mutual_best_margin: 0.05,
        }
    }
}

/// Worker-thread settings for the parallel scoring loops: how many
/// threads to fan out across, and below how many work items fan-out is
/// skipped because the spawn overhead would dominate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (≥ 1; 1 forces the sequential path).
    pub threads: usize,
    /// Minimum number of work items before threads are spawned. With
    /// fewer items the loop runs sequentially regardless of `threads`.
    pub cutoff: usize,
    /// Blocking-key shards for pair generation and scoring (≥ 1; 1 keeps
    /// the unsharded engine). Results are identical for any value — see
    /// `crate::shard`.
    pub shards: usize,
}

impl Parallelism {
    /// Whether `items` work items should run on the sequential path.
    #[must_use]
    pub fn is_serial(&self, items: usize) -> bool {
        self.threads <= 1 || items < self.cutoff
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self {
            threads: default_threads(),
            cutoff: DEFAULT_PARALLEL_CUTOFF,
            shards: 1,
        }
    }
}

/// Default [`LinkageConfig::parallel_cutoff`]: record-pair scoring fans
/// out above this many pairs; household-candidate scoring uses half of
/// it (household units carry more work per item).
pub const DEFAULT_PARALLEL_CUTOFF: usize = 4096;

/// Full configuration of the iterative record and group linkage.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkageConfig {
    /// Pre-matching similarity function; its threshold is overridden by
    /// the δ schedule below.
    pub sim_func: SimFunc,
    /// Starting (most restrictive) threshold `δ_high`.
    pub delta_high: f64,
    /// Final (least restrictive) threshold `δ_low`.
    pub delta_low: f64,
    /// Decrement Δ applied after each iteration.
    pub delta_step: f64,
    /// Weights (α, β) of the aggregated group similarity.
    pub weights: SelectionWeights,
    /// Minimum aggregated group similarity for a candidate group link to
    /// be accepted (extension over the paper's Algorithm 2; `0.0` restores
    /// the strict paper behaviour). Suppresses spurious single-member
    /// links between unrelated households that merely share a name.
    pub min_g_sim: f64,
    /// Age-plausibility tolerance for pre-matching pairs (paper footnote
    /// 2: pairs whose normalised age difference exceeds 3 years are never
    /// accepted); `None` disables the filter.
    pub prematch_max_age_gap: Option<u32>,
    /// Subgraph-matching parameters (age-difference tolerance etc.).
    pub subgraph: SubgraphConfig,
    /// Final pass over remaining records.
    pub remainder: RemainderConfig,
    /// Candidate generation strategy.
    pub blocking: BlockingStrategy,
    /// Worker threads for pair scoring.
    pub threads: usize,
    /// Minimum number of record pairs before pair scoring fans out
    /// across `threads` (the household-candidate scorer uses half this
    /// value, matching its heavier per-item work). Lower it to force
    /// parallelism on small inputs; raise it to keep small iterations
    /// sequential.
    pub parallel_cutoff: usize,
    /// Soft memory budget in bytes for the pipeline's caches (CLI
    /// `--mem-budget`). When set, a [`crate::MemGovernor`] degrades the
    /// similarity tables, the cross-iteration pair-score cache and the
    /// decision log to fit — every degradation falls back to
    /// recomputation, so linkage output is bit-identical under any
    /// budget. The pair-score cache is scored once at `δ_low` and
    /// filtered per δ step; a residue whose cache the budget refuses is
    /// scored at the current δ instead, and the next residue is judged
    /// afresh. `None` (the default) leaves every cache at its built-in
    /// cap.
    pub memory_budget: Option<u64>,
    /// Blocking-key shards for pair generation and scoring (CLI
    /// `--shards`): the candidate space is partitioned by blocking key
    /// into this many independently-scored shards, each with its own
    /// similarity tables. `0` picks a scale-aware count automatically
    /// (see [`LinkageConfig::resolved_shards`]); `1` (the default) keeps
    /// the unsharded engine. Linkage output is bit-identical for every
    /// value. Only `BlockingStrategy::Standard` has blocking keys to
    /// shard by; `Full` ignores this knob.
    pub shards: usize,
}

impl LinkageConfig {
    /// The paper's best configuration: ω2, δ from 0.7 down to 0.5 in
    /// steps of 0.05, (α, β) = (0.2, 0.7).
    #[must_use]
    pub fn paper_best() -> Self {
        Self::default()
    }

    /// The non-iterative baseline of Table 5: a single pass at
    /// `δ_high = δ_low = 0.5`.
    #[must_use]
    pub fn non_iterative() -> Self {
        Self {
            delta_high: 0.5,
            delta_low: 0.5,
            ..Self::default()
        }
    }

    /// Number of δ iterations this schedule will run
    /// (`δ_high, δ_high − Δ, … ≥ δ_low`).
    #[must_use]
    pub fn planned_iterations(&self) -> usize {
        if self.delta_step <= 0.0 {
            return 1;
        }
        let span = (self.delta_high - self.delta_low).max(0.0);
        (span / self.delta_step + 1.0 + 1e-9).floor() as usize
    }

    /// Validate the δ schedule and weights.
    ///
    /// # Panics
    ///
    /// Panics on inverted thresholds, a non-positive step with distinct
    /// bounds, or out-of-range values.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.delta_high) && (0.0..=1.0).contains(&self.delta_low),
            "thresholds must be in [0, 1]"
        );
        assert!(self.delta_high >= self.delta_low, "δ_high must be ≥ δ_low");
        assert!(
            self.delta_high == self.delta_low || self.delta_step > 0.0,
            "Δ must be positive for an iterative schedule"
        );
        assert!(self.threads >= 1, "need at least one worker thread");
    }

    /// The worker-thread settings for pair scoring, as one bundle. The
    /// shard count is carried through raw (`0` = auto) — the linkage
    /// driver resolves it once per run with
    /// [`LinkageConfig::resolved_shards`].
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        Parallelism {
            threads: self.threads.max(1),
            cutoff: self.parallel_cutoff,
            shards: self.shards.max(1),
        }
    }

    /// Resolve [`LinkageConfig::shards`] against the run's input size:
    /// `0` becomes a scale-aware automatic count — enough shards that
    /// each one's value universe stays small (so per-shard similarity
    /// tables fit their locality cap), never fewer than the thread count,
    /// capped at 64.
    #[must_use]
    pub fn resolved_shards(&self, total_records: usize) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        self.threads.max((total_records / 4096).min(64)).max(1)
    }
}

impl Default for LinkageConfig {
    fn default() -> Self {
        Self {
            sim_func: SimFunc::omega2(0.5),
            delta_high: 0.7,
            delta_low: 0.5,
            delta_step: 0.05,
            weights: SelectionWeights::paper_best(),
            min_g_sim: 0.2,
            prematch_max_age_gap: Some(3),
            subgraph: SubgraphConfig::default(),
            remainder: RemainderConfig::default(),
            blocking: BlockingStrategy::Standard,
            threads: default_threads(),
            parallel_cutoff: DEFAULT_PARALLEL_CUTOFF,
            memory_budget: None,
            shards: 1,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_best_schedule() {
        let c = LinkageConfig::paper_best();
        c.validate();
        assert_eq!(c.planned_iterations(), 5); // 0.7 0.65 0.6 0.55 0.5
        assert_eq!(c.weights, SelectionWeights::new(0.2, 0.7));
    }

    #[test]
    fn non_iterative_runs_once() {
        let c = LinkageConfig::non_iterative();
        c.validate();
        assert_eq!(c.planned_iterations(), 1);
    }

    #[test]
    fn planned_iterations_edge_cases() {
        let mut c = LinkageConfig {
            delta_high: 0.6,
            delta_low: 0.4,
            delta_step: 0.1,
            ..LinkageConfig::default()
        };
        assert_eq!(c.planned_iterations(), 3);
        c.delta_step = 0.0;
        assert_eq!(c.planned_iterations(), 1);
    }

    #[test]
    #[should_panic(expected = "δ_high must be ≥ δ_low")]
    fn inverted_thresholds_panic() {
        let c = LinkageConfig {
            delta_high: 0.4,
            delta_low: 0.6,
            ..LinkageConfig::default()
        };
        c.validate();
    }

    #[test]
    fn parallel_cutoff_gates_fanout() {
        let c = LinkageConfig::default();
        assert_eq!(c.parallel_cutoff, DEFAULT_PARALLEL_CUTOFF);
        let par = Parallelism {
            threads: 4,
            cutoff: 100,
            ..Parallelism::default()
        };
        assert!(par.is_serial(99));
        assert!(!par.is_serial(100));
        assert!(Parallelism {
            threads: 1,
            cutoff: 0,
            ..Parallelism::default()
        }
        .is_serial(1_000_000));
    }

    #[test]
    fn shards_resolve_scale_aware() {
        let c = LinkageConfig {
            threads: 2,
            shards: 0,
            ..LinkageConfig::default()
        };
        // tiny inputs: at least the thread count
        assert_eq!(c.resolved_shards(100), 2);
        // large inputs: one shard per ~4k records, capped at 64
        assert_eq!(c.resolved_shards(40_960), 10);
        assert_eq!(c.resolved_shards(10_000_000), 64);
        // explicit counts pass through untouched
        let c = LinkageConfig {
            shards: 7,
            ..LinkageConfig::default()
        };
        assert_eq!(c.resolved_shards(10_000_000), 7);
        assert_eq!(LinkageConfig::default().parallelism().shards, 1);
    }

    #[test]
    fn remainder_defaults_are_conservative() {
        let r = RemainderConfig::default();
        assert!(r.sim_func.threshold > 0.7);
        assert!(r.enabled);
        assert_eq!(r.max_age_gap, 3);
    }
}
