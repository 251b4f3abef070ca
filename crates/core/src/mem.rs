//! Budget-aware memory governance: degrade caches instead of results.
//!
//! [`MemGovernor`] turns [`crate::LinkageConfig::memory_budget`] into
//! concrete sizing decisions for the pipeline's memory-hungry
//! structures. Every decision degrades a *cache*, never the algorithm:
//! each structure it can refuse has a compute-everything fallback that
//! is bit-identical in output (a pair-score cache at any threshold ≤ δ
//! reproduces a fresh scoring pass exactly, and the decision log only
//! records provenance), so linkage results are the same under any
//! budget — the differential test `tests/mem_budget.rs` holds the
//! pipeline to that.
//!
//! # Budget shares
//!
//! The budget is split into fixed shares rather than tracked as one
//! pool, so each decision is local and deterministic:
//!
//! | structure            | share  | fallback                          |
//! |----------------------|--------|-----------------------------------|
//! | pair-score cache     | 50%    | a cache at δ, gated per residue   |
//! | decision log         | 12.5%  | earlier record-cap truncation     |
//!
//! The remaining 37.5% is not governed. It covers the structures with
//! no compute-everything fallback: the enriched graphs and their
//! position index, the residue, each iteration's dense pre-matching
//! (12 bytes a match pair plus 12 a record) and the result itself —
//! and the transients of pair scoring, which are not small. Before the
//! scoring tiles were bounded, the batch kernel's tile scratch was the
//! largest transient of a paper-scale run (~85 MiB per worker); it is
//! now bounded by `BATCH_TILE_PAIRS` per worker (~6 MiB), next to the
//! kernel's output (16 bytes a match), the blocked pairs (8 bytes a
//! pair) while the cache is assembled, and the kernel's value arenas
//! (linear in the distinct compiled values). Every one of these is
//! snapshotted as a footprint, so a traced run shows what the share had
//! to hold.
//! When the counting allocator is tracking (see `obs::alloc`), shares
//! are computed against the *remaining* budget (`budget − live bytes`)
//! so a run that already sits near its budget degrades earlier.

use obs::DecisionConfig;

/// Sizing decisions for the pipeline's caches under an optional memory
/// budget. `None` budget means every structure gets its default cap.
#[derive(Debug, Clone, Copy)]
pub struct MemGovernor {
    budget: Option<u64>,
}

impl MemGovernor {
    /// Bytes of one pair-score cache entry: a `u32` new position and an
    /// `f64` score in the cache's compressed rows (the per-record row
    /// offsets are not counted — they are linear in the records, not the
    /// pairs the gate is about).
    pub const PAIR_ENTRY_BYTES: u64 = 12;

    /// Estimated bytes of one decision record, including its losers and
    /// record-link vectors (generous: records are bounded by `top_k`).
    const DECISION_RECORD_BYTES: u64 = 256;

    /// A governor for the given budget (`None` = unlimited).
    #[must_use]
    pub fn new(budget: Option<u64>) -> Self {
        Self { budget }
    }

    /// A governor that never degrades anything.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::new(None)
    }

    /// The configured budget, if any.
    #[must_use]
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The budget still available: the configured budget minus the
    /// live bytes of the counting allocator when it is tracking, the
    /// plain budget otherwise (live bytes read 0 when tracking is off).
    fn remaining(&self) -> Option<u64> {
        let b = self.budget?;
        Some(b.saturating_sub(obs::alloc::live_bytes()))
    }

    /// Whether a pair-score cache over `candidate_pairs` blocked pairs
    /// fits the 50% share. The blocked-pair count bounds the cached
    /// entry count from above (only pairs reaching the schedule floor
    /// are kept), so this is conservative: a refused cache would maybe
    /// have fit, an allowed one always does.
    #[must_use]
    pub fn allow_pair_cache(&self, candidate_pairs: usize) -> bool {
        match self.remaining() {
            None => true,
            Some(b) => (candidate_pairs as u64).saturating_mul(Self::PAIR_ENTRY_BYTES) <= b / 2,
        }
    }

    /// Tighten a decision-log configuration to the 12.5% share.
    /// Returns the (possibly tightened) config and whether any cap was
    /// lowered — the caller records the fallback when it was.
    #[must_use]
    pub fn decision_caps(&self, base: DecisionConfig) -> (DecisionConfig, bool) {
        let Some(b) = self.remaining() else {
            return (base, false);
        };
        let max = usize::try_from((b / 8) / Self::DECISION_RECORD_BYTES).unwrap_or(usize::MAX);
        let mut cfg = base;
        let mut tightened = false;
        if cfg.max_links > max {
            cfg.max_links = max;
            tightened = true;
        }
        if cfg.max_rejections > max {
            cfg.max_rejections = max;
            tightened = true;
        }
        (cfg, tightened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_degrades() {
        let g = MemGovernor::unlimited();
        assert!(g.allow_pair_cache(usize::MAX));
        let (cfg, tightened) = g.decision_caps(DecisionConfig::default());
        assert_eq!(cfg, DecisionConfig::default());
        assert!(!tightened);
    }

    #[test]
    fn shares_split_the_budget() {
        // 1 MiB budget: 512 KiB pair cache, 128 KiB log
        let g = MemGovernor::new(Some(1 << 20));
        // 50% share / 12 bytes per entry
        assert!(g.allow_pair_cache((1 << 19) / 12));
        assert!(!g.allow_pair_cache((1 << 19) / 12 + 1));
        let (cfg, tightened) = g.decision_caps(DecisionConfig::default());
        assert!(tightened);
        assert_eq!(cfg.max_links, (1 << 17) / 256);
        assert_eq!(cfg.max_rejections, cfg.max_links);
        assert_eq!(cfg.top_k, DecisionConfig::default().top_k);
    }

    #[test]
    fn zero_budget_refuses_everything() {
        let g = MemGovernor::new(Some(0));
        assert!(!g.allow_pair_cache(1));
        assert!(g.allow_pair_cache(0)); // an empty cache always fits
        let (cfg, tightened) = g.decision_caps(DecisionConfig::default());
        assert!(tightened);
        assert_eq!(cfg.max_links, 0);
    }

    #[test]
    fn loose_decision_caps_stay_untouched() {
        let g = MemGovernor::new(Some(1 << 30));
        let base = DecisionConfig {
            max_links: 100,
            max_rejections: 100,
            top_k: 3,
        };
        let (cfg, tightened) = g.decision_caps(base);
        assert_eq!(cfg, base);
        assert!(!tightened);
    }
}
