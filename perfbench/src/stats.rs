//! Metric derivations: medians, pooled linkage quality and call
//! accounting. Pure functions, so the self-tests can pin them down.

use census_model::{GroupMapping, RecordMapping};
use obs::{Quality, QualityCounts};

/// Median of a sample (mean of the two middle values for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN value.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Found/truth/correct counts of a record mapping against its truth,
/// counted the way `census_eval::evaluate_record_mapping` counts them.
#[must_use]
pub fn record_counts(found: &RecordMapping, truth: &RecordMapping) -> QualityCounts {
    let correct = found.iter().filter(|&(o, n)| truth.contains(o, n)).count();
    QualityCounts::from_counts(found.len() as u64, truth.len() as u64, correct as u64)
}

/// Found/truth/correct counts of a group mapping against its truth,
/// counted the way `census_eval::evaluate_group_mapping` counts them.
#[must_use]
pub fn group_counts(found: &GroupMapping, truth: &GroupMapping) -> QualityCounts {
    let correct = found.iter().filter(|&(o, n)| truth.contains(o, n)).count();
    QualityCounts::from_counts(found.len() as u64, truth.len() as u64, correct as u64)
}

/// Quality pooled over several snapshot pairs: the counts are summed and
/// the triple derived once, so a large pair weighs more than a small one.
#[must_use]
pub fn pooled(per_pair: &[QualityCounts]) -> Quality {
    let sum = |f: fn(&QualityCounts) -> u64| per_pair.iter().map(f).sum::<u64>() as usize;
    Quality::from_counts(sum(|c| c.found), sum(|c| c.truth), sum(|c| c.correct))
}

/// Calls into the program made by one benchmark invocation. A call fails
/// if it panics or its output fails a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that panicked or failed an output check.
    pub failed: u64,
}

impl Calls {
    /// `failed / attempted` (0 before any call).
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 − failed_share`: the end-to-end form of the failure count,
    /// which is 1 on a clean run rather than 0.
    #[must_use]
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed_share()
    }
}

/// Relative change of `value` over `base`, in percent.
#[must_use]
pub fn overhead_pct(value: f64, base: f64) -> f64 {
    (value - base) / base * 100.0
}

/// Median over rounds of the overhead of `values[i]` over `bases[i]`.
/// Each pair was measured back to back, so pairing cancels the host's
/// slower drift, which a difference of two medians would keep.
#[must_use]
pub fn paired_overhead_pct(values: &[f64], bases: &[f64]) -> f64 {
    let per_round: Vec<f64> = values
        .iter()
        .zip(bases)
        .map(|(&v, &b)| overhead_pct(v, b))
        .collect();
    median(&per_round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use census_eval::{evaluate_group_mapping, evaluate_record_mapping};
    use census_model::{HouseholdId, RecordId};

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    fn records(pairs: &[(u64, u64)]) -> RecordMapping {
        pairs
            .iter()
            .map(|&(o, n)| (RecordId(o), RecordId(n)))
            .collect()
    }

    #[test]
    fn pooled_quality_sums_counts_not_scores() {
        // pair A: 9 of 10 found links correct, 10 true; pair B: 1 of 2
        // correct, 4 true. Pooled: 10 correct of 12 found, 14 true.
        let pooled_q = pooled(&[
            QualityCounts::from_counts(10, 10, 9),
            QualityCounts::from_counts(2, 4, 1),
        ]);
        let (p, r) = (10.0 / 12.0, 10.0 / 14.0);
        assert!((pooled_q.precision - p).abs() < 1e-12);
        assert!((pooled_q.recall - r).abs() < 1e-12);
        assert!((pooled_q.f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
        // the mean of the per-pair F1 values would differ
        let mean_f1 = (0.9 + 2.0 * 0.5 * 0.25 / 0.75) / 2.0;
        assert!((pooled_q.f1 - mean_f1).abs() > 0.1);
    }

    #[test]
    fn pooled_quality_of_one_pair_is_census_eval_quality() {
        let truth = records(&[(1, 11), (2, 12), (3, 13), (4, 14)]);
        let found = records(&[(1, 11), (2, 12), (3, 99)]);
        let c = record_counts(&found, &truth);
        assert_eq!((c.found, c.truth, c.correct), (3, 4, 2));
        assert_eq!(pooled(&[c]), evaluate_record_mapping(&found, &truth));
        let empty = RecordMapping::new();
        assert_eq!(
            pooled(&[record_counts(&empty, &truth)]),
            evaluate_record_mapping(&empty, &truth)
        );

        let truth: GroupMapping = [
            (HouseholdId(1), HouseholdId(2)),
            (HouseholdId(3), HouseholdId(4)),
        ]
        .into_iter()
        .collect();
        let found: GroupMapping = [
            (HouseholdId(1), HouseholdId(2)),
            (HouseholdId(5), HouseholdId(6)),
        ]
        .into_iter()
        .collect();
        let q = evaluate_group_mapping(&found, &truth);
        assert_eq!(pooled(&[group_counts(&found, &truth)]), q);
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        let clean = Calls {
            attempted: 40,
            failed: 0,
        };
        assert_eq!(clean.failed_share(), 0.0);
        assert_eq!(clean.ok_share(), 1.0);
        let some = Calls {
            attempted: 40,
            failed: 10,
        };
        assert_eq!(some.failed_share(), 0.25);
        assert_eq!(some.ok_share(), 0.75);
        assert_eq!(Calls::default().failed_share(), 0.0);
    }

    #[test]
    fn overhead_is_relative_to_the_base() {
        assert_eq!(overhead_pct(1.1, 1.0).round(), 10.0);
        assert!(overhead_pct(0.9, 1.0) < 0.0);
    }

    #[test]
    fn paired_overhead_follows_each_round_not_the_medians() {
        // the host slows down over the rounds; each round's value costs
        // 10% over its own base
        let bases = [1.0, 2.0, 3.0];
        let values = [1.1, 2.2, 3.3];
        assert!((paired_overhead_pct(&values, &bases) - 10.0).abs() < 1e-9);
    }
}
