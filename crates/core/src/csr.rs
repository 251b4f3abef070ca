//! Scored record pairs as compressed sparse rows.
//!
//! The pair-score cache and the pre-matching result both hold sets of
//! scored `(old, new)` pairs over record positions. [`MatchCsr`] stores
//! them keyed by the old position: one `u32` row offset per old record,
//! then a `u32` new position and an `f64` score per pair — 12 bytes a
//! pair, against 24 for an `(id, id, score)` triple and roughly twice
//! that for a hash map entry. Rows are sorted by new position, so a pair
//! lookup is a binary search within one (short) row.

use obs::Footprint;

/// Scored pairs keyed by old position; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct MatchCsr {
    /// `row_start[p]..row_start[p + 1]` is row `p`'s slice of `new_pos`
    /// and `sim`; `n_rows + 1` entries (empty for the default value).
    row_start: Vec<u32>,
    new_pos: Vec<u32>,
    sim: Vec<f64>,
}

impl MatchCsr {
    /// Assemble `n_rows` rows in one linear pass from pairs sorted by
    /// `(old, new)`. The pairs are counted first so every vector is
    /// allocated at its exact size.
    pub(crate) fn from_sorted<I>(n_rows: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        let n = pairs.clone().count();
        assert!(
            u32::try_from(n).is_ok(),
            "{n} pairs overflow u32 row offsets"
        );
        let mut row_start = Vec::with_capacity(n_rows + 1);
        let mut new_pos = Vec::with_capacity(n);
        let mut sim = Vec::with_capacity(n);
        row_start.push(0);
        let mut last: Option<(u32, u32)> = None;
        for (p, q, s) in pairs {
            debug_assert!((p as usize) < n_rows, "row {p} out of {n_rows}");
            debug_assert!(last < Some((p, q)), "pairs must be sorted and unique");
            last = Some((p, q));
            // rows after the current one up to `p` start here (the ones
            // before `p` are empty)
            while row_start.len() <= p as usize {
                row_start.push(new_pos.len() as u32);
            }
            new_pos.push(q);
            sim.push(s);
        }
        row_start.resize(n_rows + 1, new_pos.len() as u32);
        Self {
            row_start,
            new_pos,
            sim,
        }
    }

    /// Number of rows (old positions).
    pub(crate) fn rows(&self) -> usize {
        self.row_start.len().saturating_sub(1)
    }

    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.new_pos.len()
    }

    /// Row `p`: its new positions (ascending) and their scores. Empty
    /// for a row past the end.
    pub(crate) fn row(&self, p: usize) -> (&[u32], &[f64]) {
        if p >= self.rows() {
            return (&[], &[]);
        }
        let span = self.row_start[p] as usize..self.row_start[p + 1] as usize;
        (&self.new_pos[span.clone()], &self.sim[span])
    }

    /// The score of pair `(p, q)`, if it is present — a binary search
    /// within row `p`.
    pub(crate) fn get(&self, p: usize, q: u32) -> Option<f64> {
        let (qs, sims) = self.row(p);
        qs.binary_search(&q).ok().map(|k| sims[k])
    }

    /// Row `p`'s pairs as `(p, q, score)`.
    pub(crate) fn row_pairs(&self, p: usize) -> impl Iterator<Item = (u32, u32, f64)> + Clone + '_ {
        let (qs, sims) = self.row(p);
        qs.iter().zip(sims).map(move |(&q, &s)| (p as u32, q, s))
    }

    /// Every pair in `(old, new)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, f64)> + Clone + '_ {
        (0..self.rows()).flat_map(move |p| self.row_pairs(p))
    }

    /// Heap bytes of the three vectors; elements = pairs.
    pub(crate) fn footprint(&self) -> Footprint {
        let bytes = obs::footprint::vec_capacity_bytes(&self.row_start)
            + obs::footprint::vec_capacity_bytes(&self.new_pos)
            + obs::footprint::vec_capacity_bytes(&self.sim);
        Footprint::new(bytes, self.len() as u64)
    }
}

/// Two `(old, new, score)` streams, each sorted by `(old, new)` and
/// over disjoint old positions, merged into one sorted stream — the
/// δ-filtered match pairs of the unlinked records with the anchors of
/// the linked ones.
#[derive(Clone)]
pub(crate) struct MergeRows<A, B>
where
    A: Iterator<Item = (u32, u32, f64)>,
    B: Iterator<Item = (u32, u32, f64)>,
{
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<A, B> MergeRows<A, B>
where
    A: Iterator<Item = (u32, u32, f64)>,
    B: Iterator<Item = (u32, u32, f64)>,
{
    pub(crate) fn new(a: A, b: B) -> Self {
        Self {
            a: a.peekable(),
            b: b.peekable(),
        }
    }
}

impl<A, B> Iterator for MergeRows<A, B>
where
    A: Iterator<Item = (u32, u32, f64)>,
    B: Iterator<Item = (u32, u32, f64)>,
{
    type Item = (u32, u32, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) if (y.0, y.1) < (x.0, x.1) => self.b.next(),
            (Some(_), _) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_with_empty_rows_between() {
        let pairs = [(0, 3, 0.9), (0, 7, 0.8), (2, 1, 0.7), (4, 0, 0.6)];
        let csr = MatchCsr::from_sorted(6, pairs);
        assert_eq!(csr.rows(), 6);
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(csr.row(1).0, &[] as &[u32]);
        assert_eq!(csr.row(5).0, &[] as &[u32]);
        assert_eq!(csr.row(0).0, &[3, 7]);
        assert_eq!(csr.get(0, 7), Some(0.8));
        assert_eq!(csr.get(0, 4), None);
        assert_eq!(csr.get(4, 0), Some(0.6));
        // rows past the end are empty, not a panic
        assert_eq!(csr.get(9, 0), None);
        assert_eq!(MatchCsr::default().get(0, 0), None);
    }

    #[test]
    fn merge_interleaves_sorted_streams() {
        let a = [(0, 1, 0.9), (2, 0, 0.8), (2, 5, 0.7)];
        let b = [(1, 3, 1.0), (3, 2, 1.0)];
        let merged: Vec<_> = MergeRows::new(a.into_iter(), b.into_iter()).collect();
        assert_eq!(
            merged,
            [
                (0, 1, 0.9),
                (1, 3, 1.0),
                (2, 0, 0.8),
                (2, 5, 0.7),
                (3, 2, 1.0)
            ]
        );
    }

    #[test]
    fn footprint_is_twelve_bytes_a_pair_plus_row_offsets() {
        let pairs: Vec<(u32, u32, f64)> = (0..100).map(|k| (k / 10, k % 10, 0.5)).collect();
        let csr = MatchCsr::from_sorted(10, pairs.iter().copied());
        let fp = csr.footprint();
        assert_eq!(fp.elements, 100);
        assert_eq!(fp.bytes, 100 * 12 + 11 * 4);
    }
}
