//! Mergeable top-k coefficient summaries for partitioned stream sets.
//!
//! A partitioned ingest tier (see `swat_tree::shard`) keeps one SWAT tree
//! per stream, spread across shards. Cross-stream queries of the form
//! "which coefficients are globally largest" must not ship every shard's
//! every coefficient; instead each shard builds a small [`TopKSummary`]
//! over the coefficients it owns, and summaries **merge**: the merge of
//! two shards' summaries is exactly the summary the union of their
//! coefficients would produce. This is the property Ganguly's
//! deterministic update-stream summaries call for — per-partition state
//! that combines without re-scanning — and with disjoint shards it makes
//! the distributed top-k one round: merging every shard's local top-k is
//! the global top-k. (Jestes–Yi–Li, arXiv:1110.6649, need a second,
//! refining round only because their coefficient is a sum of partial
//! coefficients from every split.)
//!
//! Every coefficient is identified by the stream that produced it and its
//! breadth-first index within that stream's root summary, so candidates
//! from different shards never collide (streams are disjoint across
//! shards) and ties break deterministically.
//!
//! A scan over many candidates tests them against the summary's
//! [`TopKSummary::floor`] — a whole row at a time with [`row_reaches`] —
//! and hands what passes to [`TopKSummary::absorb`] in batches: one
//! selection and sort per batch instead of one insertion per candidate.

use std::cmp::Ordering;
use std::fmt;

/// One candidate coefficient: where it came from and its value.
///
/// Ordering is by descending magnitude with deterministic tie-breaking on
/// `(stream, index)` ascending, so any two agents ranking the same
/// candidate set produce the same order bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopCoeff {
    /// Global id of the stream the coefficient belongs to.
    pub stream: u64,
    /// Breadth-first index of the coefficient within that stream's
    /// summary.
    pub index: u32,
    /// The coefficient value (ranked by `|value|`).
    pub value: f64,
}

impl TopCoeff {
    /// The ranking weight: coefficient magnitude.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.value.abs()
    }

    /// Rank order: larger magnitude first, then `(stream, index)`
    /// ascending. Strict and total over finite values with distinct
    /// identities (a weight is never `-0.0`, so `total_cmp` agrees with
    /// `==` on weights).
    fn rank(&self, other: &TopCoeff) -> Ordering {
        other
            .weight()
            .total_cmp(&self.weight())
            .then_with(|| (self.stream, self.index).cmp(&(other.stream, other.index)))
    }
}

impl fmt::Display for TopCoeff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}[{}]={}", self.stream, self.index, self.value)
    }
}

/// A bounded summary of the `k` largest-magnitude coefficients seen.
///
/// Inserting every coefficient of a partition and merging partitions'
/// summaries commute: `merge(S(A), S(B)) == S(A ∪ B)` as long as no
/// `(stream, index)` identity appears in both partitions (shards own
/// disjoint stream sets, so this holds by construction). The
/// `merge_matches_union` test pins the property.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKSummary {
    k: usize,
    /// Entries in rank order (largest magnitude first), at most `k`.
    entries: Vec<TopCoeff>,
}

impl TopKSummary {
    /// An empty summary retaining at most `k` entries. `k == 0` is legal
    /// and degenerate: the summary retains nothing and ignores every
    /// offer.
    pub fn new(k: usize) -> Self {
        TopKSummary {
            k,
            entries: Vec::new(),
        }
    }

    /// The retention bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Entries currently retained, in rank order.
    pub fn entries(&self) -> &[TopCoeff] {
        &self.entries
    }

    /// Number of entries retained (`<= k`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficient has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight a candidate needs to have any chance of ranking: the
    /// `k`-th entry's once the summary is full, `0` before, `+∞` at
    /// `k == 0`. A candidate strictly below it ranks after all `k`
    /// entries, so [`Self::offer`] and [`Self::absorb`] would drop it;
    /// one at or above it may rank (a tie breaks on identity).
    pub fn floor(&self) -> f64 {
        match self.k {
            0 => f64::INFINITY,
            k if self.entries.len() < k => 0.0,
            k => self.entries[k - 1].weight(),
        }
    }

    /// Offer one coefficient. Non-finite values are ignored (they carry
    /// no rankable magnitude); everything else is inserted in rank order
    /// and the summary re-truncated to `k`. Each admitted offer moves up
    /// to `k` entries: a scan over many candidates batches them through
    /// [`Self::absorb`] instead.
    pub fn offer(&mut self, c: TopCoeff) {
        if !c.value.is_finite() {
            return;
        }
        let pos = self.entries.partition_point(|e| e.rank(&c).is_lt());
        if pos >= self.k {
            return;
        }
        self.entries.insert(pos, c);
        self.entries.truncate(self.k);
    }

    /// Offer a whole batch, leaving `batch` empty (its capacity kept for
    /// the next one): non-finite values are dropped, and the best `k` of
    /// the batch and the retained entries are selected and sorted —
    /// O(k + m + k log k) for `m` candidates, where one offer each costs
    /// O(m · k). The result is the one offering each candidate gives:
    /// rank is a strict total order over distinct identities, so the top
    /// `k` do not depend on the order or the batches candidates arrive
    /// in.
    pub fn absorb(&mut self, batch: &mut Vec<TopCoeff>) {
        batch.retain(|c| c.value.is_finite());
        self.entries.append(batch);
        self.rank_and_truncate();
    }

    /// Merge another summary in. The result ranks the union of both
    /// entry sets; with disjoint coefficient identities this equals the
    /// summary of the union of the original coefficient populations
    /// truncated to `min(self.k, other.k)` retained entries' worth of
    /// certainty — callers merging summaries of equal `k` get the exact
    /// union-of-top-k semantics the distributed algorithm needs. One
    /// selection and sort, as [`Self::absorb`].
    pub fn merge(&mut self, other: &TopKSummary) {
        self.entries.extend_from_slice(&other.entries);
        self.rank_and_truncate();
    }

    /// Keep the `k` best entries, in rank order: a selection, then a
    /// sort of the `k` kept.
    fn rank_and_truncate(&mut self) {
        if self.entries.len() > self.k {
            if let Some(last) = self.k.checked_sub(1) {
                self.entries.select_nth_unstable_by(last, TopCoeff::rank);
            }
            self.entries.truncate(self.k);
        }
        self.entries.sort_unstable_by(TopCoeff::rank);
    }
}

/// Whether any value in `row` has magnitude at or above `floor` (a
/// [`TopKSummary::floor`]): when none does, a scan skips the whole row,
/// since none of its values can rank. One pass with no branch per value,
/// which the optimizer vectorizes; NaN never reaches a floor.
pub fn row_reaches<const W: usize>(row: &[f64; W], floor: f64) -> bool {
    row.iter().fold(false, |any, v| any | (v.abs() >= floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(stream: u64, index: u32, value: f64) -> TopCoeff {
        TopCoeff {
            stream,
            index,
            value,
        }
    }

    /// Brute-force oracle: rank all candidates, keep k.
    fn oracle(mut all: Vec<TopCoeff>, k: usize) -> Vec<TopCoeff> {
        all.sort_by(|a, b| {
            b.weight()
                .partial_cmp(&a.weight())
                .unwrap()
                .then_with(|| (a.stream, a.index).cmp(&(b.stream, b.index)))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn retains_largest_magnitudes() {
        let mut s = TopKSummary::new(3);
        for (i, v) in [1.0, -5.0, 2.0, 0.5, -3.0].into_iter().enumerate() {
            s.offer(c(0, i as u32, v));
        }
        let weights: Vec<f64> = s.entries().iter().map(TopCoeff::weight).collect();
        assert_eq!(weights, vec![5.0, 3.0, 2.0]);
    }

    #[test]
    fn ties_break_on_stream_then_index() {
        let mut s = TopKSummary::new(2);
        s.offer(c(7, 1, 2.0));
        s.offer(c(3, 9, -2.0));
        s.offer(c(3, 2, 2.0));
        assert_eq!(s.entries()[0], c(3, 2, 2.0));
        assert_eq!(s.entries()[1], c(3, 9, -2.0));
    }

    #[test]
    fn non_finite_offers_are_ignored() {
        let mut s = TopKSummary::new(2);
        s.offer(c(0, 0, f64::NAN));
        s.offer(c(0, 1, f64::INFINITY));
        assert!(s.is_empty());
        s.offer(c(0, 2, 1.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_matches_union() {
        // Deterministic pseudo-random populations split across "shards":
        // merging per-shard summaries equals summarizing the union.
        for k in [1usize, 3, 8] {
            let all: Vec<TopCoeff> = (0..60)
                .map(|i| c(i % 7, i as u32, (((i * 37 + 11) % 23) as f64) - 11.0))
                .collect();
            let mut merged = TopKSummary::new(k);
            for shard in all.chunks(13) {
                let mut local = TopKSummary::new(k);
                for &e in shard {
                    local.offer(e);
                }
                merged.merge(&local);
            }
            let mut direct = TopKSummary::new(k);
            for &e in &all {
                direct.offer(e);
            }
            assert_eq!(merged, direct, "k={k}");
            assert_eq!(merged.entries(), &oracle(all, k)[..], "k={k} vs oracle");
        }
    }

    #[test]
    fn merge_is_order_insensitive() {
        let pop: Vec<TopCoeff> = (0..24)
            .map(|i| c(i, i as u32, ((i * 13 % 17) as f64) - 8.0))
            .collect();
        let halves: Vec<TopKSummary> = pop
            .chunks(8)
            .map(|chunk| {
                let mut s = TopKSummary::new(5);
                for &e in chunk {
                    s.offer(e);
                }
                s
            })
            .collect();
        let mut ab = halves[0].clone();
        ab.merge(&halves[1]);
        ab.merge(&halves[2]);
        let mut ba = halves[2].clone();
        ba.merge(&halves[0]);
        ba.merge(&halves[1]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn zero_k_is_legal_and_inert() {
        let mut s = TopKSummary::new(0);
        assert_eq!(s.k(), 0);
        assert!(s.is_empty());
        s.offer(c(0, 0, 42.0));
        assert!(s.is_empty(), "a top-0 summary retains nothing");

        // Merging in either direction neither panics nor leaks entries
        // into the zero-capacity side.
        let mut full = TopKSummary::new(3);
        full.offer(c(1, 0, 5.0));
        full.offer(c(1, 1, -2.0));
        let mut zero = TopKSummary::new(0);
        zero.merge(&full);
        assert!(zero.is_empty());
        let before = full.clone();
        full.merge(&zero);
        assert_eq!(full, before, "merging an empty top-0 is a no-op");
    }

    #[test]
    fn merging_with_empty_summary_is_identity() {
        let mut s = TopKSummary::new(4);
        for (i, v) in [3.0, -7.0, 1.0].into_iter().enumerate() {
            s.offer(c(0, i as u32, v));
        }
        let before = s.clone();
        let empty = TopKSummary::new(4);
        s.merge(&empty);
        assert_eq!(s, before, "empty right operand");

        let mut fresh = TopKSummary::new(4);
        fresh.merge(&before);
        assert_eq!(fresh, before, "empty left operand absorbs the other");
    }

    #[test]
    fn k_larger_than_population_keeps_everything() {
        // k far above the candidate count: the summary is just a ranked
        // copy of the population.
        let all: Vec<TopCoeff> = (0..5).map(|i| c(i, i as u32, (i as f64) - 2.0)).collect();
        let mut merged = TopKSummary::new(100);
        for shard in all.chunks(2) {
            let mut local = TopKSummary::new(100);
            for &e in shard {
                local.offer(e);
            }
            merged.merge(&local);
        }
        assert_eq!(merged.len(), all.len());
        assert_eq!(merged.entries(), &oracle(all, 100)[..]);
    }

    #[test]
    fn the_floor_is_the_kth_weight_once_full() {
        assert_eq!(TopKSummary::new(0).floor(), f64::INFINITY);
        let mut s = TopKSummary::new(2);
        assert_eq!(s.floor(), 0.0);
        s.offer(c(0, 0, -4.0));
        assert_eq!(s.floor(), 0.0, "not full yet");
        s.offer(c(0, 1, 1.5));
        assert_eq!(s.floor(), 1.5);
        s.offer(c(0, 2, -2.5));
        assert_eq!(s.floor(), 2.5);
        // At the floor a candidate can still rank: ties break on identity.
        s.offer(c(0, 0, 2.5));
        assert_eq!(s.entries()[1], c(0, 0, 2.5));
    }

    #[test]
    fn absorbing_batches_equals_offering_one_at_a_time() {
        // Tie-heavy weights, -0.0, infinities and NaN, in every batch
        // size and from both ends of the population.
        let special = [-0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let pop: Vec<TopCoeff> = (0..97u32)
            .map(|i| {
                let v = match i % 11 {
                    0..=3 => special[(i % 11) as usize],
                    _ => ((i * 29 + 5) % 13) as f64 / 2.0 - 3.0,
                };
                c(u64::from(i % 9), i, v)
            })
            .collect();
        let reversed: Vec<TopCoeff> = pop.iter().rev().copied().collect();
        for k in [0usize, 1, 2, 7, 40, 96, 97, 200] {
            let mut offered = TopKSummary::new(k);
            for &e in &pop {
                offered.offer(e);
            }
            let finite: Vec<TopCoeff> = pop
                .iter()
                .copied()
                .filter(|e| e.value.is_finite())
                .collect();
            assert_eq!(offered.entries(), &oracle(finite, k)[..], "k={k}");
            for order in [&pop, &reversed] {
                for size in [1, 3, 16, 64, 97] {
                    let mut absorbed = TopKSummary::new(k);
                    let mut batch = Vec::new();
                    for chunk in order.chunks(size) {
                        batch.extend_from_slice(chunk);
                        absorbed.absorb(&mut batch);
                        assert!(batch.is_empty());
                    }
                    assert_eq!(absorbed, offered, "k={k} batch={size}");
                }
            }
        }
    }

    #[test]
    fn a_row_reaches_the_floor_when_any_lane_does() {
        let floors = [0.0, 1.0, 2.5, f64::INFINITY];
        let values = [0.0, -0.0, 1.0, -2.5, 2.5, 3.0, f64::NEG_INFINITY, f64::NAN];
        for floor in floors {
            // Each value alone in each lane of a row of zeros, then rows
            // mixing every value at every offset.
            for w in 0..16 {
                for v in values {
                    let mut row = [0.0; 16];
                    row[w] = v;
                    let want = row.iter().any(|x| x.abs() >= floor);
                    assert_eq!(row_reaches(&row, floor), want, "floor={floor} w={w} v={v}");
                }
            }
            for shift in 0..16 {
                let row: [f64; 16] =
                    std::array::from_fn(|w| values[(w + shift) % 5 + 3 * (shift % 2)]);
                let want = row.iter().any(|x| x.abs() >= floor);
                assert_eq!(
                    row_reaches(&row, floor),
                    want,
                    "floor={floor} shift={shift}"
                );
            }
        }
        assert!(!row_reaches(&[f64::NAN; 16], 0.0), "NaN never reaches");
        assert!(row_reaches(&[-0.0; 16], 0.0), "-0.0 reaches a floor of 0");
        assert!(!row_reaches(&[0.0; 0], 0.0), "an empty row reaches nothing");
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", c(3, 1, -2.5));
        assert!(s.contains('3') && s.contains("-2.5"));
    }
}
