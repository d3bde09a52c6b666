//! Tree node contents.
//!
//! A SWAT node's content is a *summary*: the truncated wavelet coefficients
//! of one dyadic block of the stream, the exact `[min, max]` range of that
//! block, and the arrival count at which the block ended (its creation
//! time). A summary never changes while it is retained — the paper's
//! `R -> S -> L` shifting never recomputes one, it only keeps the last
//! three generations per level — so a level in this implementation is
//! three slots whose order lives in the block header, and the "shift" is
//! one step of that order: the slot of the generation that falls off the
//! end becomes the one the fresh summary is written into
//! (`Block::refresh` in `block.rs`), in the lanes it already has.
//!
//! A tree stores its summaries as lanes of a block (`crate::block`), not
//! as [`Summary`] values: a `Summary` is the owned form one tree's node
//! takes when it leaves the tree — [`crate::TreeView::node`], snapshots
//! restored and the frozen references.
//!
//! # Coverage
//!
//! A summary created at arrival count `s` at level `l` describes the
//! `2^(l+1)` most recent values as of time `s`, i.e. absolute stream
//! positions `[s - 2^(l+1), s - 1]`. In the window indexing of the paper
//! (index 0 = newest) at a later time `t`, it covers indices
//! `[t - s, t - s + 2^(l+1) - 1]`. This reproduces the paper's Figure 2
//! exactly: a fresh `R_l` covers `[0, 2^(l+1)-1]`, the previous generation
//! (`S_l`) covers `[2^l, ...]`, and the one before (`L_l`) covers
//! `[2^(l+1), ...]`.

use crate::range::ValueRange;
use swat_wavelet::HaarCoeffs;

/// Content of one tree node: a summary of one dyadic block, as an owned
/// value.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    coeffs: HaarCoeffs,
    range: ValueRange,
    created_at: u64,
    level: usize,
}

impl Summary {
    /// Assemble a summary.
    ///
    /// `created_at` is the arrival count right after the newest value of
    /// the block arrived. The coefficient vector's signal length must be
    /// `2^(level+1)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coefficient length disagrees with the
    /// level.
    pub fn new(coeffs: HaarCoeffs, range: ValueRange, created_at: u64, level: usize) -> Self {
        debug_assert_eq!(
            coeffs.len(),
            1usize << (level + 1),
            "summary length must match level"
        );
        Summary {
            coeffs,
            range,
            created_at,
            level,
        }
    }

    /// Tree level of this summary.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of stream values summarized (`2^(level+1)`).
    pub fn width(&self) -> usize {
        self.coeffs.len()
    }

    /// Arrival count at which the summarized block ended.
    pub fn created_at(&self) -> u64 {
        self.created_at
    }

    /// Exact `[min, max]` of the summarized raw values.
    pub fn range(&self) -> &ValueRange {
        &self.range
    }

    /// The stored wavelet coefficients.
    pub fn coeffs(&self) -> &HaarCoeffs {
        &self.coeffs
    }

    /// Window indices `[start, end]` covered at arrival count `now`
    /// (index 0 = newest value).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now < created_at` (time went backwards).
    pub fn coverage(&self, now: u64) -> (usize, usize) {
        debug_assert!(now >= self.created_at);
        let start = (now - self.created_at) as usize;
        (start, start + self.width() - 1)
    }

    /// Approximate value for window index `idx` at arrival count `now`,
    /// reconstructed from the truncated coefficients in `O(log width)` and
    /// clamped into the summary's exact range (clamping can only reduce
    /// error).
    ///
    /// # Panics
    ///
    /// Panics if the summary does not cover `idx` at `now`.
    pub fn value_at(&self, now: u64, idx: usize) -> f64 {
        let (start, end) = self.coverage(now);
        assert!(
            (start..=end).contains(&idx),
            "index {idx} outside coverage [{start}, {end}]"
        );
        self.range.clamp(self.coeffs.value_at(idx - start))
    }

    /// Reconstruct the whole approximate block (newest first), clamped into
    /// the summary's range. Element `i` corresponds to window index
    /// `coverage(now).0 + i`.
    pub fn reconstruct(&self) -> Vec<f64> {
        self.coeffs
            .reconstruct()
            .into_iter()
            .map(|v| self.range.clamp(v))
            .collect()
    }

    /// A sound bound on `|true - approx|` for any single value answered
    /// from this summary: the worst distance from the reconstructed value
    /// to the ends of the exact range.
    pub fn error_bound_at(&self, now: u64, idx: usize) -> f64 {
        let v = self.value_at(now, idx);
        (v - self.range.lo()).max(self.range.hi() - v)
    }

    /// Approximate heap + inline size in bytes (for space accounting).
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.coeffs.stored() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(level: usize, created_at: u64, data: &[f64], k: usize) -> Summary {
        Summary::new(
            HaarCoeffs::from_signal(data, k).unwrap(),
            ValueRange::of(data),
            created_at,
            level,
        )
    }

    #[test]
    fn coverage_ages_with_time() {
        // Level 1 summary (width 4) created at t = 8.
        let s = summary(1, 8, &[1.0, 2.0, 3.0, 4.0], 4);
        assert_eq!(s.coverage(8), (0, 3));
        assert_eq!(s.coverage(9), (1, 4));
        assert_eq!(s.coverage(11), (3, 6));
    }

    #[test]
    fn value_at_tracks_aging() {
        let s = summary(0, 5, &[10.0, 20.0], 2);
        // Fresh: window idx 0 = newest of the block = first element.
        assert_eq!(s.value_at(5, 0), 10.0);
        assert_eq!(s.value_at(5, 1), 20.0);
        // One arrival later the block has aged by one index.
        assert_eq!(s.value_at(6, 1), 10.0);
        assert_eq!(s.value_at(6, 2), 20.0);
    }

    #[test]
    #[should_panic(expected = "outside coverage")]
    fn value_outside_coverage_panics() {
        let s = summary(0, 5, &[10.0, 20.0], 2);
        let _ = s.value_at(6, 0);
    }

    #[test]
    fn truncated_values_stay_in_range() {
        let data = [0.0, 100.0, 0.0, 100.0, 0.0, 100.0, 0.0, 100.0];
        let s = summary(2, 8, &data, 1); // average only: 50
        for (i, &d) in data.iter().enumerate() {
            let v = s.value_at(8, i);
            assert!(s.range().contains(v));
            assert!(s.error_bound_at(8, i) >= (d - v).abs() - 1e-12);
        }
    }

    #[test]
    fn reconstruct_matches_value_at() {
        let data = [3.0, 1.0, 4.0, 1.0];
        let s = summary(1, 4, &data, 2);
        let rec = s.reconstruct();
        for (i, &v) in rec.iter().enumerate() {
            assert_eq!(v, s.value_at(4, i));
        }
    }

    #[test]
    fn space_accounting_scales_with_k() {
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let s1 = summary(3, 16, &data, 1);
        let s8 = summary(3, 16, &data, 8);
        assert!(s8.space_bytes() > s1.space_bytes());
    }
}
