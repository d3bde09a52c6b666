//! Truncated Haar coefficient vectors and the exact `O(k)` sibling merge.
//!
//! [`HaarCoeffs`] is the summary every SWAT tree node stores: the first `k`
//! breadth-first coefficients of the non-normalized Haar decomposition of
//! the window segment the node covers, together with the segment length.
//!
//! The crucial operation is [`HaarCoeffs::merge`]: given the summaries of
//! two adjacent equal-length segments it produces the summary of their
//! concatenation *exactly* (the result equals what a fresh transform of the
//! concatenated raw data, truncated to `k`, would produce) in `O(k)` time.
//! This is what makes the SWAT update rule
//! `contents(R_l) := DWT(R_{l-1}, L_{l-1})` constant-cost per level and the
//! whole per-arrival maintenance O(1) amortized.
//!
//! # Why the merge is exact
//!
//! For signals `x` (newer half) and `y` (older half) of length `2^d` each,
//! the parent decomposition of `x ++ y` is:
//!
//! * root: `(avg(x) + avg(y)) / 2`,
//! * depth-1 detail: `(avg(x) − avg(y)) / 2`,
//! * depth-`j` details (`j ≥ 2`): concatenation of `x`'s and `y`'s
//!   depth-`(j−1)` detail blocks.
//!
//! Therefore the parent's first `k` BFS coefficients only reference the
//! children's first `k` BFS coefficients, and truncation commutes with the
//! merge.
//!
//! # Representation
//!
//! Small coefficient budgets are stored inline: the paper's default
//! `k = 1` — and anything up to four coefficients, the budget every
//! benchmark workload runs — never touches the heap. Larger budgets own
//! one heap buffer per summary. A SWAT tree does not store `HaarCoeffs`
//! values: it keeps its coefficients as lanes of a block and merges them
//! with [`crate::merge_pair`], this type's merge core run over lanes; a
//! `HaarCoeffs` is the owned form a summary takes outside a tree.

use crate::block::merge_core;
use crate::error::WaveletError;
use crate::{haar, is_power_of_two};

/// Coefficient budgets up to this size are stored inline.
const INLINE_CAP: usize = 4;

/// Inline-or-heap storage for the coefficient prefix.
#[derive(Debug, Clone)]
enum Store {
    Inline { len: u8, buf: [f64; INLINE_CAP] },
    Heap(Vec<f64>),
}

impl Store {
    #[inline]
    fn one(value: f64) -> Store {
        Store::Inline {
            len: 1,
            buf: [value, 0.0, 0.0, 0.0],
        }
    }

    /// A store of `keep` zeros in the representation the size calls for:
    /// inline up to [`INLINE_CAP`], heap beyond.
    #[inline]
    fn zeroed(keep: usize) -> Store {
        if keep <= INLINE_CAP {
            Store::Inline {
                len: keep as u8,
                buf: [0.0; INLINE_CAP],
            }
        } else {
            Store::Heap(vec![0.0; keep])
        }
    }

    fn from_vec(v: Vec<f64>) -> Store {
        if v.len() <= INLINE_CAP {
            let mut buf = [0.0; INLINE_CAP];
            buf[..v.len()].copy_from_slice(&v);
            Store::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            Store::Heap(v)
        }
    }

    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            Store::Inline { len, buf } => &buf[..*len as usize],
            Store::Heap(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Store::Inline { len, .. } => *len as usize,
            Store::Heap(v) => v.len(),
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Store::Inline { len, buf } => &mut buf[..*len as usize],
            Store::Heap(v) => v,
        }
    }
}

/// A truncated breadth-first Haar coefficient vector summarizing a signal
/// of power-of-two length.
///
/// Storing `k = len` coefficients is lossless; `k = 1` keeps only the
/// segment average — the configuration used throughout the SWAT paper.
#[derive(Debug, Clone)]
pub struct HaarCoeffs {
    /// Length of the summarized signal (a power of two).
    len: usize,
    /// First `min(k, len)` coefficients in breadth-first order.
    store: Store,
}

impl PartialEq for HaarCoeffs {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.store.as_slice() == other.store.as_slice()
    }
}

impl HaarCoeffs {
    /// Summary of a single raw value (a length-1 "signal").
    #[inline]
    pub fn scalar(value: f64) -> Self {
        HaarCoeffs {
            len: 1,
            store: Store::one(value),
        }
    }

    /// Transform `signal` and keep its first `k` breadth-first coefficients.
    ///
    /// # Errors
    ///
    /// * [`WaveletError::NotPowerOfTwo`] if the length is not a nonzero
    ///   power of two.
    /// * [`WaveletError::ZeroBudget`] if `k == 0`.
    pub fn from_signal(signal: &[f64], k: usize) -> Result<Self, WaveletError> {
        if k == 0 {
            return Err(WaveletError::ZeroBudget);
        }
        let mut coeffs = haar::forward(signal)?;
        coeffs.truncate(k);
        Ok(HaarCoeffs {
            len: signal.len(),
            store: Store::from_vec(coeffs),
        })
    }

    /// Construct directly from a breadth-first coefficient prefix.
    ///
    /// # Errors
    ///
    /// * [`WaveletError::NotPowerOfTwo`] if `len` is not a power of two.
    /// * [`WaveletError::ZeroBudget`] if `coeffs` is empty.
    /// * [`WaveletError::TooShort`] if more than `len` coefficients are
    ///   supplied.
    pub fn from_parts(len: usize, coeffs: Vec<f64>) -> Result<Self, WaveletError> {
        Self::check_parts(len, coeffs.len())?;
        Ok(HaarCoeffs {
            len,
            store: Store::from_vec(coeffs),
        })
    }

    /// Whether `stored` coefficients can summarize a `len`-value segment.
    fn check_parts(len: usize, stored: usize) -> Result<(), WaveletError> {
        if !is_power_of_two(len) {
            return Err(WaveletError::NotPowerOfTwo { len });
        }
        if stored == 0 {
            return Err(WaveletError::ZeroBudget);
        }
        if stored > len {
            return Err(WaveletError::TooShort { len, min: stored });
        }
        Ok(())
    }

    /// Merge the summaries of two adjacent equal-length segments into the
    /// summary of their concatenation, keeping at most `k` coefficients.
    ///
    /// `newer` summarizes the more recent half (lower stream indices in the
    /// SWAT convention), `older` the half before it. The merge is *exact*:
    /// truncation commutes with it (see the module docs).
    ///
    /// # Errors
    ///
    /// * [`WaveletError::LengthMismatch`] if the operands summarize
    ///   segments of different lengths.
    /// * [`WaveletError::ZeroBudget`] if `k == 0`.
    pub fn merge(newer: &Self, older: &Self, k: usize) -> Result<Self, WaveletError> {
        let keep = Self::merge_budget(newer, older, k)?;
        let mut store = Store::zeroed(keep);
        merge_core(
            newer.store.as_slice(),
            older.store.as_slice(),
            store.as_mut_slice(),
        );
        Ok(HaarCoeffs {
            len: 2 * newer.len,
            store,
        })
    }

    /// As [`Self::merge`], but drawing any heap buffer the result needs
    /// from `scratch` instead of the allocator. The output is identical to
    /// `merge` (same coefficients, same logical representation); only the
    /// provenance of the backing buffer differs. Budgets of `k <= 3` stay
    /// inline and never touch the scratch.
    ///
    /// # Errors
    ///
    /// Same as [`Self::merge`].
    pub fn merge_with(
        newer: &Self,
        older: &Self,
        k: usize,
        scratch: &mut MergeScratch,
    ) -> Result<Self, WaveletError> {
        let keep = Self::merge_budget(newer, older, k)?;
        let mut store = if keep <= INLINE_CAP {
            Store::zeroed(keep)
        } else {
            let mut buf = scratch.take(keep);
            buf.resize(keep, 0.0);
            Store::Heap(buf)
        };
        merge_core(
            newer.store.as_slice(),
            older.store.as_slice(),
            store.as_mut_slice(),
        );
        Ok(HaarCoeffs {
            len: 2 * newer.len,
            store,
        })
    }

    /// Validate a merge and compute how many coefficients the parent keeps.
    #[inline]
    fn merge_budget(newer: &Self, older: &Self, k: usize) -> Result<usize, WaveletError> {
        if k == 0 {
            return Err(WaveletError::ZeroBudget);
        }
        if newer.len != older.len {
            return Err(WaveletError::LengthMismatch {
                newer: newer.len,
                older: older.len,
            });
        }
        Ok(k.min(2 * newer.len))
    }

    /// Length of the summarized signal.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: a summary covers at least one value.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of coefficients actually stored.
    #[inline]
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// Number of coefficients stored on the heap (0 for small budgets,
    /// which live inline) — for space accounting.
    pub fn heap_coefficients(&self) -> usize {
        match &self.store {
            Store::Inline { .. } => 0,
            Store::Heap(v) => v.len(),
        }
    }

    /// The exact average of the summarized segment (the root coefficient).
    #[inline]
    pub fn average(&self) -> f64 {
        self.store.as_slice()[0]
    }

    /// The stored coefficient prefix, breadth-first.
    #[inline]
    pub fn coefficients(&self) -> &[f64] {
        self.store.as_slice()
    }

    /// Reconstruct the full approximate signal (zero-padding truncated
    /// details). Costs `O(len)`; for a single value use [`Self::value_at`].
    pub fn reconstruct(&self) -> Vec<f64> {
        haar::inverse(self.store.as_slice(), self.len).expect("invariant: len is a power of two")
    }

    /// Approximate signal value at position `idx` in `O(log len)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn value_at(&self, idx: usize) -> f64 {
        haar::point(self.store.as_slice(), self.len, idx).expect("invariant: len is a power of two")
    }
}

/// A pool of reusable heap buffers for [`HaarCoeffs::merge_with`].
///
/// A caller that builds each merged summary as a fresh value and retires
/// old ones — the frozen reference ingest path does — would otherwise
/// allocate one `Vec<f64>` per merge under a budget `k > 3`:
/// [`MergeScratch::reclaim`] returns a retired summary's heap storage to
/// the pool and the next `merge_with` reuses it.
///
/// `new()` allocates nothing; the pool only materializes once a heap
/// buffer is actually reclaimed.
#[derive(Debug, Default)]
pub struct MergeScratch {
    pool: Vec<Vec<f64>>,
}

/// A scratch is a pure cache: clones start with an empty pool (cheap and
/// allocation-free), which lets owners — e.g. a tree that hoists one for
/// its ingest path — keep deriving `Clone`.
impl Clone for MergeScratch {
    fn clone(&self) -> Self {
        MergeScratch::new()
    }
}

impl MergeScratch {
    /// An empty pool (no allocation).
    pub fn new() -> Self {
        MergeScratch { pool: Vec::new() }
    }

    /// Number of buffers currently pooled (for tests and accounting).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Take a cleared buffer with at least `cap` capacity.
    fn take(&mut self, cap: usize) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(cap);
                buf
            }
            None => Vec::with_capacity(cap),
        }
    }

    /// Return a retired summary's heap buffer to the pool. Inline
    /// summaries (budgets `<= 4`) carry no heap storage and are simply
    /// dropped.
    pub fn reclaim(&mut self, coeffs: HaarCoeffs) {
        if let Store::Heap(buf) = coeffs.store {
            self.pool.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let c = HaarCoeffs::scalar(42.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.average(), 42.0);
        assert_eq!(c.reconstruct(), vec![42.0]);
        assert_eq!(c.value_at(0), 42.0);
        assert_eq!(c.heap_coefficients(), 0, "scalars live inline");
    }

    #[test]
    fn small_budgets_stay_inline_large_spill() {
        let sig: Vec<f64> = (0..16).map(|i| i as f64).collect();
        for k in 1..=4 {
            let c = HaarCoeffs::from_signal(&sig, k).unwrap();
            assert_eq!(c.heap_coefficients(), 0, "k={k} should be inline");
            assert_eq!(c.stored(), k);
        }
        let c = HaarCoeffs::from_signal(&sig, 5).unwrap();
        assert_eq!(c.heap_coefficients(), 5);
    }

    #[test]
    fn inline_merge_never_allocates_semantically() {
        // k = 1 merges produce inline results whose contents match the
        // heap-backed computation.
        let a = HaarCoeffs::scalar(14.0);
        let b = HaarCoeffs::scalar(4.0);
        let m = HaarCoeffs::merge(&a, &b, 1).unwrap();
        assert_eq!(m.heap_coefficients(), 0);
        assert_eq!(m.average(), 9.0);
        let m3 = HaarCoeffs::merge(&a, &b, 3).unwrap();
        assert_eq!(m3.heap_coefficients(), 0);
        assert_eq!(m3.coefficients(), &[9.0, 5.0]);
    }

    #[test]
    fn lossless_merge_equals_concatenated_transform() {
        let x = [14.0, 4.0];
        let y = [7.0, 19.0];
        let newer = HaarCoeffs::from_signal(&x, usize::MAX).unwrap();
        let older = HaarCoeffs::from_signal(&y, usize::MAX).unwrap();
        let merged = HaarCoeffs::merge(&newer, &older, usize::MAX).unwrap();
        let direct = HaarCoeffs::from_signal(&[14.0, 4.0, 7.0, 19.0], usize::MAX).unwrap();
        assert_eq!(merged, direct);
    }

    #[test]
    fn truncation_commutes_with_merge() {
        // merge(truncate_k(x), truncate_k(y), k) == truncate_k(transform(x ++ y))
        let x: Vec<f64> = (0..8).map(|i| ((i * 5) % 11) as f64).collect();
        let y: Vec<f64> = (0..8).map(|i| ((i * 3 + 1) % 13) as f64).collect();
        let mut combined = x.clone();
        combined.extend_from_slice(&y);
        for k in 1..=16 {
            let newer = HaarCoeffs::from_signal(&x, k).unwrap();
            let older = HaarCoeffs::from_signal(&y, k).unwrap();
            let merged = HaarCoeffs::merge(&newer, &older, k).unwrap();
            let direct = HaarCoeffs::from_signal(&combined, k).unwrap();
            assert_eq!(merged, direct, "k = {k}");
        }
    }

    #[test]
    fn one_coefficient_merge_tracks_averages() {
        // With k = 1 the merge is exactly the paper's running-average scheme.
        let newer = HaarCoeffs::scalar(14.0);
        let older = HaarCoeffs::scalar(4.0);
        let parent = HaarCoeffs::merge(&newer, &older, 1).unwrap();
        assert_eq!(parent.average(), 9.0);
        assert_eq!(parent.stored(), 1);
        assert_eq!(parent.reconstruct(), vec![9.0, 9.0]);
    }

    #[test]
    fn merge_chain_builds_levels() {
        // Build a height-3 summary by chained merges of scalars, as the
        // SWAT tree does, and compare against the direct transform.
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let k = 4;
        let s: Vec<HaarCoeffs> = data.iter().map(|&v| HaarCoeffs::scalar(v)).collect();
        let l1: Vec<HaarCoeffs> = (0..4)
            .map(|i| HaarCoeffs::merge(&s[2 * i], &s[2 * i + 1], k).unwrap())
            .collect();
        let l2: Vec<HaarCoeffs> = (0..2)
            .map(|i| HaarCoeffs::merge(&l1[2 * i], &l1[2 * i + 1], k).unwrap())
            .collect();
        let root = HaarCoeffs::merge(&l2[0], &l2[1], k).unwrap();
        let direct = HaarCoeffs::from_signal(&data, k).unwrap();
        assert_eq!(root, direct);
    }

    #[test]
    fn value_at_matches_reconstruct() {
        let data: Vec<f64> = (0..32).map(|i| (i as f64).sqrt() * 7.0).collect();
        for k in [1, 2, 5, 32] {
            let c = HaarCoeffs::from_signal(&data, k).unwrap();
            let full = c.reconstruct();
            for (i, v) in full.iter().enumerate() {
                assert!((c.value_at(i) - v).abs() < 1e-9, "k={k} i={i}");
            }
        }
    }

    #[test]
    fn from_parts_validation() {
        assert!(HaarCoeffs::from_parts(3, vec![1.0]).is_err());
        assert!(HaarCoeffs::from_parts(4, vec![]).is_err());
        assert!(HaarCoeffs::from_parts(2, vec![1.0, 2.0, 3.0]).is_err());
        let c = HaarCoeffs::from_parts(4, vec![5.0]).unwrap();
        assert_eq!(c.reconstruct(), vec![5.0; 4]);
    }

    #[test]
    fn merge_validation() {
        let a = HaarCoeffs::scalar(1.0);
        let b = HaarCoeffs::from_signal(&[1.0, 2.0], 2).unwrap();
        assert!(matches!(
            HaarCoeffs::merge(&a, &b, 1),
            Err(WaveletError::LengthMismatch { .. })
        ));
        assert!(matches!(
            HaarCoeffs::merge(&a, &a, 0),
            Err(WaveletError::ZeroBudget)
        ));
    }

    #[test]
    fn average_is_exact_regardless_of_k() {
        let data: Vec<f64> = (0..64).map(|i| ((i * 29) % 97) as f64).collect();
        let mean = data.iter().sum::<f64>() / 64.0;
        for k in [1, 2, 8, 64] {
            let c = HaarCoeffs::from_signal(&data, k).unwrap();
            assert!((c.average() - mean).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn merge_with_matches_merge_bit_for_bit() {
        let x: Vec<f64> = (0..16).map(|i| ((i * 5) % 11) as f64 + 0.125).collect();
        let y: Vec<f64> = (0..16).map(|i| ((i * 3 + 1) % 13) as f64 - 0.5).collect();
        let mut scratch = MergeScratch::new();
        for k in 1..=32 {
            let newer = HaarCoeffs::from_signal(&x, k).unwrap();
            let older = HaarCoeffs::from_signal(&y, k).unwrap();
            let plain = HaarCoeffs::merge(&newer, &older, k).unwrap();
            let pooled = HaarCoeffs::merge_with(&newer, &older, k, &mut scratch).unwrap();
            assert_eq!(plain.len(), pooled.len(), "k = {k}");
            assert_eq!(plain.coefficients(), pooled.coefficients(), "k = {k}");
            assert_eq!(
                plain.heap_coefficients(),
                pooled.heap_coefficients(),
                "k = {k}: representation must agree"
            );
            scratch.reclaim(pooled);
        }
    }

    #[test]
    fn merge_with_small_budgets_skip_the_pool() {
        let a = HaarCoeffs::scalar(14.0);
        let b = HaarCoeffs::scalar(4.0);
        let mut scratch = MergeScratch::new();
        let m = HaarCoeffs::merge_with(&a, &b, 3, &mut scratch).unwrap();
        assert_eq!(m.heap_coefficients(), 0);
        scratch.reclaim(m);
        assert_eq!(scratch.pooled(), 0, "inline results carry no buffer");
    }

    #[test]
    fn merge_with_recycles_reclaimed_buffers() {
        let sig: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let newer = HaarCoeffs::from_signal(&sig, 8).unwrap();
        let older = HaarCoeffs::from_signal(&sig, 8).unwrap();
        let mut scratch = MergeScratch::new();
        let first = HaarCoeffs::merge_with(&newer, &older, 8, &mut scratch).unwrap();
        assert!(first.heap_coefficients() > 0);
        scratch.reclaim(first);
        assert_eq!(scratch.pooled(), 1);
        let second = HaarCoeffs::merge_with(&newer, &older, 8, &mut scratch).unwrap();
        assert_eq!(scratch.pooled(), 0, "the pooled buffer was reused");
        assert_eq!(second, HaarCoeffs::merge(&newer, &older, 8).unwrap());
    }

    #[test]
    fn merge_with_validation_matches_merge() {
        let a = HaarCoeffs::scalar(1.0);
        let b = HaarCoeffs::from_signal(&[1.0, 2.0], 2).unwrap();
        let mut scratch = MergeScratch::new();
        assert!(matches!(
            HaarCoeffs::merge_with(&a, &b, 1, &mut scratch),
            Err(WaveletError::LengthMismatch { .. })
        ));
        assert!(matches!(
            HaarCoeffs::merge_with(&a, &a, 0, &mut scratch),
            Err(WaveletError::ZeroBudget)
        ));
    }

    #[test]
    fn equality_is_representation_independent() {
        // Inline and heap stores with the same logical contents compare
        // equal (from_parts picks representation by size).
        let a = HaarCoeffs::from_parts(8, vec![1.0, 2.0]).unwrap();
        let b = HaarCoeffs::from_parts(8, vec![1.0, 2.0]).unwrap();
        assert_eq!(a, b);
        let c = HaarCoeffs::from_parts(8, vec![1.0, 2.0, 0.5, 0.25]).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn merge_zero_pads_truncated_children() {
        // Children storing 2 of 8 coefficients under a parent budget of
        // 12: parent slots fed from child positions >= 2 read as zero.
        let newer = HaarCoeffs::from_parts(8, vec![3.5, -1.25]).unwrap();
        let older = HaarCoeffs::from_parts(8, vec![-0.5, 2.0]).unwrap();
        let merged = HaarCoeffs::merge(&newer, &older, 12).unwrap();
        assert_eq!(
            merged.coefficients(),
            &[1.5, 2.0, -1.25, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn merge_zero_pads_short_children_under_a_small_parent() {
        // Children of four values storing one coefficient, under parent
        // budgets of three and four: a short child's depth-2 slot reads
        // as +0.0. Both short, the older alone, the newer alone.
        let cases: [(&[f64], &[f64], [f64; 4]); 3] = [
            (&[3.5], &[-0.5], [1.5, 2.0, 0.0, 0.0]),
            (&[3.5, -1.25], &[-0.5], [1.5, 2.0, -1.25, 0.0]),
            (&[3.5], &[-0.5, 2.0], [1.5, 2.0, 0.0, 2.0]),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (newer, older, want) in cases {
            for k in [3, 4] {
                let a = HaarCoeffs::from_parts(4, newer.to_vec()).unwrap();
                let b = HaarCoeffs::from_parts(4, older.to_vec()).unwrap();
                let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
                let what = format!("newer={newer:?} older={older:?} k={k}");
                assert_eq!(bits(merged.coefficients()), bits(&want[..k]), "{what}");
                // Sixteen lanes, lane w scaled by w + 1 (exact here).
                let lanes = |c: &[f64]| -> Vec<[f64; 16]> {
                    c.iter()
                        .map(|&x| std::array::from_fn(|w| x * (w + 1) as f64))
                        .collect()
                };
                let mut out = vec![[f64::NAN; 16]; k];
                crate::block::merge_pair(&lanes(newer), &lanes(older), &mut out);
                let want = lanes(&want[..k]);
                assert_eq!(
                    bits(out.as_flattened()),
                    bits(want.as_flattened()),
                    "{what}"
                );
            }
        }
    }
}
