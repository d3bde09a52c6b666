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
//! benchmark workload runs — never touches the heap, so a summary lives
//! in its tree's level slab wherever the path that built the tree put
//! it. Larger budgets own one heap buffer per summary, and the
//! in-place forms ([`HaarCoeffs::merge_into`], [`HaarCoeffs::assign_pair`],
//! [`HaarCoeffs::assign_prefix`]) overwrite a summary inside the storage
//! it already has, so a tree that refreshes its level slots in place
//! allocates nothing in steady state at any budget.

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

    /// Resize to exactly `keep` coefficients in the representation
    /// [`Self::zeroed`] would pick, reusing a heap buffer already owned,
    /// and hand back the slots for the caller to overwrite (their
    /// contents are unspecified).
    #[inline]
    fn reset(&mut self, keep: usize) -> &mut [f64] {
        match self {
            Store::Inline { len, .. } if keep <= INLINE_CAP => *len = keep as u8,
            // A slot refreshed in place keeps its length from one
            // generation to the next: no call into `Vec::resize`.
            Store::Heap(v) if keep > INLINE_CAP => {
                if v.len() != keep {
                    v.resize(keep, 0.0);
                }
            }
            _ => *self = Store::zeroed(keep),
        }
        self.as_mut_slice()
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

    /// Overwrite `self` with the summary of a `len`-value segment whose
    /// stored breadth-first prefix is `prefix` — the blocked ingest path's
    /// bridge from SoA coefficient slabs back into a level slot. Writes
    /// into the storage `self` already owns (see [`Self::merge_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`Self::from_parts`]; `self` is unchanged on error.
    pub fn assign_prefix(&mut self, len: usize, prefix: &[f64]) -> Result<(), WaveletError> {
        Self::check_parts(len, prefix.len())?;
        self.len = len;
        self.store.reset(prefix.len()).copy_from_slice(prefix);
        Ok(())
    }

    /// Overwrite `self` with the summary of the two-value segment
    /// `(newer, older)` under budget `k` — bit-identical to
    /// `merge(&scalar(newer), &scalar(older), k)`, without building the
    /// operands. At most two coefficients, so the result is always inline.
    ///
    /// # Errors
    ///
    /// [`WaveletError::ZeroBudget`] if `k == 0`; `self` is unchanged.
    #[inline]
    pub fn assign_pair(&mut self, newer: f64, older: f64, k: usize) -> Result<(), WaveletError> {
        if k == 0 {
            return Err(WaveletError::ZeroBudget);
        }
        self.len = 2;
        let out = self.store.reset(k.min(2));
        out[0] = (newer + older) * 0.5;
        if let Some(detail) = out.get_mut(1) {
            *detail = (newer - older) * 0.5;
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
        Self::merge_fill(newer, older, store.as_mut_slice());
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
        Self::merge_fill(newer, older, store.as_mut_slice());
        Ok(HaarCoeffs {
            len: 2 * newer.len,
            store,
        })
    }

    /// As [`Self::merge`], but overwriting `self` — typically the
    /// generation a tree level is evicting — inside the storage it already
    /// owns: a heap buffer is resized, never replaced, unless the
    /// representation has to change (`self` inline but the parent keeps
    /// more than three coefficients, or the reverse). The result equals
    /// `merge(newer, older, k)` in coefficients and representation.
    ///
    /// # Errors
    ///
    /// Same as [`Self::merge`]; `self` is unchanged on error.
    #[inline]
    pub fn merge_into(&mut self, newer: &Self, older: &Self, k: usize) -> Result<(), WaveletError> {
        let keep = Self::merge_budget(newer, older, k)?;
        self.len = 2 * newer.len;
        Self::merge_fill(newer, older, self.store.reset(keep));
        Ok(())
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

    /// The merge core shared by every merge entry point: write all
    /// `out.len()` parent coefficients (the caller sized `out` with
    /// [`Self::merge_budget`]). Keeping a single code path guarantees the
    /// entry points produce bit-identical coefficients.
    #[inline]
    fn merge_fill(newer: &Self, older: &Self, out: &mut [f64]) {
        let newer_c = newer.store.as_slice();
        let older_c = older.store.as_slice();
        // Root and depth-1 detail from the children's averages.
        let a = newer_c[0];
        let b = older_c[0];
        out[0] = (a + b) * 0.5;
        if let Some(detail) = out.get_mut(1) {
            *detail = (a - b) * 0.5;
        }
        // Up to four coefficients, depth 2 is one detail from each child:
        // plain stores, where the general loop below would call
        // `copy_from_slice` and `fill` on one-element slices.
        if out.len() <= 4 {
            if let Some(detail) = out.get_mut(2) {
                *detail = newer_c.get(1).copied().unwrap_or(0.0);
            }
            if let Some(detail) = out.get_mut(3) {
                *detail = older_c.get(1).copied().unwrap_or(0.0);
            }
            return;
        }
        // Parent depth-j block (j >= 2, BFS offset 2^(j-1), size 2^(j-1)) is
        // the concatenation of the children's depth-(j-1) blocks (offset
        // and size 2^(j-2) each), newer child first. A child whose stored
        // prefix ends inside (or before) its block reads as zero detail
        // from there on. `out` is at most `2 * newer.len` long, so the
        // blocks run out exactly when it does.
        let mut at = 2;
        let mut block = 1;
        while at < out.len() {
            for src in [newer_c, older_c] {
                let want = block.min(out.len() - at);
                let dst = &mut out[at..at + want];
                let stored = src.get(block..).unwrap_or(&[]);
                let have = stored.len().min(want);
                dst[..have].copy_from_slice(&stored[..have]);
                dst[have..].fill(0.0);
                at += want;
            }
            block *= 2;
        }
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

    /// As [`Self::reconstruct`], writing into caller-provided buffers via
    /// [`haar::inverse_into`] — bit-identical values, no allocation once
    /// the buffers have grown to the signal length.
    pub fn reconstruct_into(&self, out: &mut Vec<f64>, tmp: &mut Vec<f64>) {
        haar::inverse_into(self.store.as_slice(), self.len, out, tmp)
            .expect("invariant: len is a power of two");
    }

    /// Approximate signal value at position `idx` in `O(log len)`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn value_at(&self, idx: usize) -> f64 {
        haar::point(self.store.as_slice(), self.len, idx).expect("invariant: len is a power of two")
    }

    /// Accumulate another summary coefficient-wise: because the Haar
    /// transform is linear, the sum of two signals' coefficient vectors
    /// is exactly the coefficient vector of the summed signal. This is
    /// the aggregate-merge primitive a partitioned stream tier uses to
    /// combine per-shard aggregate summaries into one global summary
    /// without touching raw data. A shorter stored prefix on either side
    /// behaves as zero-padded detail, matching reconstruction semantics;
    /// the result keeps the longer prefix.
    ///
    /// # Errors
    ///
    /// [`WaveletError::LengthMismatch`] if the operands summarize
    /// signals of different lengths.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), WaveletError> {
        if self.len != other.len {
            return Err(WaveletError::LengthMismatch {
                newer: self.len,
                older: other.len,
            });
        }
        let ours = self.store.as_slice();
        let theirs = other.store.as_slice();
        let keep = ours.len().max(theirs.len());
        let mut sum = Vec::with_capacity(keep);
        for i in 0..keep {
            sum.push(ours.get(i).copied().unwrap_or(0.0) + theirs.get(i).copied().unwrap_or(0.0));
        }
        self.store = Store::from_vec(sum);
        Ok(())
    }
}

/// A pool of reusable heap buffers for [`HaarCoeffs::merge_with`].
///
/// A caller that builds each merged summary as a fresh value and retires
/// old ones — the frozen reference ingest path does — would otherwise
/// allocate one `Vec<f64>` per merge under a budget `k > 3`:
/// [`MergeScratch::reclaim`] returns a retired summary's heap storage to
/// the pool and the next `merge_with` reuses it. A caller that can name
/// the summary it is replacing should use [`HaarCoeffs::merge_into`]
/// instead and needs no pool.
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

    /// A child summary storing exactly `stored` coefficients, distinct
    /// and nonzero so a misplaced copy or a missed zero fill shows.
    fn child(len: usize, stored: usize, salt: usize) -> HaarCoeffs {
        let prefix = (0..stored)
            .map(|i| ((salt * 31 + i * 7 + 3) % 23) as f64 - 11.5 + (i as f64) * 0.125)
            .collect();
        HaarCoeffs::from_parts(len, prefix).unwrap()
    }

    #[test]
    fn merge_into_matches_merge_for_every_shape_and_destination() {
        // Destinations whose representation and length differ from what
        // the parent needs: inline (as a blank slot is), short heap, long
        // heap. Stale contents must never leak into the result.
        let destinations = [
            HaarCoeffs::scalar(f64::NAN),
            HaarCoeffs::from_parts(8, vec![f64::NAN; 5]).unwrap(),
            HaarCoeffs::from_parts(128, vec![f64::NAN; 100]).unwrap(),
        ];
        for log_len in 0..=6u32 {
            let len = 1usize << log_len;
            // Every stored prefix length, including children truncated
            // before (or inside) a detail block the parent reads from.
            for stored in 1..=len {
                let newer = child(len, stored, 1);
                let older = child(len, stored, 2);
                for k in 1..=80 {
                    let want = HaarCoeffs::merge(&newer, &older, k).unwrap();
                    for dst in &destinations {
                        let mut got = dst.clone();
                        got.merge_into(&newer, &older, k).unwrap();
                        let ctx = format!("len={len} stored={stored} k={k}");
                        assert_eq!(got.len(), want.len(), "{ctx}");
                        let bits = |c: &HaarCoeffs| -> Vec<u64> {
                            c.coefficients().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                        assert_eq!(
                            got.heap_coefficients(),
                            want.heap_coefficients(),
                            "{ctx}: representation must agree"
                        );
                    }
                }
            }
        }
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
    fn merge_into_keeps_its_heap_buffer_and_rejects_like_merge() {
        let sig: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let newer = HaarCoeffs::from_signal(&sig, 8).unwrap();
        let older = HaarCoeffs::from_signal(&sig, 8).unwrap();
        let mut slot = HaarCoeffs::merge(&newer, &older, 8).unwrap();
        let buffer = slot.coefficients().as_ptr();
        slot.merge_into(&older, &newer, 8).unwrap();
        assert_eq!(slot.coefficients().as_ptr(), buffer, "storage reused");
        assert_eq!(slot, HaarCoeffs::merge(&older, &newer, 8).unwrap());

        let before = slot.clone();
        assert!(matches!(
            slot.merge_into(&newer, &HaarCoeffs::scalar(1.0), 8),
            Err(WaveletError::LengthMismatch { .. })
        ));
        assert!(matches!(
            slot.merge_into(&newer, &older, 0),
            Err(WaveletError::ZeroBudget)
        ));
        assert_eq!(slot, before, "failed merges leave the destination alone");
    }

    #[test]
    fn assign_pair_matches_scalar_merge() {
        for (newer, older) in [(14.0, 4.0), (-0.0, 0.0), (1e-300, -1e300), (0.1, 0.2)] {
            for k in [1usize, 2, 3, 8] {
                let want =
                    HaarCoeffs::merge(&HaarCoeffs::scalar(newer), &HaarCoeffs::scalar(older), k)
                        .unwrap();
                // From a heap destination too: a pair is always inline.
                for dst in [
                    HaarCoeffs::scalar(f64::NAN),
                    HaarCoeffs::from_parts(8, vec![f64::NAN; 5]).unwrap(),
                ] {
                    let mut got = dst;
                    got.assign_pair(newer, older, k).unwrap();
                    assert_eq!(got.len(), 2);
                    assert_eq!(got.heap_coefficients(), 0);
                    let bits = |c: &HaarCoeffs| -> Vec<u64> {
                        c.coefficients().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "({newer}, {older}) k={k}");
                }
            }
        }
        assert!(matches!(
            HaarCoeffs::scalar(0.0).assign_pair(1.0, 2.0, 0),
            Err(WaveletError::ZeroBudget)
        ));
    }

    #[test]
    fn assign_prefix_matches_from_parts() {
        for prefix in [
            vec![1.0],
            vec![1.0, 2.0, 3.0],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        ] {
            let want = HaarCoeffs::from_parts(8, prefix.clone()).unwrap();
            for dst in [
                HaarCoeffs::scalar(f64::NAN),
                HaarCoeffs::from_parts(16, vec![f64::NAN; 9]).unwrap(),
            ] {
                let mut got = dst;
                got.assign_prefix(8, &prefix).unwrap();
                assert_eq!(got, want);
                assert_eq!(got.heap_coefficients(), want.heap_coefficients());
            }
        }
        let mut c = HaarCoeffs::scalar(7.0);
        assert!(c.assign_prefix(3, &[1.0]).is_err());
        assert!(c.assign_prefix(4, &[]).is_err());
        assert!(c.assign_prefix(2, &[1.0, 2.0, 3.0]).is_err());
        assert_eq!(c, HaarCoeffs::scalar(7.0), "failed assigns change nothing");
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
    fn add_assign_matches_summed_signal() {
        // Linearity: coefficients of x + coefficients of y = coefficients
        // of (x + y), including across unequal stored prefixes (the
        // shorter side's missing details are zero-padded).
        let x: Vec<f64> = (0..8).map(|i| ((i * 5) % 11) as f64).collect();
        let y: Vec<f64> = (0..8).map(|i| ((i * 3 + 1) % 13) as f64 - 6.0).collect();
        let summed: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        for (ka, kb) in [(8, 8), (3, 8), (8, 2), (1, 1)] {
            let mut a = HaarCoeffs::from_signal(&x, ka).unwrap();
            let b = HaarCoeffs::from_signal(&y, kb).unwrap();
            a.add_assign(&b).unwrap();
            let direct = HaarCoeffs::from_signal(&summed, ka.max(kb)).unwrap();
            // Stored prefixes match where both sides kept detail; the
            // tail of the longer side carries the other's coefficients
            // verbatim (zero-padded shorter operand).
            assert_eq!(a.len(), 8);
            assert_eq!(a.stored(), ka.max(kb), "ka={ka} kb={kb}");
            if ka == kb {
                assert_eq!(a, direct, "ka={ka} kb={kb}");
            } else {
                // Shared prefix must still be the exact sum.
                for i in 0..ka.min(kb) {
                    assert!(
                        (a.coefficients()[i] - direct.coefficients()[i]).abs() < 1e-12,
                        "ka={ka} kb={kb} i={i}"
                    );
                }
            }
        }
        // Mismatched signal lengths are rejected.
        let mut a = HaarCoeffs::scalar(1.0);
        let b = HaarCoeffs::from_signal(&[1.0, 2.0], 2).unwrap();
        assert!(matches!(
            a.add_assign(&b),
            Err(WaveletError::LengthMismatch { .. })
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
}
