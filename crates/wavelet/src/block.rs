//! Block (SoA) kernels for batched Haar maintenance.
//!
//! The scalar ingest path builds one [`crate::HaarCoeffs`] per merge: a struct
//! with an inline-or-heap store, constructed and moved around once per
//! arrival per level. That is exact but branchy, and the compiler cannot
//! vectorize across arrivals because every merge round-trips through the
//! `Store` enum.
//!
//! This module provides the batched alternative: coefficient prefixes of
//! *many* sibling summaries laid out back to back in one flat `&[f64]`
//! slab (structure-of-arrays: entry `i`'s stored prefix occupies
//! `slab[i*stride .. (i+1)*stride]`), and two kernels over such slabs:
//!
//! * [`forward_block`] — level-0 summaries for a whole chunk of raw
//!   values at once: `avg`/`det` lanes over `(values[2i], values[2i+1])`
//!   pairs, replacing one `scalar` + `merge` round-trip per arrival,
//! * [`PairMergePlan`] — a precompiled description of where each parent
//!   coefficient of a sibling merge comes from, applied to adjacent
//!   slab entries with [`PairMergePlan::merge_adjacent`] (or one pair at
//!   a time with [`PairMergePlan::merge_one`]).
//!
//! # Bit-identity
//!
//! These kernels are *drop-in* replacements for [`crate::HaarCoeffs::merge`]:
//! the plan is compiled by replaying the exact control flow of the scalar
//! merge (root average, depth-1 detail, then the children's detail blocks
//! interleaved breadth-first, truncated at the parent budget), and each
//! op applies the same arithmetic expression — `(a + b) * 0.5`,
//! `(a - b) * 0.5`, or a verbatim copy. Rust never contracts `a * b + c`
//! into fused multiply-adds, so the vectorized loops produce the same
//! bits as the scalar path, value for value. The `plan_matches_merge`
//! tests below pin this.
//!
//! # Why truncation still commutes
//!
//! The scalar merge zero-pads when a parent slot would read past a
//! child's stored prefix. With the standard stored count
//! `min(k, child_len)` that never happens: a parent coefficient at BFS
//! position `p` reads a child position `q <= p - 2^(j-2) < p < k`, and
//! `q < child_len` because `q` lies inside a depth-`(j-1)` child block.
//! The plan still carries an explicit [`PairOp::Zero`] for defensive
//! generality (callers may compile plans for nonstandard stored counts),
//! so the kernels are total.

use crate::error::WaveletError;
use crate::{is_power_of_two, log2};

/// Level-0 block kernel: the stored coefficient prefixes of the summaries
/// of adjacent raw-value pairs, computed for a whole chunk at once.
///
/// Pair `i` is `(older, newer) = (values[2i], values[2i+1])` — the SWAT
/// convention where the higher index arrived later. Each pair's summary
/// keeps `min(k, 2)` coefficients: the average `(newer + older) * 0.5`
/// and, if the budget allows, the detail `(newer - older) * 0.5` —
/// bit-identical to `HaarCoeffs::merge(scalar(newer), scalar(older), k)`.
///
/// Writes `values.len() / 2` entries of stride `min(k, 2)` into `out`
/// (a trailing odd value is ignored).
///
/// # Panics
///
/// Panics if `k == 0` or `out` is shorter than `(values.len() / 2) *
/// min(k, 2)`.
pub fn forward_block(values: &[f64], k: usize, out: &mut [f64]) {
    assert!(k > 0, "zero coefficient budget");
    let pairs = values.len() / 2;
    let keep = k.min(2);
    let out = &mut out[..pairs * keep];
    if keep == 1 {
        for (o, p) in out.iter_mut().zip(values.chunks_exact(2)) {
            *o = (p[1] + p[0]) * 0.5;
        }
    } else {
        for (o, p) in out.chunks_exact_mut(2).zip(values.chunks_exact(2)) {
            o[0] = (p[1] + p[0]) * 0.5;
            o[1] = (p[1] - p[0]) * 0.5;
        }
    }
}

/// Where one parent coefficient of a sibling merge comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOp {
    /// `(newer[0] + older[0]) * 0.5` — the parent average.
    Avg,
    /// `(newer[0] - older[0]) * 0.5` — the depth-1 detail.
    Diff,
    /// Copy of the newer child's stored coefficient at this index.
    Newer(u32),
    /// Copy of the older child's stored coefficient at this index.
    Older(u32),
    /// The child's prefix was truncated before this position: zero-pad.
    Zero,
}

/// A precompiled sibling merge: for fixed child signal length, child
/// stored count, and parent budget, the source of every parent
/// coefficient.
///
/// Compiling the plan once per tree level and replaying it over a flat
/// slab of child prefixes turns the scalar merge's nested branchy loops
/// into a tight copy/fma-free kernel the compiler can unroll and
/// vectorize — with bit-identical output (see the module docs).
#[derive(Debug, Clone)]
pub struct PairMergePlan {
    child_len: usize,
    child_stored: usize,
    ops: Vec<PairOp>,
}

impl PairMergePlan {
    /// Compile the merge of two adjacent summaries of `child_len`-value
    /// segments, each storing `child_stored` coefficients, into their
    /// parent under budget `k`.
    ///
    /// The op sequence replays `HaarCoeffs::merge` exactly: parent
    /// positions 0 and 1 are the average/detail of the children's
    /// averages; parent depth-`j` blocks (`j >= 2`) interleave the
    /// children's depth-`(j-1)` blocks, newer child first; generation
    /// stops after `min(k, 2 * child_len)` coefficients.
    ///
    /// # Errors
    ///
    /// * [`WaveletError::NotPowerOfTwo`] if `child_len` is not a power of
    ///   two.
    /// * [`WaveletError::ZeroBudget`] if `k == 0` or `child_stored == 0`.
    pub fn new(child_len: usize, child_stored: usize, k: usize) -> Result<Self, WaveletError> {
        if !is_power_of_two(child_len) {
            return Err(WaveletError::NotPowerOfTwo { len: child_len });
        }
        if k == 0 || child_stored == 0 {
            return Err(WaveletError::ZeroBudget);
        }
        let keep = k.min(2 * child_len);
        let mut ops = Vec::with_capacity(keep);
        ops.push(PairOp::Avg);
        if keep >= 2 {
            ops.push(PairOp::Diff);
        }
        let child_depth = log2(child_len) as usize;
        'outer: for j in 2..=(child_depth + 1) {
            let child_off = 1usize << (j - 2);
            let block = 1usize << (j - 2);
            for newer_side in [true, false] {
                for i in 0..block {
                    if ops.len() == keep {
                        break 'outer;
                    }
                    let q = child_off + i;
                    ops.push(if q >= child_stored {
                        PairOp::Zero
                    } else if newer_side {
                        PairOp::Newer(q as u32)
                    } else {
                        PairOp::Older(q as u32)
                    });
                }
            }
        }
        Ok(PairMergePlan {
            child_len,
            child_stored,
            ops,
        })
    }

    /// Child segment length this plan was compiled for.
    #[inline]
    pub fn child_len(&self) -> usize {
        self.child_len
    }

    /// Stored coefficient count of each child entry (the slab stride).
    #[inline]
    pub fn child_stored(&self) -> usize {
        self.child_stored
    }

    /// Number of parent coefficients produced per pair (the output
    /// stride).
    #[inline]
    pub fn parent_stored(&self) -> usize {
        self.ops.len()
    }

    /// Merge one sibling pair: `newer`/`older` are stored prefixes of
    /// length [`Self::child_stored`], `out` receives
    /// [`Self::parent_stored`] parent coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than the plan requires.
    #[inline]
    pub fn merge_one(&self, newer: &[f64], older: &[f64], out: &mut [f64]) {
        let newer = &newer[..self.child_stored];
        let older = &older[..self.child_stored];
        for (dst, op) in out[..self.ops.len()].iter_mut().zip(&self.ops) {
            *dst = match *op {
                PairOp::Avg => (newer[0] + older[0]) * 0.5,
                PairOp::Diff => (newer[0] - older[0]) * 0.5,
                PairOp::Newer(q) => newer[q as usize],
                PairOp::Older(q) => older[q as usize],
                PairOp::Zero => 0.0,
            };
        }
    }

    /// Merge `pairs` adjacent slab entries: entry `2i` is pair `i`'s
    /// *older* child, entry `2i + 1` its *newer* child (stream order —
    /// later slab entries are more recent), writing parent `i` at output
    /// stride [`Self::parent_stored`].
    ///
    /// # Panics
    ///
    /// Panics if `children` is shorter than `2 * pairs * child_stored`
    /// or `out` shorter than `pairs * parent_stored`.
    pub fn merge_adjacent(&self, children: &[f64], out: &mut [f64], pairs: usize) {
        let cs = self.child_stored;
        let ps = self.ops.len();
        let children = &children[..pairs * 2 * cs];
        let out = &mut out[..pairs * ps];
        for (o, pair) in out.chunks_exact_mut(ps).zip(children.chunks_exact(2 * cs)) {
            let (older, newer) = pair.split_at(cs);
            for (dst, op) in o.iter_mut().zip(&self.ops) {
                *dst = match *op {
                    PairOp::Avg => (newer[0] + older[0]) * 0.5,
                    PairOp::Diff => (newer[0] - older[0]) * 0.5,
                    PairOp::Newer(q) => newer[q as usize],
                    PairOp::Older(q) => older[q as usize],
                    PairOp::Zero => 0.0,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::HaarCoeffs;

    fn prefixes(stored: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|e| {
                (0..stored)
                    .map(|i| ((e * 31 + i * 7 + 3) % 23) as f64 - 11.0 + (i as f64) * 0.125)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_block_matches_scalar_merge() {
        let values: Vec<f64> = (0..32).map(|i| ((i * 13 + 5) % 41) as f64 - 20.0).collect();
        for k in [1usize, 2, 3, 8] {
            let keep = k.min(2);
            let mut out = vec![0.0; (values.len() / 2) * keep];
            forward_block(&values, k, &mut out);
            for i in 0..values.len() / 2 {
                let scalar = HaarCoeffs::merge(
                    &HaarCoeffs::scalar(values[2 * i + 1]),
                    &HaarCoeffs::scalar(values[2 * i]),
                    k,
                )
                .unwrap();
                let got = &out[i * keep..(i + 1) * keep];
                for (a, b) in got.iter().zip(scalar.coefficients()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} pair={i}");
                }
            }
        }
    }

    #[test]
    fn plan_matches_merge_bit_for_bit() {
        // Every (child_len, k) combination the tree can produce: children
        // store min(k, child_len) coefficients.
        for log_len in 1..=5u32 {
            let child_len = 1usize << log_len;
            for k in [1usize, 2, 3, 4, 5, 7, 8, 16, 64] {
                let stored = k.min(child_len);
                let plan = PairMergePlan::new(child_len, stored, k).unwrap();
                let ps = plan.parent_stored();
                assert_eq!(ps, k.min(2 * child_len));
                let entries = prefixes(stored, 8);
                let mut out = vec![0.0; ps];
                for pair in entries.chunks(2) {
                    let (older, newer) = (&pair[0], &pair[1]);
                    plan.merge_one(newer, older, &mut out);
                    let a = HaarCoeffs::from_parts(child_len, newer.clone()).unwrap();
                    let b = HaarCoeffs::from_parts(child_len, older.clone()).unwrap();
                    let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
                    assert_eq!(merged.stored(), ps, "child_len={child_len} k={k}");
                    for (x, y) in out.iter().zip(merged.coefficients()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "child_len={child_len} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn merge_adjacent_matches_merge_one() {
        let child_len = 8;
        for k in [1usize, 3, 8, 16] {
            let stored = k.min(child_len);
            let plan = PairMergePlan::new(child_len, stored, k).unwrap();
            let ps = plan.parent_stored();
            let entries = prefixes(stored, 12);
            let slab: Vec<f64> = entries.iter().flatten().copied().collect();
            let pairs = entries.len() / 2;
            let mut blocked = vec![0.0; pairs * ps];
            plan.merge_adjacent(&slab, &mut blocked, pairs);
            let mut one = vec![0.0; ps];
            for i in 0..pairs {
                plan.merge_one(&entries[2 * i + 1], &entries[2 * i], &mut one);
                assert_eq!(&blocked[i * ps..(i + 1) * ps], &one[..], "k={k} pair={i}");
            }
        }
    }

    #[test]
    fn truncated_children_zero_pad_like_scalar() {
        // Nonstandard stored counts (shorter than min(k, child_len)) take
        // the Zero path; the scalar merge zero-pads identically.
        let child_len = 8;
        let stored = 2; // shorter than min(k, child_len)
        let k = 12;
        let plan = PairMergePlan::new(child_len, stored, k).unwrap();
        assert!(plan.ops.contains(&PairOp::Zero));
        let newer = vec![3.5, -1.25];
        let older = vec![-0.5, 2.0];
        let mut out = vec![f64::NAN; plan.parent_stored()];
        plan.merge_one(&newer, &older, &mut out);
        let a = HaarCoeffs::from_parts(child_len, newer).unwrap();
        let b = HaarCoeffs::from_parts(child_len, older).unwrap();
        let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
        assert_eq!(&out[..], merged.coefficients());
    }

    #[test]
    fn plan_validation() {
        assert!(matches!(
            PairMergePlan::new(3, 1, 1),
            Err(WaveletError::NotPowerOfTwo { len: 3 })
        ));
        assert!(matches!(
            PairMergePlan::new(4, 1, 0),
            Err(WaveletError::ZeroBudget)
        ));
        assert!(matches!(
            PairMergePlan::new(4, 0, 1),
            Err(WaveletError::ZeroBudget)
        ));
    }

    #[test]
    #[should_panic(expected = "zero coefficient budget")]
    fn forward_block_rejects_zero_budget() {
        forward_block(&[1.0, 2.0], 0, &mut [0.0; 2]);
    }
}
