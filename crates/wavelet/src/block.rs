//! Lane kernels for batched Haar maintenance over a block of summaries.
//!
//! The scalar ingest path builds one [`crate::HaarCoeffs`] per merge: a struct
//! with an inline-or-heap store, written once per arrival per level. That
//! is exact but branchy, and the compiler cannot vectorize across arrivals
//! or across streams because every merge round-trips through the `Store`
//! enum.
//!
//! This module is the batched alternative. A *lane* is `[f64; W]`: one
//! coefficient of `W` summaries at once — the summaries of `W` streams
//! that share a clock, the stream index innermost. A stored prefix of `kl`
//! coefficients of `W` summaries is `kl` consecutive lanes, and a slab of
//! such entries lays them back to back (entry `i`'s prefix occupies
//! `slab[i * kl .. (i + 1) * kl]`). Two kernels work on lanes:
//!
//! * [`forward_block`] — the level-0 summaries of `W` raw-value pairs:
//!   `avg`/`det` lanes over `(newer, older)`,
//! * [`PairMergePlan`] — a precompiled description of where each parent
//!   coefficient of a sibling merge comes from, applied to one pair of
//!   entries with [`PairMergePlan::merge_one`] or to the adjacent entries
//!   of a slab with [`PairMergePlan::merge_adjacent`].
//!
//! Every op is decoded once per lane and applied to `W` summaries in one
//! loop of known length, which the optimizer unrolls and vectorizes; with
//! `W = 1` the same source is the per-summary kernel.
//!
//! # Bit-identity
//!
//! These kernels are *drop-in* replacements for [`crate::HaarCoeffs::merge`]:
//! the plan is compiled by replaying the exact control flow of the scalar
//! merge (root average, depth-1 detail, then the children's detail blocks
//! interleaved breadth-first, truncated at the parent budget), and each
//! op applies the same arithmetic expression with the same operand order
//! — `(newer + older) * 0.5`, `(newer - older) * 0.5`, or a verbatim copy
//! — to every lane. Rust never contracts `a * b + c` into fused
//! multiply-adds and never reassociates floating point, so the vectorized
//! loops produce the same bits as the scalar path, value for value. The
//! `plan_matches_merge` tests below pin this at `W = 1` and `W = 16`.
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

/// `dst[w] = f(a[w], b[w])` for every lane `w`.
#[inline(always)]
fn zip_lanes<const W: usize>(
    dst: &mut [f64; W],
    a: &[f64; W],
    b: &[f64; W],
    f: impl Fn(f64, f64) -> f64,
) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// Level-0 kernel: the stored coefficient prefixes of the summaries of
/// `W` raw-value pairs at once.
///
/// Lane `w` summarizes `(newer[w], older[w])` — the SWAT convention where
/// the newer value arrived later. Each summary keeps `min(k, 2)`
/// coefficients: the average `(newer + older) * 0.5` and, if the budget
/// allows, the detail `(newer - older) * 0.5` — bit-identical to
/// `HaarCoeffs::merge(scalar(newer), scalar(older), k)`. Writes
/// `min(k, 2)` lanes into `out`.
///
/// # Panics
///
/// Panics if `k == 0` or `out` is shorter than `min(k, 2)` lanes.
#[inline]
pub fn forward_block<const W: usize>(
    newer: &[f64; W],
    older: &[f64; W],
    k: usize,
    out: &mut [[f64; W]],
) {
    assert!(k > 0, "zero coefficient budget");
    zip_lanes(&mut out[0], newer, older, |n, o| (n + o) * 0.5);
    if k > 1 {
        zip_lanes(&mut out[1], newer, older, |n, o| (n - o) * 0.5);
    }
}

/// The sibling merge of `W` summary pairs without a compiled plan: the
/// parent prefix `out` (its length is the parent's stored count) of
/// `newer` and `older`, lane by lane — the merge core
/// [`crate::HaarCoeffs::merge`] runs, over lanes, so bit-identical to it
/// and to [`PairMergePlan::merge_one`]. For a one-off merge, where compiling a
/// plan would cost more than the merge.
///
/// # Panics
///
/// Panics if `out`, `newer` or `older` is empty.
#[inline]
pub fn merge_pair<const W: usize>(newer: &[[f64; W]], older: &[[f64; W]], out: &mut [[f64; W]]) {
    merge_core(newer, older, out);
}

/// One coefficient of the summaries a merge writes at once: `f64` for
/// one summary, `[f64; W]` for a lane of `W`.
pub(crate) trait Lane: Copy {
    /// The coefficient a child reads as past its stored prefix.
    const ZERO: Self;
    /// `f(a, b)` element by element.
    fn zip(a: &Self, b: &Self, f: impl Fn(f64, f64) -> f64) -> Self;
}

impl Lane for f64 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn zip(a: &Self, b: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        f(*a, *b)
    }
}

impl<const W: usize> Lane for [f64; W] {
    const ZERO: Self = [0.0; W];
    #[inline(always)]
    fn zip(a: &Self, b: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut out = [0.0; W];
        zip_lanes(&mut out, a, b, f);
        out
    }
}

/// The merge core every plan-free merge runs, [`crate::HaarCoeffs::merge`]
/// (`L = f64`) and [`merge_pair`] (`L = [f64; W]`) alike: write all
/// `out.len()` parent coefficients of `newer` and `older` — the root
/// average, the depth-1 detail, then the children's detail blocks
/// interleaved breadth-first, newer first, a child read past its stored
/// prefix as `+0.0`. One code path is what makes every merge entry point
/// bit-identical.
///
/// # Panics
///
/// Panics if `out`, `newer` or `older` is empty.
#[inline]
pub(crate) fn merge_core<L: Lane>(newer: &[L], older: &[L], out: &mut [L]) {
    // Root and depth-1 detail from the children's averages.
    out[0] = L::zip(&newer[0], &older[0], |n, o| (n + o) * 0.5);
    if let Some(detail) = out.get_mut(1) {
        *detail = L::zip(&newer[0], &older[0], |n, o| (n - o) * 0.5);
    }
    // Up to four coefficients, depth 2 is one detail from each child:
    // plain stores, where the loop below would copy and fill
    // one-element slices.
    if out.len() <= 4 {
        for (dst, src) in out.iter_mut().skip(2).zip([newer, older]) {
            *dst = src.get(1).copied().unwrap_or(L::ZERO);
        }
        return;
    }
    // Parent depth-j block (j >= 2, BFS offset 2^(j-1), size 2^(j-1)) is
    // the concatenation of the children's depth-(j-1) blocks (offset and
    // size 2^(j-2) each), newer child first. A child whose stored prefix
    // ends inside (or before) its block reads as zero detail from there
    // on. `out` is at most twice a child's length long, so the blocks run
    // out exactly when it does.
    let (mut at, mut block) = (2, 1);
    while at < out.len() {
        for src in [newer, older] {
            let want = block.min(out.len() - at);
            let stored = src.get(block..).unwrap_or(&[]);
            let have = stored.len().min(want);
            out[at..at + have].copy_from_slice(&stored[..have]);
            out[at + have..at + want].fill(L::ZERO);
            at += want;
        }
        block *= 2;
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
/// Compiling the plan once per tree level and replaying it over lanes
/// turns the scalar merge's nested branchy loops into a flat op list
/// whose every op is one vectorized copy or one vectorized
/// add-and-halve over `W` summaries — with bit-identical output (see the
/// module docs).
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

    /// Stored coefficient count of each child entry (the slab stride, in
    /// lanes).
    #[inline]
    pub fn child_stored(&self) -> usize {
        self.child_stored
    }

    /// Number of parent coefficients produced per pair (the output
    /// stride, in lanes).
    #[inline]
    pub fn parent_stored(&self) -> usize {
        self.ops.len()
    }

    /// Merge one pair of entries of `W` summaries: `newer`/`older` are
    /// stored prefixes of [`Self::child_stored`] lanes, `out` receives
    /// [`Self::parent_stored`] parent lanes. Lane `w` of the output is the
    /// merge of lane `w` of the inputs.
    ///
    /// # Panics
    ///
    /// Panics if any slice is shorter than the plan requires.
    #[inline]
    pub fn merge_one<const W: usize>(
        &self,
        newer: &[[f64; W]],
        older: &[[f64; W]],
        out: &mut [[f64; W]],
    ) {
        let newer = &newer[..self.child_stored];
        let older = &older[..self.child_stored];
        for (dst, op) in out[..self.ops.len()].iter_mut().zip(&self.ops) {
            match *op {
                PairOp::Avg => zip_lanes(dst, &newer[0], &older[0], |n, o| (n + o) * 0.5),
                PairOp::Diff => zip_lanes(dst, &newer[0], &older[0], |n, o| (n - o) * 0.5),
                PairOp::Newer(q) => *dst = newer[q as usize],
                PairOp::Older(q) => *dst = older[q as usize],
                PairOp::Zero => *dst = [0.0; W],
            }
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
    /// lanes or `out` shorter than `pairs * parent_stored`.
    pub fn merge_adjacent<const W: usize>(
        &self,
        children: &[[f64; W]],
        out: &mut [[f64; W]],
        pairs: usize,
    ) {
        let cs = self.child_stored;
        let ps = self.ops.len();
        let children = &children[..pairs * 2 * cs];
        let out = &mut out[..pairs * ps];
        for (o, pair) in out.chunks_exact_mut(ps).zip(children.chunks_exact(2 * cs)) {
            let (older, newer) = pair.split_at(cs);
            self.merge_one(newer, older, o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::HaarCoeffs;

    /// Entry `e`, coefficient `i`, lane `w` of a deterministic test slab.
    fn coefficient(e: usize, i: usize, w: usize) -> f64 {
        ((e * 31 + i * 7 + w * 13 + 3) % 23) as f64 - 11.0 + (i as f64) * 0.125 - (w as f64) * 0.5
    }

    /// `count` entries of `stored` lanes each.
    fn lanes<const W: usize>(stored: usize, count: usize) -> Vec<Vec<[f64; W]>> {
        (0..count)
            .map(|e| {
                (0..stored)
                    .map(|i| std::array::from_fn(|w| coefficient(e, i, w)))
                    .collect()
            })
            .collect()
    }

    /// Lane `w` of a prefix, as the scalar path stores it.
    fn column<const W: usize>(prefix: &[[f64; W]], w: usize) -> Vec<f64> {
        prefix.iter().map(|lane| lane[w]).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn forward_matches<const W: usize>() {
        let value = |i: usize| ((i * 13 + 5) % 41) as f64 - 20.0;
        // Signed zeros and a cancelling pair too: the operand order shows.
        let extremes = [(-0.0, 0.0), (0.0, -0.0), (1e300, 1e300), (0.1, 0.2)];
        for k in [1usize, 2, 3, 8] {
            let keep = k.min(2);
            for pair in 0..8 {
                let newer: [f64; W] = std::array::from_fn(|w| match extremes.get(w) {
                    Some(&(n, _)) if pair == 0 => n,
                    _ => value(2 * (pair * W + w) + 1),
                });
                let older: [f64; W] = std::array::from_fn(|w| match extremes.get(w) {
                    Some(&(_, o)) if pair == 0 => o,
                    _ => value(2 * (pair * W + w)),
                });
                let mut out = vec![[f64::NAN; W]; keep];
                forward_block(&newer, &older, k, &mut out);
                for w in 0..W {
                    let scalar = HaarCoeffs::merge(
                        &HaarCoeffs::scalar(newer[w]),
                        &HaarCoeffs::scalar(older[w]),
                        k,
                    )
                    .unwrap();
                    assert_eq!(
                        bits(&column(&out, w)),
                        bits(scalar.coefficients()),
                        "W={W} k={k} pair={pair} lane={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_block_matches_scalar_merge() {
        forward_matches::<1>();
        forward_matches::<16>();
    }

    fn plan_matches<const W: usize>() {
        // Every (child_len, k) combination the tree can produce: children
        // store min(k, child_len) coefficients.
        for log_len in 1..=5u32 {
            let child_len = 1usize << log_len;
            for k in [1usize, 2, 3, 4, 5, 7, 8, 16, 64] {
                let stored = k.min(child_len);
                let plan = PairMergePlan::new(child_len, stored, k).unwrap();
                let ps = plan.parent_stored();
                assert_eq!(ps, k.min(2 * child_len));
                let entries = lanes::<W>(stored, 8);
                let mut out = vec![[f64::NAN; W]; ps];
                for pair in entries.chunks(2) {
                    let (older, newer) = (&pair[0], &pair[1]);
                    plan.merge_one(newer, older, &mut out);
                    for w in 0..W {
                        let a = HaarCoeffs::from_parts(child_len, column(newer, w)).unwrap();
                        let b = HaarCoeffs::from_parts(child_len, column(older, w)).unwrap();
                        let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
                        assert_eq!(merged.stored(), ps, "child_len={child_len} k={k}");
                        assert_eq!(
                            bits(&column(&out, w)),
                            bits(merged.coefficients()),
                            "W={W} child_len={child_len} k={k} lane={w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_matches_merge_bit_for_bit() {
        plan_matches::<1>();
        plan_matches::<16>();
    }

    fn adjacent_matches<const W: usize>() {
        let child_len = 8;
        for k in [1usize, 3, 8, 16] {
            let stored = k.min(child_len);
            let plan = PairMergePlan::new(child_len, stored, k).unwrap();
            let ps = plan.parent_stored();
            let entries = lanes::<W>(stored, 12);
            let slab: Vec<[f64; W]> = entries.iter().flatten().copied().collect();
            let pairs = entries.len() / 2;
            let mut blocked = vec![[f64::NAN; W]; pairs * ps];
            plan.merge_adjacent(&slab, &mut blocked, pairs);
            let mut one = vec![[f64::NAN; W]; ps];
            for i in 0..pairs {
                plan.merge_one(&entries[2 * i + 1], &entries[2 * i], &mut one);
                assert_eq!(
                    &blocked[i * ps..(i + 1) * ps],
                    &one[..],
                    "W={W} k={k} pair={i}"
                );
            }
        }
    }

    #[test]
    fn merge_adjacent_matches_merge_one() {
        adjacent_matches::<1>();
        adjacent_matches::<16>();
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
        let newer = [[3.5], [-1.25]];
        let older = [[-0.5], [2.0]];
        let mut out = vec![[f64::NAN]; plan.parent_stored()];
        plan.merge_one(&newer, &older, &mut out);
        let a = HaarCoeffs::from_parts(child_len, column(&newer, 0)).unwrap();
        let b = HaarCoeffs::from_parts(child_len, column(&older, 0)).unwrap();
        let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
        assert_eq!(column(&out, 0), merged.coefficients());
    }

    fn pair_matches<const W: usize>() {
        for child_len in [1usize, 2, 4, 8, 32] {
            for k in [1usize, 2, 3, 4, 5, 8, 17, 64] {
                let cs = k.min(child_len);
                let plan = PairMergePlan::new(child_len, cs, k).unwrap();
                let entries = lanes::<W>(cs, 2);
                let mut want = vec![[f64::NAN; W]; plan.parent_stored()];
                plan.merge_one(&entries[1], &entries[0], &mut want);
                let mut got = vec![[f64::NAN; W]; plan.parent_stored()];
                merge_pair(&entries[1], &entries[0], &mut got);
                for w in 0..W {
                    assert_eq!(bits(&column(&got, w)), bits(&column(&want, w)));
                }
            }
        }
        // A short child reads as zeros past its prefix, like the plan.
        let plan = PairMergePlan::new(8, 2, 8).unwrap();
        let entries = lanes::<W>(2, 2);
        let mut want = vec![[f64::NAN; W]; 8];
        plan.merge_one(&entries[1], &entries[0], &mut want);
        let mut got = vec![[f64::NAN; W]; 8];
        merge_pair(&entries[1], &entries[0], &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn merge_pair_matches_the_plan_bit_for_bit() {
        pair_matches::<1>();
        pair_matches::<16>();
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
        forward_block(&[1.0], &[2.0], 0, &mut [[0.0]; 2]);
    }
}
