//! The lane merge: the sibling merge of `W` summaries at once.
//!
//! A *lane* is `[f64; W]`: one coefficient of `W` summaries at once — the
//! summaries of `W` streams that share a clock, the stream index
//! innermost. A stored prefix of `kl` coefficients of `W` summaries is
//! `kl` consecutive lanes, and a slab of such entries lays them back to
//! back. [`merge_pair`] writes the parent prefix of two such prefixes,
//! every lane op applied to `W` summaries in one loop of known length,
//! which the optimizer unrolls and vectorizes; with `W = 1` the same
//! source is the per-summary kernel. It is every merge a tree runs:
//!
//! * level 0 is the merge of two one-coefficient children, the rows:
//!   `merge_pair(&[newer], &[older], &mut out[..k.min(2)])` writes the
//!   `avg`/`det` lanes of `W` raw-value pairs,
//! * a level above is the merge of two child prefixes, one pair at a
//!   time — the per-arrival cascade's and the blocked cascade's slab
//!   sweep alike.
//!
//! # Bit-identity
//!
//! [`merge_pair`] and [`crate::HaarCoeffs::merge`] run one merge core,
//! generic over the coefficient (`f64` for one summary, `[f64; W]` for a
//! lane of `W`): the root average, the depth-1 detail, then the
//! children's detail blocks interleaved breadth-first, newer first,
//! truncated at the parent budget. Each lane op is the scalar expression
//! with the scalar operand order — `(newer + older) * 0.5`,
//! `(newer - older) * 0.5`, or a verbatim copy — and Rust never
//! contracts `a * b + c` into fused multiply-adds and never reassociates
//! floating point, so lane `w` of a merge carries the bits of the scalar
//! merge of lane `w`. The tests below hold every lane against
//! `HaarCoeffs::merge` of that lane at `W = 1` and `W = 16`.
//!
//! # Why truncation commutes
//!
//! A child read past its stored prefix reads `+0.0`, the detail the
//! paper substitutes for a truncated coefficient. With the standard
//! stored count `min(k, child_len)` no read goes past it: a parent
//! coefficient at BFS position `p` reads a child position
//! `q <= p - 2^(j-2) < p < k`, and `q < child_len` because `q` lies
//! inside a depth-`(j-1)` child block. So a merge of truncated prefixes
//! is the truncated merge, and the zero padding only serves hand-made
//! children that store fewer coefficients than that.

/// The sibling merge of `W` summary pairs: the parent prefix `out` (its
/// length is the parent's stored count) of `newer` and `older`, lane by
/// lane — the merge core [`crate::HaarCoeffs::merge`] runs, over lanes,
/// so bit-identical to it. Level 0 is the merge of one-lane children.
///
/// # Panics
///
/// Panics if `out`, `newer` or `older` is empty.
#[inline(always)]
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
    /// Built by value: a local array the optimizer keeps in registers
    /// measured faster than writes through the destination, which it must
    /// assume may alias the operands.
    #[inline(always)]
    fn zip(a: &Self, b: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut out = [0.0; W];
        for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
        out
    }
}

/// `(newer + older) * 0.5`: the parent average.
#[inline(always)]
fn avg(n: f64, o: f64) -> f64 {
    (n + o) * 0.5
}

/// `(newer - older) * 0.5`: the depth-1 detail.
#[inline(always)]
fn det(n: f64, o: f64) -> f64 {
    (n - o) * 0.5
}

/// The one merge core, [`crate::HaarCoeffs::merge`] (`L = f64`) and
/// [`merge_pair`] (`L = [f64; W]`) alike: write all `out.len()` parent
/// coefficients of `newer` and `older` — the root average, the depth-1
/// detail, then the children's detail blocks interleaved breadth-first,
/// newer first, a child read past its stored prefix as `+0.0`.
///
/// # Panics
///
/// Panics if `out`, `newer` or `older` is empty.
// Always inlined: each caller's shapes are fixed or loop-invariant, and
// left to the inliner, whether a caller inlined it changed from build to
// build with the codegen-unit split, moving `SwatTree::push_batch` by up
// to 2x (EXPERIMENTS.md "One lane merge").
#[inline(always)]
pub(crate) fn merge_core<L: Lane>(newer: &[L], older: &[L], out: &mut [L]) {
    // Four coefficients from children storing two or more — what every
    // level above 0 stores at k = 4: a fixed shape, no bounds to check.
    if let ([a, d, n1, o1], [n0, n, ..], [o0, o, ..]) = (&mut *out, newer, older) {
        *a = L::zip(n0, o0, avg);
        *d = L::zip(n0, o0, det);
        *n1 = *n;
        *o1 = *o;
        return;
    }
    out[0] = L::zip(&newer[0], &older[0], avg);
    if let Some(detail) = out.get_mut(1) {
        *detail = L::zip(&newer[0], &older[0], det);
    }
    // Up to four coefficients, depth 2 is one detail from each child.
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

    /// Merge `newer` and `older` (children of `child_len` values) into
    /// `keep` parent lanes and hold every lane to the scalar merge of that
    /// lane under budget `k`.
    fn assert_lanes_match<const W: usize>(
        child_len: usize,
        newer: &[[f64; W]],
        older: &[[f64; W]],
        k: usize,
    ) {
        let keep = k.min(2 * child_len);
        let mut out = vec![[f64::NAN; W]; keep];
        merge_pair(newer, older, &mut out);
        for w in 0..W {
            let a = HaarCoeffs::from_parts(child_len, column(newer, w)).unwrap();
            let b = HaarCoeffs::from_parts(child_len, column(older, w)).unwrap();
            let merged = HaarCoeffs::merge(&a, &b, k).unwrap();
            assert_eq!(
                bits(&column(&out, w)),
                bits(merged.coefficients()),
                "W={W} child_len={child_len} stored={}/{} k={k} lane={w}",
                newer.len(),
                older.len()
            );
        }
    }

    fn per_lane<const W: usize>() {
        // Every (child_len, k) combination a tree produces: children
        // store min(k, child_len) coefficients; level 0 is child_len 1.
        for log_len in 0..=5u32 {
            let child_len = 1usize << log_len;
            for k in [1usize, 2, 3, 4, 5, 7, 8, 16, 17, 64] {
                let stored = k.min(child_len);
                let entries = lanes::<W>(stored, 8);
                for pair in entries.chunks(2) {
                    assert_lanes_match(child_len, &pair[1], &pair[0], k);
                }
            }
        }
        // Short children read as zeros past their prefix: both short,
        // then each alone, under parents of three, four and more.
        for (child_len, k) in [(4usize, 3usize), (4, 4), (8, 8), (8, 12), (32, 64)] {
            let full = k.min(child_len);
            for (n, o) in [(1, 1), (2, 2), (full, 1), (1, full), (full, 2)] {
                let newer = &lanes::<W>(n, 1)[0];
                let older = &lanes::<W>(o, 2)[1];
                assert_lanes_match(child_len, newer, older, k);
            }
        }
        // Level 0 on signed zeros, a cancelling pair and values near the
        // top of the range: the operand order shows in the bits.
        let extremes = [(-0.0, 0.0), (0.0, -0.0), (1e300, 1e300), (0.1, 0.2)];
        for r in 0..extremes.len() {
            let pick = |w: usize| extremes[(w + r) % extremes.len()];
            let newer: [f64; W] = std::array::from_fn(|w| pick(w).0);
            let older: [f64; W] = std::array::from_fn(|w| pick(w).1);
            for k in [1, 2, 3, 8] {
                assert_lanes_match(1, &[newer], &[older], k);
            }
        }
    }

    #[test]
    fn merge_pair_matches_scalar_merge_per_lane() {
        per_lane::<1>();
        per_lane::<16>();
    }
}
