//! The blocked (chunked) ingest fast path, and the frozen scalar
//! reference it is property-tested against.
//!
//! # The blocked cascade
//!
//! The scalar update ([`SwatTree::push`]) does per-arrival work: step
//! level 0's slot order, overwrite the newest, and walk the cascade doing
//! the same with one merge per refreshed level. Correct and `O(k)`
//! amortized — but branchy and opaque to the vectorizer.
//!
//! The blocked path runs over a *block* of `W` trees that share a clock —
//! one tree for [`SwatTree::push_batch`], sixteen streams of a
//! [`StreamSet`](crate::StreamSet) for
//! [`extend_rows`](crate::StreamSet::extend_rows). It splits the rows into
//! chunks of `C = 2^L` aligned to the clock (`t0 ≡ 0 (mod C)`) and runs
//! each chunk's *entire* cascade level by level over *lanes*
//! (`swat_wavelet::block`): a lane is `[f64; W]`, one coefficient or range
//! bound of the block's `W` summaries with the tree index innermost, so
//! each op of a precompiled merge plan is decoded once and applied to `W`
//! trees as one loop the optimizer vectorizes.
//!
//! * Level 0: the summaries of even arrivals `t0 + 2m` come straight off
//!   the rows — `W` contiguous values of each — as `avg`/`det` lanes
//!   ([`forward_block`]) plus `min`/`max` range lanes. Odd arrivals'
//!   summaries are skipped — they never feed a higher level, and only the
//!   one at `t0 + C − 1` can survive into the final slab, where it is
//!   computed directly.
//! * Level `l ≥ 1` refreshes at `t0 + n·2^l`, merging the child level's
//!   summaries created at that instant and `2^l` earlier. Only the
//!   *even*-`n` refreshes feed level `l + 1`, and they form the slab
//!   `F_l[m] =` (level-`l` summary at `t0 + m·2^(l+1)`) `=
//!   merge(F_{l−1}[2m], F_{l−1}[2m−1])` — adjacent entries of the child
//!   slab, computed by one precompiled [`PairMergePlan`] sweep.
//! * Each level then installs its *slab tail*: the last
//!   `min(capacity, refreshes)` summaries of the chunk, which is exactly
//!   what the per-arrival pushes would have retained. Odd-`n` tail
//!   entries are merged on the spot from the child slab, as lanes too;
//!   the `n = 1` entry reads the child's newest summary as of `t0` (slab
//!   slot 0, copied in before any mutation). Installing an entry copies
//!   each tree's lane out into the slot its level refreshes next.
//! * Refreshes taller than the chunk (when `2^(L+1) | t0 + C`) finish
//!   through the ordinary scalar cascade, tree by tree.
//!
//! Unaligned batch heads and sub-chunk tails take the scalar path value by
//! value, every tree of the block alike. A tree whose chunk-start slab
//! state fails verification — only a hand-restored tree can — takes the
//! scalar path alone for that chunk while the rest of its block installs
//! lanes, so any batch decomposition and any block yields the same trees.
//!
//! # Bit-identity
//!
//! The result is **bit-identical** to the scalar path — every lane op is
//! the scalar expression with the scalar operand order (`(n + o) * 0.5`,
//! `(n - o) * 0.5`, `n.min(o)`), truncation commutes with the blocked
//! merge (see `swat_wavelet::block`), and the range lanes replay
//! `ValueRange::of`/`union` exactly. The frozen copy of the pre-block
//! scalar path lives in [`reference`](mod@reference) and the
//! `ingest_equivalence` property suite pins the two together node by
//! node across window sizes, budgets, chunk alignments, stream counts,
//! and interleaved `push`/`push_batch` call patterns.

use std::cell::RefCell;

use crate::node::Summary;
use crate::tree::SwatTree;
use swat_wavelet::{forward_block, PairMergePlan};

/// Chunks below this size are ingested value by value: the blocked
/// bookkeeping would cost more than it saves, and the level-0 tail
/// construction may reach before the chunk.
const MIN_BLOCK: usize = 8;

/// Default upper bound on the blocked chunk size of one tree (values per
/// cascade sweep): large enough to amortize per-level bookkeeping, small
/// enough that a chunk's lanes stay cache-resident.
const DEFAULT_MAX_CHUNK: usize = 1024;

/// The `extend` staging buffer size.
const EXTEND_BUF: usize = DEFAULT_MAX_CHUNK;

/// One level's lanes: entry `m` holds the stored coefficient prefix
/// (`kl` lanes, `kl` = the level's stored count) and the range bounds of
/// the block's summaries created at `t0 + m * 2^(l+1)`.
#[derive(Debug, Default, Clone)]
struct Slab<const W: usize> {
    coeffs: Vec<[f64; W]>,
    lo: Vec<[f64; W]>,
    hi: Vec<[f64; W]>,
}

/// Reusable lanes and merge plans of the blocked cascade over `W` trees.
/// Every buffer grows to a high-water mark set by the chunk cap and the
/// budget and is reused, so steady-state ingest allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct LaneScratch<const W: usize> {
    max_chunk: usize,
    slabs: Vec<Slab<W>>,
    /// `plans[l - 1]` merges level-`(l-1)` siblings into level `l`.
    plans: Vec<PairMergePlan>,
    /// Budget the plans were compiled for.
    plan_k: usize,
    /// One odd tail entry's coefficient lanes.
    odd: Vec<[f64; W]>,
}

impl<const W: usize> LaneScratch<W> {
    /// Empty lanes for chunks of at most `max_chunk` rows (a power of two
    /// `>= MIN_BLOCK`). Allocates nothing until first use.
    pub(crate) fn new(max_chunk: usize) -> Self {
        debug_assert!(max_chunk >= MIN_BLOCK && max_chunk.is_power_of_two());
        LaneScratch {
            max_chunk,
            slabs: Vec::new(),
            plans: Vec::new(),
            plan_k: 0,
            odd: Vec::new(),
        }
    }

    /// Size lanes and plans for a chunk of `c` rows under budget `k`,
    /// with materialized slabs for levels `0..=l_cap` and merge plans for
    /// parent levels `1..=l_top`.
    fn prepare(&mut self, k: usize, l_cap: usize, l_top: usize, c: usize) {
        if self.plan_k != k {
            self.plans.clear();
            self.plan_k = k;
        }
        while self.plans.len() < l_top {
            let child_len = 1usize << (self.plans.len() + 1);
            self.plans.push(
                PairMergePlan::new(child_len, k.min(child_len), k)
                    .expect("positive budget, power-of-two child"),
            );
        }
        if self.slabs.len() < l_cap + 1 {
            self.slabs.resize_with(l_cap + 1, Slab::default);
        }
        for (l, slab) in self.slabs.iter_mut().enumerate().take(l_cap + 1) {
            let entries = (c >> (l + 1)) + 1;
            let kl = k.min(1 << (l + 1));
            if slab.coeffs.len() < entries * kl {
                slab.coeffs.resize(entries * kl, [0.0; W]);
            }
            if slab.lo.len() < entries {
                slab.lo.resize(entries, [0.0; W]);
                slab.hi.resize(entries, [0.0; W]);
            }
        }
        if self.odd.len() < k {
            self.odd.resize(k, [0.0; W]);
        }
    }
}

/// Reusable buffers for the blocked ingest path of one tree — the
/// ingestion counterpart of [`crate::QueryScratch`].
///
/// [`SwatTree::push_batch`] borrows a thread-local scratch
/// automatically; callers driving many trees from one loop (or wanting a
/// non-default chunk size) can own one and use
/// [`SwatTree::push_batch_with_scratch`]. All buffers grow to a
/// high-water mark and are reused, so steady-state batched ingestion
/// performs no heap allocation (see `tests/ingest_alloc.rs`).
#[derive(Debug, Clone)]
pub struct IngestScratch {
    lanes: LaneScratch<1>,
    /// Staging buffer for the iterator-fed `extend` path.
    buf: Vec<f64>,
}

impl Default for IngestScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl IngestScratch {
    /// An empty scratch with the default chunk size. Allocates nothing
    /// until first use.
    pub fn new() -> Self {
        IngestScratch {
            lanes: LaneScratch::new(DEFAULT_MAX_CHUNK),
            buf: Vec::new(),
        }
    }

    /// An empty scratch whose blocked chunks are capped at `max_chunk`
    /// values (rounded down to a power of two, clamped to
    /// `[8, 1_048_576]`) — `ingest_equivalence` sweeps this to put chunk
    /// boundaries at every alignment.
    pub fn with_max_chunk(max_chunk: usize) -> Self {
        let clamped = max_chunk.clamp(MIN_BLOCK, 1 << 20);
        IngestScratch {
            lanes: LaneScratch::new(floor_pow2(clamped)),
            buf: Vec::new(),
        }
    }

    /// The configured chunk cap.
    pub fn max_chunk(&self) -> usize {
        self.lanes.max_chunk
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<IngestScratch> = RefCell::new(IngestScratch::new());
}

/// Run `f` with this thread's shared ingest scratch. Callers must not
/// run user code (iterators, callbacks) inside `f` — the scratch is a
/// `RefCell` and re-entry would double-borrow.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut IngestScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Largest power of two `<= x` (`x >= 1`).
fn floor_pow2(x: usize) -> usize {
    debug_assert!(x >= 1);
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

/// The next chunk length for a stream at clock `t` with `remaining`
/// values left: the largest power of two dividing `t` (anything for
/// `t = 0`), capped by the remaining input and the scratch's chunk cap.
/// A result below [`MIN_BLOCK`] means "ingest one value the scalar way
/// and retry" — at most `MIN_BLOCK - 1` consecutive times, after which
/// `t` is aligned.
fn chunk_len(t: u64, remaining: usize, max_chunk: usize) -> usize {
    debug_assert!(remaining > 0);
    let align = if t == 0 {
        max_chunk
    } else {
        1usize << t.trailing_zeros().min(30)
    };
    align.min(max_chunk).min(floor_pow2(remaining))
}

impl SwatTree {
    /// The chunk loop behind every batched entry point of one tree: the
    /// blocked cascade with a block of one. Callers have validated
    /// finiteness.
    pub(crate) fn push_batch_core(&mut self, values: &[f64], scratch: &mut IngestScratch) {
        ingest_block(std::slice::from_mut(self), values, 1, 0, &mut scratch.lanes);
    }
}

/// Ingest `rows` into `trees`, a block of at most `W` trees that share a
/// clock: tree `i` takes value `rows[r * stride + first + i]` of each row
/// `r`. Blocked cascades over aligned chunks, scalar pushes for
/// everything else. Callers have validated finiteness.
pub(crate) fn ingest_block<const W: usize>(
    trees: &mut [SwatTree],
    rows: &[f64],
    stride: usize,
    first: usize,
    scratch: &mut LaneScratch<W>,
) {
    debug_assert!((1..=W).contains(&trees.len()) && first + trees.len() <= stride);
    debug_assert!(
        trees.iter().all(|tree| tree.t == trees[0].t),
        "a block shares one clock"
    );
    let k = trees[0].config.coefficients();
    let n_rows = rows.len() / stride;
    let mut r = 0;
    while r < n_rows {
        let c = chunk_len(trees[0].t, n_rows - r, scratch.max_chunk);
        if c < MIN_BLOCK {
            // Unaligned head or sub-chunk tail: one scalar push realigns
            // the clock for the next round.
            for (tree, &v) in trees.iter_mut().zip(&rows[r * stride + first..]) {
                tree.push_one(v, k);
            }
            r += 1;
        } else {
            let chunk = &rows[r * stride..(r + c) * stride];
            push_chunk_blocked(trees, chunk, stride, first, k, scratch);
            r += c;
        }
    }
}

/// One row's values for a block of trees, zero-padded past the block's
/// last tree.
#[inline]
fn lane<const W: usize>(values: &[f64]) -> [f64; W] {
    <[f64; W]>::try_from(values).unwrap_or_else(|_| {
        let mut lane = [0.0; W];
        lane[..values.len()].copy_from_slice(values);
        lane
    })
}

/// `newer.min(older)` per lane: `ValueRange::of(&[newer, older])` and
/// `newer.union(older)`, operand order included — it decides which zero
/// a `[-0.0, 0.0]` bound keeps.
#[inline]
fn lanes_min<const W: usize>(newer: &[f64; W], older: &[f64; W]) -> [f64; W] {
    std::array::from_fn(|w| newer[w].min(older[w]))
}

/// `newer.max(older)` per lane (see [`lanes_min`]).
#[inline]
fn lanes_max<const W: usize>(newer: &[f64; W], older: &[f64; W]) -> [f64; W] {
    std::array::from_fn(|w| newer[w].max(older[w]))
}

/// The child-level summary a tail merge at `t0` reads (level `cl`'s
/// newest), if it is the one a stream-grown tree holds there.
fn boundary_summary(tree: &SwatTree, cl: usize, t0: u64, k: usize) -> Option<&Summary> {
    tree.summary_at(cl, 0).filter(|s| {
        s.created_at() == t0
            && s.coeffs().len() == 1 << (cl + 1)
            && s.coeffs().stored() == k.min(1 << (cl + 1))
    })
}

/// Write one tail entry — coefficient lanes and range lanes — into the
/// slot level `l` of every lane-taking tree refreshes next.
#[inline]
fn install<const W: usize>(
    trees: &mut [SwatTree],
    takes_lanes: &[bool; W],
    l: usize,
    coeffs: &[[f64; W]],
    lo: &[f64; W],
    hi: &[f64; W],
    created: u64,
) {
    for (w, tree) in trees.iter_mut().enumerate() {
        if takes_lanes[w] {
            tree.levels[l]
                .refresh(l, &mut tree.order)
                .set_lane(coeffs, w, lo[w], hi[w], created);
        }
    }
}

/// Ingest one aligned power-of-two chunk of rows into a block of trees
/// through the blocked cascade. A tree whose chunk-start slab state fails
/// verification takes the chunk through the scalar path instead.
fn push_chunk_blocked<const W: usize>(
    trees: &mut [SwatTree],
    chunk: &[f64],
    stride: usize,
    first: usize,
    k: usize,
    scratch: &mut LaneScratch<W>,
) {
    let c = chunk.len() / stride;
    debug_assert!(c >= MIN_BLOCK && c.is_power_of_two());
    let width = trees.len();
    let t0 = trees[0].t;
    debug_assert_eq!(t0 % c as u64, 0, "chunks start aligned");
    // Every tree of a block has the same shape: one tree's answers
    // capacity questions for all.
    let order = trees[0].order;
    let n_levels = trees[0].levels.len();
    let big_l = c.trailing_zeros() as usize;
    // Highest level refreshed within the chunk, and the highest one
    // whose slab of even refreshes is materialized (the chunk-top level
    // refreshes at most twice; its entries are built one pair at a time).
    let l_top = big_l.min(n_levels - 1);
    let l_cap = l_top.min(big_l - 1);
    // On a cold stream the refresh at t0 + 2^l is still warming (level l
    // first refreshes at t = 2^(l+1)); for t0 >= c every in-chunk refresh
    // is valid.
    let n_min: usize = if t0 == 0 { 2 } else { 1 };
    let row = |r: usize| lane::<W>(&chunk[r * stride + first..][..width]);

    // Level l's tail includes the n = 1 refresh exactly when the chunk's
    // refresh count fits in its slab; that merge reads the child level's
    // newest summary as of t0. Which levels need one is a matter of
    // shape; whether it is there, of each tree — a stream-grown tree
    // always passes.
    let mut boundary = [false; 64];
    if t0 > 0 {
        for l in 1..=l_top {
            boundary[l - 1] = c >> l <= order.capacity(l);
        }
    }
    let mut takes_lanes = [false; W];
    for (ok, tree) in takes_lanes.iter_mut().zip(trees.iter()) {
        *ok = (0..l_top).all(|cl| !boundary[cl] || boundary_summary(tree, cl, t0, k).is_some());
    }

    scratch.prepare(k, l_cap, l_top, c);
    let LaneScratch {
        slabs, plans, odd, ..
    } = scratch;

    // Level-0 lanes: summaries of the even arrivals t0 + 2m, m = 1..=c/2,
    // straight off the rows. Entry m pairs row 2m-1 (newer) with row 2m-2
    // (older).
    let k0 = k.min(2);
    {
        let slab = &mut slabs[0];
        let entries = (slab.coeffs[k0..].chunks_exact_mut(k0))
            .zip(&mut slab.lo[1..])
            .zip(&mut slab.hi[1..]);
        for (((coeffs, lo), hi), pair) in entries.zip(chunk.chunks_exact(2 * stride)) {
            let older = lane::<W>(&pair[first..][..width]);
            let newer = lane::<W>(&pair[stride + first..][..width]);
            forward_block(&newer, &older, k, coeffs);
            *lo = lanes_min(&newer, &older);
            *hi = lanes_max(&newer, &older);
        }
    }
    // Chunk-start boundary summaries (slab slot 0) where a tail merge will
    // read them — copied before any tree changes.
    for (cl, slab) in slabs.iter_mut().enumerate().take(l_cap + 1) {
        if !boundary[cl] {
            continue;
        }
        for (w, tree) in trees.iter().enumerate() {
            if let Some(s) = boundary_summary(tree, cl, t0, k) {
                for (lane, &v) in slab.coeffs.iter_mut().zip(s.coeffs().coefficients()) {
                    lane[w] = v;
                }
                slab.lo[0][w] = s.range().lo();
                slab.hi[0][w] = s.range().hi();
            }
        }
    }

    // Higher lanes: F_l[m] = merge(F_{l-1}[2m] newer, F_{l-1}[2m-1]
    // older) — adjacent child entries once slot 0 is skipped. The range
    // lanes replay right.range().union(left.range()).
    for l in 1..=l_cap {
        let kl = k.min(1 << (l + 1));
        let ck = k.min(1 << l);
        let pairs = c >> (l + 1);
        let (children, parents) = slabs.split_at_mut(l);
        let child = &children[l - 1];
        let slab = &mut parents[0];
        plans[l - 1].merge_adjacent(&child.coeffs[ck..], &mut slab.coeffs[kl..], pairs);
        for i in 0..pairs {
            slab.lo[i + 1] = lanes_min(&child.lo[2 * i + 2], &child.lo[2 * i + 1]);
            slab.hi[i + 1] = lanes_max(&child.hi[2 * i + 2], &child.hi[2 * i + 1]);
        }
    }

    // Install level 0's slab tail: the last min(capacity, 3) of the
    // chunk's per-arrival summaries — created at t0+c-2 (even), t0+c-1
    // (odd, computed here from the rows), t0+c (even). Level 0 keeps
    // three unless it is the top level, which keeps one.
    {
        let slab = &slabs[0];
        let m = c / 2;
        let t_end = t0 + c as u64;
        if order.capacity(0) == 3 {
            let coeffs = &slab.coeffs[(m - 1) * k0..][..k0];
            let (lo, hi) = (&slab.lo[m - 1], &slab.hi[m - 1]);
            install(trees, &takes_lanes, 0, coeffs, lo, hi, t_end - 2);
            let (newer, older) = (row(c - 2), row(c - 3));
            forward_block(&newer, &older, k, &mut odd[..k0]);
            let (lo, hi) = (lanes_min(&newer, &older), lanes_max(&newer, &older));
            install(trees, &takes_lanes, 0, &odd[..k0], &lo, &hi, t_end - 1);
        }
        let coeffs = &slab.coeffs[m * k0..][..k0];
        let (lo, hi) = (&slab.lo[m], &slab.hi[m]);
        install(trees, &takes_lanes, 0, coeffs, lo, hi, t_end);
    }

    // Install levels 1..=l_top: each level's last min(capacity, valid
    // refreshes), oldest first — exactly what the scalar per-arrival
    // pushes retain. None while a cold stream's tall level warms up.
    for l in 1..=l_top {
        let count = c >> l;
        let take = order.capacity(l).min((count + 1).saturating_sub(n_min));
        let kl = k.min(1 << (l + 1));
        let ck = k.min(1 << l);
        for n in (count + 1 - take)..=count {
            let created = t0 + ((n as u64) << l);
            if n % 2 == 0 && l <= l_cap {
                let (slab, m) = (&slabs[l], n / 2);
                let coeffs = &slab.coeffs[m * kl..][..kl];
                let (lo, hi) = (&slab.lo[m], &slab.hi[m]);
                install(trees, &takes_lanes, l, coeffs, lo, hi, created);
            } else {
                // Odd refresh (or the chunk-top level, whose slab is not
                // materialized): merge child entries n (newer) and n-1
                // (older) on the spot.
                let child = &slabs[l - 1];
                plans[l - 1].merge_one(
                    &child.coeffs[n * ck..][..ck],
                    &child.coeffs[(n - 1) * ck..][..ck],
                    &mut odd[..kl],
                );
                let lo = lanes_min(&child.lo[n], &child.lo[n - 1]);
                let hi = lanes_max(&child.hi[n], &child.hi[n - 1]);
                install(trees, &takes_lanes, l, &odd[..kl], &lo, &hi, created);
            }
        }
    }

    // Advance each clock past the chunk and finish any cascade taller than
    // the chunk (2^(L+1) may divide t0 + c).
    let top_refreshed = (c >> l_top) >= n_min;
    for (w, tree) in trees.iter_mut().enumerate() {
        let value = |r: usize| chunk[r * stride + first + w];
        if takes_lanes[w] {
            tree.t += c as u64;
            tree.last = Some(value(c - 1));
            if top_refreshed && l_top < n_levels - 1 {
                tree.cascade_from(l_top + 1, k);
            }
        } else {
            // Slab state a stream-grown tree cannot have (restored by
            // hand): the scalar path is the semantics.
            for r in 0..c {
                tree.push_one(value(r), k);
            }
        }
    }
}

/// Shared driver for [`SwatTree::extend`] / [`SwatTree::try_extend`]:
/// stage iterator values into aligned blocks and feed them through the
/// chunked cascade. Returns `Some(position)` of the first non-finite
/// value (everything before it has been ingested), `None` if the whole
/// sequence was finite.
///
/// The staging buffer is taken *out* of the thread-local scratch while
/// the user's iterator runs, so iterator code that itself ingests (into
/// this or another tree) cannot double-borrow the scratch.
pub(crate) fn extend_buffered<I: IntoIterator<Item = f64>>(
    tree: &mut SwatTree,
    values: I,
) -> Option<u64> {
    let mut buf = with_thread_scratch(|s| std::mem::take(&mut s.buf));
    buf.clear();
    buf.reserve(EXTEND_BUF);
    let mut bad = false;
    for v in values {
        if !v.is_finite() {
            bad = true;
            break;
        }
        buf.push(v);
        if buf.len() == EXTEND_BUF {
            with_thread_scratch(|s| tree.push_batch_core(&buf, s));
            buf.clear();
        }
    }
    if !buf.is_empty() {
        with_thread_scratch(|s| tree.push_batch_core(&buf, s));
        buf.clear();
    }
    let position = bad.then_some(tree.t);
    with_thread_scratch(|s| s.buf = buf);
    position
}

pub mod reference {
    //! The **frozen** scalar ingest path, snapshotted before the blocked
    //! cascade landed.
    //!
    //! This module is the before-side of the freeze-the-reference
    //! discipline `crate::query::reference` established: a verbatim copy
    //! of the per-arrival update the tree shipped with, kept as (a) the
    //! bit-identity oracle the `ingest_equivalence` property suite pins
    //! [`SwatTree::push_batch`] against, and (b) the baseline the ingest
    //! bench reports speedups over. It must not be "improved" — its
    //! value is that it does not change.

    use crate::node::Summary;
    use crate::range::ValueRange;
    use crate::tree::SwatTree;
    use swat_wavelet::{HaarCoeffs, MergeScratch};

    /// Frozen [`SwatTree::push`]: one scalar per-arrival update with a
    /// call-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn push(tree: &mut SwatTree, value: f64) {
        assert!(value.is_finite(), "stream values must be finite");
        let k = tree.config.coefficients();
        let mut scratch = MergeScratch::new();
        push_one(tree, value, k, &mut scratch);
    }

    /// Frozen pre-block [`SwatTree::push_batch`]: the scalar per-value
    /// loop with hoisted budget read and one call-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite (checked up front).
    pub fn push_batch(tree: &mut SwatTree, values: &[f64]) {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "stream values must be finite"
        );
        let k = tree.config.coefficients();
        let mut scratch = MergeScratch::new();
        for &value in values {
            push_one(tree, value, k, &mut scratch);
        }
    }

    /// Frozen [`SwatTree::extend`].
    ///
    /// # Panics
    ///
    /// Panics on the first non-finite value (prior values are ingested).
    pub fn extend<I: IntoIterator<Item = f64>>(tree: &mut SwatTree, values: I) {
        let k = tree.config.coefficients();
        let mut scratch = MergeScratch::new();
        for v in values {
            assert!(v.is_finite(), "stream values must be finite");
            push_one(tree, v, k, &mut scratch);
        }
    }

    /// The frozen per-arrival update (the pre-block `push_one`: build a
    /// fresh summary, install it, recycle what it evicts — through
    /// `Level::refresh`, the one way into a slot there is).
    fn push_one(tree: &mut SwatTree, value: f64, k: usize, scratch: &mut MergeScratch) {
        debug_assert!(value.is_finite(), "callers validate finiteness");
        let prev = tree.last.replace(value);
        tree.t += 1;
        let Some(prev) = prev else {
            return; // First value ever: no pair to summarize yet.
        };
        // Level 0: summarize the two newest raw values (d_0, d_1).
        let coeffs = HaarCoeffs::merge_with(
            &HaarCoeffs::scalar(value),
            &HaarCoeffs::scalar(prev),
            k,
            scratch,
        )
        .expect("scalars always merge");
        let summary = Summary::new(coeffs, ValueRange::of(&[value, prev]), tree.t, 0);
        let evicted = std::mem::replace(tree.levels[0].refresh(0, &mut tree.order), summary);
        scratch.reclaim(evicted.into_coeffs());
        // Cascade: level l refreshes when 2^l divides t.
        let top = (tree.t.trailing_zeros() as usize).min(tree.levels.len() - 1);
        for l in 1..=top {
            let (Some(right), Some(left)) = (tree.summary_at(l - 1, 0), tree.summary_at(l - 1, 2))
            else {
                break; // Still warming up.
            };
            debug_assert_eq!(right.created_at(), tree.t);
            debug_assert_eq!(left.created_at(), tree.t - (1 << l));
            let coeffs = HaarCoeffs::merge_with(right.coeffs(), left.coeffs(), k, scratch)
                .expect("sibling blocks have equal widths");
            let range = right.range().union(left.range());
            let summary = Summary::new(coeffs, range, tree.t, l);
            let evicted = std::mem::replace(tree.levels[l].refresh(l, &mut tree.order), summary);
            scratch.reclaim(evicted.into_coeffs());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwatConfig;

    #[test]
    fn chunk_alignment_schedule() {
        // Cold stream: take the biggest chunk the input allows.
        assert_eq!(chunk_len(0, 4096, 1024), 1024);
        assert_eq!(chunk_len(0, 100, 1024), 64);
        // Odd clock: single scalar push to realign.
        assert_eq!(chunk_len(5, 1000, 1024), 1);
        // Alignment ramps with the clock's trailing zeros.
        assert_eq!(chunk_len(8, 1000, 1024), 8);
        assert_eq!(chunk_len(16, 1000, 1024), 16);
        assert_eq!(chunk_len(1024, 100_000, 1024), 1024);
        // Remaining input caps the chunk.
        assert_eq!(chunk_len(1024, 9, 1024), 8);
        assert_eq!(chunk_len(1024, 7, 1024), 4);
    }

    #[test]
    fn scratch_chunk_cap_is_clamped_pow2() {
        assert_eq!(IngestScratch::with_max_chunk(1000).max_chunk(), 512);
        assert_eq!(IngestScratch::with_max_chunk(1).max_chunk(), 8);
        assert_eq!(
            IngestScratch::with_max_chunk(usize::MAX).max_chunk(),
            1 << 20
        );
        assert_eq!(IngestScratch::new().max_chunk(), 1024);
    }

    #[test]
    fn blocked_matches_reference_smoke() {
        // The full property suite lives in tests/ingest_equivalence.rs;
        // this is the in-crate canary.
        for (n, k) in [(16usize, 1usize), (64, 8), (256, 3)] {
            let config = SwatConfig::with_coefficients(n, k).unwrap();
            let values: Vec<f64> = (0..5 * n)
                .map(|i| ((i * 37 + 11) % 97) as f64 - 48.0)
                .collect();
            let mut blocked = SwatTree::new(config);
            blocked.push_batch(&values);
            let mut frozen = SwatTree::new(config);
            reference::push_batch(&mut frozen, &values);
            assert_eq!(
                blocked.answers_digest(),
                frozen.answers_digest(),
                "n={n} k={k}"
            );
        }
    }
}
