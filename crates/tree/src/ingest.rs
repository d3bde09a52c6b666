//! The blocked (chunked) ingest fast path, and the frozen scalar
//! reference it is property-tested against.
//!
//! # The blocked cascade
//!
//! The per-arrival update (`Block::push_one`, behind [`SwatTree::push`]
//! and [`StreamSet::push_row`](crate::StreamSet::push_row)) steps level
//! 0's slot order, overwrites the newest slot's lanes, and walks the
//! cascade doing the same with one merge per refreshed level — one lane
//! op over the block's trees at a time. Correct and `O(k)` amortized,
//! but branchy and opaque to the vectorizer along the rows.
//!
//! The blocked path runs over a *block* of `W` trees that share a clock —
//! one tree for [`SwatTree::push_batch`], sixteen streams of a
//! [`StreamSet`](crate::StreamSet) for
//! [`extend_rows`](crate::StreamSet::extend_rows); a block is also how
//! those trees are stored (`crate::block`). It splits the rows into
//! chunks of `C = 2^L` aligned to the clock (`t0 ≡ 0 (mod C)`) and runs
//! each chunk's *entire* cascade level by level over *lanes*
//! (`swat_wavelet::block`): a lane is `[f64; W]`, one coefficient or range
//! bound of the block's `W` summaries with the tree index innermost, so
//! each op of a merge is applied to `W` trees as one loop the optimizer
//! vectorizes. Every merge is [`merge_pair`], the per-arrival cascade's
//! merge too.
//!
//! * Level 0: the summaries of even arrivals `t0 + 2m` come straight off
//!   the rows — `W` contiguous values of each — as `avg`/`det` lanes
//!   (the merge of two one-lane children) plus `min`/`max` range lanes.
//!   Odd arrivals' summaries are skipped — they never feed a higher
//!   level, and only the one at `t0 + C − 1` can survive into the final
//!   slab, where it is computed directly.
//! * Level `l ≥ 1` refreshes at `t0 + n·2^l`, merging the child level's
//!   summaries created at that instant and `2^l` earlier. Only the
//!   *even*-`n` refreshes feed level `l + 1`, and they form the slab
//!   `F_l[m] =` (level-`l` summary at `t0 + m·2^(l+1)`) `=
//!   merge(F_{l−1}[2m], F_{l−1}[2m−1])` — adjacent entries of the child
//!   slab, merged pair by pair in one sweep.
//! * A slab entry is written only as far as something reads it: all
//!   `k_l` coefficient lanes where a tail slot or a tail's on-the-spot
//!   merge takes it (the last few entries of a level), else the prefix
//!   its parent's merge reads of it. Away from a chunk's end an entry is
//!   its average and its range.
//! * Each level then writes its *slab tail* in place: the last
//!   `min(capacity, refreshes)` summaries of the chunk, which is exactly
//!   what the per-arrival pushes would have retained, go lane for lane
//!   into the slots the level's refreshes hand out — a copy of whole
//!   lanes, the block's layout being the slab's. Odd-`n` tail entries are
//!   merged on the spot from the child slab, straight into their slot;
//!   the `n = 1` entry reads the child's newest summary as of `t0` (slab
//!   slot 0, copied from the block before any slot changes).
//! * Refreshes taller than the chunk (when `2^(L+1) | t0 + C`) finish
//!   through the per-arrival cascade, one lane op over the block.
//!
//! Unaligned batch heads and sub-chunk tails take the per-arrival update
//! row by row. The chunk path assumes what a stream grown from empty
//! holds at `t0`; the block header says whether its trees are such trees
//! (canonical — one check per block, since its trees share a geometry),
//! and a block restored with slots no stream puts there (by hand) takes
//! every row through the per-arrival update instead, so any batch
//! decomposition yields the same trees.
//!
//! # Bit-identity
//!
//! The result is **bit-identical** to the scalar path — every lane op is
//! the scalar expression with the scalar operand order (`(n + o) * 0.5`,
//! `(n - o) * 0.5`), truncation commutes with the blocked merge (see
//! `swat_wavelet::block`), and the range lanes replay
//! `ValueRange::of`/`union` exactly: one compare a lane that keeps the
//! newer value on a `±0` tie, as `n.min(o)` does, on values that hold no
//! NaN. The frozen copy of the pre-block
//! scalar path lives in [`reference`](mod@reference) and the
//! `ingest_equivalence` property suite pins the two together node by
//! node across window sizes, budgets, chunk alignments, stream counts,
//! and interleaved `push`/`push_batch` call patterns.

use std::cell::RefCell;
use std::ops::Range;
use std::slice::from_ref;

use crate::block::{lanes_max, lanes_min, Block, Order};
use crate::tree::SwatTree;
use swat_wavelet::merge_pair;

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

/// One level's lanes: entry `m` holds the range bounds and room for the
/// stored coefficient prefix (`kl` lanes, `kl` = the level's stored
/// count) of the block's summaries created at `t0 + m * 2^(l+1)`. A chunk
/// writes only the lanes some reader reads ([`Reads::runs`]); the rest
/// keep whatever an earlier chunk left.
#[derive(Debug, Default, Clone)]
struct Slab<const W: usize> {
    coeffs: Vec<[f64; W]>,
    lo: Vec<[f64; W]>,
    hi: Vec<[f64; W]>,
}

/// Reusable lanes of the blocked cascade over `W` trees. Every buffer
/// grows to a high-water mark set by the chunk cap and the budget and is
/// reused, so steady-state ingest allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct LaneScratch<const W: usize> {
    max_chunk: usize,
    slabs: Vec<Slab<W>>,
    /// A ragged block's chunk, one zero-padded lane per row, so the
    /// cascade reads every row as a whole lane in place.
    padded: Vec<[f64; W]>,
}

impl<const W: usize> LaneScratch<W> {
    /// Empty lanes for chunks of at most `max_chunk` rows (a power of two
    /// `>= MIN_BLOCK`). Allocates nothing until first use.
    pub(crate) fn new(max_chunk: usize) -> Self {
        debug_assert!(max_chunk >= MIN_BLOCK && max_chunk.is_power_of_two());
        LaneScratch {
            max_chunk,
            slabs: Vec::new(),
            padded: Vec::new(),
        }
    }

    /// Size lanes for a chunk of `c` rows under budget `k`, with
    /// materialized slabs for levels `0..=l_cap`.
    fn prepare(&mut self, k: usize, l_cap: usize, c: usize) {
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
        ingest_block(&mut self.block, values, 1, 0, 1, &mut scratch.lanes);
    }
}

/// Ingest `rows` into `block`, whose first `width` lanes are trees: tree
/// `w` takes value `rows[r * stride + first + w]` of each row `r`, and
/// the lanes past `width` take zeros. Blocked cascades over aligned
/// chunks, one-row lane steps for everything else. Callers have
/// validated finiteness.
pub(crate) fn ingest_block<const W: usize>(
    block: &mut Block<W>,
    rows: &[f64],
    stride: usize,
    first: usize,
    width: usize,
    scratch: &mut LaneScratch<W>,
) {
    debug_assert!((1..=W).contains(&width) && first + width <= stride);
    let n_rows = rows.len() / stride;
    let mut r = 0;
    while r < n_rows {
        let c = chunk_len(block.head.t, n_rows - r, scratch.max_chunk);
        if c < MIN_BLOCK || !block.head.order.canonical {
            // Unaligned head or sub-chunk tail: one row realigns the
            // clock for the next round. A block restored with slots no
            // stream puts there (by hand) takes every row this way: the
            // per-arrival update is the semantics.
            block.push_one(&lane(&rows[r * stride + first..][..width]));
            r += 1;
        } else {
            let chunk = &rows[r * stride..(r + c) * stride];
            if width == W {
                push_chunk_blocked(block, chunk, stride, first, scratch);
            } else {
                let mut padded = std::mem::take(&mut scratch.padded);
                padded.clear();
                padded.extend(
                    chunk
                        .chunks_exact(stride)
                        .map(|row| lane(&row[first..][..width])),
                );
                push_chunk_blocked(block, padded.as_flattened(), W, 0, scratch);
                scratch.padded = padded;
            }
            r += c;
        }
    }
}

/// The first `W` values of `values`, in place: a row's lane when every
/// lane of the block is a tree.
#[inline]
fn whole_lane<const W: usize>(values: &[f64]) -> &[f64; W] {
    values[..W].try_into().expect("W values")
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

/// Which entries of a chunk's slabs are read, and how many of their
/// coefficient lanes: one chunk's shape, the same for every block of a
/// set.
struct Reads {
    /// Rows in the chunk.
    c: usize,
    /// The budget.
    k: usize,
    /// The first in-chunk refresh index that is valid: 2 on a cold
    /// stream, else 1.
    n_min: usize,
    /// Highest level refreshed within the chunk.
    l_top: usize,
    /// Highest level whose slab is materialized.
    l_cap: usize,
    order: Order,
}

impl Reads {
    /// Coefficients a level-`l` summary stores.
    fn kept(&self, l: usize) -> usize {
        self.k.min(2 << l)
    }

    /// The first refresh index in level `l`'s tail, which holds the last
    /// `min(capacity, valid refreshes)` of the chunk's.
    fn first(&self, l: usize) -> usize {
        let count = self.c >> l;
        let take = self
            .order
            .capacity(l)
            .min((count + 1).saturating_sub(self.n_min));
        count + 1 - take
    }

    /// The first entry of slab `l` that a reader reads whole: level `l`'s
    /// tail copies entry `n / 2` for its even refreshes `n`, and level
    /// `l + 1`'s tail merges entries `n - 1` and `n` on the spot for its
    /// odd `n` (every `n` at the chunk-top level, which has no slab).
    fn whole(&self, l: usize) -> usize {
        let own = self.first(l).div_ceil(2);
        if l == self.l_top {
            return own;
        }
        let mut n = self.first(l + 1);
        if l < self.l_cap && n.is_multiple_of(2) {
            n += 1;
        }
        own.min(n - 1)
    }

    /// Hand `f` every run of slab `l`'s merged entries, `1..=c >> (l+1)`,
    /// with the coefficient prefix the run's entries must store: all
    /// `k_l` lanes from [`Self::whole`] on; below that, what the parent
    /// entry that merges it reads, [`child_prefix`] of the parent's own.
    /// Entry `m`'s ancestor `d` levels up is entry `⌈m / 2^d⌉`, so the
    /// first ancestor read whole sets the prefix. Runs go from the newest
    /// entries down.
    fn runs(&self, l: usize, mut f: impl FnMut(Range<usize>, usize)) {
        let mut end = (self.c >> (l + 1)) + 1;
        let mut start = self.whole(l).clamp(1, end);
        f(start..end, self.kept(l));
        for d in 1..=self.l_cap - l {
            let prefix = (0..d).fold(self.kept(l + d), |p, _| child_prefix(p));
            if prefix == 1 || start == 1 {
                break;
            }
            end = start;
            // ⌈m / 2^d⌉ >= w exactly when m > (w - 1) * 2^d.
            start = (((self.whole(l + d).max(1) - 1) << d) + 1).clamp(1, end);
            f(start..end, prefix);
        }
        f(1..start, 1);
    }
}

/// Lanes of each child a merge reads to write a parent prefix of `p`:
/// past the root pair, a parent's depth-`j` block is the newer child's
/// depth-`(j-1)` block and then the older's, so the newer child is read
/// furthest — `min(p - q/2, q)` lanes for the largest power of two
/// `q < p`. That is at least `⌈p/2⌉`, and more where `p` lies well inside
/// its octave: four lanes at `p = 6`, six at `p = 10`.
fn child_prefix(p: usize) -> usize {
    if p <= 2 {
        return 1;
    }
    let q = floor_pow2(p - 1);
    (p - q / 2).min(q)
}

/// Ingest one aligned power-of-two chunk of rows into a canonical block
/// through the blocked cascade, writing each level's tail in place. Tree
/// `w` takes value `chunk[r * stride + first + w]` of row `r`, for every
/// lane of the block.
fn push_chunk_blocked<const W: usize>(
    block: &mut Block<W>,
    chunk: &[f64],
    stride: usize,
    first: usize,
    scratch: &mut LaneScratch<W>,
) {
    let c = chunk.len() / stride;
    debug_assert!(c >= MIN_BLOCK && c.is_power_of_two());
    let k = block.head.k();
    let t0 = block.head.t;
    debug_assert_eq!(t0 % c as u64, 0, "chunks start aligned");
    let order = block.head.order;
    let n_levels = block.head.config.levels();
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
    let row = |r: usize| whole_lane::<W>(&chunk[r * stride + first..]);
    let reads = Reads {
        c,
        k,
        n_min,
        l_top,
        l_cap,
        order,
    };

    scratch.prepare(k, l_cap, c);
    let slabs = &mut scratch.slabs;

    // Level-0 lanes: summaries of the even arrivals t0 + 2m, m = 1..=c/2,
    // straight off the rows. Entry m pairs row 2m-1 (newer) with row 2m-2
    // (older).
    let k0 = k.min(2);
    {
        // Moved in, shapes by value: a shape the sweep reads through a
        // reference is re-read and re-checked on every entry.
        let slab = &mut slabs[0];
        reads.runs(0, move |run, prefix| {
            let entries = (slab.coeffs[run.start * k0..run.end * k0].chunks_exact_mut(k0))
                .zip(&mut slab.lo[run.clone()])
                .zip(&mut slab.hi[run.clone()]);
            let pairs = chunk[(2 * run.start - 2) * stride..].chunks_exact(2 * stride);
            for (((coeffs, lo), hi), pair) in entries.zip(pairs) {
                let older = whole_lane::<W>(&pair[first..]);
                let newer = whole_lane::<W>(&pair[stride + first..]);
                // The average alone, the bulk of every budget's entries,
                // as a fixed shape: left to a run-time length, the merge
                // takes its general path and spills its lanes.
                if prefix == 1 {
                    merge_pair(from_ref(newer), from_ref(older), &mut coeffs[..1]);
                } else {
                    merge_pair(from_ref(newer), from_ref(older), &mut coeffs[..prefix]);
                }
                *lo = lanes_min(newer, older);
                *hi = lanes_max(newer, older);
            }
        });
    }
    // Level l's tail includes the n = 1 refresh exactly when the chunk's
    // refresh count fits in its slab; that merge reads the child level's
    // newest summary as of t0 — on a canonical block, there since
    // t0 >= c >= 2^l — into slab slot 0 before any slot changes.
    if t0 > 0 {
        for (cl, slab) in slabs.iter_mut().enumerate().take(l_cap + 1) {
            if cl + 1 > l_top || c >> (cl + 1) > order.capacity(cl + 1) {
                continue;
            }
            let id = block
                .head
                .slot(cl, 0)
                .expect("a canonical block is warm below t0");
            let rows = block.rows(id);
            let kcl = k.min(2 << cl);
            slab.coeffs[..kcl].copy_from_slice(&rows[2..2 + kcl]);
            slab.lo[0] = rows[0];
            slab.hi[0] = rows[1];
        }
    }

    // Higher lanes: F_l[m] = merge(F_{l-1}[2m] newer, F_{l-1}[2m-1]
    // older) — adjacent child entries once slot 0 is skipped — each to
    // the prefix its readers read, from the children's prefix that needs.
    // The range lanes replay right.range().union(left.range()).
    for l in 1..=l_cap {
        let kl = k.min(1 << (l + 1));
        let ck = k.min(1 << l);
        let pairs = c >> (l + 1);
        let (children, parents) = slabs.split_at_mut(l);
        let child = &children[l - 1];
        let slab = &mut parents[0];
        let coeffs = &mut slab.coeffs;
        reads.runs(l, move |run, prefix| {
            let need = child_prefix(prefix);
            let siblings =
                child.coeffs[(2 * run.start - 1) * ck..(2 * run.end - 1) * ck].chunks_exact(2 * ck);
            let outs = coeffs[run.start * kl..run.end * kl].chunks_exact_mut(kl);
            for (out, pair) in outs.zip(siblings) {
                let (older, newer) = pair.split_at(ck);
                // The average alone as a fixed shape, as at level 0.
                if prefix == 1 {
                    merge_pair(&newer[..1], &older[..1], &mut out[..1]);
                } else {
                    merge_pair(&newer[..need], &older[..need], &mut out[..prefix]);
                }
            }
        });
        for i in 0..pairs {
            slab.lo[i + 1] = lanes_min(&child.lo[2 * i + 2], &child.lo[2 * i + 1]);
            slab.hi[i + 1] = lanes_max(&child.hi[2 * i + 2], &child.hi[2 * i + 1]);
        }
    }

    // Level 0's slab tail, written into the slots its refreshes hand out:
    // the last min(capacity, 3) of the chunk's per-arrival summaries —
    // created at t0+c-2 (even), t0+c-1 (odd, computed here from the
    // rows), t0+c (even). Level 0 keeps three unless it is the top level,
    // which keeps one.
    {
        let slab = &slabs[0];
        let m = c / 2;
        let t_end = t0 + c as u64;
        if order.capacity(0) == 3 {
            let slot = block.refresh(0, t_end - 2);
            slot[0] = slab.lo[m - 1];
            slot[1] = slab.hi[m - 1];
            slot[2..].copy_from_slice(&slab.coeffs[(m - 1) * k0..][..k0]);
            let (newer, older) = (row(c - 2), row(c - 3));
            let slot = block.refresh(0, t_end - 1);
            slot[0] = lanes_min(newer, older);
            slot[1] = lanes_max(newer, older);
            merge_pair(from_ref(newer), from_ref(older), &mut slot[2..]);
        }
        let slot = block.refresh(0, t_end);
        slot[0] = slab.lo[m];
        slot[1] = slab.hi[m];
        slot[2..].copy_from_slice(&slab.coeffs[m * k0..][..k0]);
    }

    // Levels 1..=l_top: each level's last min(capacity, valid refreshes),
    // oldest first — exactly what the per-arrival pushes retain. None
    // while a cold stream's tall level warms up.
    for l in 1..=l_top {
        let kl = k.min(1 << (l + 1));
        let ck = k.min(1 << l);
        for n in reads.first(l)..=c >> l {
            let slot = block.refresh(l, t0 + ((n as u64) << l));
            if n % 2 == 0 && l <= l_cap {
                let (slab, m) = (&slabs[l], n / 2);
                slot[0] = slab.lo[m];
                slot[1] = slab.hi[m];
                slot[2..].copy_from_slice(&slab.coeffs[m * kl..][..kl]);
            } else {
                // Odd refresh (or the chunk-top level, whose slab is not
                // materialized): merge child entries n (newer) and n-1
                // (older) on the spot.
                let child = &slabs[l - 1];
                merge_pair(
                    &child.coeffs[n * ck..][..ck],
                    &child.coeffs[(n - 1) * ck..][..ck],
                    &mut slot[2..],
                );
                slot[0] = lanes_min(&child.lo[n], &child.lo[n - 1]);
                slot[1] = lanes_max(&child.hi[n], &child.hi[n - 1]);
            }
        }
    }

    // Advance the clock past the chunk and finish any cascade taller than
    // the chunk (2^(L+1) may divide t0 + c).
    block.head.t += c as u64;
    block.head.has_last = true;
    block.last = *row(c - 1);
    if (c >> l_top) >= n_min && l_top < n_levels - 1 {
        block.cascade_from(l_top + 1);
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
    let position = bad.then_some(tree.arrivals());
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
    //!
    //! It runs on its own [`Tree`]: one queue of owned summaries per
    //! level, newest first, as the tree was stored before blocks. It
    //! shares no slot bookkeeping with [`SwatTree`] — no slot order, no
    //! stored counts, no lanes — so comparing a tree with it node by node
    //! checks the block's slot rotation from outside.

    use std::collections::VecDeque;

    use crate::config::SwatConfig;
    use crate::node::Summary;
    use crate::range::ValueRange;
    use crate::tree::{NodePos, SwatTree, TreeView};
    use swat_wavelet::{HaarCoeffs, MergeScratch};

    /// The reference's tree: the clock, the newest value and, per level,
    /// the retained summaries newest first (`R`, `S`, `L`; the top level
    /// keeps one).
    #[derive(Debug, Clone)]
    pub struct Tree {
        config: SwatConfig,
        t: u64,
        last: Option<f64>,
        queues: Vec<VecDeque<Summary>>,
    }

    impl Tree {
        /// An empty tree.
        pub fn new(config: SwatConfig) -> Self {
            Tree {
                config,
                t: 0,
                last: None,
                queues: vec![VecDeque::new(); config.levels()],
            }
        }

        /// A copy of `tree`'s nodes, clock and newest value: where the
        /// reference starts from a tree it did not grow (`from_window`).
        pub fn of<'a>(tree: impl Into<TreeView<'a>>) -> Self {
            let tree = tree.into();
            let mut copy = Tree::new(*tree.config());
            copy.t = tree.arrivals();
            copy.last = tree.newest();
            for (l, _, summary) in tree.nodes() {
                copy.queues[l].push_back(summary);
            }
            copy
        }

        /// Total number of arrivals observed.
        pub fn arrivals(&self) -> u64 {
            self.t
        }

        /// The newest raw value, if any.
        pub fn newest(&self) -> Option<f64> {
            self.last
        }

        /// Every retained summary in the paper's query order — levels
        /// ascending, `R → S → L` within a level.
        pub fn nodes(&self) -> impl Iterator<Item = (usize, NodePos, &Summary)> {
            self.queues.iter().enumerate().flat_map(|(l, queue)| {
                queue
                    .iter()
                    .zip(NodePos::ORDER)
                    .map(move |(s, pos)| (l, pos, s))
            })
        }

        /// The same state as a [`SwatTree`], built through the restore
        /// path: for the queries and the digest the reference does not
        /// answer itself.
        pub fn to_tree(&self) -> SwatTree {
            SwatTree::from_restored(self.config, self.t, self.last, self.queues.clone())
                .expect("a reference tree holds what a stream produces")
        }

        /// Make `summary` the newest of its level, dropping the oldest
        /// generation past the level's capacity.
        fn refresh(&mut self, summary: Summary) {
            let l = summary.level();
            let capacity = if l + 1 == self.config.levels() { 1 } else { 3 };
            let queue = &mut self.queues[l];
            queue.push_front(summary);
            queue.truncate(capacity);
        }
    }

    /// Frozen [`SwatTree::push`]: one scalar per-arrival update with a
    /// call-local scratch.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn push(tree: &mut Tree, value: f64) {
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
    pub fn push_batch(tree: &mut Tree, values: &[f64]) {
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
    pub fn extend<I: IntoIterator<Item = f64>>(tree: &mut Tree, values: I) {
        let k = tree.config.coefficients();
        let mut scratch = MergeScratch::new();
        for v in values {
            assert!(v.is_finite(), "stream values must be finite");
            push_one(tree, v, k, &mut scratch);
        }
    }

    /// The frozen per-arrival update (the pre-block `push_one`: build a
    /// fresh summary and make it its level's newest).
    fn push_one(tree: &mut Tree, value: f64, k: usize, scratch: &mut MergeScratch) {
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
        tree.refresh(summary);
        // Cascade: level l refreshes when 2^l divides t.
        let top = (tree.t.trailing_zeros() as usize).min(tree.queues.len() - 1);
        for l in 1..=top {
            let (Some(right), Some(left)) = (tree.queues[l - 1].front(), tree.queues[l - 1].get(2))
            else {
                break; // Still warming up.
            };
            debug_assert_eq!(right.created_at(), tree.t);
            debug_assert_eq!(left.created_at(), tree.t - (1 << l));
            let coeffs = HaarCoeffs::merge_with(right.coeffs(), left.coeffs(), k, scratch)
                .expect("sibling blocks have equal widths");
            let range = right.range().union(left.range());
            let summary = Summary::new(coeffs, range, tree.t, l);
            tree.refresh(summary);
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
    fn child_prefix_is_exactly_what_the_merge_reads() {
        // Children cut to child_prefix(p) lanes give the parent prefix of
        // p that whole children give; a newer child one lane shorter does
        // not. Every lane is non-zero, so a lane read as +0.0 shows.
        let newer: Vec<[f64; 1]> = (0..64).map(|i| [i as f64 + 1.5]).collect();
        let older: Vec<[f64; 1]> = (0..64).map(|i| [-(i as f64) - 0.25]).collect();
        let merge = |n: usize, o: usize, p: usize| {
            let mut out = vec![[f64::NAN]; p];
            merge_pair(&newer[..n], &older[..o], &mut out);
            out.iter().map(|[v]| v.to_bits()).collect::<Vec<_>>()
        };
        for p in 1..=64 {
            let need = child_prefix(p);
            assert_eq!(merge(need, need, p), merge(64, 64, p), "p={p}");
            if need > 1 {
                assert_ne!(merge(need - 1, need, p), merge(64, 64, p), "p={p}");
            }
        }
        // Where it is not ⌈p/2⌉: the newer child's whole depth block
        // comes before any of the older child's.
        assert_eq!([6, 10, 11, 12].map(child_prefix), [4, 6, 7, 8]);
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
            let mut frozen = reference::Tree::new(config);
            reference::push_batch(&mut frozen, &values);
            assert_eq!(
                blocked.answers_digest(),
                frozen.to_tree().answers_digest(),
                "n={n} k={k}"
            );
        }
    }
}
