//! The zero-allocation query engine: reusable scratch buffers, a cached
//! node-cover index, one value evaluator, and the set-level pass behind
//! every batched entry point.
//!
//! # Bit-identity contract
//!
//! Every evaluation path in this module produces answers
//! **bit-identical** to the frozen implementations in
//! [`crate::query::reference`]: the same greedy cover, the same traversal
//! order, the same floating-point operations in the same order. The
//! equivalence property tests in `tests/query_equivalence.rs` enforce
//! this; the engine differs from the reference only in *where the bytes
//! live* (caller-owned buffers instead of per-call `Vec`s) and in steps
//! that provably cannot change a bit (computing a point value once
//! instead of re-walking the coefficient tree for its error bound,
//! skipping the Haar steps that add a literal `0.0`, and running each
//! operation on several trees' operands at once).
//!
//! # The evaluator
//!
//! A node of level `l` stores at most `k` of the `2^(l+1)` breadth-first
//! coefficients of its piece of the window, so below depth
//! `D = ⌈log₂ min(k, 2^(l+1))⌉` every detail [`haar::point`] would add is
//! the literal `0.0`. A value is that walk from the root down to `D` plus
//! one signed-zero fix-up ([`haar::point_rows`]), clamped into the
//! node's range — `D` steps instead of `l + 1`. Where the node's piece
//! of the window starts, its width and `D` are all the walk needs besides
//! the coefficients.
//!
//! Point and inner-product answers come from one evaluator over `W`
//! lanes ([`haar::point_rows`]) that reads a piece's range and
//! coefficients where its block stores them (`crate::block`): lane row
//! `r` of the slot, `W` trees at a time. Every step — the walk, the
//! fix-up, the clamp, the error bound and an inner product's sums — is
//! the scalar expression applied to each lane, in the scalar order, so
//! every lane's answer is its tree's, bit for bit. A set pass runs it
//! over the rows of a block of sixteen; a query on one tree
//! ([`TreeView`]) runs it at `W = 1` over that tree's lane, read at the
//! block's stride.
//!
//! # The cover cache
//!
//! The paper's greedy cover has a key structural property: whether a node
//! serves window index `i` depends only on `i`, never on the other
//! queried indices — index `i` is always served by the *first* node in
//! traversal order (levels ascending, `R → S → L`, levels below
//! `min_level` skipped) whose coverage contains `i`. The engine therefore
//! precomputes a `window`-sized *serving map* (index → node slot) and
//! reproduces any query's greedy cover with one lookup per index plus a
//! stable counting sort, instead of the reference's nodes × indices scan.
//!
//! **Invalidation rule**: the cache is keyed on the exact cover geometry —
//! the window, the coefficient budget, the arrival count and the
//! `(level, created_at)` sequence of all populated nodes (and
//! `min_level`). Any `push` advances the arrival count, so every mutation
//! invalidates; the comparison is exact (no hashing), so a stale cache can
//! never be mistaken for a fresh one. Once a tree is steady
//! ([`SwatTree::is_steady`]) that node sequence is a function of the
//! window and the arrival count alone, so a map built for a steady tree is
//! accepted for any steady tree on those words, in `O(1)`; a tree that is
//! not steady (warming up, or restored from a hand-built snapshot) is
//! compared node for node.
//!
//! # The set pass
//!
//! Every stream of a [`crate::StreamSet`] shares one clock and one
//! geometry — a restore refuses a set whose streams differ — so its
//! blocks share one cover. The set pass (`QueryScratch::points_over` and
//! `inners_over`) answers a query on every stream in one pass: the index
//! checks, the serving-map lookups and the counting sort run once per
//! query, from the first block's header, and the evaluator runs over
//! each block of 16 trees (`multi::BLOCK`, the blocked cascade's width)
//! reading each piece's rows in place, one lane per tree (a ragged last
//! block's spare lanes are zeros and never written out). Answers go to a
//! flat buffer in the scratch, stream-major. A single tree's
//! [`SwatTree::point_many`] and [`SwatTree::inner_product_many`] are the
//! pass over its one-lane block.
//!
//! Single-shot queries (`point_with`, `inner_product_with`, …) instead use
//! a buffered variant of the reference scan — same `O(3 log N · M)`
//! complexity, zero allocation — so one-off queries on a churning tree
//! never pay a map rebuild.

use std::cell::RefCell;
use std::ops::Range;

use swat_wavelet::haar;

use crate::block::{Block, Head};
use crate::config::TreeError;
use crate::explain::{PlanStep, QueryPlan};
use crate::query::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch, RangeQuery,
    WeightProfile,
};
use crate::tree::{NodePos, SwatTree, TreeView};

/// Sentinel in the serving map: no eligible node covers this index.
const UNSERVED: u32 = u32::MAX;

/// A query's index vector, either explicit or an implicit contiguous
/// span (range queries and window reconstruction), so interval queries
/// never materialize `(a..=b).collect()`.
#[derive(Clone, Copy)]
pub(crate) enum IdxList<'a> {
    Slice(&'a [usize]),
    Span { first: usize, len: usize },
}

impl IdxList<'_> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            IdxList::Slice(s) => s.len(),
            IdxList::Span { len, .. } => *len,
        }
    }

    /// The window index at query position `pos`.
    #[inline]
    fn get(&self, pos: usize) -> usize {
        match self {
            IdxList::Slice(s) => s[pos],
            IdxList::Span { first, .. } => first + pos,
        }
    }

    /// [`check_indices`] over these indices: the error its walk would
    /// report first.
    fn check(&self, head: &Head) -> Result<(), TreeError> {
        match *self {
            IdxList::Slice(s) => check_indices(head, s),
            IdxList::Span { first, len } => {
                let window = head.config.window();
                if len > 0 && first + len > window {
                    // First failing index of an ascending scan.
                    return Err(TreeError::IndexOutOfWindow {
                        index: window.max(first),
                        window,
                    });
                }
                Ok(())
            }
        }
    }
}

/// Validate that every query index is inside the window.
pub(crate) fn check_indices(head: &Head, indices: &[usize]) -> Result<(), TreeError> {
    let window = head.config.window();
    for &idx in indices {
        if idx >= window {
            return Err(TreeError::IndexOutOfWindow { index: idx, window });
        }
    }
    Ok(())
}

/// [`check_indices`] over a query, exploiting the profile tag: tagged
/// profiles are contiguous ascending index runs, so one comparison
/// against the last index replaces the full scan — with the error
/// [`check_indices`]'s ascending walk would report.
fn check_query_indices(head: &Head, query: &InnerProductQuery) -> Result<(), TreeError> {
    let indices = query.indices();
    if query.profile() == WeightProfile::General {
        return check_indices(head, indices);
    }
    debug_assert!(indices.windows(2).all(|w| w[1] == w[0] + 1));
    IdxList::Span {
        first: indices[0],
        len: indices.len(),
    }
    .check(head)
}

/// One node's piece of the window at the cover's clock: where the node
/// lives in the tree, where its piece starts, and how deep its walk goes.
#[derive(Debug, Clone, Copy)]
struct Piece {
    level: usize,
    queue_index: usize,
    /// First of the node's lanes in its block (see `crate::block`), as of
    /// the block the cover was last staged for.
    at: usize,
    /// Window index of the piece's newest value.
    start: usize,
    /// `log₂` of the piece's width (`level + 1`).
    log_width: u32,
    /// Depth below which every detail of the piece is absent.
    depth: u32,
}

impl Piece {
    /// The piece the node at `(level, queue_index)`, in slot `id` of
    /// `head`, covers at `head`'s clock.
    fn new(head: &Head, level: usize, queue_index: usize, id: usize) -> Piece {
        let slot = head.slots[id];
        debug_assert!(head.t >= slot.created_at);
        let log_width = level as u32 + 1;
        Piece {
            level,
            queue_index,
            at: slot.at as usize,
            start: (head.t - slot.created_at) as usize,
            log_width,
            depth: haar::stored_depth(head.k().min(1 << log_width)),
        }
    }

    /// This piece with its lanes where `head`'s block keeps its node: two
    /// blocks with one cover geometry may keep a generation in different
    /// slots (a restored block's slot order starts afresh).
    #[inline]
    fn in_block(mut self, head: &Head) -> Piece {
        let id = head
            .slot(self.level, self.queue_index)
            .expect("cover refers to a live node");
        self.at = head.slots[id].at as usize;
        self
    }
}

/// Where the evaluator reads a staged piece's operands: lane row `r` of
/// the slot whose lanes start at `at` (row 0 the range's low bound, row 1
/// its high bound, rows 2.. the coefficients), `W` trees at a time.
trait Rows<const W: usize>: Copy {
    fn row(self, at: usize, r: usize) -> [f64; W];
}

/// A block's rows, read in place.
impl<const W: usize> Rows<W> for &[[f64; W]] {
    #[inline(always)]
    fn row(self, at: usize, r: usize) -> [f64; W] {
        self[at + r]
    }
}

/// One tree's lane of a block, read at the block's stride.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strided<'a> {
    /// The block's lanes flattened, from the tree's lane on.
    pub(crate) lanes: &'a [f64],
    /// Lanes per row: the block's width.
    pub(crate) width: usize,
}

impl Rows<1> for Strided<'_> {
    #[inline(always)]
    fn row(self, at: usize, r: usize) -> [f64; 1] {
        [self.lanes[(at + r) * self.width]]
    }
}

/// Every lane's value at window index `idx` of `piece`, clamped into the
/// lane's `[lo, hi]`: [`crate::Summary::value_at`] per lane, bit for bit
/// (see the module docs).
#[inline]
fn values<const W: usize>(
    rows: impl Rows<W>,
    piece: &Piece,
    (lo, hi): (&[f64; W], &[f64; W]),
    idx: usize,
) -> [f64; W] {
    let mut v = haar::point_rows(
        |r| rows.row(piece.at, 2 + r),
        piece.log_width,
        piece.depth,
        idx - piece.start,
    );
    for ((v, &lo), &hi) in v.iter_mut().zip(lo).zip(hi) {
        // `f64::clamp`'s two steps. Its assertion is left out: a range is
        // never NaN or inverted, nor is a padded lane's.
        if *v < lo {
            *v = lo;
        }
        if *v > hi {
            *v = hi;
        }
    }
    v
}

/// `piece`'s `lo` and `hi` lanes.
#[inline]
fn range_of<const W: usize>(rows: impl Rows<W>, piece: &Piece) -> ([f64; W], [f64; W]) {
    (rows.row(piece.at, 0), rows.row(piece.at, 1))
}

/// Every lane's error bound for its value in `v`:
/// [`crate::Summary::error_bound_at`]'s arithmetic over the value.
#[inline]
fn bounds<const W: usize>(v: &[f64; W], (lo, hi): (&[f64; W], &[f64; W])) -> [f64; W] {
    std::array::from_fn(|w| (v[w] - lo[w]).max(hi[w] - v[w]))
}

/// One node selected by the greedy cover, and which slice of the shared
/// `entries` buffer holds the query positions it serves.
#[derive(Debug, Clone, Copy)]
struct SelNode {
    piece: Piece,
    entries_start: usize,
    entries_len: usize,
}

/// One inner-product query's cover, staged in the scratch's `sel` and
/// `uncovered` buffers (see [`QueryScratch::inners_over`]).
#[derive(Debug)]
struct Staged {
    sel: Range<usize>,
    uncovered: Range<usize>,
    extrapolate: Option<Piece>,
}

/// One staged cover as the evaluator reads it: the selected nodes, the
/// query positions each serves, the positions none serves, and the piece
/// those extrapolate from (see [`extrapolation`]).
#[derive(Clone, Copy)]
struct CoverView<'a> {
    sel: &'a [SelNode],
    entries: &'a [usize],
    uncovered: &'a [usize],
    extrapolate: Option<Piece>,
}

/// A slot of the set pass's answer buffers before the evaluator fills it.
const UNANSWERED_POINT: PointAnswer = PointAnswer {
    value: 0.0,
    error_bound: 0.0,
    level: 0,
    extrapolated: false,
};
const UNANSWERED_INNER: InnerProductAnswer = InnerProductAnswer {
    value: 0.0,
    error_bound: 0.0,
    meets_precision: false,
    nodes_used: 0,
    extrapolated: 0,
};

/// The lazily built serving-map index over a tree's nodes (see the module
/// docs for the invalidation rule).
#[derive(Debug, Default)]
struct CoverCache {
    valid: bool,
    min_level: usize,
    window: usize,
    coefficients: usize,
    arrivals: u64,
    /// Whether the tree this cache was built for was steady.
    steady: bool,
    /// `(level, created_at)` of every populated node, traversal order —
    /// the exact cover geometry this cache was built for.
    geom: Vec<(u32, u64)>,
    /// Eligible nodes (level ≥ `min_level`), traversal order.
    slots: Vec<Piece>,
    /// Window index → index into `slots` of the first eligible covering
    /// node, or [`UNSERVED`].
    serving: Vec<u32>,
    /// Number of rebuilds performed (diagnostic, exercised by tests).
    rebuilds: u64,
}

impl CoverCache {
    /// True iff the cached geometry matches `head` exactly.
    fn geom_matches(&self, head: &Head) -> bool {
        let mut it = self.geom.iter();
        for (level, _, id) in head.nodes() {
            match it.next() {
                Some(&(l, c)) if l as usize == level && c == head.slots[id].created_at => {}
                _ => return false,
            }
        }
        it.next().is_none()
    }

    /// Make the cache valid for `(head, min_level)`, rebuilding only if
    /// the cover geometry changed.
    fn ensure(&mut self, head: &Head, min_level: usize) {
        if self.valid
            && self.min_level == min_level
            && self.window == head.config.window()
            && self.coefficients == head.k()
            && self.arrivals == head.t
            && ((self.steady && head.is_steady()) || self.geom_matches(head))
        {
            return;
        }
        self.rebuild(head, min_level);
    }

    fn rebuild(&mut self, head: &Head, min_level: usize) {
        let window = head.config.window();
        self.geom.clear();
        self.slots.clear();
        self.serving.clear();
        self.serving.resize(window, UNSERVED);
        for (level, queue_index, id) in head.nodes() {
            self.geom.push((level as u32, head.slots[id].created_at));
            if level < min_level {
                continue;
            }
            let piece = Piece::new(head, level, queue_index, id);
            let slot = self.slots.len() as u32;
            self.slots.push(piece);
            // First eligible node in traversal order wins each index —
            // exactly the reference greedy cover's per-index decision.
            for idx in piece.start..window.min(piece.start + (1 << piece.log_width)) {
                if self.serving[idx] == UNSERVED {
                    self.serving[idx] = slot;
                }
            }
        }
        self.valid = true;
        self.min_level = min_level;
        self.window = window;
        self.coefficients = head.k();
        self.arrivals = head.t;
        self.steady = head.is_steady();
        self.rebuilds += 1;
    }
}

/// Reusable buffers for query evaluation over [`SwatTree`]s, the
/// streams of a [`crate::StreamSet`] and [`TreeView`]s.
///
/// One scratch serves any number of trees and query shapes; buffers grow
/// to the working-set high-water mark and are then reused, so steady-state
/// query serving performs **zero heap allocations** (asserted by
/// `tests/query_alloc.rs`). `new()` allocates nothing.
///
/// A scratch is deliberately *not* stored inside the tree: `SwatTree`
/// stays free of interior mutability (and therefore `Sync`), which is
/// what lets [`crate::StreamSet`] fan queries out across scoped threads
/// with one scratch per worker.
#[derive(Debug, Default)]
pub struct QueryScratch {
    cover: CoverCache,
    /// Per-position covered flags (scan mode).
    covered: Vec<bool>,
    /// Per-slot counts, then write cursors (mapped mode counting sort).
    counts: Vec<usize>,
    /// Selected nodes, traversal order (one run per staged cover).
    sel: Vec<SelNode>,
    /// Query positions grouped by selected node (ascending within each).
    entries: Vec<usize>,
    /// Query positions no eligible node covers, ascending.
    uncovered: Vec<usize>,
    /// Per inner-product query of a set pass: its staged cover.
    staged: Vec<Staged>,
    /// The set pass's answers, stream-major.
    points: Vec<PointAnswer>,
    inners: Vec<InnerProductAnswer>,
}

impl QueryScratch {
    /// An empty scratch (no allocation until first use).
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Total bytes currently reserved across all internal buffers — a
    /// capacity-stability probe: once warmed on a workload, repeated
    /// serving must not change this value.
    pub fn bytes_reserved(&self) -> usize {
        use std::mem::size_of;
        self.cover.geom.capacity() * size_of::<(u32, u64)>()
            + self.cover.slots.capacity() * size_of::<Piece>()
            + self.cover.serving.capacity() * size_of::<u32>()
            + self.covered.capacity()
            + self.counts.capacity() * size_of::<usize>()
            + self.sel.capacity() * size_of::<SelNode>()
            + self.entries.capacity() * size_of::<usize>()
            + self.uncovered.capacity() * size_of::<usize>()
            + self.staged.capacity() * size_of::<Staged>()
            + self.points.capacity() * size_of::<PointAnswer>()
            + self.inners.capacity() * size_of::<InnerProductAnswer>()
    }

    /// Empty the staged covers.
    fn clear_covers(&mut self) {
        self.sel.clear();
        self.entries.clear();
        self.uncovered.clear();
    }

    /// Reference-order greedy cover via a nodes × positions scan into the
    /// scratch buffers — the allocation-free twin of
    /// `query::reference::cover`.
    fn cover_scan(&mut self, head: &Head, idx: IdxList<'_>, opts: QueryOptions) {
        self.clear_covers();
        self.covered.clear();
        self.covered.resize(idx.len(), false);
        let mut remaining = idx.len();
        for (level, queue_index, id) in head.nodes() {
            if level < opts.min_level {
                continue;
            }
            if remaining == 0 {
                break;
            }
            let piece = Piece::new(head, level, queue_index, id);
            let (start, end) = (piece.start, piece.start + (1 << piece.log_width) - 1);
            let entries_start = self.entries.len();
            for pos in 0..idx.len() {
                let i = idx.get(pos);
                if !self.covered[pos] && (start..=end).contains(&i) {
                    self.entries.push(pos);
                    self.covered[pos] = true;
                    remaining -= 1;
                }
            }
            let entries_len = self.entries.len() - entries_start;
            if entries_len > 0 {
                self.sel.push(SelNode {
                    piece,
                    entries_start,
                    entries_len,
                });
            }
        }
        for pos in 0..idx.len() {
            if !self.covered[pos] {
                self.uncovered.push(pos);
            }
        }
    }

    /// The greedy cover [`Self::cover_scan`] stages for `indices` on
    /// `head`, as a [`QueryPlan`]: each selected node's place, coverage
    /// and served indices, then the indices no eligible node covers.
    pub(crate) fn plan(&mut self, head: &Head, indices: &[usize], opts: QueryOptions) -> QueryPlan {
        self.cover_scan(head, IdxList::Slice(indices), opts);
        let steps = self
            .sel
            .iter()
            .map(|sn| PlanStep {
                level: sn.piece.level,
                pos: NodePos::ORDER[sn.piece.queue_index],
                coverage: (
                    sn.piece.start,
                    sn.piece.start + (1 << sn.piece.log_width) - 1,
                ),
                serves: self.entries[sn.entries_start..][..sn.entries_len]
                    .iter()
                    .map(|&pos| indices[pos])
                    .collect(),
            })
            .collect();
        let uncovered = self.uncovered.iter().map(|&pos| indices[pos]).collect();
        QueryPlan { steps, uncovered }
    }

    /// Greedy cover via the serving map plus a stable counting sort,
    /// appended to the staged covers.
    ///
    /// Produces exactly the `cover_scan` result: the map encodes the same
    /// first-covering-node decision per index, positions are emitted in
    /// ascending order within each node (the counting sort is stable over
    /// the ascending position pass), and nodes appear in slot order =
    /// traversal order.
    fn cover_mapped(&mut self, head: &Head, idx: IdxList<'_>, opts: QueryOptions) {
        self.cover.ensure(head, opts.min_level);
        let QueryScratch {
            cover,
            counts,
            sel,
            entries,
            uncovered,
            ..
        } = self;
        counts.clear();
        counts.resize(cover.slots.len(), 0);
        for pos in 0..idx.len() {
            match cover.serving[idx.get(pos)] {
                UNSERVED => uncovered.push(pos),
                slot => counts[slot as usize] += 1,
            }
        }
        let mut offset = entries.len();
        for (piece, count) in cover.slots.iter().zip(counts.iter_mut()) {
            let c = *count;
            if c > 0 {
                sel.push(SelNode {
                    piece: piece.in_block(head),
                    entries_start: offset,
                    entries_len: c,
                });
            }
            *count = offset;
            offset += c;
        }
        entries.resize(offset, 0);
        for pos in 0..idx.len() {
            let slot = cover.serving[idx.get(pos)];
            if slot != UNSERVED {
                let cursor = &mut counts[slot as usize];
                entries[*cursor] = pos;
                *cursor += 1;
            }
        }
    }

    /// Stage the point queries `idx` on `head` alone: index check, the
    /// mapped cover, and where its uncovered positions extrapolate from.
    fn stage_points(
        &mut self,
        head: &Head,
        idx: IdxList<'_>,
        opts: QueryOptions,
    ) -> Result<Option<Piece>, TreeError> {
        idx.check(head)?;
        self.clear_covers();
        self.cover_mapped(head, idx, opts);
        extrapolation(head, opts, &self.uncovered, |pos| idx.get(pos))
    }

    /// Answer the point queries `idx` on the first `streams` trees of
    /// `blocks` — a set's blocks, which share one geometry — in one pass;
    /// the answers, stream-major, each bit-identical to
    /// [`TreeView::point_with`] on its stream.
    ///
    /// The cover is staged once, from the first block's header, and
    /// evaluated over each block's rows in place.
    ///
    /// # Errors
    ///
    /// The error every stream would return from [`TreeView::point_with`]
    /// for the first failing index.
    pub(crate) fn points_over<const W: usize>(
        &mut self,
        blocks: &[Block<W>],
        streams: usize,
        idx: IdxList<'_>,
        opts: QueryOptions,
    ) -> Result<&[PointAnswer], TreeError> {
        let len = idx.len();
        self.points.clear();
        self.points.resize(streams * len, UNANSWERED_POINT);
        let Some(first) = blocks.first() else {
            return Ok(&self.points);
        };
        debug_assert!(blocks.iter().all(|b| b.head == first.head), "one geometry");
        let extrapolate = self.stage_points(&first.head, idx, opts)?;
        let cover = CoverView {
            sel: &self.sel,
            entries: &self.entries,
            uncovered: &self.uncovered,
            extrapolate,
        };
        for (b, block) in blocks.iter().enumerate() {
            let used = W.min(streams - b * W);
            let out = &mut self.points[b * W * len..][..used * len];
            lane_points(&block.lanes[..], used, idx, cover, out);
        }
        Ok(&self.points)
    }

    /// Answer the point queries `idx` on one tree, through the serving
    /// map: [`Self::points_over`] for a [`TreeView`].
    ///
    /// # Errors
    ///
    /// As [`TreeView::point_with`] for the first failing index.
    pub(crate) fn points_of(
        &mut self,
        tree: TreeView<'_>,
        idx: IdxList<'_>,
        opts: QueryOptions,
    ) -> Result<&[PointAnswer], TreeError> {
        self.points.clear();
        self.points.resize(idx.len(), UNANSWERED_POINT);
        let extrapolate = self.stage_points(tree.head, idx, opts)?;
        let cover = CoverView {
            sel: &self.sel,
            entries: &self.entries,
            uncovered: &self.uncovered,
            extrapolate,
        };
        lane_points(tree.rows(), 1, idx, cover, &mut self.points);
        Ok(&self.points)
    }

    /// Answer the block `queries` on the first `streams` trees of
    /// `blocks` in one pass; the answers, stream-major, each
    /// bit-identical to [`TreeView::inner_product_with`] on its stream.
    ///
    /// Every query's cover is staged — index check, serving-map lookups
    /// and counting sort — and evaluated as [`Self::points_over`] does.
    ///
    /// # Errors
    ///
    /// The error every stream would return from
    /// [`SwatTree::inner_product_many`] on its own.
    pub(crate) fn inners_over<const W: usize>(
        &mut self,
        blocks: &[Block<W>],
        streams: usize,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
    ) -> Result<&[InnerProductAnswer], TreeError> {
        let per_tree = queries.len();
        self.inners.clear();
        self.inners.resize(streams * per_tree, UNANSWERED_INNER);
        let Some(first) = blocks.first() else {
            return Ok(&self.inners);
        };
        debug_assert!(blocks.iter().all(|b| b.head == first.head), "one geometry");
        self.stage_inners(&first.head, queries, opts)?;
        for (b, block) in blocks.iter().enumerate() {
            let used = W.min(streams - b * W);
            for (q, (query, staged)) in queries.iter().zip(&self.staged).enumerate() {
                let cover = CoverView {
                    sel: &self.sel[staged.sel.clone()],
                    entries: &self.entries,
                    uncovered: &self.uncovered[staged.uncovered.clone()],
                    extrapolate: staged.extrapolate,
                };
                let out = &mut self.inners[b * W * per_tree + q..];
                lane_inner(&block.lanes[..], used, query, cover, out, per_tree);
            }
        }
        Ok(&self.inners)
    }

    /// Stage the cover of each of `queries` on `head`, in order.
    ///
    /// # Errors
    ///
    /// The first error in query order — refused indices or an uncovered
    /// position — which is where [`SwatTree::inner_product_many`] stops.
    fn stage_inners(
        &mut self,
        head: &Head,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
    ) -> Result<(), TreeError> {
        self.clear_covers();
        self.staged.clear();
        for query in queries {
            check_query_indices(head, query)?;
            let (sel, uncovered) = (self.sel.len(), self.uncovered.len());
            self.cover_mapped(head, IdxList::Slice(query.indices()), opts);
            let uncovered = uncovered..self.uncovered.len();
            let extrapolate =
                extrapolation(head, opts, &self.uncovered[uncovered.clone()], |pos| {
                    query.indices()[pos]
                })?;
            self.staged.push(Staged {
                sel: sel..self.sel.len(),
                uncovered,
                extrapolate,
            });
        }
        Ok(())
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` with this thread's shared [`QueryScratch`] — the engine behind
/// the scratch-less public query methods.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The reduced-level extrapolation source: the piece of the freshest
/// node at an eligible level — the reference implementations' choice
/// verbatim.
fn nearest_eligible(head: &Head, opts: QueryOptions) -> Option<Piece> {
    let (level, queue_index, id) = head
        .nodes()
        .filter(|&(l, _, _)| l >= opts.min_level)
        .min_by_key(|&(_, _, id)| head.t - head.slots[id].created_at)?;
    Some(Piece::new(head, level, queue_index, id))
}

/// Where the `uncovered` positions of a cover staged on `head`
/// extrapolate from: nowhere if there are none, else the nearest eligible
/// node's piece.
///
/// # Errors
///
/// [`TreeError::Uncovered`] at the first uncovered position's window
/// index (`index_of` maps a query position to it) when `opts` reads every
/// level or no node is eligible — the reference's error.
fn extrapolation(
    head: &Head,
    opts: QueryOptions,
    uncovered: &[usize],
    index_of: impl Fn(usize) -> usize,
) -> Result<Option<Piece>, TreeError> {
    let Some(&first) = uncovered.first() else {
        return Ok(None);
    };
    let error = TreeError::Uncovered {
        index: index_of(first),
    };
    if opts.min_level == 0 {
        return Err(error);
    }
    nearest_eligible(head, opts).map(Some).ok_or(error)
}

/// The point answers the first `used` lanes of `rows` give the queries
/// `idx` over `cover`, written to `out` stream-major (`used × idx.len()`):
/// the reference arithmetic per lane, with the error bound computed from
/// the value already walked.
#[inline]
fn lane_points<const W: usize>(
    rows: impl Rows<W>,
    used: usize,
    idx: IdxList<'_>,
    cover: CoverView<'_>,
    out: &mut [PointAnswer],
) {
    let len = idx.len();
    let mut emit = |pos: usize, v: &[f64; W], bound: &[f64; W], level: usize, extrapolated| {
        let lanes = v.iter().zip(bound).take(used);
        for (answer, (&value, &error_bound)) in out[pos..].iter_mut().step_by(len).zip(lanes) {
            *answer = PointAnswer {
                value,
                error_bound,
                level,
                extrapolated,
            };
        }
    };
    for sn in cover.sel {
        let (lo, hi) = range_of(rows, &sn.piece);
        for &pos in &cover.entries[sn.entries_start..sn.entries_start + sn.entries_len] {
            let v = values(rows, &sn.piece, (&lo, &hi), idx.get(pos));
            emit(pos, &v, &bounds(&v, (&lo, &hi)), sn.piece.level, false);
        }
    }
    if let Some(piece) = cover.extrapolate {
        // Every uncovered index gets the nearest node's newest value.
        let (lo, hi) = range_of(rows, &piece);
        let v = values(rows, &piece, (&lo, &hi), piece.start);
        let widths = std::array::from_fn(|w| hi[w] - lo[w]);
        for &pos in cover.uncovered {
            emit(pos, &v, &widths, piece.level, true);
        }
    }
}

/// The answer the first `used` lanes of `rows` give `query` over
/// `cover`, written to `out` every `stride` slots: the reference
/// arithmetic per lane, operation for operation — selected nodes in
/// traversal order, each one's positions ascending, then the
/// extrapolated positions.
fn lane_inner<const W: usize>(
    rows: impl Rows<W>,
    used: usize,
    query: &InnerProductQuery,
    cover: CoverView<'_>,
    out: &mut [InnerProductAnswer],
    stride: usize,
) {
    let (indices, weights) = (query.indices(), query.weights());
    let mut value = [0.0; W];
    let mut error_bound = [0.0; W];
    for sn in cover.sel {
        let (lo, hi) = range_of(rows, &sn.piece);
        for &pos in &cover.entries[sn.entries_start..sn.entries_start + sn.entries_len] {
            let w = weights[pos];
            let v = values(rows, &sn.piece, (&lo, &hi), indices[pos]);
            let bound = bounds(&v, (&lo, &hi));
            for ((sum, err), (&v, &bound)) in value
                .iter_mut()
                .zip(&mut error_bound)
                .zip(v.iter().zip(&bound))
            {
                *sum += w * v;
                *err += w.abs() * bound;
            }
        }
    }
    if let Some(piece) = cover.extrapolate {
        let (lo, hi) = range_of(rows, &piece);
        let v = values(rows, &piece, (&lo, &hi), piece.start);
        let widths: [f64; W] = std::array::from_fn(|w| hi[w] - lo[w]);
        for &pos in cover.uncovered {
            let w = weights[pos];
            for ((sum, err), (&v, &width)) in value
                .iter_mut()
                .zip(&mut error_bound)
                .zip(v.iter().zip(&widths))
            {
                *sum += w * v;
                *err += w.abs() * width;
            }
        }
    }
    let answers = out.iter_mut().step_by(stride).take(used);
    for (answer, (&value, &error_bound)) in answers.zip(value.iter().zip(&error_bound)) {
        *answer = InnerProductAnswer {
            value,
            error_bound,
            meets_precision: error_bound <= query.delta(),
            nodes_used: cover.sel.len(),
            extrapolated: cover.uncovered.len(),
        };
    }
}

impl SwatTree {
    /// Answer a block of point queries, amortizing the cover cache across
    /// the batch: after `check_indices` and one (usually cached) serving-map
    /// lookup table, each answer costs `O(log k)`.
    ///
    /// `out` is cleared and filled with one answer per index, in order —
    /// each bit-identical to [`Self::point_with`] on the same tree.
    ///
    /// # Errors
    ///
    /// The error [`Self::point_with`] would return for the first failing
    /// index; `out`'s contents are unspecified on error.
    pub fn point_many(
        &self,
        indices: &[usize],
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<PointAnswer>,
    ) -> Result<(), TreeError> {
        let answers = scratch.points_over(
            std::slice::from_ref(&self.block),
            1,
            IdxList::Slice(indices),
            opts,
        )?;
        out.clear();
        out.extend_from_slice(answers);
        Ok(())
    }

    /// Answer a block of inner-product queries through the cover cache,
    /// amortizing the serving map across the batch.
    ///
    /// `out` is cleared and filled with one answer per query, in order —
    /// each bit-identical to [`Self::inner_product_with`] on the same
    /// tree.
    ///
    /// # Errors
    ///
    /// The error [`Self::inner_product_with`] would return for the first
    /// failing query; `out`'s contents are unspecified on error.
    pub fn inner_product_many(
        &self,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<InnerProductAnswer>,
    ) -> Result<(), TreeError> {
        let answers = scratch.inners_over(std::slice::from_ref(&self.block), 1, queries, opts)?;
        out.clear();
        out.extend_from_slice(answers);
        Ok(())
    }
}

impl TreeView<'_> {
    /// Validate that every query index is inside the window.
    pub(crate) fn check_indices(&self, indices: &[usize]) -> Result<(), TreeError> {
        check_indices(self.head, indices)
    }

    /// [`Self::point_with`] against an explicit [`QueryScratch`] —
    /// bit-identical answers, zero steady-state allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::point_with`].
    pub fn point_with_scratch(
        &self,
        idx: usize,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<PointAnswer, TreeError> {
        self.check_indices(&[idx])?;
        let at = IdxList::Span { first: idx, len: 1 };
        scratch.cover_scan(self.head, at, opts);
        let extrapolate = extrapolation(self.head, opts, &scratch.uncovered, |_| idx)?;
        let cover = CoverView {
            sel: &scratch.sel,
            entries: &scratch.entries,
            uncovered: &scratch.uncovered,
            extrapolate,
        };
        let mut answer = [UNANSWERED_POINT];
        lane_points(self.rows(), 1, at, cover, &mut answer);
        Ok(answer[0])
    }

    /// [`Self::inner_product_with`] against an explicit [`QueryScratch`]
    /// — bit-identical answers, zero steady-state allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::inner_product_with`].
    pub fn inner_product_with_scratch(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<InnerProductAnswer, TreeError> {
        check_query_indices(self.head, query)?;
        scratch.cover_scan(self.head, IdxList::Slice(query.indices()), opts);
        let extrapolate = extrapolation(self.head, opts, &scratch.uncovered, |pos| {
            query.indices()[pos]
        })?;
        let cover = CoverView {
            sel: &scratch.sel,
            entries: &scratch.entries,
            uncovered: &scratch.uncovered,
            extrapolate,
        };
        let mut answer = [UNANSWERED_INNER];
        lane_inner(self.rows(), 1, query, cover, &mut answer, 1);
        Ok(answer[0])
    }

    /// [`Self::range_query_with`] against an explicit [`QueryScratch`],
    /// writing matches into `out` (cleared first) — bit-identical results,
    /// zero steady-state allocation beyond `out` itself.
    ///
    /// # Errors
    ///
    /// As [`Self::range_query_with`]; `out`'s contents are unspecified on
    /// error.
    pub fn range_query_with_scratch(
        &self,
        query: &RangeQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<RangeMatch>,
    ) -> Result<(), TreeError> {
        let window = self.config().window();
        let len = if query.newest > query.oldest {
            // An inverted interval holds no index: the reference scans an
            // empty span and finds nothing.
            0
        } else if query.oldest >= window {
            // First failing index of the reference's ascending scan.
            return Err(TreeError::IndexOutOfWindow {
                index: window.max(query.newest),
                window,
            });
        } else {
            query.oldest - query.newest + 1
        };
        let span = IdxList::Span {
            first: query.newest,
            len,
        };
        // Interval queries touch a large slice of the window, so the
        // serving map (one lookup per position) beats the nodes × span
        // scan even counting an occasional rebuild.
        scratch.clear_covers();
        scratch.cover_mapped(self.head, span, opts);
        if let Some(&pos) = scratch.uncovered.first() {
            return Err(TreeError::Uncovered {
                index: query.newest + pos,
            });
        }
        let band =
            crate::range::ValueRange::new(query.center - query.radius, query.center + query.radius);
        let rows = self.rows();
        out.clear();
        for sn in &scratch.sel {
            let ([lo], [hi]) = range_of(rows, &sn.piece);
            // Prune: if the node's exact range cannot reach the band, no
            // value reconstructed from it (clamped into the range) can.
            if !crate::range::ValueRange::new(lo, hi).intersects(&band) {
                continue;
            }
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                let idx = query.newest + pos;
                let [v] = values(rows, &sn.piece, (&[lo], &[hi]), idx);
                if (v - query.center).abs() <= query.radius {
                    out.push(RangeMatch {
                        index: idx,
                        value: v,
                    });
                }
            }
        }
        // Window indices are unique, so the unstable sort yields exactly
        // the reference's stable-sorted order — without the merge-sort
        // allocation.
        out.sort_unstable_by_key(|m| m.index);
        Ok(())
    }

    /// [`Self::reconstruct_window`] against an explicit [`QueryScratch`],
    /// writing the window into `out` (cleared first) — bit-identical
    /// values, zero steady-state allocation beyond `out` itself.
    ///
    /// # Errors
    ///
    /// As [`Self::reconstruct_window`].
    pub fn reconstruct_window_into(
        &self,
        scratch: &mut QueryScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TreeError> {
        let n = self.config().window();
        scratch.clear_covers();
        scratch.cover_mapped(
            self.head,
            IdxList::Span { first: 0, len: n },
            QueryOptions::default(),
        );
        if let Some(&pos) = scratch.uncovered.first() {
            // Position equals window index for the identity span.
            return Err(TreeError::Uncovered { index: pos });
        }
        let rows = self.rows();
        out.clear();
        out.resize(n, 0.0);
        for sn in &scratch.sel {
            let (lo, hi) = range_of(rows, &sn.piece);
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                [out[pos]] = values(rows, &sn.piece, (&lo, &hi), pos);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwatConfig;

    fn warm_tree(n: usize, k: usize, values: impl IntoIterator<Item = f64>) -> SwatTree {
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(n, k).unwrap());
        tree.extend(values);
        assert!(tree.is_warm());
        tree
    }

    /// One mapped cover, alone in the staged buffers.
    fn stage(scratch: &mut QueryScratch, tree: &SwatTree, idx: IdxList<'_>, opts: QueryOptions) {
        scratch.clear_covers();
        scratch.cover_mapped(&tree.block.head, idx, opts);
    }

    fn covers_equal(a: &QueryScratch, b: &QueryScratch) -> bool {
        a.sel.len() == b.sel.len()
            && a.sel.iter().zip(&b.sel).all(|(x, y)| {
                x.piece.level == y.piece.level
                    && x.piece.queue_index == y.piece.queue_index
                    && x.piece.start == y.piece.start
                    && x.piece.depth == y.piece.depth
                    && x.entries_start == y.entries_start
                    && x.entries_len == y.entries_len
            })
            && a.entries == b.entries
            && a.uncovered == b.uncovered
    }

    #[test]
    fn mapped_cover_equals_scan_cover() {
        let tree = warm_tree(64, 4, (0..200).map(|i| ((i * 13) % 29) as f64));
        let mut scan = QueryScratch::new();
        let mut mapped = QueryScratch::new();
        let cases: Vec<Vec<usize>> = vec![
            vec![0],
            vec![63],
            vec![0, 1, 2, 3, 17, 40, 63],
            (0..64).collect(),
            (5..45).collect(),
            vec![62, 3, 31, 0],
        ];
        for min_level in [0usize, 2, 4] {
            let opts = QueryOptions::at_level(min_level);
            for idx in &cases {
                scan.cover_scan(&tree.block.head, IdxList::Slice(idx), opts);
                stage(&mut mapped, &tree, IdxList::Slice(idx), opts);
                assert!(
                    covers_equal(&scan, &mapped),
                    "cover mismatch at min_level {min_level} for {idx:?}"
                );
            }
        }
    }

    #[test]
    fn a_shared_cover_never_shares_values() {
        // Streams with *identical geometry* (one set: same window, k,
        // arrival count) but different data: one pass stages the cover
        // once for all of them, and each answer is still its own
        // stream's, bit for bit — each stream's answers next to its own,
        // in a ragged block of three and over a full 16-lane block plus
        // three.
        use crate::multi::StreamSet;
        let n = 128;
        let value = |i: usize, t: usize| ((i * (17 + 2 * t)) % (89 + t)) as f64 - 40.0;
        let queries = [
            InnerProductQuery::exponential(n, 1e9),
            InnerProductQuery::linear_at(5, n - 5, 1e9),
        ];
        let indices = [0usize, 1, 63, n - 1];
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();
        for streams in [3, 19] {
            let mut set = StreamSet::new(SwatConfig::with_coefficients(n, 8).unwrap(), streams);
            for i in 0..3 * n {
                let row: Vec<f64> = (0..streams).map(|t| value(i, t)).collect();
                set.push_row(&row);
            }
            assert!((0..streams).all(|t| set.tree(t).is_steady()));
            let inners = scratch
                .inners_over(&set.blocks, streams, &queries, opts)
                .unwrap()
                .to_vec();
            let points = scratch
                .points_over(&set.blocks, streams, IdxList::Slice(&indices), opts)
                .unwrap()
                .to_vec();
            for t in 0..streams {
                let tree = set.tree(t);
                for (q, query) in queries.iter().enumerate() {
                    let want =
                        crate::query::reference::inner_product_with(tree, query, opts).unwrap();
                    let got = inners[t * queries.len() + q];
                    assert_eq!(got.value.to_bits(), want.value.to_bits());
                    assert_eq!(got.error_bound.to_bits(), want.error_bound.to_bits());
                }
                for (p, &idx) in indices.iter().enumerate() {
                    let want = crate::query::reference::point_with(tree, idx, opts).unwrap();
                    let got = points[t * indices.len() + p];
                    assert_eq!(got.value.to_bits(), want.value.to_bits());
                    assert_eq!(got.error_bound.to_bits(), want.error_bound.to_bits());
                }
            }
            let mut newest: Vec<u64> = (0..streams)
                .map(|t| set.tree(t).point(n - 1).unwrap().value.to_bits())
                .collect();
            newest.sort_unstable();
            newest.dedup();
            assert_eq!(newest.len(), streams, "every stream answers differently");
        }
        assert_eq!(scratch.cover.rebuilds, 1, "steady sets share the map");
    }

    #[test]
    fn a_cached_cover_finds_each_block_s_own_slots() {
        // A grown set and its restored copy share a clock and a geometry,
        // so the serving map built for one serves the other — but the
        // restore refreshed each level afresh, so a generation sits in
        // another physical slot. Staging resolves every piece's lanes in
        // the block at hand.
        use crate::multi::StreamSet;
        let n = 128;
        let mut grown = StreamSet::new(SwatConfig::with_coefficients(n, 4).unwrap(), 3);
        for i in 0..3 * n + 1 {
            grown.push_row(&[i as f64, (i % 7) as f64, -(i as f64)]);
        }
        let restored = StreamSet::restore(&grown.snapshot()).unwrap();
        assert_ne!(
            grown.blocks[0].head.order, restored.blocks[0].head.order,
            "the restore's slot order starts afresh"
        );
        let indices: Vec<usize> = (0..n).collect();
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();
        let want = scratch
            .points_over(&grown.blocks, 3, IdxList::Slice(&indices), opts)
            .unwrap()
            .to_vec();
        let got = scratch
            .points_over(&restored.blocks, 3, IdxList::Slice(&indices), opts)
            .unwrap();
        assert_eq!(got, want);
        assert_eq!(scratch.cover.rebuilds, 1, "one geometry, one map");
    }

    #[test]
    fn a_cover_is_never_shared_across_budgets() {
        // Same window, same clock, both steady: the geometry agrees, but
        // a piece's walk depth comes from the budget, so the map is
        // rebuilt for the other budget and the answers stay exact.
        let n = 64;
        let values = |i: usize| ((i * 37) % 61) as f64 - 30.0;
        let deep = warm_tree(n, 16, (0..3 * n).map(values));
        let shallow = warm_tree(n, 2, (0..3 * n).map(values));
        let indices: Vec<usize> = (0..n).collect();
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for tree in [&shallow, &deep, &shallow] {
            tree.point_many(&indices, opts, &mut scratch, &mut out)
                .unwrap();
            for (&idx, got) in indices.iter().zip(&out) {
                let want = crate::query::reference::point_with(tree, idx, opts).unwrap();
                assert_eq!(got.value.to_bits(), want.value.to_bits(), "idx {idx}");
            }
        }
        assert_eq!(scratch.cover.rebuilds, 3);
    }

    #[test]
    fn cover_cache_rebuilds_only_on_geometry_change() {
        let mut tree = warm_tree(32, 2, (0..96).map(|i| i as f64));
        let mut scratch = QueryScratch::new();
        let opts = QueryOptions::default();
        stage(
            &mut scratch,
            &tree,
            IdxList::Span { first: 0, len: 32 },
            opts,
        );
        assert_eq!(scratch.cover.rebuilds, 1);
        // Same tree, same options: cached.
        for _ in 0..5 {
            stage(
                &mut scratch,
                &tree,
                IdxList::Span { first: 0, len: 32 },
                opts,
            );
        }
        assert_eq!(scratch.cover.rebuilds, 1);
        // A push changes the arrival count: invalidated.
        tree.push(7.0);
        stage(
            &mut scratch,
            &tree,
            IdxList::Span { first: 0, len: 32 },
            opts,
        );
        assert_eq!(scratch.cover.rebuilds, 2);
        // Changing min_level also invalidates.
        stage(
            &mut scratch,
            &tree,
            IdxList::Span { first: 0, len: 32 },
            QueryOptions::at_level(1),
        );
        assert_eq!(scratch.cover.rebuilds, 3);
        // A different tree with a different age is caught too.
        let other = warm_tree(32, 2, (0..100).map(|i| i as f64));
        stage(
            &mut scratch,
            &other,
            IdxList::Span { first: 0, len: 32 },
            QueryOptions::at_level(1),
        );
        assert_eq!(scratch.cover.rebuilds, 4);
    }

    /// A warm tree whose clock ran one arrival past its newest summaries:
    /// every `created_at` is legal (in the past, strictly descending per
    /// level) and none is where a stream would have put it. Built by hand
    /// from a streamed tree's parts and taken through the snapshot format.
    fn hand_built(n: usize, k: usize, arrivals: usize) -> SwatTree {
        let grown = warm_tree(n, k, (0..arrivals).map(|i| ((i * 29) % 83) as f64 - 30.0));
        let mut queues = vec![std::collections::VecDeque::new(); grown.config().levels()];
        for (l, _, s) in grown.nodes() {
            queues[l].push_back(s.clone());
        }
        let shifted = SwatTree::from_restored(
            *grown.config(),
            grown.arrivals() + 1,
            grown.newest(),
            queues,
        )
        .unwrap();
        SwatTree::restore(&shifted.snapshot()).unwrap()
    }

    #[test]
    fn hand_built_geometry_is_not_steady_and_answers_like_the_reference() {
        use crate::query::reference;
        let n = 64;
        let tree = hand_built(n, 4, 3 * n);
        assert!(tree.is_warm());
        assert!(!tree.is_steady());
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();

        // Index 0 is newer than every summary: refused by both engines.
        let indices: Vec<usize> = (1..n).collect();
        let mut points = Vec::new();
        tree.point_many(&indices, opts, &mut scratch, &mut points)
            .unwrap();
        for (&idx, got) in indices.iter().zip(&points) {
            assert_eq!(*got, reference::point_with(&tree, idx, opts).unwrap());
        }
        assert_eq!(
            tree.point_many(&[0], opts, &mut scratch, &mut points),
            Err(TreeError::Uncovered { index: 0 })
        );
        assert_eq!(
            reference::point_with(&tree, 0, opts),
            Err(TreeError::Uncovered { index: 0 })
        );

        let queries = [
            InnerProductQuery::exponential_at(1, n - 1, 1e9),
            InnerProductQuery::linear_at(5, n - 6, 1e9),
            InnerProductQuery::new(vec![1, 4, 9, 40], vec![0.5, -2.0, 3.0, 1.0], 1e9).unwrap(),
        ];
        let mut inners = Vec::new();
        tree.inner_product_many(&queries, opts, &mut scratch, &mut inners)
            .unwrap();
        for (q, got) in queries.iter().zip(&inners) {
            assert_eq!(*got, reference::inner_product_with(&tree, q, opts).unwrap());
        }
        let range = RangeQuery::new(0.0, 25.0, 1, n - 1);
        let mut matches = Vec::new();
        tree.range_query_with_scratch(&range, opts, &mut scratch, &mut matches)
            .unwrap();
        assert_eq!(
            matches,
            reference::range_query_with(&tree, &range, opts).unwrap()
        );
    }

    #[test]
    fn cover_cache_never_trusts_the_clock_of_an_unsteady_tree() {
        let n = 32;
        let odd = hand_built(n, 2, 96);
        // Same window, same arrival count, grown from a stream.
        let grown = warm_tree(n, 2, (0..97).map(|i| i as f64));
        assert_eq!(odd.arrivals(), grown.arrivals());
        assert!(grown.is_steady() && !odd.is_steady());
        let span = IdxList::Span { first: 1, len: 31 };
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();
        stage(&mut scratch, &odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 1);
        // The same unsteady tree again: compared node for node, cached.
        stage(&mut scratch, &odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 1);
        // Equal (window, arrivals) but one side is not steady: the walk
        // sees the different geometry, in either direction.
        stage(&mut scratch, &grown, span, opts);
        assert_eq!(scratch.cover.rebuilds, 2);
        assert!(scratch.uncovered.is_empty());
        stage(&mut scratch, &odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 3);
        // And it still invalidates as any tree does: on another age, on
        // another `min_level`.
        let older = hand_built(n, 2, 100);
        stage(&mut scratch, &older, span, opts);
        assert_eq!(scratch.cover.rebuilds, 4);
        stage(&mut scratch, &older, span, QueryOptions::at_level(1));
        assert_eq!(scratch.cover.rebuilds, 5);
    }

    #[test]
    fn scratch_capacity_stabilizes_after_warmup() {
        let tree = warm_tree(128, 4, (0..400).map(|i| ((i * 7) % 53) as f64));
        let mut scratch = QueryScratch::new();
        assert_eq!(QueryScratch::new().bytes_reserved(), 0);
        let indices: Vec<usize> = (0..128).collect();
        let queries = [
            InnerProductQuery::exponential(64, 1e9),
            InnerProductQuery::linear_at(10, 100, 1e9),
        ];
        // A set pass over two 16-lane blocks, the second ragged, each
        // stream on its own data.
        let mut forest = crate::multi::StreamSet::new(*tree.config(), 21);
        for i in 0..400 {
            let row: Vec<f64> = (0..21).map(|t| ((i * (7 + t)) % (53 + t)) as f64).collect();
            forest.push_row(&row);
        }
        let mut pts = Vec::new();
        let mut ips = Vec::new();
        let mut win = Vec::new();
        let run = |scratch: &mut QueryScratch,
                   pts: &mut Vec<PointAnswer>,
                   ips: &mut Vec<InnerProductAnswer>,
                   win: &mut Vec<f64>| {
            tree.point_many(&indices, QueryOptions::default(), scratch, pts)
                .unwrap();
            tree.inner_product_many(&queries, QueryOptions::default(), scratch, ips)
                .unwrap();
            tree.reconstruct_window_into(scratch, win).unwrap();
            let opts = QueryOptions::default();
            scratch
                .points_over(&forest.blocks, 21, IdxList::Slice(&indices), opts)
                .unwrap();
            scratch
                .inners_over(&forest.blocks, 21, &queries, opts)
                .unwrap();
        };
        run(&mut scratch, &mut pts, &mut ips, &mut win);
        let warm = scratch.bytes_reserved();
        assert!(warm > 0);
        for _ in 0..10 {
            run(&mut scratch, &mut pts, &mut ips, &mut win);
            assert_eq!(scratch.bytes_reserved(), warm, "buffers regrew");
        }
    }
}
