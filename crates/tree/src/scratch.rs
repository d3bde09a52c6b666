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
//! one signed-zero fix-up ([`haar::point_truncated`]), clamped into the
//! node's range — `D` steps instead of `l + 1`. Where the node's piece
//! of the window starts, its width and `D` are all the walk needs besides
//! the coefficients.
//!
//! Point and inner-product answers come from one evaluator over `W`
//! lanes ([`haar::point_lanes`]): a piece's stored coefficients and range
//! are gathered from up to `W` trees into lane rows, and every step —
//! the walk, the fix-up, the clamp, the error bound and an inner
//! product's sums — is the scalar expression applied to each lane, in
//! the scalar order, so every lane's answer is its tree's, bit for bit.
//! One tree is the `W = 1` instance.
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
//! Every stream of a [`crate::StreamSet`] shares one clock, so once its
//! trees are steady they share one cover. The set pass
//! (`QueryScratch::points_over` and `inners_over`) answers a query on
//! every tree of a slice in one pass: when every tree is steady at one
//! window, budget and clock, the index checks, the serving-map lookups
//! and the counting sort run once per query, and the evaluator runs over
//! blocks of 16 trees (`multi::BLOCK`, the blocked cascade's width), one
//! lane per tree (a ragged last block's spare lanes are padded and never
//! written out). Otherwise the cover is
//! staged again for each tree and the evaluator runs at `W = 1`. Answers
//! go to a flat buffer in the scratch, tree-major. A single tree's
//! [`SwatTree::point_many`] and [`SwatTree::inner_product_many`] are the
//! pass over a slice of one.
//!
//! Single-shot queries (`point_with`, `inner_product_with`, …) instead use
//! a buffered variant of the reference scan — same `O(3 log N · M)`
//! complexity, zero allocation — so one-off queries on a churning tree
//! never pay a map rebuild.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;

use swat_wavelet::haar;

use crate::config::TreeError;
use crate::multi::BLOCK;
use crate::node::Summary;
use crate::query::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch, RangeQuery,
    WeightProfile,
};
use crate::tree::SwatTree;

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

    /// [`SwatTree::check_indices`] over these indices: the error its
    /// walk would report first.
    fn check(&self, tree: &SwatTree) -> Result<(), TreeError> {
        match *self {
            IdxList::Slice(s) => tree.check_indices(s),
            IdxList::Span { first, len } => {
                let window = tree.config().window();
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

/// One node's piece of the window at the cover's clock: where the node
/// lives in the tree, where its piece starts, and how deep its walk goes.
#[derive(Debug, Clone, Copy)]
struct Piece {
    level: usize,
    queue_index: usize,
    /// Window index of the piece's newest value.
    start: usize,
    /// `log₂` of the piece's width (`level + 1`).
    log_width: u32,
    /// Depth below which every detail of the piece is absent.
    depth: u32,
}

impl Piece {
    /// The piece `s`, at `(level, queue_index)` of a tree on budget `k`,
    /// covers at arrival count `now`.
    fn new(level: usize, queue_index: usize, s: &Summary, now: u64, k: usize) -> Piece {
        let log_width = level as u32 + 1;
        Piece {
            level,
            queue_index,
            start: s.coverage(now).0,
            log_width,
            depth: haar::stored_depth(k.min(1 << log_width)),
        }
    }

    /// This piece's summary in `tree` (which the cover was staged for, or
    /// shares its geometry).
    #[inline]
    fn summary<'t>(&self, tree: &'t SwatTree) -> &'t Summary {
        tree.summary_at(self.level, self.queue_index)
            .expect("cover refers to a live node")
    }

    /// The value `s` gives window index `idx` — bit-identical to
    /// [`Summary::value_at`] (see the module docs).
    #[inline]
    fn value(&self, s: &Summary, idx: usize) -> f64 {
        let v = haar::point_truncated(
            s.coeffs().coefficients(),
            self.log_width,
            self.depth,
            idx - self.start,
        );
        s.range().clamp(v)
    }
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

/// One piece gathered from a block of up to `W` trees that share its
/// geometry, one lane per tree: the operands of the evaluator.
#[derive(Debug)]
struct Lanes<const W: usize> {
    /// Row `r` holds every lane's stored coefficient `r`: `+0.0` where a
    /// tree stores fewer, and in a lane past the block's end.
    rows: Vec<[f64; W]>,
    lo: [f64; W],
    hi: [f64; W],
}

impl<const W: usize> Default for Lanes<W> {
    fn default() -> Self {
        Lanes {
            rows: Vec::new(),
            lo: [0.0; W],
            hi: [0.0; W],
        }
    }
}

impl<const W: usize> Lanes<W> {
    /// Gather `piece` from every tree of `block` (at most `W` trees).
    #[inline]
    fn gather<S: Borrow<SwatTree>>(&mut self, block: &[S], piece: &Piece) {
        debug_assert!(block.len() <= W);
        self.rows.clear();
        self.rows.resize(1 << piece.depth, [0.0; W]);
        self.lo = [0.0; W];
        self.hi = [0.0; W];
        for (w, tree) in block.iter().enumerate() {
            let s = piece.summary(tree.borrow());
            for (row, &c) in self.rows.iter_mut().zip(s.coeffs().coefficients()) {
                row[w] = c;
            }
            self.lo[w] = s.range().lo();
            self.hi[w] = s.range().hi();
        }
    }

    /// Every lane's value at window index `idx` of the gathered `piece`:
    /// [`Piece::value`] per lane, bit for bit.
    #[inline]
    fn values(&self, piece: &Piece, idx: usize) -> [f64; W] {
        let mut v = haar::point_lanes(&self.rows, piece.log_width, piece.depth, idx - piece.start);
        for ((v, &lo), &hi) in v.iter_mut().zip(&self.lo).zip(&self.hi) {
            // `f64::clamp`'s two steps. Its assertion is left out: a
            // range is never NaN or inverted, nor is a padded lane's.
            if *v < lo {
                *v = lo;
            }
            if *v > hi {
                *v = hi;
            }
        }
        v
    }

    /// Every lane's error bound for its value in `v`:
    /// [`Summary::error_bound_at`]'s arithmetic over the value.
    #[inline]
    fn bounds(&self, v: &[f64; W]) -> [f64; W] {
        std::array::from_fn(|w| (v[w] - self.lo[w]).max(self.hi[w] - v[w]))
    }

    /// Every lane's range width: an extrapolated value's error bound.
    fn widths(&self) -> [f64; W] {
        std::array::from_fn(|w| self.hi[w] - self.lo[w])
    }
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
    /// True iff the cached geometry matches `tree` exactly.
    fn geom_matches(&self, tree: &SwatTree) -> bool {
        let mut it = self.geom.iter();
        for (level, _, s) in tree.nodes() {
            match it.next() {
                Some(&(l, c)) if l as usize == level && c == s.created_at() => {}
                _ => return false,
            }
        }
        it.next().is_none()
    }

    /// Make the cache valid for `(tree, min_level)`, rebuilding only if
    /// the cover geometry changed.
    fn ensure(&mut self, tree: &SwatTree, min_level: usize) {
        if self.valid
            && self.min_level == min_level
            && self.window == tree.config().window()
            && self.coefficients == tree.config().coefficients()
            && self.arrivals == tree.arrivals()
            && ((self.steady && tree.is_steady()) || self.geom_matches(tree))
        {
            return;
        }
        self.rebuild(tree, min_level);
    }

    fn rebuild(&mut self, tree: &SwatTree, min_level: usize) {
        let window = tree.config().window();
        let k = tree.config().coefficients();
        let now = tree.arrivals();
        self.geom.clear();
        self.slots.clear();
        self.serving.clear();
        self.serving.resize(window, UNSERVED);
        for (level, pos, s) in tree.nodes() {
            self.geom.push((level as u32, s.created_at()));
            if level < min_level {
                continue;
            }
            let piece = Piece::new(level, pos as usize, s, now, k);
            let slot = self.slots.len() as u32;
            self.slots.push(piece);
            // First eligible node in traversal order wins each index —
            // exactly the reference greedy cover's per-index decision.
            for idx in piece.start..window.min(piece.start + s.width()) {
                if self.serving[idx] == UNSERVED {
                    self.serving[idx] = slot;
                }
            }
        }
        self.valid = true;
        self.min_level = min_level;
        self.window = window;
        self.coefficients = k;
        self.arrivals = now;
        self.steady = tree.is_steady();
        self.rebuilds += 1;
    }
}

/// Whether one cover serves every tree of `trees`: all steady, at the
/// first one's configuration and clock — the cover cache's `O(1)`
/// acceptance rule, applied to the whole slice up front.
fn shares_cover<S: Borrow<SwatTree>>(trees: &[S]) -> bool {
    let Some(first) = trees.first().map(Borrow::borrow) else {
        return true;
    };
    trees
        .iter()
        .map(Borrow::borrow)
        .all(|t| t.is_steady() && t.arrivals() == first.arrivals() && t.config() == first.config())
}

/// Reusable buffers for query evaluation over [`SwatTree`]s.
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
    /// The evaluator's lane rows: a block of trees, and one tree.
    block: Lanes<BLOCK>,
    one: Lanes<1>,
    /// The set pass's answers, tree-major.
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
            + self.block.rows.capacity() * size_of::<[f64; BLOCK]>()
            + self.one.rows.capacity() * size_of::<[f64; 1]>()
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
    fn cover_scan(&mut self, tree: &SwatTree, idx: IdxList<'_>, opts: QueryOptions) {
        let now = tree.arrivals();
        let k = tree.config().coefficients();
        self.clear_covers();
        self.covered.clear();
        self.covered.resize(idx.len(), false);
        let mut remaining = idx.len();
        for (level, pos, summary) in tree.nodes() {
            if level < opts.min_level {
                continue;
            }
            if remaining == 0 {
                break;
            }
            let (start, end) = summary.coverage(now);
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
                    piece: Piece::new(level, pos as usize, summary, now, k),
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

    /// Greedy cover via the serving map plus a stable counting sort,
    /// appended to the staged covers.
    ///
    /// Produces exactly the `cover_scan` result: the map encodes the same
    /// first-covering-node decision per index, positions are emitted in
    /// ascending order within each node (the counting sort is stable over
    /// the ascending position pass), and nodes appear in slot order =
    /// traversal order.
    fn cover_mapped(&mut self, tree: &SwatTree, idx: IdxList<'_>, opts: QueryOptions) {
        self.cover.ensure(tree, opts.min_level);
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
                    piece: *piece,
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

    /// Answer the point queries `idx` on every tree of `trees` in one
    /// pass; the answers, tree-major, each bit-identical to
    /// [`SwatTree::point_with`] on its tree.
    ///
    /// The cover is staged once and evaluated over blocks of [`BLOCK`]
    /// trees when [`shares_cover`] holds (and there is more than one
    /// tree), once per tree and evaluated at `W = 1` otherwise.
    ///
    /// # Errors
    ///
    /// The error the first tree in slice order that fails would return
    /// from [`SwatTree::point_many`].
    pub(crate) fn points_over<S: Borrow<SwatTree>>(
        &mut self,
        trees: &[S],
        idx: IdxList<'_>,
        opts: QueryOptions,
    ) -> Result<&[PointAnswer], TreeError> {
        let len = idx.len();
        self.points.clear();
        self.points.resize(trees.len() * len, UNANSWERED_POINT);
        let shared = shares_cover(trees);
        let width = if shared && trees.len() > 1 { BLOCK } else { 1 };
        let mut extrapolate = None;
        for (b, block) in trees.chunks(width).enumerate() {
            if b == 0 || !shared {
                let tree = block[0].borrow();
                idx.check(tree)?;
                self.clear_covers();
                self.cover_mapped(tree, idx, opts);
                extrapolate = extrapolation(tree, opts, &self.uncovered, |pos| idx.get(pos))?;
            }
            let cover = CoverView {
                sel: &self.sel,
                entries: &self.entries,
                uncovered: &self.uncovered,
                extrapolate,
            };
            let out = &mut self.points[b * width * len..][..block.len() * len];
            if width == BLOCK {
                lane_points(&mut self.block, block, idx, cover, out);
            } else {
                lane_points(&mut self.one, block, idx, cover, out);
            }
        }
        Ok(&self.points)
    }

    /// Answer the block `queries` on every tree of `trees` in one pass;
    /// the answers, tree-major, each bit-identical to
    /// [`SwatTree::inner_product_with`] on its tree.
    ///
    /// Every query's cover is staged — index check, serving-map lookups
    /// and counting sort — and evaluated as [`Self::points_over`] does.
    ///
    /// # Errors
    ///
    /// The error the first tree in slice order that fails would return
    /// from [`SwatTree::inner_product_many`].
    pub(crate) fn inners_over<S: Borrow<SwatTree>>(
        &mut self,
        trees: &[S],
        queries: &[InnerProductQuery],
        opts: QueryOptions,
    ) -> Result<&[InnerProductAnswer], TreeError> {
        let per_tree = queries.len();
        self.inners.clear();
        self.inners.resize(trees.len() * per_tree, UNANSWERED_INNER);
        let shared = shares_cover(trees);
        let width = if shared && trees.len() > 1 { BLOCK } else { 1 };
        for (b, block) in trees.chunks(width).enumerate() {
            if b == 0 || !shared {
                self.stage_inners(block[0].borrow(), queries, opts)?;
            }
            for (q, (query, staged)) in queries.iter().zip(&self.staged).enumerate() {
                let cover = CoverView {
                    sel: &self.sel[staged.sel.clone()],
                    entries: &self.entries,
                    uncovered: &self.uncovered[staged.uncovered.clone()],
                    extrapolate: staged.extrapolate,
                };
                let out = &mut self.inners[b * width * per_tree + q..];
                if width == BLOCK {
                    lane_inner(&mut self.block, block, query, cover, out, per_tree);
                } else {
                    lane_inner(&mut self.one, block, query, cover, out, per_tree);
                }
            }
        }
        Ok(&self.inners)
    }

    /// Stage the cover of each of `queries` on `tree`, in order.
    ///
    /// # Errors
    ///
    /// The first error in query order — refused indices or an uncovered
    /// position — which is where [`SwatTree::inner_product_many`] stops.
    fn stage_inners(
        &mut self,
        tree: &SwatTree,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
    ) -> Result<(), TreeError> {
        self.clear_covers();
        self.staged.clear();
        for query in queries {
            tree.check_query_indices(query)?;
            let (sel, uncovered) = (self.sel.len(), self.uncovered.len());
            self.cover_mapped(tree, IdxList::Slice(query.indices()), opts);
            let uncovered = uncovered..self.uncovered.len();
            let extrapolate =
                extrapolation(tree, opts, &self.uncovered[uncovered.clone()], |pos| {
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
fn nearest_eligible(tree: &SwatTree, opts: QueryOptions) -> Option<Piece> {
    let now = tree.arrivals();
    let (level, pos, s) = tree
        .nodes()
        .filter(|(l, _, _)| *l >= opts.min_level)
        .min_by_key(|(_, _, s)| s.coverage(now).0)?;
    Some(Piece::new(
        level,
        pos as usize,
        s,
        now,
        tree.config().coefficients(),
    ))
}

/// Where the `uncovered` positions of a cover staged on `tree`
/// extrapolate from: nowhere if there are none, else the nearest eligible
/// node's piece.
///
/// # Errors
///
/// [`TreeError::Uncovered`] at the first uncovered position's window
/// index (`index_of` maps a query position to it) when `opts` reads every
/// level or no node is eligible — the reference's error.
fn extrapolation(
    tree: &SwatTree,
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
    nearest_eligible(tree, opts).map(Some).ok_or(error)
}

/// The point answers every tree of `block` (at most `W`) gives the
/// queries `idx` over `cover`, written to `out` tree-major
/// (`block.len() × idx.len()`): the reference arithmetic per lane, with
/// the error bound computed from the value already walked.
#[inline]
fn lane_points<const W: usize, S: Borrow<SwatTree>>(
    lanes: &mut Lanes<W>,
    block: &[S],
    idx: IdxList<'_>,
    cover: CoverView<'_>,
    out: &mut [PointAnswer],
) {
    let len = idx.len();
    let mut emit = |pos: usize, v: &[f64; W], bound: &[f64; W], level: usize, extrapolated| {
        for (answer, (&value, &error_bound)) in
            out[pos..].iter_mut().step_by(len).zip(v.iter().zip(bound))
        {
            *answer = PointAnswer {
                value,
                error_bound,
                level,
                extrapolated,
            };
        }
    };
    for sn in cover.sel {
        lanes.gather(block, &sn.piece);
        for &pos in &cover.entries[sn.entries_start..sn.entries_start + sn.entries_len] {
            let v = lanes.values(&sn.piece, idx.get(pos));
            emit(pos, &v, &lanes.bounds(&v), sn.piece.level, false);
        }
    }
    if let Some(piece) = cover.extrapolate {
        // Every uncovered index gets the nearest node's newest value.
        lanes.gather(block, &piece);
        let v = lanes.values(&piece, piece.start);
        let widths = lanes.widths();
        for &pos in cover.uncovered {
            emit(pos, &v, &widths, piece.level, true);
        }
    }
}

/// The answer every tree of `block` (at most `W`) gives `query` over
/// `cover`, written to `out` every `stride` slots: the reference
/// arithmetic per lane, operation for operation — selected nodes in
/// traversal order, each one's positions ascending, then the
/// extrapolated positions.
fn lane_inner<const W: usize, S: Borrow<SwatTree>>(
    lanes: &mut Lanes<W>,
    block: &[S],
    query: &InnerProductQuery,
    cover: CoverView<'_>,
    out: &mut [InnerProductAnswer],
    stride: usize,
) {
    let (indices, weights) = (query.indices(), query.weights());
    let mut value = [0.0; W];
    let mut error_bound = [0.0; W];
    for sn in cover.sel {
        lanes.gather(block, &sn.piece);
        for &pos in &cover.entries[sn.entries_start..sn.entries_start + sn.entries_len] {
            let w = weights[pos];
            let v = lanes.values(&sn.piece, indices[pos]);
            let bound = lanes.bounds(&v);
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
        lanes.gather(block, &piece);
        let v = lanes.values(&piece, piece.start);
        let widths = lanes.widths();
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
    let answers = out.iter_mut().step_by(stride).take(block.len());
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
        scratch.cover_scan(self, at, opts);
        let extrapolate = extrapolation(self, opts, &scratch.uncovered, |_| idx)?;
        let cover = CoverView {
            sel: &scratch.sel,
            entries: &scratch.entries,
            uncovered: &scratch.uncovered,
            extrapolate,
        };
        let mut answer = [UNANSWERED_POINT];
        lane_points(
            &mut scratch.one,
            std::slice::from_ref(self),
            at,
            cover,
            &mut answer,
        );
        Ok(answer[0])
    }

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
        let answers =
            scratch.points_over(std::slice::from_ref(self), IdxList::Slice(indices), opts)?;
        out.clear();
        out.extend_from_slice(answers);
        Ok(())
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
        self.check_query_indices(query)?;
        scratch.cover_scan(self, IdxList::Slice(query.indices()), opts);
        let extrapolate =
            extrapolation(self, opts, &scratch.uncovered, |pos| query.indices()[pos])?;
        let cover = CoverView {
            sel: &scratch.sel,
            entries: &scratch.entries,
            uncovered: &scratch.uncovered,
            extrapolate,
        };
        let mut answer = [UNANSWERED_INNER];
        lane_inner(
            &mut scratch.one,
            std::slice::from_ref(self),
            query,
            cover,
            &mut answer,
            1,
        );
        Ok(answer[0])
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
        let answers = scratch.inners_over(std::slice::from_ref(self), queries, opts)?;
        out.clear();
        out.extend_from_slice(answers);
        Ok(())
    }

    /// [`Self::check_indices`] over a query, exploiting the profile tag:
    /// tagged profiles are contiguous ascending index runs, so one
    /// comparison against the last index replaces the full scan — with
    /// the error [`Self::check_indices`]'s ascending walk would report.
    fn check_query_indices(&self, query: &InnerProductQuery) -> Result<(), TreeError> {
        let indices = query.indices();
        if query.profile() == WeightProfile::General {
            return self.check_indices(indices);
        }
        debug_assert!(indices.windows(2).all(|w| w[1] == w[0] + 1));
        IdxList::Span {
            first: indices[0],
            len: indices.len(),
        }
        .check(self)
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
        scratch.cover_mapped(self, span, opts);
        if let Some(&pos) = scratch.uncovered.first() {
            return Err(TreeError::Uncovered {
                index: query.newest + pos,
            });
        }
        let band =
            crate::range::ValueRange::new(query.center - query.radius, query.center + query.radius);
        out.clear();
        for sn in &scratch.sel {
            let s = sn.piece.summary(self);
            // Prune: if the node's exact range cannot reach the band, no
            // value reconstructed from it (clamped into the range) can.
            if !s.range().intersects(&band) {
                continue;
            }
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                let idx = query.newest + pos;
                let v = sn.piece.value(s, idx);
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
            self,
            IdxList::Span { first: 0, len: n },
            QueryOptions::default(),
        );
        if let Some(&pos) = scratch.uncovered.first() {
            // Position equals window index for the identity span.
            return Err(TreeError::Uncovered { index: pos });
        }
        out.clear();
        out.resize(n, 0.0);
        for sn in &scratch.sel {
            let s = sn.piece.summary(self);
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                out[pos] = sn.piece.value(s, pos);
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
        scratch.cover_mapped(tree, idx, opts);
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
                scan.cover_scan(&tree, IdxList::Slice(idx), opts);
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
        // Trees with *identical geometry* (same window, k, arrival count)
        // but different data: one pass stages the cover once for all of
        // them, and each answer is still its own tree's, bit for bit — in
        // any order, with each tree's answers next to its own, in a
        // ragged block of three and over a full 16-lane block plus three.
        let n = 128;
        let forest: Vec<SwatTree> = (0..19)
            .map(|t| {
                warm_tree(
                    n,
                    8,
                    (0..3 * n).map(|i| ((i * (17 + 2 * t)) % (89 + t)) as f64 - 40.0),
                )
            })
            .collect();
        assert!(forest.iter().all(SwatTree::is_steady));
        let (a, b) = (&forest[0], &forest[1]);
        let queries = [
            InnerProductQuery::exponential(n, 1e9),
            InnerProductQuery::linear_at(5, n - 5, 1e9),
        ];
        let indices = [0usize, 1, 63, n - 1];
        let opts = QueryOptions::default();
        let mut scratch = QueryScratch::new();
        let all: Vec<&SwatTree> = forest.iter().collect();
        let reversed: Vec<&SwatTree> = forest.iter().rev().collect();
        for trees in [vec![a, b, a], vec![b, a, b], all, reversed] {
            let inners = scratch
                .inners_over(&trees, &queries, opts)
                .unwrap()
                .to_vec();
            let points = scratch
                .points_over(&trees, IdxList::Slice(&indices), opts)
                .unwrap()
                .to_vec();
            assert_eq!(scratch.cover.rebuilds, 1, "steady trees share the map");
            for (t, tree) in trees.iter().enumerate() {
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
        }
        let mut newest: Vec<u64> = forest
            .iter()
            .map(|t| t.point(n - 1).unwrap().value.to_bits())
            .collect();
        newest.sort_unstable();
        newest.dedup();
        assert_eq!(newest.len(), forest.len(), "every tree answers differently");
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
        // tree on its own data.
        let forest: Vec<SwatTree> = (0..21)
            .map(|t| warm_tree(128, 4, (0..400).map(|i| ((i * (7 + t)) % (53 + t)) as f64)))
            .collect();
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
            scratch
                .points_over(&forest, IdxList::Slice(&indices), QueryOptions::default())
                .unwrap();
            scratch
                .inners_over(&forest, &queries, QueryOptions::default())
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
