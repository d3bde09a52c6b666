//! The zero-allocation query engine: reusable scratch buffers, a cached
//! node-cover index, batched entry points, and the coefficient-domain
//! inner-product kernel.
//!
//! # Bit-identity contract
//!
//! Every evaluation path in this module (except the explicitly
//! approximate [`SwatTree::inner_product_coeffs`]) produces answers
//! **bit-identical** to the frozen implementations in
//! [`crate::query::reference`]: the same greedy cover, the same traversal
//! order, the same floating-point operations in the same order. The
//! equivalence property tests in `tests/query_equivalence.rs` enforce
//! this; the engine differs from the reference only in *where the bytes
//! live* (caller-owned buffers instead of per-call `Vec`s) and in hoisting
//! arithmetic that is identical by inlining (e.g. computing a point value
//! once instead of re-walking the coefficient tree for its error bound).
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
//! the window, the arrival count and the `(level, created_at)` sequence
//! of all populated nodes (and `min_level`). Any `push` advances the
//! arrival count, so every mutation invalidates; the comparison is exact
//! (no hashing), so a stale cache can never be mistaken for a fresh one.
//! Once a tree is steady ([`SwatTree::is_steady`]) that node sequence is a
//! function of the window and the arrival count alone, so a map built for
//! a steady tree is accepted for any steady tree on those two words, in
//! `O(1)`; a tree that is not steady (warming up, or restored from a
//! hand-built snapshot) is compared node for node.
//!
//! Single-shot queries (`point_with`, `inner_product_with`, …) instead use
//! a buffered variant of the reference scan — same `O(3 log N · M)`
//! complexity, zero allocation — so one-off queries on a churning tree
//! never pay a map rebuild. The batched entry points ([`SwatTree::point_many`],
//! [`SwatTree::inner_product_many`]) and full-window paths use the map and
//! amortize it across the block.

use std::cell::RefCell;

use crate::config::TreeError;
use crate::query::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch, RangeQuery,
    WeightProfile,
};
use crate::tree::SwatTree;
use swat_wavelet::dot::{
    adjoint_into, dot_coeffs, dot_coeffs_clipped, profile_sum, CanonicalProfile, ProfileTable,
};

/// Sentinel in the serving map: no eligible node covers this index.
const UNSERVED: u32 = u32::MAX;

/// A query's index vector, either explicit or an implicit contiguous
/// span (range queries and window reconstruction), so interval queries
/// never materialize `(a..=b).collect()`.
#[derive(Clone, Copy)]
enum IdxList<'a> {
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
}

/// One node selected by the greedy cover: where it lives in the tree and
/// which slice of the shared `entries` buffer holds the query positions
/// it serves.
#[derive(Debug, Clone, Copy)]
struct SelNode {
    level: usize,
    queue_index: usize,
    entries_start: usize,
    entries_len: usize,
    /// Index into the cover cache's `slots` (and the scratch's per-batch
    /// block cache), or [`UNSERVED`] for scan-mode covers, which carry no
    /// slot identity.
    slot: u32,
}

/// One eligible node in traversal order, with its coverage at the cached
/// arrival count.
#[derive(Debug, Clone, Copy)]
struct SlotInfo {
    level: usize,
    queue_index: usize,
}

/// The lazily built serving-map index over a tree's nodes (see the module
/// docs for the invalidation rule).
#[derive(Debug, Default)]
struct CoverCache {
    valid: bool,
    min_level: usize,
    window: usize,
    arrivals: u64,
    /// Whether the tree this cache was built for was steady.
    steady: bool,
    /// `(level, created_at)` of every populated node, traversal order —
    /// the exact cover geometry this cache was built for.
    geom: Vec<(u32, u64)>,
    /// Eligible nodes (level ≥ `min_level`), traversal order.
    slots: Vec<SlotInfo>,
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
            && self.arrivals == tree.arrivals()
            && ((self.steady && tree.is_steady()) || self.geom_matches(tree))
        {
            return;
        }
        self.rebuild(tree, min_level);
    }

    fn rebuild(&mut self, tree: &SwatTree, min_level: usize) {
        let window = tree.config().window();
        let now = tree.arrivals();
        self.geom.clear();
        self.slots.clear();
        self.serving.clear();
        self.serving.resize(window, UNSERVED);
        for (level, pos, s) in tree.nodes() {
            let queue_index = pos as usize;
            self.geom.push((level as u32, s.created_at()));
            if level < min_level {
                continue;
            }
            let (start, end) = s.coverage(now);
            let slot = self.slots.len() as u32;
            self.slots.push(SlotInfo { level, queue_index });
            // First eligible node in traversal order wins each index —
            // exactly the reference greedy cover's per-index decision.
            for idx in start..window.min(end + 1) {
                if self.serving[idx] == UNSERVED {
                    self.serving[idx] = slot;
                }
            }
        }
        self.valid = true;
        self.min_level = min_level;
        self.window = window;
        self.arrivals = now;
        self.steady = tree.is_steady();
        self.rebuilds += 1;
    }
}

/// Reusable buffers for query evaluation over a [`SwatTree`].
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
    /// Selected nodes, traversal order.
    sel: Vec<SelNode>,
    /// Query positions grouped by selected node (ascending within each).
    entries: Vec<usize>,
    /// Query positions no eligible node covers, ascending.
    uncovered: Vec<usize>,
    /// Time-domain block reconstruction + its ping-pong buffer.
    block: Vec<f64>,
    tmp: Vec<f64>,
    /// Per-slot reconstructed node blocks, valid for one batched call
    /// against one tree (empty inner vec = not yet built this batch).
    /// The serving map can be shared across trees with equal geometry;
    /// reconstructed *values* never can, so this resets every batch.
    blocks: Vec<Vec<f64>>,
    /// Dense weight layout, adjoint output, adjoint ping-pong (kernel).
    wdense: Vec<f64>,
    wadj: Vec<f64>,
    wtmp: Vec<f64>,
    /// Cached transformed weights for the closed-form profiles.
    profiles: ProfileTable,
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
            + self.cover.slots.capacity() * size_of::<SlotInfo>()
            + self.cover.serving.capacity() * size_of::<u32>()
            + self.covered.capacity()
            + self.counts.capacity() * size_of::<usize>()
            + self.sel.capacity() * size_of::<SelNode>()
            + self.entries.capacity() * size_of::<usize>()
            + self.uncovered.capacity() * size_of::<usize>()
            + (self.block.capacity()
                + self.tmp.capacity()
                + self.wdense.capacity()
                + self.wadj.capacity()
                + self.wtmp.capacity())
                * size_of::<f64>()
            + self.blocks.capacity() * size_of::<Vec<f64>>()
            + self
                .blocks
                .iter()
                .map(|b| b.capacity() * size_of::<f64>())
                .sum::<usize>()
    }

    /// Invalidate the per-batch node-block cache: inner vectors keep
    /// their capacity but are marked unbuilt, and the outer vector grows
    /// to cover every current slot. Called at the start of each batched
    /// evaluation — cached blocks hold tree-specific *values* and must
    /// never outlive one (tree, batch) pairing.
    fn reset_blocks(&mut self) {
        for b in &mut self.blocks {
            b.clear();
        }
        while self.blocks.len() < self.cover.slots.len() {
            self.blocks.push(Vec::new());
        }
    }

    /// Reference-order greedy cover via a nodes × positions scan into the
    /// scratch buffers — the allocation-free twin of
    /// `query::reference::cover`.
    fn cover_scan(&mut self, tree: &SwatTree, idx: IdxList<'_>, opts: QueryOptions) {
        let now = tree.arrivals();
        self.sel.clear();
        self.entries.clear();
        self.uncovered.clear();
        self.covered.clear();
        self.covered.resize(idx.len(), false);
        let mut remaining = idx.len();
        for (level, pos, summary) in tree.nodes() {
            let queue_index = pos as usize;
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
                    level,
                    queue_index,
                    entries_start,
                    entries_len,
                    slot: UNSERVED,
                });
            }
        }
        for pos in 0..idx.len() {
            if !self.covered[pos] {
                self.uncovered.push(pos);
            }
        }
    }

    /// Greedy cover via the serving map plus a stable counting sort.
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
        sel.clear();
        entries.clear();
        uncovered.clear();
        counts.clear();
        counts.resize(cover.slots.len(), 0);
        for pos in 0..idx.len() {
            match cover.serving[idx.get(pos)] {
                UNSERVED => uncovered.push(pos),
                slot => counts[slot as usize] += 1,
            }
        }
        let mut offset = 0usize;
        for (slot, count) in counts.iter_mut().enumerate() {
            let c = *count;
            if c > 0 {
                let info = cover.slots[slot];
                sel.push(SelNode {
                    level: info.level,
                    queue_index: info.queue_index,
                    entries_start: offset,
                    entries_len: c,
                    slot: slot as u32,
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
}

thread_local! {
    static THREAD_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` with this thread's shared [`QueryScratch`] — the engine behind
/// the scratch-less public query methods.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

impl SwatTree {
    /// Reduced-level extrapolation source: the freshest node at an
    /// eligible level, answered from its newest covered position — the
    /// reference implementations' extrapolation verbatim.
    fn extrapolate_point(&self, opts: QueryOptions) -> Option<PointAnswer> {
        let now = self.arrivals();
        let (_, _, s) = self
            .nodes()
            .filter(|(l, _, _)| *l >= opts.min_level)
            .min_by_key(|(_, _, s)| s.coverage(now).0)?;
        let (start, _) = s.coverage(now);
        Some(PointAnswer {
            value: s.value_at(now, start),
            error_bound: s.range().width(),
            level: s.level(),
            extrapolated: true,
        })
    }

    /// The answer served by `sel`'s summary for covered index `idx`.
    ///
    /// `error_bound` hoists [`crate::node::Summary::error_bound_at`]'s
    /// arithmetic over the already-computed value — identical operations,
    /// one coefficient walk instead of two.
    fn covered_point_answer(
        &self,
        sel_level: usize,
        queue_index: usize,
        idx: usize,
    ) -> PointAnswer {
        let now = self.arrivals();
        let s = self
            .summary_at(sel_level, queue_index)
            .expect("cover refers to a live node");
        let value = s.value_at(now, idx);
        let error_bound = (value - s.range().lo()).max(s.range().hi() - value);
        PointAnswer {
            value,
            error_bound,
            level: s.level(),
            extrapolated: false,
        }
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
        scratch.cover_scan(self, IdxList::Span { first: idx, len: 1 }, opts);
        if let Some(sn) = scratch.sel.first() {
            return Ok(self.covered_point_answer(sn.level, sn.queue_index, idx));
        }
        debug_assert_eq!(scratch.uncovered, [0]);
        if opts.min_level == 0 {
            return Err(TreeError::Uncovered { index: idx });
        }
        self.extrapolate_point(opts)
            .ok_or(TreeError::Uncovered { index: idx })
    }

    /// Answer a block of point queries, amortizing the cover cache across
    /// the batch: after `check_indices` and one (usually cached) serving-map
    /// lookup table, each answer costs `O(log N)`.
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
        self.check_indices(indices)?;
        scratch.cover.ensure(self, opts.min_level);
        out.clear();
        for &idx in indices {
            match scratch.cover.serving[idx] {
                UNSERVED => {
                    if opts.min_level == 0 {
                        return Err(TreeError::Uncovered { index: idx });
                    }
                    let ans = self
                        .extrapolate_point(opts)
                        .ok_or(TreeError::Uncovered { index: idx })?;
                    out.push(ans);
                }
                slot => {
                    let info = scratch.cover.slots[slot as usize];
                    out.push(self.covered_point_answer(info.level, info.queue_index, idx));
                }
            }
        }
        Ok(())
    }

    /// Values of the contiguous span `first..first + len`, one per index —
    /// the batched core behind [`crate::StreamSet`]'s recent-window reads.
    ///
    /// # Errors
    ///
    /// As [`Self::point_many`] over the same indices.
    pub(crate) fn point_span_into(
        &self,
        first: usize,
        len: usize,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TreeError> {
        let window = self.config().window();
        if len > 0 && first + len > window {
            // First failing index of an ascending scan.
            return Err(TreeError::IndexOutOfWindow {
                index: window.max(first),
                window,
            });
        }
        scratch.cover.ensure(self, opts.min_level);
        out.clear();
        for idx in first..first + len {
            match scratch.cover.serving[idx] {
                UNSERVED => {
                    if opts.min_level == 0 {
                        return Err(TreeError::Uncovered { index: idx });
                    }
                    let ans = self
                        .extrapolate_point(opts)
                        .ok_or(TreeError::Uncovered { index: idx })?;
                    out.push(ans.value);
                }
                slot => {
                    let info = scratch.cover.slots[slot as usize];
                    let now = self.arrivals();
                    let s = self
                        .summary_at(info.level, info.queue_index)
                        .expect("cover refers to a live node");
                    out.push(s.value_at(now, idx));
                }
            }
        }
        Ok(())
    }

    /// Shared inner-product evaluation over a cover already staged in
    /// `scratch` — the reference arithmetic, operation for operation.
    fn inner_eval(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<InnerProductAnswer, TreeError> {
        let QueryScratch {
            sel,
            entries,
            uncovered,
            block,
            tmp,
            blocks,
            ..
        } = scratch;
        if !uncovered.is_empty() && opts.min_level == 0 {
            return Err(TreeError::Uncovered {
                index: query.indices()[uncovered[0]],
            });
        }
        let now = self.arrivals();
        let mut value = 0.0;
        let mut error_bound = 0.0;
        for sn in sel.iter() {
            let s = self
                .summary_at(sn.level, sn.queue_index)
                .expect("cover refers to a live node");
            let width = s.width();
            let lo = s.range().lo();
            let hi = s.range().hi();
            let served = &entries[sn.entries_start..sn.entries_start + sn.entries_len];
            // Per-point evaluation costs O(log width) each; one full
            // reconstruction costs O(width) and then O(1) per point.
            // Pick whichever is cheaper for this node's share.
            let log_w = usize::BITS - width.leading_zeros();
            if served.len() * log_w as usize > width {
                // Mapped covers carry a slot identity: reconstruct each
                // node once per batch and reuse the block for every query
                // it serves (bit-identical values either way).
                let block: &[f64] = if sn.slot != UNSERVED {
                    let cached = &mut blocks[sn.slot as usize];
                    if cached.is_empty() {
                        s.reconstruct_clamped_into(cached, tmp);
                    }
                    cached
                } else {
                    s.reconstruct_clamped_into(block, tmp);
                    block
                };
                let (start, _) = s.coverage(now);
                for &pos in served {
                    let idx = query.indices()[pos];
                    let w = query.weights()[pos];
                    let v = block[idx - start];
                    value += w * v;
                    error_bound += w.abs() * (v - lo).max(hi - v);
                }
            } else {
                for &pos in served {
                    let idx = query.indices()[pos];
                    let w = query.weights()[pos];
                    // error_bound_at's arithmetic over the shared value.
                    let v = s.value_at(now, idx);
                    value += w * v;
                    error_bound += w.abs() * (v - lo).max(hi - v);
                }
            }
        }
        // Extrapolate whatever reduced-level mode left uncovered.
        if !uncovered.is_empty() {
            let nearest = self
                .nodes()
                .filter(|(l, _, _)| *l >= opts.min_level)
                .min_by_key(|(_, _, s)| s.coverage(now).0);
            let Some((_, _, s)) = nearest else {
                return Err(TreeError::Uncovered {
                    index: query.indices()[uncovered[0]],
                });
            };
            let (start, _) = s.coverage(now);
            let v = s.value_at(now, start);
            for &pos in uncovered.iter() {
                let w = query.weights()[pos];
                value += w * v;
                error_bound += w.abs() * s.range().width();
            }
        }
        Ok(InnerProductAnswer {
            value,
            error_bound,
            meets_precision: error_bound <= query.delta(),
            nodes_used: sel.len(),
            extrapolated: uncovered.len(),
        })
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
        self.inner_eval(query, opts, scratch)
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
        out.clear();
        scratch.cover.ensure(self, opts.min_level);
        scratch.reset_blocks();
        for query in queries {
            self.check_query_indices(query)?;
            scratch.cover_mapped(self, IdxList::Slice(query.indices()), opts);
            let ans = self.inner_eval(query, opts, scratch)?;
            out.push(ans);
        }
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
        let window = self.config().window();
        if indices[indices.len() - 1] >= window {
            // First failing index of an ascending contiguous run.
            return Err(TreeError::IndexOutOfWindow {
                index: window.max(indices[0]),
                window,
            });
        }
        Ok(())
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
        if query.oldest >= window {
            // First failing index of the reference's ascending scan.
            return Err(TreeError::IndexOutOfWindow {
                index: window.max(query.newest),
                window,
            });
        }
        let span = IdxList::Span {
            first: query.newest,
            len: query.oldest - query.newest + 1,
        };
        // Interval queries touch a large slice of the window, so the
        // serving map (one lookup per position) beats the nodes × span
        // scan even counting an occasional rebuild.
        scratch.cover_mapped(self, span, opts);
        if let Some(&pos) = scratch.uncovered.first() {
            return Err(TreeError::Uncovered {
                index: query.newest + pos,
            });
        }
        let now = self.arrivals();
        let band =
            crate::range::ValueRange::new(query.center - query.radius, query.center + query.radius);
        out.clear();
        for sn in &scratch.sel {
            let s = self
                .summary_at(sn.level, sn.queue_index)
                .expect("cover refers to a live node");
            // Prune: if the node's exact range cannot reach the band, no
            // value reconstructed from it (clamped into the range) can.
            if !s.range().intersects(&band) {
                continue;
            }
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                let idx = query.newest + pos;
                let v = s.value_at(now, idx);
                if (v - query.center).abs() <= query.radius {
                    matches_push(out, idx, v);
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
        scratch.cover_mapped(
            self,
            IdxList::Span { first: 0, len: n },
            QueryOptions::default(),
        );
        if let Some(&pos) = scratch.uncovered.first() {
            // Position equals window index for the identity span.
            return Err(TreeError::Uncovered { index: pos });
        }
        let now = self.arrivals();
        out.clear();
        out.resize(n, 0.0);
        for sn in &scratch.sel {
            let s = self
                .summary_at(sn.level, sn.queue_index)
                .expect("cover refers to a live node");
            let served = &scratch.entries[sn.entries_start..sn.entries_start + sn.entries_len];
            for &pos in served {
                out[pos] = s.value_at(now, pos);
            }
        }
        Ok(())
    }

    /// Answer an inner-product query **entirely in the wavelet domain**:
    /// per covered node, `⟨w, x̂⟩ = ⟨adjoint(w), c⟩` is evaluated over the
    /// node's `k` stored coefficients — `O(k)` per node for the tagged
    /// exponential/linear profiles (closed-form transformed weights,
    /// cached per (width, profile) in the scratch's
    /// [`swat_wavelet::ProfileTable`]) — with no time-domain
    /// reconstruction at all.
    ///
    /// Differences from the exact path ([`Self::inner_product_with`]):
    ///
    /// * reconstructed values are **not** clamped into the node's exact
    ///   range, so `value` may differ from the exact path at
    ///   floating-point-ulp scale (and wherever clamping genuinely bites);
    /// * `error_bound` is the looser—but still **sound**—per-node bound
    ///   `Σ|w| · (hi − lo)`: the unclamped reconstruction provably lies
    ///   within the node's `[lo, hi]` alongside the truth, so each entry's
    ///   error is at most the range width. It is at most 2× the exact
    ///   path's bound.
    ///
    /// [`WeightProfile::General`] queries fall back to a dense adjoint
    /// transform per node (`O(width)`, like a reconstruction, but still
    /// allocation-free).
    ///
    /// # Errors
    ///
    /// As [`Self::inner_product_with`].
    pub fn inner_product_coeffs(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.check_query_indices(query)?;
        scratch.cover_mapped(self, IdxList::Slice(query.indices()), opts);
        let QueryScratch {
            sel,
            entries,
            uncovered,
            wdense,
            wadj,
            wtmp,
            profiles,
            ..
        } = scratch;
        if !uncovered.is_empty() && opts.min_level == 0 {
            return Err(TreeError::Uncovered {
                index: query.indices()[uncovered[0]],
            });
        }
        let now = self.arrivals();
        let qstart = query.indices()[0];
        let mut value = 0.0;
        let mut error_bound = 0.0;
        for sn in sel.iter() {
            let s = self
                .summary_at(sn.level, sn.queue_index)
                .expect("cover refers to a live node");
            let width = s.width();
            let range_width = s.range().width();
            let coeffs = s.coeffs().coefficients();
            let (start, _) = s.coverage(now);
            let served = &entries[sn.entries_start..sn.entries_start + sn.entries_len];
            // Served positions are ascending; for the tagged profiles the
            // query indices are contiguous from `qstart`, so a contiguous
            // position run is a contiguous local range of the block.
            let contiguous = served[served.len() - 1] - served[0] == served.len() - 1;
            let profile = match query.profile() {
                WeightProfile::Exponential if contiguous => Some(CanonicalProfile::Geometric),
                WeightProfile::Linear if contiguous => Some(CanonicalProfile::Ones),
                _ => None,
            };
            match profile {
                Some(CanonicalProfile::Geometric) => {
                    let a = query.indices()[served[0]] - start;
                    let b = query.indices()[served[served.len() - 1]] - start;
                    // w(local p) = (1/2)^(p + shift), shift = start − qstart.
                    let shift = start as i64 - qstart as i64;
                    let scale = 0.5f64.powi(shift as i32);
                    if a == 0 && b == width - 1 {
                        let tw = profiles.weights(CanonicalProfile::Geometric, width, coeffs.len());
                        value += scale * dot_coeffs(coeffs, tw);
                    } else {
                        value += scale
                            * dot_coeffs_clipped(coeffs, width, a, b, |lo, hi| {
                                profile_sum(CanonicalProfile::Geometric, lo, hi)
                            });
                    }
                    let sum_w = scale * profile_sum(CanonicalProfile::Geometric, a, b);
                    error_bound += sum_w * range_width;
                }
                Some(_) => {
                    let a = query.indices()[served[0]] - start;
                    let b = query.indices()[served[served.len() - 1]] - start;
                    // w(local p) = (m − (p + shift))/m = α + β·p.
                    let m = query.len() as f64;
                    let shift = (start as i64 - qstart as i64) as f64;
                    let alpha = (m - shift) / m;
                    let beta = -1.0 / m;
                    if a == 0 && b == width - 1 {
                        let ones = profiles.weights(CanonicalProfile::Ones, width, coeffs.len());
                        value += alpha * dot_coeffs(coeffs, ones);
                        let ramp = profiles.weights(CanonicalProfile::Ramp, width, coeffs.len());
                        value += beta * dot_coeffs(coeffs, ramp);
                    } else {
                        value += alpha
                            * dot_coeffs_clipped(coeffs, width, a, b, |lo, hi| {
                                profile_sum(CanonicalProfile::Ones, lo, hi)
                            });
                        value += beta
                            * dot_coeffs_clipped(coeffs, width, a, b, |lo, hi| {
                                profile_sum(CanonicalProfile::Ramp, lo, hi)
                            });
                    }
                    // Linear weights are positive over the query, so
                    // Σ|w| = Σw = α·count + β·ramp-sum.
                    let sum_w = alpha * profile_sum(CanonicalProfile::Ones, a, b)
                        + beta * profile_sum(CanonicalProfile::Ramp, a, b);
                    error_bound += sum_w * range_width;
                }
                None => {
                    // Dense adjoint fallback: lay the served weights into
                    // block-local positions (zeros elsewhere) and transform.
                    wdense.clear();
                    wdense.resize(width, 0.0);
                    let mut sum_abs = 0.0;
                    for &pos in served {
                        let local = query.indices()[pos] - start;
                        let w = query.weights()[pos];
                        wdense[local] = w;
                        sum_abs += w.abs();
                    }
                    adjoint_into(wdense, wadj, wtmp).expect("node width is a power of two");
                    value += dot_coeffs(coeffs, wadj);
                    error_bound += sum_abs * range_width;
                }
            }
        }
        // Extrapolation mirrors the exact path (the bound there is already
        // the range width per entry).
        if !uncovered.is_empty() {
            let nearest = self
                .nodes()
                .filter(|(l, _, _)| *l >= opts.min_level)
                .min_by_key(|(_, _, s)| s.coverage(now).0);
            let Some((_, _, s)) = nearest else {
                return Err(TreeError::Uncovered {
                    index: query.indices()[uncovered[0]],
                });
            };
            let (start, _) = s.coverage(now);
            let v = s.value_at(now, start);
            for &pos in uncovered.iter() {
                let w = query.weights()[pos];
                value += w * v;
                error_bound += w.abs() * s.range().width();
            }
        }
        Ok(InnerProductAnswer {
            value,
            error_bound,
            meets_precision: error_bound <= query.delta(),
            nodes_used: sel.len(),
            extrapolated: uncovered.len(),
        })
    }
}

/// Push helper kept out of the hot loop body so the borrow of `out` stays
/// narrow.
#[inline]
fn matches_push(out: &mut Vec<RangeMatch>, index: usize, value: f64) {
    out.push(RangeMatch { index, value });
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

    fn covers_equal(a: &QueryScratch, b: &QueryScratch) -> bool {
        a.sel.len() == b.sel.len()
            && a.sel.iter().zip(&b.sel).all(|(x, y)| {
                x.level == y.level
                    && x.queue_index == y.queue_index
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
                mapped.cover_mapped(&tree, IdxList::Slice(idx), opts);
                assert!(
                    covers_equal(&scan, &mapped),
                    "cover mismatch at min_level {min_level} for {idx:?}"
                );
            }
        }
    }

    #[test]
    fn block_cache_never_leaks_values_across_trees() {
        // Two trees with *identical geometry* (same window, k, arrival
        // count) but different data: the serving map may be reused across
        // them, reconstructed value blocks must not be.
        let n = 128;
        let a = warm_tree(n, 8, (0..3 * n).map(|i| ((i * 31) % 101) as f64));
        let b = warm_tree(n, 8, (0..3 * n).map(|i| ((i * 17) % 89) as f64 - 40.0));
        let queries = [
            InnerProductQuery::exponential(n, 1e9),
            InnerProductQuery::linear_at(5, n - 5, 1e9),
        ];
        assert!(a.is_steady() && b.is_steady());
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for tree in [&a, &b, &a] {
            tree.inner_product_many(&queries, QueryOptions::default(), &mut scratch, &mut out)
                .unwrap();
            assert_eq!(scratch.cover.rebuilds, 1, "steady trees share the map");
            for (q, got) in queries.iter().zip(&out) {
                let want =
                    crate::query::reference::inner_product_with(tree, q, QueryOptions::default())
                        .unwrap();
                assert_eq!(got.value.to_bits(), want.value.to_bits());
                assert_eq!(got.error_bound.to_bits(), want.error_bound.to_bits());
            }
        }
    }

    #[test]
    fn cover_cache_rebuilds_only_on_geometry_change() {
        let mut tree = warm_tree(32, 2, (0..96).map(|i| i as f64));
        let mut scratch = QueryScratch::new();
        let opts = QueryOptions::default();
        scratch.cover_mapped(&tree, IdxList::Span { first: 0, len: 32 }, opts);
        assert_eq!(scratch.cover.rebuilds, 1);
        // Same tree, same options: cached.
        for _ in 0..5 {
            scratch.cover_mapped(&tree, IdxList::Span { first: 0, len: 32 }, opts);
        }
        assert_eq!(scratch.cover.rebuilds, 1);
        // A push changes the arrival count: invalidated.
        tree.push(7.0);
        scratch.cover_mapped(&tree, IdxList::Span { first: 0, len: 32 }, opts);
        assert_eq!(scratch.cover.rebuilds, 2);
        // Changing min_level also invalidates.
        scratch.cover_mapped(
            &tree,
            IdxList::Span { first: 0, len: 32 },
            QueryOptions::at_level(1),
        );
        assert_eq!(scratch.cover.rebuilds, 3);
        // A different tree with a different age is caught too.
        let other = warm_tree(32, 2, (0..100).map(|i| i as f64));
        scratch.cover_mapped(
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
        scratch.cover_mapped(&odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 1);
        // The same unsteady tree again: compared node for node, cached.
        scratch.cover_mapped(&odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 1);
        // Equal (window, arrivals) but one side is not steady: the walk
        // sees the different geometry, in either direction.
        scratch.cover_mapped(&grown, span, opts);
        assert_eq!(scratch.cover.rebuilds, 2);
        assert!(scratch.uncovered.is_empty());
        scratch.cover_mapped(&odd, span, opts);
        assert_eq!(scratch.cover.rebuilds, 3);
        // And it still invalidates as any tree does: on another age, on
        // another `min_level`.
        let older = hand_built(n, 2, 100);
        scratch.cover_mapped(&older, span, opts);
        assert_eq!(scratch.cover.rebuilds, 4);
        scratch.cover_mapped(&older, span, QueryOptions::at_level(1));
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
            for q in &queries {
                tree.inner_product_coeffs(q, QueryOptions::default(), scratch)
                    .unwrap();
            }
            tree.reconstruct_window_into(scratch, win).unwrap();
        };
        run(&mut scratch, &mut pts, &mut ips, &mut win);
        let warm = scratch.bytes_reserved();
        assert!(warm > 0);
        for _ in 0..10 {
            run(&mut scratch, &mut pts, &mut ips, &mut win);
            assert_eq!(scratch.bytes_reserved(), warm, "buffers regrew");
        }
    }

    #[test]
    fn kernel_is_close_and_sound_on_lossless_trees() {
        // With k = width the unclamped reconstruction is exact, so the
        // kernel value must match the exact inner product to fp tolerance.
        let values: Vec<f64> = (0..96).map(|i| ((i * 31) % 17) as f64 - 5.0).collect();
        let tree = warm_tree(32, 32, values.iter().copied());
        let window: Vec<f64> = (0..32).map(|i| values[values.len() - 1 - i]).collect();
        let mut scratch = QueryScratch::new();
        for q in [
            InnerProductQuery::exponential(32, 1e9),
            InnerProductQuery::exponential_at(3, 20, 1e9),
            InnerProductQuery::linear(16, 1e9),
            InnerProductQuery::linear_at(7, 21, 1e9),
            InnerProductQuery::point(11, 1e9),
            InnerProductQuery::new(vec![1, 4, 9, 16, 25], vec![0.5, -2.0, 3.0, 1.0, -0.25], 1e9)
                .unwrap(),
        ] {
            let exact = q.exact(&window);
            let ans = tree
                .inner_product_coeffs(&q, QueryOptions::default(), &mut scratch)
                .unwrap();
            assert!(
                (ans.value - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
                "{q:?}: kernel {} vs exact {exact}",
                ans.value
            );
        }
    }

    #[test]
    fn kernel_bound_is_sound_and_at_most_twice_reference() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 97) as f64 * 0.5).collect();
        let tree = warm_tree(64, 4, values.iter().copied());
        let window: Vec<f64> = (0..64).map(|i| values[values.len() - 1 - i]).collect();
        let mut scratch = QueryScratch::new();
        for q in [
            InnerProductQuery::exponential(64, 1e9),
            InnerProductQuery::exponential_at(9, 40, 1e9),
            InnerProductQuery::linear(48, 1e9),
            InnerProductQuery::linear_at(20, 44, 1e9),
            InnerProductQuery::new(vec![0, 5, 33, 60], vec![1.5, -0.5, 2.0, 1.0], 1e9).unwrap(),
        ] {
            let exact = q.exact(&window);
            let kernel = tree
                .inner_product_coeffs(&q, QueryOptions::default(), &mut scratch)
                .unwrap();
            let reference =
                crate::query::reference::inner_product_with(&tree, &q, QueryOptions::default())
                    .unwrap();
            assert!(
                (kernel.value - exact).abs() <= kernel.error_bound + 1e-9,
                "{q:?}: |{} - {exact}| > {}",
                kernel.value,
                kernel.error_bound
            );
            assert!(
                kernel.error_bound <= 2.0 * reference.error_bound + 1e-9,
                "{q:?}: kernel bound {} vs reference {}",
                kernel.error_bound,
                reference.error_bound
            );
            assert_eq!(kernel.nodes_used, reference.nodes_used);
        }
    }
}
