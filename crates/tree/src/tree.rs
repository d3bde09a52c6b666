//! The SWAT approximation tree.
//!
//! # Structure
//!
//! For a sliding window of `N = 2^n` values the tree has `n` levels. Each
//! level `l < n-1` retains the **three** most recent level-`l` summaries —
//! the paper's *Right*, *Shift* and *Left* nodes — and the top level
//! retains one, for `3 log N − 2` nodes total. A level-`l` summary
//! describes a dyadic block of `2^(l+1)` consecutive stream values and
//! never changes while retained; the paper's shift `L := S; S := R;
//! R := new` renames three nodes and writes one, and so does this tree:
//! which slot of a level is `R` lives in the block header (`Order`, in
//! `crate::block`), a refresh steps it and overwrites the lanes of the
//! slot that held the evicted generation in place (`Block::refresh`), and
//! no lane ever moves: a slot's lanes stay where the block's layout put
//! them, one lane per tree of the block, from the first arrival on.
//!
//! # Storage and views
//!
//! A [`SwatTree`] is the one-lane block of `crate::block`, the storage a
//! [`StreamSet`](crate::StreamSet) keeps sixteen streams in. What a
//! reader asks of one tree — points, inner products, ranges, its nodes,
//! its digest, its snapshot — is the read API of [`TreeView`], a `Copy`
//! view of one lane of a block: [`StreamSet::tree`](crate::StreamSet::tree)
//! hands one out per stream, and [`SwatTree`]'s read methods are the same
//! calls on a view of its own block. A view reads the block's header and
//! its lane's rows where they are; only [`TreeView::node`] and
//! [`TreeView::nodes`] build owned [`Summary`] values.
//!
//! # Update (the paper's Figure 3a)
//!
//! On each arrival the tree produces a fresh level-0 summary from the two
//! newest raw values. Whenever the arrival count is divisible by `2^l`,
//! level `l` produces a fresh summary by *merging* the level-`l−1` Right
//! node (the `2^l` newest values) with the level-`l−1` Left node (the
//! `2^l` values before those): `contents(R_l) := DWT(R_{l−1}, L_{l−1})`.
//! The merge is the exact `O(k)` coefficient merge of `swat-wavelet`, so
//! one complete cycle of `N` arrivals costs `Σ_l 3·O(k)·N/2^l = O(kN)`
//! work — `O(k)` amortized per arrival, matching §2.6 of the paper.
//!
//! Because refreshes are delayed (level `l` only refreshes every `2^l`
//! arrivals), a summary *ages*: the block it describes slides into the
//! past at one window index per arrival. [`Summary::coverage`] accounts
//! for this, reproducing the paper's execution trace (Figure 2) exactly —
//! see the `fig2_trace` integration test.

use std::collections::VecDeque;

use crate::block::{Block, Head};
use crate::config::{SwatConfig, TreeError};
use crate::node::Summary;
use crate::query::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch, RangeQuery,
};
use crate::range::ValueRange;
use crate::scratch::QueryScratch;
use swat_wavelet::HaarCoeffs;

/// Which of the three per-level nodes a summary currently occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodePos {
    /// The newest summary at its level (`R` in the paper).
    Right,
    /// The middle generation (`S`).
    Shift,
    /// The oldest retained generation (`L`).
    Left,
}

impl NodePos {
    /// The paper's query-time traversal order within a level: `R → S → L`
    /// — queue indices 0, 1, 2.
    pub const ORDER: [NodePos; 3] = [NodePos::Right, NodePos::Shift, NodePos::Left];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            NodePos::Right => "R",
            NodePos::Shift => "S",
            NodePos::Left => "L",
        }
    }
}

/// A SWAT tree summarizing the last `N` values of a data stream at
/// multiple resolutions, stored as a block of one lane.
///
/// See the [module docs](self) for the structure, the storage and the
/// update rules, and the [`crate::query`] module for the query interface.
#[derive(Debug, Clone)]
pub struct SwatTree {
    pub(crate) block: Block<1>,
}

impl SwatTree {
    /// An empty tree; summaries populate as values arrive (all levels are
    /// populated after at most `2N` arrivals — see [`SwatTree::is_warm`]).
    pub fn new(config: SwatConfig) -> Self {
        SwatTree {
            block: Block::new(config),
        }
    }

    /// A tree bulk-initialized from one full window of values (given in
    /// arrival order, oldest first), with every level freshly refreshed —
    /// the state of the paper's Figure 2(a).
    ///
    /// # Errors
    ///
    /// [`TreeError::BadInitLength`] unless exactly `config.window()`
    /// values are supplied.
    pub fn from_window(config: SwatConfig, values: &[f64]) -> Result<Self, TreeError> {
        let n_vals = config.window();
        if values.len() != n_vals {
            return Err(TreeError::BadInitLength {
                got: values.len(),
                want: n_vals,
            });
        }
        let mut tree = SwatTree::new(config);
        let t = n_vals as u64;
        tree.block.head.t = t;
        tree.set_newest(values.last().copied());
        let k = config.coefficients();
        for l in 0..config.levels() {
            let width = 1usize << (l + 1);
            let generations = tree.block.head.order.capacity(l);
            // Oldest generation first so the newest ends up at the front.
            for g in (0..generations).rev() {
                let created_at = t - (g as u64) * (width as u64 / 2);
                // Block = absolute positions [created_at - width, created_at).
                let hi = created_at as usize;
                let lo = hi - width;
                // Signals are stored newest-first (window index order).
                let mut block: Vec<f64> = values[lo..hi].to_vec();
                block.reverse();
                let coeffs =
                    HaarCoeffs::from_signal(&block, k).expect("window blocks are powers of two");
                tree.block
                    .put(&Summary::new(coeffs, ValueRange::of(&block), created_at, l));
            }
        }
        Ok(tree)
    }

    /// Assemble a tree from restored parts (the snapshot module's restore
    /// path). Queues must hold summaries newest-first with levels matching
    /// their position. Any creation times up to `t` are accepted; whether
    /// they are the ones a stream would have produced is checked once,
    /// here, and remembered for [`SwatTree::is_steady`].
    pub(crate) fn from_restored(
        config: SwatConfig,
        t: u64,
        last: Option<f64>,
        queues: Vec<VecDeque<Summary>>,
    ) -> Result<Self, TreeError> {
        if queues.len() != config.levels() {
            return Err(TreeError::RestoredLevelCount {
                got: queues.len(),
                want: config.levels(),
            });
        }
        let mut tree = SwatTree::new(config);
        tree.block.head.t = t;
        tree.set_newest(last);
        for (l, queue) in queues.into_iter().enumerate() {
            for s in &queue {
                if s.level() != l {
                    return Err(TreeError::RestoredLevelMismatch {
                        queue: l,
                        summary: s.level(),
                    });
                }
                if s.created_at() > t {
                    return Err(TreeError::RestoredFromFuture {
                        created_at: s.created_at(),
                        now: t,
                    });
                }
            }
            let head = &mut tree.block.head;
            let capacity = head.order.capacity(l);
            if queue.len() > capacity {
                return Err(TreeError::RestoredOverCapacity {
                    level: l,
                    got: queue.len(),
                    capacity,
                });
            }
            // A stream at clock `t` has refreshed level `l` at every
            // multiple of `2^l` from `2^(l+1)` on, and kept the newest.
            let refreshes = (t >> l).saturating_sub(1);
            head.order.canonical &= queue.len() as u64 == refreshes.min(capacity as u64)
                && queue
                    .iter()
                    .zip(0u64..)
                    .all(|(s, j)| s.created_at() == ((t >> l) - j) << l);
            for s in queue.iter().rev() {
                tree.block.put(s);
            }
        }
        // Without a newest value the next arrival summarizes no pair.
        tree.block.head.order.canonical &= last.is_some() || t == 0;
        Ok(tree)
    }

    /// Set the newest raw value (`d_0`), or forget it.
    fn set_newest(&mut self, last: Option<f64>) {
        self.block.head.has_last = last.is_some();
        self.block.last = [last.unwrap_or(0.0)];
    }

    /// Feed one new stream value, updating the affected levels
    /// (`O(k)` amortized).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite; see [`SwatTree::try_push`] for the
    /// fallible variant.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "stream values must be finite");
        self.block.push_one(&[value]);
    }

    /// As [`SwatTree::push`], but rejecting non-finite input with an error
    /// instead of panicking — the form a production ingest path wants.
    ///
    /// # Errors
    ///
    /// [`TreeError::NonFinite`] if `value` is NaN or infinite; the tree is
    /// left unchanged.
    pub fn try_push(&mut self, value: f64) -> Result<(), TreeError> {
        if !value.is_finite() {
            return Err(TreeError::NonFinite {
                position: self.arrivals(),
            });
        }
        self.push(value);
        Ok(())
    }

    /// Feed a block of arrivals in one pass — the batched fast path.
    ///
    /// Equivalent to calling [`SwatTree::push`] per value (the final tree
    /// state is bit-identical; the `ingest_equivalence` property suite
    /// proves it node by node against the frozen
    /// [`crate::ingest::reference`] path), but the batch is processed in
    /// `2^L`-aligned chunks through the blocked cascade of
    /// [`crate::ingest`] with a block of one tree: level-0 summaries come
    /// straight off the input slice as `avg`/`det` lanes, each level's
    /// refreshes for the whole chunk run as one precompiled merge sweep,
    /// and slab updates, budget reads, and `ValueRange` unions are
    /// amortized per chunk instead of per value. Nothing allocates at any
    /// budget once the scratch is warm: every slot's lanes exist from the
    /// first arrival and are overwritten in place (see
    /// `tests/ingest_alloc`).
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite (checked up front, before any
    /// value is ingested); see [`SwatTree::try_push_batch`].
    pub fn push_batch(&mut self, values: &[f64]) {
        assert!(
            values.iter().fold(true, |ok, v| ok & v.is_finite()),
            "stream values must be finite"
        );
        crate::ingest::with_thread_scratch(|scratch| self.push_batch_core(values, scratch));
    }

    /// As [`SwatTree::push_batch`], but reusing a caller-owned
    /// [`IngestScratch`](crate::ingest::IngestScratch) (mirroring the
    /// query engine's [`crate::QueryScratch`]) instead of the thread-local
    /// one — for callers that drive many trees from one loop, or want a
    /// non-default chunk size.
    ///
    /// # Panics
    ///
    /// Panics if any value is not finite (checked up front, before any
    /// value is ingested).
    pub fn push_batch_with_scratch(
        &mut self,
        values: &[f64],
        scratch: &mut crate::ingest::IngestScratch,
    ) {
        assert!(
            values.iter().fold(true, |ok, v| ok & v.is_finite()),
            "stream values must be finite"
        );
        self.push_batch_core(values, scratch);
    }

    /// As [`SwatTree::push_batch`], but rejecting non-finite input with an
    /// error. The whole block is validated before any value is ingested,
    /// so on error the tree is unchanged.
    ///
    /// Validation runs chunk-by-chunk with a branch-free all-finite
    /// reduction (which the compiler vectorizes) and bails at the first
    /// bad chunk, scanning for the exact position only inside that chunk —
    /// one cheap pass over good input instead of the old full-slice
    /// `position` walk, while keeping the all-or-nothing contract: no
    /// chunk is ingested until every chunk has validated.
    ///
    /// # Errors
    ///
    /// [`TreeError::NonFinite`] naming the stream position of the first
    /// offending value.
    pub fn try_push_batch(&mut self, values: &[f64]) -> Result<(), TreeError> {
        const VALIDATE_CHUNK: usize = 512;
        let mut offset = 0usize;
        for chunk in values.chunks(VALIDATE_CHUNK) {
            if !chunk.iter().fold(true, |ok, v| ok & v.is_finite()) {
                let in_chunk = chunk
                    .iter()
                    .position(|v| !v.is_finite())
                    .expect("the chunk reduction found a non-finite value");
                return Err(TreeError::NonFinite {
                    position: self.arrivals() + (offset + in_chunk) as u64,
                });
            }
            offset += chunk.len();
        }
        crate::ingest::with_thread_scratch(|scratch| self.push_batch_core(values, scratch));
        Ok(())
    }

    /// Feed a sequence of values in arrival order.
    ///
    /// Values are buffered into aligned blocks and ingested through the
    /// same chunked cascade as [`SwatTree::push_batch`].
    ///
    /// # Panics
    ///
    /// Panics on non-finite values. Matching the streaming contract of
    /// [`SwatTree::try_extend`], values before the offending one are
    /// ingested before the panic.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        let bad = crate::ingest::extend_buffered(self, values);
        assert!(bad.is_none(), "stream values must be finite");
    }

    /// Feed a sequence of values, stopping at the first non-finite one.
    ///
    /// Values before the offending one are ingested (streams cannot be
    /// rewound); callers needing all-or-nothing semantics over a slice
    /// should use [`SwatTree::try_push_batch`].
    ///
    /// # Errors
    ///
    /// [`TreeError::NonFinite`] naming the stream position of the first
    /// non-finite value.
    pub fn try_extend<I: IntoIterator<Item = f64>>(&mut self, values: I) -> Result<(), TreeError> {
        match crate::ingest::extend_buffered(self, values) {
            None => Ok(()),
            Some(position) => Err(TreeError::NonFinite { position }),
        }
    }

    /// A view of this tree: the read API [`StreamSet::tree`](crate::StreamSet::tree)
    /// hands out for a stream of a set.
    pub fn view(&self) -> TreeView<'_> {
        TreeView::new(&self.block, 0, 1)
    }

    /// Total number of arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.block.head.t
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &SwatConfig {
        &self.block.head.config
    }

    /// The newest raw value, if any has arrived.
    pub fn newest(&self) -> Option<f64> {
        self.block.head.has_last.then_some(self.block.last[0])
    }

    /// [`TreeView::is_warm`] of this tree.
    pub fn is_warm(&self) -> bool {
        self.block.head.is_warm()
    }

    /// [`TreeView::is_steady`] of this tree.
    pub fn is_steady(&self) -> bool {
        self.block.head.is_steady()
    }

    /// [`TreeView::node`] of this tree.
    pub fn node(&self, level: usize, pos: NodePos) -> Option<Summary> {
        self.view().node(level, pos)
    }

    /// [`TreeView::nodes`] of this tree.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, NodePos, Summary)> + '_ {
        self.view().nodes()
    }

    /// Number of populated summaries (`3 log N − 2` once warm).
    pub fn summary_count(&self) -> usize {
        self.block.head.summary_count()
    }

    /// [`TreeView::space_bytes`] of this tree: its whole block.
    pub fn space_bytes(&self) -> usize {
        self.view().space_bytes()
    }

    /// [`TreeView::answers_digest`] of this tree.
    pub fn answers_digest(&self) -> u64 {
        self.view().answers_digest()
    }

    /// [`TreeView::point`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::point`].
    pub fn point(&self, idx: usize) -> Result<PointAnswer, TreeError> {
        self.view().point(idx)
    }

    /// [`TreeView::point_with`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::point_with`].
    pub fn point_with(&self, idx: usize, opts: QueryOptions) -> Result<PointAnswer, TreeError> {
        self.view().point_with(idx, opts)
    }

    /// [`TreeView::point_with_scratch`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::point_with`].
    pub fn point_with_scratch(
        &self,
        idx: usize,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<PointAnswer, TreeError> {
        self.view().point_with_scratch(idx, opts, scratch)
    }

    /// [`TreeView::inner_product`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::inner_product`].
    pub fn inner_product(
        &self,
        query: &InnerProductQuery,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.view().inner_product(query)
    }

    /// [`TreeView::inner_product_with`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::inner_product`].
    pub fn inner_product_with(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.view().inner_product_with(query, opts)
    }

    /// [`TreeView::inner_product_with_scratch`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::inner_product`].
    pub fn inner_product_with_scratch(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.view().inner_product_with_scratch(query, opts, scratch)
    }

    /// [`TreeView::range_query`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::range_query`].
    pub fn range_query(&self, query: &RangeQuery) -> Result<Vec<RangeMatch>, TreeError> {
        self.view().range_query(query)
    }

    /// [`TreeView::range_query_with`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::range_query`].
    pub fn range_query_with(
        &self,
        query: &RangeQuery,
        opts: QueryOptions,
    ) -> Result<Vec<RangeMatch>, TreeError> {
        self.view().range_query_with(query, opts)
    }

    /// [`TreeView::range_query_with_scratch`] on this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::range_query`].
    pub fn range_query_with_scratch(
        &self,
        query: &RangeQuery,
        opts: QueryOptions,
        scratch: &mut QueryScratch,
        out: &mut Vec<RangeMatch>,
    ) -> Result<(), TreeError> {
        self.view()
            .range_query_with_scratch(query, opts, scratch, out)
    }

    /// [`TreeView::reconstruct_window`] of this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::reconstruct_window`].
    pub fn reconstruct_window(&self) -> Result<Vec<f64>, TreeError> {
        self.view().reconstruct_window()
    }

    /// [`TreeView::reconstruct_window_into`] of this tree.
    ///
    /// # Errors
    ///
    /// As [`TreeView::reconstruct_window`].
    pub fn reconstruct_window_into(
        &self,
        scratch: &mut QueryScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TreeError> {
        self.view().reconstruct_window_into(scratch, out)
    }

    /// [`TreeView::snapshot`] of this tree.
    pub fn snapshot(&self) -> Vec<u8> {
        self.view().snapshot()
    }

    /// Render the populated nodes with their current coverages — a
    /// diagnostic mirroring the paper's Figure 2 diagrams.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = self.arrivals();
        let _ = writeln!(out, "t = {t}");
        for l in (0..self.config().levels()).rev() {
            let _ = write!(out, "level {l}:");
            for pos in NodePos::ORDER {
                let Some(s) = self.node(l, pos) else { break };
                let (a, b) = s.coverage(t);
                let _ = write!(
                    out,
                    "  {}=[{a}-{b}] avg {:.3}",
                    pos.name(),
                    s.coeffs().average()
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

impl<'a> From<&'a SwatTree> for TreeView<'a> {
    fn from(tree: &'a SwatTree) -> Self {
        tree.view()
    }
}

/// One tree of a block, read in place: the header the block's lanes
/// share and this tree's lane of its rows.
///
/// [`StreamSet::tree`](crate::StreamSet::tree) and
/// [`ShardedStreamSet::tree`](crate::ShardedStreamSet::tree) hand one
/// out per stream, and [`SwatTree::view`] one over a lone tree; a view is
/// `Copy` and borrows the block. Every read of one tree is a method
/// here: [`SwatTree`]'s read methods call them on a view of its block.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    pub(crate) head: &'a Head,
    /// The block's lanes flattened, from this tree's lane on: row `r` of
    /// the lane is element `r * width`.
    lanes: &'a [f64],
    width: usize,
    newest: Option<f64>,
    /// This tree's share of its block's bytes.
    bytes: usize,
}

impl<'a> TreeView<'a> {
    /// Lane `lane` of `block`, whose first `used` lanes are trees.
    pub(crate) fn new<const W: usize>(block: &'a Block<W>, lane: usize, used: usize) -> Self {
        debug_assert!(lane < used && used <= W);
        let total = block.space_bytes();
        TreeView {
            head: &block.head,
            lanes: &block.lanes.as_flattened()[lane..],
            width: W,
            newest: block.head.has_last.then_some(block.last[lane]),
            bytes: total / used + usize::from(lane < total % used),
        }
    }

    /// Row `r` of this tree's lane.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> f64 {
        self.lanes[r * self.width]
    }

    /// The rows of this tree's lane, for the query evaluator.
    #[inline]
    pub(crate) fn rows(&self) -> crate::scratch::Strided<'a> {
        crate::scratch::Strided {
            lanes: self.lanes,
            width: self.width,
        }
    }

    /// This tree's summary in slot `id` (level `l`), as an owned value.
    fn summary(&self, l: usize, id: usize) -> Summary {
        let slot = self.head.slots[id];
        let at = slot.at as usize;
        let coeffs = (0..slot.stored as usize)
            .map(|j| self.row(at + 2 + j))
            .collect();
        Summary::new(
            HaarCoeffs::from_parts(2 << l, coeffs).expect("a slot stores a valid prefix"),
            ValueRange::new(self.row(at), self.row(at + 1)),
            slot.created_at,
            l,
        )
    }

    fn summary_at(&self, level: usize, queue_index: usize) -> Option<Summary> {
        if level >= self.head.config.levels() {
            return None;
        }
        let id = self.head.slot(level, queue_index)?;
        Some(self.summary(level, id))
    }

    /// Total number of arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.head.t
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &'a SwatConfig {
        &self.head.config
    }

    /// The newest raw value, if any has arrived.
    pub fn newest(&self) -> Option<f64> {
        self.newest
    }

    /// Whether every node of the tree is populated (guaranteed after `2N`
    /// arrivals; [`SwatTree::from_window`] trees are warm immediately).
    pub fn is_warm(&self) -> bool {
        self.head.is_warm()
    }

    /// Whether the tree is warm and every summary sits where a stream
    /// puts it — `(level, queue index j)` created at `((t >> level) − j)
    /// << level` — so that two steady trees with equal windows and arrival
    /// counts have the same cover geometry and the query engine's cover
    /// cache validates in `O(1)`. Only a tree restored from a snapshot no
    /// tree wrote can be warm and not steady.
    pub fn is_steady(&self) -> bool {
        self.head.is_steady()
    }

    /// The summary at `(level, pos)`, if populated, as an owned value.
    pub fn node(&self, level: usize, pos: NodePos) -> Option<Summary> {
        self.summary_at(level, pos as usize)
    }

    /// Every populated summary in the paper's query order — levels
    /// ascending, `R → S → L` within a level — as owned values.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, NodePos, Summary)> + 'a {
        let view = *self;
        self.head
            .nodes()
            .map(move |(l, i, id)| (l, NodePos::ORDER[i], view.summary(l, id)))
    }

    /// Number of populated summaries (`3 log N − 2` once warm).
    pub fn summary_count(&self) -> usize {
        self.head.summary_count()
    }

    /// This tree's share of the memory its block holds, in bytes: the
    /// block's header, slot table and lanes divided among the trees it
    /// stores (a lone tree's block is its own), so the shares of a set's
    /// streams sum to what the set stores.
    pub fn space_bytes(&self) -> usize {
        self.bytes
    }

    /// Order-sensitive FNV-1a digest of the tree's complete observable
    /// state: configuration, clock, newest value, and every summary's
    /// exact bits. Query evaluation is a deterministic function of
    /// exactly this state, so two trees with equal digests answer every
    /// query identically — the bit-identity witness the durability
    /// layer's recovery proofs are property-tested against.
    pub fn answers_digest(&self) -> u64 {
        let config = &self.head.config;
        let mut h = digest::SEED;
        h = digest::mix(h, config.window() as u64);
        h = digest::mix(h, config.coefficients() as u64);
        h = digest::mix(h, config.min_level() as u64);
        h = digest::mix(h, self.head.t);
        match self.newest {
            Some(v) => {
                h = digest::mix(h, 1);
                h = digest::mix(h, v.to_bits());
            }
            None => h = digest::mix(h, 0),
        }
        for (level, _, id) in self.head.nodes() {
            let slot = self.head.slots[id];
            let at = slot.at as usize;
            h = digest::mix(h, level as u64);
            h = digest::mix(h, slot.created_at);
            h = digest::mix(h, self.row(at).to_bits());
            h = digest::mix(h, self.row(at + 1).to_bits());
            for j in 0..slot.stored as usize {
                h = digest::mix(h, self.row(at + 2 + j).to_bits());
            }
        }
        h
    }
}

/// FNV-1a word mixing shared by [`SwatTree::answers_digest`] and the
/// multi-stream digest in [`crate::multi`].
pub(crate) mod digest {
    pub(crate) const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn mix(h: u64, word: u64) -> u64 {
        (h ^ word).wrapping_mul(PRIME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> SwatConfig {
        SwatConfig::new(n).unwrap()
    }

    #[test]
    fn empty_tree_shape() {
        let tree = SwatTree::new(cfg(16));
        assert_eq!(tree.arrivals(), 0);
        assert_eq!(tree.summary_count(), 0);
        assert!(!tree.is_warm());
        assert!(tree.newest().is_none());
    }

    #[test]
    fn warmup_completes_within_two_windows() {
        let mut tree = SwatTree::new(cfg(16));
        tree.extend((0..32).map(|i| i as f64));
        assert!(
            tree.is_warm(),
            "not warm after 2N arrivals:\n{}",
            tree.render()
        );
        assert_eq!(tree.summary_count(), 10); // 3*4 - 2
    }

    #[test]
    fn from_window_is_warm_and_counts_match_paper() {
        let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let tree = SwatTree::from_window(cfg(16), &values).unwrap();
        assert!(tree.is_warm());
        assert_eq!(tree.summary_count(), 10);
        assert_eq!(tree.arrivals(), 16);
        // Fresh coverages match Figure 2(a): R_l = [0, 2^(l+1)-1], etc.
        for l in 0..3 {
            let w = 1usize << (l + 1);
            let r = tree.node(l, NodePos::Right).unwrap().coverage(16);
            let s = tree.node(l, NodePos::Shift).unwrap().coverage(16);
            let left = tree.node(l, NodePos::Left).unwrap().coverage(16);
            assert_eq!(r, (0, w - 1));
            assert_eq!(s, (w / 2, w / 2 + w - 1));
            assert_eq!(left, (w, 2 * w - 1));
        }
        assert_eq!(tree.node(3, NodePos::Right).unwrap().coverage(16), (0, 15));
        assert!(tree.node(3, NodePos::Shift).is_none());
    }

    #[test]
    fn space_bytes_is_the_block() {
        use crate::block::Slot;
        use std::mem::size_of;
        // A lone tree's share is its whole block: the block struct, one
        // slot header per node, and per node two range lanes and its
        // budget's coefficient lanes rounded up to a power of two.
        let block = |lanes: usize| size_of::<Block<1>>() + 16 * size_of::<Slot>() + lanes * 8;
        let values = (0..200).map(|i| ((i * 7) % 19) as f64);
        let mut tree = SwatTree::new(cfg(64));
        assert_eq!(
            tree.space_bytes(),
            block(16 * 3),
            "empty: every lane exists"
        );
        tree.extend(values.clone());
        assert_eq!(
            tree.space_bytes(),
            block(16 * 3),
            "k = 1: three lanes a node"
        );
        // k = 8: levels 0 and 1 keep 2 and 4 coefficients, levels 2..=5
        // keep 8.
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(64, 8).unwrap());
        tree.extend(values);
        assert_eq!(tree.space_bytes(), block(3 * 4 + 3 * 6 + (3 * 3 + 1) * 10));
    }

    #[test]
    fn from_window_rejects_wrong_length() {
        assert!(matches!(
            SwatTree::from_window(cfg(8), &[1.0; 7]),
            Err(TreeError::BadInitLength { got: 7, want: 8 })
        ));
    }

    #[test]
    fn averages_are_exact() {
        // With k = 1 each node stores the exact average of its block.
        let values: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        let tree = SwatTree::from_window(cfg(16), &values).unwrap();
        // R_3 = average of everything.
        let root = tree.node(3, NodePos::Right).unwrap();
        assert!((root.coeffs().average() - 8.5).abs() < 1e-12);
        // R_0 = average of the two newest (16, 15).
        let r0 = tree.node(0, NodePos::Right).unwrap();
        assert!((r0.coeffs().average() - 15.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_matches_from_window_at_refresh_points() {
        // Stream 32 values into an empty tree; at t = 32 every level just
        // refreshed, so every node must equal the bulk-initialized tree
        // over the last 16 values.
        let values: Vec<f64> = (0..32).map(|i| ((i * 7) % 13) as f64).collect();
        let mut streamed = SwatTree::new(cfg(16));
        streamed.extend(values.iter().copied());
        let bulk = SwatTree::from_window(cfg(16), &values[16..]).unwrap();
        for (l, pos, s) in bulk.nodes() {
            let other = streamed.node(l, pos).unwrap();
            assert_eq!(
                s.coverage(16),
                {
                    let (a, b) = other.coverage(32);
                    (a, b)
                },
                "coverage mismatch at level {l} {}",
                pos.name()
            );
            assert!(
                (s.coeffs().average() - other.coeffs().average()).abs() < 1e-9,
                "average mismatch at level {l} {}",
                pos.name()
            );
        }
    }

    #[test]
    fn node_ranges_enclose_block_values() {
        let values: Vec<f64> = (0..64).map(|i| ((i * 31) % 17) as f64).collect();
        let mut tree = SwatTree::new(cfg(16));
        for &v in &values {
            tree.push(v);
        }
        let t = tree.arrivals() as usize;
        for (_, _, s) in tree.nodes() {
            let created = s.created_at() as usize;
            let block = &values[created - s.width()..created];
            for &v in block {
                assert!(s.range().contains(v), "range {} missing {v}", s.range());
            }
            // And the range is tight: its endpoints are attained.
            let lo = block.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = block.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(s.range().lo(), lo);
            assert_eq!(s.range().hi(), hi);
        }
        let _ = t;
    }

    #[test]
    fn refresh_cadence_matches_levels() {
        // Level l refreshes exactly when 2^l divides t.
        let mut tree = SwatTree::new(cfg(16));
        tree.extend((0..64).map(|i| i as f64));
        for extra in 1..=16u64 {
            tree.push(extra as f64);
            let t = tree.arrivals();
            for l in 0..4 {
                let r = tree.node(l, NodePos::Right).unwrap();
                let expected_refresh = t - t % (1u64 << l);
                assert_eq!(r.created_at(), expected_refresh, "level {l} at t={t}");
            }
        }
    }

    #[test]
    fn render_is_humane() {
        let tree = SwatTree::from_window(cfg(8), &[1.0; 8]).unwrap();
        let r = tree.render();
        assert!(r.contains("level 0:"));
        assert!(r.contains("R=[0-1]"));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_values() {
        let mut tree = SwatTree::new(cfg(4));
        tree.push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn push_batch_rejects_non_finite_values() {
        let mut tree = SwatTree::new(cfg(4));
        tree.push_batch(&[1.0, f64::INFINITY]);
    }

    /// Assert two trees are bit-identical: same clock, same newest value,
    /// and every node equal (coefficients, range, creation time, level —
    /// `Summary`'s derived `PartialEq` compares all of them, and f64
    /// equality is exact).
    fn assert_trees_identical(a: &SwatTree, b: &SwatTree, ctx: &str) {
        assert_eq!(a.arrivals(), b.arrivals(), "{ctx}: arrivals");
        assert_eq!(a.newest(), b.newest(), "{ctx}: newest");
        assert_eq!(a.summary_count(), b.summary_count(), "{ctx}: summary count");
        for (l, pos, s) in a.nodes() {
            let other = b
                .node(l, pos)
                .unwrap_or_else(|| panic!("{ctx}: missing node at level {l} {}", pos.name()));
            assert_eq!(s, other, "{ctx}: node at level {l} {}", pos.name());
            assert_eq!(
                s.coeffs().coefficients(),
                other.coeffs().coefficients(),
                "{ctx}: coefficients at level {l} {}",
                pos.name()
            );
        }
    }

    #[test]
    fn push_batch_matches_sequential_push() {
        for n in [4usize, 16, 64, 256] {
            for k in [1usize, 2, 3, 4, 8, 17] {
                let config = SwatConfig::with_coefficients(n, k).unwrap();
                let values: Vec<f64> = (0..3 * n + 5)
                    .map(|i| ((i * 31 + 7) % 101) as f64 - 50.0 + (i as f64) * 0.001)
                    .collect();
                let mut sequential = SwatTree::new(config);
                for &v in &values {
                    sequential.push(v);
                }
                let mut batched = SwatTree::new(config);
                batched.push_batch(&values);
                assert_trees_identical(&sequential, &batched, &format!("n={n} k={k} one batch"));
                // Split into uneven chunks: batch boundaries must not matter.
                let mut chunked = SwatTree::new(config);
                for chunk in values.chunks(7) {
                    chunked.push_batch(chunk);
                }
                assert_trees_identical(&sequential, &chunked, &format!("n={n} k={k} chunked"));
            }
        }
    }

    #[test]
    fn try_push_rejects_and_leaves_tree_unchanged() {
        let mut tree = SwatTree::new(cfg(8));
        tree.extend([1.0, 2.0, 3.0]);
        let before = tree.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                tree.try_push(bad),
                Err(TreeError::NonFinite { position: 3 })
            );
        }
        assert_trees_identical(&before, &tree, "after rejected try_push");
        tree.try_push(4.0).unwrap();
        assert_eq!(tree.arrivals(), 4);
    }

    #[test]
    fn try_push_batch_is_all_or_nothing() {
        let mut tree = SwatTree::new(cfg(8));
        tree.extend([1.0, 2.0]);
        let before = tree.clone();
        assert_eq!(
            tree.try_push_batch(&[3.0, 4.0, f64::NAN, 5.0]),
            Err(TreeError::NonFinite { position: 4 })
        );
        assert_trees_identical(&before, &tree, "after rejected try_push_batch");
        tree.try_push_batch(&[3.0, 4.0]).unwrap();
        assert_eq!(tree.arrivals(), 4);
    }

    #[test]
    fn try_extend_stops_at_first_bad_value() {
        let mut tree = SwatTree::new(cfg(8));
        let err = tree.try_extend([1.0, 2.0, f64::NAN, 4.0]).unwrap_err();
        assert_eq!(err, TreeError::NonFinite { position: 2 });
        // Streaming semantics: the values before the bad one were ingested.
        assert_eq!(tree.arrivals(), 2);
        assert_eq!(tree.newest(), Some(2.0));
        tree.try_extend((0..30).map(|i| i as f64)).unwrap();
        assert_eq!(tree.arrivals(), 32);
    }

    #[test]
    fn try_paths_match_panicking_paths() {
        let values: Vec<f64> = (0..100).map(|i| ((i * 13) % 29) as f64).collect();
        let mut plain = SwatTree::new(cfg(16));
        plain.extend(values.iter().copied());
        let mut fallible = SwatTree::new(cfg(16));
        fallible.try_extend(values.iter().copied()).unwrap();
        assert_trees_identical(&plain, &fallible, "try_extend vs extend");
        let mut batched = SwatTree::new(cfg(16));
        batched.try_push_batch(&values).unwrap();
        assert_trees_identical(&plain, &batched, "try_push_batch vs extend");
    }

    /// Build valid restore parts from a streamed tree, for mutation below.
    fn restore_parts(
        n: usize,
        arrivals: usize,
    ) -> (SwatConfig, u64, Option<f64>, Vec<VecDeque<Summary>>) {
        let config = cfg(n);
        let mut tree = SwatTree::new(config);
        tree.extend((0..arrivals).map(|i| ((i * 7) % 19) as f64));
        let t = tree.arrivals();
        let last = tree.newest();
        let mut queues = vec![VecDeque::new(); config.levels()];
        for (l, _, s) in tree.nodes() {
            queues[l].push_back(s.clone());
        }
        (config, t, last, queues)
    }

    #[test]
    fn from_restored_accepts_valid_parts() {
        let (config, t, last, queues) = restore_parts(16, 40);
        let tree = SwatTree::from_restored(config, t, last, queues).unwrap();
        assert_eq!(tree.arrivals(), 40);
    }

    #[test]
    fn from_restored_rejects_wrong_level_count() {
        let (config, t, last, mut queues) = restore_parts(16, 40);
        queues.pop();
        assert_eq!(
            SwatTree::from_restored(config, t, last, queues).unwrap_err(),
            TreeError::RestoredLevelCount { got: 3, want: 4 }
        );
    }

    #[test]
    fn from_restored_rejects_level_mismatch() {
        let (config, t, last, mut queues) = restore_parts(16, 40);
        // Move a level-1 summary into the level-0 queue.
        let stray = queues[1].pop_front().unwrap();
        queues[0].pop_front();
        queues[0].push_front(stray);
        assert_eq!(
            SwatTree::from_restored(config, t, last, queues).unwrap_err(),
            TreeError::RestoredLevelMismatch {
                queue: 0,
                summary: 1
            }
        );
    }

    #[test]
    fn from_restored_rejects_future_summaries() {
        let (config, t, last, queues) = restore_parts(16, 40);
        let newest_creation = queues[0].front().unwrap().created_at();
        assert_eq!(
            SwatTree::from_restored(config, t - 1, last, queues).unwrap_err(),
            TreeError::RestoredFromFuture {
                created_at: newest_creation,
                now: t - 1
            }
        );
    }

    #[test]
    fn from_restored_rejects_over_capacity_queues() {
        let (config, t, last, mut queues) = restore_parts(16, 40);
        let extra = queues[0].back().unwrap().clone();
        queues[0].push_back(extra);
        assert_eq!(
            SwatTree::from_restored(config, t, last, queues).unwrap_err(),
            TreeError::RestoredOverCapacity {
                level: 0,
                got: 4,
                capacity: 3
            }
        );
    }
}
