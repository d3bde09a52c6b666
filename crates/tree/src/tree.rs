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
//! which slot of a level is `R` lives in the tree header (`Order`), a
//! refresh steps it and overwrites the slot that held the evicted
//! generation in place (`Level::refresh`), and no summary ever moves.
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

use crate::config::{SwatConfig, TreeError};
use crate::node::Summary;
use crate::range::ValueRange;
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

/// The slot order of every level at once, kept in the tree header beside
/// the clock: two bits per level name the slot that holds the level's
/// newest summary, and queue index `i` (0 = `R`, 1 = `S`, 2 = `L`) lives
/// `i` slots after it, wrapping at the level's capacity. A look-up thus
/// computes a node's address from the header alone — its cache miss does
/// not wait on a per-level word — and a refresh steps one head.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Order {
    /// Level `l`'s head is bits `2l..2l+2` (64 levels in two words).
    heads: [u64; 2],
    /// The top level, which retains one summary instead of three.
    top: u8,
    /// Populated slots over the whole tree.
    filled: u8,
    /// Whether the populated nodes are exactly those of a stream grown
    /// from empty to the tree's clock (see [`SwatTree::is_steady`]).
    canonical: bool,
}

impl Order {
    fn new(levels: usize) -> Self {
        debug_assert!((1..64).contains(&levels), "windows are 2^1..2^63");
        Order {
            heads: [0; 2],
            top: (levels - 1) as u8,
            filled: 0,
            canonical: true,
        }
    }

    /// How many summaries level `l` retains.
    #[inline]
    pub(crate) fn capacity(&self, l: usize) -> usize {
        if l == self.top as usize {
            1
        } else {
            3
        }
    }

    #[inline]
    fn head(&self, l: usize) -> usize {
        (self.heads[(l >> 5) & 1] >> ((l & 31) * 2)) as usize & 3
    }

    /// The physical slot of level `l`'s queue index `i`, if the level
    /// retains that many generations.
    #[inline]
    fn slot(&self, l: usize, i: usize) -> Option<usize> {
        let cap = self.capacity(l);
        let at = self.head(l) + i;
        (i < cap).then_some(if at >= cap { at - cap } else { at })
    }

    /// Age every generation of level `l` by one queue index and return
    /// the slot that is now the newest: the oldest generation's.
    #[inline]
    fn advance(&mut self, l: usize) -> usize {
        let head = self.head(l);
        let next = if head == 0 {
            self.capacity(l) - 1
        } else {
            head - 1
        };
        self.heads[(l >> 5) & 1] ^= ((head ^ next) as u64) << ((l & 31) * 2);
        next
    }
}

/// One level of the tree: its (at most three) summaries, stored **inline**
/// rather than in a heap-backed queue, in slots whose order the tree's
/// [`Order`] holds (so every method takes the level's index `l` and that
/// word). A level never retains more than three summaries (one at the
/// top), so the inline slab costs nothing in capacity while eliminating
/// one heap allocation per level per tree — at a million streams that
/// per-stream fixed cost dominates, so the whole tree's node storage
/// collapses to a single `Vec<Level>` allocation (the benchmark's
/// `tree.bytes_per_stream` reports the result).
#[derive(Debug, Clone)]
pub(crate) struct Level([Option<Summary>; 3]);

impl Level {
    /// The summary at queue index `i` (0 = newest), if populated.
    #[inline]
    pub(crate) fn get(&self, l: usize, order: &Order, i: usize) -> Option<&Summary> {
        self.0[order.slot(l, i)?].as_ref()
    }

    /// Age every generation by one queue index and hand back the slot
    /// that is now the newest for the caller to overwrite: the one way a
    /// level is filled. It still holds the generation the step evicted —
    /// whose coefficient storage the `Summary::set_*` writers reuse — or,
    /// while the level warms up, a blank summary of level `l`. No summary
    /// moves.
    #[inline]
    pub(crate) fn refresh(&mut self, l: usize, order: &mut Order) -> &mut Summary {
        let slot = &mut self.0[order.advance(l)];
        if slot.is_none() {
            order.filled += 1;
        }
        slot.get_or_insert_with(|| Summary::blank(l))
    }
}

/// A SWAT tree summarizing the last `N` values of a data stream at
/// multiple resolutions.
///
/// See the [module docs](self) for the structure and update rules, and the
/// [`crate::query`] module for the query interface.
#[derive(Debug, Clone)]
pub struct SwatTree {
    pub(crate) config: SwatConfig,
    /// Total arrivals so far (the paper's time `t`).
    pub(crate) t: u64,
    /// The newest raw value (`d_0`), if any.
    pub(crate) last: Option<f64>,
    /// Slot order and fill of every level.
    pub(crate) order: Order,
    pub(crate) levels: Vec<Level>,
}

impl SwatTree {
    /// An empty tree; summaries populate as values arrive (all levels are
    /// populated after at most `2N` arrivals — see [`SwatTree::is_warm`]).
    pub fn new(config: SwatConfig) -> Self {
        let n = config.levels();
        SwatTree {
            config,
            t: 0,
            last: None,
            order: Order::new(n),
            levels: vec![Level([None, None, None]); n],
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
        tree.t = t;
        tree.last = values.last().copied();
        let k = config.coefficients();
        for l in 0..config.levels() {
            let width = 1usize << (l + 1);
            let generations = tree.order.capacity(l);
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
                let summary = Summary::new(coeffs, ValueRange::of(&block), created_at, l);
                *tree.levels[l].refresh(l, &mut tree.order) = summary;
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
        tree.t = t;
        tree.last = last;
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
            let capacity = tree.order.capacity(l);
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
            tree.order.canonical &= queue.len() as u64 == refreshes.min(capacity as u64)
                && queue
                    .iter()
                    .zip(0u64..)
                    .all(|(s, j)| s.created_at() == ((t >> l) - j) << l);
            for s in queue.into_iter().rev() {
                *tree.levels[l].refresh(l, &mut tree.order) = s;
            }
        }
        // Without a newest value the next arrival summarizes no pair.
        tree.order.canonical &= last.is_some() || t == 0;
        Ok(tree)
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
        self.push_one(value, self.config.coefficients());
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
            return Err(TreeError::NonFinite { position: self.t });
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
    /// [`crate::ingest`]: level-0 summaries come straight off the input
    /// slice as flat `avg`/`det` lanes, each level's refreshes for the
    /// whole chunk run as one precompiled SoA merge kernel, and slab
    /// updates, budget reads, and `ValueRange` unions are amortized per
    /// chunk instead of per value. Once every level slot is populated
    /// nothing allocates at any budget: refreshed slots are overwritten
    /// in place (see `tests/ingest_alloc`).
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
                    position: self.t + (offset + in_chunk) as u64,
                });
            }
            offset += chunk.len();
        }
        crate::ingest::with_thread_scratch(|scratch| self.push_batch_core(values, scratch));
        Ok(())
    }

    /// The shared per-arrival update: the scalar ingestion entry points
    /// funnel here, and the blocked path of [`crate::ingest`] uses it for
    /// unaligned heads and tails, so the paths cannot diverge there.
    #[inline]
    pub(crate) fn push_one(&mut self, value: f64, k: usize) {
        debug_assert!(value.is_finite(), "callers validate finiteness");
        let prev = self.last.replace(value);
        self.t += 1;
        let Some(prev) = prev else {
            return; // First value ever: no pair to summarize yet.
        };
        // Level 0: summarize the two newest raw values (d_0, d_1).
        self.levels[0]
            .refresh(0, &mut self.order)
            .set_pair(value, prev, k, self.t);
        self.cascade_from(1, k);
    }

    /// Run the refresh cascade at the current clock for levels
    /// `from_level..`, consuming each level's child Right (newest) and
    /// Left (two generations back) nodes.
    ///
    /// Level `l` refreshes when `2^l` divides `t`; `2^l | t` exactly when
    /// `l <= trailing_zeros(t)`, which bounds the cascade without
    /// per-level divisibility checks (odd arrivals skip the loop
    /// entirely). The blocked chunk path calls this with the first level
    /// *above* its chunk to finish a cascade taller than the chunk.
    #[inline]
    pub(crate) fn cascade_from(&mut self, from_level: usize, k: usize) {
        let top = (self.t.trailing_zeros() as usize).min(self.levels.len() - 1);
        for l in from_level..=top {
            let (children, parents) = self.levels.split_at_mut(l);
            let child = &children[l - 1];
            let (Some(right), Some(left)) = (
                child.get(l - 1, &self.order, 0),
                child.get(l - 1, &self.order, 2),
            ) else {
                break; // Still warming up.
            };
            debug_assert_eq!(right.created_at(), self.t);
            debug_assert_eq!(left.created_at(), self.t - (1 << l));
            parents[0]
                .refresh(l, &mut self.order)
                .set_merged(right, left, k, self.t);
        }
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

    /// Total number of arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.t
    }

    /// The configuration this tree was built with.
    pub fn config(&self) -> &SwatConfig {
        &self.config
    }

    /// The newest raw value, if any has arrived.
    pub fn newest(&self) -> Option<f64> {
        self.last
    }

    /// Whether every node of the tree is populated (guaranteed after `2N`
    /// arrivals; [`SwatTree::from_window`] trees are warm immediately).
    pub fn is_warm(&self) -> bool {
        self.order.filled as usize == self.config.node_count()
    }

    /// Whether the tree is warm and every summary sits where a stream
    /// puts it — `(level, queue index j)` created at `((t >> level) − j)
    /// << level` — so that two steady trees with equal windows and arrival
    /// counts have the same cover geometry and the query engine's cover
    /// cache validates in `O(1)`. Only a tree restored from a snapshot no
    /// tree wrote can be warm and not steady.
    pub fn is_steady(&self) -> bool {
        self.order.canonical && self.is_warm()
    }

    /// The summary at `(level, queue index)` — the query engine's direct
    /// access path for cover-cache slots (queue index 0 = `R`, 1 = `S`,
    /// 2 = `L`, matching the traversal order of [`SwatTree::nodes`]).
    #[inline]
    pub(crate) fn summary_at(&self, level: usize, queue_index: usize) -> Option<&Summary> {
        self.levels.get(level)?.get(level, &self.order, queue_index)
    }

    /// The summary at `(level, pos)`, if populated.
    pub fn node(&self, level: usize, pos: NodePos) -> Option<&Summary> {
        self.summary_at(level, pos as usize)
    }

    /// Iterate all populated summaries in the paper's query order: levels
    /// ascending, `R → S → L` within a level.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, NodePos, &Summary)> {
        // Every single-shot query walks this, so: one flat loop that
        // decodes a level's head once (44 ns over 28 nodes; computing
        // `Order::slot` for every node measured 72).
        let (mut l, mut i) = (0, 0);
        let (mut at, mut cap) = (self.order.head(0), self.order.capacity(0));
        std::iter::from_fn(move || loop {
            let level = self.levels.get(l)?;
            if i < cap {
                if let Some(s) = level.0[at].as_ref() {
                    let pos = NodePos::ORDER[i];
                    i += 1;
                    at = if at + 1 == cap { 0 } else { at + 1 };
                    return Some((l, pos, s));
                }
            }
            (l, i) = (l + 1, 0);
            (at, cap) = (self.order.head(l), self.order.capacity(l));
        })
    }

    /// Number of populated summaries (`3 log N − 2` once warm).
    pub fn summary_count(&self) -> usize {
        self.order.filled as usize
    }

    /// Approximate memory footprint of the tree, in bytes: the tree
    /// header, the inline level slab (all node slots, populated or not),
    /// and the heap coefficient storage of populated summaries. Summary
    /// structs live inline in the slab, so only their coefficient heap
    /// bytes are added on top.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.levels.capacity() * std::mem::size_of::<Level>()
            + self
                .nodes()
                .map(|(_, _, s)| s.coeffs().heap_coefficients() * std::mem::size_of::<f64>())
                .sum::<usize>()
    }

    /// Order-sensitive FNV-1a digest of the tree's complete observable
    /// state: configuration, clock, newest value, and every summary's
    /// exact bits. Query evaluation is a deterministic function of
    /// exactly this state, so two trees with equal digests answer every
    /// query identically — the bit-identity witness the durability
    /// layer's recovery proofs are property-tested against.
    pub fn answers_digest(&self) -> u64 {
        let mut h = digest::SEED;
        h = digest::mix(h, self.config.window() as u64);
        h = digest::mix(h, self.config.coefficients() as u64);
        h = digest::mix(h, self.config.min_level() as u64);
        h = digest::mix(h, self.t);
        match self.last {
            Some(v) => {
                h = digest::mix(h, 1);
                h = digest::mix(h, v.to_bits());
            }
            None => h = digest::mix(h, 0),
        }
        for (level, _, s) in self.nodes() {
            h = digest::mix(h, level as u64);
            h = digest::mix(h, s.created_at());
            h = digest::mix(h, s.range().lo().to_bits());
            h = digest::mix(h, s.range().hi().to_bits());
            for &c in s.coeffs().coefficients() {
                h = digest::mix(h, c.to_bits());
            }
        }
        h
    }

    /// Render the populated nodes with their current coverages — a
    /// diagnostic mirroring the paper's Figure 2 diagrams.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "t = {}", self.t);
        for l in (0..self.levels.len()).rev() {
            let _ = write!(out, "level {l}:");
            for pos in NodePos::ORDER {
                let Some(s) = self.node(l, pos) else { break };
                let (a, b) = s.coverage(self.t);
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
    fn space_bytes_counts_inline_coefficients_once() {
        use std::mem::size_of;
        let values = (0..200).map(|i| ((i * 7) % 19) as f64);
        // k = 1: every coefficient lives inline in its slot, so the tree
        // is its header plus the level slab and not a byte more.
        let mut tree = SwatTree::new(cfg(64));
        tree.extend(values.clone());
        assert!(tree.is_warm());
        let header_and_slab = size_of::<SwatTree>() + 6 * size_of::<Level>();
        assert_eq!(tree.space_bytes(), header_and_slab);
        // k = 8: levels 0 and 1 keep 2 and 4 coefficients (inline),
        // levels 2..=5 keep 8 each, on the heap.
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(64, 8).unwrap());
        tree.extend(values);
        let heap_coefficients = (3 * 3 + 1) * 8;
        assert_eq!(
            tree.space_bytes(),
            header_and_slab + heap_coefficients * size_of::<f64>()
        );
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
