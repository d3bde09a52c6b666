//! Lane-major storage: one block of trees that share a clock.
//!
//! A [`Block<W>`] holds `W` SWAT trees with one configuration and one
//! clock — sixteen streams of a [`StreamSet`](crate::StreamSet), or the
//! one tree of a [`SwatTree`](crate::SwatTree). Everything that is the
//! same for every lane lives once, in the block's [`Head`]: the
//! configuration, the clock, whether a newest value has arrived, the
//! slot order of every level ([`Order`]) and, per slot, its creation time
//! and stored coefficient count. Everything that differs per stream is a
//! *lane* `[f64; W]`, the stream index innermost: the newest value, and
//! per slot one lane for the range's low bound, one for its high bound
//! and one per stored coefficient.
//!
//! # Layout
//!
//! Slot `(l, p)` (level `l`, physical slot `p`) occupies `2 + stride(l)`
//! consecutive lanes of [`Block::lanes`], from [`Slot::at`]: `lo`, `hi`,
//! then coefficients `0..stride(l)`, where `stride(l)` is the level's
//! budget `min(k, 2^(l+1))` rounded up to a power of two. Lanes past a
//! slot's stored count are `+0.0` and stay so: nothing writes them but a
//! restore, which writes zeros. So the truncated Haar walk reads a
//! slot's rows where they are ([`swat_wavelet::haar::point_rows`] reads
//! `2^depth` rows, `+0.0` past a prefix), and a merge of children that
//! store fewer coefficients than the budget reads the zeros the scalar
//! merge pads with. This is the dense-table discipline of the
//! hierarchical count sketch: one array per level, updated by one vector
//! op over the block.
//!
//! # Writes
//!
//! A level is filled one way: [`Block::refresh`] ages its generations by
//! one queue index (a step of [`Order`]'s head), stamps the slot of the
//! evicted generation with the new creation time and the level's stored
//! count, and hands back its lanes for the caller to overwrite in place.
//! The one-row step ([`Block::push_one`]) and the cascade above a chunk
//! ([`Block::cascade_from`]) are lane ops over the block; the blocked
//! chunk path of [`crate::ingest`] writes each level's slab tail straight
//! into the slots the refresh hands out. A whole-stream tree
//! ([`crate::GrowingSwat`]) also grows its block: [`Block::grow`] doubles
//! the window while the top level is still empty, and no slot moves.

use crate::config::SwatConfig;
use crate::node::Summary;
use swat_wavelet::merge_pair;

/// The slot order of every level at once, kept in the block header
/// beside the clock: two bits per level name the slot that holds the
/// level's newest summary, and queue index `i` (0 = `R`, 1 = `S`, 2 =
/// `L`) lives `i` slots after it, wrapping at the level's capacity. A
/// look-up thus computes a node's address from the header alone, and a
/// refresh steps one head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Order {
    /// Level `l`'s head is bits `2l..2l+2` (64 levels in two words).
    heads: [u64; 2],
    /// The top level, which retains one summary instead of three.
    top: u8,
    /// Populated slots over the whole tree.
    pub(crate) filled: u8,
    /// Whether the populated nodes are exactly those of a stream grown
    /// from empty to the block's clock (see [`Head::is_steady`]).
    pub(crate) canonical: bool,
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

/// What the header knows of one slot: shared by every lane of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// Arrival count at which the slot's summaries were created.
    pub(crate) created_at: u64,
    /// Coefficients each lane stores; 0 while the slot is empty.
    pub(crate) stored: u32,
    /// First of the slot's lanes in [`Block::lanes`]: `lo`, `hi`, then
    /// the coefficients.
    pub(crate) at: u32,
}

/// The geometry header of a block: everything its lanes share. Two
/// blocks with equal headers cover the window with the same pieces in
/// the same slots, so one staged query cover serves both.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Head {
    pub(crate) config: SwatConfig,
    /// Total arrivals so far (the paper's time `t`).
    pub(crate) t: u64,
    /// Whether a newest value (`d_0`) has arrived.
    pub(crate) has_last: bool,
    /// Slot order and fill of every level.
    pub(crate) order: Order,
    /// Level `l`'s physical slot `p` is entry `3l + p`.
    pub(crate) slots: Vec<Slot>,
}

impl Head {
    /// The header of an empty block, and how many lanes its slots take.
    fn new(config: SwatConfig) -> (Head, usize) {
        let mut head = Head {
            config,
            t: 0,
            has_last: false,
            order: Order::new(config.levels()),
            slots: Vec::with_capacity(config.node_count()),
        };
        let lanes = head.lay_out(0, 0);
        (head, lanes)
    }

    /// Append empty slots for levels `from..`, as many per level as it
    /// retains, their lanes from lane `at` on; the end of their lanes.
    fn lay_out(&mut self, from: usize, mut at: usize) -> usize {
        for l in from..self.config.levels() {
            for _ in 0..self.order.capacity(l) {
                self.slots.push(Slot {
                    created_at: 0,
                    stored: 0,
                    at: at as u32,
                });
                at += 2 + stride(&self.config, l);
            }
        }
        at
    }

    /// The configured budget `k`.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.config.coefficients()
    }

    /// Coefficients a level-`l` summary stores: `min(k, 2^(l+1))`.
    #[inline]
    pub(crate) fn kept(&self, l: usize) -> usize {
        self.k().min(2 << l)
    }

    /// The slot index of level `l`'s queue index `i`, if populated.
    #[inline]
    pub(crate) fn slot(&self, l: usize, i: usize) -> Option<usize> {
        let id = 3 * l + self.order.slot(l, i)?;
        (self.slots[id].stored > 0).then_some(id)
    }

    /// Age level `l` by one generation and stamp the slot that is now its
    /// newest as created at `created_at`, storing the level's budget.
    #[inline]
    fn refresh(&mut self, l: usize, created_at: u64) -> usize {
        let id = 3 * l + self.order.advance(l);
        let kept = self.kept(l) as u32;
        let slot = &mut self.slots[id];
        if slot.stored == 0 {
            self.order.filled += 1;
        }
        slot.created_at = created_at;
        slot.stored = kept;
        id
    }

    /// Every populated slot in the paper's query order — levels
    /// ascending, `R → S → L` within a level — as `(level, queue index,
    /// slot index)`.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        // One flat loop that decodes a level's head once: every
        // single-shot query walks this.
        let levels = self.config.levels();
        let (mut l, mut i) = (0, 0);
        let (mut at, mut cap) = (self.order.head(0), self.order.capacity(0));
        std::iter::from_fn(move || loop {
            if l == levels {
                return None;
            }
            if i < cap {
                let id = 3 * l + at;
                if self.slots[id].stored > 0 {
                    let queue_index = i;
                    i += 1;
                    at = if at + 1 == cap { 0 } else { at + 1 };
                    return Some((l, queue_index, id));
                }
            }
            (l, i) = (l + 1, 0);
            if l < levels {
                (at, cap) = (self.order.head(l), self.order.capacity(l));
            }
        })
    }

    /// Number of populated summaries (`3 log N − 2` once warm).
    pub(crate) fn summary_count(&self) -> usize {
        self.order.filled as usize
    }

    /// Whether every node is populated.
    pub(crate) fn is_warm(&self) -> bool {
        self.summary_count() == self.config.node_count()
    }

    /// Whether the block is warm and every summary sits where a stream
    /// puts it (see [`crate::SwatTree::is_steady`]).
    pub(crate) fn is_steady(&self) -> bool {
        self.order.canonical && self.is_warm()
    }
}

/// Lanes a level-`l` slot keeps for its coefficients: the level's budget
/// rounded up to a power of two, so a truncated walk reads them in place.
/// The budget is capped at the level's width before rounding, so no `k`
/// overflows.
fn stride(config: &SwatConfig, l: usize) -> usize {
    config.coefficients().min(2 << l).next_power_of_two()
}

/// `newer.min(older)` per lane — `ValueRange::of(&[newer, older])` and
/// `newer.union(older)` — as one compare: `older` only where it is
/// strictly less, so a `±0` tie keeps `newer`, which is what decides
/// which zero a `[-0.0, 0.0]` bound keeps. No lane holds a NaN — values
/// are checked finite before they reach a tree, and a snapshot holding a
/// NaN is refused — so `f64::min`'s NaN rule has nothing to do and is
/// not paid for.
#[inline]
pub(crate) fn lanes_min<const W: usize>(newer: &[f64; W], older: &[f64; W]) -> [f64; W] {
    std::array::from_fn(|w| {
        if older[w] < newer[w] {
            older[w]
        } else {
            newer[w]
        }
    })
}

/// `newer.max(older)` per lane, `newer` kept on a tie (see [`lanes_min`]).
#[inline]
pub(crate) fn lanes_max<const W: usize>(newer: &[f64; W], older: &[f64; W]) -> [f64; W] {
    std::array::from_fn(|w| {
        if older[w] > newer[w] {
            older[w]
        } else {
            newer[w]
        }
    })
}

/// `W` trees that share a configuration and a clock, stored lane-major
/// (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Block<const W: usize> {
    pub(crate) head: Head,
    /// The newest raw value of every lane (meaningful once
    /// `head.has_last`).
    pub(crate) last: [f64; W],
    /// Every slot's `lo`, `hi` and coefficient lanes, at [`Slot::at`].
    pub(crate) lanes: Vec<[f64; W]>,
}

impl<const W: usize> Block<W> {
    /// An empty block: no arrivals, every slot empty and zeroed.
    pub(crate) fn new(config: SwatConfig) -> Self {
        let (head, lanes) = Head::new(config);
        Block {
            head,
            last: [0.0; W],
            lanes: vec![[0.0; W]; lanes],
        }
    }

    /// Slot `id`'s lanes: `lo`, `hi`, then its coefficient stride.
    #[inline]
    pub(crate) fn rows(&self, id: usize) -> &[[f64; W]] {
        let at = self.head.slots[id].at as usize;
        &self.lanes[at..at + 2 + stride(&self.head.config, id / 3)]
    }

    /// Refresh level `l` at `created_at` (see [`Head`]) and hand back the
    /// new newest slot's `lo`, `hi` and stored coefficient lanes for the
    /// caller to overwrite.
    #[inline]
    pub(crate) fn refresh(&mut self, l: usize, created_at: u64) -> &mut [[f64; W]] {
        let id = self.head.refresh(l, created_at);
        let at = self.head.slots[id].at as usize;
        &mut self.lanes[at..at + 2 + self.head.kept(l)]
    }

    /// Feed one synchronized row — lane `w` to tree `w` — as one lane op
    /// over the block: the per-arrival update of the paper's Figure 3a.
    #[inline]
    pub(crate) fn push_one(&mut self, row: &[f64; W]) {
        let prev = std::mem::replace(&mut self.last, *row);
        self.head.t += 1;
        if !std::mem::replace(&mut self.head.has_last, true) {
            return; // First value ever: no pair to summarize yet.
        }
        // Level 0: summarize the two newest raw values (d_0, d_1).
        let t = self.head.t;
        let slot = self.refresh(0, t);
        slot[0] = lanes_min(row, &prev);
        slot[1] = lanes_max(row, &prev);
        merge_pair(&[*row], &[prev], &mut slot[2..]);
        self.cascade_from(1);
    }

    /// Run the refresh cascade at the current clock for levels
    /// `from_level..`, merging each level's child Right (newest) and Left
    /// (two generations back) slots into the slot the refresh hands out.
    ///
    /// Level `l` refreshes when `2^l` divides `t`; `2^l | t` exactly when
    /// `l <= trailing_zeros(t)`, which bounds the cascade without
    /// per-level divisibility checks (odd arrivals skip the loop
    /// entirely). The blocked chunk path calls this with the first level
    /// *above* its chunk to finish a cascade taller than the chunk.
    #[inline]
    pub(crate) fn cascade_from(&mut self, from_level: usize) {
        let t = self.head.t;
        let top = (t.trailing_zeros() as usize).min(self.head.config.levels() - 1);
        for l in from_level..=top {
            let (Some(right), Some(left)) = (self.head.slot(l - 1, 0), self.head.slot(l - 1, 2))
            else {
                break; // Still warming up.
            };
            debug_assert_eq!(self.head.slots[right].created_at, t);
            debug_assert_eq!(self.head.slots[left].created_at, t - (1 << l));
            let child = 2 + self.head.kept(l - 1);
            let (right, left) = (
                self.head.slots[right].at as usize,
                self.head.slots[left].at as usize,
            );
            let id = self.head.refresh(l, t);
            let at = self.head.slots[id].at as usize;
            // Level l's slots all lie after level l - 1's.
            let (children, parents) = self.lanes.split_at_mut(at);
            let newer = &children[right..right + child];
            let older = &children[left..left + child];
            let slot = &mut parents[..2 + self.head.kept(l)];
            slot[0] = lanes_min(&newer[0], &older[0]);
            slot[1] = lanes_max(&newer[1], &older[1]);
            merge_pair(&newer[2..], &older[2..], &mut slot[2..]);
        }
    }

    /// Double the window in place, keeping every node where it is: the
    /// top level becomes one that retains three summaries, and a new top
    /// goes above it. The grown configuration reads every level (the
    /// whole-stream tree, the one caller, has no level floor).
    ///
    /// The top level of a window `N` first fills at arrival `N`, so while
    /// the clock is below `N` the top is empty and every level below it
    /// holds what a tree of any larger window holds. The top's one slot
    /// is the last in the layout and its lanes are still zero, so the
    /// three slots that replace it and the new top's slot are laid out
    /// from where it began, and the lanes only grow.
    pub(crate) fn grow(&mut self) {
        let head = &mut self.head;
        let top = head.order.top as usize;
        debug_assert_eq!(head.slots[3 * top].stored, 0, "the top is empty");
        let at = head.slots[3 * top].at as usize;
        head.slots.truncate(3 * top);
        head.config = SwatConfig::with_coefficients(2 * head.config.window(), head.k())
            .expect("a doubled window is a power of two");
        head.order.top += 1;
        let lanes = head.lay_out(top, at);
        self.lanes.resize(lanes, [0.0; W]);
    }

    /// Make lane `w` a copy of the one tree of `tree`, whose header must
    /// equal this block's.
    pub(crate) fn fill_lane(&mut self, w: usize, tree: &Block<1>) {
        debug_assert_eq!(self.head, tree.head);
        self.last[w] = tree.last[0];
        for (lane, &[v]) in self.lanes.iter_mut().zip(&tree.lanes) {
            lane[w] = v;
        }
    }

    /// Bytes the block holds: the struct, its lanes and its slot table.
    pub(crate) fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.lanes.capacity() * std::mem::size_of::<[f64; W]>()
            + self.head.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

impl Block<1> {
    /// Refresh level `s.level()` and write `s` into the slot it hands
    /// out, coefficients past its prefix zeroed: how a bulk-initialized,
    /// restored or reference-ingested tree fills a slot.
    pub(crate) fn put(&mut self, s: &Summary) {
        let l = s.level();
        let id = self.head.refresh(l, s.created_at());
        let stored = s.coeffs().stored();
        self.head.slots[id].stored = stored as u32;
        let at = self.head.slots[id].at as usize;
        let slot = &mut self.lanes[at..at + 2 + stride(&self.head.config, l)];
        slot[0] = [s.range().lo()];
        slot[1] = [s.range().hi()];
        for (lane, c) in slot[2..].iter_mut().zip(
            s.coeffs()
                .coefficients()
                .iter()
                .copied()
                .chain(std::iter::repeat(0.0)),
        ) {
            *lane = [c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::ValueRange;
    use crate::tree::{NodePos, TreeView};
    use swat_wavelet::HaarCoeffs;

    fn config(n: usize, k: usize) -> SwatConfig {
        SwatConfig::with_coefficients(n, k).unwrap()
    }

    #[test]
    fn a_grown_block_is_laid_out_as_a_new_one_of_twice_the_window() {
        for k in [1, 3, 4, 16, usize::MAX] {
            let mut block = Block::<16>::new(config(2, k));
            for n in [4usize, 8, 16, 32, 64] {
                // Fill everything below the top, then grow.
                for r in block.head.t..n as u64 / 2 - 1 {
                    block.push_one(&[r as f64; 16]);
                }
                let before = block.clone();
                block.grow();
                let fresh = Block::<16>::new(config(n, k));
                assert_eq!(block.head.config, fresh.head.config, "n={n} k={k}");
                let at = |b: &Block<16>| b.head.slots.iter().map(|s| s.at).collect::<Vec<_>>();
                assert_eq!(at(&block), at(&fresh), "n={n} k={k}");
                assert_eq!(block.lanes.len(), fresh.lanes.len(), "n={n} k={k}");
                // No node moved, and every new lane is zero.
                let kept = before.head.slots.len() - 1;
                assert_eq!(block.head.slots[..kept], before.head.slots[..kept]);
                assert_eq!(block.lanes[..before.lanes.len()], before.lanes[..]);
                assert!(block.lanes[before.lanes.len()..]
                    .iter()
                    .flatten()
                    .all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn slots_tile_the_lanes_with_power_of_two_strides() {
        for (n, k) in [
            (2usize, 1usize),
            (16, 1),
            (64, 4),
            (64, 5),
            (1024, 8),
            (32, 32),
        ] {
            let c = config(n, k);
            let block = Block::<1>::new(c);
            assert_eq!(block.head.slots.len(), c.node_count());
            let mut at = 0;
            for (id, slot) in block.head.slots.iter().enumerate() {
                let l = id / 3;
                assert_eq!(slot.at as usize, at, "n={n} k={k} slot {id}");
                let s = stride(&c, l);
                assert!(s.is_power_of_two() && s >= k.min(2 << l) && s <= 2 << l);
                at += 2 + s;
            }
            assert_eq!(block.lanes.len(), at);
        }
    }

    #[test]
    fn a_budget_past_two_to_the_63_is_the_lossless_budget() {
        // Every level's budget is capped at its width, so a `k` whose
        // next power of two overflows lays out, stores and answers
        // exactly what `k = window` does.
        let n = 32;
        let (huge, lossless) = (config(n, usize::MAX), config(n, n));
        let values: Vec<f64> = (0..150).map(|i| ((i * 37) % 23) as f64 - 11.5).collect();
        let answers = |tree: TreeView<'_>| {
            let points = (0..n).map(|i| tree.point(i).map(|a| a.value.to_bits()));
            let inner = crate::InnerProductQuery::exponential(n, 1e9);
            let inner = tree.inner_product(&inner).map(|a| a.value.to_bits());
            (
                tree.nodes().collect::<Vec<_>>(),
                points.collect::<Vec<_>>(),
                inner,
            )
        };
        let mut pushed = crate::SwatTree::new(huge);
        let mut batched = crate::SwatTree::new(huge);
        let mut want = crate::SwatTree::new(lossless);
        let mut set = crate::StreamSet::new(huge, 3);
        for &v in &values {
            pushed.push(v);
            want.push(v);
            set.push_row(&[v, -v, v]);
        }
        batched.push_batch(&values);
        let rows: Vec<f64> = values.iter().flat_map(|&v| [v, -v, v]).collect();
        let mut tiled = crate::StreamSet::new(huge, 3);
        tiled.extend_rows(&rows);
        let restored = crate::SwatTree::restore(&pushed.snapshot()).unwrap();
        let want = answers(want.view());
        for (what, tree) in [
            ("push", pushed.view()),
            ("push_batch", batched.view()),
            ("push_row", set.tree(2)),
            ("extend_rows", tiled.tree(2)),
            ("snapshot", restored.view()),
        ] {
            assert_eq!(answers(tree), want, "{what}");
        }
    }

    #[test]
    fn a_window_of_1024_at_budget_4_keeps_1296_bytes_of_lanes_per_stream() {
        // 28 slots of lo and hi, level 0's two coefficients, four above.
        let block = Block::<16>::new(config(1024, 4));
        let per_stream = block.lanes.len() * std::mem::size_of::<f64>();
        assert_eq!(per_stream, 28 * 2 * 8 + 3 * 2 * 8 + (3 * 8 + 1) * 4 * 8);
        assert_eq!(per_stream, 1296);
    }

    #[test]
    fn lanes_are_independent_trees() {
        // Sixteen lanes pushed together equal each lane pushed alone.
        let c = config(32, 5);
        let value = |r: usize, w: usize| match (r * 7 + w * 3) % 13 {
            0 => 0.0,
            1 => -0.0,
            x => x as f64 * 1.5 - 9.0 + w as f64,
        };
        let mut block = Block::<16>::new(c);
        let mut alone: Vec<Block<1>> = (0..16).map(|_| Block::new(c)).collect();
        for r in 0..150 {
            block.push_one(&std::array::from_fn(|w| value(r, w)));
            for (w, tree) in alone.iter_mut().enumerate() {
                tree.push_one(&[value(r, w)]);
            }
        }
        for (w, tree) in alone.iter().enumerate() {
            assert_eq!(block.head, tree.head);
            let (lane, one) = (TreeView::new(&block, w, 16), TreeView::new(tree, 0, 1));
            assert!(lane.nodes().eq(one.nodes()), "lane {w}");
            assert_eq!(lane.answers_digest(), one.answers_digest());
            let mut copy = Block::<16>::new(c);
            copy.head = tree.head.clone();
            copy.fill_lane(w, tree);
            let copied = TreeView::new(&copy, w, 16);
            assert_eq!(copied.answers_digest(), one.answers_digest());
        }
    }

    /// Lane `w` of both range ops against `f64::min`/`max` of that lane,
    /// bit for bit, on every `(newer, older)` pair rotated through the
    /// lanes.
    fn assert_range_lanes_match<const W: usize>(pairs: &[(f64, f64)]) {
        for shift in 0..W.max(pairs.len()) {
            let pair = |w: usize| pairs[(w + shift) % pairs.len()];
            let newer: [f64; W] = std::hint::black_box(std::array::from_fn(|w| pair(w).0));
            let older: [f64; W] = std::hint::black_box(std::array::from_fn(|w| pair(w).1));
            let (lo, hi) = (lanes_min(&newer, &older), lanes_max(&newer, &older));
            for w in 0..W {
                let (n, o) = pair(w);
                let ctx = format!("W={W} newer={n:?} older={o:?}");
                assert_eq!(lo[w].to_bits(), n.min(o).to_bits(), "min {ctx}");
                assert_eq!(hi[w].to_bits(), n.max(o).to_bits(), "max {ctx}");
            }
        }
    }

    #[test]
    fn range_lanes_are_f64_min_and_max_with_newer_kept_on_a_tie() {
        let pairs = [
            (0.0, -0.0),
            (-0.0, 0.0),
            (0.0, 0.0),
            (-0.0, -0.0),
            (2.5, 2.5),
            (-7.0, -7.0),
            (f64::MAX, f64::MAX),
            (1.0, 2.0),
            (2.0, 1.0),
            (-3.0, 0.5),
            (0.5, -3.0),
            (-0.0, 1e-300),
            (f64::MIN, f64::MAX),
        ];
        assert_range_lanes_match::<1>(&pairs);
        assert_range_lanes_match::<16>(&pairs);
        // Which zero a tie keeps, spelled out: the newer one.
        let (newer, older) = ([0.0, -0.0], [-0.0, 0.0]);
        let bits = |v: [f64; 2]| v.map(f64::to_bits);
        assert_eq!(bits(lanes_min(&newer, &older)), bits(newer));
        assert_eq!(bits(lanes_max(&newer, &older)), bits(newer));
    }

    #[test]
    fn put_zeroes_past_a_short_prefix() {
        let c = config(16, 8);
        let mut block = Block::<1>::new(c);
        // Dirty the level-2 slot first, then put a one-coefficient
        // summary over it.
        for r in 0..64 {
            block.push_one(&[r as f64]);
        }
        let s = Summary::new(
            HaarCoeffs::from_parts(8, vec![2.5]).unwrap(),
            ValueRange::new(1.0, 4.0),
            64,
            2,
        );
        block.put(&s);
        let id = block.head.slot(2, 0).unwrap();
        assert_eq!(block.head.slots[id].stored, 1);
        assert_eq!(TreeView::new(&block, 0, 1).node(2, NodePos::Right), Some(s));
        assert!(block.rows(id)[3..].iter().all(|&[v]| v.to_bits() == 0));
    }
}
