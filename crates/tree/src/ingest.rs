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
//! [`SwatTree::push_batch`] instead splits the batch into chunks of
//! `C = 2^L` values aligned to the stream clock (`t0 ≡ 0 (mod C)`), and
//! runs each chunk's *entire* cascade level by level over flat
//! structure-of-arrays slabs (`swat_wavelet::block`):
//!
//! * Level 0: the summaries of even arrivals `t0 + 2m` come straight off
//!   the input slice as `avg`/`det` lanes ([`forward_block`]) plus
//!   `min`/`max` range lanes. Odd arrivals' summaries are skipped — they
//!   never feed a higher level, and only the one at `t0 + C − 1` can
//!   survive into the final slab, where it is computed directly.
//! * Level `l ≥ 1` refreshes at `t0 + n·2^l`, merging the child level's
//!   summaries created at that instant and `2^l` earlier. Only the
//!   *even*-`n` refreshes feed level `l + 1`, and they form the slab
//!   `F_l[m] =` (level-`l` summary at `t0 + m·2^(l+1)`) `=
//!   merge(F_{l−1}[2m], F_{l−1}[2m−1])` — adjacent entries of the child
//!   slab, computed by one precompiled [`PairMergePlan`] sweep.
//! * Each level then installs its *slab tail*: the last
//!   `min(capacity, refreshes)` summaries of the chunk, which is exactly
//!   what the per-arrival pushes would have retained. Odd-`n` tail
//!   entries are merged on the spot from the child slab; the `n = 1`
//!   entry reads the child's newest summary as of `t0` (slab slot 0,
//!   copied in before any mutation).
//! * Refreshes taller than the chunk (when `2^(L+1) | t0 + C`) finish
//!   through the ordinary scalar cascade.
//!
//! Unaligned batch heads, sub-chunk tails, and pathological restored
//! slab states fall back to the scalar path value by value, so any batch
//! decomposition yields the same tree.
//!
//! # Bit-identity
//!
//! The result is **bit-identical** to the scalar path — the arithmetic
//! per coefficient is the same expression in the same order, truncation
//! commutes with the blocked merge (see `swat_wavelet::block`), and the
//! range lanes replay `ValueRange::of`/`union` exactly. The frozen copy
//! of the pre-block scalar path lives in [`reference`](mod@reference) and the
//! `ingest_equivalence` property suite pins the two together node by
//! node across window sizes, budgets, chunk alignments, and interleaved
//! `push`/`push_batch` call patterns.

use std::cell::RefCell;

use crate::tree::SwatTree;
use swat_wavelet::{forward_block, PairMergePlan};

/// Chunks below this size are ingested value by value: the blocked
/// bookkeeping would cost more than it saves, and the level-0 tail
/// construction may reach before the chunk.
const MIN_BLOCK: usize = 8;

/// Default upper bound on the blocked chunk size (values per cascade
/// sweep): large enough to amortize per-level bookkeeping, small enough
/// that a chunk's lanes stay cache-resident.
const DEFAULT_MAX_CHUNK: usize = 1024;

/// The `extend` staging buffer size.
const EXTEND_BUF: usize = DEFAULT_MAX_CHUNK;

/// Flat per-level scratch lanes: entry `m` of a level's slab holds the
/// stored coefficient prefix (stride = stored count) and range bounds of
/// the summary created at `t0 + m * width`.
#[derive(Debug, Default, Clone)]
struct Lanes {
    coeffs: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Reusable buffers for the blocked ingest path — the ingestion
/// counterpart of [`crate::QueryScratch`].
///
/// [`SwatTree::push_batch`] borrows a thread-local scratch
/// automatically; callers driving many trees from one loop (or wanting a
/// non-default chunk size) can own one and use
/// [`SwatTree::push_batch_with_scratch`]. All buffers grow to a
/// high-water mark and are reused, so steady-state batched ingestion
/// performs no heap allocation (see `tests/ingest_alloc.rs`).
#[derive(Debug, Clone)]
pub struct IngestScratch {
    max_chunk: usize,
    lanes: Vec<Lanes>,
    /// `plans[l - 1]` merges level-`(l-1)` siblings into level `l`.
    plans: Vec<PairMergePlan>,
    /// Budget the plans were compiled for.
    plan_k: usize,
    /// Staging for tail merges computed one pair at a time.
    stash: Vec<f64>,
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
            max_chunk: DEFAULT_MAX_CHUNK,
            lanes: Vec::new(),
            plans: Vec::new(),
            plan_k: 0,
            stash: Vec::new(),
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
            max_chunk: floor_pow2(clamped),
            ..Self::new()
        }
    }

    /// The configured chunk cap.
    pub fn max_chunk(&self) -> usize {
        self.max_chunk
    }

    /// Size lanes, plans, and stash for a chunk of `c` values under
    /// budget `k`, with materialized slabs for levels `0..=l_cap` and
    /// merge plans for parent levels `1..=l_top`.
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
        if self.lanes.len() < l_cap + 1 {
            self.lanes.resize_with(l_cap + 1, Lanes::default);
        }
        for (l, lane) in self.lanes.iter_mut().enumerate().take(l_cap + 1) {
            let entries = (c >> (l + 1)) + 1;
            let kl = k.min(1 << (l + 1));
            if lane.coeffs.len() < entries * kl {
                lane.coeffs.resize(entries * kl, 0.0);
            }
            if lane.lo.len() < entries {
                lane.lo.resize(entries, 0.0);
                lane.hi.resize(entries, 0.0);
            }
        }
        if self.stash.len() < k {
            self.stash.resize(k, 0.0);
        }
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
    /// The chunk loop behind every batched entry point: blocked cascades
    /// over aligned chunks, scalar pushes for everything else. Callers
    /// have validated finiteness.
    pub(crate) fn push_batch_core(&mut self, values: &[f64], scratch: &mut IngestScratch) {
        let k = self.config.coefficients();
        let mut rest = values;
        while !rest.is_empty() {
            let c = chunk_len(self.t, rest.len(), scratch.max_chunk);
            if c < MIN_BLOCK {
                // Unaligned head or sub-chunk tail: one scalar push
                // realigns the clock for the next round.
                self.push_one(rest[0], k);
                rest = &rest[1..];
            } else if self.push_chunk_blocked(&rest[..c], k, scratch) {
                rest = &rest[c..];
            } else {
                // Slab state a stream-grown tree cannot have (restored
                // by hand): the scalar path is the semantics.
                for &v in &rest[..c] {
                    self.push_one(v, k);
                }
                rest = &rest[c..];
            }
        }
    }

    /// Ingest one aligned power-of-two chunk through the blocked cascade.
    /// Returns `false` — before any mutation — if the chunk-start slab
    /// state fails verification and the caller should fall back to the
    /// scalar path.
    fn push_chunk_blocked(&mut self, chunk: &[f64], k: usize, scratch: &mut IngestScratch) -> bool {
        let c = chunk.len();
        debug_assert!(c >= MIN_BLOCK && c.is_power_of_two());
        let t0 = self.t;
        debug_assert_eq!(t0 % c as u64, 0, "chunks start aligned");
        let n_levels = self.levels.len();
        let big_l = c.trailing_zeros() as usize;
        // Highest level refreshed within the chunk, and the highest one
        // whose slab of even refreshes is materialized (the chunk-top
        // level refreshes at most twice; its entries are built one pair
        // at a time).
        let l_top = big_l.min(n_levels - 1);
        let l_cap = l_top.min(big_l - 1);
        // On a cold stream the refresh at t0 + 2^l is still warming
        // (level l first refreshes at t = 2^(l+1)); for t0 >= c every
        // in-chunk refresh is valid.
        let n_min: usize = if t0 == 0 { 2 } else { 1 };

        // Level l's tail includes the n = 1 refresh exactly when the
        // chunk's refresh count fits in its slab; that merge reads the
        // child level's newest summary as of t0. Verify those boundary
        // summaries up front — a stream-grown tree always passes.
        let mut boundary_needed = [false; 64];
        if t0 > 0 {
            for l in 1..=l_top {
                let count = c >> l;
                if count <= self.order.capacity(l) {
                    let cl = l - 1;
                    let ck = k.min(1 << (cl + 1));
                    let ok = self.summary_at(cl, 0).is_some_and(|s| {
                        s.created_at() == t0
                            && s.coeffs().len() == 1 << (cl + 1)
                            && s.coeffs().stored() == ck
                    });
                    if !ok {
                        return false;
                    }
                    boundary_needed[cl] = true;
                }
            }
        }

        scratch.prepare(k, l_cap, l_top, c);
        let IngestScratch {
            lanes,
            plans,
            stash,
            ..
        } = scratch;

        // Level-0 lanes: summaries of the even arrivals t0 + 2m,
        // m = 1..=c/2, straight off the input slice. Entry m pairs
        // chunk[2m-1] (newer) with chunk[2m-2] (older); the lane min/max
        // replay ValueRange::of(&[newer, older]) exactly.
        let k0 = k.min(2);
        {
            let lane = &mut lanes[0];
            forward_block(chunk, k, &mut lane.coeffs[k0..]);
            for (i, p) in chunk.chunks_exact(2).enumerate() {
                lane.lo[i + 1] = p[1].min(p[0]);
                lane.hi[i + 1] = p[1].max(p[0]);
            }
        }
        // Chunk-start boundary summaries (slab slot 0) where a tail
        // merge will read them — copied before any slab mutation.
        for (cl, lane) in lanes.iter_mut().enumerate().take(l_cap + 1) {
            if boundary_needed[cl] {
                let s = self.summary_at(cl, 0).expect("verified above");
                let ck = k.min(1 << (cl + 1));
                lane.coeffs[..ck].copy_from_slice(s.coeffs().coefficients());
                lane.lo[0] = s.range().lo();
                lane.hi[0] = s.range().hi();
            }
        }

        // Higher lanes: F_l[m] = merge(F_{l-1}[2m] newer, F_{l-1}[2m-1]
        // older) — adjacent child entries once slot 0 is skipped. The
        // range lanes replay right.range().union(left.range()).
        for l in 1..=l_cap {
            let kl = k.min(1 << (l + 1));
            let ck = k.min(1 << l);
            let pairs = c >> (l + 1);
            let (childs, rest) = lanes.split_at_mut(l);
            let child = &childs[l - 1];
            let lane = &mut rest[0];
            plans[l - 1].merge_adjacent(&child.coeffs[ck..], &mut lane.coeffs[kl..], pairs);
            for i in 0..pairs {
                lane.lo[i + 1] = child.lo[2 * i + 2].min(child.lo[2 * i + 1]);
                lane.hi[i + 1] = child.hi[2 * i + 2].max(child.hi[2 * i + 1]);
            }
        }

        // Install level 0's slab tail: the last min(capacity, 3) of the
        // chunk's per-arrival summaries — created at t0+c-2 (even),
        // t0+c-1 (odd, computed here from the slice), t0+c (even).
        {
            let cap0 = self.order.capacity(0);
            let lane = &lanes[0];
            let m_last = c / 2;
            let odd_newer = chunk[c - 2];
            let odd_older = chunk[c - 3];
            stash[0] = (odd_newer + odd_older) * 0.5;
            if k0 == 2 {
                stash[1] = (odd_newer - odd_older) * 0.5;
            }
            let entries: [(u64, &[f64], f64, f64); 3] = [
                (
                    t0 + c as u64 - 2,
                    &lane.coeffs[(m_last - 1) * k0..][..k0],
                    lane.lo[m_last - 1],
                    lane.hi[m_last - 1],
                ),
                (
                    t0 + c as u64 - 1,
                    &stash[..k0],
                    odd_newer.min(odd_older),
                    odd_newer.max(odd_older),
                ),
                (
                    t0 + c as u64,
                    &lane.coeffs[m_last * k0..][..k0],
                    lane.lo[m_last],
                    lane.hi[m_last],
                ),
            ];
            let take = cap0.min(3);
            for &(created, coeffs, lo, hi) in &entries[3 - take..] {
                self.levels[0]
                    .refresh(0, &mut self.order)
                    .set_prefix(coeffs, lo, hi, created);
            }
        }

        // Install levels 1..=l_top: each level's last min(capacity,
        // valid refreshes), oldest first — exactly what the scalar
        // per-arrival pushes retain.
        for l in 1..=l_top {
            let cap = self.order.capacity(l);
            let count = c >> l;
            let valid = (count + 1).saturating_sub(n_min);
            let take = cap.min(valid);
            if take == 0 {
                continue; // Still warming up (cold stream, tall level).
            }
            let kl = k.min(1 << (l + 1));
            let ck = k.min(1 << l);
            for n in (count - take + 1)..=count {
                let created = t0 + ((n as u64) << l);
                let (coeffs, lo, hi): (&[f64], f64, f64) = if n % 2 == 0 && l <= l_cap {
                    let m = n / 2;
                    let lane = &lanes[l];
                    (&lane.coeffs[m * kl..][..kl], lane.lo[m], lane.hi[m])
                } else {
                    // Odd refresh (or the chunk-top level, whose slab is
                    // not materialized): merge child entries n (newer)
                    // and n-1 (older) on the spot.
                    let child = &lanes[l - 1];
                    plans[l - 1].merge_one(
                        &child.coeffs[n * ck..][..ck],
                        &child.coeffs[(n - 1) * ck..][..ck],
                        &mut stash[..kl],
                    );
                    (
                        &stash[..kl],
                        child.lo[n].min(child.lo[n - 1]),
                        child.hi[n].max(child.hi[n - 1]),
                    )
                };
                self.levels[l]
                    .refresh(l, &mut self.order)
                    .set_prefix(coeffs, lo, hi, created);
            }
        }

        // Advance the clock past the chunk and finish any cascade taller
        // than the chunk (2^(L+1) may divide t0 + c).
        self.t += c as u64;
        self.last = Some(chunk[c - 1]);
        let top_refreshed = (c >> l_top) >= n_min;
        if top_refreshed && l_top < n_levels - 1 {
            self.cascade_from(l_top + 1, k);
        }
        true
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
