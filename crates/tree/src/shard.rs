//! Sharded million-stream ingest with mergeable coefficient summaries.
//!
//! A single [`StreamSet`] keeps its streams' trees in one vector of
//! blocks — fine for hundreds of streams, but a deployment summarizing a
//! large network watches *millions*. [`ShardedStreamSet`] splits the
//! streams into `S` contiguous ranges ([`shard_range`]), the layout a
//! distributed deployment uses (each shard is the state one site owns).
//! Three properties are maintained exactly:
//!
//! 1. **Determinism.** Ingest and query results are bit-identical to an
//!    unsharded [`StreamSet`] over the same streams, for *every* shard
//!    count and *every* thread count: each stream's values are applied
//!    by its own shard in arrival order, each shard's set pass answers
//!    its own streams and the answers are concatenated in shard (that
//!    is, global stream) order, and
//!    [`ShardedStreamSet::answers_digest`] is computed in global stream
//!    order so it equals the oracle's digest verbatim. The
//!    `shard_properties` integration tests pin this against the
//!    single-set oracle for arbitrary shard/thread counts.
//!
//! 2. **Mergeable summaries.** Each shard produces a [`TopKSummary`] of
//!    the largest-magnitude coefficients among its streams' root
//!    summaries ([`local_top_k`]); summaries merge exactly
//!    (`merge(S(A), S(B)) == S(A ∪ B)`, possible because shards own
//!    disjoint streams).
//!
//! 3. **Exact one-round distributed top-k.**
//!    [`ShardedStreamSet::global_top_k`] merges every shard's local
//!    top-k, and that merge *is* the global top-k. Under [`TopCoeff`]'s
//!    total order (|value| descending, then `(stream, index)`), a
//!    coefficient of the global top-k has fewer than `k` coefficients
//!    above it anywhere, so fewer than `k` in its own shard: it is in
//!    its shard's local top-k. Jestes–Yi–Li (arXiv:1110.6649) need a
//!    second, refining round only because their coefficient is a sum of
//!    partial coefficients from every split; here every
//!    `(stream, index)` has exactly one owner.

use std::ops::Range;

use crate::config::{SwatConfig, TreeError};
use crate::multi::StreamSet;
use crate::node::Summary;
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions};
use crate::tree::{digest, NodePos, TreeView};
use swat_wavelet::{row_reaches, TopCoeff, TopKSummary};

/// The partition rule: the global stream ids shard `shard` owns out of
/// `streams` split across `shards`, contiguous and in shard order, the
/// first `streams % shards` ranges one stream longer than the rest.
///
/// # Panics
///
/// Panics if `shard >= shards`.
pub fn shard_range(streams: usize, shards: usize, shard: usize) -> Range<usize> {
    assert!(shard < shards, "shard {shard} of {shards}");
    let (width, longer) = (streams / shards, streams % shards);
    let start = shard * width + shard.min(longer);
    start..start + width + usize::from(shard < longer)
}

/// The shard whose [`shard_range`] holds `stream`; panics unless
/// `stream < streams` and `shards > 0`.
pub fn shard_of(stream: u64, streams: usize, shards: usize) -> usize {
    assert!(stream < streams as u64, "stream {stream} of {streams}");
    let (stream, width, longer) = (stream as usize, streams / shards, streams % shards);
    // With `width == 0` every stream is in a longer range: no `/ width`.
    if stream < longer * (width + 1) {
        stream / (width + 1)
    } else {
        (stream - longer) / width
    }
}

/// [`shard_range`] collected.
pub fn shard_members(streams: usize, shards: usize, shard: usize) -> Vec<usize> {
    shard_range(streams, shards, shard).collect()
}

/// One partition's top-k computed from a free-standing [`StreamSet`]:
/// the local top-k summary over the root-summary coefficients of
/// `members[local]` ↦ `set.tree(local)`. Shared by the in-process
/// [`ShardedStreamSet`] and remote shard owners (the daemon's replicas)
/// through [`range_top_k`], so both produce bit-identical candidates.
///
/// The rows are read in place, sixteen streams' coefficient at a time,
/// against the summary's [`TopKSummary::floor`]: a row none of whose
/// values reaches it is skipped whole, and the values that do go into a
/// batch the summary absorbs every `max(k, 64)` candidates. A floor that
/// is out of date only admits candidates the next absorb discards, so the
/// answer is the one offering every coefficient gives.
///
/// # Panics
///
/// Panics if `members.len() > set.streams()`.
pub fn local_top_k(set: &StreamSet, members: &[usize], k: usize) -> TopKSummary {
    assert!(members.len() <= set.streams(), "more members than streams");
    top_k_of(set, k, members.len(), |local| members[local])
}

/// [`local_top_k`] of a shard owning the global ids from `first` on:
/// local stream `i` is global stream `first + i`.
pub fn range_top_k(set: &StreamSet, first: usize, k: usize) -> TopKSummary {
    top_k_of(set, k, set.streams(), |local| first + local)
}

/// The loop of [`local_top_k`] over the first `len` local streams, local
/// stream `i` being global stream `global(i)`.
fn top_k_of(set: &StreamSet, k: usize, len: usize, global: impl Fn(usize) -> usize) -> TopKSummary {
    let mut summary = TopKSummary::new(k);
    let mut floor = summary.floor();
    let mut batch = Vec::new();
    for (first, rows) in set.root_rows() {
        let lanes = len.saturating_sub(first);
        for (index, row) in rows.iter().enumerate() {
            if !row_reaches(row, floor) {
                continue;
            }
            for (lane, &value) in row.iter().enumerate().take(lanes) {
                if value.abs() >= floor {
                    batch.push(TopCoeff {
                        stream: global(first + lane) as u64,
                        index: index as u32,
                        value,
                    });
                }
            }
            if batch.len() >= k.max(64) {
                summary.absorb(&mut batch);
                floor = summary.floor();
            }
        }
    }
    summary.absorb(&mut batch);
    summary
}

/// One partition: a [`StreamSet`] over global streams `first..`.
#[derive(Debug)]
struct Shard {
    set: StreamSet,
    first: usize,
}

/// The newest summary at the highest populated level of `tree` — the
/// coarsest description of the whole retained window, and the
/// per-stream candidate source for [`ShardedStreamSet::global_top_k`] —
/// as an owned value. `None` until the first level-0 summary exists
/// (fewer than two arrivals).
pub fn root_summary(tree: TreeView<'_>) -> Option<Summary> {
    (0..tree.config().levels())
        .rev()
        .find_map(|l| tree.node(l, NodePos::Right))
}

/// A set of synchronized streams partitioned across shards by
/// [`shard_range`].
///
/// See the [module docs](self) for the determinism and exactness
/// contracts. The public surface mirrors [`StreamSet`] — global stream
/// ids everywhere — plus the distributed top-k
/// ([`Self::global_top_k`]).
#[derive(Debug)]
pub struct ShardedStreamSet {
    config: SwatConfig,
    streams: usize,
    shards: Vec<Shard>,
}

impl ShardedStreamSet {
    /// `streams` synchronized streams partitioned across `shards`
    /// shards under a shared configuration. `streams == 0` is legal
    /// (every shard holds an empty [`StreamSet`] — the bugfix that made
    /// empty sets a value is what lets shards start empty here).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(config: SwatConfig, streams: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let shards = (0..shards)
            .map(|s| shard_range(streams, shards, s))
            .map(|range| Shard {
                set: StreamSet::new(config, range.len()),
                first: range.start,
            })
            .collect();
        ShardedStreamSet {
            config,
            streams,
            shards,
        }
    }

    /// Number of streams (across all shards).
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration shared by every stream's tree.
    pub fn config(&self) -> &SwatConfig {
        &self.config
    }

    /// The tree summarizing global stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tree(&self, i: usize) -> TreeView<'_> {
        let shard = &self.shards[shard_of(i as u64, self.streams, self.shards.len())];
        shard.set.tree(i - shard.first)
    }

    /// Feed one synchronized row: `row[i]` goes to global stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != streams()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.streams, "row arity mismatch");
        for shard in &mut self.shards {
            shard
                .set
                .push_row(&row[shard.first..][..shard.set.streams()]);
        }
    }

    /// Answer the same block of point queries against every stream,
    /// returning answers in **global stream order**, each bit-identical
    /// to [`TreeView::point_with`] on that stream for every shard and
    /// thread count.
    ///
    /// # Errors
    ///
    /// As [`StreamSet::point_many`]: every stream shares one geometry,
    /// so a refused query is refused by every stream alike.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn point_many(
        &self,
        indices: &[usize],
        opts: QueryOptions,
        threads: usize,
    ) -> Result<Vec<Vec<PointAnswer>>, TreeError> {
        self.query_fan_out(threads, |set, threads| {
            set.point_many(indices, opts, threads)
        })
    }

    /// Answer the same block of inner-product queries against every
    /// stream, in global stream order; determinism contract as
    /// [`Self::point_many`].
    ///
    /// # Errors
    ///
    /// As [`StreamSet::inner_product_many`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn inner_product_many(
        &self,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
        threads: usize,
    ) -> Result<Vec<Vec<InnerProductAnswer>>, TreeError> {
        self.query_fan_out(threads, |set, threads| {
            set.inner_product_many(queries, opts, threads)
        })
    }

    /// Query fan-out in global stream order: each shard's set pass runs
    /// over its own blocks, and the shards' answers are concatenated in
    /// shard order — global stream order, since each shard owns the next
    /// contiguous range — so answers cannot depend on the shard layout. Shards spread across at most `threads` workers;
    /// threads left over when there are fewer shards than threads are
    /// shared out evenly to each shard's own pass (one shard, four
    /// threads: one pass over four workers). The first shard's error, in
    /// shard order, is returned.
    fn query_fan_out<T: Send>(
        &self,
        threads: usize,
        pass: impl Fn(&StreamSet, usize) -> Result<Vec<Vec<T>>, TreeError> + Sync,
    ) -> Result<Vec<Vec<T>>, TreeError> {
        assert!(threads > 0, "need at least one thread");
        let per_shard = (threads / self.shards.len()).max(1);
        let parts = self.map_shards(threads, |shard| pass(&shard.set, per_shard));
        let mut out = Vec::with_capacity(self.streams);
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }

    /// Order-sensitive digest over every stream's tree in **global**
    /// stream order — the same words in the same order as
    /// [`StreamSet::answers_digest`], so a sharded set and its
    /// unsharded oracle produce equal digests exactly when every stream
    /// answers every query identically.
    pub fn answers_digest(&self) -> u64 {
        let mut h = digest::mix(digest::SEED, self.streams as u64);
        for g in 0..self.streams {
            h = digest::mix(h, self.tree(g).answers_digest());
        }
        h
    }

    /// The exact global top-k largest-magnitude root-summary
    /// coefficients across all shards, and the number of local
    /// candidates merged to find them (at most `shards · k`).
    ///
    /// Each shard's local top-k ([`range_top_k`]) is computed across at most `threads`
    /// scoped workers, and the local summaries' entries are ranked
    /// together in one [`TopKSummary::absorb`]. One round is exact: see
    /// the [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `threads == 0`.
    pub fn global_top_k(&self, k: usize, threads: usize) -> (TopKSummary, usize) {
        assert!(k > 0, "top-k needs k >= 1");
        assert!(threads > 0, "need at least one thread");
        let locals = self.map_shards(threads, |shard| range_top_k(&shard.set, shard.first, k));
        let mut candidates: Vec<TopCoeff> =
            locals.iter().flat_map(|l| l.entries()).copied().collect();
        let merged = candidates.len();
        let mut result = TopKSummary::new(k);
        result.absorb(&mut candidates);
        (result, merged)
    }

    /// Run `f` over every shard, at most `threads` workers on
    /// contiguous shard runs, collecting results in shard order.
    fn map_shards<T: Send>(&self, threads: usize, f: impl Fn(&Shard) -> T + Sync) -> Vec<T> {
        let workers = threads.min(self.shards.len());
        if workers <= 1 {
            return self.shards.iter().map(f).collect();
        }
        let per = self.shards.len().div_ceil(workers);
        let mut results: Vec<Option<T>> = (0..self.shards.len()).map(|_| None).collect();
        let f = &f;
        std::thread::scope(|scope| {
            for (shard_chunk, slot_chunk) in self.shards.chunks(per).zip(results.chunks_mut(per)) {
                scope.spawn(move || {
                    for (shard, slot) in shard_chunk.iter().zip(slot_chunk.iter_mut()) {
                        *slot = Some(f(shard));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every shard slot is filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, k: usize) -> SwatConfig {
        SwatConfig::with_coefficients(n, k).unwrap()
    }

    /// Synthetic rows, deterministic in (row, stream).
    fn rows(streams: usize, len: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|i| {
                (0..streams)
                    .map(|s| ((i * (2 * s + 3) + 5 * s) % 97) as f64 - 48.0)
                    .collect()
            })
            .collect()
    }

    fn sharded(config: SwatConfig, shards: usize, rows: &[Vec<f64>]) -> ShardedStreamSet {
        let streams = rows.first().map_or(0, Vec::len);
        let mut set = ShardedStreamSet::new(config, streams, shards);
        for row in rows {
            set.push_row(row);
        }
        set
    }

    /// The unsharded oracle over the same rows.
    fn oracle_set(config: SwatConfig, rows: &[Vec<f64>]) -> StreamSet {
        let mut set = StreamSet::new(config, rows.first().map_or(0, Vec::len));
        for row in rows {
            set.push_row(row);
        }
        set
    }

    #[test]
    fn ingest_digest_matches_oracle_for_any_shard_count() {
        let config = cfg(16, 2);
        let rows = rows(23, 40);
        let want = oracle_set(config, &rows).answers_digest();
        for shards in [1usize, 2, 5, 8] {
            let set = sharded(config, shards, &rows);
            assert_eq!(set.answers_digest(), want, "shards={shards}");
        }
    }

    #[test]
    fn queries_match_oracle_for_any_shard_and_thread_count() {
        let config = cfg(32, 4);
        let rows = rows(13, 100);
        let oracle = oracle_set(config, &rows);
        let indices = [0usize, 1, 5, 17, 31];
        let queries = [
            InnerProductQuery::exponential(16, 1e9),
            InnerProductQuery::linear_at(3, 20, 1e9),
        ];
        let pts_ref = oracle
            .point_many(&indices, QueryOptions::default(), 1)
            .unwrap();
        let ips_ref = oracle
            .inner_product_many(&queries, QueryOptions::default(), 1)
            .unwrap();
        for shards in [1usize, 2, 4, 6] {
            let set = sharded(config, shards, &rows);
            for threads in [1usize, 2, 5, 16] {
                let pts = set
                    .point_many(&indices, QueryOptions::default(), threads)
                    .unwrap();
                assert_eq!(pts, pts_ref, "points shards={shards} threads={threads}");
                let ips = set
                    .inner_product_many(&queries, QueryOptions::default(), threads)
                    .unwrap();
                assert_eq!(ips, ips_ref, "ips shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_sharded_set_is_a_noop() {
        for shards in [1usize, 4] {
            for threads in [1usize, 3] {
                let mut set = ShardedStreamSet::new(cfg(16, 1), 0, shards);
                set.push_row(&[]);
                assert!(set
                    .point_many(&[0], QueryOptions::default(), threads)
                    .unwrap()
                    .is_empty());
                let (top, candidates) = set.global_top_k(3, threads);
                assert!(top.is_empty());
                assert_eq!(candidates, 0);
                assert_eq!(
                    set.answers_digest(),
                    StreamSet::new(cfg(16, 1), 0).answers_digest()
                );
            }
        }
    }

    /// Brute-force top-k oracle over the same root-summary candidates.
    fn brute_force_top_k(set: &ShardedStreamSet, k: usize) -> Vec<TopCoeff> {
        let mut all = Vec::new();
        for g in 0..set.streams() {
            if let Some(root) = root_summary(set.tree(g)) {
                for (index, &value) in root.coeffs().coefficients().iter().enumerate() {
                    all.push(TopCoeff {
                        stream: g as u64,
                        index: index as u32,
                        value,
                    });
                }
            }
        }
        all.sort_by(|a, b| {
            b.weight()
                .partial_cmp(&a.weight())
                .unwrap()
                .then_with(|| (a.stream, a.index).cmp(&(b.stream, b.index)))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn global_top_k_is_exact() {
        let config = cfg(32, 8);
        let rows = rows(40, 80);
        for shards in [1usize, 3, 8] {
            let set = sharded(config, shards, &rows);
            for k in [1usize, 4, 16] {
                let (top, candidates) = set.global_top_k(k, 2);
                let want = brute_force_top_k(&set, k);
                assert_eq!(top.entries(), &want[..], "shards={shards} k={k}");
                assert!(candidates <= shards * k);
            }
        }
    }

    #[test]
    fn global_top_k_is_thread_and_shard_invariant() {
        let config = cfg(16, 4);
        let rows = rows(30, 50);
        let mut reference: Option<TopKSummary> = None;
        for shards in [1usize, 2, 7] {
            let set = sharded(config, shards, &rows);
            for threads in [1usize, 2, 8] {
                let (top, _) = set.global_top_k(5, threads);
                match &reference {
                    None => reference = Some(top),
                    Some(want) => {
                        assert_eq!(&top, want, "shards={shards} threads={threads}")
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedStreamSet::new(cfg(16, 1), 4, 0);
    }
}
