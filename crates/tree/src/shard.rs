//! Sharded million-stream ingest with mergeable coefficient summaries.
//!
//! A single [`StreamSet`] keeps its streams' trees in one vector of
//! blocks — fine for hundreds of streams, but a deployment summarizing a
//! large network watches *millions*. [`ShardedStreamSet`] partitions the
//! streams across `S` shards by a deterministic hash of the stream id,
//! the layout a distributed deployment would use (each shard is the
//! state one site owns). Three properties are maintained exactly:
//!
//! 1. **Determinism.** Ingest and query results are bit-identical to an
//!    unsharded [`StreamSet`] over the same streams, for *every* shard
//!    count and *every* thread count: each stream's values are applied
//!    by its own shard in arrival order, each shard's set pass answers
//!    its own streams and the answers are placed in global stream
//!    order, and
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

use crate::config::{SwatConfig, TreeError};
use crate::multi::StreamSet;
use crate::node::Summary;
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions};
use crate::tree::{digest, NodePos, TreeView};
use swat_wavelet::{row_reaches, TopCoeff, TopKSummary};

/// Deterministic FNV-1a hash of a stream id — the routing function.
/// Stable across platforms and runs, so a snapshot restored elsewhere
/// routes identically.
fn route_hash(stream: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard owning `stream` out of `shards` partitions.
pub fn shard_of(stream: u64, shards: usize) -> usize {
    (route_hash(stream) % shards as u64) as usize
}

/// The global stream ids shard `shard` owns out of `streams` streams
/// hash-partitioned across `shards` — ascending, exactly the membership
/// [`ShardedStreamSet::new`] builds. A distributed deployment uses this
/// to give every site the same routing table without coordination.
pub fn shard_members(streams: usize, shards: usize, shard: usize) -> Vec<usize> {
    (0..streams)
        .filter(|&g| shard_of(g as u64, shards) == shard)
        .collect()
}

/// One partition's top-k computed from a free-standing [`StreamSet`]:
/// the local top-k summary over the root-summary coefficients of
/// `members[local]` ↦ `set.tree(local)`. Shared by the in-process
/// [`ShardedStreamSet`] and remote shard owners (the daemon's replicas),
/// so both produce bit-identical candidates.
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
    let mut summary = TopKSummary::new(k);
    let mut floor = summary.floor();
    let mut batch = Vec::new();
    for (first, rows) in set.root_rows() {
        let owners = members.get(first..).unwrap_or_default();
        for (index, row) in rows.iter().enumerate() {
            if !row_reaches(row, floor) {
                continue;
            }
            for (&value, &global) in row.iter().zip(owners) {
                if value.abs() >= floor {
                    batch.push(TopCoeff {
                        stream: global as u64,
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

/// Where a global stream lives: which shard, and at which local index
/// within that shard's [`StreamSet`].
#[derive(Debug, Clone, Copy)]
struct Route {
    shard: u32,
    local: u32,
}

/// One partition: a [`StreamSet`] over the shard's streams plus the
/// global ids of its members (ascending, because construction walks
/// global ids in order — local order therefore refines global order).
#[derive(Debug)]
struct Shard {
    set: StreamSet,
    members: Vec<usize>,
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

/// A set of synchronized streams partitioned across hash-routed shards.
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
    routes: Vec<Route>,
}

impl ShardedStreamSet {
    /// `streams` synchronized streams hash-partitioned across `shards`
    /// shards under a shared configuration. `streams == 0` is legal
    /// (every shard holds an empty [`StreamSet`] — the bugfix that made
    /// empty sets a value is what lets shards start empty here).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > u32::MAX as usize`.
    pub fn new(config: SwatConfig, streams: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(u32::try_from(shards).is_ok(), "too many shards");
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut routes = Vec::with_capacity(streams);
        for global in 0..streams {
            let shard = shard_of(global as u64, shards);
            routes.push(Route {
                shard: shard as u32,
                local: members[shard].len() as u32,
            });
            members[shard].push(global);
        }
        let shards = members
            .into_iter()
            .map(|members| Shard {
                set: StreamSet::new(config, members.len()),
                members,
            })
            .collect();
        ShardedStreamSet {
            config,
            streams,
            shards,
            routes,
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
        let r = self.routes[i];
        self.shards[r.shard as usize].set.tree(r.local as usize)
    }

    /// Feed one synchronized row: `row[i]` goes to global stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != streams()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.streams, "row arity mismatch");
        for shard in &mut self.shards {
            let local_row: Vec<f64> = shard.members.iter().map(|&g| row[g]).collect();
            shard.set.push_row(&local_row);
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
    /// over its own blocks, and each stream's answers are placed at its
    /// global index through the member list, so answers cannot depend on
    /// the shard layout. Shards spread across at most `threads` workers;
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
        let mut out: Vec<Vec<T>> = (0..self.streams).map(|_| Vec::new()).collect();
        for (shard, part) in self.shards.iter().zip(parts) {
            for (answers, &global) in part?.into_iter().zip(&shard.members) {
                out[global] = answers;
            }
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
    /// Each shard's [`local_top_k`] is computed across at most `threads`
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
        let locals = self.map_shards(threads, |shard| local_top_k(&shard.set, &shard.members, k));
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
    fn routing_is_total_and_deterministic() {
        for shards in [1usize, 2, 3, 7, 16] {
            let set = ShardedStreamSet::new(cfg(16, 2), 100, shards);
            let routed: usize = set.shards.iter().map(|s| s.members.len()).sum();
            assert_eq!(routed, 100);
            for g in 0..100 {
                assert_eq!(
                    shard_of(g as u64, shards),
                    ShardedStreamSet::new(cfg(16, 2), 100, shards).routes[g].shard as usize
                );
            }
        }
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
