//! Sharded million-stream ingest with mergeable coefficient summaries.
//!
//! A single [`StreamSet`] keeps one SWAT tree per stream in one flat
//! vector — fine for hundreds of streams, but a deployment summarizing a
//! large network watches *millions*. [`ShardedStreamSet`] partitions the
//! streams across `S` shards by a deterministic hash of the stream id,
//! the layout a distributed deployment would use (each shard is the
//! state one site owns). Three properties are maintained exactly:
//!
//! 1. **Determinism.** Ingest and query results are bit-identical to an
//!    unsharded [`StreamSet`] over the same streams, for *every* shard
//!    count and *every* thread count: each stream's values are applied
//!    by exactly one worker in arrival order, queries fan out over
//!    read-only trees in global stream order, and
//!    [`ShardedStreamSet::answers_digest`] is computed in global stream
//!    order so it equals the oracle's digest verbatim. The
//!    `shard_properties` integration tests pin this against the
//!    single-set oracle for arbitrary shard/thread counts.
//!
//! 2. **Mergeable summaries.** Each shard can produce a
//!    [`TopKSummary`] of the largest-magnitude coefficients among its
//!    streams' root summaries; summaries merge exactly
//!    (`merge(S(A), S(B)) == S(A ∪ B)`, possible because shards own
//!    disjoint streams), so cross-shard top-k never rescans trees it
//!    can prune.
//!
//! 3. **Exact distributed top-k.** [`ShardedStreamSet::global_top_k`]
//!    runs the two-round Jestes–Yi–Li algorithm (arXiv:1110.6649):
//!    round one collects each shard's local top-k and derives the
//!    global pruning threshold τ (the k-th largest candidate weight);
//!    round two refines only the shards whose local threshold reaches
//!    τ — every other shard provably holds no unseen candidate — and
//!    the merged result is *exactly* the global top-k.
//!
//! Per-stream fixed cost is what the shard layer exists to control: the
//! inline level slab in [`crate::tree`] puts a whole tree's node storage
//! in one allocation, and [`ShardedStreamSet::space_bytes`] /
//! [`ShardedStreamSet::bytes_per_stream`] report the resulting
//! footprint (the benchmark's `tree.bytes_per_stream`).

use crate::config::{SwatConfig, TreeError};
use crate::multi::StreamSet;
use crate::node::Summary;
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions};
use crate::scratch::QueryScratch;
use crate::tree::{digest, NodePos, SwatTree};
use swat_wavelet::{HaarCoeffs, TopCoeff, TopKSummary};

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

/// One partition's round-one message computed from a free-standing
/// [`StreamSet`]: the local top-k summary over the root-summary
/// coefficients of `members[local]` ↦ `set.tree(local)`. Shared by the
/// in-process [`ShardedStreamSet`] and remote shard owners (the daemon's
/// replicas), so both produce bit-identical candidates.
pub fn local_top_k(set: &StreamSet, members: &[usize], k: usize) -> TopKSummary {
    let mut summary = TopKSummary::new(k);
    for_each_root_coeff(set, members, |c| summary.offer(c));
    summary
}

/// Visit every member stream's root-summary coefficients of a
/// free-standing [`StreamSet`] as [`TopCoeff`] candidates, in
/// `(stream, index)` order; `members[local]` is the global id of the
/// stream at local index `local`.
///
/// # Panics
///
/// Panics if `members.len() > set.streams()`.
pub fn for_each_root_coeff(set: &StreamSet, members: &[usize], mut f: impl FnMut(TopCoeff)) {
    for (local, &global) in members.iter().enumerate() {
        let Some(root) = root_summary(set.tree(local)) else {
            continue;
        };
        for (index, &value) in root.coeffs().coefficients().iter().enumerate() {
            f(TopCoeff {
                stream: global as u64,
                index: index as u32,
                value,
            });
        }
    }
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

impl Shard {
    /// This shard's round-one message: its local top-k summary over the
    /// root-summary coefficients of every member stream.
    fn local_top_k(&self, k: usize) -> TopKSummary {
        local_top_k(&self.set, &self.members, k)
    }

    /// Visit every member stream's root-summary coefficients as
    /// [`TopCoeff`] candidates, in (stream, index) order.
    fn for_each_root_coeff(&self, f: impl FnMut(TopCoeff)) {
        for_each_root_coeff(&self.set, &self.members, f);
    }
}

/// The newest summary at the highest populated level of `tree` — the
/// coarsest description of the whole retained window, and the
/// per-stream candidate source for [`ShardedStreamSet::global_top_k`].
/// `None` until the first level-0 summary exists (fewer than two
/// arrivals).
pub fn root_summary(tree: &SwatTree) -> Option<&Summary> {
    (0..tree.config().levels())
        .rev()
        .find_map(|l| tree.node(l, NodePos::Right))
}

/// Coordinator-side statistics of one [`ShardedStreamSet::global_top_k`]
/// run — the evidence that pruning actually happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Candidates received in round one (≤ shards · k).
    pub round1_candidates: usize,
    /// Shards whose local threshold reached τ and were rescanned.
    pub shards_refined: usize,
    /// Shards proven to hold no unseen candidate ≥ τ.
    pub shards_pruned: usize,
    /// Candidates at or above τ offered during refinement.
    pub round2_candidates: usize,
}

/// A set of synchronized streams partitioned across hash-routed shards.
///
/// See the [module docs](self) for the determinism and exactness
/// contracts. The public surface mirrors [`StreamSet`] — global stream
/// ids everywhere — plus the distributed summaries
/// ([`Self::global_top_k`], [`Self::global_aggregate`]).
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

    /// Stream population of each shard, in shard order — the routing
    /// balance the scale bench reports.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.members.len()).collect()
    }

    /// The tree summarizing global stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tree(&self, i: usize) -> &SwatTree {
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
        // Gather each shard's slice of the row in local order, then let
        // the shard set apply it — the same per-tree entry point the
        // batched path funnels into, so rows and columns cannot diverge.
        for shard in &mut self.shards {
            let local_row: Vec<f64> = shard.members.iter().map(|&g| row[g]).collect();
            shard.set.push_row(&local_row);
        }
    }

    /// Feed a block of synchronized arrivals column-wise: `columns[i]`
    /// is the next batch for global stream `i`, all columns of equal
    /// length. Shards ingest independently — at most `threads` scoped
    /// workers, each owning a contiguous run of shards, each shard
    /// applying its streams sequentially — so the final state is
    /// deterministic and bit-identical to the unsharded [`StreamSet`]
    /// for every shard and thread count.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != streams()`, if column lengths
    /// differ, if `threads == 0`, or if any value is non-finite.
    pub fn extend_batched<C: AsRef<[f64]> + Sync>(&mut self, columns: &[C], threads: usize) {
        assert_eq!(columns.len(), self.streams, "column arity mismatch");
        assert!(threads > 0, "need at least one thread");
        let len = columns.first().map(|c| c.as_ref().len()).unwrap_or(0);
        assert!(
            columns.iter().all(|c| c.as_ref().len() == len),
            "columns must have equal lengths"
        );
        let workers = threads.min(self.shards.len());
        let ingest_shard = |shard: &mut Shard| {
            let local_cols: Vec<&[f64]> =
                shard.members.iter().map(|&g| columns[g].as_ref()).collect();
            shard.set.extend_batched(&local_cols, 1);
        };
        if workers <= 1 {
            for shard in &mut self.shards {
                ingest_shard(shard);
            }
            return;
        }
        // Contiguous runs of ceil(shards / workers) shards each; the
        // partition depends only on the shard count and `workers`,
        // never on scheduling, and each stream is touched by exactly
        // one worker.
        let per = self.shards.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for chunk in self.shards.chunks_mut(per) {
                scope.spawn(move || {
                    for shard in chunk {
                        ingest_shard(shard);
                    }
                });
            }
        });
    }

    /// Answer the same block of point queries against every stream,
    /// returning answers in **global stream order**, each bit-identical
    /// to [`SwatTree::point_with`] on that stream's tree for every
    /// shard and thread count.
    ///
    /// # Errors
    ///
    /// As [`StreamSet::point_many`]: the error of the lowest-numbered
    /// (global) failing stream.
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
        self.query_fan_out(threads, |tree, scratch, out| {
            tree.point_many(indices, opts, scratch, out)
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
        self.query_fan_out(threads, |tree, scratch, out| {
            tree.inner_product_many(queries, opts, scratch, out)
        })
    }

    /// Query fan-out in global stream order: trees are gathered through
    /// the routing table into their global order and handed to the
    /// fan-out [`StreamSet`] uses, so answers — and the first-error
    /// choice — cannot depend on the shard layout.
    fn query_fan_out<T: Send>(
        &self,
        threads: usize,
        eval: impl Fn(&SwatTree, &mut QueryScratch, &mut Vec<T>) -> Result<(), TreeError> + Sync,
    ) -> Result<Vec<Vec<T>>, TreeError> {
        let trees: Vec<&SwatTree> = (0..self.streams).map(|g| self.tree(g)).collect();
        crate::multi::query_fan_out(&trees, threads, eval)
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
    /// coefficients across all shards, via the two-round Jestes–Yi–Li
    /// algorithm, plus the coordinator's [`MergeStats`].
    ///
    /// Round one gathers each shard's local top-k (computed across at
    /// most `threads` scoped workers) and merges them in shard order;
    /// the merged summary's threshold is the pruning bound τ. Round two
    /// rescans only shards that (a) truncated — sent exactly `k`
    /// candidates — and (b) have a local threshold ≥ τ: any other
    /// shard's unsent candidates sit strictly below τ and cannot enter
    /// the global top-k. Refined shards contribute every candidate with
    /// weight ≥ τ (a superset of their round-one message at or above τ,
    /// so nothing is offered twice); pruned shards contribute their
    /// round-one entries as-is. Exactness: if the round-one merge holds
    /// k candidates, τ is the k-th largest global weight *lower bound*,
    /// and every coefficient outside the final merge is ≤ some shard
    /// threshold < τ ≤ the final k-th weight; if it holds fewer, τ = 0
    /// and every shard is rescanned in full.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `threads == 0`.
    pub fn global_top_k(&self, k: usize, threads: usize) -> (TopKSummary, MergeStats) {
        assert!(k > 0, "top-k needs k >= 1");
        assert!(threads > 0, "need at least one thread");
        // Round 1: local summaries, shard-parallel; merged in shard
        // order (deterministic — merge is also order-insensitive, but
        // fixing the order keeps the digest-style reasoning trivial).
        let locals = self.map_shards(threads, |shard| shard.local_top_k(k));
        let mut merged = TopKSummary::new(k);
        for local in &locals {
            merged.merge(local);
        }
        let tau = merged.threshold();
        let mut stats = MergeStats {
            round1_candidates: locals.iter().map(TopKSummary::len).sum(),
            ..MergeStats::default()
        };
        // Round 2: refine shards that may hide candidates ≥ τ.
        let mut result = TopKSummary::new(k);
        for (shard, local) in self.shards.iter().zip(&locals) {
            let truncated = local.len() == k;
            if truncated && local.threshold() >= tau {
                stats.shards_refined += 1;
                shard.for_each_root_coeff(|c| {
                    if c.weight() >= tau {
                        stats.round2_candidates += 1;
                        result.offer(c);
                    }
                });
            } else {
                stats.shards_pruned += 1;
                for &e in local.entries() {
                    result.offer(e);
                }
            }
        }
        (result, stats)
    }

    /// Coefficient-wise sum of every stream's **full-window** root (the
    /// top-level `R` summary), accumulated in global stream order — by
    /// linearity of the Haar transform this is exactly the truncated
    /// summary of the per-index *sum* of all those streams, without
    /// reconstructing anything. Streams whose window has not filled yet
    /// have no top-level root and are skipped; `None` if no stream
    /// qualifies.
    pub fn global_aggregate(&self) -> Option<HaarCoeffs> {
        let top = self.config.levels() - 1;
        let mut acc: Option<HaarCoeffs> = None;
        for g in 0..self.streams {
            if let Some(s) = self.tree(g).node(top, NodePos::Right) {
                match &mut acc {
                    None => acc = Some(s.coeffs().clone()),
                    Some(a) => a
                        .add_assign(s.coeffs())
                        .expect("top-level roots share the window length"),
                }
            }
        }
        acc
    }

    /// Approximate memory footprint: every tree (header, inline level
    /// slab, coefficient heap), the routing table, and the shard
    /// directory.
    pub fn space_bytes(&self) -> usize {
        let mut total =
            std::mem::size_of::<Self>() + self.routes.capacity() * std::mem::size_of::<Route>();
        for shard in &self.shards {
            total += std::mem::size_of::<Shard>()
                + shard.members.capacity() * std::mem::size_of::<usize>();
            for local in 0..shard.set.streams() {
                total += shard.set.tree(local).space_bytes();
            }
        }
        total
    }

    /// [`Self::space_bytes`] amortized per stream — the fixed cost the
    /// scale bench tracks. `None` when the set is empty.
    pub fn bytes_per_stream(&self) -> Option<usize> {
        (self.streams > 0).then(|| self.space_bytes() / self.streams)
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

    /// Per-stream synthetic columns, deterministic in (stream, index).
    fn columns(streams: usize, len: usize) -> Vec<Vec<f64>> {
        (0..streams)
            .map(|s| {
                (0..len)
                    .map(|i| ((i * (2 * s + 3) + 5 * s) % 97) as f64 - 48.0)
                    .collect()
            })
            .collect()
    }

    /// The unsharded oracle over the same columns.
    fn oracle_set(config: SwatConfig, cols: &[Vec<f64>]) -> StreamSet {
        let mut set = StreamSet::new(config, cols.len());
        set.extend_batched(cols, 1);
        set
    }

    #[test]
    fn routing_is_total_and_deterministic() {
        for shards in [1usize, 2, 3, 7, 16] {
            let set = ShardedStreamSet::new(cfg(16, 2), 100, shards);
            assert_eq!(set.shard_sizes().iter().sum::<usize>(), 100);
            for g in 0..100 {
                assert_eq!(
                    shard_of(g as u64, shards),
                    ShardedStreamSet::new(cfg(16, 2), 100, shards).routes[g].shard as usize
                );
            }
        }
    }

    #[test]
    fn ingest_digest_matches_oracle_for_shard_and_thread_grids() {
        let config = cfg(16, 2);
        let cols = columns(23, 40);
        let want = oracle_set(config, &cols).answers_digest();
        for shards in [1usize, 2, 5, 8] {
            for threads in [1usize, 2, 4, 9] {
                let mut set = ShardedStreamSet::new(config, 23, shards);
                set.extend_batched(&cols, threads);
                assert_eq!(
                    set.answers_digest(),
                    want,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn incremental_blocks_match_one_shot() {
        let config = cfg(16, 2);
        let cols = columns(11, 45);
        let mut whole = ShardedStreamSet::new(config, 11, 3);
        whole.extend_batched(&cols, 4);
        let mut blocks = ShardedStreamSet::new(config, 11, 3);
        for start in (0..45).step_by(7) {
            let end = (start + 7).min(45);
            let part: Vec<&[f64]> = cols.iter().map(|c| &c[start..end]).collect();
            blocks.extend_batched(&part, 2);
        }
        assert_eq!(whole.answers_digest(), blocks.answers_digest());
    }

    #[test]
    fn push_row_matches_extend_batched() {
        let config = cfg(16, 2);
        let cols = columns(9, 30);
        let mut batched = ShardedStreamSet::new(config, 9, 4);
        batched.extend_batched(&cols, 3);
        let mut rowed = ShardedStreamSet::new(config, 9, 4);
        for i in 0..30 {
            let row: Vec<f64> = cols.iter().map(|c| c[i]).collect();
            rowed.push_row(&row);
        }
        assert_eq!(batched.answers_digest(), rowed.answers_digest());
    }

    #[test]
    fn queries_match_oracle_for_any_shard_and_thread_count() {
        let config = cfg(32, 4);
        let cols = columns(13, 100);
        let oracle = oracle_set(config, &cols);
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
            let mut set = ShardedStreamSet::new(config, 13, shards);
            set.extend_batched(&cols, 2);
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
                let no_columns: [Vec<f64>; 0] = [];
                set.extend_batched(&no_columns, threads);
                set.push_row(&[]);
                assert!(set
                    .point_many(&[0], QueryOptions::default(), threads)
                    .unwrap()
                    .is_empty());
                let (top, stats) = set.global_top_k(3, threads);
                assert!(top.is_empty());
                assert_eq!(stats.round1_candidates, 0);
                assert!(set.global_aggregate().is_none());
                assert!(set.bytes_per_stream().is_none());
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
    fn global_top_k_is_exact_and_prunes() {
        let config = cfg(32, 8);
        let cols = columns(40, 80);
        for shards in [1usize, 3, 8] {
            let mut set = ShardedStreamSet::new(config, 40, shards);
            set.extend_batched(&cols, 4);
            for k in [1usize, 4, 16] {
                let (top, stats) = set.global_top_k(k, 2);
                let want = brute_force_top_k(&set, k);
                assert_eq!(top.entries(), &want[..], "shards={shards} k={k}");
                assert_eq!(
                    stats.shards_refined + stats.shards_pruned,
                    shards,
                    "shards={shards} k={k}"
                );
                assert!(stats.round1_candidates <= shards * k);
            }
            // With many shards and small k, at least one shard must be
            // pruned (its local threshold falls below τ).
            if shards == 8 {
                let (_, stats) = set.global_top_k(2, 2);
                assert!(stats.shards_pruned > 0, "no pruning at shards=8 k=2");
            }
        }
    }

    #[test]
    fn global_top_k_is_thread_and_shard_invariant() {
        let config = cfg(16, 4);
        let cols = columns(30, 50);
        let mut reference: Option<TopKSummary> = None;
        for shards in [1usize, 2, 7] {
            let mut set = ShardedStreamSet::new(config, 30, shards);
            set.extend_batched(&cols, 3);
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
    fn global_aggregate_matches_summed_signal() {
        // Linearity end-to-end: aggregate of per-stream roots equals the
        // summary of the summed stream, bit-exact for full budgets.
        let n = 16;
        let streams = 6;
        let config = cfg(n, n);
        let cols = columns(streams, 2 * n); // exactly 2N arrivals: roots fresh
        let mut set = ShardedStreamSet::new(config, streams, 3);
        set.extend_batched(&cols, 2);
        let agg = set.global_aggregate().expect("all streams warm");
        // The summed stream, pushed through one tree.
        let summed: Vec<f64> = (0..2 * n)
            .map(|i| cols.iter().map(|c| c[i]).sum())
            .collect();
        let mut one = SwatTree::new(config);
        one.push_batch(&summed);
        let want = root_summary(&one).unwrap().coeffs();
        assert_eq!(agg.len(), want.len());
        for (a, b) in agg.coefficients().iter().zip(want.coefficients()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn space_accounting_reports_per_stream_cost() {
        let config = cfg(64, 4);
        let mut set = ShardedStreamSet::new(config, 200, 4);
        set.extend_batched(&columns(200, 128), 4);
        let per = set.bytes_per_stream().unwrap();
        // One warm tree is a few hundred bytes at k=4; the fixed cost
        // must stay within the same order of magnitude (no hidden
        // per-stream heap blowup).
        let lone = set.tree(0).space_bytes();
        assert!(per >= lone, "per-stream {per} below lone tree {lone}");
        assert!(per < 8 * lone, "per-stream {per} vs lone tree {lone}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedStreamSet::new(cfg(16, 1), 4, 0);
    }
}
