//! Property tests for the sharded ingest tier: for *arbitrary* stream
//! counts, shard counts, thread counts, window shapes, and data, a
//! [`ShardedStreamSet`] must be observationally bit-identical to the
//! unsharded [`StreamSet`] oracle, and its distributed top-k — and the
//! daemon replicas' path to the same answer — must equal the
//! brute-force ranking of the same candidates. The partition rule
//! itself — contiguous, balanced, in shard order — is pinned here too.

use proptest::prelude::*;
use swat_tree::shard::{
    local_top_k, range_top_k, root_summary, shard_members, shard_of, shard_range, ShardedStreamSet,
};
use swat_tree::{InnerProductQuery, QueryOptions, StreamSet, SwatConfig};
use swat_wavelet::{TopCoeff, TopKSummary};

/// One stream's values: uniform reals, or tie-heavy columns — a small
/// integer constant (zero included), small integers, or all zeros — so
/// that weights tie and zero-weight coefficients are common.
fn column(len: usize) -> impl Strategy<Value = Vec<f64>> {
    (0u8..4, prop::collection::vec(-100.0..100.0f64, len..=len)).prop_map(|(kind, values)| {
        match kind {
            0 => values,
            1 => vec![(values[0] / 25.0).round(); values.len()],
            2 => values.iter().map(|v| (v / 40.0).round()).collect(),
            _ => vec![0.0; values.len()],
        }
    })
}

/// An arbitrary sharded workload of up to `max_streams` streams: window
/// shape, shard/thread counts, and the rows (one value per stream,
/// enough of them to exercise several refresh cascades).
#[allow(clippy::type_complexity)]
fn workload(
    max_streams: usize,
) -> impl Strategy<Value = (usize, usize, Vec<Vec<f64>>, usize, usize)> {
    (
        2u32..=5,
        1usize..=4,
        0..=max_streams,
        1usize..=9,
        1usize..=9,
    )
        .prop_flat_map(|(log_n, k, streams, shards, threads)| {
            let n = 1usize << log_n;
            let k = k.min(n);
            let len = 2 * n + 3;
            prop::collection::vec(column(len), streams..=streams).prop_map(move |cols| {
                let rows = (0..len)
                    .map(|i| cols.iter().map(|c| c[i]).collect())
                    .collect();
                (n, k, rows, shards, threads)
            })
        })
}

/// The unsharded oracle and the sharded set over the same rows.
fn ingest(
    config: SwatConfig,
    streams: usize,
    shards: usize,
    rows: &[Vec<f64>],
) -> (StreamSet, ShardedStreamSet) {
    let mut oracle = StreamSet::new(config, streams);
    let mut sharded = ShardedStreamSet::new(config, streams, shards);
    for row in rows {
        oracle.push_row(row);
        sharded.push_row(row);
    }
    (oracle, sharded)
}

/// Brute-force top-k oracle over every stream's root-summary
/// coefficients, ranked by |value| desc then (stream, index) asc.
fn brute_force_top_k(set: &StreamSet, k: usize) -> Vec<TopCoeff> {
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

/// The partition of `streams` over `shards`: the ranges tile
/// `0..streams` in shard order, their widths differ by at most one with
/// the longer ranges first, `shard_members` is the range collected, and
/// `shard_of` names the range holding every stream.
fn check_partition(streams: usize, shards: usize) {
    let width = |s| shard_range(streams, shards, s).len();
    let mut next = 0;
    for s in 0..shards {
        let range = shard_range(streams, shards, s);
        assert_eq!(range.start, next, "{streams}/{shards}: shard {s} starts");
        assert!(width(0) - width(s) <= 1, "{streams}/{shards}: widths");
        if s > 0 {
            assert!(width(s - 1) >= width(s), "{streams}/{shards}: longer first");
        }
        assert_eq!(
            shard_members(streams, shards, s),
            range.clone().collect::<Vec<_>>()
        );
        for g in range.clone() {
            assert_eq!(
                shard_of(g as u64, streams, shards),
                s,
                "{streams}/{shards}: {g}"
            );
        }
        next = range.end;
    }
    assert_eq!(
        next, streams,
        "{streams}/{shards}: the ranges cover every stream"
    );
}

#[test]
fn small_partitions_are_contiguous_and_balanced() {
    // Every shape up to 40 streams, fewer streams than shards and none
    // at all included.
    for streams in 0..=40 {
        for shards in 1..=12 {
            check_partition(streams, shards);
        }
    }
}

/// The benchmark's shapes, pinned: its exact per-operation counts follow
/// from how many streams each shard owns.
#[test]
fn benchmark_shapes_keep_their_widths() {
    let widths = |streams, shards| -> Vec<usize> {
        (0..shards)
            .map(|s| shard_range(streams, shards, s).len())
            .collect()
    };
    assert_eq!(widths(2048, 2), [1024, 1024]);
    assert_eq!(widths(64, 3), [22, 21, 21]);
    assert_eq!(widths(1024, 1), [1024]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition rule at arbitrary sizes.
    #[test]
    fn partitions_are_contiguous_and_balanced(streams in 0usize..5_000, shards in 1usize..100) {
        check_partition(streams, shards);
    }

    /// Sharded ingest is bit-identical to the unsharded oracle: the
    /// global-order digests agree for every shard count.
    #[test]
    fn sharded_ingest_digest_matches_oracle(
        (n, k, rows, shards, _threads) in workload(17)
    ) {
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let streams = rows[0].len();
        let (oracle, sharded) = ingest(config, streams, shards, &rows);
        prop_assert_eq!(sharded.answers_digest(), oracle.answers_digest());
    }

    /// Query fan-out answers equal the oracle's, element for element,
    /// for every shard and thread count (success paths).
    #[test]
    fn sharded_queries_match_oracle(
        (n, k, rows, shards, threads) in workload(17)
    ) {
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let streams = rows[0].len();
        let (oracle, sharded) = ingest(config, streams, shards, &rows);
        let indices: Vec<usize> = vec![0, 1, n / 2, n - 1];
        let pts_oracle = oracle.point_many(&indices, QueryOptions::default(), 1);
        let pts_sharded = sharded.point_many(&indices, QueryOptions::default(), threads);
        prop_assert_eq!(pts_sharded, pts_oracle);
        let queries = [InnerProductQuery::exponential(n / 2, 1e9)];
        let ips_oracle = oracle.inner_product_many(&queries, QueryOptions::default(), 1);
        let ips_sharded = sharded.inner_product_many(&queries, QueryOptions::default(), threads);
        prop_assert_eq!(ips_sharded, ips_oracle);
    }

    /// Distributed top-k equals the brute-force oracle exactly, for
    /// every shard count, thread count, and retention bound — both
    /// in-process and the way the daemon computes it: one free-standing
    /// `StreamSet` per shard fed its sub-rows, their `range_top_k`s
    /// (equal to `local_top_k` over the member list) merged in shard
    /// order. Up to 40 streams, so a shard spans up to
    /// three blocks, the last one ragged; `top_k` past 40 × 4
    /// candidates, so some summaries never fill and others fill and
    /// raise their floor partway through a block.
    #[test]
    fn distributed_top_k_is_exact(
        (n, k, rows, shards, threads) in workload(40),
        top_k in 1usize..=170,
    ) {
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let streams = rows[0].len();
        let (oracle, sharded) = ingest(config, streams, shards, &rows);
        let want = brute_force_top_k(&oracle, top_k);
        let (top, candidates) = sharded.global_top_k(top_k, threads);
        prop_assert_eq!(top.entries(), &want[..]);
        prop_assert!(candidates <= shards * top_k);
        let mut merged = TopKSummary::new(top_k);
        for shard in 0..shards {
            let members = shard_members(streams, shards, shard);
            let mut set = StreamSet::new(config, members.len());
            for row in &rows {
                let sub: Vec<f64> = members.iter().map(|&g| row[g]).collect();
                set.push_row(&sub);
            }
            let local = range_top_k(&set, shard_range(streams, shards, shard).start, top_k);
            prop_assert_eq!(&local, &local_top_k(&set, &members, top_k));
            merged.merge(&local);
        }
        prop_assert_eq!(merged.entries(), &want[..]);
    }
}
