//! Property tests pinning the zero-allocation query engine to the frozen
//! reference implementations, bit for bit.
//!
//! The engine (`swat_tree::scratch`) is only allowed to differ from
//! `swat_tree::query::reference` in *where bytes live* — every answer
//! field (values, error bounds, `meets_precision`, node counts,
//! extrapolation flags) and every error must be identical, across window
//! sizes, coefficient budgets, warm-up states, and reduced-level options.

use proptest::prelude::*;
use swat_tree::codec::write_frame;
use swat_tree::query::reference;
use swat_tree::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, QueryScratch, RangeQuery,
    ShardedStreamSet, StreamSet, SwatConfig, SwatTree, TreeError, TreeView,
};

/// Window exponent, coefficient budget, and a stream that may leave the
/// tree anywhere from cold to long-warm (so uncovered paths are hit too).
fn tree_inputs() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (2u32..=7).prop_flat_map(|log_n| {
        let n = 1usize << log_n;
        (1..=n, prop::collection::vec(-50.0..50.0f64, 1..4 * n)).prop_map(move |(k, v)| (n, k, v))
    })
}

fn build(n: usize, k: usize, values: &[f64]) -> SwatTree {
    let mut tree = SwatTree::new(SwatConfig::with_coefficients(n, k).unwrap());
    tree.extend(values.iter().copied());
    tree
}

fn point_answers_identical(
    a: &Result<swat_tree::PointAnswer, TreeError>,
    b: &Result<swat_tree::PointAnswer, TreeError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.value.to_bits() == y.value.to_bits()
                && x.error_bound.to_bits() == y.error_bound.to_bits()
                && x.level == y.level
                && x.extrapolated == y.extrapolated
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn inner_answers_identical(
    a: &Result<swat_tree::InnerProductAnswer, TreeError>,
    b: &Result<swat_tree::InnerProductAnswer, TreeError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.value.to_bits() == y.value.to_bits()
                && x.error_bound.to_bits() == y.error_bound.to_bits()
                && x.meets_precision == y.meets_precision
                && x.nodes_used == y.nodes_used
                && x.extrapolated == y.extrapolated
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// A mixed bag of inner-product queries exercising all profiles and the
/// general (unsorted, gappy) path.
fn query_mix(n: usize) -> Vec<InnerProductQuery> {
    let mut qs = vec![
        InnerProductQuery::exponential(n, 10.0),
        InnerProductQuery::exponential_at(n / 4, n / 2, 1.0),
        InnerProductQuery::linear(n.max(2) / 2, 25.0),
        InnerProductQuery::linear_at(1, n - 1, 5.0),
        InnerProductQuery::point(n - 1, 0.5),
    ];
    if n >= 8 {
        qs.push(
            InnerProductQuery::new(vec![n - 1, 0, n / 2, 3], vec![-1.5, 2.0, 0.25, 4.0], 3.0)
                .unwrap(),
        );
    }
    qs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scratch point path ≡ reference, at every index, for min_level 0..3,
    /// at every warm-up state.
    #[test]
    fn point_engine_matches_reference((n, k, values) in tree_inputs()) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        for min_level in 0..3usize {
            let opts = QueryOptions::at_level(min_level);
            for idx in 0..n {
                let want = reference::point_with(&tree, idx, opts);
                let got = tree.point_with_scratch(idx, opts, &mut scratch);
                prop_assert!(
                    point_answers_identical(&got, &want),
                    "idx {idx} min_level {min_level}: {got:?} vs {want:?}"
                );
                // The public API routes through the engine; same contract.
                let via_public = tree.point_with(idx, opts);
                prop_assert!(point_answers_identical(&via_public, &want));
            }
        }
    }

    /// `point_many` ≡ one-at-a-time `point_with`, including error cases.
    #[test]
    fn point_many_matches_one_at_a_time((n, k, values) in tree_inputs()) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let indices: Vec<usize> = (0..n).chain([n / 2, 0, n - 1]).collect();
        for min_level in 0..3usize {
            let opts = QueryOptions::at_level(min_level);
            let batched = tree.point_many(&indices, opts, &mut scratch, &mut out);
            let mut seq: Result<Vec<_>, TreeError> = Ok(Vec::new());
            for &idx in &indices {
                match (&mut seq, tree.point_with(idx, opts)) {
                    (Ok(v), Ok(a)) => v.push(a),
                    (Ok(_), Err(e)) => { seq = Err(e); break; }
                    _ => unreachable!(),
                }
            }
            match (batched, seq) {
                (Ok(()), Ok(seq)) => {
                    prop_assert_eq!(out.len(), seq.len());
                    for (g, w) in out.iter().zip(&seq) {
                        prop_assert!(point_answers_identical(&Ok(*g), &Ok(*w)));
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "batched {a:?} vs sequential {b:?}"),
            }
        }
    }

    /// Scratch inner-product path and `inner_product_many` ≡ reference
    /// for every profile, window, and reduced-level option.
    #[test]
    fn inner_product_engine_matches_reference((n, k, values) in tree_inputs()) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let queries = query_mix(n);
        for min_level in 0..3usize {
            let opts = QueryOptions::at_level(min_level);
            for q in &queries {
                let want = reference::inner_product_with(&tree, q, opts);
                let got = tree.inner_product_with_scratch(q, opts, &mut scratch);
                prop_assert!(
                    inner_answers_identical(&got, &want),
                    "{q:?} min_level {min_level}: {got:?} vs {want:?}"
                );
            }
            // Batched: all queries in one block vs the sequential answers.
            let batched = tree.inner_product_many(&queries, opts, &mut scratch, &mut out);
            let mut seq: Result<Vec<_>, TreeError> = Ok(Vec::new());
            for q in &queries {
                match (&mut seq, reference::inner_product_with(&tree, q, opts)) {
                    (Ok(v), Ok(a)) => v.push(a),
                    (Ok(_), Err(e)) => { seq = Err(e); break; }
                    _ => unreachable!(),
                }
            }
            match (batched, seq) {
                (Ok(()), Ok(seq)) => {
                    prop_assert_eq!(out.len(), seq.len());
                    for (g, w) in out.iter().zip(&seq) {
                        prop_assert!(inner_answers_identical(&Ok(*g), &Ok(*w)));
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "batched {a:?} vs sequential {b:?}"),
            }
        }
    }

    /// Scratch range path ≡ reference: same matches, same order, same
    /// errors — an inverted interval included, which both answer empty.
    #[test]
    fn range_engine_matches_reference(
        (n, k, values) in tree_inputs(),
        center in -60.0..60.0f64,
        radius in 0.0..40.0f64,
    ) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        // The last two are inverted (`newest > oldest`, only a literal can
        // build one): inside the window and past it.
        let spans = [(0usize, n - 1), (0, 0), (n / 2, n - 1), (1, n / 2 + 1), (n / 2 + 1, 1), (n + 3, n)];
        for (newest, oldest) in spans {
            let q = RangeQuery { center, radius, newest, oldest };
            let want = reference::range_query_with(&tree, &q, QueryOptions::default());
            let got = tree
                .range_query_with_scratch(&q, QueryOptions::default(), &mut scratch, &mut out)
                .map(|()| out.clone());
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.len(), w.len());
                    for (a, b) in g.iter().zip(w) {
                        prop_assert_eq!(a.index, b.index);
                        prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "{got:?} vs {want:?}"),
            }
        }
    }

    /// Scratch window reconstruction ≡ reference.
    #[test]
    fn reconstruct_engine_matches_reference((n, k, values) in tree_inputs()) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let want = reference::reconstruct_window(&tree);
        let got = tree
            .reconstruct_window_into(&mut scratch, &mut out)
            .map(|()| out.clone());
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(w) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            _ => prop_assert!(false, "{got:?} vs {want:?}"),
        }
    }

    /// The set pass ≡ the reference, stream by stream: `StreamSet` and
    /// `ShardedStreamSet` `point_many`/`inner_product_many`, on one and on
    /// several threads, answer every stream (or fail with the first
    /// failing stream's error) exactly as `reference::point_with` and
    /// `reference::inner_product_with` do on that stream's tree — cold,
    /// warming and steady, at every `min_level` 0..=3, over rows full of
    /// signed zeros, and with a hand-built, non-steady set restored
    /// through the set snapshot (every stream cut alike: a set has one
    /// geometry). Up to 39 streams: one 16-lane block, two, and a ragged
    /// last block, split at a block boundary at three threads.
    #[test]
    fn set_queries_match_the_reference_per_stream(
        (n, k) in (2u32..=7).prop_flat_map(|log_n| (Just(1usize << log_n), 1..=1usize << log_n)),
        streams in 1usize..40,
        shards in 1usize..4,
        extra in 0usize..64,
        seed in 0u64..1_000_000,
        hand_cut in 0usize..4,
    ) {
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let value = |row: usize, stream: usize| -> f64 {
            let h = (row as u64 * 31 + stream as u64 * 7 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            // Every third stream is signed zeros only.
            match (h % 5, stream % 3) {
                (0 | 1, _) | (_, 0) if h & 1 == 0 => 0.0,
                (0 | 1, _) | (_, 0) => -0.0,
                _ => (h % 10_007) as f64 * 0.01 - 50.0,
            }
        };
        let mut set = StreamSet::new(config, streams);
        let mut sharded = ShardedStreamSet::new(config, streams, shards);
        let mut clock = 0;
        // Cold, barely started, warming, just warm, steady.
        for until in [0, 1, n / 2 + 1, 2 * n, 3 * n + extra] {
            for row in clock..until {
                let row: Vec<f64> = (0..streams).map(|s| value(row, s)).collect();
                set.push_row(&row);
                sharded.push_row(&row);
            }
            clock = until;
            if until == n / 2 + 1 && hand_cut > 0 {
                // From here on every stream keeps only its levels below
                // `hand_cut` until the streams refill them: not steady.
                set = hand_built(&set, hand_cut);
            }
            for min_level in 0..=3usize {
                let opts = QueryOptions::at_level(min_level);
                let indices: Vec<usize> = (0..n).chain([n / 2, 0]).collect();
                let queries = query_mix(n);
                let trees: Vec<TreeView> = (0..streams).map(|s| set.tree(s)).collect();
                let shard_trees: Vec<TreeView> = (0..streams).map(|s| sharded.tree(s)).collect();
                let want_points = reference_points(&trees, &indices, opts);
                let want_inners = reference_inners(&trees, &queries, opts);
                let shard_points = reference_points(&shard_trees, &indices, opts);
                let shard_inners = reference_inners(&shard_trees, &queries, opts);
                for threads in [1usize, 3] {
                    let ctx = format!("n={n} k={k} streams={streams} clock={clock} min_level={min_level} threads={threads}");
                    prop_assert!(same_points(&set.point_many(&indices, opts, threads), &want_points), "{ctx}");
                    prop_assert!(same_inners(&set.inner_product_many(&queries, opts, threads), &want_inners), "{ctx}");
                    prop_assert!(same_points(&sharded.point_many(&indices, opts, threads), &shard_points), "sharded {ctx}");
                    prop_assert!(same_inners(&sharded.inner_product_many(&queries, opts, threads), &shard_inners), "sharded {ctx}");
                }
            }
        }
    }
}

type SetResult<T> = Result<Vec<Vec<T>>, TreeError>;

/// Per stream, every index through the reference; the first failing
/// stream's first error in place of the answers.
fn reference_points(
    trees: &[TreeView],
    indices: &[usize],
    opts: QueryOptions,
) -> SetResult<PointAnswer> {
    trees
        .iter()
        .map(|tree| {
            indices
                .iter()
                .map(|&i| reference::point_with(*tree, i, opts))
                .collect()
        })
        .collect()
}

/// As [`reference_points`] for a block of inner-product queries.
fn reference_inners(
    trees: &[TreeView],
    queries: &[InnerProductQuery],
    opts: QueryOptions,
) -> SetResult<InnerProductAnswer> {
    trees
        .iter()
        .map(|tree| {
            queries
                .iter()
                .map(|q| reference::inner_product_with(*tree, q, opts))
                .collect()
        })
        .collect()
}

/// Whether two set answers agree: the same error, or per stream the
/// same number of answers, each `same` as its counterpart.
fn same_sets<T>(got: &SetResult<T>, want: &SetResult<T>, same: impl Fn(&T, &T) -> bool) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)))
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

fn same_points(got: &SetResult<PointAnswer>, want: &SetResult<PointAnswer>) -> bool {
    same_sets(got, want, |a, b| point_answers_identical(&Ok(*a), &Ok(*b)))
}

fn same_inners(got: &SetResult<InnerProductAnswer>, want: &SetResult<InnerProductAnswer>) -> bool {
    same_sets(got, want, |a, b| inner_answers_identical(&Ok(*a), &Ok(*b)))
}

/// `set` with every stream cut down to its levels below `cut`, taken
/// through the set snapshot: each SWAT v2 body written here from the
/// tree's nodes.
fn hand_built(set: &StreamSet, cut: usize) -> StreamSet {
    let config = set.config();
    let mut bytes = b"SWMS".to_vec();
    bytes.push(2);
    for word in [
        config.window(),
        config.coefficients(),
        config.min_level(),
        set.streams(),
    ] {
        bytes.extend_from_slice(&(word as u64).to_le_bytes());
    }
    for s in 0..set.streams() {
        write_frame(&mut bytes, 5, &tree_body_below(set.tree(s), cut));
    }
    let restored = StreamSet::restore(&bytes).unwrap();
    assert!(!restored.tree(0).is_steady());
    restored
}

/// A SWAT v2 tree snapshot of `tree` keeping only its levels below `cut`.
fn tree_body_below(tree: TreeView, cut: usize) -> Vec<u8> {
    let config = tree.config();
    let mut out = b"SWAT".to_vec();
    out.push(2);
    let mut payload = Vec::new();
    for word in [config.window(), config.coefficients(), config.min_level()] {
        payload.extend_from_slice(&(word as u64).to_le_bytes());
    }
    write_frame(&mut out, 1, &payload);
    payload.clear();
    payload.extend_from_slice(&tree.arrivals().to_le_bytes());
    match tree.newest() {
        Some(v) => {
            payload.push(1);
            payload.extend_from_slice(&v.to_le_bytes());
        }
        None => payload.push(0),
    }
    write_frame(&mut out, 2, &payload);
    payload.clear();
    let kept: Vec<_> = tree.nodes().filter(|&(level, _, _)| level < cut).collect();
    payload.extend_from_slice(&(kept.len() as u64).to_le_bytes());
    for (level, _, s) in kept {
        payload.extend_from_slice(&(level as u64).to_le_bytes());
        payload.extend_from_slice(&s.created_at().to_le_bytes());
        payload.extend_from_slice(&s.range().lo().to_le_bytes());
        payload.extend_from_slice(&s.range().hi().to_le_bytes());
        let coeffs = s.coeffs().coefficients();
        payload.extend_from_slice(&(coeffs.len() as u64).to_le_bytes());
        for c in coeffs {
            payload.extend_from_slice(&c.to_le_bytes());
        }
    }
    write_frame(&mut out, 3, &payload);
    out
}
