//! Property tests pinning the zero-allocation query engine to the frozen
//! reference implementations, bit for bit.
//!
//! The engine (`swat_tree::scratch`) is only allowed to differ from
//! `swat_tree::query::reference` in *where bytes live* — every answer
//! field (values, error bounds, `meets_precision`, node counts,
//! extrapolation flags) and every error must be identical, across window
//! sizes, coefficient budgets, warm-up states, and reduced-level options.

use proptest::prelude::*;
use swat_tree::multi::StreamSet;
use swat_tree::query::reference;
use swat_tree::{
    InnerProductQuery, QueryOptions, QueryScratch, RangeQuery, SwatConfig, SwatTree, TreeError,
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
    /// errors.
    #[test]
    fn range_engine_matches_reference(
        (n, k, values) in tree_inputs(),
        center in -60.0..60.0f64,
        radius in 0.0..40.0f64,
    ) {
        let tree = build(n, k, &values);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let spans = [(0usize, n - 1), (0, 0), (n / 2, n - 1), (1, n / 2 + 1)];
        for (newest, oldest) in spans {
            let q = RangeQuery { center, radius, newest, oldest: oldest.max(newest) };
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

    /// StreamSet query fan-out is deterministic: identical answers for
    /// every thread count, bit for bit.
    #[test]
    fn stream_set_fan_out_is_deterministic(
        streams in 1usize..9,
        seed in 0u64..1000,
    ) {
        let n = 32;
        let mut set = StreamSet::new(SwatConfig::with_coefficients(n, 4).unwrap(), streams);
        let cols: Vec<Vec<f64>> = (0..streams)
            .map(|s| {
                (0..3 * n)
                    .map(|i| (((i as u64 + seed) * (2 * s as u64 + 3)) % 101) as f64 - 50.0)
                    .collect()
            })
            .collect();
        set.extend_batched(&cols, 2);
        let indices: Vec<usize> = vec![0, 3, n / 2, n - 1];
        let queries = query_mix(n);
        let pts1 = set.point_many(&indices, QueryOptions::default(), 1).unwrap();
        let ips1 = set
            .inner_product_many(&queries, QueryOptions::default(), 1)
            .unwrap();
        for threads in [2usize, 3, 7, 16] {
            let pts = set.point_many(&indices, QueryOptions::default(), threads).unwrap();
            prop_assert_eq!(&pts, &pts1, "threads={}", threads);
            let ips = set
                .inner_product_many(&queries, QueryOptions::default(), threads)
                .unwrap();
            prop_assert_eq!(&ips, &ips1, "threads={}", threads);
        }
    }
}
