//! The whole-stream tree is a windowed tree whose window stays above the
//! arrival count: after any `t` arrivals, [`GrowingSwat`] holds, bit for
//! bit, the nodes of the frozen scalar reference
//! (`swat_tree::ingest::reference`) at a window above `t`, and answers
//! every point and inner product as the frozen query reference
//! (`swat_tree::query::reference`) does on that tree. The reference tree
//! keeps its own per-level queues and shares no code with a block.
//!
//! The two departures from a windowed tree are pinned too: index 0 is
//! the raw newest value, and the stream's end is the arrival count.

use swat_tree::ingest::reference as ingest_ref;
use swat_tree::query::reference as query_ref;
use swat_tree::{
    GrowingSwat, InnerProductQuery, QueryOptions, Summary, SwatConfig, SwatTree, TreeError,
};

/// Arrivals checked, every clock from empty on.
const ARRIVALS: usize = 700;

/// Whether every point of the stream is checked at clock `t`: every
/// clock of the first seven grows, the clocks around each later one, and
/// a sample between them (a point check costs the reference a copy of
/// every node).
fn every_point_at(t: usize) -> bool {
    t <= 130 || t.is_multiple_of(29) || (t - 2..=t + 2).any(usize::is_power_of_two)
}

/// A deterministic stream with repeats, sign changes and signed zeros.
fn stream(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (state >> 33) % 11 {
                0 => 0.0,
                1 => -0.0,
                r => (r as f64 - 5.5) * ((state >> 40) % 97) as f64 / 8.0,
            }
        })
        .collect()
}

/// The growing tree's nodes, in query order.
fn growing_nodes(growing: &GrowingSwat) -> Vec<Summary> {
    growing.view().nodes().map(|(_, _, s)| s).collect()
}

/// The reference tree fed `values`, at window `2·(t+1).next_power_of_two()`
/// for their count `t`.
fn reference_tree(k: usize, values: &[f64]) -> ingest_ref::Tree {
    let window = 2 * (values.len() + 1).next_power_of_two();
    let mut tree = ingest_ref::Tree::new(SwatConfig::with_coefficients(window, k).unwrap());
    ingest_ref::push_batch(&mut tree, values);
    tree
}

/// Inner products over a stream of `t` values: contiguous runs from the
/// newest and from further back, and a scattered one that reaches the
/// oldest value.
fn inner_queries(t: usize) -> Vec<InnerProductQuery> {
    let mut queries = vec![
        InnerProductQuery::exponential(t.min(16), 1e9),
        InnerProductQuery::linear_at(t / 3, (t - t / 3).min(40), 1e9),
    ];
    let mut scattered: Vec<usize> = [t - 1, t / 2, 1, t / 7, 0]
        .into_iter()
        .filter(|&i| i < t)
        .collect();
    scattered.sort_unstable();
    scattered.dedup();
    let weights = (0..scattered.len()).map(|i| 1.5 - i as f64).collect();
    queries.push(InnerProductQuery::new(scattered, weights, 1e9).unwrap());
    queries
}

fn assert_same_nodes(growing: &[Summary], reference: &[Summary], ctx: &str) {
    assert_eq!(growing.len(), reference.len(), "node count ({ctx})");
    for (g, r) in growing.iter().zip(reference) {
        let at = format!("level {} created at {} ({ctx})", r.level(), r.created_at());
        assert_eq!(g.level(), r.level(), "{at}");
        assert_eq!(g.created_at(), r.created_at(), "{at}");
        assert_eq!(g.range().lo().to_bits(), r.range().lo().to_bits(), "{at}");
        assert_eq!(g.range().hi().to_bits(), r.range().hi().to_bits(), "{at}");
        let bits = |s: &Summary| -> Vec<u64> {
            s.coeffs()
                .coefficients()
                .iter()
                .map(|c| c.to_bits())
                .collect()
        };
        assert_eq!(bits(g), bits(r), "{at}");
    }
}

fn check(k: usize, seed: u64) {
    let values = stream(seed, ARRIVALS);
    let mut growing = GrowingSwat::new(k);
    let opts = QueryOptions::default();
    let mut reference = reference_tree(k, &[]);
    for t in 0..=ARRIVALS {
        let ctx = format!("k={k} seed={seed} t={t}");
        if t > 0 {
            growing.push(values[t - 1]);
            if (t + 1).is_power_of_two() {
                // The reference's window moves on: feed a fresh one the
                // whole stream.
                reference = reference_tree(k, &values[..t]);
            } else {
                ingest_ref::push(&mut reference, values[t - 1]);
            }
        }
        assert_eq!(growing.arrivals(), t as u64, "{ctx}");
        let expected: Vec<Summary> = reference.nodes().map(|(_, _, s)| s.clone()).collect();
        assert_same_nodes(&growing_nodes(&growing), &expected, &ctx);

        // The end of the stream is the arrival count.
        for idx in [t, t + 1, t + 1000] {
            assert_eq!(
                growing.point(idx).unwrap_err(),
                TreeError::IndexOutOfWindow {
                    index: idx,
                    window: t
                },
                "{ctx}"
            );
        }
        if t == 0 {
            continue;
        }
        let past = InnerProductQuery::new(vec![0, t], vec![1.0, 1.0], 1e9).unwrap();
        assert_eq!(
            growing.inner_product(&past).unwrap_err(),
            TreeError::IndexOutOfWindow {
                index: t,
                window: t
            },
            "{ctx}"
        );

        // Index 0 is the newest value itself.
        let newest = growing.point(0).unwrap();
        assert_eq!(newest.value.to_bits(), values[t - 1].to_bits(), "{ctx}");
        assert_eq!(newest.error_bound, 0.0, "{ctx}");
        assert_eq!(newest.level, 0, "{ctx}");
        assert!(!newest.extrapolated, "{ctx}");

        let tree: SwatTree = reference.to_tree();
        let points = if every_point_at(t) { 1..t } else { 1..1 };
        for idx in points {
            let want = query_ref::point_with(&tree, idx, opts);
            let got = growing.point(idx);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.value.to_bits(), w.value.to_bits(), "idx {idx} ({ctx})");
                    assert_eq!(
                        g.error_bound.to_bits(),
                        w.error_bound.to_bits(),
                        "idx {idx} ({ctx})"
                    );
                    assert_eq!((g.level, g.extrapolated), (w.level, w.extrapolated));
                }
                (got, want) => assert_eq!(got, want, "idx {idx} ({ctx})"),
            }
        }
        for query in inner_queries(t) {
            let want = query_ref::inner_product_with(&tree, &query, opts);
            match (growing.inner_product(&query), want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.value.to_bits(), w.value.to_bits(), "{query:?} ({ctx})");
                    assert_eq!(
                        g.error_bound.to_bits(),
                        w.error_bound.to_bits(),
                        "{query:?} ({ctx})"
                    );
                    assert_eq!(
                        (g.meets_precision, g.nodes_used, g.extrapolated),
                        (w.meets_precision, w.nodes_used, w.extrapolated),
                        "{query:?} ({ctx})"
                    );
                }
                (got, want) => assert_eq!(got, want, "{query:?} ({ctx})"),
            }
        }
    }
}

fn check_budgets(budgets: &[usize]) {
    for &k in budgets {
        for seed in [3, 41] {
            check(k, seed);
        }
    }
}

#[test]
fn small_budgets() {
    check_budgets(&[1, 2, 3, 4, 5]);
}

#[test]
fn budgets_that_stop_truncating() {
    check_budgets(&[8, 16, 64]);
}

#[test]
fn the_lossless_budget() {
    check_budgets(&[usize::MAX]);
}
