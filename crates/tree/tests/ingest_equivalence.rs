//! Bit-identity property suite: the blocked batch-ingest path must
//! produce trees **node-for-node identical** to the frozen scalar
//! reference (`swat_tree::ingest::reference`) for every window size,
//! coefficient budget, chunk cap, batch decomposition, and interleaving
//! of the ingest entry points — including unaligned heads and tails.

use proptest::prelude::*;
use swat_tree::ingest::reference;
use swat_tree::{IngestScratch, NodePos, StreamSet, Summary, SwatConfig, SwatTree, TreeView};

/// Assert a tree is observably identical to the frozen reference's, node
/// by node (clearer failure messages than the digest alone), then
/// cross-check the digest.
fn assert_identical<'a>(blocked: impl Into<TreeView<'a>>, frozen: &reference::Tree, ctx: &str) {
    let blocked = blocked.into();
    assert_eq!(
        blocked.arrivals(),
        frozen.arrivals(),
        "clock mismatch ({ctx})"
    );
    assert_eq!(
        blocked.newest().map(f64::to_bits),
        frozen.newest().map(f64::to_bits),
        "newest value mismatch ({ctx})"
    );
    let a: Vec<_> = blocked.nodes().collect();
    let b: Vec<_> = frozen.nodes().map(|(l, p, s)| (l, p, s.clone())).collect();
    assert_same_nodes(&a, &b, ctx);
    assert_eq!(
        blocked.answers_digest(),
        frozen.to_tree().answers_digest(),
        "digest mismatch ({ctx})"
    );
}

/// Assert two trees of the code under test are observably identical.
fn assert_same_trees(a: TreeView<'_>, b: TreeView<'_>, ctx: &str) {
    let (na, nb): (Vec<_>, Vec<_>) = (a.nodes().collect(), b.nodes().collect());
    assert_same_nodes(&na, &nb, ctx);
    assert_eq!(
        a.answers_digest(),
        b.answers_digest(),
        "digest mismatch ({ctx})"
    );
}

/// Node lists equal in order, creation time, range bits and coefficient
/// bits.
fn assert_same_nodes(a: &[(usize, NodePos, Summary)], b: &[(usize, NodePos, Summary)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "summary count mismatch ({ctx})");
    for ((la, pa, sa), (lb, pb, sb)) in a.iter().zip(b) {
        assert_eq!((la, pa), (lb, pb), "node order mismatch ({ctx})");
        assert_eq!(
            sa.created_at(),
            sb.created_at(),
            "created_at mismatch at level {la} {pa:?} ({ctx})"
        );
        assert_eq!(
            sa.range().lo().to_bits(),
            sb.range().lo().to_bits(),
            "range lo bits mismatch at level {la} {pa:?} ({ctx})"
        );
        assert_eq!(
            sa.range().hi().to_bits(),
            sb.range().hi().to_bits(),
            "range hi bits mismatch at level {la} {pa:?} ({ctx})"
        );
        let ca: Vec<u64> = sa
            .coeffs()
            .coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let cb: Vec<u64> = sb
            .coeffs()
            .coefficients()
            .iter()
            .map(|c| c.to_bits())
            .collect();
        assert_eq!(
            ca, cb,
            "coefficient bits mismatch at level {la} {pa:?} ({ctx})"
        );
    }
}

/// A value stream exercising varied magnitudes and signs (finite only),
/// both zeros included: a range bound of `0.0` beside `-0.0` keeps the
/// newer one, and only a stream that draws both shows which.
fn values(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            -1e6f64..1e6,
            -1.0f64..1.0,
            Just(0.0),
            Just(-0.0),
            (-50i32..50).prop_map(f64::from),
        ],
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One big batch vs the frozen per-value reference, across window
    /// sizes, budgets, chunk caps, and total lengths (aligned or not).
    #[test]
    fn single_batch_matches_reference(
        (log_n, k, total, chunk_cap, vals) in (2u32..=8).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (
                Just(log_n),
                prop_oneof![
                    Just(1usize),
                    Just(2),
                    Just(3),
                    Just(4),
                    Just(6),
                    Just(8),
                    Just(16),
                    Just(17)
                ],
                0usize..(3 * n + 5),
                prop_oneof![Just(8usize), Just(16), Just(64), Just(1024)],
            )
                .prop_flat_map(|(log_n, k, total, cap)| {
                    (Just(log_n), Just(k), Just(total), Just(cap), values(total))
                })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut scratch = IngestScratch::with_max_chunk(chunk_cap);
        blocked.push_batch_with_scratch(&vals, &mut scratch);
        let mut frozen = reference::Tree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} total={total} cap={chunk_cap}"));
    }

    /// Arbitrary batch decompositions — including 1-value batches (the
    /// scalar head/tail path) and batches crossing chunk boundaries —
    /// all collapse to the same tree.
    #[test]
    fn arbitrary_splits_match_reference(
        (log_n, k, vals, splits) in (2u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (2 * n..3 * n).prop_flat_map(move |total| {
                (
                    Just(log_n),
                    prop_oneof![Just(1usize), Just(3), Just(4), Just(8), Just(16)],
                    values(total),
                    prop::collection::vec(1usize..=total.max(1), 0..12),
                )
            })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut rest: &[f64] = &vals;
        for &s in &splits {
            if rest.is_empty() { break; }
            let cut = s.min(rest.len());
            blocked.push_batch(&rest[..cut]);
            rest = &rest[cut..];
        }
        blocked.push_batch(rest);
        let mut frozen = reference::Tree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} splits={splits:?}"));
    }

    /// Interleaving scalar `push`, batched `push_batch`, and iterator
    /// `extend` still matches the reference stream byte for byte.
    #[test]
    fn interleaved_entry_points_match_reference(
        (log_n, k, ops) in (2u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (
                Just(log_n),
                prop_oneof![Just(2usize), Just(8), Just(17)],
                prop::collection::vec(
                    (0u8..3, 1usize..n.max(2), -100.0f64..100.0),
                    1..10,
                ),
            )
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut blocked = SwatTree::new(config);
        let mut all = Vec::new();
        for (mode, len, seed) in ops {
            let vals: Vec<f64> = (0..len).map(|i| seed + i as f64 * 0.75).collect();
            match mode {
                0 => for &v in &vals { blocked.push(v); },
                1 => blocked.push_batch(&vals),
                _ => blocked.extend(vals.iter().copied()),
            }
            all.extend_from_slice(&vals);
        }
        let mut frozen = reference::Tree::new(config);
        reference::push_batch(&mut frozen, &all);
        assert_identical(&blocked, &frozen, &format!("n={n} k={k} len={}", all.len()));
    }

    /// Snapshot round-trips mid-stream don't disturb the blocked path:
    /// a restored tree continues bit-identically (boundary verification
    /// accepts stream-grown slab states).
    #[test]
    fn restored_trees_continue_identically(
        (log_n, k, head, tail) in (3u32..=7).prop_flat_map(|log_n| {
            let n = 1usize << log_n;
            (0..2 * n).prop_flat_map(move |head_len| {
                (
                    Just(log_n),
                    prop_oneof![Just(1usize), Just(8)],
                    values(head_len),
                    values(2 * n),
                )
            })
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let mut tree = SwatTree::new(config);
        tree.push_batch(&head);
        let bytes = tree.snapshot();
        let mut restored = SwatTree::restore(&bytes).unwrap();
        restored.push_batch(&tail);
        let mut frozen = reference::Tree::new(config);
        let mut all = head.clone();
        all.extend_from_slice(&tail);
        reference::push_batch(&mut frozen, &all);
        assert_identical(&restored, &frozen, &format!("n={n} k={k} head={}", head.len()));
    }
}

/// One step of an in-place-refresh schedule: how the next `len` values
/// reach the live tree, or a snapshot round-trip between values.
#[derive(Debug, Clone)]
enum Step {
    Push(usize),
    Batch(usize),
    Restore,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..6).prop_map(Step::Push),
            // Odd lengths: every batch leaves the clock unaligned, so
            // the blocked chunks run between scalar heads and tails.
            (0..max_len).prop_map(|h| Step::Batch(2 * h + 1)),
            Just(Step::Restore),
        ],
        1..14,
    )
}

/// Drive `live` through `schedule` and a reference copy of its starting
/// state through the reference path value by value, comparing node for
/// node after **every** step —
/// so the warm-up states, where a rotated slot is still empty, and the
/// first refreshes of slots that `restore`/`from_window` built (not the
/// live path) are all checked, not just the final tree.
fn run_schedule(mut live: SwatTree, schedule: &[Step], ctx: &str) {
    let mut frozen = reference::Tree::of(&live);
    let mut next = 0usize;
    let mut value = move || {
        next += 1;
        ((next * 2_654_435_761) % 10_007) as f64 * 0.037 - 180.0
    };
    for (i, step) in schedule.iter().enumerate() {
        match *step {
            Step::Push(len) => {
                for _ in 0..len {
                    let v = value();
                    live.push(v);
                    reference::push(&mut frozen, v);
                }
            }
            Step::Batch(len) => {
                let vals: Vec<f64> = (0..len).map(|_| value()).collect();
                live.push_batch(&vals);
                reference::push_batch(&mut frozen, &vals);
            }
            Step::Restore => live = SwatTree::restore(&live.snapshot()).unwrap(),
        }
        assert_identical(&live, &frozen, &format!("{ctx} after step {i} {step:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `push`, odd-length `push_batch`, and `snapshot -> restore -> push`
    /// interleaved from a cold tree: the in-place slot refresh matches
    /// the frozen build-and-shift path at every step.
    #[test]
    fn in_place_refresh_matches_reference_from_cold(
        (log_n, k, schedule) in (2u32..=6).prop_flat_map(|log_n| {
            (
                Just(log_n),
                prop_oneof![Just(1usize), Just(3), Just(4), Just(8), Just(17)],
                steps(1usize << log_n),
            )
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        run_schedule(
            SwatTree::new(config),
            &schedule,
            &format!("cold n={n} k={k}"),
        );
    }

    /// The same schedules over a `from_window` tree, whose every slot was
    /// bulk-built from raw values rather than by the live path.
    #[test]
    fn in_place_refresh_matches_reference_from_window(
        (log_n, k, window, schedule) in (2u32..=6).prop_flat_map(|log_n| {
            (
                Just(log_n),
                prop_oneof![Just(1usize), Just(3), Just(4), Just(8), Just(17)],
                values(1usize << log_n),
                steps(1usize << log_n),
            )
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        run_schedule(
            SwatTree::from_window(config, &window).unwrap(),
            &schedule,
            &format!("from_window n={n} k={k}"),
        );
    }
}

/// Deterministic large case: multiple 1024-value chunks, plus unaligned
/// head/tail, at the bench's window and budget.
#[test]
fn large_stream_crosses_max_chunks() {
    for k in [1usize, 3, 8] {
        let config = SwatConfig::with_coefficients(4096, k).unwrap();
        let vals: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64) % 10_007) as f64 * 0.01 - 50.0)
            .collect();
        let mut blocked = SwatTree::new(config);
        blocked.push(vals[0]);
        blocked.push_batch(&vals[1..7]);
        blocked.push_batch(&vals[7..9_500]);
        blocked.extend(vals[9_500..].iter().copied());
        let mut frozen = reference::Tree::new(config);
        reference::push_batch(&mut frozen, &vals);
        assert_identical(&blocked, &frozen, &format!("large k={k}"));
    }
}

/// The frozen reference matches the scalar `push` loop (it is the same
/// code); the blocked path matches both.
#[test]
fn reference_matches_scalar_push() {
    let config = SwatConfig::with_coefficients(64, 8).unwrap();
    let vals: Vec<f64> = (0..300).map(|i| (i as f64).sin() * 40.0).collect();
    let mut pushed = SwatTree::new(config);
    for &v in &vals {
        pushed.push(v);
    }
    let mut frozen = reference::Tree::new(config);
    for &v in &vals {
        reference::push(&mut frozen, v);
    }
    assert_identical(&pushed, &frozen, "push vs reference::push");
    let mut extended = reference::Tree::new(config);
    reference::extend(&mut extended, vals.iter().copied());
    assert_identical(&extended.to_tree(), &frozen, "reference extend vs push");
}

/// `StreamSet::extend_rows` (row-major block, the blocked cascade over
/// blocks of 16 streams) against the `push_row` loop it replaces in every
/// holding and in recovery: node for node, for block lengths around the
/// 256-row chunk cap and beyond a whole generation, from cold sets and
/// from sets warmed to an unaligned clock — and again after a second
/// block, which starts from whatever clock the first one left. Stream
/// counts below, at and above one block of 16 and with a partial last
/// block (37); budgets whose level-≥ 1 coefficients live inline (≤ 4) and
/// on the heap (5, 6, 8; a six-coefficient parent reads four lanes of its
/// newer child, which is what a slab entry below it must keep).
#[test]
fn extend_rows_matches_the_push_row_loop() {
    let value = |i: usize| ((i * 2_654_435_761) % 10_007) as f64 * 0.037 - 180.0;
    for (streams, window, k) in [
        (1usize, 16usize, 1usize),
        (5, 64, 3),
        (9, 1024, 4),
        (15, 32, 2),
        (16, 64, 5),
        (17, 128, 8),
        (20, 128, 6),
        (37, 64, 5),
    ] {
        let config = SwatConfig::with_coefficients(window, k).unwrap();
        for warm in [0, 2 * window + 5] {
            for len in [0usize, 1, 255, 256, 257, 4096 + 3] {
                let mut blocked = StreamSet::new(config, streams);
                let mut rowwise = StreamSet::new(config, streams);
                let warm_rows: Vec<f64> = (0..warm * streams).map(value).collect();
                for row in warm_rows.chunks_exact(streams) {
                    blocked.push_row(row);
                    rowwise.push_row(row);
                }
                for (pass, len) in [len, 300].into_iter().enumerate() {
                    let block: Vec<f64> = (0..len * streams)
                        .map(|i| value(i + 7 * (pass + 1)))
                        .collect();
                    blocked.extend_rows(&block);
                    for row in block.chunks_exact(streams) {
                        rowwise.push_row(row);
                    }
                    for s in 0..streams {
                        assert_same_trees(
                            blocked.tree(s),
                            rowwise.tree(s),
                            &format!(
                                "streams={streams} n={window} k={k} warm={warm} \
                                 len={len} pass={pass} stream={s}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// `try_push_batch` rejects mid-stream NaN without mutating; the fused
/// single-pass validation keeps the all-or-nothing contract even when
/// the bad value sits past several valid chunks.
#[test]
fn try_push_batch_all_or_nothing_across_chunks() {
    let config = SwatConfig::with_coefficients(256, 8).unwrap();
    let mut tree = SwatTree::new(config);
    tree.push_batch(&vec![1.5; 256]);
    let before = tree.answers_digest();
    let mut vals = vec![2.5; 1400];
    vals[1337] = f64::NAN;
    let err = tree.try_push_batch(&vals).unwrap_err();
    assert_eq!(
        format!("{err}"),
        format!(
            "{}",
            swat_tree::TreeError::NonFinite {
                position: 256 + 1337
            }
        )
    );
    assert_eq!(
        tree.answers_digest(),
        before,
        "failed batch must not mutate"
    );
    // And the happy path afterwards still works.
    vals[1337] = 2.5;
    tree.try_push_batch(&vals).unwrap();
}
