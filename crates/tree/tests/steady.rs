//! The slot order of a level lives in the tree header, and a warm tree's
//! cover geometry is a function of its clock: two claims every ingest
//! path has to keep, checked here after **every** step of arbitrary
//! schedules of `push_row`, `extend_batched`, `extend_rows` and
//! `snapshot → restore`, from cold sets and from `from_window` trees.
//!
//! * Queue order: iterating a tree (`nodes()`: levels ascending,
//!   `R → S → L`) yields the nodes of the frozen reference
//!   (`swat_tree::ingest::reference`, fed value by value) in the same
//!   order with the same bits, whatever the physical slots hold.
//! * Steadiness: `is_steady()` implies that the summary at `(level,
//!   queue index j)` was created at `((t >> level) − j) << level`, node
//!   for node and with every slot populated — and for trees none of whose
//!   states was built by hand, steady is exactly warm.

use proptest::prelude::*;
use swat_tree::ingest::reference;
use swat_tree::{NodePos, StreamSet, SwatConfig, SwatTree, TreeView};

/// The geometry `is_steady` promises, spelled out node by node.
fn assert_canonical(tree: TreeView, ctx: &str) {
    let t = tree.arrivals();
    let levels = tree.config().levels();
    assert_eq!(
        tree.summary_count(),
        3 * levels - 2,
        "{ctx}: a slot is empty"
    );
    for l in 0..levels {
        let generations = if l + 1 == levels { 1 } else { 3 };
        for (j, pos) in NodePos::ORDER.into_iter().enumerate() {
            match tree.node(l, pos) {
                Some(s) => {
                    assert!(j < generations, "{ctx}: level {l} retains too many");
                    assert_eq!(
                        s.created_at(),
                        ((t >> l) - j as u64) << l,
                        "{ctx}: level {l} {}",
                        pos.name()
                    );
                }
                None => assert!(j >= generations, "{ctx}: level {l} {} missing", pos.name()),
            }
        }
    }
}

/// Same nodes, same queue order, same bits as the frozen reference.
fn assert_same_queue_order(live: TreeView, frozen: &reference::Tree, ctx: &str) {
    let a: Vec<_> = live.nodes().collect();
    let b: Vec<_> = frozen.nodes().collect();
    assert_eq!(a.len(), b.len(), "{ctx}: summary count");
    for ((la, pa, sa), (lb, pb, sb)) in a.iter().zip(&b) {
        assert_eq!((la, pa), (lb, pb), "{ctx}: node order");
        assert_eq!(sa, *sb, "{ctx}: level {la} {}", pa.name());
    }
    assert_eq!(
        live.answers_digest(),
        frozen.to_tree().answers_digest(),
        "{ctx}"
    );
}

#[derive(Debug, Clone)]
enum Step {
    /// `push_row`, this many times.
    Rows(usize),
    /// One `extend_batched` of this many values per stream.
    Columns(usize),
    /// One `extend_rows` block of this many rows.
    Block(usize),
    Restore,
}

fn steps(window: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (1usize..6).prop_map(Step::Rows),
            (1..2 * window).prop_map(Step::Columns),
            (1..2 * window).prop_map(Step::Block),
            Just(Step::Restore),
        ],
        1..12,
    )
}

const STREAMS: usize = 2;

/// The next `count` values of one deterministic, sign-changing stream.
fn values(next: &mut usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|_| {
            *next += 1;
            ((*next * 2_654_435_761) % 10_007) as f64 * 0.037 - 180.0
        })
        .collect()
}

fn run_schedule(mut live: StreamSet, schedule: &[Step], ctx: &str) {
    let mut frozen: Vec<_> = (0..STREAMS)
        .map(|s| reference::Tree::of(live.tree(s)))
        .collect();
    let mut next = 0usize;
    let mut rows = |count: usize| values(&mut next, count * STREAMS);
    for (i, step) in schedule.iter().enumerate() {
        let block = match *step {
            Step::Rows(n) => {
                let block = rows(n);
                for row in block.chunks_exact(STREAMS) {
                    live.push_row(row);
                }
                block
            }
            Step::Columns(n) => {
                let block = rows(n);
                let columns: Vec<Vec<f64>> = (0..STREAMS)
                    .map(|s| block.chunks_exact(STREAMS).map(|row| row[s]).collect())
                    .collect();
                live.extend_batched(&columns, 1);
                block
            }
            Step::Block(n) => {
                let block = rows(n);
                live.extend_rows(&block);
                block
            }
            Step::Restore => {
                live = StreamSet::restore(&live.snapshot()).unwrap();
                Vec::new()
            }
        };
        for row in block.chunks_exact(STREAMS) {
            for (tree, &v) in frozen.iter_mut().zip(row) {
                reference::push(tree, v);
            }
        }
        for (s, reference) in frozen.iter().enumerate() {
            let ctx = format!("{ctx} stream {s} after step {i} {step:?}");
            let tree = live.tree(s);
            assert_same_queue_order(tree, reference, &ctx);
            assert_eq!(tree.is_steady(), tree.is_warm(), "{ctx}: steady");
            if tree.is_steady() {
                assert_canonical(tree, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn steady_means_canonical_from_cold(
        (log_n, k, schedule) in (2u32..=6).prop_flat_map(|log_n| {
            (
                Just(log_n),
                prop_oneof![Just(1usize), Just(3), Just(4), Just(8)],
                steps(1usize << log_n),
            )
        })
    ) {
        let config = SwatConfig::with_coefficients(1usize << log_n, k).unwrap();
        run_schedule(
            StreamSet::new(config, STREAMS),
            &schedule,
            &format!("cold n={} k={k}", config.window()),
        );
    }

    /// A `from_window` tree is steady at once, and stays so.
    #[test]
    fn steady_means_canonical_from_window(
        (log_n, k, schedule) in (2u32..=6).prop_flat_map(|log_n| {
            (
                Just(log_n),
                prop_oneof![Just(1usize), Just(3), Just(4), Just(8)],
                steps(1usize << log_n),
            )
        })
    ) {
        let n = 1usize << log_n;
        let config = SwatConfig::with_coefficients(n, k).unwrap();
        let window: Vec<f64> = (0..n).map(|i| ((i * 13) % 41) as f64).collect();
        let tree = SwatTree::from_window(config, &window).unwrap();
        prop_assert!(tree.is_steady());
        assert_canonical(tree.view(), "fresh from_window");
        run_schedule_tree(tree, &schedule, &format!("from_window n={n} k={k}"));
    }
}

/// [`run_schedule`] for one bare tree (`from_window` builds trees, not
/// sets): `Rows` is `push`, `Columns` and `Block` are `push_batch`,
/// `Restore` is the tree's own snapshot.
fn run_schedule_tree(mut live: SwatTree, schedule: &[Step], ctx: &str) {
    let mut frozen = reference::Tree::of(&live);
    let mut next = 0usize;
    for (i, step) in schedule.iter().enumerate() {
        let len = match *step {
            Step::Rows(n) | Step::Columns(n) | Step::Block(n) => n,
            Step::Restore => 0,
        };
        let vals = values(&mut next, len);
        match *step {
            Step::Rows(_) => vals.iter().for_each(|&v| live.push(v)),
            Step::Columns(_) | Step::Block(_) => live.push_batch(&vals),
            Step::Restore => live = SwatTree::restore(&live.snapshot()).unwrap(),
        }
        reference::push_batch(&mut frozen, &vals);
        let ctx = format!("{ctx} after step {i} {step:?}");
        assert_same_queue_order(live.view(), &frozen, &ctx);
        assert!(live.is_steady(), "{ctx}: a from_window tree stays steady");
        assert_canonical(live.view(), &ctx);
    }
}
