//! Steady-state query serving performs **zero heap allocations**.
//!
//! A counting global allocator wraps `System`; after warming the tree,
//! the scratch, and the output buffers, a block of mixed queries (point,
//! inner product, range, and window reconstruction) must not allocate at
//! all — on a lone tree, and on one
//! stream of a set through its view. This is a dedicated
//! single-test integration binary so no concurrent test can perturb the
//! counter. Only allocations made by the test thread itself are
//! counted: the libtest harness thread wakes at timing-dependent
//! moments and allocates a handful of bookkeeping objects, which on a
//! single-core machine can land mid-measurement. The flag is a
//! const-initialised `Cell<bool>` TLS slot, so reading it inside the
//! allocator neither allocates nor registers a destructor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use swat_tree::{
    InnerProductQuery, QueryOptions, QueryScratch, RangeQuery, StreamSet, SwatConfig, SwatTree,
};

thread_local! {
    static MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if MEASURED_THREAD.with(|t| t.get()) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_query_serving_does_not_allocate() {
    MEASURED_THREAD.with(|t| t.set(true));
    let n = 256;
    for k in [1usize, 4, 16] {
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(n, k).unwrap());
        tree.extend((0..3 * n).map(|i| ((i * 31) % 101) as f64 - 50.0));
        assert!(tree.is_warm());

        let mut scratch = QueryScratch::new();
        let point_indices: Vec<usize> = (0..n).step_by(3).collect();
        let queries = [
            InnerProductQuery::exponential(n, 1e9),
            InnerProductQuery::exponential_at(7, n / 2, 1e9),
            InnerProductQuery::linear(n / 2, 1e9),
            InnerProductQuery::linear_at(3, n / 2, 1e9),
            InnerProductQuery::new(vec![0, 9, 100, 200], vec![1.0, -2.0, 0.5, 3.0], 1e9).unwrap(),
        ];
        let range = RangeQuery {
            center: 0.0,
            radius: 30.0,
            newest: 0,
            oldest: n - 1,
        };
        let opts = QueryOptions::default();

        let mut matches = Vec::new();
        let mut window = Vec::new();

        let serve = |scratch: &mut QueryScratch, matches: &mut Vec<_>, window: &mut Vec<f64>| {
            for &idx in &point_indices {
                tree.point_with_scratch(idx, opts, scratch).unwrap();
            }
            for q in &queries {
                tree.inner_product_with_scratch(q, opts, scratch).unwrap();
            }
            tree.range_query_with_scratch(&range, opts, scratch, matches)
                .unwrap();
            tree.reconstruct_window_into(scratch, window).unwrap();
        };

        // Warm-up: buffers (scratch and outputs) grow
        // to the workload's high-water mark.
        serve(&mut scratch, &mut matches, &mut window);
        serve(&mut scratch, &mut matches, &mut window);

        let before = allocations();
        for _ in 0..16 {
            serve(&mut scratch, &mut matches, &mut window);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state serving allocated {delta} times (k = {k})"
        );
    }

    // One stream of a set, through its view: the lane is read where its
    // block stores it, at budgets whose summaries would live on the heap
    // as owned values — nothing is materialized.
    let streams = 37;
    for k in [5usize, 8, 16] {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(n, k).unwrap(), streams);
        for i in 0..3 * n {
            let row: Vec<f64> = (0..streams)
                .map(|s| ((i * 31 + s * 17) % 101) as f64 - 50.0)
                .collect();
            set.push_row(&row);
        }
        let opts = QueryOptions::default();
        let query = InnerProductQuery::exponential(n / 2, 1e9);
        let range = RangeQuery::new(0.0, 30.0, 3, n - 1);
        let mut scratch = QueryScratch::new();
        let mut matches = Vec::new();
        let serve = |scratch: &mut QueryScratch, matches: &mut Vec<_>| {
            for s in [0, 15, 16, 36] {
                let tree = set.tree(s);
                for idx in [0, 1, 17, n - 1] {
                    tree.point_with(idx, opts).unwrap();
                }
                tree.inner_product_with(&query, opts).unwrap();
                tree.range_query_with_scratch(&range, opts, scratch, matches)
                    .unwrap();
            }
        };
        serve(&mut scratch, &mut matches);
        let before = allocations();
        for _ in 0..16 {
            serve(&mut scratch, &mut matches);
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "view queries allocated {delta} times (k = {k})");
    }
}
