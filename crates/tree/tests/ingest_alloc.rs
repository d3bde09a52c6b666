//! Steady-state ingestion performs **zero heap allocations**, batched or
//! row at a time, and a set-wide point query allocates its result and
//! nothing else.
//!
//! The blocked ingest path keeps all per-chunk state in reusable
//! buffers: the SoA level lanes and precompiled merge plans live in
//! [`IngestScratch`]. Both paths fill a level slot by overwriting the
//! generation it evicts, inside the coefficient storage that generation
//! already owns (inline stores for `k <= 4` never touch the heap at
//! all), so there is no pool to warm: once every slot of a tree is
//! populated, nothing allocates — for small budgets *and* for
//! heap-backed `k = 16`.
//!
//! Mirrors `query_alloc.rs`: a counting global allocator wrapping
//! `System`, in a dedicated single-test integration binary so no
//! concurrent test perturbs the counter. Only allocations made by the
//! test thread itself are counted: the libtest harness thread wakes at
//! timing-dependent moments and allocates a handful of bookkeeping
//! objects, which on a single-core machine can land mid-measurement.
//! The flag is a const-initialised `Cell<bool>` TLS slot, so reading it
//! inside the allocator neither allocates nor registers a destructor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use swat_tree::{IngestScratch, QueryOptions, StreamSet, SwatConfig, SwatTree};

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
fn steady_state_batched_ingest_does_not_allocate() {
    MEASURED_THREAD.with(|t| t.set(true));
    let n = 4096;
    let batch: Vec<f64> = (0..1024).map(|i| ((i * 37) % 211) as f64 - 100.0).collect();
    for k in [1usize, 2, 3, 8] {
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(n, k).unwrap());
        let mut scratch = IngestScratch::new();

        // Warm-up: fill the window twice so every level slab is
        // populated and evicting (every slot owns its coefficient
        // storage) and the lanes/plans reach their high-water mark.
        for _ in 0..(2 * n / batch.len()).max(2) {
            tree.push_batch_with_scratch(&batch, &mut scratch);
        }

        let before = allocations();
        for _ in 0..16 {
            tree.push_batch_with_scratch(&batch, &mut scratch);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state batched ingest allocated {delta} times (k = {k})"
        );

        // The scalar head/tail path refreshes the same slots in place:
        // unaligned pushes after warm-up stay allocation-free too.
        let before = allocations();
        for i in 0..257 {
            tree.push((i % 97) as f64);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state scalar pushes allocated {delta} times (k = {k})"
        );
    }

    // The row-at-a-time path every networked caller uses: one value per
    // stream per call. Warm-up is what populates the slots (2N arrivals);
    // after it there is no allocator traffic at all, whatever the budget.
    let n = 256;
    let streams = 64;
    for k in [1usize, 3, 4, 8, 16] {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(n, k).unwrap(), streams);
        let mut row = vec![0.0; streams];
        let fill = |row: &mut [f64], i: usize| {
            for (s, v) in row.iter_mut().enumerate() {
                *v = ((i * 31 + s * 7) % 193) as f64 - 96.0;
            }
        };
        for i in 0..2 * n {
            fill(&mut row, i);
            set.push_row(&row);
        }
        assert!((0..streams).all(|s| set.tree(s).is_warm()));

        let before = allocations();
        for i in 0..3 * n + 1 {
            fill(&mut row, i);
            set.push_row(&row);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "steady-state push_row allocated {delta} times (k = {k})"
        );

        // A set-wide point query returns one answer vector per stream and
        // a vector of those: exactly that many allocations per call, each
        // sized once. The serving map lives in the thread's scratch and
        // every (steady, equally old) stream shares it, so nothing else
        // allocates after the first call.
        let indices = [0usize, 3, 17, n - 1];
        let opts = QueryOptions::default();
        set.point_many(&indices, opts, 1).unwrap();
        let before = allocations();
        let answers = set.point_many(&indices, opts, 1).unwrap();
        let delta = allocations() - before;
        assert_eq!(
            delta,
            streams as u64 + 1,
            "set-wide point_many allocated {delta} times (k = {k})"
        );
        assert!(answers.iter().all(|a| a.len() == indices.len()));
    }
}
