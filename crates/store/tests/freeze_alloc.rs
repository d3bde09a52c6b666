//! Regression test for the freeze stall (ISSUE 17 satellite, re-pinned
//! by ISSUE 24): `freeze` used to copy the frozen generation on the
//! ingest thread (32 MB at 1024 streams, every page faulting in), then
//! moved it; now no generation buffer exists at all — `freeze` encodes
//! the live set's snapshot into a buffer the flusher handed back. Once
//! one freeze has warmed that buffer up, the `push_row` that freezes
//! allocates two paths and a WAL header: O(1) bytes, not a snapshot's
//! worth and never `freeze_rows × streams × 8`.
//!
//! Counted with a global allocator that only books allocations made by
//! the thread under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use swat_store::{DurableStore, StoreOptions};
use swat_tree::SwatConfig;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are being booked. Const
    /// initialized and without a destructor, so reading it never
    /// allocates — which the allocator itself could not survive.
    static BOOKED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc(size: usize) {
    if BOOKED.try_with(Cell::get).unwrap_or(false) {
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one required here; the bookkeeping beside it
// touches an atomic and a const thread-local only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const STREAMS: usize = 256;
const FREEZE_ROWS: u64 = 1024;
/// What two paths, a 49-byte WAL header and a channel node may cost.
const FREEZE_BUDGET: usize = 1024;

fn scratch() -> PathBuf {
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("swat-freeze-alloc-{}", std::process::id()))
}

#[test]
fn the_freezing_push_allocates_a_constant_after_one_warm_up_freeze() {
    let dir = scratch();
    let _ = fs::remove_dir_all(&dir);
    let mut store = DurableStore::create_with(
        &dir,
        SwatConfig::with_coefficients(64, 4).unwrap(),
        STREAMS,
        StoreOptions {
            freeze_rows: FREEZE_ROWS,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let row = |t: u64| -> Vec<f64> {
        (0..STREAMS)
            .map(|s| ((t as usize * 31 + s * 7) % 101) as f64 - 50.0)
            .collect()
    };
    let mut snapshot_bytes = 0;
    // The first freeze of a store allocates its snapshot buffer; the
    // window (64) is long full by then, so every later snapshot is the
    // same size and the buffer that comes back fits it.
    for generation in 0..4u64 {
        for i in 0..FREEZE_ROWS - 1 {
            store.push_row(&row(generation * FREEZE_ROWS + i)).unwrap();
        }
        assert_eq!(store.rows_since_freeze(), FREEZE_ROWS - 1);
        // The flusher is done with the previous snapshot (it has had a
        // thousand pushes to write 300 KB), so its buffer is back.
        while store.status().covered_t < generation * FREEZE_ROWS {
            std::thread::yield_now();
        }
        let last = row((generation + 1) * FREEZE_ROWS - 1);
        BYTES.store(0, Ordering::Relaxed);
        BOOKED.with(|b| b.set(true));
        store.push_row(&last).unwrap();
        BOOKED.with(|b| b.set(false));
        let booked = BYTES.load(Ordering::Relaxed);
        assert_eq!(store.rows_since_freeze(), 0, "that push froze");
        if generation == 0 {
            snapshot_bytes = store.set().snapshot().len();
            assert!(snapshot_bytes > 64 * FREEZE_BUDGET, "{snapshot_bytes}");
            assert!(
                booked < 2 * snapshot_bytes,
                "the warm-up freeze allocated {booked} bytes; a snapshot is {snapshot_bytes}"
            );
        } else {
            assert!(
                booked < FREEZE_BUDGET,
                "generation {generation}: the freezing push_row allocated {booked} bytes \
                 on the ingest thread; a snapshot is {snapshot_bytes}"
            );
        }
    }
    store.checkpoint().unwrap();
    assert_eq!(store.status().covered_t, 4 * FREEZE_ROWS);
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}
