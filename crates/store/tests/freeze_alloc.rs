//! Regression test for the freeze stall (ISSUE 17 satellite): `freeze`
//! used to copy the frozen generation on the ingest thread
//! (`tail[skip..].to_vec()` — 32 MB at 1024 streams, and on its first
//! run in a process every page of the copy faults in), which put one
//! `push_row` in 4096 within reach of the daemon client's I/O deadline.
//! The generation now changes hands by move, so the `push_row` that
//! triggers a freeze allocates about what any other does.
//!
//! Counted with a global allocator that only books allocations made by
//! the thread under test: the flusher allocates a segment's worth beside
//! it, by design.

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
const GENERATION_BYTES: usize = STREAMS * FREEZE_ROWS as usize * 8;

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
fn the_freezing_push_moves_the_generation_instead_of_copying_it() {
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
    // The first generation of a process (no spare buffer yet) and two
    // more (a recycled one may be waiting): none may copy.
    for generation in 0..3u64 {
        for i in 0..FREEZE_ROWS - 1 {
            store.push_row(&row(generation * FREEZE_ROWS + i)).unwrap();
        }
        assert_eq!(store.rows_since_freeze(), FREEZE_ROWS - 1);
        let last = row((generation + 1) * FREEZE_ROWS - 1);
        BYTES.store(0, Ordering::Relaxed);
        BOOKED.with(|b| b.set(true));
        store.push_row(&last).unwrap();
        BOOKED.with(|b| b.set(false));
        let booked = BYTES.load(Ordering::Relaxed);
        assert_eq!(store.rows_since_freeze(), 0, "that push froze");
        assert!(
            booked < GENERATION_BYTES / 4,
            "generation {generation}: the freezing push_row allocated {booked} bytes \
             on the ingest thread; a generation is {GENERATION_BYTES}"
        );
    }
    store.checkpoint().unwrap();
    assert_eq!(store.status().covered_t, 3 * FREEZE_ROWS);
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}
