//! What a long-running store may hold (ISSUE 24 satellites 1 and 3a):
//! disk, heap and descriptors are bounded by the snapshot and the freeze
//! interval, not by how long the store has run.
//!
//! * **Disk:** two snapshot segments, the WAL generations from the older
//!   one's clock on, two manifests — not a segment per freeze for ever.
//! * **Heap:** the set, at most two snapshot buffers (one pending, one in
//!   the flusher's hands) and the WAL write buffer — no generation
//!   buffer of `freeze_rows × streams × 8` bytes anywhere.
//! * **Descriptors:** a sealed WAL handle is closed as soon as a
//!   committed snapshot covers it; a daemon that never calls `sync()`
//!   used to leak one per freeze.
//!
//! The counters are process-wide (every thread's heap, every open file),
//! so the tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use swat_store::wal::record_len;
use swat_store::{DurableStore, RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one required here; the bookkeeping beside it
// touches two atomics only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

static TURN: Mutex<()> = Mutex::new(());

const STREAMS: usize = 128;
const FREEZE_ROWS: u64 = 512;
const GENERATIONS: u64 = 20;
/// The store's WAL write buffer (`WAL_FLUSH_BYTES`) can hold this plus
/// one record before it is handed to the kernel, and a `Vec` that grew
/// to it by doubling may have twice the capacity.
const WAL_BUFFER: usize = 2 * (64 * 1024 + 4 + 8 * STREAMS);

fn config() -> SwatConfig {
    SwatConfig::with_coefficients(64, 4).unwrap()
}

/// Removes its directory when dropped: on a failed assert too, so a
/// failing run leaves nothing behind in `/dev/shm`.
struct Removed(PathBuf);

impl Drop for Removed {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A fresh directory for test `name`, and the guard that removes it.
/// Bind the guard before the store, so the store is dropped first.
fn scratch(name: &str) -> (PathBuf, Removed) {
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("swat-bounds-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    (dir.clone(), Removed(dir))
}

fn fill(row: &mut [f64], t: u64) {
    for (s, v) in row.iter_mut().enumerate() {
        *v = ((t as usize * 31 + s * 7) % 101) as f64 - 50.0;
    }
}

fn opts(freeze_rows: u64) -> StoreOptions {
    StoreOptions {
        freeze_rows,
        retry_backoff: Duration::from_millis(1),
        ..StoreOptions::default()
    }
}

/// Wait until the last freeze's snapshot is committed.
fn settle(store: &DurableStore) {
    while store.status().covered_t < store.arrivals() - store.rows_since_freeze() {
        std::thread::yield_now();
    }
}

#[test]
fn disk_and_heap_are_bounded_by_two_snapshots_and_a_wal_tail() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let rows = GENERATIONS * FREEZE_ROWS;
    let mut row = vec![0.0; STREAMS];

    // What the same rows cost a bare set, and what its snapshot weighs.
    let before = LIVE.load(Ordering::Relaxed);
    let mut twin = StreamSet::new(config(), STREAMS);
    for t in 0..rows {
        fill(&mut row, t);
        twin.push_row(&row);
    }
    let set_bytes = LIVE.load(Ordering::Relaxed) - before;
    let snapshot_bytes = twin.snapshot().len();
    let digest = twin.answers_digest();
    drop(twin);
    let generation_bytes = FREEZE_ROWS as usize * STREAMS * 8;
    assert!(
        generation_bytes > 3 * snapshot_bytes,
        "the shape must tell a generation buffer ({generation_bytes}) from a snapshot ({snapshot_bytes})"
    );

    let (dir, _removed) = scratch("disk-heap");
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let mut store = DurableStore::create_with(&dir, config(), STREAMS, opts(FREEZE_ROWS)).unwrap();
    for t in 0..rows {
        fill(&mut row, t);
        store.push_row(&row).unwrap();
    }
    store.checkpoint().unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert_eq!(store.answers_digest(), digest);

    // Heap: the set, two snapshot buffers, the WAL buffer; the slack is
    // for paths, manifests and the flusher's channel.
    let budget = set_bytes + 2 * snapshot_bytes + WAL_BUFFER + 64 * 1024;
    assert!(
        peak <= budget,
        "store peaked at {peak} B of heap; set {set_bytes} + 2 × snapshot {snapshot_bytes} \
         + WAL buffer {WAL_BUFFER} allows {budget}"
    );

    // Disk: two segments, at most three generations of WAL (the one
    // behind the older snapshot, the one behind the newer, the live
    // one), two manifests.
    let st = store.status();
    assert_eq!((st.covered_t, st.segments), (rows, 2), "{st:?}");
    let mut on_disk = 0;
    let mut names = Vec::new();
    for entry in fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        on_disk += entry.metadata().unwrap().len() as usize;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    let segment_bytes = snapshot_bytes + 64;
    let wal_bytes = 64 + FREEZE_ROWS as usize * record_len(STREAMS);
    let allowed = 2 * segment_bytes + 3 * wal_bytes + 2 * 512;
    assert!(
        on_disk <= allowed,
        "{on_disk} B on disk after {rows} rows, {allowed} allowed: {names:?}"
    );
    assert_eq!(
        names.iter().filter(|n| n.starts_with("seg-")).count(),
        2,
        "{names:?}"
    );
}

fn open_descriptors() -> usize {
    fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

#[test]
fn a_store_that_never_syncs_holds_a_constant_number_of_descriptors() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    if open_descriptors() == 0 {
        return; // no /proc: nothing to count with
    }
    let (dir, removed) = scratch("fds");
    let mut store = DurableStore::create_with(&dir, config(), 2, opts(8)).unwrap();
    let at_start = open_descriptors();
    let mut twin = StreamSet::new(config(), 2);
    let mut acked = (0, twin.answers_digest());
    for t in 0..400 * 8u64 {
        let row = [t as f64, (t % 13) as f64];
        store.push_row(&row).unwrap();
        twin.push_row(&row);
        // As a daemon's flusher does between freezes 4096 rows apart.
        settle(&store);
        if t + 1 == 200 * 8 + 3 {
            // One sync in the middle acks what it always did: every row
            // so far, sealed generations included.
            store.sync().unwrap();
            acked = (store.arrivals(), twin.answers_digest());
        }
        let open = open_descriptors();
        assert!(
            open <= at_start + 3,
            "{open} descriptors open after {} rows, {at_start} at start",
            t + 1
        );
    }
    assert_eq!(store.status().flushes, 400);
    drop(store);
    drop(removed);

    // The same run killed right after the sync: the ack holds.
    let (dir, _removed) = scratch("fds-ack");
    let mut store = DurableStore::create_with(&dir, config(), 2, opts(8)).unwrap();
    for t in 0..acked.0 {
        store.push_row(&[t as f64, (t % 13) as f64]).unwrap();
        settle(&store);
    }
    store.sync().unwrap();
    store.crash();
    let (recovered, report) = RecoveryManager::recover_with(&dir, opts(8)).unwrap();
    assert_eq!(report.recovered_arrivals, acked.0);
    assert_eq!(recovered.answers_digest(), acked.1);
}
