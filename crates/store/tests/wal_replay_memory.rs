//! Regression test for unbounded recovery memory (ISSUE 10 satellite):
//! PR 4's recovery read each WAL generation wholesale with `fs::read`,
//! so a store that ran for a long time between checkpoints made recovery
//! allocate the entire log at once. Recovery now streams the body in
//! fixed-size chunks straight into the set (one snapshot is written at
//! the end), so its peak heap usage is bounded by the chunk size and the
//! snapshot, not the log.
//!
//! The test synthesizes a multi-megabyte single-generation WAL, recovers
//! it under a counting global allocator, and asserts the recovery-time
//! peak stays a small fraction of the log size (while still verifying
//! the recovered digest is bit-identical to the uncrashed twin).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use swat_store::wal::{encode_record, WalHeader};
use swat_store::{RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: u64 = 400_000;
const STREAMS: usize = 2;

fn row(i: u64) -> [f64; STREAMS] {
    [(i as f64 * 0.0173).sin() * 40.0, (i % 97) as f64]
}

fn scratch() -> PathBuf {
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("swat-replay-mem-{}", std::process::id()))
}

#[test]
fn recovery_memory_is_bounded_by_chunks_not_log_size() {
    let config = SwatConfig::with_coefficients(16, 2).unwrap();
    let dir = scratch();
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    // One giant generation, as a store that never froze would leave it —
    // written directly so building it doesn't inflate the measurement.
    let mut twin = StreamSet::new(config, STREAMS);
    let mut wal = WalHeader::describe(&config, STREAMS, 0).encode();
    wal.reserve(ROWS as usize * (4 + 8 * STREAMS));
    for i in 0..ROWS {
        let r = row(i);
        encode_record(&mut wal, 0, &r);
        twin.push_row(&r);
    }
    let wal_len = wal.len();
    fs::write(dir.join("wal-00000000000000000000.wal"), &wal).unwrap();
    drop(wal);

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let (recovered, report) = RecoveryManager::recover_with(
        &dir,
        StoreOptions {
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        },
    )
    .unwrap();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);

    assert_eq!(report.recovered_arrivals, ROWS);
    assert_eq!(report.wal_rows_replayed, ROWS);
    assert_eq!(recovered.answers_digest(), twin.answers_digest());
    drop(recovered);

    // The log is ~8 MB; bounded replay must stay well under it. The
    // budget leaves room for the recovered trees themselves plus their
    // snapshot, but a whole-log read would blow it.
    assert!(
        peak < wal_len / 2,
        "recovery peak {peak} bytes vs log {wal_len} bytes — replay is not bounded"
    );
    let _ = fs::remove_dir_all(&dir);
}
