//! A standby's `Replicate` path allocates nothing once warm: the row is
//! checked in place, copied into a tile buffer reserved once at
//! `STANDBY_TILE` rows, acked with an empty `failed_shards`, and every
//! 64th row applies the tile through the blocked cascade, whose scratch
//! is the thread's. (It used to re-wrap each row in a synthetic
//! `Request::Ingest`: one row-sized copy per call.)
//!
//! Counted with a global allocator that only books allocations made by
//! the thread under test, as in `ingest_alloc.rs` and `freeze_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use swat_daemon::replica::STANDBY_TILE;
use swat_daemon::{ClusterNode, Request, Response};
use swat_tree::SwatConfig;

struct CountingAlloc;

static COUNT: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are being booked. Const
    /// initialized and without a destructor, so reading it never
    /// allocates — which the allocator itself could not survive.
    static BOOKED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc(size: usize) {
    if BOOKED.try_with(Cell::get).unwrap_or(false) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one required here; the bookkeeping beside it
// touches atomics and a const thread-local only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
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

const STREAMS: usize = 512;
const SHARDS: usize = 2;
/// Warm-up rows: the window is full many times over and 17 tiles have
/// been applied. The applied-id set doubles like any `HashSet`; 1 088
/// warm-up ids put the 640 measured ones (1 088..1 728) between two of
/// its doublings (past 896 ids and past 1 792). Both counts are whole
/// tiles, so the measured rows apply exactly ten.
const WARM: u64 = 17 * STANDBY_TILE as u64;
const MEASURED: u64 = 10 * STANDBY_TILE as u64;

fn replicate(req_id: u64, width: usize) -> Request {
    Request::Replicate {
        term: 0,
        shard: 1,
        epoch: 0,
        req_id,
        row: (0..width)
            .map(|i| ((req_id as usize * 31 + i * 7) % 101) as f64 - 50.0)
            .collect(),
    }
}

#[test]
fn a_warm_standby_replicates_without_allocating() {
    let config = SwatConfig::with_coefficients(64, 4).expect("static config");
    // Node 1 of a two-shard ring: primary of shard 0, standby of shard 1.
    let mut node = ClusterNode::replica(1, config, STREAMS, SHARDS, 2, true);
    let width = node.shard_members_of(1).len();
    for r in 0..WARM {
        let resp = node.handle(&replicate(r, width));
        assert!(matches!(resp, Response::IngestOk { .. }), "{resp:?}");
    }
    // Built before the count starts: a request is the caller's.
    let reqs: Vec<Request> = (WARM..WARM + MEASURED)
        .map(|r| replicate(r, width))
        .collect();
    let mut acks = 0;
    BOOKED.with(|b| b.set(true));
    for req in &reqs {
        acks += u64::from(matches!(
            node.handle(req),
            Response::IngestOk {
                duplicate: false,
                ..
            }
        ));
    }
    BOOKED.with(|b| b.set(false));
    let (count, bytes) = (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    assert_eq!(acks, MEASURED);
    assert_eq!(
        (count, bytes),
        (0, 0),
        "{MEASURED} replicated rows (ten tiles applied) allocated {count} times, {bytes} bytes"
    );
}
