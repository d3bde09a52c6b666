//! A warm holding takes a row without allocating, primary or standby: the
//! row is checked in place, logged (a durable primary encodes its WAL
//! record into a buffer that long since reached its size, and a sole
//! holder writes it out), copied into a tile buffer reserved once at
//! `ROW_TILE` rows, acked with an empty `failed_shards`, and every 64th
//! row applies the tile through the blocked cascade, whose scratch is the
//! thread's. (A standby used to re-wrap each row in a synthetic
//! `Request::Ingest`: one row-sized copy per call.)
//!
//! Counted with a global allocator that only books allocations made by
//! the thread under test, as in `ingest_alloc.rs` and `freeze_alloc.rs`;
//! the tallies are per thread too, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use swat_daemon::{ClusterNode, Request, Response};
use swat_tree::{SwatConfig, ROW_TILE};

struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being booked, and what they
    /// came to. Const initialized and without destructors, so touching
    /// them never allocates — which the allocator itself could not
    /// survive.
    static BOOKED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    if BOOKED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + size));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one required here; the bookkeeping beside it
// touches const thread-locals only.
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
/// tiles, so the measured rows apply exactly ten. A durable store
/// freezes every 4 096 rows, so no freeze falls in the run.
const WARM: u64 = 17 * ROW_TILE as u64;
const MEASURED: u64 = 10 * ROW_TILE as u64;

fn row(req_id: u64, width: usize) -> Vec<f64> {
    (0..width)
        .map(|i| ((req_id as usize * 31 + i * 7) % 101) as f64 - 50.0)
        .collect()
}

fn config() -> SwatConfig {
    SwatConfig::with_coefficients(64, 4).expect("static config")
}

/// Warm `node` with `WARM` requests of `make`, then book `MEASURED` more
/// (built before the count starts: a request is the caller's); returns
/// `(fresh acks, allocations, bytes)`.
fn measure(node: &mut ClusterNode, make: impl Fn(u64) -> Request) -> (u64, usize, usize) {
    for r in 0..WARM {
        let resp = node.handle(&make(r));
        assert!(matches!(resp, Response::IngestOk { .. }), "{resp:?}");
    }
    let reqs: Vec<Request> = (WARM..WARM + MEASURED).map(make).collect();
    let mut acks = 0;
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
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
    (acks, COUNT.with(Cell::get), BYTES.with(Cell::get))
}

#[test]
fn a_warm_standby_replicates_without_allocating() {
    // Node 1 of a two-shard ring: primary of shard 0, standby of shard 1.
    let mut node = ClusterNode::replica(1, config(), STREAMS, SHARDS, 2, true);
    let width = node.shard_members_of(1).len();
    let replicate = |req_id| Request::Replicate {
        term: 0,
        shard: 1,
        epoch: 0,
        req_id,
        row: row(req_id, width),
    };
    let (acks, count, bytes) = measure(&mut node, replicate);
    assert_eq!(acks, MEASURED);
    assert_eq!(
        (count, bytes),
        (0, 0),
        "{MEASURED} replicated rows (ten tiles applied) allocated {count} times, {bytes} bytes"
    );
}

#[test]
fn a_warm_durable_primary_ingests_without_allocating() {
    // Node 2's durable home shard 1, with a ring standby configured and
    // as its shard's sole holder (which writes each row's record out).
    for standbys in [true, false] {
        let dir = std::env::temp_dir().join(format!(
            "swat-holding-alloc-{}-{standbys}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut node =
            ClusterNode::durable_replica(2, config(), STREAMS, SHARDS, 2, standbys, dir.clone())
                .expect("a fresh directory takes a store");
        let width = node.shard_members_of(1).len();
        let ingest = |req_id| Request::Fenced {
            term: 0,
            leader: 0,
            shard: 1,
            epoch: 0,
            inner: Box::new(Request::Ingest {
                req_id,
                row: row(req_id, width),
            }),
        };
        let (acks, count, bytes) = measure(&mut node, ingest);
        assert_eq!(acks, MEASURED);
        assert_eq!(
            (count, bytes),
            (0, 0),
            "standbys {standbys}: {MEASURED} fenced ingests (ten tiles applied) allocated \
             {count} times, {bytes} bytes"
        );
        drop(node);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
