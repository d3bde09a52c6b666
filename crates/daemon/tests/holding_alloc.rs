//! A warm holding takes a row without allocating, primary or standby: the
//! row is checked in place, logged (a durable primary encodes its WAL
//! record into a buffer that long since reached its size, and a sole
//! holder writes it out), copied into a tile buffer reserved once at
//! `ROW_TILE` rows, acked with an empty `failed_shards`, and every 64th
//! row applies the tile through the blocked cascade, whose scratch is the
//! thread's. (A standby used to re-wrap each row in a synthetic
//! `Request::Ingest`: one row-sized copy per call.)
//!
//! The connection around a holding copies nothing either: a frame is
//! checked and decoded where the socket's read left it, and the answer is
//! encoded straight into the write queue, so a warm connection allocates
//! only what the decoded request owns.
//!
//! Counted with a global allocator that only books allocations made by
//! the thread under test, as in `ingest_alloc.rs` and `freeze_alloc.rs`;
//! the tallies are per thread too, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use swat_daemon::{
    check_frame, decode_request, decode_response, ClusterNode, Request, Response, TcpTransport,
    Transport,
};
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

/// Fenced ingests of shard 1's sub-row, as a leader sends them.
fn fenced_ingest(req_id: u64, width: usize) -> Request {
    Request::Fenced {
        term: 0,
        leader: 0,
        shard: 1,
        epoch: 0,
        inner: Box::new(Request::Ingest {
            req_id,
            row: row(req_id, width),
        }),
    }
}

#[test]
fn a_warm_connection_receives_and_answers_in_place() {
    const BURST: u64 = 8;
    let width = STREAMS / SHARDS;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let deadline = Duration::from_secs(30);
    let mut leader = TcpTransport::new(stream, deadline, deadline).unwrap();
    let mut holder = TcpTransport::new(listener.accept().unwrap().0, deadline, deadline).unwrap();
    // The leader's side is another thread, so none of it is booked: it
    // sends bursts of frames and reads their answers before the next.
    let sender = std::thread::spawn(move || {
        for first in (0..WARM + MEASURED).step_by(BURST as usize) {
            for req_id in first..first + BURST {
                leader.queue_request(&fenced_ingest(req_id, width));
            }
            leader.flush().unwrap();
            for req_id in first..first + BURST {
                let frame = leader.recv_frame().unwrap();
                let answer = decode_response(check_frame(frame).unwrap()).unwrap();
                assert!(matches!(answer, Response::IngestOk { req_id: r, .. } if r == req_id));
            }
        }
    });
    // One request the way `serve_connection` takes it: received, checked
    // and decoded in place, answered into the queue, flushed once no
    // further frame is buffered. Returns what was decoded.
    fn serve(holder: &mut TcpTransport) -> Request {
        let req = decode_request(check_frame(holder.recv_frame().unwrap()).unwrap()).unwrap();
        let Request::Fenced { ref inner, .. } = req else {
            panic!("{req:?}");
        };
        let Request::Ingest { req_id, .. } = **inner else {
            panic!("{inner:?}");
        };
        holder.queue_response(&Response::IngestOk {
            req_id,
            duplicate: false,
            failed_shards: Vec::new(),
        });
        if !holder.frame_buffered() {
            holder.flush().unwrap();
        }
        req
    }
    for _ in 0..WARM {
        serve(&mut holder);
    }
    COUNT.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    BOOKED.with(|b| b.set(true));
    for _ in 0..MEASURED {
        // Dropped at once: only its allocation is the request's.
        serve(&mut holder);
    }
    BOOKED.with(|b| b.set(false));
    let (count, bytes) = (COUNT.with(Cell::get), BYTES.with(Cell::get));
    sender.join().unwrap();
    // Per frame, the decoded request owns exactly two heap blocks: the
    // box of the fenced inner request (one `Request`) and the row (`width`
    // values). The frame itself is lent from the read buffer allocated at
    // connect, its header and CRC are checked in place, and the answer
    // is encoded into a write queue that reached its size during warm-up:
    // none of that allocates.
    let per_frame = std::mem::size_of::<Request>() + width * std::mem::size_of::<f64>();
    assert_eq!(
        (count, bytes),
        (2 * MEASURED as usize, MEASURED as usize * per_frame),
        "{MEASURED} fenced ingests received and answered"
    );
}
