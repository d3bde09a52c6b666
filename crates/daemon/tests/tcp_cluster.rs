//! The real-TCP cluster integration tests.
//!
//! 1. A 4-node legacy deployment (static leader + 3 replicas) serving
//!    ingest, point, range, and distributed top-k — with one replica
//!    **killed mid-run**.
//! 2. A 3-node failover cluster (full peer list, standbys armed) whose
//!    **leader** is killed mid-run: a survivor must claim a higher
//!    term, promote standbys, and keep answering — through the real
//!    monitor threads and the real `FailoverClient` redirect path.
//!
//! 3. The same ring at three shards under the coalesced fan-out (one
//!    write and one read per peer per round): 2 000 rows with interleaved
//!    queries, a **replica** killed mid-run.
//! 4. The connection worker itself, over raw sockets: requests that
//!    arrive in one segment, a pause inside a frame, a violation behind
//!    a valid request.
//!
//! The acceptance bar: zero wrong answers. Degraded answers (explicit
//! `failed_shards`, `Unavailable`, `complete: false`) are fine; silent
//! loss is not.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use swat_daemon::{
    bind, check_frame, decode_response, encode_request, spawn, spawn_on, DaemonClient,
    DaemonConfig, FailoverClient, Request, Response, Role, ServerHandle, TcpTransport, Transport,
    TransportError,
};
use swat_replication::RetryPolicy;
use swat_store::RecoveryManager;
use swat_tree::{shard_members, shard_of, QueryOptions, ShardedStreamSet, SwatConfig};

const STREAMS: usize = 10;
const SHARDS: usize = 3;

fn cfg() -> SwatConfig {
    SwatConfig::with_coefficients(16, 4).expect("static config")
}

fn row(r: u64) -> Vec<f64> {
    (0..STREAMS)
        .map(|i| ((r as usize * 13 + i * 5) % 29) as f64 - 14.0)
        .collect()
}

/// Spawn `SHARDS` replicas (shard `i` durable under `dirs[i]` when
/// given) and a leader wired to them.
fn spawn_cluster(dirs: &[Option<PathBuf>]) -> (ServerHandle, Vec<ServerHandle>) {
    let mut replicas = Vec::new();
    let mut addrs = Vec::new();
    for (shard, dir) in dirs.iter().enumerate() {
        let mut rc = DaemonConfig::localhost(Role::Replica { shard }, cfg(), STREAMS, SHARDS);
        rc.dir = dir.clone();
        let handle = spawn(rc).expect("replica binds");
        addrs.push(handle.addr());
        replicas.push(handle);
    }
    let mut lc = DaemonConfig::localhost(Role::Leader { replicas: addrs }, cfg(), STREAMS, SHARDS);
    // Fast failure detection so the killed-replica phase settles within
    // the test budget.
    lc.io_timeout = Duration::from_millis(200);
    lc.hb_period = Duration::from_millis(50);
    lc.miss_threshold = 2;
    let leader = spawn(lc).expect("leader binds");
    (leader, replicas)
}

#[test]
fn four_node_cluster_survives_a_killed_replica_and_drains_cleanly() {
    let base = std::env::temp_dir().join(format!("swatd-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    // Shard 0's replica is durable (it survives and must checkpoint);
    // the others are in-memory.
    let durable_dir = base.join("replica-0");
    std::fs::create_dir_all(&durable_dir).expect("mkdir");
    let dirs = vec![Some(durable_dir.clone()), None, None];
    let (leader, mut replicas) = spawn_cluster(&dirs);
    let mut client =
        DaemonClient::connect(leader.addr(), Duration::from_secs(2)).expect("client connects");

    // ---- Phase 1: healthy cluster, answers pinned to the oracle. ----
    let mut oracle = ShardedStreamSet::new(cfg(), STREAMS, SHARDS);
    for r in 0..24u64 {
        let resp = client.ingest(r, row(r)).expect("ingest call");
        assert_eq!(
            resp,
            Response::IngestOk {
                req_id: r,
                duplicate: false,
                failed_shards: vec![],
            }
        );
        oracle.push_row(&row(r));
    }
    // A retried write id is absorbed, not re-applied.
    let resp = client.ingest(5, row(5)).expect("dup ingest");
    assert_eq!(
        resp,
        Response::IngestOk {
            req_id: 5,
            duplicate: true,
            failed_shards: vec![],
        }
    );
    for stream in 0..STREAMS as u64 {
        let want = oracle
            .tree(stream as usize)
            .point_with(3, QueryOptions::default())
            .expect("in range");
        match client.point(stream, 3).expect("point call") {
            Response::PointR { answer } => {
                assert_eq!(answer.value.to_bits(), want.value.to_bits());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // Range against one stream: every match must carry the tree's own
    // approximate value (bit-exact) and the index set must agree.
    let tree = oracle.tree(2);
    let rq = swat_tree::RangeQuery::new(0.0, 10.0, 1, 12);
    let want_matches = tree.range_query(&rq).expect("valid range query");
    match client
        .call(&Request::Range {
            stream: 2,
            center: 0.0,
            radius: 10.0,
            newest: 1,
            oldest: 12,
        })
        .expect("range call")
    {
        Response::RangeR { matches } => {
            assert_eq!(matches.len(), want_matches.len());
            for (got, want) in matches.iter().zip(&want_matches) {
                assert_eq!(got.index as usize, want.index);
                assert_eq!(got.value.to_bits(), want.value.to_bits());
            }
        }
        other => panic!("unexpected {other:?}"),
    }
    // Distributed top-k, bit-identical to the in-process merge.
    let (want_topk, _) = oracle.global_top_k(5, 1);
    match client.top_k(5).expect("topk call") {
        Response::TopKR { complete, entries } => {
            assert!(complete);
            assert_eq!(entries, want_topk.entries().to_vec());
        }
        other => panic!("unexpected {other:?}"),
    }

    // ---- Phase 2: kill shard 1's replica mid-run. ----
    let killed_shard = 1usize;
    replicas.remove(killed_shard).kill();
    let mut saw_degraded = false;
    let mut applied: Vec<u64> = (0..24).collect();
    for r in 100..112u64 {
        match client.ingest(r, row(r)).expect("ingest after kill") {
            Response::IngestOk { failed_shards, .. } => {
                // Explicit degradation only: the one killed shard may
                // fail, nothing else may.
                assert!(
                    failed_shards.is_empty() || failed_shards == vec![killed_shard as u32],
                    "unexpected failed shards {failed_shards:?}"
                );
                if failed_shards == vec![killed_shard as u32] {
                    saw_degraded = true;
                }
                // Surviving shards applied the row: mirror that in the
                // oracle so later point checks stay exact.
                oracle.push_row(&row(r));
                applied.push(r);
            }
            Response::Overloaded => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        saw_degraded,
        "the killed shard must surface in failed_shards"
    );

    // Streams on surviving shards still answer, still exactly.
    let members0 = shard_members(STREAMS, SHARDS, 0);
    let surviving_stream = members0[0] as u64;
    let want = oracle
        .tree(surviving_stream as usize)
        .point_with(0, QueryOptions::default())
        .expect("in range");
    match client.point(surviving_stream, 0).expect("point call") {
        Response::PointR { answer } => {
            assert_eq!(answer.value.to_bits(), want.value.to_bits());
        }
        other => panic!("unexpected {other:?}"),
    }
    // Streams on the killed shard answer `Unavailable` — never silence,
    // never a stale number. (After heartbeats mark the node dead the
    // answer is immediate; before that it is the same after retries.)
    let dead_stream = (0..STREAMS as u64)
        .find(|&s| shard_of(s, SHARDS) == killed_shard)
        .expect("some stream lives on the killed shard");
    match client.point(dead_stream, 0).expect("point call") {
        Response::Unavailable { node } => assert_eq!(node, (killed_shard + 1) as u64),
        other => panic!("unexpected {other:?}"),
    }
    // Distributed top-k degrades explicitly: incomplete, and the
    // entries that are present are a subset computed without invented
    // values.
    match client.top_k(5).expect("topk call") {
        Response::TopKR { complete, .. } => assert!(!complete),
        other => panic!("unexpected {other:?}"),
    }

    // ---- Phase 3: graceful drain + verified durable checkpoint. ----
    match client.shutdown().expect("shutdown call") {
        Response::ShutdownOk { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    assert!(leader.stop_requested());
    let _ = leader.stop();
    let survivors: Vec<ServerHandle> = std::mem::take(&mut replicas);
    for (i, handle) in survivors.into_iter().enumerate() {
        let report = handle.stop();
        if i == 0 {
            assert!(report.checkpointed, "the durable replica must checkpoint");
        }
    }
    // The checkpoint is real: recovery reconstructs shard 0's state.
    let (store, _report) = RecoveryManager::recover(&durable_dir).expect("recovery");
    let mut want_set = swat_tree::StreamSet::new(cfg(), members0.len());
    for r in applied {
        let sub: Vec<f64> = members0.iter().map(|&g| row(r)[g]).collect();
        want_set.push_row(&sub);
    }
    assert_eq!(store.answers_digest(), want_set.answers_digest());
    let _ = std::fs::remove_dir_all(&base);
}

/// Spawn a full failover cluster: `shards + 1` nodes that each know the
/// whole peer list, with standbys armed and fast election timers.
fn spawn_failover_cluster(
    streams: usize,
    shards: usize,
) -> (Vec<Option<ServerHandle>>, Vec<SocketAddr>) {
    let nodes = shards + 1;
    let listeners: Vec<_> = (0..nodes)
        .map(|_| bind("127.0.0.1:0".parse().expect("static addr")).expect("binds"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound"))
        .collect();
    let mut handles = Vec::new();
    for (id, listener) in listeners.into_iter().enumerate() {
        let role = if id == 0 {
            Role::Leader {
                replicas: Vec::new(),
            }
        } else {
            Role::Replica { shard: id - 1 }
        };
        let mut nc = DaemonConfig::localhost(role, cfg(), streams, shards);
        nc.peers = addrs.clone();
        nc.standbys = true;
        nc.io_timeout = Duration::from_millis(200);
        nc.hb_period = Duration::from_millis(50);
        nc.miss_threshold = 2;
        nc.election_timeout = Duration::from_millis(250);
        handles.push(Some(spawn_on(listener, nc).expect("node comes up")));
    }
    (handles, addrs)
}

/// Retry `id`'s row through the failover client until it fully acks or
/// the deadline passes. Duplicate-safe req_ids make the retries
/// harmless; returns whether the row acked.
fn ingest_until_acked(
    client: &mut FailoverClient,
    id: u64,
    data: &[f64],
    deadline: Instant,
) -> bool {
    loop {
        if let Ok(Response::IngestOk { failed_shards, .. }) =
            client.ingest_acked(id, data.to_vec(), 2)
        {
            if failed_shards.is_empty() {
                return true;
            }
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn failover_cluster_survives_a_killed_leader_mid_run() {
    let (streams, shards) = (6usize, 2usize);
    let (mut handles, addrs) = spawn_failover_cluster(streams, shards);
    let mut client = FailoverClient::new(
        addrs.clone(),
        RetryPolicy {
            max_retries: 3,
            timeout: 30,
        },
        Duration::from_millis(500),
    );
    let row = |r: u64| -> Vec<f64> {
        (0..streams)
            .map(|i| ((r as usize * 11 + i * 3) % 23) as f64 - 11.0)
            .collect()
    };

    // ---- Phase 1: healthy cluster, every row fully acked. ----
    let mut oracle = ShardedStreamSet::new(cfg(), streams, shards);
    let warm_deadline = Instant::now() + Duration::from_secs(20);
    for r in 0..16u64 {
        assert!(
            ingest_until_acked(&mut client, r, &row(r), warm_deadline),
            "row {r} must ack on a healthy cluster"
        );
        oracle.push_row(&row(r));
    }

    // ---- Phase 2: kill the leader abruptly, mid-run. ----
    handles[0].take().expect("spawned above").kill();

    // A survivor must claim a higher term and report itself leader.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut elected: Option<(u64, u64)> = None;
    while Instant::now() < deadline && elected.is_none() {
        for &addr in &addrs[1..] {
            let Ok(mut probe) = DaemonClient::connect(addr, Duration::from_millis(300)) else {
                continue;
            };
            if let Ok(Response::StatusR {
                node, term, leader, ..
            }) = probe.call(&Request::Status)
            {
                if term > 0 && leader == node {
                    elected = Some((node, term));
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let (new_leader, new_term) = elected.expect("a survivor claims leadership");
    assert_ne!(new_leader, 0, "node 0 is dead");
    assert!(new_term > 0, "failover means a new term");

    // ---- Phase 3: post-failover ingest and oracle-exact queries. ----
    let post_deadline = Instant::now() + Duration::from_secs(30);
    for r in 16..28u64 {
        assert!(
            ingest_until_acked(&mut client, r, &row(r), post_deadline),
            "row {r} must ack after failover (bounded unavailability, not loss)"
        );
        oracle.push_row(&row(r));
    }
    for stream in 0..streams as u64 {
        let want = oracle
            .tree(stream as usize)
            .point_with(0, QueryOptions::default())
            .expect("warm index");
        match client
            .call(&Request::Point { stream, index: 0 })
            .expect("point after failover")
        {
            Response::PointR { answer } => {
                assert_eq!(
                    answer.value.to_bits(),
                    want.value.to_bits(),
                    "stream {stream} diverged after failover"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    // The merged top-k must be complete again: every shard has a live
    // primary (the dead leader held no shard, and standbys cover the
    // rest), and the merge is bit-identical to the oracle's.
    let (want_topk, _) = oracle.global_top_k(4, 1);
    match client.call(&Request::TopK { k: 4 }).expect("topk call") {
        Response::TopKR { complete, entries } => {
            assert!(complete, "all shards answer after failover");
            assert_eq!(entries, want_topk.entries().to_vec());
        }
        other => panic!("unexpected {other:?}"),
    }

    for h in handles.into_iter().flatten() {
        let _ = h.stop();
    }
}

#[test]
fn ring_cluster_stays_exact_through_coalesced_fan_outs_and_a_killed_replica() {
    const ROWS: u64 = 2_000;
    const KILL_AT: u64 = 1_200;
    // Node 2: primary of shard 1, standby of shard 0.
    const KILLED_NODE: usize = 2;
    const KILLED_SHARD: u32 = 1;
    let (mut handles, addrs) = spawn_failover_cluster(STREAMS, SHARDS);
    let mut client = FailoverClient::new(
        addrs,
        RetryPolicy {
            max_retries: 3,
            timeout: 30,
        },
        Duration::from_millis(500),
    );
    let mut oracle = ShardedStreamSet::new(cfg(), STREAMS, SHARDS);
    let mut named = false;
    // Every deadline the cluster has (I/O, heartbeat misses, repair,
    // re-seeding) is well under a second; a row that takes longer than
    // this to ack after the kill means something hangs.
    let mut row_deadline = Instant::now() + Duration::from_secs(30);
    for r in 0..ROWS {
        if r == KILL_AT {
            handles[KILLED_NODE].take().expect("spawned above").kill();
            row_deadline = Instant::now() + Duration::from_secs(30);
        }
        loop {
            let ingest = Request::Ingest {
                req_id: r,
                row: row(r),
            };
            match client.call(&ingest) {
                Ok(Response::IngestOk { failed_shards, .. }) if failed_shards.is_empty() => break,
                Ok(Response::IngestOk { failed_shards, .. }) => {
                    assert!(r >= KILL_AT, "row {r} degraded on a healthy ring");
                    named |= failed_shards.contains(&KILLED_SHARD);
                }
                // Shed, mid-reconfiguration or a socket that died with
                // the node: the stable req_id makes the retry safe.
                Ok(_) | Err(_) => {}
            }
            assert!(Instant::now() < row_deadline, "row {r} never acked");
            std::thread::sleep(Duration::from_millis(10));
        }
        oracle.push_row(&row(r));
        if r % 40 != 39 {
            continue;
        }
        // A fully acked row means every shard has a serving primary
        // again, so the answers are the oracle's, bit for bit.
        let stream = (r / 40) % STREAMS as u64;
        let want = oracle
            .tree(stream as usize)
            .point_with(2, QueryOptions::default())
            .expect("warm index");
        match client.call(&Request::Point { stream, index: 2 }) {
            Ok(Response::PointR { answer }) => {
                assert_eq!(answer.value.to_bits(), want.value.to_bits(), "row {r}");
            }
            other => panic!("point after row {r}: {other:?}"),
        }
        let (want_topk, _) = oracle.global_top_k(4, 1);
        match client.call(&Request::TopK { k: 4 }) {
            Ok(Response::TopKR { complete, entries }) => {
                assert!(complete, "row {r}");
                assert_eq!(entries, want_topk.entries().to_vec(), "row {r}");
            }
            other => panic!("top-k after row {r}: {other:?}"),
        }
    }
    assert!(
        named,
        "the killed replica's shard must surface in failed_shards"
    );
    for h in handles.into_iter().flatten() {
        let _ = h.stop();
    }
}

/// A lone replica node with a short read deadline, and a raw connection
/// to it: the bytes are segmented exactly as the test writes them.
fn lone_node(io_timeout: Duration) -> (ServerHandle, TcpStream, TcpTransport) {
    let mut rc = DaemonConfig::localhost(Role::Replica { shard: 0 }, cfg(), STREAMS, 1);
    rc.io_timeout = io_timeout;
    let node = spawn(rc).expect("node binds");
    let raw = TcpStream::connect(node.addr()).expect("connects");
    raw.set_nodelay(true).expect("nodelay");
    let patient = Duration::from_secs(5);
    let reader =
        TcpTransport::new(raw.try_clone().expect("clone"), patient, patient).expect("transport");
    (node, raw, reader)
}

fn next_response(reader: &mut TcpTransport) -> Response {
    let frame = reader.recv_frame().expect("a response frame");
    decode_response(check_frame(&frame).expect("valid frame")).expect("valid response")
}

#[test]
fn requests_written_in_one_segment_are_answered_in_order() {
    let (leader, replicas) = spawn_cluster(&[None, None, None]);
    let mut client =
        DaemonClient::connect(leader.addr(), Duration::from_secs(2)).expect("client connects");
    let mut oracle = ShardedStreamSet::new(cfg(), STREAMS, SHARDS);
    for r in 0..20u64 {
        client.ingest(r, row(r)).expect("warm-up ingest");
        oracle.push_row(&row(r));
    }
    let patient = Duration::from_secs(5);
    let mut pipelined = TcpTransport::new(
        TcpStream::connect(leader.addr()).expect("connects"),
        patient,
        patient,
    )
    .expect("transport");
    // One `write` carries the row and the query that must see it.
    pipelined.queue_frame(&encode_request(&Request::Ingest {
        req_id: 20,
        row: row(20),
    }));
    pipelined.queue_frame(&encode_request(&Request::Point {
        stream: 4,
        index: 0,
    }));
    pipelined.flush().expect("one write");
    assert_eq!(pipelined.writes(), 1);
    oracle.push_row(&row(20));
    assert_eq!(
        next_response(&mut pipelined),
        Response::IngestOk {
            req_id: 20,
            duplicate: false,
            failed_shards: vec![],
        }
    );
    let want = oracle
        .tree(4)
        .point_with(0, QueryOptions::default())
        .expect("in range");
    match next_response(&mut pipelined) {
        Response::PointR { answer } => assert_eq!(answer.value.to_bits(), want.value.to_bits()),
        other => panic!("unexpected {other:?}"),
    }
    let _ = leader.stop();
    for handle in replicas {
        let _ = handle.stop();
    }
}

#[test]
fn a_pause_inside_a_frame_does_not_desynchronise_the_connection() {
    let io_timeout = Duration::from_millis(40);
    let (node, mut raw, mut reader) = lone_node(io_timeout);
    let ping = encode_request(&Request::Ping { nonce: 41 });
    // Half a header, several read deadlines of silence, then the rest.
    raw.write_all(&ping[..4]).expect("first half");
    std::thread::sleep(4 * io_timeout);
    raw.write_all(&ping[4..]).expect("second half");
    assert_eq!(next_response(&mut reader), Response::Pong { nonce: 41 });
    // The same inside a payload, and the connection still serves the
    // request after it.
    let status = encode_request(&Request::Status);
    raw.write_all(&status[..status.len() - 1])
        .expect("all but a byte");
    std::thread::sleep(4 * io_timeout);
    raw.write_all(&status[status.len() - 1..])
        .expect("the last byte");
    assert!(matches!(
        next_response(&mut reader),
        Response::StatusR { node: 1, .. }
    ));
    raw.write_all(&encode_request(&Request::Ping { nonce: 42 }))
        .expect("a whole frame");
    assert_eq!(next_response(&mut reader), Response::Pong { nonce: 42 });
    let _ = node.stop();
}

#[test]
fn a_violation_behind_a_valid_request_still_lets_its_answer_out() {
    let (node, mut raw, mut reader) = lone_node(Duration::from_millis(200));
    let mut corrupt = encode_request(&Request::Ping { nonce: 8 });
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x10;
    // Both frames arrive together, so the first answer is being held back
    // when the second frame fails its checksum.
    let burst = [encode_request(&Request::Ping { nonce: 7 }), corrupt].concat();
    raw.write_all(&burst).expect("one write");
    assert_eq!(next_response(&mut reader), Response::Pong { nonce: 7 });
    assert_eq!(reader.recv_frame(), Err(TransportError::Closed));
    let _ = node.stop();
}
