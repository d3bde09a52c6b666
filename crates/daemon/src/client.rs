//! Clients of a `swatd` node: the external [`DaemonClient`] and
//! [`FailoverClient`], and the server's internal [`PeerPool`].
//!
//! All speak the same framed protocol over [`TcpTransport`]; the peer
//! pool adds the leader-side robustness machinery:
//!
//! * a **bounded in-flight budget per peer** — when `max_inflight`
//!   requests are already outstanding toward a peer, further work is
//!   shed *before* anything is sent (the caller answers the client with
//!   a typed `Overloaded`); memory use is bounded by construction, not
//!   by hope,
//! * **bounded reconnect with exponential backoff** — the
//!   `swat_replication::RetryPolicy` schedule, `timeout` interpreted in
//!   milliseconds; after the last retry the peer is reported
//!   unreachable (`None`) and the caller degrades explicitly,
//! * per-peer connection reuse: one live connection per peer,
//!   re-established lazily after any transport failure,
//! * **one round per fan-out** — [`PeerPool::exchange_many`] queues every
//!   leg on its peer's live connection, writes once per peer and reads
//!   the answers in leg order; whatever that fast path cannot answer
//!   falls back to the single-leg [`PeerPool::exchange`].

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use swat_replication::RetryPolicy;

use crate::driver::{self, follow_redirects};
use crate::proto::{check_frame, decode_response, ProtoError, Request, Response};
use crate::transport::{TcpTransport, Transport, TransportError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect to the address.
    Connect(std::io::Error),
    /// The transport failed mid-call.
    Transport(TransportError),
    /// The peer answered with bytes that violate the protocol.
    Proto(ProtoError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connecting: {e}"),
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Proto(p) => ClientError::Proto(p),
            other => ClientError::Transport(other),
        }
    }
}

/// A blocking external client of one `swatd` node.
pub struct DaemonClient {
    tp: TcpTransport,
}

impl DaemonClient {
    /// Connect to `addr` with `timeout` as connect deadline and
    /// read/write deadline, then shake hands.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on connect, transport, or protocol failure.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(ClientError::Connect)?;
        let tp = TcpTransport::new(stream, timeout, timeout).map_err(ClientError::Connect)?;
        let mut client = DaemonClient { tp };
        // Handshake: both sides announce themselves.
        client.call(&Request::Hello { node: 0 })?;
        Ok(client)
    }

    /// Send one request and wait for its response.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.tp.queue_request(req);
        self.tp.flush()?;
        let frame = self.tp.recv_frame()?;
        let payload = check_frame(frame).map_err(ClientError::Proto)?;
        decode_response(payload).map_err(ClientError::Proto)
    }

    /// Apply one global row under write id `req_id`.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::call`].
    pub fn ingest(&mut self, req_id: u64, row: Vec<f64>) -> Result<Response, ClientError> {
        self.call(&Request::Ingest { req_id, row })
    }

    /// Point query.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::call`].
    pub fn point(&mut self, stream: u64, index: u32) -> Result<Response, ClientError> {
        self.call(&Request::Point { stream, index })
    }

    /// Distributed top-k.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::call`].
    pub fn top_k(&mut self, k: u32) -> Result<Response, ClientError> {
        self.call(&Request::TopK { k })
    }

    /// Status snapshot.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::call`].
    pub fn status(&mut self) -> Result<Response, ClientError> {
        self.call(&Request::Status)
    }

    /// Request graceful shutdown.
    ///
    /// # Errors
    ///
    /// As [`DaemonClient::call`].
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.call(&Request::Shutdown)
    }
}

/// A failover-aware client over a whole cluster: walks it with
/// [`follow_redirects`] — the rule the simulator's client runs too —
/// where a refused or timed-out socket counts as silence, and retries
/// the walk with the bounded [`RetryPolicy`] backoff, so one client
/// object survives elections and node deaths, never failing on the first
/// socket error.
pub struct FailoverClient {
    peers: Vec<SocketAddr>,
    policy: RetryPolicy,
    timeout: Duration,
    /// Index of the peer currently believed to lead.
    target: usize,
    /// The live connection and the peer it is to.
    conn: Option<(usize, DaemonClient)>,
}

impl FailoverClient {
    /// A client over `peers` (`peers[i]` is node `i`), starting at node
    /// `0`. `policy.max_retries` bounds the *rounds* over the peer list
    /// (at least one; the peer pool counts retries after a first try),
    /// and round `n ≥ 1` waits `policy.backoff(n)` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty.
    pub fn new(peers: Vec<SocketAddr>, policy: RetryPolicy, timeout: Duration) -> Self {
        assert!(!peers.is_empty(), "a cluster has at least one address");
        FailoverClient {
            peers,
            policy,
            timeout,
            target: 0,
            conn: None,
        }
    }

    /// Ask node `at` once over its connection, (re)connecting first when
    /// the live one is to some other node.
    fn ask(&mut self, at: usize, req: &Request) -> Result<Response, ClientError> {
        if self.conn.as_ref().is_some_and(|(to, _)| *to != at) {
            self.conn = None;
        }
        if self.conn.is_none() {
            self.conn = Some((at, DaemonClient::connect(self.peers[at], self.timeout)?));
        }
        // invariant: the branch above just filled `conn`.
        let answer = self.conn.as_mut().expect("connected above").1.call(req);
        if answer.is_err() {
            self.conn = None;
        }
        answer
    }

    /// Send one request, following redirects and retrying through
    /// elections with bounded backoff. Returns the first substantive
    /// response (anything but `NotLeaderR`).
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once every round of the peer list is
    /// exhausted.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut last_err: Option<ClientError> = None;
        let n = self.peers.len();
        for round in 0..self.policy.max_retries.max(1) {
            if round > 0 {
                std::thread::sleep(Duration::from_millis(self.policy.backoff(round)));
            }
            let mut target = self.target;
            // Connection refused, timed out, or failed mid-call: this
            // node is down or not yet up — silence, as far as the walk
            // is concerned.
            let answer = follow_redirects(&mut target, n, |at| {
                self.ask(at, req).map_err(|e| last_err = Some(e)).ok()
            });
            self.target = target;
            if let Some(resp) = answer {
                return Ok(resp);
            }
        }
        Err(last_err.unwrap_or(ClientError::Transport(TransportError::TimedOut)))
    }

    /// Ingest `row` under `req_id`, retrying until the row is fully
    /// acked (`failed_shards` empty) or `attempts` runs out. The stable
    /// `req_id` makes the retries duplicate-safe; a partial apply is
    /// re-driven until every shard holds the row.
    ///
    /// Attempt `n ≥ 1` waits `policy.backoff(n)` ms after the one before
    /// it. The final response is returned even when not fully acked (the
    /// caller inspects `failed_shards`).
    ///
    /// # Errors
    ///
    /// The final transport error when no response arrived at all.
    pub fn ingest_acked(
        &mut self,
        req_id: u64,
        row: Vec<f64>,
        attempts: u32,
    ) -> Result<Response, ClientError> {
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(self.policy.backoff(attempt)));
            }
            match self.call(&Request::Ingest {
                req_id,
                row: row.clone(),
            }) {
                Ok(Response::IngestOk {
                    req_id: r,
                    duplicate,
                    failed_shards,
                }) if failed_shards.is_empty() => {
                    return Ok(Response::IngestOk {
                        req_id: r,
                        duplicate,
                        failed_shards,
                    })
                }
                Ok(other) => last = Some(Ok(other)),
                Err(e) => last = Some(Err(e)),
            }
        }
        last.unwrap_or(Err(ClientError::Transport(TransportError::TimedOut)))
    }
}

/// One pooled peer: its address, at most one live connection, and the
/// in-flight token counter.
struct Peer {
    addr: SocketAddr,
    conn: Mutex<Option<TcpTransport>>,
    inflight: AtomicUsize,
}

/// A node's connection pool over the cluster, indexed by node id.
pub struct PeerPool {
    peers: Vec<Peer>,
    policy: RetryPolicy,
    io_timeout: Duration,
    max_inflight: usize,
}

/// RAII in-flight tokens: acquired for every peer of a fan-out before
/// anything is sent, released on drop.
pub struct InflightGuard<'a> {
    pool: &'a PeerPool,
    peers: Vec<usize>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        for &p in &self.peers {
            self.pool.peers[p].inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl PeerPool {
    /// A pool over `addrs` (node `i` lives at `addrs[i]`), shedding
    /// when a peer already has `max_inflight` outstanding requests.
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight == 0`.
    pub fn new(
        addrs: Vec<SocketAddr>,
        policy: RetryPolicy,
        io_timeout: Duration,
        max_inflight: usize,
    ) -> Self {
        assert!(
            max_inflight > 0,
            "an in-flight budget of 0 sheds everything"
        );
        PeerPool {
            peers: addrs
                .into_iter()
                .map(|addr| Peer {
                    addr,
                    conn: Mutex::new(None),
                    inflight: AtomicUsize::new(0),
                })
                .collect(),
            policy,
            io_timeout,
            max_inflight,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Try to reserve one in-flight slot toward every peer in `peers`
    /// (one per leg: a peer named twice is charged twice). `None` means
    /// at least one peer's budget is exhausted — the caller sheds the
    /// request with a typed `Overloaded` and **nothing is sent to
    /// anyone** (shedding is all-or-nothing, so a shed ingest touches no
    /// shard).
    pub fn try_acquire(&self, peers: &[usize]) -> Option<InflightGuard<'_>> {
        let mut taken = Vec::with_capacity(peers.len());
        for &p in peers {
            let prev = self.peers[p].inflight.fetch_add(1, Ordering::SeqCst);
            if prev >= self.max_inflight {
                self.peers[p].inflight.fetch_sub(1, Ordering::SeqCst);
                for &t in &taken {
                    self.peers[t as usize]
                        .inflight
                        .fetch_sub(1, Ordering::SeqCst);
                }
                return None;
            }
            taken.push(p as u32);
        }
        Some(InflightGuard {
            pool: self,
            peers: peers.to_vec(),
        })
    }

    /// One request/response exchange with node `peer`, reconnecting with
    /// bounded exponential backoff (`driver::retry`, which the simulator's
    /// legs run too; the waits in milliseconds). `None` after the final
    /// retry — the caller degrades explicitly. The caller must already
    /// hold an in-flight token (or be heartbeat traffic, which bypasses
    /// the budget so health detection keeps working under load).
    pub fn exchange(&self, peer: usize, req: &Request) -> Option<Response> {
        let mut conn = self.lock_conn(peer);
        let peer = &self.peers[peer];
        driver::retry(&self.policy, |wait_ms| {
            // The first try's wait is 0: no system call.
            std::thread::sleep(Duration::from_millis(wait_ms));
            if conn.is_none() {
                let tp = TcpStream::connect_timeout(&peer.addr, self.io_timeout)
                    .and_then(|s| TcpTransport::new(s, self.io_timeout, self.io_timeout));
                *conn = Some(tp.ok()?);
            }
            // invariant: the branch above just filled `conn`.
            let tp = conn.as_mut().expect("just connected");
            tp.queue_request(req);
            let answer = tp.flush().ok().and_then(|()| recv_response(tp));
            if answer.is_none() {
                *conn = None;
            }
            answer
        })
    }

    /// One fan-out round: `legs[i]` is `(peer, request)`, the result's
    /// slot `i` its answer (`None` as in [`Self::exchange`]). The caller
    /// holds an in-flight token per leg.
    ///
    /// Every leg whose peer has a live connection is queued on it, each
    /// peer is flushed once, and the answers are read in leg order — a
    /// peer answers its connection in order, so per peer that is the
    /// order sent. The distinct peers' connections are locked in
    /// ascending index order, so two fan-outs (or a fan-out and a single
    /// `exchange`, which holds one lock and waits for no other) cannot
    /// deadlock. Any send, receive or decode failure drops that
    /// connection at once: an answer arriving late must never be read as
    /// the next leg's. Legs still unanswered when every lock is released
    /// are re-driven one by one through [`Self::exchange`] (connect,
    /// bounded back-off) — safe because ingest legs are idempotent by
    /// `req_id` and every other leg only reads.
    pub fn exchange_many(&self, legs: &[(u64, &Request)]) -> Vec<Option<Response>> {
        let mut answers: Vec<Option<Response>> = vec![None; legs.len()];
        {
            let mut order: Vec<usize> = legs.iter().map(|&(peer, _)| peer as usize).collect();
            order.sort_unstable();
            order.dedup();
            let mut conns: Vec<_> = order.iter().map(|&peer| self.lock_conn(peer)).collect();
            // invariant: `order` holds every leg's peer, sorted.
            let slot = |peer: u64| {
                order
                    .binary_search(&(peer as usize))
                    .expect("peer was collected")
            };
            for &(peer, req) in legs {
                if let Some(tp) = conns[slot(peer)].as_mut() {
                    tp.queue_request(req);
                }
            }
            for conn in &mut conns {
                if conn.as_mut().is_some_and(|tp| tp.flush().is_err()) {
                    **conn = None;
                }
            }
            for (answer, &(peer, _)) in answers.iter_mut().zip(legs) {
                let conn = &mut conns[slot(peer)];
                let Some(tp) = conn.as_mut() else {
                    continue;
                };
                *answer = recv_response(tp);
                if answer.is_none() {
                    **conn = None;
                }
            }
        }
        for (answer, &(peer, req)) in answers.iter_mut().zip(legs) {
            if answer.is_none() {
                *answer = self.exchange(peer as usize, req);
            }
        }
        answers
    }

    /// Lock `peer`'s connection slot. A panic while an exchange held this
    /// lock poisons it; the protected state is just an optional
    /// connection, which is safe to reset and reuse — a poisoned pool
    /// must not cascade panics into every other connection worker.
    fn lock_conn(&self, peer: usize) -> MutexGuard<'_, Option<TcpTransport>> {
        match self.peers[peer].conn.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                *g = None;
                g
            }
        }
    }
}

/// Read and decode the next response on `tp`; `None` on any transport
/// failure or protocol violation (the caller drops the connection).
fn recv_response(tp: &mut TcpTransport) -> Option<Response> {
    let frame = tp.recv_frame().ok()?;
    check_frame(frame).and_then(decode_response).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize, max_inflight: usize) -> PeerPool {
        let addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", 1 + i).parse().unwrap())
            .collect();
        PeerPool::new(
            addrs,
            RetryPolicy {
                max_retries: 0,
                timeout: 1,
            },
            Duration::from_millis(10),
            max_inflight,
        )
    }

    /// What a scripted peer does with one request.
    enum Act {
        Reply,
        ReplyThenClose,
        /// Answer `Pong { nonce: LATE }` after this long.
        ReplyLate(Duration),
    }

    const LATE: u64 = 666;

    /// `(connection, nonce)` of every request a scripted peer has read.
    type PeerLog = std::sync::Arc<Mutex<Vec<(usize, u64)>>>;

    /// A peer on loopback, one thread per accepted connection, that
    /// answers `Ping { nonce }` with `Pong { nonce }` as `script(conn,
    /// nonce)` says and logs `(conn, nonce)` for every request it read.
    /// Connections are numbered in accept order. It lives until the test
    /// process ends; tests only ever wait on their own pool.
    fn scripted_peer(
        script: impl Fn(usize, u64) -> Act + Send + Sync + 'static,
    ) -> (SocketAddr, PeerLog) {
        use crate::proto::decode_request;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let log = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = log.clone();
        let script = std::sync::Arc::new(script);
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().flatten().enumerate() {
                let (script, seen) = (script.clone(), seen.clone());
                std::thread::spawn(move || {
                    let long = Duration::from_secs(60);
                    let mut tp = TcpTransport::new(stream, long, long).unwrap();
                    while let Ok(frame) = tp.recv_frame() {
                        let Ok(Request::Ping { nonce }) =
                            check_frame(frame).and_then(decode_request)
                        else {
                            return;
                        };
                        seen.lock().unwrap().push((conn, nonce));
                        let pong = |nonce| Response::Pong { nonce };
                        match script(conn, nonce) {
                            Act::Reply => tp.queue_response(&pong(nonce)),
                            Act::ReplyThenClose => {
                                tp.queue_response(&pong(nonce));
                                let _ = tp.flush();
                                return;
                            }
                            Act::ReplyLate(after) => {
                                std::thread::sleep(after);
                                tp.queue_response(&pong(LATE));
                            }
                        }
                        if !tp.frame_buffered() && tp.flush().is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, log)
    }

    fn pool_over(addrs: Vec<SocketAddr>, io_timeout: Duration) -> PeerPool {
        let policy = RetryPolicy {
            max_retries: 1,
            timeout: 1,
        };
        PeerPool::new(addrs, policy, io_timeout, 64)
    }

    fn ping(nonce: u64) -> Request {
        Request::Ping { nonce }
    }

    fn pong(nonce: u64) -> Option<Response> {
        Some(Response::Pong { nonce })
    }

    fn writes(pool: &PeerPool, peer: usize) -> u64 {
        let conn = pool.peers[peer].conn.lock().unwrap();
        conn.as_ref().expect("a live connection").writes()
    }

    #[test]
    fn a_fan_out_is_one_write_per_peer_and_answers_in_leg_order() {
        let (a, _) = scripted_peer(|_, _| Act::Reply);
        let (b, _) = scripted_peer(|_, _| Act::Reply);
        let pool = pool_over(vec![a, b], Duration::from_secs(5));
        // No connection yet: every leg takes the single-leg path, which
        // connects.
        let cold = pool.exchange_many(&[(1, &ping(1)), (0, &ping(2))]);
        assert_eq!(cold, [pong(1), pong(2)]);
        let before = [writes(&pool, 0), writes(&pool, 1)];
        let (p10, p11, p12) = (ping(10), ping(11), ping(12));
        let answers = pool.exchange_many(&[(0, &p10), (1, &p11), (0, &p12)]);
        assert_eq!(answers, [pong(10), pong(11), pong(12)]);
        assert_eq!(writes(&pool, 0) - before[0], 1, "two legs, one write");
        assert_eq!(writes(&pool, 1) - before[1], 1);
        assert!(pool.exchange_many(&[]).is_empty());
    }

    #[test]
    fn a_peer_closing_mid_fan_out_costs_only_the_unanswered_leg() {
        // Connection 0 answers nonce 2 and hangs up; whatever else was
        // pipelined on it is lost with it.
        let (addr, log) = scripted_peer(|conn, nonce| match (conn, nonce) {
            (0, 2) => Act::ReplyThenClose,
            _ => Act::Reply,
        });
        let pool = pool_over(vec![addr], Duration::from_secs(5));
        assert_eq!(pool.exchange(0, &ping(1)), pong(1));
        let answers = pool.exchange_many(&[(0, &ping(2)), (0, &ping(3))]);
        assert_eq!(answers, [pong(2), pong(3)]);
        let log = log.lock().unwrap();
        assert!(log.contains(&(0, 2)), "the first leg was answered in place");
        assert!(
            log.contains(&(1, 3)),
            "the second went out again on a new connection: {log:?}"
        );
    }

    #[test]
    fn a_silent_peer_costs_one_deadline_and_its_late_answer_is_never_read() {
        let deadline = Duration::from_millis(300);
        let (addr, log) = scripted_peer(move |conn, nonce| match (conn, nonce) {
            (0, 2) => Act::ReplyLate(2 * deadline),
            _ => Act::Reply,
        });
        let pool = pool_over(vec![addr], deadline);
        assert_eq!(pool.exchange(0, &ping(1)), pong(1));
        let started = std::time::Instant::now();
        let answers = pool.exchange_many(&[(0, &ping(2)), (0, &ping(3))]);
        let took = started.elapsed();
        // Leg one waits out the deadline on connection 0, which is then
        // dropped: leg two must not wait on it again, and both are
        // re-driven on connection 1.
        assert_eq!(answers, [pong(2), pong(3)]);
        assert!(
            took >= deadline && took < 2 * deadline,
            "one deadline, not one per leg: {took:?}"
        );
        // Outlive the late answer, then keep talking: it went to a
        // connection nobody reads any more.
        std::thread::sleep(2 * deadline);
        for nonce in 4..8 {
            assert_eq!(pool.exchange(0, &ping(nonce)), pong(nonce));
        }
        let log = log.lock().unwrap();
        assert!(log.contains(&(1, 2)) && log.contains(&(1, 3)), "{log:?}");
    }

    #[test]
    fn opposite_leg_orders_cannot_deadlock() {
        use std::sync::{mpsc, Arc, Barrier};
        let (a, _) = scripted_peer(|_, _| Act::Reply);
        let (b, _) = scripted_peer(|_, _| Act::Reply);
        let pool = Arc::new(pool_over(vec![a, b], Duration::from_secs(5)));
        assert_eq!(pool.exchange_many(&[(0, &ping(0)), (1, &ping(0))]).len(), 2);

        // Forced: hold peer 0 as a fan-out over [0, 1] does between its
        // two acquisitions, and start one over [1, 0]. Locking in leg
        // order it would take peer 1 and wait for peer 0 holding it —
        // half of a deadlock. Ascending, it waits for peer 0 first and
        // holds nothing: peer 1 stays free for as long as we look.
        let held = pool.peers[0].conn.lock().unwrap();
        let (started, has_started) = mpsc::channel();
        let worker = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                started.send(()).unwrap();
                pool.exchange_many(&[(1, &ping(1)), (0, &ping(2))])
            })
        };
        has_started.recv().unwrap();
        let until = std::time::Instant::now() + Duration::from_millis(100);
        while std::time::Instant::now() < until {
            assert!(
                pool.peers[1].conn.try_lock().is_ok(),
                "peer 1 held while waiting for peer 0"
            );
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(worker.join().unwrap(), [pong(1), pong(2)]);

        // And free-running: two threads, opposite leg orders, same peers.
        let gate = Arc::new(Barrier::new(2));
        let (done, finished) = mpsc::channel();
        for order in [[0u64, 1], [1, 0]] {
            let (pool, gate, done) = (pool.clone(), gate.clone(), done.clone());
            std::thread::spawn(move || {
                gate.wait();
                for round in 0..300u64 {
                    let (first, second) = (ping(2 * round), ping(2 * round + 1));
                    let answers = pool.exchange_many(&[(order[0], &first), (order[1], &second)]);
                    assert_eq!(answers, [pong(2 * round), pong(2 * round + 1)]);
                }
                done.send(()).unwrap();
            });
        }
        // Bounded, so a wedge shows as a failure and not as a hang.
        for _ in 0..2 {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("both fan-out threads finish");
        }
    }

    #[test]
    fn budget_is_all_or_nothing() {
        let p = pool(2, 1);
        let g1 = p.try_acquire(&[0]).expect("budget free");
        // Shard 0 exhausted: a fan-out touching it sheds entirely, and
        // shard 1's count is rolled back.
        assert!(p.try_acquire(&[1, 0]).is_none());
        assert_eq!(p.peers[1].inflight.load(Ordering::SeqCst), 0);
        drop(g1);
        assert!(p.try_acquire(&[1, 0]).is_some());
    }

    #[test]
    fn unreachable_peer_is_none_not_a_hang() {
        // Port 1 on localhost: nothing listens; connect fails fast and
        // the bounded retries end in None.
        let p = pool(1, 4);
        let started = std::time::Instant::now();
        assert!(p.exchange(0, &Request::Status).is_none());
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
