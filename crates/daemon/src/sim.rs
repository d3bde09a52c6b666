//! The deterministic in-process cluster: [`crate::driver`]'s loops over a
//! fault-injected network.
//!
//! A [`Sim`] is `shards + 1` [`ClusterNode`]s, one `swat-net`
//! [`Link`] and a clock. Nothing here decides anything about the
//! protocol: a client request at a node is [`driver::serve`], a node's
//! monitor is [`driver::monitor_pass`], the client walks the cluster with
//! [`driver::follow_redirects`] — the functions the TCP server and
//! `FailoverClient` call. The simulator supplies what a deployment
//! supplies, a [`Fabric`]: the node itself, the clock, and legs. A leg is
//! `driver::retry`, the loop the TCP peer pool runs, over attempts that
//! are two [`Link`] verdicts each, one for the request and one for the
//! response: delivered after a delay, dropped, or refused because an
//! endpoint is inside a crash window.
//!
//! The clock is the only clock. Every frame, receive deadline and
//! backoff advances it; a [`Sim::tick`] moves it to the next
//! [`Sim::PERIOD`] boundary and gives every node that is up one monitor
//! pass; crash windows are read against it, and a crashed node is paused,
//! state intact — the hard case, because it comes back stale and must be
//! fenced. Every schedule is a pure function of the plan and the script,
//! so any bug replays from a seed.
//!
//! `swatd`'s two deployments are one argument ([`SimDeployment`]): the
//! static leader (heartbeats and explicit degradation; no repair, no
//! elections), or every node holding the peer table, with or without
//! standbys. Either runs in one of two **arms** ([`SimMode`]):
//!
//! * `Wire` — every request and response a leg delivers is encoded to
//!   frame bytes, checked, and decoded, exactly like production.
//! * `Model` — the same verdicts (identical fault-RNG consumption,
//!   identical clock arithmetic), but the in-memory structs are handed
//!   over directly and nothing is encoded.
//!
//! For any `FaultPlan` and script the two arms must produce
//! **bit-identical** client-visible outcomes and final holdings: the
//! `sim_oracle` property tests pin the wire layer to the model. Under
//! `FaultPlan::none()` the outcomes are additionally pinned to the plain
//! `ShardedStreamSet` in-process oracle.

use std::collections::BTreeMap;

use swat_net::{Delivery, FaultPlan, Link, NodeId};
use swat_replication::RetryPolicy;
use swat_tree::SwatConfig;

use crate::driver::{self, Fabric};
use crate::node::ClusterNode;
use crate::proto::{
    check_frame, decode_request, decode_response, encode_request, encode_response, ProtoError,
    Request, Response,
};

/// Which arm a [`Sim`] runs: production byte path or direct struct
/// hand-off (the model/oracle arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Encode → check → decode, like the TCP daemon.
    Wire,
    /// Same verdicts, structs cross directly.
    Model,
}

/// One scripted step of [`Sim::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// One client call ([`Sim::client`]); its answer is the outcome.
    Client(Request),
    /// One [`Sim::tick`] — a heartbeat round, and with a peer table
    /// whatever repair and elections it sets off. The outcome is the
    /// `StatusR` of the node the client points at afterwards: the
    /// leader's, registry included, unless an election moved it.
    Heartbeat,
}

/// Which of `swatd`'s two deployments a [`Sim`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimDeployment {
    /// No node holds a peer table: node 0 leads for good, detects
    /// failures and degrades explicitly; nothing is repaired, nobody is
    /// elected, there is no standby to promote.
    StaticLeader,
    /// Every node holds the full peer table: repair, re-seeding and
    /// elections run.
    PeerTable {
        /// The ring layout (each replica primary of one shard, standby
        /// of its neighbour's) over the solo one.
        standbys: bool,
        /// Periods of leader silence, plus its own id, after which a
        /// follower claims the next term of its residue class.
        election_timeout: u64,
    },
}

/// Ticks a receive waits for a frame: a frame delayed past it is lost
/// to the attempt that sent it.
const RECV_DEADLINE: u64 = 8;

/// The deterministic cluster: node 0 bootstraps as leader, node
/// `s + 1` as primary of shard `s`.
pub struct Sim {
    mode: SimMode,
    /// The fault plan's adjudicator, and the only consumer of its RNG.
    link: Link,
    /// The clock, in ticks.
    now: u64,
    nodes: Vec<ClusterNode>,
    deployment: SimDeployment,
    /// Every `(term, node)` pair ever observed leading.
    leaders_by_term: BTreeMap<u64, u64>,
    /// The client's current target (follows `NotLeaderR` hints).
    target: usize,
}

/// The [`Fabric`] of node `id`.
struct At<'a> {
    sim: &'a mut Sim,
    id: u64,
}

impl Fabric for At<'_> {
    fn with_node<R>(&mut self, f: impl FnOnce(&mut ClusterNode) -> R) -> Option<R> {
        Some(f(&mut self.sim.nodes[self.id as usize]))
    }

    fn exchange(&mut self, legs: &[(u64, &Request)]) -> Vec<Option<Response>> {
        legs.iter()
            .map(|&(to, req)| self.sim.leg(self.id, to, req))
            .collect()
    }

    fn now(&self) -> u64 {
        self.sim.now()
    }
}

impl Sim {
    /// Ticks of the network clock between two monitor passes of a node.
    /// A quiet pass and a clean row fit in one several times over; a leg
    /// to a crashed peer (five attempts and their backoff) spans three.
    pub const PERIOD: u64 = 32;

    /// A cluster of `shards + 1` nodes over `streams` global streams,
    /// faulted by `plan`, whose crash windows may name any node.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(
        mode: SimMode,
        plan: FaultPlan,
        config: SwatConfig,
        streams: usize,
        shards: usize,
        miss_threshold: u32,
        deployment: SimDeployment,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let standbys = matches!(deployment, SimDeployment::PeerTable { standbys: true, .. });
        let mut nodes = vec![ClusterNode::bootstrap_leader(
            config,
            streams,
            shards,
            miss_threshold,
            standbys,
        )];
        nodes.extend(
            (1..=shards as u64).map(|id| {
                ClusterNode::replica(id, config, streams, shards, miss_threshold, standbys)
            }),
        );
        let mut sim = Sim {
            mode,
            link: Link::new(plan),
            now: 0,
            nodes,
            deployment,
            leaders_by_term: BTreeMap::new(),
            target: 0,
        };
        // Term 0 is covered by the unique-leader invariant from the start.
        sim.check_unique_leaders();
        sim
    }

    /// The clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The node, for state inspection (digests, terms, registry).
    pub fn node(&self, id: u64) -> &ClusterNode {
        &self.nodes[id as usize]
    }

    /// Every `(term, leader)` pair ever observed; the sim panics the
    /// moment any term would acquire a second leader.
    pub fn leader_terms(&self) -> &BTreeMap<u64, u64> {
        &self.leaders_by_term
    }

    /// The newest-term leader that is currently up, if any.
    pub fn live_leader(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter(|n| n.is_leader() && !self.down(n.id()))
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// The node currently assigned primary of `shard`, per the live
    /// leader's view.
    pub fn primary_of(&self, shard: usize) -> Option<u64> {
        let lead = self.nodes[self.live_leader()? as usize].lead()?;
        lead.assignment().slot(shard).primary
    }

    /// The answers digest of every holding of every node, node-major
    /// (`None` where a node holds nothing of a shard) — the
    /// state-equality hook for comparing two arms.
    pub fn digests(&mut self) -> Vec<Option<u64>> {
        let shards = self.nodes.len() - 1;
        self.nodes
            .iter_mut()
            .flat_map(|n| (0..shards).map(move |s| n.holding_digest(s)))
            .collect()
    }

    /// [`ClusterNode::holding_digest`] of node `id`'s holding of `shard`.
    pub fn holding_digest(&mut self, id: u64, shard: usize) -> Option<u64> {
        self.nodes[id as usize].holding_digest(shard)
    }

    fn down(&self, id: u64) -> bool {
        self.link.plan().is_down(NodeId(id as usize), self.now)
    }

    /// One request/response exchange `from → to`, with the peer pool's
    /// bounded retries ([`driver::retry`], the waits in ticks). Each
    /// attempt crosses the request; the far node serves — as its
    /// connection worker would — only what was delivered; then the
    /// response crosses. `None` after the last retry — the driver
    /// surfaces that as explicit degradation.
    fn leg(&mut self, from: u64, to: u64, req: &Request) -> Option<Response> {
        let (near, far) = (NodeId(from as usize), NodeId(to as usize));
        driver::retry(&RetryPolicy::default(), |wait| {
            self.now += wait;
            self.cross(near, far)?;
            let arrived = match self.mode {
                SimMode::Wire => decoded(&encode_request(req), decode_request),
                SimMode::Model => req.clone(),
            };
            let resp = driver::serve(&mut At { sim: self, id: to }, &arrived);
            self.cross(far, near)?;
            Some(match self.mode {
                SimMode::Wire => decoded(&encode_response(&resp), decode_response),
                SimMode::Model => resp,
            })
        })
    }

    /// One frame `from → to`, sent at the next tick and adjudicated by
    /// the [`Link`]. `Some` once it has arrived within [`RECV_DEADLINE`],
    /// the clock at its arrival. `None` when the attempt fails: a frame
    /// dropped or arriving late costs the receiver its deadline; an
    /// endpoint inside a crash window refuses it and costs nothing more.
    fn cross(&mut self, from: NodeId, to: NodeId) -> Option<()> {
        self.now += 1;
        match self.link.adjudicate(self.now, from, to) {
            Delivery::Delivered { at } if at <= self.now + RECV_DEADLINE => {
                self.now = at;
                Some(())
            }
            Delivery::Delivered { .. } | Delivery::Dropped => {
                self.now += RECV_DEADLINE;
                None
            }
            Delivery::EndpointDown => None,
        }
    }

    /// Advance the clock to the next period boundary and give every node
    /// that is up one monitor pass, in id order. The unique-leader-per-term
    /// invariant is checked after every pass.
    pub fn tick(&mut self) {
        self.now += Self::PERIOD - self.now % Self::PERIOD;
        let (peer_table, timeout) = match self.deployment {
            SimDeployment::StaticLeader => (false, 0),
            SimDeployment::PeerTable {
                election_timeout, ..
            } => (true, election_timeout * Self::PERIOD),
        };
        for id in 0..self.nodes.len() as u64 {
            if self.down(id) {
                continue;
            }
            driver::monitor_pass(&mut At { sim: self, id }, peer_table, timeout, Self::PERIOD);
            self.check_unique_leaders();
        }
    }

    fn check_unique_leaders(&mut self) {
        for n in self.nodes.iter().filter(|n| n.is_leader()) {
            let prev = self.leaders_by_term.insert(n.term(), n.id());
            assert!(
                prev.is_none() || prev == Some(n.id()),
                "two leaders for term {}: nodes {prev:?} and {}",
                n.term(),
                n.id(),
            );
        }
    }

    /// One client call, from an endpoint outside the faulted network (a
    /// node inside a crash window is silent to it, nothing else is lost):
    /// one walk of at most one question per node. `None` when no node
    /// produced a substantive answer (the caller ticks and retries).
    pub fn client(&mut self, req: &Request) -> Option<Response> {
        let n = self.nodes.len();
        let mut target = self.target;
        let answer = driver::follow_redirects(&mut target, n, |at| {
            let id = at as u64;
            (!self.down(id)).then(|| driver::serve(&mut At { sim: self, id }, req))
        });
        self.target = target;
        answer
    }

    /// Run the script, returning one client-visible outcome per step.
    pub fn run(&mut self, ops: &[SimOp]) -> Vec<Option<Response>> {
        ops.iter()
            .map(|op| match op {
                SimOp::Client(req) => self.client(req),
                SimOp::Heartbeat => {
                    self.tick();
                    self.client(&Request::Status)
                }
            })
            .collect()
    }

    /// Repeat one client call, ticking the cluster between attempts,
    /// until an answer satisfies `done` or `max_ticks` attempts are spent.
    pub fn call_until(
        &mut self,
        req: &Request,
        max_ticks: u64,
        done: impl Fn(&Response) -> bool,
    ) -> Option<Response> {
        for _ in 0..max_ticks {
            if let Some(resp) = self.client(req).filter(&done) {
                return Some(resp);
            }
            self.tick();
        }
        None
    }

    /// Retry one ingest (stable `req_id`, so retries never double-apply)
    /// until it is fully acked. Returns whether it was.
    pub fn ingest_until_acked(&mut self, req_id: u64, row: &[f64], max_ticks: u64) -> bool {
        let req = Request::Ingest {
            req_id,
            row: row.to_vec(),
        };
        let acked = |r: &Response| matches!(r, Response::IngestOk { failed_shards, .. } if failed_shards.is_empty());
        self.call_until(&req, max_ticks, acked).is_some()
    }
}

/// `frame` checked and decoded at its far end; a simulated link never
/// corrupts a frame.
fn decoded<T>(frame: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, ProtoError>) -> T {
    check_frame(frame)
        .and_then(decode)
        .expect("an intact frame decodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireHealth;
    use swat_tree::{shard_members, QueryOptions, ShardedStreamSet, StreamSet};

    fn cfg() -> SwatConfig {
        SwatConfig::with_coefficients(16, 4).unwrap()
    }

    fn static_leader(plan: FaultPlan, streams: usize, shards: usize, misses: u32) -> Sim {
        let deployment = SimDeployment::StaticLeader;
        Sim::new(
            SimMode::Wire,
            plan,
            cfg(),
            streams,
            shards,
            misses,
            deployment,
        )
    }

    fn failover_ring(plan: FaultPlan, streams: usize, shards: usize) -> Sim {
        let deployment = SimDeployment::PeerTable {
            standbys: true,
            election_timeout: 3,
        };
        Sim::new(SimMode::Wire, plan, cfg(), streams, shards, 2, deployment)
    }

    /// The digest `shard` has after `rows` rows of `row(r)`, on a store
    /// that never saw a fault.
    fn oracle_digest(
        streams: usize,
        shards: usize,
        shard: usize,
        rows: u64,
        row: impl Fn(u64) -> Vec<f64>,
    ) -> u64 {
        let members = shard_members(streams, shards, shard);
        let mut set = StreamSet::new(cfg(), members.len());
        for r in 0..rows {
            let row = row(r);
            let sub: Vec<f64> = members.iter().map(|&g| row[g]).collect();
            set.push_row(&sub);
        }
        set.answers_digest()
    }

    #[test]
    fn ideal_cluster_matches_the_sharded_oracle() {
        let (streams, shards) = (11, 3);
        let row = |r: u64| -> Vec<f64> {
            (0..streams)
                .map(|i| (((r as usize * 7 + i * 5) % 23) as f64) - 11.0)
                .collect()
        };
        let mut ops = Vec::new();
        for r in 0..40u64 {
            ops.push(SimOp::Client(Request::Ingest {
                req_id: r,
                row: row(r),
            }));
            if r % 8 == 3 {
                ops.push(SimOp::Client(Request::Point {
                    stream: r % streams as u64,
                    index: (r % 16) as u32,
                }));
            }
            if r % 16 == 7 {
                ops.push(SimOp::Client(Request::TopK { k: 4 }));
                ops.push(SimOp::Heartbeat);
            }
        }
        ops.push(SimOp::Client(Request::Status));
        let mut cluster = static_leader(FaultPlan::none(), streams, shards, 3);
        let outcomes = cluster.run(&ops);

        // Every ingest fully applied; every query answered; top-k
        // bit-identical to the oracle's merge.
        let mut oracle = ShardedStreamSet::new(cfg(), streams, shards);
        for (op, out) in ops.iter().zip(outcomes) {
            let out = out.expect("node 0 is never silent");
            match op {
                SimOp::Client(Request::Ingest { req_id, row }) => {
                    oracle.push_row(row);
                    assert_eq!(
                        out,
                        Response::IngestOk {
                            req_id: *req_id,
                            duplicate: false,
                            failed_shards: vec![]
                        }
                    );
                }
                SimOp::Client(Request::Point { stream, index }) => {
                    let want = oracle
                        .tree(*stream as usize)
                        .point_with(*index as usize, QueryOptions::default())
                        .unwrap();
                    match out {
                        Response::PointR { answer } => {
                            assert_eq!(answer.value.to_bits(), want.value.to_bits())
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                SimOp::Client(Request::TopK { k }) => {
                    let (want, _) = oracle.global_top_k(*k as usize, 1);
                    assert_eq!(
                        out,
                        Response::TopKR {
                            complete: true,
                            entries: want.entries().to_vec()
                        }
                    );
                }
                // A heartbeat round's outcome is the leader's status.
                _ => match out {
                    Response::StatusR { replicas, .. } => {
                        assert_eq!(replicas.len(), shards);
                        assert!(replicas.iter().all(|(_, h)| *h == WireHealth::Alive));
                    }
                    other => panic!("unexpected {other:?}"),
                },
            }
        }
        // Final state bit-identical to the oracle.
        for s in 0..shards {
            assert_eq!(
                cluster.holding_digest(s as u64 + 1, s),
                Some(oracle_digest(streams, shards, s, 40, row))
            );
        }
    }

    #[test]
    fn crashed_replica_degrades_explicitly_and_recovers() {
        let (streams, shards) = (8, 2);
        // Replica 2 (shard 1) is down for a window mid-run.
        let plan = FaultPlan::new(7).with_crash(NodeId(2), 40, 4000).unwrap();
        let mut cluster = static_leader(plan, streams, shards, 2);
        let mut saw_failed_shard = false;
        let mut saw_ok = false;
        for r in 0..30u64 {
            let row: Vec<f64> = (0..streams).map(|i| (r as usize + i) as f64).collect();
            match cluster.client(&Request::Ingest { req_id: r, row }) {
                Some(Response::IngestOk { failed_shards, .. }) => {
                    if failed_shards.is_empty() {
                        saw_ok = true;
                    } else {
                        assert_eq!(failed_shards, vec![1], "only shard 1 can fail");
                        saw_failed_shard = true;
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_ok, "early rows must apply everywhere");
        assert!(saw_failed_shard, "the crash window must surface");
        // Heartbeats keep the replica dead in the registry, and a static
        // leader repairs nothing: the shard keeps its primary.
        for _ in 0..3 {
            cluster.tick();
        }
        let lead = cluster.node(0).lead().expect("node 0 leads");
        assert_eq!(lead.registry().health(2), WireHealth::Dead);
        assert_eq!(lead.assignment().slot(1).primary, Some(2));
        assert_eq!(cluster.leader_terms().len(), 1);
    }

    /// A quiet failover ring behaves exactly like the static one: rows
    /// ack, digests match the oracle, node 0 keeps term 0.
    #[test]
    fn a_quiet_ring_never_elects() {
        let (streams, shards) = (8, 2);
        let row = |r: u64| -> Vec<f64> {
            (0..streams)
                .map(|i| ((r * 5 + i as u64) % 13) as f64)
                .collect()
        };
        let mut sim = failover_ring(FaultPlan::none(), streams, shards);
        for r in 0..25u64 {
            assert!(sim.ingest_until_acked(r, &row(r), 10), "row {r} must ack");
            sim.tick();
        }
        assert_eq!(sim.live_leader(), Some(0));
        assert_eq!(sim.leader_terms().len(), 1, "no elections happened");
        for shard in 0..shards {
            let p = sim.primary_of(shard).unwrap();
            assert_eq!(
                sim.holding_digest(p, shard),
                Some(oracle_digest(streams, shards, shard, 25, row)),
                "shard {shard} primary diverged from the oracle"
            );
        }
    }

    /// Kill the leader mid-run: a replica claims the next term, the
    /// cluster re-forms, and every acked row survives — digests of the
    /// serving copies match a never-crashed oracle over the acked rows.
    #[test]
    fn a_leader_kill_is_survived() {
        let (streams, shards) = (8, 2);
        let row = |r: u64| -> Vec<f64> {
            (0..streams)
                .map(|i| ((r * 3 + i as u64) % 11) as f64)
                .collect()
        };
        let plan = FaultPlan::new(3)
            .with_crash_any(NodeId(0), 4 * Sim::PERIOD, u64::MAX)
            .unwrap();
        let mut sim = failover_ring(plan, streams, shards);
        for r in 0..30u64 {
            assert!(sim.ingest_until_acked(r, &row(r), 60), "row {r} must ack");
            // One period of real time between rows, so the crash window
            // opens mid-workload.
            sim.tick();
        }
        // Node 1 (lowest live id) took over on some term ≡ 1 (mod 3).
        let leader = sim.live_leader().expect("a live leader");
        assert_eq!(leader, 1);
        assert_eq!(sim.node(leader).term() % 3, 1);
        // An election happened; no term ever had two leaders (the sim
        // asserts that invariant after every pass).
        assert!(sim.leader_terms().len() >= 2, "an election must happen");
        // Every acked row is in the serving copies.
        for shard in 0..shards {
            let p = sim.primary_of(shard).expect("every shard serves");
            assert_eq!(
                sim.holding_digest(p, shard),
                Some(oracle_digest(streams, shards, shard, 30, row)),
                "shard {shard} lost acked rows across the failover"
            );
        }
        // Queries answer after the failover.
        let point = Request::Point {
            stream: 1,
            index: 2,
        };
        assert!(matches!(
            sim.call_until(&point, 20, |r| !matches!(r, Response::Unavailable { .. })),
            Some(Response::PointR { .. })
        ));
    }

    /// What one run of [`pinned_script`] leaves behind: the clock, a
    /// CRC of every outcome's encoded bytes, every `(term, leader)` pair
    /// and a CRC of every holding's digest.
    #[derive(Debug, PartialEq, Eq)]
    struct Fingerprint {
        now: u64,
        outcomes: u32,
        leaders: Vec<(u64, u64)>,
        digests: u32,
    }

    /// Ingests, point queries, top-k and heartbeat rounds over 8 streams.
    fn pinned_script() -> Vec<SimOp> {
        let mut ops = Vec::new();
        for r in 0..36u64 {
            let row = (0..8)
                .map(|i| ((r * 7 + i * 3) % 19) as f64 - 9.0)
                .collect();
            ops.push(SimOp::Client(Request::Ingest { req_id: r, row }));
            if r % 5 == 2 {
                ops.push(SimOp::Client(Request::Point {
                    stream: r % 8,
                    index: (r % 16) as u32,
                }));
            }
            if r % 9 == 4 {
                ops.push(SimOp::Client(Request::TopK { k: 3 }));
            }
            if r % 2 == 1 {
                ops.push(SimOp::Heartbeat);
            }
        }
        ops
    }

    fn fingerprint(mut sim: Sim) -> Fingerprint {
        let mut bytes = Vec::new();
        for outcome in sim.run(&pinned_script()) {
            match outcome {
                Some(resp) => bytes.extend(encode_response(&resp)),
                None => bytes.push(0xFF),
            }
        }
        let digests: Vec<u8> = sim
            .digests()
            .iter()
            .flat_map(|d| d.map_or([0xFF; 8], u64::to_le_bytes))
            .collect();
        Fingerprint {
            now: sim.now(),
            outcomes: swat_tree::codec::crc32(&bytes),
            leaders: sim.leader_terms().iter().map(|(&t, &l)| (t, l)).collect(),
            digests: swat_tree::codec::crc32(&digests),
        }
    }

    /// The simulator's schedule, pinned: the fault RNG consumed and the
    /// clock advanced exactly as by the code these constants were
    /// recorded from, in both arms: with no faults; with drops and
    /// delays; with delays past the receive deadline; and with a primary,
    /// then the leader, of a standby ring crashed for a while.
    #[test]
    fn the_schedule_replays_the_recorded_fingerprint() {
        let lossy = || {
            let delay = swat_net::DelayDist::Uniform { lo: 0, hi: 6 };
            let plan = FaultPlan::new(11).with_drop(0.2).unwrap();
            plan.with_delay(delay).unwrap()
        };
        // Delays past the receive deadline: late frames.
        let late = || {
            let delay = swat_net::DelayDist::Uniform { lo: 0, hi: 12 };
            FaultPlan::new(17).with_delay(delay).unwrap()
        };
        let crash = |node| {
            let window = (4 * Sim::PERIOD, 14 * Sim::PERIOD);
            let plan = FaultPlan::new(5).with_crash_any(NodeId(node), window.0, window.1);
            plan.unwrap()
        };
        let ring = SimDeployment::PeerTable {
            standbys: true,
            election_timeout: 3,
        };
        let pin = |now, outcomes, leaders: &[(u64, u64)], digests| Fingerprint {
            now,
            outcomes,
            leaders: leaders.to_vec(),
            digests,
        };
        let static_leader = SimDeployment::StaticLeader;
        let cases = [
            (
                "none",
                FaultPlan::none(),
                static_leader,
                3,
                pin(582, 634475762, &[(0, 0)], 2764134622),
            ),
            (
                "lossy",
                lossy(),
                static_leader,
                3,
                pin(3915, 3760719945, &[(0, 0)], 2764134622),
            ),
            (
                "late",
                late(),
                static_leader,
                3,
                pin(6112, 3409700213, &[(0, 0)], 577419683),
            ),
            (
                "lossy ring",
                lossy(),
                ring,
                2,
                pin(4192, 2569225843, &[(0, 0)], 3394845801),
            ),
            (
                "primary crash ring",
                crash(1),
                ring,
                2,
                pin(868, 549773504, &[(0, 0)], 195685155),
            ),
            (
                "leader crash ring",
                crash(0),
                ring,
                2,
                pin(772, 1189944451, &[(0, 0), (1, 1)], 1926788669),
            ),
        ];
        for (name, plan, deployment, shards, want) in cases {
            for mode in [SimMode::Wire, SimMode::Model] {
                let sim = Sim::new(mode, plan.clone(), cfg(), 8, shards, 2, deployment);
                assert_eq!(fingerprint(sim), want, "{name}, {mode:?} arm");
            }
        }
    }
}
