//! The protocol loops, once: the request cycle (plan, one round of legs,
//! merge — for every data request, the distributed top-k included), the
//! monitor pass and the client's redirect loop, written against
//! [`ClusterNode`] and a [`Fabric`]; and the bounded retries of one leg,
//! which the TCP peer pool and the simulator run.
//!
//! [`ClusterNode`] and [`LeaderCore`] decide; something has to carry
//! their plans to other nodes and bring the answers back. That something
//! is the only thing a deployment supplies: the TCP server implements
//! [`Fabric`] over its `Mutex<ClusterNode>` and `PeerPool`, the
//! simulator over its node table and a fault-injected `swat_net::Link`,
//! the tests over a vector of nodes in memory. Everything with a protocol
//! decision in it — which legs are skipped, what the registry learns from
//! a leg, when a leader steps down, when a follower claims — is below, so
//! the simulator's properties are properties of the code `swatd` runs.
//!
//! Node access and I/O never nest: [`Fabric::with_node`] hands a closure
//! the node and nothing else, and every loop here alternates *decide
//! under the node* → *one round of I/O* → *absorb under the node*.

use swat_replication::RetryPolicy;

use crate::cluster::{stale_term_in, LeaderCore, PeerCall, Plan};
use crate::node::ClusterNode;
use crate::proto::{ErrorCode, Request, Response, WireHealth};

/// What a deployment supplies to the loops of this module.
pub trait Fabric {
    /// Run `f` on this node's state. `None` when the state cannot be
    /// reached any more (the server's node lock is poisoned); the loops
    /// answer `ErrorR { Internal }` or stop.
    fn with_node<R>(&mut self, f: impl FnOnce(&mut ClusterNode) -> R) -> Option<R>;

    /// One round of remote I/O: deliver `legs[i].1` to node `legs[i].0`,
    /// slot `i` of the result its answer — `None` once the fabric's
    /// bounded retries are spent. Never called with a leg to this node.
    fn exchange(&mut self, legs: &[(u64, &Request)]) -> Vec<Option<Response>>;

    /// The clock, in the fabric's own units (the server: milliseconds
    /// since it started; the simulator: ticks of its network).
    fn now(&self) -> u64;
}

const INTERNAL: Response = Response::ErrorR {
    code: ErrorCode::Internal,
};

fn not_leader(node: &ClusterNode) -> Response {
    Response::NotLeaderR {
        leader: node.leader_id(),
        term: node.term(),
    }
}

/// Deliver one round; slot `i` of the result answers `legs[i]`. One node
/// access serves the self-routed legs and — with `skip_dead` — drops
/// peers the registry already holds `Dead` (no connect timeout is burnt
/// on them; heartbeats must not skip, or the dead could never rejoin),
/// one [`Fabric::exchange`] carries the rest, and one node access books
/// every remote leg's outcome in the registry.
pub fn deliver<F: Fabric>(
    fabric: &mut F,
    legs: &[(u64, &Request)],
    skip_dead: bool,
) -> Vec<Option<Response>> {
    let mut results: Vec<Option<Response>> = vec![None; legs.len()];
    let mut remote = Vec::with_capacity(legs.len());
    let served = fabric.with_node(|node| {
        for (i, &(to, req)) in legs.iter().enumerate() {
            if to == node.id() {
                results[i] = Some(node.handle(req));
            } else if !(skip_dead && health_of(node, to) == Some(WireHealth::Dead)) {
                remote.push(i);
            }
        }
    });
    if served.is_none() {
        return results;
    }
    let wire: Vec<(u64, &Request)> = remote.iter().map(|&i| legs[i]).collect();
    let answers = fabric.exchange(&wire);
    fabric.with_node(|node| {
        let Some(lead) = node.lead_mut() else {
            return;
        };
        for (&(to, _), answer) in wire.iter().zip(&answers) {
            if !lead.registry().tracks(to) {
                continue;
            }
            if answer.is_some() {
                lead.registry_mut().record_success(to);
            } else {
                lead.registry_mut().record_failure(to);
            }
        }
    });
    for (i, answer) in remote.into_iter().zip(answers) {
        results[i] = answer;
    }
    results
}

/// `peer`'s health in the registry, when `node` leads and tracks it.
fn health_of(node: &ClusterNode, peer: u64) -> Option<WireHealth> {
    let registry = node.lead()?.registry();
    registry.tracks(peer).then(|| registry.health(peer))
}

/// One planned round, the known-dead skipped; then the fence check that
/// follows it: a `StaleTermR` anywhere in it means someone leads a newer
/// term, so the node adopts it (a forged pair it refuses) and the request
/// ends in a redirect drawn from the node's own view — before any merge
/// touches a core that may just have been dropped.
fn round<F: Fabric>(fabric: &mut F, calls: &[PeerCall]) -> Result<Vec<Option<Response>>, Response> {
    let results = deliver_calls(fabric, calls);
    match stale_term_in(&results) {
        None => Ok(results),
        Some((term, leader)) => {
            let now = fabric.now();
            Err(fabric
                .with_node(|node| {
                    node.observe_stale_term(term, leader);
                    restart_clock_if_deposed(node, now);
                    not_leader(node)
                })
                .unwrap_or(INTERNAL))
        }
    }
}

/// A node the driver just stepped down restarts its election clock, so it
/// waits a full election timeout before it claims again — not the clock
/// it had before it led, which would let it claim at its next pass.
fn restart_clock_if_deposed(node: &mut ClusterNode, now: u64) {
    if !node.is_leader() {
        node.note_leader_contact(now);
    }
}

/// Run `f` on the leader core; if the node stopped leading since the
/// plan was made, the redirect to answer with instead.
fn with_lead<F: Fabric, R>(
    fabric: &mut F,
    f: impl FnOnce(&mut LeaderCore) -> R,
) -> Result<R, Response> {
    fabric
        .with_node(|node| match node.lead_mut() {
            Some(lead) => Ok(f(lead)),
            None => Err(not_leader(node)),
        })
        .unwrap_or(Err(INTERNAL))
}

/// First half of [`serve`], one node access. A client data request on a
/// leading node is planned ([`Plan::Fan`]: pass the calls to [`finish`];
/// the server reserves its in-flight tokens in between and sheds before
/// anything is sent). Everything else is answered by
/// [`ClusterNode::handle`], and accepted traffic of the current leader
/// resets the election clock.
pub fn plan<F: Fabric>(fabric: &mut F, req: &Request) -> Plan {
    let from_leader = matches!(
        req,
        Request::Fenced { .. }
            | Request::NewTerm { .. }
            | Request::Replicate { .. }
            | Request::FetchShard { .. }
            | Request::InstallShard { .. }
            | Request::Promote { .. }
    );
    let heard_at = from_leader.then(|| fabric.now());
    let data = matches!(
        req,
        Request::Ingest { .. }
            | Request::Point { .. }
            | Request::Range { .. }
            | Request::TopK { .. }
    );
    fabric
        .with_node(|node| {
            if let Some(lead) = node.lead().filter(|_| data) {
                return lead.plan(req);
            }
            let resp = node.handle(req);
            let accepted = !matches!(resp, Response::StaleTermR { .. });
            if let Some(at) = heard_at.filter(|_| accepted) {
                node.note_leader_contact(at);
            }
            Plan::Done(resp)
        })
        .unwrap_or(Plan::Done(INTERNAL))
}

/// Second half of [`serve`]: deliver the planned round and merge. Every
/// data request is one round, the distributed top-k included (shards own
/// disjoint streams, so the merged local top-k lists are the answer).
/// Stepping down mid-request — fenced out by the round, or deposed by a
/// claim handled meanwhile — ends in a `NotLeaderR` redirect, never in a
/// wrong or silently partial answer.
pub fn finish<F: Fabric>(fabric: &mut F, req: &Request, calls: &[PeerCall]) -> Response {
    merge(fabric, req, calls).unwrap_or_else(|redirect| redirect)
}

fn merge<F: Fabric>(
    fabric: &mut F,
    req: &Request,
    calls: &[PeerCall],
) -> Result<Response, Response> {
    let results = round(fabric, calls)?;
    match req {
        Request::Ingest { req_id, .. } => {
            with_lead(fabric, |lead| lead.finish_ingest(*req_id, calls, &results))
        }
        Request::Point { .. } | Request::Range { .. } => {
            // invariant: a routed plan is exactly one call.
            let result = results.into_iter().next().flatten();
            with_lead(fabric, |lead| lead.finish_routed(&calls[0], result))
        }
        Request::TopK { k } => with_lead(fabric, |lead| lead.finish_topk(*k, calls, &results, &[])),
        // invariant: `plan` fans the four data requests only.
        _ => Err(INTERNAL),
    }
}

/// Serve one request at this node. Total: every input maps to exactly
/// one response.
pub fn serve<F: Fabric>(fabric: &mut F, req: &Request) -> Response {
    match plan(fabric, req) {
        Plan::Done(resp) => resp,
        Plan::Fan(calls) => finish(fabric, req, &calls),
    }
}

/// One pass of a node's monitor, run once per `period`.
///
/// While leading: a term-fenced heartbeat to every peer, one peer at a
/// time, never skipping the dead (that is how they rejoin) — the
/// outcomes land in the registry through [`deliver`]. A `StaleTermR`
/// among the answers ends the pass in a step-down. Then, only where
/// every node holds the full peer table (`peer_table`): one repair round
/// (promote around the dead, re-anchor epochs) and at most one step of
/// re-seeding a standby.
///
/// While following, with a peer table: once the leader has been silent
/// for `election_timeout + id × period`, probe every lower id — any
/// answer defers to it, so the lowest live id wins without a vote — and
/// otherwise claim the next owned term, fan the claim out, and deliver
/// the `Promote` round the rebuilt assignment asks for.
///
/// `None` when the node state is gone: the caller stops monitoring,
/// heartbeats cease, and the cluster fails over around this node.
pub fn monitor_pass<F: Fabric>(
    fabric: &mut F,
    peer_table: bool,
    election_timeout: u64,
    period: u64,
) -> Option<()> {
    let now = fabric.now();
    let (id, peers, heartbeat, last_contact) = fabric.with_node(|node| {
        (
            node.id(),
            node.peer_ids(),
            // The clock reading doubles as the round's nonce.
            node.lead().map(|lead| lead.heartbeat(now)),
            node.leader_contact(),
        )
    })?;
    if let Some(heartbeat) = heartbeat {
        let answers: Vec<Option<Response>> = peers
            .iter()
            .flat_map(|&peer| deliver(fabric, &[(peer, &heartbeat)], false))
            .collect();
        if let Some((term, leader)) = stale_term_in(&answers) {
            fabric.with_node(|node| node.observe_stale_term(term, leader))?;
        } else if peer_table {
            let calls = fabric.with_node(|node| node.repair_plan())?;
            if !calls.is_empty() {
                repair_round(fabric, &calls)?;
            }
            if let Some(fetch) = fabric.with_node(|node| node.rejoin_plan())? {
                let results = deliver_calls(fabric, &fetch);
                let install = fabric.with_node(|node| node.finish_fetch(&fetch, &results))?;
                if let Some(install) = install {
                    let result = deliver_calls(fabric, std::slice::from_ref(&install)).pop();
                    fabric.with_node(|node| node.finish_install(result.flatten()))?;
                }
            }
        }
        // A heartbeat, repair, fetch or install answer may have fenced it.
        let at = fabric.now();
        fabric.with_node(|node| restart_clock_if_deposed(node, at))?;
    } else if peer_table {
        if now.saturating_sub(last_contact) < election_timeout + id * period {
            return Some(());
        }
        let lower_alive =
            (0..id).any(|n| deliver(fabric, &[(n, &Request::Status)], false)[0].is_some());
        if !lower_alive {
            let Ok(claim) = fabric.with_node(|node| node.begin_claim())? else {
                // The term record would not persist: claiming is unsafe
                // (monotonicity could break across a restart).
                return Some(());
            };
            let legs: Vec<(u64, &Request)> = peers.iter().map(|&p| (p, &claim)).collect();
            let reports: Vec<(u64, Option<Response>)> = peers
                .iter()
                .copied()
                .zip(deliver(fabric, &legs, false))
                .collect();
            if let Some(calls) = fabric.with_node(|node| node.finish_claim(&reports))? {
                repair_round(fabric, &calls)?;
            }
        }
        let at = fabric.now();
        fabric.with_node(|node| node.note_leader_contact(at))?;
    }
    Some(())
}

/// One round of planned calls, the known-dead skipped. Outside a client
/// request nothing checks it for fences: `finish_repair` and friends
/// absorb `StaleTermR` themselves.
fn deliver_calls<F: Fabric>(fabric: &mut F, calls: &[PeerCall]) -> Vec<Option<Response>> {
    let legs: Vec<(u64, &Request)> = calls.iter().map(|c| (c.node, &c.request)).collect();
    deliver(fabric, &legs, true)
}

fn repair_round<F: Fabric>(fabric: &mut F, calls: &[PeerCall]) -> Option<()> {
    let results = deliver_calls(fabric, calls);
    fabric.with_node(|node| node.finish_repair(calls, &results))
}

/// A client's walk over an `n`-node cluster, at most `n` questions: ask
/// the remembered `target`; a `NotLeaderR` hint moves there, unless it
/// names the node just asked — an election is in progress — and then, as
/// after silence (`ask` returned `None`), the next node is tried. Returns
/// the first answer that is not a redirect; `target` stays where the walk
/// ended, for the next call.
pub fn follow_redirects(
    target: &mut usize,
    n: usize,
    mut ask: impl FnMut(usize) -> Option<Response>,
) -> Option<Response> {
    for _ in 0..n {
        *target = match ask(*target) {
            Some(Response::NotLeaderR { leader, .. }) if leader as usize % n != *target => {
                leader as usize % n
            }
            Some(Response::NotLeaderR { .. }) | None => (*target + 1) % n,
            Some(answer) => return Some(answer),
        };
    }
    None
}

/// The bounded retries of one leg: up to `policy.max_retries + 1` tries,
/// ending at the first answer; `None` once every try has failed. `try_once`
/// is given the wait that precedes its try — 0 for the first, then
/// [`RetryPolicy::backoff`]`(n)` for try `n` — and spends it in its own
/// units: the peer pool sleeps milliseconds, the simulator advances its
/// clock by ticks.
pub(crate) fn retry<T>(policy: &RetryPolicy, try_once: impl FnMut(u64) -> Option<T>) -> Option<T> {
    (0..=policy.max_retries)
        .map(|n| if n == 0 { 0 } else { policy.backoff(n) })
        .find_map(try_once)
}

/// The in-memory fabric of this crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use std::collections::VecDeque;

    use swat_tree::SwatConfig;

    use super::*;

    /// A cluster in one vector, no network: a leg is `handle` on its
    /// target — unless a scripted round is queued, which answers the next
    /// [`Fabric::exchange`] verbatim.
    pub(crate) struct Mem {
        pub nodes: Vec<ClusterNode>,
        /// The node the fabric currently belongs to.
        pub at: usize,
        pub script: VecDeque<Vec<Option<Response>>>,
        pub now: u64,
    }

    impl Mem {
        /// Node 0 leading nodes 1 and 2: eight streams on two shards,
        /// standbys on, a peer `Dead` after two misses.
        pub fn ring() -> Mem {
            let cfg = SwatConfig::with_coefficients(16, 4).expect("static config");
            Mem {
                nodes: vec![
                    ClusterNode::bootstrap_leader(cfg, 8, 2, 2, true),
                    ClusterNode::replica(1, cfg, 8, 2, 2, true),
                    ClusterNode::replica(2, cfg, 8, 2, 2, true),
                ],
                at: 0,
                script: VecDeque::new(),
                now: 0,
            }
        }

        /// One client request through the node at `at`.
        pub fn serve_at(&mut self, at: usize, req: &Request) -> Response {
            self.at = at;
            serve(self, req)
        }
    }

    impl Fabric for Mem {
        fn with_node<R>(&mut self, f: impl FnOnce(&mut ClusterNode) -> R) -> Option<R> {
            Some(f(&mut self.nodes[self.at]))
        }

        fn exchange(&mut self, legs: &[(u64, &Request)]) -> Vec<Option<Response>> {
            if let Some(round) = self.script.pop_front() {
                assert_eq!(round.len(), legs.len(), "scripted round fits the legs");
                return round;
            }
            legs.iter()
                .map(|&(to, req)| {
                    let node = self.nodes.iter_mut().find(|n| n.id() == to);
                    node.map(|n| n.handle(req))
                })
                .collect()
        }

        fn now(&self) -> u64 {
            self.now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Mem;
    use super::*;
    use swat_tree::SwatConfig;

    fn cfg() -> SwatConfig {
        SwatConfig::with_coefficients(16, 4).unwrap()
    }

    /// A leader fenced out by its top-k legs steps down and redirects
    /// instead of answering `TopKR { complete: false }` and leading on
    /// until its next heartbeat.
    #[test]
    fn a_leader_fenced_out_by_its_top_k_legs_steps_down_and_redirects() {
        let mut mem = Mem::ring();
        // Term 1 of a 3-node cluster is node 1's to claim.
        let fenced = Some(Response::StaleTermR { term: 1, leader: 1 });
        mem.script.push_back(vec![fenced.clone(), fenced]);
        assert_eq!(
            mem.serve_at(0, &Request::TopK { k: 2 }),
            Response::NotLeaderR { leader: 1, term: 1 }
        );
        assert!(!mem.nodes[0].is_leader());
        assert!(mem.script.is_empty(), "the one round was delivered");
    }

    /// A deposed leader keeps quiet for a full election timeout from its
    /// step-down, then claims a silent cluster (term 3).
    #[test]
    fn a_fenced_out_leader_waits_a_full_election_timeout_before_it_claims() {
        let fenced = Some(Response::StaleTermR { term: 1, leader: 1 });
        // Fenced out by the legs of a client request...
        let mut mem = Mem::ring();
        mem.now = 1_000;
        mem.script.push_back(vec![fenced.clone(); 4]);
        let row = Request::Ingest {
            req_id: 0,
            row: vec![1.0; 8],
        };
        assert_eq!(
            mem.serve_at(0, &row),
            Response::NotLeaderR { leader: 1, term: 1 }
        );
        // ...or by its own heartbeats, one round per peer.
        let mut beat = Mem::ring();
        beat.now = 1_000;
        beat.script.push_back(vec![fenced.clone()]);
        beat.script.push_back(vec![fenced]);
        monitor_pass(&mut beat, true, 100, 1).unwrap();
        for mem in [&mut mem, &mut beat] {
            assert!(!mem.nodes[0].is_leader());
            mem.now = 1_050;
            monitor_pass(mem, true, 100, 1).unwrap();
            assert_eq!(mem.nodes[0].term(), 1, "no claim inside the timeout");
            mem.now = 1_100;
            monitor_pass(mem, true, 100, 1).unwrap();
            assert_eq!(mem.nodes[0].term(), 3, "a silent cluster is re-claimed");
        }
    }

    #[test]
    fn a_forged_fence_redirects_from_the_nodes_own_view_and_merges_nothing() {
        let mut mem = Mem::ring();
        // Node 2 cannot own term 1: the pair is refused.
        let forged = Some(Response::StaleTermR { term: 1, leader: 2 });
        mem.script
            .push_back(vec![forged.clone(), forged.clone(), forged.clone(), forged]);
        let row = Request::Ingest {
            req_id: 0,
            row: vec![1.0; 8],
        };
        assert_eq!(
            mem.serve_at(0, &row),
            Response::NotLeaderR { leader: 0, term: 0 }
        );
        let lead = mem.nodes[0].lead_mut().expect("still leading");
        // `finish_ingest` would have booked every refusing primary here.
        assert!(lead.take_primary_faults().is_empty(), "no merge ran");
    }

    #[test]
    fn a_leader_refuses_an_infinite_value_before_any_leg_is_sent() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 5, 7] {
                let mut mem = Mem::ring();
                // A round no leg may consume: any exchange would take it.
                mem.script.push_back(Vec::new());
                let mut row = vec![1.0; 8];
                row[at] = bad;
                assert_eq!(
                    mem.serve_at(0, &Request::Ingest { req_id: 0, row }),
                    Response::ErrorR {
                        code: ErrorCode::BadRequest
                    },
                    "{bad} at {at}"
                );
                assert_eq!(mem.script.len(), 1, "no exchange ran");
                for replica in &mem.nodes[1..] {
                    assert_eq!(replica.arrivals(), 0);
                }
            }
        }
    }

    #[test]
    fn a_leaders_status_counts_its_acked_rows() {
        let mut mem = Mem::ring();
        for req_id in 0..3 {
            let row = Request::Ingest {
                req_id,
                row: vec![1.0; 8],
            };
            assert!(matches!(
                mem.serve_at(0, &row),
                Response::IngestOk { ref failed_shards, .. } if failed_shards.is_empty()
            ));
        }
        match mem.serve_at(0, &Request::Status) {
            Response::StatusR { arrivals, .. } => assert_eq!(arrivals, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn every_remote_leg_lands_in_the_registry_and_the_dead_are_skipped() {
        let mut mem = Mem::ring();
        mem.nodes.truncate(2); // node 2 is gone: its legs go unanswered
        let row = |req_id| Request::Ingest {
            req_id,
            row: vec![1.0; 8],
        };
        // Each shard has one of its two legs on node 2.
        match mem.serve_at(0, &row(0)) {
            Response::IngestOk { failed_shards, .. } => assert_eq!(failed_shards, [0, 1]),
            other => panic!("unexpected {other:?}"),
        }
        let health = |mem: &Mem| mem.nodes[0].lead().unwrap().registry().health(2);
        assert_eq!(health(&mem), WireHealth::Dead, "two missed legs");
        // Dead peers are dropped before the exchange: the next round has
        // only node 1's two legs.
        let ok = Some(Response::IngestOk {
            req_id: 1,
            duplicate: false,
            failed_shards: vec![],
        });
        mem.script.push_back(vec![ok.clone(), ok]);
        mem.serve_at(0, &row(1));
        assert!(mem.script.is_empty());
        // A heartbeat round does not skip, which is how node 2 comes back.
        mem.nodes
            .push(ClusterNode::replica(2, cfg(), 8, 2, 2, true));
        monitor_pass(&mut mem, false, 0, 1).unwrap();
        assert_eq!(health(&mem), WireHealth::Alive);
    }

    #[test]
    fn a_silent_leader_is_replaced_by_the_lowest_live_id() {
        let mut mem = Mem::ring();
        mem.nodes.remove(0); // the leader is gone
        let (timeout, period) = (10, 2);
        // Node 2's patience is timeout + 2 × period: not yet at 13.
        mem.now = 13;
        mem.at = 1; // node 2
        monitor_pass(&mut mem, true, timeout, period).unwrap();
        assert!(!mem.nodes[1].is_leader());
        // At 14 it probes the lower ids, finds node 1 alive and defers.
        mem.now = 14;
        monitor_pass(&mut mem, true, timeout, period).unwrap();
        assert!(!mem.nodes[1].is_leader());
        assert_eq!(mem.nodes[1].leader_contact(), 14);
        // Node 1 has nobody alive below it: it claims term 1 and node 2
        // follows.
        mem.at = 0; // node 1
        monitor_pass(&mut mem, true, timeout, period).unwrap();
        assert!(mem.nodes[0].is_leader());
        assert_eq!((mem.nodes[1].term(), mem.nodes[1].leader_id()), (1, 1));
        // Without a peer table nobody ever claims.
        let mut quiet = Mem::ring();
        quiet.nodes.remove(0);
        quiet.now = 1_000;
        monitor_pass(&mut quiet, false, timeout, period).unwrap();
        assert!(!quiet.nodes[0].is_leader());
    }

    #[test]
    fn the_redirect_walk_follows_hints_and_steps_past_silence() {
        let mut asked = Vec::new();
        let mut target = 0;
        let answer = follow_redirects(&mut target, 3, |at| {
            asked.push(at);
            match at {
                0 => None, // silent: try the next node
                1 => Some(Response::NotLeaderR { leader: 2, term: 2 }),
                _ => Some(Response::Overloaded),
            }
        });
        assert_eq!((answer, target), (Some(Response::Overloaded), 2));
        assert_eq!(asked, [0, 1, 2]);
        // A hint naming the node just asked means "election in progress".
        let mut target = 1;
        let redirect = Response::NotLeaderR { leader: 1, term: 0 };
        assert_eq!(
            follow_redirects(&mut target, 3, |_| Some(redirect.clone())),
            None
        );
        assert_eq!(target, 2, "1 → 2, hinted back to 1, → 2: one question each");
    }

    /// Every try fails: `max_retries + 1` tries, the first unwaited and
    /// try `n` after `backoff(n)`. One answer ends the loop at once.
    #[test]
    fn retry_waits_the_backoff_before_each_retry_and_stops_at_the_first_answer() {
        for max_retries in [0, 2, 4] {
            let policy = RetryPolicy {
                max_retries,
                timeout: 3,
            };
            let mut waits = Vec::new();
            let none = retry(&policy, |wait| {
                waits.push(wait);
                None::<()>
            });
            assert_eq!(none, None);
            let want: Vec<u64> = std::iter::once(0)
                .chain((1..=max_retries).map(|n| policy.backoff(n)))
                .collect();
            assert_eq!(waits, want, "max_retries {max_retries}");

            for answer_at in 0..=max_retries as usize {
                let mut tries = 0;
                let got = retry(&policy, |_| {
                    tries += 1;
                    (tries > answer_at).then_some(tries)
                });
                assert_eq!(got, Some(answer_at + 1));
                assert_eq!(tries, answer_at + 1, "no try after the answer");
            }
        }
    }
}
