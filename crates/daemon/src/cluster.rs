//! The leader core: sans-io request planning and result merging.
//!
//! The leader owns no stream data it is not also hosting as a regular
//! holding. It routes: ingest rows split into per-shard sub-rows (one
//! fenced leg to the shard's primary, one `Replicate` leg to its
//! standby), point/range queries route to the owning shard's primary,
//! and the distributed top-k is one round: a `LocalTopK` to every
//! shard's primary, the answers ranked together in one batch — the merge
//! `ShardedStreamSet::global_top_k` runs in-process, so a daemon cluster
//! and the in-process oracle produce bit-identical answers. One round is
//! exact because shards own disjoint streams (`swat_tree::shard`'s
//! module docs give the argument).
//!
//! Everything leaving the leader is stamped with its term (and, for
//! shard traffic, the shard's configuration epoch) via
//! [`Request::Fenced`]. A holder that has moved on answers
//! `StaleTermR` / `StaleEpochR`; the merge functions treat both as
//! failures *and* record what they imply (step down; refresh the
//! holder's epoch; drop the faulty standby), so the repair loop can act
//! without the merge path doing I/O.
//!
//! Like [`crate::replica::ReplicaNode`], everything here is pure state
//! and planning: [`crate::driver`] drives the [`LeaderCore`] for the TCP
//! server and the deterministic simulator alike, which differ only in
//! how planned peer requests cross to the holders (their
//! [`crate::driver::Fabric`]). A peer exchange either yields the
//! holder's [`Response`] or `None` (unreachable after bounded retries /
//! shed / dead) — the merge functions turn `None` into *explicit*
//! degradation: `failed_shards`, `Unavailable`, or `complete: false`,
//! never a silent gap.

use std::collections::BTreeSet;
use std::ops::Range;

use swat_tree::{all_finite, shard_of, shard_range};
use swat_wavelet::TopKSummary;

use crate::failover::Assignment;
use crate::proto::{ErrorCode, Request, Response, MAX_TOP_K, NO_SHARD};
use crate::registry::ReplicaRegistry;

/// The global↔shard partition every node agrees on: shard `s` owns the
/// contiguous stream range [`shard_range`] gives it.
#[derive(Debug, Clone)]
pub struct ShardMap {
    streams: usize,
    shards: usize,
}

impl ShardMap {
    /// The partition of `streams` streams over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(streams: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardMap { streams, shards }
    }

    /// Total global streams.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning global stream `g`, if in range.
    pub fn owner_of(&self, g: u64) -> Option<usize> {
        (g < self.streams as u64).then(|| shard_of(g, self.streams, self.shards))
    }

    /// Global stream ids shard `s` owns.
    pub fn members(&self, s: usize) -> Range<usize> {
        shard_range(self.streams, self.shards, s)
    }

    /// Shard `s`'s sub-row of a full global row.
    pub fn subrow<'r>(&self, row: &'r [f64], s: usize) -> &'r [f64] {
        &row[self.members(s)]
    }
}

/// What the leader wants delivered to one node.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerCall {
    /// Destination node id (possibly the leader itself, served locally).
    pub node: u64,
    /// The shard the call concerns (for merge bookkeeping).
    pub shard: usize,
    /// Whether this is the standby (`Replicate`) leg of an ingest.
    pub standby_leg: bool,
    /// The request to deliver.
    pub request: Request,
}

/// Either a locally-served response or a fan-out plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Answer immediately, no peer traffic.
    Done(Response),
    /// Deliver these calls (in order), then merge with the matching
    /// `finish_*`.
    Fan(Vec<PeerCall>),
}

/// The leader's routing/merge state machine.
#[derive(Debug)]
pub struct LeaderCore {
    node: u64,
    term: u64,
    map: ShardMap,
    registry: ReplicaRegistry,
    assignment: Assignment,
    /// Rows fully applied on every required holder (no failed shards,
    /// first try or absorbed retry).
    complete_rows: u64,
    /// Shards whose primary answered shard traffic with a typed error
    /// or a stale epoch — the repair loop re-issues their configuration
    /// (or promotes around them) on its next pass.
    primary_faults: BTreeSet<usize>,
    /// Shards whose standby answered `Replicate` with a typed error —
    /// the repair loop drops them from the assignment.
    standby_faults: BTreeSet<usize>,
}

impl LeaderCore {
    /// The bootstrap leader (node 0, term 0) over `shards` replicas.
    /// `standbys` picks the ring layout (each replica primary of one
    /// shard, standby of another) over the PR 7 solo layout.
    pub fn bootstrap(
        streams: usize,
        shards: usize,
        miss_threshold: u32,
        standbys: bool,
    ) -> LeaderCore {
        LeaderCore {
            node: 0,
            term: 0,
            map: ShardMap::new(streams, shards),
            registry: ReplicaRegistry::new(shards, miss_threshold),
            assignment: if standbys {
                Assignment::ring(shards)
            } else {
                Assignment::solo(shards)
            },
            complete_rows: 0,
            primary_faults: BTreeSet::new(),
            standby_faults: BTreeSet::new(),
        }
    }

    /// A core rebuilt on promotion: `node` leads `term` with an
    /// assignment reconstructed from the peers' sync reports.
    pub fn rebuilt(
        node: u64,
        term: u64,
        streams: usize,
        shards: usize,
        registry: ReplicaRegistry,
        assignment: Assignment,
        complete_rows: u64,
    ) -> LeaderCore {
        LeaderCore {
            node,
            term,
            map: ShardMap::new(streams, shards),
            registry,
            assignment,
            complete_rows,
            primary_faults: BTreeSet::new(),
            standby_faults: BTreeSet::new(),
        }
    }

    /// The leading node's id.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// The term this core leads.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The routing table.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The health registry (heartbeats feed this).
    pub fn registry(&self) -> &ReplicaRegistry {
        &self.registry
    }

    /// Mutable registry access for the heartbeat driver.
    pub fn registry_mut(&mut self) -> &mut ReplicaRegistry {
        &mut self.registry
    }

    /// The authoritative shard assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Mutable assignment access for the repair loop.
    pub fn assignment_mut(&mut self) -> &mut Assignment {
        &mut self.assignment
    }

    /// Drain the shards flagged for primary reconfiguration.
    pub fn take_primary_faults(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.primary_faults)
            .into_iter()
            .collect()
    }

    /// Drain the shards whose standby must be dropped.
    pub fn take_standby_faults(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.standby_faults)
            .into_iter()
            .collect()
    }

    /// Wrap `inner` in this term's fence for `shard`.
    fn fence(&self, shard: usize, inner: Request) -> Request {
        Request::Fenced {
            term: self.term,
            leader: self.node,
            shard: shard as u32,
            epoch: self.assignment.slot(shard).epoch,
            inner: Box::new(inner),
        }
    }

    /// The term-fenced heartbeat ping sent to every peer each period.
    pub fn heartbeat(&self, nonce: u64) -> Request {
        Request::Fenced {
            term: self.term,
            leader: self.node,
            shard: NO_SHARD,
            epoch: 0,
            inner: Box::new(Request::Ping { nonce }),
        }
    }

    /// Rows fully acked while this core led, or since the floor a rebuilt
    /// core starts from: the leader's `Status` arrivals.
    pub fn complete_rows(&self) -> u64 {
        self.complete_rows
    }

    /// Plan one client data request (ingest, point, range, top-k). Fan
    /// plans must be completed with the matching `finish_*` call.
    /// Anything else is `WrongRole`: [`crate::node::ClusterNode::handle`]
    /// answers it.
    pub fn plan(&self, req: &Request) -> Plan {
        match req {
            Request::Ingest { req_id, row } => self.plan_ingest(*req_id, row),
            Request::Point { stream, .. } | Request::Range { stream, .. } => {
                match self.map.owner_of(*stream) {
                    Some(shard) => match self.assignment.slot(shard).primary {
                        Some(node) => Plan::Fan(vec![PeerCall {
                            node,
                            shard,
                            standby_leg: false,
                            request: self.fence(shard, req.clone()),
                        }]),
                        // No serving holder at all (primary died with no
                        // standby): explicit unavailability, named after
                        // the shard's home node.
                        None => Plan::Done(Response::Unavailable {
                            node: shard as u64 + 1,
                        }),
                    },
                    None => Plan::Done(Response::ErrorR {
                        code: ErrorCode::BadRequest,
                    }),
                }
            }
            Request::TopK { k } => {
                // Above MAX_TOP_K a shard's answer could not fit one frame.
                if *k == 0 || *k > MAX_TOP_K {
                    return Plan::Done(Response::ErrorR {
                        code: ErrorCode::BadRequest,
                    });
                }
                Plan::Fan(
                    self.assignment
                        .iter()
                        .filter_map(|(shard, slot)| {
                            slot.primary.map(|node| PeerCall {
                                node,
                                shard,
                                standby_leg: false,
                                request: self.fence(shard, Request::LocalTopK { k: *k }),
                            })
                        })
                        .collect(),
                )
            }
            _ => Plan::Done(Response::ErrorR {
                code: ErrorCode::WrongRole,
            }),
        }
    }

    fn plan_ingest(&self, req_id: u64, row: &[f64]) -> Plan {
        if row.len() != self.map.streams() || !all_finite(row) {
            return Plan::Done(Response::ErrorR {
                code: ErrorCode::BadRequest,
            });
        }
        let mut calls = Vec::new();
        for (shard, slot) in self.assignment.iter() {
            let sub = self.map.subrow(row, shard);
            if let Some(node) = slot.primary {
                calls.push(PeerCall {
                    node,
                    shard,
                    standby_leg: false,
                    request: self.fence(
                        shard,
                        Request::Ingest {
                            req_id,
                            row: sub.to_vec(),
                        },
                    ),
                });
            }
            if let Some(node) = slot.standby {
                calls.push(PeerCall {
                    node,
                    shard,
                    standby_leg: true,
                    request: Request::Replicate {
                        term: self.term,
                        shard: shard as u32,
                        epoch: slot.epoch,
                        req_id,
                        row: sub.to_vec(),
                    },
                });
            }
        }
        Plan::Fan(calls)
    }

    /// Merge per-leg ingest outcomes. `results[i]` answers `calls[i]`;
    /// `None` means the holder was unreachable after the bounded retries
    /// (or shed the request). A shard is acked only when its primary
    /// applied the sub-row **and** every standby the assignment
    /// currently requires acked its replicated copy — that invariant is
    /// what makes promoting the standby lossless for acked rows. Every
    /// other shard lands in `failed_shards`, the explicit no-silent-loss
    /// contract.
    pub fn finish_ingest(
        &mut self,
        req_id: u64,
        calls: &[PeerCall],
        results: &[Option<Response>],
    ) -> Response {
        debug_assert_eq!(calls.len(), results.len());
        let mut failed_shards = Vec::new();
        let mut all_duplicate = true;
        for shard in 0..self.map.shards() {
            let mut primary_ok = false;
            let mut primary_dup = false;
            let standby_required = self.assignment.slot(shard).standby.is_some();
            let mut standby_ok = !standby_required;
            for (call, result) in calls.iter().zip(results) {
                if call.shard != shard {
                    continue;
                }
                match (call.standby_leg, result) {
                    (false, Some(Response::IngestOk { duplicate, .. })) => {
                        primary_ok = true;
                        primary_dup = *duplicate;
                    }
                    (false, Some(other)) => self.note_primary_fault(shard, other),
                    (false, None) => {}
                    (true, Some(Response::IngestOk { .. })) => standby_ok = true,
                    (true, Some(_)) => {
                        // A live standby refused its copy: drop it from
                        // the assignment (repair loop) rather than wait
                        // out heartbeat misses that will never come.
                        // This row still does NOT ack — as long as the
                        // assignment lists that standby, an election
                        // could promote it, and promoting a copy that
                        // is missing an acked row would be wrongness.
                        self.standby_faults.insert(shard);
                    }
                    (true, None) => {}
                }
            }
            if primary_ok && standby_ok {
                all_duplicate &= primary_dup;
            } else {
                failed_shards.push(shard as u32);
                all_duplicate = false;
            }
        }
        if self.map.shards() == 0 {
            all_duplicate = false;
        }
        if failed_shards.is_empty() && !all_duplicate {
            self.complete_rows += 1;
        }
        Response::IngestOk {
            req_id,
            duplicate: all_duplicate,
            failed_shards,
        }
    }

    /// Record what a primary's non-`IngestOk` answer implies for repair.
    fn note_primary_fault(&mut self, shard: usize, resp: &Response) {
        if let Response::StaleEpochR { epoch, .. } = resp {
            // The holder is *ahead* (a prior leader bumped it): adopt.
            // Behind: it missed a Promote — re-issue it.
            self.assignment.adopt_epoch(shard, *epoch);
        }
        self.primary_faults.insert(shard);
    }

    /// Merge a single-shard point/range result: the holder's response
    /// passes through; unreachable (or mid-reconfiguration) becomes a
    /// typed `Unavailable` naming the node.
    pub fn finish_routed(&mut self, call: &PeerCall, result: Option<Response>) -> Response {
        match result {
            Some(Response::StaleTermR { .. }) => {
                self.primary_faults.insert(call.shard);
                Response::Unavailable { node: call.node }
            }
            Some(Response::StaleEpochR { epoch, .. }) => {
                self.assignment.adopt_epoch(call.shard, epoch);
                self.primary_faults.insert(call.shard);
                Response::Unavailable { node: call.node }
            }
            Some(r) => r,
            None => Response::Unavailable { node: call.node },
        }
    }

    /// Kept only because `benchmark/src/inline.rs` calls it between the
    /// top-k round and [`Self::finish_topk`]: the top-k has one round, so
    /// this always returns `(0.0, [])`. It goes when that file drives
    /// `driver::serve` (ROADMAP item 1(a)).
    pub fn plan_topk_round2(
        &self,
        _k: u32,
        _calls: &[PeerCall],
        _locals: &[Option<Response>],
    ) -> (f64, Vec<PeerCall>) {
        (0.0, Vec::new())
    }

    /// Merge the top-k: every shard's `LocalTopKR` entries, ranked
    /// together in one [`TopKSummary::absorb`] — the merge
    /// `ShardedStreamSet::global_top_k` runs, so the result is
    /// bit-identical to the in-process oracle whenever every shard
    /// answered. Entries are outside input: any order, non-finite values
    /// dropped, at most `k` kept. A shard that is unreachable, answered
    /// anything else, or had no primary to ask (no call at all) flips
    /// `complete` to `false`; the entries stay exact over the shards that
    /// answered. `_scans` is ignored, and kept in the signature only for
    /// `benchmark/src/inline.rs` (see [`Self::plan_topk_round2`]).
    pub fn finish_topk(
        &self,
        k: u32,
        calls: &[PeerCall],
        locals: &[Option<Response>],
        _scans: &[(usize, Option<Response>)],
    ) -> Response {
        // `plan` makes one call per shard that has a primary.
        let mut complete = calls.len() == self.map.shards();
        let mut candidates = Vec::new();
        for local in locals {
            match local {
                Some(Response::LocalTopKR { entries }) => candidates.extend_from_slice(entries),
                _ => complete = false,
            }
        }
        let mut result = TopKSummary::new(k as usize);
        result.absorb(&mut candidates);
        Response::TopKR {
            complete,
            entries: result.entries().to_vec(),
        }
    }
}

/// Scan fan-out results for a `StaleTermR`: the newest term observed
/// and its leader, if any peer fenced us out. The driver feeds this to
/// [`crate::node::ClusterNode::observe_stale_term`] to step down.
pub fn stale_term_in(results: &[Option<Response>]) -> Option<(u64, u64)> {
    results
        .iter()
        .flatten()
        .filter_map(|r| match r {
            Response::StaleTermR { term, leader } => Some((*term, *leader)),
            _ => None,
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_response, HEADER_LEN, MAX_FRAME};
    use crate::replica::ReplicaNode;
    use swat_tree::{local_top_k, root_summary, StreamSet, SwatConfig};
    use swat_wavelet::TopCoeff;

    fn fan(plan: Plan) -> Vec<PeerCall> {
        match plan {
            Plan::Fan(calls) => calls,
            Plan::Done(r) => panic!("expected a fan plan, got {r:?}"),
        }
    }

    fn ingest_ok(req_id: u64, duplicate: bool) -> Option<Response> {
        Some(Response::IngestOk {
            req_id,
            duplicate,
            failed_shards: vec![],
        })
    }

    #[test]
    fn solo_plans_fence_every_leg_with_term_and_epoch() {
        let leader = LeaderCore::bootstrap(8, 2, 3, false);
        let calls = fan(leader.plan(&Request::Ingest {
            req_id: 7,
            row: vec![1.0; 8],
        }));
        assert_eq!(calls.len(), 2, "solo layout: one leg per shard");
        for (shard, call) in calls.iter().enumerate() {
            assert_eq!(call.node, shard as u64 + 1);
            assert!(!call.standby_leg);
            match &call.request {
                Request::Fenced {
                    term,
                    leader: l,
                    shard: s,
                    epoch,
                    inner,
                } => {
                    assert_eq!((*term, *l, *s as usize, *epoch), (0, 0, shard, 0));
                    assert!(matches!(**inner, Request::Ingest { req_id: 7, .. }));
                }
                other => panic!("unfenced leg {other:?}"),
            }
        }
    }

    #[test]
    fn ring_ingest_requires_both_legs_to_ack() {
        let mut leader = LeaderCore::bootstrap(8, 2, 3, true);
        let calls = fan(leader.plan(&Request::Ingest {
            req_id: 3,
            row: vec![1.0; 8],
        }));
        assert_eq!(calls.len(), 4, "two shards × (primary + standby)");
        assert!(calls.iter().any(|c| c.standby_leg
            && matches!(c.request, Request::Replicate { shard: 0, .. })
            && c.node == 2));
        // All four legs ack: the row is acked.
        let results: Vec<Option<Response>> = calls.iter().map(|_| ingest_ok(3, false)).collect();
        assert_eq!(
            leader.finish_ingest(3, &calls, &results),
            Response::IngestOk {
                req_id: 3,
                duplicate: false,
                failed_shards: vec![]
            }
        );
        // Standby leg of shard 0 unreachable: shard 0 must NOT ack —
        // the promoted standby could otherwise miss an acked row.
        let results: Vec<Option<Response>> = calls
            .iter()
            .map(|c| {
                if c.shard == 0 && c.standby_leg {
                    None
                } else {
                    ingest_ok(4, false)
                }
            })
            .collect();
        match leader.finish_ingest(4, &calls, &results) {
            Response::IngestOk { failed_shards, .. } => assert_eq!(failed_shards, vec![0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn faulty_legs_are_flagged_for_repair() {
        let mut leader = LeaderCore::bootstrap(8, 2, 3, true);
        let calls = fan(leader.plan(&Request::Ingest {
            req_id: 9,
            row: vec![2.0; 8],
        }));
        // Shard 1's standby answers a typed error; shard 0's primary
        // reports a *newer* epoch.
        let results: Vec<Option<Response>> = calls
            .iter()
            .map(|c| match (c.shard, c.standby_leg) {
                (1, true) => Some(Response::ErrorR {
                    code: ErrorCode::WrongRole,
                }),
                (0, false) => Some(Response::StaleEpochR { shard: 0, epoch: 5 }),
                _ => ingest_ok(9, false),
            })
            .collect();
        match leader.finish_ingest(9, &calls, &results) {
            Response::IngestOk { failed_shards, .. } => {
                assert_eq!(failed_shards, vec![0, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(leader.take_primary_faults(), vec![0]);
        assert_eq!(leader.take_standby_faults(), vec![1]);
        assert_eq!(leader.assignment().slot(0).epoch, 5, "adopted ahead epoch");
        // Draining clears the flags.
        assert!(leader.take_primary_faults().is_empty());
    }

    #[test]
    fn unreachable_shards_degrade_explicitly() {
        let (streams, shards) = (8, 2);
        let mut leader = LeaderCore::bootstrap(streams, shards, 3, false);
        let row = vec![1.0; streams];
        let calls = fan(leader.plan(&Request::Ingest { req_id: 7, row }));
        assert_eq!(calls.len(), shards);
        // Shard 1 unreachable: named in failed_shards, never silent.
        let results = vec![ingest_ok(7, false), None];
        assert_eq!(
            leader.finish_ingest(7, &calls, &results),
            Response::IngestOk {
                req_id: 7,
                duplicate: false,
                failed_shards: vec![1]
            }
        );
        // Point at a stream owned by the unreachable shard.
        let dead_stream = (0..streams)
            .find(|&g| shard_of(g as u64, streams, shards) == 1)
            .unwrap();
        let calls = fan(leader.plan(&Request::Point {
            stream: dead_stream as u64,
            index: 0,
        }));
        assert_eq!(
            leader.finish_routed(&calls[0], None),
            Response::Unavailable { node: 2 }
        );
        // A stale-epoch answer is also unavailability, plus a repair flag.
        assert_eq!(
            leader.finish_routed(
                &calls[0],
                Some(Response::StaleEpochR { shard: 1, epoch: 0 })
            ),
            Response::Unavailable { node: 2 }
        );
        assert_eq!(leader.take_primary_faults(), vec![1]);
        // Top-k with a missing shard: complete = false.
        let calls = fan(leader.plan(&Request::TopK { k: 3 }));
        let locals = vec![Some(Response::LocalTopKR { entries: vec![] }), None];
        match leader.finish_topk(3, &calls, &locals, &[]) {
            Response::TopKR { complete, .. } => assert!(!complete),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn primaryless_shards_are_planned_around() {
        let mut leader = LeaderCore::bootstrap(8, 2, 3, false);
        // Kill shard 1's primary with no standby: slot goes primary-less.
        assert_eq!(leader.assignment_mut().promote_standby(1), None);
        let calls = fan(leader.plan(&Request::Ingest {
            req_id: 0,
            row: vec![0.0; 8],
        }));
        assert_eq!(calls.len(), 1, "only shard 0 has a holder to call");
        let results = vec![ingest_ok(0, false)];
        match leader.finish_ingest(0, &calls, &results) {
            Response::IngestOk { failed_shards, .. } => assert_eq!(failed_shards, vec![1]),
            other => panic!("unexpected {other:?}"),
        }
        // Queries at the primary-less shard fail fast and typed.
        let dead_stream = (0..8).find(|&g| shard_of(g as u64, 8, 2) == 1).unwrap();
        assert_eq!(
            leader.plan(&Request::Point {
                stream: dead_stream as u64,
                index: 0
            }),
            Plan::Done(Response::Unavailable { node: 2 })
        );
        // The top-k simply has no call for the dead shard, and the merge
        // marks the result incomplete.
        let calls = fan(leader.plan(&Request::TopK { k: 2 }));
        assert_eq!(calls.len(), 1);
        let locals = vec![Some(Response::LocalTopKR { entries: vec![] })];
        match leader.finish_topk(2, &calls, &locals, &[]) {
            Response::TopKR { complete, .. } => assert!(!complete),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_stream_is_a_typed_error() {
        let leader = LeaderCore::bootstrap(4, 2, 3, false);
        assert_eq!(
            leader.plan(&Request::Point {
                stream: 99,
                index: 0
            }),
            Plan::Done(Response::ErrorR {
                code: ErrorCode::BadRequest
            })
        );
        assert_eq!(
            leader.plan(&Request::TopK { k: 0 }),
            Plan::Done(Response::ErrorR {
                code: ErrorCode::BadRequest
            })
        );
    }

    #[test]
    fn top_k_is_bounded_by_what_one_frame_carries() {
        let leader = LeaderCore::bootstrap(4, 2, 3, false);
        assert_eq!(MAX_TOP_K, 209_714);
        assert_eq!(fan(leader.plan(&Request::TopK { k: MAX_TOP_K })).len(), 2);
        assert_eq!(
            leader.plan(&Request::TopK { k: 209_715 }),
            Plan::Done(Response::ErrorR {
                code: ErrorCode::BadRequest
            })
        );
        // A full answer fits one frame; one more entry would not.
        let c = TopCoeff {
            stream: 1,
            index: 0,
            value: 1.0,
        };
        let full = encode_response(&Response::TopKR {
            complete: true,
            entries: vec![c; MAX_TOP_K as usize],
        });
        let payload = full.len() - HEADER_LEN;
        assert!(payload <= MAX_FRAME && payload + 20 > MAX_FRAME);
    }

    /// Every root-summary coefficient of `set`'s streams, stream
    /// `members[local]` for local stream `local`.
    fn root_coefficients(set: &StreamSet, members: &[usize]) -> Vec<TopCoeff> {
        let mut all = Vec::new();
        for (local, &g) in members.iter().enumerate() {
            let Some(root) = root_summary(set.tree(local)) else {
                continue;
            };
            for (index, &value) in root.coeffs().coefficients().iter().enumerate() {
                all.push(TopCoeff {
                    stream: g as u64,
                    index: index as u32,
                    value,
                });
            }
        }
        all
    }

    /// Rank `entries` by |value| desc then (stream, index) asc, keep `k`.
    fn ranked(mut entries: Vec<TopCoeff>, k: usize) -> Vec<TopCoeff> {
        entries.sort_by(|a, b| {
            b.weight()
                .partial_cmp(&a.weight())
                .unwrap()
                .then_with(|| (a.stream, a.index).cmp(&(b.stream, b.index)))
        });
        entries.truncate(k);
        entries
    }

    /// Brute-force top-k over the root-summary coefficients of the
    /// `answering` replicas' streams, ranked by |value| desc then
    /// (stream, index) asc.
    fn brute_force_top_k(
        replicas: &mut [ReplicaNode],
        answering: &[usize],
        k: usize,
    ) -> Vec<TopCoeff> {
        let mut all = Vec::new();
        for &s in answering {
            let members: Vec<usize> = replicas[s].members().collect();
            all.extend(root_coefficients(replicas[s].set(), &members));
        }
        ranked(all, k)
    }

    #[test]
    fn a_partial_top_k_is_exact_over_the_shards_that_answered() {
        let (streams, shards, k) = (12, 3, 5);
        let cfg = SwatConfig::with_coefficients(16, 4).unwrap();
        let leader = LeaderCore::bootstrap(streams, shards, 3, false);
        let mut replicas: Vec<ReplicaNode> = (0..shards)
            .map(|s| ReplicaNode::new(s as u64 + 1, cfg, streams, shards, s))
            .collect();
        for req_id in 0..40u64 {
            let row: Vec<f64> = (0..streams)
                .map(|g| ((req_id as usize * 7 + g * 13) % 23) as f64 - 11.0)
                .collect();
            for (s, replica) in replicas.iter_mut().enumerate() {
                let sub = leader.map().subrow(&row, s).to_vec();
                let resp = replica.handle(&Request::Ingest { req_id, row: sub });
                assert!(matches!(resp, Response::IngestOk { .. }));
            }
        }
        let calls = fan(leader.plan(&Request::TopK { k: k as u32 }));
        let answers: Vec<Option<Response>> = calls
            .iter()
            .map(|call| match &call.request {
                Request::Fenced { inner, .. } => Some(replicas[call.shard].handle(inner)),
                other => panic!("unfenced leg {other:?}"),
            })
            .collect();
        let all: Vec<usize> = (0..shards).collect();
        let whole = brute_force_top_k(&mut replicas, &all, k);
        assert_eq!(
            leader.finish_topk(k as u32, &calls, &answers, &[]),
            Response::TopKR {
                complete: true,
                entries: whole.clone()
            }
        );
        // Lose the shard holding the largest coefficient, so the answer
        // must change: first unreachable, then answering a typed error.
        let lost = shard_of(whole[0].stream, streams, shards);
        let rest: Vec<usize> = all.iter().copied().filter(|&s| s != lost).collect();
        let want = brute_force_top_k(&mut replicas, &rest, k);
        assert_ne!(want, whole);
        let leg = calls.iter().position(|c| c.shard == lost).unwrap();
        let refusal = Response::ErrorR {
            code: ErrorCode::Internal,
        };
        for failed in [None, Some(refusal)] {
            let mut partial = answers.clone();
            partial[leg] = failed;
            assert_eq!(
                leader.finish_topk(k as u32, &calls, &partial, &[]),
                Response::TopKR {
                    complete: false,
                    entries: want.clone()
                }
            );
        }
    }

    #[test]
    fn the_top_k_merge_takes_replica_entries_as_outside_input() {
        let c = |stream, index, value| TopCoeff {
            stream,
            index,
            value,
        };
        // Weights tie across answers (3.0 at s0, s4 and s5; 0 at s2 and s5)
        // and -0.0 is among them.
        let reversed = vec![
            c(2, 1, 0.0),
            c(0, 3, -0.5),
            c(2, 0, 1.5),
            c(4, 2, 3.0),
            c(0, 1, -3.0),
            c(0, 0, 7.25),
        ];
        let with_infinities = vec![
            c(1, 0, f64::INFINITY),
            c(5, 2, -0.0),
            c(1, 1, 2.0),
            c(5, 0, f64::NEG_INFINITY),
            c(5, 1, -3.0),
        ];
        let finite: Vec<TopCoeff> = reversed
            .iter()
            .chain(&with_infinities)
            .copied()
            .filter(|e| e.value.is_finite())
            .collect();
        let leader = LeaderCore::bootstrap(6, 3, 3, false);
        for k in [1, 3, 4, 9, 12] {
            let calls = fan(leader.plan(&Request::TopK { k }));
            let answers = vec![
                Some(Response::LocalTopKR {
                    entries: reversed.clone(),
                }),
                Some(Response::LocalTopKR {
                    entries: with_infinities.clone(),
                }),
                Some(Response::LocalTopKR { entries: vec![] }),
            ];
            assert_eq!(
                leader.finish_topk(k, &calls, &answers, &[]),
                Response::TopKR {
                    complete: true,
                    entries: ranked(finite.clone(), k as usize)
                },
                "k={k}"
            );
        }
    }

    /// At the frame bound no summary fills: a shard of 16 384 streams at
    /// budget 4 has 65 536 candidates, every one admitted. The replica's
    /// scan and the leader's merge of two such answers each rank them in
    /// one batch (one insert per candidate was quadratic in `k`), and
    /// both equal a brute-force ranking.
    #[test]
    fn a_top_k_at_the_frame_bound_over_many_streams_is_exact() {
        let (streams, shards, k) = (16_384, 2, MAX_TOP_K);
        let cfg = SwatConfig::with_coefficients(64, 4).unwrap();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut everything = Vec::new();
        let mut answers = Vec::new();
        for s in 0..shards {
            let members: Vec<usize> = (s * streams..(s + 1) * streams).collect();
            let rows: Vec<f64> = (0..64 * streams)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    (seed % 2001) as f64 / 10.0 - 100.0
                })
                .collect();
            let mut set = StreamSet::new(cfg, streams);
            set.extend_rows(&rows);
            let all = root_coefficients(&set, &members);
            let local = local_top_k(&set, &members, k as usize);
            assert_eq!(local.entries(), &ranked(all.clone(), k as usize)[..]);
            everything.extend(all);
            answers.push(Some(Response::LocalTopKR {
                entries: local.entries().to_vec(),
            }));
        }
        assert_eq!(everything.len(), shards * streams * 4);
        let leader = LeaderCore::bootstrap(shards * streams, shards, 3, false);
        let calls = fan(leader.plan(&Request::TopK { k }));
        assert_eq!(
            leader.finish_topk(k, &calls, &answers, &[]),
            Response::TopKR {
                complete: true,
                entries: ranked(everything, k as usize)
            }
        );
    }

    #[test]
    fn stale_term_scan_finds_the_newest_fence() {
        assert_eq!(stale_term_in(&[None, ingest_ok(0, false)]), None);
        let results = vec![
            Some(Response::StaleTermR { term: 5, leader: 1 }),
            None,
            Some(Response::StaleTermR { term: 9, leader: 2 }),
        ];
        assert_eq!(stale_term_in(&results), Some((9, 2)));
    }
}
