//! The simulator-oracle property tests, all on the one [`Sim`] — which
//! runs `driver::serve`, `driver::monitor_pass` and
//! `driver::follow_redirects`, the loops `swatd` and `FailoverClient` run.
//!
//! Three pins, over random fault plans and scripts:
//!
//! 1. **Wire ≡ Model.** For *any* `FaultPlan`, the byte-path cluster
//!    (encode → `SimTransport` → check → decode on every hop) produces
//!    an observable outcome sequence and final holdings **bit-identical**
//!    to the struct-path model arm. Outcomes are compared by their
//!    encoded bytes, so `-0.0 == 0.0` coincidences cannot hide a codec
//!    divergence.
//! 2. **Faultless ≡ oracle.** Under `FaultPlan::none()` the cluster's
//!    answers equal the plain in-process `ShardedStreamSet` oracle:
//!    every ingest fully applies (with duplicate write ids absorbed),
//!    every point answer and distributed top-k is bit-identical.
//! 3. **Elections under a lossy network.** Peer table and standbys, with
//!    drops, delays and a crash window on any node at once — a
//!    combination no simulator could run while drops lived in one and
//!    elections in the other: never two leaders in a term, wire ≡ model,
//!    and no row the client saw acked is ever missing from a serving
//!    copy.
//!
//! Plus the deterministic leader-kill and primary-kill schedules.

use proptest::prelude::*;
use swat_daemon::{
    encode_response, Request, Response, ShardMap, Sim, SimDeployment, SimMode, SimOp, WireHealth,
};
use swat_net::{DelayDist, FaultPlan, NodeId};
use swat_tree::{QueryOptions, ShardedStreamSet, StreamSet, SwatConfig};

const STREAMS: usize = 9;
const SHARDS: usize = 3;

fn cfg() -> SwatConfig {
    SwatConfig::with_coefficients(16, 4).expect("static config")
}

/// The static-leader deployment: no standbys, no peer table.
fn static_leader(mode: SimMode, plan: FaultPlan) -> Sim {
    let deployment = SimDeployment::StaticLeader;
    Sim::new(mode, plan, cfg(), STREAMS, SHARDS, 3, deployment)
}

/// A two-shard ring with the peer table and standbys: `Dead` after two
/// misses, elections after `election_timeout` periods of silence.
fn failover_ring(mode: SimMode, plan: FaultPlan, streams: usize, election_timeout: u64) -> Sim {
    let deployment = SimDeployment::PeerTable {
        standbys: true,
        election_timeout,
    };
    Sim::new(mode, plan, cfg(), streams, 2, 2, deployment)
}

/// A seeded plan of global drops and uniform delays.
fn lossy(seed: u64, drop: f64, delay_hi: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed).with_drop(drop).expect("valid p");
    if delay_hi == 0 {
        return plan;
    }
    plan.with_delay(DelayDist::Uniform {
        lo: 0,
        hi: delay_hi,
    })
    .expect("valid delay")
}

/// An arbitrary seeded fault plan: global drops, uniform delays, and
/// (three times in four) one crash window on one replica.
fn plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000_000,
        prop::sample::select(vec![0.0f64, 0.05, 0.2, 0.5]),
        prop::sample::select(vec![0u64, 2, 6]),
        prop::sample::select(vec![0usize, 1, 2, 3]),
        0u64..300,
        1u64..600,
    )
        .prop_map(|(seed, drop, delay_hi, crash_node, from, len)| {
            let p = lossy(seed, drop, delay_hi);
            // crash_node 0 = no crash (the static leader never crashes:
            // it is the observer whose outcomes we compare).
            if crash_node == 0 {
                return p;
            }
            p.with_crash(NodeId(crash_node), from, from + len)
                .expect("valid window")
        })
}

fn row_of(id: u64, x: u64) -> Vec<f64> {
    (0..STREAMS)
        .map(|i| ((id as usize * 7 + i * 3 + x as usize) % 19) as f64 - 9.0)
        .collect()
}

/// A random op script. Ingest ids mostly advance; sometimes the
/// previous id is reused, exercising the duplicate-safe write path.
fn ops() -> impl Strategy<Value = Vec<SimOp>> {
    prop::collection::vec((0u8..12, 0u64..64), 1..30).prop_map(|raw| {
        let mut next_id = 0u64;
        raw.into_iter()
            .map(|(choice, x)| match choice {
                0..=5 => {
                    let req_id = next_id;
                    next_id += 1;
                    SimOp::Client(Request::Ingest {
                        req_id,
                        row: row_of(req_id, x),
                    })
                }
                6 => {
                    // Duplicate write id: retry of the previous row.
                    let req_id = next_id.saturating_sub(1);
                    SimOp::Client(Request::Ingest {
                        req_id,
                        row: row_of(req_id, 0),
                    })
                }
                7 | 8 => SimOp::Client(Request::Point {
                    stream: x % STREAMS as u64,
                    index: (x % 16) as u32,
                }),
                9 => SimOp::Client(Request::TopK { k: (x % 7) as u32 }),
                10 => SimOp::Heartbeat,
                _ => SimOp::Client(Request::Status),
            })
            .collect()
    })
}

/// Encoded-byte form of one outcome: true bit-identity, f64s included.
fn bytes(outcome: &Option<Response>) -> Option<Vec<u8>> {
    outcome.as_ref().map(encode_response)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wire_arm_is_bit_identical_to_the_model_arm(plan in plan(), ops in ops()) {
        let mut wire = static_leader(SimMode::Wire, plan.clone());
        let mut model = static_leader(SimMode::Model, plan);
        let wire_out = wire.run(&ops);
        let model_out = model.run(&ops);
        prop_assert_eq!(wire_out.len(), model_out.len());
        for (i, (w, m)) in wire_out.iter().zip(&model_out).enumerate() {
            prop_assert_eq!(bytes(w), bytes(m), "op {} diverged: wire={:?} model={:?}", i, w, m);
        }
        prop_assert_eq!(wire.digests(), model.digests());
        prop_assert_eq!(wire.now(), model.now());
    }

    #[test]
    fn faultless_cluster_matches_the_sharded_oracle(ops in ops()) {
        let mut cluster = static_leader(SimMode::Wire, FaultPlan::none());
        let out = cluster.run(&ops);
        let mut oracle = ShardedStreamSet::new(cfg(), STREAMS, SHARDS);
        let mut seen = std::collections::HashSet::new();
        for (op, got) in ops.iter().zip(out) {
            let got = got.expect("a faultless leader always answers");
            match op {
                SimOp::Client(Request::Ingest { req_id, row }) => {
                    let duplicate = !seen.insert(*req_id);
                    if !duplicate {
                        oracle.push_row(row);
                    }
                    prop_assert_eq!(
                        got,
                        Response::IngestOk {
                            req_id: *req_id,
                            duplicate,
                            failed_shards: vec![],
                        }
                    );
                }
                SimOp::Client(Request::Point { stream, index }) => {
                    match (
                        oracle
                            .tree(*stream as usize)
                            .point_with(*index as usize, QueryOptions::default()),
                        got,
                    ) {
                        (Ok(want), Response::PointR { answer }) => {
                            prop_assert_eq!(answer.value.to_bits(), want.value.to_bits());
                            prop_assert_eq!(
                                answer.error_bound.to_bits(),
                                want.error_bound.to_bits()
                            );
                        }
                        // An index the oracle cannot answer (not yet
                        // covered) is a typed error on the wire too.
                        (Err(_), Response::ErrorR { .. }) => {}
                        (want, other) => {
                            prop_assert!(false, "oracle {:?} vs wire {:?}", want, other)
                        }
                    }
                }
                // The leader rejects k = 0 outright (the oracle's
                // global_top_k would panic on it).
                SimOp::Client(Request::TopK { k: 0 }) => {
                    prop_assert!(matches!(got, Response::ErrorR { .. }), "unexpected {:?}", got)
                }
                SimOp::Client(Request::TopK { k }) => {
                    let (want, _) = oracle.global_top_k(*k as usize, 1);
                    prop_assert_eq!(
                        got,
                        Response::TopKR {
                            complete: true,
                            entries: want.entries().to_vec(),
                        }
                    );
                }
                // A heartbeat round's outcome is the leader's status,
                // like a status call's: everyone answered.
                _ => match got {
                    Response::StatusR { node: 0, term: 0, leader: 0, replicas, .. } => {
                        prop_assert_eq!(replicas.len(), SHARDS);
                        prop_assert!(replicas.iter().all(|(_, h)| *h == WireHealth::Alive));
                    }
                    other => prop_assert!(false, "unexpected {:?}", other),
                },
            }
        }
    }

    /// ≈ 0.3 s for the 24 cases in a debug build (each runs both arms;
    /// 1 000 cases of the 160-row form, run once in release while it was
    /// written, take 2 s).
    ///
    /// The client retries a row, one period between walks, until every
    /// shard acked it, and goes on to the next row only then — so a
    /// serving copy of a shard holds exactly the acked rows, in order.
    /// A row acks in one period when nothing is lost, so the crash opens
    /// near row `64 · lap + residue`: a killed primary's standby is
    /// promoted holding anywhere from 0 to 63 rows it has not applied
    /// (`ROW_TILE`), and a standby killed instead is re-seeded from a
    /// primary holding a partial tile.
    ///
    /// One crash window cannot take the cluster down, and without drops
    /// every row must ack. Drops can add a second fault to it, and a shard
    /// that loses both its holders stays refused for good: unavailability,
    /// never wrongness (2 of 3 000 cases of the earlier 24-row form ended
    /// that way, seed 842739 with drop 0.2 and node 0 down for periods
    /// 3..23 among them; DESIGN.md §3.18 has the mechanism). The run ends
    /// at a row the client gives up on, and that row alone may or may not
    /// be in a copy.
    #[test]
    fn elections_over_a_lossy_network_lose_no_acked_row(
        seed in 0u64..1_000_000,
        drop in prop::sample::select(vec![0.0f64, 0.05, 0.2]),
        delay_hi in prop::sample::select(vec![0u64, 2, 6]),
        victim in 0usize..3,
        residue in 0u64..64,
        lap in 0u64..2,
        len in prop::sample::select(vec![3u64, 20, 1_000_000]),
    ) {
        const ROWS: u64 = 160;
        let from = 64 * lap + residue;
        let streams = 6;
        let plan = lossy(seed, drop, delay_hi)
            .with_crash_any(NodeId(victim), from * Sim::PERIOD, (from + len) * Sim::PERIOD)
            .expect("valid window");
        let row = |r: u64| -> Vec<f64> {
            (0..streams).map(|i| ((r * 7 + i * 5 + seed) % 23) as f64 - 11.0).collect()
        };
        // One arm: everything the client saw, how many rows acked, and
        // the simulator to inspect afterwards.
        let run = |mode| {
            let mut sim = failover_ring(mode, plan.clone(), streams as usize, 4);
            let mut seen = Vec::new();
            let mut acked = 0;
            'rows: for r in 0..ROWS {
                let req = Request::Ingest { req_id: r, row: row(r) };
                for _ in 0..400 {
                    let answer = sim.client(&req);
                    seen.push(bytes(&answer));
                    sim.tick();
                    if matches!(
                        answer,
                        Some(Response::IngestOk { ref failed_shards, .. }) if failed_shards.is_empty()
                    ) {
                        acked += 1;
                        continue 'rows;
                    }
                }
                break;
            }
            (seen, acked, sim)
        };
        let (wire_seen, acked, mut wire) = run(SimMode::Wire);
        let (model_seen, model_acked, mut model) = run(SimMode::Model);
        prop_assert_eq!(wire_seen, model_seen);
        prop_assert_eq!(acked, model_acked);
        prop_assert_eq!(wire.digests(), model.digests());
        prop_assert_eq!(wire.leader_terms(), model.leader_terms());
        prop_assert_eq!(wire.now(), model.now());
        if drop == 0.0 {
            prop_assert_eq!(acked, ROWS, "one crash and no loss: every row acks");
        }

        // The acked prefix, and the prefix plus the row given up on.
        let map = ShardMap::new(streams as usize, 2);
        for shard in 0..2 {
            let mut want = StreamSet::new(cfg(), map.members(shard).len());
            for r in 0..acked {
                want.push_row(map.subrow(&row(r), shard));
            }
            let mut allowed = vec![want.answers_digest()];
            if acked < ROWS {
                want.push_row(map.subrow(&row(acked), shard));
                allowed.push(want.answers_digest());
            }
            // Whoever the newest live leader would route this shard to.
            if let Some(primary) = wire.primary_of(shard) {
                let got = wire.holding_digest(primary, shard).expect("a primary holds its shard");
                prop_assert!(
                    allowed.contains(&got),
                    "shard {} on node {}: {} acked rows are not what it holds",
                    shard, primary, acked
                );
            }
        }
    }
}

/// Run an acked-ingest workload through a failover ring whose fault plan
/// crashes `victim` for good `kill_tick` periods in, then check the
/// surviving cluster against a never-crashed oracle over the acked
/// prefix: every acked row is present bit-identically on every shard's
/// current primary, point answers match, and no term ever had two
/// leaders (the sim asserts that invariant after every pass).
fn failover_schedule(victim: u64, kill_tick: u64, rows: usize) {
    let (streams, shards) = (6usize, 2usize);
    let plan = FaultPlan::new(victim ^ (kill_tick << 8))
        .with_crash_any(NodeId(victim as usize), kill_tick * Sim::PERIOD, u64::MAX)
        .expect("valid window");
    let mut sim = failover_ring(SimMode::Wire, plan, streams, 4);
    let mut oracle = StreamSet::new(cfg(), streams);
    let row = |r: u64| -> Vec<f64> {
        (0..streams)
            .map(|i| (((r as usize * 7 + i * 5 + victim as usize) % 23) as f64) - 11.0)
            .collect()
    };

    let mut acked = 0u64;
    for r in 0..rows as u64 {
        if sim.ingest_until_acked(r, &row(r), 600) {
            oracle.push_row(&row(r));
            acked += 1;
        }
        sim.tick();
    }
    // With only one crash and generous retry budgets, everything acks.
    assert_eq!(acked, rows as u64, "bounded unavailability, not loss");

    // Post-failover: if the victim was the leader, someone else leads a
    // higher term now; either way exactly one leader per observed term.
    if victim == 0 {
        let leader = sim.live_leader().expect("a survivor leads");
        assert_ne!(leader, 0, "node 0 is down");
        assert!(sim.node(leader).term() > 0, "a real election happened");
    }
    assert!(!sim.leader_terms().is_empty());

    // Every shard's current primary holds the acked prefix
    // bit-identically to the never-crashed oracle.
    let map = ShardMap::new(streams, shards);
    for s in 0..shards {
        let primary = sim.primary_of(s).expect("every shard has a primary");
        assert_ne!(primary, victim, "a dead node cannot be primary");
        let mut want = StreamSet::new(cfg(), map.members(s).len());
        for r in 0..rows as u64 {
            want.push_row(map.subrow(&row(r), s));
        }
        assert_eq!(
            sim.holding_digest(primary, s),
            Some(want.answers_digest()),
            "shard {s} digest diverged after killing node {victim}"
        );
    }

    // And the cluster still answers queries on the acked data.
    for g in 0..streams as u64 {
        let want = oracle
            .tree(g as usize)
            .point_with(0, QueryOptions::default())
            .expect("warm index");
        let point = Request::Point {
            stream: g,
            index: 0,
        };
        match sim.call_until(&point, 600, |r| !matches!(r, Response::Unavailable { .. })) {
            Some(Response::PointR { answer }) => {
                assert_eq!(answer.value.to_bits(), want.value.to_bits());
            }
            other => panic!("stream {g} unanswered after failover: {other:?}"),
        }
    }
}

#[test]
fn leader_kill_schedules_preserve_the_acked_prefix() {
    // Kill the bootstrap leader at several points in the run, including
    // before the first row (tick 0 is mid-bootstrap).
    for kill_tick in [0, 3, 11] {
        failover_schedule(0, kill_tick, 24);
    }
}

#[test]
fn primary_kill_schedules_promote_the_standby() {
    // Kill each replica in turn mid-run: its shard's standby must be
    // promoted under a bumped epoch with no acked row lost — early, when
    // the standby has applied nothing, and at clock residues past one
    // and two whole tiles.
    for victim in [1u64, 2] {
        for kill_tick in [7, 64 + 37, 128] {
            failover_schedule(victim, kill_tick, 150);
        }
    }
}
