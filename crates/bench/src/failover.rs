//! The failover bench: what a leader kill actually costs.
//!
//! A full failover cluster comes up in-process (real `TcpListener`s,
//! `--peer`-style full membership, standbys armed), a client drives an
//! oracle-checked workload, then the **leader** is killed abruptly —
//! the single point of failure every earlier topology had. The bench
//! measures the three numbers the robustness claim hangs on:
//!
//! * **election latency** — kill until some surviving node reports
//!   itself leader of a term > 0,
//! * **unavailability window** — kill until the first post-kill ingest
//!   is fully acked again,
//! * **answered fraction** — how much of the probe traffic got *any*
//!   typed response in each phase (before / during / after).
//!
//! Correctness is enforced where it is well-defined: in the quiesced
//! before/after phases every point answer must be bit-identical to the
//! in-process `ShardedStreamSet` oracle over the acked rows, and the
//! final top-k must be complete and exact. During the outage the
//! cluster may refuse (`Unavailable`, `NotLeaderR`, silence) — never
//! answer wrongly — so the after-phase sweep re-reads *every* stream,
//! which would catch an acked-then-lost row from a bad promotion.
//! Artifact: `results/BENCH_failover.json` (schema in EXPERIMENTS.md).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use swat_daemon::{
    bind, spawn_on, DaemonClient, DaemonConfig, FailoverClient, Request, Response, Role,
};
use swat_replication::RetryPolicy;
use swat_tree::{QueryOptions, ShardedStreamSet, SwatConfig};

use crate::report::{self, Json};

/// Workload shape for the failover bench.
#[derive(Debug, Clone)]
pub struct FailoverBenchConfig {
    /// Seed recorded in the artifact (the workload is deterministic).
    pub seed: u64,
    /// Global stream count.
    pub streams: usize,
    /// Shards (the cluster has `shards + 1` nodes).
    pub shards: usize,
    /// Tree window (power of two).
    pub window: usize,
    /// Coefficients kept per node.
    pub coeffs: usize,
    /// Acked ingests before the kill.
    pub rows_before: usize,
    /// Acked ingests after recovery.
    pub rows_after: usize,
    /// Follower patience before claiming a term, milliseconds.
    pub election_timeout_ms: u64,
    /// Hard deadline on recovery, milliseconds — the bench fails if the
    /// cluster has not re-elected and re-acked by then.
    pub deadline_ms: u64,
}

impl FailoverBenchConfig {
    /// Smoke-sized run (still real TCP, still a real election).
    pub fn quick(seed: u64) -> Self {
        FailoverBenchConfig {
            seed,
            streams: 8,
            shards: 2,
            window: 16,
            coeffs: 4,
            rows_before: 24,
            rows_after: 24,
            election_timeout_ms: 250,
            deadline_ms: 30_000,
        }
    }

    /// Full run.
    pub fn full(seed: u64) -> Self {
        FailoverBenchConfig {
            seed,
            streams: 16,
            shards: 3,
            window: 32,
            coeffs: 4,
            rows_before: 120,
            rows_after: 120,
            election_timeout_ms: 300,
            deadline_ms: 60_000,
        }
    }
}

/// Measured outcome of one phase.
#[derive(Debug, Clone)]
pub struct FailoverPhase {
    /// `"before"`, `"during"`, or `"after"`.
    pub label: &'static str,
    /// Requests issued.
    pub requests: usize,
    /// Requests that got any typed response.
    pub answered: usize,
    /// Answers that disagreed with the oracle — must be zero.
    pub wrong: usize,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
}

impl FailoverPhase {
    /// `answered / requests` (1.0 for an empty phase).
    pub fn answered_fraction(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.answered as f64 / self.requests as f64
        }
    }
}

/// The `BENCH_failover.json` report.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Seed recorded for reproducibility.
    pub seed: u64,
    /// Streams × shards of the measured cluster.
    pub streams: usize,
    /// Shards (nodes = shards + 1).
    pub shards: usize,
    /// Tree window.
    pub window: usize,
    /// Kill → first node reporting itself leader of a term > 0.
    pub election_ms: f64,
    /// Kill → first fully-acked post-kill ingest.
    pub unavailability_ms: f64,
    /// The term the cluster converged on (> 0 after a real election).
    pub recovered_term: u64,
    /// The node leading that term.
    pub recovered_leader: u64,
    /// Whether the cluster recovered inside the deadline.
    pub recovered: bool,
    /// The three phases, in order.
    pub phases: Vec<FailoverPhase>,
}

impl FailoverReport {
    /// Whether every oracle-checked answer agreed with the oracle.
    pub fn zero_wrong_answers(&self) -> bool {
        self.phases.iter().all(|p| p.wrong == 0)
    }

    /// Print the human-readable table.
    pub fn print(&self) {
        println!(
            "failover bench: {} streams × {} shards (+1 leader), window {} (real TCP, localhost)",
            self.streams, self.shards, self.window
        );
        println!(
            "leader killed: election {:.0} ms, unavailability {:.0} ms, \
             recovered leader node {} at term {}{}",
            self.election_ms,
            self.unavailability_ms,
            self.recovered_leader,
            self.recovered_term,
            if self.recovered { "" } else { " (TIMED OUT)" }
        );
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.label.to_string(),
                    p.requests.to_string(),
                    p.answered.to_string(),
                    format!("{:.2}", p.answered_fraction()),
                    format!("{:.0}", p.p50_us),
                    p.wrong.to_string(),
                ]
            })
            .collect();
        report::print_table(
            "availability around the kill",
            &["phase", "reqs", "answered", "fraction", "p50 µs", "wrong"],
            &rows,
        );
    }

    /// The `BENCH_failover.json` artifact (schema in EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        use Json::*;
        let phase = |p: &FailoverPhase| {
            Object(vec![
                ("phase", Str(p.label.into())),
                ("requests", Int(p.requests as u64)),
                ("answered", Int(p.answered as u64)),
                ("answered_fraction", Num(p.answered_fraction(), Some(4))),
                ("latency_p50_us", Num(p.p50_us, Some(2))),
                ("wrong", Int(p.wrong as u64)),
            ])
        };
        Object(vec![
            ("bench", Str("failover".into())),
            ("seed", Int(self.seed)),
            ("streams", Int(self.streams as u64)),
            ("shards", Int(self.shards as u64)),
            ("nodes", Int(self.shards as u64 + 1)),
            ("window", Int(self.window as u64)),
            ("election_ms", Num(self.election_ms, Some(2))),
            ("unavailability_ms", Num(self.unavailability_ms, Some(2))),
            ("recovered_term", Int(self.recovered_term)),
            ("recovered_leader", Int(self.recovered_leader)),
            ("recovered", Bool(self.recovered)),
            ("zero_wrong_answers", Bool(self.zero_wrong_answers())),
            ("phases", Array(self.phases.iter().map(phase).collect())),
        ])
    }
}

fn row(cfg: &FailoverBenchConfig, r: u64) -> Vec<f64> {
    (0..cfg.streams)
        .map(|i| ((r as usize * 13 + i * 5 + cfg.seed as usize) % 31) as f64 - 15.0)
        .collect()
}

/// Ask one node for its `(node, term, leader)` view; `None` if it is
/// unreachable or answered something else.
fn probe_status(addr: SocketAddr) -> Option<(u64, u64, u64)> {
    let mut c = DaemonClient::connect(addr, Duration::from_millis(300)).ok()?;
    match c.call(&Request::Status).ok()? {
        Response::StatusR {
            node, term, leader, ..
        } => Some((node, term, leader)),
        _ => None,
    }
}

struct PhaseAcc {
    latencies_us: Vec<f64>,
    requests: usize,
    answered: usize,
    wrong: usize,
}

impl PhaseAcc {
    fn new() -> Self {
        PhaseAcc {
            latencies_us: Vec::new(),
            requests: 0,
            answered: 0,
            wrong: 0,
        }
    }

    fn finish(mut self, label: &'static str) -> FailoverPhase {
        self.latencies_us
            .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        FailoverPhase {
            label,
            requests: self.requests,
            answered: self.answered,
            wrong: self.wrong,
            p50_us: report::percentile(&self.latencies_us, 0.50),
        }
    }
}

/// Drive `count` acked ingests starting at `first_id`, each followed by
/// an oracle-checked point query on a rotating stream.
fn quiesced_phase(
    cfg: &FailoverBenchConfig,
    client: &mut FailoverClient,
    oracle: &mut ShardedStreamSet,
    first_id: u64,
    count: usize,
) -> PhaseAcc {
    let mut acc = PhaseAcc::new();
    for i in 0..count {
        let id = first_id + i as u64;
        let data = row(cfg, id);
        let t0 = Instant::now();
        let resp = client.ingest_acked(id, data.clone(), 8);
        acc.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        acc.requests += 1;
        match resp {
            Ok(Response::IngestOk { failed_shards, .. }) if failed_shards.is_empty() => {
                acc.answered += 1;
                oracle.push_row(&data);
            }
            Ok(_) => {
                // A quiesced cluster that cannot fully ack is wrong for
                // this bench's purposes: the phases bracket an outage,
                // they must not contain one.
                acc.answered += 1;
                acc.wrong += 1;
            }
            Err(_) => {}
        }
        let stream = (i % cfg.streams) as u64;
        let want = oracle
            .tree(stream as usize)
            .point_with(0, QueryOptions::default())
            .ok();
        let t0 = Instant::now();
        let resp = client.call(&Request::Point { stream, index: 0 });
        acc.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        acc.requests += 1;
        match (resp, want) {
            (Ok(Response::PointR { answer }), Some(w)) => {
                acc.answered += 1;
                if answer.value.to_bits() != w.value.to_bits() {
                    acc.wrong += 1;
                }
            }
            (Ok(Response::ErrorR { .. }), None) => acc.answered += 1,
            (Ok(_), _) => {
                acc.answered += 1;
                acc.wrong += 1;
            }
            (Err(_), _) => {}
        }
    }
    acc
}

/// Run the failover bench: spawn the cluster, drive a clean phase, kill
/// the leader, measure the outage, drive a post-recovery phase.
///
/// # Panics
///
/// Panics if the localhost cluster cannot be spawned — a bench without
/// a cluster has nothing to measure.
pub fn run(cfg: &FailoverBenchConfig) -> FailoverReport {
    assert!(cfg.shards >= 2, "failover needs >= 2 shards");
    let config = SwatConfig::with_coefficients(cfg.window, cfg.coeffs).expect("valid config");

    // Two-phase bring-up: bind everything first so every node knows the
    // full peer list before any node starts serving.
    let nodes = cfg.shards + 1;
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
        let mut nc = DaemonConfig::localhost(role, config, cfg.streams, cfg.shards);
        nc.peers = addrs.clone();
        nc.standbys = true;
        nc.io_timeout = Duration::from_millis(200);
        nc.hb_period = Duration::from_millis(50);
        nc.miss_threshold = 2;
        nc.election_timeout = Duration::from_millis(cfg.election_timeout_ms);
        handles.push(Some(spawn_on(listener, nc).expect("node comes up")));
    }

    let mut client = FailoverClient::new(
        addrs.clone(),
        RetryPolicy {
            max_retries: 3,
            timeout: 30,
        },
        Duration::from_millis(500),
    );
    let mut oracle = ShardedStreamSet::new(config, cfg.streams, cfg.shards);

    let before = quiesced_phase(cfg, &mut client, &mut oracle, 0, cfg.rows_before);

    // Kill the leader abruptly: no drain, no goodbye.
    handles[0].take().expect("spawned above").kill();
    let t_kill = Instant::now();
    let deadline = t_kill + Duration::from_millis(cfg.deadline_ms);

    let mut during = PhaseAcc::new();
    let mut election_ms = f64::NAN;
    let mut unavailability_ms = f64::NAN;
    let mut recovered_term = 0u64;
    let mut recovered_leader = 0u64;
    let kill_id = cfg.rows_before as u64;
    let kill_row = row(cfg, kill_id);
    while Instant::now() < deadline {
        // Election probe: has any survivor claimed a term yet?
        if election_ms.is_nan() {
            for &addr in &addrs[1..] {
                during.requests += 1;
                if let Some((node, term, leader)) = probe_status(addr) {
                    during.answered += 1;
                    if term > 0 && leader == node {
                        election_ms = t_kill.elapsed().as_secs_f64() * 1e3;
                        recovered_term = term;
                        recovered_leader = leader;
                        break;
                    }
                }
            }
        }
        // Availability probe: the same write id retried until it fully
        // acks (duplicate-safe, so partial applications converge).
        let t0 = Instant::now();
        let resp = client.ingest_acked(kill_id, kill_row.clone(), 1);
        during.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        during.requests += 1;
        match resp {
            Ok(Response::IngestOk { failed_shards, .. }) if failed_shards.is_empty() => {
                during.answered += 1;
                unavailability_ms = t_kill.elapsed().as_secs_f64() * 1e3;
                oracle.push_row(&kill_row);
                break;
            }
            Ok(_) => during.answered += 1,
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let recovered = !unavailability_ms.is_nan();
    if election_ms.is_nan() {
        // The ack can race ahead of the probe loop; read the final view.
        for &addr in &addrs[1..] {
            if let Some((node, term, leader)) = probe_status(addr) {
                if term > 0 && leader == node {
                    election_ms = t_kill.elapsed().as_secs_f64() * 1e3;
                    recovered_term = term;
                    recovered_leader = leader;
                    break;
                }
            }
        }
    }

    let mut after = if recovered {
        quiesced_phase(cfg, &mut client, &mut oracle, kill_id + 1, cfg.rows_after)
    } else {
        PhaseAcc::new()
    };
    if recovered {
        // Full sweep: every stream's newest point must match the oracle
        // over the acked rows — an acked-then-lost row from a bad
        // standby promotion would surface here.
        for stream in 0..cfg.streams as u64 {
            let want = oracle
                .tree(stream as usize)
                .point_with(0, QueryOptions::default())
                .ok();
            after.requests += 1;
            match (client.call(&Request::Point { stream, index: 0 }), want) {
                (Ok(Response::PointR { answer }), Some(w)) => {
                    after.answered += 1;
                    if answer.value.to_bits() != w.value.to_bits() {
                        after.wrong += 1;
                    }
                }
                (Ok(Response::ErrorR { .. }), None) => after.answered += 1,
                (Ok(_), _) => {
                    after.answered += 1;
                    after.wrong += 1;
                }
                (Err(_), _) => {}
            }
        }
        // And the global top-k must still be exact and complete.
        after.requests += 1;
        match client.call(&Request::TopK { k: 5 }) {
            Ok(Response::TopKR { complete, entries }) => {
                after.answered += 1;
                let (want, _) = oracle.global_top_k(5, 1);
                if !complete || entries != want.entries() {
                    after.wrong += 1;
                }
            }
            Ok(_) => {
                after.answered += 1;
                after.wrong += 1;
            }
            Err(_) => {}
        }
    }

    for h in handles.into_iter().flatten() {
        let _ = h.stop();
    }

    FailoverReport {
        seed: cfg.seed,
        streams: cfg.streams,
        shards: cfg.shards,
        window: cfg.window,
        election_ms,
        unavailability_ms,
        recovered_term,
        recovered_leader,
        recovered,
        phases: vec![
            before.finish("before"),
            during.finish("during"),
            after.finish("after"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_recovers_with_zero_wrong_answers() {
        let report = run(&FailoverBenchConfig::quick(7));
        assert!(report.recovered, "the cluster must re-elect and re-ack");
        assert!(report.recovered_term > 0, "recovery means a new term");
        assert_ne!(report.recovered_leader, 0, "node 0 is dead");
        assert!(report.election_ms.is_finite());
        assert!(report.unavailability_ms.is_finite());
        assert!(report.zero_wrong_answers(), "failover must never be wrong");
        let before = &report.phases[0];
        let after = &report.phases[2];
        assert_eq!(before.wrong, 0);
        assert_eq!(after.wrong, 0);
        assert!(before.answered_fraction() > 0.99, "clean phase answers");
        assert!(after.answered_fraction() > 0.99, "recovered phase answers");
        let json = report.to_json().render();
        assert!(json.contains("\"bench\": \"failover\""));
        assert!(json.contains("\"zero_wrong_answers\": true"));
    }
}
