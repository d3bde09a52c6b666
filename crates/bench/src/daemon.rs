//! The daemon bench: request latency and throughput of a real-TCP
//! localhost `swatd` cluster, clean versus one-replica-killed.
//!
//! One leader and `shards` replicas come up in-process (real
//! `TcpListener`s, real per-connection threads — the exact production
//! path), a client drives an ingest+query workload twice:
//!
//! 1. **clean** — all replicas alive; every answer is checked against
//!    the in-process `ShardedStreamSet` oracle (bit-exact),
//! 2. **degraded** — the last shard's replica is killed abruptly
//!    mid-run; answered queries on surviving shards must stay
//!    bit-exact, everything touching the dead shard must degrade
//!    *explicitly* (`failed_shards` / `Unavailable` / incomplete
//!    top-k), never silently.
//!
//! The report records per-request latency (p50/p99) and throughput for
//! both phases and fails the run on any wrong answer — the robustness
//! claim is "degraded, never wrong", and the bench enforces it on every
//! run. Artifact: `results/BENCH_daemon.json` (schema in
//! EXPERIMENTS.md).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use swat_daemon::{spawn, DaemonClient, DaemonConfig, Response, Role};
use swat_tree::{QueryOptions, ShardedStreamSet, SwatConfig};

use crate::report;

/// Workload shape for the daemon bench.
#[derive(Debug, Clone)]
pub struct DaemonBenchConfig {
    /// Seed recorded in the artifact (the workload itself is
    /// deterministic).
    pub seed: u64,
    /// Global stream count.
    pub streams: usize,
    /// Shards (= replicas).
    pub shards: usize,
    /// Tree window (power of two).
    pub window: usize,
    /// Coefficients kept per node.
    pub coeffs: usize,
    /// Ingest requests per phase.
    pub rows: usize,
    /// Point queries per phase.
    pub points: usize,
    /// Distributed top-k requests per phase.
    pub topks: usize,
}

impl DaemonBenchConfig {
    /// Smoke-sized run (still real TCP, still oracle-checked).
    pub fn quick(seed: u64) -> Self {
        DaemonBenchConfig {
            seed,
            streams: 8,
            shards: 2,
            window: 16,
            coeffs: 4,
            rows: 48,
            points: 32,
            topks: 4,
        }
    }

    /// Full run.
    pub fn full(seed: u64) -> Self {
        DaemonBenchConfig {
            seed,
            streams: 32,
            shards: 4,
            window: 64,
            coeffs: 4,
            rows: 400,
            points: 300,
            topks: 20,
        }
    }
}

/// Measured outcome of one phase.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// `"clean"` or `"degraded"`.
    pub label: &'static str,
    /// Requests issued.
    pub requests: usize,
    /// Wall-clock for the whole phase.
    pub elapsed: Duration,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Requests per second over the phase.
    pub throughput_rps: f64,
    /// Responses that degraded explicitly (`failed_shards`,
    /// `Unavailable`, incomplete top-k, `Overloaded`).
    pub degraded: usize,
    /// Answers that disagreed with the oracle — must be zero.
    pub wrong: usize,
}

/// The `BENCH_daemon.json` report.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Seed recorded for reproducibility.
    pub seed: u64,
    /// Streams × shards of the measured cluster.
    pub streams: usize,
    /// Shards (= replicas).
    pub shards: usize,
    /// Tree window.
    pub window: usize,
    /// Both phases, clean first.
    pub phases: Vec<PhaseStats>,
}

impl DaemonReport {
    /// Whether every answered request agreed with the oracle.
    pub fn zero_wrong_answers(&self) -> bool {
        self.phases.iter().all(|p| p.wrong == 0)
    }

    /// Print the human-readable table.
    pub fn print(&self) {
        println!(
            "daemon bench: {} streams × {} shards, window {} (real TCP, localhost)",
            self.streams, self.shards, self.window
        );
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.label.to_string(),
                    p.requests.to_string(),
                    format!("{:.1}ms", p.elapsed.as_secs_f64() * 1e3),
                    format!("{:.0}", p.p50_us),
                    format!("{:.0}", p.p99_us),
                    format!("{:.0}", p.throughput_rps),
                    p.degraded.to_string(),
                    p.wrong.to_string(),
                ]
            })
            .collect();
        report::print_table(
            "request latency and throughput",
            &[
                "phase", "reqs", "elapsed", "p50 µs", "p99 µs", "req/s", "degraded", "wrong",
            ],
            &rows,
        );
    }

    /// Serialize as the `BENCH_daemon.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"daemon\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!("  \"streams\": {},\n", self.streams));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"window\": {},\n", self.window));
        out.push_str(&format!(
            "  \"zero_wrong_answers\": {},\n",
            self.zero_wrong_answers()
        ));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"requests\": {}, \"elapsed_ns\": {}, \
                 \"latency_p50_us\": {:.2}, \"latency_p99_us\": {:.2}, \
                 \"throughput_rps\": {:.1}, \"degraded\": {}, \"wrong\": {}}}{}\n",
                p.label,
                p.requests,
                p.elapsed.as_nanos(),
                p.p50_us,
                p.p99_us,
                p.throughput_rps,
                p.degraded,
                p.wrong,
                if i + 1 == self.phases.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON artifact, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or the write.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        report::write_json(path, &self.to_json())
    }
}

fn row(cfg: &DaemonBenchConfig, r: u64) -> Vec<f64> {
    (0..cfg.streams)
        .map(|i| ((r as usize * 13 + i * 5 + cfg.seed as usize) % 31) as f64 - 15.0)
        .collect()
}

struct Phase {
    latencies_us: Vec<f64>,
    elapsed: Duration,
    degraded: usize,
    wrong: usize,
    requests: usize,
}

/// One workload phase: interleaved ingests, points, and top-ks, every
/// answer cross-checked. `killed_shard` is `Some` in the degraded
/// phase; the oracle then only covers surviving shards' streams.
fn drive(
    cfg: &DaemonBenchConfig,
    client: &mut DaemonClient,
    oracle: &mut ShardedStreamSet,
    first_id: u64,
    killed_shard: Option<usize>,
) -> Phase {
    let mut p = Phase {
        latencies_us: Vec::new(),
        elapsed: Duration::ZERO,
        degraded: 0,
        wrong: 0,
        requests: 0,
    };
    let started = Instant::now();
    let call =
        |client: &mut DaemonClient, req: swat_daemon::Request, p: &mut Phase| -> Option<Response> {
            let t0 = Instant::now();
            let resp = client.call(&req).ok();
            p.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            p.requests += 1;
            resp
        };
    let point_total = cfg.points.max(1);
    let topk_every = (cfg.rows / cfg.topks.max(1)).max(1);
    let mut points_done = 0usize;
    for i in 0..cfg.rows {
        let id = first_id + i as u64;
        let data = row(cfg, id);
        match call(
            client,
            swat_daemon::Request::Ingest {
                req_id: id,
                row: data.clone(),
            },
            &mut p,
        ) {
            Some(Response::IngestOk { failed_shards, .. }) => {
                let allowed = killed_shard.map(|s| vec![s as u32]).unwrap_or_default();
                if failed_shards.is_empty() {
                    oracle.push_row(&data);
                } else if failed_shards == allowed {
                    p.degraded += 1;
                    // Surviving shards applied it; the oracle mirrors
                    // that for the streams we still query.
                    oracle.push_row(&data);
                } else {
                    p.wrong += 1;
                }
            }
            Some(Response::Overloaded) => p.degraded += 1,
            _ => p.wrong += 1,
        }
        // Interleave point queries across streams, skipping the dead
        // shard's streams (those are checked separately as explicit
        // Unavailable).
        while points_done * cfg.rows < point_total * (i + 1) {
            let stream = (points_done % cfg.streams) as u64;
            points_done += 1;
            let owner = swat_tree::shard_of(stream, cfg.shards);
            let want = oracle
                .tree(stream as usize)
                .point_with(0, QueryOptions::default())
                .ok();
            match call(
                client,
                swat_daemon::Request::Point { stream, index: 0 },
                &mut p,
            ) {
                Some(Response::PointR { answer }) => match want {
                    Some(w) if Some(owner) != killed_shard => {
                        if answer.value.to_bits() != w.value.to_bits() {
                            p.wrong += 1;
                        }
                    }
                    // A dead shard returning a value would be either a
                    // stale replica or an invented answer — both wrong.
                    _ => p.wrong += 1,
                },
                Some(Response::Unavailable { .. }) if Some(owner) == killed_shard => {
                    p.degraded += 1;
                }
                Some(Response::ErrorR { .. }) if want.is_none() => {}
                _ => p.wrong += 1,
            }
        }
        if i % topk_every == topk_every - 1 {
            match call(client, swat_daemon::Request::TopK { k: 5 }, &mut p) {
                Some(Response::TopKR { complete, entries }) => {
                    if killed_shard.is_none() {
                        let (want, _) = oracle.global_top_k(5, 1);
                        if !complete || entries != want.entries() {
                            p.wrong += 1;
                        }
                    } else if complete {
                        // A cluster missing a shard must say so.
                        p.wrong += 1;
                    } else {
                        p.degraded += 1;
                    }
                }
                _ => p.wrong += 1,
            }
        }
    }
    p.elapsed = started.elapsed();
    p
}

/// Run the daemon bench: spawn the cluster, drive the clean phase, kill
/// the last shard's replica, drive the degraded phase, tear down.
///
/// # Panics
///
/// Panics if the localhost cluster cannot be spawned or the client
/// cannot connect — a bench without a cluster has nothing to measure.
pub fn run(cfg: &DaemonBenchConfig) -> DaemonReport {
    assert!(cfg.shards >= 2, "the bench kills one of >= 2 shards");
    let config = SwatConfig::with_coefficients(cfg.window, cfg.coeffs).expect("valid config");
    let mut replicas = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..cfg.shards {
        let rc = DaemonConfig::localhost(Role::Replica { shard }, config, cfg.streams, cfg.shards);
        let h = spawn(rc).expect("replica binds");
        addrs.push(h.addr());
        replicas.push(h);
    }
    let mut lc = DaemonConfig::localhost(
        Role::Leader { replicas: addrs },
        config,
        cfg.streams,
        cfg.shards,
    );
    lc.io_timeout = Duration::from_millis(200);
    lc.hb_period = Duration::from_millis(50);
    lc.miss_threshold = 2;
    let leader = spawn(lc).expect("leader binds");
    let mut client =
        DaemonClient::connect(leader.addr(), Duration::from_secs(2)).expect("client connects");

    let mut oracle = ShardedStreamSet::new(config, cfg.streams, cfg.shards);
    let clean = drive(cfg, &mut client, &mut oracle, 0, None);

    // Kill the last shard's replica abruptly: no drain, no goodbye.
    let killed = cfg.shards - 1;
    replicas.pop().expect("spawned above").kill();
    let degraded = drive(cfg, &mut client, &mut oracle, cfg.rows as u64, Some(killed));

    let _ = leader.stop();
    for r in replicas {
        let _ = r.stop();
    }

    let phases = [("clean", clean), ("degraded", degraded)]
        .into_iter()
        .map(|(label, mut p)| {
            p.latencies_us
                .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            PhaseStats {
                label,
                requests: p.requests,
                elapsed: p.elapsed,
                p50_us: report::percentile(&p.latencies_us, 0.50),
                p99_us: report::percentile(&p.latencies_us, 0.99),
                throughput_rps: p.requests as f64 / p.elapsed.as_secs_f64().max(1e-9),
                degraded: p.degraded,
                wrong: p.wrong,
            }
        })
        .collect();
    DaemonReport {
        seed: cfg.seed,
        streams: cfg.streams,
        shards: cfg.shards,
        window: cfg.window,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_has_zero_wrong_answers_and_visible_degradation() {
        let report = run(&DaemonBenchConfig::quick(7));
        assert_eq!(report.phases.len(), 2);
        let clean = &report.phases[0];
        let degraded = &report.phases[1];
        assert_eq!(clean.wrong, 0, "clean phase must be exact");
        assert_eq!(clean.degraded, 0, "nothing degrades while all live");
        assert_eq!(degraded.wrong, 0, "degraded phase must never be wrong");
        assert!(
            degraded.degraded > 0,
            "killing a replica must surface explicitly"
        );
        assert!(clean.throughput_rps > 0.0);
        assert!(clean.p50_us <= clean.p99_us);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"daemon\""));
        assert!(json.contains("\"zero_wrong_answers\": true"));
    }
}
