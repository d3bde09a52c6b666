//! Chaos sweep: SWAT-ASR message cost and answer quality under faults.
//!
//! Sweeps a grid of drop rate × delay over the fault-aware driver
//! ([`swat_replication::run_chaos`]), with an optional crash-window
//! variant per cell, and reports per-cell message cost, answer rate,
//! and retry/loss counters. Renders as a table (via [`crate::report`])
//! and as the `results/BENCH_chaos.json` artifact (schema documented in
//! EXPERIMENTS.md); backs the `swat chaos` CLI subcommand. The headline
//! expectation: message cost rises with drop rate (retries + lost cache
//! warmth) while correctness never degrades — the `violations` field
//! must be zero in every cell.

use crate::report::{self, Json};
use swat_data::Dataset;
use swat_net::{DelayDist, FaultPlan, NodeId, Topology};
use swat_replication::harness::WorkloadConfig;
use swat_replication::{run_chaos, ChaosOptions, HealPolicy, SchemeKind};

/// The sweep grid.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-edge drop probabilities to sweep.
    pub drops: Vec<f64>,
    /// Maximum per-edge delays to sweep (`0` = instant, `d` = uniform
    /// `0..=d` ticks).
    pub delays: Vec<u64>,
    /// Depth of the complete binary client tree.
    pub depth: usize,
    /// Sliding-window size (power of two).
    pub window: usize,
    /// Simulation horizon in ticks.
    pub horizon: u64,
    /// Warm-up ticks excluded from measurement.
    pub warmup: u64,
    /// Query precision requirement `δ`.
    pub delta: f64,
    /// Master seed (workload and fault randomness both derive from it).
    pub seed: u64,
    /// Also run each cell with a mid-run crash window on one client.
    pub with_crash_variant: bool,
    /// Run every cell with the self-healing layer enabled
    /// (`swat chaos --heal`). Only crash cells behave differently —
    /// detection does not arm without crash windows.
    pub heal: bool,
}

impl ChaosConfig {
    /// The default full-size grid (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        ChaosConfig {
            drops: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            delays: vec![0, 1, 4],
            depth: 3,
            window: 32,
            horizon: 4000,
            warmup: 500,
            delta: 20.0,
            seed,
            with_crash_variant: true,
            heal: false,
        }
    }

    /// A drastically shrunk grid for smoke tests.
    pub fn quick(seed: u64) -> Self {
        ChaosConfig {
            drops: vec![0.0, 0.1],
            delays: vec![0, 2],
            depth: 2,
            window: 16,
            horizon: 800,
            warmup: 150,
            delta: 20.0,
            seed,
            with_crash_variant: false,
            heal: false,
        }
    }

    fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            window: self.window,
            delta: self.delta,
            horizon: self.horizon,
            warmup: self.warmup,
            seed: self.seed,
            ..WorkloadConfig::default()
        }
    }
}

/// One measured (drop, delay, crash) cell.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Per-edge drop probability.
    pub drop: f64,
    /// Maximum per-edge delay in ticks (uniform `0..=delay`).
    pub delay: u64,
    /// Whether a crash window was injected.
    pub crash: bool,
    /// Post-warmup messages, all kinds.
    pub messages: u64,
    /// Post-warmup weighted message cost.
    pub weighted_cost: f64,
    /// Measured queries issued.
    pub queries: u64,
    /// Measured queries whose answer reached the client.
    pub answered: u64,
    /// `answered / queries`.
    pub answer_rate: f64,
    /// Measured queries answered from the client's own cache.
    pub local_hits: u64,
    /// Replication messages re-sent by the retry protocol.
    pub retries: u64,
    /// Messages the fault plan dropped (all kinds, whole run).
    pub dropped: u64,
    /// Mean delivery latency in ticks over delivered messages.
    pub mean_latency: f64,
    /// Tree repairs performed by the self-healing layer (0 without
    /// `--heal` or without a crash window).
    pub repairs: usize,
    /// Correctness violations found by the invariant checker (always 0
    /// unless the driver is buggy).
    pub violations: usize,
}

impl ChaosCase {
    /// Weighted message cost per answered query — the headline robustness
    /// price: it rises monotonically with the drop rate (raw cost alone
    /// does not, because heavily dropped runs also charge fewer
    /// answer-path messages).
    pub fn cost_per_answer(&self) -> f64 {
        self.weighted_cost / self.answered.max(1) as f64
    }
}

/// A full sweep: the grid plus every measured cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Master seed.
    pub seed: u64,
    /// Client-tree depth swept.
    pub depth: usize,
    /// Simulation horizon per cell.
    pub horizon: u64,
    /// Query precision requirement.
    pub delta: f64,
    /// Whether the self-healing layer was enabled for every cell.
    pub heal: bool,
    /// Measured cells, in sweep order.
    pub cases: Vec<ChaosCase>,
}

/// Run one cell of the sweep.
fn run_cell(
    cfg: &ChaosConfig,
    topo: &Topology,
    data: &[f64],
    drop: f64,
    delay: u64,
    crash: bool,
) -> ChaosCase {
    let mut plan = FaultPlan::new(cfg.seed ^ 0xC4A05)
        .with_drop(drop)
        .expect("grid probabilities are valid");
    if delay > 0 {
        plan = plan
            .with_delay(DelayDist::Uniform { lo: 0, hi: delay })
            .expect("grid delays are valid");
    }
    if crash {
        // One client dies for a tenth of the run, mid-run.
        let node = NodeId(topo.len() - 1);
        let from = cfg.warmup + (cfg.horizon - cfg.warmup) / 2;
        plan = plan
            .with_crash(node, from, from + (cfg.horizon - cfg.warmup) / 10)
            .expect("crash window is nonempty");
    }
    let options = ChaosOptions {
        plan,
        check_invariants: true,
        heal: cfg.heal.then(HealPolicy::default),
        ..ChaosOptions::default()
    };
    let out = run_chaos(SchemeKind::SwatAsr, topo, data, &cfg.workload(), &options)
        .expect("SWAT-ASR supports every plan");
    let sum_over = |prefix: &str| -> u64 {
        out.net
            .counters()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let (lat_sum, lat_n) = out
        .net
        .stats()
        .filter(|(k, _)| k.starts_with("net.latency."))
        .fold((0.0, 0u64), |(s, n), (_, acc)| {
            (s + acc.sum(), n + acc.count())
        });
    let queries = out.run.metrics.counter("queries");
    let answered = out.net.counter("net.queries_answered");
    ChaosCase {
        drop,
        delay,
        crash,
        messages: out.run.ledger.total(),
        weighted_cost: out.run.ledger.weighted_total(),
        queries,
        answered,
        answer_rate: if queries == 0 {
            1.0
        } else {
            answered as f64 / queries as f64
        },
        local_hits: out.run.metrics.counter("local_hits"),
        retries: sum_over("net.retried."),
        dropped: sum_over("net.dropped."),
        mean_latency: if lat_n == 0 {
            0.0
        } else {
            lat_sum / lat_n as f64
        },
        repairs: out.repairs.len(),
        violations: out.violations.len(),
    }
}

/// Measure the whole grid.
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    let topo = Topology::complete_binary(cfg.depth);
    let data = Dataset::Weather.series(cfg.seed, cfg.horizon as usize + 1);
    let mut cases = Vec::new();
    for &drop in &cfg.drops {
        for &delay in &cfg.delays {
            cases.push(run_cell(cfg, &topo, &data, drop, delay, false));
            if cfg.with_crash_variant {
                cases.push(run_cell(cfg, &topo, &data, drop, delay, true));
            }
        }
    }
    ChaosReport {
        seed: cfg.seed,
        depth: cfg.depth,
        horizon: cfg.horizon,
        delta: cfg.delta,
        heal: cfg.heal,
        cases,
    }
}

impl ChaosReport {
    /// Render the cells as a table on stdout.
    pub fn print(&self) {
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    format!("{:.2}", c.drop),
                    c.delay.to_string(),
                    if c.crash { "yes" } else { "no" }.to_owned(),
                    c.messages.to_string(),
                    report::fmt(c.weighted_cost),
                    format!("{:.3}", c.answer_rate),
                    c.local_hits.to_string(),
                    c.retries.to_string(),
                    c.dropped.to_string(),
                    format!("{:.2}", c.mean_latency),
                    c.repairs.to_string(),
                    c.violations.to_string(),
                ]
            })
            .collect();
        report::print_table(
            "chaos sweep (SWAT-ASR under faults)",
            &[
                "drop", "delay", "crash", "msgs", "cost", "ans rate", "hits", "retries", "dropped",
                "lat", "repairs", "viol",
            ],
            &rows,
        );
    }

    /// The `BENCH_chaos.json` artifact (schema in EXPERIMENTS.md): a
    /// function of the configuration alone — no timestamp — so the
    /// committed file can be held to `cmp`.
    pub fn to_json(&self) -> Json {
        use Json::*;
        let case = |c: &ChaosCase| {
            Object(vec![
                ("drop", Num(c.drop, None)),
                ("delay", Int(c.delay)),
                ("crash", Bool(c.crash)),
                ("messages", Int(c.messages)),
                ("weighted_cost", Num(c.weighted_cost, Some(1))),
                ("queries", Int(c.queries)),
                ("answered", Int(c.answered)),
                ("answer_rate", Num(c.answer_rate, Some(4))),
                ("local_hits", Int(c.local_hits)),
                ("retries", Int(c.retries)),
                ("dropped", Int(c.dropped)),
                ("mean_latency", Num(c.mean_latency, Some(3))),
                ("cost_per_answer", Num(c.cost_per_answer(), Some(2))),
                ("repairs", Int(c.repairs as u64)),
                ("violations", Int(c.violations as u64)),
            ])
        };
        Object(vec![
            ("bench", Str("chaos".into())),
            ("scheme", Str("SWAT-ASR".into())),
            ("seed", Int(self.seed)),
            ("depth", Int(self.depth as u64)),
            ("horizon", Int(self.horizon)),
            ("delta", Num(self.delta, None)),
            ("heal", Bool(self.heal)),
            ("cases", Array(self.cases.iter().map(case).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_clean_and_degrades_gracefully() {
        let cfg = ChaosConfig::quick(7);
        let report = run(&cfg);
        assert_eq!(report.cases.len(), cfg.drops.len() * cfg.delays.len());
        for c in &report.cases {
            assert_eq!(c.violations, 0, "drop={} delay={}", c.drop, c.delay);
            assert!(c.queries > 0);
            assert!(
                c.answer_rate > 0.5,
                "drop={}: answer rate collapsed",
                c.drop
            );
        }
        // The fault-free cell answers everything; faulty cells cost more
        // messages than the fault-free one at the same delay.
        let ideal = &report.cases[0];
        assert_eq!(ideal.answer_rate, 1.0);
        assert_eq!(ideal.retries, 0);
        let faulty = report
            .cases
            .iter()
            .find(|c| c.drop > 0.0 && c.delay == 0)
            .expect("grid has a faulty cell");
        assert!(faulty.retries > 0);
        assert!(
            faulty.cost_per_answer() > ideal.cost_per_answer(),
            "drops must make each answered query cost more messages"
        );
        let json = report.to_json().render();
        assert!(json.contains("\"bench\": \"chaos\""));
        assert_eq!(json.matches("\"drop\"").count(), report.cases.len());
    }

    #[test]
    fn crash_variant_adds_cases() {
        let mut cfg = ChaosConfig::quick(3);
        cfg.drops = vec![0.0];
        cfg.delays = vec![0];
        cfg.with_crash_variant = true;
        let report = run(&cfg);
        assert_eq!(report.cases.len(), 2);
        assert!(report.cases.iter().any(|c| c.crash));
        for c in &report.cases {
            assert_eq!(c.violations, 0);
        }
    }
}
