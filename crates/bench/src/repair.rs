//! Repair sweep: self-healing versus a static tree under interior
//! crashes.
//!
//! Sweeps a grid of topology shape × crash duration. Each cell crashes
//! one *interior* client (a node with live descendants — the failure
//! that actually partitions a static tree) for a fraction of the
//! measured span, then runs the fault-aware driver twice on the same
//! plan: once static ([`ChaosOptions::heal`]` = None`) and once healed.
//! Reports per-cell answered counts for both, the healing overhead
//! (heartbeats, probes, repairs), and the headline `dominates` flag:
//! the healed run must answer strictly more measured queries than the
//! static one in every cell, at zero correctness violations. Renders as
//! a table (via [`crate::report`]) and as the `results/BENCH_repair.json`
//! artifact (schema documented in EXPERIMENTS.md); backs the
//! `swat repair-bench` CLI subcommand.

use crate::report::{self, Json};
use swat_data::Dataset;
use swat_net::{FaultPlan, MsgKind, NodeId, Topology};
use swat_replication::harness::WorkloadConfig;
use swat_replication::{run_chaos, ChaosOptions, HealPolicy, SchemeKind};

/// A topology shape in the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// `Topology::chain(n)`.
    Chain(usize),
    /// `Topology::complete_binary(depth)`.
    Binary(usize),
    /// `Topology::random_tree(n, seed)`; the seed comes from the sweep.
    Random(usize),
}

impl TopoSpec {
    /// Stable display/JSON name, e.g. `chain-6`.
    pub fn name(self) -> String {
        match self {
            TopoSpec::Chain(n) => format!("chain-{n}"),
            TopoSpec::Binary(d) => format!("binary-{d}"),
            TopoSpec::Random(n) => format!("random-{n}"),
        }
    }

    /// Build the topology. Random trees re-seed until the tree has an
    /// interior client, so every cell can stage the partition this
    /// bench exists to measure.
    fn build(self, seed: u64) -> Topology {
        match self {
            TopoSpec::Chain(n) => Topology::chain(n),
            TopoSpec::Binary(d) => Topology::complete_binary(d),
            TopoSpec::Random(n) => {
                for bump in 0..64 {
                    let t = Topology::random_tree(n, seed.wrapping_add(bump));
                    if interior_client(&t).is_some() {
                        return t;
                    }
                }
                // A star 64 times in a row is practically impossible for
                // n >= 3; fall back to a chain so the bench still runs.
                Topology::chain(n)
            }
        }
    }
}

/// The deepest interior client: a non-source node that has children, so
/// crashing it orphans a subtree. Ties break toward larger subtrees.
fn interior_client(topo: &Topology) -> Option<NodeId> {
    topo.clients()
        .filter(|&c| !topo.is_leaf(c))
        .max_by_key(|&c| (subtree_size(topo, c), c.index()))
}

fn subtree_size(topo: &Topology, node: NodeId) -> usize {
    1 + topo
        .children(node)
        .iter()
        .map(|&c| subtree_size(topo, c))
        .sum::<usize>()
}

/// The sweep grid.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Topology shapes to sweep.
    pub topos: Vec<TopoSpec>,
    /// Crash durations to sweep, as fractions of the measured span.
    pub crash_fracs: Vec<f64>,
    /// Sliding-window size (power of two).
    pub window: usize,
    /// Simulation horizon in ticks.
    pub horizon: u64,
    /// Warm-up ticks excluded from measurement.
    pub warmup: u64,
    /// Query precision requirement `δ`.
    pub delta: f64,
    /// Master seed (workload, fault, and random-tree randomness all
    /// derive from it).
    pub seed: u64,
    /// Failure-detection parameters for the healed runs.
    pub heal: HealPolicy,
}

impl RepairConfig {
    /// The default full-size grid (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        RepairConfig {
            topos: vec![
                TopoSpec::Chain(6),
                TopoSpec::Binary(3),
                TopoSpec::Random(10),
            ],
            crash_fracs: vec![0.34, 0.67, 1.0],
            window: 32,
            horizon: 4000,
            warmup: 500,
            delta: 20.0,
            seed,
            heal: HealPolicy::default(),
        }
    }

    /// A drastically shrunk grid for smoke tests.
    pub fn quick(seed: u64) -> Self {
        RepairConfig {
            topos: vec![TopoSpec::Chain(4), TopoSpec::Binary(2)],
            crash_fracs: vec![0.5],
            window: 16,
            horizon: 900,
            warmup: 150,
            delta: 20.0,
            seed,
            heal: HealPolicy::default(),
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

/// One measured (topology, crash fraction) cell: the same crash plan run
/// static and healed.
#[derive(Debug, Clone)]
pub struct RepairCase {
    /// Topology name (`chain-6`, `binary-3`, `random-10`).
    pub topology: String,
    /// Node count including the source.
    pub nodes: usize,
    /// Crashed interior client.
    pub crashed_node: usize,
    /// Fraction of the measured span the node is down.
    pub crash_frac: f64,
    /// Measured queries issued (identical in both runs).
    pub queries: u64,
    /// Measured queries answered by the static run.
    pub static_answered: u64,
    /// Measured queries answered by the healed run.
    pub healed_answered: u64,
    /// Post-warmup messages, static run.
    pub static_messages: u64,
    /// Post-warmup messages, healed run (includes healing overhead).
    pub healed_messages: u64,
    /// Post-warmup heartbeat messages (pings, pongs, repair probes).
    pub heartbeats: u64,
    /// Liveness probes issued during repairs (whole run).
    pub probes: u64,
    /// Re-parenting repairs performed.
    pub repairs: u64,
    /// Post-crash rejoins performed.
    pub rejoins: u64,
    /// Duplicate deliveries suppressed by write-id dedup (healed run).
    pub dup_suppressed: u64,
    /// Correctness violations across both runs (always 0 unless the
    /// driver is buggy).
    pub violations: usize,
}

impl RepairCase {
    /// `static_answered / queries`.
    pub fn static_rate(&self) -> f64 {
        self.static_answered as f64 / self.queries.max(1) as f64
    }

    /// `healed_answered / queries`.
    pub fn healed_rate(&self) -> f64 {
        self.healed_answered as f64 / self.queries.max(1) as f64
    }

    /// The headline: did healing answer strictly more measured queries
    /// than the static tree on the same crash plan?
    pub fn dominates(&self) -> bool {
        self.healed_answered > self.static_answered
    }
}

/// A full sweep: the grid plus every measured cell.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Master seed.
    pub seed: u64,
    /// Simulation horizon per cell.
    pub horizon: u64,
    /// Query precision requirement.
    pub delta: f64,
    /// Failure-detection parameters used by every healed run.
    pub heal: HealPolicy,
    /// Measured cells, in sweep order.
    pub cases: Vec<RepairCase>,
}

impl RepairReport {
    /// Whether every cell's healed run strictly dominated its static
    /// run.
    pub fn all_dominate(&self) -> bool {
        self.cases.iter().all(RepairCase::dominates)
    }
}

/// Run one cell of the sweep.
fn run_cell(cfg: &RepairConfig, spec: TopoSpec, crash_frac: f64) -> RepairCase {
    let topo = spec.build(cfg.seed);
    let data = Dataset::Weather.series(cfg.seed, cfg.horizon as usize + 1);
    let node = interior_client(&topo).unwrap_or(NodeId(topo.len() - 1));
    // The outage starts one-eighth into the measured span and lasts
    // `crash_frac` of three-quarters of it, so even a full-fraction
    // crash ends inside the horizon and the rejoin is observable.
    let span = cfg.horizon - cfg.warmup;
    let from = cfg.warmup + span / 8;
    let len = ((span as f64 * 0.75) * crash_frac).round() as u64;
    let plan = FaultPlan::new(cfg.seed ^ 0x4EFA17)
        .with_crash(node, from, from + len.max(1))
        .expect("crash window is nonempty");
    let static_opts = ChaosOptions {
        plan: plan.clone(),
        check_invariants: true,
        ..ChaosOptions::default()
    };
    let healed_opts = ChaosOptions {
        plan,
        check_invariants: true,
        heal: Some(cfg.heal),
        ..ChaosOptions::default()
    };
    let workload = cfg.workload();
    let static_out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &workload, &static_opts)
        .expect("SWAT-ASR supports every plan");
    let healed_out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &workload, &healed_opts)
        .expect("SWAT-ASR supports every plan");
    RepairCase {
        topology: spec.name(),
        nodes: topo.len(),
        crashed_node: node.index(),
        crash_frac,
        queries: healed_out.run.metrics.counter("queries"),
        static_answered: static_out.net.counter("net.queries_answered"),
        healed_answered: healed_out.net.counter("net.queries_answered"),
        static_messages: static_out.run.ledger.total(),
        healed_messages: healed_out.run.ledger.total(),
        heartbeats: healed_out.run.ledger.count(MsgKind::Heartbeat),
        probes: healed_out.net.counter("net.probes"),
        repairs: healed_out.net.counter("net.repairs"),
        rejoins: healed_out.net.counter("net.rejoins"),
        dup_suppressed: healed_out.net.counter("net.dup_suppressed"),
        violations: static_out.violations.len() + healed_out.violations.len(),
    }
}

/// Measure the whole grid.
pub fn run(cfg: &RepairConfig) -> RepairReport {
    let mut cases = Vec::new();
    for &spec in &cfg.topos {
        for &frac in &cfg.crash_fracs {
            cases.push(run_cell(cfg, spec, frac));
        }
    }
    RepairReport {
        seed: cfg.seed,
        horizon: cfg.horizon,
        delta: cfg.delta,
        heal: cfg.heal,
        cases,
    }
}

impl RepairReport {
    /// Render the cells as a table on stdout.
    pub fn print(&self) {
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.topology.clone(),
                    format!("{:.2}", c.crash_frac),
                    c.queries.to_string(),
                    format!("{:.3}", c.static_rate()),
                    format!("{:.3}", c.healed_rate()),
                    c.heartbeats.to_string(),
                    c.repairs.to_string(),
                    c.rejoins.to_string(),
                    if c.dominates() { "yes" } else { "NO" }.to_owned(),
                    c.violations.to_string(),
                ]
            })
            .collect();
        report::print_table(
            "repair sweep (healed vs static under interior crashes)",
            &[
                "topology", "crash", "queries", "static", "healed", "hb", "repairs", "rejoins",
                "dom", "viol",
            ],
            &rows,
        );
    }

    /// The `BENCH_repair.json` artifact (schema in EXPERIMENTS.md): a
    /// function of the configuration alone — no timestamp — so the
    /// committed file can be held to `cmp`.
    pub fn to_json(&self) -> Json {
        use Json::*;
        let case = |c: &RepairCase| {
            Object(vec![
                ("topology", Str(c.topology.clone())),
                ("nodes", Int(c.nodes as u64)),
                ("crashed_node", Int(c.crashed_node as u64)),
                ("crash_frac", Num(c.crash_frac, None)),
                ("queries", Int(c.queries)),
                ("static_answered", Int(c.static_answered)),
                ("healed_answered", Int(c.healed_answered)),
                ("static_answer_rate", Num(c.static_rate(), Some(4))),
                ("healed_answer_rate", Num(c.healed_rate(), Some(4))),
                ("static_messages", Int(c.static_messages)),
                ("healed_messages", Int(c.healed_messages)),
                ("heartbeats", Int(c.heartbeats)),
                ("probes", Int(c.probes)),
                ("repairs", Int(c.repairs)),
                ("rejoins", Int(c.rejoins)),
                ("dup_suppressed", Int(c.dup_suppressed)),
                ("dominates", Bool(c.dominates())),
                ("violations", Int(c.violations as u64)),
            ])
        };
        let heal = Object(vec![
            ("period", Int(self.heal.period)),
            ("miss_threshold", Int(self.heal.miss_threshold as u64)),
        ]);
        Object(vec![
            ("bench", Str("repair".into())),
            ("scheme", Str("SWAT-ASR".into())),
            ("seed", Int(self.seed)),
            ("horizon", Int(self.horizon)),
            ("delta", Num(self.delta, None)),
            ("heal", heal),
            ("all_dominate", Bool(self.all_dominate())),
            ("cases", Array(self.cases.iter().map(case).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_heals_every_cell() {
        let cfg = RepairConfig::quick(crate::DEFAULT_SEED);
        let report = run(&cfg);
        assert_eq!(report.cases.len(), cfg.topos.len() * cfg.crash_fracs.len());
        for c in &report.cases {
            assert_eq!(c.violations, 0, "{} frac={}", c.topology, c.crash_frac);
            assert!(c.queries > 0);
            assert!(c.heartbeats > 0, "{}: detection never ran", c.topology);
            assert!(c.repairs > 0, "{}: no repair performed", c.topology);
            assert!(
                c.dominates(),
                "{} frac={}: healed {} must beat static {}",
                c.topology,
                c.crash_frac,
                c.healed_answered,
                c.static_answered
            );
        }
        assert!(report.all_dominate());
        let json = report.to_json().render();
        assert!(json.contains("\"bench\": \"repair\""));
        assert!(json.contains("\"all_dominate\": true"));
        assert_eq!(json.matches("\"topology\"").count(), report.cases.len());
    }

    #[test]
    fn interior_client_prefers_big_subtrees() {
        let chain = Topology::chain(4);
        assert_eq!(interior_client(&chain), Some(NodeId(1)));
        let star = Topology::from_parents(vec![None, Some(0), Some(0), Some(0)]).unwrap();
        assert_eq!(interior_client(&star), None);
        assert!(interior_client(&TopoSpec::Random(6).build(123)).is_some());
        assert_eq!(TopoSpec::Random(6).name(), "random-6");
    }
}
