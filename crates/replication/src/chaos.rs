//! Fault-aware SWAT-ASR: the replication protocol of §3 run over an
//! adjudicated network instead of an ideal one.
//!
//! The synchronous driver in [`crate::harness`] mutates receiver state
//! the instant a message is charged. Here every message instead passes
//! through a [`swat_net::Link`], which rules it delivered-at-tick,
//! dropped, or endpoint-down ([`swat_net::FaultPlan`]); delayed
//! deliveries become future [`swat_sim::Scheduler`] events. On top of
//! that transport the driver runs the robustness protocol the paper's
//! ideal network never needed:
//!
//! * **Acks + bounded retry.** When the plan can lose messages, every
//!   `Insert`/`Update` is acknowledged (a `Control` message) and
//!   unacknowledged sends are retried with exponential backoff up to a
//!   cap, after which the sender unsubscribes the unreachable child.
//!   Plans that only *delay* run ack-free — nothing can be lost, so the
//!   protocol (and its ledger) stays exactly the synchronous one.
//! * **Epochs + staleness.** The source stamps each segment write with a
//!   sequence number; replicas record the epoch they adopted. The moment
//!   a write makes a held approximation unsound (it no longer
//!   [`SegmentApprox::suppresses`] the new truth), that replica is marked
//!   *stale* and stops answering — in a deployment it learns this from
//!   the epoch gap on its next heartbeat/lease; the simulation applies
//!   the mark at write time so the soundness invariant is exact, not
//!   eventually-consistent. Queries over stale rows forward toward the
//!   source: degradation costs messages, never correctness. Freshness
//!   returns when a delivery's adopted approximation soundly stands in
//!   for the source's current one.
//! * **Crash windows.** A crashing node loses its cached approximations
//!   (directory metadata is modeled durable); while down it neither
//!   sends nor receives, and its periodic queries go unanswered. It
//!   self-heals after recovery through re-delivered updates and phase
//!   expansion.
//! * **Self-healing** (opt-in via [`ChaosOptions::heal`]). The static
//!   tree silently partitions a crashed interior node's subtree. With a
//!   [`HealPolicy`] set, every client pings its parent on a periodic
//!   heartbeat task; after `miss_threshold` unanswered periods the
//!   parent is suspect and the child re-parents to its nearest live
//!   ancestor on the [`swat_net::DynamicTopology`] (grandparent
//!   fallback, walking the path to the source — cycles impossible by
//!   construction), then asks the adopter to take over its segment
//!   subscriptions. A recovered node rejoins where it stands (typically
//!   as a leaf, its orphans having re-parented away) and re-syncs its
//!   segment directory against the current tree. All heartbeat/probe
//!   traffic is charged to the ledger under [`MsgKind::Heartbeat`], so
//!   the robustness cost is measurable; every repair is a typed
//!   [`RepairEvent`] in [`ChaosOutput::repairs`]. Re-parenting plus
//!   retries can deliver one replication message twice along different
//!   paths, so each carries a write id and receivers deduplicate
//!   per-(segment, epoch, write id) — application is idempotent.
//!   Failure detection only arms when the plan actually crashes nodes;
//!   under [`FaultPlan::none`] a healing run keeps the original static
//!   tree — and the synchronous ledger — bit-identically.
//!
//! Under [`FaultPlan::none`] zero-delay deliveries execute inline in the
//! originating event — the same call structure as the synchronous path —
//! so [`run_chaos`] is **bit-identical** to [`crate::harness::run`]:
//! same ledgers, same metrics, same [`RunOutput::answers_digest`]. The
//! property tests in `tests/chaos_properties.rs` and
//! `tests/repair_properties.rs` enforce this, the zero-correctness-loss
//! guarantees under arbitrary fault plans, and the healing guarantees.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::approx::{RangeApprox, SegmentApprox};
use crate::asr::SwatAsr;
use crate::durable;
use crate::harness::{
    digest_outcome, run, RunOutput, WorkloadConfig, WorkloadConfigError, DIGEST_SEED,
};
use crate::scheme::{ReplicationScheme, SchemeKind};
use crate::workload::QueryGenerator;
use swat_net::{
    Delivery, DynamicTopology, FaultPlan, Link, MessageLedger, MsgKind, NodeId, RepairEvent,
    Topology,
};
use swat_sim::{Metrics, PastTickError, Periodic, Scheduler};
use swat_tree::InnerProductQuery;

/// A bounded retry budget with exponential backoff: `max_retries`
/// retries, [`RetryPolicy::backoff`] apart. Its users keep different
/// schedules, each in its own units:
///
/// * the chaos driver (ticks) resends an unacked message `timeout` after
///   the send, retry `n ≥ 2` `backoff(n - 1)` after retry `n - 1`, and
///   writes the child off `backoff(max_retries)` after the last;
/// * `swat-daemon`'s peer exchanges (milliseconds over TCP, ticks in its
///   simulator) wait `backoff(n)` before retry `n`, so `2 × timeout`
///   before the first;
/// * `swat-daemon`'s `FailoverClient` (milliseconds) counts
///   `max_retries` as rounds over its peers, at least one, round `n ≥ 1`
///   `backoff(n)` after the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first send (rounds, for the `FailoverClient`).
    pub max_retries: u32,
    /// The backoff base: `backoff(n)` is
    /// `timeout * 2^min(n, MAX_DOUBLINGS)`.
    pub timeout: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout: 3,
        }
    }
}

impl RetryPolicy {
    /// Exponential backoff stops doubling after this many attempts, so
    /// the delay is bounded by `timeout * 2^MAX_DOUBLINGS` for any
    /// attempt count.
    pub const MAX_DOUBLINGS: u32 = 6;

    /// Backoff delay before retry number `attempt` (1-based): monotone
    /// nondecreasing in `attempt`, capped at
    /// `timeout * 2^`[`RetryPolicy::MAX_DOUBLINGS`], and saturating
    /// (never wraps) for any `timeout`/`attempt` combination.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let factor = 1u64
            .checked_shl(attempt.min(Self::MAX_DOUBLINGS))
            .unwrap_or(u64::MAX);
        self.timeout.saturating_mul(factor)
    }
}

/// Failure detection and tree repair parameters
/// ([`ChaosOptions::heal`]).
///
/// Detection only arms when the fault plan actually crashes nodes: a
/// healing run under a crash-free plan is bit-identical to the static
/// one (no heartbeat traffic, no repairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealPolicy {
    /// Ticks between heartbeat pings from each client to its parent.
    pub period: u64,
    /// Consecutive unanswered heartbeat periods before the parent is
    /// declared suspect and the client re-parents.
    pub miss_threshold: u32,
}

impl Default for HealPolicy {
    fn default() -> Self {
        HealPolicy {
            period: 5,
            miss_threshold: 3,
        }
    }
}

/// Options of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// The fault plan to adjudicate every message against.
    pub plan: FaultPlan,
    /// Ack/retry protocol parameters (active only when the plan can lose
    /// messages).
    pub retry: RetryPolicy,
    /// Verify the soundness invariants after every event and the `δ`
    /// bound at every answer, collecting violations (costs an exact
    /// sweep per event; meant for tests).
    pub check_invariants: bool,
    /// Self-healing: heartbeat failure detection plus dynamic-tree
    /// repair. `None` (the default) keeps the static tree — crashed
    /// interior nodes partition their subtree, as in the original
    /// model.
    pub heal: Option<HealPolicy>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            check_invariants: false,
            heal: None,
        }
    }
}

/// Errors from [`run_chaos`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// The workload configuration is invalid.
    InvalidConfig(WorkloadConfigError),
    /// The stream is empty.
    NoData,
    /// The topology has no clients.
    NoClients,
    /// The plan names a node the topology does not have.
    PlanOutOfRange {
        /// Largest node index the plan references.
        node: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// Only SWAT-ASR implements the fault-aware protocol; the per-item
    /// baselines run through [`run_chaos`] only under an ideal plan.
    UnsupportedScheme(&'static str),
    /// The healing policy is malformed (zero period or threshold).
    InvalidHealPolicy(&'static str),
    /// The driver asked the scheduler for a tick already in the past —
    /// a protocol bug surfaced as a typed error instead of a panic.
    PastTick(PastTickError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::InvalidConfig(e) => write!(f, "invalid workload config: {e}"),
            ChaosError::NoData => write!(f, "need stream data"),
            ChaosError::NoClients => write!(f, "need at least one client"),
            ChaosError::PlanOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault plan names node {node}, topology has {nodes} nodes"
                )
            }
            ChaosError::UnsupportedScheme(s) => {
                write!(f, "{s} has no fault-aware protocol; use an ideal plan")
            }
            ChaosError::InvalidHealPolicy(why) => write!(f, "invalid heal policy: {why}"),
            ChaosError::PastTick(e) => write!(f, "driver scheduling bug: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<WorkloadConfigError> for ChaosError {
    fn from(e: WorkloadConfigError) -> Self {
        ChaosError::InvalidConfig(e)
    }
}

impl From<PastTickError> for ChaosError {
    fn from(e: PastTickError) -> Self {
        ChaosError::PastTick(e)
    }
}

/// Result of a chaos run: the standard harness output (directly
/// comparable with a fault-free [`run`]) plus transport metrics and any
/// invariant violations found.
#[derive(Debug, Clone)]
pub struct ChaosOutput {
    /// Ledgers, workload metrics, approximation count, answer digest —
    /// the same shape [`run`] reports.
    pub run: RunOutput,
    /// Transport metrics, whole-run (not warmup-split): per-kind
    /// `net.delivered.*` / `net.dropped.*` / `net.down.*` /
    /// `net.retried.*` counters, `net.latency.*` statistics,
    /// `net.queries_answered`, `net.queries_lost`, `net.queries_down`,
    /// `net.retry_exhausted`, `net.crashes`, and (with
    /// `check_invariants`) the `net.answer_abs_err` statistic.
    pub net: Metrics,
    /// Soundness/precision violations found by `check_invariants`
    /// (always empty unless the driver is buggy — asserted by tests).
    pub violations: Vec<String>,
    /// Every tree repair the self-healing layer performed, in order —
    /// re-parentings and post-crash rejoins. Empty without
    /// [`ChaosOptions::heal`] (or when nothing crashed).
    pub repairs: Vec<RepairEvent>,
}

impl ChaosOutput {
    /// Measured queries that got an answer, over measured queries issued.
    pub fn answer_rate(&self) -> f64 {
        let q = self.run.metrics.counter("queries");
        if q == 0 {
            return 1.0;
        }
        self.net.counter("net.queries_answered") as f64 / q as f64
    }
}

/// Run `kind` over `topo` and stream `values` under `cfg`, with every
/// message adjudicated against `options.plan`.
///
/// SWAT-ASR runs the full fault-aware protocol. The per-item baselines
/// (DC, APS) charge their messages inside their own synchronous logic
/// and are accepted only under an ideal plan (where the adjudicated and
/// synchronous paths coincide); a faulty plan yields
/// [`ChaosError::UnsupportedScheme`].
///
/// # Errors
///
/// See [`ChaosError`].
pub fn run_chaos(
    kind: SchemeKind,
    topo: &Topology,
    values: &[f64],
    cfg: &WorkloadConfig,
    options: &ChaosOptions,
) -> Result<ChaosOutput, ChaosError> {
    cfg.validate()?;
    if values.is_empty() {
        return Err(ChaosError::NoData);
    }
    if topo.client_count() == 0 {
        return Err(ChaosError::NoClients);
    }
    if let Some(node) = options.plan.max_node() {
        if node >= topo.len() {
            return Err(ChaosError::PlanOutOfRange {
                node,
                nodes: topo.len(),
            });
        }
    }
    if let Some(heal) = &options.heal {
        if heal.period == 0 {
            return Err(ChaosError::InvalidHealPolicy(
                "heartbeat period must be positive",
            ));
        }
        if heal.miss_threshold == 0 {
            return Err(ChaosError::InvalidHealPolicy(
                "miss threshold must be positive",
            ));
        }
    }
    match kind {
        SchemeKind::SwatAsr => drive(topo, values, cfg, options),
        other if options.plan.is_ideal() => Ok(ChaosOutput {
            run: run(other, topo, values, cfg),
            net: Metrics::new(),
            violations: Vec::new(),
            repairs: Vec::new(),
        }),
        other => Err(ChaosError::UnsupportedScheme(other.name())),
    }
}

/// A message in flight on the tree.
#[derive(Debug, Clone)]
enum Msg<A> {
    /// An `Insert`/`Update`: adopt `approx` for `seg` at epoch `seq`.
    /// `install` distinguishes Insert (ledger kind, no write count);
    /// `repropagate` is false for phase-end refreshes, which the
    /// synchronous protocol does not cascade. `wid` identifies this
    /// logical write for duplicate suppression: a retry of the same
    /// payload reuses it, so receivers can apply per-(segment, epoch,
    /// write id) exactly once even if the message arrives twice along
    /// different paths.
    Replicate {
        from: NodeId,
        seg: usize,
        seq: u64,
        wid: u64,
        approx: A,
        install: bool,
        repropagate: bool,
    },
    /// Heartbeat ping from a child probing its parent's liveness.
    Ping { from: NodeId },
    /// Heartbeat response; `from` is the responding parent, so a late
    /// pong from a replaced parent is not misread as the new parent
    /// answering.
    Pong { from: NodeId },
    /// After a repair: `from` (re-parented onto the receiver) asks it
    /// to take over the subscription for `seg`.
    Resub { from: NodeId, seg: usize },
    /// Receipt acknowledgement of epoch `seq` for `seg` (fallible plans
    /// only).
    Ack { from: NodeId, seg: usize, seq: u64 },
    /// Contraction notice: `from` decached `seg`; drop it from the
    /// subscription list.
    Unsub { from: NodeId, seg: usize },
    /// A query climbing toward the source, hop by hop.
    QueryUp {
        origin: NodeId,
        from: NodeId,
        query: InnerProductQuery,
        issued: u64,
    },
    /// The answer descending the unique tree path back to the origin.
    AnswerDown {
        origin: NodeId,
        value: f64,
        answered_at: NodeId,
        issued: u64,
    },
}

/// Scheduler events: the harness periodics plus transport arrivals,
/// retry timers, and crash onsets.
#[derive(Debug)]
enum Ev<A> {
    Data,
    Query {
        client: usize,
    },
    PhaseEnd,
    Deliver {
        to: NodeId,
        msg: Msg<A>,
    },
    Retry {
        from: NodeId,
        to: NodeId,
        seg: usize,
        seq: u64,
    },
    Crash {
        node: NodeId,
    },
    /// Periodic heartbeat task of one client (healing only).
    Heartbeat {
        client: usize,
    },
    /// End of a crash window (healing only): the node rejoins and
    /// re-syncs its segment directory against the current tree.
    Recover {
        node: NodeId,
    },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    wid: u64,
    attempt: u32,
    kind: MsgKind,
}

struct Driver<'a, A: SegmentApprox> {
    asr: SwatAsr<A>,
    topo: DynamicTopology,
    cfg: &'a WorkloadConfig,
    values: &'a [f64],
    link: Link,
    retry: RetryPolicy,
    /// Acks/retries run only when messages can actually be lost; under
    /// delay-only or ideal plans the protocol (and ledger) must match
    /// the synchronous one exactly.
    fallible: bool,
    /// Failure detection + tree repair; `Some` only when healing is
    /// requested AND the plan can crash nodes (otherwise there is
    /// nothing to detect and the run must stay bit-identical).
    heal: Option<HealPolicy>,
    /// Per-node consecutive unanswered heartbeat periods.
    hb_misses: Vec<u32>,
    /// Whether a pong arrived since the node's last ping.
    hb_pong: Vec<bool>,
    /// Unacked replication sends, keyed `(from, to, seg)`.
    pending: BTreeMap<(usize, usize, usize), Pending>,
    /// Write ids already applied, keyed `(node, seg)` — the
    /// duplicate-suppression set (tracked only on fallible plans, where
    /// duplicates are possible).
    applied: BTreeMap<(usize, usize), BTreeSet<u64>>,
    next_wid: u64,
    /// First scheduling failure, surfaced as [`ChaosError::PastTick`].
    sched_error: Option<PastTickError>,
    warmup_ledger: MessageLedger,
    ledger: MessageLedger,
    metrics: Metrics,
    net: Metrics,
    generators: Vec<QueryGenerator>,
    data_idx: usize,
    digest: u64,
    check: bool,
    violations: Vec<String>,
}

type Sched<A> = Scheduler<Ev<A>>;

fn drive(
    topo: &Topology,
    values: &[f64],
    cfg: &WorkloadConfig,
    options: &ChaosOptions,
) -> Result<ChaosOutput, ChaosError> {
    // Failure detection only arms when something can actually crash;
    // otherwise a healing run must stay bit-identical to a static one,
    // so no heartbeat tasks may exist at all.
    let heal = options.heal.filter(|_| !options.plan.crashes().is_empty());
    let mut d: Driver<'_, RangeApprox> = Driver {
        asr: SwatAsr::new(topo.clone(), cfg.window),
        topo: DynamicTopology::new(topo.clone()),
        cfg,
        values,
        link: Link::new(options.plan.clone()),
        retry: options.retry,
        fallible: options.plan.can_lose(),
        heal,
        hb_misses: vec![0; topo.len()],
        hb_pong: vec![true; topo.len()],
        pending: BTreeMap::new(),
        applied: BTreeMap::new(),
        next_wid: 0,
        sched_error: None,
        warmup_ledger: MessageLedger::new(),
        ledger: MessageLedger::new(),
        metrics: Metrics::new(),
        net: Metrics::new(),
        generators: topo
            .clients()
            .map(|c| QueryGenerator::new(cfg.seed, c.index(), cfg.window, cfg.delta, cfg.shape))
            .collect(),
        data_idx: 0,
        digest: DIGEST_SEED,
        check: options.check_invariants,
        violations: Vec::new(),
    };

    // Periodic tasks in the exact construction order of the synchronous
    // harness, so event sequence numbers (and thus same-tick ordering)
    // coincide under an ideal plan.
    let mut sched: Sched<RangeApprox> = Scheduler::new();
    let mut data_task = Periodic::starting_at(0, cfg.t_data);
    sched.try_schedule(data_task.next_fire(), Ev::Data)?;
    let mut query_tasks: Vec<Periodic> = topo
        .clients()
        .map(|c| Periodic::starting_at(1 + (c.index() as u64 % cfg.t_query), cfg.t_query))
        .collect();
    for (i, c) in topo.clients().enumerate() {
        sched.try_schedule(query_tasks[i].next_fire(), Ev::Query { client: c.index() })?;
    }
    let mut phase_task = Periodic::starting_at(cfg.phase, cfg.phase);
    sched.try_schedule(phase_task.next_fire(), Ev::PhaseEnd)?;
    for w in options.plan.crashes() {
        if w.from < cfg.horizon {
            sched.try_schedule(w.from, Ev::Crash { node: w.node })?;
        }
    }
    // Heartbeat tasks (staggered like query tasks) and recovery marks,
    // scheduled only when detection is armed.
    let mut hb_tasks: Vec<Periodic> = Vec::new();
    if let Some(hp) = heal {
        hb_tasks = topo
            .clients()
            .map(|c| Periodic::starting_at(hp.period + (c.index() as u64 % hp.period), hp.period))
            .collect();
        for (i, c) in topo.clients().enumerate() {
            sched.try_schedule(hb_tasks[i].next_fire(), Ev::Heartbeat { client: c.index() })?;
        }
        for w in options.plan.crashes() {
            if w.from < cfg.horizon && w.until < cfg.horizon {
                sched.try_schedule(w.until, Ev::Recover { node: w.node })?;
            }
        }
    }

    while let Some(at) = sched.peek_time() {
        if at >= cfg.horizon {
            break;
        }
        let (now, event) = sched.next().expect("peeked");
        match event {
            Ev::Data => {
                d.handle_data(&mut sched, now);
                sched.try_schedule(data_task.advance(), Ev::Data)?;
            }
            Ev::Query { client } => {
                d.handle_query(&mut sched, now, client);
                let gen_idx = client - 1;
                sched.try_schedule(query_tasks[gen_idx].advance(), Ev::Query { client })?;
            }
            Ev::PhaseEnd => {
                d.handle_phase_end(&mut sched, now);
                sched.try_schedule(phase_task.advance(), Ev::PhaseEnd)?;
            }
            Ev::Deliver { to, msg } => d.deliver(&mut sched, now, to, msg),
            Ev::Retry { from, to, seg, seq } => d.handle_retry(&mut sched, now, from, to, seg, seq),
            Ev::Crash { node } => d.handle_crash(node),
            Ev::Heartbeat { client } => {
                d.handle_heartbeat(&mut sched, now, client);
                sched.try_schedule(hb_tasks[client - 1].advance(), Ev::Heartbeat { client })?;
            }
            Ev::Recover { node } => d.handle_recover(now, node),
        }
        if let Some(e) = d.sched_error {
            return Err(ChaosError::PastTick(e));
        }
        if d.check {
            d.check_soundness(now);
        }
    }

    let approximations = d.asr.approximation_count();
    d.metrics.record("approximations", approximations as f64);
    Ok(ChaosOutput {
        run: RunOutput {
            ledger: d.ledger,
            warmup_ledger: d.warmup_ledger,
            metrics: d.metrics,
            approximations,
            scheme: d.asr.name(),
            answers_digest: d.digest,
        },
        net: d.net,
        violations: d.violations,
        repairs: d.topo.events().to_vec(),
    })
}

impl<A: SegmentApprox> Driver<'_, A> {
    fn measuring(&self, t: u64) -> bool {
        t >= self.cfg.warmup
    }

    fn ledger_mut(&mut self, t: u64) -> &mut MessageLedger {
        if t >= self.cfg.warmup {
            &mut self.ledger
        } else {
            &mut self.warmup_ledger
        }
    }

    /// The child of `node` on the unique tree path down to `origin`, or
    /// `None` when `node` is no longer an ancestor of `origin` — a
    /// repair can re-parent the origin's subtree away while an answer is
    /// in flight, leaving the answer holder off the return path.
    fn next_hop_down(&self, node: NodeId, origin: NodeId) -> Option<NodeId> {
        let mut cur = origin;
        while let Some(p) = self.topo.parent(cur) {
            if p == node {
                return Some(cur);
            }
            cur = p;
        }
        None
    }

    /// An answer stranded off the return path by a mid-flight repair:
    /// the query is lost (the healing layer restores routing, not
    /// in-flight payloads).
    fn note_misrouted_answer(&mut self) {
        self.net.incr("net.answer_misrouted");
        self.net.incr("net.queries_lost");
    }

    /// Charge one message of `kind` and submit it to the link. Zero-delay
    /// deliveries execute inline (the synchronous call structure);
    /// delayed ones become scheduler events.
    fn send(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        msg: Msg<A>,
    ) {
        self.ledger_mut(now).charge(kind);
        match self.link.adjudicate(now, from, to) {
            Delivery::Delivered { at } => {
                self.net.incr(&format!("net.delivered.{}", kind.name()));
                self.net
                    .record(&format!("net.latency.{}", kind.name()), (at - now) as f64);
                if at == now {
                    self.deliver(sched, now, to, msg);
                } else {
                    sched
                        .try_schedule(at, Ev::Deliver { to, msg })
                        .expect("delivery tick is never in the past");
                }
            }
            Delivery::Dropped => {
                self.net.incr(&format!("net.dropped.{}", kind.name()));
                self.note_query_loss(&msg);
            }
            Delivery::EndpointDown => {
                self.net.incr(&format!("net.down.{}", kind.name()));
                self.note_query_loss(&msg);
            }
        }
    }

    /// A lost query or answer means one query will never complete.
    fn note_query_loss(&mut self, msg: &Msg<A>) {
        if matches!(msg, Msg::QueryUp { .. } | Msg::AnswerDown { .. }) {
            self.net.incr("net.queries_lost");
        }
    }

    /// Arm (or re-arm) a retry timer `delay` ticks out. The deadline
    /// saturates instead of wrapping (a `u64::MAX` timeout is legal and
    /// simply never fires inside the horizon), and a scheduler refusal —
    /// a driver bug, not a workload condition — is recorded once and
    /// surfaced as [`ChaosError::PastTick`] instead of panicking
    /// mid-run.
    #[allow(clippy::too_many_arguments)] // one flattened transport tuple
    fn arm_retry(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        delay: u64,
        from: NodeId,
        to: NodeId,
        seg: usize,
        seq: u64,
    ) {
        let deadline = now.saturating_add(delay);
        if let Err(e) = sched.try_schedule(deadline, Ev::Retry { from, to, seg, seq }) {
            self.sched_error.get_or_insert(e);
        }
    }

    /// Allocate a fresh write id: one per logical replication send, so
    /// receivers can tell a retry (same id) from a genuinely new write
    /// of the same epoch (different id).
    fn fresh_wid(&mut self) -> u64 {
        let wid = self.next_wid;
        self.next_wid += 1;
        wid
    }

    /// Send a replication message, arming the ack/retry protocol when
    /// the plan can lose it.
    #[allow(clippy::too_many_arguments)] // one flattened transport tuple
    fn send_replicate(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        from: NodeId,
        to: NodeId,
        seg: usize,
        seq: u64,
        approx: A,
        kind: MsgKind,
        repropagate: bool,
    ) {
        let wid = self.fresh_wid();
        if self.fallible {
            self.pending.insert(
                (from.index(), to.index(), seg),
                Pending {
                    seq,
                    wid,
                    attempt: 0,
                    kind,
                },
            );
            // The first retry waits `timeout`, not `backoff(1)`.
            self.arm_retry(sched, now, self.retry.timeout, from, to, seg, seq);
        }
        let install = kind == MsgKind::Insert;
        self.send(
            sched,
            now,
            from,
            to,
            kind,
            Msg::Replicate {
                from,
                seg,
                seq,
                wid,
                approx,
                install,
                repropagate,
            },
        );
    }

    fn deliver(&mut self, sched: &mut Sched<A>, now: u64, to: NodeId, msg: Msg<A>) {
        // A node can crash between a message's send and its (delayed)
        // arrival; the link only rules on the send tick.
        if self.link.plan().is_down(to, now) {
            self.net.incr("net.arrived_down");
            self.note_query_loss(&msg);
            return;
        }
        match msg {
            Msg::Replicate {
                from,
                seg,
                seq,
                wid,
                approx,
                install,
                repropagate,
            } => self.deliver_replicate(
                sched,
                now,
                to,
                from,
                seg,
                seq,
                wid,
                approx,
                install,
                repropagate,
            ),
            Msg::Ping { from } => {
                // Answer with our own id: a late pong from a replaced
                // parent must not vouch for the new one.
                self.send(
                    sched,
                    now,
                    to,
                    from,
                    MsgKind::Heartbeat,
                    Msg::Pong { from: to },
                );
            }
            Msg::Pong { from } => {
                if self.topo.parent(to) == Some(from) {
                    self.hb_pong[to.index()] = true;
                }
            }
            Msg::Resub { from, seg } => self.handle_resub(sched, now, to, from, seg),
            Msg::Ack { from, seg, seq } => {
                let key = (to.index(), from.index(), seg);
                if let Some(p) = self.pending.get(&key) {
                    if seq >= p.seq {
                        self.pending.remove(&key);
                    }
                }
            }
            Msg::Unsub { from, seg } => {
                self.asr.row_mut(to, seg).subscribed.retain(|&v| v != from);
                self.pending.remove(&(to.index(), from.index(), seg));
            }
            Msg::QueryUp {
                origin,
                from,
                query,
                issued,
            } => self.query_at(sched, now, to, origin, Some(from), &query, issued),
            Msg::AnswerDown {
                origin,
                value,
                answered_at,
                issued,
            } => {
                if to == origin {
                    self.finish_query(issued, origin, answered_at, value, false);
                } else if let Some(next) = self.next_hop_down(to, origin) {
                    self.send(
                        sched,
                        now,
                        to,
                        next,
                        MsgKind::Answer,
                        Msg::AnswerDown {
                            origin,
                            value,
                            answered_at,
                            issued,
                        },
                    );
                } else {
                    self.note_misrouted_answer();
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // transport tuple, flattened once
    fn deliver_replicate(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        to: NodeId,
        from: NodeId,
        seg: usize,
        seq: u64,
        wid: u64,
        approx: A,
        install: bool,
        repropagate: bool,
    ) {
        if self.fallible {
            // Exactly-once application: a write id the receiver already
            // applied (the original arrived and a retry of it landed
            // later) is suppressed before it can double-count a write or
            // re-cascade down the subtree. Re-ack so the sender stops.
            let dup = self
                .applied
                .get(&(to.index(), seg))
                .is_some_and(|set| set.contains(&wid));
            if dup {
                self.net.incr("net.dup_suppressed");
                self.send_ack(sched, now, to, from, seg, seq);
                return;
            }
        }
        {
            let row = self.asr.row(to, seg);
            if row.approx.is_some() && seq < row.seq {
                // Stale duplicate (a retry that lost a race with a newer
                // epoch): the receiver is already ahead, just re-ack so
                // the sender stops retrying. Equal epochs are NOT
                // duplicates — a phase-end refresh re-sends the epoch the
                // child already holds and must still count as a write,
                // exactly as in the synchronous protocol.
                if self.fallible {
                    self.send_ack(sched, now, to, from, seg, seq);
                }
                return;
            }
        }
        let quiet = {
            let suppress = self.asr.suppression_enabled();
            let row = self.asr.row_mut(to, seg);
            let old = row.approx.take();
            let quiet = match &old {
                Some(o) if suppress => A::suppresses(o, &approx),
                Some(o) => *o == approx,
                None => false,
            };
            row.approx = Some(approx.clone());
            row.seq = seq;
            if !install {
                row.writes += 1;
            }
            quiet
        };
        if self.fallible {
            self.applied
                .entry((to.index(), seg))
                .or_default()
                .insert(wid);
        }
        // Fresh iff the adopted approximation soundly stands in for the
        // source's current one (an even newer write may be in flight).
        let fresh = match self.asr.cached_approx(NodeId::SOURCE, seg) {
            Some(cur) => A::suppresses(&approx, cur),
            None => true,
        };
        self.asr.row_mut(to, seg).stale = !fresh;
        if self.fallible {
            self.send_ack(sched, now, to, from, seg, seq);
        }
        if repropagate && !quiet {
            for child in self.asr.row(to, seg).subscribed.clone() {
                self.send_replicate(
                    sched,
                    now,
                    to,
                    child,
                    seg,
                    seq,
                    approx.clone(),
                    MsgKind::Update,
                    true,
                );
            }
        }
    }

    fn send_ack(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        from: NodeId,
        to: NodeId,
        seg: usize,
        seq: u64,
    ) {
        self.send(
            sched,
            now,
            from,
            to,
            MsgKind::Control,
            Msg::Ack { from, seg, seq },
        );
    }

    fn handle_retry(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        from: NodeId,
        to: NodeId,
        seg: usize,
        seq: u64,
    ) {
        let key = (from.index(), to.index(), seg);
        let Some(p) = self.pending.get(&key).copied() else {
            return; // acked (or unsubscribed) in the meantime
        };
        if p.seq != seq {
            return; // superseded by a newer send, which armed its own timer
        }
        if self.link.plan().is_down(from, now) {
            // The sender itself is crashed; try again after recovery.
            self.arm_retry(sched, now, self.retry.timeout, from, to, seg, seq);
            return;
        }
        if p.attempt >= self.retry.max_retries {
            // Write the child off: unsubscribe it locally. Its subtree
            // re-joins through interest + phase expansion.
            self.pending.remove(&key);
            self.net.incr("net.retry_exhausted");
            self.asr.row_mut(from, seg).subscribed.retain(|&v| v != to);
            return;
        }
        let Some(approx) = self.asr.cached_approx(from, seg).cloned() else {
            // The sender decached the segment (contraction); nothing left
            // to deliver.
            self.pending.remove(&key);
            return;
        };
        // Resend the sender's *current* state under its current epoch.
        // The same payload keeps its write id (so the receiver can
        // suppress a duplicate); a newer epoch is a new logical write and
        // gets a fresh one.
        let cur_seq = self.asr.row(from, seg).seq;
        let wid = if cur_seq == p.seq {
            p.wid
        } else {
            self.fresh_wid()
        };
        let attempt = p.attempt + 1;
        // Retry `attempt` goes out now; the next one (or the write-off
        // after the last) `backoff(attempt)` later.
        self.pending.insert(
            key,
            Pending {
                seq: cur_seq,
                wid,
                attempt,
                kind: p.kind,
            },
        );
        self.net.incr(&format!("net.retried.{}", p.kind.name()));
        self.arm_retry(
            sched,
            now,
            self.retry.backoff(attempt),
            from,
            to,
            seg,
            cur_seq,
        );
        self.send(
            sched,
            now,
            from,
            to,
            p.kind,
            Msg::Replicate {
                from,
                seg,
                seq: cur_seq,
                wid,
                approx,
                install: p.kind == MsgKind::Insert,
                repropagate: true,
            },
        );
    }

    fn handle_crash(&mut self, node: NodeId) {
        self.net.incr("net.crashes");
        // Everything that survives a crash round-trips through the
        // durability layer's checksummed image codec — encoding at the
        // crash instant is equivalent to write-through persistence, since
        // every mutation preceded the crash. That is the subscription
        // directory alone; approximations, epochs, staleness marks and
        // phase counters are volatile.
        let image = durable::encode_node(&self.asr, node);
        for seg in 0..self.asr.segments().len() {
            let row = self.asr.row_mut(node, seg);
            row.approx = None;
            row.stale = false;
            row.seq = 0;
            row.subscribed.clear();
            row.reset_phase();
        }
        if !durable::restore_node(&mut self.asr, node, &image) {
            // Unreachable for an image we just encoded; a failure here
            // models durable-media loss and degrades to a cold restart.
            self.net.incr("net.durable_image_lost");
        }
        // The node's applied-write-id memory dies with it: after the
        // wipe above, re-applying a previously seen write is correct
        // (and required), not a duplicate.
        self.applied.retain(|&(n, _), _| n != node.index());
        self.hb_misses[node.index()] = 0;
        self.hb_pong[node.index()] = true;
    }

    /// One heartbeat period at `client`: score the previous period's
    /// pong, then either declare the parent suspect and repair, or ping
    /// it again.
    fn handle_heartbeat(&mut self, sched: &mut Sched<A>, now: u64, client: usize) {
        let Some(heal) = self.heal else { return };
        let node = NodeId(client);
        if self.link.plan().is_down(node, now) {
            // A crashed node neither pings nor accumulates suspicion.
            self.hb_misses[client] = 0;
            self.hb_pong[client] = true;
            return;
        }
        if self.hb_pong[client] {
            self.hb_misses[client] = 0;
        } else {
            self.hb_misses[client] += 1;
        }
        self.hb_pong[client] = false;
        if self.hb_misses[client] >= heal.miss_threshold {
            // Suspicion confirmed. Reset the detector (a fresh parent
            // gets a full grace window) and repair.
            self.hb_misses[client] = 0;
            self.hb_pong[client] = true;
            self.repair_node(sched, now, node);
        } else if let Some(parent) = self.topo.parent(node) {
            self.send(
                sched,
                now,
                node,
                parent,
                MsgKind::Heartbeat,
                Msg::Ping { from: node },
            );
        }
    }

    /// The parent of `node` is suspect: probe up the current path to the
    /// source and adopt the nearest live ancestor. Each probe is charged
    /// as heartbeat traffic — repair is not free. Adopting an ancestor
    /// can never create a cycle ([`DynamicTopology::reparent`] enforces
    /// it regardless).
    fn repair_node(&mut self, sched: &mut Sched<A>, now: u64, node: NodeId) {
        let Some(old_parent) = self.topo.parent(node) else {
            return;
        };
        let path = self.topo.path_to_source(node);
        let mut chosen = NodeId::SOURCE;
        for cand in path {
            self.ledger_mut(now).charge(MsgKind::Heartbeat);
            self.net.incr("net.probes");
            if !self.link.plan().is_down(cand, now) {
                chosen = cand;
                break;
            }
        }
        if chosen == old_parent {
            // False alarm (pongs were dropped, not the parent): the
            // probe found it live, so keep the tree as is.
            self.net.incr("net.false_suspicions");
            return;
        }
        if self.topo.reparent(now, node, chosen).is_err() {
            return; // no-op repair (already adopted concurrently)
        }
        self.net.incr("net.repairs");
        // Hand the adopter every segment this node still serves, so
        // update flow resumes on the repaired edge.
        for seg in 0..self.asr.segments().len() {
            if self.asr.row(node, seg).approx.is_some() {
                self.send(
                    sched,
                    now,
                    node,
                    chosen,
                    MsgKind::Control,
                    Msg::Resub { from: node, seg },
                );
            }
        }
    }

    /// A re-parented child asks its new parent to carry `seg`. If the
    /// adopter holds the segment it subscribes the child and pushes its
    /// current state; otherwise it records interest so the next phase
    /// expansion can pull the segment down the repaired edge.
    fn handle_resub(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        to: NodeId,
        from: NodeId,
        seg: usize,
    ) {
        if self.asr.row(to, seg).approx.is_some() {
            let row = self.asr.row_mut(to, seg);
            if !row.subscribed.contains(&from) {
                row.subscribed.push(from);
            }
            let approx = self.asr.row(to, seg).approx.clone().expect("checked above");
            let seq = self.asr.row(to, seg).seq;
            self.send_replicate(
                sched,
                now,
                to,
                from,
                seg,
                seq,
                approx,
                MsgKind::Update,
                true,
            );
        } else {
            let row = self.asr.row_mut(to, seg);
            if !row.interested.contains(&from) {
                row.interested.push(from);
            }
        }
    }

    /// End of a crash window (healing runs only): the node rejoins the
    /// tree in place — typically as a leaf, since its orphaned children
    /// re-parented away during the outage — and re-syncs its directory
    /// against the current tree.
    fn handle_recover(&mut self, now: u64, node: NodeId) {
        self.net.incr("net.rejoins");
        self.hb_misses[node.index()] = 0;
        self.hb_pong[node.index()] = true;
        let children: BTreeSet<usize> =
            self.topo.children(node).iter().map(|c| c.index()).collect();
        // Drop subscriptions (and their retry state) for children that
        // were adopted elsewhere while this node was down; they are
        // served on their repaired edges now.
        for seg in 0..self.asr.segments().len() {
            self.asr
                .row_mut(node, seg)
                .subscribed
                .retain(|c| children.contains(&c.index()));
        }
        self.pending
            .retain(|&(from, to, _), _| from != node.index() || children.contains(&to));
        self.topo.note_rejoin(now, node);
    }

    fn handle_data(&mut self, sched: &mut Sched<A>, now: u64) {
        let v = self.values[self.data_idx % self.values.len()];
        self.data_idx += 1;
        let updates = self.asr.ingest(v);
        for (seg, approx) in updates {
            let seq = {
                let row = self.asr.row_mut(NodeId::SOURCE, seg);
                row.seq += 1;
                row.seq
            };
            // The write epoch: every replica whose held approximation can
            // no longer soundly stand in for the new truth is stale as of
            // this tick, whether or not its update survives the network.
            for node in self.topo.nodes() {
                if node == NodeId::SOURCE {
                    continue;
                }
                let row = self.asr.row_mut(node, seg);
                let unsound = matches!(&row.approx, Some(held) if !A::suppresses(held, &approx));
                if unsound {
                    row.stale = true;
                    self.net.incr("net.stale_marks");
                }
            }
            for child in self.asr.row(NodeId::SOURCE, seg).subscribed.clone() {
                self.send_replicate(
                    sched,
                    now,
                    NodeId::SOURCE,
                    child,
                    seg,
                    seq,
                    approx.clone(),
                    MsgKind::Update,
                    true,
                );
            }
        }
        if self.measuring(now) {
            self.metrics.incr("data_arrivals");
        }
    }

    fn handle_query(&mut self, sched: &mut Sched<A>, now: u64, client: usize) {
        let q = self.generators[client - 1].next_query();
        if self.measuring(now) {
            self.metrics.incr("queries");
        }
        let origin = NodeId(client);
        if self.link.plan().is_down(origin, now) {
            self.net.incr("net.queries_down");
            return;
        }
        self.query_at(sched, now, origin, origin, None, &q, now);
    }

    /// One hop of query resolution at `node`: answer from local cache
    /// (stale rows never answer) or forward to the parent.
    #[allow(clippy::too_many_arguments)] // routing context, flattened once
    fn query_at(
        &mut self,
        sched: &mut Sched<A>,
        now: u64,
        node: NodeId,
        origin: NodeId,
        from: Option<NodeId>,
        query: &InnerProductQuery,
        issued: u64,
    ) {
        if let Some(value) = self.asr.try_answer(node, query) {
            for seg in self.asr.touched_segments(query) {
                self.asr.row_mut(node, seg).note_read(from);
            }
            // While the window is still filling, exact answers treat
            // absent indices as zero but approximations extrapolate, so
            // the δ guarantee is only checkable on a full window.
            if self.check && self.asr.window_full() {
                let exact = self.asr.answer_exact(query);
                let err = (value - exact).abs();
                self.net.record("net.answer_abs_err", err);
                if err > query.delta() + 1e-6 {
                    self.violations.push(format!(
                        "t={now}: answer at node {node} errs {err:.6} > delta {}",
                        query.delta()
                    ));
                }
            }
            if node == origin {
                self.finish_query(issued, origin, node, value, from.is_none());
            } else if let Some(next) = self.next_hop_down(node, origin) {
                self.send(
                    sched,
                    now,
                    node,
                    next,
                    MsgKind::Answer,
                    Msg::AnswerDown {
                        origin,
                        value,
                        answered_at: node,
                        issued,
                    },
                );
            } else {
                self.note_misrouted_answer();
            }
        } else {
            let parent = self.topo.parent(node).expect("the source always answers");
            self.send(
                sched,
                now,
                node,
                parent,
                MsgKind::QueryForward,
                Msg::QueryUp {
                    origin,
                    from: node,
                    query: query.clone(),
                    issued,
                },
            );
        }
    }

    /// The answer reached its origin: record outcome metrics against the
    /// issue tick (the synchronous harness resolves queries at issue
    /// time, so this keeps measured windows aligned).
    fn finish_query(
        &mut self,
        issued: u64,
        origin: NodeId,
        answered_at: NodeId,
        value: f64,
        local_hit: bool,
    ) {
        if self.measuring(issued) {
            if local_hit {
                self.metrics.incr("local_hits");
            }
            self.metrics
                .record("answer_depth", self.topo.depth(answered_at) as f64);
            self.digest = digest_outcome(
                self.digest,
                issued,
                origin.index(),
                value,
                answered_at.index(),
                local_hit,
            );
            self.net.incr("net.queries_answered");
        }
    }

    /// Mirrors the synchronous `on_phase_end` with sends in place of
    /// direct receiver mutation. Crashed nodes sit the phase out.
    fn handle_phase_end(&mut self, sched: &mut Sched<A>, now: u64) {
        let n_segs = self.asr.segments().len();
        // Contraction first, deepest nodes first.
        let mut order: Vec<NodeId> = self.topo.nodes().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.topo.depth(v)));
        for &u in &order {
            if self.topo.is_source(u) || self.link.plan().is_down(u, now) {
                continue;
            }
            for seg in 0..n_segs {
                let row = self.asr.row(u, seg);
                let is_fringe = row.approx.is_some() && row.subscribed.is_empty();
                if is_fringe && row.reads_served() < row.writes {
                    let row = self.asr.row_mut(u, seg);
                    row.approx = None;
                    row.stale = false;
                    let parent = self.topo.parent(u).expect("non-source has a parent");
                    self.send(
                        sched,
                        now,
                        u,
                        parent,
                        MsgKind::Control,
                        Msg::Unsub { from: u, seg },
                    );
                }
            }
        }
        // Expansion, top-down.
        order.sort_by_key(|&v| self.topo.depth(v));
        for &u in &order {
            if self.link.plan().is_down(u, now) {
                continue;
            }
            for seg in 0..n_segs {
                if self.asr.row(u, seg).approx.is_none() {
                    continue;
                }
                let approx = self.asr.row(u, seg).approx.clone().expect("checked above");
                let seq = self.asr.row(u, seg).seq;
                let writes = self.asr.row(u, seg).writes;
                // Refresh subscribed children that kept missing.
                let subscribed = self.asr.row(u, seg).subscribed.clone();
                for v in subscribed {
                    let reads = self
                        .asr
                        .row(u, seg)
                        .read_counts
                        .get(&v)
                        .copied()
                        .unwrap_or(0);
                    if writes < reads {
                        self.send_replicate(
                            sched,
                            now,
                            u,
                            v,
                            seg,
                            seq,
                            approx.clone(),
                            MsgKind::Update,
                            false,
                        );
                    }
                }
                // Promote interested children that read enough.
                let interested = std::mem::take(&mut self.asr.row_mut(u, seg).interested);
                for v in interested {
                    let reads = self
                        .asr
                        .row(u, seg)
                        .read_counts
                        .get(&v)
                        .copied()
                        .unwrap_or(0);
                    if writes < reads {
                        self.asr.row_mut(u, seg).subscribed.push(v);
                        self.send_replicate(
                            sched,
                            now,
                            u,
                            v,
                            seg,
                            seq,
                            approx.clone(),
                            MsgKind::Insert,
                            false,
                        );
                    }
                }
            }
        }
        for node in self.topo.nodes() {
            for seg in 0..n_segs {
                self.asr.row_mut(node, seg).reset_phase();
            }
        }
        if self.measuring(now) {
            self.metrics.incr("phases");
        }
    }

    /// Every non-stale cached approximation must honor its advertised
    /// uncertainty against the segment's true current values.
    fn check_soundness(&mut self, now: u64) {
        for seg in 0..self.asr.segments().len() {
            let Some(values) = self.asr.segment_values(seg) else {
                continue;
            };
            for node in self.topo.nodes() {
                if self.topo.is_source(node) {
                    continue;
                }
                let row = self.asr.row(node, seg);
                if row.stale {
                    continue;
                }
                let Some(a) = &row.approx else {
                    continue;
                };
                for (offset, &truth) in values.iter().enumerate() {
                    let err = (truth - a.value_at(offset)).abs();
                    if err > a.uncertainty() / 2.0 + 1e-6 {
                        self.violations.push(format!(
                            "t={now}: node {node} seg {seg} offset {offset}: |{truth} - {}| > {}/2",
                            a.value_at(offset),
                            a.uncertainty()
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_net::{DelayDist, RepairKind};

    fn weather(n: usize) -> Vec<f64> {
        swat_data::weather_series(5, n)
    }

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            window: 16,
            horizon: 600,
            warmup: 150,
            ..WorkloadConfig::default()
        }
    }

    fn checked(plan: FaultPlan) -> ChaosOptions {
        ChaosOptions {
            plan,
            check_invariants: true,
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn ideal_plan_is_bit_identical_to_sync_harness() {
        let topo = Topology::complete_binary(2);
        let data = weather(700);
        let cfg = cfg();
        let sync = run(SchemeKind::SwatAsr, &topo, &data, &cfg);
        let chaos = run_chaos(
            SchemeKind::SwatAsr,
            &topo,
            &data,
            &cfg,
            &checked(FaultPlan::none()),
        )
        .unwrap();
        assert_eq!(chaos.run.ledger, sync.ledger);
        assert_eq!(chaos.run.warmup_ledger, sync.warmup_ledger);
        assert_eq!(chaos.run.answers_digest, sync.answers_digest);
        assert_eq!(chaos.run.approximations, sync.approximations);
        for key in ["queries", "local_hits", "data_arrivals", "phases"] {
            assert_eq!(
                chaos.run.metrics.counter(key),
                sync.metrics.counter(key),
                "{key}"
            );
        }
        assert!(chaos.violations.is_empty(), "{:?}", chaos.violations);
        assert_eq!(chaos.answer_rate(), 1.0);
    }

    #[test]
    fn delay_only_plans_keep_every_query_correct() {
        let topo = Topology::complete_binary(2);
        let data = weather(700);
        let plan = FaultPlan::new(11)
            .with_delay(DelayDist::Uniform { lo: 0, hi: 3 })
            .unwrap();
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &checked(plan)).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // Delay-only plans lose nothing: no retries, no ack traffic.
        assert_eq!(out.net.counter("net.retry_exhausted"), 0);
        assert_eq!(out.net.counter("net.dropped.update"), 0);
        assert!(out.net.counter("net.queries_answered") > 0);
    }

    #[test]
    fn drops_trigger_retries_and_preserve_correctness() {
        let topo = Topology::chain(3);
        let data = weather(900);
        let plan = FaultPlan::new(5).with_drop(0.25).unwrap();
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &checked(plan)).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let retried: u64 = MsgKind::ALL
            .iter()
            .map(|k| out.net.counter(&format!("net.retried.{}", k.name())))
            .sum();
        assert!(retried > 0, "25% drop must force retries");
        assert!(out.net.counter("net.queries_answered") > 0);
    }

    #[test]
    fn dead_edge_exhausts_retries_but_queries_still_resolve() {
        // The edge to the client drops everything: replication to it is
        // written off after max_retries, and its queries must fail or
        // forward — never return a wrong answer.
        let topo = Topology::chain(2);
        let data = weather(900);
        let plan = FaultPlan::new(5)
            .with_edge_drop(NodeId(1), NodeId(2), 1.0)
            .unwrap();
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &checked(plan)).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // Queries from node 2 die on the dead edge; node 1 (if it ever
        // subscribes) can be retried into. Whatever happens, no wrong
        // answers and the run completes.
        assert!(out.run.metrics.counter("queries") > 0);
    }

    #[test]
    fn crash_loses_replicas_then_heals() {
        let topo = Topology::chain(2);
        let data = weather(900);
        let plan = FaultPlan::new(7).with_crash(NodeId(1), 200, 260).unwrap();
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &checked(plan)).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.net.counter("net.crashes"), 1);
        // Queries issued by the crashed node while down are skipped.
        assert!(out.net.counter("net.queries_answered") > 0);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let topo = Topology::complete_binary(2);
        let data = weather(700);
        let plan = FaultPlan::new(3)
            .with_drop(0.15)
            .unwrap()
            .with_delay(DelayDist::Uniform { lo: 0, hi: 2 })
            .unwrap();
        let opts = checked(plan);
        let a = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        let b = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        assert_eq!(a.run.ledger, b.run.ledger);
        assert_eq!(a.run.answers_digest, b.run.answers_digest);
        assert_eq!(
            a.net.counter("net.queries_answered"),
            b.net.counter("net.queries_answered")
        );
    }

    #[test]
    fn baselines_run_only_under_ideal_plans() {
        let topo = Topology::single_client();
        let data = weather(700);
        let ideal = ChaosOptions::default();
        for kind in [SchemeKind::DivergenceCaching, SchemeKind::AdaptivePrecision] {
            let out = run_chaos(kind, &topo, &data, &cfg(), &ideal).unwrap();
            let sync = run(kind, &topo, &data, &cfg());
            assert_eq!(out.run.ledger, sync.ledger);
            assert_eq!(out.run.answers_digest, sync.answers_digest);
        }
        let faulty = ChaosOptions {
            plan: FaultPlan::new(1).with_drop(0.1).unwrap(),
            ..ChaosOptions::default()
        };
        assert_eq!(
            run_chaos(SchemeKind::DivergenceCaching, &topo, &data, &cfg(), &faulty).unwrap_err(),
            ChaosError::UnsupportedScheme("DC")
        );
    }

    #[test]
    fn input_validation() {
        let topo = Topology::single_client();
        let data = weather(100);
        let bad_cfg = WorkloadConfig {
            window: 24,
            ..cfg()
        };
        assert!(matches!(
            run_chaos(
                SchemeKind::SwatAsr,
                &topo,
                &data,
                &bad_cfg,
                &ChaosOptions::default()
            ),
            Err(ChaosError::InvalidConfig(_))
        ));
        assert_eq!(
            run_chaos(
                SchemeKind::SwatAsr,
                &topo,
                &[],
                &cfg(),
                &ChaosOptions::default()
            )
            .unwrap_err(),
            ChaosError::NoData
        );
        let out_of_range = ChaosOptions {
            plan: FaultPlan::new(1).with_crash(NodeId(9), 0, 5).unwrap(),
            ..ChaosOptions::default()
        };
        assert_eq!(
            run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &out_of_range).unwrap_err(),
            ChaosError::PlanOutOfRange { node: 9, nodes: 2 }
        );
        for e in [
            ChaosError::NoData,
            ChaosError::NoClients,
            ChaosError::UnsupportedScheme("DC"),
            ChaosError::PlanOutOfRange { node: 9, nodes: 2 },
            ChaosError::InvalidConfig(WorkloadConfigError::ZeroPeriod("phase")),
            ChaosError::InvalidHealPolicy("heartbeat period must be positive"),
            ChaosError::PastTick(PastTickError { at: 3, now: 7 }),
        ] {
            assert!(!e.to_string().is_empty());
        }
        let bad_heal = ChaosOptions {
            heal: Some(HealPolicy {
                period: 0,
                ..HealPolicy::default()
            }),
            ..ChaosOptions::default()
        };
        assert!(matches!(
            run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &bad_heal),
            Err(ChaosError::InvalidHealPolicy(_))
        ));
        let bad_heal = ChaosOptions {
            heal: Some(HealPolicy {
                miss_threshold: 0,
                ..HealPolicy::default()
            }),
            ..ChaosOptions::default()
        };
        assert!(matches!(
            run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &bad_heal),
            Err(ChaosError::InvalidHealPolicy(_))
        ));
    }

    #[test]
    fn huge_retry_timeout_completes_without_panic() {
        // `now + timeout` used to overflow (and the retry-timer expect
        // used to abort the run); a saturating deadline simply never
        // fires inside the horizon.
        let topo = Topology::chain(3);
        let data = weather(900);
        let plan = FaultPlan::new(5).with_drop(0.25).unwrap();
        let opts = ChaosOptions {
            plan,
            retry: RetryPolicy {
                timeout: u64::MAX,
                max_retries: 4,
            },
            check_invariants: true,
            ..ChaosOptions::default()
        };
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn healing_is_inert_without_crash_windows() {
        // Healing requested but nothing can crash: detection must not
        // arm, so the run is bit-identical to the synchronous harness —
        // zero heartbeat traffic, zero repairs.
        let topo = Topology::complete_binary(2);
        let data = weather(700);
        let cfg = cfg();
        let sync = run(SchemeKind::SwatAsr, &topo, &data, &cfg);
        let mut opts = checked(FaultPlan::none());
        opts.heal = Some(HealPolicy::default());
        let healed = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg, &opts).unwrap();
        assert_eq!(healed.run.ledger, sync.ledger);
        assert_eq!(healed.run.warmup_ledger, sync.warmup_ledger);
        assert_eq!(healed.run.answers_digest, sync.answers_digest);
        assert_eq!(healed.run.ledger.count(MsgKind::Heartbeat), 0);
        assert!(healed.repairs.is_empty());
        assert!(healed.violations.is_empty(), "{:?}", healed.violations);
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        // Fixed 2-tick links with a 3-tick retry timeout: every ack is
        // still in flight when the timer fires, so the receiver sees the
        // same write id twice and must suppress the second copy. The
        // crash window sits beyond the horizon — it only makes the plan
        // fallible, nothing is actually lost, so suppression alone keeps
        // the protocol exactly-once.
        let topo = Topology::chain(2);
        let data = weather(900);
        let horizon = cfg().horizon;
        let plan = FaultPlan::new(3)
            .with_delay(DelayDist::Const(2))
            .unwrap()
            .with_crash(NodeId(1), horizon + 1, horizon + 2)
            .unwrap();
        let opts = ChaosOptions {
            plan,
            retry: RetryPolicy {
                timeout: 3,
                max_retries: 3,
            },
            check_invariants: true,
            ..ChaosOptions::default()
        };
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.net.counter("net.dup_suppressed") > 0,
            "2-tick acks against a 3-tick timeout must force duplicates"
        );
    }

    #[test]
    fn healing_restores_answers_under_interior_crash() {
        // Crash the interior node of a chain for most of the measured
        // span. Statically its whole subtree is cut off from the source;
        // with healing the orphan re-parents to the source and keeps
        // being served.
        let topo = Topology::chain(3);
        let data = weather(900);
        let plan = FaultPlan::new(7).with_crash(NodeId(1), 200, 550).unwrap();
        let static_out = run_chaos(
            SchemeKind::SwatAsr,
            &topo,
            &data,
            &cfg(),
            &checked(plan.clone()),
        )
        .unwrap();
        let mut opts = checked(plan);
        opts.heal = Some(HealPolicy::default());
        let healed = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        assert!(healed.violations.is_empty(), "{:?}", healed.violations);
        assert!(
            !healed.repairs.is_empty(),
            "a 350-tick interior outage must trigger at least one repair"
        );
        assert!(
            healed
                .repairs
                .iter()
                .any(|r| r.kind == RepairKind::Reparent),
            "{:?}",
            healed.repairs
        );
        assert_eq!(healed.net.counter("net.rejoins"), 1);
        assert!(healed.run.ledger.count(MsgKind::Heartbeat) > 0);
        assert!(
            healed.net.counter("net.queries_answered")
                > static_out.net.counter("net.queries_answered"),
            "healed {} must answer strictly more than static {}",
            healed.net.counter("net.queries_answered"),
            static_out.net.counter("net.queries_answered")
        );
        // Same plan twice: the healed run is as deterministic as the
        // static one.
        let again = run_chaos(SchemeKind::SwatAsr, &topo, &data, &cfg(), &opts).unwrap();
        assert_eq!(again.run.answers_digest, healed.run.answers_digest);
        assert_eq!(again.repairs.len(), healed.repairs.len());
    }
}
