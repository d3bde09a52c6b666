//! Adaptive replication of stream summaries in large networks.
//!
//! The second half of the SWAT paper (§3–§5): a central source site `S`
//! summarizes a data stream; clients across a spanning-tree network issue
//! inner-product queries with precision requirements; cached
//! approximations — ranges `[d_L, d_H]` — are replicated adaptively so
//! that the total number of inter-site messages is minimized.
//!
//! Three schemes are implemented behind one trait ([`ReplicationScheme`]):
//!
//! * [`asr::SwatAsr`] — the paper's contribution, **SWAT-ASR**: the window
//!   is partitioned into `O(log N)` dyadic *segments* (Table 1); each
//!   segment independently runs an ADR-style replication scheme (Wolfson,
//!   Jajodia & Huang) with *expansion* and *contraction* tests at the end
//!   of every phase, and updates are suppressed whenever the old cached
//!   range encloses the new one (Figure 8).
//! * [`divergence::DivergenceCaching`] — Huang, Sloan & Wolfson's
//!   divergence caching adapted to precision tolerances exactly as the
//!   paper's §4.1 prescribes: per-item cached intervals whose width (the
//!   "refresh rate") is chosen to minimize an expected message cost
//!   derived from windowed read/write rate estimates (window = 23 events).
//! * [`aps::AdaptivePrecision`] — Olston, Loo & Widom's adaptive precision
//!   setting with the paper's settings (α = 1, τ∞ = ∞, τ0 = 2, p = 1):
//!   value-initiated refreshes grow per-item intervals, query-initiated
//!   refreshes shrink them.
//!
//! The deterministic simulation driver lives in [`harness`]; the shared
//! query workload in [`workload`]. Message accounting charges **one unit
//! per tree edge traversed** for every scheme (see
//! `swat_net::MessageLedger`); DC's control messages carry its weight
//! `w`.
//!
//! The fault-aware driver lives in [`chaos`]: it runs SWAT-ASR with every
//! message adjudicated by a `swat_net::FaultPlan` (drops, delays,
//! crashes), acks + bounded retries for replication traffic, and
//! staleness-based graceful degradation — under `FaultPlan::none()` it is
//! bit-identical to [`harness::run`]. Crash durability is modeled through
//! [`durable`]: the state that survives a crash — each node's
//! subscription directory — round-trips through the `swat-store`
//! checksummed image codec.
//!
//! Self-healing is opt-in via [`HealPolicy`]: heartbeat-based failure
//! detection, spanning-tree repair on a `swat_net::DynamicTopology`
//! (orphans adopt their nearest live ancestor), and write-id duplicate
//! suppression that keeps replication exactly-once across retries and
//! repaired edges. Detection arms only when the plan can crash nodes, so
//! crash-free healing runs stay bit-identical to static ones.
//!
//! ```
//! use swat_net::Topology;
//! use swat_replication::harness::{run, WorkloadConfig};
//! use swat_replication::SchemeKind;
//!
//! let cfg = WorkloadConfig {
//!     window: 32,
//!     t_data: 2,
//!     t_query: 1,
//!     delta: 50.0,
//!     horizon: 400,
//!     warmup: 100,
//!     seed: 7,
//!     phase: 10,
//!     ..WorkloadConfig::default()
//! };
//! let values: Vec<f64> = (0..500).map(|i| (i % 40) as f64).collect();
//! let out = run(SchemeKind::SwatAsr, &Topology::single_client(), &values, &cfg);
//! assert!(out.ledger.total() > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod aps;
pub mod asr;
pub mod chaos;
pub mod divergence;
pub mod durable;
pub mod harness;
pub mod scheme;
pub mod segments;
pub mod workload;

pub use approx::{CoeffApprox, RangeApprox, SegmentApprox};
pub use chaos::{run_chaos, ChaosError, ChaosOptions, ChaosOutput, HealPolicy, RetryPolicy};
pub use harness::WorkloadConfigError;
pub use scheme::{QueryOutcome, ReplicationScheme, SchemeKind};
pub use segments::Segment;
