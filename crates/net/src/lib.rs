//! Network substrate for the SWAT replication experiments.
//!
//! The paper's §3 model: "there is one central site S, the primary data
//! source … clients across the network issue queries"; requests travel up
//! a spanning tree toward the source and replicas/updates travel down.
//! The experiments measure "the cost of an algorithm as the number of
//! exchanged messages".
//!
//! This crate provides the two pieces every replication scheme shares:
//!
//! * [`Topology`] — a rooted spanning tree (the source is node 0) with
//!   parent/child navigation and the standard shapes the paper simulates
//!   (single client, chains, complete binary trees),
//! * [`MessageLedger`] — per-kind message accounting; every edge traversal
//!   is one message, with an optional weight for control messages (the
//!   Divergence Caching model charges control messages `w` and data
//!   messages 1),
//! * [`FaultPlan`] / [`Link`] — deterministic fault injection: before a
//!   charged message is considered sent, the link adjudicates it as
//!   delivered-at-tick, dropped, or endpoint-down,
//! * [`DynamicTopology`] — a versioned, repairable view of a
//!   [`Topology`] for the self-healing layer: orphaned children re-parent
//!   to live ancestors (cycles impossible by construction), recovered
//!   nodes rejoin, and every repair emits a typed [`RepairEvent`].

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dynamic;
pub mod fault;
pub mod ledger;
pub mod topology;

pub use dynamic::{DynamicTopology, RepairError, RepairEvent, RepairKind};
pub use fault::{CrashWindow, DelayDist, Delivery, FaultPlan, FaultPlanError, Link};
pub use ledger::{MessageLedger, MsgKind};
pub use topology::{NodeId, Topology, TopologyError};
