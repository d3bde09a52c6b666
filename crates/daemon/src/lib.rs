//! `swatd`: a fault-tolerant networked daemon for SWAT clusters.
//!
//! The SWAT paper summarizes streams *in large networks*; everything in
//! this workspace up to now ran inside the discrete-event simulator.
//! This crate promotes the sharded summarization tier to a real
//! deployment shape: one long-running process per node, speaking a
//! small length-framed CRC-checked wire protocol ([`proto`]), with the
//! leader/replica split of the stream space into contiguous ranges
//! ([`cluster`], [`replica`]).
//!
//! The robustness surface is the point:
//!
//! * **deadlines** on every socket operation ([`transport`]),
//! * **bounded retries** with exponential backoff (the
//!   `swat_replication::RetryPolicy` discipline) and **load shedding**
//!   (a typed `Overloaded` response when the per-peer in-flight budget
//!   is exhausted — never unbounded queueing),
//! * **heartbeat-driven health** (`Alive`/`Suspect`/`Dead`): the fan-out
//!   skips the dead and the repair pass promotes around them
//!   ([`registry`]),
//! * **duplicate-safe request ids** so retries never double-apply,
//! * **graceful shutdown** that drains in-flight requests and
//!   checkpoints through `swat-store` ([`server`]),
//! * **typed protocol errors** for every malformed frame — the fuzz
//!   tests feed every truncation and bit-flip of valid frames and
//!   require typed errors, never panics.
//!
//! The protocol exists once: [`node::ClusterNode`] and
//! [`cluster::LeaderCore`] decide, and [`driver`] runs their plans — the
//! request cycle, the monitor pass, the client's redirect walk, a leg's
//! bounded retries — over whatever [`driver::Fabric`] a deployment hands
//! it. [`server`] is the TCP fabric ([`transport::TcpTransport`] under a
//! [`client::PeerPool`]) and the threads around it; [`sim::Sim`] is the
//! simulated one, whose legs are verdicts of the `swat-net` fault
//! injector on a virtual clock, so the simulator is the *tested model* of
//! the daemon in the strict sense that it runs the daemon's loops: under
//! arbitrary `FaultPlan`s the `sim_oracle` property tests pin the
//! byte-level wire arm bit-identical to the struct-level model arm —
//! with a static leader and through elections — and, under no faults, to
//! the in-process `ShardedStreamSet` oracle.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod cluster;
pub mod driver;
pub mod failover;
pub mod node;
pub mod proto;
pub mod registry;
pub mod replica;
pub mod server;
pub mod sim;
pub mod transport;

pub use client::{ClientError, DaemonClient, FailoverClient, InflightGuard, PeerPool};
pub use cluster::{stale_term_in, LeaderCore, PeerCall, Plan, ShardMap};
pub use failover::{next_term, term_owner, Assignment, ShardSlot};
pub use node::ClusterNode;
pub use proto::{
    check_frame, decode_request, decode_response, encode_request, encode_request_into,
    encode_response, encode_response_into, ErrorCode, ProtoError, Request, Response, WireHealth,
    WireStoreHealth, MAX_FRAME, MAX_TOP_K,
};
pub use registry::ReplicaRegistry;
pub use replica::ReplicaNode;
pub use server::{bind, spawn, spawn_on, DaemonConfig, DrainReport, Role, ServerHandle};
pub use sim::{Sim, SimDeployment, SimMode, SimOp};
pub use transport::{TcpTransport, Transport, TransportError};
