//! # SWAT durability layer
//!
//! Crash consistency for SWAT summaries. A network node that holds the
//! only full-resolution summary of its local streams (the paper's §3
//! deployment) cannot afford to lose it to a process crash: rebuilding
//! from peers costs the very network messages the hierarchy exists to
//! avoid. This crate makes a node's [`StreamSet`](swat_tree::StreamSet)
//! durable with a tiered, LSM-flavoured design, engineered so that
//! **arbitrary storage corruption degrades recovery, never correctness**
//! and **no caller ever blocks on an `fsync`**:
//!
//! * [`store::DurableStore`] — the live object: every arrival row is a
//!   checksummed WAL record plus an in-memory tree update, and the WAL is
//!   the only copy of a row the store makes; at every `freeze_rows`
//!   boundary the ingest thread encodes the live set's snapshot and a
//!   background thread writes it as an immutable [`segment`], commits it
//!   via the [`manifest`] and only then retires what is older than the
//!   newest two snapshots and the WAL behind them.
//! * [`recovery::RecoveryManager`] — rebuilds from the newest verifiable
//!   manifest: base snapshot from the newest intact segment (falling
//!   back onto the older kept one, whose WAL tail is retained for exactly
//!   that), then the WAL chain replayed in bounded-memory chunks with
//!   torn tails truncated. The recovered trees are bit-identical (by
//!   `answers_digest`) to a never-crashed store at some verified prefix
//!   of the acknowledged rows.
//! * [`fault`] — two seeded fault families: [`fault::FaultPlan`] mutates
//!   dead directories (bit rot, torn tails, lost files) and
//!   [`fault::IoFaults`] makes live writes/fsyncs/renames fail
//!   (`ENOSPC`, `EIO`, torn writes, mid-operation crashes). A persistent
//!   background fault parks the flush and degrades the store
//!   ([`store::StoreHealth`]) while ingest continues.
//! * [`image`] — a small checksummed record container for non-tree
//!   durable state (the replication layer's per-node bookkeeping).
//!
//! Formats are defined in [`wal`], [`segment`] and [`manifest`]; every
//! decode path returns a positioned [`StoreError`] and none of them can
//! panic on adversarial bytes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod fault;
pub mod image;
mod io;
pub mod manifest;
pub mod meta;
pub mod recovery;
pub mod segment;
pub mod store;
pub mod wal;

pub use error::StoreError;
pub use fault::{Fault, FaultInjector, FaultPlan, IoFaultKind, IoFaultPlan, IoFaults, IoOp};
pub use image::{read_image, ImageWriter};
pub use manifest::{Manifest, SegmentEntry, StoreFile};
pub use meta::{NodeMeta, Placement};
pub use recovery::{RecoveryManager, RecoveryReport};
pub use store::{holds_store, DurableStore, StoreHealth, StoreOptions, TierStatus};
