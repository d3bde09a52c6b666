//! The replica node: a sans-io state machine owning one shard.
//!
//! [`ReplicaNode::handle`] maps every [`Request`] to exactly one
//! [`Response`] with no I/O of its own, so the same logic serves the
//! threaded TCP server and the deterministic simulator — the
//! property-test arm and the production arm literally share this code,
//! which is what makes "bit-identical to the oracle" a meaningful claim.
//!
//! A replica owns the streams of one shard of the global hash
//! partition (`swat_tree::shard_members`), backed either by an
//! in-memory [`TiledSet`] or by a [`DurableStore`] (WAL + checkpoints),
//! and keeps the applied-write-id set that makes ingest retries
//! duplicate-safe (the PR 5 scheme).
//!
//! # A holding is a row log until something reads it
//!
//! Every holding — primary or standby, in memory or durable — takes a
//! row the same way: it checks the row, logs it (a durable store buffers
//! the WAL record), holds it, and acks. The held rows reach the trees
//! through the blocked cascade ([`StreamSet::extend_rows`]) once the
//! set's clock plus the held rows is a multiple of [`swat_tree::ROW_TILE`]
//! — one aligned chunk, no scalar head — and before anything reads the
//! trees. The second half is enforced by type: the trees live in a
//! [`TiledSet`] (in memory) or a [`DurableStore`] (which owns one), and
//! the only ways in take `&mut self` and apply the held rows first, so no
//! `&self` path can see a tree missing an acked row.

use std::collections::HashSet;
use std::path::Path;

use swat_store::{DurableStore, RecoveryManager, StoreError};
use swat_tree::{
    for_each_root_coeff, local_top_k, shard_members, QueryOptions, RangeQuery, StreamSet,
    SwatConfig, TiledSet,
};

use crate::proto::{ErrorCode, Request, Response, WirePointAnswer};

/// Where a replica's stream state lives.
// One Backing exists per shard held, so the size gap between the
// variants (the tiered store carries flush-thread plumbing) is noise
// next to the StreamSet both contain; boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Backing {
    /// Volatile: fast, lost on exit.
    Memory(TiledSet),
    /// Durable: WAL + checkpoints under a directory; survives crashes.
    Durable(DurableStore),
}

impl Backing {
    /// Check, log and hold `row`; `false` (and nothing changed) when the
    /// row is refused.
    fn hold(&mut self, row: &[f64]) -> bool {
        match self {
            Backing::Memory(tiles) => tiles.hold(row).is_ok(),
            Backing::Durable(store) => store.push_row(row).is_ok(),
        }
    }

    /// The trees, every acked row applied.
    fn settled(&mut self) -> &StreamSet {
        match self {
            Backing::Memory(tiles) => tiles.settled(),
            Backing::Durable(store) => store.set(),
        }
    }

    /// The backing store's health (in-memory backings are always
    /// healthy).
    fn health(&self) -> crate::proto::WireStoreHealth {
        match self {
            Backing::Memory(_) => crate::proto::WireStoreHealth::Healthy,
            Backing::Durable(d) => match d.health() {
                swat_store::StoreHealth::Healthy => crate::proto::WireStoreHealth::Healthy,
                swat_store::StoreHealth::Degraded { parked, .. } => {
                    crate::proto::WireStoreHealth::Degraded {
                        parked: parked.min(u32::MAX as usize) as u32,
                    }
                }
            },
        }
    }
}

/// One shard-owning node of a `swatd` cluster.
pub struct ReplicaNode {
    node: u64,
    shard: usize,
    /// Global ids of the streams this shard owns, ascending; local
    /// index ↦ global id.
    members: Vec<usize>,
    backing: Backing,
    /// Write ids already acked; retries re-ack without re-applying.
    applied: HashSet<u64>,
    /// Rows acked (deduplicated), held ones included.
    arrivals: u64,
}

impl ReplicaNode {
    /// An in-memory replica: node id `node` owning shard `shard` of
    /// `shards` over `streams` global streams.
    pub fn new(node: u64, config: SwatConfig, streams: usize, shards: usize, shard: usize) -> Self {
        let members = shard_members(streams, shards, shard);
        let set = StreamSet::new(config, members.len());
        ReplicaNode {
            node,
            shard,
            members,
            backing: Backing::Memory(TiledSet::new(set)),
            applied: HashSet::new(),
            arrivals: 0,
        }
    }

    /// A durable replica rooted at `dir`: recovers an existing store if
    /// one is present, creates a fresh one otherwise.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from creation or recovery.
    pub fn durable(
        node: u64,
        config: SwatConfig,
        streams: usize,
        shards: usize,
        shard: usize,
        dir: &Path,
    ) -> Result<Self, StoreError> {
        let members = shard_members(streams, shards, shard);
        // Only parseable store files count: the node-meta image shares
        // this directory and must not flip a fresh node into recovery.
        let store = if swat_store::holds_store(dir) {
            RecoveryManager::recover(dir)?.0
        } else {
            DurableStore::create(dir, config, members.len())?
        };
        let arrivals = store.arrivals();
        Ok(ReplicaNode {
            node,
            shard,
            members,
            backing: Backing::Durable(store),
            applied: HashSet::new(),
            arrivals,
        })
    }

    /// An in-memory replica rebuilt from exported state — the receiving
    /// end of a standby installation. `snapshot` is [`StreamSet::
    /// snapshot`] bytes; `applied` the write ids already absorbed.
    ///
    /// # Errors
    ///
    /// A [`swat_tree::SnapshotError`] when the snapshot bytes are
    /// damaged, or when the restored set's stream count does not match
    /// the shard's membership (a routing mismatch, not just corruption).
    pub fn install(
        node: u64,
        streams: usize,
        shards: usize,
        shard: usize,
        arrivals: u64,
        applied: Vec<u64>,
        snapshot: &[u8],
    ) -> Result<Self, swat_tree::SnapshotError> {
        let members = shard_members(streams, shards, shard);
        let set = StreamSet::restore(snapshot)?;
        if set.streams() != members.len() {
            return Err(swat_tree::SnapshotError::Invalid {
                what: "snapshot stream count does not match the shard",
                offset: 0,
            });
        }
        Ok(ReplicaNode {
            node,
            shard,
            members,
            backing: Backing::Memory(TiledSet::new(set)),
            applied: applied.into_iter().collect(),
            arrivals,
        })
    }

    /// Export this replica's full shard state — `(arrivals, applied
    /// write ids ascending, snapshot bytes)` — the payload a leader
    /// ships to seed a standby.
    pub fn export(&mut self) -> (u64, Vec<u64>, Vec<u8>) {
        let mut applied: Vec<u64> = self.applied.iter().copied().collect();
        applied.sort_unstable();
        (self.arrivals, applied, self.backing.settled().snapshot())
    }

    /// This node's id.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// The shard index this node owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Global ids of the owned streams, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Rows acked (deduplicated), held rows included.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// The underlying stream set, every acked row applied.
    pub fn set(&mut self) -> &StreamSet {
        self.backing.settled()
    }

    /// Order-sensitive digest over the owned trees, every acked row
    /// applied — the oracle comparison hook.
    pub fn answers_digest(&mut self) -> u64 {
        self.backing.settled().answers_digest()
    }

    /// Force WAL + checkpoint to disk (durable backing only). Called by
    /// the graceful-shutdown drain.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the checkpoint.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        match &mut self.backing {
            Backing::Memory(_) => Ok(()),
            Backing::Durable(d) => d.checkpoint(),
        }
    }

    /// Hand the logged rows to the kernel (durable backing only): a
    /// `write`, so they survive a kill of the process. What the sole
    /// holder of a shard does before its ingest answer leaves.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of a failed WAL write.
    pub fn flush_log(&mut self) -> Result<(), StoreError> {
        match &mut self.backing {
            Backing::Memory(_) => Ok(()),
            Backing::Durable(d) => d.flush(),
        }
    }

    /// The backing store's health: [`crate::proto::WireStoreHealth::Degraded`] when
    /// the background snapshot flush is parked on a disk fault (in-memory
    /// backings are always healthy).
    pub fn store_health(&self) -> crate::proto::WireStoreHealth {
        self.backing.health()
    }

    /// The local index of global stream `g`, if this shard owns it.
    fn local_of(&self, g: u64) -> Option<usize> {
        usize::try_from(g)
            .ok()
            .and_then(|g| self.members.binary_search(&g).ok())
    }

    /// Serve one shard request: ingest, point, range, or either top-k
    /// round. Anything else is node- or cluster-level traffic that
    /// [`crate::node::ClusterNode`] answers, and gets
    /// [`ErrorCode::WrongRole`] here. Total — no input panics.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Ingest { req_id, row } => self.ingest(*req_id, row),
            Request::Point { stream, index } => self.point(*stream, *index),
            Request::Range {
                stream,
                center,
                radius,
                newest,
                oldest,
            } => self.range(*stream, *center, *radius, *newest, *oldest),
            Request::LocalTopK { k } => {
                let summary = local_top_k(self.backing.settled(), &self.members, *k as usize);
                Response::LocalTopKR {
                    threshold: summary.threshold(),
                    truncated: summary.len() == *k as usize,
                    entries: summary.entries().to_vec(),
                }
            }
            Request::TopKScan { tau } => {
                let mut entries = Vec::new();
                for_each_root_coeff(self.backing.settled(), &self.members, |c| {
                    if c.weight() >= *tau {
                        entries.push(c);
                    }
                });
                Response::ScanR { entries }
            }
            _ => Response::ErrorR {
                code: ErrorCode::WrongRole,
            },
        }
    }

    /// A row, a primary's (`Ingest`) or a standby's (`Replicate`) alike:
    /// a known write id re-acks as a duplicate; otherwise the row is
    /// checked, logged, held and acked — applied with the tile it
    /// completes, or when something first reads the trees. A refused row
    /// is the sender's fault and changes nothing (the tile's
    /// all-or-nothing row check is the only validation). Nothing here
    /// allocates once the tile buffer is reserved, bar the write-id set's
    /// growth.
    pub(crate) fn ingest(&mut self, req_id: u64, row: &[f64]) -> Response {
        if self.applied.contains(&req_id) {
            return Response::IngestOk {
                req_id,
                duplicate: true,
                failed_shards: Vec::new(),
            };
        }
        if !self.backing.hold(row) {
            return Response::ErrorR {
                code: ErrorCode::BadRequest,
            };
        }
        self.applied.insert(req_id);
        self.arrivals += 1;
        Response::IngestOk {
            req_id,
            duplicate: false,
            failed_shards: Vec::new(),
        }
    }

    fn point(&mut self, stream: u64, index: u32) -> Response {
        let Some(local) = self.local_of(stream) else {
            return Response::ErrorR {
                code: ErrorCode::BadRequest,
            };
        };
        match self
            .backing
            .settled()
            .tree(local)
            .point_with(index as usize, QueryOptions::default())
        {
            Ok(a) => Response::PointR {
                answer: WirePointAnswer::from(a),
            },
            Err(_) => Response::ErrorR {
                code: ErrorCode::BadRequest,
            },
        }
    }

    fn range(
        &mut self,
        stream: u64,
        center: f64,
        radius: f64,
        newest: u32,
        oldest: u32,
    ) -> Response {
        let Some(local) = self.local_of(stream) else {
            return Response::ErrorR {
                code: ErrorCode::BadRequest,
            };
        };
        if !(center.is_finite() && radius.is_finite() && radius >= 0.0) || newest > oldest {
            return Response::ErrorR {
                code: ErrorCode::BadRequest,
            };
        }
        let query = RangeQuery::new(center, radius, newest as usize, oldest as usize);
        match self.backing.settled().tree(local).range_query(&query) {
            Ok(matches) => Response::RangeR {
                matches: matches.into_iter().map(Into::into).collect(),
            },
            Err(_) => Response::ErrorR {
                code: ErrorCode::BadRequest,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_tree::{shard_of, ROW_TILE};

    fn cfg() -> SwatConfig {
        SwatConfig::with_coefficients(16, 4).unwrap()
    }

    fn warm(node: &mut ReplicaNode, rows: usize) {
        let width = node.members().len();
        for r in 0..rows {
            let row: Vec<f64> = (0..width).map(|i| ((r * 7 + i * 3) % 11) as f64).collect();
            let resp = node.handle(&Request::Ingest {
                req_id: r as u64,
                row,
            });
            assert!(matches!(
                resp,
                Response::IngestOk {
                    duplicate: false,
                    ..
                }
            ));
        }
    }

    #[test]
    fn ingest_is_duplicate_safe() {
        let mut node = ReplicaNode::new(1, cfg(), 8, 2, 0);
        let width = node.members().len();
        let row = vec![1.0; width];
        let first = node.handle(&Request::Ingest {
            req_id: 9,
            row: row.clone(),
        });
        assert!(matches!(
            first,
            Response::IngestOk {
                duplicate: false,
                ..
            }
        ));
        let digest = node.answers_digest();
        let again = node.handle(&Request::Ingest { req_id: 9, row });
        assert!(matches!(
            again,
            Response::IngestOk {
                duplicate: true,
                ..
            }
        ));
        assert_eq!(node.answers_digest(), digest, "duplicate must not re-apply");
        assert_eq!(node.arrivals(), 1);
    }

    /// `width` values of replicated row `r`.
    fn row_of(r: usize, width: usize) -> Vec<f64> {
        (0..width).map(|i| ((r * 5 + i * 3) % 13) as f64).collect()
    }

    fn acked(resp: Response, duplicate: bool) -> bool {
        matches!(resp, Response::IngestOk { duplicate: d, .. } if d == duplicate)
    }

    fn held_rows(node: &ReplicaNode) -> usize {
        let Backing::Memory(tiles) = &node.backing else {
            panic!("an in-memory holding");
        };
        tiles.held_rows()
    }

    #[test]
    fn tiles_end_on_clock_multiples_of_the_tile() {
        // A holding installed at clock 37 applies a short first tile at
        // 64 and whole tiles from then on; it never holds 64 rows.
        let mut source = ReplicaNode::new(1, cfg(), 8, 2, 1);
        let width = source.members().len();
        for r in 0..37 {
            source.ingest(r as u64, &row_of(r, width));
        }
        let (arrivals, applied, snapshot) = source.export();
        let mut node = ReplicaNode::install(2, 8, 2, 1, arrivals, applied, &snapshot).unwrap();
        let mut held = Vec::new();
        for r in 37..37 + 27 + 2 * ROW_TILE {
            assert!(acked(node.ingest(r as u64, &row_of(r, width)), false));
            held.push(held_rows(&node));
        }
        assert_eq!(held[25..28], [26, 0, 1]);
        assert_eq!(held[27 + 62..27 + 65], [63, 0, 1]);
        assert!(held.iter().all(|&h| h < ROW_TILE));
        assert_eq!(node.arrivals(), 37 + 27 + 2 * ROW_TILE as u64);
        for r in 37..37 + 27 + 2 * ROW_TILE {
            source.ingest(r as u64, &row_of(r, width));
        }
        assert_eq!(node.answers_digest(), source.answers_digest());
    }

    #[test]
    fn a_refused_row_changes_nothing() {
        let mut node = ReplicaNode::new(1, cfg(), 8, 2, 1);
        let width = node.members().len();
        for r in 0..10 {
            assert!(acked(node.ingest(r as u64, &row_of(r, width)), false));
        }
        let before = (held_rows(&node), node.applied.clone(), node.arrivals());
        assert_eq!(before.0, 10);
        let mut nan = row_of(10, width);
        nan[1] = f64::NAN;
        for bad in [nan, vec![1.0; width + 1], Vec::new()] {
            assert_eq!(
                node.ingest(10, &bad),
                Response::ErrorR {
                    code: ErrorCode::BadRequest
                }
            );
            let after = (held_rows(&node), node.applied.clone(), node.arrivals());
            assert_eq!(after, before);
        }
        let mut twin = StreamSet::new(cfg(), width);
        for r in 0..10 {
            twin.push_row(&row_of(r, width));
        }
        assert_eq!(node.answers_digest(), twin.answers_digest());
        // The refused id was not consumed.
        assert!(acked(node.ingest(10, &row_of(10, width)), false));
    }

    #[test]
    fn queries_match_direct_stream_set() {
        let mut node = ReplicaNode::new(1, cfg(), 10, 3, 1);
        warm(&mut node, 40);
        // The same state built directly.
        let members = shard_members(10, 3, 1);
        assert_eq!(node.members(), &members[..]);
        let mut set = StreamSet::new(cfg(), members.len());
        for r in 0..40 {
            let row: Vec<f64> = (0..members.len())
                .map(|i| ((r * 7 + i * 3) % 11) as f64)
                .collect();
            set.push_row(&row);
        }
        for (local, &global) in members.iter().enumerate() {
            assert_eq!(shard_of(global as u64, 3), 1);
            let want = set
                .tree(local)
                .point_with(3, QueryOptions::default())
                .unwrap();
            match node.handle(&Request::Point {
                stream: global as u64,
                index: 3,
            }) {
                Response::PointR { answer } => {
                    assert_eq!(answer.value.to_bits(), want.value.to_bits());
                    assert_eq!(answer.error_bound.to_bits(), want.error_bound.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(node.answers_digest(), set.answers_digest());
    }

    #[test]
    fn foreign_stream_and_bad_input_are_typed_errors() {
        let mut node = ReplicaNode::new(1, cfg(), 10, 3, 1);
        // A stream another shard owns.
        let foreign = (0..10)
            .find(|&g| shard_of(g as u64, 3) != 1)
            .expect("some stream routes elsewhere");
        assert_eq!(
            node.handle(&Request::Point {
                stream: foreign as u64,
                index: 0,
            }),
            Response::ErrorR {
                code: ErrorCode::BadRequest
            }
        );
        // Wrong arity.
        assert_eq!(
            node.handle(&Request::Ingest {
                req_id: 0,
                row: vec![1.0; 99],
            }),
            Response::ErrorR {
                code: ErrorCode::BadRequest
            }
        );
        // Leader-only request.
        assert_eq!(
            node.handle(&Request::TopK { k: 3 }),
            Response::ErrorR {
                code: ErrorCode::WrongRole
            }
        );
        // Inverted range interval must not panic.
        assert_eq!(
            node.handle(&Request::Range {
                stream: node.members()[0] as u64,
                center: 0.0,
                radius: 1.0,
                newest: 9,
                oldest: 2,
            }),
            Response::ErrorR {
                code: ErrorCode::BadRequest
            }
        );
    }

    #[test]
    fn disk_faulted_replica_reports_degraded_status() {
        let dir = std::env::temp_dir().join(format!("swatd-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let members = shard_members(8, 2, 0);
        let opts = swat_store::StoreOptions {
            freeze_rows: 4,
            retry_backoff: std::time::Duration::from_millis(1),
            ..swat_store::StoreOptions::default()
        };
        let flush_faults = opts.flush_faults.clone();
        let store = DurableStore::create_with(&dir, cfg(), members.len(), opts).unwrap();
        let mut node = ReplicaNode {
            node: 1,
            shard: 0,
            members,
            backing: Backing::Durable(store),
            applied: HashSet::new(),
            arrivals: 0,
        };
        assert_eq!(node.store_health(), crate::proto::WireStoreHealth::Healthy);

        // The disk dies under the background flusher; ingest continues
        // and the health `Status` reports surfaces the degradation
        // instead of hiding it.
        flush_faults.kill();
        warm(&mut node, 20);
        // The drain barrier forces every parked flush to be attempted
        // and reports the failure as a typed error.
        let err = node.checkpoint().unwrap_err();
        assert!(
            matches!(err, StoreError::Degraded { parked, .. } if parked > 0),
            "checkpoint on a dead disk must report Degraded, got {err}"
        );
        let store = node.store_health();
        assert!(
            matches!(store, crate::proto::WireStoreHealth::Degraded { .. }),
            "faulted flush path must surface as degraded, got {store}"
        );
        assert_eq!(node.arrivals(), 20, "ingest must continue while degraded");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_replica_survives_restart() {
        let dir = std::env::temp_dir().join(format!("swatd-replica-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut node = ReplicaNode::durable(1, cfg(), 8, 2, 0, &dir).unwrap();
        warm(&mut node, 20);
        let digest = node.answers_digest();
        let arrivals = node.arrivals();
        node.checkpoint().unwrap();
        drop(node);
        let mut back = ReplicaNode::durable(1, cfg(), 8, 2, 0, &dir).unwrap();
        assert_eq!(back.answers_digest(), digest);
        assert_eq!(back.arrivals(), arrivals);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
