//! Durable per-node failover metadata: the leadership term, the
//! per-shard configuration epochs, and which streams the node's store
//! holds.
//!
//! The no-split-brain argument of the daemon's failover protocol leans on
//! one durability fact: **a node never claims or acknowledges the same
//! term twice with different state**, even across a crash-restart. That
//! makes the term record the one piece of daemon state that must hit disk
//! *before* the node speaks — so it gets the full checkpoint treatment:
//! an [`image`](crate::image) container (every bit flip detected), written
//! to a temporary sibling, `fsync`ed, atomically renamed into place, and
//! the directory `fsync`ed.
//!
//! The file lives inside the node's store directory under a name the
//! checkpoint/WAL scanner ignores ([`META_FILE`]), so recovery and meta
//! persistence share a directory without either scanning the other's
//! files.
//!
//! A store's rows are on disk but its membership is not: the
//! [`Placement`] record says which shard of which partition they belong
//! to, so a directory is never opened for streams it does not hold.

use std::fs;
use std::io;
use std::path::Path;

use swat_tree::codec::{CodecError, Cursor};
use swat_tree::{shard_range, SwatConfig};

use crate::error::StoreError;
use crate::image::{read_image, ImageWriter};
use crate::recovery::RecoveryManager;
use crate::store::{holds_store, DurableStore};

/// File name of the metadata image inside a store directory.
/// [`crate::manifest::classify`] does not recognize it, so it never
/// shadows tree recovery.
pub const META_FILE: &str = "node-meta";

const TMP_FILE: &str = "node-meta.tmp";
const TAG_TERM: u8 = 1;
const TAG_EPOCH: u8 = 2;
// A mandatory terminator: without it, truncating the image at a record
// boundary would silently drop trailing epoch records.
const TAG_END: u8 = 3;
const TAG_PLACEMENT: u8 = 4;

/// Shard `shard` of `shards` over `streams` streams, under the
/// contiguous-range partition (`swat_tree::shard_range`): the streams a
/// store directory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Streams across every shard.
    pub streams: usize,
    /// Shards the streams are split across.
    pub shards: usize,
    /// The shard this directory holds.
    pub shard: usize,
}

impl Placement {
    /// The store in `dir` holding this placement's streams under
    /// `config`: the one there, recovered, or — the placement recorded
    /// first — a fresh one; and the node's record in `dir` as it now
    /// stands, read once here for the caller to adopt.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from creation or recovery, and
    /// [`StoreError::Mismatch`] when the directory records another
    /// placement, or holds a store with no placement record (one written
    /// under an earlier partition rule) or with another stream count or
    /// configuration.
    pub fn open(
        self,
        dir: &Path,
        config: SwatConfig,
    ) -> Result<(DurableStore, NodeMeta), StoreError> {
        let width = shard_range(self.streams, self.shards, self.shard).len();
        let meta = NodeMeta::load(dir)?.unwrap_or_default();
        let found = meta.placement;
        let mismatch =
            |what, found: String, want: String| StoreError::Mismatch { what, found, want };
        let misplaced = || {
            let found = found.map_or_else(|| "unrecorded".to_owned(), |p| format!("{p:?}"));
            mismatch("placement", found, format!("{self:?}"))
        };
        // Only parseable store files count: the meta image shares the
        // directory and must not flip a fresh node into recovery.
        if !holds_store(dir) {
            if found.is_some_and(|found| found != self) {
                return Err(misplaced());
            }
            let meta = NodeMeta {
                placement: Some(self),
                ..meta
            };
            if found.is_none() {
                meta.save(dir)?;
            }
            return Ok((DurableStore::create(dir, config, width)?, meta));
        }
        if found != Some(self) {
            return Err(misplaced());
        }
        let mut store = RecoveryManager::recover(dir)?.0;
        let set = store.set();
        if set.streams() != width {
            let found = set.streams().to_string();
            return Err(mismatch("stream count", found, width.to_string()));
        }
        if *set.config() != config {
            let found = format!("{:?}", set.config());
            return Err(mismatch("config", found, format!("{config:?}")));
        }
        Ok((store, meta))
    }
}

/// A node's durable failover state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeMeta {
    /// The newest leadership term this node has claimed or acknowledged.
    pub term: u64,
    /// The node believed to lead `term`.
    pub leader: u64,
    /// Per-shard configuration epochs this node has acknowledged,
    /// ascending by shard.
    pub epochs: Vec<(u32, u64)>,
    /// The streams the store in this directory holds; recorded before
    /// the store is created, and carried by every rewrite.
    pub placement: Option<Placement>,
}

impl NodeMeta {
    /// Serialize into image bytes (exposed for corruption fuzzing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ImageWriter::new();
        let mut term = Vec::with_capacity(16);
        term.extend_from_slice(&self.term.to_le_bytes());
        term.extend_from_slice(&self.leader.to_le_bytes());
        w.record(TAG_TERM, &term);
        if let Some(p) = self.placement {
            let mut rec = Vec::with_capacity(24);
            for field in [p.streams, p.shards, p.shard] {
                rec.extend_from_slice(&(field as u64).to_le_bytes());
            }
            w.record(TAG_PLACEMENT, &rec);
        }
        for &(shard, epoch) in &self.epochs {
            let mut rec = Vec::with_capacity(12);
            rec.extend_from_slice(&shard.to_le_bytes());
            rec.extend_from_slice(&epoch.to_le_bytes());
            w.record(TAG_EPOCH, &rec);
        }
        w.record(TAG_END, &[]);
        w.finish()
    }

    /// Decode image bytes (exposed for corruption fuzzing).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on any structural damage — a flipped bit,
    /// a truncation, a missing or duplicated term record.
    pub fn from_bytes(bytes: &[u8]) -> Result<NodeMeta, StoreError> {
        let corrupt = |source: CodecError| StoreError::Corrupt {
            file: META_FILE.to_string(),
            source,
        };
        let invalid = |what: &'static str| corrupt(CodecError::Invalid { what, offset: 0 });
        let mut meta: Option<NodeMeta> = None;
        let mut ended = false;
        for (tag, payload) in read_image(bytes)? {
            if ended {
                return Err(invalid("record after the end marker"));
            }
            match tag {
                TAG_TERM => {
                    if meta.is_some() {
                        return Err(invalid("duplicate term record"));
                    }
                    let mut c = Cursor::new(&payload);
                    let term = c.u64().map_err(corrupt)?;
                    let leader = c.u64().map_err(corrupt)?;
                    if !c.is_empty() {
                        return Err(invalid("oversized term record"));
                    }
                    meta = Some(NodeMeta {
                        term,
                        leader,
                        ..NodeMeta::default()
                    });
                }
                TAG_PLACEMENT => {
                    let m = meta
                        .as_mut()
                        .ok_or_else(|| invalid("placement before term record"))?;
                    if m.placement.is_some() || !m.epochs.is_empty() {
                        return Err(invalid("placement record out of order"));
                    }
                    let mut c = Cursor::new(&payload);
                    let mut field = || {
                        let n = c.u64().map_err(corrupt)?;
                        usize::try_from(n).map_err(|_| invalid("placement beyond usize"))
                    };
                    let placement = Placement {
                        streams: field()?,
                        shards: field()?,
                        shard: field()?,
                    };
                    if !c.is_empty() {
                        return Err(invalid("oversized placement record"));
                    }
                    m.placement = Some(placement);
                }
                TAG_EPOCH => {
                    let m = meta
                        .as_mut()
                        .ok_or_else(|| invalid("epoch before term record"))?;
                    let mut c = Cursor::new(&payload);
                    let shard = c.u32().map_err(corrupt)?;
                    let epoch = c.u64().map_err(corrupt)?;
                    if !c.is_empty() {
                        return Err(invalid("oversized epoch record"));
                    }
                    if m.epochs.last().is_some_and(|&(s, _)| s >= shard) {
                        return Err(invalid("epoch records out of order"));
                    }
                    m.epochs.push((shard, epoch));
                }
                TAG_END => {
                    if !payload.is_empty() {
                        return Err(invalid("oversized end marker"));
                    }
                    ended = true;
                }
                _ => return Err(invalid("unknown metadata record tag")),
            }
        }
        if !ended {
            return Err(invalid("missing end marker (truncated image)"));
        }
        meta.ok_or_else(|| invalid("missing term record"))
    }

    /// Durably persist into `dir` (created if missing): temporary file,
    /// `fsync`, atomic rename, directory `fsync`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if any filesystem step fails; on error the
    /// previous metadata file (if any) is intact.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        fs::create_dir_all(dir).map_err(StoreError::io("create metadata directory"))?;
        let tmp = dir.join(TMP_FILE);
        fs::write(&tmp, self.to_bytes()).map_err(StoreError::io("write metadata"))?;
        let f = fs::File::open(&tmp).map_err(StoreError::io("reopen metadata for fsync"))?;
        f.sync_all().map_err(StoreError::io("fsync metadata"))?;
        fs::rename(&tmp, dir.join(META_FILE)).map_err(StoreError::io("rename metadata"))?;
        // Best-effort directory fsync, same policy as the checkpoint
        // writer: the rename is atomic either way.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Load from `dir`. A missing file is `Ok(None)` — the node has never
    /// persisted a term; anything unreadable or structurally damaged is
    /// an error, because acting on a default term after losing a newer
    /// one is exactly the split-brain the record exists to prevent.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failure, [`StoreError::Corrupt`] on
    /// structural damage.
    pub fn load(dir: &Path) -> Result<Option<NodeMeta>, StoreError> {
        let bytes = match fs::read(dir.join(META_FILE)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(StoreError::Io {
                    context: "read metadata",
                    source: e,
                })
            }
        };
        Self::from_bytes(&bytes).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeMeta {
        NodeMeta {
            term: 7,
            leader: 2,
            epochs: vec![(0, 1), (1, 0), (2, 4)],
            placement: Some(Placement {
                streams: 2048,
                shards: 2,
                shard: 1,
            }),
        }
    }

    #[test]
    fn roundtrips_in_memory() {
        let m = sample();
        assert_eq!(NodeMeta::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn roundtrips_on_disk_and_overwrites_atomically() {
        let dir = std::env::temp_dir().join(format!("swat-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(NodeMeta::load(&dir).unwrap(), None, "no dir yet");
        let first = sample();
        first.save(&dir).unwrap();
        assert_eq!(NodeMeta::load(&dir).unwrap(), Some(first));
        let second = NodeMeta {
            term: 12,
            leader: 3,
            epochs: vec![(0, 2)],
            placement: None,
        };
        second.save(&dir).unwrap();
        assert_eq!(NodeMeta::load(&dir).unwrap(), Some(second));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    NodeMeta::from_bytes(&mutated).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                NodeMeta::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn structural_damage_is_typed() {
        // Duplicate term record.
        let m = sample();
        let mut w = ImageWriter::new();
        let mut term = Vec::new();
        term.extend_from_slice(&m.term.to_le_bytes());
        term.extend_from_slice(&m.leader.to_le_bytes());
        w.record(TAG_TERM, &term).record(TAG_TERM, &term);
        assert!(NodeMeta::from_bytes(&w.finish()).is_err());
        // Epoch record before any term record.
        let mut w = ImageWriter::new();
        w.record(TAG_EPOCH, &[0u8; 12]);
        assert!(NodeMeta::from_bytes(&w.finish()).is_err());
        // A placement record before the term record, or a second one.
        let placement = [0u8; 24];
        let mut w = ImageWriter::new();
        w.record(TAG_PLACEMENT, &placement)
            .record(TAG_TERM, &term)
            .record(TAG_END, &[]);
        assert!(NodeMeta::from_bytes(&w.finish()).is_err());
        let mut w = ImageWriter::new();
        w.record(TAG_TERM, &term)
            .record(TAG_PLACEMENT, &placement)
            .record(TAG_PLACEMENT, &placement)
            .record(TAG_END, &[]);
        assert!(NodeMeta::from_bytes(&w.finish()).is_err());
        // Unknown tag.
        let mut w = ImageWriter::new();
        w.record(9, &[]);
        assert!(NodeMeta::from_bytes(&w.finish()).is_err());
        // Empty image: no term record.
        assert!(NodeMeta::from_bytes(&ImageWriter::new().finish()).is_err());
    }
}
