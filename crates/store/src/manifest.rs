//! The segment manifest — the commit point of the tiered store.
//!
//! A manifest is a small checksummed file naming the live segments in
//! chronological order plus `covered_t`, the arrival clock up to which
//! segments (not the WAL) are the durable source of truth. Every flush
//! and every compaction becomes visible by atomically writing
//! `manifest-<seq+1>` — fsync, rename, directory fsync — so at any crash
//! instant there is a complete old manifest or a complete new one, and
//! any segment file not named by the newest valid manifest is an orphan
//! that recovery reclaims.
//!
//! ## On-disk layout
//!
//! ```text
//! "SMAN" version  seq  covered_t  count   entries...   crc32
//!   4B     1B     8B      8B       4B                   4B
//! entry:  name_len  name(utf-8)  start_t  end_t
//!           2B        ..           8B       8B
//! ```

use std::fs;
use std::path::Path;

use swat_tree::codec::{crc32, CodecError, Cursor};

use crate::error::StoreError;
use crate::fault::IoFaults;
use crate::io;
use crate::segment;

/// First bytes of every manifest file.
pub const MAN_MAGIC: &[u8; 4] = b"SMAN";
/// Current manifest format version.
pub const MAN_VERSION: u8 = 1;
/// Manifest generations kept on disk: the newest is truth, the previous
/// one is the fallback if a crash lands mid-rename of the newest.
pub const KEPT_MANIFESTS: usize = 2;

/// Name of the manifest with sequence number `seq`.
pub fn manifest_name(seq: u64) -> String {
    format!("manifest-{seq:020}.man")
}

/// Parse `seq` back out of a [`manifest_name`].
pub fn parse_manifest_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("manifest-")?.strip_suffix(".man")?;
    if rest.len() != 20 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Every kind of file the tiered store writes into its directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreFile {
    /// A write-ahead-log generation (`wal-<base>.wal`).
    Wal(u64),
    /// An immutable segment (`seg-<start>-<end>.seg`).
    Segment(u64, u64),
    /// A manifest generation (`manifest-<seq>.man`).
    Manifest(u64),
}

/// Classify a store-directory file name; `None` for files this store
/// never writes (including `.tmp` staging files).
pub fn classify(name: &str) -> Option<StoreFile> {
    if let Some(base) = io::parse_wal_name(name) {
        return Some(StoreFile::Wal(base));
    }
    if let Some((s, e)) = segment::parse_segment_name(name) {
        return Some(StoreFile::Segment(s, e));
    }
    parse_manifest_name(name).map(StoreFile::Manifest)
}

/// One segment the manifest declares live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File name within the store directory.
    pub name: String,
    /// First arrival the segment's rows carry.
    pub start_t: u64,
    /// Arrival clock of the segment's snapshot.
    pub end_t: u64,
}

/// The live-segment list at one commit point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit sequence number.
    pub seq: u64,
    /// Arrivals durably captured by segments; the WAL owns `covered_t..`.
    pub covered_t: u64,
    /// Live segments, chronological (`entries[i].end_t == entries[i+1].start_t`).
    pub entries: Vec<SegmentEntry>,
}

impl Manifest {
    /// Serialize with the trailing whole-file checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAN_MAGIC);
        out.push(MAN_VERSION);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.covered_t.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            // invariant: segment file names are short ASCII (45 bytes),
            // so the u16 length prefix cannot overflow.
            out.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
            out.extend_from_slice(e.name.as_bytes());
            out.extend_from_slice(&e.start_t.to_le_bytes());
            out.extend_from_slice(&e.end_t.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and verify a manifest. `file` names the source for error
    /// context. The whole-file checksum is checked first, so a manifest
    /// is either verified end-to-end or not used at all.
    pub fn decode(file: &str, bytes: &[u8]) -> Result<Manifest, StoreError> {
        let corrupt = |source| StoreError::Corrupt {
            file: file.to_owned(),
            source,
        };
        if bytes.len() < 4 {
            return Err(corrupt(CodecError::Truncated { offset: 0 }));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(CodecError::ChecksumMismatch {
                offset: body.len(),
                stored,
                computed,
            }));
        }
        let mut c = Cursor::new(body);
        let magic = c.take(4).map_err(corrupt)?;
        if magic != MAN_MAGIC {
            return Err(corrupt(CodecError::Invalid {
                what: "manifest magic",
                offset: 0,
            }));
        }
        let version = c.u8().map_err(corrupt)?;
        if version != MAN_VERSION {
            return Err(corrupt(CodecError::Invalid {
                what: "manifest version",
                offset: 4,
            }));
        }
        let seq = c.u64().map_err(corrupt)?;
        let covered_t = c.u64().map_err(corrupt)?;
        let count = c.u32().map_err(corrupt)? as usize;
        let mut entries = Vec::new();
        let mut prev_end = None;
        for _ in 0..count {
            let name_len = {
                let b = c.take(2).map_err(corrupt)?;
                u16::from_le_bytes(b.try_into().expect("2 bytes")) as usize
            };
            let name_at = c.offset();
            let name = std::str::from_utf8(c.take(name_len).map_err(corrupt)?)
                .map_err(|_| {
                    corrupt(CodecError::Invalid {
                        what: "manifest entry name",
                        offset: name_at,
                    })
                })?
                .to_owned();
            let start_t = c.u64().map_err(corrupt)?;
            let end_t = c.u64().map_err(corrupt)?;
            // Entries must name real segment files and chain: a manifest
            // violating that is not one we wrote.
            if segment::parse_segment_name(&name) != Some((start_t, end_t))
                || prev_end.is_some_and(|p| p != start_t)
            {
                return Err(corrupt(CodecError::Invalid {
                    what: "manifest entry chain",
                    offset: name_at,
                }));
            }
            prev_end = Some(end_t);
            entries.push(SegmentEntry {
                name,
                start_t,
                end_t,
            });
        }
        if !c.is_empty() {
            return Err(corrupt(CodecError::Invalid {
                what: "manifest trailing bytes",
                offset: c.offset(),
            }));
        }
        let m = Manifest {
            seq,
            covered_t,
            entries,
        };
        if m.covered_t != m.entries.last().map_or(0, |e| e.end_t) {
            return Err(corrupt(CodecError::Invalid {
                what: "manifest covered clock",
                offset: 13,
            }));
        }
        Ok(m)
    }
}

/// Atomically commit `manifest` to `dir` through the given fault domain,
/// then drop manifest generations beyond the newest [`KEPT_MANIFESTS`].
/// The rename inside [`io::write_atomic`] is the commit point: before it
/// the old manifest is truth, after it the new one is.
pub fn commit(faults: &IoFaults, dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    io::write_atomic(
        faults,
        dir,
        &manifest_name(manifest.seq),
        &manifest.encode(),
        "commit manifest",
    )?;
    let mut seqs = list_manifests(dir)?;
    seqs.sort_unstable();
    let drop_n = seqs.len().saturating_sub(KEPT_MANIFESTS);
    for seq in &seqs[..drop_n] {
        let _ = fs::remove_file(dir.join(manifest_name(*seq)));
    }
    Ok(())
}

/// Sequence numbers of every manifest file present in `dir`.
pub fn list_manifests(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir).map_err(StoreError::io("list store directory"))? {
        let entry = entry.map_err(StoreError::io("list store directory"))?;
        if let Some(seq) = parse_manifest_name(&entry.file_name().to_string_lossy()) {
            seqs.push(seq);
        }
    }
    Ok(seqs)
}

/// Load the newest manifest in `dir` that verifies, newest-first.
/// Returns the manifest (if any verified) and how many newer ones were
/// skipped as corrupt.
pub fn load_newest(dir: &Path) -> Result<(Option<Manifest>, usize), StoreError> {
    let mut seqs = list_manifests(dir)?;
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut skipped = 0;
    for seq in seqs {
        let name = manifest_name(seq);
        if let Ok(bytes) = fs::read(dir.join(&name)) {
            if let Ok(m) = Manifest::decode(&name, &bytes) {
                if m.seq == seq {
                    return Ok((Some(m), skipped));
                }
            }
        }
        skipped += 1;
    }
    Ok((None, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_name;
    use std::path::PathBuf;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            covered_t: 30,
            entries: vec![
                SegmentEntry {
                    name: segment_name(0, 20),
                    start_t: 0,
                    end_t: 20,
                },
                SegmentEntry {
                    name: segment_name(20, 30),
                    start_t: 20,
                    end_t: 30,
                },
            ],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-man-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn manifest_roundtrips() {
        let m = sample();
        assert_eq!(Manifest::decode("m", &m.encode()).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode("m", &empty.encode()).unwrap(), empty);
    }

    #[test]
    fn every_flip_and_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Manifest::decode("m", &bytes[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(Manifest::decode("m", &bad).is_err(), "flip {byte}.{bit}");
            }
        }
    }

    #[test]
    fn classify_names_every_store_file() {
        assert_eq!(classify("ckpt-00000000000000000010.ckpt"), None);
        assert_eq!(
            classify("wal-00000000000000000000.wal"),
            Some(StoreFile::Wal(0))
        );
        assert_eq!(
            classify(&segment_name(3, 9)),
            Some(StoreFile::Segment(3, 9))
        );
        assert_eq!(classify(&manifest_name(4)), Some(StoreFile::Manifest(4)));
        assert_eq!(classify("node-meta"), None);
        assert_eq!(classify(&format!("{}.tmp", manifest_name(4))), None);
    }

    #[test]
    fn commit_keeps_the_newest_two_and_load_skips_corrupt() {
        let dir = tmp("commit");
        let faults = IoFaults::none();
        for seq in 0..4 {
            let m = Manifest {
                seq,
                ..Manifest::default()
            };
            commit(&faults, &dir, &m).unwrap();
        }
        let mut seqs = list_manifests(&dir).unwrap();
        seqs.sort_unstable();
        assert_eq!(seqs, [2, 3]);

        // Corrupt the newest: load falls back to seq 2 and reports it.
        let mut bytes = fs::read(dir.join(manifest_name(3))).unwrap();
        bytes[5] ^= 0x10;
        fs::write(dir.join(manifest_name(3)), bytes).unwrap();
        let (m, skipped) = load_newest(&dir).unwrap();
        assert_eq!(m.unwrap().seq, 2);
        assert_eq!(skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
