//! The segment manifest — the commit point of the tiered store.
//!
//! A manifest is a small checksummed file naming the kept snapshot
//! segments in chronological order plus `covered_t`, the clock of the
//! newest: the arrivals durable as state whatever becomes of the WAL.
//! Every flush becomes visible by atomically writing `manifest-<seq+1>`
//! — fsync, rename, directory fsync — so at any crash instant there is a
//! complete old manifest or a complete new one, and any segment file not
//! named by the newest valid manifest is an orphan that `retire` (the
//! flusher's and recovery's retention pass) reclaims.
//!
//! ## Retention
//!
//! The newest [`KEPT_SNAPSHOTS`] segments stay, and so does every WAL
//! generation holding a row at or after the *older* one's clock
//! ([`Manifest::wal_floor`]): recovery falls back across a corrupt
//! newest snapshot onto the older one and replays exactly those rows.
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
/// Snapshot segments kept: the newest is the recovery base, the previous
/// one the fallback if the newest fails verification.
pub const KEPT_SNAPSHOTS: usize = 2;

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
    /// Equal to `end_t`: a snapshot segment carries no rows (the field
    /// is the byte format's, which predates snapshot-only segments).
    pub start_t: u64,
    /// Arrival clock of the segment's snapshot.
    pub end_t: u64,
}

impl SegmentEntry {
    /// The entry of the snapshot segment at clock `t`.
    pub fn snapshot_at(t: u64) -> SegmentEntry {
        SegmentEntry {
            name: segment::segment_name(t, t),
            start_t: t,
            end_t: t,
        }
    }
}

/// The live-segment list at one commit point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit sequence number.
    pub seq: u64,
    /// Arrivals durably captured by segments; the WAL owns `covered_t..`.
    pub covered_t: u64,
    /// Live segments, chronological (`entries[i].end_t <= entries[i+1].start_t`).
    pub entries: Vec<SegmentEntry>,
}

impl Manifest {
    /// The manifest after this one: the snapshot at `end_t` becomes the
    /// newest entry and all but the newest [`KEPT_SNAPSHOTS`] are dropped.
    pub fn advanced_to(&self, end_t: u64) -> Manifest {
        let mut entries = self.entries.clone();
        entries.push(SegmentEntry::snapshot_at(end_t));
        entries.drain(..entries.len().saturating_sub(KEPT_SNAPSHOTS));
        Manifest {
            seq: self.seq + 1,
            covered_t: end_t,
            entries,
        }
    }

    /// The clock from which WAL rows must stay on disk: the older kept
    /// snapshot's, or 0 while there is no snapshot to fall back on but
    /// the `wal-0` bootstrap.
    pub fn wal_floor(&self) -> u64 {
        if self.entries.len() < KEPT_SNAPSHOTS {
            0
        } else {
            self.entries[0].end_t
        }
    }

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
            // Entries must name real segment files in clock order: a
            // manifest violating that is not one we wrote.
            if segment::parse_segment_name(&name) != Some((start_t, end_t))
                || prev_end.is_some_and(|p| p > start_t)
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
/// The rename inside `io::write_atomic` is the commit point: before it
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

/// The retention pass, over one listing of `dir`: delete every segment
/// file `manifest` does not name and every WAL generation wholly below
/// [`Manifest::wal_floor`] (generation `b_i` holds no row at or after
/// the floor once the next base `b_(i+1) <= floor`; the newest never
/// qualifies). Only ever called after `manifest` is committed, so what
/// it deletes nothing can need again. Returns the files removed.
pub(crate) fn retire(dir: &Path, manifest: &Manifest) -> usize {
    let Ok(listing) = fs::read_dir(dir) else {
        return 0;
    };
    let mut doomed = Vec::new();
    let mut bases = Vec::new();
    for entry in listing.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        match classify(&name) {
            Some(StoreFile::Segment(..)) if manifest.entries.iter().all(|e| e.name != name) => {
                doomed.push(name);
            }
            Some(StoreFile::Wal(base)) => bases.push(base),
            _ => {}
        }
    }
    bases.sort_unstable();
    let floor = manifest.wal_floor();
    doomed.extend(
        bases
            .windows(2)
            .filter(|pair| pair[1] <= floor)
            .map(|pair| io::wal_name(pair[0])),
    );
    doomed
        .iter()
        .filter(|name| fs::remove_file(dir.join(name)).is_ok())
        .count()
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
            entries: vec![SegmentEntry::snapshot_at(20), SegmentEntry::snapshot_at(30)],
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
    fn advancing_keeps_the_newest_two_and_the_floor_follows_the_older() {
        let first = Manifest::default().advanced_to(8);
        assert_eq!((first.seq, first.covered_t, first.entries.len()), (1, 8, 1));
        // One snapshot has no fallback but the bootstrap: keep every row.
        assert_eq!(first.wal_floor(), 0);
        let third = first.advanced_to(16).advanced_to(24);
        assert_eq!(
            third.entries,
            [SegmentEntry::snapshot_at(16), SegmentEntry::snapshot_at(24)]
        );
        assert_eq!((third.seq, third.covered_t, third.wal_floor()), (3, 24, 16));
        assert_eq!(Manifest::decode("m", &third.encode()).unwrap(), third);
    }

    #[test]
    fn entries_out_of_clock_order_are_not_a_manifest_we_wrote() {
        let mut m = sample();
        m.entries.swap(0, 1);
        m.covered_t = 20;
        let err = Manifest::decode("m", &m.encode()).unwrap_err();
        assert!(err.to_string().contains("entry chain"), "{err}");
    }

    #[test]
    fn retire_drops_unnamed_segments_and_the_wal_behind_the_floor() {
        let dir = tmp("retire");
        let m = sample();
        let files = [
            segment_name(10, 10), // superseded
            segment_name(20, 20),
            segment_name(30, 30),
            io::wal_name(0),  // wholly below the floor (20)
            io::wal_name(10), // ends at 20: wholly below too
            io::wal_name(20),
            io::wal_name(30), // the live generation
            "node-meta".to_owned(),
        ];
        for f in &files {
            fs::write(dir.join(f), b"x").unwrap();
        }
        assert_eq!(retire(&dir, &m), 3);
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        let mut want = [&files[1..3], &files[5..]].concat();
        want.sort();
        assert_eq!(left, want);
        // A generation that spans the floor stays whole.
        fs::remove_file(dir.join(io::wal_name(20))).unwrap();
        fs::write(dir.join(io::wal_name(15)), b"x").unwrap();
        assert_eq!(retire(&dir, &m), 0);
        let _ = fs::remove_dir_all(&dir);
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
