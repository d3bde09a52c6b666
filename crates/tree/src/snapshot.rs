//! Checkpointing: serialize a tree's summaries to bytes and restore them.
//!
//! A SWAT is tiny (`O(k log N)` numbers), which makes checkpointing it
//! across process restarts — or shipping it to another site, as the
//! paper's distributed setting does with ranges — nearly free. Version 2
//! is the durable format: explicit little-endian, length-framed,
//! CRC32-checksummed sections ([`crate::codec`]) so that any bit flip or
//! truncation is detected and positioned, never silently restored:
//!
//! ```text
//! magic "SWAT"  u8 version = 2
//! section CONFIG    [u8 1][u32 len][u32 crc]  u64 window  u64 k  u64 min_level
//! section STATE     [u8 2][u32 len][u32 crc]  u64 t  u8 has_last [f64 last]
//! section SUMMARIES [u8 3][u32 len][u32 crc]  u64 count, then per summary:
//!                   u64 level  u64 created_at  f64 lo  f64 hi  u64 n_coeffs [f64...]
//! ```
//!
//! [`crate::continuous::ContinuousEngine`] snapshots append one more
//! section (`SUBS`, tag 4) carrying the standing-query table;
//! [`crate::multi::StreamSet`] snapshots wrap one framed tree snapshot
//! per stream under their own header. Version 2 is the only format:
//! version 1 (unframed, unchecksummed; nothing writes it) is rejected
//! as [`SnapshotError::BadVersion`] like any other unknown version, so
//! no parser runs over bytes no checksum vouches for.
//!
//! Restores validate structure exhaustively; a corrupted or truncated
//! buffer yields a [`SnapshotError`] carrying the byte offset of the
//! failure, never a panic. `tests/snapshot_fuzz.rs` flips and truncates
//! every byte of a reference snapshot to enforce exactly that.

use std::collections::VecDeque;
use std::fmt;

use crate::codec::{begin_frame, finish_frame, CodecError, Cursor};
use crate::config::SwatConfig;
use crate::node::Summary;
use crate::range::ValueRange;
use crate::tree::{SwatTree, TreeView};
use swat_wavelet::HaarCoeffs;

pub(crate) const MAGIC: &[u8; 4] = b"SWAT";
pub(crate) const VERSION: u8 = 2;

pub(crate) const SEC_CONFIG: u8 = 1;
pub(crate) const SEC_STATE: u8 = 2;
pub(crate) const SEC_SUMMARIES: u8 = 3;
pub(crate) const SEC_SUBS: u8 = 4;

/// Errors from [`SwatTree::restore`] and the other snapshot readers.
///
/// Every variant that concerns the buffer's content carries the byte
/// offset at which the problem was detected, so a corrupted checkpoint
/// can be localized rather than just rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The buffer ended at `offset` before the structure was complete.
    Truncated {
        /// Byte offset where more data was needed.
        offset: usize,
    },
    /// A field at `offset` failed validation (window not a power of two,
    /// coefficient counts inconsistent, non-finite values, …).
    Invalid {
        /// What failed validation.
        what: &'static str,
        /// Byte offset of the offending field.
        offset: usize,
    },
    /// A checksummed section did not match its stored CRC-32.
    ChecksumMismatch {
        /// Byte offset of the section payload.
        offset: usize,
        /// Checksum stored in the section header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a SWAT snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::Invalid { what, offset } => {
                write!(f, "invalid snapshot at byte {offset}: {what}")
            }
            SnapshotError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "snapshot checksum mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { offset } => SnapshotError::Truncated { offset },
            CodecError::Invalid { what, offset } => SnapshotError::Invalid { what, offset },
            CodecError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => SnapshotError::ChecksumMismatch {
                offset,
                stored,
                computed,
            },
        }
    }
}

/// Write the shared tree body — magic, version, and the CONFIG / STATE /
/// SUMMARIES sections — used by plain tree snapshots and (with a SUBS
/// section appended) continuous-engine snapshots.
pub(crate) fn write_tree_body(tree: TreeView<'_>, out: &mut Vec<u8>) {
    out.extend_from_slice(MAGIC);
    out.push(VERSION);

    let sec = begin_frame(out, SEC_CONFIG);
    out.extend_from_slice(&(tree.config().window() as u64).to_le_bytes());
    out.extend_from_slice(&(tree.config().coefficients() as u64).to_le_bytes());
    out.extend_from_slice(&(tree.config().min_level() as u64).to_le_bytes());
    finish_frame(out, sec);

    let sec = begin_frame(out, SEC_STATE);
    out.extend_from_slice(&tree.arrivals().to_le_bytes());
    match tree.newest() {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
    finish_frame(out, sec);

    let sec = begin_frame(out, SEC_SUMMARIES);
    out.extend_from_slice(&(tree.summary_count() as u64).to_le_bytes());
    // Summaries in query order (levels ascending, newest first): the
    // restore path rebuilds each level queue in that order. Read from the
    // header and the lane's rows in place.
    let head = tree.head;
    for (level, _, id) in head.nodes() {
        let slot = head.slots[id];
        let at = slot.at as usize;
        out.extend_from_slice(&(level as u64).to_le_bytes());
        out.extend_from_slice(&slot.created_at.to_le_bytes());
        out.extend_from_slice(&tree.row(at).to_le_bytes());
        out.extend_from_slice(&tree.row(at + 1).to_le_bytes());
        out.extend_from_slice(&u64::from(slot.stored).to_le_bytes());
        for j in 0..slot.stored as usize {
            out.extend_from_slice(&tree.row(at + 2 + j).to_le_bytes());
        }
    }
    finish_frame(out, sec);
}

/// Read a section frame and check its tag.
fn expect_section<'a>(
    c: &mut Cursor<'a>,
    want: u8,
    what: &'static str,
) -> Result<Cursor<'a>, SnapshotError> {
    let at = c.offset();
    let (tag, payload) = c.frame()?;
    if tag != want {
        return Err(SnapshotError::Invalid { what, offset: at });
    }
    Ok(payload)
}

/// Parse the shared tree body (magic, version, CONFIG / STATE /
/// SUMMARIES) from `c`, leaving the cursor positioned after the
/// SUMMARIES section.
pub(crate) fn parse_tree_body(c: &mut Cursor<'_>) -> Result<SwatTree, SnapshotError> {
    if c.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }

    let mut sec = expect_section(c, SEC_CONFIG, "expected CONFIG section")?;
    let config_at = sec.offset();
    let window = sec.u64()? as usize;
    let k = sec.u64()? as usize;
    let min_level = sec.u64()? as usize;
    let config = SwatConfig::with_coefficients(window, k)
        .and_then(|cfg| cfg.with_min_level(min_level))
        .map_err(|_| SnapshotError::Invalid {
            what: "bad window/coefficient/min-level config",
            offset: config_at,
        })?;
    if !sec.is_empty() {
        return Err(SnapshotError::Invalid {
            what: "oversized CONFIG section",
            offset: sec.offset(),
        });
    }

    let mut sec = expect_section(c, SEC_STATE, "expected STATE section")?;
    let t = sec.u64()?;
    let last = match sec.u8()? {
        0 => None,
        1 => Some(sec.f64()?),
        _ => {
            return Err(SnapshotError::Invalid {
                what: "bad last-value tag",
                offset: sec.offset() - 1,
            })
        }
    };
    if !sec.is_empty() {
        return Err(SnapshotError::Invalid {
            what: "oversized STATE section",
            offset: sec.offset(),
        });
    }

    let mut sec = expect_section(c, SEC_SUMMARIES, "expected SUMMARIES section")?;
    let count_at = sec.offset();
    let count = sec.u64()? as usize;
    let queues = read_summaries(&mut sec, &config, t, count, count_at)?;
    if !sec.is_empty() {
        return Err(SnapshotError::Invalid {
            what: "oversized SUMMARIES section",
            offset: sec.offset(),
        });
    }

    SwatTree::from_restored(config, t, last, queues).map_err(|_| SnapshotError::Invalid {
        what: "inconsistent structure",
        offset: count_at,
    })
}

/// Read `count` serialized summaries into per-level queues, validating
/// every structural invariant the tree maintains.
fn read_summaries(
    c: &mut Cursor<'_>,
    config: &SwatConfig,
    t: u64,
    count: usize,
    count_at: usize,
) -> Result<Vec<VecDeque<Summary>>, SnapshotError> {
    let levels = config.levels();
    let k = config.coefficients();
    if count > 3 * levels {
        return Err(SnapshotError::Invalid {
            what: "too many summaries",
            offset: count_at,
        });
    }
    let mut queues: Vec<VecDeque<Summary>> = vec![VecDeque::new(); levels];
    for _ in 0..count {
        let level_at = c.offset();
        let level = c.u64()? as usize;
        if level >= levels {
            return Err(SnapshotError::Invalid {
                what: "summary level out of range",
                offset: level_at,
            });
        }
        let created_at_at = c.offset();
        let created_at = c.u64()?;
        if created_at > t {
            return Err(SnapshotError::Invalid {
                what: "summary from the future",
                offset: created_at_at,
            });
        }
        let range_at = c.offset();
        let lo = c.f64()?;
        let hi = c.f64()?;
        if lo > hi {
            return Err(SnapshotError::Invalid {
                what: "inverted range",
                offset: range_at,
            });
        }
        let n_at = c.offset();
        let n_coeffs = c.u64()? as usize;
        let width = 1usize << (level + 1);
        if n_coeffs == 0 || n_coeffs > width.min(k) {
            return Err(SnapshotError::Invalid {
                what: "bad coefficient count",
                offset: n_at,
            });
        }
        let mut coeffs = Vec::with_capacity(n_coeffs);
        for _ in 0..n_coeffs {
            coeffs.push(c.f64()?);
        }
        let coeffs = HaarCoeffs::from_parts(width, coeffs).map_err(|_| SnapshotError::Invalid {
            what: "bad coefficient vector",
            offset: n_at,
        })?;
        let cap = if level + 1 == levels { 1 } else { 3 };
        let queue = &mut queues[level];
        if queue.len() == cap {
            return Err(SnapshotError::Invalid {
                what: "level over capacity",
                offset: level_at,
            });
        }
        // Written newest-first; appending preserves the order.
        if let Some(prev) = queue.back() {
            if prev.created_at() <= created_at {
                return Err(SnapshotError::Invalid {
                    what: "summaries out of order",
                    offset: created_at_at,
                });
            }
        }
        queue.push_back(Summary::new(
            coeffs,
            ValueRange::new(lo, hi),
            created_at,
            level,
        ));
    }
    Ok(queues)
}

impl TreeView<'_> {
    /// Serialize the tree's complete state (format version 2: checksummed
    /// framed sections; see the module docs).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.summary_count() * 64);
        write_tree_body(*self, &mut out);
        out
    }
}

impl SwatTree {
    /// Rebuild a tree from [`SwatTree::snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn restore(bytes: &[u8]) -> Result<SwatTree, SnapshotError> {
        let mut c = Cursor::new(bytes);
        let tree = parse_tree_body(&mut c)?;
        if !c.is_empty() {
            // A continuous-engine snapshot carries a subscription section
            // after the tree body; a plain tree restore must not silently
            // drop it.
            let at = c.offset();
            let mut peek = Cursor::new(&[]);
            std::mem::swap(&mut peek, &mut c);
            let what = match peek.frame() {
                Ok((SEC_SUBS, _)) => "subscriptions present (use ContinuousEngine::restore)",
                _ => "trailing bytes",
            };
            return Err(SnapshotError::Invalid { what, offset: at });
        }
        Ok(tree)
    }
}

/// Round-trip helper used by tests: snapshot then restore must preserve
/// observable behavior.
pub fn roundtrip(tree: &SwatTree) -> Result<SwatTree, SnapshotError> {
    SwatTree::restore(&tree.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::InnerProductQuery;
    use crate::tree::SwatTree;

    fn sample_tree(n: usize, k: usize, arrivals: usize) -> SwatTree {
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(n, k).unwrap());
        tree.extend((0..arrivals).map(|i| ((i * 13) % 59) as f64));
        tree
    }

    /// The v1 writer (unframed, unchecksummed), frozen here byte for
    /// byte so its rejection stays testable.
    fn v1_snapshot(tree: &SwatTree) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(1);
        out.extend_from_slice(&(tree.config().window() as u64).to_le_bytes());
        out.extend_from_slice(&(tree.config().coefficients() as u64).to_le_bytes());
        out.extend_from_slice(&tree.arrivals().to_le_bytes());
        match tree.newest() {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(tree.summary_count() as u64).to_le_bytes());
        for (level, _, s) in tree.nodes() {
            out.extend_from_slice(&(level as u64).to_le_bytes());
            out.extend_from_slice(&s.created_at().to_le_bytes());
            out.extend_from_slice(&s.range().lo().to_le_bytes());
            out.extend_from_slice(&s.range().hi().to_le_bytes());
            let coeffs = s.coeffs().coefficients();
            out.extend_from_slice(&(coeffs.len() as u64).to_le_bytes());
            for c in coeffs {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn roundtrip_preserves_answers() {
        for (n, k, arrivals) in [(16, 1, 40), (64, 4, 200), (32, 32, 100)] {
            let tree = sample_tree(n, k, arrivals);
            let restored = roundtrip(&tree).unwrap();
            assert_eq!(restored.arrivals(), tree.arrivals());
            assert_eq!(restored.summary_count(), tree.summary_count());
            assert_eq!(restored.answers_digest(), tree.answers_digest());
            for idx in 0..n {
                let a = tree.point(idx).unwrap();
                let b = restored.point(idx).unwrap();
                assert_eq!(a, b, "n={n} k={k} idx={idx}");
            }
            let q = InnerProductQuery::exponential(n / 2, 1e9);
            assert_eq!(
                tree.inner_product(&q).unwrap(),
                restored.inner_product(&q).unwrap()
            );
        }
    }

    #[test]
    fn roundtrip_preserves_reduced_level_answers() {
        // The satellite fix: min_level is part of the configuration and
        // must survive the round trip, so a restored tree answers its
        // default queries identically in reduced-level mode.
        let config = SwatConfig::new(64).unwrap().with_min_level(3).unwrap();
        let mut tree = SwatTree::new(config);
        tree.extend((0..300).map(|i| ((i * 7) % 31) as f64));
        let restored = roundtrip(&tree).unwrap();
        assert_eq!(restored.config(), tree.config());
        assert_eq!(restored.config().min_level(), 3);
        assert_eq!(restored.answers_digest(), tree.answers_digest());
        for idx in 0..64 {
            assert_eq!(tree.point(idx).unwrap(), restored.point(idx).unwrap());
        }
    }

    #[test]
    fn restored_tree_keeps_streaming_identically() {
        let mut original = sample_tree(32, 2, 150);
        let mut restored = roundtrip(&original).unwrap();
        for i in 0..100 {
            let v = ((i * 31) % 41) as f64;
            original.push(v);
            restored.push(v);
        }
        for idx in 0..32 {
            assert_eq!(original.point(idx).unwrap(), restored.point(idx).unwrap());
        }
        assert_eq!(original.answers_digest(), restored.answers_digest());
    }

    #[test]
    fn empty_and_single_value_trees_roundtrip() {
        let tree = SwatTree::new(SwatConfig::new(16).unwrap());
        let restored = roundtrip(&tree).unwrap();
        assert_eq!(restored.arrivals(), 0);
        assert_eq!(restored.summary_count(), 0);

        let mut tree = SwatTree::new(SwatConfig::new(16).unwrap());
        tree.push(7.5);
        let restored = roundtrip(&tree).unwrap();
        assert_eq!(restored.newest(), Some(7.5));
        assert_eq!(restored.arrivals(), 1);
    }

    #[test]
    fn v1_snapshots_are_rejected_by_version() {
        // A well-formed v1 buffer is refused at the version byte — the
        // unchecksummed body is never parsed, let alone restored.
        for (n, k, arrivals) in [(16, 1, 0), (16, 1, 40), (64, 4, 200)] {
            let bytes = v1_snapshot(&sample_tree(n, k, arrivals));
            for cut in 5..=bytes.len() {
                assert_eq!(
                    SwatTree::restore(&bytes[..cut]).unwrap_err(),
                    SnapshotError::BadVersion(1)
                );
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            SwatTree::restore(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            SwatTree::restore(b"no").unwrap_err(),
            SnapshotError::Truncated { offset: 0 }
        );
        assert_eq!(
            SwatTree::restore(b"BLOBxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut bytes = sample_tree(16, 1, 40).snapshot();
        bytes[4] = 99; // version
        assert_eq!(
            SwatTree::restore(&bytes).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    #[test]
    fn rejects_truncation_anywhere_with_positions() {
        let bytes = sample_tree(16, 1, 40).snapshot();
        // Chopping the buffer at any point must fail cleanly, never
        // panic, and the reported offset must sit within the cut.
        for cut in 0..bytes.len() {
            match SwatTree::restore(&bytes[..cut]) {
                Err(SnapshotError::Truncated { offset }) => {
                    assert!(offset <= cut, "cut {cut} reported offset {offset}")
                }
                Err(_) => {}
                Ok(_) => panic!("cut at {cut} unexpectedly succeeded"),
            }
        }
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let bytes = sample_tree(16, 2, 40).snapshot();
        let digest = sample_tree(16, 2, 40).answers_digest();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                // Every section is checksummed and the prelude is
                // magic/version, so no flip may restore differently.
                if let Ok(t) = SwatTree::restore(&bad) {
                    assert_eq!(
                        t.answers_digest(),
                        digest,
                        "flip at {byte}.{bit} silently changed the tree"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = sample_tree(16, 1, 40).snapshot();
        let at = bytes.len();
        bytes.push(0);
        assert_eq!(
            SwatTree::restore(&bytes).unwrap_err(),
            SnapshotError::Invalid {
                what: "trailing bytes",
                offset: at
            }
        );
    }

    #[test]
    fn checksum_mismatch_is_positioned() {
        let mut bytes = sample_tree(16, 1, 40).snapshot();
        // Flip a bit inside the CONFIG payload (header is 4 + 1, frame
        // header is 1 + 4 + 4, so the payload starts at 14).
        bytes[14] ^= 0x01;
        match SwatTree::restore(&bytes).unwrap_err() {
            SnapshotError::ChecksumMismatch { offset, .. } => assert_eq!(offset, 14),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn snapshot_is_small() {
        let tree = sample_tree(1 << 14, 1, 40_000);
        let bytes = tree.snapshot();
        // O(log N) summaries, tens of bytes each.
        assert!(bytes.len() < 4096, "snapshot is {} bytes", bytes.len());
    }

    #[test]
    fn errors_display() {
        for e in [
            SnapshotError::BadMagic,
            SnapshotError::BadVersion(3),
            SnapshotError::Truncated { offset: 12 },
            SnapshotError::Invalid {
                what: "x",
                offset: 3,
            },
            SnapshotError::ChecksumMismatch {
                offset: 9,
                stored: 1,
                computed: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
