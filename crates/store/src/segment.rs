//! Immutable snapshot segments — the recovery bases of the store.
//!
//! A segment is the checksummed [`StreamSet`] snapshot at one arrival
//! clock and nothing else: the paper's point (§2.3, §2.7) is that a
//! stream's past *is* its `3 log N − 2` summaries, so the historical
//! tier holds synopses; raw rows live once, in the WAL generations the
//! store retains behind its oldest kept segment. A segment is encoded by
//! the ingest thread at a freeze boundary, written once by the
//! background flusher (or by recovery, at the recovered clock) and never
//! modified.
//!
//! ## On-disk layout (SWSG v2)
//!
//! ```text
//! header   "SSEG" version=2  end_t  snap_len  snap_crc32  header_crc32
//!            4B      1B       8B       8B         4B           4B
//! snap     StreamSet::snapshot()                  (snap_len bytes, to EOF)
//! ```
//!
//! The header checksum covers every header byte before it, so the
//! payload's length and checksum are trusted before the payload is read;
//! a file that is shorter *or longer* than the header declares is
//! corrupt. Version 1 (rows + bloom + snapshot; nothing writes it) is
//! rejected as [`SnapshotError::BadVersion`] on the fifth byte, before
//! any of its sections could be parsed.

use swat_tree::codec::{crc32, CodecError, Cursor};
use swat_tree::{SnapshotError, StreamSet};

use crate::error::StoreError;

/// First bytes of every segment file.
pub const SEG_MAGIC: &[u8; 4] = b"SSEG";
/// Current segment format version.
pub const SEG_VERSION: u8 = 2;
/// Serialized header size in bytes.
pub const SEG_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4 + 4;

/// Name of the segment the manifest lists as `[start_t, end_t)`; a
/// snapshot segment at clock `t` is `segment_name(t, t)`. Zero-padded so
/// lexicographic order is chronological.
pub fn segment_name(start_t: u64, end_t: u64) -> String {
    format!("seg-{start_t:020}-{end_t:020}.seg")
}

/// Parse `(start_t, end_t)` back out of a [`segment_name`].
pub fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if rest.len() != 41 || rest.as_bytes()[20] != b'-' {
        return None;
    }
    let (start, end) = (&rest[..20], &rest[21..]);
    if !start.bytes().all(|b| b.is_ascii_digit()) || !end.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (s, e) = (start.parse().ok()?, end.parse().ok()?);
    if s > e {
        return None;
    }
    Some((s, e))
}

/// Overwrite `out` with the segment of `set` at its current clock. The
/// snapshot is written in place behind a reserved header, so a recycled
/// buffer of the right capacity makes this allocation-free.
pub fn encode_into(out: &mut Vec<u8>, set: &StreamSet) {
    out.clear();
    out.resize(SEG_HEADER_LEN, 0);
    set.snapshot_into(out);
    let (header, snap) = out.split_at_mut(SEG_HEADER_LEN);
    header[..4].copy_from_slice(SEG_MAGIC);
    header[4] = SEG_VERSION;
    header[5..13].copy_from_slice(&set.tree(0).arrivals().to_le_bytes());
    header[13..21].copy_from_slice(&(snap.len() as u64).to_le_bytes());
    header[21..25].copy_from_slice(&crc32(snap).to_le_bytes());
    let crc = crc32(&header[..25]);
    header[25..].copy_from_slice(&crc.to_le_bytes());
}

/// [`encode_into`] a fresh buffer.
pub fn encode(set: &StreamSet) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(&mut out, set);
    out
}

/// Verify `bytes` end to end and restore the state they hold, which must
/// be the state at clock `end_t` (the clock the manifest entry or the
/// file name promises). `file` names the source for error context.
pub fn decode(file: &str, bytes: &[u8], end_t: u64) -> Result<StreamSet, StoreError> {
    let corrupt = |source| StoreError::Corrupt {
        file: file.to_owned(),
        source,
    };
    let snapshot = |source| StoreError::Snapshot {
        file: file.to_owned(),
        source,
    };
    let mut c = Cursor::new(bytes);
    if c.take(4).map_err(corrupt)? != SEG_MAGIC {
        return Err(snapshot(SnapshotError::BadMagic));
    }
    let version = c.u8().map_err(corrupt)?;
    if version != SEG_VERSION {
        return Err(snapshot(SnapshotError::BadVersion(version)));
    }
    let clock = c.u64().map_err(corrupt)?;
    let snap_len = c.u64().map_err(corrupt)?;
    let snap_crc = c.u32().map_err(corrupt)?;
    let crc_at = c.offset();
    let stored = c.u32().map_err(corrupt)?;
    let computed = crc32(&bytes[..crc_at]);
    if stored != computed {
        return Err(corrupt(CodecError::ChecksumMismatch {
            offset: crc_at,
            stored,
            computed,
        }));
    }
    let snap = &bytes[SEG_HEADER_LEN..];
    if (snap.len() as u64) < snap_len {
        return Err(corrupt(CodecError::Truncated {
            offset: bytes.len(),
        }));
    }
    if snap.len() as u64 > snap_len {
        return Err(corrupt(CodecError::Invalid {
            what: "segment trailing bytes",
            offset: SEG_HEADER_LEN + snap_len as usize,
        }));
    }
    let computed = crc32(snap);
    if computed != snap_crc {
        return Err(corrupt(CodecError::ChecksumMismatch {
            offset: SEG_HEADER_LEN,
            stored: snap_crc,
            computed,
        }));
    }
    let set = StreamSet::restore(snap).map_err(snapshot)?;
    if clock != end_t || set.streams() == 0 || set.tree(0).arrivals() != clock {
        return Err(corrupt(CodecError::Invalid {
            what: "segment snapshot clock",
            offset: 5,
        }));
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_tree::SwatConfig;

    fn sample(rows_n: u64) -> StreamSet {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(16, 2).unwrap(), 3);
        for i in 0..rows_n {
            set.push_row(&[(i as f64 * 0.3).cos(), i as f64, 0.0]);
        }
        set
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn names_roundtrip_and_sort_chronologically() {
        assert_eq!(parse_segment_name(&segment_name(5, 9)), Some((5, 9)));
        assert_eq!(parse_segment_name(&segment_name(0, 0)), Some((0, 0)));
        assert!(segment_name(9, 9) < segment_name(10, 10));
        assert_eq!(parse_segment_name("seg-5-9.seg"), None); // not padded
        assert_eq!(parse_segment_name("seg-x.seg"), None);
        let backwards = format!("seg-{:020}-{:020}.seg", 9, 5);
        assert_eq!(parse_segment_name(&backwards), None);
    }

    #[test]
    fn segment_roundtrips_the_snapshot_into_a_recycled_buffer() {
        let set = sample(24);
        let mut buf = vec![0xAB; 7]; // whatever the last segment left
        encode_into(&mut buf, &set);
        assert_eq!(buf, encode(&set));
        assert_eq!(&buf[SEG_HEADER_LEN..], set.snapshot());
        let restored = decode("seg", &buf, 24).unwrap();
        assert_eq!(restored.answers_digest(), set.answers_digest());
    }

    /// SWSG v2 as this commit writes it (two streams, the second silent,
    /// five rows, window 4, one coefficient): recorded on purpose when
    /// the row and bloom sections were dropped from the format.
    #[test]
    fn golden_segment_reencodes_byte_identically() {
        const GOLDEN: &str = concat!(
            "53534547020500000000000000590200000000000050730d200be8492a53574d",
            "5302040000000000000001000000000000000000000000000000020000000000",
            "000005110100004805eb9f53574154020118000000eec5af6404000000000000",
            "000100000000000000000000000000000002110000000dc75901050000000000",
            "000001d4793b94de30d73f03c8000000d7f5bc48040000000000000000000000",
            "000000000500000000000000d4793b94de30d73f1de292963ae4e33f01000000",
            "00000000079fb0e0a97cdf3f000000000000000004000000000000001de29296",
            "3ae4e33f155b483c2669ea3f0100000000000000999e6d69b026e73f00000000",
            "000000000300000000000000155b483c2669ea3fba092fd41d92ee3f01000000",
            "0000000068b23b08a27dec3f010000000000000004000000000000001de29296",
            "3ae4e33f000000000000f03f0100000000000000bb91c2a9df37eb3f05110100",
            "001eb51ffd53574154020118000000eec5af6404000000000000000100000000",
            "0000000000000000000000021100000072093a2a050000000000000001000000",
            "000000000003c8000000cac8fab7040000000000000000000000000000000500",
            "0000000000000000000000000000000000000000000001000000000000000000",
            "0000000000000000000000000000040000000000000000000000000000000000",
            "0000000000000100000000000000000000000000000000000000000000000300",
            "0000000000000000000000000000000000000000000001000000000000000000",
            "0000000000000100000000000000040000000000000000000000000000000000",
            "00000000000001000000000000000000000000000000",
        );
        let golden = unhex(GOLDEN);
        let mut set = StreamSet::new(SwatConfig::with_coefficients(4, 1).unwrap(), 2);
        for i in 0..5u64 {
            set.push_row(&[(i as f64 * 0.3).cos(), 0.0]);
        }
        assert_eq!(encode(&set), golden);
        assert_eq!(
            decode("golden", &golden, 5).unwrap().answers_digest(),
            set.answers_digest()
        );
    }

    /// The v1 segment the previous commit pinned as its golden bytes
    /// (rows 2..5 + bloom + snapshot): refused on its version byte, with
    /// every cut of it refused the same way — no v1 section is ever read.
    #[test]
    fn v1_segments_are_rejected_by_version() {
        const V1: &str = concat!(
            "5353454701020000000000000005000000000000000200000000000000030000",
            "000800000059020000e06695bd1c1356c2155b483c2669ea3f00000000000000",
            "0059cf61531de292963ae4e33f00000000000000005e4f983dd4793b94de30d7",
            "3f0000000000000000a063894b010040008000000050730d2053574d53020400",
            "0000000000000100000000000000000000000000000002000000000000000511",
            "0100004805eb9f53574154020118000000eec5af640400000000000000010000",
            "0000000000000000000000000002110000000dc75901050000000000000001d4",
            "793b94de30d73f03c8000000d7f5bc4804000000000000000000000000000000",
            "0500000000000000d4793b94de30d73f1de292963ae4e33f0100000000000000",
            "079fb0e0a97cdf3f000000000000000004000000000000001de292963ae4e33f",
            "155b483c2669ea3f0100000000000000999e6d69b026e73f0000000000000000",
            "0300000000000000155b483c2669ea3fba092fd41d92ee3f0100000000000000",
            "68b23b08a27dec3f010000000000000004000000000000001de292963ae4e33f",
            "000000000000f03f0100000000000000bb91c2a9df37eb3f05110100001eb51f",
            "fd53574154020118000000eec5af640400000000000000010000000000000000",
            "00000000000000021100000072093a2a05000000000000000100000000000000",
            "0003c8000000cac8fab704000000000000000000000000000000050000000000",
            "0000000000000000000000000000000000000100000000000000000000000000",
            "0000000000000000000004000000000000000000000000000000000000000000",
            "0000010000000000000000000000000000000000000000000000030000000000",
            "0000000000000000000000000000000000000100000000000000000000000000",
            "0000010000000000000004000000000000000000000000000000000000000000",
            "000001000000000000000000000000000000",
        );
        let v1 = unhex(V1);
        for cut in 5..=v1.len() {
            let err = decode("v1", &v1[..cut], 5).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Snapshot {
                        source: SnapshotError::BadVersion(1),
                        ..
                    }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_flip_and_truncation_is_rejected() {
        let set = sample(6);
        let bytes = encode(&set);
        for cut in 0..bytes.len() {
            decode("seg", &bytes[..cut], 6).unwrap_err();
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                decode("seg", &bad, 6).unwrap_err();
            }
        }
        let mut long = bytes.clone();
        long.push(0);
        let err = decode("seg", &long, 6).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn snapshot_clock_mismatch_is_corrupt() {
        let bytes = encode(&sample(8));
        // The manifest promised the state at 108; the file holds it at 8.
        let err = decode("seg", &bytes, 108).unwrap_err();
        assert!(err.to_string().contains("snapshot clock"), "{err}");
    }
}
