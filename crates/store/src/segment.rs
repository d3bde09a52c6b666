//! Immutable checkpoint segments — the sorted-run tier of the store.
//!
//! A segment captures one frozen generation of arrivals: the raw rows
//! `[start_t, end_t)` plus a full [`StreamSet`] snapshot *at* `end_t`,
//! so every segment is simultaneously a replayable log slice and a
//! recovery base. Segments are written once by the background flusher
//! (or by compaction, merging several into one) and never modified.
//!
//! ## On-disk layout
//!
//! ```text
//! header   "SSEG" version  start_t end_t streams  rows  bloom_len snap_len  crc32
//!            4B      1B      8B     8B     8B      4B      4B        4B       4B
//! rows     crc32  row[0] .. row[streams-1]      (rows records, WAL framing)
//! bloom    crc32  bits                          (bloom_len bytes of bits)
//! snap     crc32  StreamSet::snapshot()         (snap_len bytes)
//! ```
//!
//! Every section length is in the checksummed header, so a truncation is
//! detected before any section is interpreted. The row records reuse the
//! WAL's per-record CRC framing, which gives segments the same
//! verified-prefix semantics: a torn or flipped row ends the replayable
//! prefix without poisoning what came before. The bloom filter indexes
//! which streams carry *any nonzero value* in this segment — a negative
//! answer proves the stream was silent for the whole span, and a corrupt
//! bloom section only degrades to "maybe", never to a wrong "silent". Its
//! one reader, the raw-row `history` read, is gone; the section stays
//! written and verified because dropping it is a format change.

use swat_tree::codec::{crc32, CodecError, Cursor};
use swat_tree::StreamSet;

use crate::error::StoreError;
use crate::wal;

/// First bytes of every segment file.
pub const SEG_MAGIC: &[u8; 4] = b"SSEG";
/// Current segment format version.
pub const SEG_VERSION: u8 = 1;
/// Serialized header size in bytes.
pub const SEG_HEADER_LEN: usize = 4 + 1 + 8 * 3 + 4 * 3 + 4;

/// Name of the segment covering arrivals `[start_t, end_t)`. Zero-padded
/// so lexicographic order is chronological.
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

/// The fixed-size checksummed header at the start of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// First arrival index the row section carries.
    pub start_t: u64,
    /// Arrival clock of the embedded snapshot; `end_t - start_t == rows`.
    pub end_t: u64,
    /// Streams per row.
    pub streams: u64,
    /// Records in the row section.
    pub rows: u32,
    /// Bytes of bloom bits.
    pub bloom_len: u32,
    /// Bytes of snapshot payload.
    pub snap_len: u32,
}

impl SegmentHeader {
    /// Serialize to the fixed [`SEG_HEADER_LEN`]-byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEG_HEADER_LEN);
        out.extend_from_slice(SEG_MAGIC);
        out.push(SEG_VERSION);
        for v in [self.start_t, self.end_t, self.streams] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [self.rows, self.bloom_len, self.snap_len] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), SEG_HEADER_LEN);
        out
    }

    /// Parse and verify a header from the start of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<SegmentHeader, CodecError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(4)?;
        if magic != SEG_MAGIC {
            return Err(CodecError::Invalid {
                what: "segment magic",
                offset: 0,
            });
        }
        let version = c.u8()?;
        if version != SEG_VERSION {
            return Err(CodecError::Invalid {
                what: "segment version",
                offset: 4,
            });
        }
        let start_t = c.u64()?;
        let end_t = c.u64()?;
        let streams = c.u64()?;
        let rows = c.u32()?;
        let bloom_len = c.u32()?;
        let snap_len = c.u32()?;
        let crc_at = c.offset();
        let stored = c.u32()?;
        let computed = crc32(&bytes[..crc_at]);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch {
                offset: crc_at,
                stored,
                computed,
            });
        }
        let h = SegmentHeader {
            start_t,
            end_t,
            streams,
            rows,
            bloom_len,
            snap_len,
        };
        // The header is internally consistent only if the spans agree;
        // a checksummed-but-nonsensical header is a file we never wrote.
        if h.streams == 0
            || h.streams > (u32::MAX / 8) as u64
            || h.end_t.checked_sub(h.start_t) != Some(u64::from(h.rows))
        {
            return Err(CodecError::Invalid {
                what: "segment span",
                offset: 5,
            });
        }
        Ok(h)
    }
}

/// A small bloom filter over stream indices that carry any nonzero value
/// within one segment.
///
/// False positives cost one wasted read; false negatives are impossible
/// by construction, so a "not present" answer is a proof the stream was
/// all-zero for the segment's whole span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamBloom {
    bits: Vec<u8>,
}

/// Hash functions per key; fixed so files stay self-describing.
const BLOOM_HASHES: u32 = 3;

impl StreamBloom {
    /// An empty filter sized for `streams` keys at ~10 bits/key (~1%
    /// false positives), minimum 8 bytes.
    pub fn sized_for(streams: usize) -> StreamBloom {
        let bytes = ((streams * 10).div_ceil(8)).max(8);
        StreamBloom {
            bits: vec![0; bytes],
        }
    }

    /// Wrap raw bits read back from a segment.
    pub fn from_bits(bits: Vec<u8>) -> StreamBloom {
        StreamBloom { bits }
    }

    /// The raw bits for serialization.
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }

    fn probes(&self, stream: u64) -> impl Iterator<Item = usize> + '_ {
        let nbits = (self.bits.len() * 8) as u64;
        (0..BLOOM_HASHES).map(move |i| {
            // splitmix64 over (stream, probe index): cheap, well-mixed,
            // and stable across platforms.
            let mut z = stream
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(i).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % nbits) as usize
        })
    }

    /// Record that `stream` carries a nonzero value.
    pub fn insert(&mut self, stream: usize) {
        let idx: Vec<usize> = self.probes(stream as u64).collect();
        for i in idx {
            self.bits[i / 8] |= 1 << (i % 8);
        }
    }

    /// Whether `stream` may carry a nonzero value (false ⇒ certainly
    /// all-zero in this segment).
    pub fn may_contain(&self, stream: usize) -> bool {
        if self.bits.is_empty() {
            return true; // degraded filter: never a wrong skip
        }
        self.probes(stream as u64)
            .all(|i| self.bits[i / 8] & (1 << (i % 8)) != 0)
    }
}

/// Serialize a segment: `rows` (flattened with stride `set.streams()`)
/// covering `[start_t, start_t + rows)`, plus a snapshot of `set`, whose
/// arrival clock must equal `end_t`.
pub fn encode(start_t: u64, rows: &[f64], set: &StreamSet) -> Vec<u8> {
    let streams = set.streams();
    debug_assert_eq!(rows.len() % streams, 0);
    let n_rows = rows.len() / streams;

    let mut bloom = StreamBloom::sized_for(streams);
    let snap = set.snapshot();
    let header = SegmentHeader {
        start_t,
        end_t: start_t + n_rows as u64,
        streams: streams as u64,
        rows: n_rows as u32,
        bloom_len: bloom.bits().len() as u32,
        snap_len: snap.len() as u32,
    };
    let mut out = header.encode();
    out.reserve(n_rows * wal::record_len(streams) + 4 + bloom.bits().len() + 4 + snap.len());
    // One flag per stream, ORed over each row as it is encoded, then one
    // insert per flagged stream: the same bits as an insert per non-zero
    // value.
    let mut nonzero = vec![false; streams];
    for row in rows.chunks_exact(streams) {
        wal::encode_record(&mut out, row);
        for (flag, &v) in nonzero.iter_mut().zip(row) {
            *flag |= v != 0.0;
        }
    }
    for (s, _) in nonzero.iter().enumerate().filter(|(_, &flag)| flag) {
        bloom.insert(s);
    }
    out.extend_from_slice(&crc32(bloom.bits()).to_le_bytes());
    out.extend_from_slice(bloom.bits());
    out.extend_from_slice(&crc32(&snap).to_le_bytes());
    out.extend_from_slice(&snap);
    out
}

/// A segment parsed far enough to know its sections' byte ranges; each
/// section is verified on demand so recovery can use a segment whose
/// snapshot survives even when its row section is torn (or vice versa).
#[derive(Debug)]
pub struct SegmentData<'a> {
    /// The verified header.
    pub header: SegmentHeader,
    bytes: &'a [u8],
    rows_at: usize,
    bloom_at: usize,
    snap_at: usize,
}

impl<'a> SegmentData<'a> {
    /// Verify the header of `bytes` and locate the sections. `file`
    /// names the source for error context.
    pub fn parse(file: &str, bytes: &'a [u8]) -> Result<SegmentData<'a>, StoreError> {
        let corrupt = |source| StoreError::Corrupt {
            file: file.to_owned(),
            source,
        };
        let header = SegmentHeader::decode(bytes).map_err(corrupt)?;
        let rows_at = SEG_HEADER_LEN;
        let rows_len = header.rows as usize * wal::record_len(header.streams as usize);
        let bloom_at = rows_at + rows_len;
        let snap_at = bloom_at + 4 + header.bloom_len as usize;
        Ok(SegmentData {
            header,
            bytes,
            rows_at,
            bloom_at,
            snap_at,
        })
    }

    /// The longest verified prefix of the row section, flattened with
    /// stride `streams`. A truncated file yields however many whole,
    /// checksummed records physically survive.
    pub fn rows(&self) -> wal::WalPrefix {
        let end = self.bloom_at.min(self.bytes.len());
        let body = &self.bytes[self.rows_at.min(end)..end];
        wal::scan_records(body, self.header.streams as usize)
    }

    /// Whether the row section is complete: every declared record
    /// verifies. Compaction and forward replay require this; recovery
    /// from the snapshot does not.
    pub fn rows_complete(&self) -> bool {
        self.rows().values.len() == self.header.rows as usize * self.header.streams as usize
    }

    /// The bloom filter, or a degraded always-positive filter when its
    /// section is torn or corrupt (a wrong *skip* is never possible).
    pub fn bloom(&self) -> StreamBloom {
        let start = self.bloom_at + 4;
        let end = start + self.header.bloom_len as usize;
        if end > self.bytes.len() {
            return StreamBloom::from_bits(Vec::new());
        }
        let stored = u32::from_le_bytes(
            self.bytes[self.bloom_at..self.bloom_at + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let bits = &self.bytes[start..end];
        if crc32(bits) != stored {
            return StreamBloom::from_bits(Vec::new());
        }
        StreamBloom::from_bits(bits.to_vec())
    }

    /// Verify and restore the embedded snapshot — the state at `end_t`.
    pub fn snapshot(&self, file: &str) -> Result<StreamSet, StoreError> {
        let corrupt = |source| StoreError::Corrupt {
            file: file.to_owned(),
            source,
        };
        let start = self.snap_at + 4;
        let end = start + self.header.snap_len as usize;
        if self.snap_at + 4 > self.bytes.len() || end > self.bytes.len() {
            return Err(corrupt(CodecError::Truncated {
                offset: self.bytes.len(),
            }));
        }
        let stored = u32::from_le_bytes(
            self.bytes[self.snap_at..self.snap_at + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let payload = &self.bytes[start..end];
        let computed = crc32(payload);
        if computed != stored {
            return Err(corrupt(CodecError::ChecksumMismatch {
                offset: self.snap_at,
                stored,
                computed,
            }));
        }
        let set = StreamSet::restore(payload).map_err(|source| StoreError::Snapshot {
            file: file.to_owned(),
            source,
        })?;
        if set.tree(0).arrivals() != self.header.end_t {
            return Err(corrupt(CodecError::Invalid {
                what: "segment snapshot clock",
                offset: self.snap_at,
            }));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_tree::SwatConfig;

    fn sample(rows_n: u64) -> (Vec<f64>, StreamSet) {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(16, 2).unwrap(), 3);
        let mut rows = Vec::new();
        for i in 0..rows_n {
            // Stream 2 stays silent so the bloom filter has something to prove.
            let row = [(i as f64 * 0.3).cos(), i as f64, 0.0];
            set.push_row(&row);
            rows.extend_from_slice(&row);
        }
        (rows, set)
    }

    #[test]
    fn names_roundtrip_and_sort_chronologically() {
        assert_eq!(parse_segment_name(&segment_name(5, 9)), Some((5, 9)));
        assert_eq!(parse_segment_name(&segment_name(0, 0)), Some((0, 0)));
        assert!(segment_name(9, 10) < segment_name(10, 20));
        assert_eq!(parse_segment_name("seg-5-9.seg"), None); // not padded
        assert_eq!(parse_segment_name("seg-x.seg"), None);
        let backwards = format!("seg-{:020}-{:020}.seg", 9, 5);
        assert_eq!(parse_segment_name(&backwards), None);
    }

    #[test]
    fn segment_roundtrips_rows_bloom_and_snapshot() {
        let (rows, set) = sample(24);
        let bytes = encode(0, &rows, &set);
        let seg = SegmentData::parse("seg", &bytes).unwrap();
        assert_eq!(seg.header.start_t, 0);
        assert_eq!(seg.header.end_t, 24);
        assert!(seg.rows_complete());
        assert_eq!(seg.rows().values, rows);
        let restored = seg.snapshot("seg").unwrap();
        assert_eq!(restored.answers_digest(), set.answers_digest());
        let bloom = seg.bloom();
        assert!(bloom.may_contain(0));
        assert!(bloom.may_contain(1));
        assert!(!bloom.may_contain(2), "silent stream must be skippable");
    }

    /// Bytes `encode` produced at the commit before the per-stream
    /// non-zero flags and the in-place record encoding (two streams, the
    /// second silent, rows 2..5 of five, window 4, one coefficient): the
    /// segment format, bloom bits included, has not moved.
    #[test]
    fn golden_segment_reencodes_byte_identically() {
        const GOLDEN: &str = concat!(
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
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let mut set = StreamSet::new(SwatConfig::with_coefficients(4, 1).unwrap(), 2);
        let mut rows = Vec::new();
        for i in 0..5u64 {
            let row = [(i as f64 * 0.3).cos(), 0.0];
            set.push_row(&row);
            if i >= 2 {
                rows.extend_from_slice(&row);
            }
        }
        assert_eq!(encode(2, &rows, &set), golden);
        let seg = SegmentData::parse("golden", &golden).unwrap();
        assert_eq!(seg.rows().values, rows);
        assert!(seg.bloom().may_contain(0) && !seg.bloom().may_contain(1));
        assert_eq!(
            seg.snapshot("golden").unwrap().answers_digest(),
            set.answers_digest()
        );
    }

    #[test]
    fn every_flip_is_rejected_or_prefix_consistent() {
        let (rows, set) = sample(6);
        let bytes = encode(0, &rows, &set);
        let reference = set.answers_digest();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let Ok(seg) = SegmentData::parse("seg", &bad) else {
                    continue; // typed rejection is fine
                };
                // Rows: any surviving prefix must be a true prefix.
                let p = seg.rows();
                assert!(
                    rows.starts_with(&p.values),
                    "flip {byte}.{bit} changed replayable rows"
                );
                // Snapshot: verified means identical.
                if let Ok(s) = seg.snapshot("seg") {
                    assert_eq!(s.answers_digest(), reference, "flip {byte}.{bit}");
                }
                // Bloom: never a wrong skip.
                let bloom = seg.bloom();
                assert!(bloom.may_contain(0) && bloom.may_contain(1));
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected_or_prefix_consistent() {
        let (rows, set) = sample(6);
        let bytes = encode(0, &rows, &set);
        for cut in 0..bytes.len() {
            let Ok(seg) = SegmentData::parse("seg", &bytes[..cut]) else {
                continue;
            };
            let p = seg.rows();
            assert!(rows.starts_with(&p.values), "cut {cut}");
            assert!(seg.snapshot("seg").is_err() || cut == bytes.len());
            assert!(seg.bloom().may_contain(0));
        }
    }

    #[test]
    fn snapshot_clock_mismatch_is_corrupt() {
        let (rows, set) = sample(8);
        // Claim the rows start at 100: end_t = 108 but the snapshot says 8.
        let bytes = encode(100, &rows, &set);
        let seg = SegmentData::parse("seg", &bytes).unwrap();
        let err = seg.snapshot("seg").unwrap_err();
        assert!(err.to_string().contains("snapshot clock"), "{err}");
    }
}
