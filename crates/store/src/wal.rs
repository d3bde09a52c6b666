//! The write-ahead log format.
//!
//! Every arrival row is persisted as one fixed-size record **before** the
//! process can acknowledge it, so a crash loses at most what the kernel
//! had not yet reached disk with — and a crash mid-write leaves a *torn*
//! record whose checksum cannot verify. Recovery therefore reads the
//! longest verified prefix and drops the tail, never guessing.
//!
//! ## On-disk layout (version 2)
//!
//! ```text
//! header  "SWAL" version  base_t  window  k  min_level  streams  crc32
//!           4B      1B      8B      8B    8B     8B        8B     4B
//! record  check  row[0] .. row[streams-1]        (repeated to EOF)
//!           4B     8B each, f64 little-endian bits
//! ```
//!
//! The header checksum covers every header byte before it. A record's
//! `check` is `crc32(row bytes) ^ salt(base_t)` ([`record_salt`]): the
//! checksum of the row, bound to the generation it was written for. The
//! store recycles a retired generation's file as the next live one and
//! overwrites it from offset 0, so past the live tail the file still
//! holds whole records of an older generation; bound to another base,
//! they fail the check and end the verified prefix like a torn tail.
//! Version 1 (plain `crc32(row bytes)`) is refused by version, never
//! replayed: its records could verify in any generation.
//!
//! `base_t` is the number of arrivals already captured by the checkpoint
//! this log extends, which lets recovery chain log generations: replaying
//! `wal-<t>` completely lands exactly on the `base_t` of the next
//! generation.
//!
//! The header repeats the tree configuration so an empty store (no
//! checkpoint written yet) is still recoverable from `wal-0` alone.

use std::io::Read;

use swat_tree::codec::{crc32, CodecError, Cursor};
use swat_tree::SwatConfig;

/// First bytes of every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"SWAL";
/// Current WAL format version.
pub const WAL_VERSION: u8 = 2;
/// Serialized header size in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 8 * 5 + 4;

/// Why the bytes at the start of a WAL file are not a usable header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// Truncated, not a WAL, or failing its checksum: recovery drops the
    /// generation as a torn or corrupt file.
    Corrupt(CodecError),
    /// A header that verifies, of a format version this reader does not
    /// replay: recovery refuses the store rather than drop acked rows.
    Version(u8),
}

impl From<CodecError> for HeaderError {
    fn from(e: CodecError) -> HeaderError {
        HeaderError::Corrupt(e)
    }
}

/// The fixed-size header at the start of a WAL file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Arrivals already captured by the checkpoint this log extends.
    pub base_t: u64,
    /// Sliding-window size `N` of the summarized trees.
    pub window: u64,
    /// Coefficients retained per summary.
    pub k: u64,
    /// Reduced-resolution floor (§2.5) the trees were configured with.
    pub min_level: u64,
    /// Streams per row.
    pub streams: u64,
}

impl WalHeader {
    /// Capture the identity of a live store.
    pub fn describe(config: &SwatConfig, streams: usize, base_t: u64) -> WalHeader {
        WalHeader {
            base_t,
            window: config.window() as u64,
            k: config.coefficients() as u64,
            min_level: config.min_level() as u64,
            streams: streams as u64,
        }
    }

    /// Serialize to the fixed [`HEADER_LEN`]-byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(WAL_MAGIC);
        out.push(WAL_VERSION);
        for v in [
            self.base_t,
            self.window,
            self.k,
            self.min_level,
            self.streams,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), HEADER_LEN);
        out
    }

    /// Parse and verify a header from the start of `bytes`. The checksum
    /// is checked before the version, so a version is only ever reported
    /// for a header that verifies: a flipped version byte is corruption.
    pub fn decode(bytes: &[u8]) -> Result<WalHeader, HeaderError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(4)?;
        if magic != WAL_MAGIC {
            return Err(HeaderError::Corrupt(CodecError::Invalid {
                what: "WAL magic",
                offset: 0,
            }));
        }
        let version = c.u8()?;
        let base_t = c.u64()?;
        let window = c.u64()?;
        let k = c.u64()?;
        let min_level = c.u64()?;
        let streams = c.u64()?;
        let crc_at = c.offset();
        let stored = c.u32()?;
        let computed = crc32(&bytes[..crc_at]);
        if stored != computed {
            return Err(HeaderError::Corrupt(CodecError::ChecksumMismatch {
                offset: crc_at,
                stored,
                computed,
            }));
        }
        if version != WAL_VERSION {
            return Err(HeaderError::Version(version));
        }
        Ok(WalHeader {
            base_t,
            window,
            k,
            min_level,
            streams,
        })
    }

    /// Reconstruct the tree configuration this log was written under, or
    /// a positioned error if the checksummed fields are nonetheless not a
    /// valid configuration (possible only for files we never wrote).
    pub fn config(&self) -> Result<SwatConfig, CodecError> {
        let bad = |what| CodecError::Invalid { what, offset: 5 };
        if self.window > usize::MAX as u64 || self.k > usize::MAX as u64 || self.streams == 0 {
            return Err(bad("WAL stream shape"));
        }
        SwatConfig::with_coefficients(self.window as usize, self.k as usize)
            .and_then(|c| c.with_min_level(self.min_level as usize))
            .map_err(|_| bad("WAL tree configuration"))
    }
}

/// Bytes of one record carrying a row of `streams` values.
pub fn record_len(streams: usize) -> usize {
    4 + 8 * streams
}

/// The mask that binds a record to the generation whose header names
/// `base_t`: a record is stored as `crc32(row bytes) ^ record_salt(base_t)`.
///
/// The salt is the low 32 bits of `base_t` times an odd constant, a
/// bijection on `u32`. So two bases that differ by less than 2³² have
/// different salts, and a record written for one of them fails the check
/// in the other whatever its bytes: the two checks differ by the XOR of
/// the salts, which is never zero. The multiplication spreads a small
/// difference of bases over all 32 bits of the mask.
pub fn record_salt(base_t: u64) -> u32 {
    (base_t as u32).wrapping_mul(0x9E37_79B9)
}

/// Append one record for `row`, bound to the generation based at
/// `base_t`, to `out`.
pub fn encode_record(out: &mut Vec<u8>, base_t: u64, row: &[f64]) {
    let start = out.len();
    out.resize(start + record_len(row.len()), 0);
    let (check, body) = out[start..].split_at_mut(4);
    for (dst, v) in body.chunks_exact_mut(8).zip(row) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    check.copy_from_slice(&(crc32(body) ^ record_salt(base_t)).to_le_bytes());
}

/// The verified prefix of a WAL body (the bytes after the header).
pub struct WalPrefix {
    /// Replayable rows, flattened with stride `streams`.
    pub values: Vec<f64>,
    /// Verified body length in bytes; anything past it is a torn or
    /// corrupt tail that recovery must discard.
    pub verified_len: usize,
}

/// Scan `body`, the bytes after `header`, for the longest prefix of
/// whole, finite records that verify in `header`'s generation. Scanning
/// stops — without failing — at the first record that is incomplete,
/// fails its check (a torn or corrupt record, or one of another
/// generation), or decodes to a non-finite value, because nothing after
/// an unverifiable record can be trusted to be aligned, let alone intact.
pub fn scan_records(body: &[u8], header: &WalHeader) -> WalPrefix {
    let rlen = record_len(header.streams as usize);
    let salt = record_salt(header.base_t);
    let mut values = Vec::new();
    let mut at = 0;
    while body.len() - at >= rlen {
        let stored = u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let row = &body[at + 4..at + rlen];
        if crc32(row) ^ salt != stored {
            break;
        }
        let mark = values.len();
        values.extend(
            row.chunks_exact(8)
                .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes")))),
        );
        if !values[mark..].iter().fold(true, |ok, v| ok & v.is_finite()) {
            values.truncate(mark);
            break;
        }
        at += rlen;
    }
    WalPrefix {
        values,
        verified_len: at,
    }
}

/// Streaming verified-prefix reader over a WAL body.
///
/// Recovery of a long-lived stream must not materialize the whole log:
/// this reader pulls the body through a fixed-size chunk buffer, verifies
/// record checksums incrementally, and hands back at most `chunk_rows`
/// rows at a time. The memory high-water mark is one chunk regardless of
/// how large the log grew. Semantics match [`scan_records`] exactly: the
/// first incomplete, corrupt, or non-finite record ends the verified
/// prefix, and a read error is treated as the end of readable data (the
/// tail is dropped, never guessed at).
pub struct WalBodyReader<R: Read> {
    inner: R,
    header: WalHeader,
    /// Whole-record-aligned staging buffer (capacity `chunk_rows` records).
    buf: Vec<u8>,
    target: usize,
    verified_len: u64,
    done: bool,
}

impl<R: Read> WalBodyReader<R> {
    /// A reader of the body that follows `header`, delivering up to
    /// `chunk_rows` rows per call (minimum 1).
    pub fn new(inner: R, header: &WalHeader, chunk_rows: usize) -> WalBodyReader<R> {
        let target = record_len(header.streams as usize) * chunk_rows.max(1);
        WalBodyReader {
            inner,
            header: *header,
            buf: Vec::with_capacity(target),
            target,
            verified_len: 0,
            done: false,
        }
    }

    /// Body bytes verified so far (the caller computes the dropped tail
    /// as `body_len - verified_len` once the reader is exhausted).
    pub fn verified_len(&self) -> u64 {
        self.verified_len
    }

    /// The next chunk of verified rows (flattened with stride `streams`),
    /// or `None` when the verified prefix is exhausted.
    pub fn next_rows(&mut self) -> Option<Vec<f64>> {
        if self.done {
            return None;
        }
        // Top up the staging buffer to one chunk (or EOF / read error).
        let want = (self.target - self.buf.len()) as u64;
        let read = self.inner.by_ref().take(want).read_to_end(&mut self.buf);
        // Short of a full chunk the log ends here — and so it does on a
        // read error: an unreadable tail is a dropped tail.
        let eof = !matches!(read, Ok(n) if n as u64 == want);
        let prefix = scan_records(&self.buf, &self.header);
        let rlen = record_len(self.header.streams as usize);
        let whole = self.buf.len() / rlen * rlen;
        if prefix.verified_len < whole || eof {
            // A record inside the chunk failed verification, or the log
            // ends here (possibly with a torn partial record): nothing
            // after this point can be trusted.
            self.done = true;
        }
        self.verified_len += prefix.verified_len as u64;
        self.buf.drain(..prefix.verified_len);
        if prefix.values.is_empty() {
            self.done = true;
            return None;
        }
        Some(prefix.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> WalHeader {
        let config = SwatConfig::with_coefficients(64, 3)
            .unwrap()
            .with_min_level(2)
            .unwrap();
        WalHeader::describe(&config, 3, 17)
    }

    /// The base of [`two`]'s generation.
    const B: u64 = 40;

    /// The header of a two-stream generation based at [`B`].
    fn two() -> WalHeader {
        WalHeader::describe(&SwatConfig::with_coefficients(64, 3).unwrap(), 2, B)
    }

    #[test]
    fn header_roundtrips() {
        let h = header();
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(WalHeader::decode(&bytes).unwrap(), h);
        let config = h.config().unwrap();
        assert_eq!(config.window(), 64);
        assert_eq!(config.coefficients(), 3);
        assert_eq!(config.min_level(), 2);
    }

    #[test]
    fn header_rejects_every_bit_flip_and_truncation() {
        let bytes = header().encode();
        for cut in 0..bytes.len() {
            WalHeader::decode(&bytes[..cut]).unwrap_err();
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                WalHeader::decode(&bad).unwrap_err();
            }
        }
    }

    /// The bytes a hex string spells.
    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The rows of the pinned WAL: a header (window 8, k 4, 3 streams,
    /// base 5), then one record each.
    const GOLDEN_ROWS: [[f64; 3]; 2] = [[1.5, -2.25, 1e-3], [7.0, 0.125, -1e9]];

    #[test]
    fn wal_bytes_are_pinned() {
        // The v1 bytes (as the commit before slice-by-8 wrote them) with
        // the version byte and header checksum of v2 and each record's
        // checksum masked by `record_salt(5)`: today's writer must
        // produce them, today's reader accept them.
        const GOLDEN: &str = concat!(
            "5357414c02050000000000000008000000000000000400000000000000000000",
            "00000000000300000000000000631a09eaa5a338fe000000000000f83f000000",
            "00000002c0fca9f1d24d62503ffeb247550000000000001c40000000000000c0",
            "3f0000000065cdcdc1",
        );
        let golden = unhex(GOLDEN);
        let config = SwatConfig::with_coefficients(8, 4).unwrap();
        let header = WalHeader::describe(&config, 3, 5);
        let mut written = header.encode();
        for row in &GOLDEN_ROWS {
            encode_record(&mut written, 5, row);
        }
        assert_eq!(written, golden);
        assert_eq!(WalHeader::decode(&golden).unwrap(), header);
        let body = scan_records(&golden[HEADER_LEN..], &header);
        assert_eq!(body.verified_len, golden.len() - HEADER_LEN);
        assert_eq!(body.values, GOLDEN_ROWS.concat());
    }

    #[test]
    fn a_verified_v1_header_is_refused_by_version_and_a_flipped_one_is_corrupt() {
        // The same header and records as a version 1 writer laid them out.
        const V1: &str = concat!(
            "5357414c01050000000000000008000000000000000400000000000000000000",
            "00000000000300000000000000c1ad400938c32de9000000000000f83f000000",
            "00000002c0fca9f1d24d62503f63d252420000000000001c40000000000000c0",
            "3f0000000065cdcdc1",
        );
        let v1 = unhex(V1);
        assert_eq!(WalHeader::decode(&v1), Err(HeaderError::Version(1)));
        for bit in 0..8 {
            let mut bad = v1.clone();
            bad[4] ^= 1 << bit;
            assert!(
                matches!(WalHeader::decode(&bad), Err(HeaderError::Corrupt(_))),
                "version bit {bit}"
            );
        }
        // Its records carry no salt: under a v2 header of the same base
        // not one verifies (the salt of base 5 is not zero).
        let config = SwatConfig::with_coefficients(8, 4).unwrap();
        let header = WalHeader::describe(&config, 3, 5);
        assert_eq!(scan_records(&v1[HEADER_LEN..], &header).verified_len, 0);
    }

    #[test]
    fn a_record_verifies_only_in_its_own_generation() {
        let bases = [0, 1, 8, 4096, 4104, u32::MAX as u64, 1 << 32, u64::MAX];
        for &written in &bases {
            let mut body = Vec::new();
            encode_record(&mut body, written, &[1.0, -2.5]);
            for &read in &bases {
                let mut header = two();
                header.base_t = read;
                let p = scan_records(&body, &header);
                // Bases 0 and 2^32 are 2^32 apart: the documented limit.
                let same = read as u32 == written as u32;
                assert_eq!(
                    p.verified_len == body.len(),
                    same,
                    "{written} read as {read}"
                );
                if read.abs_diff(written) < 1 << 32 {
                    assert_eq!(same, read == written, "{written} read as {read}");
                }
            }
        }
    }

    #[test]
    fn records_roundtrip_and_tail_is_dropped() {
        let rows = [[1.0, -2.5], [3.25, 0.0], [9.0, 1e-3]];
        let mut body = Vec::new();
        for row in &rows {
            encode_record(&mut body, B, row);
        }
        let full = scan_records(&body, &two());
        assert_eq!(full.verified_len, body.len());
        assert_eq!(full.values, [1.0, -2.5, 3.25, 0.0, 9.0, 1e-3]);

        // A torn final record: the verified prefix is exactly the whole
        // records before it.
        for cut in 0..record_len(2) {
            let torn = &body[..2 * record_len(2) + cut];
            let p = scan_records(torn, &two());
            assert_eq!(p.verified_len, 2 * record_len(2), "cut {cut}");
            assert_eq!(p.values.len(), 4);
        }
    }

    #[test]
    fn any_corrupt_record_ends_the_verified_prefix() {
        let mut body = Vec::new();
        for i in 0..5 {
            encode_record(&mut body, B, &[i as f64, -(i as f64)]);
        }
        let rlen = record_len(2);
        for byte in 0..body.len() {
            for bit in 0..8 {
                let mut bad = body.clone();
                bad[byte] ^= 1 << bit;
                let p = scan_records(&bad, &two());
                let hit = byte / rlen;
                assert_eq!(
                    p.values.len(),
                    2 * hit,
                    "flip at {byte}.{bit} must cut the prefix at record {hit}"
                );
                assert_eq!(p.verified_len, hit * rlen);
            }
        }
    }

    #[test]
    fn body_reader_matches_scan_records_chunk_by_chunk() {
        let mut body = Vec::new();
        for i in 0..100 {
            encode_record(&mut body, B, &[i as f64, -(i as f64)]);
        }
        // Clean body: all rows, in order, across many small chunks.
        let mut r = WalBodyReader::new(&body[..], &two(), 7);
        let mut values = Vec::new();
        while let Some(chunk) = r.next_rows() {
            assert!(chunk.len() <= 7 * 2);
            values.extend(chunk);
        }
        let reference = scan_records(&body, &two());
        assert_eq!(values, reference.values);
        assert_eq!(r.verified_len(), reference.verified_len as u64);

        // A flipped record mid-body ends the prefix at the same point.
        let mut bad = body.clone();
        bad[record_len(2) * 43 + 5] ^= 0x20;
        let mut r = WalBodyReader::new(&bad[..], &two(), 7);
        let mut values = Vec::new();
        while let Some(chunk) = r.next_rows() {
            values.extend(chunk);
        }
        assert_eq!(values.len(), 43 * 2);
        assert_eq!(r.verified_len(), (record_len(2) * 43) as u64);

        // A torn final record is dropped.
        let torn = &body[..body.len() - 3];
        let mut r = WalBodyReader::new(torn, &two(), 64);
        let mut rows = 0;
        while let Some(chunk) = r.next_rows() {
            rows += chunk.len() / 2;
        }
        assert_eq!(rows, 99);
    }

    #[test]
    fn a_read_error_ends_the_verified_prefix() {
        /// Yields its bytes, then fails every further read.
        struct FailsAfter<'a>(&'a [u8]);
        impl Read for FailsAfter<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("injected read fault"));
                }
                self.0.read(out)
            }
        }
        let mut body = Vec::new();
        for i in 0..10 {
            encode_record(&mut body, B, &[i as f64, -(i as f64)]);
        }
        // Six whole records and half of the seventh arrive before the fault.
        let readable = &body[..6 * record_len(2) + 9];
        let mut r = WalBodyReader::new(FailsAfter(readable), &two(), 4);
        let mut values = Vec::new();
        while let Some(chunk) = r.next_rows() {
            values.extend(chunk);
        }
        assert_eq!(values, scan_records(readable, &two()).values);
        assert_eq!(r.verified_len(), (6 * record_len(2)) as u64);
        assert!(r.next_rows().is_none());
    }

    #[test]
    fn non_finite_rows_are_rejected_even_with_a_valid_checksum() {
        let mut body = Vec::new();
        encode_record(&mut body, B, &[1.0, 2.0]);
        encode_record(&mut body, B, &[f64::NAN, 2.0]);
        encode_record(&mut body, B, &[3.0, 4.0]);
        let p = scan_records(&body, &two());
        assert_eq!(p.values, [1.0, 2.0]);
        assert_eq!(p.verified_len, record_len(2));
    }
}
