//! Checksummed length-framed binary codec shared by the snapshot v2
//! format and the durability layer (`swat-store`).
//!
//! Two pieces:
//!
//! * [`crc32`] — the IEEE CRC-32 (the checksum of zip/PNG/ethernet),
//!   slice-by-8 over compile-time tables. CRC-32 detects **every**
//!   single-bit error and every burst up to 32 bits, which is exactly
//!   the adversary the storage fault injector plays.
//! * [`Cursor`] / frame helpers — a bounds-checked little-endian reader
//!   that reports the **byte offset** of every failure, and writers for
//!   the section frame `[u8 tag] [u32 len] [u32 crc] [payload]` used by
//!   snapshots, checkpoints, and durable images.
//!
//! Every error is typed and positioned ([`CodecError`]); nothing in this
//! module panics on adversarial input.

use std::fmt;

/// Compile-time slice-by-8 tables for the IEEE CRC-32 (reflected
/// polynomial `0xEDB88320`). `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[s][b]` is the CRC state after byte `b` followed by
/// `s` zero bytes, which lets eight input bytes fold into the state with
/// eight independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        s += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes`: eight bytes per step through
/// [`CRC_TABLES`], then a bytewise tail. Same polynomial and bit order
/// as the bytewise loop it replaced, so every stored checksum verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A positioned decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended at `offset` before the structure was complete.
    Truncated {
        /// Byte offset where more data was needed.
        offset: usize,
    },
    /// A field at `offset` failed validation.
    Invalid {
        /// What was wrong.
        what: &'static str,
        /// Byte offset of the offending field.
        offset: usize,
    },
    /// A frame's payload did not match its stored CRC-32.
    ChecksumMismatch {
        /// Byte offset of the frame's payload.
        offset: usize,
        /// Checksum stored in the frame header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset } => {
                write!(f, "truncated at byte {offset}")
            }
            CodecError::Invalid { what, offset } => {
                write!(f, "invalid {what} at byte {offset}")
            }
            CodecError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a `[tag] [len] [crc] [payload]` frame to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (no snapshot comes
/// within orders of magnitude of that).
pub fn write_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits in u32");
    out.push(tag);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A bounds-checked little-endian reader that tracks its byte offset.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the current offset.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated { offset: self.at });
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// The unread remainder as a raw slice, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.at..];
        self.at = self.buf.len();
        out
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `f64`, rejecting NaN (snapshots never hold
    /// NaN; one appearing means corruption).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::Invalid`] on NaN.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let offset = self.at;
        let b = self.take(8)?;
        let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
        if v.is_nan() {
            return Err(CodecError::Invalid {
                what: "NaN value",
                offset,
            });
        }
        Ok(v)
    }

    /// Read one `[tag] [len] [crc] [payload]` frame, verifying the
    /// checksum. Returns the tag and a cursor over the payload; the
    /// payload cursor reports offsets relative to the *enclosing*
    /// buffer, so error positions stay absolute.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::ChecksumMismatch`].
    pub fn frame(&mut self) -> Result<(u8, Cursor<'a>), CodecError> {
        let tag = self.u8()?;
        let len_at = self.at;
        let len = self.u32()? as usize;
        let stored = self.u32()?;
        let payload_at = self.at;
        if len > self.remaining() {
            // The declared length itself may be the corrupted field;
            // report the position of the length word.
            return Err(CodecError::Truncated { offset: len_at });
        }
        let payload = self.take(len)?;
        let computed = crc32(payload);
        if computed != stored {
            return Err(CodecError::ChecksumMismatch {
                offset: payload_at,
                stored,
                computed,
            });
        }
        Ok((
            tag,
            Cursor {
                buf: &self.buf[..payload_at + len],
                at: payload_at,
            },
        ))
    }

    /// Fail with [`CodecError::Invalid`] at the current offset.
    pub fn invalid<T>(&self, what: &'static str) -> Result<T, CodecError> {
        Err(CodecError::Invalid {
            what,
            offset: self.at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise table loop [`crc32`] replaced: the reference the
    /// sliced loop must equal on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        // Seeded xorshift bytes; every length through two full steps'
        // worth of tail positions past 256, at every offset into the
        // 8-byte stride.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..8 + 257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"SWAT durability layer reference payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello");
        write_frame(&mut buf, 9, b"");
        let mut c = Cursor::new(&buf);
        let (tag, mut p) = c.frame().unwrap();
        assert_eq!(tag, 7);
        assert_eq!(p.take(5).unwrap(), b"hello");
        assert!(p.is_empty());
        let (tag, p) = c.frame().unwrap();
        assert_eq!(tag, 9);
        assert!(p.is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn frame_errors_are_positioned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"payload");
        // Corrupt the payload: checksum mismatch at the payload offset.
        let mut bad = buf.clone();
        bad[9] ^= 0x40;
        match Cursor::new(&bad).frame().unwrap_err() {
            CodecError::ChecksumMismatch { offset, .. } => assert_eq!(offset, 9),
            e => panic!("unexpected {e:?}"),
        }
        // Oversized declared length: truncated at the length word.
        let mut bad = buf.clone();
        bad[1] = 0xFF;
        bad[2] = 0xFF;
        match Cursor::new(&bad).frame().unwrap_err() {
            CodecError::Truncated { offset } => assert_eq!(offset, 1),
            e => panic!("unexpected {e:?}"),
        }
        // Any truncation point fails cleanly.
        for cut in 0..buf.len() {
            assert!(Cursor::new(&buf[..cut]).frame().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn cursor_rejects_nan_with_offset() {
        let mut buf = vec![0xAA]; // one pad byte so the offset is nonzero
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        let mut c = Cursor::new(&buf);
        c.u8().unwrap();
        assert_eq!(
            c.f64().unwrap_err(),
            CodecError::Invalid {
                what: "NaN value",
                offset: 1
            }
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            CodecError::Truncated { offset: 4 },
            CodecError::Invalid {
                what: "x",
                offset: 9,
            },
            CodecError::ChecksumMismatch {
                offset: 2,
                stored: 1,
                computed: 3,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
