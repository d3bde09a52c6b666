//! Checksummed length-framed binary codec shared by the snapshot v2
//! format and the durability layer (`swat-store`).
//!
//! Two pieces:
//!
//! * [`crc32`] — the IEEE CRC-32 (the checksum of zip/PNG/ethernet),
//!   folded by carry-less multiplication where the CPU can (512 bits at
//!   a time with VPCLMULQDQ on AVX-512, 128 bits with PCLMULQDQ) and
//!   slice-by-8 over compile-time tables everywhere else, picked per call
//!   from the input's length and the CPU. CRC-32 detects **every**
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

/// The IEEE CRC-32 generator `P = 0x1_04C1_1DB7`, `x^32` included, in
/// the normal bit order (bit `i` is the coefficient of `x^i`). Every
/// table and fold constant below is derived from it.
const POLY: u64 = 0x1_04C1_1DB7;

/// The low `bits` bits of `v` in reverse order: the CRC is bit-reflected,
/// the message's first bit is the highest power of `x`.
const fn reflect(v: u64, bits: u32) -> u64 {
    v.reverse_bits() >> (64 - bits)
}

/// Compile-time slice-by-8 tables for the IEEE CRC-32 (reflected
/// polynomial `0xEDB88320`). `CRC_TABLES[0]` is the classic bytewise
/// table; `CRC_TABLES[s][b]` is the CRC state after byte `b` followed by
/// `s` zero bytes, which lets eight input bytes fold into the state with
/// eight independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let poly = (reflect(POLY, 33) >> 1) as u32;
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
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

/// IEEE CRC-32 of `bytes`. Same polynomial, bit order and values on
/// every path, so every stored checksum verifies. On an x86-64, inputs
/// of at least `clmul::WIDE_MIN_LEN` bytes on a CPU with AVX-512 and
/// VPCLMULQDQ are folded 512 bits at a time, other inputs of at least
/// `clmul::MIN_LEN` bytes on a CPU with PCLMULQDQ 128 bits at a time;
/// everything else (and the sub-16-byte tail of a folded input) goes
/// through the portable `crc32_sliced` loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::fold512(bytes).or_else(|| clmul::fold128(bytes)) {
        return crc;
    }
    !crc32_sliced(!0, bytes)
}

/// The portable path: advance the raw (un-inverted) CRC register
/// `state` over `bytes`, eight bytes per step through [`CRC_TABLES`],
/// then a bytewise tail.
fn crc32_sliced(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
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
    c
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), bit-reflected variant for the IEEE polynomial.
///
/// The message is a polynomial over GF(2); a 128-bit lane `a` that sits
/// `d` bits ahead of lane `b` can be replaced by `b ^ a.lo·(x^(d+32) mod
/// P) ^ a.hi·(x^(d−32) mod P)` without changing the remainder mod `P`,
/// and each product is one `pclmulqdq`. Two kernels share that step:
///
/// * the 128-bit fold keeps four independent lanes and folds 64 bytes
///   (`d = 512`) a step, so the multiplier's latency overlaps, then
///   folds them into one lane;
/// * the 512-bit fold keeps four zmm registers — sixteen lanes — and
///   folds 256 bytes (`d = 2048`) a step with `vpclmulqdq`, which
///   multiplies all four lanes of a register at once; then folds the
///   registers into one (`d = 512`) and that register's four lanes
///   into one (`d = 384, 256, 128`).
///
/// Either lane then goes on in 16-byte steps (`d = 128`) and is reduced
/// 128 → 64 → 32 bits, the final step by Barrett reduction. What is left
/// of the input (< 16 bytes) continues in [`crc32_sliced`] from the
/// register that comes out.
///
/// Each kernel is a safe `#[target_feature]` function; the one `unsafe`
/// of each is its call in [`fold128`] / [`fold512`], directly under the
/// run-time detection of the features it is compiled with.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::is_x86_feature_detected;
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_set_epi64,
        _mm512_xor_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{reflect, POLY};

    /// Shortest input of the 128-bit fold: its four lanes are loaded
    /// before the loop.
    pub(super) const MIN_LEN: usize = 64;
    /// Shortest input of the 512-bit fold: its four registers likewise.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    /// `x^n = q·P + r`: the low 64 coefficients of the quotient `q` and
    /// the remainder `r`, by long division one power of `x` at a time.
    const fn divide(n: u32) -> (u64, u64) {
        let (mut q, mut r) = (0u64, 1u64);
        let mut i = 0;
        while i < n {
            q <<= 1;
            r <<= 1;
            if r >> 32 != 0 {
                r ^= POLY;
                q |= 1;
            }
            i += 1;
        }
        (q, r)
    }

    /// `x^n mod P`, bit-reflected and shifted left once (a reflected
    /// 64 × 64-bit product comes out one bit low): a fold constant.
    const fn key(n: u32) -> i64 {
        (reflect(divide(n).1, 32) << 1) as i64
    }

    /// The two constants that fold a lane `d` bits ahead onto another:
    /// `x^(d+32)` for its low half, `x^(d−32)` for its high half.
    const fn keys(d: u32) -> [i64; 2] {
        [key(d + 32), key(d - 32)]
    }

    const K2048: [i64; 2] = keys(2048);
    pub(super) const K512: [i64; 2] = keys(512);
    const K384: [i64; 2] = keys(384);
    const K256: [i64; 2] = keys(256);
    pub(super) const K128: [i64; 2] = keys(128);
    /// Folds the low 32 bits of a 64-bit remainder across 32 bits.
    pub(super) const K64: i64 = key(64);
    /// `P` itself, reflected.
    pub(super) const P_X: i64 = reflect(POLY, 33) as i64;
    /// `µ = ⌊x^64 / P⌋`, reflected.
    pub(super) const MU: i64 = reflect(divide(64).0, 33) as i64;

    /// The 128-bit fold's checksum of `bytes`, or `None` when the input
    /// is shorter than [`MIN_LEN`] or the CPU lacks the instructions.
    pub(super) fn fold128(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `crc32_128` is a safe function whose only requirement
        // is that the CPU has the `pclmulqdq` and `sse4.1` features it is
        // compiled with, which the two run-time detections above have
        // just established.
        Some(unsafe { crc32_128(bytes) })
    }

    /// The 512-bit fold's checksum of `bytes`, or `None` when the input
    /// is shorter than [`WIDE_MIN_LEN`] or the CPU lacks the
    /// instructions.
    pub(super) fn fold512(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < WIDE_MIN_LEN
            || !is_x86_feature_detected!("avx512f")
            || !is_x86_feature_detected!("vpclmulqdq")
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `crc32_512` is a safe function whose only requirement
        // is that the CPU has the `avx512f`, `vpclmulqdq`, `pclmulqdq`
        // and `sse4.1` features it is compiled with, which the four
        // run-time detections above have just established.
        Some(unsafe { crc32_512(bytes) })
    }

    /// Sixteen message bytes as one lane, first byte in the lowest bits.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Sixty-four message bytes as four lanes, first byte in the lowest
    /// bits of the lowest lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(b: &[u8]) -> __m512i {
        let w = |i: usize| i64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        _mm512_set_epi64(w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0))
    }

    /// A [`keys`] pair as the operand of [`fold`].
    #[inline]
    #[target_feature(enable = "sse2")]
    fn pair([lo, hi]: [i64; 2]) -> __m128i {
        _mm_set_epi64x(hi, lo)
    }

    /// Fold lane `a` onto `b`, `keys` holding the two constants for the
    /// distance between them (low half for `a`'s low half).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// [`fold`] on each of the four lanes of `a` and `b` at once, `keys`
    /// a [`keys`] pair in every lane.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold4(a: __m512i, b: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(a, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(a, keys, 0x11);
        _mm512_xor_si512(_mm512_xor_si512(b, lo), hi)
    }

    /// IEEE CRC-32 of `bytes`, which must hold at least [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn crc32_128(bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("the caller checked MIN_LEN");

        // The initial register (all ones) enters as the first four bytes.
        let mut x0 = _mm_xor_si128(lane(&first[..16]), _mm_cvtsi32_si128(!0));
        let mut x1 = lane(&first[16..32]);
        let mut x2 = lane(&first[32..48]);
        let mut x3 = lane(&first[48..]);
        let k512 = pair(K512);
        for b in &mut blocks {
            x0 = fold(x0, lane(&b[..16]), k512);
            x1 = fold(x1, lane(&b[16..32]), k512);
            x2 = fold(x2, lane(&b[32..48]), k512);
            x3 = fold(x3, lane(&b[48..]), k512);
        }

        let k128 = pair(K128);
        let mut x = fold(x0, x1, k128);
        x = fold(x, x2, k128);
        x = fold(x, x3, k128);
        finish(x, blocks.remainder())
    }

    /// IEEE CRC-32 of `bytes`, which must hold at least [`WIDE_MIN_LEN`].
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    fn crc32_512(bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(256);
        let first = blocks.next().expect("the caller checked WIDE_MIN_LEN");

        let every_lane = |[lo, hi]: [i64; 2]| _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
        let init = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, 0xFFFF_FFFF);
        let mut z0 = _mm512_xor_si512(lanes(&first[..64]), init);
        let mut z1 = lanes(&first[64..128]);
        let mut z2 = lanes(&first[128..192]);
        let mut z3 = lanes(&first[192..]);
        let k2048 = every_lane(K2048);
        for b in &mut blocks {
            z0 = fold4(z0, lanes(&b[..64]), k2048);
            z1 = fold4(z1, lanes(&b[64..128]), k2048);
            z2 = fold4(z2, lanes(&b[128..192]), k2048);
            z3 = fold4(z3, lanes(&b[192..]), k2048);
        }

        let k512 = every_lane(K512);
        let mut z = fold4(z0, z1, k512);
        z = fold4(z, z2, k512);
        z = fold4(z, z3, k512);

        // Lane `i` of the register sits 128·(3 − i) bits ahead of lane 3.
        let mut x = _mm512_extracti32x4_epi32(z, 3);
        x = fold(_mm512_extracti32x4_epi32(z, 2), x, pair(K128));
        x = fold(_mm512_extracti32x4_epi32(z, 1), x, pair(K256));
        x = fold(_mm512_extracti32x4_epi32(z, 0), x, pair(K384));
        finish(x, blocks.remainder())
    }

    /// The end both kernels share: fold the remaining 16-byte blocks of
    /// `rest` into lane `x`, reduce it to the CRC register and run the
    /// portable loop over the last `< 16` bytes.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(mut x: __m128i, rest: &[u8]) -> u32 {
        let k128 = pair(K128);
        let mut steps = rest.chunks_exact(16);
        for b in &mut steps {
            x = fold(x, lane(b), k128);
        }

        // 128 → 64 bits: fold the low half across 64 bits, then the low
        // 32 bits of that across 32.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k128, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K64), 0x00),
            _mm_srli_si128(x, 4),
        );

        // 64 → 32 bits, Barrett: T1 = ⌊R mod x^32⌋·µ, T2 = ⌊T1 mod x^32⌋·P,
        // and the remainder is the high word of R ^ T2 (reflected order).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        !super::crc32_sliced(state, steps.remainder())
    }
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
    let at = begin_frame(out, tag);
    out.extend_from_slice(payload);
    finish_frame(out, at);
}

/// Open a frame whose payload the caller appends to `out` in place:
/// writes the tag, reserves `len` and `crc`, and returns the offset the
/// payload starts at — the handle [`finish_frame`] takes. Frames nest.
pub fn begin_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    out.push(tag);
    out.extend_from_slice(&[0; 8]);
    out.len()
}

/// Close the frame [`begin_frame`] opened at `payload_at`: everything
/// appended since is its payload, whose length and CRC-32 are patched
/// into the reserved header.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn finish_frame(out: &mut [u8], payload_at: usize) {
    let (head, payload) = out.split_at_mut(payload_at);
    let len = u32::try_from(payload.len()).expect("frame payload fits in u32");
    let header = &mut head[payload_at - 8..];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
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

    /// One way [`crc32`] can compute a checksum, called directly: its
    /// name, the shortest input it takes, and the path itself, `None`
    /// on an input it does not take or a CPU that lacks it.
    type Path = (&'static str, usize, fn(&[u8]) -> Option<u32>);

    /// Every path [`crc32`] dispatches to.
    const PATHS: &[Path] = &[
        ("portable", 0, |b| Some(!crc32_sliced(!0, b))),
        #[cfg(target_arch = "x86_64")]
        ("fold128", clmul::MIN_LEN, clmul::fold128),
        #[cfg(target_arch = "x86_64")]
        ("fold512", clmul::WIDE_MIN_LEN, clmul::fold512),
    ];

    /// The paths this CPU has, named once on stderr beside those it
    /// lacks, so a log shows which ones a run checked.
    fn paths() -> &'static [Path] {
        static HERE: std::sync::OnceLock<Vec<Path>> = std::sync::OnceLock::new();
        HERE.get_or_init(|| {
            let (here, lacking): (Vec<Path>, Vec<Path>) = PATHS
                .iter()
                .partition(|(_, min, path)| path(&vec![0; *min]).is_some());
            for (name, ..) in &lacking {
                eprintln!("crc32 path skipped: {name} (this CPU lacks its instructions)");
            }
            let names: Vec<&str> = here.iter().map(|(name, ..)| *name).collect();
            eprintln!("crc32 paths tested: {}", names.join(", "));
            here
        })
    }

    /// Every path this CPU has agrees with `want` on `bytes`, and takes
    /// it exactly when it is long enough.
    fn check_paths(bytes: &[u8], want: u32, what: &str) {
        assert_eq!(crc32(bytes), want, "dispatched, {what}");
        for (name, min, path) in paths() {
            let got = path(bytes);
            assert_eq!(got.is_some(), bytes.len() >= *min, "{name}, {what}");
            if let Some(crc) = got {
                assert_eq!(crc, want, "{name}, {what}");
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Two that are long enough to be folded: the RFC 1321 suite's
        // 80 digits (one 64-byte block, one 16-byte step) and the bytes
        // 0x00..=0xFF (four blocks, or one 256-byte block at 512 bits),
        // pinned from the bytewise loop.
        let digits = b"1234567890".repeat(8);
        let ramp: Vec<u8> = (0..=255).collect();
        for (input, crc) in [(&digits, 0x7CA9_4A72), (&ramp, 0x2905_8C73)] {
            assert_eq!(crc32_bytewise(input), crc);
            check_paths(input, crc, "known vector");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_derived_to_the_published_values() {
        // Gopal et al. print these for the IEEE polynomial; every other
        // distance comes from the same `key`.
        assert_eq!(clmul::K512, [0x1_5444_2BD4, 0x1_C6E4_1596]);
        assert_eq!(clmul::K128, [0x1_7519_97D0, 0x0_CCAA_009E]);
        assert_eq!(clmul::K64, 0x1_63CD_6124);
        assert_eq!(clmul::P_X, 0x1_DB71_0641);
        assert_eq!(clmul::MU, 0x1_F701_1641);
        assert_eq!(CRC_TABLES[0][128], 0xEDB8_8320);
    }

    /// The bytewise table loop on the raw register: the reference every
    /// path of [`crc32`] must equal on every input, resumable so a
    /// checksum can be carried across a split.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |c, &b| {
            CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytewise(!0, bytes)
    }

    /// `len` seeded xorshift bytes.
    fn noise(mut x: u64, len: usize) -> Vec<u8> {
        x |= 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_alignment() {
        // Every length through 1 100 at every offset into a 16-byte lane,
        // on every path: below each fold's threshold, on it, one to
        // seventeen 64-byte blocks or one to four 256-byte ones, every
        // count of 16-byte steps behind them and every 1..15-byte tail.
        let buf = noise(0x9E37_79B9_7F4A_7C15, 16 + 1100);
        for start in 0..16 {
            for len in 0..=1100 {
                let s = &buf[start..start + len];
                check_paths(s, crc32_bytewise(s), &format!("start {start} len {len}"));
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every path agrees with the bytewise loop on inputs up to
            /// 256 KB, and the checksum of `a ‖ b` in one call is what
            /// the bytewise loop reaches when it is stopped after `a` and
            /// resumed over `b`.
            #[test]
            fn every_path_agrees_and_the_checksum_resumes_across_any_split(
                len in 0usize..=256 * 1024,
                seed in any::<u64>(),
                cut in any::<u64>(),
            ) {
                let buf = noise(seed, len);
                let (a, b) = buf.split_at(cut as usize % (len + 1));
                let resumed = !bytewise(bytewise(!0, a), b);
                check_paths(&buf, resumed, &format!("len {len}"));
                prop_assert_eq!(!crc32_sliced(crc32_sliced(!0, a), b), resumed);
            }
        }
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        // A short payload (portable loop only), one the 128-bit fold
        // takes through three blocks and a tail, and one `wire-wide` leg
        // every path takes — on each path that takes it.
        let text = b"SWAT durability layer reference payload".to_vec();
        for mut data in [text, noise(7, 200), noise(11, 8200)] {
            for (name, _, path) in paths() {
                let Some(clean) = path(&data) else { continue };
                for byte in 0..data.len() {
                    for bit in 0..8 {
                        data[byte] ^= 1 << bit;
                        assert_ne!(
                            path(&data),
                            Some(clean),
                            "{name}: flip at {byte}.{bit} undetected"
                        );
                        data[byte] ^= 1 << bit;
                    }
                }
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
