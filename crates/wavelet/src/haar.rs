//! Non-normalized Haar transform: pairwise averages and half-differences.
//!
//! This is the transform the SWAT paper uses throughout ("we will assume
//! that Haar wavelets are being used"). A single forward step maps a signal
//! `s` of even length `2m` to `m` averages and `m` details:
//!
//! ```text
//! avg[i] = (s[2i] + s[2i+1]) / 2
//! det[i] = (s[2i] - s[2i+1]) / 2
//! ```
//!
//! The multilevel decomposition recurses on the averages. The inverse step
//! is exact: `s[2i] = avg[i] + det[i]`, `s[2i+1] = avg[i] - det[i]`.
//!
//! Coefficients of the full decomposition are reported in breadth-first
//! (coarsest-first) order; see the crate-level documentation.

use crate::error::WaveletError;
use crate::{is_power_of_two, log2};

/// One forward Haar step over `signal` (even length), writing `avg` and
/// `det`, each of length `signal.len() / 2`.
///
/// # Panics
///
/// Panics in debug builds if the lengths are inconsistent.
#[inline]
pub fn forward_step(signal: &[f64], avg: &mut [f64], det: &mut [f64]) {
    let m = signal.len() / 2;
    debug_assert_eq!(signal.len() % 2, 0);
    debug_assert_eq!(avg.len(), m);
    debug_assert_eq!(det.len(), m);
    for i in 0..m {
        let a = signal[2 * i];
        let b = signal[2 * i + 1];
        avg[i] = (a + b) * 0.5;
        det[i] = (a - b) * 0.5;
    }
}

/// One inverse Haar step: reconstruct `signal` (length `2 * avg.len()`) from
/// averages and details.
#[inline]
pub fn inverse_step(avg: &[f64], det: &[f64], signal: &mut [f64]) {
    let m = avg.len();
    debug_assert_eq!(det.len(), m);
    debug_assert_eq!(signal.len(), 2 * m);
    for i in 0..m {
        signal[2 * i] = avg[i] + det[i];
        signal[2 * i + 1] = avg[i] - det[i];
    }
}

/// Full multilevel forward transform.
///
/// Returns the `signal.len()` coefficients in breadth-first order:
/// `[overall average, depth-1 detail, depth-2 details, ..., finest details]`.
///
/// # Errors
///
/// Returns [`WaveletError::NotPowerOfTwo`] unless `signal.len()` is a
/// nonzero power of two.
pub fn forward(signal: &[f64]) -> Result<Vec<f64>, WaveletError> {
    let n = signal.len();
    if !is_power_of_two(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    let depth = log2(n) as usize;
    let mut out = vec![0.0; n];
    let mut current = signal.to_vec();
    // Details produced at pass p (1-based from finest) belong to BFS depth
    // (depth - p + 1), i.e. they land at BFS offset 2^(depth - p).
    for pass in 1..=depth {
        let m = current.len() / 2;
        let mut avg = vec![0.0; m];
        let offset = 1usize << (depth - pass);
        {
            let (_, tail) = out.split_at_mut(offset);
            forward_step(&current, &mut avg, &mut tail[..m]);
        }
        current = avg;
    }
    out[0] = current[0];
    Ok(out)
}

/// Full multilevel inverse transform of breadth-first coefficients.
///
/// Coefficient vectors shorter than the signal length are implicitly
/// zero-padded: `inverse(&coeffs[..k], n)` reconstructs the signal that the
/// coarsest `k` coefficients describe, with all finer details set to zero.
///
/// # Errors
///
/// Returns [`WaveletError::NotPowerOfTwo`] unless `n` is a nonzero power of
/// two, and [`WaveletError::TooShort`] if `coeffs` is empty.
pub fn inverse(coeffs: &[f64], n: usize) -> Result<Vec<f64>, WaveletError> {
    if !is_power_of_two(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    if coeffs.is_empty() {
        return Err(WaveletError::TooShort { len: 0, min: 1 });
    }
    let depth = log2(n) as usize;
    let mut current = vec![coeffs[0]];
    for d in 1..=depth {
        let m = current.len();
        let offset = 1usize << (d - 1);
        let mut next = vec![0.0; 2 * m];
        for i in 0..m {
            let det = coeffs.get(offset + i).copied().unwrap_or(0.0);
            next[2 * i] = current[i] + det;
            next[2 * i + 1] = current[i] - det;
        }
        current = next;
    }
    Ok(current)
}

/// Reconstruct a single point of the signal from breadth-first coefficients
/// in `O(log n)` time without materializing the whole signal.
///
/// `idx` is the position within the signal of length `n`.
///
/// # Errors
///
/// Same validation as [`inverse`]; additionally `idx` must be `< n`.
pub fn point(coeffs: &[f64], n: usize, idx: usize) -> Result<f64, WaveletError> {
    if !is_power_of_two(n) {
        return Err(WaveletError::NotPowerOfTwo { len: n });
    }
    if coeffs.is_empty() {
        return Err(WaveletError::TooShort { len: 0, min: 1 });
    }
    assert!(idx < n, "point index {idx} out of bounds for signal of {n}");
    let depth = log2(n) as usize;
    let mut value = coeffs[0];
    // Walk from the root toward the leaf holding `idx`. At BFS depth d the
    // signal is split into 2^d blocks; `idx` falls into block
    // `idx >> (depth - d)`, and the sign of the detail contribution depends
    // on whether idx is in the left (+) or right (−) half of that block.
    for d in 1..=depth {
        let block = idx >> (depth - d);
        let det = coeffs
            .get((1usize << (d - 1)) + (block >> 1))
            .copied()
            .unwrap_or(0.0);
        if block & 1 == 0 {
            value += det;
        } else {
            value -= det;
        }
    }
    Ok(value)
}

/// The depth below which a breadth-first prefix of `stored` coefficients
/// holds no detail: `⌈log₂ stored⌉`. Depth `d`'s details sit at offsets
/// `2^(d−1)..2^d`, so every one deeper than this is past the prefix.
///
/// # Panics
///
/// Panics in debug builds if `stored == 0`.
#[inline]
pub fn stored_depth(stored: usize) -> u32 {
    debug_assert!(stored > 0, "a prefix holds at least the average");
    usize::BITS - (stored - 1).leading_zeros()
}

/// [`point`] for prefixes whose details all lie at depth `≤ depth`
/// ([`stored_depth`] of their length, or more), `W` of them at once, bit
/// for bit: the same walk from the root, stopped at `depth` instead of
/// `log_n`. Row `r` of every lane is read through `row` — `+0.0` where a
/// lane stores fewer, as [`point`] reads past a prefix — so the rows may
/// live anywhere, such as one lane of a block stored lane-major. Each
/// step and the fix-up below are the scalar expressions applied to each
/// lane in the scalar order.
///
/// Each step the walk skips adds or subtracts a literal `0.0`, which
/// leaves every value but `−0.0` unchanged. `−0.0 − 0.0` is `−0.0` and
/// `−0.0 + 0.0` is `+0.0`, and `+0.0` stays `+0.0` either way, so a `−0.0`
/// survives exactly when every skipped step subtracts: when the low
/// `log_n − depth` bits of `idx` are all 1. One comparison replaces the
/// steps.
///
/// `idx` is the position within the signal of length `2^log_n`.
///
/// # Panics
///
/// In debug builds, if `depth > log_n` or `idx ≥ 2^log_n`.
#[inline(always)]
pub fn point_rows<const W: usize>(
    row: impl Fn(usize) -> [f64; W],
    log_n: u32,
    depth: u32,
    idx: usize,
) -> [f64; W] {
    debug_assert!(depth <= log_n && idx >> log_n == 0);
    let mut value = row(0);
    for d in 1..=depth {
        let block = idx >> (log_n - d);
        let det = row((1usize << (d - 1)) + (block >> 1));
        if block & 1 == 0 {
            for (v, x) in value.iter_mut().zip(det) {
                *v += x;
            }
        } else {
            for (v, x) in value.iter_mut().zip(det) {
                *v -= x;
            }
        }
    }
    let skipped = (1usize << (log_n - depth)) - 1;
    if idx & skipped != skipped {
        for v in &mut value {
            // A `−0.0` becomes `+0.0`; every other value stays.
            if *v == 0.0 {
                *v = 0.0;
            }
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(signal: &[f64]) {
        let coeffs = forward(signal).unwrap();
        let back = inverse(&coeffs, signal.len()).unwrap();
        for (a, b) in signal.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "roundtrip mismatch {a} vs {b}");
        }
    }

    #[test]
    fn single_step_matches_definition() {
        let s = [14.0, 4.0];
        let mut avg = [0.0];
        let mut det = [0.0];
        forward_step(&s, &mut avg, &mut det);
        assert_eq!(avg[0], 9.0);
        assert_eq!(det[0], 5.0);
        let mut back = [0.0; 2];
        inverse_step(&avg, &det, &mut back);
        assert_eq!(back, s);
    }

    #[test]
    fn forward_of_constant_signal_is_average_only() {
        let coeffs = forward(&[3.0; 8]).unwrap();
        assert_eq!(coeffs[0], 3.0);
        for c in &coeffs[1..] {
            assert_eq!(*c, 0.0);
        }
    }

    #[test]
    fn forward_bfs_layout() {
        // Signal [8, 6, 4, 2]:
        //   depth-2 (finest) details: (8-6)/2 = 1, (4-2)/2 = 1
        //   averages: 7, 3 -> depth-1 detail: (7-3)/2 = 2, root = 5
        let coeffs = forward(&[8.0, 6.0, 4.0, 2.0]).unwrap();
        assert_eq!(coeffs, vec![5.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn roundtrips_various_lengths() {
        roundtrip(&[42.0]);
        roundtrip(&[1.0, -1.0]);
        roundtrip(&[8.0, 6.0, 4.0, 2.0]);
        let sig: Vec<f64> = (0..1024).map(|i| ((i * 37) % 101) as f64).collect();
        roundtrip(&sig);
    }

    #[test]
    fn truncated_inverse_keeps_coarse_structure() {
        let coeffs = forward(&[8.0, 6.0, 4.0, 2.0]).unwrap();
        // Keep only the root: reconstruction is the flat average.
        let flat = inverse(&coeffs[..1], 4).unwrap();
        assert_eq!(flat, vec![5.0; 4]);
        // Keep root + depth-1 detail: half averages.
        let halves = inverse(&coeffs[..2], 4).unwrap();
        assert_eq!(halves, vec![7.0, 7.0, 3.0, 3.0]);
    }

    #[test]
    fn point_matches_full_inverse() {
        let sig: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 10.0).collect();
        let coeffs = forward(&sig).unwrap();
        for k in [1, 2, 3, 7, 16, 64] {
            let full = inverse(&coeffs[..k], 64).unwrap();
            for (idx, &f) in full.iter().enumerate() {
                let p = point(&coeffs[..k], 64, idx).unwrap();
                assert!((p - f).abs() < 1e-9, "point({k}, {idx}) = {p}, full = {f}");
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            forward(&[1.0, 2.0, 3.0]),
            Err(WaveletError::NotPowerOfTwo { len: 3 })
        ));
        assert!(matches!(
            inverse(&[1.0], 6),
            Err(WaveletError::NotPowerOfTwo { len: 6 })
        ));
        assert!(matches!(
            inverse(&[], 4),
            Err(WaveletError::TooShort { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn point_index_out_of_bounds_panics() {
        let coeffs = forward(&[1.0, 2.0]).unwrap();
        let _ = point(&coeffs, 2, 2);
    }

    #[test]
    fn stored_depth_is_the_ceiling_log() {
        let depths: Vec<u32> = (1..=9).map(stored_depth).collect();
        assert_eq!(depths, [0, 1, 2, 2, 3, 3, 3, 3, 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The truncated walk with its signed-zero fix-up is `point`, bit
        /// for bit, at every length up to 2^8, every stored count and
        /// every index — over coefficients drawn from {−0.0, 0.0, ±x}, so
        /// that the walk ends on `−0.0` often and the fix-up both keeps it
        /// and turns it into `+0.0`.
        #[test]
        fn truncated_walk_is_point_bit_for_bit(
            picks in prop::collection::vec(0usize..4, 256),
            x in 0.001..1000.0f64,
        ) {
            let mut coeffs: Vec<f64> = picks.iter().map(|&p| [-0.0, 0.0, x, -x][p]).collect();
            let (mut kept, mut flipped) = (0, 0);
            for root in [coeffs[0], -0.0] {
                coeffs[0] = root;
                for log_n in 0..=8u32 {
                    let n = 1usize << log_n;
                    for stored in 1..=n {
                        let prefix = &coeffs[..stored];
                        let depth = stored_depth(stored);
                        for idx in 0..n {
                            let want = point(prefix, n, idx).unwrap();
                            let [got] = point_rows(
                                |r| [prefix.get(r).copied().unwrap_or(0.0)],
                                log_n,
                                depth,
                                idx,
                            );
                            prop_assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "n={} stored={} idx={}", n, stored, idx
                            );
                            // The walk before the fix-up: the same steps
                            // on the signal of length 2^depth.
                            let walked = point(prefix, 1 << depth, idx >> (log_n - depth)).unwrap();
                            if depth < log_n && walked.to_bits() == (-0.0f64).to_bits() {
                                if want.is_sign_negative() {
                                    kept += 1;
                                } else {
                                    flipped += 1;
                                }
                            }
                        }
                    }
                }
            }
            prop_assert!(kept > 0 && flipped > 0, "kept {} flipped {}", kept, flipped);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The lane walk is `point` in every lane, bit for bit, at every
        /// length up to 2^8, every stored count and every index. Each of
        /// the 16 lanes draws its coefficients independently from
        /// {−0.0, 0.0, ±x}, and odd lanes store one coefficient fewer
        /// (padded with `+0.0`). So lanes walk to `−0.0` beside lanes
        /// that do not, in one call: the fix-up is a per-lane select.
        #[test]
        fn lane_walk_is_point_in_every_lane(
            picks in prop::collection::vec(0usize..4, 16 * 256),
            x in 0.001..1000.0f64,
        ) {
            const W: usize = 16;
            let lanes: Vec<Vec<f64>> = picks
                .chunks(256)
                .map(|c| c.iter().map(|&p| [-0.0, 0.0, x, -x][p]).collect())
                .collect();
            let (mut kept, mut flipped, mut mixed) = (0, 0, 0);
            let mut rows = Vec::new();
            for log_n in 0..=8u32 {
                let n = 1usize << log_n;
                for stored in 1..=n {
                    let depth = stored_depth(stored);
                    let held = |w: usize| if w % 2 == 1 { (stored - 1).max(1) } else { stored };
                    rows.clear();
                    rows.resize(1 << depth, [0.0; W]);
                    for (w, lane) in lanes.iter().enumerate() {
                        for (row, &c) in rows.iter_mut().zip(&lane[..held(w)]) {
                            row[w] = c;
                        }
                    }
                    for idx in 0..n {
                        let got = point_rows(|r| rows[r], log_n, depth, idx);
                        let (mut negative, mut other) = (false, false);
                        for (w, lane) in lanes.iter().enumerate() {
                            let prefix = &lane[..held(w)];
                            let want = point(prefix, n, idx).unwrap();
                            prop_assert_eq!(
                                got[w].to_bits(),
                                want.to_bits(),
                                "n={} stored={} idx={} lane={}", n, stored, idx, w
                            );
                            let walked = point(prefix, 1 << depth, idx >> (log_n - depth)).unwrap();
                            if walked.to_bits() == (-0.0f64).to_bits() {
                                negative = true;
                                if depth < log_n && want.is_sign_negative() {
                                    kept += 1;
                                } else if depth < log_n {
                                    flipped += 1;
                                }
                            } else {
                                other = true;
                            }
                        }
                        mixed += usize::from(negative && other && depth < log_n);
                    }
                }
            }
            prop_assert!(
                kept > 0 && flipped > 0 && mixed > 0,
                "kept {} flipped {} mixed {}", kept, flipped, mixed
            );
        }
    }

    #[test]
    fn average_preserved_under_truncation() {
        // The BFS-order root coefficient is always the exact mean, no matter
        // how hard the details are truncated.
        let sig = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
        let coeffs = forward(&sig).unwrap();
        let mean: f64 = sig.iter().sum::<f64>() / sig.len() as f64;
        assert!((coeffs[0] - mean).abs() < 1e-12);
        for k in 1..=8 {
            let rec = inverse(&coeffs[..k], 8).unwrap();
            let rec_mean: f64 = rec.iter().sum::<f64>() / 8.0;
            assert!((rec_mean - mean).abs() < 1e-9, "k={k}");
        }
    }
}
