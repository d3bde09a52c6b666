//! Generic periodic orthogonal filter banks.
//!
//! The paper: "To compute the approximations, we can use any of the
//! wavelet bases such as Haar, Daubechies, Coiflets, Symlets and Meyer."
//! This module provides the machinery for the compactly supported
//! orthogonal families: an [`OrthogonalFilter`] is a scaling filter `h`
//! whose wavelet filter is the alternating flip `g[t] = (−1)^t h[T−1−t]`;
//! analysis convolves-and-decimates periodically and synthesis applies
//! the transpose, which for orthogonal filters is the exact inverse.
//!
//! Predefined filters, all listed by [`predefined`]: the orthonormal
//! [`haar`] (scaling by `1/√2`, so the transform preserves L2 energy —
//! the form of largest-`B`-coefficient synopses; the tree keeps the
//! non-normalized [`crate::haar`]), [`DAUBECHIES_4`], [`DAUBECHIES_6`],
//! [`COIFLET_1`] and [`SYMLET_4`] (coefficients from the standard tables;
//! each is checked for orthonormality by the test suite).

use crate::error::WaveletError;
use crate::is_power_of_two;

/// A compactly supported orthogonal scaling filter.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthogonalFilter {
    name: &'static str,
    taps: Vec<f64>,
}

/// The orthonormal Haar (db1) scaling filter. Its pyramid order is the
/// breadth-first order of [`crate::haar`], each coefficient scaled by the
/// square root of its block's width.
pub fn haar() -> OrthogonalFilter {
    let tap = std::f64::consts::FRAC_1_SQRT_2;
    OrthogonalFilter::new("haar", vec![tap, tap])
}

/// The Daubechies-4 (db2) scaling filter.
pub fn daubechies_4() -> OrthogonalFilter {
    OrthogonalFilter::new(
        "daubechies-4",
        vec![
            0.482_962_913_144_690_2,
            0.836_516_303_737_469,
            0.224_143_868_041_857_36,
            -0.129_409_522_550_921_42,
        ],
    )
}

/// The Daubechies-6 (db3) scaling filter.
pub fn daubechies_6() -> OrthogonalFilter {
    OrthogonalFilter::new(
        "daubechies-6",
        vec![
            0.332_670_552_950_082_6,
            0.806_891_509_311_092_3,
            0.459_877_502_118_491_4,
            -0.135_011_020_010_254_6,
            -0.085_441_273_882_026_7,
            0.035_226_291_885_709_5,
        ],
    )
}

/// The Coiflet-1 (coif1) scaling filter.
pub fn coiflet_1() -> OrthogonalFilter {
    OrthogonalFilter::new(
        "coiflet-1",
        vec![
            -0.015_655_728_135_464_5,
            -0.072_732_619_512_853_9,
            0.384_864_846_864_203,
            0.852_572_020_212_255_4,
            0.337_897_662_457_809_2,
            -0.072_732_619_512_853_9,
        ],
    )
}

/// The Symlet-4 (sym4) scaling filter.
pub fn symlet_4() -> OrthogonalFilter {
    OrthogonalFilter::new(
        "symlet-4",
        vec![
            -0.075_765_714_789_273_33,
            -0.029_635_527_645_998_51,
            0.497_618_667_632_015_45,
            0.803_738_751_805_916_1,
            0.297_857_795_605_277_36,
            -0.099_219_543_576_847_22,
            -0.012_603_967_262_037_833,
            0.032_223_100_604_042_7,
        ],
    )
}

/// Alias kept for discoverability alongside the constants' names in docs.
pub const DAUBECHIES_4: fn() -> OrthogonalFilter = daubechies_4;
/// See [`daubechies_6`].
pub const DAUBECHIES_6: fn() -> OrthogonalFilter = daubechies_6;
/// See [`coiflet_1`].
pub const COIFLET_1: fn() -> OrthogonalFilter = coiflet_1;
/// See [`symlet_4`].
pub const SYMLET_4: fn() -> OrthogonalFilter = symlet_4;

impl OrthogonalFilter {
    /// Wrap a scaling filter. The taps must number at least two and be
    /// even in count; orthonormality is the caller's responsibility (the
    /// predefined filters are tested).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two taps or an odd count is supplied.
    pub fn new(name: &'static str, taps: Vec<f64>) -> Self {
        assert!(
            taps.len() >= 2 && taps.len().is_multiple_of(2),
            "need an even tap count >= 2"
        );
        OrthogonalFilter { name, taps }
    }

    /// Filter name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The scaling (low-pass) taps `h`.
    pub fn scaling(&self) -> &[f64] {
        &self.taps
    }

    /// The wavelet (high-pass) taps `g[t] = (−1)^t h[T−1−t]`.
    pub fn wavelet(&self) -> Vec<f64> {
        let t_len = self.taps.len();
        (0..t_len)
            .map(|t| {
                let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
                sign * self.taps[t_len - 1 - t]
            })
            .collect()
    }

    /// One periodic analysis step: `signal` (even length >= tap count)
    /// into `avg`/`det` halves.
    pub fn forward_step(&self, signal: &[f64], avg: &mut [f64], det: &mut [f64]) {
        let n = signal.len();
        let m = n / 2;
        debug_assert!(n.is_multiple_of(2) && avg.len() == m && det.len() == m);
        let g = self.wavelet();
        let h = &self.taps;
        for i in 0..m {
            let mut a = 0.0;
            let mut d = 0.0;
            for (t, (&ht, &gt)) in h.iter().zip(&g).enumerate() {
                let s = signal[(2 * i + t) % n];
                a += ht * s;
                d += gt * s;
            }
            avg[i] = a;
            det[i] = d;
        }
    }

    /// One periodic synthesis step: exact inverse of
    /// [`OrthogonalFilter::forward_step`].
    pub fn inverse_step(&self, avg: &[f64], det: &[f64], signal: &mut [f64]) {
        let m = avg.len();
        let n = 2 * m;
        debug_assert!(det.len() == m && signal.len() == n);
        let g = self.wavelet();
        let h = &self.taps;
        signal.fill(0.0);
        for i in 0..m {
            for (t, (&ht, &gt)) in h.iter().zip(&g).enumerate() {
                signal[(2 * i + t) % n] += ht * avg[i] + gt * det[i];
            }
        }
    }

    /// Full multilevel decomposition in pyramid order (final approximation
    /// block first, then detail blocks coarsest to finest). Recursion
    /// stops when the block is shorter than the filter.
    ///
    /// # Errors
    ///
    /// [`WaveletError::NotPowerOfTwo`] unless the length is a nonzero
    /// power of two.
    pub fn forward(&self, signal: &[f64]) -> Result<Vec<f64>, WaveletError> {
        let n = signal.len();
        if !is_power_of_two(n) {
            return Err(WaveletError::NotPowerOfTwo { len: n });
        }
        if n < self.taps.len() {
            return Ok(signal.to_vec());
        }
        let mut out = vec![0.0; n];
        let mut current = signal.to_vec();
        let mut detail_end = n;
        while current.len() >= self.taps.len() {
            let m = current.len() / 2;
            let mut avg = vec![0.0; m];
            let mut det = vec![0.0; m];
            self.forward_step(&current, &mut avg, &mut det);
            out[detail_end - m..detail_end].copy_from_slice(&det);
            detail_end -= m;
            current = avg;
        }
        out[..current.len()].copy_from_slice(&current);
        Ok(out)
    }

    /// Full multilevel reconstruction (inverse of
    /// [`OrthogonalFilter::forward`]).
    ///
    /// # Errors
    ///
    /// [`WaveletError::NotPowerOfTwo`] unless the length is a nonzero
    /// power of two.
    pub fn inverse(&self, coeffs: &[f64]) -> Result<Vec<f64>, WaveletError> {
        let n = coeffs.len();
        if !is_power_of_two(n) {
            return Err(WaveletError::NotPowerOfTwo { len: n });
        }
        if n < self.taps.len() {
            return Ok(coeffs.to_vec());
        }
        // Find the coarsest block length: halve until below the taps.
        let mut approx_len = n;
        while approx_len >= self.taps.len() {
            approx_len /= 2;
        }
        let mut current = coeffs[..approx_len].to_vec();
        let mut detail_start = approx_len;
        while detail_start < n {
            let m = current.len();
            let det = &coeffs[detail_start..detail_start + m];
            let mut next = vec![0.0; 2 * m];
            self.inverse_step(&current, det, &mut next);
            current = next;
            detail_start += m;
        }
        Ok(current)
    }
}

/// All predefined filters, for iteration in tests.
pub fn predefined() -> Vec<OrthogonalFilter> {
    vec![
        haar(),
        daubechies_4(),
        daubechies_6(),
        coiflet_1(),
        symlet_4(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_are_orthonormal() {
        for f in predefined() {
            let h = f.scaling();
            let sum: f64 = h.iter().sum();
            assert!(
                (sum - std::f64::consts::SQRT_2).abs() < 1e-6,
                "{}: sum {sum}",
                f.name()
            );
            let norm: f64 = h.iter().map(|x| x * x).sum();
            assert!((norm - 1.0).abs() < 1e-6, "{}: norm {norm}", f.name());
            // Shift-by-2 orthogonality.
            for shift in (2..h.len()).step_by(2) {
                let dot: f64 = h[shift..].iter().zip(h).map(|(a, b)| a * b).sum();
                assert!(dot.abs() < 1e-6, "{} shift {shift}: {dot}", f.name());
            }
            // Wavelet filter orthogonal to scaling filter.
            let g = f.wavelet();
            let dot: f64 = h.iter().zip(&g).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < 1e-6, "{}: h.g = {dot}", f.name());
        }
    }

    #[test]
    fn single_step_roundtrip_all_filters() {
        for f in predefined() {
            let n = 32;
            let sig: Vec<f64> = (0..n).map(|i| ((i * 11) % 13) as f64 - 6.0).collect();
            let mut avg = vec![0.0; n / 2];
            let mut det = vec![0.0; n / 2];
            f.forward_step(&sig, &mut avg, &mut det);
            let mut back = vec![0.0; n];
            f.inverse_step(&avg, &det, &mut back);
            for (a, b) in sig.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8, "{}: {a} vs {b}", f.name());
            }
        }
    }

    #[test]
    fn multilevel_roundtrip_all_filters() {
        for f in predefined() {
            for n in [16usize, 64, 256] {
                let sig: Vec<f64> = (0..n)
                    .map(|i| (i as f64 * 0.17).sin() * 5.0 + 1.0)
                    .collect();
                let coeffs = f.forward(&sig).unwrap();
                let back = f.inverse(&coeffs).unwrap();
                for (i, (a, b)) in sig.iter().zip(&back).enumerate() {
                    assert!((a - b).abs() < 1e-7, "{} n={n} i={i}: {a} vs {b}", f.name());
                }
            }
        }
    }

    #[test]
    fn energy_preserved_all_filters() {
        for f in predefined() {
            let sig: Vec<f64> = (0..128).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
            let coeffs = f.forward(&sig).unwrap();
            let e1: f64 = sig.iter().map(|x| x * x).sum();
            let e2: f64 = coeffs.iter().map(|x| x * x).sum();
            assert!(
                (e1 - e2).abs() < 1e-6 * e1.max(1.0),
                "{}: {e1} vs {e2}",
                f.name()
            );
            // Parseval: zeroing a suffix of the coefficients and inverting
            // costs exactly the energy of what was dropped.
            for keep in [1usize, 9, 64] {
                let mut truncated = coeffs.clone();
                truncated[keep..].fill(0.0);
                let approx = f.inverse(&truncated).unwrap();
                let err: f64 = sig
                    .iter()
                    .zip(&approx)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                let dropped: f64 = coeffs[keep..].iter().map(|c| c * c).sum();
                assert!(
                    (err - dropped).abs() < 1e-6 * dropped.max(1.0),
                    "{} keep {keep}: {err} vs {dropped}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn two_tap_haar_is_the_scaled_non_normalized_transform() {
        let n = 64;
        let sig: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
        let ortho = haar().forward(&sig).unwrap();
        let plain = crate::haar::forward(&sig).unwrap();
        for (c, (a, b)) in ortho.iter().zip(&plain).enumerate() {
            // Entry c >= 1 describes a block of n >> floor(log2 c) values,
            // entry 0 the whole signal.
            let halvings = (usize::BITS - c.leading_zeros()).max(1) - 1;
            let width = (n >> halvings) as f64;
            assert!(
                (a - b * width.sqrt()).abs() < 1e-9 * (1.0 + a.abs()),
                "entry {c}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn vanishing_moments_annihilate_polynomials() {
        // db2 has 2 vanishing moments: the details of a linear ramp vanish
        // except the last, which straddles the periodic wrap-around.
        let ramp: Vec<f64> = (0..32).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut avg = vec![0.0; 16];
        let mut det = vec![0.0; 16];
        daubechies_4().forward_step(&ramp, &mut avg, &mut det);
        for d in &det[..15] {
            assert!(d.abs() < 1e-9, "interior detail {d} should vanish");
        }
        assert!(det[15].abs() > 1.0);

        // db3 has 3: on a *quadratic* signal db3's interior detail
        // coefficients vanish while db2's do not (boundary coefficients are
        // excluded — periodic wrap-around sees the polynomial's jump).
        let n = 256;
        let sig: Vec<f64> = (0..n)
            .map(|i| (i as f64 / n as f64).powi(2) * 10.0)
            .collect();
        let interior_energy = |f: &OrthogonalFilter| {
            let m = n / 2;
            let mut avg = vec![0.0; m];
            let mut det = vec![0.0; m];
            f.forward_step(&sig, &mut avg, &mut det);
            det[..m - 4].iter().map(|x| x * x).sum::<f64>()
        };
        let d4 = interior_energy(&daubechies_4()); // 2 vanishing moments
        let d6 = interior_energy(&daubechies_6()); // 3 vanishing moments
        assert!(d6 < 1e-20, "db3 must annihilate quadratics, got {d6}");
        assert!(d4 > 1e-9, "db2 must not, got {d4}");
    }

    #[test]
    fn short_signals_pass_through() {
        for f in predefined() {
            for n in [1usize, 2, 4, 8]
                .into_iter()
                .filter(|&n| n < f.scaling().len())
            {
                let sig: Vec<f64> = (1..=n).map(|i| i as f64).collect();
                assert_eq!(f.forward(&sig).unwrap(), sig, "{} n={n}", f.name());
                assert_eq!(f.inverse(&sig).unwrap(), sig, "{} n={n}", f.name());
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        for f in predefined() {
            for n in [0usize, 3, 12] {
                assert!(f.forward(&vec![0.0; n]).is_err(), "{} n={n}", f.name());
                assert!(f.inverse(&vec![0.0; n]).is_err(), "{} n={n}", f.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "even tap count")]
    fn odd_taps_rejected() {
        let _ = OrthogonalFilter::new("bad", vec![1.0, 2.0, 3.0]);
    }
}
