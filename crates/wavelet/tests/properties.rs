//! Property-based tests for the wavelet substrate.

use proptest::prelude::*;
use swat_wavelet::{filterbank, haar, HaarCoeffs};

/// A random power-of-two-length signal with values in a bounded range.
fn signal(max_log: u32) -> impl Strategy<Value = Vec<f64>> {
    (0..=max_log).prop_flat_map(|log| {
        let n = 1usize << log;
        prop::collection::vec(-1000.0..1000.0f64, n..=n)
    })
}

proptest! {
    #[test]
    fn haar_roundtrip(sig in signal(9)) {
        let coeffs = haar::forward(&sig).unwrap();
        let back = haar::inverse(&coeffs, sig.len()).unwrap();
        for (a, b) in sig.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Every predefined orthogonal filter bank inverts its own transform
    /// and preserves energy (Parseval).
    #[test]
    fn filterbank_roundtrip_and_parseval(sig in signal(9)) {
        for f in filterbank::predefined() {
            let coeffs = f.forward(&sig).unwrap();
            let back = f.inverse(&coeffs).unwrap();
            for (a, b) in sig.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6, "{}: {} vs {}", f.name(), a, b);
            }
            let e1: f64 = sig.iter().map(|x| x * x).sum();
            let e2: f64 = coeffs.iter().map(|x| x * x).sum();
            prop_assert!((e1 - e2).abs() <= 1e-6 * e1.max(1.0), "{}: {} vs {}", f.name(), e1, e2);
        }
    }

    #[test]
    fn haar_point_agrees_with_inverse(sig in signal(8), k in 1usize..64) {
        let coeffs = haar::forward(&sig).unwrap();
        let k = k.min(coeffs.len());
        let full = haar::inverse(&coeffs[..k], sig.len()).unwrap();
        for (idx, &f) in full.iter().enumerate() {
            let p = haar::point(&coeffs[..k], sig.len(), idx).unwrap();
            prop_assert!((p - f).abs() < 1e-6);
        }
    }

    /// The heart of the SWAT update: merging truncated summaries of two
    /// halves equals transforming the concatenation and truncating.
    #[test]
    fn merge_commutes_with_truncation(
        halves in (0u32..=7).prop_flat_map(|log| {
            let n = 1usize << log;
            (
                prop::collection::vec(-100.0..100.0f64, n..=n),
                prop::collection::vec(-100.0..100.0f64, n..=n),
            )
        }),
        k in 1usize..32,
    ) {
        let (x, y) = halves;
        let newer = HaarCoeffs::from_signal(&x, k).unwrap();
        let older = HaarCoeffs::from_signal(&y, k).unwrap();
        let merged = HaarCoeffs::merge(&newer, &older, k).unwrap();
        let mut combined = x.clone();
        combined.extend_from_slice(&y);
        let direct = HaarCoeffs::from_signal(&combined, k).unwrap();
        prop_assert_eq!(merged.len(), direct.len());
        prop_assert_eq!(merged.stored(), direct.stored());
        for (a, b) in merged.coefficients().iter().zip(direct.coefficients()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Reconstruction error shrinks (weakly) as more coefficients are kept.
    #[test]
    fn more_coefficients_never_hurt_l2_error(sig in signal(6)) {
        let n = sig.len();
        let mut prev_err = f64::INFINITY;
        for k in 1..=n {
            let c = HaarCoeffs::from_signal(&sig, k).unwrap();
            let rec = c.reconstruct();
            let err: f64 = sig.iter().zip(&rec).map(|(a, b)| (a - b) * (a - b)).sum();
            // Haar BFS prefixes are orthogonal projections onto nested
            // subspaces, so error is monotone nonincreasing in k.
            prop_assert!(err <= prev_err + 1e-6, "k={} err={} prev={}", k, err, prev_err);
            prev_err = err;
        }
        prop_assert!(prev_err < 1e-6, "full reconstruction must be exact");
    }

    /// The average survives any truncation exactly.
    #[test]
    fn average_invariant(sig in signal(8), k in 1usize..16) {
        let mean = sig.iter().sum::<f64>() / sig.len() as f64;
        let c = HaarCoeffs::from_signal(&sig, k).unwrap();
        prop_assert!((c.average() - mean).abs() < 1e-6);
        let rec = c.reconstruct();
        let rec_mean = rec.iter().sum::<f64>() / rec.len() as f64;
        prop_assert!((rec_mean - mean).abs() < 1e-6);
    }
}
