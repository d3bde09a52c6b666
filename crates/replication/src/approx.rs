//! Segment approximations replicated by SWAT-ASR.
//!
//! The paper's §3 develops the replication algorithm for the
//! 1-coefficient case, where the approximation of a segment is a range
//! `[d_L, d_H]`, and sketches the general case: "the client would
//! maintain the desired number of coefficients and a range denoting the
//! maximum deviation of the true value from that computed using inverse
//! transform on the coefficients."
//!
//! [`SegmentApprox`] abstracts exactly that choice so one ADR engine
//! serves both:
//!
//! * [`RangeApprox`] — the paper's mainline: `[min, max]` per segment,
//!   answered by the midpoint, update suppressed when the old range
//!   encloses the new.
//! * [`CoeffApprox`] — the general case: `k` Haar coefficients plus the
//!   max deviation `dev` of true values from the reconstruction. An
//!   update is suppressed when the stale copy is still *provably* sound:
//!   `max_i |old_i − new_i| + dev_new ≤ dev_old` implies
//!   `|truth − old_i| ≤ dev_old` by the triangle inequality, so a client
//!   holding the old summary keeps honoring its advertised deviation.

use swat_tree::ValueRange;
use swat_wavelet::HaarCoeffs;

/// An approximation of one window segment that SWAT-ASR can replicate.
pub trait SegmentApprox: Clone + PartialEq + std::fmt::Debug {
    /// Build from the segment's current exact values (newest first). The
    /// slice may be shorter than the segment during warm-up; never empty.
    fn from_segment(values_newest_first: &[f64], k: usize) -> Self;

    /// Whether a client holding `old` remains sound when the source's
    /// approximation becomes `new` — if so the update need not propagate
    /// (the paper's enclosure test, generalized).
    fn suppresses(old: &Self, new: &Self) -> bool;

    /// Approximate value at `offset` within the segment (0 = the
    /// segment's newest index).
    fn value_at(&self, offset: usize) -> f64;

    /// Sound bound on `2 × |truth − value_at(·)|` — the "width" the
    /// query admission test weighs, scaled like the paper's range width.
    fn uncertainty(&self) -> f64;
}

/// The paper's 1-coefficient approximation: the exact `[min, max]` range.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeApprox(pub ValueRange);

impl RangeApprox {
    /// The underlying range.
    pub fn range(&self) -> ValueRange {
        self.0
    }
}

impl SegmentApprox for RangeApprox {
    fn from_segment(values: &[f64], _k: usize) -> Self {
        RangeApprox(ValueRange::of(values))
    }

    fn suppresses(old: &Self, new: &Self) -> bool {
        old.0.encloses(&new.0)
    }

    fn value_at(&self, _offset: usize) -> f64 {
        self.0.midpoint()
    }

    fn uncertainty(&self) -> f64 {
        self.0.width()
    }
}

/// The general case: `k` Haar coefficients plus the maximum deviation of
/// the true segment values from the truncated reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct CoeffApprox {
    coeffs: HaarCoeffs,
    deviation: f64,
    /// True segment length (the coefficient signal may be padded up to a
    /// power of two during warm-up).
    len: usize,
}

impl CoeffApprox {
    /// The stored coefficients.
    pub fn coeffs(&self) -> &HaarCoeffs {
        &self.coeffs
    }

    /// Max deviation of truth from the reconstruction, at publication.
    pub fn deviation(&self) -> f64 {
        self.deviation
    }
}

impl SegmentApprox for CoeffApprox {
    fn from_segment(values: &[f64], k: usize) -> Self {
        assert!(!values.is_empty(), "segment must hold at least one value");
        // Pad to a power of two with the oldest value (only relevant
        // during warm-up; full segments are dyadic already).
        let mut padded = values.to_vec();
        let n = values.len().next_power_of_two();
        padded.resize(n, *values.last().expect("nonempty"));
        let coeffs =
            HaarCoeffs::from_signal(&padded, k.max(1)).expect("padded segment is a power of two");
        let deviation = padded
            .iter()
            .enumerate()
            .map(|(i, &v)| (v - coeffs.value_at(i)).abs())
            .fold(0.0, f64::max);
        CoeffApprox {
            coeffs,
            deviation,
            len: values.len(),
        }
    }

    fn suppresses(old: &Self, new: &Self) -> bool {
        if old.coeffs.len() != new.coeffs.len() || old.len != new.len {
            return false;
        }
        // Triangle inequality: a stale copy stays sound iff its advertised
        // deviation still covers the drift plus the fresh deviation.
        let drift = (0..new.len)
            .map(|i| (old.coeffs.value_at(i) - new.coeffs.value_at(i)).abs())
            .fold(0.0, f64::max);
        drift + new.deviation <= old.deviation
    }

    fn value_at(&self, offset: usize) -> f64 {
        self.coeffs.value_at(offset.min(self.coeffs.len() - 1))
    }

    fn uncertainty(&self) -> f64 {
        2.0 * self.deviation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_approx_mirrors_value_range() {
        let a = RangeApprox::from_segment(&[3.0, 9.0, 5.0], 1);
        assert_eq!(a.range(), ValueRange::new(3.0, 9.0));
        assert_eq!(a.value_at(0), 6.0);
        assert_eq!(a.value_at(2), 6.0);
        assert_eq!(a.uncertainty(), 6.0);
        let tighter = RangeApprox::from_segment(&[4.0, 8.0], 1);
        assert!(RangeApprox::suppresses(&a, &tighter));
        assert!(!RangeApprox::suppresses(&tighter, &a));
    }

    #[test]
    fn coeff_approx_is_sound_at_publication() {
        let values = [7.0, 3.0, 9.0, 1.0];
        for k in [1usize, 2, 4] {
            let a = CoeffApprox::from_segment(&values, k);
            for (i, &v) in values.iter().enumerate() {
                assert!(
                    (v - a.value_at(i)).abs() <= a.deviation() + 1e-12,
                    "k={k} i={i}"
                );
            }
        }
        // Full budget is exact.
        let a = CoeffApprox::from_segment(&values, 4);
        assert!(a.deviation() < 1e-12);
    }

    #[test]
    fn coeff_uncertainty_shrinks_with_k() {
        let values: Vec<f64> = (0..8).map(|i| ((i * 13) % 7) as f64).collect();
        let u1 = CoeffApprox::from_segment(&values, 1).uncertainty();
        let u4 = CoeffApprox::from_segment(&values, 4).uncertainty();
        let u8 = CoeffApprox::from_segment(&values, 8).uncertainty();
        assert!(u4 <= u1 + 1e-12);
        assert!(u8 <= 1e-12);
    }

    #[test]
    fn coeff_suppression_is_sound() {
        // If suppresses(old, new) holds, every value consistent with the
        // new approximation is within old's advertised deviation of old's
        // reconstruction.
        let old_vals = [10.0, 12.0, 30.0, 32.0];
        let old = CoeffApprox::from_segment(&old_vals, 2);
        // A slightly shifted segment.
        let new_vals = [10.5, 11.5, 30.5, 31.5];
        let new = CoeffApprox::from_segment(&new_vals, 2);
        if CoeffApprox::suppresses(&old, &new) {
            for (i, &truth) in new_vals.iter().enumerate() {
                assert!(
                    (truth - old.value_at(i)).abs() <= old.deviation() + 1e-9,
                    "suppression claimed soundness it cannot honor at {i}"
                );
            }
        }
        // A wildly different segment must not be suppressed by a tight old.
        let far = CoeffApprox::from_segment(&[90.0, 91.0, 92.0, 93.0], 2);
        assert!(!CoeffApprox::suppresses(&old, &far));
    }

    #[test]
    fn warmup_padding_handles_odd_lengths() {
        let a = CoeffApprox::from_segment(&[5.0, 7.0, 9.0], 2);
        assert!(a.value_at(0).is_finite());
        assert!(a.value_at(2).is_finite());
        assert!(a.uncertainty() >= 0.0);
    }
}
