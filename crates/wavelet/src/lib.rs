//! Wavelet transform substrate for the SWAT stream summarization system.
//!
//! The SWAT approximation tree (see the `swat-tree` crate) summarizes a
//! sliding window of a data stream by keeping, at every tree node, a small
//! number of wavelet coefficients of the window segment the node covers.
//! This crate provides everything the tree needs from wavelet theory:
//!
//! * [`haar`] — the non-normalized Haar transform (pairwise average /
//!   half-difference) used throughout the paper, with full forward and
//!   inverse multilevel transforms over power-of-two signals,
//! * [`block`] — the lane merge [`merge_pair`]: the sibling merge of the
//!   stored coefficient prefixes of `W` summaries at once (`[f64; W]`
//!   per coefficient), level 0 included, on the one merge core
//!   [`HaarCoeffs::merge`] runs — every merge of `swat-tree`'s per-arrival
//!   and blocked cascades,
//! * [`filterbank`] — periodic orthogonal filter banks, one generic
//!   transform for the paper's remark that "any of the wavelet bases such
//!   as Haar, Daubechies, … can be used": the orthonormal Haar (Parseval
//!   holds), Daubechies-4/6, Coiflet-1 and Symlet-4,
//! * [`thresholded`] — largest-`k` (energy-optimal) synopses in the
//!   style of Gilbert et al., provided for contrast: they beat the
//!   prefix form in L2 for static signals but are not mergeable, which
//!   is why the tree does not use them,
//! * [`topk`] — mergeable top-k coefficient summaries for partitioned
//!   stream sets: each shard's local top-k, whose merge is the exact
//!   one-round distributed top-k of `swat_tree::shard`,
//! * [`HaarCoeffs`] — the central data type: a *truncated* Haar coefficient
//!   vector in breadth-first (coarsest-first) order supporting the exact
//!   `O(k)` sibling **merge** that powers the SWAT update algorithm
//!   (`contents(R_l) := DWT(R_{l-1}, L_{l-1})` in the paper's Figure 3a),
//!   zero-padded reconstruction, and `O(log n)` single-point evaluation.
//!
//! # Coefficient order
//!
//! For a signal of length `2^d` the non-normalized Haar decomposition is
//! stored breadth-first:
//!
//! ```text
//! [ overall average,
//!   depth-1 detail              (1 value),
//!   depth-2 details             (2 values),
//!   ...
//!   depth-d details             (2^(d-1) values) ]
//! ```
//!
//! where the detail of a node equals `(left-child average − right-child
//! average) / 2`. Truncating this vector to its first `k` entries keeps the
//! coarsest structure of the signal, and reconstruction simply substitutes
//! zeros for the missing detail coefficients — exactly the paper's
//! "at each step a zero vector is used as the detail coefficient".
//!
//! # Example
//!
//! ```
//! use swat_wavelet::HaarCoeffs;
//!
//! // Summarize two adjacent segments and merge them into their parent.
//! let newer = HaarCoeffs::from_signal(&[7.0, 5.0], usize::MAX).unwrap();
//! let older = HaarCoeffs::from_signal(&[1.0, 3.0], usize::MAX).unwrap();
//! let parent = HaarCoeffs::merge(&newer, &older, usize::MAX).unwrap();
//! assert_eq!(parent.reconstruct(), vec![7.0, 5.0, 1.0, 3.0]);
//!
//! // Truncation keeps coarse structure: k = 1 keeps just the average.
//! let avg_only = HaarCoeffs::from_signal(&[7.0, 5.0, 1.0, 3.0], 1).unwrap();
//! assert_eq!(avg_only.reconstruct(), vec![4.0; 4]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod coeffs;
pub mod error;
pub mod filterbank;
pub mod haar;
pub mod thresholded;
pub mod topk;

pub use block::merge_pair;
pub use coeffs::{HaarCoeffs, MergeScratch};
pub use error::WaveletError;
pub use filterbank::OrthogonalFilter;
pub use thresholded::ThresholdedCoeffs;
pub use topk::{row_reaches, TopCoeff, TopKSummary};

/// Returns `true` if `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Integer base-2 logarithm of a power of two.
///
/// # Panics
///
/// Panics in debug builds if `n` is not a power of two.
#[inline]
pub fn log2(n: usize) -> u32 {
    debug_assert!(is_power_of_two(n), "log2 of non-power-of-two {n}");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_detection() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(2));
        assert!(is_power_of_two(1024));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(3));
        assert!(!is_power_of_two(1023));
    }

    #[test]
    fn log2_of_powers() {
        assert_eq!(log2(1), 0);
        assert_eq!(log2(2), 1);
        assert_eq!(log2(16), 4);
        assert_eq!(log2(1 << 20), 20);
    }
}
