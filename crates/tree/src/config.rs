//! Configuration and error types for the SWAT tree.

use std::fmt;
use swat_wavelet::is_power_of_two;

use crate::query::QueryOptions;

/// Configuration of a [`crate::SwatTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwatConfig {
    window: usize,
    coefficients: usize,
    min_level: usize,
}

impl SwatConfig {
    /// A tree over a sliding window of `window` values (a power of two,
    /// at least 2) keeping one coefficient per node — the configuration the
    /// paper uses throughout ("a single coefficient (representing the
    /// average) is being maintained").
    ///
    /// # Errors
    ///
    /// [`TreeError::BadWindow`] unless `window` is a power of two >= 2.
    pub fn new(window: usize) -> Result<Self, TreeError> {
        Self::with_coefficients(window, 1)
    }

    /// As [`SwatConfig::new`] but keeping up to `k` Haar coefficients per
    /// node (k >= 1). More coefficients mean finer per-node detail at
    /// proportionally more space; `k = window` is lossless.
    ///
    /// # Errors
    ///
    /// [`TreeError::BadWindow`] or [`TreeError::BadCoefficients`].
    pub fn with_coefficients(window: usize, k: usize) -> Result<Self, TreeError> {
        if window < 2 || !is_power_of_two(window) {
            return Err(TreeError::BadWindow { window });
        }
        if k == 0 {
            return Err(TreeError::BadCoefficients { k });
        }
        Ok(SwatConfig {
            window,
            coefficients: k,
            min_level: 0,
        })
    }

    /// The same configuration operating in the paper's §2.5
    /// reduced-resolution mode: default query evaluation uses only tree
    /// levels `>= min_level` ("a client can choose to approximate the
    /// stream at any level"). `min_level = 0` is full resolution.
    ///
    /// This is part of the tree's configuration — not just a per-query
    /// option — so snapshots round-trip it and a restored tree answers
    /// its default queries identically.
    ///
    /// # Errors
    ///
    /// [`TreeError::BadMinLevel`] if `min_level >= log2(window)`.
    pub fn with_min_level(mut self, min_level: usize) -> Result<Self, TreeError> {
        if min_level >= self.levels() {
            return Err(TreeError::BadMinLevel {
                min_level,
                levels: self.levels(),
            });
        }
        self.min_level = min_level;
        Ok(self)
    }

    /// Sliding-window size `N`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Per-node coefficient budget `k`.
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// The configured reduced-resolution floor (0 = full resolution).
    pub fn min_level(&self) -> usize {
        self.min_level
    }

    /// The [`QueryOptions`] the option-less query entry points use: the
    /// configured `min_level`.
    pub fn default_opts(&self) -> QueryOptions {
        QueryOptions {
            min_level: self.min_level,
        }
    }

    /// Number of tree levels, `n = log2(N)`.
    pub fn levels(&self) -> usize {
        swat_wavelet::log2(self.window) as usize
    }

    /// Total node count, `3 log N - 2` (top level holds a single node).
    pub fn node_count(&self) -> usize {
        3 * self.levels() - 2
    }
}

/// Errors from constructing or querying a SWAT tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// Window size must be a power of two, at least 2.
    BadWindow {
        /// The offending window size.
        window: usize,
    },
    /// Coefficient budget must be at least 1.
    BadCoefficients {
        /// The offending budget.
        k: usize,
    },
    /// The reduced-resolution floor must name an existing level.
    BadMinLevel {
        /// The offending floor.
        min_level: usize,
        /// Levels the window induces.
        levels: usize,
    },
    /// Bulk initialization got the wrong number of values.
    BadInitLength {
        /// Number of values supplied.
        got: usize,
        /// Window size expected.
        want: usize,
    },
    /// A queried index lies outside the sliding window.
    IndexOutOfWindow {
        /// The offending index.
        index: usize,
        /// Window size.
        window: usize,
    },
    /// The tree has not yet seen enough data to cover the queried index
    /// (still warming up).
    Uncovered {
        /// The first index the tree could not cover.
        index: usize,
    },
    /// An inner-product query was malformed (empty, or mismatched
    /// index/weight lengths, or duplicate indices).
    BadQuery {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A stream value was NaN or infinite (fallible ingestion only; the
    /// panicking entry points assert instead).
    NonFinite {
        /// Zero-based stream position of the offending value (the arrival
        /// count it would have had).
        position: u64,
    },
    /// A synchronized row had the wrong number of values for its set.
    RowArity {
        /// Values supplied.
        got: usize,
        /// Streams in the set.
        want: usize,
    },
    /// A synchronized row held a NaN or infinite value; no stream of the
    /// set ingested anything from it.
    NonFiniteInRow {
        /// Index of the first offending stream.
        stream: usize,
    },
    /// Restoring a tree supplied the wrong number of level queues.
    RestoredLevelCount {
        /// Queues supplied.
        got: usize,
        /// Levels the configuration demands.
        want: usize,
    },
    /// A restored summary sat in the queue of a different level.
    RestoredLevelMismatch {
        /// Level of the queue the summary was found in.
        queue: usize,
        /// Level recorded in the summary itself.
        summary: usize,
    },
    /// A restored summary claimed a creation time after the tree's clock.
    RestoredFromFuture {
        /// The summary's creation time.
        created_at: u64,
        /// The tree's arrival count.
        now: u64,
    },
    /// A restored level queue held more generations than the level
    /// retains.
    RestoredOverCapacity {
        /// The offending level.
        level: usize,
        /// Summaries supplied for it.
        got: usize,
        /// Generations the level retains (3, or 1 at the top).
        capacity: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::BadWindow { window } => {
                write!(f, "window size {window} must be a power of two >= 2")
            }
            TreeError::BadCoefficients { k } => {
                write!(f, "coefficient budget {k} must be >= 1")
            }
            TreeError::BadMinLevel { min_level, levels } => {
                write!(
                    f,
                    "min level {min_level} must be below the level count {levels}"
                )
            }
            TreeError::BadInitLength { got, want } => {
                write!(f, "initial window has {got} values, expected {want}")
            }
            TreeError::IndexOutOfWindow { index, window } => {
                write!(f, "index {index} outside sliding window of size {window}")
            }
            TreeError::Uncovered { index } => write!(
                f,
                "index {index} not yet covered by any summary (tree warming up)"
            ),
            TreeError::BadQuery { reason } => write!(f, "malformed query: {reason}"),
            TreeError::NonFinite { position } => {
                write!(f, "stream value at position {position} is not finite")
            }
            TreeError::RowArity { got, want } => {
                write!(f, "row arity mismatch: {got} values for {want} streams")
            }
            TreeError::NonFiniteInRow { stream } => {
                write!(f, "row value for stream {stream} is not finite")
            }
            TreeError::RestoredLevelCount { got, want } => {
                write!(f, "restored tree has {got} level queues, expected {want}")
            }
            TreeError::RestoredLevelMismatch { queue, summary } => write!(
                f,
                "restored summary labeled level {summary} found in level-{queue} queue"
            ),
            TreeError::RestoredFromFuture { created_at, now } => write!(
                f,
                "restored summary created at {created_at}, after the tree's clock {now}"
            ),
            TreeError::RestoredOverCapacity {
                level,
                got,
                capacity,
            } => write!(
                f,
                "restored level {level} has {got} summaries, retains at most {capacity}"
            ),
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        let c = SwatConfig::new(16).unwrap();
        assert_eq!(c.window(), 16);
        assert_eq!(c.coefficients(), 1);
        assert_eq!(c.levels(), 4);
        assert_eq!(c.node_count(), 10); // 3*4 - 2, as in the paper

        let c = SwatConfig::with_coefficients(1024, 8).unwrap();
        assert_eq!(c.levels(), 10);
        assert_eq!(c.node_count(), 28);
        assert_eq!(c.coefficients(), 8);
        assert_eq!(c.min_level(), 0);
        assert_eq!(c.default_opts(), QueryOptions::default());
    }

    #[test]
    fn min_level_configs() {
        let c = SwatConfig::new(16).unwrap().with_min_level(2).unwrap();
        assert_eq!(c.min_level(), 2);
        assert_eq!(c.default_opts(), QueryOptions::at_level(2));
        assert!(matches!(
            SwatConfig::new(16).unwrap().with_min_level(4),
            Err(TreeError::BadMinLevel {
                min_level: 4,
                levels: 4
            })
        ));
    }

    #[test]
    fn invalid_configs() {
        assert!(matches!(
            SwatConfig::new(0),
            Err(TreeError::BadWindow { window: 0 })
        ));
        assert!(matches!(
            SwatConfig::new(1),
            Err(TreeError::BadWindow { .. })
        ));
        assert!(matches!(
            SwatConfig::new(12),
            Err(TreeError::BadWindow { .. })
        ));
        assert!(matches!(
            SwatConfig::with_coefficients(8, 0),
            Err(TreeError::BadCoefficients { k: 0 })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            TreeError::BadWindow { window: 3 },
            TreeError::BadCoefficients { k: 0 },
            TreeError::BadMinLevel {
                min_level: 4,
                levels: 4,
            },
            TreeError::BadInitLength { got: 3, want: 8 },
            TreeError::IndexOutOfWindow {
                index: 20,
                window: 16,
            },
            TreeError::Uncovered { index: 5 },
            TreeError::BadQuery { reason: "empty" },
            TreeError::NonFinite { position: 12 },
            TreeError::RowArity { got: 1, want: 2 },
            TreeError::NonFiniteInRow { stream: 3 },
            TreeError::RestoredLevelCount { got: 3, want: 4 },
            TreeError::RestoredLevelMismatch {
                queue: 1,
                summary: 2,
            },
            TreeError::RestoredFromFuture {
                created_at: 9,
                now: 4,
            },
            TreeError::RestoredOverCapacity {
                level: 0,
                got: 4,
                capacity: 3,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
