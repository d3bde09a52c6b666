//! Whole-stream summarization: the growing SWAT.
//!
//! The paper (§2.1–2.3): "our techniques are also applicable in a model
//! where the entire stream (and not just the last N values) are of
//! interest … the number of levels of the approximation tree will grow
//! logarithmically with the size of the stream."
//!
//! [`GrowingSwat`] is that variant: no fixed window, levels appear as the
//! stream lengthens (level `l` materializes at arrival `2^(l+1)`), and
//! any index back to the very first value can be queried — recent values
//! precisely, ancient values through ever coarser summaries. Space is
//! `O(k log t)` after `t` arrivals.
//!
//! It is a [`SwatTree`] whose window stays above the arrival count. A
//! windowed tree's top level, the one that retains a single summary,
//! first fills at arrival `N`; until then every level keeps its newest
//! three summaries, exactly as the whole-stream model does. So the tree
//! runs the windowed update and the windowed query engine unchanged, and
//! just before the arrival that would reach its window it doubles the
//! window in place (`Block::grow`): the still-empty top becomes a level
//! of three slots under a new empty top, and no node moves.

use crate::config::{SwatConfig, TreeError};
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer};
use crate::tree::{SwatTree, TreeView};

/// A SWAT summarizing the *entire* stream at multiple resolutions.
///
/// ```
/// use swat_tree::growing::GrowingSwat;
///
/// let mut s = GrowingSwat::new(1);
/// s.extend((0..10_000).map(|i| (i % 100) as f64));
/// // Index 0 = newest; the whole history is addressable.
/// assert!(s.point(0).is_ok());
/// assert!(s.point(9_000).is_ok());
/// assert!(s.levels() >= 12); // grew logarithmically
/// ```
#[derive(Debug, Clone)]
pub struct GrowingSwat {
    /// A windowed tree whose window is always above its arrival count.
    tree: SwatTree,
}

impl GrowingSwat {
    /// A new growing summary keeping `k` coefficients per node.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "coefficient budget must be positive");
        let config = SwatConfig::with_coefficients(2, k).expect("a positive budget");
        GrowingSwat {
            tree: SwatTree::new(config),
        }
    }

    /// Total arrivals observed.
    pub fn arrivals(&self) -> u64 {
        self.tree.arrivals()
    }

    /// Current number of levels (grows as `log t`).
    pub fn levels(&self) -> usize {
        self.arrivals().checked_ilog2().unwrap_or(0) as usize
    }

    /// Total summaries retained (`<= 3 levels()`).
    pub fn summary_count(&self) -> usize {
        self.tree.summary_count()
    }

    /// Feed one value.
    pub fn push(&mut self, value: f64) {
        if self.arrivals() + 1 == self.tree.config().window() as u64 {
            self.tree.block.grow();
        }
        self.tree.push(value);
    }

    /// Feed a sequence of values.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }

    /// A view of the tree underneath, for reading its nodes
    /// ([`TreeView::nodes`]: levels ascending, newest first within a
    /// level). Its window is an implementation detail above the arrival
    /// count; ask [`GrowingSwat::point`] and
    /// [`GrowingSwat::inner_product`] for answers over the stream.
    pub fn view(&self) -> TreeView<'_> {
        self.tree.view()
    }

    /// `IndexOutOfWindow` for the first of `indices` beyond the stream:
    /// at or past the arrival count.
    fn check(&self, indices: &[usize]) -> Result<(), TreeError> {
        let window = self.arrivals() as usize;
        match indices.iter().find(|&&index| index >= window) {
            Some(&index) => Err(TreeError::IndexOutOfWindow { index, window }),
            None => Ok(()),
        }
    }

    /// Answer a point query for stream index `idx` (0 = newest, `t − 1` =
    /// the very first value).
    ///
    /// # Errors
    ///
    /// [`TreeError::IndexOutOfWindow`] beyond the stream,
    /// [`TreeError::Uncovered`] for the handful of indices no summary
    /// covers while the structure is very young.
    pub fn point(&self, idx: usize) -> Result<PointAnswer, TreeError> {
        self.check(&[idx])?;
        // The newest value is retained raw (it is the update input d_0).
        if let (0, Some(value)) = (idx, self.tree.newest()) {
            return Ok(PointAnswer {
                value,
                error_bound: 0.0,
                level: 0,
                extrapolated: false,
            });
        }
        self.tree.point(idx)
    }

    /// Answer an inner-product query over stream indices (greedy cover as
    /// in the windowed tree).
    ///
    /// # Errors
    ///
    /// As [`GrowingSwat::point`].
    pub fn inner_product(
        &self,
        query: &InnerProductQuery,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.check(query.indices())?;
        self.tree.inner_product(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_grow_logarithmically() {
        let mut s = GrowingSwat::new(1);
        let mut last_levels = 0;
        for milestone in [16usize, 64, 256, 1024, 4096] {
            while s.arrivals() < milestone as u64 {
                s.push((s.arrivals() % 13) as f64);
            }
            let levels = s.levels();
            assert!(levels > last_levels, "levels must grow");
            assert!(
                levels <= (milestone as f64).log2() as usize + 1,
                "at t={milestone}: {levels} levels"
            );
            last_levels = levels;
        }
        // Space stays O(log t).
        assert!(s.summary_count() <= 3 * s.levels());
    }

    #[test]
    fn entire_history_is_addressable_once_mature() {
        let values: Vec<f64> = (0..512).map(|i| ((i * 7) % 23) as f64).collect();
        let mut s = GrowingSwat::new(1);
        s.extend(values.iter().copied());
        let mut covered = 0;
        for idx in 0..512usize {
            match s.point(idx) {
                Ok(a) => {
                    covered += 1;
                    let truth = values[511 - idx];
                    assert!(
                        (a.value - truth).abs() <= a.error_bound + 1e-9,
                        "idx {idx}: |{} - {truth}| > {}",
                        a.value,
                        a.error_bound
                    );
                }
                Err(TreeError::Uncovered { .. }) => {}
                Err(e) => panic!("unexpected error at {idx}: {e}"),
            }
        }
        assert!(covered >= 500, "only {covered}/512 indices covered");
        assert!(s.point(512).is_err(), "beyond the stream");
    }

    #[test]
    fn lossless_growing_tree_is_exact_on_covered_indices() {
        let values: Vec<f64> = (0..256).map(|i| ((i * 31) % 101) as f64).collect();
        let mut s = GrowingSwat::new(usize::MAX);
        s.extend(values.iter().copied());
        for idx in 0..256usize {
            if let Ok(a) = s.point(idx) {
                assert!(
                    (a.value - values[255 - idx]).abs() < 1e-9,
                    "idx {idx}: {} vs {}",
                    a.value,
                    values[255 - idx]
                );
            }
        }
    }

    #[test]
    fn older_indices_get_coarser_answers() {
        let mut s = GrowingSwat::new(1);
        s.extend((0..4096).map(|i| (i % 50) as f64));
        let recent = s.point(1).unwrap();
        let ancient = s.point(3500).unwrap();
        assert!(recent.level < ancient.level);
    }

    #[test]
    fn inner_products_over_history() {
        let mut s = GrowingSwat::new(2);
        let values: Vec<f64> = (0..1024).map(|i| 10.0 + ((i % 10) as f64)).collect();
        s.extend(values.iter().copied());
        let q = InnerProductQuery::exponential(16, 1e9);
        let a = s.inner_product(&q).unwrap();
        let newest_first: Vec<f64> = values.iter().rev().copied().collect();
        let exact = q.exact(&newest_first);
        assert!((a.value - exact).abs() <= a.error_bound + 1e-9);
        assert!(a.nodes_used <= 3 * s.levels());
    }

    #[test]
    fn newest_value_is_exact() {
        let mut s = GrowingSwat::new(1);
        s.extend([5.0, 9.0, 2.0]);
        let a = s.point(0).unwrap();
        assert_eq!(a.value, 2.0);
        assert_eq!(a.error_bound, 0.0);
    }

    #[test]
    fn empty_and_tiny_streams() {
        let s = GrowingSwat::new(1);
        assert!(matches!(
            s.point(0),
            Err(TreeError::IndexOutOfWindow { .. })
        ));
        let mut s = GrowingSwat::new(1);
        s.push(7.0);
        assert_eq!(s.point(0).unwrap().value, 7.0);
        assert_eq!(s.summary_count(), 0, "a single value forms no pair yet");
    }
}
