//! Query evaluation over a [`SwatTree`] — the paper's Figure 3(b).
//!
//! Three query classes are supported, all over window indices where
//! index 0 is the newest value:
//!
//! * **point queries** — a single index ([`SwatTree::point`]),
//! * **inner-product queries** — `(I, W, δ)` triples
//!   ([`SwatTree::inner_product`]), with convenience constructors for the
//!   paper's *exponential* and *linear* weight profiles,
//! * **range queries** — a value rectangle over a time interval
//!   ([`SwatTree::range_query`]).
//!
//! Evaluation follows the paper's greedy cover: walk the nodes from the
//! lowest level upward, `R → S → L` within a level, select every node that
//! covers a still-uncovered query index, then reconstruct the needed
//! values one node at a time. At most `3 log N` nodes are selected and
//! reconstruction costs `O(log N)` per value, for `O(M + log² N)`-flavored
//! totals.
//!
//! Every answer carries a **sound error bound** derived from the exact
//! per-node `[min, max]` ranges: the true answer is guaranteed to be
//! within `error_bound` of the reported value (except for explicitly
//! flagged *extrapolated* answers under reduced-level operation, where no
//! sound bound exists — see [`QueryOptions::min_level`]).
//!
//! Evaluation is carried out by the zero-allocation engine in
//! [`crate::scratch`]; the public methods here route through a
//! thread-local [`crate::QueryScratch`]. The [`reference`](mod@reference) module keeps
//! the original allocating implementations frozen as the bit-identity
//! baseline for property tests and benchmarks.

use crate::config::TreeError;
use crate::node::Summary;
use crate::tree::SwatTree;

/// Options modulating query evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Answer using only tree levels `>= min_level` — the paper's §2.5
    /// reduced-resolution operation ("a client can choose to approximate
    /// the stream at any level"). Higher values trade precision for using
    /// coarser summaries. With `min_level > 0` the freshest few indices
    /// may precede the coarse nodes' coverage; they are then answered by
    /// *extrapolation* from the nearest covered index and the answer is
    /// flagged.
    pub min_level: usize,
}

impl QueryOptions {
    /// Options restricting evaluation to levels `>= m`.
    pub fn at_level(m: usize) -> Self {
        QueryOptions { min_level: m }
    }
}

/// Answer to a point query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAnswer {
    /// The approximate value.
    pub value: f64,
    /// Sound bound on `|true − value|` (unsound if `extrapolated`).
    pub error_bound: f64,
    /// Level of the summary that served the answer.
    pub level: usize,
    /// Whether the index preceded all eligible coverage and was
    /// extrapolated (only possible with `min_level > 0`).
    pub extrapolated: bool,
}

/// The shape of an inner-product weight vector.
///
/// The profile constructors tag their queries as contiguous ascending
/// index runs, so index validation is one comparison instead of a scan;
/// [`WeightProfile::General`] queries are checked index by index. The
/// continuous-query snapshot encodes the tag. It never affects an answer
/// or query equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightProfile {
    /// Arbitrary weights with no known closed form (explicit vectors and
    /// point queries).
    General,
    /// The §2.6 exponential profile: `w_j = (1/2)^j` over a contiguous
    /// index run.
    Exponential,
    /// The linear profile: `w_j = (m − j)/m` over a contiguous index run.
    Linear,
}

/// An inner-product query `(I, W, δ)`: estimate `Σ W[j] · d[I[j]]` to
/// within precision `δ`.
#[derive(Debug, Clone)]
pub struct InnerProductQuery {
    indices: Vec<usize>,
    weights: Vec<f64>,
    delta: f64,
    profile: WeightProfile,
}

// Equality ignores the profile tag: it is a validation hint derivable from the
// weights, not part of the query's meaning.
impl PartialEq for InnerProductQuery {
    fn eq(&self, other: &Self) -> bool {
        self.indices == other.indices && self.weights == other.weights && self.delta == other.delta
    }
}

impl InnerProductQuery {
    /// A query over explicit index and weight vectors.
    ///
    /// # Errors
    ///
    /// [`TreeError::BadQuery`] if the vectors are empty, of different
    /// lengths, contain non-finite weights, or repeat an index.
    pub fn new(indices: Vec<usize>, weights: Vec<f64>, delta: f64) -> Result<Self, TreeError> {
        if indices.is_empty() {
            return Err(TreeError::BadQuery {
                reason: "empty index vector",
            });
        }
        if indices.len() != weights.len() {
            return Err(TreeError::BadQuery {
                reason: "index and weight vectors differ in length",
            });
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(TreeError::BadQuery {
                reason: "non-finite weight",
            });
        }
        // Duplicate detection without scratch allocation: a single pass
        // settles strictly ascending vectors (the common case — the
        // profile constructors and most explicit queries); only unsorted
        // input falls back to the quadratic scan.
        let mut ascending = true;
        for w in indices.windows(2) {
            if w[1] == w[0] {
                return Err(TreeError::BadQuery {
                    reason: "duplicate index",
                });
            }
            if w[1] < w[0] {
                ascending = false;
                break;
            }
        }
        if !ascending {
            for (i, &idx) in indices.iter().enumerate() {
                if indices[..i].contains(&idx) {
                    return Err(TreeError::BadQuery {
                        reason: "duplicate index",
                    });
                }
            }
        }
        // +infinity is allowed: "no precision requirement".
        if delta.is_nan() || delta < 0.0 {
            return Err(TreeError::BadQuery {
                reason: "precision must be >= 0",
            });
        }
        Ok(InnerProductQuery {
            indices,
            weights,
            delta,
            profile: WeightProfile::General,
        })
    }

    /// A point query `([idx], [1], δ)` — the paper's point queries are
    /// exactly this special case.
    pub fn point(idx: usize, delta: f64) -> Self {
        InnerProductQuery {
            indices: vec![idx],
            weights: vec![1.0],
            delta,
            profile: WeightProfile::General,
        }
    }

    /// An *exponential* inner-product query over the `m` values starting
    /// at window index `start`: weights `1, 1/2, 1/4, …` with the newest
    /// queried value weighted most — the biased-towards-recent profile of
    /// the paper's §2.6.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn exponential_at(start: usize, m: usize, delta: f64) -> Self {
        assert!(m > 0, "query length must be positive");
        InnerProductQuery {
            indices: (start..start + m).collect(),
            weights: (0..m).map(|j| 0.5f64.powi(j as i32)).collect(),
            delta,
            profile: WeightProfile::Exponential,
        }
    }

    /// Rewrite `self` in place into [`Self::exponential_at`] form, reusing
    /// the existing vector storage — the identical index and weight
    /// sequences, with zero allocation once capacity has grown to the
    /// largest `m` seen.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn set_exponential_at(&mut self, start: usize, m: usize, delta: f64) {
        assert!(m > 0, "query length must be positive");
        self.indices.clear();
        self.indices.extend(start..start + m);
        self.weights.clear();
        self.weights.extend((0..m).map(|j| 0.5f64.powi(j as i32)));
        self.delta = delta;
        self.profile = WeightProfile::Exponential;
    }

    /// [`Self::exponential_at`] anchored at the newest value (`start = 0`)
    /// — the paper's *fixed query mode*.
    pub fn exponential(m: usize, delta: f64) -> Self {
        Self::exponential_at(0, m, delta)
    }

    /// A *linear* inner-product query over `m` values from `start`:
    /// weights `m/m, (m−1)/m, …, 1/m`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn linear_at(start: usize, m: usize, delta: f64) -> Self {
        assert!(m > 0, "query length must be positive");
        InnerProductQuery {
            indices: (start..start + m).collect(),
            weights: (0..m).map(|j| (m - j) as f64 / m as f64).collect(),
            delta,
            profile: WeightProfile::Linear,
        }
    }

    /// Rewrite `self` in place into [`Self::linear_at`] form, reusing the
    /// existing vector storage (see [`Self::set_exponential_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn set_linear_at(&mut self, start: usize, m: usize, delta: f64) {
        assert!(m > 0, "query length must be positive");
        self.indices.clear();
        self.indices.extend(start..start + m);
        self.weights.clear();
        self.weights
            .extend((0..m).map(|j| (m - j) as f64 / m as f64));
        self.delta = delta;
        self.profile = WeightProfile::Linear;
    }

    /// [`Self::linear_at`] anchored at the newest value.
    pub fn linear(m: usize, delta: f64) -> Self {
        Self::linear_at(0, m, delta)
    }

    /// The index vector `I`.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The weight vector `W`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The precision requirement `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The weight-profile tag (a validation hint; see [`WeightProfile`]).
    pub fn profile(&self) -> WeightProfile {
        self.profile
    }

    /// Re-apply a serialized profile tag, but only after verifying the
    /// weights really have the closed form the tag promises (bitwise —
    /// the constructors are deterministic). Returns whether the tag was
    /// accepted; an untrusted snapshot cannot smuggle a lying hint past
    /// the one-comparison index check.
    pub(crate) fn try_set_profile(&mut self, profile: WeightProfile) -> bool {
        let ok = match profile {
            WeightProfile::General => true,
            WeightProfile::Exponential => {
                self.is_contiguous_run()
                    && self
                        .weights
                        .iter()
                        .enumerate()
                        .all(|(j, w)| w.to_bits() == 0.5f64.powi(j as i32).to_bits())
            }
            WeightProfile::Linear => {
                let m = self.weights.len();
                self.is_contiguous_run()
                    && self
                        .weights
                        .iter()
                        .enumerate()
                        .all(|(j, w)| w.to_bits() == ((m - j) as f64 / m as f64).to_bits())
            }
        };
        if ok {
            self.profile = profile;
        }
        ok
    }

    fn is_contiguous_run(&self) -> bool {
        self.indices
            .windows(2)
            .all(|w| w[1] == w[0].wrapping_add(1))
    }

    /// Number of query entries (`M`).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the query is empty (never true for constructed queries).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Evaluate this query against exact values (`window[i]` = value at
    /// window index `i`): the ground truth `Σ W[j]·d[I[j]]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds for `window`.
    pub fn exact(&self, window: &[f64]) -> f64 {
        self.indices
            .iter()
            .zip(&self.weights)
            .map(|(&i, &w)| w * window[i])
            .sum()
    }
}

/// Answer to an inner-product query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnerProductAnswer {
    /// The approximate inner product.
    pub value: f64,
    /// Sound bound on the absolute error (unsound if `extrapolated > 0`).
    pub error_bound: f64,
    /// Whether `error_bound <= δ`, i.e. the precision contract is met.
    pub meets_precision: bool,
    /// How many tree nodes contributed (at most `3 log N`).
    pub nodes_used: usize,
    /// How many query entries had to be extrapolated (reduced-level mode).
    pub extrapolated: usize,
}

/// A range query: all window values within `center ± radius` among
/// indices `newest..=oldest` (the paper's rectangle in time–value space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// The value of interest `p`.
    pub center: f64,
    /// The radius `ε` around `p`.
    pub radius: f64,
    /// Most recent window index of the interval (inclusive).
    pub newest: usize,
    /// Oldest window index of the interval (inclusive).
    pub oldest: usize,
}

impl RangeQuery {
    /// A new range query over indices `newest..=oldest`.
    ///
    /// # Panics
    ///
    /// Panics if `newest > oldest` or `radius < 0`.
    pub fn new(center: f64, radius: f64, newest: usize, oldest: usize) -> Self {
        assert!(newest <= oldest, "empty index interval");
        assert!(radius >= 0.0, "negative radius");
        RangeQuery {
            center,
            radius,
            newest,
            oldest,
        }
    }
}

/// One match of a range query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeMatch {
    /// The matching window index.
    pub index: usize,
    /// Its approximate value.
    pub value: f64,
}

impl SwatTree {
    /// Validate that every query index is inside the window.
    pub(crate) fn check_indices(&self, indices: &[usize]) -> Result<(), TreeError> {
        let window = self.config().window();
        for &idx in indices {
            if idx >= window {
                return Err(TreeError::IndexOutOfWindow { index: idx, window });
            }
        }
        Ok(())
    }

    /// Answer a point query for window index `idx` (0 = newest).
    ///
    /// # Errors
    ///
    /// [`TreeError::IndexOutOfWindow`] for indices beyond the window,
    /// [`TreeError::Uncovered`] while the tree is still warming up.
    pub fn point(&self, idx: usize) -> Result<PointAnswer, TreeError> {
        self.point_with(idx, self.config().default_opts())
    }

    /// [`Self::point`] with explicit [`QueryOptions`].
    ///
    /// # Errors
    ///
    /// As [`Self::point`]; with `min_level > 0`, uncoverable indices are
    /// extrapolated rather than failing.
    pub fn point_with(&self, idx: usize, opts: QueryOptions) -> Result<PointAnswer, TreeError> {
        crate::scratch::with_thread_scratch(|scratch| self.point_with_scratch(idx, opts, scratch))
    }

    /// Answer an inner-product query `(I, W, δ)` per the paper's
    /// Figure 3(b): greedy node cover, per-node inverse transforms, then
    /// the weighted sum.
    ///
    /// # Errors
    ///
    /// [`TreeError::IndexOutOfWindow`] or, during warm-up with full
    /// resolution, [`TreeError::Uncovered`].
    pub fn inner_product(
        &self,
        query: &InnerProductQuery,
    ) -> Result<InnerProductAnswer, TreeError> {
        self.inner_product_with(query, self.config().default_opts())
    }

    /// [`Self::inner_product`] with explicit [`QueryOptions`].
    ///
    /// # Errors
    ///
    /// As [`Self::inner_product`].
    pub fn inner_product_with(
        &self,
        query: &InnerProductQuery,
        opts: QueryOptions,
    ) -> Result<InnerProductAnswer, TreeError> {
        crate::scratch::with_thread_scratch(|scratch| {
            self.inner_product_with_scratch(query, opts, scratch)
        })
    }

    /// Answer a range query: indices in `newest..=oldest` whose
    /// approximate value lies within `center ± radius`.
    ///
    /// The approximation tree induces a step function over the window
    /// (§2.4); the matches are the intersection of that step function with
    /// the query rectangle. Nodes whose exact `[min, max]` range does not
    /// intersect the padded value band are skipped without reconstruction.
    ///
    /// # Errors
    ///
    /// As [`Self::inner_product`].
    pub fn range_query(&self, query: &RangeQuery) -> Result<Vec<RangeMatch>, TreeError> {
        self.range_query_with(query, self.config().default_opts())
    }

    /// [`Self::range_query`] with explicit [`QueryOptions`].
    ///
    /// # Errors
    ///
    /// As [`Self::range_query`].
    pub fn range_query_with(
        &self,
        query: &RangeQuery,
        opts: QueryOptions,
    ) -> Result<Vec<RangeMatch>, TreeError> {
        let mut matches = Vec::new();
        crate::scratch::with_thread_scratch(|scratch| {
            self.range_query_with_scratch(query, opts, scratch, &mut matches)
        })?;
        Ok(matches)
    }

    /// Reconstruct the whole approximate window, newest first — the step
    /// function the tree induces over the last `N` values.
    ///
    /// # Errors
    ///
    /// [`TreeError::Uncovered`] while warming up.
    pub fn reconstruct_window(&self) -> Result<Vec<f64>, TreeError> {
        let mut out = Vec::new();
        crate::scratch::with_thread_scratch(|scratch| {
            self.reconstruct_window_into(scratch, &mut out)
        })?;
        Ok(out)
    }
}

/// Frozen pre-optimization query implementations — the "slow path".
///
/// These are verbatim copies of the evaluation code as it stood before the
/// zero-allocation query engine ([`crate::scratch`]) landed: a fresh
/// greedy cover with per-call `Vec` allocations, per-node time-domain
/// reconstruction, no caching. They are kept public for two reasons:
///
/// * the equivalence property tests assert the engine's answers are
///   **bit-identical** to these, which is what makes the optimization a
///   correctness harness rather than a leap of faith;
/// * the `swat-bench` query sweep uses them as the pre-PR baseline the
///   speedup ratios in `results/BENCH_query.json` are measured against.
///
/// Do not "improve" this module; its value is that it does not change.
pub mod reference {
    use super::*;

    /// A node selected by the greedy cover, with the query entries it
    /// serves.
    struct CoverEntry<'a> {
        summary: &'a Summary,
        /// Positions *within the query's index vector* this node serves.
        entries: Vec<usize>,
    }

    /// Greedy cover per the paper's `Query_Handler`: traverse nodes from
    /// level `opts.min_level` upward (`R → S → L` within a level), select
    /// each node covering a still-uncovered query index.
    ///
    /// Returns the selected nodes plus the positions of query entries left
    /// uncovered (possible during warm-up or with `min_level > 0`).
    fn cover<'a>(
        tree: &'a SwatTree,
        indices: &[usize],
        opts: QueryOptions,
    ) -> (Vec<CoverEntry<'a>>, Vec<usize>) {
        let now = tree.arrivals();
        let mut covered = vec![false; indices.len()];
        let mut remaining = indices.len();
        let mut selected: Vec<CoverEntry<'a>> = Vec::new();
        for (level, _, summary) in tree.nodes() {
            if level < opts.min_level {
                continue;
            }
            if remaining == 0 {
                break;
            }
            let (start, end) = summary.coverage(now);
            let mut entries = Vec::new();
            for (pos, &idx) in indices.iter().enumerate() {
                if !covered[pos] && (start..=end).contains(&idx) {
                    entries.push(pos);
                    covered[pos] = true;
                    remaining -= 1;
                }
            }
            if !entries.is_empty() {
                selected.push(CoverEntry { summary, entries });
            }
        }
        let uncovered: Vec<usize> = (0..indices.len()).filter(|&p| !covered[p]).collect();
        (selected, uncovered)
    }

    /// The pre-engine [`SwatTree::point_with`].
    ///
    /// # Errors
    ///
    /// As [`SwatTree::point_with`].
    pub fn point_with(
        tree: &SwatTree,
        idx: usize,
        opts: QueryOptions,
    ) -> Result<PointAnswer, TreeError> {
        tree.check_indices(&[idx])?;
        let now = tree.arrivals();
        let (selected, uncovered) = cover(tree, &[idx], opts);
        if let Some(entry) = selected.first() {
            let s = entry.summary;
            return Ok(PointAnswer {
                value: s.value_at(now, idx),
                error_bound: s.error_bound_at(now, idx),
                level: s.level(),
                extrapolated: false,
            });
        }
        debug_assert_eq!(uncovered, vec![0]);
        if opts.min_level == 0 {
            return Err(TreeError::Uncovered { index: idx });
        }
        // Reduced-level mode: extrapolate from the freshest eligible node.
        let nearest = tree
            .nodes()
            .filter(|(l, _, _)| *l >= opts.min_level)
            .min_by_key(|(_, _, s)| s.coverage(now).0)
            .ok_or(TreeError::Uncovered { index: idx })?;
        let (_, _, s) = nearest;
        let (start, _) = s.coverage(now);
        Ok(PointAnswer {
            value: s.value_at(now, start),
            error_bound: s.range().width(),
            level: s.level(),
            extrapolated: true,
        })
    }

    /// The pre-engine [`SwatTree::inner_product_with`].
    ///
    /// # Errors
    ///
    /// As [`SwatTree::inner_product_with`].
    pub fn inner_product_with(
        tree: &SwatTree,
        query: &InnerProductQuery,
        opts: QueryOptions,
    ) -> Result<InnerProductAnswer, TreeError> {
        tree.check_indices(query.indices())?;
        let now = tree.arrivals();
        let (selected, uncovered) = cover(tree, query.indices(), opts);
        if !uncovered.is_empty() && opts.min_level == 0 {
            return Err(TreeError::Uncovered {
                index: query.indices()[uncovered[0]],
            });
        }
        let mut value = 0.0;
        let mut error_bound = 0.0;
        for entry in &selected {
            let s = entry.summary;
            let width = s.width();
            let lo = s.range().lo();
            let hi = s.range().hi();
            // Per-point evaluation costs O(log width) each; one full
            // reconstruction costs O(width) and then O(1) per point.
            // Pick whichever is cheaper for this node's share.
            let log_w = usize::BITS - width.leading_zeros();
            if entry.entries.len() * log_w as usize > width {
                let block = s.reconstruct();
                let (start, _) = s.coverage(now);
                for &pos in &entry.entries {
                    let idx = query.indices()[pos];
                    let w = query.weights()[pos];
                    let v = block[idx - start];
                    value += w * v;
                    error_bound += w.abs() * (v - lo).max(hi - v);
                }
            } else {
                for &pos in &entry.entries {
                    let idx = query.indices()[pos];
                    let w = query.weights()[pos];
                    value += w * s.value_at(now, idx);
                    error_bound += w.abs() * s.error_bound_at(now, idx);
                }
            }
        }
        // Extrapolate whatever reduced-level mode left uncovered.
        if !uncovered.is_empty() {
            let nearest = tree
                .nodes()
                .filter(|(l, _, _)| *l >= opts.min_level)
                .min_by_key(|(_, _, s)| s.coverage(now).0);
            let Some((_, _, s)) = nearest else {
                return Err(TreeError::Uncovered {
                    index: query.indices()[uncovered[0]],
                });
            };
            let (start, _) = s.coverage(now);
            let v = s.value_at(now, start);
            for &pos in &uncovered {
                let w = query.weights()[pos];
                value += w * v;
                error_bound += w.abs() * s.range().width();
            }
        }
        Ok(InnerProductAnswer {
            value,
            error_bound,
            meets_precision: error_bound <= query.delta(),
            nodes_used: selected.len(),
            extrapolated: uncovered.len(),
        })
    }

    /// The pre-engine [`SwatTree::range_query_with`].
    ///
    /// # Errors
    ///
    /// As [`SwatTree::range_query_with`].
    pub fn range_query_with(
        tree: &SwatTree,
        query: &RangeQuery,
        opts: QueryOptions,
    ) -> Result<Vec<RangeMatch>, TreeError> {
        let indices: Vec<usize> = (query.newest..=query.oldest).collect();
        tree.check_indices(&indices)?;
        let now = tree.arrivals();
        let (selected, uncovered) = cover(tree, &indices, opts);
        if !uncovered.is_empty() {
            return Err(TreeError::Uncovered {
                index: indices[uncovered[0]],
            });
        }
        let band =
            crate::range::ValueRange::new(query.center - query.radius, query.center + query.radius);
        let mut matches = Vec::new();
        for entry in &selected {
            let s = entry.summary;
            // Prune: if the node's exact range cannot reach the band, no
            // value reconstructed from it (clamped into the range) can.
            if !s.range().intersects(&band) {
                continue;
            }
            for &pos in &entry.entries {
                let idx = indices[pos];
                let v = s.value_at(now, idx);
                if (v - query.center).abs() <= query.radius {
                    matches.push(RangeMatch {
                        index: idx,
                        value: v,
                    });
                }
            }
        }
        matches.sort_by_key(|m| m.index);
        Ok(matches)
    }

    /// The pre-engine [`SwatTree::reconstruct_window`].
    ///
    /// # Errors
    ///
    /// As [`SwatTree::reconstruct_window`].
    pub fn reconstruct_window(tree: &SwatTree) -> Result<Vec<f64>, TreeError> {
        let n = tree.config().window();
        let indices: Vec<usize> = (0..n).collect();
        let now = tree.arrivals();
        let (selected, uncovered) = cover(tree, &indices, QueryOptions::default());
        if !uncovered.is_empty() {
            return Err(TreeError::Uncovered {
                index: uncovered[0],
            });
        }
        let mut out = vec![0.0; n];
        for entry in &selected {
            for &pos in &entry.entries {
                out[pos] = entry.summary.value_at(now, indices[pos]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwatConfig;

    fn warm_tree(n: usize, values: impl IntoIterator<Item = f64>) -> SwatTree {
        let mut tree = SwatTree::new(SwatConfig::new(n).unwrap());
        tree.extend(values);
        assert!(tree.is_warm());
        tree
    }

    #[test]
    fn query_constructors_validate() {
        assert!(InnerProductQuery::new(vec![], vec![], 1.0).is_err());
        assert!(InnerProductQuery::new(vec![0, 1], vec![1.0], 1.0).is_err());
        assert!(InnerProductQuery::new(vec![0, 0], vec![1.0, 1.0], 1.0).is_err());
        assert!(InnerProductQuery::new(vec![0], vec![f64::NAN], 1.0).is_err());
        assert!(InnerProductQuery::new(vec![0], vec![1.0], -1.0).is_err());
        let q = InnerProductQuery::new(vec![3, 1], vec![0.5, 2.0], 1.0).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.exact(&[10.0, 20.0, 30.0, 40.0]), 0.5 * 40.0 + 2.0 * 20.0);
    }

    #[test]
    fn duplicate_indices_rejected_in_any_order() {
        // Ascending duplicates hit the single-pass check.
        assert!(matches!(
            InnerProductQuery::new(vec![2, 4, 4, 7], vec![1.0; 4], 1.0),
            Err(TreeError::BadQuery {
                reason: "duplicate index"
            })
        ));
        // Unsorted duplicates exercise the quadratic fallback, including a
        // repeat that is *not* adjacent after the descent.
        assert!(matches!(
            InnerProductQuery::new(vec![3, 1, 3], vec![1.0; 3], 1.0),
            Err(TreeError::BadQuery {
                reason: "duplicate index"
            })
        ));
        assert!(matches!(
            InnerProductQuery::new(vec![5, 2, 9, 2], vec![1.0; 4], 1.0),
            Err(TreeError::BadQuery {
                reason: "duplicate index"
            })
        ));
        // Unsorted but distinct vectors remain legal.
        let q = InnerProductQuery::new(vec![5, 2, 9], vec![1.0, 2.0, 3.0], 1.0).unwrap();
        assert_eq!(q.indices(), &[5, 2, 9]);
        assert_eq!(q.profile(), WeightProfile::General);
    }

    #[test]
    fn in_place_setters_match_constructors() {
        let mut q = InnerProductQuery::point(0, 1.0);
        assert_eq!(q.profile(), WeightProfile::General);
        q.set_exponential_at(3, 5, 2.5);
        let want = InnerProductQuery::exponential_at(3, 5, 2.5);
        assert_eq!(q, want);
        assert_eq!(q.profile(), WeightProfile::Exponential);
        for (a, b) in q.weights().iter().zip(want.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        q.set_linear_at(1, 7, 0.5);
        let want = InnerProductQuery::linear_at(1, 7, 0.5);
        assert_eq!(q, want);
        assert_eq!(q.profile(), WeightProfile::Linear);
        for (a, b) in q.weights().iter().zip(want.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Equality ignores the tag: an explicit query with the same
        // vectors compares equal to the tagged one.
        let explicit = InnerProductQuery::new(
            want.indices().to_vec(),
            want.weights().to_vec(),
            want.delta(),
        )
        .unwrap();
        assert_eq!(explicit, want);
        assert_ne!(explicit.profile(), want.profile());
    }

    #[test]
    fn weight_profiles_match_paper() {
        let e = InnerProductQuery::exponential(4, 20.0);
        assert_eq!(e.indices(), &[0, 1, 2, 3]);
        assert_eq!(e.weights(), &[1.0, 0.5, 0.25, 0.125]);
        let l = InnerProductQuery::linear_at(8, 4, 40.0);
        assert_eq!(l.indices(), &[8, 9, 10, 11]);
        assert_eq!(l.weights(), &[1.0, 0.75, 0.5, 0.25]);
        let p = InnerProductQuery::point(12, 2.0);
        assert_eq!(p.indices(), &[12]);
        assert_eq!(p.weights(), &[1.0]);
    }

    #[test]
    fn point_query_on_constant_stream_is_exact() {
        let tree = warm_tree(16, std::iter::repeat_n(5.0, 48));
        for idx in 0..16 {
            let a = tree.point(idx).unwrap();
            assert_eq!(a.value, 5.0, "idx {idx}");
            assert_eq!(a.error_bound, 0.0);
            assert!(!a.extrapolated);
        }
    }

    #[test]
    fn point_errors() {
        let tree = warm_tree(16, (0..48).map(|i| i as f64));
        assert!(matches!(
            tree.point(16),
            Err(TreeError::IndexOutOfWindow {
                index: 16,
                window: 16
            })
        ));
        let cold = SwatTree::new(SwatConfig::new(16).unwrap());
        assert!(matches!(cold.point(0), Err(TreeError::Uncovered { .. })));
    }

    #[test]
    fn newest_point_served_by_level_zero() {
        // "It takes O(1) time to find the node that approximates the
        // point": index 0 is always covered by R_0.
        let tree = warm_tree(16, (0..48).map(|i| (i % 7) as f64));
        let a = tree.point(0).unwrap();
        assert_eq!(a.level, 0);
    }

    #[test]
    fn error_bounds_are_sound() {
        let values: Vec<f64> = (0..96).map(|i| ((i * 37) % 50) as f64).collect();
        let tree = warm_tree(32, values.iter().copied());
        let total = values.len();
        for idx in 0..32 {
            let truth = values[total - 1 - idx];
            let a = tree.point(idx).unwrap();
            assert!(
                (a.value - truth).abs() <= a.error_bound + 1e-9,
                "idx {idx}: |{} - {truth}| > {}",
                a.value,
                a.error_bound
            );
        }
        // Inner products inherit soundness.
        let window: Vec<f64> = (0..32).map(|i| values[total - 1 - i]).collect();
        for q in [
            InnerProductQuery::exponential(8, 100.0),
            InnerProductQuery::linear(16, 100.0),
            InnerProductQuery::exponential_at(5, 10, 100.0),
        ] {
            let ans = tree.inner_product(&q).unwrap();
            let exact = q.exact(&window);
            assert!(
                (ans.value - exact).abs() <= ans.error_bound + 1e-9,
                "{q:?}: |{} - {exact}| > {}",
                ans.value,
                ans.error_bound
            );
        }
    }

    #[test]
    fn inner_product_uses_few_nodes() {
        let tree = warm_tree(1024, (0..3000).map(|i| (i % 100) as f64));
        let q = InnerProductQuery::exponential(512, 1e9);
        let ans = tree.inner_product(&q).unwrap();
        assert!(
            ans.nodes_used <= 3 * 10,
            "used {} nodes, expected <= 3 log N",
            ans.nodes_used
        );
        assert!(ans.meets_precision);
    }

    #[test]
    fn meets_precision_reflects_delta() {
        let tree = warm_tree(16, (0..48).map(|i| ((i * 13) % 40) as f64));
        let loose = InnerProductQuery::exponential(8, 1e6);
        assert!(tree.inner_product(&loose).unwrap().meets_precision);
        let tight = InnerProductQuery::exponential(8, 1e-9);
        assert!(!tree.inner_product(&tight).unwrap().meets_precision);
    }

    #[test]
    fn range_query_finds_matching_values() {
        // Stream: 0..16 repeated; query for values near 15 among all
        // indices.
        let values: Vec<f64> = (0..64).map(|i| (i % 16) as f64).collect();
        let tree = warm_tree(16, values.iter().copied());
        // Window (newest first) = 15, 14, ..., 0.
        let q = RangeQuery::new(15.0, 0.4, 0, 15);
        let matches = tree.range_query(&q).unwrap();
        // Exact reconstruction (k = 1 still reproduces level-0 pairs only
        // approximately), so check matches are plausible: every reported
        // value is within the band.
        for m in &matches {
            assert!((m.value - 15.0).abs() <= 0.4 + 1e-12);
        }
        // The newest value (exactly 15) must be found: R_0 covers it with
        // average (15 + 14)/2 = 14.5 — outside the band, so with k = 1 the
        // coarse answer may legitimately miss it. Use k = 2 for exactness.
        let mut fine = SwatTree::new(SwatConfig::with_coefficients(16, 16).unwrap());
        fine.extend(values.iter().copied());
        let matches = fine.range_query(&q).unwrap();
        assert!(matches.iter().any(|m| m.index == 0 && m.value == 15.0));
        assert_eq!(matches.len(), 1, "only one window value equals 15");
    }

    #[test]
    fn range_query_empty_band() {
        let tree = warm_tree(16, std::iter::repeat_n(5.0, 48));
        let q = RangeQuery::new(100.0, 1.0, 0, 15);
        assert!(tree.range_query(&q).unwrap().is_empty());
    }

    #[test]
    fn lossless_tree_reconstructs_exactly() {
        // With k = N the tree is lossless: the reconstructed window equals
        // the true window whenever every level just refreshed.
        let values: Vec<f64> = (0..32).map(|i| ((i * 7) % 19) as f64).collect();
        let mut tree = SwatTree::new(SwatConfig::with_coefficients(16, 16).unwrap());
        tree.extend(values.iter().copied());
        // t = 32: all levels refreshed. Window newest-first:
        let window: Vec<f64> = (0..16).map(|i| values[31 - i]).collect();
        let rec = tree.reconstruct_window().unwrap();
        // Levels answer greedily; fresh R nodes cover everything exactly.
        for (i, (a, b)) in rec.iter().zip(&window).enumerate() {
            assert!((a - b).abs() < 1e-9, "idx {i}: {a} vs {b}");
        }
    }

    #[test]
    fn reduced_level_queries_extrapolate_and_flag() {
        let tree = warm_tree(64, (0..192).map(|i| (i % 10) as f64));
        let opts = QueryOptions::at_level(3);
        let a = tree.point_with(0, opts).unwrap();
        // Depending on tree age index 0 may or may not precede level-3
        // coverage; whichever way, the call must succeed and any
        // extrapolation must be flagged.
        if a.extrapolated {
            assert!(a.error_bound > 0.0 || a.value == 0.0);
        }
        assert!(a.level >= 3);
        let q = InnerProductQuery::exponential(16, 1e9);
        let ans = tree.inner_product_with(&q, opts).unwrap();
        assert!(ans.value.is_finite());
    }

    #[test]
    fn coarser_levels_give_weakly_worse_precision() {
        // Average absolute point error should not decrease as min_level
        // grows — the §2.5 trade-off that Figure 4(c) plots.
        let values: Vec<f64> = (0..1536)
            .map(|i| 50.0 + 30.0 * ((i as f64) * 0.05).sin())
            .collect();
        let n = 512;
        let mut tree = SwatTree::new(SwatConfig::new(n).unwrap());
        tree.extend(values.iter().copied());
        let window: Vec<f64> = (0..n).map(|i| values[values.len() - 1 - i]).collect();
        let mut prev = 0.0;
        for m in [0usize, 2, 4, 6, 8] {
            let opts = QueryOptions::at_level(m);
            let mut total = 0.0;
            for (idx, &truth) in window.iter().enumerate() {
                let a = tree.point_with(idx, opts).unwrap();
                total += (a.value - truth).abs();
            }
            let avg = total / n as f64;
            assert!(
                avg + 1e-6 >= prev,
                "error should grow with min_level: {avg} < {prev} at m={m}"
            );
            prev = avg;
        }
        assert!(prev > 0.5, "coarsest level should show real error");
    }
}
