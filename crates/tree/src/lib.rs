//! # SWAT approximation tree
//!
//! The core contribution of *SWAT: Hierarchical Stream Summarization in
//! Large Networks* (Bulut & Singh, ICDE 2003): a wavelet-based structure
//! that summarizes the last `N` values of a data stream **at multiple
//! resolutions** — precise summaries for recent data, coarser ones for
//! older data — in `O(k log N)` space with `O(k)` amortized maintenance
//! per arrival, answering point, range, and inner-product queries in
//! polylogarithmic time.
//!
//! ## The shape of the structure
//!
//! A window of `N = 2^n` values induces `n` levels. Level `l` holds up to
//! three summaries (*Right*, *Shift*, *Left*) of dyadic blocks of
//! `2^(l+1)` values; the top level holds one — `3 log N − 2` summaries
//! total. Level `l` refreshes only every `2^l` arrivals by merging the
//! level-`l−1` Right and Left summaries, so old levels *age*: their blocks
//! slide into the past until the next refresh. The result is a time-varying
//! tiling of the window where recent indices are covered by fine blocks
//! and old indices by coarse ones — the paper's "biased query model".
//!
//! ## Quick example
//!
//! ```
//! use swat_tree::{SwatTree, SwatConfig, InnerProductQuery};
//!
//! let mut tree = SwatTree::new(SwatConfig::new(256).unwrap());
//! tree.extend((0..1000).map(|i| (i % 50) as f64));
//!
//! // Point query: index 0 is the newest value (true value 49 here).
//! let p = tree.point(0).unwrap();
//! assert!((p.value - 49.0).abs() <= p.error_bound);
//!
//! // Exponentially weighted inner product over the 32 newest values,
//! // required precision 10.
//! let q = InnerProductQuery::exponential(32, 10.0);
//! let a = tree.inner_product(&q).unwrap();
//! assert!(a.nodes_used <= 3 * 8); // at most 3 log N nodes
//! ```
//!
//! ## Modules
//!
//! * [`tree`] — the structure and its update algorithm (Figure 3a),
//! * [`ingest`] — the blocked batch-ingest fast path: chunk-aligned
//!   cascades over flat SoA lanes, reusable [`IngestScratch`] buffers,
//!   and the frozen scalar reference path it is pinned against,
//! * [`query`] — point / range / inner-product evaluation (Figure 3b),
//! * [`scratch`] — the zero-allocation query engine: reusable
//!   [`QueryScratch`] buffers, a cached serving-map cover index and
//!   batched entry points,
//! * [`node`] — immutable per-block summaries with aging coverage,
//! * [`range`] — `[min, max]` ranges backing sound error bounds,
//! * [`error_model`] — the paper's §2.6 closed-form error bounds,
//! * [`exact`] — a ground-truth ring buffer for experiments,
//! * [`config`] — configuration and error types,
//! * [`codec`] — the CRC32-checksummed framing shared by snapshots and
//!   the `swat-store` durability layer,
//!
//! plus the paper's extensions:
//!
//! * [`continuous`] — standing (continuous) queries re-evaluated per
//!   arrival (§2.1's "we can extend our algorithms to continuous
//!   queries quite easily"),
//! * [`growing`] — whole-stream summarization with logarithmically
//!   growing levels (§2.1/§2.3's entire-stream model),
//! * [`multi`] — multiple streams and summary-based correlation (the
//!   concluding remarks' future work),
//! * [`shard`] — hash-partitioned million-stream ingest with mergeable
//!   per-shard top-k coefficient summaries and the exact two-round
//!   distributed top-k merge (the paper's "large networks" setting at
//!   scale).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod codec;
pub mod config;
pub mod continuous;
pub mod error_model;
pub mod exact;
pub mod explain;
pub mod growing;
pub mod ingest;
pub mod multi;
pub mod node;
pub mod query;
pub mod range;
pub mod scratch;
pub mod shard;
pub mod snapshot;
pub mod tree;

pub use aggregate::Aggregate;
pub use config::{SwatConfig, TreeError};
pub use continuous::{ContinuousEngine, Notification, SubscriptionId};
pub use exact::ExactWindow;
pub use explain::{PlanStep, QueryPlan};
pub use growing::GrowingSwat;
pub use ingest::IngestScratch;
pub use multi::{StreamSet, TiledSet, ROW_TILE};
pub use node::Summary;
pub use query::{
    InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions, RangeMatch, RangeQuery,
    WeightProfile,
};
pub use range::ValueRange;
pub use scratch::QueryScratch;
pub use shard::{
    for_each_root_coeff, local_top_k, root_summary, shard_members, shard_of, MergeStats,
    ShardedStreamSet,
};
pub use snapshot::SnapshotError;
pub use tree::{NodePos, SwatTree};
