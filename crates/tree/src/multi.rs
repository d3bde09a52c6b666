//! Multiple streams and correlation estimation.
//!
//! The paper's concluding remarks name this as future work: "We plan to
//! develop efficient techniques to find correlations over multiple data
//! streams." This module provides the natural SWAT-based realization: a
//! [`StreamSet`] maintains one tree per stream over a common window, and
//! correlations between any two streams are estimated from the trees'
//! reconstructions — `O(M log N)` work per pair instead of touching raw
//! history, with accuracy inherited from the summaries (exact for
//! lossless trees).

use std::cell::RefCell;

use crate::block::Block;
use crate::codec::{begin_frame, finish_frame, Cursor};
use crate::config::{SwatConfig, TreeError};
use crate::ingest::{ingest_block, LaneScratch};
use crate::query::{InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions};
use crate::scratch::{IdxList, QueryScratch};
use crate::snapshot::SnapshotError;
use crate::tree::{digest, SwatTree, TreeView};

/// Streams per block of a [`StreamSet`]: its trees are stored sixteen to
/// a block (`crate::block`), the blocked cascade runs over a block at
/// once, each op of its merge plans applied to all of them as one
/// vectorized loop, and the query set pass evaluates a shared cover over
/// a block's rows in place. A measured constant: of 4, 8, 16, 32 and 64
/// streams per block, 16 applied a 64-row tile of 1024 streams fastest.
pub(crate) const BLOCK: usize = 16;

/// Rows per cascade chunk of [`StreamSet::extend_rows`], at most. Bounds
/// the per-thread lanes: at budget 4, about 100 KB of coefficient lanes
/// and 65 KB of range lanes for 256 rows, a quarter of that for one
/// [`ROW_TILE`].
const BLOCK_MAX_CHUNK: usize = 256;

thread_local! {
    static BLOCK_SCRATCH: RefCell<LaneScratch<BLOCK>> =
        RefCell::new(LaneScratch::new(BLOCK_MAX_CHUNK));
}

/// Rows per tile of a [`TiledSet`]: it applies the rows it holds when
/// the set's clock plus the held rows reaches a multiple of this, so each
/// tile is one clock-aligned chunk of [`StreamSet::extend_rows`] with no
/// scalar head. 512 bytes of buffer per stream. Longer aligned tiles cost
/// less per value (DESIGN.md §3.14 has the curve) but make the pause
/// every tile-completing row pays longer in proportion.
pub const ROW_TILE: usize = 64;

/// Whether every value is finite: no NaN, no ±∞. The one finiteness
/// pass every row gets before a holding logs or applies it, and before a
/// leader splits it into legs.
///
/// Branch-free, in eight independent lanes the optimizer keeps in vector
/// registers: `v - v` is `0.0` for every finite `v` and NaN for NaN and
/// ±∞, and a lane's running sum of those stays `0.0` until it meets the
/// first NaN, which it keeps. The lanes' sum is therefore `0.0` exactly
/// when every value is finite.
#[allow(clippy::eq_op)] // `v - v` is the test: 0 when finite, NaN otherwise
pub fn all_finite(values: &[f64]) -> bool {
    const LANES: usize = 8;
    let mut lanes = [0.0; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v - v;
        }
    }
    for (lane, v) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane += v - v;
    }
    lanes.iter().sum::<f64>() == 0.0
}

/// A set of synchronized streams, each summarized by its own SWAT.
///
/// The trees are stored sixteen to a block, lane-major (`crate::block`):
/// every stream of a set shares one configuration, one clock and one
/// geometry, so a row is one lane op per block, a set-wide query reads
/// each block's rows where they are, and [`Self::tree`] is a view of one
/// lane.
///
/// ```
/// use swat_tree::{multi::StreamSet, SwatConfig};
///
/// let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
/// for i in 0..200 {
///     let x = (i as f64 * 0.2).sin();
///     set.push_row(&[x, 2.0 * x + 1.0]); // perfectly correlated
/// }
/// let rho = set.correlation(0, 1, 64).unwrap();
/// assert!(rho > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct StreamSet {
    /// The shared configuration, held by the set itself so that a set
    /// with zero streams still knows its window shape.
    config: SwatConfig,
    pub(crate) streams: usize,
    /// `ceil(streams / BLOCK)` blocks, stream `i` in lane `i % BLOCK` of
    /// block `i / BLOCK`; a ragged last block's spare lanes hold zeros.
    pub(crate) blocks: Vec<Block<BLOCK>>,
}

impl StreamSet {
    /// `streams` synchronized streams under a shared configuration.
    ///
    /// `streams == 0` is legal: an empty set is a well-defined value that
    /// ingests empty rows/columns as no-ops, answers every fan-out query
    /// with an empty result vector, and snapshots/restores losslessly —
    /// the state a dynamic deployment passes through before its first
    /// stream registers (previously these operations panicked; the
    /// `empty_set_*` tests pin the fixed behavior).
    pub fn new(config: SwatConfig, streams: usize) -> Self {
        StreamSet {
            config,
            streams,
            blocks: (0..streams.div_ceil(BLOCK))
                .map(|_| Block::new(config))
                .collect(),
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// The configuration shared by every stream's tree.
    pub fn config(&self) -> &SwatConfig {
        &self.config
    }

    /// Trees in block `b`.
    fn used(&self, b: usize) -> usize {
        BLOCK.min(self.streams - b * BLOCK)
    }

    /// The tree summarizing stream `i`: a view of its lane.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tree(&self, i: usize) -> TreeView<'_> {
        assert!(i < self.streams, "stream {i} of {}", self.streams);
        let b = i / BLOCK;
        TreeView::new(&self.blocks[b], i % BLOCK, self.used(b))
    }

    /// Rows ingested so far — the clock every stream shares (0 for a set
    /// with no streams).
    pub fn arrivals(&self) -> u64 {
        self.blocks.first().map_or(0, |b| b.head.t)
    }

    /// The validation [`Self::try_push_row`] applies, without the push:
    /// `Ok` exactly when that call would accept `row`. For callers that
    /// accept a row now and apply it later (a [`TiledSet`]).
    ///
    /// # Errors
    ///
    /// As [`Self::try_push_row`].
    pub fn check_row(&self, row: &[f64]) -> Result<(), TreeError> {
        if row.len() != self.streams {
            return Err(TreeError::RowArity {
                got: row.len(),
                want: self.streams,
            });
        }
        if !all_finite(row) {
            // The position search runs only on a refused row.
            let stream = row
                .iter()
                .position(|v| !v.is_finite())
                .expect("the reduction found a non-finite value");
            return Err(TreeError::NonFiniteInRow { stream });
        }
        Ok(())
    }

    /// Feed one synchronized row: `row[i]` goes to stream `i`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != streams()` or any value is not finite —
    /// before any stream advances; see [`Self::try_push_row`].
    pub fn push_row(&mut self, row: &[f64]) {
        if let Err(e) = self.try_push_row(row) {
            panic!("{e}");
        }
    }

    /// As [`Self::push_row`], but rejecting a malformed row with an error.
    /// The whole row is validated before any stream sees a value, so on
    /// error every tree is unchanged and the set stays synchronized —
    /// callers holding rows from outside the process (the durable store,
    /// the daemon's replicas) need no check of their own. An accepted row
    /// is one lane op per block of sixteen streams.
    ///
    /// # Errors
    ///
    /// [`TreeError::RowArity`] if `row.len() != streams()`, else
    /// [`TreeError::NonFiniteInRow`] naming the first stream whose value
    /// is NaN or infinite.
    pub fn try_push_row(&mut self, row: &[f64]) -> Result<(), TreeError> {
        self.check_row(row)?;
        for (block, values) in self.blocks.iter_mut().zip(row.chunks(BLOCK)) {
            let mut lane = [0.0; BLOCK];
            lane[..values.len()].copy_from_slice(values);
            block.push_one(&lane);
        }
        Ok(())
    }

    /// Feed a block of whole rows, row-major (`rows[r * streams() + i]` is
    /// stream `i`'s value in row `r`) — the layout rows are logged and
    /// replayed in. Equivalent to [`Self::push_row`] per row, node for
    /// node (`ingest_equivalence` pins it), but the rows reach the trees
    /// through the blocked cascade of `crate::ingest` run over each block
    /// of 16 streams: each row's 16 contiguous values are one lane, every
    /// merge of the cascade is one vectorized op over the block, and each
    /// level's tail is written into the block's slots in place.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `streams()` (anything
    /// but an empty block, for an empty set) or any value is not finite —
    /// before any stream advances.
    pub fn extend_rows(&mut self, rows: &[f64]) {
        let streams = self.streams;
        if streams == 0 {
            assert!(rows.is_empty(), "row arity mismatch");
            return;
        }
        assert_eq!(rows.len() % streams, 0, "a block holds whole rows");
        assert!(
            rows.iter().fold(true, |ok, v| ok & v.is_finite()),
            "stream values must be finite"
        );
        BLOCK_SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            for (b, block) in self.blocks.iter_mut().enumerate() {
                let used = BLOCK.min(streams - b * BLOCK);
                ingest_block(block, rows, streams, b * BLOCK, used, scratch);
            }
        });
    }

    /// Feed a block of synchronized arrivals column-wise: `columns[i]` is
    /// the next batch of values for stream `i`, and all columns must have
    /// equal length. Each block of sixteen streams has its columns
    /// transposed into rows and run through the blocked cascade, block
    /// after block on the calling thread — node for node the state
    /// [`Self::push_row`] per row leaves (`extend_batched_matches_rows`).
    ///
    /// `_threads` is ignored: it is kept until the benchmark stops naming
    /// it (ROADMAP item 1-β), and then goes.
    ///
    /// An empty set accepts only an empty column slice (the arity check
    /// still applies) and ingests it as a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != streams()`, if column lengths differ,
    /// or if any value is non-finite — before any stream advances.
    pub fn extend_batched<C: AsRef<[f64]>>(&mut self, columns: &[C], _threads: usize) {
        assert_eq!(columns.len(), self.streams, "column arity mismatch");
        // With zero streams there is no first column to size the batch
        // from (indexing it was the empty-set panic this module used to
        // have) and nothing to ingest.
        let Some(first) = columns.first() else {
            return;
        };
        let len = first.as_ref().len();
        assert!(
            columns.iter().all(|c| c.as_ref().len() == len),
            "columns must have equal lengths"
        );
        assert!(
            columns
                .iter()
                .all(|c| c.as_ref().iter().fold(true, |ok, v| ok & v.is_finite())),
            "stream values must be finite"
        );
        BLOCK_SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            let mut rows = Vec::new();
            for (block, cols) in self.blocks.iter_mut().zip(columns.chunks(BLOCK)) {
                rows.clear();
                rows.extend((0..len).flat_map(|r| cols.iter().map(move |c| c.as_ref()[r])));
                ingest_block(block, &rows, cols.len(), 0, cols.len(), scratch);
            }
        });
    }

    /// Approximate values of stream `i` over the `m` newest window
    /// indices, evaluated at resolution `opts` — served through the
    /// serving map so the whole span shares one cover lookup table.
    fn recent(&self, i: usize, m: usize, opts: QueryOptions) -> Result<Vec<f64>, TreeError> {
        let span = IdxList::Span { first: 0, len: m };
        crate::scratch::with_thread_scratch(|scratch| {
            let answers = scratch.points_of(self.tree(i), span, opts)?;
            Ok(answers.iter().map(|a| a.value).collect())
        })
    }

    /// Answer the same block of point queries against **every** stream in
    /// one pass of the query engine's set pass: the streams share one
    /// cover, resolved once per call, and it is evaluated over sixteen
    /// streams per lane op, each lane reading its own stream's rows where
    /// its block stores them (`crate::scratch`'s module docs). The pass
    /// runs on the calling thread over its own [`QueryScratch`].
    ///
    /// Returns one answer vector per stream, in stream order, each answer
    /// bit-identical to [`TreeView::point_with`] on that stream. The
    /// streams share one geometry, so a query one stream refuses, every
    /// stream refuses, with the same error.
    ///
    /// `_threads` is ignored: it is kept until the benchmark stops naming
    /// it (ROADMAP item 1-β), and then goes.
    ///
    /// # Errors
    ///
    /// As [`TreeView::point_with`] per stream.
    pub fn point_many(
        &self,
        indices: &[usize],
        opts: QueryOptions,
        _threads: usize,
    ) -> Result<Vec<Vec<PointAnswer>>, TreeError> {
        set_pass(self.streams, indices.len(), |scratch| {
            scratch.points_over(&self.blocks, self.streams, IdxList::Slice(indices), opts)
        })
    }

    /// Answer the same block of inner-product queries against **every**
    /// stream in one set pass, as [`Self::point_many`] does. Returns one
    /// answer vector per stream, in stream order, each bit-identical to
    /// [`TreeView::inner_product_with`] per query.
    ///
    /// `_threads` is ignored, as in [`Self::point_many`].
    ///
    /// # Errors
    ///
    /// As [`TreeView::inner_product_with`] per stream.
    pub fn inner_product_many(
        &self,
        queries: &[InnerProductQuery],
        opts: QueryOptions,
        _threads: usize,
    ) -> Result<Vec<Vec<InnerProductAnswer>>, TreeError> {
        set_pass(self.streams, queries.len(), |scratch| {
            scratch.inners_over(&self.blocks, self.streams, queries, opts)
        })
    }

    /// The coefficient rows of every stream's root summary — the newest
    /// at the highest populated level — block by block, read in place:
    /// `(first, rows)` with `rows[index][w]` coefficient `index` of
    /// stream `first + w`. A ragged block's spare lanes hold zeros; the
    /// rows are empty before the first level-0 summary exists.
    pub(crate) fn root_rows(&self) -> impl Iterator<Item = (usize, &[[f64; BLOCK]])> {
        let coeffs = self
            .blocks
            .first()
            .and_then(|block| {
                let head = &block.head;
                let id = (0..self.config.levels())
                    .rev()
                    .find_map(|l| head.slot(l, 0))?;
                let at = head.slots[id].at as usize + 2;
                Some(at..at + head.slots[id].stored as usize)
            })
            .unwrap_or(0..0);
        self.blocks
            .iter()
            .enumerate()
            .map(move |(b, block)| (b * BLOCK, &block.lanes[coeffs.clone()]))
    }

    /// Approximate inner product `Σ x_a[i] · x_b[i]` over the `m` newest
    /// values of streams `a` and `b`.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    ///
    /// # Panics
    ///
    /// Panics if a stream index is out of range or `m == 0`.
    pub fn inner_product_between(&self, a: usize, b: usize, m: usize) -> Result<f64, TreeError> {
        self.inner_product_between_with(a, b, m, self.config().default_opts())
    }

    /// As [`Self::inner_product_between`] with explicit resolution.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    pub fn inner_product_between_with(
        &self,
        a: usize,
        b: usize,
        m: usize,
        opts: QueryOptions,
    ) -> Result<f64, TreeError> {
        assert!(m > 0, "need at least one value");
        let xa = self.recent(a, m, opts)?;
        let xb = self.recent(b, m, opts)?;
        Ok(xa.iter().zip(&xb).map(|(x, y)| x * y).sum())
    }

    /// Pearson correlation of streams `a` and `b` over their `m` newest
    /// values, estimated from the summaries (the paper's reference \[17\]
    /// style normalized-window correlation, §1.1). Returns 0 when either stream
    /// is constant over the span.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    ///
    /// # Panics
    ///
    /// Panics if a stream index is out of range or `m < 2`.
    pub fn correlation(&self, a: usize, b: usize, m: usize) -> Result<f64, TreeError> {
        self.correlation_with(a, b, m, self.config().default_opts())
    }

    /// As [`Self::correlation`] with explicit resolution.
    ///
    /// # Errors
    ///
    /// Propagates coverage errors while the trees warm up.
    pub fn correlation_with(
        &self,
        a: usize,
        b: usize,
        m: usize,
        opts: QueryOptions,
    ) -> Result<f64, TreeError> {
        assert!(m >= 2, "correlation needs at least two values");
        let xa = self.recent(a, m, opts)?;
        let xb = self.recent(b, m, opts)?;
        Ok(pearson(&xa, &xb))
    }
}

/// One `pass` of [`QueryScratch`]'s set pass, with the thread's own
/// scratch — the serving map and the answer buffer a previous call grew
/// are still there — and its flat answers, `per_tree` for each of
/// `streams` streams, split into per-stream vectors in stream order.
fn set_pass<T: Copy>(
    streams: usize,
    per_tree: usize,
    pass: impl for<'s> FnOnce(&'s mut QueryScratch) -> Result<&'s [T], TreeError>,
) -> Result<Vec<Vec<T>>, TreeError> {
    crate::scratch::with_thread_scratch(|scratch| {
        let answers = pass(scratch)?;
        Ok((0..streams)
            .map(|i| answers[i * per_tree..(i + 1) * per_tree].to_vec())
            .collect())
    })
}

/// Magic prefix of a [`StreamSet::snapshot`] buffer.
const SET_MAGIC: &[u8; 4] = b"SWMS";
const SET_VERSION: u8 = 2;
/// Section tag wrapping one stream's tree snapshot.
const SEC_STREAM: u8 = 5;

impl StreamSet {
    /// Serialize the whole set: a header carrying the shared
    /// configuration, then one checksummed frame per stream containing
    /// that tree's [`TreeView::snapshot`] bytes — each lane encoded as
    /// the tree it is.
    ///
    /// ```text
    /// magic "SWMS"  u8 version = 2
    /// u64 window  u64 k  u64 min_level  u64 streams
    /// per stream: [u8 5][u32 len][u32 crc][tree snapshot v2]
    /// ```
    ///
    /// The configuration lives in the header so that a set with **zero**
    /// streams round-trips; per-stream configs are validated against it
    /// on restore.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// Append [`Self::snapshot`]'s bytes to `out`, each stream's frame
    /// written in place — with a buffer that already has the capacity,
    /// nothing is allocated.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(SET_MAGIC);
        out.push(SET_VERSION);
        out.extend_from_slice(&(self.config.window() as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.coefficients() as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.min_level() as u64).to_le_bytes());
        out.extend_from_slice(&(self.streams as u64).to_le_bytes());
        for i in 0..self.streams {
            let start = out.len();
            let frame = begin_frame(out, SEC_STREAM);
            crate::snapshot::write_tree_body(self.tree(i), out);
            finish_frame(out, frame);
            if i == 0 {
                // Every stream shares the configuration and the geometry,
                // so the frames are all as long as the first: one exact
                // reservation instead of a doubling buffer.
                out.reserve((out.len() - start) * (self.streams - 1));
            }
        }
    }

    /// Rebuild a set from [`StreamSet::snapshot`] bytes: the explicit
    /// configuration header, then `streams` framed tree snapshots, each
    /// validated against the header.
    ///
    /// All streams must restore under the same configuration, clock and
    /// geometry — which slots hold a summary, created when, storing how
    /// many coefficients — as the first: the set only ever ingests
    /// synchronized rows, so no writer produces a set whose streams
    /// differ, and its blocks store one geometry for sixteen streams.
    /// Offsets reported by errors from inside a stream frame are relative
    /// to that frame's payload.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; a stream whose geometry differs from the
    /// first stream's is `Invalid { what: "stream geometry mismatch" }`
    /// at its frame.
    pub fn restore(bytes: &[u8]) -> Result<StreamSet, SnapshotError> {
        let mut c = Cursor::new(bytes);
        if c.take(4)? != SET_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = c.u8()?;
        if version != SET_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let config_at = c.offset();
        let window = c.u64()? as usize;
        let k = c.u64()? as usize;
        let min_level = c.u64()? as usize;
        let config = SwatConfig::with_coefficients(window, k)
            .and_then(|cfg| cfg.with_min_level(min_level))
            .map_err(|_| SnapshotError::Invalid {
                what: "bad window/coefficient/min-level config",
                offset: config_at,
            })?;
        let count = c.u64()? as usize;
        let mut blocks: Vec<Block<BLOCK>> = Vec::new();
        for i in 0..count {
            let at = c.offset();
            let (tag, mut payload) = c.frame()?;
            if tag != SEC_STREAM {
                return Err(SnapshotError::Invalid {
                    what: "expected STREAM section",
                    offset: at,
                });
            }
            let tree = SwatTree::restore(payload.rest())?;
            if *tree.config() != config {
                return Err(SnapshotError::Invalid {
                    what: "stream config mismatch",
                    offset: at,
                });
            }
            if let Some(first) = blocks.first() {
                if tree.arrivals() != first.head.t {
                    return Err(SnapshotError::Invalid {
                        what: "stream clock mismatch",
                        offset: at,
                    });
                }
                if tree.block.head != first.head {
                    return Err(SnapshotError::Invalid {
                        what: "stream geometry mismatch",
                        offset: at,
                    });
                }
            }
            if i % BLOCK == 0 {
                let mut block = Block::new(config);
                block.head = tree.block.head.clone();
                blocks.push(block);
            }
            let block = blocks.last_mut().expect("pushed above");
            block.fill_lane(i % BLOCK, &tree.block);
        }
        if !c.is_empty() {
            return Err(SnapshotError::Invalid {
                what: "trailing bytes",
                offset: c.offset(),
            });
        }
        Ok(StreamSet {
            config,
            streams: count,
            blocks,
        })
    }

    /// Order-sensitive digest over every stream's
    /// [`TreeView::answers_digest`]: equal digests mean every query on
    /// every stream answers identically.
    pub fn answers_digest(&self) -> u64 {
        let mut h = digest::mix(digest::SEED, self.streams as u64);
        for i in 0..self.streams {
            h = digest::mix(h, self.tree(i).answers_digest());
        }
        h
    }
}

/// A [`StreamSet`] that takes rows one clock-aligned tile at a time.
///
/// [`Self::hold`] checks a row and keeps it; the held rows reach the
/// trees through [`StreamSet::extend_rows`] once the set's clock plus
/// their count is a multiple of [`ROW_TILE`] — one aligned chunk of the
/// blocked cascade per block of 16 streams, the rows read in place — and
/// before anything reads the trees. The second half is enforced by type:
/// the only way to the set is [`Self::settled`], which takes `&mut self`
/// and applies the held rows first, so no `&self` path can see a tree
/// missing a held row.
/// `extend_rows` is `push_row` per row node for node, so what a reader
/// sees is exactly what row-by-row ingest would have built.
#[derive(Debug)]
pub struct TiledSet {
    set: StreamSet,
    /// Held rows, row-major; reserved once at [`ROW_TILE`] rows.
    held: Vec<f64>,
    /// Rows in `held` (a zero-stream set's rows are empty).
    held_rows: usize,
}

impl TiledSet {
    /// Wrap `set`, holding nothing.
    pub fn new(set: StreamSet) -> TiledSet {
        TiledSet {
            set,
            held: Vec::new(),
            held_rows: 0,
        }
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.set.streams()
    }

    /// The configuration shared by every stream's tree.
    pub fn config(&self) -> &SwatConfig {
        self.set.config()
    }

    /// Rows taken so far, the held ones included.
    pub fn arrivals(&self) -> u64 {
        self.set.arrivals() + self.held_rows as u64
    }

    /// Rows held and not yet in the trees (at most `ROW_TILE - 1`
    /// between calls).
    pub fn held_rows(&self) -> usize {
        self.held_rows
    }

    /// Check `row` as [`StreamSet::try_push_row`] would and, if it passes,
    /// hold it; apply the held rows if the row completes a tile. A
    /// refused row changes nothing.
    ///
    /// # Errors
    ///
    /// As [`StreamSet::check_row`].
    pub fn hold(&mut self, row: &[f64]) -> Result<(), TreeError> {
        self.set.check_row(row)?;
        if self.held.capacity() == 0 {
            self.held.reserve_exact(ROW_TILE * row.len());
        }
        self.held.extend_from_slice(row);
        self.held_rows += 1;
        if self.arrivals().is_multiple_of(ROW_TILE as u64) {
            self.settle();
        }
        Ok(())
    }

    fn settle(&mut self) {
        if self.held_rows == 0 {
            return;
        }
        self.set.extend_rows(&self.held);
        self.held.clear();
        self.held_rows = 0;
    }

    /// The trees, every held row applied.
    pub fn settled(&mut self) -> &StreamSet {
        self.settle();
        &self.set
    }

    /// [`StreamSet::answers_digest`] of the trees with every held row
    /// applied, without applying them: a settled copy is digested when
    /// rows are held — `O(set)`, for oracles.
    pub fn answers_digest(&self) -> u64 {
        if self.held_rows == 0 {
            return self.set.answers_digest();
        }
        let mut copy = self.set.clone();
        copy.extend_rows(&self.held);
        copy.answers_digest()
    }
}

/// Pearson correlation of two equal-length slices (0 for degenerate
/// inputs).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame;

    fn feed(set: &mut StreamSet, n: usize, f: impl Fn(usize) -> Vec<f64>) {
        for i in 0..n {
            set.push_row(&f(i));
        }
    }

    #[test]
    fn snapshot_written_before_the_sliced_crc_still_restores() {
        // A v2 set snapshot (window 4, k 4, 2 streams, 11 rows) as the
        // commit before slice-by-8 wrote it: every section CRC inside
        // must verify, the restored set must answer as the original did,
        // and a set grown today must serialize to the same bytes.
        const GOLDEN: &str = concat!(
            "53574d5302040000000000000004000000000000000000000000000000020000",
            "000000000005410100006daec46453574154020118000000f818f61e04000000",
            "0000000004000000000000000000000000000000021100000074b0c21d0b0000",
            "000000000001000000000000004003f80000009abffd6c040000000000000000",
            "000000000000000b00000000000000000000000000f83f000000000000004002",
            "00000000000000000000000000fc3f000000000000d03f00000000000000000a",
            "00000000000000000000000000f03f000000000000f83f020000000000000000",
            "0000000000f43f000000000000d03f0000000000000000090000000000000000",
            "0000000000e03f000000000000f03f0200000000000000000000000000e83f00",
            "0000000000d03f01000000000000000a00000000000000000000000000000000",
            "0000000000f83f0400000000000000000000000000e83f000000000000e03f00",
            "0000000000d03f000000000000d03f0541010000e122c3265357415402011800",
            "0000f818f61e0400000000000000040000000000000000000000000000000211",
            "000000a3055a010b0000000000000001000000000000164003f8000000db5349",
            "1c040000000000000000000000000000000b0000000000000000000000000011",
            "40000000000000164002000000000000000000000000801340000000000000e4",
            "3f00000000000000000a00000000000000000000000000084000000000000011",
            "4002000000000000000000000000000d40000000000000e43f00000000000000",
            "000900000000000000000000000000fc3f000000000000084002000000000000",
            "000000000000000340000000000000e43f01000000000000000a000000000000",
            "00000000000000e03f0000000000001140040000000000000000000000000003",
            "40000000000000f43f000000000000e43f000000000000e43f",
        );
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let restored = StreamSet::restore(&golden).unwrap();
        assert_eq!(restored.answers_digest(), 0xa6aadc9036f1bf45);
        let mut grown = StreamSet::new(SwatConfig::with_coefficients(4, 4).unwrap(), 2);
        feed(&mut grown, 11, |i| {
            let x = i as f64;
            vec![x * 0.5 - 3.0, (x * 1.25).rem_euclid(7.0)]
        });
        assert_eq!(grown.answers_digest(), restored.answers_digest());
        assert_eq!(grown.snapshot(), golden);
    }

    #[test]
    fn all_finite_finds_every_non_finite_at_every_position() {
        // Lengths 0..=40 cover no whole lane group, several, and every
        // remainder of the eight lanes.
        for len in 0..=40 {
            let good: Vec<f64> = (0..len).map(|i| i as f64 * 0.75 - 9.0).collect();
            assert!(all_finite(&good), "len {len}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in 0..len {
                    let mut row = good.clone();
                    row[at] = bad;
                    assert!(!all_finite(&row), "{bad} at {at} of {len}");
                }
            }
        }
    }

    #[test]
    fn all_finite_takes_every_finite_extreme() {
        let extremes = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        for len in 0..=40 {
            let row: Vec<f64> = (0..len).map(|i| extremes[i % extremes.len()]).collect();
            assert!(all_finite(&row), "len {len}");
        }
        // Extremes of both signs in one lane: their `v - v` terms are all
        // zero, so no sum of them overflows.
        assert!(all_finite(&[f64::MAX; 64]));
        assert!(all_finite(&[f64::MIN, f64::MAX].repeat(32)));
    }

    #[test]
    fn check_row_names_the_first_non_finite_stream() {
        let set = StreamSet::new(SwatConfig::with_coefficients(16, 4).unwrap(), 37);
        let good: Vec<f64> = (0..37).map(|i| i as f64).collect();
        assert_eq!(set.check_row(&good), Ok(()));
        for first in 0..37 {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut row = good.clone();
                row[first] = bad;
                // A second bad value further on is not the one named.
                if let Some(later) = row.get_mut(first + 9) {
                    *later = f64::NAN;
                }
                assert_eq!(
                    set.check_row(&row),
                    Err(TreeError::NonFiniteInRow { stream: first }),
                    "{bad} at {first}"
                );
            }
        }
    }

    #[test]
    fn bad_row_is_rejected_whole() {
        // A NaN in the middle of a row used to panic after the streams
        // before it had advanced, leaving the set desynchronized.
        let mut set = StreamSet::new(SwatConfig::with_coefficients(16, 4).unwrap(), 5);
        feed(&mut set, 40, |i| {
            (0..5).map(|s| (i * 5 + s) as f64).collect()
        });
        let digest = set.answers_digest();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                set.try_push_row(&[1.0, 2.0, bad, 4.0, f64::NAN]),
                Err(TreeError::NonFiniteInRow { stream: 2 })
            );
        }
        assert_eq!(
            set.try_push_row(&[1.0; 4]),
            Err(TreeError::RowArity { got: 4, want: 5 })
        );
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.push_row(&[1.0, 2.0, f64::NAN, 4.0, 5.0]);
        }));
        assert!(panicked.is_err(), "push_row still panics on a bad row");
        assert_eq!(set.answers_digest(), digest);
        for s in 0..5 {
            assert_eq!(set.tree(s).arrivals(), 40, "stream {s} advanced");
        }
        set.try_push_row(&[1.0; 5]).unwrap();
        assert_eq!(set.tree(4).arrivals(), 41);
    }

    #[test]
    fn bad_block_is_rejected_whole() {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(16, 4).unwrap(), 3);
        set.extend_rows(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let digest = set.answers_digest();
        let mut late_nan = vec![1.0; 3 * 300];
        late_nan[3 * 299 + 1] = f64::NAN;
        for bad in [&[1.0, 2.0, 3.0, 4.0][..], &late_nan] {
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                set.extend_rows(bad);
            }));
            assert!(panicked.is_err(), "a ragged or non-finite block panics");
            assert_eq!(set.answers_digest(), digest, "and no stream advanced");
        }
        // An empty set takes the empty block and nothing else.
        StreamSet::new(*set.config(), 0).extend_rows(&[]);
    }

    #[test]
    fn a_tiled_set_applies_tiles_on_clock_multiples_and_answers_like_rows() {
        // Restored at clock 37: a short first tile at 64, whole ones on.
        let config = SwatConfig::with_coefficients(16, 4).unwrap();
        let row =
            |r: usize| -> Vec<f64> { (0..3).map(|s| ((r * 5 + s * 3) % 13) as f64).collect() };
        let mut twin = StreamSet::new(config, 3);
        feed(&mut twin, 37, row);
        let mut tiled = TiledSet::new(StreamSet::restore(&twin.snapshot()).unwrap());
        let mut held = Vec::new();
        for r in 37..37 + 27 + 2 * ROW_TILE {
            tiled.hold(&row(r)).unwrap();
            twin.push_row(&row(r));
            held.push(tiled.held_rows());
            assert_eq!(tiled.arrivals(), r as u64 + 1);
            // The digest of a holding set is the row-by-row one.
            assert_eq!(tiled.answers_digest(), twin.answers_digest(), "row {r}");
        }
        assert_eq!(held[25..28], [26, 0, 1]);
        assert_eq!(held[27 + 62..27 + 65], [63, 0, 1]);
        assert!(held.iter().all(|&h| h < ROW_TILE));
        // A refused row changes nothing, and a read settles.
        tiled.hold(&row(0)).unwrap();
        twin.push_row(&row(0));
        for bad in [vec![1.0, f64::NAN, 2.0], vec![1.0; 4]] {
            assert!(tiled.hold(&bad).is_err());
        }
        assert_eq!(tiled.held_rows(), 1);
        assert_eq!(tiled.settled().answers_digest(), twin.answers_digest());
        assert_eq!(tiled.held_rows(), 0);
    }

    /// Set snapshot bytes whose stream `odd` (of `streams`) keeps only
    /// its three lowest levels: same configuration and clock as the rest,
    /// another geometry. With `odd == None` every stream is cut alike.
    fn cut_set_bytes(config: SwatConfig, streams: usize, odd: Option<usize>) -> Vec<u8> {
        let mut set = StreamSet::new(config, streams);
        let rows: Vec<f64> = (0..(3 * 256 + 64) * streams)
            .map(|i| match i % 13 {
                0 => 0.0,
                1 => -0.0,
                _ => ((i * 2_654_435_761) % 10_007) as f64 * 0.037 - 180.0,
            })
            .collect();
        set.extend_rows(&rows);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SET_MAGIC);
        bytes.push(SET_VERSION);
        for word in [
            config.window(),
            config.coefficients(),
            config.min_level(),
            streams,
        ] {
            bytes.extend_from_slice(&(word as u64).to_le_bytes());
        }
        for s in 0..streams {
            let tree = set.tree(s);
            let body = if odd.is_none_or(|odd| odd == s) {
                let mut queues = vec![std::collections::VecDeque::new(); config.levels()];
                for (l, _, summary) in tree.nodes().filter(|&(l, _, _)| l < 3) {
                    queues[l].push_back(summary);
                }
                SwatTree::from_restored(config, tree.arrivals(), tree.newest(), queues)
                    .unwrap()
                    .snapshot()
            } else {
                tree.snapshot()
            };
            write_frame(&mut bytes, SEC_STREAM, &body);
        }
        bytes
    }

    #[test]
    fn a_stream_of_another_geometry_is_refused() {
        // No writer produces a set whose streams disagree on which slots
        // hold what: such bytes are refused, at the odd stream's frame,
        // whether it comes first, last, or across a block boundary.
        let config = SwatConfig::with_coefficients(256, 5).unwrap();
        let streams = 37;
        for odd in [0, 15, 16, 17, 36] {
            let bytes = cut_set_bytes(config, streams, Some(odd));
            let err = StreamSet::restore(&bytes).unwrap_err();
            let SnapshotError::Invalid { what, offset } = err else {
                panic!("odd stream {odd}: {err:?}");
            };
            assert_eq!(what, "stream geometry mismatch", "odd stream {odd}");
            // The first stream sets the geometry: an odd first stream is
            // met by the second one.
            let mut at = 37;
            let frames = odd.max(1);
            for _ in 0..frames {
                let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
                at += 9 + len as usize;
            }
            assert_eq!(offset, at, "odd stream {odd}");
        }
    }

    #[test]
    fn a_hand_built_set_takes_the_row_path_and_answers_like_rows() {
        // Every stream keeps only its three lowest levels: one geometry,
        // but not one a stream grows, so the blocked cascade leaves the
        // whole set to the one-row lane step for good — and the result is
        // the row-by-row one, node for node, over a full block and a
        // ragged one. Signed zeros pin the range lanes' operands.
        let config = SwatConfig::with_coefficients(256, 5).unwrap();
        let streams = 17;
        let bytes = cut_set_bytes(config, streams, None);
        let mut blocked = StreamSet::restore(&bytes).unwrap();
        let mut rowwise = StreamSet::restore(&bytes).unwrap();
        assert!(!blocked.tree(5).is_steady());
        let mut at = 0;
        for len in [64, 64, 256, 3, 61, 600] {
            let block: Vec<f64> = (at * streams..(at + len) * streams)
                .map(|i| ((i * 7919) % 1013) as f64 - 500.0)
                .collect();
            at += len;
            blocked.extend_rows(&block);
            for row in block.chunks_exact(streams) {
                rowwise.push_row(row);
            }
            for s in 0..streams {
                let (a, b) = (blocked.tree(s), rowwise.tree(s));
                assert!(a.nodes().eq(b.nodes()), "stream {s}, {at} rows on");
                assert_eq!(a.answers_digest(), b.answers_digest(), "stream {s}");
            }
        }
        assert!(blocked.tree(16).is_warm(), "the cut levels refilled");
    }

    #[test]
    fn stream_shares_sum_to_the_set() {
        // Each view reports its stream's share of its block, so the
        // shares add up to what the set stores — a ragged block too.
        for streams in [1, 15, 16, 17, 37] {
            let mut set = StreamSet::new(SwatConfig::with_coefficients(1024, 4).unwrap(), streams);
            set.extend_rows(&vec![1.5; streams * 64]);
            let shares: usize = (0..streams).map(|s| set.tree(s).space_bytes()).sum();
            let stored: usize = set.blocks.iter().map(Block::space_bytes).sum();
            assert_eq!(shares, stored, "{streams} streams");
        }
        // A full block of sixteen at budget 4, window 1024: about 1.3 KB a
        // stream — 1 296 bytes of lanes, a sixteenth of a slot table and
        // of the block struct.
        let set = StreamSet::new(SwatConfig::with_coefficients(1024, 4).unwrap(), 16);
        let per_stream = set.tree(3).space_bytes();
        assert!((1296..1400).contains(&per_stream), "{per_stream} B");
    }

    #[test]
    fn perfectly_correlated_streams() {
        let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
        feed(&mut set, 200, |i| {
            let x = (i as f64 * 0.3).sin() * 10.0;
            vec![x, 3.0 * x - 5.0]
        });
        let rho = set.correlation(0, 1, 64).unwrap();
        assert!(rho > 0.99, "rho = {rho}");
    }

    #[test]
    fn anti_correlated_streams() {
        let mut set = StreamSet::new(SwatConfig::new(64).unwrap(), 2);
        feed(&mut set, 200, |i| {
            let x = ((i * 17) % 29) as f64;
            vec![x, 100.0 - x]
        });
        let rho = set.correlation(0, 1, 32).unwrap();
        assert!(rho < -0.9, "rho = {rho}");
    }

    #[test]
    fn independent_streams_have_weak_correlation() {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(64, 64).unwrap(), 2);
        // Two decorrelated pseudo-random sequences.
        feed(&mut set, 400, |i| {
            vec![((i * 7919) % 104729) as f64, ((i * 104729) % 7919) as f64]
        });
        let rho = set.correlation(0, 1, 64).unwrap();
        assert!(rho.abs() < 0.4, "rho = {rho}");
    }

    #[test]
    fn lossless_trees_give_exact_correlation() {
        let n = 32;
        let mut set = StreamSet::new(SwatConfig::with_coefficients(n, n).unwrap(), 2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..3 * n {
            let x = ((i * 13) % 37) as f64;
            let y = ((i * 7 + 3) % 23) as f64;
            set.push_row(&[x, y]);
            xs.push(x);
            ys.push(y);
        }
        // Exact correlation over the newest n values (newest first).
        let wx: Vec<f64> = xs.iter().rev().take(n).copied().collect();
        let wy: Vec<f64> = ys.iter().rev().take(n).copied().collect();
        let exact = pearson(&wx, &wy);
        let est = set.correlation(0, 1, n).unwrap();
        assert!((est - exact).abs() < 1e-9, "{est} vs {exact}");
    }

    #[test]
    fn constant_streams_yield_zero() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        feed(&mut set, 64, |_| vec![5.0, 7.0]);
        assert_eq!(set.correlation(0, 1, 16).unwrap(), 0.0);
    }

    #[test]
    fn inner_product_between_matches_reconstructions() {
        let mut set = StreamSet::new(SwatConfig::new(32).unwrap(), 3);
        feed(&mut set, 100, |i| {
            vec![i as f64 % 11.0, i as f64 % 7.0, 1.0]
        });
        // Against the all-ones stream, the pairwise inner product is the
        // sum of stream 0's reconstruction.
        let ip = set.inner_product_between(0, 2, 16).unwrap();
        let direct: f64 = (0..16)
            .map(|idx| set.tree(0).point(idx).unwrap().value)
            .sum();
        assert!((ip - direct).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.push_row(&[1.0]);
    }

    /// Per-stream synthetic columns, deterministic in (stream, index).
    fn columns(streams: usize, len: usize) -> Vec<Vec<f64>> {
        (0..streams)
            .map(|s| {
                (0..len)
                    .map(|i| ((i * (2 * s + 3) + s) % 53) as f64 - 26.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn extend_batched_matches_rows() {
        for (n, k, streams) in [(16, 1, 5), (32, 4, 8), (8, 8, 3)] {
            let config = SwatConfig::with_coefficients(n, k).unwrap();
            let cols = columns(streams, 3 * n + 1);
            // Reference: row-at-a-time sequential ingestion.
            let mut reference = StreamSet::new(config, streams);
            for i in 0..cols[0].len() {
                let row: Vec<f64> = cols.iter().map(|c| c[i]).collect();
                reference.push_row(&row);
            }
            let mut batched = StreamSet::new(config, streams);
            batched.extend_batched(&cols, 1);
            for s in 0..streams {
                let a = reference.tree(s);
                let b = batched.tree(s);
                assert_eq!(a.arrivals(), b.arrivals());
                assert_eq!(a.newest(), b.newest());
                let nodes_a: Vec<_> = a.nodes().collect();
                let nodes_b: Vec<_> = b.nodes().collect();
                assert_eq!(nodes_a, nodes_b, "n={n} k={k} streams={streams} stream {s}");
            }
        }
    }

    #[test]
    fn extend_batched_supports_incremental_blocks() {
        let config = SwatConfig::new(16).unwrap();
        let cols = columns(4, 40);
        let mut whole = StreamSet::new(config, 4);
        whole.extend_batched(&cols, 1);
        let mut blocks = StreamSet::new(config, 4);
        for start in (0..40).step_by(9) {
            let end = (start + 9).min(40);
            let part: Vec<&[f64]> = cols.iter().map(|c| &c[start..end]).collect();
            blocks.extend_batched(&part, 1);
        }
        for s in 0..4 {
            let a: Vec<_> = whole.tree(s).nodes().collect();
            let b: Vec<_> = blocks.tree(s).nodes().collect();
            assert_eq!(a, b, "stream {s}");
        }
    }

    #[test]
    fn set_queries_match_sequential() {
        use crate::query::InnerProductQuery;
        let streams = 7;
        let mut set = StreamSet::new(SwatConfig::with_coefficients(32, 4).unwrap(), streams);
        set.extend_batched(&columns(streams, 100), 1);
        let indices: Vec<usize> = vec![0, 1, 5, 17, 31];
        let queries = [
            InnerProductQuery::exponential(16, 1e9),
            InnerProductQuery::linear_at(3, 20, 1e9),
        ];
        // Sequential reference: one-at-a-time public API per tree.
        let pts_ref: Vec<Vec<_>> = (0..streams)
            .map(|s| {
                indices
                    .iter()
                    .map(|&i| set.tree(s).point(i).unwrap())
                    .collect()
            })
            .collect();
        let ips_ref: Vec<Vec<_>> = (0..streams)
            .map(|s| {
                queries
                    .iter()
                    .map(|q| set.tree(s).inner_product(q).unwrap())
                    .collect()
            })
            .collect();
        let pts = set
            .point_many(&indices, QueryOptions::default(), 1)
            .unwrap();
        assert_eq!(pts, pts_ref, "points");
        let ips = set
            .inner_product_many(&queries, QueryOptions::default(), 1)
            .unwrap();
        assert_eq!(ips, ips_ref, "inner products");
    }

    #[test]
    fn set_queries_report_first_stream_error() {
        // Cold trees: every stream fails; the stream-order-first error for
        // index 0 must come back.
        let set = StreamSet::new(SwatConfig::new(16).unwrap(), 5);
        let err = set
            .point_many(&[0], QueryOptions::default(), 1)
            .unwrap_err();
        assert_eq!(err, TreeError::Uncovered { index: 0 });
    }

    #[test]
    #[should_panic(expected = "column arity")]
    fn extend_batched_rejects_wrong_arity() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.extend_batched(&columns(3, 4), 1);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn extend_batched_rejects_ragged_columns() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        set.extend_batched(&[vec![1.0, 2.0], vec![3.0]], 1);
    }

    #[test]
    fn empty_set_operations_never_panic() {
        // Regression: `extend_batched` indexed `columns[0]` and the
        // query fan-out divided by a zero block count on empty sets.
        use crate::query::InnerProductQuery;
        let config = SwatConfig::new(16).unwrap();
        let mut set = StreamSet::new(config, 0);
        assert_eq!(set.streams(), 0);
        assert_eq!(set.config().window(), 16);
        set.push_row(&[]);
        let no_columns: [Vec<f64>; 0] = [];
        set.extend_batched(&no_columns, 1);
        let pts = set
            .point_many(&[0, 3, 15], QueryOptions::default(), 1)
            .unwrap();
        assert!(pts.is_empty());
        let ips = set
            .inner_product_many(
                &[InnerProductQuery::exponential(8, 1e9)],
                QueryOptions::default(),
                1,
            )
            .unwrap();
        assert!(ips.is_empty());
        assert_eq!(
            set.answers_digest(),
            StreamSet::new(config, 0).answers_digest()
        );
    }

    #[test]
    fn empty_set_snapshot_roundtrips() {
        let config = SwatConfig::with_coefficients(32, 4)
            .unwrap()
            .with_min_level(2)
            .unwrap();
        let set = StreamSet::new(config, 0);
        let restored = StreamSet::restore(&set.snapshot()).unwrap();
        assert_eq!(restored.streams(), 0);
        assert_eq!(restored.config(), set.config());
        assert_eq!(restored.answers_digest(), set.answers_digest());
    }

    #[test]
    fn single_stream_set_matches_lone_tree() {
        let config = SwatConfig::with_coefficients(16, 2).unwrap();
        let cols = columns(1, 50);
        let mut oracle = SwatTree::new(config);
        oracle.push_batch(&cols[0]);
        let indices = [0usize, 1, 7, 15];
        let mut set = StreamSet::new(config, 1);
        set.extend_batched(&cols, 1);
        assert_eq!(set.tree(0).answers_digest(), oracle.answers_digest());
        let pts = set
            .point_many(&indices, QueryOptions::default(), 1)
            .unwrap();
        assert_eq!(pts.len(), 1);
        for (slot, &idx) in pts[0].iter().zip(&indices) {
            assert_eq!(*slot, oracle.point(idx).unwrap(), "idx={idx}");
        }
    }

    #[test]
    fn v1_set_snapshots_are_rejected_by_version() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        for i in 0..50 {
            set.push_row(&[i as f64, 1.0 - i as f64]);
        }
        // The v1 writer, frozen here byte for byte: a bare stream count
        // with no configuration header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SET_MAGIC);
        bytes.push(1);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for s in 0..2 {
            write_frame(&mut bytes, SEC_STREAM, &set.tree(s).snapshot());
        }
        for cut in 5..=bytes.len() {
            assert_eq!(
                StreamSet::restore(&bytes[..cut]).unwrap_err(),
                SnapshotError::BadVersion(1)
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_every_stream() {
        let mut set = StreamSet::new(SwatConfig::with_coefficients(32, 2).unwrap(), 3);
        for i in 0..150 {
            let x = (i as f64 * 0.31).sin();
            set.push_row(&[x, x * 2.0, 5.0 - x]);
        }
        let restored = StreamSet::restore(&set.snapshot()).unwrap();
        assert_eq!(restored.streams(), 3);
        assert_eq!(restored.answers_digest(), set.answers_digest());
        for s in 0..3 {
            for idx in 0..32 {
                assert_eq!(
                    set.tree(s).point(idx).unwrap(),
                    restored.tree(s).point(idx).unwrap(),
                    "stream {s} idx {idx}"
                );
            }
        }
        // Restored sets keep ingesting identically.
        let mut a = set;
        let mut b = restored;
        for i in 0..40 {
            let row = [i as f64, -(i as f64), 0.5];
            a.push_row(&row);
            b.push_row(&row);
        }
        assert_eq!(a.answers_digest(), b.answers_digest());
    }

    #[test]
    fn snapshot_restore_rejects_corruption() {
        let mut set = StreamSet::new(SwatConfig::new(16).unwrap(), 2);
        for i in 0..50 {
            set.push_row(&[i as f64, 2.0 * i as f64]);
        }
        let bytes = set.snapshot();
        let digest = set.answers_digest();
        assert!(matches!(
            StreamSet::restore(b"????xxxx"),
            Err(SnapshotError::BadMagic)
        ));
        for cut in 0..bytes.len() {
            assert!(StreamSet::restore(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << (byte % 8);
            if let Ok(r) = StreamSet::restore(&bad) {
                assert_eq!(r.answers_digest(), digest, "flip at byte {byte}");
            }
        }
    }
}
