//! Query-serving throughput harness: reference vs the zero-allocation
//! engine vs the wavelet-domain kernel.
//!
//! Sweeps window size × coefficient budget × query mix over warm trees,
//! timing the frozen pre-engine implementations
//! (`swat_tree::query::reference`, one allocation-heavy cover per call)
//! against the batched scratch engine ([`SwatTree::point_many`],
//! [`SwatTree::inner_product_many`]) and the coefficient-domain kernel
//! ([`SwatTree::inner_product_coeffs`]), plus the [`StreamSet`] parallel
//! query fan-out across thread counts. Before any timing, every fast
//! path is checked against its slow path on the full query set —
//! bit-identical for the engine, bound-overlap for the kernel — and the
//! verdict lands in the artifact as `"agreement"`. Renders a table (via
//! [`crate::report`]) and the `results/BENCH_query.json` artifact
//! (schema in EXPERIMENTS.md); backs the `swat query-bench` CLI
//! subcommand and the criterion target in `benches/query.rs`.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::Rng;

use crate::report;
use swat_data::Dataset;
use swat_tree::query::reference;
use swat_tree::{
    multi::StreamSet, InnerProductAnswer, InnerProductQuery, PointAnswer, QueryOptions,
    QueryScratch, RangeQuery, SwatConfig, SwatTree,
};

/// The measurement grid.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    /// Window sizes to measure (powers of two).
    pub windows: Vec<usize>,
    /// Coefficient budgets to measure.
    pub coefficients: Vec<usize>,
    /// Point queries per case.
    pub points: usize,
    /// Inner-product queries per case (mixed profiles, spans up to N/2).
    pub inners: usize,
    /// Range queries per case (full-window spans).
    pub ranges: usize,
    /// Stream count for the fan-out sweep.
    pub streams: usize,
    /// Thread counts for the fan-out sweep.
    pub threads: Vec<usize>,
    /// Timed repetitions per case; the fastest is reported.
    pub repetitions: usize,
    /// Seed for data and query generation.
    pub seed: u64,
}

impl QueryConfig {
    /// The default full-size grid (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        QueryConfig {
            windows: vec![1024, 4096],
            coefficients: vec![1, 8],
            points: 20_000,
            inners: 400,
            ranges: 50,
            streams: 8,
            threads: vec![1, 2, 4, 8],
            repetitions: 3,
            seed,
        }
    }

    /// A drastically shrunk grid for smoke tests (`SWAT_QUICK` style).
    pub fn quick(seed: u64) -> Self {
        QueryConfig {
            windows: vec![256],
            coefficients: vec![1, 4],
            points: 2_000,
            inners: 50,
            ranges: 10,
            streams: 4,
            threads: vec![1, 2],
            repetitions: 1,
            seed,
        }
    }
}

/// One measured (mode, window, k, streams, threads) point.
#[derive(Debug, Clone)]
pub struct QueryCase {
    /// Which path was timed (e.g. `"point_reference"`, `"point_batched"`).
    pub mode: &'static str,
    /// Window size `N`.
    pub window: usize,
    /// Coefficient budget `k`.
    pub k: usize,
    /// Streams queried (1 except in fan-out mode).
    pub streams: usize,
    /// Worker threads used (1 except in fan-out mode).
    pub threads: usize,
    /// Queries answered per repetition.
    pub queries: u64,
    /// Fastest repetition's wall time.
    pub elapsed: Duration,
    /// Throughput, `queries / elapsed`.
    pub queries_per_sec: f64,
}

/// Fast-vs-slow throughput ratios for one (window, k) grid point.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Window size `N`.
    pub window: usize,
    /// Coefficient budget `k`.
    pub k: usize,
    /// `point_batched` / `point_reference`.
    pub point: f64,
    /// `inner_batched` / `inner_reference`.
    pub inner: f64,
    /// `inner_kernel` / `inner_reference`.
    pub inner_kernel: f64,
    /// `range_scratch` / `range_reference`.
    pub range: f64,
}

/// A full run: the grid, the agreement verdict, and every measured case.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Seed the data and queries were generated from.
    pub seed: u64,
    /// Whether every fast path agreed with its slow path on the full
    /// query set (bit-identical for the engine, bound-overlap for the
    /// kernel). Timing results are meaningless if this is false.
    pub agreement: bool,
    /// Measured cases, in measurement order.
    pub cases: Vec<QueryCase>,
    /// Per-(window, k) speedup ratios.
    pub speedups: Vec<Speedup>,
}

/// The prebuilt query set for one grid point (built outside all timing).
pub struct QuerySet {
    /// Point-query window indices.
    pub indices: Vec<usize>,
    /// Inner-product queries, mixed exponential/linear/general profiles.
    pub inners: Vec<InnerProductQuery>,
    /// Range queries.
    pub ranges: Vec<RangeQuery>,
}

/// Build the query set for window `n`: biased-recent point indices, inner
/// products with spans up to `n/2`, full-window range queries.
pub fn build_queries(cfg: &QueryConfig, n: usize) -> QuerySet {
    let mut rng = swat_sim::rng_stream(cfg.seed, 0x5157_4259 ^ n as u64); // "QWRY"
    let indices: Vec<usize> = (0..cfg.points)
        .map(|_| {
            // The paper's biased query model: most lookups hit recent data.
            let span = 1usize << rng.gen_range(1..=n.trailing_zeros());
            rng.gen_range(0..span)
        })
        .collect();
    let inners: Vec<InnerProductQuery> = (0..cfg.inners)
        .map(|i| {
            let start = rng.gen_range(0..n / 2);
            let m = rng.gen_range(1..=n / 2);
            match i % 3 {
                0 => InnerProductQuery::exponential_at(start, m.min(n - start), 1e9),
                1 => InnerProductQuery::linear_at(start, m.min(n - start), 1e9),
                _ => {
                    // General profile: a sparse, unsorted handful.
                    let mut idx = Vec::with_capacity(8);
                    while idx.len() < 8 {
                        let c = rng.gen_range(0..n);
                        if !idx.contains(&c) {
                            idx.push(c);
                        }
                    }
                    let w: Vec<f64> = (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    InnerProductQuery::new(idx, w, 1e9).expect("indices are distinct")
                }
            }
        })
        .collect();
    let ranges: Vec<RangeQuery> = (0..cfg.ranges)
        .map(|_| RangeQuery {
            center: rng.gen_range(-1.0..1.0),
            radius: rng.gen_range(0.1..2.0),
            newest: 0,
            oldest: n - 1,
        })
        .collect();
    QuerySet {
        indices,
        inners,
        ranges,
    }
}

/// Kernel: point queries via the frozen pre-engine path.
pub fn points_reference(tree: &SwatTree, indices: &[usize]) -> f64 {
    let mut acc = 0.0;
    for &idx in indices {
        acc += reference::point_with(tree, idx, QueryOptions::default())
            .expect("warm tree covers the window")
            .value;
    }
    acc
}

/// Kernel: point queries via the batched scratch engine.
pub fn points_batched(
    tree: &SwatTree,
    indices: &[usize],
    scratch: &mut QueryScratch,
    out: &mut Vec<PointAnswer>,
) -> f64 {
    tree.point_many(indices, QueryOptions::default(), scratch, out)
        .expect("warm tree covers the window");
    out.iter().map(|a| a.value).sum()
}

/// Kernel: inner products via the frozen pre-engine path.
pub fn inners_reference(tree: &SwatTree, queries: &[InnerProductQuery]) -> f64 {
    let mut acc = 0.0;
    for q in queries {
        acc += reference::inner_product_with(tree, q, QueryOptions::default())
            .expect("warm tree covers the window")
            .value;
    }
    acc
}

/// Kernel: inner products via the batched scratch engine.
pub fn inners_batched(
    tree: &SwatTree,
    queries: &[InnerProductQuery],
    scratch: &mut QueryScratch,
    out: &mut Vec<InnerProductAnswer>,
) -> f64 {
    tree.inner_product_many(queries, QueryOptions::default(), scratch, out)
        .expect("warm tree covers the window");
    out.iter().map(|a| a.value).sum()
}

/// Kernel: inner products via the wavelet-domain coefficient kernel.
pub fn inners_kernel(
    tree: &SwatTree,
    queries: &[InnerProductQuery],
    scratch: &mut QueryScratch,
) -> f64 {
    let mut acc = 0.0;
    for q in queries {
        acc += tree
            .inner_product_coeffs(q, QueryOptions::default(), scratch)
            .expect("warm tree covers the window")
            .value;
    }
    acc
}

/// Kernel: range queries via the frozen pre-engine path.
pub fn ranges_reference(tree: &SwatTree, queries: &[RangeQuery]) -> usize {
    let mut acc = 0;
    for q in queries {
        acc += reference::range_query_with(tree, q, QueryOptions::default())
            .expect("warm tree covers the window")
            .len();
    }
    acc
}

/// Kernel: range queries via the scratch engine.
pub fn ranges_scratch(
    tree: &SwatTree,
    queries: &[RangeQuery],
    scratch: &mut QueryScratch,
    out: &mut Vec<swat_tree::RangeMatch>,
) -> usize {
    let mut acc = 0;
    for q in queries {
        tree.range_query_with_scratch(q, QueryOptions::default(), scratch, out)
            .expect("warm tree covers the window");
        acc += out.len();
    }
    acc
}

fn time_best<T>(repetitions: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed());
        drop(out);
    }
    best
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Check every fast path against its slow path on the full query set.
fn check_agreement(tree: &SwatTree, qs: &QuerySet, scratch: &mut QueryScratch) -> bool {
    let opts = QueryOptions::default();
    let mut pts = Vec::new();
    if tree
        .point_many(&qs.indices, opts, scratch, &mut pts)
        .is_err()
    {
        return false;
    }
    for (&idx, got) in qs.indices.iter().zip(&pts) {
        let want = match reference::point_with(tree, idx, opts) {
            Ok(a) => a,
            Err(_) => return false,
        };
        if bits(got.value) != bits(want.value)
            || bits(got.error_bound) != bits(want.error_bound)
            || got.level != want.level
            || got.extrapolated != want.extrapolated
        {
            return false;
        }
    }
    let mut ips = Vec::new();
    if tree
        .inner_product_many(&qs.inners, opts, scratch, &mut ips)
        .is_err()
    {
        return false;
    }
    for (q, got) in qs.inners.iter().zip(&ips) {
        let want = match reference::inner_product_with(tree, q, opts) {
            Ok(a) => a,
            Err(_) => return false,
        };
        if bits(got.value) != bits(want.value)
            || bits(got.error_bound) != bits(want.error_bound)
            || got.meets_precision != want.meets_precision
            || got.nodes_used != want.nodes_used
            || got.extrapolated != want.extrapolated
        {
            return false;
        }
        // The kernel answers approximately; its bound must overlap the
        // exact path's (both contain the truth, so the intervals meet).
        let kernel = match tree.inner_product_coeffs(q, opts, scratch) {
            Ok(a) => a,
            Err(_) => return false,
        };
        if (kernel.value - want.value).abs() > kernel.error_bound + want.error_bound + 1e-9 {
            return false;
        }
    }
    let mut matches = Vec::new();
    for q in &qs.ranges {
        let want = match reference::range_query_with(tree, q, opts) {
            Ok(m) => m,
            Err(_) => return false,
        };
        if tree
            .range_query_with_scratch(q, opts, scratch, &mut matches)
            .is_err()
        {
            return false;
        }
        if matches.len() != want.len()
            || matches
                .iter()
                .zip(&want)
                .any(|(a, b)| a.index != b.index || bits(a.value) != bits(b.value))
        {
            return false;
        }
    }
    true
}

/// Measure the whole grid.
pub fn run(cfg: &QueryConfig) -> QueryReport {
    let mut cases = Vec::new();
    let mut speedups = Vec::new();
    let mut agreement = true;
    for &window in &cfg.windows {
        let qs = build_queries(cfg, window);
        let data = Dataset::Synthetic.series(cfg.seed, 3 * window);
        for &k in &cfg.coefficients {
            let config =
                SwatConfig::with_coefficients(window, k).expect("bench windows are powers of two");
            let mut tree = SwatTree::new(config);
            tree.extend(data.iter().copied());
            let mut scratch = QueryScratch::new();
            let mut pts = Vec::new();
            let mut ips = Vec::new();
            let mut matches = Vec::new();

            agreement &= check_agreement(&tree, &qs, &mut scratch);

            let case = |mode, streams, threads, queries: u64, elapsed: Duration| QueryCase {
                mode,
                window,
                k,
                streams,
                threads,
                queries,
                elapsed,
                queries_per_sec: queries as f64 / elapsed.as_secs_f64().max(1e-12),
            };

            let nq = qs.indices.len() as u64;
            let t_pref = time_best(cfg.repetitions, || points_reference(&tree, &qs.indices));
            cases.push(case("point_reference", 1, 1, nq, t_pref));
            let t_pbat = time_best(cfg.repetitions, || {
                points_batched(&tree, &qs.indices, &mut scratch, &mut pts)
            });
            cases.push(case("point_batched", 1, 1, nq, t_pbat));

            let ni = qs.inners.len() as u64;
            let t_iref = time_best(cfg.repetitions, || inners_reference(&tree, &qs.inners));
            cases.push(case("inner_reference", 1, 1, ni, t_iref));
            let t_ibat = time_best(cfg.repetitions, || {
                inners_batched(&tree, &qs.inners, &mut scratch, &mut ips)
            });
            cases.push(case("inner_batched", 1, 1, ni, t_ibat));
            let t_iker = time_best(cfg.repetitions, || {
                inners_kernel(&tree, &qs.inners, &mut scratch)
            });
            cases.push(case("inner_kernel", 1, 1, ni, t_iker));

            let nr = qs.ranges.len() as u64;
            let t_rref = time_best(cfg.repetitions, || ranges_reference(&tree, &qs.ranges));
            cases.push(case("range_reference", 1, 1, nr, t_rref));
            let t_rscr = time_best(cfg.repetitions, || {
                ranges_scratch(&tree, &qs.ranges, &mut scratch, &mut matches)
            });
            cases.push(case("range_scratch", 1, 1, nr, t_rscr));

            let ratio =
                |slow: Duration, fast: Duration| slow.as_secs_f64() / fast.as_secs_f64().max(1e-12);
            speedups.push(Speedup {
                window,
                k,
                point: ratio(t_pref, t_pbat),
                inner: ratio(t_iref, t_ibat),
                inner_kernel: ratio(t_iref, t_iker),
                range: ratio(t_rref, t_rscr),
            });

            // Parallel fan-out: the same point block against every stream
            // of a StreamSet (measured per answered query).
            let mut set = StreamSet::new(config, cfg.streams);
            let columns: Vec<Vec<f64>> = (0..cfg.streams)
                .map(|s| Dataset::Synthetic.series(cfg.seed.wrapping_add(s as u64), 3 * window))
                .collect();
            set.extend_batched(&columns, 2);
            for &threads in &cfg.threads {
                let elapsed = time_best(cfg.repetitions, || {
                    set.point_many(&qs.indices, QueryOptions::default(), threads)
                        .expect("warm trees cover the window")
                });
                cases.push(case(
                    "fanout_points",
                    cfg.streams,
                    threads,
                    nq * cfg.streams as u64,
                    elapsed,
                ));
            }
        }
    }
    QueryReport {
        seed: cfg.seed,
        agreement,
        cases,
        speedups,
    }
}

impl QueryReport {
    /// Render the cases and speedups as tables on stdout.
    pub fn print(&self) {
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.mode.to_owned(),
                    c.window.to_string(),
                    c.k.to_string(),
                    c.streams.to_string(),
                    c.threads.to_string(),
                    c.queries.to_string(),
                    report::fmt_duration(c.elapsed),
                    report::fmt(c.queries_per_sec),
                ]
            })
            .collect();
        report::print_table(
            "query throughput",
            &[
                "mode",
                "window",
                "k",
                "streams",
                "threads",
                "queries",
                "time",
                "queries/s",
            ],
            &rows,
        );
        let rows: Vec<Vec<String>> = self
            .speedups
            .iter()
            .map(|s| {
                vec![
                    s.window.to_string(),
                    s.k.to_string(),
                    format!("{:.2}x", s.point),
                    format!("{:.2}x", s.inner),
                    format!("{:.2}x", s.inner_kernel),
                    format!("{:.2}x", s.range),
                ]
            })
            .collect();
        report::print_table(
            "engine speedup vs reference",
            &["window", "k", "point", "inner", "inner_kernel", "range"],
            &rows,
        );
        println!(
            "\nfast-vs-slow agreement: {}",
            if self.agreement { "OK" } else { "FAILED" }
        );
    }

    /// Serialize as the `BENCH_query.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(512 + 160 * self.cases.len());
        out.push_str("{\n");
        out.push_str("  \"bench\": \"query\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!("  \"agreement\": {},\n", self.agreement));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"window\": {}, \"k\": {}, \"streams\": {}, \
                 \"threads\": {}, \"queries\": {}, \"elapsed_ns\": {}, \"queries_per_sec\": {:.1}}}{}\n",
                c.mode,
                c.window,
                c.k,
                c.streams,
                c.threads,
                c.queries,
                c.elapsed.as_nanos(),
                c.queries_per_sec,
                if i + 1 == self.cases.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"speedups\": [\n");
        for (i, s) in self.speedups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"window\": {}, \"k\": {}, \"point\": {:.2}, \"inner\": {:.2}, \
                 \"inner_kernel\": {:.2}, \"range\": {:.2}}}{}\n",
                s.window,
                s.k,
                s.point,
                s.inner,
                s.inner_kernel,
                s.range,
                if i + 1 == self.speedups.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON artifact, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or the write.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        report::write_json(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_and_agrees() {
        let mut cfg = QueryConfig::quick(7);
        cfg.points = 200;
        cfg.inners = 12;
        cfg.ranges = 3;
        let report = run(&cfg);
        assert!(report.agreement, "fast paths disagreed with reference");
        // windows × ks × (7 single-stream modes + |threads| fan-out cases)
        assert_eq!(
            report.cases.len(),
            cfg.windows.len() * cfg.coefficients.len() * (7 + cfg.threads.len())
        );
        assert_eq!(
            report.speedups.len(),
            cfg.windows.len() * cfg.coefficients.len()
        );
        for c in &report.cases {
            assert!(c.queries > 0);
            assert!(c.queries_per_sec > 0.0, "{}: no throughput", c.mode);
        }
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"query\""));
        assert!(json.contains("\"agreement\": true"));
        assert!(json.contains("\"mode\": \"inner_kernel\""));
        assert_eq!(json.matches("\"point\":").count(), report.speedups.len());
    }

    #[test]
    fn query_sets_are_deterministic_and_in_window() {
        let cfg = QueryConfig::quick(3);
        let a = build_queries(&cfg, 256);
        let b = build_queries(&cfg, 256);
        assert_eq!(a.indices, b.indices);
        assert!(a.indices.iter().all(|&i| i < 256));
        for (x, y) in a.inners.iter().zip(&b.inners) {
            assert_eq!(x, y);
        }
        assert!(a
            .inners
            .iter()
            .all(|q| q.indices().iter().all(|&i| i < 256)));
    }
}
