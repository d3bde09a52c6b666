//! Ingestion throughput harness: per-push vs frozen-reference vs blocked
//! batch vs sharded.
//!
//! Measures the ingestion paths the tree offers — [`SwatTree::push`] per
//! value, the **frozen** pre-block scalar path
//! (`swat_tree::ingest::reference`, the before-side of every speedup
//! claim), the blocked [`SwatTree::push_batch`] cascade (swept across
//! chunk caps), and [`StreamSet::extend_batched`] sharding many streams
//! across scoped threads (swept across stream counts) — over a grid of
//! window sizes and coefficient budgets. Renders the result both as a
//! table (via [`crate::report`]) and as the `results/BENCH_ingest.json`
//! perf-baseline artifact (schema documented in EXPERIMENTS.md), whose
//! summary carries `batch_ge_reference`: whether the blocked path beat
//! the frozen reference at every grid point *in the same run* — the
//! relative assertion `scripts/check.sh` gates on, immune to machine
//! speed. Runs outside criterion so the CLI's `ingest-bench` subcommand
//! and CI can produce the artifact directly; the criterion target in
//! `benches/ingest.rs` reuses the same kernels.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::report;
use swat_data::Dataset;
use swat_tree::ingest::reference;
use swat_tree::{multi::StreamSet, IngestScratch, SwatConfig, SwatTree};

/// The measurement grid.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Window sizes to measure (powers of two).
    pub windows: Vec<usize>,
    /// Coefficient budgets to measure.
    pub coefficients: Vec<usize>,
    /// Total values ingested per case (split across streams in sharded
    /// mode, so every case does the same amount of work).
    pub values: usize,
    /// Stream counts for the sharded mode (swept so scaling is measured
    /// with streams >> threads, not at a fixed toy count).
    pub streams: Vec<usize>,
    /// Thread counts for the sharded mode.
    pub threads: Vec<usize>,
    /// Blocked-path chunk caps for the batch mode (0 = the default cap).
    pub chunks: Vec<usize>,
    /// Timed repetitions per case; the fastest is reported.
    pub repetitions: usize,
    /// Seed for the synthetic input data.
    pub seed: u64,
}

impl IngestConfig {
    /// The default full-size grid (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        IngestConfig {
            windows: vec![1024, 16384],
            coefficients: vec![1, 8],
            values: 1 << 20,
            streams: vec![64, 1024],
            threads: vec![1, 2, 4, 8],
            chunks: vec![64, 1024],
            repetitions: 3,
            seed,
        }
    }

    /// A drastically shrunk grid for smoke tests (`SWAT_QUICK` style).
    pub fn quick(seed: u64) -> Self {
        IngestConfig {
            windows: vec![256],
            coefficients: vec![1, 4],
            values: 1 << 14,
            streams: vec![16],
            threads: vec![1, 2],
            chunks: vec![0],
            repetitions: 1,
            seed,
        }
    }
}

/// One measured (mode, window, k, streams, threads, chunk) point.
#[derive(Debug, Clone)]
pub struct IngestCase {
    /// `"push"`, `"reference"`, `"batch"`, or `"sharded"`.
    pub mode: &'static str,
    /// Window size `N`.
    pub window: usize,
    /// Coefficient budget `k`.
    pub k: usize,
    /// Number of streams ingested (1 except in sharded mode).
    pub streams: usize,
    /// Worker threads used (1 except in sharded mode).
    pub threads: usize,
    /// Blocked-path chunk cap (0 where the mode has none / the default).
    pub chunk: usize,
    /// Total values ingested.
    pub values: u64,
    /// Fastest repetition's wall time.
    pub elapsed: Duration,
    /// Throughput, `values / elapsed`.
    pub values_per_sec: f64,
}

/// A full run: the grid plus every measured case.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Seed the input data was generated from.
    pub seed: u64,
    /// Total values ingested per case.
    pub values_per_case: usize,
    /// Measured cases, in measurement order.
    pub cases: Vec<IngestCase>,
}

/// Kernel: per-value `push` ingestion (the production scalar path).
pub fn ingest_per_push(config: SwatConfig, data: &[f64]) -> SwatTree {
    let mut tree = SwatTree::new(config);
    for &v in data {
        tree.push(v);
    }
    tree
}

/// Kernel: the frozen pre-block scalar batch path — the baseline the
/// blocked cascade's speedups are measured against, in the same run.
pub fn ingest_reference(config: SwatConfig, data: &[f64]) -> SwatTree {
    let mut tree = SwatTree::new(config);
    reference::push_batch(&mut tree, data);
    tree
}

/// Kernel: single-tree blocked batched ingestion. `chunk = 0` uses the
/// default chunk cap; anything else sweeps the cascade amortization.
pub fn ingest_batched(config: SwatConfig, data: &[f64], chunk: usize) -> SwatTree {
    let mut tree = SwatTree::new(config);
    if chunk == 0 {
        tree.push_batch(data);
    } else {
        let mut scratch = IngestScratch::with_max_chunk(chunk);
        tree.push_batch_with_scratch(data, &mut scratch);
    }
    tree
}

/// Kernel: multi-stream sharded ingestion.
pub fn ingest_sharded(config: SwatConfig, columns: &[Vec<f64>], threads: usize) -> StreamSet {
    let mut set = StreamSet::new(config, columns.len());
    set.extend_batched(columns, threads);
    set
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

/// Measure the whole grid.
pub fn run(cfg: &IngestConfig) -> IngestReport {
    let data = Dataset::Synthetic.series(cfg.seed, cfg.values);
    // One column set per swept stream count; every sharded case ingests
    // cfg.values total regardless of how they are split.
    let column_sets: Vec<(usize, Vec<Vec<f64>>)> = cfg
        .streams
        .iter()
        .map(|&streams| {
            let per_stream = cfg.values / streams.max(1);
            let columns = (0..streams)
                .map(|s| Dataset::Synthetic.series(cfg.seed.wrapping_add(s as u64), per_stream))
                .collect();
            (streams, columns)
        })
        .collect();
    let mut cases = Vec::new();
    for &window in &cfg.windows {
        for &k in &cfg.coefficients {
            let config =
                SwatConfig::with_coefficients(window, k).expect("bench windows are powers of two");
            let case = |mode, streams, threads, chunk, values: u64, elapsed: Duration| IngestCase {
                mode,
                window,
                k,
                streams,
                threads,
                chunk,
                values,
                elapsed,
                values_per_sec: values as f64 / elapsed.as_secs_f64().max(1e-12),
            };
            let elapsed = time_best(cfg.repetitions, || ingest_per_push(config, &data));
            cases.push(case("push", 1, 1, 0, data.len() as u64, elapsed));
            let elapsed = time_best(cfg.repetitions, || ingest_reference(config, &data));
            cases.push(case("reference", 1, 1, 0, data.len() as u64, elapsed));
            for &chunk in &cfg.chunks {
                let elapsed = time_best(cfg.repetitions, || ingest_batched(config, &data, chunk));
                cases.push(case("batch", 1, 1, chunk, data.len() as u64, elapsed));
            }
            for (streams, columns) in &column_sets {
                let sharded_total: u64 = columns.iter().map(|c| c.len() as u64).sum();
                for &threads in &cfg.threads {
                    let elapsed =
                        time_best(cfg.repetitions, || ingest_sharded(config, columns, threads));
                    cases.push(case(
                        "sharded",
                        *streams,
                        threads,
                        0,
                        sharded_total,
                        elapsed,
                    ));
                }
            }
        }
    }
    IngestReport {
        seed: cfg.seed,
        values_per_case: cfg.values,
        cases,
    }
}

impl IngestReport {
    /// `true` when, at every (window, k) grid point, the best blocked
    /// batch case beat the frozen reference measured in the same run —
    /// the machine-independent assertion the check-script smoke gates on.
    pub fn batch_ge_reference(&self) -> bool {
        self.cases
            .iter()
            .filter(|c| c.mode == "reference")
            .all(|r| {
                self.cases
                    .iter()
                    .filter(|c| c.mode == "batch" && c.window == r.window && c.k == r.k)
                    .any(|b| b.values_per_sec >= r.values_per_sec)
            })
    }

    /// Render the cases as a table on stdout.
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
                    c.chunk.to_string(),
                    c.values.to_string(),
                    report::fmt_duration(c.elapsed),
                    report::fmt(c.values_per_sec),
                ]
            })
            .collect();
        report::print_table(
            "ingestion throughput",
            &[
                "mode", "window", "k", "streams", "threads", "chunk", "values", "time", "values/s",
            ],
            &rows,
        );
        println!(
            "batch >= reference at every grid point: {}",
            self.batch_ge_reference()
        );
    }

    /// Serialize as the `BENCH_ingest.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(256 + 180 * self.cases.len());
        out.push_str("{\n");
        out.push_str("  \"bench\": \"ingest\",\n");
        out.push_str("  \"schema\": 2,\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!(
            "  \"values_per_case\": {},\n",
            self.values_per_case
        ));
        out.push_str(&format!(
            "  \"batch_ge_reference\": {},\n",
            self.batch_ge_reference()
        ));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"window\": {}, \"k\": {}, \"streams\": {}, \
                 \"threads\": {}, \"chunk\": {}, \"values\": {}, \"elapsed_ns\": {}, \
                 \"values_per_sec\": {:.1}}}{}\n",
                c.mode,
                c.window,
                c.k,
                c.streams,
                c.threads,
                c.chunk,
                c.values,
                c.elapsed.as_nanos(),
                c.values_per_sec,
                if i + 1 == self.cases.len() { "" } else { "," }
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
    fn quick_grid_runs_and_reports() {
        let mut cfg = IngestConfig::quick(7);
        cfg.values = 1 << 10;
        let report = run(&cfg);
        // windows × ks × (push + reference + |chunks| batch
        //                 + |streams| × |threads| sharded)
        assert_eq!(
            report.cases.len(),
            cfg.windows.len()
                * cfg.coefficients.len()
                * (2 + cfg.chunks.len() + cfg.streams.len() * cfg.threads.len())
        );
        for c in &report.cases {
            assert!(c.values > 0);
            assert!(c.values_per_sec > 0.0, "{}: no throughput", c.mode);
        }
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"ingest\""));
        assert!(json.contains("\"schema\": 2"));
        assert!(json.contains("\"mode\": \"reference\""));
        assert!(json.contains("\"mode\": \"sharded\""));
        assert!(json.contains("\"batch_ge_reference\": "));
        assert_eq!(
            json.matches("\"mode\"").count(),
            report.cases.len(),
            "one JSON object per case"
        );
    }

    #[test]
    fn kernels_agree_on_final_state() {
        let config = SwatConfig::with_coefficients(64, 4).unwrap();
        let data = Dataset::Synthetic.series(3, 500);
        let a = ingest_per_push(config, &data);
        let b = ingest_batched(config, &data, 0);
        let c = ingest_batched(config, &data, 64);
        let r = ingest_reference(config, &data);
        assert_eq!(a.arrivals(), b.arrivals());
        let na: Vec<_> = a.nodes().collect();
        let nb: Vec<_> = b.nodes().collect();
        let nc: Vec<_> = c.nodes().collect();
        let nr: Vec<_> = r.nodes().collect();
        assert_eq!(na, nb);
        assert_eq!(na, nc);
        assert_eq!(na, nr);
        assert_eq!(a.answers_digest(), r.answers_digest());
    }

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join("swat-ingest-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = IngestConfig::quick(1);
        cfg.values = 1 << 9;
        cfg.windows = vec![64];
        cfg.coefficients = vec![1];
        cfg.streams = vec![4];
        cfg.threads = vec![1];
        let report = run(&cfg);
        let path = dir.join("nested").join("BENCH_ingest.json");
        report.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("values_per_sec"));
        assert!(text.contains("batch_ge_reference"));
    }
}
