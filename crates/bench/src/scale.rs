//! Scale harness: sharded ingest and distributed merge at large stream
//! counts.
//!
//! Sweeps [`ShardedStreamSet`] over a grid of stream counts and thread
//! counts, measuring ingest throughput (rows/sec and values/sec), the
//! per-stream fixed memory cost (`bytes/stream`, the quantity the
//! inline level slab in `swat-tree` exists to shrink), and the latency
//! of the exact two-round distributed top-k merge. Below a configurable
//! stream-count limit every case is also verified against the unsharded
//! [`StreamSet`] oracle: digests must match bit for bit and the
//! distributed top-k must equal the brute-force ranking. Renders a
//! table (via [`crate::report`]) and the `results/BENCH_scale.json`
//! artifact (schema in EXPERIMENTS.md); backs the `swat scale-bench`
//! CLI subcommand.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::report;
use swat_data::Dataset;
use swat_tree::shard::{root_summary, ShardedStreamSet};
use swat_tree::{multi::StreamSet, SwatConfig};
use swat_wavelet::TopCoeff;

/// The measurement grid.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Stream counts to sweep (each is one batch of cases).
    pub stream_counts: Vec<usize>,
    /// Number of hash shards.
    pub shards: usize,
    /// Thread counts for ingest and merge.
    pub threads: Vec<usize>,
    /// Window size `N` (power of two).
    pub window: usize,
    /// Coefficient budget `k`.
    pub k: usize,
    /// Rows ingested per stream (`2 * window` warms every tree).
    pub rows: usize,
    /// Retention bound of the distributed top-k merge.
    pub top_k: usize,
    /// Timed repetitions per case; the fastest is reported.
    pub repetitions: usize,
    /// Verify against the unsharded oracle only up to this stream count
    /// (the oracle doubles memory and time at the top of the sweep).
    pub verify_limit: usize,
    /// Seed for the synthetic input data.
    pub seed: u64,
}

impl ScaleConfig {
    /// The default full-size sweep, reaching 100k streams.
    pub fn full(seed: u64) -> Self {
        ScaleConfig {
            stream_counts: vec![1_000, 10_000, 100_000],
            shards: 16,
            threads: vec![1, 4, 8],
            window: 64,
            k: 4,
            rows: 128,
            top_k: 32,
            repetitions: 2,
            verify_limit: 10_000,
            seed,
        }
    }

    /// A drastically shrunk sweep for smoke tests, oracle-verified
    /// throughout.
    pub fn quick(seed: u64) -> Self {
        ScaleConfig {
            stream_counts: vec![100, 1_000],
            shards: 4,
            threads: vec![1, 2],
            window: 32,
            k: 2,
            rows: 64,
            top_k: 8,
            repetitions: 1,
            verify_limit: usize::MAX,
            seed,
        }
    }
}

/// One measured (streams, threads) point.
#[derive(Debug, Clone)]
pub struct ScaleCase {
    /// Number of streams.
    pub streams: usize,
    /// Number of shards.
    pub shards: usize,
    /// Worker threads used for ingest and merge.
    pub threads: usize,
    /// Rows ingested per stream.
    pub rows: usize,
    /// Total values ingested (`streams * rows`).
    pub values: u64,
    /// Fastest ingest repetition's wall time.
    pub ingest_elapsed: Duration,
    /// Synchronized rows per second (`rows / ingest_elapsed`).
    pub rows_per_sec: f64,
    /// Individual values per second (`values / ingest_elapsed`).
    pub values_per_sec: f64,
    /// Per-stream fixed memory cost after ingest.
    pub bytes_per_stream: usize,
    /// Wall time of one exact distributed top-k merge.
    pub merge_elapsed: Duration,
    /// Round-one candidates the coordinator received.
    pub merge_round1: usize,
    /// Shards rescanned in round two.
    pub merge_refined: usize,
    /// Shards pruned by the threshold τ.
    pub merge_pruned: usize,
    /// Whether this case was checked against the unsharded oracle.
    pub oracle_checked: bool,
    /// Digest + top-k agreement with the oracle (`true` when unchecked
    /// cases are skipped by `verify_limit`).
    pub oracle_agrees: bool,
}

/// A full run: the grid plus every measured case.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Seed the input data was generated from.
    pub seed: u64,
    /// Window size `N`.
    pub window: usize,
    /// Coefficient budget `k`.
    pub k: usize,
    /// Top-k retention bound.
    pub top_k: usize,
    /// Measured cases, in measurement order.
    pub cases: Vec<ScaleCase>,
}

/// Generate the per-stream columns for `streams` streams.
fn make_columns(seed: u64, streams: usize, rows: usize) -> Vec<Vec<f64>> {
    (0..streams)
        .map(|s| Dataset::Synthetic.series(seed.wrapping_add(s as u64), rows))
        .collect()
}

/// Kernel: sharded ingest of every column.
pub fn ingest_sharded(
    config: SwatConfig,
    shards: usize,
    columns: &[Vec<f64>],
    threads: usize,
) -> ShardedStreamSet {
    let mut set = ShardedStreamSet::new(config, columns.len(), shards);
    set.extend_batched(columns, threads);
    set
}

/// Brute-force top-k oracle over the unsharded set's root summaries.
fn brute_force_top_k(set: &StreamSet, k: usize) -> Vec<TopCoeff> {
    let mut all = Vec::new();
    for g in 0..set.streams() {
        if let Some(root) = root_summary(set.tree(g)) {
            for (index, &value) in root.coeffs().coefficients().iter().enumerate() {
                all.push(TopCoeff {
                    stream: g as u64,
                    index: index as u32,
                    value,
                });
            }
        }
    }
    all.sort_by(|a, b| {
        b.weight()
            .partial_cmp(&a.weight())
            .unwrap()
            .then_with(|| (a.stream, a.index).cmp(&(b.stream, b.index)))
    });
    all.truncate(k);
    all
}

fn time_best<T>(repetitions: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..repetitions.max(1) {
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
            out = Some(value);
        }
    }
    (best, out.expect("at least one repetition ran"))
}

/// Measure the whole sweep.
pub fn run(cfg: &ScaleConfig) -> ScaleReport {
    let config =
        SwatConfig::with_coefficients(cfg.window, cfg.k).expect("bench windows are powers of two");
    let mut cases = Vec::new();
    for &streams in &cfg.stream_counts {
        let columns = make_columns(cfg.seed, streams, cfg.rows);
        // The oracle (and its digest / top-k) once per stream count.
        let oracle = (streams <= cfg.verify_limit).then(|| {
            let mut set = StreamSet::new(config, streams);
            set.extend_batched(&columns, 1);
            let digest = set.answers_digest();
            let top = brute_force_top_k(&set, cfg.top_k);
            (digest, top)
        });
        for &threads in &cfg.threads {
            let (ingest_elapsed, set) = time_best(cfg.repetitions, || {
                ingest_sharded(config, cfg.shards, &columns, threads)
            });
            let (merge_elapsed, (top, stats)) =
                time_best(cfg.repetitions, || set.global_top_k(cfg.top_k, threads));
            let oracle_checked = oracle.is_some();
            let oracle_agrees = match &oracle {
                None => true,
                Some((digest, want)) => {
                    set.answers_digest() == *digest && top.entries() == &want[..]
                }
            };
            let values = (streams * cfg.rows) as u64;
            let secs = ingest_elapsed.as_secs_f64().max(1e-12);
            cases.push(ScaleCase {
                streams,
                shards: cfg.shards,
                threads,
                rows: cfg.rows,
                values,
                ingest_elapsed,
                rows_per_sec: cfg.rows as f64 / secs,
                values_per_sec: values as f64 / secs,
                bytes_per_stream: set.bytes_per_stream().unwrap_or(0),
                merge_elapsed,
                merge_round1: stats.round1_candidates,
                merge_refined: stats.shards_refined,
                merge_pruned: stats.shards_pruned,
                oracle_checked,
                oracle_agrees,
            });
        }
    }
    ScaleReport {
        seed: cfg.seed,
        window: cfg.window,
        k: cfg.k,
        top_k: cfg.top_k,
        cases,
    }
}

impl ScaleReport {
    /// Whether every oracle-checked case agreed bit for bit.
    pub fn all_agree(&self) -> bool {
        self.cases.iter().all(|c| c.oracle_agrees)
    }

    /// Render the cases as a table on stdout.
    pub fn print(&self) {
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.streams.to_string(),
                    c.shards.to_string(),
                    c.threads.to_string(),
                    c.values.to_string(),
                    report::fmt_duration(c.ingest_elapsed),
                    report::fmt(c.values_per_sec),
                    c.bytes_per_stream.to_string(),
                    report::fmt_duration(c.merge_elapsed),
                    format!("{}/{}", c.merge_pruned, c.merge_pruned + c.merge_refined),
                    if !c.oracle_checked {
                        "skipped".to_owned()
                    } else if c.oracle_agrees {
                        "ok".to_owned()
                    } else {
                        "MISMATCH".to_owned()
                    },
                ]
            })
            .collect();
        report::print_table(
            "sharded scale sweep",
            &[
                "streams", "shards", "threads", "values", "ingest", "values/s", "B/stream",
                "merge", "pruned", "oracle",
            ],
            &rows,
        );
    }

    /// Serialize as the `BENCH_scale.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(256 + 220 * self.cases.len());
        out.push_str("{\n");
        out.push_str("  \"bench\": \"scale\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!("  \"window\": {},\n", self.window));
        out.push_str(&format!("  \"k\": {},\n", self.k));
        out.push_str(&format!("  \"top_k\": {},\n", self.top_k));
        out.push_str(&format!("  \"all_agree\": {},\n", self.all_agree()));
        out.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"streams\": {}, \"shards\": {}, \"threads\": {}, \"rows\": {}, \
                 \"values\": {}, \"ingest_elapsed_ns\": {}, \"rows_per_sec\": {:.1}, \
                 \"values_per_sec\": {:.1}, \"bytes_per_stream\": {}, \
                 \"merge_elapsed_ns\": {}, \"merge_round1\": {}, \"merge_refined\": {}, \
                 \"merge_pruned\": {}, \"oracle_checked\": {}, \"oracle_agrees\": {}}}{}\n",
                c.streams,
                c.shards,
                c.threads,
                c.rows,
                c.values,
                c.ingest_elapsed.as_nanos(),
                c.rows_per_sec,
                c.values_per_sec,
                c.bytes_per_stream,
                c.merge_elapsed.as_nanos(),
                c.merge_round1,
                c.merge_refined,
                c.merge_pruned,
                c.oracle_checked,
                c.oracle_agrees,
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

    fn tiny() -> ScaleConfig {
        let mut cfg = ScaleConfig::quick(7);
        cfg.stream_counts = vec![20, 60];
        cfg.rows = 2 * cfg.window;
        cfg
    }

    #[test]
    fn quick_sweep_runs_verified_and_reports() {
        let cfg = tiny();
        let report = run(&cfg);
        assert_eq!(
            report.cases.len(),
            cfg.stream_counts.len() * cfg.threads.len()
        );
        for c in &report.cases {
            assert!(c.values_per_sec > 0.0);
            assert!(c.bytes_per_stream > 0);
            assert!(c.oracle_checked, "tiny sweeps verify every case");
            assert!(
                c.oracle_agrees,
                "streams={} threads={}",
                c.streams, c.threads
            );
            assert_eq!(c.merge_refined + c.merge_pruned, c.shards);
        }
        assert!(report.all_agree());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains("\"all_agree\": true"));
        assert_eq!(json.matches("\"streams\"").count(), report.cases.len());
    }

    #[test]
    fn verify_limit_skips_the_oracle() {
        let mut cfg = tiny();
        cfg.stream_counts = vec![30];
        cfg.threads = vec![1];
        cfg.verify_limit = 10;
        let report = run(&cfg);
        assert!(!report.cases[0].oracle_checked);
        assert!(report.cases[0].oracle_agrees, "unchecked cases don't fail");
    }

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join("swat-scale-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = tiny();
        cfg.stream_counts = vec![10];
        cfg.threads = vec![1];
        let report = run(&cfg);
        let path = dir.join("nested").join("BENCH_scale.json");
        report.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("bytes_per_stream"));
    }
}
