//! Store bench: non-blocking flush latency and disk-fault survival.
//!
//! Two measurements around the tiered `swat-store` (ISSUE 10), rendered
//! as tables (via [`crate::report`]) and as the `results/BENCH_store.json`
//! artifact (schema in EXPERIMENTS.md); backs `swat store-bench`:
//!
//! 1. **Flush non-blocking.** A store with a small `freeze_rows` ingests
//!    `rows` rows, so dozens of freeze → background-flush cycles happen
//!    mid-run; every `push_row` call is timed individually. The headline
//!    claim is `flush_nonblocking`: no push ever *waits* on segment
//!    serialization, fsync, or compaction — that work happens behind the
//!    caller's back. A checkpoint barrier is timed alongside for
//!    contrast: that is what the old blocking design paid on the ingest
//!    path.
//!
//!    On a small host (this grid often runs on one core) the raw
//!    wall-clock maximum also picks up *involuntary scheduler
//!    preemption*: the flusher thread is CPU-runnable, so the kernel
//!    occasionally parks the pusher for a multi-millisecond timeslice at
//!    a random row — indistinguishable from a blocking flush by wall
//!    clock alone, but a property of the scheduler, not the store. The
//!    two are separated with the thread's `voluntary_ctxt_switches`
//!    counter (`/proc/thread-self/status`): a push that blocks on I/O or
//!    a held lock goes off-CPU *voluntarily*; a preempted push does not.
//!    Every stall ≥ 1 ms is classified, the gate is **zero blocking
//!    stalls** (plus p99 under 1 ms), and both the raw maximum and the
//!    preempted count are reported unfiltered.
//! 2. **Injected-fault grid.** `ENOSPC` / `EIO` / torn-write faults ×
//!    crash points spread over both fault domains (foreground WAL,
//!    background flush). Each cell runs the workload with the fault
//!    injected at that step, tracks the rows acknowledged by `sync()`,
//!    kills the store, and recovers. Required outcome, every cell: zero
//!    acked-data loss, zero panics, and a recovered digest bit-identical
//!    to the uncrashed twin at the recovered prefix.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::report;
use swat_data::Dataset;
use swat_store::{DurableStore, IoFaultKind, IoFaultPlan, IoFaults, RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

/// The experiment shape.
#[derive(Debug, Clone)]
pub struct StoreBenchConfig {
    /// Sliding-window size (power of two).
    pub window: usize,
    /// Wavelet coefficients kept per summary node.
    pub coeffs: usize,
    /// Synchronized streams per store.
    pub streams: usize,
    /// Rows ingested by the latency experiment.
    pub rows: u64,
    /// Rows per frozen generation (small, so flushes happen mid-run).
    pub freeze_rows: u64,
    /// Rows ingested by each fault-grid cell.
    pub grid_rows: u64,
    /// Crash points sampled per fault kind and domain.
    pub grid_points: usize,
    /// Master seed.
    pub seed: u64,
}

impl StoreBenchConfig {
    /// The default full-size run (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        StoreBenchConfig {
            window: 64,
            coeffs: 2,
            streams: 4,
            rows: 20_000,
            freeze_rows: 512,
            grid_rows: 600,
            grid_points: 12,
            seed,
        }
    }

    /// A drastically shrunk run for smoke tests.
    pub fn quick(seed: u64) -> Self {
        StoreBenchConfig {
            window: 16,
            coeffs: 1,
            streams: 2,
            rows: 2_000,
            freeze_rows: 128,
            grid_rows: 120,
            grid_points: 4,
            seed,
        }
    }

    fn swat_config(&self) -> SwatConfig {
        SwatConfig::with_coefficients(self.window, self.coeffs)
            .expect("bench windows are powers of two")
    }

    fn opts(&self) -> StoreOptions {
        StoreOptions {
            freeze_rows: self.freeze_rows,
            compact_fanin: 4,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        }
    }
}

/// The push-latency measurement under background flushing.
#[derive(Debug, Clone)]
pub struct FlushLatency {
    /// Rows pushed (and individually timed).
    pub pushes: u64,
    /// Mean `push_row` latency, microseconds.
    pub mean_micros: f64,
    /// 99th-percentile `push_row` latency, microseconds.
    pub p99_micros: u64,
    /// Worst single `push_row` wall time, microseconds (unfiltered —
    /// includes scheduler preemption on small hosts).
    pub max_micros: u64,
    /// Pushes whose wall time reached 1 ms.
    pub stalls: u64,
    /// Stalls where the pushing thread went off-CPU *voluntarily* —
    /// i.e. actually waited on flush I/O or a lock. The gate: zero.
    pub blocking_stalls: u64,
    /// Stalls attributed to involuntary scheduler preemption (the
    /// voluntary-switch counter did not move across the push).
    pub preempted_stalls: u64,
    /// Background segment flushes completed during the run.
    pub flushes: u64,
    /// Background compactions completed during the run.
    pub compactions: u64,
    /// Wall time of one explicit `checkpoint()` barrier afterwards — the
    /// blocking cost the ingest path no longer pays, microseconds.
    pub checkpoint_micros: u64,
    /// The headline: no push ever blocked on background flushing — zero
    /// voluntary-wait stalls and p99 under 1 ms while flushes ran.
    pub flush_nonblocking: bool,
}

/// Aggregate over the injected-fault grid.
#[derive(Debug, Clone)]
pub struct FaultGrid {
    /// Cells run (kinds × crash points × domains).
    pub cells: u64,
    /// Cells where recovery lost acknowledged rows (must be 0).
    pub acked_rows_lost: u64,
    /// Cells whose recovered digest differed from the uncrashed twin at
    /// the recovered prefix (must be 0).
    pub digest_mismatches: u64,
    /// Cells that panicked (must be 0; a panic aborts the bench).
    pub panics: u64,
    /// Cells where the store reported typed degradation while running
    /// (expected: the fault was injected mid-flush).
    pub typed_degradations: u64,
    /// Cells where recovery returned a typed error with nothing acked
    /// (legal: the fault destroyed the store before the first ack).
    pub typed_errors: u64,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    /// The configuration measured.
    pub config: StoreBenchConfig,
    /// Push-latency measurement.
    pub latency: FlushLatency,
    /// Injected-fault grid aggregate.
    pub grid: FaultGrid,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(label: &str) -> PathBuf {
    // tmpfs when available: the grid replays the workload per cell and
    // would otherwise be bound by a disk-backed /tmp's fsync latency.
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!(
        "swat-store-bench-{}-{}-{}",
        std::process::id(),
        label,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Per-stream data columns.
fn columns(cfg: &StoreBenchConfig, rows: u64) -> Vec<Vec<f64>> {
    (0..cfg.streams)
        .map(|s| Dataset::Weather.series(cfg.seed.wrapping_add(s as u64), rows as usize))
        .collect()
}

/// The calling thread's cumulative voluntary context switches — moves
/// exactly when the thread goes off-CPU by its own doing (blocking I/O,
/// a contended lock), not when the scheduler preempts it. `None` off
/// Linux or in restricted sandboxes; the caller then falls back to the
/// conservative reading (every stall counts as blocking).
fn voluntary_switches() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = text
        .lines()
        .find(|l| l.starts_with("voluntary_ctxt_switches"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const STALL_MICROS: u64 = 1_000;

fn run_latency(cfg: &StoreBenchConfig) -> FlushLatency {
    let dir = scratch_dir("latency");
    let _ = std::fs::remove_dir_all(&dir);
    let data = columns(cfg, cfg.rows);
    let mut store = DurableStore::create_with(&dir, cfg.swat_config(), cfg.streams, cfg.opts())
        .expect("scratch directory is writable");
    let mut row = vec![0.0; cfg.streams];
    let mut lat = Vec::with_capacity(cfg.rows as usize);
    let mut stalls = 0u64;
    let mut blocking_stalls = 0u64;
    // Refreshed outside the timed region before every push, so a stall's
    // voluntary-switch delta is attributable to that push alone.
    let mut vol = voluntary_switches();
    for i in 0..cfg.rows as usize {
        for (s, col) in data.iter().enumerate() {
            row[s] = col[i];
        }
        let start = Instant::now();
        store.push_row(&row).expect("bench rows are finite");
        let micros = start.elapsed().as_micros() as u64;
        lat.push(micros);
        if micros >= STALL_MICROS {
            stalls += 1;
            let now = voluntary_switches();
            match (vol, now) {
                (Some(before), Some(after)) if after == before => {} // preempted
                _ => blocking_stalls += 1,
            }
            vol = now;
        } else {
            vol = voluntary_switches();
        }
    }
    let start = Instant::now();
    store.checkpoint().expect("fault-free checkpoint succeeds");
    let checkpoint_micros = start.elapsed().as_micros() as u64;
    let status = store.status();
    assert!(
        status.flushes >= cfg.rows / cfg.freeze_rows.max(1),
        "the latency run must actually exercise background flushing"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    lat.sort_unstable();
    let max_micros = *lat.last().expect("at least one push");
    let p99_micros = lat[(lat.len() * 99) / 100 - 1];
    let mean_micros = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
    FlushLatency {
        pushes: cfg.rows,
        mean_micros,
        p99_micros,
        max_micros,
        stalls,
        blocking_stalls,
        preempted_stalls: stalls - blocking_stalls,
        flushes: status.flushes,
        compactions: status.compactions,
        checkpoint_micros,
        flush_nonblocking: blocking_stalls == 0 && p99_micros < STALL_MICROS,
    }
}

/// Digest of the uncrashed twin at every prefix of the grid workload.
fn grid_digests(cfg: &StoreBenchConfig, data: &[Vec<f64>]) -> Vec<u64> {
    let mut set = StreamSet::new(cfg.swat_config(), cfg.streams);
    let mut out = vec![set.answers_digest()];
    let mut row = vec![0.0; cfg.streams];
    for i in 0..cfg.grid_rows as usize {
        for (s, col) in data.iter().enumerate() {
            row[s] = col[i];
        }
        set.push_row(&row);
        out.push(set.answers_digest());
    }
    out
}

/// One grid cell: run the workload with `plan` installed in the chosen
/// domain, sync periodically to establish the acked prefix, kill the
/// store, recover, and score the outcome.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    cfg: &StoreBenchConfig,
    data: &[Vec<f64>],
    digests: &[u64],
    plan: IoFaultPlan,
    in_flush_domain: bool,
    grid: &mut FaultGrid,
) {
    let dir = scratch_dir("grid");
    let _ = std::fs::remove_dir_all(&dir);
    let faults = IoFaults::with_plan(plan);
    let mut opts = cfg.opts();
    if in_flush_domain {
        opts.flush_faults = faults;
    } else {
        opts.wal_faults = faults;
    }
    grid.cells += 1;
    let Ok(mut store) = DurableStore::create_with(&dir, cfg.swat_config(), cfg.streams, opts)
    else {
        // The fault killed creation itself; nothing acked, nothing owed.
        let _ = std::fs::remove_dir_all(&dir);
        grid.typed_errors += 1;
        return;
    };
    let mut row = vec![0.0; cfg.streams];
    let mut acked = 0u64;
    let mut degraded_seen = false;
    for i in 0..cfg.grid_rows as usize {
        for (s, col) in data.iter().enumerate() {
            row[s] = col[i];
        }
        store.push_row(&row).expect("bench rows are finite");
        if (i + 1) % 37 == 0 {
            match store.sync() {
                Ok(()) => acked = store.arrivals(),
                Err(_) => degraded_seen = true,
            }
        }
    }
    let _ = store.checkpoint();
    match store.sync() {
        Ok(()) => acked = store.arrivals(),
        Err(_) => degraded_seen = true,
    }
    if degraded_seen {
        grid.typed_degradations += 1;
    }
    store.crash();

    match RecoveryManager::recover_with(&dir, cfg.opts()) {
        Ok((recovered, report)) => {
            let p = report.recovered_arrivals;
            if p < acked {
                grid.acked_rows_lost += acked - p;
            }
            if p > cfg.grid_rows || recovered.answers_digest() != digests[p as usize] {
                grid.digest_mismatches += 1;
            }
        }
        Err(_typed) => {
            grid.typed_errors += 1;
            if acked > 0 {
                grid.acked_rows_lost += acked;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_grid(cfg: &StoreBenchConfig) -> FaultGrid {
    let data = columns(cfg, cfg.grid_rows);
    let digests = grid_digests(cfg, &data);
    let mut grid = FaultGrid {
        cells: 0,
        acked_rows_lost: 0,
        digest_mismatches: 0,
        panics: 0,
        typed_degradations: 0,
        typed_errors: 0,
    };

    // Probe both domains' step horizons with a fault-free run.
    let probe_wal = IoFaults::none();
    let probe_flush = IoFaults::none();
    {
        let dir = scratch_dir("probe");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            wal_faults: probe_wal.clone(),
            flush_faults: probe_flush.clone(),
            ..cfg.opts()
        };
        let mut store = DurableStore::create_with(&dir, cfg.swat_config(), cfg.streams, opts)
            .expect("scratch directory is writable");
        let mut row = vec![0.0; cfg.streams];
        for i in 0..cfg.grid_rows as usize {
            for (s, col) in data.iter().enumerate() {
                row[s] = col[i];
            }
            store.push_row(&row).expect("bench rows are finite");
            if (i + 1) % 37 == 0 {
                store.sync().expect("fault-free sync succeeds");
            }
        }
        store.checkpoint().expect("fault-free checkpoint succeeds");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let kinds = [
        IoFaultKind::Enospc,
        IoFaultKind::Eio,
        IoFaultKind::Torn { keep_permille: 400 },
    ];
    for (domain_flush, horizon) in [(false, probe_wal.steps()), (true, probe_flush.steps())] {
        let points = cfg.grid_points.max(1) as u64;
        let stride = (horizon / points).max(1);
        for kind in kinds {
            let mut step = 0;
            while step < horizon {
                run_cell(
                    cfg,
                    &data,
                    &digests,
                    IoFaultPlan::at(step, kind),
                    domain_flush,
                    &mut grid,
                );
                step += stride;
            }
        }
    }
    grid
}

/// Run the whole bench.
pub fn run(cfg: &StoreBenchConfig) -> StoreBenchReport {
    let latency = run_latency(cfg);
    let grid = run_grid(cfg);
    StoreBenchReport {
        config: cfg.clone(),
        latency,
        grid,
    }
}

impl StoreBenchReport {
    /// Render both measurements as tables on stdout.
    pub fn print(&self) {
        report::print_table(
            "push latency under background flushing",
            &[
                "pushes",
                "mean µs",
                "p99 µs",
                "max µs",
                "stalls",
                "blocking",
                "preempted",
                "flushes",
                "compactions",
                "ckpt µs",
                "non-blocking",
            ],
            &[vec![
                self.latency.pushes.to_string(),
                report::fmt(self.latency.mean_micros),
                self.latency.p99_micros.to_string(),
                self.latency.max_micros.to_string(),
                self.latency.stalls.to_string(),
                self.latency.blocking_stalls.to_string(),
                self.latency.preempted_stalls.to_string(),
                self.latency.flushes.to_string(),
                self.latency.compactions.to_string(),
                self.latency.checkpoint_micros.to_string(),
                if self.latency.flush_nonblocking {
                    "yes"
                } else {
                    "NO"
                }
                .to_owned(),
            ]],
        );
        report::print_table(
            "injected-fault grid (ENOSPC / EIO / torn × crash points)",
            &[
                "cells",
                "acked lost",
                "digest mism",
                "panics",
                "degraded",
                "typed err",
            ],
            &[vec![
                self.grid.cells.to_string(),
                self.grid.acked_rows_lost.to_string(),
                self.grid.digest_mismatches.to_string(),
                self.grid.panics.to_string(),
                self.grid.typed_degradations.to_string(),
                self.grid.typed_errors.to_string(),
            ]],
        );
    }

    /// Serialize as the `BENCH_store.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"store\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!("  \"window\": {},\n", self.config.window));
        out.push_str(&format!("  \"coeffs\": {},\n", self.config.coeffs));
        out.push_str(&format!("  \"streams\": {},\n", self.config.streams));
        out.push_str(&format!("  \"rows\": {},\n", self.config.rows));
        out.push_str(&format!(
            "  \"freeze_rows\": {},\n",
            self.config.freeze_rows
        ));
        out.push_str(&format!("  \"grid_rows\": {},\n", self.config.grid_rows));
        out.push_str(&format!(
            "  \"latency\": {{\"pushes\": {}, \"mean_micros\": {:.2}, \"p99_micros\": {}, \
             \"max_micros\": {}, \"stalls\": {}, \"blocking_stalls\": {}, \
             \"preempted_stalls\": {}, \"flushes\": {}, \"compactions\": {}, \
             \"checkpoint_micros\": {}, \"flush_nonblocking\": {}}},\n",
            self.latency.pushes,
            self.latency.mean_micros,
            self.latency.p99_micros,
            self.latency.max_micros,
            self.latency.stalls,
            self.latency.blocking_stalls,
            self.latency.preempted_stalls,
            self.latency.flushes,
            self.latency.compactions,
            self.latency.checkpoint_micros,
            self.latency.flush_nonblocking,
        ));
        out.push_str(&format!(
            "  \"fault_grid\": {{\"cells\": {}, \"acked_rows_lost\": {}, \
             \"digest_mismatches\": {}, \"panics\": {}, \"typed_degradations\": {}, \
             \"typed_errors\": {}}}\n",
            self.grid.cells,
            self.grid.acked_rows_lost,
            self.grid.digest_mismatches,
            self.grid.panics,
            self.grid.typed_degradations,
            self.grid.typed_errors,
        ));
        out.push_str("}\n");
        out
    }

    /// Write the JSON artifact, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or the write.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        report::write_json(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_survives_the_grid_without_losing_acked_rows() {
        let report = run(&StoreBenchConfig::quick(11));
        assert!(report.latency.flushes > 0, "flushing must happen mid-run");
        assert_eq!(report.grid.acked_rows_lost, 0, "acked rows are sacred");
        assert_eq!(report.grid.digest_mismatches, 0);
        assert_eq!(report.grid.panics, 0);
        assert!(report.grid.cells > 0);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"store\""));
        assert!(json.contains("\"acked_rows_lost\": 0"));
    }
}
