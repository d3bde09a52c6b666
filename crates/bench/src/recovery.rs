//! Recovery bench: crash-consistency cost and the durable-restart win.
//!
//! Three measurements around the `swat-store` durability layer, rendered
//! as a table (via [`crate::report`]) and as the
//! `results/BENCH_recovery.json` artifact (schema documented in
//! EXPERIMENTS.md); backs the `swat recovery-bench` CLI subcommand:
//!
//! 1. **Clean-crash recovery.** A multi-stream store ingests `rows`
//!    rows with periodic checkpoints, crashes (process death after
//!    `sync`), and is recovered; we time
//!    [`swat_store::RecoveryManager::recover`] and require the recovered
//!    [`answers_digest`](swat_tree::StreamSet::answers_digest) to be
//!    bit-identical to the never-crashed store's.
//! 2. **Fault-injected recovery.** Seeded trials corrupt the dead
//!    store's files ([`swat_store::FaultInjector`]: bit flips, torn
//!    writes, deletions) before recovery. Every trial must end in a
//!    verified-consistent prefix (digest equal to the uncrashed store at
//!    that prefix) or a typed error — never a panic, never a wrong
//!    answer.
//! 3. **Recovery messages saved.** The chaos driver's quiet-stream crash
//!    scenario run under both durability models:
//!    [`Durability::Directory`] re-replicates over the network while
//!    [`Durability::Checkpointed`] restores replicas from local durable
//!    state, and the message-ledger difference is the headline win.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::report;
use swat_data::Dataset;
use swat_net::{FaultPlan as NetFaultPlan, MsgKind, NodeId, Topology};
use swat_replication::harness::WorkloadConfig;
use swat_replication::{run_chaos, ChaosOptions, Durability, SchemeKind};
use swat_store::{DurableStore, FaultInjector, RecoveryManager};
use swat_tree::{StreamSet, SwatConfig};

/// The experiment shape.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Sliding-window size (power of two).
    pub window: usize,
    /// Wavelet coefficients kept per summary node.
    pub coeffs: usize,
    /// Synchronized streams per store.
    pub streams: usize,
    /// Rows ingested before the crash.
    pub rows: u64,
    /// Checkpoint cadence in rows.
    pub checkpoint_every: u64,
    /// Fault-injected recovery trials.
    pub fault_trials: u64,
    /// Maximum storage faults injected per trial.
    pub max_faults: usize,
    /// Master seed (data, fault plans, and the chaos workload derive
    /// from it).
    pub seed: u64,
}

impl RecoveryConfig {
    /// The default full-size run (a few seconds of wall clock).
    pub fn full(seed: u64) -> Self {
        RecoveryConfig {
            window: 64,
            coeffs: 2,
            streams: 4,
            rows: 4000,
            checkpoint_every: 256,
            fault_trials: 48,
            max_faults: 4,
            seed,
        }
    }

    /// A drastically shrunk run for smoke tests.
    pub fn quick(seed: u64) -> Self {
        RecoveryConfig {
            window: 16,
            coeffs: 1,
            streams: 2,
            rows: 200,
            checkpoint_every: 64,
            fault_trials: 6,
            max_faults: 3,
            seed,
        }
    }

    fn swat_config(&self) -> SwatConfig {
        SwatConfig::with_coefficients(self.window, self.coeffs)
            .expect("bench windows are powers of two")
    }
}

/// The clean-crash measurement.
#[derive(Debug, Clone)]
pub struct CleanRecovery {
    /// Wall-clock time of [`RecoveryManager::recover`], in microseconds.
    pub recovery_micros: u64,
    /// WAL rows replayed on top of the base checkpoint.
    pub wal_rows_replayed: u64,
    /// Arrival clock of the base checkpoint used.
    pub checkpoint_t: Option<u64>,
    /// Recovered digest equals the never-crashed store's digest.
    pub digest_match: bool,
}

/// Aggregate over the fault-injected trials.
#[derive(Debug, Clone)]
pub struct FaultTrials {
    /// Trials run.
    pub trials: u64,
    /// Trials that recovered to a verified-consistent prefix.
    pub consistent: u64,
    /// Trials that failed with a typed [`swat_store::StoreError`].
    pub typed_errors: u64,
    /// Of the consistent trials, how many recovered every acknowledged
    /// row (no prefix loss at all).
    pub lossless: u64,
    /// Mean recovery time over successful trials, in microseconds.
    pub mean_recovery_micros: f64,
    /// Slowest successful recovery, in microseconds.
    pub max_recovery_micros: u64,
}

/// The Directory-vs-Checkpointed chaos comparison.
#[derive(Debug, Clone)]
pub struct DurabilityComparison {
    /// Total post-warmup messages under [`Durability::Directory`].
    pub directory_messages: u64,
    /// Total post-warmup messages under [`Durability::Checkpointed`].
    pub checkpointed_messages: u64,
    /// `directory_messages - checkpointed_messages`.
    pub messages_saved: u64,
    /// QueryForward + Answer messages saved by local restoration.
    pub query_messages_saved: u64,
    /// Soundness violations across both runs (must be zero).
    pub violations: usize,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct RecoveryBenchReport {
    /// The configuration measured.
    pub config: RecoveryConfig,
    /// Clean-crash recovery measurement.
    pub clean: CleanRecovery,
    /// Fault-injected trial aggregate.
    pub faults: FaultTrials,
    /// Chaos-driver durability comparison.
    pub chaos: DurabilityComparison,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "swat-recovery-bench-{}-{}-{}",
        std::process::id(),
        label,
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Per-stream data columns for the store experiments.
fn columns(cfg: &RecoveryConfig) -> Vec<Vec<f64>> {
    (0..cfg.streams)
        .map(|s| Dataset::Weather.series(cfg.seed.wrapping_add(s as u64), cfg.rows as usize))
        .collect()
}

/// Build the store in `dir`, crash it after `sync`, and return the
/// uncrashed twin's digest at every row prefix (`digests[i]` = digest
/// after `i` rows).
fn build_and_crash(cfg: &RecoveryConfig, dir: &Path, data: &[Vec<f64>]) -> Vec<u64> {
    let mut store = DurableStore::create(dir, cfg.swat_config(), cfg.streams)
        .expect("scratch directory is writable");
    let mut twin = StreamSet::new(cfg.swat_config(), cfg.streams);
    let mut digests = Vec::with_capacity(cfg.rows as usize + 1);
    digests.push(twin.answers_digest());
    let mut row = vec![0.0; cfg.streams];
    for i in 0..cfg.rows as usize {
        for (s, col) in data.iter().enumerate() {
            row[s] = col[i];
        }
        store.push_row(&row).expect("bench rows are finite");
        twin.push_row(&row);
        digests.push(twin.answers_digest());
        if (i as u64 + 1).is_multiple_of(cfg.checkpoint_every) {
            store.checkpoint().expect("checkpoint succeeds");
        }
    }
    store.sync().expect("sync succeeds");
    drop(store); // the crash: process death with the WAL synced
    digests
}

/// Snapshot every store file so fault trials can reset cheaply instead
/// of re-running the fsync-heavy build.
fn capture_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory exists")
        .map(|e| {
            let path = e.expect("directory entry is readable").path();
            let bytes = std::fs::read(&path).expect("store file is readable");
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

fn reset_files(dir: &Path, files: &[(PathBuf, Vec<u8>)]) {
    for entry in std::fs::read_dir(dir).expect("store directory exists") {
        std::fs::remove_file(entry.expect("directory entry is readable").path())
            .expect("store file is removable");
    }
    for (path, bytes) in files {
        std::fs::write(path, bytes).expect("store file is writable");
    }
}

fn run_clean(cfg: &RecoveryConfig, dir: &Path, digests: &[u64]) -> CleanRecovery {
    let start = Instant::now();
    let (store, report) = RecoveryManager::recover(dir).expect("uncorrupted store recovers");
    let recovery_micros = start.elapsed().as_micros() as u64;
    assert_eq!(store.arrivals(), cfg.rows, "synced WAL loses nothing");
    CleanRecovery {
        recovery_micros,
        wal_rows_replayed: report.wal_rows_replayed,
        checkpoint_t: report.checkpoint_t,
        digest_match: store.answers_digest() == digests[cfg.rows as usize],
    }
}

fn run_fault_trials(cfg: &RecoveryConfig, dir: &Path, digests: &[u64]) -> FaultTrials {
    let pristine = capture_files(dir);
    let mut injector = FaultInjector::new(cfg.seed ^ 0xFA017);
    let mut out = FaultTrials {
        trials: cfg.fault_trials,
        consistent: 0,
        typed_errors: 0,
        lossless: 0,
        mean_recovery_micros: 0.0,
        max_recovery_micros: 0,
    };
    let mut micros_sum = 0u64;
    for _ in 0..cfg.fault_trials {
        reset_files(dir, &pristine);
        let plan = injector.plan(dir, cfg.max_faults).expect("dir is listable");
        plan.apply(dir).expect("faults apply");
        let start = Instant::now();
        match RecoveryManager::recover(dir) {
            Ok((store, _report)) => {
                let micros = start.elapsed().as_micros() as u64;
                let p = store.arrivals() as usize;
                assert!(
                    p <= cfg.rows as usize && store.answers_digest() == digests[p],
                    "recovered state must be a verified-consistent prefix"
                );
                out.consistent += 1;
                if p == cfg.rows as usize {
                    out.lossless += 1;
                }
                micros_sum += micros;
                out.max_recovery_micros = out.max_recovery_micros.max(micros);
            }
            Err(_typed) => out.typed_errors += 1,
        }
    }
    if out.consistent > 0 {
        out.mean_recovery_micros = micros_sum as f64 / out.consistent as f64;
    }
    out
}

/// The quiet-stream crash scenario: a weather ramp that goes flat before
/// the crash window, so source-side enclosure suppression emits no
/// updates and the crashed node's restored approximations stay fresh —
/// the regime where local durable state replaces network re-replication.
fn run_durability_comparison(cfg: &RecoveryConfig) -> DurabilityComparison {
    let topo = Topology::chain(2);
    let mut data = Dataset::Weather.series(cfg.seed, 300);
    let last = *data.last().expect("series is nonempty");
    data.resize(900, last);
    let workload = WorkloadConfig {
        window: 16,
        horizon: 600,
        warmup: 150,
        seed: cfg.seed,
        ..WorkloadConfig::default()
    };
    let plan = NetFaultPlan::new(cfg.seed ^ 0xD0_7A)
        .with_crash(NodeId(1), 400, 460)
        .expect("crash window is nonempty");
    let run_mode = |durability: Durability| {
        let options = ChaosOptions {
            plan: plan.clone(),
            check_invariants: true,
            durability,
            ..ChaosOptions::default()
        };
        let out = run_chaos(SchemeKind::SwatAsr, &topo, &data, &workload, &options)
            .expect("SWAT-ASR supports crash plans");
        (
            out.run.ledger.total(),
            out.run.ledger.count(MsgKind::QueryForward) + out.run.ledger.count(MsgKind::Answer),
            out.violations.len(),
        )
    };
    let (dir_total, dir_query, dir_viol) = run_mode(Durability::Directory);
    let (ck_total, ck_query, ck_viol) = run_mode(Durability::Checkpointed);
    DurabilityComparison {
        directory_messages: dir_total,
        checkpointed_messages: ck_total,
        messages_saved: dir_total.saturating_sub(ck_total),
        query_messages_saved: dir_query.saturating_sub(ck_query),
        violations: dir_viol + ck_viol,
    }
}

/// Run the whole bench.
pub fn run(cfg: &RecoveryConfig) -> RecoveryBenchReport {
    let dir = scratch_dir("store");
    let data = columns(cfg);
    let digests = build_and_crash(cfg, &dir, &data);
    let clean = run_clean(cfg, &dir, &digests);
    // `run_clean` recovered in place (re-anchoring with a fresh
    // checkpoint); fault trials reset from the pre-recovery files.
    let pre_recovery_dir = scratch_dir("faults");
    std::fs::create_dir_all(&pre_recovery_dir).expect("scratch directory is creatable");
    let rebuilt_digests = build_and_crash(cfg, &pre_recovery_dir, &data);
    assert_eq!(digests, rebuilt_digests, "builds are deterministic");
    let faults = run_fault_trials(cfg, &pre_recovery_dir, &digests);
    let chaos = run_durability_comparison(cfg);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pre_recovery_dir);
    RecoveryBenchReport {
        config: cfg.clone(),
        clean,
        faults,
        chaos,
    }
}

impl RecoveryBenchReport {
    /// Render the three measurements as tables on stdout.
    pub fn print(&self) {
        report::print_table(
            "clean-crash recovery",
            &[
                "rows",
                "ckpt every",
                "base ckpt",
                "replayed",
                "µs",
                "digest",
            ],
            &[vec![
                self.config.rows.to_string(),
                self.config.checkpoint_every.to_string(),
                self.clean
                    .checkpoint_t
                    .map_or("wal-0".to_owned(), |t| t.to_string()),
                self.clean.wal_rows_replayed.to_string(),
                self.clean.recovery_micros.to_string(),
                if self.clean.digest_match {
                    "match"
                } else {
                    "MISMATCH"
                }
                .to_owned(),
            ]],
        );
        report::print_table(
            "fault-injected recovery trials",
            &[
                "trials",
                "consistent",
                "lossless",
                "typed err",
                "mean µs",
                "max µs",
            ],
            &[vec![
                self.faults.trials.to_string(),
                self.faults.consistent.to_string(),
                self.faults.lossless.to_string(),
                self.faults.typed_errors.to_string(),
                report::fmt(self.faults.mean_recovery_micros),
                self.faults.max_recovery_micros.to_string(),
            ]],
        );
        report::print_table(
            "recovery messages saved (chaos, quiet-stream crash)",
            &["directory", "checkpointed", "saved", "query saved", "viol"],
            &[vec![
                self.chaos.directory_messages.to_string(),
                self.chaos.checkpointed_messages.to_string(),
                self.chaos.messages_saved.to_string(),
                self.chaos.query_messages_saved.to_string(),
                self.chaos.violations.to_string(),
            ]],
        );
    }

    /// Serialize as the `BENCH_recovery.json` artifact (schema in
    /// EXPERIMENTS.md). Hand-rolled: the workspace deliberately has no
    /// serialization dependency.
    pub fn to_json(&self) -> String {
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"bench\": \"recovery\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"generated_unix_ms\": {now_ms},\n"));
        out.push_str(&format!("  \"window\": {},\n", self.config.window));
        out.push_str(&format!("  \"coeffs\": {},\n", self.config.coeffs));
        out.push_str(&format!("  \"streams\": {},\n", self.config.streams));
        out.push_str(&format!("  \"rows\": {},\n", self.config.rows));
        out.push_str(&format!(
            "  \"checkpoint_every\": {},\n",
            self.config.checkpoint_every
        ));
        out.push_str(&format!(
            "  \"clean\": {{\"recovery_micros\": {}, \"wal_rows_replayed\": {}, \
             \"checkpoint_t\": {}, \"digest_match\": {}}},\n",
            self.clean.recovery_micros,
            self.clean.wal_rows_replayed,
            self.clean
                .checkpoint_t
                .map_or("null".to_owned(), |t| t.to_string()),
            self.clean.digest_match,
        ));
        out.push_str(&format!(
            "  \"faults\": {{\"trials\": {}, \"consistent\": {}, \"lossless\": {}, \
             \"typed_errors\": {}, \"mean_recovery_micros\": {:.1}, \
             \"max_recovery_micros\": {}}},\n",
            self.faults.trials,
            self.faults.consistent,
            self.faults.lossless,
            self.faults.typed_errors,
            self.faults.mean_recovery_micros,
            self.faults.max_recovery_micros,
        ));
        out.push_str(&format!(
            "  \"chaos\": {{\"directory_messages\": {}, \"checkpointed_messages\": {}, \
             \"messages_saved\": {}, \"query_messages_saved\": {}, \"violations\": {}}}\n",
            self.chaos.directory_messages,
            self.chaos.checkpointed_messages,
            self.chaos.messages_saved,
            self.chaos.query_messages_saved,
            self.chaos.violations,
        ));
        out.push_str("}\n");
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
    fn quick_run_is_consistent_and_saves_messages() {
        let report = run(&RecoveryConfig::quick(7));
        assert!(report.clean.digest_match);
        assert!(report.clean.wal_rows_replayed > 0, "crash lands mid-WAL");
        assert_eq!(
            report.faults.consistent + report.faults.typed_errors,
            report.faults.trials,
            "every trial ends in consistency or a typed error"
        );
        assert_eq!(report.chaos.violations, 0);
        assert!(
            report.chaos.messages_saved > 0,
            "checkpointed durability must save messages in the quiet-stream scenario"
        );
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"recovery\""));
        assert!(json.contains("\"digest_match\": true"));
    }
}
