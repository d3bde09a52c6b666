//! Fault grid over the tiered store (ISSUE 10 satellite): inject each
//! single fault — a process death, `ENOSPC`, `EIO`, a torn write — at
//! **every I/O step** of the background schedule (segment write,
//! manifest commit, eight steps a flush) and, independently, at every
//! step of the foreground WAL schedule (record writes, fsyncs, and the
//! rename that makes the spare — a retired generation's file — the next
//! live one), then kill the store, recover and require the acked-prefix
//! contract:
//!
//! * zero acked-data loss: `recovered_arrivals >= rows acked by sync()`,
//! * no invention: `recovered_arrivals <= rows pushed`,
//! * bit-identity: the recovered digest equals the uncrashed twin's
//!   digest at exactly `recovered_arrivals` rows,
//! * never a panic.
//!
//! The step horizons are *probed*, not guessed: the same workload first
//! runs against fault-free domains and reports how many operations each
//! domain adjudicated, and that it recycled at least one generation, so
//! the grid covers overwritten files and not only fresh ones; the grid
//! then replays it once per step and fault kind ([`KINDS`]) with that
//! fault injected at that step. A transient
//! fault that fails a `sync()` leaves its rows un-acked; one that fails a
//! flush parks the snapshot and the store degrades — neither may cost
//! an acked row.
//!
//! Which snapshots a slow flusher skips (a newer one supersedes one not
//! yet written) is a matter of timing, so the workload lets the flusher
//! finish after every freeze: up to the injected fault the schedule is
//! the probed one, step for step. What happens *after* a fault — retry
//! first, or superseded first — is left to the race, and every outcome
//! must keep the contract.

use std::path::{Path, PathBuf};
use std::time::Duration;

use swat_store::{
    DurableStore, IoFaultKind, IoFaultPlan, IoFaults, RecoveryManager, StoreHealth, StoreOptions,
};
use swat_tree::{StreamSet, SwatConfig};

const ROWS: u64 = 60;
const STREAMS: usize = 2;
const SYNC_EVERY: u64 = 9;

/// The single faults injected at every step of both schedules.
const KINDS: [IoFaultKind; 4] = [
    IoFaultKind::Crash,
    IoFaultKind::Enospc,
    IoFaultKind::Eio,
    IoFaultKind::Torn { keep_permille: 400 },
];

fn config() -> SwatConfig {
    SwatConfig::with_coefficients(16, 2).unwrap()
}

fn row(i: u64) -> [f64; STREAMS] {
    [(i as f64 * 0.83).cos() * 12.0, (i % 7) as f64]
}

/// Small tiers so 60 rows exercise freeze, flush, and retention.
fn opts() -> StoreOptions {
    StoreOptions {
        freeze_rows: 8,
        retry_backoff: Duration::from_millis(1),
        ..StoreOptions::default()
    }
}

/// Scratch on tmpfs when available (each grid cell replays the whole
/// workload; on a disk-backed `/tmp` the grid would be fsync-bound).
fn scratch(name: &str, cell: u64) -> PathBuf {
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("swat-crash-{name}-{cell}-{}", std::process::id()))
}

/// Digest of the uncrashed twin at every prefix.
fn digests() -> Vec<u64> {
    let mut set = StreamSet::new(config(), STREAMS);
    let mut out = vec![set.answers_digest()];
    for i in 0..ROWS {
        set.push_row(&row(i));
        out.push(set.answers_digest());
    }
    out
}

/// Run the seeded workload against a store whose fault domains are
/// `wal` / `flush`, letting the flusher finish after every freeze when
/// `settled`; returns the highest arrival count acknowledged by a
/// successful `sync()`, and how many generations were opened on the
/// spare. Panics bubbling out of here fail the grid — faults must
/// degrade, never explode.
fn workload(
    dir: &Path,
    wal: std::sync::Arc<IoFaults>,
    flush: std::sync::Arc<IoFaults>,
    settled: bool,
) -> (u64, u64) {
    let o = StoreOptions {
        wal_faults: wal,
        flush_faults: flush,
        ..opts()
    };
    // A fault can hit store creation itself (the initial manifest commit
    // runs in the foreground domain); that is a valid grid cell with
    // nothing acked.
    let Ok(mut store) = DurableStore::create_with(dir, config(), STREAMS, o) else {
        return (0, 0);
    };
    let mut acked = 0;
    for i in 0..ROWS {
        store.push_row(&row(i)).unwrap();
        if settled {
            settle(&store);
        }
        if (i + 1) % SYNC_EVERY == 0 && store.sync().is_ok() {
            acked = store.arrivals();
        }
    }
    // Drain the background schedule (barrier) so the last flush the
    // workload provoked is attempted before the simulated kill; a
    // degraded barrier is fine, a parked snapshot is the scenario under
    // test.
    let _ = store.checkpoint();
    if store.sync().is_ok() {
        acked = store.arrivals();
    }
    let recycled = store.status().recycled;
    store.crash();
    (acked, recycled)
}

/// Wait until the flusher has committed the last freeze's snapshot or
/// failed trying (see the module docs).
fn settle(store: &DurableStore) {
    let frozen_at = store.arrivals() - store.rows_since_freeze();
    loop {
        let st = store.status();
        if st.covered_t >= frozen_at || st.health != StoreHealth::Healthy {
            return;
        }
        std::thread::yield_now();
    }
}

fn check_cell(dir: &Path, acked: u64, digests: &[u64], what: &str) {
    match RecoveryManager::recover_with(dir, opts()) {
        Ok((recovered, report)) => {
            let p = report.recovered_arrivals;
            assert!(p >= acked, "{what}: lost acked rows ({p} < {acked})");
            assert!(p <= ROWS, "{what}: invented rows ({p} > {ROWS})");
            assert_eq!(
                recovered.answers_digest(),
                digests[p as usize],
                "{what}: recovered state is not the uncrashed prefix at {p}"
            );
        }
        Err(e) => {
            assert_eq!(acked, 0, "{what}: acked rows vanished into error: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_fault_at_every_flush_step_preserves_acked_rows() {
    let digests = digests();

    // Probe the background schedule's horizon with fault-free domains.
    let probe_flush = IoFaults::none();
    let dir = scratch("probe-flush", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let (acked, recycled) = workload(&dir, IoFaults::none(), probe_flush.clone(), true);
    assert_eq!(acked, ROWS);
    assert!(recycled > 0, "the probe never recycled a generation");
    let horizon = probe_flush.steps();
    assert!(
        horizon > 20,
        "schedule too small to be interesting: {horizon}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "flush domain: {horizon} steps x {} fault kinds = {} cells",
        KINDS.len(),
        horizon * KINDS.len() as u64
    );

    for kind in KINDS {
        for step in 0..horizon {
            let dir = scratch("flush", step);
            let _ = std::fs::remove_dir_all(&dir);
            let flush = IoFaults::with_plan(IoFaultPlan::at(step, kind));
            let (acked, _) = workload(&dir, IoFaults::none(), flush, true);
            check_cell(&dir, acked, &digests, &format!("flush {kind:?} at {step}"));
        }
    }
}

#[test]
fn every_fault_at_every_wal_step_preserves_acked_rows() {
    let digests = digests();

    let probe_wal = IoFaults::none();
    let dir = scratch("probe-wal", 0);
    let _ = std::fs::remove_dir_all(&dir);
    let (acked, recycled) = workload(&dir, probe_wal.clone(), IoFaults::none(), true);
    assert_eq!(acked, ROWS);
    assert!(
        recycled > 0,
        "no generation was opened on the spare: the grid would cover fresh files only"
    );
    let horizon = probe_wal.steps();
    assert!(horizon > 5, "WAL schedule too small: {horizon}");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "WAL domain: {horizon} steps ({recycled} renames of the spare) x {} fault kinds = {} cells",
        KINDS.len(),
        horizon * KINDS.len() as u64
    );

    for kind in KINDS {
        for step in 0..horizon {
            let dir = scratch("wal", step);
            let _ = std::fs::remove_dir_all(&dir);
            let wal = IoFaults::with_plan(IoFaultPlan::at(step, kind));
            let (acked, _) = workload(&dir, wal, IoFaults::none(), true);
            check_cell(&dir, acked, &digests, &format!("WAL {kind:?} at {step}"));
        }
    }
}

#[test]
fn seeded_transient_fault_storms_never_lose_acked_rows() {
    let digests = digests();

    // Learn both horizons once, then throw seeded multi-fault plans
    // (ENOSPC / EIO / torn, no crash) at both domains simultaneously.
    let pw = IoFaults::none();
    let pf = IoFaults::none();
    let dir = scratch("probe-storm", 0);
    let _ = std::fs::remove_dir_all(&dir);
    workload(&dir, pw.clone(), pf.clone(), true);
    let (hw, hf) = (pw.steps(), pf.steps());
    let _ = std::fs::remove_dir_all(&dir);

    for seed in 0..40u64 {
        let dir = scratch("storm", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let wal = IoFaults::with_plan(IoFaultPlan::seeded(seed, hw, 3));
        let flush = IoFaults::with_plan(IoFaultPlan::seeded(seed ^ 0xA5A5, hf, 4));
        // Unsettled: the storms are also where a slow flusher's skipped
        // snapshots meet faults.
        let (acked, _) = workload(&dir, wal, flush, false);
        check_cell(&dir, acked, &digests, &format!("fault storm seed {seed}"));
    }
}
