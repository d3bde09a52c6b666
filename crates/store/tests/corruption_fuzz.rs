//! Exhaustive corruption fuzz over the on-disk formats (ISSUE 4
//! satellite 3, extended to the tiered layout by ISSUE 10): for a
//! reference store directory holding **segments, manifests, and WAL
//! generations**, flip every bit of every byte and truncate at every
//! offset — one fault per recovery attempt — and require that recovery
//! returns either a typed error or a store whose digest matches a
//! verified-consistent prefix of the ingested rows. Never a panic,
//! never an unrecognized state.
//!
//! The per-format unit tests already fuzz decode functions in isolation;
//! this test drives the whole `RecoveryManager` path end to end, where a
//! corrupt segment must trigger the fallback onto the older kept
//! snapshot and its retained WAL tail, a corrupt manifest must fall back
//! a manifest generation, and a corrupt WAL record must cut the replayed
//! prefix.

use std::fs;
use std::path::Path;
use std::time::Duration;

use swat_store::wal::{encode_record, record_len, WalHeader, HEADER_LEN};
use swat_store::{DurableStore, RecoveryManager, StoreOptions};
use swat_tree::{StreamSet, SwatConfig};

const ROWS: u64 = 30;
/// The spare's file name: the newest retired WAL generation's file.
const SPARE: &str = "spare.wal";
const STREAMS: usize = 2;

/// A small freeze interval so 30 rows produce the whole layout: both
/// kept snapshots, two manifest generations, the sealed WAL generation
/// behind the older snapshot, a live WAL tail and the spare.
fn opts() -> StoreOptions {
    StoreOptions {
        freeze_rows: 8,
        retry_backoff: Duration::from_millis(1),
        ..StoreOptions::default()
    }
}

fn config() -> SwatConfig {
    SwatConfig::with_coefficients(16, 2).unwrap()
}

/// A scratch directory on tmpfs when available: each fault case runs a
/// full recovery (manifest commit + segment writes, fsync-heavy), and on
/// a disk-backed `/tmp` the ~40k cases would be fsync-bound.
fn scratch(name: &str) -> std::path::PathBuf {
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("swat-fuzz-{name}-{}", std::process::id()))
}

fn row(i: u64) -> [f64; STREAMS] {
    [(i as f64 * 0.61).sin() * 8.0, (i % 11) as f64 - 5.0]
}

/// Build the reference directory — snapshots at t = 20 and 28, the
/// manifests that committed them, `wal-20` (sealed, the fallback's tail),
/// `wal-28` (live, two rows; recycled, and cut back to them by the clean
/// close) and the spare (`wal-16`'s file, retired) — and capture its
/// files, so each fault case can reset the directory with plain writes
/// instead of re-running the (fsync-heavy) store.
fn reference(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let _ = fs::remove_dir_all(dir);
    let mut store = DurableStore::create_with(dir, config(), STREAMS, opts()).unwrap();
    for i in 0..ROWS {
        store.push_row(&row(i)).unwrap();
        if i + 1 == 20 {
            store.checkpoint().unwrap();
        }
        // No freeze is skipped by a slow flusher: the file set is the
        // same on every run.
        while store.status().covered_t < store.arrivals() - store.rows_since_freeze() {
            std::thread::yield_now();
        }
    }
    store.sync().unwrap();
    drop(store);
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Restore the directory to exactly the reference file set.
fn reset(dir: &Path, files: &[(String, Vec<u8>)]) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).unwrap();
    }
}

/// `answers_digest` of every uncrashed prefix.
fn digests() -> Vec<u64> {
    let mut set = StreamSet::new(config(), STREAMS);
    let mut out = vec![set.answers_digest()];
    for i in 0..ROWS {
        set.push_row(&row(i));
        out.push(set.answers_digest());
    }
    out
}

/// Recover `dir` and check the contract against the prefix digests.
/// Damage to a segment (`what` names the file first) must lose nothing:
/// the other kept snapshot and the retained WAL tail cover every row.
/// Nor may damage to the spare, which nothing reads.
fn check(dir: &Path, digests: &[u64], what: &str) {
    let lossless = what.starts_with("seg-") || what.starts_with(SPARE);
    match RecoveryManager::recover(dir.to_path_buf()) {
        Ok((store, report)) => {
            let p = report.recovered_arrivals as usize;
            if lossless {
                assert_eq!(p as u64, ROWS, "{what}: damage cost rows");
            }
            assert!(
                p < digests.len(),
                "{what}: recovered past the ingested rows"
            );
            assert_eq!(
                store.answers_digest(),
                digests[p],
                "{what}: recovered state is not the uncrashed prefix at {p}"
            );
        }
        Err(e) => {
            // Typed degradation; exercise Display too, it must not panic.
            let _ = e.to_string();
            assert!(!lossless, "{what}: {e}");
        }
    }
}

#[test]
fn every_single_bit_flip_recovers_consistently() {
    let dir = scratch("flip");
    let digests = digests();
    let files = reference(&dir);
    assert!(files.iter().any(|(f, _)| f.starts_with("seg-")));
    assert!(files.iter().any(|(f, _)| f.starts_with("manifest-")));
    assert!(files.iter().any(|(f, _)| f.starts_with("wal-")));
    assert!(files.iter().any(|(f, _)| f == SPARE));
    assert_eq!(
        files.len(),
        7,
        "expected two segments, two manifests, a sealed and a live WAL and the spare, \
         got {files:?}",
        files = files.iter().map(|(f, _)| f).collect::<Vec<_>>()
    );

    for (file, pristine) in &files {
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                reset(&dir, &files);
                let mut bad = pristine.clone();
                bad[byte] ^= 1 << bit;
                fs::write(dir.join(file), &bad).unwrap();
                check(&dir, &digests, &format!("{file} flip {byte}.{bit}"));
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_recovers_consistently() {
    let dir = scratch("cut");
    let digests = digests();
    let files = reference(&dir);

    for (file, pristine) in &files {
        for cut in 0..pristine.len() {
            reset(&dir, &files);
            fs::write(dir.join(file), &pristine[..cut]).unwrap();
            check(&dir, &digests, &format!("{file} cut {cut}"));
        }
    }

    // Deleting any single file must degrade gracefully too.
    for (file, _) in &files {
        reset(&dir, &files);
        fs::remove_file(dir.join(file)).unwrap();
        check(&dir, &digests, &format!("{file} deleted"));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A recycled file's stale tail — the records of the generation whose
/// file it was, past the live ones — is never replayed. The live
/// `wal-28` (two rows) is laid over a full older generation built by
/// hand, `wal-12`'s eight rows each verifying under base 12, and cut at
/// every byte of the live records: every record boundary and every torn
/// live record meets stale records. With the snapshots intact the base
/// is t = 28; with `seg-28` flipped recovery falls back to t = 20,
/// replays `wal-20`, then the recycled file. Either way it ends exactly
/// after the whole live records the cut left.
#[test]
fn a_recycled_files_stale_tail_is_never_replayed() {
    let dir = scratch("stale");
    let digests = digests();
    let files = reference(&dir);
    let (live_name, live) = files
        .iter()
        .find(|(f, _)| f == "wal-00000000000000000028.wal")
        .expect("the live generation");
    let rlen = record_len(STREAMS);
    assert_eq!(live.len(), HEADER_LEN + 2 * rlen, "two live rows");
    let mut old = WalHeader::describe(&config(), STREAMS, 12).encode();
    for i in 12..20 {
        encode_record(&mut old, 12, &row(i));
    }
    let seg28 = "seg-00000000000000000028-00000000000000000028.seg";

    for fall_back in [false, true] {
        for cut in 0..=live.len() {
            reset(&dir, &files);
            let mut recycled = live[..cut].to_vec();
            recycled.extend_from_slice(&old[cut..]);
            fs::write(dir.join(live_name), &recycled).unwrap();
            if fall_back {
                let mut seg = fs::read(dir.join(seg28)).unwrap();
                let at = seg.len() / 2;
                seg[at] ^= 0x08;
                fs::write(dir.join(seg28), seg).unwrap();
            }
            let (store, report) = RecoveryManager::recover(dir.clone())
                .unwrap_or_else(|e| panic!("cut {cut}, fall back {fall_back}: {e}"));
            let whole = (cut.saturating_sub(HEADER_LEN) / rlen) as u64;
            let want = 28 + whole;
            assert_eq!(
                report.recovered_arrivals, want,
                "cut {cut}, fall back {fall_back}: stale rows replayed or live rows lost"
            );
            assert_eq!(report.checkpoint_t, Some(if fall_back { 20 } else { 28 }));
            assert_eq!(store.answers_digest(), digests[want as usize]);
            assert!(report.wal_bytes_dropped > 0, "the stale tail is dropped");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
