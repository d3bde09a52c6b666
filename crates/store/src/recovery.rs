//! Crash recovery: rebuild a [`DurableStore`] from whatever survived.
//!
//! The invariant recovery enforces is *verified-prefix consistency*: the
//! recovered trees are bit-identical (witnessed by `answers_digest`) to a
//! never-crashed store that ingested some prefix of the acknowledged
//! arrivals — the longest prefix the surviving checksums can vouch for.
//! Corrupt bytes can shorten that prefix; they can never change an
//! answer, and they can never panic the recovery path.
//!
//! ## Procedure
//!
//! 1. Load the newest manifest whose whole-file checksum verifies;
//!    corrupt newer generations are counted and skipped.
//! 2. Walk its segments newest-first for the **base**: the newest entry
//!    whose snapshot verifies end-to-end. The store keeps the WAL from
//!    the older kept snapshot's clock on, so falling back one segment
//!    loses nothing. With no base, bootstrap an empty set from the
//!    `wal-0` header.
//! 3. Roll forward: WAL generations chain from the base clock — read in
//!    bounded chunks (never materializing a whole log), each record
//!    checksum-verified and pushed straight into the set, a torn tail
//!    dropped. A generation may begin before the clock; the overlap is
//!    skipped, not replayed twice.
//! 4. Write one snapshot segment at the recovered clock and commit a
//!    fresh manifest naming the base and it (the new commit point), so
//!    the recovered store starts fully covered.
//! 5. Reclaim what the new commit point does not need: `.tmp` staging
//!    files, segments no manifest names, WAL generations behind the
//!    retention floor or ahead of the recovered clock.
//!
//! Files the store does not write (a `ckpt-*` of the flat layout nothing
//! writes any more, say) are neither parsed nor deleted.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

use swat_tree::StreamSet;

use crate::error::StoreError;
use crate::fault::IoFaults;
use crate::io::{self, wal_name};
use crate::manifest::{self, Manifest};
use crate::segment;
use crate::store::{DurableStore, StoreOptions};
use crate::wal::{HeaderError, WalBodyReader, WalHeader, HEADER_LEN};

/// Rows per [`WalBodyReader`] chunk during replay — the unit of the
/// bounded-memory guarantee, deliberately far below any real log size.
const REPLAY_CHUNK_ROWS: usize = 1024;

/// What recovery found and did — the observability half of the story.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Arrival clock of the base segment snapshot; `None` when
    /// bootstrapped from the `wal-0` header.
    pub checkpoint_t: Option<u64>,
    /// Snapshots that failed verification on the way to the base —
    /// corrupt manifests and segment snapshots.
    pub checkpoints_skipped: usize,
    /// Sequence number of the manifest recovery started from.
    pub manifest_seq: Option<u64>,
    /// Unreferenced files reclaimed after the fresh commit point.
    pub orphans_reclaimed: usize,
    /// WAL rows replayed on top of the base state.
    pub wal_rows_replayed: u64,
    /// WAL bytes discarded as torn or corrupt (headers of unusable
    /// generations included). After a kill this includes a recycled
    /// file's stale tail: the older generation's records past the live
    /// ones, which fail the check bound to the live generation. A clean
    /// close cuts the live file back to its records, so it leaves none.
    pub wal_bytes_dropped: u64,
    /// Arrival clock of the recovered store.
    pub recovered_arrivals: u64,
}

/// Entry point for turning a possibly-damaged store directory back into a
/// live [`DurableStore`].
pub struct RecoveryManager;

impl RecoveryManager {
    /// Recover the store in `dir` with default [`StoreOptions`]. See the
    /// module docs for the procedure and the consistency contract.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(DurableStore, RecoveryReport), StoreError> {
        Self::recover_with(dir, StoreOptions::default())
    }

    /// [`Self::recover`] with explicit options (the recovered store's
    /// tuning).
    pub fn recover_with(
        dir: impl Into<PathBuf>,
        opts: StoreOptions,
    ) -> Result<(DurableStore, RecoveryReport), StoreError> {
        let dir = dir.into();
        let mut report = RecoveryReport::default();

        // 1. Newest verifiable manifest.
        let (man, man_skipped) = manifest::load_newest(&dir)?;
        report.checkpoints_skipped += man_skipped;

        // 2. Base = newest segment that verifies; the fresh manifest
        // keeps the entries up to it.
        let mut kept = Manifest::default();
        let mut base = None;
        if let Some(m) = man {
            report.manifest_seq = Some(m.seq);
            for (i, e) in m.entries.iter().enumerate().rev() {
                let restored = fs::read(dir.join(&e.name))
                    .ok()
                    .and_then(|bytes| segment::decode(&e.name, &bytes, e.end_t).ok());
                match restored {
                    Some(set) => {
                        report.checkpoint_t = Some(e.end_t);
                        kept.covered_t = e.end_t;
                        kept.entries = m.entries[..=i].to_vec();
                        base = Some(set);
                        break;
                    }
                    None => report.checkpoints_skipped += 1,
                }
            }
        }
        // 2b. Last resort: an empty set from the wal-0 header.
        let mut set = match base {
            Some(set) => set,
            None => bootstrap(&dir)?.ok_or(StoreError::NoState)?,
        };

        // 3. Chain WAL generations forward, bounded-memory.
        replay_wals(&dir, &mut set, &mut report)?;
        report.recovered_arrivals = set.tree(0).arrivals();

        // 4. The fresh commit point: a snapshot at the recovered clock
        // (unless the base already is one). Its sequence number must beat
        // every manifest file present, including corrupt newer ones.
        let mut fresh = if report.recovered_arrivals > kept.covered_t {
            let t = report.recovered_arrivals;
            io::write_atomic(
                &IoFaults::none(),
                &dir,
                &segment::segment_name(t, t),
                &segment::encode(&set),
                "write recovery segment",
            )?;
            kept.advanced_to(t)
        } else {
            kept
        };
        fresh.seq = manifest::list_manifests(&dir)?
            .into_iter()
            .max()
            .unwrap_or(0)
            + 1;
        manifest::commit(&IoFaults::none(), &dir, &fresh)?;

        // 5. Reclaim everything the new commit point does not need.
        report.orphans_reclaimed = reclaim_orphans(&dir, &fresh)?;

        // The recovered store opens a fresh WAL generation at the
        // recovered clock; `covered_t == arrivals` holds by construction.
        let store = DurableStore::resume(dir, set, fresh, opts)?;
        Ok((store, report))
    }
}

/// Chain WAL generations from the replay clock, reading each in bounded
/// chunks and pushing rows into `set` as they verify. A generation may
/// start at or before the clock (the overlap is skipped); the chain ends
/// when no generation extends it. A generation whose header verifies but
/// names another format version is refused ([`StoreError::WalVersion`]):
/// its rows may be acked, and this reader cannot check them.
fn replay_wals(
    dir: &Path,
    set: &mut StreamSet,
    report: &mut RecoveryReport,
) -> Result<(), StoreError> {
    let bases = io::wal_bases(dir);
    let streams = set.streams();
    let mut tried: HashSet<u64> = HashSet::new();
    loop {
        let clock = set.tree(0).arrivals();
        let Some(&base) = bases
            .iter()
            .filter(|b| **b <= clock && !tried.contains(b))
            .max()
        else {
            break;
        };
        tried.insert(base);
        let path = dir.join(wal_name(base));
        let file_len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let Ok(mut file) = File::open(&path) else {
            report.wal_bytes_dropped += file_len;
            continue;
        };
        // Torn, corrupt, another store's, or a recycled file whose header
        // still names the old base: no row of it was acked.
        let Some(header) = read_header(&mut file, base)?
            .filter(|h| *h == WalHeader::describe(set.config(), streams, base))
        else {
            report.wal_bytes_dropped += file_len;
            continue;
        };
        let skip_rows = clock - base;
        let mut seen: u64 = 0;
        let mut reader = WalBodyReader::new(file, &header, REPLAY_CHUNK_ROWS);
        while let Some(chunk) = reader.next_rows() {
            let rows = (chunk.len() / streams) as u64;
            let skip = skip_rows.saturating_sub(seen).min(rows);
            seen += rows;
            set.extend_rows(&chunk[skip as usize * streams..]);
        }
        let appended = set.tree(0).arrivals() - clock;
        report.wal_rows_replayed += appended;
        report.wal_bytes_dropped += file_len
            .saturating_sub(HEADER_LEN as u64)
            .saturating_sub(reader.verified_len());
        if appended == 0 {
            // This generation did not extend the clock; no other
            // generation starts at or before it, so the chain is done.
            break;
        }
    }
    Ok(())
}

/// An empty [`StreamSet`] reconstructed from the `wal-0` header, if that
/// header survives verification.
fn bootstrap(dir: &Path) -> Result<Option<StreamSet>, StoreError> {
    // Only the header matters here; the generation may be huge.
    let Ok(mut file) = File::open(dir.join(wal_name(0))) else {
        return Ok(None);
    };
    let Some(header) = read_header(&mut file, 0)? else {
        return Ok(None);
    };
    if header.base_t != 0 {
        return Ok(None);
    }
    let Ok(config) = header.config() else {
        return Ok(None);
    };
    Ok(Some(StreamSet::new(config, header.streams as usize)))
}

/// The header at the start of `file`, generation `base`'s: `None` when
/// it is torn or corrupt, [`StoreError::WalVersion`] when it verifies
/// but names a version this build does not replay.
fn read_header(file: &mut File, base: u64) -> Result<Option<WalHeader>, StoreError> {
    let mut bytes = [0u8; HEADER_LEN];
    if file.read_exact(&mut bytes).is_err() {
        return Ok(None);
    }
    match WalHeader::decode(&bytes) {
        Ok(header) => Ok(Some(header)),
        Err(HeaderError::Version(version)) => Err(StoreError::WalVersion {
            file: wal_name(base),
            version,
        }),
        Err(HeaderError::Corrupt(_)) => Ok(None),
    }
}

/// Delete every store file the fresh manifest does not need: `.tmp`
/// staging debris, WAL generations that start past the recovered clock
/// (nothing chains to them, and the resumed store will reuse their
/// names), then what [`manifest::retire`] retires on every flush —
/// orphan segments and WAL generations behind the retention floor.
/// Manifest generations beyond the kept window went with the commit.
fn reclaim_orphans(dir: &Path, fresh: &Manifest) -> Result<usize, StoreError> {
    let mut reclaimed = 0;
    for entry in fs::read_dir(dir).map_err(StoreError::io("list store directory"))? {
        let entry = entry.map_err(StoreError::io("list store directory"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let doomed = match io::parse_wal_name(&name) {
            Some(base) => base > fresh.covered_t,
            None => name.ends_with(".tmp"),
        };
        if doomed && fs::remove_file(dir.join(&name)).is_ok() {
            reclaimed += 1;
        }
    }
    reclaimed += manifest::retire(dir, fresh);
    io::sync_dir(&IoFaults::none(), dir, "fsync store directory")?;
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use swat_tree::SwatConfig;

    use crate::segment::segment_name;
    use crate::store::StoreHealth;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-recovery-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> SwatConfig {
        SwatConfig::with_coefficients(32, 2).unwrap()
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            freeze_rows: 10,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        }
    }

    /// A reference store that never crashes, for digest comparison.
    fn uncrashed(rows: u64) -> StreamSet {
        let mut set = StreamSet::new(config(), 2);
        for i in 0..rows {
            set.push_row(&row(i));
        }
        set
    }

    fn row(i: u64) -> [f64; 2] {
        [(i as f64 * 0.37).sin() * 5.0, i as f64]
    }

    #[test]
    fn clean_shutdown_recovers_bit_identically() {
        let dir = tmp("clean");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..75 {
            store.push_row(&row(i)).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.recovered_arrivals, 75);
        // The freeze at 70 was flushed before the drop; the base is that
        // snapshot, the 5-row tail replays from the live WAL generation.
        assert_eq!(report.checkpoint_t, Some(70));
        assert_eq!(report.wal_rows_replayed, 5);
        assert_eq!(report.wal_bytes_dropped, 0);
        assert_eq!(recovered.answers_digest(), uncrashed(75).answers_digest());
        // The recovered store is fully covered by a snapshot of its own.
        assert_eq!(recovered.status().covered_t, 75);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flip one bit in the middle of `name`.
    fn corrupt(dir: &Path, name: &str) {
        let mut bytes = fs::read(dir.join(name)).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        fs::write(dir.join(name), bytes).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_onto_the_older_and_its_wal_tail() {
        let dir = tmp("fallback");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..34 {
            store.push_row(&row(i)).unwrap();
            store.settle();
        }
        store.sync().unwrap(); // the ack: 34 rows
        store.crash();

        // Snapshots at 20 and 30, the WAL from 20 on.
        corrupt(&dir, &segment_name(30, 30));
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.checkpoint_t, Some(20));
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.wal_rows_replayed, 14);
        assert_eq!(report.recovered_arrivals, 34);
        assert_eq!(recovered.answers_digest(), uncrashed(34).answers_digest());
        // Re-anchored on the surviving base and a snapshot of its own.
        let st = recovered.status();
        assert_eq!((st.covered_t, st.segments), (34, 2));
        assert!(!dir.join(segment_name(30, 30)).exists());
        recovered.crash();

        // Both kept snapshots gone: wal-0 was retired long ago, so there
        // is nothing to bootstrap from — a typed error, not a panic and
        // not an empty store passed off as the recovered one.
        corrupt(&dir, &segment_name(20, 20));
        corrupt(&dir, &segment_name(34, 34));
        let err = RecoveryManager::recover_with(&dir, small_opts()).unwrap_err();
        assert!(matches!(err, StoreError::NoState), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_young_store_with_every_snapshot_corrupt_bootstraps_from_wal_0() {
        let dir = tmp("bootstrap");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..13 {
            store.push_row(&row(i)).unwrap();
            store.settle();
        }
        store.sync().unwrap();
        store.crash();
        // One snapshot so far: the floor is still 0 and wal-0 is kept.
        corrupt(&dir, &segment_name(10, 10));
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.checkpoint_t, None);
        assert_eq!(report.wal_rows_replayed, 13);
        assert_eq!(recovered.answers_digest(), uncrashed(13).answers_digest());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The one double fault that costs acked rows (DESIGN §3.15): a WAL
    /// generation lost to a foreground write fault is durable only as
    /// state in the snapshot that covers it; lose that snapshot too and
    /// recovery ends at the tear — a shorter prefix, still a verified one.
    #[test]
    fn a_wal_hole_plus_its_covering_snapshot_costs_rows_never_answers() {
        use crate::fault::{IoFaultKind, IoFaultPlan};
        // Rows 0..8 freeze and are covered; rows 8..12 meet `fault` at
        // their first write (a sync that fails, so nothing is acked);
        // the freeze at 16 rolls the torn generation away and its
        // snapshot covers the hole; the sync at 18 is the ack.
        let run = |name: &str, fault: Option<u64>| {
            let dir = tmp(name);
            let wal_faults = match fault {
                Some(step) => IoFaults::with_plan(IoFaultPlan::at(
                    step,
                    IoFaultKind::Torn { keep_permille: 600 },
                )),
                None => IoFaults::none(),
            };
            let opts = StoreOptions {
                freeze_rows: 8,
                wal_faults: wal_faults.clone(),
                ..small_opts()
            };
            let mut store = DurableStore::create_with(&dir, config(), 2, opts).unwrap();
            let mut fault_step = 0;
            for i in 0..18 {
                store.push_row(&row(i)).unwrap();
                store.settle();
                if i + 1 == 12 {
                    fault_step = wal_faults.steps();
                    assert_eq!(store.sync().is_ok(), fault.is_none());
                }
            }
            store.sync().unwrap();
            assert_eq!(store.status().covered_t, 16);
            store.crash();
            (dir, fault_step)
        };
        let (probe, step) = run("hole-probe", None);
        let _ = fs::remove_dir_all(&probe);

        // The single fault loses nothing.
        let (dir, _) = run("hole-single", Some(step));
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.recovered_arrivals, 18);
        assert_eq!(recovered.answers_digest(), uncrashed(18).answers_digest());
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);

        // The double fault recovers the rows before the tear.
        let (dir, _) = run("hole-double", Some(step));
        corrupt(&dir, &segment_name(16, 16));
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.checkpoint_t, Some(8));
        let p = report.recovered_arrivals;
        assert!((8..12).contains(&p), "recovered {p}: the tear is in 8..12");
        assert_eq!(recovered.answers_digest(), uncrashed(p).answers_digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_wal_is_refused_by_version_and_a_flipped_version_is_dropped() {
        use crate::wal::record_len;
        use swat_tree::codec::crc32;
        let dir = tmp("v1");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..15 {
            store.push_row(&row(i)).unwrap();
            store.settle();
        }
        store.sync().unwrap();
        drop(store);
        let live = dir.join(wal_name(10));
        let pristine = fs::read(&live).unwrap();
        assert_eq!(pristine.len(), HEADER_LEN + 5 * record_len(2));

        // The same rows as a version 1 writer laid them out: version byte,
        // header checksum, and record checksums without the salt.
        let mut v1 = pristine.clone();
        v1[4] = 1;
        let crc = crc32(&v1[..HEADER_LEN - 4]);
        v1[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        for record in v1[HEADER_LEN..].chunks_exact_mut(record_len(2)) {
            let crc = crc32(&record[4..]);
            record[..4].copy_from_slice(&crc.to_le_bytes());
        }
        fs::write(&live, &v1).unwrap();
        let err = RecoveryManager::recover_with(&dir, small_opts()).unwrap_err();
        assert!(
            matches!(&err, StoreError::WalVersion { file, version: 1 } if *file == wal_name(10)),
            "{err}"
        );
        assert!(err.to_string().contains("WAL version 1"), "{err}");

        // A version byte flipped under the checksum is corruption: the
        // generation is dropped and recovery ends at the snapshot.
        let mut flipped = pristine.clone();
        flipped[4] ^= 0x03;
        fs::write(&live, &flipped).unwrap();
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.recovered_arrivals, 10);
        assert_eq!(report.wal_bytes_dropped, pristine.len() as u64);
        assert_eq!(recovered.answers_digest(), uncrashed(10).answers_digest());
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);

        // A young version 1 store, nothing but its wal-0: refused too,
        // not bootstrapped into an empty store.
        let dir = tmp("v1-bootstrap");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(wal_name(0)), &v1[..HEADER_LEN]).unwrap();
        let err = RecoveryManager::recover_with(&dir, small_opts()).unwrap_err();
        assert!(
            matches!(&err, StoreError::WalVersion { version: 1, .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_trusted() {
        let dir = tmp("torn");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..9 {
            store.push_row(&row(i)).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        // Tear the last record mid-way, as an interrupted write would.
        let name = wal_name(0);
        let len = fs::metadata(dir.join(&name)).unwrap().len();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(dir.join(&name))
            .unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);

        let (recovered, report) = RecoveryManager::recover(&dir).unwrap();
        assert_eq!(report.recovered_arrivals, 8);
        assert_eq!(report.wal_rows_replayed, 8);
        assert!(report.wal_bytes_dropped > 0);
        assert_eq!(recovered.answers_digest(), uncrashed(8).answers_digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_a_typed_error() {
        let dir = tmp("empty");
        fs::create_dir_all(&dir).unwrap();
        let err = RecoveryManager::recover(&dir).unwrap_err();
        assert!(matches!(err, StoreError::NoState), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_re_anchors_so_a_second_crash_recovers_too() {
        let dir = tmp("reanchor");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..30 {
            store.push_row(&row(i)).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let (mut recovered, _) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        for i in 30..45 {
            recovered.push_row(&row(i)).unwrap();
        }
        recovered.sync().unwrap();
        drop(recovered);

        let (again, report) = RecoveryManager::recover(&dir).unwrap();
        assert_eq!(report.recovered_arrivals, 45);
        assert_eq!(again.answers_digest(), uncrashed(45).answers_digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_checkpoints_are_never_parsed_the_wal_chain_decides() {
        let dir = tmp("flat");
        fs::create_dir_all(&dir).unwrap();
        // The flat layout nothing writes any more: sealed wal-0, a
        // `ckpt-*` at t=20, live wal-20 with 10 more rows. The checkpoint
        // holds bytes no parser could accept; recovery must not care.
        let ckpt = dir.join("ckpt-00000000000000000020.ckpt");
        fs::write(&ckpt, b"SWCP\x01 not a checkpoint").unwrap();
        let cfg = config();
        let mut wal20 = WalHeader::describe(&cfg, 2, 20).encode();
        for i in 20..30 {
            crate::wal::encode_record(&mut wal20, 20, &row(i));
        }
        fs::write(dir.join(wal_name(20)), wal20).unwrap();

        // No wal-0: nothing vouches for rows 0..20, so there is no state.
        let err = RecoveryManager::recover_with(&dir, small_opts()).unwrap_err();
        assert!(matches!(err, StoreError::NoState), "{err}");

        // With the chain starting at wal-0 every row replays from the WAL.
        let mut wal0 = WalHeader::describe(&cfg, 2, 0).encode();
        for i in 0..20 {
            crate::wal::encode_record(&mut wal0, 0, &row(i));
        }
        fs::write(dir.join(wal_name(0)), wal0).unwrap();
        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.checkpoint_t, None);
        assert_eq!(report.checkpoints_skipped, 0);
        assert_eq!(report.wal_rows_replayed, 30);
        assert_eq!(report.recovered_arrivals, 30);
        assert_eq!(recovered.answers_digest(), uncrashed(30).answers_digest());
        assert_eq!(recovered.status().covered_t, 30);
        assert_eq!(fs::read(&ckpt).unwrap(), b"SWCP\x01 not a checkpoint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_store_recovers_from_the_wal_alone() {
        let dir = tmp("walonly");
        let opts = small_opts();
        let flush_faults = opts.flush_faults.clone();
        let mut store = DurableStore::create_with(&dir, config(), 2, opts).unwrap();
        flush_faults.kill(); // every background flush fails from the start
        for i in 0..35 {
            store.push_row(&row(i)).unwrap();
        }
        store.sync().unwrap(); // the ack: WAL path is healthy
        assert!(matches!(store.health(), StoreHealth::Degraded { .. }));
        store.crash();

        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.recovered_arrivals, 35, "acked rows must survive");
        assert_eq!(recovered.answers_digest(), uncrashed(35).answers_digest());
        let _ = fs::remove_dir_all(&dir);
    }
}
