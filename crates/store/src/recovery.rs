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
//!    whose embedded snapshot verifies end-to-end. Entries at or before
//!    the base are kept as-is (they are the historical row index).
//! 3. Roll forward: newer segments contribute their verified row
//!    prefixes, then WAL generations chain from the replay clock — read
//!    in bounded chunks (never materializing a whole log), each record
//!    checksum-verified, a torn tail dropped. A generation may begin
//!    before the clock; the overlap is skipped, not replayed twice.
//! 4. Replayed rows are re-segmented as they stream through: every
//!    `freeze_rows` rows a fresh segment (rows + snapshot) is written,
//!    so the recovered store is fully covered by segments and memory
//!    stays bounded no matter how long the log grew.
//! 5. Commit a fresh manifest (the new commit point), then reclaim
//!    orphans: `.tmp` staging files, segments no manifest names,
//!    compaction leftovers and fully-covered WAL generations.
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
use crate::manifest::{self, Manifest, SegmentEntry, StoreFile};
use crate::segment::{self, segment_name, SegmentData};
use crate::store::{DurableStore, StoreOptions};
use crate::wal::{WalBodyReader, WalHeader, HEADER_LEN};

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
    /// Newer segments whose rows were rolled forward over the base.
    pub segments_replayed: usize,
    /// Manifest entries dropped (row sections torn or unverifiable).
    pub segments_dropped: usize,
    /// Unreferenced files reclaimed after the fresh commit point.
    pub orphans_reclaimed: usize,
    /// WAL rows replayed on top of the base state.
    pub wal_rows_replayed: u64,
    /// WAL bytes discarded as torn or corrupt (headers of unusable
    /// generations included).
    pub wal_bytes_dropped: u64,
    /// Arrival clock of the recovered store.
    pub recovered_arrivals: u64,
}

/// Entry point for turning a possibly-damaged store directory back into a
/// live [`DurableStore`].
pub struct RecoveryManager;

/// Rows verified but not yet pushed into the recovering set; drained in
/// `freeze_rows` slices, each becoming a fresh segment.
struct Resegmenter {
    acc: Vec<f64>,
    emit_rows: usize,
    entries: Vec<SegmentEntry>,
}

impl Resegmenter {
    fn pending_rows(&self, streams: usize) -> u64 {
        (self.acc.len() / streams) as u64
    }

    /// Buffer `rows` and emit full segments at every boundary.
    fn push(&mut self, dir: &Path, set: &mut StreamSet, rows: &[f64]) -> Result<(), StoreError> {
        self.acc.extend_from_slice(rows);
        let streams = set.streams();
        while self.acc.len() >= self.emit_rows * streams {
            self.emit(dir, set, self.emit_rows)?;
        }
        Ok(())
    }

    /// Emit one segment of `take_rows` rows (pushing them into `set`
    /// first, so the embedded snapshot is exactly the state at the
    /// segment's end).
    fn emit(
        &mut self,
        dir: &Path,
        set: &mut StreamSet,
        take_rows: usize,
    ) -> Result<(), StoreError> {
        let streams = set.streams();
        let rows: Vec<f64> = self.acc.drain(..take_rows * streams).collect();
        let start_t = set.tree(0).arrivals();
        set.extend_rows(&rows);
        let end_t = set.tree(0).arrivals();
        let name = segment_name(start_t, end_t);
        io::write_atomic(
            &IoFaults::none(),
            dir,
            &name,
            &segment::encode(start_t, &rows, set),
            "write recovery segment",
        )?;
        self.entries.push(SegmentEntry {
            name,
            start_t,
            end_t,
        });
        Ok(())
    }

    /// Emit whatever remains as a final (short) segment.
    fn finish(&mut self, dir: &Path, set: &mut StreamSet) -> Result<(), StoreError> {
        let streams = set.streams();
        let rows = self.acc.len() / streams;
        if rows > 0 {
            self.emit(dir, set, rows)?;
        }
        Ok(())
    }
}

impl RecoveryManager {
    /// Recover the store in `dir` with default [`StoreOptions`]. See the
    /// module docs for the procedure and the consistency contract.
    pub fn recover(dir: impl Into<PathBuf>) -> Result<(DurableStore, RecoveryReport), StoreError> {
        Self::recover_with(dir, StoreOptions::default())
    }

    /// [`Self::recover`] with explicit options (the recovered store's
    /// tuning, and the `freeze_rows` used to re-segment replayed rows).
    pub fn recover_with(
        dir: impl Into<PathBuf>,
        opts: StoreOptions,
    ) -> Result<(DurableStore, RecoveryReport), StoreError> {
        let dir = dir.into();
        let mut report = RecoveryReport::default();

        // 1. Newest verifiable manifest.
        let (man, man_skipped) = manifest::load_newest(&dir)?;
        report.checkpoints_skipped += man_skipped;

        let mut kept: Vec<SegmentEntry> = Vec::new();
        let mut set: Option<StreamSet> = None;
        let mut reseg = Resegmenter {
            acc: Vec::new(),
            emit_rows: if opts.freeze_rows == 0 {
                4096
            } else {
                opts.freeze_rows as usize
            },
            entries: Vec::new(),
        };

        // 2. Base = newest segment with a verifiable snapshot.
        if let Some(m) = &man {
            report.manifest_seq = Some(m.seq);
            let mut base_idx = None;
            for (i, e) in m.entries.iter().enumerate().rev() {
                let ok = fs::read(dir.join(&e.name)).ok().and_then(|bytes| {
                    let seg = SegmentData::parse(&e.name, &bytes).ok()?;
                    if (seg.header.start_t, seg.header.end_t) != (e.start_t, e.end_t) {
                        return None;
                    }
                    seg.snapshot(&e.name).ok()
                });
                match ok {
                    Some(s) => {
                        base_idx = Some(i);
                        set = Some(s);
                        break;
                    }
                    None => report.checkpoints_skipped += 1,
                }
            }
            if let Some(bi) = base_idx {
                report.checkpoint_t = Some(m.entries[bi].end_t);
                kept.extend(m.entries[..=bi].iter().cloned());
                // 3a. Roll forward through newer segments' rows.
                let set = set.as_mut().expect("base snapshot just restored");
                for e in &m.entries[bi + 1..] {
                    match roll_segment(&dir, e, set) {
                        SegRoll::Complete => {
                            kept.push(e.clone());
                            report.segments_replayed += 1;
                        }
                        SegRoll::Partial(rows) => {
                            report.segments_dropped += 1;
                            if !rows.is_empty() {
                                report.segments_replayed += 1;
                                reseg.push(&dir, set, &rows)?;
                            }
                            break;
                        }
                    }
                }
            } else {
                report.segments_dropped += m.entries.len();
            }
        }

        // 2b. Last resort: bootstrap an empty set from the wal-0 header.
        let mut set = match set {
            Some(s) => s,
            None => match bootstrap(&dir)? {
                Some(s) => s,
                None => return Err(StoreError::NoState),
            },
        };

        // 3b. Chain WAL generations forward, bounded-memory.
        replay_wals(&dir, &mut set, &mut reseg, &mut report)?;
        reseg.finish(&dir, &mut set)?;
        report.recovered_arrivals = set.tree(0).arrivals();
        kept.append(&mut reseg.entries);

        // 4. The fresh commit point. Its sequence number must beat every
        // manifest file present, including corrupt newer ones.
        let next_seq = manifest::list_manifests(&dir)?
            .into_iter()
            .max()
            .unwrap_or(0)
            + 1;
        let fresh = Manifest {
            seq: next_seq,
            covered_t: report.recovered_arrivals,
            entries: kept,
        };
        manifest::commit(&IoFaults::none(), &dir, &fresh)?;

        // 5. Reclaim everything the new commit point does not reference.
        report.orphans_reclaimed = reclaim_orphans(&dir, &fresh)?;

        // The recovered store opens a fresh WAL generation at the
        // recovered clock; `covered_t == arrivals` holds by construction.
        let store = DurableStore::resume(dir, set, fresh, opts)?;
        Ok((store, report))
    }
}

enum SegRoll {
    /// Every declared row verified and was replayed; the entry stays.
    Complete,
    /// Only a prefix (possibly empty) verified; the entry is dropped and
    /// the prefix rows are handed back for re-segmentation.
    Partial(Vec<f64>),
}

/// Replay one newer segment's rows on top of `set`.
fn roll_segment(dir: &Path, e: &SegmentEntry, set: &mut StreamSet) -> SegRoll {
    let Ok(bytes) = fs::read(dir.join(&e.name)) else {
        return SegRoll::Partial(Vec::new());
    };
    let Ok(seg) = SegmentData::parse(&e.name, &bytes) else {
        return SegRoll::Partial(Vec::new());
    };
    if (seg.header.start_t, seg.header.end_t) != (e.start_t, e.end_t)
        || e.start_t != set.tree(0).arrivals()
    {
        return SegRoll::Partial(Vec::new());
    }
    let prefix = seg.rows();
    if prefix.values.len() == (e.end_t - e.start_t) as usize * set.streams() {
        set.extend_rows(&prefix.values);
        SegRoll::Complete
    } else {
        SegRoll::Partial(prefix.values)
    }
}

/// Chain WAL generations from the replay clock, reading each in bounded
/// chunks and re-segmenting as rows verify. A generation may start at or
/// before the clock (the overlap is skipped); the chain ends when no
/// generation extends it.
fn replay_wals(
    dir: &Path,
    set: &mut StreamSet,
    reseg: &mut Resegmenter,
    report: &mut RecoveryReport,
) -> Result<(), StoreError> {
    let mut bases = wal_bases(dir)?;
    bases.sort_unstable();
    let streams = set.streams();
    let mut tried: HashSet<u64> = HashSet::new();
    loop {
        let logical = set.tree(0).arrivals() + reseg.pending_rows(streams);
        let Some(&base) = bases
            .iter()
            .rev()
            .find(|b| **b <= logical && !tried.contains(b))
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
        let mut header_bytes = [0u8; HEADER_LEN];
        let header = match file
            .read_exact(&mut header_bytes)
            .ok()
            .and_then(|()| WalHeader::decode(&header_bytes).ok())
        {
            Some(h) => h,
            None => {
                report.wal_bytes_dropped += file_len;
                continue;
            }
        };
        if header != WalHeader::describe(set.config(), streams, base) {
            report.wal_bytes_dropped += file_len;
            continue;
        }
        let skip_rows = logical - base;
        let mut seen: u64 = 0;
        let mut appended: u64 = 0;
        let mut reader = WalBodyReader::new(file, streams, REPLAY_CHUNK_ROWS);
        while let Some(chunk) = reader.next_rows() {
            let rows = (chunk.len() / streams) as u64;
            let skip = skip_rows.saturating_sub(seen).min(rows);
            seen += rows;
            reseg.push(dir, set, &chunk[skip as usize * streams..])?;
            appended += rows - skip;
        }
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
    let mut bytes = [0u8; HEADER_LEN];
    if file.read_exact(&mut bytes).is_err() {
        return Ok(None);
    }
    let Ok(header) = WalHeader::decode(&bytes) else {
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

/// Base clocks of the WAL generations present in `dir`.
fn wal_bases(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(StoreError::io("list store directory"))? {
        let entry = entry.map_err(StoreError::io("list store directory"))?;
        out.extend(io::parse_wal_name(&entry.file_name().to_string_lossy()));
    }
    Ok(out)
}

/// Delete every store file the fresh manifest does not reference:
/// `.tmp` staging debris, orphan segments (crashed flushes/compactions),
/// fully-covered WAL generations, and manifest generations older than
/// the kept window.
fn reclaim_orphans(dir: &Path, fresh: &Manifest) -> Result<usize, StoreError> {
    let live: HashSet<&str> = fresh.entries.iter().map(|e| e.name.as_str()).collect();
    let mut reclaimed = 0;
    let keep_manifests: HashSet<u64> = {
        let mut seqs = manifest::list_manifests(dir)?;
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        seqs.into_iter().take(manifest::KEPT_MANIFESTS).collect()
    };
    for entry in fs::read_dir(dir).map_err(StoreError::io("list store directory"))? {
        let entry = entry.map_err(StoreError::io("list store directory"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let doomed = match manifest::classify(&name) {
            Some(StoreFile::Segment(..)) => !live.contains(name.as_str()),
            Some(StoreFile::Wal(_)) => true,
            Some(StoreFile::Manifest(seq)) => !keep_manifests.contains(&seq),
            None => name.ends_with(".tmp"),
        };
        if doomed && fs::remove_file(dir.join(&name)).is_ok() {
            reclaimed += 1;
        }
    }
    io::sync_dir(&IoFaults::none(), dir, "fsync store directory")?;
    Ok(reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use swat_tree::SwatConfig;

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
        // Freezes at 10..70 flushed; the base is the newest segment,
        // the 5-row tail replays from the live WAL generation.
        assert_eq!(report.checkpoint_t, Some(70));
        assert_eq!(report.wal_rows_replayed, 5);
        assert_eq!(report.wal_bytes_dropped, 0);
        assert_eq!(recovered.answers_digest(), uncrashed(75).answers_digest());
        // The recovered store is fully covered by segments.
        assert_eq!(recovered.status().covered_t, 75);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_segment_snapshot_falls_back_and_replays_rows() {
        let dir = tmp("fallback");
        let mut store = DurableStore::create_with(&dir, config(), 2, small_opts()).unwrap();
        for i in 0..30 {
            store.push_row(&row(i)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);

        // Corrupt the newest segment's snapshot section (the last bytes);
        // its rows stay intact, so no data is lost.
        let name = segment_name(20, 30);
        let mut bytes = fs::read(dir.join(&name)).unwrap();
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        fs::write(dir.join(&name), bytes).unwrap();

        let (recovered, report) = RecoveryManager::recover_with(&dir, small_opts()).unwrap();
        assert_eq!(report.checkpoint_t, Some(20));
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.segments_replayed, 1);
        assert_eq!(report.recovered_arrivals, 30);
        assert_eq!(recovered.answers_digest(), uncrashed(30).answers_digest());
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
            crate::wal::encode_record(&mut wal20, &row(i));
        }
        fs::write(dir.join(wal_name(20)), wal20).unwrap();

        // No wal-0: nothing vouches for rows 0..20, so there is no state.
        let err = RecoveryManager::recover_with(&dir, small_opts()).unwrap_err();
        assert!(matches!(err, StoreError::NoState), "{err}");

        // With the chain starting at wal-0 every row replays from the WAL.
        let mut wal0 = WalHeader::describe(&cfg, 2, 0).encode();
        for i in 0..20 {
            crate::wal::encode_record(&mut wal0, &row(i));
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
