//! The durable store: two snapshots and a WAL tail, and durability that
//! never stalls ingest.
//!
//! A store directory holds the newest two snapshot segments, the
//! manifest naming them, and the WAL generations from the older
//! snapshot's clock on:
//!
//! ```text
//! seg-00000000000000004096-00000000000000004096.seg   snapshot@4096 (the fallback)
//! seg-00000000000000008192-00000000000000008192.seg   snapshot@8192 (the base)
//! manifest-00000000000000000003.man                   the commit point
//! wal-00000000000000004096.wal                        rows 4096..8192 (sealed)
//! wal-00000000000000008192.wal                        arrivals 8192.. (the live log)
//! ```
//!
//! [`DurableStore::push_row`] appends a checksummed record to the live
//! WAL (buffered) and holds the row for the in-memory trees, which take
//! held rows one clock-aligned 64-row tile at a time and before anything
//! reads them: the WAL is the only copy of a row the store ever makes,
//! and the trees lag it by at most 63 rows. Every `freeze_rows`
//! arrivals the generation is *frozen*: the WAL rolls and the ingest
//! thread encodes the live set's snapshot — the `3 log N − 2` summaries
//! per stream that *are* the stream's past — into a buffer the flusher
//! handed back, which costs about what copying the generation's rows
//! beside the WAL used to. The background flush thread writes those
//! bytes as an immutable segment, commits a new manifest (fsync → atomic
//! rename → directory fsync), and only then retires the older segments
//! and the WAL generations no kept snapshot needs. No caller ever blocks
//! on that fsync, and no row passes through a tree twice.
//!
//! ## Degradation, not death
//!
//! Disk faults on the background path (ENOSPC, EIO, torn writes) park
//! the snapshot; the flusher retries with bounded backoff — a newer
//! snapshot supersedes a parked one, so at most two snapshot buffers
//! ever exist — while ingest continues on the WAL, and
//! [`DurableStore::status`] reports [`StoreHealth::Degraded`]. Faults on
//! the foreground WAL path mark the live generation broken: ingest still
//! continues in memory, acks via [`DurableStore::sync`] fail until
//! either the WAL rolls to a healthy generation or a committed snapshot
//! covers the damage.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use swat_tree::{StreamSet, SwatConfig, TiledSet, TreeError};

use crate::error::StoreError;
use crate::fault::IoFaults;
use crate::io::{self, wal_name};
use crate::manifest::{self, Manifest};
use crate::segment;
use crate::wal::{self, WalHeader};

/// Flush the buffered WAL to the kernel once this many bytes accumulate
/// (an `fsync` still only happens in [`DurableStore::sync`]).
const WAL_FLUSH_BYTES: usize = 64 * 1024;

/// Whether `dir` holds store files (a segment, manifest or WAL
/// generation). Unrelated files — e.g. the [`crate::meta`]
/// image that shares the directory — do not count, so "recover or
/// create?" decisions stay correct when other state lives alongside the
/// trees.
pub fn holds_store(dir: &Path) -> bool {
    let Ok(entries) = fs::read_dir(dir) else {
        return false;
    };
    entries
        .flatten()
        .any(|e| manifest::classify(&e.file_name().to_string_lossy()).is_some())
}

/// Tuning and fault-injection knobs for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Arrivals per frozen generation; `0` disables automatic freezing
    /// (generations then freeze only on [`DurableStore::checkpoint`]).
    pub freeze_rows: u64,
    /// Backoff between retries of a parked (failed) flush.
    pub retry_backoff: Duration,
    /// Fault domain of the foreground WAL path (production: no faults).
    pub wal_faults: Arc<IoFaults>,
    /// Fault domain of the background flush path.
    pub flush_faults: Arc<IoFaults>,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            freeze_rows: 4096,
            retry_backoff: Duration::from_millis(25),
            wal_faults: IoFaults::none(),
            flush_faults: IoFaults::none(),
        }
    }
}

/// Whether durability is keeping up with ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreHealth {
    /// No failed flush outstanding, live WAL intact.
    Healthy,
    /// A disk fault is outstanding; ingest continues, acks may lag.
    Degraded {
        /// Freezes whose covering snapshot is not yet committed (0 or
        /// more: their rows are in the WAL, not yet durable as state).
        parked: usize,
        /// The most recent underlying failure, rendered.
        last_error: String,
    },
}

/// A point-in-time snapshot of the tiered store's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStatus {
    /// Arrivals ingested per stream (the in-memory clock).
    pub arrivals: u64,
    /// Arrivals durably captured by segments (the manifest clock).
    pub covered_t: u64,
    /// Live segments in the manifest (at most
    /// [`manifest::KEPT_SNAPSHOTS`]).
    pub segments: usize,
    /// Successful background flushes so far.
    pub flushes: u64,
    /// Retention passes so far that retired a file (a superseded segment
    /// or a WAL generation no kept snapshot needs).
    pub compactions: u64,
    /// Degradation state.
    pub health: StoreHealth,
}

/// State shared between the foreground store and the flush thread.
#[derive(Debug)]
struct Shared {
    manifest: Manifest,
    flush_error: Option<String>,
    /// The newest frozen snapshot, until the flusher takes it; the next
    /// freeze overwrites one still here.
    pending: Option<Frozen>,
    /// A buffer the flusher is done with, for the next freeze. With
    /// `pending` and the flusher's one in hand, at most two exist.
    spare: Option<Vec<u8>>,
    /// Freezes so far, and how many of them the committed snapshot covers.
    freezes: u64,
    covered_freezes: u64,
    flushes: u64,
    compactions: u64,
}

/// One freeze's snapshot on its way to disk.
#[derive(Debug)]
struct Frozen {
    end_t: u64,
    /// The encoded segment.
    bytes: Vec<u8>,
    /// Which freeze produced it (the value of [`Shared::freezes`] then).
    ordinal: u64,
}

impl Shared {
    fn uncovered(&self) -> usize {
        (self.freezes - self.covered_freezes) as usize
    }
}

type SharedView = Arc<Mutex<Shared>>;

/// Wake-ups for the flush thread.
enum Job {
    /// A snapshot is pending in [`Shared`].
    Flush,
    /// Reply once the pending snapshot has been attempted: `Ok` when the
    /// segment tier is fully caught up, `Err(last_error)` otherwise.
    Barrier(SyncSender<Result<(), String>>),
    /// Exit without draining (process-shutdown semantics; acked rows are
    /// safe in the WAL).
    Stop,
}

/// A crash-consistent [`StreamSet`] with tiered durability.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    /// The trees and the logged rows they have not taken yet.
    tiles: TiledSet,
    opts: StoreOptions,
    wal: WalWriter,
    /// Clock of the last freeze (the live generation's first arrival,
    /// unless the roll failed and it is still the previous one's).
    wal_base: u64,
    /// Sealed, not-yet-fsynced WAL generations `(end_t, handle)`, oldest
    /// first so [`Self::sync`] acks in arrival order. One is dropped,
    /// unsynced, as soon as a committed snapshot covers `end_t`: its
    /// rows are durable as state.
    sealed: VecDeque<(u64, File)>,
    /// Highest arrival clock guarded by a *broken* generation that was
    /// rolled away: rows below it may exist nowhere durable but the
    /// segment tier, so [`Self::sync`] must not ack until
    /// `covered_t` reaches it.
    wal_hole: Option<u64>,
    shared: SharedView,
    jobs: Option<Sender<Job>>,
    flusher: Option<JoinHandle<()>>,
}

impl DurableStore {
    /// Create a fresh store in `dir` (created if missing) with default
    /// [`StoreOptions`]. Fails if the directory already holds store
    /// files — recover those with [`crate::recovery::RecoveryManager`]
    /// instead of silently clobbering them.
    pub fn create(
        dir: impl Into<PathBuf>,
        config: SwatConfig,
        streams: usize,
    ) -> Result<DurableStore, StoreError> {
        Self::create_with(dir, config, streams, StoreOptions::default())
    }

    /// [`Self::create`] with explicit options.
    pub fn create_with(
        dir: impl Into<PathBuf>,
        config: SwatConfig,
        streams: usize,
        opts: StoreOptions,
    ) -> Result<DurableStore, StoreError> {
        let dir = dir.into();
        if streams == 0 {
            return Err(StoreError::BadRow { got: 0, want: 1 });
        }
        fs::create_dir_all(&dir).map_err(StoreError::io("create store directory"))?;
        for entry in fs::read_dir(&dir).map_err(StoreError::io("list store directory"))? {
            let entry = entry.map_err(StoreError::io("list store directory"))?;
            if manifest::classify(&entry.file_name().to_string_lossy()).is_some() {
                return Err(StoreError::Io {
                    context: "create store in a directory that already holds one",
                    source: std::io::Error::from(std::io::ErrorKind::AlreadyExists),
                });
            }
        }
        let set = StreamSet::new(config, streams);
        let initial = Manifest::default();
        manifest::commit(&opts.wal_faults, &dir, &initial)?;
        Self::resume(dir, set, initial, opts)
    }

    /// Wrap an already-reconstructed `set` (freshly created, or rebuilt
    /// by recovery) whose arrival clock equals `manifest.covered_t`, open
    /// its live WAL generation, and start the flush thread.
    pub(crate) fn resume(
        dir: PathBuf,
        set: StreamSet,
        manifest: Manifest,
        opts: StoreOptions,
    ) -> Result<DurableStore, StoreError> {
        let base = set.arrivals();
        debug_assert_eq!(manifest.covered_t, base);
        let wal = open_wal(&dir, set.config(), set.streams(), base, &opts.wal_faults)?;
        let shared: SharedView = Arc::new(Mutex::new(Shared {
            manifest,
            flush_error: None,
            pending: None,
            spare: None,
            freezes: 0,
            covered_freezes: 0,
            flushes: 0,
            compactions: 0,
        }));
        let (tx, rx) = mpsc::channel();
        let flusher = Flusher {
            dir: dir.clone(),
            faults: opts.flush_faults.clone(),
            shared: shared.clone(),
            parked: None,
            backoff: opts.retry_backoff,
        };
        let handle = std::thread::Builder::new()
            .name("swat-store-flush".to_owned())
            .spawn(move || flusher.run(rx))
            .map_err(StoreError::io("spawn flush thread"))?;
        Ok(DurableStore {
            dir,
            tiles: TiledSet::new(set),
            opts,
            wal,
            wal_base: base,
            sealed: VecDeque::new(),
            wal_hole: None,
            shared,
            jobs: Some(tx),
            flusher: Some(handle),
        })
    }

    /// invariant (every `expect` on this lock): the mutex is only held
    /// for short field moves; a poisoned lock means the flush thread
    /// panicked, which no adversarial input can cause.
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("flush thread panicked")
    }

    /// Ingest one synchronized row: once the whole row has validated (the
    /// tile's all-or-nothing check is the only scan of it), the trees'
    /// tile holds it and a checksummed WAL record is buffered. The held
    /// rows reach the trees one clock-aligned [`swat_tree::ROW_TILE`] at
    /// a time, and before anything reads them ([`Self::set`],
    /// [`Self::freeze`]); the tile a row completes is applied before its
    /// record is encoded, which moves no byte and no I/O step of the WAL.
    /// Never blocks on disk — call [`sync`](Self::sync) for the
    /// durability acknowledgment. The only errors are row validation; I/O
    /// trouble surfaces at `sync`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), StoreError> {
        if let Err(e) = self.tiles.hold(row) {
            return Err(match e {
                TreeError::NonFiniteInRow { stream } => StoreError::BadValue { stream },
                _ => StoreError::BadRow {
                    got: row.len(),
                    want: self.tiles.streams(),
                },
            });
        }
        self.wal.append_record(row);
        if self.opts.freeze_rows > 0 && self.rows_since_freeze() >= self.opts.freeze_rows {
            self.freeze();
        }
        Ok(())
    }

    /// Freeze the active generation: apply the held rows, roll the WAL to
    /// a fresh generation and leave the live set's snapshot for the
    /// background flusher — so a snapshot holds exactly the rows its WAL
    /// generations hold. Does not wait for the flush, does not `fsync`
    /// anything, and — once a flushed buffer has come back — allocates
    /// nothing that grows with the streams or the rows. No-op when the
    /// active generation is empty.
    pub fn freeze(&mut self) {
        let end = self.tiles.settled().arrivals();
        if end == self.wal_base {
            return;
        }
        // Land buffered records with the kernel so the sealed handle's
        // later fsync covers them; a failure is already recorded in the
        // writer and the rows still reach durability as state.
        let _ = self.wal.flush();
        let (config, streams) = (self.tiles.config(), self.tiles.streams());
        match open_wal(&self.dir, config, streams, end, &self.opts.wal_faults) {
            Ok(next) => {
                let old = std::mem::replace(&mut self.wal, next);
                if old.broken.is_none() {
                    self.sealed.push_back((end, old.file));
                } else {
                    // The broken generation's rows now live only in the
                    // snapshot headed for the segment tier; until that
                    // (or a later one) is committed, sync() must not ack.
                    self.wal_hole = Some(end);
                }
            }
            Err(_) => {
                // Could not open the next generation: keep appending to
                // the current one. Recovery replays a generation from any
                // base at or before its clock, so a long generation
                // spanning several freezes is merely untidy.
            }
        }
        // A snapshot the flusher has not taken yet is superseded by this
        // one: its buffer is the one to reuse.
        let (mut bytes, covered) = {
            let mut s = self.shared();
            let bytes = match s.pending.take() {
                Some(superseded) => superseded.bytes,
                None => s.spare.take().unwrap_or_default(),
            };
            (bytes, s.manifest.covered_t)
        };
        self.drop_covered(covered);
        segment::encode_into(&mut bytes, self.tiles.settled());
        {
            let mut s = self.shared();
            s.freezes += 1;
            s.pending = Some(Frozen {
                end_t: end,
                bytes,
                ordinal: s.freezes,
            });
        }
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Job::Flush);
        }
        self.wal_base = end;
    }

    /// Close the sealed generations a committed snapshot covers.
    fn drop_covered(&mut self, covered_t: u64) {
        while self
            .sealed
            .front()
            .is_some_and(|(end, _)| *end <= covered_t)
        {
            self.sealed.pop_front();
        }
    }

    /// The durability acknowledgment: when this returns `Ok`, every row
    /// pushed so far survives a crash. Flushes and `fsync`s the live and
    /// sealed WAL generations; if the WAL path is degraded, the call
    /// still succeeds once the segment tier has durably covered every
    /// arrival.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let covered = self.shared().manifest.covered_t;
        self.drop_covered(covered);
        match self.sync_wal() {
            Ok(()) => {
                // A healthy WAL chain is not enough if a broken
                // generation was rolled away: those rows are durable only
                // once a committed snapshot covers their clock.
                match self.wal_hole {
                    Some(hole) if covered < hole => Err(StoreError::Degraded {
                        parked: self.shared().uncovered(),
                        message: format!(
                            "WAL generation below t={hole} was lost to a write fault; \
                             rows await the segment tier (covered t={covered})"
                        ),
                    }),
                    _ => {
                        self.wal_hole = None;
                        Ok(())
                    }
                }
            }
            Err(e) => {
                if covered >= self.tiles.arrivals() {
                    // Everything acked is in an fsynced snapshot; the
                    // broken WAL generation no longer guards any data.
                    self.sealed.clear();
                    self.wal_hole = None;
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Hand the buffered WAL records to the kernel — a `write`, not an
    /// `fsync`: when this returns `Ok`, every row pushed so far survives
    /// a kill of the process, though not of the host.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.wal.flush()
    }

    fn sync_wal(&mut self) -> Result<(), StoreError> {
        while let Some((_, file)) = self.sealed.front() {
            io::sync_file(&self.opts.wal_faults, file, "fsync sealed WAL")?;
            self.sealed.pop_front();
        }
        self.wal.sync()?;
        io::sync_dir(&self.opts.wal_faults, &self.dir, "fsync store directory")
    }

    /// Make everything durable *as state*: freeze the active generation,
    /// wait for the flusher to commit its snapshot, and `fsync` the WAL.
    /// Returns [`StoreError::Degraded`] when the snapshot could not be
    /// flushed (acked data is still safe — in the WAL).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.freeze();
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Job::Barrier(reply_tx));
        }
        match reply_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(message)) => {
                let parked = self.shared().uncovered();
                return Err(StoreError::Degraded { parked, message });
            }
            Err(_) => {
                return Err(StoreError::Degraded {
                    parked: 0,
                    message: "flush thread unavailable".to_owned(),
                })
            }
        }
        self.sync()
    }

    /// A point-in-time view of the tier shape and degradation state.
    pub fn status(&self) -> TierStatus {
        let s = self.shared();
        let health = if s.flush_error.is_some() || self.wal.broken.is_some() {
            StoreHealth::Degraded {
                parked: s.uncovered(),
                last_error: s
                    .flush_error
                    .clone()
                    .or_else(|| self.wal.broken.clone())
                    .unwrap_or_default(),
            }
        } else {
            StoreHealth::Healthy
        };
        TierStatus {
            arrivals: self.tiles.arrivals(),
            covered_t: s.manifest.covered_t,
            segments: s.manifest.entries.len(),
            flushes: s.flushes,
            compactions: s.compactions,
            health,
        }
    }

    /// Shorthand for [`Self::status`]`.health`.
    pub fn health(&self) -> StoreHealth {
        self.status().health
    }

    /// The summarized streams, every pushed row applied.
    pub fn set(&mut self) -> &StreamSet {
        self.tiles.settled()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arrivals ingested per stream (the durable clock), held rows
    /// included.
    pub fn arrivals(&self) -> u64 {
        self.tiles.arrivals()
    }

    /// Rows in the active (not yet frozen) generation.
    pub fn rows_since_freeze(&self) -> u64 {
        self.tiles.arrivals() - self.wal_base
    }

    /// The answers-identity digest of the underlying [`StreamSet`] with
    /// every pushed row applied — the witness that recovery was
    /// bit-identical.
    pub fn answers_digest(&self) -> u64 {
        self.tiles.answers_digest()
    }

    /// Simulate a process kill: unflushed WAL buffer lost, both fault
    /// domains dead (any in-flight background write fails as at a power
    /// cut), flush thread reaped. Only the files remain — exactly what
    /// [`crate::recovery::RecoveryManager`] is handed after a real crash.
    pub fn crash(mut self) {
        self.opts.wal_faults.kill();
        self.opts.flush_faults.kill();
        self.wal.discard();
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(jobs) = self.jobs.take() {
            let _ = jobs.send(Job::Stop);
        }
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // Graceful-shutdown parity with the old BufWriter store: buffered
        // records reach the kernel (no fsync); a pending snapshot is
        // abandoned — its rows are already in the WAL.
        let _ = self.wal.flush();
        self.shutdown();
    }
}

/// The buffered, fault-adjudicated live WAL generation.
#[derive(Debug)]
struct WalWriter {
    file: File,
    buf: Vec<u8>,
    faults: Arc<IoFaults>,
    /// Set on the first write/fsync failure: the generation may hold a
    /// torn record, so it stops accepting appends and [`DurableStore`]
    /// routes durability through the segment tier instead.
    broken: Option<String>,
}

impl WalWriter {
    /// Encode one record for `row` straight into the write buffer.
    fn append_record(&mut self, row: &[f64]) {
        if self.broken.is_some() {
            return;
        }
        wal::encode_record(&mut self.buf, row);
        if self.buf.len() >= WAL_FLUSH_BYTES {
            let _ = self.flush();
        }
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(msg) = &self.broken {
            return Err(degraded_io(msg));
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let res = io::write_all(
            &self.faults,
            &mut self.file,
            &self.buf,
            "append WAL records",
        );
        self.buf.clear();
        if let Err(e) = &res {
            self.broken = Some(e.to_string());
        }
        res
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        io::sync_file(&self.faults, &self.file, "fsync WAL").inspect_err(|e| {
            // A failed fsync may have dropped dirty pages; nothing in
            // this generation can be trusted as durable anymore.
            self.broken = Some(e.to_string());
        })
    }

    fn discard(&mut self) {
        self.buf.clear();
    }
}

fn degraded_io(msg: &str) -> StoreError {
    StoreError::Io {
        context: "WAL generation degraded",
        source: std::io::Error::other(msg.to_owned()),
    }
}

/// Open `wal-<base>` fresh (truncating any unverifiable leftover with the
/// same name) and buffer its header. Nothing is fsynced here — the
/// header becomes durable with the first [`DurableStore::sync`].
fn open_wal(
    dir: &Path,
    config: &SwatConfig,
    streams: usize,
    base: u64,
    faults: &Arc<IoFaults>,
) -> Result<WalWriter, StoreError> {
    let path = dir.join(wal_name(base));
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&path)
        .map_err(StoreError::io("open WAL"))?;
    Ok(WalWriter {
        file,
        buf: WalHeader::describe(config, streams, base).encode(),
        faults: faults.clone(),
        broken: None,
    })
}

/// The background flush worker.
struct Flusher {
    dir: PathBuf,
    faults: Arc<IoFaults>,
    shared: SharedView,
    /// The snapshot whose flush failed, kept for the retry.
    parked: Option<Frozen>,
    backoff: Duration,
}

impl Flusher {
    fn run(mut self, rx: Receiver<Job>) {
        loop {
            let msg = if self.parked.is_none() {
                match rx.recv() {
                    Ok(m) => Some(m),
                    Err(_) => break,
                }
            } else {
                match rx.recv_timeout(self.backoff) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                Some(Job::Flush) | None => self.drain(),
                Some(Job::Barrier(reply)) => {
                    self.drain();
                    let result = match self.shared().flush_error.clone() {
                        None => Ok(()),
                        Some(e) => Err(e),
                    };
                    let _ = reply.send(result);
                }
                Some(Job::Stop) => break,
            }
        }
    }

    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("store dropped mid-lock")
    }

    /// Flush the newest snapshot there is — a pending one supersedes a
    /// parked one — until none is left or one fails.
    fn drain(&mut self) {
        loop {
            let newer = self.shared().pending.take();
            if let Some(newer) = newer {
                if let Some(superseded) = self.parked.replace(newer) {
                    self.shared().spare.get_or_insert(superseded.bytes);
                }
            }
            let Some(job) = self.parked.take() else {
                return;
            };
            match self.flush_one(job.end_t, &job.bytes) {
                Ok((next, retired)) => {
                    // One critical section: a status() that sees the new
                    // commit point also sees the fault it cleared.
                    let mut s = self.shared();
                    s.manifest = next;
                    s.flushes += 1;
                    s.compactions += u64::from(retired > 0);
                    s.covered_freezes = job.ordinal;
                    s.flush_error = None;
                    s.spare.get_or_insert(job.bytes);
                }
                Err(e) => {
                    self.parked = Some(job);
                    self.shared().flush_error = Some(e.to_string());
                    return;
                }
            }
        }
    }

    /// Segment, then manifest, then retention: a fault at any step leaves
    /// the previous commit point and everything it needs in place. Returns
    /// the committed manifest and how many files retention retired, for
    /// the caller to publish.
    fn flush_one(&self, end_t: u64, bytes: &[u8]) -> Result<(Manifest, usize), StoreError> {
        let next = self.shared().manifest.advanced_to(end_t);
        let name = segment::segment_name(end_t, end_t);
        io::write_atomic(&self.faults, &self.dir, &name, bytes, "write segment")?;
        manifest::commit(&self.faults, &self.dir, &next)?;
        let retired = manifest::retire(&self.dir, &next);
        Ok((next, retired))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{IoFaultKind, IoFaultPlan};
    use crate::manifest::StoreFile;

    impl DurableStore {
        /// Wait for the flusher to have dealt with the last freeze, one way
        /// or the other: which snapshots a slow flusher skips is a matter of
        /// timing, and the tests that count files or I/O steps want none
        /// skipped.
        pub(crate) fn settle(&self) {
            loop {
                let st = self.status();
                if st.covered_t == self.wal_base || st.health != StoreHealth::Healthy {
                    return;
                }
                std::thread::yield_now();
            }
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config() -> SwatConfig {
        SwatConfig::with_coefficients(32, 2).unwrap()
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            freeze_rows: 8,
            retry_backoff: Duration::from_millis(1),
            ..StoreOptions::default()
        }
    }

    #[test]
    fn create_refuses_to_clobber_existing_state() {
        let dir = tmp("clobber");
        let store = DurableStore::create(&dir, config(), 1).unwrap();
        drop(store);
        let err = DurableStore::create(&dir, config(), 1).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_validates_rows_before_touching_disk_or_trees() {
        let dir = tmp("validate");
        let mut store = DurableStore::create(&dir, config(), 2).unwrap();
        assert!(matches!(
            store.push_row(&[1.0]),
            Err(StoreError::BadRow { got: 1, want: 2 })
        ));
        assert!(matches!(
            store.push_row(&[1.0, f64::INFINITY]),
            Err(StoreError::BadValue { stream: 1 })
        ));
        assert_eq!(store.arrivals(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn freezes_leave_two_snapshots_and_the_wal_behind_the_older() {
        let dir = tmp("tiers");
        let mut store = DurableStore::create_with(&dir, config(), 1, small_opts()).unwrap();
        for i in 0..40 {
            store.push_row(&[i as f64]).unwrap();
            store.settle();
        }
        store.checkpoint().unwrap();
        let st = store.status();
        assert_eq!(st.arrivals, 40);
        assert_eq!(st.covered_t, 40);
        assert_eq!(st.health, StoreHealth::Healthy);
        assert_eq!(st.flushes, 5, "{st:?}");
        // The first flush had nothing to retire; every later one did.
        assert_eq!(st.compactions, 4, "{st:?}");

        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let kinds: Vec<StoreFile> = names.iter().filter_map(|n| manifest::classify(n)).collect();
        assert_eq!(
            kinds,
            [
                StoreFile::Manifest(4),
                StoreFile::Manifest(5),
                StoreFile::Segment(32, 32),
                StoreFile::Segment(40, 40),
                StoreFile::Wal(32),
                StoreFile::Wal(40),
            ],
            "{names:?}"
        );
        assert_eq!(st.segments, manifest::KEPT_SNAPSHOTS);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_flush_fault_parks_then_catches_up() {
        let dir = tmp("parked");
        let opts = StoreOptions {
            flush_faults: IoFaults::with_plan(IoFaultPlan::at(0, IoFaultKind::Enospc)),
            ..small_opts()
        };
        let mut store = DurableStore::create_with(&dir, config(), 1, opts).unwrap();
        for i in 0..16 {
            store.push_row(&[i as f64]).unwrap();
        }
        // ENOSPC hits the first segment write; the retry (fault is
        // one-shot) succeeds, so the barrier drains everything.
        store.checkpoint().unwrap();
        assert_eq!(store.status().covered_t, 16);
        assert_eq!(store.health(), StoreHealth::Healthy);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_newer_snapshot_supersedes_a_parked_one() {
        let dir = tmp("superseded");
        let opts = StoreOptions {
            flush_faults: IoFaults::with_plan(IoFaultPlan::at(0, IoFaultKind::Enospc)),
            // No retry by the clock: only the next freeze wakes the flusher.
            retry_backoff: Duration::from_secs(3600),
            ..small_opts()
        };
        let mut store = DurableStore::create_with(&dir, config(), 1, opts).unwrap();
        for i in 0..8 {
            store.push_row(&[i as f64]).unwrap();
        }
        store.settle();
        assert_eq!(
            store.status().covered_t,
            0,
            "the snapshot at 8 is parked on ENOSPC"
        );
        assert!(
            matches!(store.health(), StoreHealth::Degraded { parked: 1, .. }),
            "{:?}",
            store.health()
        );
        for i in 8..16 {
            store.push_row(&[i as f64]).unwrap();
        }
        while store.status().covered_t != 16 {
            std::thread::yield_now();
        }
        let st = store.status();
        assert_eq!(
            (st.covered_t, st.flushes, st.segments),
            (16, 1, 1),
            "{st:?}"
        );
        assert_eq!(st.health, StoreHealth::Healthy);
        assert!(!dir.join(segment::segment_name(8, 8)).exists());
        // Both freezes' rows are still in the WAL: nothing to fall back
        // on but the bootstrap, so nothing may be pruned yet.
        assert!(dir.join(wal_name(0)).exists() && dir.join(wal_name(8)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Row `i` of three streams.
    fn row3(i: u64) -> [f64; 3] {
        let x = i as f64;
        [(x * 0.37).sin() * 5.0, x, (i % 7) as f64 - 3.0]
    }

    #[test]
    fn a_crash_at_every_tile_residue_recovers_the_synced_prefix() {
        let mut twin = StreamSet::new(config(), 3);
        for n in 0..=130u64 {
            let dir = tmp(&format!("residue-{n}"));
            let mut store = DurableStore::create(&dir, config(), 3).unwrap();
            for i in 0..n {
                store.push_row(&row3(i)).unwrap();
            }
            assert_eq!(store.tiles.held_rows() as u64, n % 64);
            store.sync().unwrap();
            store.crash();
            let (recovered, report) = crate::RecoveryManager::recover(&dir).unwrap();
            assert_eq!(report.recovered_arrivals, n);
            assert_eq!(recovered.answers_digest(), twin.answers_digest(), "n = {n}");
            drop(recovered);
            let _ = fs::remove_dir_all(&dir);
            twin.push_row(&row3(n));
        }
    }

    #[test]
    fn a_freeze_with_rows_held_snapshots_the_row_by_row_trees() {
        // At 8 rows a generation every freeze settles a partial tile; at
        // 100 the freezes land 36, 8 and 44 rows into a tile.
        for freeze_rows in [8, 100] {
            let dir = tmp(&format!("held-freeze-{freeze_rows}"));
            let opts = StoreOptions {
                freeze_rows,
                ..small_opts()
            };
            let mut store = DurableStore::create_with(&dir, config(), 3, opts).unwrap();
            let mut twin = StreamSet::new(config(), 3);
            let mut frozen = 0;
            for t in 1..=300 {
                store.push_row(&row3(t - 1)).unwrap();
                twin.push_row(&row3(t - 1));
                if store.rows_since_freeze() > 0 {
                    continue;
                }
                store.settle();
                let name = segment::segment_name(t, t);
                let bytes = fs::read(dir.join(&name)).unwrap();
                let snapshot = segment::decode(&name, &bytes, t).unwrap();
                assert_eq!(
                    snapshot.answers_digest(),
                    twin.answers_digest(),
                    "freeze_rows {freeze_rows}, t = {t}"
                );
                frozen += 1;
            }
            assert_eq!(frozen, 300 / freeze_rows);
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn answers_digest_counts_held_rows_without_applying_them() {
        let dir = tmp("held-digest");
        let mut store = DurableStore::create(&dir, config(), 3).unwrap();
        let mut twin = StreamSet::new(config(), 3);
        for t in 1..=64 + 63 {
            store.push_row(&row3(t - 1)).unwrap();
            twin.push_row(&row3(t - 1));
            let held = store.tiles.held_rows();
            assert_eq!(held as u64, t % 64);
            assert_eq!(store.answers_digest(), twin.answers_digest(), "{held} held");
            assert_eq!(
                store.tiles.held_rows(),
                held,
                "a &self digest applies nothing"
            );
            assert_eq!((store.arrivals(), store.status().arrivals), (t, t));
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_disk_degrades_but_ingest_continues() {
        let dir = tmp("degraded");
        let opts = small_opts();
        let flush_faults = opts.flush_faults.clone();
        let mut store = DurableStore::create_with(&dir, config(), 1, opts).unwrap();
        flush_faults.kill();
        for i in 0..40 {
            store.push_row(&[i as f64]).unwrap();
        }
        let err = store.checkpoint().unwrap_err();
        assert!(
            matches!(err, StoreError::Degraded { parked: 5, .. }),
            "{err}"
        );
        assert!(matches!(store.health(), StoreHealth::Degraded { .. }));
        // Ingest and in-memory answers are unaffected.
        assert_eq!(store.arrivals(), 40);
        // Acked data is still durable: the WAL path is healthy.
        store.sync().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
