//! Fault-adjudicated filesystem primitives.
//!
//! Every byte the tiered store puts on disk goes through these wrappers,
//! which consult an [`IoFaults`] domain before touching the filesystem.
//! In production the domain is [`IoFaults::none`] and the wrappers are
//! plain syscalls plus one atomic increment; under test the same code
//! paths fail with `ENOSPC`, `EIO`, torn writes, or a simulated process
//! death at seeded steps — so the graceful-degradation logic is exercised
//! on exactly the code that ships.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::fault::{IoFaultKind, IoFaults, IoOp};

/// Linux `errno` for "no space left on device".
const ENOSPC: i32 = 28;
/// Linux `errno` for "input/output error".
const EIO: i32 = 5;

/// Name of the WAL generation whose first record is arrival `base_t`.
/// Zero-padded so lexicographic order is chronological.
pub(crate) fn wal_name(base_t: u64) -> String {
    format!("wal-{base_t:020}.wal")
}

/// Parse `base_t` back out of a [`wal_name`]; `None` for anything else.
pub(crate) fn parse_wal_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".wal")?;
    if rest.len() != 20 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Name of the spare: the newest retired WAL generation's file, which
/// the next freeze renames to its generation's name and overwrites from
/// offset 0 instead of allocating a fresh file. Not a [`wal_name`]: no
/// listing counts it as a generation and no clock is parsed out of it.
pub(crate) const WAL_SPARE: &str = "spare.wal";

/// Base clocks of the WAL generations present in `dir` (none if it
/// cannot be listed).
pub(crate) fn wal_bases(dir: &Path) -> Vec<u64> {
    let Ok(listing) = fs::read_dir(dir) else {
        return Vec::new();
    };
    listing
        .flatten()
        .filter_map(|e| parse_wal_name(&e.file_name().to_string_lossy()))
        .collect()
}

fn injected(kind: IoFaultKind) -> io::Error {
    match kind {
        IoFaultKind::Enospc => io::Error::from_raw_os_error(ENOSPC),
        IoFaultKind::Eio | IoFaultKind::Torn { .. } | IoFaultKind::Crash => {
            io::Error::from_raw_os_error(EIO)
        }
    }
}

/// Write all of `bytes` to `file`, or fail the way the fault domain
/// dictates. A torn write lands a prefix before failing — exactly the
/// state an interrupted kernel write leaves behind.
pub(crate) fn write_all(
    faults: &IoFaults,
    file: &mut File,
    bytes: &[u8],
    context: &'static str,
) -> Result<(), StoreError> {
    match faults.check(IoOp::Write) {
        None => file.write_all(bytes).map_err(StoreError::io(context)),
        Some(kind) => {
            let keep = match kind {
                IoFaultKind::Torn { keep_permille } => {
                    bytes.len() * usize::from(keep_permille.min(999)) / 1000
                }
                // A crash tears the in-flight write too.
                IoFaultKind::Crash => bytes.len() / 2,
                _ => 0,
            };
            if keep > 0 {
                let _ = file.write_all(&bytes[..keep]);
            }
            Err(StoreError::Io {
                context,
                source: injected(kind),
            })
        }
    }
}

/// `fsync` the file's data (and metadata), or fail as injected.
pub(crate) fn sync_file(
    faults: &IoFaults,
    file: &File,
    context: &'static str,
) -> Result<(), StoreError> {
    match faults.check(IoOp::Sync) {
        None => file.sync_all().map_err(StoreError::io(context)),
        Some(kind) => Err(StoreError::Io {
            context,
            source: injected(kind),
        }),
    }
}

/// Atomically rename `from` to `to`, or fail as injected.
pub(crate) fn rename(
    faults: &IoFaults,
    from: &Path,
    to: &Path,
    context: &'static str,
) -> Result<(), StoreError> {
    match faults.check(IoOp::Rename) {
        None => fs::rename(from, to).map_err(StoreError::io(context)),
        Some(kind) => Err(StoreError::Io {
            context,
            source: injected(kind),
        }),
    }
}

/// `fsync` the directory so renames and unlinks inside it are durable;
/// counts as a sync op in the fault domain. Where the operating system
/// refuses directory fsync, the rename is still atomic and we proceed.
pub(crate) fn sync_dir(
    faults: &IoFaults,
    dir: &Path,
    context: &'static str,
) -> Result<(), StoreError> {
    if let Some(kind) = faults.check(IoOp::Sync) {
        return Err(StoreError::Io {
            context,
            source: injected(kind),
        });
    }
    match File::open(dir) {
        Ok(d) => {
            let _ = d.sync_all();
            Ok(())
        }
        Err(source) => Err(StoreError::Io { context, source }),
    }
}

/// Write `bytes` under `dir/name` with full crash atomicity — temp file,
/// write, `fsync`, rename, directory `fsync` — every step adjudicated by
/// the fault domain. On any failure the temp file is removed, so an
/// aborted write leaves no debris under the real name.
pub(crate) fn write_atomic(
    faults: &IoFaults,
    dir: &Path,
    name: &str,
    bytes: &[u8],
    context: &'static str,
) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let attempt = (|| {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(StoreError::io(context))?;
        write_all(faults, &mut tmp, bytes, context)?;
        sync_file(faults, &tmp, context)?;
        drop(tmp);
        rename(faults, &tmp_path, &final_path, context)?;
        sync_dir(faults, dir, context)
    })();
    match attempt {
        Ok(()) => Ok(final_path),
        Err(e) => {
            let _ = fs::remove_file(&tmp_path);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::IoFaultPlan;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-io-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_names_roundtrip_and_sort_chronologically() {
        assert_eq!(parse_wal_name(&wal_name(42)), Some(42));
        assert!(wal_name(9) < wal_name(10));
        assert_eq!(parse_wal_name("wal-12.wal"), None); // not zero-padded
        assert_eq!(parse_wal_name("wal-00000000000000000042.wal.tmp"), None);
        assert_eq!(parse_wal_name("ckpt-00000000000000000042.ckpt"), None);
        assert_eq!(parse_wal_name(WAL_SPARE), None);
    }

    #[test]
    fn write_atomic_cleans_its_temp_on_failure() {
        let dir = tmp_dir("clean");
        // Step 0 is the temp-file data write.
        let faults = IoFaults::with_plan(IoFaultPlan::at(0, IoFaultKind::Enospc));
        let err = write_atomic(&faults, &dir, "x.seg", b"payload", "write segment").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!dir.join("x.seg").exists());
        assert!(!dir.join("x.seg.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_a_prefix_only() {
        let dir = tmp_dir("torn");
        let faults =
            IoFaults::with_plan(IoFaultPlan::at(0, IoFaultKind::Torn { keep_permille: 500 }));
        let mut f = File::create(dir.join("wal")).unwrap();
        let err = write_all(&faults, &mut f, &[7u8; 100], "append WAL record").unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        drop(f);
        assert_eq!(fs::read(dir.join("wal")).unwrap().len(), 50);
        let _ = fs::remove_dir_all(&dir);
    }
}
