//! The durability layer's error type.
//!
//! Everything that can go wrong while persisting or recovering state maps
//! to one [`StoreError`] variant, and every corruption-shaped variant says
//! *which file* and *where*: recovery code paths are exercised by fault
//! injection that flips and truncates arbitrary bytes, and a positioned
//! error is the difference between a diagnosable incident and a shrug.

use std::fmt;
use std::io;

use swat_tree::codec::CodecError;
use swat_tree::SnapshotError;

/// Why a durable-store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure, with the operation that hit it.
    Io {
        /// What the store was doing (`"open wal"`, `"rename checkpoint"`, ...).
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A file failed structural validation (bad magic, bad checksum,
    /// truncated field...). The offset inside [`CodecError`] is relative
    /// to the start of the named file.
    Corrupt {
        /// File name within the store directory.
        file: String,
        /// The positioned decode failure.
        source: CodecError,
    },
    /// A checkpoint's embedded tree snapshot failed to restore.
    Snapshot {
        /// File name within the store directory.
        file: String,
        /// The positioned snapshot failure (offsets are relative to the
        /// snapshot payload, which starts after the checkpoint header).
        source: SnapshotError,
    },
    /// A WAL generation recovery needs has a header that verifies but
    /// names a format version this build does not replay (a store written
    /// before records were bound to their generation is version 1).
    /// Recovery refuses the store rather than drop rows that may be acked.
    WalVersion {
        /// File name within the store directory.
        file: String,
        /// The version its header names.
        version: u8,
    },
    /// The directory holds no recoverable state at all: no readable
    /// checkpoint and no readable WAL header to bootstrap from.
    NoState,
    /// A row was pushed with the wrong number of streams.
    BadRow {
        /// Values supplied.
        got: usize,
        /// Streams the store was created with.
        want: usize,
    },
    /// A row was pushed containing a non-finite value, which neither the
    /// tree nor the WAL record format accepts.
    BadValue {
        /// Index of the offending stream within the row.
        stream: usize,
    },
    /// The store is running but durability is behind: the background
    /// flush is parked on a persistent disk fault (or the live WAL hit
    /// one), so an operation that requires everything durable cannot
    /// complete. Ingest continues; the store retries with bounded backoff.
    Degraded {
        /// Freezes whose covering snapshot is not yet committed.
        parked: usize,
        /// The most recent underlying failure, rendered.
        message: String,
    },
    /// The directory holds a store other than the one asked for: one
    /// with no placement record (written under an earlier partition
    /// rule), or one whose placement, stream count or configuration
    /// differs from the requested one. Opening it would misread its rows.
    Mismatch {
        /// What differs (`"placement"`, `"stream count"`, `"config"`).
        what: &'static str,
        /// What the directory holds, rendered.
        found: String,
        /// What was requested, rendered.
        want: String,
    },
}

impl StoreError {
    /// Adapter for `map_err`: annotate an [`io::Error`] with its context.
    pub(crate) fn io(context: &'static str) -> impl FnOnce(io::Error) -> StoreError {
        move |source| StoreError::Io { context, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "i/o failure ({context}): {source}"),
            StoreError::Corrupt { file, source } => write!(f, "corrupt {file}: {source}"),
            StoreError::Snapshot { file, source } => {
                write!(f, "corrupt snapshot in {file}: {source}")
            }
            StoreError::WalVersion { file, version } => write!(
                f,
                "{file} is WAL version {version}; this build replays version {} only",
                crate::wal::WAL_VERSION
            ),
            StoreError::NoState => write!(f, "no recoverable state in store directory"),
            StoreError::BadRow { got, want } => {
                write!(f, "row has {got} values but the store has {want} streams")
            }
            StoreError::BadValue { stream } => {
                write!(f, "row carries a non-finite value for stream {stream}")
            }
            StoreError::Degraded { parked, message } => {
                write!(
                    f,
                    "store degraded: {parked} freeze(s) await their snapshot ({message})"
                )
            }
            StoreError::Mismatch { what, found, want } => write!(
                f,
                "store directory mismatch: {what} on disk is {found}, requested {want}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { source, .. } => Some(source),
            StoreError::Snapshot { source, .. } => Some(source),
            StoreError::WalVersion { .. }
            | StoreError::NoState
            | StoreError::BadRow { .. }
            | StoreError::BadValue { .. }
            | StoreError::Degraded { .. }
            | StoreError::Mismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_file_and_position() {
        let e = StoreError::Corrupt {
            file: "wal-000042.wal".into(),
            source: CodecError::Truncated { offset: 17 },
        };
        let s = e.to_string();
        assert!(s.contains("wal-000042.wal"), "{s}");
        assert!(s.contains("17"), "{s}");

        let e = StoreError::BadRow { got: 3, want: 2 };
        assert!(e.to_string().contains("3 values"));
    }
}
