//! One typed printer for file-system failures.
//!
//! Every CLI operation that touches a path — reading a CSV, writing a
//! bench artifact, recovering a store directory, writing a port file —
//! routes its error through [`PathError`], so the user always sees
//! *which* path failed and *what* the tool was doing to it, in one
//! consistent shape:
//!
//! ```text
//! error: writing results/BENCH_chaos.json: permission denied
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// A file-system failure tied to the offending path.
#[derive(Debug)]
pub struct PathError {
    op: &'static str,
    path: PathBuf,
    source: String,
}

impl PathError {
    /// A failure while performing `op` on `path`.
    pub fn new(op: &'static str, path: impl AsRef<Path>, source: impl fmt::Display) -> Self {
        PathError {
            op,
            path: path.as_ref().to_path_buf(),
            source: source.to_string(),
        }
    }

    /// A read failure.
    pub fn reading(path: impl AsRef<Path>, source: impl fmt::Display) -> Self {
        Self::new("reading", path, source)
    }

    /// A write failure.
    pub fn writing(path: impl AsRef<Path>, source: impl fmt::Display) -> Self {
        Self::new("writing", path, source)
    }

    /// A directory-creation failure.
    pub fn creating(path: impl AsRef<Path>, source: impl fmt::Display) -> Self {
        Self::new("creating", path, source)
    }

    /// A store-recovery failure.
    pub fn recovering(path: impl AsRef<Path>, source: impl fmt::Display) -> Self {
        Self::new("recovering", path, source)
    }

    /// The offending path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for PathError {}

impl From<PathError> for String {
    fn from(e: PathError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_names_the_operation_and_path() {
        let e = PathError::writing("results/out.json", "permission denied");
        assert_eq!(e.to_string(), "writing results/out.json: permission denied");
        assert_eq!(e.path(), Path::new("results/out.json"));
        let as_string: String = PathError::reading("data.csv", "no such file").into();
        assert_eq!(as_string, "reading data.csv: no such file");
    }
}
