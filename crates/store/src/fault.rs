//! Deterministic storage-fault injection.
//!
//! Recovery claims to survive torn writes, bit rot, and lost files; this
//! module is how that claim gets exercised. Two fault families live here:
//!
//! * **Corruption after the crash** — a [`FaultPlan`] is an explicit list
//!   of byte-level mutations applied to a dead store directory (the same
//!   faults a crashed disk or interrupted kernel write produces), and
//!   [`FaultInjector`] derives such plans from a seed, so every failing
//!   case in the property tests is replayable from its seed alone.
//! * **Failures during operation** — an [`IoFaults`] handle sits between
//!   the store and the filesystem and can make any write, fsync, or
//!   rename fail at a seeded step with `ENOSPC`, `EIO`, a torn write
//!   (a prefix lands, then the error), or a simulated process crash
//!   (that op and every later one fails). The live store must degrade
//!   gracefully under these — park the flush, keep ingesting on the WAL —
//!   and the crash-point property tests kill the store at every step of
//!   the flush schedule this way.

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::StoreError;

/// One storage fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Invert one bit — media bit rot, a misdirected write.
    FlipBit {
        /// File name within the store directory.
        file: String,
        /// Byte offset of the corrupted bit.
        byte: u64,
        /// Bit index 0–7 within that byte.
        bit: u8,
    },
    /// Cut the file to `keep` bytes — a torn write at the crash point.
    Truncate {
        /// File name within the store directory.
        file: String,
        /// Bytes that survive.
        keep: u64,
    },
    /// Remove the file entirely — lost during an unsynced rename.
    Delete {
        /// File name within the store directory.
        file: String,
    },
}

/// An ordered batch of faults to apply to a store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Apply every fault to `dir`. Faults against files that no longer
    /// exist (or offsets past the end) are no-ops: a plan describes what
    /// the adversary *attempts*, and a missing target is not a test
    /// failure.
    pub fn apply(&self, dir: &Path) -> Result<(), StoreError> {
        for fault in &self.faults {
            match fault {
                Fault::FlipBit { file, byte, bit } => {
                    let path = dir.join(file);
                    let Ok(mut f) = OpenOptions::new().read(true).write(true).open(&path) else {
                        continue;
                    };
                    let len = f
                        .metadata()
                        .map_err(StoreError::io("stat fault target"))?
                        .len();
                    if *byte >= len {
                        continue;
                    }
                    let mut b = [0u8];
                    f.seek(SeekFrom::Start(*byte))
                        .and_then(|_| f.read_exact(&mut b))
                        .map_err(StoreError::io("read fault target"))?;
                    b[0] ^= 1 << bit;
                    f.seek(SeekFrom::Start(*byte))
                        .and_then(|_| f.write_all(&b))
                        .map_err(StoreError::io("write fault target"))?;
                }
                Fault::Truncate { file, keep } => {
                    let path = dir.join(file);
                    let Ok(f) = OpenOptions::new().write(true).open(&path) else {
                        continue;
                    };
                    let len = f
                        .metadata()
                        .map_err(StoreError::io("stat fault target"))?
                        .len();
                    if *keep < len {
                        f.set_len(*keep)
                            .map_err(StoreError::io("truncate fault target"))?;
                    }
                }
                Fault::Delete { file } => {
                    let _ = fs::remove_file(dir.join(file));
                }
            }
        }
        Ok(())
    }
}

/// Seeded generator of [`FaultPlan`]s over the files actually present in
/// a store directory.
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// A generator whose whole output is a function of `seed`.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw a plan of up to `max_faults` faults aimed at the store files
    /// currently in `dir`. File choice, fault kind, and offsets are all
    /// taken from the seeded generator; directory listing order does not
    /// matter because targets are chosen from a sorted list.
    pub fn plan(&mut self, dir: &Path, max_faults: usize) -> Result<FaultPlan, StoreError> {
        let mut files: Vec<(String, u64)> = Vec::new();
        for entry in fs::read_dir(dir).map_err(StoreError::io("list store directory"))? {
            let entry = entry.map_err(StoreError::io("list store directory"))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if crate::manifest::classify(&name).is_some() {
                let len = entry
                    .metadata()
                    .map_err(StoreError::io("stat store file"))?
                    .len();
                files.push((name, len));
            }
        }
        files.sort();
        let mut plan = FaultPlan::default();
        if files.is_empty() || max_faults == 0 {
            return Ok(plan);
        }
        let n = self.rng.gen_range(1..=max_faults);
        for _ in 0..n {
            let (file, len) = files[self.rng.gen_range(0..files.len())].clone();
            let fault = match self.rng.gen_range(0..6u32) {
                // Bias toward bit flips: they are the subtlest fault.
                0..=2 => Fault::FlipBit {
                    file,
                    byte: self.rng.gen_range(0..len.max(1)),
                    bit: self.rng.gen_range(0..8u32) as u8,
                },
                3..=4 => Fault::Truncate {
                    file,
                    keep: self.rng.gen_range(0..len.max(1)),
                },
                _ => Fault::Delete { file },
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }
}

/// What kind of filesystem operation is about to run (the unit the
/// step counter of [`IoFaults`] counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A data write (`write_all`).
    Write,
    /// An `fsync` (file or directory).
    Sync,
    /// An atomic rename.
    Rename,
}

/// How an injected operation-level fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The disk is full: the op fails with `ENOSPC`, nothing written.
    Enospc,
    /// A media error: the op fails with `EIO`, nothing written.
    Eio,
    /// A torn write: roughly `keep_permille`/1000 of the bytes land,
    /// then the op fails with `EIO`. Only meaningful for writes; on
    /// sync/rename it behaves like [`IoFaultKind::Eio`].
    Torn {
        /// Fraction of the buffer that survives, in permille.
        keep_permille: u16,
    },
    /// A simulated process kill at this step: the op fails (writes land
    /// a torn prefix first) and **every subsequent op fails too** — the
    /// process is dead, only the files remain.
    Crash,
}

/// One operation-level fault: at global step `step`, the op fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// Which op (0-based, in execution order within this fault domain).
    pub step: u64,
    /// How it fails.
    pub kind: IoFaultKind,
}

/// A seeded schedule of operation-level faults for one fault domain.
///
/// The store keeps two independent domains — the foreground WAL path and
/// the background flush path — each with its own step counter,
/// so a plan aimed at "flush step 7" is deterministic regardless of how
/// the two threads interleave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoFaultPlan {
    /// Faults, ascending by step.
    pub faults: Vec<IoFault>,
}

impl IoFaultPlan {
    /// A single fault at `step`.
    pub fn at(step: u64, kind: IoFaultKind) -> IoFaultPlan {
        IoFaultPlan {
            faults: vec![IoFault { step, kind }],
        }
    }

    /// Draw up to `max_faults` faults over the step range `0..horizon`
    /// from a seed. Crash faults are excluded — a crash schedule is a
    /// different experiment (use [`IoFaultPlan::at`] with
    /// [`IoFaultKind::Crash`] per crash point).
    pub fn seeded(seed: u64, horizon: u64, max_faults: usize) -> IoFaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        if horizon == 0 || max_faults == 0 {
            return IoFaultPlan { faults };
        }
        let n = rng.gen_range(1..=max_faults);
        for _ in 0..n {
            let kind = match rng.gen_range(0..3u32) {
                0 => IoFaultKind::Enospc,
                1 => IoFaultKind::Eio,
                _ => IoFaultKind::Torn {
                    keep_permille: rng.gen_range(0..1000u32) as u16,
                },
            };
            faults.push(IoFault {
                step: rng.gen_range(0..horizon),
                kind,
            });
        }
        faults.sort_by_key(|f| f.step);
        IoFaultPlan { faults }
    }
}

/// A shared handle adjudicating every store filesystem op in one fault
/// domain. [`IoFaults::none`] (the production configuration) never
/// injects and costs one relaxed atomic increment per op.
#[derive(Debug)]
pub struct IoFaults {
    step: AtomicU64,
    dead: AtomicBool,
    faults: Vec<IoFault>,
}

impl IoFaults {
    /// A domain that never injects faults.
    pub fn none() -> Arc<IoFaults> {
        Arc::new(IoFaults {
            step: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            faults: Vec::new(),
        })
    }

    /// A domain driven by `plan`.
    pub fn with_plan(plan: IoFaultPlan) -> Arc<IoFaults> {
        let mut faults = plan.faults;
        faults.sort_by_key(|f| f.step);
        Arc::new(IoFaults {
            step: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            faults,
        })
    }

    /// Ops adjudicated so far — run a workload against a fault-free
    /// domain first to learn the horizon of its schedule.
    pub fn steps(&self) -> u64 {
        self.step.load(Ordering::Relaxed)
    }

    /// Whether a [`IoFaultKind::Crash`] has fired (or [`IoFaults::kill`]
    /// was called): every op fails from here on.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Kill the domain directly — the process-death simulation hook for
    /// crash tests that do not target a specific step.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Adjudicate the next op: `None` means proceed normally. The op
    /// kind is informational (steps count every op); `Crash` flips the
    /// domain dead.
    pub fn check(&self, _op: IoOp) -> Option<IoFaultKind> {
        let s = self.step.fetch_add(1, Ordering::Relaxed);
        if self.dead.load(Ordering::Relaxed) {
            return Some(IoFaultKind::Eio);
        }
        // Sorted by step, at most a handful of entries: linear scan.
        let hit = self.faults.iter().find(|f| f.step == s)?;
        if matches!(hit.kind, IoFaultKind::Crash) {
            self.dead.store(true, Ordering::Relaxed);
        }
        Some(hit.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swat-fault-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn faults_mutate_exactly_as_described() {
        let dir = tmp("apply");
        fs::write(dir.join("wal-00000000000000000000.wal"), [0u8; 16]).unwrap();
        FaultPlan {
            faults: vec![
                Fault::FlipBit {
                    file: "wal-00000000000000000000.wal".into(),
                    byte: 3,
                    bit: 5,
                },
                Fault::Truncate {
                    file: "wal-00000000000000000000.wal".into(),
                    keep: 7,
                },
                Fault::Delete {
                    file: "missing.ckpt".into(),
                },
            ],
        }
        .apply(&dir)
        .unwrap();
        let bytes = fs::read(dir.join("wal-00000000000000000000.wal")).unwrap();
        assert_eq!(bytes.len(), 7);
        assert_eq!(bytes[3], 1 << 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let dir = tmp("seeded");
        fs::write(dir.join("ckpt-00000000000000000010.ckpt"), [1u8; 64]).unwrap();
        fs::write(dir.join("wal-00000000000000000010.wal"), [2u8; 128]).unwrap();
        let a = FaultInjector::new(0xF00D).plan(&dir, 5).unwrap();
        let b = FaultInjector::new(0xF00D).plan(&dir, 5).unwrap();
        let c = FaultInjector::new(0xBEEF).plan(&dir, 5).unwrap();
        assert_eq!(a, b);
        assert!(!a.faults.is_empty());
        let _ = c; // different seed may or may not coincide; only a == b is contractual
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_faults_fire_at_their_step_and_crash_goes_dead() {
        let f = IoFaults::with_plan(IoFaultPlan {
            faults: vec![
                IoFault {
                    step: 1,
                    kind: IoFaultKind::Enospc,
                },
                IoFault {
                    step: 3,
                    kind: IoFaultKind::Crash,
                },
            ],
        });
        assert_eq!(f.check(IoOp::Write), None);
        assert_eq!(f.check(IoOp::Write), Some(IoFaultKind::Enospc));
        assert_eq!(f.check(IoOp::Sync), None);
        assert!(!f.is_dead());
        assert_eq!(f.check(IoOp::Rename), Some(IoFaultKind::Crash));
        assert!(f.is_dead());
        // Dead: every later op fails regardless of the plan.
        assert_eq!(f.check(IoOp::Write), Some(IoFaultKind::Eio));
        assert_eq!(f.steps(), 5);
    }

    #[test]
    fn io_plans_are_deterministic_in_the_seed() {
        let a = IoFaultPlan::seeded(42, 100, 4);
        let b = IoFaultPlan::seeded(42, 100, 4);
        assert_eq!(a, b);
        assert!(!a.faults.is_empty());
        assert!(a.faults.windows(2).all(|w| w[0].step <= w[1].step));
        assert!(a
            .faults
            .iter()
            .all(|f| !matches!(f.kind, IoFaultKind::Crash)));
    }
}
