//! The `all` report, its result file, and `agree`, which holds two result
//! files against the bounds `BENCHMARK.json` fixes.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::stats::{median, spread};
use crate::workloads::{Outcome, WORKLOADS};

/// Per-layer counts that must repeat exactly for a given seed and length.
/// `alloc.bytes_per_op` is not among them: the durable replicas size some
/// buffers by how far their background flush has got, so the bytes asked
/// for differ from run to run while the number of allocations does not.
pub const EXACT: [&str; 5] = [
    "proto.bytes_per_op",
    "proto.frames_per_op",
    "cluster.legs_per_op",
    "alloc.count_per_op",
    "store.wal_bytes_per_row",
];

/// Every metric by name with its unit, after the diagnostics that are
/// not metrics.
pub fn render(workload: &str, out: &Outcome) -> String {
    let mut text = format!(
        "{workload}: attempted {} failed {} wrong_answers {}\n",
        out.tally.attempted, out.tally.failed, out.tally.wrong
    );
    for note in &out.notes {
        let _ = writeln!(text, "  {note}");
    }
    for m in &out.metrics {
        let _ = writeln!(text, "  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    text
}

fn obj(fields: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(fields.into_iter().collect())
}

/// What `all` was asked to do.
pub struct AllArgs<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Result sets to run, one after another; set `i` uses seed `seed + i`.
    pub repeat: usize,
    /// Add the sets to those already in `out` instead of replacing them:
    /// two files filled in turns hold runs interleaved in time.
    pub append: bool,
    pub out: &'a Path,
}

/// One run in a process of its own, exactly as the driver starts it, so
/// that `all` measures what the driver measures: a fresh heap (and a fresh
/// `VmHWM`) for every workload. The child prints its report on stderr,
/// which is passed through; its result line is returned parsed.
fn one_run(workload: &str, seed: u64, args: &AllArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .stderr(Stdio::inherit());
    let out = child.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload}: the run exited with {}", out.status));
    }
    Json::parse(line).map_err(|e| format!("{workload}: no result line ({e})"))
}

/// `all`: every workload, untraced for the end-to-end metrics and traced
/// for the per-layer ones, every metric printed by name with its unit.
pub fn run_all(args: &AllArgs) -> Result<bool, String> {
    let mut sets = match args.append && args.out.exists() {
        true => load(args.out)?
            .get("sets")
            .map(Json::items)
            .unwrap_or_default()
            .to_vec(),
        false => Vec::new(),
    };
    let mut all_correct = true;
    for seed in (args.seed..).take(args.repeat) {
        let mut workloads_done = Vec::new();
        for workload in WORKLOADS {
            let mut passes = Vec::new();
            for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
                eprintln!("--- {workload} [{key}, seed {seed}]");
                let result = one_run(workload, seed, args, trace)?;
                all_correct &= result.get("correct") == Some(&Json::Bool(true));
                passes.push((key.to_owned(), result));
            }
            workloads_done.push((workload.to_owned(), obj(passes)));
        }
        sets.push(obj(workloads_done));
    }
    let file = obj([
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("quick".to_owned(), Json::Bool(args.quick)),
        (
            "nproc".to_owned(),
            Json::Num(crate::stats::machine_cpus() as f64),
        ),
        (
            "cpus_allowed".to_owned(),
            Json::Num(crate::stats::nproc() as f64),
        ),
        ("sets".to_owned(), Json::Arr(sets)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(args.out, format!("{file}\n"))
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    eprintln!(
        "results written to {}; {}",
        args.out.display(),
        if all_correct {
            "every answer correct, no op failed"
        } else {
            "WRONG ANSWERS OR FAILED OPS"
        }
    );
    Ok(all_correct)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric's value in every set of a result file.
fn values(file: &Json, workload: &str, pass: &str, metric: &str) -> Vec<f64> {
    file.get("sets")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| {
            set.get(workload)?
                .get(pass)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .num()
        })
        .collect()
}

/// `agree A.json B.json`: for every workload and end-to-end metric, the
/// medians of the two files may differ by no more than the metric's
/// bound, in either direction; the exact counts must be equal in every
/// set of both; and neither file may hold a wrong answer.
pub fn agree(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let bench = load(Path::new("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    let mut table = String::new();
    for w in bench.get("workloads").map(Json::items).unwrap_or_default() {
        let workload = w
            .get("name")
            .and_then(Json::str)
            .ok_or("workload without a name")?;
        for m in bench.get("end_to_end").map(Json::items).unwrap_or_default() {
            let name = m
                .get("name")
                .and_then(Json::str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::num)
                .ok_or("metric without a bound")?;
            let (va, vb) = (
                values(&a, workload, "end_to_end", name),
                values(&b, workload, "end_to_end", name),
            );
            if va.is_empty() || vb.is_empty() {
                ok = false;
                let _ = writeln!(table, "{workload:<12} {name:<16} MISSING");
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let apart = (ma - mb).abs() / ma.abs().min(mb.abs()).max(f64::MIN_POSITIVE);
            let within = apart <= bound;
            ok &= within;
            let _ = writeln!(
                table,
                "{workload:<12} {name:<16} A {ma:>14.3} B {mb:>14.3} apart {:>6.1} % bound {:>4.0} % spread A {:>5.1} % B {:>5.1} % {}",
                apart * 100.0,
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                if within { "ok" } else { "VIOLATION" }
            );
        }
        for name in EXACT {
            // Set i of both files ran the same seed, so it did the same
            // work: these counts must be equal, not merely close.
            let (va, vb) = (
                values(&a, workload, "per_layer", name),
                values(&b, workload, "per_layer", name),
            );
            let same = !va.is_empty()
                && va.len() == vb.len()
                && va.iter().zip(&vb).all(|(x, y)| x.to_bits() == y.to_bits());
            ok &= same;
            let _ = writeln!(
                table,
                "{workload:<12} {name:<24} {} {}",
                va.first().map_or("missing".to_owned(), |v| v.to_string()),
                if same { "= set by set" } else { "DIFFERS" }
            );
        }
        for (label, file) in [("A", &a), ("B", &b)] {
            for pass in ["end_to_end", "per_layer"] {
                let clean = file
                    .get("sets")
                    .map(Json::items)
                    .unwrap_or_default()
                    .iter()
                    .all(|s| {
                        s.get(workload).and_then(|w| w.get(pass)?.get("correct"))
                            == Some(&Json::Bool(true))
                    });
                if !clean {
                    ok = false;
                    let _ = writeln!(table, "{workload:<12} {label} {pass}: NOT CORRECT");
                }
            }
        }
    }
    print!("{table}");
    println!("{}", if ok { "agree" } else { "DISAGREE" });
    Ok(ok)
}
