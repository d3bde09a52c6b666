//! `swat-benchmark`: one benchmark for the whole acked-row path.
//!
//! ```text
//! swat-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run, as `BENCHMARK.json`'s command starts it: diagnostics on
//!     stderr, and as the last line of stdout one JSON object
//!     {"correct", "attempted", "failed", "metrics"}.
//! swat-benchmark all [--seed n] [--seconds s] [--repeat r] [--out file [--append]] [--quick]
//!     Every workload, untraced then traced, every metric printed by name
//!     with its unit; exits 1 on a wrong answer or a failed op.
//! swat-benchmark agree A.json B.json
//!     Compare two result files of `all` against BENCHMARK.json's bounds.
//! ```
//!
//! `benchmark/README.md` says what the workloads and metrics are for.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use swat_benchmark::{alloc, report, workloads};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--name value` anywhere on the command line.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let results = PathBuf::from("benchmark/results");
    let quick = args.iter().any(|a| a == "--quick");
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(if quick {
        0.5
    } else {
        workloads::NOMINAL_SECONDS
    });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    match args.first().map(String::as_str) {
        Some("all") => {
            let out: PathBuf = flag(args, "--out")?.unwrap_or_else(|| results.join("results.json"));
            report::run_all(&report::AllArgs {
                seed,
                seconds,
                quick,
                repeat: flag(args, "--repeat")?.unwrap_or(1).max(1),
                append: args.iter().any(|a| a == "--append"),
                out: &out,
            })
        }
        Some("agree") => match args {
            [_, a, b] => report::agree(Path::new(a), Path::new(b)),
            _ => Err("usage: agree A.json B.json".to_owned()),
        },
        _ => {
            let workload: String = flag(args, "--workload")?.ok_or("--workload is required")?;
            let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
            let out = workloads::run(&workload, seed, seconds, trace == 1, quick, &results)
                .ok_or_else(|| format!("unknown workload {workload}"))?;
            // Stdout carries the result line and nothing else.
            eprint!("{}", report::render(&workload, &out));
            println!("{}", out.result_line());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("swat-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
