//! `swat` — command-line interface to the SWAT stream summarizer.
//!
//! ```text
//! swat summarize --window 256 --file data.csv --point 0 --inner exp:32:10
//! swat simulate --scheme all --topology binary --depth 2 --window 64
//! swat generate --dataset weather --count 1000 --seed 7
//! swat chaos --drops 0,0.05,0.2 --delays 0,2 --depth 3
//! swat recover --dir /var/lib/swat/store
//! swat client --addr 127.0.0.1:7700 --ingest 1,2,3 --top-k 4 --status
//! swat repair-bench --quick --out results/BENCH_repair.json
//! swat failover-bench --quick --out results/BENCH_failover.json
//! swat help
//! ```

use std::process::ExitCode;
use swat_cli::{args, commands};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        commands::print_help();
        return ExitCode::SUCCESS;
    }
    let parsed = match args::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.switch("help") || parsed.command() == "help" {
        commands::print_help();
        return ExitCode::SUCCESS;
    }
    let result = match parsed.command() {
        "summarize" => commands::summarize(&parsed),
        "simulate" => commands::simulate(&parsed),
        "generate" => commands::generate(&parsed),
        "chaos" => commands::chaos(&parsed),
        "recover" => commands::recover(&parsed),
        "repair-bench" => commands::repair_bench(&parsed),
        "client" => swat_cli::daemon_cmd::client(&parsed),
        "failover-bench" => commands::failover_bench(&parsed),
        other => Err(format!("unknown command {other:?} (try `swat help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
