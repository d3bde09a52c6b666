//! The `swat` binary's command list, checked where it is spelled: the
//! `USAGE` block of `swat help`, the dispatch `match` in `main.rs`, and
//! the binary's behaviour. The six benchmark subcommands `benchmark/`
//! superseded must be gone from all three.

use std::collections::BTreeSet;
use std::process::{Command, Output};

const REMOVED: [&str; 6] = [
    "ingest-bench",
    "query-bench",
    "recovery-bench",
    "store-bench",
    "scale-bench",
    "daemon-bench",
];

fn swat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swat"))
        .args(args)
        .output()
        .expect("the swat binary runs")
}

/// Commands named under `USAGE` in `swat help` (lines `  swat <name> …`
/// up to the first blank line).
fn usage_commands() -> BTreeSet<String> {
    let out = swat(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    text.lines()
        .skip_while(|l| l.trim() != "USAGE")
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let mut words = l.split_whitespace();
            assert_eq!(words.next(), Some("swat"), "usage line {l:?}");
            words.next().expect("a command name").to_owned()
        })
        .collect()
}

/// String-literal arms of `main.rs`'s dispatch (`"name" => …`), plus
/// `help`, which `main` answers before the `match`.
fn dispatched_commands() -> BTreeSet<String> {
    let arms = include_str!("../src/main.rs").lines().filter_map(|l| {
        let (name, _) = l.trim().strip_prefix('"')?.split_once("\" =>")?;
        Some(name.to_owned())
    });
    arms.chain(["help".to_owned()]).collect()
}

#[test]
fn superseded_bench_commands_are_unknown() {
    for cmd in REMOVED {
        let out = swat(&[cmd, "--quick"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{cmd} still runs");
        assert!(stderr.contains("unknown command"), "{cmd}: {stderr}");
    }
}

#[test]
fn help_and_dispatch_name_the_same_commands() {
    let usage = usage_commands();
    assert_eq!(usage, dispatched_commands());
    let want = [
        "summarize",
        "simulate",
        "generate",
        "chaos",
        "recover",
        "client",
        "repair-bench",
        "failover-bench",
        "help",
    ];
    assert_eq!(usage, want.iter().map(|s| s.to_string()).collect());
    // The list in the source is the list the binary obeys: an unparsable
    // seed stops every command before it does any work, and none of them
    // may answer "unknown command".
    for cmd in usage.iter().filter(|c| *c != "help") {
        let out = swat(&[cmd, "--seed", "x"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{cmd} accepted --seed x");
        assert!(!stderr.contains("unknown command"), "{cmd}: {stderr}");
    }
}
