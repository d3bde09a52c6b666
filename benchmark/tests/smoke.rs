//! Schema and hygiene of the benchmark, on `--quick` shapes: what
//! `BENCHMARK.json` declares is what every run emits, exact counts repeat,
//! and nothing is left behind — not a directory, not a listening node.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swat_benchmark::json::Json;
use swat_benchmark::report::EXACT;
use swat_benchmark::stats::machine_cpus;
use swat_benchmark::wire::{Cluster, Shape, WorkDir, GENERATOR_THREADS};

/// The checkout root: the benchmark runs from there, as the driver runs it.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the checkout")
        .to_path_buf()
}

fn declared() -> Json {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .expect("declared key")
        .items()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::str).unwrap_or_default().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One quick run; its metrics as `name -> (value, unit)`, in a map that
/// would have refused a name emitted twice.
fn quick_run(workload: &str, trace: u8) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_swat-benchmark"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "3", "--quick"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success(), "{workload} exits 0");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the last stdout line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {line}"
    );
    assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
    assert!(result.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is an object");
    };
    // The parser keeps the last of two equal keys, so count them raw.
    for name in metrics.keys() {
        assert_eq!(
            line.matches(&format!("\"{name}\":")).count(),
            1,
            "{name} once"
        );
    }
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::num).expect("a value");
            let unit = m.get("unit").and_then(Json::str).expect("a unit");
            (name.clone(), (value, unit.to_owned()))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_once_by_every_workload_and_counts_repeat() {
    let bench = declared();
    let workloads = names(&bench, "workloads");
    assert_eq!(workloads.len(), 4);
    for (key, trace) in [("end_to_end", 0), ("per_layer", 1)] {
        let want = names(&bench, key);
        for (workload, _) in &workloads {
            let got = quick_run(workload, trace);
            let got_names: Vec<&String> = got.keys().collect();
            let mut want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
            want_names.sort();
            assert_eq!(got_names, want_names, "{workload} {key}");
            for (name, unit) in &want {
                let (value, got_unit) = &got[name];
                assert_eq!(got_unit, unit, "{name}");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                if key == "end_to_end" {
                    assert!(*value > 0.0, "{workload} {name} must never read 0");
                }
            }
            if trace == 1 {
                // The same seed and length again: the exact counts are
                // exact.
                let again = quick_run(workload, trace);
                for name in EXACT {
                    assert_eq!(
                        got[name].0.to_bits(),
                        again[name].0.to_bits(),
                        "{workload} {name}"
                    );
                }
            }
        }
    }
    let work = root().join("benchmark/work");
    assert!(
        !work.exists(),
        "scratch directories are gone after the runs"
    );
}

#[test]
fn a_run_that_fails_leaves_no_directory_and_no_node_behind() {
    static ADDRS: Mutex<Vec<SocketAddr>> = Mutex::new(Vec::new());
    let work_root = root().join(format!("benchmark/work-smoke-{}", std::process::id()));
    let shape = Shape {
        streams: 8,
        shards: 2,
        window: 16,
    };
    let scratch = work_root.clone();
    let failed = std::panic::catch_unwind(move || {
        let dir = WorkDir::create(&scratch, "doomed").expect("work directory");
        let cluster = Cluster::start(&shape, dir.path()).expect("cluster comes up");
        ADDRS
            .lock()
            .expect("no panic yet")
            .extend_from_slice(cluster.addrs());
        assert!(
            dir.path().join("node-1").exists(),
            "replicas have durable directories"
        );
        panic!("the workload fails here");
    });
    assert!(failed.is_err());
    let left: Vec<_> = std::fs::read_dir(&work_root)
        .into_iter()
        .flatten()
        .flatten()
        .collect();
    assert!(left.is_empty(), "scratch removed on unwind: {left:?}");
    let _ = std::fs::remove_dir(&work_root);
    // Every node was stopped and joined on unwind: nothing listens.
    let deadline = Instant::now() + Duration::from_secs(2);
    for addr in ADDRS.lock().expect("the panic was outside the lock").iter() {
        while TcpStream::connect_timeout(addr, Duration::from_millis(200)).is_ok() {
            assert!(
                Instant::now() < deadline,
                "{addr} still accepts connections"
            );
        }
    }
}

#[test]
fn load_comes_from_at_most_nproc_generator_threads() {
    assert!(GENERATOR_THREADS <= machine_cpus().max(2));
    assert_eq!(
        GENERATOR_THREADS, 2,
        "one open-loop writer, one closed-loop reader"
    );
}
