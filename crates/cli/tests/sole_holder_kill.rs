//! A sole holder's ack survives SIGKILL: a real `swatd` replica with
//! `--dir` and no standby (the legacy two-node deployment `check.sh`'s
//! daemon smoke runs) acks rows through `swat client`, is killed with
//! SIGKILL — no drain, no checkpoint, no destructor — and `swat recover`
//! on its directory must come back with exactly the acked rows.
//!
//! The replica is its shard's only holder, so the WAL record is the only
//! copy of an acked row beyond the process; it must have reached the
//! kernel before the ack left.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use swat_tree::{StreamSet, SwatConfig};

const STREAMS: usize = 4;
const WINDOW: usize = 16;
const ROWS: usize = 20;

/// A spawned `swatd`, SIGKILLed when dropped (a failing test leaves no
/// daemon behind).
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `swatd` with `args` and wait for the address it writes to
/// `port_file`.
fn swatd(args: &[&str], port_file: &Path) -> (Daemon, String) {
    let child = Command::new(env!("CARGO_BIN_EXE_swatd"))
        .args(args)
        .arg("--port-file")
        .arg(port_file)
        .stdout(Stdio::null())
        .spawn()
        .expect("swatd starts");
    let daemon = Daemon(child);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            if addr.ends_with('\n') {
                return (daemon, addr.trim().to_owned());
            }
        }
        assert!(Instant::now() < deadline, "swatd never wrote {port_file:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn swat(args: &[String]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_swat"))
        .args(args)
        .output()
        .expect("swat runs");
    assert!(
        out.status.success(),
        "swat {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn row(r: usize) -> Vec<f64> {
    (0..STREAMS)
        .map(|s| ((r * 7 + s * 3) % 11) as f64 - 5.0)
        .collect()
}

#[test]
fn a_sigkilled_sole_holder_recovers_every_acked_row() {
    let dir: PathBuf = std::env::temp_dir().join(format!("swat-sole-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let shape = [
        "--shards",
        "1",
        "--streams",
        "4",
        "--window",
        "16",
        "--listen",
        "127.0.0.1:0",
    ];
    let store_arg = store.to_string_lossy().into_owned();
    let replica_args: Vec<&str> = ["--role", "replica", "--shard", "0", "--dir", &store_arg]
        .into_iter()
        .chain(shape)
        .collect();
    let (mut replica, replica_addr) = swatd(&replica_args, &dir.join("replica.addr"));
    let leader_args: Vec<&str> = ["--role", "leader", "--replica", &replica_addr]
        .into_iter()
        .chain(shape)
        .collect();
    let (leader, leader_addr) = swatd(&leader_args, &dir.join("leader.addr"));

    let mut client = vec!["client".to_owned(), "--addr".to_owned(), leader_addr];
    for r in 0..ROWS {
        let values: Vec<String> = row(r).iter().map(f64::to_string).collect();
        client.extend(["--ingest".to_owned(), values.join(",")]);
    }
    let acks = String::from_utf8(swat(&client).stdout).unwrap();
    for r in 0..ROWS {
        assert!(
            acks.contains(&format!("applied req_id={r} duplicate=false")),
            "row {r} was not acked:\n{acks}"
        );
    }

    // SIGKILL: whatever the process still buffered is gone.
    replica.0.kill().unwrap();
    replica.0.wait().unwrap();
    drop(leader);

    let report =
        String::from_utf8(swat(&["recover".to_owned(), "--dir".to_owned(), store_arg]).stdout)
            .unwrap();
    let mut twin = StreamSet::new(SwatConfig::with_coefficients(WINDOW, 4).unwrap(), STREAMS);
    for r in 0..ROWS {
        twin.push_row(&row(r));
    }
    assert!(
        report.contains(&format!("recovered arrivals:   {ROWS}\n")),
        "{report}"
    );
    assert!(
        report.contains(&format!(
            "answers digest:       {:016x}\n",
            twin.answers_digest()
        )),
        "the recovered trees are not the acked prefix:\n{report}"
    );
    drop(replica);
    let _ = std::fs::remove_dir_all(&dir);
}
