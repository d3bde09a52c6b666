//! Every holding — standby or primary, in memory or durable — holds the
//! rows it acks and applies them in clock-aligned tiles (`ROW_TILE`),
//! and before anything reads its trees. That must be invisible:
//!
//! * a standby fed any number of rows — from a fresh set or from an
//!   installation at an unaligned clock — then promoted and fed more rows
//!   as a primary, answers bit-identically to a twin that was a primary
//!   all along;
//! * a primary read at any residue of its clock mod 64, fed more rows,
//!   then exported and installed elsewhere, answers — on both nodes —
//!   byte for byte as trees built one `push_row` at a time.

use std::path::PathBuf;

use swat_daemon::{encode_response, ClusterNode, Request, Response};
use swat_tree::{StreamSet, SwatConfig};

const STREAMS: usize = 10;
const SHARDS: usize = 2;
/// The shard under test: node 2's primary, node 1's ring standby.
const SHARD: u32 = 1;

fn row(r: u64, width: usize) -> Vec<f64> {
    (0..width)
        .map(|i| ((r as usize * 7 + i * 5) % 23) as f64 - 11.0)
        .collect()
}

fn fenced(epoch: u64, inner: Request) -> Request {
    Request::Fenced {
        term: 0,
        leader: 0,
        shard: SHARD,
        epoch,
        inner: Box::new(inner),
    }
}

fn ingest(node: &mut ClusterNode, epoch: u64, req_id: u64) -> Response {
    let width = node.shard_members_of(SHARD as usize).len();
    node.handle(&fenced(
        epoch,
        Request::Ingest {
            req_id,
            row: row(req_id, width),
        },
    ))
}

fn replicate(node: &mut ClusterNode, epoch: u64, req_id: u64, row: Vec<f64>) -> Response {
    node.handle(&Request::Replicate {
        term: 0,
        shard: SHARD,
        epoch,
        req_id,
        row,
    })
}

fn acked(resp: &Response, duplicate: bool) -> bool {
    matches!(resp, Response::IngestOk { duplicate: d, .. } if *d == duplicate)
}

/// Every answer the shard's primary gives, as encoded bytes: each
/// member stream at each window index (typed errors included), then the
/// shard's local top-3.
fn answers(node: &mut ClusterNode, epoch: u64, window: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for g in node.shard_members_of(SHARD as usize) {
        for index in 0..window as u32 {
            let point = Request::Point {
                stream: g as u64,
                index,
            };
            out.push(encode_response(&node.handle(&fenced(epoch, point))));
        }
    }
    let top = fenced(epoch, Request::LocalTopK { k: 3 });
    out.push(encode_response(&node.handle(&top)));
    out
}

/// Install `snapshot` as node 1's holding of the shard at epoch 1 and
/// promote it there.
fn install(config: SwatConfig, arrivals: u64, applied: Vec<u64>, snapshot: Vec<u8>) -> ClusterNode {
    let mut node = ClusterNode::replica(1, config, STREAMS, SHARDS, 2, false);
    let installed = node.handle(&Request::InstallShard {
        term: 0,
        shard: SHARD,
        epoch: 1,
        arrivals,
        applied,
        snapshot,
    });
    let promoted = node.handle(&Request::Promote {
        term: 0,
        shard: SHARD,
        epoch: 1,
    });
    let ack = Response::EpochAck {
        shard: SHARD,
        epoch: 1,
    };
    assert_eq!((&installed, &promoted), (&ack, &ack));
    node
}

/// A primary serving `set`'s trees as they are — built row by row, and
/// holding nothing: the oracle, answering through the shipped handlers
/// at epoch 1.
fn oracle(config: SwatConfig, set: &StreamSet) -> ClusterNode {
    let arrivals = set.arrivals();
    install(config, arrivals, (0..arrivals).collect(), set.snapshot())
}

/// Feed a standby `k` rows by `Replicate` — a ring standby from clock 0,
/// or one installed from the twin at clock `installed_at` — promote it,
/// feed 100 more rows as a primary, and compare with the twin.
fn promote_after(config: SwatConfig, installed_at: Option<u64>, k: u64) {
    let ctx = format!(
        "window {} installed {installed_at:?} k {k}",
        config.window()
    );
    let mut twin = ClusterNode::replica(2, config, STREAMS, SHARDS, 2, false);
    let width = twin.shard_members_of(SHARD as usize).len();
    let start = installed_at.unwrap_or(0);
    for r in 0..start {
        assert!(acked(&ingest(&mut twin, 0, r), false), "{ctx}");
    }
    let (mut standby, epoch) = match installed_at {
        None => (ClusterNode::replica(1, config, STREAMS, SHARDS, 2, true), 0),
        Some(_) => {
            let Response::ShardStateR {
                arrivals,
                applied,
                snapshot,
                ..
            } = twin.handle(&Request::FetchShard {
                term: 0,
                shard: SHARD,
            })
            else {
                panic!("{ctx}: the twin exports its shard");
            };
            let mut joiner = ClusterNode::replica(1, config, STREAMS, SHARDS, 2, false);
            let installed = joiner.handle(&Request::InstallShard {
                term: 0,
                shard: SHARD,
                epoch: 1,
                arrivals,
                applied,
                snapshot,
            });
            assert_eq!(
                installed,
                Response::EpochAck {
                    shard: SHARD,
                    epoch: 1
                },
                "{ctx}"
            );
            (joiner, 1)
        }
    };
    for r in start..start + k {
        let resp = replicate(&mut standby, epoch, r, row(r, width));
        assert!(acked(&resp, false), "{ctx}: row {r} got {resp:?}");
        assert!(acked(&ingest(&mut twin, 0, r), false), "{ctx}");
    }
    let promote = Request::Promote {
        term: 0,
        shard: SHARD,
        epoch: epoch + 1,
    };
    assert_eq!(
        standby.handle(&promote),
        Response::EpochAck {
            shard: SHARD,
            epoch: epoch + 1
        },
        "{ctx}"
    );
    for r in start + k..start + k + 100 {
        assert!(acked(&ingest(&mut standby, epoch + 1, r), false), "{ctx}");
        assert!(acked(&ingest(&mut twin, 0, r), false), "{ctx}");
    }
    assert_eq!(
        standby.holding_digest(SHARD as usize),
        twin.holding_digest(SHARD as usize),
        "{ctx}"
    );
    assert!(
        answers(&mut standby, epoch + 1, config.window()) == answers(&mut twin, 0, config.window()),
        "{ctx}: point answers differ"
    );
}

#[test]
fn a_promoted_standby_answers_like_a_row_by_row_twin() {
    // Every residue of the clock mod 64 at promotion, more than two
    // tiles deep; windows shorter and longer than a tile.
    for window in [16, 128] {
        let config = SwatConfig::with_coefficients(window, 4).expect("static config");
        for installed_at in [None, Some(37)] {
            for k in 0..=130 {
                promote_after(config, installed_at, k);
            }
        }
    }
}

#[test]
fn a_duplicate_inside_an_unflushed_tile_is_applied_once() {
    let config = SwatConfig::with_coefficients(16, 4).expect("static config");
    let mut standby = ClusterNode::replica(1, config, STREAMS, SHARDS, 2, true);
    let mut twin = ClusterNode::replica(2, config, STREAMS, SHARDS, 2, false);
    let width = twin.shard_members_of(SHARD as usize).len();
    for r in 0..70 {
        assert!(acked(&replicate(&mut standby, 0, r, row(r, width)), false));
        assert!(acked(&ingest(&mut twin, 0, r), false));
        if r == 20 {
            // Id 7 is held, not applied: a retry (even one carrying a
            // different row) re-acks and adds nothing.
            let retry = replicate(&mut standby, 0, 7, row(99, width));
            assert!(acked(&retry, true), "{retry:?}");
        }
    }
    // And after the tile holding it was applied at clock 64.
    assert!(acked(&replicate(&mut standby, 0, 7, row(7, width)), true));
    assert_eq!(
        standby.handle(&Request::Promote {
            term: 0,
            shard: SHARD,
            epoch: 1
        }),
        Response::EpochAck {
            shard: SHARD,
            epoch: 1
        }
    );
    assert_eq!(
        standby.holding_digest(SHARD as usize),
        twin.holding_digest(SHARD as usize)
    );
    assert_eq!(answers(&mut standby, 1, 16), answers(&mut twin, 0, 16));
}

/// Feed shard 1's primary (node 2, in memory or durable under `dir`) `k`
/// rows, read it once, feed it 100 more, export it to node 1 and compare
/// both with the row-by-row twin.
fn primary_against_rows(config: SwatConfig, dir: Option<PathBuf>, k: u64) {
    let window = config.window();
    let ctx = format!("window {window} durable {} k {k}", dir.is_some());
    let mut node = match &dir {
        None => ClusterNode::replica(2, config, STREAMS, SHARDS, 2, false),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            ClusterNode::durable_replica(2, config, STREAMS, SHARDS, 2, false, dir.clone())
                .expect("a fresh directory takes a store")
        }
    };
    let members = node.shard_members_of(SHARD as usize);
    let mut twin = StreamSet::new(config, members.len());
    let feed = |node: &mut ClusterNode, twin: &mut StreamSet, rows: std::ops::Range<u64>| {
        for r in rows {
            assert!(acked(&ingest(node, 0, r), false), "{ctx}: row {r}");
            twin.push_row(&row(r, members.len()));
        }
    };
    feed(&mut node, &mut twin, 0..k);
    // One read with k mod 64 rows held: the tile settles partway.
    let read = if k.is_multiple_of(2) {
        Request::Point {
            stream: members[k as usize % members.len()] as u64,
            index: (k as usize % window) as u32,
        }
    } else {
        Request::LocalTopK { k: 3 }
    };
    assert_eq!(
        encode_response(&node.handle(&fenced(0, read.clone()))),
        encode_response(&oracle(config, &twin).handle(&fenced(1, read))),
        "{ctx}: the read"
    );
    // Tiles after an unaligned settle, then the export/install round trip.
    feed(&mut node, &mut twin, k..k + 100);
    let Response::ShardStateR {
        arrivals,
        applied,
        snapshot,
        ..
    } = node.handle(&Request::FetchShard {
        term: 0,
        shard: SHARD,
    })
    else {
        panic!("{ctx}: the primary exports its shard");
    };
    assert_eq!(arrivals, k + 100, "{ctx}");
    let mut joiner = install(config, arrivals, applied, snapshot);
    let want = Some(twin.answers_digest());
    assert_eq!(node.holding_digest(SHARD as usize), want, "{ctx}");
    assert_eq!(joiner.holding_digest(SHARD as usize), want, "{ctx}");
    let want = answers(&mut oracle(config, &twin), 1, window);
    assert!(
        answers(&mut node, 0, window) == want,
        "{ctx}: primary answers differ"
    );
    assert!(
        answers(&mut joiner, 1, window) == want,
        "{ctx}: installed answers differ"
    );
    drop(node);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_primary_holding_a_tile_answers_like_rows_pushed_one_by_one() {
    // Every residue of the clock mod 64 at the read, more than two tiles
    // deep; windows shorter and longer than a tile; both backings.
    let base = std::env::temp_dir().join(format!("swat-primary-tile-{}", std::process::id()));
    for window in [16, 128] {
        let config = SwatConfig::with_coefficients(window, 4).expect("static config");
        for k in 0..=130 {
            primary_against_rows(config, None, k);
            primary_against_rows(config, Some(base.join(format!("{window}-{k}"))), k);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
