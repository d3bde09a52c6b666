//! A standby holds replicated rows and applies them in clock-aligned
//! tiles (`STANDBY_TILE`); a primary applies each row as it acks it.
//! Promotion must make the difference invisible: a standby fed any
//! number of rows — from a fresh set or from an installation at an
//! unaligned clock — then promoted and fed more rows as a primary,
//! answers bit-identically to a twin that was a primary all along.

use swat_daemon::{encode_response, ClusterNode, Request, Response};
use swat_tree::SwatConfig;

const STREAMS: usize = 10;
const SHARDS: usize = 2;
/// The shard under test: node 2's primary, node 1's ring standby.
const SHARD: u32 = 1;

fn row(r: u64, width: usize) -> Vec<f64> {
    (0..width)
        .map(|i| ((r as usize * 7 + i * 5) % 23) as f64 - 11.0)
        .collect()
}

fn ingest(node: &mut ClusterNode, epoch: u64, req_id: u64) -> Response {
    let width = node.shard_members_of(SHARD as usize).len();
    node.handle(&Request::Fenced {
        term: 0,
        leader: 0,
        shard: SHARD,
        epoch,
        inner: Box::new(Request::Ingest {
            req_id,
            row: row(req_id, width),
        }),
    })
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

/// Every point answer the shard's primary gives, as encoded bytes:
/// each member stream at each window index (typed errors included).
fn answers(node: &mut ClusterNode, epoch: u64, window: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for g in node.shard_members_of(SHARD as usize) {
        for index in 0..window as u32 {
            out.push(encode_response(&node.handle(&Request::Fenced {
                term: 0,
                leader: 0,
                shard: SHARD,
                epoch,
                inner: Box::new(Request::Point {
                    stream: g as u64,
                    index,
                }),
            })));
        }
    }
    out
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
