//! The `swatd` wire protocol: length-framed, CRC-checked messages.
//!
//! Frame layout (all integers little-endian, the `swat_tree::codec`
//! discipline):
//!
//! ```text
//! [u32 len] [u32 crc32(payload)] [payload = [u8 kind] [body...]]
//! ```
//!
//! A frame is written where it is needed: [`encode_request_into`] and
//! [`encode_response_into`] append one sealed frame — header reserved,
//! payload appended behind it, then its length and CRC patched in over
//! that payload alone — to a caller's buffer, typically a connection's
//! write queue with other frames already in it; [`encode_request`] and
//! [`encode_response`] are the same into a fresh `Vec`. Either way the
//! bytes are the same.
//!
//! The kind byte lives *inside* the checksummed payload — unlike the
//! snapshot section frame, which keeps its tag outside the CRC — so
//! **every** single-bit flip anywhere in a frame is detected: a flip in
//! the payload (kind included) breaks the CRC, a flip in the length word
//! yields `Truncated`/`Oversize`/`ChecksumMismatch`, and a flip in the
//! stored CRC is a mismatch by definition. The frame fuzz test pins this
//! for every bit of every representative message.
//!
//! Each message is declared once, as an entry of one `messages!` table
//! per direction: its docs, its kind byte and its fields in wire order.
//! The table generates the enum, the kind constants, the encoder and the
//! decoder, so a body is its fields in declaration order both ways. Each
//! field type is written and read by one private `Field` impl (DESIGN.md
//! §3.12 has the table); a struct carried whole is one line of the
//! `records!` table.
//! Decoding is strict, and a message decodes only from the bytes it
//! encodes to: the body must parse completely ([`ProtoError::
//! TrailingBytes`] otherwise), lengths are bounded by [`MAX_FRAME`], a
//! sequence's count is checked against the bytes left before anything
//! is allocated, a bool or tag byte must name a value, `f64` fields
//! reject NaN, and a fenced envelope's inner request (a `Box<Request>`
//! field) has its kind checked before its body is read, so nesting is
//! [`ProtoError::NestedFence`] at the first level and decode depth is
//! bounded. Nothing in this module panics on adversarial input.
//!
//! The top-k path keeps to the same bound on the sending side:
//! [`MAX_TOP_K`] is the largest `k` whose answer fits one frame, and the
//! distributed top-k is one round — a `LocalTopK` to each shard's
//! primary, merged by the leader — so every frame on its path holds at
//! most `k` coefficients.

use std::fmt;

use swat_tree::codec::{crc32, CodecError, Cursor};
use swat_tree::{PointAnswer, RangeMatch};
use swat_wavelet::TopCoeff;

/// Hard bound on a frame payload. A row of 100k streams is 800 KB;
/// 4 MiB leaves headroom while keeping a hostile length word from
/// provoking a large allocation.
pub const MAX_FRAME: usize = 4 << 20;

/// The largest `k` a top-k answer can carry: a [`Response::TopKR`] of
/// `k` entries — kind, `complete`, count, then `k` 20-byte coefficients —
/// fits in [`MAX_FRAME`] (209 714 at 4 MiB). A replica's
/// [`Response::LocalTopKR`] is a byte shorter, so one bound covers every
/// frame of the top-k path.
pub const MAX_TOP_K: u32 =
    ((MAX_FRAME - u8::LEN - bool::LEN - u32::LEN) / <TopCoeff as Field>::LEN) as u32;

/// Bytes before the payload: the length and checksum words.
pub const HEADER_LEN: usize = 8;

/// A typed protocol failure. Every malformed input lands here; no
/// decode path panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The underlying codec rejected the bytes (truncation, checksum
    /// mismatch, NaN, bad field) at a byte offset.
    Codec(CodecError),
    /// The payload's kind byte names no known message.
    UnknownKind(u8),
    /// The header declares a payload larger than [`MAX_FRAME`].
    Oversize {
        /// The declared payload length.
        len: u64,
    },
    /// The body parsed but `extra` bytes were left over — a framing or
    /// version mismatch, not a short read.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A count field exceeds what the remaining bytes could hold.
    BadCount {
        /// What was being counted.
        what: &'static str,
        /// The declared count.
        count: u64,
    },
    /// A [`Request::Fenced`] envelope carried another fence. One level
    /// of fencing is the protocol; nesting is always a peer bug or an
    /// attack, never legal traffic.
    NestedFence,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Codec(e) => write!(f, "{e}"),
            ProtoError::UnknownKind(k) => write!(f, "unknown message kind {k:#04x}"),
            ProtoError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtoError::BadCount { what, count } => {
                write!(f, "{what} count {count} exceeds the frame")
            }
            ProtoError::NestedFence => {
                write!(f, "a fenced envelope may not carry another fence")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

/// One direction's messages, each declared once: its docs, then
/// `#[kind(K_NAME = byte)]`, then the variant as the enum has it, fields
/// in wire order. Generates the enum, one `u8` constant per kind, the
/// encoder `$put` (the kind byte, then each field's [`Field::put`]) and
/// the decoder `$body` (the same fields' [`Field::take`]s in the same
/// order, an unlisted kind [`ProtoError::UnknownKind`]).
macro_rules! messages {
    (
        encoder $put:ident, decoder $body:ident;

        $(#[$attr:meta])*
        pub enum $name:ident {
            $(
                $(#[doc = $doc:literal])*
                #[kind($kind:ident = $byte:literal)]
                $variant:ident $({
                    $(
                        $(#[$field_attr:meta])*
                        $field:ident: $ty:ty,
                    )*
                })?,
            )*
        }
    ) => {
        $(#[$attr])*
        pub enum $name {
            $(
                $(#[doc = $doc])*
                $variant $({
                    $(
                        $(#[$field_attr])*
                        $field: $ty,
                    )*
                })?,
            )*
        }

        $(const $kind: u8 = $byte;)*

        /// Append the unframed payload (kind + body) of `msg`.
        fn $put(p: &mut Vec<u8>, msg: &$name) {
            match msg {
                $($name::$variant $({ $($field),* })? => {
                    p.push($kind);
                    $($($field.put(p);)*)?
                })*
            }
        }

        /// The body of a message of kind `kind`.
        fn $body(kind: u8, c: &mut Cursor<'_>) -> Result<$name, ProtoError> {
            Ok(match kind {
                $($kind => $name::$variant $({ $($field: take(c)?),* })?,)*
                other => return Err(ProtoError::UnknownKind(other)),
            })
        }
    };
}

// Requests are < 0x80. 0x08 stays unassigned: it named the two-round
// top-k's refine request, and a peer still sending it must get
// `UnknownKind`, not another message.
messages! {
    encoder put_request, decoder request_body;

    /// A client- or leader-originated request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Handshake: the sender announces itself (0 = an external client).
        #[kind(K_HELLO = 0x01)]
        Hello {
            /// Sender's node id.
            node: u64,
        },
        /// Liveness probe; answered with [`Response::Pong`] echoing `nonce`.
        #[kind(K_PING = 0x02)]
        Ping {
            /// Echo token tying the pong to this ping.
            nonce: u64,
        },
        /// Apply one synchronized row. On the client→leader hop `row` is the
        /// full global row; on the leader→replica hop it is the shard's
        /// sub-row. `req_id` makes retries duplicate-safe end to end.
        #[kind(K_INGEST = 0x03)]
        Ingest {
            /// Write id (PR 5 scheme): retries reuse it; replicas re-ack
            /// duplicates without re-applying.
            req_id: u64,
            /// The values, one per (global or shard-local) stream.
            row: Vec<f64>,
        },
        /// Point query against one global stream.
        #[kind(K_POINT = 0x04)]
        Point {
            /// Global stream id.
            stream: u64,
            /// Window index.
            index: u32,
        },
        /// Range query (§"range" of the paper's query families) against one
        /// global stream: indices in `newest..=oldest` whose approximate
        /// value falls within `center ± radius`.
        #[kind(K_RANGE = 0x05)]
        Range {
            /// Global stream id.
            stream: u64,
            /// Center value `p`.
            center: f64,
            /// Radius `ε ≥ 0`.
            radius: f64,
            /// Most recent index (inclusive).
            newest: u32,
            /// Oldest index (inclusive).
            oldest: u32,
        },
        /// Exact distributed top-k over every stream (client→leader), for
        /// `1 ≤ k ≤` [`MAX_TOP_K`].
        #[kind(K_TOPK = 0x06)]
        TopK {
            /// How many coefficients.
            k: u32,
        },
        /// A shard's part of the distributed top-k (leader→replica): the
        /// replica's local top-k. Merging every shard's answer is the whole
        /// answer, because shards own disjoint streams.
        #[kind(K_LOCAL_TOPK = 0x07)]
        LocalTopK {
            /// How many coefficients.
            k: u32,
        },
        /// Health/introspection snapshot.
        #[kind(K_STATUS = 0x09)]
        Status,
        /// Graceful shutdown: drain, checkpoint, exit.
        #[kind(K_SHUTDOWN = 0x0A)]
        Shutdown,
        /// A term/epoch-stamped envelope around intra-cluster traffic. The
        /// receiver rejects it with [`Response::StaleTermR`] unless `term`
        /// is current (adopting any newer term first), and — when `shard`
        /// names a shard — with [`Response::StaleEpochR`] unless `epoch`
        /// matches its holding. `shard == NO_SHARD` fences node-level
        /// traffic (heartbeats) on the term alone. Nested fences are a
        /// decode error ([`ProtoError::NestedFence`]).
        #[kind(K_FENCED = 0x0B)]
        Fenced {
            /// The sender's leadership term.
            term: u64,
            /// The sender (the node claiming leadership of `term`).
            leader: u64,
            /// Target shard, or [`NO_SHARD`] for node-level traffic.
            shard: u32,
            /// The shard's configuration epoch (0 when `shard == NO_SHARD`).
            epoch: u64,
            /// The fenced request. Never itself a `Fenced`.
            inner: Box<Request>,
        },
        /// A leadership claim: "I am the leader of `term`". Accepted iff
        /// `term` is newer than the receiver's; the acceptance reply is
        /// [`Response::SyncR`] describing the receiver's shard holdings, so
        /// one round both fences the old leader out and rebuilds the new
        /// leader's state.
        #[kind(K_NEW_TERM = 0x0C)]
        NewTerm {
            /// The claimed term.
            term: u64,
            /// The claimant's node id.
            leader: u64,
        },
        /// Stream one acked row to a shard's standby (leader→standby), under
        /// the same duplicate-safe `req_id` scheme as client ingest.
        #[kind(K_REPLICATE = 0x0D)]
        Replicate {
            /// The sender's leadership term.
            term: u64,
            /// The shard being replicated.
            shard: u32,
            /// The shard's configuration epoch.
            epoch: u64,
            /// Write id; retries re-ack without re-applying.
            req_id: u64,
            /// The shard-local sub-row.
            row: Vec<f64>,
        },
        /// Read a shard's full state off its current primary (leader-only),
        /// answered with [`Response::ShardStateR`]. Used to seed a rejoined
        /// node's standby copy.
        #[kind(K_FETCH_SHARD = 0x0E)]
        FetchShard {
            /// The sender's leadership term.
            term: u64,
            /// The shard to export.
            shard: u32,
        },
        /// Install a full shard copy on the receiver as a standby at
        /// `epoch` (leader→rejoined node). Overwrites any stale holding.
        #[kind(K_INSTALL_SHARD = 0x0F)]
        InstallShard {
            /// The sender's leadership term.
            term: u64,
            /// The shard being installed.
            shard: u32,
            /// The configuration epoch the copy is current at.
            epoch: u64,
            /// Rows applied to the copy.
            arrivals: u64,
            /// The applied write ids (ascending), for duplicate absorption.
            applied: Vec<u64>,
            /// The shard's `StreamSet` snapshot (SWMS v2 bytes).
            snapshot: Vec<u8>,
        },
        /// Make the receiver the shard's primary at `epoch` (leader-only).
        /// Sent to a standby on primary death, and to a surviving primary
        /// when a configuration change bumps the epoch under it.
        #[kind(K_PROMOTE = 0x10)]
        Promote {
            /// The sender's leadership term.
            term: u64,
            /// The shard.
            shard: u32,
            /// The new configuration epoch.
            epoch: u64,
        },
    }
}

/// The `shard` value in [`Request::Fenced`] meaning "no shard: fence on
/// the term alone" (node-level heartbeats).
pub const NO_SHARD: u32 = u32::MAX;

/// Why a request could not be served. Codes are stable wire values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request referenced a stream/index outside the configuration.
    BadRequest,
    /// The node is a replica but got a leader-only request (or vice
    /// versa).
    WrongRole,
    /// An internal failure (e.g. the durable store rejected a write).
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::BadRequest => write!(f, "bad request"),
            ErrorCode::WrongRole => write!(f, "wrong role"),
            ErrorCode::Internal => write!(f, "internal error"),
        }
    }
}

// Responses are ≥ 0x80. 0x88 stays unassigned: it named the two-round
// top-k's refine answer (see 0x08 above).
messages! {
    encoder put_response, decoder response_body;

    /// A response. Degradation is explicit: [`Response::Overloaded`],
    /// [`Response::Unavailable`], and the `failed_shards` / `complete`
    /// fields say exactly what was *not* done — silent loss is a protocol
    /// violation the tests hunt for.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Handshake accepted; the responder announces its node id.
        #[kind(K_HELLO_OK = 0x81)]
        HelloOk {
            /// Responder's node id.
            node: u64,
        },
        /// Liveness echo.
        #[kind(K_PONG = 0x82)]
        Pong {
            /// The ping's nonce.
            nonce: u64,
        },
        /// Ingest outcome. `failed_shards` empty ⇔ the row is fully
        /// applied; non-empty names every shard whose sub-row did **not**
        /// apply (explicit degradation, never silent).
        #[kind(K_INGEST_OK = 0x83)]
        IngestOk {
            /// The request's write id.
            req_id: u64,
            /// Whether this id had already been applied (retry absorbed).
            duplicate: bool,
            /// Shards that failed to apply the sub-row.
            failed_shards: Vec<u32>,
        },
        /// Point answer.
        #[kind(K_POINT_R = 0x84)]
        PointR {
            /// The approximation and its error bound.
            answer: WirePointAnswer,
        },
        /// Range matches, ascending by index.
        #[kind(K_RANGE_R = 0x85)]
        RangeR {
            /// Matching indices and their approximate values.
            matches: Vec<WireRangeMatch>,
        },
        /// Distributed top-k result. `complete == false` means one or more
        /// shards were unreachable and their candidates are missing — the
        /// entries present are still exact for the shards that answered.
        #[kind(K_TOPK_R = 0x86)]
        TopKR {
            /// Whether every shard contributed.
            complete: bool,
            /// The merged top-k, rank order.
            entries: Vec<TopCoeff>,
        },
        /// A replica's local top-k.
        #[kind(K_LOCAL_TOPK_R = 0x87)]
        LocalTopKR {
            /// The local top-k entries, rank order.
            entries: Vec<TopCoeff>,
        },
        /// Health snapshot.
        #[kind(K_STATUS_R = 0x89)]
        StatusR {
            /// This node's id.
            node: u64,
            /// The node's current leadership term.
            term: u64,
            /// Who the node believes leads that term.
            leader: u64,
            /// Rows applied so far (replica: local; leader: acked rows).
            arrivals: u64,
            /// Per-peer health, leader only: `(node, health)` pairs.
            replicas: Vec<(u64, WireHealth)>,
            /// This node's local durable-store health.
            store: WireStoreHealth,
        },
        /// Graceful shutdown acknowledged; the node drains and exits.
        #[kind(K_SHUTDOWN_OK = 0x8A)]
        ShutdownOk {
            /// In-flight requests drained before the ack.
            drained: u64,
        },
        /// Load shed: the per-peer outbound budget is exhausted. Retry
        /// later; nothing was applied.
        #[kind(K_OVERLOADED = 0x8B)]
        Overloaded,
        /// The shard owning the referenced stream is unreachable.
        #[kind(K_UNAVAILABLE = 0x8C)]
        Unavailable {
            /// The dead/unreachable node.
            node: u64,
        },
        /// Typed failure.
        #[kind(K_ERROR_R = 0x8D)]
        ErrorR {
            /// What kind of failure.
            code: ErrorCode,
        },
        /// The sender's term is stale: the receiver has adopted a newer
        /// one. A leader seeing this steps down immediately — the fence
        /// that makes split-brain impossible.
        #[kind(K_STALE_TERM_R = 0x8E)]
        StaleTermR {
            /// The receiver's current term.
            term: u64,
            /// Who the receiver believes leads that term.
            leader: u64,
        },
        /// The receiver is not the leader; retry against `leader` (the
        /// client-side failover hint).
        #[kind(K_NOT_LEADER_R = 0x8F)]
        NotLeaderR {
            /// The node to ask instead.
            leader: u64,
            /// The term that node leads, as far as the receiver knows.
            term: u64,
        },
        /// Acceptance of a [`Request::NewTerm`] claim, carrying everything
        /// the new leader needs to rebuild its routing state: the adopted
        /// term and the responder's shard holdings.
        #[kind(K_SYNC_R = 0x90)]
        SyncR {
            /// The term the responder just adopted.
            term: u64,
            /// The responder's shard holdings.
            holdings: Vec<WireHolding>,
        },
        /// A full shard export ([`Request::FetchShard`] answer).
        #[kind(K_SHARD_STATE_R = 0x91)]
        ShardStateR {
            /// The exported shard.
            shard: u32,
            /// The holder's configuration epoch for it.
            epoch: u64,
            /// Rows applied.
            arrivals: u64,
            /// The applied write ids (ascending).
            applied: Vec<u64>,
            /// The shard's `StreamSet` snapshot (SWMS v2 bytes).
            snapshot: Vec<u8>,
        },
        /// A shard configuration change ([`Request::Promote`] /
        /// [`Request::InstallShard`]) took effect at `epoch`.
        #[kind(K_EPOCH_ACK = 0x92)]
        EpochAck {
            /// The shard.
            shard: u32,
            /// The epoch now in force on the responder.
            epoch: u64,
        },
        /// The sender's shard epoch is stale (the term was fine). The
        /// leader re-issues the configuration; nothing was applied.
        #[kind(K_STALE_EPOCH_R = 0x93)]
        StaleEpochR {
            /// The shard.
            shard: u32,
            /// The receiver's current epoch for it.
            epoch: u64,
        },
    }
}

/// One shard holding in a [`Response::SyncR`]: what the responder holds
/// and in which role, so a freshly elected leader can reconstruct the
/// assignment without a recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHolding {
    /// The shard held.
    pub shard: u32,
    /// The configuration epoch the holding is current at.
    pub epoch: u64,
    /// Whether the holder is the shard's primary (else standby).
    pub primary: bool,
    /// Rows applied to the holding.
    pub arrivals: u64,
}

/// [`swat_tree::PointAnswer`] as wire fields (kept separate so the wire
/// format cannot drift silently when the query engine grows fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePointAnswer {
    /// The approximate value.
    pub value: f64,
    /// Sound bound on `|true − value|`.
    pub error_bound: f64,
    /// Serving summary level.
    pub level: u32,
    /// Whether the answer was extrapolated.
    pub extrapolated: bool,
}

impl From<PointAnswer> for WirePointAnswer {
    fn from(a: PointAnswer) -> Self {
        WirePointAnswer {
            value: a.value,
            error_bound: a.error_bound,
            level: a.level as u32,
            extrapolated: a.extrapolated,
        }
    }
}

/// [`swat_tree::RangeMatch`] as wire fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRangeMatch {
    /// Matching window index.
    pub index: u32,
    /// Its approximate value.
    pub value: f64,
}

impl From<RangeMatch> for WireRangeMatch {
    fn from(m: RangeMatch) -> Self {
        WireRangeMatch {
            index: m.index as u32,
            value: m.value,
        }
    }
}

/// Replica health as seen by the leader's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireHealth {
    /// Responding to heartbeats.
    Alive,
    /// Missed at least one heartbeat, not yet written off.
    Suspect,
    /// Missed `miss_threshold` heartbeats; traffic routes around it.
    Dead,
}

impl fmt::Display for WireHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireHealth::Alive => write!(f, "alive"),
            WireHealth::Suspect => write!(f, "suspect"),
            WireHealth::Dead => write!(f, "dead"),
        }
    }
}

/// The responding node's *local durable-store* health: whether its
/// background snapshot flush is parked on a persistent disk fault.
/// Distinct from [`WireHealth`], which is the leader's liveness view of
/// its peers; a node can be perfectly reachable while its disk degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStoreHealth {
    /// Flushes are keeping up (or the node runs an in-memory backing).
    Healthy,
    /// A snapshot flush failed on a disk fault (or the live WAL did);
    /// ingest continues and the store retries with bounded backoff.
    Degraded {
        /// Freezes whose covering snapshot is not yet committed, summed
        /// across the node's holdings (0 or more: a broken WAL alone
        /// degrades with none). Their rows are in the WAL, not yet
        /// durable as state.
        parked: u32,
    },
}

impl fmt::Display for WireStoreHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireStoreHealth::Healthy => write!(f, "healthy"),
            WireStoreHealth::Degraded { parked } => {
                write!(f, "degraded({parked} parked)")
            }
        }
    }
}

/// One wire field type, encoded and decoded in exactly one place. A
/// message body is its fields' encodings in declaration order, so each
/// message kind is one `put` per field and one struct literal of `take`s.
trait Field: Sized {
    /// The fewest bytes one value encodes to: what the sequence count
    /// guard multiplies a declared count by.
    const LEN: usize;

    /// Append the value's encoding.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value.
    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError>;

    /// Append a sequence's elements; its count is already written.
    fn put_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.put(out);
        }
    }

    /// Read a sequence's `count` elements; the count is already guarded
    /// against the bytes left.
    fn take_vec(c: &mut Cursor<'_>, count: usize) -> Result<Vec<Self>, ProtoError> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::take(c)?);
        }
        Ok(items)
    }
}

/// [`Field::take`] with the type left to inference.
fn take<T: Field>(c: &mut Cursor<'_>) -> Result<T, ProtoError> {
    T::take(c)
}

/// A byte at `offset` that names no value of `what`: a bool other than 0
/// or 1, an unknown tag, a NaN.
fn invalid(what: &'static str, offset: usize) -> ProtoError {
    ProtoError::Codec(CodecError::Invalid { what, offset })
}

impl Field for u8 {
    const LEN: usize = std::mem::size_of::<u8>();

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u8()?)
    }

    fn put_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn take_vec(c: &mut Cursor<'_>, count: usize) -> Result<Vec<u8>, ProtoError> {
        Ok(c.take(count)?.to_vec())
    }
}

/// Strict: 0 or 1. Any other byte would decode to a message that
/// encodes differently, so it is an error, not `true`.
impl Field for bool {
    const LEN: usize = u8::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let offset = c.offset();
        match c.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(invalid("bool", offset)),
        }
    }
}

impl Field for u32 {
    const LEN: usize = std::mem::size_of::<u32>();

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u32()?)
    }
}

impl Field for u64 {
    const LEN: usize = std::mem::size_of::<u64>();

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.u64()?)
    }
}

/// NaN is rejected at its byte offset; a row (a 16 KB `Vec<f64>` on
/// `wire-wide`) is copied in one pass each way.
impl Field for f64 {
    const LEN: usize = std::mem::size_of::<f64>();

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok(c.f64()?)
    }

    fn put_slice(items: &[f64], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + Self::LEN * items.len(), 0);
        for (dst, v) in out[start..].chunks_exact_mut(Self::LEN).zip(items) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn take_vec(c: &mut Cursor<'_>, count: usize) -> Result<Vec<f64>, ProtoError> {
        let at = c.offset();
        let values: Vec<f64> = c
            .take(Self::LEN * count)?
            .chunks_exact(Self::LEN)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect();
        // One branch-free pass; the position search runs only on a hit.
        if values.iter().fold(false, |nan, v| nan | v.is_nan()) {
            let i = values
                .iter()
                .position(|v| v.is_nan())
                .expect("the reduction found a NaN");
            return Err(invalid("NaN value", at + Self::LEN * i));
        }
        Ok(values)
    }
}

/// A length-prefixed sequence: a `u32` count, then the elements. This is
/// the one count guard: a count the bytes left cannot hold is
/// [`ProtoError::BadCount`] before anything is allocated.
impl<T: Field> Field for Vec<T> {
    const LEN: usize = u32::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        T::put_slice(self, out);
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let count: u32 = take(c)?;
        if u64::from(count) * T::LEN as u64 > c.remaining() as u64 {
            return Err(ProtoError::BadCount {
                what: std::any::type_name::<T>(),
                count: count.into(),
            });
        }
        T::take_vec(c, count as usize)
    }
}

/// A fenced envelope's inner request: its kind and body, unframed, so
/// fencing a message never re-frames it. The inner kind is read before
/// the inner body, and a second fence is [`ProtoError::NestedFence`]
/// there, so decoding recurses at most one level, whatever the frame.
impl Field for Box<Request> {
    const LEN: usize = u8::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        debug_assert!(
            !matches!(**self, Request::Fenced { .. }),
            "fences never nest"
        );
        put_request(out, self);
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        match take(c)? {
            K_FENCED => Err(ProtoError::NestedFence),
            kind => Ok(Box::new(request_body(kind, c)?)),
        }
    }
}

/// A `StatusR` registry entry: the peer, then its health.
impl Field for (u64, WireHealth) {
    const LEN: usize = u64::LEN + WireHealth::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        Ok((take(c)?, take(c)?))
    }
}

/// `Field` for each struct carried whole, one per line: its fields in
/// the order listed, `LEN` the sum of theirs. Each is put and taken as
/// the type listed, so a line that names a wrong type, or leaves a field
/// out, does not compile.
macro_rules! records {
    ($($t:ident { $($field:ident: $ty:ty),* })*) => {$(
        impl Field for $t {
            const LEN: usize = 0 $(+ <$ty as Field>::LEN)*;

            fn put(&self, out: &mut Vec<u8>) {
                $(<$ty as Field>::put(&self.$field, out);)*
            }

            fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
                Ok($t { $($field: <$ty as Field>::take(c)?),* })
            }
        }
    )*};
}

records! {
    TopCoeff { stream: u64, index: u32, value: f64 }
    WirePointAnswer { value: f64, error_bound: f64, level: u32, extrapolated: bool }
    WireRangeMatch { index: u32, value: f64 }
    WireHolding { shard: u32, epoch: u64, primary: bool, arrivals: u64 }
}

impl Field for WireHealth {
    const LEN: usize = u8::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            WireHealth::Alive => 0,
            WireHealth::Suspect => 1,
            WireHealth::Dead => 2,
        });
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let offset = c.offset();
        match c.u8()? {
            0 => Ok(WireHealth::Alive),
            1 => Ok(WireHealth::Suspect),
            2 => Ok(WireHealth::Dead),
            _ => Err(invalid("health tag", offset)),
        }
    }
}

impl Field for ErrorCode {
    const LEN: usize = u8::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::WrongRole => 2,
            ErrorCode::Internal => 3,
        });
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let offset = c.offset();
        match c.u8()? {
            1 => Ok(ErrorCode::BadRequest),
            2 => Ok(ErrorCode::WrongRole),
            3 => Ok(ErrorCode::Internal),
            _ => Err(invalid("error code", offset)),
        }
    }
}

/// A tag byte, then `parked` for `Degraded` only.
impl Field for WireStoreHealth {
    const LEN: usize = u8::LEN;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WireStoreHealth::Healthy => out.push(0),
            WireStoreHealth::Degraded { parked } => {
                out.push(1);
                parked.put(out);
            }
        }
    }

    fn take(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let offset = c.offset();
        match c.u8()? {
            0 => Ok(WireStoreHealth::Healthy),
            1 => Ok(WireStoreHealth::Degraded { parked: take(c)? }),
            _ => Err(invalid("store health tag", offset)),
        }
    }
}

/// Append one sealed frame to `out`: the header's eight bytes reserved,
/// the payload (kind + body) `payload` appends behind them, then its
/// length and CRC-32 patched in. Whatever `out` held before is left as it
/// was, so frames queue back to back in one buffer.
fn seal_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    payload(out);
    let (header, payload) = out[at..].split_at_mut(HEADER_LEN);
    debug_assert!(payload.len() <= MAX_FRAME, "outbound frame within bound");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Append `req` to `out` as one complete wire frame (header + payload):
/// the bytes [`encode_request`] returns, written where the caller wants
/// them — a connection's write queue, say.
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    seal_into(out, |p| put_request(p, req));
}

/// Encode `req` as a complete wire frame (header + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_request_into(req, &mut frame);
    frame
}

/// Append `resp` to `out` as one complete wire frame (header + payload),
/// as [`encode_request_into`] does a request.
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    seal_into(out, |p| put_response(p, resp));
}

/// Encode `resp` as a complete wire frame (header + payload).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response_into(resp, &mut frame);
    frame
}

/// Split a complete frame into its verified payload: checks the length
/// word against both [`MAX_FRAME`] and the bytes present, then the
/// CRC-32 over the whole payload.
///
/// # Errors
///
/// [`ProtoError::Oversize`], [`ProtoError::Codec`] (truncated /
/// checksum mismatch), or [`ProtoError::TrailingBytes`].
pub fn check_frame(frame: &[u8]) -> Result<&[u8], ProtoError> {
    let mut c = Cursor::new(frame);
    let len = c.u32()? as u64;
    if len > MAX_FRAME as u64 {
        return Err(ProtoError::Oversize { len });
    }
    let stored = c.u32()?;
    if (len as usize) > c.remaining() {
        return Err(ProtoError::Codec(CodecError::Truncated {
            offset: HEADER_LEN,
        }));
    }
    let payload = c.take(len as usize)?;
    if !c.is_empty() {
        return Err(ProtoError::TrailingBytes {
            extra: c.remaining(),
        });
    }
    let computed = crc32(payload);
    if computed != stored {
        return Err(ProtoError::Codec(CodecError::ChecksumMismatch {
            offset: HEADER_LEN,
            stored,
            computed,
        }));
    }
    if payload.is_empty() {
        return Err(ProtoError::Codec(CodecError::Truncated {
            offset: HEADER_LEN,
        }));
    }
    Ok(payload)
}

/// Read a whole payload: its kind byte, the body `body` decodes for that
/// kind, and nothing after it.
fn decode_whole<T>(
    payload: &[u8],
    body: impl FnOnce(u8, &mut Cursor<'_>) -> Result<T, ProtoError>,
) -> Result<T, ProtoError> {
    let mut c = Cursor::new(payload);
    let kind = take(&mut c)?;
    let msg = body(kind, &mut c)?;
    if !c.is_empty() {
        return Err(ProtoError::TrailingBytes {
            extra: c.remaining(),
        });
    }
    Ok(msg)
}

/// Decode a verified payload (from [`check_frame`]) as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    decode_whole(payload, request_body)
}

/// Decode a verified payload (from [`check_frame`]) as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    decode_whole(payload, response_body)
}

/// One representative message of every request kind, exercising every
/// field type — the corpus the frame fuzzer mutates.
pub fn sample_requests() -> Vec<Request> {
    vec![
        Request::Hello { node: 3 },
        Request::Ping { nonce: 0xDEAD_BEEF },
        Request::Ingest {
            req_id: 42,
            row: vec![1.5, -2.25, 0.0],
        },
        Request::Point {
            stream: 7,
            index: 31,
        },
        Request::Range {
            stream: 2,
            center: 10.0,
            radius: 0.5,
            newest: 0,
            oldest: 15,
        },
        Request::TopK { k: 5 },
        Request::LocalTopK { k: 3 },
        Request::Status,
        Request::Shutdown,
        Request::Fenced {
            term: 7,
            leader: 2,
            shard: 1,
            epoch: 3,
            inner: Box::new(Request::Ingest {
                req_id: 42,
                row: vec![0.5, -1.0],
            }),
        },
        Request::Fenced {
            term: 9,
            leader: 4,
            shard: NO_SHARD,
            epoch: 0,
            inner: Box::new(Request::Ping { nonce: 17 }),
        },
        Request::NewTerm { term: 5, leader: 1 },
        Request::Replicate {
            term: 5,
            shard: 2,
            epoch: 1,
            req_id: 43,
            row: vec![2.5],
        },
        Request::FetchShard { term: 5, shard: 0 },
        Request::InstallShard {
            term: 5,
            shard: 0,
            epoch: 2,
            arrivals: 4,
            applied: vec![40, 41, 42, 43],
            snapshot: vec![0xAB, 0xCD, 0xEF],
        },
        Request::Promote {
            term: 5,
            shard: 2,
            epoch: 2,
        },
    ]
}

/// One representative message of every response kind; see
/// [`sample_requests`].
pub fn sample_responses() -> Vec<Response> {
    vec![
        Response::HelloOk { node: 1 },
        Response::Pong { nonce: 9 },
        Response::IngestOk {
            req_id: 42,
            duplicate: true,
            failed_shards: vec![1, 3],
        },
        Response::PointR {
            answer: WirePointAnswer {
                value: 3.5,
                error_bound: 0.25,
                level: 2,
                extrapolated: false,
            },
        },
        Response::RangeR {
            matches: vec![
                WireRangeMatch {
                    index: 4,
                    value: 9.75,
                },
                WireRangeMatch {
                    index: 9,
                    value: 10.25,
                },
            ],
        },
        Response::TopKR {
            complete: false,
            entries: vec![TopCoeff {
                stream: 6,
                index: 0,
                value: -12.5,
            }],
        },
        Response::LocalTopKR {
            entries: vec![TopCoeff {
                stream: 1,
                index: 2,
                value: 2.5,
            }],
        },
        Response::StatusR {
            node: 0,
            term: 4,
            leader: 0,
            arrivals: 1000,
            replicas: vec![(1, WireHealth::Alive), (2, WireHealth::Dead)],
            store: WireStoreHealth::Degraded { parked: 3 },
        },
        Response::ShutdownOk { drained: 3 },
        Response::Overloaded,
        Response::Unavailable { node: 2 },
        Response::ErrorR {
            code: ErrorCode::WrongRole,
        },
        Response::StaleTermR { term: 6, leader: 2 },
        Response::NotLeaderR { leader: 2, term: 6 },
        Response::SyncR {
            term: 6,
            holdings: vec![
                WireHolding {
                    shard: 0,
                    epoch: 1,
                    primary: true,
                    arrivals: 12,
                },
                WireHolding {
                    shard: 1,
                    epoch: 0,
                    primary: false,
                    arrivals: 12,
                },
            ],
        },
        Response::ShardStateR {
            shard: 1,
            epoch: 2,
            arrivals: 12,
            applied: vec![1, 2, 3],
            snapshot: vec![0x01, 0x02],
        },
        Response::EpochAck { shard: 1, epoch: 2 },
        Response::StaleEpochR { shard: 1, epoch: 3 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frame a hand-built payload (kind + body).
    fn frame_of(payload: Vec<u8>) -> Vec<u8> {
        let mut frame = Vec::new();
        seal_into(&mut frame, |p| p.extend_from_slice(&payload));
        frame
    }

    #[test]
    fn ingest_frame_written_before_the_sliced_crc_still_verifies() {
        // Bytes of `encode_request(&Ingest { .. })` as the commit before
        // slice-by-8 and in-place framing produced them: today's encoder
        // must emit the same bytes, today's checker accept them.
        const GOLDEN: &str = "35000000b189556703080706050403020105000000000000000000f83f00000000000002c0fca9f1d24d62503f000000000000b0400000000000000080";
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let req = Request::Ingest {
            req_id: 0x0102_0304_0506_0708,
            row: vec![1.5, -2.25, 1e-3, 4096.0, -0.0],
        };
        assert_eq!(encode_request(&req), golden);
        let payload = check_frame(&golden).unwrap();
        assert_eq!(decode_request(payload).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            let payload = check_frame(&frame).unwrap();
            assert_eq!(decode_request(payload).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            let frame = encode_response(&resp);
            let payload = check_frame(&frame).unwrap();
            assert_eq!(decode_response(payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn a_frame_encoded_into_a_queue_is_its_standalone_encoding() {
        // Bytes already queued ahead, as on a connection: each frame must
        // be sealed over its own payload only, and leave them alone.
        let ahead = encode_request(&Request::Ping { nonce: 3 });
        let mut queue = ahead.clone();
        for req in sample_requests() {
            let at = queue.len();
            encode_request_into(&req, &mut queue);
            assert_eq!(queue[at..], encode_request(&req), "{req:?}");
            let payload = check_frame(&queue[at..]).unwrap();
            assert_eq!(decode_request(payload).unwrap(), req);
        }
        for resp in sample_responses() {
            let at = queue.len();
            encode_response_into(&resp, &mut queue);
            assert_eq!(queue[at..], encode_response(&resp), "{resp:?}");
            let payload = check_frame(&queue[at..]).unwrap();
            assert_eq!(decode_response(payload).unwrap(), resp);
        }
        assert_eq!(queue[..ahead.len()], ahead);
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut frame = encode_request(&Request::Status);
        frame[0..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            check_frame(&frame),
            Err(ProtoError::Oversize { .. })
        ));
    }

    #[test]
    fn hostile_count_cannot_allocate() {
        // An Ingest frame whose row count says "u32::MAX values" but
        // whose body holds none: BadCount, not an OOM attempt.
        let mut p = vec![K_INGEST];
        1u64.put(&mut p);
        u32::MAX.put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ProtoError::BadCount { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = vec![K_STATUS];
        p.push(0xFF);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_request(payload),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn nan_values_are_rejected() {
        // Range: kind (1) + stream (8), then a NaN `center`.
        let mut p = vec![K_RANGE];
        2u64.put(&mut p);
        p.extend_from_slice(&f64::NAN.to_le_bytes());
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ProtoError::Codec(CodecError::Invalid { .. }))
        ));
    }

    #[test]
    fn nan_in_a_row_is_rejected_at_its_offset() {
        // kind (1) + req_id (8) + count (4), then the third value.
        let mut p = vec![K_INGEST];
        9u64.put(&mut p);
        vec![1.0, 2.0, f64::NAN, f64::NAN].put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_request(payload),
            Err(ProtoError::Codec(CodecError::Invalid {
                what: "NaN value",
                offset: 13 + 2 * 8,
            }))
        );
    }

    #[test]
    fn bools_are_strict() {
        // IngestOk: kind (1) + req_id (8), then `duplicate` as a 2.
        let mut p = vec![K_INGEST_OK];
        42u64.put(&mut p);
        2u8.put(&mut p);
        Vec::<u32>::new().put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_response(payload),
            Err(ProtoError::Codec(CodecError::Invalid {
                what: "bool",
                offset: 9,
            }))
        );
    }

    #[test]
    fn health_tags_are_strict() {
        // StatusR: kind (1) + node, term, leader, arrivals (32) + count
        // (4) + the peer's id (8), then its health as a 3.
        let mut p = vec![K_STATUS_R];
        for word in [0u64, 4, 0, 1000] {
            word.put(&mut p);
        }
        1u32.put(&mut p);
        1u64.put(&mut p);
        3u8.put(&mut p);
        WireStoreHealth::Healthy.put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_response(payload),
            Err(ProtoError::Codec(CodecError::Invalid {
                what: "health tag",
                offset: 45,
            }))
        );
    }

    #[test]
    fn error_codes_are_strict() {
        // ErrorR: kind (1), then code 0 (codes start at 1).
        let frame = frame_of(vec![K_ERROR_R, 0]);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_response(payload),
            Err(ProtoError::Codec(CodecError::Invalid {
                what: "error code",
                offset: 1,
            }))
        );
    }

    #[test]
    fn store_health_tags_are_strict() {
        // StatusR: kind (1) + node, term, leader, arrivals (32) + an empty
        // peer list (4), then the store's health as a 2.
        let mut p = vec![K_STATUS_R];
        for word in [0u64, 4, 0, 1000] {
            word.put(&mut p);
        }
        Vec::<(u64, WireHealth)>::new().put(&mut p);
        2u8.put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(
            decode_response(payload),
            Err(ProtoError::Codec(CodecError::Invalid {
                what: "store health tag",
                offset: 37,
            }))
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            ProtoError::Codec(CodecError::Truncated { offset: 1 }),
            ProtoError::UnknownKind(0x7F),
            ProtoError::Oversize { len: 1 << 40 },
            ProtoError::TrailingBytes { extra: 2 },
            ProtoError::BadCount {
                what: "x",
                count: 5,
            },
            ProtoError::NestedFence,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn nested_fence_is_rejected() {
        // Hand-build Fenced{ Fenced{ Ping } } — the encoder debug-asserts
        // against producing this, so splice the payloads manually.
        let mut inner = Vec::new();
        put_request(
            &mut inner,
            &Request::Fenced {
                term: 1,
                leader: 1,
                shard: NO_SHARD,
                epoch: 0,
                inner: Box::new(Request::Ping { nonce: 0 }),
            },
        );
        let mut p = vec![K_FENCED];
        2u64.put(&mut p);
        2u64.put(&mut p);
        NO_SHARD.put(&mut p);
        0u64.put(&mut p);
        p.extend_from_slice(&inner);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert_eq!(decode_request(payload), Err(ProtoError::NestedFence));
    }

    #[test]
    fn fenced_empty_inner_is_truncated_not_a_panic() {
        // A fence whose inner payload is zero bytes: the inner decoder
        // hits end-of-input reading the kind byte.
        let mut p = vec![K_FENCED];
        1u64.put(&mut p);
        1u64.put(&mut p);
        0u32.put(&mut p);
        0u64.put(&mut p);
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ProtoError::Codec(CodecError::Truncated { .. }))
        ));
    }

    #[test]
    fn hostile_snapshot_length_cannot_allocate() {
        // An InstallShard whose snapshot length claims 4 GiB: BadCount.
        let mut p = vec![K_INSTALL_SHARD];
        1u64.put(&mut p); // term
        0u32.put(&mut p); // shard
        1u64.put(&mut p); // epoch
        0u64.put(&mut p); // arrivals
        0u32.put(&mut p); // applied: none
        u32::MAX.put(&mut p); // snapshot: a lie
        let frame = frame_of(p);
        let payload = check_frame(&frame).unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(ProtoError::BadCount { .. })
        ));
    }
}
