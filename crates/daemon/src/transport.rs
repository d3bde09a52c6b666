//! The blocking frame transport over TCP.
//!
//! [`Transport`] moves complete wire frames (header + payload, see
//! [`crate::proto`]) between two endpoints. A received frame is lent,
//! not handed over: [`Transport::recv_frame`] returns a slice of the
//! transport's own storage, valid until the next call, which the caller
//! checks and decodes in place.
//!
//! Its one implementation, [`TcpTransport`], is a real
//! `std::net::TcpStream` with **read and write deadlines on every socket
//! operation** (no call can hang a connection thread forever), the
//! [`MAX_FRAME`] bound enforced before any allocation, and a buffer on
//! each side of the socket: one `read` per burst of frames, each lent out
//! of the read buffer where it landed, and one `write` per queue of
//! frames, each encoded straight into the queue. The trait is unaware of
//! that; pipelining callers use the inherent `queue_request` /
//! `queue_response` / `flush` / `frame_buffered`. A row's bytes are
//! therefore copied once per hop on each side: decoded out of the read
//! buffer, encoded into the write queue. The simulator crosses no
//! transport: [`crate::sim`] adjudicates each frame with the `swat-net`
//! fault injector directly.
//!
//! Failures are typed ([`TransportError`]); a timeout is
//! distinguishable from a peer close, and a protocol violation carries
//! the underlying [`ProtoError`].

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::proto::{
    encode_request_into, encode_response_into, ProtoError, Request, Response, HEADER_LEN, MAX_FRAME,
};

/// Why a frame could not cross the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// An OS-level I/O failure.
    Io {
        /// Which operation failed.
        context: &'static str,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// The peer closed the connection (clean EOF).
    Closed,
    /// The read or write deadline expired.
    TimedOut,
    /// The bytes on the wire violate the protocol.
    Proto(ProtoError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { context, kind } => write!(f, "{context}: {kind}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::TimedOut => write!(f, "deadline expired"),
            TransportError::Proto(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> Self {
        TransportError::Proto(e)
    }
}

/// A blocking, deadline-bounded mover of complete wire frames.
pub trait Transport {
    /// Send one complete frame (header + payload).
    ///
    /// # Errors
    ///
    /// [`TransportError`] on I/O failure, close, or deadline expiry.
    /// A frame the socket accepted may still never be read — the peer
    /// can die first; the sender's receive deadline surfaces that.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Receive one complete frame, lent out of the transport's own
    /// storage until the next call: the caller checks and decodes it in
    /// place, and no frame is copied on the way in.
    ///
    /// # Errors
    ///
    /// [`TransportError::TimedOut`] if no frame arrives within the
    /// deadline, [`TransportError::Closed`] on EOF, or a typed
    /// protocol/I/O failure.
    fn recv_frame(&mut self) -> Result<&[u8], TransportError>;
}

fn io_err(context: &'static str, e: &std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => TransportError::Closed,
        kind => TransportError::Io { context, kind },
    }
}

/// Bytes asked of the socket per `read`, the resting size of the read
/// buffer and of the write queue, and the queue length past which a
/// server flushes held-back responses: several frames of any workload's
/// row, one loopback segment.
pub const READ_CHUNK: usize = 64 * 1024;

/// A deadline-bounded, buffered TCP frame stream.
///
/// Reads go through an owned buffer: one `read` takes whatever the
/// socket holds — often several pipelined frames — and
/// [`recv_frame`](Transport::recv_frame) lends the next frame out of it
/// in place, touching the socket again only when the buffer does not
/// hold a complete frame. Bytes of a partial frame stay buffered across
/// a [`TransportError::TimedOut`], so a peer that pauses mid-frame
/// resumes where it stopped. Writes can be queued, each frame encoded
/// straight into the queue ([`queue_request`](Self::queue_request),
/// [`queue_response`](Self::queue_response)), and sent with one `write`
/// ([`flush`](Self::flush)).
pub struct TcpTransport {
    stream: TcpStream,
    /// Read storage, initialized once so a `read` needs no zeroing.
    /// `rbuf[rpos..rend]` holds received bytes not yet handed out and
    /// starts at a frame boundary; the frame lent out last lies just
    /// before `rpos`.
    rbuf: Vec<u8>,
    rpos: usize,
    rend: usize,
    /// Frames queued, not yet written.
    wbuf: Vec<u8>,
    /// `write`s issued: direct sends plus flushes of a non-empty queue.
    writes: u64,
}

impl TcpTransport {
    /// Wrap `stream`, installing `read`/`write` deadlines on every
    /// subsequent socket operation.
    ///
    /// # Errors
    ///
    /// The underlying `set_read_timeout`/`set_write_timeout` failures.
    pub fn new(stream: TcpStream, read: Duration, write: Duration) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(write))?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            rbuf: vec![0; READ_CHUNK],
            rpos: 0,
            rend: 0,
            wbuf: Vec::new(),
            writes: 0,
        })
    }

    /// The wrapped stream (for shutdown/addr introspection).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Append `req` to the write queue as one sealed frame, encoded in
    /// place ([`encode_request_into`]). Nothing reaches the socket before
    /// [`Self::flush`].
    pub fn queue_request(&mut self, req: &Request) {
        encode_request_into(req, &mut self.wbuf);
    }

    /// Append `resp` to the write queue as one sealed frame, encoded in
    /// place ([`encode_response_into`]).
    pub fn queue_response(&mut self, resp: &Response) {
        encode_response_into(resp, &mut self.wbuf);
    }

    /// Bytes queued and not yet flushed.
    pub fn queued(&self) -> usize {
        self.wbuf.len()
    }

    /// Write every queued frame with one `write_all`; a no-op on an empty
    /// queue. On error the queue is discarded: part of it may be on the
    /// wire, so the connection is out of step and must be dropped.
    ///
    /// # Errors
    ///
    /// As [`Transport::send_frame`].
    pub fn flush(&mut self) -> Result<(), TransportError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        self.writes += 1;
        let sent = self.stream.write_all(&self.wbuf);
        self.wbuf.clear();
        // A queue beyond one read chunk (a shard snapshot, a long
        // pipeline) grew the buffer; an idle connection does not keep it.
        self.wbuf.shrink_to(READ_CHUNK);
        sent.map_err(|e| io_err("writing queued frames", &e))
    }

    /// Socket writes issued so far (a statistic; tests count coalescing
    /// with it instead of timing it).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Payload length announced by the buffered header, if a whole header
    /// is buffered.
    fn buffered_len(&self) -> Option<usize> {
        let have = &self.rbuf[self.rpos..self.rend];
        // invariant: a 4-byte slice of a checked-length slice converts.
        (have.len() >= HEADER_LEN)
            .then(|| u32::from_le_bytes(have[0..4].try_into().expect("4 bytes")) as usize)
    }

    /// Whether the next [`recv_frame`](Transport::recv_frame) returns a
    /// frame without touching the socket.
    pub fn frame_buffered(&self) -> bool {
        self.buffered_len()
            .is_some_and(|len| len <= MAX_FRAME && self.rend - self.rpos >= HEADER_LEN + len)
    }

    /// Once every buffered byte has been handed out (the last frame lent
    /// is no longer borrowed by now), start the buffer over at its front.
    fn release_drained(&mut self) {
        if self.rpos == self.rend {
            self.rpos = 0;
            self.rend = 0;
            // A frame beyond one read chunk grew the buffer; an idle
            // connection does not keep that.
            if self.rbuf.len() > READ_CHUNK {
                self.rbuf.truncate(READ_CHUNK);
                self.rbuf.shrink_to_fit();
            }
        }
    }

    /// One `read` into the buffer, which must end up holding `want` bytes
    /// from `rpos` for the caller to make progress. The partial frame
    /// moves to the front first, so the free space is always the tail.
    fn fill(&mut self, want: usize) -> Result<(), TransportError> {
        if self.rpos > 0 {
            self.rbuf.copy_within(self.rpos..self.rend, 0);
            self.rend -= self.rpos;
            self.rpos = 0;
        }
        if self.rbuf.len() < want {
            self.rbuf.resize(want, 0);
        }
        match self.stream.read(&mut self.rbuf[self.rend..]) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => {
                self.rend += n;
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(io_err("reading frame", &e)),
        }
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !self.wbuf.is_empty() {
            self.wbuf.extend_from_slice(frame);
            return self.flush();
        }
        self.writes += 1;
        self.stream
            .write_all(frame)
            .map_err(|e| io_err("writing frame", &e))
    }

    fn recv_frame(&mut self) -> Result<&[u8], TransportError> {
        self.release_drained();
        let total = loop {
            let want = match self.buffered_len() {
                None => HEADER_LEN,
                // Checked from the header alone, before the buffer grows.
                Some(len) if len > MAX_FRAME => {
                    return Err(TransportError::Proto(ProtoError::Oversize {
                        len: len as u64,
                    }));
                }
                Some(len) if self.rend - self.rpos >= HEADER_LEN + len => break HEADER_LEN + len,
                Some(len) => HEADER_LEN + len,
            };
            self.fill(want)?;
        };
        let at = self.rpos;
        self.rpos += total;
        Ok(&self.rbuf[at..self.rpos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        encode_request, encode_response, sample_requests, sample_responses, Request,
    };
    use std::net::{Shutdown, TcpListener};

    /// A connected loopback pair: a raw stream to write bytes exactly as
    /// a test wants them segmented, and a transport reading them with
    /// `deadline` on every socket read.
    fn pair(deadline: Duration) -> (TcpStream, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (
            raw,
            TcpTransport::new(accepted, deadline, deadline).unwrap(),
        )
    }

    /// `frame_fuzz`'s representative set, both directions, plus one frame
    /// longer than a read chunk.
    fn frames() -> Vec<Vec<u8>> {
        let mut frames: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
        frames.extend(sample_responses().iter().map(encode_response));
        frames.push(encode_request(&Request::Ingest {
            req_id: 9,
            row: (0..READ_CHUNK / 4).map(|i| i as f64).collect(),
        }));
        frames
    }

    #[test]
    fn frames_survive_any_segmentation() {
        let (mut raw, mut tp) = pair(Duration::from_secs(5));
        let frames = frames();
        let sent = frames.clone();
        let writer = std::thread::spawn(move || {
            // One byte per `write` (the long frame in 1 KB pieces), then
            // the whole set again in bursts of two and five per `write`.
            for frame in &sent {
                let piece = if frame.len() > READ_CHUNK { 1024 } else { 1 };
                for bytes in frame.chunks(piece) {
                    raw.write_all(bytes).unwrap();
                }
            }
            for burst in sent.chunks(2).chain(sent.chunks(5)) {
                raw.write_all(&burst.concat()).unwrap();
            }
        });
        for frame in frames.iter().chain(&frames).chain(&frames) {
            assert_eq!(tp.recv_frame().unwrap(), &frame[..]);
        }
        writer.join().unwrap();
        assert!(!tp.frame_buffered());
        assert_eq!(tp.recv_frame(), Err(TransportError::Closed));
        assert_eq!(
            tp.rbuf.len(),
            READ_CHUNK,
            "the long frame's growth is given back"
        );
    }

    #[test]
    fn a_frame_is_lent_in_place_and_a_long_one_is_given_back_once_drained() {
        let (mut raw, mut tp) = pair(Duration::from_millis(50));
        let long = encode_request(&Request::Ingest {
            req_id: 3,
            row: (0..READ_CHUNK / 2).map(|i| i as f64 - 7.5).collect(),
        });
        let short = encode_request(&Request::Ping { nonce: 4 });
        assert!(long.len() > 4 * READ_CHUNK);
        raw.write_all(&long).unwrap();
        let at = {
            let frame = tp.recv_frame().unwrap();
            assert_eq!(frame, &long[..]);
            frame.as_ptr()
        };
        assert!(tp.rbuf.as_ptr_range().contains(&at), "lent, not copied");
        // Drained, but the frame may still be lent: nothing moves until
        // the next receive.
        assert!(tp.rbuf.len() >= long.len(), "grown to hold the frame");
        assert_eq!(tp.recv_frame(), Err(TransportError::TimedOut));
        assert_eq!(tp.rbuf.len(), READ_CHUNK, "the growth is given back");
        // The buffer starts over at its front and still frames.
        raw.write_all(&short).unwrap();
        assert_eq!(tp.recv_frame().unwrap(), &short[..]);
        assert_eq!(tp.rbuf.len(), READ_CHUNK);
    }

    #[test]
    fn a_queue_is_encoded_in_place_and_a_long_one_is_given_back() {
        let (raw, mut b) = pair(Duration::from_secs(5));
        let mut a = TcpTransport::new(raw, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        let reqs = sample_requests();
        let resps = sample_responses();
        for req in &reqs {
            a.queue_request(req);
        }
        for resp in &resps {
            a.queue_response(resp);
        }
        let long = Response::ShardStateR {
            shard: 0,
            epoch: 1,
            arrivals: 2,
            applied: Vec::new(),
            snapshot: vec![0xA5; 3 * READ_CHUNK],
        };
        a.queue_response(&long);
        a.flush().unwrap();
        assert_eq!(a.writes(), 1);
        assert!(a.wbuf.capacity() <= READ_CHUNK, "the growth is given back");
        for req in &reqs {
            assert_eq!(b.recv_frame().unwrap(), encode_request(req));
        }
        for resp in resps.iter().chain([&long]) {
            assert_eq!(b.recv_frame().unwrap(), encode_response(resp));
        }
    }

    #[test]
    fn a_burst_is_one_read_and_a_queue_is_one_write() {
        let (raw, mut b) = pair(Duration::from_secs(5));
        let mut a = TcpTransport::new(raw, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        let pings: Vec<Vec<u8>> = (0..5)
            .map(|nonce| encode_request(&Request::Ping { nonce }))
            .collect();
        for nonce in 0..5 {
            a.queue_request(&Request::Ping { nonce });
        }
        assert_eq!((a.writes(), a.queued()), (0, pings.concat().len()));
        a.flush().unwrap();
        a.flush().unwrap(); // an empty queue writes nothing
        assert_eq!((a.writes(), a.queued()), (1, 0));
        for (i, ping) in pings.iter().enumerate() {
            assert_eq!(b.recv_frame().unwrap(), &ping[..]);
            // The one segment came in with the first read.
            assert_eq!(b.frame_buffered(), i + 1 < pings.len());
        }
        // `send_frame` behind a non-empty queue keeps the order.
        a.queue_request(&Request::Ping { nonce: 3 });
        a.send_frame(&pings[1]).unwrap();
        assert_eq!(a.writes(), 2);
        assert_eq!(b.recv_frame().unwrap(), &pings[3][..]);
        assert_eq!(b.recv_frame().unwrap(), &pings[1][..]);
    }

    #[test]
    fn a_pause_inside_a_frame_loses_no_byte() {
        let (mut raw, mut tp) = pair(Duration::from_millis(30));
        let first = encode_request(&Request::Ping { nonce: 1 });
        let second = encode_request(&Request::Status);
        // Half a header, then silence past the read deadline.
        raw.write_all(&first[..HEADER_LEN / 2]).unwrap();
        assert_eq!(tp.recv_frame(), Err(TransportError::TimedOut));
        // The rest of the header and half the payload, and silence again.
        let cut = HEADER_LEN + (first.len() - HEADER_LEN) / 2;
        raw.write_all(&first[HEADER_LEN / 2..cut]).unwrap();
        assert_eq!(tp.recv_frame(), Err(TransportError::TimedOut));
        assert!(!tp.frame_buffered());
        raw.write_all(&first[cut..]).unwrap();
        raw.write_all(&second).unwrap();
        assert_eq!(tp.recv_frame().unwrap(), &first[..]);
        assert_eq!(tp.recv_frame().unwrap(), &second[..]);
    }

    #[test]
    fn eof_is_closed_also_inside_a_frame() {
        let frame = encode_request(&Request::Ping { nonce: 1 });
        for cut in [0, HEADER_LEN / 2, HEADER_LEN, frame.len() - 1] {
            let (mut raw, mut tp) = pair(Duration::from_secs(5));
            raw.write_all(&frame[..cut]).unwrap();
            raw.shutdown(Shutdown::Write).unwrap();
            assert_eq!(tp.recv_frame(), Err(TransportError::Closed), "cut {cut}");
        }
    }

    #[test]
    fn an_oversize_header_is_refused_before_the_buffer_grows() {
        let (mut raw, mut tp) = pair(Duration::from_secs(5));
        let ok = encode_request(&Request::Status);
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        raw.write_all(&[&ok[..], &header[..]].concat()).unwrap();
        assert_eq!(tp.recv_frame().unwrap(), &ok[..]);
        assert!(!tp.frame_buffered());
        assert_eq!(
            tp.recv_frame(),
            Err(TransportError::Proto(ProtoError::Oversize {
                len: MAX_FRAME as u64 + 1
            }))
        );
        assert_eq!(tp.rbuf.len(), READ_CHUNK);
    }
}
