//! Malformed-frame fuzzing: the acceptance bar is that **no byte
//! sequence** fed to the frame checker/decoder panics — every mutation
//! of a valid frame, every truncation, and arbitrary garbage must
//! produce a typed [`ProtoError`].
//!
//! The frame format puts the kind byte *inside* the CRC, so every
//! single-bit flip anywhere in a frame — length field, CRC field, kind,
//! or body — is detectable; these tests enforce that exhaustively for
//! every sample frame. Since the CRC stops every such mutation before the
//! decoder runs, the decoder is fuzzed separately: every truncation and
//! bit flip of every sample *payload*, re-framed with a valid CRC, must
//! fail typed or decode to a message that encodes back to exactly it.

use swat_daemon::proto::{
    check_frame, decode_request, decode_response, encode_request, encode_response, sample_requests,
    sample_responses, HEADER_LEN, NO_SHARD,
};
use swat_daemon::{ProtoError, Request, Response};
use swat_tree::codec::crc32;

/// Every sample frame, both directions, with a tag telling the decoder
/// to use.
fn all_frames() -> Vec<(bool, Vec<u8>)> {
    let mut frames: Vec<(bool, Vec<u8>)> = sample_requests()
        .iter()
        .map(|r| (true, encode_request(r)))
        .collect();
    frames.extend(
        sample_responses()
            .iter()
            .map(|r| (false, encode_response(r))),
    );
    frames
}

/// Run the full receive path on `bytes`: frame check, then the decoder
/// a server (`is_request`) or client would apply. Returns whether the
/// bytes were accepted. Must never panic.
fn accepts(is_request: bool, bytes: &[u8]) -> bool {
    match check_frame(bytes) {
        Ok(payload) => {
            if is_request {
                decode_request(payload).is_ok()
            } else {
                decode_response(payload).is_ok()
            }
        }
        Err(_) => false,
    }
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for (is_request, frame) in all_frames() {
        for n in 0..frame.len() {
            assert!(
                !accepts(is_request, &frame[..n]),
                "truncation to {n} of a {}-byte frame was accepted",
                frame.len()
            );
        }
        // The untruncated frame is the control: it must be accepted.
        assert!(accepts(is_request, &frame));
    }
}

#[test]
fn every_single_bit_flip_of_every_frame_is_a_typed_error() {
    for (is_request, frame) in all_frames() {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut mutated = frame.clone();
                mutated[byte] ^= 1 << bit;
                assert!(
                    !accepts(is_request, &mutated),
                    "bit {bit} of byte {byte} flipped in a {}-byte frame was accepted",
                    frame.len()
                );
            }
        }
    }
}

#[test]
fn appended_trailing_bytes_are_a_typed_error() {
    for (is_request, frame) in all_frames() {
        let mut longer = frame.clone();
        longer.push(0);
        assert!(!accepts(is_request, &longer));
    }
}

#[test]
fn random_garbage_never_panics_and_never_parses() {
    // Deterministic xorshift garbage of many lengths, including ones
    // that start with plausible-looking small length prefixes.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in 0..256usize {
        for _ in 0..8 {
            let mut bytes = vec![0u8; len];
            for b in bytes.iter_mut() {
                *b = next() as u8;
            }
            assert!(!accepts(true, &bytes));
            assert!(!accepts(false, &bytes));
            // A consistent length prefix with garbage after it still has
            // to clear the CRC — make the length field plausible.
            if len >= 8 {
                let payload_len = (len - 8) as u32;
                bytes[..4].copy_from_slice(&payload_len.to_le_bytes());
                assert!(!accepts(true, &bytes));
                assert!(!accepts(false, &bytes));
            }
        }
    }
}

#[test]
fn the_sample_set_covers_every_failover_wire_variant() {
    // The truncation/bit-flip sweeps above only protect what the sample
    // set contains; pin the term/epoch-carrying failover messages so a
    // refactor cannot silently drop them from fuzz coverage.
    let reqs = sample_requests();
    assert!(reqs.iter().any(|r| matches!(r, Request::Fenced { .. })));
    assert!(reqs.iter().any(
        |r| matches!(r, Request::Fenced { shard, .. } if *shard == swat_daemon::proto::NO_SHARD)
    ));
    assert!(reqs.iter().any(|r| matches!(r, Request::NewTerm { .. })));
    assert!(reqs.iter().any(|r| matches!(r, Request::Replicate { .. })));
    assert!(reqs.iter().any(|r| matches!(r, Request::FetchShard { .. })));
    assert!(reqs
        .iter()
        .any(|r| matches!(r, Request::InstallShard { .. })));
    assert!(reqs.iter().any(|r| matches!(r, Request::Promote { .. })));
    let resps = sample_responses();
    assert!(resps
        .iter()
        .any(|r| matches!(r, Response::StaleTermR { .. })));
    assert!(resps
        .iter()
        .any(|r| matches!(r, Response::NotLeaderR { .. })));
    assert!(resps.iter().any(|r| matches!(r, Response::SyncR { .. })));
    assert!(resps
        .iter()
        .any(|r| matches!(r, Response::ShardStateR { .. })));
    assert!(resps.iter().any(|r| matches!(r, Response::EpochAck { .. })));
    assert!(resps
        .iter()
        .any(|r| matches!(r, Response::StaleEpochR { .. })));
    assert!(resps
        .iter()
        .any(|r| matches!(r, Response::StatusR { term, .. } if *term > 0)));
}

/// `payload` behind a header whose length and CRC are right for it, so
/// a mutation of the payload reaches the decoder instead of the CRC.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decode a CRC-valid `frame` on the side `is_request` names; a decoded
/// message must encode back to exactly `frame` — one message, one
/// encoding — and anything else must be a typed error.
fn decodes_exactly_or_fails(is_request: bool, frame: &[u8]) -> Result<(), String> {
    let again = check_frame(frame).and_then(|payload| {
        if is_request {
            decode_request(payload).map(|r| encode_request(&r))
        } else {
            decode_response(payload).map(|r| encode_response(&r))
        }
    });
    match again {
        Ok(again) if again != frame => Err(format!("decoded, but re-encodes as {again:02x?}")),
        _ => Ok(()),
    }
}

#[test]
fn every_truncated_payload_reaches_the_decoder_and_fails_typed() {
    for (is_request, frame) in all_frames() {
        let payload = &frame[HEADER_LEN..];
        for n in 0..payload.len() {
            if let Err(why) = decodes_exactly_or_fails(is_request, &framed(&payload[..n])) {
                panic!("{n} of {} payload bytes: {why}", payload.len());
            }
        }
    }
}

#[test]
fn every_bit_flipped_payload_decodes_exactly_or_fails_typed() {
    for (is_request, frame) in all_frames() {
        let payload = &frame[HEADER_LEN..];
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.to_vec();
                mutated[byte] ^= 1 << bit;
                if let Err(why) = decodes_exactly_or_fails(is_request, &framed(&mutated)) {
                    panic!("bit {bit} of payload byte {byte} of {payload:02x?}: {why}");
                }
            }
        }
    }
}

#[test]
fn deeply_nested_fences_are_rejected_without_recursing() {
    // Ten thousand fence headers around one ping: ≈ 290 KB, far inside
    // MAX_FRAME. A decoder that recursed before checking would need far
    // more than the 2 MiB a spawned thread's stack holds.
    const DEPTH: usize = 10_000;
    let mut payload = Vec::with_capacity(DEPTH * 29 + 9);
    for _ in 0..DEPTH {
        payload.push(0x0B); // Fenced
        payload.extend_from_slice(&1u64.to_le_bytes()); // term
        payload.extend_from_slice(&1u64.to_le_bytes()); // leader
        payload.extend_from_slice(&NO_SHARD.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes()); // epoch
    }
    payload.push(0x02); // Ping
    payload.extend_from_slice(&7u64.to_le_bytes()); // nonce
    let frame = framed(&payload);
    let decoded = std::thread::spawn(move || decode_request(check_frame(&frame)?))
        .join()
        .expect("the decoding thread returns");
    assert_eq!(decoded, Err(ProtoError::NestedFence));
}

#[test]
fn the_sample_frames_keep_their_bytes() {
    // Every sample frame, requests then responses, concatenated: the
    // wire format is these bytes, whatever code produces them.
    // Per message first, so a moved pin names the message that moved
    // (the harness shows a test's output only when it fails).
    for (_, frame) in all_frames() {
        println!(
            "kind {:#04x}: {:3} bytes, crc32 {:#010x}",
            frame[HEADER_LEN],
            frame.len(),
            crc32(&frame)
        );
    }
    let bytes: Vec<u8> = all_frames().into_iter().flat_map(|(_, f)| f).collect();
    assert_eq!((bytes.len(), crc32(&bytes)), (1038, 0x2CAD_86D5));
}

#[test]
fn a_kind_byte_is_unknown_exactly_when_no_sample_has_it() {
    // Every one-byte payload, both directions: a kind some sample of that
    // direction carries decodes (a bodiless message) or fails on its
    // missing body; any other is `UnknownKind`. So a table entry without
    // a sample fails here.
    let frames = all_frames();
    for is_request in [true, false] {
        for kind in 0..=u8::MAX {
            let sampled = frames
                .iter()
                .any(|(req, frame)| *req == is_request && frame[HEADER_LEN] == kind);
            let decoded = if is_request {
                decode_request(&[kind]).map(|_| ())
            } else {
                decode_response(&[kind]).map(|_| ())
            };
            assert_eq!(
                decoded == Err(ProtoError::UnknownKind(kind)),
                !sampled,
                "kind {kind:#04x} (request: {is_request}) decodes as {decoded:?}"
            );
        }
    }
    // The two-round top-k's refine pair stays retired: a peer still
    // sending it gets `UnknownKind`, not another message.
    assert_eq!(decode_request(&[0x08]), Err(ProtoError::UnknownKind(0x08)));
    assert_eq!(decode_response(&[0x88]), Err(ProtoError::UnknownKind(0x88)));
}

#[test]
fn hostile_length_fields_are_rejected_without_allocation() {
    // A header claiming a multi-gigabyte payload must be rejected by
    // the MAX_FRAME bound before anyone trusts it.
    for claimed in [u32::MAX, (swat_daemon::MAX_FRAME as u32) + 1] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(!accepts(true, &bytes));
    }
}
