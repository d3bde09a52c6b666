//! Per-node durable state through the `swat-store` checksummed image
//! codec.
//!
//! The chaos driver models some node state as surviving a crash. Before
//! this module, that state ("the subscription directory") simply stayed
//! in the simulator's memory — durable by fiat, with no on-media format
//! at all. Now every byte that survives a crash round-trips through
//! [`swat_store::image`], the same checksummed container the durability
//! layer uses on disk, so the simulation exercises a real codec path.
//! Only the subscription directory survives; approximations, epochs, and
//! staleness are rebuilt from the network. Encoding at the crash instant
//! is equivalent to write-through persistence because every mutation
//! precedes the crash.
//!
//! Restoring tolerates corrupt images by falling back to total loss of
//! the volatile-or-damaged portion — degraded, never unsound.

use swat_net::NodeId;
use swat_store::{read_image, ImageWriter};

use crate::approx::SegmentApprox;
use crate::asr::SwatAsr;

/// Record tag: a segment's durable directory entry (subscribers only).
const TAG_DIRECTORY: u8 = 1;

/// Encode `node`'s subscription directory, one image record per segment
/// in segment order.
pub(crate) fn encode_node<A: SegmentApprox>(asr: &SwatAsr<A>, node: NodeId) -> Vec<u8> {
    let mut image = ImageWriter::new();
    for seg in 0..asr.segments().len() {
        let row = asr.row(node, seg);
        let mut payload = Vec::new();
        payload.extend_from_slice(&(row.subscribed.len() as u64).to_le_bytes());
        for &child in &row.subscribed {
            payload.extend_from_slice(&(child.index() as u64).to_le_bytes());
        }
        image.record(TAG_DIRECTORY, &payload);
    }
    image.finish()
}

/// Restore `node`'s durable state from `bytes` into zeroed rows. Returns
/// `false` (leaving the rows in their crash-zeroed state) if the image or
/// any record fails to verify or parse — corruption costs the replicas,
/// never correctness.
pub(crate) fn restore_node<A: SegmentApprox>(
    asr: &mut SwatAsr<A>,
    node: NodeId,
    bytes: &[u8],
) -> bool {
    let Ok(records) = read_image(bytes) else {
        return false;
    };
    if records.len() != asr.segments().len() {
        return false;
    }
    // Parse everything before mutating anything, so a bad record cannot
    // leave the node half-restored.
    let mut parsed = Vec::with_capacity(records.len());
    for (tag, payload) in &records {
        let Some(row) = parse_record(*tag, payload) else {
            return false;
        };
        parsed.push(row);
    }
    for (seg, subscribed) in parsed.into_iter().enumerate() {
        asr.row_mut(node, seg).subscribed = subscribed;
    }
    true
}

/// A directory record's subscribers; `None` on any other tag or any
/// malformed payload.
fn parse_record(tag: u8, payload: &[u8]) -> Option<Vec<NodeId>> {
    let u64_at = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(
            payload.get(at..at + 8)?.try_into().ok()?,
        ))
    };
    let count = usize::try_from(u64_at(0)?).ok()?;
    if tag != TAG_DIRECTORY || count > payload.len() / 8 || payload.len() != 8 + 8 * count {
        return None;
    }
    (0..count)
        .map(|i| Some(NodeId(usize::try_from(u64_at(8 + 8 * i)?).ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::RangeApprox;
    use swat_net::Topology;

    fn asr() -> SwatAsr<RangeApprox> {
        let topo = Topology::from_parents(vec![None, Some(0), Some(1)]).unwrap();
        let mut asr = SwatAsr::new(topo, 16);
        for i in 0..40 {
            asr.ingest((i as f64 * 0.3).sin() * 4.0);
        }
        asr
    }

    #[test]
    fn directory_image_restores_only_subscriptions() {
        let mut asr = asr();
        let node = NodeId(1);
        asr.row_mut(node, 0).subscribed = vec![NodeId(2)];
        asr.row_mut(node, 0).seq = 5;
        let image = encode_node(&asr, node);
        for seg in 0..asr.segments().len() {
            let row = asr.row_mut(node, seg);
            row.subscribed.clear();
            row.seq = 0;
        }
        assert!(restore_node(&mut asr, node, &image));
        assert_eq!(asr.row(node, 0).subscribed, vec![NodeId(2)]);
        assert_eq!(asr.row(node, 0).seq, 0, "epochs are volatile");
    }

    #[test]
    fn corrupt_images_restore_nothing_and_never_panic() {
        let mut asr = asr();
        let node = NodeId(1);
        asr.row_mut(node, 0).subscribed = vec![NodeId(2)];
        let image = encode_node(&asr, node);
        for cut in 0..image.len() {
            assert!(!restore_node(&mut asr, node, &image[..cut]), "cut {cut}");
        }
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1 << bit;
                assert!(!restore_node(&mut asr, node, &bad), "flip {byte}.{bit}");
            }
        }
    }
}
