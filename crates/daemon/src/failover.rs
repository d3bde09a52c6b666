//! Term arithmetic and the shard assignment table — the pure math under
//! leader failover and standby promotion.
//!
//! # Terms without a quorum
//!
//! Terms are drawn from **per-node residue classes**: in an `n`-node
//! cluster, node `i` may only ever claim terms `t` with `t % n == i`.
//! Two distinct nodes therefore *cannot* claim the same term — "no two
//! leaders in one term" holds by construction, with no voting round.
//! What a node must still guarantee is monotonicity across restarts,
//! which is why the current term is a durable
//! [`swat_store::NodeMeta`] record written before the claim is spoken.
//!
//! Bootstrap is term 0 led by node 0 (`0 % n == 0`, so the rule covers
//! the initial state too).
//!
//! # The assignment table
//!
//! [`Assignment`] maps each shard to its primary, optional standby, and
//! a **configuration epoch** that bumps on every membership change. All
//! shard traffic is stamped with the epoch ([`crate::proto::
//! Request::Fenced`]); a holder at the wrong epoch answers
//! `StaleEpochR`, so a row can never land on a configuration the leader
//! has moved past. The bootstrap layout wraps standbys around the ring:
//! shard `s` is primary on node `s + 1` and standby on the next replica
//! over, so every replica is primary for one shard and standby for
//! another.

/// The node entitled to claim `term` in an `n`-node cluster.
///
/// # Panics
///
/// Panics if `nodes == 0` (a cluster has at least one node).
pub fn term_owner(nodes: u64, term: u64) -> u64 {
    assert!(nodes > 0, "a cluster has at least one node");
    term % nodes
}

/// The smallest term greater than `current` that `claimant` is entitled
/// to claim — the term a node adopts when it promotes itself.
///
/// # Panics
///
/// Panics if `claimant >= nodes`.
pub fn next_term(nodes: u64, current: u64, claimant: u64) -> u64 {
    assert!(claimant < nodes, "claimant must be a cluster node");
    let base = current - (current % nodes); // current's residue-0 floor
    let candidate = base + claimant;
    if candidate > current {
        candidate
    } else {
        candidate + nodes
    }
}

/// One shard's configuration: who serves it, who stands by, and the
/// epoch fencing both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlot {
    /// Configuration epoch; bumps on every membership change.
    pub epoch: u64,
    /// The serving node, or `None` while the shard is unavailable
    /// (primary died with no promotable standby).
    pub primary: Option<u64>,
    /// The warm standby receiving replicated rows, if any.
    pub standby: Option<u64>,
}

/// The leader's authoritative shard → nodes table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    slots: Vec<ShardSlot>,
}

impl Assignment {
    /// The bootstrap layout without standbys (the PR 7 topology): shard
    /// `s` on node `s + 1`, nothing standing by.
    pub fn solo(shards: usize) -> Assignment {
        Assignment {
            slots: (0..shards)
                .map(|s| ShardSlot {
                    epoch: 0,
                    primary: Some(s as u64 + 1),
                    standby: None,
                })
                .collect(),
        }
    }

    /// The bootstrap layout with ring standbys: shard `s` is primary on
    /// node `s + 1` and standby on node `((s + 1) % shards) + 1`. With
    /// one shard the ring closes on itself, so there is no standby.
    pub fn ring(shards: usize) -> Assignment {
        Assignment {
            slots: (0..shards)
                .map(|s| {
                    let primary = s as u64 + 1;
                    let standby = ((s + 1) % shards) as u64 + 1;
                    ShardSlot {
                        epoch: 0,
                        primary: Some(primary),
                        standby: (standby != primary).then_some(standby),
                    }
                })
                .collect(),
        }
    }

    /// Build from explicit slots (a freshly elected leader's rebuild).
    pub fn from_slots(slots: Vec<ShardSlot>) -> Assignment {
        Assignment { slots }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Shard `s`'s slot.
    pub fn slot(&self, shard: usize) -> ShardSlot {
        self.slots[shard]
    }

    /// Every `(shard, slot)` pair, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, ShardSlot)> + '_ {
        self.slots.iter().copied().enumerate()
    }

    /// Promote shard `s`'s standby to primary under a bumped epoch (the
    /// primary died). Returns the new slot, or `None` if there is no
    /// standby to promote — in which case the shard goes unavailable
    /// (`primary = None`), still under a bumped epoch so a returning
    /// stale primary stays fenced out.
    pub fn promote_standby(&mut self, shard: usize) -> Option<ShardSlot> {
        let slot = &mut self.slots[shard];
        slot.epoch += 1;
        match slot.standby.take() {
            Some(s) => {
                slot.primary = Some(s);
                Some(*slot)
            }
            None => {
                slot.primary = None;
                None
            }
        }
    }

    /// Drop shard `s`'s standby (it died) under a bumped epoch, so rows
    /// ack on the primary alone — and a promoted copy of the *dropped*
    /// standby can never serve, because promotion only ever names the
    /// assignment's current standby.
    pub fn drop_standby(&mut self, shard: usize) -> ShardSlot {
        let slot = &mut self.slots[shard];
        slot.epoch += 1;
        slot.standby = None;
        *slot
    }

    /// Install `node` as shard `s`'s standby under a bumped epoch (a
    /// rejoined node, freshly seeded with the primary's state).
    pub fn set_standby(&mut self, shard: usize, node: u64) -> ShardSlot {
        let slot = &mut self.slots[shard];
        slot.epoch += 1;
        slot.standby = Some(node);
        *slot
    }

    /// Adopt a higher epoch observed on a holder (a `StaleEpochR` whose
    /// epoch is ahead of ours — possible when a prior leader bumped the
    /// slot and died before telling anyone else).
    pub fn adopt_epoch(&mut self, shard: usize, epoch: u64) {
        let slot = &mut self.slots[shard];
        if epoch > slot.epoch {
            slot.epoch = epoch;
        }
    }

    /// The shards `node` currently appears in, as `(shard, is_primary)`.
    pub fn roles_of(&self, node: u64) -> Vec<(usize, bool)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| {
                if slot.primary == Some(node) {
                    Some((s, true))
                } else if slot.standby == Some(node) {
                    Some((s, false))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_classes_never_collide() {
        // No two distinct claimants can ever produce the same term, from
        // any pair of starting points — the no-split-brain kernel.
        let nodes = 5u64;
        for cur_a in 0..30 {
            for cur_b in 0..30 {
                for a in 0..nodes {
                    for b in 0..nodes {
                        if a == b {
                            continue;
                        }
                        assert_ne!(
                            next_term(nodes, cur_a, a),
                            next_term(nodes, cur_b, b),
                            "nodes {a} and {b} from terms {cur_a}/{cur_b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_term_is_minimal_monotone_and_owned() {
        let nodes = 4u64;
        for current in 0..40 {
            for claimant in 0..nodes {
                let t = next_term(nodes, current, claimant);
                assert!(t > current, "monotone");
                assert_eq!(term_owner(nodes, t), claimant, "owned");
                // Minimal: nothing smaller works.
                for smaller in (current + 1)..t {
                    assert_ne!(term_owner(nodes, smaller), claimant);
                }
            }
        }
        // Bootstrap consistency: term 0 belongs to node 0.
        assert_eq!(term_owner(nodes, 0), 0);
    }

    #[test]
    fn ring_layout_gives_every_replica_two_roles() {
        let a = Assignment::ring(3);
        assert_eq!(
            a.slot(0),
            ShardSlot {
                epoch: 0,
                primary: Some(1),
                standby: Some(2)
            }
        );
        assert_eq!(a.slot(1).standby, Some(3));
        assert_eq!(a.slot(2).standby, Some(1), "ring wraps");
        for node in 1..=3u64 {
            let roles = a.roles_of(node);
            assert_eq!(roles.len(), 2, "node {node}");
            assert_eq!(roles.iter().filter(|(_, p)| *p).count(), 1);
        }
        // One shard: the ring closes on itself, no standby.
        assert_eq!(Assignment::ring(1).slot(0).standby, None);
        assert_eq!(Assignment::solo(2).slot(1).standby, None);
    }

    #[test]
    fn membership_changes_always_bump_the_epoch() {
        let mut a = Assignment::ring(2);
        let slot = a.promote_standby(0).expect("standby exists");
        assert_eq!(slot.epoch, 1);
        assert_eq!(slot.primary, Some(2));
        assert_eq!(slot.standby, None);
        // No standby left: promotion fails but the epoch still bumps,
        // fencing out a returning stale primary.
        assert_eq!(a.promote_standby(0), None);
        assert_eq!(a.slot(0).epoch, 2);
        assert_eq!(a.slot(0).primary, None);
        // Drop and reinstall a standby on the other shard.
        assert_eq!(a.drop_standby(1).epoch, 1);
        let slot = a.set_standby(1, 2);
        assert_eq!((slot.epoch, slot.standby), (2, Some(2)));
        // Epoch adoption only moves forward.
        a.adopt_epoch(1, 1);
        assert_eq!(a.slot(1).epoch, 2);
        a.adopt_epoch(1, 9);
        assert_eq!(a.slot(1).epoch, 9);
    }
}
