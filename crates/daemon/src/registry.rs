//! The leader's peer registry: heartbeat-driven health states.
//!
//! Health is a three-state machine per tracked peer:
//!
//! ```text
//!            miss                    miss (total ≥ threshold)
//!   Alive ─────────▶ Suspect ─────────────────▶ Dead
//!     ▲                │  ▲                       │
//!     └────────────────┘  └───────────────────────┘
//!          success                 success
//! ```
//!
//! `Dead` is what the fan-out skips and the repair pass promotes
//! around; a `Dead` peer that answers again is simply `Alive`.
//!
//! Any node can lead a term, so the registry tracks an explicit peer-id
//! set ([`ReplicaRegistry::tracking`]): a freshly promoted node 2
//! tracks `{0, 1, 3, ...}`, not the bootstrap leader's `1..=shards`.

use crate::proto::WireHealth;

/// Per-peer detector state.
#[derive(Debug, Clone, Copy)]
struct ReplicaState {
    health: WireHealth,
    misses: u32,
}

/// Health tracking for the peers of whichever node currently leads.
#[derive(Debug)]
pub struct ReplicaRegistry {
    peers: Vec<u64>,
    states: Vec<ReplicaState>,
    miss_threshold: u32,
}

impl ReplicaRegistry {
    /// The bootstrap-leader registry: a star of `replicas` replicas with
    /// ids `1..=replicas` (the node 0 leader tracks everyone else), all
    /// initially [`WireHealth::Alive`]. `miss_threshold` consecutive
    /// heartbeat misses mark a replica [`WireHealth::Dead`].
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or `miss_threshold == 0`.
    pub fn new(replicas: usize, miss_threshold: u32) -> Self {
        Self::tracking((1..=replicas as u64).collect(), miss_threshold)
    }

    /// A registry over an explicit peer-id set (ascending), for leaders
    /// that are not node 0. Peers start [`WireHealth::Alive`].
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty, unsorted, or `miss_threshold == 0`.
    pub fn tracking(peers: Vec<u64>, miss_threshold: u32) -> Self {
        assert!(!peers.is_empty(), "need at least one peer");
        assert!(peers.windows(2).all(|w| w[0] < w[1]), "peers ascending");
        assert!(miss_threshold > 0, "need a positive miss threshold");
        let states = vec![
            ReplicaState {
                health: WireHealth::Alive,
                misses: 0,
            };
            peers.len()
        ];
        ReplicaRegistry {
            peers,
            states,
            miss_threshold,
        }
    }

    /// Number of peers tracked.
    pub fn replicas(&self) -> usize {
        self.states.len()
    }

    /// Whether `node` is one of the tracked peers.
    pub fn tracks(&self, node: u64) -> bool {
        self.peers.binary_search(&node).is_ok()
    }

    /// Current health of peer `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not tracked (the registry owner itself, or an
    /// id outside the cluster).
    pub fn health(&self, node: u64) -> WireHealth {
        self.states[self.slot(node)].health
    }

    /// `(node, health)` for every tracked peer, ascending by node id —
    /// the payload of a leader `Status` response.
    pub fn statuses(&self) -> Vec<(u64, WireHealth)> {
        self.peers
            .iter()
            .zip(&self.states)
            .map(|(&n, s)| (n, s.health))
            .collect()
    }

    /// Peers currently not `Dead`.
    pub fn live_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| s.health != WireHealth::Dead)
            .count()
    }

    /// A heartbeat (or any request) to `node` succeeded: reset the miss
    /// counter. Returns the new health (always [`WireHealth::Alive`]).
    pub fn record_success(&mut self, node: u64) -> WireHealth {
        let slot = self.slot(node);
        self.states[slot] = ReplicaState {
            health: WireHealth::Alive,
            misses: 0,
        };
        WireHealth::Alive
    }

    /// A heartbeat (or request) to `node` failed. One miss makes an
    /// `Alive` peer `Suspect`; reaching the threshold makes it `Dead`.
    /// Returns the new health.
    pub fn record_failure(&mut self, node: u64) -> WireHealth {
        let slot = self.slot(node);
        let s = &mut self.states[slot];
        s.misses = s.misses.saturating_add(1);
        s.health = if s.misses >= self.miss_threshold {
            WireHealth::Dead
        } else {
            WireHealth::Suspect
        };
        s.health
    }

    /// Mark `node` dead outright (election bootstrap: a peer that never
    /// answered the term claim is dead to the new leader, no grace
    /// heartbeats owed). Returns the new health.
    pub fn record_dead(&mut self, node: u64) -> WireHealth {
        for _ in 0..self.miss_threshold {
            self.record_failure(node);
        }
        self.states[self.slot(node)].health
    }

    fn slot(&self, node: u64) -> usize {
        self.peers
            .binary_search(&node)
            // invariant: callers only name peers out of this registry's
            // own statuses()/tracking set; an unknown id is a caller bug,
            // not reachable from network input (ids are checked against
            // `tracks` on every wire-driven path).
            .expect("node id is a tracked peer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_transitions_follow_the_state_machine() {
        let mut r = ReplicaRegistry::new(3, 3);
        assert_eq!(r.health(2), WireHealth::Alive);
        assert_eq!(r.record_failure(2), WireHealth::Suspect);
        assert_eq!(r.record_failure(2), WireHealth::Suspect);
        assert_eq!(r.record_failure(2), WireHealth::Dead);
        assert_eq!(r.live_count(), 2);
        // Staying dead on further misses.
        assert_eq!(r.record_failure(2), WireHealth::Dead);
        // One answer brings it back.
        assert_eq!(r.record_success(2), WireHealth::Alive);
        assert_eq!(r.live_count(), 3);
    }

    #[test]
    fn one_success_resets_the_miss_count() {
        let mut r = ReplicaRegistry::new(1, 2);
        r.record_failure(1);
        r.record_success(1);
        assert_eq!(r.record_failure(1), WireHealth::Suspect, "count reset");
    }

    #[test]
    fn statuses_cover_every_replica_in_order() {
        let mut r = ReplicaRegistry::new(2, 1);
        r.record_failure(2);
        assert_eq!(
            r.statuses(),
            vec![(1, WireHealth::Alive), (2, WireHealth::Dead)]
        );
    }

    #[test]
    fn arbitrary_peer_sets_track_by_id() {
        // Node 2 leads a 4-node cluster: it tracks {0, 1, 3}.
        let mut r = ReplicaRegistry::tracking(vec![0, 1, 3], 2);
        assert!(r.tracks(0) && r.tracks(3) && !r.tracks(2));
        assert_eq!(r.record_dead(0), WireHealth::Dead);
        assert_eq!(
            r.statuses(),
            vec![
                (0, WireHealth::Dead),
                (1, WireHealth::Alive),
                (3, WireHealth::Alive)
            ]
        );
        assert_eq!(r.live_count(), 2);
    }
}
