//! Versioned, repairable spanning trees.
//!
//! The paper's replication model (§3) assumes a fixed spanning tree; a
//! crashed interior node therefore silently partitions its subtree.
//! [`DynamicTopology`] wraps an immutable [`Topology`] with the repair
//! operations the self-healing layer needs:
//!
//! * **Re-parenting** ([`DynamicTopology::reparent`]): an orphaned child
//!   detaches from its suspect parent and adopts a new one. The adopter
//!   must not lie inside the child's own subtree, so the structure stays
//!   a tree rooted at the source — attempts to create a cycle are typed
//!   errors, and the healing protocol only ever adopts a *current
//!   ancestor* of the child ([`DynamicTopology::nearest_live_ancestor`]
//!   walks the live path toward the source), which cannot cycle by
//!   construction.
//! * **Rejoin** ([`DynamicTopology::note_rejoin`]): a recovered node
//!   re-enters the tree where it stands — typically as a leaf, since its
//!   orphans re-parented away during the outage — and the event is
//!   recorded so the driver can re-sync its segment directory.
//!
//! Every mutation bumps a version counter and emits a typed
//! [`RepairEvent`], so metrics and tests can audit exactly how the tree
//! evolved. All read accessors mirror [`Topology`]'s; a freshly wrapped
//! tree answers identically to its base.

use std::fmt;

use crate::topology::{NodeId, Topology};

/// What a [`RepairEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// `node` left `old_parent` for `new_parent` (failure repair).
    Reparent,
    /// `node` recovered and re-entered the tree under its current
    /// parent (`old_parent == new_parent`); `as_leaf` says whether all
    /// of its children had re-parented away by then.
    Rejoin {
        /// Whether the node came back with no remaining children.
        as_leaf: bool,
    },
}

/// One audited mutation of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEvent {
    /// Tree version after this mutation (the wrapped base is version 0).
    pub version: u64,
    /// Simulation tick the repair happened at.
    pub at: u64,
    /// The node that moved or rejoined.
    pub node: NodeId,
    /// Its parent before the mutation.
    pub old_parent: NodeId,
    /// Its parent after the mutation.
    pub new_parent: NodeId,
    /// Reparent or rejoin.
    pub kind: RepairKind,
}

/// Errors from [`DynamicTopology::reparent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairError {
    /// The source has no parent to repair.
    SourceChild,
    /// A node index is out of range.
    OutOfRange {
        /// The offending index.
        node: usize,
    },
    /// Adopting this parent would create a cycle (it lies inside the
    /// child's subtree, or is the child itself).
    WouldCycle,
    /// The proposed parent already is the current parent.
    Unchanged,
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::SourceChild => write!(f, "the source cannot be re-parented"),
            RepairError::OutOfRange { node } => write!(f, "node {node} is out of range"),
            RepairError::WouldCycle => {
                write!(f, "adopting a node of the child's own subtree would cycle")
            }
            RepairError::Unchanged => write!(f, "already the current parent"),
        }
    }
}

impl std::error::Error for RepairError {}

/// A rooted spanning tree that can be repaired at runtime.
///
/// Wraps a base [`Topology`] (kept for reference) with mutable
/// parent/child tables, a version counter, and a typed event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicTopology {
    base: Topology,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    version: u64,
    events: Vec<RepairEvent>,
}

impl DynamicTopology {
    /// Wrap `base`; the dynamic tree starts identical to it (version 0).
    pub fn new(base: Topology) -> Self {
        let parent: Vec<Option<NodeId>> = base.nodes().map(|n| base.parent(n)).collect();
        let children: Vec<Vec<NodeId>> = base.nodes().map(|n| base.children(n).to_vec()).collect();
        DynamicTopology {
            base,
            parent,
            children,
            version: 0,
            events: Vec::new(),
        }
    }

    /// The immutable tree this started from.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// Version counter: 0 for the pristine base, +1 per mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Every repair so far, in order.
    pub fn events(&self) -> &[RepairEvent] {
        &self.events
    }

    /// Total nodes including the source.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// A topology always contains at least the source.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of clients (everything but the source).
    pub fn client_count(&self) -> usize {
        self.len() - 1
    }

    /// Current parent of `node` (`None` for the source).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Current children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// Whether `node` is the source.
    pub fn is_source(&self, node: NodeId) -> bool {
        node.index() == 0
    }

    /// Whether `node` currently has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children[node.index()].is_empty()
    }

    /// All node ids, source first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// All client ids (everything but the source).
    pub fn clients(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.len()).map(NodeId)
    }

    /// Hops from `node` up to the source on the current tree.
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            cur = p;
            d += 1;
        }
        d
    }

    /// The current path from `node` to the source, excluding `node`,
    /// starting with its parent.
    pub fn path_to_source(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The first node on `node`'s current path to the source for which
    /// `is_down` is false. Falls back to the source, which is always
    /// live in the fault model. Ancestors of `node` can never be inside
    /// its subtree, so adopting the result cannot create a cycle.
    pub fn nearest_live_ancestor(
        &self,
        node: NodeId,
        mut is_down: impl FnMut(NodeId) -> bool,
    ) -> NodeId {
        for cand in self.path_to_source(node) {
            if !is_down(cand) {
                return cand;
            }
        }
        NodeId::SOURCE
    }

    /// Detach `child` from its current parent and attach it under
    /// `new_parent`, bumping the version and recording a
    /// [`RepairKind::Reparent`] event. The event is returned by value
    /// (it is `Copy`), built before it is appended to the log — there is
    /// no "read back what was just pushed" step that could panic.
    ///
    /// # Errors
    ///
    /// [`RepairError::SourceChild`] for the source,
    /// [`RepairError::OutOfRange`] for invalid ids,
    /// [`RepairError::WouldCycle`] if `new_parent` sits in `child`'s
    /// subtree (or is `child`), [`RepairError::Unchanged`] if nothing
    /// would change.
    pub fn reparent(
        &mut self,
        at: u64,
        child: NodeId,
        new_parent: NodeId,
    ) -> Result<RepairEvent, RepairError> {
        if child.index() >= self.len() {
            return Err(RepairError::OutOfRange {
                node: child.index(),
            });
        }
        if new_parent.index() >= self.len() {
            return Err(RepairError::OutOfRange {
                node: new_parent.index(),
            });
        }
        let Some(old_parent) = self.parent(child) else {
            return Err(RepairError::SourceChild);
        };
        if new_parent == old_parent {
            return Err(RepairError::Unchanged);
        }
        // Walk from the proposed parent to the source; passing through
        // the child means the proposal is inside the child's subtree.
        let mut cur = new_parent;
        loop {
            if cur == child {
                return Err(RepairError::WouldCycle);
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        self.children[old_parent.index()].retain(|&c| c != child);
        self.children[new_parent.index()].push(child);
        self.parent[child.index()] = Some(new_parent);
        Ok(self.record(RepairEvent {
            version: self.version + 1,
            at,
            node: child,
            old_parent,
            new_parent,
            kind: RepairKind::Reparent,
        }))
    }

    /// Record that `node` recovered and re-entered the tree in place
    /// (its structure is unchanged; orphans that left during the outage
    /// already produced their own reparent events). Bumps the version
    /// and returns the [`RepairKind::Rejoin`] event by value.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn note_rejoin(&mut self, at: u64, node: NodeId) -> RepairEvent {
        let parent = self.parent(node).unwrap_or(NodeId::SOURCE);
        self.record(RepairEvent {
            version: self.version + 1,
            at,
            node,
            old_parent: parent,
            new_parent: parent,
            kind: RepairKind::Rejoin {
                as_leaf: self.is_leaf(node),
            },
        })
    }

    /// Commit one already-built event: bump the version to the event's
    /// and append it to the log. Returning the value that was pushed —
    /// rather than re-reading `events.last()` — keeps the repair layer
    /// free of reachable-panic paths.
    fn record(&mut self, ev: RepairEvent) -> RepairEvent {
        debug_assert_eq!(ev.version, self.version + 1);
        self.version = ev.version;
        self.events.push(ev);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node must reach the source without revisiting anything.
    fn assert_is_tree(t: &DynamicTopology) {
        for node in t.nodes() {
            let mut seen = vec![false; t.len()];
            let mut cur = node;
            seen[cur.index()] = true;
            while let Some(p) = t.parent(cur) {
                assert!(!seen[p.index()], "cycle through {p}");
                seen[p.index()] = true;
                cur = p;
            }
            assert!(t.is_source(cur), "{node} is disconnected");
        }
        // Parent and child tables agree.
        for node in t.nodes() {
            for &c in t.children(node) {
                assert_eq!(t.parent(c), Some(node));
            }
        }
        let edges: usize = t.nodes().map(|n| t.children(n).len()).sum();
        assert_eq!(edges, t.client_count());
    }

    #[test]
    fn starts_identical_to_base() {
        let base = Topology::complete_binary(2);
        let dyn_t = DynamicTopology::new(base.clone());
        assert_eq!(dyn_t.version(), 0);
        assert!(dyn_t.events().is_empty());
        for n in base.nodes() {
            assert_eq!(dyn_t.parent(n), base.parent(n));
            assert_eq!(dyn_t.children(n), base.children(n));
            assert_eq!(dyn_t.depth(n), base.depth(n));
            assert_eq!(dyn_t.path_to_source(n), base.path_to_source(n));
        }
        assert_eq!(dyn_t.len(), base.len());
        assert!(!dyn_t.is_empty());
    }

    #[test]
    fn reparent_moves_subtree_and_logs_event() {
        // chain S - C1 - C2 - C3: orphan C2 adopts its grandparent S.
        let mut t = DynamicTopology::new(Topology::chain(3));
        let ev = t.reparent(42, NodeId(2), NodeId::SOURCE).unwrap();
        assert_eq!(ev.version, 1);
        assert_eq!(ev.at, 42);
        assert_eq!(ev.node, NodeId(2));
        assert_eq!(ev.old_parent, NodeId(1));
        assert_eq!(ev.new_parent, NodeId::SOURCE);
        assert_eq!(ev.kind, RepairKind::Reparent);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId::SOURCE));
        assert!(t.is_leaf(NodeId(1)));
        // C3 rode along under C2.
        assert_eq!(t.depth(NodeId(3)), 2);
        assert_is_tree(&t);
    }

    #[test]
    fn reparent_rejects_cycles_and_noops() {
        let mut t = DynamicTopology::new(Topology::chain(3));
        assert_eq!(
            t.reparent(0, NodeId(1), NodeId(2)),
            Err(RepairError::WouldCycle),
            "C2 is inside C1's subtree"
        );
        assert_eq!(
            t.reparent(0, NodeId(1), NodeId(1)),
            Err(RepairError::WouldCycle)
        );
        assert_eq!(
            t.reparent(0, NodeId(2), NodeId(1)),
            Err(RepairError::Unchanged)
        );
        assert_eq!(
            t.reparent(0, NodeId::SOURCE, NodeId(1)),
            Err(RepairError::SourceChild)
        );
        assert_eq!(
            t.reparent(0, NodeId(9), NodeId(1)),
            Err(RepairError::OutOfRange { node: 9 })
        );
        assert_eq!(
            t.reparent(0, NodeId(1), NodeId(9)),
            Err(RepairError::OutOfRange { node: 9 })
        );
        assert_eq!(t.version(), 0, "failed repairs must not mutate");
        assert_is_tree(&t);
        for e in [
            RepairError::SourceChild,
            RepairError::OutOfRange { node: 9 },
            RepairError::WouldCycle,
            RepairError::Unchanged,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn nearest_live_ancestor_walks_past_down_nodes() {
        // chain S - C1 - C2 - C3.
        let t = DynamicTopology::new(Topology::chain(3));
        let down = |dead: Vec<NodeId>| move |n: NodeId| dead.contains(&n);
        assert_eq!(
            t.nearest_live_ancestor(NodeId(3), down(vec![])),
            NodeId(2),
            "live parent is the nearest ancestor"
        );
        assert_eq!(
            t.nearest_live_ancestor(NodeId(3), down(vec![NodeId(2)])),
            NodeId(1),
            "grandparent fallback"
        );
        assert_eq!(
            t.nearest_live_ancestor(NodeId(3), down(vec![NodeId(1), NodeId(2)])),
            NodeId::SOURCE
        );
    }

    #[test]
    fn rejoin_notes_leaf_status() {
        let mut t = DynamicTopology::new(Topology::chain(3));
        t.reparent(10, NodeId(2), NodeId::SOURCE).unwrap();
        let ev = t.note_rejoin(20, NodeId(1));
        assert_eq!(ev.kind, RepairKind::Rejoin { as_leaf: true });
        assert_eq!(ev.old_parent, ev.new_parent);
        assert_eq!(t.version(), 2);
        let ev = t.note_rejoin(21, NodeId(2));
        assert_eq!(ev.kind, RepairKind::Rejoin { as_leaf: false });
        assert_eq!(t.events().len(), 3);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary sequences of ancestor-adoptions keep the
            /// structure a tree: cycles are impossible by construction.
            #[test]
            fn ancestor_adoption_preserves_treeness(
                n in 2usize..20,
                seed in 0u64..1000,
                moves in prop::collection::vec((1usize..64, 0usize..64), 0..24),
            ) {
                let mut t = DynamicTopology::new(Topology::random_tree(n, seed));
                for (at, (child, skip)) in moves.into_iter().enumerate() {
                    let child = NodeId(1 + child % n);
                    let path = t.path_to_source(child);
                    let target = path[skip % path.len()];
                    match t.reparent(at as u64, child, target) {
                        Ok(_) | Err(RepairError::Unchanged) => {}
                        Err(e) => prop_assert!(false, "ancestor adoption failed: {e}"),
                    }
                    assert_is_tree(&t);
                }
                // Version counts exactly the successful mutations.
                prop_assert_eq!(t.version(), t.events().len() as u64);
            }
        }
    }
}
