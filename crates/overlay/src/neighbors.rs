//! The neighbour table: each node's two-hop view of the network, built from
//! periodic signed beacons.
//!
//! "Every correct overlay node periodically publishes this fact to its
//! neighbors, so in particular, each overlay node eventually knows about all
//! its correct overlay neighbors." Beacons carry the sender's overlay role,
//! its one-hop neighbour list (giving receivers a two-hop view, which the
//! Wu–Li rules need), the list of its active neighbours (the paper: "p
//! records for each neighbor the list of its active neighbors"), and its
//! current suspicions (consumed by the TRUST detector, not stored here).
//! Entries expire when beacons stop arriving, which is how departed or mute
//! neighbours fall out of the view.

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::OverlayRole;

/// What one beacon told us about a neighbour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// When the most recent beacon from this neighbour arrived.
    pub last_heard: SimTime,
    /// The neighbour's advertised overlay role.
    pub role: OverlayRole,
    /// The neighbour's advertised Wu–Li *marked* flag (role-independent;
    /// what CDS pruning rules compare against).
    pub marked: bool,
    /// The neighbour's advertised one-hop neighbour set, sorted ascending
    /// and deduplicated (so membership is a binary search and iteration
    /// order matches the former `BTreeSet` representation exactly).
    pub neighbors: Vec<NodeId>,
    /// The neighbour's advertised *dominator* neighbours (used by the MIS+B
    /// bridge rule to find dominators two hops away). Sorted ascending and
    /// deduplicated.
    pub dominator_neighbors: Vec<NodeId>,
}

/// A node's view of its one-hop neighbourhood (and, through advertised
/// lists, its two-hop neighbourhood).
///
/// ```
/// use byzcast_overlay::{NeighborTable, OverlayRole};
/// use byzcast_sim::{NodeId, SimDuration, SimTime};
///
/// let mut table = NeighborTable::new(SimDuration::from_secs(3));
/// table.record_beacon(
///     SimTime::from_secs(1),
///     NodeId(2),
///     OverlayRole::Dominator,
///     &[NodeId(1), NodeId(3)],
///     &[NodeId(3)],
/// );
/// assert!(table.contains(NodeId(2)));
/// assert!(table.are_adjacent(NodeId(2), NodeId(3)));
/// table.prune(SimTime::from_secs(10)); // beacons stopped: entry expires
/// assert!(table.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NeighborTable {
    timeout: SimDuration,
    /// Live neighbour ids, ascending (the former `BTreeMap` iteration
    /// order). Kept apart from `infos` so a lookup's binary search reads
    /// only the dense id array, not the much larger entries.
    ids: Vec<NodeId>,
    /// `infos[i]` describes `ids[i]`.
    infos: Vec<NeighborInfo>,
    /// A lower bound on every entry's `last_heard` ([`SimTime::MAX`] when
    /// the table is empty): `prune` has nothing to do while even this bound
    /// is within the timeout. That holds for 88 % of `prune` calls on the
    /// `mute-mobile` benchmark, whose recovery envelope prunes every fd
    /// tick, and for about half of them on `sig-flood` and `dense-scale`.
    oldest: SimTime,
}

impl NeighborTable {
    /// Creates a table whose entries expire `timeout` after their last
    /// beacon.
    pub fn new(timeout: SimDuration) -> Self {
        NeighborTable {
            timeout,
            ids: Vec::new(),
            infos: Vec::new(),
            oldest: SimTime::MAX,
        }
    }

    /// The expiry timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Records a beacon heard from `from`.
    pub fn record_beacon(
        &mut self,
        now: SimTime,
        from: NodeId,
        role: OverlayRole,
        neighbors: &[NodeId],
        dominator_neighbors: &[NodeId],
    ) {
        self.record_beacon_marked(
            now,
            from,
            role,
            role.is_active(),
            neighbors,
            dominator_neighbors,
        );
    }

    /// Records a beacon carrying an explicit marked flag. The lists may
    /// arrive in any order and with repeats (a Byzantine sender's need not
    /// be canonical); the table stores them sorted and deduplicated.
    pub fn record_beacon_marked(
        &mut self,
        now: SimTime,
        from: NodeId,
        role: OverlayRole,
        marked: bool,
        neighbors: &[NodeId],
        dominator_neighbors: &[NodeId],
    ) {
        self.oldest = self.oldest.min(now);
        let pos = match self.ids.binary_search(&from) {
            Ok(pos) => pos,
            Err(pos) => {
                self.ids.insert(pos, from);
                self.infos.insert(
                    pos,
                    NeighborInfo {
                        last_heard: now,
                        role,
                        marked,
                        neighbors: Vec::new(),
                        dominator_neighbors: Vec::new(),
                    },
                );
                pos
            }
        };
        let info = &mut self.infos[pos];
        info.last_heard = now;
        info.role = role;
        info.marked = marked;
        // Re-fill in place on refresh: a periodic beacon then costs no
        // allocation once the entry's lists have grown to their working size.
        // (Most refreshes carry a changed list, so comparing first does not
        // pay: 96 % of receptions on `mute-mobile`, 85 % on `sig-flood`.)
        for (list, new) in [
            (&mut info.neighbors, neighbors),
            (&mut info.dominator_neighbors, dominator_neighbors),
        ] {
            list.clear();
            list.extend_from_slice(new);
            list.sort_unstable();
            list.dedup();
        }
    }

    /// Drops entries whose last beacon is older than the timeout.
    pub fn prune(&mut self, now: SimTime) {
        let timeout = self.timeout;
        if now.saturating_since(self.oldest) <= timeout {
            return;
        }
        let mut kept = 0;
        self.oldest = SimTime::MAX;
        for i in 0..self.ids.len() {
            let heard = self.infos[i].last_heard;
            if now.saturating_since(heard) <= timeout {
                self.ids.swap(kept, i);
                self.infos.swap(kept, i);
                self.oldest = self.oldest.min(heard);
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.infos.truncate(kept);
    }

    /// Removes a neighbour outright (e.g. on conclusive misbehaviour).
    pub fn remove(&mut self, node: NodeId) {
        // `oldest` stays a valid lower bound: removal only raises the
        // minimum.
        if let Ok(pos) = self.ids.binary_search(&node) {
            self.ids.remove(pos);
            self.infos.remove(pos);
        }
    }

    /// The live neighbour ids, in increasing order.
    pub fn neighbor_ids(&self) -> Vec<NodeId> {
        self.ids.clone()
    }

    /// Info for a specific neighbour.
    pub fn info(&self, node: NodeId) -> Option<&NeighborInfo> {
        self.ids
            .binary_search(&node)
            .ok()
            .map(|pos| &self.infos[pos])
    }

    /// Iterates `(id, info)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborInfo)> {
        self.ids.iter().copied().zip(&self.infos)
    }

    /// Whether `node` is currently a live neighbour.
    pub fn contains(&self, node: NodeId) -> bool {
        self.ids.binary_search(&node).is_ok()
    }

    /// Number of live neighbours.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether, according to advertised lists, `a` and `b` are adjacent.
    /// Falls back to `false` when neither endpoint's list is known.
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        if let Some(ia) = self.info(a) {
            if ia.neighbors.binary_search(&b).is_ok() {
                return true;
            }
        }
        if let Some(ib) = self.info(b) {
            if ib.neighbors.binary_search(&a).is_ok() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> NeighborTable {
        NeighborTable::new(SimDuration::from_secs(3))
    }

    #[test]
    fn record_and_query() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_beacon(
            now,
            NodeId(2),
            OverlayRole::Dominator,
            &[NodeId(1), NodeId(3)],
            &[NodeId(3)],
        );
        assert!(t.contains(NodeId(2)));
        assert_eq!(t.len(), 1);
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!(info.role, OverlayRole::Dominator);
        assert!(info.neighbors.contains(&NodeId(3)));
        assert!(info.dominator_neighbors.contains(&NodeId(3)));
    }

    #[test]
    fn prune_evicts_stale_entries() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.record_beacon(
            SimTime::from_secs(5),
            NodeId(3),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.prune(SimTime::from_secs(5));
        assert!(!t.contains(NodeId(2)), "stale entry survived");
        assert!(t.contains(NodeId(3)));
    }

    #[test]
    fn newer_beacon_replaces_older() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.record_beacon(
            SimTime::from_secs(2),
            NodeId(2),
            OverlayRole::Bridge,
            &[NodeId(9)],
            &[],
        );
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!(info.role, OverlayRole::Bridge);
        assert_eq!(info.last_heard, SimTime::from_secs(2));
        assert!(info.neighbors.contains(&NodeId(9)));
    }

    #[test]
    fn adjacency_uses_either_endpoints_list() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_beacon(now, NodeId(2), OverlayRole::Passive, &[NodeId(3)], &[]);
        t.record_beacon(now, NodeId(3), OverlayRole::Passive, &[], &[]);
        assert!(t.are_adjacent(NodeId(2), NodeId(3)));
        assert!(t.are_adjacent(NodeId(3), NodeId(2)));
        assert!(!t.are_adjacent(NodeId(3), NodeId(4)));
    }

    #[test]
    fn neighbor_ids_are_sorted() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        for id in [5u32, 1, 3] {
            t.record_beacon(now, NodeId(id), OverlayRole::Passive, &[], &[]);
        }
        assert_eq!(t.neighbor_ids(), vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn remove_is_immediate() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.remove(NodeId(2));
        assert!(t.is_empty());
    }

    /// The ids and infos stay paired and ascending, as checked against a
    /// sorted reference.
    fn assert_ids(t: &NeighborTable, expected: &std::collections::BTreeSet<u32>) {
        let expected: Vec<NodeId> = expected.iter().map(|&id| NodeId(id)).collect();
        assert_eq!(t.neighbor_ids(), expected);
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), expected);
        for &id in &expected {
            // Each entry advertises its own id, so a mismatched pairing shows.
            assert_eq!(t.info(id).map(|i| i.neighbors.as_slice()), Some(&[id][..]));
        }
    }

    #[test]
    fn expiry_is_inclusive_of_the_timeout() {
        let us = SimDuration::from_micros(1);
        let timeout = SimDuration::from_secs(3);
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        let setup = || {
            let mut t = table();
            t.record_beacon(t1, NodeId(1), OverlayRole::Passive, &[], &[]);
            t.record_beacon(t2, NodeId(2), OverlayRole::Passive, &[], &[]);
            t
        };

        // Plain: node 1 is exactly `timeout` old at t1 + timeout.
        let mut t = setup();
        t.prune(t1 + timeout);
        assert!(t.contains(NodeId(1)) && t.contains(NodeId(2)));
        t.prune(t1 + timeout + us);
        assert!(!t.contains(NodeId(1)) && t.contains(NodeId(2)));

        // After the oldest entry is refreshed, node 2 is the oldest: its
        // boundary holds even though the bound still remembers t1.
        let mut t = setup();
        t.record_beacon(
            SimTime::from_secs(4),
            NodeId(1),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.prune(t2 + timeout);
        assert!(t.contains(NodeId(1)) && t.contains(NodeId(2)));
        t.prune(t2 + timeout + us);
        assert!(t.contains(NodeId(1)) && !t.contains(NodeId(2)));

        // After the oldest entry is removed, likewise.
        let mut t = setup();
        t.remove(NodeId(1));
        t.prune(t2 + timeout);
        assert!(t.contains(NodeId(2)));
        t.prune(t2 + timeout + us);
        assert!(t.is_empty());

        // An entry recorded with an older time than the rest still expires
        // on time.
        let mut t = setup();
        t.record_beacon(
            SimTime::from_micros(999_999),
            NodeId(3),
            OverlayRole::Passive,
            &[],
            &[],
        );
        t.prune(t1 + timeout);
        assert!(!t.contains(NodeId(3)) && t.contains(NodeId(1)));
    }

    #[test]
    fn unchanged_beacon_moves_only_last_heard() {
        let mut t = table();
        let lists = ([NodeId(1), NodeId(4)], [NodeId(4)]);
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Dominator,
            &lists.0,
            &lists.1,
        );
        let before = t.info(NodeId(2)).unwrap().clone();
        t.record_beacon(
            SimTime::from_secs(2),
            NodeId(2),
            OverlayRole::Dominator,
            &lists.0,
            &lists.1,
        );
        let after = t.info(NodeId(2)).unwrap();
        assert_eq!(after.last_heard, SimTime::from_secs(2));
        assert_eq!(
            *after,
            NeighborInfo {
                last_heard: SimTime::from_secs(2),
                ..before
            }
        );
    }

    #[test]
    fn changed_lists_are_stored_sorted_and_deduplicated() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_beacon(now, NodeId(2), OverlayRole::Passive, &[NodeId(1)], &[]);
        // A non-canonical list (as a Byzantine sender may advertise).
        let messy = [NodeId(7), NodeId(3), NodeId(7), NodeId(1), NodeId(3)];
        t.record_beacon_marked(now, NodeId(2), OverlayRole::Passive, true, &messy, &messy);
        let info = t.info(NodeId(2)).unwrap();
        assert!(info.marked);
        assert_eq!(info.neighbors, vec![NodeId(1), NodeId(3), NodeId(7)]);
        assert_eq!(info.dominator_neighbors, info.neighbors);
        // The same messy list again leaves the canonical form in place.
        t.record_beacon_marked(now, NodeId(2), OverlayRole::Passive, true, &messy, &[]);
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!(info.neighbors, vec![NodeId(1), NodeId(3), NodeId(7)]);
        assert!(info.dominator_neighbors.is_empty());
        // A role change alone is recorded too.
        t.record_beacon(now, NodeId(2), OverlayRole::Bridge, &messy, &[]);
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!((info.role, info.marked), (OverlayRole::Bridge, true));
    }

    #[test]
    fn ids_stay_ascending_under_interleaved_inserts_and_removes() {
        let mut t = NeighborTable::new(SimDuration::from_secs(60));
        let mut reference = std::collections::BTreeSet::new();
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..2000u64 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let id = ((lcg >> 33) % 64) as u32;
            if (lcg >> 20).is_multiple_of(3) {
                t.remove(NodeId(id));
                reference.remove(&id);
            } else {
                let now = SimTime::from_millis(step);
                t.record_beacon(now, NodeId(id), OverlayRole::Passive, &[NodeId(id)], &[]);
                reference.insert(id);
            }
            assert_ids(&t, &reference);
        }
    }
}
