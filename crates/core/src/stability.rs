//! Stability detection — the purging alternative the paper mentions but
//! does not use: "Messages can be purged either after a timeout, or by using
//! a stability detection mechanism. In this work, we have chosen to use
//! timeout based purging due to its simplicity." (§3.2.2)
//!
//! This module supplies the mechanism the authors deferred: a message is
//! *stable* at node `p` once every current (trusted) neighbour of `p` has
//! been observed holding it — by transmitting it, or by advertising it in a
//! gossip. A stable message no longer needs `p` as a recovery source for its
//! one-hop neighbourhood, so its body can be purged early and its gossip
//! stopped, shrinking buffers below the §3.5 timeout bound. The timeout
//! remains as a backstop (a neighbour that never gossips would otherwise pin
//! buffers forever).

use std::collections::BTreeMap;

use byzcast_sim::NodeId;

use crate::message::MessageId;

/// Which purging policy the message store follows.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PurgePolicy {
    /// The paper's choice: purge bodies `purge_after` after reception.
    #[default]
    Timeout,
    /// The paper's deferred alternative: purge as soon as every current
    /// neighbour has been observed holding the message (with the timeout as
    /// a backstop).
    Stability,
}

/// Tracks, per buffered message, which nodes have been observed holding it.
/// Holder sets are sorted vectors (observations arrive hot, once per gossip
/// entry per reception; a vector's binary-search insert beats a tree set at
/// neighbourhood sizes, and iteration order stays ascending).
///
/// Its only reader is the [`PurgePolicy::Stability`] purge, so a node builds
/// one only under that policy; under [`PurgePolicy::Timeout`] receptions pay
/// no holder bookkeeping at all.
#[derive(Debug, Default)]
pub struct StabilityTracker {
    holders: BTreeMap<MessageId, Vec<NodeId>>,
}

impl StabilityTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        StabilityTracker::default()
    }

    /// Records that `node` has been observed holding `id` — it transmitted
    /// the message, or gossiped its signature ("p only gossips about
    /// messages it has already received").
    pub fn observe_holder(&mut self, id: MessageId, node: NodeId) {
        let h = self.holders.entry(id).or_default();
        if let Err(pos) = h.binary_search(&node) {
            h.insert(pos, node);
        }
    }

    /// Whether every node in `neighbors` has been observed holding `id`.
    /// Vacuously true for an empty neighbour set only if the message was
    /// observed at all (otherwise unknown ids would count as stable).
    pub fn is_stable<'a>(
        &self,
        id: MessageId,
        mut neighbors: impl Iterator<Item = &'a NodeId>,
    ) -> bool {
        match self.holders.get(&id) {
            Some(h) => neighbors.all(|n| h.binary_search(n).is_ok()),
            None => false,
        }
    }

    /// The observed holders of `id`, in ascending id order.
    pub fn holders(&self, id: MessageId) -> impl Iterator<Item = NodeId> + '_ {
        self.holders.get(&id).into_iter().flatten().copied()
    }

    /// Drops tracking state for every id not retained by `keep` (call after
    /// purging bodies).
    pub fn retain(&mut self, mut keep: impl FnMut(MessageId) -> bool) {
        self.holders.retain(|&id, _| keep(id));
    }

    /// Number of tracked messages.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(seq: u64) -> MessageId {
        MessageId::new(NodeId(0), seq)
    }

    #[test]
    fn unobserved_message_is_never_stable() {
        let t = StabilityTracker::new();
        let nbrs = [NodeId(1), NodeId(2)];
        assert!(!t.is_stable(id(1), nbrs.iter()));
    }

    #[test]
    fn stable_once_all_neighbors_hold_it() {
        let mut t = StabilityTracker::new();
        let nbrs = [NodeId(1), NodeId(2)];
        t.observe_holder(id(1), NodeId(1));
        assert!(!t.is_stable(id(1), nbrs.iter()));
        t.observe_holder(id(1), NodeId(2));
        assert!(t.is_stable(id(1), nbrs.iter()));
        // A new neighbour appearing makes it unstable again.
        let nbrs3 = [NodeId(1), NodeId(2), NodeId(3)];
        assert!(!t.is_stable(id(1), nbrs3.iter()));
    }

    #[test]
    fn holders_are_queryable_and_forgettable() {
        let mut t = StabilityTracker::new();
        t.observe_holder(id(1), NodeId(5));
        t.observe_holder(id(1), NodeId(6));
        assert_eq!(t.holders(id(1)).count(), 2);
        assert_eq!(t.len(), 1);
        t.retain(|_| false);
        assert!(t.is_empty());
        assert_eq!(t.holders(id(1)).count(), 0);
    }

    #[test]
    fn retain_prunes_stale_ids() {
        let mut t = StabilityTracker::new();
        t.observe_holder(id(1), NodeId(1));
        t.observe_holder(id(2), NodeId(1));
        t.retain(|m| m.seq == 2);
        assert_eq!(t.len(), 1);
        assert!(t.is_stable(id(2), [NodeId(1)].iter()));
    }

    #[test]
    fn duplicate_observations_are_idempotent() {
        let mut t = StabilityTracker::new();
        t.observe_holder(id(1), NodeId(1));
        t.observe_holder(id(1), NodeId(1));
        assert_eq!(t.holders(id(1)).count(), 1);
    }
}
