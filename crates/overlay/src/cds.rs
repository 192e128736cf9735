//! The trust-augmented Connected Dominating Set protocol.
//!
//! The classic Wu–Li construction, as self-stabilized in the paper's
//! reference \[21\], with ids as the (unforgeable) goodness number and trust
//! filtering:
//!
//! * **Marking rule** — a node marks itself if it has two neighbours that are
//!   not adjacent to each other (it may be needed to relay between them).
//! * **Pruning rule 1** — step out of the overlay if a single *trusted*,
//!   *marked* neighbour with a higher id covers the whole neighbourhood.
//! * **Pruning rule 2** — step out if two adjacent *trusted*, *marked*
//!   neighbours, both with higher ids, jointly cover the neighbourhood.
//!
//! Pruning compares against neighbours' advertised **marked** flags, not
//! their roles: marking depends only on the topology, so the comparison set
//! is stable and concurrent pruning rounds cannot disconnect the cover — the
//! original Wu–Li correctness argument. (Pruning against *roles* oscillates:
//! two nodes can each step out relying on the other's stale active state.)
//!
//! Trust filtering (the paper's `overlay_trust`): *untrusted* neighbours are
//! excluded entirely — we neither cover them nor let them cover us.
//! Neighbours of *unknown* trust must still be covered but are not accepted
//! as coverers; this is how "a Byzantine node can cause correct nodes to
//! unnecessarily join the overlay, but it cannot destroy the connectivity of
//! the overlay w.r.t. correct nodes".

use byzcast_fd::TrustLevel;
use byzcast_sim::NodeId;

use crate::neighbors::NeighborTable;
use crate::{OverlayDecision, OverlayProtocol, OverlayRole, TrustView};

/// The CDS overlay rule (stateless: a pure function of the local view).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cds;

impl OverlayProtocol for Cds {
    fn decide(&self, me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> OverlayDecision {
        // Neighbours to cover (trusted + unknown; sorted, since table
        // iteration is id-ordered) with their advertised lists, which the
        // table keeps sorted, and the candidate coverers among them —
        // trusted, advertised-*marked*, higher id — as indices into
        // `must_cover`. Untrusted nodes do not exist for us.
        let mut must_cover: Vec<NodeId> = Vec::with_capacity(table.len());
        let mut lists: Vec<&[NodeId]> = Vec::with_capacity(table.len());
        let mut coverers: Vec<usize> = Vec::with_capacity(table.len());
        for (id, info) in table.iter() {
            match trust.level(id) {
                TrustLevel::Untrusted => continue,
                TrustLevel::Unknown => {}
                TrustLevel::Trusted => {
                    if id > me && info.marked {
                        coverers.push(must_cover.len());
                    }
                }
            }
            must_cover.push(id);
            lists.push(&info.neighbors);
        }
        if must_cover.len() < 2 {
            return OverlayDecision::passive(); // nothing to relay between
        }

        // Marking rule: two considered neighbours not adjacent to each other,
        // where adjacency (as in `NeighborTable::are_adjacent`) holds if
        // either endpoint advertises the other. Instead of probing all
        // d²/2 pairs, walk each neighbour u's sorted advertised list once
        // against the sorted `must_cover` to find the members u does *not*
        // advertise, and only those few candidates fall back to a reverse
        // lookup. In the dense (unmarked) case — the common one, and the one
        // with no early exit — this is O(Σ(d + |N(u)|)) instead of
        // O(d² log d).
        let marked = 'outer: {
            for (a, &u) in must_cover.iter().enumerate() {
                let nu = lists[a];
                let mut i = 0;
                for (b, &v) in must_cover.iter().enumerate() {
                    if b == a {
                        continue;
                    }
                    while i < nu.len() && nu[i] < v {
                        i += 1;
                    }
                    let u_advertises_v = i < nu.len() && nu[i] == v;
                    if !u_advertises_v && lists[b].binary_search(&u).is_err() {
                        break 'outer true; // the pair (u, v) is not adjacent
                    }
                }
            }
            false
        };
        // `decide` must stay a pure function of the table: debug-check the
        // walk against the naive pairwise rule.
        debug_assert_eq!(marked, {
            let mut naive = false;
            'naive: for (i, &u) in must_cover.iter().enumerate() {
                for &v in &must_cover[i + 1..] {
                    if !table.are_adjacent(u, v) {
                        naive = true;
                        break 'naive;
                    }
                }
            }
            naive
        });
        if !marked {
            return OverlayDecision::passive();
        }
        let pruned = OverlayDecision {
            role: OverlayRole::Passive,
            marked: true,
        };

        // Pruning on closed-cover bitmasks: bit k of coverer q's mask is set
        // iff `must_cover[k]` ∈ N(q) ∪ {q}, built with one merge walk. Rule 1
        // asks whether q's mask is full; rule 2 whether q and an earlier
        // coverer p are adjacent (either mask holds the other's bit) and
        // their masks' union is full. Any hit gives the same decision, so
        // checking the rules per coverer instead of rule 1 for all first
        // changes nothing.
        let words = must_cover.len().div_ceil(64);
        let tail = match must_cover.len() % 64 {
            0 => u64::MAX,
            r => (1u64 << r) - 1,
        };
        let full = |w: usize| if w + 1 == words { tail } else { u64::MAX };
        let has = |mask: &[u64], k: usize| mask[k / 64] >> (k % 64) & 1 == 1;
        let mut masks = vec![0u64; coverers.len() * words];
        for (j, &q) in coverers.iter().enumerate() {
            let (earlier, mask) = masks.split_at_mut(j * words);
            let mask = &mut mask[..words];
            let nq = lists[q];
            let mut i = 0;
            for (k, &n) in must_cover.iter().enumerate() {
                while i < nq.len() && nq[i] < n {
                    i += 1;
                }
                if k == q || (i < nq.len() && nq[i] == n) {
                    mask[k / 64] |= 1 << (k % 64);
                }
            }
            if (0..words).all(|w| mask[w] == full(w)) {
                return pruned; // rule 1
            }
            for (other, &p) in earlier.chunks_exact(words).zip(&coverers) {
                if (has(mask, p) || has(other, q))
                    && (0..words).all(|w| mask[w] | other[w] == full(w))
                {
                    return pruned; // rule 2
                }
            }
        }
        OverlayDecision {
            role: OverlayRole::Dominator,
            marked: true,
        }
    }

    fn name(&self) -> &'static str {
        "cds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapTrust;
    use byzcast_sim::{SimDuration, SimTime};
    use proptest::prelude::*;

    /// Builds a table for node `me` in a given undirected edge list: `me`'s
    /// entry contains each neighbour with its own full adjacency advertised.
    fn view(me: u32, edges: &[(u32, u32)], roles: &[(u32, OverlayRole)]) -> NeighborTable {
        let now = SimTime::from_secs(1);
        let mut t = NeighborTable::new(SimDuration::from_secs(60));
        let neighbors_of = |x: u32| -> Vec<NodeId> {
            edges
                .iter()
                .filter_map(|&(a, b)| {
                    if a == x {
                        Some(NodeId(b))
                    } else if b == x {
                        Some(NodeId(a))
                    } else {
                        None
                    }
                })
                .collect()
        };
        for q in neighbors_of(me) {
            let role = roles
                .iter()
                .find(|(id, _)| *id == q.0)
                .map(|(_, r)| *r)
                .unwrap_or(OverlayRole::Dominator); // assume active by default
            t.record_beacon(now, q, role, &neighbors_of(q.0), &[]);
        }
        t
    }

    #[test]
    fn isolated_or_single_neighbor_is_passive() {
        let t = NeighborTable::new(SimDuration::from_secs(60));
        assert_eq!(
            Cds.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Passive
        );
        let t = view(0, &[(0, 1)], &[]);
        assert_eq!(
            Cds.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Passive
        );
    }

    #[test]
    fn middle_of_a_path_marks_itself() {
        // 0 - 1 - 2: node 1 must relay.
        let t = view(1, &[(0, 1), (1, 2)], &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn triangle_members_are_passive() {
        // Complete triangle: nobody needs to relay.
        let edges = [(0, 1), (1, 2), (0, 2)];
        for me in 0..3 {
            let t = view(me, &edges, &[]);
            assert_eq!(
                Cds.decide(NodeId(me), &t, &MapTrust::default()).role,
                OverlayRole::Passive,
                "node {me}"
            );
        }
    }

    #[test]
    fn pruning_rule_1_yields_to_higher_id() {
        // Nodes 1 and 9 both see {0, 2}; 0-2 not adjacent. 9 has the higher
        // id and covers everything node 1 covers, so 1 prunes itself.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Passive
        );
        // And 9 stays (1 has a lower id, so it cannot prune 9).
        let t9 = view(9, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(9), &t9, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn pruning_rule_1_requires_active_coverer() {
        // Same topology, but 9 advertises passive: 1 must stay in.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[(9, OverlayRole::Passive)]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn pruning_rule_2_pair_coverage() {
        // Node 1 sees 0, 2, 8, 9. Higher-id pair (8, 9) is adjacent and
        // together covers {0, 2}: 1 prunes itself.
        let edges = [(1, 0), (1, 2), (1, 8), (1, 9), (8, 0), (9, 2), (8, 9)];
        let t1 = view(1, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Passive
        );
    }

    #[test]
    fn untrusted_coverer_cannot_prune_us() {
        // As in rule-1 test, but 9 is untrusted: 1 must not rely on it.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Untrusted);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn unknown_coverer_cannot_prune_us_either() {
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Unknown);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn untrusted_neighbors_need_no_coverage() {
        // 1's only non-adjacent pair involves untrusted 2: with 2 excluded,
        // remaining neighbours {0, 3} are adjacent, so 1 is passive.
        let edges = [(1, 0), (1, 2), (1, 3), (0, 3)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(2), TrustLevel::Untrusted);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Passive
        );
        // Without the distrust, 1 must be a dominator (0-2 and 2-3 gaps).
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    /// Which rule settled a decision in [`pairwise_reference`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Outcome {
        Unmarked,
        Rule1,
        Rule2,
        Dominator,
    }

    impl Outcome {
        fn decision(self) -> OverlayDecision {
            let (role, marked) = match self {
                Outcome::Unmarked => (OverlayRole::Passive, false),
                Outcome::Rule1 | Outcome::Rule2 => (OverlayRole::Passive, true),
                Outcome::Dominator => (OverlayRole::Dominator, true),
            };
            OverlayDecision { role, marked }
        }
    }

    /// The CDS rules as literally stated, over pairs of neighbours: the
    /// reference the bitmask pruning in [`Cds::decide`] must equal.
    fn pairwise_reference(me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> Outcome {
        let considered: Vec<(NodeId, TrustLevel)> = table
            .iter()
            .map(|(id, _)| (id, trust.level(id)))
            .filter(|&(_, level)| level != TrustLevel::Untrusted)
            .collect();
        let must_cover: Vec<NodeId> = considered.iter().map(|&(id, _)| id).collect();
        let marked = must_cover.iter().enumerate().any(|(i, &u)| {
            must_cover[i + 1..]
                .iter()
                .any(|&v| !table.are_adjacent(u, v))
        });
        if must_cover.len() < 2 || !marked {
            return Outcome::Unmarked;
        }
        let marked_higher: Vec<NodeId> = considered
            .iter()
            .filter(|&&(q, level)| {
                level == TrustLevel::Trusted && q > me && table.info(q).is_some_and(|i| i.marked)
            })
            .map(|&(q, _)| q)
            .collect();
        let in_closed =
            |q: NodeId, n: NodeId| n == q || table.info(q).unwrap().neighbors.contains(&n);
        for &q in &marked_higher {
            if must_cover.iter().all(|&n| in_closed(q, n)) {
                return Outcome::Rule1;
            }
        }
        for (i, &q) in marked_higher.iter().enumerate() {
            for &r in &marked_higher[i + 1..] {
                if table.are_adjacent(q, r)
                    && must_cover
                        .iter()
                        .all(|&n| in_closed(q, n) || in_closed(r, n))
                {
                    return Outcome::Rule2;
                }
            }
        }
        Outcome::Dominator
    }

    /// A random neighbourhood of `degree` neighbours for a random `me`, with
    /// random trust levels and marked flags. Most neighbours advertise a
    /// random share of the others; some advertise everything (in half the
    /// neighbourhoods), or everything below or above a pivot, so single and
    /// paired covers both occur; and some are Byzantine, advertising
    /// unsorted lists with repeats and strangers.
    fn random_neighbourhood(seed: u64, degree: usize) -> (NodeId, NeighborTable, MapTrust) {
        let mut rng = proptest::strategy::TestRng::new(seed);
        let me = NodeId(rng.below(300) as u32);
        let mut ids: Vec<NodeId> = Vec::new();
        while ids.len() < degree {
            let id = NodeId(rng.below(400) as u32);
            if id != me && !ids.contains(&id) {
                ids.push(id);
            }
        }
        let density = rng.below(101);
        // Without full lists, pruning can only come from paired covers.
        let full_lists = rng.below(2) == 0;
        let pivot = NodeId(rng.below(400) as u32);
        let mut table = NeighborTable::new(SimDuration::from_secs(60));
        let mut trust = MapTrust::default();
        let now = SimTime::from_secs(1);
        for &q in &ids {
            let others = ids.iter().copied().filter(|&n| n != q);
            let mut list: Vec<NodeId> = match rng.below(8) {
                0 if full_lists => others.collect(),
                1 => others.filter(|&n| n <= pivot).collect(),
                2 => others.filter(|&n| n >= pivot).collect(),
                _ => others.filter(|_| rng.below(100) < density).collect(),
            };
            if rng.below(10) == 0 {
                for _ in 0..rng.below(6) {
                    let k = rng.below(list.len() as u64 + 1) as usize;
                    let extra = match rng.below(3) {
                        0 => me,
                        1 => NodeId(rng.below(500) as u32),
                        _ => list.get(k).copied().unwrap_or(q),
                    };
                    list.insert(k.min(list.len()), extra);
                }
                list.reverse();
            }
            let level = match rng.below(10) {
                0 | 1 => TrustLevel::Unknown,
                2 => TrustLevel::Untrusted,
                _ => TrustLevel::Trusted,
            };
            trust.0.insert(q, level);
            let role = if rng.below(2) == 0 {
                OverlayRole::Dominator
            } else {
                OverlayRole::Passive
            };
            table.record_beacon_marked(now, q, role, rng.below(3) != 0, &list, &[]);
        }
        (me, table, trust)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Bitmask pruning decides exactly what the pairwise rules decide,
        /// on neighbourhoods spanning one to three mask words.
        #[test]
        fn bitmask_pruning_equals_pairwise_reference(seed in any::<u64>(), degree in 0usize..151) {
            let (me, table, trust) = random_neighbourhood(seed, degree);
            prop_assert_eq!(
                Cds.decide(me, &table, &trust),
                pairwise_reference(me, &table, &trust).decision()
            );
        }
    }

    /// The generator behind the property test reaches every outcome, with
    /// each rule deciding at every mask width.
    #[test]
    fn random_neighbourhoods_reach_every_outcome() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..600u64 {
            let (me, table, trust) = random_neighbourhood(seed, (seed % 151) as usize);
            let outcome = pairwise_reference(me, &table, &trust);
            let considered = table
                .iter()
                .filter(|&(id, _)| trust.level(id) != TrustLevel::Untrusted)
                .count();
            seen.insert((outcome, considered.div_ceil(64)));
        }
        for outcome in [Outcome::Rule1, Outcome::Rule2, Outcome::Dominator] {
            for words in 1..=3 {
                assert!(
                    seen.contains(&(outcome, words)),
                    "{outcome:?} never decided with {words} mask words: {seen:?}"
                );
            }
        }
        assert!(seen.iter().any(|&(o, _)| o == Outcome::Unmarked));
    }
}
