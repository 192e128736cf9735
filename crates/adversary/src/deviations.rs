//! The deviations of protocol-speaking adversaries, and the constructor
//! names that build each as a [`Deviant`].

use byzcast_core::message::{GossipMsg, RequestMsg, WireMsg};
use byzcast_core::ByzcastNode;
use byzcast_overlay::{NeighborTable, OverlayDecision, OverlayProtocol, OverlayRole, TrustView};
use byzcast_sim::node::Action;
use byzcast_sim::{Context, NodeId, Protocol, SimDuration, TimerKey};

use crate::{Deviant, Deviation};

/// An overlay "rule" that always claims membership — injected into wrapped
/// nodes so their beacons advertise `Dominator` regardless of topology.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysDominator;

impl OverlayProtocol for AlwaysDominator {
    fn decide(&self, _: NodeId, _: &NeighborTable, _: &dyn TrustView) -> OverlayDecision {
        OverlayDecision {
            role: OverlayRole::Dominator,
            marked: true,
        }
    }
    fn name(&self) -> &'static str {
        "always-dominator"
    }
}

fn claim_dominator(inner: &mut ByzcastNode) {
    inner.set_overlay_protocol(Box::new(AlwaysDominator));
}

/// What a [`Mute`] node refuses to transmit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MutePolicy {
    /// Drop data forwards and recovery responses; keep gossiping (the node
    /// even advertises messages it will not forward).
    #[default]
    DropData,
    /// Drop data *and* gossip; keep only beacons (fully mute on the data
    /// plane but still claiming overlay membership).
    DropDataAndGossip,
    /// Drop everything, including beacons (quickly ages out of neighbour
    /// tables; the weakest mute variant).
    DropEverything,
}

/// Mute: participates in overlay maintenance but silently drops data-plane
/// traffic per its policy. As a standing adversary ([`MuteNode`]) it also
/// claims to be an overlay dominator, so correct neighbours defer to it.
#[derive(Clone, Copy, Debug)]
pub struct Mute(pub MutePolicy);

impl Mute {
    /// Applies the policy to one outgoing frame: pass it through, rewrite it
    /// (strip gossip entries, keep the piggybacked beacon), or drop it.
    fn filter(self, msg: WireMsg) -> Option<WireMsg> {
        match (self.0, msg) {
            (
                MutePolicy::DropData,
                WireMsg::Data(_) | WireMsg::Request(_) | WireMsg::FindMissing(_),
            ) => None,
            (MutePolicy::DropData, other) => Some(other),
            (MutePolicy::DropDataAndGossip, msg @ WireMsg::Beacon(_)) => Some(msg),
            // Keep claiming overlay membership, but stop advertising the
            // messages it refuses to serve.
            (MutePolicy::DropDataAndGossip, WireMsg::Gossip(g)) if g.beacon.is_some() => {
                Some(WireMsg::Gossip(GossipMsg {
                    entries: vec![],
                    beacon: g.beacon,
                }))
            }
            (MutePolicy::DropDataAndGossip | MutePolicy::DropEverything, _) => None,
        }
    }
}

impl Deviation<ByzcastNode> for Mute {
    fn prepare(&mut self, inner: &mut ByzcastNode) {
        claim_dominator(inner);
    }
    fn deviate(
        &mut self,
        _: &mut Context<'_, WireMsg>,
        action: Action<WireMsg>,
    ) -> Option<Action<WireMsg>> {
        match action {
            Action::Send(m) => self.filter(m).map(Action::Send),
            other => Some(other),
        }
    }
}

/// Generic crash-like mute: suppresses every transmission of *any* wrapped
/// protocol (receptions and deliveries still happen), so it works against
/// the baselines, whose message types differ from byzcast's.
#[derive(Clone, Copy, Debug)]
pub struct Silent;

impl<P: Protocol> Deviation<P> for Silent {
    fn deviate(
        &mut self,
        _: &mut Context<'_, P::Msg>,
        action: Action<P::Msg>,
    ) -> Option<Action<P::Msg>> {
        match action {
            Action::Send(_) => None,
            other => Some(other),
        }
    }
}

/// XOR mask a forger applies to the payload id of relayed data.
const FORGE_MASK: u64 = 0xDEAD_BEEF;

/// Forge: tampers with the payload id of every data message it relays
/// ("messages with false information"). The originator's signature no
/// longer verifies, so receivers drop the copy and suspect the relay. Own
/// messages stay valid to avoid instant self-incrimination.
#[derive(Clone, Copy, Debug)]
pub struct Forge;

impl Deviation<ByzcastNode> for Forge {
    fn deviate(
        &mut self,
        ctx: &mut Context<'_, WireMsg>,
        action: Action<WireMsg>,
    ) -> Option<Action<WireMsg>> {
        match action {
            Action::Send(WireMsg::Data(mut m)) if m.id.origin != ctx.node_id() => {
                m.payload_id ^= FORGE_MASK;
                ctx.send(WireMsg::Data(m));
                None
            }
            other => Some(other),
        }
    }
}

/// Timer key reserved for the verbose adversary's spam tick (outside the
/// range used by the wrapped protocol).
const SPAM_TIMER: TimerKey = TimerKey(0x5_0000);

/// Verbose: speaks the protocol correctly but additionally floods duplicate
/// `REQUEST_MSG`s for messages it already possesses — the "too many
/// messages … may cause other nodes to react with messages of their own"
/// overload attack.
#[derive(Clone, Copy, Debug)]
pub struct Verbose {
    /// Spam period.
    pub period: SimDuration,
    /// Requests per spam tick.
    pub per_tick: usize,
}

impl Deviation<ByzcastNode> for Verbose {
    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.period, SPAM_TIMER);
    }
    fn on_own_timer(
        &mut self,
        inner: &ByzcastNode,
        ctx: &mut Context<'_, WireMsg>,
        timer: TimerKey,
    ) -> Option<u64> {
        if timer != SPAM_TIMER {
            return None;
        }
        // Request messages it already has — guaranteed-pointless traffic
        // that forces overlay neighbours to respond with full data frames.
        let mut spammed = 0;
        for stored in inner.store().iter().take(self.per_tick) {
            ctx.send(WireMsg::Request(RequestMsg {
                entry: stored.msg.gossip_entry(),
                target: NodeId(0),
            }));
            spammed += 1;
        }
        ctx.set_timer_after(self.period, SPAM_TIMER);
        Some(spammed)
    }
}

/// Censor: a correct overlay citizen — claiming dominator status — except
/// that it drops data messages from the victim originators.
#[derive(Clone, Debug)]
pub struct Censor(pub Vec<NodeId>);

impl Deviation<ByzcastNode> for Censor {
    fn prepare(&mut self, inner: &mut ByzcastNode) {
        claim_dominator(inner);
    }
    fn deviate(
        &mut self,
        _: &mut Context<'_, WireMsg>,
        action: Action<WireMsg>,
    ) -> Option<Action<WireMsg>> {
        match action {
            Action::Send(WireMsg::Data(m)) if self.0.contains(&m.id.origin) => None,
            other => Some(other),
        }
    }
}

// Named constructors for callers that build an adversary by name. Each is
// an uninhabited namespace whose `new` returns the `Deviant`, not `Self`.

/// Builds a mute Byzantine node claiming overlay membership ([`Mute`]).
pub enum MuteNode {}

#[allow(clippy::new_ret_no_self)]
impl MuteNode {
    /// Wraps `inner`, forcing it to advertise dominator status.
    pub fn new(inner: ByzcastNode, policy: MutePolicy) -> Deviant<ByzcastNode> {
        Deviant::new(inner, Mute(policy))
    }
}

/// Builds a crash-like silent node over any protocol ([`Silent`]).
pub enum SilentNode {}

#[allow(clippy::new_ret_no_self)]
impl SilentNode {
    /// Wraps `inner`.
    pub fn new<P: Protocol>(inner: P) -> Deviant<P> {
        Deviant::new(inner, Silent)
    }
}

/// Builds a forger ([`Forge`]).
pub enum ForgerNode {}

#[allow(clippy::new_ret_no_self)]
impl ForgerNode {
    /// Wraps `inner`.
    pub fn new(inner: ByzcastNode) -> Deviant<ByzcastNode> {
        Deviant::new(inner, Forge)
    }
}

/// Builds a request spammer ([`Verbose`]).
pub enum VerboseNode {}

#[allow(clippy::new_ret_no_self)]
impl VerboseNode {
    /// Wraps `inner`, spamming `per_tick` requests every `period`.
    pub fn new(inner: ByzcastNode, period: SimDuration, per_tick: usize) -> Deviant<ByzcastNode> {
        Deviant::new(inner, Verbose { period, per_tick })
    }
}

/// Builds a selective forwarder ([`Censor`]).
pub enum SelectiveForwarder {}

#[allow(clippy::new_ret_no_self)]
impl SelectiveForwarder {
    /// Wraps `inner`, censoring messages originated by `victims`.
    pub fn new(inner: ByzcastNode, victims: Vec<NodeId>) -> Deviant<ByzcastNode> {
        Deviant::new(inner, Censor(victims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_core::message::DataMsg;
    use byzcast_core::ByzcastConfig;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme, Verifier};
    use byzcast_sim::{SimRng, SimTime};
    use std::sync::Arc;

    fn byz(id: u32, reg: &KeyRegistry<SimScheme>) -> ByzcastNode {
        let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
        ByzcastNode::new(
            NodeId(id),
            ByzcastConfig::default(),
            Box::new(reg.signer(SignerId(id))),
            verifier,
        )
    }

    fn drive<P: Protocol>(
        p: &mut P,
        id: u32,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) -> Vec<Action<P::Msg>> {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(NodeId(id), SimTime::from_secs(1), &mut rng, &mut actions);
            f(p, &mut ctx);
        }
        actions
    }

    fn sends<M>(actions: &[Action<M>]) -> Vec<&M> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn mute_node_drops_data_but_keeps_beacons_and_gossip() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute = MuteNode::new(byz(1, &reg), MutePolicy::DropData);
        // The first gossip tick carries the (lying) dominator beacon and
        // flips the inner node's role.
        let actions = drive(&mut mute, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        match sends(&actions).first() {
            Some(WireMsg::Gossip(g)) => {
                assert_eq!(g.beacon.as_ref().unwrap().role, OverlayRole::Dominator)
            }
            other => panic!("expected gossip+beacon, got {other:?}"),
        }
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        // It receives and delivers, but forwards nothing.
        let actions = drive(&mut mute, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        assert!(actions.iter().any(|a| matches!(a, Action::Deliver { .. })));
        assert!(sends(&actions)
            .iter()
            .all(|m| !matches!(m, WireMsg::Data(_))));
        assert!(mute.deviations() >= 1);
    }

    #[test]
    fn fully_mute_policy_keeps_only_beacons() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute = MuteNode::new(byz(1, &reg), MutePolicy::DropDataAndGossip);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut mute, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        // Gossip tick: entries are stripped, the beacon claim survives.
        let actions = drive(&mut mute, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        for s in sends(&actions) {
            match s {
                WireMsg::Gossip(g) => {
                    assert!(g.entries.is_empty(), "entries leaked: {g:?}");
                    assert!(g.beacon.is_some());
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(
            mute.deviations() == 0,
            "beacon-bearing gossip was rewritten, not dropped"
        );
    }

    #[test]
    fn silent_node_sends_nothing_at_all() {
        let reg = KeyRegistry::generate(1, 8);
        let mut silent = SilentNode::new(byz(1, &reg));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut silent, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        assert!(sends(&actions).is_empty());
        // Beacons are suppressed too.
        let actions = drive(&mut silent, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(silent.deviations() >= 1);
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn forger_corrupts_relayed_data_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        // Promote to overlay so it forwards: run one beacon tick first.
        let mut forger = ForgerNode::new(inner);
        drive(&mut forger, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut forger, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        let datas: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(*d),
                _ => None,
            })
            .collect();
        assert_eq!(datas.len(), 1);
        let v = reg.verifier();
        assert!(!datas[0].verify(&v), "forged frame must not verify");
        assert_eq!(forger.deviations(), 1);
        // Its own broadcast stays valid.
        let actions = drive(&mut forger, 1, |p, ctx| {
            p.on_app_broadcast(
                ctx,
                byzcast_sim::AppPayload {
                    id: 7,
                    size_bytes: 10,
                },
            )
        });
        let own: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(*d),
                _ => None,
            })
            .collect();
        assert!(own[0].verify(&v));
    }

    #[test]
    fn verbose_node_spams_requests_for_messages_it_has() {
        let reg = KeyRegistry::generate(1, 8);
        let mut verbose = VerboseNode::new(byz(1, &reg), SimDuration::from_millis(100), 3);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut verbose, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        let actions = drive(&mut verbose, 1, |p, ctx| p.on_timer(ctx, SPAM_TIMER));
        let reqs = sends(&actions)
            .iter()
            .filter(|m| matches!(m, WireMsg::Request(_)))
            .count();
        assert_eq!(reqs, 1); // has one message so far
        assert_eq!(verbose.deviations(), 1);
    }

    #[test]
    fn selective_forwarder_censors_victims_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut sf = SelectiveForwarder::new(byz(1, &reg), vec![NodeId(0)]);
        drive(&mut sf, 1, |p, ctx| p.on_timer(ctx, TimerKey(1))); // become overlay
        let victim_msg = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let ok_msg = DataMsg::sign(&reg.signer(SignerId(2)), 1, 6, 64);
        let a1 = drive(&mut sf, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(victim_msg))
        });
        assert!(sends(&a1).iter().all(|m| !matches!(m, WireMsg::Data(_))));
        assert_eq!(sf.deviations(), 1);
        let a2 = drive(&mut sf, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(2), &WireMsg::Data(ok_msg))
        });
        assert!(sends(&a2).iter().any(|m| matches!(m, WireMsg::Data(_))));
    }
}
