//! A flapping adversary: a *correct* node that turns Byzantine mid-run and
//! possibly back, driven by the fault plan's `SetByzantine` windows.
//!
//! This is the worst case for the MUTE/TRUST detectors: the node builds up
//! genuine trust while correct, then silently deviates inside an activation
//! window, then behaves again. Unlike a standing [`crate::MuteNode`], a
//! flapper does not lie about overlay membership — outside its windows it
//! is byte-for-byte the shipped protocol.

use byzcast_core::message::WireMsg;
use byzcast_core::ByzcastNode;
use byzcast_sim::node::Action;
use byzcast_sim::Context;

use crate::{Deviant, Deviation, Forge, Mute, MutePolicy};

/// What a flapper does while its Byzantine window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlapBehavior {
    /// Suppress outgoing frames per the policy (mute windows), by the same
    /// rule as [`Mute`].
    Mute(MutePolicy),
    /// Corrupt the payload of relayed data messages (forging windows), as
    /// [`Forge`] does.
    Forger,
}

/// Flap: applies a deviation only while the fault plan's Byzantine window
/// is open; the node starts correct.
pub struct Flap {
    while_active: Box<dyn Deviation<ByzcastNode> + Send>,
    active: bool,
}

impl Flap {
    /// A flapper with `behavior` inside its windows.
    pub fn new(behavior: FlapBehavior) -> Self {
        let while_active: Box<dyn Deviation<ByzcastNode> + Send> = match behavior {
            FlapBehavior::Mute(policy) => Box::new(Mute(policy)),
            FlapBehavior::Forger => Box::new(Forge),
        };
        Flap {
            while_active,
            active: false,
        }
    }
}

impl Deviation<ByzcastNode> for Flap {
    fn deviate(
        &mut self,
        ctx: &mut Context<'_, WireMsg>,
        action: Action<WireMsg>,
    ) -> Option<Action<WireMsg>> {
        if self.active {
            self.while_active.deviate(ctx, action)
        } else {
            Some(action)
        }
    }
    fn on_byzantine(&mut self, active: bool) {
        self.active = active;
    }
}

/// Builds a correct node with fault-plan-driven Byzantine windows
/// ([`Flap`]).
pub enum FlappingNode {}

#[allow(clippy::new_ret_no_self)]
impl FlappingNode {
    /// Wraps `inner`; starts in the correct (inactive) state.
    pub fn new(inner: ByzcastNode, behavior: FlapBehavior) -> Deviant<ByzcastNode> {
        Deviant::new(inner, Flap::new(behavior))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_core::message::DataMsg;
    use byzcast_core::ByzcastConfig;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme, Verifier};
    use byzcast_sim::{NodeId, Protocol, SimRng, SimTime, TimerKey};
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
    fn inactive_flapper_passes_everything_through() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            FlappingNode::new(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        // Gossip tick: everything the correct node emits goes out verbatim.
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(!sends(&actions).is_empty());
        assert_eq!(flap.deviations(), 0);
    }

    #[test]
    fn mute_window_suppresses_then_recovers() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            FlappingNode::new(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(flap.deviations() >= 1);
        // Deactivate: the node speaks again. Hand it a message so the next
        // gossip tick has something to advertise.
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, false));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(!sends(&actions).is_empty());
    }

    #[test]
    fn forger_window_corrupts_only_relays_and_only_while_active() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(crate::AlwaysDominator));
        let mut flap = FlappingNode::new(inner, FlapBehavior::Forger);
        drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1))); // join overlay
        let v = reg.verifier();

        // Inactive: relays stay valid.
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        for s in sends(&actions) {
            if let WireMsg::Data(d) = s {
                assert!(d.verify(&v), "inactive flapper corrupted a relay");
            }
        }
        assert_eq!(flap.deviations(), 0);

        // Active: the relayed copy is forged (fresh seq so it is not deduped).
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        let m2 = DataMsg::sign(&reg.signer(SignerId(0)), 2, 6, 64);
        let actions = drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m2))
        });
        let datas: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(datas.len(), 1);
        assert!(!datas[0].verify(&v));
        assert_eq!(flap.deviations(), 1);
    }

    #[test]
    fn gossip_mute_window_keeps_the_beacon_and_strips_entries() {
        // The same rule as a standing mute node: beacon-bearing gossip is
        // rewritten, not dropped, so an active flapper keeps beaconing.
        let reg = KeyRegistry::generate(1, 8);
        let mut flap = FlappingNode::new(
            byz(1, &reg),
            FlapBehavior::Mute(MutePolicy::DropDataAndGossip),
        );
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::Data(m))
        });
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        let before = flap.deviations();
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        let gossip: Vec<_> = sends(&actions)
            .into_iter()
            .map(|s| match s {
                WireMsg::Gossip(g) => g,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(gossip.len(), 1, "the gossip tick must still go out");
        assert!(gossip[0].entries.is_empty(), "entries leaked: {gossip:?}");
        assert!(gossip[0].beacon.is_some(), "the beacon was dropped");
        assert_eq!(flap.deviations(), before, "a rewrite is not a suppression");
    }
}
