//! The one wrapper: a correct protocol instance whose output deviates.
//!
//! [`Deviant`] runs the inner protocol on every callback, captures the
//! actions it produces, and hands each to its [`Deviation`], which passes
//! it on, rewrites it, drops it or replaces it. A deviation may also run
//! timers of its own (reading the inner node's state) and react to the
//! fault plan's Byzantine activation switch.

use byzcast_sim::node::Action;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, TimerKey};

/// How a Byzantine node's output differs from the correct protocol's.
///
/// Every hook has a pass-through default, so a deviation implements only
/// the hooks its behaviour needs.
pub trait Deviation<P: Protocol> {
    /// Adjusts the inner node once, when it is wrapped (for example to make
    /// it claim overlay membership).
    fn prepare(&mut self, inner: &mut P) {
        let _ = inner;
    }

    /// Decides the fate of one action the inner node produced. Returns the
    /// action to emit — unchanged or rewritten — or `None` when the
    /// deviation dropped it or emitted its own replacement into `ctx`. Each
    /// `None` counts as one deviation.
    fn deviate(
        &mut self,
        ctx: &mut Context<'_, P::Msg>,
        action: Action<P::Msg>,
    ) -> Option<Action<P::Msg>> {
        let _ = ctx;
        Some(action)
    }

    /// Runs after the inner node started, to arm the deviation's own timers.
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let _ = ctx;
    }

    /// Handles `timer` if it is one of the deviation's own and returns how
    /// many frames it injected; `None` hands the timer to the inner node.
    fn on_own_timer(
        &mut self,
        inner: &P,
        ctx: &mut Context<'_, P::Msg>,
        timer: TimerKey,
    ) -> Option<u64> {
        let _ = (inner, ctx, timer);
        None
    }

    /// Observes the fault plan's Byzantine activation switch.
    fn on_byzantine(&mut self, active: bool) {
        let _ = active;
    }
}

/// A protocol instance wrapped by one [`Deviation`].
pub struct Deviant<P: Protocol> {
    inner: P,
    deviation: Box<dyn Deviation<P> + Send>,
    /// Reused capture buffer for the inner node's actions.
    captured: Vec<Action<P::Msg>>,
    deviations: u64,
}

impl<P: Protocol> Deviant<P> {
    /// Wraps `inner`, letting `deviation` prepare it first.
    pub fn new(mut inner: P, mut deviation: impl Deviation<P> + Send + 'static) -> Self {
        deviation.prepare(&mut inner);
        Deviant {
            inner,
            deviation: Box::new(deviation),
            captured: Vec::new(),
            deviations: 0,
        }
    }

    /// The wrapped (correct-protocol) node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Actions dropped, rewritten into replacements, or injected so far
    /// (diagnostic).
    pub fn deviations(&self) -> u64 {
        self.deviations
    }

    /// Runs `f` on the inner node against a capturing sub-context that
    /// shares the real RNG, then passes each captured action through the
    /// deviation into `ctx`, in order.
    fn relay(
        &mut self,
        ctx: &mut Context<'_, P::Msg>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut captured = std::mem::take(&mut self.captured);
        let (node, now) = (ctx.node_id(), ctx.now());
        f(
            &mut self.inner,
            &mut Context::new(node, now, ctx.rng(), &mut captured),
        );
        for action in captured.drain(..) {
            match self.deviation.deviate(ctx, action) {
                Some(kept) => emit(ctx, kept),
                None => self.deviations += 1,
            }
        }
        self.captured = captured;
    }
}

impl<P: Protocol> Protocol for Deviant<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.relay(ctx, |p, sub| p.on_start(sub));
        self.deviation.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: &P::Msg) {
        self.relay(ctx, |p, sub| p.on_packet(sub, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerKey) {
        match self.deviation.on_own_timer(&self.inner, ctx, timer) {
            Some(injected) => self.deviations += injected,
            None => self.relay(ctx, |p, sub| p.on_timer(sub, timer)),
        }
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, P::Msg>, payload: AppPayload) {
        self.relay(ctx, |p, sub| p.on_app_broadcast(sub, payload));
    }
    fn on_byzantine(&mut self, ctx: &mut Context<'_, P::Msg>, active: bool) {
        self.deviation.on_byzantine(active);
        self.relay(ctx, |p, sub| p.on_byzantine(sub, active));
    }
}

/// Re-emits a captured action into the real context.
fn emit<M>(ctx: &mut Context<'_, M>, action: Action<M>) {
    match action {
        Action::Send(m) => ctx.send(m),
        Action::SetTimer { at, key } => ctx.set_timer_at(at, key),
        Action::CancelTimer(key) => ctx.cancel_timer(key),
        Action::Deliver { origin, payload_id } => ctx.deliver(origin, payload_id),
        Action::Note(text) => ctx.note(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_sim::{Message, SimRng, SimTime};

    #[derive(Clone, Debug, PartialEq)]
    struct M(u32);
    impl Message for M {
        fn wire_size(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "m"
        }
    }

    /// Sends its input back, delivers it, and re-arms timer 1.
    struct Echo {
        byzantine: Option<bool>,
    }
    impl Protocol for Echo {
        type Msg = M;
        fn on_packet(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: &M) {
            ctx.send(msg.clone());
            ctx.deliver(from, u64::from(msg.0));
            ctx.set_timer_after(byzcast_sim::SimDuration::from_millis(5), TimerKey(1));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, M>, _: TimerKey) {
            ctx.send(M(99));
        }
        fn on_app_broadcast(&mut self, _: &mut Context<'_, M>, _: AppPayload) {}
        fn on_byzantine(&mut self, _: &mut Context<'_, M>, active: bool) {
            self.byzantine = Some(active);
        }
    }

    /// Drops odd-numbered sends, doubles even ones, and owns timer 7.
    struct Parity;
    impl Deviation<Echo> for Parity {
        fn deviate(&mut self, ctx: &mut Context<'_, M>, action: Action<M>) -> Option<Action<M>> {
            match action {
                Action::Send(M(k)) if k % 2 == 1 => None,
                Action::Send(M(k)) => {
                    ctx.send(M(k));
                    Some(Action::Send(M(k)))
                }
                other => Some(other),
            }
        }
        fn on_own_timer(
            &mut self,
            _: &Echo,
            ctx: &mut Context<'_, M>,
            timer: TimerKey,
        ) -> Option<u64> {
            (timer == TimerKey(7)).then(|| {
                ctx.send(M(0));
                1
            })
        }
    }

    fn drive(
        d: &mut Deviant<Echo>,
        f: impl FnOnce(&mut Deviant<Echo>, &mut Context<'_, M>),
    ) -> Vec<Action<M>> {
        let mut rng = SimRng::new(0);
        let mut out = Vec::new();
        f(
            d,
            &mut Context::new(NodeId(1), SimTime::from_secs(1), &mut rng, &mut out),
        );
        out
    }

    #[test]
    fn actions_pass_through_the_deviation_in_order() {
        let mut d = Deviant::new(Echo { byzantine: None }, Parity);
        let out = drive(&mut d, |p, ctx| p.on_packet(ctx, NodeId(2), &M(4)));
        assert!(matches!(
            out.as_slice(),
            [
                Action::Send(M(4)),
                Action::Send(M(4)),
                Action::Deliver { payload_id: 4, .. },
                Action::SetTimer { .. }
            ]
        ));
        let out = drive(&mut d, |p, ctx| p.on_packet(ctx, NodeId(2), &M(3)));
        assert!(matches!(
            out.as_slice(),
            [
                Action::Deliver { payload_id: 3, .. },
                Action::SetTimer { .. }
            ]
        ));
        assert_eq!(d.deviations(), 1);
    }

    #[test]
    fn own_timers_bypass_the_inner_node_and_count() {
        let mut d = Deviant::new(Echo { byzantine: None }, Parity);
        let out = drive(&mut d, |p, ctx| p.on_timer(ctx, TimerKey(7)));
        assert!(matches!(out.as_slice(), [Action::Send(M(0))]));
        assert_eq!(d.deviations(), 1);
        // Any other timer reaches the inner node (its odd send is dropped).
        let out = drive(&mut d, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(out.is_empty());
        assert_eq!(d.deviations(), 2);
    }

    #[test]
    fn byzantine_switch_reaches_the_inner_node() {
        let mut d = Deviant::new(Echo { byzantine: None }, Parity);
        drive(&mut d, |p, ctx| p.on_byzantine(ctx, true));
        assert_eq!(d.inner().byzantine, Some(true));
    }
}
