//! Layer timing from outside the program: wrappers around the public
//! `Protocol`, `Verifier` and `OverlayProtocol` seams that count and time
//! every call into a thread-local ledger, and a function that builds a
//! simulator with them installed.
//!
//! Spans nest: a correct node's callback may verify signatures and run an
//! overlay decision. Every verify and decide adds its duration to a
//! `nested` accumulator, so a callback's self time is its duration minus
//! the nested time that accrued while it ran.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use byzcast_adversary::{FlooderNode, MuteNode, SigGrinderNode};
use byzcast_core::message::WireMsg;
use byzcast_core::ByzcastNode;
use byzcast_crypto::{
    CacheStats, CachingVerifier, KeyRegistry, Signature, SignerId, SimScheme, Verifier,
};
use byzcast_harness::{AdversaryKind, ProtocolChoice, ScenarioConfig};
use byzcast_overlay::{NeighborTable, OverlayDecision, OverlayProtocol, TrustView};
use byzcast_sim::{
    AppPayload, BoxedProtocol, Context, NodeId, Protocol, SimBuilder, SimConfig, Simulator,
    TimerKey,
};

/// Call counts and nanoseconds per layer, accumulated by the wrappers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Callbacks into correct nodes.
    pub core_calls: u64,
    /// Time inside correct-node callbacks, nested spans included.
    pub core_ns: u64,
    /// Verify and decide time nested inside correct-node callbacks.
    pub core_nested_ns: u64,
    /// Callbacks into adversary nodes.
    pub adversary_calls: u64,
    /// Time inside adversary callbacks, nested spans included.
    pub adversary_ns: u64,
    /// Verify time nested inside adversary callbacks.
    pub adversary_nested_ns: u64,
    /// Signature verifications.
    pub verify_calls: u64,
    /// Time inside signature verification.
    pub verify_ns: u64,
    /// Overlay decisions of correct nodes.
    pub decide_calls: u64,
    /// Time inside overlay decisions.
    pub decide_ns: u64,
    /// Running total of verify and decide time, read by enclosing callbacks.
    nested_ns: u64,
}

impl Ledger {
    /// Time in correct-node callbacks outside verification and overlay
    /// decisions.
    pub fn core_self_ns(&self) -> u64 {
        self.core_ns - self.core_nested_ns
    }

    /// Time in adversary callbacks outside verification.
    pub fn adversary_self_ns(&self) -> u64 {
        self.adversary_ns - self.adversary_nested_ns
    }

    /// Time in all node callbacks, nested spans included.
    pub fn callback_ns(&self) -> u64 {
        self.core_ns + self.adversary_ns
    }
}

impl std::ops::AddAssign for Ledger {
    fn add_assign(&mut self, o: Ledger) {
        self.core_calls += o.core_calls;
        self.core_ns += o.core_ns;
        self.core_nested_ns += o.core_nested_ns;
        self.adversary_calls += o.adversary_calls;
        self.adversary_ns += o.adversary_ns;
        self.adversary_nested_ns += o.adversary_nested_ns;
        self.verify_calls += o.verify_calls;
        self.verify_ns += o.verify_ns;
        self.decide_calls += o.decide_calls;
        self.decide_ns += o.decide_ns;
        self.nested_ns += o.nested_ns;
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Clears this thread's ledger.
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::default());
}

/// A copy of this thread's ledger.
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| *l.borrow())
}

fn nested_now() -> u64 {
    LEDGER.with(|l| l.borrow().nested_ns)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("span shorter than 584 years")
}

/// Whose callbacks a [`Timed`] wrapper accounts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A correct byzcast node.
    Core,
    /// An attacker.
    Adversary,
}

/// Times every callback into the wrapped protocol.
pub struct Timed<P> {
    inner: P,
    role: Role,
}

impl<P> Timed<P> {
    /// Wraps `inner`, accounting its callbacks to `role`.
    pub fn new(inner: P, role: Role) -> Self {
        Timed { inner, role }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn span<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let nested_before = nested_now();
        let start = Instant::now();
        let out = f(&mut self.inner);
        let total = elapsed_ns(start);
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let nested = l.nested_ns - nested_before;
            match self.role {
                Role::Core => {
                    l.core_calls += 1;
                    l.core_ns += total;
                    l.core_nested_ns += nested;
                }
                Role::Adversary => {
                    l.adversary_calls += 1;
                    l.adversary_ns += total;
                    l.adversary_nested_ns += nested;
                }
            }
        });
        out
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.span(|p| p.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: &P::Msg) {
        self.span(|p| p.on_packet(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerKey) {
        self.span(|p| p.on_timer(ctx, timer));
    }

    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, P::Msg>, payload: AppPayload) {
        self.span(|p| p.on_app_broadcast(ctx, payload));
    }

    fn on_byzantine(&mut self, ctx: &mut Context<'_, P::Msg>, active: bool) {
        self.span(|p| p.on_byzantine(ctx, active));
    }
}

/// Adds a nested span's duration to the ledger.
fn record_nested(ns: u64, add: impl FnOnce(&mut Ledger)) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        l.nested_ns += ns;
        add(&mut l);
    });
}

/// Times every signature verification.
pub struct TimedVerifier<V> {
    inner: V,
}

impl<V> TimedVerifier<V> {
    /// Wraps `inner`.
    pub fn new(inner: V) -> Self {
        TimedVerifier { inner }
    }
}

impl<V: Verifier> Verifier for TimedVerifier<V> {
    fn verify(&self, signer: SignerId, data: &[u8], sig: &Signature) -> bool {
        let start = Instant::now();
        let ok = self.inner.verify(signer, data, sig);
        let ns = elapsed_ns(start);
        record_nested(ns, |l| {
            l.verify_calls += 1;
            l.verify_ns += ns;
        });
        ok
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// Times every overlay decision.
pub struct TimedOverlay {
    inner: Box<dyn OverlayProtocol + Send>,
}

impl TimedOverlay {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn OverlayProtocol + Send>) -> Self {
        TimedOverlay { inner }
    }
}

impl OverlayProtocol for TimedOverlay {
    fn decide(&self, me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> OverlayDecision {
        let start = Instant::now();
        let decision = self.inner.decide(me, table, trust);
        let ns = elapsed_ns(start);
        record_nested(ns, |l| {
            l.decide_calls += 1;
            l.decide_ns += ns;
        });
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Builds `scenario`'s simulator as `ScenarioConfig::build_wire_sim` does,
/// from the same public constructors, with every correct node, attacker,
/// the shared verifier and each correct node's overlay rule wrapped.
///
/// # Panics
///
/// Panics on scenario features the benchmark workloads do not use: other
/// protocols, sabotage, fault plans, or adversaries other than mute,
/// signature-grinder and flooder nodes.
pub fn build_traced(scenario: &ScenarioConfig) -> Simulator<WireMsg> {
    assert_eq!(scenario.protocol, ProtocolChoice::Byzcast, "byzcast only");
    assert!(scenario.sabotage.is_none(), "sabotage is not traced");
    assert!(scenario.fault_plan.is_empty(), "fault plans are not traced");
    let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(scenario.seed, scenario.n as u32);
    let verifier: Arc<dyn Verifier + Send + Sync> = match scenario.byzcast.sig_cache_capacity {
        0 => Arc::new(TimedVerifier::new(keys.verifier())),
        capacity => Arc::new(TimedVerifier::new(CachingVerifier::new(
            keys.verifier(),
            capacity,
        ))),
    };
    let byzcast = |id: NodeId| {
        ByzcastNode::new(
            id,
            scenario.byzcast.clone(),
            Box::new(keys.signer(SignerId(id.0))),
            Arc::clone(&verifier),
        )
    };
    let make = |id: NodeId| -> BoxedProtocol<WireMsg> {
        match scenario.adversary_kind_of(id) {
            None => {
                let mut node = byzcast(id);
                node.set_overlay_protocol(Box::new(TimedOverlay::new(
                    scenario.byzcast.overlay.build(),
                )));
                Box::new(Timed::new(node, Role::Core))
            }
            Some(AdversaryKind::Mute(policy)) => Box::new(Timed::new(
                MuteNode::new(byzcast(id), *policy),
                Role::Adversary,
            )),
            Some(AdversaryKind::SigGrinder { period, per_tick }) => Box::new(Timed::new(
                SigGrinderNode::new(id, *period, *per_tick),
                Role::Adversary,
            )),
            Some(AdversaryKind::Flooder {
                period,
                per_tick,
                payload_bytes,
            }) => Box::new(Timed::new(
                FlooderNode::new(
                    Box::new(keys.signer(SignerId(id.0))),
                    *period,
                    *per_tick,
                    *payload_bytes,
                ),
                Role::Adversary,
            )),
            Some(other) => panic!("the traced build does not cover {other:?}"),
        }
    };
    SimBuilder::new(SimConfig {
        seed: scenario.seed,
        ..scenario.sim.clone()
    })
    .with_mobility(scenario.mobility.build())
    .with_positions(scenario.initial_positions())
    .with_nodes(scenario.n, make)
    .build()
}

/// The correct node `id` of a traced simulator, if it is one.
pub fn core_node(sim: &Simulator<WireMsg>, id: NodeId) -> Option<&ByzcastNode> {
    sim.protocol::<Timed<ByzcastNode>>(id).map(Timed::inner)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::HashMap;

    use byzcast_adversary::MutePolicy;
    use byzcast_core::RecoveryConfig;
    use byzcast_harness::Workload;
    use byzcast_overlay::{MapTrust, OverlayRole};
    use byzcast_sim::{Field, Message, SimDuration, SimRng, SimTime};

    use super::*;

    /// Work that takes at least `micros` of wall time.
    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[derive(Clone, Debug)]
    struct Ping;

    impl Message for Ping {
        fn wire_size(&self) -> usize {
            1
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    /// Counts its callbacks; each spins 20 µs and verifies once.
    struct Busy {
        calls: u32,
        verifier: TimedVerifier<Always>,
    }

    impl Busy {
        fn work(&mut self) {
            self.calls += 1;
            spin(20);
            assert!(self
                .verifier
                .verify(SignerId(0), b"x", &Signature::default()));
        }
    }

    impl Protocol for Busy {
        type Msg = Ping;
        fn on_start(&mut self, _: &mut Context<'_, Ping>) {
            self.work();
        }
        fn on_packet(&mut self, _: &mut Context<'_, Ping>, _: NodeId, _: &Ping) {
            self.work();
        }
        fn on_timer(&mut self, _: &mut Context<'_, Ping>, _: TimerKey) {
            self.work();
        }
        fn on_app_broadcast(&mut self, _: &mut Context<'_, Ping>, _: AppPayload) {
            self.work();
        }
        fn on_byzantine(&mut self, _: &mut Context<'_, Ping>, _: bool) {
            self.work();
        }
    }

    /// Accepts every signature after 10 µs of work, counting calls.
    struct Always {
        calls: Cell<u64>,
    }

    impl Verifier for Always {
        fn verify(&self, _: SignerId, _: &[u8], _: &Signature) -> bool {
            self.calls.set(self.calls.get() + 1);
            spin(10);
            true
        }
        fn cache_stats(&self) -> Option<CacheStats> {
            Some(CacheStats {
                hits: 7,
                ..CacheStats::default()
            })
        }
    }

    /// Always a dominator, after 10 µs of work.
    struct Slow;

    impl OverlayProtocol for Slow {
        fn decide(&self, _: NodeId, _: &NeighborTable, _: &dyn TrustView) -> OverlayDecision {
            spin(10);
            OverlayDecision {
                role: OverlayRole::Dominator,
                marked: true,
            }
        }
        fn name(&self) -> &'static str {
            "slow"
        }
    }

    #[test]
    fn callback_wrapper_counts_and_times_every_callback() {
        reset();
        let busy = Busy {
            calls: 0,
            verifier: TimedVerifier::new(Always {
                calls: Cell::new(0),
            }),
        };
        let mut timed = Timed::new(busy, Role::Core);
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = Context::new(NodeId(0), SimTime::ZERO, &mut rng, &mut actions);
        timed.on_start(&mut ctx);
        timed.on_packet(&mut ctx, NodeId(1), &Ping);
        timed.on_timer(&mut ctx, TimerKey(3));
        timed.on_app_broadcast(
            &mut ctx,
            AppPayload {
                id: 1,
                size_bytes: 8,
            },
        );
        timed.on_byzantine(&mut ctx, true);

        let l = snapshot();
        assert_eq!(timed.inner().calls, 5);
        assert_eq!(timed.inner().verifier.inner.calls.get(), 5);
        assert_eq!(l.core_calls, 5);
        assert_eq!(l.adversary_calls, 0);
        assert_eq!(l.verify_calls, 5);
        assert!(l.verify_ns >= 5 * 10_000, "verify time {}", l.verify_ns);
        // Verification nests inside the callbacks and is not self time.
        assert_eq!(l.core_nested_ns, l.verify_ns);
        assert!(
            l.core_self_ns() >= 5 * 20_000,
            "self time {}",
            l.core_self_ns()
        );
        assert_eq!(l.core_ns, l.core_self_ns() + l.verify_ns);
    }

    #[test]
    fn adversary_callbacks_are_kept_apart() {
        reset();
        let busy = Busy {
            calls: 0,
            verifier: TimedVerifier::new(Always {
                calls: Cell::new(0),
            }),
        };
        let mut timed = Timed::new(busy, Role::Adversary);
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = Context::new(NodeId(0), SimTime::ZERO, &mut rng, &mut actions);
        timed.on_timer(&mut ctx, TimerKey(1));
        let l = snapshot();
        assert_eq!((l.core_calls, l.core_ns), (0, 0));
        assert_eq!(l.adversary_calls, 1);
        assert_eq!(l.adversary_nested_ns, l.verify_ns);
        assert!(l.adversary_self_ns() >= 20_000);
    }

    #[test]
    fn verifier_and_overlay_wrappers_forward_and_time_every_call() {
        reset();
        let v = TimedVerifier::new(Always {
            calls: Cell::new(0),
        });
        for _ in 0..3 {
            assert!(v.verify(SignerId(2), b"data", &Signature::default()));
        }
        assert_eq!(v.cache_stats().map(|c| c.hits), Some(7));
        let o = TimedOverlay::new(Box::new(Slow));
        let table = NeighborTable::new(SimDuration::from_secs(3));
        let trust = MapTrust(HashMap::new());
        let d = o.decide(NodeId(0), &table, &trust);
        assert_eq!(d.role, OverlayRole::Dominator);
        assert!(d.marked);
        assert_eq!(o.name(), "slow");
        let l = snapshot();
        assert_eq!((l.verify_calls, l.decide_calls), (3, 1));
        assert!(l.verify_ns >= 3 * 10_000 && l.decide_ns >= 10_000);
    }

    #[test]
    fn traced_build_is_transparent_on_a_tiny_scenario() {
        let n = 16u32;
        let mut scenario = ScenarioConfig {
            seed: 5,
            n: n as usize,
            sim: SimConfig {
                field: Field::new(500.0, 500.0),
                ..SimConfig::default()
            },
            adversary: Some(AdversaryKind::Mute(MutePolicy::DropData)),
            adversary_count: 2,
            adversary_assignments: vec![(
                NodeId(n - 3),
                AdversaryKind::SigGrinder {
                    period: SimDuration::from_millis(200),
                    per_tick: 2,
                },
            )],
            ..ScenarioConfig::default()
        };
        scenario.byzcast.recovery = RecoveryConfig::standard();
        let workload = Workload {
            count: 6,
            start: SimDuration::from_secs(4),
            interval: SimDuration::from_millis(250),
            drain: SimDuration::from_secs(6),
            ..Workload::default()
        };

        let mut plain = scenario.build_wire_sim();
        scenario.drive(&mut plain, &workload);
        reset();
        let mut traced = build_traced(&scenario);
        scenario.drive(&mut traced, &workload);
        let l = snapshot();

        assert_eq!(plain.metrics(), traced.metrics());
        assert!(!plain.metrics().deliveries.is_empty());
        let cache = core_node(&traced, NodeId(0))
            .and_then(|node| node.sig_cache_stats())
            .expect("correct node 0 with a caching verifier");
        assert_eq!(cache.hits + cache.misses, l.verify_calls);
        assert!(l.core_calls > 0 && l.adversary_calls > 0 && l.decide_calls > 0);
        assert!(core_node(&traced, NodeId(n - 1)).is_none());
    }
}
