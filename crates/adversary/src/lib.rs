//! # byzcast-adversary — Byzantine behaviour models
//!
//! The paper's fault model (§2.1): "Byzantine processes may fail to send
//! messages, send too many messages, send messages with false information, or
//! send messages with different data to different nodes" — but "a node cannot
//! impersonate another node", thanks to signatures.
//!
//! The model treats a Byzantine node as a correct node whose output
//! deviates. Protocol-speaking adversaries are exactly that: one
//! [`Deviant`] wrapper runs a correct `ByzcastNode` (or any protocol) and
//! passes its actions through one [`Deviation`] — the strongest adversaries,
//! perfect protocol speakers except for the deviation:
//!
//! * [`Mute`] ([`MuteNode`]) — runs the protocol but never forwards data
//!   (and optionally never gossips), while *claiming to be an overlay
//!   dominator* so correct neighbours defer to it. The attack the MUTE
//!   failure detector exists for, and the failure mode the paper's
//!   evaluation focuses on ("nodes experience mute failures, as these
//!   failures seem to have the most adverse impact on the protocol's
//!   performance").
//! * [`Silent`] ([`SilentNode`]) — generic crash-like mute: drops every
//!   transmission of any wrapped protocol (used against the baselines too).
//! * [`Forge`] ([`ForgerNode`]) — tampers with the payload id of every data
//!   message it relays ("send messages with false information");
//!   signatures catch it.
//! * [`Verbose`] ([`VerboseNode`]) — floods duplicate `REQUEST_MSG`s for
//!   messages it already has; the VERBOSE failure detector exists for this.
//! * [`Censor`] ([`SelectiveForwarder`]) — forwards everything except
//!   messages from victim originators (targeted censorship).
//! * [`Flap`] ([`FlappingNode`]) — a correct node whose mute or forging
//!   deviation is switched on and off mid-run by the fault plan's
//!   activation windows; the hardest case for the MUTE/TRUST detectors.
//! * [`Sabotage`] ([`SabotagedNode`]) — a deliberately broken "correct"
//!   node (duplicate, phantom or dropped deliveries) used to prove the chaos
//!   oracles catch real protocol bugs.
//!
//! The `…Node` names build the corresponding `Deviant`. The standalone
//! adversaries craft their own frames instead:
//!
//! * [`GossipLiarNode`] — gossips about messages it never supplies, the
//!   behaviour §3.2.2 calls out: "If q gossips about messages that do not
//!   exist or q does not want to supply them, it will be suspected."
//! * [`ImpersonatorNode`] — injects data messages with forged originators
//!   and unsigned beacons; pure noise once signatures are checked.
//! * [`FlooderNode`] — a registered node injecting unique *validly signed*
//!   garbage at a configurable rate; pure memory/bandwidth exhaustion that
//!   only resource-bounded admission can stop.
//! * [`ReplayerNode`] — captures valid frames and re-injects them unchanged
//!   after a delay, probing the receiver's seen-id memory horizon.
//! * [`SigGrinderNode`] — unique valid-looking frames with garbage
//!   signatures; every one costs the receiver a full failing verification
//!   (CPU exhaustion).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deviant;
pub mod deviations;
pub mod flapping;
pub mod sabotage;
pub mod standalone;

pub use deviant::{Deviant, Deviation};
pub use deviations::{
    AlwaysDominator, Censor, Forge, ForgerNode, Mute, MuteNode, MutePolicy, SelectiveForwarder,
    Silent, SilentNode, Verbose, VerboseNode,
};
pub use flapping::{Flap, FlapBehavior, FlappingNode};
pub use sabotage::{Sabotage, SabotageKind, SabotagedNode};
pub use standalone::{FlooderNode, GossipLiarNode, ImpersonatorNode, ReplayerNode, SigGrinderNode};
