//! Golden run digests: "same behaviour" as committed data.
//!
//! Each case runs one small scenario and hashes its per-run JSONL record
//! (`wall_ms` fixed at 0, the only field that legitimately varies) with
//! SHA-256. The expected digests below were recorded from the engine with
//! its spatial grids and the shared signature cache, at a commit where a
//! differential test still proved those runs byte-identical to the naive
//! O(n) radio scan and the uncached verifier. A refactor that claims to
//! change nothing must leave every digest as it is; a change that moves a
//! digest on purpose must say why.
//!
//! Coverage: the mobile 40-node scenario (seeds 1–3) under byzcast and
//! flooding, under a never-binding governance envelope and a dormant
//! recovery envelope, one small static scenario for each wrapped-protocol
//! adversary and each sabotage kind, the three exhaustion adversaries under
//! the paper envelope (non-zero drop and quota counters), and every chaos
//! corpus reproducer (non-zero fault, resource and recovery sections).

use byzcast_adversary::{FlapBehavior, MutePolicy, SabotageKind};
use byzcast_core::{RecoveryConfig, ResourceConfig};
use byzcast_crypto::sha256;
use byzcast_harness::record::{run_record, RecordMeta};
use byzcast_harness::{
    paper_envelope, parse_case, run_case, AdversaryKind, MobilityChoice, ProtocolChoice,
    RunSummary, ScenarioConfig, Workload,
};
use byzcast_sim::{FaultPlan, Field, NodeId, SimConfig, SimDuration};

/// The mid-size mobile scenario: 40 nodes, random waypoint, 700 m field.
fn mobile(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n: 40,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            mobility_tick: SimDuration::from_millis(100),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Waypoint {
            min_mps: 1.0,
            max_mps: 15.0,
            pause: SimDuration::from_secs(1),
        },
        ..ScenarioConfig::default()
    }
}

fn mobile_workload() -> Workload {
    Workload {
        count: 5,
        payload_bytes: 512,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(10),
        ..Workload::default()
    }
}

/// Governance limits too generous to ever deny anything.
fn generous_envelope() -> ResourceConfig {
    ResourceConfig {
        frames_per_sec: 1_000_000,
        frame_burst: 1_000_000,
        verifs_per_sec: 1_000_000,
        verif_burst: 1_000_000,
        max_store_msgs: 1 << 30,
        max_store_bytes: 1 << 40,
        max_seen_ids: 1 << 30,
        max_gossip_per_origin: 1 << 30,
        max_missing_per_origin: 1 << 30,
    }
}

/// A recovery envelope whose thresholds no healthy retry reaches.
fn dormant_recovery() -> RecoveryConfig {
    RecoveryConfig {
        escalate_after: 5,
        max_escalations: 4,
        backoff_base: SimDuration::from_millis(1000),
        backoff_cap: SimDuration::from_millis(4000),
        widen_fanout: 3,
        find_ttl: 3,
        reelect_on_indictment: false,
    }
}

/// A small static scenario with three adversaries on the highest ids.
fn with_adversary(kind: AdversaryKind) -> ScenarioConfig {
    ScenarioConfig {
        seed: 4,
        n: 20,
        sim: SimConfig {
            field: Field::new(450.0, 450.0),
            ..SimConfig::default()
        },
        adversary: Some(kind),
        adversary_count: 3,
        ..ScenarioConfig::default()
    }
}

/// A flapper on node 19, Byzantine between 6 s and 10 s.
fn flapping(behavior: FlapBehavior) -> ScenarioConfig {
    let flapper = NodeId(19);
    ScenarioConfig {
        adversary: None,
        adversary_count: 0,
        adversary_assignments: vec![(flapper, AdversaryKind::Flapping(behavior))],
        fault_plan: FaultPlan::new()
            .set_byzantine(SimDuration::from_secs(6), flapper, true)
            .set_byzantine(SimDuration::from_secs(10), flapper, false),
        ..with_adversary(AdversaryKind::Silent)
    }
}

fn sabotaged(kind: SabotageKind) -> ScenarioConfig {
    ScenarioConfig {
        adversary: None,
        adversary_count: 0,
        sabotage: Some((NodeId(5), kind)),
        ..with_adversary(AdversaryKind::Silent)
    }
}

fn small_workload() -> Workload {
    Workload {
        senders: vec![NodeId(0), NodeId(7)],
        count: 6,
        payload_bytes: 256,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(8),
    }
}

/// Hashes the JSONL record of one finished run.
fn record_digest(name: &str, seed: u64, summary: &RunSummary) -> String {
    let params = vec![("seed".to_owned(), seed.to_string())];
    let line = run_record(
        &RecordMeta {
            experiment: "golden_digests",
            label: name,
            params: &params,
            seed,
            run_index: 0,
            wall_ms: 0.0,
        },
        summary,
        &[],
    );
    sha256(line.as_bytes()).to_hex()
}

/// Runs every scenario and compares its record digest with the expected
/// one.
fn check(cases: &[(&str, ScenarioConfig, Workload, &str)]) {
    check_digests(cases.iter().map(|(name, scenario, workload, expected)| {
        let got = record_digest(name, scenario.seed, &scenario.run(workload));
        (*name, got, *expected)
    }));
}

/// Reports every `(name, got, expected)` mismatch at once, with the digest
/// each case produced now.
fn check_digests<'a>(results: impl Iterator<Item = (&'a str, String, &'a str)>) {
    let mismatches: Vec<String> = results
        .filter(|(_, got, expected)| got != expected)
        .map(|(name, got, expected)| format!("{name}: expected {expected}, got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "run digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn mobile_runs_match_golden_digests() {
    let expected = [
        (
            "byzcast",
            1,
            "42b62982ef157f2d595fa129fad47d6582b79f55fa3343bc18b8421dafb7f3fd",
        ),
        (
            "byzcast",
            2,
            "67e80d652b65267e3023903fedb01f000665c3f4ab85a8ca467572e5a962fff4",
        ),
        (
            "byzcast",
            3,
            "f678d83b3d929232f1c8b8358601bf9d11622d9cb2263362af66e69cdd13dcb1",
        ),
        (
            "flooding",
            1,
            "676c82a6e7284ca507885fba1d4ddbe41c44ad3cc83696f9bf25d145def9b43d",
        ),
        (
            "flooding",
            2,
            "7dab0fe7dc17f4f3401a47f8f0d8e7e24d4d22a0a6ec9417de338f6a66abec1f",
        ),
        (
            "flooding",
            3,
            "4af00cc5e245ad8c8afbb86d6b940d84a38fc50638366e910dc59a13c7b9d177",
        ),
        (
            "governed",
            1,
            "a3c8b74468c440e76ba2452f699ea354f66c69bdcc880ce35c3d6a4d34a745bc",
        ),
        (
            "governed",
            2,
            "0f3c5ad234eba030203225f017d2a51fccb2b17905d91cc43b90d319f568abe9",
        ),
        (
            "governed",
            3,
            "09d7b99cb93ab978544e0971716f3c1ed7d6a13cae91a94e6426264f364ae58e",
        ),
        (
            "recovery",
            1,
            "cce8497cad5b4b67156a62d7e265acfe4a9702c30a734e028e1a5d5902439771",
        ),
        (
            "recovery",
            2,
            "2f7aef353476f79f33061a747e8799503c7aa6232d6efd08585c3e64f818d1da",
        ),
        (
            "recovery",
            3,
            "c136502c383ab794ed216f25ad72c5326b3b44b95a4e5fe713dc4765f469f9e8",
        ),
    ];
    let cases: Vec<_> = expected
        .iter()
        .map(|&(variant, seed, digest)| {
            let mut scenario = mobile(seed);
            match variant {
                "byzcast" => {}
                "flooding" => scenario.protocol = ProtocolChoice::Flooding,
                "governed" => scenario.byzcast.resources = generous_envelope(),
                "recovery" => scenario.byzcast.recovery = dormant_recovery(),
                other => unreachable!("unknown variant {other}"),
            }
            (variant, scenario, mobile_workload(), digest)
        })
        .collect();
    check(&cases);
}

#[test]
fn adversary_runs_match_golden_digests() {
    let flooding_silent = ScenarioConfig {
        protocol: ProtocolChoice::Flooding,
        ..with_adversary(AdversaryKind::Silent)
    };
    let cases = [
        (
            "mute-drop-data",
            with_adversary(AdversaryKind::Mute(MutePolicy::DropData)),
            "ec7ece4335962121887c38eaf61239dc6e03207daa78c5d2cb55ade24a44a415",
        ),
        (
            "mute-drop-data-and-gossip",
            with_adversary(AdversaryKind::Mute(MutePolicy::DropDataAndGossip)),
            "6feb9227d17281f862d7355379ba3fb9785eb74f02cdf88332fdaef2850f3975",
        ),
        (
            "mute-drop-everything",
            with_adversary(AdversaryKind::Mute(MutePolicy::DropEverything)),
            "35ed870aef0585e37de40e5ed6e8dc1cd4c6270936cde58bac6e57168a0c2859",
        ),
        (
            "silent-byzcast",
            with_adversary(AdversaryKind::Silent),
            "5da76e27cfc0cbfa4e58b52033b7cb4ba3ab4b1ab007641d158cfd5f46811bca",
        ),
        (
            "silent-flooding",
            flooding_silent,
            "5409c56318bc1dc9b435ffc2f7a9a3777bf7abbe2fb519af39319ff9f507a470",
        ),
        (
            "forger",
            with_adversary(AdversaryKind::Forger),
            "d43bb3ca953afd541ea11acb192db153aa8fa639c255cd6e11f156d919b22170",
        ),
        (
            "verbose",
            with_adversary(AdversaryKind::Verbose {
                period: SimDuration::from_millis(500),
                per_tick: 3,
            }),
            "b3b0643a9eecf6754659f6cccbe4ae461b20a050daf70083f4192bd9bc5b0401",
        ),
        (
            "selective-forwarder",
            with_adversary(AdversaryKind::SelectiveForwarder(vec![NodeId(0)])),
            "558e7018d09a0f86a284a87fb3a11c85257f5d75bce9f115314254b61b7393ea",
        ),
        (
            "flapping-mute",
            flapping(FlapBehavior::Mute(MutePolicy::DropEverything)),
            "f5d1a1d69fb1f13413e3731a09ab1a223dbd760b35dc36b7af37327152e1d772",
        ),
        (
            "flapping-forger",
            flapping(FlapBehavior::Forger),
            "f6a3e10f8f41e4d05b1b779d35e5f6628bde8576caf300b00c7e6ec46d23aae5",
        ),
        (
            "sabotage-double-deliver",
            sabotaged(SabotageKind::DoubleDeliver),
            "1b79becc89c6a926bb22b39ece346e5171323eae79b0d1544fd7c18db2dbbe98",
        ),
        (
            "sabotage-phantom-deliver",
            sabotaged(SabotageKind::PhantomDeliver),
            "f8ea71404432e38d13ad6af3ffaecd931abb1bbca8f7a20aa7bced23c9d1ad55",
        ),
        (
            "sabotage-drop-deliver",
            sabotaged(SabotageKind::DropDeliver),
            "bb314a079a5be200dad88288c522743c920c16cde07375e6e87868e0315e220b",
        ),
    ];
    let cases: Vec<_> = cases
        .into_iter()
        .map(|(name, scenario, digest)| (name, scenario, small_workload(), digest))
        .collect();
    check(&cases);
}

/// The exhaustion adversaries on the small static scenario, governed by the
/// paper envelope: the only pinned runs whose admission, verification-budget
/// and quota counters are non-zero.
#[test]
fn governed_exhaustion_runs_match_golden_digests() {
    let governed = |kind| {
        let mut scenario = with_adversary(kind);
        scenario.byzcast.resources = paper_envelope();
        scenario
    };
    let cases = [
        (
            "flooder",
            governed(AdversaryKind::Flooder {
                period: SimDuration::from_millis(200),
                per_tick: 4,
                payload_bytes: 256,
            }),
            "c11ffcb5955ee1b32be87d0f7f25a7f3712e8eb9866fd81bcd4b71fec8b58dff",
        ),
        (
            "replayer",
            governed(AdversaryKind::Replayer {
                delay: SimDuration::from_secs(6),
            }),
            "1b1e542b4a309d3412d92e495155fbcec0c432951223a741e72837c9794f2987",
        ),
        (
            "sig-grinder",
            governed(AdversaryKind::SigGrinder {
                period: SimDuration::from_millis(200),
                per_tick: 4,
            }),
            "67be54b203fa07af7730976b1d4c569e9e84354335961cb531e745599932e339",
        ),
    ];
    let cases: Vec<_> = cases
        .into_iter()
        .map(|(name, scenario, digest)| (name, scenario, small_workload(), digest))
        .collect();
    check(&cases);
}

/// Every chaos corpus reproducer, run as `chaos replay` runs it (standard
/// oracles included). `crash-thin-chain` is the only pinned run whose
/// `faults`, `resources` and `recovery` sections all carry non-zero values.
#[test]
fn chaos_corpus_runs_match_golden_digests() {
    let expected = [
        (
            "crash-thin-chain",
            "416517b27036281cda742e802b46171ad40a459e36a930854f8e0b9041d0c3fa",
        ),
        (
            "double-deliver",
            "53b0f1387b912069a1caca3716d24f4345c78b2973c6a18fd8abf8e0f3bddd3f",
        ),
        (
            "drop-deliver",
            "85444db384d4923b6d3f11004083d51e826b09821da4e47ce79576cc03a0f31c",
        ),
        (
            "phantom-deliver",
            "f371382d2ff818ed2d9c79f3e4bf765fa113da6a80743cbae95a29fec378601a",
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_corpus");
    check_digests(expected.iter().map(|&(name, expected)| {
        let path = dir.join(format!("{name}.chaos"));
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let case = parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = record_digest(name, case.scenario.seed, &run_case(&case).summary);
        (name, got, expected)
    }));
}
