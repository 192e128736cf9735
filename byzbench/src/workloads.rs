//! The three benchmark workloads: scenario and message stream per name.

use byzcast_adversary::MutePolicy;
use byzcast_core::{RecoveryConfig, ResourceConfig};
use byzcast_harness::{AdversaryKind, MobilityChoice, ScenarioConfig, Workload};
use byzcast_sim::{Field, NodeId, SimConfig, SimDuration};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["dense-scale", "mute-mobile", "sig-flood"];

/// One benchmark run's inputs: the workload's scenarios, each seeded from
/// the run seed, and the message stream driven through every one.
#[derive(Clone, Debug)]
pub struct Bench {
    /// Workload name.
    pub name: &'static str,
    /// The scenarios, one per sub-seed.
    pub scenarios: Vec<ScenarioConfig>,
    /// The message stream.
    pub workload: Workload,
}

/// The benchmark's message stream: 4 senders, 512 B, 8 msg/s after a 10 s
/// warm-up, `count` messages, 12 s drain.
pub fn stream(count: usize) -> Workload {
    Workload {
        senders: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        count,
        payload_bytes: 512,
        start: SimDuration::from_secs(10),
        interval: SimDuration::from_millis(125),
        drain: SimDuration::from_secs(12),
    }
}

/// The governed envelope of the sig-flood workload (the R11 DoS values):
/// far above any correct neighbour's rates, tight enough that sustained
/// injection is throttled at admission and capped in the store.
pub fn dos_envelope() -> ResourceConfig {
    ResourceConfig {
        frames_per_sec: 25,
        frame_burst: 50,
        verifs_per_sec: 100,
        verif_burst: 200,
        max_store_msgs: 256,
        max_store_bytes: 256 << 10,
        max_seen_ids: 16384,
        max_gossip_per_origin: 64,
        max_missing_per_origin: 64,
    }
}

fn square(side_m: f64) -> SimConfig {
    SimConfig {
        field: Field::new(side_m, side_m),
        ..SimConfig::default()
    }
}

/// n = 1280 at R5 density (80 nodes/km²), static, CDS, no adversaries,
/// paper profile (resources unlimited, recovery off).
pub fn dense_scale(seed: u64) -> ScenarioConfig {
    let n = 1280;
    ScenarioConfig {
        seed,
        n,
        sim: square(1000.0 * (n as f64 / 80.0).sqrt()),
        ..ScenarioConfig::default()
    }
}

/// n = 200 on 1 km², random waypoint 1–5 m/s with 2 s pauses, 10 %
/// `Mute(DropData)` adversaries on the highest ids, recovery envelope on.
pub fn mute_mobile(seed: u64) -> ScenarioConfig {
    let n = 200;
    let mut scenario = ScenarioConfig {
        seed,
        n,
        sim: square(1000.0),
        mobility: MobilityChoice::Waypoint {
            min_mps: 1.0,
            max_mps: 5.0,
            pause: SimDuration::from_secs(2),
        },
        adversary: Some(AdversaryKind::Mute(MutePolicy::DropData)),
        adversary_count: n / 10,
        ..ScenarioConfig::default()
    };
    scenario.byzcast.recovery = RecoveryConfig::standard();
    scenario
}

/// n = 80 on 1 km² with two signature grinders (4 frames per 200 ms) and
/// one flooder (2 frames of 256 B per 200 ms) on the highest ids, governed
/// by [`dos_envelope`].
pub fn sig_flood(seed: u64) -> ScenarioConfig {
    let n = 80u32;
    let period = SimDuration::from_millis(200);
    let grinder = AdversaryKind::SigGrinder {
        period,
        per_tick: 4,
    };
    let mut scenario = ScenarioConfig {
        seed,
        n: n as usize,
        sim: square(1000.0),
        adversary_assignments: vec![
            (NodeId(n - 3), grinder.clone()),
            (NodeId(n - 2), grinder),
            (
                NodeId(n - 1),
                AdversaryKind::Flooder {
                    period,
                    per_tick: 2,
                    payload_bytes: 256,
                },
            ),
        ],
        ..ScenarioConfig::default()
    };
    scenario.byzcast.resources = dos_envelope();
    scenario
}

/// Messages in each scenario's stream.
pub const STREAM_MESSAGES: usize = 40;

/// The seed of scenario `k` of a run seeded with `seed`: distinct for every
/// pair while `seed` stays below 2^54.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// The inputs of one run of workload `name` seeded with `seed`. Each
/// workload pools several scenarios, so that a run's simulated metrics
/// average over placements rather than follow one topology: smaller and
/// cheaper workloads pool more.
pub fn by_name(name: &str, seed: u64) -> Option<Bench> {
    let (name, make, scenarios): (&'static str, fn(u64) -> ScenarioConfig, usize) = match name {
        "dense-scale" => ("dense-scale", dense_scale, 4),
        "mute-mobile" => ("mute-mobile", mute_mobile, 32),
        "sig-flood" => ("sig-flood", sig_flood, 32),
        _ => return None,
    };
    Some(Bench {
        name,
        scenarios: (0..scenarios).map(|k| make(sub_seed(seed, k))).collect(),
        workload: stream(STREAM_MESSAGES),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_with_distinct_scenario_seeds() {
        for name in NAMES {
            let bench = by_name(name, 3).expect("listed workload");
            assert_eq!(bench.name, name);
            let mut seeds: Vec<u64> = bench.scenarios.iter().map(|s| s.seed).collect();
            seeds.dedup();
            assert_eq!(seeds.len(), bench.scenarios.len());
            assert!(bench
                .scenarios
                .iter()
                .all(|s| s.seed != by_name(name, 4).expect("listed").scenarios[0].seed));
        }
        assert!(by_name("nope", 1).is_none());
    }

    #[test]
    fn adversaries_take_the_highest_ids() {
        let mute = mute_mobile(1);
        let ids: Vec<u32> = mute.adversary_set().iter().map(|id| id.0).collect();
        assert_eq!(ids, (180..200).collect::<Vec<_>>());
        let flood = sig_flood(1);
        let ids: Vec<u32> = flood.adversary_set().iter().map(|id| id.0).collect();
        assert_eq!(ids, vec![77, 78, 79]);
        assert!(dense_scale(1).adversary_set().is_empty());
        // Senders are correct on every workload.
        for s in [mute, flood] {
            assert!(stream(1)
                .senders
                .iter()
                .all(|&id| s.correct_mask()[id.index()]));
        }
    }
}
