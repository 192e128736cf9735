//! Experiment R9 (extension) — timeout vs. stability-based purging.
//!
//! The paper chose timeout purging "due to its simplicity" and deferred the
//! "stability detection mechanism" (§3.2.2). This ablation implements both
//! and compares buffer high-water marks and delivery: stability purging
//! should shrink buffers well below the §3.5 timeout bound without hurting
//! recovery.

use byzcast_bench::{banner, default_scenario, default_workload, opts, runner};
use byzcast_core::PurgePolicy;
use byzcast_harness::{report::fnum, run_sweep, SweepPoint, Table};

fn main() {
    let opts = opts();
    banner(
        "R9",
        "timeout vs stability-based purging (extension; n ∈ {60, 100})",
        "paper §3.2.2: 'purged either after a timeout, or by using a stability detection mechanism'",
    );
    let workload = default_workload(&opts);

    let mut metas = Vec::new();
    let mut points = Vec::new();
    for n in [60usize, 100] {
        for policy in [PurgePolicy::Timeout, PurgePolicy::Stability] {
            let mut config = default_scenario(n, 0);
            config.byzcast.purge_policy = policy;
            metas.push((n, policy));
            points.push(SweepPoint::new(
                format!("n={n}/{policy:?}"),
                vec![
                    ("n".to_owned(), n.to_string()),
                    ("purge_policy".to_owned(), format!("{policy:?}")),
                ],
                config,
                workload.clone(),
            ));
        }
    }

    let results = run_sweep(&runner(&opts, "r9_purge"), &points);
    let mut table = Table::new([
        "n",
        "policy",
        "buffer high-water",
        "delivery",
        "recovered",
        "gossip frames",
    ]);
    for (&(n, policy), result) in metas.iter().zip(&results) {
        let agg = &result.aggregate;
        let c = agg.counters.unwrap_or_default();
        let gossip_frames = agg.frames_sent - agg.data_frames - c.requests_sent - c.finds_sent;
        table.add_row([
            n.to_string(),
            format!("{policy:?}"),
            agg.store_high_water.to_string(),
            fnum(agg.delivery_ratio),
            c.recovered_via_request.to_string(),
            gossip_frames.to_string(),
        ]);
    }
    print!("{table}");
}
