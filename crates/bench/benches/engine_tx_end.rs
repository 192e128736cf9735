//! Engine hot-path benchmark: reception resolution at transmission end.
//!
//! `handle_tx_end` dominates simulation wall time at scale — for every
//! transmission it must find the audible receivers and probe the active
//! transmissions for half-duplex and collision overlaps, both through the
//! engine's uniform spatial grids. This bench runs a paper-density flooding
//! scenario (no crypto, so it isolates the engine) at two node counts.
//!
//! The field is scaled with `n` to hold the paper's R5 density constant
//! (80 nodes on 1000 m × 1000 m), so larger points stress bookkeeping
//! rather than congestion collapse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use byzcast_harness::{ProtocolChoice, ScenarioConfig, Workload};
use byzcast_sim::{Field, SimConfig, SimDuration};

/// Paper density: 80 nodes per 1000 m × 1000 m.
fn density_preserving_field(n: usize) -> Field {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    Field::new(side, side)
}

fn scenario(n: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: 1,
        n,
        protocol: ProtocolChoice::Flooding, // no crypto: isolates the engine
        sim: SimConfig {
            field: density_preserving_field(n),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

fn workload() -> Workload {
    Workload {
        count: 6,
        payload_bytes: 512,
        start: SimDuration::from_secs(2),
        interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(4),
        ..Workload::default()
    }
}

fn bench_engine_tx_end(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("engine_tx_end");
    group.sample_size(10);
    for n in [480usize, 800] {
        let config = scenario(n);
        group.bench_with_input(BenchmarkId::new("grid", n), &config, |b, config| {
            b.iter(|| black_box(config.run(&w)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_tx_end);
criterion_main!(benches);
