//! Micro-benchmarks for the overlay maintenance rules: one CDS / MIS+B
//! computation step over neighbour tables of varying density. Each node
//! runs this every beacon period, so its cost scales the simulator and —
//! in a real deployment — the CPU budget of small devices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use byzcast_overlay::{Cds, MapTrust, MisBridges, NeighborTable, OverlayProtocol, OverlayRole};
use byzcast_sim::{Field, NodeId, Position, SimDuration, SimRng, SimTime};

/// Builds node 0's neighbour table within a random geometric graph of `n`
/// nodes, advertising full (truthful) neighbour lists.
fn random_table(n: usize, side: f64, range: f64, seed: u64) -> NeighborTable {
    let mut rng = SimRng::new(seed);
    let field = Field::new(side, side);
    // Node 0 sits at the centre so it has a rich neighbourhood.
    let mut positions: Vec<Position> = vec![Position::new(side / 2.0, side / 2.0)];
    positions.extend((1..n).map(|_| field.random_position(&mut rng)));
    let neighbors_of = |i: usize| -> Vec<NodeId> {
        (0..n)
            .filter(|&j| j != i && positions[i].distance(&positions[j]) <= range)
            .map(|j| NodeId(j as u32))
            .collect()
    };
    let mut table = NeighborTable::new(SimDuration::from_secs(60));
    let now = SimTime::from_secs(1);
    for q in neighbors_of(0) {
        let qn = neighbors_of(q.index());
        // Roughly half the neighbourhood advertises dominator status, which
        // exercises the pruning / deferral branches.
        let role = if q.0 % 2 == 0 {
            OverlayRole::Dominator
        } else {
            OverlayRole::Passive
        };
        let dom: Vec<NodeId> = qn.iter().copied().filter(|x| x.0 % 2 == 0).collect();
        table.record_beacon(now, q, role, &qn, &dom);
    }
    table
}

/// A seed whose 180-node graph gives node 0 the `mute-mobile` shape, with
/// no cover among the coverers (so pruning weighs every one and every pair).
const MUTE_MOBILE_SEED: u64 = 139;

fn bench_decide(c: &mut Criterion) {
    let trust = MapTrust::default();
    let mut group = c.benchmark_group("overlay_decide");
    for &n in &[40usize, 100, 200] {
        let table = random_table(n, 1000.0, 250.0, 11);
        group.bench_with_input(BenchmarkId::new("cds", n), &table, |b, table| {
            b.iter(|| black_box(Cds.decide(NodeId(0), table, &trust)))
        });
        group.bench_with_input(BenchmarkId::new("mis+b", n), &table, |b, table| {
            b.iter(|| black_box(MisBridges.decide(NodeId(0), table, &trust)))
        });
    }
    // The neighbourhood behind the `mute-mobile` workload's overlay cost:
    // 35 neighbours, 18 of them marked coverers with higher ids (node 0 is
    // the lowest id; even ids advertise marked).
    let table = random_table(180, 1000.0, 250.0, MUTE_MOBILE_SEED);
    let coverers = table.iter().filter(|(_, i)| i.marked).count();
    assert_eq!((table.len(), coverers), (35, 18), "mute-mobile shape");
    group.bench_with_input(
        BenchmarkId::new("cds", "mute-mobile-shape"),
        &table,
        |b, table| b.iter(|| black_box(Cds.decide(NodeId(0), table, &trust))),
    );
    group.finish();
}

fn bench_table_ops(c: &mut Criterion) {
    c.bench_function("neighbor_table/record_100_beacons_and_prune", |b| {
        let nbrs: Vec<NodeId> = (0..20).map(NodeId).collect();
        b.iter(|| {
            let mut t = NeighborTable::new(SimDuration::from_secs(3));
            for i in 0..100u64 {
                t.record_beacon(
                    SimTime::from_millis(i * 10),
                    NodeId((i % 30) as u32),
                    OverlayRole::Dominator,
                    &nbrs,
                    &[],
                );
            }
            t.prune(SimTime::from_secs(2));
            black_box(t.len())
        })
    });
}

criterion_group!(benches, bench_decide, bench_table_ops);
criterion_main!(benches);
