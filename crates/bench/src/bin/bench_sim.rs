//! Engine and crypto benchmark, written to `BENCH_sim.json`.
//!
//! The macro point is the R5 overlay scenario (byzcast, static uniform
//! placement, the standard quick workload) at an n ≥ 200 sweep point with
//! the field scaled to hold R5's density constant (80 nodes per
//! 1000 m × 1000 m), so the run stresses per-event bookkeeping rather than
//! congestion collapse. The JSON records the median wall time with the
//! run's deterministic work counts (frames, collisions, signature-cache
//! hits and misses) next to crypto micro-numbers. That the engine's
//! spatial grids and the signature cache change no result is pinned by
//! `tests/golden_digests.rs`, not measured here.
//!
//! Usage: `bench_sim [--quick] [--n N] [--out PATH]` (default
//! `BENCH_sim.json`). `--quick` shrinks the point for CI smoke runs; the
//! committed JSON comes from a full run.

use std::time::Instant;

use byzcast_bench::{default_workload, ExpOpts};
use byzcast_crypto::schnorr::{pow_mod, FixedBaseTable};
use byzcast_crypto::{CachingVerifier, KeyRegistry, SchnorrScheme, Signer, SignerId, Verifier};
use byzcast_harness::record::JsonObject;
use byzcast_harness::{RunSummary, ScenarioConfig, Workload};
use byzcast_sim::{Field, SimConfig};

/// The toy Schnorr group's generator (mirrors `schnorr.rs`).
const G: u64 = 157_608_736_213_706_629;
const P: u64 = 2_305_843_201_413_480_359;

/// R5's density (80 nodes per 1000 m × 1000 m), preserved at any n.
fn density_preserving_field(n: usize) -> Field {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    Field::new(side, side)
}

fn scenario(n: usize) -> ScenarioConfig {
    ScenarioConfig {
        seed: 1,
        n,
        sim: SimConfig {
            field: density_preserving_field(n),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// Runs the point once, returning (wall ms, summary).
fn timed_run(config: &ScenarioConfig, workload: &Workload) -> (f64, RunSummary) {
    let start = Instant::now();
    let summary = config.run(workload);
    (start.elapsed().as_secs_f64() * 1e3, summary)
}

/// One warmup run, then `repeats` timed runs; returns the median wall time
/// and the (identical across runs) summary.
fn median_run(config: &ScenarioConfig, workload: &Workload, repeats: usize) -> (f64, RunSummary) {
    timed_run(config, workload);
    let mut times = Vec::with_capacity(repeats);
    let mut summary = None;
    for _ in 0..repeats {
        let (ms, s) = timed_run(config, workload);
        times.push(ms);
        summary = Some(s);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], summary.expect("repeats >= 1"))
}

/// Mean ns per call of `f` over enough iterations to dwarf timer noise.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let mut quick = false;
    let mut n_override: Option<usize> = None;
    let mut out = String::from("BENCH_sim.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--n" => {
                n_override = Some(
                    args.next()
                        .expect("--n needs a value")
                        .parse()
                        .expect("--n must be an integer"),
                )
            }
            "--out" => out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument: {other}"),
        }
    }

    // --- Macro benchmark: one full byzcast run ---
    let n = n_override.unwrap_or(if quick { 120 } else { 320 });
    let workload = default_workload(&ExpOpts {
        quick: true, // 40-message stream; the point is engine cost, not load
        ..ExpOpts::default()
    });
    let field = density_preserving_field(n);
    eprintln!(
        "engine point: byzcast n={n} on {:.0} m x {:.0} m (R5 density), {} msgs",
        field.width, field.height, workload.count
    );

    let repeats = if quick { 3 } else { 5 };
    let (engine_ms, run) = median_run(&scenario(n), &workload, repeats);
    eprintln!(
        "  median:    {engine_ms:9.0} ms  (delivery {:.3})",
        run.delivery_ratio
    );

    let cache = run
        .counters
        .as_ref()
        .map(|c| (c.sig_cache_hits, c.sig_cache_misses));

    // --- Micro benchmarks: fixed-base exponentiation and the verify cache ---
    let table = FixedBaseTable::new(G);
    let exp: u64 = 0x7FFF_FFF1;
    let pow_mod_ns = ns_per_call(200_000, || {
        std::hint::black_box(pow_mod(G, std::hint::black_box(exp), P));
    });
    let table_ns = ns_per_call(200_000, || {
        std::hint::black_box(table.pow(std::hint::black_box(exp)));
    });

    let keys: KeyRegistry<SchnorrScheme> = KeyRegistry::generate(1, 4);
    let signer = keys.signer(SignerId(0));
    let data = vec![0x42u8; 128];
    let sig = signer.sign(&data);
    let bare = keys.verifier();
    let cached = CachingVerifier::new(keys.verifier(), 512);
    assert!(cached.verify(SignerId(0), &data, &sig));
    let verify_ns = ns_per_call(100_000, || {
        std::hint::black_box(bare.verify(SignerId(0), std::hint::black_box(&data), &sig));
    });
    let hit_ns = ns_per_call(100_000, || {
        std::hint::black_box(cached.verify(SignerId(0), std::hint::black_box(&data), &sig));
    });

    // --- Report ---
    let mut engine = JsonObject::new();
    engine
        .str(
            "scenario",
            "r5-density byzcast, static placement, quick workload",
        )
        .u64("n", n as u64)
        .f64("field_m", field.width)
        .u64("messages", workload.count as u64)
        .u64("collisions", run.collisions)
        .f64("median_ms", engine_ms)
        .f64("delivery_ratio", run.delivery_ratio)
        .u64("frames_sent", run.frames_sent);
    if let Some((hits, misses)) = cache {
        engine
            .u64("sig_cache_hits", hits)
            .u64("sig_cache_misses", misses);
    }

    let mut schnorr = JsonObject::new();
    schnorr
        .f64("pow_mod_ns", pow_mod_ns)
        .f64("fixed_base_table_ns", table_ns)
        .f64("speedup", pow_mod_ns / table_ns)
        .f64("verify_uncached_ns", verify_ns)
        .f64("verify_cache_hit_ns", hit_ns)
        .f64("cache_speedup", verify_ns / hit_ns);

    let mut o = JsonObject::new();
    o.str("bench", "bench_sim")
        .bool("quick", quick)
        .raw("engine", &engine.finish())
        .raw("schnorr", &schnorr.finish());
    let json = o.finish();
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!("wrote {out}");
}
