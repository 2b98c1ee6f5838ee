//! Wall-clock microbenchmarks for the two hot paths no `BENCHMARK.json`
//! per-layer metric covers: SHA-1 throughput of the three implementations
//! and the route oracle's hit/miss latency. Prints a table and nothing
//! else; regressions are judged against `benchmark/`, not here.
//!
//! ```text
//! cargo run --release -p fuse_harness --bin microbench
//! ```

use std::hint::black_box;
use std::time::Instant;

use fuse_net::{RouteOracle, Topology, TopologyConfig};
use fuse_wire::{sha1, Digest};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Timed passes per figure; the best (SHA-1) or median (routes) is shown.
const REPS: usize = 5;

/// Best GiB/s of `f` hashing `data` over `REPS` passes of `iters` calls.
fn gib_per_s(data: &[u8], iters: u64, f: impl Fn(&[u8]) -> Digest) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut acc = 0u8;
        for _ in 0..iters {
            acc ^= f(black_box(data)).0[0];
        }
        black_box(acc);
        let gib = (iters * data.len() as u64) as f64 / f64::from(1u32 << 30);
        best = best.max(gib / t0.elapsed().as_secs_f64());
    }
    best
}

fn sha1_table() {
    println!("sha1        auto GiB/s   portable GiB/s   reference GiB/s");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        let iters = (16 << 20) / size as u64;
        println!(
            "{size:>6} B   {:>10.3}   {:>14.3}   {:>15.3}",
            gib_per_s(&data, iters, sha1),
            gib_per_s(&data, iters, fuse_wire::sha1::sha1_portable),
            gib_per_s(&data, iters, fuse_wire::sha1::reference::sha1),
        );
    }
}

/// Median ns per call of `query` over `REPS` samples of `calls` calls.
fn median_ns(calls: usize, mut query: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..calls {
                acc ^= query();
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}

/// Hit and miss latency on the default topology with the default 64-row
/// LRU, the configuration every simulated world runs.
fn route_table() {
    const CAP: usize = 64;
    let mut rng = StdRng::seed_from_u64(0xF0D0);
    let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
    let attach = topo.sample_attachments(400, &mut rng);
    let oracle = RouteOracle::new(CAP);

    // Hits: two resident rows queried alternately, so every query also
    // pays the LRU splice.
    let (s0, s1, dst) = (attach[0], attach[1], attach[2]);
    oracle.route(&topo, s0, dst);
    oracle.route(&topo, s1, dst);
    let mut i = 0usize;
    let hit_ns = median_ns(4096, || {
        i += 1;
        let src = if i & 1 == 0 { s0 } else { s1 };
        oracle.route(&topo, src, dst).latency.nanos()
    });

    // Misses: round-robin over CAP + 1 sources, so the next source is
    // always the one just evicted and every query runs a Dijkstra. The
    // destination is kept out of the rotation (a same-router query
    // bypasses the LRU and would let the rest fit).
    let miss_dst = attach[3];
    let mut rotation: Vec<_> = attach[4..].to_vec();
    rotation.sort_unstable();
    rotation.dedup();
    rotation.retain(|&r| r != miss_dst);
    rotation.truncate(CAP + 1);
    assert_eq!(rotation.len(), CAP + 1, "too few distinct attachments");
    let evictions_before = oracle.stats().evictions;
    let mut next = 0usize;
    let miss_ns = median_ns(CAP + 1, || {
        next += 1;
        oracle
            .route(&topo, rotation[next % rotation.len()], miss_dst)
            .latency
            .nanos()
    });
    let queries = (REPS * (CAP + 1)) as u64;
    assert!(
        oracle.stats().evictions - evictions_before >= queries - (CAP as u64 + 1),
        "the miss rotation did not evict: {:?}",
        oracle.stats()
    );

    println!(
        "route oracle ({} routers, {CAP}-row LRU): hit {hit_ns:.1} ns   miss {miss_ns:.0} ns",
        topo.n_routers()
    );
}

fn main() {
    sha1_table();
    println!();
    route_table();
}
