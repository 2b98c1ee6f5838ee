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

/// Hit, reverse-row hit and miss latency for 400 endpoints on the default
/// topology with every row allowed to stay resident — the configuration
/// `Network::new` derives for the paper's 400-node worlds — plus the bytes
/// resident with as many rows computed as queries can cause.
fn route_table() {
    let mut rng = StdRng::seed_from_u64(0xF0D0);
    let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
    let mut endpoints = topo.sample_attachments(400, &mut rng);
    endpoints.sort_unstable();
    endpoints.dedup();
    let n = endpoints.len();
    let oracle = RouteOracle::new(&endpoints, n);

    // Hits: two resident rows queried alternately, so every query also
    // pays the LRU splice. Forward hits name the resident row's router as
    // the source; reverse-row hits name it as the destination, from a
    // source whose own row is not resident.
    let (s0, s1, far) = (endpoints[0], endpoints[1], endpoints[2]);
    oracle.route(&topo, s0, far);
    oracle.route(&topo, s1, far);
    let mut i = 0usize;
    let hit_ns = median_ns(4096, || {
        i += 1;
        let src = if i & 1 == 0 { s0 } else { s1 };
        oracle.route(&topo, src, far).latency.nanos()
    });
    let reverse_ns = median_ns(4096, || {
        i += 1;
        let dst = if i & 1 == 0 { s0 } else { s1 };
        oracle.route(&topo, far, dst).latency.nanos()
    });
    assert_eq!(oracle.stats().misses, 2, "the hit loops ran a Dijkstra");

    // Misses: a one-row oracle asked about disjoint pairs (the samples
    // share the n / 2 there are), so neither end of a query is ever
    // resident and each runs a Dijkstra.
    let cold = RouteOracle::new(&endpoints, 1);
    let mut next = 0usize;
    let miss_ns = median_ns(n / (2 * REPS), || {
        next += 2;
        cold.route(&topo, endpoints[next - 2], endpoints[next - 1])
            .latency
            .nanos()
    });
    assert_eq!(cold.stats().hits, 0, "a miss query was served from a row");

    // Fill the oracle as far as it goes: a row is only computed when
    // neither end has one, so every endpoint asks about the last one,
    // whose own row is then never needed.
    for &src in &endpoints[..n - 1] {
        oracle.route(&topo, src, endpoints[n - 1]);
    }
    let stats = oracle.stats();
    println!(
        "route oracle ({} routers, {n} endpoints): hit {hit_ns:.1} ns   reverse-row hit \
         {reverse_ns:.1} ns   miss {miss_ns:.0} ns   resident {} rows / {} bytes",
        topo.n_routers(),
        stats.resident_rows,
        stats.resident_bytes
    );
}

fn main() {
    sha1_table();
    println!();
    route_table();
}
