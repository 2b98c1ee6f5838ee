//! Routes over the router graph.
//!
//! Routing in the emulated Internet is static (ModelNet precomputes routes
//! the same way) and **demand-driven**. Every router hangs from one router
//! of the topology's **2-core** (see [`crate::topology`]), its *anchor*, by
//! a fixed path. So a route between routers on two anchors is the source's
//! offset to its anchor, the core route between the anchors and the
//! destination's offset, and a route between routers on one anchor is the
//! tree path through their nearest common ancestor.
//!
//! [`RouteOracle`] therefore keeps one bit-packed `(latency, hops)` word per
//! *pair of anchors* of its endpoints. The first query that finds its pair
//! not computed runs one lexicographic shortest-path sweep over the core
//! from the source's anchor, and writes the result into that anchor's row
//! and, routes being symmetric, its column; every entry stays. On the
//! default topology the sweep visits 960 routers, not ~3,350, and 400
//! endpoints hang from about 220 anchors. `tests/route_oracle.rs` holds
//! every answer bit-identical to a test-local heap Dijkstra over random
//! topologies, and this module's tests do the same on arbitrary graphs:
//! branching and nested trees, tree-only components, isolated routers.
//!
//! Paths minimize **hop count** (ties broken by latency), like the policy
//! routing of the real Internet — crucially, paths do *not* detour around
//! slow T3 links, which is what produces the heavy RTT tail of Figure 6.
//! Each route records total one-way latency and hop count; per-route loss
//! under a uniform per-link loss rate `p` is `1 − (1−p)^hops`, exactly the
//! composition behind Figure 11's per-route loss CDFs.

use std::mem::size_of;

use fuse_sim::SimDuration;

use crate::topology::{RouterId, Topology, SAME_ROUTER_LATENCY};

/// Latency/hop summary of one route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Number of links traversed.
    pub hops: u32,
}

impl RouteInfo {
    /// Per-route one-way delivery probability given a uniform per-link loss
    /// rate.
    pub fn delivery_prob(&self, per_link_loss: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&per_link_loss));
        (1.0 - per_link_loss).powi(self.hops as i32)
    }

    /// Per-route one-way loss rate given a uniform per-link loss rate.
    pub fn loss_rate(&self, per_link_loss: f64) -> f64 {
        1.0 - self.delivery_prob(per_link_loss)
    }
}

// ---------------------------------------------------------------------------
// Packed route words.

/// Bits of the packed word holding the hop count (top of the word).
const HOP_BITS: u32 = 10;
/// Shift of the hop field: the low 54 bits hold the latency.
const HOP_SHIFT: u32 = 64 - HOP_BITS;
/// Mask of the latency field (2^54 ns ≈ 208 simulated days per route —
/// five orders of magnitude above the topology generator's worst case).
const LAT_MASK: u64 = (1 << HOP_SHIFT) - 1;
/// Sentinel for an unreachable destination.
const UNREACHABLE: u64 = u64::MAX;
/// Most hops of a router's offset to its anchor.
pub(crate) const MAX_OFFSET_HOPS: u32 = 255;
/// The packed word of the first hop count a core sweep does not expand:
/// a core route of 511 hops or more is refused.
const DEEPEST: u64 = 511 << HOP_SHIFT;
/// Most latency of one link, in nanoseconds (2^44 ns, about 4.9 h): 1,023
/// such links still fit the latency field.
pub(crate) const MAX_LINK_NS: u64 = LAT_MASK >> HOP_BITS;

// A route between two anchors is an offset, a core route and an offset:
// at most 255 + 510 + 255 = 1,020 links, each at most `MAX_LINK_NS`. So
// the three packed words add field by field: the latencies sum below
// 1,023 · 2^44 < 2^54 and cannot carry into the hops, and the hops sum
// below 1,023, the hop field of `UNREACHABLE`.
const _: () = assert!(2 * MAX_OFFSET_HOPS as u64 + (DEEPEST >> HOP_SHIFT) < (1 << HOP_BITS) - 1);

/// Packs one row entry into a single word: hops in the top 10 bits,
/// latency nanoseconds in the low 54. Halves a resident entry relative to
/// an unpacked `(u64, u32)` (16 bytes with padding).
pub(crate) fn pack(lat: u64, hops: u32) -> u64 {
    if lat == u64::MAX {
        return UNREACHABLE;
    }
    assert!(
        lat <= LAT_MASK && u64::from(hops) < (1 << HOP_BITS) - 1,
        "route exceeds packed capacity: {lat} ns, {hops} hops"
    );
    (u64::from(hops) << HOP_SHIFT) | lat
}

/// Inverse of [`pack`] for reachable entries.
pub(crate) fn unpack(w: u64) -> (u64, u32) {
    (w & LAT_MASK, (w >> HOP_SHIFT) as u32)
}

// ---------------------------------------------------------------------------
// The core sweep and the tree path.

/// Shortest paths from core index `from` to every core router: packed
/// `(latency, hops)` per core index, `UNREACHABLE` when not reached.
///
/// Lexicographic on `(hops, latency)`: minimum hop count, ties broken
/// by total latency. Minimising hops first makes this a breadth-first
/// layering, so no priority queue is needed:
///
/// * a router first reached from layer `d − 1` is in layer `d`, and its
///   hop count is `d`;
/// * its latency is the minimum, over its neighbours in layer `d − 1`,
///   of their latency plus the link's. Every layer `d − 1` router is
///   dequeued before any layer `d` one, and its latency was settled
///   while layer `d − 2` was scanned — a prefix of a minimum-hop path
///   is itself a minimum-hop path.
///
/// One FIFO pass over the core's compressed adjacency, O(core routers +
/// core links), gives exactly the `(hops, latency)` a lexicographic
/// Dijkstra would.
///
/// The words are packed, hops above latency, so one integer `min` is
/// the lexicographic one: a neighbour already reached holds a hop
/// count at most one above the router being expanded, so `min` keeps
/// an earlier layer's word and takes the lower latency within a layer.
/// An unreached neighbour holds `UNREACHABLE`, above every route, and
/// is queued by a write that always happens and a tail that moves only
/// for it. No branch depends on the graph, which roughly halves the
/// sweep. A core link's packed step keeps its latency below 2^44 ns
/// ([`Topology::core_neighbors`]), so no sum carries into the hop
/// field, and a route of [`DEEPEST`]'s 511 hops or more is refused.
fn core_from(topo: &Topology, from: u32) -> Vec<u64> {
    let n = topo.core_len();
    let mut best = vec![UNREACHABLE; n];
    best[from as usize] = 0;
    // The FIFO of core indices, with one spare slot at the end.
    let mut queue = vec![0; n + 1];
    queue[0] = from;
    let (mut head, mut tail) = (0, 1);
    while head < tail {
        let c = queue[head];
        head += 1;
        let at = best[c as usize];
        assert!(
            at < DEEPEST,
            "route exceeds packed capacity: {} hops",
            at >> HOP_SHIFT
        );
        for &(next, step) in topo.core_neighbors(c) {
            let e = best[next as usize];
            best[next as usize] = e.min(at + step);
            queue[tail] = next;
            tail += usize::from(e == UNREACHABLE);
        }
    }
    best
}

/// Packed `(latency, hops)` of the one path between `a` and `b`, which hang
/// from the same anchor: up to their nearest common ancestor and down.
fn tree_path(topo: &Topology, a: RouterId, b: RouterId) -> u64 {
    let depth = |r: RouterId| unpack(topo.hang(r).off).1;
    let parent = |r: RouterId| topo.hang(r).parent;
    let (mut x, mut y) = (a, b);
    while depth(x) > depth(y) {
        x = parent(x);
    }
    while depth(y) > depth(x) {
        y = parent(y);
    }
    while x != y {
        (x, y) = (parent(x), parent(y));
    }
    let [(a_lat, a_hops), (b_lat, b_hops), (m_lat, m_hops)] =
        [a, b, x].map(|r| unpack(topo.hang(r).off));
    pack(a_lat + b_lat - 2 * m_lat, a_hops + b_hops - 2 * m_hops)
}

// ---------------------------------------------------------------------------
// The demand-driven oracle.

/// The diagonal entry of an anchor whose row has been computed. No query
/// reads the diagonal (two endpoints on one anchor take the tree path), and
/// no route between two anchors is below one hop, so it is no route.
const SWEPT: u64 = 1;

/// Counters and occupancy of a [`RouteOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Queries answered without a sweep: from an anchor pair's computed
    /// entry (either anchor's sweep wrote it), or by the tree path between
    /// two endpoints on one anchor.
    pub hits: u64,
    /// Queries whose anchor pair was not computed yet: each sweeps from the
    /// source's anchor once.
    pub misses: u64,
    /// Anchor rows computed so far, one per miss: every one stays.
    pub resident_rows: usize,
    /// Distinct anchors of the endpoints: the rows a table can have.
    pub anchors: usize,
    /// Bytes held by the anchor table and the per-endpoint arrays.
    pub resident_bytes: usize,
}

/// Demand-driven route oracle over one topology and a fixed **endpoint
/// set**: core routes between the endpoints' anchors computed lazily and
/// kept in one bit-packed `anchors × anchors` table, and each endpoint's
/// fixed offset to its anchor added on the way out.
///
/// Routing is static, so an entry never goes stale and is never dropped:
/// resident memory is `B × B × 8` bytes for `B` distinct anchors (at most
/// the `A` distinct endpoints, about 220 for 400 on the default topology),
/// plus at most 24 bytes per endpoint, whatever the router count. Links are
/// undirected and a route's `(hops, latency)` are integer sums over a path
/// that reads the same both ways, so a sweep from one anchor fills its row
/// and its column, and only a pair whose anchors have *neither* been swept
/// costs a sweep. A hit is one table load (or, for two endpoints on one
/// anchor, a walk up their tree) and no allocation; a miss is one
/// breadth-first sweep over the topology's core (under 2 ms at 100k
/// routers, about 20 µs at the default topology).
///
/// The oracle owns the [`Topology`] it answers for, so no other graph can
/// reach its table. For a fixed topology and query sequence it is fully
/// deterministic, [`stats`](RouteOracle::stats) included.
pub struct RouteOracle {
    topo: Topology,
    /// The endpoint routers, sorted and distinct: a router's position by
    /// binary search.
    endpoints: Vec<RouterId>,
    /// Per endpoint, in `endpoints` order: its anchor's position in
    /// `anchors` and its packed offset to that anchor.
    ends: Vec<(u32, u64)>,
    /// Core indices of the endpoints' anchors, sorted and distinct.
    anchors: Vec<u32>,
    /// `anchors × anchors` packed core routes, row-major: 0 until computed
    /// (two distinct anchors are at least one hop apart), `UNREACHABLE`
    /// between components, [`SWEPT`] on the diagonal of a swept anchor.
    table: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl RouteOracle {
    /// Creates an oracle for routes over `topo` among `endpoints`
    /// (duplicates collapse). Every router of a topology as an endpoint
    /// makes it any-to-any. Sweeps nothing.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is not a router of `topo`.
    pub fn new(topo: Topology, endpoints: &[RouterId]) -> Self {
        let mut endpoints = endpoints.to_vec();
        endpoints.sort_unstable();
        endpoints.dedup();
        endpoints.shrink_to_fit();
        assert!(
            endpoints
                .last()
                .is_none_or(|&r| (r as usize) < topo.n_routers()),
            "endpoint router id out of range"
        );
        let mut anchors: Vec<u32> = endpoints.iter().map(|&r| topo.hang(r).anchor).collect();
        anchors.sort_unstable();
        anchors.dedup();
        anchors.shrink_to_fit();
        let ends = endpoints
            .iter()
            .map(|&r| topo.hang(r))
            .map(|h| (anchors.partition_point(|&c| c < h.anchor) as u32, h.off))
            .collect();
        RouteOracle {
            topo,
            endpoints,
            ends,
            table: vec![0; anchors.len() * anchors.len()],
            anchors,
            hits: 0,
            misses: 0,
        }
    }

    /// Position of `router` in the endpoint set, the index
    /// [`route_by_index`](RouteOracle::route_by_index) takes; `None` if it
    /// is not an endpoint.
    pub fn endpoint_index(&self, router: RouterId) -> Option<u32> {
        self.endpoints.binary_search(&router).ok().map(|i| i as u32)
    }

    /// Route summary between the endpoints at positions `src` and `dst`
    /// of the endpoint set: the two ends' offsets around their anchors'
    /// core route, which either anchor's sweep computed; with neither
    /// swept, the source's anchor is (one sweep over the topology's core).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable from `src` (the topology generator
    /// produces connected graphs), or if a position of two different
    /// endpoints is not below the number of distinct endpoints.
    pub fn route_by_index(&mut self, src: u32, dst: u32) -> RouteInfo {
        if src == dst {
            // Same attachment router: a LAN hop, not a wide-area route.
            return RouteInfo {
                latency: SAME_ROUTER_LATENCY,
                hops: 0,
            };
        }
        let w = self.packed(src, dst);
        assert_ne!(w, UNREACHABLE, "destination unreachable");
        let (lat, hops) = unpack(w);
        RouteInfo {
            latency: SimDuration(lat),
            hops,
        }
    }

    /// The packed route between the endpoints at positions `src` and `dst`:
    ///
    /// * anchors differ — `src`'s offset to its anchor, the core route
    ///   between the anchors, and `dst`'s offset. A hanging tree meets the
    ///   core at its anchor alone, so any path out of it leaves through the
    ///   anchor, and a simple path never comes back in;
    /// * one anchor — the tree path through the two routers' nearest common
    ///   ancestor, the one simple path between them;
    /// * the anchors in two components — `UNREACHABLE`.
    ///
    /// The three words of a route between anchors add without a carry
    /// (see [`MAX_OFFSET_HOPS`]).
    fn packed(&mut self, src: u32, dst: u32) -> u64 {
        let ((s, s_off), (d, d_off)) = (self.ends[src as usize], self.ends[dst as usize]);
        if s == d {
            self.hits += 1;
            let (a, b) = (self.endpoints[src as usize], self.endpoints[dst as usize]);
            return tree_path(&self.topo, a, b);
        }
        let at = s as usize * self.anchors.len() + d as usize;
        if self.table[at] == 0 {
            self.misses += 1;
            self.sweep_anchor(s as usize);
        } else {
            self.hits += 1;
        }
        let core = self.table[at];
        if core == UNREACHABLE {
            return UNREACHABLE;
        }
        s_off + core + d_off
    }

    /// Sweeps the core from the anchor at position `a` and writes its route
    /// to every anchor into row `a` and, routes being symmetric, column `a`.
    fn sweep_anchor(&mut self, a: usize) {
        let n = self.anchors.len();
        let best = core_from(&self.topo, self.anchors[a]);
        for (b, &c) in self.anchors.iter().enumerate() {
            let w = best[c as usize];
            self.table[a * n + b] = w;
            self.table[b * n + a] = w;
        }
        self.table[a * n + a] = SWEPT;
    }

    /// Whether the row of endpoint `router`'s anchor has been computed
    /// (test hook; does not count as a hit).
    ///
    /// # Panics
    ///
    /// Panics if `router` is not an endpoint.
    pub fn row_resident(&self, router: RouterId) -> bool {
        let ep = self.endpoint_index(router);
        let ep = ep.unwrap_or_else(|| panic!("router {router} is not an endpoint of this oracle"));
        let a = self.ends[ep as usize].0 as usize;
        self.table[a * self.anchors.len() + a] == SWEPT
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> OracleStats {
        let diagonal = self.table.iter().step_by(self.anchors.len() + 1);
        OracleStats {
            hits: self.hits,
            misses: self.misses,
            resident_rows: diagonal.filter(|&&w| w == SWEPT).count(),
            anchors: self.anchors.len(),
            resident_bytes: self.table.capacity() * size_of::<u64>()
                + self.ends.capacity() * size_of::<(u32, u64)>()
                + (self.endpoints.capacity() + self.anchors.capacity()) * size_of::<RouterId>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn small_topo() -> Topology {
        let cfg = TopologyConfig {
            n_as: 8,
            core_per_as: 4,
            chains_per_as: 1,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        Topology::generate(&cfg, &mut StdRng::seed_from_u64(11))
    }

    /// An oracle with every router of `topo` as an endpoint, so a
    /// router's endpoint position is its id.
    fn any_to_any(topo: Topology) -> RouteOracle {
        let all: Vec<RouterId> = (0..topo.n_routers() as RouterId).collect();
        RouteOracle::new(topo, &all)
    }

    /// The packed route from `src` to every router of `oracle`'s topology,
    /// `src` itself included (0), as [`any_to_any`] serves them.
    fn row_to_all(oracle: &mut RouteOracle, src: RouterId) -> Vec<u64> {
        let n = oracle.topo.n_routers() as RouterId;
        (0..n).map(|dst| oracle.packed(src, dst)).collect()
    }

    #[test]
    fn pack_roundtrips_and_flags_unreachable() {
        for &(lat, hops) in &[(0u64, 0u32), (1, 1), (123_456_789_000, 43), (LAT_MASK, 60)] {
            assert_eq!(unpack(pack(lat, hops)), (lat, hops));
        }
        assert_eq!(pack(u64::MAX, u32::MAX), UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "packed capacity")]
    fn pack_rejects_oversized_latency() {
        pack(LAT_MASK + 1, 3);
    }

    /// Two offsets and a core route at their capacities, every link at
    /// `MAX_LINK_NS`, add field by field into a reachable word.
    #[test]
    fn words_at_capacity_add_without_a_carry() {
        let off = pack(u64::from(MAX_OFFSET_HOPS) * MAX_LINK_NS, MAX_OFFSET_HOPS);
        let core_hops = (DEEPEST >> HOP_SHIFT) as u32 - 1;
        let core = pack(u64::from(core_hops) * MAX_LINK_NS, core_hops);
        let hops = 2 * MAX_OFFSET_HOPS + core_hops;
        let sum = off + core + off;
        assert_ne!(sum, UNREACHABLE);
        assert_eq!(unpack(sum), (u64::from(hops) * MAX_LINK_NS, hops));
    }

    #[test]
    fn same_router_is_lan_latency() {
        let mut oracle = any_to_any(small_topo());
        let r = oracle.route_by_index(7, 7);
        assert_eq!(r.hops, 0);
        assert_eq!(r.latency, SAME_ROUTER_LATENCY);
        // Served without building any row.
        assert_eq!(oracle.stats().resident_rows, 0);
    }

    #[test]
    fn every_same_router_query_is_lan_latency() {
        let topo = small_topo();
        let n = topo.n_routers() as RouterId;
        let mut oracle = any_to_any(topo);
        for r in 0..n {
            let info = oracle.route_by_index(r, r);
            assert_eq!(info.hops, 0, "router {r}");
            assert_eq!(info.latency, SAME_ROUTER_LATENCY, "router {r}");
            assert!(info.latency < SimDuration::from_millis(1));
        }
        let s = oracle.stats();
        assert_eq!((s.hits, s.misses, s.resident_rows), (0, 0, 0));
    }

    #[test]
    fn answers_from_either_end_row_agree() {
        // Each direction asked of its own oracle, so `a → b` is served from
        // a's anchor row and `b → a` from b's (or both by one tree path):
        // the answers must still match.
        let mut swept = 0;
        for a in [0u32, 5, 13, 21] {
            for b in [3u32, 9, 30] {
                let mut from_a = any_to_any(small_topo());
                let mut from_b = any_to_any(small_topo());
                let f = from_a.route_by_index(a, b);
                let r = from_b.route_by_index(b, a);
                let one_anchor = from_a.ends[a as usize].0 == from_a.ends[b as usize].0;
                assert_eq!(from_a.row_resident(a), !one_anchor, "{a} -> {b}");
                assert_eq!(from_b.row_resident(b), !one_anchor, "{b} -> {a}");
                swept += usize::from(!one_anchor);
                assert_eq!(f.latency, r.latency, "{a} <-> {b}");
                assert_eq!(f.hops, r.hops, "{a} <-> {b}");
            }
        }
        assert!(swept > 0, "some pair must span two anchors");
    }

    #[test]
    fn routes_are_symmetric_in_latency() {
        // What writing a sweep's row into its column rests on: the sweeps
        // from two core routers agree on the route between them, to the
        // nanosecond.
        let topo = small_topo();
        let n = topo.core_len() as u32;
        let rows: Vec<_> = (0..n).map(|c| core_from(&topo, c)).collect();
        for a in 0..n as usize {
            for b in 0..n as usize {
                assert_eq!(rows[a][b], rows[b][a], "{a} <-> {b}");
            }
        }
    }

    #[test]
    fn hops_decide_before_latency_and_latency_breaks_ties() {
        // 0 → 3 three ways: 2 hops via 1 (20 ms, found first), 2 hops via
        // 2 (10 ms) and 3 hops via 4 and 5 (3 ms). Router 6 has no link.
        let ms = |n: u64| SimDuration::from_millis(n).nanos();
        let topo = Topology::from_links(
            7,
            &[
                (0, 1, ms(10)),
                (1, 3, ms(10)),
                (0, 2, ms(5)),
                (2, 3, ms(5)),
                (0, 4, ms(1)),
                (4, 5, ms(1)),
                (5, 3, ms(1)),
            ],
        );
        assert_eq!(topo.core_len(), 7, "no router of degree 1: all core");
        let row = row_to_all(&mut any_to_any(topo), 0);
        assert_eq!(
            unpack(row[3]),
            (ms(10), 2),
            "fewest hops, then lowest latency"
        );
        assert_eq!(unpack(row[5]), (ms(2), 2));
        assert_eq!(unpack(row[0]), (0, 0));
        assert_eq!(row[6], UNREACHABLE, "unreachable");
    }

    /// Lexicographic `(hops, latency)` Dijkstra from `src` with a binary
    /// heap over the whole graph, adjacency built from `topo.links`,
    /// packed: the reference the core sweep and its hanging trees must
    /// match on any graph.
    fn heap_dijkstra(topo: &Topology, src: RouterId) -> Vec<u64> {
        let mut adj = vec![Vec::new(); topo.n_routers()];
        for l in &topo.links {
            adj[l.a as usize].push((l.b, l.latency));
            adj[l.b as usize].push((l.a, l.latency));
        }
        let mut best = vec![(u32::MAX, u64::MAX); topo.n_routers()];
        let mut heap = BinaryHeap::new();
        best[src as usize] = (0, 0);
        heap.push(Reverse((0u32, 0u64, src)));
        while let Some(Reverse((hops, lat, r))) = heap.pop() {
            if (hops, lat) > best[r as usize] {
                continue;
            }
            for &(next, w) in &adj[r as usize] {
                let cand = (hops + 1, lat + w.nanos());
                if cand < best[next as usize] {
                    best[next as usize] = cand;
                    heap.push(Reverse((cand.0, cand.1, next)));
                }
            }
        }
        best.into_iter()
            .map(|(h, l)| {
                if h == u32::MAX {
                    UNREACHABLE
                } else {
                    pack(l, h)
                }
            })
            .collect()
    }

    /// Every row of `oracle`'s topology, router by router, equals the heap
    /// Dijkstra's.
    fn assert_rows_exact(oracle: &mut RouteOracle) {
        for src in 0..oracle.topo.n_routers() as RouterId {
            let row = row_to_all(oracle, src);
            let reference = heap_dijkstra(&oracle.topo, src);
            for (dst, (&w, &want)) in row.iter().zip(&reference).enumerate() {
                assert_eq!(w, want, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn hanging_trees_route_through_their_anchor_or_common_ancestor() {
        // Core triangle 0-1-2. Hanging from 0: 3, which branches to 4 and
        // 5, and 6 below 5. A tree-only component 7-8 with 9 and 10 on 8,
        // and 11 isolated.
        let topo = Topology::from_links(
            12,
            &[
                (0, 1, 10),
                (1, 2, 20),
                (2, 0, 40),
                (0, 3, 1),
                (3, 4, 2),
                (3, 5, 3),
                (5, 6, 4),
                (7, 8, 5),
                (8, 9, 6),
                (8, 10, 7),
            ],
        );
        // The triangle, one root of the tree-only component, and 11.
        assert_eq!(topo.core_len(), 5);
        assert_eq!(topo.anchor(6), (0, 3));
        assert_eq!(topo.anchor(2), (2, 0));
        assert_eq!(topo.anchor(11), (11, 0));
        let tree_root = topo.anchor(7).0;
        assert!([7, 8, 9, 10].iter().all(|&r| topo.anchor(r).0 == tree_root));
        let mut oracle = any_to_any(topo);
        let row = row_to_all(&mut oracle, 4);
        assert_eq!(unpack(row[6]), (2 + 3 + 4, 3), "through their ancestor 3");
        assert_eq!(unpack(row[0]), (2 + 1, 2), "up to the anchor");
        assert_eq!(unpack(row[2]), (2 + 1 + 40, 3), "anchor, core link, anchor");
        assert_eq!(row[9], UNREACHABLE);
        assert_eq!(row[11], UNREACHABLE);
        assert_eq!(unpack(row_to_all(&mut oracle, 9)[10]), (6 + 7, 2));
        assert_rows_exact(&mut oracle);
    }

    /// A graph on `n` routers: each router after the first links to an
    /// earlier one unless its `parents` draw keeps 0 (one in five: a forest
    /// of branching trees, with tree-only components and isolated
    /// routers), then up to `n` of `chords`, parallel links among them,
    /// close cycles anywhere, so the core can carry trees that hang from
    /// trees and components stay apart.
    fn any_graph(n: usize, parents: &[(u32, u32, u64)], chords: &[(u32, u32, u64)]) -> Topology {
        let mut links = Vec::new();
        for (child, &(keep, pick, w)) in (1u32..n as u32).zip(parents) {
            if keep != 0 {
                links.push((child, pick % child, w));
            }
        }
        for &(a, b, w) in chords.iter().take(chords.len() * n / MAX_ROUTERS) {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                links.push((a, b, w));
            }
        }
        Topology::from_links(n, &links)
    }

    /// Routers in the largest [`any_graph`].
    const MAX_ROUTERS: usize = 40;

    proptest! {
        /// The core sweep plus the hanging trees is exact on any graph,
        /// not only on the generator's rings with access chains: every
        /// pair, unreachable ones included, equals a heap Dijkstra over
        /// the whole graph.
        #[test]
        fn core_rows_equal_heap_dijkstra_on_any_graph(
            n in 1usize..MAX_ROUTERS,
            parents in prop::collection::vec((0u32..5, any::<u32>(), 1u64..60), MAX_ROUTERS..MAX_ROUTERS + 1),
            chords in prop::collection::vec((any::<u32>(), any::<u32>(), 1u64..60), 0..MAX_ROUTERS),
        ) {
            let mut oracle = any_to_any(any_graph(n, &parents, &chords));
            for src in 0..n as RouterId {
                let row = row_to_all(&mut oracle, src);
                prop_assert_eq!(row, heap_dijkstra(&oracle.topo, src), "row {}", src);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let mut oracle = any_to_any(small_topo());
        let mut lat = |a, b| oracle.route_by_index(a, b).latency.nanos();
        assert!(lat(0, 20) <= lat(0, 10) + lat(10, 20));
    }

    #[test]
    fn loss_composition_matches_formula() {
        let info = RouteInfo {
            latency: SimDuration::from_millis(100),
            hops: 15,
        };
        // Paper Figure 11: 0.4% per-link loss over median-15-hop routes
        // yields ~5.8% route loss; 0.8% -> ~11.4%; 1.6% -> ~21.5%.
        assert!((info.loss_rate(0.004) - 0.058).abs() < 0.004);
        assert!((info.loss_rate(0.008) - 0.114).abs() < 0.006);
        assert!((info.loss_rate(0.016) - 0.215).abs() < 0.008);
    }

    #[test]
    fn zero_loss_delivers_always() {
        let info = RouteInfo {
            latency: SimDuration::from_millis(10),
            hops: 40,
        };
        assert_eq!(info.delivery_prob(0.0), 1.0);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut oracle = any_to_any(small_topo());
        oracle.route_by_index(0, 1);
        oracle.route_by_index(0, 2);
        oracle.route_by_index(3, 2);
        let s = oracle.stats();
        assert_eq!(s.misses, 2, "two pairs with neither end computed");
        assert_eq!(s.hits, 1, "second query from source 0");
        assert_eq!(s.resident_rows, 2);
    }

    #[test]
    fn reverse_direction_is_served_from_the_destination_row() {
        let mut oracle = any_to_any(small_topo());
        let forward = oracle.route_by_index(0, 9);
        assert_eq!(oracle.route_by_index(9, 0), forward);
        assert_eq!(oracle.route_by_index(5, 0), oracle.route_by_index(0, 5));
        let s = oracle.stats();
        assert_eq!((s.misses, s.hits, s.resident_rows), (1, 3, 1));
        assert!(oracle.row_resident(0) && !oracle.row_resident(9));
    }

    #[test]
    fn every_computed_row_stays_resident() {
        let mut oracle = any_to_any(small_topo());
        oracle.route_by_index(0, 6);
        oracle.route_by_index(1, 6);
        oracle.route_by_index(7, 0); // served from 0's column
        oracle.route_by_index(4, 5); // one anchor, router 0: its tree path
        oracle.route_by_index(2, 8);
        assert!((0..3).all(|r| oracle.row_resident(r)));
        // Routers 4 and 5 hang from router 0, so its row is theirs.
        assert!(oracle.row_resident(4) && oracle.row_resident(5));
        assert!(!oracle.row_resident(7) && !oracle.row_resident(6));
        let s = oracle.stats();
        assert_eq!((s.misses, s.hits, s.resident_rows), (3, 2, 3));
    }

    #[test]
    fn resident_bytes_are_the_anchor_table_and_endpoint_arrays() {
        // Disjoint pairs, so no query can be served from the other end's
        // row; the chain routers among them share anchors.
        let endpoints: Vec<RouterId> = (0..12).collect();
        let mut oracle = RouteOracle::new(small_topo(), &endpoints);
        for src in (0..12u32).step_by(2) {
            oracle.route_by_index(src, src + 1);
        }
        let s = oracle.stats();
        assert_eq!((s.misses, s.hits, s.resident_rows), (4, 2, 4));
        // The table is anchor-wide, not router- or endpoint-wide: one word
        // per pair of anchors, however many rows are computed; the rest is
        // an anchor position, an offset and a router id per endpoint and a
        // core index per anchor.
        let (a, b) = (endpoints.len(), s.anchors);
        assert_eq!(b, 8, "routers 4 and 5 hang from 0, 10 and 11 from 8");
        assert_eq!(
            s.resident_bytes,
            b * b * size_of::<u64>() + a * size_of::<(u32, u64)>() + (a + b) * size_of::<u32>()
        );
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn non_endpoint_router_is_refused() {
        let oracle = RouteOracle::new(small_topo(), &[0, 3, 9]);
        oracle.row_resident(4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_router_query_still_checks_id_range() {
        let mut oracle = RouteOracle::new(small_topo(), &[50_000]);
        oracle.route_by_index(0, 0);
    }
}
