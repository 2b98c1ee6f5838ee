//! Routes over the router graph.
//!
//! Routing in the emulated Internet is static (ModelNet precomputes routes
//! the same way) and **demand-driven**: [`RouteOracle`] computes one row
//! per *attachment* router the first time a route touching it cannot be
//! answered from the other end, and keeps it — one bit-packed
//! `(latency, hops)` word per attachment router — in a bounded LRU.
//!
//! A row is one lexicographic shortest-path sweep over the topology's
//! **2-core** (see [`crate::topology`]) from the source's anchor; every
//! other router hangs from one core router by a fixed path, so each
//! column is the two ends' offsets around a core route, or the tree path
//! between two routers hanging from the same anchor. On the default
//! topology the sweep visits 960 routers, not ~3,350. `tests/route_oracle.rs`
//! holds every answer bit-identical to a test-local heap Dijkstra over
//! random topologies, and this module's tests do the same on arbitrary
//! graphs: branching and nested trees, tree-only components, isolated
//! routers.
//!
//! Paths minimize **hop count** (ties broken by latency), like the policy
//! routing of the real Internet — crucially, paths do *not* detour around
//! slow T3 links, which is what produces the heavy RTT tail of Figure 6.
//! Each route records total one-way latency and hop count; per-route loss
//! under a uniform per-link loss rate `p` is `1 − (1−p)^hops`, exactly the
//! composition behind Figure 11's per-route loss CDFs.

use std::cell::RefCell;
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
/// The packed word of the first hop count a core sweep does not expand:
/// the routers it would reach are past the hop field's capacity.
const DEEPEST: u64 = ((1 << HOP_BITS) - 2) << HOP_SHIFT;
/// Most latency of one core link, in nanoseconds (2^44 ns, about 4.9 h):
/// 1,022 such links still fit the latency field.
pub(crate) const MAX_LINK_NS: u64 = LAT_MASK >> HOP_BITS;

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
// Rows: one sweep over the core, then the hanging trees.

/// Reused working storage of a row computation.
#[derive(Default)]
struct Sweep {
    /// Packed `(latency, hops)` per core index, `UNREACHABLE` when not
    /// reached.
    best: Vec<u64>,
    /// The FIFO of core indices, with one spare slot at the end.
    queue: Vec<u32>,
}

impl Sweep {
    /// Shortest paths from core index `from` to every core router.
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
    /// ([`Topology::core_neighbors`]), so a route of up to 1,022 hops
    /// cannot carry into the hop field, and a router that deep is refused.
    fn core_from(&mut self, topo: &Topology, from: u32) {
        let n = topo.core_len();
        self.best.clear();
        self.best.resize(n, UNREACHABLE);
        self.best[from as usize] = 0;
        self.queue.clear();
        self.queue.resize(n + 1, 0);
        self.queue[0] = from;
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let c = self.queue[head];
            head += 1;
            let at = self.best[c as usize];
            assert!(
                at < DEEPEST,
                "route exceeds packed capacity: {} hops",
                at >> HOP_SHIFT
            );
            for &(next, step) in topo.core_neighbors(c) {
                let e = self.best[next as usize];
                self.best[next as usize] = e.min(at + step);
                self.queue[tail] = next;
                tail += usize::from(e == UNREACHABLE);
            }
        }
    }

    /// Fills `row` with the packed route from `src` to each of `dsts`.
    ///
    /// One sweep over the core from `src`'s anchor, then per destination:
    ///
    /// * anchors differ — `src`'s offset to its anchor, the core route
    ///   between the anchors, and the destination's offset. A hanging tree
    ///   meets the core at its anchor alone, so any path out of it leaves
    ///   through the anchor, and a simple path never comes back in;
    /// * one anchor — the tree path through the two routers' nearest
    ///   common ancestor, the one simple path between them;
    /// * the destination's anchor unreached — `UNREACHABLE`.
    fn row(&mut self, topo: &Topology, src: RouterId, dsts: &[RouterId], row: &mut Vec<u64>) {
        let s = topo.hang(src);
        self.core_from(topo, s.anchor);
        let (s_lat, s_hops) = unpack(s.off);
        row.clear();
        row.extend(dsts.iter().map(|&dst| {
            let d = topo.hang(dst);
            if d.anchor == s.anchor {
                return tree_path(topo, src, dst);
            }
            let core = self.best[d.anchor as usize];
            if core == UNREACHABLE {
                return UNREACHABLE;
            }
            let ((lat, hops), (d_lat, d_hops)) = (unpack(core), unpack(d.off));
            pack(s_lat + lat + d_lat, s_hops + hops + d_hops)
        }));
    }
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

/// Sentinel for "no slot": in the intrusive LRU list and in `slot_of`.
const NIL: u32 = u32::MAX;

/// One resident row of the oracle.
struct Slot {
    /// Endpoint (position in `Inner::endpoints`) this row was computed from.
    ep: u32,
    /// Packed `(latency, hops)` word per endpoint, in `endpoints` order.
    row: Vec<u64>,
    /// Intrusive LRU list: previous (more recently used) slot.
    prev: u32,
    /// Intrusive LRU list: next (less recently used) slot.
    next: u32,
}

/// Counters and occupancy of a [`RouteOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Queries served from a resident row (either end's).
    pub hits: u64,
    /// Queries that had to compute a row (neither end's row resident: first
    /// touch or re-entry after eviction).
    pub misses: u64,
    /// Rows evicted to stay within the capacity.
    pub evictions: u64,
    /// Rows currently resident.
    pub resident_rows: usize,
    /// Bytes held by the rows, their slots and the endpoint set (not the
    /// one sweep's reused working storage, a few words per core router).
    pub resident_bytes: usize,
}

/// Demand-driven route oracle over a fixed **endpoint set**: per-endpoint
/// shortest paths computed lazily, kept as rows of one bit-packed word per
/// *endpoint* (not per router) in a bounded LRU.
///
/// Resident memory is `capacity × A × 8` bytes for `A` distinct endpoints,
/// whatever the router count, where all-destinations rows would take
/// `sources × n_routers × 16` bytes. Links are undirected and a route's
/// `(hops, latency)` are integer sums over a path that reads the same both
/// ways, so `route(a, b) == route(b, a)` exactly: a query is served from
/// whichever end's row is resident, and only a pair with *neither*
/// computes a row. A hit by endpoint position
/// ([`route_by_index`](RouteOracle::route_by_index)) is two array reads,
/// plus an LRU splice when the capacity is below the endpoint count — no
/// allocation; [`route`](RouteOracle::route) first finds each router by
/// binary search. A miss is one breadth-first sweep over the topology's
/// core (under 2 ms at 100k routers, 20–30 µs at the default topology).
///
/// The oracle does not own the topology: callers pass `&Topology` to
/// [`route`](RouteOracle::route), so one topology can back the network, the
/// experiments and ad-hoc queries without reference cycles. Cached rows are
/// only valid for the topology they were computed from — the oracle
/// records the first topology's [`Topology::fingerprint`] and panics if a
/// later query passes a different graph (even one with coincidentally
/// equal counts), rather than silently serving stale routes. Interior
/// mutability (a `RefCell`) keeps the query API `&self`; the simulation is
/// single-threaded by design.
///
/// Eviction order depends only on the query order, so for a fixed topology
/// and query sequence the oracle is fully deterministic — including its
/// [`stats`](RouteOracle::stats).
pub struct RouteOracle {
    inner: RefCell<Inner>,
}

struct Inner {
    cap: usize,
    /// The endpoint routers, sorted and distinct: a row's column order,
    /// and a router's position by binary search.
    endpoints: Vec<RouterId>,
    /// Endpoint position → slot of its resident row, or `NIL`.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the eviction victim).
    tail: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    sweep: Sweep,
    /// `(n_routers, fingerprint)` of the first topology queried; guards
    /// against reusing cached rows across topologies — the structural
    /// fingerprint catches even same-sized graphs from different seeds.
    fp: Option<(usize, u64)>,
}

impl RouteOracle {
    /// Creates an oracle for routes among `endpoints` (duplicates collapse)
    /// holding at most `capacity` rows (clamped to at least 1). Every
    /// router of a topology as an endpoint makes it any-to-any.
    pub fn new(endpoints: &[RouterId], capacity: usize) -> Self {
        let mut endpoints = endpoints.to_vec();
        endpoints.sort_unstable();
        endpoints.dedup();
        let cap = capacity.max(1);
        RouteOracle {
            inner: RefCell::new(Inner {
                cap,
                slot_of: vec![NIL; endpoints.len()],
                // Never more slots than rows that can exist.
                slots: Vec::with_capacity(cap.min(endpoints.len())),
                endpoints,
                head: NIL,
                tail: NIL,
                hits: 0,
                misses: 0,
                evictions: 0,
                sweep: Sweep::default(),
                fp: None,
            }),
        }
    }

    /// Maximum number of resident rows.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().cap
    }

    /// Position of `router` in the endpoint set, the index
    /// [`route_by_index`](RouteOracle::route_by_index) takes; `None` if it
    /// is not an endpoint.
    pub fn endpoint_index(&self, router: RouterId) -> Option<u32> {
        let inner = self.inner.borrow();
        inner
            .endpoints
            .binary_search(&router)
            .ok()
            .map(|i| i as u32)
    }

    /// Route summary from `src` to `dst`, served from either end's resident
    /// row; with neither resident the source's is computed and cached.
    /// Each router is found by binary search over the endpoints; a caller
    /// asking often resolves [`endpoint_index`](RouteOracle::endpoint_index)
    /// once and asks [`route_by_index`](RouteOracle::route_by_index).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable from `src` (the topology generator
    /// produces connected graphs), if either id is out of range for `topo`
    /// or not one of this oracle's endpoints, or if `topo` is not the
    /// topology this oracle's cached rows were computed from (checked via
    /// [`Topology::fingerprint`], so even a same-sized graph from a
    /// different seed is refused rather than served stale rows). The id
    /// and topology checks apply to same-router queries too, even though
    /// those never touch the LRU. A missing row — never queried or
    /// evicted — is recomputed transparently, at the cost of one sweep
    /// over the topology's core (its working storage is reused, and the
    /// hit path is allocation-free).
    pub fn route(&self, topo: &Topology, src: RouterId, dst: RouterId) -> RouteInfo {
        assert!(
            (src as usize) < topo.n_routers() && (dst as usize) < topo.n_routers(),
            "router id out of range"
        );
        let mut inner = self.inner.borrow_mut();
        inner.check_topology(topo);
        let (s, d) = (inner.endpoint(src), inner.endpoint(dst));
        inner.route(topo, s, d)
    }

    /// [`route`](RouteOracle::route) between the endpoints at positions
    /// `src` and `dst` of the endpoint set: no lookup on the way to the
    /// row.
    ///
    /// # Panics
    ///
    /// As [`route`](RouteOracle::route), and if a position is not below
    /// the number of distinct endpoints.
    pub fn route_by_index(&self, topo: &Topology, src: u32, dst: u32) -> RouteInfo {
        let mut inner = self.inner.borrow_mut();
        inner.check_topology(topo);
        inner.route(topo, src as usize, dst as usize)
    }

    /// Whether the row computed from endpoint `router` is currently resident
    /// (test hook; does not count as a hit or disturb the LRU order).
    pub fn row_resident(&self, router: RouterId) -> bool {
        let inner = self.inner.borrow();
        inner.slot_of[inner.endpoint(router)] != NIL
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> OracleStats {
        let inner = self.inner.borrow();
        let rows: usize = inner.slots.iter().map(|s| s.row.capacity()).sum();
        OracleStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_rows: inner.slots.len(),
            resident_bytes: rows * size_of::<u64>()
                + inner.slots.capacity() * size_of::<Slot>()
                + inner.endpoints.capacity() * size_of::<RouterId>()
                + inner.slot_of.capacity() * size_of::<u32>(),
        }
    }
}

impl Inner {
    /// Records the first topology queried and refuses any other; the first
    /// also has every endpoint checked against its router count.
    fn check_topology(&mut self, topo: &Topology) {
        let fp = (topo.n_routers(), topo.fingerprint());
        match self.fp {
            None => {
                assert!(
                    self.endpoints.last().is_none_or(|&r| (r as usize) < fp.0),
                    "endpoint router id out of range"
                );
                self.fp = Some(fp);
            }
            Some(seen) => assert_eq!(
                seen, fp,
                "RouteOracle queried with a different topology than its cached rows"
            ),
        }
    }

    /// Position of `router` in the endpoint set.
    fn endpoint(&self, router: RouterId) -> usize {
        let ep = self.endpoints.binary_search(&router);
        ep.unwrap_or_else(|_| panic!("router {router} is not an endpoint of this oracle"))
    }

    /// The route between endpoint positions `s` and `d` of the checked
    /// topology.
    fn route(&mut self, topo: &Topology, s: usize, d: usize) -> RouteInfo {
        if s == d {
            // Same attachment router: a LAN hop, not a wide-area route.
            return RouteInfo {
                latency: SAME_ROUTER_LATENCY,
                hops: 0,
            };
        }
        // Routes are symmetric: the destination's row serves as well.
        let (row_ep, col) = if self.slot_of[s] == NIL && self.slot_of[d] != NIL {
            (d, s)
        } else {
            (s, d)
        };
        let slot = match self.slot_of[row_ep] {
            NIL => {
                self.misses += 1;
                self.admit(topo, row_ep)
            }
            i => {
                self.hits += 1;
                // With a slot for every endpoint nothing is ever evicted,
                // so the recency order is never read.
                if self.cap < self.endpoints.len() && self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                i
            }
        };
        let w = self.slots[slot as usize].row[col];
        assert_ne!(w, UNREACHABLE, "destination unreachable");
        let (lat, hops) = unpack(w);
        RouteInfo {
            latency: SimDuration(lat),
            hops,
        }
    }

    /// Unlinks slot `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Pushes slot `i` to the front (most recently used).
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Builds the row of endpoint `ep` into a fresh or recycled slot and
    /// makes it most recently used; returns the slot index.
    fn admit(&mut self, topo: &Topology, ep: usize) -> u32 {
        let i = if self.slots.len() < self.cap {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                ep: ep as u32,
                row: Vec::new(),
                prev: NIL,
                next: NIL,
            });
            i
        } else {
            // Evict the least recently used row, recycling its allocation.
            let victim = self.tail;
            self.unlink(victim);
            let old_ep = std::mem::replace(&mut self.slots[victim as usize].ep, ep as u32);
            self.slot_of[old_ep as usize] = NIL;
            self.evictions += 1;
            victim
        };
        let row = &mut self.slots[i as usize].row;
        self.sweep
            .row(topo, self.endpoints[ep], &self.endpoints, row);
        self.slot_of[ep] = i;
        self.push_front(i);
        i
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

    /// An oracle with every router of `topo` as an endpoint.
    fn any_to_any(topo: &Topology, capacity: usize) -> RouteOracle {
        let all: Vec<RouterId> = (0..topo.n_routers() as RouterId).collect();
        RouteOracle::new(&all, capacity)
    }

    /// The packed row from `src` to every router of `topo`.
    fn row_to_all(topo: &Topology, src: RouterId) -> Vec<u64> {
        let all: Vec<RouterId> = (0..topo.n_routers() as RouterId).collect();
        let mut row = Vec::new();
        Sweep::default().row(topo, src, &all, &mut row);
        row
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

    #[test]
    fn same_router_is_lan_latency() {
        let topo = small_topo();
        let oracle = any_to_any(&topo, 4);
        let r = oracle.route(&topo, 7, 7);
        assert_eq!(r.hops, 0);
        assert_eq!(r.latency, SAME_ROUTER_LATENCY);
        // Served without building any row.
        assert_eq!(oracle.stats().resident_rows, 0);
    }

    #[test]
    fn every_same_router_query_is_lan_latency() {
        let topo = small_topo();
        let oracle = any_to_any(&topo, 4);
        for r in 0..topo.n_routers() as RouterId {
            let info = oracle.route(&topo, r, r);
            assert_eq!(info.hops, 0, "router {r}");
            assert_eq!(info.latency, SAME_ROUTER_LATENCY, "router {r}");
            assert!(info.latency < SimDuration::from_millis(1));
        }
        assert_eq!(oracle.stats().resident_rows, 0);
    }

    #[test]
    fn answers_from_either_end_row_agree() {
        // Each direction asked of its own oracle, so `a → b` is served from
        // a's row and `b → a` from b's: the answers must still match.
        let topo = small_topo();
        for a in [0u32, 5, 13, 21] {
            for b in [3u32, 9, 30] {
                let (from_a, from_b) = (any_to_any(&topo, 1), any_to_any(&topo, 1));
                let f = from_a.route(&topo, a, b);
                let r = from_b.route(&topo, b, a);
                assert!(from_a.row_resident(a) && from_b.row_resident(b));
                assert_eq!(f.latency, r.latency, "{a} <-> {b}");
                assert_eq!(f.hops, r.hops, "{a} <-> {b}");
            }
        }
    }

    #[test]
    fn routes_are_symmetric_in_latency() {
        // What serving a query from the destination's row rests on: the
        // two ends' rows agree on every pair, to the nanosecond.
        let topo = small_topo();
        let n = topo.n_routers() as RouterId;
        let rows: Vec<_> = (0..n).map(|r| row_to_all(&topo, r)).collect();
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
        let row = row_to_all(&topo, 0);
        assert_eq!(topo.core_len(), 7, "no router of degree 1: all core");
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
    /// heap over the whole graph, packed: the reference the core sweep and
    /// its hanging trees must match on any graph.
    fn heap_dijkstra(topo: &Topology, src: RouterId) -> Vec<u64> {
        let mut best = vec![(u32::MAX, u64::MAX); topo.n_routers()];
        let mut heap = BinaryHeap::new();
        best[src as usize] = (0, 0);
        heap.push(Reverse((0u32, 0u64, src)));
        while let Some(Reverse((hops, lat, r))) = heap.pop() {
            if (hops, lat) > best[r as usize] {
                continue;
            }
            for (next, w) in topo.neighbors(r) {
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

    /// Every row of `topo`, router by router, equals the heap Dijkstra's.
    fn assert_rows_exact(topo: &Topology) {
        for src in 0..topo.n_routers() as RouterId {
            let (row, reference) = (row_to_all(topo, src), heap_dijkstra(topo, src));
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
        let row = row_to_all(&topo, 4);
        assert_eq!(unpack(row[6]), (2 + 3 + 4, 3), "through their ancestor 3");
        assert_eq!(unpack(row[0]), (2 + 1, 2), "up to the anchor");
        assert_eq!(unpack(row[2]), (2 + 1 + 40, 3), "anchor, core link, anchor");
        assert_eq!(row[9], UNREACHABLE);
        assert_eq!(row[11], UNREACHABLE);
        assert_eq!(unpack(row_to_all(&topo, 9)[10]), (6 + 7, 2));
        assert_rows_exact(&topo);
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
            let topo = any_graph(n, &parents, &chords);
            for src in 0..n as RouterId {
                prop_assert_eq!(row_to_all(&topo, src), heap_dijkstra(&topo, src), "row {}", src);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let topo = small_topo();
        let oracle = any_to_any(&topo, 4);
        let lat = |a, b| oracle.route(&topo, a, b).latency.nanos();
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
        let topo = small_topo();
        let oracle = any_to_any(&topo, 4);
        oracle.route(&topo, 0, 1);
        oracle.route(&topo, 0, 2);
        oracle.route(&topo, 3, 2);
        let s = oracle.stats();
        assert_eq!(s.misses, 2, "two pairs with neither end resident");
        assert_eq!(s.hits, 1, "second query from source 0");
        assert_eq!(s.resident_rows, 2);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn reverse_direction_is_served_from_the_destination_row() {
        let topo = small_topo();
        let oracle = any_to_any(&topo, 4);
        let forward = oracle.route(&topo, 0, 9);
        assert_eq!(oracle.route(&topo, 9, 0), forward);
        assert_eq!(oracle.route(&topo, 5, 0), oracle.route(&topo, 0, 5));
        let s = oracle.stats();
        assert_eq!((s.misses, s.hits, s.resident_rows), (1, 3, 1));
        assert!(oracle.row_resident(0) && !oracle.row_resident(9));
    }

    #[test]
    fn capacity_bounds_resident_rows() {
        let topo = small_topo();
        let endpoints: Vec<RouterId> = (0..12).collect();
        let oracle = RouteOracle::new(&endpoints, 2);
        // Disjoint pairs, so no query can be served from the other end.
        for src in (0..12u32).step_by(2) {
            oracle.route(&topo, src, src + 1);
        }
        let s = oracle.stats();
        assert_eq!(s.resident_rows, 2);
        assert_eq!(s.evictions, 4);
        let row_bytes = endpoints.len() * size_of::<u64>();
        assert!(
            s.resident_bytes >= 2 * row_bytes,
            "rows must be accounted: {} < {}",
            s.resident_bytes,
            2 * row_bytes
        );
        // Rows are endpoint-wide, not router-wide; the rest is the slots
        // and the index (a few words per endpoint).
        assert!(topo.n_routers() > 3 * endpoints.len());
        assert!(
            s.resident_bytes <= 2 * row_bytes + 4 * size_of::<Slot>() + 32 * endpoints.len(),
            "resident bytes unbounded: {}",
            s.resident_bytes
        );
    }

    #[test]
    fn lru_evicts_least_recently_used_source() {
        let topo = small_topo();
        let oracle = any_to_any(&topo, 2);
        oracle.route(&topo, 0, 5); // rows: [0]
        oracle.route(&topo, 1, 6); // rows: [1, 0]
        oracle.route(&topo, 7, 0); // reverse hit touches 0 -> rows: [0, 1]
        oracle.route(&topo, 2, 8); // evicts 1 -> rows: [2, 0]
        assert!(oracle.row_resident(0));
        assert!(!oracle.row_resident(1));
        assert!(oracle.row_resident(2));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn non_endpoint_router_is_refused() {
        let topo = small_topo();
        let oracle = RouteOracle::new(&[0, 3, 9], 4);
        oracle.route(&topo, 0, 4);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn reuse_across_topologies_panics_instead_of_serving_stale_rows() {
        let topo_a = small_topo();
        let topo_b = Topology::generate(
            &TopologyConfig {
                n_as: 4,
                core_per_as: 3,
                chains_per_as: 1,
                chain_len: (2, 4),
                ..TopologyConfig::default()
            },
            &mut StdRng::seed_from_u64(5),
        );
        let oracle = RouteOracle::new(&[0, 9], 4);
        oracle.route(&topo_a, 0, 9);
        oracle.route(&topo_b, 0, 9);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn same_config_different_seed_is_still_a_different_topology() {
        // Same TopologyConfig, different seed: counts can coincide, but
        // the structural fingerprint must still refuse the cached rows.
        let cfg = TopologyConfig {
            n_as: 8,
            core_per_as: 4,
            chains_per_as: 1,
            chain_len: (3, 3), // fixed chain length: identical router count
            ..TopologyConfig::default()
        };
        let topo_a = Topology::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let topo_b = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(topo_a.n_routers(), topo_b.n_routers());
        let oracle = RouteOracle::new(&[0, 9], 4);
        oracle.route(&topo_a, 0, 9);
        oracle.route(&topo_b, 0, 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_router_query_still_checks_id_range() {
        let topo = small_topo();
        let oracle = RouteOracle::new(&[50_000], 4);
        oracle.route(&topo, 50_000, 50_000);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let topo = small_topo();
        let oracle = RouteOracle::new(&[0, 9], 0);
        assert_eq!(oracle.capacity(), 1);
        let r = oracle.route(&topo, 0, 9);
        assert!(r.hops >= 1);
    }
}
