//! Synthetic hierarchical AS/router topology.
//!
//! Substitution for the paper's Mercator-measured topology (§7.1). The
//! generated graph has three tiers, mirroring how the Internet actually
//! produces the paper's published route shape:
//!
//! * an **inter-AS mesh** — a connected random graph over ASes whose links
//!   are 97% OC3 (10–40 ms one-way) and 3% T3 (300–500 ms), exactly the
//!   paper's link classes; its density sets how many wide-area crossings a
//!   route makes (two to three at the default), which pins the median RTT
//!   near the paper's 130 ms,
//! * a per-AS **core ring** of routers where inter-AS links attach,
//! * per-AS **access chains** of LAN-class routers (≈0.3–1 ms per hop)
//!   hanging off the core; overlay nodes attach only at access routers, so
//!   every route must climb its access chain, transit cores, and descend —
//!   this is what gives routes the paper's ~15 median link hops (the number
//!   that drives per-route loss composition in Figures 11–12) without
//!   inflating latency.
//!
//! Routing (in [`crate::routes`]) minimizes hop count, not latency, like
//! policy routing in the real Internet — so routes cross T3 links rather
//! than detouring, producing Figure 6's heavy RTT tail. A test in this
//! module asserts the whole tuning.
//!
//! When generation ends the graph is frozen, and the frozen [`Topology`]
//! knows its **2-core**: what is left after routers of degree 1 are peeled
//! off, repeatedly. On a generated graph that is exactly the core rings
//! (960 of ~3,350 routers at the default), with every access chain peeled.
//! Each peeled router hangs from one core router, its *anchor*, by the one
//! path through the tree it was peeled in, so a route sweep need only
//! visit the core and add the two ends' fixed offsets (DESIGN.md §5.2).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use fuse_sim::SimDuration;

use crate::routes::{pack, unpack, MAX_LINK_NS, MAX_OFFSET_HOPS};

/// One-way latency between two overlay nodes attached to the *same* access
/// router.
///
/// The paper's testbed multiplexes ten virtual FUSE nodes per physical
/// machine (§7.1), so co-located nodes talk over the machine-room LAN
/// rather than a ModelNet-emulated wide-area route. 100 µs is a
/// conservative one-way delay for the switched 100 Mb Ethernet of that era
/// — below the per-hop latency of every generated LAN link
/// (`LAN_LATENCY_US`) but not zero, so events between co-located nodes
/// still order realistically. [`crate::RouteOracle`] returns it for
/// same-router queries.
pub const SAME_ROUTER_LATENCY: SimDuration = SimDuration::from_micros(100);

/// LAN (intra-AS) one-way latency range in microseconds.
pub(crate) const LAN_LATENCY_US: (u64, u64) = (300, 1000);

/// OC3 one-way latency range in milliseconds (paper §7.1: 10–40).
pub(crate) const OC3_LATENCY_MS: (u64, u64) = (10, 40);

/// T3 one-way latency range in milliseconds (paper §7.1: 300–500).
pub(crate) const T3_LATENCY_MS: (u64, u64) = (300, 500);

const _: () = assert!(SAME_ROUTER_LATENCY.0 < LAN_LATENCY_US.0 * 1_000);

/// Index of a router in the topology.
pub type RouterId = u32;

/// Index of a link in the topology.
pub type LinkId = u32;

/// Link technology class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Intra-AS LAN/metro link.
    Lan,
    /// Inter-AS OC3: 10–40 ms latency (paper: 97% of inter-AS links).
    Oc3,
    /// Inter-AS T3: 300–500 ms latency (paper: 3% of inter-AS links).
    T3,
}

/// An undirected router-to-router link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: RouterId,
    /// Other endpoint.
    pub b: RouterId,
    /// Technology class.
    pub class: LinkClass,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

/// Topology generation parameters.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of autonomous systems.
    pub n_as: usize,
    /// Core-ring routers per AS (inter-AS links attach here).
    pub core_per_as: usize,
    /// Access chains per AS.
    pub chains_per_as: usize,
    /// Access chain length range (inclusive).
    pub chain_len: (usize, usize),
    /// Extra inter-AS links beyond the AS-level ring, as a multiple of
    /// `n_as` (controls AS-graph degree, hence wide-area crossings per
    /// route).
    pub inter_as_extra_factor: f64,
    /// Fraction of inter-AS links assigned the T3 class (paper: 0.03).
    pub t3_fraction: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        // Tuned (see `default_topology_matches_paper_route_shape`) to give
        // median ~15 link hops and median RTT ~130 ms between random
        // attachment points, as the paper reports for its Mercator slice.
        TopologyConfig {
            n_as: 160,
            core_per_as: 6,
            chains_per_as: 2,
            chain_len: (4, 11),
            inter_as_extra_factor: 10.0,
            t3_fraction: 0.03,
        }
    }
}

impl TopologyConfig {
    /// A Mercator-slice-shaped topology at the paper's published scale:
    /// ~100k routers (the measured slice has 102,639), reached by scaling
    /// the AS count up from the default while keeping the per-AS shape
    /// (core ring + access chains) that produces the paper's route
    /// distributions. The AS-graph degree is raised alongside so routes
    /// still make two-to-four wide-area crossings and the median RTT stays
    /// near the published ~130 ms instead of growing with the AS-graph
    /// diameter.
    ///
    /// An all-destinations row here is ~1.6 MB *per source* (100k routers
    /// × 16 bytes); the demand-driven [`crate::RouteOracle`], which keeps
    /// only endpoint columns, is how this preset is meant to be routed —
    /// see the `#[ignore]`d Mercator smoke test in `tests/route_oracle.rs`.
    pub fn mercator_scale() -> Self {
        TopologyConfig {
            n_as: 4800,
            inter_as_extra_factor: 15.0,
            ..TopologyConfig::default()
        }
    }

    /// Expected router count for this configuration (exact core count plus
    /// the mean of the random chain lengths).
    pub fn expected_routers(&self) -> usize {
        let avg_chain = (self.chain_len.0 + self.chain_len.1) as f64 / 2.0;
        (self.n_as as f64 * (self.core_per_as as f64 + self.chains_per_as as f64 * avg_chain))
            .round() as usize
    }
}

/// Where a router hangs from the 2-core: 16 bytes per router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hang {
    /// Core index of the anchor (a core router's own).
    pub(crate) anchor: u32,
    /// Next router toward the anchor; a core router's is itself.
    pub(crate) parent: RouterId,
    /// Packed `(latency, hops)` to the anchor ([`crate::routes`]'s word);
    /// zero for a core router.
    pub(crate) off: u64,
}

/// The generated router graph.
///
/// When generation ends, only what routing reads is kept beside the links:
/// every router's `Hang`, and the 2-core's adjacency in compressed sparse
/// rows over core indices, so a sweep walks two flat arrays instead of one
/// `Vec` per router.
pub struct Topology {
    /// All links.
    pub links: Vec<Link>,
    /// AS id of each router.
    pub as_of: Vec<u32>,
    /// Access routers — valid attachment points for overlay nodes.
    pub attachable: Vec<RouterId>,
    /// Each router's anchor, parent and offset.
    hang: Vec<Hang>,
    /// Core index → router, in router order.
    core: Vec<RouterId>,
    /// Start of each core router's edges in `core_edges`, plus one end.
    core_offsets: Vec<u32>,
    /// Every link between two core routers once from each end, as
    /// `(core index, packed one-hop word)`.
    core_edges: Vec<(u32, u64)>,
}

/// The graph while it is being generated: links plus the per-router
/// `(neighbor, link)` lists that duplicate-link checks read.
#[derive(Default)]
struct Draft {
    links: Vec<Link>,
    adj: Vec<Vec<(RouterId, LinkId)>>,
    as_of: Vec<u32>,
    attachable: Vec<RouterId>,
}

impl Topology {
    /// Generates a topology from `cfg` using `rng`.
    pub fn generate(cfg: &TopologyConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.n_as >= 2, "need at least two ASes");
        assert!(cfg.core_per_as >= 1);
        assert!(cfg.chain_len.0 >= 1 && cfg.chain_len.0 <= cfg.chain_len.1);
        let mut topo = Draft::default();

        // Per-AS core rings and access chains.
        let mut core_routers: Vec<Vec<RouterId>> = Vec::with_capacity(cfg.n_as);
        for asn in 0..cfg.n_as {
            let core: Vec<RouterId> = (0..cfg.core_per_as)
                .map(|_| topo.new_router(asn as u32))
                .collect();
            if core.len() >= 2 {
                for i in 0..core.len() {
                    let a = core[i];
                    let b = core[(i + 1) % core.len()];
                    if !topo.has_link(a, b) {
                        topo.add_lan(a, b, rng);
                    }
                }
            }
            for _ in 0..cfg.chains_per_as {
                let len = rng.gen_range(cfg.chain_len.0..=cfg.chain_len.1);
                let mut prev = core[rng.gen_range(0..core.len())];
                for _ in 0..len {
                    let r = topo.new_router(asn as u32);
                    topo.add_lan(prev, r, rng);
                    topo.attachable.push(r);
                    prev = r;
                }
            }
            core_routers.push(core);
        }

        // Inter-AS: a ring over a shuffled AS order guarantees connectivity;
        // chords set the AS-graph degree.
        let mut inter_links: Vec<LinkId> = Vec::new();
        let mut order: Vec<usize> = (0..cfg.n_as).collect();
        order.shuffle(rng);
        let pick = |rng: &mut StdRng, core: &Vec<RouterId>| -> RouterId {
            core[rng.gen_range(0..core.len())]
        };
        for w in 0..cfg.n_as {
            let x = order[w];
            let y = order[(w + 1) % cfg.n_as];
            let rx = pick(rng, &core_routers[x]);
            let ry = pick(rng, &core_routers[y]);
            inter_links.push(topo.add_oc3(rx, ry, rng));
        }
        let extra = (cfg.n_as as f64 * cfg.inter_as_extra_factor) as usize;
        for _ in 0..extra {
            let x = rng.gen_range(0..cfg.n_as);
            let y = rng.gen_range(0..cfg.n_as);
            if x != y {
                let rx = pick(rng, &core_routers[x]);
                let ry = pick(rng, &core_routers[y]);
                if rx != ry && !topo.has_link(rx, ry) {
                    inter_links.push(topo.add_oc3(rx, ry, rng));
                }
            }
        }

        // Reassign a random t3_fraction of the inter-AS links to T3.
        let n_t3 = ((inter_links.len() as f64) * cfg.t3_fraction).round() as usize;
        inter_links.shuffle(rng);
        for &li in inter_links.iter().take(n_t3) {
            let ms = rng.gen_range(T3_LATENCY_MS.0..=T3_LATENCY_MS.1);
            topo.links[li as usize].class = LinkClass::T3;
            topo.links[li as usize].latency = SimDuration::from_millis(ms);
        }

        topo.freeze()
    }

    /// Number of routers in the 2-core: the routers left once routers of
    /// degree 1 are peeled off, repeatedly (one router of every tree-only
    /// component stays, as does every isolated router).
    pub fn core_len(&self) -> usize {
        self.core.len()
    }

    /// Where router `r` hangs from the core.
    pub(crate) fn hang(&self, r: RouterId) -> Hang {
        self.hang[r as usize]
    }

    /// `(core index, packed one-hop word)` of every core link at core
    /// index `c`: `pack(latency, 1)`, the latency below
    /// [`MAX_LINK_NS`](crate::routes::MAX_LINK_NS).
    pub(crate) fn core_neighbors(&self, c: u32) -> &[(u32, u64)] {
        let (lo, hi) = (
            self.core_offsets[c as usize],
            self.core_offsets[c as usize + 1],
        );
        &self.core_edges[lo as usize..hi as usize]
    }

    /// Number of routers.
    pub fn n_routers(&self) -> usize {
        self.hang.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Fraction of *inter-AS* links in the T3 class (the paper's 3%).
    pub fn t3_share_of_inter_as(&self) -> f64 {
        let mut inter = 0usize;
        let mut t3 = 0usize;
        for l in &self.links {
            match l.class {
                LinkClass::Lan => {}
                LinkClass::Oc3 => inter += 1,
                LinkClass::T3 => {
                    inter += 1;
                    t3 += 1;
                }
            }
        }
        if inter == 0 {
            0.0
        } else {
            t3 as f64 / inter as f64
        }
    }

    /// Samples `n` attachment routers uniformly from the access routers
    /// (without replacement when possible; round-robin reuse otherwise —
    /// several overlay nodes on one access router is the analogue of the
    /// paper's ten virtual nodes per physical machine).
    pub fn sample_attachments(&self, n: usize, rng: &mut StdRng) -> Vec<RouterId> {
        assert!(
            !self.attachable.is_empty(),
            "topology has no access routers"
        );
        let mut all = self.attachable.clone();
        all.shuffle(rng);
        if n <= all.len() {
            all.truncate(n);
            all
        } else {
            (0..n).map(|i| all[i % all.len()]).collect()
        }
    }
}

#[cfg(test)]
impl Topology {
    /// The core router `r` hangs from and the hop count of the one path
    /// to it; `(r, 0)` for a core router.
    pub(crate) fn anchor(&self, r: RouterId) -> (RouterId, u32) {
        let h = self.hang[r as usize];
        (self.core[h.anchor as usize], unpack(h.off).1)
    }

    /// A hand-built graph: routers `0..n`, one LAN link per
    /// `(a, b, latency_ns)`.
    pub(crate) fn from_links(n: usize, links: &[(RouterId, RouterId, u64)]) -> Topology {
        let mut b = Draft::default();
        for _ in 0..n {
            b.new_router(0);
        }
        for &(x, y, ns) in links {
            b.push_link(x, y, LinkClass::Lan, SimDuration(ns));
        }
        b.freeze()
    }
}

impl Draft {
    fn new_router(&mut self, asn: u32) -> RouterId {
        let id = self.adj.len() as RouterId;
        self.adj.push(Vec::new());
        self.as_of.push(asn);
        id
    }

    fn add_lan(&mut self, a: RouterId, b: RouterId, rng: &mut StdRng) {
        let us = rng.gen_range(LAN_LATENCY_US.0..=LAN_LATENCY_US.1);
        self.push_link(a, b, LinkClass::Lan, SimDuration::from_micros(us));
    }

    fn add_oc3(&mut self, a: RouterId, b: RouterId, rng: &mut StdRng) -> LinkId {
        let ms = rng.gen_range(OC3_LATENCY_MS.0..=OC3_LATENCY_MS.1);
        self.push_link(a, b, LinkClass::Oc3, SimDuration::from_millis(ms))
    }

    fn push_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        class: LinkClass,
        latency: SimDuration,
    ) -> LinkId {
        debug_assert_ne!(a, b);
        let id = self.links.len() as LinkId;
        self.links.push(Link {
            a,
            b,
            class,
            latency,
        });
        self.adj[a as usize].push((b, id));
        self.adj[b as usize].push((a, id));
        id
    }

    fn has_link(&self, a: RouterId, b: RouterId) -> bool {
        self.adj[a as usize].iter().any(|&(n, _)| n == b)
    }

    /// Keeps the final links (after the T3 reassignment) and peels the
    /// per-router lists into the core's compressed rows and every router's
    /// [`Hang`], then drops the lists.
    fn freeze(self) -> Topology {
        let mut topo = Topology {
            links: self.links,
            as_of: self.as_of,
            attachable: self.attachable,
            hang: Vec::new(),
            core: Vec::new(),
            core_offsets: Vec::new(),
            core_edges: Vec::new(),
        };
        topo.peel(&self.adj);
        topo
    }
}

impl Topology {
    /// Peels routers of degree 1 from the graph of `adj`, repeatedly, and
    /// builds the [`Hang`] of every router and the compressed rows of the
    /// core that remains.
    ///
    /// A router is peeled while it has exactly one link to an unpeeled
    /// router, its parent; its other links all lead to routers peeled
    /// before it, its children. So the peeled routers form trees, each
    /// joined to the core by a single link. A router whose degree falls to
    /// 0 stays in the core: it is the root of a tree-only component, or
    /// isolated.
    fn peel(&mut self, adj: &[Vec<(RouterId, LinkId)>]) {
        let n = adj.len();
        let latency = |l: LinkId| self.links[l as usize].latency;
        let mut degree: Vec<u32> = adj.iter().map(|nbrs| nbrs.len() as u32).collect();
        let mut ready: Vec<RouterId> = (0..n as RouterId)
            .filter(|&r| degree[r as usize] == 1)
            .collect();
        // `(router, parent, latency of the link to it)`, in peel order.
        let mut peeled: Vec<(RouterId, RouterId, u64)> = Vec::new();
        let mut in_core = vec![true; n];
        while let Some(r) = ready.pop() {
            if degree[r as usize] != 1 {
                continue;
            }
            let &(parent, l) = adj[r as usize]
                .iter()
                .find(|&&(x, _)| in_core[x as usize])
                .expect("a router of degree 1 has an unpeeled neighbour");
            in_core[r as usize] = false;
            degree[r as usize] = 0;
            degree[parent as usize] -= 1;
            if degree[parent as usize] == 1 {
                ready.push(parent);
            }
            peeled.push((r, parent, latency(l).nanos()));
        }

        self.core = (0..n as RouterId)
            .filter(|&r| in_core[r as usize])
            .collect();
        self.hang = (0..n as RouterId)
            .map(|r| Hang {
                anchor: 0,
                parent: r,
                off: 0,
            })
            .collect();
        for (c, &r) in self.core.iter().enumerate() {
            self.hang[r as usize].anchor = c as u32;
        }
        // A parent is peeled after its children, so in reverse peel order
        // every parent's offset is final before its children read it.
        for &(r, parent, w) in peeled.iter().rev() {
            let up = self.hang[parent as usize];
            let (lat, hops) = unpack(up.off);
            // Offsets are one of the three words a route adds.
            assert!(
                w <= MAX_LINK_NS && hops < MAX_OFFSET_HOPS,
                "a tree link of {w} ns at depth {hops} exceeds the route word"
            );
            self.hang[r as usize] = Hang {
                anchor: up.anchor,
                parent,
                off: pack(lat + w, hops + 1),
            };
        }

        self.core_offsets = Vec::with_capacity(self.core.len() + 1);
        self.core_offsets.push(0);
        for &r in &self.core {
            for &(x, l) in &adj[r as usize] {
                if in_core[x as usize] {
                    let w = latency(l);
                    assert!(
                        w.nanos() <= MAX_LINK_NS,
                        "core link of {w:?} exceeds the route word"
                    );
                    self.core_edges
                        .push((self.hang[x as usize].anchor, pack(w.nanos(), 1)));
                }
            }
            self.core_offsets.push(self.core_edges.len() as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::RouteOracle;
    use fuse_obs::Reservoir;
    use rand::SeedableRng;

    #[test]
    fn generation_is_connected_and_deterministic() {
        let cfg = TopologyConfig::default();
        let t1 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        let t2 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1.n_links(), t2.n_links());
        // BFS connectivity, over an adjacency built from the links.
        let mut adj = vec![Vec::new(); t1.n_routers()];
        for l in &t1.links {
            adj[l.a as usize].push(l.b);
            adj[l.b as usize].push(l.a);
        }
        let mut seen = vec![false; t1.n_routers()];
        let mut q = vec![0u32];
        seen[0] = true;
        while let Some(r) = q.pop() {
            for &n in &adj[r as usize] {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    q.push(n);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "topology must be connected");
    }

    #[test]
    fn core_is_the_rings_and_every_chain_hangs_in_its_own_as() {
        let cfg = TopologyConfig::default();
        for seed in [1, 9] {
            let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(seed));
            assert_eq!(t.core_len(), cfg.n_as * cfg.core_per_as, "seed {seed}");
            for &r in &t.attachable {
                let (anchor, depth) = t.anchor(r);
                assert_eq!(t.as_of[anchor as usize], t.as_of[r as usize], "router {r}");
                assert!((1..=cfg.chain_len.1 as u32).contains(&depth), "router {r}");
                assert_eq!(t.anchor(anchor), (anchor, 0));
            }
            // The core's links are the rings and the inter-AS links.
            let core_edges = t.core_edges.len();
            assert_eq!(core_edges, 2 * (t.n_links() - t.attachable.len()));
        }
    }

    #[test]
    fn t3_share_close_to_configured() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(5));
        let share = t.t3_share_of_inter_as();
        assert!((share - 0.03).abs() < 0.01, "t3 share {share}");
    }

    #[test]
    fn default_topology_matches_paper_route_shape() {
        // The paper: routes of 2..43 hops, median 15; median RTT ~130 ms
        // with a heavy tail.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TopologyConfig::default();
        let topo = Topology::generate(&cfg, &mut rng);
        let attach = topo.sample_attachments(200, &mut rng);
        let mut oracle = RouteOracle::new(topo, &attach);
        let at: Vec<u32> = attach
            .iter()
            .map(|&r| oracle.endpoint_index(r).expect("an endpoint"))
            .collect();
        let mut hops = Reservoir::new();
        let mut rtt_ms = Reservoir::new();
        for i in 0..50usize {
            for j in 0..attach.len() {
                if attach[i] == attach[j] {
                    continue;
                }
                let r = oracle.route_by_index(at[i], at[j]);
                hops.add(r.hops as f64);
                rtt_ms.add(2.0 * r.latency.as_millis_f64());
            }
        }
        let med_hops = hops.median().unwrap();
        let med_rtt = rtt_ms.median().unwrap();
        let max_hops = hops.max().unwrap();
        assert!(
            (12.0..=18.0).contains(&med_hops),
            "median hops {med_hops} outside paper-like band"
        );
        assert!(
            (100.0..=170.0).contains(&med_rtt),
            "median rtt {med_rtt} ms outside paper-like band"
        );
        assert!(max_hops <= 60.0, "max hops {max_hops} unreasonable");
        // Heavy tail: 99th percentile RTT far above the median (T3 paths).
        let p99 = rtt_ms.quantile(0.99).unwrap();
        assert!(
            p99 > 3.0 * med_rtt,
            "no heavy tail: p99 {p99} med {med_rtt}"
        );
    }

    #[test]
    fn expected_routers_predicts_generated_count() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(4));
        let expected = cfg.expected_routers() as f64;
        let actual = t.n_routers() as f64;
        // Chain lengths are the only randomness in the count; the mean
        // estimate lands within a few percent at the default AS count.
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected ~{expected} routers, generated {actual}"
        );
    }

    #[test]
    fn mercator_preset_reaches_paper_scale_on_paper() {
        // The full 100k-router generation runs in the `#[ignore]`d smoke
        // test (tests/route_oracle.rs); here only the arithmetic that the
        // preset targets the paper's 102,639-router slice.
        let cfg = TopologyConfig::mercator_scale();
        let expected = cfg.expected_routers();
        assert!(
            (95_000..=110_000).contains(&expected),
            "preset expects {expected} routers, not Mercator scale"
        );
    }

    #[test]
    fn attachments_are_access_routers() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let a = t.sample_attachments(400, &mut rng);
        let set: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(set.len(), 400, "unique when enough access routers exist");
        let attachable: std::collections::BTreeSet<_> = t.attachable.iter().collect();
        assert!(a.iter().all(|r| attachable.contains(r)));
    }

    #[test]
    fn oversubscribed_attachments_reuse_routers() {
        let cfg = TopologyConfig {
            n_as: 4,
            ..TopologyConfig::default()
        };
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let n = t.attachable.len() * 3;
        let a = t.sample_attachments(n, &mut rng);
        assert_eq!(a.len(), n);
        assert!(a.iter().all(|&r| (r as usize) < t.n_routers()));
    }
}
