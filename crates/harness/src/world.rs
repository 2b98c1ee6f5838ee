//! World construction: n FUSE node stacks over the wide-area network model,
//! driven by the one simulation kernel ([`Sim`]). Experiments, the chaos
//! runner and its invariants, and `fuse_load`'s sim reference all drive
//! this one [`World`].

use fuse_core::Notification;
use fuse_core::{CreateError, CreateTicket, FuseConfig, FuseId, GroupHandle};
use fuse_net::{FaultPlane, NetConfig, Network, TopologyConfig};
use fuse_obs::Aggregates;
use fuse_overlay::oracle::OracleTables;
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration, SimTime};
use fuse_simdriver::NodeStack;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::app::RecorderApp;
use crate::metrics::MsgTrace;

/// Virtual nodes per emulated physical machine (paper §7.1: 10).
pub(crate) const NODES_PER_MACHINE: usize = 10;

/// The concrete simulation type a [`World`] drives.
pub type WorldSim = Sim<NodeStack<RecorderApp>, Network, MsgTrace>;

/// How overlay tables come to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bootstrap {
    /// Converged tables computed from global membership (the simulator
    /// fast-path for large worlds; join traffic is not part of the
    /// measurement).
    Oracle,
    /// Protocol joins through node 0, staggered by the given interval
    /// (used when join/repair traffic *is* the measurement, e.g.
    /// Figure 10).
    Live {
        /// Gap between consecutive joins.
        stagger: SimDuration,
    },
}

/// World parameters.
#[derive(Debug, Clone)]
pub struct WorldParams {
    /// Number of overlay nodes.
    pub n: usize,
    /// RNG seed (drives topology, attachment, jitter — everything).
    pub seed: u64,
    /// Network configuration (simulator or cluster profile, loss).
    pub net: NetConfig,
    /// Topology generation parameters.
    pub topo: TopologyConfig,
    /// Overlay parameters (paper defaults).
    pub ov: OverlayConfig,
    /// FUSE parameters (paper defaults).
    pub fuse: FuseConfig,
    /// Table bootstrap mode.
    pub bootstrap: Bootstrap,
}

impl WorldParams {
    /// Paper-style world of `n` nodes under the given network profile.
    pub fn new(n: usize, seed: u64, net: NetConfig) -> Self {
        WorldParams {
            n,
            seed,
            net,
            topo: TopologyConfig::default(),
            ov: OverlayConfig::default(),
            fuse: FuseConfig::default(),
            bootstrap: Bootstrap::Oracle,
        }
    }
}

/// The one place a node's stack is built: a fresh [`RecorderApp`] over the
/// world's overlay and FUSE parameters, either joining through `bootstrap`
/// or starting from converged oracle `tables`.
fn node_stack(
    info: &NodeInfo,
    p: &WorldParams,
    bootstrap: Option<ProcId>,
    tables: Option<OracleTables>,
) -> NodeStack<RecorderApp> {
    let mut stack = NodeStack::new(
        *info,
        bootstrap,
        p.ov.clone(),
        p.fuse.clone(),
        RecorderApp::new(),
    );
    if let Some((cw, ccw, rt)) = tables {
        stack.overlay.preload_tables(cw, ccw, rt);
    }
    stack
}

/// The stacks of a fresh world in process-id order, each with the time the
/// sim must run before it is added. Under [`Bootstrap::Live`] node 0 starts
/// the ring and everyone else joins through it, staggered so the ring grows
/// incrementally (a process boots when it is added, so the stagger is spent
/// running the sim between adds).
fn initial_stacks<'a>(
    p: &'a WorldParams,
    infos: &'a [NodeInfo],
) -> impl Iterator<Item = (Option<SimDuration>, NodeStack<RecorderApp>)> + 'a {
    let mut tables = match p.bootstrap {
        Bootstrap::Oracle => build_oracle_tables(infos, &p.ov),
        Bootstrap::Live { .. } => Vec::new(),
    }
    .into_iter();
    infos
        .iter()
        .enumerate()
        .map(move |(i, info)| match (p.bootstrap, i) {
            (Bootstrap::Oracle, _) => (None, node_stack(info, p, None, tables.next())),
            (Bootstrap::Live { .. }, 0) => (None, node_stack(info, p, None, None)),
            (Bootstrap::Live { stagger }, _) => (Some(stagger), node_stack(info, p, Some(0), None)),
        })
}

/// A built world: the simulation plus node directory.
pub struct World {
    /// The simulation.
    pub sim: WorldSim,
    /// Identity of every node (index = process id).
    pub infos: Vec<NodeInfo>,
}

impl World {
    /// Builds the world.
    pub fn build(p: &WorldParams) -> World {
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5eed_0000);
        let net = Network::generate(&p.topo, p.n, p.net.clone(), &mut rng);
        let infos: Vec<NodeInfo> = (0..p.n)
            .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
            .collect();
        let mut sim = Sim::with_trace(p.seed, net, MsgTrace::new());
        for (stagger, stack) in initial_stacks(p, &infos) {
            if let Some(d) = stagger {
                sim.run_for(d);
            }
            sim.add_process(stack);
        }
        World { sim, infos }
    }

    /// Runs for a span of simulated time.
    pub fn run(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Event-driven wait: executes events one at a time, evaluating `pred`
    /// after each, until it holds or the deadline passes. No fixed-interval
    /// polling — the predicate is checked exactly when the world state can
    /// have changed, and the clock stops on the satisfying event (or is
    /// advanced to `deadline` on timeout). Returns whether `pred` held.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut pred: F) -> bool
    where
        F: FnMut(&WorldSim) -> bool,
    {
        loop {
            if pred(&self.sim) {
                return true;
            }
            if !self.sim.step_until(deadline) {
                // Nothing left before the deadline; the state cannot change.
                self.sim.run_until(deadline);
                return false;
            }
        }
    }

    /// Starts a group creation without waiting; the ticket correlates the
    /// eventual `Created` event.
    pub fn start_create(&mut self, root: ProcId, members: &[ProcId]) -> CreateTicket {
        let others: Vec<NodeInfo> = members.iter().map(|&m| self.infos[m as usize]).collect();
        self.sim
            .with_proc(root, |stack, ctx| {
                stack.with_api(ctx, |api, _| api.create_group(others))
            })
            .expect("root alive")
    }

    /// Blocking creation: runs the sim (event-driven) until the outcome
    /// arrives.
    ///
    /// Returns the group handle and the creation latency.
    pub fn create_group_blocking(
        &mut self,
        root: ProcId,
        members: &[ProcId],
    ) -> (Result<GroupHandle, CreateError>, SimDuration) {
        let t0 = self.sim.now();
        let ticket = self.start_create(root, members);
        let deadline = t0 + SimDuration::from_secs(60);
        let done = self.run_until(deadline, |sim| {
            sim.proc(root)
                .map(|s| s.app.created_result(ticket).is_some())
                .unwrap_or(false)
        });
        if !done {
            return (
                Err(CreateError::MemberUnreachable),
                self.sim.now().since(t0),
            );
        }
        let res = self
            .sim
            .proc(root)
            .and_then(|s| s.app.created_result(ticket))
            .expect("predicate held");
        let at = self
            .sim
            .proc(root)
            .and_then(|s| s.app.created_at(ticket))
            .expect("created_at");
        (res, at.since(t0))
    }

    /// Event-driven failure wait: runs until every node in `nodes` has
    /// recorded at least one notification for `id`, or `timeout` elapses.
    /// Returns whether all were notified.
    pub fn wait_all_notified(
        &mut self,
        nodes: &[ProcId],
        id: FuseId,
        timeout: SimDuration,
    ) -> bool {
        let deadline = self.sim.now() + timeout;
        self.run_until(deadline, |sim| {
            nodes.iter().all(|&m| {
                sim.proc(m)
                    .map(|s| !s.app.failures(id).is_empty())
                    .unwrap_or(true) // Crashed nodes cannot hear; don't wait on them.
            })
        })
    }

    /// Explicitly signals failure of `id` from `node`.
    pub fn signal(&mut self, node: ProcId, id: FuseId) {
        self.sim.with_proc(node, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.signal_failure(id))
        });
    }

    /// Failure notification times observed at `node` for `id`.
    pub fn failures(&self, node: ProcId, id: FuseId) -> Vec<SimTime> {
        self.sim
            .proc(node)
            .map(|s| s.app.failures(id))
            .unwrap_or_default()
    }

    /// Reason-carrying notifications observed at `node` for `id`.
    pub fn notifications(&self, node: ProcId, id: FuseId) -> Vec<(SimTime, Notification)> {
        self.sim
            .proc(node)
            .map(|s| s.app.notifications(id))
            .unwrap_or_default()
    }

    /// The virtual nodes hosted on emulated machine `m`
    /// (`NODES_PER_MACHINE` per machine).
    pub fn machine_nodes(&self, m: usize) -> Vec<ProcId> {
        let lo = m * NODES_PER_MACHINE;
        let hi = ((m + 1) * NODES_PER_MACHINE).min(self.infos.len());
        (lo..hi).map(|i| i as ProcId).collect()
    }

    /// Unplugs every node of machine `m` from the network (Figure 9's
    /// experiment disconnects one physical machine).
    pub fn disconnect_machine(&mut self, m: usize) {
        for p in self.machine_nodes(m) {
            self.fault_mut().disconnect(p);
        }
    }

    /// Restarts crashed node `p` with fresh state, bootstrapped exactly
    /// like [`Bootstrap::Oracle`] built it (converged tables from global
    /// membership; the rebooted node rejoins the overlay knowing nothing
    /// about any FUSE group). No-op if `p` is up.
    pub fn restart_node(&mut self, p: ProcId, params: &WorldParams) {
        if self.sim.is_up(p) {
            return;
        }
        let tables = build_oracle_tables(&self.infos, &params.ov)
            .into_iter()
            .nth(p as usize)
            .expect("node exists");
        let stack = node_stack(&self.infos[p as usize], params, None, Some(tables));
        self.sim.restart(p, stack);
    }

    /// Whether node `p` is currently up.
    pub fn is_up(&self, p: ProcId) -> bool {
        self.sim.is_up(p)
    }

    /// Crash-stops `p` (no-op if already down).
    pub fn crash(&mut self, p: ProcId) {
        self.sim.crash(p);
    }

    /// Whether live node `p` still holds state for group `id` (`false` for
    /// crashed nodes — the state died with them).
    pub fn knows_group(&self, p: ProcId, id: FuseId) -> bool {
        self.sim.proc(p).is_some_and(|s| s.fuse.knows_group(id))
    }

    /// Kernel events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    /// The network's fault plane.
    pub fn fault(&self) -> &FaultPlane {
        self.sim.medium().fault()
    }

    /// Mutable access to the fault plane. Call only between run windows.
    pub fn fault_mut(&mut self) -> &mut FaultPlane {
        self.sim.medium_mut().fault_mut()
    }

    /// Sets the global per-link loss rate.
    pub fn set_global_loss(&mut self, rate: f64) {
        self.sim.medium_mut().set_per_link_loss(rate);
    }

    /// Folds the observation recorders of every live node stack and the
    /// network into one [`Aggregates`]. Crashed nodes' recorders died with
    /// their stacks. The fold is order-independent
    /// ([`Aggregates::merge_from`] is commutative and associative).
    pub fn obs_aggregates(&self) -> Aggregates {
        let mut agg = Aggregates::default();
        for p in 0..self.infos.len() as ProcId {
            if let Some(s) = self.sim.proc(p) {
                agg.merge_from(s.fuse.obs());
            }
        }
        agg.merge_from(self.sim.medium().obs());
        agg
    }
}

/// Picks `k` distinct nodes out of `n` from a caller-owned RNG.
///
/// Experiments that compare emulation profiles draw their workloads (group
/// members, RPC pairs) from a *dedicated* RNG so both profiles see the
/// identical workload — the simulation's own RNG advances differently per
/// profile (jitter draws) and would unpair the comparison.
pub fn pick_nodes(rng: &mut StdRng, n: usize, k: usize, exclude: &[ProcId]) -> Vec<ProcId> {
    use rand::seq::SliceRandom;
    let mut all: Vec<ProcId> = (0..n as ProcId).filter(|p| !exclude.contains(p)).collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}
