//! World construction: n FUSE node stacks over the wide-area network model,
//! driven by either the single-threaded kernel ([`World`]) or the sharded
//! kernel ([`ShardedWorld`]), behind the kernel-agnostic [`ChaosHost`] /
//! [`ChaosObservable`] traits the chaos runner and invariants use.

use fuse_core::Notification;
use fuse_core::{CreateError, CreateTicket, FuseConfig, FuseId, GroupHandle};
use fuse_net::{FaultPlane, NetConfig, Network, TopologyConfig};
use fuse_obs::Aggregates;
use fuse_overlay::oracle::OracleTables;
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::process::{Ctx, Process};
use fuse_sim::{ProcId, ShardedSim, Sim, SimDuration, SimTime};
use fuse_simdriver::NodeStack;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::app::RecorderApp;
use crate::metrics::MsgTrace;

/// The concrete simulation type a [`World`] drives.
pub type WorldSim = Sim<NodeStack<RecorderApp>, Network, MsgTrace>;

/// The concrete sharded simulation type a [`ShardedWorld`] drives.
pub type ShardedWorldSim = ShardedSim<NodeStack<RecorderApp>, Network, MsgTrace>;

/// Message type of the node stacks both worlds drive.
pub type StackMsg = <NodeStack<RecorderApp> as Process>::Msg;
/// Timer type of the node stacks both worlds drive.
pub type StackTimer = <NodeStack<RecorderApp> as Process>::Timer;

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
    /// Virtual nodes per emulated physical machine (paper: 10).
    pub nodes_per_machine: usize,
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
            nodes_per_machine: 10,
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
        info.clone(),
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

/// Rebooted node `i`'s stack, bootstrapped exactly like
/// [`Bootstrap::Oracle`] built it: converged tables from global membership,
/// no knowledge of any FUSE group.
fn oracle_stack(infos: &[NodeInfo], i: usize, params: &WorldParams) -> NodeStack<RecorderApp> {
    let tables = build_oracle_tables(infos, &params.ov)
        .into_iter()
        .nth(i)
        .expect("node exists");
    node_stack(&infos[i], params, None, Some(tables))
}

/// A built world: the simulation plus node directory.
pub struct World {
    /// The simulation.
    pub sim: WorldSim,
    /// Identity of every node (index = process id).
    pub infos: Vec<NodeInfo>,
    /// Nodes per emulated machine.
    pub nodes_per_machine: usize,
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
        World {
            sim,
            infos,
            nodes_per_machine: p.nodes_per_machine,
        }
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
        let others: Vec<NodeInfo> = members
            .iter()
            .map(|&m| self.infos[m as usize].clone())
            .collect();
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

    /// The virtual nodes hosted on emulated machine `m` (paper: 10 per
    /// machine).
    pub fn machine_nodes(&self, m: usize) -> Vec<ProcId> {
        let lo = m * self.nodes_per_machine;
        let hi = ((m + 1) * self.nodes_per_machine).min(self.infos.len());
        (lo..hi).map(|i| i as ProcId).collect()
    }

    /// Unplugs every node of machine `m` from the network (Figure 9's
    /// experiment disconnects one physical machine).
    pub fn disconnect_machine(&mut self, m: usize) {
        for p in self.machine_nodes(m) {
            self.sim.medium_mut().fault_mut().disconnect(p);
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
        self.sim
            .restart(p, oracle_stack(&self.infos, p as usize, params));
    }

    /// Picks `k` distinct random nodes (optionally excluding some).
    pub fn sample_nodes(&mut self, k: usize, exclude: &[ProcId]) -> Vec<ProcId> {
        use rand::seq::SliceRandom;
        let mut all: Vec<ProcId> = (0..self.infos.len() as ProcId)
            .filter(|p| !exclude.contains(p) && self.sim.is_up(*p))
            .collect();
        all.shuffle(self.sim.rng_mut());
        all.truncate(k);
        all
    }
}

/// A [`World`] over the sharded kernel: identical node stacks and network
/// model, with processes partitioned round-robin over `k` shards and the
/// [`Network`] replicated per shard (simulator profile only — the cluster
/// profile's warm-connection cache is per-replica send history and would
/// diverge). Built from the same [`WorldParams`], it produces runs whose
/// observables are bit-identical for every shard count.
pub struct ShardedWorld {
    /// The sharded simulation.
    pub sim: ShardedWorldSim,
    /// Identity of every node (index = process id).
    pub infos: Vec<NodeInfo>,
}

impl ShardedWorld {
    /// Builds the world over `shards` shards.
    pub fn build(p: &WorldParams, shards: usize) -> ShardedWorld {
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5eed_0000);
        let net = Network::generate(&p.topo, p.n, p.net.clone(), &mut rng);
        let infos: Vec<NodeInfo> = (0..p.n)
            .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
            .collect();
        let mut sim = ShardedSim::with_trace(p.seed, shards, net, |_| MsgTrace::new());
        for (stagger, stack) in initial_stacks(p, &infos) {
            if let Some(d) = stagger {
                sim.run_for(d);
            }
            sim.add_process(stack);
        }
        ShardedWorld { sim, infos }
    }
}

/// Read-only observations made on a finished (or running) chaos world.
/// Object-safe, so boxed [`Invariant`](crate::chaos::Invariant) checkers
/// work over any kernel.
pub trait ChaosObservable {
    /// World size (nodes ever added).
    fn n_nodes(&self) -> usize;
    /// Whether node `p` is currently up.
    fn is_up(&self, p: ProcId) -> bool;
    /// Failure timestamps node `p` recorded for `id` (empty if crashed).
    fn failures(&self, p: ProcId, id: FuseId) -> Vec<SimTime>;
    /// Reason-carrying notifications `p` recorded for `id`.
    fn notifications(&self, p: ProcId, id: FuseId) -> Vec<(SimTime, Notification)>;
    /// Whether live node `p` still holds state for group `id` (`false` for
    /// crashed nodes — the state died with them).
    fn knows_group(&self, p: ProcId, id: FuseId) -> bool;
    /// Kernel events executed so far.
    fn events_executed(&self) -> u64;
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Folds the observation recorders of every live node stack (in
    /// process-id order) and every network replica into one
    /// [`Aggregates`]. Crashed nodes' recorders died with their stacks —
    /// deterministically so, whatever the shard count.
    fn obs_aggregates(&self) -> Aggregates;
}

/// The mutation surface one chaos run needs, implemented by both kernels'
/// worlds. Methods that touch the medium broadcast on the sharded kernel,
/// so every shard's replica sees the identical fault state.
pub trait ChaosHost: ChaosObservable + Sized {
    /// Immutable access to live node `p`'s stack.
    fn node(&self, p: ProcId) -> Option<&NodeStack<RecorderApp>>;
    /// Runs every event at or before `t` and advances the clock to `t`.
    fn run_to(&mut self, t: SimTime);
    /// Event-stepped wait: executes events one at a time, evaluating `pred`
    /// after each, until it holds or the deadline passes (same contract as
    /// [`World::run_until`]). Returns whether `pred` held.
    fn run_until_pred(&mut self, deadline: SimTime, pred: impl FnMut(&Self) -> bool) -> bool;
    /// Crash-stops `p` (no-op if already down).
    fn crash(&mut self, p: ProcId);
    /// Restarts crashed node `p` exactly like [`World::restart_node`]
    /// (no-op if up).
    fn restart_node(&mut self, p: ProcId, params: &WorldParams);
    /// Mutates the fault plane. Call only between run windows; on the
    /// sharded kernel the mutation is applied to every shard's replica.
    fn with_fault(&mut self, f: impl FnMut(&mut FaultPlane));
    /// Reads the fault plane (replica 0 on the sharded kernel — broadcasts
    /// keep every replica identical).
    fn fault(&self) -> &FaultPlane;
    /// Sets the global per-link loss rate (broadcast on the sharded
    /// kernel, where it also bumps every replica's loss epoch).
    fn set_global_loss(&mut self, rate: f64);
    /// Runs `f` against live node `p` in a full handler context.
    fn with_stack<R>(
        &mut self,
        p: ProcId,
        f: impl FnOnce(&mut NodeStack<RecorderApp>, &mut Ctx<'_, StackMsg, StackTimer>) -> R,
    ) -> Option<R>;
}

impl ChaosObservable for World {
    fn n_nodes(&self) -> usize {
        self.infos.len()
    }

    fn is_up(&self, p: ProcId) -> bool {
        self.sim.is_up(p)
    }

    fn failures(&self, p: ProcId, id: FuseId) -> Vec<SimTime> {
        World::failures(self, p, id)
    }

    fn notifications(&self, p: ProcId, id: FuseId) -> Vec<(SimTime, Notification)> {
        World::notifications(self, p, id)
    }

    fn knows_group(&self, p: ProcId, id: FuseId) -> bool {
        self.sim
            .proc(p)
            .map(|s| s.fuse.knows_group(id))
            .unwrap_or(false)
    }

    fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn obs_aggregates(&self) -> Aggregates {
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

impl ChaosHost for World {
    fn node(&self, p: ProcId) -> Option<&NodeStack<RecorderApp>> {
        self.sim.proc(p)
    }

    fn run_to(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    fn run_until_pred(&mut self, deadline: SimTime, mut pred: impl FnMut(&Self) -> bool) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if !self.sim.step_until(deadline) {
                self.sim.run_until(deadline);
                return false;
            }
        }
    }

    fn crash(&mut self, p: ProcId) {
        self.sim.crash(p);
    }

    fn restart_node(&mut self, p: ProcId, params: &WorldParams) {
        World::restart_node(self, p, params);
    }

    fn with_fault(&mut self, mut f: impl FnMut(&mut FaultPlane)) {
        f(self.sim.medium_mut().fault_mut());
    }

    fn fault(&self) -> &FaultPlane {
        self.sim.medium().fault()
    }

    fn set_global_loss(&mut self, rate: f64) {
        self.sim.medium_mut().set_per_link_loss(rate);
    }

    fn with_stack<R>(
        &mut self,
        p: ProcId,
        f: impl FnOnce(&mut NodeStack<RecorderApp>, &mut Ctx<'_, StackMsg, StackTimer>) -> R,
    ) -> Option<R> {
        self.sim.with_proc(p, f)
    }
}

impl ChaosObservable for ShardedWorld {
    fn n_nodes(&self) -> usize {
        self.infos.len()
    }

    fn is_up(&self, p: ProcId) -> bool {
        self.sim.is_up(p)
    }

    fn failures(&self, p: ProcId, id: FuseId) -> Vec<SimTime> {
        self.sim
            .proc(p)
            .map(|s| s.app.failures(id))
            .unwrap_or_default()
    }

    fn notifications(&self, p: ProcId, id: FuseId) -> Vec<(SimTime, Notification)> {
        self.sim
            .proc(p)
            .map(|s| s.app.notifications(id))
            .unwrap_or_default()
    }

    fn knows_group(&self, p: ProcId, id: FuseId) -> bool {
        self.sim
            .proc(p)
            .map(|s| s.fuse.knows_group(id))
            .unwrap_or(false)
    }

    fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn obs_aggregates(&self) -> Aggregates {
        let mut agg = Aggregates::default();
        for p in 0..self.infos.len() as ProcId {
            if let Some(s) = self.sim.proc(p) {
                agg.merge_from(s.fuse.obs());
            }
        }
        // Each replica saw only the sends its shard arbitrated (replicas
        // start with fresh recorders), so the per-shard sum equals the
        // single-kernel totals for any shard count.
        for s in 0..self.sim.shard_count() {
            agg.merge_from(self.sim.medium(s).obs());
        }
        agg
    }
}

impl ChaosHost for ShardedWorld {
    fn node(&self, p: ProcId) -> Option<&NodeStack<RecorderApp>> {
        self.sim.proc(p)
    }

    fn run_to(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    fn run_until_pred(&mut self, deadline: SimTime, mut pred: impl FnMut(&Self) -> bool) -> bool {
        loop {
            if pred(self) {
                return true;
            }
            if !self.sim.step_until(deadline) {
                self.sim.run_until(deadline);
                return false;
            }
        }
    }

    fn crash(&mut self, p: ProcId) {
        if self.sim.is_up(p) {
            self.sim.crash(p);
        }
    }

    fn restart_node(&mut self, p: ProcId, params: &WorldParams) {
        if self.sim.is_up(p) {
            return;
        }
        self.sim
            .restart(p, oracle_stack(&self.infos, p as usize, params));
    }

    fn with_fault(&mut self, mut f: impl FnMut(&mut FaultPlane)) {
        self.sim.with_mediums(|m| f(m.fault_mut()));
    }

    fn fault(&self) -> &FaultPlane {
        self.sim.medium(0).fault()
    }

    fn set_global_loss(&mut self, rate: f64) {
        self.sim.with_mediums(|m| m.set_per_link_loss(rate));
    }

    fn with_stack<R>(
        &mut self,
        p: ProcId,
        f: impl FnOnce(&mut NodeStack<RecorderApp>, &mut Ctx<'_, StackMsg, StackTimer>) -> R,
    ) -> Option<R> {
        self.sim.with_proc(p, f)
    }
}

/// Blocking group creation over any chaos host — [`World::create_group_blocking`],
/// generalized. Returns the outcome and the creation latency.
pub fn create_group_blocking_on<W: ChaosHost>(
    world: &mut W,
    root: ProcId,
    members: &[ProcId],
) -> (Result<GroupHandle, CreateError>, SimDuration) {
    let t0 = ChaosObservable::now(world);
    let others: Vec<NodeInfo> = members
        .iter()
        .map(|&m| NodeInfo::new(m, NodeName::numbered(m as usize)))
        .collect();
    let ticket: CreateTicket = world
        .with_stack(root, |stack, ctx| {
            stack.with_api(ctx, |api, _| api.create_group(others))
        })
        .expect("root alive");
    let deadline = t0 + SimDuration::from_secs(60);
    let done = world.run_until_pred(deadline, |w| {
        w.node(root)
            .map(|s| s.app.created_result(ticket).is_some())
            .unwrap_or(false)
    });
    let now = ChaosObservable::now(world);
    if !done {
        return (Err(CreateError::MemberUnreachable), now.since(t0));
    }
    let res = world
        .node(root)
        .and_then(|s| s.app.created_result(ticket))
        .expect("predicate held");
    let at = world
        .node(root)
        .and_then(|s| s.app.created_at(ticket))
        .expect("created_at");
    (res, at.since(t0))
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
