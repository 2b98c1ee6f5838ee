//! What a simulated workload needs from a world, so the same workload code
//! runs the untraced [`World`] and the benchmark's traced twin
//! ([`crate::traced::TracedWorld`]).

use fuse_core::{CreateTicket, FuseId};
use fuse_harness::world::{World, WorldParams};
use fuse_harness::RecorderApp;
use fuse_net::{NetConfig, Network};
use fuse_sim::{ProcId, SimDuration, SimTime};

/// Overlay size of every simulated workload: the paper's deployment.
pub const NODES: usize = 400;

/// The paper's 400-node world under the cluster profile: delivery delay is
/// the generated topology's route latency plus the profile's per-message
/// overhead and connection set-up.
pub fn world_params(seed: u64) -> WorldParams {
    WorldParams::new(NODES, seed, NetConfig::cluster())
}

/// A simulated world a workload can drive.
pub trait Host {
    /// Builds the world for `seed`.
    fn build(seed: u64) -> Self;
    /// Runs for a span of simulated time.
    fn run(&mut self, d: SimDuration);
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Starts a group creation at `root`; the outcome arrives as a
    /// `Created` event in the root's application.
    fn start_create(&mut self, root: ProcId, members: &[ProcId]) -> CreateTicket;
    /// Signals failure of `id` at `node`.
    fn signal(&mut self, node: ProcId, id: FuseId);
    /// The application of node `p` (no workload crashes a process).
    fn app(&self, p: ProcId) -> &RecorderApp;
    /// Kernel events executed so far.
    fn events_executed(&self) -> u64;
    /// Kernel events queued.
    fn pending_events(&self) -> usize;
    /// Messages and bytes the kernel's `MsgTrace` has seen.
    fn msg_totals(&self) -> (u64, u64);
    /// The network model.
    fn net(&self) -> &Network;
    /// The network model, for fault injection.
    fn net_mut(&mut self) -> &mut Network;
}

impl Host for World {
    fn build(seed: u64) -> Self {
        World::build(&world_params(seed))
    }

    fn run(&mut self, d: SimDuration) {
        World::run(self, d);
    }

    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn start_create(&mut self, root: ProcId, members: &[ProcId]) -> CreateTicket {
        World::start_create(self, root, members)
    }

    fn signal(&mut self, node: ProcId, id: FuseId) {
        World::signal(self, node, id);
    }

    fn app(&self, p: ProcId) -> &RecorderApp {
        &self.sim.proc(p).expect("workloads crash no process").app
    }

    fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    fn msg_totals(&self) -> (u64, u64) {
        (
            self.sim.trace().total_msgs(),
            self.sim.trace().total_bytes(),
        )
    }

    fn net(&self) -> &Network {
        self.sim.medium()
    }

    fn net_mut(&mut self) -> &mut Network {
        self.sim.medium_mut()
    }
}
