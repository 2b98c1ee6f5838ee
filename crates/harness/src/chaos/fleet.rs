//! One substrate interface for every executor of faults: the sim runner,
//! `fuse_load`'s plan loop and its live replay all reach their fleet
//! through [`Fleet`], and every chaos op through [`apply`].
//!
//! [`SimFleet`] is the simulated fleet (a [`World`] plus the
//! [`WorldParams`] its restarted nodes boot from); `fuse_load`'s `Cluster`
//! is the live one. An op means the same thing on either: a crash acts
//! only on an up node, a restart only on a down one, a signal only at an
//! up node, and each reports whether it acted.

use std::convert::Infallible;

use fuse_core::FuseId;
use fuse_net::FaultPlane;
use fuse_sim::{ProcId, SimDuration, SimTime};

use crate::chaos::runner::RtOp;
use crate::chaos::script::ChaosOp;
use crate::world::{World, WorldParams};

/// What the executors drive a fleet of FUSE nodes through. Node ids are
/// process ids (`0..nodes()`); instants are nanoseconds on the fleet's own
/// clock (simulated time, or the wall clock the live nodes stamp).
pub trait Fleet {
    /// A group's id on this substrate: a [`FuseId`] in the sim, the
    /// printed `fuse:<hex>` id live.
    type Gid;
    /// Why a fleet operation failed; every such failure ends the run.
    type Error;

    /// Fleet size.
    fn nodes(&self) -> usize;
    /// Crash-stops `p` if it is up; returns whether it was.
    fn crash(&mut self, p: ProcId) -> Result<bool, Self::Error>;
    /// Restarts `p` with fresh state if it is down; returns whether it was.
    fn restart(&mut self, p: ProcId) -> Result<bool, Self::Error>;
    /// Has `p`'s application signal `group` if `p` is up; returns whether
    /// it was.
    fn signal(&mut self, p: ProcId, group: &Self::Gid) -> Result<bool, Self::Error>;
    /// Mutates the fleet's fault plane.
    fn faults(&mut self, f: impl FnOnce(&mut FaultPlane));
    /// Sets the loss every link carries on top of the plane.
    fn set_global_loss(&mut self, rate: f64);
    /// Creates a group rooted at `root` over `members`; `None` if the
    /// creation failed or timed out.
    fn create(&mut self, root: ProcId, members: &[ProcId]) -> Option<Self::Gid>;
    /// The fleet's clock.
    fn now_ns(&self) -> u64;
    /// The instants of every notification `p` has delivered for `group`.
    fn notified_ns(&self, p: ProcId, group: &Self::Gid) -> Vec<u64>;
    /// Waits until `p` has delivered a notification for `group` or the
    /// clock reaches `deadline_ns`; returns the first one's instant.
    fn wait_notified(&mut self, p: ProcId, group: &Self::Gid, deadline_ns: u64) -> Option<u64>;
    /// Lets the last repairs drain before the next round; by default there
    /// is nothing to wait for.
    fn settle(&mut self) {}
}

/// Applies one desugared op to `fleet`, resolving slots through
/// `slot_proc`; a signal needs the `group` it burns. Returns whether the
/// op acted: crash, restart and signal report what the fleet did (and a
/// signal with no group does nothing); plane mutations and loss steps
/// always act.
///
/// # Panics
/// On `churn` and `lossramp`, which [`desugar`](crate::chaos::desugar)
/// expands before execution.
pub fn apply<F: Fleet>(
    fleet: &mut F,
    op: RtOp,
    slot_proc: impl Fn(u8) -> ProcId,
    group: Option<&F::Gid>,
) -> Result<bool, F::Error> {
    let op = match op {
        RtOp::GlobalLoss(rate) => {
            fleet.set_global_loss(rate);
            return Ok(true);
        }
        RtOp::Op(op) => op,
    };
    let n = fleet.nodes();
    match op {
        ChaosOp::Crash { slot } => return fleet.crash(slot_proc(slot)),
        ChaosOp::Restart { slot } => return fleet.restart(slot_proc(slot)),
        ChaosOp::Signal { slot } => {
            return group.map_or(Ok(false), |g| fleet.signal(slot_proc(slot), g))
        }
        ChaosOp::Churn { .. } | ChaosOp::LossRamp { .. } => {
            panic!("churn and loss ramps are desugared before execution")
        }
        _ => {}
    }
    fleet.faults(|plane| match op {
        ChaosOp::Disconnect { slot } => plane.disconnect(slot_proc(slot)),
        ChaosOp::Reconnect { slot } => plane.reconnect(slot_proc(slot)),
        ChaosOp::PartitionOff { slot } => plane.set_partition(slot_proc(slot), 1),
        ChaosOp::PartitionHalf { pct } => {
            let pivot = n * usize::from(pct.min(100)) / 100;
            for p in pivot..n {
                plane.set_partition(p as ProcId, 1);
            }
        }
        ChaosOp::HealPartitions => plane.heal_partitions(),
        ChaosOp::Blackhole { from, to } => plane.add_blackhole(slot_proc(from), slot_proc(to)),
        ChaosOp::ClearBlackhole { from, to } => {
            plane.clear_blackhole(slot_proc(from), slot_proc(to))
        }
        ChaosOp::LinkLoss { from, to, pct } => {
            plane.set_link_loss(slot_proc(from), slot_proc(to), f64::from(pct) / 100.0)
        }
        ChaosOp::AdversaryDrop { class } => plane.drop_class(class.label()),
        ChaosOp::AdversaryClear => plane.clear_class_drops(),
        _ => unreachable!("handled above"),
    });
    Ok(true)
}

/// The simulated fleet: a [`World`] and the parameters a restarted node's
/// stack is built from.
pub struct SimFleet {
    /// The world every op acts on.
    pub world: World,
    /// What the world was built from, and restarts boot from.
    pub params: WorldParams,
}

/// How long the sim runs after a round's repairs (restarts rejoin,
/// reconnected links come back) before the next round creates groups.
const SETTLE: SimDuration = SimDuration::from_secs(5);

impl Fleet for SimFleet {
    type Gid = FuseId;
    type Error = Infallible;

    fn nodes(&self) -> usize {
        self.params.n
    }

    fn crash(&mut self, p: ProcId) -> Result<bool, Infallible> {
        let up = self.world.is_up(p);
        self.world.crash(p); // A no-op on a down node.
        Ok(up)
    }

    fn restart(&mut self, p: ProcId) -> Result<bool, Infallible> {
        let down = !self.world.is_up(p);
        self.world.restart_node(p, &self.params);
        Ok(down)
    }

    fn signal(&mut self, p: ProcId, group: &FuseId) -> Result<bool, Infallible> {
        // A down node's stack is gone: the world's signal reaches nothing.
        let up = self.world.is_up(p);
        self.world.signal(p, *group);
        Ok(up)
    }

    fn faults(&mut self, f: impl FnOnce(&mut FaultPlane)) {
        f(self.world.fault_mut());
    }

    fn set_global_loss(&mut self, rate: f64) {
        self.world.set_global_loss(rate);
    }

    fn create(&mut self, root: ProcId, members: &[ProcId]) -> Option<FuseId> {
        self.world
            .create_group_blocking(root, members)
            .0
            .ok()
            .map(|h| h.id)
    }

    fn now_ns(&self) -> u64 {
        self.world.now().nanos()
    }

    fn notified_ns(&self, p: ProcId, group: &FuseId) -> Vec<u64> {
        let at = self.world.failures(p, *group);
        at.into_iter().map(SimTime::nanos).collect()
    }

    fn wait_notified(&mut self, p: ProcId, group: &FuseId, deadline_ns: u64) -> Option<u64> {
        let left = SimTime(deadline_ns).since(self.world.now());
        self.world.wait_all_notified(&[p], *group, left);
        self.notified_ns(p, group).first().copied()
    }

    fn settle(&mut self) {
        self.world.run(SETTLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_net::NetConfig;

    #[test]
    fn sim_fleet_acts_only_where_the_op_can() {
        let mut params = WorldParams::new(12, 3, NetConfig::simulator());
        params.topo.n_as = 24;
        let mut fleet = SimFleet {
            world: World::build(&params),
            params,
        };
        fleet.world.run(SimDuration::from_secs(2));
        let Some(id) = fleet.create(0, &[5, 10]) else {
            panic!("a clean world creates");
        };
        let slot = |s: u8| [0, 5, 10][s as usize];
        let signal = RtOp::Op(ChaosOp::Signal { slot: 0 });
        let Ok(acted) = apply(&mut fleet, signal, slot, None);
        assert!(!acted, "a signal with no group");
        let mut op = |op| {
            let Ok(acted) = apply(&mut fleet, RtOp::Op(op), slot, Some(&id));
            acted
        };
        assert!(!op(ChaosOp::Restart { slot: 1 }), "restart of an up node");
        assert!(op(ChaosOp::Crash { slot: 1 }));
        assert!(!op(ChaosOp::Crash { slot: 1 }), "crash of a down node");
        assert!(!op(ChaosOp::Signal { slot: 1 }), "signal at a down node");
        assert!(op(ChaosOp::Restart { slot: 1 }));
        assert!(op(ChaosOp::Signal { slot: 0 }));
        assert!(op(ChaosOp::Disconnect { slot: 2 }));
        assert!(fleet.world.fault().is_disconnected(10));
        let deadline = fleet.now_ns() + SimDuration::from_secs(60).nanos();
        let at = fleet.wait_notified(0, &id, deadline);
        assert!(at.is_some_and(|t| t < deadline), "the root hears the burn");
        assert_eq!(fleet.notified_ns(0, &id), vec![at.unwrap()]);
    }
}
