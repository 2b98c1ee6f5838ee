//! The three simulated workloads, written once over [`Host`] so the
//! untraced and the traced run execute the same operations in the same
//! order. Each workload is a set-up and a slice of fixed work; the caller
//! times slices and decides how many to run.

use fuse_harness::world::pick_nodes;
use fuse_sim::{ProcId, SimDuration};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::host::{Host, NODES};
use crate::ledger::Ledger;

/// Virtual nodes per emulated machine (`WorldParams::new`'s default, the
/// paper's ten).
const NODES_PER_MACHINE: usize = 10;
/// Groups `steady_ping` and `crash_repair` keep standing.
const STANDING_GROUPS: usize = 400;
/// Creates issued together before the world runs.
const BATCH: usize = 100;
/// Simulated seconds a batch of creates is given to complete.
const CREATE_WINDOW_S: u64 = 6;
/// Simulated seconds a round of signals is given to reach every member.
const SIGNAL_WINDOW_S: u64 = 3;
/// The paper's bound on crash notification (Figure 9 and §3: within
/// minutes), the window after which a silent member counts as missed;
/// simulated seconds.
const CRASH_WINDOW_S: u64 = 480;
/// Group sizes of `group_churn`, cycled through by every batch.
const CHURN_SIZES: [usize; 5] = [2, 4, 8, 16, 32];
/// Simulated seconds in one `steady_ping` slice: five ping periods, so
/// every slice holds the same number of pings.
const QUIET_SLICE_S: u64 = 300;
/// Simulated seconds the world runs at most before the caller gets a pause:
/// one ping period.
const PAUSE_EVERY_S: u64 = 60;

/// A pause nobody uses.
pub fn no_pause() {}

/// Which simulated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Quiet state under a standing group population (§7.5).
    SteadyPing,
    /// Create, signal, collect, with no standing groups (Figures 7 and 8).
    GroupChurn,
    /// Unplug a machine, wait out the bound, heal, top up (Figure 9).
    CrashRepair,
}

impl SimKind {
    /// Slices in one repetition.
    pub fn slices(self) -> usize {
        match self {
            SimKind::SteadyPing | SimKind::GroupChurn => 6,
            // Every unplug leaves standing repair traffic behind, more of
            // it with every round and a different amount for every seed, so
            // a second round in the same world would not be the same work.
            SimKind::CrashRepair => 1,
        }
    }

    /// Repetitions every run makes, on as many generated worlds; the
    /// simulated-clock and count metrics are taken over exactly these.
    pub fn fixed_reps(self) -> usize {
        match self {
            // 1,200 creates and about 13,700 notifications in `group_churn`.
            SimKind::SteadyPing | SimKind::GroupChurn => 2,
            // About 240 notifications a round: five rounds for a p99.
            SimKind::CrashRepair => 5,
        }
    }
}

/// One workload on one world.
pub struct SimLoad<H: Host> {
    /// The world.
    pub host: H,
    /// The oracle.
    pub ledger: Ledger,
    kind: SimKind,
    /// Draws roots, members, signallers and the unplug order; the world is
    /// seeded separately and never sees this generator.
    rng: StdRng,
    /// `crash_repair`: machines in the order they are unplugged.
    machines: Vec<usize>,
    round: usize,
}

impl<H: Host> SimLoad<H> {
    /// Builds the world and brings it to the state the first slice expects.
    pub fn setup(kind: SimKind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6275_656e_6368);
        let mut machines: Vec<usize> = (0..NODES / NODES_PER_MACHINE).collect();
        machines.shuffle(&mut rng);
        let mut load = SimLoad {
            host: H::build(seed),
            ledger: Ledger::new(NODES),
            kind,
            rng,
            machines,
            round: 0,
        };
        // One full ping period and a half, so per-neighbour pings are at
        // their cadence before anything is created or measured.
        load.run(90, &mut no_pause);
        match kind {
            SimKind::SteadyPing => {
                load.create_groups(STANDING_GROUPS, |_| 10, &mut no_pause);
                load.run(120, &mut no_pause);
            }
            SimKind::GroupChurn => {}
            SimKind::CrashRepair => {
                load.create_groups(STANDING_GROUPS, |_| 5, &mut no_pause);
                load.run(90, &mut no_pause);
            }
        }
        load.ledger.collect(&load.host);
        load.ledger.settle();
        load
    }

    /// Runs the world for `secs` simulated seconds, a ping period at a time,
    /// and calls `pause` after each stretch. The stretches add up to one
    /// `run`: the kernel executes the same events in the same order. The
    /// caller uses the pauses to time its reference while the world stands
    /// still, so a long slice is not judged by what the host did before and
    /// after it.
    fn run(&mut self, secs: u64, pause: &mut dyn FnMut()) {
        let mut left = secs;
        while left > 0 {
            let stretch = left.min(PAUSE_EVERY_S);
            self.host.run(SimDuration::from_secs(stretch));
            left -= stretch;
            pause();
        }
    }

    /// Creates `count` groups in batches, group number `i` of a batch
    /// having `size(i)` members, root included, all drawn uniformly.
    fn create_groups(
        &mut self,
        count: usize,
        size: impl Fn(usize) -> usize,
        pause: &mut dyn FnMut(),
    ) {
        let mut left = count;
        while left > 0 {
            let batch = left.min(BATCH);
            for i in 0..batch {
                let root = self.rng.gen_range(0..NODES) as ProcId;
                let members = pick_nodes(&mut self.rng, NODES, size(i) - 1, &[root]);
                self.ledger.create(&mut self.host, root, members);
            }
            self.run(CREATE_WINDOW_S, pause);
            self.ledger.collect(&self.host);
            left -= batch;
        }
    }

    /// Runs one slice and returns the work it did, in the workload's unit:
    /// node·simulated-seconds for `steady_ping` and `crash_repair`, group
    /// cycles for `group_churn`. `pause` is called whenever the world has
    /// run for a ping period or a window has closed; the time it takes is
    /// the caller's to leave out.
    pub fn slice(&mut self, pause: &mut dyn FnMut()) -> f64 {
        let t0 = self.host.now();
        let work = match self.kind {
            SimKind::SteadyPing => {
                self.run(QUIET_SLICE_S, pause);
                self.ledger.collect(&self.host);
                None
            }
            SimKind::GroupChurn => Some(self.churn_round(pause)),
            SimKind::CrashRepair => {
                self.crash_round(pause);
                None
            }
        };
        self.round += 1;
        work.unwrap_or_else(|| NODES as f64 * self.host.now().since(t0).as_secs_f64())
    }

    fn churn_round(&mut self, pause: &mut dyn FnMut()) -> f64 {
        self.create_groups(BATCH, |i| CHURN_SIZES[i % CHURN_SIZES.len()], pause);
        self.signal_standing(pause) as f64
    }

    /// Signals every standing group from a uniformly random member, gives
    /// the notifications their window and settles; returns how many groups
    /// that was.
    fn signal_standing(&mut self, pause: &mut dyn FnMut()) -> usize {
        let standing: Vec<_> = self.ledger.standing().collect();
        for &(id, size) in &standing {
            let signaller = self.rng.gen_range(0..size);
            self.ledger.signal(&mut self.host, id, signaller);
        }
        self.run(SIGNAL_WINDOW_S, pause);
        self.ledger.collect(&self.host);
        self.ledger.settle();
        standing.len()
    }

    /// What follows the last slice, outside the measured time. On
    /// `steady_ping` every group that stood through the quiet slices is
    /// signalled: a group that cost nothing for half an hour still owes each
    /// member exactly one notification, and how long that takes is the
    /// workload's notification latency. The other workloads have issued and
    /// checked their notifications slice by slice.
    pub fn close(&mut self) {
        if self.kind == SimKind::SteadyPing {
            self.signal_standing(&mut no_pause);
        }
    }

    fn crash_round(&mut self, pause: &mut dyn FnMut()) {
        let machine = self.machines[self.round % self.machines.len()];
        let unplugged: Vec<ProcId> = (machine * NODES_PER_MACHINE
            ..(machine + 1) * NODES_PER_MACHINE)
            .map(|p| p as ProcId)
            .collect();
        for &p in &unplugged {
            self.host.net_mut().fault_mut().disconnect(p);
        }
        self.ledger.fault(&unplugged, self.host.now());
        self.run(CRASH_WINDOW_S, pause);
        self.ledger.collect(&self.host);
        self.ledger.settle_window();
        for &p in &unplugged {
            self.host.net_mut().fault_mut().reconnect(p);
        }
        // The overlay re-admits the ten before they are drawn as members.
        self.run(120, pause);
        self.ledger.collect(&self.host);
        let standing = self.ledger.standing().count();
        self.create_groups(STANDING_GROUPS - standing, |_| 5, pause);
        self.run(90, pause);
        self.ledger.collect(&self.host);
        self.ledger.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Counts;
    use crate::traced::TracedWorld;
    use fuse_core::FuseEvent;
    use fuse_harness::World;

    fn counts(attempted: u64) -> Counts {
        Counts {
            attempted,
            ..Counts::default()
        }
    }

    #[test]
    fn a_churn_round_settles_every_account_and_the_traced_world_agrees() {
        let mut plain = SimLoad::<World>::setup(SimKind::GroupChurn, 5);
        let mut traced = SimLoad::<TracedWorld>::setup(SimKind::GroupChurn, 5);
        assert_eq!(plain.slice(&mut no_pause), 100.0);
        let mut pauses = 0;
        assert_eq!(traced.slice(&mut || pauses += 1), 100.0);
        assert_eq!(pauses, 2, "after the create window and the signal window");
        // A hundred creates and a hundred signals, nothing failed, missed
        // or spurious; one sample per member other than the signaller.
        assert_eq!(plain.ledger.counts, counts(200));
        assert_eq!(plain.ledger.create_ms.len(), 100);
        let others: usize = CHURN_SIZES.iter().map(|s| s - 1).sum();
        assert_eq!(plain.ledger.notify_s.len(), 20 * others);
        assert_eq!(plain.ledger.standing().count(), 0);
        // The wrappers leave the schedule alone.
        assert_eq!(traced.ledger.counts, plain.ledger.counts);
        assert_eq!(traced.ledger.fingerprint, plain.ledger.fingerprint);
        assert_eq!(traced.ledger.notify_s, plain.ledger.notify_s);
        assert_eq!(traced.host.events_executed(), plain.host.events_executed());
        assert_eq!(traced.host.msg_totals(), plain.host.msg_totals());
    }

    #[test]
    fn the_ledger_tells_missed_spurious_and_false_positive_apart() {
        let mut load = SimLoad::<World>::setup(SimKind::GroupChurn, 6);
        load.create_groups(3, |_| 4, &mut no_pause);
        let ids: Vec<_> = load.ledger.standing().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 3);
        let root = |load: &SimLoad<World>, id| {
            (0..NODES as ProcId)
                .find(|&p| {
                    load.host.app(p).events.iter().any(|(_, ev)| {
                        matches!(ev, FuseEvent::Created { result: Ok(h), .. } if h.id == id)
                    })
                })
                .expect("a created group has a root")
        };

        // Signalled through the ledger, but the world never runs: all four
        // members are missed and the signal counts as failed.
        load.ledger.signal(&mut load.host, ids[0], 0);
        assert_eq!(load.ledger.settle(), 1);
        assert_eq!(load.ledger.counts.missed, 4);
        assert_eq!(load.ledger.counts.failed, 1);

        // Burned behind the ledger's back in a quiet world: every
        // notification is spurious — and so are the first group's four,
        // which arrive now, after its account was closed.
        let node = root(&load, ids[1]);
        load.host.signal(node, ids[1]);
        load.run(SIGNAL_WINDOW_S, &mut no_pause);
        load.ledger.collect(&load.host);
        assert_eq!(load.ledger.counts.spurious, 8);
        assert_eq!(load.ledger.counts.false_positives, 0);
        load.ledger.settle();

        // The same while a fault is active elsewhere: one false positive,
        // held to agreement, which it reaches.
        let node = root(&load, ids[2]);
        load.ledger.fault(&[], load.host.now());
        load.host.signal(node, ids[2]);
        load.run(SIGNAL_WINDOW_S, &mut no_pause);
        load.ledger.collect(&load.host);
        assert_eq!(load.ledger.settle_window(), 0, "not closed with the window");
        assert_eq!(load.ledger.settle(), 1);
        assert_eq!(load.ledger.counts.false_positives, 1);
        assert_eq!(load.ledger.counts.spurious, 8, "no more than before");
        assert_eq!(load.ledger.counts.missed, 4, "no more than before");
    }
}
