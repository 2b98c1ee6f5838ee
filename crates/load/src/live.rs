//! Drives a planned scenario on any [`Fleet`]: the live [`Cluster`] or
//! the simulated [`SimFleet`] ([`sim_fleet`]). Each round creates its
//! groups, fires the fault class at one instant through the chaos op
//! applier ([`apply`]), collects every surviving participant's first
//! notification (exactly one each, within the budget) and repairs the
//! fleet before the next round.

use std::time::Duration;

use fuse_core::FuseConfig;
use fuse_harness::chaos::{apply, Fleet, RtOp, SimFleet};
use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_overlay::OverlayConfig;
use fuse_sim::{ProcId, SimDuration};

use crate::cluster::Cluster;
use crate::proxy::Ambient;
use crate::report::Samples;
use crate::scenario::{GroupPlan, RoundPlan, ScenarioParams};

/// Creation attempts before a group counts as a miss: under lossy
/// conditioning a create can legitimately fail.
const CREATE_ATTEMPTS: usize = 3;

/// Applies the scenario's ambient network conditioning (delay/loss) to
/// every proxied link.
pub fn condition_links(cluster: &Cluster, p: &ScenarioParams) {
    cluster.set_ambient(Ambient {
        loss: f64::from(p.loss_pct) / 100.0,
        delay: Duration::from_millis(p.delay_ms),
    });
}

/// The simulated fleet for `p` on the given detection timings: a world of
/// `p.nodes` nodes, its overlay settled for 2 s, under the scenario's loss.
pub fn sim_fleet(p: &ScenarioParams, (ov, fuse): (OverlayConfig, FuseConfig)) -> SimFleet {
    let mut params = WorldParams::new(p.nodes, p.seed, NetConfig::simulator());
    (params.ov, params.fuse) = (ov, fuse);
    let mut fleet = SimFleet {
        world: World::build(&params),
        params,
    };
    fleet.world.run(SimDuration::from_secs(2));
    fleet.set_global_loss(f64::from(p.loss_pct) / 100.0);
    fleet
}

/// Runs every planned round on `fleet`, returning per-class samples.
/// `progress` receives one human line per round.
pub fn run_rounds<F: Fleet>(
    fleet: &mut F,
    p: &ScenarioParams,
    rounds: &[RoundPlan],
    mut progress: impl FnMut(&str),
) -> Result<Samples, F::Error> {
    let mut samples = Samples::new();
    for (rno, round) in rounds.iter().enumerate() {
        let gids: Vec<Option<F::Gid>> = round
            .groups
            .iter()
            .map(|g| {
                let members: Vec<ProcId> = g.members.iter().map(|&m| m as ProcId).collect();
                (0..CREATE_ATTEMPTS).find_map(|_| fleet.create(g.root as ProcId, &members))
            })
            .collect();

        // One fault instant for the whole round.
        let t0 = fleet.now_ns();
        for (g, gid) in round.groups.iter().zip(&gids) {
            let victim = |_| g.victim as ProcId;
            apply(fleet, RtOp::Op(round.class.op()), victim, gid.as_ref())?;
        }

        // Collect: every survivor of every group must be notified by the
        // deadline the round shares. A creation that never succeeded is a
        // miss.
        let deadline = t0 + p.budget.as_nanos() as u64;
        let victims = round.victims();
        let survivors = |g: &GroupPlan| -> Vec<ProcId> {
            let s = g.survivors(round.class, &victims).into_iter();
            s.map(|s| s as ProcId).collect()
        };
        let mut latencies: Vec<Option<u64>> = Vec::new();
        for (g, gid) in round.groups.iter().zip(&gids) {
            let last = gid.as_ref().and_then(|gid| {
                survivors(g).into_iter().try_fold(0, |last: u64, s| {
                    let at = fleet.wait_notified(s, gid, deadline)?;
                    // A live survivor may stamp a hair before the wall
                    // read of the fault instant.
                    Some(last.max(at.saturating_sub(t0)))
                })
            });
            latencies.push(last);
        }
        // Exactly once: a survivor notified twice for its group misses too.
        let entry = samples.entry(round.class).or_default();
        for ((g, gid), last) in round.groups.iter().zip(&gids).zip(latencies) {
            let once = |gid| {
                survivors(g)
                    .into_iter()
                    .all(|s| fleet.notified_ns(s, gid).len() == 1)
            };
            match (gid, last) {
                (Some(gid), Some(ns)) if once(gid) => {
                    entry.0.push(Duration::from_nanos(ns).as_secs_f64() * 1e3)
                }
                _ => entry.1 += 1,
            }
        }

        // Repair before the next round: restart kills, reconnect severs.
        if let Some(op) = round.class.repair() {
            for g in &round.groups {
                apply(fleet, RtOp::Op(op), |_| g.victim as ProcId, None)?;
            }
        }
        fleet.settle();
        let (ok, miss) = (entry.0.len(), entry.1);
        progress(&format!(
            "round {}/{} class={} groups={} cum_ok={ok} cum_miss={miss}",
            rno + 1,
            rounds.len(),
            round.class.label(),
            round.groups.len(),
        ));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{plan, FaultClass};
    use fuse_harness::chaos::ChaosOp;
    use fuse_net::FaultPlane;
    use std::collections::{HashMap, HashSet};
    use std::convert::Infallible;

    /// A recording fleet with no processes and no sockets: a group burns
    /// once one of its participants is down, disconnected or signalled,
    /// and every up participant then hears 1 ms after the fault instant.
    #[derive(Default)]
    struct Fake {
        down: HashSet<ProcId>,
        plane: FaultPlane,
        groups: Vec<(Vec<ProcId>, bool)>,
        heard: HashMap<(ProcId, usize), Vec<u64>>,
        failing_creates: usize,
        twice: Option<ProcId>,
        log: Vec<String>,
    }

    impl Fleet for Fake {
        type Gid = usize;
        type Error = Infallible;

        fn nodes(&self) -> usize {
            8
        }
        fn crash(&mut self, p: ProcId) -> Result<bool, Infallible> {
            let acted = self.down.insert(p);
            if acted {
                self.log.push(format!("crash {p}"));
            }
            Ok(acted)
        }
        fn restart(&mut self, p: ProcId) -> Result<bool, Infallible> {
            let acted = self.down.remove(&p);
            if acted {
                self.log.push(format!("restart {p}"));
            }
            Ok(acted)
        }
        fn signal(&mut self, p: ProcId, group: &usize) -> Result<bool, Infallible> {
            if self.down.contains(&p) {
                return Ok(false);
            }
            self.log.push(format!("signal {p} {group}"));
            self.groups[*group].1 = true;
            Ok(true)
        }
        fn faults(&mut self, f: impl FnOnce(&mut FaultPlane)) {
            f(&mut self.plane);
        }
        fn set_global_loss(&mut self, _: f64) {}
        fn create(&mut self, root: ProcId, members: &[ProcId]) -> Option<usize> {
            self.log.push(format!("create {root}"));
            if self.failing_creates > 0 {
                self.failing_creates -= 1;
                return None;
            }
            let mut parts = vec![root];
            parts.extend(members);
            self.groups.push((parts, false));
            Some(self.groups.len() - 1)
        }
        fn now_ns(&self) -> u64 {
            0
        }
        fn notified_ns(&self, p: ProcId, group: &usize) -> Vec<u64> {
            self.heard.get(&(p, *group)).cloned().unwrap_or_default()
        }
        fn wait_notified(&mut self, p: ProcId, group: &usize, _: u64) -> Option<u64> {
            self.log.push(format!("wait {p}"));
            let (parts, signalled) = &self.groups[*group];
            let burned = *signalled
                || parts
                    .iter()
                    .any(|q| self.down.contains(q) || self.plane.is_disconnected(*q));
            let heard = self.heard.entry((p, *group)).or_default();
            if burned && !self.down.contains(&p) && heard.is_empty() {
                heard.push(1_000_000);
                if self.twice == Some(p) {
                    heard.push(2_000_000);
                }
            }
            heard.first().copied()
        }
        fn settle(&mut self) {
            self.log.push("settle".into());
        }
    }

    fn params() -> ScenarioParams {
        ScenarioParams {
            nodes: 8,
            groups: 1,
            rounds: 1,
            seed: 1,
            budget: Duration::from_secs(480),
            delay_ms: 0,
            loss_pct: 0,
        }
    }

    fn round(class: FaultClass) -> RoundPlan {
        let groups = vec![GroupPlan {
            root: 0,
            members: vec![3, 5],
            victim: 3,
        }];
        RoundPlan { class, groups }
    }

    fn run(fake: &mut Fake, class: FaultClass) -> (Vec<f64>, usize) {
        let Ok(mut samples) = run_rounds(fake, &params(), &[round(class)], |_| {});
        samples.remove(&class).unwrap()
    }

    #[test]
    fn each_class_fires_and_repairs_through_the_applier() {
        let mut fake = Fake::default();
        assert_eq!(run(&mut fake, FaultClass::Kill), (vec![1.0], 0));
        let log = [
            "create 0",
            "crash 3",
            "wait 0",
            "wait 5",
            "restart 3",
            "settle",
        ];
        assert_eq!(fake.log, log);
        let mut fake = Fake::default();
        assert_eq!(run(&mut fake, FaultClass::Sever), (vec![1.0], 0));
        assert!(!fake.plane.is_disconnected(3), "the repair reconnects");
    }

    #[test]
    fn a_survivor_notified_twice_is_a_miss() {
        let mut fake = Fake {
            twice: Some(5),
            ..Fake::default()
        };
        assert_eq!(run(&mut fake, FaultClass::Kill), (vec![], 1));
    }

    #[test]
    fn a_create_that_fails_three_times_is_a_miss() {
        let mut fake = Fake {
            failing_creates: 3,
            ..Fake::default()
        };
        assert_eq!(run(&mut fake, FaultClass::Kill), (vec![], 1));
        let creates = fake.log.iter().filter(|l| l.starts_with("create"));
        assert_eq!(creates.count(), 3);
        assert!(!fake.log.iter().any(|l| l.starts_with("wait")));
        let mut fake = Fake {
            failing_creates: 2,
            ..Fake::default()
        };
        assert_eq!(run(&mut fake, FaultClass::Kill), (vec![1.0], 0));
    }

    #[test]
    fn the_signal_class_counts_the_victim_among_the_survivors() {
        let mut fake = Fake::default();
        assert_eq!(run(&mut fake, FaultClass::Signal), (vec![1.0], 0));
        let log = [
            "create 0",
            "signal 3 0",
            "wait 0",
            "wait 3",
            "wait 5",
            "settle",
        ];
        assert_eq!(fake.log, log, "the victim is waited on; nothing repaired");
    }

    #[test]
    fn ops_that_cannot_act_report_not_applied() {
        let mut fake = Fake::default();
        let group = fake.create(0, &[3, 5]).unwrap();
        let mut apply_at = |op, slot_proc: ProcId| {
            let Ok(acted) = apply(&mut fake, RtOp::Op(op), |_| slot_proc, Some(&group));
            acted
        };
        assert!(
            !apply_at(ChaosOp::Restart { slot: 1 }, 3),
            "restart of an up node"
        );
        assert!(apply_at(ChaosOp::Crash { slot: 1 }, 3));
        assert!(
            !apply_at(ChaosOp::Crash { slot: 1 }, 3),
            "crash of a down node"
        );
        assert!(
            !apply_at(ChaosOp::Signal { slot: 1 }, 3),
            "signal at a down node"
        );
        assert!(apply_at(ChaosOp::Restart { slot: 1 }, 3));
        assert_eq!(fake.log, ["create 0", "crash 3", "restart 3"]);
    }

    #[test]
    fn sim_reference_measures_signal_and_kill_rounds() {
        let p = ScenarioParams {
            nodes: 10,
            groups: 2,
            rounds: 1,
            seed: 7,
            budget: Duration::from_secs(480),
            delay_ms: 0,
            loss_pct: 0,
        };
        let rounds = plan(&p, &[FaultClass::Signal, FaultClass::Kill]);
        let mut fleet = sim_fleet(&p, Default::default());
        let Ok(per) = run_rounds(&mut fleet, &p, &rounds, |_| {});
        let (sig, sig_miss) = &per[&FaultClass::Signal];
        assert_eq!(*sig_miss, 0, "signal must never miss the budget");
        assert_eq!(sig.len(), 2);
        // Explicit signals propagate in network-delay time, far under a
        // second of simulated time.
        assert!(sig.iter().all(|&ms| ms < 1000.0), "signal ms: {sig:?}");
        let (kill, kill_miss) = &per[&FaultClass::Kill];
        assert_eq!(*kill_miss, 0, "kill must be detected within 480 s");
        assert_eq!(kill.len(), 2);
        // Silent-stop detection in the sim rides ping/TCP timeouts:
        // slower than signal, bounded by the budget.
        assert!(kill.iter().all(|&ms| ms <= 480_000.0));
    }
}
