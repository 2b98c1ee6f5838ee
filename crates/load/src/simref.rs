//! The simulator reference run: the identical [`plan`](crate::scenario::plan)
//! schedule driven on `fuse_simdriver::NodeStack` via the harness
//! [`World`], producing per-class fault→last-member-notified latencies to
//! set against the live-TCP numbers.
//!
//! Known, *expected* divergences (documented in DESIGN.md §11):
//!
//! * **Kill** — a live SIGKILL resets every TCP stream, so survivors see
//!   reader-EOF (`connection-broken`) within milliseconds; the simulator's
//!   crash is silent-stop, detected through ping/TCP-model timeouts on the
//!   tens-of-seconds scale. Live should be *much faster* than sim here.
//! * **Sever** — live severing kills streams (EOF again), while the sim
//!   `disconnect` silently eats frames; same fast-vs-timeout asymmetry.
//! * **Signal** — no fault at all, pure propagation; the two back-ends
//!   should agree to within network-delay noise.
//!
//! The load harness reports the delta rather than asserting equality: the
//! live numbers are gated against the detection budget, the sim numbers
//! calibrate how much of that budget is protocol (shared) versus transport
//! (back-end-specific).

use std::collections::HashMap;
use std::time::Duration;

use fuse_harness::{World, WorldParams};
use fuse_net::NetConfig;
use fuse_sim::{ProcId, SimDuration};

use crate::scenario::{FaultClass, RoundPlan, ScenarioParams};

/// Per-group sim outcome: fault→last-survivor-notified latency, or `None`
/// if some survivor missed the budget.
#[derive(Debug, Clone)]
pub struct SimGroupOutcome {
    /// The fault class measured.
    pub class: FaultClass,
    /// Latency from the fault instant to the last surviving participant's
    /// first notification.
    pub latency: Option<Duration>,
}

/// Runs the planned rounds in one simulated world and returns per-group
/// outcomes in plan order.
pub fn run_reference(p: &ScenarioParams, rounds: &[RoundPlan]) -> Vec<SimGroupOutcome> {
    let params = WorldParams::new(p.nodes, p.seed, NetConfig::simulator());
    let mut world = World::build(&params);
    world.run(SimDuration::from_secs(2)); // settle the overlay
    if p.loss_pct > 0 {
        world.set_global_loss(f64::from(p.loss_pct) / 100.0);
    }
    let budget = SimDuration::from_secs(p.budget.as_secs().max(1));

    let mut out = Vec::new();
    for round in rounds {
        // Create this round's groups (sequentially; creation is fast).
        let mut handles = Vec::new();
        for g in &round.groups {
            let members: Vec<ProcId> = g.members.iter().map(|&m| m as ProcId).collect();
            let (res, _lat) = world.create_group_blocking(g.root as ProcId, &members);
            handles.push(res.ok().map(|h| h.id));
        }

        // One fault instant for the whole round, exactly like the live run.
        let victims = round.victims();
        let t0 = world.now();
        for g in round.groups.iter() {
            let v = g.victim as ProcId;
            match round.class {
                FaultClass::Kill => world.crash(v),
                FaultClass::Sever => world.fault_mut().disconnect(v),
                // Signals are per-group, not per-victim-process: applied in
                // the handle-indexed pass below.
                FaultClass::Signal => {}
            }
        }
        if round.class == FaultClass::Signal {
            for (g, id) in round.groups.iter().zip(&handles) {
                if let Some(id) = id {
                    world.signal(g.victim as ProcId, *id);
                }
            }
        }

        // Wait until every survivor of every (successfully created) group
        // heard, or the budget runs out.
        let waiting: Vec<(Vec<ProcId>, fuse_core::FuseId)> = round
            .groups
            .iter()
            .zip(&handles)
            .filter_map(|(g, id)| {
                id.map(|id| {
                    let survivors: Vec<ProcId> = g
                        .survivors(round.class, &victims)
                        .into_iter()
                        .map(|s| s as ProcId)
                        .collect();
                    (survivors, id)
                })
            })
            .collect();
        let deadline = t0 + budget;
        world.run_until(deadline, |sim| {
            waiting.iter().all(|(survivors, id)| {
                survivors.iter().all(|&s| {
                    sim.proc(s)
                        .map(|st| !st.app.failures(*id).is_empty())
                        .unwrap_or(true)
                })
            })
        });

        // Collect per-group last-survivor latencies.
        let mut idx = 0usize;
        for (_g, id) in round.groups.iter().zip(&handles) {
            let Some(id) = id else {
                out.push(SimGroupOutcome {
                    class: round.class,
                    latency: None,
                });
                continue;
            };
            let survivors = &waiting[idx].0;
            idx += 1;
            let mut last: Option<SimDuration> = None;
            let mut complete = true;
            for &s in survivors {
                match world.failures(s, *id).first() {
                    Some(&t) => {
                        let lat = t.since(t0);
                        last = Some(last.map_or(lat, |l| l.max(lat)));
                    }
                    None => complete = false,
                }
            }
            out.push(SimGroupOutcome {
                class: round.class,
                latency: if complete {
                    last.map(|d| Duration::from_nanos(d.nanos()))
                } else {
                    None
                },
            });
        }

        // Repair between rounds so the next round starts from a full
        // fleet: restart kills, reconnect severs, let repairs drain.
        for g in &round.groups {
            let v = g.victim as ProcId;
            match round.class {
                FaultClass::Kill => world.restart_node(v, &params),
                FaultClass::Sever => world.fault_mut().reconnect(v),
                FaultClass::Signal => {}
            }
        }
        world.run(SimDuration::from_secs(5));
    }
    out
}

/// Per-class latency samples (milliseconds) from sim outcomes, plus the
/// count of groups that missed the budget.
pub fn by_class(outcomes: &[SimGroupOutcome]) -> HashMap<FaultClass, (Vec<f64>, usize)> {
    let mut m: HashMap<FaultClass, (Vec<f64>, usize)> = HashMap::new();
    for o in outcomes {
        let e = m.entry(o.class).or_default();
        match o.latency {
            Some(d) => e.0.push(d.as_secs_f64() * 1e3),
            None => e.1 += 1,
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::plan;

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
        let outcomes = run_reference(&p, &rounds);
        assert_eq!(outcomes.len(), 4, "2 classes x 1 round x 2 groups");
        let per = by_class(&outcomes);
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
