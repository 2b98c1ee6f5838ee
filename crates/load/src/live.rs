//! Drives a planned scenario against a live [`Cluster`]: create the
//! round's groups, fire the fault class at one wall-clock instant, collect
//! every surviving participant's `NOTIFIED … t_ns=` stamp (exactly one
//! each), and repair the fleet before the next round.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fuse_sim::ProcId;

use crate::cluster::{notified_once, wall_now_ns, Cluster, ClusterError};
use crate::proxy::Ambient;
use crate::scenario::{FaultClass, RoundPlan, ScenarioParams};

/// How long a single group creation may take before we retry it.
const CREATE_TIMEOUT: Duration = Duration::from_secs(30);
/// Creation attempts under lossy conditioning before we count a miss.
const CREATE_ATTEMPTS: usize = 3;

/// Per-class live samples: `(latency_ms per fully-notified group, groups
/// where some survivor missed the budget)`.
pub type LiveSamples = HashMap<FaultClass, (Vec<f64>, usize)>;

/// Applies the scenario's ambient network conditioning (delay/loss) to
/// every proxied link.
pub fn condition_links(cluster: &Cluster, p: &ScenarioParams) {
    cluster.set_ambient(Ambient {
        loss: f64::from(p.loss_pct) / 100.0,
        delay: Duration::from_millis(p.delay_ms),
    });
}

/// Runs every planned round against the cluster, returning per-class
/// samples. `progress` receives one human line per round.
pub fn run_rounds(
    cluster: &mut Cluster,
    p: &ScenarioParams,
    rounds: &[RoundPlan],
    mut progress: impl FnMut(&str),
) -> Result<LiveSamples, ClusterError> {
    let mut samples: LiveSamples = HashMap::new();
    for (rno, round) in rounds.iter().enumerate() {
        // Create this round's groups (with bounded retries: ambient loss
        // can legitimately fail a create; a create that keeps failing is
        // scored as a miss, not a harness error).
        let mut gids: Vec<Option<String>> = Vec::new();
        for g in &round.groups {
            let mut gid = None;
            for _ in 0..CREATE_ATTEMPTS {
                match cluster.create_group(g.root, &g.members, CREATE_TIMEOUT) {
                    Ok(id) => {
                        gid = Some(id);
                        break;
                    }
                    Err(_) => continue,
                }
            }
            gids.push(gid);
        }

        // One fault instant for the whole round.
        let victims = round.victims();
        let t0_ns = wall_now_ns();
        for (g, gid) in round.groups.iter().zip(&gids) {
            match round.class {
                FaultClass::Kill => cluster.kill(g.victim)?,
                FaultClass::Sever => cluster.faults(|plane| plane.disconnect(g.victim as ProcId)),
                FaultClass::Signal => {
                    if let Some(gid) = gid {
                        cluster.control(g.victim, &format!("signal {gid}"))?;
                    }
                }
            }
        }

        // Collect: every survivor of every group must print NOTIFIED for
        // its gid within the budget (shared deadline across the round).
        // A creation that never succeeded is a miss.
        let deadline = Instant::now() + p.budget;
        let mut latencies: Vec<Option<f64>> = Vec::new();
        for (g, gid) in round.groups.iter().zip(&gids) {
            let last_ms = |gid: &String| {
                g.survivors(round.class, &victims)
                    .into_iter()
                    .try_fold(0.0f64, |ms, s| {
                        let left = deadline.saturating_duration_since(Instant::now());
                        let n = cluster.wait_notified(s, gid, left).ok()?;
                        // Clamp: a survivor may stamp NOTIFIED a hair
                        // before our wall read of the fault instant.
                        Some(ms.max(n.t_ns.saturating_sub(t0_ns) as f64 / 1e6))
                    })
            };
            latencies.push(gid.as_ref().and_then(last_ms));
        }
        // Exactly once: a survivor notified twice for its group misses too.
        let entry = samples.entry(round.class).or_default();
        for ((g, gid), ms) in round.groups.iter().zip(&gids).zip(latencies) {
            let once = |gid: &str| {
                g.survivors(round.class, &victims)
                    .into_iter()
                    .all(|s| notified_once(&cluster.notifications(s, gid), gid))
            };
            match (gid, ms) {
                (Some(gid), Some(ms)) if once(gid) => entry.0.push(ms),
                _ => entry.1 += 1,
            }
        }

        // Repair before the next round: restart kills, un-sever links.
        for g in &round.groups {
            match round.class {
                FaultClass::Kill => cluster.restart(g.victim)?,
                FaultClass::Sever => cluster.faults(|plane| plane.reconnect(g.victim as ProcId)),
                FaultClass::Signal => {}
            }
        }
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
