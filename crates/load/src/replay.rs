//! Chaos-token replay against live processes.
//!
//! A `chaos-v1;seed=…;n=…;gs=…;script=…` repro token (DESIGN.md §7) names
//! a deterministic simulated scenario. This module replays the *same*
//! schedule against a real [`Cluster`]: the same slot→node mapping the sim
//! runner uses (`root = 0`, members from [`group_members`]), each chaos op
//! translated to its live equivalent (SIGKILL, proxy sever, proxy
//! blackhole/loss, stdin `signal`), applied at the offsets of the sim
//! runner's own expansion ([`desugar`]) on the wall clock (optionally
//! time-scaled).
//!
//! The cross-check is one-directional by design: **if the sim run burns
//! the group, every surviving live participant must report `NOTIFIED`
//! within the detection budget.** The converse is not asserted — live TCP
//! surfaces resets in milliseconds where the simulator's silent-stop model
//! waits out ping timeouts, so a live burn with no sim burn is expected
//! for some scripts, never the reverse.

use std::collections::HashSet;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use fuse_harness::chaos::{
    desugar, group_members, parse_token, run_script, ChaosConfig, ChaosOp, RtOp,
};

use crate::cluster::{Cluster, ClusterError};

/// A replay's outcome, live next to sim.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The token replayed.
    pub token: String,
    /// Whether the simulated run burned the group.
    pub sim_burned: bool,
    /// Whether every surviving live participant reported `NOTIFIED`.
    pub live_all_notified: bool,
    /// Live participants (cluster node indices) that reported, with their
    /// notification reasons.
    pub live_notified: Vec<(usize, String)>,
    /// Whether the one-directional cross-check holds.
    pub consistent: bool,
}

/// Replays one wall-clock op against the cluster. `cells`/`holes` carry
/// partition/blackhole state across ops so the two fault families compose
/// (a link is black iff partitioned apart *or* explicitly holed).
struct LiveFaults {
    cells: Vec<u32>,
    holes: HashSet<(usize, usize)>,
}

impl LiveFaults {
    fn new(n: usize) -> LiveFaults {
        LiveFaults {
            cells: vec![0; n],
            holes: HashSet::new(),
        }
    }

    fn reapply(&self, cluster: &Cluster) {
        for i in 0..cluster.n {
            for j in 0..cluster.n {
                if i == j {
                    continue;
                }
                let black = self.cells[i] != self.cells[j] || self.holes.contains(&(i, j));
                cluster.set_link(i, j, |pol| pol.blackhole = black);
            }
        }
    }
}

/// Replays `token` against a fresh live cluster, running the sim reference
/// alongside, and checks the one-directional burn consistency.
///
/// `time_scale` compresses the script's offsets (0.1 = 10× faster); the
/// detection budget itself is **not** scaled — burns are allowed the full
/// sim budget's wall-clock equivalent, capped by `max_wait`. `extra_args`
/// is forwarded to every node (e.g. [`fast_timing_args`] to compress the
/// nodes' detection timers to match a small `max_wait`).
///
/// [`fast_timing_args`]: crate::cluster::fast_timing_args
pub fn replay_token(
    token: &str,
    node_bin: PathBuf,
    time_scale: f64,
    max_wait: Duration,
    extra_args: &[String],
    mut progress: impl FnMut(&str),
) -> Result<ReplayOutcome, ClusterError> {
    let (cfg, script) = parse_token(token).map_err(|e| format!("bad token: {e}"))?;

    // Sim reference first: cheap, deterministic, tells us what to expect.
    let sim = run_script(&cfg, &script);
    progress(&format!(
        "sim: burned={} notified={} violations={}",
        sim.burned,
        sim.notified.len(),
        sim.violations.len()
    ));

    // Same slot mapping as the sim runner: root is node 0, members come
    // from the deterministic stride walk.
    let members: Vec<usize> = group_members(cfg.n, cfg.group_size)
        .iter()
        .map(|&p| p as usize)
        .collect();
    let mut participants = vec![0usize];
    participants.extend(members.iter().copied());

    let mut args = timing_args(&cfg);
    args.extend(extra_args.iter().cloned());
    let mut cluster = Cluster::launch(cfg.n, node_bin, cfg.seed, &args)?;
    let gid = cluster.create_group(0, &members, Duration::from_secs(30))?;
    progress(&format!("live: created {gid} over {} nodes", cfg.n));

    let mut faults = LiveFaults::new(cfg.n);
    let mut crashed: HashSet<usize> = HashSet::new();
    let t0 = Instant::now();
    for (at, op) in desugar(&script) {
        let at = Duration::from_nanos(at.nanos());
        let due = t0 + at.mul_f64(time_scale.max(0.001));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        apply_live_op(
            &mut cluster,
            &participants,
            &gid,
            &op,
            &mut faults,
            &mut crashed,
        )?;
        if let RtOp::Op(op) = &op {
            progress(&format!("live: applied {}", op.to_text()));
        }
    }

    // If the sim burned, every live survivor must hear within the budget.
    let budget = Duration::from_nanos(cfg.detection_budget.nanos()).min(max_wait);
    let mut live_notified = Vec::new();
    let mut live_all = true;
    for &pnode in &participants {
        if crashed.contains(&pnode) {
            continue;
        }
        match cluster.wait_notified(pnode, &gid, budget) {
            Ok(n) => live_notified.push((pnode, n.reason)),
            Err(_) => live_all = false,
        }
    }
    cluster.shutdown();

    let consistent = !sim.burned || live_all;
    Ok(ReplayOutcome {
        token: token.to_string(),
        sim_burned: sim.burned,
        live_all_notified: live_all,
        live_notified,
        consistent,
    })
}

/// Node timing flags matching the chaos config's repair override, if set.
fn timing_args(cfg: &ChaosConfig) -> Vec<String> {
    let mut args = Vec::new();
    if let Some(mrt) = cfg.member_repair_timeout_s {
        args.push("--member-repair-secs".into());
        args.push(mrt.to_string());
    }
    args
}

fn apply_live_op(
    cluster: &mut Cluster,
    participants: &[usize],
    gid: &str,
    op: &RtOp,
    faults: &mut LiveFaults,
    crashed: &mut HashSet<usize>,
) -> Result<(), ClusterError> {
    let node = |slot: u8| participants[slot as usize];
    match op {
        RtOp::GlobalLoss(rate) => {
            let rate = *rate;
            cluster.set_all_links(move |pol| pol.drop_pct = rate);
        }
        RtOp::Op(op) => match *op {
            ChaosOp::Crash { slot } => {
                let p = node(slot);
                if cluster.is_up(p) {
                    cluster.kill(p)?;
                    crashed.insert(p);
                }
            }
            ChaosOp::Restart { slot } => {
                let p = node(slot);
                if !cluster.is_up(p) {
                    cluster.restart(p)?;
                    crashed.remove(&p);
                }
            }
            ChaosOp::Disconnect { slot } => {
                cluster.set_node_links(node(slot), |pol| pol.severed = true);
            }
            ChaosOp::Reconnect { slot } => {
                cluster.set_node_links(node(slot), |pol| pol.severed = false);
            }
            ChaosOp::Signal { slot } => {
                let p = node(slot);
                if cluster.is_up(p) {
                    cluster.control(p, &format!("signal {gid}"))?;
                }
            }
            ChaosOp::PartitionOff { slot } => {
                faults.cells[node(slot)] = 1;
                faults.reapply(cluster);
            }
            ChaosOp::PartitionHalf { pct } => {
                let cut = cluster.n * usize::from(pct) / 100;
                for (i, cell) in faults.cells.iter_mut().enumerate() {
                    if i >= cut {
                        *cell = 1;
                    }
                }
                faults.reapply(cluster);
            }
            ChaosOp::HealPartitions => {
                faults.cells.iter_mut().for_each(|c| *c = 0);
                faults.reapply(cluster);
            }
            ChaosOp::Blackhole { from, to } => {
                faults.holes.insert((node(from), node(to)));
                faults.reapply(cluster);
            }
            ChaosOp::ClearBlackhole { from, to } => {
                faults.holes.remove(&(node(from), node(to)));
                faults.reapply(cluster);
            }
            ChaosOp::LinkLoss { from, to, pct } => {
                let rate = f64::from(pct) / 100.0;
                cluster.set_link(node(from), node(to), |pol| pol.drop_pct = rate);
            }
            ChaosOp::AdversaryDrop { class } => {
                let label = class.label().to_string();
                cluster.set_all_links(move |pol| {
                    if !pol.drop_classes.contains(&label) {
                        pol.drop_classes.push(label.clone());
                    }
                });
            }
            ChaosOp::AdversaryClear => {
                cluster.set_all_links(|pol| pol.drop_classes.clear());
            }
            // Desugared before this point.
            ChaosOp::Churn { .. } | ChaosOp::LossRamp { .. } => unreachable!(),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_harness::chaos::{format_token, ChaosScript, Phase};
    use fuse_sim::SimDuration;

    #[test]
    fn live_faults_compose_partitions_and_holes() {
        let mut f = LiveFaults::new(4);
        f.cells[3] = 1;
        f.holes.insert((0, 1));
        assert!(f.cells[0] == f.cells[1]);
        // (0,1) holed, (0,3) partitioned, (1,2) clean.
        let black =
            |i: usize, j: usize| -> bool { f.cells[i] != f.cells[j] || f.holes.contains(&(i, j)) };
        assert!(black(0, 1));
        assert!(!black(1, 0), "holes are directed");
        assert!(black(0, 3));
        assert!(black(3, 0), "partitions are symmetric");
        assert!(!black(1, 2));
    }

    #[test]
    fn token_round_trip_matches_harness_grammar() {
        let cfg = ChaosConfig::new(7, 12, 3);
        let script = ChaosScript::new(vec![Phase {
            at: SimDuration::from_secs(2),
            op: ChaosOp::Crash { slot: 1 },
        }]);
        let token = format_token(&cfg, &script);
        let (cfg2, script2) = parse_token(&token).unwrap();
        assert_eq!(cfg2.n, 12);
        assert_eq!(script2, script);
    }
}
