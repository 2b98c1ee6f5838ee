//! Chaos-token replay against live processes.
//!
//! A `chaos-v1;seed=…;n=…;gs=…;script=…` repro token (DESIGN.md §7) names
//! a deterministic simulated scenario. This module replays the *same*
//! schedule against a real [`Cluster`]: the same slot→node mapping the sim
//! runner uses (`root = 0`, members from [`group_members`]), applied at the
//! offsets of the sim runner's own expansion ([`desugar`]) on the wall
//! clock (optionally time-scaled). Every op goes through the sim runner's
//! own [`apply`] on the cluster's [`Fleet`] implementation: network faults
//! reach the `FaultPlane` the proxies judge frames by, crash, restart and
//! signal become SIGKILL, respawn and stdin `signal`, and a loss-ramp step
//! the proxies' ambient loss.
//!
//! The cross-check is one-directional by design: **if the sim run burns
//! the group, every surviving live participant must report `NOTIFIED`,
//! exactly once, within the detection budget.** The converse is not
//! asserted — live TCP
//! surfaces resets in milliseconds where the simulator's silent-stop model
//! waits out ping timeouts, so a live burn with no sim burn is expected
//! for some scripts, never the reverse.

use std::collections::HashSet;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use fuse_harness::chaos::{
    apply, desugar, group_members, parse_token, run_script, ChaosConfig, ChaosOp, Fleet, RtOp,
};
use fuse_sim::ProcId;

use crate::cluster::{Cluster, ClusterError, CREATE_TIMEOUT};

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
    /// Whether the one-directional cross-check holds and no live
    /// participant was notified twice.
    pub consistent: bool,
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
    let members = group_members(cfg.n, cfg.group_size);
    let mut participants: Vec<ProcId> = vec![0];
    participants.extend(members.iter().copied());
    let members: Vec<usize> = members.iter().map(|&p| p as usize).collect();

    let mut args = timing_args(&cfg);
    args.extend(extra_args.iter().cloned());
    let mut cluster = Cluster::launch(cfg.n, node_bin, cfg.seed, &args)?;
    let gid = cluster.create_group(0, &members, CREATE_TIMEOUT)?;
    progress(&format!("live: created {gid} over {} nodes", cfg.n));

    let mut crashed: HashSet<ProcId> = HashSet::new();
    let t0 = Instant::now();
    for (at, op) in desugar(&script) {
        let at = Duration::from_nanos(at.nanos());
        let due = t0 + at.mul_f64(time_scale.max(0.001));
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let node = |slot: u8| participants[slot as usize];
        let acted = apply(&mut cluster, op, node, Some(&gid))?;
        match op {
            RtOp::Op(ChaosOp::Crash { slot }) if acted => crashed.insert(node(slot)),
            RtOp::Op(ChaosOp::Restart { slot }) if acted => crashed.remove(&node(slot)),
            _ => false,
        };
        if let RtOp::Op(op) = &op {
            progress(&format!("live: applied {}", op.to_text()));
        }
    }

    // If the sim burned, every live survivor must hear within the budget.
    let budget = Duration::from_nanos(cfg.detection_budget.nanos()).min(max_wait);
    let mut heard = Vec::new();
    let mut live_all = true;
    for &pnode in &participants {
        if crashed.contains(&pnode) {
            continue;
        }
        let deadline = cluster.now_ns() + budget.as_nanos() as u64;
        match cluster.wait_notified(pnode, &gid, deadline) {
            Some(_) => heard.push(pnode),
            None => live_all = false,
        }
    }
    // Exactly once: a survivor notified twice fails the cross-check, burn
    // or no burn.
    let notes: Vec<_> = heard
        .into_iter()
        .map(|p| (p as usize, cluster.notifications(p as usize, &gid)))
        .collect();
    let once = notes.iter().all(|(_, n)| n.len() == 1);
    let live_notified = notes
        .into_iter()
        .map(|(p, n)| (p, n[0].reason.clone()))
        .collect();
    cluster.shutdown();

    let consistent = once && (!sim.burned || live_all);
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

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_harness::chaos::{format_token, ChaosScript, Phase};
    use fuse_sim::SimDuration;

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
