//! The scripted load scenario shared by the live cluster and the sim
//! reference run.
//!
//! Both back-ends consume the *same* deterministic plan — groups with
//! randomized memberships, one designated victim per group, one fault
//! class per round — so the live-vs-sim latency deltas compare identical
//! workloads, not merely identically-parameterized ones.
//!
//! Victims within a round are sampled **without replacement**: node-level
//! faults (kill, sever) may burn bystander groups that happen to include
//! another group's victim, but every group still contains at least one
//! faulted member, so "kill → last member notified" is well-defined for
//! each group from the round's single fault instant.

use std::time::Duration;

use fuse_harness::chaos::ChaosOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault class driven against live processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// SIGKILL the victim process (reader EOF propagates through the
    /// proxies — the paper's fail-fast TCP-reset path).
    Kill,
    /// Disconnect the victim in the proxies' fault plane (every stream
    /// touching it killed, new ones refused): the process lives but is
    /// unreachable.
    Sever,
    /// The victim's application calls `signal <group>` (the explicit
    /// `SignalFailure` path — no process or network fault at all).
    Signal,
}

impl FaultClass {
    /// Stable lowercase label (JSON section keys, CLI values).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Kill => "kill",
            FaultClass::Sever => "sever",
            FaultClass::Signal => "signal",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Result<FaultClass, String> {
        match s {
            "kill" => Ok(FaultClass::Kill),
            "sever" => Ok(FaultClass::Sever),
            "signal" => Ok(FaultClass::Signal),
            other => Err(format!(
                "unknown fault class `{other}` (expected kill|sever|signal)"
            )),
        }
    }

    /// The chaos op that fires this class at a group's victim (slot 0).
    pub fn op(self) -> ChaosOp {
        match self {
            FaultClass::Kill => ChaosOp::Crash { slot: 0 },
            FaultClass::Sever => ChaosOp::Disconnect { slot: 0 },
            FaultClass::Signal => ChaosOp::Signal { slot: 0 },
        }
    }

    /// The op that undoes [`op`](Self::op) before the next round, if any.
    pub fn repair(self) -> Option<ChaosOp> {
        match self {
            FaultClass::Kill => Some(ChaosOp::Restart { slot: 0 }),
            FaultClass::Sever => Some(ChaosOp::Reconnect { slot: 0 }),
            FaultClass::Signal => None,
        }
    }

    /// Every class, in report order.
    pub fn all() -> &'static [FaultClass] {
        &[FaultClass::Kill, FaultClass::Sever, FaultClass::Signal]
    }
}

/// Scenario shape: fleet size, load, fault schedule, network conditioning.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Fleet size (paper scale: 10 virtual nodes).
    pub nodes: usize,
    /// Concurrent groups per round.
    pub groups: usize,
    /// Measurement rounds per fault class.
    pub rounds: usize,
    /// Master seed: drives memberships, victims, and proxy jitter.
    pub seed: u64,
    /// Kill → last-member-notified SLO (the 480 s bounded-detection
    /// budget from DESIGN.md §7 unless overridden).
    pub budget: Duration,
    /// Symmetric per-link one-way delay added by every proxy.
    pub delay_ms: u64,
    /// Bernoulli per-frame loss percentage added by every proxy.
    pub loss_pct: u8,
}

impl ScenarioParams {
    /// Paper-scale defaults: N=10, 5 groups × 4 rounds per class, 480 s
    /// budget, clean network.
    pub fn paper_scale(seed: u64) -> ScenarioParams {
        ScenarioParams {
            nodes: 10,
            groups: 5,
            rounds: 4,
            seed,
            budget: Duration::from_secs(480),
            delay_ms: 0,
            loss_pct: 0,
        }
    }

    /// Refuses a shape that [`plan`] or the simulator reference run cannot
    /// serve: fewer than 4 nodes (a group has 3–5 participants), more
    /// groups than nodes (victims are sampled without replacement) or a
    /// loss of 100 % or more (the simulator's loss rate is below 1).
    pub fn check(&self) -> Result<(), String> {
        if self.nodes < 4 {
            return Err(format!(
                "need at least 4 nodes for 3-participant groups, got {}",
                self.nodes
            ));
        }
        if self.groups > self.nodes {
            return Err(format!(
                "victims are sampled without replacement: groups ({}) must be <= nodes ({})",
                self.groups, self.nodes
            ));
        }
        if self.loss_pct >= 100 {
            return Err(format!(
                "loss percent must be below 100, got {}",
                self.loss_pct
            ));
        }
        Ok(())
    }
}

/// One group in a round: a root, its member list, and which participant
/// the fault targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// Creating node.
    pub root: usize,
    /// Non-root members (the root participates implicitly).
    pub members: Vec<usize>,
    /// The fault's target — always one of `members` (never the root, so
    /// every group keeps a surviving root whose notification we can
    /// observe even under `kill`).
    pub victim: usize,
}

impl GroupPlan {
    /// Root plus members: everyone holding group state.
    pub fn participants(&self) -> Vec<usize> {
        let mut p = vec![self.root];
        p.extend(self.members.iter().copied());
        p
    }

    /// Participants expected to survive and report `NOTIFIED` after the
    /// round's fault instant, given the set of victims faulted that round.
    pub fn survivors(&self, class: FaultClass, round_victims: &[usize]) -> Vec<usize> {
        self.participants()
            .into_iter()
            .filter(|p| class == FaultClass::Signal || !round_victims.contains(p))
            .collect()
    }
}

/// One fault round: a class and the groups measured under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPlan {
    /// The fault applied to every group's victim at one instant.
    pub class: FaultClass,
    /// The round's groups.
    pub groups: Vec<GroupPlan>,
}

impl RoundPlan {
    /// This round's victims, deduplicated (they are sampled without
    /// replacement, so this is just the per-group victim list).
    pub fn victims(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.victim).collect()
    }
}

/// Draws `k` distinct values from `0..n`, excluding `exclude`.
fn sample_distinct(rng: &mut StdRng, n: usize, k: usize, exclude: &[usize]) -> Vec<usize> {
    assert!(k + exclude.len() <= n, "not enough nodes to sample from");
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let x = rng.gen_range(0..n);
        if !exclude.contains(&x) && !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked
}

/// Builds the full deterministic schedule: `rounds` rounds per class in
/// `classes`, each with `groups` groups of 3–5 participants.
///
/// # Panics
/// If `p` fails [`ScenarioParams::check`].
pub fn plan(p: &ScenarioParams, classes: &[FaultClass]) -> Vec<RoundPlan> {
    if let Err(e) = p.check() {
        panic!("{e}");
    }
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut rounds = Vec::new();
    for &class in classes {
        for _ in 0..p.rounds {
            // Victims first, without replacement, so concurrent faults
            // never double-target one process.
            let victims = sample_distinct(&mut rng, p.nodes, p.groups, &[]);
            let groups = victims
                .iter()
                .map(|&victim| {
                    let root = sample_distinct(&mut rng, p.nodes, 1, &[victim])[0];
                    // 3–5 participants total: victim + root + 1..=3 more.
                    let extra = rng.gen_range(1..=3usize.min(p.nodes - 2));
                    let mut members = vec![victim];
                    members.extend(sample_distinct(&mut rng, p.nodes, extra, &[victim, root]));
                    GroupPlan {
                        root,
                        members,
                        victim,
                    }
                })
                .collect();
            rounds.push(RoundPlan { class, groups });
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ScenarioParams {
        ScenarioParams {
            nodes: 10,
            groups: 5,
            rounds: 3,
            seed: 42,
            budget: Duration::from_secs(480),
            delay_ms: 0,
            loss_pct: 0,
        }
    }

    #[test]
    fn plan_is_deterministic_and_well_formed() {
        let p = quick();
        let a = plan(&p, FaultClass::all());
        let b = plan(&p, FaultClass::all());
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.len(), 9, "3 rounds x 3 classes");
        for round in &a {
            assert_eq!(round.groups.len(), 5);
            let victims = round.victims();
            let mut dedup = victims.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), victims.len(), "victims distinct per round");
            for g in &round.groups {
                assert!(g.members.contains(&g.victim), "victim is a member");
                assert_ne!(g.root, g.victim, "root is never the victim");
                let n = g.participants().len();
                assert!((3..=5).contains(&n), "3-5 participants, got {n}");
                let mut parts = g.participants();
                parts.sort_unstable();
                parts.dedup();
                assert_eq!(parts.len(), n, "participants distinct");
                assert!(parts.iter().all(|&x| x < p.nodes));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = plan(&quick(), &[FaultClass::Kill]);
        let mut p2 = quick();
        p2.seed = 43;
        let b = plan(&p2, &[FaultClass::Kill]);
        assert_ne!(a, b);
    }

    #[test]
    fn survivors_exclude_round_victims_except_for_signal() {
        let g = GroupPlan {
            root: 0,
            members: vec![3, 5],
            victim: 3,
        };
        let vs = vec![3, 5];
        assert_eq!(g.survivors(FaultClass::Kill, &vs), vec![0]);
        assert_eq!(g.survivors(FaultClass::Signal, &vs), vec![0, 3, 5]);
    }

    #[test]
    fn labels_round_trip() {
        for &c in FaultClass::all() {
            assert_eq!(FaultClass::parse(c.label()), Ok(c));
        }
        assert!(FaultClass::parse("melt").is_err());
    }
}
