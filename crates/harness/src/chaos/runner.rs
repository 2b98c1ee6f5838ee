//! Executes one chaos script in a fresh deterministic world and checks the
//! paper's invariants. Every op of the [`desugar`]ed script reaches the
//! world through [`apply`] on its [`SimFleet`], the applier the live
//! replay runs the same list with; the runner keeps only its own
//! bookkeeping (crashed participants, signals, the benign claim and the
//! provoking marks), fed from what `apply` reports.
//!
//! A run is a pure function of `(ChaosConfig, ChaosScript)`: the world, the
//! group, every fault and every wait are derived from the config seed, so
//! two runs of the same pair produce bit-identical reports — the property
//! replay tokens rely on.

use fuse_core::FuseId;
use fuse_net::NetConfig;
use fuse_obs::{Aggregates, PhaseMark, ReasonKind};
use fuse_sim::{ProcId, SimDuration, SimTime};
use fuse_util::DetHashSet;

use crate::chaos::fleet::{apply, SimFleet};
use crate::chaos::invariant::{standard_invariants, RunContext, Violation};
use crate::chaos::script::{ChaosOp, ChaosScript};
use crate::world::{World, WorldParams};

/// Parameters of one chaos run. Everything that shapes the trace lives
/// here, so a replay token can carry it.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// World seed (topology, attachment, jitter — everything).
    pub seed: u64,
    /// World size (overlay nodes).
    pub n: usize,
    /// Members in the group under test (excluding the root), 1..=5.
    pub group_size: usize,
    /// Injected-regression knob: overrides the member-side repair give-up
    /// timeout, in seconds. Setting this huge reproduces the "member
    /// assumes the repair answer will arrive" bug class the acceptance
    /// criteria name; `None` runs the honest protocol.
    pub member_repair_timeout_s: Option<u64>,
    /// Budget for every obligated notification, counted from the last
    /// script phase.
    pub detection_budget: SimDuration,
}

/// Extra settle time after the detection window in which burned-group
/// state must drain everywhere: one more link-failure timeout plus a
/// reconcile cycle.
pub(crate) const ORPHAN_GRACE: SimDuration = SimDuration::from_secs(240);

impl ChaosConfig {
    /// Defaults: the detection budget covers the worst honest chain the
    /// protocol can produce — ping period (60 s) + ping timeout (20 s) to
    /// notice a dead link, TCP give-up (~63 s) on a send into the void,
    /// the link-failure timeout (90 s), a member repair wait (60 s) or a
    /// root repair round (120 s) with backoff (≤40 s), plus propagation
    /// margin — rounded up to 480 s.
    pub fn new(seed: u64, n: usize, group_size: usize) -> Self {
        assert!((1..=5).contains(&group_size), "group_size must be 1..=5");
        assert!(n >= 12, "world too small for a spread group");
        ChaosConfig {
            seed,
            n,
            group_size,
            member_repair_timeout_s: None,
            detection_budget: SimDuration::from_secs(480),
        }
    }

    fn world_params(&self) -> WorldParams {
        let mut p = WorldParams::new(self.n, self.seed, NetConfig::simulator());
        // Small test topology (same structure as the wide-area default);
        // matches the integration tests' world.
        p.topo.n_as = 24;
        // The injected-regression knob is a *deliberately* broken value
        // (members that never give up on repair), which the builder's
        // validation would rightly refuse — set it on the built config so
        // fault injection can still manufacture invalid configurations.
        if let Some(s) = self.member_repair_timeout_s {
            p.fuse.member_repair_timeout = SimDuration::from_secs(s);
        }
        p
    }
}

/// The outcome of one run: violations plus a fingerprint of the full
/// notification trace (bit-identical across replays of the same token).
///
/// `PartialEq` only (no `Eq`): [`Aggregates`] carries f64 latency
/// reservoirs. Equality is still exact — reservoirs compare as multisets
/// of the bit-identical samples the deterministic kernel produced — so
/// the replay tests' `==` remains a meaningful assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Every invariant breach (empty = the run passed).
    pub violations: Vec<Violation>,
    /// FNV-1a fold over the complete notification trace, the event count
    /// and the final clock.
    pub fingerprint: u64,
    /// Whether the group burned (expected from the script, or observed).
    pub burned: bool,
    /// Kernel events executed over the whole run.
    pub events_executed: u64,
    /// Simulated end-of-run instant.
    pub end: SimTime,
    /// Per-participant notification counts, in slot order.
    pub notified: Vec<(ProcId, usize)>,
    /// Per-participant notification reasons, typed, in slot and arrival
    /// order.
    pub reasons: Vec<(ProcId, Vec<ReasonKind>)>,
    /// Merged observation-plane aggregates: every live node's recorder
    /// plus the network's, with the script's
    /// provoking phases marked and each notification's latency attributed
    /// to the phase that provoked it (class `"kill"`, `"signal"`,
    /// `"sever"`, `"partition"`, `"blackhole"`, `"loss"`, `"adversary"`
    /// or `"spontaneous"`).
    pub obs: Aggregates,
}

/// Runtime op: one entry of a script desugared by [`desugar`].
#[derive(Debug, Clone, Copy)]
pub enum RtOp {
    /// A script op other than `Churn` and `LossRamp`.
    Op(ChaosOp),
    /// Set the global per-link loss rate (one step of a loss ramp).
    GlobalLoss(f64),
}

/// The group layout a script's slots resolve against: slot 0 is the root,
/// slot `k` the k-th member, spread over the ring exactly like the
/// integration tests spread theirs (stride 5). When `gcd(n, 5) > 1` the
/// stride orbit is smaller than the group, so the remainder fills with the
/// lowest unused ids — the walk always terminates.
pub fn group_members(n: usize, group_size: usize) -> Vec<ProcId> {
    assert!(group_size < n, "group larger than the world");
    let mut members = Vec::with_capacity(group_size);
    let mut x = 0usize;
    loop {
        x = (x + 5) % n;
        if x == 0 {
            break; // Stride orbit exhausted (n divisible by 5).
        }
        members.push(x as ProcId);
        if members.len() == group_size {
            return members;
        }
    }
    let mut p: ProcId = 1;
    while members.len() < group_size {
        if !members.contains(&p) {
            members.push(p);
        }
        p += 1;
    }
    members
}

/// The script on an absolute-offset timeline, in time order (equal offsets
/// keep script order): churn splits into crash + restart, loss ramps into
/// steps. The sim runner and the live replayer both execute this one
/// expansion.
pub fn desugar(script: &ChaosScript) -> Vec<(SimDuration, RtOp)> {
    let mut ops: Vec<(SimDuration, RtOp)> = Vec::new();
    for ph in &script.phases {
        match ph.op {
            ChaosOp::Churn { slot, down_s } => {
                ops.push((ph.at, RtOp::Op(ChaosOp::Crash { slot })));
                ops.push((
                    ph.at + SimDuration::from_secs(u64::from(down_s)),
                    RtOp::Op(ChaosOp::Restart { slot }),
                ));
            }
            ChaosOp::LossRamp { pct, steps, over_s } => {
                let steps = steps.max(1);
                for i in 1..=u64::from(steps) {
                    // Saturating: a token may carry an absurd `over_s`; a
                    // far-future step beats an arithmetic overflow panic.
                    let frac_at = SimDuration(
                        SimDuration::from_secs(u64::from(over_s))
                            .nanos()
                            .saturating_mul(i - 1)
                            / u64::from(steps),
                    );
                    let rate = f64::from(pct) / 100.0 * i as f64 / f64::from(steps);
                    ops.push((ph.at + frac_at, RtOp::GlobalLoss(rate)));
                }
            }
            op => ops.push((ph.at, RtOp::Op(op))),
        }
    }
    ops.sort_by_key(|&(at, _)| at); // Stable: equal times keep script order.
    ops
}

/// Runs `script` against a fresh world and checks the standard invariants.
pub fn run_script(cfg: &ChaosConfig, script: &ChaosScript) -> RunReport {
    run_script_world(cfg, script).0
}

/// [`run_script`], also handing back the world the script ran in, for
/// callers that inspect its end state (per-node recorders, stacks).
pub fn run_script_world(cfg: &ChaosConfig, script: &ChaosScript) -> (RunReport, World) {
    let params = cfg.world_params();
    let mut world = World::build(&params);
    // Reject scripts naming slots outside the group up front: silently
    // folding them onto other victims (modulo) would run a different
    // scenario than the script says — the exact bias class the ported
    // proptest eliminated.
    for ph in &script.phases {
        if let Some(s) = ph.op.max_slot() {
            if usize::from(s) > cfg.group_size {
                let report = RunReport {
                    violations: vec![Violation {
                        invariant: "script-slots",
                        detail: format!(
                            "phase `{}` names slot {s} but the group only has slots 0..={}",
                            ph.to_text(),
                            cfg.group_size
                        ),
                    }],
                    fingerprint: 0,
                    burned: false,
                    events_executed: 0,
                    end: SimTime::ZERO,
                    notified: Vec::new(),
                    reasons: Vec::new(),
                    obs: Aggregates::default(),
                };
                return (report, world);
            }
        }
    }

    world.run(SimDuration::from_secs(2));

    let members = group_members(cfg.n, cfg.group_size);
    let root: ProcId = 0;
    let mut participants = vec![root];
    participants.extend(members.iter().copied());
    let slot_proc = |slot: u8| -> ProcId { participants[slot as usize] };

    let (created, _latency) = world.create_group_blocking(root, &members);
    let id: FuseId = match created {
        Ok(h) => h.id,
        Err(e) => {
            // No faults are active yet; a failed creation is itself a
            // finding.
            let report = RunReport {
                violations: vec![Violation {
                    invariant: "group-creation",
                    detail: format!("creation failed with {e:?} before any fault was injected"),
                }],
                fingerprint: 0,
                burned: false,
                events_executed: world.events_executed(),
                end: world.now(),
                notified: Vec::new(),
                reasons: Vec::new(),
                obs: world.obs_aggregates(),
            };
            return (report, world);
        }
    };

    let t0 = world.now();
    let ops = desugar(script);
    let mut ever_crashed: DetHashSet<ProcId> = DetHashSet::default();
    let mut signaled = false;
    let mut t_last = t0;
    // Benign tracking for the false-suspicion invariant: the run stays
    // benign while every applied op is provably harmless to participant
    // connectivity — clearing the adversary, or healing partitions that
    // were never installed. Anything else (a crash, loss, a partition, a
    // content drop) forfeits the benign claim for the whole run.
    let mut benign = true;
    // Provoking-phase timeline for latency attribution: every applied
    // fault that can plausibly burn the group is marked with a class
    // label, and a notification's latency is measured from the latest
    // mark at or before it (`"spontaneous"` if none precedes it).
    let mut provoking: Vec<(SimTime, &'static str)> = Vec::new();
    let mut fleet = SimFleet { world, params };
    for &(at, op) in &ops {
        let when = t0 + at;
        fleet.world.sim.run_until(when);
        t_last = t_last.max(when);
        benign &= match op {
            RtOp::GlobalLoss(rate) => rate <= 0.0,
            RtOp::Op(op) => matches!(op, ChaosOp::AdversaryClear | ChaosOp::HealPartitions),
        };
        let slo_class = match op {
            RtOp::GlobalLoss(rate) if rate > 0.0 => Some("loss"),
            RtOp::GlobalLoss(_) => None,
            RtOp::Op(op) => match op {
                ChaosOp::Crash { .. } => Some("kill"),
                ChaosOp::Signal { .. } => Some("signal"),
                ChaosOp::Disconnect { .. } => Some("sever"),
                ChaosOp::PartitionOff { .. } | ChaosOp::PartitionHalf { .. } => Some("partition"),
                ChaosOp::Blackhole { .. } => Some("blackhole"),
                ChaosOp::LinkLoss { .. } => Some("loss"),
                ChaosOp::AdversaryDrop { .. } => Some("adversary"),
                _ => None,
            },
        };
        if let Some(c) = slo_class {
            provoking.push((when, c));
        }
        let Ok(acted) = apply(&mut fleet, op, slot_proc, Some(&id));
        match op {
            RtOp::Op(ChaosOp::Crash { slot }) if acted => {
                ever_crashed.insert(slot_proc(slot));
            }
            RtOp::Op(ChaosOp::Signal { .. }) => signaled |= acted,
            _ => {}
        }
    }
    let mut world = fleet.world;

    // Terminal fault state decides whether the script *must* burn the
    // group: a participant left dead, unplugged or partitioned away from
    // another participant, or an explicit signal. Transient faults (healed
    // blackholes, loss) may or may not burn — for those, observation
    // decides.
    let fault = world.fault();
    // Root is itself a participant, so any participant in a different cell
    // than the root means some participant pair is split.
    let cross_partitioned = participants
        .iter()
        .any(|&p| fault.partition_of(p) != fault.partition_of(root));
    let expect_burn = signaled
        || participants.iter().any(|p| ever_crashed.contains(p))
        || participants.iter().any(|&p| fault.is_disconnected(p))
        || cross_partitioned;

    let required: Vec<ProcId> = participants
        .iter()
        .copied()
        .filter(|p| !ever_crashed.contains(p))
        .collect();
    let deadline = t_last + cfg.detection_budget;
    world.wait_all_notified(&required, id, deadline.since(world.now()));
    let observed_burn = required.iter().any(|&p| !world.failures(p, id).is_empty());
    let burned = expect_burn || observed_burn;

    if burned {
        // Quiesce: burned-group state must drain from every live node.
        let grace_end = world.now() + ORPHAN_GRACE;
        world.run_until(grace_end, |sim| {
            (0..cfg.n as ProcId).all(|p| !sim.proc(p).is_some_and(|s| s.fuse.knows_group(id)))
        });
    }

    let ctx = RunContext {
        id,
        participants: participants.clone(),
        ever_crashed: ever_crashed.iter().copied().collect(),
        burned,
        benign,
        deadline,
    };
    let mut violations = Vec::new();
    for inv in standard_invariants() {
        violations.extend(inv.check(&world, &ctx));
    }

    let notified: Vec<(ProcId, usize)> = participants
        .iter()
        .map(|&p| (p, world.failures(p, id).len()))
        .collect();
    let reasons: Vec<(ProcId, Vec<ReasonKind>)> = participants
        .iter()
        .map(|&p| {
            let kinds = world
                .notifications(p, id)
                .into_iter()
                .map(|(_, n)| n.reason.kind())
                .collect();
            (p, kinds)
        })
        .collect();
    let fingerprint = fingerprint(&world, id, burned);

    let mut obs = world.obs_aggregates();
    for &(at, label) in &provoking {
        obs.phases.push(PhaseMark {
            at_nanos: at.nanos(),
            label,
        });
    }
    obs.phases.sort_unstable();
    // Latency attribution: only never-crashed participants owe a timely
    // notification (a restarted node rejoins knowing nothing and may hear
    // late through reconcile — that tail is not the detection SLO).
    for &p in &required {
        for (t, _) in world.notifications(p, id) {
            let (base, class) = provoking
                .iter()
                .rev()
                .find(|&&(at, _)| at <= t)
                .map_or((t0, "spontaneous"), |&(at, label)| (at, label));
            obs.add_latency(class, t.since(base).as_secs_f64());
        }
    }

    let report = RunReport {
        violations,
        fingerprint,
        burned,
        events_executed: world.events_executed(),
        end: world.now(),
        notified,
        reasons,
        obs,
    };
    (report, world)
}

/// FNV-1a fold over the run's observable trace: every node's notification
/// sequence (instant, reason, role, seq), the kernel event count and the
/// final clock. Two runs of the same token must produce the same value.
fn fingerprint(world: &World, id: FuseId, burned: bool) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1_0000_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for p in 0..world.infos.len() as ProcId {
        for (t, n) in world.notifications(p, id) {
            fold(u64::from(p));
            fold(t.nanos());
            fold(n.reason.label().len() as u64);
            for b in n.reason.label().bytes() {
                fold(u64::from(b));
            }
            fold(n.seq);
        }
    }
    fold(world.events_executed());
    fold(world.now().nanos());
    fold(u64::from(burned));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::script::Phase;

    #[test]
    fn group_members_terminates_for_every_world_size() {
        // n divisible by 5 shrinks the stride orbit (n=15: {5, 10}); the
        // layout must fall back to unused ids instead of spinning forever.
        assert_eq!(group_members(15, 3), vec![5, 10, 1]);
        assert_eq!(group_members(20, 5), vec![5, 10, 15, 1, 2]);
        // Coprime sizes keep the historical stride layout.
        assert_eq!(group_members(24, 5), vec![5, 10, 15, 20, 1]);
        assert_eq!(group_members(16, 2), vec![5, 10]);
        for n in 12..40 {
            for gs in 1..=5 {
                let m = group_members(n, gs);
                assert_eq!(m.len(), gs);
                let mut d = m.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), gs, "distinct members for n={n} gs={gs}");
                assert!(!m.contains(&0), "root id 0 is never a member");
            }
        }
    }

    #[test]
    fn out_of_range_slots_are_rejected_not_remapped() {
        let cfg = ChaosConfig::new(1, 24, 2);
        let script = ChaosScript::new(vec![Phase {
            at: SimDuration::from_secs(5),
            op: ChaosOp::Crash { slot: 7 },
        }]);
        let report = run_script(&cfg, &script);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "script-slots");
    }

    #[test]
    fn desugar_expands_churn_and_lossramp_in_time_order() {
        let script = ChaosScript::parse("lossramp(10,2,10)@5s+churn(1,3)@2s").unwrap();
        let ops = desugar(&script);
        let ats: Vec<u64> = ops.iter().map(|(d, _)| d.as_secs_f64() as u64).collect();
        assert_eq!(
            ats,
            vec![2, 5, 5, 10],
            "crash@2, step1@5, restart@5, step2@10"
        );
        assert!(matches!(ops[0].1, RtOp::Op(ChaosOp::Crash { slot: 1 })));
        assert!(matches!(ops[3].1, RtOp::GlobalLoss(r) if (r - 0.10).abs() < 1e-9));
    }

    #[test]
    fn loss_ramp_desugar_saturates_instead_of_overflowing() {
        let script = ChaosScript::new(vec![Phase {
            at: SimDuration::from_secs(1),
            op: ChaosOp::LossRamp {
                pct: 4,
                steps: 6,
                over_s: u32::MAX,
            },
        }]);
        let ops = desugar(&script);
        assert_eq!(ops.len(), 6); // No panic; steps land in order.
        for w in ops.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
