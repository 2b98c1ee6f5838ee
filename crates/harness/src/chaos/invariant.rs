//! The paper's guarantees as first-class, reusable checkers.
//!
//! Every invariant inspects a finished run — the world after the script,
//! the detection window, and the quiesce grace have all played out — plus
//! the [`RunContext`] the runner assembled (who participated, who was
//! crashed by script, whether the group was expected/observed to burn, and
//! the notification deadline). Integration tests and the chaos explorer
//! check the *same* objects, so a tightening in one place tightens both.

use fuse_core::FuseId;
use fuse_sim::{ProcId, SimTime};

use crate::world::World;

/// One invariant breach, with enough detail to read the failure without
/// re-running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that tripped.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Facts about one finished chaos run, assembled by the runner.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// The group under test.
    pub id: FuseId,
    /// Every participant (root first, then members).
    pub participants: Vec<ProcId>,
    /// Participants the script crash-stopped at least once. A crash drops
    /// the recorder with the process state, so these are exempt from the
    /// must-hear-exactly-once obligation (a restarted node is a fresh node
    /// that never joined the group).
    pub ever_crashed: Vec<ProcId>,
    /// Whether the group burned: implied by the script's terminal fault
    /// state (a participant left dead / unplugged / partitioned off, or an
    /// explicit signal) or observed as a notification during the run.
    pub burned: bool,
    /// Whether every scripted op was provably harmless to participant
    /// connectivity — adversary clears and trivial heals only; no crash,
    /// loss, partition, content drop, disconnect or signal ever applied. On
    /// a benign run any notification at all is a false suspicion.
    pub benign: bool,
    /// Latest instant a notification may legally arrive (last script phase
    /// plus the detection budget).
    pub deadline: SimTime,
}

impl RunContext {
    /// Participants still obligated to hear exactly one notification.
    pub fn required(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.participants
            .iter()
            .copied()
            .filter(|p| !self.ever_crashed.contains(p))
    }
}

/// A paper invariant checked against a finished run.
pub trait Invariant {
    /// Short stable name (appears in violations and reports).
    fn name(&self) -> &'static str;

    /// Returns every breach this invariant finds (empty = holds).
    fn check(&self, world: &World, ctx: &RunContext) -> Vec<Violation>;
}

/// §2/§3: distributed one-way agreement with exactly-once delivery. Once
/// the group is declared failed, every live participant's handler runs
/// exactly once; no node's handler ever runs twice, burned or not.
pub struct ExactlyOnceAgreement;

impl Invariant for ExactlyOnceAgreement {
    fn name(&self) -> &'static str {
        "exactly-once-agreement"
    }

    fn check(&self, world: &World, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for p in 0..world.infos.len() as ProcId {
            let hits = world.failures(p, ctx.id).len();
            if hits > 1 {
                out.push(Violation {
                    invariant: self.name(),
                    detail: format!("node {p} heard {hits} notifications for {}", ctx.id),
                });
            }
        }
        if ctx.burned {
            for p in ctx.required() {
                if world.failures(p, ctx.id).is_empty() {
                    out.push(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "group {} burned but live participant {p} never heard a notification",
                            ctx.id
                        ),
                    });
                }
            }
        }
        out
    }
}

/// §3/§7.4: bounded detection latency. Every obligated notification must
/// land within the liveness-timeout budget of the last scripted fault —
/// the window derived from ping period + ping timeout, the link-failure
/// timeout, member/root repair timeouts and the repair backoff cap.
pub struct BoundedDetection;

impl Invariant for BoundedDetection {
    fn name(&self) -> &'static str {
        "bounded-detection"
    }

    fn check(&self, world: &World, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        if !ctx.burned {
            return out;
        }
        for p in ctx.required() {
            for t in world.failures(p, ctx.id) {
                if t > ctx.deadline {
                    out.push(Violation {
                        invariant: self.name(),
                        detail: format!(
                            "node {p} was notified at {}ns, {}ns past the budget deadline",
                            t.nanos(),
                            t.nanos() - ctx.deadline.nanos()
                        ),
                    });
                }
            }
        }
        out
    }
}

/// §6.5 cleanup: after a burned group quiesces, no live node — member,
/// root or delegate — may still hold state for it.
pub struct NoOrphanState;

impl Invariant for NoOrphanState {
    fn name(&self) -> &'static str {
        "no-orphan-state"
    }

    fn check(&self, world: &World, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        if !ctx.burned {
            return out;
        }
        for p in 0..world.infos.len() as ProcId {
            if world.knows_group(p, ctx.id) {
                out.push(Violation {
                    invariant: self.name(),
                    detail: format!("node {p} still holds state for burned group {}", ctx.id),
                });
            }
        }
        out
    }
}

/// No false suspicion: while both endpoints of every monitored pair are
/// alive and mutually connected, no group may burn. The runner marks a
/// run *benign* only when the script provably never disturbed
/// connectivity (it only cleared the adversary or healed partitions that
/// were never installed). Any notification on a benign run is a
/// liveness-deadline false positive.
pub struct FalseSuspicion;

impl Invariant for FalseSuspicion {
    fn name(&self) -> &'static str {
        "false-suspicion"
    }

    fn check(&self, world: &World, ctx: &RunContext) -> Vec<Violation> {
        let mut out = Vec::new();
        if !ctx.benign {
            return out;
        }
        for p in 0..world.infos.len() as ProcId {
            for t in world.failures(p, ctx.id) {
                out.push(Violation {
                    invariant: self.name(),
                    detail: format!(
                        "benign run, but node {p} heard a failure notification for {} at {}ns",
                        ctx.id,
                        t.nanos()
                    ),
                });
            }
        }
        out
    }
}

/// The standard checker set every chaos run (and the ported integration
/// tests) evaluates.
pub fn standard_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(ExactlyOnceAgreement),
        Box::new(BoundedDetection),
        Box::new(NoOrphanState),
        Box::new(FalseSuspicion),
    ]
}
