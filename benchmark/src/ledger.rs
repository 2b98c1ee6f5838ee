//! The correctness oracle of the simulated workloads.
//!
//! The ledger issues every create and signal, knows which members are owed
//! a notification and since when, and reads each node's recorded events to
//! settle the account: exactly one notification per owed member, none on a
//! group nothing touched, every `Created` an `Ok`. It also keeps the
//! simulated-clock latency samples, because the instants it needs for the
//! check are the ones the latencies are measured from.

use std::collections::BTreeMap;

use fuse_core::{CreateError, FuseEvent, FuseId, GroupHandle};
use fuse_sim::{ProcId, SimTime};

use crate::host::Host;

struct PendingCreate {
    root: ProcId,
    members: Vec<ProcId>,
    at: SimTime,
}

/// Why a group's members are owed a notification.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// This member signalled; its own callback is owed but is not a latency
    /// sample.
    Signal(ProcId),
    /// A member was unplugged.
    Fault,
    /// A member was notified while a fault was active elsewhere, though no
    /// member of the group was touched: the false positive FUSE allows when
    /// a liveness path through a failed delegate cannot be repaired. What
    /// FUSE still owes is agreement — every other member hears, once.
    FalsePositive,
}

#[derive(Clone, Copy)]
struct Due {
    since: SimTime,
    cause: Cause,
}

struct Group {
    /// Root first, then the other members.
    members: Vec<ProcId>,
    heard: Vec<bool>,
    due: Option<Due>,
    /// Notified although nothing touched it: off the books at the next
    /// settlement, so one false alarm is not also counted as later misses.
    dead: bool,
}

/// Outcome counts of everything the ledger issued and observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Creates and signals issued.
    pub attempted: u64,
    /// Creates that failed or never completed, and signals that left a
    /// member without its notification.
    pub failed: u64,
    /// Owed notifications that never arrived within the window.
    pub missed: u64,
    /// Notifications on groups unknown to the ledger, on standing groups
    /// while no fault is active anywhere, and second deliveries at one
    /// member.
    pub spurious: u64,
    /// Groups burned during a fault that touched none of their members:
    /// the detector's mistakes, which FUSE permits and the ledger holds to
    /// agreement.
    pub false_positives: u64,
}

/// See the module documentation.
pub struct Ledger {
    cursors: Vec<usize>,
    pending: BTreeMap<FuseId, PendingCreate>,
    groups: BTreeMap<FuseId, Group>,
    /// Creation latencies, simulated milliseconds.
    pub create_ms: Vec<f64>,
    /// Signal or fault to callback latencies, simulated seconds.
    pub notify_s: Vec<f64>,
    /// Running outcome counts.
    pub counts: Counts,
    /// Whether a fault is active: from [`Ledger::fault`] to the next
    /// [`Ledger::settle`].
    fault_active: bool,
    /// Order-independent hash of every notification `(node, group, time)`
    /// seen: equal between two runs exactly when their notification
    /// multisets are.
    pub fingerprint: u64,
}

fn mix(node: ProcId, id: FuseId, at: SimTime) -> u64 {
    // SplitMix64 finaliser over the three fields folded together.
    let mut z = id.0 ^ (u64::from(node) << 40) ^ at.nanos().rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Ledger {
    /// An empty ledger for a world of `n` nodes.
    pub fn new(n: usize) -> Self {
        Ledger {
            cursors: vec![0; n],
            pending: BTreeMap::new(),
            groups: BTreeMap::new(),
            create_ms: Vec::new(),
            notify_s: Vec::new(),
            counts: Counts::default(),
            fault_active: false,
            fingerprint: 0,
        }
    }

    /// Starts a creation at `root` over `members` (root excluded).
    pub fn create<H: Host>(&mut self, host: &mut H, root: ProcId, members: Vec<ProcId>) {
        self.counts.attempted += 1;
        let at = host.now();
        let ticket = host.start_create(root, &members);
        self.pending
            .insert(ticket.id(), PendingCreate { root, members, at });
    }

    /// Signals `id` from its member number `member_index` (0 = the root).
    pub fn signal<H: Host>(&mut self, host: &mut H, id: FuseId, member_index: usize) {
        let g = self.groups.get_mut(&id).expect("signal of a live group");
        let node = g.members[member_index];
        self.counts.attempted += 1;
        g.due = Some(Due {
            since: host.now(),
            cause: Cause::Signal(node),
        });
        host.signal(node, id);
    }

    /// Marks every undisturbed group with a member in `nodes` as burned by
    /// a fault at `at`; returns how many groups that is.
    pub fn fault(&mut self, nodes: &[ProcId], at: SimTime) -> usize {
        self.fault_active = true;
        let mut hit = 0;
        for g in self.groups.values_mut() {
            if g.due.is_none() && !g.dead && g.members.iter().any(|m| nodes.contains(m)) {
                g.due = Some(Due {
                    since: at,
                    cause: Cause::Fault,
                });
                hit += 1;
            }
        }
        hit
    }

    /// Ids and sizes of the groups nothing has touched, in id order.
    pub fn standing(&self) -> impl Iterator<Item = (FuseId, usize)> + '_ {
        self.groups
            .iter()
            .filter(|(_, g)| g.due.is_none() && !g.dead)
            .map(|(&id, g)| (id, g.members.len()))
    }

    /// Reads the events every node recorded since the last call.
    pub fn collect<H: Host>(&mut self, host: &H) {
        let mut notified = Vec::new();
        for p in 0..self.cursors.len() {
            let events = &host.app(p as ProcId).events;
            for &(t, ev) in &events[self.cursors[p]..] {
                match ev {
                    // Outcomes first: a group must be on the books before
                    // any of its notifications is judged.
                    FuseEvent::Created { ticket, result } => self.created(ticket.id(), result, t),
                    FuseEvent::Notified(n) => notified.push((p as ProcId, n.id, t)),
                }
            }
            self.cursors[p] = events.len();
        }
        for (p, id, t) in notified {
            self.notified(p, id, t);
        }
    }

    fn created(&mut self, id: FuseId, result: Result<GroupHandle, CreateError>, t: SimTime) {
        let Some(c) = self.pending.remove(&id) else {
            return; // an outcome for a create already written off as timed out
        };
        match result {
            Ok(handle) => {
                self.create_ms.push(t.since(c.at).as_millis_f64());
                let mut members = c.members;
                members.insert(0, c.root);
                self.groups.insert(
                    handle.id,
                    Group {
                        heard: vec![false; members.len()],
                        members,
                        due: None,
                        dead: false,
                    },
                );
            }
            Err(_) => self.counts.failed += 1,
        }
    }

    fn notified(&mut self, p: ProcId, id: FuseId, t: SimTime) {
        self.fingerprint = self.fingerprint.wrapping_add(mix(p, id, t));
        let fault_active = self.fault_active;
        let counts = &mut self.counts;
        let owed = self.groups.get_mut(&id).and_then(|g| {
            if g.due.is_none() && fault_active && !g.dead {
                counts.false_positives += 1;
                g.due = Some(Due {
                    since: t,
                    cause: Cause::FalsePositive,
                });
            }
            g.dead |= g.due.is_none();
            let due = g.due?;
            let i = g.members.iter().position(|&m| m == p)?;
            (!std::mem::replace(&mut g.heard[i], true)).then_some(due)
        });
        match owed {
            Some(due)
                if due.cause == Cause::Fault || matches!(due.cause, Cause::Signal(s) if s != p) =>
            {
                self.notify_s.push(t.since(due.since).as_secs_f64());
            }
            Some(_) => {}
            None => self.counts.spurious += 1,
        }
    }

    /// Closes the fault window: groups burned by a signal or a fault leave
    /// the books and members that heard nothing count as missed. Groups
    /// burned by a false positive stay until [`Ledger::settle`], so that
    /// one raised late in the window still has time to reach agreement.
    /// Returns how many groups were closed.
    pub fn settle_window(&mut self) -> usize {
        self.close(false)
    }

    /// Closes the books on everything outstanding: every burned group
    /// leaves, members that heard nothing count as missed, creates still
    /// without an outcome count as failed, and an active fault is over.
    /// Returns how many groups were closed.
    pub fn settle(&mut self) -> usize {
        self.counts.failed += self.pending.len() as u64;
        self.pending.clear();
        self.fault_active = false;
        self.close(true)
    }

    fn close(&mut self, false_positives_too: bool) -> usize {
        let before = self.groups.len();
        let counts = &mut self.counts;
        self.groups.retain(|_, g| {
            let Some(due) = g.due else { return !g.dead };
            if due.cause == Cause::FalsePositive && !false_positives_too {
                return true;
            }
            let missed = g.heard.iter().filter(|&&h| !h).count() as u64;
            counts.missed += missed;
            if missed > 0 && matches!(due.cause, Cause::Signal(_)) {
                counts.failed += 1;
            }
            false
        });
        before - self.groups.len()
    }
}
