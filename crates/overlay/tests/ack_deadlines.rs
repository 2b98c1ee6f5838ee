//! The overlay's one ping round a period against a test-local round
//! reference.
//!
//! One [`OverlayNode`] is driven by hand: neighbours are admitted by
//! announces (a closer one evicts the farthest, a dropped one comes back),
//! acks come back with the right or a wrong nonce, links break, and the
//! clock steps through the wake-ups the node asks for. Nothing is
//! cancelled: every wake-up asked for fires, in (deadline, request order),
//! as the simulation kernel fires them. Now and then one fires twice, a
//! wake-up nobody asked for comes early, and a stall fires all that came
//! due in it at its end, as a socket runtime may.
//!
//! Beside it runs a reference kept by the round rule:
//!
//! * one round a period for the whole node: the first neighbour admitted
//!   draws its phase, within one period; each round comes one period after
//!   the last ran. Every neighbour monitored at a round is pinged once at
//!   it, peers ascending, and no ping goes out at any other time; a
//!   neighbour admitted between rounds waits for the next;
//! * one wait per ping: a round sets each pinged neighbour's wait to
//!   `round + ping_timeout`, replacing a wait still outstanding (which
//!   only a timeout past the period leaves); a matching ack or the peer
//!   leaving the monitored set ends it. Every neighbour the node declares
//!   dead by timeout must be the reference's next due wait, at exactly its
//!   deadline: none early, none missing, peers ascending.
//!
//! A wake-up leaves nothing due behind: no wait and no round at or before
//! its instant, and it never asks for another at the instant it ran.

use std::collections::{BTreeMap, BTreeSet};

use fuse_overlay::{
    NodeInfo, NodeName, OverlayConfig, OverlayCx, OverlayMsg, OverlayNode, OverlaySink,
    OverlayUpcall,
};
use fuse_util::{Duration, PeerAddr, Time};
use fuse_wire::Digest;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ME: usize = 500;

/// Candidate neighbours: 24 names on each side of `ME`, three times what
/// the leaf sets hold, so admitting a close one evicts a far one.
fn candidate(x: u8) -> PeerAddr {
    let i = usize::from(x) % 48;
    (if i < 24 { ME - 24 + i } else { ME + 1 + i - 24 }) as PeerAddr
}

fn info(p: PeerAddr) -> NodeInfo {
    NodeInfo::new(p, NodeName::numbered(p as usize))
}

/// The driver's sink: sends and wake-up requests are collected.
struct Out<'a> {
    sent: &'a mut Vec<(PeerAddr, OverlayMsg)>,
    wakes: &'a mut Vec<Duration>,
}

impl OverlaySink for Out<'_> {
    fn send(&mut self, to: PeerAddr, msg: OverlayMsg) {
        self.sent.push((to, msg));
    }

    fn wake(&mut self, after: Duration) {
        self.wakes.push(after);
    }

    fn link_digest(&mut self, _peer: PeerAddr) -> Option<Digest> {
        None
    }
}

/// The round rule, kept apart from the node.
#[derive(Default)]
struct Reference {
    /// When the next round is due, once the first neighbour drew it.
    round: Option<Time>,
    /// Per peer owing its round's nonce: (deadline, nonce).
    waits: BTreeMap<PeerAddr, (Time, u64)>,
    /// The monitored neighbours after the last input.
    monitored: BTreeSet<PeerAddr>,
    /// Peers dropped while owing since the last round.
    dropped_owing: BTreeSet<PeerAddr>,
}

impl Reference {
    /// The wait that comes due first by `until`: (deadline, peer), peers
    /// ascending among equal deadlines.
    fn next_due(&self, until: Time) -> Option<(Time, PeerAddr)> {
        let due = self.waits.iter().filter(|(_, w)| w.0 <= until);
        due.map(|(&p, w)| (w.0, p)).min()
    }
}

/// What the scripts reached, so the generator can be shown to cover the
/// cases the node must get right.
#[derive(Debug, Default)]
struct Reached {
    timeouts: u64,
    same_instant_timeouts: u64,
    replaced_waits: u64,
    repeat_pings: u64,
    late_rounds: u64,
    early_wakes: u64,
    double_wakes: u64,
    evicted_while_waiting: u64,
    wrong_nonce_acks: u64,
    breaks: u64,
    readmitted: u64,
    readmitted_while_owing: u64,
}

/// Why an input reached the node.
#[derive(Clone, Copy, PartialEq)]
enum Cause {
    Wake,
    Break(PeerAddr),
    Other,
}

struct Rig {
    node: OverlayNode,
    rng: StdRng,
    now: Time,
    period: Duration,
    timeout: Duration,
    /// Wake-ups asked for, by (deadline, request order).
    wakes: BTreeMap<(Time, u64), ()>,
    asked: u64,
    /// Whether wake-ups now fire late, all at the end of a stall.
    late: bool,
    /// Nonce of the last ping sent to each peer.
    last_ping: BTreeMap<PeerAddr, u64>,
    /// Peers ever dropped from the monitored set.
    dropped: Vec<PeerAddr>,
    /// When the last neighbour died by timeout.
    last_timeout: Option<Time>,
    reference: Reference,
    reached: Reached,
}

impl Rig {
    fn new(cfg: OverlayConfig, seed: u64, reached: Reached) -> Self {
        let (period, timeout) = (cfg.ping_period, cfg.ping_timeout);
        let mut rig = Rig {
            node: OverlayNode::new(info(ME as PeerAddr), None, cfg),
            rng: StdRng::seed_from_u64(seed),
            now: Time::ZERO,
            period,
            timeout,
            wakes: BTreeMap::new(),
            asked: 0,
            late: false,
            last_ping: BTreeMap::new(),
            dropped: Vec::new(),
            last_timeout: None,
            reference: Reference::default(),
            reached,
        };
        rig.call(Cause::Other, |n, cx| n.boot(cx))
            .expect("boot declares no one dead");
        rig
    }

    /// Runs one node entry point at `now`, checks its deaths, pings and
    /// acks against the reference, follows the monitored set's changes and
    /// queues the wake-ups it asked for.
    fn call(
        &mut self,
        cause: Cause,
        f: impl FnOnce(&mut OverlayNode, &mut OverlayCx<'_>),
    ) -> Result<(), TestCaseError> {
        let (mut sent, mut wakes, mut upcalls) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = Out {
            sent: &mut sent,
            wakes: &mut wakes,
        };
        let mut cx = OverlayCx::new(self.now, &mut self.rng, &mut out, &mut upcalls);
        f(&mut self.node, &mut cx);
        // Deaths first: a wake-up sweeps before it runs a round.
        for up in upcalls {
            let OverlayUpcall::LinkDown { peer, died } = up else {
                continue;
            };
            self.dropped.push(peer);
            let timed_out = died && cause != Cause::Break(peer);
            if timed_out {
                prop_assert!(cause == Cause::Wake, "{peer} died outside a wake-up");
                let due = self.reference.next_due(self.now);
                prop_assert!(
                    due.is_some_and(|(at, p)| p == peer && self.came(at)),
                    "{} died at {}; the reference's next due wait is {:?}",
                    peer,
                    self.now,
                    due
                );
                self.reached.timeouts += 1;
                let again = self.last_timeout.replace(self.now) == Some(self.now);
                self.reached.same_instant_timeouts += u64::from(again);
            }
            let ended = self.reference.waits.remove(&peer);
            if ended.is_some() {
                self.reference.dropped_owing.insert(peer);
            }
            if !died {
                self.reached.evicted_while_waiting += u64::from(ended.is_some());
            } else if !timed_out {
                self.reached.breaks += 1;
            }
        }
        self.follow_monitored()?;
        let pinged: Vec<(PeerAddr, u64)> = sent
            .iter()
            .filter_map(|(to, msg)| match msg {
                OverlayMsg::Ping { nonce, .. } => Some((*to, *nonce)),
                _ => None,
            })
            .collect();
        let due = self.reference.round.filter(|&at| at <= self.now);
        if cause == Cause::Wake && due.is_some() {
            self.round(due, pinged)?;
        } else {
            prop_assert!(
                pinged.is_empty(),
                "{:?} pinged at {}; the next round is due at {:?}",
                pinged,
                self.now,
                self.reference.round
            );
        }
        if cause == Cause::Wake {
            let missed = self.reference.next_due(self.now);
            prop_assert!(
                missed.is_none(),
                "a wake-up at {} left {missed:?}",
                self.now
            );
        }
        prop_assert_eq!(self.node.next_round(), self.reference.round);
        for after in wakes {
            prop_assert!(
                cause != Cause::Wake || after > Duration::ZERO,
                "a wake-up at {} left something due",
                self.now
            );
            self.asked += 1;
            self.wakes.insert((self.now + after, self.asked), ());
        }
        Ok(())
    }

    /// The round due at `due` ran now: every monitored neighbour, peers
    /// ascending, got one ping, and the wait of each replaces the last.
    fn round(
        &mut self,
        due: Option<Time>,
        pinged: Vec<(PeerAddr, u64)>,
    ) -> Result<(), TestCaseError> {
        prop_assert!(
            due.is_some_and(|at| self.came(at)),
            "the round due at {:?} ran at {}",
            due,
            self.now
        );
        let to: Vec<PeerAddr> = pinged.iter().map(|p| p.0).collect();
        let monitored: Vec<PeerAddr> = self.reference.monitored.iter().copied().collect();
        prop_assert_eq!(to, monitored, "the round at {} pinged", self.now);
        self.reached.late_rounds += u64::from(due < Some(self.now));
        for (peer, nonce) in pinged {
            self.reached.repeat_pings += u64::from(self.last_ping.contains_key(&peer));
            let wait = (self.now + self.timeout, nonce);
            if self.reference.waits.insert(peer, wait).is_some() {
                self.reached.replaced_waits += 1;
            }
            self.last_ping.insert(peer, nonce);
        }
        self.reference.dropped_owing.clear();
        self.reference.round = Some(self.now + self.period);
        Ok(())
    }

    /// Follows the monitored set: a neighbour admitted owes nothing, and
    /// the first one admitted draws the round's phase, within one period.
    fn follow_monitored(&mut self) -> Result<(), TestCaseError> {
        for x in 0..48 {
            let peer = candidate(x);
            let now_in = self.node.is_neighbor(peer);
            if now_in == self.reference.monitored.contains(&peer) {
                continue;
            }
            if !now_in {
                self.reference.monitored.remove(&peer);
                continue;
            }
            self.reference.monitored.insert(peer);
            prop_assert!(!self.reference.waits.contains_key(&peer));
            self.reached.readmitted += u64::from(self.dropped.contains(&peer));
            let owed = self.reference.dropped_owing.contains(&peer);
            self.reached.readmitted_while_owing += u64::from(owed);
        }
        if self.reference.round.is_none() && !self.reference.monitored.is_empty() {
            let at = self.node.next_round();
            prop_assert!(
                at.is_some_and(|at| self.now <= at && at <= self.now + self.period),
                "the first neighbour, admitted at {}, drew a round at {:?}",
                self.now,
                at
            );
            self.reference.round = at;
        }
        Ok(())
    }

    /// Whether a deadline `at` is met by acting now: exactly on it, or
    /// past it while wake-ups fire late.
    fn came(&self, at: Time) -> bool {
        if self.late {
            at <= self.now
        } else {
            at == self.now
        }
    }

    /// Fires every wake-up due by `until` in (deadline, request order),
    /// each at its deadline (and the first one `twice` over), or all at
    /// `until` when `late` (a driver that stalled), then checks that no
    /// reference wait or round due by then is still outstanding.
    fn run_until(&mut self, until: Time, late: bool, twice: bool) -> Result<(), TestCaseError> {
        self.late = late;
        let mut again = twice;
        while let Some(entry) = self.wakes.first_entry() {
            if entry.key().0 > until {
                break;
            }
            let (at, _) = entry.remove_entry().0;
            self.now = if late { until } else { at };
            self.call(Cause::Wake, |n, cx| n.on_wake(cx))?;
            if std::mem::take(&mut again) {
                self.reached.double_wakes += 1;
                self.call(Cause::Wake, |n, cx| n.on_wake(cx))?;
            }
        }
        self.late = false;
        self.now = until;
        let missed = self.reference.next_due(until);
        prop_assert!(missed.is_none(), "no death for {missed:?} by {until}");
        let round = self.reference.round.filter(|&at| at <= until);
        prop_assert!(round.is_none(), "no round for {round:?} by {until}");
        Ok(())
    }

    /// Wakes the node now, though it asked for no wake-up by now.
    fn early_wake(&mut self) -> Result<(), TestCaseError> {
        let asked = self.wakes.keys().next().is_some_and(|k| k.0 <= self.now);
        self.reached.early_wakes += u64::from(!asked);
        self.call(Cause::Wake, |n, cx| n.on_wake(cx))
    }

    fn ack(&mut self, peer: PeerAddr, right: bool) -> Result<(), TestCaseError> {
        let Some(&last) = self.last_ping.get(&peer) else {
            return Ok(());
        };
        // A wrong nonce is one off the last: an earlier ping's or a later
        // one's.
        let nonce = if right { last } else { last ^ 1 };
        let expected = self.reference.waits.get(&peer).map(|w| w.1) == Some(nonce);
        if expected {
            self.reference.waits.remove(&peer);
        } else {
            self.reached.wrong_nonce_acks += u64::from(!right);
        }
        let before = self.node.stats.acks_received;
        let msg = OverlayMsg::PingAck { nonce, hash: None };
        self.call(Cause::Other, |n, cx| n.on_message(cx, peer, msg))?;
        let matched = self.node.stats.acks_received > before;
        prop_assert_eq!(matched, expected, "ack {} from {}", nonce, peer);
        Ok(())
    }

    fn admit(&mut self, peer: PeerAddr) -> Result<(), TestCaseError> {
        let msg = OverlayMsg::Announce {
            info: info(peer),
            want_reply: false,
        };
        self.call(Cause::Other, |n, cx| n.on_message(cx, peer, msg))
    }

    fn break_link(&mut self, peer: PeerAddr) -> Result<(), TestCaseError> {
        self.call(Cause::Break(peer), |n, cx| n.on_link_broken(cx, peer))
    }
}

/// A ping period of 2–60 s and a timeout of up to one and a half periods.
/// A timeout past the period (outside `OverlayConfig`'s contract, but
/// still defined) is the one way a round comes while the last round's
/// pings are unanswered: the new round must replace their waits.
fn config() -> impl Strategy<Value = OverlayConfig> {
    (2_000u64..=60_000).prop_flat_map(|period| {
        (1_000..period * 3 / 2).prop_map(move |timeout| OverlayConfig {
            ping_period: Duration::from_millis(period),
            ping_timeout: Duration::from_millis(timeout),
        })
    })
}

/// Ops as (kind, peer, detail): admits, answers and clock steps weigh
/// most, so neighbours fill the tables, most pings are answered and
/// deadlines still come.
fn script() -> impl Strategy<Value = (OverlayConfig, u64, Vec<(u8, u8, u16)>)> {
    let ops = prop::collection::vec((0u8..16, any::<u8>(), any::<u16>()), 1..120);
    (config(), any::<u64>(), ops)
}

fn run(
    (cfg, seed, ops): &(OverlayConfig, u64, Vec<(u8, u8, u16)>),
    reached: &mut Reached,
) -> Result<(), TestCaseError> {
    let mut rig = Rig::new(cfg.clone(), *seed, std::mem::take(reached));
    let period_ms = cfg.ping_period.nanos() / 1_000_000;
    let timeout_ms = cfg.ping_timeout.nanos() / 1_000_000;
    for &(kind, x, z) in ops {
        // Admits and breaks name any candidate; acks go to a peer with a
        // ping out, when there is one.
        let peer = candidate(x);
        let pick = |set: Vec<PeerAddr>| set.get(usize::from(x) % set.len().max(1)).copied();
        let waiting = pick(rig.reference.waits.keys().copied().collect()).unwrap_or(peer);
        match kind {
            0..=3 => rig.admit(peer)?,
            4 => rig.early_wake()?,
            5 => rig.ack(waiting, true)?,
            6 | 7 => {
                // Every peer with a ping out answers it.
                let waiting: Vec<PeerAddr> = rig.reference.waits.keys().copied().collect();
                for p in waiting {
                    rig.ack(p, true)?;
                }
            }
            8 => rig.ack(waiting, false)?,
            9 => rig.break_link(peer)?,
            _ => {
                // Short steps land between rounds, medium ones inside a
                // timeout, long ones let deadlines and whole periods pass.
                // A stall fires what came due in it all at its end, so a
                // sweep and the round after it may run together; a short
                // step may fire its first wake-up twice.
                let bound = match kind {
                    10 | 11 => 2_000,
                    12 | 13 => timeout_ms,
                    14 => period_ms,
                    _ => 2 * period_ms,
                };
                let ms = u64::from(z) % bound;
                let twice = kind == 11 && z & 1 == 1;
                rig.run_until(rig.now + Duration::from_millis(ms), kind == 14, twice)?;
            }
        }
    }
    // Every wait still outstanding comes due.
    rig.run_until(rig.now + cfg.ping_period + cfg.ping_timeout, false, false)?;
    *reached = rig.reached;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_neighbour_dies_at_exactly_its_reference_deadline(s in script()) {
        run(&s, &mut Reached::default())?;
    }
}

/// The generated scripts reach every case the node must get right: a
/// timeout, two at one instant, a wait replaced by the next round, a
/// neighbour pinged at a second round, a round run late in a stall, a
/// wake-up that came early and one that fired twice, a neighbour evicted
/// while its ping is out, a wrong-nonce ack, a link break, a re-admitted
/// neighbour and one re-admitted while its dropped self still owed.
#[test]
fn generated_scripts_reach_every_case() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut reached = Reached::default();
    for _ in 0..64 {
        let s = script().generate(&mut rng);
        run(&s, &mut reached).expect("the node agrees with the reference");
    }
    let r = &reached;
    let counts = [
        r.timeouts,
        r.same_instant_timeouts,
        r.replaced_waits,
        r.repeat_pings,
        r.late_rounds,
        r.early_wakes,
        r.double_wakes,
        r.evicted_while_waiting,
        r.wrong_nonce_acks,
        r.breaks,
        r.readmitted,
        r.readmitted_while_owing,
    ];
    assert!(counts.iter().all(|&c| c > 0), "{reached:?}");
}
