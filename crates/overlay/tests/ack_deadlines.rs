//! The overlay's one wake-up against one deadline per ping and one ping
//! chain per neighbour.
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
//! Beside it runs a reference kept the way one timer per deadline kept it:
//!
//! * one ping chain per monitored neighbour: its first ping at the phase
//!   the node drew on admission, within one period, then one a period
//!   after each ping; a neighbour dropped and re-admitted starts afresh.
//!   Every ping must be its chain's next, at exactly its deadline (or past
//!   it, in a stall), and none may be missing;
//! * one wait per ping: every ping sent sets its peer's wait to `sent +
//!   ping_timeout`, replacing the last; a matching ack or the peer leaving
//!   the monitored set ends it. Every neighbour the node declares dead by
//!   timeout must be the reference's next due wait, at exactly its
//!   deadline: none early, none missing, in send order.
//!
//! A wake-up leaves nothing due behind: it never asks for another at the
//! instant it ran.

use std::collections::BTreeMap;

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

/// One wait per peer and one ping chain per neighbour, kept the way one
/// timer per deadline kept them.
#[derive(Default)]
struct Reference {
    /// Per peer: (deadline, send order, nonce) of its outstanding ping.
    waits: BTreeMap<PeerAddr, (Time, u64, u64)>,
    /// Per monitored neighbour: when its next ping is due.
    chains: BTreeMap<PeerAddr, Time>,
    pings: u64,
}

impl Reference {
    /// The wait that comes due first by `until`: (deadline, peer).
    fn next_due(&self, until: Time) -> Option<(Time, PeerAddr)> {
        let due = self.waits.iter().filter(|(_, w)| w.0 <= until);
        let first = due.min_by_key(|(_, w)| (w.0, w.1));
        first.map(|(&p, w)| (w.0, p))
    }
}

/// What the scripts reached, so the generator can be shown to cover the
/// cases the node must get right.
#[derive(Debug, Default)]
struct Reached {
    timeouts: u64,
    same_instant_timeouts: u64,
    replaced_waits: u64,
    chained_pings: u64,
    late_pings: u64,
    early_wakes: u64,
    double_wakes: u64,
    evicted_while_waiting: u64,
    wrong_nonce_acks: u64,
    breaks: u64,
    readmitted: u64,
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

    /// Runs one node entry point at `now`, checks its pings, acks and
    /// deaths against the reference, follows the monitored set's changes
    /// and queues the wake-ups it asked for.
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
            if !died {
                self.reached.evicted_while_waiting += u64::from(ended.is_some());
            } else if !timed_out {
                self.reached.breaks += 1;
            }
        }
        for (to, msg) in sent {
            if let OverlayMsg::Ping { nonce, .. } = msg {
                let due = self.reference.chains.get(&to).copied();
                prop_assert!(
                    due.is_some_and(|at| self.came(at)),
                    "{} was pinged at {}; its chain's next ping is due at {:?}",
                    to,
                    self.now,
                    due
                );
                self.reached.late_pings += u64::from(due < Some(self.now));
                self.reached.chained_pings += u64::from(self.last_ping.contains_key(&to));
                self.reference.chains.insert(to, self.now + self.period);
                let r = &mut self.reference;
                r.pings += 1;
                let wait = (self.now + self.timeout, r.pings, nonce);
                if r.waits.insert(to, wait).is_some() {
                    self.reached.replaced_waits += 1;
                }
                self.last_ping.insert(to, nonce);
            }
        }
        self.follow_chains()?;
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

    /// Starts a chain for every neighbour admitted, at the phase the node
    /// drew for it, and ends the chain of every neighbour dropped.
    fn follow_chains(&mut self) -> Result<(), TestCaseError> {
        for x in 0..48 {
            let peer = candidate(x);
            let chain = self.reference.chains.contains_key(&peer);
            match self.node.next_ping(peer) {
                Some(at) if !chain => {
                    prop_assert!(
                        self.now <= at && at <= self.now + self.period,
                        "{} admitted at {} first pinged at {}",
                        peer,
                        self.now,
                        at
                    );
                    self.reference.chains.insert(peer, at);
                    self.reached.readmitted += u64::from(self.dropped.contains(&peer));
                }
                None if chain => {
                    self.reference.chains.remove(&peer);
                }
                _ => {}
            }
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
    /// reference wait or ping due by then is still outstanding.
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
        let unpinged = self.reference.chains.iter().find(|(_, &at)| at <= until);
        prop_assert!(unpinged.is_none(), "no ping for {unpinged:?} by {until}");
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
        let expected = self.reference.waits.get(&peer).map(|w| w.2) == Some(nonce);
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
/// still defined) is the one way a ping goes out while the last is
/// unanswered: the new ping must replace the old wait.
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
                // Short steps land between pings, medium ones inside a
                // timeout, long ones let deadlines and whole periods pass.
                // A stall fires what came due in it all at its end, so
                // pings due apart go out together; a short step may fire
                // its first wake-up twice.
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
/// timeout, two at one instant, a wait replaced by the next ping, a ping
/// on a running chain, one past its deadline in a stall, a wake-up that
/// came early and one that fired twice, a neighbour evicted while its ping
/// is out, a wrong-nonce ack, a link break and a re-admitted neighbour.
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
        r.chained_pings,
        r.late_pings,
        r.early_wakes,
        r.double_wakes,
        r.evicted_while_waiting,
        r.wrong_nonce_acks,
        r.breaks,
        r.readmitted,
    ];
    assert!(counts.iter().all(|&c| c > 0), "{reached:?}");
}
