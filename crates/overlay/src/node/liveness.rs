//! Neighbour liveness (paper §6.3: FUSE piggybacks its per-link digest on
//! the overlay's pings and acks, §7.1: a 60 s ping period and a 20 s
//! timeout).
//!
//! This module alone writes the monitored-neighbour records, the FIFO of
//! ack deadlines and its one `AckTimeout` timer flag, the nonce counter
//! and the piggyback digests; [`Liveness`]' fields are private to it. The
//! invariant it keeps: every neighbour whose ping goes unacknowledged for
//! the ping timeout is declared dead at exactly `sent + ping_timeout`, in
//! send order, and no other is. The timeout is constant, so send order is
//! deadline order; a wait that ended (acked, replaced by the next ping,
//! neighbour dropped) stays queued until it reaches the front, and the
//! timer is armed at or before the earliest deadline of a wait that has
//! not ended. An ack cancels nothing, and neither does dropping a
//! neighbour: each record keeps its next ping's deadline, and a `PingDue`
//! pings only when that deadline has come, so one ping chain runs per
//! monitored neighbour however often it leaves and comes back.

use std::collections::VecDeque;

use rand::Rng;

use fuse_util::{DetHashMap, Duration, PeerAddr, Time};
use fuse_wire::Digest;

use super::OverlayNode;
use crate::config::OverlayConfig;
use crate::io::{OverlayCx, OverlayTimer, OverlayUpcall};
use crate::messages::OverlayMsg;

/// One monitored neighbour: when its next ping is due and the nonce of
/// its ping still awaiting an ack.
#[derive(Clone, Copy)]
struct Watched {
    next_ping: Time,
    awaiting: Option<u64>,
}

/// The failure detector over the monitored neighbours.
#[derive(Clone, Default)]
pub(super) struct Liveness {
    cfg: OverlayConfig,
    /// The monitored neighbours.
    watched: DetHashMap<PeerAddr, Watched>,
    /// Ack deadlines `(sent + ping_timeout, peer, nonce)`, oldest first.
    ack_deadlines: VecDeque<(Time, PeerAddr, u64)>,
    /// Whether the one `AckTimeout` timer is armed.
    ack_timer: bool,
    /// Piggyback digest per link, pushed down by the client (FUSE).
    link_hashes: DetHashMap<PeerAddr, Digest>,
    next_nonce: u64,
}

impl Liveness {
    pub(super) fn new(cfg: OverlayConfig) -> Self {
        Liveness {
            cfg,
            ..Liveness::default()
        }
    }

    /// Starts monitoring `peer`, its first ping at a random phase of the
    /// period.
    pub(super) fn start(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        if self.watched.contains_key(&peer) {
            return;
        }
        // Phase jitter spreads ping load over the period.
        let jitter = Duration(io.rng().gen_range(0..=self.cfg.ping_period.nanos()));
        io.set_timer(jitter, OverlayTimer::PingDue(peer));
        let w = Watched {
            next_ping: io.now() + jitter,
            awaiting: None,
        };
        self.watched.insert(peer, w);
    }

    /// Stops monitoring `peer`. Its ack wait, if any, ends with the record
    /// and leaves the deadline queue lazily; its ping timer finds no
    /// record, or a later deadline, when it fires.
    pub(super) fn stop(&mut self, peer: PeerAddr) {
        self.watched.remove(&peer);
    }

    fn awaits(&self, peer: PeerAddr, nonce: u64) -> bool {
        self.watched
            .get(&peer)
            .is_some_and(|w| w.awaiting == Some(nonce))
    }

    /// Pops the waits that ended from the front of the deadline queue.
    fn drop_ended_waits(&mut self) {
        while let Some(&(_, peer, nonce)) = self.ack_deadlines.front() {
            if self.awaits(peer, nonce) {
                break;
            }
            self.ack_deadlines.pop_front();
        }
    }
}

impl OverlayNode {
    /// Whether `peer` is currently a monitored neighbor.
    pub fn is_neighbor(&self, peer: PeerAddr) -> bool {
        self.live.watched.contains_key(&peer)
    }

    /// The digest the client asked us to piggyback for `peer` (absent when
    /// no groups monitor the link).
    pub fn link_hash(&self, peer: PeerAddr) -> Option<Digest> {
        self.live.link_hashes.get(&peer).copied()
    }

    /// Client hook: sets the piggyback digest for one link (paper §6.1:
    /// FUSE piggybacks a 20-byte hash on overlay ping requests).
    pub fn set_link_hash(&mut self, peer: PeerAddr, hash: Option<Digest>) {
        if let Some(h) = hash {
            self.live.link_hashes.insert(peer, h);
        } else {
            self.live.link_hashes.remove(&peer);
        }
    }

    /// Whether `peer`'s next ping is due at `now`: a `PingDue` that finds
    /// it not due (the neighbour was dropped, or re-admitted with a ping
    /// chain of its own) is stale and does nothing.
    pub fn ping_due(&self, peer: PeerAddr, now: Time) -> bool {
        self.live
            .watched
            .get(&peer)
            .is_some_and(|w| w.next_ping <= now)
    }

    /// Number of links with a piggyback digest set.
    pub fn link_hash_count(&self) -> usize {
        self.live.link_hashes.len()
    }

    /// Sends `peer` its next ping and queues the ack deadline, which
    /// replaces any wait still outstanding on the peer.
    pub(super) fn ping(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        let live = &mut self.live;
        live.next_nonce += 1;
        let nonce = live.next_nonce;
        let hash = live.link_hashes.get(&peer).copied();
        io.send(peer, OverlayMsg::Ping { nonce, hash });
        self.stats.pings_sent += 1;
        let timeout = live.cfg.ping_timeout;
        live.ack_deadlines
            .push_back((io.now() + timeout, peer, nonce));
        if !live.ack_timer {
            live.ack_timer = true;
            io.set_timer(timeout, OverlayTimer::AckTimeout);
        }
        io.set_timer(live.cfg.ping_period, OverlayTimer::PingDue(peer));
        let w = Watched {
            next_ping: io.now() + live.cfg.ping_period,
            awaiting: Some(nonce),
        };
        live.watched.insert(peer, w);
    }

    /// An ack from `peer`: the one carrying the nonce it awaits ends its
    /// wait and hands the client its digest.
    pub(super) fn on_ping_ack(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        nonce: u64,
        hash: Option<Digest>,
    ) {
        if let Some(w) = self.live.watched.get_mut(&from) {
            if w.awaiting == Some(nonce) {
                w.awaiting = None;
                self.live.drop_ended_waits();
                self.stats.acks_received += 1;
                io.upcall(OverlayUpcall::PingHash {
                    peer: from,
                    hash: hash.unwrap_or_else(Digest::of_empty),
                });
            }
        }
    }

    /// The `AckTimeout` timer fired: every neighbour whose wait is still
    /// outstanding at its deadline dies, in send order, and the timer
    /// follows the next wait that has not ended.
    pub(super) fn sweep_ack_deadlines(&mut self, io: &mut OverlayCx<'_>) {
        self.live.ack_timer = false;
        let now = io.now();
        loop {
            self.live.drop_ended_waits();
            let Some(&(at, peer, _)) = self.live.ack_deadlines.front() else {
                return;
            };
            if at > now {
                self.live.ack_timer = true;
                io.set_timer(at.since(now), OverlayTimer::AckTimeout);
                return;
            }
            self.live.ack_deadlines.pop_front();
            self.neighbor_dead(io, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{info, node_with, TestIo};
    use crate::config::OverlayConfig;
    use crate::io::{OverlayTimer, OverlayUpcall};
    use crate::messages::OverlayMsg;
    use fuse_util::{Duration, Time};

    /// One timer serves every outstanding ping: A is pinged at t and acks,
    /// B is pinged at t+5 s and stays silent. The sweep at t+20 s finds
    /// A's wait ended and follows B's deadline, and B dies at exactly
    /// t+25 s.
    #[test]
    fn one_ack_timer_sweeps_every_ping_at_its_own_deadline() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        let timeout = OverlayConfig::default().ping_timeout;
        let sweeps = |io: &TestIo| -> Vec<Duration> {
            let armed = io.timers.iter();
            let sweep = armed.filter(|(_, t)| *t == OverlayTimer::AckTimeout);
            sweep.map(|&(after, _)| after).collect()
        };
        let t = Time::ZERO + Duration::from_secs(100);
        io.now = t;
        io.timers.clear();
        io.on_timer(&mut n, OverlayTimer::PingDue(20));
        let nonce = match io.sent.last() {
            Some((20, OverlayMsg::Ping { nonce, .. })) => *nonce,
            other => panic!("expected a ping to 20, got {other:?}"),
        };
        let ack = OverlayMsg::PingAck { nonce, hash: None };
        io.on_message(&mut n, 20, ack);
        assert!(
            n.live.ack_deadlines.is_empty(),
            "A's ended wait leaves at once"
        );
        io.now = t + Duration::from_secs(5);
        io.on_timer(&mut n, OverlayTimer::PingDue(30));
        assert_eq!(sweeps(&io), [timeout], "one timer is armed for both pings");

        io.timers.clear();
        io.now = t + timeout;
        io.on_timer(&mut n, OverlayTimer::AckTimeout);
        assert!(
            n.is_neighbor(20) && n.is_neighbor(30),
            "the sweep at t+20 s kills no one"
        );
        assert_eq!(
            sweeps(&io),
            [Duration::from_secs(5)],
            "it follows B's deadline"
        );
        assert_eq!(n.stats.neighbors_died, 0);

        io.now = t + Duration::from_secs(25);
        io.on_timer(&mut n, OverlayTimer::AckTimeout);
        assert!(!n.is_neighbor(30) && n.is_neighbor(20));
        let died = |u: &OverlayUpcall| {
            matches!(
                u,
                OverlayUpcall::LinkDown {
                    peer: 30,
                    died: true
                }
            )
        };
        assert_eq!(io.upcalls.iter().filter(|u| died(u)).count(), 1);
        assert_eq!(n.stats.neighbors_died, 1);
    }

    /// Nothing cancels a ping timer. A neighbour dropped and re-admitted
    /// within one period leaves its first chain's timer queued beside the
    /// new chain's; the old one must find its deadline moved, so the
    /// neighbour is pinged exactly once a period, acked every time, over
    /// three periods.
    #[test]
    fn a_readmitted_neighbour_keeps_one_ping_chain() {
        let (mut n, mut io) = node_with(10, &[20]);
        let period = OverlayConfig::default().ping_period;
        // Every armed timer by (deadline, arm order), as a kernel keeps them.
        let mut queue: Vec<(Time, usize, OverlayTimer)> = Vec::new();
        let mut armed = 0;
        let mut take = |io: &mut TestIo, queue: &mut Vec<_>| {
            for (after, tag) in io.timers.drain(..) {
                armed += 1;
                queue.push((io.now + after, armed, tag));
            }
            queue.sort_by_key(|e| (e.0, e.1));
        };
        take(&mut io, &mut queue);
        let first = queue
            .iter()
            .find(|e| e.2 == OverlayTimer::PingDue(20))
            .map(|e| e.0)
            .expect("admission arms a ping");

        // Dropped and back before the first chain's ping comes due.
        io.now = Time(first.nanos() / 3);
        io.on_link_broken(&mut n, 20);
        assert!(!n.is_neighbor(20));
        io.now = Time(2 * first.nanos() / 3);
        let back = OverlayMsg::Announce {
            info: info(20),
            want_reply: false,
        };
        io.on_message(&mut n, 20, back);
        assert!(n.is_neighbor(20), "the announce re-admits 20");
        take(&mut io, &mut queue);
        let chains = queue.iter().filter(|e| e.2 == OverlayTimer::PingDue(20));
        assert_eq!(chains.count(), 2, "the old chain's timer is still queued");

        let end = io.now + period.saturating_mul(3);
        let mut pings = Vec::new();
        while queue.first().is_some_and(|e| e.0 <= end) {
            let (at, _, tag) = queue.remove(0);
            if !matches!(tag, OverlayTimer::PingDue(_) | OverlayTimer::AckTimeout) {
                continue;
            }
            io.now = at;
            io.sent.clear();
            io.on_timer(&mut n, tag);
            for (to, msg) in std::mem::take(&mut io.sent) {
                if let OverlayMsg::Ping { nonce, .. } = msg {
                    pings.push((to, at));
                    let ack = OverlayMsg::PingAck { nonce, hash: None };
                    io.on_message(&mut n, to, ack);
                }
            }
            take(&mut io, &mut queue);
        }
        assert!(n.is_neighbor(20), "no ping went unanswered");
        assert_eq!(pings.len(), 3, "one ping a period: {pings:?}");
        for w in pings.windows(2) {
            assert_eq!(w[1].1.since(w[0].1), period, "{pings:?}");
        }
    }
}
