//! Neighbour liveness (paper §6.3: FUSE piggybacks its per-link digest on
//! the overlay's pings and acks, §7.1: a 60 s ping period and a 20 s
//! timeout).
//!
//! This module alone writes the monitored-neighbour records, the queue of
//! ping deadlines, the FIFO of ack deadlines and the nonce counter;
//! [`Liveness`]' fields are private to it. It keeps no digest: a ping and
//! an ack each read theirs from the sink as they are built. The invariant
//! it keeps: every neighbour whose ping goes unacknowledged for the ping
//! timeout is declared dead at exactly `sent + ping_timeout`, in send
//! order, and no other is. The timeout is constant, so send order is
//! deadline order; a wait that ended (acked, replaced by the next ping,
//! neighbour dropped) stays queued until it reaches the front. Each
//! monitored neighbour is pinged once a period from a random phase; a
//! queued ping deadline its record no longer holds (the neighbour was
//! dropped, or re-admitted with a phase of its own) is skipped. Neither
//! queue is touched by an ack or a drop, and the node's one wake-up
//! follows the earliest deadline of the two.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::Rng;

use fuse_util::{DetHashMap, Duration, PeerAddr, Time, Wake};
use fuse_wire::Digest;

use super::OverlayNode;
use crate::config::OverlayConfig;
use crate::io::{OverlayCx, OverlayUpcall};
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
    /// Ping deadlines `(next_ping, peer)`, earliest first; one is live
    /// while its peer's record holds it.
    pings: BinaryHeap<Reverse<(Time, PeerAddr)>>,
    /// How many of them no record holds: a neighbour dropped leaves one.
    stale: usize,
    /// Ack deadlines `(sent + ping_timeout, peer, nonce)`, oldest first.
    ack_deadlines: VecDeque<(Time, PeerAddr, u64)>,
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
    /// period, noted in `wake`.
    pub(super) fn start(&mut self, io: &mut OverlayCx<'_>, wake: &mut Wake, peer: PeerAddr) {
        if self.watched.contains_key(&peer) {
            return;
        }
        // Phase jitter spreads ping load over the period.
        let jitter = Duration(io.rng().gen_range(0..=self.cfg.ping_period.nanos()));
        let next_ping = io.now() + jitter;
        self.pings.push(Reverse((next_ping, peer)));
        let w = Watched {
            next_ping,
            awaiting: None,
        };
        self.watched.insert(peer, w);
        io.wake_at(wake, next_ping);
    }

    /// Stops monitoring `peer`. Its ack wait, if any, ends with the record
    /// and leaves the deadline queue lazily, as does its ping deadline.
    pub(super) fn stop(&mut self, peer: PeerAddr) {
        self.stale += usize::from(self.watched.remove(&peer).is_some());
    }

    /// Pops the waits that ended from the front of the deadline queue.
    #[inline]
    fn drop_ended_waits(&mut self) {
        while let Some(&(_, peer, nonce)) = self.ack_deadlines.front() {
            if matches!(self.watched.get(&peer), Some(w) if w.awaiting == Some(nonce)) {
                break;
            }
            self.ack_deadlines.pop_front();
        }
    }

    /// The earliest ping deadline a record still holds, `(at, peer)`; the
    /// ones ahead of it that none holds leave the queue.
    #[inline]
    fn first_ping(&mut self) -> Option<(Time, PeerAddr)> {
        while let Some(&Reverse((at, peer))) = self.pings.peek() {
            if self.stale == 0 || self.watched.get(&peer).is_some_and(|w| w.next_ping == at) {
                return Some((at, peer));
            }
            self.pings.pop();
            self.stale -= 1;
        }
        None
    }

    /// The earliest deadline of a wait that has not ended, and of a ping.
    #[inline]
    pub(super) fn next_deadlines(&mut self) -> [Option<Time>; 2] {
        self.drop_ended_waits();
        let ack = self.ack_deadlines.front().map(|w| w.0);
        [ack, self.first_ping().map(|p| p.0)]
    }
}

impl OverlayNode {
    /// Whether `peer` is currently a monitored neighbor.
    pub fn is_neighbor(&self, peer: PeerAddr) -> bool {
        self.live.watched.contains_key(&peer)
    }

    /// When `peer`'s next ping is due; `None` when it is not monitored
    /// (visibility for tests).
    pub fn next_ping(&self, peer: PeerAddr) -> Option<Time> {
        self.live.watched.get(&peer).map(|w| w.next_ping)
    }

    /// Pings every neighbour whose ping is due at `now`, in deadline order.
    #[inline]
    pub(super) fn send_due_pings(&mut self, io: &mut OverlayCx<'_>) {
        while let Some((_, peer)) = self.live.first_ping().filter(|p| p.0 <= io.now()) {
            self.live.pings.pop();
            self.ping(io, peer);
        }
    }

    /// Sends `peer` its next ping, carrying the client's digest for the
    /// link, and queues the ack deadline, which replaces any wait still
    /// outstanding on the peer, and the next ping's.
    #[inline]
    fn ping(&mut self, io: &mut OverlayCx<'_>, peer: PeerAddr) {
        let live = &mut self.live;
        live.next_nonce += 1;
        let nonce = live.next_nonce;
        let hash = io.link_digest(peer);
        io.send(peer, OverlayMsg::Ping { nonce, hash });
        self.stats.pings_sent += 1;
        live.ack_deadlines
            .push_back((io.now() + live.cfg.ping_timeout, peer, nonce));
        let next_ping = io.now() + live.cfg.ping_period;
        live.pings.push(Reverse((next_ping, peer)));
        let w = Watched {
            next_ping,
            awaiting: Some(nonce),
        };
        live.watched.insert(peer, w);
    }

    /// An ack from `peer`: the one carrying the nonce it awaits ends its
    /// wait and hands the client its digest.
    #[inline]
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
                    hash: hash.unwrap_or(Digest::ZERO),
                });
            }
        }
    }

    /// Every neighbour whose wait is still outstanding at its deadline
    /// dies, in send order.
    #[inline]
    pub(super) fn sweep_ack_deadlines(&mut self, io: &mut OverlayCx<'_>) {
        let now = io.now();
        loop {
            self.live.drop_ended_waits();
            let Some(&(at, peer, _)) = self.live.ack_deadlines.front() else {
                return;
            };
            if at > now {
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
    use crate::io::OverlayUpcall;
    use crate::messages::OverlayMsg;
    use fuse_util::Time;

    /// One wake-up serves every outstanding ping: A is pinged at ta and
    /// acks, B is pinged at tb, less than a timeout later, and stays
    /// silent; a third neighbour's first ping comes after. After B's
    /// ping the node asks for a wake-up at B's deadline, a wake-up at
    /// ta+20 s finds A's wait ended, and B dies at exactly tb+20 s.
    #[test]
    fn one_ack_timer_sweeps_every_ping_at_its_own_deadline() {
        let (mut n, mut io) = node_with(10, &[20, 30, 40]);
        let timeout = OverlayConfig::default().ping_timeout;
        let mut first = [20, 30, 40].map(|p| (n.next_ping(p).expect("admitted"), p));
        first.sort();
        let [(ta, a), (tb, b), _] = first;
        assert!(tb < ta + timeout, "the seed pings {a} at {ta}, {b} at {tb}");
        io.now = ta;
        io.on_wake(&mut n);
        let nonce = io.nonce_to(a);
        let ack = OverlayMsg::PingAck { nonce, hash: None };
        io.on_message(&mut n, a, ack);
        assert!(
            n.live.ack_deadlines.is_empty(),
            "A's ended wait leaves at once"
        );
        io.wakes.clear();
        io.now = tb;
        io.on_wake(&mut n);
        assert_eq!(io.nonce_to(b), nonce + 1, "B is pinged");
        assert_eq!(io.wakes, [timeout], "the wake-up follows B's deadline");

        // A wake-up at A's old deadline finds its wait ended.
        io.wakes.clear();
        io.now = ta + timeout;
        io.on_wake(&mut n);
        assert!(
            n.is_neighbor(a) && n.is_neighbor(b),
            "the wake-up at ta+20 s kills no one"
        );
        assert!(io.wakes.is_empty(), "B's wake-up is still pending");
        assert_eq!(n.stats.neighbors_died, 0);

        io.now = tb + timeout;
        io.on_wake(&mut n);
        assert!(!n.is_neighbor(b) && n.is_neighbor(a));
        let died = |u: &OverlayUpcall| matches!(u, OverlayUpcall::LinkDown { peer, died: true } if *peer == b);
        assert_eq!(io.upcalls.iter().filter(|u| died(u)).count(), 1);
        assert_eq!(n.stats.neighbors_died, 1);
    }

    /// Nothing is cancelled. A neighbour dropped and re-admitted within one
    /// period starts a chain of its own, and the wake-up its first chain
    /// asked for finds that chain's deadline gone, so the neighbour is
    /// pinged exactly once a period, acked every time, over three periods.
    #[test]
    fn a_readmitted_neighbour_keeps_one_ping_chain() {
        let (mut n, mut io) = node_with(10, &[20]);
        let period = OverlayConfig::default().ping_period;
        // Every wake-up asked for, by (deadline, request order), as a
        // kernel keeps them.
        let mut queue: Vec<(Time, usize)> = Vec::new();
        let mut asked = 0;
        let mut take = |io: &mut TestIo, queue: &mut Vec<_>| {
            for after in io.wakes.drain(..) {
                asked += 1;
                queue.push((io.now + after, asked));
            }
            queue.sort();
        };
        take(&mut io, &mut queue);
        let first = queue.first().expect("admission asks for a wake-up").0;

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

        let end = io.now + period.saturating_mul(3);
        let mut pings = Vec::new();
        while queue.first().is_some_and(|e| e.0 <= end) {
            let (at, _) = queue.remove(0);
            io.now = at;
            io.sent.clear();
            io.on_wake(&mut n);
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
