//! Neighbour liveness (paper §6.3: FUSE piggybacks its per-link digest on
//! the overlay's pings and acks, §7.1: a 60 s ping period and a 20 s
//! timeout).
//!
//! This module alone writes the monitored-neighbour list, the node's two
//! liveness instants and the nonce counter; [`Liveness`]' fields are
//! private to it. It keeps no digest: a ping and an ack each read theirs
//! from the sink as they are built. The node pings all its monitored
//! neighbours in one round a period, from the one random phase its first
//! neighbour drew: at a round every neighbour gets a fresh nonce, peers
//! ascending. The invariant it keeps: every neighbour still owing its
//! round's nonce at the round's sweep, `ping_timeout` after it, is
//! declared dead then, peers ascending, and no other is. A neighbour
//! admitted between rounds is first pinged at the next; one dropped takes
//! its nonce with it, so re-admitted it owes nothing. The sweep comes
//! before a round due at the same instant, and `ping_timeout <
//! ping_period` puts each sweep before the next round. An ack or a drop
//! touches neither instant, and the node's one wake-up follows the earlier.

use rand::Rng;

use fuse_util::{Duration, PeerAddr, Time, Wake};
use fuse_wire::Digest;

use super::OverlayNode;
use crate::config::OverlayConfig;
use crate::io::{OverlayCx, OverlayUpcall};
use crate::messages::OverlayMsg;

/// The failure detector over the monitored neighbours.
#[derive(Clone, Default)]
pub(super) struct Liveness {
    cfg: OverlayConfig,
    /// The monitored neighbours, peers ascending, each with the nonce of
    /// its round's ping while that ping is unacknowledged.
    watched: Vec<(PeerAddr, Option<u64>)>,
    /// When the next round is due; `None` until the first neighbour.
    round: Option<Time>,
    /// When the last round's unanswered pings time out; `None` once swept.
    sweep: Option<Time>,
    next_nonce: u64,
}

impl Liveness {
    pub(super) fn new(cfg: OverlayConfig) -> Self {
        Liveness {
            cfg,
            ..Liveness::default()
        }
    }

    /// Starts monitoring `peer`, first pinged at the next round. The first
    /// neighbour draws the node's round phase, noted in `wake`.
    pub(super) fn start(&mut self, io: &mut OverlayCx<'_>, wake: &mut Wake, peer: PeerAddr) {
        let Err(i) = self.find(peer) else {
            return;
        };
        self.watched.insert(i, (peer, None));
        if self.round.is_none() {
            // Phase jitter spreads ping load over the period.
            let jitter = Duration(io.rng().gen_range(0..=self.cfg.ping_period.nanos()));
            let round = io.now() + jitter;
            self.round = Some(round);
            io.wake_at(wake, round);
        }
    }

    /// Stops monitoring `peer`; the nonce it owes, if any, goes with it.
    pub(super) fn stop(&mut self, peer: PeerAddr) {
        if let Ok(i) = self.find(peer) {
            self.watched.remove(i);
        }
    }

    /// Where `peer` is in the list, or where it would go.
    fn find(&self, peer: PeerAddr) -> Result<usize, usize> {
        self.watched.binary_search_by_key(&peer, |w| w.0)
    }

    /// The sweep's and the next round's instants.
    #[inline]
    pub(super) fn next_deadlines(&self) -> [Option<Time>; 2] {
        [self.sweep, self.round]
    }
}

impl OverlayNode {
    /// Whether `peer` is currently a monitored neighbor.
    pub fn is_neighbor(&self, peer: PeerAddr) -> bool {
        self.live.find(peer).is_ok()
    }

    /// When the node's next ping round is due; `None` before its first
    /// neighbour (visibility for tests).
    pub fn next_round(&self) -> Option<Time> {
        self.live.round
    }

    /// The round, if it has come: every monitored neighbour is pinged,
    /// peers ascending, each ping carrying the client's digest for the
    /// link and a fresh nonce the neighbour then owes. The sweep follows
    /// `ping_timeout` later, the next round a period later.
    #[inline]
    pub(super) fn ping_round(&mut self, io: &mut OverlayCx<'_>) {
        let now = io.now();
        let live = &mut self.live;
        if live.round.is_none_or(|at| at > now) {
            return;
        }
        for (peer, owed) in &mut live.watched {
            live.next_nonce += 1;
            let nonce = live.next_nonce;
            *owed = Some(nonce);
            let hash = io.link_digest(*peer);
            io.send(*peer, OverlayMsg::Ping { nonce, hash });
        }
        self.stats.pings_sent += live.watched.len() as u64;
        live.sweep = (!live.watched.is_empty()).then(|| now + live.cfg.ping_timeout);
        live.round = Some(now + live.cfg.ping_period);
    }

    /// An ack from `peer`: the one carrying the nonce it owes clears it and
    /// hands the client its digest.
    #[inline]
    pub(super) fn on_ping_ack(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        nonce: u64,
        hash: Option<Digest>,
    ) {
        let Ok(i) = self.live.find(from) else {
            return;
        };
        let owed = &mut self.live.watched[i].1;
        if *owed == Some(nonce) {
            *owed = None;
            self.stats.acks_received += 1;
            io.upcall(OverlayUpcall::PingHash {
                peer: from,
                hash: hash.unwrap_or(Digest::ZERO),
            });
        }
    }

    /// The sweep, if it has come: every neighbour still owing its round's
    /// nonce dies, peers ascending. A death's repair may admit neighbours,
    /// who owe nothing, and evict others, whose nonces go with them.
    #[inline]
    pub(super) fn sweep_unanswered(&mut self, io: &mut OverlayCx<'_>) {
        if self.live.sweep.is_none_or(|at| at > io.now()) {
            return;
        }
        self.live.sweep = None;
        while let Some(&(peer, _)) = self.live.watched.iter().find(|w| w.1.is_some()) {
            self.neighbor_dead(io, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{info, node_with, TestIo};
    use super::super::OverlayNode;
    use crate::config::OverlayConfig;
    use crate::io::OverlayUpcall;
    use crate::messages::OverlayMsg;
    use fuse_util::{Duration, PeerAddr, Time};

    /// The peers that died by timeout or break, in upcall order.
    fn deaths(io: &TestIo) -> Vec<PeerAddr> {
        let died = |u: &OverlayUpcall| match u {
            OverlayUpcall::LinkDown { peer, died: true } => Some(*peer),
            _ => None,
        };
        io.upcalls.iter().filter_map(died).collect()
    }

    /// One round pings every neighbour, peers ascending, and one sweep
    /// kills every neighbour still owing its nonce at exactly the round
    /// plus the timeout, peers ascending: A acks, B and C stay silent, a
    /// wake-up 1 ns before the sweep kills no one, and the sweep kills B
    /// then C.
    #[test]
    fn one_sweep_kills_every_silent_neighbour_at_the_round_deadline() {
        let (mut n, mut io) = node_with(10, &[40, 20, 30]);
        let timeout = OverlayConfig::default().ping_timeout;
        let round = n.next_round().expect("the first neighbour draws the phase");
        io.now = round;
        io.wakes.clear();
        io.on_wake(&mut n);
        let pinged: Vec<PeerAddr> = io.sent.iter().map(|s| s.0).collect();
        assert_eq!(pinged, [20, 30, 40], "one ping each, peers ascending");
        assert_eq!(io.wakes, [timeout], "the wake-up follows the sweep");
        let nonce = io.nonce_to(30);
        io.on_message(&mut n, 30, OverlayMsg::PingAck { nonce, hash: None });

        io.wakes.clear();
        io.now = Time(round.nanos() + timeout.nanos() - 1);
        io.on_wake(&mut n);
        assert!(deaths(&io).is_empty(), "no one dies before the sweep");
        assert!(io.wakes.is_empty(), "the sweep's wake-up is still pending");

        io.now = round + timeout;
        io.on_wake(&mut n);
        assert_eq!(deaths(&io), [20, 40]);
        assert!(n.is_neighbor(30));
        assert_eq!(n.stats.neighbors_died, 2);
        assert_eq!(
            n.next_round(),
            Some(round + OverlayConfig::default().ping_period)
        );
    }

    /// The wake-ups the node asked for since the last call, as instants;
    /// call it before the clock moves.
    fn asked(io: &mut TestIo) -> Vec<Time> {
        let now = io.now;
        io.wakes.drain(..).map(|after| now + after).collect()
    }

    /// Runs the node through the wake-ups `asked` before and every one it
    /// asks for until `end`, in (deadline, request order), as a kernel
    /// fires them. `answer` says what each ping meets, given its round's
    /// index: `true` acks it. Returns each ping as (peer, instant) and how
    /// many wake-ups the node asked for that are not maintenance's.
    fn run_rounds(
        n: &mut OverlayNode,
        io: &mut TestIo,
        before: Vec<Time>,
        end: Time,
        mut answer: impl FnMut(&mut OverlayNode, &mut TestIo, PeerAddr, usize) -> bool,
    ) -> (Vec<(PeerAddr, Time)>, usize) {
        let mut queue: Vec<(Time, usize)> = Vec::new();
        let (mut order, mut liveness_wakes) = (0, 0);
        let mut enqueue = |n: &OverlayNode, queue: &mut Vec<_>, ats: Vec<Time>| {
            for at in ats {
                order += 1;
                liveness_wakes += usize::from(n.maintenance != Some(at));
                queue.push((at, order));
            }
            queue.sort();
        };
        enqueue(n, &mut queue, before);
        let (mut pings, mut rounds) = (Vec::new(), 0);
        while queue.first().is_some_and(|e| e.0 <= end) {
            let (at, _) = queue.remove(0);
            io.now = at;
            io.sent.clear();
            io.on_wake(n);
            enqueue(n, &mut queue, asked(io));
            let round = rounds;
            for (to, msg) in std::mem::take(&mut io.sent) {
                if let OverlayMsg::Ping { nonce, .. } = msg {
                    rounds = round + 1;
                    pings.push((to, at));
                    if answer(n, io, to, round) {
                        let ack = OverlayMsg::PingAck { nonce, hash: None };
                        io.on_message(n, to, ack);
                    }
                    enqueue(n, &mut queue, asked(io));
                }
            }
        }
        (pings, liveness_wakes)
    }

    /// Nothing is cancelled and a neighbour has no ping chain of its own.
    /// Dropped and re-admitted before the first round, it is pinged at
    /// that round; dropped after its second round's ping and re-admitted
    /// before the sweep, it owes nothing and survives the sweep. It is
    /// pinged exactly once a round, a period apart, over three periods.
    #[test]
    fn a_readmitted_neighbour_is_pinged_once_a_round() {
        let (mut n, mut io) = node_with(10, &[20, 30]);
        let period = OverlayConfig::default().ping_period;
        let round = n.next_round().expect("the first neighbour draws the phase");
        let back = |n: &mut OverlayNode, io: &mut TestIo| {
            io.on_link_broken(n, 20);
            assert!(!n.is_neighbor(20));
            let msg = OverlayMsg::Announce {
                info: info(20),
                want_reply: false,
            };
            io.on_message(n, 20, msg);
            assert!(n.is_neighbor(20), "the announce re-admits 20");
        };
        let mut before = asked(&mut io);
        io.now = Time(round.nanos() / 2);
        back(&mut n, &mut io);
        assert_eq!(n.next_round(), Some(round), "re-admission moves no round");
        before.extend(asked(&mut io));

        let end = round + period.saturating_mul(2) + Duration(1);
        let (pings, _) = run_rounds(&mut n, &mut io, before, end, |n, io, to, round| {
            let readmit = to == 20 && round == 1;
            if readmit {
                io.now += Duration::from_secs(1);
                back(n, io);
            }
            !readmit
        });
        assert_eq!(deaths(&io), [20, 20], "20 died by its two breaks only");
        assert!(n.is_neighbor(20) && n.is_neighbor(30));
        let to_20: Vec<Time> = pings.iter().filter(|p| p.0 == 20).map(|p| p.1).collect();
        let rounds: Vec<Time> = (0..3).map(|i| round + period.saturating_mul(i)).collect();
        assert_eq!(to_20, rounds, "one ping a round: {pings:?}");
    }

    /// However many neighbours it monitors, a node asks for two liveness
    /// wake-ups a period: its round and the round's sweep.
    #[test]
    fn k_neighbours_cost_two_wake_ups_a_period() {
        let others: Vec<usize> = (11..=22).chain(40..=45).collect();
        let (mut n, mut io) = node_with(10, &others);
        let k = n.neighbors().len();
        assert!(k >= 12, "{k} neighbours");
        let period = OverlayConfig::default().ping_period;
        let round = n.next_round().expect("the first neighbour draws the phase");
        // Admission asked for the first round; five rounds and their
        // sweeps follow.
        let end = round + period.saturating_mul(4) + OverlayConfig::default().ping_timeout;
        let before = asked(&mut io);
        let (pings, wakes) = run_rounds(&mut n, &mut io, before, end, |_, _, _, _| true);
        assert_eq!(pings.len(), 5 * k, "every neighbour pinged at every round");
        assert_eq!(wakes, 1 + 2 * 5, "two wake-ups a period for {k} neighbours");
        assert_eq!(n.stats.neighbors_died, 0);
    }
}
