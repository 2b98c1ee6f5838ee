//! The node's one link-expiry timer against the per-(group, link) timers
//! it replaced.
//!
//! One root [`FuseStack`] is driven by hand: links are installed by
//! delivering `InstallChecking` envelopes, refreshed by agreeing pings and
//! reconcile replies, removed by soft notifications, and time advances
//! through the stack's own timer commands. Beside it runs a reference map
//! of one deadline per (group, link), kept the old way — every install,
//! agreement and reconcile agreement pushes that link's deadline to `now +
//! link_failure_timeout`. Every expiry the stack reports must happen at
//! exactly the reference instant: none early, none missing, and the links
//! one fire expires fail peers in ascending address order, each peer's in
//! `FuseId` order.
//!
//! The peers are also the root's overlay neighbours, so it pings them on
//! its own schedule. Every `Ping` and `PingAck` that leaves the stack must
//! carry the digest of the groups monitoring that link at that moment,
//! although the stack only recomputes a digest when a ping reads it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use fuse_core::{
    AppCall, FuseConfig, FuseEvent, FuseId, FuseMsg, FuseStack, Input, InstallChecking, Output,
    StackMsg, NS_FUSE,
};
use fuse_overlay::{NodeInfo, NodeName, OverlayConfig, OverlayMsg};
use fuse_util::{Duration, PeerAddr, Time, TimerKey};
use fuse_wire::{Digest, Encode, Sha1};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ME: PeerAddr = 1;
const PEERS: [PeerAddr; 3] = [10, 11, 12];
const GROUPS: usize = 5;

fn info(p: PeerAddr) -> NodeInfo {
    NodeInfo::new(p, NodeName::numbered(p as usize))
}

/// Repair rounds never time out inside a test, so a group only loses links
/// the ways the test removes them.
fn config() -> FuseConfig {
    FuseConfig::builder()
        .root_repair_timeout(Duration::from_secs(10_000_000))
        .build()
        .expect("valid config")
}

/// What one fired timer did to the liveness trees.
#[derive(Debug)]
struct Fire {
    at: Time,
    /// (peer, group) links standing before the fire.
    before: BTreeSet<(PeerAddr, FuseId)>,
    /// (peer, group) links gone after the fire, sorted.
    expired: Vec<(PeerAddr, FuseId)>,
    /// (recipient, group) of every `SoftNotification` sent, in emission
    /// order.
    softs: Vec<(PeerAddr, FuseId)>,
}

impl Fire {
    /// The soft notifications the fire sends if it fails `expired` in the
    /// sweep's order, (peer, group) ascending: each failure tells the
    /// group's links still standing.
    fn softs_in_sweep_order(&self) -> Vec<(PeerAddr, FuseId)> {
        let mut standing = self.before.clone();
        let mut out = Vec::new();
        for link in &self.expired {
            standing.remove(link);
            out.extend(standing.iter().filter(|l| l.1 == link.1));
        }
        out
    }
}

/// `softs` with each run of one group's notifications sorted by
/// recipient: one failure tells its group's links in the links map's
/// order, which the sweep's order does not fix.
fn runs_sorted(mut softs: Vec<(PeerAddr, FuseId)>) -> Vec<(PeerAddr, FuseId)> {
    for run in softs.chunk_by_mut(|x, y| x.1 == y.1) {
        run.sort_unstable();
    }
    softs
}

/// A root stack with `GROUPS` created groups and a manual clock.
#[derive(Clone)]
struct Rig {
    stack: FuseStack,
    rng: StdRng,
    now: Time,
    /// Armed timers by (deadline, arm order). Every key is fed back; one
    /// whose deadline moved finds nothing due.
    timers: BinaryHeap<Reverse<(Time, u64, TimerKey)>>,
    armed: u64,
    ids: Vec<FuseId>,
    timeout: Duration,
    grace: Duration,
    /// Outgoing pings and acks whose digest was checked.
    digests_checked: u64,
    /// Nonce of the root's unanswered ping to each peer.
    pings: BTreeMap<PeerAddr, u64>,
    /// When set, the `Debug` form of every output, in order.
    log: Option<Vec<String>>,
}

impl Rig {
    fn new() -> Rig {
        let cfg = config();
        // Unanswered pings never time out, so no neighbour dies of them.
        let ov_cfg = OverlayConfig {
            ping_timeout: Duration::from_secs(10_000_000),
            ..OverlayConfig::default()
        };
        let mut stack = FuseStack::new(info(ME), None, ov_cfg, cfg.clone());
        stack
            .overlay
            .preload_tables(PEERS.map(info).to_vec(), Vec::new(), Vec::new());
        let mut rig = Rig {
            timeout: cfg.link_failure_timeout,
            grace: cfg.reconcile_grace,
            stack,
            rng: StdRng::seed_from_u64(0xDEAD),
            now: Time::ZERO,
            timers: BinaryHeap::new(),
            armed: 0,
            ids: Vec::new(),
            digests_checked: 0,
            pings: BTreeMap::new(),
            log: None,
        };
        rig.feed(Input::Boot);
        for _ in 0..GROUPS {
            let ticket = rig
                .stack
                .api(rig.now, &mut rig.rng)
                .create_group(PEERS.map(info).to_vec());
            let id = ticket.id();
            rig.drain();
            let mut created = false;
            for p in PEERS {
                let outs = rig.feed_fuse(p, FuseMsg::GroupCreateReply { id, ok: true });
                created |= outs.iter().any(|o| {
                    matches!(
                        o,
                        Output::App(AppCall::Event(FuseEvent::Created { result: Ok(_), .. }))
                    )
                });
            }
            assert!(created, "group {id:?} was not created");
            rig.ids.push(id);
        }
        rig.ids.sort_unstable();
        rig
    }

    /// Collects the stack's queued outputs, scheduling its timer requests
    /// and checking the digest on every ping and ack.
    fn drain(&mut self) -> Vec<Output> {
        let mut outs = Vec::new();
        while let Some(o) = self.stack.poll_output() {
            match &o {
                Output::SetTimer { key, after } => {
                    self.armed += 1;
                    self.timers
                        .push(Reverse((self.now + *after, self.armed, *key)));
                }
                Output::Send {
                    to,
                    msg: StackMsg::Overlay(m),
                } => {
                    let hash = match m {
                        OverlayMsg::Ping { nonce, hash } => {
                            self.pings.insert(*to, *nonce);
                            Some(hash)
                        }
                        OverlayMsg::PingAck { hash, .. } => Some(hash),
                        _ => None,
                    };
                    if let Some(&hash) = hash {
                        let subs = self.stack.fuse.subscriptions().subscribers(*to);
                        assert_eq!(hash, digest_of(subs.iter().copied()), "digest to {to}");
                        self.digests_checked += 1;
                    }
                }
                _ => {}
            }
            if let Some(log) = &mut self.log {
                log.push(format!("{o:?}"));
            }
            outs.push(o);
        }
        outs
    }

    fn feed(&mut self, input: Input) -> Vec<Output> {
        self.stack.handle(self.now, &mut self.rng, input);
        self.drain()
    }

    fn feed_fuse(&mut self, from: PeerAddr, msg: FuseMsg) -> Vec<Output> {
        let msg = StackMsg::Fuse(msg);
        self.feed(Input::Message { from, msg })
    }

    /// Delivers `peer`'s `InstallChecking` branch for `id` at this root: the
    /// root monitors the link to `peer` from here on.
    fn install(&mut self, id: FuseId, peer: PeerAddr) -> Vec<Output> {
        let ic = InstallChecking {
            id,
            seq: u64::MAX,
            member: info(peer),
            root: info(ME),
        };
        let msg = StackMsg::Overlay(OverlayMsg::Routed {
            src: info(peer),
            target: NodeName::numbered(ME as usize),
            ttl: 8,
            class: 0,
            payload: ic.to_bytes(),
            path: Vec::new(),
        });
        self.feed(Input::Message { from: peer, msg })
    }

    /// A ping from `peer` piggybacking `hash`; returns the digest the stack
    /// answered with.
    fn ping(&mut self, peer: PeerAddr, hash: Option<Digest>) -> Option<Digest> {
        let msg = StackMsg::Overlay(OverlayMsg::Ping { nonce: 7, hash });
        let outs = self.feed(Input::Message { from: peer, msg });
        outs.iter()
            .find_map(|o| match o {
                Output::Send {
                    msg: StackMsg::Overlay(OverlayMsg::PingAck { hash, .. }),
                    ..
                } => Some(*hash),
                _ => None,
            })
            .expect("every ping is acked")
    }

    /// `peer` acks the root's unanswered ping, piggybacking `hash`; returns
    /// whether a ping was unanswered.
    fn ack(&mut self, peer: PeerAddr, hash: Option<Digest>) -> bool {
        let Some(nonce) = self.pings.remove(&peer) else {
            return false;
        };
        let msg = StackMsg::Overlay(OverlayMsg::PingAck { nonce, hash });
        self.feed(Input::Message { from: peer, msg });
        true
    }

    fn reconcile_reply(&mut self, peer: PeerAddr, theirs: &[FuseId]) {
        let links = theirs.iter().map(|&id| (id, 0)).collect();
        self.feed_fuse(peer, FuseMsg::ReconcileReply { links });
    }

    /// A soft notification for `id` from `peer`: the root drops the whole
    /// damaged tree.
    fn soft(&mut self, id: FuseId, peer: PeerAddr) -> Vec<Output> {
        self.feed_fuse(peer, FuseMsg::SoftNotification { id, seq: u64::MAX })
    }

    /// Every (peer, group) link the stack monitors right now.
    fn links(&self) -> BTreeSet<(PeerAddr, FuseId)> {
        let fuse = &self.stack.fuse;
        let of = |&id: &FuseId| fuse.tree_links(id).into_iter().map(move |p| (p, id));
        self.ids.iter().flat_map(of).collect()
    }

    /// Fires every timer due by `until`, in deadline order, and reports the
    /// fires that expired a link.
    fn run_until(&mut self, until: Time) -> Vec<Fire> {
        let mut fires = Vec::new();
        while let Some(&Reverse((at, _, key))) = self.timers.peek() {
            if at > until {
                break;
            }
            self.timers.pop();
            self.now = at;
            let before = self.links();
            let expired_before = self.stack.fuse.obs().links_expired;
            let outs = self.feed(Input::Timer(key));
            let after = self.links();
            let expired: Vec<_> = before.difference(&after).copied().collect();
            assert_eq!(
                self.stack.fuse.obs().links_expired - expired_before,
                expired.len() as u64,
                "a timer removes links only by expiring them"
            );
            assert!(after.is_subset(&before), "a timer installs no link");
            if expired.is_empty() {
                continue;
            }
            let softs = outs.iter().filter_map(|o| match o {
                Output::Send {
                    to,
                    msg: StackMsg::Fuse(FuseMsg::SoftNotification { id, .. }),
                } => Some((*to, *id)),
                _ => None,
            });
            fires.push(Fire {
                at,
                before,
                expired,
                softs: softs.collect(),
            });
        }
        self.now = until;
        fires
    }

    /// Armed `NS_FUSE` timers due within one `link_failure_timeout`: the
    /// expiry timers, once the creation rounds' install wait is over (a
    /// repair round's reply deadline here is `config`'s, far off).
    fn expiry_timers(&self) -> usize {
        let horizon = self.now + self.timeout;
        let near = |t: &&Reverse<(Time, u64, TimerKey)>| t.0 .2.ns == NS_FUSE && t.0 .0 <= horizon;
        self.timers.iter().filter(near).count()
    }

    /// The expiries by `until` as (instant, peer, group), in fire order.
    fn expiries_until(&mut self, until: Time) -> Vec<(Time, PeerAddr, FuseId)> {
        expiries(self.run_until(until))
    }
}

/// What `fires` expired as (instant, peer, group), in fire order.
fn expiries(fires: Vec<Fire>) -> Vec<(Time, PeerAddr, FuseId)> {
    let flat = |f: Fire| f.expired.into_iter().map(move |(p, id)| (f.at, p, id));
    fires.into_iter().flat_map(flat).collect()
}

fn secs(s: u64) -> Time {
    Time::ZERO + Duration::from_secs(s)
}

fn fuse_timer_sets(outs: &[Output]) -> usize {
    let is_set = |o: &&Output| matches!(o, Output::SetTimer { key, .. } if key.ns == NS_FUSE);
    outs.iter().filter(is_set).count()
}

/// The §6.1 piggyback digest over the groups monitored on one link.
fn digest_of(ids: impl IntoIterator<Item = FuseId>) -> Option<Digest> {
    let mut h = Sha1::new();
    let mut any = false;
    for id in ids {
        h.update(&id.0.to_be_bytes());
        any = true;
    }
    any.then(|| h.finalize())
}

#[test]
fn a_link_installed_after_the_peer_timer_was_armed_has_its_own_deadline() {
    let mut rig = Rig::new();
    let (g1, g2, a) = (rig.ids[0], rig.ids[1], PEERS[0]);
    let t = rig.timeout;
    assert_eq!(fuse_timer_sets(&rig.install(g1, a)), 1, "first link arms");
    rig.run_until(secs(5));
    assert_eq!(fuse_timer_sets(&rig.install(g2, a)), 0, "one timer a peer");
    assert_eq!(
        rig.expiries_until(secs(1_000)),
        [(Time::ZERO + t, a, g1), (secs(5) + t, a, g2)]
    );
}

/// Past `INSTALL_WAIT` the creation rounds have given way to repair rounds
/// awaiting replies that never come, so tearing a tree down asks for a
/// repair without arming a timer: every `NS_FUSE` timer command a step
/// emits is then the expiry timer's.
fn after_install_wait(rig: &mut Rig) -> Time {
    let start = secs(60);
    rig.run_until(start);
    start
}

#[test]
fn last_unsubscribe_emits_no_timer_command_and_a_resubscribe_under_an_armed_sweep_arms_nothing() {
    let mut rig = Rig::new();
    let (g, a) = (rig.ids[0], PEERS[0]);
    let t = rig.timeout;
    let start = after_install_wait(&mut rig);
    let at = |s: u64| start + Duration::from_secs(s);
    assert_eq!(fuse_timer_sets(&rig.install(g, a)), 1, "first link arms");
    rig.run_until(at(10));
    assert_eq!(rig.ping(a, digest_of([g])), digest_of([g]));
    rig.run_until(at(12));
    let outs = rig.soft(g, a);
    let fuse_cmd = |o: &Output| matches!(o, Output::SetTimer { key, .. } if key.ns == NS_FUSE);
    assert!(!outs.iter().any(fuse_cmd), "{outs:?}");
    assert!(rig.links().is_empty());
    // No group monitors the link: the empty hashes agree, and nothing may
    // remember that.
    rig.run_until(at(15));
    assert_eq!(rig.ping(a, None), None);
    assert_eq!(rig.run_until(at(20)).len(), 0);
    assert_eq!(rig.expiry_timers(), 1, "the sweep is still armed");
    assert_eq!(
        fuse_timer_sets(&rig.install(g, a)),
        0,
        "the armed sweep serves it"
    );
    assert_eq!(rig.expiries_until(at(1_000)), [(at(20) + t, a, g)]);
}

#[test]
fn links_due_at_one_instant_expire_in_fuse_id_order() {
    let mut rig = Rig::new();
    let (a, b) = (PEERS[0], PEERS[1]);
    // Installed in scrambled order at different times; one agreement at
    // 20 s puts every link to `a` on the same deadline. The links to `b`
    // come due at the same instant; they carry the soft notifications
    // that show the order.
    for (k, i) in [3, 0, 4, 1, 2].into_iter().enumerate() {
        rig.run_until(secs(k as u64));
        rig.install(rig.ids[i], a);
    }
    rig.run_until(secs(20));
    assert_eq!(
        rig.ping(a, digest_of(rig.ids.clone())),
        digest_of(rig.ids.clone())
    );
    for i in [2, 4, 0, 3, 1] {
        rig.install(rig.ids[i], b);
    }
    let fires = rig.run_until(secs(20) + rig.timeout);
    assert_eq!(fires.len(), 1, "one sweep: {fires:?}");
    assert_eq!(fires[0].at, secs(20) + rig.timeout);
    assert_eq!(fires[0].expired.len(), 2 * GROUPS, "a's and b's links");
    // Each of `a`'s links fails first and tells `b`; `b`'s then fail with
    // nothing left to tell.
    let to_b: Vec<_> = rig.ids.iter().map(|&id| (b, id)).collect();
    assert_eq!(fires[0].softs, to_b, "a's links in FuseId order, then b's");
}

#[test]
fn one_expiry_timer_serves_every_peer() {
    let mut rig = Rig::new();
    let (a, b, c) = (PEERS[0], PEERS[1], PEERS[2]);
    let g = rig.ids.clone();
    let t = rig.timeout;
    let start = after_install_wait(&mut rig);
    let at = |s: u64| start + Duration::from_secs(s);
    let agree = |rig: &mut Rig, peer, hash| assert_eq!(rig.ping(peer, hash), hash);
    let mut seen = Vec::new();
    // Staggered installs and agreements on three peers, then silence.
    for s in 0..=300 {
        seen.extend(rig.expiries_until(at(s)));
        match s {
            0 => {
                rig.install(g[0], a);
                rig.install(g[1], a);
            }
            10 => {
                rig.install(g[2], b);
                rig.install(g[0], b);
            }
            20 => {
                rig.install(g[3], c);
            }
            40 => agree(&mut rig, a, digest_of([g[0], g[1]])),
            60 => agree(&mut rig, c, digest_of([g[3]])),
            70 => {
                rig.install(g[4], a);
            }
            80 => agree(&mut rig, b, digest_of([g[0], g[2]])),
            _ => {}
        }
        let n = rig.expiry_timers();
        assert!(n <= 1, "{n} expiry timers at {s} s");
    }
    // The reference: each link at `max(installed, agreed) + T`, by
    // instant, then peer, then group.
    let mut reference = vec![
        (at(40) + t, a, g[0]),
        (at(40) + t, a, g[1]),
        (at(70) + t, a, g[4]),
        (at(80) + t, b, g[0]),
        (at(80) + t, b, g[2]),
        (at(60) + t, c, g[3]),
    ];
    reference.sort_unstable();
    assert_eq!(seen, reference);
    assert!(rig.links().is_empty());
    assert_eq!(rig.expiry_timers(), 0, "nothing left to watch");
}

#[test]
fn a_digest_is_computed_when_a_ping_reads_a_changed_set_and_only_then() {
    let mut rig = Rig::new();
    let (g1, g2, a) = (rig.ids[0], rig.ids[1], PEERS[0]);
    let computed = |rig: &Rig| rig.stack.fuse.obs().hashes_computed;
    let before = computed(&rig);
    rig.install(g1, a);
    rig.install(g2, a);
    rig.soft(g2, a);
    assert_eq!(computed(&rig), before, "a link change computes no digest");
    assert_eq!(rig.ping(a, digest_of([g1])), digest_of([g1]));
    assert_eq!(computed(&rig), before + 1, "the ack reads the changed set");
    assert_eq!(rig.ping(a, digest_of([g1])), digest_of([g1]));
    assert_eq!(
        computed(&rig),
        before + 1,
        "an unchanged set is not rehashed"
    );
    // The root's own pings read it too; every peer comes due within one
    // period, and only `a`'s set changed.
    rig.install(g2, a);
    let checked = rig.digests_checked;
    rig.run_until(rig.now + Duration::from_secs(60));
    assert_eq!(rig.digests_checked - checked, PEERS.len() as u64);
    assert_eq!(computed(&rig), before + 2);
    assert!(rig.stack.fuse.hash_cache_consistent(&rig.stack.overlay));
}

#[test]
fn a_cloned_stack_behaves_like_the_original() {
    let mut rig = Rig::new();
    let (g1, g2, g3) = (rig.ids[0], rig.ids[1], rig.ids[2]);
    let (a, b, c) = (PEERS[0], PEERS[1], PEERS[2]);
    rig.install(g1, a);
    rig.install(g2, a);
    rig.install(g3, b);
    // A soft notification sends the root into repair, every member answers
    // the round, and the links left unrefreshed expire.
    rig.soft(g2, a);
    rig.run_until(secs(5));
    for p in PEERS {
        rig.feed_fuse(
            p,
            FuseMsg::GroupRepairReply {
                id: g2,
                seq: 1,
                ok: true,
            },
        );
    }
    rig.run_until(secs(200));
    let obs = rig.stack.fuse.obs();
    assert!(obs.repairs_started > 0 && obs.links_expired > 0, "{obs:?}");

    let mut copy = rig.clone();
    let script = |r: &mut Rig| {
        r.log = Some(Vec::new());
        r.install(g1, c);
        r.ping(c, digest_of([g1]));
        r.ping(a, digest_of([FuseId(7)]));
        r.reconcile_reply(c, &[]);
        r.ack(c, None);
        r.install(g3, b);
        r.soft(g3, b);
        r.feed(Input::LinkBroken { peer: a });
        r.stack.api(r.now, &mut r.rng).signal_failure(g1);
        r.drain();
        r.run_until(r.now + Duration::from_secs(400));
        r.log.take().expect("logging")
    };
    let (ours, theirs) = (script(&mut rig), script(&mut copy));
    for kind in ["SoftNotification", "HardNotification", "Notified"] {
        assert!(
            ours.iter().any(|o| o.contains(kind)),
            "no {kind} in {ours:#?}"
        );
    }
    assert_eq!(ours, theirs);
    assert_eq!(rig.stack.fuse.obs(), copy.stack.fuse.obs());
}

/// One deadline per (peer, group), kept the way the per-link timers kept it.
#[derive(Default)]
struct Model {
    links: BTreeMap<(PeerAddr, FuseId), RefLink>,
}

struct RefLink {
    installed_at: Time,
    deadline: Time,
}

impl Model {
    fn on(&self, peer: PeerAddr) -> Vec<FuseId> {
        let ids = self.links.keys().filter(|k| k.0 == peer).map(|k| k.1);
        ids.collect()
    }

    /// Removes and returns what expires by `until`, as (instant, peer, id).
    fn expire_until(&mut self, until: Time) -> Vec<(Time, PeerAddr, FuseId)> {
        let due = |(&(p, id), l): (&(PeerAddr, FuseId), &RefLink)| {
            (l.deadline <= until).then_some((l.deadline, p, id))
        };
        let mut out: Vec<_> = self.links.iter().filter_map(due).collect();
        for &(_, p, id) in &out {
            self.links.remove(&(p, id));
        }
        out.sort_unstable();
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_link_expires_at_exactly_its_reference_deadline(
        ops in prop::collection::vec((0u8..10, any::<u8>(), any::<u8>(), any::<u16>()), 1..80),
    ) {
        let mut rig = Rig::new();
        let mut model = Model::default();
        let t = rig.timeout;
        for (kind, x, y, z) in ops {
            let id = rig.ids[x as usize % GROUPS];
            let peer = PEERS[y as usize % PEERS.len()];
            let now = rig.now;
            match kind {
                0..=2 => {
                    rig.install(id, peer);
                    let fresh = RefLink { installed_at: now, deadline: now + t };
                    model.links.entry((peer, id)).or_insert(fresh).deadline = now + t;
                }
                3 => {
                    let hash = digest_of(model.on(peer));
                    prop_assert_eq!(rig.ping(peer, hash), hash, "digests must agree");
                    for (_, l) in model.links.iter_mut().filter(|(k, _)| k.0 == peer) {
                        l.deadline = now + t;
                    }
                }
                4 => {
                    // A stale digest: lists are exchanged, nothing refreshes.
                    rig.ping(peer, digest_of([FuseId(u64::from(z))]));
                }
                5 => {
                    // The peer agrees on the subset `x` picks (and names a
                    // group it alone knows); the rest is torn down once out
                    // of its grace period.
                    let mine = model.on(peer);
                    let agreed = |&(i, _): &(usize, &FuseId)| x >> i & 1 == 1;
                    let mut theirs: Vec<FuseId> =
                        mine.iter().enumerate().filter(agreed).map(|(_, &id)| id).collect();
                    theirs.push(FuseId(u64::from(z)));
                    rig.reconcile_reply(peer, &theirs);
                    for id in mine {
                        let l = model.links.get_mut(&(peer, id)).expect("listed");
                        if theirs.contains(&id) {
                            l.deadline = now + t;
                        } else if now.since(l.installed_at) >= rig.grace {
                            model.links.remove(&(peer, id));
                        }
                    }
                }
                6 => {
                    rig.soft(id, peer);
                    model.links.retain(|k, _| k.1 != id);
                }
                7 => {
                    // An agreeing ack of the root's own ping, which may
                    // come before anything reread a digest the ops above
                    // left stale.
                    if rig.ack(peer, digest_of(model.on(peer))) {
                        for (_, l) in model.links.iter_mut().filter(|(k, _)| k.0 == peer) {
                            l.deadline = now + t;
                        }
                    }
                }
                _ => {
                    // Short steps land inside `reconcile_grace`, long ones
                    // let deadlines come.
                    let ms = if x & 1 == 0 { u64::from(z) % 6_000 } else { u64::from(z) * 2 };
                    let until = now + Duration::from_millis(ms);
                    let fires = rig.run_until(until);
                    for f in &fires {
                        prop_assert_eq!(
                            runs_sorted(f.softs.clone()),
                            runs_sorted(f.softs_in_sweep_order()),
                            "expiry out of (peer, FuseId) order: {:?}", f
                        );
                    }
                    let mut seen = expiries(fires);
                    seen.sort_unstable();
                    prop_assert_eq!(seen, model.expire_until(until));
                }
            }
            let expect: BTreeSet<_> = model.links.keys().copied().collect();
            prop_assert_eq!(rig.links(), expect, "link sets diverged after op {}", kind);
            prop_assert!(rig.stack.fuse.hash_cache_consistent(&rig.stack.overlay));
        }
        // Nothing left refreshes: every remaining link expires on time.
        let end = rig.now + t;
        let mut seen = rig.expiries_until(end);
        seen.sort_unstable();
        prop_assert_eq!(seen, model.expire_until(end));
        prop_assert!(rig.links().is_empty());
    }
}
