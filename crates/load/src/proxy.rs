//! The userspace fault proxy: one per destination node.
//!
//! `fuse-node` processes never talk to each other directly under the load
//! harness. Every node's `--peer j=<addr>` points at proxy *j*, which
//! reads the `u32-LE` hello naming the sender *i* (refusing one out of
//! range or naming *j* itself), dials node *j*'s real listener and
//! forwards the wire protocol **frame by frame** (the hello, then
//! `u32-LE length ‖ StackMsg` frames). Framing awareness is what turns a
//! byte pipe into a fault injector: each frame of the directed link
//! *(i → j)* is judged by [`Faults::judge`] over the fleet's one shared
//! state, the simulator's own [`FaultPlane`] plus [`Ambient`] conditioning:
//!
//! * **sever** — either endpoint disconnected: the stream is shut down and
//!   new ones refused; both nodes observe broken links (the chaos `disc`
//!   op, and `fuse-load`'s sever class);
//! * **swallow** — frames are read and silently discarded while both
//!   sockets stay open; *neither* endpoint sees EOF, so detection must
//!   ride the liveness machinery (blackholes and partitions, the §3.5
//!   content adversary, and Bernoulli loss at the link's injected rate
//!   composed with the ambient one);
//! * **forward** — after the ambient delay, each frame serialized behind
//!   earlier ones like a thin WAN pipe.
//!
//! Dropping whole frames is always safe: the stream stays frame-aligned,
//! exactly like the simulator's per-message fault plane.
//!
//! EOF propagates: when the client side dies (its process was killed) the
//! upstream connection is shut down too, so the far node's reader sees EOF
//! promptly — the proxy never masks real crash signals.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use fuse_core::StackMsg;
use fuse_net::FaultPlane;
use fuse_sim::ProcId;
use fuse_util::Payload;
use fuse_wire::{Decode, MAX_FRAME};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Conditioning on every link, on top of the plane: `fuse-load`'s
/// `--delay-ms`/`--loss-pct` and the chaos `lossramp` steps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ambient {
    /// Bernoulli per-frame loss probability in `[0, 1]`.
    pub loss: f64,
    /// Hold every forwarded frame this long.
    pub delay: Duration,
}

/// The fault state every proxy of a fleet reads per frame.
#[derive(Debug, Default)]
pub struct Faults {
    /// Disconnects, blackholes, partitions, class rules and pair loss, as
    /// the simulator keeps them.
    pub plane: FaultPlane,
    /// Fleet-wide delay and loss.
    pub ambient: Ambient,
}

/// What the proxy does with one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Write it upstream after this delay.
    Forward(Duration),
    /// Discard it, keeping both streams open.
    Swallow,
    /// Kill the stream.
    Sever,
}

impl Faults {
    /// Judges one frame of the directed link `from → to`. `rng` is drawn
    /// only when some loss applies; the payload is decoded only when a
    /// content rule exists.
    pub fn judge(&self, from: ProcId, to: ProcId, payload: &[u8], rng: &mut impl Rng) -> Verdict {
        let plane = &self.plane;
        if plane.is_disconnected(from) || plane.is_disconnected(to) {
            return Verdict::Sever;
        }
        if plane.blocked(from, to) {
            return Verdict::Swallow;
        }
        if !plane.class_drops().is_empty() {
            if let Ok(msg) = StackMsg::from_bytes(payload) {
                if plane.content_blocked(from, to, msg.class()) {
                    return Verdict::Swallow;
                }
            }
        }
        let loss = self.loss(from, to);
        if loss > 0.0 && rng.gen_bool(loss.clamp(0.0, 1.0)) {
            return Verdict::Swallow;
        }
        Verdict::Forward(self.ambient.delay)
    }

    /// The per-frame loss on `from → to`: the link's injected rate
    /// composed with the ambient one, each an independent coin.
    pub fn loss(&self, from: ProcId, to: ProcId) -> f64 {
        1.0 - (1.0 - self.ambient.loss) * (1.0 - self.plane.link_loss(from, to))
    }
}

/// The fault proxy in front of one node of an `n`-node fleet: listens on
/// an ephemeral loopback port and forwards every sender's stream to
/// `upstream` under the shared [`Faults`].
pub struct NodeProxy {
    addr: SocketAddr,
    link: Arc<Link>,
}

/// What every connection into one node's proxy shares.
struct Link {
    to: ProcId,
    n: usize,
    upstream: SocketAddr,
    faults: Arc<Mutex<Faults>>,
    /// Every live stream: its connection's number, the sender it
    /// carries, the socket.
    conns: Mutex<Vec<(u64, ProcId, TcpStream)>>,
    seed: u64,
    stop: AtomicBool,
}

impl NodeProxy {
    /// Binds the proxy for `node` and starts its accept loop. `seed` makes
    /// the loss coin deterministic per link and connection.
    pub fn spawn(
        node: ProcId,
        n: usize,
        upstream: SocketAddr,
        faults: Arc<Mutex<Faults>>,
        seed: u64,
    ) -> std::io::Result<NodeProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let link = Arc::new(Link {
            to: node,
            n,
            upstream,
            faults,
            conns: Mutex::new(Vec::new()),
            seed,
            stop: AtomicBool::new(false),
        });
        let shared = Arc::clone(&link);
        thread::spawn(move || {
            for (nth, conn) in (1u64..).zip(listener.incoming()) {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(client) = conn else { return };
                let link = Arc::clone(&shared);
                thread::spawn(move || link.pump(client, nth));
            }
        });
        Ok(NodeProxy { addr, link })
    }

    /// The loopback address nodes should treat as this node's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kills every live stream the shared plane now severs: all of them
    /// when this proxy's node is disconnected, else those from a
    /// disconnected sender.
    pub fn kill_severed(&self) {
        let faults = self.link.faults.lock().unwrap();
        let plane = &faults.plane;
        let all = plane.is_disconnected(self.link.to);
        self.link.conns.lock().unwrap().retain(|(_, from, s)| {
            let kill = all || plane.is_disconnected(*from);
            if kill {
                let _ = s.shutdown(Shutdown::Both);
            }
            !kill
        });
    }

    /// Stops accepting and kills live streams (teardown).
    pub fn stop(&self) {
        self.link.stop.store(true, Ordering::Relaxed);
        for (_, _, s) in self.link.conns.lock().unwrap().drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        // Unblock the accept loop so its thread exits.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for NodeProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Link {
    /// Carries the `nth` accepted connection until either side dies, the
    /// hello is refused or the plane severs the link, then closes both
    /// streams so each node sees EOF, and forgets them.
    fn pump(&self, mut client: TcpStream, nth: u64) {
        let mut up = None;
        let _ = self.forward(&mut client, &mut up, nth);
        let _ = client.shutdown(Shutdown::Both);
        if let Some(up) = up {
            let _ = up.shutdown(Shutdown::Both);
        }
        self.conns.lock().unwrap().retain(|c| c.0 != nth);
    }

    /// Reads the hello, dials upstream and forwards frame by frame. The
    /// node wire protocol is unidirectional (writers write, readers read),
    /// so one client→upstream pump carries everything.
    fn forward(&self, client: &mut TcpStream, up: &mut Option<TcpStream>, nth: u64) -> Option<()> {
        let mut hello = [0u8; 4];
        client.read_exact(&mut hello).ok()?;
        let from = ProcId::from_le_bytes(hello);
        if from as usize >= self.n || from == self.to {
            return None;
        }
        // Upstream down (e.g. its process was killed): the refused dial
        // closes the client, which surfaces as a broken link on the sender.
        let up = up.insert(TcpStream::connect(self.upstream).ok()?);
        // Register under the faults lock, so a disconnect either refuses
        // this stream here or finds it in `kill_severed`.
        {
            let faults = self.faults.lock().unwrap();
            if faults.plane.is_disconnected(from) || faults.plane.is_disconnected(self.to) {
                return None;
            }
            let streams = [
                (nth, from, client.try_clone().ok()?),
                (nth, from, up.try_clone().ok()?),
            ];
            self.conns.lock().unwrap().extend(streams);
        }
        let _ = up.set_nodelay(true);
        up.write_all(&hello).ok()?;
        let link = u64::from(from) << 32 | u64::from(self.to);
        let mut rng = StdRng::seed_from_u64(self.seed ^ link ^ nth.wrapping_mul(0x9e37_79b9));
        loop {
            let mut lenbuf = [0u8; 4];
            client.read_exact(&mut lenbuf).ok()?;
            let len = u32::from_le_bytes(lenbuf);
            if len > MAX_FRAME {
                // The node would close the stream on it; fail it here.
                return None;
            }
            let mut payload = vec![0u8; len as usize];
            client.read_exact(&mut payload).ok()?;
            let verdict = self
                .faults
                .lock()
                .unwrap()
                .judge(from, self.to, &payload, &mut rng);
            match verdict {
                Verdict::Sever => return None,
                Verdict::Swallow => continue,
                Verdict::Forward(delay) if !delay.is_zero() => thread::sleep(delay),
                Verdict::Forward(_) => {}
            }
            up.write_all(&lenbuf).ok()?;
            up.write_all(&payload).ok()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fuse_harness::chaos::{apply_fault, ChaosOp};
    use fuse_wire::codec::twopass::to_bytes;
    use fuse_wire::EncodeBuf;
    use std::sync::mpsc::Receiver;
    use std::time::Instant;

    /// A capture server: accepts connections and, per connection, records
    /// the hello and every frame payload it receives until EOF.
    fn capture_server() -> (SocketAddr, Receiver<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { return };
                let tx = tx.clone();
                thread::spawn(move || {
                    let mut frames = Vec::new();
                    let mut hello = [0u8; 4];
                    if conn.read_exact(&mut hello).is_ok() {
                        frames.push(hello.to_vec());
                        loop {
                            let mut lenbuf = [0u8; 4];
                            if conn.read_exact(&mut lenbuf).is_err() {
                                break;
                            }
                            let mut payload = vec![0u8; u32::from_le_bytes(lenbuf) as usize];
                            if conn.read_exact(&mut payload).is_err() {
                                break;
                            }
                            frames.push(payload);
                        }
                    }
                    let _ = tx.send(frames);
                });
            }
        });
        (addr, rx)
    }

    /// The proxy in front of node 0 of a 10-node fleet, over fresh faults.
    fn proxy_to_node0(upstream: SocketAddr, seed: u64) -> (NodeProxy, Arc<Mutex<Faults>>) {
        let faults = Arc::new(Mutex::new(Faults::default()));
        let proxy = NodeProxy::spawn(0, 10, upstream, Arc::clone(&faults), seed).unwrap();
        (proxy, faults)
    }

    /// A sender's stream into `proxy`, its hello written.
    fn sender(proxy: &NodeProxy, from: ProcId) -> TcpStream {
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&from.to_le_bytes()).unwrap();
        c
    }

    /// Frames exactly as `fuse-node` does; the assertions below compare
    /// what arrives against the `twopass` reference encoding.
    fn frame_for(msg: &StackMsg) -> Vec<u8> {
        EncodeBuf::new().encode_frame(msg).to_vec()
    }

    fn app_msg(b: &[u8]) -> StackMsg {
        StackMsg::App(Bytes::copy_from_slice(b))
    }

    fn payload(msg: &StackMsg) -> Vec<u8> {
        to_bytes(msg).to_vec()
    }

    /// Whether writes on `c` start failing within a second (the first
    /// write after the peer's shutdown may still buffer).
    fn dies(c: &mut TcpStream) -> bool {
        (0..50).any(|_| {
            thread::sleep(Duration::from_millis(20));
            c.write_all(&frame_for(&app_msg(b"x"))).is_err()
        })
    }

    #[test]
    fn frame_verdicts_follow_the_plane_and_ambient() {
        let mut rng = StdRng::seed_from_u64(1);
        let app = payload(&app_msg(b"a"));
        let soft = payload(&StackMsg::Fuse(fuse_core::FuseMsg::SoftNotification {
            id: fuse_core::FuseId(1),
            seq: 1,
        }));
        let mut f = Faults::default();
        let mut judge = |f: &Faults, from, to, p: &[u8]| f.judge(from, to, p, &mut rng);
        assert_eq!(judge(&f, 1, 3, &app), Verdict::Forward(Duration::ZERO));

        f.ambient.delay = Duration::from_millis(5);
        assert_eq!(
            judge(&f, 1, 3, &app),
            Verdict::Forward(Duration::from_millis(5))
        );
        f.ambient.delay = Duration::ZERO;

        f.plane.disconnect(1);
        assert_eq!(judge(&f, 1, 3, &app), Verdict::Sever);
        assert_eq!(judge(&f, 3, 1, &app), Verdict::Sever, "both directions");
        assert_eq!(judge(&f, 2, 3, &app), Verdict::Forward(Duration::ZERO));
        f.plane.reconnect(1);

        f.plane.add_blackhole(1, 3);
        assert_eq!(judge(&f, 1, 3, &app), Verdict::Swallow);
        assert_eq!(
            judge(&f, 3, 1, &app),
            Verdict::Forward(Duration::ZERO),
            "directed"
        );
        f.plane.clear_blackhole(1, 3);

        f.plane.set_partition(1, 1);
        assert_eq!(judge(&f, 1, 3, &app), Verdict::Swallow);
        assert_eq!(judge(&f, 3, 1, &app), Verdict::Swallow, "symmetric");
        assert_eq!(judge(&f, 2, 3, &app), Verdict::Forward(Duration::ZERO));
        f.plane.heal_partitions();

        // A rule on 1 → 3 does not touch 2 → 3, nor another class.
        f.plane.drop_class_scoped("app", Some(1), Some(3));
        assert_eq!(judge(&f, 1, 3, &app), Verdict::Swallow);
        assert_eq!(judge(&f, 2, 3, &app), Verdict::Forward(Duration::ZERO));
        assert_eq!(judge(&f, 1, 3, &soft), Verdict::Forward(Duration::ZERO));
        f.plane.drop_class("fuse.soft");
        assert_eq!(judge(&f, 2, 3, &soft), Verdict::Swallow);
        f.plane.clear_class_drops();

        f.ambient.loss = 1.0;
        assert_eq!(judge(&f, 2, 3, &app), Verdict::Swallow);
        f.ambient.loss = 0.0;

        // Pair loss is directed and drawn per frame.
        f.plane.set_link_loss(1, 3, 0.5);
        let lost = (0..4000)
            .filter(|_| judge(&f, 1, 3, &app) == Verdict::Swallow)
            .count();
        assert!((1800..2200).contains(&lost), "~half of 4000 lost: {lost}");
        assert!((0..100).all(|_| judge(&f, 3, 1, &app) != Verdict::Swallow));
    }

    #[test]
    fn loss_ramp_and_link_loss_compose_in_either_order() {
        // A `lossramp` step sets the ambient rate, a `linkloss` op the
        // pair's injected rate; neither erases the other, as in the sim.
        fn ramp_step(f: &mut Faults) {
            f.ambient.loss = 0.2;
        }
        fn link_loss(f: &mut Faults) {
            let op = ChaosOp::LinkLoss {
                from: 0,
                to: 2,
                pct: 50,
            };
            assert!(apply_fault(&mut f.plane, op, 12, ProcId::from));
        }
        let orders: [[fn(&mut Faults); 2]; 2] = [[ramp_step, link_loss], [link_loss, ramp_step]];
        for order in orders {
            let mut f = Faults::default();
            order.iter().for_each(|op| op(&mut f));
            assert!((f.loss(0, 2) - 0.6).abs() < 1e-12, "{}", f.loss(0, 2));
            assert!((f.loss(2, 0) - 0.2).abs() < 1e-12);
            assert!((f.loss(1, 2) - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn forwards_hello_and_frames_verbatim() {
        let (addr, rx) = capture_server();
        let (proxy, _faults) = proxy_to_node0(addr, 1);
        let mut c = sender(&proxy, 7);
        let msg = app_msg(b"hello-world");
        c.write_all(&frame_for(&msg)).unwrap();
        drop(c); // EOF must propagate so the capture thread finishes
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames[0], 7u32.to_le_bytes().to_vec());
        // StackMsg has no PartialEq; the encoding is canonical, so byte
        // equality is message equality.
        assert_eq!(frames[1], payload(&msg));
    }

    #[test]
    fn blackhole_swallows_frames_but_keeps_streams_open() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 2);
        let mut c = sender(&proxy, 3);
        c.write_all(&frame_for(&app_msg(b"before"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        faults.lock().unwrap().plane.add_blackhole(3, 0);
        c.write_all(&frame_for(&app_msg(b"eaten"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        // The connection is still alive: clearing the blackhole resumes
        // delivery on the same stream — no EOF was ever seen by either side.
        faults.lock().unwrap().plane.clear_blackhole(3, 0);
        c.write_all(&frame_for(&app_msg(b"after"))).unwrap();
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let expect = vec![payload(&app_msg(b"before")), payload(&app_msg(b"after"))];
        assert_eq!(frames[1..].to_vec(), expect);
    }

    #[test]
    fn sever_kills_live_streams_and_refuses_new_ones() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 3);
        let mut c = sender(&proxy, 1);
        c.write_all(&frame_for(&app_msg(b"pre-sever"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        faults.lock().unwrap().plane.disconnect(1);
        proxy.kill_severed();
        // The upstream side sees EOF: the capture completes.
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(dies(&mut c), "client stream must die after sever");
        // New connections are cut immediately while severed.
        let mut c2 = sender(&proxy, 1);
        assert!(dies(&mut c2), "new streams must be refused while severed");
    }

    #[test]
    fn disconnect_kills_only_the_disconnected_senders_streams() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 7);
        let mut c1 = sender(&proxy, 1);
        let mut c2 = sender(&proxy, 2);
        c1.write_all(&frame_for(&app_msg(b"one"))).unwrap();
        c2.write_all(&frame_for(&app_msg(b"two"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        faults.lock().unwrap().plane.disconnect(1);
        proxy.kill_severed();
        assert!(dies(&mut c1), "1 -> 0 must die");
        c2.write_all(&frame_for(&app_msg(b"still"))).unwrap();
        drop(c2);
        let mut got: Vec<Vec<Vec<u8>>> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got[0][1..], [payload(&app_msg(b"one"))]);
        assert_eq!(
            got[1][1..],
            [payload(&app_msg(b"two")), payload(&app_msg(b"still"))],
            "2 -> 0 keeps flowing"
        );
    }

    #[test]
    fn hellos_naming_the_destination_or_out_of_range_are_refused() {
        let (addr, rx) = capture_server();
        let (proxy, _faults) = proxy_to_node0(addr, 8);
        for bad in [0, 10, u32::MAX] {
            let mut c = sender(&proxy, bad);
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 1];
            assert!(
                matches!(c.read(&mut buf), Ok(0) | Err(_)),
                "hello {bad} must be refused"
            );
        }
        assert!(
            rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "a refused hello never dials upstream"
        );
    }

    #[test]
    fn class_drop_filters_by_decoded_label() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 4);
        faults.lock().unwrap().plane.drop_class("app");
        let mut c = sender(&proxy, 9);
        // An app frame (class "app") must vanish; a FUSE soft notification
        // (class "fuse.soft") must pass.
        c.write_all(&frame_for(&app_msg(b"dropme"))).unwrap();
        let soft = StackMsg::Fuse(fuse_core::FuseMsg::SoftNotification {
            id: fuse_core::FuseId(42),
            seq: 7,
        });
        c.write_all(&frame_for(&soft)).unwrap();
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames[1..].to_vec(), vec![payload(&soft)]);
    }

    #[test]
    fn delay_holds_frames_back() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 5);
        faults.lock().unwrap().ambient.delay = Duration::from_millis(300);
        let t0 = Instant::now();
        let mut c = sender(&proxy, 4);
        c.write_all(&frame_for(&app_msg(b"slow"))).unwrap();
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(
            t0.elapsed() >= Duration::from_millis(280),
            "frame arrived too fast for a 300ms delay: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn drop_pct_one_loses_everything() {
        let (addr, rx) = capture_server();
        let (proxy, faults) = proxy_to_node0(addr, 6);
        faults.lock().unwrap().ambient.loss = 1.0;
        let mut c = sender(&proxy, 5);
        for i in 0..10u8 {
            c.write_all(&frame_for(&app_msg(&[i]))).unwrap();
        }
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames.len(), 1, "only the hello may pass at 100% loss");
    }
}
