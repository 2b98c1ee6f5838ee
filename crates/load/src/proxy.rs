//! The userspace fault proxy: one per directed inter-node connection.
//!
//! `fuse-node` processes never talk to each other directly under the load
//! harness. Node *i*'s `--peer j=<addr>` points at the proxy for the
//! directed pair *(i → j)*; the proxy dials node *j*'s real listener per
//! accepted connection and forwards the wire protocol **frame by frame**
//! (the `u32-LE` hello, then `u32-LE length ‖ StackMsg` frames). Framing
//! awareness is what turns a dumb byte pipe into a fault injector:
//!
//! * **sever** — existing streams are shut down and new ones refused;
//!   both endpoints observe broken links (the chaos `disc` op).
//! * **blackhole** — frames are read and silently discarded while both
//!   sockets stay open; *neither* endpoint sees EOF, so detection must
//!   ride the liveness machinery (the chaos `bh`/`partoff` ops).
//! * **drop** — Bernoulli per-frame loss (the chaos `linkloss` op).
//! * **delay** — each frame waits before forwarding, serializing behind
//!   earlier frames like a thin WAN pipe.
//! * **throttle** — forwarded bytes are paced to a byte rate.
//! * **class drop** — frames are decoded and dropped when their
//!   [`Payload::class`] label matches (the chaos `adv(class)` op — the
//!   content-based adversary of §3.5, now against live TCP).
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
use fuse_util::Payload;
use fuse_wire::Decode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mirrors the node's wire limit; oversized frames kill the connection
/// there anyway, so the proxy fails them early.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// The fault state of one directed link, shared between the orchestrator
/// and the proxy's pump threads. All knobs compose; `severed` dominates.
#[derive(Debug, Clone, Default)]
pub struct LinkPolicy {
    /// Kill live streams and refuse new ones until cleared.
    pub severed: bool,
    /// Silently swallow every frame, keeping both sockets open.
    pub blackhole: bool,
    /// Bernoulli per-frame drop probability in `[0, 1]`.
    pub drop_pct: f64,
    /// Hold every frame this long before forwarding.
    pub delay: Duration,
    /// Pace forwarded payload bytes to this rate (0 = unlimited).
    pub throttle_bps: u64,
    /// Drop frames whose decoded [`Payload::class`] label is listed.
    pub drop_classes: Vec<String>,
}

/// One directed fault proxy: listens on an ephemeral loopback port,
/// forwards to `upstream`, applies the shared [`LinkPolicy`] per frame.
pub struct FaultProxy {
    addr: SocketAddr,
    upstream: SocketAddr,
    policy: Arc<Mutex<LinkPolicy>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
}

impl FaultProxy {
    /// Binds the proxy and starts its accept loop. `seed` makes the drop
    /// coin deterministic per link.
    pub fn spawn(upstream: SocketAddr, seed: u64) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let policy = Arc::new(Mutex::new(LinkPolicy::default()));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        {
            let (policy, conns, stop) =
                (Arc::clone(&policy), Arc::clone(&conns), Arc::clone(&stop));
            thread::spawn(move || {
                let mut nth = 0u64;
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(client) = conn else { return };
                    if policy.lock().unwrap().severed {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    }
                    let Ok(up) = TcpStream::connect(upstream) else {
                        // Upstream down (e.g. its process was killed): the
                        // refused dial closes the client, which surfaces as
                        // a broken link on the sending node.
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    {
                        let mut c = conns.lock().unwrap();
                        if let (Ok(a), Ok(b)) = (client.try_clone(), up.try_clone()) {
                            c.push(a);
                            c.push(b);
                        }
                    }
                    nth += 1;
                    let policy = Arc::clone(&policy);
                    let rng = StdRng::seed_from_u64(seed ^ nth.wrapping_mul(0x9e37_79b9));
                    thread::spawn(move || pump(client, up, policy, rng));
                }
            });
        }
        Ok(FaultProxy {
            addr,
            upstream,
            policy,
            conns,
            stop,
        })
    }

    /// The loopback address nodes should treat as the peer's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The real peer address behind this proxy.
    pub fn upstream(&self) -> SocketAddr {
        self.upstream
    }

    /// Applies a policy mutation. Severing (or re-severing) kills every
    /// live stream immediately; other knobs take effect on the next frame.
    pub fn update(&self, f: impl FnOnce(&mut LinkPolicy)) {
        let severed = {
            let mut p = self.policy.lock().unwrap();
            f(&mut p);
            p.severed
        };
        if severed {
            self.kill_streams();
        }
    }

    /// A snapshot of the current policy.
    pub fn policy(&self) -> LinkPolicy {
        self.policy.lock().unwrap().clone()
    }

    /// Stops accepting and kills live streams (teardown).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.kill_streams();
        // Unblock the accept loop so its thread exits.
        let _ = TcpStream::connect(self.addr);
    }

    fn kill_streams(&self) {
        let mut conns = self.conns.lock().unwrap();
        for c in conns.drain(..) {
            let _ = c.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forwards one client connection frame-by-frame until either side dies or
/// the policy severs the link. The node wire protocol is unidirectional
/// (writers write, readers read), so a single client→upstream pump carries
/// everything; closing the opposite stream propagates EOF in both
/// directions.
fn pump(mut client: TcpStream, mut up: TcpStream, policy: Arc<Mutex<LinkPolicy>>, mut rng: StdRng) {
    let close_both = |client: &TcpStream, up: &TcpStream| {
        let _ = client.shutdown(Shutdown::Both);
        let _ = up.shutdown(Shutdown::Both);
    };
    let _ = up.set_nodelay(true);
    // Hello: forwarded verbatim (4 bytes, sender node id).
    let mut hello = [0u8; 4];
    if client.read_exact(&mut hello).is_err() || up.write_all(&hello).is_err() {
        close_both(&client, &up);
        return;
    }
    loop {
        let mut lenbuf = [0u8; 4];
        if client.read_exact(&mut lenbuf).is_err() {
            close_both(&client, &up);
            return;
        }
        let len = u32::from_le_bytes(lenbuf);
        if len > MAX_FRAME {
            close_both(&client, &up);
            return;
        }
        let mut payload = vec![0u8; len as usize];
        if client.read_exact(&mut payload).is_err() {
            close_both(&client, &up);
            return;
        }
        // One policy snapshot per frame.
        let (severed, swallow, delay, bps) = {
            let p = policy.lock().unwrap();
            let mut swallow = p.blackhole;
            if !swallow && p.drop_pct > 0.0 {
                swallow = rng.gen_bool(p.drop_pct.clamp(0.0, 1.0));
            }
            if !swallow && !p.drop_classes.is_empty() {
                if let Ok(msg) = StackMsg::from_bytes(&payload) {
                    let class = msg.class();
                    swallow = p.drop_classes.iter().any(|c| c == class);
                }
            }
            (p.severed, swallow, p.delay, p.throttle_bps)
        };
        if severed {
            close_both(&client, &up);
            return;
        }
        if !delay.is_zero() {
            thread::sleep(delay);
        }
        if swallow {
            continue;
        }
        if bps > 0 {
            let secs = (payload.len() as f64 + 4.0) / bps as f64;
            thread::sleep(Duration::from_secs_f64(secs));
        }
        if up.write_all(&lenbuf).is_err() || up.write_all(&payload).is_err() {
            close_both(&client, &up);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fuse_wire::codec::twopass::to_bytes;
    use fuse_wire::EncodeBuf;
    use std::time::Instant;

    /// A capture server: accepts one connection, records the hello and
    /// every frame payload it receives until EOF.
    fn capture_server() -> (SocketAddr, std::sync::mpsc::Receiver<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
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
        (addr, rx)
    }

    /// Frames exactly as `fuse-node` does; the assertions below compare
    /// what arrives against the `twopass` reference encoding.
    fn frame_for(msg: &StackMsg) -> Vec<u8> {
        EncodeBuf::new().encode_frame(msg).to_vec()
    }

    fn app_msg(b: &[u8]) -> StackMsg {
        StackMsg::App(Bytes::copy_from_slice(b))
    }

    #[test]
    fn forwards_hello_and_frames_verbatim() {
        let (addr, rx) = capture_server();
        let proxy = FaultProxy::spawn(addr, 1).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&7u32.to_le_bytes()).unwrap();
        let msg = app_msg(b"hello-world");
        c.write_all(&frame_for(&msg)).unwrap();
        drop(c); // EOF must propagate so the capture thread finishes
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames[0], 7u32.to_le_bytes().to_vec());
        // StackMsg has no PartialEq; the encoding is canonical, so byte
        // equality is message equality.
        assert_eq!(frames[1], to_bytes(&msg).to_vec());
    }

    #[test]
    fn blackhole_swallows_frames_but_keeps_streams_open() {
        let (addr, rx) = capture_server();
        let proxy = FaultProxy::spawn(addr, 2).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&3u32.to_le_bytes()).unwrap();
        c.write_all(&frame_for(&app_msg(b"before"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        proxy.update(|p| p.blackhole = true);
        c.write_all(&frame_for(&app_msg(b"eaten"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        // The connection is still alive: un-blackholing resumes delivery
        // on the same stream — no EOF was ever seen by either side.
        proxy.update(|p| p.blackhole = false);
        c.write_all(&frame_for(&app_msg(b"after"))).unwrap();
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let expect: Vec<Vec<u8>> = [app_msg(b"before"), app_msg(b"after")]
            .iter()
            .map(|m| to_bytes(m).to_vec())
            .collect();
        assert_eq!(frames[1..].to_vec(), expect);
    }

    #[test]
    fn sever_kills_live_streams_and_refuses_new_ones() {
        let (addr, rx) = capture_server();
        let proxy = FaultProxy::spawn(addr, 3).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&1u32.to_le_bytes()).unwrap();
        c.write_all(&frame_for(&app_msg(b"pre-sever"))).unwrap();
        thread::sleep(Duration::from_millis(200));
        proxy.update(|p| p.severed = true);
        // The upstream side sees EOF: the capture completes.
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames.len(), 2);
        // The client side is dead too: writes start failing once the RST
        // lands (the first write after shutdown may still buffer).
        let dead = (0..50).any(|_| {
            thread::sleep(Duration::from_millis(20));
            c.write_all(&frame_for(&app_msg(b"x"))).is_err()
        });
        assert!(dead, "client stream must die after sever");
        // New connections are cut immediately while severed.
        let mut c2 = TcpStream::connect(proxy.addr()).unwrap();
        c2.write_all(&2u32.to_le_bytes()).unwrap();
        let dead2 = (0..50).any(|_| {
            thread::sleep(Duration::from_millis(20));
            c2.write_all(&frame_for(&app_msg(b"y"))).is_err()
        });
        assert!(dead2, "new streams must be refused while severed");
    }

    #[test]
    fn class_drop_filters_by_decoded_label() {
        let (addr, rx) = capture_server();
        let proxy = FaultProxy::spawn(addr, 4).unwrap();
        proxy.update(|p| p.drop_classes = vec!["app".to_string()]);
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&9u32.to_le_bytes()).unwrap();
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
        assert_eq!(frames[1..].to_vec(), vec![to_bytes(&soft).to_vec()]);
    }

    #[test]
    fn delay_holds_frames_back() {
        let (addr, rx) = capture_server();
        let proxy = FaultProxy::spawn(addr, 5).unwrap();
        proxy.update(|p| p.delay = Duration::from_millis(300));
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let t0 = Instant::now();
        c.write_all(&4u32.to_le_bytes()).unwrap();
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
        let proxy = FaultProxy::spawn(addr, 6).unwrap();
        proxy.update(|p| p.drop_pct = 1.0);
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(&5u32.to_le_bytes()).unwrap();
        for i in 0..10u8 {
            c.write_all(&frame_for(&app_msg(&[i]))).unwrap();
        }
        drop(c);
        let frames = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(frames.len(), 1, "only the hello may pass at 100% loss");
    }
}
