//! The outbound half: one lazily connected, nonblocking stream per peer,
//! fed from a bounded byte queue. A send only queues; the event loop's
//! [`Transport::flush`] then gives each peer one write for everything its
//! turn queued, so a turn's frames to one peer share a syscall and a
//! segment.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use fuse_core::StackMsg;
use fuse_util::PeerAddr;
use fuse_wire::EncodeBuf;

/// Reconnect policy: attempts × delay ≈ 5 s before the link is declared
/// broken; the event loop's timeout paces the attempts.
const CONNECT_ATTEMPTS: u32 = 25;
const CONNECT_DELAY: Duration = Duration::from_millis(200);
/// Bound on one connect, which blocks the loop and so every other peer.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);
/// Cap on one peer's queued bytes. A send that would pass it breaks the
/// link like a failed write: a peer that stops reading costs bounded memory
/// and its groups hear `LinkBroken`, not a silent drop.
pub const MAX_QUEUE: usize = 4 << 20;

#[derive(Default)]
struct Peer {
    addr: String,
    stream: Option<TcpStream>,
    /// Bytes the kernel has not taken; before a connection, the frames
    /// waiting for it.
    queue: Vec<u8>,
    /// While the queue waits for a stream: failed connects so far, and when
    /// to try again.
    retry: Option<(u32, Instant)>,
}

impl Peer {
    /// Drops the stream and the queue, releasing its memory.
    fn reset(&mut self) {
        self.stream = None;
        self.queue = Vec::new();
        self.retry = None;
    }

    /// One connect, bounded by [`CONNECT_TIMEOUT`]; the hello goes ahead of
    /// the queue.
    fn connect(&mut self, me: PeerAddr) -> std::io::Result<()> {
        let addr = self.addr.to_socket_addrs()?.next();
        let s = TcpStream::connect_timeout(&addr.ok_or(ErrorKind::NotFound)?, CONNECT_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        self.queue.splice(0..0, me.to_le_bytes());
        (self.stream, self.retry) = (Some(s), None);
        Ok(())
    }

    /// Moves the queue along at `now`: connects first if there is no stream
    /// and no attempt is pending or one is due, then writes until the socket
    /// would block. False, after a reset, once the link broke or the
    /// attempts ran out.
    fn pump(&mut self, me: PeerAddr, now: Instant) -> bool {
        let waiting = self.retry.is_some_and(|(_, at)| at > now);
        if self.stream.is_none() && !waiting && self.connect(me).is_err() {
            let failed = self.retry.map_or(1, |(n, _)| n + 1);
            if failed == CONNECT_ATTEMPTS {
                self.reset();
                return false;
            }
            self.retry = Some((failed, now + CONNECT_DELAY));
        }
        let Some(s) = self.stream.as_mut() else {
            return true;
        };
        let mut sent = 0;
        while sent < self.queue.len() {
            match s.write(&self.queue[sent..]) {
                Ok(n) if n > 0 => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => {
                    self.reset();
                    return false;
                }
            }
        }
        self.queue.drain(..sent);
        true
    }
}

/// Outbound fan-out to the known peers.
pub struct Transport {
    me: PeerAddr,
    peers: HashMap<PeerAddr, Peer>,
    /// Frames every message once, reused.
    ebuf: EncodeBuf,
    /// Peers whose queue went from empty to holding frames since the last
    /// flush. A queue that already held bytes is owed by this list, by
    /// `POLLOUT` or by a pending reconnect, so it needs no second note.
    noted: Vec<PeerAddr>,
    /// Peers whose link broke, oldest first, owed an `Input::LinkBroken`.
    pub broken: VecDeque<PeerAddr>,
}

impl Transport {
    pub fn new(me: PeerAddr, peers: &[(PeerAddr, String)]) -> Self {
        let peer = |addr: &String| Peer {
            addr: addr.clone(),
            ..Peer::default()
        };
        Transport {
            me,
            peers: peers.iter().map(|(id, addr)| (*id, peer(addr))).collect(),
            ebuf: EncodeBuf::new(),
            noted: Vec::new(),
            broken: VecDeque::new(),
        }
    }

    /// Queues `msg` for `to`; the next [`flush`](Self::flush) writes it. An
    /// unknown peer (a configuration error under static membership) and a
    /// send past the cap are broken links.
    pub fn send(&mut self, to: PeerAddr, msg: &StackMsg) {
        let frame = self.ebuf.encode_frame(msg);
        let Some(p) = self.peers.get_mut(&to) else {
            self.broken.push_back(to);
            return;
        };
        if p.queue.len() + frame.len() > MAX_QUEUE {
            p.reset();
            self.broken.push_back(to);
            return;
        }
        if p.queue.is_empty() {
            self.noted.push(to);
        }
        p.queue.extend_from_slice(frame);
    }

    /// Moves along every queue noted since the last flush, once: connects
    /// if needed and writes until the socket would block; the rest waits
    /// for `POLLOUT`.
    pub fn flush(&mut self, now: Instant) {
        for to in self.noted.drain(..) {
            let p = self.peers.get_mut(&to).expect("only known peers are noted");
            // Emptied since it was noted: the cap tripped.
            if !p.queue.is_empty() && !p.pump(self.me, now) {
                self.broken.push_back(to);
            }
        }
    }

    /// Streams holding bytes the kernel would not take: poll for `POLLOUT`.
    pub fn blocked(&self) -> impl Iterator<Item = (PeerAddr, RawFd)> + '_ {
        let blocked = self.peers.iter().filter(|(_, p)| !p.queue.is_empty());
        blocked.filter_map(|(&id, p)| Some((id, p.stream.as_ref()?.as_raw_fd())))
    }

    /// When the earliest pending reconnect is due.
    pub fn next_retry(&self) -> Option<Instant> {
        self.peers.values().filter_map(|p| Some(p.retry?.1)).min()
    }

    /// `to`'s stream polled writable (or hung up): write on.
    pub fn writable(&mut self, to: PeerAddr, now: Instant) {
        if self
            .peers
            .get_mut(&to)
            .is_some_and(|p| !p.pump(self.me, now))
        {
            self.broken.push_back(to);
        }
    }

    /// Makes every reconnect attempt due at `now`.
    pub fn retry_due(&mut self, now: Instant) {
        for (&id, p) in &mut self.peers {
            if p.retry.is_some_and(|(_, at)| at <= now) && !p.pump(self.me, now) {
                self.broken.push_back(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;
    use bytes::Bytes;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn sends_wait_for_the_flush_and_leave_in_one_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut t = Transport::new(7, &[(1, addr)]);
        let payloads = [&b"a"[..], b"bb", b"ccc"];
        for p in payloads {
            t.send(1, &StackMsg::App(Bytes::from_static(p)));
        }
        let e = listener
            .accept()
            .expect_err("no connection before the flush");
        assert_eq!(e.kind(), ErrorKind::WouldBlock);
        t.flush(Instant::now());
        let p = &t.peers[&1];
        assert!(t.broken.is_empty() && p.queue.is_empty());
        let nodelay = p.stream.as_ref().and_then(|s| s.nodelay().ok());
        assert_eq!(nodelay, Some(true), "a frame is not held for Nagle");
        listener.set_nonblocking(false).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        s.set_nonblocking(true).unwrap();
        let mut buf = [0; 4096];
        let n = s.read(&mut buf).expect("the flush's bytes are in");
        let mut frames = FrameReader::default();
        frames.push(&buf[..n]);
        for want in payloads {
            let (from, msg) = frames.next_frame().unwrap().expect("a whole frame");
            assert!(from == 7 && matches!(msg, StackMsg::App(b) if &b[..] == want));
        }
        assert!(
            frames.next_frame().unwrap().is_none(),
            "nothing else was sent"
        );
    }

    #[test]
    fn a_peer_that_never_reads_trips_the_cap_once_and_frees_the_queue() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut t = Transport::new(0, &[(1, addr)]);
        let msg = StackMsg::App(Bytes::from(vec![7u8; 64 << 10]));
        t.send(1, &msg);
        t.flush(Instant::now()); // dials
        let _held = listener.accept().unwrap(); // accepted, never read
        let mut sends = 1;
        while t.broken.is_empty() {
            assert!(t.peers[&1].queue.len() <= MAX_QUEUE);
            t.send(1, &msg);
            t.flush(Instant::now());
            sends += 1;
            assert!(sends < 8192, "the cap never tripped");
        }
        assert_eq!(t.broken, [1]);
        assert!(sends * (64 << 10) > MAX_QUEUE, "the kernel took bytes too");
        let p = &t.peers[&1];
        assert!(p.stream.is_none() && p.retry.is_none());
        assert_eq!(p.queue.capacity(), 0, "the queue's memory is released");
    }

    #[test]
    fn an_unreachable_peer_is_retried_then_broken() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut t = Transport::new(0, &[(1, addr)]);
        let start = Instant::now();
        t.send(1, &StackMsg::App(Bytes::from_static(b"x")));
        t.send(1, &StackMsg::App(Bytes::from_static(b"y")));
        assert_eq!(t.next_retry(), None, "a send does not dial");
        t.flush(Instant::now());
        for n in 1..CONNECT_ATTEMPTS {
            assert!(t.broken.is_empty());
            let at = t.next_retry().expect("a retry is pending");
            t.retry_due(at - CONNECT_DELAY / 2);
            assert_eq!(t.next_retry(), Some(at), "not due yet");
            t.retry_due(at);
            assert!(at >= start + CONNECT_DELAY * n, "attempt {n} paced");
        }
        assert_eq!(t.broken, [1], "one report for the whole queue");
        assert_eq!(t.next_retry(), None);
        assert!(t.peers[&1].queue.is_empty());
    }
}
