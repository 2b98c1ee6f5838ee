//! `fuse-node`: a real-socket deployment of the sans-io FUSE stack.
//!
//! One OS process per FUSE node, `std::net` TCP for transport, and the
//! exact same [`fuse_core::FuseStack`] state machine the simulator drives —
//! the identical compiled code. The process is one thread: a `poll(2)`
//! readiness loop over the listener, stdin, every accepted stream and every
//! outbound stream the kernel has not drained, asleep until the next timer,
//! reconnect attempt or 100 ms housekeeping tick. Inbound frames are parsed
//! as bytes arrive (`frame.rs`); outbound ones queue per peer, capped, and
//! each peer's share of a turn goes out in one write before the loop polls
//! again or exits (`transport.rs`); every timer armed fires once, in
//! deadline order, and the stack ignores a key it finds stale
//! (`timers.rs`). A closed, failed or corrupt stream, a failed write,
//! exhausted reconnects and a send past the cap all reach the stack as
//! [`fuse_core::Input::LinkBroken`]: a crashed peer's closed sockets are
//! what makes crash detection fast over TCP (the paper's fail-on-send).
//!
//! Every frame is `u32-LE length ‖ encoded StackMsg`, behind a `u32-LE`
//! hello naming the sender. Membership is static: every process is told the
//! full `--peer id=addr` set and preloads converged overlay routing tables,
//! like the simulator's oracle bootstrap. Stdin takes one control command
//! per line; `shutdown`, SIGTERM and `--run-secs` exit alike through `BYE`.
//! `CREATED`/`NOTIFIED` lines carry `t_ns` (UNIX-epoch nanoseconds, strictly
//! monotonic per process) for cross-process latencies.

mod frame;
mod timers;
mod transport;

use std::ffi::{c_int, c_ulong};
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsFd, AsRawFd};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fuse_core::{AppCall, FuseConfig, FuseConfigBuilder, FuseEvent, FuseId, FuseStack};
use fuse_core::{Input, Output};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_util::{Duration as ProtoDuration, PeerAddr, Time};

use frame::FrameReader;
use timers::Timers;
use transport::Transport;

const USAGE: &str = "\
fuse-node: real-socket TCP deployment of the FUSE failure-notification stack

USAGE:
    fuse-node --id <N> --listen <ADDR> [--peer <N>=<ADDR>]... [OPTIONS]

OPTIONS:
    --id <N>                This node's numeric id (unique across the deployment)
    --listen <ADDR>         TCP address to accept peer connections on
    --peer <N>=<ADDR>       A remote peer's id and address (repeatable)
    --create <N,N,..>       After boot, create a FUSE group over these peer ids (this
                            node is the root; its own id is not a member)
    --seed <N>              RNG seed (default: the node id)
    --run-secs <N>          Exit cleanly after N seconds (default: run forever)
    --ping-secs <N>         Overlay liveness ping period (default: 60)
    --ping-timeout-secs <N> Overlay ping-ack timeout (default: 20; must stay below
                            the ping period)
    --link-timeout-secs <N> FUSE per-(group, link) liveness expiry (default: 90)
    --member-repair-secs <N> Member-side wait for a repair response (default: 60)
    --root-repair-secs <N>  Root-side wait for repair replies (default: 120)
    --grace-secs <N>        FUSE reconcile grace (default: 5; must stay below
                            the link timeout)
    --help                  Print this help
    --version               Print the version

CONTROL (one command per stdin line):
    create <N,N,..>    Create a FUSE group over these member ids
    signal <GID>       Signal failure of a group (fuse:<hex> or bare hex)
    shutdown           Flush stdout and exit cleanly (same path as SIGTERM)

OUTPUT (one line each, stdout):
    READY                                         listening, stack booted
    CREATED id=<gid> result=ok|<error> t_ns=<ns>  a create attempt completed
    NOTIFIED id=<gid> reason=<reason> t_ns=<ns>   a failure notification fired
    BYE                                           clean shutdown (stdout flushed)
";

/// The longest the loop sleeps, and so the latency of SIGTERM and
/// `--run-secs`.
const TICK: Duration = Duration::from_millis(100);

/// Set by the SIGTERM handler, which also interrupts `poll`; the loop checks
/// it every turn and exits through the clean `BYE` path.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

/// `struct pollfd`: descriptor, requested events, returned events.
#[repr(C)]
struct PollFd(c_int, i16, i16);

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const SIGTERM: i32 = 15;

extern "C" {
    // `signal(2)` and `poll(2)` from the C runtime std already links;
    // registering a flag store is the one async-signal-safe thing worth
    // doing without libc.
    fn signal(signum: i32, handler: usize) -> usize;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

struct Opts {
    id: PeerAddr,
    listen: String,
    peers: Vec<(PeerAddr, String)>,
    create: Vec<PeerAddr>,
    seed: u64,
    run_secs: Option<u64>,
    overlay: OverlayConfig,
    fuse: FuseConfigBuilder,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut id, mut listen, mut seed, mut run_secs) = (None, None, None, None);
    let (mut peers, mut create) = (Vec::new(), Vec::new());
    let (mut overlay, mut fuse) = (OverlayConfig::default(), FuseConfig::builder());
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--version" | "-V" => {
                println!("fuse-node {}", env!("CARGO_PKG_VERSION"));
                exit(0);
            }
            "--id" => id = Some(parse(&val("--id")?)?),
            "--listen" => listen = Some(val("--listen")?),
            "--peer" => {
                let v = val("--peer")?;
                let (pid, addr) = v
                    .split_once('=')
                    .ok_or(format!("--peer wants id=addr, got {v:?}"))?;
                peers.push((parse(pid)?, addr.to_string()));
            }
            "--create" => {
                for part in val("--create")?.split(',') {
                    create.push(parse(part)?);
                }
            }
            "--seed" => seed = Some(parse(&val("--seed")?)?),
            "--run-secs" => run_secs = Some(parse(&val("--run-secs")?)?),
            flag if flag.ends_with("-secs") => {
                let mut secs = || {
                    val(flag)
                        .and_then(|v| parse(&v))
                        .map(ProtoDuration::from_secs)
                };
                // A zero period re-arms the ping timer at +0 forever; a zero
                // timeout fires before any ack can arrive, so every ping
                // would declare its neighbour dead.
                let mut nonzero = || match secs()? {
                    ProtoDuration::ZERO => Err(format!("{flag} must be non-zero")),
                    d => Ok(d),
                };
                match flag {
                    "--ping-secs" => overlay.ping_period = nonzero()?,
                    "--ping-timeout-secs" => overlay.ping_timeout = nonzero()?,
                    "--link-timeout-secs" => fuse = fuse.link_failure_timeout(secs()?),
                    "--member-repair-secs" => fuse = fuse.member_repair_timeout(secs()?),
                    "--root-repair-secs" => fuse = fuse.root_repair_timeout(secs()?),
                    "--grace-secs" => fuse = fuse.reconcile_grace(secs()?),
                    _ => return Err(format!("unknown argument {flag:?} (try --help)")),
                }
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    // Each ping replaces the wait of the last one, so a timeout that does
    // not end before the next ping never comes due: a silent neighbour
    // would never be declared dead.
    if overlay.ping_timeout >= overlay.ping_period {
        return Err("--ping-timeout-secs must be below --ping-secs".into());
    }
    let id = id.ok_or("--id is required")?;
    let listen = listen.ok_or("--listen is required")?;
    for (i, &(p, _)) in peers.iter().enumerate() {
        if p == id {
            return Err("--peer must not list this node's own id".into());
        }
        if peers[..i].iter().any(|&(q, _)| q == p) {
            return Err(format!("--peer lists id {p} twice"));
        }
    }
    if create.contains(&id) {
        return Err("--create must not list this node's own id (the root is implicit)".into());
    }
    let seed = seed.unwrap_or(u64::from(id));
    Ok(Opts {
        id,
        listen,
        peers,
        create,
        seed,
        run_secs,
        overlay,
        fuse,
    })
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.trim().parse().map_err(|_| format!("bad number {s:?}"))
}

/// Wall-clock nanoseconds since the UNIX epoch, made strictly monotonic
/// within this process (SystemTime may step; notification latency math
/// across processes must not see time run backwards).
fn wall_ns(last: &mut u64) -> u64 {
    let raw = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    *last = raw.max(*last + 1);
    *last
}

/// The stack and everything its outputs act on.
struct Node {
    stack: FuseStack,
    rng: StdRng,
    t0: Instant,
    /// The stack clock's reading at `t0`: the wall clock's, so a node
    /// respawned under the same id boots at an instant of its own and
    /// creates groups under ids its earlier life never issued.
    origin: u64,
    timers: Timers,
    transport: Transport,
    peers: Vec<NodeInfo>,
    /// `--create`'s members, created when the stack boots.
    boot_group: Vec<NodeInfo>,
    /// The last `t_ns` taken.
    wall: u64,
}

impl Node {
    fn now(&self) -> Time {
        Time(self.origin + self.t0.elapsed().as_nanos() as u64)
    }

    fn handle(&mut self, input: Input) {
        self.stack.handle(self.now(), &mut self.rng, input);
        self.drain();
    }

    /// Carries out the stack's outputs, dispatching application calls
    /// inline (their own outputs append behind and drain in the same loop),
    /// then feeds back every link the transport found broken.
    fn drain(&mut self) {
        loop {
            while let Some(out) = self.stack.poll_output() {
                match out {
                    Output::Send { to, msg } => self.transport.send(to, &msg),
                    Output::SetTimer { key, after } => {
                        self.timers.arm(key, self.now().nanos() + after.nanos());
                    }
                    // The stack never emits it: its timers are hints.
                    Output::CancelTimer { .. } => {}
                    Output::App(call) => self.app(call),
                }
            }
            let Some(peer) = self.transport.broken.pop_front() else {
                return;
            };
            let input = Input::LinkBroken { peer };
            self.stack.handle(self.now(), &mut self.rng, input);
        }
    }

    /// Writes what the turn queued, one write per peer. A link the writes
    /// break is fed back, and whatever that queues is written too.
    fn flush(&mut self) {
        loop {
            self.transport.flush(Instant::now());
            if self.transport.broken.is_empty() {
                return;
            }
            self.drain();
        }
    }

    /// Clean shutdown: write out the queued frames, flush every buffered
    /// stdout line behind a final `BYE` marker and exit 0. Process exit
    /// closes the listener and all sockets.
    fn graceful_exit(&mut self) -> ! {
        self.flush();
        println!("BYE");
        let _ = std::io::stdout().flush();
        exit(0);
    }

    fn app(&mut self, call: AppCall) {
        let t_ns = wall_ns(&mut self.wall);
        match call {
            AppCall::Boot if !self.boot_group.is_empty() => {
                let t = self.now();
                let members = std::mem::take(&mut self.boot_group);
                self.stack.api(t, &mut self.rng).create_group(members);
            }
            AppCall::Event(FuseEvent::Created { ticket, result }) => match result {
                Ok(h) => println!("CREATED id={} result=ok t_ns={t_ns}", h.id),
                Err(e) => println!("CREATED id={} result={e:?} t_ns={t_ns}", ticket.id()),
            },
            AppCall::Event(FuseEvent::Notified(n)) => {
                println!("NOTIFIED id={} reason={} t_ns={t_ns}", n.id, n.reason);
            }
            _ => {}
        }
    }

    /// Runs one stdin command: `create <id,id,..>`, `signal <gid>` or
    /// `shutdown`.
    fn control(&mut self, line: &str) -> Result<(), String> {
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let (rest, t) = (rest.trim(), self.now());
        match cmd {
            "create" => {
                let ids = rest.split(',').map(parse::<u32>);
                let ids = ids.collect::<Result<Vec<_>, _>>()?;
                let mut members = Vec::with_capacity(ids.len());
                for m in ids.iter().copied() {
                    match self.peers.iter().find(|i| i.proc == m) {
                        Some(i) => members.push(*i),
                        None => eprintln!("fuse-node: control: create member {m} unknown"),
                    }
                }
                if members.len() < ids.len() {
                    let t_ns = wall_ns(&mut self.wall);
                    println!("CREATED id=? result=unknown-member t_ns={t_ns}");
                    return Ok(());
                }
                self.stack.api(t, &mut self.rng).create_group(members);
            }
            "signal" => {
                let hex = rest.strip_prefix("fuse:").unwrap_or(rest);
                let raw =
                    u64::from_str_radix(hex, 16).map_err(|_| format!("bad group id {rest:?}"))?;
                self.stack.api(t, &mut self.rng).signal_failure(FuseId(raw));
            }
            "shutdown" => self.graceful_exit(),
            other => return Err(format!("unknown control command {other:?}")),
        }
        self.drain();
        Ok(())
    }

    /// Reads once from a readable stream and feeds every complete frame;
    /// `poll` is level-triggered, so bytes left unread report again. False
    /// once the stream is closed, which is reported as `LinkBroken` if its
    /// hello named a peer.
    fn receive(&mut self, (stream, frames): &mut (TcpStream, FrameReader), buf: &mut [u8]) -> bool {
        let open = match stream.read(buf) {
            Ok(0) => false,
            Ok(n) => {
                frames.push(&buf[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(Some((from, msg))) => self.handle(Input::Message { from, msg }),
                        Ok(None) => break true,
                        Err(_) => break false,
                    }
                }
            }
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        };
        if let (false, Some(peer)) = (open, frames.from) {
            self.handle(Input::LinkBroken { peer });
        }
        open
    }
}

/// The readiness loop; it ends only by exiting the process.
fn run(mut node: Node, listener: TcpListener, deadline: Option<Instant>) -> ! {
    // A descriptor of its own for fd 0: std's buffered `Stdin` could hold a
    // second command line that `poll` would never report.
    let stdin = std::io::stdin().as_fd().try_clone_to_owned();
    let mut stdin = stdin.ok().map(File::from);
    let (mut line, mut buf) = (Vec::new(), vec![0; 64 << 10]);
    let mut conns: Vec<(TcpStream, FrameReader)> = Vec::new();
    let (mut fds, mut writers) = (Vec::new(), Vec::new());
    loop {
        if TERM.load(Ordering::Relaxed) || deadline.is_some_and(|d| Instant::now() >= d) {
            node.graceful_exit();
        }
        // Before every poll: the last turn's sends (the boot's, on the
        // first) go out here.
        node.flush();
        let mut wait = TICK;
        if let Some(at) = node.timers.next_deadline() {
            wait = wait.min(Duration::from_nanos(at.saturating_sub(node.now().nanos())));
        }
        if let Some(at) = node.transport.next_retry() {
            wait = wait.min(at.saturating_duration_since(Instant::now()));
        }
        fds.clear();
        writers.clear();
        // After EOF stdin's slot holds -1, which `poll` skips.
        let stdin_fd = stdin.as_ref().map_or(-1, |f| f.as_raw_fd());
        fds.push(PollFd(listener.as_raw_fd(), POLLIN, 0));
        fds.push(PollFd(stdin_fd, POLLIN, 0));
        fds.extend(conns.iter().map(|c| PollFd(c.0.as_raw_fd(), POLLIN, 0)));
        for (peer, fd) in node.transport.blocked() {
            writers.push(peer);
            fds.push(PollFd(fd, POLLOUT, 0));
        }
        // Round up, so a sub-millisecond remainder does not spin.
        let ms = wait.as_nanos().div_ceil(1_000_000) as c_int;
        // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
        // initialised `pollfd` structures (`repr(C)`, the layout POSIX
        // specifies); every descriptor in it stays open during the call.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) } < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != ErrorKind::Interrupted {
                eprintln!("fuse-node: poll failed: {e}");
                exit(1);
            }
            continue;
        }
        let ready = |i: usize| fds[i].2 != 0;
        let first_writer = 2 + conns.len();
        for (k, &peer) in writers.iter().enumerate() {
            if ready(first_writer + k) {
                node.transport.writable(peer, Instant::now());
            }
        }
        // Backwards, so `swap_remove` moves only streams already served.
        for i in (0..conns.len()).rev() {
            if ready(2 + i) && !node.receive(&mut conns[i], &mut buf) {
                conns.swap_remove(i);
            }
        }
        if ready(1) {
            match stdin.as_mut().map_or(Ok(0), |f| f.read(&mut buf)) {
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(n) if n > 0 => line.extend_from_slice(&buf[..n]),
                // EOF ends control, not the node: one run non-interactively
                // serves until --run-secs or a signal. The last command may
                // lack its newline.
                _ => {
                    stdin = None;
                    line.push(b'\n');
                }
            }
            while let Some(nl) = line.iter().position(|&b| b == b'\n') {
                let cmd = String::from_utf8_lossy(&line[..nl]);
                let cmd = cmd.trim();
                if !cmd.is_empty() {
                    if let Err(e) = node.control(cmd) {
                        eprintln!("fuse-node: control: {e}");
                    }
                }
                line.drain(..=nl);
            }
        }
        if ready(0) {
            if let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    conns.push((stream, FrameReader::default()));
                }
            }
        }
        node.transport.retry_due(Instant::now());
        node.drain();
        let tick = node.now().nanos();
        while let Some(key) = node.timers.pop_due(tick) {
            node.handle(Input::Timer(key));
        }
    }
}

fn main() {
    let opts = parse_opts().unwrap_or_else(|e| {
        eprintln!("fuse-node: {e}");
        eprint!("{USAGE}");
        exit(2);
    });
    let fuse_cfg = opts.fuse.build().unwrap_or_else(|e| {
        eprintln!("fuse-node: invalid configuration: {e}");
        exit(2);
    });

    // Static membership: self + peers, ring-ordered by the overlay oracle,
    // identical tables on every process (the sim's converged bootstrap).
    let info = |id: PeerAddr| NodeInfo::new(id, NodeName::numbered(id as usize));
    let mut infos: Vec<NodeInfo> = opts.peers.iter().map(|&(p, _)| info(p)).collect();
    infos.push(info(opts.id));
    infos.sort_by_key(|i| i.proc);
    let tables = build_oracle_tables(&infos, &opts.overlay);
    let Some((_, (cw, ccw, rt))) = infos.iter().zip(tables).find(|(i, _)| i.proc == opts.id) else {
        eprintln!("fuse-node: the overlay oracle built no tables for this node");
        exit(1);
    };
    let mut stack = FuseStack::new(info(opts.id), None, opts.overlay, fuse_cfg);
    stack.overlay.preload_tables(cw, ccw, rt);
    infos.retain(|i| i.proc != opts.id);
    let boot_group = opts.create.iter().map(|&m| {
        *infos.iter().find(|i| i.proc == m).unwrap_or_else(|| {
            eprintln!("fuse-node: --create member {m} is not a known --peer");
            exit(2);
        })
    });
    let boot_group = boot_group.collect();

    // SAFETY: the handler only stores to an atomic, which is
    // async-signal-safe; `signal` has no other precondition.
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
    let listener =
        TcpListener::bind(&opts.listen).and_then(|l| l.set_nonblocking(true).map(|()| l));
    let listener = listener.unwrap_or_else(|e| {
        eprintln!("fuse-node: cannot listen on {}: {e}", opts.listen);
        exit(1);
    });

    let t0 = Instant::now();
    let mut wall = 0;
    let origin = wall_ns(&mut wall);
    let mut node = Node {
        stack,
        rng: StdRng::seed_from_u64(opts.seed),
        t0,
        origin,
        timers: Timers::default(),
        transport: Transport::new(opts.id, &opts.peers),
        peers: infos,
        boot_group,
        wall,
    };
    node.handle(Input::Boot);
    println!("READY");
    let deadline = opts.run_secs.map(|s| t0 + Duration::from_secs(s));
    run(node, listener, deadline)
}
