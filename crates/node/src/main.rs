//! `fuse-node`: a real-socket deployment of the sans-io FUSE stack.
//!
//! One OS process per FUSE node, `std::net` TCP for transport, and the
//! exact same [`fuse_core::FuseStack`] state machine the simulator drives —
//! no `#[cfg]`, no trait indirection, the identical compiled code. The
//! driver's whole job is the translation at the edges:
//!
//! * **Inbound**: a listener thread accepts connections; per-connection
//!   reader threads parse length-prefixed frames into
//!   [`fuse_core::StackMsg`]s and forward them to the single stack thread
//!   as [`fuse_core::Input::Message`]. A reader hitting EOF or an error
//!   reports [`fuse_core::Input::LinkBroken`] — a crashed peer's closed
//!   sockets are what makes crash detection fast over TCP.
//! * **Outbound**: per-peer writer threads own one lazily-(re)connected
//!   `TcpStream` each. A send that cannot be delivered after a bounded
//!   reconnect loop also surfaces as `LinkBroken` (the paper's fail-on-send
//!   TCP semantics).
//! * **Time**: a monotonic [`Instant`] anchor converts to the stack's
//!   nanosecond [`Time`]; `SetTimer` outputs land in a local binary heap
//!   and fire as [`fuse_core::Input::Timer`]. Cancelled or superseded keys
//!   are inert by construction — the stack ignores stale generations.
//! * **Control**: stdin accepts one command per line (`create`, `signal`,
//!   `shutdown`) so an orchestrator like `fuse-load` can drive group
//!   lifecycle without restarting processes. SIGTERM and the `--run-secs`
//!   deadline exit through the same clean path: print `BYE`, flush stdout,
//!   exit 0 (closing the listener and every peer socket with the process).
//!
//! The wire format is minimal: every frame is `u32-LE length ‖ encoded
//! StackMsg`; each fresh connection first sends a `u32-LE` hello carrying
//! the sender's node id so the receiver can attribute the link.
//!
//! Membership is static (this binary demonstrates deployment, not
//! discovery): every process is told the full `--peer id=addr` set and
//! preloads converged overlay routing tables, exactly like the simulator's
//! oracle bootstrap. Group lifecycle events print machine-parseable lines
//! (`READY`, `CREATED …`, `NOTIFIED …`) consumed by the loopback smoke
//! test and the `fuse-load` orchestrator. `CREATED` and `NOTIFIED` carry a
//! wall-clock timestamp `t_ns=<nanoseconds since the UNIX epoch>`, made
//! strictly monotonic within the process, so a same-host orchestrator can
//! compute cross-process fault→notification latencies.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fuse_core::{AppCall, FuseConfig, FuseEvent, FuseId, FuseStack, Input, Output, StackMsg};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_util::{Duration as ProtoDuration, PeerAddr, Time, TimerKey};
use fuse_wire::{Decode, EncodeBuf};

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
    --ping-timeout-secs <N> Overlay ping-ack timeout (default: 20)
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

/// Maximum accepted frame payload; anything larger is a protocol error.
const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Outbound reconnect policy: attempts × delay ≈ 5 s before declaring the
/// connection broken.
const CONNECT_ATTEMPTS: u32 = 25;
const CONNECT_DELAY: std::time::Duration = std::time::Duration::from_millis(200);

/// Set by the SIGTERM handler; the stack loop polls it (≤100 ms latency)
/// and exits through the clean `BYE` path.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM.store(true, Ordering::Relaxed);
}

extern "C" {
    // `signal(2)` from the C runtime std already links; registering a flag
    // store is the one async-signal-safe thing worth doing without libc.
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGTERM: i32 = 15;

/// What the socket and stdin threads report to the single stack thread.
enum Event {
    /// A decoded frame from `from`.
    Frame { from: PeerAddr, msg: StackMsg },
    /// An inbound or outbound connection to `peer` died.
    Broken { peer: PeerAddr },
    /// A control command read from stdin.
    Control(Control),
}

/// Stdin control commands (one per line).
enum Control {
    /// `create <id,id,..>` — create a group over these member ids.
    Create(Vec<PeerAddr>),
    /// `signal <gid>` — signal failure of a group by id.
    Signal(u64),
    /// `shutdown` — clean exit.
    Shutdown,
}

fn parse_control(line: &str) -> Result<Control, String> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "create" => {
            let mut members = Vec::new();
            for part in rest.split(',') {
                members.push(parse_u32(part)?);
            }
            Ok(Control::Create(members))
        }
        "signal" => {
            let hex = rest.strip_prefix("fuse:").unwrap_or(rest);
            let raw = u64::from_str_radix(hex, 16).map_err(|_| format!("bad group id {rest:?}"))?;
            Ok(Control::Signal(raw))
        }
        "shutdown" => Ok(Control::Shutdown),
        other => Err(format!("unknown control command {other:?}")),
    }
}

struct Opts {
    id: PeerAddr,
    listen: String,
    peers: Vec<(PeerAddr, String)>,
    create: Vec<PeerAddr>,
    seed: u64,
    run_secs: Option<u64>,
    ping_secs: Option<u64>,
    ping_timeout_secs: Option<u64>,
    link_timeout_secs: Option<u64>,
    member_repair_secs: Option<u64>,
    root_repair_secs: Option<u64>,
    grace_secs: Option<u64>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut id = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut create = Vec::new();
    let mut seed = None;
    let mut run_secs = None;
    let mut ping_secs = None;
    let mut ping_timeout_secs = None;
    let mut link_timeout_secs = None;
    let mut member_repair_secs = None;
    let mut root_repair_secs = None;
    let mut grace_secs = None;
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
            "--id" => id = Some(parse_u32(&val("--id")?)?),
            "--listen" => listen = Some(val("--listen")?),
            "--peer" => {
                let v = val("--peer")?;
                let (pid, addr) = v
                    .split_once('=')
                    .ok_or(format!("--peer wants id=addr, got {v:?}"))?;
                peers.push((parse_u32(pid)?, addr.to_string()));
            }
            "--create" => {
                for part in val("--create")?.split(',') {
                    create.push(parse_u32(part)?);
                }
            }
            "--seed" => seed = Some(parse_u64(&val("--seed")?)?),
            "--run-secs" => run_secs = Some(parse_u64(&val("--run-secs")?)?),
            "--ping-secs" => ping_secs = Some(parse_u64(&val("--ping-secs")?)?),
            "--ping-timeout-secs" => {
                ping_timeout_secs = Some(parse_u64(&val("--ping-timeout-secs")?)?)
            }
            "--link-timeout-secs" => {
                link_timeout_secs = Some(parse_u64(&val("--link-timeout-secs")?)?)
            }
            "--member-repair-secs" => {
                member_repair_secs = Some(parse_u64(&val("--member-repair-secs")?)?)
            }
            "--root-repair-secs" => {
                root_repair_secs = Some(parse_u64(&val("--root-repair-secs")?)?)
            }
            "--grace-secs" => grace_secs = Some(parse_u64(&val("--grace-secs")?)?),
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    let id = id.ok_or("--id is required")?;
    let listen = listen.ok_or("--listen is required")?;
    if peers.iter().any(|&(p, _)| p == id) {
        return Err("--peer must not list this node's own id".into());
    }
    if create.contains(&id) {
        return Err("--create must not list this node's own id (the root is implicit)".into());
    }
    Ok(Opts {
        id,
        listen,
        peers,
        create,
        seed: seed.unwrap_or(u64::from(id)),
        run_secs,
        ping_secs,
        ping_timeout_secs,
        link_timeout_secs,
        member_repair_secs,
        root_repair_secs,
        grace_secs,
    })
}

fn parse_u32(s: &str) -> Result<u32, String> {
    s.trim().parse().map_err(|_| format!("bad number {s:?}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad number {s:?}"))
}

/// Wall-clock nanoseconds since the UNIX epoch, made strictly monotonic
/// within this process (SystemTime may step; notification latency math
/// across processes must not see time run backwards).
fn wall_ns(last: &Cell<u64>) -> u64 {
    let raw = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let t = raw.max(last.get() + 1);
    last.set(t);
    t
}

/// Clean shutdown: flush every buffered stdout line behind a final `BYE`
/// marker and exit 0. Process exit closes the listener and all sockets.
fn graceful_exit() -> ! {
    println!("BYE");
    let _ = std::io::stdout().flush();
    exit(0);
}

/// Reads frames off one accepted connection until it dies.
fn reader_loop(mut conn: TcpStream, events: mpsc::Sender<Event>) {
    // Hello: the sender's node id.
    let mut idbuf = [0u8; 4];
    if conn.read_exact(&mut idbuf).is_err() {
        return; // died before identifying itself: nothing to attribute
    }
    let from = u32::from_le_bytes(idbuf);
    loop {
        let mut lenbuf = [0u8; 4];
        if conn.read_exact(&mut lenbuf).is_err() {
            let _ = events.send(Event::Broken { peer: from });
            return;
        }
        let len = u32::from_le_bytes(lenbuf);
        if len > MAX_FRAME {
            let _ = events.send(Event::Broken { peer: from });
            return;
        }
        let mut payload = vec![0u8; len as usize];
        if conn.read_exact(&mut payload).is_err() {
            let _ = events.send(Event::Broken { peer: from });
            return;
        }
        match StackMsg::from_bytes(&payload) {
            Ok(msg) => {
                if events.send(Event::Frame { from, msg }).is_err() {
                    return; // main loop gone: shutting down
                }
            }
            Err(_) => {
                let _ = events.send(Event::Broken { peer: from });
                return;
            }
        }
    }
}

/// Owns the outbound connection to one peer: connects lazily with bounded
/// retries, sends the hello, then writes frames. Any failure tears the
/// stream down, reports `Broken`, and the next frame starts over.
fn writer_loop(
    my_id: PeerAddr,
    peer: PeerAddr,
    addr: String,
    frames: mpsc::Receiver<Vec<u8>>,
    events: mpsc::Sender<Event>,
) {
    let mut stream: Option<TcpStream> = None;
    while let Ok(frame) = frames.recv() {
        if stream.is_none() {
            for attempt in 0..CONNECT_ATTEMPTS {
                match TcpStream::connect(&addr) {
                    Ok(mut s) => {
                        if s.set_nodelay(true).is_ok() && s.write_all(&my_id.to_le_bytes()).is_ok()
                        {
                            stream = Some(s);
                        }
                        break;
                    }
                    Err(_) if attempt + 1 < CONNECT_ATTEMPTS => thread::sleep(CONNECT_DELAY),
                    Err(_) => {}
                }
            }
        }
        let ok = match stream.as_mut() {
            Some(s) => s.write_all(&frame).is_ok(),
            None => false,
        };
        if !ok {
            stream = None;
            if events.send(Event::Broken { peer }).is_err() {
                return;
            }
        }
    }
}

/// Outbound fan-out: one channel + writer thread per known peer.
struct Transport {
    writers: HashMap<PeerAddr, mpsc::Sender<Vec<u8>>>,
    /// Reused for every frame; only the copy handed to the writer thread
    /// is allocated per send.
    ebuf: EncodeBuf,
}

impl Transport {
    fn new(my_id: PeerAddr, peers: &[(PeerAddr, String)], events: &mpsc::Sender<Event>) -> Self {
        let mut writers = HashMap::new();
        for &(pid, ref addr) in peers {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            let (addr, ev) = (addr.clone(), events.clone());
            thread::spawn(move || writer_loop(my_id, pid, addr, rx, ev));
            writers.insert(pid, tx);
        }
        Transport {
            writers,
            ebuf: EncodeBuf::new(),
        }
    }

    fn send(&mut self, to: PeerAddr, msg: &StackMsg, events: &mpsc::Sender<Event>) {
        let Some(tx) = self.writers.get(&to) else {
            // Unknown peer: with static membership this is a config error;
            // surface it as an immediately-broken link.
            let _ = events.send(Event::Broken { peer: to });
            return;
        };
        let _ = tx.send(self.ebuf.encode_frame(msg).to_vec());
    }
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuse-node: {e}");
            eprint!("{USAGE}");
            exit(2);
        }
    };

    // Static membership: self + peers, ring-ordered by the overlay oracle,
    // identical tables on every process (the sim's converged bootstrap).
    let mut infos: Vec<NodeInfo> = opts
        .peers
        .iter()
        .map(|&(pid, _)| NodeInfo::new(pid, NodeName::numbered(pid as usize)))
        .collect();
    infos.push(NodeInfo::new(opts.id, NodeName::numbered(opts.id as usize)));
    infos.sort_by_key(|i| i.proc);
    let me = *infos.iter().find(|i| i.proc == opts.id).unwrap();
    let mut ov_cfg = OverlayConfig::default();
    if let Some(s) = opts.ping_secs {
        ov_cfg.ping_period = ProtoDuration::from_secs(s);
    }
    if let Some(s) = opts.ping_timeout_secs {
        ov_cfg.ping_timeout = ProtoDuration::from_secs(s);
    }
    let mut fuse_b = FuseConfig::builder();
    if let Some(s) = opts.link_timeout_secs {
        fuse_b = fuse_b.link_failure_timeout(ProtoDuration::from_secs(s));
    }
    if let Some(s) = opts.member_repair_secs {
        fuse_b = fuse_b.member_repair_timeout(ProtoDuration::from_secs(s));
    }
    if let Some(s) = opts.root_repair_secs {
        fuse_b = fuse_b.root_repair_timeout(ProtoDuration::from_secs(s));
    }
    if let Some(s) = opts.grace_secs {
        fuse_b = fuse_b.reconcile_grace(ProtoDuration::from_secs(s));
    }
    let fuse_cfg = match fuse_b.build() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuse-node: invalid configuration: {e}");
            exit(2);
        }
    };
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let my_index = infos.iter().position(|i| i.proc == opts.id).unwrap();
    let (cw, ccw, rt) = tables.into_iter().nth(my_index).unwrap();

    let mut stack = FuseStack::new(me, None, ov_cfg, fuse_cfg);
    stack.overlay.preload_tables(cw, ccw, rt);

    let (events_tx, events_rx) = mpsc::channel::<Event>();

    // Clean-exit signal: the handler only flips a flag the loop polls.
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }

    // Inbound: listener → reader threads.
    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fuse-node: cannot listen on {}: {e}", opts.listen);
            exit(1);
        }
    };
    {
        let tx = events_tx.clone();
        thread::spawn(move || {
            for conn in listener.incoming() {
                match conn {
                    Ok(c) => {
                        let tx = tx.clone();
                        thread::spawn(move || reader_loop(c, tx));
                    }
                    Err(ref e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                    Err(_) => return,
                }
            }
        });
    }

    // Control: stdin lines become events; EOF just ends the thread (a node
    // run non-interactively keeps serving until --run-secs or a signal).
    {
        let tx = events_tx.clone();
        thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines().map_while(Result::ok) {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_control(&line) {
                    Ok(c) => {
                        if tx.send(Event::Control(c)).is_err() {
                            return;
                        }
                    }
                    Err(e) => eprintln!("fuse-node: control: {e}"),
                }
            }
        });
    }

    let mut transport = Transport::new(opts.id, &opts.peers, &events_tx);

    // The stack thread: monotonic clock, timer heap, event pump.
    let t0 = Instant::now();
    let now = |t0: Instant| Time(t0.elapsed().as_nanos() as u64);
    let wall = Cell::new(0u64);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut timers: BinaryHeap<Reverse<(u64, TimerKey)>> = BinaryHeap::new();
    let mut cancelled: HashSet<TimerKey> = HashSet::new();
    let member_infos: Vec<NodeInfo> = opts
        .create
        .iter()
        .map(|&m| {
            *infos.iter().find(|i| i.proc == m).unwrap_or_else(|| {
                eprintln!("fuse-node: --create member {m} is not a known --peer");
                exit(2);
            })
        })
        .collect();
    let wants_group = !opts.create.is_empty();

    // Drains stack outputs, dispatching application calls inline (their own
    // outputs append behind and drain in the same loop).
    let mut drain = |stack: &mut FuseStack,
                     rng: &mut StdRng,
                     timers: &mut BinaryHeap<Reverse<(u64, TimerKey)>>,
                     cancelled: &mut HashSet<TimerKey>| {
        while let Some(out) = stack.poll_output() {
            match out {
                Output::Send { to, msg } => transport.send(to, &msg, &events_tx),
                Output::SetTimer { key, after } => {
                    timers.push(Reverse((now(t0).nanos() + after.nanos(), key)));
                }
                Output::CancelTimer { key } => {
                    cancelled.insert(key);
                }
                Output::App(call) => match call {
                    AppCall::Boot => {
                        if wants_group {
                            let t = now(t0);
                            let mut api = stack.api(t, rng);
                            api.create_group(member_infos.clone());
                        }
                    }
                    AppCall::Event(FuseEvent::Created { ticket, result }) => match result {
                        Ok(h) => {
                            println!("CREATED id={} result=ok t_ns={}", h.id, wall_ns(&wall));
                        }
                        Err(e) => println!(
                            "CREATED id={} result={e:?} t_ns={}",
                            ticket.id(),
                            wall_ns(&wall)
                        ),
                    },
                    AppCall::Event(FuseEvent::Notified(n)) => {
                        println!(
                            "NOTIFIED id={} reason={} t_ns={}",
                            n.id,
                            n.reason,
                            wall_ns(&wall)
                        );
                    }
                    AppCall::Message { .. } | AppCall::Timer(_) => {}
                },
            }
        }
    };

    stack.handle(now(t0), &mut rng, Input::Boot);
    drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
    println!("READY");

    let deadline = opts
        .run_secs
        .map(std::time::Duration::from_secs)
        .map(|d| t0 + d);
    loop {
        if TERM.load(Ordering::Relaxed) {
            graceful_exit();
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                graceful_exit();
            }
        }
        // Sleep until the next timer, the next socket event, or a 100 ms
        // housekeeping tick, whichever is first.
        let mut wait = std::time::Duration::from_millis(100);
        if let Some(&Reverse((at, _))) = timers.peek() {
            let due = std::time::Duration::from_nanos(at.saturating_sub(now(t0).nanos()));
            wait = wait.min(due);
        }
        match events_rx.recv_timeout(wait) {
            Ok(Event::Frame { from, msg }) => {
                stack.handle(now(t0), &mut rng, Input::Message { from, msg });
                drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
            }
            Ok(Event::Broken { peer }) => {
                stack.handle(now(t0), &mut rng, Input::LinkBroken { peer });
                drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
            }
            Ok(Event::Control(Control::Shutdown)) => graceful_exit(),
            Ok(Event::Control(Control::Create(members))) => {
                let mut resolved = Vec::with_capacity(members.len());
                let mut ok = true;
                for m in &members {
                    match infos.iter().find(|i| i.proc == *m) {
                        Some(i) if *m != opts.id => resolved.push(*i),
                        _ => {
                            eprintln!("fuse-node: control: create member {m} unknown");
                            ok = false;
                        }
                    }
                }
                if ok {
                    let t = now(t0);
                    let mut api = stack.api(t, &mut rng);
                    api.create_group(resolved);
                    drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
                } else {
                    println!("CREATED id=? result=unknown-member t_ns={}", wall_ns(&wall));
                }
            }
            Ok(Event::Control(Control::Signal(raw))) => {
                let t = now(t0);
                let mut api = stack.api(t, &mut rng);
                api.signal_failure(FuseId(raw));
                drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => exit(1),
        }
        // Fire everything due; stale keys (cancelled or re-armed) are inert
        // in the stack, the `cancelled` set just avoids pointless wakeups.
        let tick = now(t0);
        while let Some(&Reverse((at, key))) = timers.peek() {
            if at > tick.nanos() {
                break;
            }
            timers.pop();
            if cancelled.remove(&key) {
                continue;
            }
            stack.handle(now(t0), &mut rng, Input::Timer(key));
            drain(&mut stack, &mut rng, &mut timers, &mut cancelled);
        }
    }
}
