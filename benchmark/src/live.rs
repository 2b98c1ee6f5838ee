//! `live_loopback`: four `fuse-node` processes on 127.0.0.1, peered
//! directly, driven by one closed-loop client with one operation
//! outstanding.
//!
//! The client is this thread. It writes control lines to the nodes' stdin
//! and waits on their four stdout pipes with `poll(2)`, so no reader thread
//! competes with the fleet for the host's two cores.

use std::ffi::{c_int, c_ulong};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger::Counts;
use crate::procfs;

/// Fleet size: the root and three members, every node in every group.
pub const FLEET: usize = 4;
/// Cycles in one slice.
pub const CYCLES_PER_SLICE: usize = 200;
/// Wall-clock time cycles run unrecorded after the fleet is ready, so every
/// connection is open before the first measured slice.
const WARM_UP: Duration = Duration::from_secs(1);
/// Wall-clock time an operation may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall-clock time a node may take to print `READY`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    // `poll(2)` from the C library std already links.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Where cargo puts what it builds for this checkout.
fn target_dir(repo: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        // Cargo resolved a relative value against the directory it was
        // started in, which this process inherited.
        Some(dir) => std::env::current_dir()
            .map(|cwd| cwd.join(&dir))
            .unwrap_or_else(|_| PathBuf::from(dir)),
        None => repo.join("target"),
    }
}

/// Builds `fuse-node` from the repository this benchmark was compiled in
/// (a no-op when it is up to date) and returns the binary's path. Cargo's
/// output goes to standard error, so the result line stays last on
/// standard output.
pub fn build_node() -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark directory has no parent")?;
    let target = target_dir(repo);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "fuse-node",
        ])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build fuse-node: {e}"))?;
    if !status.success() {
        return Err(format!("building fuse-node failed: {status}"));
    }
    let bin = target.join("release").join("fuse-node");
    if !bin.is_file() {
        return Err(format!(
            "fuse-node was built but {} is missing",
            bin.display()
        ));
    }
    Ok(bin)
}

struct Node {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    /// Bytes read from `stdout` that do not yet end in a newline.
    partial: Vec<u8>,
}

/// The running fleet. Dropping it kills every node and waits for it, on
/// every exit path, so a wedged node cannot outlive or hang the run.
pub struct Fleet {
    nodes: Vec<Node>,
    /// Complete lines read but not yet consumed, oldest first.
    lines: std::collections::VecDeque<(usize, String)>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for n in &mut self.nodes {
            // Both fail only if the node is already gone.
            let _ = n.child.kill();
            let _ = n.child.wait();
        }
    }
}

fn free_port() -> Result<u16, String> {
    // Bind to port 0 and release: racy in principle, fine on the timescale
    // of a spawn (the repository's own loopback harness does the same).
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("no free loopback port: {e}"))
}

impl Fleet {
    /// Spawns the nodes with default timers, each told the other three, and
    /// waits until all have printed `READY`.
    pub fn launch(bin: &Path, seed: u64) -> Result<Fleet, String> {
        let ports: Vec<u16> = (0..FLEET).map(|_| free_port()).collect::<Result<_, _>>()?;
        let mut fleet = Fleet {
            nodes: Vec::with_capacity(FLEET),
            lines: Default::default(),
        };
        for i in 0..FLEET {
            let mut cmd = Command::new(bin);
            cmd.args(["--id", &i.to_string()])
                .args(["--listen", &format!("127.0.0.1:{}", ports[i])])
                .args(["--seed", &(seed ^ i as u64).to_string()]);
            for (j, port) in ports.iter().enumerate().filter(|&(j, _)| j != i) {
                cmd.args(["--peer", &format!("{j}=127.0.0.1:{port}")]);
            }
            let mut child = cmd
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
            let stdin = child.stdin.take().expect("stdin was piped");
            let stdout = child.stdout.take().expect("stdout was piped");
            fleet.nodes.push(Node {
                child,
                stdin,
                stdout,
                partial: Vec::new(),
            });
        }
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut ready = [false; FLEET];
        while ready.contains(&false) {
            match fleet.next_line(deadline)? {
                Some((i, line)) if line == "READY" => ready[i] = true,
                Some((i, line)) => return Err(format!("node {i} said {line:?} before READY")),
                None => return Err("the fleet was not ready in time".into()),
            }
        }
        Ok(fleet)
    }

    /// The next complete stdout line of any node, or `None` at `deadline`.
    fn next_line(&mut self, deadline: Instant) -> Result<Option<(usize, String)>, String> {
        loop {
            if let Some(l) = self.lines.pop_front() {
                return Ok(Some(l));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            let mut fds: [PollFd; FLEET] = std::array::from_fn(|i| PollFd {
                fd: self.nodes[i].stdout.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            // Round up, so a sub-millisecond remainder does not spin.
            let timeout_ms = left.as_millis().min(c_int::MAX as u128 - 1) as c_int + 1;
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` initialised `pollfd` structures (`repr(C)`, the
            // layout POSIX specifies), and every descriptor in it is an
            // open pipe owned by `self.nodes` for the duration of the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(format!("poll on the node pipes failed: {e}"));
            }
            for (i, fd) in fds.iter().enumerate() {
                // Any event, hang-up and error included, makes `read`
                // return at once; a closed pipe then reads as 0 bytes.
                if fd.revents != 0 {
                    self.read_node(i)?;
                }
            }
        }
    }

    fn read_node(&mut self, i: usize) -> Result<(), String> {
        let node = &mut self.nodes[i];
        let mut buf = [0u8; 4096];
        let n = node
            .stdout
            .read(&mut buf)
            .map_err(|e| format!("reading node {i}: {e}"))?;
        if n == 0 {
            return Err(format!("node {i} closed its output: it exited"));
        }
        node.partial.extend_from_slice(&buf[..n]);
        while let Some(nl) = node.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = node.partial.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            self.lines.push_back((i, line));
        }
        Ok(())
    }

    fn command(&mut self, node: usize, line: &str) -> Result<(), String> {
        let stdin = &mut self.nodes[node].stdin;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to node {node}: {e}"))
    }

    /// Accounting of the whole fleet: sums over the nodes.
    pub fn sample(&self) -> std::io::Result<procfs::Sample> {
        let mut sum = procfs::Sample::default();
        for n in &self.nodes {
            let s = procfs::sample(&n.child.id().to_string())?;
            sum.cpu_s += s.cpu_s;
            sum.cpu_user_s += s.cpu_user_s;
            sum.cpu_sys_s += s.cpu_sys_s;
            sum.ctx_switches += s.ctx_switches;
            sum.threads += s.threads;
            sum.rss_mb += s.rss_mb;
            sum.hwm_mb += s.hwm_mb;
        }
        Ok(sum)
    }
}

/// A parsed `CREATED` or `NOTIFIED` line.
#[derive(Debug, PartialEq, Eq)]
enum NodeLine<'a> {
    Created { id: &'a str, ok: bool },
    Notified { id: &'a str },
    Other,
}

fn parse_line(line: &str) -> NodeLine<'_> {
    let mut words = line.split(' ');
    let kind = words.next();
    let mut field = |key: &str| words.next().and_then(|w| w.strip_prefix(key));
    match kind {
        Some("CREATED") => match (field("id="), field("result=")) {
            (Some(id), Some(result)) => NodeLine::Created {
                id,
                ok: result == "ok",
            },
            _ => NodeLine::Other,
        },
        Some("NOTIFIED") => match field("id=") {
            Some(id) => NodeLine::Notified { id },
            None => NodeLine::Other,
        },
        _ => NodeLine::Other,
    }
}

/// The workload on one fleet.
pub struct LiveLoad {
    fleet: Fleet,
    /// Draws the signaller of each cycle.
    rng: StdRng,
    /// Create latencies, wall-clock milliseconds, measured slices only.
    pub create_ms: Vec<f64>,
    /// Signal to last `NOTIFIED` latencies, wall-clock milliseconds.
    pub notify_ms: Vec<f64>,
    /// Whole cycles, wall-clock milliseconds.
    pub cycle_ms: Vec<f64>,
    /// Outcome counts, warm-up included, since the caller last took them.
    pub counts: Counts,
}

impl LiveLoad {
    /// Launches the fleet and warms it up.
    pub fn setup(bin: &Path, seed: u64) -> Result<Self, String> {
        let mut load = LiveLoad {
            fleet: Fleet::launch(bin, seed)?,
            rng: StdRng::seed_from_u64(seed ^ 0x6c69_7665),
            create_ms: Vec::new(),
            notify_ms: Vec::new(),
            cycle_ms: Vec::new(),
            counts: Counts::default(),
        };
        let end = Instant::now() + WARM_UP;
        while Instant::now() < end {
            load.cycle(false)?;
        }
        Ok(load)
    }

    /// Runs one slice; returns the cycles completed.
    pub fn slice(&mut self) -> Result<f64, String> {
        for _ in 0..CYCLES_PER_SLICE {
            self.cycle(true)?;
        }
        Ok(CYCLES_PER_SLICE as f64)
    }

    /// Accounting of the fleet.
    pub fn sample(&self) -> std::io::Result<procfs::Sample> {
        self.fleet.sample()
    }

    /// One create → `CREATED` → signal → four `NOTIFIED` cycle. An
    /// operation that fails, times out or loses its node is counted as
    /// failed, every member still unheard as missed, and the error ends the
    /// run: the fleet's state is then unknown.
    fn cycle(&mut self, record: bool) -> Result<(), String> {
        let t0 = Instant::now();
        self.counts.attempted += 1;
        let gid = self
            .create(t0 + OP_TIMEOUT)
            .inspect_err(|_| self.counts.failed += 1)?;
        let t1 = Instant::now();
        self.counts.attempted += 1;
        let mut heard = [false; FLEET];
        if let Err(e) = self.signal(&gid, t1 + OP_TIMEOUT, &mut heard) {
            self.counts.failed += 1;
            self.counts.missed += heard.iter().filter(|&&h| !h).count() as u64;
            return Err(e);
        }
        let t2 = Instant::now();
        if record {
            self.create_ms.push((t1 - t0).as_secs_f64() * 1e3);
            self.notify_ms.push((t2 - t1).as_secs_f64() * 1e3);
            self.cycle_ms.push((t2 - t0).as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// Creates a group of all four nodes at node 0; its id.
    fn create(&mut self, deadline: Instant) -> Result<String, String> {
        self.fleet.command(0, "create 1,2,3\n")?;
        loop {
            match self.fleet.next_line(deadline)? {
                Some((0, line)) => match parse_line(&line) {
                    NodeLine::Created { id, ok: true } => return Ok(id.to_string()),
                    NodeLine::Created { id, ok: false } => {
                        return Err(format!("create of {id} failed: {line}"))
                    }
                    _ => self.counts.spurious += 1,
                },
                Some(_) => self.counts.spurious += 1,
                None => return Err("a create timed out".into()),
            }
        }
    }

    /// Signals `gid` at a random node and waits for one `NOTIFIED` from
    /// every node, marking each in `heard`.
    fn signal(
        &mut self,
        gid: &str,
        deadline: Instant,
        heard: &mut [bool; FLEET],
    ) -> Result<(), String> {
        let signaller = self.rng.gen_range(0..FLEET);
        self.fleet.command(signaller, &format!("signal {gid}\n"))?;
        while heard.contains(&false) {
            match self.fleet.next_line(deadline)? {
                Some((i, line)) => match parse_line(&line) {
                    NodeLine::Notified { id } if id == gid && !heard[i] => heard[i] = true,
                    // A notification for another group, a second one at
                    // this node, or a line nothing asked for.
                    _ => self.counts.spurious += 1,
                },
                None => return Err(format!("a signal of {gid} timed out")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lines_parse() {
        assert_eq!(
            parse_line("CREATED id=fuse:00ab result=ok t_ns=17"),
            NodeLine::Created {
                id: "fuse:00ab",
                ok: true
            }
        );
        assert_eq!(
            parse_line("CREATED id=fuse:00ab result=MemberUnreachable t_ns=17"),
            NodeLine::Created {
                id: "fuse:00ab",
                ok: false
            }
        );
        assert_eq!(
            parse_line("NOTIFIED id=fuse:00ab reason=explicit-signal t_ns=18"),
            NodeLine::Notified { id: "fuse:00ab" }
        );
        assert_eq!(parse_line("READY"), NodeLine::Other);
        assert_eq!(parse_line("CREATED nonsense"), NodeLine::Other);
    }

    #[test]
    fn a_node_that_dies_between_two_cycles_is_a_failed_operation() {
        let bin = build_node().expect("fuse-node builds");
        let mut load = LiveLoad::setup(&bin, 7).expect("the fleet starts");
        for _ in 0..20 {
            load.cycle(true)
                .expect("a healthy fleet completes its cycles");
        }
        let healthy = load.counts;
        assert_eq!(
            (healthy.failed, healthy.missed, healthy.spurious),
            (0, 0, 0)
        );

        let victim = &mut load.fleet.nodes[2].child;
        victim.kill().expect("node 2 was running");
        victim.wait().expect("node 2 can be waited for");
        // Whichever the client meets first — the closed pipe, a create that
        // cannot reach node 2, a signal it never answers — the slice ends in
        // an error and the operation in flight is on the books as failed.
        load.slice()
            .expect_err("a slice cannot complete on three nodes");
        assert_eq!(load.counts.failed, 1);
        assert!(load.counts.attempted > healthy.attempted);
        assert_eq!(load.cycle_ms.len(), 20, "nothing recorded after the kill");
    }
}
