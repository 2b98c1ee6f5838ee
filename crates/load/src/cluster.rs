//! A live fleet of `fuse-node` processes on 127.0.0.1, every node behind
//! its own [`NodeProxy`].
//!
//! Every node's `--peer j=<addr>` points at proxy *j*, which dials node
//! *j*'s real listener; the hello on each stream names the sender. N nodes
//! therefore run behind N proxies, all reading one shared [`Faults`]: the
//! simulator's `FaultPlane`, mutated through [`Cluster::faults`], plus the
//! ambient delay and loss of [`Cluster::set_ambient`]. The cluster also
//! owns each node's stdout (collected line-by-line with receive order
//! preserved) and stdin (the node's `create`/`signal`/`shutdown` control
//! protocol).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use fuse_net::FaultPlane;
use fuse_sim::ProcId;

use crate::proxy::{Ambient, Faults, NodeProxy};

/// Wall-clock nanoseconds since the UNIX epoch — the clock the nodes stamp
/// `t_ns=` with. Same host, same clock: cross-process subtraction is valid.
pub fn wall_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Compressed `fuse-node` timing flags for bounded-wall-clock runs: ping
/// every 2 s (timeout 1 s), 8 s link-failure timeout, 5 s/10 s repair
/// windows, 1 s reconcile grace. Detection chains that take minutes at
/// the paper defaults resolve in ~20 s; the protocol structure (and the
/// burn guarantee) is unchanged.
pub fn fast_timing_args() -> Vec<String> {
    [
        "--ping-secs",
        "2",
        "--ping-timeout-secs",
        "1",
        "--link-timeout-secs",
        "8",
        "--member-repair-secs",
        "5",
        "--root-repair-secs",
        "10",
        "--grace-secs",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A parsed `NOTIFIED id=… reason=… t_ns=…` stdout line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notified {
    /// The burned group id, as printed (`fuse:<hex>`).
    pub gid: String,
    /// The notification reason label.
    pub reason: String,
    /// The node's monotonic wall-clock stamp.
    pub t_ns: u64,
}

/// One live node process: child handle, control stdin, collected stdout.
struct NodeHandle {
    child: Child,
    stdin: ChildStdin,
    lines: Arc<Mutex<Vec<String>>>,
}

impl NodeHandle {
    fn spawn(bin: &PathBuf, args: &[String]) -> std::io::Result<NodeHandle> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take().expect("piped stdin");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Ok(NodeHandle {
            child,
            stdin,
            lines,
        })
    }
}

/// The error type of cluster operations: a human-readable description
/// (every failure here is terminal for the run).
pub type ClusterError = String;

/// A live N-node fleet, one fault proxy per node.
pub struct Cluster {
    /// Fleet size.
    pub n: usize,
    node_bin: PathBuf,
    seed: u64,
    extra_args: Vec<String>,
    node_ports: Vec<u16>,
    faults: Arc<Mutex<Faults>>,
    proxies: Vec<NodeProxy>,
    nodes: Vec<Option<NodeHandle>>,
}

/// Picks a loopback port for a node to listen on. A node is told its
/// port before it exists, so the port must stay free until the child binds
/// it. A `:0` port does not: the kernel hands a released ephemeral port to
/// the next `:0` listener or outbound connection, and a fleet's proxies
/// make dozens of both. Node ports therefore come from below the
/// ephemeral range (32768 and up on Linux), walked by a process-wide
/// counter — fleets launched from parallel threads never share one — that
/// starts at a pid-dependent offset so two processes launching fleets at
/// once begin apart; each candidate is probed by binding it.
fn free_node_port() -> Result<u16, ClusterError> {
    const BASE: u32 = 20_000;
    const SPAN: u32 = 10_000;
    static NEXT: AtomicU32 = AtomicU32::new(0);
    for _ in 0..SPAN {
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let port = (BASE + (std::process::id() % 100 * 100 + k) % SPAN) as u16;
        if TcpListener::bind(("127.0.0.1", port)).is_ok() {
            return Ok(port);
        }
    }
    Err(format!("no free node port in {BASE}..{}", BASE + SPAN))
}

impl Cluster {
    /// Boots `n` nodes, each behind its own proxy, waiting for every node
    /// to print `READY`.
    pub fn launch(
        n: usize,
        node_bin: PathBuf,
        seed: u64,
        extra_args: &[String],
    ) -> Result<Cluster, ClusterError> {
        assert!(n >= 2, "a cluster needs at least two nodes");
        let node_ports: Vec<u16> = (0..n).map(|_| free_node_port()).collect::<Result<_, _>>()?;
        let faults = Arc::new(Mutex::new(Faults::default()));
        let proxies = (0..n)
            .map(|j| {
                let upstream = ([127, 0, 0, 1], node_ports[j]).into();
                NodeProxy::spawn(j as ProcId, n, upstream, Arc::clone(&faults), seed)
                    .map_err(|e| format!("proxy for node {j}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut cluster = Cluster {
            n,
            node_bin,
            seed,
            extra_args: extra_args.to_vec(),
            node_ports,
            faults,
            proxies,
            nodes: (0..n).map(|_| None).collect(),
        };
        for i in 0..n {
            cluster.spawn_node(i)?;
        }
        for i in 0..n {
            cluster.wait_line(i, Duration::from_secs(20), |l| l == "READY")?;
        }
        Ok(cluster)
    }

    fn node_args(&self, i: usize) -> Vec<String> {
        let mut args = vec![
            "--id".into(),
            i.to_string(),
            "--listen".into(),
            format!("127.0.0.1:{}", self.node_ports[i]),
            "--seed".into(),
            (self.seed ^ i as u64).to_string(),
        ];
        for j in 0..self.n {
            if j == i {
                continue;
            }
            args.push("--peer".into());
            args.push(format!("{j}={}", self.proxies[j].addr()));
        }
        args.extend(self.extra_args.iter().cloned());
        args
    }

    /// (Re)spawns node `i` from its canonical argument list.
    pub fn spawn_node(&mut self, i: usize) -> Result<(), ClusterError> {
        let args = self.node_args(i);
        let h =
            NodeHandle::spawn(&self.node_bin, &args).map_err(|e| format!("spawn node {i}: {e}"))?;
        self.nodes[i] = Some(h);
        Ok(())
    }

    /// Whether node `i` currently has a live process.
    pub fn is_up(&mut self, i: usize) -> bool {
        match self.nodes[i].as_mut() {
            Some(h) => h.child.try_wait().ok().flatten().is_none(),
            None => false,
        }
    }

    /// SIGKILLs node `i` (the crash fault).
    pub fn kill(&mut self, i: usize) -> Result<(), ClusterError> {
        let h = self.nodes[i].as_mut().ok_or(format!("node {i} not up"))?;
        h.child.kill().map_err(|e| format!("kill node {i}: {e}"))?;
        let _ = h.child.wait();
        self.nodes[i] = None;
        Ok(())
    }

    /// Restarts a killed node on its original port and waits for `READY`.
    pub fn restart(&mut self, i: usize) -> Result<(), ClusterError> {
        self.spawn_node(i)?;
        // The fresh process's READY is the first one past the previous
        // incarnation's lines (the lines buffer was replaced on spawn).
        self.wait_line(i, Duration::from_secs(20), |l| l == "READY")?;
        Ok(())
    }

    /// Sends one control line to node `i`'s stdin.
    pub fn control(&mut self, i: usize, line: &str) -> Result<(), ClusterError> {
        let h = self.nodes[i].as_mut().ok_or(format!("node {i} not up"))?;
        writeln!(h.stdin, "{line}").map_err(|e| format!("control node {i}: {e}"))?;
        h.stdin.flush().map_err(|e| format!("flush node {i}: {e}"))
    }

    /// Number of stdout lines node `i` has produced so far.
    pub fn line_count(&self, i: usize) -> usize {
        self.nodes[i]
            .as_ref()
            .map(|h| h.lines.lock().unwrap().len())
            .unwrap_or(0)
    }

    /// Polls node `i`'s stdout (from line index `from` on) until a line
    /// matches, returning `(index, line)`.
    pub fn wait_line_from(
        &self,
        i: usize,
        from: usize,
        timeout: Duration,
        pred: impl Fn(&str) -> bool,
    ) -> Result<(usize, String), ClusterError> {
        let h = self.nodes[i].as_ref().ok_or(format!("node {i} not up"))?;
        let deadline = Instant::now() + timeout;
        loop {
            {
                let lines = h.lines.lock().unwrap();
                if let Some((k, l)) = lines.iter().enumerate().skip(from).find(|(_, l)| pred(l)) {
                    return Ok((k, l.clone()));
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "node {i}: timed out waiting for a matching line; output: {:?}",
                    h.lines.lock().unwrap()
                ));
            }
            thread::sleep(Duration::from_millis(20));
        }
    }

    /// [`Self::wait_line_from`] anchored at the start of the current
    /// incarnation's output.
    pub fn wait_line(
        &self,
        i: usize,
        timeout: Duration,
        pred: impl Fn(&str) -> bool,
    ) -> Result<String, ClusterError> {
        self.wait_line_from(i, 0, timeout, pred).map(|(_, l)| l)
    }

    /// Creates a group rooted at `root` over `members` via the control
    /// protocol and returns the printed group id.
    pub fn create_group(
        &mut self,
        root: usize,
        members: &[usize],
        timeout: Duration,
    ) -> Result<String, ClusterError> {
        let from = self.line_count(root);
        let ids: Vec<String> = members.iter().map(|m| m.to_string()).collect();
        self.control(root, &format!("create {}", ids.join(",")))?;
        let (_, line) = self.wait_line_from(root, from, timeout, |l| l.starts_with("CREATED "))?;
        if !line.contains("result=ok") {
            return Err(format!("node {root}: creation failed: {line}"));
        }
        line.split_whitespace()
            .find_map(|w| w.strip_prefix("id="))
            .map(|s| s.to_string())
            .ok_or(format!("node {root}: CREATED line lacks an id: {line}"))
    }

    /// All parsed `NOTIFIED` lines node `i` printed for group `gid`.
    pub fn notifications(&self, i: usize, gid: &str) -> Vec<Notified> {
        let Some(h) = self.nodes[i].as_ref() else {
            return Vec::new();
        };
        let lines = h.lines.lock().unwrap();
        lines
            .iter()
            .filter_map(|l| parse_notified(l))
            .filter(|n| n.gid == gid)
            .collect()
    }

    /// Waits for node `i` to print a `NOTIFIED` for `gid`, returning the
    /// parsed line.
    pub fn wait_notified(
        &self,
        i: usize,
        gid: &str,
        timeout: Duration,
    ) -> Result<Notified, ClusterError> {
        let (_, line) = self.wait_line_from(i, 0, timeout, |l| {
            parse_notified(l).map(|n| n.gid == gid).unwrap_or(false)
        })?;
        Ok(parse_notified(&line).expect("predicate matched"))
    }

    /// Mutates the fleet's fault plane, then kills every stream a
    /// disconnect now severs; other faults take effect on the next frame.
    pub fn faults<R>(&self, f: impl FnOnce(&mut FaultPlane) -> R) -> R {
        let r = f(&mut self.faults.lock().unwrap().plane);
        self.proxies.iter().for_each(NodeProxy::kill_severed);
        r
    }

    /// Sets the delay and loss every link carries on top of the plane.
    pub fn set_ambient(&self, ambient: Ambient) {
        self.faults.lock().unwrap().ambient = ambient;
    }

    /// Graceful teardown: `shutdown` to every live node, bounded wait,
    /// SIGKILL stragglers.
    pub fn shutdown(&mut self) {
        for i in 0..self.n {
            let _ = self.control(i, "shutdown");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for i in 0..self.n {
            if let Some(h) = self.nodes[i].as_mut() {
                loop {
                    match h.child.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() >= deadline => {
                            let _ = h.child.kill();
                            let _ = h.child.wait();
                            break;
                        }
                        _ => thread::sleep(Duration::from_millis(20)),
                    }
                }
            }
            self.nodes[i] = None;
        }
        self.proxies.iter().for_each(NodeProxy::stop);
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for h in self.nodes.iter_mut().flatten() {
            let _ = h.child.kill();
            let _ = h.child.wait();
        }
    }
}

/// Whether `notes` hold exactly one notification for `gid`: FUSE's
/// exactly-once contract for a survivor (§3). None is a miss; two means
/// the group was delivered twice.
pub fn notified_once(notes: &[Notified], gid: &str) -> bool {
    notes.iter().filter(|n| n.gid == gid).count() == 1
}

/// Parses a `NOTIFIED id=… reason=… t_ns=…` line.
pub fn parse_notified(line: &str) -> Option<Notified> {
    if !line.starts_with("NOTIFIED ") {
        return None;
    }
    let mut gid = None;
    let mut reason = None;
    let mut t_ns = None;
    for w in line.split_whitespace() {
        if let Some(v) = w.strip_prefix("id=") {
            gid = Some(v.to_string());
        } else if let Some(v) = w.strip_prefix("reason=") {
            reason = Some(v.to_string());
        } else if let Some(v) = w.strip_prefix("t_ns=") {
            t_ns = v.parse().ok();
        }
    }
    Some(Notified {
        gid: gid?,
        reason: reason?,
        t_ns: t_ns?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_notified_lines() {
        let n = parse_notified(
            "NOTIFIED id=fuse:00000000002a0000 reason=connection-broken t_ns=123456789",
        )
        .unwrap();
        assert_eq!(n.gid, "fuse:00000000002a0000");
        assert_eq!(n.reason, "connection-broken");
        assert_eq!(n.t_ns, 123_456_789);
        assert!(parse_notified("READY").is_none());
        assert!(
            parse_notified("NOTIFIED id=x reason=y").is_none(),
            "t_ns required"
        );
    }

    #[test]
    fn exactly_one_notification_per_group() {
        let note = |gid: &str, t_ns| Notified {
            gid: gid.to_string(),
            reason: "connection-broken".to_string(),
            t_ns,
        };
        assert!(!notified_once(&[], "fuse:1"), "zero lines: a miss");
        assert!(!notified_once(&[note("fuse:2", 5)], "fuse:1"));
        assert!(notified_once(
            &[note("fuse:1", 1), note("fuse:2", 5)],
            "fuse:1"
        ));
        let twice = [note("fuse:1", 1), note("fuse:2", 5), note("fuse:1", 2)];
        assert!(
            !notified_once(&twice, "fuse:1"),
            "two lines: delivered twice"
        );
    }
}
