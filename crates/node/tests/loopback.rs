//! Multi-process loopback tests: real `fuse-node` processes on 127.0.0.1,
//! groups created over actual TCP, real fault injection (SIGKILL, SIGSTOP,
//! SIGTERM), and the paper's notification guarantee checked against the
//! wall clock.
//!
//! These are the deployment-mode counterparts of the simulator suites: the
//! same state machine, real sockets, real clock, real process death. Covered
//! here:
//!
//! * EOF detection — SIGKILL closes sockets, survivors' readers see EOF
//!   (`Input::LinkBroken`), the connection-broken path burns the group;
//! * liveness detection — a SIGSTOPped peer keeps its sockets open and
//!   never answers, so detection must ride the ping-timeout/liveness path
//!   instead;
//! * graceful shutdown — SIGTERM, stdin `shutdown`, and `--run-secs` all
//!   exit 0 through the flushed `BYE` path, which first writes out the
//!   frames the last turn queued;
//! * restart — a SIGKILLed member restarted on the same port joins a brand
//!   new group (stale timers on the survivors stay inert).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Kills the child on drop so a failing assertion never leaks processes.
struct NodeProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Every stdout line so far; the condvar wakes waiters on each new one.
    lines: Arc<(Mutex<Vec<String>>, Condvar)>,
    /// Every stderr line so far, printed when a wait times out.
    errors: Arc<Mutex<Vec<String>>>,
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        // SIGCONT first: SIGSTOPped children must be killable-waitable.
        let _ = Command::new("kill")
            .args(["-CONT", &self.child.id().to_string()])
            .output();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl NodeProc {
    fn spawn(args: &[String]) -> NodeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fuse-node"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fuse-node");
        let stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");
        let stdin = child.stdin.take();
        let lines = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        let sink = Arc::clone(&lines);
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.0.lock().unwrap().push(line);
                sink.1.notify_all();
            }
        });
        let errors = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&errors);
        thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        NodeProc {
            child,
            stdin,
            lines,
            errors,
        }
    }

    /// Sends one control line down the node's stdin.
    fn control(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin piped");
        writeln!(stdin, "{line}").expect("write control line");
        stdin.flush().expect("flush control line");
    }

    /// Sends a Unix signal by name (`TERM`, `STOP`, `CONT`).
    fn signal(&self, sig: &str) {
        let ok = Command::new("kill")
            .args([&format!("-{sig}"), &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -{sig} failed");
    }

    /// Waits for the child to exit, failing after `timeout`.
    fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(st) = self.child.try_wait().expect("try_wait") {
                return st;
            }
            assert!(Instant::now() < deadline, "child did not exit in time");
            thread::sleep(Duration::from_millis(20));
        }
    }

    /// Waits until some stdout line satisfies `pred`, failing after
    /// `timeout`.
    fn wait_for(&self, what: &str, timeout: Duration, pred: impl Fn(&str) -> bool) -> String {
        self.next_line(&mut 0, what, timeout, pred)
    }

    /// Waits until a stdout line at or after `*cursor` satisfies `pred` and
    /// moves `*cursor` past it, failing after `timeout`.
    fn next_line(
        &self,
        cursor: &mut usize,
        what: &str,
        timeout: Duration,
        pred: impl Fn(&str) -> bool,
    ) -> String {
        let deadline = Instant::now() + timeout;
        let (lock, cv) = &*self.lines;
        let mut lines = lock.lock().unwrap();
        loop {
            if let Some(k) = lines[*cursor..].iter().position(|l| pred(l)) {
                *cursor += k + 1;
                return lines[*cursor - 1].clone();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let so_far = lines.clone();
                drop(lines);
                let stderr = self.errors.lock().unwrap().clone();
                panic!(
                    "timed out waiting for {what}; output so far: {so_far:?}; stderr: {stderr:?}"
                );
            }
            lines = cv.wait_timeout(lines, left).unwrap().0;
        }
    }

    /// A numeric field of the child's `/proc/<pid>/status` (`Threads`,
    /// `VmRSS` in kB).
    fn status(&self, field: &str) -> u64 {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).expect("read /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or_else(|| panic!("no {field} in {path}"))
    }
}

/// Picks a loopback port for a node spawned later. A released `:0` port
/// may go to the next ephemeral connection any parallel test opens, so
/// ports come from below the ephemeral range (32768 and up on Linux),
/// walked by a process-wide counter from a pid-dependent offset; each
/// candidate is probed by binding it.
fn free_port() -> u16 {
    const BASE: u32 = 10_000;
    const SPAN: u32 = 10_000;
    static NEXT: AtomicU32 = AtomicU32::new(0);
    (0..SPAN)
        .map(|_| {
            let k = NEXT.fetch_add(1, Ordering::Relaxed);
            (BASE + (std::process::id() % 100 * 100 + k) % SPAN) as u16
        })
        .find(|&port| TcpListener::bind(("127.0.0.1", port)).is_ok())
        .expect("a free port below the ephemeral range")
}

fn node_args(id: u32, ports: &[u16], create: Option<&str>, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--id".into(),
        id.to_string(),
        "--listen".into(),
        format!("127.0.0.1:{}", ports[id as usize]),
        "--run-secs".into(),
        "240".into(),
    ];
    for (pid, &port) in ports.iter().enumerate() {
        if pid as u32 != id {
            args.push("--peer".into());
            args.push(format!("{pid}=127.0.0.1:{port}"));
        }
    }
    if let Some(members) = create {
        args.push("--create".into());
        args.push(members.into());
    }
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

fn created_gid(line: &str) -> String {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix("id="))
        .expect("CREATED line carries the group id")
        .to_string()
}

#[test]
fn killed_member_notifies_survivors_over_real_tcp() {
    let ports = [free_port(), free_port(), free_port()];

    // Members first, so the creator's connection attempts land.
    let n1 = NodeProc::spawn(&node_args(1, &ports, None, &[]));
    let n2 = NodeProc::spawn(&node_args(2, &ports, None, &[]));
    n1.wait_for("node 1 READY", Duration::from_secs(10), |l| l == "READY");
    n2.wait_for("node 2 READY", Duration::from_secs(10), |l| l == "READY");

    // The creator boots and immediately creates a group over {0, 1, 2}.
    let n0 = NodeProc::spawn(&node_args(0, &ports, Some("1,2"), &[]));
    let created = n0.wait_for("group creation", Duration::from_secs(20), |l| {
        l.starts_with("CREATED ") && l.contains("result=ok")
    });
    let gid = created_gid(&created);

    // SIGKILL one member: its sockets close, the survivors' readers see
    // EOF, and the connection-broken path burns the group.
    let mut n1 = n1;
    n1.child.kill().expect("kill node 1");

    // §2's guarantee, deployment edition: every live member hears the
    // notification within a bounded time. TCP EOF detection is near-instant
    // (the 30 s budget is slack, not the expectation).
    for (name, node) in [("node 0", &n0), ("node 2", &n2)] {
        let line = node.wait_for(&format!("{name} NOTIFIED"), Duration::from_secs(30), |l| {
            l.starts_with("NOTIFIED ")
        });
        assert!(
            line.contains(&format!("id={gid}")),
            "{name} notified for the wrong group: {line}"
        );
        assert!(
            line.contains(" t_ns="),
            "{name} NOTIFIED line lacks a timestamp: {line}"
        );
    }
}

#[test]
fn sigterm_and_stdin_shutdown_exit_cleanly() {
    let ports = [free_port()];

    // SIGTERM path: flag polled by the event loop, BYE flushed, exit 0.
    let mut a = NodeProc::spawn(&node_args(0, &ports, None, &[]));
    a.wait_for("READY", Duration::from_secs(10), |l| l == "READY");
    a.signal("TERM");
    let st = a.wait_exit(Duration::from_secs(10));
    assert!(st.success(), "SIGTERM exit should be clean, got {st:?}");
    a.wait_for("BYE after SIGTERM", Duration::from_secs(5), |l| l == "BYE");

    // stdin `shutdown` path: same clean exit without any signal.
    let ports = [free_port()];
    let mut b = NodeProc::spawn(&node_args(0, &ports, None, &[]));
    b.wait_for("READY", Duration::from_secs(10), |l| l == "READY");
    b.control("shutdown");
    let st = b.wait_exit(Duration::from_secs(10));
    assert!(st.success(), "shutdown exit should be clean, got {st:?}");
    b.wait_for("BYE after shutdown", Duration::from_secs(5), |l| l == "BYE");

    // --run-secs path: the deadline routes through the same clean exit.
    let ports = [free_port()];
    let mut c = NodeProc::spawn(&[
        "--id".into(),
        "0".into(),
        "--listen".into(),
        format!("127.0.0.1:{}", ports[0]),
        "--run-secs".into(),
        "1".into(),
    ]);
    c.wait_for("READY", Duration::from_secs(10), |l| l == "READY");
    let st = c.wait_exit(Duration::from_secs(10));
    assert!(st.success(), "--run-secs exit should be clean, got {st:?}");
    c.wait_for("BYE after --run-secs", Duration::from_secs(5), |l| {
        l == "BYE"
    });
}

#[test]
fn signal_then_shutdown_in_one_read_still_reaches_the_group() {
    // Output is written once per loop turn, so a `signal` and a `shutdown`
    // read together leave the signal's frames queued when `shutdown` runs:
    // the exit must write them first. Without them the survivors would
    // still burn the group, on the member's EOF, but as connection-broken.
    let ports = [free_port(), free_port(), free_port()];
    let mut n1 = NodeProc::spawn(&node_args(1, &ports, None, &[]));
    let n2 = NodeProc::spawn(&node_args(2, &ports, None, &[]));
    n1.wait_for("node 1 READY", Duration::from_secs(10), |l| l == "READY");
    n2.wait_for("node 2 READY", Duration::from_secs(10), |l| l == "READY");
    let n0 = NodeProc::spawn(&node_args(0, &ports, Some("1,2"), &[]));
    let created = n0.wait_for("group creation", Duration::from_secs(20), |l| {
        l.starts_with("CREATED ") && l.contains("result=ok")
    });
    let gid = created_gid(&created);

    // One write, so one read: both commands run in the same turn.
    let stdin = n1.stdin.as_mut().expect("stdin piped");
    let both = format!("signal {gid}\nshutdown\n");
    stdin
        .write_all(both.as_bytes())
        .expect("write control lines");
    let st = n1.wait_exit(Duration::from_secs(10));
    assert!(st.success(), "shutdown exit should be clean, got {st:?}");
    n1.wait_for("BYE after signal", Duration::from_secs(5), |l| l == "BYE");

    for (name, node) in [("node 0", &n0), ("node 2", &n2)] {
        let line = node.wait_for(&format!("{name} NOTIFIED"), Duration::from_secs(30), |l| {
            l.starts_with("NOTIFIED ") && l.contains(&format!("id={gid}"))
        });
        assert!(
            line.contains("reason=explicit-signal"),
            "{name} should hear the signal, not just the exit: {line}"
        );
    }
}

#[test]
fn create_flag_rejects_the_nodes_own_id() {
    // The stdin `create` command refuses the node's own id; `--create`
    // must too, or the root sends `GroupCreateRequest` to itself, finds no
    // writer for its own id and reports its own link broken. Peer 2 is a
    // known `--peer`, so only the own id (1) can be the reason. The
    // `--run-secs` bound only matters if the check regresses: the node
    // would boot, and the test fails on the exit status instead of hanging.
    let out = Command::new(env!("CARGO_BIN_EXE_fuse-node"))
        .args(["--id", "1", "--listen", "127.0.0.1:0"])
        .args(["--peer", "2=127.0.0.1:9", "--create", "1,2"])
        .args(["--run-secs", "2"])
        .stdin(Stdio::null())
        .output()
        .expect("run fuse-node");
    assert_eq!(out.status.code(), Some(2), "usage error, got {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--create must not list this node's own id"),
        "stderr names the reason: {stderr}"
    );
}

#[test]
fn peer_flag_rejects_a_repeated_id() {
    // A second `--peer 2=…` would silently replace the first address while
    // both entries stayed in the ring the routing tables are built from.
    let out = Command::new(env!("CARGO_BIN_EXE_fuse-node"))
        .args(["--id", "1", "--listen", "127.0.0.1:0"])
        .args(["--peer", "2=127.0.0.1:9", "--peer", "2=127.0.0.1:10"])
        .args(["--run-secs", "2"])
        .stdin(Stdio::null())
        .output()
        .expect("run fuse-node");
    assert_eq!(out.status.code(), Some(2), "usage error, got {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--peer lists id 2 twice"),
        "stderr names the reason: {stderr}"
    );
}

#[test]
fn ping_flag_rejects_zero() {
    // A zero ping period re-arms the ping timer at +0 on every loop turn:
    // the node would spin at full CPU and flood its peers. A zero ping
    // timeout fires before any ack can arrive: every ping would declare its
    // neighbour dead and burn every group on the link.
    for flag in ["--ping-secs", "--ping-timeout-secs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fuse-node"))
            .args(["--id", "0", "--listen", "127.0.0.1:0", flag, "0"])
            .args(["--run-secs", "2"])
            .stdin(Stdio::null())
            .output()
            .expect("run fuse-node");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} 0: usage error, got {out:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be non-zero")),
            "stderr names the flag: {stderr}"
        );
    }
}

#[test]
fn ping_timeout_at_or_above_the_period_is_a_usage_error() {
    // Each ping replaces the wait of the last one, so a wait that does not
    // end before the next ping never comes due: a stopped or partitioned
    // neighbour would never be declared dead by the overlay.
    let timings: [&[&str]; 2] = [
        &["--ping-secs", "20", "--ping-timeout-secs", "20"],
        // Above the default 60 s period.
        &["--ping-timeout-secs", "90"],
    ];
    for timing in timings {
        let out = Command::new(env!("CARGO_BIN_EXE_fuse-node"))
            .args(["--id", "0", "--listen", "127.0.0.1:0"])
            .args(timing)
            .args(["--run-secs", "2"])
            .stdin(Stdio::null())
            .output()
            .expect("run fuse-node");
        assert_eq!(out.status.code(), Some(2), "{timing:?}: got {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--ping-timeout-secs must be below --ping-secs"),
            "stderr names the rule: {stderr}"
        );
    }
}

#[test]
fn one_thread_and_bounded_memory_under_cycles() {
    // Each node is one readiness loop, and a finished round's timers leave
    // its store when they come due: thousands of create → signal cycles
    // neither add threads nor leave the root holding per-cycle memory.
    const CYCLES: usize = 2_000;
    let ports = [free_port(), free_port(), free_port(), free_port()];
    let mut nodes: Vec<NodeProc> = (0..4)
        .map(|id| NodeProc::spawn(&node_args(id, &ports, None, &[])))
        .collect();
    for n in &nodes {
        n.wait_for("READY", Duration::from_secs(10), |l| l == "READY");
    }
    let mut cursors = [0; 4];
    let mut rss_after_warm_up = 0;
    let mut cycle_times = Vec::with_capacity(CYCLES);
    for cycle in 0..CYCLES {
        if cycle == 200 {
            rss_after_warm_up = nodes[0].status("VmRSS");
        }
        let start = Instant::now();
        nodes[0].control("create 1,2,3");
        let created =
            nodes[0].next_line(&mut cursors[0], "CREATED", Duration::from_secs(20), |l| {
                l.starts_with("CREATED ")
            });
        assert!(created.contains("result=ok"), "cycle {cycle}: {created}");
        let gid = created_gid(&created);
        nodes[cycle % 4].control(&format!("signal {gid}"));
        for (i, (n, cursor)) in nodes.iter().zip(&mut cursors).enumerate() {
            let line = n.next_line(cursor, "NOTIFIED", Duration::from_secs(20), |l| {
                l.starts_with("NOTIFIED ")
            });
            assert!(
                line.contains(&format!("id={gid} ")),
                "node {i}, cycle {cycle}: {line}"
            );
        }
        cycle_times.push(start.elapsed());
    }
    // A write left to the loop's 100 ms tick, or Nagle's delay on a stream
    // without TCP_NODELAY, passes every check above but not this one.
    cycle_times.sort();
    let median = cycle_times[CYCLES / 2];
    assert!(
        median < Duration::from_millis(5),
        "median create→all-notified cycle {median:?}"
    );
    for (i, n) in nodes.iter().enumerate() {
        assert_eq!(n.status("Threads"), 1, "node {i} runs one thread");
    }
    let grown = nodes[0].status("VmRSS").saturating_sub(rss_after_warm_up);
    assert!(
        grown < 300,
        "the root's VmRSS grew {grown} kB over {} cycles",
        CYCLES - 200
    );
}

#[test]
fn silent_peer_burns_via_liveness_timeout() {
    // A SIGSTOPped peer is the anti-EOF fault: its sockets stay open, sends
    // to it land in kernel buffers, and no reader ever reports LinkBroken.
    // Detection must come from the liveness machinery (ping timeout → soft
    // fail → failed repair), so the test compresses those timers.
    let timing: &[&str] = &[
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
    ];
    let ports = [free_port(), free_port(), free_port()];
    let n1 = NodeProc::spawn(&node_args(1, &ports, None, timing));
    let n2 = NodeProc::spawn(&node_args(2, &ports, None, timing));
    n1.wait_for("node 1 READY", Duration::from_secs(10), |l| l == "READY");
    n2.wait_for("node 2 READY", Duration::from_secs(10), |l| l == "READY");
    let n0 = NodeProc::spawn(&node_args(0, &ports, Some("1,2"), timing));
    let created = n0.wait_for("group creation", Duration::from_secs(20), |l| {
        l.starts_with("CREATED ") && l.contains("result=ok")
    });
    let gid = created_gid(&created);

    // Freeze (don't kill) the member: no FIN, no RST, no EOF anywhere.
    n1.signal("STOP");

    for (name, node) in [("node 0", &n0), ("node 2", &n2)] {
        let line = node.wait_for(&format!("{name} NOTIFIED"), Duration::from_secs(60), |l| {
            l.starts_with("NOTIFIED ") && l.contains(&format!("id={gid}"))
        });
        let reason = line
            .split_whitespace()
            .find_map(|w| w.strip_prefix("reason="))
            .expect("NOTIFIED line carries a reason");
        assert!(
            reason == "liveness-expired" || reason == "repair-failed",
            "{name} must detect the frozen peer via the liveness path, got: {line}"
        );
    }
}

#[test]
fn restarted_member_joins_new_group_on_same_port() {
    let ports = [free_port(), free_port(), free_port()];
    let n1 = NodeProc::spawn(&node_args(1, &ports, None, &[]));
    let n2 = NodeProc::spawn(&node_args(2, &ports, None, &[]));
    n1.wait_for("node 1 READY", Duration::from_secs(10), |l| l == "READY");
    n2.wait_for("node 2 READY", Duration::from_secs(10), |l| l == "READY");
    let n0 = NodeProc::spawn(&node_args(0, &ports, Some("1,2"), &[]));
    let created = n0.wait_for("group creation", Duration::from_secs(20), |l| {
        l.starts_with("CREATED ") && l.contains("result=ok")
    });
    let old_gid = created_gid(&created);

    // Kill the member and let the survivors burn the old group.
    let mut n1 = n1;
    n1.child.kill().expect("kill node 1");
    for node in [&n0, &n2] {
        node.wait_for("old group NOTIFIED", Duration::from_secs(30), |l| {
            l.starts_with("NOTIFIED ") && l.contains(&format!("id={old_gid}"))
        });
    }

    // Restart a fresh process on the same id and port. The survivors still
    // hold timers and counters from the old incarnation; all of that state
    // must stay inert (a timer whose deadline moved or whose group is gone
    // finds nothing due when it fires).
    drop(n1);
    let mut n1 = NodeProc::spawn(&node_args(1, &ports, None, &[]));
    n1.wait_for("restarted node 1 READY", Duration::from_secs(10), |l| {
        l == "READY"
    });

    // The restarted node roots a brand new group over the same membership.
    n1.control("create 0,2");
    let created = n1.wait_for("new group creation", Duration::from_secs(20), |l| {
        l.starts_with("CREATED ") && l.contains("result=ok")
    });
    let new_gid = created_gid(&created);
    assert_ne!(new_gid, old_gid, "fresh incarnation must mint a fresh id");

    // And the new group is live end-to-end: an explicit signal from the
    // restarted root reaches every member.
    n1.control(&format!("signal {new_gid}"));
    for (name, node) in [("node 0", &n0), ("node 2", &n2), ("node 1", &n1)] {
        let line = node.wait_for(
            &format!("{name} NOTIFIED for new group"),
            Duration::from_secs(30),
            |l| l.starts_with("NOTIFIED ") && l.contains(&format!("id={new_gid}")),
        );
        assert!(
            line.contains("reason=explicit-signal"),
            "{name} should hear the explicit signal: {line}"
        );
    }
}
