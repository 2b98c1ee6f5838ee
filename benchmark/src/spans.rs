//! Spans recorded from outside the program, around the calls into each
//! layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and the operation it belongs to (the slice number).
//! Spans nest strictly, so a stack of open spans is enough to find parents
//! and to compute self time: a span's duration minus the part its children
//! cover. Totals per name are kept for every span; the spans themselves are
//! kept in a buffer allocated before the measurement and are dropped, not
//! grown, once it is full — a quiet-state slice alone executes half a
//! million kernel events.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Every span the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One slice of a workload.
    Slice,
    /// One `Sim::run_for` call.
    SimRun,
    /// `Medium::unicast` on the network model.
    NetUnicast,
    /// A `StackMsg::Overlay` message or an `NS_OVERLAY` timer.
    OverlayInput,
    /// A `StackMsg::Fuse` message.
    CoreInput,
    /// An `NS_FUSE` timer.
    CoreTimer,
    /// A create or signal call through `with_api`.
    CoreApi,
    /// An `NS_LIVENESS` timer.
    LivenessInput,
    /// `on_link_broken`, which the stack hands to overlay and core.
    LinkBroken,
    /// A `StackMsg::App` message or an `NS_APP` timer.
    AppInput,
    /// The wrapper's own sampled encode and decode of a delivered message.
    WireSample,
    /// The wrapper's own replay of offered bytes into a `Recorder`.
    ObsReplay,
    /// `FuseStack::handle` or `api` in the in-process replay.
    ReplayHandle,
    /// Framing and decoding one message in the in-process replay.
    ReplayCodec,
    /// The benchmark's reference, timed at a pause inside a slice.
    Reference,
}

impl Name {
    /// All names, in discriminant order.
    pub const ALL: [Name; 15] = [
        Name::Slice,
        Name::SimRun,
        Name::NetUnicast,
        Name::OverlayInput,
        Name::CoreInput,
        Name::CoreTimer,
        Name::CoreApi,
        Name::LivenessInput,
        Name::LinkBroken,
        Name::AppInput,
        Name::WireSample,
        Name::ObsReplay,
        Name::ReplayHandle,
        Name::ReplayCodec,
        Name::Reference,
    ];

    /// The name as written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Slice => "harness.slice",
            Name::SimRun => "sim.run",
            Name::NetUnicast => "net.unicast",
            Name::OverlayInput => "overlay.input",
            Name::CoreInput => "core.input",
            Name::CoreTimer => "core.timer",
            Name::CoreApi => "core.api",
            Name::LivenessInput => "liveness.input",
            Name::LinkBroken => "simdriver.link_broken",
            Name::AppInput => "app.input",
            Name::WireSample => "trace.wire_sample",
            Name::ObsReplay => "trace.obs_replay",
            Name::ReplayHandle => "core.replay_handle",
            Name::ReplayCodec => "wire.replay_codec",
            Name::Reference => "harness.reference",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index in the buffer of the span open when this one started;
    /// `u32::MAX` for a root, or when the parent was not kept.
    pub parent: u32,
    /// The slice the span belongs to.
    pub op: u32,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    /// Index reserved in the buffer, or `u32::MAX` when it was full.
    slot: u32,
}

/// Records spans; see the module documentation.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    totals: [Total; Name::ALL.len()],
    op: u32,
}

/// Spans kept for the trace file: enough for every span of a
/// `group_churn` round, a prefix of the busier workloads.
pub const KEPT_SPANS: usize = 1 << 16;

impl Tracer {
    /// A tracer with its span buffer allocated.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            kept: Vec::with_capacity(KEPT_SPANS),
            totals: [Total::default(); Name::ALL.len()],
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation later spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: Name) {
        let start_ns = self.now_ns();
        self.open_at(name, start_ns);
    }

    fn open_at(&mut self, name: Name, start_ns: u64) {
        let slot = if self.kept.len() < self.kept.capacity() {
            let parent = self.open.last().map_or(u32::MAX, |o| o.slot);
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            (self.kept.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span, which must be a `name` span.
    pub fn close(&mut self, name: Name) {
        let end_ns = self.now_ns();
        self.close_at(name, end_ns);
    }

    fn close_at(&mut self, name: Name, end_ns: u64) {
        let o = self.open.pop().expect("close without open");
        assert!(
            o.name == name,
            "spans must nest: closing {name:?} inside {:?}",
            o.name
        );
        let ns = end_ns - o.start_ns;
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns.saturating_sub(o.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += ns;
        }
        if let Some(s) = self.kept.get_mut(o.slot as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Totals of one name.
    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// The kept spans, in the order they were opened.
    #[cfg(test)]
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// The kept spans as JSON lines: `name`, `start_ns`, `end_ns`, `parent`
    /// (line number from 0, or `null`) and `op`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        for s in &self.kept {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name.label(),
                s.start_ns,
                s.end_ns
            );
            match s.parent {
                u32::MAX => out.push_str("null"),
                p => {
                    let _ = write!(out, "{p}");
                }
            }
            let _ = writeln!(out, ",\"op\":{}}}", s.op);
        }
        out
    }
}

thread_local! {
    /// The tracer of the traced run. `None` while nothing is traced, which
    /// is also what switches the wrappers' recording off during set-up.
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` (or removes the current one) and returns the previous.
pub fn install(tracer: Option<Tracer>) -> Option<Tracer> {
    TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), tracer))
}

/// Runs `f` on the installed tracer, if any.
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    TRACER.with(|t| t.borrow_mut().as_mut().map(f))
}

/// Times `f` as a `name` span when a tracer is installed. The tracer is not
/// borrowed while `f` runs, so `f` may open spans of its own.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    with(|t| t.open(name));
    let r = f();
    with(|t| t.close(name));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.set_op(7);
        // slice [0, 100): run [10, 90): input [20, 30), unicast [30, 45);
        // then an api call [92, 97) directly under the slice.
        t.open_at(Name::Slice, 0);
        t.open_at(Name::SimRun, 10);
        t.open_at(Name::CoreInput, 20);
        t.close_at(Name::CoreInput, 30);
        t.open_at(Name::NetUnicast, 30);
        t.close_at(Name::NetUnicast, 45);
        t.close_at(Name::SimRun, 90);
        t.open_at(Name::CoreApi, 92);
        t.close_at(Name::CoreApi, 97);
        t.close_at(Name::Slice, 100);

        assert_eq!(
            t.total(Name::CoreInput),
            Total {
                count: 1,
                ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(
            t.total(Name::NetUnicast),
            Total {
                count: 1,
                ns: 15,
                self_ns: 15
            }
        );
        assert_eq!(
            t.total(Name::SimRun),
            Total {
                count: 1,
                ns: 80,
                self_ns: 55
            }
        );
        assert_eq!(
            t.total(Name::Slice),
            Total {
                count: 1,
                ns: 100,
                self_ns: 15
            }
        );
        // Self times of a tree add up to the root's duration.
        let sum: u64 = Name::ALL.iter().map(|&n| t.total(n).self_ns).sum();
        assert_eq!(sum, 100);

        let parents: Vec<u32> = t.kept().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [u32::MAX, 0, 1, 1, 0]);
        assert!(t.kept().iter().all(|s| s.op == 7));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 5);
        for line in jsonl.lines() {
            let v = fuse_obs::json::parse(line).expect("a span line is JSON");
            assert!(v.get("name").is_some() && v.get("end_ns").is_some());
        }
        assert!(jsonl.starts_with(
            "{\"name\":\"harness.slice\",\"start_ns\":0,\"end_ns\":100,\"parent\":null,\"op\":7}\n"
        ));
    }

    #[test]
    fn a_full_buffer_drops_spans_but_keeps_totals() {
        let mut t = Tracer::new();
        for i in 0..(KEPT_SPANS as u64 + 10) {
            t.open_at(Name::NetUnicast, i);
            t.close_at(Name::NetUnicast, i + 1);
        }
        assert_eq!(t.kept().len(), KEPT_SPANS);
        assert_eq!(t.total(Name::NetUnicast).count, KEPT_SPANS as u64 + 10);
    }
}
