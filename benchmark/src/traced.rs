//! The traced twin of `fuse_harness::World`: the same node stacks over the
//! same network model on the same kernel, each wrapped so that every call
//! into a layer is a span and every boundary keeps a count.
//!
//! The wrappers draw nothing from the kernel's generator and send nothing,
//! so the traced world executes the schedule of the untraced one; the run
//! checks that it did (`trace.matches_untraced`).

use fuse_core::{CreateTicket, FuseId, StackMsg, NS_APP, NS_FUSE, NS_LIVENESS, NS_OVERLAY};
use fuse_harness::world::{Bootstrap, WorldParams};
use fuse_harness::{MsgTrace, RecorderApp};
use fuse_net::Network;
use fuse_obs::{Event, ObsSink, Recorder};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName};
use fuse_sim::process::Ctx;
use fuse_sim::{Medium, Payload, ProcId, Process, Sim, SimDuration, SimTime, Verdict};
use fuse_simdriver::NodeStack;
use fuse_util::TimerKey;
use fuse_wire::codec::twopass;
use fuse_wire::{Decode, EncodeBuf};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use crate::alloc;
use crate::host::{world_params, Host};
use crate::spans::{self, Name};

/// The kernel the traced world runs on — the one `World` uses.
pub type TracedSim = Sim<Traced, Timed, MsgTrace>;

/// One delivered message in this many is encoded and decoded again.
const WIRE_SAMPLE_EVERY: u64 = 16;
/// Offered `(class, bytes)` pairs buffered before they are replayed.
const OBS_BATCH: usize = 1 << 16;

/// Counts and times of the sampled codec work.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireSample {
    /// Messages sampled.
    pub msgs: u64,
    /// Their encoded bytes.
    pub bytes: u64,
    /// Time in `twopass::to_bytes`, which `fuse-node` frames with.
    pub twopass_ns: u64,
    /// Time in `EncodeBuf::encode`.
    pub encodebuf_ns: u64,
    /// Time in `StackMsg::from_bytes`.
    pub decode_ns: u64,
}

/// Counts one process keeps at its boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounts {
    /// Messages delivered, of any kind.
    pub delivered: u64,
    /// `StackMsg::Overlay` messages delivered.
    pub overlay_msgs: u64,
    /// `StackMsg::Fuse` messages delivered.
    pub fuse_msgs: u64,
    /// Their wire bytes.
    pub fuse_bytes: u64,
    /// The sampled codec work.
    pub wire: WireSample,
}

impl ProcCounts {
    fn add(&mut self, o: &ProcCounts) {
        self.delivered += o.delivered;
        self.overlay_msgs += o.overlay_msgs;
        self.fuse_msgs += o.fuse_msgs;
        self.fuse_bytes += o.fuse_bytes;
        self.wire.msgs += o.wire.msgs;
        self.wire.bytes += o.wire.bytes;
        self.wire.twopass_ns += o.wire.twopass_ns;
        self.wire.encodebuf_ns += o.wire.encodebuf_ns;
        self.wire.decode_ns += o.wire.decode_ns;
    }
}

/// A node stack whose inputs are spans.
pub struct Traced {
    inner: NodeStack<RecorderApp>,
    counts: ProcCounts,
    encbuf: EncodeBuf,
}

impl Traced {
    fn new(inner: NodeStack<RecorderApp>) -> Self {
        Traced {
            inner,
            counts: ProcCounts::default(),
            encbuf: EncodeBuf::new(),
        }
    }

    /// Encodes `msg` with both public encoders and decodes it again, the
    /// way a socket driver would have to. Allocation counting is paused:
    /// the work is the tracer's, not the program's.
    fn sample_wire(&mut self, msg: &StackMsg) {
        let counting = alloc::pause();
        let t0 = Instant::now();
        let bytes = twopass::to_bytes(msg);
        let t1 = Instant::now();
        let len = self.encbuf.encode(msg).len();
        let t2 = Instant::now();
        let back = StackMsg::from_bytes(&bytes);
        let t3 = Instant::now();
        assert!(
            back.is_ok() && len == bytes.len() && len == msg.size_bytes(),
            "codec disagrees with itself on a delivered message"
        );
        let w = &mut self.counts.wire;
        w.msgs += 1;
        w.bytes += len as u64;
        w.twopass_ns += (t1 - t0).as_nanos() as u64;
        w.encodebuf_ns += (t2 - t1).as_nanos() as u64;
        w.decode_ns += (t3 - t2).as_nanos() as u64;
        alloc::resume(counting);
    }
}

fn timer_span(key: &TimerKey) -> Name {
    match key.ns {
        NS_OVERLAY => Name::OverlayInput,
        NS_FUSE => Name::CoreTimer,
        NS_LIVENESS => Name::LivenessInput,
        NS_APP => Name::AppInput,
        other => unreachable!("FuseStack arms no timer in namespace {other}"),
    }
}

impl Process for Traced {
    type Msg = StackMsg;
    type Timer = TimerKey;

    fn on_boot(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>) {
        self.inner.on_boot(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, from: ProcId, msg: StackMsg) {
        self.counts.delivered += 1;
        let name = match &msg {
            StackMsg::Overlay(_) => {
                self.counts.overlay_msgs += 1;
                Name::OverlayInput
            }
            StackMsg::Fuse(_) => {
                self.counts.fuse_msgs += 1;
                self.counts.fuse_bytes += msg.size_bytes() as u64;
                Name::CoreInput
            }
            StackMsg::App(_) => Name::AppInput,
        };
        if self.counts.delivered.is_multiple_of(WIRE_SAMPLE_EVERY) {
            spans::span(Name::WireSample, || self.sample_wire(&msg));
        }
        spans::span(name, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, key: TimerKey) {
        spans::span(timer_span(&key), || self.inner.on_timer(ctx, key));
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, peer: ProcId) {
        spans::span(Name::LinkBroken, || self.inner.on_link_broken(ctx, peer));
    }
}

/// The network model with `unicast` as a span, verdict counts, and the
/// offered `(class, bytes)` stream replayed into a recorder of its own.
pub struct Timed {
    inner: Network,
    /// `Verdict::Break`s returned.
    pub breaks: u64,
    /// `Verdict::Drop`s returned.
    pub drops: u64,
    offered: Vec<(&'static str, u64)>,
    recorder: Recorder,
    /// Events replayed into the recorder.
    pub obs_events: u64,
}

impl Timed {
    fn new(inner: Network) -> Self {
        Timed {
            inner,
            breaks: 0,
            drops: 0,
            offered: Vec::with_capacity(OBS_BATCH),
            recorder: Recorder::new(),
            obs_events: 0,
        }
    }

    /// Replays what is buffered, as one span, so the cost per event is not
    /// dominated by reading the clock.
    pub fn replay_offered(&mut self) {
        let counting = alloc::pause();
        spans::span(Name::ObsReplay, || {
            for &(class, bytes) in &self.offered {
                self.recorder.record(Event::BytesOffered { class, bytes });
            }
        });
        self.obs_events += self.offered.len() as u64;
        self.offered.clear();
        alloc::resume(counting);
    }
}

impl Medium for Timed {
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict {
        let verdict = spans::span(Name::NetUnicast, || {
            self.inner.unicast(now, rng, from, to, size, class)
        });
        match verdict {
            Verdict::Deliver { .. } => {}
            Verdict::Break { .. } => self.breaks += 1,
            Verdict::Drop => self.drops += 1,
        }
        if self.offered.len() == OBS_BATCH {
            self.replay_offered();
        }
        self.offered.push((class, size as u64));
        verdict
    }

    fn node_up(&mut self, id: ProcId) {
        self.inner.node_up(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.inner.node_down(id);
    }
}

/// `World`, traced.
pub struct TracedWorld {
    /// The simulation.
    pub sim: TracedSim,
    infos: Vec<NodeInfo>,
}

impl TracedWorld {
    /// Mirrors `World::build` for the oracle bootstrap, the only one the
    /// workloads use.
    fn build_from(p: &WorldParams) -> TracedWorld {
        assert_eq!(p.bootstrap, Bootstrap::Oracle);
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5eed_0000);
        let net = Network::generate(&p.topo, p.n, p.net.clone(), &mut rng);
        let infos: Vec<NodeInfo> = (0..p.n)
            .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
            .collect();
        let mut sim = Sim::with_trace(p.seed, Timed::new(net), MsgTrace::new());
        let tables = build_oracle_tables(&infos, &p.ov);
        for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
            let mut stack = NodeStack::new(
                info.clone(),
                None,
                p.ov.clone(),
                p.fuse.clone(),
                RecorderApp::new(),
            );
            stack.overlay.preload_tables(cw, ccw, rt);
            sim.add_process(Traced::new(stack));
        }
        TracedWorld { sim, infos }
    }

    /// Sum of the per-process counts.
    pub fn proc_counts(&self) -> ProcCounts {
        let mut sum = ProcCounts::default();
        for p in 0..self.infos.len() {
            sum.add(
                &self
                    .sim
                    .proc(p as ProcId)
                    .expect("no process crashes")
                    .counts,
            );
        }
        sum
    }
}

impl Host for TracedWorld {
    fn build(seed: u64) -> Self {
        TracedWorld::build_from(&world_params(seed))
    }

    fn run(&mut self, d: SimDuration) {
        spans::span(Name::SimRun, || self.sim.run_for(d));
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn start_create(&mut self, root: ProcId, members: &[ProcId]) -> CreateTicket {
        let others: Vec<NodeInfo> = members
            .iter()
            .map(|&m| self.infos[m as usize].clone())
            .collect();
        self.sim
            .with_proc(root, |p, ctx| {
                spans::span(Name::CoreApi, || {
                    p.inner.with_api(ctx, |api, _| api.create_group(others))
                })
            })
            .expect("root alive")
    }

    fn signal(&mut self, node: ProcId, id: FuseId) {
        self.sim.with_proc(node, |p, ctx| {
            spans::span(Name::CoreApi, || {
                p.inner.with_api(ctx, |api, _| api.signal_failure(id))
            })
        });
    }

    fn app(&self, p: ProcId) -> &RecorderApp {
        &self
            .sim
            .proc(p)
            .expect("workloads crash no process")
            .inner
            .app
    }

    fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    fn msg_totals(&self) -> (u64, u64) {
        (
            self.sim.trace().total_msgs(),
            self.sim.trace().total_bytes(),
        )
    }

    fn net(&self) -> &Network {
        &self.sim.medium().inner
    }

    fn net_mut(&mut self) -> &mut Network {
        &mut self.sim.medium_mut().inner
    }
}
