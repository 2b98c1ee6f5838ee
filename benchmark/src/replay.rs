//! The `live_loopback` cycle replayed in this process: four `FuseStack`s
//! built the way `fuse-node` builds them, a binary-heap driver on a virtual
//! clock, and every `Output::Send` framed `len ‖ frame` with the encoder
//! `fuse-node` uses and decoded again on arrival.
//!
//! It says how much of a live cycle is protocol and codec; what is left of
//! the live cycle time is threads, channels, pipes and sockets.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use fuse_core::{AppCall, FuseConfig, FuseEvent, FuseId, FuseStack, Input, Output, StackMsg};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_util::{Duration, PeerAddr, Time, TimerKey};
use fuse_wire::codec::twopass::to_bytes;
use fuse_wire::Decode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::live::FLEET;
use crate::spans::{self, Name};

/// One-way delay of the virtual link. Its value does not matter to the
/// measurement — no wall-clock time passes while a frame is "in flight" —
/// only that it is far below every protocol timer.
const LINK_DELAY: Duration = Duration::from_micros(50);
/// Events one cycle may take before the replay gives up: a cycle needs a
/// few dozen, so reaching this means it will not complete.
const MAX_EVENTS_PER_CYCLE: usize = 10_000;

enum Due {
    Frame { from: PeerAddr, frame: Vec<u8> },
    Timer(TimerKey),
}

/// What the replay counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Cycles completed, each with one `Created` and one `Notified` per
    /// node.
    pub cycles: u64,
    /// Frames sent.
    pub frames: u64,
    /// Their bytes, length prefixes included.
    pub bytes: u64,
}

struct Replay {
    stacks: Vec<FuseStack>,
    rngs: Vec<StdRng>,
    infos: Vec<NodeInfo>,
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    due: HashMap<u64, (usize, Due)>,
    cancelled: HashSet<(usize, TimerKey)>,
    counts: ReplayCounts,
    created: Option<FuseId>,
    heard: [u32; FLEET],
}

impl Replay {
    fn new(seed: u64) -> Self {
        let infos: Vec<NodeInfo> = (0..FLEET)
            .map(|i| NodeInfo::new(i as PeerAddr, NodeName::numbered(i)))
            .collect();
        let ov = OverlayConfig::default();
        let fuse = FuseConfig::default();
        let stacks = infos
            .iter()
            .zip(build_oracle_tables(&infos, &ov))
            .map(|(info, (cw, ccw, rt))| {
                let mut s = FuseStack::new(info.clone(), None, ov.clone(), fuse.clone());
                s.overlay.preload_tables(cw, ccw, rt);
                s
            })
            .collect();
        let mut r = Replay {
            stacks,
            rngs: (0..FLEET)
                .map(|i| StdRng::seed_from_u64(seed ^ i as u64))
                .collect(),
            infos,
            now: Time(0),
            seq: 0,
            heap: BinaryHeap::new(),
            due: HashMap::new(),
            cancelled: HashSet::new(),
            counts: ReplayCounts::default(),
            created: None,
            heard: [0; FLEET],
        };
        for node in 0..FLEET {
            r.stacks[node].handle(r.now, &mut r.rngs[node], Input::Boot);
            r.drain(node);
        }
        r
    }

    fn schedule(&mut self, after: Duration, node: usize, due: Due) {
        self.seq += 1;
        self.heap
            .push(Reverse(((self.now + after).nanos(), self.seq)));
        self.due.insert(self.seq, (node, due));
    }

    fn drain(&mut self, node: usize) {
        while let Some(out) = self.stacks[node].poll_output() {
            match out {
                Output::Send { to, msg } => {
                    let frame = spans::span(Name::ReplayCodec, || {
                        let payload = to_bytes(&msg);
                        let mut frame = Vec::with_capacity(4 + payload.len());
                        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                        frame.extend_from_slice(&payload);
                        frame
                    });
                    self.counts.frames += 1;
                    self.counts.bytes += frame.len() as u64;
                    let from = node as PeerAddr;
                    self.schedule(LINK_DELAY, to as usize, Due::Frame { from, frame });
                }
                Output::SetTimer { key, after } => self.schedule(after, node, Due::Timer(key)),
                Output::CancelTimer { key } => {
                    self.cancelled.insert((node, key));
                }
                Output::App(AppCall::Event(FuseEvent::Created { result, .. })) => {
                    self.created = result.ok().map(|h| h.id);
                }
                Output::App(AppCall::Event(FuseEvent::Notified(_))) => self.heard[node] += 1,
                Output::App(_) => {}
            }
        }
    }

    /// Executes the next due event; `false` when nothing is queued.
    fn step(&mut self) -> bool {
        let Some(Reverse((at, seq))) = self.heap.pop() else {
            return false;
        };
        self.now = Time(at);
        let (node, due) = self
            .due
            .remove(&seq)
            .expect("every heap entry has its event");
        let input = match due {
            Due::Frame { from, frame } => {
                let msg = spans::span(Name::ReplayCodec, || {
                    let len = u32::from_le_bytes(frame[..4].try_into().expect("four bytes"));
                    assert_eq!(len as usize, frame.len() - 4, "frame length prefix");
                    StackMsg::from_bytes(&frame[4..]).expect("a frame this process encoded")
                });
                Input::Message { from, msg }
            }
            Due::Timer(key) => {
                if self.cancelled.remove(&(node, key)) {
                    return true;
                }
                Input::Timer(key)
            }
        };
        spans::span(Name::ReplayHandle, || {
            self.stacks[node].handle(self.now, &mut self.rngs[node], input);
        });
        self.drain(node);
        true
    }

    fn pump_until(&mut self, done: impl Fn(&Replay) -> bool, what: &str) -> Result<(), String> {
        for _ in 0..MAX_EVENTS_PER_CYCLE {
            if done(self) {
                return Ok(());
            }
            if !self.step() {
                break;
            }
        }
        Err(format!("the in-process replay never saw {what}"))
    }

    fn cycle(&mut self, signaller: usize) -> Result<(), String> {
        self.created = None;
        self.heard = [0; FLEET];
        let members = self.infos[1..].to_vec();
        spans::span(Name::ReplayHandle, || {
            self.stacks[0]
                .api(self.now, &mut self.rngs[0])
                .create_group(members);
        });
        self.drain(0);
        self.pump_until(|r| r.created.is_some(), "the create complete")?;
        let id = self.created.expect("pumped until created");
        spans::span(Name::ReplayHandle, || {
            self.stacks[signaller]
                .api(self.now, &mut self.rngs[signaller])
                .signal_failure(id);
        });
        self.drain(signaller);
        self.pump_until(|r| r.heard.iter().all(|&h| h >= 1), "every node notified")?;
        if self.heard != [1; FLEET] {
            return Err(format!("replayed notifications per node: {:?}", self.heard));
        }
        self.counts.cycles += 1;
        Ok(())
    }
}

/// Replays `cycles` cycles, signallers drawn as the live client draws
/// them, under whatever tracer is installed.
pub fn run(seed: u64, cycles: u64) -> Result<ReplayCounts, String> {
    let mut replay = Replay::new(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c69_7665);
    for _ in 0..cycles {
        replay.cycle(rng.gen_range(0..FLEET))?;
    }
    Ok(replay.counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_replayed_cycle_creates_and_notifies_every_node_once() {
        let counts = run(3, 25).expect("cycles complete");
        assert_eq!(counts.cycles, 25);
        // A four-member create and a signal cannot take fewer frames than
        // one request and one reply per non-root member plus the fan-out.
        assert!(counts.frames >= 25 * 9, "{counts:?}");
        assert!(counts.bytes > counts.frames * 4);
        assert_eq!(run(3, 25).unwrap(), counts, "same seed, same replay");
    }
}
