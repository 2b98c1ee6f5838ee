//! Chaos scripts: serializable multi-phase fault schedules.
//!
//! A script is a *value*, not a closure: a sorted list of `(offset, op)`
//! phases applied to a running world, where offsets count from the instant
//! the group under test finished creating. Ops name their victims by **group
//! slot** (0 = root, `k` = the k-th member), so the same script replays
//! against any world size, and the whole script round-trips through a
//! compact text form (see [`ChaosOp::to_text`] / [`ChaosOp::parse`]) — the
//! payload of replay tokens.

use fuse_sim::SimDuration;
use rand::rngs::StdRng;
use rand::Rng;

/// A decoded message type the §3.5 content adversary can target.
///
/// Each variant maps onto one `Payload::class` label of the node stack:
/// overlay liveness pings, the routed envelopes that carry
/// `InstallChecking`, FUSE notifications, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Overlay liveness pings (`overlay.ping`).
    Ping,
    /// Overlay ping acknowledgements (`overlay.ack`).
    Ack,
    /// Routed client envelopes — the carrier of `InstallChecking`
    /// (`overlay.routed`).
    InstallChecking,
    /// Group creation traffic (`fuse.create`).
    Create,
    /// Tree-teardown soft notifications (`fuse.soft`).
    Soft,
    /// Hard (application-visible) notifications (`fuse.hard`).
    Hard,
    /// Repair round traffic (`fuse.repair`).
    Repair,
    /// Hash reconciliation traffic (`fuse.reconcile`).
    Reconcile,
    /// Opaque application payloads (`app`).
    App,
}

impl MsgClass {
    /// Every class, in a fixed order (generation samples from this).
    pub const ALL: [MsgClass; 9] = [
        MsgClass::Ping,
        MsgClass::Ack,
        MsgClass::InstallChecking,
        MsgClass::Create,
        MsgClass::Soft,
        MsgClass::Hard,
        MsgClass::Repair,
        MsgClass::Reconcile,
        MsgClass::App,
    ];

    /// The `Payload::class` label this variant drops.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Ping => "overlay.ping",
            MsgClass::Ack => "overlay.ack",
            MsgClass::InstallChecking => "overlay.routed",
            MsgClass::Create => "fuse.create",
            MsgClass::Soft => "fuse.soft",
            MsgClass::Hard => "fuse.hard",
            MsgClass::Repair => "fuse.repair",
            MsgClass::Reconcile => "fuse.reconcile",
            MsgClass::App => "app",
        }
    }

    /// Parses the label form used in tokens.
    pub fn from_label(s: &str) -> Option<MsgClass> {
        MsgClass::ALL.iter().copied().find(|c| c.label() == s)
    }
}

/// One scripted fault operation. Victims are group slots: 0 is the root,
/// `k >= 1` is the k-th member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// Crash-stop the slot's process.
    Crash {
        /// Victim slot.
        slot: u8,
    },
    /// Restart the slot's process with fresh state (no-op if alive).
    Restart {
        /// Victim slot.
        slot: u8,
    },
    /// Unplug the slot from the network (process keeps running).
    Disconnect {
        /// Victim slot.
        slot: u8,
    },
    /// Plug the slot back in.
    Reconnect {
        /// Victim slot.
        slot: u8,
    },
    /// The slot's application calls `SignalFailure` on the group.
    Signal {
        /// Victim slot.
        slot: u8,
    },
    /// Move the slot into partition cell 1 (away from the default cell).
    PartitionOff {
        /// Victim slot.
        slot: u8,
    },
    /// Partition the *world*: every process with id ≥ `n * pct / 100`
    /// moves into cell 1 (the paper's simultaneous-partition case).
    PartitionHalf {
        /// Split point as a percentage of the world size.
        pct: u8,
    },
    /// Heal all partitions.
    HealPartitions,
    /// Directed blackhole from one slot to another (§3.4 intransitive
    /// connectivity).
    Blackhole {
        /// Sending slot.
        from: u8,
        /// Receiving slot.
        to: u8,
    },
    /// Remove a directed blackhole.
    ClearBlackhole {
        /// Sending slot.
        from: u8,
        /// Receiving slot.
        to: u8,
    },
    /// Inject `pct`% Bernoulli loss on the directed slot pair.
    LinkLoss {
        /// Sending slot.
        from: u8,
        /// Receiving slot.
        to: u8,
        /// Loss percentage (0–99).
        pct: u8,
    },
    /// Ramp the *global* per-link loss rate to `pct`% in `steps` equal
    /// increments spread over `over_s` seconds (Figures 11–12 dialed up
    /// gradually).
    LossRamp {
        /// Final loss percentage (0–99).
        pct: u8,
        /// Number of increments (≥ 1).
        steps: u8,
        /// Seconds over which the ramp spreads.
        over_s: u32,
    },
    /// Install the §3.5 content adversary: silently drop every message of
    /// the class, network-wide.
    AdversaryDrop {
        /// The decoded message type to drop.
        class: MsgClass,
    },
    /// The adversary walks away (clears every content-drop rule).
    AdversaryClear,
    /// Crash the slot, then restart it `down_s` seconds later (group
    /// churn).
    Churn {
        /// Victim slot.
        slot: u8,
        /// Downtime in seconds.
        down_s: u32,
    },
}

impl ChaosOp {
    /// The largest group slot this op names, if it names any (the runner
    /// validates these against the group size instead of silently folding
    /// out-of-range slots onto other victims).
    pub fn max_slot(self) -> Option<u8> {
        match self {
            ChaosOp::Crash { slot }
            | ChaosOp::Restart { slot }
            | ChaosOp::Disconnect { slot }
            | ChaosOp::Reconnect { slot }
            | ChaosOp::Signal { slot }
            | ChaosOp::PartitionOff { slot }
            | ChaosOp::Churn { slot, .. } => Some(slot),
            ChaosOp::Blackhole { from, to }
            | ChaosOp::ClearBlackhole { from, to }
            | ChaosOp::LinkLoss { from, to, .. } => Some(from.max(to)),
            ChaosOp::PartitionHalf { .. }
            | ChaosOp::HealPartitions
            | ChaosOp::LossRamp { .. }
            | ChaosOp::AdversaryDrop { .. }
            | ChaosOp::AdversaryClear => None,
        }
    }

    /// Compact text form (the token grammar): `crash(1)`, `adv(fuse.hard)`,
    /// `lossramp(10,4,60)`, …
    pub fn to_text(self) -> String {
        match self {
            ChaosOp::Crash { slot } => format!("crash({slot})"),
            ChaosOp::Restart { slot } => format!("restart({slot})"),
            ChaosOp::Disconnect { slot } => format!("disc({slot})"),
            ChaosOp::Reconnect { slot } => format!("reconn({slot})"),
            ChaosOp::Signal { slot } => format!("signal({slot})"),
            ChaosOp::PartitionOff { slot } => format!("partoff({slot})"),
            ChaosOp::PartitionHalf { pct } => format!("parthalf({pct})"),
            ChaosOp::HealPartitions => "healpart".to_string(),
            ChaosOp::Blackhole { from, to } => format!("bh({from},{to})"),
            ChaosOp::ClearBlackhole { from, to } => format!("clearbh({from},{to})"),
            ChaosOp::LinkLoss { from, to, pct } => format!("linkloss({from},{to},{pct})"),
            ChaosOp::LossRamp { pct, steps, over_s } => format!("lossramp({pct},{steps},{over_s})"),
            ChaosOp::AdversaryDrop { class } => format!("adv({})", class.label()),
            ChaosOp::AdversaryClear => "advclear".to_string(),
            ChaosOp::Churn { slot, down_s } => format!("churn({slot},{down_s})"),
        }
    }

    /// Parses the text form produced by [`to_text`](ChaosOp::to_text).
    pub fn parse(s: &str) -> Result<ChaosOp, String> {
        let (name, args) = match s.find('(') {
            Some(i) => {
                let inner = s[i + 1..]
                    .strip_suffix(')')
                    .ok_or_else(|| format!("op `{s}`: missing `)`"))?;
                (&s[..i], inner.split(',').collect::<Vec<_>>())
            }
            None => (s, Vec::new()),
        };
        let num = |k: usize| -> Result<u64, String> {
            args.get(k)
                .ok_or_else(|| format!("op `{s}`: missing argument {k}"))?
                .parse::<u64>()
                .map_err(|_| format!("op `{s}`: bad number"))
        };
        let slot = |k: usize| -> Result<u8, String> {
            let v = num(k)?;
            u8::try_from(v).map_err(|_| format!("op `{s}`: slot out of range"))
        };
        // A loss rate of 1 is a blackhole, which has an op of its own; the
        // network model refuses it.
        let loss_pct = |k: usize| -> Result<u8, String> {
            match num(k)? {
                v @ 0..=99 => Ok(v as u8),
                v => Err(format!("op `{s}`: loss percentage {v} out of range 0..=99")),
            }
        };
        match name {
            "crash" => Ok(ChaosOp::Crash { slot: slot(0)? }),
            "restart" => Ok(ChaosOp::Restart { slot: slot(0)? }),
            "disc" => Ok(ChaosOp::Disconnect { slot: slot(0)? }),
            "reconn" => Ok(ChaosOp::Reconnect { slot: slot(0)? }),
            "signal" => Ok(ChaosOp::Signal { slot: slot(0)? }),
            "partoff" => Ok(ChaosOp::PartitionOff { slot: slot(0)? }),
            "parthalf" => Ok(ChaosOp::PartitionHalf { pct: slot(0)? }),
            "healpart" => Ok(ChaosOp::HealPartitions),
            "bh" => Ok(ChaosOp::Blackhole {
                from: slot(0)?,
                to: slot(1)?,
            }),
            "clearbh" => Ok(ChaosOp::ClearBlackhole {
                from: slot(0)?,
                to: slot(1)?,
            }),
            "linkloss" => Ok(ChaosOp::LinkLoss {
                from: slot(0)?,
                to: slot(1)?,
                pct: loss_pct(2)?,
            }),
            "lossramp" => Ok(ChaosOp::LossRamp {
                pct: loss_pct(0)?,
                steps: slot(1)?.max(1),
                over_s: num(2)? as u32,
            }),
            "adv" => {
                let label = args
                    .first()
                    .ok_or_else(|| format!("op `{s}`: missing class"))?;
                let class = MsgClass::from_label(label)
                    .ok_or_else(|| format!("op `{s}`: unknown class `{label}`"))?;
                Ok(ChaosOp::AdversaryDrop { class })
            }
            "advclear" => Ok(ChaosOp::AdversaryClear),
            "churn" => Ok(ChaosOp::Churn {
                slot: slot(0)?,
                down_s: num(1)? as u32,
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// One timed phase of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Offset from the instant the group finished creating.
    pub at: SimDuration,
    /// The operation applied at that instant.
    pub op: ChaosOp,
}

impl Phase {
    /// Text form: `op@Ns` for whole seconds, `op@Nns` otherwise.
    pub fn to_text(self) -> String {
        let ns = self.at.nanos();
        if ns.is_multiple_of(1_000_000_000) {
            format!("{}@{}s", self.op.to_text(), ns / 1_000_000_000)
        } else {
            format!("{}@{}ns", self.op.to_text(), ns)
        }
    }

    /// Parses the text form produced by [`to_text`](Phase::to_text).
    pub fn parse(s: &str) -> Result<Phase, String> {
        let (op_s, at_s) = s
            .rsplit_once('@')
            .ok_or_else(|| format!("phase `{s}`: missing `@time`"))?;
        let at = if let Some(secs) = at_s.strip_suffix("ns") {
            SimDuration(
                secs.parse::<u64>()
                    .map_err(|_| format!("phase `{s}`: bad time"))?,
            )
        } else if let Some(secs) = at_s.strip_suffix('s') {
            let secs = secs
                .parse::<u64>()
                .map_err(|_| format!("phase `{s}`: bad time"))?;
            SimDuration(
                secs.checked_mul(1_000_000_000)
                    .ok_or_else(|| format!("phase `{s}`: time overflows"))?,
            )
        } else {
            return Err(format!("phase `{s}`: time must end in `s` or `ns`"));
        };
        Ok(Phase {
            at,
            op: ChaosOp::parse(op_s)?,
        })
    }
}

/// A serializable multi-phase fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosScript {
    /// The phases, applied in `(at, index)` order.
    pub phases: Vec<Phase>,
}

impl ChaosScript {
    /// A script from phases.
    pub fn new(phases: Vec<Phase>) -> Self {
        ChaosScript { phases }
    }

    /// Text form: phases joined by `+` (empty string for the empty script).
    pub fn to_text(&self) -> String {
        self.phases
            .iter()
            .map(|p| p.to_text())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parses the text form produced by [`to_text`](ChaosScript::to_text).
    pub fn parse(s: &str) -> Result<ChaosScript, String> {
        if s.is_empty() {
            return Ok(ChaosScript::default());
        }
        let phases = s.split('+').map(Phase::parse).collect::<Result<_, _>>()?;
        Ok(ChaosScript { phases })
    }

    /// Generates a structured random script against a group with
    /// `group_size` members (slots `0..=group_size`): 1–5 phases with
    /// cumulative offsets, each op drawn across the whole fault vocabulary.
    pub fn generate(rng: &mut StdRng, group_size: usize) -> ChaosScript {
        let n_phases = rng.gen_range(1..=5usize);
        let slots = group_size as u8 + 1; // 0 = root.
        let mut at_s = 0u64;
        let mut phases = Vec::with_capacity(n_phases);
        for _ in 0..n_phases {
            at_s += rng.gen_range(1..=60u64);
            let slot = rng.gen_range(0..slots);
            let other = rng.gen_range(0..slots);
            let op = match rng.gen_range(0..13u32) {
                0 => ChaosOp::Crash { slot },
                1 => ChaosOp::Restart { slot },
                2 => ChaosOp::Disconnect { slot },
                3 => ChaosOp::Reconnect { slot },
                4 => ChaosOp::Signal { slot },
                5 => ChaosOp::PartitionOff { slot },
                6 => ChaosOp::PartitionHalf {
                    pct: rng.gen_range(2..=8u8) * 10,
                },
                7 => ChaosOp::HealPartitions,
                8 => {
                    if slot == other {
                        ChaosOp::HealPartitions
                    } else {
                        ChaosOp::Blackhole {
                            from: slot,
                            to: other,
                        }
                    }
                }
                9 => {
                    if slot == other {
                        ChaosOp::AdversaryClear
                    } else {
                        ChaosOp::LinkLoss {
                            from: slot,
                            to: other,
                            pct: rng.gen_range(1..=9u8) * 10,
                        }
                    }
                }
                10 => ChaosOp::LossRamp {
                    pct: rng.gen_range(1..=5u8) * 2,
                    steps: rng.gen_range(1..=4u8),
                    over_s: rng.gen_range(10..=60u32),
                },
                11 => ChaosOp::AdversaryDrop {
                    class: MsgClass::ALL[rng.gen_range(0..MsgClass::ALL.len())],
                },
                _ => ChaosOp::Churn {
                    slot,
                    down_s: rng.gen_range(5..=90u32),
                },
            };
            phases.push(Phase {
                at: SimDuration::from_secs(at_s),
                op,
            });
        }
        ChaosScript { phases }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_op_round_trips_through_text() {
        let ops = [
            ChaosOp::Crash { slot: 3 },
            ChaosOp::Restart { slot: 0 },
            ChaosOp::Disconnect { slot: 1 },
            ChaosOp::Reconnect { slot: 1 },
            ChaosOp::Signal { slot: 2 },
            ChaosOp::PartitionOff { slot: 4 },
            ChaosOp::PartitionHalf { pct: 50 },
            ChaosOp::HealPartitions,
            ChaosOp::Blackhole { from: 0, to: 2 },
            ChaosOp::ClearBlackhole { from: 0, to: 2 },
            ChaosOp::LinkLoss {
                from: 1,
                to: 3,
                pct: 40,
            },
            ChaosOp::LossRamp {
                pct: 10,
                steps: 4,
                over_s: 60,
            },
            ChaosOp::AdversaryDrop {
                class: MsgClass::InstallChecking,
            },
            ChaosOp::AdversaryClear,
            ChaosOp::Churn {
                slot: 2,
                down_s: 45,
            },
        ];
        for op in ops {
            assert_eq!(ChaosOp::parse(&op.to_text()).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn all_msg_classes_round_trip() {
        for c in MsgClass::ALL {
            assert_eq!(MsgClass::from_label(c.label()), Some(c));
        }
        assert_eq!(MsgClass::from_label("nope"), None);
    }

    #[test]
    fn phases_round_trip_whole_and_fractional_times() {
        let whole = Phase {
            at: SimDuration::from_secs(12),
            op: ChaosOp::Crash { slot: 1 },
        };
        assert_eq!(whole.to_text(), "crash(1)@12s");
        assert_eq!(Phase::parse(&whole.to_text()).unwrap(), whole);
        let frac = Phase {
            at: SimDuration(1_500_000_001),
            op: ChaosOp::HealPartitions,
        };
        assert_eq!(frac.to_text(), "healpart@1500000001ns");
        assert_eq!(Phase::parse(&frac.to_text()).unwrap(), frac);
    }

    #[test]
    fn generated_scripts_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = ChaosScript::generate(&mut rng, 4);
            assert!(!s.phases.is_empty() && s.phases.len() <= 5);
            let text = s.to_text();
            assert_eq!(ChaosScript::parse(&text).unwrap(), s, "{text}");
        }
    }

    #[test]
    fn empty_script_round_trips() {
        let s = ChaosScript::default();
        assert_eq!(ChaosScript::parse(&s.to_text()).unwrap(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosOp::parse("warp(1)").is_err());
        assert!(ChaosOp::parse("crash(x)").is_err());
        assert!(ChaosOp::parse("crash(1").is_err());
        assert!(Phase::parse("crash(1)").is_err());
        assert!(Phase::parse("crash(1)@5m").is_err());
        assert!(ChaosOp::parse("adv(overlay.warp)").is_err());
    }
}
