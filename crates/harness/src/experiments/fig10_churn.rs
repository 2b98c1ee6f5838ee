//! Figure 10 — message cost of overlay churn, with and without FUSE groups.
//!
//! Three measurements (paper values in parentheses):
//!
//! 1. a stable 300-node overlay (238 msg/s),
//! 2. 400 nodes of which 200 churn with a 30-minute system half-life,
//!    averaging ~300 alive (270 msg/s — +13% overlay repair traffic),
//! 3. the same churning overlay plus 100 ten-member FUSE groups on the
//!    stable nodes (523 msg/s — +94%: group repair is proportional to
//!    groups × average size while routes are in flux).
//!
//! Churn requires the live join protocol, so this experiment builds its
//! worlds with protocol joins rather than oracle tables.

use fuse_core::FuseConfig;
use fuse_net::NetConfig;
use fuse_overlay::OverlayConfig;
use fuse_sim::{ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;
use rand::Rng;

use fuse_net::Network;

use crate::app::RecorderApp;
use crate::metrics::{MsgTrace, PhaseRates};
use crate::world::{Bootstrap, World, WorldParams};

/// Parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Stable nodes (paper: 200; the stable-overlay baseline uses 300).
    pub stable: usize,
    /// Churning nodes (paper: 200, ~100 alive on average).
    pub churners: usize,
    /// Baseline overlay size (paper: 300).
    pub baseline_n: usize,
    /// Mean alive/dead time of a churning node (20 min gives the paper's
    /// 30-minute system half-life at this population).
    pub mean_phase: SimDuration,
    /// FUSE groups for phase 3 (paper: 100).
    pub groups: usize,
    /// Group size (paper: 10).
    pub group_size: usize,
    /// Measurement window.
    pub window: SimDuration,
    /// Gap between staggered protocol joins.
    pub join_stagger: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params {
            stable: 200,
            churners: 200,
            baseline_n: 300,
            mean_phase: SimDuration::from_secs(20 * 60),
            groups: 100,
            group_size: 10,
            window: SimDuration::from_secs(600),
            join_stagger: SimDuration::from_millis(150),
            seed: 10,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            stable: 40,
            churners: 40,
            baseline_n: 60,
            mean_phase: SimDuration::from_secs(180),
            groups: 24,
            group_size: 8,
            window: SimDuration::from_secs(420),
            join_stagger: SimDuration::from_millis(100),
            seed: 10,
        }
    }
}

/// Result: the three bars of Figure 10.
pub struct Fig10Result {
    /// Stable overlay, no churn, no groups.
    pub no_churn: PhaseRates,
    /// Churning overlay, no groups.
    pub churn: PhaseRates,
    /// Churning overlay with FUSE groups.
    pub churn_with_fuse: PhaseRates,
    /// FUSE-protocol messages per second during the third phase (the group
    /// repair traffic the paper attributes the +94% to).
    pub fuse_msgs_per_sec: f64,
}

type ChurnSim = Sim<NodeStack<RecorderApp>, Network, MsgTrace>;

#[derive(Clone)]
struct ChurnCfg {
    mean_phase: SimDuration,
    ov: OverlayConfig,
    fuse: FuseConfig,
}

fn exp_sample(rng: &mut rand::rngs::StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(1e-9..1.0);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Precomputes one churner's alternating crash/restart cycle out to
/// `horizon` and queues it through the kernel's script events
/// ([`Sim::schedule_crash`]/[`Sim::schedule_restart`]): the exponential
/// phase lengths are sampled up front from the kernel RNG and each restart
/// event carries its fresh stack, so churn scripting builds no per-cycle
/// closures and captures no per-cycle `infos` clones.
fn schedule_churn(
    sim: &mut ChurnSim,
    proc: ProcId,
    cfg: &ChurnCfg,
    infos: &[fuse_overlay::NodeInfo],
    horizon: fuse_sim::SimTime,
) {
    let mut at = sim.now();
    let mut up = true;
    loop {
        at += exp_sample(sim.rng_mut(), cfg.mean_phase);
        if at > horizon {
            break;
        }
        if up {
            sim.schedule_crash(at, proc);
        } else {
            let stack = NodeStack::new(
                infos[proc as usize],
                Some(0),
                cfg.ov.clone(),
                cfg.fuse.clone(),
                RecorderApp::new(),
            );
            sim.schedule_restart(at, proc, stack);
        }
        up = !up;
    }
}

fn measure_window(world: &mut World, window: SimDuration) -> PhaseRates {
    let s0 = world.sim.trace().snapshot(world.now());
    world.run(window);
    let s1 = world.sim.trace().snapshot(world.now());
    MsgTrace::rates(&s0, &s1)
}

fn live_world(n: usize, seed: u64, stagger: SimDuration) -> World {
    let mut p = WorldParams::new(n, seed, NetConfig::simulator());
    p.bootstrap = Bootstrap::Live { stagger };
    World::build(&p)
}

/// Runs all three phases.
pub fn run(p: &Params) -> Fig10Result {
    // Phase 1: stable overlay.
    let mut base = live_world(p.baseline_n, p.seed, p.join_stagger);
    base.run(SimDuration::from_secs(180));
    let no_churn = measure_window(&mut base, p.window);
    drop(base);

    // Phase 2: churning overlay.
    let total = p.stable + p.churners;
    let mut world = live_world(total, p.seed ^ 1, p.join_stagger);
    world.run(SimDuration::from_secs(120));
    let cfg = ChurnCfg {
        mean_phase: p.mean_phase,
        ov: OverlayConfig::default(),
        fuse: FuseConfig::default(),
    };
    // Churn must outlast everything that still runs after this point:
    // settle (mean_phase), two measurement windows, the phase-3 group
    // creation (worst case every attempt runs to its 60 s blocking-create
    // deadline) and its 120 s warm-up. Undershooting would silently
    // measure the "churn with FUSE" window against a stable overlay.
    let create_worst_case = SimDuration::from_secs(60 * (p.groups * 3) as u64);
    let horizon = world.now()
        + p.mean_phase
        + p.window
        + p.window
        + SimDuration::from_secs(120)
        + create_worst_case;
    let infos = world.infos.clone();
    for c in p.stable..total {
        schedule_churn(&mut world.sim, c as ProcId, &cfg, &infos, horizon);
    }
    // Let churn reach its steady population.
    world.run(p.mean_phase);
    let churn = measure_window(&mut world, p.window);

    // Phase 3: add FUSE groups on the stable nodes.
    let mut created = 0;
    let mut attempts = 0;
    while created < p.groups && attempts < p.groups * 3 {
        attempts += 1;
        let root = (attempts * 7919) % p.stable;
        let mut members = Vec::new();
        let mut k = 1usize;
        while members.len() < p.group_size - 1 {
            let m = ((attempts * 104729) + k * 15485863) % p.stable;
            k += 1;
            if m != root && !members.contains(&(m as ProcId)) {
                members.push(m as ProcId);
            }
        }
        let (res, _) = world.create_group_blocking(root as ProcId, &members);
        if res.is_ok() {
            created += 1;
        }
    }
    world.run(SimDuration::from_secs(120));
    let fuse_before = world.sim.trace().fuse_msgs();
    let churn_with_fuse = measure_window(&mut world, p.window);
    let fuse_after = world.sim.trace().fuse_msgs();
    let fuse_msgs_per_sec = (fuse_after - fuse_before) as f64 / churn_with_fuse.seconds;

    Fig10Result {
        no_churn,
        churn,
        churn_with_fuse,
        fuse_msgs_per_sec,
    }
}

/// Renders the figure.
pub fn render(r: &Fig10Result) -> String {
    let mut out = String::from("Figure 10 — costs of overlay churn (messages per second)\n");
    out.push_str(
        "paper: 238 (stable 300) -> 270 (+13% churn) -> 523 (+94% churn with 100x10 FUSE groups)\n",
    );
    out.push_str(&format!(
        "  stable overlay       : {:>8.1} msg/s\n",
        r.no_churn.msgs_per_sec
    ));
    out.push_str(&format!(
        "  with churn           : {:>8.1} msg/s  ({:+.1}% vs stable)\n",
        r.churn.msgs_per_sec,
        100.0 * (r.churn.msgs_per_sec / r.no_churn.msgs_per_sec - 1.0)
    ));
    out.push_str(&format!(
        "  churn with FUSE      : {:>8.1} msg/s  ({:+.1}% vs churn alone; {:.1} msg/s are FUSE repair traffic)\n",
        r.churn_with_fuse.msgs_per_sec,
        100.0 * (r.churn_with_fuse.msgs_per_sec / r.churn.msgs_per_sec - 1.0),
        r.fuse_msgs_per_sec
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_and_groups_add_load_in_that_order() {
        let r = run(&Params::quick());
        assert!(
            r.churn.msgs_per_sec > r.no_churn.msgs_per_sec * 0.95,
            "churn should not reduce load: {} vs {}",
            r.churn.msgs_per_sec,
            r.no_churn.msgs_per_sec
        );
        // Groups under churn generate tangible repair traffic. (The two
        // windows see different churn realizations, so the totals are
        // compared through the FUSE-class traffic itself, which is
        // noise-free.)
        assert!(
            r.fuse_msgs_per_sec > 0.5,
            "groups under churn must add repair traffic: {} fuse msg/s",
            r.fuse_msgs_per_sec
        );
        assert!(
            r.churn_with_fuse.msgs_per_sec + 1.0 > r.churn.msgs_per_sec * 0.9,
            "phase 3 total {} implausibly below churn alone {}",
            r.churn_with_fuse.msgs_per_sec,
            r.churn.msgs_per_sec
        );
    }
}
