//! SV-tree world construction and the §4 FUSE-group census.
//!
//! "Simulating a 2000 subscriber tree on a 16,000 node overlay required an
//! average of 2.9 members per FUSE group with a maximum size of 13. We also
//! verified that the maximum and mean FUSE group sizes depend very little on
//! the size of the multicast tree, and increase slowly with the size of the
//! overlay" (§4). [`run_census`] regenerates those numbers.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use fuse_core::FuseConfig;
use fuse_obs::Reservoir;
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{PerfectMedium, ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;

use crate::{SvApp, SvConfig};

/// Census parameters.
#[derive(Debug, Clone)]
pub struct CensusParams {
    /// Overlay size.
    pub overlay_nodes: usize,
    /// Number of subscribers (tree size).
    pub subscribers: usize,
    /// Fraction of non-subscribers that volunteer to forward.
    pub volunteer_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Census output.
#[derive(Debug, Clone)]
pub struct CensusResult {
    /// Number of link groups created.
    pub groups: usize,
    /// Mean group size (members including the creator).
    pub mean_size: f64,
    /// Largest group.
    pub max_size: f64,
    /// Fraction of subscribers that reached the tree.
    pub linked_fraction: f64,
}

/// Builds an SV-tree world, joins all subscribers, and reports the sizes of
/// the per-link FUSE groups.
pub fn run_census(p: &CensusParams) -> CensusResult {
    let mut rng = rand::rngs::StdRng::seed_from_u64(p.seed);
    let n = p.overlay_nodes;
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let topic = NodeName::new("svtree-topic-1").expect("the topic fits a ring name");

    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(&mut rng);
    let sub_set: std::collections::BTreeSet<usize> =
        ids.iter().copied().take(p.subscribers).collect();

    let mut sim: Sim<NodeStack<SvApp>, PerfectMedium> =
        Sim::new(p.seed, PerfectMedium::new(SimDuration::from_millis(20)));
    for (i, (info, (cw, ccw, rt))) in infos.iter().zip(tables).enumerate() {
        // Everyone boots as a bystander; subscriptions are staggered below
        // so the tree grows incrementally, as real trees do.
        let mut cfg = SvConfig::bystander(topic);
        if !sub_set.contains(&i) {
            cfg.volunteer = rand::Rng::gen_bool(&mut rng, p.volunteer_fraction);
        }
        let mut stack = NodeStack::new(
            *info,
            None,
            ov_cfg.clone(),
            FuseConfig::default(),
            SvApp::new(cfg),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }

    // Staggered joins: each subscriber attaches to the tree built so far.
    let subs_in_order: Vec<usize> = ids.iter().copied().take(p.subscribers).collect();
    for &i in &subs_in_order {
        sim.run_for(SimDuration::from_millis(150));
        sim.with_proc(i as ProcId, |stack, ctx| {
            stack.with_api(ctx, |api, app| app.subscribe_now(api))
        });
    }
    // Let the last joins settle.
    sim.run_for(SimDuration::from_secs(60));

    let mut sizes = Reservoir::new();
    let mut linked = 0usize;
    for i in 0..n as ProcId {
        let app = &sim.proc(i).expect("alive").app;
        for &s in &app.link_group_sizes {
            sizes.add(s as f64);
        }
        if sub_set.contains(&(i as usize)) && app.on_tree() {
            linked += 1;
        }
    }
    CensusResult {
        groups: sizes.len(),
        mean_size: sizes.mean().unwrap_or(0.0),
        max_size: sizes.max().unwrap_or(0.0),
        linked_fraction: linked as f64 / p.subscribers.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_census_links_everyone_with_small_groups() {
        let r = run_census(&CensusParams {
            overlay_nodes: 128,
            subscribers: 24,
            volunteer_fraction: 0.0,
            seed: 5,
        });
        assert!(r.linked_fraction > 0.95, "linked {}", r.linked_fraction);
        assert!(
            r.groups >= 24,
            "every subscriber creates at least one group"
        );
        assert!(
            (2.0..=6.0).contains(&r.mean_size),
            "mean group size {} out of band",
            r.mean_size
        );
        assert!(r.max_size <= 16.0, "max {}", r.max_size);
    }

    #[test]
    fn volunteers_shrink_bypass_sets() {
        let base = run_census(&CensusParams {
            overlay_nodes: 128,
            subscribers: 24,
            volunteer_fraction: 0.0,
            seed: 6,
        });
        let vols = run_census(&CensusParams {
            overlay_nodes: 128,
            subscribers: 24,
            volunteer_fraction: 1.0,
            seed: 6,
        });
        assert!(
            vols.mean_size <= base.mean_size,
            "volunteers {} vs base {}",
            vols.mean_size,
            base.mean_size
        );
        // With every bystander volunteering, links rarely bypass anyone
        // (only subscribers still mid-join can be bypassed): groups are
        // close to the minimal {subscriber, parent}.
        assert!(vols.mean_size <= 2.5, "mean {}", vols.mean_size);
    }
}
