//! The exploration loop: generate scripts, run them, shrink failures.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::runner::{run_script, ChaosConfig, RunReport};
use crate::chaos::script::ChaosScript;
use crate::chaos::shrink::shrink;
use crate::chaos::token::format_token;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreParams {
    /// Base seed; script `i` runs under `base_seed + i`.
    pub base_seed: u64,
    /// Number of scripts to generate and run.
    pub scripts: usize,
    /// World size per run.
    pub n: usize,
    /// Fixed group size, or `None` to cycle 2..=5.
    pub group_size: Option<usize>,
    /// Injected-regression knob forwarded into every run's config.
    pub member_repair_timeout_s: Option<u64>,
}

impl ExploreParams {
    /// Defaults: 24-node worlds, cycling group sizes.
    pub fn new(base_seed: u64, scripts: usize) -> Self {
        ExploreParams {
            base_seed,
            scripts,
            n: 24,
            group_size: None,
            member_repair_timeout_s: None,
        }
    }

    /// The config for script index `i`.
    pub fn config_for(&self, i: usize) -> ChaosConfig {
        let gs = self.group_size.unwrap_or(2 + i % 4);
        let mut cfg = ChaosConfig::new(self.base_seed + i as u64, self.n, gs);
        cfg.member_repair_timeout_s = self.member_repair_timeout_s;
        cfg
    }

    /// The generated script for index `i` (a pure function of the base
    /// seed, so explorations replay).
    pub fn script_for(&self, i: usize) -> ChaosScript {
        let cfg = self.config_for(i);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x00c0_ffee_c0ff_ee00);
        ChaosScript::generate(&mut rng, cfg.group_size)
    }
}

/// A failing script, shrunk, with both replay tokens.
#[derive(Debug, Clone)]
pub struct FailureCase {
    /// Script index within the exploration.
    pub index: usize,
    /// Token of the original failing script.
    pub token: String,
    /// Report of the original failing run.
    pub report: RunReport,
    /// Token of the shrunk script.
    pub shrunk_token: String,
    /// Report of the shrunk run (still failing).
    pub shrunk_report: RunReport,
    /// Number of phases in the shrunk script.
    pub shrunk_phases: usize,
}

/// Runs the exploration. Returns the number of clean scripts on success,
/// or the first failure, shrunk, with replay tokens.
pub fn explore(
    p: &ExploreParams,
    mut progress: impl FnMut(usize, &RunReport),
) -> Result<usize, Box<FailureCase>> {
    for i in 0..p.scripts {
        let cfg = p.config_for(i);
        let script = p.script_for(i);
        let report = run_script(&cfg, &script);
        if report.violations.is_empty() {
            progress(i, &report);
            continue;
        }
        let token = format_token(&cfg, &script);
        let (shrunk, shrunk_report) = shrink(&cfg, &script);
        let shrunk_token = format_token(&cfg, &shrunk);
        return Err(Box::new(FailureCase {
            index: i,
            token,
            report,
            shrunk_token,
            shrunk_phases: shrunk.phases.len(),
            shrunk_report,
        }));
    }
    Ok(p.scripts)
}
