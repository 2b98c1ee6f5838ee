//! Script shrinking: reduce a failing script to a minimal repro.
//!
//! Greedy fixpoint over three reductions, re-running the candidate after
//! each (a candidate is adopted only if it *still* violates an invariant):
//!
//! 1. **Drop phases** — remove one phase at a time; most multi-phase
//!    failures reduce to one or two load-bearing ops.
//! 2. **Shorten delays** — halve a phase's offset; failures rarely depend
//!    on the exact instant, and smaller offsets replay faster.
//! 3. **Narrow ops** — replace a compound op with its simpler core
//!    (`churn` → `crash`, multi-step loss ramp → single step).
//!
//! Each reduction re-executes a full deterministic run, so the result is
//! guaranteed to still fail — the shrunk script plus the config *is* the
//! repro.

use fuse_sim::SimDuration;

use crate::chaos::runner::{run_script, ChaosConfig, RunReport};
use crate::chaos::script::{ChaosOp, ChaosScript};

/// Upper bound on candidate executions per shrink (a safety valve; typical
/// shrinks run far fewer).
const MAX_RUNS: usize = 200;

fn narrowed(op: ChaosOp) -> Option<ChaosOp> {
    match op {
        ChaosOp::Churn { slot, .. } => Some(ChaosOp::Crash { slot }),
        ChaosOp::LossRamp { pct, steps, .. } if steps > 1 => Some(ChaosOp::LossRamp {
            pct,
            steps: 1,
            over_s: 0,
        }),
        _ => None,
    }
}

/// Shrinks `script` (which must fail under `cfg`) to a smaller script that
/// still fails, returning it with its report. If the input does not fail,
/// it is returned unchanged with its (clean) report.
pub fn shrink(cfg: &ChaosConfig, script: &ChaosScript) -> (ChaosScript, RunReport) {
    let mut best = script.clone();
    let mut best_report = run_script(cfg, &best);
    if best_report.violations.is_empty() {
        return (best, best_report);
    }
    let mut runs = 1usize;
    let try_candidate = |cand: &ChaosScript, runs: &mut usize| -> Option<RunReport> {
        if *runs >= MAX_RUNS {
            return None;
        }
        *runs += 1;
        let r = run_script(cfg, cand);
        if r.violations.is_empty() {
            None
        } else {
            Some(r)
        }
    };

    'outer: loop {
        // 1. Drop one phase.
        for i in 0..best.phases.len() {
            let mut cand = best.clone();
            cand.phases.remove(i);
            if let Some(r) = try_candidate(&cand, &mut runs) {
                best = cand;
                best_report = r;
                continue 'outer;
            }
        }
        // 2. Halve one delay.
        for i in 0..best.phases.len() {
            let at = best.phases[i].at;
            if at.nanos() == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand.phases[i].at = SimDuration(at.nanos() / 2);
            if let Some(r) = try_candidate(&cand, &mut runs) {
                best = cand;
                best_report = r;
                continue 'outer;
            }
        }
        // 3. Narrow one op.
        for i in 0..best.phases.len() {
            let Some(op) = narrowed(best.phases[i].op) else {
                continue;
            };
            let mut cand = best.clone();
            cand.phases[i].op = op;
            if let Some(r) = try_candidate(&cand, &mut runs) {
                best = cand;
                best_report = r;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_report)
}
