//! The `node_load` report: per-fault-class latency quantiles from the live
//! run, sim reference numbers alongside, rendered as a table. Both columns
//! come from one [`Samples`] each, as the plan loop returns them.

use std::collections::HashMap;

use fuse_obs::Reservoir;

use crate::scenario::{FaultClass, ScenarioParams};

/// Per-class samples from one run of the plan: fault→last-survivor-notified
/// milliseconds for every group whose survivors each heard exactly once
/// within the budget, and the count of groups that did not.
pub type Samples = HashMap<FaultClass, (Vec<f64>, usize)>;

/// Per-class latency distribution plus the budget verdict.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// The fault class.
    pub class: FaultClass,
    /// Live fault→last-member-notified samples, milliseconds (one per
    /// group measured).
    pub live_ms: Vec<f64>,
    /// Live groups where some survivor missed the budget.
    pub live_misses: usize,
    /// Sim-reference samples, milliseconds.
    pub sim_ms: Vec<f64>,
    /// Sim groups that missed the budget.
    pub sim_misses: usize,
}

impl ClassReport {
    /// Whether every live group notified every survivor within budget.
    pub fn within_budget(&self) -> bool {
        self.live_misses == 0 && !self.live_ms.is_empty()
    }

    fn quantiles(samples: &[f64]) -> (f64, f64, f64, f64) {
        let mut s = Reservoir::new();
        for &v in samples {
            s.add(v);
        }
        (
            s.quantile(0.50).unwrap_or(f64::NAN),
            s.quantile(0.99).unwrap_or(f64::NAN),
            s.quantile(0.999).unwrap_or(f64::NAN),
            s.max().unwrap_or(f64::NAN),
        )
    }
}

/// The whole `node_load` section.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Scenario shape the numbers came from.
    pub params: ScenarioParams,
    /// Per-class reports, in [`FaultClass::all`] order (absent classes
    /// omitted).
    pub classes: Vec<ClassReport>,
}

impl LoadReport {
    /// Assembles a report from the live and the sim run's samples.
    pub fn assemble(params: ScenarioParams, live: &Samples, sim: &Samples) -> LoadReport {
        let classes = FaultClass::all()
            .iter()
            .filter(|c| live.contains_key(c))
            .map(|&class| {
                let (live_ms, live_misses) = live.get(&class).cloned().unwrap_or_default();
                let (sim_ms, sim_misses) = sim.get(&class).cloned().unwrap_or_default();
                ClassReport {
                    class,
                    live_ms,
                    live_misses,
                    sim_ms,
                    sim_misses,
                }
            })
            .collect();
        LoadReport { params, classes }
    }

    /// Whether every measured class met the budget.
    pub fn within_budget(&self) -> bool {
        !self.classes.is_empty() && self.classes.iter().all(|c| c.within_budget())
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "node_load: N={} groups={} rounds/class={} budget={}s delay={}ms loss={}%\n",
            self.params.nodes,
            self.params.groups,
            self.params.rounds,
            self.params.budget.as_secs(),
            self.params.delay_ms,
            self.params.loss_pct,
        ));
        out.push_str(&format!(
            "{:<8} {:>7} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>7}\n",
            "class",
            "samples",
            "misses",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
            "sim_p50",
            "sim_miss",
            "budget"
        ));
        for c in &self.classes {
            let (p50, p99, p999, max) = ClassReport::quantiles(&c.live_ms);
            let (sp50, _, _, _) = ClassReport::quantiles(&c.sim_ms);
            out.push_str(&format!(
                "{:<8} {:>7} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8} {:>7}\n",
                c.class.label(),
                c.live_ms.len(),
                c.live_misses,
                p50,
                p99,
                p999,
                max,
                sp50,
                c.sim_misses,
                if c.within_budget() { "OK" } else { "MISS" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_report() -> LoadReport {
        let params = ScenarioParams {
            nodes: 10,
            groups: 5,
            rounds: 4,
            seed: 1,
            budget: Duration::from_secs(480),
            delay_ms: 0,
            loss_pct: 0,
        };
        let mut live = Samples::new();
        live.insert(
            FaultClass::Kill,
            ((1..=20).map(|i| i as f64 * 10.0).collect(), 0),
        );
        live.insert(FaultClass::Signal, (vec![5.0, 6.0, 7.0], 0));
        let mut sim = Samples::new();
        sim.insert(FaultClass::Kill, (vec![30_000.0, 31_000.0], 0));
        sim.insert(FaultClass::Signal, (vec![4.0, 5.0], 2));
        LoadReport::assemble(params, &live, &sim)
    }

    #[test]
    fn misses_fail_the_budget_and_render_marks_them() {
        let mut r = sample_report();
        r.classes[0].live_misses = 1;
        assert!(!r.within_budget());
        let text = r.render();
        assert!(text.contains("MISS"), "{text}");
    }

    #[test]
    fn render_shows_misses_in_both_columns() {
        let text = sample_report().render();
        let row = |class: &str| -> Vec<String> {
            let line = text.lines().find(|l| l.starts_with(class)).unwrap();
            line.split_whitespace().map(str::to_string).collect()
        };
        let header = row("class");
        let col = |name: &str| header.iter().position(|h| h == name).unwrap();
        let signal = row("signal");
        assert_eq!(signal[col("misses")], "0", "{text}");
        assert_eq!(signal[col("sim_miss")], "2", "{text}");
        assert_eq!(row("kill")[col("sim_miss")], "0", "{text}");
    }
}
