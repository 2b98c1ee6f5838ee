//! The `node_load` report: per-fault-class latency quantiles from the live
//! run, sim reference numbers alongside, rendered as a table or a JSON
//! object.

use std::collections::HashMap;

use fuse_obs::json::Value;
use fuse_obs::Reservoir;

use crate::scenario::{FaultClass, ScenarioParams};

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

    fn quantiles(samples: &[f64]) -> (f64, f64, f64, f64, f64) {
        let mut s = Reservoir::new();
        for &v in samples {
            s.add(v);
        }
        (
            s.quantile(0.50).unwrap_or(f64::NAN),
            s.quantile(0.99).unwrap_or(f64::NAN),
            s.quantile(0.999).unwrap_or(f64::NAN),
            s.max().unwrap_or(f64::NAN),
            s.mean().unwrap_or(f64::NAN),
        )
    }

    /// The class's JSON object.
    pub fn to_json(&self) -> Value {
        let (p50, p99, p999, max, mean) = Self::quantiles(&self.live_ms);
        let (sp50, sp99, _, _, _) = Self::quantiles(&self.sim_ms);
        Value::Obj(vec![
            ("samples".into(), Value::Num(self.live_ms.len() as f64)),
            ("p50_ms".into(), Value::Num(p50)),
            ("p99_ms".into(), Value::Num(p99)),
            ("p999_ms".into(), Value::Num(p999)),
            ("max_ms".into(), Value::Num(max)),
            ("mean_ms".into(), Value::Num(mean)),
            (
                "within_budget".into(),
                Value::Num(if self.within_budget() { 1.0 } else { 0.0 }),
            ),
            ("live_misses".into(), Value::Num(self.live_misses as f64)),
            ("sim_samples".into(), Value::Num(self.sim_ms.len() as f64)),
            ("sim_p50_ms".into(), Value::Num(sp50)),
            ("sim_p99_ms".into(), Value::Num(sp99)),
            ("sim_misses".into(), Value::Num(self.sim_misses as f64)),
            ("live_minus_sim_p50_ms".into(), Value::Num(p50 - sp50)),
        ])
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
    /// Assembles a report from per-class live/sim sample maps.
    pub fn assemble(
        params: ScenarioParams,
        live: &HashMap<FaultClass, (Vec<f64>, usize)>,
        sim: &HashMap<FaultClass, (Vec<f64>, usize)>,
    ) -> LoadReport {
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

    /// The `node_load` JSON object.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("nodes".into(), Value::Num(self.params.nodes as f64)),
            (
                "groups_per_round".into(),
                Value::Num(self.params.groups as f64),
            ),
            (
                "rounds_per_class".into(),
                Value::Num(self.params.rounds as f64),
            ),
            ("seed".into(), Value::Num(self.params.seed as f64)),
            (
                "budget_ms".into(),
                Value::Num(self.params.budget.as_secs_f64() * 1e3),
            ),
            ("delay_ms".into(), Value::Num(self.params.delay_ms as f64)),
            (
                "loss_pct".into(),
                Value::Num(f64::from(self.params.loss_pct)),
            ),
        ];
        for c in &self.classes {
            fields.push((c.class.label().into(), c.to_json()));
        }
        Value::Obj(fields)
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
            "{:<8} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}\n",
            "class", "samples", "p50_ms", "p99_ms", "p999_ms", "max_ms", "sim_p50", "budget"
        ));
        for c in &self.classes {
            let (p50, p99, p999, max, _) = ClassReport::quantiles(&c.live_ms);
            let (sp50, _, _, _, _) = ClassReport::quantiles(&c.sim_ms);
            out.push_str(&format!(
                "{:<8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>7}\n",
                c.class.label(),
                c.live_ms.len(),
                p50,
                p99,
                p999,
                max,
                sp50,
                if c.within_budget() { "OK" } else { "MISS" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_obs::json;
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
        let mut live = HashMap::new();
        live.insert(
            FaultClass::Kill,
            ((1..=20).map(|i| i as f64 * 10.0).collect(), 0),
        );
        live.insert(FaultClass::Signal, (vec![5.0, 6.0, 7.0], 0));
        let mut sim = HashMap::new();
        sim.insert(FaultClass::Kill, (vec![30_000.0, 31_000.0], 0));
        sim.insert(FaultClass::Signal, (vec![4.0, 5.0], 0));
        LoadReport::assemble(params, &live, &sim)
    }

    #[test]
    fn json_section_has_gateable_paths() {
        let r = sample_report();
        assert!(r.within_budget());
        let mut doc = Value::Obj(vec![("pr".into(), Value::Num(7.0))]);
        doc.set("node_load", r.to_json());
        doc.set("pr", Value::Num(9.0));
        let text = json::render(&doc);
        let back = json::parse(&text).unwrap();
        assert_eq!(back.get("pr").unwrap().as_f64(), Some(9.0));
        assert_eq!(
            back.get("node_load.kill.samples").unwrap().as_f64(),
            Some(20.0)
        );
        assert_eq!(
            back.get("node_load.kill.within_budget").unwrap().as_f64(),
            Some(1.0)
        );
        let p50 = back.get("node_load.kill.p50_ms").unwrap().as_f64().unwrap();
        assert!(p50 > 0.0 && p50 <= 200.0);
        assert!(back.get("node_load.signal.p99_ms").is_some());
        assert!(
            back.get("node_load.sever").is_none(),
            "absent class omitted"
        );
    }

    #[test]
    fn misses_fail_the_budget_and_render_marks_them() {
        let mut r = sample_report();
        r.classes[0].live_misses = 1;
        assert!(!r.within_budget());
        let text = r.render();
        assert!(text.contains("MISS"), "{text}");
        assert_eq!(
            r.classes[0]
                .to_json()
                .get("within_budget")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
