//! The benchmark's metrics: names, units, direction and bounds, in one
//! table that `BENCHMARK.json` repeats and a test holds it to.

use std::collections::BTreeMap;

use fuse_obs::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the earlier run's value by which a later run may be worse
    /// before it counts as a regression, on any workload and from any seed
    /// to any other: for an end-to-end metric the bound of `BENCHMARK.json`.
    /// `None` for a metric that is reported but not gated.
    pub bound: Option<f64>,
    /// The bound `compare` applies on the simulated workloads, where it
    /// holds two runs of one seed against each other: the same name is a
    /// simulated-clock value there, exact under a seed, and a wall-clock
    /// one over real processes on `live_loopback`.
    pub sim_bound: Option<f64>,
}

impl Def {
    /// The bound `compare` applies on `workload`.
    pub fn bound_on(&self, workload: &str) -> Option<f64> {
        match workload {
            "live_loopback" => self.bound,
            _ => self.sim_bound.or(self.bound),
        }
    }
}

const fn def_of(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    sim_bound: Option<f64>,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        sim_bound,
    }
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    def_of(name, unit, better, Some(bound), None)
}

const fn gated_sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    def_of(name, unit, better, None, Some(bound))
}

const fn plain(name: &'static str, unit: &'static str, better: Better) -> Def {
    def_of(name, unit, better, None, None)
}

use Better::{Higher, Lower};

/// What a user of the system sees, defined on every workload and never 0;
/// printed by a run with tracing off. The bounds are those of
/// `BENCHMARK.json`.
pub const END_TO_END: [Def; 5] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("work_rate", "1/refunit", Higher, 0.25),
    gated("setup_rss_mb", "MB", Lower, 0.15),
    def_of("create_ms_p50", "ms", Lower, Some(0.25), Some(0.01)),
    def_of("notify_ms_p50", "ms", Lower, Some(0.25), Some(0.01)),
];

/// Everything else; printed by a traced run, 0 where a metric does not
/// apply to the workload. The first twenty-one are also measured with
/// tracing off; `compare` applies a bound to those that repeat under a seed
/// — simulated-clock values, counts, memory — and to the two stated against
/// the reference (`slow_decile_rate`, `cpu_per_work`), and only reports the
/// plain wall-clock ones, which on a shared host drift further than any
/// bound worth having. The rest are the per-layer numbers the spans and
/// boundary counts give.
pub const PER_LAYER: [Def; 71] = [
    plain("node_sim_s_per_wall_s", "1/s", Higher),
    plain("group_cycles_per_s", "1/s", Higher),
    gated_sim("create_ms_p99", "ms", Lower, 0.01),
    gated_sim("notify_ms_p99", "ms", Lower, 0.01),
    gated("crash_notify_s_p50", "s", Lower, 0.01),
    gated("crash_notify_s_p99", "s", Lower, 0.01),
    gated("missed_notifications", "count", Lower, 0.0),
    gated("spurious_notifications", "count", Lower, 0.0),
    gated("failed_ops_share", "share", Lower, 0.0),
    gated("false_positive_groups", "count", Lower, 0.0),
    gated("msgs_per_node_s", "1/s", Lower, 0.01),
    gated("bytes_per_node_s", "B/s", Lower, 0.01),
    gated("slow_decile_rate", "1/refunit", Higher, 0.50),
    gated("cpu_per_work", "refunit", Lower, 0.25),
    plain("fleet_cpu_ms_per_cycle", "ms", Lower),
    plain("cpu_us_per_work", "us", Lower),
    gated("peak_rss_mb", "MB", Lower, 0.10),
    plain("setup_wall_s", "s", Lower),
    plain("cycle_ms_p10", "ms", Lower),
    plain("cycle_ms_p50", "ms", Lower),
    plain("cycle_ms_p99", "ms", Lower),
    plain("sim.events", "count", Lower),
    plain("sim.self_ns_per_event", "ns", Lower),
    plain("sim.pending_peak", "count", Lower),
    plain("net.unicast_calls", "count", Lower),
    plain("net.unicast_ns_mean", "ns", Lower),
    plain("net.busy_share", "share", Lower),
    plain("net.route_misses", "count", Lower),
    plain("net.route_miss_ratio", "share", Lower),
    plain("net.setup_route_misses", "count", Lower),
    plain("net.breaks", "count", Lower),
    plain("net.drops", "count", Lower),
    plain("net.bytes_offered", "B", Lower),
    plain("net.bytes_delivered", "B", Lower),
    plain("overlay.inputs", "count", Lower),
    plain("overlay.input_ns_mean", "ns", Lower),
    plain("overlay.busy_share", "share", Lower),
    plain("overlay.msgs_per_node_s", "1/s", Lower),
    plain("core.inputs", "count", Lower),
    plain("core.input_ns_mean", "ns", Lower),
    plain("core.busy_share", "share", Lower),
    plain("core.timer_inputs", "count", Lower),
    plain("core.api_calls", "count", Lower),
    plain("core.api_ns_mean", "ns", Lower),
    plain("core.msgs_per_cycle", "count", Lower),
    plain("core.bytes_per_cycle", "B", Lower),
    plain("liveness.inputs", "count", Lower),
    plain("liveness.input_ns_mean", "ns", Lower),
    plain("simdriver.link_broken_inputs", "count", Lower),
    plain("harness.self_ns_share", "share", Lower),
    plain("wire.encode_ns_per_msg", "ns", Lower),
    plain("wire.encodebuf_ns_per_msg", "ns", Lower),
    plain("wire.decode_ns_per_msg", "ns", Lower),
    plain("wire.bytes_per_msg", "B", Lower),
    plain("obs.events", "count", Lower),
    plain("obs.record_ns_mean", "ns", Lower),
    plain("alloc.per_event", "count", Lower),
    plain("alloc.per_cycle", "count", Lower),
    plain("node.ctx_switches_per_cycle", "count", Lower),
    plain("node.cpu_user_ms_per_cycle", "ms", Lower),
    plain("node.cpu_sys_ms_per_cycle", "ms", Lower),
    plain("node.threads", "count", Lower),
    plain("node.rss_mb", "MB", Lower),
    plain("core.cycle_handle_us", "us", Lower),
    plain("wire.cycle_codec_us", "us", Lower),
    plain("wire.frames_per_cycle", "count", Lower),
    plain("wire.bytes_per_cycle", "B", Lower),
    plain("node.driver_us_per_cycle", "us", Lower),
    plain("trace.overhead_share", "share", Lower),
    plain("trace.matches_untraced", "count", Higher),
    plain("trace.accounted_share", "share", Higher),
];

/// How many of [`PER_LAYER`], from the front, a run with tracing off also
/// measures.
#[cfg(test)]
pub const MEASURED_UNTRACED: usize = 21;

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// A measured value and, for a timing, its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// Samples behind it, when it is a statistic over samples.
    pub n: Option<usize>,
}

/// What one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Measured metrics by name. A metric of the printed list that is not
    /// here does not apply to the workload and prints as 0.
    pub values: BTreeMap<&'static str, Measured>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or timed out.
    pub failed: u64,
    /// Whether every output checked was correct: no notification missed,
    /// none spurious.
    pub correct: bool,
}

impl Report {
    /// Records `value` under `name`, which must be in the table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None);
    }

    /// Records a statistic over `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.put(name, value, Some(n));
    }

    fn put(&mut self, name: &'static str, value: f64, n: Option<usize>) {
        assert!(def(name).is_some(), "metric {name} is not in the table");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, Measured { value, n });
    }

    /// The value of `name`, 0 when it does not apply.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    /// The result object the contract asks for, holding every metric of
    /// `list` and nothing else.
    pub fn result_json(&self, list: &[Def]) -> Value {
        let metrics = list
            .iter()
            .map(|d| (d.name.to_string(), metric_json(d, self.get(d.name), None)))
            .collect();
        self.envelope(metrics)
    }

    /// Every measured metric with its unit and sample count, for the
    /// results file `run` and `trace` write.
    pub fn detail_json(&self) -> Value {
        let metrics = self
            .values
            .iter()
            .map(|(&name, m)| {
                let d = def(name).expect("only table metrics are recorded");
                (name.to_string(), metric_json(d, m.value, m.n))
            })
            .collect();
        self.envelope(metrics)
    }

    fn envelope(&self, metrics: Vec<(String, Value)>) -> Value {
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    }

    /// One line per measured metric: name, value, unit, sample count.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.values {
            let unit = def(name).expect("only table metrics are recorded").unit;
            out.push_str(&format!("  {name:<32} {:>16.6} {unit}", m.value));
            if let Some(n) = m.n {
                out.push_str(&format!("  (n={n})"));
            }
            out.push('\n');
        }
        out
    }
}

fn metric_json(d: &Def, value: f64, n: Option<usize>) -> Value {
    let mut fields = vec![
        ("value".to_string(), Value::Num(value)),
        ("unit".to_string(), Value::Str(d.unit.to_string())),
    ];
    if let Some(n) = n {
        fields.push(("n".to_string(), Value::Num(n as f64)));
    }
    Value::Obj(fields)
}

/// Renders `v` on one line. The repository's own renderer indents over
/// many; the contract wants the result as the last *line* of output.
pub fn to_line(v: &Value) -> String {
    let mut out = String::new();
    line_into(v, &mut out);
    out
}

fn line_into(v: &Value, out: &mut String) {
    match v {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                line_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                line_into(&Value::Str(k.clone()), out);
                out.push(':');
                line_into(val, out);
            }
            out.push('}');
        }
        // Scalars have no line breaks of their own: a newline inside a
        // string is written as its escape.
        scalar => out.push_str(fuse_obs::json::render(scalar).trim_end()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_obs::json::parse;

    fn report() -> Report {
        let mut r = Report {
            attempted: 1200,
            failed: 0,
            correct: true,
            ..Report::default()
        };
        r.set("setup_s", 1.853_012_5);
        r.set("work_rate", 311.25);
        r.set_n("create_ms_p50", 421.018_479, 1000);
        r
    }

    #[test]
    fn the_result_line_is_one_line_of_json_the_repo_parser_reads() {
        let line = to_line(&report().result_json(&END_TO_END));
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("result parses");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1200.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        assert_eq!(
            v.get("metrics.setup_s.value").and_then(Value::as_f64),
            Some(1.853_012_5),
            "all digits survive"
        );
        assert_eq!(
            v.get("metrics.setup_s.unit"),
            Some(&Value::Str("s".to_string()))
        );
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            panic!("metrics is an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, table, "exactly the end-to-end list");
        // A metric that does not apply prints as 0, never goes missing.
        let traced = parse(&to_line(&report().result_json(&PER_LAYER))).unwrap();
        let Some(Value::Obj(m)) = traced.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter()
                .find(|(k, _)| k == "net.breaks")
                .unwrap()
                .1
                .get("value"),
            Some(&Value::Num(0.0))
        );
    }

    #[test]
    fn the_detail_keeps_sample_counts() {
        let v = parse(&to_line(&report().detail_json())).unwrap();
        assert_eq!(
            v.get("metrics.create_ms_p50.n").and_then(Value::as_f64),
            Some(1000.0)
        );
        assert!(report().human().contains("(n=1000)"));
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
        // The contract caps an end-to-end bound at a quarter.
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER[MEASURED_UNTRACED..].iter().all(|d| d
            .bound_on("live_loopback")
            .or(d.bound_on("steady_ping"))
            .is_none()));
        let create = def("create_ms_p50").unwrap();
        assert_eq!(create.bound_on("group_churn"), Some(0.01));
        assert_eq!(create.bound_on("live_loopback"), Some(0.25));
        let tail = def("create_ms_p99").unwrap();
        assert_eq!(tail.bound_on("crash_repair"), Some(0.01));
        assert_eq!(tail.bound_on("live_loopback"), None);
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let entries = |key: &str| match doc.get(key) {
            Some(Value::Arr(a)) => a.clone(),
            other => panic!("{key} is {other:?}"),
        };
        let text = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?}"),
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = entries(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (e, d) in listed.iter().zip(table) {
                assert_eq!(text(e, "name"), d.name);
                assert_eq!(text(e, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(e, "better"), d.better.label(), "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(
                        e.get("bound").and_then(Value::as_f64),
                        d.bound,
                        "{}",
                        d.name
                    );
                } else {
                    assert_eq!(e.get("bound"), None, "{}: per-layer has no bound", d.name);
                }
            }
        }
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
