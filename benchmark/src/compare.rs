//! `compare`: apply the bounds to two results files. `spread`: the median
//! and interquartile spread of each end-to-end metric over several, the
//! check the benchmark's driver makes before it accepts a benchmark.

use std::path::PathBuf;
use std::process::ExitCode;

use fuse_obs::json::{self, Value};

use crate::metrics::{def, Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::take_flag;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn fields<'a>(v: &'a Value, key: &str, path: &str) -> Result<&'a [(String, Value)], String> {
    match v.get(key) {
        Some(Value::Obj(f)) => Ok(f),
        _ => Err(format!("{path}: no {key:?} object")),
    }
}

/// The value of metric `name` in one workload's object of a results file.
/// Metric names hold dots, so `Value::get`'s path syntax cannot reach them.
fn metric_value(workload: &Value, name: &str) -> Option<f64> {
    let Some(Value::Obj(metrics)) = workload.get("metrics") else {
        return None;
    };
    metrics
        .iter()
        .find(|(k, _)| k == name)?
        .1
        .get("value")?
        .as_f64()
}

/// Whether `later` is worse than `earlier` by more than `bound`, a share of
/// `earlier`.
pub fn regressed(better: Better, bound: f64, earlier: f64, later: f64) -> bool {
    let slack = earlier.abs() * bound;
    match better {
        Better::Lower => later > earlier + slack,
        Better::Higher => later < earlier - slack,
    }
}

/// `compare <earlier.json> <later.json>`.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two results files".into());
    };
    Ok(if regressions(a_path, b_path)? == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints every gated metric of two results files side by side and returns
/// how many are worse in `b_path` than in `a_path` by more than their bound.
pub fn regressions(a_path: &str, b_path: &str) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = 0;
    println!(
        "{:<14} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "earlier", "later", "change", "bound"
    );
    for (workload, wa) in fields(&a, "workloads", a_path)? {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<14} missing from {b_path}");
            regressions += 1;
            continue;
        };
        if wb.get("correct") != Some(&Value::Bool(true)) {
            println!("{workload:<14} {b_path} reports incorrect outputs");
            regressions += 1;
        }
        for (name, _) in fields(wa, "metrics", a_path)? {
            let Some(d) = def(name) else { continue };
            let Some(bound) = d.bound_on(workload) else {
                continue;
            };
            let (Some(va), Some(vb)) = (metric_value(wa, name), metric_value(wb, name)) else {
                println!("{workload:<14} {name:<26} missing from {b_path}");
                regressions += 1;
                continue;
            };
            let bad = regressed(d.better, bound, va, vb);
            regressions += usize::from(bad);
            let change = if va == 0.0 {
                0.0
            } else {
                (vb - va) / va.abs() * 100.0
            };
            println!(
                "{workload:<14} {name:<26} {va:>16.6} {vb:>16.6} {change:>+8.2}% {:>6.1}%  {}",
                bound * 100.0,
                if bad { "REGRESSION" } else { "ok" }
            );
        }
    }
    println!("{regressions} regression(s)");
    Ok(regressions)
}

/// `spread <results.json>... [--out <file>]`.
pub fn spread(mut args: Vec<String>) -> Result<ExitCode, String> {
    let out = take_flag(&mut args, "--out")?.map(PathBuf::from);
    if args.len() < 2 {
        return Err("spread takes at least two results files".into());
    }
    let docs: Vec<Value> = args.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let mut wide = 0;
    let mut record = Vec::new();
    println!(
        "{:<14} {:<26} {:>16} {:>9} {:>7}  verdict ({} runs)",
        "workload",
        "metric",
        "median",
        "iqr/med",
        "bound",
        docs.len()
    );
    for (workload, first) in fields(&docs[0], "workloads", &args[0])? {
        let mut rows = Vec::new();
        for (name, _) in fields(first, "metrics", &args[0])? {
            // The driver's check: end-to-end metrics, from seed to seed,
            // against the bound of `BENCHMARK.json`.
            let Some(bound) = END_TO_END
                .iter()
                .find(|d| d.name == name)
                .and_then(|d| d.bound)
            else {
                continue;
            };
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|d| metric_value(d.get("workloads")?.get(workload)?, name))
                .collect();
            if values.len() != docs.len() {
                return Err(format!("{workload} {name}: not in every file"));
            }
            let med = median(&values);
            let share = if med == 0.0 { 0.0 } else { iqr_share(&values) };
            let verdict = if share <= bound / 3.0 {
                "steady"
            } else if share <= bound {
                "within bound"
            } else {
                wide += 1;
                "TOO WIDE"
            };
            println!(
                "{workload:<14} {name:<26} {med:>16.6} {:>8.2}% {:>6.1}%  {verdict}",
                share * 100.0,
                bound * 100.0
            );
            rows.push((
                name.clone(),
                Value::Obj(vec![
                    ("median".to_string(), Value::Num(med)),
                    ("iqr_share".to_string(), Value::Num(share)),
                    ("bound".to_string(), Value::Num(bound)),
                ]),
            ));
        }
        record.push((workload.clone(), Value::Obj(rows)));
    }
    if let Some(out) = out {
        let doc = Value::Obj(vec![
            ("runs".to_string(), Value::Num(docs.len() as f64)),
            ("workloads".to_string(), Value::Obj(record)),
        ]);
        std::fs::write(&out, json::render(&doc))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    println!("{wide} metric(s) spread wider than their bound");
    Ok(if wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_shares_of_the_earlier_value() {
        assert!(!regressed(Better::Lower, 0.10, 100.0, 110.0));
        assert!(regressed(Better::Lower, 0.10, 100.0, 110.1));
        assert!(!regressed(Better::Higher, 0.10, 100.0, 90.0));
        assert!(regressed(Better::Higher, 0.10, 100.0, 89.9));
        // A count held at 0 with bound 0: any appearance is a regression.
        assert!(!regressed(Better::Lower, 0.0, 0.0, 0.0));
        assert!(regressed(Better::Lower, 0.0, 0.0, 1.0));
        // Getting better is never one.
        assert!(!regressed(Better::Lower, 0.0, 5.0, 1.0));
        assert!(!regressed(Better::Higher, 0.0, 5.0, 9.0));
    }
}
