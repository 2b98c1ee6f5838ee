//! Chaos explorer CLI.
//!
//! ```text
//! chaos explore [--scripts N] [--seed S] [--n NODES] [--group K] [--out FILE]
//!               [--slo] [--slo-budget-s SECS]
//! chaos replay <token>
//! ```
//!
//! `explore` generates N scripts from the seed, runs each in a fresh
//! deterministic world and checks the paper's invariants. On the first
//! violation it shrinks the script to a minimal repro, prints both replay
//! tokens, writes the shrunk token to `--out` (default `CHAOS_REPRO.txt`,
//! gitignored) and exits 1 — so a CI failure line carries everything
//! needed to reproduce locally.
//!
//! `replay` parses a token and re-executes it bit-identically, printing
//! the report and trace fingerprint. The token carries everything that
//! shapes the run, so no flag is needed to reproduce what `explore` found.
//!
//! `--slo` folds every clean run's observation-plane aggregates (the
//! [`fuse_obs`] recorder plane the stacks and the network emit into) into
//! one `chaos_slo` document printed to stdout, and checks the per-phase
//! notification-latency reservoirs against the paper's 480 s detection
//! budget (`--slo-budget-s` overrides, for injecting a violation). A kill
//! notification past the budget exits 1, like an invariant violation.

use std::process::ExitCode;

use fuse_harness::chaos::{explore, parse_token, run_script, ExploreParams, RunReport};
use fuse_obs::json::{self, Value};
use fuse_obs::Aggregates;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         chaos explore [--scripts N] [--seed S] [--n NODES] [--group K] \
         [--out FILE] [--slo] [--slo-budget-s SECS]\n  \
         chaos replay <token>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => usage(),
    }
}

fn print_report(report: &RunReport) {
    println!(
        "  burned={} events={} end={:.1}s fingerprint={:016x}",
        report.burned,
        report.events_executed,
        report.end.nanos() as f64 / 1e9,
        report.fingerprint
    );
    println!("  notified: {:?}", report.notified);
    for v in &report.violations {
        println!("  VIOLATION {v}");
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let mut scripts = 50usize;
    let mut seed = 1u64;
    let mut n = 24usize;
    let mut group: Option<usize> = None;
    let mut out = String::from("CHAOS_REPRO.txt");
    let mut slo = false;
    let mut slo_budget_s = 480u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v
        };
        match a.as_str() {
            "--scripts" => match val("--scripts").and_then(|v| v.parse().ok()) {
                Some(v) => scripts = v,
                None => return usage(),
            },
            "--seed" => match val("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--n" => match val("--n").and_then(|v| v.parse().ok()) {
                Some(v) => n = v,
                None => return usage(),
            },
            "--group" => match val("--group").and_then(|v| v.parse().ok()) {
                Some(v) => group = Some(v),
                None => return usage(),
            },
            "--out" => match val("--out") {
                Some(v) => out = v,
                None => return usage(),
            },
            "--slo" => slo = true,
            "--slo-budget-s" => match val("--slo-budget-s").and_then(|v| v.parse().ok()) {
                Some(v) => slo_budget_s = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let mut params = ExploreParams::new(seed, scripts);
    params.n = n;
    params.group_size = group;
    println!("chaos explore: {scripts} scripts, base seed {seed}, {n}-node worlds");
    let mut ran = 0usize;
    let mut slo_agg = Aggregates::default();
    match explore(&params, |i, r| {
        ran += 1;
        if slo {
            slo_agg.merge_from(&r.obs);
        }
        if (i + 1) % 10 == 0 {
            println!(
                "  [{}/{}] clean so far (last: burned={} events={})",
                i + 1,
                scripts,
                r.burned,
                r.events_executed
            );
        }
    }) {
        Ok(count) => {
            println!("chaos explore: {count} scripts, all invariants held");
            if slo {
                return emit_slo(&mut slo_agg, count, n, slo_budget_s);
            }
            ExitCode::SUCCESS
        }
        Err(fail) => {
            println!(
                "chaos explore: INVARIANT VIOLATION at script {} (after {} clean)",
                fail.index, ran
            );
            println!("original script token:\n  {}", fail.token);
            print_report(&fail.report);
            println!(
                "shrunk to {} phase(s):\n  {}",
                fail.shrunk_phases, fail.shrunk_token
            );
            print_report(&fail.shrunk_report);
            println!("replay with:\n  chaos replay '{}'", fail.shrunk_token);
            if let Err(e) = std::fs::write(&out, format!("{}\n", fail.shrunk_token)) {
                eprintln!("could not write {out}: {e}");
            } else {
                println!("shrunk token written to {out}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Renders the folded aggregates as the `chaos_slo` document section:
/// per-provoking-phase notification-latency percentiles (seconds) and the
/// transport's byte accounting.
///
/// `within_budget` is the headline detection claim: every kill-provoked
/// notification (latency measured from the crash that provoked it, on
/// never-crashed participants) landed within the budget. 1.0 when no
/// kill phase produced samples — vacuously met, never silently failed.
fn slo_section(agg: &mut Aggregates, scripts: usize, n: usize, budget_s: u64) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("scripts".into(), Value::Num(scripts as f64)),
        ("n".into(), Value::Num(n as f64)),
        ("budget_s".into(), Value::Num(budget_s as f64)),
        (
            "notifications".into(),
            Value::Num(agg.notify_log.len() as f64),
        ),
        ("bytes_offered".into(), Value::Num(agg.bytes_offered as f64)),
        (
            "bytes_delivered".into(),
            Value::Num(agg.bytes_delivered as f64),
        ),
    ];
    let kill = agg.latency.get_mut("kill");
    let (kill_p50, kill_p99, kill_p999, kill_max) = match kill {
        Some(r) if !r.is_empty() => (
            r.quantile(0.50).unwrap_or(0.0),
            r.quantile(0.99).unwrap_or(0.0),
            r.quantile(0.999).unwrap_or(0.0),
            r.max().unwrap_or(0.0),
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    fields.push(("kill_p50_s".into(), Value::Num(kill_p50)));
    fields.push(("kill_p99_s".into(), Value::Num(kill_p99)));
    fields.push(("kill_p999_s".into(), Value::Num(kill_p999)));
    fields.push(("kill_max_s".into(), Value::Num(kill_max)));
    fields.push((
        "within_budget".into(),
        Value::Num(if kill_max <= budget_s as f64 {
            1.0
        } else {
            0.0
        }),
    ));
    let mut phases: Vec<(String, Value)> = Vec::new();
    for (class, res) in &agg.latency {
        let mut r = res.clone();
        phases.push((
            (*class).into(),
            Value::Obj(vec![
                ("samples".into(), Value::Num(r.len() as f64)),
                ("p50_s".into(), Value::Num(r.quantile(0.50).unwrap_or(0.0))),
                ("p99_s".into(), Value::Num(r.quantile(0.99).unwrap_or(0.0))),
                (
                    "p999_s".into(),
                    Value::Num(r.quantile(0.999).unwrap_or(0.0)),
                ),
                ("max_s".into(), Value::Num(r.max().unwrap_or(0.0))),
            ]),
        ));
    }
    fields.push(("phases".into(), Value::Obj(phases)));
    for (key, counter) in [
        ("offered_by_class", &agg.offered_by_class),
        ("delivered_by_class", &agg.delivered_by_class),
        ("drops_by_class", &agg.drops_by_class),
    ] {
        let block: Vec<(String, Value)> = counter
            .iter()
            .map(|(class, v)| (class.into(), Value::Num(v as f64)))
            .collect();
        fields.push((key.into(), Value::Obj(block)));
    }
    Value::Obj(fields)
}

/// Prints the `chaos_slo` section and verdict. This tool measures
/// `within_budget`, so it owns the verdict: an SLO miss exits 1.
fn emit_slo(agg: &mut Aggregates, scripts: usize, n: usize, budget_s: u64) -> ExitCode {
    let section = slo_section(agg, scripts, n, budget_s);
    let kill_p99 = section
        .get("kill_p99_s")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let within = within_budget(&section);
    println!(
        "chaos slo: kill p99 {kill_p99:.1}s against a {budget_s}s budget — {}",
        if within { "within budget" } else { "SLO MISS" }
    );
    println!("{}", json::render(&section));
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whether a `chaos_slo` section reports every kill notification inside
/// the budget.
fn within_budget(section: &Value) -> bool {
    section.get("within_budget").and_then(Value::as_f64) == Some(1.0)
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let [token] = args else {
        return usage();
    };
    let (cfg, script) = match parse_token(token) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad token: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "chaos replay: seed={} n={} gs={} phases={}",
        cfg.seed,
        cfg.n,
        cfg.group_size,
        script.phases.len()
    );
    let report = run_script(&cfg, &script);
    print_report(&report);
    if report.violations.is_empty() {
        println!("replay: all invariants held");
        ExitCode::SUCCESS
    } else {
        println!("replay: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict `--slo` exits by, on the first pinned CI smoke scripts:
    /// kills are detected in tens of seconds, so the paper's 480 s budget
    /// holds and a 1 s budget cannot.
    #[test]
    fn slo_verdict_follows_the_budget() {
        let params = ExploreParams::new(20260730, 4);
        let mut agg = Aggregates::default();
        let ran = explore(&params, |_, r| agg.merge_from(&r.obs)).expect("invariants hold");
        let kills = agg.latency.get_mut("kill").map_or(0, |r| r.len());
        assert!(kills > 0, "the scripts must provoke kill notifications");
        assert!(within_budget(&slo_section(&mut agg, ran, params.n, 480)));
        assert!(!within_budget(&slo_section(&mut agg, ran, params.n, 1)));
    }
}
