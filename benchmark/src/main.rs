//! The repository's benchmark: four workloads from the paper's evaluation,
//! measured end to end with tracing off and layer by layer in a separate
//! traced run. `BENCHMARK.json` at the repository root is its contract;
//! `README.md` beside this crate says why each workload and metric is here.
//!
//! ```text
//! fuse_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fuse_benchmark run     [--seed <n>] [--seconds <s>] [--out <file>]
//!                        [--against <earlier.json>]
//! fuse_benchmark trace   [--seed <n>] [--seconds <s>] [--out <file>]
//! fuse_benchmark compare <earlier.json> <later.json>
//! fuse_benchmark spread  <results.json>... [--out <file>]
//! ```

mod alloc;
mod compare;
mod host;
mod ledger;
mod live;
mod metrics;
mod procfs;
mod refwork;
mod replay;
mod run;
mod simload;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use fuse_obs::json::{self, Value};

use metrics::{to_line, Report, END_TO_END, PER_LAYER};
use simload::SimKind;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "steady_ping",
    "group_churn",
    "crash_repair",
    "live_loopback",
];

/// `run_seconds` of `BENCHMARK.json`: what `run` and `trace` measure for
/// when not told otherwise.
const DEFAULT_SECONDS: f64 = 12.0;

/// Marks the line on which a workload's process hands every metric it
/// measured, sample counts included, to a `run` or `trace` parent.
const DETAIL_PREFIX: &str = "DETAIL ";

/// Where results and trace files go: `out/` beside this crate's manifest.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Pulls `--name value` out of `args`; `Ok(None)` when the flag is absent.
fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    args.remove(i);
    Ok(Some(args.remove(i)))
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match take_flag(args, name)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for {name}: {v:?}")),
        None => Ok(default),
    }
}

/// Runs one workload in this process.
fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let kind = match workload {
        "steady_ping" => Some(SimKind::SteadyPing),
        "group_churn" => Some(SimKind::GroupChurn),
        "crash_repair" => Some(SimKind::CrashRepair),
        "live_loopback" => None,
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    // Every run makes sure the node binary is built, whatever its workload:
    // only the first run in a checkout is allowed the time a build takes.
    let node = live::build_node()?;
    let trace_file = out_dir()?.join(format!("trace-{workload}.jsonl"));
    match (kind, trace) {
        (Some(kind), false) => run::sim_untraced(kind, seed, seconds),
        (Some(kind), true) => run::sim_traced(kind, seed, seconds, &trace_file),
        (None, false) => run::live_untraced(&node, seed, seconds),
        (None, true) => run::live_traced(&node, seed, seconds, &trace_file),
    }
}

/// The contract's entry point: one workload, the result as the last line.
fn contract(mut args: Vec<String>) -> Result<ExitCode, String> {
    let workload = take_flag(&mut args, "--workload")?.ok_or("--workload is required")?;
    let seed: u64 = parse_flag(&mut args, "--seed", 1)?;
    let seconds: f64 = parse_flag(&mut args, "--seconds", DEFAULT_SECONDS)?;
    let trace = match parse_flag(&mut args, "--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let report = run_workload(&workload, seed, seconds, trace)?;
    println!("{workload} seed {seed} trace {}", u8::from(trace));
    print!("{}", report.human());
    println!("{DETAIL_PREFIX}{}", to_line(&report.detail_json()));
    let list = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", to_line(&report.result_json(list)));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{workload}: an operation failed, or a notification was missed or spurious");
        ExitCode::FAILURE
    })
}

/// `run` and `trace`: every workload, each in a fresh child process, so no
/// workload inherits another's heap, page cache of routes or peak memory.
/// With `--against`, the results are then held against an earlier file as
/// `compare` would, so one command runs, checks and gates.
fn run_all(mut args: Vec<String>, trace: bool) -> Result<ExitCode, String> {
    let against = take_flag(&mut args, "--against")?;
    let seed: u64 = parse_flag(&mut args, "--seed", 1)?;
    let seconds: f64 = parse_flag(&mut args, "--seconds", DEFAULT_SECONDS)?;
    let default_out = out_dir()?.join(if trace {
        "trace-results.json"
    } else {
        "results.json"
    });
    let out = take_flag(&mut args, "--out")?.map_or(default_out, PathBuf::from);
    if !args.is_empty() {
        return Err(format!("unexpected arguments {args:?}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut detail = None;
        for line in stdout.lines() {
            match line.strip_prefix(DETAIL_PREFIX) {
                Some(d) => detail = Some(d.to_string()),
                // The bare result line is for the driver; here the detail
                // says the same and more.
                None if line.starts_with('{') => {}
                None => println!("{line}"),
            }
        }
        all_ok &= output.status.success();
        match detail.map(|d| json::parse(&d)) {
            Some(Ok(v)) => workloads.push((w.to_string(), v)),
            Some(Err(e)) => return Err(format!("{w} printed an unreadable detail line: {e}")),
            None => {
                eprintln!("{w} produced no result ({})", output.status);
                all_ok = false;
            }
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::Obj(vec![
        ("seed".to_string(), Value::Num(seed as f64)),
        ("seconds".to_string(), Value::Num(seconds)),
        ("trace".to_string(), Value::Bool(trace)),
        (
            "host_parallelism".to_string(),
            Value::Num(parallelism as f64),
        ),
        ("workloads".to_string(), Value::Obj(workloads)),
    ]);
    std::fs::write(&out, json::render(&doc))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if let Some(earlier) = against {
        all_ok &= compare::regressions(&earlier, &out.to_string_lossy())? == 0;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(args.split_off(1), false),
        Some("trace") => run_all(args.split_off(1), true),
        Some("compare") => compare::compare(&args[1..]),
        Some("spread") => compare::spread(args.split_off(1)),
        _ => contract(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("fuse_benchmark: {e}");
        ExitCode::from(2)
    })
}
