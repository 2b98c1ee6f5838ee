//! `fuse-load` — the live-TCP load harness CLI.
//!
//! Two modes:
//!
//! * **Load** (default): spawn an N-node `fuse-node` fleet, each node
//!   behind its own fault proxy, run the scripted fault rounds and print
//!   the per-class latency table.
//! * **Replay** (`--replay <token>`): replay a `chaos-v1;…` repro token
//!   against live processes and cross-check the simulated outcome.
//!
//! Exit status: 0 when every class met the budget (load) or the replay
//! cross-check held; 1 otherwise; 2 on usage errors.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use fuse_load::cluster::{fast_timing_args, fast_timings};
use fuse_load::scenario::{plan, FaultClass, ScenarioParams};
use fuse_load::{live, replay, Cluster, LoadReport};

const USAGE: &str = "\
fuse-load: drive a live fuse-node fleet over TCP through fault rounds

USAGE:
    fuse-load [OPTIONS]

OPTIONS:
    --node-bin <PATH>    fuse-node binary (default: FUSE_NODE_BIN env, else
                         target-dir sibling of this binary)
    --nodes <N>          fleet size (default 10; paper scale; >= 4)
    --groups <G>         concurrent groups per round (default 5; <= N)
    --rounds <R>         rounds per fault class (default 4)
    --classes <LIST>     comma list of kill,sever,signal (default all)
    --seed <U64>         plan + proxy seed (default 1)
    --budget-secs <S>    fault->last-notified SLO (default 480)
    --delay-ms <MS>      ambient one-way delay on every link (default 0)
    --loss-pct <P>       ambient per-frame loss percent (default 0; < 100)
    --replay <TOKEN>     replay a chaos-v1 token instead of the load run
    --time-scale <F>     compress replay op offsets by this factor (default 1)
    --max-wait-secs <S>  cap the replay notification wait (default 120)
    --fast               run nodes and the simulator reference with
                         compressed detection timers (ping 2s, link timeout
                         8s, repairs 5s/10s) so faults resolve in seconds
                         instead of paper-default minutes
    --help               print this text

OUTPUT:
    A per-class table (samples, misses, p50/p99/p999/max ms, sim p50,
    sim misses, budget verdict) on stdout; the simulator reference runs
    the identical plan.
";

struct Opts {
    node_bin: Option<PathBuf>,
    params: ScenarioParams,
    classes: Vec<FaultClass>,
    replay: Option<String>,
    time_scale: f64,
    max_wait: Duration,
    fast: bool,
}

fn usage_err(msg: &str) -> ! {
    eprintln!("fuse-load: {msg}\n\n{USAGE}");
    exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        node_bin: None,
        params: ScenarioParams::paper_scale(1),
        classes: FaultClass::all().to_vec(),
        replay: None,
        time_scale: 1.0,
        max_wait: Duration::from_secs(120),
        fast: false,
    };
    let mut args = std::env::args().skip(1);
    let next = |name: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next()
            .unwrap_or_else(|| usage_err(&format!("{name} needs a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--node-bin" => opts.node_bin = Some(PathBuf::from(next("--node-bin", &mut args))),
            "--nodes" => opts.params.nodes = parse_num(&next("--nodes", &mut args), "--nodes"),
            "--groups" => opts.params.groups = parse_num(&next("--groups", &mut args), "--groups"),
            "--rounds" => opts.params.rounds = parse_num(&next("--rounds", &mut args), "--rounds"),
            "--seed" => opts.params.seed = parse_num(&next("--seed", &mut args), "--seed"),
            "--budget-secs" => {
                opts.params.budget = Duration::from_secs(parse_num(
                    &next("--budget-secs", &mut args),
                    "--budget-secs",
                ))
            }
            "--delay-ms" => {
                opts.params.delay_ms = parse_num(&next("--delay-ms", &mut args), "--delay-ms")
            }
            "--loss-pct" => {
                opts.params.loss_pct = parse_num(&next("--loss-pct", &mut args), "--loss-pct")
            }
            "--classes" => {
                let list = next("--classes", &mut args);
                opts.classes = list
                    .split(',')
                    .map(|s| FaultClass::parse(s.trim()).unwrap_or_else(|e| usage_err(&e)))
                    .collect();
            }
            "--fast" => opts.fast = true,
            "--replay" => opts.replay = Some(next("--replay", &mut args)),
            "--time-scale" => {
                let v = next("--time-scale", &mut args);
                opts.time_scale = v
                    .parse()
                    .unwrap_or_else(|_| usage_err("--time-scale needs a float"));
            }
            "--max-wait-secs" => {
                opts.max_wait = Duration::from_secs(parse_num(
                    &next("--max-wait-secs", &mut args),
                    "--max-wait-secs",
                ))
            }
            other => usage_err(&format!("unknown argument `{other}`")),
        }
    }
    if let Err(e) = opts.params.check() {
        usage_err(&e);
    }
    opts
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage_err(&format!("{name}: bad number `{s}`")))
}

/// Locates the `fuse-node` binary: explicit flag, then `FUSE_NODE_BIN`,
/// then a sibling of this executable in the same target directory.
fn find_node_bin(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(p) = explicit {
        return p;
    }
    if let Ok(p) = std::env::var("FUSE_NODE_BIN") {
        return PathBuf::from(p);
    }
    if let Ok(me) = std::env::current_exe() {
        if let Some(dir) = me.parent() {
            let sib = dir.join("fuse-node");
            if sib.exists() {
                return sib;
            }
        }
    }
    usage_err("cannot find fuse-node: pass --node-bin or set FUSE_NODE_BIN")
}

fn main() {
    let opts = parse_opts();
    let node_bin = find_node_bin(opts.node_bin.clone());
    if !node_bin.exists() {
        usage_err(&format!(
            "node binary {} does not exist",
            node_bin.display()
        ));
    }

    let node_args = if opts.fast {
        fast_timing_args()
    } else {
        Vec::new()
    };

    if let Some(token) = &opts.replay {
        match replay::replay_token(
            token,
            node_bin,
            opts.time_scale,
            opts.max_wait,
            &node_args,
            |line| println!("{line}"),
        ) {
            Ok(out) => {
                println!(
                    "replay: sim_burned={} live_all_notified={} consistent={}",
                    out.sim_burned, out.live_all_notified, out.consistent
                );
                for (node, reason) in &out.live_notified {
                    println!("  node {node}: NOTIFIED reason={reason}");
                }
                exit(if out.consistent { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("fuse-load: replay failed: {e}");
                exit(1);
            }
        }
    }

    let p = &opts.params;
    let rounds = plan(p, &opts.classes);
    println!(
        "fuse-load: N={} groups={} rounds/class={} classes={:?} seed={}",
        p.nodes,
        p.groups,
        p.rounds,
        opts.classes.iter().map(|c| c.label()).collect::<Vec<_>>(),
        p.seed
    );

    println!("sim reference: running the identical plan in the simulator…");
    let timings = if opts.fast {
        fast_timings()
    } else {
        Default::default()
    };
    let mut sim = live::sim_fleet(p, timings);
    let Ok(sim_samples) = live::run_rounds(&mut sim, p, &rounds, |_| {});

    println!("live: launching {} nodes + {} proxies…", p.nodes, p.nodes);
    let mut cluster = match Cluster::launch(p.nodes, node_bin, p.seed, &node_args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuse-load: launch failed: {e}");
            exit(1);
        }
    };
    live::condition_links(&cluster, p);
    let live_samples = match live::run_rounds(&mut cluster, p, &rounds, |line| {
        println!("live: {line}");
    }) {
        Ok(s) => s,
        Err(e) => {
            cluster.shutdown();
            eprintln!("fuse-load: run failed: {e}");
            exit(1);
        }
    };
    cluster.shutdown();

    let report = LoadReport::assemble(p.clone(), &live_samples, &sim_samples);
    print!("{}", report.render());

    exit(if report.within_budget() { 0 } else { 1 });
}
