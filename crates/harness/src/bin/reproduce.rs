//! Regenerates the paper's evaluation (DESIGN.md §3).
//!
//! ```text
//! reproduce [--quick] <name|all>
//! ```
//!
//! Runs the named `fuse_harness::experiments` module (or all of them, in
//! paper order) and prints its `render`: the rows/series the paper reports
//! next to the paper's published values. `--quick` swaps each module's
//! `Params::paper()` for `Params::quick()`; CI runs `reproduce --quick all`
//! as a smoke. Each experiment's `[wall time: …]` goes to stderr, so the
//! stdout of one tree is the same bytes on every run.

use std::process::ExitCode;
use std::time::Instant;

use fuse_harness::experiments::{ablation, fig7_creation, svtree_census};
use fuse_net::NetConfig;

/// One regeneration target: the `experiments` module it runs (also its
/// command-line name), the banner title, and the runner (`true` = quick).
struct Experiment {
    module: &'static str,
    title: &'static str,
    run: fn(bool),
}

/// The plain shape most modules share: pick the scale, run, print the
/// render. `$borrow` is `&` or `&mut`, whichever the module's `render`
/// takes.
macro_rules! plain {
    ($module:ident, $($borrow:tt)+) => {
        |quick| {
            use fuse_harness::experiments::$module::{render, run, Params};
            let p = if quick { Params::quick() } else { Params::paper() };
            println!("{}", render($($borrow)+ run(&p)));
        }
    };
}

/// Every module declared in `experiments/mod.rs`, in paper order (the unit
/// test below holds the two lists together).
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        module: "fig6_rpc",
        title: "Figure 6 - RPC calibration",
        run: plain!(fig6_rpc, &),
    },
    Experiment {
        module: "fig7_creation",
        title: "Figure 7 - group creation latency",
        run: fig7,
    },
    Experiment {
        module: "fig8_notification",
        title: "Figure 8 - signaled notification latency",
        run: plain!(fig8_notification, &mut),
    },
    Experiment {
        module: "fig9_crash",
        title: "Figure 9 - crash notification latency",
        run: plain!(fig9_crash, &),
    },
    Experiment {
        module: "fig10_churn",
        title: "Figure 10 - churn message load",
        run: plain!(fig10_churn, &),
    },
    Experiment {
        module: "fig11_route_loss",
        title: "Figure 11 - per-route loss CDFs",
        run: plain!(fig11_route_loss, &),
    },
    Experiment {
        module: "fig12_loss_failures",
        title: "Figure 12 - loss-induced group failures",
        run: plain!(fig12_loss_failures, &),
    },
    Experiment {
        module: "steady_state",
        title: "Section 7.5 - steady-state load",
        run: plain!(steady_state, &),
    },
    Experiment {
        module: "svtree_census",
        title: "Section 4 table - SV-tree group census",
        run: census,
    },
    Experiment {
        module: "ablation",
        title: "Section 5.1 ablation - liveness topologies",
        run: ablation_and_bound,
    },
];

/// Figure 7 under both emulation profiles, plus the 16,000-node scaling
/// check at paper scale.
fn fig7(quick: bool) {
    use fig7_creation::{render, run, Params};
    let mut p = if quick {
        Params::quick()
    } else {
        Params::paper()
    };
    let mut r = run(&p);
    println!("cluster profile, n={}:\n{}", p.n, render(&mut r));

    p.net = NetConfig::simulator();
    let mut r = run(&p);
    println!(
        "simulator profile, n={} (paper: ~half the cluster latency):\n{}",
        p.n,
        render(&mut r)
    );

    if !quick {
        p.n = 16_000;
        p.groups_per_size = 10;
        let mut r = run(&p);
        println!(
            "simulator profile, n=16000 (paper: identical to n=400 - creation is direct):\n{}",
            render(&mut r)
        );
    }
}

/// The §4 census with all, a quarter and none of the nodes volunteering.
fn census(quick: bool) {
    use svtree_census::{render, run, Params};
    let mut p = if quick {
        Params::quick()
    } else {
        Params::paper()
    };
    println!("with volunteers (the SV design):\n{}", render(&run(&p)));
    if !quick {
        p.grid.truncate(2);
    }
    p.volunteer_fraction = 0.25;
    println!(
        "with 25% volunteers (paper's 2.9-member mean sits in this regime):\n{}",
        render(&run(&p))
    );
    p.volunteer_fraction = 0.0;
    println!(
        "without volunteers (bypass sets grow to full route prefixes):\n{}",
        render(&run(&p))
    );
}

/// The §5.1 ablation plus the §3 all-to-all detection bound.
fn ablation_and_bound(quick: bool) {
    use ablation::{detection_bound, render, run, Params};
    let p = if quick {
        Params::quick()
    } else {
        Params::paper()
    };
    println!("{}", render(&run(&p)));

    let seeds = if quick { 4 } else { 16 };
    let mut lat = detection_bound(seeds, 6);
    println!(
        "all-to-all crash detection (s): median {:.1}  p90 {:.1}  max {:.1}  bound(2x interval + timeout) = 140.0",
        lat.median().unwrap_or(f64::NAN),
        lat.quantile(0.9).unwrap_or(f64::NAN),
        lat.max().unwrap_or(f64::NAN),
    );
}

fn usage() -> ExitCode {
    eprintln!("usage: reproduce [--quick] <name|all>\n\nnames:");
    for e in EXPERIMENTS {
        eprintln!("  {:<20} {}", e.module, e.title);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut name = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(),
        }
    }
    let Some(name) = name else {
        return usage();
    };
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|e| name == "all" || name == e.module)
        .collect();
    if selected.is_empty() {
        eprintln!("reproduce: no experiment named `{name}`");
        return usage();
    }
    let scale = if quick { "quick" } else { "paper" };
    for e in selected {
        println!("==== {} (scale: {scale}) ====", e.title);
        let start = Instant::now();
        (e.run)(quick);
        eprintln!("[wall time: {:.2}s]", start.elapsed().as_secs_f64());
        println!();
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn table_covers_every_declared_experiment_module() {
        let declared: Vec<&str> = include_str!("../experiments/mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        assert!(!declared.is_empty(), "no `pub mod` lines found");
        let mut table: Vec<&str> = EXPERIMENTS.iter().map(|e| e.module).collect();
        for module in &declared {
            assert!(
                table.contains(module),
                "experiments::{module} has no entry in reproduce's table"
            );
        }
        table.sort_unstable();
        table.dedup();
        assert_eq!(table.len(), declared.len(), "stale or duplicate entry");
    }
}
