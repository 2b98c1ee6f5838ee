//! Process accounting read from `/proc`: CPU time, context switches, thread
//! count and resident memory of this process or of a node process.

use std::fs;
use std::io;

/// Clock ticks per second of the times in `/proc/<pid>/stat`: `USER_HZ`,
/// which Linux fixes at 100 on every architecture it reports them for.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// User-mode time, in ticks.
    pub utime: u64,
    /// Kernel-mode time, in ticks.
    pub stime: u64,
    /// Threads in the process.
    pub threads: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name is in parentheses
/// and may itself hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15,
    // num_threads 20.
    Some(Stat {
        utime: fields.get(11)?.parse().ok()?,
        stime: fields.get(12)?.parse().ok()?,
        threads: fields.get(17)?.parse().ok()?,
    })
}

/// The fields of a `status` file the benchmark uses. A field the file does
/// not have reads as 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set, kB (process-wide).
    pub vm_hwm_kb: u64,
    /// Resident set, kB (process-wide).
    pub vm_rss_kb: u64,
    /// Voluntary plus involuntary context switches of the one task the file
    /// describes.
    pub ctx_switches: u64,
}

/// Parses `/proc/<pid>/status` or `/proc/<pid>/task/<tid>/status`.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => s.vm_hwm_kb = number(),
            "VmRSS" => s.vm_rss_kb = number(),
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => s.ctx_switches += number(),
            _ => {}
        }
    }
    s
}

/// One reading of a process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// CPU seconds so far, summed over the threads alive now: the
    /// scheduler's nanosecond run time where the kernel keeps it
    /// (`schedstat`), else user plus kernel ticks.
    pub cpu_s: f64,
    /// User-mode CPU seconds so far, to the tick.
    pub cpu_user_s: f64,
    /// Kernel-mode CPU seconds so far, to the tick.
    pub cpu_sys_s: f64,
    /// Context switches so far, summed over the threads alive now.
    pub ctx_switches: u64,
    /// Threads alive now.
    pub threads: u64,
    /// Resident set now, MB.
    pub rss_mb: f64,
    /// Peak resident set, MB.
    pub hwm_mb: f64,
}

/// Nanoseconds on a CPU, the first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads process `pid` (`"self"` for this one).
pub fn sample(pid: &str) -> io::Result<Sample> {
    let stat = parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat"))?)
        .ok_or_else(|| invalid("unparseable /proc stat line"))?;
    let status = parse_status(&fs::read_to_string(format!("/proc/{pid}/status"))?);
    let mut ctx_switches = 0;
    let mut run_ns = None;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between the listing and the read.
        let dir = task?.path();
        if let Ok(text) = fs::read_to_string(dir.join("status")) {
            ctx_switches += parse_status(&text).ctx_switches;
        }
        if let Some(ns) = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            *run_ns.get_or_insert(0) += ns;
        }
    }
    let ticks_s = (stat.utime + stat.stime) as f64 / TICKS_PER_S;
    Ok(Sample {
        cpu_s: run_ns.map_or(ticks_s, |ns| ns as f64 / 1e9),
        cpu_user_s: stat.utime as f64 / TICKS_PER_S,
        cpu_sys_s: stat.stime as f64 / TICKS_PER_S,
        ctx_switches,
        threads: stat.threads,
        rss_mb: status.vm_rss_kb as f64 / 1024.0,
        hwm_mb: status.vm_hwm_kb as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (fuse) node (x)) S 1 4242 4242 0 -1 4194304 159 0 0 0 \
                    37 12 0 0 20 0 11 0 123456 10000000 500 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                utime: 37,
                stime: 12,
                threads: 11
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn status_fields_are_found_by_name() {
        let text = "Name:\tfuse-node\nVmHWM:\t    5120 kB\nVmRSS:\t    4096 kB\n\
                    Threads:\t11\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 5120,
                vm_rss_kb: 4096,
                ctx_switches: 123
            }
        );
        assert_eq!(parse_status("garbage\n"), Status::default());
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat("514710661 1354575 28\n"), Some(514_710_661));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn this_process_can_be_sampled() {
        let s = sample("self").expect("/proc/self is readable");
        assert!(s.threads >= 1 && s.hwm_mb >= s.rss_mb && s.rss_mb > 0.0);
    }
}
