//! Runs one workload and turns what it measured into a [`Report`].
//!
//! A run is a number of repetitions. Each repetition sets the workload up
//! from nothing — a fresh world or a fresh fleet — and runs its fixed
//! scenario, slice by slice; set-up and every slice are timed. Repetitions
//! go on until `--seconds` of wall-clock time have gone into them, and a
//! run makes at least the workload's fixed number of them.
//!
//! Repetition `k` is seeded from `--seed` and `k` modulo that fixed number,
//! so a run draws on several generated worlds, always the same ones: a
//! metric then says less about one topology and one choice of members, and
//! two runs of one seed measure the same work however many repetitions the
//! host has time for. Simulated-clock and count metrics are taken over the
//! fixed repetitions only and repeat exactly under a seed.

use std::path::Path;
use std::time::Instant;

use fuse_harness::World;
use fuse_obs::Reservoir;

use crate::alloc;
use crate::host::{Host, NODES};
use crate::ledger::Counts;
use crate::live::LiveLoad;
use crate::metrics::Report;
use crate::procfs;
use crate::refwork::{Reference, NOMINAL_UNIT_S};
use crate::replay;
use crate::simload::{SimKind, SimLoad};
use crate::spans::{self, Name, Tracer};
use crate::stats::{median, Timing};
use crate::traced::TracedWorld;

/// Fixed repetitions of `live_loopback`.
const LIVE_REPS: usize = 2;
/// Slices in one repetition of `live_loopback`.
const LIVE_SLICES: usize = 20;
/// Cycles the in-process replay runs.
const REPLAY_CYCLES: u64 = 2_000;
/// Reference units timed on each side of a set-up or a slice.
const REFERENCE_UNITS: usize = 3;

/// The seed of repetition `rep` of a run seeded `seed` with `fixed`
/// fixed repetitions.
fn rep_seed(seed: u64, rep: usize, fixed: usize) -> u64 {
    seed.wrapping_mul(256).wrapping_add((rep % fixed) as u64)
}

/// Wall-clock time and work of one slice.
#[derive(Debug, Clone, Copy)]
struct Slice {
    wall_s: f64,
    work: f64,
    /// Seconds a reference unit took around this slice.
    unit_s: f64,
}

/// What the repetitions of a run add up to.
struct Totals {
    started: Instant,
    /// Set-up times in reference units counted at [`NOMINAL_UNIT_S`], or as
    /// the wall clock read them where no reference was timed.
    setup_s: Vec<f64>,
    /// Set-up times as the wall clock read them.
    setup_wall_s: Vec<f64>,
    /// Resident set right after the first set-up, MB.
    setup_rss_mb: f64,
    slices: Vec<Slice>,
    /// CPU seconds the program under test spent in the slices.
    cpu_s: f64,
    /// The same in reference units: every repetition's CPU seconds over the
    /// seconds a unit took during it.
    cpu_units: f64,
    peak_rss_mb: f64,
    counts: Counts,
}

impl Totals {
    fn new() -> Self {
        Totals {
            started: Instant::now(),
            setup_s: Vec::new(),
            setup_wall_s: Vec::new(),
            setup_rss_mb: 0.0,
            slices: Vec::new(),
            cpu_s: 0.0,
            cpu_units: 0.0,
            peak_rss_mb: 0.0,
            counts: Counts::default(),
        }
    }

    /// Whether repetition number `rep` is still to run.
    fn goes_on(&self, rep: usize, fixed: usize, seconds: f64) -> bool {
        rep < fixed || self.started.elapsed().as_secs_f64() < seconds
    }

    /// Records a set-up that took `wall_s` while a reference unit took
    /// `unit_s`, if the reference was timed beside it, and left `rss_mb`
    /// resident.
    fn set_up(&mut self, wall_s: f64, unit_s: Option<f64>, rss_mb: f64) {
        if self.setup_s.is_empty() {
            self.setup_rss_mb = rss_mb;
        }
        self.setup_s
            .push(unit_s.map_or(wall_s, |u| wall_s / u * NOMINAL_UNIT_S));
        self.setup_wall_s.push(wall_s);
    }

    /// Records the slices of one repetition, `(wall_s, work)` each, and the
    /// CPU seconds that went into them, while a reference unit took `unit_s`.
    fn add_slices(&mut self, timed: Vec<(f64, f64)>, cpu_s: f64, unit_s: f64) {
        self.slices
            .extend(timed.into_iter().map(|(wall_s, work)| Slice {
                wall_s,
                work,
                unit_s,
            }));
        self.cpu_s += cpu_s;
        self.cpu_units += cpu_s / unit_s;
    }

    fn work(&self) -> f64 {
        self.slices.iter().map(|s| s.work).sum()
    }

    fn add_counts(&mut self, c: Counts) {
        self.counts.attempted += c.attempted;
        self.counts.failed += c.failed;
        self.counts.missed += c.missed;
        self.counts.spurious += c.spurious;
        self.counts.false_positives += c.false_positives;
    }

    /// Median over slices of a rate: a burst from a neighbour on a shared
    /// host slows a few slices, not the median.
    fn median_rate(&self, rate: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(rate).collect::<Vec<_>>())
    }

    /// Work per wall-clock second.
    fn work_per_wall_s(&self) -> f64 {
        self.median_rate(|s| s.work / s.wall_s)
    }

    /// Work per reference unit: every slice's time is counted in the units
    /// timed beside it, so a drift of the whole host, which no median over
    /// one run's slices removes, cancels.
    fn work_per_unit(&self) -> f64 {
        self.median_rate(|s| s.work / (s.wall_s / s.unit_s))
    }

    /// The outcome counts and what every workload reports alike; the caller
    /// adds `work_rate`.
    fn report(&self) -> Report {
        let c = self.counts;
        let mut r = Report {
            attempted: c.attempted,
            failed: c.failed,
            correct: c.failed == 0 && c.missed == 0 && c.spurious == 0,
            ..Report::default()
        };
        r.set_n("setup_s", median(&self.setup_s), self.setup_s.len());
        r.set_n(
            "setup_wall_s",
            median(&self.setup_wall_s),
            self.setup_wall_s.len(),
        );
        r.set("setup_rss_mb", self.setup_rss_mb);
        r.set("peak_rss_mb", self.peak_rss_mb);
        r.set("cpu_us_per_work", self.cpu_s * 1e6 / self.work());
        r.set("cpu_per_work", self.cpu_units / self.work());
        r.set("missed_notifications", c.missed as f64);
        r.set("spurious_notifications", c.spurious as f64);
        r.set(
            "failed_ops_share",
            c.failed as f64 / c.attempted.max(1) as f64,
        );
        r
    }
}

fn set_timing(r: &mut Report, p50: &'static str, p99: &'static str, samples: &[f64]) {
    if let Some(t) = Timing::of(samples) {
        r.set_n(p50, t.p50, t.n);
        // Named p99; a sample too small for it quotes the percentile it
        // does support, and the scenarios are sized so that none is.
        r.set_n(p99, t.tail, t.n);
    }
}

fn sample_self() -> Result<procfs::Sample, String> {
    procfs::sample("self").map_err(|e| format!("cannot read /proc/self: {e}"))
}

/// The simulated-clock and count metrics of the slices of one repetition,
/// or of several added up.
#[derive(Debug, Clone, Default, PartialEq)]
struct SimDetail {
    create_ms: Vec<f64>,
    notify_s: Vec<f64>,
    events: u64,
    msgs: u64,
    bytes: u64,
    sim_s: f64,
    false_positives: u64,
    fingerprint: u64,
}

impl SimDetail {
    fn add(&mut self, other: SimDetail) {
        self.create_ms.extend(other.create_ms);
        self.notify_s.extend(other.notify_s);
        self.events += other.events;
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.sim_s += other.sim_s;
        self.false_positives += other.false_positives;
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
    }
}

/// Where a repetition stood when its slices began.
struct SimMark {
    notifies: usize,
    events: u64,
    msgs: (u64, u64),
    now: fuse_sim::SimTime,
}

impl SimMark {
    fn take<H: Host>(load: &SimLoad<H>) -> Self {
        SimMark {
            notifies: load.ledger.notify_s.len(),
            events: load.host.events_executed(),
            msgs: load.host.msg_totals(),
            now: load.host.now(),
        }
    }

    /// What the slices since the mark added up to.
    fn unclosed<H: Host>(&self, load: &SimLoad<H>) -> Unclosed {
        let (msgs, bytes) = load.host.msg_totals();
        let detail = SimDetail {
            // Every create of the repetition, the standing population's in
            // set-up included: a create costs its caller the same there.
            create_ms: load.ledger.create_ms.clone(),
            notify_s: Vec::new(),
            events: load.host.events_executed() - self.events,
            msgs: msgs - self.msgs.0,
            bytes: bytes - self.msgs.1,
            sim_s: load.host.now().since(self.now).as_secs_f64(),
            false_positives: 0,
            fingerprint: 0,
        };
        Unclosed {
            detail,
            notifies: self.notifies,
        }
    }
}

/// The detail of a repetition whose slices have run and that is still to be
/// closed: messages, events and simulated time are those of the slices.
struct Unclosed {
    detail: SimDetail,
    /// Notification samples the ledger held when the slices began.
    notifies: usize,
}

impl Unclosed {
    /// Closes the repetition, outside the measured time and outside any
    /// trace, and adds what is known only then: every notification since
    /// the slices began and the ledger's verdicts.
    fn close<H: Host>(self, load: &mut SimLoad<H>, totals: &mut Totals) -> SimDetail {
        load.close();
        totals.add_counts(load.ledger.counts);
        SimDetail {
            notify_s: load.ledger.notify_s[self.notifies..].to_vec(),
            false_positives: load.ledger.counts.false_positives,
            fingerprint: load.ledger.fingerprint,
            ..self.detail
        }
    }
}

/// Builds a simulated workload's world and sets it up, timed, with the
/// reference timed before and after.
fn sim_setup<H: Host>(
    kind: SimKind,
    seed: u64,
    totals: &mut Totals,
    reference: &mut Reference,
) -> Result<SimLoad<H>, String> {
    let before = reference.unit_s(REFERENCE_UNITS);
    let t = Instant::now();
    let load = SimLoad::<H>::setup(kind, seed);
    let wall_s = t.elapsed().as_secs_f64();
    let after = reference.unit_s(REFERENCE_UNITS);
    totals.set_up(wall_s, Some((before + after) / 2.0), sample_self()?.rss_mb);
    Ok(load)
}

/// Runs the slices of a repetition, each timed, with the reference timed
/// before each, after the last, and once at every pause a slice offers,
/// with the slice's clock stopped; `slice` runs one, handing the pause on,
/// and returns its work.
fn sim_measure<H: Host>(
    kind: SimKind,
    load: &mut SimLoad<H>,
    totals: &mut Totals,
    reference: &mut Reference,
    mut slice: impl FnMut(&mut SimLoad<H>, usize, &mut dyn FnMut()) -> f64,
) -> Result<Unclosed, String> {
    let mark = SimMark::take(load);
    let cpu0 = sample_self()?.cpu_s;
    let mut units = vec![reference.unit_s(REFERENCE_UNITS)];
    let mut timed = Vec::with_capacity(kind.slices());
    for i in 0..kind.slices() {
        // A crash round lasts seconds and the host's speed changes within
        // one: what the reference read before and after it says little about
        // the time between.
        let mut paused = 0.0;
        let mut pause = || {
            let t = Instant::now();
            units.push(spans::span(Name::Reference, || reference.unit_s(1)));
            paused += t.elapsed().as_secs_f64();
        };
        let t = Instant::now();
        let work = slice(load, i, &mut pause);
        timed.push((t.elapsed().as_secs_f64() - paused, work));
        units.push(reference.unit_s(REFERENCE_UNITS));
    }
    // The reference's own CPU time is in here, the same share in every run.
    let end = sample_self()?;
    // One figure for the repetition: a single reading doubles with one
    // preemption, and the median of a repetition's twenty-odd is steadier
    // than any few of them.
    totals.add_slices(timed, end.cpu_s - cpu0, median(&units));
    totals.peak_rss_mb = totals.peak_rss_mb.max(end.hwm_mb);
    Ok(mark.unclosed(load))
}

fn sim_detail_into(r: &mut Report, kind: SimKind, d: &SimDetail) {
    let ms: Vec<f64> = d.notify_s.iter().map(|s| s * 1e3).collect();
    set_timing(r, "create_ms_p50", "create_ms_p99", &d.create_ms);
    set_timing(r, "notify_ms_p50", "notify_ms_p99", &ms);
    if kind == SimKind::CrashRepair {
        // The same samples under the paper's name and unit (Figure 9).
        set_timing(r, "crash_notify_s_p50", "crash_notify_s_p99", &d.notify_s);
    }
    let node_s = NODES as f64 * d.sim_s;
    r.set("msgs_per_node_s", d.msgs as f64 / node_s);
    r.set("bytes_per_node_s", d.bytes as f64 / node_s);
    r.set("false_positive_groups", d.false_positives as f64);
    r.set("sim.events", d.events as f64);
}

/// The throughputs: `work_rate` against the reference, and the plain
/// wall-clock ones under their own names. `d` is the detail of the
/// fixed repetitions, which says how long a slice is in simulated time.
fn sim_throughput_into(r: &mut Report, kind: SimKind, totals: &Totals, d: &SimDetail) {
    r.set_n("work_rate", totals.work_per_unit(), totals.slices.len());
    let slices = (kind.fixed_reps() * kind.slices()) as f64;
    let node_sim_s = NODES as f64 * d.sim_s / slices;
    let per_s: Vec<f64> = totals
        .slices
        .iter()
        .map(|s| node_sim_s / s.wall_s)
        .collect();
    r.set_n("node_sim_s_per_wall_s", median(&per_s), per_s.len());
    if kind == SimKind::GroupChurn {
        r.set_n("group_cycles_per_s", totals.work_per_wall_s(), per_s.len());
    }
}

/// A simulated workload with tracing off.
pub fn sim_untraced(kind: SimKind, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut totals = Totals::new();
    let mut reference = Reference::new();
    let mut detail = SimDetail::default();
    let mut rep = 0;
    while totals.goes_on(rep, kind.fixed_reps(), seconds) {
        let seed = rep_seed(seed, rep, kind.fixed_reps());
        let mut load = sim_setup::<World>(kind, seed, &mut totals, &mut reference)?;
        let d = sim_measure(
            kind,
            &mut load,
            &mut totals,
            &mut reference,
            |l, _, pause| l.slice(pause),
        )?
        .close(&mut load, &mut totals);
        if rep < kind.fixed_reps() {
            detail.add(d);
        }
        rep += 1;
    }
    let mut r = totals.report();
    sim_detail_into(&mut r, kind, &detail);
    sim_throughput_into(&mut r, kind, &totals, &detail);
    Ok(r)
}

/// The counts kept at the boundaries of a traced world.
#[derive(Clone, Copy)]
enum C {
    OverlayMsgs,
    FuseMsgs,
    FuseBytes,
    WireMsgs,
    WireBytes,
    TwopassNs,
    EncodebufNs,
    DecodeNs,
    RouteHits,
    RouteMisses,
    Breaks,
    Drops,
    BytesOffered,
    BytesDelivered,
    ObsEvents,
    Allocs,
}

/// One reading of every boundary count, or a sum of differences of them.
#[derive(Clone, Copy, Default)]
struct Boundary([u64; 16]);

impl Boundary {
    fn read(w: &TracedWorld) -> Self {
        let procs = w.proc_counts();
        let oracle = w.net().route_oracle_stats();
        let medium = w.sim.medium();
        let mut b = Boundary::default();
        for (c, v) in [
            (C::OverlayMsgs, procs.overlay_msgs),
            (C::FuseMsgs, procs.fuse_msgs),
            (C::FuseBytes, procs.fuse_bytes),
            (C::WireMsgs, procs.wire.msgs),
            (C::WireBytes, procs.wire.bytes),
            (C::TwopassNs, procs.wire.twopass_ns),
            (C::EncodebufNs, procs.wire.encodebuf_ns),
            (C::DecodeNs, procs.wire.decode_ns),
            (C::RouteHits, oracle.hits),
            (C::RouteMisses, oracle.misses),
            (C::Breaks, medium.breaks),
            (C::Drops, medium.drops),
            (C::BytesOffered, w.net().bytes_offered()),
            (C::BytesDelivered, w.net().bytes_delivered()),
            (C::ObsEvents, medium.obs_events),
            (C::Allocs, alloc::calls()),
        ] {
            b.0[c as usize] = v;
        }
        b
    }

    fn add_difference(&mut self, start: &Boundary, end: &Boundary) {
        for (sum, (s, e)) in self.0.iter_mut().zip(start.0.iter().zip(&end.0)) {
            *sum += e - s;
        }
    }

    fn get(&self, c: C) -> f64 {
        self.0[c as usize] as f64
    }
}

/// A simulated workload, traced: the first repetition once with tracing
/// off as the reference, then traced repetitions.
pub fn sim_traced(
    kind: SimKind,
    seed: u64,
    seconds: f64,
    trace_file: &Path,
) -> Result<Report, String> {
    let fixed = kind.fixed_reps();
    let mut host = Reference::new();
    let mut reference = Totals::new();
    let mut load = sim_setup::<World>(kind, rep_seed(seed, 0, fixed), &mut reference, &mut host)?;
    let ref_detail = sim_measure(kind, &mut load, &mut reference, &mut host, |l, _, pause| {
        l.slice(pause)
    })?
    .close(&mut load, &mut reference);
    drop(load);

    let mut totals = Totals::new();
    let mut tracer = Some(Tracer::new());
    let mut detail = SimDetail::default();
    // Kernel events and simulated seconds of every traced repetition, the
    // fixed ones and any the time allowed beyond them.
    let (mut events, mut sim_s) = (0.0, 0.0);
    let mut matches = false;
    let mut pending_peak = 0usize;
    let mut setup_route_misses = 0;
    let mut counts = Boundary::default();
    let mut rep = 0;
    while totals.goes_on(rep, fixed, seconds) {
        let mut load =
            sim_setup::<TracedWorld>(kind, rep_seed(seed, rep, fixed), &mut totals, &mut host)?;
        if rep < fixed {
            setup_route_misses += load.host.net().route_oracle_stats().misses;
        }
        let start = Boundary::read(&load.host);
        spans::install(tracer.take());
        alloc::arm();
        let measured = sim_measure(kind, &mut load, &mut totals, &mut host, |l, i, pause| {
            spans::with(|t| t.set_op(i as u32));
            let work = spans::span(Name::Slice, || {
                let work = l.slice(pause);
                l.host.sim.medium_mut().replay_offered();
                work
            });
            pending_peak = pending_peak.max(l.host.pending_events());
            work
        });
        alloc::disarm();
        tracer = spans::install(None);
        counts.add_difference(&start, &Boundary::read(&load.host));
        let d = measured?.close(&mut load, &mut totals);
        events += d.events as f64;
        sim_s += d.sim_s;
        if rep == 0 {
            matches = d == ref_detail;
        }
        if rep < fixed {
            detail.add(d);
        }
        rep += 1;
    }
    let tracer = tracer.expect("the tracer comes back after every repetition");
    // Counts below are per fixed scenario: sums over every traced
    // repetition, scaled to the fixed ones.
    let reps = rep as f64 / fixed as f64;

    std::fs::write(trace_file, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    // The outcome is everyone's. Wall-clock metrics that are also measured
    // untraced come from the reference repetition: end-to-end numbers are
    // taken with tracing off.
    reference.add_counts(totals.counts);
    let mut r = reference.report();
    sim_detail_into(&mut r, kind, &detail);
    sim_throughput_into(&mut r, kind, &reference, &detail);

    let t = |n| tracer.total(n);
    // The reference is timed inside slices, while their clock is stopped.
    let wall_ns = (t(Name::Slice).ns - t(Name::Reference).ns) as f64;
    let node_s = NODES as f64 * sim_s;
    let mean = |ns: u64, count: u64| ns as f64 / count.max(1) as f64;

    r.set(
        "sim.self_ns_per_event",
        t(Name::SimRun).self_ns as f64 / events,
    );
    r.set("sim.pending_peak", pending_peak as f64);

    let net = t(Name::NetUnicast);
    let lookups = counts.get(C::RouteHits) + counts.get(C::RouteMisses);
    r.set("net.unicast_calls", net.count as f64 / reps);
    r.set("net.unicast_ns_mean", mean(net.ns, net.count));
    r.set("net.busy_share", net.ns as f64 / wall_ns);
    r.set("net.route_misses", counts.get(C::RouteMisses) / reps);
    r.set(
        "net.route_miss_ratio",
        counts.get(C::RouteMisses) / lookups.max(1.0),
    );
    r.set("net.setup_route_misses", setup_route_misses as f64);
    r.set("net.breaks", counts.get(C::Breaks) / reps);
    r.set("net.drops", counts.get(C::Drops) / reps);
    r.set("net.bytes_offered", counts.get(C::BytesOffered) / reps);
    r.set("net.bytes_delivered", counts.get(C::BytesDelivered) / reps);

    let overlay = t(Name::OverlayInput);
    r.set("overlay.inputs", overlay.count as f64 / reps);
    r.set("overlay.input_ns_mean", mean(overlay.ns, overlay.count));
    r.set("overlay.busy_share", overlay.ns as f64 / wall_ns);
    r.set(
        "overlay.msgs_per_node_s",
        counts.get(C::OverlayMsgs) / node_s,
    );

    let (msg, timer, broken, api) = (
        t(Name::CoreInput),
        t(Name::CoreTimer),
        t(Name::LinkBroken),
        t(Name::CoreApi),
    );
    let core_inputs = msg.count + timer.count + broken.count;
    let core_input_ns = msg.ns + timer.ns + broken.ns;
    r.set("core.inputs", core_inputs as f64 / reps);
    r.set("core.input_ns_mean", mean(core_input_ns, core_inputs));
    r.set("core.busy_share", (core_input_ns + api.ns) as f64 / wall_ns);
    r.set("core.timer_inputs", timer.count as f64 / reps);
    r.set("core.api_calls", api.count as f64 / reps);
    r.set("core.api_ns_mean", mean(api.ns, api.count));
    if kind == SimKind::GroupChurn {
        let cycles = totals.work();
        r.set("core.msgs_per_cycle", counts.get(C::FuseMsgs) / cycles);
        r.set("core.bytes_per_cycle", counts.get(C::FuseBytes) / cycles);
        r.set("alloc.per_cycle", counts.get(C::Allocs) / cycles);
    }

    let liveness = t(Name::LivenessInput);
    r.set("liveness.inputs", liveness.count as f64 / reps);
    r.set("liveness.input_ns_mean", mean(liveness.ns, liveness.count));
    r.set("simdriver.link_broken_inputs", broken.count as f64 / reps);
    r.set(
        "harness.self_ns_share",
        t(Name::Slice).self_ns as f64 / wall_ns,
    );

    let sampled = counts.get(C::WireMsgs).max(1.0);
    r.set("wire.encode_ns_per_msg", counts.get(C::TwopassNs) / sampled);
    r.set(
        "wire.encodebuf_ns_per_msg",
        counts.get(C::EncodebufNs) / sampled,
    );
    r.set("wire.decode_ns_per_msg", counts.get(C::DecodeNs) / sampled);
    r.set("wire.bytes_per_msg", counts.get(C::WireBytes) / sampled);

    r.set("obs.events", counts.get(C::ObsEvents) / reps);
    r.set(
        "obs.record_ns_mean",
        t(Name::ObsReplay).ns as f64 / counts.get(C::ObsEvents).max(1.0),
    );
    r.set("alloc.per_event", counts.get(C::Allocs) / events);

    // Same slices, same world: the first traced repetition against the
    // reference one.
    let wall = |s: &[Slice]| median(&s.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let untraced = wall(&reference.slices);
    let traced = wall(&totals.slices[..kind.slices()]);
    r.set("trace.overhead_share", (traced - untraced) / untraced);
    r.set("trace.matches_untraced", f64::from(matches));
    let accounted = net.ns
        + overlay.ns
        + core_input_ns
        + api.ns
        + liveness.ns
        + t(Name::AppInput).ns
        + t(Name::SimRun).self_ns;
    r.set("trace.accounted_share", accounted as f64 / wall_ns);
    Ok(r)
}

/// What the live repetitions add up to beyond [`Totals`].
#[derive(Default)]
struct LiveTotals {
    /// The two halves of every cycle in reference units counted at
    /// [`NOMINAL_UNIT_S`], as `setup_s` is on the simulated workloads:
    /// milliseconds on a host whose unit takes that long.
    create_ms: Vec<f64>,
    notify_ms: Vec<f64>,
    /// Whole cycles as the wall clock read them.
    cycle_ms: Vec<f64>,
    /// Every cycle time in reference units: over the seconds a unit took
    /// during the cycle's repetition.
    cycle_units: Vec<f64>,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    ctx_switches: u64,
    threads: u64,
    rss_mb: f64,
}

fn live_reps(bin: &Path, seed: u64, seconds: f64) -> Result<(Totals, LiveTotals), String> {
    let mut totals = Totals::new();
    let mut lt = LiveTotals::default();
    let mut reference = Reference::new();
    let mut rep = 0;
    while totals.goes_on(rep, LIVE_REPS, seconds) {
        let fleet = |load: &LiveLoad| {
            load.sample()
                .map_err(|e| format!("cannot read the fleet's /proc entries: {e}"))
        };
        let t = Instant::now();
        let mut load = LiveLoad::setup(bin, rep_seed(seed, rep, LIVE_REPS))?;
        let setup_s = t.elapsed().as_secs_f64();
        let before = fleet(&load)?;
        // A second of every live set-up is the warm-up, which is a second
        // on any host: the wall-clock time is the steady one here.
        totals.set_up(setup_s, None, before.rss_mb);
        // One unit a slice: a repetition takes twenty-one readings, and
        // three units would be a third of a slice's own time.
        let mut units = vec![reference.unit_s(1)];
        let mut timed = Vec::with_capacity(LIVE_SLICES);
        for _ in 0..LIVE_SLICES {
            let t = Instant::now();
            let sliced = load.slice();
            let wall_s = t.elapsed().as_secs_f64();
            totals.add_counts(std::mem::take(&mut load.counts));
            match sliced {
                Ok(work) => timed.push((wall_s, work)),
                // An operation failed or timed out, or a node is gone: the
                // client counted it, which makes the run incorrect whatever
                // came before, and the fleet's state is unknown. What the
                // run did measure is reported beside `correct: false`.
                Err(e) => {
                    eprintln!("live_loopback: {e}");
                    return if totals.slices.is_empty() {
                        Err(format!(
                            "live_loopback completed no repetition ({:?})",
                            totals.counts
                        ))
                    } else {
                        Ok((totals, lt))
                    };
                }
            }
            units.push(reference.unit_s(1));
        }
        let unit_s = median(&units);
        let after = fleet(&load)?;
        lt.cpu_user_s += after.cpu_user_s - before.cpu_user_s;
        lt.cpu_sys_s += after.cpu_sys_s - before.cpu_sys_s;
        lt.ctx_switches += after.ctx_switches.saturating_sub(before.ctx_switches);
        lt.threads = after.threads;
        lt.rss_mb = after.rss_mb;
        totals.add_slices(timed, after.cpu_s - before.cpu_s, unit_s);
        totals.peak_rss_mb = totals.peak_rss_mb.max(after.hwm_mb);
        let nominal = |ms: &f64| ms / unit_s * NOMINAL_UNIT_S;
        lt.create_ms.extend(load.create_ms.iter().map(nominal));
        lt.notify_ms.extend(load.notify_ms.iter().map(nominal));
        lt.cycle_units
            .extend(load.cycle_ms.iter().map(|ms| ms / 1e3 / unit_s));
        lt.cycle_ms.append(&mut load.cycle_ms);
        rep += 1;
    }
    Ok((totals, lt))
}

fn live_report(totals: &Totals, lt: &LiveTotals) -> Report {
    let mut r = totals.report();
    let cycles = totals.work();
    // The rate of the median cycle, in cycles per reference unit: thirty
    // threads share two cores with whatever else the host runs, and a cycle
    // that is held up is held up for many times its own length, so the mean
    // moves with every burst and the median does not. The slowest decile is
    // gated beside it under a wider bound, and the fastest is reported: it
    // is the steadiest reading of what the code costs when nothing is in
    // its way.
    let mut units = Reservoir::from_samples(&lt.cycle_units);
    let at = |r: &mut Reservoir, q| r.quantile(q).expect("a repetition completed");
    r.set_n("work_rate", 1.0 / at(&mut units, 0.5), units.len());
    r.set_n("slow_decile_rate", 1.0 / at(&mut units, 0.9), units.len());
    r.set_n(
        "group_cycles_per_s",
        totals.work_per_wall_s(),
        totals.slices.len(),
    );
    set_timing(&mut r, "create_ms_p50", "create_ms_p99", &lt.create_ms);
    set_timing(&mut r, "notify_ms_p50", "notify_ms_p99", &lt.notify_ms);
    set_timing(&mut r, "cycle_ms_p50", "cycle_ms_p99", &lt.cycle_ms);
    let mut cycle_ms = Reservoir::from_samples(&lt.cycle_ms);
    r.set_n("cycle_ms_p10", at(&mut cycle_ms, 0.1), cycle_ms.len());
    r.set("fleet_cpu_ms_per_cycle", totals.cpu_s * 1e3 / cycles);
    r
}

/// `live_loopback` with tracing off.
pub fn live_untraced(bin: &Path, seed: u64, seconds: f64) -> Result<Report, String> {
    let (totals, lt) = live_reps(bin, seed, seconds)?;
    Ok(live_report(&totals, &lt))
}

/// `live_loopback`, traced: nothing inside a node process can be timed from
/// outside, so the per-layer numbers are the fleet's `/proc` accounting and
/// the same cycle replayed in this process under spans.
pub fn live_traced(
    bin: &Path,
    seed: u64,
    seconds: f64,
    trace_file: &Path,
) -> Result<Report, String> {
    let (totals, lt) = live_reps(bin, seed, seconds)?;
    let mut r = live_report(&totals, &lt);
    let cycles = totals.work();
    r.set(
        "node.ctx_switches_per_cycle",
        lt.ctx_switches as f64 / cycles,
    );
    r.set("node.cpu_user_ms_per_cycle", lt.cpu_user_s * 1e3 / cycles);
    r.set("node.cpu_sys_ms_per_cycle", lt.cpu_sys_s * 1e3 / cycles);
    r.set("node.threads", lt.threads as f64);
    r.set("node.rss_mb", lt.rss_mb);

    spans::install(Some(Tracer::new()));
    let allocs0 = alloc::calls();
    alloc::arm();
    let replayed = replay::run(seed, REPLAY_CYCLES);
    alloc::disarm();
    let tracer = spans::install(None).expect("installed above");
    std::fs::write(trace_file, tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    let counts = match replayed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("live_loopback: {e}");
            r.set("trace.matches_untraced", 0.0);
            return Ok(r);
        }
    };
    let n = counts.cycles as f64;
    let handle_us = tracer.total(Name::ReplayHandle).ns as f64 / 1e3 / n;
    let codec_us = tracer.total(Name::ReplayCodec).ns as f64 / 1e3 / n;
    let live_cycle_us = median(&lt.cycle_ms) * 1e3;
    r.set("core.cycle_handle_us", handle_us);
    r.set("wire.cycle_codec_us", codec_us);
    r.set("wire.frames_per_cycle", counts.frames as f64 / n);
    r.set("wire.bytes_per_cycle", counts.bytes as f64 / n);
    r.set(
        "node.driver_us_per_cycle",
        live_cycle_us - handle_us - codec_us,
    );
    r.set("alloc.per_cycle", (alloc::calls() - allocs0) as f64 / n);
    // The replay saw one `Created` and one `Notified` per node in every
    // cycle (or it failed above), which is what the live client checked.
    r.set("trace.matches_untraced", f64::from(r.correct));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(counts: Counts) -> Totals {
        let mut t = Totals::new();
        t.set_up(1.0, None, 10.0);
        t.add_slices(vec![(0.5, 200.0)], 0.1, 0.01);
        t.counts = counts;
        t
    }

    #[test]
    fn a_failed_missed_or_spurious_operation_makes_the_run_incorrect() {
        let ok = Counts {
            attempted: 400,
            ..Counts::default()
        };
        assert!(totals(ok).report().correct);
        for bad in [
            Counts { failed: 1, ..ok },
            Counts { missed: 1, ..ok },
            Counts { spurious: 1, ..ok },
        ] {
            let r = totals(bad).report();
            assert!(!r.correct, "{bad:?}");
            assert_eq!((r.attempted, r.failed), (400, bad.failed));
        }
        // A detector's mistake that reached agreement is not an error.
        assert!(
            totals(Counts {
                false_positives: 2,
                ..ok
            })
            .report()
            .correct
        );
    }

    #[test]
    fn rates_are_stated_in_reference_units() {
        let mut t = totals(Counts::default());
        // Twice as slow a host: the slice takes twice as long and so does
        // the reference beside it.
        t.add_slices(vec![(1.0, 200.0)], 0.2, 0.02);
        t.add_slices(vec![(1.0, 200.0)], 0.2, 0.02);
        assert_eq!(t.work_per_unit(), 4.0);
        assert_eq!(t.work_per_wall_s(), 200.0);
        assert!((t.cpu_units / t.work() - 30.0 / 600.0).abs() < 1e-12);
    }
}
