//! The traced pass (`--trace 1`): per-layer numbers taken from outside the
//! program. Simulated counts come from [`CountingProbe`] attached to the
//! very simulations a workload's op runs; host costs come from timing the
//! same simulations untraced and from the layer-replay microbenchmarks in
//! [`crate::micro`]. Nothing here feeds the end-to-end metrics.

use std::path::Path;
use std::sync::Arc;

use spiffi_core::wire::{self, JobRecord};
use spiffi_core::{
    Engine, JournalSnapshot, LibraryCache, PhaseKind, ProcessConfig, ProcessPool, SnapshotMode,
    SystemConfig, VodSystem,
};
use spiffi_mpeg::Library;
use spiffi_sched::SchedulerKind;
use spiffi_trace::NoopProbe;

use crate::micro::{self, Micro};
use crate::probe::{CountingProbe, Counts, EVENT_KINDS};
use crate::spans::Spans;
use crate::workloads::{
    self, check_equal, check_search_shape, crowd_config, expected_paper, expected_warm, guarded,
    median, paper_config, probe_config, probe_system, run_probe, schedulers, worker_bin,
    worker_count, SearchOutcome, Workload, CROWD_EVENTS, CROWD_TERMINALS, SEARCH, SNAPSHOT_BASE,
};
use crate::{Args, Metric, RunOutcome, DEFAULT_SEED};

/// Library generations timed for `cache.library_gen_s`.
const LIB_REPS: usize = 3;
/// Repetitions of each snapshot and wire call; the median is reported.
const SNAP_REPS: usize = 3;
/// Untraced/traced run pairs of `crowd_16k`; the medians are compared.
const CROWD_TRACE_REPS: usize = 3;

/// Everything a workload's traced simulations produced.
#[derive(Default)]
struct Ledger {
    counts: Counts,
    /// Host seconds of the untraced and traced runs of the same sims.
    untraced_s: f64,
    traced_s: f64,
    library_gen_s: f64,
    /// Simulations one op set runs, and the probes it visits.
    sims: u64,
    probes: u64,
    speculative_events: u64,
    counted_events: u64,
    journal: Option<JournalSnapshot>,
    pending_at_measure: usize,
}

/// What the layer-replay microbenchmarks are shaped after.
struct Shape {
    cfg: SystemConfig,
    lib: Arc<Library>,
    /// Schedulers the workload runs (for the computed sched share).
    scheds: Vec<SchedulerKind>,
    /// Snapshot base population and the count the fork extends it to.
    snap_base: u32,
    fork_to: u32,
}

pub fn run(args: &Args) -> RunOutcome {
    let mut spans = Spans::new();
    let traced = match args.workload {
        Workload::PaperCapacity => trace_paper(args, &mut spans),
        Workload::Crowd16k => trace_crowd(args, &mut spans),
        Workload::WarmWorkers => trace_warm(args, &mut spans),
    };
    let metrics =
        traced.and_then(|(mut ledger, shape)| layer_metrics(args, &mut spans, &mut ledger, &shape));
    let file = format!("spans-{}-seed{}.json", args.workload.name(), args.seed);
    match spans.write(Path::new(".bench_out"), &file) {
        Ok(p) => eprintln!("traced pass: spans written to {}", p.display()),
        Err(e) => eprintln!("traced pass: could not write spans: {e}"),
    }
    match metrics {
        Some(metrics) => RunOutcome {
            correct: true,
            metrics,
        },
        None => RunOutcome {
            correct: false,
            metrics: Vec::new(),
        },
    }
}

/// Generate the library behind `cfg` [`LIB_REPS`] times inside spans;
/// returns the last one and the median seconds.
fn timed_library(spans: &mut Spans, cfg: &SystemConfig) -> (Arc<LibraryCache>, Arc<Library>, f64) {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..LIB_REPS {
        drop(kept.take());
        let (v, s) = spans.time("library generation", || workloads::fresh_library(cfg));
        secs.push(s);
        kept = Some(v);
    }
    let (cache, lib) = kept.expect("at least one library generation");
    (cache, lib, median(&secs))
}

/// Replay every probe of `o` untraced and traced, adding to `ledger`; the
/// replayed events must add up to the search's counted events.
fn replay_probes(
    spans: &mut Spans,
    ledger: &mut Ledger,
    label: &str,
    cfg: &SystemConfig,
    lib: &Arc<Library>,
    base: Option<u32>,
    o: &SearchOutcome,
) -> Result<(), String> {
    let (mut untraced_events, mut traced_events) = (0, 0);
    // One untimed run first, so the timed ones start from warm caches.
    if let Some(&(n, _)) = o.probes.first() {
        let sys = probe_system(cfg, lib, base, n, NoopProbe);
        spans.time(format!("warm-up {label} n={n}"), || run_probe(sys));
    }
    for &(n, glitches) in &o.probes {
        let (sys, _) = spans.time(format!("build {label} n={n}"), || {
            probe_system(cfg, lib, base, n, NoopProbe)
        });
        let ((report, _), s) = spans.time(format!("simulate {label} n={n}"), || run_probe(sys));
        if (report.glitches > 0) != (glitches > 0) {
            return Err(format!(
                "replayed probe {label} at {n} changed its glitch outcome"
            ));
        }
        ledger.untraced_s += s;
        untraced_events += report.events_processed;
        let sys = probe_system(cfg, lib, base, n, CountingProbe::new(&probe_config(cfg)));
        let ((report, probe), s) =
            spans.time(format!("simulate traced {label} n={n}"), || run_probe(sys));
        ledger.traced_s += s;
        traced_events += report.events_processed;
        let mut counts = probe.counts;
        counts.add_report(&report);
        // The probe's terminal count is the config's; the probe system's
        // actual population is `n`.
        counts.terminal_ns = n as u128 * counts.sim_ns as u128;
        if counts.total_events() != report.events_processed {
            return Err(format!(
                "probe counted {} events, report says {}",
                counts.total_events(),
                report.events_processed
            ));
        }
        ledger.counts.merge(counts);
    }
    if untraced_events != o.events || traced_events != o.events {
        return Err(format!(
            "{label}: replayed probes processed {untraced_events} untraced / {traced_events} \
             traced events, the search counted {}",
            o.events
        ));
    }
    ledger.counted_events += o.events;
    Ok(())
}

/// Pending events once a system at `n` terminals reaches the snapshot
/// boundary (`replay_to_snapshot`).
fn pending_at(spans: &mut Spans, mut sys: VodSystem) -> usize {
    spans.time("replay to snapshot boundary", || sys.replay_to_snapshot());
    sys.pending_events()
}

fn trace_paper(args: &Args, spans: &mut Spans) -> Option<(Ledger, Shape)> {
    let base = paper_config(args.seed);
    let (cache, lib, gen_s) = timed_library(spans, &probe_config(&base));
    let mut ledger = Ledger {
        library_gen_s: gen_s,
        ..Ledger::default()
    };
    let mut capacity = SEARCH.lo;
    for (label, kind) in schedulers() {
        let cfg = base.clone().with_scheduler(kind);
        guarded(&format!("traced paper_capacity {label}"), || {
            let engine =
                Engine::with_cache(1, Arc::clone(&cache)).with_snapshot_mode(SnapshotMode::Off);
            let (r, _) = spans.time(format!("search {label}"), || {
                engine.max_glitch_free_terminals(&cfg, &SEARCH)
            });
            let o = SearchOutcome::of(&r);
            check_search_shape(&o)?;
            if args.seed == DEFAULT_SEED {
                check_equal("pinned result", &o, &expected_paper(label))?;
            }
            ledger.sims += engine.journal().snapshot().simulated();
            ledger.probes += o.probes.len() as u64;
            replay_probes(spans, &mut ledger, label, &cfg, &lib, None, &o)?;
            if label == "elevator" {
                capacity = o.capacity;
            }
            Ok(())
        })?;
    }
    let mut c = probe_config(&base);
    c.n_terminals = capacity;
    ledger.pending_at_measure = pending_at(spans, VodSystem::with_library(c, Arc::clone(&lib)));
    Some((
        ledger,
        Shape {
            cfg: probe_config(&base),
            lib,
            scheds: schedulers().iter().map(|s| s.1).collect(),
            snap_base: SNAPSHOT_BASE,
            fork_to: capacity,
        },
    ))
}

fn trace_warm(args: &Args, spans: &mut Spans) -> Option<(Ledger, Shape)> {
    let base = paper_config(args.seed);
    let (cache, lib, gen_s) = timed_library(spans, &probe_config(&base));
    let mut ledger = Ledger {
        library_gen_s: gen_s,
        ..Ledger::default()
    };
    let bin = match worker_bin() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: warm_workers cannot run: {e}");
            crate::record_op(false);
            return None;
        }
    };
    let capacity = guarded("traced warm_workers search", || {
        let engine = Engine::with_cache(1, Arc::clone(&cache))
            .with_snapshot_mode(SnapshotMode::Warm)
            .with_process(ProcessConfig::new(worker_count(), bin));
        let (r, _) = spans.time("search elevator warm", || {
            engine.max_glitch_free_terminals(&base, &SEARCH)
        });
        let o = SearchOutcome::of(&r);
        check_search_shape(&o)?;
        if args.seed == DEFAULT_SEED {
            check_equal("pinned result", &o, &expected_warm())?;
        }
        let j = engine.journal().snapshot();
        if j.worker_runs() == 0 {
            return Err("no probe ran on a worker process".into());
        }
        ledger.sims = j.simulated();
        ledger.probes = o.probes.len() as u64;
        ledger.speculative_events = r.speculative_events;
        ledger.journal = Some(j);
        // The from-scratch marginal replay must count exactly what the
        // forked, worker-run search counted.
        replay_probes(
            spans,
            &mut ledger,
            "elevator",
            &base,
            &lib,
            Some(SNAPSHOT_BASE),
            &o,
        )?;
        Ok(o.capacity)
    })?;
    let mut c = probe_config(&base);
    c.n_terminals = capacity;
    c.timing.warmup += c.timing.stagger;
    ledger.pending_at_measure = pending_at(
        spans,
        VodSystem::with_library_marginal(c, Arc::clone(&lib), SNAPSHOT_BASE),
    );
    Some((
        ledger,
        Shape {
            cfg: probe_config(&base),
            lib,
            scheds: vec![SchedulerKind::Elevator],
            snap_base: SNAPSHOT_BASE,
            fork_to: capacity,
        },
    ))
}

fn trace_crowd(args: &Args, spans: &mut Spans) -> Option<(Ledger, Shape)> {
    let cfg = crowd_config(args.seed);
    let (_, lib, gen_s) = timed_library(spans, &cfg);
    let mut ledger = Ledger {
        library_gen_s: gen_s,
        sims: 1,
        probes: 1,
        ..Ledger::default()
    };
    guarded("traced crowd_16k run", || {
        let build = |spans: &mut Spans| {
            spans
                .time("build crowd", || {
                    VodSystem::with_library(cfg.clone(), Arc::clone(&lib))
                })
                .0
        };
        // One untimed run first, so the timed ones start from warm caches;
        // then alternate untraced and traced runs and keep the medians, so
        // the overhead is not one noisy sample against another.
        let sys = build(spans);
        spans.time("warm-up crowd", || sys.run());
        let (mut untraced, mut traced_s) = (Vec::new(), Vec::new());
        let mut runs = None;
        for _ in 0..CROWD_TRACE_REPS {
            let sys = build(spans);
            let (report, s) = spans.time("simulate crowd", || sys.run());
            untraced.push(s);
            let sys =
                VodSystem::with_probe(cfg.clone(), Arc::clone(&lib), CountingProbe::new(&cfg));
            let ((traced, probe), s) = spans.time("simulate traced crowd", || sys.run_traced());
            traced_s.push(s);
            runs = Some((report, traced, probe));
        }
        ledger.untraced_s = median(&untraced);
        ledger.traced_s = median(&traced_s);
        let (report, traced, probe) = runs.expect("at least one traced repetition");
        if report.glitches != 0 || traced.glitches != 0 {
            return Err(format!(
                "{} glitches (expected none)",
                report.glitches.max(traced.glitches)
            ));
        }
        if traced.events_processed != report.events_processed
            || probe.counts.total_events() != report.events_processed
        {
            return Err("traced and untraced runs disagree on events".into());
        }
        if args.seed == DEFAULT_SEED && report.events_processed != CROWD_EVENTS {
            return Err(format!(
                "{} events, expected {CROWD_EVENTS}",
                report.events_processed
            ));
        }
        ledger.counted_events = report.events_processed;
        ledger.counts = probe.counts;
        ledger.counts.add_report(&traced);
        Ok(())
    })?;
    ledger.pending_at_measure = pending_at(
        spans,
        VodSystem::with_library(cfg.clone(), Arc::clone(&lib)),
    );
    Some((
        ledger,
        Shape {
            cfg,
            lib,
            scheds: vec![SchedulerKind::Elevator],
            snap_base: CROWD_TERMINALS,
            fork_to: CROWD_TERMINALS,
        },
    ))
}

/// Snapshot and wire host costs at the workload's snapshot base:
/// (export ms, import ms, fork ms, body bytes, wire job round trip µs,
/// snapshot frame parse ms). Every call's output is checked.
fn snapshot_and_wire(spans: &mut Spans, shape: &Shape) -> Result<[f64; 6], String> {
    let mut c = shape.cfg.clone();
    c.n_terminals = shape.snap_base;
    c.timing.warmup += c.timing.stagger;
    let mut sys =
        VodSystem::with_library_marginal(c.clone(), Arc::clone(&shape.lib), shape.snap_base);
    spans.time("snapshot capture (replay)", || sys.replay_to_snapshot());
    let (mut export, mut import, mut fork, mut parse) = (vec![], vec![], vec![], vec![]);
    let mut body = String::new();
    for _ in 0..SNAP_REPS {
        let (b, s) = spans.time("snap_export", || sys.snap_export());
        if !body.is_empty() && b != body {
            return Err("snap_export is not deterministic".into());
        }
        body = b;
        export.push(s);
        let (imported, s) = spans.time("snap_import", || {
            VodSystem::snap_import(c.clone(), Arc::clone(&shape.lib), &body)
        });
        let imported = imported.map_err(|e| format!("snap_import failed: {e:?}"))?;
        import.push(s);
        if imported.snap_export() != body {
            return Err("imported snapshot does not re-export byte-identically".into());
        }
        let (forked, s) = spans.time("fork_to", || sys.fork_to(shape.fork_to));
        fork.push(s);
        if forked.config().n_terminals != shape.fork_to
            || forked.pending_events() < sys.pending_events()
        {
            return Err("fork_to did not extend the snapshot".into());
        }
        let line = wire::encode_snapshot(shape.snap_base, 0, &body);
        let (rec, s) = spans.time("wire parse_snapshot", || {
            wire::parse_snapshot(&line).map(|r| (r.digest, r.body.len()))
        });
        let rec = rec.map_err(|e| format!("parse_snapshot failed: {e:?}"))?;
        if rec != (wire::snapshot_digest(&body), body.len()) {
            return Err("parsed snapshot frame does not match its body".into());
        }
        parse.push(s);
    }
    // Job lines: encode + parse. The round trip is checked once by
    // re-encoding; the timed loop checks every parse's terminal count.
    const JOBS: u32 = 2_000;
    let job = JobRecord {
        id: 1,
        terminals: shape.fork_to,
        replication: 0,
        base: Some(shape.snap_base),
        snapshot: Some(wire::snapshot_digest(&body)),
        telemetry: None,
        config: c,
    };
    let line = wire::encode_job(&job);
    match wire::parse_job(&line) {
        Ok(back) if wire::encode_job(&back) == line => {}
        _ => return Err("job line does not survive encode/parse".into()),
    }
    let mut roundtrip = Vec::new();
    for _ in 0..SNAP_REPS {
        let (terminals, s) = spans.time("wire job round trip x2000", || {
            (0..JOBS)
                .map(|_| wire::parse_job(&wire::encode_job(&job)).map_or(0, |j| j.terminals as u64))
                .sum::<u64>()
        });
        if terminals != JOBS as u64 * shape.fork_to as u64 {
            return Err("a job line lost its terminal count in encode/parse".into());
        }
        roundtrip.push(s / JOBS as f64);
    }
    let ms = |v: &[f64]| median(v) * 1e3;
    Ok([
        ms(&export),
        ms(&import),
        ms(&fork),
        body.len() as f64,
        median(&roundtrip) * 1e6,
        ms(&parse),
    ])
}

/// Host milliseconds to spawn the worker pool (median of [`SNAP_REPS`]).
fn spawn_ms(spans: &mut Spans) -> Result<f64, String> {
    let bin = worker_bin()?;
    let mut secs = Vec::new();
    for _ in 0..SNAP_REPS {
        let (pool, s) = spans.time("ProcessPool::spawn", || {
            ProcessPool::spawn(ProcessConfig::new(worker_count(), bin.clone()))
        });
        pool.map_err(|e| format!("spawn failed: {e}"))?;
        secs.push(s);
    }
    Ok(median(&secs) * 1e3)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Run the microbenchmarks and assemble every per-layer metric.
fn layer_metrics(
    args: &Args,
    spans: &mut Spans,
    l: &mut Ledger,
    shape: &Shape,
) -> Option<Vec<Metric>> {
    let c = &l.counts;
    let events = c.total_events();
    let cfg = &shape.cfg;
    let lib = &shape.lib;
    // A one-terminal system of the workload's configuration: its layout and
    // calendar kernel are the ones the workload's simulations use.
    let one = VodSystem::with_library(
        SystemConfig {
            n_terminals: 1,
            ..cfg.clone()
        },
        Arc::clone(lib),
    );
    let layout = one.layout();
    let cylinders = cfg
        .disk
        .with_capacity_for(layout.max_disk_used_bytes())
        .num_cylinders;
    // Requests queued when the scheduler picks: the ones left behind by an
    // average pick, plus the one it takes (at least two, so the policy has
    // a choice to make).
    let depth = (ratio(c.queue_depth_sum as f64, c.disk_ios as f64) + 1.0)
        .round()
        .max(2.0) as usize;
    let prefetch_share = ratio(c.disk_prefetch_ios as f64, c.disk_ios as f64);
    let hit_ratio = ratio(
        (c.pool_hits + c.pool_inflight) as f64,
        c.pool_lookups() as f64,
    );
    let mean_horizon_ns = ratio(l.pending_at_measure as f64 * c.sim_ns as f64, events as f64);
    let wakes = c.events[0];
    let frames_per_wake = ratio(
        c.terminal_ns as f64 / 1e9 * cfg.video.fps as f64,
        wakes as f64,
    )
    .round()
    .clamp(1.0, 1e6) as u64;
    let video = lib.get(spiffi_mpeg::VideoId(0));
    let seed = args.seed;

    // At the default seed every checksum must also equal its pinned value.
    let pinned = if args.seed == DEFAULT_SEED {
        pinned_checksums(args.workload)
    } else {
        &[]
    };
    let run =
        |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut() -> Result<Micro, String>| {
            guarded(name, || {
                let m = spans.time(name, &mut *f).0?;
                eprintln!(
                    "micro {name}: {:.1} ns/op checksum {:#018x}",
                    m.ns, m.checksum
                );
                match pinned.iter().find(|(n, _)| *n == name) {
                    Some((_, want)) if *want != m.checksum => Err(format!(
                        "checksum {:#018x}, pinned {want:#018x}: the layer's results changed",
                        m.checksum
                    )),
                    _ => Ok(m.ns),
                }
            })
        };
    let kernel = one.calendar_kernel();
    let hold_ns = run("calendar.hold_ns", spans, &mut || {
        micro::calendar_hold(kernel, l.pending_at_measure, mean_horizon_ns, seed)
    })?;
    let read_ns = run("disk.read_ns", spans, &mut || {
        micro::disk_read(cfg, layout, depth, seed)
    })?;
    let mut push_pop = Vec::new();
    for (name, kind) in [
        ("sched.push_pop_ns.elevator", schedulers()[0].1),
        ("sched.push_pop_ns.gss", schedulers()[1].1),
        ("sched.push_pop_ns.realtime", schedulers()[2].1),
    ] {
        let ns = run(name, spans, &mut || {
            micro::sched_push_pop(kind, depth, cylinders, prefetch_share, seed)
        })?;
        push_pop.push((name, kind, ns));
    }
    let locate_ns = run("layout.locate_ns", spans, &mut || {
        micro::layout_locate(layout, cfg.n_videos, seed)
    })?;
    let lookup_ns = run("bufferpool.lookup_ns", spans, &mut || {
        micro::bufferpool_cycle(cfg.frames_per_node(), cfg.policy, hit_ratio, seed)
    })?;
    let pump_ns = run("terminal.pump_ns", spans, &mut || {
        micro::terminal_pump(video, cfg.stripe_bytes, cfg.terminal_memory_bytes)
    })?;
    let seek_ns = run("terminal.seek_ns", spans, &mut || {
        micro::terminal_seek(video, frames_per_wake, seed)
    })?;
    let snap = guarded("snapshot and wire calls", || {
        snapshot_and_wire(spans, shape)
    })?;
    let spawn = guarded("process spawn", || spawn_ms(spans))?;

    let sched_ns = shape
        .scheds
        .iter()
        .map(|k| push_pop.iter().find(|p| p.1 == *k).map_or(0.0, |p| p.2))
        .sum::<f64>()
        / shape.scheds.len() as f64;
    let untraced_ns = l.untraced_s * 1e9;
    let j = l.journal.clone();
    let jv = |f: fn(&JournalSnapshot) -> u64| j.as_ref().map_or(0, f) as f64;
    let phase_ms = |p: PhaseKind| {
        j.as_ref()
            .map_or(0.0, |j| j.phase_wall_nanos[p.index()] as f64 / 1e6)
    };
    let c = &mut l.counts;
    let lookups = c.pool_lookups() as f64;

    let mut m = vec![Metric::new("system.events", events as f64, "count")];
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        m.push(Metric::new(
            format!("system.events.{kind}"),
            c.events[i] as f64,
            "count",
        ));
    }
    m.push(Metric::new(
        "system.events.other",
        c.events[EVENT_KINDS.len()] as f64,
        "count",
    ));
    m.push(Metric::new(
        "system.host_ns_per_event",
        ratio(untraced_ns, l.counted_events as f64),
        "ns",
    ));
    m.push(Metric::new(
        "calendar.pending_at_measure",
        l.pending_at_measure as f64,
        "count",
    ));
    m.push(Metric::new("calendar.hold_ns", hold_ns, "ns"));
    m.push(Metric::new("disk.ios", c.disk_ios as f64, "count"));
    m.push(Metric::new("disk.prefetch_share", prefetch_share, "ratio"));
    m.push(Metric::new(
        "disk.busy_frac",
        ratio(c.disk_service_ns as f64, c.disk_capacity_ns as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "disk.service_ms_mean",
        ratio(c.disk_service_ns as f64, c.disk_ios as f64) / 1e6,
        "ms",
    ));
    m.push(Metric::new("disk.read_ns", read_ns, "ns"));
    m.push(Metric::new(
        "sched.queue_depth_mean",
        ratio(c.queue_depth_sum as f64, c.disk_ios as f64),
        "count",
    ));
    m.push(Metric::new(
        "sched.queue_depth_max",
        c.queue_depth_max as f64,
        "count",
    ));
    m.push(Metric::new(
        "sched.demand_latency_ms_p50",
        c.demand_latency_ms(0.50),
        "ms",
    ));
    m.push(Metric::new(
        "sched.demand_latency_ms_p99",
        c.demand_latency_ms(0.99),
        "ms",
    ));
    m.push(Metric::new(
        "sched.deadline_miss_ratio",
        ratio(c.deadline_misses as f64, c.deadline_ios as f64),
        "ratio",
    ));
    for (name, _, ns) in &push_pop {
        m.push(Metric::new(*name, *ns, "ns"));
    }
    m.push(Metric::new("layout.locate_ns", locate_ns, "ns"));
    m.push(Metric::new("bufferpool.lookups", lookups, "count"));
    m.push(Metric::new("bufferpool.hit_ratio", hit_ratio, "ratio"));
    m.push(Metric::new(
        "bufferpool.shared_ratio",
        ratio(c.pool_shared as f64, lookups),
        "ratio",
    ));
    m.push(Metric::new(
        "bufferpool.inflight_merge_ratio",
        ratio(c.pool_inflight as f64, lookups),
        "ratio",
    ));
    m.push(Metric::new(
        "bufferpool.evictions",
        c.pool_evictions as f64,
        "count",
    ));
    m.push(Metric::new(
        "bufferpool.alloc_failures",
        c.pool_alloc_failures as f64,
        "count",
    ));
    m.push(Metric::new("bufferpool.lookup_ns", lookup_ns, "ns"));
    m.push(Metric::new(
        "prefetch.issued",
        c.disk_prefetch_ios as f64,
        "count",
    ));
    m.push(Metric::new(
        "prefetch.useful_ratio",
        ratio(c.prefetch_used as f64, c.prefetch_inserts as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "prefetch.wasted",
        c.prefetch_wasted as f64,
        "count",
    ));
    m.push(Metric::new("terminal.pump_ns", pump_ns, "ns"));
    m.push(Metric::new("terminal.seek_ns", seek_ns, "ns"));
    m.push(Metric::new("cpu.jobs", c.cpu_jobs as f64, "count"));
    m.push(Metric::new(
        "cpu.busy_frac",
        ratio(c.cpu_busy_ns as f64, c.cpu_capacity_ns as f64),
        "ratio",
    ));
    m.push(Metric::new("net.messages", c.net_messages as f64, "count"));
    m.push(Metric::new("net.bytes", c.net_bytes as f64, "bytes"));
    m.push(Metric::new("driver.sims", l.sims as f64, "count"));
    m.push(Metric::new("driver.probes", l.probes as f64, "count"));
    m.push(Metric::new(
        "driver.waste_ratio",
        ratio(
            l.speculative_events as f64,
            (l.counted_events + l.speculative_events) as f64,
        ),
        "ratio",
    ));
    m.push(Metric::new(
        "snap.captures",
        jv(|j| j.snapshot_captures),
        "count",
    ));
    m.push(Metric::new("snap.forks", jv(|j| j.snapshot_hits), "count"));
    m.push(Metric::new("snap.bytes", snap[3], "bytes"));
    m.push(Metric::new("snap.export_ms", snap[0], "ms"));
    m.push(Metric::new("snap.import_ms", snap[1], "ms"));
    m.push(Metric::new("snap.fork_ms", snap[2], "ms"));
    m.push(Metric::new("wire.job_roundtrip_us", snap[4], "us"));
    m.push(Metric::new("wire.snapshot_parse_ms", snap[5], "ms"));
    m.push(Metric::new(
        "wire.shipped_bytes",
        jv(|j| j.snapshot_bytes_shipped),
        "bytes",
    ));
    m.push(Metric::new("process.spawn_ms", spawn, "ms"));
    m.push(Metric::new(
        "process.phase.capture_ms",
        phase_ms(PhaseKind::Capture),
        "ms",
    ));
    m.push(Metric::new(
        "process.phase.simulate_ms",
        phase_ms(PhaseKind::Simulate),
        "ms",
    ));
    m.push(Metric::new(
        "process.retries",
        jv(|j| j.worker_retries),
        "count",
    ));
    m.push(Metric::new(
        "process.respawns",
        jv(|j| j.worker_respawns),
        "count",
    ));
    m.push(Metric::new("cache.library_gen_s", l.library_gen_s, "s"));
    m.push(Metric::new(
        "trace.overhead_s",
        l.traced_s - l.untraced_s,
        "s",
    ));
    m.push(Metric::new(
        "trace.overhead_ratio",
        ratio(l.traced_s - l.untraced_s, l.untraced_s),
        "ratio",
    ));
    // Computed, not measured: count × microbenchmark cost ÷ untraced wall.
    let share = |count: f64, ns: f64| ratio(count * ns, untraced_ns);
    m.push(Metric::new(
        "computed.share.calendar",
        share(events as f64, hold_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "computed.share.disk",
        share(c.disk_ios as f64, read_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "computed.share.sched",
        share(c.disk_ios as f64, sched_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "computed.share.layout",
        share(lookups + c.disk_ios as f64, locate_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "computed.share.bufferpool",
        share(lookups, lookup_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "computed.share.terminal",
        share(wakes as f64, pump_ns),
        "ratio",
    ));
    m.push(Metric::new(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        "count",
    ));
    Some(m)
}

/// Microbenchmark checksums at [`DEFAULT_SEED`], per workload. A mismatch
/// means a layer now computes different results for the same inputs.
fn pinned_checksums(w: Workload) -> &'static [(&'static str, u64)] {
    match w {
        Workload::PaperCapacity => &[
            ("calendar.hold_ns", 0x15c7_2779_b1be_89f3),
            ("disk.read_ns", 0x6cb4_89da_77ac_a895),
            ("sched.push_pop_ns.elevator", 0x8b3a_3193_5749_3067),
            ("sched.push_pop_ns.gss", 0xeebb_e4a1_175d_82d1),
            ("sched.push_pop_ns.realtime", 0xf6bb_3bce_0733_d8a9),
            ("layout.locate_ns", 0x9d01_17a9_9639_d244),
            ("bufferpool.lookup_ns", 0xd110_9454_c843_0b28),
            ("terminal.pump_ns", 0xbbf2_d4a6_7ae9_2133),
            ("terminal.seek_ns", 0x2697_7479_25a0_e1e1),
        ],
        Workload::Crowd16k => &[
            ("calendar.hold_ns", 0x3c5c_ee74_707a_f4f5),
            ("disk.read_ns", 0x1cdd_132a_bdce_6c25),
            ("sched.push_pop_ns.elevator", 0xf273_5f16_6395_326f),
            ("sched.push_pop_ns.gss", 0xd87d_701c_9fc7_fd40),
            ("sched.push_pop_ns.realtime", 0x3c3a_2f54_b098_4156),
            ("layout.locate_ns", 0x566f_d97e_ecb0_4804),
            ("bufferpool.lookup_ns", 0x9aaf_752e_4704_858f),
            ("terminal.pump_ns", 0x39d7_1882_905c_a4f7),
            ("terminal.seek_ns", 0xde70_7d09_db45_6677),
        ],
        Workload::WarmWorkers => &[
            ("calendar.hold_ns", 0x66f0_0f16_8135_1ebe),
            ("disk.read_ns", 0x40e6_269c_eae4_d9ae),
            ("sched.push_pop_ns.elevator", 0x0876_fa88_c018_b1ea),
            ("sched.push_pop_ns.gss", 0x1645_3804_b777_f263),
            ("sched.push_pop_ns.realtime", 0x00e1_a5f4_5a05_71f6),
            ("layout.locate_ns", 0x9d01_17a9_9639_d244),
            ("bufferpool.lookup_ns", 0x9013_6b60_5495_be95),
            ("terminal.pump_ns", 0xbbf2_d4a6_7ae9_2133),
            ("terminal.seek_ns", 0xe2ca_6c41_b0c4_cf20),
        ],
    }
}
