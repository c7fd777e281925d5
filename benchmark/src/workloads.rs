//! Workload definitions, correctness checks and the timed end-to-end pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spiffi_core::{
    replication_seed, CapacityResult, CapacitySearch, Engine, LibraryCache, ProcessConfig,
    RunTiming, SnapshotMode, SystemConfig, VodSystem,
};
use spiffi_mpeg::{AccessPattern, Library};
use spiffi_sched::SchedulerKind;
use spiffi_simcore::{SimDuration, SimTime};
use spiffi_trace::Probe;

use crate::{record_op, Args, Metric, RunOutcome, DEFAULT_SEED};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §7 base configuration, capacity search once per scheduler family.
    PaperCapacity,
    /// 16,384 terminals streaming glitch-free on 512 nodes.
    Crowd16k,
    /// The Elevator search through warm snapshots on worker processes.
    WarmWorkers,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "paper_capacity" => Some(Workload::PaperCapacity),
            "crowd_16k" => Some(Workload::Crowd16k),
            "warm_workers" => Some(Workload::WarmWorkers),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCapacity => "paper_capacity",
            Workload::Crowd16k => "crowd_16k",
            Workload::WarmWorkers => "warm_workers",
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// The capacity search of `paper_capacity` and `warm_workers`.
pub const SEARCH: CapacitySearch = CapacitySearch {
    lo: 150,
    hi: 330,
    step: 10,
    replications: 1,
};

/// The base population the snapshot modes warm up: the bracket's grid
/// floor, as the engine computes it.
pub const SNAPSHOT_BASE: u32 = (SEARCH.lo / SEARCH.step) * SEARCH.step;

/// The schedulers `paper_capacity` searches under, with their labels.
pub fn schedulers() -> [(&'static str, SchedulerKind); 3] {
    [
        ("elevator", SchedulerKind::Elevator),
        ("gss", SchedulerKind::Gss { groups: 4 }),
        (
            "realtime",
            SchedulerKind::RealTime {
                classes: 3,
                spacing: SimDuration::from_secs(4),
            },
        ),
    ]
}

/// The paper's §7 base configuration (4 nodes × 4 disks, 64 one-hour
/// titles, Zipf 1.0, 512 KB stripes, 4 GB) on the `fast` schedule.
pub fn paper_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::paper_base();
    c.timing = RunTiming::fast();
    c.seed = seed;
    c
}

/// Terminals in `crowd_16k`.
pub const CROWD_TERMINALS: u32 = 16_384;

/// The 16k-terminal scale point: 512 nodes × 4 disks, 64 one-minute titles,
/// uniform access, 32 MB of buffer per node, a 30 s schedule. The config
/// seed is the benchmark seed with `perf_baseline`'s `0x9e4f` suffix, so
/// the default seed reproduces that binary's 16k scale point exactly.
pub fn crowd_config(seed: u64) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    let nodes = CROWD_TERMINALS / 32;
    c.topology = spiffi_layout::Topology {
        nodes,
        disks_per_node: 4,
    };
    c.n_videos = 64;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = nodes as u64 * 32 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(20);
    c.n_terminals = CROWD_TERMINALS;
    c.seed = (seed << 16) | 0x9e4f;
    c
}

/// The configuration a search probe at replication 0 actually builds:
/// the search derives the replication seed, and the library follows it.
pub fn probe_config(cfg: &SystemConfig) -> SystemConfig {
    let mut c = cfg.clone();
    c.seed = replication_seed(cfg.seed, 0);
    c
}

/// A search outcome as the correctness checks compare it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    pub capacity: u32,
    pub probes: Vec<(u32, u64)>,
    pub events: u64,
}

impl SearchOutcome {
    pub fn of(r: &CapacityResult) -> Self {
        SearchOutcome {
            capacity: r.max_terminals,
            probes: r.probes.clone(),
            events: r.events_processed,
        }
    }
}

const KNEE_PROBES: [(u32, u64); 6] = [(150, 0), (330, 1), (240, 0), (280, 1), (260, 0), (270, 1)];
const GSS_PROBES: [(u32, u64); 6] = [(150, 0), (330, 1), (240, 0), (280, 1), (260, 1), (250, 0)];

/// Pinned `paper_capacity` results at [`DEFAULT_SEED`], per scheduler.
pub fn expected_paper(label: &str) -> SearchOutcome {
    let (capacity, probes, events) = match label {
        "elevator" => (260, &KNEE_PROBES, 1_438_674),
        "gss" => (250, &GSS_PROBES, 1_662_032),
        "realtime" => (260, &KNEE_PROBES, 1_488_657),
        _ => unreachable!("unknown scheduler label {label}"),
    };
    SearchOutcome {
        capacity,
        probes: probes.to_vec(),
        events,
    }
}

/// Pinned `warm_workers` result at [`DEFAULT_SEED`] (marginal timing).
pub fn expected_warm() -> SearchOutcome {
    SearchOutcome {
        capacity: 260,
        probes: KNEE_PROBES.to_vec(),
        events: 1_897_091,
    }
}

/// Simulated terminal-seconds ([`search_terminal_seconds`]) of the
/// default seed's searches: `paper_capacity` per scheduler, then
/// `warm_workers`. `search_s` scales every seed's search time to this
/// much simulated work, so a seed whose knee lands elsewhere (and whose
/// search therefore simulates more or less) reports a comparable figure.
const TS_PAPER: [f64; 3] = [214_539.0, 245_175.0, 220_552.0];
const TS_WARM: f64 = 313_474.0;

/// Pinned `crowd_16k` event count at [`DEFAULT_SEED`].
pub const CROWD_EVENTS: u64 = 2_717_649;

/// Structural checks every search outcome must pass on any seed: an
/// answer inside the bracket, glitch-free probes at or below it and
/// glitching probes above it.
pub fn check_search_shape(o: &SearchOutcome) -> Result<(), String> {
    if o.capacity < SEARCH.lo || o.capacity >= SEARCH.hi {
        return Err(format!(
            "capacity {} outside the searchable bracket [{}, {})",
            o.capacity, SEARCH.lo, SEARCH.hi
        ));
    }
    if o.events == 0 || o.probes.is_empty() {
        return Err("search ran no simulation".into());
    }
    for &(n, g) in &o.probes {
        if (n <= o.capacity) != (g == 0) {
            return Err(format!(
                "probe at {n} has {g} glitches against capacity {}",
                o.capacity
            ));
        }
    }
    Ok(())
}

/// Compare `got` with `want`, naming the first mismatching field.
pub fn check_equal(what: &str, got: &SearchOutcome, want: &SearchOutcome) -> Result<(), String> {
    if got != want {
        return Err(format!("{what}: got {got:?}, expected {want:?}"));
    }
    Ok(())
}

/// The `spiffi-worker` binary built next to this executable.
pub fn worker_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join(format!("spiffi-worker{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("worker binary {} is missing", bin.display()))
    }
}

/// Worker processes for `warm_workers`: two, or one on a single core.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The fastest of `v`: the per-run statistic of every timed op.
///
/// Every op of a run repeats byte-identical simulated work, so its
/// spread is machine noise. On a VM that shares its cores, that noise comes
/// in phases of cache and memory contention lasting tens of seconds; the
/// median of a 30 s run follows the phase, the fastest op tracks the
/// uncontended cost (measured: spread of 30 s windows 0.24 for the median,
/// 0.08 for the minimum). `perf_baseline` keeps its best-of-N for the same
/// reason.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `op`, counting it and turning a panic or an `Err` into a failure.
/// Returns the op's value on success.
pub fn guarded<T>(what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
    let out = match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panicked: {msg}"))
        }
    };
    match out {
        Ok(v) => {
            record_op(true);
            Some(v)
        }
        Err(e) => {
            eprintln!("benchmark: {what} FAILED: {e}");
            record_op(false);
            None
        }
    }
}

/// An op slower than this counts as failed (it would also starve the run
/// of samples).
const OP_TIMEOUT: Duration = Duration::from_secs(60);

fn timed_ok(wall: Duration) -> Result<(), String> {
    if wall > OP_TIMEOUT {
        Err(format!(
            "took {:.1} s (limit {} s)",
            wall.as_secs_f64(),
            OP_TIMEOUT.as_secs()
        ))
    } else {
        Ok(())
    }
}

/// Generate the library behind `cfg` into a fresh cache, the way a search
/// or run would on its first access. Returns the cache and the library.
pub fn fresh_library(cfg: &SystemConfig) -> (Arc<LibraryCache>, Arc<Library>) {
    let cache = Arc::new(LibraryCache::new());
    let lib = cache.get(cfg);
    (cache, lib)
}

/// Records only the instant a run stopped.
#[derive(Clone, Copy, Default)]
struct StopProbe {
    end: SimTime,
}

impl Probe for StopProbe {
    fn run_end(&mut self, end: SimTime) {
        self.end = end;
    }
}

/// The system a search probe at `n` terminals builds (replication 0):
/// legacy timing when `base` is `None`, marginal timing over `base`
/// otherwise (the Cold/Warm snapshot modes, whose warm-up is one stagger
/// longer).
pub fn probe_system<P: Probe>(
    cfg: &SystemConfig,
    lib: &Arc<Library>,
    base: Option<u32>,
    n: u32,
    probe: P,
) -> VodSystem<P> {
    let mut c = probe_config(cfg);
    c.n_terminals = n;
    match base {
        None => VodSystem::with_probe(c, Arc::clone(lib), probe),
        Some(b) => {
            c.timing.warmup += c.timing.stagger;
            VodSystem::with_probe_marginal(c, Arc::clone(lib), probe, b)
        }
    }
}

/// Run one probe system the way a sequential search does: stopping at the
/// first measured glitch. Returns the report and the probe.
pub fn run_probe<P: Probe>(sys: VodSystem<P>) -> (spiffi_core::RunReport, P) {
    let cancel = AtomicU32::new(u32::MAX);
    let abort = AtomicBool::new(false);
    let (report, _, probe) = sys.run_glitch_probe_abortable_traced(&cancel, 0, &abort);
    (report, probe)
}

/// Simulated terminal-seconds a search covers: for every probe, its
/// terminal count times the simulated span it ran (the whole schedule for a
/// clean probe; up to its first glitch for a glitching one, found by
/// replaying that probe).
pub fn search_terminal_seconds(
    cfg: &SystemConfig,
    lib: &Arc<Library>,
    base: Option<u32>,
    o: &SearchOutcome,
) -> Result<f64, String> {
    let mut total = 0.0;
    for &(n, glitches) in &o.probes {
        let sys = probe_system(cfg, lib, base, n, StopProbe::default());
        let span = if glitches == 0 {
            SimTime::ZERO + sys.config().timing.total()
        } else {
            let (report, probe) = run_probe(sys);
            if report.glitches == 0 {
                return Err(format!("replayed probe at {n} did not glitch"));
            }
            probe.end
        };
        total += n as f64 * span.as_secs_f64();
    }
    Ok(total)
}

/// The timed end-to-end pass.
pub fn run(args: &Args) -> RunOutcome {
    match args.workload {
        Workload::PaperCapacity => run_paper(args),
        Workload::Crowd16k => run_crowd(args),
        Workload::WarmWorkers => run_warm(args),
    }
}

/// Shared set-up of the two search workloads: generate the library
/// [`SETUP_REPS`] times and construct an engine and the hi-bracket system
/// each time; keep the last library. Returns (cache, library, seconds each).
fn search_setup(
    cfg: &SystemConfig,
    engine: impl Fn(Arc<LibraryCache>) -> Engine,
) -> (Arc<LibraryCache>, Arc<Library>, Vec<f64>) {
    let pcfg = probe_config(cfg);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take()); // free the previous library before the next
        let t = Instant::now();
        let (cache, lib) = fresh_library(&pcfg);
        let e = engine(Arc::clone(&cache));
        let mut c = pcfg.clone();
        c.n_terminals = SEARCH.hi;
        let sys = VodSystem::with_library(c, Arc::clone(&lib));
        times.push(t.elapsed().as_secs_f64());
        drop((sys, e));
        kept = Some((cache, lib));
    }
    let (cache, lib) = kept.expect("at least one set-up repetition");
    (cache, lib, times)
}

fn model_accuracy_note(label: &str, o: &SearchOutcome) {
    // EXPERIMENTS.md: the paper's base-configuration knee is ~220 terminals
    // (Fig 9, elevator); at 512 KB stripes the paper finds real-time ≈
    // elevator (Fig 10) and reports no GSS(4) figure.
    let paper = match label {
        "elevator" => "~220 (Fig 9)",
        "realtime" => "about elevator's (Fig 10)",
        _ => "none reported",
    };
    eprintln!(
        "model note: {label}: simulated capacity {} (fast preset), paper {paper}; \
         the gap is unvalidated model error, information only",
        o.capacity
    );
}

/// One search workload's timed loop: `search(i)` runs search `i` of a
/// rotation of `refs.len()` and returns its wall seconds and outcome, which
/// must equal `refs[i]`. Whole rotations only, so every search contributes
/// equally. Returns the wall times per search, or `None` after a failure.
fn timed_searches(
    name: &str,
    labels: &[&str],
    refs: &[SearchOutcome],
    seconds: f64,
    search: impl Fn(usize) -> Result<(f64, SearchOutcome), String>,
) -> Option<Vec<Vec<f64>>> {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); refs.len()];
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while started.elapsed() < budget || walls[0].is_empty() {
        for (i, want) in refs.iter().enumerate() {
            let wall = guarded(&format!("{name} {} search", labels[i]), || {
                let (wall, got) = search(i)?;
                check_equal("search vs set-up reference", &got, want)?;
                Ok(wall)
            })?;
            walls[i].push(wall);
        }
    }
    for (label, w) in labels.iter().zip(&walls) {
        eprintln!(
            "{name} {label}: {} searches, fastest {:.4} s, median {:.4} s",
            w.len(),
            fastest(w),
            median(w)
        );
    }
    Some(walls)
}

/// The checks every timed search makes on its own engine.
fn check_engine(engine: &Engine, wall: Duration, misses: u64) -> Result<(), String> {
    timed_ok(wall)?;
    if engine.journal().snapshot().simulated() == 0 {
        return Err("search simulated nothing (served from a cache)".into());
    }
    if engine.cache().misses() != misses {
        return Err("search regenerated the shared library".into());
    }
    Ok(())
}

fn failed_run() -> RunOutcome {
    RunOutcome {
        correct: false,
        metrics: Vec::new(),
    }
}

fn run_paper(args: &Args) -> RunOutcome {
    let base = paper_config(args.seed);
    let off = |c| Engine::with_cache(1, c).with_snapshot_mode(SnapshotMode::Off);
    let (cache, lib, setup) = search_setup(&base, off);
    let misses = cache.misses();
    let scheds = schedulers();
    let labels: Vec<&str> = scheds.iter().map(|s| s.0).collect();
    let cfgs: Vec<SystemConfig> = scheds
        .iter()
        .map(|&(_, k)| base.clone().with_scheduler(k))
        .collect();
    // Reference outcomes and simulated terminal-seconds, outside setup_s.
    let mut refs = Vec::new();
    let mut term_secs = Vec::new();
    for (cfg, label) in cfgs.iter().zip(&labels) {
        let r = guarded(&format!("paper_capacity {label} reference"), || {
            let got =
                SearchOutcome::of(&off(Arc::clone(&cache)).max_glitch_free_terminals(cfg, &SEARCH));
            check_search_shape(&got)?;
            if args.seed == DEFAULT_SEED {
                check_equal("pinned result", &got, &expected_paper(label))?;
            }
            let ts = search_terminal_seconds(cfg, &lib, None, &got)?;
            Ok((got, ts))
        });
        let Some((got, ts)) = r else {
            return failed_run();
        };
        model_accuracy_note(label, &got);
        eprintln!(
            "paper_capacity {label}: {} events, {ts:.0} terminal-s, probes {:?}",
            got.events, got.probes
        );
        refs.push(got);
        term_secs.push(ts);
    }
    let Some(walls) = timed_searches("paper_capacity", &labels, &refs, args.seconds, |i| {
        let engine = off(Arc::clone(&cache));
        let t = Instant::now();
        let result = engine.max_glitch_free_terminals(&cfgs[i], &SEARCH);
        let wall = t.elapsed();
        check_engine(&engine, wall, misses)?;
        Ok((wall.as_secs_f64(), SearchOutcome::of(&result)))
    }) else {
        return failed_run();
    };
    let best: Vec<f64> = walls.iter().map(|w| fastest(w)).collect();
    let search_s = (0..best.len())
        .map(|i| best[i] * TS_PAPER[i] / term_secs[i])
        .sum::<f64>()
        / best.len() as f64;
    let stream = term_secs.iter().sum::<f64>() / best.iter().sum::<f64>();
    RunOutcome {
        correct: true,
        metrics: end_to_end(search_s, stream, &setup),
    }
}

fn run_warm(args: &Args) -> RunOutcome {
    let base = paper_config(args.seed);
    let bin = match worker_bin() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark: warm_workers cannot run: {e}");
            record_op(false);
            return failed_run();
        }
    };
    let pcfg = ProcessConfig::new(worker_count(), bin);
    let warm = |c| {
        Engine::with_cache(1, c)
            .with_snapshot_mode(SnapshotMode::Warm)
            .with_process(pcfg.clone())
    };
    let (cache, lib, setup) = search_setup(&base, warm);
    let misses = cache.misses();
    // The reference: the Cold-mode (from-scratch marginal) sequential
    // search on the same seed, computed in set-up, outside setup_s.
    let r = guarded("warm_workers cold reference", || {
        let engine =
            Engine::with_cache(1, Arc::clone(&cache)).with_snapshot_mode(SnapshotMode::Cold);
        let got = SearchOutcome::of(&engine.max_glitch_free_terminals(&base, &SEARCH));
        check_search_shape(&got)?;
        if args.seed == DEFAULT_SEED {
            check_equal("cold reference", &got, &expected_warm())?;
        }
        let ts = search_terminal_seconds(&base, &lib, Some(SNAPSHOT_BASE), &got)?;
        Ok((got, ts))
    });
    let Some((reference, term_secs)) = r else {
        return failed_run();
    };
    eprintln!(
        "warm_workers: {} events, {term_secs:.0} terminal-s, probes {:?}",
        reference.events, reference.probes
    );
    let Some(walls) = timed_searches(
        "warm_workers",
        &["elevator"],
        &[reference],
        args.seconds,
        |_| {
            let engine = warm(Arc::clone(&cache));
            let t = Instant::now();
            let result = engine.max_glitch_free_terminals(&base, &SEARCH);
            let wall = t.elapsed();
            check_engine(&engine, wall, misses)?;
            let j = engine.journal().snapshot();
            if j.worker_runs() == 0 {
                return Err("no probe ran on a worker process".into());
            }
            let faults = [
                ("worker_retries", j.worker_retries),
                ("worker_respawns", j.worker_respawns),
                ("quarantined_jobs", j.quarantined_jobs),
                ("telemetry_dropped", j.telemetry_dropped),
            ];
            if let Some((name, n)) = faults.iter().find(|(_, n)| *n > 0) {
                return Err(format!("process layer reported {name} = {n}"));
            }
            Ok((wall.as_secs_f64(), SearchOutcome::of(&result)))
        },
    ) else {
        return failed_run();
    };
    let wall = fastest(&walls[0]);
    RunOutcome {
        correct: true,
        metrics: end_to_end(wall * TS_WARM / term_secs, term_secs / wall, &setup),
    }
}

fn run_crowd(args: &Args) -> RunOutcome {
    let cfg = crowd_config(args.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut lib = None;
    for _ in 0..SETUP_REPS {
        drop(lib.take());
        let t = Instant::now();
        let l = Arc::new(VodSystem::generate_library(&cfg));
        let sys = VodSystem::with_library(cfg.clone(), Arc::clone(&l));
        setup.push(t.elapsed().as_secs_f64());
        drop(sys);
        lib = Some(l);
    }
    let lib = lib.expect("at least one set-up repetition");
    let terminal_seconds = cfg.n_terminals as f64 * cfg.timing.total().as_secs_f64();
    let mut walls = Vec::new();
    let mut events_seen: Option<u64> = None;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while started.elapsed() < budget || walls.is_empty() {
        // Construction is set-up, not streaming: it stays outside the clock.
        let sys = VodSystem::with_library(cfg.clone(), Arc::clone(&lib));
        let r = guarded("crowd_16k run", || {
            let t = Instant::now();
            let report = sys.run();
            let wall = t.elapsed();
            timed_ok(wall)?;
            if report.glitches != 0 {
                return Err(format!("{} glitches (expected none)", report.glitches));
            }
            if report.terminals != CROWD_TERMINALS {
                return Err(format!("report covers {} terminals", report.terminals));
            }
            if args.seed == DEFAULT_SEED && report.events_processed != CROWD_EVENTS {
                return Err(format!(
                    "{} events, expected {CROWD_EVENTS}",
                    report.events_processed
                ));
            }
            let first = *events_seen.get_or_insert(report.events_processed);
            if first != report.events_processed {
                return Err(format!(
                    "not deterministic: {} events after {first}",
                    report.events_processed
                ));
            }
            Ok(wall.as_secs_f64())
        });
        match r {
            Some(w) => walls.push(w),
            None => return failed_run(),
        }
    }
    let run_s = fastest(&walls);
    eprintln!(
        "crowd_16k: {} runs, fastest {run_s:.4} s, median {:.4} s, {} events each",
        walls.len(),
        median(&walls),
        events_seen.unwrap_or(0)
    );
    RunOutcome {
        correct: true,
        metrics: end_to_end(run_s, terminal_seconds / run_s, &setup),
    }
}

/// The end-to-end metric set, in `BENCHMARK.json` order. `op_s` is the
/// fastest host seconds of one complete op: a capacity search (scaled to the
/// default seed's simulated work), or for `crowd_16k` the one glitch-free
/// run at 16,384 terminals, whose simulated work does not depend on the
/// seed.
fn end_to_end(op_s: f64, stream_s_per_s: f64, setup: &[f64]) -> Vec<Metric> {
    let attempted = crate::ATTEMPTED
        .load(std::sync::atomic::Ordering::SeqCst)
        .max(1);
    let failed = crate::FAILED.load(std::sync::atomic::Ordering::SeqCst);
    vec![
        Metric::new("search_s", op_s, "s"),
        Metric::new("stream_s_per_s", stream_s_per_s, "1/s"),
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ]
}
