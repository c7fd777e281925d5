//! The experiment driver: running configurations and finding the maximum
//! number of glitch-free terminals (§7.1).
//!
//! "Our primary metric is the maximum number of terminals that a
//! configuration can support without glitches. This value is obtained by
//! increasing the number of terminals until the number of glitches becomes
//! non-zero. To ensure that our results are accurate, we ran each
//! experiment until we were 90% confident that the results were within 5%
//! (about 10 terminals) of the actual maximum number of terminals."
//!
//! [`max_glitch_free_terminals`] performs that procedure as a bracketed
//! binary search on a terminal-count grid, requiring every replication
//! (different seeds) of a candidate count to finish its measurement window
//! glitch-free.
//!
//! # The experiment engine
//!
//! Every replication of an experiment owns its calendar, RNG and system
//! state and shares nothing with its siblings but a base seed, so
//! replications are embarrassingly parallel. [`Engine`] exploits that:
//! [`Engine::run_replications`] fans runs out across OS threads and slots
//! results by replication index, so its output is **byte-identical to the
//! sequential loop at any thread count**. Capacity probes additionally
//! short-circuit: when a replication glitches, higher-indexed replications
//! of the same probe abandon their runs (see
//! [`VodSystem::run_glitch_probe`] for why that preserves determinism).
//! Generated libraries are shared across a sweep through the engine's
//! [`LibraryCache`].
//!
//! The thread count defaults to the machine's available parallelism and
//! can be overridden with the `SPIFFI_THREADS` environment variable.
//!
//! # One search loop, three executors
//!
//! The capacity search is a sequential decision process, but both
//! possible next counts are known *before* a probe resolves. So
//! [`Engine::max_glitch_free_terminals`] runs one loop: it drives a
//! `SearchCursor` over every probe whose outcome is known, then hands the
//! breadth-first frontier of missing `(count, replication)` pairs — the
//! cursor's own probe first, then the counts either branch would visit
//! next — to a probe executor, up to its idle capacity:
//!
//! * `Processes` when `SPIFFI_WORKERS` (or [`Engine::with_process`])
//!   attaches a [`ProcessPool`] of `spiffi-worker` children;
//! * otherwise `Threads` above one thread (`SPIFFI_THREADS > 1`): scoped
//!   worker threads whose idle members speculate on future counts;
//! * otherwise `Inline`: one pair at a time on the caller's thread. The
//!   frontier at capacity 1 is the cursor's own pending pair, so this is
//!   the exact sequential search, with no speculation.
//!
//! Every cleanly finished replication lands in the engine's [`ProbeCache`]
//! keyed by `(config fingerprint, count, replication)`, so no pair is
//! simulated twice for one configuration. Because a probe's *counted*
//! outcome is assembled from deterministic standalone replication outcomes
//! in cursor order, the [`CapacityResult`] is byte-identical whichever
//! executor ran; work the search never counts is reported separately as
//! [`CapacityResult::speculative_events`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use crate::cache::{LibraryCache, ProbeCache, ProbeOutcome, SnapshotCache};
use crate::config::SystemConfig;
use crate::journal::{PhaseKind, ProbeRun, RunJournal};
use crate::metrics::RunReport;
use crate::process::{ProcessConfig, ProcessPool, SnapshotBlob};
use crate::system::VodSystem;
use spiffi_simcore::{SimDuration, SimTime};
use spiffi_trace::{SampleRow, StreamSpan, WorkerStream};

/// Run one configuration to completion.
pub fn run_once(cfg: &SystemConfig) -> RunReport {
    VodSystem::new(cfg.clone()).run()
}

/// The seed for replication `r` of an experiment with base seed `base`.
///
/// Every replication loop in the driver derives its per-replication seeds
/// through this one function so they stay decorrelated the same way
/// everywhere. The multiplier is the full 64-bit golden-ratio constant
/// (SplitMix64's increment), which spreads consecutive replication indices
/// across the whole seed space; all arithmetic wraps so no replication
/// count can overflow. `r = 0` maps to a seed different from `base`, so a
/// replication never silently repeats the un-replicated experiment.
pub fn replication_seed(base: u64, r: u32) -> u64 {
    base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(r as u64 + 1))
}

/// Worker-thread budget for the experiment engine: the `SPIFFI_THREADS`
/// environment variable when set to a positive integer (`1` = exact
/// legacy sequential path), otherwise the machine's available parallelism.
pub fn engine_threads() -> usize {
    std::env::var("SPIFFI_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// How capacity probes reuse the shared warm-up across terminal counts.
///
/// Under [`SnapshotMode::Off`] every probe replays its full warm-up from
/// scratch with all terminals joining in `[0, stagger)` — the legacy
/// timeline. The other two modes switch probes to *marginal* timing
/// ([`VodSystem::with_library_marginal`]): a base population (the search
/// bracket's grid floor) warms the server up, the warm-up is extended by
/// one stagger, and the terminals a probe adds beyond the base join during
/// that final stagger window, immediately before measurement. The two
/// marginal modes are byte-identical to each other by construction;
/// [`SnapshotMode::Warm`] merely stops re-simulating the shared prefix.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Legacy timing; no snapshot reuse.
    #[default]
    Off,
    /// Marginal timing, every probe simulated from scratch. The reference
    /// the warm path is validated against; rarely useful on its own.
    Cold,
    /// Marginal timing with per-replication warm snapshots: the base
    /// warm-up is replayed once per replication seed, captured at the
    /// snapshot boundary, and each probe above the base forks from it —
    /// O(Δterminals) per bisection step.
    Warm,
}

/// Parse a `SPIFFI_SNAPSHOT` setting: unset, empty, `0` or `off` select
/// [`SnapshotMode::Off`]; `1` or `warm` [`SnapshotMode::Warm`]; `cold`
/// [`SnapshotMode::Cold`] (all case-insensitive, whitespace-trimmed).
/// Anything else is an error carrying the offending text — a typo like
/// `SPIFFI_SNAPSHOT=wram` must not silently run the legacy timeline.
pub(crate) fn parse_snapshot_mode(v: Option<&str>) -> Result<SnapshotMode, String> {
    let t = v.unwrap_or("").trim();
    if t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") {
        Ok(SnapshotMode::Off)
    } else if t == "1" || t.eq_ignore_ascii_case("warm") {
        Ok(SnapshotMode::Warm)
    } else if t.eq_ignore_ascii_case("cold") {
        Ok(SnapshotMode::Cold)
    } else {
        Err(t.to_string())
    }
}

/// Snapshot mode from the `SPIFFI_SNAPSHOT` environment variable:
/// `1`/`warm` selects [`SnapshotMode::Warm`], `cold` the from-scratch
/// marginal reference, `0`/`off`/unset the legacy [`SnapshotMode::Off`].
/// Any other value is rejected with a diagnostic and a non-zero exit —
/// matching the strict `SPIFFI_CAL_KERNEL` parse — because an experiment
/// silently running the wrong probe timeline is far worse than one that
/// refuses to start.
pub fn snapshot_mode_from_env() -> SnapshotMode {
    let raw = std::env::var("SPIFFI_SNAPSHOT").ok();
    match parse_snapshot_mode(raw.as_deref()) {
        Ok(mode) => mode,
        Err(bad) => {
            eprintln!(
                "spiffi: unknown SPIFFI_SNAPSHOT value {bad:?} \
                 (expected \"0\"/\"off\", \"1\"/\"warm\", or \"cold\")"
            );
            std::process::exit(2);
        }
    }
}

/// Parse a `SPIFFI_TELEMETRY` setting: unset, empty, `0` or `off` turn
/// worker telemetry off (`None`); a positive integer is the sampling
/// interval in **milliseconds** (converted to nanoseconds). Anything else
/// is an error carrying the offending text — a typo must not silently run
/// without the telemetry the experiment was supposed to collect.
pub(crate) fn parse_telemetry_env(v: Option<&str>) -> Result<Option<u64>, String> {
    let t = v.unwrap_or("").trim();
    if t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") {
        return Ok(None);
    }
    match t.parse::<u64>() {
        Ok(ms) if ms > 0 && ms <= u64::MAX / 1_000_000 => Ok(Some(ms * 1_000_000)),
        _ => Err(t.to_string()),
    }
}

/// Telemetry request from the `SPIFFI_TELEMETRY` environment variable: a
/// positive integer selects that sampling interval in milliseconds,
/// `0`/`off`/unset disables telemetry. Any other value is rejected with a
/// diagnostic and a non-zero exit, matching the strict `SPIFFI_SNAPSHOT`
/// parse.
pub fn telemetry_from_env() -> Option<u64> {
    let raw = std::env::var("SPIFFI_TELEMETRY").ok();
    match parse_telemetry_env(raw.as_deref()) {
        Ok(t) => t,
        Err(bad) => {
            eprintln!(
                "spiffi: unknown SPIFFI_TELEMETRY value {bad:?} \
                 (expected \"0\"/\"off\" or a sampling interval in milliseconds)"
            );
            std::process::exit(2);
        }
    }
}

/// Run `f(i)` for every `i < n` on at most `threads` OS threads, returning
/// the results slotted by index.
///
/// Execution *order* is nondeterministic above one thread; the result
/// vector never is — `out[i] == f(i)` regardless of which worker computed
/// it or when. With `threads <= 1` or a single item this degenerates to a
/// plain sequential map (the exact legacy path: same calls, same order, no
/// threads spawned).
pub fn fan_out<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, v) in rx {
            slots[i] = Some(v);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("fan_out worker dropped a slot"))
        .collect()
}

/// The parallel experiment engine: a thread budget plus a shared
/// [`LibraryCache`], behind every replication fan-out in the driver.
///
/// One engine should live as long as a sweep so every grid point reuses
/// the cached libraries. All results are byte-identical at any thread
/// count; see the [module docs](self) for the determinism argument.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Arc<LibraryCache>,
    probes: Arc<ProbeCache>,
    snapshots: Arc<SnapshotCache>,
    snapshot: SnapshotMode,
    journal: Arc<RunJournal>,
    process: Option<ProcessConfig>,
    /// Worker probe-sampling interval in nanoseconds; `None` runs workers
    /// with the zero-cost [`spiffi_trace::NoopProbe`].
    telemetry: Option<u64>,
    /// Per-worker telemetry streams drained from process pools, waiting
    /// for [`Engine::take_worker_telemetry`].
    worker_telemetry: Mutex<Vec<WorkerStream>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the ambient thread budget ([`engine_threads`]),
    /// fresh caches, and — when `SPIFFI_WORKERS` selects one — the ambient
    /// process-level backend ([`ProcessConfig::from_env`]).
    pub fn new() -> Self {
        let mut engine = Engine::with_threads(engine_threads());
        engine.process = ProcessConfig::from_env();
        engine.snapshot = snapshot_mode_from_env();
        engine.telemetry = telemetry_from_env();
        engine
    }

    /// An engine with an explicit thread budget (tests of the determinism
    /// guarantee construct several of these side by side).
    pub fn with_threads(threads: usize) -> Self {
        Engine::with_caches(
            threads,
            Arc::new(LibraryCache::new()),
            Arc::new(ProbeCache::new()),
        )
    }

    /// An engine sharing an existing library cache (e.g. across several
    /// sweeps of one bench binary) but with a fresh probe cache.
    pub fn with_cache(threads: usize, cache: Arc<LibraryCache>) -> Self {
        Engine::with_caches(threads, cache, Arc::new(ProbeCache::new()))
    }

    /// An engine sharing both a library cache and a probe cache, so
    /// repeated capacity searches replay clean probe outcomes instead of
    /// re-simulating them.
    pub fn with_caches(threads: usize, cache: Arc<LibraryCache>, probes: Arc<ProbeCache>) -> Self {
        Engine {
            threads: threads.max(1),
            cache,
            probes,
            snapshots: Arc::new(SnapshotCache::new()),
            snapshot: SnapshotMode::Off,
            journal: Arc::new(RunJournal::new()),
            process: None,
            telemetry: None,
            worker_telemetry: Mutex::new(Vec::new()),
        }
    }

    /// Select how capacity probes reuse the shared warm-up (overriding the
    /// ambient `SPIFFI_SNAPSHOT` setting [`Engine::new`] read).
    pub fn with_snapshot_mode(mut self, mode: SnapshotMode) -> Self {
        self.snapshot = mode;
        self
    }

    /// Attach a process-level execution backend: capacity-search probe
    /// replications run in a pool of `spiffi-worker` child processes
    /// instead of in-process threads. Results stay byte-identical to the
    /// in-thread engine at any worker count (same slotting contract, same
    /// probe cache); see [`crate::process`] for the failure policy.
    pub fn with_process(mut self, process: ProcessConfig) -> Self {
        self.process = Some(process);
        self
    }

    /// Request worker-side telemetry at the given probe-sampling interval
    /// in nanoseconds (overriding the ambient `SPIFFI_TELEMETRY` setting
    /// [`Engine::new`] read). `None` runs workers with the zero-cost noop
    /// probe. Purely observational: search results are byte-identical with
    /// telemetry on or off.
    pub fn with_telemetry(mut self, interval_ns: Option<u64>) -> Self {
        self.telemetry = interval_ns;
        self
    }

    /// The worker probe-sampling interval in nanoseconds, if telemetry is
    /// requested.
    pub fn telemetry(&self) -> Option<u64> {
        self.telemetry
    }

    /// Drain the per-worker telemetry streams collected by process-backed
    /// searches since the last call (empty unless telemetry is on and a
    /// process-backed search has run). Feed these to
    /// [`spiffi_trace::merge::merged_chrome_trace`] for a multi-track
    /// trace.
    pub fn take_worker_telemetry(&self) -> Vec<WorkerStream> {
        std::mem::take(&mut self.worker_telemetry.lock().unwrap())
    }

    /// The worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Process workers the engine will spawn per capacity search (0 when
    /// the process backend is off).
    pub fn process_workers(&self) -> usize {
        self.process.as_ref().map_or(0, |p| p.workers)
    }

    /// The engine's library cache.
    pub fn cache(&self) -> &Arc<LibraryCache> {
        &self.cache
    }

    /// The engine's search-wide probe cache.
    pub fn probe_cache(&self) -> &Arc<ProbeCache> {
        &self.probes
    }

    /// The engine's warm-snapshot cache (empty unless a search has run in
    /// [`SnapshotMode::Warm`]).
    pub fn snapshot_cache(&self) -> &Arc<SnapshotCache> {
        &self.snapshots
    }

    /// The snapshot mode capacity searches on this engine will use.
    pub fn snapshot_mode(&self) -> SnapshotMode {
        self.snapshot
    }

    /// The engine's run journal: wall-clock and cache accounting for every
    /// probe replication this engine has resolved. Purely observational —
    /// snapshotting or serializing it never affects search results.
    pub fn journal(&self) -> &Arc<RunJournal> {
        &self.journal
    }

    /// Run one configuration to completion, sourcing its library from the
    /// cache. Equivalent to [`run_once`] but skips regeneration when the
    /// sweep has already built this library.
    pub fn run(&self, cfg: &SystemConfig) -> RunReport {
        VodSystem::with_library(cfg.clone(), self.cache.get(cfg)).run()
    }

    /// Run `cfg` once per seed in `seeds`, in parallel, returning reports
    /// in seed order. Byte-identical to the sequential loop
    /// `seeds.iter().map(|&s| run_once(&{cfg with seed s}))` at any thread
    /// count: each run owns its RNG and calendar, and results are slotted
    /// by index.
    pub fn run_replications(&self, cfg: &SystemConfig, seeds: &[u64]) -> Vec<RunReport> {
        fan_out(seeds.len(), self.threads, |i| {
            let mut c = cfg.clone();
            c.seed = seeds[i];
            let lib = self.cache.get(&c);
            VodSystem::with_library(c, lib).run()
        })
    }

    /// Find the maximum glitch-free terminal count for `cfg` (its
    /// `n_terminals` field is ignored) as a bracketed binary search on the
    /// step grid.
    ///
    /// Probe outcomes are assembled per replication from the engine's
    /// [`ProbeCache`], simulating only the pairs it is missing, on the
    /// executor the engine selects (see the
    /// [module docs](self#one-search-loop-three-executors)); the result is
    /// byte-identical whichever executor runs.
    pub fn max_glitch_free_terminals(
        &self,
        cfg: &SystemConfig,
        search: &CapacitySearch,
    ) -> CapacityResult {
        assert!(search.step > 0 && search.lo <= search.hi);
        // Warm forking needs the marginal terminals to join strictly
        // after the snapshot instant. With a zero stagger they would join
        // *at* the BeginMeasure tick and tie-break on schedule sequence —
        // deterministic, but ordered differently from the from-scratch
        // marginal build. Degrade to Cold (same timing, no reuse) rather
        // than diverge.
        let mode = match self.snapshot {
            SnapshotMode::Warm if cfg.timing.stagger == SimDuration::ZERO => SnapshotMode::Cold,
            m => m,
        };
        let (probe_cfg, base) = match mode {
            SnapshotMode::Off => (cfg.clone(), None),
            SnapshotMode::Cold | SnapshotMode::Warm => {
                // Marginal-probe timing: every probe at count `n` starts
                // the base population (the bracket's grid floor) over the
                // legacy stagger window and its `n - base` marginal
                // terminals over one extra stagger window placed
                // immediately before measurement; the warm-up is extended
                // by that window so the base terminals' histories never
                // depend on `n`. See [`VodSystem::with_library_marginal`].
                let mut c = cfg.clone();
                c.timing.warmup += c.timing.stagger;
                let b = (search.lo / search.step).max(1) * search.step;
                (c, Some(b))
            }
        };
        let fp = match base {
            Some(b) => ProbeCache::fingerprint_with_base(&probe_cfg, b),
            None => ProbeCache::fingerprint(&probe_cfg),
        };
        let plan = ProbePlan {
            engine: self,
            cfg: probe_cfg,
            fp,
            base,
            warm: mode == SnapshotMode::Warm,
        };
        let search = SearchLoop::new(&plan, search);
        let pool = self
            .process
            .as_ref()
            .map(|p| ProcessPool::spawn(p.clone().with_telemetry(self.telemetry)));
        let result = match pool {
            Some(Ok(pool)) => search.run(Processes::new(&plan, pool)),
            pool => {
                if let Some(Err(e)) = pool {
                    // Spawning unavailable (missing binary, fork failure):
                    // degrade to the in-process executors rather than fail
                    // the search — the results are byte-identical either way.
                    eprintln!(
                        "spiffi engine: process backend unavailable ({e}); \
                         using in-process execution"
                    );
                }
                if self.threads <= 1 {
                    search.run(Inline::new(&plan))
                } else {
                    std::thread::scope(|s| search.run(Threads::spawn(s, &plan, self.threads)))
                }
            }
        };
        self.journal.record_search(result.speculative_events);
        result
    }

    /// Estimate capacity with the paper's replication-until-confident rule
    /// (see [`capacity_with_confidence`]). The outer loop is inherently
    /// sequential — each replication decides whether another is needed —
    /// but every inner search runs on the engine.
    pub fn capacity_with_confidence(
        &self,
        cfg: &SystemConfig,
        params: &ConfidentCapacity,
    ) -> ConfidentCapacityResult {
        use spiffi_simcore::stats::Welford;
        assert!(params.min_replications >= 2 && params.max_replications >= params.min_replications);
        let mut w = Welford::new();
        let mut estimates = Vec::new();
        let mut converged = false;
        for rep in 0..params.max_replications {
            let mut c = cfg.clone();
            c.seed = replication_seed(cfg.seed, rep);
            let r = self.max_glitch_free_terminals(&c, &params.search);
            estimates.push(r.max_terminals);
            w.add(r.max_terminals as f64);
            if rep + 1 >= params.min_replications
                && w.converged_within(params.confidence, params.tolerance)
            {
                converged = true;
                break;
            }
        }
        let grid = params.search.step.max(1);
        let mean = w.mean();
        ConfidentCapacityResult {
            max_terminals: round_to_grid(mean, grid),
            estimates,
            ci_half_width: w.ci_half_width(params.confidence),
            converged,
        }
    }
}

/// Round a mean capacity estimate to the search grid, defensively.
///
/// The naive `(mean / grid).round() as u32 * grid` has two failure modes:
/// a mean below half a grid step rounds to **zero terminals** (the search
/// itself never reports an on-grid answer of 0 without flagging
/// `below_bracket`), and a huge or non-finite mean saturates the `as u32`
/// cast at `u32::MAX` and then *wraps* in the multiply. Here non-finite
/// means collapse to the grid floor and the result is clamped to
/// `[grid, largest grid-aligned u32]`.
fn round_to_grid(mean: f64, grid: u32) -> u32 {
    let grid = grid.max(1);
    let max_aligned = u32::MAX - u32::MAX % grid;
    if !mean.is_finite() || mean <= 0.0 {
        return grid;
    }
    let steps = (mean / grid as f64).round();
    if steps >= (max_aligned / grid) as f64 {
        return max_aligned;
    }
    (steps as u32).max(1) * grid
}

/// Where the bracketed bisection stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Probing the lower bracket.
    ConfirmLo,
    /// The lower bracket glitched; probing successively smaller counts.
    WalkDown {
        /// The count being probed.
        n: u32,
    },
    /// Probing the upper bracket.
    ConfirmHi,
    /// Bisecting with both brackets confirmed.
    Bisect {
        /// The grid midpoint being probed.
        mid: u32,
    },
    /// The search has its answer.
    Done {
        /// Largest glitch-free count found (0 if none).
        answer: u32,
        /// True if even the smallest on-grid count glitched.
        below_bracket: bool,
    },
}

/// The bracket/walk-down/bisection decision process as a pure state
/// machine: [`SearchCursor::pending`] names the count the search needs
/// probed next, [`SearchCursor::advance`] feeds it that probe's glitch
/// total. Factoring the decisions out of the probe loop is what makes
/// speculation exact — a hypothetical future of the search is just a
/// copied cursor advanced with an assumed outcome — and it replays the
/// legacy sequential loop probe for probe (including the duplicate probe
/// a `lo == hi` bracket performs), which is what keeps the probe
/// sequence byte-identical to the pre-speculative driver.
#[derive(Clone, Copy, Debug)]
struct SearchCursor {
    lo: u32,
    hi: u32,
    step: u32,
    phase: Phase,
}

impl SearchCursor {
    fn new(search: &CapacitySearch) -> Self {
        let grid = |x: u32| (x / search.step).max(1) * search.step;
        let lo = grid(search.lo);
        let hi = grid(search.hi).max(lo);
        SearchCursor {
            lo,
            hi,
            step: search.step,
            phase: Phase::ConfirmLo,
        }
    }

    /// The count the search needs probed next, `None` once answered.
    fn pending(&self) -> Option<u32> {
        match self.phase {
            Phase::ConfirmLo => Some(self.lo),
            Phase::WalkDown { n } => Some(n),
            Phase::ConfirmHi => Some(self.hi),
            Phase::Bisect { mid } => Some(mid),
            Phase::Done { .. } => None,
        }
    }

    /// The answer, `(max_terminals, below_bracket)`.
    ///
    /// # Panics
    /// If the search is not [`Phase::Done`].
    fn answer(&self) -> (u32, bool) {
        match self.phase {
            Phase::Done {
                answer,
                below_bracket,
            } => (answer, below_bracket),
            _ => panic!("capacity search consulted before it finished"),
        }
    }

    /// Feed the pending probe's glitch total and advance the search.
    fn advance(&mut self, glitches: u64) {
        let glitching = glitches > 0;
        self.phase = match self.phase {
            Phase::ConfirmLo => {
                if glitching {
                    Self::walk_down_from(self.lo, self.step)
                } else {
                    Phase::ConfirmHi
                }
            }
            Phase::WalkDown { n } => {
                if glitching {
                    Self::walk_down_from(n, self.step)
                } else {
                    Phase::Done {
                        answer: n,
                        below_bracket: false,
                    }
                }
            }
            Phase::ConfirmHi => {
                if glitching {
                    // Invariant henceforth: lo glitch-free, hi glitches.
                    self.next_mid()
                } else {
                    Phase::Done {
                        answer: self.hi,
                        below_bracket: false,
                    }
                }
            }
            Phase::Bisect { mid } => {
                if glitching {
                    self.hi = mid;
                } else {
                    self.lo = mid;
                }
                self.next_mid()
            }
            Phase::Done { .. } => panic!("capacity search advanced past its answer"),
        };
    }

    /// The phase after count `n` glitched during bracket confirmation or
    /// walk-down. The walk stays on the step grid and stops *at* the
    /// grid's floor (one step): stepping below it would probe off-grid
    /// counts, so an infeasible floor is reported as a distinct
    /// "capacity below bracket" outcome instead.
    fn walk_down_from(n: u32, step: u32) -> Phase {
        debug_assert!(
            n >= step && n.is_multiple_of(step),
            "walk-down left the step grid: n={n} step={step}"
        );
        if n > step {
            Phase::WalkDown { n: n - step }
        } else {
            Phase::Done {
                answer: 0,
                below_bracket: true,
            }
        }
    }

    /// The next bisection phase for the current `lo`/`hi` bracket: probe
    /// the grid midpoint while the bracket is wider than one step and the
    /// midpoint is interior, otherwise settle on `lo`.
    fn next_mid(&self) -> Phase {
        if self.hi - self.lo > self.step {
            let mid = ((self.lo + (self.hi - self.lo) / 2) / self.step).max(1) * self.step;
            if mid > self.lo && mid < self.hi {
                return Phase::Bisect { mid };
            }
        }
        Phase::Done {
            answer: self.lo,
            below_bracket: false,
        }
    }
}

/// What one capacity search probes: the configuration every probe derives
/// from (warm-up already extended under marginal timing), its probe-cache
/// fingerprint, the marginal base count (`None` under
/// [`SnapshotMode::Off`]) and whether probes above the base fork warm
/// snapshots.
struct ProbePlan<'a> {
    engine: &'a Engine,
    cfg: SystemConfig,
    fp: Arc<str>,
    base: Option<u32>,
    warm: bool,
}

impl ProbePlan<'_> {
    /// The configuration of replication `r` at `n` terminals.
    fn config(&self, n: u32, r: u32) -> SystemConfig {
        let mut c = self.cfg.clone();
        c.n_terminals = n;
        c.seed = replication_seed(self.cfg.seed, r);
        c
    }

    /// The base a probe at `n` forks from: set only when warm forking
    /// applies (warm mode, a base in play, terminals beyond it).
    fn fork_base(&self, n: u32) -> Option<u32> {
        self.base.filter(|&b| self.warm && n > b)
    }

    /// The warm base snapshot of replication `r`: the base prefix replayed
    /// once per `(config, base, replication)` and kept in the engine's
    /// [`SnapshotCache`]. Journaled as a capture or a hit on behalf of a
    /// probe at `n` terminals.
    fn base_snapshot(&self, b: u32, n: u32, r: u32) -> Arc<VodSystem> {
        let (snap, hit) = self.engine.snapshots.get_or_capture(&self.fp, b, r, || {
            let c = self.config(b, r);
            let lib = self.engine.cache.get(&c);
            self.timed(PhaseKind::Capture, || {
                let mut sys = VodSystem::with_library_marginal(c, lib, b);
                sys.replay_to_snapshot();
                sys
            })
        });
        self.journal()
            .record_snapshot(hit, n - b, snap.events_processed());
        snap
    }

    /// The assembled system for replication `r` of a probe at `n`
    /// terminals, its library drawn from the cache.
    ///
    /// With a marginal base the system uses marginal-probe timing
    /// ([`VodSystem::with_library_marginal`]); when warm forking applies
    /// it is forked from the base snapshot, so every probe after the first
    /// pays only for its marginal terminals.
    fn probe_system(&self, n: u32, r: u32) -> VodSystem {
        if let Some(b) = self.fork_base(n) {
            let snap = self.base_snapshot(b, n, r);
            return self.timed(PhaseKind::Fork, || snap.fork_to(n));
        }
        let c = self.config(n, r);
        let lib = self.engine.cache.get(&c);
        match self.base {
            Some(b) => VodSystem::with_library_marginal(c, lib, b),
            None => VodSystem::with_library(c, lib),
        }
    }

    /// Simulate replication `r` of a probe at `n` terminals in this
    /// process — every in-process probe runs through here.
    /// `cancel` is shared by the count's replications (a glitching one
    /// truncates its higher-indexed siblings); `abort` is raised once the
    /// search no longer needs the run.
    fn simulate_probe(&self, n: u32, r: u32, cancel: &AtomicU32, abort: &AtomicBool) -> Landed {
        let started = std::time::Instant::now();
        let sys = self.probe_system(n, r);
        let (report, clean) = self.timed(PhaseKind::Simulate, || {
            sys.run_glitch_probe_abortable(cancel, r, abort)
        });
        Landed {
            glitches: report.glitches,
            run: ProbeRun {
                terminals: n,
                replication: r,
                cached: false,
                clean,
                worker: false,
                events: report.events_processed,
                wall_nanos: started.elapsed().as_nanos() as u64,
            },
        }
    }

    /// Run `f`, charging its wall time to `phase` in the engine's journal.
    fn timed<T>(&self, phase: PhaseKind, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.journal()
            .record_phase(phase, t0.elapsed().as_nanos() as u64);
        out
    }

    fn journal(&self) -> &RunJournal {
        &self.engine.journal
    }
}

/// One replication an executor finished: its journal record (`clean`
/// unless a cancel or abort flag truncated the run) and its glitches.
#[derive(Clone, Copy, Debug)]
struct Landed {
    run: ProbeRun,
    glitches: u64,
}

/// How many distinct counts [`SearchLoop::frontier`] may examine per call.
/// The reachable set is naturally small (bisection halves the bracket, so
/// ~log₂ of the grid plus the walk-down), but a bound keeps a pathological
/// grid from turning job selection into the bottleneck.
const MAX_FRONTIER: usize = 256;

/// Where the search loop's `(count, replication)` pairs are simulated.
trait ProbeExecutor {
    /// Pairs the executor could start right now.
    fn idle(&self) -> usize;
    /// Start replication `r` of a probe at `n` terminals.
    fn submit(&mut self, n: u32, r: u32);
    /// Block until a submitted pair lands; `None` when nothing is in flight.
    fn wait(&mut self) -> Option<Landed>;
    /// The search has its answer: abandon speculative work, fold the
    /// executor's own accounting into the engine, and return whatever else
    /// landed meanwhile.
    fn finish(self) -> Vec<Landed>;
}

/// How a memoized outcome reached the search, until [`SearchLoop::drive`]
/// first counts it.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// Served by the engine-wide cache: journaled as a hit when counted.
    Cache,
    /// Simulated for this search: its events stop counting as waste.
    Fresh,
}

/// The one capacity-search loop: drive the authoritative [`SearchCursor`]
/// over every probe whose counted outcome is known, keep the executor fed
/// with the breadth-first frontier of missing pairs, absorb what lands.
/// Counted totals are assembled from clean standalone outcomes in cursor
/// order, so the result does not depend on the executor, its capacity or
/// the order in which pairs land.
struct SearchLoop<'a> {
    plan: &'a ProbePlan<'a>,
    replications: u32,
    cursor: SearchCursor,
    /// Probe log in cursor order: `(count, counted glitch total)`.
    probes: Vec<(u32, u64)>,
    /// Counted events — the deterministic total the result reports.
    counted_events: u64,
    /// Clean outcomes known to this search, memoized so the cache mutex
    /// is touched once per pair.
    memo: HashMap<(u32, u32), ProbeOutcome>,
    /// Memoized pairs not yet counted, by how they arrived.
    uncounted: HashMap<(u32, u32), Source>,
    /// Pairs submitted to the executor that have not landed.
    inflight: HashSet<(u32, u32)>,
    /// Events simulated for this search that it has not counted.
    speculative_events: u64,
}

impl<'a> SearchLoop<'a> {
    fn new(plan: &'a ProbePlan<'a>, search: &CapacitySearch) -> Self {
        SearchLoop {
            plan,
            replications: search.replications,
            cursor: SearchCursor::new(search),
            probes: Vec::new(),
            counted_events: 0,
            memo: HashMap::new(),
            uncounted: HashMap::new(),
            inflight: HashSet::new(),
            speculative_events: 0,
        }
    }

    fn run(mut self, mut exec: impl ProbeExecutor) -> CapacityResult {
        loop {
            self.drive();
            if self.cursor.pending().is_none() {
                break;
            }
            for (n, r) in self.frontier(exec.idle()) {
                self.inflight.insert((n, r));
                exec.submit(n, r);
            }
            let landed = exec
                .wait()
                .expect("an unanswered search always has a pair in flight");
            self.absorb(landed);
        }
        for landed in exec.finish() {
            self.absorb(landed);
        }
        let (max_terminals, below_bracket) = self.cursor.answer();
        CapacityResult {
            max_terminals,
            probes: self.probes,
            events_processed: self.counted_events,
            speculative_events: self.speculative_events,
            below_bracket,
        }
    }

    /// Advance the cursor over every probe whose counted outcome is fully
    /// known, logging probes and counted events exactly as the sequential
    /// loop would. A pair's source is settled the first time it is counted
    /// (a `lo == hi` bracket counts one pair twice).
    fn drive(&mut self) {
        while let Some(n) = self.cursor.pending() {
            let Some((glitches, events, used)) = self.probe_total(n) else {
                return;
            };
            for r in 0..used {
                match self.uncounted.remove(&(n, r)) {
                    Some(Source::Fresh) => self.speculative_events -= self.memo[&(n, r)].events,
                    Some(Source::Cache) => self.plan.journal().record_probe(ProbeRun {
                        terminals: n,
                        replication: r,
                        cached: true,
                        clean: true,
                        worker: false,
                        events: self.memo[&(n, r)].events,
                        wall_nanos: 0,
                    }),
                    None => {}
                }
            }
            self.probes.push((n, glitches));
            self.counted_events += events;
            self.cursor.advance(glitches);
        }
    }

    /// The counted `(glitch total, event total, replications used)` of a
    /// probe at `n`, if every replication outcome it depends on is known:
    /// replications in index order up to and including the first
    /// glitching one.
    fn probe_total(&mut self, n: u32) -> Option<(u64, u64, u32)> {
        let mut glitches = 0u64;
        let mut events = 0u64;
        for r in 0..self.replications {
            let out = self.lookup(n, r)?;
            glitches += out.glitches;
            events += out.events;
            if out.glitches > 0 {
                return Some((glitches, events, r + 1));
            }
        }
        Some((glitches, events, self.replications))
    }

    /// The clean outcome of `(n, r)` if known: this search's memo first,
    /// the engine-wide cache second (pairs cached by earlier searches).
    fn lookup(&mut self, n: u32, r: u32) -> Option<ProbeOutcome> {
        if let Some(&out) = self.memo.get(&(n, r)) {
            return Some(out);
        }
        let out = self.plan.engine.probes.get(&self.plan.fp, n, r)?;
        self.memo.insert((n, r), out);
        self.uncounted.insert((n, r), Source::Cache);
        Some(out)
    }

    /// Up to `capacity` missing pairs that are not in flight, breadth-first
    /// over the cursor's reachable futures: the probe the search is waiting
    /// on first, nearer speculative counts before farther ones (the
    /// glitch branch before the clean one), and within a count the
    /// replications in index order. At capacity 1 with nothing in flight
    /// this is the cursor's own next replication — the sequential search.
    fn frontier(&mut self, capacity: usize) -> Vec<(u32, u32)> {
        let mut picked = Vec::new();
        let mut queue = VecDeque::from([self.cursor]);
        let mut seen: HashSet<u32> = HashSet::new();
        while let Some(cursor) = queue.pop_front() {
            if picked.len() >= capacity {
                break;
            }
            let Some(n) = cursor.pending() else { continue };
            if !seen.insert(n) || seen.len() > MAX_FRONTIER {
                continue;
            }
            let mut known_glitch = false;
            for r in 0..self.replications {
                match self.lookup(n, r) {
                    Some(out) if out.glitches > 0 => {
                        // Higher replications are never counted.
                        known_glitch = true;
                        break;
                    }
                    Some(_) => {}
                    None if self.inflight.contains(&(n, r)) => {}
                    None if picked.len() < capacity => picked.push((n, r)),
                    None => break,
                }
            }
            // Expand the futures this count leads to. When the probe's
            // outcome is already decided (all counted replications known,
            // or any replication known to glitch) only the real branch
            // exists.
            let branches: &[u64] = match self.probe_total(n) {
                Some((glitches, _, _)) => &[glitches],
                None if known_glitch => &[1],
                None => &[1, 0],
            };
            for &glitches in branches {
                let mut next = cursor;
                next.advance(glitches);
                queue.push_back(next);
            }
        }
        picked
    }

    /// Journal a landed replication; a clean one is also cached
    /// engine-wide and memoized.
    fn absorb(&mut self, Landed { run, glitches }: Landed) {
        let (pair, events) = ((run.terminals, run.replication), run.events);
        let engine = self.plan.engine;
        engine.journal.record_probe(run);
        self.inflight.remove(&pair);
        self.speculative_events += events;
        if run.clean {
            let out = ProbeOutcome { glitches, events };
            engine.probes.insert(&self.plan.fp, pair.0, pair.1, out);
            self.memo.insert(pair, out);
            self.uncounted.insert(pair, Source::Fresh);
        }
    }
}

/// One pair at a time on the caller's thread, with fresh cancel and abort
/// flags: nothing truncates the run, so every landing is clean.
struct Inline<'a> {
    plan: &'a ProbePlan<'a>,
    landed: Option<Landed>,
}

impl<'a> Inline<'a> {
    fn new(plan: &'a ProbePlan<'a>) -> Self {
        Inline { plan, landed: None }
    }

    fn run(&self, n: u32, r: u32) -> Landed {
        let cancel = AtomicU32::new(u32::MAX);
        self.plan
            .simulate_probe(n, r, &cancel, &AtomicBool::new(false))
    }
}

impl ProbeExecutor for Inline<'_> {
    fn idle(&self) -> usize {
        usize::from(self.landed.is_none())
    }

    fn submit(&mut self, n: u32, r: u32) {
        debug_assert!(self.landed.is_none(), "inline executor is busy");
        self.landed = Some(self.run(n, r));
    }

    fn wait(&mut self) -> Option<Landed> {
        self.landed.take()
    }

    fn finish(self) -> Vec<Landed> {
        Vec::new()
    }
}

/// A team of scoped worker threads fed by a channel. Replications of one
/// count share a cancel flag, so a glitching replication still truncates
/// its higher-indexed siblings; the search-wide abort flag, raised in
/// [`ProbeExecutor::finish`], makes in-flight speculative runs give up.
struct Threads {
    workers: usize,
    inflight: usize,
    jobs: mpsc::Sender<(u32, u32, Arc<AtomicU32>)>,
    landed: mpsc::Receiver<std::thread::Result<Landed>>,
    cancels: HashMap<u32, Arc<AtomicU32>>,
    abort: Arc<AtomicBool>,
}

impl Threads {
    fn spawn<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        plan: &'env ProbePlan<'env>,
        workers: usize,
    ) -> Self {
        let (jobs, queue) = mpsc::channel::<(u32, u32, Arc<AtomicU32>)>();
        let (done, landed) = mpsc::channel();
        let queue = Arc::new(Mutex::new(queue));
        let abort = Arc::new(AtomicBool::new(false));
        for _ in 0..workers {
            let (queue, done, abort) = (Arc::clone(&queue), done.clone(), Arc::clone(&abort));
            scope.spawn(move || loop {
                // The queue lock is released at the end of this statement,
                // before the run, so workers simulate concurrently.
                let job = queue.lock().expect("job queue poisoned").recv();
                let Ok((n, r, cancel)) = job else { return };
                // A panicking run is handed to the search thread, which
                // re-raises it instead of waiting for a landing forever.
                let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    plan.simulate_probe(n, r, &cancel, &abort)
                }));
                if done.send(ran).is_err() {
                    return;
                }
            });
        }
        Threads {
            workers,
            inflight: 0,
            jobs,
            landed,
            cancels: HashMap::new(),
            abort,
        }
    }
}

impl ProbeExecutor for Threads {
    fn idle(&self) -> usize {
        self.workers - self.inflight
    }

    fn submit(&mut self, n: u32, r: u32) {
        let cancel = self
            .cancels
            .entry(n)
            .or_insert_with(|| Arc::new(AtomicU32::new(u32::MAX)));
        self.jobs
            .send((n, r, Arc::clone(cancel)))
            .expect("search workers outlive the search");
        self.inflight += 1;
    }

    fn wait(&mut self) -> Option<Landed> {
        self.inflight = self.inflight.checked_sub(1)?;
        let ran = self
            .landed
            .recv()
            .expect("search workers outlive the search");
        Some(ran.unwrap_or_else(|panic| resume_unwind(panic)))
    }

    fn finish(self) -> Vec<Landed> {
        self.abort.store(true, Ordering::Relaxed);
        // Closing the job channel lets every worker exit after its current
        // run, which closes the landing channel in turn.
        drop(self.jobs);
        self.landed
            .iter()
            .map(|ran| ran.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }
}

/// A [`ProcessPool`] of `spiffi-worker` children. Warm jobs carry a
/// serialized base snapshot, built once per replication and shipped by the
/// pool once per worker incarnation. A job the pool quarantines — and
/// every job when the pool has no worker at all — runs through [`Inline`]
/// instead. Retries, respawns, shipping and worker telemetry are folded
/// into the engine's journal in [`ProbeExecutor::finish`].
///
/// Every job is a standalone replication (fresh cancel flag, never
/// truncated), so its outcome is the deterministic clean one whichever
/// worker incarnation computed it, or whether the fallback did.
struct Processes<'a> {
    plan: &'a ProbePlan<'a>,
    pool: ProcessPool,
    /// Jobs submitted to the pool that it has not handed back.
    pool_jobs: usize,
    /// Serialized snapshot frames by replication index (the fingerprint
    /// and base are fixed for one search), each built at most once, with
    /// the base prefix's event count for the journal's saved-events
    /// accounting on reuse.
    blobs: HashMap<u32, (Arc<SnapshotBlob>, u64)>,
    fallback: Inline<'a>,
}

impl<'a> Processes<'a> {
    fn new(plan: &'a ProbePlan<'a>, pool: ProcessPool) -> Self {
        Processes {
            plan,
            pool,
            pool_jobs: 0,
            blobs: HashMap::new(),
            fallback: Inline::new(plan),
        }
    }

    /// The serialized base-prefix snapshot frame to ship alongside a job
    /// at `(n, r)`, if warm forking applies. The first consultation per
    /// replication serializes the engine's base snapshot; repeats reuse
    /// the frame. Every consultation is journaled as a snapshot capture or
    /// hit so the warm-path counters stay meaningful under workers.
    fn snapshot_blob(&mut self, n: u32, r: u32) -> Option<Arc<SnapshotBlob>> {
        let b = self.plan.fork_base(n)?;
        if let Some((blob, prefix_events)) = self.blobs.get(&r) {
            self.plan
                .journal()
                .record_snapshot(true, n - b, *prefix_events);
            return Some(Arc::clone(blob));
        }
        let snap = self.plan.base_snapshot(b, n, r);
        let blob = self.plan.timed(PhaseKind::Capture, || {
            Arc::new(SnapshotBlob::new(b, r, &snap.snap_export()))
        });
        self.blobs
            .insert(r, (Arc::clone(&blob), snap.events_processed()));
        Some(blob)
    }
}

impl ProbeExecutor for Processes<'_> {
    fn idle(&self) -> usize {
        match self.pool.idle_workers() {
            0 if self.pool_jobs == 0 => self.fallback.idle(),
            idle => idle,
        }
    }

    fn submit(&mut self, n: u32, r: u32) {
        if self.pool.idle_workers() == 0 {
            // A pool with no worker to take the job.
            return self.fallback.submit(n, r);
        }
        let blob = self.snapshot_blob(n, r);
        self.pool.submit(n, r, self.plan.base, &self.plan.cfg, blob);
        self.pool_jobs += 1;
    }

    fn wait(&mut self) -> Option<Landed> {
        if let Some(landed) = self.fallback.wait() {
            return Some(landed);
        }
        while self.pool_jobs > 0 {
            // `None` with jobs outstanding: the pool quarantined them
            // while dispatching, and hands them back on the next call.
            let Some(resolved) = self.pool.wait_one() else {
                continue;
            };
            self.pool_jobs -= 1;
            let (n, r) = (resolved.terminals, resolved.replication);
            // Quarantined after its attempts: the job is poisoned as far
            // as the pool is concerned, but its outcome is still required
            // and deterministic.
            let Some(out) = resolved.outcome else {
                return Some(self.fallback.run(n, r));
            };
            // With telemetry on, the worker's own span deltas carry a
            // finer-grained simulate wall; without it, the job's reported
            // wall is the best available simulate-phase estimate.
            if self.plan.engine.telemetry.is_none() {
                self.plan
                    .journal()
                    .record_phase(PhaseKind::Simulate, out.wall_nanos);
            }
            return Some(Landed {
                glitches: out.glitches,
                run: ProbeRun {
                    terminals: n,
                    replication: r,
                    cached: false,
                    clean: true,
                    worker: true,
                    events: out.events,
                    wall_nanos: out.wall_nanos,
                },
            });
        }
        None
    }

    /// Fold what the pool observed into the engine: worker activity and
    /// snapshot shipping counters, shipping time as the `ship` phase,
    /// crashed-worker faults with their stderr tails, and telemetry frames
    /// as [`WorkerStream`]s stashed for [`Engine::take_worker_telemetry`],
    /// their journal deltas landing in the per-phase wall-time breakdown.
    /// Purely observational. Jobs still on workers are abandoned with the
    /// pool.
    fn finish(mut self) -> Vec<Landed> {
        let journal = self.plan.journal();
        let pool = &mut self.pool;
        journal.record_worker_activity(pool.retries(), pool.respawns(), pool.quarantined());
        journal.record_snapshot_shipping(pool.snapshot_bytes_shipped(), pool.worker_forks());
        journal.record_phase(PhaseKind::Ship, pool.ship_nanos());
        for fault in pool.take_faults() {
            journal.record_worker_fault(fault);
        }
        let telemetry = pool.take_telemetry();
        let dropped = pool.telemetry_dropped();
        let frames = telemetry.len() as u64;
        let mut samples_total = 0u64;
        let mut streams = Vec::with_capacity(telemetry.len());
        for wt in telemetry {
            let rec = wt.record;
            samples_total += rec.samples.len() as u64;
            let d = &rec.delta;
            journal.record_phase(PhaseKind::Import, d.import_wall_nanos);
            journal.record_phase(PhaseKind::Fork, d.fork_wall_nanos);
            journal.record_phase(PhaseKind::Simulate, d.simulate_wall_nanos);
            streams.push(WorkerStream {
                terminals: wt.terminals,
                replication: wt.replication,
                slot: wt.slot,
                gen: wt.gen,
                interval: SimDuration(rec.interval_ns),
                report_disk_utilization: d.avg_disk_utilization,
                glitches: d.glitches,
                samples: rec
                    .samples
                    .into_iter()
                    .map(|s| SampleRow {
                        t: SimTime(s.t_ns),
                        disk_util: s.disk_util,
                        net_bytes: s.net_bytes,
                        pool_in_use: s.pool_in_use,
                        outstanding_deadlines: s.outstanding_deadlines,
                    })
                    .collect(),
                spans: rec
                    .spans
                    .into_iter()
                    .map(|sp| StreamSpan {
                        label: sp.label,
                        sim_start: SimTime(sp.sim_start),
                        sim_end: SimTime(sp.sim_end),
                        wall_nanos: sp.wall_nanos,
                    })
                    .collect(),
            });
        }
        journal.record_telemetry(frames, samples_total, dropped);
        self.plan
            .engine
            .worker_telemetry
            .lock()
            .unwrap()
            .append(&mut streams);
        Vec::new()
    }
}

/// Parameters of the capacity search.
#[derive(Clone, Debug)]
pub struct CapacitySearch {
    /// Lower bracket (must normally be feasible).
    pub lo: u32,
    /// Upper bracket (should be infeasible).
    pub hi: u32,
    /// Terminal-count granularity of the answer (the paper reports to
    /// about 5 terminals).
    pub step: u32,
    /// Independent replications (seeds) per probe; all must be glitch-free.
    pub replications: u32,
}

impl Default for CapacitySearch {
    fn default() -> Self {
        CapacitySearch {
            lo: 10,
            hi: 400,
            step: 5,
            replications: 2,
        }
    }
}

/// Outcome of a capacity search.
#[derive(Clone, Debug)]
pub struct CapacityResult {
    /// Largest probed terminal count (on the step grid) with zero glitches
    /// across all replications.
    pub max_terminals: u32,
    /// Every probe performed: (terminal count, glitches). An infeasible
    /// probe short-circuits at its first glitch, so the count records the
    /// deterministic glitches of the lowest-indexed glitching replication
    /// (zero/non-zero is the capacity criterion; magnitudes beyond the
    /// first glitch are not comparable across search strategies).
    pub probes: Vec<(u32, u64)>,
    /// Simulation events attributable to the search — for each probe, the
    /// replications up to and including the first glitching one. Like the
    /// glitch counts, identical at any thread count — and independent of
    /// the probe cache: a cache-served replication contributes the events
    /// its original run processed.
    pub events_processed: u64,
    /// Simulation events this call executed that the search did not
    /// count: speculative probes of counts never visited, replications
    /// cancelled by a glitching sibling, and runs abandoned when the
    /// search finished. Unlike every other field this is a wall-clock
    /// artifact — it varies with thread count and cache warmth (exactly 0
    /// at one thread or on a fully warm cache) — and is reported only so
    /// harnesses can weigh speedup against speculation waste.
    pub speculative_events: u64,
    /// True if even the smallest count on the step grid glitched: the
    /// walk-down exhausted the grid without finding a feasible count, so
    /// `max_terminals` is 0 and the real capacity lies below the
    /// searchable bracket.
    pub below_bracket: bool,
}

/// Find the maximum glitch-free terminal count for `cfg` (its
/// `n_terminals` field is ignored).
///
/// Convenience wrapper constructing a transient [`Engine`] with the
/// ambient [`engine_threads`] budget; sweeps should hold their own engine
/// so the library cache persists across grid points.
pub fn max_glitch_free_terminals(cfg: &SystemConfig, search: &CapacitySearch) -> CapacityResult {
    Engine::new().max_glitch_free_terminals(cfg, search)
}

/// Run `cfg` once per seed in `seeds`, in parallel, returning reports in
/// seed order — a convenience wrapper over [`Engine::run_replications`]
/// with the ambient thread budget.
pub fn run_replications(cfg: &SystemConfig, seeds: &[u64]) -> Vec<RunReport> {
    Engine::new().run_replications(cfg, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiffi_simcore::SimDuration;

    /// A deliberately tiny configuration so capacity lands in single
    /// digits and the search completes in well under a second. Server
    /// memory is kept far below the working set (the paper's regime:
    /// videos are much larger than memory, so caching cannot substitute
    /// for disk bandwidth), and the library is large and uniformly
    /// accessed so near-simultaneous starts rarely share a stream —
    /// otherwise inadvertent piggybacking (§8.2) masks the disk limit.
    fn tiny() -> SystemConfig {
        let mut c = SystemConfig::small_test();
        c.topology = spiffi_layout::Topology {
            nodes: 1,
            disks_per_node: 1,
        };
        c.n_videos = 40;
        c.access = spiffi_mpeg::AccessPattern::Uniform;
        c.video.duration = SimDuration::from_secs(60);
        c.server_memory_bytes = 16 * 1024 * 1024;
        c.timing.stagger = SimDuration::from_secs(5);
        c.timing.warmup = SimDuration::from_secs(10);
        c.timing.measure = SimDuration::from_secs(30);
        c
    }

    #[test]
    fn replication_seeds_spread_across_the_full_seed_space() {
        // Regression: the capacity-search probe used to decorrelate with a
        // *truncated* 32-bit golden-ratio constant while the confidence
        // loop used the full 64-bit one, so the two replication schemes
        // produced unrelated (and in the probe's case, weakly spread)
        // seeds. The shared helper must use the full 64-bit constant.
        assert!(
            replication_seed(0, 0) > u32::MAX as u64,
            "seed {:#x} fits in 32 bits — truncated multiplier",
            replication_seed(0, 0)
        );
        // Distinct replications map to distinct seeds, none equal to the
        // base (a replication must never repeat the un-replicated run).
        let base = 0x5b1ff1;
        let seeds: Vec<u64> = (0..8).map(|r| replication_seed(base, r)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_ne!(a, base);
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Wrapping, not panicking, at the top of the seed space.
        let _ = replication_seed(u64::MAX, u32::MAX);
    }

    #[test]
    fn snapshot_mode_env_values_parse_or_error() {
        // Accepted spellings, case-insensitive where worded.
        for off in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("off"),
            Some("OFF"),
        ] {
            assert_eq!(parse_snapshot_mode(off), Ok(SnapshotMode::Off), "{off:?}");
        }
        for warm in [Some("1"), Some("warm"), Some(" Warm ")] {
            assert_eq!(
                parse_snapshot_mode(warm),
                Ok(SnapshotMode::Warm),
                "{warm:?}"
            );
        }
        for cold in [Some("cold"), Some("COLD")] {
            assert_eq!(
                parse_snapshot_mode(cold),
                Ok(SnapshotMode::Cold),
                "{cold:?}"
            );
        }
        // Regression: unknown values used to map silently to Off, turning
        // a typo like SPIFFI_SNAPSHOT=2 into a disabled warm path. They
        // must be rejected (the env reader exits with a diagnostic).
        for bad in ["2", "warmish", "on", "true"] {
            assert_eq!(parse_snapshot_mode(Some(bad)), Err(bad.to_string()));
        }
    }

    #[test]
    fn telemetry_env_values_parse_or_error() {
        for off in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("off"),
            Some("OFF"),
        ] {
            assert_eq!(parse_telemetry_env(off), Ok(None), "{off:?}");
        }
        // Milliseconds in, nanoseconds out.
        assert_eq!(parse_telemetry_env(Some("1")), Ok(Some(1_000_000)));
        assert_eq!(parse_telemetry_env(Some(" 250 ")), Ok(Some(250_000_000)));
        // Garbage (including values that would overflow the ms→ns
        // conversion) is rejected, not silently disabled.
        for bad in ["-1", "fast", "1.5", "1s", "99999999999999999999"] {
            assert_eq!(parse_telemetry_env(Some(bad)), Err(bad.trim().to_string()));
        }
    }

    #[test]
    fn engine_threads_respects_the_env_override() {
        // `engine_threads` reads the environment on every call; tests that
        // need a fixed budget use `Engine::with_threads` instead, so here
        // we only check the parse without mutating the process env.
        assert!(engine_threads() >= 1);
    }

    #[test]
    fn round_to_grid_is_clamped_and_total() {
        // Ordinary rounding stays on the grid.
        assert_eq!(round_to_grid(12.4, 5), 10);
        assert_eq!(round_to_grid(12.6, 5), 15);
        assert_eq!(round_to_grid(40.0, 5), 40);
        // Regression: a sub-half-step mean used to round to 0 terminals,
        // an answer the search itself can never produce on-grid.
        assert_eq!(round_to_grid(1.0, 5), 5);
        assert_eq!(round_to_grid(2.4, 5), 5);
        assert_eq!(round_to_grid(0.0, 5), 5);
        // Regression: a huge mean used to saturate the `as u32` cast at
        // u32::MAX and then *wrap* in the `* grid` multiply. Saturate at
        // the largest grid-aligned count instead.
        assert_eq!(round_to_grid(1e20, 5), u32::MAX); // u32::MAX is a multiple of 5
        assert_eq!(round_to_grid(1e20, 4), u32::MAX - u32::MAX % 4);
        assert_eq!(round_to_grid(f64::INFINITY, 7), 7);
        // Non-finite and negative means collapse to the grid floor.
        assert_eq!(round_to_grid(f64::NAN, 5), 5);
        assert_eq!(round_to_grid(-3.0, 5), 5);
        // A zero grid is repaired, never a divide-by-zero.
        assert_eq!(round_to_grid(3.0, 0), 3);
    }

    #[test]
    fn fan_out_slots_results_by_index() {
        for threads in [1, 2, 8] {
            let out = fan_out(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_once_is_deterministic() {
        let mut c = tiny();
        c.n_terminals = 4;
        let a = run_once(&c);
        let b = run_once(&c);
        assert_eq!(a.glitches, b.glitches);
        assert_eq!(a.blocks_delivered, b.blocks_delivered);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.videos_completed, b.videos_completed);
    }

    #[test]
    fn lightly_loaded_run_is_glitch_free() {
        let mut c = tiny();
        c.n_terminals = 2;
        let r = run_once(&c);
        assert!(
            r.glitch_free(),
            "2 terminals on a disk glitched: {}",
            r.summary()
        );
        assert!(r.blocks_delivered > 0, "no data flowed");
    }

    #[test]
    fn overloaded_run_glitches() {
        // One ST15150N sustains ~14 concurrent 4 Mbit/s streams at best;
        // 40 terminals must glitch.
        let mut c = tiny();
        c.n_terminals = 40;
        let r = run_once(&c);
        assert!(!r.glitch_free(), "40 terminals on one disk cannot be clean");
    }

    #[test]
    fn capacity_search_brackets_the_knee() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 40,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        // A single drive at ~85 ms per 512 KB random read supports roughly
        // 10-14 streams; the search must land in a plausible band.
        assert!(
            (4..=20).contains(&r.max_terminals),
            "implausible capacity {} (probes {:?})",
            r.max_terminals,
            r.probes
        );
        // Monotonicity of the probe outcomes around the answer.
        for &(n, g) in &r.probes {
            if n <= r.max_terminals {
                assert_eq!(g, 0, "probe at {n} glitched below the answer");
            }
        }
        assert!(r.events_processed > 0);
    }

    #[test]
    fn search_handles_infeasible_lower_bracket() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 38,
            hi: 40,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert!(r.max_terminals < 38);
    }

    #[test]
    fn search_handles_feasible_upper_bracket() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 1,
            hi: 3,
            step: 1,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 3, "upper bracket was feasible");
    }

    #[test]
    fn engine_run_matches_run_once_and_caches() {
        let mut c = tiny();
        c.n_terminals = 3;
        let engine = Engine::with_threads(2);
        let a = engine.run(&c);
        let b = engine.run(&c);
        assert_eq!(a, b);
        assert_eq!(a, run_once(&c));
        assert_eq!(engine.cache().misses(), 1, "second run must hit the cache");
    }

    #[test]
    fn search_reports_capacity_below_bracket() {
        // One disk cannot feed 30 terminals, and with a 30-wide grid the
        // walk-down has nowhere to go: the search must say so explicitly
        // rather than hand back an indistinguishable 0.
        let c = tiny();
        let s = CapacitySearch {
            lo: 30,
            hi: 60,
            step: 30,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 0);
        assert!(r.below_bracket, "walk-down exhausted the grid");
        assert_eq!(r.probes.len(), 1, "only the grid floor is probeable");
        assert_eq!(r.probes[0].0, 30);
        assert!(r.probes[0].1 > 0);

        // A search that finds a feasible count must not raise the flag.
        let ok = max_glitch_free_terminals(
            &c,
            &CapacitySearch {
                lo: 2,
                hi: 40,
                step: 2,
                replications: 1,
            },
        );
        assert!(!ok.below_bracket);
        assert!(ok.max_terminals > 0);
    }

    #[test]
    fn degenerate_bracket_probes_twice_like_the_legacy_loop() {
        // lo == hi after gridding: the legacy loop probed the count once
        // as the lower bracket and once as the upper, logging two probes
        // and counting the events twice. The cursor replays that shape
        // (the cache makes the second probe free, but the log and the
        // counted totals must not change).
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 2,
            step: 2,
            replications: 1,
        };
        let r = max_glitch_free_terminals(&c, &s);
        assert_eq!(r.max_terminals, 2);
        assert_eq!(r.probes.len(), 2, "bracket confirmation probes both ends");
        assert_eq!(r.probes[0], r.probes[1]);
        assert_eq!(r.events_processed % 2, 0);
    }

    #[test]
    fn repeated_search_is_served_from_the_probe_cache() {
        let c = tiny();
        let s = CapacitySearch {
            lo: 2,
            hi: 40,
            step: 2,
            replications: 2,
        };
        let engine = Engine::with_threads(1);
        let cold = engine.max_glitch_free_terminals(&c, &s);
        let cached_pairs = engine.probe_cache().len();
        assert!(cached_pairs > 0, "clean outcomes must be cached");
        let warm = engine.max_glitch_free_terminals(&c, &s);
        assert_eq!(cold.max_terminals, warm.max_terminals);
        assert_eq!(cold.probes, warm.probes);
        assert_eq!(cold.events_processed, warm.events_processed);
        assert_eq!(warm.speculative_events, 0);
        assert_eq!(
            engine.probe_cache().len(),
            cached_pairs,
            "a warm search must not simulate (and cache) new pairs"
        );
    }

    /// A legacy-timing plan over `engine`'s (empty) probe cache.
    fn plain_plan(engine: &Engine) -> ProbePlan<'_> {
        let fp = Arc::from("frontier");
        ProbePlan {
            engine,
            cfg: tiny(),
            fp,
            base: None,
            warm: false,
        }
    }

    #[test]
    fn frontier_yields_pending_then_glitch_branch_then_clean_branch() {
        let engine = Engine::with_threads(1);
        let plan = plain_plan(&engine);
        let search = CapacitySearch {
            lo: 20,
            hi: 60,
            step: 10,
            replications: 2,
        };
        let mut s = SearchLoop::new(&plan, &search);
        // Capacity 1: exactly the cursor's own pending pair.
        assert_eq!(s.frontier(1), vec![(20, 0)]);
        assert!(s.frontier(0).is_empty());
        // Wider: the pending count's replications, then the walk-down
        // count its glitch would lead to, then the upper bracket its
        // clean outcome would lead to.
        assert_eq!(
            s.frontier(6),
            vec![(20, 0), (20, 1), (10, 0), (10, 1), (60, 0), (60, 1)]
        );
        // In-flight pairs are never yielded again.
        s.inflight.insert((20, 0));
        s.inflight.insert((10, 1));
        assert_eq!(s.frontier(1), vec![(20, 1)]);
        assert_eq!(s.frontier(4), vec![(20, 1), (10, 0), (60, 0), (60, 1)]);
        assert!(engine.probe_cache().is_empty());
    }

    #[test]
    fn frontier_examines_at_most_max_frontier_counts() {
        let engine = Engine::with_threads(1);
        let plan = plain_plan(&engine);
        let search = CapacitySearch {
            lo: 1,
            hi: 1 << 20,
            step: 1,
            replications: 1,
        };
        let picked = SearchLoop::new(&plan, &search).frontier(usize::MAX);
        let counts: HashSet<u32> = picked.iter().map(|&(n, _)| n).collect();
        assert_eq!(counts.len(), picked.len(), "one replication per count");
        assert_eq!(counts.len(), MAX_FRONTIER);
    }

    #[test]
    fn confident_capacity_replicates_and_converges() {
        let params = ConfidentCapacity {
            search: CapacitySearch {
                lo: 2,
                hi: 40,
                step: 2,
                replications: 1,
            },
            min_replications: 3,
            max_replications: 6,
            ..ConfidentCapacity::default()
        };
        let r = capacity_with_confidence(&tiny(), &params);
        assert!(r.estimates.len() >= 3);
        assert!(r.estimates.len() <= 6);
        assert!((4..=24).contains(&r.max_terminals), "capacity {r:?}");
        // The answer lies on the step grid.
        assert_eq!(r.max_terminals % 2, 0);
        // Per-seed estimates bracket the reported mean.
        let min = *r.estimates.iter().min().unwrap();
        let max = *r.estimates.iter().max().unwrap();
        assert!(min <= r.max_terminals && r.max_terminals <= max + 2);
        if r.converged {
            assert!(r.ci_half_width <= 0.05 * r.max_terminals as f64 + 1e-9);
        }
    }
}

/// The paper's §7.1 stopping rule: "we ran each experiment until we were
/// 90% confident that the results were within 5% (about 10 terminals) of
/// the actual maximum number of terminals."
///
/// Runs [`max_glitch_free_terminals`] once per seed, accumulating the
/// per-seed capacity estimates, until the confidence interval on their
/// mean shrinks inside `tolerance` (or `max_replications` is reached).
#[derive(Clone, Debug)]
pub struct ConfidentCapacity {
    /// Per-probe search parameters (replications inside each search should
    /// be 1; the outer loop provides replication).
    pub search: CapacitySearch,
    /// Confidence level (the paper uses 90%).
    pub confidence: spiffi_simcore::stats::Confidence,
    /// Relative half-width target (the paper uses 5%).
    pub tolerance: f64,
    /// Lower bound on replications before the rule may stop.
    pub min_replications: u32,
    /// Upper bound on replications.
    pub max_replications: u32,
}

impl Default for ConfidentCapacity {
    fn default() -> Self {
        ConfidentCapacity {
            search: CapacitySearch {
                replications: 1,
                ..CapacitySearch::default()
            },
            confidence: spiffi_simcore::stats::Confidence::P90,
            tolerance: 0.05,
            min_replications: 3,
            max_replications: 10,
        }
    }
}

/// Result of a confidence-replicated capacity estimate.
#[derive(Clone, Debug)]
pub struct ConfidentCapacityResult {
    /// Mean capacity across replications, rounded to the search grid.
    pub max_terminals: u32,
    /// Per-replication capacity estimates.
    pub estimates: Vec<u32>,
    /// Half-width of the confidence interval at the configured level.
    pub ci_half_width: f64,
    /// True if the tolerance was met before `max_replications`.
    pub converged: bool,
}

/// Estimate capacity with the paper's replication-until-confident rule —
/// a convenience wrapper over [`Engine::capacity_with_confidence`] with
/// the ambient thread budget.
pub fn capacity_with_confidence(
    cfg: &SystemConfig,
    params: &ConfidentCapacity,
) -> ConfidentCapacityResult {
    Engine::new().capacity_with_confidence(cfg, params)
}
