//! Seed-keyed caching of generated video libraries.
//!
//! Library generation draws an exponential frame-size sample per frame of
//! every title and dominates the cost of building a [`VodSystem`]. The
//! library depends only on a handful of configuration fields — the seed,
//! the title count, the per-title stream parameters, and whether §8.1
//! search versions are stored — so every experiment grid that varies
//! schedulers, memory sizes, stripe sizes or terminal counts regenerates
//! the *same* libraries at every grid point. A [`LibraryCache`] shared
//! across a sweep generates each distinct library once and hands out
//! cheap [`Arc`] clones.
//!
//! The cache is `Sync`: the parallel experiment engine's workers
//! ([`Engine`](crate::Engine)) share one cache. Each key holds a
//! `OnceLock`, so a library is generated exactly once and concurrent
//! requesters for the same key wait for it instead of generating a copy.
//!
//! [`ProbeCache`] applies the same idea one level up: a capacity search
//! probes the same `(terminal count, replication)` pairs over and over —
//! the bracket confirmation re-probes a count the bisection later visits,
//! `hi == lo` brackets probe one count twice, and repeated searches over
//! one configuration repeat everything — so every *clean* per-replication
//! probe outcome is cached under `(config fingerprint, count, replication)`
//! and replayed instead of re-simulated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use spiffi_mpeg::Library;
use spiffi_simcore::snap::SnapWriter;

use crate::config::SystemConfig;
use crate::system::VodSystem;

/// The configuration fields [`VodSystem::generate_library`] actually reads,
/// collapsed into a hashable identity. Two configurations with equal keys
/// generate byte-identical libraries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LibraryKey {
    seed: u64,
    n_videos: usize,
    bit_rate_bps: u64,
    fps: u32,
    duration_ns: u64,
    search_speedup: Option<u32>,
    /// Bitrate-heterogeneity from a fault scenario, as `(every, bps)`:
    /// every k-th title is regenerated at an alternate bitrate, so two
    /// configurations differing only in mix must not share a library.
    mix: Option<(u32, u64)>,
}

impl LibraryKey {
    /// The library identity of `cfg`.
    pub fn of(cfg: &SystemConfig) -> Self {
        LibraryKey {
            seed: cfg.seed,
            n_videos: cfg.n_videos,
            bit_rate_bps: cfg.video.bit_rate_bps,
            fps: cfg.video.fps,
            duration_ns: cfg.video.duration.0,
            search_speedup: cfg.search_speedup,
            mix: cfg
                .scenario
                .as_ref()
                .and_then(|s| s.mix)
                .map(|m| (m.every, m.bit_rate_bps)),
        }
    }
}

/// A thread-safe, seed-keyed cache of generated libraries.
#[derive(Debug, Default)]
pub struct LibraryCache {
    map: Mutex<HashMap<LibraryKey, Arc<OnceLock<Arc<Library>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LibraryCache {
    /// An empty cache.
    pub fn new() -> Self {
        LibraryCache::default()
    }

    /// The library for `cfg`, generated on first request and shared
    /// afterwards. Generation runs outside the map lock, so other keys stay
    /// serviceable meanwhile; callers asking for the same key wait for the
    /// one generating it.
    pub fn get(&self, cfg: &SystemConfig) -> Arc<Library> {
        let cell = {
            let mut map = self.map.lock().unwrap();
            Arc::clone(map.entry(LibraryKey::of(cfg)).or_default())
        };
        let mut generated = false;
        let lib = Arc::clone(cell.get_or_init(|| {
            generated = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            Arc::new(VodSystem::generate_library(cfg))
        }));
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        lib
    }

    /// Distinct libraries currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to generate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// The deterministic standalone outcome of one replication of a capacity
/// probe: what [`VodSystem::run_glitch_probe`] reports when the run
/// completes *cleanly* — to its own first measured glitch, or to the end
/// of the measurement window — without being truncated by a sibling's
/// cancel flag or a search abort. Truncated outcomes are wall-clock
/// artifacts and must never enter the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Glitches measured before the run stopped (0 = glitch-free window).
    pub glitches: u64,
    /// Simulation events the replication processed before stopping.
    pub events: u64,
}

/// Cache key: `(config fingerprint, terminal count, replication index)`.
type ProbeKey = (Arc<str>, u32, u32);

/// A search-wide, thread-safe cache of per-replication probe outcomes,
/// keyed by `(config fingerprint, terminal count, replication index)`.
///
/// The engine consults it before simulating any `(count, replication)`
/// pair and inserts every clean outcome, so no pair is ever simulated
/// twice for one configuration — within a search, across the bracket /
/// bisection phases, and across repeated searches (e.g. the outer
/// [`capacity_with_confidence`](crate::capacity_with_confidence) loop run
/// twice, or a warm re-measurement in a bench harness). Concurrent
/// duplicate insertion is harmless: clean outcomes are deterministic, so
/// racers insert equal values.
#[derive(Debug, Default)]
pub struct ProbeCache {
    map: Mutex<HashMap<ProbeKey, ProbeOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProbeCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProbeCache::default()
    }

    /// The probe identity of `cfg`: its canonical
    /// [`SystemConfig::snap_export`] encoding with `n_terminals` (which
    /// each probe overrides with its candidate count) zeroed, interned.
    ///
    /// The codec names every field and carries floats as bit patterns, so
    /// two configurations with equal fingerprints are bit-identical as
    /// probe inputs — equal fingerprints really do imply equal outcomes.
    pub fn fingerprint(cfg: &SystemConfig) -> Arc<str> {
        Arc::from(Self::canonical(cfg, SnapWriter::new()))
    }

    /// [`ProbeCache::fingerprint`] for marginal-timing probes: the base
    /// terminal count is part of a probe's identity under
    /// [`VodSystem::with_library_marginal`] semantics (it decides which
    /// terminals join late), so it is prefixed onto the fingerprint.
    /// Marginal outcomes therefore never mix with standard-timing outcomes
    /// for the same configuration, even before the warm-up transform is
    /// taken into account.
    pub fn fingerprint_with_base(cfg: &SystemConfig, base: u32) -> Arc<str> {
        let mut w = SnapWriter::new();
        w.u32("fbase", base);
        Arc::from(Self::canonical(cfg, w))
    }

    fn canonical(cfg: &SystemConfig, mut w: SnapWriter) -> String {
        let mut c = cfg.clone();
        c.n_terminals = 0;
        c.snap_export(&mut w);
        w.finish()
    }

    /// The cached outcome for replication `r` of a probe at `n` terminals,
    /// if a clean run has been recorded.
    pub fn get(&self, fp: &Arc<str>, n: u32, r: u32) -> Option<ProbeOutcome> {
        let got = self
            .map
            .lock()
            .unwrap()
            .get(&(Arc::clone(fp), n, r))
            .copied();
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Record the clean outcome for replication `r` at `n` terminals.
    pub fn insert(&self, fp: &Arc<str>, n: u32, r: u32, out: ProbeOutcome) {
        self.map.lock().unwrap().insert((Arc::clone(fp), n, r), out);
    }

    /// Distinct `(fingerprint, count, replication)` outcomes cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Cache key: `(marginal fingerprint, base terminal count, replication)`.
type SnapshotKey = (Arc<str>, u32, u32);

/// A search-wide, thread-safe cache of warm simulation snapshots: one
/// [`VodSystem`] per `(marginal fingerprint, base count, replication)`,
/// captured at the snapshot boundary by replaying the shared base warm-up
/// once. Probing `n > base` terminals then costs one
/// [`VodSystem::fork_to`] (a deep clone plus Δterminals join events) and
/// the measurement window — O(Δterminals) instead of re-simulating the
/// whole warm-up.
///
/// As in [`LibraryCache`], each key holds a `OnceLock`: a capture replays
/// a full warm-up, so concurrent requesters block on the single capturing
/// thread instead of burning a core each on identical replays.
#[derive(Default)]
pub struct SnapshotCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<HashMap<SnapshotKey, Arc<OnceLock<Arc<VodSystem>>>>>,
    captures: AtomicU64,
    hits: AtomicU64,
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache")
            .field("snapshots", &self.len())
            .field("captures", &self.captures())
            .field("hits", &self.hits())
            .finish()
    }
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        SnapshotCache::default()
    }

    /// The snapshot for replication `r` of the `base`-terminal warm-up,
    /// capturing it via `build` on first request. Returns the shared
    /// snapshot and whether it was served warm (`true` = no replay ran on
    /// this call's behalf).
    pub fn get_or_capture(
        &self,
        fp: &Arc<str>,
        base: u32,
        r: u32,
        build: impl FnOnce() -> VodSystem,
    ) -> (Arc<VodSystem>, bool) {
        let cell = {
            let mut map = self.map.lock().unwrap();
            Arc::clone(map.entry((Arc::clone(fp), base, r)).or_default())
        };
        let mut warm = true;
        let snap = Arc::clone(cell.get_or_init(|| {
            warm = false;
            self.captures.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        }));
        if warm {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (snap, warm)
    }

    /// Distinct snapshots captured and held.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// True when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from an already-captured snapshot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Warm-up replays actually performed.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_identity_hits_different_seed_misses() {
        let cache = LibraryCache::new();
        let cfg = SystemConfig::small_test();
        let a = cache.get(&cfg);
        let b = cache.get(&cfg);
        assert!(Arc::ptr_eq(&a, &b), "second request must share");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let mut other = cfg.clone();
        other.seed = cfg.seed + 1;
        let c = cache.get(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different seed, different library");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_requests_for_one_key_generate_once() {
        const THREADS: usize = 6;
        let cache = LibraryCache::new();
        let cfg = SystemConfig::small_test();
        let barrier = std::sync::Barrier::new(THREADS);
        let libs: Vec<Arc<Library>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get(&cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "library generated more than once");
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert!(libs.iter().all(|l| Arc::ptr_eq(l, &libs[0])));
    }

    #[test]
    fn key_ignores_non_library_fields() {
        let cfg = SystemConfig::small_test();
        let mut variant = cfg.clone();
        variant.n_terminals += 100;
        variant.stripe_bytes *= 2;
        variant.server_memory_bytes *= 2;
        assert_eq!(LibraryKey::of(&cfg), LibraryKey::of(&variant));

        let mut longer = cfg.clone();
        longer.video.duration = longer.video.duration + longer.video.duration;
        assert_ne!(LibraryKey::of(&cfg), LibraryKey::of(&longer));

        // A bitrate mix regenerates titles, so it must change the key —
        // but a scenario carrying only faults must not.
        let mut mixed = cfg.clone();
        mixed.scenario = Some(crate::scenario::Scenario {
            mix: Some(crate::scenario::BitrateMix {
                every: 4,
                bit_rate_bps: 15_000_000,
            }),
            ..Default::default()
        });
        assert_ne!(LibraryKey::of(&cfg), LibraryKey::of(&mixed));
        let mut faulted = cfg.clone();
        faulted.scenario = Some(crate::scenario::Scenario::default());
        assert_eq!(LibraryKey::of(&cfg), LibraryKey::of(&faulted));
    }

    #[test]
    fn probe_cache_roundtrip_and_counters() {
        let cache = ProbeCache::new();
        let fp = ProbeCache::fingerprint(&SystemConfig::small_test());
        assert!(cache.is_empty());
        assert_eq!(cache.get(&fp, 10, 0), None);
        let out = ProbeOutcome {
            glitches: 3,
            events: 12345,
        };
        cache.insert(&fp, 10, 0, out);
        assert_eq!(cache.get(&fp, 10, 0), Some(out));
        // Count and replication are both part of the key.
        assert_eq!(cache.get(&fp, 10, 1), None);
        assert_eq!(cache.get(&fp, 15, 0), None);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn probe_fingerprint_ignores_terminal_count_only() {
        use crate::config::{InitialPosition, PauseConfig};
        use crate::scenario::{BitrateMix, FaultSpec, Scenario};
        use spiffi_bufferpool::PolicyKind;
        use spiffi_layout::Placement;
        use spiffi_mpeg::AccessPattern;
        use spiffi_prefetch::PrefetchKind;
        use spiffi_sched::SchedulerKind;
        use spiffi_simcore::SimDuration;

        let secs = SimDuration::from_secs;
        // A base with every optional field present and every enum on a
        // payload-carrying arm, so each payload value can be mutated.
        let mut base = SystemConfig::small_test();
        base.placement = Placement::StripeGroup { width: 2 };
        base.scheduler = SchedulerKind::RealTime {
            classes: 3,
            spacing: secs(4),
        };
        base.prefetch = PrefetchKind::Delayed {
            processes: 2,
            max_advance: secs(8),
        };
        base.pause = Some(PauseConfig::default());
        base.piggyback_delay = Some(secs(300));
        base.search_speedup = Some(10);
        base.scenario = Some(Scenario {
            faults: vec![
                FaultSpec::DiskDeath {
                    node: 0,
                    disk: 1,
                    at: secs(20),
                },
                FaultSpec::DiskDegrade {
                    node: 1,
                    disk: 0,
                    at: secs(5),
                    dur: secs(10),
                    factor_pct: 200,
                },
                FaultSpec::AbandonBurst {
                    at: secs(25),
                    every: 3,
                },
            ],
            mix: Some(BitrateMix {
                every: 4,
                bit_rate_bps: 15_000_000,
            }),
        });
        // Naming every field keeps this list honest: a new field fails to
        // compile here until it has a mutation below.
        let SystemConfig {
            topology: _,
            n_videos: _,
            video: _,
            access: _,
            placement: _,
            stripe_bytes: _,
            server_memory_bytes: _,
            terminal_memory_bytes: _,
            n_terminals: _,
            scheduler: _,
            policy: _,
            prefetch: _,
            disk: _,
            cpu: _,
            pause: _,
            piggyback_delay: _,
            search_speedup: _,
            initial_position: _,
            timing: _,
            seed: _,
            scenario: _,
        } = &base;
        fn scn(c: &mut SystemConfig) -> &mut Scenario {
            c.scenario.as_mut().expect("base has a scenario")
        }
        type Mutation = (&'static str, fn(&mut SystemConfig));
        let mutations: &[Mutation] = &[
            ("topology.nodes", |c| c.topology.nodes += 1),
            ("topology.disks_per_node", |c| {
                c.topology.disks_per_node += 1
            }),
            ("n_videos", |c| c.n_videos += 1),
            ("video.bit_rate_bps", |c| c.video.bit_rate_bps += 1),
            ("video.fps", |c| c.video.fps += 1),
            ("video.duration", |c| c.video.duration.0 += 1),
            ("access zipf", |c| c.access = AccessPattern::Zipf(0.5)),
            ("access kind", |c| c.access = AccessPattern::Uniform),
            ("placement width", |c| {
                c.placement = Placement::StripeGroup { width: 4 }
            }),
            ("placement striped", |c| c.placement = Placement::Striped),
            ("placement nonstriped", |c| {
                c.placement = Placement::NonStriped
            }),
            ("stripe_bytes", |c| c.stripe_bytes += 1),
            ("server_memory_bytes", |c| c.server_memory_bytes += 1),
            ("terminal_memory_bytes", |c| c.terminal_memory_bytes += 1),
            ("scheduler classes", |c| {
                c.scheduler = SchedulerKind::RealTime {
                    classes: 4,
                    spacing: SimDuration::from_secs(4),
                }
            }),
            ("scheduler spacing", |c| {
                c.scheduler = SchedulerKind::RealTime {
                    classes: 3,
                    spacing: SimDuration::from_secs(5),
                }
            }),
            ("scheduler gss", |c| {
                c.scheduler = SchedulerKind::Gss { groups: 3 }
            }),
            ("scheduler fcfs", |c| c.scheduler = SchedulerKind::Fcfs),
            ("scheduler edf", |c| c.scheduler = SchedulerKind::Edf),
            ("scheduler elevator", |c| {
                c.scheduler = SchedulerKind::Elevator
            }),
            ("scheduler rr", |c| c.scheduler = SchedulerKind::RoundRobin),
            ("policy", |c| c.policy = PolicyKind::GlobalLru),
            ("prefetch processes", |c| {
                c.prefetch = PrefetchKind::Delayed {
                    processes: 3,
                    max_advance: SimDuration::from_secs(8),
                }
            }),
            ("prefetch advance", |c| {
                c.prefetch = PrefetchKind::Delayed {
                    processes: 2,
                    max_advance: SimDuration::from_secs(9),
                }
            }),
            ("prefetch off", |c| c.prefetch = PrefetchKind::Off),
            ("prefetch standard", |c| {
                c.prefetch = PrefetchKind::Standard { processes: 2 }
            }),
            ("prefetch realtime", |c| {
                c.prefetch = PrefetchKind::RealTime { processes: 2 }
            }),
            ("disk.seek_factor_ms", |c| c.disk.seek_factor_ms += 1e-9),
            ("disk.settle", |c| c.disk.settle.0 += 1),
            ("disk.rotation", |c| c.disk.rotation.0 += 1),
            ("disk.transfer_bytes_per_sec", |c| {
                c.disk.transfer_bytes_per_sec += 1.0
            }),
            ("disk.cylinder_bytes", |c| c.disk.cylinder_bytes += 1),
            ("disk.cache_contexts", |c| c.disk.cache_contexts += 1),
            ("disk.context_bytes", |c| c.disk.context_bytes += 1),
            ("disk.num_cylinders", |c| c.disk.num_cylinders += 1),
            ("cpu.mips", |c| c.cpu.mips += 1e-9),
            ("cpu.start_io_instr", |c| c.cpu.start_io_instr += 1),
            ("cpu.send_msg_instr", |c| c.cpu.send_msg_instr += 1),
            ("cpu.recv_msg_instr", |c| c.cpu.recv_msg_instr += 1),
            ("pause mean", |c| {
                c.pause.as_mut().unwrap().mean_pauses_per_video += 1e-9
            }),
            ("pause duration", |c| {
                c.pause.as_mut().unwrap().mean_duration.0 += 1
            }),
            ("pause none", |c| c.pause = None),
            ("piggyback delay", |c| {
                c.piggyback_delay = Some(SimDuration::from_secs(301))
            }),
            ("piggyback none", |c| c.piggyback_delay = None),
            ("search speedup", |c| c.search_speedup = Some(11)),
            ("search none", |c| c.search_speedup = None),
            ("initial_position", |c| {
                c.initial_position = InitialPosition::UniformWithinVideo
            }),
            ("timing.stagger", |c| c.timing.stagger.0 += 1),
            ("timing.warmup", |c| c.timing.warmup.0 += 1),
            ("timing.measure", |c| c.timing.measure.0 += 1),
            ("seed", |c| c.seed += 1),
            ("fault death node", |c| {
                scn(c).faults[0] = FaultSpec::DiskDeath {
                    node: 1,
                    disk: 1,
                    at: SimDuration::from_secs(20),
                }
            }),
            ("fault death disk", |c| {
                scn(c).faults[0] = FaultSpec::DiskDeath {
                    node: 0,
                    disk: 0,
                    at: SimDuration::from_secs(20),
                }
            }),
            ("fault death at", |c| {
                scn(c).faults[0] = FaultSpec::DiskDeath {
                    node: 0,
                    disk: 1,
                    at: SimDuration::from_secs(21),
                }
            }),
            ("fault degrade window", |c| {
                scn(c).faults[1] = FaultSpec::DiskDegrade {
                    node: 1,
                    disk: 0,
                    at: SimDuration::from_secs(5),
                    dur: SimDuration::from_secs(11),
                    factor_pct: 200,
                }
            }),
            ("fault degrade factor", |c| {
                scn(c).faults[1] = FaultSpec::DiskDegrade {
                    node: 1,
                    disk: 0,
                    at: SimDuration::from_secs(5),
                    dur: SimDuration::from_secs(10),
                    factor_pct: 300,
                }
            }),
            ("fault abandon every", |c| {
                scn(c).faults[2] = FaultSpec::AbandonBurst {
                    at: SimDuration::from_secs(25),
                    every: 4,
                }
            }),
            ("fault dropped", |c| {
                scn(c).faults.pop();
            }),
            ("mix every", |c| scn(c).mix.as_mut().unwrap().every += 1),
            ("mix bit rate", |c| {
                scn(c).mix.as_mut().unwrap().bit_rate_bps += 1
            }),
            ("mix none", |c| scn(c).mix = None),
            ("scenario none", |c| c.scenario = None),
        ];
        let base_fp = ProbeCache::fingerprint(&base);
        let mut seen = std::collections::HashMap::new();
        seen.insert(base_fp.clone(), "base");
        for (name, mutate) in mutations {
            let mut c = base.clone();
            mutate(&mut c);
            let fp = ProbeCache::fingerprint(&c);
            if let Some(other) = seen.insert(fp, name) {
                panic!("mutating {name} gave the same fingerprint as {other}");
            }
        }
        let mut more_terms = base.clone();
        more_terms.n_terminals += 100;
        assert_eq!(
            ProbeCache::fingerprint(&more_terms),
            base_fp,
            "probes override n_terminals, so it must not split the cache"
        );
    }

    #[test]
    fn snapshot_cache_captures_once_then_serves_warm() {
        let cache = SnapshotCache::new();
        let mut cfg = SystemConfig::small_test();
        cfg.n_terminals = 2;
        let fp = ProbeCache::fingerprint_with_base(&cfg, 2);
        let lib = Arc::new(VodSystem::generate_library(&cfg));
        let capture = |cfg: &SystemConfig| {
            let mut sys = VodSystem::with_library_marginal(cfg.clone(), Arc::clone(&lib), 2);
            sys.replay_to_snapshot();
            sys
        };
        let (a, warm_a) = cache.get_or_capture(&fp, 2, 0, || capture(&cfg));
        assert!(!warm_a, "first request must capture");
        let (b, warm_b) = cache.get_or_capture(&fp, 2, 0, || capture(&cfg));
        assert!(warm_b, "second request must be served warm");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.captures(), cache.hits(), cache.len()), (1, 1, 1));
        // A different replication captures separately.
        let (_, warm_c) = cache.get_or_capture(&fp, 2, 1, || capture(&cfg));
        assert!(!warm_c);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn marginal_fingerprint_is_disjoint_from_standard() {
        let cfg = SystemConfig::small_test();
        assert_ne!(
            ProbeCache::fingerprint(&cfg),
            ProbeCache::fingerprint_with_base(&cfg, 10)
        );
        assert_ne!(
            ProbeCache::fingerprint_with_base(&cfg, 10),
            ProbeCache::fingerprint_with_base(&cfg, 20),
            "the base count is part of a marginal probe's identity"
        );
    }

    #[test]
    fn cached_library_matches_direct_generation() {
        let cache = LibraryCache::new();
        let cfg = SystemConfig::small_test();
        let cached = cache.get(&cfg);
        let direct = VodSystem::generate_library(&cfg);
        assert_eq!(cached.len(), direct.len());
        for i in 0..direct.len() {
            let id = spiffi_mpeg::VideoId(i as u32);
            assert_eq!(
                cached.get(id).total_bytes(),
                direct.get(id).total_bytes(),
                "title {i} differs"
            );
        }
    }
}
