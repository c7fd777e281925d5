//! The probe layer's contract: observation only.
//!
//! An attached probe must never perturb the simulation (same `RunReport`
//! with and without one), the recorded trace must be a pure function of
//! the run (byte-identical however many engine threads are configured
//! around it), and the sampler's time series must agree with the report's
//! window aggregates.

use spiffi_core::{
    replication_seed, run_once, CapacitySearch, Engine, ProcessConfig, Sampler, SystemConfig,
    TraceRecorder, VodSystem,
};
use spiffi_simcore::{SimDuration, SimTime};
use spiffi_trace::export;

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.n_terminals = 8;
    c
}

/// Run one replication of `cfg` fully instrumented and serialize both
/// export formats.
fn trace_replication(cfg: &SystemConfig, r: u32) -> (String, String) {
    let mut c = cfg.clone();
    c.seed = replication_seed(cfg.seed, r);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(
            SimDuration::from_secs(1),
            c.topology.nodes as usize,
            c.topology.disks_per_node as usize,
        ),
    );
    let library = VodSystem::generate_library(&c);
    let (_, (recorder, sampler)) = VodSystem::with_probe(c, library, probe).run_traced();
    (
        export::jsonl(recorder.events(), sampler.rows()),
        export::chrome_trace(recorder.events(), sampler.rows()),
    )
}

#[test]
fn attaching_a_probe_does_not_perturb_the_run() {
    let c = cfg();
    let baseline = run_once(&c);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(
            SimDuration::from_secs(1),
            c.topology.nodes as usize,
            c.topology.disks_per_node as usize,
        ),
    );
    let library = VodSystem::generate_library(&c);
    let (traced, (recorder, _)) = VodSystem::with_probe(c, library, probe).run_traced();
    assert_eq!(baseline, traced, "an active probe changed the simulation");
    assert_eq!(
        recorder.dispatch_total(),
        traced.events_processed,
        "the recorder missed dispatches"
    );
}

#[test]
fn trace_is_byte_identical_at_any_engine_thread_count() {
    let c = cfg();
    let search = CapacitySearch {
        lo: 4,
        hi: 16,
        step: 4,
        replications: 2,
    };
    // The searches at 1, 2 and 8 threads must agree on the probe sequence
    // the trace belongs to... (everything but the speculation tally is
    // guaranteed byte-identical across thread counts)
    let results: Vec<_> = [1usize, 2, 8]
        .into_iter()
        .map(|t| Engine::with_threads(t).max_glitch_free_terminals(&c, &search))
        .collect();
    for r in &results[1..] {
        assert_eq!(r.max_terminals, results[0].max_terminals);
        assert_eq!(r.probes, results[0].probes);
        assert_eq!(r.events_processed, results[0].events_processed);
        assert_eq!(r.below_bracket, results[0].below_bracket);
    }
    // ...and re-tracing one of its replications yields the same bytes
    // every time: the trace is a function of (config, seed) alone.
    let mut probed = c.clone();
    probed.n_terminals = results[0].max_terminals.max(search.lo);
    let reference = trace_replication(&probed, 1);
    for _ in 0..2 {
        assert_eq!(
            trace_replication(&probed, 1),
            reference,
            "trace serialization is not deterministic"
        );
    }
    assert!(
        reference.0.lines().count() > 100,
        "suspiciously small trace"
    );
}

#[test]
fn sampler_mean_matches_the_report_window_aggregate() {
    let c = cfg();
    let sampler = Sampler::new(
        SimDuration::from_secs(1),
        c.topology.nodes as usize,
        c.topology.disks_per_node as usize,
    );
    let library = VodSystem::generate_library(&c);
    let (report, sampler) = VodSystem::with_probe(c.clone(), library, sampler).run_traced();
    let from = SimTime::ZERO + c.timing.warmup;
    let to = from + c.timing.measure;
    let sampled = sampler.mean_disk_utilization(from, to);
    let rel = (sampled - report.avg_disk_utilization).abs() / report.avg_disk_utilization;
    assert!(
        rel < 0.01,
        "sampled {} vs reported {} (rel err {:.4})",
        sampled,
        report.avg_disk_utilization,
        rel
    );
}

#[test]
fn engine_journal_accounts_for_every_probe() {
    let c = cfg();
    let search = CapacitySearch {
        lo: 4,
        hi: 16,
        step: 4,
        replications: 2,
    };
    let engine = Engine::with_threads(1);
    let first = engine.max_glitch_free_terminals(&c, &search);
    engine.max_glitch_free_terminals(&c, &search);
    let journal = engine.journal().snapshot();
    assert_eq!(journal.searches, 2);
    // Sequential resolution never speculates, so the journal's simulated
    // events are exactly the counted events of one cold search, and the
    // warm replay contributed only cache hits.
    assert_eq!(journal.speculative_events, 0);
    let simulated_events: u64 = journal
        .probes
        .iter()
        .filter(|p| !p.cached)
        .map(|p| p.events)
        .sum();
    assert_eq!(simulated_events, first.events_processed);
    assert_eq!(journal.cache_hits(), journal.simulated());
    assert!(journal.probes.iter().all(|p| p.clean));
    assert!(
        journal
            .probes
            .iter()
            .filter(|p| !p.cached)
            .all(|p| p.wall_nanos > 0),
        "simulated runs must record wall time"
    );
    let json = journal.to_json();
    assert!(json.contains("\"searches\": 2"));
    assert!(json.contains("\"cached\": true"));
}

/// A journaled cache hit means "the search counted a pair an earlier
/// search had simulated" — once per pair per search, whichever executor
/// ran. Speculative peeks at cached pairs and the second count of a
/// degenerate `lo == hi` bracket are not hits.
#[test]
fn journal_cache_hits_do_not_depend_on_the_executor() {
    let c = cfg();
    let degenerate = CapacitySearch {
        lo: 4,
        hi: 4,
        step: 4,
        replications: 1,
    };
    let search = CapacitySearch {
        lo: 4,
        hi: 16,
        step: 4,
        replications: 2,
    };
    let workers = ProcessConfig::new(2, env!("CARGO_BIN_EXE_spiffi-worker").into());
    let engines = [
        ("1 thread", Engine::with_threads(1)),
        ("8 threads", Engine::with_threads(8)),
        ("2 workers", Engine::with_threads(1).with_process(workers)),
    ];
    let hits: Vec<(&str, u64)> = engines
        .iter()
        .map(|(name, engine)| {
            let first = engine.max_glitch_free_terminals(&c, &degenerate);
            assert_eq!(first.probes.len(), 2, "{name}: lo == hi probes twice");
            engine.max_glitch_free_terminals(&c, &search);
            engine.max_glitch_free_terminals(&c, &search);
            (*name, engine.journal().snapshot().cache_hits())
        })
        .collect();
    assert!(hits[0].1 > 0, "the repeated search must hit the cache");
    for &(name, h) in &hits[1..] {
        assert_eq!(h, hits[0].1, "{name} journaled different cache hits");
    }
}
