//! Record one fully instrumented run: JSONL + Chrome/Perfetto trace +
//! engine journal.
//!
//! Runs the standard 4-disk workload once with a `(TraceRecorder, Sampler)`
//! probe attached — every disk I/O, CPU span, network send, buffer-pool
//! event and terminal transition lands in the trace, and a 1 s sampler
//! tracks per-disk utilization, network bytes/s, pool occupancy and
//! outstanding deadlines. Then a small capacity search on an [`Engine`]
//! populates the run journal (per-probe wall time, cache hits, speculation
//! waste).
//!
//! Outputs, written to the current directory:
//!
//! - `TRACE_run.jsonl` — one JSON object per line, merged events + samples
//!   in timestamp order (every line carries `type` and `t_ns`).
//! - `TRACE_run.trace.json` — Chrome `trace_event` JSON; open it in
//!   <https://ui.perfetto.dev> or `chrome://tracing`.
//! - `TRACE_merged.trace.json` — the dispatcher trace plus one track per
//!   worker telemetry stream (populated when `SPIFFI_WORKERS` and
//!   `SPIFFI_TELEMETRY` are set), merged in canonical order so the bytes
//!   are identical regardless of worker count or arrival interleaving.
//! - `TRACE_journal.json` — the engine's run-journal snapshot.
//!
//! Usage:
//! ```text
//!   trace_run                    # full workload (120 s measurement window)
//!   trace_run --small            # CI-sized run (30 s window, fewer terminals)
//!   trace_run --dump-state       # additionally write TRACE_state.snap
//!   trace_run --forensics        # overload run + TRACE_forensics.json dump
//!   trace_run --scenario <file>  # fault-plan run + TRACE_scenario.json verdict
//! ```
//!
//! `--scenario` runs a fault-injection plan end to end: the plan file is
//! parsed and validated, the CI-sized workload runs with the scenario's
//! perturbations firing as calendar events (each firing lands in the
//! Perfetto export as an instant event on the fault track, written to
//! `TRACE_scenario.trace.json`), the faulted capacity is measured with an
//! [`Engine`] search (under `SPIFFI_WORKERS` the scenario ships to worker
//! processes in the job protocol's `scn=` token), and the plan's `expect`
//! thresholds are evaluated against the run. The machine-readable verdict
//! goes to `TRACE_scenario.json`; the exit code is 0 when every threshold
//! passes, 1 when any fails, and 2 on a malformed plan. Faulted runs are
//! exactly as deterministic as clean ones, so the whole stdout is
//! byte-identical at any `SPIFFI_THREADS` / `SPIFFI_WORKERS` setting.
//!
//! `--dump-state` replays the workload's warmed-up base prefix exactly as
//! the warm snapshot path would (marginal timing, replication 0) and
//! writes the versioned wire frame (`spiffi-snapshot/5`) the dispatcher
//! would ship to a worker — a post-mortem artifact whose digest can be
//! matched against worker stderr and whose body is the full serialized
//! system state.
//!
//! `--forensics` additionally runs a deliberately overloaded population
//! under a [`GlitchForensics`] probe: bounded rings of recent per-terminal
//! transitions and system context freeze at the first glitch, land in
//! `TRACE_forensics.json`, and ride the merged trace as an instant event
//! on a dedicated forensics track.
//!
//! The binary cross-checks the trace against the report it rode along
//! with: the sampled per-disk utilization mean over the measurement window
//! must match `RunReport::avg_disk_utilization` within 1%, and the
//! recorder's dispatch tally must equal `events_processed`.

use std::collections::BTreeMap;

use spiffi_core::{
    replication_seed, wire, CapacitySearch, Engine, FaultPlan, GlitchForensics, PhaseKind,
    RunReport, Sampler, SystemConfig, TraceRecorder, Verdict, VodSystem, WorkerStream,
};
use spiffi_mpeg::AccessPattern;
use spiffi_simcore::{SimDuration, SimTime};
use spiffi_trace::export;
use spiffi_trace::json::{escaped, f64_fixed};
use spiffi_trace::merge::merged_chrome_trace;
use spiffi_trace::{ForensicsDump, TraceEvent};

/// The standard workload shape: one node, four disks, uniform access over
/// 64 one-minute titles, memory far below the working set.
fn workload_config(small: bool) -> SystemConfig {
    let mut c = SystemConfig::small_test();
    c.topology = spiffi_layout::Topology {
        nodes: 1,
        disks_per_node: 4,
    };
    c.n_videos = 64;
    c.access = AccessPattern::Uniform;
    c.video.duration = SimDuration::from_secs(60);
    c.server_memory_bytes = 32 * 1024 * 1024;
    c.timing.stagger = SimDuration::from_secs(5);
    c.timing.warmup = SimDuration::from_secs(10);
    c.timing.measure = SimDuration::from_secs(if small { 30 } else { 120 });
    c.n_terminals = if small { 12 } else { 24 };
    c.seed = 0x005b_1ff1_9e4f;
    c
}

/// Sampling interval: 1 s tiles the warmup and measurement windows
/// exactly, so the sampled utilization mean is directly comparable to the
/// report's window aggregate.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Replay the workload's base prefix under marginal timing (replication 0,
/// the dispatcher's seeding) and write the wire snapshot frame to
/// `TRACE_state.snap`.
fn dump_state(cfg: &SystemConfig) {
    let base = cfg.n_terminals;
    let mut c = cfg.clone();
    c.seed = replication_seed(cfg.seed, 0);
    c.timing.warmup += c.timing.stagger;
    let library = VodSystem::generate_library(&c);
    let mut sys = VodSystem::with_library_marginal(c, library, base);
    sys.replay_to_snapshot();
    let body = sys.snap_export();
    let frame = wire::encode_snapshot(base, 0, &body);
    std::fs::write("TRACE_state.snap", &frame).expect("write TRACE_state.snap");
    println!(
        "wrote TRACE_state.snap: digest {}, {} bytes, {} base-prefix events replayed",
        wire::snapshot_digest(&body),
        frame.len(),
        sys.events_processed(),
    );
}

/// Forensics ring depth: the last 64 probe events per ring is enough to
/// see the I/O backlog leading into a glitch without ballooning the dump.
const FORENSICS_DEPTH: usize = 64;

/// Run a deliberately overloaded population (far above the workload's
/// ~60-terminal capacity) under a [`GlitchForensics`] probe and return the
/// dump frozen at the first glitch.
fn forensics_run(cfg: &SystemConfig) -> Option<ForensicsDump> {
    let mut c = cfg.clone();
    c.n_terminals = 200;
    c.timing.measure = SimDuration::from_secs(10);
    let library = VodSystem::generate_library(&c);
    let system = VodSystem::with_probe(c, library, GlitchForensics::new(FORENSICS_DEPTH));
    let (report, probe) = system.run_traced();
    let dump = probe.dump().cloned();
    match &dump {
        Some(d) => println!(
            "forensics: terminal {} glitched at {:.3} s ({} history entries, {} context events; \
             {} glitches measured in the overload run)",
            d.terminal,
            d.at.saturating_since(SimTime::ZERO).as_secs_f64(),
            d.history.len(),
            d.context.len(),
            report.glitches,
        ),
        None => println!("forensics: the overload run never glitched — no dump to write"),
    }
    dump
}

/// Run one fault-plan scenario end to end and return the process exit
/// code: 0 when every configured threshold passes, 1 when any fails, 2
/// when the plan itself is malformed or inconsistent with the workload.
///
/// The traced run uses the CI-sized workload (12 terminals, 30 s window)
/// so each plan's node/disk indices and fault times are written against a
/// fixed, known schedule; the capacity search then measures how many
/// terminals the *faulted* system still sustains glitch-free, which the
/// plan's `min_capacity` gate bounds from below.
fn scenario_run(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scenario: cannot read {path}: {e}");
            return 2;
        }
    };
    let plan = match FaultPlan::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("scenario {path}: {e}");
            return 2;
        }
    };
    let mut cfg = workload_config(true);
    if let Err(e) = plan.scenario.validate_against(&cfg.timing) {
        eprintln!("scenario {path}: {e}");
        return 2;
    }
    cfg.scenario = Some(plan.scenario.clone());
    if let Err(e) = cfg.validate() {
        eprintln!("scenario {path}: {e}");
        return 2;
    }
    let nodes = cfg.topology.nodes as usize;
    let disks_per_node = cfg.topology.disks_per_node as usize;

    println!("== trace_run --scenario: {} ==", plan.name);
    println!(
        "plan: {} fault(s){}; workload: {} terminals, {} disks, {} s window\n",
        plan.scenario.faults.len(),
        if plan.scenario.mix.is_some() {
            " + bitrate mix"
        } else {
            ""
        },
        cfg.n_terminals,
        nodes * disks_per_node,
        cfg.timing.measure.as_secs_f64(),
    );

    let library = VodSystem::generate_library(&cfg);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(SAMPLE_INTERVAL, nodes, disks_per_node),
    );
    let system = VodSystem::with_probe(cfg.clone(), library, probe);
    let (report, (recorder, sampler)) = system.run_traced();

    let mut faults_fired = 0u64;
    for ev in recorder.events() {
        if let TraceEvent::Fault { now, ev } = ev {
            faults_fired += 1;
            println!(
                "fault @ {:.3} s: {ev:?}",
                now.saturating_since(SimTime::ZERO).as_secs_f64()
            );
        }
    }
    println!("{}", report.summary());
    println!("faults fired: {faults_fired}");

    let chrome = export::chrome_trace(recorder.events(), sampler.rows());
    std::fs::write("TRACE_scenario.trace.json", &chrome).expect("write TRACE_scenario.trace.json");

    // The recovered-capacity search: the same bracketed bisection the
    // clean workload uses, on the faulted config. Every probe injects the
    // scenario, so the answer is the population the system sustains
    // *through* the faults — the floor `min_capacity` gates.
    let engine = Engine::new();
    // The one line that varies with engine shape, filtered by the
    // determinism diffs and checked by CI's worker legs.
    println!(
        "experiment engine: {} thread(s), {} worker process(es)",
        engine.threads(),
        engine.process_workers()
    );
    engine.journal().record_faults(faults_fired);
    let search = CapacitySearch {
        lo: 4,
        hi: 96,
        step: 4,
        replications: 1,
    };
    let result = engine.max_glitch_free_terminals(&cfg, &search);
    println!(
        "faulted capacity: {} terminals ({} probes{})",
        result.max_terminals,
        result.probes.len(),
        if result.below_bracket {
            ", below bracket"
        } else {
            ""
        },
    );

    let verdicts = plan
        .thresholds
        .evaluate(&report, Some(result.max_terminals));
    for v in &verdicts {
        println!(
            "check {}: limit {}, actual {} — {}",
            v.check,
            v.limit,
            v.actual,
            if v.pass { "pass" } else { "FAIL" },
        );
    }
    if verdicts.is_empty() {
        println!("plan sets no thresholds — nothing gated");
    }
    let all_pass = verdicts.iter().all(|v| v.pass);

    let json = verdict_json(
        &plan.name,
        path,
        faults_fired,
        &report,
        result.max_terminals,
        result.below_bracket,
        &verdicts,
    );
    std::fs::write("TRACE_scenario.json", json).expect("write TRACE_scenario.json");

    println!("\nwrote TRACE_scenario.trace.json (open in https://ui.perfetto.dev)");
    println!("wrote TRACE_scenario.json (pass: {all_pass})");
    if all_pass {
        0
    } else {
        1
    }
}

/// The machine-readable scenario verdict written to `TRACE_scenario.json`.
/// The plan path is arbitrary user text, so it is JSON-escaped; plan
/// names are restricted to `[A-Za-z0-9_]` by the plan parser.
fn verdict_json(
    name: &str,
    path: &str,
    faults_fired: u64,
    report: &RunReport,
    capacity: u32,
    below_bracket: bool,
    verdicts: &[Verdict],
) -> String {
    let all_pass = verdicts.iter().all(|v| v.pass);
    let glitch_ppm = report.glitches.saturating_mul(1_000_000) / report.blocks_delivered.max(1);
    let mut json = format!(
        "{{\n  \"scenario\": \"{}\",\n  \"plan_file\": \"{}\",\n  \"faults_fired\": {faults_fired},\n  \
         \"report\": {{\n    \"terminals\": {},\n    \"glitches\": {},\n    \
         \"blocks_delivered\": {},\n    \"glitch_ppm\": {glitch_ppm},\n    \
         \"io_latency_max_ms\": {},\n    \"deadline_misses\": {}\n  }},\n  \
         \"capacity_terminals\": {},\n  \"below_bracket\": {},\n  \"verdicts\": [\n",
        name,
        escaped(path),
        report.terminals,
        report.glitches,
        report.blocks_delivered,
        f64_fixed(report.io_latency_max_ms, 3),
        report.deadline_misses,
        capacity,
        below_bracket,
    );
    for (i, v) in verdicts.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"check\": \"{}\", \"limit\": {}, \"actual\": {}, \"pass\": {}}}{}\n",
            v.check,
            v.limit,
            v.actual,
            v.pass,
            if i + 1 == verdicts.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!("  ],\n  \"pass\": {all_pass}\n}}\n"));
    json
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--scenario requires a plan-file path");
            std::process::exit(2);
        };
        std::process::exit(scenario_run(path));
    }
    let small = args.iter().any(|a| a == "--small");
    let dump = args.iter().any(|a| a == "--dump-state");
    let forensics = args.iter().any(|a| a == "--forensics");
    let cfg = workload_config(small);
    let nodes = cfg.topology.nodes as usize;
    let disks_per_node = cfg.topology.disks_per_node as usize;

    println!("== trace_run: instrumented run + engine journal ==");
    println!(
        "workload: {} terminals, {} disks, {} s window{}\n",
        cfg.n_terminals,
        nodes * disks_per_node,
        cfg.timing.measure.as_secs_f64(),
        if small { " (--small)" } else { "" }
    );

    let library = VodSystem::generate_library(&cfg);
    let probe = (
        TraceRecorder::new(),
        Sampler::new(SAMPLE_INTERVAL, nodes, disks_per_node),
    );
    let system = VodSystem::with_probe(cfg.clone(), library, probe);
    let (report, (recorder, sampler)) = system.run_traced();

    println!("{}", report.summary());
    println!(
        "events: {}   trace events: {}   samples: {}   histogram rejected: {}",
        report.events_processed,
        recorder.events().len(),
        sampler.rows().len(),
        report.io_latency_rejected,
    );

    // Cross-checks: the trace must agree with the report it observed.
    assert_eq!(
        recorder.dispatch_total(),
        report.events_processed,
        "recorder saw a different event count than the simulator"
    );
    let window_start = SimTime::ZERO + cfg.timing.warmup;
    let window_end = window_start + cfg.timing.measure;
    let sampled = sampler.mean_disk_utilization(window_start, window_end);
    let reported = report.avg_disk_utilization;
    let rel = (sampled - reported).abs() / reported.max(1e-9);
    println!(
        "disk utilization over the window: sampled {:.4}  reported {:.4}  (rel err {:.3}%)",
        sampled,
        reported,
        rel * 100.0
    );
    assert!(
        rel < 0.01,
        "sampled disk-utilization mean {sampled:.4} diverges from the report's {reported:.4}"
    );

    let jsonl = export::jsonl(recorder.events(), sampler.rows());
    std::fs::write("TRACE_run.jsonl", &jsonl).expect("write TRACE_run.jsonl");
    let chrome = export::chrome_trace(recorder.events(), sampler.rows());
    std::fs::write("TRACE_run.trace.json", &chrome).expect("write TRACE_run.trace.json");

    // A small capacity search to exercise the engine journal: run it
    // twice so the second pass shows up as cache hits. The workload's
    // capacity sits around 60 terminals, so the [4, 96] bracket bisects.
    let search = CapacitySearch {
        lo: 4,
        hi: 96,
        step: 4,
        replications: 1,
    };
    let engine = Engine::new();
    let mut search_cfg = cfg;
    search_cfg.timing.measure = SimDuration::from_secs(30);
    let result = engine.max_glitch_free_terminals(&search_cfg, &search);
    engine.max_glitch_free_terminals(&search_cfg, &search);
    let journal = engine.journal().snapshot();
    println!(
        "journal: capacity {} terminals, {} searches, {} simulated + {} cached probe runs \
         ({} on worker processes), {:.1} ms simulating, {} speculative events",
        result.max_terminals,
        journal.searches,
        journal.simulated(),
        journal.cache_hits(),
        journal.worker_runs(),
        journal.total_wall_nanos() as f64 / 1e6,
        journal.speculative_events,
    );
    println!(
        "journal: snapshots ({:?}): {} captured, {} warm forks, {} marginal terminals forked, \
         {} base-prefix events saved",
        engine.snapshot_mode(),
        journal.snapshot_captures,
        journal.snapshot_hits,
        journal.forked_terminals,
        journal.snapshot_saved_events,
    );
    if journal.worker_retries + journal.worker_respawns + journal.quarantined_jobs > 0 {
        println!(
            "journal: worker faults: {} retries, {} respawns, {} quarantined jobs",
            journal.worker_retries, journal.worker_respawns, journal.quarantined_jobs,
        );
    }
    for fault in &journal.worker_faults {
        println!(
            "journal: fault on slot {} ({} terminals, rep {}): {}{}",
            fault.slot,
            fault.terminals,
            fault.replication,
            fault.reason,
            fault
                .stderr_tail
                .last()
                .map(|l| format!(" — stderr: {l}"))
                .unwrap_or_default(),
        );
    }

    // Per-phase wall-time breakdown: where the search actually spent its
    // wall clock, across the dispatcher and (when telemetry is on) the
    // workers' own measured deltas.
    let phase_total: u64 = journal.phase_wall_nanos.iter().sum();
    let phases = PhaseKind::ALL
        .iter()
        .map(|p| {
            format!(
                "{} {:.1} ms",
                p.name(),
                journal.phase_wall_nanos[p.index()] as f64 / 1e6
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "journal: phase walls: {} (phase total {:.1} ms)",
        phases,
        phase_total as f64 / 1e6
    );
    if journal.telemetry_frames + journal.telemetry_dropped > 0 {
        println!(
            "journal: telemetry: {} frames, {} samples, {} dropped",
            journal.telemetry_frames, journal.telemetry_samples, journal.telemetry_dropped,
        );
    }

    // Worker telemetry streams: per-worker sample counts, then the PR 4
    // sampler-vs-report utilization gate applied across the process
    // boundary to every clean stream.
    let streams: Vec<WorkerStream> = engine.take_worker_telemetry();
    let mut per_slot: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for s in &streams {
        let e = per_slot.entry(s.slot).or_default();
        e.0 += 1;
        e.1 += s.samples.len() as u64;
    }
    for (slot, (jobs, samples)) in &per_slot {
        println!("worker {slot}: {jobs} telemetry streams, {samples} samples");
    }
    for s in &streams {
        if s.glitches > 0 || s.report_disk_utilization < 1e-6 {
            continue;
        }
        let Some(measure) = s.spans.iter().find(|sp| sp.label == "measure") else {
            continue;
        };
        let sampled = s.mean_disk_utilization(measure.sim_start, measure.sim_end);
        let rel = (sampled - s.report_disk_utilization).abs() / s.report_disk_utilization;
        assert!(
            rel < 0.01,
            "worker stream ({} terminals, rep {}): sampled disk utilization {sampled:.4} \
             diverges from the worker's reported {:.4}",
            s.terminals,
            s.replication,
            s.report_disk_utilization,
        );
    }
    if !streams.is_empty() {
        println!(
            "worker streams: {} clean streams pass the 1% sampled-vs-reported utilization gate",
            streams
                .iter()
                .filter(|s| s.glitches == 0 && s.report_disk_utilization >= 1e-6)
                .count()
        );
    }

    std::fs::write("TRACE_journal.json", journal.to_json()).expect("write TRACE_journal.json");

    let fdump = if forensics {
        forensics_run(&workload_config(small))
    } else {
        None
    };
    if forensics {
        // A glitch-free overload run still writes a real object (not
        // `null`): jq gates keyed on `.glitches == 0` can tell "no glitch
        // happened" apart from "the file was never written", instead of
        // passing vacuously on a missing or null dump.
        let fjson = match &fdump {
            Some(d) => d.to_json(),
            None => "{\n  \"glitches\": 0,\n  \"dump\": null\n}\n".to_string(),
        };
        std::fs::write("TRACE_forensics.json", fjson).expect("write TRACE_forensics.json");
    }

    // The merged trace carries only the probes the search *counted*
    // (replications = 1, so replication 0 of every probed count):
    // speculative jobs vary with pool width, counted ones do not, which
    // keeps the merged bytes identical at any SPIFFI_WORKERS setting.
    let counted: std::collections::HashSet<(u32, u32)> =
        result.probes.iter().map(|&(n, _)| (n, 0)).collect();
    let counted_streams: Vec<WorkerStream> = streams
        .iter()
        .filter(|s| counted.contains(&(s.terminals, s.replication)))
        .cloned()
        .collect();
    let merged = merged_chrome_trace(
        recorder.events(),
        sampler.rows(),
        &counted_streams,
        fdump.as_ref(),
    );
    std::fs::write("TRACE_merged.trace.json", &merged).expect("write TRACE_merged.trace.json");

    println!("\nwrote TRACE_run.jsonl ({} lines)", jsonl.lines().count());
    if dump {
        dump_state(&workload_config(small));
    }
    println!("wrote TRACE_run.trace.json (open in https://ui.perfetto.dev)");
    println!(
        "wrote TRACE_merged.trace.json ({} worker tracks)",
        spiffi_trace::merge::canonical_streams(&counted_streams).len()
    );
    if forensics {
        println!("wrote TRACE_forensics.json");
    }
    println!("wrote TRACE_journal.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_json_escapes_the_plan_path() {
        let json = verdict_json(
            "disk_death",
            "q\"dir\\p.plan",
            1,
            &RunReport::default(),
            24,
            false,
            &[],
        );
        assert!(json.contains(r#""plan_file": "q\"dir\\p.plan","#), "{json}");
        assert!(json.ends_with("\"pass\": true\n}\n"), "{json}");
    }
}
