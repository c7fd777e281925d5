//! `spiffi-worker`: the process-level execution backend's child half.
//!
//! Reads one [`spiffi_core::wire`] job line per probe replication from
//! stdin, simulates it, and writes one versioned result record to
//! stdout. Both are token lines of the snap grammar: the job carries the
//! full [`SystemConfig`] in its canonical [`SystemConfig::snap_export`]
//! encoding, and every job line, a malformed one included, gets exactly
//! one result record. The worker is stateless across jobs except for a
//! [`LibraryCache`] and the digest-addressed snapshot store below, so a
//! respawned worker is indistinguishable from a fresh one — which is
//! exactly what makes the dispatcher's crash-respawn-retry policy sound
//! (the dispatcher re-ships snapshots to every new incarnation).
//!
//! Every simulation runs standalone (fresh cancel flag, never truncated),
//! so each result is the replication's deterministic clean outcome: the
//! same bytes the in-process engine would have computed and cached.
//!
//! # Snapshot frames
//!
//! A `spiffi-snapshot/5` frame carries a serialized warmed-up base
//! prefix ([`VodSystem::snap_export`]). The worker stores the body under
//! its content digest and sends no reply. A later job whose `snap`
//! header token names a stored digest imports the prefix once
//! ([`VodSystem::snap_import`], cached per digest) and forks it to the
//! job's population instead of replaying the base warm-up from scratch.
//! The `snap` token is an optimization hint, never a correctness
//! requirement: an unknown digest or a failed import falls back to the
//! full marginal build, which is bit-identical by construction.
//!
//! Fault injection for the dispatcher's tests (never set in production):
//!
//! - `SPIFFI_WORKER_STALL_MS=<ms>`: sleep before answering each job, to
//!   exercise the dispatcher's per-job timeout.
//! - `SPIFFI_WORKER_EXIT_AFTER=<k>`: exit abruptly (no reply, code 17)
//!   when the k-th job arrives, to exercise crash-respawn-retry. The
//!   counter restarts with the process, so respawned workers die again
//!   every k jobs.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU32};
use std::sync::Arc;
use std::time::Instant;

use spiffi_core::wire::{
    self, JobRecord, ResultRecord, TelemetryDelta, TelemetryRecord, TelemetrySample, TelemetrySpan,
    WorkerOutcome,
};
use spiffi_core::{replication_seed, LibraryCache, RunReport, Sampler, SystemConfig, VodSystem};
use spiffi_simcore::SimDuration;

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// The worker half of snapshot shipping: raw frame bodies keyed by their
/// content digest, plus the systems already imported from them (importing
/// is the expensive step — each digest pays it once per incarnation).
#[derive(Default)]
struct SnapshotStore {
    bodies: HashMap<u64, String>,
    imported: HashMap<u64, Arc<VodSystem>>,
}

impl SnapshotStore {
    /// The base system for `digest` under the job's config `c` (already
    /// reseeded, terminals still at the probe population) and base
    /// population `b`, imported on first use. `None` means the fast path
    /// is unavailable and the caller must build from scratch.
    fn base_system(
        &mut self,
        digest: u64,
        c: &SystemConfig,
        b: u32,
        cache: &LibraryCache,
    ) -> Option<Arc<VodSystem>> {
        if let Some(sys) = self.imported.get(&digest) {
            return Some(Arc::clone(sys));
        }
        let body = self.bodies.get(&digest)?;
        let mut bc = c.clone();
        bc.n_terminals = b;
        // `snap_import` shares the constructors' panic-on-invalid-config
        // contract; the job's config was validated, but the narrowed base
        // config is checked on its own before crossing that boundary.
        if let Err(why) = bc.validate() {
            eprintln!("spiffi-worker: snapshot {digest} base config invalid ({why}), rebuilding");
            return None;
        }
        let lib = cache.get(&bc);
        match VodSystem::snap_import(bc, lib, body) {
            Ok(sys) => {
                let sys = Arc::new(sys);
                self.imported.insert(digest, Arc::clone(&sys));
                Some(sys)
            }
            Err(e) => {
                eprintln!("spiffi-worker: snapshot {digest} import failed ({e}), rebuilding");
                None
            }
        }
    }
}

/// Simulate one validated job: resolve the snapshot fast path (measuring
/// its import and fork walls), then run either the plain zero-cost path
/// or — when the job carries a `telem` request — a [`Sampler`]-probed
/// run whose samples, phase spans, and journal delta are folded into a
/// [`TelemetryRecord`] for the dispatcher. Probes are observation-only,
/// so the report is bit-identical either way.
fn simulate(
    job: JobRecord,
    cache: &LibraryCache,
    snapshots: &mut SnapshotStore,
) -> (RunReport, Option<TelemetryRecord>) {
    let JobRecord {
        id: job_id,
        terminals,
        replication,
        base,
        snapshot,
        telemetry,
        config: c,
    } = job;
    // Standalone probe: a fresh cancel flag means the run can only stop
    // at its own first measured glitch or the window end — the
    // deterministic, cacheable outcome. A `base` token selects the
    // dispatcher's marginal-probe timing so the outcome matches its
    // snapshot-mode engine.
    let cancel = AtomicU32::new(u32::MAX);
    let lib = cache.get(&c);
    let warmup_ns = c.timing.warmup.0;
    let total_ns = c.timing.total().0;
    let snap_ns = c.timing.warmup.saturating_sub(c.timing.stagger).0;

    let mut import_wall = 0u64;
    let mut fork_wall = 0u64;
    let mut forked = None;
    if let (Some(b), Some(digest)) = (base, snapshot) {
        if terminals > b {
            let t0 = Instant::now();
            let base_sys = snapshots.base_system(digest, &c, b, cache);
            import_wall = t0.elapsed().as_nanos() as u64;
            if let Some(base_sys) = base_sys {
                let t1 = Instant::now();
                forked = Some(base_sys.fork_to(terminals));
                fork_wall = t1.elapsed().as_nanos() as u64;
            }
        }
    }
    let was_forked = forked.is_some();

    let Some(interval_ns) = telemetry.filter(|&ns| ns > 0) else {
        let report = match (forked, base) {
            (Some(sys), _) => sys.run_glitch_probe(&cancel, replication),
            (None, Some(b)) => {
                VodSystem::with_library_marginal(c, lib, b).run_glitch_probe(&cancel, replication)
            }
            (None, None) => VodSystem::with_library(c, lib).run_glitch_probe(&cancel, replication),
        };
        return (report, None);
    };

    let sampler = Sampler::new(
        SimDuration(interval_ns),
        c.topology.nodes as usize,
        c.topology.disks_per_node as usize,
    );
    let abort = AtomicBool::new(false);
    let t2 = Instant::now();
    let (report, _clean, probe) =
        match (forked, base) {
            (Some(sys), _) => sys.attach_probe(sampler).run_glitch_probe_abortable_traced(
                &cancel,
                replication,
                &abort,
            ),
            (None, Some(b)) => VodSystem::with_probe_marginal(c, lib, sampler, b)
                .run_glitch_probe_abortable_traced(&cancel, replication, &abort),
            (None, None) => VodSystem::with_probe(c, lib, sampler)
                .run_glitch_probe_abortable_traced(&cancel, replication, &abort),
        };
    let simulate_wall = t2.elapsed().as_nanos() as u64;

    // Phase spans in sim-time. Bounds are pure functions of the job's
    // config (wall times ride alongside but are excluded from merged
    // trace bytes), so the dispatcher's merged trace stays byte-identical
    // no matter which worker ran the job. Import/fork are point spans at
    // the snapshot boundary; a from-scratch build simulates from zero.
    let mut spans = vec![TelemetrySpan {
        label: "warmup",
        sim_start: 0,
        sim_end: warmup_ns,
        wall_nanos: 0,
    }];
    if was_forked {
        spans.push(TelemetrySpan {
            label: "import",
            sim_start: snap_ns,
            sim_end: snap_ns,
            wall_nanos: import_wall,
        });
        spans.push(TelemetrySpan {
            label: "fork",
            sim_start: snap_ns,
            sim_end: snap_ns,
            wall_nanos: fork_wall,
        });
    }
    spans.push(TelemetrySpan {
        label: "simulate",
        sim_start: if was_forked { snap_ns } else { 0 },
        sim_end: total_ns,
        wall_nanos: simulate_wall,
    });
    spans.push(TelemetrySpan {
        label: "measure",
        sim_start: warmup_ns,
        sim_end: total_ns,
        wall_nanos: 0,
    });
    let samples = probe
        .rows()
        .iter()
        .map(|row| TelemetrySample {
            t_ns: row.t.0,
            net_bytes: row.net_bytes,
            pool_in_use: row.pool_in_use,
            outstanding_deadlines: row.outstanding_deadlines,
            disk_util: row.disk_util.clone(),
        })
        .collect();
    let record = TelemetryRecord {
        job: job_id,
        interval_ns,
        delta: TelemetryDelta {
            glitches: report.glitches,
            events: report.events_processed,
            import_wall_nanos: import_wall,
            fork_wall_nanos: fork_wall,
            simulate_wall_nanos: simulate_wall,
            forked: was_forked,
            avg_disk_utilization: report.avg_disk_utilization,
        },
        spans,
        samples,
    };
    (report, Some(record))
}

fn main() {
    let stall_ms = env_u64("SPIFFI_WORKER_STALL_MS");
    let exit_after = env_u64("SPIFFI_WORKER_EXIT_AFTER");
    let cache = LibraryCache::new();
    let mut snapshots = SnapshotStore::default();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut jobs_seen = 0u64;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // dispatcher hung up
        };
        if line.trim().is_empty() {
            continue;
        }
        if line.starts_with("spiffi-snapshot/") {
            // State shipment, not a job: store it (no reply), and keep it
            // out of the fault-injection job counter so `EXIT_AFTER=k`
            // still means "die on the k-th *job*".
            match wire::parse_snapshot(&line) {
                Ok(snap) => {
                    snapshots
                        .bodies
                        .entry(snap.digest)
                        .or_insert_with(|| snap.body.to_string());
                }
                Err(e) => eprintln!("spiffi-worker: bad snapshot frame dropped ({e})"),
            }
            continue;
        }
        jobs_seen += 1;
        if exit_after == Some(jobs_seen) {
            // Simulated crash: die without replying, mid-conversation.
            // The stderr line plays the part of a real crash's last
            // words, so the dispatcher's fault records have a tail to
            // capture.
            eprintln!(
                "spiffi-worker: injected crash on job {jobs_seen} (SPIFFI_WORKER_EXIT_AFTER)"
            );
            std::process::exit(17);
        }
        if let Some(ms) = stall_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let (record, telemetry) = match wire::parse_job(&line) {
            Ok(mut job) => {
                let started = Instant::now();
                let id = job.id;
                let c = &mut job.config;
                c.n_terminals = job.terminals;
                c.seed = replication_seed(c.seed, job.replication);
                match c.validate() {
                    Ok(()) => {
                        let (report, telemetry) = simulate(job, &cache, &mut snapshots);
                        (
                            ResultRecord {
                                id,
                                outcome: Ok(WorkerOutcome {
                                    glitches: report.glitches,
                                    events: report.events_processed,
                                    wall_nanos: started.elapsed().as_nanos() as u64,
                                }),
                            },
                            telemetry,
                        )
                    }
                    Err(why) => (
                        ResultRecord {
                            id,
                            outcome: Err(format!("invalid config: {why}")),
                        },
                        None,
                    ),
                }
            }
            Err(e) => (
                ResultRecord {
                    id: 0,
                    outcome: Err(format!("bad job line: {e}")),
                },
                None,
            ),
        };
        // The telemetry frame precedes its result line, so by the time
        // the dispatcher resolves the job its telemetry has arrived.
        if let Some(rec) = telemetry {
            if writeln!(out, "{}", wire::encode_telemetry(&rec)).is_err() {
                break;
            }
        }
        if writeln!(out, "{}", wire::encode_result(&record))
            .and_then(|_| out.flush())
            .is_err()
        {
            break; // dispatcher hung up
        }
    }
}
