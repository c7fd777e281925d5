//! The process-level execution backend: a pool of `spiffi-worker` child
//! processes behind the experiment engine.
//!
//! The [`Engine`](crate::Engine) already fans probe replications across
//! threads; this module applies the same shared-nothing story across
//! *address spaces* — the paper's scale-up architecture turned on the
//! experiment harness itself, and the stepping stone to running
//! replications on other machines. Each worker is fed one
//! [`wire`] job at a time over stdin and answers on stdout;
//! the job contract (standalone replication, slotted by `(count,
//! replication)`) is exactly the in-thread engine's, so results merge
//! through the same [`ProbeCache`](crate::ProbeCache) byte-identically.
//!
//! The pool is built to survive its workers, not just drive them:
//!
//! * **Per-job timeout** — a worker that sits on a job past the deadline
//!   is killed and respawned, and the job retried elsewhere.
//! * **Crash/EOF/malformed-output retry** — a worker that dies, hangs up,
//!   or answers garbage (version mismatch, truncation, wrong job id)
//!   costs the job one attempt and the worker its life; both are
//!   replaced.
//! * **Poisoned-job quarantine** — a job that fails
//!   [`ProcessConfig::max_attempts`] times is handed back unresolved so
//!   the search can fall back to simulating it in-process; the quarantine
//!   is surfaced in the [`RunJournal`](crate::RunJournal) next to cache
//!   hits and speculation waste.
//!
//! Worker death never loses determinism because jobs carry no state: a
//! replication's clean outcome is a pure function of the config bytes on
//! the job line, no matter which incarnation of which worker computes it.
//!
//! # Snapshot shipping
//!
//! Under warm snapshot mode the dispatcher serializes each base prefix
//! once ([`VodSystem::snap_export`](crate::VodSystem::snap_export)) and
//! ships it as a [`wire`] snapshot frame down a worker's stdin *before*
//! the first job line that references its digest — at most once per
//! worker **incarnation**, because a respawned worker lost its cache and
//! must be re-sent the frame. The snapshot is a pure optimization on the
//! wire too: a worker that never saw (or failed to decode) the frame
//! builds the same replication from scratch, bit-identically, so none of
//! the fault handling above needed to change.

use std::collections::{HashSet, VecDeque};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::config::SystemConfig;
use crate::wire::{self, JobRecord, WorkerOutcome};

/// File name of the worker binary (a sibling of the harness binaries in
/// the cargo target directory).
pub const WORKER_BIN_NAME: &str = "spiffi-worker";

/// Smallest per-job timeout the pool will accept, in milliseconds.
/// Anything shorter than this cannot cover even a trivial probe's
/// fork+exec+simulate round trip, so a tighter setting would make the
/// pool kill every worker on its first job and quarantine the whole
/// search into the in-process fallback.
pub const MIN_JOB_TIMEOUT_MS: u64 = 1_000;

/// How a [`ProcessPool`] is shaped and how patient it is.
#[derive(Clone, Debug)]
pub struct ProcessConfig {
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Path to the `spiffi-worker` binary.
    pub worker_bin: PathBuf,
    /// Per-attempt wall-clock budget for one job. A worker that exceeds it
    /// is killed and the job retried.
    pub job_timeout: Duration,
    /// Attempts (including the first) before a job is quarantined.
    pub max_attempts: u32,
    /// Extra environment for the children (fault injection in tests).
    pub worker_env: Vec<(String, String)>,
    /// Telemetry request forwarded on every job line: `Some(interval_ns)`
    /// asks workers to run jobs under a real probe and stream a
    /// `spiffi-telemetry` frame back before each result. Observation-only:
    /// outcomes are bit-identical with or without it.
    pub telemetry: Option<u64>,
}

impl ProcessConfig {
    /// A config with `workers` children and default robustness settings:
    /// a 10-minute per-job timeout (simulation probes run seconds to tens
    /// of seconds; ten minutes is unambiguously "stuck") and 3 attempts.
    pub fn new(workers: usize, worker_bin: PathBuf) -> Self {
        ProcessConfig {
            workers: workers.max(1),
            worker_bin,
            job_timeout: Duration::from_secs(600),
            max_attempts: 3,
            worker_env: Vec::new(),
            telemetry: None,
        }
    }

    /// The ambient configuration: `SPIFFI_WORKERS` children (`None` when
    /// unset or zero — the in-process engine), the worker binary from
    /// `SPIFFI_WORKER_BIN` or discovery next to the current executable,
    /// and `SPIFFI_WORKER_TIMEOUT_MS` overriding the job timeout.
    pub fn from_env() -> Option<Self> {
        let workers = std::env::var("SPIFFI_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)?;
        let Some(bin) = discover_worker_bin() else {
            eprintln!(
                "spiffi engine: SPIFFI_WORKERS={workers} but no {WORKER_BIN_NAME} binary found \
                 (set SPIFFI_WORKER_BIN or build the workspace); using in-process execution"
            );
            return None;
        };
        let mut cfg = ProcessConfig::new(workers, bin);
        if let Some(ms) = std::env::var("SPIFFI_WORKER_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            cfg = cfg.with_job_timeout_ms(ms);
        }
        Some(cfg)
    }

    /// Set the per-job timeout, clamped to [`MIN_JOB_TIMEOUT_MS`]. A
    /// zero or near-zero timeout (e.g. `SPIFFI_WORKER_TIMEOUT_MS=0`)
    /// would expire before any worker could answer its first job,
    /// insta-killing the whole pool; such values are corrected to the
    /// floor and the correction is logged.
    pub fn with_job_timeout_ms(mut self, ms: u64) -> Self {
        let clamped = ms.max(MIN_JOB_TIMEOUT_MS);
        if clamped != ms {
            eprintln!(
                "spiffi engine: job timeout {ms} ms is below the {MIN_JOB_TIMEOUT_MS} ms floor \
                 (it would kill workers before their first result); using {clamped} ms"
            );
        }
        self.job_timeout = Duration::from_millis(clamped);
        self
    }

    /// Request worker telemetry at `interval_ns` sampling (`None` keeps
    /// the workers' zero-cost `NoopProbe` path).
    pub fn with_telemetry(mut self, interval_ns: Option<u64>) -> Self {
        self.telemetry = interval_ns;
        self
    }
}

/// Locate the `spiffi-worker` binary: the `SPIFFI_WORKER_BIN` environment
/// variable if set, otherwise a sibling of the current executable (or of
/// its parent directories — examples live in `target/<profile>/examples/`,
/// test binaries in `target/<profile>/deps/`).
pub fn discover_worker_bin() -> Option<PathBuf> {
    if let Ok(explicit) = std::env::var("SPIFFI_WORKER_BIN") {
        let p = PathBuf::from(explicit);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("{WORKER_BIN_NAME}{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..3 {
        let d = dir?;
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = d.parent();
    }
    None
}

/// A serialized base snapshot ready to ship: the encoded wire frame plus
/// its content digest. Built once per `(config, base, replication)` by the
/// dispatcher and shared (via `Arc`) by every job that forks from it.
#[derive(Debug)]
pub struct SnapshotBlob {
    digest: u64,
    line: String,
}

impl SnapshotBlob {
    /// Encode `body` — a
    /// [`VodSystem::snap_export`](crate::VodSystem::snap_export) token
    /// stream captured at `base` terminals under replication
    /// `replication` — as a shippable wire frame.
    pub fn new(base: u32, replication: u32, body: &str) -> Self {
        SnapshotBlob {
            digest: wire::snapshot_digest(body),
            line: wire::encode_snapshot(base, replication, body),
        }
    }

    /// The content digest job lines reference via their `snap` token.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Size of the encoded frame in bytes (sans newline).
    pub fn len(&self) -> usize {
        self.line.len()
    }

    /// Always false — an encoded frame has at least its header.
    pub fn is_empty(&self) -> bool {
        self.line.is_empty()
    }
}

/// A job the pool has accepted but not yet resolved.
#[derive(Debug)]
struct PendingJob {
    id: u64,
    terminals: u32,
    replication: u32,
    /// The encoded wire line (constant across retries).
    line: String,
    /// The snapshot frame the job's `snap` token references, if any —
    /// shipped to whichever worker incarnation the job lands on.
    snapshot: Option<Arc<SnapshotBlob>>,
    /// Attempts consumed so far.
    attempts: u32,
}

/// One resolved job, successful or quarantined.
#[derive(Clone, Copy, Debug)]
pub struct Resolved {
    /// Terminal count of the probe.
    pub terminals: u32,
    /// Replication index within the probe.
    pub replication: u32,
    /// The measured outcome; `None` means the job was quarantined after
    /// exhausting its attempts and must be resolved by the caller.
    pub outcome: Option<WorkerOutcome>,
    /// Attempts the job consumed.
    pub attempts: u32,
}

/// One worker fault with its context: which slot failed which job, why,
/// and the tail of the dead (or rejecting) worker's stderr — the lines
/// that would otherwise vanish with the process. Folded into the
/// [`RunJournal`](crate::RunJournal) by the driver.
#[derive(Clone, Debug)]
pub struct WorkerFault {
    /// Worker slot the fault happened on.
    pub slot: usize,
    /// Terminal count of the job that paid for the fault.
    pub terminals: u32,
    /// Replication index of that job.
    pub replication: u32,
    /// Attempt number (1-based) the fault consumed.
    pub attempt: u32,
    /// Dispatcher-side description of the fault.
    pub reason: String,
    /// Most recent stderr lines from the worker incarnation, oldest
    /// first; bounded at [`STDERR_TAIL_LINES`] lines.
    pub stderr_tail: Vec<String>,
}

/// Lines of worker stderr retained per incarnation for fault reports.
pub const STDERR_TAIL_LINES: usize = 16;

/// Longest retained stderr line, in bytes; longer lines are truncated.
pub const STDERR_TAIL_LINE_BYTES: usize = 240;

/// A shared bounded tail of one worker incarnation's stderr.
type StderrTail = Arc<Mutex<VecDeque<String>>>;

/// One decoded `spiffi-telemetry` frame, tagged with the job identity and
/// worker incarnation it arrived from.
#[derive(Clone, Debug)]
pub struct WorkerTelemetry {
    /// Worker slot that ran the job.
    pub slot: usize,
    /// Incarnation counter of that slot when the frame arrived.
    pub gen: u64,
    /// Terminal count of the job the frame describes.
    pub terminals: u32,
    /// Replication index of that job.
    pub replication: u32,
    /// The decoded frame: samples, phase spans, journal delta.
    pub record: wire::TelemetryRecord,
}

/// A message from a worker's stdout-reader thread.
enum WorkerEvent {
    /// One line of output from worker `slot`, incarnation `gen`.
    Line { slot: usize, gen: u64, line: String },
    /// Worker `slot`, incarnation `gen`, closed its stdout (died or was
    /// killed).
    Eof { slot: usize, gen: u64 },
}

/// One worker process slot: the live child, its stdin, and the job it is
/// chewing on. The `gen` counter distinguishes the current incarnation's
/// messages from a killed predecessor's.
struct Slot {
    child: Child,
    stdin: ChildStdin,
    gen: u64,
    active: Option<(PendingJob, Instant)>,
    /// Digests of snapshot frames already written to *this incarnation's*
    /// stdin. Dies with the incarnation: a respawned worker has an empty
    /// cache and is re-shipped on its next snapshot-referencing job.
    shipped: HashSet<u64>,
    /// Bounded tail of this incarnation's stderr, fed by its reader
    /// thread; snapshotted into [`WorkerFault`] records.
    stderr_tail: StderrTail,
}

/// A pool of `spiffi-worker` children with timeout/retry/quarantine
/// fault handling. See the [module docs](self).
pub struct ProcessPool {
    cfg: ProcessConfig,
    slots: Vec<Slot>,
    rx: Receiver<WorkerEvent>,
    tx: Sender<WorkerEvent>,
    queue: VecDeque<PendingJob>,
    resolved: VecDeque<Resolved>,
    next_id: u64,
    next_gen: u64,
    retries: u64,
    respawns: u64,
    quarantined: u64,
    snapshot_bytes_shipped: u64,
    worker_forks: u64,
    ship_nanos: u64,
    telemetry: Vec<WorkerTelemetry>,
    telemetry_dropped: u64,
    faults: Vec<WorkerFault>,
}

impl std::fmt::Debug for ProcessPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessPool")
            .field("workers", &self.slots.len())
            .field("queued", &self.queue.len())
            .field("retries", &self.retries)
            .field("respawns", &self.respawns)
            .field("quarantined", &self.quarantined)
            .finish()
    }
}

impl ProcessPool {
    /// Spawn the pool. An error here (missing binary, fork failure) is the
    /// caller's cue to fall back to in-process execution.
    pub fn spawn(cfg: ProcessConfig) -> std::io::Result<ProcessPool> {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = ProcessPool {
            slots: Vec::with_capacity(cfg.workers),
            cfg,
            rx,
            tx,
            queue: VecDeque::new(),
            resolved: VecDeque::new(),
            next_id: 1,
            next_gen: 0,
            retries: 0,
            respawns: 0,
            quarantined: 0,
            snapshot_bytes_shipped: 0,
            worker_forks: 0,
            ship_nanos: 0,
            telemetry: Vec::new(),
            telemetry_dropped: 0,
            faults: Vec::new(),
        };
        for i in 0..pool.cfg.workers {
            let slot = pool.spawn_worker_at(i)?;
            pool.slots.push(slot);
        }
        Ok(pool)
    }

    /// Replace the worker in `slot` with a fresh incarnation, killing the
    /// old child. The old incarnation's remaining messages are ignored by
    /// generation. If the replacement itself cannot be spawned the slot is
    /// left with the dead child; jobs assigned to it fail their stdin
    /// write and retry elsewhere until quarantine, so the pool degrades
    /// instead of deadlocking.
    fn respawn(&mut self, slot: usize) {
        let _ = self.slots[slot].child.kill();
        let _ = self.slots[slot].child.wait();
        self.respawns += 1;
        match self.spawn_worker_at(slot) {
            Ok(s) => self.slots[slot] = s,
            Err(e) => {
                eprintln!("spiffi engine: failed to respawn worker {slot}: {e}");
            }
        }
    }

    /// Spawn a worker child whose reader thread reports as `slot_index`.
    fn spawn_worker_at(&mut self, slot_index: usize) -> std::io::Result<Slot> {
        let mut cmd = Command::new(&self.cfg.worker_bin);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd.env_remove("SPIFFI_WORKERS");
        for (k, v) in &self.cfg.worker_env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");
        let gen = self.next_gen;
        self.next_gen += 1;
        // Tee the worker's stderr: each line still reaches the
        // dispatcher's stderr (as it did under Stdio::inherit), but a
        // bounded tail is retained so a crashed worker's last words can be
        // surfaced in its fault record instead of scrolling away.
        let stderr_tail: StderrTail = Arc::new(Mutex::new(VecDeque::new()));
        let tail = Arc::clone(&stderr_tail);
        std::thread::spawn(move || {
            use std::io::BufRead as _;
            let reader = std::io::BufReader::new(stderr);
            for line in reader.lines() {
                let Ok(mut line) = line else { break };
                eprintln!("{line}");
                if line.len() > STDERR_TAIL_LINE_BYTES {
                    let cut = (0..=STDERR_TAIL_LINE_BYTES)
                        .rev()
                        .find(|&i| line.is_char_boundary(i))
                        .unwrap_or(0);
                    line.truncate(cut);
                }
                let mut ring = tail.lock().unwrap();
                if ring.len() == STDERR_TAIL_LINES {
                    ring.pop_front();
                }
                ring.push_back(line);
            }
        });
        let tx = self.tx.clone();
        std::thread::spawn(move || {
            use std::io::BufRead as _;
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if tx
                    .send(WorkerEvent::Line {
                        slot: slot_index,
                        gen,
                        line,
                    })
                    .is_err()
                {
                    return;
                }
            }
            let _ = tx.send(WorkerEvent::Eof {
                slot: slot_index,
                gen,
            });
        });
        Ok(Slot {
            child,
            stdin,
            gen,
            active: None,
            shipped: HashSet::new(),
            stderr_tail,
        })
    }

    /// Worker slots with no job assigned.
    pub fn idle_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.active.is_none()).count()
    }

    /// Jobs accepted but not yet resolved (queued or on a worker).
    pub fn inflight(&self) -> usize {
        self.queue.len() + self.slots.iter().filter(|s| s.active.is_some()).count()
    }

    /// Worker deaths (crash, timeout kill, or garbage output) so far.
    pub fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Job attempts beyond the first.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Jobs handed back unresolved after exhausting their attempts.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// Bytes of snapshot frames written to worker stdins so far,
    /// re-ships to respawned incarnations included.
    pub fn snapshot_bytes_shipped(&self) -> u64 {
        self.snapshot_bytes_shipped
    }

    /// Snapshot-referencing jobs a worker resolved successfully — each one
    /// a base prefix the worker forked instead of re-simulating. (A worker
    /// that failed to decode its frame falls back to a from-scratch build
    /// with a bit-identical outcome; the dispatcher cannot see the
    /// difference, so this counts shipped-and-answered, the intent.)
    pub fn worker_forks(&self) -> u64 {
        self.worker_forks
    }

    /// Wall-clock nanoseconds spent writing snapshot frames to worker
    /// stdins (the "ship" phase of the snapshot pipeline).
    pub fn ship_nanos(&self) -> u64 {
        self.ship_nanos
    }

    /// Drain the telemetry frames collected so far (in arrival order).
    pub fn take_telemetry(&mut self) -> Vec<WorkerTelemetry> {
        std::mem::take(&mut self.telemetry)
    }

    /// Telemetry frames dropped because they failed to parse or could not
    /// be matched to the slot's active job. Dropping is the only failure
    /// mode — telemetry is observational, so a corrupt frame never costs
    /// the job an attempt.
    pub fn telemetry_dropped(&self) -> u64 {
        self.telemetry_dropped
    }

    /// Drain the worker fault records collected so far (in fault order).
    pub fn take_faults(&mut self) -> Vec<WorkerFault> {
        std::mem::take(&mut self.faults)
    }

    /// Accept a job: replication `replication` of a probe at `terminals`
    /// terminals of `config` (base seed; the worker derives the
    /// replication seed), built marginally against `base` when set. With
    /// `snapshot` set the job line carries the blob's digest and the blob
    /// is shipped ahead of the job to whichever worker incarnation it
    /// lands on. The job is written to an idle worker immediately when one
    /// exists, otherwise queued.
    pub fn submit(
        &mut self,
        terminals: u32,
        replication: u32,
        base: Option<u32>,
        config: &SystemConfig,
        snapshot: Option<Arc<SnapshotBlob>>,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let line = wire::encode_job(&JobRecord {
            id,
            terminals,
            replication,
            base,
            snapshot: snapshot.as_ref().map(|b| b.digest),
            telemetry: self.cfg.telemetry,
            config: config.clone(),
        });
        self.queue.push_back(PendingJob {
            id,
            terminals,
            replication,
            line,
            snapshot,
            attempts: 0,
        });
        self.dispatch();
    }

    /// Hand queued jobs to idle workers. A worker whose stdin is broken
    /// (it died since its last job) costs the job an attempt, triggers a
    /// respawn, and the job re-queues — so this terminates: every pass
    /// either parks a job on a live worker or burns one attempt.
    fn dispatch(&mut self) {
        while !self.queue.is_empty() {
            let Some(slot) = self.slots.iter().position(|s| s.active.is_none()) else {
                return;
            };
            let mut job = self.queue.pop_front().expect("non-empty queue");
            job.attempts += 1;
            // Ship the snapshot frame ahead of the first job line that
            // references it on this incarnation. `shipped` lives on the
            // Slot, so a respawned worker (which lost its cache) is
            // re-sent the frame automatically.
            let mut wrote = Ok(());
            if let Some(blob) = &job.snapshot {
                if !self.slots[slot].shipped.contains(&blob.digest) {
                    let t0 = Instant::now();
                    wrote = writeln!(self.slots[slot].stdin, "{}", blob.line);
                    self.ship_nanos += t0.elapsed().as_nanos() as u64;
                    if wrote.is_ok() {
                        self.slots[slot].shipped.insert(blob.digest);
                        self.snapshot_bytes_shipped += blob.line.len() as u64 + 1;
                    }
                }
            }
            if wrote.is_ok()
                && writeln!(self.slots[slot].stdin, "{}", job.line)
                    .and_then(|_| self.slots[slot].stdin.flush())
                    .is_ok()
            {
                let deadline = Instant::now() + self.cfg.job_timeout;
                self.slots[slot].active = Some((job, deadline));
            } else {
                self.respawn(slot);
                self.requeue_or_quarantine(job);
            }
        }
    }

    /// A failed attempt: retry the job (at the queue front, so it resolves
    /// promptly) or quarantine it once its attempts are spent.
    fn requeue_or_quarantine(&mut self, job: PendingJob) {
        if job.attempts >= self.cfg.max_attempts {
            self.quarantined += 1;
            self.resolved.push_back(Resolved {
                terminals: job.terminals,
                replication: job.replication,
                outcome: None,
                attempts: job.attempts,
            });
        } else {
            self.retries += 1;
            self.queue.push_front(job);
        }
    }

    /// Snapshot the current tail of `slot`'s stderr (oldest line first).
    /// A crashed worker's stdout EOF can outrun its stderr reader thread
    /// by a scheduling quantum, so an empty tail is given a short bounded
    /// grace to fill before the snapshot is taken.
    fn stderr_tail_of(&self, slot: usize) -> Vec<String> {
        for _ in 0..20 {
            if !self.slots[slot].stderr_tail.lock().unwrap().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.slots[slot]
            .stderr_tail
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .collect()
    }

    /// Record one worker fault with the slot's current stderr tail.
    fn record_fault(&mut self, slot: usize, job: &PendingJob, reason: &str) {
        self.faults.push(WorkerFault {
            slot,
            terminals: job.terminals,
            replication: job.replication,
            attempt: job.attempts,
            reason: reason.to_string(),
            stderr_tail: self.stderr_tail_of(slot),
        });
    }

    /// Fail the active job on `slot` (worker death, timeout, or garbage
    /// output), respawning the worker.
    fn fail_active(&mut self, slot: usize, why: &str) {
        if let Some((job, _)) = self.slots[slot].active.take() {
            eprintln!(
                "spiffi engine: worker {slot} failed job {} (n={} r={}, attempt {}): {why}",
                job.id, job.terminals, job.replication, job.attempts
            );
            self.record_fault(slot, &job, why);
            self.respawn(slot);
            self.requeue_or_quarantine(job);
        } else {
            // Died idle: just replace it.
            self.respawn(slot);
        }
        self.dispatch();
    }

    /// Block until one job resolves — successfully or by quarantine —
    /// handling timeouts, crashes, and malformed output along the way.
    /// Returns `None` when the pool has nothing in flight.
    pub fn wait_one(&mut self) -> Option<Resolved> {
        loop {
            if let Some(done) = self.resolved.pop_front() {
                return Some(done);
            }
            self.dispatch();
            let now = Instant::now();
            let deadline = self
                .slots
                .iter()
                .filter_map(|s| s.active.as_ref().map(|(_, d)| *d))
                .min()?; // no active job anywhere -> nothing will ever arrive
            let wait = deadline.saturating_duration_since(now);
            match self.rx.recv_timeout(wait) {
                Ok(WorkerEvent::Line { slot, gen, line }) => {
                    if self.slots[slot].gen != gen {
                        continue; // a killed incarnation's leftovers
                    }
                    // Telemetry frames ride the same stdout pipe as
                    // results; route them out before the result parser
                    // (which would call them garbage and kill the
                    // worker). A frame that fails its digest or parse is
                    // counted and dropped — telemetry is observational,
                    // so it never costs the job an attempt.
                    if line.starts_with("spiffi-telemetry/") {
                        match wire::parse_telemetry(&line) {
                            Ok(record) => {
                                let matched = self.slots[slot]
                                    .active
                                    .as_ref()
                                    .filter(|(job, _)| job.id == record.job)
                                    .map(|(job, _)| (job.terminals, job.replication));
                                match matched {
                                    Some((terminals, replication)) => {
                                        self.telemetry.push(WorkerTelemetry {
                                            slot,
                                            gen,
                                            terminals,
                                            replication,
                                            record,
                                        });
                                    }
                                    None => self.telemetry_dropped += 1,
                                }
                            }
                            Err(e) => {
                                self.telemetry_dropped += 1;
                                eprintln!(
                                    "spiffi engine: worker {slot} sent a bad telemetry \
                                     frame ({e}); dropped"
                                );
                            }
                        }
                        continue;
                    }
                    match wire::parse_result(&line) {
                        Ok(result) => {
                            let matches = self.slots[slot]
                                .active
                                .as_ref()
                                .is_some_and(|(job, _)| job.id == result.id);
                            if !matches {
                                self.fail_active(slot, "answered the wrong job id");
                                continue;
                            }
                            let (job, _) = self.slots[slot].active.take().expect("matched above");
                            match result.outcome {
                                Ok(out) => {
                                    self.worker_forks += job.snapshot.is_some() as u64;
                                    self.dispatch();
                                    return Some(Resolved {
                                        terminals: job.terminals,
                                        replication: job.replication,
                                        outcome: Some(out),
                                        attempts: job.attempts,
                                    });
                                }
                                Err(msg) => {
                                    // The worker itself reported failure
                                    // (bad config, bad line). Its process
                                    // is fine; only the job pays.
                                    eprintln!(
                                        "spiffi engine: worker {slot} rejected job {}: {msg}",
                                        job.id
                                    );
                                    self.record_fault(slot, &job, &format!("rejected: {msg}"));
                                    if job.attempts >= self.cfg.max_attempts {
                                        self.quarantined += 1;
                                        self.dispatch();
                                        return Some(Resolved {
                                            terminals: job.terminals,
                                            replication: job.replication,
                                            outcome: None,
                                            attempts: job.attempts,
                                        });
                                    }
                                    self.retries += 1;
                                    self.queue.push_front(job);
                                    self.dispatch();
                                }
                            }
                        }
                        Err(e) => {
                            self.fail_active(slot, &format!("malformed output ({e}): {line:?}"));
                        }
                    }
                }
                Ok(WorkerEvent::Eof { slot, gen }) => {
                    if self.slots[slot].gen != gen {
                        continue;
                    }
                    self.fail_active(slot, "worker exited (EOF)");
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    let expired: Vec<usize> = self
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.active.as_ref().is_some_and(|&(_, d)| d <= now))
                        .map(|(i, _)| i)
                        .collect();
                    for slot in expired {
                        self.fail_active(slot, "job timeout");
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Impossible while the pool holds a sender; defend
                    // anyway by quarantining everything still in flight.
                    let jobs: Vec<PendingJob> = self
                        .queue
                        .drain(..)
                        .chain(
                            self.slots
                                .iter_mut()
                                .filter_map(|s| s.active.take().map(|(j, _)| j)),
                        )
                        .collect();
                    for mut job in jobs {
                        job.attempts = self.cfg.max_attempts;
                        self.requeue_or_quarantine(job);
                    }
                }
            }
        }
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }
}
