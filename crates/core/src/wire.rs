//! The worker wire protocol: how the process-level experiment backend
//! ships probe jobs to `spiffi-worker` children and reads results back.
//!
//! The protocol is deliberately dumb — line-oriented, versioned, and
//! self-contained — so a worker can run on the far side of any byte pipe.
//! Every record is a `spiffi-<kind>/<version>` head followed by tokens of
//! the one snap grammar ([`spiffi_simcore::snap`]), written by a
//! [`SnapWriter`] and read back positionally by a [`SnapReader`] that
//! ends in `finish()`. Floats travel as IEEE-754 bit patterns, so every
//! decoded value is **bit-identical** to the sender's:
//!
//! * **Job lines** (dispatcher → worker): `spiffi-job/<version>`, header
//!   tokens (id, terminal count, replication, then the optional marginal
//!   base, snapshot digest and telemetry interval, each behind a presence
//!   flag), the [`SystemConfig::snap_export`] tokens, and `end=1`.
//! * **Result records** (worker → dispatcher): `spiffi-result/<version>
//!   job=… ok=1 gl=… ev=… wn=… end=1`, or `ok=0 err=…` with the error
//!   text in one hex token ([`SnapWriter::text`]), so no message can
//!   break the line framing.
//! * **Snapshot frames** (dispatcher → worker): `spiffi-snapshot/<version>
//!   digest=… base=… repl=…` and the
//!   [`VodSystem::snap_export`](crate::VodSystem::snap_export) body
//!   verbatim. The digest (FNV-1a 64 over the body) content-addresses it,
//!   so a job's `snap` token can reference a frame shipped earlier.
//! * **Telemetry frames** (worker → dispatcher):
//!   `spiffi-telemetry/<version> digest=… job=…` and a positional body
//!   with count-prefixed span and sample lists.
//!
//! Every parser rejects version-mismatched, truncated, or malformed input
//! with a typed [`WireError`] — never a panic — because worker output is
//! untrusted by construction: a worker may be killed mid-line, and the
//! dispatcher's retry policy depends on telling "garbage" from "crash".
//! A line cut anywhere fails to parse: job and result records must reach
//! their `end` token, and frames must match their digest.

use std::fmt;

use spiffi_simcore::snap::{SnapError, SnapReader, SnapWriter};

use crate::config::SystemConfig;

/// Protocol version; bumped whenever a record's shape changes. A
/// dispatcher and worker must agree exactly — there is no negotiation,
/// because both halves ship in one binary's workspace. v2 added the
/// marginal-probe base count; v3 the `spiffi-snapshot` state frame and
/// the job's snapshot digest; v4 the job's telemetry interval and the
/// `spiffi-telemetry` frame a worker streams back. v5 moved every record
/// onto the snap token grammar: the job's config is its
/// [`SystemConfig::snap_export`] tokens, and results are token lines
/// instead of JSON.
pub const PROTO_VERSION: u32 = 5;

/// One probe-replication job: simulate `config` at `terminals` terminals,
/// replication `replication` (the worker derives the replication seed from
/// the config's base seed, exactly like the in-process engine).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Dispatcher-assigned job id, echoed in the result record.
    pub id: u64,
    /// Terminal count to probe.
    pub terminals: u32,
    /// Replication index within the probe.
    pub replication: u32,
    /// Marginal-probe base count: `Some(b)` selects
    /// [`VodSystem::with_library_marginal`](crate::VodSystem::with_library_marginal)
    /// timing with base `b`, `None` the legacy full-stagger build. Must
    /// match the dispatcher's snapshot mode or outcomes would silently
    /// diverge from the in-process engine's.
    pub base: Option<u32>,
    /// Digest of a previously shipped [`SnapshotRecord`] the worker should
    /// fork from instead of rebuilding the base prefix from scratch.
    /// `None` (and any job whose digest the worker has not seen) builds
    /// from scratch — the outcome is bit-identical either way, so the
    /// token is an optimization hint, never a correctness requirement.
    pub snapshot: Option<u64>,
    /// Telemetry request: `Some(interval_ns)` asks the worker to run the
    /// job under a real probe, sampling at this interval, and stream a
    /// `spiffi-telemetry` frame back before the result line. `None` (the
    /// default) keeps the zero-cost `NoopProbe` path. Probes are
    /// observation-only, so the job's outcome is bit-identical either
    /// way.
    pub telemetry: Option<u64>,
    /// Full system configuration (base seed included).
    pub config: SystemConfig,
}

/// One parsed snapshot frame: a content digest, the base population and
/// replication index the snapshot was captured at, and the raw snap-token
/// body (borrowed from the line — snapshot bodies are large).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotRecord<'a> {
    /// FNV-1a 64 digest of `body`, verified by [`parse_snapshot`].
    pub digest: u64,
    /// Base terminal population the snapshot was captured at.
    pub base: u32,
    /// Replication index whose seed the snapshot was built under.
    pub replication: u32,
    /// The [`VodSystem::snap_export`](crate::VodSystem::snap_export)
    /// token stream, verbatim.
    pub body: &'a str,
}

/// What a worker measured for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Glitches measured before the run stopped (0 = clean window).
    pub glitches: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Worker-side wall clock spent simulating, nanoseconds.
    pub wall_nanos: u64,
}

/// One result record: a job id plus either a measured outcome or the
/// worker's error message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultRecord {
    /// The job this result answers.
    pub id: u64,
    /// Measured outcome, or the worker-side failure description.
    pub outcome: Result<WorkerOutcome, String>,
}

/// Why a wire record failed to parse. Every variant is a protocol error
/// the dispatcher handles by policy (retry, respawn, quarantine) — none
/// should ever abort the search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The record declares a protocol version this build does not speak.
    Version {
        /// Version the record declared.
        got: u32,
        /// Version this build speaks ([`PROTO_VERSION`]).
        want: u32,
    },
    /// The record is not of the expected kind at all (wrong prefix — e.g.
    /// a stray diagnostic line on the worker's stdout).
    UnknownRecord,
    /// The record's tokens failed to decode: cut short (a worker killed
    /// while writing), a field missing or malformed, tokens left over, or
    /// a frame body that does not match its digest.
    Snap(SnapError),
}

impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        WireError::Snap(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Version { got, want } => write!(f, "wire v{got}, this build speaks v{want}"),
            WireError::UnknownRecord => write!(f, "not a recognized wire record"),
            WireError::Snap(e) => write!(f, "malformed record: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The content digest a snapshot (or telemetry) body carries on the wire
/// — what a job's `snap` token references. FNV-1a 64, chosen for being
/// four lines of dependency-free code with good avalanche on text: it
/// guards against truncation and byte corruption on a local pipe, not
/// against an adversary.
pub fn snapshot_digest(body: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in body.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const JOB: &str = "spiffi-job/";
const RESULT: &str = "spiffi-result/";
const SNAPSHOT: &str = "spiffi-snapshot/";
const TELEMETRY: &str = "spiffi-telemetry/";

/// Check a line's `spiffi-<kind>/<version>` head (`kind` includes the
/// slash) and return the tokens after it.
fn open<'a>(line: &'a str, kind: &str) -> Result<&'a str, WireError> {
    let rest = line
        .trim_end_matches(['\r', '\n'])
        .strip_prefix(kind)
        .ok_or(WireError::UnknownRecord)?;
    let (version, tokens) = rest.split_once(' ').unwrap_or((rest, ""));
    let got = version.parse().map_err(|_| SnapError::BadValue {
        key: "version",
        value: version.chars().take(40).collect(),
    })?;
    if got != PROTO_VERSION {
        return Err(WireError::Version {
            got,
            want: PROTO_VERSION,
        });
    }
    Ok(tokens)
}

/// Close a job or result record: its final token is `end=1`, so a line
/// cut anywhere — even inside its last number — fails to parse, and
/// nothing may follow it.
fn close(mut r: SnapReader<'_>) -> Result<(), WireError> {
    if !r.bool("end")? {
        return Err(SnapError::BadValue {
            key: "end",
            value: "0".into(),
        }
        .into());
    }
    Ok(r.finish()?)
}

/// Encode a digest-framed line: `spiffi-<kind>/<version> digest=…`, the
/// `header` tokens, then `body` verbatim.
fn encode_frame(kind: &str, header: &[(&str, u64)], body: &str) -> String {
    let mut w = SnapWriter::new();
    w.u64("digest", snapshot_digest(body));
    for &(key, v) in header {
        w.u64(key, v);
    }
    format!("{kind}{PROTO_VERSION} {} {body}", w.finish())
}

/// Split a digest-framed line into its digest, a reader over its other
/// `header_tokens` header tokens, and its body, which must hash to the
/// digest. A frame truncated or corrupted anywhere in its (possibly
/// large) body fails here, before any of the body is interpreted.
fn open_frame<'a>(
    line: &'a str,
    kind: &str,
    header_tokens: usize,
) -> Result<(u64, SnapReader<'a>, &'a str), WireError> {
    let rest = open(line, kind)?;
    let (header, body) = match rest.match_indices(' ').nth(header_tokens) {
        Some((at, _)) => (&rest[..at], &rest[at + 1..]),
        None => (rest, ""),
    };
    let mut r = SnapReader::new(header);
    let digest = r.u64("digest")?;
    if snapshot_digest(body) != digest {
        return Err(SnapError::BadValue {
            key: "digest",
            value: digest.to_string(),
        }
        .into());
    }
    Ok((digest, r, body))
}

/// Encode a snapshot frame as one protocol line (no trailing newline).
/// `body` is the [`VodSystem::snap_export`](crate::VodSystem::snap_export)
/// token stream; the digest is computed here so an encoded frame always
/// verifies.
pub fn encode_snapshot(base: u32, replication: u32, body: &str) -> String {
    let header = [("base", base.into()), ("repl", replication.into())];
    encode_frame(SNAPSHOT, &header, body)
}

/// Parse one snapshot frame, verifying the digest over the body. A digest
/// mismatch is an error, so the worker falls back to building from
/// scratch instead of importing corrupt state.
pub fn parse_snapshot(line: &str) -> Result<SnapshotRecord<'_>, WireError> {
    let (digest, mut r, body) = open_frame(line, SNAPSHOT, 2)?;
    let record = SnapshotRecord {
        digest,
        base: r.u32("base")?,
        replication: r.u32("repl")?,
        body,
    };
    r.finish()?;
    Ok(record)
}

/// Encode a job as one protocol line (no trailing newline).
pub fn encode_job(job: &JobRecord) -> String {
    let mut w = SnapWriter::new();
    w.u64("id", job.id);
    w.u32("n", job.terminals);
    w.u32("r", job.replication);
    w.bool("hb", job.base.is_some());
    if let Some(b) = job.base {
        w.u32("base", b);
    }
    w.bool("hs", job.snapshot.is_some());
    if let Some(digest) = job.snapshot {
        w.u64("snap", digest);
    }
    w.bool("ht", job.telemetry.is_some());
    if let Some(interval_ns) = job.telemetry {
        w.u64("telem", interval_ns);
    }
    job.config.snap_export(&mut w);
    w.bool("end", true);
    format!("{JOB}{PROTO_VERSION} {}", w.finish())
}

/// Parse one job line. Rejects wrong-version, truncated, and malformed
/// lines with a typed [`WireError`].
pub fn parse_job(line: &str) -> Result<JobRecord, WireError> {
    let mut r = SnapReader::new(open(line, JOB)?);
    let job = JobRecord {
        id: r.u64("id")?,
        terminals: r.u32("n")?,
        replication: r.u32("r")?,
        base: r.bool("hb")?.then(|| r.u32("base")).transpose()?,
        snapshot: r.bool("hs")?.then(|| r.u64("snap")).transpose()?,
        telemetry: r.bool("ht")?.then(|| r.u64("telem")).transpose()?,
        config: SystemConfig::snap_import(&mut r)?,
    };
    close(r)?;
    Ok(job)
}

/// Encode a result as one protocol line (no trailing newline). An error
/// message is untrusted text (library build failures, panics), so it
/// travels hex-encoded in one token: no character of it — above all a
/// newline — can break the line framing.
pub fn encode_result(result: &ResultRecord) -> String {
    let mut w = SnapWriter::new();
    w.u64("job", result.id);
    w.bool("ok", result.outcome.is_ok());
    match &result.outcome {
        Ok(out) => {
            w.u64("gl", out.glitches);
            w.u64("ev", out.events);
            w.u64("wn", out.wall_nanos);
        }
        Err(msg) => w.text("err", msg),
    }
    w.bool("end", true);
    format!("{RESULT}{PROTO_VERSION} {}", w.finish())
}

/// Parse one worker result record. Rejects wrong-version, truncated, and
/// malformed records with a typed [`WireError`].
pub fn parse_result(line: &str) -> Result<ResultRecord, WireError> {
    let mut r = SnapReader::new(open(line, RESULT)?);
    let id = r.u64("job")?;
    let outcome = if r.bool("ok")? {
        Ok(WorkerOutcome {
            glitches: r.u64("gl")?,
            events: r.u64("ev")?,
            wall_nanos: r.u64("wn")?,
        })
    } else {
        Err(r.text("err")?)
    };
    close(r)?;
    Ok(ResultRecord { id, outcome })
}

/// A coarse execution phase of a worker job, in simulation time.
/// `wall_nanos` carries the measured wall-clock cost where one exists
/// (import/fork/simulate) and 0 for purely simulated phases
/// (warmup/measure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySpan {
    /// Stable phase label; one of [`PHASE_LABELS`].
    pub label: &'static str,
    /// Phase start, simulation nanoseconds.
    pub sim_start: u64,
    /// Phase end, simulation nanoseconds (equal to `sim_start` for
    /// point-in-time phases like a snapshot import).
    pub sim_end: u64,
    /// Measured wall-clock cost, nanoseconds.
    pub wall_nanos: u64,
}

/// The phase labels a [`TelemetrySpan`] may carry, in canonical order.
pub const PHASE_LABELS: [&str; 5] = ["warmup", "import", "fork", "simulate", "measure"];

/// One fixed-interval probe sample, the wire form of a trace
/// `SampleRow`. Utilizations ride as IEEE-754 bit patterns so the
/// dispatcher reassembles bit-identical rows.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// End of the sampled interval, simulation nanoseconds.
    pub t_ns: u64,
    /// Bytes on the wire during the interval.
    pub net_bytes: u64,
    /// Buffer-pool frames in use at interval end.
    pub pool_in_use: u64,
    /// Demand I/Os in flight at interval end.
    pub outstanding_deadlines: u64,
    /// Per-disk utilization over the interval.
    pub disk_util: Vec<f64>,
}

/// The per-job journal delta a telemetry frame carries: counters the
/// dispatcher folds into the search-wide `RunJournal`, plus the worker's
/// own report utilization for cross-checking the shipped samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryDelta {
    /// Glitches the job measured (0 = clean window).
    pub glitches: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Wall clock spent importing the referenced snapshot (0 when cached
    /// or built from scratch).
    pub import_wall_nanos: u64,
    /// Wall clock spent forking the imported base (0 when built from
    /// scratch).
    pub fork_wall_nanos: u64,
    /// Wall clock spent simulating.
    pub simulate_wall_nanos: u64,
    /// Whether the job resolved by forking a shipped snapshot.
    pub forked: bool,
    /// The worker's `RunReport::avg_disk_utilization`.
    pub avg_disk_utilization: f64,
}

/// One parsed telemetry frame: everything a worker observed running one
/// job under a real probe.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryRecord {
    /// The job this frame describes (the result line follows it).
    pub job: u64,
    /// The sampler interval the worker ran with, nanoseconds.
    pub interval_ns: u64,
    /// Journal delta.
    pub delta: TelemetryDelta,
    /// Coarse phase spans.
    pub spans: Vec<TelemetrySpan>,
    /// Fixed-interval samples, in time order.
    pub samples: Vec<TelemetrySample>,
}

fn telemetry_body(rec: &TelemetryRecord) -> String {
    let d = &rec.delta;
    let mut w = SnapWriter::new();
    w.u64("iv", rec.interval_ns);
    w.u64("gl", d.glitches);
    w.u64("ev", d.events);
    w.u64("iw", d.import_wall_nanos);
    w.u64("fw", d.fork_wall_nanos);
    w.u64("sw", d.simulate_wall_nanos);
    w.bool("fk", d.forked);
    w.f64("du", d.avg_disk_utilization);
    w.usize("ns", rec.spans.len());
    for span in &rec.spans {
        // A label outside PHASE_LABELS encodes out of range, so the
        // dispatcher drops the frame instead of mislabelling a span.
        let label = PHASE_LABELS.iter().position(|&l| l == span.label);
        w.usize("sl", label.unwrap_or(PHASE_LABELS.len()));
        w.u64("s0", span.sim_start);
        w.u64("s1", span.sim_end);
        w.u64("sw", span.wall_nanos);
    }
    w.usize("nr", rec.samples.len());
    for sample in &rec.samples {
        w.u64("t", sample.t_ns);
        w.u64("nb", sample.net_bytes);
        w.u64("pu", sample.pool_in_use);
        w.u64("od", sample.outstanding_deadlines);
        w.usize("nd", sample.disk_util.len());
        for &u in &sample.disk_util {
            w.f64("u", u);
        }
    }
    w.finish()
}

/// Encode a telemetry frame as one protocol line (no trailing newline).
/// Digest-framed like snapshots: the FNV-1a 64 digest over the body is
/// computed here, so an encoded frame always verifies.
pub fn encode_telemetry(rec: &TelemetryRecord) -> String {
    encode_frame(TELEMETRY, &[("job", rec.job)], &telemetry_body(rec))
}

/// Parse one telemetry frame, verifying the digest over the body before
/// any field is interpreted. Telemetry is observability, never
/// correctness: the dispatcher drops bad frames (counted) and the search
/// proceeds on the result line alone.
pub fn parse_telemetry(line: &str) -> Result<TelemetryRecord, WireError> {
    let (_, mut header, body) = open_frame(line, TELEMETRY, 1)?;
    let job = header.u64("job")?;
    header.finish()?;
    let mut r = SnapReader::new(body);
    let interval_ns = r.u64("iv")?;
    let delta = TelemetryDelta {
        glitches: r.u64("gl")?,
        events: r.u64("ev")?,
        import_wall_nanos: r.u64("iw")?,
        fork_wall_nanos: r.u64("fw")?,
        simulate_wall_nanos: r.u64("sw")?,
        forked: r.bool("fk")?,
        avg_disk_utilization: r.f64("du")?,
    };
    // The list counts are untrusted: capacity is capped, and the lists
    // grow only as entries actually decode.
    let n_spans = r.usize("ns")?;
    let mut spans = Vec::with_capacity(n_spans.min(PHASE_LABELS.len()));
    for _ in 0..n_spans {
        let i = r.usize("sl")?;
        let label = *PHASE_LABELS.get(i).ok_or_else(|| SnapError::BadValue {
            key: "sl",
            value: i.to_string(),
        })?;
        spans.push(TelemetrySpan {
            label,
            sim_start: r.u64("s0")?,
            sim_end: r.u64("s1")?,
            wall_nanos: r.u64("sw")?,
        });
    }
    let n_samples = r.usize("nr")?;
    let mut samples = Vec::with_capacity(n_samples.min(4096));
    for _ in 0..n_samples {
        samples.push(TelemetrySample {
            t_ns: r.u64("t")?,
            net_bytes: r.u64("nb")?,
            pool_in_use: r.u64("pu")?,
            outstanding_deadlines: r.u64("od")?,
            disk_util: {
                let n_disks = r.usize("nd")?;
                let mut utils = Vec::with_capacity(n_disks.min(64));
                for _ in 0..n_disks {
                    utils.push(r.f64("u")?);
                }
                utils
            },
        });
    }
    r.finish()?;
    Ok(TelemetryRecord {
        job,
        interval_ns,
        delta,
        spans,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PauseConfig;
    use crate::scenario::{BitrateMix, FaultSpec, Scenario};
    use spiffi_layout::Placement;
    use spiffi_mpeg::AccessPattern;
    use spiffi_prefetch::PrefetchKind;
    use spiffi_sched::SchedulerKind;
    use spiffi_simcore::SimDuration;

    fn job(cfg: SystemConfig) -> JobRecord {
        JobRecord {
            id: 42,
            terminals: 24,
            replication: 1,
            base: None,
            snapshot: None,
            telemetry: None,
            config: cfg,
        }
    }

    /// Configs at the edges of the codec: every enum arm with a payload,
    /// every optional field present, a scenario with every fault kind,
    /// floats hugging their domains, and integers at their limits. They
    /// need not validate — the wire round-trips what it is given; the
    /// worker validates before simulating.
    fn exotic_configs() -> Vec<SystemConfig> {
        let mut exotic = SystemConfig::paper_base();
        exotic.access = AccessPattern::Zipf(0.271828);
        exotic.placement = Placement::StripeGroup { width: 4 };
        exotic.scheduler = SchedulerKind::RealTime {
            classes: 3,
            spacing: SimDuration::from_secs(4),
        };
        exotic.prefetch = PrefetchKind::Delayed {
            processes: 2,
            max_advance: SimDuration::from_secs(8),
        };
        exotic.pause = Some(PauseConfig::default());
        exotic.piggyback_delay = Some(SimDuration::from_secs(300));
        exotic.search_speedup = Some(10);
        exotic.scenario = Some(Scenario {
            faults: vec![
                FaultSpec::DiskDeath {
                    node: 0,
                    disk: 1,
                    at: SimDuration::from_secs(20),
                },
                FaultSpec::DiskDegrade {
                    node: 1,
                    disk: 0,
                    at: SimDuration::from_secs(5),
                    dur: SimDuration::from_secs(10),
                    factor_pct: 200,
                },
                FaultSpec::AbandonBurst {
                    at: SimDuration::from_secs(25),
                    every: 3,
                },
            ],
            mix: Some(BitrateMix {
                every: 4,
                bit_rate_bps: 15_000_000,
            }),
        });
        let mut gss = SystemConfig::small_test().with_scheduler(SchedulerKind::Gss { groups: 2 });
        gss.access = AccessPattern::Uniform;
        gss.placement = Placement::NonStriped;
        gss.prefetch = PrefetchKind::Off;
        gss.scenario = Some(Scenario::default());
        let mut edges = SystemConfig::small_test();
        edges.access = AccessPattern::Zipf(f64::from_bits(0.5f64.to_bits() + 1));
        edges.disk.seek_factor_ms = f64::MIN_POSITIVE;
        edges.cpu.mips = 1.0 - 1e-12;
        edges.stripe_bytes = u64::MAX;
        edges.server_memory_bytes = u64::MAX;
        edges.n_terminals = u32::MAX;
        edges.seed = u64::MAX;
        vec![
            SystemConfig::small_test(),
            SystemConfig::paper_base(),
            exotic,
            gss,
            edges,
        ]
    }

    fn telemetry_record() -> TelemetryRecord {
        TelemetryRecord {
            job: 42,
            interval_ns: 1_000_000_000,
            delta: TelemetryDelta {
                glitches: 1,
                events: 123_456,
                import_wall_nanos: 2_000,
                fork_wall_nanos: 3_000,
                simulate_wall_nanos: 400_000,
                forked: true,
                avg_disk_utilization: 0.253_847_261,
            },
            spans: vec![
                TelemetrySpan {
                    label: "warmup",
                    sim_start: 0,
                    sim_end: 15_000_000_000,
                    wall_nanos: 0,
                },
                TelemetrySpan {
                    label: "import",
                    sim_start: 10_000_000_000,
                    sim_end: 10_000_000_000,
                    wall_nanos: 2_000,
                },
                TelemetrySpan {
                    label: "simulate",
                    sim_start: 10_000_000_000,
                    sim_end: 45_000_000_000,
                    wall_nanos: 400_000,
                },
            ],
            samples: vec![
                TelemetrySample {
                    t_ns: 1_000_000_000,
                    net_bytes: 4_096,
                    pool_in_use: 7,
                    outstanding_deadlines: 2,
                    disk_util: vec![0.25, f64::MIN_POSITIVE, 1.0 - 1e-12],
                },
                TelemetrySample {
                    t_ns: 2_000_000_000,
                    net_bytes: 0,
                    pool_in_use: 0,
                    outstanding_deadlines: 0,
                    disk_util: vec![],
                },
            ],
        }
    }

    /// One record kind under test: sample lines, and a decoder that
    /// re-encodes whatever it decoded (so a round trip is a string
    /// comparison, bit for bit).
    struct Kind {
        name: &'static str,
        lines: Vec<String>,
        reencode: fn(&str) -> Result<String, WireError>,
    }

    fn kinds() -> Vec<Kind> {
        let mut jobs = Vec::new();
        for cfg in exotic_configs() {
            jobs.push(encode_job(&job(cfg.clone())));
            let mut full = job(cfg);
            full.id = u64::MAX;
            full.terminals = u32::MAX;
            full.replication = u32::MAX;
            full.base = Some(u32::MAX);
            full.snapshot = Some(u64::MAX);
            full.telemetry = Some(1);
            jobs.push(encode_job(&full));
        }
        let mut empty_telemetry = telemetry_record();
        empty_telemetry.spans.clear();
        empty_telemetry.samples.clear();
        let ok = ResultRecord {
            id: 7,
            outcome: Ok(WorkerOutcome {
                glitches: 0,
                events: 123_456,
                wall_nanos: u64::MAX,
            }),
        };
        let err = |msg: &str| ResultRecord {
            id: 8,
            outcome: Err(msg.into()),
        };
        vec![
            Kind {
                name: "job",
                lines: jobs,
                reencode: |l| parse_job(l).map(|j| encode_job(&j)),
            },
            Kind {
                name: "snapshot",
                lines: vec![
                    encode_snapshot(14, 3, "cn=1234 cq=9 ct=42 ce=1 et=99 es=3"),
                    encode_snapshot(u32::MAX, 0, "x=1"),
                ],
                reencode: |l| {
                    parse_snapshot(l).map(|r| encode_snapshot(r.base, r.replication, r.body))
                },
            },
            Kind {
                name: "telemetry",
                lines: vec![
                    encode_telemetry(&telemetry_record()),
                    encode_telemetry(&empty_telemetry),
                ],
                reencode: |l| parse_telemetry(l).map(|r| encode_telemetry(&r)),
            },
            Kind {
                name: "result",
                lines: vec![
                    encode_result(&ok),
                    encode_result(&err("library \"x\" \\ exploded")),
                    encode_result(&err("thread panicked:\nstack\ttrace\r\u{1}é end=1")),
                    encode_result(&err("")),
                ],
                reencode: |l| parse_result(l).map(|r| encode_result(&r)),
            },
        ]
    }

    /// The adversarial harness, one pass per record kind: exact round
    /// trips, every prefix rejected with a typed error, every single-byte
    /// flip either rejected or decoded to a canonical record (never a
    /// panic), the previous protocol version rejected, and no kind's
    /// parser accepting another kind's line.
    #[test]
    fn every_record_kind_survives_the_adversarial_harness() {
        let kinds = kinds();
        for kind in &kinds {
            for line in &kind.lines {
                let name = kind.name;
                assert!(line.is_ascii() && !line.contains('\n'), "{name}: {line}");
                assert_eq!(
                    (kind.reencode)(line).as_ref(),
                    Ok(line),
                    "{name} round trip"
                );
                // ASCII, so every byte offset is a char boundary.
                for cut in 0..line.len() {
                    assert!(
                        (kind.reencode)(&line[..cut]).is_err(),
                        "{name}: a {cut}-byte prefix parsed: {line}"
                    );
                }
                for at in 0..line.len() {
                    for flip in [line.as_bytes()[at] ^ 1, b' ', b'0'] {
                        let mut bytes = line.clone().into_bytes();
                        bytes[at] = flip;
                        let flipped = String::from_utf8(bytes).expect("ascii");
                        if let Ok(re) = (kind.reencode)(&flipped) {
                            assert_eq!(
                                (kind.reencode)(&re).as_ref(),
                                Ok(&re),
                                "{name}: flip at {at} decoded to a non-canonical record"
                            );
                        }
                    }
                }
                let old = line.replacen(&format!("/{PROTO_VERSION} "), "/4 ", 1);
                assert_eq!(
                    (kind.reencode)(&old),
                    Err(WireError::Version {
                        got: 4,
                        want: PROTO_VERSION
                    }),
                    "{name}"
                );
                for other in kinds.iter().filter(|k| k.name != name) {
                    assert_eq!(
                        (other.reencode)(line),
                        Err(WireError::UnknownRecord),
                        "{} parser on a {name} line",
                        other.name
                    );
                }
            }
        }
    }

    #[test]
    fn job_header_and_config_survive_the_wire() {
        for cfg in exotic_configs() {
            let mut sent = job(cfg);
            sent.base = Some(20);
            sent.snapshot = Some(0x00ab_cdef_0123_4567);
            sent.telemetry = Some(1_000_000_000);
            let got = parse_job(&encode_job(&sent)).expect("round trip");
            assert_eq!(
                (got.id, got.terminals, got.replication),
                (sent.id, sent.terminals, sent.replication)
            );
            assert_eq!(
                (got.base, got.snapshot, got.telemetry),
                (sent.base, sent.snapshot, sent.telemetry)
            );
            assert_eq!(got.config.scenario, sent.config.scenario);
            assert_eq!(got.config.n_terminals, sent.config.n_terminals);
            assert_eq!(
                crate::ProbeCache::fingerprint(&got.config),
                crate::ProbeCache::fingerprint(&sent.config),
                "config drifted across the wire"
            );
        }
    }

    #[test]
    fn parsers_name_the_field_that_failed() {
        fn snap_err<T: fmt::Debug>(e: Result<T, WireError>) -> SnapError {
            match e {
                Err(WireError::Snap(e)) => e,
                other => panic!("expected a token error, got {other:?}"),
            }
        }
        assert!(matches!(parse_job(""), Err(WireError::UnknownRecord)));
        assert!(matches!(
            parse_job("hello world"),
            Err(WireError::UnknownRecord)
        ));
        let good = encode_job(&job(SystemConfig::small_test()));
        // An unknown enum tag.
        let mangled = good.replacen(" sched=2 ", " sched=9 ", 1);
        assert_eq!(
            snap_err(parse_job(&mangled)),
            SnapError::BadValue {
                key: "sched",
                value: "9".into()
            }
        );
        // Nothing may follow the closing token.
        assert!(matches!(
            snap_err(parse_job(&format!("{good} x=1"))),
            SnapError::TrailingTokens { .. }
        ));
        // A version that overflows u32 must not wrap into one we speak.
        let overflowed = encode_result(&ResultRecord {
            id: 1,
            outcome: Err("x".into()),
        })
        .replacen(
            &format!("/{PROTO_VERSION} "),
            &format!("/{} ", (1u64 << 32) + PROTO_VERSION as u64),
            1,
        );
        assert!(matches!(
            snap_err(parse_result(&overflowed)),
            SnapError::BadValue { key: "version", .. }
        ));
        // A snapshot body edit breaks its digest.
        let line = encode_snapshot(14, 3, "ev=7 ew=2");
        assert!(matches!(
            snap_err(parse_snapshot(&line.replace("ev=7", "ev=8"))),
            SnapError::BadValue { key: "digest", .. }
        ));
        // Telemetry bodies that verify but lie: a span count the body
        // does not carry, and a phase label out of range.
        let frame = |body: &str| encode_frame(TELEMETRY, &[("job", 1)], body);
        let head = "iv=1 gl=0 ev=0 iw=0 fw=0 sw=0 fk=0 du=0000000000000000";
        assert_eq!(
            snap_err(parse_telemetry(&frame(&format!(
                "{head} ns=2 sl=0 s0=0 s1=1 sw=0 nr=0"
            )))),
            SnapError::WrongKey {
                expected: "sl",
                got: "nr".into()
            }
        );
        assert!(matches!(
            snap_err(parse_telemetry(&frame(&format!(
                "{head} ns=1 sl=5 s0=0 s1=1 sw=0 nr=0"
            )))),
            SnapError::BadValue { key: "sl", .. }
        ));
    }
}
