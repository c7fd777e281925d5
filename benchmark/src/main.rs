//! The repository benchmark for the SPIFFI simulator.
//!
//! One process runs one workload and prints one JSON result line:
//!
//! ```text
//! spiffi-benchmark --workload <paper_capacity|crowd_16k|warm_workers>
//!                  [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it times the workload's operations through the public
//! API for `--seconds` seconds and reports the end-to-end metrics. With
//! `--trace 1` it runs the traced pass instead: the same simulations under a
//! counting probe, plus layer-replay microbenchmarks, reported as per-layer
//! metrics. Every operation's result is checked; any failure makes the run
//! exit non-zero. See `README.md` next to this crate for the metric map.

mod micro;
mod probe;
mod spans;
mod traced;
mod workloads;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use workloads::Workload;

/// The paper-base seed (`SystemConfig::paper_base`), used when `--seed` is
/// absent. The pinned correctness values hold for this seed.
pub const DEFAULT_SEED: u64 = 0x5b1ff1;

/// Hard wall-clock limit for one run, counted from process start. A run
/// still going at this point is reported failed and the process exits.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// Operations attempted and failed so far; read by the watchdog when it
/// has to report a run that overran [`HARD_LIMIT`].
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
pub static FAILED: AtomicU64 = AtomicU64::new(0);
static FINISHED: AtomicBool = AtomicBool::new(false);

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = parse_u64(&v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Format a metric value with all its digits (Rust's shortest round-trip
/// representation); non-finite values cannot occur in valid JSON, so they
/// are reported as 0 and flagged on stderr.
fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        eprintln!("benchmark: metric {name} is not finite ({v}); reporting 0");
        "0.0".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(&m.name, m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Report a run that overran [`HARD_LIMIT`] as failed and exit. The thread
/// is detached on purpose: it only sleeps, and a finished run exits
/// without waiting for it.
fn spawn_watchdog(start: Instant) {
    std::thread::spawn(move || {
        let left = HARD_LIMIT.saturating_sub(start.elapsed());
        std::thread::sleep(left);
        if !FINISHED.load(Ordering::SeqCst) {
            eprintln!(
                "benchmark: run exceeded {} s; aborting",
                HARD_LIMIT.as_secs()
            );
            let attempted = ATTEMPTED.load(Ordering::SeqCst).max(1);
            let failed = FAILED.load(Ordering::SeqCst) + 1;
            print_result(false, attempted, failed, &[]);
            std::process::exit(3);
        }
    });
}

/// The outcome of a whole run, before printing.
pub struct RunOutcome {
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

/// Count one operation; `ok = false` marks it failed.
pub fn record_op(ok: bool) {
    ATTEMPTED.fetch_add(1, Ordering::SeqCst);
    if !ok {
        FAILED.fetch_add(1, Ordering::SeqCst);
    }
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spiffi-benchmark: {e}");
            eprintln!(
                "usage: spiffi-benchmark --workload <paper_capacity|crowd_16k|warm_workers> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    spawn_watchdog(start);
    let outcome = if args.trace {
        traced::run(&args)
    } else {
        workloads::run(&args)
    };
    FINISHED.store(true, Ordering::SeqCst);
    let attempted = ATTEMPTED.load(Ordering::SeqCst);
    let failed = FAILED.load(Ordering::SeqCst);
    let correct = outcome.correct && failed == 0 && attempted > 0;
    print_result(correct, attempted.max(1), failed, &outcome.metrics);
    if !correct {
        std::process::exit(1);
    }
}
