//! Host-time spans recorded in the benchmark's own code during the traced
//! pass, written at the end as a Chrome/Perfetto trace.

use std::path::{Path, PathBuf};
use std::time::Instant;

struct Span {
    name: String,
    start_us: f64,
    dur_us: f64,
}

/// Spans relative to the recorder's creation.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; returns its value and seconds.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let v = f();
        let dur = t.elapsed();
        self.spans.push(Span {
            name: name.into(),
            start_us: (t - self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        (v, dur.as_secs_f64())
    }

    /// Write the spans as a Chrome trace-event JSON file under `dir`.
    pub fn write(&self, dir: &Path, file: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                    spiffi_trace::json::escaped(&s.name),
                    s.start_us,
                    s.dur_us
                )
            })
            .collect();
        let path = dir.join(file);
        std::fs::write(
            &path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )?;
        Ok(path)
    }
}
