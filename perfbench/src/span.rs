//! The traced run's in-memory span recorder.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the call: name, start, end, parent span and request id (a cell's
//! `RunKey` digest or a daemon request id). Spans stay in memory while
//! the workload runs and are written out once at the end. The *self
//! time* of a span is its duration minus the time its children cover.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin; `end_ns` is 0 while the span is open.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`uarch.run`, `core.cache.store`, ...).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Request id: a `RunKey` digest or a daemon request id.
    pub rid: u64,
}

impl Span {
    /// Wall duration, ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a new span named `name`; `f` receives the span's
    /// id so it can open children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rid: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                rid,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock")[id].end_ns = end;
        out
    }

    /// A snapshot of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// A finished set of spans with self times computed.
pub struct SpanSet {
    /// The spans, in open order.
    pub spans: Vec<Span>,
    /// Self time of each span, ns.
    pub self_ns: Vec<u64>,
}

impl SpanSet {
    /// Computes self times: each span's duration minus its children's.
    #[must_use]
    pub fn from_recorder(rec: &Recorder) -> Self {
        let spans = rec.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let self_ns = spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect();
        SpanSet { spans, self_ns }
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of spans named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total self time (ns) of spans named `name`.
    #[must_use]
    pub fn self_total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, n)| *n as f64)
            .sum()
    }

    /// Per-name self-time totals of the descendants of spans named
    /// `root` (the root's own self time included under its name).
    #[must_use]
    pub fn self_breakdown(&self, root: &str) -> Vec<(&'static str, f64)> {
        let mut under = vec![false; self.spans.len()];
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents always open before their children.
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
            if under[i] {
                let ns = self.self_ns[i] as f64;
                match out.iter_mut().find(|(n, _)| *n == s.name) {
                    Some(slot) => slot.1 += ns,
                    None => out.push((s.name, ns)),
                }
            }
        }
        out
    }

    /// Writes the spans as a JSON array to `path`.
    ///
    /// # Errors
    ///
    /// The write error.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let arr = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .map(|(s, self_ns)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.to_string())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("rid".into(), Value::Str(format!("{:016x}", s.rid))),
                    ("self_ns".into(), Value::U64(*self_ns)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            serde_json::to_string(&Value::Arr(arr)).expect("spans serialize"),
        )
    }
}
