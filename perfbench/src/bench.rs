//! What every workload shares: sizes, the run context, the outcome
//! (metrics + checks), the worker pool, per-cell completion clocks and
//! the recorded-digest book.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use serde::Value;

use crate::span::SpanSet;
use crate::util::{median, Metrics};

/// Instruction budgets and grid sizes of one benchmark size.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `full` (the measured benchmark) or `smoke` (seconds-long test).
    pub name: &'static str,
    /// Times the set-up is repeated per run (`setup_s` is the median).
    pub setup_reps: usize,
    /// specint7 benchmarks in the cold sweep.
    pub sweep_models: usize,
    /// Cold-sweep warmup / measured instructions per cell.
    pub sweep_budget: (u64, u64),
    /// specint7 benchmarks recorded for trace replay.
    pub trace_models: usize,
    /// Replay warmup / measured instructions per cell.
    pub trace_budget: (u64, u64),
    /// Budget of the cells that fill the warm paper cache.
    pub fill_budget: (u64, u64),
    /// Instructions Table 2 / Figure 14 characterize per benchmark
    /// (`paper.rs` uses `max(warmup + measure, 2M)`, 2M at the fill
    /// budget).
    pub char_insts: u64,
    /// Budget of daemon cells (reader grid and writer draws).
    pub daemon_budget: (u64, u64),
    /// Cells in the reader's cached grid.
    pub grid_cells: usize,
    /// Writer requests per round, and new cells per request.
    pub writer_reqs: usize,
    /// New cells per writer request.
    pub writer_cells: usize,
    /// Reader requests a run must reach before it stops.
    pub min_reader_reqs: usize,
    /// Cells of a traced pass driven tick by tick from outside.
    pub tick_cells: usize,
}

impl Scale {
    /// The measured benchmark.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            name: "full",
            setup_reps: 3,
            sweep_models: 7,
            sweep_budget: (300_000, 100_000),
            trace_models: 7,
            trace_budget: (3_000_000, 20_000),
            fill_budget: (4_000, 2_000),
            char_insts: 2_000_000,
            daemon_budget: (20_000, 10_000),
            grid_cells: 24,
            writer_reqs: 8,
            writer_cells: 8,
            min_reader_reqs: 100,
            tick_cells: 2,
        }
    }

    /// A seconds-long size for the benchmark's own test and for the
    /// other workloads' layers inside a traced run.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            name: "smoke",
            setup_reps: 1,
            sweep_models: 2,
            sweep_budget: (20_000, 10_000),
            trace_models: 2,
            trace_budget: (60_000, 5_000),
            fill_budget: (2_000, 1_000),
            char_insts: 50_000,
            daemon_budget: (5_000, 2_000),
            grid_cells: 6,
            writer_reqs: 3,
            writer_cells: 4,
            min_reader_reqs: 10,
            tick_cells: 1,
        }
    }
}

/// Everything a workload run needs.
#[derive(Clone)]
pub struct Ctx {
    /// The benchmark seed (never passed to the simulator as is).
    pub seed: u64,
    /// Seconds the timed phase should cover.
    pub seconds: f64,
    /// Sizes.
    pub scale: Scale,
    /// Traced run: per-layer decomposition instead of end-to-end reps.
    pub traced: bool,
    /// Scratch directory for caches, journals and traces.
    pub work: PathBuf,
    /// Worker threads (≤ 2).
    pub jobs: usize,
    /// Where span dumps are written (kept after the run).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh, empty scratch directory `name` under the run's work dir.
    #[must_use]
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// Writes a traced pass's spans to
    /// `<out_dir>/<workload>-<size>-seed<seed>.json`.
    pub fn dump_spans(&self, workload: &str, spans: &SpanSet, out: &mut Outcome) {
        let path = self.out_dir.join(format!(
            "{workload}-{}-seed{}.json",
            self.scale.name, self.seed
        ));
        match spans.dump(&path) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out
                .notes
                .push(format!("span dump to {} failed: {e}", path.display())),
        }
    }
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts, digests).
    pub detail: String,
}

/// A workload run's result.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Cells (or rendered documents) whose outputs were checked.
    pub attempted: u64,
    /// Of those, the ones that failed a check.
    pub failed: u64,
    /// Every check made.
    pub checks: Vec<Check>,
    /// Output digest of the first repetition.
    pub digest: Option<u64>,
    /// Extra report lines (self-time breakdowns, closure).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check; `bad` cells count toward `failed`.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        ok: bool,
        detail: impl Into<String>,
        bad: u64,
    ) {
        if !ok {
            self.failed += bad.max(1);
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Checks every repetition's digest against the first, and the
    /// first against the recorded digest for this seed, if any.
    pub fn check_digests(&mut self, workload: &str, ctx: &Ctx, digests: &[u64], cells: u64) {
        let first = digests[0];
        let same = digests.iter().filter(|d| **d == first).count();
        if digests.len() > 1 {
            self.check(
                "repetitions agree",
                same == digests.len(),
                format!("{same}/{} repetitions digest {first:016x}", digests.len()),
                (digests.len() - same) as u64 * cells,
            );
        }
        if let Some(want) = recorded_digest(workload, ctx.scale.name, ctx.seed) {
            self.check(
                "recorded digest",
                first == want,
                format!("got {first:016x}, recorded {want:016x}"),
                cells,
            );
        }
        self.digest = Some(first);
    }
}

/// Runs `setup` `reps` times, timing each; returns the timings (s) and
/// the last set-up's value (earlier ones are handed to `discard`).
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        let v = setup(i);
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (times, last.expect("at least one set-up"))
}

/// Runs `rep` until `seconds` have passed (at least once), returning
/// each repetition's value.
pub fn repeat_for<T>(seconds: f64, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let t = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep(out.len()));
        if t.elapsed().as_secs_f64() >= seconds {
            return out;
        }
    }
}

/// Maps `f` over `0..n` on `jobs` threads, claiming indices in order
/// (the runner's scheduling); results come back in index order.
pub fn pool<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                out.lock().expect("pool lock")[i] = Some(v);
            });
        }
    });
    out.into_inner()
        .expect("pool lock")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// Per-cell completion times of one runner call, observed from outside
/// through its progress callback: a worker announces its next cell
/// right after finishing (and caching) the previous one, so the gaps
/// between one thread's announcements are that thread's cell times.
pub struct CellClock {
    start: Instant,
    marks: Mutex<Vec<(ThreadId, Instant)>>,
}

impl CellClock {
    /// Starts the clock (call just before the runner call).
    #[must_use]
    pub fn start() -> Self {
        CellClock {
            start: Instant::now(),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// The progress callback to hand the runner.
    pub fn progress(&self) -> impl FnMut(&str) + Send + '_ {
        move |_label: &str| {
            self.marks
                .lock()
                .expect("clock lock")
                .push((std::thread::current().id(), Instant::now()));
        }
    }

    /// Stops the clock (call right after the runner call returns):
    /// per-cell latencies (ms) and, per worker, the time from the start
    /// to its first completed cell (ms).
    #[must_use]
    pub fn finish(self) -> (Vec<f64>, Vec<f64>) {
        let end = Instant::now();
        let marks = self.marks.into_inner().expect("clock lock");
        let mut threads: Vec<ThreadId> = Vec::new();
        for (t, _) in &marks {
            if !threads.contains(t) {
                threads.push(*t);
            }
        }
        let (mut lat, mut first) = (Vec::new(), Vec::new());
        for t in threads {
            let times: Vec<Instant> = marks
                .iter()
                .filter(|(id, _)| *id == t)
                .map(|(_, at)| *at)
                .chain(std::iter::once(end))
                .collect();
            for w in times.windows(2) {
                lat.push((w[1] - w[0]).as_secs_f64() * 1e3);
            }
            first.push((times[1] - self.start).as_secs_f64() * 1e3);
        }
        (lat, first)
    }
}

/// The digest recorded in `digests.json` for `workload` at `seed`, if
/// any (only the full size is recorded).
#[must_use]
pub fn recorded_digest(workload: &str, scale: &str, seed: u64) -> Option<u64> {
    if scale != "full" {
        return None;
    }
    let book = serde_json::parse_value_str(include_str!("../digests.json")).ok()?;
    match book.get("digests")?.get(workload)?.get(&seed.to_string())? {
        Value::Str(hex) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
}

/// Standard end-to-end metrics shared by every workload, plus a report
/// line with every repetition's wall time.
pub fn common_e2e(
    out: &mut Outcome,
    setup: &[f64],
    walls: &[f64],
    minsts_per_s: &[f64],
    req_ms: &[f64],
    first_ms: &[f64],
) {
    let walls_s: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    out.notes
        .push(format!("repetition walls (s): {}", walls_s.join(" ")));
    let m = &mut out.e2e;
    m.set("setup_s", median(setup), "s", setup.len());
    m.set("wall_s", median(walls), "s", walls.len());
    m.set(
        "sim_minsts_per_s",
        median(minsts_per_s),
        "Minst/s",
        minsts_per_s.len(),
    );
    m.set(
        "req_p50_ms",
        crate::util::quantile(req_ms, 0.5),
        "ms",
        req_ms.len(),
    );
    m.set(
        "req_p90_ms",
        crate::util::quantile(req_ms, 0.9),
        "ms",
        req_ms.len(),
    );
    m.set("first_cell_p50_ms", median(first_ms), "ms", first_ms.len());
    m.set("peak_rss_mb", crate::util::peak_rss_mb(), "MiB", 1);
}
