//! Small shared helpers: seeded draws, digests, order statistics,
//! metric tables and host facts.

use std::collections::BTreeMap;
use std::path::Path;

use bw_core::RunResult;

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_START`]).
#[must_use]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: a tiny deterministic generator for every seeded draw
/// the benchmark makes (input layout seeds, grid order, writer cells).
pub struct Rng(u64);

impl Rng {
    /// A generator for benchmark seed `seed`, separated per `stream`
    /// so independent draws do not share a sequence.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The workload seed the simulator receives for benchmark seed
/// `seed`: the program layout and data addresses of every generated
/// input. The simulator never sees the benchmark seed itself.
#[must_use]
pub fn layout_seed(seed: u64) -> u64 {
    1 + Rng::new(seed, 1).next_u64() % 1_000_000_007
}

/// The canonical byte form of a result: its cache/wire JSON.
#[must_use]
pub fn result_bytes(r: &RunResult) -> String {
    serde_json::to_string(r).expect("RunResult serializes")
}

/// Folds results into one digest, in the order given.
#[must_use]
pub fn digest_results<'a>(results: impl IntoIterator<Item = &'a RunResult>) -> u64 {
    results
        .into_iter()
        .fold(FNV_START, |h, r| fnv1a(h, result_bytes(r).as_bytes()))
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; `NaN`
/// when empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// A named set of metrics.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Records `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Adds every metric of `other` that is not already present.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, m) in &other.0 {
            self.0.entry(k.clone()).or_insert_with(|| m.clone());
        }
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads the benchmark may use: the host's cores, at most 2.
#[must_use]
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Host facts for the report header.
#[must_use]
pub fn host_facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit_id()),
    ]
}

/// The git commit when run from a git checkout; otherwise a content
/// digest of the simulator's sources (`tree:<hex>`), which identifies
/// the measured code just as well.
fn commit_id() -> String {
    if Path::new(".git").exists() {
        if let Ok(o) = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
        {
            if o.status.success() {
                return String::from_utf8_lossy(&o.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h = FNV_START;
    for f in &files {
        h = fnv1a(h, f.to_string_lossy().as_bytes());
        h = fnv1a(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("tree:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
