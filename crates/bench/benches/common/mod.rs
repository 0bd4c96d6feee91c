//! The report writer shared by the benches that keep a `BENCH_*.json`
//! file at the repo root: top-level fields, then a cross-PR `history`
//! array carried forward from the previous file.
//!
//! Lives in a subdirectory so Cargo does not build it as a bench
//! target of its own; each bench includes it with `mod common;`.

// Each bench uses only some of the field kinds.
#![allow(dead_code)]

use std::fmt::Write;
use std::path::{Path, PathBuf};

use bw_core::fsutil;
use serde::{Deserialize, Value};

/// The repo root, where the `BENCH_*.json` files live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// One report value.
pub enum Field {
    /// A number written with the given count of decimals.
    Num(f64, usize),
    /// An integer.
    Int(u64),
    /// A string (written unescaped: bench labels are plain ASCII).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// A nested object.
    Obj(Vec<(&'static str, Field)>),
    /// Pre-rendered JSON, written as is.
    Raw(String),
}

impl Field {
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Field::Num(x, decimals) => {
                let _ = write!(out, "{x:.decimals$}");
            }
            Field::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Field::Str(s) => {
                let _ = write!(out, "\"{s}\"");
            }
            Field::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Field::Raw(json) => out.push_str(json),
            Field::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{:indent$}  \"{key}\": ", "");
                    value.write(out, indent + 2);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{:indent$}}}", "");
            }
        }
    }
}

/// A bench file's cross-PR history: one row per PR, each holding the
/// numbers of `columns` (JSON key, decimals written) that it has.
/// Rows from before a column existed simply lack it.
pub struct History {
    columns: &'static [(&'static str, usize)],
    rows: Vec<(u32, Vec<Option<f64>>)>,
}

impl History {
    /// The `history` array of the report at `path`; a missing or
    /// unreadable file, or one without the array, has no rows.
    pub fn load(path: &Path, columns: &'static [(&'static str, usize)]) -> History {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let history = serde_json::parse_value_str(&text).ok();
        let rows = match history.as_ref().and_then(|v| v.get("history")) {
            Some(Value::Arr(items)) => items
                .iter()
                .filter_map(|item| {
                    let pr = u32::from_value(item.get("pr")?).ok()?;
                    let values = columns
                        .iter()
                        .map(|(key, _)| f64::from_value(item.get(key)?).ok())
                        .collect();
                    Some((pr, values))
                })
                .collect(),
            _ => Vec::new(),
        };
        History { columns, rows }
    }

    /// Appends (or, on a re-run of the same PR, replaces) `pr`'s row,
    /// `values` in column order. Quick-mode numbers are not comparable
    /// across PRs and never enter the history.
    pub fn record(&mut self, mode: &str, pr: u32, values: &[f64]) {
        if mode == "full" {
            self.rows.retain(|(p, _)| *p != pr);
            self.rows
                .push((pr, values.iter().copied().map(Some).collect()));
        }
        self.rows.sort_by_key(|(p, _)| *p);
    }

    /// The history array, one row per line.
    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(pr, values)| {
                let mut row = format!("    {{ \"pr\": {pr}");
                for ((key, decimals), value) in self.columns.iter().zip(values) {
                    if let Some(x) = value {
                        let _ = write!(row, ", \"{key}\": {x:.decimals$}");
                    }
                }
                row + " }"
            })
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    }
}

/// Writes the report `fields`, then `history`, to `path` atomically.
///
/// # Panics
///
/// If the file cannot be written.
pub fn write_report(path: &Path, mut fields: Vec<(&'static str, Field)>, history: &History) {
    fields.push(("history", Field::Raw(history.to_json())));
    let mut out = String::new();
    Field::Obj(fields).write(&mut out, 0);
    out.push('\n');
    fsutil::atomic_write(path, out.as_bytes())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
