//! Runs every workload at the smoke size, untraced and traced, and
//! checks that each run passes its output checks and emits exactly
//! the metrics `BENCHMARK.json` names.

use std::path::Path;
use std::process::Command;

use serde::Value;

fn names(bench: &Value, key: &str) -> Vec<String> {
    match bench.get(key) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key} entry without a name: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json lacks {key}: {other:?}"),
    }
}

fn run(root: &Path, workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--size",
            "smoke",
        ])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    let last = stdout.trim().lines().last().expect("a result line");
    serde_json::parse_value_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let bench = serde_json::parse_value_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let workloads = names(&bench, "workloads");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut want = names(&bench, key);
        want.sort();
        for w in &workloads {
            let result = run(root, w, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{w} trace {trace}"
            );
            assert_eq!(
                result.get("failed"),
                Some(&Value::U64(0)),
                "{w} trace {trace}"
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{w} trace {trace}: no metrics object");
            };
            let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            got.sort();
            assert_eq!(
                got, want,
                "{w} trace {trace}: emitted metrics differ from {key}"
            );
        }
    }
}
