//! Golden fingerprint of the simulation core.
//!
//! Every cell below is simulated at a small budget and its whole
//! [`RunResult`] (stats, per-unit energy, predictor totals and power
//! model, through its `Debug` rendering) is reduced to an FNV-1a
//! digest. The digests are pinned in `tests/data/golden_results.txt`,
//! so any change to the core that moves a single counter or a single
//! bit of energy fails here. Refactors and speedups of the pipeline
//! must pass unchanged; an intentional model change re-blesses with
//!
//! ```text
//! BLESS=1 cargo test --test golden
//! ```
//!
//! With `--features audit` every cell also runs under the runtime
//! sanitizer, which must stay clean and observation-only (the same
//! digests).

use std::path::Path;

use branchwatt::power::PpdScenario;
use branchwatt::uarch::UarchConfig;
use branchwatt::workload::{benchmark, specint7, BenchmarkModel};
use branchwatt::zoo::NamedPredictor;
use branchwatt::{record_trace, RunResult, SimConfig};

/// How one golden cell gets its instruction stream.
#[derive(Clone, Copy)]
enum Source {
    /// A live generated workload.
    Generated,
    /// A trace recorded from the model, then replayed.
    Replayed,
}

struct Cell {
    label: String,
    model: &'static BenchmarkModel,
    predictor: NamedPredictor,
    cfg: SimConfig,
    source: Source,
}

fn sim_config(uarch: UarchConfig) -> SimConfig {
    SimConfig::builder()
        .uarch(uarch)
        .warmup_insts(50_000)
        .measure_insts(25_000)
        .seed(5)
        .build()
        .expect("valid config")
}

fn cells() -> Vec<Cell> {
    let base = UarchConfig::alpha21264_like();
    let mut cells = Vec::new();
    for model in specint7() {
        for p in [
            NamedPredictor::Bim128,
            NamedPredictor::Gshare16k12,
            NamedPredictor::Hybrid1,
        ] {
            cells.push(Cell {
                label: format!("{} / {}", model.name, p.label()),
                model,
                predictor: p,
                cfg: sim_config(base.clone()),
                source: Source::Generated,
            });
        }
    }
    let variants = [
        (
            "gating",
            base.clone().with_gating(2),
            NamedPredictor::Hybrid1,
        ),
        (
            "jrs-gating",
            base.clone().with_jrs_gating(2),
            NamedPredictor::Gshare16k12,
        ),
        (
            "ppd-2",
            base.clone().with_ppd(PpdScenario::Two),
            NamedPredictor::Hybrid1,
        ),
        (
            "commit-time-history",
            base.clone().with_commit_time_history(),
            NamedPredictor::Gshare16k12,
        ),
        (
            "next-line",
            base.clone().with_next_line_predictor(),
            NamedPredictor::Bim128,
        ),
        (
            "rename-stages-0",
            UarchConfig {
                extra_rename_stages: 0,
                ..base.clone()
            },
            NamedPredictor::Gshare16k12,
        ),
        (
            "rename-stages-6",
            UarchConfig {
                extra_rename_stages: 6,
                ..base.clone()
            },
            NamedPredictor::Gshare16k12,
        ),
    ];
    let gcc = benchmark("gcc").expect("built-in model");
    for (name, uarch, p) in variants {
        cells.push(Cell {
            label: format!("{name} / gcc / {}", p.label()),
            model: gcc,
            predictor: p,
            cfg: sim_config(uarch),
            source: Source::Generated,
        });
    }
    // A floating-point workload keeps the FP issue ports honest.
    let swim = benchmark("swim").expect("built-in model");
    cells.push(Cell {
        label: format!("swim / {}", NamedPredictor::Hybrid1.label()),
        model: swim,
        predictor: NamedPredictor::Hybrid1,
        cfg: sim_config(base.clone()),
        source: Source::Generated,
    });
    let gzip = benchmark("gzip").expect("built-in model");
    cells.push(Cell {
        label: format!("replay / gzip / {}", NamedPredictor::Gshare16k12.label()),
        model: gzip,
        predictor: NamedPredictor::Gshare16k12,
        cfg: sim_config(base),
        source: Source::Replayed,
    });
    cells
}

#[cfg(not(feature = "audit"))]
fn run(cell: &Cell) -> RunResult {
    let pred = cell.predictor.config();
    match cell.source {
        Source::Generated => branchwatt::simulate(cell.model, pred, &cell.cfg),
        Source::Replayed => {
            let trace = record_trace(cell.model, &cell.cfg);
            branchwatt::simulate_trace(&trace, pred, &cell.cfg).expect("trace sized for cfg")
        }
    }
}

#[cfg(feature = "audit")]
fn run(cell: &Cell) -> RunResult {
    let pred = cell.predictor.config();
    let (result, violations) = match cell.source {
        Source::Generated => branchwatt::simulate_audited(cell.model, pred, &cell.cfg),
        Source::Replayed => {
            let trace = record_trace(cell.model, &cell.cfg);
            branchwatt::simulate_trace_audited(&trace, pred, &cell.cfg)
                .expect("trace sized for cfg")
        }
    };
    assert!(
        violations.is_empty(),
        "{}: audit violations {violations:?}",
        cell.label
    );
    result
}

/// FNV-1a over the result's `Debug` rendering, which covers every
/// field (floats print in shortest round-trip form, so bit-exact).
fn digest(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{result:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn run_results_match_golden_fingerprint() {
    let mut actual = String::new();
    for cell in cells() {
        let r = run(&cell);
        actual.push_str(&format!(
            "{:<40} {:016x} cycles={} committed={}\n",
            cell.label,
            digest(&r),
            r.stats.cycles,
            r.stats.committed
        ));
    }
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/golden_results.txt"
    ));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(path, &actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        actual, golden,
        "RunResults diverged from the golden fingerprint (an intentional model \
         change re-blesses with BLESS=1)\n-- actual --\n{actual}"
    );
}
