//! The hot-path kernel bench: ns/inst of the trace-replay warm path,
//! scalar protocol over the streaming reader versus batched protocol
//! over the decoded bitcode reader, the detailed phase on its own
//! (`Machine::run` ns/inst and ns/cycle), plus one-cell
//! strict-vs-supervised overhead — written to `BENCH_kernel.json` at
//! the repo root.
//!
//! Follows the vendored criterion shim's conventions: measurement only
//! happens when the harness receives `--bench` (as `cargo bench`
//! passes); under `cargo test` it registers and exits so test runs
//! stay fast. `BW_BENCH_QUICK=1` shrinks budgets and sample counts for
//! CI smoke runs.

mod common;

use std::time::Instant;

/// The PR this tree corresponds to; stamped into `BENCH_kernel.json`
/// and its cross-PR history so regressions are attributable.
const PR: u32 = 14;

use bw_arrays::{ModelKind, TechParams};
use bw_core::trace::{DecodedTrace, Trace, TraceReader};
use bw_core::zoo::NamedPredictor;
use bw_core::{record_trace, RunPlan, Runner, SimConfig};
use bw_uarch::{Machine, SimStats, UarchConfig};
use bw_workload::benchmark;
use common::Field::{Bool, Int, Num, Obj, Str};

/// Cycles the detailed-phase cell (gzip × Gsh_1_16k_12 at
/// `SimConfig::quick(1)`) takes. The count is exact: a different value
/// is a model change, not noise.
const DETAILED_CYCLES: u64 = 75_902;

struct Budget {
    mode: &'static str,
    warm_insts: u64,
    measure_insts: u64,
    samples: u32,
}

impl Budget {
    fn from_env() -> Self {
        if std::env::var("BW_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Budget {
                mode: "quick",
                warm_insts: 60_000,
                measure_insts: 20_000,
                samples: 2,
            }
        } else {
            Budget {
                mode: "full",
                warm_insts: 300_000,
                measure_insts: 100_000,
                samples: 5,
            }
        }
    }
}

/// Times `f` `samples` times and returns the minimum elapsed
/// nanoseconds (the least-noise estimate) along with the last result.
fn time_min<T>(samples: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..samples {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos() as f64);
        out = Some(r);
    }
    (best, out.unwrap())
}

/// The scalar replay kernel: streaming reader + per-branch scalar
/// predictor protocol (the pre-batching shape of the warm path).
/// Returns the stats after an *untimed* measured run, for the
/// byte-identity check.
fn replay_scalar(trace: &Trace, cfg: &UarchConfig, warm: u64, measure: u64) -> (f64, SimStats) {
    let mut m = Machine::with_source(
        cfg,
        trace.program(),
        TraceReader::new(trace),
        trace.meta().working_set,
        NamedPredictor::Gshare16k12.config(),
        ModelKind::WithColumnDecoders,
        false,
        &TechParams::default(),
    );
    let t = Instant::now();
    m.warmup_scalar(warm);
    let ns = t.elapsed().as_nanos() as f64;
    m.run(measure);
    (ns, *m.stats())
}

/// The batched replay kernel: decoded bitcode reader + batched
/// predictor protocol (the post-batching shape of the warm path).
fn replay_batched(
    decoded: &DecodedTrace<'_>,
    cfg: &UarchConfig,
    warm: u64,
    measure: u64,
) -> (f64, SimStats) {
    let mut m = Machine::with_source(
        cfg,
        decoded.trace().program(),
        decoded.reader(),
        decoded.trace().meta().working_set,
        NamedPredictor::Gshare16k12.config(),
        ModelKind::WithColumnDecoders,
        false,
        &TechParams::default(),
    );
    let t = Instant::now();
    m.warmup(warm);
    let ns = t.elapsed().as_nanos() as f64;
    m.run(measure);
    (ns, *m.stats())
}

/// Runs `f` `samples` times; returns the minimum timed-phase
/// nanoseconds and the last run's stats.
fn sample_replay(samples: u32, mut f: impl FnMut() -> (f64, SimStats)) -> (f64, SimStats) {
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..samples {
        let (ns, s) = f();
        best = best.min(ns);
        stats = Some(s);
    }
    (best, stats.unwrap())
}

/// The detailed phase alone: gzip × Gsh_1_16k_12 over the generated
/// source at `SimConfig::quick(1)` — the budget of one `--quick` figure
/// cell. Warmup is untimed; only `Machine::run` is. Returns the fastest
/// sample's nanoseconds and the run's stats.
fn detailed_run(samples: u32) -> (f64, SimStats) {
    let model = benchmark("gzip").expect("built-in");
    let cfg = SimConfig::quick(1);
    let program = model.build_program(cfg.seed);
    sample_replay(samples, || {
        let mut m = Machine::new(
            &cfg.uarch,
            &program,
            model,
            cfg.seed,
            NamedPredictor::Gshare16k12.config(),
        );
        m.warmup(cfg.warmup_insts);
        let t = Instant::now();
        m.run(cfg.measure_insts);
        (t.elapsed().as_nanos() as f64, *m.stats())
    })
}

/// The cross-PR history columns: the replay-kernel ns/inst pair
/// (full mode only, so rows stay comparable), plus the detailed-phase
/// (ns/inst, ns/cycle) pair from the PR that added it on.
const HISTORY: &[(&str, usize)] = &[
    ("scalar_ns_per_inst", 2),
    ("batched_ns_per_inst", 2),
    ("detailed_ns_per_inst", 2),
    ("detailed_ns_per_cycle", 2),
];

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        println!("kernel: skipped (run via `cargo bench` to measure)");
        return;
    }
    let budget = Budget::from_env();
    let model = benchmark("gzip").expect("built-in");
    let sim_cfg = SimConfig::builder()
        .warmup_insts(budget.warm_insts)
        .measure_insts(budget.measure_insts)
        .seed(1)
        .build()
        .expect("valid config");
    let trace = record_trace(model, &sim_cfg);
    let uarch = UarchConfig::alpha21264_like();
    let cell_insts = budget.warm_insts + budget.measure_insts;

    // One-time bitcode decode, measured on its own (the cost `trace
    // info` reports; one decode is shared by every reader over it).
    let (decode_ns, decoded) = time_min(budget.samples, || DecodedTrace::new(&trace));

    // The replay kernel proper: the trace-style warm phase, which is
    // where replay spends its instructions (per-record stream decode +
    // per-branch predictor protocol). The detailed measured run after
    // it is untimed here (the detailed cell below times that phase on
    // its own), but its stats feed the byte-identity check.
    let (scalar_ns, scalar_stats) = sample_replay(budget.samples, || {
        replay_scalar(&trace, &uarch, budget.warm_insts, budget.measure_insts)
    });
    let (batched_ns, batched_stats) = sample_replay(budget.samples, || {
        replay_batched(&decoded, &uarch, budget.warm_insts, budget.measure_insts)
    });

    // Byte-identity: same committed stats from both kernel shapes.
    let batch_identical = scalar_stats == batched_stats;
    assert!(
        batch_identical,
        "batched replay diverged from scalar: {scalar_stats:?} vs {batched_stats:?}"
    );

    // Sanitizer: the batched replay path stays invariant-clean.
    let out = bw_core::SimRequest::new(
        bw_core::SimSource::Trace(&trace),
        NamedPredictor::Gshare16k12.config(),
        &sim_cfg,
    )
    .audited()
    .run()
    .expect("record_trace sized the trace for sim_cfg");
    let (audited, violations) = (out.result, out.violations);
    let audit_clean = violations.is_empty();
    assert!(audit_clean, "audit violations on replay: {violations:?}");
    assert_eq!(
        audited.stats, batched_stats,
        "audited replay diverged from the bench kernel"
    );

    // The detailed phase, which dominates a figure cell.
    let (detailed_ns, detailed_stats) = detailed_run(budget.samples);
    assert_eq!(
        detailed_stats.cycles, DETAILED_CYCLES,
        "detailed-phase cycle count moved: the core model changed"
    );
    let detailed_per_inst = detailed_ns / detailed_stats.committed as f64;
    let detailed_per_cycle = detailed_ns / detailed_stats.cycles as f64;

    // One-cell experiment, strict vs supervised execution.
    let plan = {
        let mut plan = RunPlan::new();
        plan.add(model, NamedPredictor::Bim4k.config(), &sim_cfg);
        plan
    };
    let runner = Runner::serial();
    let (strict_ns, _) = time_min(budget.samples, || runner.run(&plan, |_| {}).len());
    let (supervised_ns, _) = time_min(budget.samples, || {
        runner.run_supervised(&plan, |_| {}).len()
    });

    let per = |ns: f64| ns / budget.warm_insts as f64;
    let per_cell = |ns: f64| ns / cell_insts as f64;
    let speedup = scalar_ns / batched_ns;
    println!(
        "kernel/replay_scalar: {:.3} ms, {:.1} ns/inst ({} insts)",
        scalar_ns / 1e6,
        per(scalar_ns),
        budget.warm_insts
    );
    println!(
        "kernel/replay_batched: {:.3} ms, {:.1} ns/inst ({} insts)",
        batched_ns / 1e6,
        per(batched_ns),
        budget.warm_insts
    );
    println!(
        "kernel/decode_bitcode: {:.3} ms ({:.2} ns/inst one-time)",
        decode_ns / 1e6,
        decode_ns / trace.meta().insts as f64
    );
    println!("kernel/speedup: {speedup:.2}x (batch_identical {batch_identical}, audit_clean {audit_clean})");
    println!(
        "kernel/detailed: {:.3} ms, {detailed_per_inst:.1} ns/inst, {detailed_per_cycle:.1} ns/cycle ({} insts, {} cycles)",
        detailed_ns / 1e6,
        detailed_stats.committed,
        detailed_stats.cycles
    );
    println!(
        "kernel/one_cell: strict {:.1} ns/inst, supervised {:.1} ns/inst ({cell_insts} insts)",
        per_cell(strict_ns),
        per_cell(supervised_ns)
    );

    let path = common::repo_root().join("BENCH_kernel.json");
    let mut history = common::History::load(&path, HISTORY);
    history.record(
        budget.mode,
        PR,
        &[
            per(scalar_ns),
            per(batched_ns),
            detailed_per_inst,
            detailed_per_cycle,
        ],
    );
    let replay = vec![
        ("scalar_ns_per_inst", Num(per(scalar_ns), 2)),
        ("batched_ns_per_inst", Num(per(batched_ns), 2)),
        ("speedup", Num(speedup, 3)),
        ("decode_ms_one_time", Num(decode_ns / 1e6, 3)),
        ("batch_identical", Bool(batch_identical)),
        ("audit_clean", Bool(audit_clean)),
    ];
    let detailed = vec![
        ("workload", Str("gzip".into())),
        ("budget", Str("quick".into())),
        ("insts", Int(detailed_stats.committed)),
        ("cycles", Int(detailed_stats.cycles)),
        ("ns_per_inst", Num(detailed_per_inst, 2)),
        ("ns_per_cycle", Num(detailed_per_cycle, 2)),
    ];
    let one_cell = vec![
        ("strict_ns_per_inst", Num(per_cell(strict_ns), 2)),
        ("supervised_ns_per_inst", Num(per_cell(supervised_ns), 2)),
    ];
    common::write_report(
        &path,
        vec![
            ("bench", Str("kernel".into())),
            ("pr", Int(PR.into())),
            ("mode", Str(budget.mode.into())),
            ("workload", Str("gzip".into())),
            ("predictor", Str(NamedPredictor::Gshare16k12.label().into())),
            ("warm_insts", Int(budget.warm_insts)),
            ("measure_insts", Int(budget.measure_insts)),
            ("trace_insts", Int(trace.meta().insts)),
            ("decoded_bytes", Int(decoded.decoded_bytes() as u64)),
            ("replay", Obj(replay)),
            ("detailed", Obj(detailed)),
            ("one_cell", Obj(one_cell)),
        ],
        &history,
    );
    println!("kernel: wrote {}", path.display());
}
