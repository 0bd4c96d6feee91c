//! Per-layer measurements shared by the workloads' traced passes.

use std::time::Instant;

use bw_core::predictors::{BranchBatch, PredictorConfig};
use bw_core::types::{Addr, CtiKind, Outcome as Dir};
use bw_core::uarch::Machine;
use bw_core::workload::{BenchmarkModel, InstSource, Thread};
use bw_core::zoo::NamedPredictor;
use bw_core::{CacheLookup, RunCache, RunKey, RunResult};

use crate::cell::TickSamples;
use crate::span::SpanSet;
use crate::util::{median, quantile, Metrics};

/// Branches per batched predictor call on the warm path.
const WARM_BATCH: usize = Machine::<'static, Thread<'static>>::WARM_BATCH;

/// `workload.gen_ns_per_inst`: `InstSource::step` on each model's
/// thread on its own, `insts` steps per model.
pub fn gen_layer(m: &mut Metrics, models: &[&'static BenchmarkModel], seed: u64, insts: u64) {
    let mut ns = 0.0;
    for model in models {
        let program = model.build_program(seed);
        let mut thread = model.thread(&program, seed);
        let t = Instant::now();
        for _ in 0..insts {
            std::hint::black_box(thread.step());
        }
        ns += t.elapsed().as_nanos() as f64;
    }
    m.set(
        "workload.gen_ns_per_inst",
        ns / (insts * models.len() as u64) as f64,
        "ns/inst",
        models.len(),
    );
}

/// The resolved conditional branches of `insts` steps of `source`.
pub fn cond_branches(source: &mut impl InstSource, insts: u64) -> Vec<(Addr, Dir)> {
    let mut out = Vec::new();
    for _ in 0..insts {
        let step = source.step();
        if step.inst.cti.is_some_and(|c| c.kind == CtiKind::CondBranch) {
            out.push((step.inst.pc, step.control.expect("CTIs resolve").outcome));
        }
    }
    out
}

/// `predictors.<label>.batch_ns_per_branch` for every figure
/// configuration (the warm path's `lookup_batch` + `commit_batch` in
/// `Machine::WARM_BATCH` batches) and `predictors.scalar_ns_per_branch`
/// (Table 2's scalar bimodal-16K + gshare-16K protocol), over
/// `branches`. Each is the median of three passes on fresh predictors.
pub fn predictor_layer(m: &mut Metrics, branches: &[(Addr, Dir)]) {
    let n = branches.len().max(1) as f64;
    let mut batches = Vec::new();
    for chunk in branches.chunks(WARM_BATCH) {
        let mut b = BranchBatch::with_capacity(chunk.len());
        for &(pc, d) in chunk {
            b.push(pc, d);
        }
        batches.push(b);
    }
    for p in NamedPredictor::FIGURE_ORDER {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let mut pred = p.config().build();
                let mut preds = Vec::with_capacity(WARM_BATCH);
                let t = Instant::now();
                for b in &batches {
                    preds.clear();
                    pred.lookup_batch(b, &mut preds);
                    pred.commit_batch(b, &preds);
                }
                t.elapsed().as_nanos() as f64 / n
            })
            .collect();
        m.set(
            format!("predictors.{}.batch_ns_per_branch", p.label()),
            median(&samples),
            "ns/branch",
            branches.len(),
        );
    }
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut preds = [
                PredictorConfig::bimodal(16 * 1024).build(),
                PredictorConfig::gshare(16 * 1024, 12).build(),
            ];
            let t = Instant::now();
            for &(pc, actual) in branches {
                for pred in &mut preds {
                    let r = pred.lookup(pc);
                    if r.pred.outcome != actual {
                        pred.repair(&r.ckpt);
                        pred.spec_push(pc, actual);
                    }
                    pred.commit(pc, actual, &r.pred);
                }
            }
            t.elapsed().as_nanos() as f64 / n
        })
        .collect();
    m.set(
        "predictors.scalar_ns_per_branch",
        median(&samples),
        "ns/branch",
        branches.len(),
    );
}

/// The `uarch.*` metrics of a traced pass's cells.
pub fn uarch_layer(
    m: &mut Metrics,
    spans: &SpanSet,
    results: &[RunResult],
    warm_insts: u64,
    warm_metric: &str,
    ticks: &TickSamples,
) {
    let cells = results.len();
    let news = spans.durations("uarch.new");
    m.set("uarch.new_us", median(&news) / 1e3, "us", news.len());
    m.set(
        warm_metric.to_string(),
        spans.total_ns("uarch.warmup") / (warm_insts * cells as u64) as f64,
        "ns/inst",
        cells,
    );
    let committed: u64 = results.iter().map(|r| r.stats.committed).sum();
    let cycles: u64 = results.iter().map(|r| r.stats.cycles).sum();
    let run_ns = spans.total_ns("uarch.run");
    m.set(
        "uarch.detailed_ns_per_inst",
        run_ns / committed as f64,
        "ns/inst",
        cells,
    );
    m.set(
        "uarch.ns_per_cycle",
        run_ns / cycles as f64,
        "ns/cycle",
        cells,
    );
    m.set("uarch.cycles", cycles as f64, "count", cells);
    m.set(
        "uarch.detailed_share",
        spans.self_total_ns("uarch.run") / spans.total_ns("cell"),
        "ratio",
        cells,
    );
    let ticks: Vec<f64> = ticks.iter().map(|&t| f64::from(t)).collect();
    m.set(
        "uarch.tick_p50_ns",
        quantile(&ticks, 0.5),
        "ns",
        ticks.len(),
    );
    m.set(
        "uarch.tick_p99_ns",
        quantile(&ticks, 0.99),
        "ns",
        ticks.len(),
    );
}

/// `core.cache.load_*` (hits, one `load_checked` per key) and
/// `core.cache.entry_bytes`; returns how many keys missed.
pub fn cache_load_layer(m: &mut Metrics, cache: &RunCache, keys: &[RunKey]) -> usize {
    let mut us = Vec::with_capacity(keys.len());
    let mut bytes = 0u64;
    let mut missed = 0;
    for key in keys {
        let t = Instant::now();
        let hit = matches!(cache.load_checked(key), CacheLookup::Hit(_));
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        missed += usize::from(!hit);
        bytes += std::fs::metadata(cache.path_for(key)).map_or(0, |md| md.len());
    }
    m.set("core.cache.load_p50_us", quantile(&us, 0.5), "us", us.len());
    m.set(
        "core.cache.load_p99_us",
        quantile(&us, 0.99),
        "us",
        us.len(),
    );
    m.set(
        "core.cache.entry_bytes",
        bytes as f64 / keys.len().max(1) as f64,
        "bytes",
        keys.len(),
    );
    missed
}

/// `core.cache.store_*` from a pass's `core.cache.store` spans.
pub fn cache_store_layer(m: &mut Metrics, spans: &SpanSet) {
    let us: Vec<f64> = spans
        .durations("core.cache.store")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    m.set(
        "core.cache.store_p50_us",
        quantile(&us, 0.5),
        "us",
        us.len(),
    );
    m.set(
        "core.cache.store_p99_us",
        quantile(&us, 0.99),
        "us",
        us.len(),
    );
}

/// `core.runner.*` and `tracing.overhead_ratio`, plus a report line
/// comparing the cells' summed self times with the untraced wall.
pub fn runner_layer(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    spans: &SpanSet,
    jobs: usize,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    counts: (usize, usize),
) {
    let cell_ns = spans.total_ns("cell");
    let busy = cell_ns / (jobs as f64 * untraced_wall_s * 1e9);
    let overhead = traced_wall_s / untraced_wall_s - 1.0;
    let cells = spans.durations("cell").len();
    m.set("core.runner.busy_ratio", busy, "ratio", cells);
    m.set("core.runner.executed", counts.0 as f64, "count", 1);
    m.set("core.runner.cache_hits", counts.1 as f64, "count", 1);
    m.set("tracing.overhead_ratio", overhead, "ratio", 1);
    let breakdown = spans.self_breakdown("cell");
    let parts: Vec<String> = breakdown
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * ns / cell_ns))
        .collect();
    notes.push(format!("cell self time by layer: {}", parts.join(", ")));
    notes.push(format!(
        "closure: cell self times sum to {:.4} of jobs x untraced wall; traced pass occupancy {:.4}; tracing overhead {:+.4}",
        busy,
        cell_ns / (jobs as f64 * traced_wall_s * 1e9),
        overhead
    ));
}
