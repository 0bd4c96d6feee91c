//! One simulation cell, decomposed into its layer calls.
//!
//! This is `bw_core::simulate` / `simulate_trace` rebuilt from the
//! crates' public functions — build → construct → warmup → run →
//! result — with a span around each call. It drives the machine in the
//! same chunks as the runner's supervised drive loop, so its
//! `RunResult` must equal the runner's byte for byte; the workloads
//! check that, otherwise these timings would describe another program.

use std::time::Instant;

use bw_core::predictors::PredictorConfig;
use bw_core::trace::{DecodedTrace, Trace};
use bw_core::uarch::Machine;
use bw_core::workload::{BenchmarkModel, InstSource};
use bw_core::{RunResult, SimConfig};

use crate::span::{Recorder, SpanId};

/// Instructions per drive chunk: the runner's cancellation-poll
/// interval, which also splits its warmup and measured phases.
pub const DRIVE_CHUNK: u64 = 1 << 18;

/// Per-tick wall times, for cells driven cycle by cycle.
pub type TickSamples = Vec<u32>;

/// Warmup then measure, chunked like the runner's drive loop. With
/// `ticks` the measured phase is driven by `Machine::tick` from here,
/// each tick timed.
fn drive<S: InstSource>(
    rec: &Recorder,
    cell: SpanId,
    rid: u64,
    machine: &mut Machine<'_, S>,
    cfg: &SimConfig,
    ticks: Option<&mut TickSamples>,
) {
    rec.span("uarch.warmup", Some(cell), rid, |_| {
        let mut left = cfg.warmup_insts;
        while left > 0 {
            let step = left.min(DRIVE_CHUNK);
            machine.warmup(step);
            left -= step;
        }
    });
    rec.span("uarch.run", Some(cell), rid, |_| {
        let target = machine.stats().committed + cfg.measure_insts;
        match ticks {
            None => {
                while machine.stats().committed < target {
                    machine.run((target - machine.stats().committed).min(DRIVE_CHUNK));
                }
            }
            Some(samples) => {
                while machine.stats().committed < target {
                    let t = Instant::now();
                    machine.tick();
                    samples.push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
                }
            }
        }
    });
}

fn finish<S: InstSource>(
    rec: &Recorder,
    cell: SpanId,
    rid: u64,
    name: &str,
    predictor: PredictorConfig,
    machine: &Machine<'_, S>,
) -> RunResult {
    rec.span("result", Some(cell), rid, |_| RunResult {
        benchmark: name.to_string(),
        predictor: predictor.build().describe(),
        stats: *machine.stats(),
        energy: machine.power_report(),
        totals: machine.bpred_totals(),
        bpred_power: machine.bpred_power().clone(),
    })
}

/// A generated-workload cell (the decomposition of `simulate`), its
/// layer calls recorded as children of the caller's `cell` span.
pub fn generated(
    rec: &Recorder,
    cell: SpanId,
    rid: u64,
    model: &'static BenchmarkModel,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    ticks: Option<&mut TickSamples>,
) -> RunResult {
    let program = rec.span("workload.build", Some(cell), rid, |_| {
        model.build_program(cfg.seed)
    });
    let mut machine = rec.span("uarch.new", Some(cell), rid, |_| {
        Machine::with_power(
            &cfg.uarch, &program, model, cfg.seed, predictor, cfg.kind, cfg.banked, &cfg.tech,
        )
    });
    drive(rec, cell, rid, &mut machine, cfg, ticks);
    finish(rec, cell, rid, model.name, predictor, &machine)
}

/// A trace-replay cell (the decomposition of `simulate_trace`); the
/// caller has checked the trace's budget.
pub fn replayed(
    rec: &Recorder,
    cell: SpanId,
    rid: u64,
    trace: &Trace,
    predictor: PredictorConfig,
    cfg: &SimConfig,
    ticks: Option<&mut TickSamples>,
) -> RunResult {
    let decoded = rec.span("trace.decode", Some(cell), rid, |_| {
        DecodedTrace::new(trace)
    });
    let mut machine = rec.span("uarch.new", Some(cell), rid, |_| {
        Machine::with_source(
            &cfg.uarch,
            trace.program(),
            decoded.reader(),
            trace.meta().working_set,
            predictor,
            cfg.kind,
            cfg.banked,
            &cfg.tech,
        )
    });
    drive(rec, cell, rid, &mut machine, cfg, ticks);
    finish(rec, cell, rid, &trace.meta().name, predictor, &machine)
}
