//! `trace_replay`: set-up records one trace per specint7 benchmark;
//! the timed phase runs `experiments::trace_sweep_rows` for each trace
//! × the 14 figure configurations under a warm-heavy budget (a
//! paper-scale 3M-instruction warmup, a short detailed window). Replay
//! warmup, the batched predictor kernels and the per-cell
//! `DecodedTrace::new` dominate; the detailed core does little.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bw_core::experiments::{trace_sweep_rows, SweepRow};
use bw_core::trace::{DecodedTrace, Trace};
use bw_core::workload::{specint7, BenchmarkModel};
use bw_core::zoo::NamedPredictor;
use bw_core::{record_trace, simulate, RunKey, RunPlan, RunResult, Runner, SimConfig};

use crate::bench::{common_e2e, pool, repeat_for, timed_setup, CellClock, Ctx, Outcome};
use crate::cell::{self, TickSamples};
use crate::layers;
use crate::span::{Recorder, SpanSet};
use crate::util::{digest_results, layout_seed, median, result_bytes, Rng};

struct Inputs {
    cfg: SimConfig,
    /// The recorded models, in trace order.
    models: Vec<&'static BenchmarkModel>,
    /// One recording per model.
    traces: Vec<Arc<Trace>>,
    /// Set-up time of each recording, ms.
    record_ms: Vec<f64>,
}

fn config(ctx: &Ctx) -> SimConfig {
    let (warm, measure) = ctx.scale.trace_budget;
    SimConfig {
        warmup_insts: warm,
        measure_insts: measure,
        ..SimConfig::quick(layout_seed(ctx.seed))
    }
}

fn setup(ctx: &Ctx) -> Inputs {
    let cfg = config(ctx);
    // specint7's own order, whatever the seed: the allocator retains
    // decoded traces differently when their sizes arrive in another
    // order, which would make peak RSS depend on the draw.
    let models: Vec<_> = specint7()
        .into_iter()
        .take(ctx.scale.trace_models)
        .collect();
    let mut record_ms = Vec::new();
    let traces = models
        .iter()
        .map(|m| {
            let t = Instant::now();
            let trace = Arc::new(record_trace(m, &cfg));
            record_ms.push(t.elapsed().as_secs_f64() * 1e3);
            trace
        })
        .collect();
    Inputs {
        cfg,
        models,
        traces,
        record_ms,
    }
}

fn digest_rows(rows: &[SweepRow]) -> u64 {
    let mut sorted: Vec<&SweepRow> = rows.iter().collect();
    sorted.sort_by_key(|r| (r.run.benchmark.clone(), r.predictor.label()));
    digest_results(sorted.iter().map(|r| &r.run))
}

/// Replay must reproduce generation: one seed-chosen cell is simulated
/// from its benchmark model and compared with the replayed row.
fn check_replay_equals_generate(ctx: &Ctx, out: &mut Outcome, inputs: &Inputs, rows: &[SweepRow]) {
    let mut rng = Rng::new(ctx.seed, 5);
    let m = inputs.models[rng.below(inputs.models.len())];
    let p = NamedPredictor::FIGURE_ORDER[rng.below(NamedPredictor::FIGURE_ORDER.len())];
    let want = result_bytes(&simulate(m, p.config(), &inputs.cfg));
    let got = rows
        .iter()
        .find(|r| r.predictor == p && r.run.benchmark == m.name)
        .map(|r| result_bytes(&r.run));
    let ok = got.as_deref() == Some(want.as_str());
    out.check(
        "replayed cell equals generated simulate",
        ok,
        format!("{} / {}", p.label(), m.name),
        1,
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inputs) = timed_setup(ctx.scale.setup_reps, |_| setup(ctx), drop);
    if ctx.traced {
        traced(ctx, &mut out, &inputs);
        return out;
    }
    let cells = inputs.traces.len() * NamedPredictor::FIGURE_ORDER.len();
    let insts = (inputs.cfg.warmup_insts + inputs.cfg.measure_insts) as f64;
    let runner = Runner::with_jobs(ctx.jobs);
    let (mut walls, mut rates, mut lat, mut first, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last_rows = Vec::new();
    repeat_for(ctx.seconds, |_| {
        let mut rows = Vec::with_capacity(cells);
        let t = Instant::now();
        for trace in &inputs.traces {
            let clock = CellClock::start();
            let r = trace_sweep_rows(&runner, trace, &inputs.cfg, clock.progress())
                .expect("traces are recorded for this budget");
            let (cell_ms, first_ms) = clock.finish();
            lat.extend(cell_ms);
            first.extend(first_ms);
            rows.extend(r);
        }
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push(cells as f64 * insts / wall / 1e6);
        digests.push(digest_rows(&rows));
        out.attempted += rows.len() as u64;
        last_rows = rows;
    });
    check_replay_equals_generate(ctx, &mut out, &inputs, &last_rows);
    out.check_digests("trace_replay", ctx, &digests, cells as u64);
    common_e2e(&mut out, &setup_s, &walls, &rates, &lat, &first);
    out
}

fn traced(ctx: &Ctx, out: &mut Outcome, inputs: &Inputs) {
    let cfg = &inputs.cfg;
    let cells: Vec<(usize, NamedPredictor)> = (0..inputs.traces.len())
        .flat_map(|t| NamedPredictor::FIGURE_ORDER.iter().map(move |p| (t, *p)))
        .collect();
    let keys: Vec<RunKey> = cells
        .iter()
        .map(|(t, p)| RunKey::for_trace(&inputs.traces[*t], p.config(), cfg))
        .collect();

    // Untraced: what `trace_sweep_rows` does, one plan per trace; run
    // before and after the traced pass so neither pass alone pays the
    // process's first-touch costs.
    let untraced = || {
        let runner = Runner::with_jobs(ctx.jobs);
        let mut want: HashMap<RunKey, String> = HashMap::new();
        let mut counts = (0, 0);
        let t = Instant::now();
        for trace in &inputs.traces {
            let mut plan = RunPlan::new();
            let mut trace_keys = Vec::new();
            for p in NamedPredictor::FIGURE_ORDER {
                let label = format!("{} / {} (trace)", p.label(), trace.meta().name);
                trace_keys.push(
                    plan.add_trace(trace, p.config(), cfg, label)
                        .expect("budget"),
                );
            }
            let set = runner.run(&plan, |_| {});
            counts.0 += set.executed();
            counts.1 += set.cache_hits();
            for k in trace_keys {
                want.insert(k, result_bytes(set.get(&k).expect("planned")));
            }
        }
        (t.elapsed().as_secs_f64(), want, counts)
    };
    let (wall_before, want, counts) = untraced();

    // Traced: the same plans, cells decomposed.
    let rec = Recorder::default();
    let per_trace = NamedPredictor::FIGURE_ORDER.len();
    let t = Instant::now();
    let results: Vec<RunResult> = rec.span("pass", None, 0, |pass| {
        let mut all = Vec::with_capacity(cells.len());
        for (ti, trace) in inputs.traces.iter().enumerate() {
            all.extend(pool(ctx.jobs, per_trace, |j| {
                let i = ti * per_trace + j;
                let rid = keys[i].digest();
                rec.span("cell", Some(pass), rid, |c| {
                    cell::replayed(&rec, c, rid, trace, cells[i].1.config(), cfg, None)
                })
            }));
        }
        all
    });
    let traced_wall = t.elapsed().as_secs_f64();
    let spans = SpanSet::from_recorder(&rec);
    let (wall_after, want_after, _) = untraced();
    let untraced_wall = (wall_before + wall_after) / 2.0;
    out.check(
        "untraced passes agree",
        want_after == want,
        format!("{} cells", want.len()),
        cells.len() as u64,
    );

    let mut ticks = TickSamples::new();
    let mut rng = Rng::new(ctx.seed, 3);
    let mut tick_bad = 0;
    for _ in 0..ctx.scale.tick_cells {
        let i = rng.below(cells.len());
        let (ti, p) = cells[i];
        let r = rec.span("cell.ticked", None, keys[i].digest(), |c| {
            cell::replayed(
                &rec,
                c,
                keys[i].digest(),
                &inputs.traces[ti],
                p.config(),
                cfg,
                Some(&mut ticks),
            )
        });
        tick_bad += u64::from(result_bytes(&r) != want[&keys[i]]);
    }
    let bad = results
        .iter()
        .zip(&keys)
        .filter(|(r, k)| result_bytes(r) != want[k])
        .count() as u64;
    out.check(
        "traced cells equal the runner's results",
        bad == 0 && tick_bad == 0,
        format!(
            "{} cells + {} ticked, {bad} + {tick_bad} differ",
            cells.len(),
            ctx.scale.tick_cells
        ),
        bad + tick_bad,
    );
    out.attempted += (cells.len() + ctx.scale.tick_cells) as u64;
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| (results[i].benchmark.clone(), cells[i].1.label()));
    let digest = digest_results(order.iter().map(|&i| &results[i]));
    out.check_digests("trace_replay", ctx, &[digest], cells.len() as u64);

    let m = &mut out.layer;
    layers::uarch_layer(
        m,
        &spans,
        &results,
        cfg.warmup_insts,
        "uarch.warm_replay_ns_per_inst",
        &ticks,
    );
    layers::runner_layer(
        m,
        &mut out.notes,
        &spans,
        ctx.jobs,
        untraced_wall,
        traced_wall,
        counts,
    );
    m.set(
        "trace.record_ms",
        median(&inputs.record_ms),
        "ms",
        inputs.record_ms.len(),
    );
    let decode: Vec<f64> = spans
        .durations("trace.decode")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    m.set("trace.decode_ms", median(&decode), "ms", decode.len());
    let decoded_mb: Vec<f64> = inputs
        .traces
        .iter()
        .map(|t| DecodedTrace::new(t).decoded_bytes() as f64 / 1e6)
        .collect();
    m.set(
        "trace.decoded_mb",
        median(&decoded_mb),
        "MB",
        decoded_mb.len(),
    );
    let first = &inputs.traces[0];
    let decoded = DecodedTrace::new(first);
    let branches = layers::cond_branches(&mut decoded.reader(), first.meta().insts);
    layers::predictor_layer(m, &branches);
    ctx.dump_spans("trace_replay", &spans, out);
}
