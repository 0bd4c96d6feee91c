//! `sweep_cold`: `experiments::sweep_rows` over specint7 × the 14
//! figure configurations at `SimConfig::quick`, on a two-job runner
//! over an empty cache directory — the unit `paper --quick` is made
//! of. Most of its host time is the detailed core.

use std::collections::HashMap;
use std::time::Instant;

use bw_core::experiments::{sweep_rows, SweepRow};
use bw_core::workload::{specint7, BenchmarkModel};
use bw_core::zoo::NamedPredictor;
use bw_core::{simulate, CacheLookup, RunCache, RunKey, RunPlan, RunResult, Runner, SimConfig};

use crate::bench::{common_e2e, pool, repeat_for, timed_setup, CellClock, Ctx, Outcome};
use crate::cell::{self, TickSamples};
use crate::layers;
use crate::span::{Recorder, SpanSet};
use crate::util::{digest_results, layout_seed, result_bytes, Rng};

/// The sweep's cells in `sweep_rows` plan order.
fn grid(models: &[&'static BenchmarkModel]) -> Vec<(NamedPredictor, &'static BenchmarkModel)> {
    NamedPredictor::FIGURE_ORDER
        .iter()
        .flat_map(|p| models.iter().map(move |m| (*p, *m)))
        .collect()
}

/// Rows digested in a canonical order (independent of plan order).
fn digest_rows(rows: &[SweepRow]) -> u64 {
    let mut sorted: Vec<&SweepRow> = rows.iter().collect();
    sorted.sort_by_key(|r| (r.predictor.label(), r.run.benchmark.clone()));
    digest_results(sorted.iter().map(|r| &r.run))
}

/// The inputs a run builds from its seed.
struct Inputs {
    models: Vec<&'static BenchmarkModel>,
    cfg: SimConfig,
    /// Seed-chosen cells simulated on their own, to check the sweep.
    references: Vec<(NamedPredictor, &'static BenchmarkModel, RunResult)>,
}

fn setup(ctx: &Ctx) -> Inputs {
    let (warm, measure) = ctx.scale.sweep_budget;
    let cfg = SimConfig {
        warmup_insts: warm,
        measure_insts: measure,
        ..SimConfig::quick(layout_seed(ctx.seed))
    };
    let models: Vec<_> = specint7()
        .into_iter()
        .take(ctx.scale.sweep_models)
        .collect();
    let cells = grid(&models);
    let mut rng = Rng::new(ctx.seed, 2);
    let references = (0..2)
        .map(|_| {
            let (p, m) = cells[rng.below(cells.len())];
            (p, m, simulate(m, p.config(), &cfg))
        })
        .collect();
    Inputs {
        models,
        cfg,
        references,
    }
}

/// How many of the sampled reference cells differ from a sweep's rows.
fn reference_mismatches(inputs: &Inputs, rows: &[SweepRow]) -> u64 {
    let mut bad = 0;
    for (p, m, want) in &inputs.references {
        let got = rows
            .iter()
            .find(|r| r.predictor == *p && r.run.benchmark == m.name)
            .map(|r| result_bytes(&r.run));
        bad += u64::from(got.as_deref() != Some(result_bytes(want).as_str()));
    }
    bad
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inputs) = timed_setup(ctx.scale.setup_reps, |_| setup(ctx), drop);
    let cells = grid(&inputs.models);
    let insts = (inputs.cfg.warmup_insts + inputs.cfg.measure_insts) as f64;

    if ctx.traced {
        traced(ctx, &mut out, &inputs);
        return out;
    }
    let (mut walls, mut rates, mut lat, mut first, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bad = 0;
    repeat_for(ctx.seconds, |rep| {
        let dir = ctx.fresh_dir(&format!("sweep-cold-{rep}"));
        let runner = Runner::with_jobs(ctx.jobs).cached(RunCache::new(&dir));
        let clock = CellClock::start();
        let t = Instant::now();
        let rows = sweep_rows(&runner, &inputs.models, &inputs.cfg, clock.progress());
        let wall = t.elapsed().as_secs_f64();
        let (cell_ms, first_ms) = clock.finish();
        walls.push(wall);
        rates.push(cells.len() as f64 * insts / wall / 1e6);
        lat.extend(cell_ms);
        first.extend(first_ms);
        digests.push(digest_rows(&rows));
        bad += reference_mismatches(&inputs, &rows);
        out.attempted += rows.len() as u64;
        let _ = std::fs::remove_dir_all(&dir);
    });
    out.check(
        "sampled cells equal standalone simulate",
        bad == 0,
        format!(
            "{} sampled x {} repetitions, {bad} differ",
            inputs.references.len(),
            walls.len()
        ),
        bad,
    );
    out.check_digests("sweep_cold", ctx, &digests, cells.len() as u64);
    common_e2e(&mut out, &setup_s, &walls, &rates, &lat, &first);
    out
}

/// One untraced repetition through the runner's public plan API (for
/// its `RunSet` counts), then the same cells decomposed with spans.
fn traced(ctx: &Ctx, out: &mut Outcome, inputs: &Inputs) {
    let cells = grid(&inputs.models);
    let cfg = &inputs.cfg;
    let keys: Vec<RunKey> = cells
        .iter()
        .map(|(p, m)| RunKey::new(m, p.config(), cfg))
        .collect();

    // Untraced: exactly what `sweep_rows` does; run before and after
    // the traced pass so neither pass alone pays the process's
    // first-touch costs.
    let mut plan = RunPlan::new();
    for (p, m) in &cells {
        plan.add_labeled(m, p.config(), cfg, format!("{} / {}", p.label(), m.name));
    }
    let untraced = || {
        let dir = ctx.fresh_dir("sweep-cold-untraced");
        let runner = Runner::with_jobs(ctx.jobs).cached(RunCache::new(&dir));
        let t = Instant::now();
        let set = runner.run(&plan, |_| {});
        let wall = t.elapsed().as_secs_f64();
        let want: HashMap<RunKey, String> = keys
            .iter()
            .map(|k| (*k, result_bytes(set.get(k).expect("planned"))))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (wall, want, (set.executed(), set.cache_hits()))
    };
    let (wall_before, want, counts) = untraced();

    // Traced: probe every key, then execute the misses on the pool.
    let dir = ctx.fresh_dir("sweep-cold-traced");
    let cache = RunCache::new(&dir);
    let rec = Recorder::default();
    let t = Instant::now();
    let results = rec.span("pass", None, 0, |pass| {
        for key in &keys {
            let hit = rec.span("core.cache.load", Some(pass), key.digest(), |_| {
                matches!(cache.load_checked(key), CacheLookup::Hit(_))
            });
            assert!(!hit, "a cold cache cannot hit");
        }
        pool(ctx.jobs, cells.len(), |i| {
            let (p, m) = cells[i];
            let rid = keys[i].digest();
            rec.span("cell", Some(pass), rid, |c| {
                let r = cell::generated(&rec, c, rid, m, p.config(), cfg, None);
                rec.span("core.cache.store", Some(c), rid, |_| {
                    cache.store(&keys[i], &r)
                });
                r
            })
        })
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

    // Tick-driven sample, outside the pass so its per-tick timers do
    // not inflate the pass.
    let mut ticks = TickSamples::new();
    let mut rng = Rng::new(ctx.seed, 3);
    let mut tick_bad = 0;
    for _ in 0..ctx.scale.tick_cells {
        let i = rng.below(cells.len());
        let (p, m) = cells[i];
        let r = rec.span("cell.ticked", None, keys[i].digest(), |c| {
            cell::generated(
                &rec,
                c,
                keys[i].digest(),
                m,
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
    out.check(
        "cold runner executes every cell",
        counts == (cells.len(), 0),
        format!("executed {}, cache hits {}", counts.0, counts.1),
        0,
    );
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| (cells[i].0.label(), cells[i].1.name));
    let digest = digest_results(order.iter().map(|&i| &results[i]));
    out.check_digests("sweep_cold", ctx, &[digest], cells.len() as u64);

    let m = &mut out.layer;
    layers::uarch_layer(
        m,
        &spans,
        &results,
        cfg.warmup_insts,
        "uarch.warm_gen_ns_per_inst",
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
    layers::cache_store_layer(m, &spans);
    let missed = layers::cache_load_layer(m, &cache, &keys);
    layers::gen_layer(
        m,
        &inputs.models,
        cfg.seed,
        cfg.warmup_insts + cfg.measure_insts,
    );
    out.check(
        "every stored cell loads back",
        missed == 0,
        format!("{missed} missed"),
        missed as u64,
    );
    let _ = std::fs::remove_dir_all(&dir);
    ctx.dump_spans("sweep_cold", &spans, out);
}
