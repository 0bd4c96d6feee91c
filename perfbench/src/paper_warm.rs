//! `paper_warm`: set-up fills an empty cache with every cell of the
//! `paper` binary's plan at a small instruction budget; the timed
//! phase makes `paper.rs`'s sequence of `bw_core::experiments` calls on
//! that cached runner and renders the whole document. Cached cells
//! cost the same to load whatever their budget, and Table 2 / Figure
//! 14 still characterize 2M instructions per benchmark, as `paper.rs`
//! does. The only workload with bulk cache reads and the uncached
//! `trace_stats` characterization.

use std::path::PathBuf;
use std::time::Instant;

use bw_core::experiments::{
    fig02_model_comparison, fig03_squarification, fig05_accuracy_ipc, fig06_energy, fig07_power,
    fig11_banked_timing, fig12_13_banking, fig14_distances, fig16_fig17_render, fig19_render,
    gating_rows, ppd_rows, sweep_rows, table1, table2, table3,
};
use bw_core::power::PpdScenario;
use bw_core::workload::{all_benchmarks, specfp, specint, specint7, BenchmarkModel};
use bw_core::zoo::NamedPredictor;
use bw_core::{simulate, RunCache, RunKey, RunPlan, Runner, SimConfig};

use crate::bench::{common_e2e, repeat_for, timed_setup, Ctx, Outcome};
use crate::layers;
use crate::span::{Recorder, SpanId, SpanSet};
use crate::util::{fnv1a, layout_seed, result_bytes, Rng, FNV_START};

fn config(ctx: &Ctx) -> SimConfig {
    let (warm, measure) = ctx.scale.fill_budget;
    SimConfig {
        warmup_insts: warm,
        measure_insts: measure,
        ..SimConfig::quick(layout_seed(ctx.seed))
    }
}

/// Fills a fresh cache with the paper's plan, through the same runner
/// calls `paper.rs` makes.
fn setup(ctx: &Ctx, rep: usize) -> PathBuf {
    let cfg = config(ctx);
    let dir = ctx.fresh_dir(&format!("paper-{rep}"));
    let runner = Runner::with_jobs(ctx.jobs).cached(RunCache::new(&dir));
    sweep_rows(&runner, &specint(), &cfg, |_| {});
    sweep_rows(&runner, &specfp(), &cfg, |_| {});
    sweep_rows(&runner, &specint7(), &cfg, |_| {});
    ppd_rows(&runner, &specint7(), &cfg, |_| {});
    gating_rows(&runner, &specint7(), &cfg, |_| {});
    dir
}

/// Every key of the paper's plan, planned the way the experiment
/// views plan them.
fn paper_plan(cfg: &SimConfig) -> (RunPlan, Vec<RunKey>) {
    let mut plan = RunPlan::new();
    let mut keys = Vec::new();
    let mut add = |m: &'static BenchmarkModel, p: NamedPredictor, c: &SimConfig| {
        let k = plan.add(m, p.config(), c);
        if !keys.contains(&k) {
            keys.push(k);
        }
    };
    for models in [specint(), specfp(), specint7()] {
        for p in NamedPredictor::FIGURE_ORDER {
            for m in &models {
                add(m, p, cfg);
            }
        }
    }
    let mut ppd = cfg.clone();
    ppd.uarch = ppd.uarch.with_ppd(PpdScenario::One);
    for m in specint7() {
        add(m, NamedPredictor::GAs32k8, &ppd);
    }
    for p in [NamedPredictor::Hybrid0, NamedPredictor::Hybrid3] {
        for threshold in [None, Some(0u32), Some(1), Some(2)] {
            let mut c = cfg.clone();
            if let Some(n) = threshold {
                c.uarch = c.uarch.with_gating(n);
            }
            for m in specint7() {
                add(m, p, &c);
            }
        }
    }
    (plan, keys)
}

/// Timings of one rendering of the paper.
#[derive(Default)]
struct Render {
    text: String,
    /// Wall time of each runner-backed call, ms.
    calls_ms: Vec<f64>,
    /// Time from the start until the first cached cells arrive, ms.
    first_ms: f64,
}

/// `paper.rs`'s sequence, rendered into one string. With a recorder,
/// each experiments call runs inside a span named for its layer.
fn render(
    runner: &Runner,
    cfg: &SimConfig,
    char_insts: u64,
    rec: Option<(&Recorder, SpanId)>,
) -> Render {
    let mut r = Render::default();
    let start = Instant::now();
    let span = |name: &'static str, f: &mut dyn FnMut()| match rec {
        Some((rec, parent)) => rec.span(name, Some(parent), 0, |_| f()),
        None => f(),
    };
    let mut out = String::new();
    let emit = |name: &'static str, f: &dyn Fn() -> String, out: &mut String| {
        let mut s = String::new();
        span(name, &mut || s = f());
        out.push_str(&s);
        out.push('\n');
    };
    let rows_call = |f: &mut dyn FnMut(), calls: &mut Vec<f64>| {
        let t = Instant::now();
        span("core.experiments.sweeps", f);
        calls.push(t.elapsed().as_secs_f64() * 1e3);
    };
    let models: Vec<_> = all_benchmarks().iter().collect();
    let seed = cfg.seed;
    emit("core.experiments.render", &table1, &mut out);
    emit(
        "core.experiments.table2",
        &|| table2(&models, char_insts, seed),
        &mut out,
    );
    emit("core.experiments.render", &fig03_squarification, &mut out);
    let mut int_rows = Vec::new();
    rows_call(
        &mut || int_rows = sweep_rows(runner, &specint(), cfg, |_| {}),
        &mut r.calls_ms,
    );
    r.first_ms = start.elapsed().as_secs_f64() * 1e3;
    emit(
        "core.experiments.render",
        &|| fig02_model_comparison(&int_rows),
        &mut out,
    );
    emit(
        "core.experiments.render",
        &|| {
            format!(
                "Figure 5 (SPECint2000)\n\n{}",
                fig05_accuracy_ipc(&int_rows)
            )
        },
        &mut out,
    );
    emit(
        "core.experiments.render",
        &|| format!("Figure 6 (SPECint2000)\n\n{}", fig06_energy(&int_rows)),
        &mut out,
    );
    emit(
        "core.experiments.render",
        &|| format!("Figure 7 (SPECint2000)\n\n{}", fig07_power(&int_rows)),
        &mut out,
    );
    let mut fp_rows = Vec::new();
    rows_call(
        &mut || fp_rows = sweep_rows(runner, &specfp(), cfg, |_| {}),
        &mut r.calls_ms,
    );
    emit(
        "core.experiments.render",
        &|| format!("Figure 8 (SPECfp2000)\n\n{}", fig05_accuracy_ipc(&fp_rows)),
        &mut out,
    );
    emit(
        "core.experiments.render",
        &|| format!("Figure 9 (SPECfp2000)\n\n{}", fig06_energy(&fp_rows)),
        &mut out,
    );
    emit(
        "core.experiments.render",
        &|| format!("Figure 10 (SPECfp2000)\n\n{}", fig07_power(&fp_rows)),
        &mut out,
    );
    emit("core.experiments.render", &table3, &mut out);
    emit("core.experiments.render", &fig11_banked_timing, &mut out);
    let mut subset_rows = Vec::new();
    rows_call(
        &mut || subset_rows = sweep_rows(runner, &specint7(), cfg, |_| {}),
        &mut r.calls_ms,
    );
    emit(
        "core.experiments.render",
        &|| fig12_13_banking(&subset_rows),
        &mut out,
    );
    emit(
        "core.experiments.fig14",
        &|| fig14_distances(&specint7(), char_insts, seed),
        &mut out,
    );
    let mut ppd = Vec::new();
    rows_call(
        &mut || ppd = ppd_rows(runner, &specint7(), cfg, |_| {}),
        &mut r.calls_ms,
    );
    emit(
        "core.experiments.render",
        &|| fig16_fig17_render(&ppd),
        &mut out,
    );
    let mut gating = Vec::new();
    rows_call(
        &mut || gating = gating_rows(runner, &specint7(), cfg, |_| {}),
        &mut r.calls_ms,
    );
    emit(
        "core.experiments.render",
        &|| fig19_render(&gating),
        &mut out,
    );
    r.text = out;
    r
}

/// Instructions the timed phase simulates: the Table 2 and Figure 14
/// characterizations (every cell is served from the cache).
fn characterized_insts(char_insts: u64) -> f64 {
    ((all_benchmarks().len() + specint7().len()) as u64 * char_insts) as f64
}

/// A seed-chosen cached cell must equal a fresh standalone simulation.
fn check_cached_cell(ctx: &Ctx, out: &mut Outcome, cache: &RunCache, cfg: &SimConfig) {
    let mut rng = Rng::new(ctx.seed, 6);
    let models = specint();
    let m = models[rng.below(models.len())];
    let p = NamedPredictor::FIGURE_ORDER[rng.below(NamedPredictor::FIGURE_ORDER.len())];
    let key = RunKey::new(m, p.config(), cfg);
    let got = cache.load(&key).map(|r| result_bytes(&r));
    let want = result_bytes(&simulate(m, p.config(), cfg));
    out.check(
        "cached cell equals standalone simulate",
        got.as_deref() == Some(want.as_str()),
        format!("{} / {}", p.label(), m.name),
        1,
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, dir) = timed_setup(
        ctx.scale.setup_reps,
        |rep| setup(ctx, rep),
        |d| {
            let _ = std::fs::remove_dir_all(d);
        },
    );
    let cfg = config(ctx);
    let insts = ctx.scale.char_insts;
    let cache = RunCache::new(&dir);
    let runner = Runner::with_jobs(ctx.jobs).cached(RunCache::new(&dir));
    check_cached_cell(ctx, &mut out, &cache, &cfg);
    if ctx.traced {
        traced(ctx, &mut out, &runner, &cache, &cfg, insts);
    } else {
        let (mut walls, mut rates, mut calls, mut first, mut digests) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        repeat_for(ctx.seconds, |_| {
            let t = Instant::now();
            let r = render(&runner, &cfg, insts, None);
            let wall = t.elapsed().as_secs_f64();
            walls.push(wall);
            rates.push(characterized_insts(insts) / wall / 1e6);
            calls.extend(r.calls_ms);
            first.push(r.first_ms);
            digests.push(fnv1a(FNV_START, r.text.as_bytes()));
            out.attempted += 1;
        });
        out.check_digests("paper_warm", ctx, &digests, 1);
        common_e2e(&mut out, &setup_s, &walls, &rates, &calls, &first);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    runner: &Runner,
    cache: &RunCache,
    cfg: &SimConfig,
    insts: u64,
) {
    // Untraced renderings before and after the traced one, so neither
    // alone pays the process's first-touch costs.
    let untraced = || {
        let t = Instant::now();
        let r = render(runner, cfg, insts, None);
        (t.elapsed().as_secs_f64(), r.text)
    };
    let (wall_before, plain) = untraced();
    let rec = Recorder::default();
    let t = Instant::now();
    let traced = rec.span("pass", None, 0, |pass| {
        render(runner, cfg, insts, Some((&rec, pass)))
    });
    let traced_wall = t.elapsed().as_secs_f64();
    let spans = SpanSet::from_recorder(&rec);
    let (wall_after, plain_after) = untraced();
    let untraced_wall = (wall_before + wall_after) / 2.0;
    out.check(
        "traced rendering equals the untraced ones",
        traced.text == plain && plain_after == plain,
        format!("{} bytes", plain.len()),
        1,
    );
    out.attempted += 3;
    out.check_digests("paper_warm", ctx, &[fnv1a(FNV_START, plain.as_bytes())], 1);

    let (plan, keys) = paper_plan(cfg);
    let set = runner.run(&plan, |_| {});
    out.check(
        "warm runner serves every cell from the cache",
        set.executed() == 0 && set.cache_hits() == keys.len(),
        format!(
            "executed {}, cache hits {}",
            set.executed(),
            set.cache_hits()
        ),
        set.executed() as u64,
    );
    let m = &mut out.layer;
    m.set("core.runner.executed", set.executed() as f64, "count", 1);
    m.set(
        "core.runner.cache_hits",
        set.cache_hits() as f64,
        "count",
        1,
    );
    for (metric, name) in [
        ("core.experiments.table2_ms", "core.experiments.table2"),
        ("core.experiments.fig14_ms", "core.experiments.fig14"),
        ("core.experiments.sweeps_ms", "core.experiments.sweeps"),
        ("core.experiments.render_ms", "core.experiments.render"),
    ] {
        let n = spans.durations(name).len();
        m.set(metric, spans.total_ns(name) / 1e6, "ms", n);
    }
    m.set(
        "tracing.overhead_ratio",
        traced_wall / untraced_wall - 1.0,
        "ratio",
        1,
    );
    let missed = layers::cache_load_layer(m, cache, &keys);
    let seed = cfg.seed;
    layers::gen_layer(m, &specint7(), seed, insts / 4);
    let gzip = specint7()[0];
    let program = gzip.build_program(seed);
    let branches = layers::cond_branches(&mut gzip.thread(&program, seed), insts / 2);
    layers::predictor_layer(m, &branches);
    out.check(
        "every planned cell loads",
        missed == 0,
        format!("{missed} missed"),
        missed as u64,
    );
    let total = spans.total_ns("pass");
    let parts: Vec<String> = ["table2", "fig14", "sweeps", "render"]
        .iter()
        .map(|p| {
            let name = format!("core.experiments.{p}");
            let ns: f64 = spans
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .sum();
            format!("{p} {:.1}%", 100.0 * ns / total)
        })
        .collect();
    out.notes
        .push(format!("paper pass by call: {}", parts.join(", ")));
    ctx.dump_spans("paper_warm", &spans, out);
}
