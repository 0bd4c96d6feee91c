//! The repo benchmark: four closed-loop workloads driven through the
//! simulator crates' public functions, timed end to end (untraced run)
//! or decomposed into per-layer spans (traced run).
//!
//! ```text
//! perfbench --workload <sweep_cold|trace_replay|paper_warm|daemon_mixed>
//!           --seed N --seconds S --trace 0|1 [--size full|smoke]
//! ```
//!
//! Prints a report (host, seed, every metric with unit and sample
//! count, every output check) and, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Scratch
//! files live under `.bench_work/` in the working directory; span
//! dumps of traced runs are kept in `.bench_work/spans/`.

mod bench;
mod cell;
mod daemon_mixed;
mod layers;
mod paper_warm;
mod span;
mod sweep_cold;
mod trace_replay;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use bench::{Ctx, Outcome, Scale};

const WORKLOADS: [&str; 4] = ["sweep_cold", "trace_replay", "paper_warm", "daemon_mixed"];

const USAGE: &str =
    "usage: perfbench --workload <sweep_cold|trace_replay|paper_warm|daemon_mixed> \
                     --seed N --seconds S --trace 0|1 [--size full|smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::full());
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            "--size" => {
                scale = match value()?.as_str() {
                    "full" => Scale::full(),
                    "smoke" => Scale::smoke(),
                    other => return Err(format!("--size must be full or smoke, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "sweep_cold" => sweep_cold::run(ctx),
        "trace_replay" => trace_replay::run(ctx),
        "paper_warm" => paper_warm::run(ctx),
        "daemon_mixed" => daemon_mixed::run(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale.clone(),
        traced: args.trace,
        work: work.clone(),
        jobs: util::jobs(),
        out_dir: root.join("spans"),
    };
    let mut out = run_workload(&args.workload, &ctx);
    if args.trace {
        // Layers this workload does not exercise come from the other
        // workloads' traced passes at the smoke size.
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let octx = Ctx {
                scale: Scale::smoke(),
                ..ctx.clone()
            };
            let o = run_workload(other, &octx);
            out.layer.fill_from(&o.layer);
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.checks.extend(o.checks.into_iter().map(|mut c| {
                c.name = format!("{other} (smoke): {}", c.name);
                c
            }));
            out.notes
                .extend(o.notes.into_iter().map(|n| format!("{other} (smoke): {n}")));
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    report(&args, &ctx, &mut out)
}

/// Prints the report and the result line; the exit code is 0 only
/// when every check passed.
fn report(args: &Args, ctx: &Ctx, out: &mut Outcome) -> ExitCode {
    let metrics = if args.trace { &out.layer } else { &out.e2e };
    for (name, m) in &metrics.0 {
        if !m.value.is_finite() {
            out.checks.push(bench::Check {
                name: format!("{name} is a number"),
                ok: false,
                detail: format!("{}", m.value),
            });
        }
    }
    println!(
        "perfbench {} (size {}, seed {}, {} s, trace {})",
        args.workload,
        ctx.scale.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in util::host_facts() {
        println!("  {k:<8} {v}");
    }
    println!("  jobs     {}", ctx.jobs);
    println!(
        "  digest   {}",
        out.digest.map_or("-".to_string(), |d| format!("{d:016x}"))
    );
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    for (name, m) in &metrics.0 {
        println!(
            "  {name:<44} {:>16.6} {:<10} n={}",
            m.value, m.unit, m.samples
        );
    }
    println!("checks:");
    for c in &out.checks {
        println!(
            "  [{}] {} ({})",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.ok);
    println!(
        "cells attempted {}, failed {} (failed_ratio {:.6})",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let json = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .0
                    .iter()
                    .map(|(name, m)| {
                        let v = if m.value.is_finite() { m.value } else { 0.0 };
                        (
                            name.clone(),
                            Value::Obj(vec![
                                ("value".into(), Value::F64(v)),
                                ("unit".into(), Value::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&json).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
