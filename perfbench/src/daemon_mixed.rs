//! `daemon_mixed`: an in-process `Server::launch` on TCP loopback
//! (`bw-server`'s default transport) with two workers over a fresh
//! cache, and two client connections: a *reader* that keeps
//! re-requesting a grid set-up already cached, and a *writer* that
//! streams requests of new tiny cells drawn from specint7 × the zoo.
//! Covers the wire, admission, fair scheduling, the journal's fsync
//! path, cache probe and cache store; the simulation core barely
//! matters.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bw_core::workload::specint7;
use bw_core::zoo::NamedPredictor;
use bw_core::{simulate, RunCache, RunResult};
use bw_server::{
    resolve_cell, CellSpec, CellStatus, Client, Journal, JournalRecord, Server, ServerConfig,
    ServerMsg, JOURNAL_FILE,
};

use crate::bench::{common_e2e, pool, timed_setup, Ctx, Outcome};
use crate::cell;
use crate::layers;
use crate::span::{Recorder, SpanSet};
use crate::util::{fnv1a, layout_seed, median, quantile, result_bytes, Rng, FNV_START};

struct Daemon {
    server: Server,
    dir: PathBuf,
    reader: Client,
    writer: Client,
    /// The cached grid's results, as the reader first received them.
    grid_bytes: Vec<String>,
}

impl Daemon {
    fn close(self) {
        self.reader.bye();
        self.writer.bye();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spec(ctx: &Ctx, bench: &str, p: NamedPredictor, seed: u64) -> CellSpec {
    CellSpec {
        benchmark: bench.to_string(),
        predictor: p.label().to_string(),
        warmup_insts: ctx.scale.daemon_budget.0,
        measure_insts: ctx.scale.daemon_budget.1,
        seed,
        banked: false,
    }
}

/// The reader's grid: distinct specint7 × zoo cells in seed order.
fn reader_grid(ctx: &Ctx) -> Vec<CellSpec> {
    let mut all: Vec<CellSpec> = NamedPredictor::FIGURE_ORDER
        .iter()
        .flat_map(|p| specint7().into_iter().map(move |m| (*p, m.name)))
        .map(|(p, b)| spec(ctx, b, p, layout_seed(ctx.seed)))
        .collect();
    Rng::new(ctx.seed, 7).shuffle(&mut all);
    all.truncate(ctx.scale.grid_cells);
    all
}

/// Draws the writer's new cells: never a cell drawn before.
struct WriterDraw {
    rng: Rng,
    seen: HashSet<(String, String, u64)>,
}

impl WriterDraw {
    fn next(&mut self, ctx: &Ctx) -> CellSpec {
        let models = specint7();
        loop {
            let m = models[self.rng.below(models.len())];
            let p =
                NamedPredictor::FIGURE_ORDER[self.rng.below(NamedPredictor::FIGURE_ORDER.len())];
            let s = spec(ctx, m.name, p, 1 + self.rng.next_u64() % 1_000_000_007);
            if self
                .seen
                .insert((s.benchmark.clone(), s.predictor.clone(), s.seed))
            {
                return s;
            }
        }
    }
}

fn ok_bytes(status: &CellStatus) -> Option<String> {
    match status {
        CellStatus::Ok(v) => Some(serde_json::to_string(&**v).expect("value serializes")),
        _ => None,
    }
}

fn setup(ctx: &Ctx, rep: usize, grid: &[CellSpec]) -> Daemon {
    let dir = ctx.fresh_dir(&format!("daemon-{rep}"));
    let server = Server::launch(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(dir.clone()),
            workers: ctx.jobs,
            ..ServerConfig::default()
        },
    )
    .expect("launch daemon on loopback");
    let mut reader = Client::connect(server.addr()).expect("reader connects");
    let writer = Client::connect(server.addr()).expect("writer connects");
    let replies = reader.run_cells(0, grid).expect("grid request");
    reader
        .ack(0, &replies.iter().map(|r| r.cell).collect::<Vec<_>>())
        .expect("ack");
    let grid_bytes = replies
        .iter()
        .map(|r| ok_bytes(&r.status).unwrap_or_default())
        .collect();
    Daemon {
        server,
        dir,
        reader,
        writer,
        grid_bytes,
    }
}

/// What one client request observed.
#[derive(Default)]
struct Req {
    /// Submit → first `Cell` frame, ms.
    first_ms: f64,
    /// Submit → `Done`, ms.
    total_ms: f64,
    /// Gaps between consecutive `Cell` frames, ms.
    gaps_ms: Vec<f64>,
    /// Cell payloads by cell index (`None` if not ok).
    cells: Vec<Option<String>>,
}

/// Submits one request and reads its frames until `Done`, timing each.
fn request(client: &mut Client, req: u64, cells: &[CellSpec]) -> Req {
    let t = Instant::now();
    client.submit(req, cells).expect("submit");
    let mut out = Req {
        cells: vec![None; cells.len()],
        ..Req::default()
    };
    let mut last: Option<Instant> = None;
    loop {
        match client.next_msg().expect("daemon frame") {
            Some(ServerMsg::Cell(reply)) if reply.req == req => {
                let now = Instant::now();
                match last {
                    None => out.first_ms = (now - t).as_secs_f64() * 1e3,
                    Some(prev) => out.gaps_ms.push((now - prev).as_secs_f64() * 1e3),
                }
                last = Some(now);
                if let Some(slot) = out.cells.get_mut(reply.cell as usize) {
                    *slot = ok_bytes(&reply.status);
                }
            }
            Some(ServerMsg::Done { req: done, .. }) if done == req => break,
            Some(ServerMsg::Error { message }) => panic!("daemon error: {message}"),
            Some(_) => {}
            None => panic!("daemon closed the connection"),
        }
    }
    out.total_ms = t.elapsed().as_secs_f64() * 1e3;
    let idx: Vec<u64> = (0..cells.len() as u64).collect();
    client.ack(req, &idx).expect("ack");
    out
}

/// One round: the writer streams its requests while the reader keeps
/// re-requesting the cached grid, until the writer drains.
struct Round {
    writer_wall_s: f64,
    writer_cells: Vec<CellSpec>,
    writer_reqs: Vec<Req>,
    reader_reqs: Vec<Req>,
    executed: u64,
    queued_max: u64,
    inflight_max: u64,
}

fn round(
    ctx: &Ctx,
    d: &mut Daemon,
    draw: &mut WriterDraw,
    grid: &[CellSpec],
    next_req: &mut u64,
    stats: bool,
) -> Round {
    let batches: Vec<Vec<CellSpec>> = (0..ctx.scale.writer_reqs)
        .map(|_| {
            (0..ctx.scale.writer_cells)
                .map(|_| draw.next(ctx))
                .collect()
        })
        .collect();
    let executed_before = d.server.executed();
    let base = *next_req;
    *next_req += 10_000;
    let writer_done = AtomicBool::new(false);
    let (reader, writer) = (&mut d.reader, &mut d.writer);
    let (writer_side, reader_reqs) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let t = Instant::now();
            let reqs: Vec<Req> = batches
                .iter()
                .enumerate()
                .map(|(i, cells)| request(writer, base + i as u64, cells))
                .collect();
            let wall = t.elapsed().as_secs_f64();
            writer_done.store(true, Ordering::SeqCst);
            (wall, reqs)
        });
        let (mut reqs, mut queued_max, mut inflight_max) = (Vec::new(), 0, 0);
        let mut i = 0;
        while !writer_done.load(Ordering::SeqCst) {
            reqs.push(request(reader, base + 5_000 + i, grid));
            i += 1;
            // The daemon's counters while the writer's cells are in
            // flight; the reader has nothing outstanding here, so no
            // frame of its own is skipped.
            if stats {
                let (_, queued, inflight) = reader.stats().expect("stats");
                queued_max = queued_max.max(queued);
                inflight_max = inflight_max.max(inflight);
            }
        }
        (
            w.join().expect("writer thread"),
            (reqs, queued_max, inflight_max),
        )
    });
    let ((writer_wall_s, writer_reqs), (reader_reqs, queued_max, inflight_max)) =
        (writer_side, reader_reqs);
    Round {
        writer_wall_s,
        writer_cells: batches.into_iter().flatten().collect(),
        writer_reqs,
        reader_reqs,
        executed: d.server.executed() - executed_before,
        queued_max,
        inflight_max,
    }
}

/// What a run's output checks have seen so far.
#[derive(Default)]
struct Tally {
    /// Reader and writer cells compared.
    cells: u64,
    /// Of those, the ones not byte-equal to standalone `simulate`.
    bad: u64,
    /// New writer cells submitted.
    new_cells: u64,
    /// Daemon executions observed while they ran.
    executed: u64,
}

impl Tally {
    /// Adds a round: reader payloads must equal the cached grid, writer
    /// payloads must equal `local` (standalone results).
    fn add(&mut self, d: &Daemon, r: &Round, local: &[String]) {
        for req in &r.reader_reqs {
            for (got, want) in req.cells.iter().zip(&d.grid_bytes) {
                self.bad += u64::from(got.as_deref() != Some(want.as_str()));
            }
        }
        let got = r.writer_reqs.iter().flat_map(|q| &q.cells);
        self.bad += got
            .zip(local)
            .filter(|(g, w)| g.as_deref() != Some(w.as_str()))
            .count() as u64;
        self.cells += (r.reader_reqs.len() * d.grid_bytes.len() + local.len()) as u64;
        self.new_cells += local.len() as u64;
        self.executed += r.executed;
    }

    /// Records the checks and the attempted cells in `out`.
    fn report(&self, out: &mut Outcome) {
        out.attempted += self.cells;
        out.check(
            "daemon cells equal standalone simulate",
            self.bad == 0,
            format!("{} cells, {} differ", self.cells, self.bad),
            self.bad,
        );
        out.check(
            "one execution per new cell",
            self.executed == self.new_cells,
            format!(
                "executed {} for {} new cells",
                self.executed, self.new_cells
            ),
            self.new_cells.abs_diff(self.executed),
        );
    }
}

/// Standalone `simulate` of every cell on the pool, as result bytes.
fn simulate_all(ctx: &Ctx, cells: &[CellSpec]) -> Vec<String> {
    pool(ctx.jobs, cells.len(), |i| {
        let c = resolve_cell(&cells[i]).expect("valid cell");
        result_bytes(&simulate(c.model, c.predictor.config(), &c.cfg))
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let grid = reader_grid(ctx);
    let (setup_s, mut d) = timed_setup(
        ctx.scale.setup_reps,
        |rep| setup(ctx, rep, &grid),
        Daemon::close,
    );
    // The cached grid itself must match standalone simulation.
    out.check(
        "cached grid equals standalone simulate",
        simulate_all(ctx, &grid) == d.grid_bytes,
        format!("{} cells", grid.len()),
        grid.len() as u64,
    );
    let digest = fnv1a(FNV_START, d.grid_bytes.concat().as_bytes());
    out.check_digests("daemon_mixed", ctx, &[digest], grid.len() as u64);
    let mut draw = WriterDraw {
        rng: Rng::new(ctx.seed, 8),
        seen: HashSet::new(),
    };
    let mut next_req = 1;
    let mut tally = Tally::default();
    if ctx.traced {
        traced(
            ctx,
            &mut out,
            &mut tally,
            &mut d,
            &mut draw,
            &grid,
            &mut next_req,
        );
        tally.report(&mut out);
        d.close();
        return out;
    }
    let t = Instant::now();
    let (mut walls, mut rates, mut req_ms, mut first_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reader_reqs = 0;
    let per_cell = (ctx.scale.daemon_budget.0 + ctx.scale.daemon_budget.1) as f64;
    while walls.is_empty()
        || t.elapsed().as_secs_f64() < ctx.seconds
        || reader_reqs < ctx.scale.min_reader_reqs
    {
        let r = checked_round(ctx, &mut tally, &mut d, &mut draw, &grid, &mut next_req);
        walls.push(r.writer_wall_s);
        rates.push(r.writer_cells.len() as f64 * per_cell / r.writer_wall_s / 1e6);
        reader_reqs += r.reader_reqs.len();
        req_ms.extend(r.reader_reqs.iter().map(|q| q.total_ms));
        first_ms.extend(r.reader_reqs.iter().map(|q| q.first_ms));
    }
    tally.report(&mut out);
    common_e2e(&mut out, &setup_s, &walls, &rates, &req_ms, &first_ms);
    d.close();
    out
}

/// One untraced round, its writer cells checked against standalone
/// `simulate`.
fn checked_round(
    ctx: &Ctx,
    tally: &mut Tally,
    d: &mut Daemon,
    draw: &mut WriterDraw,
    grid: &[CellSpec],
    next_req: &mut u64,
) -> Round {
    let r = round(ctx, d, draw, grid, next_req, false);
    tally.add(d, &r, &simulate_all(ctx, &r.writer_cells));
    r
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    tally: &mut Tally,
    d: &mut Daemon,
    draw: &mut WriterDraw,
    grid: &[CellSpec],
    next_req: &mut u64,
) {
    // Untraced rounds before and after the traced one, so neither
    // alone pays the daemon's first-touch costs.
    let plain = checked_round(ctx, tally, d, draw, grid, next_req);

    // The traced round: the same shape with stats probes, its writer
    // cells then decomposed standalone with spans.
    let rec = Recorder::default();
    let traced = rec.span("server.round", None, 0, |_| {
        round(ctx, d, draw, grid, next_req, true)
    });
    let plain_after = checked_round(ctx, tally, d, draw, grid, next_req);
    let cells: Vec<_> = traced
        .writer_cells
        .iter()
        .map(|c| resolve_cell(c).expect("valid cell"))
        .collect();
    let results: Vec<RunResult> = rec.span("pass", None, 0, |pass| {
        pool(ctx.jobs, cells.len(), |i| {
            let c = &cells[i];
            let rid = c.key.digest();
            rec.span("cell", Some(pass), rid, |s| {
                cell::generated(&rec, s, rid, c.model, c.predictor.config(), &c.cfg, None)
            })
        })
    });
    let local: Vec<String> = results.iter().map(result_bytes).collect();
    tally.add(d, &traced, &local);
    let spans = SpanSet::from_recorder(&rec);
    // Tick-driven sample of the writer's cells.
    let mut ticks = Vec::new();
    let mut tick_bad = 0;
    for (c, want) in cells.iter().zip(&local).take(ctx.scale.tick_cells) {
        let r = rec.span("cell.ticked", None, c.key.digest(), |s| {
            cell::generated(
                &rec,
                s,
                c.key.digest(),
                c.model,
                c.predictor.config(),
                &c.cfg,
                Some(&mut ticks),
            )
        });
        tick_bad += u64::from(result_bytes(&r) != *want);
    }
    out.check(
        "ticked cells equal standalone results",
        tick_bad == 0,
        format!("{tick_bad} differ"),
        tick_bad,
    );

    // Client-side connection set-up, on extra connections.
    let connect_ms: Vec<f64> = (0..8)
        .map(|_| {
            let t = Instant::now();
            let c = Client::connect(d.server.addr()).expect("connect");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            c.bye();
            ms
        })
        .collect();

    // Journal appends on a scratch journal.
    let jdir = ctx.fresh_dir("journal-probe");
    let journal = Journal::in_dir(&jdir);
    let append_us: Vec<f64> = (0..64u64)
        .map(|i| {
            let t = Instant::now();
            journal.append(&JournalRecord::Done { digest: i });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let _ = std::fs::remove_dir_all(&jdir);

    let m = &mut out.layer;
    let rounds = [&plain, &traced, &plain_after];
    let all_reads: Vec<&Req> = rounds.iter().flat_map(|r| &r.reader_reqs).collect();
    let gaps: Vec<f64> = all_reads
        .iter()
        .flat_map(|q| q.gaps_ms.iter().copied())
        .collect();
    m.set(
        "server.connect_ms",
        median(&connect_ms),
        "ms",
        connect_ms.len(),
    );
    m.set(
        "server.cell_gap_p50_ms",
        quantile(&gaps, 0.5),
        "ms",
        gaps.len(),
    );
    m.set(
        "server.cell_gap_p99_ms",
        quantile(&gaps, 0.99),
        "ms",
        gaps.len(),
    );
    let cold: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.writer_reqs)
        .map(|q| q.first_ms)
        .collect();
    m.set("server.cold_cell_p50_ms", median(&cold), "ms", cold.len());
    let standalone_s = spans.total_ns("cell") / 1e9;
    m.set(
        "server.overhead_ms_per_cell",
        (traced.writer_wall_s * ctx.jobs as f64 - standalone_s) * 1e3 / cells.len() as f64,
        "ms",
        cells.len(),
    );
    m.set(
        "server.journal_append_us",
        median(&append_us),
        "us",
        append_us.len(),
    );
    let journal_bytes = std::fs::metadata(d.dir.join(JOURNAL_FILE)).map_or(0, |md| md.len());
    m.set("server.journal_bytes", journal_bytes as f64, "bytes", 1);
    m.set(
        "server.exec_ratio",
        tally.executed as f64 / tally.new_cells as f64,
        "ratio",
        tally.new_cells as usize,
    );
    m.set(
        "server.queued_max",
        traced.queued_max as f64,
        "count",
        traced.reader_reqs.len(),
    );
    m.set(
        "server.inflight_max",
        traced.inflight_max as f64,
        "count",
        traced.reader_reqs.len(),
    );
    let untraced_wall = (plain.writer_wall_s + plain_after.writer_wall_s) / 2.0;
    m.set(
        "tracing.overhead_ratio",
        traced.writer_wall_s / untraced_wall - 1.0,
        "ratio",
        1,
    );
    layers::uarch_layer(
        m,
        &spans,
        &results,
        ctx.scale.daemon_budget.0,
        "uarch.warm_gen_ns_per_inst",
        &ticks,
    );
    let cache = RunCache::new(&d.dir);
    let keys: Vec<_> = cells.iter().map(|c| c.key).collect();
    let missed = layers::cache_load_layer(m, &cache, &keys);
    // Store timings into a scratch cache, with the same entries.
    let sdir = ctx.fresh_dir("store-probe");
    let scratch = RunCache::new(&sdir);
    let srec = Recorder::default();
    for (c, r) in cells.iter().zip(&results) {
        srec.span("core.cache.store", None, c.key.digest(), |_| {
            scratch.store(&c.key, r)
        });
    }
    layers::cache_store_layer(m, &SpanSet::from_recorder(&srec));
    let _ = std::fs::remove_dir_all(&sdir);
    out.check(
        "every writer cell is cached",
        missed == 0,
        format!("{missed} missed"),
        missed as u64,
    );
    ctx.dump_spans("daemon_mixed", &spans, out);
}
