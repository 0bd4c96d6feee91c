//! Daemon throughput bench: an in-process `bw-server` is driven by
//! concurrent loopback clients, measuring cold cells/s (every cell
//! simulated) and warm-cache req/s (every cell answered from the
//! shared run cache) across client counts — written to
//! `BENCH_server.json` at the repo root.
//!
//! A third phase measures durability: a daemon is killed mid-sweep and
//! relaunched over the same cache, and the time for a token-bearing
//! client to resume and drain the interrupted sweep is written to
//! `BENCH_daemon_recovery.json` (resume latency, recovered cells/s).
//!
//! Follows the vendored criterion shim's conventions: measurement only
//! happens when the harness receives `--bench` (as `cargo bench`
//! passes); under `cargo test` it registers and exits so test runs
//! stay fast. `BW_BENCH_QUICK=1` shrinks budgets and sample counts for
//! CI smoke runs.

mod common;

use std::time::Instant;

/// The PR this tree corresponds to; stamped into `BENCH_server.json`
/// and its cross-PR history so regressions are attributable.
const PR: u32 = 10;

use bw_server::{CellSpec, CellStatus, Client, Journal, JournalRecord, Server, ServerConfig};
use common::Field::{Int, Num, Str};

struct Budget {
    mode: &'static str,
    warm_insts: u64,
    measure_insts: u64,
    cold_cells: u64,
    warm_reqs: u32,
    recovery_cells: u64,
}

impl Budget {
    fn from_env() -> Self {
        if std::env::var("BW_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Budget {
                mode: "quick",
                warm_insts: 2_000,
                measure_insts: 1_000,
                cold_cells: 8,
                warm_reqs: 4,
                recovery_cells: 12,
            }
        } else {
            Budget {
                mode: "full",
                warm_insts: 20_000,
                measure_insts: 10_000,
                cold_cells: 24,
                warm_reqs: 16,
                recovery_cells: 32,
            }
        }
    }
}

/// The cell grid: one benchmark, one predictor, `n` distinct seeds —
/// `n` distinct run keys, all cheap, all deterministic.
fn grid(n: u64, budget: &Budget) -> Vec<CellSpec> {
    (0..n)
        .map(|seed| CellSpec {
            benchmark: "gzip".to_string(),
            predictor: "Bim_4k".to_string(),
            warmup_insts: budget.warm_insts,
            measure_insts: budget.measure_insts,
            seed: 1 + seed,
            banked: false,
        })
        .collect()
}

/// Submits `specs` once and asserts every cell came back healthy.
fn run_grid(client: &mut Client, req: u64, specs: &[CellSpec]) {
    let replies = client.run_cells(req, specs).expect("loopback request");
    assert_eq!(replies.len(), specs.len());
    for reply in &replies {
        assert!(
            matches!(reply.status, CellStatus::Ok(_)),
            "bench cell must succeed: {:?}",
            reply.status
        );
    }
}

/// `clients` concurrent connections each issuing `reqs` full-grid
/// requests; returns total wall nanoseconds.
fn drive(addr: &str, specs: &[CellSpec], clients: u32, reqs: u32) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let specs = specs.to_vec();
            let addr = addr.to_string();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for r in 0..reqs {
                    run_grid(&mut client, u64::from(c * reqs + r + 1), &specs);
                }
                client.bye();
            });
        }
    });
    t.elapsed().as_nanos() as f64
}

/// The cross-PR history columns of `BENCH_server.json`: daemon
/// throughput (full mode only, so rows stay comparable).
const SERVER_HISTORY: &[(&str, usize)] = &[("cold_cells_per_s", 1), ("warm_req_per_s", 1)];

/// The cross-PR history columns of `BENCH_daemon_recovery.json`.
const RECOVERY_HISTORY: &[(&str, usize)] =
    &[("recovered_cells_per_s", 1), ("resume_latency_ms", 2)];

/// Kill-and-resume phase: a fresh daemon takes a sweep, dies mid-way,
/// and a relaunch over the same cache finishes it for a resuming
/// client. Returns `(recovered cells/s, resume latency ms, cells
/// executed before the kill)`.
fn recovery_phase(budget: &Budget) -> (f64, f64, u64) {
    let cache_dir = std::env::temp_dir().join(format!("bw-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = ServerConfig {
        cache_dir: Some(cache_dir.clone()),
        workers: 2,
        ..ServerConfig::default()
    };
    let specs = grid(budget.recovery_cells, budget);

    let first = Server::launch("127.0.0.1:0", cfg.clone()).expect("bind loopback");
    let client = Client::connect(first.addr()).expect("connect");
    let token = client.session().to_string();
    {
        let mut client = client;
        client.submit(1, &specs).expect("submit the sweep");
        // Let roughly a third of the sweep land, then take the daemon
        // down mid-flight — no acks were sent, no cells drained.
        while first.executed() < budget.recovery_cells / 3 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        first.shutdown();
    }
    // The journal's Done records are the exact pre-kill completion
    // count (executed() races the in-flight cells draining during
    // shutdown).
    let executed_before = Journal::in_dir(&cache_dir)
        .replay()
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Done { .. }))
        .count() as u64;

    let restart = Instant::now();
    let second = Server::launch("127.0.0.1:0", cfg).expect("relaunch over the same cache");
    let mut client = Client::connect_with(second.addr(), Some(&token)).expect("reconnect");
    assert!(
        client.resumed(),
        "the daemon must recognize the session token"
    );
    let reqs = client.resume().expect("resume");
    let resume_latency_ms = restart.elapsed().as_nanos() as f64 / 1e6;
    let mut recovered = 0u64;
    for req in reqs {
        let replies = client.collect_request(req).expect("drain resumed request");
        for reply in &replies {
            assert!(
                matches!(reply.status, CellStatus::Ok(_)),
                "recovered cell must succeed: {:?}",
                reply.status
            );
        }
        recovered += replies.len() as u64;
        client
            .ack(req, &replies.iter().map(|r| r.cell).collect::<Vec<_>>())
            .expect("ack");
    }
    let recovered_cells_per_s = recovered as f64 / (restart.elapsed().as_nanos() as f64 / 1e9);
    assert_eq!(recovered, budget.recovery_cells, "every cell redelivered");
    assert!(
        executed_before + second.executed() >= budget.recovery_cells,
        "journal replay plus restart work must cover the sweep"
    );
    client.bye();
    second.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    (recovered_cells_per_s, resume_latency_ms, executed_before)
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        println!("server: skipped (run via `cargo bench` to measure)");
        return;
    }
    let budget = Budget::from_env();

    let cache_dir = std::env::temp_dir().join(format!("bw-bench-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = Server::launch(
        "127.0.0.1:0",
        ServerConfig {
            cache_dir: Some(cache_dir.clone()),
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();
    let specs = grid(budget.cold_cells, &budget);

    // Cold phase: one client, every cell actually simulated (the
    // daemon's two workers overlap simulation with framing/dispatch).
    let cold_ns = drive(&addr, &specs, 1, 1);
    assert_eq!(
        server.executed(),
        budget.cold_cells,
        "cold phase must execute every cell exactly once"
    );
    let cold_cells_per_s = budget.cold_cells as f64 / (cold_ns / 1e9);
    println!(
        "server/cold: {:.3} ms for {} cells ({cold_cells_per_s:.1} cells/s, workers 2)",
        cold_ns / 1e6,
        budget.cold_cells
    );

    // Warm phase: the same grid over and over — every cell answered
    // from the shared cache, so this measures protocol + admission +
    // cache-probe throughput across client counts.
    let mut warm_at_4 = 0.0;
    for clients in [1u32, 2, 4] {
        let ns = drive(&addr, &specs, clients, budget.warm_reqs);
        let total_reqs = f64::from(clients * budget.warm_reqs);
        let req_per_s = total_reqs / (ns / 1e9);
        let cells_per_s = req_per_s * budget.cold_cells as f64;
        if clients == 4 {
            warm_at_4 = req_per_s;
        }
        println!(
            "server/warm x{clients}: {:.3} ms for {total_reqs:.0} reqs \
             ({req_per_s:.1} req/s, {cells_per_s:.0} cached cells/s)",
            ns / 1e6
        );
    }
    assert_eq!(
        server.executed(),
        budget.cold_cells,
        "warm phase must be served entirely from the cache"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let path = common::repo_root().join("BENCH_server.json");
    let mut history = common::History::load(&path, SERVER_HISTORY);
    history.record(budget.mode, PR, &[cold_cells_per_s, warm_at_4]);
    common::write_report(
        &path,
        vec![
            ("bench", Str("server".into())),
            ("pr", Int(PR.into())),
            ("mode", Str(budget.mode.into())),
            ("workload", Str("gzip".into())),
            ("predictor", Str("Bim_4k".into())),
            ("warm_insts", Int(budget.warm_insts)),
            ("measure_insts", Int(budget.measure_insts)),
            ("cold_cells", Int(budget.cold_cells)),
            ("warm_reqs_per_client", Int(budget.warm_reqs.into())),
            ("cold_cells_per_s", Num(cold_cells_per_s, 1)),
            ("warm_req_per_s_x4", Num(warm_at_4, 1)),
        ],
        &history,
    );
    println!("server: wrote {}", path.display());

    // Durability phase: kill a daemon mid-sweep, relaunch it over the
    // same cache, and time the resume for a token-bearing client.
    let (recovered_cells_per_s, resume_latency_ms, executed_before) = recovery_phase(&budget);
    println!(
        "server/recovery: {} cells, {executed_before} done pre-kill, \
         resume in {resume_latency_ms:.2} ms, {recovered_cells_per_s:.1} recovered cells/s",
        budget.recovery_cells
    );

    let recovery_path = common::repo_root().join("BENCH_daemon_recovery.json");
    let mut history = common::History::load(&recovery_path, RECOVERY_HISTORY);
    history.record(budget.mode, PR, &[recovered_cells_per_s, resume_latency_ms]);
    common::write_report(
        &recovery_path,
        vec![
            ("bench", Str("daemon_recovery".into())),
            ("pr", Int(PR.into())),
            ("mode", Str(budget.mode.into())),
            ("workload", Str("gzip".into())),
            ("predictor", Str("Bim_4k".into())),
            ("recovery_cells", Int(budget.recovery_cells)),
            ("executed_before_kill", Int(executed_before)),
            ("resume_latency_ms", Num(resume_latency_ms, 2)),
            ("recovered_cells_per_s", Num(recovered_cells_per_s, 1)),
        ],
        &history,
    );
    println!("server: wrote {}", recovery_path.display());
}
