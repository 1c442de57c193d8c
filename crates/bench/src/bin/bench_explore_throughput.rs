//! States-per-second of the exhaustive explorer on a fixed E9-sized
//! workload, with and without a forcing memory budget.
//!
//! The workload is the largest state space in the E9 sweep: `SingleWaiter`
//! under DSM at 2 waiters (max 2 polls) + 1 signaler (1 pre-poll) —
//! a fixed, deterministic number of explored states per run. Four cases:
//! serial and threaded, each unbudgeted (all-RAM visited set + frontier)
//! and under a 64 KiB budget that forces the visited store to spill
//! delta-compressed runs to disk and the frontier to pack nodes out. The
//! ratio of budgeted to unbudgeted states/sec is the spill tax — the price
//! of exploring a space that does not fit in memory.
//!
//! Run with: `cargo run --release -p bench --bin bench_explore_throughput`
//!
//! `--threads N` sets the pool size for the threaded cases. `--json FILE`
//! writes one JSON object — the entry `exp_all --json` embeds into
//! BENCH_experiments.json so the explorer-throughput trajectory (and the
//! spill tax) is tracked across PRs.

use bench::cli;
use bench::timing::{bench, report};
use shm_explore::{check, Bounds, ScenarioSpec};
use shm_scenario::cli::{int_flag, value_of};
use shm_sim::CostModel;
use signaling::algorithms::SingleWaiter;

/// Fixed workload shape: the E9 sweep's biggest space.
const WAITERS: usize = 2;
const MAX_POLLS: u64 = 2;
/// The forcing budget: far below the workload's ~1.7 MB unbudgeted peak,
/// so both the visited runs and the frontier ring must spill.
const BUDGET: usize = 64 * 1024;
/// Measured iterations per case.
const ITERS: u32 = 5;

fn run_once(mem_budget: Option<usize>) -> u64 {
    let algo = SingleWaiter;
    let scenario = ScenarioSpec {
        algorithm: &algo,
        waiters: WAITERS,
        max_polls: MAX_POLLS,
        signaler_polls_first: 1,
        model: CostModel::Dsm,
        seed: None,
    };
    let bounds = Bounds {
        mem_budget,
        ..Bounds::exhaustive()
    };
    let out = check(&scenario, &bounds);
    assert!(out.report.exhaustive, "workload must explore exhaustively");
    if mem_budget.is_some() {
        assert!(out.report.spilled_bytes > 0, "budget must force spilling");
    }
    out.report.explored
}

/// Benches one (threads, budget) case; returns (explored, states/sec,
/// median wall ms).
fn case(label: &str, threads: usize, mem_budget: Option<usize>) -> (u64, f64, f64) {
    shm_pool::set_threads(threads);
    let explored = run_once(mem_budget);
    let r = bench(&format!("explore_throughput/{label}"), ITERS, || {
        assert_eq!(
            run_once(mem_budget),
            explored,
            "explored count must be deterministic"
        );
    });
    report(&r);
    let sps = explored as f64 / (r.median_ms / 1e3);
    println!("{label}: {explored} states/iter, {sps:.0} states/sec (median)\n");
    (explored, sps, r.median_ms)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = cli::set_threads(cli::or_exit(int_flag(&args, "--threads", "threads")));

    let (explored, serial_sps, serial_ms) = case("serial/unbudgeted", 1, None);
    let (_, serial_spill_sps, _) = case("serial/64k-budget", 1, Some(BUDGET));
    let (_, threaded_sps, _) = case("threaded/unbudgeted", threads, None);
    let (_, threaded_spill_sps, _) = case("threaded/64k-budget", threads, Some(BUDGET));

    println!(
        "spill tax: serial {:.1}%, threaded {:.1}% (states/sec lost to a {BUDGET}-byte budget)",
        (1.0 - serial_spill_sps / serial_sps) * 100.0,
        (1.0 - threaded_spill_sps / threaded_sps) * 100.0,
    );

    if let Some(path) = value_of(&args, "--json") {
        let json = format!(
            concat!(
                "{{\"experiment\": \"bench_explore_throughput\", \"iters\": {}, ",
                "\"wall_ms\": {:.3}, ",
                "\"states_per_iter\": {}, \"mem_budget_bytes\": {}, ",
                "\"serial_states_per_sec\": {:.0}, ",
                "\"serial_spill_states_per_sec\": {:.0}, \"threads\": {}, ",
                "\"threaded_states_per_sec\": {:.0}, ",
                "\"threaded_spill_states_per_sec\": {:.0}}}"
            ),
            ITERS,
            serial_ms,
            explored,
            BUDGET,
            serial_sps,
            serial_spill_sps,
            threads,
            threaded_sps,
            threaded_spill_sps,
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
