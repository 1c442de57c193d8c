//! Steps-per-second of the simulator hot loop on a fixed E2-style workload.
//!
//! The workload is the population shape E2's adversary drives, scaled to a
//! deterministic step count: `Broadcast` signaling under the DSM model, 64
//! waiters each polling up to 192 times, and one signaler that makes 192
//! unsuccessful polls before signaling — so the waiters spin for the whole
//! measured window, exactly the §6 wild-goose-chase pattern. The schedule
//! is round-robin, so the step count is fixed across runs and machines and
//! `steps/sec = steps / wall` tracks the per-step cost of the engine alone.
//!
//! Run with: `cargo run --release -p bench --bin bench_step_throughput`
//!
//! `--threads N` sets the pool size for the threaded case (which runs
//! `2 × threads` independent copies through the work-stealing pool and
//! reports aggregate steps/sec). `--json FILE` writes one JSON object —
//! the entry `exp_all --json` embeds into BENCH_experiments.json so the
//! steps/sec trajectory is tracked across PRs.

use bench::cli;
use bench::timing::{bench, report};
use shm_scenario::cli::{int_flag, value_of};
use shm_sim::{CostModel, RoundRobin, Simulator};
use signaling::algorithms::Broadcast;
use signaling::{Role, Scenario};
use std::time::Instant;

/// Fixed workload shape: waiters spin while the signaler stalls.
const WAITERS: usize = 64;
const POLLS: u64 = 192;
/// Measured iterations of the serial case.
const ITERS: u32 = 10;
/// Independent copies per pool thread in the threaded case.
const COPIES_PER_THREAD: usize = 2;

fn run_once() -> u64 {
    let mut roles = vec![
        Role::Waiter {
            max_polls: Some(POLLS),
        };
        WAITERS
    ];
    roles.push(Role::Signaler { polls_first: POLLS });
    let scenario = Scenario {
        algorithm: &Broadcast,
        roles,
        model: CostModel::Dsm,
    };
    let spec = scenario.build();
    let mut sim = Simulator::new(&spec);
    let mut sched = RoundRobin::new();
    let steps = shm_sim::run(&mut sim, &mut sched, u64::MAX);
    assert!(sim.all_done(), "workload must run to completion");
    steps
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = cli::set_threads(cli::or_exit(int_flag(&args, "--threads", "threads")));

    // Serial: one simulator, fixed deterministic step count.
    let steps = run_once();
    let r = bench(&format!("step_throughput/serial/{WAITERS}w"), ITERS, || {
        assert_eq!(run_once(), steps, "step count must be deterministic");
    });
    report(&r);
    let serial_sps = steps as f64 / (r.median_ms / 1e3);
    println!("serial:   {steps} steps/iter, {serial_sps:.0} steps/sec (median)");

    // Threaded: independent copies across the pool, aggregate steps/sec.
    let copies = threads * COPIES_PER_THREAD;
    let jobs: Vec<usize> = (0..copies).collect();
    let t = Instant::now();
    let per_copy = bench::pool::map_indexed(threads, jobs, |_, _| run_once());
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let total_steps: u64 = per_copy.iter().sum();
    let threaded_sps = total_steps as f64 / (wall_ms / 1e3);
    println!(
        "threaded: {copies} copies on {threads} threads, {total_steps} steps \
         in {wall_ms:.3} ms, {threaded_sps:.0} steps/sec"
    );

    if let Some(path) = value_of(&args, "--json") {
        let json = format!(
            concat!(
                "{{\"experiment\": \"bench_step_throughput\", \"iters\": {}, ",
                "\"wall_ms\": {:.3}, \"steps_per_iter\": {}, ",
                "\"serial_steps_per_sec\": {:.0}, \"threads\": {}, ",
                "\"threaded_steps_per_sec\": {:.0}}}"
            ),
            ITERS, r.median_ms, steps, serial_sps, threads, threaded_sps,
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
