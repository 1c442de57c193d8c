//! Runs every experiment (E1–E10) in sequence — the one-command regeneration
//! of `EXPERIMENTS.md`'s tables.
//!
//! Run with: `cargo run --release -p bench --bin exp_all`
//!
//! Pass `--threads N` to set every child's pool size (exported as
//! `CC_DSM_THREADS`; 1 = exact serial path). Pass `--json` to write
//! per-experiment wall times to `BENCH_experiments.json` — the repo's
//! wall-time trajectory — plus the `bench_step_throughput` steps/sec and
//! `bench_explore_throughput` states/sec entries (`total_wall_ms` still
//! sums E1–E10 only; the microbenches ride along as extra rows). Pass
//! `--canon-dir DIR` to have every experiment write its canonical
//! (timing-free) row JSON to `DIR/e1.json` … `DIR/e10.json` for
//! byte-equality determinism diffs between thread counts. Pass `--obs-dir DIR` to have
//! every child write `DIR/<bin>.metrics.json`, `DIR/<bin>.trace.json`,
//! `DIR/<bin>.progress.jsonl`, and `DIR/<bin>.profile.json` (deterministic
//! metrics report, Chrome trace, sorted progress frames, span-time
//! profile); `--obs-summary`, `--trace-wall`, `--progress[=N]`, and
//! `--profile[=N]` are forwarded to every child as-is.
//!
//! With `--json`, one perf-history record (git SHA, UTC date, every wall
//! and throughput figure) is additionally **appended** to
//! `BENCH_history.jsonl` — the cross-PR perf trajectory `bench_diff`
//! gates on.

use bench::history;
use shm_scenario::cli::value_of;
use shm_scenario::json::{self, Value};
use std::process::Command;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let threads = value_of(&args, "--threads");
    let canon_dir = value_of(&args, "--canon-dir");
    let obs_dir = value_of(&args, "--obs-dir");
    for dir in canon_dir.iter().chain(&obs_dir) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
    }
    let bins = [
        "exp_e1_cc_upper",
        "exp_e2_dsm_lower",
        "exp_e3_variants",
        "exp_e4_primitives",
        "exp_e5_messages",
        "exp_e6_mutex",
        "exp_e7_fixed_w",
        "exp_e8_transformation",
        "exp_e9_explore",
        "exp_e10_pct",
    ];
    // When invoked via cargo, sibling binaries sit next to us.
    let me = std::env::current_exe().expect("current exe");
    let dir = me.parent().expect("bin dir");
    let mut walls: Vec<(&str, f64)> = Vec::new();
    for bin in bins {
        println!("\n================================================================");
        println!("== {bin}");
        println!("================================================================\n");
        let mut cmd = Command::new(dir.join(bin));
        if let Some(t) = &threads {
            cmd.env("CC_DSM_THREADS", t);
        }
        if let Some(cdir) = &canon_dir {
            // `exp_e9_explore` writes `e9.json`, and so on.
            let kind = bin.split('_').nth(1).expect("exp_<kind>_<name>");
            cmd.arg("--canon").arg(format!("{cdir}/{kind}.json"));
        }
        if let Some(odir) = &obs_dir {
            cmd.arg("--metrics")
                .arg(format!("{odir}/{bin}.metrics.json"));
            cmd.arg("--trace-chrome")
                .arg(format!("{odir}/{bin}.trace.json"));
            cmd.arg("--progress-jsonl")
                .arg(format!("{odir}/{bin}.progress.jsonl"));
            cmd.arg("--profile-json")
                .arg(format!("{odir}/{bin}.profile.json"));
            for flag in ["--obs-summary", "--trace-wall"] {
                if args.iter().any(|a| a == flag) {
                    cmd.arg(flag);
                }
            }
        }
        // The ticker/table flags forward verbatim (with or without =N),
        // independently of --obs-dir.
        for a in &args {
            if a == "--progress"
                || a == "--profile"
                || a.starts_with("--progress=")
                || a.starts_with("--profile=")
            {
                cmd.arg(a);
            }
        }
        let t = Instant::now();
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(status.success(), "{bin} failed");
        walls.push((bin, wall_ms));
    }
    if json {
        // The microbenches ride along: the step-throughput steps/sec and
        // explore-throughput states/sec entries are spliced into the
        // experiments array so the simulator hot-loop and explorer (+ spill
        // tax) trajectories are tracked PR-over-PR next to the wall times,
        // but they are excluded from `total_wall_ms` (that figure is the
        // E1–E10 suite).
        // Each microbench reports `<mode>_<unit>` throughput fields, which
        // become `<metric>.<mode>` perf-history metrics.
        let mut metrics = std::collections::BTreeMap::new();
        let mut bench_entries = Vec::new();
        for (bin, unit, metric) in [
            ("bench_step_throughput", "_steps_per_sec", "steps_per_sec"),
            (
                "bench_explore_throughput",
                "_states_per_sec",
                "explore_states_per_sec",
            ),
        ] {
            let tmp = std::env::temp_dir().join(format!("{bin}.json"));
            let mut cmd = Command::new(dir.join(bin));
            if let Some(t) = &threads {
                cmd.env("CC_DSM_THREADS", t);
            }
            cmd.arg("--json").arg(&tmp);
            let status = cmd
                .status()
                .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
            assert!(status.success(), "{bin} failed");
            let entry = std::fs::read_to_string(&tmp)
                .unwrap_or_else(|e| panic!("read {bin} json: {e}"))
                .trim()
                .to_string();
            let Ok(Value::Obj(fields)) = json::parse(&entry) else {
                panic!("{bin} wrote a non-object: {entry}");
            };
            for (field, v) in &fields {
                if let (Some(mode), Some(v)) = (field.strip_suffix(unit), v.as_f64()) {
                    metrics.insert(format!("{metric}.{mode}"), v);
                }
            }
            bench_entries.push(entry);
        }

        let threads_json = threads.unwrap_or_else(|| shm_pool::threads().to_string());
        let total: f64 = walls.iter().map(|(_, w)| w).sum();
        let mut out = format!("{{\"threads\": {threads_json}, \"experiments\": [\n");
        for (bin, wall_ms) in &walls {
            out.push_str(&format!(
                "  {{\"experiment\": \"{bin}\", \"iters\": 1, \"wall_ms\": {wall_ms:.3}}},\n",
            ));
        }
        let n = bench_entries.len();
        for (i, entry) in bench_entries.iter().enumerate() {
            out.push_str(&format!("  {entry}{}\n", if i + 1 < n { "," } else { "" }));
        }
        out.push_str(&format!("], \"total_wall_ms\": {total:.3}}}\n"));
        let path = "BENCH_experiments.json";
        std::fs::write(path, out).expect("write BENCH_experiments.json");
        println!("\nwrote {path}");

        // Append one perf-history record: every wall, every microbench
        // throughput, and (when a canon dir is present) the E9 memory
        // trajectory. `bench_diff` compares the latest record against the
        // per-metric median of the previous runs.
        for (bin, wall_ms) in &walls {
            metrics.insert(format!("wall_ms.{bin}"), *wall_ms);
        }
        metrics.insert("wall_ms.total".to_string(), total);
        if let (Some(&serial), Some(&spill)) = (
            metrics.get("explore_states_per_sec.serial"),
            metrics.get("explore_states_per_sec.serial_spill"),
        ) {
            if serial > 0.0 {
                metrics.insert(
                    "spill_tax_pct.serial".to_string(),
                    (1.0 - spill / serial) * 100.0,
                );
            }
        }
        if let Some(cdir) = &canon_dir {
            // The E9 canon rows carry the deterministic memory trajectory;
            // summed over rows they give the suite's logical peak/spill
            // figures.
            if let Ok(e9) = std::fs::read_to_string(format!("{cdir}/e9.json")) {
                let e9 = json::parse(&e9).unwrap_or_else(|e| panic!("bad e9.json: {e}"));
                let sum_of = |field: &str| -> f64 {
                    e9.as_arr()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(|row| row.get(field).and_then(Value::as_f64))
                        .sum()
                };
                metrics.insert(
                    "e9.peak_visited_bytes".to_string(),
                    sum_of("peak_visited_bytes"),
                );
                metrics.insert("e9.spilled_bytes".to_string(), sum_of("spilled_bytes"));
            }
        }
        let record = history::Record {
            git_sha: history::git_sha(),
            utc_date: history::utc_date_now(),
            threads: threads_json.trim().parse().unwrap_or(0),
            metrics,
        };
        let ledger = "BENCH_history.jsonl";
        let mut text = std::fs::read_to_string(ledger).unwrap_or_default();
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        text.push_str(&record.to_line());
        text.push('\n');
        std::fs::write(ledger, text).expect("append BENCH_history.jsonl");
        println!("appended {ledger} ({})", record.git_sha);
    }
}
