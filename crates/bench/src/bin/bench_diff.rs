//! Compares the latest `BENCH_history.jsonl` record against its baseline
//! (per-metric median of the previous runs) with noise-aware thresholds —
//! the uniform soft perf gate that replaced CI's ad-hoc warmup/best-of-3
//! E9 wall check.
//!
//! Run with: `cargo run --release -p bench --bin bench_diff`
//!
//! Flags: `--history PATH` (default `BENCH_history.jsonl`), `--out PATH`
//! (write the comparison as a JSON artifact), `--strict` (exit nonzero on
//! any regression; without it regressions only print GitHub `::warning`
//! annotations — a *soft* gate).
//!
//! A metric regresses when it is ≥ 1.5× worse than its baseline (walls
//! additionally need ≥ 50 ms of absolute growth, so micro-walls cannot
//! flag on jitter). Fewer than two records is a pass: no baseline yet.

use bench::history::{self, DiffEntry};
use shm_scenario::cli::value_of;
use std::fmt::Write as _;

fn fmt_val(v: f64) -> String {
    if v.abs() >= 10_000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn artifact_json(entries: &[DiffEntry], regressions: usize) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"cc-dsm/bench-diff/v1\",\n  \"regressions\": {regressions},\n  \"metrics\": [\n"
    );
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"latest\": {}, \"baseline\": {}, \"delta_pct\": {}, \"regression\": {}}}{}",
            e.name,
            fmt_val(e.latest),
            e.baseline.map_or("null".into(), fmt_val),
            e.delta_pct.map_or("null".into(), |d| format!("{d:.1}")),
            e.regression,
            if i + 1 < entries.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = value_of(&args, "--history").unwrap_or_else(|| "BENCH_history.jsonl".into());
    let out_path = value_of(&args, "--out");
    let strict = args.iter().any(|a| a == "--strict");

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read history ledger {path}: {e}"));
    let records = history::parse_records(&text);
    let Some((latest, prior)) = records.split_last() else {
        panic!("{path} holds no {} records", history::SCHEMA);
    };
    println!(
        "bench_diff: latest {} ({} threads, {}) vs {} prior record(s)",
        latest.git_sha,
        latest.threads,
        latest.utc_date,
        prior.len()
    );
    if prior.is_empty() {
        println!("no baseline yet — nothing to compare (pass)");
        if let Some(p) = &out_path {
            std::fs::write(p, artifact_json(&[], 0)).unwrap_or_else(|e| panic!("write {p}: {e}"));
            println!("wrote {p}");
        }
        return;
    }

    let entries = history::diff(latest, prior);
    let regressions = entries.iter().filter(|e| e.regression).count();
    println!(
        "\n{:<40} {:>14} {:>14} {:>9}  status",
        "metric", "latest", "baseline", "delta"
    );
    for e in &entries {
        let delta = e
            .delta_pct
            .map_or_else(|| "-".into(), |d| format!("{d:+.1}%"));
        let status = if e.regression {
            "REGRESSION"
        } else if e.baseline.is_none() {
            "new"
        } else {
            "ok"
        };
        println!(
            "{:<40} {:>14} {:>14} {:>9}  {status}",
            e.name,
            fmt_val(e.latest),
            e.baseline.map_or_else(|| "-".into(), fmt_val),
            delta
        );
    }
    for e in entries.iter().filter(|e| e.regression) {
        // GitHub annotation syntax: surfaces on the workflow summary page
        // without failing the job (the soft gate).
        println!(
            "::warning title=perf regression::{} is {} vs baseline {} ({:+.1}%)",
            e.name,
            fmt_val(e.latest),
            fmt_val(e.baseline.unwrap_or(0.0)),
            e.delta_pct.unwrap_or(0.0)
        );
    }
    if let Some(p) = &out_path {
        std::fs::write(p, artifact_json(&entries, regressions))
            .unwrap_or_else(|e| panic!("write {p}: {e}"));
        println!("wrote {p}");
    }
    if regressions == 0 {
        println!("\nno regressions against the noise-aware thresholds");
    } else {
        println!("\n{regressions} regression(s) flagged");
        if strict {
            std::process::exit(1);
        }
    }
}
