//! `shm-serve` — the deterministic batch job server CLI.
//!
//! Subcommands:
//!
//! - `shm-serve run [--results DIR] [--joblog FILE] [--spool DIR]
//!   [--tcp ADDR] [--unix PATH] [--max-jobs N] [--idle-exit-ms N]
//!   [--poll-ms N] [--history FILE]` — serve manifests from the spool
//!   directory and/or sockets until an exit condition fires: `--max-jobs`
//!   submissions processed, or `--idle-exit-ms` with no submission
//!   received. Sockets are event-driven (a submission is picked up as soon
//!   as its line arrives); `--poll-ms` (default 20) sets only how often the
//!   spool directory is scanned. With `--tcp` the bound address is printed
//!   as `listening tcp HOST:PORT` (useful with port 0). A torn final
//!   job-log line is truncated at startup; other job-log corruption exits
//!   1 with `shm-serve: joblog: …`. `--history` appends the run's
//!   per-kind wall times to the `BENCH_history.jsonl` perf ledger
//!   (`serve_wall_ms.<kind>`), which the existing `bench_diff` soft gate
//!   then watches for regressions.
//! - `shm-serve replay --joblog FILE [--results DIR] [--json FILE]` —
//!   re-execute every completed job from the log alone and assert the
//!   results reproduce byte-for-byte; exits 1 on any mismatch.
//! - `shm-serve submit (--tcp ADDR | --unix PATH) --manifest FILE
//!   [--out FILE]` — submit one manifest over a socket, print the reply
//!   header, and write the streamed result bytes to `--out` (default:
//!   stdout).
//!
//! Exit codes: 0 success, 1 replay mismatch / server error, 2 bad usage or
//! rejected submission. A malformed numeric flag exits 2 with a structured
//! `cc-dsm/error/v1` JSON diagnostic on stderr.

use shm_scenario::cli::{int_flag, value_of};
use shm_scenario::json;
use shm_scenario::ManifestError;
use shm_serve::{replay, ServeConfig, Server};
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("replay") => cmd_replay(&args),
        Some("submit") => cmd_submit(&args),
        _ => {
            eprintln!("usage: shm-serve run|replay|submit [flags] (see --help of each)");
            2
        }
    };
    std::process::exit(code);
}

fn run_config(args: &[String]) -> Result<ServeConfig, ManifestError> {
    Ok(ServeConfig {
        results_dir: value_of(args, "--results")
            .map_or_else(|| "serve-results".into(), PathBuf::from),
        joblog: value_of(args, "--joblog").map_or_else(|| "JOBLOG.jsonl".into(), PathBuf::from),
        spool: value_of(args, "--spool").map(PathBuf::from),
        tcp: value_of(args, "--tcp"),
        unix: value_of(args, "--unix").map(PathBuf::from),
        max_jobs: int_flag(args, "--max-jobs", "max_jobs")?,
        idle_exit_ms: int_flag(args, "--idle-exit-ms", "idle_exit_ms")?,
        poll_ms: int_flag(args, "--poll-ms", "poll_ms")?.unwrap_or(20),
    })
}

fn cmd_run(args: &[String]) -> i32 {
    let cfg = match run_config(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{}", e.to_json());
            return 2;
        }
    };
    let history = value_of(args, "--history");
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shm-serve: {e}");
            return 1;
        }
    };
    if let Some(addr) = server.tcp_addr() {
        println!("listening tcp {addr}");
        let _ = std::io::stdout().flush();
    }
    let stats = match server.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shm-serve: {e}");
            return 1;
        }
    };
    println!(
        "served {} job(s): {} completed, {} cached, {} rejected, {} failed",
        stats.processed(),
        stats.completed,
        stats.deduped,
        stats.rejected,
        stats.failed,
    );
    if let Some(path) = history {
        let mut metrics: std::collections::BTreeMap<String, f64> = stats
            .wall_ms_by_kind
            .iter()
            .map(|(kind, ms)| (format!("serve_wall_ms.{kind}"), *ms))
            .collect();
        metrics.insert("serve_jobs".into(), stats.processed() as f64);
        let record = bench::history::Record {
            git_sha: bench::history::git_sha(),
            utc_date: bench::history::utc_date_now(),
            threads: shm_pool::threads() as u64,
            metrics,
        };
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", record.to_line());
                println!("appended serve walls to {path}");
            }
            Err(e) => eprintln!("shm-serve: append {path}: {e}"),
        }
    }
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let Some(joblog) = value_of(args, "--joblog") else {
        eprintln!("usage: shm-serve replay --joblog FILE [--results DIR] [--json FILE]");
        return 2;
    };
    let results = value_of(args, "--results").map(PathBuf::from);
    let report = match replay(PathBuf::from(&joblog).as_path(), results.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shm-serve replay: {e}");
            return 1;
        }
    };
    let json = report.to_json();
    if let Some(path) = value_of(args, "--json") {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("shm-serve replay: write {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    print!("{json}");
    if report.clean() {
        println!(
            "replay clean: {}/{} completed job(s) reproduced byte-for-byte",
            report.verified, report.jobs,
        );
        0
    } else {
        for m in &report.mismatches {
            eprintln!("REPLAY MISMATCH: {m}");
        }
        1
    }
}

fn cmd_submit(args: &[String]) -> i32 {
    let Some(manifest_path) = value_of(args, "--manifest") else {
        eprintln!(
            "usage: shm-serve submit (--tcp ADDR | --unix PATH) --manifest FILE [--out FILE]"
        );
        return 2;
    };
    let text = match std::fs::read_to_string(&manifest_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("shm-serve submit: read {manifest_path}: {e}");
            return 2;
        }
    };
    // The socket protocol is line-delimited: collapse the manifest to one
    // line (JSON whitespace is insignificant; job IDs hash the canonical
    // form, so formatting never changes the job).
    let line: String = text
        .chars()
        .map(|c| if c == '\n' { ' ' } else { c })
        .collect();
    let reply = if let Some(addr) = value_of(args, "--tcp") {
        std::net::TcpStream::connect(&addr)
            .and_then(|mut s| shm_serve::submit_stream(&mut s, &line))
    } else if let Some(path) = value_of(args, "--unix") {
        std::os::unix::net::UnixStream::connect(&path)
            .and_then(|mut s| shm_serve::submit_stream(&mut s, &line))
    } else {
        eprintln!("shm-serve submit: need --tcp ADDR or --unix PATH");
        return 2;
    };
    let (header, body) = match reply {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shm-serve submit: {e}");
            return 1;
        }
    };
    println!("{header}");
    let parsed = json::parse(&header).unwrap_or(json::Value::Null);
    if parsed.get("status").and_then(json::Value::as_str) == Some("error") {
        return 2;
    }
    match value_of(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &body) {
                eprintln!("shm-serve submit: write {path}: {e}");
                return 1;
            }
        }
        None => {
            let _ = std::io::stdout().write_all(&body);
        }
    }
    0
}
