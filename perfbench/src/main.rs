//! `perfbench`: the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload explore|reproduce|serve --seed N --seconds S --trace 0|1
//! perfbench --write-reference FILE
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

mod batch;
mod probe;
mod reference;
mod serve;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fresh_p50_ms", "ms"),
    ("cached_p50_ms", "ms"),
];

/// Per-layer metrics and their units. A layer a workload does not reach
/// reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("kind.e1_ms", "ms"),
    ("kind.e2_ms", "ms"),
    ("kind.e3_ms", "ms"),
    ("kind.e4_ms", "ms"),
    ("kind.e5_ms", "ms"),
    ("kind.e6_ms", "ms"),
    ("kind.e7_ms", "ms"),
    ("kind.e8_ms", "ms"),
    ("kind.e9_ms", "ms"),
    ("kind.e9_deep_ms", "ms"),
    ("kind.e10_ms", "ms"),
    ("scenario.parse_us", "us"),
    ("scenario.canon_ms", "ms"),
    ("shm.steps", "count"),
    ("shm.rmrs", "count"),
    ("shm.messages", "count"),
    ("shm.steps_per_busy_s", "1/s"),
    ("shm.ckpt_snapshots", "count"),
    ("shm.ckpt_restores", "count"),
    ("explore.states", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.sleep_pruned", "count"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.states_per_busy_s", "1/s"),
    ("explore.check_ms", "ms"),
    ("explore.store_hot_hits", "count"),
    ("explore.store_cold_probes", "count"),
    ("explore.spilled_bytes", "bytes"),
    ("explore.peak_visited_bytes", "bytes"),
    ("explore.peak_frontier", "count"),
    ("explore.pct_schedules", "count"),
    ("explore.pct_steps", "count"),
    ("adversary.record_ms", "ms"),
    ("adversary.rounds_ms", "ms"),
    ("adversary.chase_ms", "ms"),
    ("adversary.discovery_ms", "ms"),
    ("adversary.rounds", "count"),
    ("adversary.erase_surgery", "count"),
    ("adversary.erase_refused", "count"),
    ("adversary.erase_refused_ratio", "ratio"),
    ("mutex.passages", "count"),
    ("pool.cpu_util", "ratio"),
    ("pool.steals", "count"),
    ("pool.idle", "count"),
    ("serve.exec_ms", "ms"),
    ("serve.fresh_tail_ms", "ms"),
    ("serve.cached_tail_ms", "ms"),
    ("serve.overhead_ms.cached", "ms"),
    ("serve.overhead_ms.fresh", "ms"),
    ("serve.joblog_bytes", "bytes"),
    ("serve.results_bytes", "bytes"),
    ("serve.max_outstanding", "count"),
    ("serve.gen_late_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-up starts (of this process in `--ready` mode, or of the server for
/// `serve`) after every pass, and before and after the serve stream;
/// `setup_s` is their median. Spreading them over the run samples the
/// host's speed over the whole run rather than at its start.
pub const SETUP_STARTS: usize = 5;

/// A run's result: the correctness tally, measured values, and notes for
/// standard error.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values
            .insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    pub fn set_tail(&mut self, name: &str, t: stats::Tail) {
        self.set(name, t.value);
        self.note(format!("{name} is p{} of n={}", t.pct, t.n));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// The result line, carrying exactly the metrics of `set`.
    fn to_json(&self, set: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(*name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload").ok_or("missing --workload")?;
    if !["explore", "reproduce", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (explore, reproduce, serve)"
        ));
    }
    let num = |flag: &str, default: &str| -> Result<String, String> {
        Ok(value(args, flag).unwrap_or_else(|| default.to_owned()))
    };
    let seed = num("--seed", "1")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer")?;
    let seconds: f64 = num("--seconds", "10")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match num("--trace", "0")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn batch_texts(a: &Args) -> Vec<String> {
    match a.workload.as_str() {
        "explore" => workload::explore(),
        _ => workload::reproduce(a.seed),
    }
}

/// Spawns this binary in `--ready` mode as a set-up probe. Returns the
/// seconds until it reports the workload set up, and the milliseconds and
/// check of the cached sample it takes next from the stored `results`.
fn setup_probe(args: &[String], results: &Path) -> (f64, f64, bool) {
    let exe = std::env::current_exe().expect("current executable");
    let t = Instant::now();
    let mut child = Command::new(&exe)
        .args(&args[1..])
        .arg("--ready")
        .arg(results)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn set-up probe");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("read set-up probe");
    let secs = t.elapsed().as_secs_f64();
    let mut sample = String::new();
    stdout.read_line(&mut sample).expect("read set-up probe");
    let status = child.wait().expect("wait for set-up probe");
    let cached = sample.split_whitespace().collect::<Vec<_>>();
    match (status.success(), ready.trim(), cached.as_slice()) {
        (true, "ready", [ms, ok]) => (
            secs,
            ms.parse().expect("cached sample milliseconds"),
            *ok == "true",
        ),
        _ => panic!("set-up probe failed: {ready:?} {sample:?}"),
    }
}

/// A scratch directory inside the working directory, removed when dropped.
/// It is also the process's `TMPDIR`, where exploration spills.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let rel = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&rel).expect("create scratch directory");
        let abs = std::fs::canonicalize(&rel).expect("resolve scratch directory");
        // Set before any thread starts; children inherit it.
        std::env::set_var("TMPDIR", &abs);
        Scratch(rel)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The `shm-serve` binary, which `run.py` builds next to this one. Its path
/// is absolute because the server starts in its own directory.
fn serve_bin() -> PathBuf {
    let bin = std::env::current_exe()
        .expect("current executable")
        .with_file_name("shm-serve");
    std::fs::canonicalize(&bin).unwrap_or_else(|e| {
        eprintln!("perfbench: no shm-serve binary at {}: {e}", bin.display());
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = value(&args, "--write-reference") {
        std::fs::write(&path, reference::render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(results) = value(&args, "--ready") {
        let batch = batch::Batch::setup(batch_texts(&a), results.into());
        println!("ready");
        let (ms, ok) = batch.cached_sample();
        println!("{ms:?} {ok}");
        return;
    }
    let scratch = Scratch::new();
    let results = scratch.0.join("results");
    std::fs::create_dir_all(&results).expect("create results directory");
    let batch = || batch::Batch::setup(batch_texts(&a), results.clone());
    let outcome = match (a.workload.as_str(), a.trace) {
        ("serve", _) => serve::run(&serve_bin(), &scratch.0, a.seed, a.seconds),
        (_, false) => batch().run(a.seconds, || setup_probe(&args, &results)),
        (_, true) => batch().run_traced(a.seconds),
    };
    drop(scratch);
    for n in &outcome.notes {
        eprintln!("perfbench: {n}");
    }
    let set: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        let v = outcome.values.get(*name).copied().unwrap_or(0.0);
        eprintln!("perfbench: {name:<30} {v:>16.6} {unit}");
    }
    eprintln!(
        "perfbench: failed_frac {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json(set));
}
