//! The experiment binaries' command line. Every `exp_*` binary is
//! `fn main() { bench::cli::main(kind) }`: [`main`] validates the manifest
//! from the flags, sets the pool size from `manifest.threads`, parses the
//! observability flags, runs the one entry path ([`crate::run::run`]),
//! prints the table, writes `--canon`, finishes the observability sinks and
//! exits 1 when the rows refute a claim. [`Session`] exposes those steps
//! for the one binary (E2) that adds outputs of its own.
//!
//! The binaries stay dependency-free (no clap). Every malformed flag exits
//! 2 with a structured `cc-dsm/error/v1` JSON diagnostic on stderr, never a
//! panic. Thread count: an explicit `--threads` overrides the
//! `CC_DSM_THREADS` environment variable, which overrides available
//! parallelism (resolution lives in [`shm_pool::threads`]).

use crate::run::{self, Rows};
use shm_scenario::cli::{manifest_from_args, value_of};
use shm_scenario::{ExperimentKind, Manifest, ManifestError};
use std::sync::Arc;

/// Runs one experiment binary end to end (see the module docs).
pub fn main(kind: ExperimentKind) {
    let session = Session::start(kind);
    let rows = session.run();
    session.finish(&rows);
}

/// One experiment binary's invocation: its arguments, validated manifest,
/// and installed observability recorder.
pub struct Session {
    /// The process arguments.
    pub args: Vec<String>,
    /// The validated, normalized manifest built from `args`.
    pub manifest: Manifest,
    obs: ObsFlags,
    collector: Option<Arc<shm_obs::Collector>>,
}

impl Session {
    /// Validates the manifest from the process arguments, sets the pool
    /// size from `manifest.threads`, parses the observability flags and
    /// installs the requested recorders. Exits 2 on any malformed flag.
    #[must_use]
    pub fn start(kind: ExperimentKind) -> Session {
        let args: Vec<String> = std::env::args().collect();
        let manifest = or_exit(manifest_from_args(kind, &args));
        set_threads(manifest.threads.map(|t| t as usize));
        let obs = or_exit(obs_flags(&args));
        let collector = obs_install(&obs);
        Session {
            args,
            manifest,
            obs,
            collector,
        }
    }

    /// Runs the manifest and prints its table with the paper footer.
    #[must_use]
    pub fn run(&self) -> Rows {
        let rows = run::run(&self.manifest);
        print!("{}", rows.table(&self.manifest));
        rows
    }

    /// Drops everything recorded so far, so the sinks cover only what runs
    /// next (E2's `--speedup` re-run).
    pub fn restart_recording(&self) {
        if let Some(c) = &self.collector {
            c.clear();
        }
    }

    /// Writes `--canon`, finishes the observability sinks, and exits 1
    /// after listing the refuted claims on stderr, if any.
    pub fn finish(self, rows: &Rows) {
        write_out(&value_of(&self.args, "--canon"), || rows.canon_json());
        obs_finish(&self.obs, self.collector.as_ref());
        let failures = rows.failures(&self.manifest);
        if !failures.is_empty() {
            eprintln!("\n{} FAILURES:", self.manifest.kind.as_str().to_uppercase());
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Unwraps a flag-parsing result, or prints its structured
/// `cc-dsm/error/v1` JSON diagnostic on stderr and exits 2.
pub fn or_exit<T>(parsed: Result<T, ManifestError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{}", e.to_json());
        std::process::exit(2);
    })
}

/// Sets the process-wide pool size to `threads` when given and returns the
/// effective count.
pub fn set_threads(threads: Option<usize>) -> usize {
    if let Some(n) = threads {
        shm_pool::set_threads(n);
    }
    shm_pool::threads()
}

/// Observability outputs requested on the command line, shared by every
/// `exp_*` binary (one field per flag).
#[derive(Clone, Debug, Default)]
pub struct ObsFlags {
    /// `--metrics <path>`: write the deterministic metrics JSON.
    pub metrics: Option<String>,
    /// `--trace-chrome <path>`: write a Chrome/Perfetto trace.
    pub trace_chrome: Option<String>,
    /// `--trace-jsonl <path>`: write the JSONL event stream.
    pub trace_jsonl: Option<String>,
    /// `--obs-summary`: print deterministic counter totals on stdout.
    pub summary: bool,
    /// `--trace-wall`: include timestamps/lanes/nondeterministic counters
    /// in the JSONL stream — and wall/rate/ETA/RSS fields in the progress
    /// JSONL stream.
    pub wall: bool,
    /// `--progress[=N]`: live stderr progress ticker (and enable frame
    /// collection), emitting every N units where given.
    pub progress: bool,
    /// Cadence override from `--progress=N`.
    pub progress_every: Option<u64>,
    /// `--progress-jsonl <path>`: write the sorted progress-frame JSONL
    /// stream (implies frame collection, without the stderr ticker).
    pub progress_jsonl: Option<String>,
    /// `--profile[=N]`: print the top-N span self-time table on stdout
    /// (default 20).
    pub profile_top: Option<usize>,
    /// `--profile-folded <path>`: write folded stacks for flamegraph
    /// tooling.
    pub profile_folded: Option<String>,
    /// `--profile-json <path>`: write the `shm-obs/profile/v1` JSON.
    pub profile_json: Option<String>,
}

impl ObsFlags {
    /// Whether progress frames were requested in any form.
    #[must_use]
    pub fn progress_on(&self) -> bool {
        self.progress || self.progress_jsonl.is_some()
    }

    /// Whether a sink backed by the span/counter collector was requested.
    /// Progress frames alone deliberately do NOT require one: the progress
    /// sink buffers its own frames, so progress-only runs skip span and
    /// counter recording entirely (the ≤ 2% enabled-overhead budget).
    #[must_use]
    pub fn collector_on(&self) -> bool {
        self.metrics.is_some()
            || self.trace_chrome.is_some()
            || self.trace_jsonl.is_some()
            || self.summary
            || self.profile_on()
    }

    /// Whether a span-time profile was requested in any form.
    #[must_use]
    pub fn profile_on(&self) -> bool {
        self.profile_top.is_some() || self.profile_folded.is_some() || self.profile_json.is_some()
    }
}

/// The optional `=N` payload of a `--flag` / `--flag=N` argument:
/// `None` when the flag is absent, `Some(None)` for the bare form,
/// `Some(Some(n))` with a value; a non-integer `N` is a `bad_type` error.
fn opt_eq_value(args: &[String], flag: &str) -> Result<Option<Option<u64>>, ManifestError> {
    let prefix = format!("{flag}=");
    for a in args {
        if a == flag {
            return Ok(Some(None));
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return v.parse().map(|n| Some(Some(n))).map_err(|_| ManifestError {
                code: "bad_type",
                field: flag.trim_start_matches('-').into(),
                message: format!("{flag}=N takes a non-negative integer (got {v:?})"),
            });
        }
    }
    Ok(None)
}

/// Parses the shared observability flags.
fn obs_flags(args: &[String]) -> Result<ObsFlags, ManifestError> {
    let progress = opt_eq_value(args, "--progress")?;
    let profile = opt_eq_value(args, "--profile")?;
    Ok(ObsFlags {
        metrics: value_of(args, "--metrics"),
        trace_chrome: value_of(args, "--trace-chrome"),
        trace_jsonl: value_of(args, "--trace-jsonl"),
        summary: args.iter().any(|a| a == "--obs-summary"),
        wall: args.iter().any(|a| a == "--trace-wall"),
        progress: progress.is_some(),
        progress_every: progress.flatten(),
        progress_jsonl: value_of(args, "--progress-jsonl"),
        profile_top: profile.map(|n| n.map_or(20, |n| usize::try_from(n).unwrap_or(usize::MAX))),
        profile_folded: value_of(args, "--profile-folded"),
        profile_json: value_of(args, "--profile-json"),
    })
}

/// Installs an `shm-obs` collector when a collector-backed sink was
/// requested; recording stays zero-cost-disabled otherwise. Also installs
/// the progress sink when progress frames were requested — on its own
/// that skips span/counter recording entirely (frames self-buffer), so
/// `--progress` / `--progress-jsonl` cost only the cadence checks.
#[must_use]
fn obs_install(flags: &ObsFlags) -> Option<Arc<shm_obs::Collector>> {
    if flags.progress_on() {
        shm_obs::progress::install(shm_obs::progress::Config {
            every: flags.progress_every,
            ticker: flags.progress,
            wall: flags.wall,
        });
    }
    flags.collector_on().then(|| {
        let c = shm_obs::Collector::new();
        shm_obs::install_collector(&c);
        c
    })
}

/// Writes the requested sinks from the collector installed by
/// [`obs_install`] and uninstalls the recorder. No-op when `collector` is
/// `None`.
fn obs_finish(flags: &ObsFlags, collector: Option<&Arc<shm_obs::Collector>>) {
    // Drain the progress sink before uninstalling the recorder: rendering
    // happens here, so the frame stream is sorted (deterministic order)
    // whatever order workers emitted in. Progress needs no collector.
    let progress_out = shm_obs::progress::finish();
    write_out(&flags.progress_jsonl, || progress_out.unwrap_or_default());
    let Some(c) = collector else { return };
    shm_obs::uninstall();
    let snap = c.snapshot();
    if flags.profile_on() {
        let prof = shm_obs::profile(&snap);
        if let Some(n) = flags.profile_top {
            println!("\nspan self-time profile (top {n}):");
            print!("{}", prof.table(n));
        }
        write_out(&flags.profile_folded, || prof.folded());
        write_out(&flags.profile_json, || prof.to_json());
    }
    let report = shm_obs::MetricsReport::from_snapshot(&snap);
    write_out(&flags.metrics, || report.to_json());
    write_out(&flags.trace_jsonl, || shm_obs::jsonl(&snap, flags.wall));
    write_out(&flags.trace_chrome, || shm_obs::chrome_trace(&snap));
    if flags.summary {
        println!("\nobs summary (deterministic counter totals):");
        for name in report.names() {
            println!("  {:<24} {}", name, report.total(name));
        }
    }
}

/// Writes `text()` to `path` when that output was requested, and says so.
fn write_out(path: &Option<String>, text: impl FnOnce() -> String) {
    if let Some(path) = path {
        std::fs::write(path, text()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
