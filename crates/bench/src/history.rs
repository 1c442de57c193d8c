//! The perf-history ledger: one JSONL record per `exp_all --json` run,
//! appended to `BENCH_history.jsonl`, plus the noise-aware latest-vs-
//! baseline comparison behind the `bench_diff` binary.
//!
//! A record is a flat map of metric name → number, stamped with the git
//! SHA, UTC date, and thread count:
//!
//! ```json
//! {"schema":"cc-dsm/bench-history/v1","git_sha":"334cf0a","utc_date":"2026-08-10",
//!  "threads":4,"metrics":{"wall_ms.exp_e9_explore":878.1,"steps_per_sec.serial":2.1e6}}
//! ```
//!
//! Metric names carry their own improvement direction: `wall_ms.*` is
//! lower-is-better, `*per_sec*` is higher-is-better, everything else is
//! informational (tracked, never gated). The baseline for a metric is the
//! **median of up to the 5 most recent prior records** — one noisy CI run
//! neither trips the gate nor poisons the baseline — and the regression
//! thresholds have both a relative and an absolute guard, so micro-second
//! walls cannot flag on scheduler jitter.

use shm_scenario::json::{self, Value};
use std::collections::BTreeMap;

/// Schema tag written into (and required of) every history record.
pub const SCHEMA: &str = "cc-dsm/bench-history/v1";

/// Relative regression threshold: latest must be ≥ 1.5× worse than
/// baseline to flag.
pub const REL_THRESHOLD: f64 = 1.5;

/// Absolute guard for lower-is-better metrics (milliseconds): a wall-time
/// regression additionally needs ≥ 50 ms of absolute growth.
pub const ABS_GUARD_MS: f64 = 50.0;

/// How many most-recent prior records feed the per-metric median baseline.
pub const BASELINE_WINDOW: usize = 5;

/// One perf-history record (one line of `BENCH_history.jsonl`).
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Short git SHA of the measured tree (`unknown` outside a checkout).
    pub git_sha: String,
    /// UTC calendar date the record was taken (`YYYY-MM-DD`).
    pub utc_date: String,
    /// Pool thread count of the run.
    pub threads: u64,
    /// Flat metric map, e.g. `wall_ms.exp_e9_explore` → 878.1.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Renders the record as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"git_sha\":\"{}\",\"utc_date\":\"{}\",\"threads\":{},\"metrics\":{{",
            self.git_sha, self.utc_date, self.threads
        );
        let mut first = true;
        for (name, v) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{}", fmt_num(*v)));
        }
        out.push_str("}}");
        out
    }
}

/// Formats a metric value: integers stay integral, fractions keep three
/// decimals (matching the precision the walls are measured at).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

// -------------------------------------------------------------- parsing ----

/// Parses one record line; `None` for anything that is not a well-formed
/// record of this schema.
fn parse_record(line: &str) -> Option<Record> {
    let v = json::parse(line).ok()?;
    if v.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    let Value::Obj(fields) = v.get("metrics")? else {
        return None;
    };
    Some(Record {
        git_sha: v.get("git_sha")?.as_str()?.to_string(),
        utc_date: v.get("utc_date")?.as_str()?.to_string(),
        threads: v.get("threads")?.as_u64()?,
        metrics: fields
            .iter()
            .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}

/// Parses a history file's text into records, oldest first. Lines that are
/// blank, carry a different schema, or fail to parse are skipped — the
/// ledger outlives format experiments.
#[must_use]
pub fn parse_records(text: &str) -> Vec<Record> {
    text.lines().filter_map(parse_record).collect()
}

// ------------------------------------------------------------- stamping ----

/// The short git SHA of the working tree: `git rev-parse --short HEAD`,
/// falling back to the `GITHUB_SHA` environment variable, then `unknown`.
#[must_use]
pub fn git_sha() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
    }
    "unknown".to_string()
}

/// `YYYY-MM-DD` for a Unix timestamp (civil-from-days, Howard Hinnant's
/// algorithm — no date dependency).
#[must_use]
pub fn utc_date_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Today's UTC date (`YYYY-MM-DD`).
#[must_use]
pub fn utc_date_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    utc_date_from_unix(secs)
}

// ----------------------------------------------------------------- diff ----

/// Which direction improves a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (wall times).
    LowerIsBetter,
    /// Larger is better (throughputs).
    HigherIsBetter,
    /// Tracked for the trajectory, never gated (counts, byte figures).
    Informational,
}

/// The improvement direction encoded in a metric's name.
#[must_use]
pub fn direction_of(name: &str) -> Direction {
    if name.starts_with("wall_ms.") {
        Direction::LowerIsBetter
    } else if name.contains("per_sec") {
        Direction::HigherIsBetter
    } else {
        Direction::Informational
    }
}

/// One metric's latest-vs-baseline comparison.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Metric name.
    pub name: String,
    /// The latest record's value.
    pub latest: f64,
    /// Median of the metric over the baseline window (`None` when no prior
    /// record carries it).
    pub baseline: Option<f64>,
    /// Signed percent change vs baseline (positive = value grew).
    pub delta_pct: Option<f64>,
    /// Whether the noise-aware threshold flags this as a regression.
    pub regression: bool,
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    })
}

/// The baseline for `name`: median over the up-to-[`BASELINE_WINDOW`] most
/// recent records of `prior` that carry it.
#[must_use]
pub fn baseline_of(prior: &[Record], name: &str) -> Option<f64> {
    let vals: Vec<f64> = prior
        .iter()
        .rev()
        .filter_map(|r| r.metrics.get(name).copied())
        .take(BASELINE_WINDOW)
        .collect();
    median(vals)
}

/// Whether `latest` against `baseline` trips the noise-aware threshold for
/// a metric named `name`.
#[must_use]
pub fn is_regression(name: &str, latest: f64, baseline: f64) -> bool {
    match direction_of(name) {
        Direction::LowerIsBetter => {
            latest > baseline * REL_THRESHOLD && latest > baseline + ABS_GUARD_MS
        }
        Direction::HigherIsBetter => latest * REL_THRESHOLD < baseline,
        Direction::Informational => false,
    }
}

/// Compares `latest` against the records before it, one entry per metric
/// in the latest record (sorted by name, regressions first).
#[must_use]
pub fn diff(latest: &Record, prior: &[Record]) -> Vec<DiffEntry> {
    let mut entries: Vec<DiffEntry> = latest
        .metrics
        .iter()
        .map(|(name, &v)| {
            let baseline = baseline_of(prior, name);
            let delta_pct = baseline.filter(|b| *b != 0.0).map(|b| (v - b) / b * 100.0);
            let regression = baseline.is_some_and(|b| is_regression(name, v, b));
            DiffEntry {
                name: name.clone(),
                latest: v,
                baseline,
                delta_pct,
                regression,
            }
        })
        .collect();
    entries.sort_by(|a, b| b.regression.cmp(&a.regression).then(a.name.cmp(&b.name)));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sha: &str, metrics: &[(&str, f64)]) -> Record {
        Record {
            git_sha: sha.to_string(),
            utc_date: "2026-08-10".to_string(),
            threads: 4,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let r = rec(
            "abc1234",
            &[
                ("wall_ms.exp_e9_explore", 878.125),
                ("steps_per_sec.serial", 2_100_000.0),
                ("e9.spilled_bytes", 0.0),
            ],
        );
        let line = r.to_line();
        assert!(line.contains("\"schema\":\"cc-dsm/bench-history/v1\""));
        let parsed = parse_records(&line);
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn parser_skips_blank_foreign_and_broken_lines() {
        let text = format!(
            "\n{{\"schema\":\"other/v9\",\"git_sha\":\"x\"}}\nnot json\n{}\n",
            rec("aaa", &[("wall_ms.total", 10.0)]).to_line()
        );
        let recs = parse_records(&text);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].git_sha, "aaa");
    }

    #[test]
    fn civil_date_conversion_is_exact() {
        assert_eq!(utc_date_from_unix(0), "1970-01-01");
        assert_eq!(utc_date_from_unix(86_399), "1970-01-01");
        assert_eq!(utc_date_from_unix(86_400), "1970-01-02");
        // 2026-08-10 00:00:00 UTC.
        assert_eq!(utc_date_from_unix(1_786_320_000), "2026-08-10");
        // Leap day.
        assert_eq!(utc_date_from_unix(1_709_164_800), "2024-02-29");
    }

    #[test]
    fn directions_come_from_names() {
        assert_eq!(
            direction_of("wall_ms.exp_e9_explore"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_of("wall_ms.total"), Direction::LowerIsBetter);
        assert_eq!(
            direction_of("steps_per_sec.serial"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("explore_states_per_sec.threaded_spill"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("e9.peak_visited_bytes"),
            Direction::Informational
        );
        assert_eq!(
            direction_of("spill_tax_pct.serial"),
            Direction::Informational
        );
    }

    #[test]
    fn wall_regression_needs_both_relative_and_absolute_growth() {
        // 2× growth but under the 50 ms absolute guard: not a regression.
        assert!(!is_regression("wall_ms.fast", 40.0, 20.0));
        // Above the guard but under 1.5×: not a regression.
        assert!(!is_regression("wall_ms.slow", 1400.0, 1000.0));
        // 2× and +500 ms: regression.
        assert!(is_regression("wall_ms.slow", 2000.0, 1000.0));
        // Exactly at the relative threshold: strict >, so not flagged.
        assert!(!is_regression("wall_ms.slow", 1500.0, 1000.0));
    }

    #[test]
    fn throughput_regression_is_relative_only() {
        assert!(is_regression(
            "steps_per_sec.serial",
            600_000.0,
            1_000_000.0
        ));
        assert!(!is_regression(
            "steps_per_sec.serial",
            700_000.0,
            1_000_000.0
        ));
        // Informational metrics never flag, whatever the swing.
        assert!(!is_regression("e9.spilled_bytes", 1e9, 1.0));
    }

    #[test]
    fn baseline_is_median_of_recent_window() {
        let prior: Vec<Record> = [100.0, 100.0, 9_999.0, 100.0, 110.0, 120.0]
            .iter()
            .enumerate()
            .map(|(i, v)| rec(&format!("r{i}"), &[("wall_ms.total", *v)]))
            .collect();
        // Window of 5 most recent: [100, 9999, 100, 110, 120] → median 110;
        // the single outlier does not poison the baseline.
        assert_eq!(baseline_of(&prior, "wall_ms.total"), Some(110.0));
        assert_eq!(baseline_of(&prior, "absent.metric"), None);
        assert_eq!(baseline_of(&[], "wall_ms.total"), None);
    }

    #[test]
    fn diff_flags_synthetic_2x_wall_regression_and_sorts_it_first() {
        let prior = vec![rec(
            "base",
            &[
                ("wall_ms.exp_e9_explore", 800.0),
                ("steps_per_sec.serial", 1e6),
            ],
        )];
        let latest = rec(
            "head",
            &[
                ("wall_ms.exp_e9_explore", 1600.0),
                ("steps_per_sec.serial", 1.05e6),
                ("new.metric", 7.0),
            ],
        );
        let d = diff(&latest, &prior);
        assert_eq!(d[0].name, "wall_ms.exp_e9_explore");
        assert!(d[0].regression);
        assert_eq!(d[0].baseline, Some(800.0));
        assert!((d[0].delta_pct.unwrap() - 100.0).abs() < 1e-9);
        assert!(d[1..].iter().all(|e| !e.regression));
        // A metric with no history has no baseline and cannot regress.
        let new = d.iter().find(|e| e.name == "new.metric").unwrap();
        assert!(new.baseline.is_none() && !new.regression);
    }

    #[test]
    fn parser_accepts_any_json_layout_of_a_record() {
        let text = concat!(
            "{ \"metrics\": {\"wall_ms.total\": 12.5, \"steps_per_sec.serial\": 2.1e6},\n",
            "  \"threads\": 4, \"utc_date\": \"2026-08-10\", \"git_sha\": \"abc1234\",\n",
            "  \"schema\": \"cc-dsm/bench-history/v1\" }"
        );
        assert!(parse_records(text).is_empty(), "records are one per line");
        let parsed = parse_records(&text.replace('\n', " "));
        assert_eq!(
            parsed,
            vec![rec(
                "abc1234",
                &[
                    ("wall_ms.total", 12.5),
                    ("steps_per_sec.serial", 2_100_000.0)
                ]
            )]
        );
    }
}
