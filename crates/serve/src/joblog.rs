//! The append-only record/replay job log (`cc-dsm/joblog/v1`).
//!
//! Every external input the server acts on lands here as one JSON line:
//! accepted manifests (`submitted`, with the full canonical manifest
//! embedded), their outcomes (`completed` with the result's content hash,
//! `failed` with the panic message), and invalid submissions (`rejected`
//! with the structured error). That discipline is what makes the server
//! replayable: `shm-serve replay` re-executes every completed job from the
//! log alone and asserts the recomputed result bytes hash to the recorded
//! `result_sha` — and it doubles as restart-safe idempotency, because a
//! restarting server rebuilds its completed-jobs map by scanning the log.
//!
//! `wall_ms` on `completed` events is wall-clock telemetry, NOT part of the
//! determinism contract; replay compares `result_sha`, `result_bytes`, and
//! `rows` only.
//!
//! **Durability policy.** Appends are not fsynced: a disk flush per event
//! would sit on every fresh job's reply path. Each event is one `write` of
//! its line plus `\n`, so a crash or kill can leave at most the final line
//! unterminated. An event counts only once its newline is in the file:
//! [`JobLog::open`] truncates an unterminated final line back to the last
//! `\n`, so its event never happened (a job whose `completed` line was
//! torn simply re-runs), and [`read_all`] (behind `shm-serve replay`)
//! skips it without touching the file. A malformed *terminated* line
//! anywhere in the log stays fatal.

use shm_scenario::json::{self, Value};
use shm_scenario::{Manifest, ManifestError};
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Schema tag every v1 job-log line carries.
pub const JOBLOG_SCHEMA: &str = "cc-dsm/joblog/v1";

/// One job-log event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A new manifest was accepted and queued.
    Submitted {
        /// Content hash of the canonical manifest (the job ID).
        job_id: String,
        /// Where it came from (`"spool"`, `"socket"`, `"cli"`).
        source: String,
        /// The normalized manifest, embedded in full so replay needs
        /// nothing but the log (boxed: it dwarfs the other variants).
        manifest: Box<Manifest>,
    },
    /// A job ran to completion and its result was written.
    Completed {
        /// The job ID.
        job_id: String,
        /// Content hash of the canonical result bytes.
        result_sha: String,
        /// Result length in bytes.
        result_bytes: u64,
        /// Number of result rows.
        rows: u64,
        /// Wall-clock milliseconds (telemetry only — not replayed).
        wall_ms: f64,
    },
    /// A job panicked; the server survived and recorded why.
    Failed {
        /// The job ID.
        job_id: String,
        /// The panic payload, as text.
        error: String,
    },
    /// A submission failed validation and was never assigned a job ID.
    Rejected {
        /// Where it came from.
        source: String,
        /// The structured validation error.
        error: ManifestError,
    },
}

impl Event {
    /// Renders the event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        match self {
            Event::Submitted {
                job_id,
                source,
                manifest,
            } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"submitted\",\"job_id\":\"{job_id}\",\"source\":\"{}\",\"manifest\":{}}}",
                json::escape(source),
                manifest.canonical_json(),
            ),
            Event::Completed {
                job_id,
                result_sha,
                result_bytes,
                rows,
                wall_ms,
            } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"completed\",\"job_id\":\"{job_id}\",\"result_sha\":\"{result_sha}\",\"result_bytes\":{result_bytes},\"rows\":{rows},\"wall_ms\":{wall_ms:.3}}}",
            ),
            Event::Failed { job_id, error } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"failed\",\"job_id\":\"{job_id}\",\"error\":\"{}\"}}",
                json::escape(error),
            ),
            Event::Rejected { source, error } => format!(
                "{{\"schema\":\"{JOBLOG_SCHEMA}\",\"event\":\"rejected\",\"source\":\"{}\",\"error\":{}}}",
                json::escape(source),
                error.to_json(),
            ),
        }
    }

    /// Parses one job-log line. `Err` carries a description; callers decide
    /// whether a malformed log is fatal (replay: yes; startup scan: yes —
    /// an append-only log this process also writes must parse).
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let v = json::parse(line).map_err(|e| format!("bad joblog line: {e}"))?;
        if v.get("schema").and_then(Value::as_str) != Some(JOBLOG_SCHEMA) {
            return Err(format!("bad joblog schema in line {line:?}"));
        }
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("joblog line missing \"{k}\": {line:?}"))
        };
        let num = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("joblog line missing \"{k}\": {line:?}"))
        };
        match field("event")?.as_str() {
            "submitted" => {
                let manifest = v
                    .get("manifest")
                    .ok_or_else(|| format!("submitted line missing manifest: {line:?}"))?;
                let manifest = Manifest::from_value(manifest)
                    .map_err(|e| format!("submitted line has invalid manifest: {e}"))?;
                Ok(Event::Submitted {
                    job_id: field("job_id")?,
                    source: field("source")?,
                    manifest: Box::new(manifest),
                })
            }
            "completed" => Ok(Event::Completed {
                job_id: field("job_id")?,
                result_sha: field("result_sha")?,
                result_bytes: num("result_bytes")?,
                rows: num("rows")?,
                wall_ms: v
                    .get("wall_ms")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("completed line missing wall_ms: {line:?}"))?,
            }),
            "failed" => Ok(Event::Failed {
                job_id: field("job_id")?,
                error: field("error")?,
            }),
            "rejected" => {
                let e = v
                    .get("error")
                    .ok_or_else(|| format!("rejected line missing error: {line:?}"))?;
                let code = e.get("code").and_then(Value::as_str).unwrap_or("unknown");
                // Codes are a closed set of static strings; map back to the
                // static str (or a generic bucket for forward compatibility).
                const CODES: [&str; 13] = [
                    "bad_json",
                    "bad_schema",
                    "bad_type",
                    "unknown_kind",
                    "unknown_field",
                    "empty_sizes",
                    "duplicate_size",
                    "size_out_of_range",
                    "field_out_of_range",
                    "unsupported_field",
                    "conflicting_fields",
                    "bad_enum",
                    "line_too_long",
                ];
                let code = CODES
                    .iter()
                    .find(|&&c| c == code)
                    .copied()
                    .unwrap_or("unknown");
                Ok(Event::Rejected {
                    source: field("source")?,
                    error: ManifestError {
                        code,
                        field: e
                            .get("field")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                        message: e
                            .get("message")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    },
                })
            }
            other => Err(format!("unknown joblog event {other:?}")),
        }
    }
}

/// The job log, open for appending. The server opens it once, at startup
/// (or at its first event, when no log exists yet, so a fresh server
/// creates no file before it listens), and writes every event through
/// this one handle.
#[derive(Debug)]
pub struct JobLog {
    path: PathBuf,
    file: Option<File>,
}

impl JobLog {
    /// Opens the log at `path` and returns it with the events it already
    /// holds (none if it does not exist). An unterminated final line — a
    /// torn append — is truncated away and reported on stderr; any other
    /// malformed line is an error.
    pub fn open(path: &Path) -> Result<(JobLog, Vec<Event>), String> {
        let mut log = JobLog {
            path: path.to_owned(),
            file: None,
        };
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
        {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((log, Vec::new())),
            Err(e) => return Err(format!("open {}: {e}", path.display())),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let keep = terminated_len(&bytes);
        if keep < bytes.len() {
            file.set_len(keep as u64)
                .map_err(|e| format!("truncate {}: {e}", path.display()))?;
            eprintln!(
                "shm-serve: joblog: truncated a torn final line ({} bytes) of {}",
                bytes.len() - keep,
                path.display(),
            );
        }
        log.file = Some(file);
        Ok((log, parse_lines(path, &bytes[..keep])?))
    }

    /// Appends one event as a single write of its line and newline.
    pub fn append(&mut self, event: &Event) -> std::io::Result<()> {
        let file = match &mut self.file {
            Some(f) => f,
            None => self.file.insert(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            ),
        };
        let mut line = event.to_line();
        line.push('\n');
        file.write_all(line.as_bytes())
    }
}

/// Parses every terminated line of a job log without modifying it: an
/// unterminated final line (a torn append, which [`JobLog::open`] would
/// truncate) is skipped with a stderr note. Empty/missing file parses to
/// no events.
pub fn read_all(path: &Path) -> Result<Vec<Event>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let keep = terminated_len(&bytes);
    if keep < bytes.len() {
        eprintln!(
            "shm-serve: joblog: ignoring a torn final line ({} bytes) of {}",
            bytes.len() - keep,
            path.display(),
        );
    }
    parse_lines(path, &bytes[..keep])
}

/// Length of `bytes` up to and including its last `\n`: the part of a log
/// whose events were fully appended.
fn terminated_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

fn parse_lines(path: &Path, bytes: &[u8]) -> Result<Vec<Event>, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| format!("{}: not UTF-8: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            Event::parse_line(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shm_scenario::ExperimentKind;

    #[test]
    fn events_round_trip_through_lines() {
        let manifest = Manifest::new(ExperimentKind::E9).normalized().unwrap();
        let events = [
            Event::Submitted {
                job_id: manifest.job_id(),
                source: "socket".into(),
                manifest: Box::new(manifest.clone()),
            },
            Event::Completed {
                job_id: manifest.job_id(),
                result_sha: "ab".repeat(16),
                result_bytes: 123,
                rows: 4,
                wall_ms: 1.5,
            },
            Event::Failed {
                job_id: manifest.job_id(),
                error: "panicked: \"boom\"".into(),
            },
            Event::Rejected {
                source: "spool".into(),
                error: ManifestError {
                    code: "duplicate_size",
                    field: "sizes".into(),
                    message: "size 32 appears more than once".into(),
                },
            },
        ];
        for e in &events {
            let line = e.to_line();
            let back = Event::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line, "round trip differs for {line}");
        }
    }

    fn rejected() -> Event {
        Event::Rejected {
            source: "tcp".into(),
            error: ManifestError {
                code: "line_too_long",
                field: String::new(),
                message: "too long".into(),
            },
        }
    }

    #[test]
    fn open_truncates_only_a_torn_final_line() {
        let path = std::env::temp_dir().join(format!("joblog-torn-{}.jsonl", std::process::id()));
        let line = rejected().to_line();
        let whole = format!("{line}\n{line}\n");
        let torn = format!("{whole}{}", &line[..20]);
        std::fs::write(&path, &torn).unwrap();
        assert_eq!(read_all(&path).expect("torn tail skipped").len(), 2);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            torn,
            "read_all writes nothing"
        );
        let (mut log, events) = JobLog::open(&path).expect("torn tail recovers");
        assert_eq!(events.len(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
        log.append(&rejected()).unwrap();
        assert_eq!(read_all(&path).unwrap().len(), 3);

        // A malformed terminated line is corruption, not a torn append.
        std::fs::write(&path, format!("{}\n{whole}", &line[..20])).unwrap();
        let err = JobLog::open(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = read_all(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
