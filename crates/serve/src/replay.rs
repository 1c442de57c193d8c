//! Replay verification: re-execute the job log and assert byte-identity.
//!
//! The job log embeds every accepted manifest in canonical form, and the
//! experiments are deterministic functions of their manifests (canonical
//! output is thread-count invariant), so the log alone suffices to
//! reproduce every completed result. Replay re-runs each completed job at
//! its recorded thread count and checks three things against the recorded
//! completion: the result's content hash, its byte length, and its row
//! count — and, when the results directory is still around, byte-compares
//! the stored file too. `wall_ms` is deliberately not compared (it is
//! telemetry, not part of the contract).

use crate::joblog::{self, Event};
use shm_scenario::json::escape;
use shm_scenario::Manifest;
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of the replay report.
pub const REPLAY_SCHEMA: &str = "cc-dsm/replay/v1";

/// Outcome of replaying one job log.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Completed jobs found in the log.
    pub jobs: u64,
    /// Jobs whose re-execution matched the recorded hash/length/rows (and
    /// the stored result file, when present).
    pub verified: u64,
    /// Human-readable descriptions of every mismatch.
    pub mismatches: Vec<String>,
    /// Completed events with no matching submitted manifest (a truncated
    /// or hand-edited log).
    pub orphans: u64,
}

impl ReplayReport {
    /// Whether every completed job reproduced byte-for-byte.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty() && self.orphans == 0
    }

    /// Renders the report as `cc-dsm/replay/v1` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{REPLAY_SCHEMA}\",\"jobs\":{},\"verified\":{},\"orphans\":{},\"clean\":{},\"mismatches\":[",
            self.jobs,
            self.verified,
            self.orphans,
            self.clean(),
        );
        for (i, m) in self.mismatches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(m));
            out.push('"');
        }
        out.push_str("]}\n");
        out
    }
}

/// Replays every completed job in `joblog`, asserting byte-identity.
/// `results_dir`, when given and present, adds a byte-compare against the
/// stored `<job_id>.json` files (never a leftover `<job_id>.json.tmp`).
/// Errors only on an unreadable/unparseable log; mismatches land in the
/// report.
pub fn replay(joblog_path: &Path, results_dir: Option<&Path>) -> Result<ReplayReport, String> {
    let events = joblog::read_all(joblog_path)?;
    let mut manifests: BTreeMap<String, Manifest> = BTreeMap::new();
    let mut report = ReplayReport::default();
    for ev in &events {
        match ev {
            Event::Submitted {
                job_id, manifest, ..
            } => {
                manifests.insert(job_id.clone(), (**manifest).clone());
            }
            Event::Completed {
                job_id,
                result_sha,
                result_bytes,
                rows,
                ..
            } => {
                report.jobs += 1;
                let Some(manifest) = manifests.get(job_id) else {
                    report.orphans += 1;
                    report
                        .mismatches
                        .push(format!("{job_id}: completed with no submitted manifest"));
                    continue;
                };
                shm_pool::set_threads(manifest.effective_threads());
                let body = bench::run::run_manifest(manifest).into_bytes();
                let sha = shm_scenario::content_hash(&body);
                let mut ok = true;
                if &sha != result_sha {
                    ok = false;
                    report.mismatches.push(format!(
                        "{job_id} ({}): result_sha {result_sha} recorded, {sha} replayed",
                        manifest.kind.as_str(),
                    ));
                }
                if body.len() as u64 != *result_bytes {
                    ok = false;
                    report.mismatches.push(format!(
                        "{job_id} ({}): result_bytes {result_bytes} recorded, {} replayed",
                        manifest.kind.as_str(),
                        body.len(),
                    ));
                }
                let replayed_rows = crate::server_row_count(&body);
                if replayed_rows != *rows {
                    ok = false;
                    report.mismatches.push(format!(
                        "{job_id} ({}): rows {rows} recorded, {replayed_rows} replayed",
                        manifest.kind.as_str(),
                    ));
                }
                if let Some(dir) = results_dir {
                    let path = crate::server::result_path(dir, job_id);
                    if let Ok(stored) = std::fs::read(&path) {
                        if stored != body {
                            ok = false;
                            report.mismatches.push(format!(
                                "{job_id} ({}): stored {} differs from replayed bytes",
                                manifest.kind.as_str(),
                                path.display(),
                            ));
                        }
                    }
                }
                if ok {
                    report.verified += 1;
                }
            }
            Event::Failed { .. } | Event::Rejected { .. } => {}
        }
    }
    Ok(report)
}
