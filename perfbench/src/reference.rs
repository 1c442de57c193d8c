//! Reference result hashes, recorded at one pool thread by
//! `perfbench --write-reference` and compiled into the benchmark.

use crate::workload;
use shm_scenario::{content_hash, Manifest};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const RECORDED: &str = include_str!("../reference.txt");

/// Reference key → expected content hash of the canonical result bytes.
pub struct References(BTreeMap<String, String>);

impl References {
    pub fn load() -> References {
        References(
            RECORDED
                .lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .map(|l| {
                    let mut cols = l.split_whitespace();
                    let key = cols.next().expect("reference line has a key");
                    let sha = cols.next().expect("reference line has a hash");
                    (key.to_owned(), sha.to_owned())
                })
                .collect(),
        )
    }

    /// Whether `body` is the recorded result of manifest `m`.
    pub fn matches(&self, m: &Manifest, body: &[u8]) -> bool {
        self.expected(m)
            .is_some_and(|sha| sha == content_hash(body))
    }

    pub fn expected(&self, m: &Manifest) -> Option<&str> {
        self.0.get(&workload::reference_key(m)).map(String::as_str)
    }
}

/// Runs every manifest any workload can send at one pool thread and renders
/// the reference file.
pub fn render() -> String {
    shm_pool::set_threads(1);
    let mut texts = workload::all_batch_manifests();
    texts.extend(workload::serve_pool());
    let mut lines = BTreeMap::new();
    for text in texts {
        let m = Manifest::from_json(&text).expect("workload manifests are valid");
        let t = std::time::Instant::now();
        let body = bench::run::run_manifest(&m);
        eprintln!("{:>9.1} ms  {text}", t.elapsed().as_secs_f64() * 1e3);
        lines.insert(
            workload::reference_key(&m),
            (content_hash(body.as_bytes()), text),
        );
    }
    let mut out = String::from(
        "# Reference results: <key> <content hash of canonical result bytes> <manifest>\n\
         # key = job ID of the manifest with `threads` cleared. Recorded at threads=1\n\
         # by `perfbench --write-reference perfbench/reference.txt`.\n",
    );
    for (key, (sha, text)) in lines {
        writeln!(out, "{key} {sha} {text}").expect("write to String");
    }
    out
}
