//! The one experiment entry path: every `exp_*` binary's `--canon` file is
//! byte-identical to `bench::run::run_manifest` for the same flags, and
//! malformed flags exit 2 with a structured diagnostic instead of
//! panicking.

use shm_scenario::cli::manifest_from_args;
use shm_scenario::json::{self, Value};
use shm_scenario::ALL_KINDS;
use std::process::{Command, Output};

/// Each kind's binary, in `ALL_KINDS` order, with flags that keep it short.
const CASES: [(&str, &str); 10] = [
    (env!("CARGO_BIN_EXE_exp_e1_cc_upper"), "--sizes 4,8"),
    (
        env!("CARGO_BIN_EXE_exp_e2_dsm_lower"),
        "--sizes 4,6 --audit",
    ),
    (
        env!("CARGO_BIN_EXE_exp_e3_variants"),
        "--waiters 4 --polls 3",
    ),
    (env!("CARGO_BIN_EXE_exp_e4_primitives"), "--sizes 4,8"),
    (env!("CARGO_BIN_EXE_exp_e5_messages"), "--n 4"),
    (env!("CARGO_BIN_EXE_exp_e6_mutex"), "--sizes 2,3 --cycles 2"),
    (env!("CARGO_BIN_EXE_exp_e7_fixed_w"), "--sizes 2,4"),
    (
        env!("CARGO_BIN_EXE_exp_e8_transformation"),
        "--sizes 4,6 --audit",
    ),
    (
        env!("CARGO_BIN_EXE_exp_e9_explore"),
        "--waiters 2 --max-polls 1 --model dsm",
    ),
    (
        env!("CARGO_BIN_EXE_exp_e10_pct"),
        "--sizes 3 --seed 7 --algorithm seeded-buggy",
    ),
];

fn run_bin(bin: &str, args: &[String]) -> Output {
    Command::new(bin)
        .args(args)
        .env("CC_DSM_THREADS", "2")
        .output()
        .unwrap_or_else(|e| panic!("launch {bin}: {e}"))
}

#[test]
fn every_binary_canon_equals_run_manifest() {
    for (kind, (bin, flags)) in ALL_KINDS.into_iter().zip(CASES) {
        let name = kind.as_str();
        let path = std::env::temp_dir().join(format!("cc-dsm-{}-{name}.json", std::process::id()));
        let mut args: Vec<String> = flags.split_whitespace().map(str::to_owned).collect();
        args.extend(["--canon".to_string(), path.display().to_string()]);
        let out = run_bin(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name} {flags} failed: {stderr}");
        let written = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name} wrote no --canon file: {e}"));
        let _ = std::fs::remove_file(&path);
        let manifest = manifest_from_args(kind, &args).expect("valid flags");
        assert_eq!(written, bench::run::run_manifest(&manifest), "{name}");
    }
}

#[test]
fn malformed_obs_flags_exit_2_with_structured_error() {
    for (flag, field) in [("--progress=abc", "progress"), ("--profile=abc", "profile")] {
        let out = run_bin(CASES[4].0, &["--n".into(), "4".into(), flag.into()]);
        assert_eq!(out.status.code(), Some(2), "{flag} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let err = json::parse(stderr.trim()).unwrap_or_else(|e| panic!("{stderr}: {e}"));
        let get = |key| err.get(key).and_then(Value::as_str);
        assert_eq!(get("schema"), Some("cc-dsm/error/v1"));
        assert_eq!((get("code"), get("field")), (Some("bad_type"), Some(field)));
    }
}

#[test]
fn both_escapers_round_trip_control_characters() {
    let s = "tab\there, line\nbreak, \u{1}, \"quoted\" \\ é";
    for escaped in [shm_obs::json::escape(s), shm_scenario::json::escape(s)] {
        for needle in ["\\n", "\\t", "\\u0001"] {
            assert!(escaped.contains(needle), "{escaped} lacks {needle}");
        }
        let back = json::parse(&format!("\"{escaped}\"")).expect("valid JSON string");
        assert_eq!(back.as_str(), Some(s));
    }
}
