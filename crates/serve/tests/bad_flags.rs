//! Malformed numeric flags of `shm-serve run` exit 2 with a structured
//! `cc-dsm/error/v1` diagnostic instead of panicking.

use shm_scenario::json::{self, Value};
use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_2_with_structured_error() {
    for (flag, field) in [
        ("--max-jobs", "max_jobs"),
        ("--idle-exit-ms", "idle_exit_ms"),
        ("--poll-ms", "poll_ms"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_shm-serve"))
            .args(["run", flag, "abc"])
            .output()
            .expect("launch shm-serve");
        assert_eq!(out.status.code(), Some(2), "{flag} abc must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let err = json::parse(stderr.trim()).unwrap_or_else(|e| panic!("{stderr}: {e}"));
        let get = |key| err.get(key).and_then(Value::as_str);
        assert_eq!(get("schema"), Some("cc-dsm/error/v1"));
        assert_eq!((get("code"), get("field")), (Some("bad_type"), Some(field)));
    }
}
