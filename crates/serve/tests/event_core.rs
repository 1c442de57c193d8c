//! The event-driven serving core: clean shutdown, cached-reply latency,
//! idle exit, the manifest line cap, and restart recovery (a torn job-log
//! tail, stale temporary result files, fatal mid-log corruption), plus
//! replay over a torn tail.
//!
//! The pool thread count is process-global and the server sets it per job,
//! so every test serializes on one mutex (as in `roundtrip.rs`).

use shm_scenario::json::{self, Value};
use shm_serve::{replay, ServeConfig, ServeStats, Server, MAX_LINE_BYTES};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static POOL_LOCK: Mutex<()> = Mutex::new(());

const E5: &str = r#"{"schema":"cc-dsm/manifest/v1","kind":"e5","n":4}"#;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shm-serve-core-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A Unix-socket-only config under `dir` that exits after `max_jobs`.
fn unix_config(dir: &Path, max_jobs: u64) -> ServeConfig {
    ServeConfig {
        results_dir: dir.join("results"),
        joblog: dir.join("JOBLOG.jsonl"),
        unix: Some(dir.join("serve.sock")),
        max_jobs: Some(max_jobs),
        idle_exit_ms: Some(30_000),
        ..ServeConfig::default()
    }
}

fn submit_unix(sock: &Path, manifest: &str) -> (Value, Vec<u8>) {
    let mut stream = UnixStream::connect(sock).expect("connect unix");
    let (header, body) = shm_serve::submit_stream(&mut stream, manifest).expect("submit");
    (json::parse(&header).expect("header parses"), body)
}

fn field<'a>(header: &'a Value, key: &str) -> &'a Value {
    header
        .get(key)
        .unwrap_or_else(|| panic!("header missing {key:?}: {header:?}"))
}

/// Binds `cfg`, runs the server on a thread, submits each manifest in turn
/// over its Unix socket, and returns the replies and the run's stats.
fn serve_unix(cfg: ServeConfig, manifests: &[&str]) -> (Vec<(Value, Vec<u8>)>, ServeStats) {
    let sock = cfg.unix.clone().expect("unix socket configured");
    let server = Server::bind(cfg).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let replies = manifests.iter().map(|m| submit_unix(&sock, m)).collect();
    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);
    (replies, stats)
}

#[test]
fn run_releases_the_tcp_listener_before_returning() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("shutdown");
    let server = Server::bind(ServeConfig {
        results_dir: dir.join("results"),
        joblog: dir.join("JOBLOG.jsonl"),
        tcp: Some("127.0.0.1:0".into()),
        max_jobs: Some(1),
        idle_exit_ms: Some(30_000),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    let (header, _) = shm_serve::submit_stream(&mut stream, E5).expect("submit");
    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);
    assert!(header.contains("\"status\":\"ok\""), "{header}");
    assert_eq!(stats.completed, 1, "{stats:?}");
    // Binding the same address fails while any thread still holds the
    // listener.
    TcpListener::bind(addr).expect("listener released when run() returns");
}

#[test]
fn cached_resubmissions_are_not_paced_by_a_poll_interval() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("latency");
    let cfg = unix_config(&dir, 51);
    let sock = cfg.unix.clone().unwrap();
    let server = Server::bind(cfg).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let (first, body) = submit_unix(&sock, E5);
    assert_eq!(field(&first, "cached"), &Value::Bool(false));
    let t = Instant::now();
    for _ in 0..50 {
        let (h, b) = submit_unix(&sock, E5);
        assert_eq!(field(&h, "cached"), &Value::Bool(true));
        assert_eq!(b, body);
    }
    let elapsed = t.elapsed();
    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);
    assert_eq!((stats.completed, stats.deduped), (1, 50), "{stats:?}");
    // A 5 ms poll sleep per submission alone would take 250 ms.
    assert!(
        elapsed < Duration::from_millis(150),
        "50 cached resubmissions took {elapsed:?}"
    );
}

#[test]
fn idle_exit_counts_submissions_not_connections() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("idle");
    let cfg = ServeConfig {
        max_jobs: None,
        idle_exit_ms: Some(300),
        ..unix_config(&dir, 0)
    };
    let sock = cfg.unix.clone().unwrap();
    let server = Server::bind(cfg).expect("bind");
    // A connection that never sends a line is not a submission: the
    // server still exits on time, without waiting out its read timeout.
    let _silent = UnixStream::connect(&sock).expect("connect unix");
    let t = Instant::now();
    let stats = server.run().expect("server run");
    let elapsed = t.elapsed();
    assert_eq!(stats.processed(), 0, "{stats:?}");
    assert!(
        elapsed >= Duration::from_millis(300) && elapsed < Duration::from_secs(5),
        "idle exit after {elapsed:?}"
    );
}

#[test]
fn oversized_line_gets_an_error_reply_and_the_server_keeps_serving() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("linecap");
    let cfg = unix_config(&dir, 2);
    let sock = cfg.unix.clone().unwrap();
    let joblog = cfg.joblog.clone();
    let server = Server::bind(cfg).expect("bind");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // 2 MiB with no newline. The server stops reading at the cap, so the
    // writer runs on its own thread and fails once the server hangs up.
    const { assert!(MAX_LINE_BYTES >= 1 << 20) };
    let mut stream = UnixStream::connect(&sock).expect("connect unix");
    let mut writer = stream.try_clone().expect("clone stream");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'{'; 2 << 20]);
    });
    let (header, body) = shm_serve::read_reply(&mut stream).expect("error reply");
    flood.join().expect("writer thread");
    let header = json::parse(&header).expect("header parses");
    assert_eq!(field(&header, "status").as_str(), Some("error"));
    let err = field(&header, "error");
    assert_eq!(field(err, "schema").as_str(), Some("cc-dsm/error/v1"));
    assert_eq!(field(err, "code").as_str(), Some("line_too_long"));
    assert!(body.is_empty());

    let (ok, _) = submit_unix(&sock, E5);
    let stats = handle.join().expect("server thread");
    shm_pool::set_threads(0);
    assert_eq!(field(&ok, "status").as_str(), Some("ok"));
    assert_eq!((stats.rejected, stats.completed), (1, 1), "{stats:?}");
    let report = replay(&joblog, None).expect("log with a line_too_long rejection parses");
    shm_pool::set_threads(0);
    assert!(report.clean(), "{report:?}");
}

#[test]
fn restart_recovers_a_torn_log_tail_and_ignores_stale_temp_results() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("restart");
    let (replies, _) = serve_unix(unix_config(&dir, 1), &[E5]);
    let (first, body) = &replies[0];
    let job_id = field(first, "job_id").as_str().unwrap().to_owned();
    let joblog = dir.join("JOBLOG.jsonl");
    let results = dir.join("results");
    let result = results.join(format!("{job_id}.json"));
    let stale = results.join(format!("{job_id}.json.tmp"));

    // A kill mid-append leaves an unterminated final line; a kill mid-write
    // of a result leaves its temporary file.
    let clean_log = std::fs::read_to_string(&joblog).unwrap();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&joblog)
        .unwrap();
    f.write_all(br#"{"schema":"cc-dsm/joblog/v1","event":"subm"#)
        .unwrap();
    std::fs::write(&stale, b"stale partial result").unwrap();

    let (replies, stats) = serve_unix(unix_config(&dir, 1), &[E5]);
    let (cached, cached_body) = &replies[0];
    assert_eq!(field(cached, "cached"), &Value::Bool(true));
    assert_eq!(
        cached_body, body,
        "served the stored result, not the temp file"
    );
    assert_eq!(stats.deduped, 1, "{stats:?}");
    assert_eq!(
        std::fs::read_to_string(&joblog).unwrap(),
        clean_log,
        "torn tail truncated back to the last newline"
    );

    // With the result gone, a temp file is never served: the job re-runs
    // and the rename replaces it.
    std::fs::remove_file(&result).unwrap();
    std::fs::write(&stale, b"stale partial result").unwrap();
    let (replies, stats) = serve_unix(unix_config(&dir, 1), &[E5]);
    assert_eq!(field(&replies[0].0, "cached"), &Value::Bool(false));
    assert_eq!(&replies[0].1, body);
    assert_eq!(stats.completed, 1, "{stats:?}");
    assert!(!stale.exists(), "the completed write renamed its temp file");

    let report = replay(&joblog, Some(&results)).expect("replay");
    shm_pool::set_threads(0);
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.verified, 2, "{report:?}");
}

/// Runs `shm-serve replay` over `joblog` and `results`, returning its exit
/// code, stdout and stderr.
fn replay_cli(joblog: &Path, results: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_shm-serve"))
        .arg("replay")
        .arg("--joblog")
        .arg(joblog)
        .arg("--results")
        .arg(results)
        .output()
        .expect("launch shm-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn replay_skips_a_torn_final_line_without_modifying_the_log() {
    let _guard = POOL_LOCK.lock().unwrap();
    let dir = scratch("replay-torn");
    serve_unix(unix_config(&dir, 1), &[E5]);
    let joblog = dir.join("JOBLOG.jsonl");
    let results = dir.join("results");
    let (code, clean_report, _) = replay_cli(&joblog, &results);
    assert_eq!(code, Some(0), "{clean_report}");

    let mut torn = std::fs::read(&joblog).unwrap();
    torn.extend_from_slice(br#"{"schema":"cc-dsm/joblog/v1","event":"compl"#);
    std::fs::write(&joblog, &torn).unwrap();
    let (code, report, stderr) = replay_cli(&joblog, &results);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        report, clean_report,
        "same report as the log cut at its last newline"
    );
    assert!(stderr.contains("ignoring a torn final line"), "{stderr}");
    assert_eq!(
        std::fs::read(&joblog).unwrap(),
        torn,
        "replay leaves the log as it was"
    );
}

#[test]
fn corruption_before_the_last_line_is_fatal_and_labelled_joblog() {
    let dir = scratch("corrupt");
    let joblog = dir.join("JOBLOG.jsonl");
    std::fs::write(&joblog, "{\"schema\":\"cc-dsm/joblog/v1\",\"ev\n{}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_shm-serve"))
        .args(["run", "--max-jobs", "0", "--joblog"])
        .arg(&joblog)
        .arg("--results")
        .arg(dir.join("results"))
        .output()
        .expect("launch shm-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("shm-serve: joblog: ") && stderr.contains("line 1"),
        "{stderr}"
    );
}
