//! The `serve` workload: a fresh `shm-serve run` on a Unix socket, fed an
//! open-loop seeded stream over at most two connections, one second at a
//! time; after each second, a timed closed-loop pass over a fixed manifest
//! set on a second server.

use crate::probe;
use crate::reference::References;
use crate::stats::{median, tail};
use crate::workload::{self, Class, Request};
use crate::{Outcome, SETUP_STARTS};
use shm_scenario::json::{self, Value};
use shm_scenario::{content_hash, Manifest};
use shm_serve::joblog::{self, Event};
use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections (and so requests in flight) at most.
pub const CONNECTIONS: usize = 2;
/// A reply slower than this counts as a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Share of the run given to the open-loop stream; the rest times passes.
const STREAM_SHARE: f64 = 2.0 / 3.0;
/// Stream requests between two timed passes: one second of the stream.
const ROUND: usize = workload::SERVE_RATE as usize;

/// A running server, killed and reaped when dropped.
struct ServerProc {
    child: Child,
    dir: PathBuf,
}

impl ServerProc {
    /// Starts `shm-serve run` in an empty `dir` and returns it with the
    /// seconds from spawn until its socket accepts a connection.
    fn start(bin: &Path, dir: PathBuf) -> (ServerProc, f64) {
        std::fs::create_dir_all(&dir).expect("create server directory");
        let t = Instant::now();
        let child = Command::new(bin)
            .args([
                "run",
                "--unix",
                "sock",
                "--results",
                "results",
                "--joblog",
                "joblog.jsonl",
            ])
            .current_dir(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        let server = ServerProc { child, dir };
        let sock = server.dir.join("sock");
        // Short sleeps between attempts leave the CPU to the starting
        // server; they are small next to the millisecond a start takes.
        while UnixStream::connect(&sock).is_err() {
            assert!(
                t.elapsed() < Duration::from_secs(30),
                "shm-serve did not start"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
        (server, t.elapsed().as_secs_f64())
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts a server in a new directory, recording its start time.
fn timed_start(bin: &Path, tmp: &Path, setups: &mut Vec<f64>) -> ServerProc {
    let (s, secs) = ServerProc::start(bin, tmp.join(format!("serve{}", setups.len())));
    setups.push(secs);
    s
}

/// [`SETUP_STARTS`] timed starts of servers that are stopped at once.
fn setup_probes(bin: &Path, tmp: &Path, setups: &mut Vec<f64>) {
    for _ in 0..SETUP_STARTS {
        let mut s = timed_start(bin, tmp, setups);
        s.stop();
        let _ = std::fs::remove_dir_all(&s.dir);
    }
}

/// What the generator saw for one request.
#[derive(Clone, Default)]
struct Seen {
    late_ms: f64,
    latency_ms: f64,
    service_ms: f64,
    cached: bool,
    /// A resubmission sent before its source was answered: the server may
    /// then run it again, so either reply is correct.
    early: bool,
    job_id: String,
    correct: bool,
}

pub fn run(bin: &Path, tmp: &Path, seed: u64, seconds: f64) -> Outcome {
    let refs = References::load();
    let n = workload::serve_requests(seconds * STREAM_SHARE);
    let stream = workload::serve_stream(seed, n);
    // The generator parses each manifest it sends to know the job it
    // expects back (timed: the scenario layer's parse, normalize, job ID).
    let mut parse_us = Vec::new();
    let expected: Vec<Option<(String, String)>> = stream
        .iter()
        .map(|r| {
            let t = Instant::now();
            let m = Manifest::from_json(&r.text).ok().map(|m| (m.job_id(), m));
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            m.map(|(id, m)| (id, refs.expected(&m).unwrap_or("missing").to_owned()))
        })
        .collect();

    // Server starts timed for `setup_s`: before the stream and after
    // every pass, so they sample the host's speed over the whole run.
    let mut setups = Vec::new();
    setup_probes(bin, tmp, &mut setups);
    let mut server = timed_start(bin, tmp, &mut setups);
    let sock = server.dir.join("sock");
    let mut passes = Passes::new(bin, tmp.join("passes"), &refs);
    // Warm-up, untimed.
    passes.run();
    passes.walls.clear();

    let interval = Duration::from_secs_f64(1.0 / workload::SERVE_RATE);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let seen: Mutex<Vec<Seen>> = Mutex::new(vec![Seen::default(); n]);
    let answered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut stream_s = 0.0;
    for lo in (0..n).step_by(ROUND) {
        let hi = (lo + ROUND).min(n);
        let next = AtomicUsize::new(lo);
        let start = Instant::now() + Duration::from_millis(20);
        let last_reply = Mutex::new(start);
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= hi {
                        break;
                    }
                    let due = start + interval * (i - lo) as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let early = stream[i]
                        .source
                        .is_some_and(|src| !answered[src].load(Ordering::SeqCst));
                    let sent = Instant::now();
                    let now_in = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_in_flight.fetch_max(now_in, Ordering::SeqCst);
                    let reply = submit(&sock, &stream[i].text);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    let done = Instant::now();
                    let mut last = last_reply.lock().expect("generator thread panicked");
                    *last = (*last).max(done);
                    drop(last);
                    let mut v = judge(&stream[i], expected[i].as_ref(), reply, early);
                    answered[i].store(v.correct, Ordering::SeqCst);
                    v.late_ms = ms(sent - due);
                    v.latency_ms = ms(done - due);
                    v.service_ms = ms(done - sent);
                    seen.lock().expect("generator thread panicked")[i] = v;
                });
            }
        });
        stream_s += (*last_reply.lock().expect("generator finished") - start).as_secs_f64();
        passes.run();
        setup_probes(bin, tmp, &mut setups);
    }
    let server_rss = probe::peak_rss_mb(Some(server.child.id()));
    server.stop();
    passes.server.stop();
    let seen = seen.into_inner().expect("generator finished");

    let mut attempted = n as u64 + 1 + passes.attempted;
    let mut failed = seen.iter().filter(|v| !v.correct).count() as u64 + passes.failed;
    for (i, v) in seen.iter().enumerate() {
        if !v.correct {
            eprintln!("perfbench: FAILED serve request {i}: {}", stream[i].text);
        }
    }
    let joblog_path = server.dir.join("joblog.jsonl");
    let results_dir = server.dir.join("results");
    if !replay_clean(bin, &server.dir) {
        failed += 1;
        eprintln!("perfbench: FAILED shm-serve replay of the job log");
    }
    let exec_ms: BTreeMap<String, f64> = joblog::read_all(&joblog_path)
        .unwrap_or_else(|e| {
            attempted += 1;
            failed += 1;
            eprintln!("perfbench: FAILED reading the job log: {e}");
            Vec::new()
        })
        .into_iter()
        .filter_map(|e| match e {
            Event::Completed {
                job_id, wall_ms, ..
            } => Some((job_id, wall_ms)),
            _ => None,
        })
        .collect();

    // Latencies are classed by what the generator sent, not by the reply.
    let class = |c: Class| -> Vec<&Seen> {
        seen.iter()
            .zip(&stream)
            .filter(|(v, r)| r.class == c && v.correct)
            .map(|(v, _)| v)
            .collect()
    };
    let (fresh, cached) = (class(Class::Fresh), class(Class::Cached));
    for (name, set) in [("fresh", &fresh), ("cached", &cached)] {
        attempted += 1;
        if set.is_empty() {
            failed += 1;
            eprintln!("perfbench: FAILED no correct {name} reply to time");
        }
    }
    let lat = |v: &[&Seen]| v.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
    let busy_s = exec_ms.values().sum::<f64>() / 1e3;
    let mut o = Outcome::new(attempted, failed);
    o.note(format!(
        "{n} requests at {} /s over {CONNECTIONS} connections: {} fresh, {} resubmitted ({} before their source was answered), {} refused",
        workload::SERVE_RATE,
        fresh.len(),
        cached.len(),
        seen.iter().filter(|v| v.early).count(),
        stream.iter().filter(|r| r.expect_error.is_some()).count()
    ));
    o.note(format!(
        "server busy {busy_s:.2} s, {:.0}% of the {stream_s:.2} s stream",
        100.0 * busy_s / stream_s
    ));
    o.note(format!(
        "{} timed passes of {} jobs (after one warm-up): {:.3?} s",
        passes.walls.len(),
        passes.set.len(),
        passes.walls
    ));
    o.set("setup_s", median(&setups));
    o.set("pass_s", median(&passes.walls));
    o.set("peak_rss_mb", server_rss.unwrap_or(0.0));
    o.set("fresh_p50_ms", median(&lat(&fresh)));
    o.set_tail("serve.fresh_tail_ms", tail(&lat(&fresh)));
    o.set("cached_p50_ms", median(&lat(&cached)));
    o.set_tail("serve.cached_tail_ms", tail(&lat(&cached)));

    o.set("scenario.parse_us", median(&parse_us));
    o.set(
        "serve.exec_ms",
        median(&exec_ms.values().copied().collect::<Vec<_>>()),
    );
    let overhead = |v: &[&Seen]| {
        median(
            &v.iter()
                .map(|s| {
                    s.service_ms
                        - exec_ms
                            .get(&s.job_id)
                            .copied()
                            .filter(|_| !s.cached)
                            .unwrap_or(0.0)
                })
                .collect::<Vec<_>>(),
        )
    };
    o.set("serve.overhead_ms.fresh", overhead(&fresh));
    o.set("serve.overhead_ms.cached", overhead(&cached));
    o.set("serve.joblog_bytes", file_bytes(&joblog_path));
    o.set(
        "serve.results_bytes",
        std::fs::read_dir(&results_dir)
            .map(|d| {
                d.filter_map(Result::ok)
                    .map(|e| file_bytes(&e.path()))
                    .sum()
            })
            .unwrap_or(0.0),
    );
    o.set(
        "serve.max_outstanding",
        max_in_flight.load(Ordering::SeqCst) as f64,
    );
    o.set(
        "serve.gen_late_ms",
        median(&seen.iter().map(|v| v.late_ms).collect::<Vec<_>>()),
    );
    o
}

/// Serve's timed passes: the fixed pass set with the job ID and result
/// hash each must get, the server the passes run on (not the stream's),
/// and the pass times and correctness tally so far.
struct Passes {
    set: Vec<Request>,
    expected: Vec<Option<(String, String)>>,
    server: ServerProc,
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn new(bin: &Path, dir: PathBuf, refs: &References) -> Passes {
        let set = workload::serve_pass_set();
        let expected = set
            .iter()
            .map(|r| {
                let m = Manifest::from_json(&r.text).expect("pass set manifests are valid");
                let sha = refs.expected(&m).unwrap_or("missing").to_owned();
                Some((m.job_id(), sha))
            })
            .collect();
        let (server, _) = ServerProc::start(bin, dir);
        Passes {
            set,
            expected,
            server,
            walls: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One closed-loop pass, keeping [`CONNECTIONS`] requests outstanding
    /// so the server goes from one job to the next without idling. Timed
    /// from the first send to the last reply. The pass then deletes the
    /// stored results, so the server runs every job again on the next pass
    /// instead of answering from its cache.
    fn run(&mut self) {
        let sock = self.server.dir.join("sock");
        let next = AtomicUsize::new(0);
        let correct = AtomicUsize::new(0);
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..CONNECTIONS {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= self.set.len() {
                        break;
                    }
                    let reply = submit(&sock, &self.set[i].text);
                    if judge(&self.set[i], self.expected[i].as_ref(), reply, false).correct {
                        correct.fetch_add(1, Ordering::SeqCst);
                    } else {
                        eprintln!("perfbench: FAILED serve pass request: {}", self.set[i].text);
                    }
                });
            }
        });
        self.walls.push(t.elapsed().as_secs_f64());
        let results = self.server.dir.join("results");
        for e in std::fs::read_dir(&results).into_iter().flatten().flatten() {
            std::fs::remove_file(e.path()).expect("delete a stored pass result");
        }
        self.attempted += self.set.len() as u64;
        self.failed += (self.set.len() - correct.load(Ordering::SeqCst)) as u64;
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn file_bytes(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

fn submit(sock: &Path, text: &str) -> std::io::Result<(String, Vec<u8>)> {
    let mut s = UnixStream::connect(sock)?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))?;
    shm_serve::submit_stream(&mut s, text)
}

/// Checks one reply: a valid manifest must come back `ok` for the expected
/// job with the reference bytes, computed for a fresh request and cached
/// for a resubmission (unless sent `early`); a malformed one must be
/// refused with its error code.
fn judge(
    req: &Request,
    expected: Option<&(String, String)>,
    reply: std::io::Result<(String, Vec<u8>)>,
    early: bool,
) -> Seen {
    let mut v = Seen {
        early,
        ..Seen::default()
    };
    let Ok((header, body)) = reply else {
        return v;
    };
    let Ok(h) = json::parse(&header) else {
        return v;
    };
    let field = |k: &str| h.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    match (req.expect_error, expected) {
        (None, Some((job_id, sha))) => {
            v.cached = h.get("cached").and_then(Value::as_bool).unwrap_or(false);
            v.job_id = field("job_id");
            let cache_ok = match req.class {
                Class::Fresh => !v.cached,
                _ => v.cached || early,
            };
            v.correct = field("status") == "ok"
                && cache_ok
                && v.job_id == *job_id
                && field("result_sha") == *sha
                && content_hash(&body) == *sha;
        }
        (Some(code), _) => {
            let got = h
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str);
            v.correct = field("status") == "error" && got == Some(code);
        }
        (None, None) => {}
    }
    v
}

/// `shm-serve replay` over the run's job log and results, untimed.
fn replay_clean(bin: &Path, dir: &Path) -> bool {
    Command::new(bin)
        .args(["replay", "--joblog", "joblog.jsonl", "--results", "results"])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
