//! The job server: spool + socket ingestion, sequential deterministic
//! execution, and the record/replay job log.
//!
//! Submissions arrive from a watched spool directory (`*.json` manifest
//! files) and from line-delimited TCP/Unix sockets. Each is validated and
//! content-hashed into a job ID; new jobs are appended to the job log,
//! executed on the in-process pool at the manifest's thread count, and
//! their canonical result bytes written to the results directory and
//! streamed back to socket clients. Resubmitting a manifest that already
//! completed replays the stored bytes (`"cached":true`) without re-running
//! — and because the completed-jobs map is rebuilt from the job log at
//! startup, idempotency survives restarts.
//!
//! Ingestion is event-driven: each socket listener has one acceptor thread
//! blocked in `accept`, every connection gets a handler thread that reads
//! one manifest line (at most [`MAX_LINE_BYTES`], within [`READ_TIMEOUT`])
//! and hands it to the core over a channel, and the core blocks on that
//! channel. A socket submission therefore wakes the core once; the core
//! otherwise wakes only to scan the spool (every `poll_ms`) or to honour
//! `idle_exit_ms`.
//!
//! Jobs execute **sequentially** on purpose: the pool thread count is
//! process-global state (each job runs at its manifest's `threads`), and
//! the determinism contract makes concurrency a latency optimization only —
//! canonical results are identical at any thread count. Multi-tenancy means
//! fair FIFO queueing, not parallel jobs.

use crate::joblog::{Event, JobLog};
use shm_scenario::json::{self, Value};
use shm_scenario::{Manifest, ManifestError};
use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of socket reply headers.
pub const SERVE_SCHEMA: &str = "cc-dsm/serve/v1";

/// Longest manifest line, newline included, that a connection may send; a
/// longer one gets a `line_too_long` error reply.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// How long a connection may take to deliver its manifest line before it
/// is dropped without a reply.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory receiving `<job_id>.json` result files (created if absent).
    pub results_dir: PathBuf,
    /// The append-only job log.
    pub joblog: PathBuf,
    /// Watched spool directory: drop `*.json` manifest files here to submit.
    pub spool: Option<PathBuf>,
    /// TCP listen address (e.g. `127.0.0.1:0` for an ephemeral port).
    pub tcp: Option<String>,
    /// Unix socket path (removed and re-bound at startup).
    pub unix: Option<PathBuf>,
    /// Exit after processing this many submissions (tests/CI).
    pub max_jobs: Option<u64>,
    /// Exit after this long with no submission received (tests/CI).
    pub idle_exit_ms: Option<u64>,
    /// Spool scan cadence in milliseconds (at least 1). Sockets are
    /// event-driven and never wait on it.
    pub poll_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            results_dir: PathBuf::from("serve-results"),
            joblog: PathBuf::from("JOBLOG.jsonl"),
            spool: None,
            tcp: None,
            unix: None,
            max_jobs: None,
            idle_exit_ms: None,
            poll_ms: 20,
        }
    }
}

/// Counters describing one server run.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Jobs executed to completion.
    pub completed: u64,
    /// Resubmissions served from the results store.
    pub deduped: u64,
    /// Submissions rejected at validation.
    pub rejected: u64,
    /// Jobs that panicked (the server survived).
    pub failed: u64,
    /// Total execution wall-clock per experiment kind (telemetry for the
    /// perf-history ledger; not part of the determinism contract).
    pub wall_ms_by_kind: BTreeMap<String, f64>,
}

impl ServeStats {
    /// Total submissions processed (any outcome).
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.completed + self.deduped + self.rejected + self.failed
    }
}

/// One reply to a submission: a single-line JSON header and (on success)
/// the raw canonical result bytes. The header's `"bytes"` field is the
/// body length, so multi-line canon JSON survives a line-delimited
/// protocol byte-for-byte.
#[derive(Clone, Debug)]
pub struct Reply {
    /// One-line JSON header (no trailing newline).
    pub header: String,
    /// Raw result bytes (empty on error).
    pub body: Vec<u8>,
}

impl Reply {
    fn ok(job_id: &str, kind: &str, sha: &str, body: Vec<u8>, cached: bool) -> Reply {
        Reply {
            header: format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"status\":\"ok\",\"job_id\":\"{job_id}\",\"kind\":\"{kind}\",\"result_sha\":\"{sha}\",\"bytes\":{},\"cached\":{cached}}}",
                body.len(),
            ),
            body,
        }
    }

    fn error(e: &ManifestError) -> Reply {
        Reply {
            header: format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"status\":\"error\",\"error\":{}}}",
                e.to_json(),
            ),
            body: Vec::new(),
        }
    }
}

/// An acceptor thread and the self-connect that wakes it from `accept`.
type Acceptor = (JoinHandle<()>, Box<dyn Fn()>);

struct SocketJob {
    /// The manifest line, or why the connection's input was refused.
    line: Result<String, ManifestError>,
    source: &'static str,
    /// The connection to write the framed reply to. Held through the
    /// channel so the core loop writes replies synchronously — the server
    /// cannot hit an exit condition with a reply still in flight.
    conn: Box<dyn Write + Send>,
}

/// The bound server. [`Server::bind`] creates listeners (so tests can read
/// the ephemeral [`Server::tcp_addr`] before serving); [`Server::run`]
/// blocks until an exit condition fires.
pub struct Server {
    cfg: ServeConfig,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    log: JobLog,
    /// job_id → result_sha of every job whose result bytes are on disk.
    completed: BTreeMap<String, String>,
    stats: ServeStats,
}

impl Server {
    /// Creates the results directory, opens the job log (recovering a torn
    /// final line), rebuilds the completed-jobs map from it, and binds the
    /// configured listeners. Errors name the step that failed.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.results_dir).map_err(labelled("results"))?;
        if let Some(spool) = &cfg.spool {
            std::fs::create_dir_all(spool).map_err(labelled("spool"))?;
        }
        let (log, events) = JobLog::open(&cfg.joblog).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, format!("joblog: {e}"))
        })?;
        let mut completed = BTreeMap::new();
        for ev in events {
            if let Event::Completed {
                job_id, result_sha, ..
            } = ev
            {
                // Trust the log only as far as the bytes still exist: a
                // wiped results dir means the job re-runs. Leftover
                // `<job_id>.json.tmp` files from an interrupted write are
                // never consulted.
                if result_path(&cfg.results_dir, &job_id).is_file() {
                    completed.insert(job_id, result_sha);
                }
            }
        }
        let tcp = match &cfg.tcp {
            Some(addr) => Some(TcpListener::bind(addr).map_err(labelled("bind tcp"))?),
            None => None,
        };
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path).map_err(labelled("bind unix"))?)
            }
            None => None,
        };
        Ok(Server {
            cfg,
            tcp,
            unix,
            log,
            completed,
            stats: ServeStats::default(),
        })
    }

    /// The bound TCP address, when a TCP listener was configured.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until `max_jobs` submissions were processed or no submission
    /// arrived for `idle_exit_ms` (whichever is configured; with neither it
    /// serves forever). Returns the run's stats once every acceptor thread
    /// has stopped and released its listener.
    pub fn run(mut self) -> std::io::Result<ServeStats> {
        let (tx, rx) = mpsc::channel::<SocketJob>();
        let stop = Arc::new(AtomicBool::new(false));
        let mut acceptors: Vec<Acceptor> = Vec::new();
        if let Some(l) = self.tcp.take() {
            let addr = wake_addr(l.local_addr()?);
            let accept = move || {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(s)
            };
            acceptors.push((
                spawn_acceptor(accept, "tcp", &tx, &stop),
                Box::new(move || drop(TcpStream::connect(addr))),
            ));
        }
        if let (Some(l), Some(path)) = (self.unix.take(), self.cfg.unix.clone()) {
            let accept = move || {
                let (s, _) = l.accept()?;
                s.set_read_timeout(Some(READ_TIMEOUT))?;
                Ok(s)
            };
            acceptors.push((
                spawn_acceptor(accept, "unix", &tx, &stop),
                Box::new(move || drop(UnixStream::connect(&path))),
            ));
        }
        self.serve(&rx);
        stop.store(true, Ordering::SeqCst);
        for (_, wake) in &acceptors {
            wake();
        }
        for (thread, _) in acceptors {
            thread
                .join()
                .map_err(|_| std::io::Error::other("acceptor thread panicked"))?;
        }
        Ok(std::mem::take(&mut self.stats))
    }

    /// The core loop: blocks until a socket job arrives, the spool is due
    /// for a scan, or the idle deadline passes, and runs jobs one at a
    /// time in arrival order, writing each reply before the next step.
    fn serve(&mut self, rx: &mpsc::Receiver<SocketJob>) {
        let poll = Duration::from_millis(self.cfg.poll_ms.max(1));
        let idle = self.cfg.idle_exit_ms.map(Duration::from_millis);
        let mut last_submission = Instant::now();
        let mut next_scan = self.cfg.spool.is_some().then(Instant::now);
        loop {
            if self
                .cfg
                .max_jobs
                .is_some_and(|max| self.stats.processed() >= max)
                || idle.is_some_and(|d| last_submission.elapsed() >= d)
            {
                return;
            }
            if next_scan.is_some_and(|t| Instant::now() >= t) {
                if self.scan_spool() {
                    last_submission = Instant::now();
                }
                next_scan = Some(Instant::now() + poll);
                continue;
            }
            let deadline = [next_scan, idle.map(|d| last_submission + d)]
                .into_iter()
                .flatten()
                .min();
            // `run` holds a sender throughout, so neither receive can see
            // a disconnect.
            let job = match deadline {
                None => rx.recv().ok(),
                Some(t) => rx
                    .recv_timeout(t.saturating_duration_since(Instant::now()))
                    .ok(),
            };
            if let Some(mut job) = job {
                let reply = match job.line {
                    Ok(text) => self.execute(&text, job.source),
                    Err(e) => self.reject(job.source, e),
                };
                // A client that hung up just loses its reply.
                let _ = write_reply(&mut job.conn, &reply);
                last_submission = Instant::now();
            }
        }
    }

    /// Ingests every `*.json` file in the spool directory, in sorted-name
    /// order (deterministic given a fixed set of files). Each file is
    /// removed once processed; rejects leave a `<stem>.error.json` next to
    /// the results so the submitter can see why.
    fn scan_spool(&mut self) -> bool {
        let Some(spool) = self.cfg.spool.clone() else {
            return false;
        };
        let Ok(entries) = std::fs::read_dir(&spool) else {
            return false;
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        let mut any = false;
        for path in files {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let reply = self.execute(&text, "spool");
            if reply.body.is_empty() {
                let stem = path
                    .file_stem()
                    .map_or_else(|| "submission".into(), |s| s.to_string_lossy().into_owned());
                let err_path = self.cfg.results_dir.join(format!("{stem}.error.json"));
                let _ = std::fs::write(err_path, format!("{}\n", reply.header));
            }
            let _ = std::fs::remove_file(&path);
            any = true;
        }
        any
    }

    /// Validates, dedups, logs, and (for new jobs) executes one submission.
    fn execute(&mut self, text: &str, source: &str) -> Reply {
        let _span = shm_obs::Span::enter("serve.job");
        shm_obs::counter!("serve.jobs");
        let manifest = match Manifest::from_json(text) {
            Ok(m) => m,
            Err(e) => return self.reject(source, e),
        };
        let job_id = manifest.job_id();
        let result_path = result_path(&self.cfg.results_dir, &job_id);
        if let Some(sha) = self.completed.get(&job_id) {
            if let Ok(body) = std::fs::read(&result_path) {
                shm_obs::counter!("serve.dedup");
                self.stats.deduped += 1;
                return Reply::ok(&job_id, manifest.kind.as_str(), sha, body, true);
            }
            // Result bytes vanished since bind(): fall through and re-run.
            self.completed.remove(&job_id);
        }
        self.log(&Event::Submitted {
            job_id: job_id.clone(),
            source: source.into(),
            manifest: Box::new(manifest.clone()),
        });
        shm_pool::set_threads(manifest.effective_threads());
        let t = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bench::run::run_manifest(&manifest)
        }));
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(result) => {
                let body = result.into_bytes();
                let sha = shm_scenario::content_hash(&body);
                if let Err(e) = write_atomically(&result_path, &body) {
                    eprintln!("serve: write {}: {e}", result_path.display());
                }
                self.log(&Event::Completed {
                    job_id: job_id.clone(),
                    result_sha: sha.clone(),
                    result_bytes: body.len() as u64,
                    rows: crate::server_row_count(&body),
                    wall_ms,
                });
                self.completed.insert(job_id.clone(), sha.clone());
                self.stats.completed += 1;
                *self
                    .stats
                    .wall_ms_by_kind
                    .entry(manifest.kind.as_str().to_owned())
                    .or_insert(0.0) += wall_ms;
                Reply::ok(&job_id, manifest.kind.as_str(), &sha, body, false)
            }
            Err(panic) => {
                let msg = panic_text(&panic);
                self.log(&Event::Failed {
                    job_id,
                    error: msg.clone(),
                });
                self.stats.failed += 1;
                Reply::error(&ManifestError {
                    code: "job_panicked",
                    field: String::new(),
                    message: msg,
                })
            }
        }
    }

    /// Records and answers a submission refused before it had a job ID.
    fn reject(&mut self, source: &str, error: ManifestError) -> Reply {
        self.stats.rejected += 1;
        let reply = Reply::error(&error);
        self.log(&Event::Rejected {
            source: source.into(),
            error,
        });
        reply
    }

    fn log(&mut self, event: &Event) {
        if let Err(e) = self.log.append(event) {
            eprintln!("serve: append {}: {e}", self.cfg.joblog.display());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(path) = &self.cfg.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

/// Where a job's canonical result bytes live.
pub(crate) fn result_path(results_dir: &Path, job_id: &str) -> PathBuf {
    results_dir.join(format!("{job_id}.json"))
}

/// Writes `body` to `<path>.tmp` and renames it over `path`, so a reader
/// (or a restarted server) sees either no result file or a complete one.
/// Not fsynced, like the job log: a crash loses at most an unlogged result,
/// which the restarted server re-runs.
fn write_atomically(path: &Path, body: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Prefixes an I/O error with the startup step it came from.
fn labelled(step: &'static str) -> impl Fn(std::io::Error) -> std::io::Error {
    move |e| std::io::Error::new(e.kind(), format!("{step}: {e}"))
}

/// The address a shutdown self-connect reaches a TCP listener on: its own,
/// with a wildcard IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Starts a thread that blocks in `accept` and gives every connection a
/// [`handle_conn`] thread, until `stop` is set and an accept returns (the
/// shutdown self-connect guarantees one does). The thread owns the
/// listener through `accept`, so joining it releases the listener.
fn spawn_acceptor<S: Read + Write + Send + 'static>(
    mut accept: impl FnMut() -> std::io::Result<S> + Send + 'static,
    source: &'static str,
    tx: &mpsc::Sender<SocketJob>,
    stop: &Arc<AtomicBool>,
) -> JoinHandle<()> {
    let (tx, stop) = (tx.clone(), Arc::clone(stop));
    std::thread::spawn(move || loop {
        let conn = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => {
                let tx = tx.clone();
                std::thread::spawn(move || handle_conn(stream, source, &tx));
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    })
}

/// Serves one socket connection: reads one manifest line of at most
/// [`MAX_LINE_BYTES`] and queues it together with the connection; the
/// core loop executes the job and writes the reply (`header\n` + `bytes`
/// raw body bytes) before it can exit. A connection that sends nothing,
/// or stalls past the stream's read timeout, is dropped without a reply.
fn handle_conn<S: Read + Write + Send + 'static>(
    mut stream: S,
    source: &'static str,
    tx: &mpsc::Sender<SocketJob>,
) {
    let mut bytes = Vec::new();
    let limited = (&mut stream).take(MAX_LINE_BYTES);
    if BufReader::new(limited)
        .read_until(b'\n', &mut bytes)
        .is_err()
    {
        return;
    }
    let line = if bytes.len() as u64 == MAX_LINE_BYTES && bytes.last() != Some(&b'\n') {
        Err(ManifestError {
            code: "line_too_long",
            field: String::new(),
            message: format!("manifest line exceeds {MAX_LINE_BYTES} bytes"),
        })
    } else {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if text.trim().is_empty() {
            return;
        }
        Ok(text)
    };
    let _ = tx.send(SocketJob {
        line,
        source,
        conn: Box::new(stream),
    });
}

fn write_reply<W: Write>(w: &mut W, reply: &Reply) -> std::io::Result<()> {
    w.write_all(reply.header.as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(&reply.body)?;
    w.flush()
}

/// Reads one framed reply from a server stream: the header line, then
/// exactly `bytes` body bytes. Shared by the `submit` subcommand and the
/// round-trip tests.
pub fn read_reply<R: Read>(r: &mut R) -> std::io::Result<(String, Vec<u8>)> {
    let mut reader = BufReader::new(r);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let header = header.trim_end().to_owned();
    let n = json::parse(&header)
        .ok()
        .and_then(|v| v.get("bytes").and_then(Value::as_u64))
        .unwrap_or(0);
    let mut body = vec![0u8; n as usize];
    reader.read_exact(&mut body)?;
    Ok((header, body))
}

/// Submits one manifest line over a connected stream and reads the framed
/// reply.
pub fn submit_stream<S: Read + Write>(
    stream: &mut S,
    manifest_line: &str,
) -> std::io::Result<(String, Vec<u8>)> {
    stream.write_all(manifest_line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    read_reply(stream)
}
