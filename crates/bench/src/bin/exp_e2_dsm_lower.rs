//! E2 — Theorem 6.2: the executable lower-bound adversary in the DSM model.
//!
//! Run with: `cargo run --release -p bench --bin exp_e2_dsm_lower`
//!
//! Scenario flags: `--sizes 32,64`, `--threads N` (default:
//! `CC_DSM_THREADS` or available parallelism; 1 = exact serial path), and
//! `--audit`, which shadow-executes every phase's final history under
//! naive reference implementations of all four cost models and diffs it
//! against the incremental path; the process exits nonzero on any
//! divergence or in-contract safety violation. Shared flags (see
//! [`bench::cli`]): `--canon FILE` and the observability flags of
//! [`bench::cli::ObsFlags`]. With a collector installed each row also
//! carries a compact `obs` block of its deterministic counter totals, in
//! both `--canon` and `BENCH_adversary.json` output.
//!
//! On top of the shared pieces, E2 has two outputs of its own: `--json`
//! writes the rows (including per-phase wall-clock timings of the
//! incremental replay engine) to `BENCH_adversary.json`, and `--speedup`
//! re-runs the sweep at `--threads 1`, asserts its canonical rows equal
//! the parallel ones, and records per-phase parallel speedups. Under
//! `--speedup` the collector is cleared before the serial re-run, so the
//! sink files cover exactly one sweep (the serial one — byte-identical to
//! the parallel sweep's recording by determinism).

use bench::cli::Session;
use bench::run::{self, Rows};
use bench::E2Row;
use std::fmt::Write as _;
use std::time::Instant;

/// Ratio rendered as JSON: `serial / parallel`, `null` when not measured or
/// when the parallel denominator is ~0.
fn speedup_json(serial: Option<f64>, parallel: f64) -> String {
    match serial {
        Some(s) if parallel > 1e-9 => format!("{:.3}", s / parallel),
        _ => "null".to_string(),
    }
}

/// The per-phase wall times of a row, in [`PHASES`] order.
fn phase_ms(r: &E2Row) -> [f64; 5] {
    let t = &r.timings;
    [
        t.record_ms,
        t.rounds_ms,
        t.chase_ms,
        t.discovery_ms,
        t.total_ms(),
    ]
}

const PHASES: [&str; 5] = ["record", "rounds", "chase", "discovery", "total"];

fn row_json(r: &E2Row, threads: usize, serial: Option<&E2Row>) -> String {
    // The divergence and the obs block are already JSON; embed them verbatim.
    let embed = |v: &Option<String>| v.clone().unwrap_or_else(|| "null".into());
    let mut out = format!(
        concat!(
            "  {{\"algorithm\": \"{}\", \"n\": {}, \"stabilized\": {}, ",
            "\"stable\": {}, \"chase_signaler_rmrs\": {}, \"chase_erased\": {}, ",
            "\"blocked\": {}, \"amortized\": {:.4}, \"violation\": {}, ",
            "\"out_of_contract\": {}, \"audit_clean\": {}, \"audit_divergence\": {}, ",
            "\"obs\": {}, \"threads\": {}, \"iters\": 1"
        ),
        shm_obs::json::escape(&r.algorithm),
        r.n,
        r.stabilized,
        r.stable,
        r.chase_signaler_rmrs,
        r.chase_erased,
        r.blocked,
        r.amortized,
        r.violation,
        r.out_of_contract,
        r.audit_clean
            .map_or_else(|| "null".to_string(), |c| c.to_string()),
        embed(&r.audit_divergence),
        embed(&r.obs),
        threads,
    );
    let ms = phase_ms(r);
    for (phase, ms) in PHASES.iter().zip(ms) {
        let _ = write!(out, ", \"{phase}_ms\": {ms:.3}");
    }
    let serial_ms = serial.map(phase_ms);
    for (i, phase) in PHASES.iter().enumerate() {
        let speedup = speedup_json(serial_ms.map(|s| s[i]), ms[i]);
        let _ = write!(out, ", \"{phase}_speedup\": {speedup}");
    }
    out.push('}');
    out
}

fn to_json(
    rows: &[E2Row],
    threads: usize,
    wall_ms: f64,
    serial: Option<(&[E2Row], f64)>,
) -> String {
    let serial_wall = serial.map_or_else(|| "null".to_string(), |(_, sw)| format!("{sw:.3}"));
    let mut out = format!(
        concat!(
            "{{\"threads\": {}, \"wall_ms\": {:.3}, \"serial_wall_ms\": {}, ",
            "\"speedup\": {}, \"rows\": [\n"
        ),
        threads,
        wall_ms,
        serial_wall,
        speedup_json(serial.map(|(_, sw)| sw), wall_ms),
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&row_json(r, threads, serial.map(|(s, _)| &s[i])));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

fn main() {
    let session = Session::start(bench::ExperimentKind::E2);
    let json = session.args.iter().any(|a| a == "--json");
    let speedup = session.args.iter().any(|a| a == "--speedup");
    let threads = shm_pool::threads();
    let t = Instant::now();
    let rows = session.run();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let serial = speedup.then(|| {
        println!("\n--speedup: re-running the sweep at --threads 1 ...");
        // Start the recording over: the sink files should cover one sweep,
        // not the parallel run plus this re-run. Determinism makes the
        // serial recording byte-identical to the parallel one anyway.
        session.restart_recording();
        shm_pool::set_threads(1);
        let t = Instant::now();
        let serial_rows = run::run(&session.manifest);
        let serial_wall = t.elapsed().as_secs_f64() * 1e3;
        shm_pool::set_threads(threads);
        assert_eq!(
            serial_rows.canon_json(),
            rows.canon_json(),
            "serial and parallel sweeps must agree on every deterministic field"
        );
        println!(
            "wall: {wall_ms:.1} ms at {threads} threads vs {serial_wall:.1} ms serial \
             ({:.2}x)",
            serial_wall / wall_ms.max(1e-9),
        );
        (serial_rows, serial_wall)
    });
    if json {
        let path = "BENCH_adversary.json";
        let body = to_json(
            e2_rows(&rows),
            threads,
            wall_ms,
            serial.as_ref().map(|(r, w)| (e2_rows(r), *w)),
        );
        std::fs::write(path, body).expect("write BENCH_adversary.json");
        println!("\nwrote {path}");
    }
    session.finish(&rows);
}

fn e2_rows(rows: &Rows) -> &[E2Row] {
    match rows {
        Rows::E2(rows) => rows,
        other => unreachable!("E2 manifest ran {other:?}"),
    }
}
