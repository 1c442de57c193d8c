//! What the benchmark reads about processes and the program's own counters:
//! process CPU time, peak resident set, and a light `shm_obs` recorder.

use shm_obs::{CounterKey, Recorder};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU seconds this process has used so far, over all its threads
/// (including pool workers that have already exited).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // 64-bit Linux) that outlives the call; the clock id is a constant the
    // kernel accepts for the calling process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of `pid` (this process when `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_owned(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The `shm_obs` counters the benchmark reads. Each is deterministic at a
/// fixed thread count except `pool.steal` and `pool.idle`.
pub const COUNTERS: [&str; 18] = [
    "sim.steps",
    "sim.rmr",
    "ckpt.snapshot",
    "ckpt.restore",
    "explore.states",
    "explore.dedup",
    "explore.sleep_pruned",
    "store.hot_hits",
    "store.cold_probes",
    "store.spilled_bytes",
    "pct.schedules",
    "pct.steps",
    "part1.rounds",
    "erase.surgery",
    "erase.replay",
    "erase.refused",
    "pool.steal",
    "pool.idle",
];

/// Counters that depend on thread scheduling and may differ between passes.
pub const NONDETERMINISTIC: [&str; 2] = ["pool.steal", "pool.idle"];

/// The program's span around one exhaustive exploration (`check`).
const EXPLORE_SPAN: &str = "explore.run";
const SLOT_EXPLORE_NS: usize = COUNTERS.len();
const SLOT_EXPLORE_RUNS: usize = COUNTERS.len() + 1;
const SLOTS: usize = COUNTERS.len() + 2;
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard([AtomicU64; SLOTS]);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static OPEN_EXPLORES: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

fn shard_index() -> usize {
    SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    })
}

/// Totals of one traced pass, read from [`Tally`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    pub counts: Vec<u64>,
    pub explore_runs: u64,
    pub explore_ns: u64,
}

impl Totals {
    pub fn get(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|&c| c == name)
            .and_then(|i| self.counts.get(i).copied())
            .unwrap_or(0)
    }

    /// The deterministic counters, for an exact comparison between passes.
    pub fn deterministic(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .zip(&self.counts)
            .filter(|(name, _)| !NONDETERMINISTIC.contains(name))
            .map(|(&name, &v)| (name, v))
            .collect()
    }
}

/// A recorder that sums the counters in [`COUNTERS`] into per-thread-shard
/// atomics and times the program's `explore.run` spans. Every other span
/// and counter is dropped, so tracing costs one name match per event.
pub struct Tally {
    shards: Vec<Shard>,
}

impl Tally {
    pub fn new() -> Tally {
        Tally {
            shards: (0..SHARDS)
                .map(|_| Shard(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    fn add(&self, slot: usize, delta: u64) {
        self.shards[shard_index()].0[slot].fetch_add(delta, Ordering::Relaxed);
    }

    pub fn reset(&self) {
        for shard in &self.shards {
            for cell in &shard.0 {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    pub fn totals(&self) -> Totals {
        let sum = |slot: usize| -> u64 {
            self.shards
                .iter()
                .map(|s| s.0[slot].load(Ordering::Relaxed))
                .sum()
        };
        Totals {
            counts: (0..COUNTERS.len()).map(sum).collect(),
            explore_runs: sum(SLOT_EXPLORE_RUNS),
            explore_ns: sum(SLOT_EXPLORE_NS),
        }
    }
}

impl Recorder for Tally {
    fn span_begin(&self, name: &'static str) {
        if name == EXPLORE_SPAN {
            OPEN_EXPLORES.with(|o| o.borrow_mut().push(Instant::now()));
        }
    }

    fn span_end(&self, name: &'static str) {
        if name == EXPLORE_SPAN {
            if let Some(t) = OPEN_EXPLORES.with(|o| o.borrow_mut().pop()) {
                let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.add(SLOT_EXPLORE_NS, ns);
                self.add(SLOT_EXPLORE_RUNS, 1);
            }
        }
    }

    fn count(&self, key: CounterKey, delta: u64) {
        if let Some(slot) = COUNTERS.iter().position(|&c| c == key.name) {
            self.add(slot, delta);
        }
    }
}
