//! The in-process workloads (`explore`, `reproduce`): passes over a fixed
//! manifest set through `bench::run::run_manifest`, each result checked
//! against its reference hash.

use crate::probe::{self, Tally, Totals};
use crate::reference::References;
use crate::stats::median;
use crate::{Outcome, SETUP_STARTS};
use bench::experiments as ex;
use shm_scenario::manifest::ExperimentKind as K;
use shm_scenario::{canon, content_hash, Manifest};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resubmissions of the whole manifest set in one cached sample.
const CACHED_ROUNDS: usize = 20;

/// One timed pass without tracing. A pass submits its whole manifest set
/// at once and runs it in order, so a job's latency is the time from the
/// pass's start until its result is ready, as in a FIFO job queue.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    latency_ms: Vec<f64>,
}

/// One traced pass: the benchmark's own spans around each layer call plus
/// the program's counters.
#[derive(Default)]
struct Traced {
    wall_s: f64,
    kind_ms: BTreeMap<&'static str, f64>,
    canon_ms: f64,
    parse_us: Vec<f64>,
    /// record, rounds, chase, discovery (from `PhaseTimings`).
    adversary_ms: [f64; 4],
    messages: u64,
    passages: u64,
    peak_visited_bytes: u64,
    peak_frontier: u64,
    totals: Totals,
}

impl Traced {
    /// Everything in the pass that must repeat exactly.
    fn deterministic(&self) -> (Vec<(&'static str, u64)>, [u64; 4]) {
        (
            self.totals.deterministic(),
            [
                self.messages,
                self.passages,
                self.peak_visited_bytes,
                self.peak_frontier,
            ],
        )
    }
}

pub struct Batch {
    texts: Vec<String>,
    refs: References,
    /// Where each pass stores its results as `<job ID>.json`, as the server
    /// does; cached samples read them back.
    results: PathBuf,
    attempted: u64,
    failed: u64,
}

impl Batch {
    /// The set-up a run pays before its first timed job: parse every
    /// manifest, load the references, size the pool.
    pub fn setup(texts: Vec<String>, results: PathBuf) -> Batch {
        for t in &texts {
            Manifest::from_json(t).expect("workload manifests are valid");
        }
        shm_pool::set_threads(crate::workload::THREADS as usize);
        Batch {
            texts,
            refs: References::load(),
            results,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    fn pass(&mut self) -> Pass {
        let (t0, c0) = (Instant::now(), probe::cpu_seconds());
        let mut latency_ms = Vec::with_capacity(self.texts.len());
        let mut bodies = Vec::with_capacity(self.texts.len());
        for text in self.texts.clone() {
            let m = Manifest::from_json(&text).expect("validated at setup");
            let id = m.job_id();
            shm_pool::set_threads(m.effective_threads());
            let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                bench::run::run_manifest(&m)
            }));
            let sha = body.as_ref().map(|b| content_hash(b.as_bytes()));
            latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let want = self.refs.expected(&m);
            let ok = sha.as_ref().is_ok_and(|s| want == Some(s.as_str()));
            self.check(
                ok,
                &format!("result of {text}: {sha:?}, reference {want:?}"),
            );
            if let Ok(b) = body {
                bodies.push((id, b));
            }
        }
        let pass = Pass {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: probe::cpu_seconds() - c0,
            latency_ms,
        };
        for (id, b) in bodies {
            std::fs::write(self.result_path(&id), b).expect("store a result");
        }
        pass
    }

    fn result_path(&self, job_id: &str) -> PathBuf {
        self.results.join(format!("{job_id}.json"))
    }

    /// One cached sample, taken by a freshly started set-up probe: the
    /// manifest set resubmitted [`CACHED_ROUNDS`] times, each manifest
    /// answered the way the server answers a repeated job (parse, job ID,
    /// read the stored result). Returns the mean milliseconds per round
    /// and whether the bytes read match the references. A sample in a
    /// fresh process, not in the benchmark's own: a lookup takes
    /// microseconds, and its speed moves with each process's memory layout
    /// (up to 1.8x between runs when measured in one process).
    pub fn cached_sample(&self) -> (f64, bool) {
        let read = |text: &str| {
            let m = Manifest::from_json(text).expect("validated at setup");
            let bytes = std::fs::read(self.result_path(&m.job_id()));
            (m, bytes)
        };
        let t = Instant::now();
        for _ in 0..CACHED_ROUNDS {
            for text in &self.texts {
                let _ = black_box(read(text));
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / CACHED_ROUNDS as f64;
        let ok = self.texts.iter().all(|text| {
            let (m, bytes) = read(text);
            bytes.is_ok_and(|b| self.refs.matches(&m, &b))
        });
        (ms, ok)
    }

    /// Untraced run: end-to-end metrics. `start_probe` starts one set-up
    /// probe and returns its set-up seconds and its
    /// [`Batch::cached_sample`]; [`SETUP_STARTS`] probes follow every pass.
    pub fn run(
        mut self,
        seconds: f64,
        mut start_probe: impl FnMut() -> (f64, f64, bool),
    ) -> Outcome {
        let start = Instant::now();
        let (mut pass_s, mut pass_medians, mut cached) = (Vec::new(), Vec::new(), Vec::new());
        let mut setups = Vec::new();
        while pass_s.is_empty() || fits(start, seconds, &pass_s) {
            let p = self.pass();
            pass_s.push(p.wall_s);
            pass_medians.push(median(&p.latency_ms));
            for _ in 0..SETUP_STARTS {
                let (setup_s, cached_ms, ok) = start_probe();
                setups.push(setup_s);
                cached.push(cached_ms);
                self.check(ok, "stored results read back by a set-up probe");
            }
        }
        let mut o = Outcome::new(self.attempted, self.failed);
        o.set("setup_s", median(&setups));
        o.set("pass_s", median(&pass_s));
        o.note(format!(
            "pass_s is the median of {} passes: {:.3?} s",
            pass_s.len(),
            pass_s
        ));
        o.set("peak_rss_mb", probe::peak_rss_mb(None).unwrap_or(0.0));
        // The median of per-pass medians: with explore's two jobs a pooled
        // median would fall in the gap between them.
        o.set("fresh_p50_ms", median(&pass_medians));
        o.set("cached_p50_ms", median(&cached));
        o
    }

    fn traced_pass(&mut self, tally: &Arc<Tally>) -> Traced {
        let mut tr = Traced::default();
        tally.reset();
        shm_obs::install(Arc::clone(tally) as Arc<dyn shm_obs::Recorder>);
        let t0 = Instant::now();
        for text in self.texts.clone() {
            let t = Instant::now();
            let m = Manifest::from_json(&text).expect("validated at setup");
            let _ = m.job_id();
            tr.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            shm_pool::set_threads(m.effective_threads());
            let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                dispatch_traced(&m, &mut tr)
            }));
            let ok = body
                .as_ref()
                .is_ok_and(|b| self.refs.matches(&m, b.as_bytes()));
            self.check(ok, &format!("traced result of {text}"));
        }
        tr.wall_s = t0.elapsed().as_secs_f64();
        shm_obs::uninstall();
        tr.totals = tally.totals();
        tr
    }

    /// Traced run: untraced and traced passes alternate; per-layer metrics.
    pub fn run_traced(mut self, seconds: f64) -> Outcome {
        let tally = Arc::new(Tally::new());
        let start = Instant::now();
        let (mut plain, mut traced): (Vec<Pass>, Vec<Traced>) = (Vec::new(), Vec::new());
        let mut walls = Vec::new();
        while plain.is_empty() || traced.is_empty() || fits(start, seconds, &walls) {
            if plain.len() <= traced.len() {
                let p = self.pass();
                walls.push(p.wall_s);
                plain.push(p);
            } else {
                let t = self.traced_pass(&tally);
                walls.push(t.wall_s);
                traced.push(t);
            }
        }
        let first = &traced[0];
        for t in &traced[1..] {
            let ok = t.deterministic() == first.deterministic();
            self.check(ok, "deterministic counts repeat across traced passes");
        }
        let mut o = Outcome::new(self.attempted, self.failed);
        o.note(format!(
            "{} untraced and {} traced passes",
            plain.len(),
            traced.len()
        ));
        let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        for kind in first.kind_ms.keys() {
            o.set(
                &format!("kind.{kind}_ms"),
                med(&|t| t.kind_ms.get(kind).copied().unwrap_or(0.0)),
            );
        }
        o.set(
            "scenario.parse_us",
            median(
                &traced
                    .iter()
                    .flat_map(|t| t.parse_us.clone())
                    .collect::<Vec<_>>(),
            ),
        );
        o.set("scenario.canon_ms", med(&|t| t.canon_ms));
        for (i, name) in ["record_ms", "rounds_ms", "chase_ms", "discovery_ms"]
            .iter()
            .enumerate()
        {
            o.set(&format!("adversary.{name}"), med(&|t| t.adversary_ms[i]));
        }
        let c = |name: &str| first.totals.get(name) as f64;
        let busy_s = median(&plain.iter().map(|p| p.cpu_s).collect::<Vec<_>>());
        o.set("shm.steps", c("sim.steps"));
        o.set("shm.rmrs", c("sim.rmr"));
        o.set("shm.messages", first.messages as f64);
        o.set("shm.steps_per_busy_s", ratio(c("sim.steps"), busy_s));
        o.set("shm.ckpt_snapshots", c("ckpt.snapshot"));
        o.set("shm.ckpt_restores", c("ckpt.restore"));
        o.set("explore.states", c("explore.states"));
        o.set("explore.dedup_hits", c("explore.dedup"));
        o.set("explore.sleep_pruned", c("explore.sleep_pruned"));
        o.set(
            "explore.dedup_ratio",
            ratio(c("explore.dedup"), c("explore.dedup") + c("explore.states")),
        );
        o.set(
            "explore.states_per_busy_s",
            ratio(c("explore.states"), busy_s),
        );
        o.set(
            "explore.check_ms",
            med(&|t| {
                ratio(
                    t.totals.explore_ns as f64 / 1e6,
                    t.totals.explore_runs as f64,
                )
            }),
        );
        o.set("explore.store_hot_hits", c("store.hot_hits"));
        o.set("explore.store_cold_probes", c("store.cold_probes"));
        o.set("explore.spilled_bytes", c("store.spilled_bytes"));
        o.set(
            "explore.peak_visited_bytes",
            first.peak_visited_bytes as f64,
        );
        o.set("explore.peak_frontier", first.peak_frontier as f64);
        o.set("explore.pct_schedules", c("pct.schedules"));
        o.set("explore.pct_steps", c("pct.steps"));
        let erasures = c("erase.surgery") + c("erase.replay") + c("erase.refused");
        o.set("adversary.rounds", c("part1.rounds"));
        o.set("adversary.erase_surgery", c("erase.surgery"));
        o.set("adversary.erase_refused", c("erase.refused"));
        o.set(
            "adversary.erase_refused_ratio",
            ratio(c("erase.refused"), erasures),
        );
        o.set("mutex.passages", first.passages as f64);
        let threads = f64::from(crate::workload::THREADS);
        o.set(
            "pool.cpu_util",
            median(
                &plain
                    .iter()
                    .map(|p| ratio(p.cpu_s, p.wall_s * threads))
                    .collect::<Vec<_>>(),
            ),
        );
        o.set("pool.steals", med(&|t| t.totals.get("pool.steal") as f64));
        o.set("pool.idle", med(&|t| t.totals.get("pool.idle") as f64));
        let plain_s = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let traced_s = med(&|t| t.wall_s);
        o.set(
            "trace.overhead_pct",
            (ratio(traced_s, plain_s) - 1.0) * 100.0,
        );
        o
    }
}

/// Whether another pass, as long as the median so far, ends within the
/// measuring window.
fn fits(start: Instant, seconds: f64, walls: &[f64]) -> bool {
    start.elapsed() + Duration::from_secs_f64(median(walls)) <= Duration::from_secs_f64(seconds)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64() * 1e3;
    r
}

/// `bench::run::run_manifest`, with a span around the experiment function
/// and one around the canonical renderer. The references check that the
/// bytes are the same.
fn dispatch_traced(m: &Manifest, tr: &mut Traced) -> String {
    let sizes = m.sizes_usize();
    let need = |v: Option<u64>| v.expect("normalized manifest");
    let kind = if m.deep { "e9_deep" } else { m.kind.as_str() };
    let mut fn_ms = 0.0;
    let body = match m.kind {
        K::E1 => {
            let sizes: Vec<u32> = sizes.iter().map(|&s| s as u32).collect();
            let rows = timed(&mut fn_ms, || ex::e1_cc_upper(&sizes, need(m.polls) as u32));
            timed(&mut tr.canon_ms, || canon::e1_json(&rows))
        }
        K::E2 => {
            let rows = timed(&mut fn_ms, || ex::e2_dsm_lower_with(&sizes, m.audit));
            add_phases(tr, rows.iter().map(|r| &r.timings));
            timed(&mut tr.canon_ms, || canon::e2_json(&rows))
        }
        K::E3 => {
            let rows = timed(&mut fn_ms, || {
                ex::e3_variants(need(m.waiters) as u32, need(m.polls) as u32)
            });
            timed(&mut tr.canon_ms, || canon::e3_json(&rows))
        }
        K::E4 => {
            let rows = timed(&mut fn_ms, || ex::e4_primitives(&sizes));
            timed(&mut tr.canon_ms, || canon::e4_json(&rows))
        }
        K::E5 => {
            let rows = timed(&mut fn_ms, || ex::e5_messages(need(m.n) as u32));
            tr.messages += rows.iter().map(|r| r.messages).sum::<u64>();
            timed(&mut tr.canon_ms, || canon::e5_json(&rows))
        }
        K::E6 => {
            let cycles = need(m.cycles);
            let rows = timed(&mut fn_ms, || ex::e6_mutex(&sizes, cycles));
            tr.passages += rows.iter().map(|r| r.n as u64 * cycles).sum::<u64>();
            timed(&mut tr.canon_ms, || canon::e6_json(&rows))
        }
        K::E7 => {
            let rows = timed(&mut fn_ms, || ex::e7_fixed_w(&sizes));
            timed(&mut tr.canon_ms, || canon::e7_json(&rows))
        }
        K::E8 => {
            let rows = timed(&mut fn_ms, || ex::e8_transformation_with(&sizes, m.audit));
            add_phases(tr, rows.iter().map(|r| &r.timings));
            timed(&mut tr.canon_ms, || canon::e8_json(&rows))
        }
        K::E9 => {
            let mut rows = timed(&mut fn_ms, || {
                if m.deep {
                    ex::e9_deep(m.mem_budget_usize())
                } else {
                    ex::e9_explore_with(
                        need(m.waiters) as usize,
                        need(m.max_polls),
                        m.mem_budget_usize(),
                    )
                }
            });
            rows.retain(|r| {
                m.algorithm.as_deref().is_none_or(|a| r.algorithm == a)
                    && m.model.as_deref().is_none_or(|mo| r.model == mo)
            });
            for r in &rows {
                tr.peak_visited_bytes = tr.peak_visited_bytes.max(r.peak_visited_bytes);
                tr.peak_frontier = tr.peak_frontier.max(r.peak_frontier);
            }
            timed(&mut tr.canon_ms, || canon::e9_json(&rows))
        }
        K::E10 => {
            let mut rows = timed(&mut fn_ms, || {
                ex::e10_pct_with(
                    &sizes,
                    need(m.max_polls),
                    need(m.seed),
                    m.mem_budget_usize(),
                )
            });
            rows.retain(|r| {
                m.algorithm.as_deref().is_none_or(|a| r.algorithm == a)
                    && m.model.as_deref().is_none_or(|mo| r.model == mo)
            });
            timed(&mut tr.canon_ms, || canon::e10_json(&rows))
        }
    };
    *tr.kind_ms.entry(kind).or_insert(0.0) += fn_ms;
    body
}

fn add_phases<'a>(
    tr: &mut Traced,
    timings: impl Iterator<Item = &'a shm_scenario::rows::PhaseTimings>,
) {
    for t in timings {
        tr.adversary_ms[0] += t.record_ms;
        tr.adversary_ms[1] += t.rounds_ms;
        tr.adversary_ms[2] += t.chase_ms;
        tr.adversary_ms[3] += t.discovery_ms;
    }
}
