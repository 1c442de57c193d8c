//! Schedulers: strategies for picking which process steps next.
//!
//! The paper's histories allow arbitrary interleavings ("process steps can
//! be scheduled arbitrarily", §2). Experiments use fair schedulers; the
//! lower-bound adversary constructs schedules by hand instead.

use crate::ids::ProcId;
use crate::rng::XorShift64;
use crate::sim::{Simulator, StepReport};

/// A scheduling strategy.
pub trait Scheduler {
    /// Chooses the next process to step, or `None` to stop (e.g. everyone
    /// has terminated).
    fn next(&mut self, sim: &Simulator) -> Option<ProcId>;
}

/// Fair round-robin over runnable processes.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler starting at process 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        let n = sim.n();
        for offset in 0..n {
            let i = (self.cursor + offset) % n;
            let pid = ProcId(i as u32);
            if sim.is_runnable(pid) {
                self.cursor = (i + 1) % n;
                return Some(pid);
            }
        }
        None
    }
}

/// Uniformly random choice among runnable processes, from a seeded RNG.
///
/// Deterministic for a fixed seed, so experiments are reproducible.
#[derive(Clone, Debug)]
pub struct SeededRandom {
    rng: XorShift64,
    /// Reused runnable-set buffer; cleared and refilled each step.
    buf: Vec<ProcId>,
}

impl SeededRandom {
    /// Creates a random scheduler with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SeededRandom {
            rng: XorShift64::new(seed),
            buf: Vec::new(),
        }
    }
}

impl Scheduler for SeededRandom {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        sim.runnable_into(&mut self.buf);
        if self.buf.is_empty() {
            None
        } else {
            Some(*self.rng.choose(&self.buf))
        }
    }
}

/// Probabilistic concurrency testing (PCT): a priority scheduler whose
/// random choices are all made up front, giving the classic
/// `1 / (n · k^(d−1))` detection guarantee for bugs of depth `d` within a
/// `k`-step budget.
///
/// Construction draws, from a seeded RNG:
/// - a random permutation of `n` distinct base priorities (all above any
///   change-point priority), and
/// - `d − 1` random *priority-change points*: step indices in `[0, k)`.
///
/// Every step schedules the highest-priority runnable process. When the
/// step counter hits a change point, the process that would have been
/// scheduled first has its priority dropped below every base priority
/// (change point `i` assigns priority `d − 1 − i`, so later drops sink
/// further), and the choice is re-evaluated.
///
/// The pick is O(1) amortized: processes are kept in descending priority
/// order behind a cursor that only moves past processes that are no longer
/// runnable, and the order is re-sorted only at the `d − 1` change points.
/// This relies on a process never becoming runnable again while one
/// scheduler drives a simulator (terminated and crashed are final under
/// [`run`]); a debug assertion checks it on every pick.
///
/// Deterministic for a fixed `(seed, n, d, k)`, so a PCT run is replayable
/// from its parameters alone.
#[derive(Clone, Debug)]
pub struct PctScheduler {
    /// Priority per process; higher wins. Distinct by construction.
    prio: Vec<u64>,
    /// Every process, by descending priority.
    order: Vec<ProcId>,
    /// Entries of `order` before this index are no longer runnable.
    cursor: usize,
    /// Sorted step indices at which the next scheduled process is deprioritized.
    change_at: Vec<u64>,
    /// Change points already consumed.
    next_change: usize,
    /// Steps scheduled so far.
    steps: u64,
}

impl PctScheduler {
    /// Creates a PCT scheduler for `n` processes with bug depth `d` over a
    /// `k`-step budget, drawing all randomness from `seed`.
    ///
    /// # Panics
    /// If `d == 0` (depth counts at least the final ordering constraint).
    #[must_use]
    pub fn new(seed: u64, n: usize, d: usize, k: u64) -> Self {
        assert!(d > 0, "PCT depth must be at least 1");
        let mut rng = XorShift64::new(seed);
        // Base priorities d-1+1 .. d-1+n (all above any change-point
        // priority d-1-i), assigned by a Fisher-Yates shuffle.
        let mut prio: Vec<u64> = (0..n as u64).map(|i| d as u64 + i).collect();
        for i in (1..n).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            prio.swap(i, j);
        }
        let mut change_at: Vec<u64> = (0..d - 1).map(|_| rng.below(k.max(1))).collect();
        change_at.sort_unstable();
        let mut sched = PctScheduler {
            prio,
            order: (0..n).map(|i| ProcId(i as u32)).collect(),
            cursor: 0,
            change_at,
            next_change: 0,
            steps: 0,
        };
        sched.rank();
        sched
    }

    /// Sorts `order` by descending priority and rewinds the cursor.
    fn rank(&mut self) {
        let prio = &self.prio;
        self.order
            .sort_unstable_by_key(|p| std::cmp::Reverse(prio[p.index()]));
        self.cursor = 0;
    }

    /// The highest-priority runnable process, if any.
    fn best(&mut self, sim: &Simulator) -> Option<ProcId> {
        debug_assert!(
            self.order[..self.cursor]
                .iter()
                .all(|&p| !sim.is_runnable(p)),
            "PCT: a process became runnable again mid-run"
        );
        while let Some(&p) = self.order.get(self.cursor) {
            if sim.is_runnable(p) {
                return Some(p);
            }
            self.cursor += 1;
        }
        None
    }
}

impl Scheduler for PctScheduler {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        let mut pid = self.best(sim)?;
        // Consume every change point due at this step: deprioritize the
        // process that would run and re-select.
        while self.next_change < self.change_at.len()
            && self.steps >= self.change_at[self.next_change]
        {
            self.prio[pid.index()] = (self.change_at.len() - self.next_change) as u64 - 1;
            self.next_change += 1;
            self.rank();
            pid = self.best(sim)?;
        }
        self.steps += 1;
        Some(pid)
    }
}

/// Runs only the given process (the paper's "solo" executions).
#[derive(Clone, Copy, Debug)]
pub struct Solo(pub ProcId);

impl Scheduler for Solo {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        sim.is_runnable(self.0).then_some(self.0)
    }
}

/// Replays a fixed sequence of process IDs, skipping non-runnable entries.
#[derive(Clone, Debug)]
pub struct Scripted {
    order: Vec<ProcId>,
    next: usize,
}

impl Scripted {
    /// Creates a scripted scheduler from an explicit step order.
    #[must_use]
    pub fn new(order: Vec<ProcId>) -> Self {
        Scripted { order, next: 0 }
    }
}

impl Scheduler for Scripted {
    fn next(&mut self, sim: &Simulator) -> Option<ProcId> {
        while self.next < self.order.len() {
            let pid = self.order[self.next];
            self.next += 1;
            if sim.is_runnable(pid) {
                return Some(pid);
            }
        }
        None
    }
}

/// Replays an explicit pid sequence exactly: each entry is stepped once, and
/// entries naming a non-runnable process are dropped silently (they record
/// nothing, matching [`Scripted`]'s skip semantics). Returns the number of
/// steps actually taken.
///
/// This is the schedule-space explorer's replay hook: a serialized
/// counterexample schedule — possibly with entries deleted by shrinking —
/// re-executes through here, and the steps that survive are exactly the
/// recorded [`Simulator::schedule`] of the replayed run.
pub fn run_exact(sim: &mut Simulator, order: &[ProcId]) -> u64 {
    let mut taken = 0;
    for &pid in order {
        match sim.step(pid) {
            StepReport::NotRunnable => {}
            _ => taken += 1,
        }
    }
    taken
}

/// Drives `sim` under `sched` until the scheduler stops or `max_steps` steps
/// have been taken. Returns the number of steps taken.
pub fn run(sim: &mut Simulator, sched: &mut dyn Scheduler, max_steps: u64) -> u64 {
    let mut taken = 0;
    while taken < max_steps {
        let Some(pid) = sched.next(sim) else { break };
        match sim.step(pid) {
            StepReport::NotRunnable => {}
            _ => taken += 1,
        }
    }
    taken
}

/// Runs until every process has terminated (or `max_steps` is exhausted).
/// Returns `true` if all processes finished.
pub fn run_to_completion(sim: &mut Simulator, sched: &mut dyn Scheduler, max_steps: u64) -> bool {
    run(sim, sched, max_steps);
    sim.all_done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CallKind, OpSequence};
    use crate::mem::MemLayout;
    use crate::model::CostModel;
    use crate::op::Op;
    use crate::sim::SimSpec;
    use crate::source::{Script, ScriptedCall};
    use std::sync::Arc;

    fn spec_with_counter_writers(n: usize) -> SimSpec {
        let mut layout = MemLayout::new();
        let c = layout.alloc_global(0);
        let sources = (0..n)
            .map(|_| {
                let call = ScriptedCall::new(
                    CallKind(0),
                    "inc",
                    Arc::new(move || Box::new(OpSequence::new(vec![Op::Faa(c, 1)]))),
                );
                Box::new(Script::new(vec![call])) as Box<dyn crate::source::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    #[test]
    fn round_robin_completes_everyone() {
        let spec = spec_with_counter_writers(5);
        let mut sim = crate::sim::Simulator::new(&spec);
        assert!(run_to_completion(&mut sim, &mut RoundRobin::new(), 10_000));
        assert_eq!(sim.memory().peek(crate::ids::Addr(0)), 5);
    }

    #[test]
    fn seeded_random_is_deterministic() {
        let spec = spec_with_counter_writers(4);
        let run_once = |seed| {
            let mut sim = crate::sim::Simulator::new(&spec);
            run_to_completion(&mut sim, &mut SeededRandom::new(seed), 10_000);
            sim.schedule().to_vec()
        };
        assert_eq!(run_once(7), run_once(7));
        // Two seeds almost surely give different schedules for 4 processes.
        assert_ne!(run_once(7), run_once(8));
    }

    #[test]
    fn solo_runs_only_one_process() {
        let spec = spec_with_counter_writers(3);
        let mut sim = crate::sim::Simulator::new(&spec);
        run(&mut sim, &mut Solo(ProcId(1)), 10_000);
        assert_eq!(sim.memory().peek(crate::ids::Addr(0)), 1);
        assert!(sim.history().participants().iter().all(|&p| p == ProcId(1)));
    }

    #[test]
    fn scripted_follows_order_and_skips_dead() {
        let spec = spec_with_counter_writers(2);
        let mut sim = crate::sim::Simulator::new(&spec);
        let order = vec![ProcId(0); 10]
            .into_iter()
            .chain(vec![ProcId(1); 10])
            .collect();
        let mut sched = Scripted::new(order);
        run(&mut sim, &mut sched, 10_000);
        assert!(sim.all_done());
    }

    #[test]
    fn pct_is_deterministic_and_complete() {
        let spec = spec_with_counter_writers(4);
        let run_once = |seed| {
            let mut sim = crate::sim::Simulator::new(&spec);
            let mut sched = PctScheduler::new(seed, 4, 3, 10_000);
            run_to_completion(&mut sim, &mut sched, 10_000);
            (
                sim.schedule().to_vec(),
                sim.memory().peek(crate::ids::Addr(0)),
            )
        };
        let (sched_a, sum_a) = run_once(11);
        assert_eq!((sched_a.clone(), sum_a), run_once(11));
        assert_eq!(sum_a, 4, "priority scheduling still completes everyone");
        // Different seeds almost surely permute priorities differently.
        assert_ne!(sched_a, run_once(12).0);
    }

    #[test]
    fn pct_priorities_are_distinct_and_drops_sink() {
        let sched = PctScheduler::new(99, 8, 4, 500);
        let mut seen = sched.prio.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "base priorities are distinct");
        assert!(sched.prio.iter().all(|&p| p >= 4), "bases above drop range");
        assert_eq!(sched.change_at.len(), 3, "d-1 change points");
        assert!(sched.change_at.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn pct_depth_one_never_preempts_by_priority() {
        // d = 1 means no change points: the highest-priority runnable
        // process runs solo until it blocks or finishes.
        let spec = spec_with_counter_writers(3);
        let mut sim = crate::sim::Simulator::new(&spec);
        let mut sched = PctScheduler::new(5, 3, 1, 1000);
        run_to_completion(&mut sim, &mut sched, 1000);
        let schedule = sim.schedule().to_vec();
        // Each process's steps form one contiguous run.
        let mut seen_done: Vec<ProcId> = Vec::new();
        for w in schedule.windows(2) {
            if w[0] != w[1] {
                assert!(
                    !seen_done.contains(&w[1]),
                    "process resumed after preemption"
                );
                seen_done.push(w[0]);
            }
        }
    }

    /// Like [`spec_with_counter_writers`], but process `i` performs
    /// `lens[i]` increments, so processes terminate at different steps.
    fn spec_with_lengths(lens: &[usize]) -> SimSpec {
        let mut layout = MemLayout::new();
        let c = layout.alloc_global(0);
        let sources = lens
            .iter()
            .map(|&len| {
                let call = ScriptedCall::new(
                    CallKind(0),
                    "inc",
                    Arc::new(move || Box::new(OpSequence::new(vec![Op::Faa(c, 1); len]))),
                );
                Box::new(Script::new(vec![call])) as Box<dyn crate::source::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    /// The cursor pick equals the direct O(n) pick — the highest-priority
    /// runnable process by `max_by_key`, with the same change-point rule —
    /// at every step, across seeds, population sizes, depths, change points
    /// inside the run, and processes terminating along the way.
    #[test]
    fn pct_cursor_pick_matches_max_by_key_reference() {
        let mut rng = XorShift64::new(0x9C7);
        let mut changes_inside = 0;
        for &n in &[1usize, 2, 9, 33] {
            for d in 1..=3usize {
                for _ in 0..8 {
                    let lens: Vec<usize> = (0..n).map(|_| 1 + rng.below(12) as usize).collect();
                    let spec = spec_with_lengths(&lens);
                    let mut probe = crate::sim::Simulator::new(&spec);
                    let k = run(&mut probe, &mut RoundRobin::new(), u64::MAX);
                    let seed = rng.next_u64();
                    let mut sched = PctScheduler::new(seed, n, d, k);
                    // The reference: the scheduler's own priorities and
                    // change points, picked by a full scan every step.
                    let mut prio = sched.prio.clone();
                    let change_at = sched.change_at.clone();
                    let mut next_change = 0;
                    let best = |prio: &[u64], sim: &crate::sim::Simulator| {
                        (0..n)
                            .map(|i| ProcId(i as u32))
                            .filter(|&p| sim.is_runnable(p))
                            .max_by_key(|p| prio[p.index()])
                    };
                    let mut sim = crate::sim::Simulator::new(&spec);
                    for step in 0u64.. {
                        let mut want = best(&prio, &sim);
                        while let Some(p) = want {
                            if next_change == change_at.len() || step < change_at[next_change] {
                                break;
                            }
                            prio[p.index()] = (change_at.len() - next_change) as u64 - 1;
                            next_change += 1;
                            want = best(&prio, &sim);
                        }
                        let got = sched.next(&sim);
                        assert_eq!(got, want, "seed {seed} n {n} d {d} step {step}");
                        let Some(p) = got else { break };
                        sim.step(p);
                    }
                    assert!(sim.all_done());
                    if d > 1 && next_change == d - 1 {
                        changes_inside += 1;
                    }
                }
            }
        }
        assert!(changes_inside > 40, "change points fired mid-run");
    }

    #[test]
    fn run_respects_step_budget() {
        let spec = spec_with_counter_writers(5);
        let mut sim = crate::sim::Simulator::new(&spec);
        let taken = run(&mut sim, &mut RoundRobin::new(), 3);
        assert_eq!(taken, 3);
        assert!(!sim.all_done());
    }
}
