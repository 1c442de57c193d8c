//! The simulator: deterministic execution of step machines over shared
//! memory with exact cost accounting, schedule recording, and replay.

use crate::event::{fp_absorb, Event, History, FP_EMPTY};
use crate::ids::{ProcId, Word};
use crate::machine::{Call, CallKind, Step};
use crate::mem::{MemLayout, Memory};
use crate::model::{AccessCost, CostModel, CostState};
use crate::op::Op;
use crate::source::CallSource;
use crate::statefp::{hash_block, FpCache, CELL_WORDS, PROC_WORDS};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything needed to (re)start an execution from the initial state.
///
/// Replaying a recorded schedule against a fresh simulator built from the
/// same spec reproduces the execution exactly; replaying it with some
/// processes *erased* implements Lemma 6.7's history surgery.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// The shared-memory allocation plan.
    pub layout: MemLayout,
    /// Per-process call sources; `sources.len()` is the number of processes.
    pub sources: Vec<Box<dyn CallSource>>,
    /// The cost model to price accesses under.
    pub model: CostModel,
}

impl SimSpec {
    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.sources.len()
    }
}

/// Execution status of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Still able to take steps.
    Runnable,
    /// Call source exhausted; the process terminated normally.
    Terminated,
    /// Stopped while performing a procedure call.
    Crashed,
}

/// Per-process statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProcStats {
    /// Steps taken (state-machine transitions, including returns).
    pub steps: u64,
    /// Memory accesses performed.
    pub accesses: u64,
    /// Remote memory references incurred.
    pub rmrs: u64,
    /// Interconnect messages generated.
    pub messages: u64,
    /// Procedure calls completed.
    pub calls_completed: u64,
}

/// Aggregate statistics for the whole execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Totals {
    /// Steps taken by all processes.
    pub steps: u64,
    /// Memory accesses performed by all processes.
    pub accesses: u64,
    /// Total RMRs.
    pub rmrs: u64,
    /// Total interconnect messages.
    pub messages: u64,
    /// Total cache invalidations (CC models only).
    pub invalidations: u64,
}

/// What one `step` call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepReport {
    /// The process performed a memory access.
    Access {
        /// The operation performed.
        op: Op,
        /// The operation's result word.
        result: Word,
        /// The access's price.
        cost: AccessCost,
    },
    /// The process's current call returned.
    Returned {
        /// Domain tag of the completed call.
        kind: CallKind,
        /// Returned word.
        value: Word,
    },
    /// The process terminated (its source is exhausted).
    Terminated,
    /// The process was not runnable; nothing happened and the step was not
    /// recorded in the schedule.
    NotRunnable,
}

/// What one *single* `step` call would do next (see
/// [`Simulator::peek_transition`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionPeek {
    /// The step will perform this memory access.
    Access(Op),
    /// The step will complete the current (or immediately invoked) call.
    Return {
        /// Domain tag of the completing call.
        kind: CallKind,
        /// The value it will return.
        value: Word,
    },
    /// The step will terminate the process.
    WillTerminate,
    /// The process is not runnable.
    NotRunnable,
}

/// What the next effective step of a process will be (computed without
/// touching shared memory; see [`Simulator::peek_next_op`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Peek {
    /// The next memory access the process will perform (possibly after one
    /// or more intervening return/invoke steps).
    Access(Op),
    /// The process will terminate without performing another access.
    WillTerminate,
    /// The process is not runnable.
    NotRunnable,
}

#[derive(Clone, Debug)]
pub(crate) struct ProcState {
    pub(crate) source: Box<dyn CallSource>,
    pub(crate) current: Option<Call>,
    pub(crate) last_op_result: Option<Word>,
    pub(crate) last_return: Option<Word>,
    pub(crate) status: Status,
    pub(crate) stats: ProcStats,
}

/// An injected call, recorded so filtered replay can re-apply it.
///
/// `at` is the schedule position the injection preceded: the call was
/// injected after schedule entry `at - 1` executed and before entry `at`.
#[derive(Clone, Debug)]
pub(crate) struct Injection {
    pub(crate) at: usize,
    pub(crate) pid: ProcId,
    pub(crate) call: Call,
}

/// An O(live-state) snapshot of a [`Simulator`] mid-execution: memory
/// cells, cost-model validity state, per-process call state and stats,
/// aggregate totals, and the per-process projection fingerprints — but
/// *not* the event log or the schedule (both stay in the recording
/// simulator).
///
/// Taken every [`Simulator::enable_checkpoints`] interval during recording,
/// checkpoints let an erasure replay only the schedule suffix after the
/// erased process's first step ([`Simulator::filtered_replay`]) instead of
/// the whole execution — the incremental replay engine the lower-bound
/// adversary runs on.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    schedule_len: usize,
    history_len: usize,
    memory: Memory,
    cost: CostState,
    procs: Vec<Arc<ProcState>>,
    totals: Totals,
    injected: u64,
    proj_hash: Vec<u128>,
    first_touch: Vec<Option<usize>>,
    first_write: Vec<Option<usize>>,
    injections_len: usize,
    /// The incremental fingerprint cache, stale-block marks included.
    fp: FpCache,
}

impl Checkpoint {
    /// Number of schedule entries the checkpoint covers.
    #[must_use]
    pub fn schedule_len(&self) -> usize {
        self.schedule_len
    }

    /// Number of history events the checkpoint covers.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// The snapshotted memory image (audit chunk seeding).
    pub(crate) fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The snapshotted cost-model state (audit chunk seeding).
    pub(crate) fn cost(&self) -> &CostState {
        &self.cost
    }

    /// The snapshotted per-process machines (audit chunk seeding).
    pub(crate) fn procs(&self) -> &[Arc<ProcState>] {
        &self.procs
    }

    /// The snapshotted aggregate totals (audit chunk seeding).
    pub(crate) fn totals(&self) -> Totals {
        self.totals
    }
}

/// Deterministic shared-memory simulator.
///
/// A `Simulator` advances processes one step at a time under the control of
/// a scheduler (or the lower-bound adversary), records the schedule and a
/// typed [`History`], and prices every access under its [`CostModel`].
///
/// Cloning a simulator snapshots the *entire* execution state — memory,
/// caches, process machines, history — which the adversary uses for
/// tentative exploration.
///
/// # Examples
///
/// ```
/// use shm_sim::{CostModel, MemLayout, Op, OpSequence, Script, ScriptedCall, CallKind, SimSpec, Simulator, ProcId};
/// use std::sync::Arc;
///
/// let mut layout = MemLayout::new();
/// let flag = layout.alloc_global(0);
/// let writer = Script::new(vec![ScriptedCall::new(
///     CallKind(0),
///     "set",
///     Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
/// )]);
/// let spec = SimSpec { layout, sources: vec![Box::new(writer)], model: CostModel::Dsm };
/// let mut sim = Simulator::new(&spec);
/// while sim.step(ProcId(0)) != shm_sim::StepReport::NotRunnable {}
/// assert_eq!(sim.memory().peek(flag), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    memory: Memory,
    cost: CostState,
    /// Per-process machines, copy-on-write: snapshots and replays share
    /// them by refcount, and [`Arc::make_mut`] clones a process's state
    /// only when it actually steps. An early-aborting certification replay
    /// therefore deep-clones just the processes that move before the
    /// divergence, not all `n`.
    procs: Vec<Arc<ProcState>>,
    history: History,
    schedule: Vec<ProcId>,
    totals: Totals,
    injected: u64,
    /// `first_touch[p]` = schedule index of p's first step, if any.
    first_touch: Vec<Option<usize>>,
    /// `first_write[p]` = schedule index of p's first *nontrivial* (memory-
    /// mutating) access, if any. Trivial accesses touch no survivor-visible
    /// state, so a certification replay only needs to re-execute from here
    /// rather than from the process's first step (see `replay_tail`).
    first_write: Vec<Option<usize>>,
    /// Injected calls in injection order (`at` is nondecreasing).
    injections: Vec<Injection>,
    /// Periodic snapshots in increasing `schedule_len` order. `Rc` so
    /// replayed simulators can carry the prefix checkpoints by reference
    /// instead of deep-cloning O(checkpoints x live state) per erasure.
    checkpoints: Vec<Arc<Checkpoint>>,
    /// Steps between snapshots; 0 = checkpointing disabled.
    ckpt_interval: usize,
    /// Block hashes behind [`Simulator::incremental_fingerprint`]; off
    /// until its first call.
    fp: FpCache,
}

/// Whether every process outside `batch` has the same projection
/// fingerprint in `a` and `b` — Lemma 6.7's survivor condition, read in one
/// pass over each history's pending tail.
fn survivors_agree(a: &History, b: &History, batch: &BTreeSet<ProcId>) -> bool {
    let (fa, fb) = (a.fingerprints(), b.fingerprints());
    let at = |f: &[u128], i: usize| f.get(i).copied().unwrap_or(FP_EMPTY);
    (0..fa.len().max(fb.len()))
        .all(|i| batch.contains(&ProcId(i as u32)) || at(&fa, i) == at(&fb, i))
}

impl Simulator {
    /// Maximum internal transitions `peek_next_op` will look through before
    /// concluding the process loops forever without accessing memory.
    const PEEK_LIMIT: usize = 65_536;

    /// Builds a fresh simulator in the initial state of `spec`.
    #[must_use]
    pub fn new(spec: &SimSpec) -> Self {
        let memory = Memory::from_layout(&spec.layout);
        let cost = CostState::new(spec.model, spec.n(), spec.layout.len());
        let procs = spec
            .sources
            .iter()
            .map(|s| {
                Arc::new(ProcState {
                    source: s.clone(),
                    current: None,
                    last_op_result: None,
                    last_return: None,
                    status: Status::Runnable,
                    stats: ProcStats::default(),
                })
            })
            .collect();
        let n = spec.n();
        Simulator {
            memory,
            cost,
            procs,
            history: History::new(),
            schedule: Vec::new(),
            totals: Totals::default(),
            injected: 0,
            first_touch: vec![None; n],
            first_write: vec![None; n],
            injections: Vec::new(),
            checkpoints: Vec::new(),
            ckpt_interval: 0,
            fp: FpCache::default(),
        }
    }

    /// Replays `schedule` against a fresh simulator built from `spec`,
    /// skipping all steps of processes in `erased`.
    ///
    /// This is the executable form of *erasing* (Lemma 6.7): because step
    /// machines are deterministic and only communicate through memory, the
    /// filtered replay is a legal history, and it is identical (from every
    /// surviving process's point of view) whenever no survivor saw an erased
    /// process.
    #[must_use]
    pub fn replay(
        spec: &SimSpec,
        schedule: &[ProcId],
        erased: &std::collections::BTreeSet<ProcId>,
    ) -> Self {
        let mut sim = Simulator::new(spec);
        for &pid in schedule {
            if !erased.contains(&pid) {
                let _ = sim.step(pid);
            }
        }
        sim
    }

    /// Maximum checkpoints retained before thinning (drop every other one and
    /// double the interval). Bounds checkpoint memory to O(96 × live state).
    const MAX_CHECKPOINTS: usize = 96;

    /// Turns on periodic checkpointing every `interval` steps (0 disables).
    ///
    /// An initial checkpoint of the *current* state is taken immediately, so
    /// incremental replay always has a base to start from even when the
    /// erased process's first step predates every periodic snapshot.
    pub fn enable_checkpoints(&mut self, interval: usize) {
        self.ckpt_interval = interval;
        if interval > 0 && self.checkpoints.is_empty() {
            let snap = self.snapshot();
            self.checkpoints.push(Arc::new(snap));
        }
    }

    /// The configured checkpoint interval (0 = disabled).
    #[must_use]
    pub fn checkpoint_interval(&self) -> usize {
        self.ckpt_interval
    }

    /// Number of checkpoints currently retained.
    #[must_use]
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Schedule index of `pid`'s first step, if it has taken one.
    #[must_use]
    pub fn first_step_of(&self, pid: ProcId) -> Option<usize> {
        self.first_touch[pid.index()]
    }

    /// Captures the current execution state as an O(live-state) checkpoint.
    ///
    /// The checkpoint holds memory, cost state, process machines, totals and
    /// the history's per-process fingerprints — everything needed to resume
    /// stepping — but not the event log or schedule, which remain in `self`.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        let _span = shm_obs::Span::enter("sim.snapshot");
        shm_obs::counter!("ckpt.snapshot");
        Checkpoint {
            schedule_len: self.schedule.len(),
            history_len: self.history.len(),
            memory: self.memory.clone(),
            cost: self.cost.clone(),
            procs: self.procs.clone(),
            totals: self.totals,
            injected: self.injected,
            proj_hash: self.history.fingerprints(),
            first_touch: self.first_touch.clone(),
            first_write: self.first_write.clone(),
            injections_len: self.injections.len(),
            fp: self.fp.clone(),
        }
    }

    /// [`Simulator::snapshot`] recycling a previously returned checkpoint's
    /// allocations. Exploration loops snapshot every expanded node; pooling
    /// the checkpoints makes that allocation-free at steady state.
    ///
    /// Also brings the [`Simulator::incremental_fingerprint`] cache up to
    /// date first (building it if it is off), so a restore to this
    /// checkpoint leaves only the blocks stepped after it to rehash.
    #[must_use]
    pub fn snapshot_reuse(&mut self, prev: Option<Checkpoint>) -> Checkpoint {
        self.freshen_fp();
        let Some(mut c) = prev else {
            return self.snapshot();
        };
        let _span = shm_obs::Span::enter("sim.snapshot");
        shm_obs::counter!("ckpt.snapshot");
        c.schedule_len = self.schedule.len();
        c.history_len = self.history.len();
        c.memory.copy_from(&self.memory);
        c.cost.copy_from(&self.cost);
        if c.procs.len() == self.procs.len() {
            for (dst, src) in c.procs.iter_mut().zip(&self.procs) {
                if !Arc::ptr_eq(dst, src) {
                    *dst = Arc::clone(src);
                }
            }
        } else {
            c.procs.clone_from(&self.procs);
        }
        c.totals = self.totals;
        c.injected = self.injected;
        self.history.fingerprints_into(&mut c.proj_hash);
        c.first_touch.clone_from(&self.first_touch);
        c.first_write.clone_from(&self.first_write);
        c.injections_len = self.injections.len();
        c.fp.copy_from(&self.fp);
        c
    }

    /// Rolls this simulator back to `ckpt`, which must have been taken from
    /// this simulator (or an ancestor clone): the schedule and event log up
    /// to the checkpoint must be the ones the checkpoint was taken under.
    ///
    /// The schedule and history are truncated to the checkpoint; checkpoints
    /// newer than `ckpt` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `ckpt` is from a longer execution than `self` currently
    /// holds (i.e. it does not describe a prefix of this simulator).
    pub fn restore(&mut self, ckpt: &Checkpoint) {
        let _span = shm_obs::Span::enter("sim.restore");
        shm_obs::counter!("ckpt.restore");
        assert!(
            ckpt.schedule_len <= self.schedule.len() && ckpt.history_len <= self.history.len(),
            "restore: checkpoint does not describe a prefix of this execution"
        );
        self.memory.copy_from(&ckpt.memory);
        self.cost.copy_from(&ckpt.cost);
        if self.procs.len() == ckpt.procs.len() {
            // Fast path for the explorer's step/rollback cycle: only the
            // processes that actually stepped since the checkpoint hold
            // diverged machines; everyone else still shares the snapshot's
            // `Arc` and needs no refcount traffic at all.
            for (dst, src) in self.procs.iter_mut().zip(&ckpt.procs) {
                if !Arc::ptr_eq(dst, src) {
                    *dst = Arc::clone(src);
                }
            }
        } else {
            self.procs.clone_from(&ckpt.procs);
        }
        self.totals = ckpt.totals;
        self.injected = ckpt.injected;
        self.schedule.truncate(ckpt.schedule_len);
        self.history.rewind(ckpt.history_len, &ckpt.proj_hash);
        self.first_touch.clone_from(&ckpt.first_touch);
        self.first_write.clone_from(&ckpt.first_write);
        self.injections.truncate(ckpt.injections_len);
        self.fp.copy_from(&ckpt.fp);
        self.checkpoints
            .retain(|c| c.schedule_len <= ckpt.schedule_len);
    }

    fn maybe_checkpoint(&mut self) {
        if self.ckpt_interval == 0 || self.schedule.len() % self.ckpt_interval != 0 {
            return;
        }
        if self.checkpoints.len() >= Self::MAX_CHECKPOINTS {
            // Thin: keep every other checkpoint and double the interval so
            // memory stays bounded while coverage stays roughly uniform.
            let mut keep = 0usize;
            self.checkpoints.retain(|_| {
                keep += 1;
                (keep - 1) % 2 == 0
            });
            self.ckpt_interval *= 2;
            if self.schedule.len() % self.ckpt_interval != 0 {
                return;
            }
        }
        self.history.flush();
        let snap = self.snapshot();
        self.checkpoints.push(Arc::new(snap));
    }

    /// Builds a simulator resuming from `ckpt`, with this simulator's
    /// schedule prefix and per-checkpoint bookkeeping carried over.
    fn resume_at(&self, ckpt: &Checkpoint) -> Simulator {
        Simulator {
            memory: ckpt.memory.clone(),
            cost: ckpt.cost.clone(),
            procs: ckpt.procs.clone(),
            history: History::seeded(ckpt.proj_hash.clone()),
            schedule: self.schedule[..ckpt.schedule_len].to_vec(),
            totals: ckpt.totals,
            injected: ckpt.injected,
            first_touch: ckpt.first_touch.clone(),
            first_write: ckpt.first_write.clone(),
            injections: self.injections[..ckpt.injections_len].to_vec(),
            checkpoints: self
                .checkpoints
                .iter()
                .filter(|c| c.schedule_len <= ckpt.schedule_len)
                .cloned()
                .collect(),
            ckpt_interval: self.ckpt_interval,
            fp: FpCache::default(),
        }
    }

    /// Replays this simulator's recorded schedule with `erased` filtered
    /// out, starting from the latest checkpoint that precedes every erased
    /// process's first step (and every injection targeting an erased
    /// process). Injections into surviving processes are re-applied at their
    /// recorded positions.
    ///
    /// Returns `(replayed, start, prefix_events)`: the replayed simulator,
    /// the schedule position it resumed from, and the length (in events) of
    /// the shared history prefix it did *not* re-execute. The returned
    /// simulator's history holds only suffix events, with fingerprints
    /// covering prefix + suffix. Use [`Simulator::filtered_replay`] for a
    /// spliced full history.
    ///
    /// With `certify`, the replay additionally checks — online, event by
    /// event — that every surviving process reproduces its recorded
    /// projection, returning `None` at the *first* divergent event. This is
    /// what makes refused erasures cheap: an FAA-entangled survivor
    /// diverges within a few steps of the splice point, so the adversary
    /// pays O(divergence) instead of O(history) to learn the erasure is
    /// unsound.
    fn replay_tail(
        &self,
        spec: &SimSpec,
        erased: &BTreeSet<ProcId>,
        certify: bool,
    ) -> Option<(Simulator, usize, usize)> {
        // The replay diverges from the recorded execution at the first
        // schedule position where an erased process acted or was injected
        // into; any checkpoint at or before that point is still valid.
        let mut splice = self.schedule.len();
        for &pid in erased {
            if let Some(t) = self.first_touch[pid.index()] {
                splice = splice.min(t);
            }
        }
        for inj in &self.injections {
            if erased.contains(&inj.pid) {
                splice = splice.min(inj.at);
            }
        }
        let base = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.schedule_len <= splice);
        if certify {
            // Survivor-visible state can only diverge at an erased process's
            // first *nontrivial* access: trivial accesses change no value,
            // writer, or other process's reservation. So the certification
            // verdict from any checkpoint at or before that point is exact.
            // When such a checkpoint is strictly later than `base`, run a
            // throwaway certification probe from it first — a refusal then
            // costs a fraction of the full suffix — and re-execute the real
            // suffix (which must start before the erased processes' first
            // steps so their events vanish from the log) only on acceptance.
            let mut wsplice = self.schedule.len();
            for &pid in erased {
                if let Some(t) = self.first_write[pid.index()] {
                    wsplice = wsplice.min(t);
                }
            }
            let wbase = self
                .checkpoints
                .iter()
                .rev()
                .find(|c| c.schedule_len <= wsplice);
            if wbase.map_or(0, |c| c.schedule_len) > base.map_or(0, |c| c.schedule_len) {
                self.run_filtered(spec, wbase.map(Arc::as_ref), erased, true, true)?;
                return self.run_filtered(spec, base.map(Arc::as_ref), erased, false, false);
            }
        }
        self.run_filtered(spec, base.map(Arc::as_ref), erased, certify, false)
    }

    /// The filtered-replay loop behind [`Simulator::replay_tail`]: replays
    /// this simulator's recorded schedule from `base` (or from scratch) with
    /// `erased` filtered out, re-applying injections into survivors at their
    /// recorded positions. With `certify`, every emitted event is compared
    /// online against the recorded log and the first divergence returns
    /// `None`. With `probe`, the replayed simulator skips checkpointing
    /// (used for throwaway certification passes whose state is discarded).
    fn run_filtered(
        &self,
        spec: &SimSpec,
        base: Option<&Checkpoint>,
        erased: &BTreeSet<ProcId>,
        certify: bool,
        probe: bool,
    ) -> Option<(Simulator, usize, usize)> {
        let mut sim = match base {
            Some(c) => self.resume_at(c),
            None => {
                let mut fresh = Simulator::new(spec);
                fresh.enable_checkpoints(self.ckpt_interval);
                fresh
            }
        };
        if probe {
            sim.ckpt_interval = 0;
        }
        let start = sim.schedule.len();
        let prefix_events = base.map_or(0, |c| c.history_len);
        let recorded = &self.history;
        // Certification cursors: `produced` into the replayed suffix log,
        // `expect` into the recorded log (skipping erased processes'
        // events, which the filtered replay must not reproduce).
        let mut produced = 0usize;
        let mut expect = prefix_events;
        // `at` is nondecreasing, so the first injection to re-apply is the
        // first one at position >= start.
        let mut next_inj = self.injections.partition_point(|inj| inj.at < start);
        for i in start..self.schedule.len() {
            while next_inj < self.injections.len() && self.injections[next_inj].at <= i {
                let inj = &self.injections[next_inj];
                next_inj += 1;
                if !erased.contains(&inj.pid) {
                    sim.inject_call(inj.pid, inj.call.clone());
                }
            }
            let pid = self.schedule[i];
            if !erased.contains(&pid) {
                let _ = sim.step(pid);
            }
            if certify
                && !Self::certify_drain(recorded, erased, &sim.history, &mut produced, &mut expect)
            {
                return None;
            }
        }
        // Injections recorded after the last schedule entry.
        while next_inj < self.injections.len() {
            let inj = &self.injections[next_inj];
            next_inj += 1;
            if !erased.contains(&inj.pid) {
                sim.inject_call(inj.pid, inj.call.clone());
            }
        }
        if certify {
            if !Self::certify_drain(recorded, erased, &sim.history, &mut produced, &mut expect) {
                return None;
            }
            // The replay consumed the whole filtered schedule; any surviving
            // projected event still unmatched in the recording means the
            // replay produced *fewer* events than recorded — divergence.
            while expect < recorded.len() {
                let e = recorded.event(expect);
                if !erased.contains(&e.pid()) && Self::event_projects(e) {
                    return None;
                }
                expect += 1;
            }
        }
        Some((sim, start, prefix_events))
    }

    /// Whether an event contributes to a process's projection (mirrors
    /// [`History::projection`]: `Terminate`/`Crash` do not project).
    fn event_projects(e: &Event) -> bool {
        !matches!(e, Event::Terminate { .. } | Event::Crash { .. })
    }

    /// Projection-level equality of two events: same process and same
    /// projected content. Cost, `sees`/`touches` attribution and the
    /// `wrote` flag may legitimately differ under erasure (they depend on
    /// the erased processes' accesses, not on the survivor's own view), so
    /// they are excluded — exactly as in [`History::projection`].
    fn same_projected(a: &Event, b: &Event) -> bool {
        match (a, b) {
            (
                Event::Invoke {
                    pid: p1, kind: k1, ..
                },
                Event::Invoke {
                    pid: p2, kind: k2, ..
                },
            ) => p1 == p2 && k1 == k2,
            (
                Event::Return {
                    pid: p1,
                    kind: k1,
                    value: v1,
                },
                Event::Return {
                    pid: p2,
                    kind: k2,
                    value: v2,
                },
            ) => p1 == p2 && k1 == k2 && v1 == v2,
            (
                Event::Access {
                    pid: p1,
                    op: o1,
                    result: r1,
                    ..
                },
                Event::Access {
                    pid: p2,
                    op: o2,
                    result: r2,
                    ..
                },
            ) => p1 == p2 && o1 == o2 && r1 == r2,
            _ => false,
        }
    }

    /// Advances the online certification cursors over events the replay
    /// emitted since the last drain, matching each against the next
    /// surviving projected event of the recording. Returns `false` on the
    /// first mismatch.
    fn certify_drain(
        recorded: &History,
        erased: &BTreeSet<ProcId>,
        suffix: &History,
        produced: &mut usize,
        expect: &mut usize,
    ) -> bool {
        while *produced < suffix.len() {
            let e = suffix.event(*produced);
            *produced += 1;
            if !Self::event_projects(e) {
                continue;
            }
            while *expect < recorded.len()
                && (erased.contains(&recorded.event(*expect).pid())
                    || !Self::event_projects(recorded.event(*expect)))
            {
                *expect += 1;
            }
            if *expect >= recorded.len() || !Self::same_projected(e, recorded.event(*expect)) {
                return false;
            }
            *expect += 1;
        }
        true
    }

    /// After a suffix replay is spliced onto a prefix of `prefix_events`
    /// events, checkpoints created *during* the suffix replay (those past
    /// `start`) recorded history lengths relative to the seeded (empty)
    /// suffix log; rebase them onto the spliced log.
    fn rebase_suffix_checkpoints(sim: &mut Simulator, start: usize, prefix_events: usize) {
        for c in &mut sim.checkpoints {
            if c.schedule_len > start {
                Arc::make_mut(c).history_len += prefix_events;
            }
        }
    }

    /// Incremental form of [`Simulator::replay`]: replays this simulator's
    /// own recorded schedule (and injections) with `erased` filtered out,
    /// reusing the longest valid checkpointed prefix instead of starting
    /// from scratch.
    ///
    /// The returned simulator's history is the full spliced event log
    /// (prefix events verbatim + re-executed suffix), and its state is
    /// exactly what [`Simulator::replay`] would produce — verified by the
    /// determinism-contract tests.
    #[must_use]
    pub fn filtered_replay(&self, spec: &SimSpec, erased: &BTreeSet<ProcId>) -> Simulator {
        let (mut sim, start, prefix_events) = self
            .replay_tail(spec, erased, false)
            .expect("uncertified replay cannot fail");
        if prefix_events > 0 {
            let suffix = std::mem::take(&mut sim.history);
            sim.history = History::spliced(&self.history, prefix_events, suffix);
            Self::rebase_suffix_checkpoints(&mut sim, start, prefix_events);
        }
        sim
    }

    /// Attempts to erase `batch` from this execution, certifying that every
    /// surviving process's projection is unchanged (Lemma 6.7's soundness
    /// condition). Returns the replayed simulator on success, `None` if any
    /// survivor's projection differs.
    ///
    /// Certification is streamed: the replay compares every event it emits
    /// against the recorded log as it goes and aborts at the first
    /// divergence, so a refused erasure costs O(steps to divergence), not
    /// O(history). The per-process rolling-hash fingerprints double-check
    /// the accepted result in O(1) per process, and an exact projection
    /// cross-check runs in debug builds (or in release builds when the
    /// `exact-fingerprints` cargo feature is enabled).
    #[must_use]
    pub fn erase_certified(&self, spec: &SimSpec, batch: &BTreeSet<ProcId>) -> Option<Simulator> {
        let (tail, start, prefix_events) = self.replay_tail(spec, batch, true)?;
        if !survivors_agree(&tail.history, &self.history, batch) {
            return None;
        }
        let mut sim = tail;
        if prefix_events > 0 {
            let suffix = std::mem::take(&mut sim.history);
            sim.history = History::spliced(&self.history, prefix_events, suffix);
            Self::rebase_suffix_checkpoints(&mut sim, start, prefix_events);
        }
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        for i in 0..self.n() {
            let p = ProcId(i as u32);
            if !batch.contains(&p) {
                assert_eq!(
                    sim.history.projection(p),
                    self.history.projection(p),
                    "fingerprint collision: projection of {p} changed under erasure"
                );
            }
        }
        Some(sim)
    }

    /// In-place form of [`Simulator::erase_certified`], the one the
    /// adversary's hot loop uses. On success the erasure is applied to
    /// `self`; on refusal (`false`) `self` is unchanged.
    ///
    /// Under the DSM model this runs entirely at the event level — no step
    /// machine is re-executed. A survivor's machine state is a function of
    /// the results it has observed, so it suffices to re-apply the recorded
    /// `Access` ops of survivors against a filtered memory image (seeded
    /// from the latest checkpoint preceding the erased processes' first
    /// nontrivial write) and compare each result with the recording: the
    /// first mismatch is exactly the first projection divergence, and a
    /// mismatch-free walk proves every surviving projection is unchanged
    /// (Lemma 6.7's condition). Acceptance is then applied by surgery —
    /// memory takes the walk's image, the erased events/steps are filtered
    /// out of the log and schedule, and the erased machines reset — instead
    /// of replaying the execution. DSM access costs depend only on the
    /// static cell placement, so survivor stats are reused verbatim; under
    /// CC models (where erasure changes cache-validity history) this falls
    /// back to the replay-based path.
    pub fn erase_certified_in_place(&mut self, spec: &SimSpec, batch: &BTreeSet<ProcId>) -> bool {
        let _span = shm_obs::Span::enter("sim.erase");
        self.fp.invalidate();
        if self.cost.model() != CostModel::Dsm {
            let ok = self.erase_certified_in_place_replay(spec, batch);
            shm_obs::count(if ok { "erase.replay" } else { "erase.refused" }, 1);
            return ok;
        }
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        let mut shadow = self.clone();
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        shm_obs::counter!("fingerprint.exact_check");

        let n = self.n();
        let mut gone = vec![false; n];
        for &pid in batch {
            gone[pid.index()] = true;
        }
        // First schedule position an erased process acted on or was injected
        // into: checkpoints at or before it stay valid after the surgery.
        let mut splice = self.schedule.len();
        for &pid in batch {
            if let Some(t) = self.first_touch[pid.index()] {
                splice = splice.min(t);
            }
        }
        let mut first_gone_inj = self.injections.len();
        for (k, inj) in self.injections.iter().enumerate() {
            if gone[inj.pid.index()] {
                splice = splice.min(inj.at);
                first_gone_inj = first_gone_inj.min(k);
            }
        }
        // Survivor-visible values can only diverge at an erased process's
        // first nontrivial access; walk from the latest checkpoint before
        // that point.
        let mut wsplice = self.schedule.len();
        for &pid in batch {
            if let Some(t) = self.first_write[pid.index()] {
                wsplice = wsplice.min(t);
            }
        }
        let wbase = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.schedule_len <= wsplice);
        let (mut mem, start_events) = match wbase {
            Some(c) => (c.memory.clone(), c.history_len),
            None => (Memory::from_layout(&spec.layout), 0),
        };
        // Certification walk: re-apply survivors' recorded accesses against
        // the filtered memory. Invoke/Return/Terminate events are machine-
        // internal — they cannot change while every observed result is
        // unchanged — so only Access events are checked.
        for e in self.history.events_from(start_events) {
            if let Event::Access {
                pid, op, result, ..
            } = e
            {
                if gone[pid.index()] {
                    continue;
                }
                let applied = mem.apply(*pid, *op);
                if applied.result != *result {
                    #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
                    {
                        // Suppress recording: the shadow replay is a pure
                        // cross-check, not part of the execution's cost.
                        let _quiet = shm_obs::suppress();
                        assert!(
                            !shadow.erase_certified_in_place_replay(spec, batch),
                            "event-walk refused an erasure the replay path accepts"
                        );
                    }
                    shm_obs::counter!("erase.refused");
                    return false;
                }
            }
        }

        // Accepted: apply the erasure by surgery.
        mem.purge_reservations(&gone);
        self.memory = mem;
        for &pid in batch {
            let st = self.procs[pid.index()].stats;
            self.totals.steps -= st.steps;
            self.totals.accesses -= st.accesses;
            self.totals.rmrs -= st.rmrs;
            self.totals.messages -= st.messages;
            self.procs[pid.index()] = Arc::new(ProcState {
                source: spec.sources[pid.index()].clone(),
                current: None,
                last_op_result: None,
                last_return: None,
                status: Status::Runnable,
                stats: ProcStats::default(),
            });
        }
        // Filter the schedule, remembering how many erased steps precede
        // each position so recorded indices can be shifted.
        let old_sched = std::mem::take(&mut self.schedule);
        let mut removed_before: Vec<u32> = Vec::with_capacity(old_sched.len() + 1);
        let mut removed = 0u32;
        let mut new_sched = Vec::with_capacity(old_sched.len());
        for &pid in &old_sched {
            removed_before.push(removed);
            if gone[pid.index()] {
                removed += 1;
            } else {
                new_sched.push(pid);
            }
        }
        removed_before.push(removed);
        self.schedule = new_sched;
        for (i, &g) in gone.iter().enumerate().take(n) {
            if g {
                self.first_touch[i] = None;
                self.first_write[i] = None;
            } else {
                if let Some(t) = self.first_touch[i] {
                    self.first_touch[i] = Some(t - removed_before[t] as usize);
                }
                if let Some(t) = self.first_write[i] {
                    self.first_write[i] = Some(t - removed_before[t] as usize);
                }
            }
        }
        let mut dropped_inj = 0u64;
        self.injections.retain_mut(|inj| {
            if gone[inj.pid.index()] {
                dropped_inj += 1;
                false
            } else {
                inj.at -= removed_before[inj.at] as usize;
                true
            }
        });
        self.injected -= dropped_inj;
        self.history.erase_pids(&gone);
        // Checkpoints past the splice captured erased-process state; drop
        // them (recording rebuilds coverage as stepping continues). The
        // retained ones precede every erased step and injection, so their
        // recorded lengths and indices need no shifting.
        self.checkpoints
            .retain(|c| c.schedule_len <= splice && c.injections_len <= first_gone_inj);

        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        {
            // Suppress recording: the shadow replay is a pure cross-check.
            let _quiet = shm_obs::suppress();
            assert!(
                shadow.erase_certified_in_place_replay(spec, batch),
                "event-walk accepted an erasure the replay path refuses"
            );
            assert_eq!(
                shadow.history.to_vec(),
                self.history.to_vec(),
                "surgery: history mismatch"
            );
            assert_eq!(shadow.schedule, self.schedule, "surgery: schedule mismatch");
            assert_eq!(shadow.totals, self.totals, "surgery: totals mismatch");
            assert_eq!(
                shadow.first_touch, self.first_touch,
                "surgery: first_touch mismatch"
            );
            assert_eq!(
                shadow.first_write, self.first_write,
                "surgery: first_write mismatch"
            );
            for i in 0..n {
                let p = ProcId(i as u32);
                assert_eq!(
                    shadow.history.fingerprint(p),
                    self.history.fingerprint(p),
                    "surgery: fingerprint mismatch for {p}"
                );
            }
            for a in 0..spec.layout.len() {
                let addr = crate::ids::Addr(a as u32);
                assert_eq!(
                    shadow.memory.peek(addr),
                    self.memory.peek(addr),
                    "surgery: memory value mismatch at cell {a}"
                );
                assert_eq!(
                    shadow.memory.last_writer(addr),
                    self.memory.last_writer(addr),
                    "surgery: last-writer mismatch at cell {a}"
                );
            }
        }
        shm_obs::counter!("erase.surgery");
        true
    }

    /// Replay-based fallback behind [`Simulator::erase_certified_in_place`]:
    /// certifies by checkpointed filtered re-execution, then keeps the
    /// untouched history prefix in place and adopts only the re-executed
    /// suffix — O(n + suffix), with *no* O(history) splice copy. Used under
    /// CC cost models, where erasing a process rewrites cache-validity
    /// history and per-access costs must be re-derived.
    fn erase_certified_in_place_replay(
        &mut self,
        spec: &SimSpec,
        batch: &BTreeSet<ProcId>,
    ) -> bool {
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        shm_obs::counter!("fingerprint.exact_check");
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        let before: Vec<Vec<crate::event::ProjectedEvent>> = (0..self.n())
            .map(|i| self.history.projection(ProcId(i as u32)))
            .collect();
        let Some((tail, start, prefix_events)) = self.replay_tail(spec, batch, true) else {
            return false;
        };
        if !survivors_agree(&tail.history, &self.history, batch) {
            return false;
        }
        let mut tail = tail;
        Self::rebase_suffix_checkpoints(&mut tail, start, prefix_events);
        self.memory = tail.memory;
        self.cost = tail.cost;
        self.procs = tail.procs;
        self.totals = tail.totals;
        self.injected = tail.injected;
        self.first_touch = tail.first_touch;
        self.first_write = tail.first_write;
        self.injections = tail.injections;
        self.schedule = tail.schedule;
        self.checkpoints = tail.checkpoints;
        self.history.splice_tail(prefix_events, tail.history);
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        for (i, recorded) in before.iter().enumerate().take(self.n()) {
            let p = ProcId(i as u32);
            if !batch.contains(&p) {
                assert_eq!(
                    &self.history.projection(p),
                    recorded,
                    "fingerprint collision: projection of {p} changed under erasure"
                );
            }
        }
        true
    }

    /// Replays from an explicit checkpoint: restores `ckpt`'s state and then
    /// executes `suffix` (schedule entries recorded after the checkpoint),
    /// skipping processes in `erased`. Injections recorded between the
    /// checkpoint and the end of the original execution are re-applied at
    /// their positions (unless targeting an erased process).
    ///
    /// The returned simulator's history covers only the replayed suffix; its
    /// fingerprints cover the whole (prefix + suffix) projection, seeded
    /// from the checkpoint.
    #[must_use]
    pub fn replay_from(
        &self,
        ckpt: &Checkpoint,
        suffix: &[ProcId],
        erased: &BTreeSet<ProcId>,
    ) -> Simulator {
        let _span = shm_obs::Span::enter("sim.replay_from");
        let mut replayed = 0u64;
        let mut sim = self.resume_at(ckpt);
        let start = ckpt.schedule_len;
        let mut next_inj = self.injections.partition_point(|inj| inj.at < start);
        for (k, &pid) in suffix.iter().enumerate() {
            let i = start + k;
            while next_inj < self.injections.len() && self.injections[next_inj].at <= i {
                let inj = &self.injections[next_inj];
                next_inj += 1;
                if !erased.contains(&inj.pid) {
                    sim.inject_call(inj.pid, inj.call.clone());
                }
            }
            if !erased.contains(&pid) {
                let _ = sim.step(pid);
                replayed += 1;
            }
        }
        shm_obs::counter!("replay.steps", replayed);
        while next_inj < self.injections.len() {
            let inj = &self.injections[next_inj];
            next_inj += 1;
            if !erased.contains(&inj.pid) {
                sim.inject_call(inj.pid, inj.call.clone());
            }
        }
        sim
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Read access to shared memory (inspection; not a step).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The recorded history so far.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The recorded schedule: one entry per effective step, in order.
    #[must_use]
    pub fn schedule(&self) -> &[ProcId] {
        &self.schedule
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn totals(&self) -> Totals {
        self.totals
    }

    /// Statistics of one process.
    #[must_use]
    pub fn proc_stats(&self, pid: ProcId) -> ProcStats {
        self.procs[pid.index()].stats
    }

    /// Execution status of one process.
    #[must_use]
    pub fn status(&self, pid: ProcId) -> Status {
        self.procs[pid.index()].status
    }

    /// Whether the process can still take steps.
    #[must_use]
    pub fn is_runnable(&self, pid: ProcId) -> bool {
        self.procs[pid.index()].status == Status::Runnable
    }

    /// IDs of all runnable processes.
    #[must_use]
    pub fn runnable(&self) -> Vec<ProcId> {
        let mut out = Vec::new();
        self.runnable_into(&mut out);
        out
    }

    /// Fills `out` with the IDs of all runnable processes (ascending),
    /// reusing its allocation — the per-step form of
    /// [`Simulator::runnable`] for schedulers and explorers that query the
    /// runnable set on every step.
    pub fn runnable_into(&self, out: &mut Vec<ProcId>) {
        out.clear();
        out.extend(
            self.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.status == Status::Runnable)
                .map(|(i, _)| ProcId(i as u32)),
        );
    }

    /// Whether every process has terminated or crashed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|p| p.status != Status::Runnable)
    }

    /// Number of calls injected via [`Simulator::inject_call`]. When nonzero,
    /// the recorded schedule alone no longer reconstructs this execution;
    /// callers doing replay-based surgery must re-inject manually.
    #[must_use]
    pub fn injected_calls(&self) -> u64 {
        self.injected
    }

    /// The recorded injections, in injection order (`at` nondecreasing).
    pub(crate) fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The live cost-model state (cache validity under CC).
    pub(crate) fn cost_state(&self) -> &CostState {
        &self.cost
    }

    /// The recorded checkpoints, in increasing `schedule_len` order. The
    /// audit layer uses them as shard boundaries for parallel re-pricing.
    pub(crate) fn checkpoints(&self) -> &[Arc<Checkpoint>] {
        &self.checkpoints
    }

    /// Mutable access to the recorded event log, bypassing fingerprint
    /// maintenance. For audit-layer tamper tests only.
    #[cfg(test)]
    pub(crate) fn history_mut(&mut self) -> &mut History {
        self.fp.invalidate();
        &mut self.history
    }

    /// Differentially audits this execution against a naive shadow executor:
    /// the recorded schedule (and injections) are re-run step by step under
    /// an independent reference implementation of memory semantics and of
    /// each of the four standard cost models — no checkpoints, no
    /// fingerprints, no event-walk surgery — and every per-step result,
    /// RMR/message/invalidation charge, cache-validity set, the final memory
    /// image and the final [`Totals`]/per-process stats are diffed against
    /// the fast incremental path. See [`crate::audit`] for the report format.
    ///
    /// `spec` must be the spec this simulator was built from. The audit is
    /// read-only and returns on the *first* divergence found.
    #[must_use]
    pub fn audit(&self, spec: &SimSpec) -> crate::audit::AuditReport {
        crate::audit::run_audit(self, spec, shm_pool::threads())
    }

    /// [`Simulator::audit`] with an explicit worker-thread count instead of
    /// the process-wide `shm_pool` default. `threads == 1` is the exact
    /// serial audit; any thread count yields an identical report (shards are
    /// fixed by the recording, and the canonical divergence is the one with
    /// the lowest step regardless of completion order).
    #[must_use]
    pub fn audit_with_threads(&self, spec: &SimSpec, threads: usize) -> crate::audit::AuditReport {
        crate::audit::run_audit(self, spec, threads)
    }

    /// Flushes the **final** history's per-access cost attribution to the
    /// installed `shm-obs` recorder under phase `scope`: `sim.rmr`,
    /// `sim.local`, and `sim.inval` counter cells keyed by process, memory
    /// location, and the cost-model tag.
    ///
    /// Counting at access time could never reconcile with
    /// [`Simulator::totals`]: erasure subtracts erased processes'
    /// statistics, and replay re-executes steps. Flushing the *surviving*
    /// history once the execution is final makes the flushed totals equal
    /// `totals()` by construction — `sim.rmr + sim.local == accesses`,
    /// `sim.rmr == rmrs`, `sim.inval == invalidations` — which the metrics
    /// tests pin exactly. No-op when recording is disabled.
    pub fn obs_flush(&self, scope: &'static str) {
        if !shm_obs::enabled() {
            return;
        }
        let model = crate::model::model_tag(self.cost.model());
        for e in self.history.events() {
            if let Event::Access { pid, op, cost, .. } = e {
                let (p, loc) = (pid.0, op.addr().0);
                let name = if cost.rmr { "sim.rmr" } else { "sim.local" };
                shm_obs::counter!(name, 1, scope: scope, model: model, pid: p, loc: loc);
                shm_obs::counter!(
                    "sim.inval",
                    cost.invalidations,
                    scope: scope,
                    model: model,
                    pid: p,
                    loc: loc
                );
            }
        }
    }

    /// Advances `pid` by one step.
    ///
    /// One step is one state-machine transition: it performs exactly one
    /// memory access, or completes a call, or terminates the process. If the
    /// process has no call in progress, the next call is fetched from its
    /// source (and its first transition executed) within the same step.
    pub fn step(&mut self, pid: ProcId) -> StepReport {
        if self.procs[pid.index()].status != Status::Runnable {
            return StepReport::NotRunnable;
        }
        if self.first_touch[pid.index()].is_none() {
            self.first_touch[pid.index()] = Some(self.schedule.len());
        }
        self.schedule.push(pid);
        self.totals.steps += 1;
        self.fp.touch_proc(pid.index());
        shm_obs::counter!("sim.steps");
        let report = self.transition(pid);
        self.maybe_checkpoint();
        report
    }

    /// The body of one step after schedule/stat bookkeeping: fetch a call if
    /// needed, then run exactly one machine transition.
    fn transition(&mut self, pid: ProcId) -> StepReport {
        // Split-borrow the process entry alongside the shared state so the
        // whole step pays exactly one COW fault (`Arc::make_mut` locks the
        // weak count with a CAS — doing it three or four times per step was
        // the single largest fixed cost on the hot loop).
        let Simulator {
            procs,
            memory,
            cost,
            history,
            totals,
            first_write,
            schedule,
            fp,
            ..
        } = self;
        let p = Arc::make_mut(&mut procs[pid.index()]);
        p.stats.steps += 1;

        // Fetch the next call if none is in progress.
        if p.current.is_none() {
            match p.source.next_call(p.last_return) {
                None => {
                    p.status = Status::Terminated;
                    history.push(Event::Terminate { pid });
                    return StepReport::Terminated;
                }
                Some(call) => {
                    history.push(Event::Invoke {
                        pid,
                        kind: call.kind,
                        name: call.name,
                    });
                    p.current = Some(call);
                    p.last_op_result = None;
                }
            }
        }

        // One machine transition.
        let last = p.last_op_result;
        let step = p
            .current
            .as_mut()
            .expect("current call set above")
            .machine
            .step(last);
        match step {
            Step::Op(op) => {
                // `sees` must be computed from the cell's last writer
                // *before* the access mutates it.
                let addr = op.addr();
                let observes_value = !matches!(op, Op::Write(..));
                let sees = if observes_value {
                    memory.last_writer(addr).filter(|&q| q != pid)
                } else {
                    None
                };
                let touches = memory.owner(addr).filter(|&q| q != pid);
                let applied = memory.apply(pid, op);
                fp.touch_cell(addr.index());
                if applied.nontrivial && first_write[pid.index()].is_none() {
                    first_write[pid.index()] = Some(schedule.len() - 1);
                }
                let acost = cost.charge(pid, addr, memory.owner(addr), &applied);
                p.stats.accesses += 1;
                p.stats.rmrs += u64::from(acost.rmr);
                p.stats.messages += acost.messages;
                totals.accesses += 1;
                totals.rmrs += u64::from(acost.rmr);
                totals.messages += acost.messages;
                totals.invalidations += acost.invalidations;
                history.push(Event::Access {
                    pid,
                    op,
                    result: applied.result,
                    wrote: applied.nontrivial,
                    cost: acost,
                    sees,
                    touches,
                });
                p.last_op_result = Some(applied.result);
                StepReport::Access {
                    op,
                    result: applied.result,
                    cost: acost,
                }
            }
            Step::Return(value) => {
                let call = p.current.take().expect("current call");
                history.push(Event::Return {
                    pid,
                    kind: call.kind,
                    value,
                });
                p.last_return = Some(value);
                p.stats.calls_completed += 1;
                StepReport::Returned {
                    kind: call.kind,
                    value,
                }
            }
        }
    }

    /// Computes the next memory access `pid` will perform, without executing
    /// anything and without touching shared memory.
    ///
    /// Step machines receive values only through their `last` argument, so
    /// the next operation is a pure function of the process's private state;
    /// this method clones that state (source + current call) and runs it
    /// forward through any non-access transitions (returns, call fetches).
    ///
    /// # Panics
    ///
    /// Panics if the process makes more than an internal limit of
    /// transitions without either accessing memory or terminating (which
    /// would mean a livelocked call source).
    #[must_use]
    pub fn peek_next_op(&self, pid: ProcId) -> Peek {
        let p = &self.procs[pid.index()];
        if p.status != Status::Runnable {
            return Peek::NotRunnable;
        }
        let mut source = p.source.clone();
        let mut current = p.current.clone();
        let mut last_op_result = p.last_op_result;
        let mut last_return = p.last_return;
        for _ in 0..Self::PEEK_LIMIT {
            if current.is_none() {
                match source.next_call(last_return) {
                    None => return Peek::WillTerminate,
                    Some(call) => {
                        current = Some(call);
                        last_op_result = None;
                    }
                }
            }
            match current
                .as_mut()
                .expect("set above")
                .machine
                .step(last_op_result)
            {
                Step::Op(op) => return Peek::Access(op),
                Step::Return(v) => {
                    current = None;
                    last_return = Some(v);
                }
            }
        }
        panic!(
            "peek_next_op: {pid} made {} transitions without accessing memory",
            Self::PEEK_LIMIT
        );
    }

    /// Computes what the next *single* `step(pid)` call would do, without
    /// executing it. Unlike [`Simulator::peek_next_op`], this does not look
    /// through return/invoke transitions — it reports exactly the next
    /// step's effect, which the lower-bound adversary needs to stop a
    /// process precisely "just before" an access.
    #[must_use]
    pub fn peek_transition(&self, pid: ProcId) -> TransitionPeek {
        let p = &self.procs[pid.index()];
        if p.status != Status::Runnable {
            return TransitionPeek::NotRunnable;
        }
        let (mut current, last_op_result) = match &p.current {
            Some(call) => (call.clone(), p.last_op_result),
            None => {
                let mut source = p.source.clone();
                match source.next_call(p.last_return) {
                    None => return TransitionPeek::WillTerminate,
                    Some(call) => (call, None),
                }
            }
        };
        match current.machine.step(last_op_result) {
            Step::Op(op) => TransitionPeek::Access(op),
            Step::Return(value) => TransitionPeek::Return {
                kind: current.kind,
                value,
            },
        }
    }

    /// Whether executing `op` right now on behalf of `pid` would be an RMR.
    ///
    /// Exact for every operation: CAS/SC success is decided against current
    /// memory contents, so the trivial/nontrivial distinction is resolved
    /// precisely.
    #[must_use]
    pub fn op_would_be_rmr(&self, pid: ProcId, op: &Op) -> bool {
        let addr = op.addr();
        let nontrivial = match *op {
            Op::Read(_) | Op::Ll(_) => false,
            Op::Write(..) | Op::Faa(..) | Op::Fas(..) | Op::Tas(_) => true,
            Op::Cas(a, expected, _) => self.memory.peek(a) == expected,
            // Conservative: we cannot inspect reservations cheaply here, but
            // a successful SC requires a prior LL by the same process, whose
            // reservation state is in memory; treat as nontrivial iff it
            // would succeed is not observable, so price as nontrivial (the
            // more expensive case) — exact for DSM where it is irrelevant.
            Op::Sc(..) => true,
        };
        crate::model::would_be_rmr(&self.cost, pid, addr, self.memory.owner(addr), nontrivial)
    }

    /// Observation footprint of executing `op` as `pid` right now:
    /// `(sees, touches)` per Definitions 6.4/6.5. Used by the adversary to
    /// decide whether to erase a process *before* letting a step happen.
    #[must_use]
    pub fn op_observation(&self, pid: ProcId, op: &Op) -> (Option<ProcId>, Option<ProcId>) {
        let addr = op.addr();
        let sees = if matches!(op, Op::Write(..)) {
            None
        } else {
            self.memory.last_writer(addr).filter(|&q| q != pid)
        };
        let touches = self.memory.owner(addr).filter(|&q| q != pid);
        (sees, touches)
    }

    /// Injects a procedure call into `pid`, reviving it if it had terminated.
    ///
    /// Used by the lower-bound adversary (proof Part 2) to direct a chosen
    /// process to call `Signal()` after the waiter population has stabilized:
    /// in the history family `H_A` (Definition 6.1) every process may make
    /// calls in arbitrary order before terminating, so injection just selects
    /// a longer call sequence for that process. Replay via the recorded
    /// schedule does **not** reproduce injected calls — callers replay the
    /// pre-injection prefix and re-inject (see [`Simulator::injected_calls`]).
    ///
    /// # Panics
    ///
    /// Panics if the process currently has a call in progress or crashed.
    pub fn inject_call(&mut self, pid: ProcId, call: Call) {
        let p = Arc::make_mut(&mut self.procs[pid.index()]);
        assert!(
            p.current.is_none(),
            "inject_call: {pid} has a call in progress"
        );
        assert!(p.status != Status::Crashed, "inject_call: {pid} crashed");
        p.status = Status::Runnable;
        self.fp.touch_proc(pid.index());
        self.history.push(Event::Invoke {
            pid,
            kind: call.kind,
            name: call.name,
        });
        p.current = Some(call.clone());
        p.last_op_result = None;
        self.injected += 1;
        self.injections.push(Injection {
            at: self.schedule.len(),
            pid,
            call,
        });
    }

    /// Whether `pid` has a procedure call in progress.
    #[must_use]
    pub fn has_pending_call(&self, pid: ProcId) -> bool {
        self.procs[pid.index()].current.is_some()
    }

    /// A canonical word encoding of everything that determines this
    /// simulator's *future* behavior and pricing: per-process projection
    /// fingerprints (which pin each process's local history — call sequence,
    /// operations, and results — and therefore its opaque machine state),
    /// statuses, pending-call flags, last results, per-process stats, the
    /// memory image with last-writer attribution, and the cost-model state.
    ///
    /// Two simulators with equal encodings are behaviorally identical from
    /// here on (every continuation produces the same events, charges, and
    /// verdicts), because a step machine's state is a deterministic function
    /// of its local history. The schedule-space explorer deduplicates on
    /// [`Simulator::incremental_fingerprint`] and uses this encoding as the
    /// exact fallback that rules out hash collisions in debug builds.
    ///
    /// Layout: 13 words per process, then 2 per memory cell (value, last
    /// writer), then the cost model's variable-length tail — the block
    /// structure the incremental fingerprint relies on.
    #[must_use]
    pub fn state_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(
            PROC_WORDS * self.procs.len()
                + CELL_WORDS * self.memory.len()
                + self.cost.max_state_words(),
        );
        let fps = self.history.fingerprints();
        for i in 0..self.procs.len() {
            out.extend(self.proc_words(i, fps.get(i).copied().unwrap_or(FP_EMPTY)));
        }
        for a in 0..self.memory.len() {
            out.extend(self.cell_words(a));
        }
        self.cost.encode_state(&mut out);
        out
    }

    /// Process `i`'s block of [`Simulator::state_words`], given its
    /// projection fingerprint `fp`.
    fn proc_words(&self, i: usize, fp: u128) -> [u64; PROC_WORDS] {
        let p = &self.procs[i];
        // Option<Word> as (presence, value) pairs: Word is the full u64
        // range (NIL = u64::MAX), so a +1 offset encoding would overflow.
        [
            (fp >> 64) as u64,
            fp as u64,
            match p.status {
                Status::Runnable => 0,
                Status::Terminated => 1,
                Status::Crashed => 2,
            },
            u64::from(p.current.is_some()),
            u64::from(p.last_op_result.is_some()),
            p.last_op_result.unwrap_or(0),
            u64::from(p.last_return.is_some()),
            p.last_return.unwrap_or(0),
            p.stats.steps,
            p.stats.accesses,
            p.stats.rmrs,
            p.stats.messages,
            p.stats.calls_completed,
        ]
    }

    /// Memory cell `a`'s block of [`Simulator::state_words`]: its value and
    /// last writer.
    fn cell_words(&self, a: usize) -> [u64; CELL_WORDS] {
        let addr = crate::ids::Addr(a as u32);
        [
            self.memory.peek(addr),
            self.memory
                .last_writer(addr)
                .map_or(0, |p| 1 + u64::from(p.0)),
        ]
    }

    /// Hash of block `b` of the state encoding (processes, then cells).
    /// Runs after a history flush, so the fingerprint read is O(1).
    fn block_hash(&self, b: usize) -> u128 {
        match b.checked_sub(self.procs.len()) {
            None => hash_block(&self.proc_words(b, self.history.fingerprint(ProcId(b as u32)))),
            Some(a) => hash_block(&self.cell_words(a)),
        }
    }

    /// A 128-bit fingerprint of [`Simulator::state_words`] (same polynomial
    /// family as the history projection fingerprints). Equal fingerprints
    /// certify behaviorally identical simulator states up to hash collision;
    /// the explorer's debug fallback compares the full word encodings.
    ///
    /// This is the reference definition; hot paths use
    /// [`Simulator::incremental_fingerprint`], which returns the same value.
    #[must_use]
    pub fn state_fingerprint(&self) -> u128 {
        crate::event::fingerprint_words(&self.state_words())
    }

    /// [`Simulator::state_fingerprint`], bit for bit, at a cost proportional
    /// to what changed since the previous call: cached per-process and
    /// per-cell block hashes are rehashed only where a step, crash or
    /// injection touched them, and only the cost model's cache-validity
    /// tail is refolded (see the `statefp` module). The first call builds
    /// the cache in O(state); checkpoints carry it, so
    /// [`Simulator::restore`] rolls it back with the rest of the state.
    pub fn incremental_fingerprint(&mut self) -> u128 {
        self.freshen_fp();
        let (mut tail, mut tail_len) = (0u128, 0usize);
        self.cost.for_each_state_word(|w| {
            tail = fp_absorb(tail, w);
            tail_len += 1;
        });
        let h = self.fp.finish(tail, tail_len);
        #[cfg(any(debug_assertions, feature = "exact-fingerprints"))]
        assert_eq!(
            h,
            self.state_fingerprint(),
            "incremental state fingerprint diverged from the full fold"
        );
        h
    }

    /// Folds the history's pending tail, then rehashes the fingerprint
    /// cache's stale blocks, or builds the cache if it is off.
    fn freshen_fp(&mut self) {
        self.history.flush();
        let mut fp = std::mem::take(&mut self.fp);
        if fp.is_live() {
            fp.refresh(|b| self.block_hash(b));
        } else {
            fp.build(
                self.procs.len(),
                self.memory.len(),
                self.cost.max_state_words(),
                |b| self.block_hash(b),
            );
        }
        self.fp = fp;
    }

    /// Crashes `pid`: it stops taking steps, mid-call or not.
    ///
    /// Models the paper's crash (§2: a process crashes if it terminates while
    /// performing a procedure call). Used for failure-injection tests.
    pub fn crash(&mut self, pid: ProcId) {
        let p = Arc::make_mut(&mut self.procs[pid.index()]);
        if p.status == Status::Runnable {
            p.status = Status::Crashed;
            self.fp.touch_proc(pid.index());
            self.history.push(Event::Crash { pid });
        }
    }

    /// Runs `pid` alone until its current call completes (or it terminates),
    /// up to `max_steps`. Returns the number of steps taken, or `None` if the
    /// budget was exhausted first.
    pub fn run_solo_until_call_boundary(&mut self, pid: ProcId, max_steps: u64) -> Option<u64> {
        let mut taken = 0;
        while taken < max_steps {
            if !self.has_pending_call(pid) || !self.is_runnable(pid) {
                return Some(taken);
            }
            let _ = self.step(pid);
            taken += 1;
        }
        if !self.has_pending_call(pid) || !self.is_runnable(pid) {
            Some(taken)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::OpSequence;
    use crate::source::{RepeatUntil, Script, ScriptedCall};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The parallel orchestration (pool-sharded audits, row fan-outs)
    /// depends on whole simulators being shareable across scoped workers.
    #[test]
    fn simulator_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimSpec>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<Checkpoint>();
    }

    fn write_then_read_spec() -> (SimSpec, crate::ids::Addr) {
        let mut layout = MemLayout::new();
        let flag = layout.alloc_global(0);
        let writer = Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "set",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
        )]);
        let reader = Script::new(vec![ScriptedCall::new(
            CallKind(1),
            "get",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Read(flag)]))),
        )]);
        (
            SimSpec {
                layout,
                sources: vec![Box::new(writer), Box::new(reader)],
                model: CostModel::Dsm,
            },
            flag,
        )
    }

    fn drain(sim: &mut Simulator, pid: ProcId) {
        while sim.step(pid) != StepReport::NotRunnable {}
    }

    #[test]
    fn basic_execution_and_accounting() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        assert_eq!(sim.memory().peek(flag), 1);
        assert!(sim.all_done());
        // Both accesses hit a global cell: 2 RMRs in DSM.
        assert_eq!(sim.totals().rmrs, 2);
        assert_eq!(sim.proc_stats(ProcId(0)).calls_completed, 1);
        assert_eq!(sim.history().calls().len(), 2);
    }

    #[test]
    fn reader_sees_writer() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        assert!(sim.history().sees_pairs().contains(&(ProcId(1), ProcId(0))));
    }

    #[test]
    fn replay_reproduces_execution() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        // Interleave.
        let _ = sim.step(ProcId(0));
        let _ = sim.step(ProcId(1));
        let _ = sim.step(ProcId(0));
        let _ = sim.step(ProcId(1));
        let replayed = Simulator::replay(&spec, sim.schedule(), &BTreeSet::new());
        assert_eq!(replayed.history().to_vec(), sim.history().to_vec());
        assert_eq!(replayed.totals(), sim.totals());
    }

    #[test]
    fn replay_with_erasure_removes_process() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        drain(&mut sim, ProcId(1));
        let erased = BTreeSet::from([ProcId(0)]);
        let replayed = Simulator::replay(&spec, sim.schedule(), &erased);
        assert_eq!(replayed.memory().peek(flag), 0, "writer erased");
        assert!(!replayed.history().participants().contains(&ProcId(0)));
        // The reader now reads 0 instead of 1 — erasure is only *legal* when
        // nobody saw the erased process; here it changes the outcome, which
        // is exactly why the adversary must check visibility first.
        let calls = replayed.history().calls();
        assert_eq!(calls[0].return_value, Some(0));
    }

    #[test]
    fn peek_next_op_sees_through_call_boundaries() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        // p0's first effective action is the write.
        assert_eq!(
            sim.peek_next_op(ProcId(0)),
            Peek::Access(Op::Write(flag, 1))
        );
        // Peeking does not advance anything.
        assert_eq!(sim.totals().steps, 0);
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.peek_next_op(ProcId(0)), Peek::NotRunnable);
    }

    #[test]
    fn peek_detects_termination() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // write (invoke + op)
        let _ = sim.step(ProcId(0)); // return
        assert_eq!(sim.peek_next_op(ProcId(0)), Peek::WillTerminate);
    }

    #[test]
    fn op_would_be_rmr_in_dsm() {
        let mut layout = MemLayout::new();
        let mine = layout.alloc_local(ProcId(0), 0);
        let theirs = layout.alloc_local(ProcId(1), 0);
        let spec = SimSpec {
            layout,
            sources: vec![Box::new(crate::source::Idle), Box::new(crate::source::Idle)],
            model: CostModel::Dsm,
        };
        let sim = Simulator::new(&spec);
        assert!(!sim.op_would_be_rmr(ProcId(0), &Op::Read(mine)));
        assert!(sim.op_would_be_rmr(ProcId(0), &Op::Read(theirs)));
    }

    #[test]
    fn inject_call_revives_terminated_process() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Terminated);
        sim.inject_call(
            ProcId(0),
            Call::new(
                CallKind(9),
                "extra",
                Box::new(OpSequence::new(vec![Op::Write(flag, 7)])),
            ),
        );
        assert!(sim.is_runnable(ProcId(0)));
        let _ = sim.step(ProcId(0));
        assert_eq!(sim.memory().peek(flag), 7);
        assert_eq!(sim.injected_calls(), 1);
    }

    #[test]
    fn crash_mid_call_is_recorded() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // in the middle of "set"
        assert!(sim.has_pending_call(ProcId(0)));
        sim.crash(ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Crashed);
        assert!(sim.history().finished().contains(&ProcId(0)));
        assert_eq!(sim.step(ProcId(0)), StepReport::NotRunnable);
    }

    #[test]
    fn run_solo_until_call_boundary_completes_call() {
        let (spec, _) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let _ = sim.step(ProcId(0)); // invoke + write
        assert!(sim.has_pending_call(ProcId(0)));
        let taken = sim.run_solo_until_call_boundary(ProcId(0), 100).unwrap();
        assert_eq!(taken, 1, "one more step to return");
        assert!(!sim.has_pending_call(ProcId(0)));
    }

    #[test]
    fn repeat_until_source_busy_waits() {
        let mut layout = MemLayout::new();
        let flag = layout.alloc_global(0);
        let poll = ScriptedCall::new(
            CallKind(1),
            "poll",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Read(flag)]))),
        );
        let waiter = RepeatUntil::new(poll, 1);
        let setter = Script::new(vec![ScriptedCall::new(
            CallKind(0),
            "set",
            Arc::new(move || Box::new(OpSequence::new(vec![Op::Write(flag, 1)]))),
        )]);
        let spec = SimSpec {
            layout,
            sources: vec![Box::new(waiter), Box::new(setter)],
            model: CostModel::Dsm,
        };
        let mut sim = Simulator::new(&spec);
        // Waiter polls three times (sees 0 each time).
        for _ in 0..6 {
            let _ = sim.step(ProcId(0));
        }
        assert!(sim.is_runnable(ProcId(0)));
        drain(&mut sim, ProcId(1));
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.status(ProcId(0)), Status::Terminated);
        assert_eq!(sim.proc_stats(ProcId(0)).calls_completed, 4);
    }

    #[test]
    fn cloned_simulator_diverges_independently() {
        let (spec, flag) = write_then_read_spec();
        let mut sim = Simulator::new(&spec);
        let mut snap = sim.clone();
        drain(&mut sim, ProcId(0));
        assert_eq!(sim.memory().peek(flag), 1);
        assert_eq!(snap.memory().peek(flag), 0);
        drain(&mut snap, ProcId(1));
        assert_eq!(snap.history().calls()[0].return_value, Some(0));
    }
}
