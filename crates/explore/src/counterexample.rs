//! Serializable counterexamples: replay, greedy shrinking, and JSON export.

use shm_sim::{run_exact, ProcId, SimSpec, Simulator};

/// A self-contained, replayable witness: the schedule that reaches a
/// violating (or objective-extremal) state, plus everything needed to
/// interpret it. Serializes to JSON with a stable key order (see
/// `EXPERIMENTS.md` for the schema).
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Algorithm under test.
    pub algorithm: String,
    /// Oracle that rejected the state (or objective name for extremal
    /// schedules).
    pub oracle: String,
    /// Human-readable violation description.
    pub description: String,
    /// Whether the history is within the algorithm's participation contract.
    pub in_contract: bool,
    /// Cost-model tag (`shm_sim::model_tag`).
    pub model: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Seed of any seeded component of the scenario (`null` when the whole
    /// construction is seedless, as exhaustive exploration itself is).
    pub seed: Option<u64>,
    /// The (shrunk) schedule: process IDs in step order. Replayable with
    /// [`replay`].
    pub schedule: Vec<ProcId>,
    /// Length of the original schedule before shrinking.
    pub shrunk_from: usize,
    /// Depth bound active during the finding run, if any.
    pub max_depth: Option<usize>,
    /// Preemption bound active during the finding run, if any.
    pub max_preemptions: Option<usize>,
    /// Whether the differential RMR-accounting audit of the shrunk replay
    /// came back clean.
    pub audit_clean: bool,
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |x| x.to_string())
}

impl Counterexample {
    /// Renders the counterexample as a single JSON object with stable keys.
    #[must_use]
    pub fn to_json(&self) -> String {
        let schedule: Vec<String> = self.schedule.iter().map(|p| p.0.to_string()).collect();
        format!(
            concat!(
                "{{\"algorithm\":\"{}\",\"oracle\":\"{}\",\"description\":\"{}\",",
                "\"in_contract\":{},\"model\":\"{}\",\"n\":{},\"seed\":{},",
                "\"schedule\":[{}],\"shrunk_from\":{},\"max_depth\":{},",
                "\"max_preemptions\":{},\"audit_clean\":{}}}"
            ),
            shm_obs::json::escape(&self.algorithm),
            shm_obs::json::escape(&self.oracle),
            shm_obs::json::escape(&self.description),
            self.in_contract,
            self.model,
            self.n,
            opt_u64(self.seed),
            schedule.join(","),
            self.shrunk_from,
            opt_u64(self.max_depth.map(|d| d as u64)),
            opt_u64(self.max_preemptions.map(|p| p as u64)),
            self.audit_clean,
        )
    }
}

/// Replays a recorded schedule against a fresh simulator built from `spec`.
/// Steps naming non-runnable processes are skipped (which makes replay
/// robust under shrinking); determinism of the step machines guarantees the
/// result is a pure function of `(spec, schedule)`.
#[must_use]
pub fn replay(spec: &SimSpec, schedule: &[ProcId]) -> Simulator {
    let mut sim = Simulator::new(spec);
    run_exact(&mut sim, schedule);
    sim
}

/// Greedy step-deletion shrinking: repeatedly tries to delete one step at a
/// time (scanning from the end, where deletions are most likely to stick)
/// and keeps any deletion after which `keep` still accepts the replayed
/// state. Runs passes to a fixpoint, so the result is 1-minimal — deleting
/// any single remaining step loses the property.
///
/// `keep` must re-check everything the caller cares about (the same oracle
/// violating *and* the same in-contract classification): shrinking a
/// schedule can change which processes participate, and an out-of-contract
/// violation that shrinks into a different contract regime would otherwise
/// silently change meaning.
#[must_use]
pub fn shrink_schedule(
    spec: &SimSpec,
    schedule: &[ProcId],
    keep: impl Fn(&Simulator) -> bool,
) -> Vec<ProcId> {
    let mut cur = schedule.to_vec();
    loop {
        let mut changed = false;
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            let mut cand = cur.clone();
            cand.remove(i);
            shm_obs::counter!("explore.shrink_replays");
            let sim = replay(spec, &cand);
            if keep(&sim) {
                cur = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use shm_sim::{
        CallKind, CostModel, MemLayout, Op, OpSequence, ProcedureCall, Script, ScriptedCall,
        SimSpec,
    };
    use std::sync::Arc;

    fn two_writers() -> SimSpec {
        let mut layout = MemLayout::new();
        let cells = layout.alloc_global_array(2, 0);
        let sources = (0..2)
            .map(|i| {
                let a = cells.at(i);
                let call = ScriptedCall::new(
                    CallKind(0),
                    "write",
                    Arc::new(move || {
                        Box::new(OpSequence::new(vec![Op::Write(a, 1)])) as Box<dyn ProcedureCall>
                    }),
                );
                Box::new(Script::new(vec![call])) as Box<dyn shm_sim::CallSource>
            })
            .collect();
        SimSpec {
            layout,
            sources,
            model: CostModel::Dsm,
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let spec = two_writers();
        let order: Vec<ProcId> = [0, 1, 0, 1, 0, 1].iter().map(|&i| ProcId(i)).collect();
        let a = replay(&spec, &order);
        let b = replay(&spec, &order);
        assert_eq!(a.state_words(), b.state_words());
    }

    #[test]
    fn shrink_removes_redundant_steps() {
        let spec = two_writers();
        // A heavily padded schedule; the property "process 0 completed its
        // call" needs only process 0's own steps.
        let order: Vec<ProcId> = [1, 1, 0, 1, 0, 1, 0, 0, 1, 0]
            .iter()
            .map(|&i| ProcId(i))
            .collect();
        let keep = |sim: &Simulator| sim.proc_stats(ProcId(0)).calls_completed == 1;
        assert!(keep(&replay(&spec, &order)));
        let small = shrink_schedule(&spec, &order, keep);
        assert!(small.len() < order.len());
        assert!(keep(&replay(&spec, &small)));
        assert!(small.iter().all(|&p| p == ProcId(0)), "{small:?}");
    }

    #[test]
    fn counterexample_json_has_stable_shape() {
        let cx = Counterexample {
            algorithm: "single-waiter".to_owned(),
            oracle: "spec4.1-polling".to_owned(),
            description: "TrueWithoutSignalBegun \"quoted\"".to_owned(),
            in_contract: false,
            model: "dsm",
            n: 3,
            seed: None,
            schedule: vec![ProcId(0), ProcId(2), ProcId(1)],
            shrunk_from: 11,
            max_depth: None,
            max_preemptions: Some(2),
            audit_clean: true,
        };
        assert_eq!(
            cx.to_json(),
            concat!(
                "{\"algorithm\":\"single-waiter\",\"oracle\":\"spec4.1-polling\",",
                "\"description\":\"TrueWithoutSignalBegun \\\"quoted\\\"\",",
                "\"in_contract\":false,\"model\":\"dsm\",\"n\":3,\"seed\":null,",
                "\"schedule\":[0,2,1],\"shrunk_from\":11,\"max_depth\":null,",
                "\"max_preemptions\":2,\"audit_clean\":true}"
            )
        );
    }
}
