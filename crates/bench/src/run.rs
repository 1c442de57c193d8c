//! The one experiment entry path: [`run`] executes a validated
//! [`Manifest`] and returns its typed [`Rows`], which render the canonical
//! row JSON, the stdout table with its paper footer, and the list of
//! refuted claims.
//!
//! The `exp_*` binaries ([`crate::cli::main`]), `exp_all`, the `shm-serve`
//! job server and its replay all go through here, so a served manifest's
//! result is byte-identical to the binary's `--canon` file at any thread
//! count. Thread count is NOT set here — the binaries and the server set
//! the pool from `manifest.threads` — because canonical output is
//! thread-count invariant either way.

use crate::experiments::{
    e10_pct_with, e1_cc_upper, e2_dsm_lower_with, e3_variants, e4_primitives, e5_messages,
    e6_mutex, e7_fixed_w, e8_transformation_with, e9_deep, e9_explore_with, E10_DEPTH_D,
    E10_SCHEDULES, E10_STEPS, E9_DEEP_MAX_POLLS, E9_DEEP_WAITERS,
};
use crate::table::{f2, Table};
use shm_scenario::manifest::{ExperimentKind, Manifest};
use shm_scenario::rows::{E10Row, E1Row, E2Row, E3Row, E4Row, E5Row, E6Row, E7Row, E8Row, E9Row};
use shm_scenario::{canon, json};
use std::fmt::Write as _;

/// The rows of one experiment run, one variant per [`ExperimentKind`].
#[derive(Debug)]
#[allow(missing_docs)]
pub enum Rows {
    E1(Vec<E1Row>),
    E2(Vec<E2Row>),
    E3(Vec<E3Row>),
    E4(Vec<E4Row>),
    E5(Vec<E5Row>),
    E6(Vec<E6Row>),
    E7(Vec<E7Row>),
    E8(Vec<E8Row>),
    E9(Vec<E9Row>),
    E10(Vec<E10Row>),
}

/// Executes the manifest's experiment.
///
/// The manifest must be normalized (defaults filled — [`Manifest::normalized`]
/// or any of the parsing entry points); missing per-kind parameters panic.
/// The optional `algorithm`/`model` filters of the exploration kinds
/// (E9/E10) drop non-matching rows *after* the run, so a filtered job costs
/// the same but returns only the rows asked for — and an unfiltered job is
/// the full sweep.
#[must_use]
pub fn run(m: &Manifest) -> Rows {
    let sizes = m.sizes_usize();
    let keep = |algorithm: &str, model: &str| {
        m.algorithm.as_deref().is_none_or(|a| algorithm == a)
            && m.model.as_deref().is_none_or(|mo| model == mo)
    };
    match m.kind {
        ExperimentKind::E1 => {
            let sizes: Vec<u32> = sizes.iter().map(|&s| s as u32).collect();
            Rows::E1(e1_cc_upper(&sizes, m.polls.expect("normalized") as u32))
        }
        ExperimentKind::E2 => Rows::E2(e2_dsm_lower_with(&sizes, m.audit)),
        ExperimentKind::E3 => Rows::E3(e3_variants(
            m.waiters.expect("normalized") as u32,
            m.polls.expect("normalized") as u32,
        )),
        ExperimentKind::E4 => Rows::E4(e4_primitives(&sizes)),
        ExperimentKind::E5 => Rows::E5(e5_messages(m.n.expect("normalized") as u32)),
        ExperimentKind::E6 => Rows::E6(e6_mutex(&sizes, m.cycles.expect("normalized"))),
        ExperimentKind::E7 => Rows::E7(e7_fixed_w(&sizes)),
        ExperimentKind::E8 => Rows::E8(e8_transformation_with(&sizes, m.audit)),
        ExperimentKind::E9 => {
            let mut rows = if m.deep {
                e9_deep(m.mem_budget_usize())
            } else {
                e9_explore_with(
                    m.waiters.expect("normalized") as usize,
                    m.max_polls.expect("normalized"),
                    m.mem_budget_usize(),
                )
            };
            rows.retain(|r| keep(&r.algorithm, r.model));
            Rows::E9(rows)
        }
        ExperimentKind::E10 => {
            let mut rows = e10_pct_with(
                &sizes,
                m.max_polls.expect("normalized"),
                m.seed.expect("normalized"),
                m.mem_budget_usize(),
            );
            rows.retain(|r| keep(&r.algorithm, r.model));
            Rows::E10(rows)
        }
    }
}

/// Executes the manifest's experiment and renders the canonical row JSON —
/// exactly the bytes the corresponding binary writes for `--canon`.
#[must_use]
pub fn run_manifest(m: &Manifest) -> String {
    run(m).canon_json()
}

impl Rows {
    /// The canonical (timing-free, byte-deterministic) row JSON.
    #[must_use]
    pub fn canon_json(&self) -> String {
        match self {
            Rows::E1(r) => canon::e1_json(r),
            Rows::E2(r) => canon::e2_json(r),
            Rows::E3(r) => canon::e3_json(r),
            Rows::E4(r) => canon::e4_json(r),
            Rows::E5(r) => canon::e5_json(r),
            Rows::E6(r) => canon::e6_json(r),
            Rows::E7(r) => canon::e7_json(r),
            Rows::E8(r) => canon::e8_json(r),
            Rows::E9(r) => canon::e9_json(r),
            Rows::E10(r) => canon::e10_json(r),
        }
    }

    /// The claims these rows refute, one line each; empty when every
    /// checked claim holds. The adversary kinds check the differential
    /// audit (and, for E2, in-contract safety) only when `m.audit` is set;
    /// the exploration kinds always check Specification 4.1, the
    /// seeded-buggy negative control, and (E9) exhaustiveness and chase
    /// domination.
    #[must_use]
    pub fn failures(&self, m: &Manifest) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Rows::E2(rows) if m.audit => {
                for r in rows.iter().filter(|r| r.audit_clean == Some(false)) {
                    out.push(format!(
                        "AUDIT DIVERGENCE: {} n={}: {}",
                        r.algorithm,
                        r.n,
                        r.audit_divergence.as_deref().unwrap_or("?")
                    ));
                }
                for r in rows.iter().filter(|r| r.violation) {
                    out.push(format!("IN-CONTRACT VIOLATION: {} n={}", r.algorithm, r.n));
                }
            }
            Rows::E8(rows) if m.audit => {
                for r in rows.iter().filter(|r| r.audit_clean == Some(false)) {
                    out.push(format!(
                        "AUDIT DIVERGENCE: {} n={} diverged from the naive replay",
                        r.variant, r.n
                    ));
                }
            }
            Rows::E9(rows) => {
                for r in rows {
                    let who = format!("{} ({}, n={})", r.algorithm, r.model, r.n);
                    if !r.exhaustive {
                        out.push(format!("{who}: exploration was not exhaustive"));
                    }
                    let cx = r.counterexample.as_deref();
                    out.extend(spec_failure(
                        &who,
                        &r.algorithm,
                        r.violations_in_contract,
                        cx,
                    ));
                    if let Some(chase) = r.chase_signaler_rmrs.filter(|&c| r.max_signaler_rmrs < c)
                    {
                        out.push(format!(
                            "{who}: explored max signaler RMRs {} < chase-constructed {chase}",
                            r.max_signaler_rmrs
                        ));
                    }
                }
            }
            Rows::E10(rows) => {
                for r in rows {
                    let who = format!("{} ({}, n={})", r.algorithm, r.model, r.n);
                    let cx = r.counterexample.as_deref();
                    out.extend(spec_failure(
                        &who,
                        &r.algorithm,
                        r.violations_in_contract,
                        cx,
                    ));
                }
            }
            _ => {}
        }
        out
    }

    /// The human-readable stdout report: preamble, fixed-width table, and
    /// the paper footer stating the claim and the shape to check.
    #[must_use]
    pub fn table(&self, m: &Manifest) -> String {
        let audit_ok = m.audit && self.failures(m).is_empty();
        match self {
            Rows::E1(rows) => {
                let mut t = Table::new(
                    "E1: the single-Boolean algorithm (§5), waiters poll 25x before the signal\n\n",
                    "model:18|waiters:10|polls:8|max RMR/process:18|total RMRs:12",
                );
                for r in rows {
                    t.row(&[
                        &r.model,
                        &r.n_waiters,
                        &r.polls,
                        &r.max_rmrs_per_proc,
                        &r.total_rmrs,
                    ]);
                }
                t.finish(
                    "\npaper: O(1) RMRs/process, wait-free, reads+writes, O(1) space (CC).\n\
                     shape check: CC rows stay at <= 3 RMRs/process for every N; the DSM rows\n\
                     grow linearly with the poll count — the gap the rest of the paper makes \
                     rigorous.\n",
                )
            }
            Rows::E2(rows) => {
                let mut t = Table::new(
                    "E2: the §6 adversary (erase / roll forward / wild goose chase), DSM model\n\n",
                    "algorithm:15|N:6|stabilized:11|stable:8|chaseRMRs:11|erased:8|blocked:8|\
                     amortized:10|violation:10|outOfCtr:9|audit:7|record_ms:10|rounds_ms:10|\
                     chase_ms:10",
                );
                for r in rows {
                    t.row(&[
                        &r.algorithm,
                        &r.n,
                        &r.stabilized,
                        &r.stable,
                        &r.chase_signaler_rmrs,
                        &r.chase_erased,
                        &r.blocked,
                        &f2(r.amortized),
                        &r.violation,
                        &r.out_of_contract,
                        &audit_cell(r.audit_clean),
                        &f2(r.timings.record_ms),
                        &f2(r.timings.rounds_ms),
                        &f2(r.timings.chase_ms),
                    ]);
                }
                t.finish(&format!(
                    "\npaper: for any c there is a history with k participants and > c*k RMRs\n\
                     (reads/writes/CAS/LLSC). shape check: broadcast's amortized column grows\n\
                     ~linearly with N; cc-flag never stabilizes (waiters pay); single-waiter's\n\
                     spec failures are out-of-contract (its §7 premise is one waiter; the\n\
                     adversary drives many), not violations; queue-faa (outside the primitive\n\
                     class) blocks every erasure and stays flat.\n{}",
                    if audit_ok {
                        "\naudit: all phases clean under all four cost models\n"
                    } else {
                        ""
                    }
                ))
            }
            Rows::E3(rows) => {
                let mut t = Table::new(
                    "E3: §7 signaling variants, 32 waiters (1 for single-waiter), 25 polls each\n\n",
                    "algorithm:22|model:5|maxWaiterRMR:14|signalerRMR:13|amortized:10|paper bound:30",
                );
                for r in rows {
                    t.row(&[
                        &r.algorithm,
                        &r.model,
                        &r.max_waiter_rmrs,
                        &r.signaler_rmrs,
                        &f2(r.amortized),
                        &r.paper_bound,
                    ]);
                }
                t.finish(
                    "\nshape check: every variant is O(1) per waiter in DSM except cc-flag;\n\
                     signaler cost is O(1) (single-waiter), O(W) (fixed/broadcast-style), or\n\
                     O(registered) (fixed-signaler, queue-faa) — matching the §7 catalogue.\n",
                )
            }
            Rows::E4(rows) => {
                let mut t = Table::new(
                    "E4: adversarial amortized RMRs vs N — broadcast (reads/writes) vs queue \
                     (FAA)\n\n",
                    "N:6|broadcast amortized:22|queue amortized:18|queue blocked:15",
                );
                for r in rows {
                    let (b, q) = (f2(r.broadcast_amortized), f2(r.queue_amortized));
                    t.row(&[&r.n, &b, &q, &r.queue_blocked]);
                }
                t.finish(
                    "\npaper: Corollary 6.14 covers reads/writes + CAS/LLSC; §7 closes the gap\n\
                     with Fetch-And-Add. shape check: the broadcast column grows ~N/2 while the\n\
                     queue column stays flat; 'blocked' counts erasures the certification \
                     refused\n(FAA tickets entangle processes without any 'sees' relation).\n",
                )
            }
            Rows::E5(rows) => {
                let mut t = Table::new(
                    "E5: message accounting (CC write-through), 16 processes\n\n",
                    "workload:20|interconnect:20|RMRs:10|messages:10|invalidations:14|msg/RMR:9",
                );
                for r in rows {
                    t.row(&[
                        &r.workload,
                        &r.interconnect,
                        &r.rmrs,
                        &r.messages,
                        &r.invalidations,
                        &f2(r.messages_per_rmr),
                    ]);
                }
                t.finish(
                    "\npaper (§8): on a bus, CC RMRs are 'at par' with DSM RMRs (1 msg/RMR);\n\
                     an ideal directory sends one invalidation per destroyed copy, and the\n\
                     total number of invalidations is bounded by the number of RMRs (a cached\n\
                     copy is created by an RMR and destroyed at most once); a stateless\n\
                     broadcast fabric sends superfluous invalidations, so messages/RMR inflates\n\
                     with N and amortized RMRs can understate amortized messages.\n",
                )
            }
            Rows::E6(rows) => {
                let mut t = Table::new(
                    "E6: RMRs per lock passage, contended workload, seed 42\n\n",
                    "lock:12|model:5|N:6|RMRs/passage:16",
                );
                for r in rows {
                    t.row(&[&r.lock, &r.model, &r.n, &f2(r.rmrs_per_passage)]);
                }
                t.finish(
                    "\npaper context (§3): reads/writes mutual exclusion is Θ(log N) in BOTH\n\
                     models (tournament); with RMW primitives it is O(1) in both (MCS);\n\
                     Anderson's array lock is O(1) in CC only; TAS/TTAS are unbounded under\n\
                     contention. shape check: mcs flat, tournament grows ~log N identically in\n\
                     cc and dsm (no separation for mutual exclusion — the paper needs the\n\
                     signaling problem to separate the models).\n",
                )
            }
            Rows::E7(rows) => {
                let mut t = Table::new(
                    "E7: solo Signal() cost with all W fixed waiters stable and registered\n\n",
                    "algorithm:24|W:6|signalerRMRs:14|amortized:10",
                );
                for r in rows {
                    t.row(&[&r.algorithm, &r.w, &r.signaler_rmrs, &f2(r.amortized)]);
                }
                t.finish(
                    "\npaper (§7): 'in the worst case the signaler must perform Ω(W) RMRs if all\n\
                     W waiters participate by the time Signal() is called' — skipping a waiter\n\
                     would let its next Poll() incorrectly return false. shape check: every\n\
                     algorithm's signaler column scales linearly in W (slope 1 for the flag\n\
                     arrays, 2 for the queue's read+write per waiter); amortized stays O(1)\n\
                     because all W waiters participate.\n",
                )
            }
            Rows::E8(rows) => {
                let mut t = Table::new(
                    "E8: Corollary 6.14 — the primitive classes under the same adversary\n\n",
                    "variant:14|N:6|stabilized:11|stable:8|amortized:11|blocked:9|signalStuck:13|\
                     audit:7|record_ms:10|rounds_ms:10|chase_ms:10",
                );
                for r in rows {
                    t.row(&[
                        &r.variant,
                        &r.n,
                        &r.stabilized,
                        &r.stable,
                        &f2(r.amortized),
                        &r.blocked,
                        &r.signal_stuck,
                        &audit_cell(r.audit_clean),
                        &f2(r.timings.record_ms),
                        &f2(r.timings.rounds_ms),
                        &f2(r.timings.chase_ms),
                    ]);
                }
                t.finish(&format!(
                    "\npaper (Cor. 6.14): the DSM lower bound holds for reads/writes plus CAS\n\
                     or LL/SC, via locally-accessible read/write implementations of those\n\
                     primitives. shape check: cas-list amortized grows ~N/2 (the CAS scan is\n\
                     inherently Theta(k) per registrant); cas-list+rw (every CAS replaced by a\n\
                     tournament-lock-protected read-modify-write, reads/writes only) also grows\n\
                     with N; queue-faa stays flat — the boundary is comparison vs.\n\
                     non-comparison primitives, exactly where the paper draws it. 'blocked'\n\
                     rows document our adversary's honest limitation on native CAS chains\n\
                     (the paper transforms first; we show both sides).\n{}",
                    if audit_ok {
                        "\naudit: all recordings clean under all four cost models\n"
                    } else {
                        ""
                    }
                ))
            }
            Rows::E9(rows) => {
                let mut preamble = if m.deep {
                    format!(
                        "E9 deep row: single-waiter x DSM, {E9_DEEP_WAITERS} waiters (max \
                         {E9_DEEP_MAX_POLLS} poll) + 1 signaler (1 pre-poll)\n"
                    )
                } else {
                    "E9: exhaustive exploration, 2 waiters (max 2 polls) + 1 signaler (1 \
                     pre-poll)\n"
                        .to_string()
                };
                if let Some(b) = m.mem_budget {
                    let _ = writeln!(preamble, "memory budget: {b} bytes (spilling past it)");
                }
                preamble.push('\n');
                let mut t = Table::new(
                    &preamble,
                    "algorithm:15|model:5|explored:9|terminals:9|violations:12|in-contract:12|\
                     max sig RMR:11|chase:7",
                );
                let mut footer = String::new();
                for r in rows {
                    let chase = r
                        .chase_signaler_rmrs
                        .map_or_else(|| "-".into(), |c| c.to_string());
                    t.row(&[
                        &r.algorithm,
                        &r.model,
                        &r.explored,
                        &r.terminals,
                        &r.violations_found,
                        &r.violations_in_contract,
                        &r.max_signaler_rmrs,
                        &chase,
                    ]);
                    if let Some(cx) = r
                        .counterexample
                        .as_ref()
                        .filter(|_| r.algorithm == "seeded-buggy")
                    {
                        let _ = write!(
                            footer,
                            "\n{} ({}) counterexample: {cx}\n",
                            r.algorithm, r.model
                        );
                    }
                }
                footer.push_str(
                    "\npaper tie-in: at small n the explorer certifies Specification 4.1 over\n\
                     EVERY schedule (within each algorithm's participation contract) and\n\
                     measures the true maximum of the signaler's RMRs; the §6 wild-goose-chase\n\
                     cost is one reachable schedule, so the explored maximum dominates it.\n",
                );
                t.finish(&footer)
            }
            Rows::E10(rows) => {
                let preamble = format!(
                    "E10: seeded PCT exploration, {E10_SCHEDULES} schedules/row at depth \
                     d={E10_DEPTH_D} ({} change points), {E10_STEPS}-step budget, base seed \
                     {:#x}\n\n",
                    E10_DEPTH_D - 1,
                    m.seed.expect("normalized"),
                );
                let mut t = Table::new(
                    &preamble,
                    "algorithm:15|model:5|n:4|terminals:9|distinct fp:12|violations:12|\
                     in-contract:12|max sig RMR:11",
                );
                let mut footer = String::new();
                for r in rows {
                    t.row(&[
                        &r.algorithm,
                        &r.model,
                        &r.n,
                        &r.terminals,
                        &r.distinct_fingerprints,
                        &r.violations_found,
                        &r.violations_in_contract,
                        &r.max_signaler_rmrs,
                    ]);
                    if let Some(cx) = r
                        .counterexample
                        .as_ref()
                        .filter(|_| r.algorithm == "seeded-buggy")
                    {
                        let _ = write!(
                            footer,
                            "\n{} seed {:?} ({}, n={}) counterexample: {cx}\n",
                            r.algorithm, r.seed, r.model, r.n
                        );
                    }
                }
                footer.push_str(
                    "\npaper tie-in: the §6 lower-bound sweeps run at n = 8..32, far beyond\n\
                     E9's exhaustive reach. PCT samples priority schedules with a known\n\
                     guarantee (>= 1/(n*k^(d-1)) per d-deep bug), so every seeded fault the\n\
                     controls plant must surface within the documented budget; shipped\n\
                     algorithms must stay clean under the same sampling pressure.\n",
                );
                t.finish(&footer)
            }
        }
    }
}

/// Specification 4.1 on one exploration row: a shipped algorithm must show
/// no in-contract violation; the seeded-buggy negative control must show
/// one, with a shrunk counterexample that passed the differential audit.
fn spec_failure(who: &str, algorithm: &str, in_contract: u64, cx: Option<&str>) -> Option<String> {
    let audited = |cx: &str| {
        json::parse(cx)
            .ok()
            .and_then(|v| v.get("audit_clean")?.as_bool())
            == Some(true)
    };
    match (algorithm == "seeded-buggy", in_contract, cx) {
        (false, 0, _) => None,
        (false, k, cx) => Some(format!(
            "{who}: {k} in-contract spec violation(s): {}",
            cx.unwrap_or("<no counterexample>")
        )),
        (true, 0, _) => Some(format!(
            "{who}: negative control found no in-contract violation"
        )),
        (true, _, Some(cx)) if !audited(cx) => {
            Some(format!("{who}: shrunk counterexample failed audit"))
        }
        (true, _, _) => None,
    }
}

/// The audit column: `-` when not audited, else `ok` / `FAIL`.
fn audit_cell(clean: Option<bool>) -> String {
    clean.map_or_else(|| "-".to_string(), |c| if c { "ok" } else { "FAIL" }.into())
}
