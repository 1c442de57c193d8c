//! Cost models: what makes a memory access a *remote memory reference*.
//!
//! The paper prices the same abstract execution differently in two models:
//!
//! * **DSM** — an access is an RMR iff the cell lives in another processor's
//!   memory module (ownership is static; see [`crate::mem::MemLayout`]).
//! * **CC** — an access is an RMR iff it cannot be served by the processor's
//!   cache. We implement the paper's "ideal cache" (§2): caches never drop
//!   data spuriously, so a sequence of reads of one location costs one RMR
//!   until some other process performs a nontrivial operation on it.
//!
//! The CC model is configurable along the three axes §8 discusses:
//! write-through vs. write-back propagation, LFCU (local failed comparisons
//! with write-update) vs. standard invalidation, and the interconnect that
//! determines how many *messages* one coherence action costs (shared bus,
//! ideal directory, or stateless broadcast).

use crate::ids::{Addr, ProcId, Word};
use crate::op::Applied;

/// How writes propagate in the CC model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Protocol {
    /// Every nontrivial operation goes to main memory (always an RMR).
    #[default]
    WriteThrough,
    /// A nontrivial operation by the sole cache-line holder is local.
    WriteBack,
}

/// Message cost of one coherence action (§8's "exchange rate" discussion).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Interconnect {
    /// Shared bus: a single broadcast serves the write and all invalidations,
    /// so CC RMRs are "at par" with DSM RMRs (one message each).
    #[default]
    Bus,
    /// Ideal directory: invalidations are sent exactly to the remote caches
    /// that hold a copy (requires ~N bits of state per line; §8 calls this
    /// unrealistic but it makes amortized RMRs track amortized messages).
    IdealDirectory,
    /// Stateless broadcast fabric: every write RMR notifies all other N-1
    /// processors whether or not they hold a copy (superfluous invalidation
    /// messages; amortized messages can exceed amortized RMRs).
    StatelessBroadcast,
}

/// Configuration of the cache-coherent cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CcConfig {
    /// Write propagation policy.
    pub protocol: Protocol,
    /// Local-Failed-Comparison with write-Update semantics (Anderson–Kim's
    /// LFCU systems, §3): failed CAS/SC are free and local, and writes update
    /// remote copies instead of invalidating them.
    pub lfcu: bool,
    /// Message accounting for coherence actions.
    pub interconnect: Interconnect,
}

/// The two architecture models of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CostModel {
    /// Distributed shared memory: RMR iff the address maps to another
    /// processor's module.
    #[default]
    Dsm,
    /// Cache-coherent with the given configuration.
    Cc(CcConfig),
}

impl CostModel {
    /// Standard write-through CC machine with a shared bus.
    #[must_use]
    pub fn cc_default() -> Self {
        CostModel::Cc(CcConfig::default())
    }
}

/// Static label of a cost model: `dsm`, or `cc-{wt|wb}[-lfcu]-{bus|dir|bcast}`
/// for the twelve CC configurations. `&'static str` (rather than a formatted
/// `String`) so the label can serve as an `shm-obs` counter dimension.
#[must_use]
pub fn model_tag(model: CostModel) -> &'static str {
    use Interconnect::{Bus, IdealDirectory as Dir, StatelessBroadcast as Bcast};
    use Protocol::{WriteBack as Wb, WriteThrough as Wt};
    match model {
        CostModel::Dsm => "dsm",
        CostModel::Cc(cfg) => match (cfg.protocol, cfg.lfcu, cfg.interconnect) {
            (Wt, false, Bus) => "cc-wt-bus",
            (Wt, false, Dir) => "cc-wt-dir",
            (Wt, false, Bcast) => "cc-wt-bcast",
            (Wt, true, Bus) => "cc-wt-lfcu-bus",
            (Wt, true, Dir) => "cc-wt-lfcu-dir",
            (Wt, true, Bcast) => "cc-wt-lfcu-bcast",
            (Wb, false, Bus) => "cc-wb-bus",
            (Wb, false, Dir) => "cc-wb-dir",
            (Wb, false, Bcast) => "cc-wb-bcast",
            (Wb, true, Bus) => "cc-wb-lfcu-bus",
            (Wb, true, Dir) => "cc-wb-lfcu-dir",
            (Wb, true, Bcast) => "cc-wb-lfcu-bcast",
        },
    }
}

/// Price of one memory access under a cost model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AccessCost {
    /// Whether the access is a remote memory reference.
    pub rmr: bool,
    /// Interconnect messages generated (RMR traffic + coherence traffic).
    pub messages: u64,
    /// Cached copies actually destroyed by this access (CC only). §8's key
    /// observation: totals satisfy `invalidations <= RMRs` because a copy is
    /// created by an RMR and destroyed at most once.
    pub invalidations: u64,
}

/// Helpers over one cell's validity words (a `stride`-word bitset of
/// process IDs): `words[blk]` bit `bit` covers process `blk * 64 + bit`.
mod procset {
    use super::ProcId;

    pub(super) fn contains(words: &[u64], p: ProcId) -> bool {
        let (blk, bit) = (p.index() / 64, p.index() % 64);
        words.get(blk).is_some_and(|b| b >> bit & 1 == 1)
    }

    pub(super) fn insert(words: &mut [u64], p: ProcId) {
        let (blk, bit) = (p.index() / 64, p.index() % 64);
        words[blk] |= 1 << bit;
    }

    pub(super) fn len(words: &[u64]) -> u64 {
        words.iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// Number of members other than `p`.
    pub(super) fn count_others(words: &[u64], p: ProcId) -> u64 {
        len(words) - u64::from(contains(words, p))
    }

    /// Retains only `p` (whether present or not, the set becomes `{p}`).
    pub(super) fn reset_to(words: &mut [u64], p: ProcId) {
        words.iter_mut().for_each(|b| *b = 0);
        insert(words, p);
    }

    /// Visits members in ascending process-ID order.
    pub(super) fn for_each_member(words: &[u64], mut f: impl FnMut(ProcId)) {
        for (blk, &bits) in words.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                f(ProcId((blk * 64 + bit) as u32));
                rest &= rest - 1;
            }
        }
    }
}

/// Mutable pricing state for one execution under one cost model.
///
/// For DSM this is stateless; for CC it tracks which processes hold a valid
/// cached copy of each cell — as one flat bitset (`stride` words per cell,
/// cells contiguous), so checkpoint/restore is a single `memcpy` and the
/// state encoding walks one cache-friendly buffer instead of chasing a
/// pointer per cell.
#[derive(Clone, Debug)]
pub struct CostState {
    model: CostModel,
    n_procs: usize,
    /// Flat cache-validity bitset: `valid[a * stride ..][..stride]` is the
    /// set of processes holding a valid cached copy of cell `a` (CC only;
    /// empty for DSM).
    valid: Vec<u64>,
    /// Words per cell: `ceil(n_procs / 64)`, minimum 1 (0 under DSM, where
    /// `valid` stays empty).
    stride: usize,
}

impl CostState {
    /// Creates pricing state for `n_procs` processes and `n_cells` cells.
    #[must_use]
    pub fn new(model: CostModel, n_procs: usize, n_cells: usize) -> Self {
        let stride = match model {
            CostModel::Dsm => 0,
            CostModel::Cc(_) => n_procs.div_ceil(64).max(1),
        };
        CostState {
            model,
            n_procs,
            valid: vec![0; n_cells * stride],
            stride,
        }
    }

    /// Copies `src`'s state into `self`, reusing the flat bit buffer — the
    /// checkpoint-restore hot path rolls pricing state back with one
    /// `memcpy` and no allocator traffic at steady state.
    pub(crate) fn copy_from(&mut self, src: &CostState) {
        self.model = src.model;
        self.n_procs = src.n_procs;
        self.stride = src.stride;
        self.valid.clone_from(&src.valid);
    }

    fn cell(&self, a: usize) -> &[u64] {
        &self.valid[a * self.stride..(a + 1) * self.stride]
    }

    /// The model being priced.
    #[must_use]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Processes currently holding a valid cached copy of `addr`, in
    /// ascending ID order. Always empty under DSM (which has no caches).
    ///
    /// Exposed for the differential audit layer, which diffs the fast path's
    /// cache-validity state against an independent reference after every
    /// audited access.
    #[must_use]
    pub fn holders(&self, addr: Addr) -> Vec<ProcId> {
        let mut out = Vec::new();
        if self.stride > 0 && (addr.index() + 1) * self.stride <= self.valid.len() {
            procset::for_each_member(self.cell(addr.index()), |p| out.push(p));
        }
        out
    }

    /// Appends a canonical word encoding of the pricing state to `out`:
    /// nothing under DSM (which is stateless), and for CC each cell's
    /// valid-copy holder set (member count followed by ascending IDs).
    ///
    /// Two cost states with equal encodings price every future access
    /// identically; the schedule-space explorer folds this into its state
    /// fingerprints so deduplication never merges states that would charge
    /// differently.
    pub fn encode_state(&self, out: &mut Vec<u64>) {
        self.for_each_state_word(|w| out.push(w));
    }

    /// Visits the words of [`CostState::encode_state`] in order without
    /// materializing them.
    pub(crate) fn for_each_state_word(&self, mut f: impl FnMut(u64)) {
        if self.stride == 0 {
            return;
        }
        for cell in self.valid.chunks_exact(self.stride) {
            f(procset::len(cell));
            procset::for_each_member(cell, |p| f(u64::from(p.0)));
        }
    }

    /// Upper bound on the length of [`CostState::encode_state`]: every
    /// cell's count word plus all `n` holders.
    pub(crate) fn max_state_words(&self) -> usize {
        self.valid
            .len()
            .checked_div(self.stride)
            .map_or(0, |cells| cells * (1 + self.n_procs))
    }

    /// Prices the access `applied` performed by `pid` on `addr` (whose module
    /// owner is `owner`), updating cache state for the CC model.
    ///
    /// Must be called exactly once per memory access, in execution order.
    pub fn charge(
        &mut self,
        pid: ProcId,
        addr: Addr,
        owner: Option<ProcId>,
        applied: &Applied,
    ) -> AccessCost {
        match self.model {
            CostModel::Dsm => {
                let rmr = owner != Some(pid);
                AccessCost {
                    rmr,
                    messages: u64::from(rmr),
                    invalidations: 0,
                }
            }
            CostModel::Cc(cfg) => self.charge_cc(cfg, pid, addr, applied),
        }
    }

    fn charge_cc(
        &mut self,
        cfg: CcConfig,
        pid: ProcId,
        addr: Addr,
        applied: &Applied,
    ) -> AccessCost {
        let stride = self.stride;
        let valid = &mut self.valid[addr.index() * stride..(addr.index() + 1) * stride];
        if applied.failed_comparison && cfg.lfcu {
            // LFCU: a failed comparison primitive is applied locally.
            return AccessCost::default();
        }
        if !applied.nontrivial {
            // Read-like access (read, LL, or standard failed comparison):
            // served by the cache if a valid copy exists, otherwise one fetch.
            let rmr = !procset::contains(valid, pid);
            procset::insert(valid, pid);
            return AccessCost {
                rmr,
                messages: u64::from(rmr),
                invalidations: 0,
            };
        }
        // Nontrivial operation.
        let holders_elsewhere = procset::count_others(valid, pid);
        let rmr = match cfg.protocol {
            Protocol::WriteThrough => true,
            Protocol::WriteBack => !(procset::contains(valid, pid) && holders_elsewhere == 0),
        };
        let (invalidations, coherence_messages) = if cfg.lfcu {
            // Write-update: remote copies are refreshed in place, not destroyed.
            let updates = match cfg.interconnect {
                Interconnect::Bus => u64::from(holders_elsewhere > 0),
                Interconnect::IdealDirectory => holders_elsewhere,
                Interconnect::StatelessBroadcast => {
                    if rmr {
                        self.n_procs as u64 - 1
                    } else {
                        0
                    }
                }
            };
            (0, updates)
        } else {
            let msgs = match cfg.interconnect {
                Interconnect::Bus => u64::from(holders_elsewhere > 0),
                Interconnect::IdealDirectory => holders_elsewhere,
                Interconnect::StatelessBroadcast => {
                    if rmr {
                        self.n_procs as u64 - 1
                    } else {
                        0
                    }
                }
            };
            (holders_elsewhere, msgs)
        };
        if cfg.lfcu {
            procset::insert(valid, pid);
        } else {
            procset::reset_to(valid, pid);
        }
        AccessCost {
            rmr,
            messages: u64::from(rmr) + coherence_messages,
            invalidations,
        }
    }
}

/// Convenience: prices a single hypothetical access without mutating state.
///
/// Useful for "is the next op an RMR?" peeks by the lower-bound adversary.
#[must_use]
pub fn would_be_rmr(
    state: &CostState,
    pid: ProcId,
    addr: Addr,
    owner: Option<ProcId>,
    nontrivial_hint: bool,
) -> bool {
    match state.model {
        CostModel::Dsm => owner != Some(pid),
        CostModel::Cc(cfg) => {
            let valid = state.cell(addr.index());
            if !nontrivial_hint {
                !procset::contains(valid, pid)
            } else {
                match cfg.protocol {
                    Protocol::WriteThrough => true,
                    Protocol::WriteBack => {
                        !(procset::contains(valid, pid) && procset::count_others(valid, pid) == 0)
                    }
                }
            }
        }
    }
}

/// Dummy word re-export so doctests elsewhere can reference the alias.
#[doc(hidden)]
pub type _Word = Word;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Applied;

    fn read_applied(v: Word) -> Applied {
        Applied {
            result: v,
            nontrivial: false,
            failed_comparison: false,
        }
    }
    fn write_applied() -> Applied {
        Applied {
            result: 0,
            nontrivial: true,
            failed_comparison: false,
        }
    }
    fn failed_cas() -> Applied {
        Applied {
            result: 0,
            nontrivial: false,
            failed_comparison: true,
        }
    }

    const A: Addr = Addr(0);
    const P: ProcId = ProcId(0);
    const Q: ProcId = ProcId(1);

    #[test]
    fn dsm_charges_by_ownership_only() {
        let mut st = CostState::new(CostModel::Dsm, 4, 1);
        assert!(st.charge(P, A, Some(Q), &read_applied(0)).rmr);
        assert!(!st.charge(P, A, Some(P), &read_applied(0)).rmr);
        assert!(
            st.charge(P, A, None, &write_applied()).rmr,
            "global cells are remote to all in DSM"
        );
        // Repeated remote reads stay RMRs in DSM (no caching).
        assert!(st.charge(P, A, Some(Q), &read_applied(0)).rmr);
        assert!(st.charge(P, A, Some(Q), &read_applied(0)).rmr);
    }

    #[test]
    fn cc_repeated_reads_cost_one_rmr() {
        let mut st = CostState::new(CostModel::cc_default(), 4, 1);
        assert!(st.charge(P, A, None, &read_applied(0)).rmr);
        assert!(!st.charge(P, A, None, &read_applied(0)).rmr);
        assert!(!st.charge(P, A, None, &read_applied(0)).rmr);
    }

    #[test]
    fn cc_write_by_other_invalidates_reader() {
        let mut st = CostState::new(CostModel::cc_default(), 4, 1);
        st.charge(P, A, None, &read_applied(0));
        let w = st.charge(Q, A, None, &write_applied());
        assert!(w.rmr);
        assert_eq!(w.invalidations, 1, "P's copy destroyed");
        assert!(
            st.charge(P, A, None, &read_applied(0)).rmr,
            "P must re-fetch"
        );
    }

    #[test]
    fn cc_write_through_writes_always_rmr() {
        let mut st = CostState::new(
            CostModel::Cc(CcConfig {
                protocol: Protocol::WriteThrough,
                ..Default::default()
            }),
            4,
            1,
        );
        assert!(st.charge(P, A, None, &write_applied()).rmr);
        assert!(st.charge(P, A, None, &write_applied()).rmr);
    }

    #[test]
    fn cc_write_back_sole_holder_writes_locally() {
        let mut st = CostState::new(
            CostModel::Cc(CcConfig {
                protocol: Protocol::WriteBack,
                ..Default::default()
            }),
            4,
            1,
        );
        assert!(
            st.charge(P, A, None, &write_applied()).rmr,
            "first write fetches the line"
        );
        assert!(
            !st.charge(P, A, None, &write_applied()).rmr,
            "exclusive holder writes locally"
        );
        st.charge(Q, A, None, &read_applied(0)); // Q caches a copy
        assert!(
            st.charge(P, A, None, &write_applied()).rmr,
            "sharing forces an RMR again"
        );
    }

    #[test]
    fn failed_comparison_standard_vs_lfcu() {
        let mut standard = CostState::new(CostModel::cc_default(), 4, 1);
        assert!(
            standard.charge(P, A, None, &failed_cas()).rmr,
            "standard: failed CAS fetches the line"
        );
        assert!(
            !standard.charge(P, A, None, &failed_cas()).rmr,
            "…then it is cached"
        );

        let mut lfcu = CostState::new(
            CostModel::Cc(CcConfig {
                lfcu: true,
                ..Default::default()
            }),
            4,
            1,
        );
        let c = lfcu.charge(P, A, None, &failed_cas());
        assert!(
            !c.rmr && c.messages == 0,
            "LFCU: failed comparisons are local"
        );
    }

    #[test]
    fn lfcu_write_updates_instead_of_invalidating() {
        let cfg = CcConfig {
            lfcu: true,
            interconnect: Interconnect::IdealDirectory,
            ..Default::default()
        };
        let mut st = CostState::new(CostModel::Cc(cfg), 4, 1);
        st.charge(Q, A, None, &read_applied(0));
        let w = st.charge(P, A, None, &write_applied());
        assert_eq!(w.invalidations, 0);
        assert_eq!(w.messages, 2, "1 write + 1 update to Q");
        assert!(
            !st.charge(Q, A, None, &read_applied(0)).rmr,
            "Q's copy stays valid"
        );
    }

    #[test]
    fn interconnect_message_counts() {
        // Two readers cache the line, then P writes.
        let setup = |ic| {
            let mut st = CostState::new(
                CostModel::Cc(CcConfig {
                    interconnect: ic,
                    ..Default::default()
                }),
                8,
                1,
            );
            st.charge(Q, A, None, &read_applied(0));
            st.charge(ProcId(2), A, None, &read_applied(0));
            st.charge(P, A, None, &write_applied())
        };
        assert_eq!(
            setup(Interconnect::Bus).messages,
            1 + 1,
            "write + one broadcast"
        );
        assert_eq!(
            setup(Interconnect::IdealDirectory).messages,
            1 + 2,
            "write + exactly the 2 holders"
        );
        assert_eq!(
            setup(Interconnect::StatelessBroadcast).messages,
            1 + 7,
            "write + all N-1 others"
        );
    }

    #[test]
    fn bus_write_with_no_holders_sends_no_coherence_traffic() {
        let mut st = CostState::new(CostModel::cc_default(), 8, 1);
        let w = st.charge(P, A, None, &write_applied());
        assert_eq!(w.messages, 1);
        assert_eq!(w.invalidations, 0);
    }

    #[test]
    fn would_be_rmr_matches_charge_for_reads() {
        let mut st = CostState::new(CostModel::cc_default(), 4, 1);
        assert!(would_be_rmr(&st, P, A, None, false));
        st.charge(P, A, None, &read_applied(0));
        assert!(!would_be_rmr(&st, P, A, None, false));
        assert!(would_be_rmr(&st, Q, A, None, false));
    }

    #[test]
    fn procset_operations() {
        // Two 64-bit words cover pids past 63.
        let mut s = [0u64; 2];
        assert!(!procset::contains(&s, ProcId(70)));
        procset::insert(&mut s, ProcId(70));
        procset::insert(&mut s, ProcId(3));
        assert!(procset::contains(&s, ProcId(70)) && procset::contains(&s, ProcId(3)));
        assert_eq!(procset::len(&s), 2);
        assert_eq!(procset::count_others(&s, ProcId(3)), 1);
        assert_eq!(procset::count_others(&s, ProcId(9)), 2);
        procset::reset_to(&mut s, ProcId(9));
        assert_eq!(procset::len(&s), 1);
        assert!(procset::contains(&s, ProcId(9)) && !procset::contains(&s, ProcId(70)));
    }

    #[test]
    fn members_and_holders_enumerate_in_order() {
        let mut s = [0u64; 2];
        procset::insert(&mut s, ProcId(70));
        procset::insert(&mut s, ProcId(3));
        procset::insert(&mut s, ProcId(64));
        let mut members = Vec::new();
        procset::for_each_member(&s, |p| members.push(p));
        assert_eq!(members, vec![ProcId(3), ProcId(64), ProcId(70)]);

        let mut st = CostState::new(CostModel::cc_default(), 4, 2);
        st.charge(Q, A, None, &read_applied(0));
        st.charge(P, A, None, &read_applied(0));
        assert_eq!(st.holders(A), vec![P, Q]);
        assert_eq!(st.holders(Addr(1)), Vec::<ProcId>::new());

        let dsm = CostState::new(CostModel::Dsm, 4, 2);
        assert!(dsm.holders(A).is_empty(), "DSM has no caches");
    }
}
