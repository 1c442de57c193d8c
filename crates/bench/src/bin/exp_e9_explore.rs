//! E9 — bounded model checking: exhaustive schedule-space exploration of the
//! shipped signaling algorithms (and the seeded-buggy negative control) at
//! small n, with the §6 adversary's chase cost as a cross-check.
//!
//! Run with: `cargo run --release -p bench --bin exp_e9_explore`
//!
//! Scenario flags: `--waiters N`, `--max-polls N`, `--threads N`,
//! `--algorithm`/`--model` row filters, and `--mem-budget BYTES`
//! (`64k`/`512m`/`1g` accepted), which caps the explorer's visited-set +
//! frontier residency; beyond it keys and nodes spill to delta-compressed
//! disk runs with every verdict, count, maximum, and counterexample
//! byte-identical to the unbudgeted run. `--deep` replaces the sweep with
//! the single **deep row** — the largest shipped state space (single-waiter
//! × DSM) one size up at n = 4, the row CI runs under a hard address-space
//! cap to prove the spill path holds the line.
//!
//! Exits nonzero when the exploration refutes the repo's claims: an
//! in-contract Specification 4.1 violation in a shipped algorithm, a missed
//! seeded-buggy violation (the negative control), a non-exhaustive run, or
//! an explored RMR maximum below the adversary's constructed chase cost.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E9);
}
