//! E10 — seeded PCT exploration at adversary scale: randomized priority
//! schedules over the shipped signaling algorithms (and the seeded-buggy
//! negative controls) at n = 8, 16, 32 — sizes far beyond exhaustive reach —
//! under both cost models, judged by the Specification 4.1 oracle with E9's
//! shrink → audit counterexample pipeline.
//!
//! Run with: `cargo run --release -p bench --bin exp_e10_pct`
//!
//! Scenario flags: `--sizes 8,16,32`, `--seed N` (base sampling seed),
//! `--max-polls N`, `--threads N`, `--algorithm`/`--model` row filters, and
//! `--mem-budget BYTES`, which caps the end-state fingerprint coverage set
//! (beyond it keys spill to disk with every verdict and count unchanged).
//!
//! Exits nonzero when the sampling refutes the repo's claims: an
//! in-contract Specification 4.1 violation in a shipped algorithm, a missed
//! seeded-buggy violation (the negative control PCT must catch), or a
//! counterexample that fails audit re-validation. Sampling is never
//! exhaustive, so — unlike E9 — a clean row means "no violation within the
//! documented budget", not absence of one.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E10);
}
