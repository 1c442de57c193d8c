//! E1 — §5 upper bound: O(1) RMRs per process in the CC model.
//!
//! Run with: `cargo run --release -p bench --bin exp_e1_cc_upper`
//!
//! Scenario flags: `--sizes 4,16`, `--polls N`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E1);
}
