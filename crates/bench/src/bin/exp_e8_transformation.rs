//! E8 — Corollary 6.14: CAS does not escape the lower bound, natively or
//! after transformation to reads/writes; FAA does.
//!
//! Run with: `cargo run --release -p bench --bin exp_e8_transformation`
//!
//! Scenario flags: `--sizes 16,32`, `--threads N`, and `--audit`, which
//! shadow-executes each variant's recording phase under naive reference
//! implementations of all four cost models; the process exits nonzero on
//! any divergence.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E8);
}
