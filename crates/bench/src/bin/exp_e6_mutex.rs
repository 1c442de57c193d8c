//! E6 — the classical mutual-exclusion RMR landscape (§3/§8 context).
//!
//! Run with: `cargo run --release -p bench --bin exp_e6_mutex`
//!
//! Scenario flags: `--sizes 2,4`, `--cycles N`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E6);
}
