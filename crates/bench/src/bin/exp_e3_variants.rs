//! E3 — §7 variant upper bounds, measured in both models.
//!
//! Run with: `cargo run --release -p bench --bin exp_e3_variants`
//!
//! Scenario flags: `--waiters N`, `--polls N`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E3);
}
