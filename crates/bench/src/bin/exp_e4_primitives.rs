//! E4 — the primitive boundary: FAA escapes the lower bound, reads/writes
//! do not.
//!
//! Run with: `cargo run --release -p bench --bin exp_e4_primitives`
//!
//! Scenario flags: `--sizes 16,32`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E4);
}
