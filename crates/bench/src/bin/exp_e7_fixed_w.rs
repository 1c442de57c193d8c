//! E7 — Ω(W) signaler cost for fixed, fully participating waiters (§7).
//!
//! Run with: `cargo run --release -p bench --bin exp_e7_fixed_w`
//!
//! Scenario flags: `--sizes 4,8`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E7);
}
