//! E5 — §8: RMRs vs interconnect messages under three coherence fabrics.
//!
//! Run with: `cargo run --release -p bench --bin exp_e5_messages`
//!
//! Scenario flags: `--n N`, `--threads N`.
//!
//! Shared flags (see [`bench::cli`]): `--canon FILE` writes the canonical
//! row JSON — the same bytes `bench::run::run_manifest` returns for this
//! manifest — and the observability flags of [`bench::cli::ObsFlags`].

fn main() {
    bench::cli::main(bench::ExperimentKind::E5);
}
