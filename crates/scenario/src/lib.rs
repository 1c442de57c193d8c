//! `shm-scenario`: the shared scenario schema of the cc-dsm workspace.
//!
//! One crate, no dependencies, four pieces:
//!
//! - [`manifest`] — the versioned `cc-dsm/manifest/v1` job manifest: an
//!   experiment kind (E1–E10) plus its scenario parameters, with strict
//!   validation (structured `cc-dsm/error/v1` errors) and a canonical
//!   serialization whose content hash is the job ID.
//! - [`rows`] — the experiment row schemas, lifted out of `bench` so the
//!   `exp_*` binaries and the `shm-serve` job server share one definition.
//! - [`canon`] — the canonical (timing-free, byte-deterministic) JSON
//!   serializers for those rows.
//! - [`json`] / [`hash`] / [`cli`] — the dependency-free JSON parser, the
//!   FNV-1a-128 content hash, and the `--flag value` CLI helpers the
//!   binaries share.
//!
//! `bench` re-exports `rows` (so `bench::E9Row` et al. still work), and
//! `rmr-adversary` re-exports [`PhaseTimings`]. `bench::run` is the one
//! entry path that runs a manifest and renders its rows through [`canon`]:
//! the `exp_*` binaries' `--canon` files and the `shm-serve` job results
//! are the same bytes. The determinism contract — canonical output
//! identical across thread counts — is what makes that promise hold at any
//! thread count, and what makes the job log replayable.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod canon;
pub mod cli;
pub mod hash;
pub mod json;
pub mod manifest;
pub mod rows;

pub use hash::content_hash;
pub use manifest::{ExperimentKind, Manifest, ManifestError, ALL_KINDS, MANIFEST_SCHEMA};
pub use rows::*;
