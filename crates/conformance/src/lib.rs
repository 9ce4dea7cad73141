//! # shmls-conformance — cross-engine differential conformance
//!
//! The pipeline can execute one stencil program many ways: the pure IR
//! interpreter on the stencil dialect (the **oracle**), the execution
//! tiers of `stencil_hmls::engine` — the bytecode tier scalar and in
//! blocks, the CPU loop-nest lowering, the HLS dataflow design on the
//! executor's sequential and threaded schedules — and the cycle-stepped
//! simulator on the extracted
//! [`DesignDescriptor`](shmls_fpga_sim::design::DesignDescriptor). The
//! paper's claim is that the stencil→HLS restructuring is
//! semantics-preserving; this crate checks that claim on *generated*
//! programs, not just the two curated paper kernels:
//!
//! - [`generator`] — a seeded structured generator emitting
//!   random-but-valid frontend kernels (1–3 fields, star/box
//!   neighbourhoods, temporaries, params/consts, 1–3D grids),
//! - [`harness`] — compiles each kernel once and sweeps its one list of
//!   tiers ([`harness::TIERS`]) through the `Engine` trait, comparing each
//!   against the oracle with a configurable ULP tolerance, with a
//!   fault-injection hook ([`harness::Fault`]) that proves the harness
//!   detects real miscompiles; a scale dimension
//!   ([`harness::ScaleConfig`]) additionally time-marches each kernel
//!   over parallel CU slabs and compares against the iterated oracle,
//! - [`mod@shrink`] — minimizes a failing kernel (dropping computes and
//!   fields, shrinking grids and halos, simplifying expressions) while
//!   the failure kind reproduces,
//! - [`corpus`] — persists minimized reproducers as committed `.knl`
//!   files that `tests/corpus_replay.rs` re-checks on every `cargo test`,
//! - [`fuzz`] — the loop tying it together, driven by `repro fuzz`.
//!
//! Determinism is load-bearing: the same `--seed` produces byte-identical
//! kernels on every host (the workspace carries its own SplitMix64 [`rng`]),
//! and [`fuzz::FuzzSummary::digest`] lets CI prove it.

#![warn(missing_docs)]

pub mod corpus;
pub mod fuzz;
pub mod generator;
pub mod harness;
pub mod shrink;

pub use fuzz::{rotated_scale, run_fuzz, FuzzOptions, FuzzSummary};
pub use generator::{generate, GenOptions};
pub use harness::{
    check_kernel, check_names, clamp_scale, CheckOptions, Failure, Fault, ScaleConfig,
};
pub use shrink::shrink;

/// The workspace's SplitMix64 generator, which lives in `shmls-ir` so every
/// crate's seeded sweeps can use it; this path is the one the fuzzer's
/// callers import.
pub use shmls_ir::rng;
