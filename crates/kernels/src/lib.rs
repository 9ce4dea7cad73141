//! # shmls-kernels — the paper's benchmark kernels
//!
//! The two real-world 3D stencil kernels of the evaluation (§4), written
//! in the frontend DSL with hand-written native Rust golden references:
//!
//! - [`pw_advection`] — the Piacsek–Williams advection scheme (MONC
//!   atmospheric model): 3 stencil computations over 3 fields, 7 AXI
//!   ports per compute unit.
//! - [`tracer_advection`] — the NEMO tracer advection scheme
//!   (PSycloneBench): 24 stencil computations across 6 written fields, 17
//!   memory-mapped arguments.
//! - [`heat3d`] — 3D heat diffusion with a per-level conductivity (the
//!   temporal-blocking benchmark; twin of `kernels/heat3d.stencil`).
//! - [`laplace`] — small demo kernels (quickstart, Listing 1).
//! - [`workload`] — the paper's problem sizes (8M/32M/134M, 8M/33M).
//! - [`catalogue`] — the four kernels above as one table: name, title,
//!   source, seeded inputs and sizes, for whoever resolves a kernel name.
//! - [`grid`] — halo-padded grid storage for the golden paths.

#![warn(missing_docs)]

/// `KernelData` of the named members of an inputs struct — grids and
/// parameter profiles as buffers, then scalars — keyed by the member
/// names, which are the DSL's field names.
macro_rules! kernel_data {
    ($inputs:expr; $($buffer:ident),*; $($scalar:ident),*) => {
        shmls_ir::interp::KernelData::default()
            $(.buffer(stringify!($buffer), $inputs.$buffer.to_buffer()))*
            $(.scalar(stringify!($scalar), $inputs.$scalar))*
    };
}

pub mod catalogue;
pub mod grid;
pub mod heat3d;
pub mod laplace;
pub mod pw_advection;
pub mod tracer_advection;
pub mod workload;

pub use grid::{fsign, Grid3, Param1};
pub use workload::{pw_sizes, tracer_sizes, validation_size, ProblemSize};
