//! # stencil-hmls — automatic optimisation of stencil codes for FPGA
//!
//! Rust reproduction of *"Stencil-HMLS: A multi-layered approach to the
//! automatic optimisation of stencil codes on FPGA"* (SC-W 2023). The crate
//! implements the paper's compiler: stencil-dialect IR in, an optimised
//! HLS-dialect dataflow design out (plus the lowering to annotated
//! LLVM-dialect IR and the `f++`-equivalent directive pass).
//!
//! Pipeline stages (see DESIGN.md for the per-experiment map):
//!
//! - [`classify`] — step 1: kernel-argument classification.
//! - [`fuse`] / [`split`] — the CPU-favoured fusion, which the vector
//!   tier runs ([`driver::HostForm`]), and the FPGA-favoured per-field
//!   split (step 4).
//! - [`shift_buffer`] — window geometry shared by transform, runtime and
//!   resource model (steps 3/5, Figure 2).
//! - [`hmls`] — the stencil→HLS dataflow construction (steps 2–9,
//!   Figure 3), including dead compute-stage pruning. Its last phase
//!   extracts the design's [`shmls_fpga_sim::design::DesignDescriptor`]
//!   ([`HmlsOutput::design`], [`CompiledKernel::design`]), whose wiring
//!   check is the stream-graph verification: every FIFO must have a
//!   producer and a consumer or the design deadlocks.
//! - [`cpu_lowering`] — the reference Von-Neumann lowering (baseline
//!   structure, golden path).
//! - [`llvm_lowering`] — HLS dialect → annotation-encoded LLVM dialect.
//! - [`fpp`] — the f++ equivalent: marker-call pattern matching back into
//!   structured directives.
//! - [`driver`] — end-to-end compilation entry points.
//! - [`cli`] — the flag reader, failure type and exit path `shmlsc` and
//!   `repro` share.
//! - [`cache`] — content-addressed compile cache (kernel source +
//!   compile-option digest), shared by the scale-out runners.
//! - [`persist`] — the disk-persistent tier behind the compile server:
//!   checksummed, atomically written design records that make restarts
//!   warm ([`persist::PersistentCache`]).
//! - [`engine`] / [`scale`] — the execution tiers behind one trait, and
//!   scale-out execution on any of them: parallel compute units marched
//!   in temporally-blocked rounds ([`scale::MultiCuReport`]).
//! - [`autotune`] — the joint design-space autotuner: sweeps
//!   CU count × slab split × FIFO depth × bundling × temporal depth,
//!   prunes with the analytic models, and cycle-simulates only the
//!   Pareto frontier ([`autotune::tune`]); the §4 port-bundling heuristic
//!   and the FIFO-depth ladder behind `repro dse` are views of its cost
//!   and simulate phases.
//!
//! ## Example
//!
//! ```
//! use stencil_hmls::runner::{run_hls, run_stencil, KernelData};
//! use stencil_hmls::{compile, CompileOptions};
//!
//! let compiled = compile(
//!     r#"
//! kernel blur {
//!   grid(8, 8)
//!   halo 1
//!   field a : input
//!   field b : output
//!   compute b { b = 0.25 * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1]) }
//! }
//! "#,
//!     &CompileOptions::default(),
//! )
//! .unwrap();
//!
//! // Bind a halo-padded input buffer and simulate the dataflow design.
//! let mut a = shmls_ir::interp::Buffer::zeroed(vec![10, 10], vec![-1, -1]);
//! a.store(&[4, 4], 8.0).unwrap();
//! let data = KernelData::default().buffer("a", a);
//! let (dataflow, _stats) = run_hls(&compiled, &data).unwrap();
//! let reference = run_stencil(&compiled, &data).unwrap();
//! assert_eq!(
//!     dataflow["b"].load(&[4, 5]).unwrap(),
//!     reference["b"].load(&[4, 5]).unwrap(),
//! );
//! assert_eq!(dataflow["b"].load(&[4, 5]).unwrap(), 2.0);
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod cache;
pub mod canonicalize;
pub mod classify;
pub mod cli;
pub mod cpu_lowering;
pub mod driver;
pub mod engine;
pub mod fpp;
pub mod fuse;
pub mod hmls;
pub mod llvm_lowering;
pub mod persist;
pub mod runner;
pub mod scale;
pub mod shift_buffer;
pub mod split;
pub mod synthesis_report;

pub use autotune::{tune, Constraint, SplitStrategy, TuneOptions, TuneReport, TunedCandidate};
pub use cache::{fnv1a, global_cache, CacheStats, CompileCache, Disposition, Fnv64};
pub use canonicalize::CanonicalizePass;
pub use driver::{compile, compile_kernel, CompileOptions, CompiledKernel, TargetPath};
pub use hmls::{stencil_to_hls, HmlsOptions, HmlsOutput, HmlsReport};
pub use persist::{DesignRecord, DesignSummary, DiskStore, PersistentCache, ServeStats};
pub use scale::{
    feedback_pairs, partition, run_hls_multi_cu_report, run_time_marched, run_time_marched_with,
    time_march_reference, CuReport, HaloFault, MarchOptions, MultiCuReport,
};
pub use split::SplitPass;
