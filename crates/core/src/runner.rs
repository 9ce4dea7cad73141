//! Convenience runners: the named buffers a kernel runs over, and one
//! function per execution tier — each a single sweep on the matching
//! [`Engine`].

use std::collections::BTreeMap;
use std::time::Duration;

use shmls_fpga_sim::deadlock::DeadlockReport;
use shmls_ir::bytecode::ApplyMode;
use shmls_ir::error::IrResult;
use shmls_ir::interp::Buffer;
pub use shmls_ir::interp::KernelData;
use shmls_ir::ir_error;

use crate::driver::CompiledKernel;
pub use crate::engine::StreamStats;
use crate::engine::{deadlocked, run_design, Binding, Engine, Interp, Stream, Threaded};

/// Run the frontend's stencil-dialect function directly (reference
/// semantics).
pub fn run_stencil(
    compiled: &CompiledKernel,
    data: &KernelData,
) -> IrResult<BTreeMap<String, Buffer>> {
    Ok(Interp::Tree.sweep(compiled, data, 1)?.outputs)
}

/// Run the stencil-dialect function through the bytecode tier in `mode`:
/// each `stencil.apply` with a compiled plan executes as a flat register
/// program instead of a per-point tree walk. Everything outside the
/// applies (loads, stores, calls) still interprets normally, and applies
/// without a plan fall back to the tree-walker — so this always produces
/// results bitwise-identical to [`run_stencil`], just faster. `Scalar` is
/// the per-point dispatch the bench harness measures speedups against;
/// `Chunked` is the vector tier (optionally threaded over the axis-0
/// slab partition). Results are bitwise-identical in every mode.
pub fn run_stencil_bytecode_with(
    compiled: &CompiledKernel,
    data: &KernelData,
    mode: ApplyMode,
) -> IrResult<BTreeMap<String, Buffer>> {
    Ok(Interp::Bytecode(mode).sweep(compiled, data, 1)?.outputs)
}

/// Run the CPU (Von-Neumann loop nest) lowering.
pub fn run_cpu(compiled: &CompiledKernel, data: &KernelData) -> IrResult<BTreeMap<String, Buffer>> {
    Ok(Interp::Cpu.sweep(compiled, data, 1)?.outputs)
}

/// Run the Stencil-HMLS dataflow design on the sequential schedule (its
/// stages in program order over unbounded FIFOs), returning the written
/// fields and the run's [`StreamStats`].
pub fn run_hls(
    compiled: &CompiledKernel,
    data: &KernelData,
) -> IrResult<(BTreeMap<String, Buffer>, StreamStats)> {
    run_design(compiled, &Binding::new(compiled), data, Stream)?
        .map_err(|report| deadlocked(Stream.name(), &report))
}

/// Run the Stencil-HMLS design on the threaded engine (bounded FIFOs, one
/// thread per stage). The `Duration` is ignored: a stall is detected the
/// moment every running stage waits on a FIFO, not timed out.
///
/// The outer `IrResult` is for execution *errors* (bad IR, failed calls);
/// the inner `Result` distinguishes a completed run (the written fields)
/// from a deadlocked one. A deadlock is never reported silently: the
/// [`DeadlockReport`] names every blocked stage and the stream (with
/// occupancy vs. declared depth) it was blocked on.
pub fn run_hls_threaded(
    compiled: &CompiledKernel,
    data: &KernelData,
    _watchdog: Duration,
) -> IrResult<Result<BTreeMap<String, Buffer>, Box<DeadlockReport>>> {
    let outcome = run_design(compiled, &Binding::new(compiled), data, Threaded)?;
    Ok(outcome.map(|(outputs, _)| outputs))
}

/// Maximum absolute difference between two output maps over the interior;
/// an error when `b` lacks one of `a`'s fields or a field does not cover
/// the interior.
pub fn max_output_diff(
    a: &BTreeMap<String, Buffer>,
    b: &BTreeMap<String, Buffer>,
    interior_lb: &[i64],
    interior_ub: &[i64],
) -> IrResult<f64> {
    let mut worst: f64 = 0.0;
    for (name, ba) in a {
        let bb = b
            .get(name)
            .ok_or_else(|| ir_error!("output `{name}` is missing from the second run"))?;
        for p in shmls_ir::interp::iter_box(interior_lb, interior_ub) {
            worst = worst.max((ba.load(&p)? - bb.load(&p)?).abs());
        }
    }
    Ok(worst)
}

// ---- compute-unit replication (domain decomposition) --------------------

/// Execute a kernel over `cus` compute units by domain decomposition along
/// the first axis, mirroring §4's CU replication (4 CUs for PW advection).
///
/// Each CU owns a contiguous slab `[start, end)` of axis 0 and receives a
/// halo-padded copy of its inputs; every distinct slab height is compiled
/// to its own design — the static-shape property the paper's future work
/// calls out ("the current implementation with static shape needs … a new
/// bitstream per problem size") — shared through the process-wide compile
/// cache. The slabs execute concurrently on a worker pool; see
/// [`crate::scale`] for the execution machinery, the per-CU report, and
/// the time-marching driver.
///
/// Returns the merged outputs, exactly as a single-CU run would produce.
pub fn run_hls_multi_cu(
    kernel: &shmls_frontend::KernelDef,
    data: &KernelData,
    cus: usize,
    opts: &crate::driver::CompileOptions,
) -> IrResult<BTreeMap<String, Buffer>> {
    let (outputs, _) = crate::scale::run_hls_multi_cu_report(kernel, data, cus, opts)?;
    Ok(outputs)
}
