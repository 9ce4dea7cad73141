//! The execution tiers behind one interface.
//!
//! A compiled kernel carries several executable forms of the same
//! computation: the frontend's stencil-dialect function (tree-walked, or
//! with each `stencil.apply` run as a bytecode program, scalar or
//! chunked), the Von-Neumann loop nest, and the HLS dataflow design
//! (sequential Kahn executor, or one thread per stage over bounded
//! FIFOs). [`Engine`] is what they share — compiled kernel, bound data
//! and a sweep depth in; the written fields, and whatever structural
//! statistics only that tier can report, out — so a caller that wants
//! values (the time march, the differential harness) is written once
//! against the trait and picks a tier by passing a value.
//!
//! A sweep of depth `d` advances `d` timesteps, each step's outputs fed
//! to the next step's inputs by [`feedback_pairs`]. The interpreter tiers
//! ([`Interp`]) do that by calling the function `d` times over one store;
//! the dataflow tiers ([`Stream`], [`Threaded`]) run a design that was
//! *compiled* `d` deep (`HmlsOptions::temporal_depth`), whose halo-merge
//! seam stages compute the same feed on-chip. Both read a fed field's
//! halo ring from the output argument's buffer, which is what makes them
//! bitwise interchangeable.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

use shmls_fpga_sim::deadlock::DeadlockReport;
use shmls_fpga_sim::executor::execute_hls_kernel;
use shmls_fpga_sim::threaded::{execute_threaded, ThreadedOutcome};
use shmls_frontend::{FieldKind, KernelArg};
use shmls_ir::bytecode::ApplyMode;
use shmls_ir::error::IrResult;
use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue, Store};
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::driver::CompiledKernel;
use crate::runner::KernelData;
use crate::scale::feedback_pairs;

/// Stream statistics from a sequential-engine run:
/// `(streams created, elements pushed, 512-bit memory beats)`.
pub type StreamStats = (usize, u64, u64);

/// What one sweep produced.
#[derive(Debug)]
pub struct Sweep {
    /// The externally written fields (`output` and `inout`), whole
    /// buffers, by name.
    pub outputs: BTreeMap<String, Buffer>,
    /// Stream statistics, from the tiers that execute streams.
    pub stats: Option<StreamStats>,
}

/// One execution tier.
pub trait Engine: Debug + Sync {
    /// Name on the command line and in reports.
    fn name(&self) -> &'static str;

    /// Advance `compiled` over `data` by `depth` timesteps.
    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep>;

    /// The least work (interior points × depth) for which one sweep is
    /// worth a thread of its own — the time march runs smaller slabs one
    /// after another on the calling thread. Spawning and joining a
    /// march's workers costs some 130 µs a round, so each engine names
    /// what it sweeps in about a millisecond: 16k point-steps on the
    /// bytecode tiers (12–16M a second), 16 on the dataflow engines and
    /// 64 on the tree-walker (tens of thousands a second).
    fn min_parallel_work(&self) -> u64;
}

/// The engine called `name` on the command line: `vector`, `stream` or
/// `threaded` (with a 30-second watchdog).
pub fn by_name(name: &str) -> Option<&'static dyn Engine> {
    const THREADED: Threaded = Threaded {
        watchdog: Duration::from_secs(30),
    };
    let engines: [&'static dyn Engine; 3] = [&VECTOR, &Stream, &THREADED];
    engines.into_iter().find(|e| e.name() == name)
}

/// The interpreter tiers: which function of the compiled module runs, and
/// how its `stencil.apply` ops execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interp {
    /// The stencil-dialect function, every apply tree-walked point by
    /// point: the reference semantics.
    Tree,
    /// The stencil-dialect function with each apply that has a compiled
    /// plan run as a flat register program in the given mode (applies
    /// without one fall back to the tree-walker). Bitwise identical to
    /// [`Interp::Tree`] in every mode.
    Bytecode(ApplyMode),
    /// The Von-Neumann loop-nest lowering.
    Cpu,
}

/// The vector tier: chunked SoA bytecode on the calling thread. What the
/// time march runs by default — it already gives each compute unit a
/// thread of its own.
pub const VECTOR: Interp = Interp::Bytecode(ApplyMode::Chunked { threads: 1 });

impl Engine for Interp {
    fn name(&self) -> &'static str {
        match self {
            Interp::Tree => "tree",
            Interp::Bytecode(ApplyMode::Scalar) => "bytecode",
            Interp::Bytecode(ApplyMode::Chunked { .. }) => "vector",
            Interp::Cpu => "cpu",
        }
    }

    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        let func = match self {
            Interp::Cpu if compiled.cpu_func.is_none() => {
                ir_bail!("kernel was compiled without the CPU path")
            }
            Interp::Cpu => compiled.cpu_name(),
            _ => compiled.kernel.name.clone(),
        };
        let mut no = NoExtern;
        let mut machine = Machine::new(&compiled.ctx, compiled.module, &mut no);
        if let Interp::Bytecode(mode) = *self {
            machine.apply_plans = compiled.apply_plans.clone();
            machine.apply_mode = mode;
        }
        let (args, handles) = bind_args(compiled, data, &mut machine.store)?;
        machine.call(&func, &args)?;
        if depth > 1 {
            // A fed input becomes the whole buffer its output was written
            // into: the new interior inside the output argument's ring.
            // An `inout` field is its own feed.
            let feeds: Vec<(usize, usize)> = feedback_pairs(&compiled.kernel)
                .iter()
                .filter(|(out_name, in_name)| out_name != in_name)
                .map(|(out_name, in_name)| (handles[out_name], handles[in_name]))
                .collect();
            for _ in 1..depth {
                for &(out, input) in &feeds {
                    let (src, dst) = machine.store.pair_mut(out, input)?;
                    dst.data.copy_from_slice(&src.data);
                }
                machine.call(&func, &args)?;
            }
        }
        Ok(Sweep {
            outputs: collect_outputs(compiled, &mut machine.store, &handles)?,
            stats: None,
        })
    }

    fn min_parallel_work(&self) -> u64 {
        match self {
            Interp::Bytecode(_) => 16_384,
            Interp::Tree | Interp::Cpu => 64,
        }
    }
}

/// The HLS dataflow design on the sequential Kahn executor. Reports
/// [`StreamStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream;

impl Stream {
    /// Run the design once: the written fields and the run's stream
    /// statistics.
    pub fn run(
        &self,
        compiled: &CompiledKernel,
        data: &KernelData,
    ) -> IrResult<(BTreeMap<String, Buffer>, StreamStats)> {
        let mut staged = Store::new();
        let (args, handles) = bind_args(compiled, data, &mut staged)?;
        let (mut store, runtime) = execute_hls_kernel(
            &compiled.ctx,
            compiled.module,
            &compiled.hls_name(),
            |store| {
                *store = staged;
                args
            },
        )?;
        let (n_streams, pushed, _) = runtime.streams.stats();
        Ok((
            collect_outputs(compiled, &mut store, &handles)?,
            (n_streams, pushed, runtime.mem_beats),
        ))
    }
}

impl Engine for Stream {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        check_design_depth(compiled, depth)?;
        let (outputs, stats) = self.run(compiled, data)?;
        Ok(Sweep {
            outputs,
            stats: Some(stats),
        })
    }

    fn min_parallel_work(&self) -> u64 {
        16
    }
}

/// The HLS dataflow design with one OS thread per stage over bounded
/// FIFOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threaded {
    /// How long one blocking stream operation may stall before the run is
    /// declared deadlocked.
    pub watchdog: Duration,
}

impl Threaded {
    /// Run the design, keeping a deadlock (the inner `Err`, naming every
    /// blocked stage and the stream it was blocked on) apart from an
    /// execution error (the outer one).
    pub fn run(
        &self,
        compiled: &CompiledKernel,
        data: &KernelData,
    ) -> IrResult<Result<BTreeMap<String, Buffer>, Box<DeadlockReport>>> {
        let mut staged = Store::new();
        let (args, handles) = bind_args(compiled, data, &mut staged)?;
        let outcome = execute_threaded(
            &compiled.ctx,
            compiled.module,
            &compiled.hls_name(),
            |store| {
                *store = staged;
                args
            },
            self.watchdog,
        )?;
        match outcome {
            ThreadedOutcome::Completed { mut store, .. } => {
                Ok(Ok(collect_outputs(compiled, &mut store, &handles)?))
            }
            ThreadedOutcome::Deadlock { report } => Ok(Err(report)),
        }
    }
}

impl Engine for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        check_design_depth(compiled, depth)?;
        match self.run(compiled, data)? {
            Ok(outputs) => Ok(Sweep {
                outputs,
                stats: None,
            }),
            Err(report) => Err(ir_error!("the threaded engine deadlocked:\n{report}")),
        }
    }

    fn min_parallel_work(&self) -> u64 {
        16
    }
}

/// A dataflow design advances the depth it was compiled for, no other.
fn check_design_depth(compiled: &CompiledKernel, depth: usize) -> IrResult<()> {
    ir_ensure!(
        compiled.report.temporal_depth == depth,
        "a sweep of depth {depth} was asked of a dataflow design compiled at temporal depth {}",
        compiled.report.temporal_depth
    );
    Ok(())
}

/// Allocate the kernel arguments in `store` and return
/// `(args, name → handle)` in signature order.
fn bind_args(
    compiled: &CompiledKernel,
    data: &KernelData,
    store: &mut Store,
) -> IrResult<(Vec<RtValue>, BTreeMap<String, usize>)> {
    let bounded = shmls_ir::types::StencilBounds::from_extents(&compiled.signature.grid)
        .grown(compiled.signature.halo);
    let mut args = Vec::new();
    let mut handles = BTreeMap::new();
    for arg in &compiled.signature.args {
        match arg {
            KernelArg::Field(name, _) => {
                let buffer = match data.buffers.get(name) {
                    Some(b) => b.clone(),
                    None => Buffer::zeroed(bounded.extents(), bounded.lb.clone()),
                };
                if buffer.shape != bounded.extents() {
                    ir_bail!(
                        "field `{name}`: buffer shape {:?} does not match padded grid {:?}",
                        buffer.shape,
                        bounded.extents()
                    );
                }
                let h = store.alloc(buffer);
                handles.insert(name.clone(), h);
                args.push(RtValue::MemRef(h));
            }
            KernelArg::Param(name, _, extent) => {
                let buffer = match data.buffers.get(name) {
                    Some(b) => b.clone(),
                    None => Buffer::zeroed(vec![*extent], vec![0]),
                };
                let h = store.alloc(buffer);
                handles.insert(name.clone(), h);
                args.push(RtValue::MemRef(h));
            }
            KernelArg::Const(name) => {
                let v = *data
                    .scalars
                    .get(name)
                    .ok_or_else(|| ir_error!("missing scalar constant `{name}`"))?;
                args.push(RtValue::F64(v));
            }
        }
    }
    Ok((args, handles))
}

/// Move the externally written fields out of a finished run's store.
fn collect_outputs(
    compiled: &CompiledKernel,
    store: &mut Store,
    handles: &BTreeMap<String, usize>,
) -> IrResult<BTreeMap<String, Buffer>> {
    let mut out = BTreeMap::new();
    for arg in &compiled.signature.args {
        if let KernelArg::Field(name, FieldKind::Output | FieldKind::InOut) = arg {
            out.insert(name.clone(), store.take(handles[name])?);
        }
    }
    Ok(out)
}
