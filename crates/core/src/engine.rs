//! The execution tiers behind one interface.
//!
//! A compiled kernel carries several executable forms of the same
//! computation: the frontend's stencil-dialect function (tree-walked, or
//! with each `stencil.apply` run as a bytecode program, scalar or
//! in blocks), the Von-Neumann loop nest, and the HLS dataflow design (one
//! executor, its stages run in program order over unbounded FIFOs or one
//! thread each over bounded ones). [`Engine`] is what they share —
//! compiled kernel, bound data and a sweep depth in; the written fields,
//! and whatever structural statistics only that tier can report, out —
//! so a caller that wants values (the time march, the differential
//! harness) is written once against the trait and picks a tier by
//! passing a value — the harness's whole list of tiers is five such
//! values, and a tier has one name, the same to `repro run --engine` and
//! `repro fuzz --engine`. The two dataflow tiers are the executor's two
//! schedules, [`Stream`] and [`Threaded`], and take no option: a run
//! that stalls — on the threaded one, the moment every running stage
//! waits on a FIFO — is an error of kind
//! [`IrErrorKind::Deadlock`](shmls_ir::error::IrErrorKind::Deadlock) on
//! either ([`deadlocked`]). A caller that sweeps one kernel
//! again and again prepares it once ([`Engine::prepare`]): the
//! [`Prepared`] sweep keeps what does not depend on the data — the
//! function to run, the arguments' binding, the bytecode tier's input
//! layouts and register files — and a one-off [`Engine::sweep`] is a
//! sweep of a kernel prepared for it.
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
use std::sync::Arc;

use shmls_fpga_sim::deadlock::DeadlockReport;
use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
use shmls_frontend::{FieldKind, KernelArg};
use shmls_ir::bytecode::{ApplyMode, DirectStores, PreparedApplies, Program};
use shmls_ir::error::{IrError, IrResult};
use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue, Store, StoreWork};
use shmls_ir::ir::{Context, IdMap, OpId, ValueId};
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::driver::CompiledKernel;
use crate::runner::KernelData;
use crate::scale::feedback_pairs;

/// Stream statistics from a dataflow run: `(streams created, elements
/// pushed, 512-bit memory beats)` — the traffic of a completed Kahn
/// network, the same on either schedule.
pub type StreamStats = (usize, u64, u64);

/// What one sweep produced.
#[derive(Debug)]
pub struct Sweep {
    /// The externally written fields (`output` and `inout`), whole
    /// buffers, by name.
    pub outputs: BTreeMap<String, Buffer>,
    /// Stream statistics, from the dataflow engines.
    pub stats: Option<StreamStats>,
    /// Bytes the sweep allocated and copied after binding its arguments,
    /// from the tiers that run in one store (the interpreter tiers).
    pub work: Option<StoreWork>,
}

/// A compiled kernel made ready to sweep on one tier: whatever a sweep
/// needs that does not depend on the data, worked out by
/// [`Engine::prepare`] once and kept from one sweep to the next.
pub trait Prepared {
    /// Advance the kernel over `data` by `depth` timesteps.
    fn sweep(&mut self, data: &KernelData, depth: usize) -> IrResult<Sweep>;
}

/// One execution tier.
pub trait Engine: Debug + Sync {
    /// Name on the command line and in reports.
    fn name(&self) -> &'static str;

    /// Make `compiled` ready to sweep on this tier, as often as the
    /// caller likes.
    fn prepare<'c>(&self, compiled: &'c CompiledKernel) -> IrResult<Box<dyn Prepared + Send + 'c>>;

    /// Advance `compiled` over `data` by `depth` timesteps: the one sweep
    /// of a kernel prepared for it.
    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        self.prepare(compiled)?.sweep(data, depth)
    }

    /// The least work (interior points × depth) for which one sweep is
    /// worth a thread of its own — the time march runs smaller slabs one
    /// after another on the calling thread. Spawning and joining a
    /// march's workers costs some 130 µs a round, so each engine names
    /// at most a millisecond of its sweeping: 16k point-steps on the
    /// bytecode tiers, 16 on the dataflow engines and 64 on the
    /// tree-walker (tens of thousands a second).
    fn min_parallel_work(&self) -> u64;
}

/// The engines a command line can name: `vector`, `stream` and
/// `threaded`.
pub const NAMED: [&dyn Engine; 3] = [&VECTOR, &Stream, &Threaded];

/// The engine of [`NAMED`] called `name`.
pub fn by_name(name: &str) -> Option<&'static dyn Engine> {
    NAMED.into_iter().find(|e| e.name() == name)
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

/// The vector tier: block bytecode on the calling thread. What the
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

    fn prepare<'c>(&self, compiled: &'c CompiledKernel) -> IrResult<Box<dyn Prepared + Send + 'c>> {
        // The vector tier runs the fused host form where there is one.
        let chunked = matches!(self, Interp::Bytecode(ApplyMode::Chunked { .. }));
        let host = chunked.then(|| compiled.host_form()).flatten();
        let split = (&compiled.ctx, compiled.module);
        let (form, func, plans, direct_stores) = match (*self, host) {
            (Interp::Cpu, _) => (
                split,
                compiled
                    .cpu_func
                    .ok_or_else(|| ir_error!("kernel was compiled without the CPU path"))?,
                Default::default(),
                Default::default(),
            ),
            (Interp::Tree, _) => (
                split,
                compiled.stencil_func,
                Default::default(),
                Default::default(),
            ),
            (Interp::Bytecode(_), Some(host)) => (
                (&host.ctx, host.module),
                host.func,
                host.apply_plans.clone(),
                host.direct_stores.clone(),
            ),
            (Interp::Bytecode(_), None) => (
                split,
                compiled.stencil_func,
                compiled.apply_plans.clone(),
                compiled.direct_stores.clone(),
            ),
        };
        let mode = match *self {
            Interp::Bytecode(mode) => mode,
            Interp::Tree | Interp::Cpu => ApplyMode::default(),
        };
        Ok(Box::new(Interpreted {
            form,
            func,
            binding: Binding::new(compiled),
            env: IdMap::default(),
            mode,
            plans,
            direct_stores,
            prepared: PreparedApplies::default(),
        }))
    }

    fn min_parallel_work(&self) -> u64 {
        match self {
            Interp::Bytecode(_) => 16_384,
            Interp::Tree | Interp::Cpu => 64,
        }
    }
}

/// An interpreter tier's prepared kernel: the context and module of the
/// form it runs (the compiled module, or the vector tier's host form),
/// the function it calls by op — no walk of the module for its name — its
/// arguments' binding, the value table each sweep's machine borrows, and
/// what the machine runs planned applies with: on the bytecode tiers the
/// plans and what their runs keep for the next, none on the others.
struct Interpreted<'c> {
    form: (&'c Context, OpId),
    func: OpId,
    binding: Binding,
    env: IdMap<ValueId, RtValue>,
    mode: ApplyMode,
    plans: IdMap<OpId, Arc<Program>>,
    direct_stores: DirectStores,
    prepared: PreparedApplies,
}

impl Interpreted<'_> {
    /// Trade places with `machine`: lend it the value table (emptied) and
    /// the plans before a sweep, take them back after it, whatever it
    /// came to.
    fn swap(&mut self, machine: &mut Machine<'_, '_>) {
        self.env.clear();
        std::mem::swap(&mut machine.env, &mut self.env);
        machine.apply_mode = self.mode;
        std::mem::swap(&mut machine.apply_plans, &mut self.plans);
        std::mem::swap(&mut machine.direct_stores, &mut self.direct_stores);
        std::mem::swap(&mut machine.prepared, &mut self.prepared);
    }

    /// Bind `data` in `machine` and call the function `depth` times over
    /// one store.
    fn call_deep<'d>(
        &self,
        machine: &mut Machine<'d, '_>,
        data: &'d KernelData,
        depth: usize,
    ) -> IrResult<Sweep> {
        let args = self.binding.bind(data, &mut machine.store)?;
        machine.call_func(self.func, &args)?;
        for _ in 1..depth {
            // A fed input becomes the whole buffer its output was
            // written into: the new interior inside the output argument's
            // ring. An `inout` field is its own feed.
            for &(out, input) in &self.binding.feeds {
                machine
                    .store
                    .copy_whole(args[out].as_memref()?, args[input].as_memref()?)?;
            }
            machine.call_func(self.func, &args)?;
        }
        let work = machine.store.work();
        Ok(Sweep {
            outputs: self.binding.collect(&args, &mut machine.store)?,
            stats: None,
            work: Some(work),
        })
    }
}

impl Prepared for Interpreted<'_> {
    fn sweep(&mut self, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        let (ctx, module) = self.form;
        let mut no = NoExtern;
        let mut machine = Machine::new(ctx, module, &mut no);
        self.swap(&mut machine);
        let swept = self.call_deep(&mut machine, data, depth);
        self.swap(&mut machine);
        swept
    }
}

/// The HLS dataflow design on the executor's sequential schedule: its
/// stages in program order over unbounded FIFOs. Reports [`StreamStats`].
pub use shmls_fpga_sim::threaded::Schedule::Sequential as Stream;
/// The HLS dataflow design with one OS thread per stage over bounded
/// FIFOs; it stalls once every running stage waits on a FIFO. Reports
/// [`StreamStats`].
pub use shmls_fpga_sim::threaded::Schedule::Threaded;

/// The two dataflow engines are the executor's two schedules.
impl Engine for Schedule {
    fn name(&self) -> &'static str {
        match self {
            Stream => "stream",
            Threaded => "threaded",
        }
    }

    fn prepare<'c>(&self, compiled: &'c CompiledKernel) -> IrResult<Box<dyn Prepared + Send + 'c>> {
        Ok(Box::new(Design {
            compiled,
            binding: Binding::new(compiled),
            schedule: *self,
        }))
    }

    fn min_parallel_work(&self) -> u64 {
        16
    }
}

/// A dataflow engine's prepared kernel: the design, its arguments'
/// binding and its schedule.
struct Design<'c> {
    compiled: &'c CompiledKernel,
    binding: Binding,
    schedule: Schedule,
}

impl Prepared for Design<'_> {
    /// The design advances the depth it was compiled for, no other, in
    /// one run; a deadlock is an error.
    fn sweep(&mut self, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        let compiled = self.compiled;
        ir_ensure!(
            compiled.report.temporal_depth == depth,
            "a sweep of depth {depth} was asked of a dataflow design compiled at temporal depth {}",
            compiled.report.temporal_depth
        );
        let (outputs, stats) = run_design(compiled, &self.binding, data, self.schedule)?
            .map_err(|report| deadlocked(self.schedule.name(), &report))?;
        Ok(Sweep {
            outputs,
            stats: Some(stats),
            work: None,
        })
    }
}

/// The error a deadlocked run of the engine called `engine` is: of kind
/// [`IrErrorKind::Deadlock`](shmls_ir::error::IrErrorKind::Deadlock),
/// whichever schedule stalled, its message naming the engine and holding
/// the report.
pub fn deadlocked(engine: &str, report: &DeadlockReport) -> IrError {
    IrError::deadlock(format!("the {engine} engine deadlocked:\n{report}"))
}

/// A completed dataflow run: the written fields and its [`StreamStats`].
pub(crate) type DesignRun = (BTreeMap<String, Buffer>, StreamStats);

/// Run the dataflow design once under `schedule`, its arguments bound
/// by `binding`: the written fields and the run's [`StreamStats`] — or
/// the deadlock (the inner `Err`, naming every blocked stage and the
/// stream it was blocked on) apart from an execution error (the outer
/// one).
pub(crate) fn run_design(
    compiled: &CompiledKernel,
    binding: &Binding,
    data: &KernelData,
    schedule: Schedule,
) -> IrResult<Result<DesignRun, Box<DeadlockReport>>> {
    let mut staged = Store::new();
    let args = binding.bind(data, &mut staged)?;
    let setup = |store: &mut _| {
        *store = staged;
        args.clone()
    };
    match execute(
        &compiled.ctx,
        compiled.module,
        compiled.hls_func,
        setup,
        schedule,
    )? {
        Outcome::Completed {
            mut store,
            mem_beats,
            streams,
        } => {
            let stats = (streams.len(), streams.iter().sum(), mem_beats);
            Ok(Ok((binding.collect(&args, &mut store)?, stats)))
        }
        Outcome::Deadlock { report } => Ok(Err(report)),
    }
}

/// How a kernel's arguments bind, worked out from its signature once per
/// prepare: per argument the buffer it must be, or the scalar it names;
/// where the written fields are, to collect them; and the fed pairs, for
/// a deep sweep's feedback.
pub(crate) struct Binding {
    args: Vec<ArgSpec>,
    /// Every written field (`output` and `inout`) and its argument.
    outputs: Vec<(String, usize)>,
    /// `(output, input)` arguments of every fed pair but an `inout`
    /// field feeding itself.
    feeds: Vec<(usize, usize)>,
}

/// One argument of a [`Binding`].
enum ArgSpec {
    /// A field or an axis parameter (`what`), whose buffer has exactly
    /// this shape and origin.
    Buffer {
        name: String,
        what: &'static str,
        shape: Vec<i64>,
        origin: Vec<i64>,
    },
    /// A scalar constant.
    Scalar(String),
}

impl Binding {
    pub(crate) fn new(compiled: &CompiledKernel) -> Binding {
        let sig = &compiled.signature;
        let bounded = shmls_ir::types::StencilBounds::from_extents(&sig.grid).grown(sig.halo);
        let args: Vec<ArgSpec> = (sig.args.iter())
            .map(|arg| match arg {
                KernelArg::Field(name, _) => ArgSpec::Buffer {
                    name: name.clone(),
                    what: "field",
                    shape: bounded.extents(),
                    origin: bounded.lb.clone(),
                },
                KernelArg::Param(name, _, extent) => ArgSpec::Buffer {
                    name: name.clone(),
                    what: "parameter",
                    shape: vec![*extent],
                    origin: vec![0],
                },
                KernelArg::Const(name) => ArgSpec::Scalar(name.clone()),
            })
            .collect();
        let position = |name: &str| {
            let named = |arg: &KernelArg| matches!(arg, KernelArg::Field(n, _) if n == name);
            sig.args.iter().position(named)
        };
        let outputs = (sig.args.iter().enumerate())
            .filter_map(|(i, arg)| match arg {
                KernelArg::Field(name, FieldKind::Output | FieldKind::InOut) => {
                    Some((name.clone(), i))
                }
                _ => None,
            })
            .collect();
        let feeds = (feedback_pairs(&compiled.kernel).iter())
            .filter(|(out_name, in_name)| out_name != in_name)
            .filter_map(|(out_name, in_name)| Some((position(out_name)?, position(in_name)?)))
            .collect();
        Binding {
            args,
            outputs,
            feeds,
        }
    }

    /// Bind the arguments in `store` and return them in signature order.
    /// A buffer found in `data` is lent, not copied: the store reads it in
    /// place and copies it only if the kernel writes it (an `inout` field,
    /// a caller-supplied output), so the caller's data is never mutated.
    /// A buffer `data` leaves out is a zeroed one of the argument's shape.
    /// The store's work counters start from zero once everything is bound.
    pub(crate) fn bind<'d>(
        &self,
        data: &'d KernelData,
        store: &mut Store<'d>,
    ) -> IrResult<Vec<RtValue>> {
        let mut args = Vec::with_capacity(self.args.len());
        for arg in &self.args {
            args.push(match arg {
                ArgSpec::Buffer {
                    name,
                    what,
                    shape,
                    origin,
                } => {
                    let len: i64 = shape.iter().product();
                    RtValue::MemRef(match data.buffers.get(name) {
                        Some(buffer) if buffer.shape != *shape => ir_bail!(
                            "{what} `{name}`: buffer shape {:?} does not match the expected {shape:?}",
                            buffer.shape
                        ),
                        Some(buffer) if buffer.origin != *origin => ir_bail!(
                            "{what} `{name}`: buffer origin {:?} does not match the expected {origin:?}",
                            buffer.origin
                        ),
                        Some(buffer) if buffer.data.len() as i64 != len => ir_bail!(
                            "{what} `{name}`: buffer holds {} elements where its shape {shape:?} needs {len}",
                            buffer.data.len()
                        ),
                        Some(buffer) => store.lend(buffer),
                        None => store.alloc(Buffer::zeroed(shape.clone(), origin.clone())),
                    })
                }
                ArgSpec::Scalar(name) => RtValue::F64(
                    *data
                        .scalars
                        .get(name)
                        .ok_or_else(|| ir_error!("missing scalar constant `{name}`"))?,
                ),
            });
        }
        store.reset_work();
        Ok(args)
    }

    /// Move the written fields out of a finished run's store, `args` being
    /// what [`Binding::bind`] returned.
    fn collect(
        &self,
        args: &[RtValue],
        store: &mut Store<'_>,
    ) -> IrResult<BTreeMap<String, Buffer>> {
        let mut out = BTreeMap::new();
        for (name, arg) in &self.outputs {
            out.insert(name.clone(), store.take(args[*arg].as_memref()?)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions};
    use shmls_ir::rng::Rng;

    /// An `inout` field, a pure output, an axis parameter and a constant.
    const RELAX: &str = "kernel relax { grid(6, 5, 9) halo 1 \
         field a : input field s : inout field b : output param kz[k] const w \
         compute s { s = s[0,0,0] + w * (a[-1,0,0] + a[1,0,0]) } \
         compute b { b = s[0,0,0] * kz[k] + a[0,0,-1] } }";

    fn every_engine() -> Vec<Box<dyn Engine>> {
        vec![
            Box::new(Interp::Tree),
            Box::new(Interp::Bytecode(ApplyMode::Scalar)),
            Box::new(VECTOR),
            Box::new(Interp::Bytecode(ApplyMode::Chunked { threads: 3 })),
            Box::new(Interp::Cpu),
            Box::new(Stream),
            Box::new(Threaded),
        ]
    }

    fn seeded(shape: Vec<i64>, origin: Vec<i64>, rng: &mut Rng) -> Buffer {
        let mut buffer = Buffer::zeroed(shape, origin);
        buffer.data.fill_with(|| rng.coarse_f64(-4.0, 4.0));
        buffer
    }

    /// RELAX's data, the output `b` supplied by the caller as well.
    fn relax_data() -> KernelData {
        relax_data_seeded(21)
    }

    /// [`relax_data`] drawn from `seed`.
    fn relax_data_seeded(seed: u64) -> KernelData {
        let mut rng = Rng::new(seed);
        let mut field = || seeded(vec![8, 7, 11], vec![-1, -1, -1], &mut rng);
        let (a, s, b) = (field(), field(), field());
        KernelData::default()
            .buffer("a", a)
            .buffer("s", s)
            .buffer("b", b)
            .buffer("kz", seeded(vec![11], vec![0], &mut rng))
            .scalar("w", 0.3)
    }

    fn bits(buffers: &BTreeMap<String, Buffer>) -> Vec<(&String, &Vec<i64>, Vec<u64>)> {
        buffers
            .iter()
            .map(|(name, b)| (name, &b.shape, b.data.iter().map(|v| v.to_bits()).collect()))
            .collect()
    }

    /// Fresh or prepared — and a prepared kernel swept twice — no engine
    /// writes the buffers it was lent.
    #[test]
    fn sweep_leaves_the_callers_data_untouched() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let data = relax_data();
        let before = data.clone();
        let oracle = Interp::Tree.sweep(&compiled, &data, 1).unwrap().outputs;
        for engine in every_engine() {
            let fresh = engine.sweep(&compiled, &data, 1).unwrap();
            let mut prepared = engine.prepare(&compiled).unwrap();
            let sweeps = [fresh, prepared.sweep(&data, 1).unwrap()];
            let again = prepared.sweep(&data, 1).unwrap();
            for sweep in sweeps.iter().chain([&again]) {
                assert_eq!(
                    bits(&data.buffers),
                    bits(&before.buffers),
                    "{} wrote the caller's buffers",
                    engine.name()
                );
                // Whole buffers: the supplied rings of `s` and `b` included.
                assert_eq!(bits(&sweep.outputs), bits(&oracle), "{}", engine.name());
            }
        }
    }

    /// One kernel prepared and swept over three data sets — the third
    /// leaving the output `b` to the store — gives each the bits and the
    /// work a fresh sweep of it gives, on every engine. A misshapen
    /// buffer swept between them is refused as a fresh sweep refuses it,
    /// and leaves nothing behind that the next sweep would notice.
    #[test]
    fn prepared_sweeps_equal_fresh_sweeps() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let mut own = relax_data_seeded(23);
        own.buffers.remove("b");
        let sets = [relax_data_seeded(21), relax_data_seeded(22), own];
        let mut short = relax_data_seeded(24);
        short.buffers.get_mut("a").unwrap().data.pop();
        for engine in every_engine() {
            let name = engine.name();
            let mut prepared = engine.prepare(&compiled).unwrap();
            for (i, data) in sets.iter().enumerate() {
                let fresh = engine.sweep(&compiled, data, 1).unwrap();
                let swept = prepared.sweep(data, 1).unwrap();
                assert_eq!(
                    bits(&swept.outputs),
                    bits(&fresh.outputs),
                    "{name}, set {i}"
                );
                assert_eq!(swept.work, fresh.work, "{name}, set {i}");
                assert_eq!(swept.stats, fresh.stats, "{name}, set {i}");
                let e = prepared.sweep(&short, 1).unwrap_err().to_string();
                let wanted = ["field `a`", "615", "616"];
                assert!(wanted.iter().all(|w| e.contains(w)), "{name}: {e}");
            }
        }
    }

    #[test]
    fn sweep_work_counts_temps_and_copies() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let data = relax_data();
        let (padded, interior) = (8 * 7 * 11 * 8, 6 * 5 * 9 * 8);
        // Two instructions for `s` — the fused pair `w * (a[-1] + a[1])`,
        // then the sum with `s` — and one for `b`, the fused pair
        // `s * kz + a`, each over its 270 points: a strip per axis-0
        // plane, its five 9-point rows at the padded pitch of 11 one block
        // of 4 · 11 + 9 = 53 lanes, read in place — six blocks, nothing
        // gathered.
        const DISPATCHES: u64 = (2 + 1) * 6;
        // Tree: a temp per apply, a box copy per store, and each lent
        // destination copied on its first write.
        assert_eq!(
            Interp::Tree.sweep(&compiled, &data, 1).unwrap().work,
            Some(StoreWork {
                allocated_bytes: 2 * interior,
                copied_bytes: 2 * padded + 2 * interior,
                dispatches: 0,
                gathered: 0,
            })
        );
        // Vector: `b` is computed in place; `s` is loaded as well as
        // stored, so it keeps its temp and its copy.
        assert_eq!(
            VECTOR.sweep(&compiled, &data, 1).unwrap().work,
            Some(StoreWork {
                allocated_bytes: interior,
                copied_bytes: 2 * padded + interior,
                dispatches: DISPATCHES,
                gathered: 0,
            })
        );
        // With no output supplied, `b` is the store's own: nothing lent
        // is written but `s`.
        let mut own = data.clone();
        own.buffers.remove("b");
        assert_eq!(
            VECTOR.sweep(&compiled, &own, 1).unwrap().work,
            Some(StoreWork {
                allocated_bytes: interior,
                copied_bytes: padded + interior,
                dispatches: DISPATCHES,
                gathered: 0,
            })
        );
    }

    /// A temp `t` that only the output `c`'s compute reads.
    const CHAIN: &str = "kernel chain { grid(6, 5, 9) halo 1 \
         field a : input field t : temp field c : output \
         compute t { t = 2.0 * a[1,0,0] } \
         compute c { c = t[0,0,0] + a[-1,0,0] } }";

    /// CHAIN's data, the output left to the store.
    fn chain_data() -> KernelData {
        let mut rng = Rng::new(31);
        KernelData::default().buffer("a", seeded(vec![8, 7, 11], vec![-1, -1, -1], &mut rng))
    }

    /// The vector tier sweeps the fused host form: one apply, `t` a
    /// register and `c` computed into its field, no temp at all. The
    /// tree-walker and the scalar bytecode tier sweep the split form —
    /// a temp per apply — and all three agree bit for bit. A kernel of
    /// one compute is its own fused form: it keeps no copy.
    #[test]
    fn the_vector_tier_runs_the_fused_form_and_the_oracles_the_split_one() {
        let heat = compile(
            &shmls_kernels::heat3d::source(4, 4, 4),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(heat.host_form().is_none());
        let compiled = compile(CHAIN, &CompileOptions::default()).unwrap();
        let host = compiled.host_form().expect("CHAIN fuses");
        assert_eq!(host.ctx.find_ops(host.func, "stencil.apply").len(), 1);
        let applies = compiled
            .ctx
            .find_ops(compiled.stencil_func, "stencil.apply");
        assert_eq!(applies.len(), 2, "the compiled module stays split");
        let data = chain_data();
        let interior = 6 * 5 * 9 * 8;
        let oracle = Interp::Tree.sweep(&compiled, &data, 1).unwrap();
        let scalar = Interp::Bytecode(ApplyMode::Scalar)
            .sweep(&compiled, &data, 1)
            .unwrap();
        for split in [&oracle, &scalar] {
            assert_eq!(split.work.unwrap().allocated_bytes, 2 * interior);
        }
        assert_eq!(bits(&scalar.outputs), bits(&oracle.outputs));
        for threads in [1, 3] {
            let vector = Interp::Bytecode(ApplyMode::Chunked { threads });
            let fused = vector.sweep(&compiled, &data, 1).unwrap();
            assert_eq!(bits(&fused.outputs), bits(&oracle.outputs), "{threads}");
            assert_eq!(fused.work.unwrap().allocated_bytes, 0, "{threads}");
        }
    }

    /// A kernel whose fused apply has no bytecode program keeps no host
    /// form, and the vector tier sweeps the split plans instead — bit for
    /// bit the tree-walker's, `t` in a temp of its own again.
    #[test]
    fn a_fused_apply_without_a_program_leaves_the_split_form() {
        use crate::driver::HostForm;
        use shmls_dialects::builtin::create_module;

        let mut compiled = compile(CHAIN, &CompileOptions::default()).unwrap();
        // CHAIN lowered again, one op of `c`'s body renamed to one the
        // tree-walker would look up and no program can run.
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let func = shmls_frontend::lower_kernel(&mut ctx, body, &compiled.kernel)
            .unwrap()
            .func;
        let consumer = ctx.find_ops(func, "stencil.apply")[1];
        let add = ctx.find_ops(consumer, "arith.addf")[0];
        ctx.set_op_name(add, "test.opaque");
        shmls_ir::verifier::verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        let refused = HostForm::fused(ctx, module, func).map(Box::new);
        assert!(refused.is_none());
        compiled.host = refused.into();
        assert!(compiled.host_form().is_none());

        let data = chain_data();
        let oracle = Interp::Tree.sweep(&compiled, &data, 1).unwrap().outputs;
        let split = VECTOR.sweep(&compiled, &data, 1).unwrap();
        assert_eq!(bits(&split.outputs), bits(&oracle));
        assert_eq!(split.work.unwrap().allocated_bytes, 6 * 5 * 9 * 8);
    }

    #[test]
    fn a_deep_sweep_equals_chained_single_sweeps() {
        let [nx, ny, nz] = [7, 6, 9];
        let compiled = compile(
            &shmls_kernels::heat3d::source(nx, ny, nz),
            &CompileOptions::default(),
        )
        .unwrap();
        let inputs = shmls_kernels::heat3d::Heat3dInputs::random(nx, ny, nz, 3);
        let data = KernelData::default()
            .buffer("t", inputs.t.to_buffer())
            .buffer("kz", inputs.kz.to_buffer())
            .scalar("dt", inputs.dt);
        for engine in [
            Interp::Tree,
            VECTOR,
            Interp::Bytecode(ApplyMode::Chunked { threads: 2 }),
        ] {
            let mut chained = data.clone();
            let mut last = BTreeMap::new();
            for _ in 0..3 {
                last = engine.sweep(&compiled, &chained, 1).unwrap().outputs;
                chained.buffers.insert("t".into(), last["tnew"].clone());
            }
            let deep = engine.sweep(&compiled, &data, 3).unwrap();
            assert_eq!(bits(&deep.outputs), bits(&last), "{}", engine.name());
        }
        // The feed replaces the lent `t` with the fed buffer (one copy a
        // step) instead of copying `t` only to overwrite it.
        let padded = ((nx + 2) * (ny + 2) * (nz + 2) * 8) as u64;
        let work = VECTOR.sweep(&compiled, &data, 3).unwrap().work.unwrap();
        assert_eq!(work.copied_bytes, 2 * padded);
        assert_eq!(work.allocated_bytes, 0);
    }

    /// A supplied buffer the sweep would index out of range — a parameter
    /// of the wrong extent, rank or origin, a field one element short of
    /// its shape or with a shifted origin — is refused when it is bound,
    /// by name, with what it got and what was expected.
    fn refuses_misshapen_parameters(engine: &dyn Engine) {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let field = |origin: Vec<i64>| Buffer::zeroed(vec![8, 7, 11], origin);
        let mut short = field(vec![-1, -1, -1]);
        short.data.pop();
        let cases = [
            (
                "kz",
                Buffer::zeroed(vec![10], vec![0]),
                ["parameter `kz`", "[10]", "[11]"],
            ),
            (
                "kz",
                Buffer::zeroed(vec![11, 1], vec![0, 0]),
                ["parameter `kz`", "[11, 1]", "[11]"],
            ),
            (
                "kz",
                Buffer::zeroed(vec![11], vec![1]),
                ["parameter `kz`", "[1]", "[0]"],
            ),
            ("a", short, ["field `a`", "615", "616"]),
            (
                "a",
                field(vec![0, -1, -1]),
                ["field `a`", "[0, -1, -1]", "[-1, -1, -1]"],
            ),
        ];
        for (name, buffer, wanted) in cases {
            let mut data = relax_data();
            data.buffers.insert(name.into(), buffer);
            let e = engine.sweep(&compiled, &data, 1).unwrap_err().to_string();
            assert!(
                wanted.iter().all(|w| e.contains(w)),
                "{}: {e}",
                engine.name()
            );
        }
    }

    #[test]
    fn interp_refuses_misshapen_parameters() {
        refuses_misshapen_parameters(&Interp::Tree);
        refuses_misshapen_parameters(&VECTOR);
        refuses_misshapen_parameters(&Interp::Cpu);
    }

    #[test]
    fn stream_refuses_misshapen_parameters() {
        refuses_misshapen_parameters(&Stream);
    }

    #[test]
    fn threaded_refuses_misshapen_parameters() {
        refuses_misshapen_parameters(&Threaded);
    }

    /// A stage that panics is an error naming it, on either schedule: a
    /// field one element short of its shape, put straight into the store
    /// past the binding's checks, runs the load stage off its end.
    #[test]
    fn a_panicking_stage_is_an_error_naming_it() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let stages = &compiled.design.stages;
        let load = stages.iter().position(|s| s.kind() == "load").unwrap();
        let label = stages[load].label(load);
        let data = relax_data();
        for schedule in [Stream, Threaded] {
            let setup = |store: &mut _| {
                let args = Binding::new(&compiled).bind(&data, store).unwrap();
                let mut short = data.buffers["a"].clone();
                short.data.pop();
                let a = |arg: &_| matches!(arg, KernelArg::Field(name, _) if name == "a");
                let a = compiled.signature.args.iter().position(a).unwrap();
                store.put(args[a].as_memref().unwrap(), short).unwrap();
                args
            };
            let (ctx, func) = (&compiled.ctx, compiled.hls_func);
            let e = execute(ctx, compiled.module, func, setup, schedule).unwrap_err();
            let e = e.to_string();
            assert!(e.contains(&label), "{schedule:?}: {e}");
            assert!(e.contains("index out of bounds"), "{schedule:?}: {e}");
        }
    }

    /// Traffic does not depend on the schedule: for every catalogue
    /// kernel — and heat3d two steps deep, through its merge stages — both
    /// dataflow engines write the same bits and report the same
    /// `(streams, pushed, mem_beats)`.
    #[test]
    fn both_schedules_move_the_same_traffic() {
        use shmls_kernels::catalogue::{CATALOGUE, HEAT3D};
        let mut deep = CompileOptions::default();
        deep.hmls.temporal_depth = 2;
        let cases = CATALOGUE.map(|k| (k, CompileOptions::default()));
        for (kernel, options) in cases.into_iter().chain([(&HEAT3D, deep)]) {
            let grid = [6, 5, 4];
            let compiled = compile(&kernel.source(grid), &options).unwrap();
            let (data, depth) = (kernel.data(grid), compiled.report.temporal_depth);
            let sequential = Stream.sweep(&compiled, &data, depth).unwrap();
            let concurrent = Threaded.sweep(&compiled, &data, depth).unwrap();
            let what = format!("{} at depth {depth}", kernel.name);
            assert_eq!(
                bits(&sequential.outputs),
                bits(&concurrent.outputs),
                "{what}"
            );
            assert_eq!(sequential.stats, concurrent.stats, "{what}");
            let (_, pushed, beats) = sequential.stats.unwrap();
            assert!(pushed > 0 && beats > 0, "{what}");
        }
    }
}
