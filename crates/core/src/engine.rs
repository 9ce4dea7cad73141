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
//! passing a value.
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
use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
use shmls_frontend::{FieldKind, KernelArg};
use shmls_ir::bytecode::ApplyMode;
use shmls_ir::error::{IrError, IrResult};
use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue, Store, StoreWork};
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

/// The engines a command line can name: `vector`, `stream` and
/// `threaded` (with a 30-second watchdog).
pub const NAMED: [&dyn Engine; 3] = [
    &VECTOR,
    &Stream,
    &Threaded {
        watchdog: Duration::from_secs(30),
    },
];

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
            machine.direct_stores = compiled.direct_stores.clone();
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
                    machine.store.copy_whole(out, input)?;
                }
                machine.call(&func, &args)?;
            }
        }
        let work = machine.store.work();
        Ok(Sweep {
            outputs: collect_outputs(compiled, &mut machine.store, &handles)?,
            stats: None,
            work: Some(work),
        })
    }

    fn min_parallel_work(&self) -> u64 {
        match self {
            Interp::Bytecode(_) => 16_384,
            Interp::Tree | Interp::Cpu => 64,
        }
    }
}

/// The HLS dataflow design on the executor's sequential schedule: its
/// stages in program order over unbounded FIFOs. Reports [`StreamStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream;

impl Engine for Stream {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        dataflow_sweep(self, compiled, data, depth, Schedule::Sequential)
    }

    fn min_parallel_work(&self) -> u64 {
        16
    }
}

/// The HLS dataflow design with one OS thread per stage over bounded
/// FIFOs. Reports [`StreamStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threaded {
    /// How long one blocking stream operation may stall before the run is
    /// declared deadlocked.
    pub watchdog: Duration,
}

impl Engine for Threaded {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn sweep(&self, compiled: &CompiledKernel, data: &KernelData, depth: usize) -> IrResult<Sweep> {
        let schedule = Schedule::Threaded {
            watchdog: self.watchdog,
        };
        dataflow_sweep(self, compiled, data, depth, schedule)
    }

    fn min_parallel_work(&self) -> u64 {
        16
    }
}

/// A dataflow engine's sweep: the design advances the depth it was
/// compiled for, no other, in one run; a deadlock is an error.
fn dataflow_sweep(
    engine: &dyn Engine,
    compiled: &CompiledKernel,
    data: &KernelData,
    depth: usize,
    schedule: Schedule,
) -> IrResult<Sweep> {
    ir_ensure!(
        compiled.report.temporal_depth == depth,
        "a sweep of depth {depth} was asked of a dataflow design compiled at temporal depth {}",
        compiled.report.temporal_depth
    );
    let (outputs, stats) =
        run_design(compiled, data, schedule)?.map_err(|report| deadlocked(engine, &report))?;
    Ok(Sweep {
        outputs,
        stats: Some(stats),
        work: None,
    })
}

/// The error a deadlocked run of `engine` is.
pub(crate) fn deadlocked(engine: &dyn Engine, report: &DeadlockReport) -> IrError {
    ir_error!("the {} engine deadlocked:\n{report}", engine.name())
}

/// A completed dataflow run: the written fields and its [`StreamStats`].
pub(crate) type DesignRun = (BTreeMap<String, Buffer>, StreamStats);

/// Run the dataflow design once under `schedule`: the written fields and
/// the run's [`StreamStats`] — or the deadlock (the inner `Err`, naming
/// every blocked stage and the stream it was blocked on) apart from an
/// execution error (the outer one).
pub(crate) fn run_design(
    compiled: &CompiledKernel,
    data: &KernelData,
    schedule: Schedule,
) -> IrResult<Result<DesignRun, Box<DeadlockReport>>> {
    let mut staged = Store::new();
    let (args, handles) = bind_args(compiled, data, &mut staged)?;
    let setup = |store: &mut _| {
        *store = staged;
        args
    };
    let (ctx, name) = (&compiled.ctx, compiled.hls_name());
    match execute(ctx, compiled.module, &name, setup, schedule)? {
        Outcome::Completed {
            mut store,
            mem_beats,
            streams,
        } => {
            let stats = (streams.len(), streams.iter().sum(), mem_beats);
            Ok(Ok((
                collect_outputs(compiled, &mut store, &handles)?,
                stats,
            )))
        }
        Outcome::Deadlock { report } => Ok(Err(report)),
    }
}

/// Bind the kernel arguments in `store` and return `(args, name →
/// handle)` in signature order. A buffer found in `data` is lent, not
/// copied: the store reads it in place and copies it only if the kernel
/// writes it (an `inout` field, a caller-supplied output), so the
/// caller's data is never mutated. A buffer `data` leaves out is a zeroed
/// one of the argument's shape. The store's work counters start from
/// zero once everything is bound.
fn bind_args<'d>(
    compiled: &CompiledKernel,
    data: &'d KernelData,
    store: &mut Store<'d>,
) -> IrResult<(Vec<RtValue>, BTreeMap<String, usize>)> {
    let bounded = shmls_ir::types::StencilBounds::from_extents(&compiled.signature.grid)
        .grown(compiled.signature.halo);
    let mut args = Vec::new();
    let mut handles = BTreeMap::new();
    let mut bind = |name: &String, what: &str, shape: Vec<i64>, origin: Vec<i64>| {
        let len: i64 = shape.iter().product();
        let h = match data.buffers.get(name) {
            Some(buffer) if buffer.shape != shape => ir_bail!(
                "{what} `{name}`: buffer shape {:?} does not match the expected {shape:?}",
                buffer.shape
            ),
            Some(buffer) if buffer.origin != origin => ir_bail!(
                "{what} `{name}`: buffer origin {:?} does not match the expected {origin:?}",
                buffer.origin
            ),
            Some(buffer) if buffer.data.len() as i64 != len => ir_bail!(
                "{what} `{name}`: buffer holds {} elements where its shape {shape:?} needs {len}",
                buffer.data.len()
            ),
            Some(buffer) => store.lend(buffer),
            None => store.alloc(Buffer::zeroed(shape, origin)),
        };
        handles.insert(name.clone(), h);
        Ok(RtValue::MemRef(h))
    };
    for arg in &compiled.signature.args {
        args.push(match arg {
            KernelArg::Field(name, _) => {
                bind(name, "field", bounded.extents(), bounded.lb.clone())?
            }
            KernelArg::Param(name, _, extent) => bind(name, "parameter", vec![*extent], vec![0])?,
            KernelArg::Const(name) => RtValue::F64(
                *data
                    .scalars
                    .get(name)
                    .ok_or_else(|| ir_error!("missing scalar constant `{name}`"))?,
            ),
        });
    }
    store.reset_work();
    Ok((args, handles))
}

/// Move the externally written fields out of a finished run's store.
fn collect_outputs(
    compiled: &CompiledKernel,
    store: &mut Store<'_>,
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
            Box::new(Threaded {
                watchdog: Duration::from_secs(30),
            }),
        ]
    }

    fn seeded(shape: Vec<i64>, origin: Vec<i64>, rng: &mut Rng) -> Buffer {
        let mut buffer = Buffer::zeroed(shape, origin);
        buffer.data.fill_with(|| rng.coarse_f64(-4.0, 4.0));
        buffer
    }

    /// RELAX's data, the output `b` supplied by the caller as well.
    fn relax_data() -> KernelData {
        let mut rng = Rng::new(21);
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

    #[test]
    fn sweep_leaves_the_callers_data_untouched() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let data = relax_data();
        let before = data.clone();
        let oracle = Interp::Tree.sweep(&compiled, &data, 1).unwrap().outputs;
        for engine in every_engine() {
            let sweep = engine.sweep(&compiled, &data, 1).unwrap();
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

    #[test]
    fn sweep_work_counts_temps_and_copies() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let data = relax_data();
        let (padded, interior) = (8 * 7 * 11 * 8, 6 * 5 * 9 * 8);
        // Three instructions for `s`, two for `b`, each over its 270
        // points in 9-point rows packed into three blocks (128 + 128 + 14).
        const DISPATCHES: u64 = (3 + 2) * 3;
        // Tree: a temp per apply, a box copy per store, and each lent
        // destination copied on its first write.
        assert_eq!(
            Interp::Tree.sweep(&compiled, &data, 1).unwrap().work,
            Some(StoreWork {
                allocated_bytes: 2 * interior,
                copied_bytes: 2 * padded + 2 * interior,
                dispatches: 0,
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
            })
        );
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
        refuses_misshapen_parameters(&Threaded {
            watchdog: Duration::from_secs(30),
        });
    }

    /// A stage that panics is an error naming it, on either schedule: a
    /// field one element short of its shape, put straight into the store
    /// past `bind_args`, runs the load stage off its end.
    #[test]
    fn a_panicking_stage_is_an_error_naming_it() {
        let compiled = compile(RELAX, &CompileOptions::default()).unwrap();
        let stages = &compiled.design.stages;
        let load = stages.iter().position(|s| s.kind() == "load").unwrap();
        let label = stages[load].label(load);
        let data = relax_data();
        let watchdog = Duration::from_millis(500);
        for schedule in [Schedule::Sequential, Schedule::Threaded { watchdog }] {
            let setup = |store: &mut _| {
                let (args, handles) = bind_args(&compiled, &data, store).unwrap();
                let mut short = data.buffers["a"].clone();
                short.data.pop();
                store.put(handles["a"], short).unwrap();
                args
            };
            let (ctx, name) = (&compiled.ctx, compiled.hls_name());
            let e = execute(ctx, compiled.module, &name, setup, schedule).unwrap_err();
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
        let threaded = Threaded {
            watchdog: Duration::from_secs(30),
        };
        for (kernel, options) in cases.into_iter().chain([(&HEAT3D, deep)]) {
            let grid = [6, 5, 4];
            let compiled = compile(&kernel.source(grid), &options).unwrap();
            let (data, depth) = (kernel.data(grid), compiled.report.temporal_depth);
            let sequential = Stream.sweep(&compiled, &data, depth).unwrap();
            let concurrent = threaded.sweep(&compiled, &data, depth).unwrap();
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
