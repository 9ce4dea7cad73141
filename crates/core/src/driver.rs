//! End-to-end compilation driver: DSL text → stencil IR → {HLS dataflow,
//! CPU loops, annotated LLVM} — the whole Figure-1 flow in one call.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use shmls_dialects::builtin::{create_module, module_body};
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_frontend::{lower_kernel, parse_kernel, KernelDef, KernelSignature};
use shmls_ir::bytecode::{DirectStores, Program};
use shmls_ir::error::IrResult;
use shmls_ir::pass::Pass;
use shmls_ir::prelude::*;
use shmls_ir::verifier::{verify_with, OpVerifiers};

use crate::canonicalize::CanonicalizePass;
use crate::fpp::{run_fpp, DirectiveReport};
use crate::fuse::fuse_applies;
use crate::hmls::{stencil_to_hls, HmlsOptions, HmlsOutput, HmlsReport};
use crate::llvm_lowering::hls_to_llvm;
use crate::split::SplitPass;

/// Which lowering paths [`compile`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetPath {
    /// Only the Stencil-HMLS dataflow design.
    HlsOnly,
    /// HLS design + CPU reference loops.
    HlsAndCpu,
    /// Everything: HLS design, CPU loops, annotated LLVM + fpp.
    Full,
}

/// Options for the end-to-end driver.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Stencil-HMLS transformation options.
    pub hmls: HmlsOptions,
    /// Which paths to generate.
    pub paths: TargetPath,
    /// Verify the module between stages (cheap at kernel sizes).
    pub verify: bool,
    /// Run canonicalisation (constant folding + identity elimination +
    /// DCE) on the stencil IR before lowering — on FPGAs this deletes
    /// physical operators, not just instructions.
    pub optimize: bool,
    /// Capture a printed snapshot of the whole module after every
    /// pipeline stage on [`CompiledKernel::snapshots`]. Off by default
    /// (printing is not free); the conformance harness turns it on so a
    /// differential failure can name the exact IR each engine executed.
    pub snapshots: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            hmls: HmlsOptions::default(),
            paths: TargetPath::Full,
            verify: true,
            optimize: true,
            snapshots: false,
        }
    }
}

/// A fully compiled kernel: the module plus handles to every generated
/// function and the reports the evaluation harness consumes.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The IR context owning everything.
    pub ctx: Context,
    /// The `builtin.module`.
    pub module: OpId,
    /// The kernel definition (AST).
    pub kernel: KernelDef,
    /// Runtime argument layout.
    pub signature: KernelSignature,
    /// The frontend's stencil-dialect function.
    pub stencil_func: OpId,
    /// The Stencil-HMLS dataflow function (`<name>_hls`).
    pub hls_func: OpId,
    /// The Von-Neumann reference (`<name>_cpu`), when requested.
    pub cpu_func: Option<OpId>,
    /// The annotated-LLVM function (`<name>_llvm`), when requested.
    pub llvm_func: Option<OpId>,
    /// Design summary from the stencil→HLS transformation.
    pub report: HmlsReport,
    /// The HLS function's stages, streams and wiring, as the models and
    /// the cycle engine read them. Like `apply_plans` below it describes
    /// the module as compiled: whoever mutates `hls_func` afterwards
    /// re-extracts it.
    pub design: DesignDescriptor,
    /// Directives recovered by the fpp pass, when requested.
    pub directives: Option<DirectiveReport>,
    /// Per-pass wall-clock timings (`parse`, `frontend-lower`,
    /// `canonicalize`, `split`, `stencil-to-hls`, `connectivity`,
    /// `cpu-lowering`, `llvm-lowering`, `fpp`, `bytecode`, `verify`,
    /// `total`), in execution order.
    pub timings: Timings,
    /// `(stage, printed module)` pairs in pipeline order, when
    /// [`CompileOptions::snapshots`] was set: `frontend-lower`,
    /// `optimize` (after canonicalize+split), `stencil-to-hls`, and the
    /// requested lowerings. Empty otherwise.
    pub snapshots: Vec<(String, String)>,
    /// Bytecode programs for every `stencil.apply` in the stencil-dialect
    /// function whose body fits the straight-line vocabulary (see
    /// `shmls_ir::bytecode`), keyed by apply op. Installed on a
    /// [`Machine`](shmls_ir::interp::Machine) these replace the per-point
    /// tree walk with a flat register program — bitwise-identical, just
    /// fast. Applies that fail to compile are simply absent (the
    /// tree-walker remains the universal fallback).
    pub apply_plans: IdMap<OpId, Arc<Program>>,
    /// The apply results of the stencil-dialect function that the block
    /// bytecode tier may compute straight into the field their
    /// `stencil.store` names, skipping the temp and the copy (see
    /// [`shmls_ir::bytecode::direct_stores`]).
    pub direct_stores: DirectStores,
    /// Whether the compile canonicalized the stencil-dialect function
    /// ([`CompileOptions::optimize`]); the host form is lowered the same.
    canonicalized: bool,
    /// The host form, built by the first [`CompiledKernel::host_form`]
    /// (`None` inside when it cannot be served). Public like
    /// `apply_plans`, so a fault-injection test can reach its program.
    pub host: OnceLock<Option<Box<HostForm>>>,
}

/// The vector tier's form of a compiled kernel: the stencil-dialect
/// function with all its applies fused into one multi-result apply — the
/// form §3.3 step 4 says CPU targets favour, where the split form is the
/// FPGA's — and that apply's bytecode program. A point's inputs are then
/// read once for all the fields it computes, and a temp that only later
/// applies read lives in a register instead of a buffer.
///
/// It lives in a context of its own that holds only that function, so the
/// compiled module, its fingerprint, the design and every model stay the
/// split form's. The tree-walker and the scalar bytecode tier run the
/// split form too: they are the oracle the fused program is held to, bit
/// for bit — each point evaluates the same expressions in the same order,
/// fusion only replacing an offset-0 read of a produced temp with the
/// value that produced it.
#[derive(Debug)]
pub struct HostForm {
    /// The context holding the fused function alone.
    pub ctx: Context,
    /// Its `builtin.module`.
    pub module: OpId,
    /// The fused stencil-dialect function.
    pub func: OpId,
    /// The fused apply's bytecode program, keyed by the apply.
    pub apply_plans: IdMap<OpId, Arc<Program>>,
    /// The fused results the block tier computes straight into their
    /// fields ([`shmls_ir::bytecode::direct_stores`]).
    pub direct_stores: DirectStores,
}

impl HostForm {
    /// `kernel` lowered by the frontend, canonicalized when `canonicalize`
    /// (as its compile was), and fused; `None` for a kernel of one compute
    /// — its split form is already its fused form, which a copy would
    /// only make every first prepare pay for — and wherever
    /// [`HostForm::fused`] refuses it.
    fn build(kernel: &KernelDef, canonicalize: bool) -> Option<HostForm> {
        if kernel.computes.len() < 2 {
            return None;
        }
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let func = lower_kernel(&mut ctx, body, kernel).ok()?.func;
        if canonicalize {
            CanonicalizePass.run(&mut ctx, module).ok()?;
        }
        Self::fused(ctx, module, func)
    }

    /// `func`'s applies fused, if the fused function verifies and its one
    /// apply compiles to a [`Program`] — which also means its results
    /// share one bounds box. `None` otherwise: the vector tier then runs
    /// the split plans, so no sweep fails that the split form runs.
    pub(crate) fn fused(mut ctx: Context, module: OpId, func: OpId) -> Option<HostForm> {
        let apply = fuse_applies(&mut ctx, func).ok()?;
        verify_with(&ctx, module, &shmls_dialects::registry()).ok()?;
        let apply_plans = compile_apply_plans(&ctx, func);
        if !apply_plans.contains_key(&apply) {
            return None;
        }
        let direct_stores = shmls_ir::bytecode::direct_stores(&ctx, func);
        Some(HostForm {
            ctx,
            module,
            func,
            apply_plans,
            direct_stores,
        })
    }
}

impl CompiledKernel {
    /// Name of the HLS entry function.
    pub fn hls_name(&self) -> String {
        format!("{}_hls", self.kernel.name)
    }

    /// A stable fingerprint of the compiled module: FNV-1a over the
    /// printed IR. Compilation is deterministic, so two compilations of
    /// the same kernel under the same options produce the same
    /// fingerprint — the correctness condition the compile cache's
    /// determinism test checks.
    pub fn design_fingerprint(&self) -> u64 {
        crate::cache::fnv1a(shmls_ir::printer::print_op(&self.ctx, self.module).as_bytes())
    }

    /// The form the vector tier runs: fused on the first call and kept,
    /// or `None` (and the split form runs) for a kernel of one compute
    /// and for one whose fused form cannot be served.
    pub fn host_form(&self) -> Option<&HostForm> {
        let build = || HostForm::build(&self.kernel, self.canonicalized).map(Box::new);
        self.host.get_or_init(build).as_deref()
    }
}

/// Compile a module of *stencil-dialect IR text* (rather than DSL source):
/// the frontend-independence path of the paper's Figure 1 — PSyclone,
/// Devito or Flang only need to emit stencil IR, and this entry point
/// takes over from there. The module must contain exactly one `func.func`
/// whose body is stencil-dialect IR. Returns the transformed module's
/// context plus the generated HLS function and report.
pub fn compile_stencil_ir(
    ir_text: &str,
    opts: &CompileOptions,
) -> IrResult<(Context, OpId, OpId, HmlsReport)> {
    let (ctx, module) = shmls_ir::parser::parse_op(ir_text)?;
    let mut p = Pipeline::over(ctx, module, opts);
    // The text comes from outside: checked whatever `opts.verify` says.
    p.verify("verifying input IR")?;
    let funcs = p.ctx.find_ops(module, shmls_dialects::func::FUNC);
    let [stencil_func] = funcs.as_slice() else {
        shmls_ir::ir_bail!("expected exactly one func.func, found {}", funcs.len());
    };
    reject_f32_types(&p.ctx, *stencil_func)?;
    let out = p.lower_to_hls(*stencil_func)?;
    Ok((p.ctx, module, out.func, out.report))
}

/// Reject `f32` anywhere in a function's values or attributes with a
/// structured [`IrError::unsupported`]. Every execution tier (tree-walking
/// interpreter, bytecode, SIMD) computes in f64, so an `f32` kernel would
/// otherwise run to completion with every intermediate silently widened —
/// answers in the wrong precision, bitwise-different from any real f32
/// implementation. Surfacing the refusal at compile time keeps the tiers
/// honest until a genuine mixed-precision path exists (ROADMAP).
fn reject_f32_types(ctx: &Context, func: OpId) -> IrResult<()> {
    fn attr_has_f32(attr: &Attribute) -> bool {
        match attr {
            Attribute::Int(_, t) | Attribute::Float(_, t) | Attribute::TypeAttr(t) => {
                t.contains_f32()
            }
            Attribute::Array(items) => items.iter().any(attr_has_f32),
            Attribute::Dict(map) => map.values().any(attr_has_f32),
            _ => false,
        }
    }
    let mut offender: Option<String> = None;
    ctx.walk(func, &mut |op| {
        if offender.is_some() {
            return;
        }
        let result_f32 = ctx
            .results(op)
            .iter()
            .any(|&v| ctx.value_type(v).contains_f32());
        let block_arg_f32 = ctx.regions(op).iter().any(|&r| {
            ctx.region_blocks(r).iter().any(|&b| {
                ctx.block_args(b)
                    .iter()
                    .any(|&v| ctx.value_type(v).contains_f32())
            })
        });
        let attr_f32 = ctx.attrs(op).iter().any(|(_, a)| attr_has_f32(a));
        if result_f32 || block_arg_f32 || attr_f32 {
            offender = Some(ctx.op_name(op).to_string());
        }
    });
    match offender {
        Some(op) => Err(IrError::unsupported(format!(
            "f32 kernels are not executable: the interpreter/bytecode tiers \
             compute in f64 only (first f32 type on op '{op}')"
        ))),
        None => Ok(()),
    }
}

/// Compile DSL source text through the full pipeline.
pub fn compile(source: &str, opts: &CompileOptions) -> IrResult<CompiledKernel> {
    let mut p = Pipeline::new(opts);
    let kernel = p.stage("parse", |_, _| parse_kernel(source))?;
    p.compile_kernel(kernel)
}

/// Compile an already-built [`KernelDef`] through the full pipeline.
pub fn compile_kernel(kernel: KernelDef, opts: &CompileOptions) -> IrResult<CompiledKernel> {
    Pipeline::new(opts).compile_kernel(kernel)
}

/// For a stage that leaves a changed, finished module behind: the name of
/// the snapshot taken after it (if any) and the failure context of the
/// verification after it. Any other stage leaves the module as it found it
/// (`parse`, `bytecode`) or for the next stage to finish (`llvm-lowering`).
fn checked(stage: &str) -> Option<(Option<&'static str>, &'static str)> {
    Some(match stage {
        "frontend-lower" => (Some("frontend-lower"), "after frontend lowering"),
        "canonicalize" => (None, "verification after pass `canonicalize`"),
        "split" => (Some("optimize"), "verification after pass `split`"),
        "stencil-to-hls" => (Some("stencil-to-hls"), "after stencil-to-hls"),
        "cpu-lowering" => (Some("cpu-lowering"), "after cpu lowering"),
        "fpp" => (Some("llvm-lowering"), "after llvm lowering + fpp"),
        _ => return None,
    })
}

/// A module on its way through the pipeline, with what the stages leave
/// behind. [`Pipeline::stage`] is the one place a stage is timed,
/// snapshotted and verified; the two entry points are stage lists on it.
struct Pipeline<'o> {
    ctx: Context,
    module: OpId,
    opts: &'o CompileOptions,
    registry: OpVerifiers,
    timings: Timings,
    snapshots: Vec<(String, String)>,
}

impl<'o> Pipeline<'o> {
    /// A pipeline over a fresh, empty module.
    fn new(opts: &'o CompileOptions) -> Self {
        let mut ctx = Context::new();
        let (module, _body) = create_module(&mut ctx);
        Self::over(ctx, module, opts)
    }

    /// A pipeline over an existing module.
    fn over(ctx: Context, module: OpId, opts: &'o CompileOptions) -> Self {
        Pipeline {
            ctx,
            module,
            opts,
            registry: shmls_dialects::registry(),
            timings: Timings::new(),
            snapshots: Vec::new(),
        }
    }

    /// Run stage `name`: time it under `name` (unless it records rows of
    /// its own into the `Timings` it is handed), then, for a [`checked`]
    /// stage, snapshot the module when [`CompileOptions::snapshots`] asks
    /// and verify it when [`CompileOptions::verify`] asks.
    fn stage<T>(
        &mut self,
        name: &str,
        run: impl FnOnce(&mut Context, &mut Timings) -> IrResult<T>,
    ) -> IrResult<T> {
        let (start, rows) = (Instant::now(), self.timings.records().len());
        let out = run(&mut self.ctx, &mut self.timings)?;
        if self.timings.records().len() == rows {
            self.timings.record(name, start.elapsed());
        }
        if let Some((snapshot, context)) = checked(name) {
            if let (true, Some(snapshot)) = (self.opts.snapshots, snapshot) {
                let printed = shmls_ir::printer::print_op(&self.ctx, self.module);
                self.snapshots.push((snapshot.to_string(), printed));
            }
            if self.opts.verify {
                self.verify(context)?;
            }
        }
        Ok(out)
    }

    /// Verify the whole module, timed under `verify`.
    fn verify(&mut self, context: &str) -> IrResult<()> {
        let (ctx, module, registry) = (&self.ctx, self.module, &self.registry);
        self.timings
            .time("verify", || verify_with(ctx, module, registry))
            .map_err(|e| e.context(context))
    }

    /// The stages both entry points share: the IR-to-IR passes that
    /// precede the dataflow construction, then the construction. `split` is
    /// a no-op on the frontend's already-split form but guarantees
    /// `stencil_to_hls`'s single-result precondition for IR arriving from
    /// other frontends in the CPU/GPU-favoured fused form.
    fn lower_to_hls(&mut self, stencil_func: OpId) -> IrResult<HmlsOutput> {
        let (module, hmls) = (self.module, &self.opts.hmls);
        if self.opts.optimize {
            for pass in [&CanonicalizePass as &dyn Pass, &SplitPass] {
                let failed = |e: IrError| e.context(format!("pass `{}`", pass.name()));
                self.stage(pass.name(), |ctx, _| pass.run(ctx, module).map_err(failed))?;
            }
        }
        // The transform times itself, as two rows.
        self.stage("stencil-to-hls", |ctx, rows| {
            let out = stencil_to_hls(ctx, stencil_func, hmls)?;
            rows.extend(&out.timings);
            Ok(out)
        })
    }

    /// The DSL entry points' stage list: everything a [`CompiledKernel`]
    /// carries.
    fn compile_kernel(mut self, kernel: KernelDef) -> IrResult<CompiledKernel> {
        let body = module_body(&self.ctx, self.module);
        let lowered = self.stage("frontend-lower", |ctx, _| lower_kernel(ctx, body, &kernel))?;
        let hls_out = self.lower_to_hls(lowered.func)?;

        let paths = self.opts.paths;
        let cpu_func = if matches!(paths, TargetPath::HlsAndCpu | TargetPath::Full) {
            Some(self.stage("cpu-lowering", |ctx, _| {
                crate::cpu_lowering::stencil_to_cpu(ctx, lowered.func)
            })?)
        } else {
            None
        };
        let (llvm_func, directives) = if matches!(paths, TargetPath::Full) {
            let f = self.stage("llvm-lowering", |ctx, _| hls_to_llvm(ctx, hls_out.func))?;
            let report = self.stage("fpp", |ctx, _| run_fpp(ctx, f))?;
            (Some(f), Some(report))
        } else {
            (None, None)
        };
        // Bytecode tier: compile each apply body once into a flat register
        // program. Best-effort per apply — an unsupported body just keeps
        // the tree-walking path.
        let (apply_plans, direct_stores) = self.stage("bytecode", |ctx, _| {
            Ok((
                compile_apply_plans(ctx, lowered.func),
                shmls_ir::bytecode::direct_stores(ctx, lowered.func),
            ))
        })?;

        // Summary row last; `Timings::total()` skips it when re-summing, so
        // the reported end-to-end time is not doubled.
        let mut timings = self.timings;
        let total = timings.total();
        timings.record("total", total);

        Ok(CompiledKernel {
            ctx: self.ctx,
            module: self.module,
            kernel,
            signature: lowered.signature,
            stencil_func: lowered.func,
            hls_func: hls_out.func,
            cpu_func,
            llvm_func,
            report: hls_out.report,
            design: hls_out.design,
            directives,
            timings,
            snapshots: self.snapshots,
            apply_plans,
            direct_stores,
            canonicalized: self.opts.optimize,
            host: OnceLock::new(),
        })
    }
}

/// Compile a bytecode [`Program`] for every
/// `stencil.apply` under `func` whose body supports it.
pub fn compile_apply_plans(ctx: &Context, func: OpId) -> IdMap<OpId, Arc<Program>> {
    ctx.find_ops(func, "stencil.apply")
        .into_iter()
        .filter_map(|apply| {
            shmls_ir::bytecode::compile_apply(ctx, apply)
                .ok()
                .map(|p| (apply, Arc::new(p)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
kernel demo {
  grid(6, 6)
  halo 1
  field a : input
  field b : output
  compute b { b = a[-1,0] + a[1,0] }
}
"#;

    #[test]
    fn full_pipeline_produces_everything() {
        let compiled = compile(SRC, &CompileOptions::default()).unwrap();
        assert_eq!(compiled.hls_name(), "demo_hls");
        assert!(compiled.cpu_func.is_some());
        assert!(compiled.llvm_func.is_some());
        let d = compiled.directives.unwrap();
        assert!(d.dataflow_regions >= 4);
        assert!(!d.interfaces.is_empty());
        assert_eq!(compiled.report.compute_stages, 1);
    }

    #[test]
    fn hls_only_skips_other_paths() {
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let compiled = compile(SRC, &opts).unwrap();
        assert!(compiled.cpu_func.is_none());
        assert!(compiled.llvm_func.is_none());
        assert!(compiled.directives.is_none());
    }

    #[test]
    fn every_apply_gets_a_bytecode_plan() {
        let compiled = compile(SRC, &CompileOptions::default()).unwrap();
        let applies = compiled
            .ctx
            .find_ops(compiled.stencil_func, "stencil.apply");
        assert!(!applies.is_empty());
        assert_eq!(compiled.apply_plans.len(), applies.len());
        for apply in applies {
            let plan = &compiled.apply_plans[&apply];
            assert!(!plan.instrs.is_empty() || !plan.inputs.is_empty());
        }
    }

    /// The vector tier's program for each catalogue kernel — the fused
    /// host form's where it has one — folds its single-use binary temps
    /// into fused pairs: PW's 63 instructions are 36 (27 pairs), heat3d's
    /// 15 are 10 (5 pairs), and tracer's 112 are 89 (23 pairs).
    #[test]
    fn host_programs_fold_pairs() {
        use shmls_ir::bytecode::Instr;
        let kernels = [
            (
                "pw_advection",
                shmls_kernels::pw_advection::source(8, 8, 8),
                36,
                27,
            ),
            ("heat3d", shmls_kernels::heat3d::source(8, 8, 8), 10, 5),
            (
                "tracer_advection",
                shmls_kernels::tracer_advection::source(8, 8, 8),
                89,
                23,
            ),
        ];
        for (name, src, instrs, pairs) in kernels {
            let compiled = compile(&src, &CompileOptions::default()).unwrap();
            let plans = match compiled.host_form() {
                Some(host) => &host.apply_plans,
                None => &compiled.apply_plans,
            };
            let [plan] = plans.values().collect::<Vec<_>>()[..] else {
                panic!("{name}: one apply expected");
            };
            let fused = plan
                .instrs
                .iter()
                .filter(|i| matches!(i, Instr::Bin2 { .. }));
            assert_eq!(
                (plan.instrs.len(), fused.count()),
                (instrs, pairs),
                "{name}"
            );
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let e = compile("kernel broken {", &CompileOptions::default()).unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn timings_cover_every_stage() {
        let compiled = compile(SRC, &CompileOptions::default()).unwrap();
        for stage in [
            "parse",
            "frontend-lower",
            "canonicalize",
            "split",
            "stencil-to-hls",
            "connectivity",
            "cpu-lowering",
            "llvm-lowering",
            "fpp",
            "bytecode",
            "verify",
            "total",
        ] {
            assert!(
                compiled.timings.get(stage).is_some(),
                "stage `{stage}` missing from timings:\n{}",
                compiled.timings
            );
        }
        // One verification per stage that changes the module: frontend,
        // canonicalize, split, stencil-to-hls, cpu, llvm + fpp.
        let records = compiled.timings.records();
        assert_eq!(records.iter().filter(|r| r.name == "verify").count(), 6);
        // `total` is recorded last, covers the sum of the real phases,
        // and re-summing after it lands must not double-count it.
        assert_eq!(records.last().unwrap().name, "total");
        assert_eq!(
            compiled.timings.get("total"),
            Some(compiled.timings.total())
        );
    }

    #[test]
    fn snapshots_capture_every_stage_in_order() {
        let opts = CompileOptions {
            snapshots: true,
            ..Default::default()
        };
        let compiled = compile(SRC, &opts).unwrap();
        let stages: Vec<&str> = compiled.snapshots.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            stages,
            [
                "frontend-lower",
                "optimize",
                "stencil-to-hls",
                "cpu-lowering",
                "llvm-lowering"
            ]
        );
        for (stage, ir) in &compiled.snapshots {
            assert!(
                ir.contains("builtin.module"),
                "snapshot `{stage}` is not a module print"
            );
        }
        // The dataflow function only exists from stencil-to-hls onwards.
        assert!(!compiled.snapshots[0].1.contains("demo_hls"));
        assert!(compiled.snapshots[2].1.contains("demo_hls"));
    }

    #[test]
    fn snapshots_off_by_default() {
        let compiled = compile(SRC, &CompileOptions::default()).unwrap();
        assert!(compiled.snapshots.is_empty());
    }
}
