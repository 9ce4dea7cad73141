//! Pipeline integration: the full Figure-1 flow on assorted kernels,
//! checking structural invariants of every intermediate representation.

use shmls_dialects::{hls, llvm, stencil};
use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
use shmls_ir::prelude::*;
use shmls_ir::verifier::verify_with;
use stencil_hmls::engine::{Engine, Threaded};
use stencil_hmls::{compile, CompileOptions};

const SIMPLE_2D: &str = r#"
kernel smooth {
  grid(12, 12)
  halo 1
  field a : input
  field b : output
  const w
  compute b { b = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1]) }
}
"#;

#[test]
fn every_stage_verifies() {
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    verify_with(&compiled.ctx, compiled.module, &shmls_dialects::registry()).unwrap();
}

#[test]
fn module_contains_all_four_functions() {
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let ctx = &compiled.ctx;
    let names: Vec<&str> = ctx
        .find_ops(compiled.module, "func.func")
        .into_iter()
        .filter_map(|f| shmls_dialects::func::func_name(ctx, f))
        .collect();
    for expected in ["smooth", "smooth_hls", "smooth_cpu", "smooth_llvm"] {
        assert!(
            names.contains(&expected),
            "missing `{expected}` in {names:?}"
        );
    }
}

#[test]
fn ir_textual_round_trip_of_full_module() {
    // The printed module (stencil + HLS + CPU + LLVM functions) re-parses
    // to identical text.
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let text = print_op(&compiled.ctx, compiled.module);
    let (ctx2, module2) = parse_op(&text).unwrap();
    assert_eq!(print_op(&ctx2, module2), text);
    // And the re-parsed module still verifies.
    verify_with(&ctx2, module2, &shmls_dialects::registry()).unwrap();
}

#[test]
fn hls_function_has_figure3_shape() {
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let ctx = &compiled.ctx;
    let f = compiled.hls_func;
    // Dataflow stages in program order: load, shift, compute, write.
    let stages = ctx.find_ops(f, hls::DATAFLOW);
    assert_eq!(stages.len(), 4);
    // Streams connect them.
    assert_eq!(ctx.find_ops(f, hls::CREATE_STREAM).len(), 3);
    // The compute loop is pipelined at II = 1.
    let pipelines = ctx.find_ops(f, hls::PIPELINE);
    assert!(!pipelines.is_empty());
    for p in pipelines {
        assert_eq!(hls::pipeline_ii(ctx, p), Some(1));
    }
    // No stencil ops survive in the HLS function.
    assert!(ctx.find_ops(f, stencil::APPLY).is_empty());
    assert!(ctx.find_ops(f, stencil::ACCESS).is_empty());
}

#[test]
fn llvm_function_satisfies_backend_legality() {
    // §3.2's two conditions: streams are ptr-to-struct and carry a
    // set.stream.depth call on a [0,0] GEP.
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let ctx = &compiled.ctx;
    let f = compiled.llvm_func.unwrap();
    let depth_calls: Vec<OpId> = ctx
        .find_ops(f, llvm::CALL)
        .into_iter()
        .filter(|&c| llvm::callee(ctx, c) == Some(llvm::SET_STREAM_DEPTH))
        .collect();
    assert_eq!(depth_calls.len(), 3);
    for c in depth_calls {
        let gep = ctx.defining_op(ctx.operands(c)[0]).unwrap();
        assert_eq!(ctx.op_name(gep), llvm::GEP);
        let base = ctx.operands(gep)[0];
        assert!(matches!(
            ctx.value_type(base),
            Type::LlvmPtr(inner) if matches!(**inner, Type::LlvmStruct(_))
        ));
    }
}

#[test]
fn design_descriptor_extraction_matches_report() {
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let design =
        shmls_fpga_sim::design::DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
            .unwrap();
    // The compile already made this extraction, and kept it.
    assert_eq!(design, compiled.design);
    assert_eq!(design.interior_points, 144);
    assert_eq!(design.bounded_points, 14 * 14);
    assert_eq!(design.streams.len(), compiled.report.streams);
    let computes = design
        .stages
        .iter()
        .filter(|s| matches!(s, shmls_fpga_sim::design::Stage::Compute { .. }))
        .count();
    assert_eq!(computes, compiled.report.compute_stages);
    // 2D window = 9 elements of 8 bytes.
    assert!(design.streams.iter().any(|s| s.elem_bytes == 72));
    assert_eq!(design.axi_ports(), 2);
}

/// `HmlsReport` is counted while the transform builds the design,
/// `CompiledKernel::design` is read back from what it built: two summaries
/// of one function, which must say the same.
#[test]
fn the_report_and_the_descriptor_of_one_compile_cannot_drift() {
    use shmls_fpga_sim::design::Stage;
    for kernel in shmls_kernels::catalogue::CATALOGUE {
        for depth in [1, 2] {
            let mut opts = CompileOptions::default();
            opts.hmls.temporal_depth = depth;
            let compiled = compile(&kernel.source([12, 10, 8]), &opts).unwrap();
            let (report, design) = (&compiled.report, &compiled.design);
            let what = format!("{} at depth {depth}", kernel.name);
            let count = |kind: &str| design.stages.iter().filter(|s| s.kind() == kind).count();
            assert_eq!(report.compute_stages, count("compute"), "{what}");
            assert_eq!(report.dup_stages, count("dup"), "{what}");
            assert_eq!(report.shift_buffers, count("shift"), "{what}");
            assert_eq!(report.merge_stages, count("merge"), "{what}");
            assert_eq!(count("write"), 1, "{what}");
            assert_eq!(report.streams, design.streams.len(), "{what}");
            let register_lens: Vec<i64> = design
                .stages
                .iter()
                .filter_map(|s| match s {
                    Stage::Shift { register_len, .. } => Some(*register_len),
                    _ => None,
                })
                .collect();
            assert_eq!(report.shift_register_lens, register_lens, "{what}");
            let bundles: Vec<&str> = design.interfaces.iter().map(|(_, b)| b.as_str()).collect();
            assert_eq!(report.bundles, bundles, "{what}");
            assert_eq!(report.temporal_depth, depth, "{what}");
        }
    }
}

#[test]
fn design_extraction_refuses_a_stream_with_two_readers() {
    // IR can arrive as text: point one stage's `hls.read` at a stream
    // another stage already pops. The cycle engine would hand both the
    // same tokens, so extraction answers with a typed error.
    use shmls_dialects::hls;
    let source = shmls_kernels::pw_advection::source(8, 6, 4);
    let mut compiled = compile(&source, &CompileOptions::default()).unwrap();
    let reads = compiled.ctx.find_ops(compiled.hls_func, hls::READ);
    let stream_of = |ctx: &Context, read: OpId| ctx.operands(read)[0];
    let taken = stream_of(&compiled.ctx, reads[0]);
    let other = *reads
        .iter()
        .find(|&&r| stream_of(&compiled.ctx, r) != taken)
        .expect("a second stage reads another stream");
    compiled.ctx.set_operand(other, 0, taken);
    let e =
        shmls_fpga_sim::design::DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
            .unwrap_err()
            .to_string();
    assert!(e.contains("is read by stage"), "{e}");
}

#[test]
fn fuse_then_split_pipeline_still_compiles() {
    // The CPU-favoured fused form, split back per-field, feeds the HLS
    // transformation identically.
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    let k = parse_kernel(&shmls_kernels::pw_advection::source(8, 6, 4)).unwrap();
    let mut ctx = Context::new();
    let (module, body) = create_module(&mut ctx);
    let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
    let fused = stencil_hmls::fuse::fuse_applies(&mut ctx, lowered.func).unwrap();
    assert_eq!(ctx.results(fused).len(), 3);
    stencil_hmls::split::split_applies(&mut ctx, module).unwrap();
    let out = stencil_hmls::stencil_to_hls(
        &mut ctx,
        lowered.func,
        &stencil_hmls::HmlsOptions::default(),
    )
    .unwrap();
    assert_eq!(out.report.compute_stages, 3);
    verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
}

#[test]
fn functional_mem_beats_match_analytic_model() {
    // The beats counted by the functional runtime while actually moving
    // data must equal the analytic model's prediction from the design
    // structure — cross-validation between the two layers.
    for source in [
        shmls_kernels::pw_advection::source(10, 8, 6),
        shmls_kernels::tracer_advection::source(8, 7, 6),
        SIMPLE_2D.to_string(),
    ] {
        let compiled = compile(&source, &CompileOptions::default()).unwrap();
        let design = shmls_fpga_sim::design::DesignDescriptor::from_hls_func(
            &compiled.ctx,
            compiled.hls_func,
        )
        .unwrap();
        let data = stencil_hmls::runner::KernelData::default()
            .scalar("w", 0.25)
            .scalar("tcx", 0.1)
            .scalar("tcy", 0.1)
            .scalar("pdt", 0.5);
        let (_out, (_streams, _elements, beats)) =
            stencil_hmls::runner::run_hls(&compiled, &data).unwrap();
        assert_eq!(
            beats,
            design.total_beats(),
            "kernel `{}`: functional beats vs analytic",
            compiled.kernel.name
        );
    }
}

#[test]
fn halo_two_kernel_full_pipeline() {
    // Wider stencils: halo 2 gives 5^2 = 25-value windows in 2D and a
    // deeper shift register; all execution paths must still agree.
    let src = r#"
kernel wide {
  grid(9, 7)
  halo 2
  field a : input
  field b : output
  compute b {
    b = a[-2,0] + a[2,0] + a[0,-2] + a[0,2] + 2.0 * a[0,0]
      + a[-1,-1] + a[1,1]
  }
}
"#;
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    assert_eq!(compiled.report.window_elems, 25);

    let mut a = shmls_ir::interp::Buffer::zeroed(vec![13, 11], vec![-2, -2]);
    for p in shmls_ir::interp::iter_box(&[-2, -2], &[11, 9]) {
        a.store(&p, (p[0] * 13 + p[1] * 7) as f64 / 3.0).unwrap();
    }
    let data = stencil_hmls::runner::KernelData::default().buffer("a", a.clone());

    let reference = stencil_hmls::runner::run_stencil(&compiled, &data).unwrap();
    let cpu = stencil_hmls::runner::run_cpu(&compiled, &data).unwrap();
    let (hls, _) = stencil_hmls::runner::run_hls(&compiled, &data).unwrap();
    let threaded = Threaded.sweep(&compiled, &data, 1);
    let threaded = threaded.expect("halo-2 design must not deadlock").outputs;

    for p in shmls_ir::interp::iter_box(&[0, 0], &[9, 7]) {
        let want = a.load(&[p[0] - 2, p[1]]).unwrap()
            + a.load(&[p[0] + 2, p[1]]).unwrap()
            + a.load(&[p[0], p[1] - 2]).unwrap()
            + a.load(&[p[0], p[1] + 2]).unwrap()
            + 2.0 * a.load(&p).unwrap()
            + a.load(&[p[0] - 1, p[1] - 1]).unwrap()
            + a.load(&[p[0] + 1, p[1] + 1]).unwrap();
        for (path, out) in [
            ("stencil", &reference),
            ("cpu", &cpu),
            ("hls", &hls),
            ("threaded", &threaded),
        ] {
            let got = out["b"].load(&p).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "{path} at {p:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn f32_kernels_are_rejected_as_unsupported_not_silently_widened() {
    // Regression: an f32 stencil function used to sail through the
    // pipeline and execute on the f64-only interp/bytecode tiers with
    // every intermediate silently widened — answers in the wrong
    // precision. Both the driver entry point and the bytecode tier must
    // refuse with a structured `Unsupported` error instead.
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let stencil_only = format!(
        "\"builtin.module\"() ({{\n^bb():\n{}\n}}) : () -> ()",
        print_op(&compiled.ctx, compiled.stencil_func)
    );
    let f32_ir = stencil_only.replace("f64", "f32");
    assert_ne!(f32_ir, stencil_only, "rewrite must hit some types");

    // The sanity check: the all-f64 original still compiles...
    stencil_hmls::driver::compile_stencil_ir(&stencil_only, &CompileOptions::default()).unwrap();
    // ...while the f32 variant is refused up front, before any lowering.
    let err =
        stencil_hmls::driver::compile_stencil_ir(&f32_ir, &CompileOptions::default()).unwrap_err();
    assert!(err.is_unsupported(), "want Unsupported, got: {err}");
    assert!(err.to_string().contains("f32"), "{err}");

    // The bytecode tier called directly refuses the f32 apply too
    // (callers fall back or surface the error; nothing widens).
    let (ctx, module) = parse_op(&f32_ir).unwrap();
    let applies = ctx.find_ops(module, "stencil.apply");
    assert!(!applies.is_empty());
    let e = shmls_ir::bytecode::compile_apply(&ctx, applies[0]).unwrap_err();
    assert!(e.is_unsupported(), "want Unsupported, got: {e}");
}

#[test]
fn textual_stencil_ir_is_a_complete_interchange_format() {
    // Figure 1: any frontend emitting stencil-dialect IR can target the
    // FPGA flow. Print the frontend's output, round-trip it through text,
    // compile the *re-parsed* IR, and check the design computes the same
    // values as the directly-compiled kernel.
    let compiled = compile(SIMPLE_2D, &CompileOptions::default()).unwrap();
    let ir_text = print_op(&compiled.ctx, compiled.module);
    // Strip everything but the stencil function by re-printing only it.
    let stencil_only = format!(
        "\"builtin.module\"() ({{\n^bb():\n{}\n}}) : () -> ()",
        print_op(&compiled.ctx, compiled.stencil_func)
    );
    let _ = ir_text;

    let (ctx2, module2, hls_func2, report2) =
        stencil_hmls::driver::compile_stencil_ir(&stencil_only, &CompileOptions::default())
            .unwrap();
    assert_eq!(report2.compute_stages, compiled.report.compute_stages);
    assert_eq!(report2.streams, compiled.report.streams);
    assert_eq!(report2.window_elems, compiled.report.window_elems);

    // Execute both HLS designs on identical data.
    let mut a = shmls_ir::interp::Buffer::zeroed(vec![14, 14], vec![-1, -1]);
    for p in shmls_ir::interp::iter_box(&[-1, -1], &[13, 13]) {
        a.store(&p, (p[0] * 5 + p[1] * 3) as f64 / 2.0).unwrap();
    }
    let data = stencil_hmls::runner::KernelData::default()
        .buffer("a", a.clone())
        .scalar("w", 0.25);
    let (direct, _) = stencil_hmls::runner::run_hls(&compiled, &data).unwrap();

    let setup = |store: &mut shmls_ir::interp::Store<'_>| {
        vec![
            shmls_ir::interp::RtValue::MemRef(store.alloc(a.clone())),
            shmls_ir::interp::RtValue::MemRef(
                store.alloc(shmls_ir::interp::Buffer::zeroed(vec![14, 14], vec![-1, -1])),
            ),
            shmls_ir::interp::RtValue::F64(0.25),
        ]
    };
    let Outcome::Completed { store, .. } =
        execute(&ctx2, module2, hls_func2, setup, Schedule::Sequential).unwrap()
    else {
        panic!("the re-parsed design deadlocked");
    };
    let reparsed_out = store.get(1).unwrap();
    for p in shmls_ir::interp::iter_box(&[0, 0], &[12, 12]) {
        assert_eq!(
            direct["b"].load(&p).unwrap(),
            reparsed_out.load(&p).unwrap(),
            "at {p:?}"
        );
    }
}

#[test]
fn fused_stencil_ir_is_split_on_the_ir_entry_point() {
    // Regression: `compile_stencil_ir` ran canonicalize but not split, so
    // IR in the CPU/GPU-favoured fused form — which only ever arrives
    // through this entry point — died in stencil_to_hls with "run
    // split_applies first". The fused IR must compile to a design that
    // computes what the unfused DSL compile computes.
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    use shmls_ir::interp::{Buffer, RtValue};
    const PAIR: &str = r#"
kernel pair {
  grid(8, 6)
  halo 1
  field a : input
  field b : output
  field c : output
  const w
  compute b { b = w * (a[-1,0] + a[1,0]) }
  compute c { c = a[0,-1] - a[0,1] }
}
"#;
    let mut ctx = Context::new();
    let (module, body) = create_module(&mut ctx);
    let lowered = lower_kernel(&mut ctx, body, &parse_kernel(PAIR).unwrap()).unwrap();
    let fused = stencil_hmls::fuse::fuse_applies(&mut ctx, lowered.func).unwrap();
    assert_eq!(ctx.results(fused).len(), 2);
    let fused_ir = print_op(&ctx, module);

    let (ctx2, module2, hls_func2, report2) =
        stencil_hmls::driver::compile_stencil_ir(&fused_ir, &CompileOptions::default()).unwrap();
    assert_eq!(report2.compute_stages, 2);

    let mut a = Buffer::zeroed(vec![10, 8], vec![-1, -1]);
    for p in shmls_ir::interp::iter_box(&[-1, -1], &[9, 7]) {
        a.store(&p, (p[0] * 7 - p[1] * 3) as f64 / 4.0).unwrap();
    }
    let compiled = compile(PAIR, &CompileOptions::default()).unwrap();
    let data = stencil_hmls::runner::KernelData::default()
        .buffer("a", a.clone())
        .scalar("w", 0.5);
    let (unfused, _) = stencil_hmls::runner::run_hls(&compiled, &data).unwrap();

    let setup = |store: &mut shmls_ir::interp::Store<'_>| {
        let out = || Buffer::zeroed(vec![10, 8], vec![-1, -1]);
        vec![
            RtValue::MemRef(store.alloc(a.clone())),
            RtValue::MemRef(store.alloc(out())),
            RtValue::MemRef(store.alloc(out())),
            RtValue::F64(0.5),
        ]
    };
    let Outcome::Completed { store, .. } =
        execute(&ctx2, module2, hls_func2, setup, Schedule::Sequential).unwrap()
    else {
        panic!("the fused design deadlocked");
    };
    for (arg, name) in [(1, "b"), (2, "c")] {
        assert_eq!(store.get(arg).unwrap().data, unfused[name].data, "{name}");
    }
}

#[test]
fn malformed_scalar_ops_are_rejected_on_the_ir_entry_point() {
    // Regression: only `arith.constant` and four float binops had verifier
    // rules, so IR text with a scalar op short of operands passed the
    // always-on input verification of `compile_stencil_ir`: a zero-operand
    // `arith.negf` then panicked in canonicalize (`operands[0]`), and a
    // one-operand `arith.maximumf` compiled to an HLS design. Both must end
    // in an `IrError` that names the op.
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    const SRC: &str = r#"
kernel neg {
  grid(6, 4)
  halo 1
  field a : input
  field b : output
  compute b { b = max(-a[0,0], a[1,0]) }
}
"#;
    let mut ctx = Context::new();
    let (module, body) = create_module(&mut ctx);
    lower_kernel(&mut ctx, body, &parse_kernel(SRC).unwrap()).unwrap();
    let good = print_op(&ctx, module);
    let opts = CompileOptions::default();
    stencil_hmls::driver::compile_stencil_ir(&good, &opts).unwrap();

    // `"<op>"(%a, %b) : (f64, f64) -> …` with only its first `keep` operands.
    let keep_operands = |op: &str, keep: usize| {
        let start = good.find(&format!("\"{op}\"(")).expect("op is in the IR");
        let open = start + op.len() + 2;
        let close = open + good[open..].find(')').unwrap();
        let arrow = close + good[close..].find(" -> ").unwrap();
        let operands: Vec<&str> = good[open + 1..close].split(", ").take(keep).collect();
        format!(
            "{}({}) : ({}){}",
            &good[..open],
            operands.join(", "),
            vec!["f64"; keep].join(", "),
            &good[arrow..]
        )
    };
    for (op, keep) in [("arith.negf", 0), ("arith.maximumf", 1)] {
        let bad = keep_operands(op, keep);
        assert_ne!(bad, good);
        let err = stencil_hmls::driver::compile_stencil_ir(&bad, &opts)
            .expect_err("a scalar op short of operands must not compile");
        let msg = err.to_string();
        assert!(msg.contains(&format!("op `{op}`")), "{msg}");
        assert!(msg.contains(&format!("found {keep}")), "{msg}");
    }
}

#[test]
fn halo_zero_pointwise_kernel() {
    // A pointwise (halo 0) kernel: trivial windows, no neighbours — the
    // degenerate end of the stencil spectrum must still flow through the
    // whole pipeline.
    let src = r#"
kernel scale {
  grid(7, 5)
  halo 0
  field a : input
  field b : output
  const g
  compute b { b = g * a[0,0] }
}
"#;
    let compiled = compile(src, &CompileOptions::default()).unwrap();
    assert_eq!(compiled.report.window_elems, 1);
    let mut a = shmls_ir::interp::Buffer::zeroed(vec![7, 5], vec![0, 0]);
    for p in shmls_ir::interp::iter_box(&[0, 0], &[7, 5]) {
        a.store(&p, (p[0] + 10 * p[1]) as f64).unwrap();
    }
    let data = stencil_hmls::runner::KernelData::default()
        .buffer("a", a.clone())
        .scalar("g", 3.0);
    let (hls, _) = stencil_hmls::runner::run_hls(&compiled, &data).unwrap();
    for p in shmls_ir::interp::iter_box(&[0, 0], &[7, 5]) {
        assert_eq!(hls["b"].load(&p).unwrap(), 3.0 * a.load(&p).unwrap());
    }
}
