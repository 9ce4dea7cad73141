//! Lowering the HLS dialect to annotation-encoded LLVM-dialect IR (§3.2).
//!
//! The paper's key encoding decision, adopted from Fortran-HLS \[15\]:
//! *"void functions with no arguments are used to encode HLS directives …
//! they then effectively become annotations in the LLVM-IR and do not alter
//! the structure of the IR"*. Streams are legalised for the AMD Xilinx
//! backend by (1) becoming pointers-to-structs and (2) receiving an
//! `@llvm.fpga.set.stream.depth` call on their first element (obtained with
//! a `getelementptr [0,0]`).
//!
//! We reproduce the encoding at the `llvm` *dialect* level. Loops stay as
//! `scf.for` (our stand-in for LLVM's loop tree — see DESIGN.md); every HLS
//! op becomes either real `llvm` ops (streams) or `_shmls_*` marker calls
//! that the [`crate::fpp`] pass later pattern-matches, exactly as the
//! paper's `f++` tool does on real LLVM-IR.

#![deny(clippy::too_many_lines)]

use shmls_dialects::{func, hls, llvm};
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_error};

/// Generic structured container op replacing `hls.dataflow` in the LLVM
/// module (the dataflow fact itself rides on a marker call inside).
pub const LLVM_REGION: &str = "llvm.region";

/// Clone the HLS function `hls_func` as `<name>_llvm` and lower every HLS
/// op in the clone to the annotation encoding. Returns the new function.
pub fn hls_to_llvm(ctx: &mut Context, hls_func: OpId) -> IrResult<OpId> {
    let clone = clone_as_llvm(ctx, hls_func)?;
    // Process ops innermost-last is unnecessary; a single pre-order pass
    // collecting then rewriting suffices because rewrites are local.
    for op in ctx.walk_collect(clone) {
        if ctx.is_live_op(op) {
            lower_op(ctx, op)?;
        }
    }
    Ok(clone)
}

/// Deep-clone `hls_func` beside it as `<base>_llvm`, where `<base>` is its
/// name without the `_hls` suffix.
fn clone_as_llvm(ctx: &mut Context, hls_func: OpId) -> IrResult<OpId> {
    let name =
        func::func_name(ctx, hls_func).ok_or_else(|| ir_error!("hls function has no name"))?;
    let base = name.strip_suffix("_hls").unwrap_or(name);
    let llvm_name = Attribute::string(format!("{base}_llvm"));
    let module_body = ctx
        .parent_block(hls_func)
        .ok_or_else(|| ir_error!("hls function is detached"))?;
    let clone = ctx.clone_op(hls_func, &mut IdMap::default());
    ctx.append_op(module_body, clone);
    ctx.set_attr(clone, "sym_name", llvm_name);
    Ok(clone)
}

/// Lower one op of the clone: an HLS op becomes real `llvm` ops or a
/// `_shmls_*` marker call; anything else stays.
fn lower_op(ctx: &mut Context, op: OpId) -> IrResult<()> {
    let int = |name: &str| ctx.attr(op, name).and_then(Attribute::as_int);
    let operand = |i: usize| ctx.operands(op)[i];
    // The marker call replacing `op`: callee, arguments, result types.
    let (callee, args, results) = match ctx.op_name(op) {
        hls::CREATE_STREAM => return lower_create_stream(ctx, op),
        hls::DATAFLOW => return lower_dataflow(ctx, op),
        hls::READ => {
            let result_ty = ctx.value_type(ctx.result(op, 0)).clone();
            let callee = "_shmls_stream_read".to_string();
            (callee, vec![operand(0)], vec![result_ty])
        }
        hls::WRITE => {
            let callee = "_shmls_stream_write".to_string();
            (callee, ctx.operands(op).to_vec(), vec![])
        }
        hls::EMPTY => (
            "_shmls_stream_empty".to_string(),
            vec![operand(0)],
            vec![Type::I1],
        ),
        hls::FULL => (
            "_shmls_stream_full".to_string(),
            vec![operand(0)],
            vec![Type::I1],
        ),
        hls::PIPELINE => {
            let ii = hls::pipeline_ii(ctx, op).ok_or_else(|| ir_error!("pipeline without ii"))?;
            (format!("_shmls_pipeline_ii_{ii}"), vec![], vec![])
        }
        hls::UNROLL => {
            let factor = int("factor").ok_or_else(|| ir_error!("unroll without factor"))?;
            (format!("_shmls_unroll_factor_{factor}"), vec![], vec![])
        }
        hls::ARRAY_PARTITION => {
            let kind = ctx
                .attr(op, "kind")
                .and_then(Attribute::as_str)
                .ok_or_else(|| ir_error!("array_partition without kind"))?;
            let (factor, dim) = (int("factor").unwrap_or(0), int("dim").unwrap_or(0));
            let callee = format!("_shmls_array_partition_{kind}_{factor}_{dim}");
            (callee, vec![operand(0)], vec![])
        }
        hls::INTERFACE => {
            let (protocol, bundle) = hls::interface_binding(ctx, op)
                .ok_or_else(|| ir_error!("interface without binding"))?;
            let callee = format!("_shmls_interface_{protocol}_{bundle}");
            (callee, vec![operand(0)], vec![])
        }
        _ => return Ok(()),
    };
    let call = llvm::call(&mut OpBuilder::before(ctx, op), &callee, args, results);
    for i in 0..ctx.results(call).len() {
        let (old, new) = (ctx.result(op, i), ctx.result(call, i));
        ctx.replace_all_uses(old, new);
    }
    ctx.erase_op(op);
    Ok(())
}

/// `hls.dataflow` keeps its region structure as an `llvm.region`, marked
/// with a `_shmls_dataflow` call at its head.
fn lower_dataflow(ctx: &mut Context, op: OpId) -> IrResult<()> {
    ctx.set_op_name(op, LLVM_REGION);
    let body = ctx
        .entry_block(op)
        .ok_or_else(|| ir_error!("dataflow without a body"))?;
    let first = ctx.block_ops(body).first().copied();
    let marker = ctx.create_op("llvm.call", vec![], vec![], []);
    ctx.set_attr(marker, "callee", Attribute::symbol("_shmls_dataflow"));
    match first {
        Some(anchor) => {
            let (block, pos) = ctx.op_position(anchor).expect("anchored");
            ctx.insert_op(block, pos, marker);
        }
        None => ctx.append_op(body, marker),
    }
    Ok(())
}

/// `hls.create_stream` → `llvm.alloca` of the wrapped struct type, a GEP to
/// the first element, and the `@llvm.fpga.set.stream.depth` intrinsic — the
/// two legality conditions of §3.2.
fn lower_create_stream(ctx: &mut Context, op: OpId) -> IrResult<()> {
    let stream_value = ctx.result(op, 0);
    let Type::HlsStream(elem) = ctx.value_type(stream_value).clone() else {
        ir_bail!("create_stream result is not a stream type");
    };
    let depth = hls::stream_depth(ctx, op);
    let struct_ty = Type::LlvmStruct(vec![(*elem).clone()]);
    let mut b = OpBuilder::before(ctx, op);
    let ptr = llvm::alloca(&mut b, struct_ty);
    let first = llvm::gep(&mut b, ptr, &[0, 0], Type::llvm_ptr((*elem).clone()));
    let call = llvm::call(&mut b, llvm::SET_STREAM_DEPTH, vec![first], vec![]);
    ctx.set_attr(call, "depth", Attribute::int(depth));
    ctx.replace_all_uses(stream_value, ptr);
    ctx.erase_op(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmls::{stencil_to_hls, HmlsOptions};
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};

    const LAPLACE: &str = r#"
kernel laplace {
  grid(8, 6)
  halo 1
  field a : input
  field b : output
  const w
  compute b {
    b = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1] - 4.0 * a[0,0])
  }
}
"#;

    fn build() -> (Context, OpId, OpId) {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let hls_out = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap();
        let llvm_func = hls_to_llvm(&mut ctx, hls_out.func).unwrap();
        (ctx, module, llvm_func)
    }

    #[test]
    fn no_hls_ops_remain() {
        let (ctx, _module, llvm_func) = build();
        for op in ctx.walk_collect(llvm_func) {
            assert!(
                !ctx.op_name(op).starts_with("hls."),
                "HLS op `{}` survived lowering",
                ctx.op_name(op)
            );
        }
    }

    #[test]
    fn streams_are_legalised() {
        let (ctx, _module, llvm_func) = build();
        // Three streams (elem, window, result): three alloca + gep +
        // set.stream.depth triples.
        let allocas = ctx.find_ops(llvm_func, llvm::ALLOCA);
        assert_eq!(allocas.len(), 3);
        let depth_calls: Vec<_> = ctx
            .find_ops(llvm_func, llvm::CALL)
            .into_iter()
            .filter(|&c| llvm::callee(&ctx, c) == Some(llvm::SET_STREAM_DEPTH))
            .collect();
        assert_eq!(depth_calls.len(), 3);
        // Stream type shape: ptr-to-struct.
        for &a in &allocas {
            let ty = ctx.value_type(ctx.result(a, 0));
            assert!(
                matches!(ty, Type::LlvmPtr(inner) if matches!(**inner, Type::LlvmStruct(_))),
                "stream lowered to {ty}, expected ptr-to-struct"
            );
        }
        // The GEP feeding set.stream.depth uses offset [0,0] (§3.2 cond. 2).
        for &c in &depth_calls {
            let gep = ctx.defining_op(ctx.operands(c)[0]).unwrap();
            assert_eq!(ctx.op_name(gep), llvm::GEP);
            assert_eq!(
                ctx.attr(gep, "indices").and_then(Attribute::as_index_array),
                Some(&[0, 0][..])
            );
        }
    }

    #[test]
    fn directives_become_marker_calls() {
        let (ctx, _module, llvm_func) = build();
        let markers: Vec<String> = ctx
            .find_ops(llvm_func, llvm::CALL)
            .into_iter()
            .filter(|&c| llvm::is_marker_call(&ctx, c))
            .map(|c| llvm::callee(&ctx, c).unwrap().to_string())
            .collect();
        assert!(
            markers.iter().any(|m| m == "_shmls_pipeline_ii_1"),
            "{markers:?}"
        );
        assert!(markers
            .iter()
            .any(|m| m.starts_with("_shmls_interface_m_axi_gmem")));
        assert!(markers.iter().any(|m| m == "_shmls_dataflow"));
        assert!(markers.iter().any(|m| m == "_shmls_stream_read"));
        assert!(markers.iter().any(|m| m == "_shmls_stream_write"));
    }

    #[test]
    fn dataflow_regions_become_generic_regions() {
        let (ctx, _module, llvm_func) = build();
        let regions = ctx.find_ops(llvm_func, LLVM_REGION);
        // laplace: load + shift + compute + write stages.
        assert_eq!(regions.len(), 4);
        for r in regions {
            let body = ctx.entry_block(r).unwrap();
            let first = ctx.block_ops(body)[0];
            assert_eq!(llvm::callee(&ctx, first), Some("_shmls_dataflow"));
        }
    }

    #[test]
    fn original_hls_func_untouched() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let hls_out = stencil_to_hls(&mut ctx, lowered.func, &HmlsOptions::default()).unwrap();
        let before = ctx.find_ops(hls_out.func, hls::CREATE_STREAM).len();
        let _ = hls_to_llvm(&mut ctx, hls_out.func).unwrap();
        let after = ctx.find_ops(hls_out.func, hls::CREATE_STREAM).len();
        assert_eq!(before, after, "lowering must clone, not mutate");
    }
}
