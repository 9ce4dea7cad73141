//! `llvm` dialect subset: the lowering *target* of the HLS dialect.
//!
//! The paper lowers the HLS dialect to LLVM-IR in which
//!
//! 1. HLS directives are encoded as calls to argument-less void functions
//!    (so they ride through LLVM without perturbing the IR structure), and
//! 2. streams are legalised into pointers-to-structs with an
//!    `@llvm.fpga.set.stream.depth` intrinsic call on the first element.
//!
//! We reproduce that encoding at the `llvm` *dialect* level: loops stay
//! structured (`scf.for`) — our substitute for the loop-tree analysis the
//! paper's `f++` tool performs on LLVM loops — while every value-level
//! operation and every directive uses the ops below. The `fpp` module in
//! `stencil-hmls` then pattern-matches the marker calls exactly as `f++`
//! does.

use shmls_ir::ir_ensure;
use shmls_ir::prelude::*;

/// `llvm.call` op name.
pub const CALL: &str = "llvm.call";
/// `llvm.alloca` op name.
pub const ALLOCA: &str = "llvm.alloca";
/// `llvm.getelementptr` op name.
pub const GEP: &str = "llvm.getelementptr";
/// `llvm.load` op name.
pub const LOAD: &str = "llvm.load";
/// `llvm.store` op name.
pub const STORE: &str = "llvm.store";
/// `llvm.mlir.constant` op name.
pub const CONSTANT: &str = "llvm.mlir.constant";
/// `llvm.extractvalue` op name.
pub const EXTRACTVALUE: &str = "llvm.extractvalue";
/// `llvm.insertvalue` op name.
pub const INSERTVALUE: &str = "llvm.insertvalue";
/// `llvm.mlir.undef` op name.
pub const UNDEF: &str = "llvm.mlir.undef";

/// The stream-depth intrinsic recognised by the AMD Xilinx HLS backend.
pub const SET_STREAM_DEPTH: &str = "llvm.fpga.set.stream.depth";

/// Prefix for the void marker functions that encode HLS directives in the
/// generated LLVM-IR (consumed by the `fpp` pass).
pub const MARKER_PREFIX: &str = "_shmls_";

/// Build an `llvm.call` to `callee`.
pub fn call(b: &mut OpBuilder<'_>, callee: &str, args: Vec<ValueId>, results: Vec<Type>) -> OpId {
    let attrs = [("callee".to_string(), Attribute::symbol(callee))];
    b.build_with_attrs(CALL, args, results, attrs)
}

/// Build an `llvm.alloca` of one `pointee` element, returning the pointer.
pub fn alloca(b: &mut OpBuilder<'_>, pointee: Type) -> ValueId {
    b.build_value(ALLOCA, vec![], Type::llvm_ptr(pointee))
}

/// Build a constant-index `llvm.getelementptr`.
pub fn gep(b: &mut OpBuilder<'_>, ptr: ValueId, indices: &[i64], result: Type) -> ValueId {
    let attrs = [(
        "indices".to_string(),
        Attribute::IndexArray(indices.to_vec()),
    )];
    let op = b.build_with_attrs(GEP, vec![ptr], vec![result], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build an `llvm.load` through `ptr`.
pub fn load(b: &mut OpBuilder<'_>, ptr: ValueId) -> ValueId {
    let pointee = match b.ctx_ref().value_type(ptr) {
        Type::LlvmPtr(p) => p.as_ref().clone(),
        other => panic!("llvm.load through non-pointer {other}"),
    };
    b.build_value(LOAD, vec![ptr], pointee)
}

/// Build an `llvm.store` of `value` through `ptr`.
pub fn store(b: &mut OpBuilder<'_>, value: ValueId, ptr: ValueId) -> OpId {
    b.build(STORE, vec![value, ptr], vec![])
}

/// Build an `llvm.extractvalue` at `position`.
pub fn extractvalue(
    b: &mut OpBuilder<'_>,
    agg: ValueId,
    position: &[i64],
    result: Type,
) -> ValueId {
    let attrs = [(
        "position".to_string(),
        Attribute::IndexArray(position.to_vec()),
    )];
    let op = b.build_with_attrs(EXTRACTVALUE, vec![agg], vec![result], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build an `llvm.insertvalue` at `position`.
pub fn insertvalue(
    b: &mut OpBuilder<'_>,
    agg: ValueId,
    value: ValueId,
    position: &[i64],
) -> ValueId {
    let ty = b.ctx_ref().value_type(agg).clone();
    let attrs = [(
        "position".to_string(),
        Attribute::IndexArray(position.to_vec()),
    )];
    let op = b.build_with_attrs(INSERTVALUE, vec![agg, value], vec![ty], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build an `llvm.mlir.undef` of `ty`.
pub fn undef(b: &mut OpBuilder<'_>, ty: Type) -> ValueId {
    b.build_value(UNDEF, vec![], ty)
}

/// The callee of an `llvm.call`.
pub fn callee(ctx: &Context, op: OpId) -> Option<&str> {
    ctx.attr(op, "callee").and_then(Attribute::as_str)
}

/// True when `op` is a marker call (`llvm.call` to a `_shmls_*` function).
pub fn is_marker_call(ctx: &Context, op: OpId) -> bool {
    ctx.op_name(op) == CALL && callee(ctx, op).is_some_and(|c| c.starts_with(MARKER_PREFIX))
}

/// Verifier rules for the llvm dialect subset.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(CALL, |ctx, op| {
        ir_ensure!(callee(ctx, op).is_some(), "llvm.call needs a callee symbol");
        Ok(())
    });
    v.register(GEP, |ctx, op| {
        shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
        ir_ensure!(
            ctx.attr(op, "indices")
                .and_then(Attribute::as_index_array)
                .is_some(),
            "llvm.getelementptr needs an indices attribute"
        );
        ir_ensure!(
            matches!(ctx.value_type(ctx.operands(op)[0]), Type::LlvmPtr(_)),
            "llvm.getelementptr operand must be a pointer"
        );
        Ok(())
    });
    v.register(LOAD, |ctx, op| {
        shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
        let ty = ctx.value_type(ctx.operands(op)[0]);
        let Type::LlvmPtr(pointee) = ty else {
            shmls_ir::ir_bail!("llvm.load operand must be a pointer, got {ty}");
        };
        ir_ensure!(
            ctx.value_type(ctx.result(op, 0)) == pointee.as_ref(),
            "llvm.load result must match pointee type"
        );
        Ok(())
    });
    v.register(STORE, |ctx, op| {
        shmls_ir::verifier::expect_counts(ctx, op, 2, 0)?;
        let ty = ctx.value_type(ctx.operands(op)[1]);
        let Type::LlvmPtr(pointee) = ty else {
            shmls_ir::ir_bail!("llvm.store target must be a pointer, got {ty}");
        };
        ir_ensure!(
            ctx.value_type(ctx.operands(op)[0]) == pointee.as_ref(),
            "llvm.store value must match pointee type"
        );
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::create_module;
    use shmls_ir::verifier::{verify_with, OpVerifiers};

    fn verifiers() -> OpVerifiers {
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        v
    }

    #[test]
    fn stream_legalisation_shape() {
        // The two legality conditions of §3.2: ptr-to-struct stream type and
        // a set.stream.depth intrinsic on the first element (gep [0,0]).
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let s = alloca(&mut b, Type::LlvmStruct(vec![Type::F64]));
        let first = gep(&mut b, s, &[0, 0], Type::llvm_ptr(Type::F64));
        call(&mut b, SET_STREAM_DEPTH, vec![first], vec![]);
        verify_with(&ctx, module, &verifiers()).unwrap();
        let stream_ty = ctx.value_type(s).to_string();
        assert_eq!(stream_ty, "!llvm.ptr<!llvm.struct<(f64)>>");
    }

    #[test]
    fn marker_call_detection() {
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let m = call(&mut b, "_shmls_pipeline_ii_1", vec![], vec![]);
        let n = call(&mut b, "load_data", vec![], vec![]);
        assert!(is_marker_call(&ctx, m));
        assert!(!is_marker_call(&ctx, n));
    }

    #[test]
    fn load_store_types_enforced() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let p = alloca(&mut b, Type::F64);
        let v = load(&mut b, p);
        store(&mut b, v, p);
        verify_with(&ctx, module, &verifiers()).unwrap();
        // Mismatched store.
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let i = crate::arith::constant_index(&mut b, 0);
        b.build(STORE, vec![i, p], vec![]);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("must match pointee"), "{e}");
    }

    #[test]
    fn insert_extract_round_trip_types() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let packed = Type::LlvmStruct(vec![Type::llvm_array(8, Type::F64)]);
        let u = undef(&mut b, packed.clone());
        let x = crate::arith::constant_f64(&mut b, 1.0);
        let filled = insertvalue(&mut b, u, x, &[0, 3]);
        let back = extractvalue(&mut b, filled, &[0, 3], Type::F64);
        assert_eq!(ctx.value_type(filled), &packed);
        assert_eq!(ctx.value_type(back), &Type::F64);
        verify_with(&ctx, module, &verifiers()).unwrap();
    }
}
