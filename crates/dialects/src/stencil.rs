//! `stencil` dialect: the high-level stencil IR the paper's transformations
//! consume (a faithful subset of the open MLIR/xDSL stencil dialect).
//!
//! Op vocabulary (cf. Listing 1 of the paper):
//!
//! - `stencil.external_load(%ptr) -> !stencil.field<…>` — bind an external
//!   buffer to a stencil field.
//! - `stencil.load(%field) -> !stencil.temp<…>` — make a field readable in
//!   value semantics.
//! - `stencil.apply(%temps…) -> !stencil.temp<…>` — the per-point stencil
//!   computation; its region receives the operands as block arguments and
//!   terminates with `stencil.return`.
//! - `stencil.access(%temp) {offset = <[…]>}` — read a neighbouring value.
//! - `stencil.index {dim}` — the current grid index along `dim`.
//! - `stencil.store(%temp, %field) {bounds = <[lb…, ub…]>}` — write results.
//! - `stencil.external_store(%field, %ptr)` — flush a field to the external
//!   buffer.

use shmls_ir::ir_ensure;
use shmls_ir::prelude::*;
use shmls_ir::verifier::check_terminator;

/// `stencil.external_load` op name.
pub const EXTERNAL_LOAD: &str = "stencil.external_load";
/// `stencil.load` op name.
pub const LOAD: &str = "stencil.load";
/// `stencil.apply` op name.
pub const APPLY: &str = "stencil.apply";
/// `stencil.access` op name.
pub const ACCESS: &str = "stencil.access";
/// `stencil.index` op name.
pub const INDEX: &str = "stencil.index";
/// `stencil.return` op name.
pub const RETURN: &str = "stencil.return";
/// `stencil.store` op name.
pub const STORE: &str = "stencil.store";
/// `stencil.external_store` op name.
pub const EXTERNAL_STORE: &str = "stencil.external_store";

/// Build `stencil.external_load`.
pub fn external_load(b: &mut OpBuilder<'_>, ptr: ValueId, field_ty: Type) -> ValueId {
    b.build_value(EXTERNAL_LOAD, vec![ptr], field_ty)
}

/// Build `stencil.load`, deriving the temp type from the field type.
pub fn load(b: &mut OpBuilder<'_>, field: ValueId) -> ValueId {
    let ty = b.ctx_ref().value_type(field).clone();
    let Type::StencilField { bounds, elem } = ty else {
        panic!("stencil.load on non-field type {ty}");
    };
    b.build_value(LOAD, vec![field], Type::StencilTemp { bounds, elem })
}

/// Build `stencil.apply` over `inputs`, producing temps with `result_types`.
/// Returns `(op, region_block)`; the block receives one argument per input
/// with the same type.
pub fn apply(
    b: &mut OpBuilder<'_>,
    inputs: Vec<ValueId>,
    result_types: Vec<Type>,
) -> (OpId, BlockId) {
    let arg_types: Vec<Type> = inputs
        .iter()
        .map(|&v| b.ctx_ref().value_type(v).clone())
        .collect();
    b.build_with_region(APPLY, inputs, result_types, [], arg_types)
}

/// Build `stencil.access` at a relative `offset`.
pub fn access(b: &mut OpBuilder<'_>, temp: ValueId, offset: &[i64]) -> ValueId {
    let elem = b
        .ctx_ref()
        .value_type(temp)
        .element_type()
        .expect("stencil.access on non-temp")
        .clone();
    let attrs = [("offset".to_string(), Attribute::IndexArray(offset.to_vec()))];
    let op = b.build_with_attrs(ACCESS, vec![temp], vec![elem], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build `stencil.index` for dimension `dim`.
pub fn index(b: &mut OpBuilder<'_>, dim: i64) -> ValueId {
    let attrs = [("dim".to_string(), Attribute::int(dim))];
    let op = b.build_with_attrs(INDEX, vec![], vec![Type::Index], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build the `stencil.return` terminator.
pub fn return_op(b: &mut OpBuilder<'_>, values: Vec<ValueId>) -> OpId {
    b.build(RETURN, values, vec![])
}

/// Build `stencil.store` writing `temp` into `field` over `[lb, ub)`.
pub fn store(b: &mut OpBuilder<'_>, temp: ValueId, field: ValueId, lb: &[i64], ub: &[i64]) -> OpId {
    let mut flat = lb.to_vec();
    flat.extend_from_slice(ub);
    let attrs = [("bounds".to_string(), Attribute::IndexArray(flat))];
    b.build_with_attrs(STORE, vec![temp, field], vec![], attrs)
}

/// Build `stencil.external_store`.
pub fn external_store(b: &mut OpBuilder<'_>, field: ValueId, ptr: ValueId) -> OpId {
    b.build(EXTERNAL_STORE, vec![field, ptr], vec![])
}

/// The `offset` of a `stencil.access`.
pub fn access_offset(ctx: &Context, op: OpId) -> Option<&[i64]> {
    ctx.attr(op, "offset").and_then(Attribute::as_index_array)
}

/// The `(lb, ub)` of a `stencil.store`.
pub fn store_bounds(ctx: &Context, op: OpId) -> Option<(Vec<i64>, Vec<i64>)> {
    let flat = ctx.attr(op, "bounds")?.as_index_array()?;
    shmls_ir::interp::split_bounds(flat).ok()
}

/// Verifier rules for the stencil dialect.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(APPLY, |ctx, op| {
        ir_ensure!(
            !ctx.results(op).is_empty(),
            "stencil.apply must produce results"
        );
        for &r in ctx.results(op) {
            ir_ensure!(
                matches!(ctx.value_type(r), Type::StencilTemp { .. }),
                "stencil.apply results must be !stencil.temp, got {}",
                ctx.value_type(r)
            );
        }
        let block = ctx
            .entry_block(op)
            .ok_or_else(|| shmls_ir::ir_error!("stencil.apply needs a region"))?;
        ir_ensure!(
            ctx.block_args(block).len() == ctx.operands(op).len(),
            "stencil.apply region must take one argument per operand"
        );
        for (i, (&a, &o)) in ctx
            .block_args(block)
            .iter()
            .zip(ctx.operands(op))
            .enumerate()
        {
            ir_ensure!(
                ctx.value_type(a) == ctx.value_type(o),
                "stencil.apply region arg {i} type mismatch"
            );
        }
        check_terminator(ctx, op, RETURN)?;
        let term = ctx.terminator(block).expect("checked");
        ir_ensure!(
            ctx.operands(term).len() == ctx.results(op).len(),
            "stencil.return must yield one value per stencil.apply result"
        );
        Ok(())
    });
    v.register(ACCESS, |ctx, op| {
        shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
        let offset = access_offset(ctx, op)
            .ok_or_else(|| shmls_ir::ir_error!("stencil.access needs an offset attribute"))?;
        let ty = ctx.value_type(ctx.operands(op)[0]);
        let Some(bounds) = ty.stencil_bounds() else {
            shmls_ir::ir_bail!("stencil.access operand must be a stencil temp, got {ty}");
        };
        ir_ensure!(
            offset.len() == bounds.rank(),
            "stencil.access offset rank {} does not match temp rank {}",
            offset.len(),
            bounds.rank()
        );
        Ok(())
    });
    v.register(LOAD, |ctx, op| {
        shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
        let in_ty = ctx.value_type(ctx.operands(op)[0]);
        ir_ensure!(
            matches!(in_ty, Type::StencilField { .. }),
            "stencil.load operand must be a field, got {in_ty}"
        );
        let out_ty = ctx.value_type(ctx.result(op, 0));
        ir_ensure!(
            matches!(out_ty, Type::StencilTemp { .. }),
            "stencil.load result must be a temp, got {out_ty}"
        );
        Ok(())
    });
    v.register(STORE, |ctx, op| {
        ir_ensure!(
            ctx.operands(op).len() == 2,
            "stencil.store takes temp and field"
        );
        let (lb, ub) = store_bounds(ctx, op)
            .ok_or_else(|| shmls_ir::ir_error!("stencil.store needs a bounds attribute"))?;
        let field_ty = ctx.value_type(ctx.operands(op)[1]);
        let Some(field_bounds) = field_ty.stencil_bounds() else {
            shmls_ir::ir_bail!("stencil.store target must be a field, got {field_ty}");
        };
        ir_ensure!(
            lb.len() == field_bounds.rank(),
            "stencil.store bounds rank mismatch"
        );
        for d in 0..lb.len() {
            ir_ensure!(
                lb[d] >= field_bounds.lb[d] && ub[d] <= field_bounds.ub[d],
                "stencil.store bounds [{},{}) exceed field bounds [{},{}) in dim {d}",
                lb[d],
                ub[d],
                field_bounds.lb[d],
                field_bounds.ub[d]
            );
        }
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

    fn field_ty(halo: i64, n: i64) -> Type {
        Type::stencil_field(StencilBounds::new(vec![-halo], vec![n + halo]), Type::F64)
    }

    /// Build the paper's Listing-1 example: out[i] = in[i-1] + in[i+1].
    fn build_listing1(ctx: &mut Context) -> OpId {
        let (module, body) = create_module(ctx);
        let fty = field_ty(1, 64);
        let (_f, entry) =
            crate::func::create_func(ctx, body, "kernel", vec![fty.clone(), fty.clone()], vec![]);
        let fin = ctx.block_args(entry)[0];
        let fout = ctx.block_args(entry)[1];
        let mut b = OpBuilder::at_block_end(ctx, entry);
        let t = load(&mut b, fin);
        let out_ty = Type::stencil_temp(StencilBounds::new(vec![0], vec![64]), Type::F64);
        let (apply_op, ab) = apply(&mut b, vec![t], vec![out_ty]);
        let arg = ctx.block_args(ab)[0];
        let mut ib = OpBuilder::at_block_end(ctx, ab);
        let l = access(&mut ib, arg, &[-1]);
        let r = access(&mut ib, arg, &[1]);
        let s = crate::arith::addf(&mut ib, l, r);
        return_op(&mut ib, vec![s]);
        let res = ctx.result(apply_op, 0);
        let mut b = OpBuilder::at_block_end(ctx, entry);
        store(&mut b, res, fout, &[0], &[64]);
        crate::func::ret(&mut b, vec![]);
        module
    }

    #[test]
    fn listing1_verifies() {
        let mut ctx = Context::new();
        let module = build_listing1(&mut ctx);
        let mut v = verifiers();
        crate::func::register_verifiers(&mut v);
        verify_with(&ctx, module, &v).unwrap();
    }

    #[test]
    fn access_rank_mismatch_rejected() {
        let mut ctx = Context::new();
        let module = build_listing1(&mut ctx);
        let a = ctx.find_ops(module, ACCESS)[0];
        ctx.set_attr(a, "offset", Attribute::IndexArray(vec![-1, 0]));
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("offset rank"), "{e}");
    }

    #[test]
    fn store_out_of_field_bounds_rejected() {
        let mut ctx = Context::new();
        let module = build_listing1(&mut ctx);
        let s = ctx.find_ops(module, STORE)[0];
        ctx.set_attr(s, "bounds", Attribute::IndexArray(vec![0, 99]));
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("exceed field bounds"), "{e}");
    }

    #[test]
    fn apply_return_arity_enforced() {
        let mut ctx = Context::new();
        let module = build_listing1(&mut ctx);
        let apply_op = ctx.find_ops(module, APPLY)[0];
        let block = ctx.entry_block(apply_op).unwrap();
        let term = ctx.terminator(block).unwrap();
        // Drop the returned value.
        ctx.clear_operands(term);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("one value per"), "{e}");
    }
}

#[cfg(test)]
mod review_regressions {
    use super::*;
    use crate::builtin::create_module;
    use shmls_ir::verifier::{verify_with, OpVerifiers};

    /// Malformed ops (wrong counts) must be *rejected* by verification,
    /// not crash it.
    #[test]
    fn zero_operand_access_is_verifier_error() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let op = b.build(ACCESS, vec![], vec![Type::F64]);
        ctx.set_attr(op, "offset", Attribute::IndexArray(vec![0]));
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        let e = verify_with(&ctx, module, &v).unwrap_err();
        assert!(e.to_string().contains("expected 1 operand"), "{e}");
    }
}
