//! `scf` dialect: structured control flow (`for`, `if`, `yield`).

use shmls_ir::ir_ensure;
use shmls_ir::prelude::*;
use shmls_ir::verifier::check_terminator;

/// `scf.for` op name.
pub const FOR: &str = "scf.for";
/// `scf.if` op name.
pub const IF: &str = "scf.if";
/// `scf.yield` op name.
pub const YIELD: &str = "scf.yield";

/// Build an `scf.for lb..ub step` with optional loop-carried values.
/// Returns `(for_op, body_block)`; the body block's first argument is the
/// induction variable, followed by the iteration arguments.
pub fn for_loop(
    b: &mut OpBuilder<'_>,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    iter_init: Vec<ValueId>,
) -> (OpId, BlockId) {
    let result_types: Vec<Type> = iter_init
        .iter()
        .map(|&v| b.ctx_ref().value_type(v).clone())
        .collect();
    let mut block_args = vec![Type::Index];
    block_args.extend(result_types.clone());
    let mut operands = vec![lb, ub, step];
    operands.extend(iter_init);
    b.build_with_region(FOR, operands, result_types, [], block_args)
}

/// Build an `scf.yield`.
pub fn yield_op(b: &mut OpBuilder<'_>, values: Vec<ValueId>) -> OpId {
    b.build(YIELD, values, vec![])
}

/// Build an `scf.if` with then/else regions, returning
/// `(if_op, then_block, else_block)`.
pub fn if_op(
    b: &mut OpBuilder<'_>,
    cond: ValueId,
    result_types: Vec<Type>,
) -> (OpId, BlockId, BlockId) {
    let (op, then_block) = b.build_with_region(IF, vec![cond], result_types, [], vec![]);
    let else_region = b.ctx().add_region(op);
    let else_block = b.ctx().add_block(else_region, vec![]);
    (op, then_block, else_block)
}

/// The induction variable of an `scf.for`.
pub fn induction_var(ctx: &Context, for_op: OpId) -> ValueId {
    let block = ctx.entry_block(for_op).expect("scf.for has a body");
    ctx.block_args(block)[0]
}

/// `(lb, ub, step)` operands of an `scf.for`.
pub fn loop_bounds(ctx: &Context, for_op: OpId) -> (ValueId, ValueId, ValueId) {
    let ops = ctx.operands(for_op);
    (ops[0], ops[1], ops[2])
}

/// Verifier rules for the scf dialect.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(FOR, |ctx, op| {
        ir_ensure!(ctx.operands(op).len() >= 3, "scf.for takes lb, ub, step");
        let iter_count = ctx.operands(op).len() - 3;
        ir_ensure!(
            ctx.results(op).len() == iter_count,
            "scf.for with {iter_count} iter args must have {iter_count} results"
        );
        let block = ctx
            .entry_block(op)
            .ok_or_else(|| shmls_ir::ir_error!("scf.for needs a body"))?;
        ir_ensure!(
            ctx.block_args(block).len() == 1 + iter_count,
            "scf.for body must take 1 + {iter_count} arguments"
        );
        ir_ensure!(
            ctx.value_type(ctx.block_args(block)[0]) == &Type::Index,
            "scf.for induction variable must be index"
        );
        check_terminator(ctx, op, YIELD)?;
        let term = ctx.terminator(block).expect("checked");
        ir_ensure!(
            ctx.operands(term).len() == iter_count,
            "scf.yield must pass {iter_count} loop-carried values"
        );
        Ok(())
    });
    v.register(IF, |ctx, op| {
        ir_ensure!(ctx.operands(op).len() == 1, "scf.if takes one condition");
        ir_ensure!(
            ctx.value_type(ctx.operands(op)[0]) == &Type::I1,
            "scf.if condition must be i1"
        );
        let nregions = ctx.regions(op).len();
        ir_ensure!(
            nregions == 1 || nregions == 2,
            "scf.if has a then region and an optional else region"
        );
        for &region in ctx.regions(op) {
            ir_ensure!(
                !ctx.region_blocks(region).is_empty(),
                "scf.if regions must contain a block"
            );
        }
        if !ctx.results(op).is_empty() {
            ir_ensure!(nregions == 2, "scf.if with results needs both branches");
        }
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{constant_f64, constant_index};
    use crate::builtin::create_module;
    use shmls_ir::verifier::{verify_with, OpVerifiers};

    fn verifiers() -> OpVerifiers {
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        v
    }

    #[test]
    fn for_loop_shape() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let lb = constant_index(&mut b, 0);
        let ub = constant_index(&mut b, 8);
        let st = constant_index(&mut b, 1);
        let init = constant_f64(&mut b, 0.0);
        let (for_op, loop_body) = for_loop(&mut b, lb, ub, st, vec![init]);
        let acc = ctx.block_args(loop_body)[1];
        let mut ib = OpBuilder::at_block_end(&mut ctx, loop_body);
        yield_op(&mut ib, vec![acc]);
        verify_with(&ctx, module, &verifiers()).unwrap();
        assert_eq!(ctx.results(for_op).len(), 1);
        assert_eq!(ctx.value_type(induction_var(&ctx, for_op)), &Type::Index);
        let (l, u, s) = loop_bounds(&ctx, for_op);
        assert_eq!((l, u, s), (lb, ub, st));
    }

    #[test]
    fn yield_arity_mismatch_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let lb = constant_index(&mut b, 0);
        let ub = constant_index(&mut b, 8);
        let st = constant_index(&mut b, 1);
        let init = constant_f64(&mut b, 0.0);
        let (_for_op, loop_body) = for_loop(&mut b, lb, ub, st, vec![init]);
        let mut ib = OpBuilder::at_block_end(&mut ctx, loop_body);
        yield_op(&mut ib, vec![]); // wrong arity
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("loop-carried"), "{e}");
    }

    #[test]
    fn if_needs_else_for_results() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let c = b.build_value("arith.constant", vec![], Type::I1);
        let (op, then_b) = b.build_with_region(IF, vec![c], vec![Type::F64], [], vec![]);
        let mut ib = OpBuilder::at_block_end(&mut ctx, then_b);
        let v = constant_f64(&mut ib, 1.0);
        yield_op(&mut ib, vec![v]);
        let _ = op;
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("both branches"), "{e}");
    }
}
