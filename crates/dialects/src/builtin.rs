//! `builtin` dialect: the `builtin.module` container op.

use shmls_ir::prelude::*;

/// Op name of the module container.
pub const MODULE: &str = "builtin.module";

/// Create an empty `builtin.module` with one region and one block,
/// returning `(module_op, body_block)`.
pub fn create_module(ctx: &mut Context) -> (OpId, BlockId) {
    let module = ctx.create_op(MODULE, vec![], vec![], []);
    let region = ctx.add_region(module);
    let block = ctx.add_block(region, vec![]);
    (module, block)
}

/// The single body block of a module.
pub fn module_body(ctx: &Context, module: OpId) -> BlockId {
    ctx.entry_block(module)
        .expect("builtin.module must have a body block")
}

/// Verifier rules for the builtin dialect.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(MODULE, |ctx, op| {
        shmls_ir::ir_ensure!(ctx.operands(op).is_empty(), "module takes no operands");
        shmls_ir::ir_ensure!(ctx.results(op).is_empty(), "module has no results");
        shmls_ir::ir_ensure!(ctx.regions(op).len() == 1, "module has exactly one region");
        Ok(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_ir::verifier::{verify_with, OpVerifiers};

    #[test]
    fn create_and_verify() {
        let mut ctx = Context::new();
        let (module, block) = create_module(&mut ctx);
        assert_eq!(module_body(&ctx, module), block);
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        verify_with(&ctx, module, &v).unwrap();
    }

    #[test]
    fn module_with_results_rejected() {
        let mut ctx = Context::new();
        let module = ctx.create_op(MODULE, vec![], vec![Type::I64], []);
        ctx.add_region(module);
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        assert!(verify_with(&ctx, module, &v).is_err());
    }
}
