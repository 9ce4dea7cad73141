//! `func` dialect: functions, calls and returns.

use shmls_ir::ir_ensure;
use shmls_ir::prelude::*;
use shmls_ir::verifier::check_terminator;

/// `func.func` op name.
pub const FUNC: &str = "func.func";
/// `func.return` op name.
pub const RETURN: &str = "func.return";
/// `func.call` op name.
pub const CALL: &str = "func.call";

/// Create a `func.func` named `name` with the given signature appended to
/// `block`, returning `(func_op, entry_block)`. The entry block's arguments
/// carry the input types; the body must end with `func.return`.
pub fn create_func(
    ctx: &mut Context,
    block: BlockId,
    name: &str,
    inputs: Vec<Type>,
    results: Vec<Type>,
) -> (OpId, BlockId) {
    let f = ctx.create_op(FUNC, vec![], vec![], []);
    ctx.set_attr(f, "sym_name", Attribute::string(name));
    ctx.set_attr(
        f,
        "function_type",
        Attribute::TypeAttr(Type::function(inputs.clone(), results)),
    );
    let region = ctx.add_region(f);
    let entry = ctx.add_block(region, inputs);
    ctx.append_op(block, f);
    (f, entry)
}

/// Build a `func.call` to `callee` with `args`, returning the op.
pub fn call(b: &mut OpBuilder<'_>, callee: &str, args: Vec<ValueId>, results: Vec<Type>) -> OpId {
    let attrs = [("callee".to_string(), Attribute::symbol(callee))];
    b.build_with_attrs(CALL, args, results, attrs)
}

/// Build a `func.return`.
pub fn ret(b: &mut OpBuilder<'_>, values: Vec<ValueId>) -> OpId {
    b.build(RETURN, values, vec![])
}

/// The `sym_name` of a `func.func`.
pub fn func_name(ctx: &Context, f: OpId) -> Option<&str> {
    ctx.attr(f, "sym_name").and_then(Attribute::as_str)
}

/// The callee symbol of a `func.call`.
pub fn callee(ctx: &Context, call: OpId) -> Option<&str> {
    ctx.attr(call, "callee").and_then(Attribute::as_str)
}

/// The declared function type of a `func.func`.
pub fn function_type(ctx: &Context, f: OpId) -> Option<&Type> {
    ctx.attr(f, "function_type").and_then(Attribute::as_type)
}

/// Look up a `func.func` by name under `root`.
pub fn lookup(ctx: &Context, root: OpId, name: &str) -> Option<OpId> {
    ctx.find_ops(root, FUNC)
        .into_iter()
        .find(|&f| func_name(ctx, f) == Some(name))
}

/// Verifier rules for the func dialect.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(FUNC, |ctx, op| {
        ir_ensure!(
            ctx.attr(op, "sym_name")
                .and_then(Attribute::as_str)
                .is_some(),
            "func.func needs a sym_name string attribute"
        );
        let Some(Type::Function { inputs, .. }) = function_type(ctx, op) else {
            shmls_ir::ir_bail!("func.func needs a function_type attribute");
        };
        let entry = ctx
            .entry_block(op)
            .ok_or_else(|| shmls_ir::ir_error!("func.func needs a body block"))?;
        let args = ctx.block_args(entry);
        ir_ensure!(
            args.len() == inputs.len(),
            "entry block has {} args but function_type has {} inputs",
            args.len(),
            inputs.len()
        );
        for (i, (&a, t)) in args.iter().zip(inputs).enumerate() {
            ir_ensure!(
                ctx.value_type(a) == t,
                "entry arg {i} has type {} but function_type says {t}",
                ctx.value_type(a)
            );
        }
        check_terminator(ctx, op, RETURN)
    });
    v.register(CALL, |ctx, op| {
        ir_ensure!(
            callee(ctx, op).is_some(),
            "func.call needs a callee symbol attribute"
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
    fn well_formed_function() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let (f, entry) = create_func(&mut ctx, body, "main", vec![Type::F64], vec![Type::F64]);
        let arg = ctx.block_args(entry)[0];
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        ret(&mut b, vec![arg]);
        verify_with(&ctx, module, &verifiers()).unwrap();
        assert_eq!(func_name(&ctx, f), Some("main"));
        assert_eq!(lookup(&ctx, module, "main"), Some(f));
        assert_eq!(lookup(&ctx, module, "nope"), None);
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        create_func(&mut ctx, body, "main", vec![], vec![]);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("func.return"), "{e}");
    }

    #[test]
    fn arg_type_mismatch_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let (f, entry) = create_func(&mut ctx, body, "main", vec![Type::F64], vec![]);
        // Corrupt the declared type.
        ctx.set_attr(
            f,
            "function_type",
            Attribute::TypeAttr(Type::function(vec![Type::I64], vec![])),
        );
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        ret(&mut b, vec![]);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("entry arg 0"), "{e}");
    }

    #[test]
    fn call_builder_sets_callee() {
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let (_f, entry) = create_func(&mut ctx, body, "main", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let c = call(&mut b, "load_data", vec![], vec![]);
        ret(&mut b, vec![]);
        assert_eq!(callee(&ctx, c), Some("load_data"));
    }
}
