//! IR verification: structural invariants plus per-op dialect rules.
//!
//! Structural checks (always on):
//! - every operand refers to a live value and the use-lists agree,
//! - SSA dominance in the structured-control-flow sense: a use sees values
//!   defined earlier in its own block or in any enclosing region's scope,
//! - parent links (op→block→region→op) are mutually consistent.
//!
//! Dialect rules are registered per op name in an [`OpVerifiers`] registry by
//! the `shmls-dialects` crate (e.g. "`stencil.apply`'s terminator must be
//! `stencil.return`").

use std::collections::{HashMap, HashSet};

use crate::error::IrResult;
use crate::ir::{Context, OpId, ValueId};
use crate::{ir_bail, ir_ensure};

/// A per-op verification rule.
pub type OpVerifier = fn(&Context, OpId) -> IrResult<()>;

/// Registry mapping op names to dialect verification rules.
#[derive(Default)]
pub struct OpVerifiers {
    rules: HashMap<String, Vec<OpVerifier>>,
}

impl OpVerifiers {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a rule for `op_name`.
    pub fn register(&mut self, op_name: &str, rule: OpVerifier) {
        self.rules
            .entry(op_name.to_string())
            .or_default()
            .push(rule);
    }

    /// All rules for `op_name`.
    pub fn rules_for(&self, op_name: &str) -> &[OpVerifier] {
        self.rules.get(op_name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of registered op names.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Verify `root` and everything nested in it with structural checks only.
pub fn verify(ctx: &Context, root: OpId) -> IrResult<()> {
    verify_with(ctx, root, &OpVerifiers::default())
}

/// Verify `root` with structural checks plus the given dialect rules.
pub fn verify_with(ctx: &Context, root: OpId, verifiers: &OpVerifiers) -> IrResult<()> {
    let mut scope: HashSet<ValueId> = HashSet::new();
    verify_op(ctx, root, &mut scope, verifiers)
}

fn verify_op(
    ctx: &Context,
    op: OpId,
    scope: &mut HashSet<ValueId>,
    verifiers: &OpVerifiers,
) -> IrResult<()> {
    let name = ctx.op_name(op);
    // Operands must be visible here.
    for (i, &operand) in ctx.operands(op).iter().enumerate() {
        ir_ensure!(
            scope.contains(&operand),
            "op `{name}`: operand {i} does not dominate its use"
        );
        // Use-list consistency.
        let uses = ctx.value_uses(operand);
        ir_ensure!(
            uses.iter().any(|u| u.op == op && u.operand_index == i),
            "op `{name}`: use-list of operand {i} is out of sync"
        );
    }
    // Regions: each opens a child scope seeded with the current one.
    for &region in ctx.regions(op) {
        ir_ensure!(
            ctx.region_parent(region) == Some(op),
            "op `{name}`: region parent link broken"
        );
        let mut added: Vec<ValueId> = Vec::new();
        for &block in ctx.region_blocks(region) {
            ir_ensure!(
                ctx.block_parent(block) == Some(region),
                "op `{name}`: block parent link broken"
            );
            for &arg in ctx.block_args(block) {
                if scope.insert(arg) {
                    added.push(arg);
                }
            }
            for &inner in ctx.block_ops(block) {
                ir_ensure!(
                    ctx.parent_block(inner) == Some(block),
                    "op `{}`: op parent link broken",
                    ctx.op_name(inner)
                );
                verify_op(ctx, inner, scope, verifiers)?;
                for &r in ctx.results(inner) {
                    if scope.insert(r) {
                        added.push(r);
                    }
                }
            }
        }
        for v in added {
            scope.remove(&v);
        }
    }
    // Dialect rules last, so they can assume structure is sound.
    for rule in verifiers.rules_for(name) {
        rule(ctx, op).map_err(|e| e.context(format!("op `{name}`")))?;
    }
    Ok(())
}

/// Check exact operand/result counts — call first in a dialect rule so
/// later indexing (`operands(op)[i]`, `result(op, i)`) cannot panic on
/// malformed IR.
pub fn expect_counts(ctx: &Context, op: OpId, operands: usize, results: usize) -> IrResult<()> {
    ir_ensure!(
        ctx.operands(op).len() == operands,
        "expected {operands} operand(s), found {}",
        ctx.operands(op).len()
    );
    ir_ensure!(
        ctx.results(op).len() == results,
        "expected {results} result(s), found {}",
        ctx.results(op).len()
    );
    Ok(())
}

/// Verify that `block`'s last op is named `expected` — a helper shared by
/// many dialect rules ("region must terminate with X").
pub fn check_terminator(ctx: &Context, op: OpId, expected: &str) -> IrResult<()> {
    let Some(block) = ctx.entry_block(op) else {
        ir_bail!("expected a region with one block");
    };
    match ctx.terminator(block) {
        Some(t) if ctx.op_name(t) == expected => Ok(()),
        Some(t) => ir_bail!(
            "expected terminator `{expected}`, found `{}`",
            ctx.op_name(t)
        ),
        None => ir_bail!("empty block, expected terminator `{expected}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;
    use std::collections::BTreeMap;

    fn module(ctx: &mut Context) -> (OpId, crate::ir::BlockId) {
        let m = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
        let r = ctx.add_region(m);
        let b = ctx.add_block(r, vec![]);
        (m, b)
    }

    #[test]
    fn valid_ir_verifies() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let c = b.build_value("test.c", vec![], Type::F64);
        b.build("test.use", vec![c], vec![]);
        verify(&ctx, m).unwrap();
    }

    #[test]
    fn use_before_def_fails() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let c = b.build_value("test.c", vec![], Type::F64);
        let user = ctx.create_op("test.use", vec![c], vec![], BTreeMap::new());
        // Insert the user *before* the def.
        ctx.insert_op(block, 0, user);
        let e = verify(&ctx, m).unwrap_err();
        assert!(e.to_string().contains("dominate"), "{e}");
    }

    #[test]
    fn inner_region_sees_outer_values() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let c = b.build_value("test.c", vec![], Type::F64);
        let (_for_op, body) = b.build_with_region(
            "scf.for",
            vec![],
            vec![],
            BTreeMap::new(),
            vec![Type::Index],
        );
        let mut inner = OpBuilder::at_block_end(&mut ctx, body);
        inner.build("test.use", vec![c], vec![]);
        verify(&ctx, m).unwrap();
    }

    #[test]
    fn sibling_region_values_not_visible() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let (_op1, body1) = b.build_with_region("test.r1", vec![], vec![], BTreeMap::new(), vec![]);
        let mut inner1 = OpBuilder::at_block_end(&mut ctx, body1);
        let v = inner1.build_value("test.c", vec![], Type::F64);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let (_op2, body2) = b.build_with_region("test.r2", vec![], vec![], BTreeMap::new(), vec![]);
        let mut inner2 = OpBuilder::at_block_end(&mut ctx, body2);
        inner2.build("test.use", vec![v], vec![]);
        let e = verify(&ctx, m).unwrap_err();
        assert!(e.to_string().contains("dominate"), "{e}");
    }

    #[test]
    fn dialect_rule_runs() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        b.build("test.needs_attr", vec![], vec![]);
        let mut reg = OpVerifiers::new();
        reg.register("test.needs_attr", |ctx, op| {
            ir_ensure!(ctx.attr(op, "x").is_some(), "missing attribute `x`");
            Ok(())
        });
        let e = verify_with(&ctx, m, &reg).unwrap_err();
        assert!(e.to_string().contains("missing attribute `x`"), "{e}");
    }

    #[test]
    fn check_terminator_helper() {
        let mut ctx = Context::new();
        let (_, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let (op, body) = b.build_with_region("test.loop", vec![], vec![], BTreeMap::new(), vec![]);
        assert!(check_terminator(&ctx, op, "test.yield").is_err());
        let mut inner = OpBuilder::at_block_end(&mut ctx, body);
        inner.build("test.yield", vec![], vec![]);
        check_terminator(&ctx, op, "test.yield").unwrap();
    }
}
