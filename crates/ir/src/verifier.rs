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

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::error::IrResult;
use crate::ir::{Context, IdHasher, OpId, ValueId};
use crate::{ir_bail, ir_ensure};

/// A per-op verification rule.
pub type OpVerifier = fn(&Context, OpId) -> IrResult<()>;

/// Registry mapping op names to dialect verification rules.
#[derive(Default)]
pub struct OpVerifiers {
    /// Keyed by names the dialect crates register, never by input from
    /// outside, so the lookup every verified op makes skips SipHash.
    rules: HashMap<String, Vec<OpVerifier>, BuildHasherDefault<IdHasher>>,
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
    let mut scope = Scope {
        generation: vec![None; ctx.value_slots()],
        entered: Vec::new(),
    };
    verify_op(ctx, root, &mut scope, verifiers)
}

/// The values visible at the op being verified: a table over the value
/// arena's slots, each holding the generation of the value in scope there.
/// An id whose slot has since been freed and reused carries an older
/// generation, so it is out of scope exactly as it was out of a set of ids.
struct Scope {
    generation: Vec<Option<u32>>,
    /// The values in scope, in the order they entered: a region leaves by
    /// truncating to its mark.
    entered: Vec<ValueId>,
}

impl Scope {
    fn contains(&self, value: ValueId) -> bool {
        let (index, generation) = value.slot();
        self.generation.get(index) == Some(&Some(generation))
    }

    /// Bring `value` into scope; a value already in it stays as it was.
    fn enter(&mut self, value: ValueId) {
        let (index, generation) = value.slot();
        let slot = &mut self.generation[index];
        if *slot != Some(generation) {
            *slot = Some(generation);
            self.entered.push(value);
        }
    }

    /// Take every value that entered after `mark` out of scope again.
    fn leave(&mut self, mark: usize) {
        for value in self.entered.drain(mark..) {
            self.generation[value.slot().0] = None;
        }
    }
}

fn verify_op(ctx: &Context, op: OpId, scope: &mut Scope, verifiers: &OpVerifiers) -> IrResult<()> {
    let data = ctx.op_data(op);
    let name = data.name.as_str();
    // Operands must be visible here.
    for (i, &operand) in data.operands.iter().enumerate() {
        ir_ensure!(
            scope.contains(operand),
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
    for &region in &data.regions {
        ir_ensure!(
            ctx.region_parent(region) == Some(op),
            "op `{name}`: region parent link broken"
        );
        let mark = scope.entered.len();
        for &block in ctx.region_blocks(region) {
            let block_data = ctx.block_data(block);
            ir_ensure!(
                block_data.parent == Some(region),
                "op `{name}`: block parent link broken"
            );
            for &arg in &block_data.args {
                scope.enter(arg);
            }
            for &inner in &block_data.ops {
                let inner_data = ctx.op_data(inner);
                ir_ensure!(
                    inner_data.parent == Some(block),
                    "op `{}`: op parent link broken",
                    inner_data.name
                );
                verify_op(ctx, inner, scope, verifiers)?;
                for &r in &inner_data.results {
                    scope.enter(r);
                }
            }
        }
        scope.leave(mark);
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
    use crate::attributes::Attribute;
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

    /// One slot of the corruption table's module, each op named with the
    /// slot's index `s`:
    ///
    /// ```text
    /// test.slot{s} {
    ///   %d = test.def{s}
    ///   test.use{s}(%d)
    ///   test.hold_a{s} { %i = test.inner_def{s} }
    ///   test.hold_b{s} { test.inner_use{s}(%d) }
    /// }
    /// ```
    struct Slot {
        slot: OpId,
        body: crate::ir::BlockId,
        def: ValueId,
        user: OpId,
        hold_a: OpId,
        inner_def: OpId,
        inner_use: OpId,
    }

    /// The damage the verifier must name, one way of each.
    #[derive(Debug, Clone, Copy)]
    enum Corruption {
        UseBeforeDef,
        SiblingRegionValue,
        UseListOutOfSync,
        OpParentLink,
        BlockParentLink,
        RegionParentLink,
        DialectRule,
    }

    const CORRUPTIONS: [Corruption; 7] = [
        Corruption::UseBeforeDef,
        Corruption::SiblingRegionValue,
        Corruption::UseListOutOfSync,
        Corruption::OpParentLink,
        Corruption::BlockParentLink,
        Corruption::RegionParentLink,
        Corruption::DialectRule,
    ];

    /// A rule every `test.def{s}` and `test.slot{s}` op answers to: no
    /// `bad` attribute.
    fn no_bad_attr(ctx: &Context, op: OpId) -> IrResult<()> {
        ir_ensure!(ctx.attr(op, "bad").is_none(), "carries `bad`");
        Ok(())
    }

    fn table_rules(slots: usize) -> OpVerifiers {
        let mut reg = OpVerifiers::new();
        for s in 0..slots {
            reg.register(&format!("test.def{s}"), no_bad_attr);
            reg.register(&format!("test.slot{s}"), no_bad_attr);
        }
        reg
    }

    fn build_slot(ctx: &mut Context, module_body: crate::ir::BlockId, s: usize) -> Slot {
        let named = |what: &str| format!("test.{what}{s}");
        let mut b = OpBuilder::at_block_end(ctx, module_body);
        let (slot, body) = b.build_with_region(&named("slot"), vec![], vec![], [], vec![]);
        let mut b = OpBuilder::at_block_end(ctx, body);
        let def = b.build_value(&named("def"), vec![], Type::F64);
        let user = b.build(&named("use"), vec![def], vec![]);
        let (hold_a, a_body) = b.build_with_region(&named("hold_a"), vec![], vec![], [], vec![]);
        let (_, b_body) = b.build_with_region(&named("hold_b"), vec![], vec![], [], vec![]);
        let inner = OpBuilder::at_block_end(ctx, a_body).build_value(
            &named("inner_def"),
            vec![],
            Type::F64,
        );
        let inner_use =
            OpBuilder::at_block_end(ctx, b_body).build(&named("inner_use"), vec![def], vec![]);
        Slot {
            slot,
            body,
            def,
            user,
            hold_a,
            inner_def: ctx.defining_op(inner).expect("an op result"),
            inner_use,
        }
    }

    /// Damage slot `s` in one way; the message the verifier must give.
    fn corrupt(ctx: &mut Context, slot: &Slot, how: Corruption, s: usize) -> String {
        let hold_b = ctx.block_ops(slot.body)[3];
        match how {
            Corruption::UseBeforeDef => {
                ctx.detach_op(slot.user);
                ctx.insert_op(slot.body, 0, slot.user);
                format!("op `test.use{s}`: operand 0 does not dominate its use")
            }
            Corruption::SiblingRegionValue => {
                let inner = ctx.result(slot.inner_def, 0);
                ctx.set_operand(slot.inner_use, 0, inner);
                format!("op `test.inner_use{s}`: operand 0 does not dominate its use")
            }
            Corruption::UseListOutOfSync => {
                let user = slot.user;
                ctx.value_uses_mut(slot.def).retain(|u| u.op != user);
                format!("op `test.use{s}`: use-list of operand 0 is out of sync")
            }
            Corruption::OpParentLink => {
                ctx.op_data_mut(slot.inner_def).parent = Some(slot.body);
                format!("op `test.inner_def{s}`: op parent link broken")
            }
            Corruption::BlockParentLink => {
                let block = ctx.entry_block(slot.hold_a).expect("a body");
                let other = ctx.regions(hold_b)[0];
                ctx.block_data_mut(block).parent = Some(other);
                format!("op `test.hold_a{s}`: block parent link broken")
            }
            Corruption::RegionParentLink => {
                let region = ctx.regions(slot.hold_a)[0];
                ctx.region_data_mut(region).parent = Some(hold_b);
                format!("op `test.hold_a{s}`: region parent link broken")
            }
            Corruption::DialectRule => {
                ctx.set_attr(
                    ctx.defining_op(slot.def).expect("an op result"),
                    "bad",
                    Attribute::Unit,
                );
                format!("op `test.def{s}`: carries `bad`")
            }
        }
    }

    /// A module of `slots` clean slots.
    fn table_module(slots: usize) -> (Context, OpId, Vec<Slot>) {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let built = (0..slots).map(|s| build_slot(&mut ctx, block, s)).collect();
        (ctx, m, built)
    }

    /// Each corruption alone gives exactly its message, in either slot.
    #[test]
    fn every_corruption_gives_its_message() {
        let (ctx, m, _) = table_module(2);
        verify_with(&ctx, m, &table_rules(2)).unwrap();
        for how in CORRUPTIONS {
            for s in 0..2 {
                let (mut ctx, m, slots) = table_module(2);
                let expected = corrupt(&mut ctx, &slots[s], how, s);
                let e = verify_with(&ctx, m, &table_rules(2)).unwrap_err();
                assert_eq!(e.to_string(), expected, "{how:?} in slot {s}");
            }
        }
    }

    /// With two corruptions, the one earlier in walk order is the one
    /// reported — whatever the two kinds — and a nested op's failure comes
    /// before its enclosing op's dialect rule.
    #[test]
    fn the_first_failure_in_walk_order_wins() {
        for first in CORRUPTIONS {
            for second in CORRUPTIONS {
                let (mut ctx, m, slots) = table_module(2);
                let expected = corrupt(&mut ctx, &slots[0], first, 0);
                corrupt(&mut ctx, &slots[1], second, 1);
                let e = verify_with(&ctx, m, &table_rules(2)).unwrap_err();
                assert_eq!(e.to_string(), expected, "{first:?} then {second:?}");
            }
            let (mut ctx, m, slots) = table_module(1);
            let expected = corrupt(&mut ctx, &slots[0], first, 0);
            ctx.set_attr(slots[0].slot, "bad", Attribute::Unit);
            let e = verify_with(&ctx, m, &table_rules(1)).unwrap_err();
            assert_eq!(e.to_string(), expected, "{first:?} inside a failing op");
        }
    }

    /// An operand whose value was erased, its arena slot then reused by a
    /// new value in scope, is still out of scope: the slot's generation
    /// tells the two apart.
    #[test]
    fn a_stale_operand_in_a_reused_slot_does_not_dominate() {
        let mut ctx = Context::new();
        let (m, block) = module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let (holder, body) = b.build_with_region("test.holder", vec![], vec![], [], vec![]);
        let stale =
            OpBuilder::at_block_end(&mut ctx, body).build_value("test.def", vec![], Type::F64);
        let user = ctx.create_op("test.use", vec![stale], vec![], []);
        ctx.append_op(block, user);
        // Erasing the holder severs the use: `user` keeps a stale id.
        ctx.erase_op(holder);
        let fresh_op = ctx.create_op("test.def", vec![], vec![Type::F64], []);
        ctx.insert_op(block, 0, fresh_op);
        let (fresh, stale) = (ctx.result(fresh_op, 0).slot(), stale.slot());
        assert_eq!((fresh.0, fresh.1), (stale.0, stale.1 + 1));
        let e = verify(&ctx, m).unwrap_err();
        assert_eq!(
            e.to_string(),
            "op `test.use`: operand 0 does not dominate its use"
        );
    }
}
