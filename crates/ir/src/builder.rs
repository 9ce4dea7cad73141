//! Insertion-point based IR construction, mirroring MLIR's `OpBuilder`.

use crate::attributes::Attribute;
use crate::ir::{BlockId, Context, OpId, ValueId};
use crate::types::Type;

/// Where newly built ops are inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPoint {
    /// Append to the end of the block.
    BlockEnd(BlockId),
    /// Insert immediately before the given op.
    Before(OpId),
    /// Insert immediately after the given op.
    After(OpId),
}

/// A builder that creates operations at a movable insertion point.
///
/// The builder borrows the [`Context`] mutably for its lifetime; transforms
/// typically create short-lived builders scoped to one rewrite.
pub struct OpBuilder<'c> {
    ctx: &'c mut Context,
    ip: InsertPoint,
}

impl<'c> OpBuilder<'c> {
    /// A builder appending at the end of `block`.
    pub fn at_block_end(ctx: &'c mut Context, block: BlockId) -> Self {
        Self {
            ctx,
            ip: InsertPoint::BlockEnd(block),
        }
    }

    /// A builder inserting before `op`.
    pub fn before(ctx: &'c mut Context, op: OpId) -> Self {
        Self {
            ctx,
            ip: InsertPoint::Before(op),
        }
    }

    /// A builder inserting after `op`.
    pub fn after(ctx: &'c mut Context, op: OpId) -> Self {
        Self {
            ctx,
            ip: InsertPoint::After(op),
        }
    }

    /// Access the underlying context.
    pub fn ctx(&mut self) -> &mut Context {
        self.ctx
    }

    /// Access the underlying context immutably.
    pub fn ctx_ref(&self) -> &Context {
        self.ctx
    }

    /// Build an op with no attributes.
    pub fn build(&mut self, name: &str, operands: Vec<ValueId>, result_types: Vec<Type>) -> OpId {
        self.build_with_attrs(name, operands, result_types, [])
    }

    /// Build an op with attributes and insert it at the insertion point.
    /// After insertion the point advances so subsequent ops follow this one.
    pub fn build_with_attrs(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: impl IntoIterator<Item = (String, Attribute)>,
    ) -> OpId {
        let op = self.ctx.create_op(name, operands, result_types, attrs);
        self.insert(op);
        op
    }

    /// Insert an already-created detached op at the insertion point and
    /// advance the point past it.
    pub fn insert(&mut self, op: OpId) {
        match self.ip {
            InsertPoint::BlockEnd(block) => {
                self.ctx.append_op(block, op);
            }
            InsertPoint::Before(anchor) => {
                let (block, pos) = self
                    .ctx
                    .op_position(anchor)
                    .expect("insertion anchor is detached");
                self.ctx.insert_op(block, pos, op);
            }
            InsertPoint::After(anchor) => {
                let (block, pos) = self
                    .ctx
                    .op_position(anchor)
                    .expect("insertion anchor is detached");
                self.ctx.insert_op(block, pos + 1, op);
                // Advance so subsequent builds follow this op.
                self.ip = InsertPoint::After(op);
            }
        }
    }

    /// Build an op carrying one region with one empty block, returning
    /// `(op, block)`. Common shape for structured ops (`scf.for`,
    /// `hls.dataflow`, `stencil.apply`).
    pub fn build_with_region(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: impl IntoIterator<Item = (String, Attribute)>,
        block_arg_types: Vec<Type>,
    ) -> (OpId, BlockId) {
        let op = self.build_with_attrs(name, operands, result_types, attrs);
        let region = self.ctx.add_region(op);
        let block = self.ctx.add_block(region, block_arg_types);
        (op, block)
    }

    /// Result 0 of the built op — ergonomic for single-result ops.
    pub fn build_value(
        &mut self,
        name: &str,
        operands: Vec<ValueId>,
        result_type: Type,
    ) -> ValueId {
        let op = self.build(name, operands, vec![result_type]);
        self.ctx.result(op, 0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn module_block(ctx: &mut Context) -> BlockId {
        let m = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
        let r = ctx.add_region(m);
        ctx.add_block(r, vec![])
    }

    #[test]
    fn append_order() {
        let mut ctx = Context::new();
        let block = module_block(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let o1 = b.build("test.a", vec![], vec![]);
        let o2 = b.build("test.b", vec![], vec![]);
        assert_eq!(ctx.block_ops(block), &[o1, o2]);
    }

    #[test]
    fn before_keeps_build_order() {
        let mut ctx = Context::new();
        let block = module_block(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let anchor = b.build("test.anchor", vec![], vec![]);
        let mut b = OpBuilder::before(&mut ctx, anchor);
        let o1 = b.build("test.a", vec![], vec![]);
        let o2 = b.build("test.b", vec![], vec![]);
        assert_eq!(ctx.block_ops(block), &[o1, o2, anchor]);
    }

    #[test]
    fn after_advances() {
        let mut ctx = Context::new();
        let block = module_block(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let anchor = b.build("test.anchor", vec![], vec![]);
        let tail = b.build("test.tail", vec![], vec![]);
        let mut b = OpBuilder::after(&mut ctx, anchor);
        let o1 = b.build("test.a", vec![], vec![]);
        let o2 = b.build("test.b", vec![], vec![]);
        assert_eq!(ctx.block_ops(block), &[anchor, o1, o2, tail]);
    }

    #[test]
    fn region_builder() {
        let mut ctx = Context::new();
        let block = module_block(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let (op, inner) = b.build_with_region(
            "scf.for",
            vec![],
            vec![],
            BTreeMap::new(),
            vec![Type::Index],
        );
        assert_eq!(ctx.regions(op).len(), 1);
        assert_eq!(ctx.block_args(inner).len(), 1);
        assert_eq!(ctx.entry_block(op), Some(inner));
    }

    #[test]
    fn build_value_returns_result() {
        let mut ctx = Context::new();
        let block = module_block(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, block);
        let v = b.build_value("test.c", vec![], Type::F64);
        assert_eq!(ctx.value_type(v), &Type::F64);
    }
}
