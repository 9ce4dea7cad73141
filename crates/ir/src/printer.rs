//! Textual IR printer.
//!
//! Emits the MLIR *generic* operation form, which the companion
//! [`crate::parser`] can read back (round-trip property-tested):
//!
//! ```text
//! %0, %1 = "dialect.op"(%a, %b) ({
//!   ^bb0(%arg0: index):
//!     ...
//! }) {attr = 1 : i64} : (f64, f64) -> (f64, f64)
//! ```
//!
//! Values are numbered per top-level printed op in definition order; block
//! arguments print as `%argN` unless numbered globally.

use std::fmt::Write;

use crate::ir::{BlockId, Context, IdMap, OpId, RegionId, ValueId};

/// Print `op` (and everything nested in it) to a string.
pub fn print_op(ctx: &Context, op: OpId) -> String {
    let mut p = Printer::new(ctx);
    p.number_op(op);
    p.print_op(op, 0);
    p.out
}

struct Printer<'c> {
    ctx: &'c Context,
    out: String,
    names: IdMap<ValueId, String>,
    next: usize,
}

impl<'c> Printer<'c> {
    fn new(ctx: &'c Context) -> Self {
        Self {
            ctx,
            out: String::new(),
            names: IdMap::default(),
            next: 0,
        }
    }

    /// Assign `%N` names to every value defined under `op`, in print order.
    fn number_op(&mut self, op: OpId) {
        for &r in self.ctx.results(op) {
            let n = self.next;
            self.next += 1;
            self.names.insert(r, format!("%{n}"));
        }
        for &region in self.ctx.regions(op) {
            for &block in self.ctx.region_blocks(region) {
                for &arg in self.ctx.block_args(block) {
                    let n = self.next;
                    self.next += 1;
                    self.names.insert(arg, format!("%{n}"));
                }
                for &inner in self.ctx.block_ops(block) {
                    self.number_op(inner);
                }
            }
        }
    }

    fn name(&self, v: ValueId) -> &str {
        self.names
            .get(&v)
            .map(String::as_str)
            .unwrap_or("%<unknown>")
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn print_op(&mut self, op: OpId, depth: usize) {
        self.indent(depth);
        let results = self.ctx.results(op);
        if !results.is_empty() {
            let names: Vec<&str> = results.iter().map(|&r| self.name(r)).collect();
            let joined = names.join(", ");
            write!(self.out, "{joined} = ").unwrap();
        }
        write!(self.out, "{:?}(", self.ctx.op_name(op)).unwrap();
        let operand_names: Vec<&str> = self
            .ctx
            .operands(op)
            .iter()
            .map(|&o| self.name(o))
            .collect();
        let operands_joined = operand_names.join(", ");
        write!(self.out, "{operands_joined})").unwrap();

        let regions: Vec<RegionId> = self.ctx.regions(op).to_vec();
        if !regions.is_empty() {
            self.out.push_str(" (");
            for (i, region) in regions.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.print_region(*region, depth);
            }
            self.out.push(')');
        }

        let attrs = self.ctx.attrs(op);
        if !attrs.is_empty() {
            self.out.push_str(" {");
            for (i, (k, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                write!(self.out, "{k} = {v}").unwrap();
            }
            self.out.push('}');
        }

        self.out.push_str(" : (");
        let operand_tys: Vec<String> = self
            .ctx
            .operands(op)
            .iter()
            .map(|&o| self.ctx.value_type(o).to_string())
            .collect();
        self.out.push_str(&operand_tys.join(", "));
        self.out.push_str(") -> (");
        let result_tys: Vec<String> = results
            .iter()
            .map(|&r| self.ctx.value_type(r).to_string())
            .collect();
        self.out.push_str(&result_tys.join(", "));
        self.out.push(')');
    }

    fn print_region(&mut self, region: RegionId, depth: usize) {
        self.out.push_str("{\n");
        for &block in self.ctx.region_blocks(region) {
            self.print_block(block, depth + 1);
        }
        self.indent(depth);
        self.out.push('}');
    }

    fn print_block(&mut self, block: BlockId, depth: usize) {
        self.indent(depth);
        self.out.push_str("^bb(");
        let args = self.ctx.block_args(block);
        for (i, &arg) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let name = self.name(arg).to_string();
            write!(self.out, "{name}: {}", self.ctx.value_type(arg)).unwrap();
        }
        self.out.push_str("):\n");
        for &op in self.ctx.block_ops(block) {
            self.print_op(op, depth + 1);
            self.out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::types::Type;
    use std::collections::BTreeMap;

    #[test]
    fn flat_op() {
        let mut ctx = Context::new();
        let op = ctx.create_op("arith.constant", vec![], vec![Type::F64], {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), crate::attributes::Attribute::f64(1.5));
            m
        });
        let s = print_op(&ctx, op);
        assert_eq!(
            s,
            "%0 = \"arith.constant\"() {value = 1.5e0 : f64} : () -> (f64)"
        );
    }

    #[test]
    fn nested_region() {
        let mut ctx = Context::new();
        let m = ctx.create_op("builtin.module", vec![], vec![], BTreeMap::new());
        let r = ctx.add_region(m);
        let b = ctx.add_block(r, vec![]);
        let mut builder = OpBuilder::at_block_end(&mut ctx, b);
        let c = builder.build_value("test.c", vec![], Type::I64);
        builder.build("test.use", vec![c, c], vec![]);
        let s = print_op(&ctx, m);
        assert!(s.contains("\"builtin.module\"() ({"), "{s}");
        assert!(s.contains("%0 = \"test.c\"() : () -> (i64)"), "{s}");
        assert!(s.contains("\"test.use\"(%0, %0) : (i64, i64) -> ()"), "{s}");
    }

    #[test]
    fn block_args_named() {
        let mut ctx = Context::new();
        let m = ctx.create_op("test.holder", vec![], vec![], BTreeMap::new());
        let r = ctx.add_region(m);
        let b = ctx.add_block(r, vec![Type::Index]);
        let arg = ctx.block_args(b)[0];
        let mut builder = OpBuilder::at_block_end(&mut ctx, b);
        builder.build("test.use", vec![arg], vec![]);
        let s = print_op(&ctx, m);
        assert!(s.contains("^bb(%0: index):"), "{s}");
        assert!(s.contains("\"test.use\"(%0) : (index) -> ()"), "{s}");
    }
}
