//! `arith` dialect: constants, arithmetic and comparisons — and the
//! verifier rules of the `math.*` ops, which have builders nowhere (the
//! frontend spells their names) and the same scalar signatures.

use shmls_ir::ir_ensure;
use shmls_ir::prelude::*;
use shmls_ir::scalar::{self, Kind};
use shmls_ir::verifier::{expect_counts, OpVerifiers};

/// `arith.constant` op name.
pub const CONSTANT: &str = "arith.constant";

/// Build an f64 constant.
pub fn constant_f64(b: &mut OpBuilder<'_>, v: f64) -> ValueId {
    let attrs = [("value".to_string(), Attribute::f64(v))];
    let op = b.build_with_attrs(CONSTANT, vec![], vec![Type::F64], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build an index constant.
pub fn constant_index(b: &mut OpBuilder<'_>, v: i64) -> ValueId {
    let attrs = [("value".to_string(), Attribute::index(v))];
    let op = b.build_with_attrs(CONSTANT, vec![], vec![Type::Index], attrs);
    b.ctx_ref().result(op, 0)
}

macro_rules! float_binop {
    ($(#[$doc:meta])* $fn_name:ident, $op_name:expr) => {
        $(#[$doc])*
        pub fn $fn_name(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
            b.build_value($op_name, vec![lhs, rhs], Type::F64)
        }
    };
}

float_binop!(
    /// `lhs + rhs` on f64.
    addf, "arith.addf"
);
float_binop!(
    /// `lhs - rhs` on f64.
    subf, "arith.subf"
);
float_binop!(
    /// `lhs * rhs` on f64.
    mulf, "arith.mulf"
);
float_binop!(
    /// `lhs / rhs` on f64.
    divf, "arith.divf"
);
float_binop!(
    /// `max(lhs, rhs)` on f64.
    maximumf, "arith.maximumf"
);
float_binop!(
    /// `min(lhs, rhs)` on f64.
    minimumf, "arith.minimumf"
);

/// `-v` on f64.
pub fn negf(b: &mut OpBuilder<'_>, v: ValueId) -> ValueId {
    b.build_value("arith.negf", vec![v], Type::F64)
}

macro_rules! int_binop {
    ($(#[$doc:meta])* $fn_name:ident, $op_name:expr) => {
        $(#[$doc])*
        pub fn $fn_name(b: &mut OpBuilder<'_>, lhs: ValueId, rhs: ValueId) -> ValueId {
            let ty = b.ctx_ref().value_type(lhs).clone();
            b.build_value($op_name, vec![lhs, rhs], ty)
        }
    };
}

int_binop!(
    /// `lhs + rhs` on integers/index.
    addi, "arith.addi"
);
int_binop!(
    /// `lhs - rhs` on integers/index.
    subi, "arith.subi"
);
int_binop!(
    /// `lhs * rhs` on integers/index.
    muli, "arith.muli"
);
int_binop!(
    /// `lhs / rhs` (signed) on integers/index.
    divsi, "arith.divsi"
);
int_binop!(
    /// `lhs % rhs` (signed) on integers/index.
    remsi, "arith.remsi"
);

/// Signed integer comparison; `pred` is one of eq/ne/slt/sle/sgt/sge.
pub fn cmpi(b: &mut OpBuilder<'_>, pred: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let attrs = [("predicate".to_string(), Attribute::string(pred))];
    let op = b.build_with_attrs("arith.cmpi", vec![lhs, rhs], vec![Type::I1], attrs);
    b.ctx_ref().result(op, 0)
}

/// Ordered float comparison; `pred` is one of oeq/one/olt/ole/ogt/oge.
pub fn cmpf(b: &mut OpBuilder<'_>, pred: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let attrs = [("predicate".to_string(), Attribute::string(pred))];
    let op = b.build_with_attrs("arith.cmpf", vec![lhs, rhs], vec![Type::I1], attrs);
    b.ctx_ref().result(op, 0)
}

/// `cond ? a : b`.
pub fn select(b: &mut OpBuilder<'_>, cond: ValueId, a: ValueId, v: ValueId) -> ValueId {
    let ty = b.ctx_ref().value_type(a).clone();
    b.build_value("arith.select", vec![cond, a, v], ty)
}

/// Cast between integer-like types (`index` ↔ `i64` etc.).
pub fn index_cast(b: &mut OpBuilder<'_>, v: ValueId, to: Type) -> ValueId {
    b.build_value("arith.index_cast", vec![v], to)
}

/// Integer to float conversion.
pub fn sitofp(b: &mut OpBuilder<'_>, v: ValueId) -> ValueId {
    b.build_value("arith.sitofp", vec![v], Type::F64)
}

/// The constant value attribute, if `op` is an `arith.constant`.
pub fn constant_value(ctx: &Context, op: OpId) -> Option<&Attribute> {
    if ctx.op_name(op) == CONSTANT {
        ctx.attr(op, "value")
    } else {
        None
    }
}

/// True for the side-effect-free arith/math op names (used by DCE).
pub fn is_pure(name: &str) -> bool {
    name == CONSTANT || scalar::lookup(name).is_some()
}

/// One operand of each of `operands`' kinds, in order, and one result of
/// kind `result`.
fn expect_kinds(ctx: &Context, op: OpId, operands: &[Kind], result: Kind) -> IrResult<()> {
    expect_counts(ctx, op, operands.len(), 1)?;
    let values = ctx.operands(op).iter().chain(ctx.results(op));
    for (&value, (is_kind, kind)) in values.zip(operands.iter().chain([&result])) {
        let ty = ctx.value_type(value);
        ir_ensure!(is_kind(ty), "expected {kind}, found non-{kind} type {ty}");
    }
    Ok(())
}

/// A `predicate` attribute drawn from `known`.
fn expect_predicate(ctx: &Context, op: OpId, known: &[&str]) -> IrResult<()> {
    match ctx.attr(op, "predicate").and_then(Attribute::as_str) {
        Some(pred) if known.contains(&pred) => Ok(()),
        Some(pred) => shmls_ir::ir_bail!("unknown predicate `{pred}`"),
        None => shmls_ir::ir_bail!("needs a string `predicate` attribute"),
    }
}

/// Verifier rules for `arith.constant` and for every row of
/// [`scalar::TABLE`] — the scalar `arith.*` and `math.*` ops the
/// interpreter executes: arity and operand/result kinds, so the passes and
/// engines that index `operands(op)[i]` on verified IR cannot be handed an
/// op that is short of them.
pub fn register_verifiers(v: &mut OpVerifiers) {
    v.register(CONSTANT, |ctx, op| {
        let value = ctx
            .attr(op, "value")
            .ok_or_else(|| shmls_ir::ir_error!("arith.constant needs a value attribute"))?;
        ir_ensure!(ctx.results(op).len() == 1, "arith.constant has one result");
        let rt = ctx.value_type(ctx.result(op, 0));
        match value {
            Attribute::Int(_, t) | Attribute::Float(_, t) => {
                ir_ensure!(t == rt, "constant type {t} does not match result type {rt}");
            }
            other => shmls_ir::ir_bail!("bad constant attribute {other}"),
        }
        Ok(())
    });
    // Ahead of the rows' rule, which would name a non-i1 condition less well.
    v.register("arith.select", |ctx, op| {
        expect_counts(ctx, op, 3, 1)?;
        let [cond, a, b] = [0, 1, 2].map(|i| ctx.value_type(ctx.operands(op)[i]));
        ir_ensure!(*cond == Type::I1, "condition has non-i1 type {cond}");
        let result = ctx.value_type(ctx.result(op, 0));
        ir_ensure!(
            a == b && a == result,
            "selects between {a} and {b} into {result}"
        );
        Ok(())
    });
    for row in &scalar::TABLE {
        v.register(row.name, |ctx, op| {
            let row = scalar::lookup(ctx.op_name(op)).expect("registered under a row's name");
            expect_kinds(ctx, op, row.operands, row.result)
        });
    }
    v.register("arith.cmpi", |ctx, op| {
        expect_predicate(ctx, op, &["eq", "ne", "slt", "sle", "sgt", "sge"])
    });
    v.register("arith.cmpf", |ctx, op| {
        expect_predicate(ctx, op, &["oeq", "one", "olt", "ole", "ogt", "oge"])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::create_module;
    use shmls_ir::verifier::verify_with;

    fn verifiers() -> OpVerifiers {
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        v
    }

    #[test]
    fn builders_and_types() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let x = constant_f64(&mut b, 2.0);
        let y = constant_f64(&mut b, 3.0);
        let s = addf(&mut b, x, y);
        let p = mulf(&mut b, s, s);
        let i = constant_index(&mut b, 4);
        let j = addi(&mut b, i, i);
        let c = cmpi(&mut b, "slt", i, j);
        let _sel = select(&mut b, c, x, y);
        assert_eq!(ctx.value_type(p), &Type::F64);
        assert_eq!(ctx.value_type(j), &Type::Index);
        assert_eq!(ctx.value_type(c), &Type::I1);
        verify_with(&ctx, module, &verifiers()).unwrap();
    }

    #[test]
    fn constant_type_mismatch_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let x = constant_f64(&mut b, 2.0);
        let op = ctx.defining_op(x).unwrap();
        ctx.set_attr(op, "value", Attribute::int(2));
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("does not match result type"), "{e}");
    }

    #[test]
    fn float_binop_int_operand_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let i = constant_index(&mut b, 1);
        b.build("arith.addf", vec![i, i], vec![Type::F64]);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(e.to_string().contains("non-float"), "{e}");
    }

    #[test]
    fn every_scalar_op_has_an_arity_and_kind_rule() {
        // `f`, `i` and `c` stand for an f64, an index and an i1 operand.
        let rejects = |name: &str, operands: &str, result: Type, pred: Option<&str>, why: &str| {
            let mut ctx = Context::new();
            let (module, body) = create_module(&mut ctx);
            let mut b = OpBuilder::at_block_end(&mut ctx, body);
            let (f, i) = (constant_f64(&mut b, 1.0), constant_index(&mut b, 1));
            let c = cmpi(&mut b, "eq", i, i);
            let operands = operands.chars().map(|kind| match kind {
                'f' => f,
                'i' => i,
                _ => c,
            });
            let op = b.build(name, operands.collect(), vec![result]);
            if let Some(pred) = pred {
                ctx.set_attr(op, "predicate", Attribute::string(pred));
            }
            let e = verify_with(&ctx, module, &verifiers())
                .unwrap_err()
                .to_string();
            assert!(e.contains(&format!("op `{name}`")), "{name}: {e}");
            assert!(e.contains(why), "{name}: {e}");
        };
        use Type::{Index, F64, I1};
        rejects(
            "arith.negf",
            "",
            F64,
            None,
            "expected 1 operand(s), found 0",
        );
        rejects("math.sqrt", "i", F64, None, "non-float type index");
        rejects(
            "arith.maximumf",
            "f",
            F64,
            None,
            "expected 2 operand(s), found 1",
        );
        rejects("math.copysign", "ff", Index, None, "non-float type index");
        rejects(
            "math.fma",
            "ff",
            F64,
            None,
            "expected 3 operand(s), found 2",
        );
        rejects("arith.remsi", "if", Index, None, "non-integer type f64");
        rejects(
            "arith.ori",
            "iii",
            Index,
            None,
            "expected 2 operand(s), found 3",
        );
        rejects(
            "arith.cmpi",
            "ii",
            I1,
            Some("ult"),
            "unknown predicate `ult`",
        );
        rejects("arith.cmpi", "ii", I1, None, "needs a string `predicate`");
        rejects("arith.cmpf", "ff", F64, Some("olt"), "non-i1 type f64");
        rejects(
            "arith.select",
            "cf",
            F64,
            None,
            "expected 3 operand(s), found 2",
        );
        rejects(
            "arith.select",
            "fff",
            F64,
            None,
            "condition has non-i1 type f64",
        );
        rejects(
            "arith.select",
            "cfi",
            F64,
            None,
            "selects between f64 and index",
        );
        rejects("arith.index_cast", "f", Index, None, "non-integer type f64");
        rejects("arith.sitofp", "i", Index, None, "non-float type index");
        rejects(
            "arith.fptosi",
            "",
            Index,
            None,
            "expected 1 operand(s), found 0",
        );
    }

    #[test]
    fn the_scalar_table_has_unique_names_found_by_lookup_and_verified() {
        let mut names: Vec<&str> = scalar::TABLE.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), scalar::TABLE.len(), "a name is listed twice");
        let v = verifiers();
        for row in &scalar::TABLE {
            assert!(scalar::lookup(row.name).is_some_and(|found| std::ptr::eq(found, row)));
            assert!(!v.rules_for(row.name).is_empty(), "{}", row.name);
        }
    }

    #[test]
    fn purity() {
        assert!(is_pure("arith.addf"));
        assert!(is_pure("math.sqrt"));
        assert!(!is_pure("memref.store"));
        assert!(!is_pure("hls.write"));
    }
}
