//! The scalar `arith.*` / `math.*` ops, each defined once.
//!
//! [`TABLE`] has one row per op: its name, operand and result kinds, how
//! it evaluates and which hardware operator class it costs. The
//! tree-walker ([`eval`]), the bytecode compiler and the stage planner
//! ([`ProgramBuilder::emit`](crate::bytecode::ProgramBuilder::emit)), the
//! resource model's op mix, the verifier rules and the constant folder all
//! index it, so what an op means cannot drift between them.
//! `arith.constant` is not a row: it has no operands and every layer reads
//! its attribute its own way.

use crate::error::IrResult;
use crate::interp::RtValue;
use crate::types::Type;
use crate::{ir_bail, ir_ensure, ir_error};

/// Unary float opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x` (`arith.negf`).
    Neg,
    /// `x.abs()` (`math.absf`).
    Abs,
    /// `x.sqrt()` (`math.sqrt`).
    Sqrt,
    /// `x.exp()` (`math.exp`).
    Exp,
}

/// Binary float opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b` (`arith.addf`).
    Add,
    /// `a - b` (`arith.subf`).
    Sub,
    /// `a * b` (`arith.mulf`).
    Mul,
    /// `a / b` (`arith.divf`).
    Div,
    /// `a.max(b)` (`arith.maximumf`).
    Max,
    /// `a.min(b)` (`arith.minimumf`).
    Min,
    /// `a.powf(b)` (`math.powf`).
    Pow,
    /// `a.copysign(b)` (`math.copysign`).
    Copysign,
}

/// Binary integer opcodes over `i64` (which also carries `index`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOp {
    /// `a.wrapping_add(b)` (`arith.addi`).
    Add,
    /// `a.wrapping_sub(b)` (`arith.subi`).
    Sub,
    /// `a.wrapping_mul(b)` (`arith.muli`).
    Mul,
    /// `a / b`, truncating (`arith.divsi`).
    Div,
    /// `a % b`, sign of `a` (`arith.remsi`).
    Rem,
    /// `a & b` (`arith.andi`).
    And,
    /// `a | b` (`arith.ori`).
    Or,
}

/// The single source of truth for unary opcode semantics: the tree-walker,
/// the scalar and the lane executor all call this exact expression per
/// element. Changing it changes every tier at once — the zero-ULP
/// differential contract cannot drift between tiers.
#[inline(always)]
pub fn un_op(op: UnOp, v: f64) -> f64 {
    match op {
        UnOp::Neg => -v,
        UnOp::Abs => v.abs(),
        UnOp::Sqrt => v.sqrt(),
        UnOp::Exp => v.exp(),
    }
}

/// Binary opcode semantics; see [`un_op`].
#[inline(always)]
pub fn bin_op(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Max => a.max(b),
        BinOp::Min => a.min(b),
        BinOp::Pow => a.powf(b),
        BinOp::Copysign => a.copysign(b),
    }
}

/// Integer opcode semantics, and the one place signed division is checked:
/// a zero divisor and `i64::MIN` by `-1` are typed errors, never a panic.
pub fn int_op(op: IntOp, a: i64, b: i64) -> IrResult<i64> {
    let divided = |quotient: Option<i64>, name: &str| {
        ir_ensure!(b != 0, "division by zero in {name}");
        quotient.ok_or_else(|| ir_error!("signed overflow in {name}"))
    };
    match op {
        IntOp::Add => Ok(a.wrapping_add(b)),
        IntOp::Sub => Ok(a.wrapping_sub(b)),
        IntOp::Mul => Ok(a.wrapping_mul(b)),
        IntOp::Div => divided(a.checked_div(b), "arith.divsi"),
        IntOp::Rem => divided(a.checked_rem(b), "arith.remsi"),
        IntOp::And => Ok(a & b),
        IntOp::Or => Ok(a | b),
    }
}

/// The scalar kind of an operand or a result: its test, and its name in
/// diagnostics.
pub type Kind = (fn(&Type) -> bool, &'static str);
/// `f32` or `f64`.
pub const FLOAT: Kind = (Type::is_float, "float");
/// Any integer type, `index` and `i1` included.
pub const INT: Kind = (Type::is_integer, "integer");
/// `i1`.
pub const BOOL: Kind = (|t| *t == Type::I1, "i1");
/// Left to the op's own verifier rule (the arms of `arith.select`).
pub const ANY: Kind = (|_| true, "any");

/// How a row computes its result from its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eval {
    /// [`un_op`] of one float.
    Un(UnOp),
    /// [`bin_op`] of two floats.
    Bin(BinOp),
    /// `a.mul_add(b, c)`, fused.
    Fma,
    /// [`int_op`] of two integers.
    Int(IntOp),
    /// Signed integer comparison under the op's `predicate` attribute.
    CmpI,
    /// Ordered float comparison under the op's `predicate` attribute.
    CmpF,
    /// `cond ? a : b`.
    Select,
    /// Integer to integer, value unchanged.
    IndexCast,
    /// `i64 as f64`.
    SiToFp,
    /// `f64 as i64` (saturating; NaN gives 0).
    FpToSi,
}

impl Eval {
    /// True for the rows the `f64` register ISA of
    /// [`bytecode`](crate::bytecode) has an instruction for.
    pub fn is_float(&self) -> bool {
        matches!(self, Eval::Un(_) | Eval::Bin(_) | Eval::Fma)
    }
}

/// The hardware operator class the resource and cycle models charge an op
/// to (a field of `shmls_fpga_sim::design::OpMix` each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// An f64 adder (add, subtract, negate).
    FAdd,
    /// An f64 multiplier.
    FMul,
    /// An f64 divider.
    FDiv,
    /// Any other f64 operator (abs, min, max, select, compare, …).
    FMisc,
    /// An integer / index ALU operation.
    IAlu,
}

/// One scalar op: everything any layer needs to know about it.
#[derive(Debug)]
pub struct ScalarOp {
    /// The op name, dialect prefix included.
    pub name: &'static str,
    /// The kind of each operand, in order; its length is the arity.
    pub operands: &'static [Kind],
    /// The kind of the single result.
    pub result: Kind,
    /// How the result is computed.
    pub eval: Eval,
    /// The operator class the models count it under; `None` is free.
    pub cost: Option<Cost>,
}

/// Declares [`TABLE`] and [`lookup`] from one list of rows, so that there
/// is never a second list of names.
macro_rules! scalar_ops {
    ($(($name:literal, $operands:expr, $result:expr, $eval:expr, $cost:expr),)*) => {
        /// Every scalar op, one row each.
        pub static TABLE: [ScalarOp; 26] = [$(ScalarOp {
            name: $name,
            operands: &$operands,
            result: $result,
            eval: $eval,
            cost: $cost,
        }),*];

        /// The row named `name`, if it is a scalar op. The tree-walker pays
        /// this per executed op, hence comparisons with literals — which
        /// compile, as a `match` would, to a length switch and word
        /// compares, an order of magnitude under a binary search.
        pub fn lookup(name: &str) -> Option<&'static ScalarOp> {
            let mut rows = TABLE.iter();
            $(
                let row = rows.next();
                if name == $name {
                    return row;
                }
            )*
            None
        }
    };
}

use {Cost::*, Eval::*};
#[rustfmt::skip]
scalar_ops![
    ("arith.addf",       [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Add),       Some(FAdd)),
    ("arith.addi",       [INT, INT],            INT,   Int(IntOp::Add),       Some(IAlu)),
    ("arith.andi",       [INT, INT],            INT,   Int(IntOp::And),       None),
    ("arith.cmpf",       [FLOAT, FLOAT],        BOOL,  CmpF,                  Some(FMisc)),
    ("arith.cmpi",       [INT, INT],            BOOL,  CmpI,                  Some(IAlu)),
    ("arith.divf",       [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Div),       Some(FDiv)),
    ("arith.divsi",      [INT, INT],            INT,   Int(IntOp::Div),       Some(IAlu)),
    ("arith.fptosi",     [FLOAT],               INT,   FpToSi,                None),
    ("arith.index_cast", [INT],                 INT,   IndexCast,             Some(IAlu)),
    ("arith.maximumf",   [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Max),       Some(FMisc)),
    ("arith.minimumf",   [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Min),       Some(FMisc)),
    ("arith.mulf",       [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Mul),       Some(FMul)),
    ("arith.muli",       [INT, INT],            INT,   Int(IntOp::Mul),       Some(IAlu)),
    ("arith.negf",       [FLOAT],               FLOAT, Un(UnOp::Neg),         Some(FAdd)),
    ("arith.ori",        [INT, INT],            INT,   Int(IntOp::Or),        None),
    ("arith.remsi",      [INT, INT],            INT,   Int(IntOp::Rem),       Some(IAlu)),
    ("arith.select",     [BOOL, ANY, ANY],      ANY,   Select,                Some(FMisc)),
    ("arith.sitofp",     [INT],                 FLOAT, SiToFp,                None),
    ("arith.subf",       [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Sub),       Some(FAdd)),
    ("arith.subi",       [INT, INT],            INT,   Int(IntOp::Sub),       Some(IAlu)),
    ("math.absf",        [FLOAT],               FLOAT, Un(UnOp::Abs),         Some(FMisc)),
    ("math.copysign",    [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Copysign),  Some(FMisc)),
    ("math.exp",         [FLOAT],               FLOAT, Un(UnOp::Exp),         None),
    ("math.fma",         [FLOAT, FLOAT, FLOAT], FLOAT, Fma,                   None),
    ("math.powf",        [FLOAT, FLOAT],        FLOAT, Bin(BinOp::Pow),       None),
    ("math.sqrt",        [FLOAT],               FLOAT, Un(UnOp::Sqrt),        Some(FMisc)),
];

/// Evaluate `row` on `args`, whose length the caller has checked against
/// `row.operands`. `predicate` is the op's `predicate` attribute, read only
/// by the two comparisons.
pub fn eval(row: &ScalarOp, predicate: Option<&str>, args: &[RtValue]) -> IrResult<RtValue> {
    let predicate = || predicate.ok_or_else(|| ir_error!("{} without predicate", row.name));
    Ok(match row.eval {
        Eval::Un(op) => RtValue::F64(un_op(op, args[0].as_f64()?)),
        Eval::Bin(op) => RtValue::F64(bin_op(op, args[0].as_f64()?, args[1].as_f64()?)),
        Eval::Fma => {
            let (a, b, c) = (args[0].as_f64()?, args[1].as_f64()?, args[2].as_f64()?);
            RtValue::F64(a.mul_add(b, c))
        }
        Eval::Int(op) => RtValue::I64(int_op(op, args[0].as_i64()?, args[1].as_i64()?)?),
        Eval::CmpI => {
            let (a, b) = (args[0].as_i64()?, args[1].as_i64()?);
            RtValue::Bool(match predicate()? {
                "eq" => a == b,
                "ne" => a != b,
                "slt" => a < b,
                "sle" => a <= b,
                "sgt" => a > b,
                "sge" => a >= b,
                other => ir_bail!("unsupported cmpi predicate `{other}`"),
            })
        }
        Eval::CmpF => {
            let (a, b) = (args[0].as_f64()?, args[1].as_f64()?);
            // Every predicate is *ordered*, false when either side is NaN:
            // `one` is not `a != b`.
            RtValue::Bool(match predicate()? {
                "oeq" => a == b,
                "one" => a < b || b < a,
                "olt" => a < b,
                "ole" => a <= b,
                "ogt" => a > b,
                "oge" => a >= b,
                other => ir_bail!("unsupported cmpf predicate `{other}`"),
            })
        }
        Eval::Select => args[if args[0].as_bool()? { 1 } else { 2 }].clone(),
        Eval::IndexCast => RtValue::I64(args[0].as_i64()?),
        Eval::SiToFp => RtValue::F64(args[0].as_i64()? as f64),
        Eval::FpToSi => RtValue::I64(args[0].as_f64()? as i64),
    })
}
