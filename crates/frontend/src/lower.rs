//! Lowering from the kernel DSL AST to the stencil dialect.
//!
//! The generated function takes, in order:
//!
//! 1. one `!stencil.field<…>` argument per *external* field (declaration
//!    order; temps get no argument),
//! 2. one `memref<(n + 2·halo) x f64>` argument per small-data parameter
//!    (the array covers the halo so offset accesses stay in bounds),
//! 3. one `f64` argument per scalar constant.
//!
//! Each `compute` becomes one `stencil.apply`; computed fields feed later
//! computes through their temps (classic producer→consumer stencil
//! chaining), and every external output/inout receives a final
//! `stencil.store` over the interior.

use std::collections::BTreeMap;

use shmls_dialects::{arith, func, memref, stencil};
use shmls_ir::error::IrResult;
use shmls_ir::ir_error;
use shmls_ir::prelude::*;

use crate::ast::{BinOp, Expr, FieldKind, Intrinsic, KernelDef};

/// One argument of the generated kernel function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelArg {
    /// A stencil field argument (name, role).
    Field(String, FieldKind),
    /// A small-data parameter array (name, axis, logical extent incl. halo).
    Param(String, usize, i64),
    /// A scalar constant.
    Const(String),
}

/// The signature of a lowered kernel: maps runtime data to function args.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSignature {
    /// Kernel/function name.
    pub name: String,
    /// Grid extents.
    pub grid: Vec<i64>,
    /// Halo width.
    pub halo: i64,
    /// Arguments in order.
    pub args: Vec<KernelArg>,
}

impl KernelSignature {
    /// Index of the argument with the given name.
    pub fn arg_index(&self, name: &str) -> Option<usize> {
        self.args.iter().position(|a| match a {
            KernelArg::Field(n, _) | KernelArg::Param(n, _, _) | KernelArg::Const(n) => n == name,
        })
    }
}

/// Result of lowering: the function op and its signature description.
#[derive(Debug)]
pub struct LoweredKernel {
    /// The generated `func.func`.
    pub func: OpId,
    /// Argument layout.
    pub signature: KernelSignature,
}

/// Lower `kernel` into a `func.func` appended to `module_body`.
pub fn lower_kernel(
    ctx: &mut Context,
    module_body: BlockId,
    kernel: &KernelDef,
) -> IrResult<LoweredKernel> {
    kernel.validate()?;
    let field_bounds = StencilBounds::from_extents(&kernel.grid).grown(kernel.halo);
    let interior = StencilBounds::from_extents(&kernel.grid);

    // Assemble the signature.
    let mut args = Vec::new();
    let mut input_types = Vec::new();
    for f in kernel.external_fields() {
        args.push(KernelArg::Field(f.name.clone(), f.kind));
        input_types.push(Type::stencil_field(field_bounds.clone(), Type::F64));
    }
    for p in &kernel.params {
        let extent = kernel.grid[p.axis] + 2 * kernel.halo;
        args.push(KernelArg::Param(p.name.clone(), p.axis, extent));
        input_types.push(Type::memref(vec![extent], Type::F64));
    }
    for c in &kernel.consts {
        args.push(KernelArg::Const(c.name.clone()));
        input_types.push(Type::F64);
    }
    let signature = KernelSignature {
        name: kernel.name.clone(),
        grid: kernel.grid.clone(),
        halo: kernel.halo,
        args,
    };

    let (f, entry) = func::create_func(ctx, module_body, &kernel.name, input_types, vec![]);
    let entry_args = ctx.block_args(entry).to_vec();

    // Name → function-argument value.
    let mut arg_values: BTreeMap<String, ValueId> = BTreeMap::new();
    for (a, &v) in signature.args.iter().zip(&entry_args) {
        let name = match a {
            KernelArg::Field(n, _) | KernelArg::Param(n, _, _) | KernelArg::Const(n) => n,
        };
        arg_values.insert(name.clone(), v);
    }

    // Field name → current temp value (inputs/inouts loaded up front).
    let mut temps: BTreeMap<String, ValueId> = BTreeMap::new();
    {
        let mut b = OpBuilder::at_block_end(ctx, entry);
        for fld in &kernel.fields {
            if matches!(fld.kind, FieldKind::Input | FieldKind::InOut) {
                let loaded = stencil::load(&mut b, arg_values[&fld.name]);
                temps.insert(fld.name.clone(), loaded);
            }
        }
    }

    // One stencil.apply per compute.
    for compute in &kernel.computes {
        // Collect the operands this compute actually reads.
        let mut field_names = std::collections::BTreeSet::new();
        KernelDef::referenced_fields(&compute.expr, &mut field_names);
        let mut param_names = std::collections::BTreeSet::new();
        let mut const_names = std::collections::BTreeSet::new();
        collect_params_consts(&compute.expr, &mut param_names, &mut const_names);

        let mut operands = Vec::new();
        // Map from name to position in the apply's block-arg list.
        let mut operand_index: BTreeMap<String, usize> = BTreeMap::new();
        for n in &field_names {
            operand_index.insert(n.clone(), operands.len());
            operands.push(
                *temps
                    .get(n)
                    .ok_or_else(|| ir_error!("field `{n}` has no temp (internal error)"))?,
            );
        }
        for n in &param_names {
            operand_index.insert(n.clone(), operands.len());
            operands.push(arg_values[n]);
        }
        for n in &const_names {
            operand_index.insert(n.clone(), operands.len());
            operands.push(arg_values[n]);
        }

        let result_ty = Type::stencil_temp(interior.clone(), Type::F64);
        let mut b = OpBuilder::at_block_end(ctx, entry);
        let (apply_op, body) = stencil::apply(&mut b, operands, vec![result_ty]);
        let body_args = ctx.block_args(body).to_vec();

        let mut eb = OpBuilder::at_block_end(ctx, body);
        let lowerer = ExprLowerer {
            kernel,
            operand_index: &operand_index,
            body_args: &body_args,
        };
        let value = lowerer.lower(&mut eb, &compute.expr)?;
        stencil::return_op(&mut eb, vec![value]);

        temps.insert(compute.target.clone(), ctx.result(apply_op, 0));
    }

    // Store all external results.
    let mut b = OpBuilder::at_block_end(ctx, entry);
    for fld in &kernel.fields {
        if matches!(fld.kind, FieldKind::Output | FieldKind::InOut) {
            let temp = temps[&fld.name];
            stencil::store(
                &mut b,
                temp,
                arg_values[&fld.name],
                &interior.lb,
                &interior.ub,
            );
        }
    }
    func::ret(&mut b, vec![]);

    Ok(LoweredKernel { func: f, signature })
}

fn collect_params_consts(
    expr: &Expr,
    params: &mut std::collections::BTreeSet<String>,
    consts: &mut std::collections::BTreeSet<String>,
) {
    match expr {
        Expr::ParamRef { name, .. } => {
            params.insert(name.clone());
        }
        Expr::ConstRef(name) => {
            consts.insert(name.clone());
        }
        Expr::Neg(e) => collect_params_consts(e, params, consts),
        Expr::Bin { lhs, rhs, .. } => {
            collect_params_consts(lhs, params, consts);
            collect_params_consts(rhs, params, consts);
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_params_consts(a, params, consts);
            }
        }
        _ => {}
    }
}

struct ExprLowerer<'a> {
    kernel: &'a KernelDef,
    operand_index: &'a BTreeMap<String, usize>,
    body_args: &'a [ValueId],
}

impl ExprLowerer<'_> {
    fn arg(&self, name: &str) -> IrResult<ValueId> {
        self.operand_index
            .get(name)
            .map(|&i| self.body_args[i])
            .ok_or_else(|| ir_error!("`{name}` not an operand of this apply (internal error)"))
    }

    fn lower(&self, b: &mut OpBuilder<'_>, expr: &Expr) -> IrResult<ValueId> {
        match expr {
            Expr::Num(v) => Ok(arith::constant_f64(b, *v)),
            Expr::ConstRef(name) => self.arg(name),
            Expr::FieldRef { name, offsets } => {
                let temp = self.arg(name)?;
                Ok(stencil::access(b, temp, offsets))
            }
            Expr::ParamRef { name, offset } => {
                let param = self.kernel.param(name).expect("validated");
                let mem = self.arg(name)?;
                let idx = stencil::index(b, param.axis as i64);
                // Shift by halo so logical index -halo maps to storage 0.
                let shift = arith::constant_index(b, offset + self.kernel.halo);
                let shifted = arith::addi(b, idx, shift);
                Ok(memref::load(b, mem, vec![shifted]))
            }
            Expr::Neg(e) => {
                let v = self.lower(b, e)?;
                Ok(arith::negf(b, v))
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.lower(b, lhs)?;
                let r = self.lower(b, rhs)?;
                Ok(match op {
                    BinOp::Add => arith::addf(b, l, r),
                    BinOp::Sub => arith::subf(b, l, r),
                    BinOp::Mul => arith::mulf(b, l, r),
                    BinOp::Div => arith::divf(b, l, r),
                })
            }
            Expr::Call { f, args } => {
                let vals: Vec<ValueId> = args
                    .iter()
                    .map(|a| self.lower(b, a))
                    .collect::<IrResult<_>>()?;
                Ok(match f {
                    Intrinsic::Abs => b.build_value("math.absf", vec![vals[0]], Type::F64),
                    Intrinsic::Sqrt => b.build_value("math.sqrt", vec![vals[0]], Type::F64),
                    Intrinsic::Min => arith::minimumf(b, vals[0], vals[1]),
                    Intrinsic::Max => arith::maximumf(b, vals[0], vals[1]),
                    Intrinsic::Sign => {
                        // Fortran SIGN(a, b) = copysign(|a|, b).
                        let abs = b.build_value("math.absf", vec![vals[0]], Type::F64);
                        b.build_value("math.copysign", vec![abs, vals[1]], Type::F64)
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_kernel;
    use shmls_dialects::builtin::create_module;
    use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue};
    use shmls_ir::verifier::verify_with;

    const LAPLACE: &str = r#"
kernel laplace {
  grid(8, 8)
  halo 1
  field a : input
  field b : output
  const w
  compute b {
    b = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1] - 4.0 * a[0,0])
  }
}
"#;

    #[test]
    fn laplace_lowers_and_verifies() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        assert_eq!(lowered.signature.args.len(), 3);
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 1);
        assert_eq!(ctx.find_ops(module, stencil::STORE).len(), 1);
    }

    #[test]
    fn laplace_executes_correctly() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let _ = lower_kernel(&mut ctx, body, &k).unwrap();

        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        let mut a = Buffer::zeroed(vec![10, 10], vec![-1, -1]);
        for i in -1..9i64 {
            for j in -1..9i64 {
                a.store(&[i, j], (i * 10 + j) as f64).unwrap();
            }
        }
        let a_h = m.store.alloc(a.clone());
        let b_h = m.store.alloc(Buffer::zeroed(vec![10, 10], vec![-1, -1]));
        let w = 0.25;
        m.call(
            "laplace",
            &[RtValue::MemRef(a_h), RtValue::MemRef(b_h), RtValue::F64(w)],
        )
        .unwrap();
        for i in 0..8i64 {
            for j in 0..8i64 {
                let expect = w
                    * (a.load(&[i - 1, j]).unwrap()
                        + a.load(&[i + 1, j]).unwrap()
                        + a.load(&[i, j - 1]).unwrap()
                        + a.load(&[i, j + 1]).unwrap()
                        - 4.0 * a.load(&[i, j]).unwrap());
                let got = m.store.get(b_h).unwrap().load(&[i, j]).unwrap();
                assert!((got - expect).abs() < 1e-12, "({i},{j}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn chained_computes_use_temps() {
        let src = r#"
kernel chain {
  grid(6)
  halo 1
  field a : input
  field t : temp
  field b : output
  compute t { t = 2.0 * a[0] }
  compute b { b = t[0] + a[1] }
}
"#;
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let _ = lower_kernel(&mut ctx, body, &k).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 2);
        // Only the external output is stored.
        assert_eq!(ctx.find_ops(module, stencil::STORE).len(), 1);

        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        let mut a = Buffer::zeroed(vec![8], vec![-1]);
        for i in -1..7i64 {
            a.store(&[i], i as f64).unwrap();
        }
        let a_h = m.store.alloc(a);
        let b_h = m.store.alloc(Buffer::zeroed(vec![8], vec![-1]));
        m.call("chain", &[RtValue::MemRef(a_h), RtValue::MemRef(b_h)])
            .unwrap();
        for i in 0..6i64 {
            let got = m.store.get(b_h).unwrap().load(&[i]).unwrap();
            assert_eq!(got, 2.0 * i as f64 + (i + 1) as f64, "i={i}");
        }
    }

    #[test]
    fn params_and_intrinsics_execute() {
        let src = r#"
kernel withparam {
  grid(4, 4, 4)
  halo 1
  field a : input
  field b : output
  param tz[k]
  compute b { b = sign(tz[k+1], a[0,0,0]) + max(a[0,0,-1], 0.0) }
}
"#;
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        // Param array spans n + 2*halo.
        assert!(lowered
            .signature
            .args
            .iter()
            .any(|a| matches!(a, KernelArg::Param(n, 2, 6) if n == "tz")));

        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        let mut a = Buffer::zeroed(vec![6, 6, 6], vec![-1, -1, -1]);
        for p in shmls_ir::interp::iter_box(&[-1, -1, -1], &[5, 5, 5]) {
            a.store(&p, -1.5).unwrap();
        }
        let a_h = m.store.alloc(a);
        let b_h = m
            .store
            .alloc(Buffer::zeroed(vec![6, 6, 6], vec![-1, -1, -1]));
        let mut tz = Buffer::zeroed(vec![6], vec![0]);
        for i in 0..6i64 {
            tz.store(&[i], 3.0).unwrap();
        }
        let tz_h = m.store.alloc(tz);
        m.call(
            "withparam",
            &[
                RtValue::MemRef(a_h),
                RtValue::MemRef(b_h),
                RtValue::MemRef(tz_h),
            ],
        )
        .unwrap();
        let got = m.store.get(b_h).unwrap().load(&[0, 0, 0]).unwrap();
        // sign(3.0, -1.5) = -3.0; max(-1.5, 0) = 0.
        assert_eq!(got, -3.0);
    }
}
