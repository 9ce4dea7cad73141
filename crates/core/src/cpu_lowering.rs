//! Reference lowering: stencil dialect → structured loops (`scf` +
//! `memref`).
//!
//! This is the *Von-Neumann* code structure the paper contrasts against
//! (§3.3: "although the code will execute correctly on the FPGA because it
//! is still structured following the imperative Von Neumann model
//! performance is poor"). It serves three roles here:
//!
//! 1. the CPU execution path of the stencil dialect (golden reference),
//! 2. the structural basis of the naive Vitis-HLS baseline model
//!    (per-element external memory access, no dataflow),
//! 3. a second, independently-derived executable semantics against which
//!    the direct `stencil.apply` interpretation and the HLS dataflow path
//!    are cross-checked.

use shmls_dialects::{arith, func, memref, scf, stencil};
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure, ir_error};

/// Cast op reinterpreting a stencil field as a raw buffer (interpreted as
/// identity at runtime).
pub const BUFFER_CAST: &str = "stencil.buffer_cast";

/// Lower `stencil_func` into a new function `<name>_cpu` with explicit
/// loop nests, appended to the same module. Returns the new function.
pub fn stencil_to_cpu(ctx: &mut Context, stencil_func: OpId) -> IrResult<OpId> {
    let entry = ctx
        .entry_block(stencil_func)
        .ok_or_else(|| ir_error!("function has no body"))?;
    let old_args = ctx.block_args(entry).to_vec();
    let name = func::func_name(ctx, stencil_func)
        .ok_or_else(|| ir_error!("stencil function has no name"))?
        .to_string();
    let module_body = ctx
        .parent_block(stencil_func)
        .ok_or_else(|| ir_error!("stencil function is detached"))?;

    let arg_types: Vec<Type> = old_args
        .iter()
        .map(|&a| ctx.value_type(a).clone())
        .collect();
    let cpu_name = format!("{name}_cpu");
    let (cpu_func, cpu_entry) = func::create_func(ctx, module_body, &cpu_name, arg_types, vec![]);
    let new_args = ctx.block_args(cpu_entry).to_vec();

    // Old value -> new value (args, casts, temp buffers).
    let vmap: IdMap<ValueId, ValueId> = old_args
        .iter()
        .copied()
        .zip(new_args.iter().copied())
        .collect();

    // Cast each field argument to a buffer view.
    let mut buffer_of_field: IdMap<ValueId, ValueId> = IdMap::default();
    for (&old_arg, &new_arg) in old_args.iter().zip(&new_args) {
        if let Type::StencilField { bounds, elem } = ctx.value_type(old_arg).clone() {
            let mut b = OpBuilder::at_block_end(ctx, cpu_entry);
            let view = b.build_value(
                BUFFER_CAST,
                vec![new_arg],
                Type::memref(bounds.extents(), *elem),
            );
            buffer_of_field.insert(old_arg, view);
        }
    }

    // Buffers backing each temp (stencil.load results share the field's
    // buffer; apply results get fresh interior-sized allocations).
    let mut buffer_of_temp: IdMap<ValueId, ValueId> = IdMap::default();

    for op in ctx.block_ops(entry).to_vec() {
        let op_name = ctx.op_name(op).to_string();
        match op_name.as_str() {
            stencil::LOAD => {
                let field = ctx.operands(op)[0];
                let view = *buffer_of_field
                    .get(&field)
                    .ok_or_else(|| ir_error!("load from unknown field"))?;
                buffer_of_temp.insert(ctx.result(op, 0), view);
            }
            stencil::APPLY => {
                lower_apply(ctx, cpu_entry, op, &mut buffer_of_temp, &vmap)?;
            }
            stencil::STORE => {
                let temp = ctx.operands(op)[0];
                let field = ctx.operands(op)[1];
                let (lb, ub) = stencil::store_bounds(ctx, op)
                    .ok_or_else(|| ir_error!("stencil.store without bounds"))?;
                let src = *buffer_of_temp
                    .get(&temp)
                    .ok_or_else(|| ir_error!("store of unknown temp"))?;
                let dst = *buffer_of_field
                    .get(&field)
                    .ok_or_else(|| ir_error!("store to unknown field"))?;
                build_copy_loops(ctx, cpu_entry, src, dst, &lb, &ub)?;
            }
            func::RETURN => {
                let mut b = OpBuilder::at_block_end(ctx, cpu_entry);
                func::ret(&mut b, vec![]);
            }
            other => ir_bail!("cpu lowering: unexpected top-level op `{other}`"),
        }
    }
    Ok(cpu_func)
}

/// Lower one `stencil.apply` into a loop nest writing a fresh buffer.
fn lower_apply(
    ctx: &mut Context,
    cpu_entry: BlockId,
    apply: OpId,
    buffer_of_temp: &mut IdMap<ValueId, ValueId>,
    arg_map: &IdMap<ValueId, ValueId>,
) -> IrResult<()> {
    ir_ensure!(
        ctx.results(apply).len() == 1,
        "cpu lowering expects single-result applies (run split first)"
    );
    let result = ctx.result(apply, 0);
    let bounds = ctx
        .value_type(result)
        .stencil_bounds()
        .ok_or_else(|| ir_error!("apply result is not a temp"))?
        .clone();

    let out_buf = {
        let mut b = OpBuilder::at_block_end(ctx, cpu_entry);
        memref::alloc(&mut b, bounds.extents(), Type::F64)
    };
    buffer_of_temp.insert(result, out_buf);

    // Nested loops over the interior.
    let (ivs, body) = open_loops(ctx, cpu_entry, &bounds.lb, &bounds.ub);
    let mut point = Point {
        ivs,
        body,
        out_buf,
        vmap: IdMap::default(),
        temp_operand: IdMap::default(),
    };
    // Map apply block args to the caller-side values backing them.
    let src_block = ctx.entry_block(apply).expect("apply body");
    for (&src_arg, operand) in ctx.block_args(src_block).iter().zip(ctx.operands(apply)) {
        if let Some(&buf) = buffer_of_temp.get(operand) {
            point.temp_operand.insert(src_arg, buf);
        } else if let Some(&mapped) = arg_map.get(operand) {
            point.vmap.insert(src_arg, mapped);
        } else {
            ir_bail!("apply operand not traceable during cpu lowering");
        }
    }
    for op in ctx.block_ops(src_block).to_vec() {
        point.lower_op(ctx, op)?;
    }
    close_loops(ctx, point.body, bounds.rank());
    Ok(())
}

/// One grid point of an apply's loop nest, as its body ops are lowered
/// into the innermost loop.
struct Point {
    /// Induction variables, outermost first.
    ivs: Vec<ValueId>,
    /// The innermost loop body.
    body: BlockId,
    /// The buffer the apply's result is stored to.
    out_buf: ValueId,
    /// Apply body value -> its value in the loop body.
    vmap: IdMap<ValueId, ValueId>,
    /// Apply block argument of a temp operand -> the buffer backing it.
    temp_operand: IdMap<ValueId, ValueId>,
}

impl Point {
    /// Lower one op of the apply body into the innermost loop.
    fn lower_op(&mut self, ctx: &mut Context, op: OpId) -> IrResult<()> {
        match ctx.op_name(op) {
            stencil::ACCESS => {
                let operand = ctx.operands(op)[0];
                let offset = stencil::access_offset(ctx, op)
                    .ok_or_else(|| ir_error!("access without offset"))?
                    .to_vec();
                let buf = *self
                    .temp_operand
                    .get(&operand)
                    .ok_or_else(|| ir_error!("access to unmapped temp"))?;
                let mut b = OpBuilder::at_block_end(ctx, self.body);
                let mut indices = Vec::with_capacity(self.ivs.len());
                for (&iv, &offset) in self.ivs.iter().zip(&offset) {
                    let idx = if offset == 0 {
                        iv
                    } else {
                        let c = arith::constant_index(&mut b, offset);
                        arith::addi(&mut b, iv, c)
                    };
                    indices.push(idx);
                }
                let v = memref::load(&mut b, buf, indices);
                self.vmap.insert(ctx.result(op, 0), v);
            }
            stencil::INDEX => {
                let dim = ctx
                    .attr(op, "dim")
                    .and_then(Attribute::as_int)
                    .ok_or_else(|| ir_error!("stencil.index without dim"))?
                    as usize;
                self.vmap.insert(ctx.result(op, 0), self.ivs[dim]);
            }
            stencil::RETURN => {
                let v = ctx.operands(op)[0];
                let mapped = self.vmap.get(&v).copied().unwrap_or(v);
                let mut b = OpBuilder::at_block_end(ctx, self.body);
                memref::store(&mut b, mapped, self.out_buf, self.ivs.clone());
            }
            _ => {
                // `clone_op` records the clone's results in `vmap`.
                let cloned = ctx.clone_op(op, &mut self.vmap);
                ctx.append_op(self.body, cloned);
            }
        }
        Ok(())
    }
}

/// Open a nest of unit-step `scf.for` loops over `[lb, ub)` at the end of
/// `block`: the induction variables, outermost first, and the innermost
/// body.
fn open_loops(
    ctx: &mut Context,
    block: BlockId,
    lb: &[i64],
    ub: &[i64],
) -> (Vec<ValueId>, BlockId) {
    let mut ivs = Vec::with_capacity(lb.len());
    let mut current = block;
    for (&l, &u) in lb.iter().zip(ub) {
        let mut b = OpBuilder::at_block_end(ctx, current);
        let l = arith::constant_index(&mut b, l);
        let u = arith::constant_index(&mut b, u);
        let s = arith::constant_index(&mut b, 1);
        let (for_op, body) = scf::for_loop(&mut b, l, u, s, vec![]);
        ivs.push(scf::induction_var(ctx, for_op));
        current = body;
    }
    (ivs, current)
}

/// Close a nest of `rank` loops with yields, innermost outwards.
fn close_loops(ctx: &mut Context, innermost: BlockId, rank: usize) {
    let mut block = innermost;
    for _ in 0..rank {
        let mut b = OpBuilder::at_block_end(ctx, block);
        scf::yield_op(&mut b, vec![]);
        let terminator = ctx.terminator(block).expect("just built");
        let for_op = ctx.parent_op(terminator).expect("loop body has parent");
        block = ctx.parent_block(for_op).expect("loop has parent block");
    }
}

/// `dst[p] = src[p]` for every `p` in `[lb, ub)`.
fn build_copy_loops(
    ctx: &mut Context,
    entry: BlockId,
    src: ValueId,
    dst: ValueId,
    lb: &[i64],
    ub: &[i64],
) -> IrResult<()> {
    let (ivs, body) = open_loops(ctx, entry, lb, ub);
    let mut b = OpBuilder::at_block_end(ctx, body);
    let v = memref::load(&mut b, src, ivs.clone());
    memref::store(&mut b, v, dst, ivs);
    close_loops(ctx, body, lb.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue};
    use shmls_ir::verifier::verify_with;

    const LAPLACE: &str = r#"
kernel laplace {
  grid(8, 6)
  halo 1
  field a : input
  field b : output
  const w
  compute b {
    b = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1] - 4.0 * a[0,0])
  }
}
"#;

    const CHAIN: &str = r#"
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

    fn cross_check(src: &str) {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        stencil_to_cpu(&mut ctx, lowered.func).unwrap();
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();

        let sig = &lowered.signature;
        let bounded = StencilBounds::from_extents(&sig.grid).grown(sig.halo);
        let interior = StencilBounds::from_extents(&sig.grid);

        let run = |fname: &str| -> Vec<Buffer> {
            let mut no = NoExtern;
            let mut m = Machine::new(&ctx, module, &mut no);
            let mut args = Vec::new();
            let mut field_handles = Vec::new();
            let mut x = 1.0f64;
            for arg in &sig.args {
                match arg {
                    shmls_frontend::KernelArg::Field(_, _) => {
                        let mut buf = Buffer::zeroed(bounded.extents(), bounded.lb.clone());
                        for v in &mut buf.data {
                            x = (x * 1.3 + 0.7) % 10.0;
                            *v = x;
                        }
                        let h = m.store.alloc(buf);
                        field_handles.push(h);
                        args.push(RtValue::MemRef(h));
                    }
                    shmls_frontend::KernelArg::Param(_, _, extent) => {
                        let buf = Buffer::zeroed(vec![*extent], vec![0]);
                        args.push(RtValue::MemRef(m.store.alloc(buf)));
                    }
                    shmls_frontend::KernelArg::Const(_) => args.push(RtValue::F64(0.25)),
                }
            }
            m.call(fname, &args).unwrap();
            field_handles
                .iter()
                .map(|&h| m.store.get(h).unwrap().clone())
                .collect()
        };

        let reference = run(&sig.name);
        let cpu = run(&format!("{}_cpu", sig.name));
        for (f, (r, c)) in reference.iter().zip(&cpu).enumerate() {
            for p in shmls_ir::interp::iter_box(&interior.lb, &interior.ub) {
                let rv = r.load(&p).unwrap();
                let cv = c.load(&p).unwrap();
                assert!((rv - cv).abs() < 1e-12, "field {f} at {p:?}: {rv} vs {cv}");
            }
        }
    }

    #[test]
    fn laplace_cpu_matches_reference() {
        cross_check(LAPLACE);
    }

    #[test]
    fn chain_cpu_matches_reference() {
        cross_check(CHAIN);
    }

    #[test]
    fn cpu_structure_is_loops() {
        let k = parse_kernel(LAPLACE).unwrap();
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        let cpu = stencil_to_cpu(&mut ctx, lowered.func).unwrap();
        // The CPU function contains no stencil.apply, only loops.
        assert!(ctx.find_ops(cpu, stencil::APPLY).is_empty());
        // rank-2 apply nest + rank-2 store-copy nest.
        assert_eq!(ctx.find_ops(cpu, scf::FOR).len(), 4);
        assert!(!ctx.find_ops(cpu, memref::LOAD).is_empty());
        let _ = module;
    }
}
