//! Stencil fusion: merge the `stencil.apply` ops of a function into one
//! multi-result apply.
//!
//! §3.3 step 4 of the paper observes that *"the stencil transformations for
//! the CPU or GPU favour fusing stencils together for fewer, larger stencil
//! regions"* — this is that CPU/GPU-favoured form. Its production caller is
//! the host form ([`crate::driver::HostForm`]): the vector tier runs each
//! kernel fused, so a point's inputs are read once for all its fields. It
//! is also the input situation that the FPGA-specific *split*
//! transformation ([`crate::split`]) undoes, so the pair expresses both
//! ends of the paper's trade-off.
//!
//! Producer→consumer dependencies between applies are legal as long as the
//! consumer reads the produced temp only at offset 0 (the frontend enforces
//! this); fusion replaces such reads with the producer's yielded SSA value,
//! and a produced temp nothing outside the fused applies reads is no
//! longer a result at all.

use shmls_dialects::stencil;
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure};

/// Fuse all `stencil.apply` ops directly inside `func`'s entry block into a
/// single multi-result apply. Returns the fused op (or the single existing
/// apply when there is nothing to do).
pub fn fuse_applies(ctx: &mut Context, func: OpId) -> IrResult<OpId> {
    let entry = ctx
        .entry_block(func)
        .ok_or_else(|| shmls_ir::ir_error!("fuse: function has no body"))?;
    let applies: Vec<OpId> = ctx
        .block_ops(entry)
        .iter()
        .copied()
        .filter(|&o| ctx.op_name(o) == stencil::APPLY)
        .collect();
    if applies.is_empty() {
        ir_bail!("fuse: function contains no stencil.apply");
    }
    if applies.len() == 1 {
        return Ok(applies[0]);
    }

    // Results of the applies being fused (they become internal values).
    // One stays a result of the fused apply when anything else reads it,
    // or when nothing does at all (a dead compute keeps its result); one
    // that only later applies read is computed and consumed per point.
    let fused_results: Vec<ValueId> = (applies.iter())
        .flat_map(|&a| ctx.results(a).iter().copied())
        .collect();
    let kept: Vec<ValueId> = (fused_results.iter().copied())
        .filter(|&r| {
            let uses = ctx.value_uses(r);
            uses.is_empty() || uses.iter().any(|u| !applies.contains(&u.op))
        })
        .collect();

    // Combined external operands, in first-use order, deduplicated.
    let mut operands: Vec<ValueId> = Vec::new();
    for &a in &applies {
        for &o in ctx.operands(a) {
            if !fused_results.contains(&o) && !operands.contains(&o) {
                operands.push(o);
            }
        }
    }

    let result_types: Vec<Type> = kept.iter().map(|&r| ctx.value_type(r).clone()).collect();

    // Build the fused apply before the first original apply.
    let mut b = OpBuilder::before(ctx, applies[0]);
    let (fused, body) = stencil::apply(&mut b, operands.clone(), result_types);
    let body_args = ctx.block_args(body).to_vec();

    // external operand value -> fused block arg
    let arg_for: IdMap<ValueId, ValueId> = operands
        .iter()
        .copied()
        .zip(body_args.iter().copied())
        .collect();
    // old apply result -> per-point SSA value inside the fused body
    let mut produced: IdMap<ValueId, ValueId> = IdMap::default();

    for &a in &applies {
        let src_block = ctx.entry_block(a).expect("apply has a body");
        // The body's arguments become the fused apply's; one bound to an
        // earlier apply's result maps to that result, whose accesses are
        // rewritten below.
        let mut temp_of: IdMap<ValueId, ValueId> = IdMap::default();
        for (i, &src_arg) in ctx.block_args(src_block).to_vec().iter().enumerate() {
            let operand = ctx.operands(a)[i];
            match arg_for.get(&operand) {
                Some(&fused_arg) => ctx.replace_all_uses(src_arg, fused_arg),
                None => {
                    temp_of.insert(src_arg, operand);
                }
            }
        }
        // The body's ops move into the fused body as they are, keeping
        // their values; the return and the rewritten accesses stay behind
        // and go with the apply.
        for op in ctx.block_ops(src_block).to_vec() {
            if ctx.op_name(op) == stencil::RETURN {
                // This apply's per-point values, for later consumers and
                // the fused return.
                for (&r, &v) in ctx.results(a).iter().zip(ctx.operands(op)) {
                    let v = temp_of.get(&v).map_or(v, |t| produced[t]);
                    produced.insert(r, v);
                }
                continue;
            }
            if ctx.op_name(op) == stencil::ACCESS {
                if let Some(temp) = temp_of.get(&ctx.operands(op)[0]) {
                    // Access to a fused producer: must be the centre point.
                    let offset = stencil::access_offset(ctx, op)
                        .ok_or_else(|| shmls_ir::ir_error!("access without offset"))?;
                    ir_ensure!(
                        offset.iter().all(|&o| o == 0),
                        "fuse: access to a produced temp at non-zero offset {offset:?}"
                    );
                    let inline_value = produced[temp];
                    ctx.replace_all_uses(ctx.result(op, 0), inline_value);
                    continue;
                }
            }
            ctx.detach_op(op);
            ctx.append_op(body, op);
        }
    }

    let mut eb = OpBuilder::at_block_end(ctx, body);
    stencil::return_op(&mut eb, kept.iter().map(|r| produced[r]).collect());

    // Rewire external uses (stencil.store etc.) and erase the originals,
    // consumers first.
    for (i, &old) in kept.iter().enumerate() {
        let new = ctx.result(fused, i);
        ctx.replace_all_uses(old, new);
    }
    for &a in applies.iter().rev() {
        ctx.erase_op(a);
    }
    Ok(fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue};
    use shmls_ir::verifier::verify_with;

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

    fn lower(src: &str) -> (Context, OpId, OpId) {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (m, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        (ctx, m, lowered.func)
    }

    #[test]
    fn chain_fuses_to_one_apply() {
        let (mut ctx, module, func) = lower(CHAIN);
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 2);
        let fused = fuse_applies(&mut ctx, func).unwrap();
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 1);
        // `t` is read by `b`'s compute alone: no longer a result.
        assert_eq!(ctx.results(fused).len(), 1);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
    }

    #[test]
    fn fused_chain_computes_same_values() {
        let (mut ctx, module, func) = lower(CHAIN);
        fuse_applies(&mut ctx, func).unwrap();
        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        let mut a = Buffer::zeroed(vec![8], vec![-1]);
        for i in -1..7i64 {
            a.store(&[i], (i * i) as f64).unwrap();
        }
        let a_h = m.store.alloc(a);
        let b_h = m.store.alloc(Buffer::zeroed(vec![8], vec![-1]));
        m.call("chain", &[RtValue::MemRef(a_h), RtValue::MemRef(b_h)])
            .unwrap();
        for i in 0..6i64 {
            let got = m.store.get(b_h).unwrap().load(&[i]).unwrap();
            let expect = 2.0 * (i * i) as f64 + ((i + 1) * (i + 1)) as f64;
            assert_eq!(got, expect, "i={i}");
        }
    }

    #[test]
    fn independent_computes_fuse() {
        let src = r#"
kernel indep {
  grid(4, 4)
  halo 1
  field a : input
  field b : output
  field c : output
  compute b { b = a[1,0] }
  compute c { c = a[-1,0] }
}
"#;
        let (mut ctx, module, func) = lower(src);
        let fused = fuse_applies(&mut ctx, func).unwrap();
        assert_eq!(ctx.results(fused).len(), 2);
        // Both stores must now point at the fused op.
        for s in ctx.find_ops(module, stencil::STORE) {
            let temp = ctx.operands(s)[0];
            assert_eq!(ctx.defining_op(temp), Some(fused));
        }
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
    }

    #[test]
    fn single_apply_is_noop() {
        let src = r#"
kernel single {
  grid(4)
  halo 0
  field a : input
  field b : output
  compute b { b = a[0] }
}
"#;
        let (mut ctx, module, func) = lower(src);
        let before = ctx.num_ops();
        fuse_applies(&mut ctx, func).unwrap();
        assert_eq!(ctx.num_ops(), before);
        let _ = module;
    }
}
