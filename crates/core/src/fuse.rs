//! Stencil fusion: merge the `stencil.apply` ops of a function into one
//! multi-result apply.
//!
//! §3.3 step 4 of the paper observes that *"the stencil transformations for
//! the CPU or GPU favour fusing stencils together for fewer, larger stencil
//! regions"* — this pass is that CPU/GPU-favoured form. It is the input
//! situation that the FPGA-specific *split* transformation
//! ([`crate::split`]) undoes, so the pair lets us express both ends of the
//! paper's trade-off and benchmark the difference (the `3(split)` factor of
//! the paper's §4 speed-up decomposition).
//!
//! Producer→consumer dependencies between applies are legal as long as the
//! consumer reads the produced temp only at offset 0 (the frontend enforces
//! this); fusion replaces such reads with the producer's yielded SSA value.

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
    let mut fused_results: Vec<ValueId> = Vec::new();
    for &a in &applies {
        fused_results.extend(ctx.results(a).iter().copied());
    }

    // Combined external operands, in first-use order, deduplicated.
    let mut operands: Vec<ValueId> = Vec::new();
    for &a in &applies {
        for &o in ctx.operands(a) {
            if !fused_results.contains(&o) && !operands.contains(&o) {
                operands.push(o);
            }
        }
    }

    let result_types: Vec<Type> = applies
        .iter()
        .flat_map(|&a| ctx.results(a).iter().map(|&r| ctx.value_type(r).clone()))
        .collect();

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
    let mut yielded: Vec<ValueId> = Vec::new();

    for &a in &applies {
        let src_block = ctx.entry_block(a).expect("apply has a body");
        // old body block arg -> value in the fused body
        let mut vmap: IdMap<ValueId, ValueId> = IdMap::default();
        for (i, &src_arg) in ctx.block_args(src_block).to_vec().iter().enumerate() {
            let operand = ctx.operands(a)[i];
            if let Some(&fused_arg) = arg_for.get(&operand) {
                vmap.insert(src_arg, fused_arg);
            } else {
                // Operand is an earlier apply's result; accesses to it are
                // rewritten below, so map the arg to a placeholder that we
                // must never materialise as an operand.
                vmap.insert(src_arg, operand);
            }
        }
        let src_ops = ctx.block_ops(src_block).to_vec();
        for op in src_ops {
            let name = ctx.op_name(op).to_string();
            if name == stencil::RETURN {
                for &v in &ctx.operands(op).to_vec() {
                    let mapped = vmap.get(&v).copied().unwrap_or(v);
                    yielded.push(mapped);
                }
                continue;
            }
            if name == stencil::ACCESS {
                let operand = ctx.operands(op)[0];
                let mapped = vmap.get(&operand).copied().unwrap_or(operand);
                if let Some(&inline_value) = produced.get(&mapped) {
                    // Access to a fused producer: must be the centre point.
                    let offset = stencil::access_offset(ctx, op)
                        .ok_or_else(|| shmls_ir::ir_error!("access without offset"))?;
                    ir_ensure!(
                        offset.iter().all(|&o| o == 0),
                        "fuse: access to a produced temp at non-zero offset {offset:?}"
                    );
                    vmap.insert(ctx.result(op, 0), inline_value);
                    continue;
                }
            }
            // `clone_op` records the clone's results in `vmap`.
            let cloned = ctx.clone_op(op, &mut vmap);
            ctx.append_op(body, cloned);
        }
        // Record this apply's per-point values for later consumers.
        let n_results = ctx.results(a).len();
        let start = yielded.len() - n_results;
        for (i, &r) in ctx.results(a).to_vec().iter().enumerate() {
            produced.insert(r, yielded[start + i]);
        }
    }

    let mut eb = OpBuilder::at_block_end(ctx, body);
    stencil::return_op(&mut eb, yielded);

    // Rewire external uses (stencil.store etc.) and erase the originals.
    let mut out_idx = 0;
    for &a in &applies {
        for i in 0..ctx.results(a).len() {
            let old = ctx.result(a, i);
            let new = ctx.result(fused, out_idx);
            out_idx += 1;
            ctx.replace_all_uses(old, new);
        }
    }
    for &a in applies.iter().rev() {
        ctx.erase_op(a);
    }
    // Some fused results may now be unused (pure intermediates); that is
    // fine — stencil.apply may yield values nobody stores.
    Ok(fused)
}

/// [`shmls_ir::pass::Pass`] wrapper for pipeline use (named `"fuse"`):
/// fuses the applies of every function that contains any, skipping
/// stencil-free functions instead of erroring like [`fuse_applies`].
///
/// This is the CPU/GPU-favoured form; the FPGA pipeline follows it with
/// [`crate::split::SplitPass`] only in experiments that measure the
/// paper's `3 (split)` ablation factor — splitting a fused apply
/// duplicates each consumer's producer cone, which is exactly the
/// trade-off being measured.
pub struct FusePass;

impl shmls_ir::pass::Pass for FusePass {
    fn name(&self) -> &str {
        "fuse"
    }

    fn run(&self, ctx: &mut Context, root: OpId) -> IrResult<()> {
        for func in ctx.find_ops(root, shmls_dialects::func::FUNC) {
            if !ctx.find_ops(func, stencil::APPLY).is_empty() {
                fuse_applies(ctx, func)?;
            }
        }
        Ok(())
    }
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
        assert_eq!(ctx.results(fused).len(), 2);
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
