//! Transformation step 4: separation of stencil fields in `stencil.apply`.
//!
//!> *"on the FPGA to obtain optimal throughput it is better for the
//! > calculations involved for each stencil field to be split into separate
//! > dataflow regions that can run concurrently."* (§3.3 step 4)
//!
//! Splits every multi-result `stencil.apply` into one apply per result —
//! each later becoming its own concurrent compute stage — and prunes the
//! per-copy bodies with dead-code elimination so each stage keeps only the
//! calculation feeding its own field.

use shmls_dialects::stencil;
use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::rewrite::dead_code_elimination;

/// Split all multi-result `stencil.apply` ops under `root`. Returns the
/// number of applies created.
pub fn split_applies(ctx: &mut Context, root: OpId) -> IrResult<usize> {
    let mut created = 0;
    for apply in ctx.find_ops(root, stencil::APPLY) {
        let n = ctx.results(apply).len();
        if n <= 1 {
            continue;
        }
        created += split_one(ctx, apply)?;
    }
    Ok(created)
}

fn split_one(ctx: &mut Context, apply: OpId) -> IrResult<usize> {
    let n = ctx.results(apply).len();
    let operands = ctx.operands(apply).to_vec();
    let src_block = ctx.entry_block(apply).expect("apply has a body");
    let src_args = ctx.block_args(src_block).to_vec();
    let src_ops = ctx.block_ops(src_block).to_vec();
    let term = *src_ops.last().expect("apply has a terminator");

    let mut new_results: Vec<ValueId> = Vec::with_capacity(n);
    for i in 0..n {
        let result_ty = ctx.value_type(ctx.result(apply, i)).clone();
        let mut b = OpBuilder::before(ctx, apply);
        let (new_apply, new_block) = stencil::apply(&mut b, operands.clone(), vec![result_ty]);
        // Clone the whole body, then retarget the terminator to yield only
        // result `i`, and DCE the rest.
        let mut vmap: IdMap<ValueId, ValueId> = src_args
            .iter()
            .copied()
            .zip(ctx.block_args(new_block).to_vec())
            .collect();
        for op in &src_ops {
            if *op == term {
                continue;
            }
            let cloned = ctx.clone_op(*op, &mut vmap);
            ctx.append_op(new_block, cloned);
        }
        let yielded_old = ctx.operands(term)[i];
        let yielded_new = vmap.get(&yielded_old).copied().unwrap_or(yielded_old);
        let mut eb = OpBuilder::at_block_end(ctx, new_block);
        stencil::return_op(&mut eb, vec![yielded_new]);
        dead_code_elimination(ctx, new_apply, &shmls_dialects::is_pure);
        new_results.push(ctx.result(new_apply, 0));
    }

    for (i, &new_result) in new_results.iter().enumerate() {
        let old = ctx.result(apply, i);
        ctx.replace_all_uses(old, new_result);
    }
    ctx.erase_op(apply);
    Ok(n)
}

/// [`shmls_ir::pass::Pass`] wrapper for pipeline use (named `"split"`).
///
/// A no-op on functions whose applies are already single-result — the
/// frontend emits that form — so it doubles as the pipeline's guarantee of
/// [`crate::hmls::stencil_to_hls`]'s single-result precondition.
pub struct SplitPass;

impl shmls_ir::pass::Pass for SplitPass {
    fn name(&self) -> &str {
        "split"
    }

    fn run(&self, ctx: &mut Context, root: OpId) -> IrResult<()> {
        split_applies(ctx, root)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::fuse_applies;
    use shmls_dialects::builtin::create_module;
    use shmls_frontend::{lower_kernel, parse_kernel};
    use shmls_ir::interp::{Buffer, Machine, NoExtern, RtValue};
    use shmls_ir::verifier::verify_with;

    const INDEP: &str = r#"
kernel indep {
  grid(4, 4)
  halo 1
  field a : input
  field b : output
  field c : output
  compute b { b = a[1,0] + a[-1,0] }
  compute c { c = a[0,1] * 3.0 }
}
"#;

    fn fused_module(src: &str) -> (Context, OpId, OpId) {
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (m, body) = create_module(&mut ctx);
        let lowered = lower_kernel(&mut ctx, body, &k).unwrap();
        fuse_applies(&mut ctx, lowered.func).unwrap();
        (ctx, m, lowered.func)
    }

    #[test]
    fn split_restores_per_field_applies() {
        let (mut ctx, module, _f) = fused_module(INDEP);
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 1);
        let created = split_applies(&mut ctx, module).unwrap();
        assert_eq!(created, 2);
        let applies = ctx.find_ops(module, stencil::APPLY);
        assert_eq!(applies.len(), 2);
        verify_with(&ctx, module, &shmls_dialects::registry()).unwrap();
        // DCE must have pruned each body: the `b` stage has 2 accesses +
        // addf + return; the `c` stage has 1 access + constant + mulf +
        // return. Neither should contain the other's ops.
        let sizes: Vec<usize> = applies
            .iter()
            .map(|&a| ctx.block_ops(ctx.entry_block(a).unwrap()).len())
            .collect();
        assert!(sizes.contains(&4), "expected a 4-op body, got {sizes:?}");
    }

    #[test]
    fn split_preserves_semantics() {
        let (mut ctx, module, _f) = fused_module(INDEP);
        split_applies(&mut ctx, module).unwrap();
        let mut no = NoExtern;
        let mut m = Machine::new(&ctx, module, &mut no);
        let mut a = Buffer::zeroed(vec![6, 6], vec![-1, -1]);
        for p in shmls_ir::interp::iter_box(&[-1, -1], &[5, 5]) {
            a.store(&p, (p[0] * 7 + p[1]) as f64).unwrap();
        }
        let a_h = m.store.alloc(a.clone());
        let b_h = m.store.alloc(Buffer::zeroed(vec![6, 6], vec![-1, -1]));
        let c_h = m.store.alloc(Buffer::zeroed(vec![6, 6], vec![-1, -1]));
        m.call(
            "indep",
            &[
                RtValue::MemRef(a_h),
                RtValue::MemRef(b_h),
                RtValue::MemRef(c_h),
            ],
        )
        .unwrap();
        for p in shmls_ir::interp::iter_box(&[0, 0], &[4, 4]) {
            let (i, j) = (p[0], p[1]);
            let b = m.store.get(b_h).unwrap().load(&p).unwrap();
            let c = m.store.get(c_h).unwrap().load(&p).unwrap();
            assert_eq!(
                b,
                a.load(&[i + 1, j]).unwrap() + a.load(&[i - 1, j]).unwrap()
            );
            assert_eq!(c, a.load(&[i, j + 1]).unwrap() * 3.0);
        }
    }

    #[test]
    fn single_result_apply_untouched() {
        let src = r#"
kernel single {
  grid(4)
  halo 0
  field a : input
  field b : output
  compute b { b = a[0] }
}
"#;
        let k = parse_kernel(src).unwrap();
        let mut ctx = Context::new();
        let (m, body) = create_module(&mut ctx);
        let _ = lower_kernel(&mut ctx, body, &k).unwrap();
        let created = split_applies(&mut ctx, m).unwrap();
        assert_eq!(created, 0);
    }

    #[test]
    fn fuse_then_split_round_trips_op_count() {
        let (mut ctx, module, _f) = fused_module(INDEP);
        split_applies(&mut ctx, module).unwrap();
        // Round trip: 2 applies as in the original frontend output.
        assert_eq!(ctx.find_ops(module, stencil::APPLY).len(), 2);
    }
}
