//! Post-transform stream-graph verification.
//!
//! The stencil-to-HLS transform must emit a well-formed Kahn network:
//! every FIFO created by `hls.create_stream` needs exactly the producers
//! and consumers that keep tokens flowing. A stream that is written but
//! never drained fills up and blocks its producer; a stream that is read
//! but never fed starves its consumer — both are guaranteed deadlocks
//! under bounded FIFOs (the StencilFlow failure mode the paper reports as
//! runs that never finish). This verifier walks the generated function's
//! stream graph and rejects such designs at compile time, naming the
//! offending stream and stage.

use std::collections::BTreeMap;

use shmls_dialects::{func, hls};
use shmls_ir::error::IrResult;
use shmls_ir::ir_bail;
use shmls_ir::prelude::*;

/// How each stream is touched, for diagnostics: stage labels that push
/// into it and stage labels that pop from it.
#[derive(Debug, Default, Clone)]
struct StreamUse {
    producers: Vec<String>,
    consumers: Vec<String>,
}

/// Record the stream operands of `op` (reads and writes) against `label`.
fn record_op(
    ctx: &Context,
    op: OpId,
    label: &str,
    handles: &BTreeMap<ValueId, usize>,
    uses: &mut [StreamUse],
) -> IrResult<()> {
    let operands = ctx.operands(op);
    let handle = |v: &ValueId| handles.get(v).copied();
    let (consumed, produced) = match ctx.op_name(op) {
        hls::READ => (operands.get(..1).unwrap_or_default(), &operands[..0]),
        hls::WRITE => (&operands[..0], operands.get(1..2).unwrap_or_default()),
        func::CALL => match hls::decode_runtime_call(ctx, op, operands)? {
            Some(call) => (call.consumed, call.produced),
            None => {
                // Any other call touching a stream is outside the known
                // runtime contract — reject rather than mis-count.
                if operands.iter().any(|v| handles.contains_key(v)) {
                    ir_bail!(
                        "connectivity: call to {:?} in {label} passes a stream \
                         but is not a known runtime function",
                        func::callee(ctx, op).unwrap_or("<unknown>")
                    );
                }
                return Ok(());
            }
        },
        _ => return Ok(()),
    };
    for h in consumed.iter().filter_map(handle) {
        uses[h].consumers.push(label.to_string());
    }
    for h in produced.iter().filter_map(handle) {
        uses[h].producers.push(label.to_string());
    }
    Ok(())
}

/// Verify that every stream in `hls_func` has at least one producer and at
/// least one consumer. Returns an error naming the offending stream handle
/// and stage label otherwise.
pub fn verify_connectivity(ctx: &Context, hls_func: OpId) -> IrResult<()> {
    let name = func::func_name(ctx, hls_func).unwrap_or("<anon>");
    // Stream handles are assigned in creation order at runtime; the ops
    // appear in the same (program) order in the entry block.
    let creates = ctx.find_ops(hls_func, hls::CREATE_STREAM);
    let handles: BTreeMap<ValueId, usize> = creates
        .iter()
        .enumerate()
        .map(|(i, &op)| (ctx.result(op, 0), i))
        .collect();
    let mut uses = vec![StreamUse::default(); creates.len()];

    let Some(entry) = ctx.entry_block(hls_func) else {
        return Ok(()); // a declaration has no streams to verify
    };
    let mut stage_idx = 0usize;
    for &op in ctx.block_ops(entry) {
        if ctx.op_name(op) == hls::DATAFLOW {
            let label = format!("stage{stage_idx}:{}", hls::stage_role(ctx, op));
            stage_idx += 1;
            for kind in [hls::READ, hls::WRITE, func::CALL] {
                for inner in ctx.find_ops(op, kind) {
                    record_op(ctx, inner, &label, &handles, &mut uses)?;
                }
            }
        } else {
            record_op(ctx, op, "init", &handles, &mut uses)?;
        }
    }

    for (h, u) in uses.iter().enumerate() {
        match (u.producers.is_empty(), u.consumers.is_empty()) {
            (false, false) => {}
            (true, true) => ir_bail!(
                "connectivity: `{name}` creates stream {h} but no stage reads or writes it"
            ),
            (true, false) => ir_bail!(
                "connectivity: `{name}` stream {h} has no producer but is read by {}",
                u.consumers.join(", ")
            ),
            (false, true) => ir_bail!(
                "connectivity: `{name}` stream {h} has no consumer but is written by {} \
                 — an unconsumed producer deadlocks under bounded FIFOs",
                u.producers.join(", ")
            ),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_dialects::builtin::create_module;
    use shmls_dialects::{arith, func as fdial};
    use shmls_ir::builder::OpBuilder;

    /// A `func.func` whose entry block is filled in by `build`.
    fn func_with(build: impl FnOnce(&mut Context, BlockId)) -> (Context, OpId) {
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let (f, entry) = fdial::create_func(&mut ctx, body, "k", vec![], vec![]);
        build(&mut ctx, entry);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        fdial::ret(&mut b, vec![]);
        (ctx, f)
    }

    #[test]
    fn balanced_stream_passes() {
        let (ctx, f) = func_with(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, 4);
            let (_p, pbody) = hls::dataflow(&mut b);
            let mut pb = OpBuilder::at_block_end(ctx, pbody);
            let v = arith::constant_f64(&mut pb, 1.0);
            hls::write(&mut pb, v, s);
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let (_c, cbody) = hls::dataflow(&mut b);
            let mut cb = OpBuilder::at_block_end(ctx, cbody);
            let _ = hls::read(&mut cb, s);
        });
        verify_connectivity(&ctx, f).unwrap();
    }

    #[test]
    fn unconsumed_producer_is_rejected_naming_stream_and_stage() {
        // A stage pushes into stream 0 but nothing ever drains it — the
        // exact shape a dead compute stage would leave behind.
        let (ctx, f) = func_with(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, 4);
            let (_p, pbody) = hls::dataflow(&mut b);
            let mut pb = OpBuilder::at_block_end(ctx, pbody);
            let v = arith::constant_f64(&mut pb, 1.0);
            hls::write(&mut pb, v, s);
        });
        let e = verify_connectivity(&ctx, f).unwrap_err().to_string();
        assert!(e.contains("stream 0"), "{e}");
        assert!(e.contains("no consumer"), "{e}");
        assert!(e.contains("stage0:compute"), "{e}");
    }

    #[test]
    fn unfed_consumer_is_rejected() {
        let (ctx, f) = func_with(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let s = hls::create_stream(&mut b, Type::F64, 4);
            let (_c, cbody) = hls::dataflow(&mut b);
            let mut cb = OpBuilder::at_block_end(ctx, cbody);
            let _ = hls::read(&mut cb, s);
        });
        let e = verify_connectivity(&ctx, f).unwrap_err().to_string();
        assert!(e.contains("stream 0"), "{e}");
        assert!(e.contains("no producer"), "{e}");
        assert!(e.contains("stage0:compute"), "{e}");
    }

    #[test]
    fn orphan_stream_is_rejected() {
        let (ctx, f) = func_with(|ctx, entry| {
            let mut b = OpBuilder::at_block_end(ctx, entry);
            let _s = hls::create_stream(&mut b, Type::F64, 4);
        });
        let e = verify_connectivity(&ctx, f).unwrap_err().to_string();
        assert!(e.contains("stream 0"), "{e}");
        assert!(e.contains("no stage reads or writes"), "{e}");
    }
}
