//! `hls` dialect: the paper's contribution (1) — a vendor-agnostic MLIR
//! dialect abstracting the high-level-synthesis features of AMD Xilinx
//! Vitis (Listings 2 and 3 of the paper).
//!
//! The ten operations:
//!
//! | op | meaning |
//! |---|---|
//! | `hls.create_stream` | create a FIFO stream of the result's element type |
//! | `hls.read` | blocking pop from a stream |
//! | `hls.write` | blocking push into a stream |
//! | `hls.empty` | non-blocking emptiness test |
//! | `hls.full` | non-blocking fullness test |
//! | `hls.pipeline` | request a pipelined loop with the given II |
//! | `hls.unroll` | request loop unrolling with the given factor |
//! | `hls.array_partition` | partition a local array across BRAMs |
//! | `hls.dataflow` | a region whose top-level stages run concurrently |
//! | `hls.interface` | bind a kernel argument to an AXI bundle/port |
//!
//! The paper's `hls.streamtype` attribute is realised as the
//! `!hls.stream<T>` type; `hls.axi_protocol` as the `protocol` attribute of
//! `hls.interface`.
//!
//! The module also owns the *runtime-stage vocabulary*: the five functions
//! of the paper's C++ runtime that a generated design calls
//! ([`RuntimeKind`]), the operand and attribute layout of such a call
//! ([`runtime_call`] writes it, [`decode_runtime_call`] reads it back into
//! a [`RuntimeCall`]) and the runtime function a dataflow stage is built
//! around ([`stage_kind`]). The transform that emits the calls and every
//! engine and model that consumes them go through these, so the format is
//! spelled once.

use shmls_ir::error::IrResult;
use shmls_ir::prelude::*;
use shmls_ir::{ir_ensure, ir_error};

use crate::func;

/// `hls.create_stream` op name.
pub const CREATE_STREAM: &str = "hls.create_stream";
/// `hls.read` op name.
pub const READ: &str = "hls.read";
/// `hls.write` op name.
pub const WRITE: &str = "hls.write";
/// `hls.empty` op name.
pub const EMPTY: &str = "hls.empty";
/// `hls.full` op name.
pub const FULL: &str = "hls.full";
/// `hls.pipeline` op name.
pub const PIPELINE: &str = "hls.pipeline";
/// `hls.unroll` op name.
pub const UNROLL: &str = "hls.unroll";
/// `hls.array_partition` op name.
pub const ARRAY_PARTITION: &str = "hls.array_partition";
/// `hls.dataflow` op name.
pub const DATAFLOW: &str = "hls.dataflow";
/// `hls.interface` op name.
pub const INTERFACE: &str = "hls.interface";

/// Default stream depth used when none is requested (matches the Vitis
/// default FIFO depth of 2, which the paper's runtime deepens for the
/// shift-buffer streams).
pub const DEFAULT_STREAM_DEPTH: i64 = 2;

/// AXI4 memory-mapped protocol name used by `hls.interface`.
pub const AXI4: &str = "m_axi";

/// Build `hls.create_stream` carrying elements of `elem` with FIFO `depth`.
pub fn create_stream(b: &mut OpBuilder<'_>, elem: Type, depth: i64) -> ValueId {
    let attrs = [("depth".to_string(), Attribute::int(depth))];
    let op = b.build_with_attrs(CREATE_STREAM, vec![], vec![Type::hls_stream(elem)], attrs);
    b.ctx_ref().result(op, 0)
}

/// Build a blocking `hls.read` from `stream`.
pub fn read(b: &mut OpBuilder<'_>, stream: ValueId) -> ValueId {
    let elem = b
        .ctx_ref()
        .value_type(stream)
        .element_type()
        .expect("hls.read on non-stream")
        .clone();
    b.build_value(READ, vec![stream], elem)
}

/// Build a blocking `hls.write` of `value` into `stream`.
pub fn write(b: &mut OpBuilder<'_>, value: ValueId, stream: ValueId) -> OpId {
    b.build(WRITE, vec![value, stream], vec![])
}

/// Build `hls.empty`.
pub fn empty(b: &mut OpBuilder<'_>, stream: ValueId) -> ValueId {
    b.build_value(EMPTY, vec![stream], Type::I1)
}

/// Build `hls.full`.
pub fn full(b: &mut OpBuilder<'_>, stream: ValueId) -> ValueId {
    b.build_value(FULL, vec![stream], Type::I1)
}

/// Build `hls.pipeline` requesting initiation interval `ii` for the
/// enclosing loop.
pub fn pipeline(b: &mut OpBuilder<'_>, ii: i64) -> OpId {
    let attrs = [("ii".to_string(), Attribute::int(ii))];
    b.build_with_attrs(PIPELINE, vec![], vec![], attrs)
}

/// Build `hls.unroll` requesting the given unroll factor (0 = full unroll)
/// for the enclosing loop.
pub fn unroll(b: &mut OpBuilder<'_>, factor: i64) -> OpId {
    let attrs = [("factor".to_string(), Attribute::int(factor))];
    b.build_with_attrs(UNROLL, vec![], vec![], attrs)
}

/// Build `hls.array_partition` on a local memref.
/// `kind` is `"cyclic"`, `"block"` or `"complete"`.
pub fn array_partition(
    b: &mut OpBuilder<'_>,
    memref: ValueId,
    kind: &str,
    factor: i64,
    dim: i64,
) -> OpId {
    let attrs = [
        ("kind".to_string(), Attribute::string(kind)),
        ("factor".to_string(), Attribute::int(factor)),
        ("dim".to_string(), Attribute::int(dim)),
    ];
    b.build_with_attrs(ARRAY_PARTITION, vec![memref], vec![], attrs)
}

/// Build an `hls.dataflow` region op, returning `(op, body_block)`.
/// All function calls / loops at the top level of the body are separate
/// concurrent dataflow stages connected by streams.
pub fn dataflow(b: &mut OpBuilder<'_>) -> (OpId, BlockId) {
    b.build_with_region(DATAFLOW, vec![], vec![], [], vec![])
}

/// Build `hls.interface` binding kernel argument `value` to an AXI bundle.
pub fn interface(b: &mut OpBuilder<'_>, value: ValueId, protocol: &str, bundle: &str) -> OpId {
    let attrs = [
        ("protocol".to_string(), Attribute::string(protocol)),
        ("bundle".to_string(), Attribute::string(bundle)),
    ];
    b.build_with_attrs(INTERFACE, vec![value], vec![], attrs)
}

/// The `ii` of an `hls.pipeline`.
pub fn pipeline_ii(ctx: &Context, op: OpId) -> Option<i64> {
    ctx.attr(op, "ii").and_then(Attribute::as_int)
}

/// The `depth` of an `hls.create_stream`.
pub fn stream_depth(ctx: &Context, op: OpId) -> i64 {
    ctx.attr(op, "depth")
        .and_then(Attribute::as_int)
        .unwrap_or(DEFAULT_STREAM_DEPTH)
}

/// The `(protocol, bundle)` of an `hls.interface`.
pub fn interface_binding(ctx: &Context, op: OpId) -> Option<(&str, &str)> {
    let protocol = ctx.attr(op, "protocol")?.as_str()?;
    let bundle = ctx.attr(op, "bundle")?.as_str()?;
    Some((protocol, bundle))
}

/// A function of the runtime the generated design links against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// `load_data(ptrs…, streams…) {extents, halo, fields}` — read every
    /// field from external memory in 512-bit beats, feeding one element
    /// stream per field.
    LoadData,
    /// `shift_buffer(elem_in, window_out) {extents, halo}` — element
    /// stream → window stream.
    ShiftBuffer,
    /// `halo_merge(ptr, result_in, elem_out) {extents, halo}` — the
    /// temporal-blocking seam: the previous step's result stream over the
    /// interior, the halo ring from the field's buffer.
    HaloMerge,
    /// `write_data(streams…, ptrs…) {extents, halo, fields}` — drain the
    /// result streams to external memory in 512-bit beats.
    WriteData,
    /// `copy_small_data(src, dst) {elements}` — kernel-init copy of small
    /// data into BRAM.
    CopySmallData,
}

impl RuntimeKind {
    /// Every runtime function.
    pub const ALL: [RuntimeKind; 5] = [
        RuntimeKind::LoadData,
        RuntimeKind::ShiftBuffer,
        RuntimeKind::HaloMerge,
        RuntimeKind::WriteData,
        RuntimeKind::CopySmallData,
    ];

    /// The symbol a `func.call` names this function by.
    pub fn callee(self) -> &'static str {
        match self {
            RuntimeKind::LoadData => "load_data",
            RuntimeKind::ShiftBuffer => "shift_buffer",
            RuntimeKind::HaloMerge => "halo_merge",
            RuntimeKind::WriteData => "write_data",
            RuntimeKind::CopySmallData => "copy_small_data",
        }
    }

    /// The runtime function called `callee`, if it is one.
    pub fn from_callee(callee: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.callee() == callee)
    }
}

/// A runtime call taken apart. `T` is whatever stands for an operand where
/// the call is looked at: a [`ValueId`] in the IR, a runtime value in an
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeCall<'a, T> {
    /// Which runtime function.
    pub kind: RuntimeKind,
    /// External-memory (or, for `copy_small_data`, source and destination)
    /// buffers.
    pub pointers: &'a [T],
    /// Streams the call pops from.
    pub consumed: &'a [T],
    /// Streams the call pushes into.
    pub produced: &'a [T],
    /// The box the call walks: the halo-padded field for the stages that
    /// feed or shift, the interior for `write_data`. For `copy_small_data`
    /// the copied shape, stored as its element count — a decoded call has
    /// the one extent `[elements]`.
    pub extents: Vec<i64>,
    /// Halo width (0 for `copy_small_data`).
    pub halo: i64,
}

impl<T> RuntimeCall<'_, T> {
    /// Number of fields a `load_data` / `write_data` moves.
    pub fn fields(&self) -> usize {
        self.pointers.len()
    }
}

/// Build the `func.call` for `call` at `b`'s insertion point.
pub fn runtime_call(b: &mut OpBuilder<'_>, call: &RuntimeCall<'_, ValueId>) -> OpId {
    let operands = match call.kind {
        RuntimeKind::WriteData => [call.consumed, call.pointers].concat(),
        _ => [call.pointers, call.consumed, call.produced].concat(),
    };
    let op = func::call(b, call.kind.callee(), operands, vec![]);
    let ctx = b.ctx();
    if call.kind == RuntimeKind::CopySmallData {
        let elements = call.extents.iter().product();
        ctx.set_attr(op, "elements", Attribute::int(elements));
        return op;
    }
    ctx.set_attr(op, "extents", Attribute::IndexArray(call.extents.clone()));
    ctx.set_attr(op, "halo", Attribute::int(call.halo));
    if matches!(call.kind, RuntimeKind::LoadData | RuntimeKind::WriteData) {
        ctx.set_attr(op, "fields", Attribute::int(call.fields() as i64));
    }
    op
}

/// Take the runtime call `op` apart over `operands` — `ctx.operands(op)`,
/// or the same positions as runtime values. `Ok(None)` when `op` is not a
/// `func.call` to a runtime function; an error when its operands or
/// attributes do not fit the function's layout.
pub fn decode_runtime_call<'a, T>(
    ctx: &Context,
    op: OpId,
    operands: &'a [T],
) -> IrResult<Option<RuntimeCall<'a, T>>> {
    if ctx.op_name(op) != func::CALL {
        return Ok(None);
    }
    let Some(kind) = func::callee(ctx, op).and_then(RuntimeKind::from_callee) else {
        return Ok(None);
    };
    let name = kind.callee();
    let int_attr = |key: &str| ctx.attr(op, key).and_then(Attribute::as_int);
    let n = operands.len();
    let none: &[T] = &[];
    let (pointers, consumed, produced) = match kind {
        RuntimeKind::LoadData | RuntimeKind::WriteData => {
            ir_ensure!(n.is_multiple_of(2), "{name} takes pointer/stream pairs");
            if let Some(fields) = int_attr("fields") {
                ir_ensure!(
                    fields == (n / 2) as i64,
                    "{name} declares {fields} fields but has {n} operands"
                );
            }
            let (first, second) = operands.split_at(n / 2);
            if kind == RuntimeKind::LoadData {
                (first, none, second)
            } else {
                (second, first, none)
            }
        }
        RuntimeKind::ShiftBuffer => {
            ir_ensure!(n == 2, "{name} takes (elem_in, window_out)");
            (none, &operands[..1], &operands[1..])
        }
        RuntimeKind::HaloMerge => {
            ir_ensure!(n == 3, "{name} takes (ptr, result_in, elem_out)");
            (&operands[..1], &operands[1..2], &operands[2..])
        }
        RuntimeKind::CopySmallData => {
            ir_ensure!(n == 2, "{name} takes (src, dst)");
            (operands, none, none)
        }
    };
    let extents = if kind == RuntimeKind::CopySmallData {
        vec![int_attr("elements").unwrap_or(0)]
    } else {
        ctx.attr(op, "extents")
            .and_then(Attribute::as_index_array)
            .ok_or_else(|| ir_error!("{name} without extents attribute"))?
            .to_vec()
    };
    Ok(Some(RuntimeCall {
        kind,
        pointers,
        consumed,
        produced,
        extents,
        halo: int_attr("halo").unwrap_or(0),
    }))
}

/// The runtime function a dataflow stage is built around, if any
/// (`copy_small_data` runs at kernel init and makes no stage).
pub fn stage_kind(ctx: &Context, stage: OpId) -> Option<RuntimeKind> {
    ctx.find_ops(stage, func::CALL)
        .into_iter()
        .filter_map(|call| RuntimeKind::from_callee(func::callee(ctx, call)?))
        .find(|&kind| kind != RuntimeKind::CopySmallData)
}

/// Verifier rules for the hls dialect.
pub fn register_verifiers(v: &mut shmls_ir::verifier::OpVerifiers) {
    v.register(CREATE_STREAM, verify_create_stream);
    v.register(READ, verify_read);
    v.register(WRITE, verify_write);
    v.register(EMPTY, verify_stream_query);
    v.register(FULL, verify_stream_query);
    v.register(PIPELINE, verify_pipeline);
    v.register(UNROLL, verify_unroll);
    v.register(ARRAY_PARTITION, verify_array_partition);
    v.register(DATAFLOW, verify_dataflow);
    v.register(INTERFACE, verify_interface);
}

fn verify_create_stream(ctx: &Context, op: OpId) -> IrResult<()> {
    ir_ensure!(
        ctx.results(op).len() == 1,
        "hls.create_stream has one result"
    );
    let ty = ctx.value_type(ctx.result(op, 0));
    ir_ensure!(
        matches!(ty, Type::HlsStream(_)),
        "hls.create_stream result must be !hls.stream, got {ty}"
    );
    let depth = stream_depth(ctx, op);
    ir_ensure!(depth >= 1, "stream depth must be >= 1, got {depth}");
    Ok(())
}

fn verify_read(ctx: &Context, op: OpId) -> IrResult<()> {
    shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
    let ty = ctx.value_type(ctx.operands(op)[0]);
    let Type::HlsStream(elem) = ty else {
        shmls_ir::ir_bail!("hls.read operand must be a stream, got {ty}");
    };
    ir_ensure!(
        ctx.value_type(ctx.result(op, 0)) == elem.as_ref(),
        "hls.read result type must equal stream element type"
    );
    Ok(())
}

fn verify_write(ctx: &Context, op: OpId) -> IrResult<()> {
    ir_ensure!(
        ctx.operands(op).len() == 2,
        "hls.write takes value and stream"
    );
    let vty = ctx.value_type(ctx.operands(op)[0]);
    let sty = ctx.value_type(ctx.operands(op)[1]);
    let Type::HlsStream(elem) = sty else {
        shmls_ir::ir_bail!("hls.write target must be a stream, got {sty}");
    };
    ir_ensure!(
        vty == elem.as_ref(),
        "hls.write value type {vty} does not match stream element type {elem}"
    );
    Ok(())
}

/// `hls.empty` and `hls.full`.
fn verify_stream_query(ctx: &Context, op: OpId) -> IrResult<()> {
    shmls_ir::verifier::expect_counts(ctx, op, 1, 1)?;
    ir_ensure!(
        matches!(ctx.value_type(ctx.operands(op)[0]), Type::HlsStream(_)),
        "stream query operand must be a stream"
    );
    ir_ensure!(
        ctx.value_type(ctx.result(op, 0)) == &Type::I1,
        "stream query result must be i1"
    );
    Ok(())
}

fn verify_pipeline(ctx: &Context, op: OpId) -> IrResult<()> {
    let ii = pipeline_ii(ctx, op)
        .ok_or_else(|| shmls_ir::ir_error!("hls.pipeline needs an ii attribute"))?;
    ir_ensure!(ii >= 1, "pipeline II must be >= 1, got {ii}");
    Ok(())
}

fn verify_unroll(ctx: &Context, op: OpId) -> IrResult<()> {
    let f = ctx
        .attr(op, "factor")
        .and_then(Attribute::as_int)
        .ok_or_else(|| shmls_ir::ir_error!("hls.unroll needs a factor attribute"))?;
    ir_ensure!(f >= 0, "unroll factor must be >= 0, got {f}");
    Ok(())
}

fn verify_array_partition(ctx: &Context, op: OpId) -> IrResult<()> {
    shmls_ir::verifier::expect_counts(ctx, op, 1, 0)?;
    let kind = ctx
        .attr(op, "kind")
        .and_then(Attribute::as_str)
        .ok_or_else(|| shmls_ir::ir_error!("hls.array_partition needs a kind"))?;
    ir_ensure!(
        matches!(kind, "cyclic" | "block" | "complete"),
        "unknown array_partition kind `{kind}`"
    );
    ir_ensure!(
        matches!(ctx.value_type(ctx.operands(op)[0]), Type::MemRef { .. }),
        "hls.array_partition operates on a memref"
    );
    Ok(())
}

fn verify_dataflow(ctx: &Context, op: OpId) -> IrResult<()> {
    ir_ensure!(ctx.regions(op).len() == 1, "hls.dataflow has one region");
    ir_ensure!(ctx.results(op).is_empty(), "hls.dataflow has no results");
    Ok(())
}

fn verify_interface(ctx: &Context, op: OpId) -> IrResult<()> {
    ir_ensure!(ctx.operands(op).len() == 1, "hls.interface binds one value");
    let (protocol, bundle) = interface_binding(ctx, op)
        .ok_or_else(|| shmls_ir::ir_error!("hls.interface needs protocol and bundle"))?;
    ir_ensure!(
        !bundle.is_empty(),
        "hls.interface bundle name must not be empty"
    );
    ir_ensure!(
        protocol == AXI4 || protocol == "s_axilite",
        "unknown interface protocol `{protocol}`"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::create_module;
    use shmls_ir::verifier::{verify_with, OpVerifiers};

    fn verifiers() -> OpVerifiers {
        let mut v = OpVerifiers::new();
        register_verifiers(&mut v);
        v
    }

    #[test]
    fn stream_round_trip_types() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let s = create_stream(&mut b, Type::F64, 8);
        let v = read(&mut b, s);
        write(&mut b, v, s);
        let e = empty(&mut b, s);
        let f = full(&mut b, s);
        assert_eq!(ctx.value_type(v), &Type::F64);
        assert_eq!(ctx.value_type(e), &Type::I1);
        assert_eq!(ctx.value_type(f), &Type::I1);
        assert_eq!(stream_depth(&ctx, ctx.defining_op(s).unwrap()), 8);
        verify_with(&ctx, module, &verifiers()).unwrap();
    }

    #[test]
    fn write_type_mismatch_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let s = create_stream(&mut b, Type::F64, 2);
        let i = crate::arith::constant_index(&mut b, 1);
        b.build(WRITE, vec![i, s], vec![]);
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(
            e.to_string().contains("does not match stream element"),
            "{e}"
        );
    }

    #[test]
    fn pipeline_ii_validated() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let p = pipeline(&mut b, 1);
        assert_eq!(pipeline_ii(&ctx, p), Some(1));
        verify_with(&ctx, module, &verifiers()).unwrap();
        ctx.set_attr(p, "ii", Attribute::int(0));
        assert!(verify_with(&ctx, module, &verifiers()).is_err());
    }

    #[test]
    fn dataflow_and_interface() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let (_df, inner) = dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(&mut ctx, inner);
        let m = crate::memref::alloc(&mut ib, vec![16], Type::F64);
        array_partition(&mut ib, m, "cyclic", 4, 0);
        let iface = interface(&mut ib, m, AXI4, "gmem0");
        assert_eq!(interface_binding(&ctx, iface), Some((AXI4, "gmem0")));
        verify_with(&ctx, module, &verifiers()).unwrap();
    }

    /// Emit `call` inside a dataflow stage and decode it back.
    fn round_trip(call: &RuntimeCall<'_, ValueId>, ctx: &mut Context, block: BlockId) -> OpId {
        let mut b = OpBuilder::at_block_end(ctx, block);
        let (stage, inner) = dataflow(&mut b);
        let mut ib = OpBuilder::at_block_end(ctx, inner);
        let op = runtime_call(&mut ib, call);
        assert_eq!(func::callee(ctx, op), Some(call.kind.callee()));
        let decoded = decode_runtime_call(ctx, op, ctx.operands(op))
            .unwrap()
            .unwrap();
        assert_eq!(&decoded, call);
        let makes_a_stage = call.kind != RuntimeKind::CopySmallData;
        assert_eq!(stage_kind(ctx, stage), makes_a_stage.then_some(call.kind));
        op
    }

    /// A module with two buffers and three streams to wire calls from.
    fn operands() -> (Context, BlockId, [ValueId; 2], [ValueId; 3]) {
        let mut ctx = Context::new();
        let (_module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let ptrs = [(); 2].map(|()| crate::memref::alloc(&mut b, vec![16], Type::F64));
        let streams = [(); 3].map(|()| create_stream(&mut b, Type::F64, 2));
        (ctx, body, ptrs, streams)
    }

    #[test]
    fn load_data_round_trips() {
        let (mut ctx, body, ptrs, streams) = operands();
        let call = RuntimeCall {
            kind: RuntimeKind::LoadData,
            pointers: &ptrs,
            consumed: &[],
            produced: &streams[..2],
            extents: vec![6, 5],
            halo: 1,
        };
        round_trip(&call, &mut ctx, body);
        assert_eq!(call.fields(), 2);
    }

    #[test]
    fn shift_buffer_round_trips() {
        let (mut ctx, body, _ptrs, streams) = operands();
        let call = RuntimeCall {
            kind: RuntimeKind::ShiftBuffer,
            pointers: &[],
            consumed: &streams[..1],
            produced: &streams[1..2],
            extents: vec![6, 5, 4],
            halo: 2,
        };
        round_trip(&call, &mut ctx, body);
    }

    #[test]
    fn halo_merge_round_trips() {
        let (mut ctx, body, ptrs, streams) = operands();
        let call = RuntimeCall {
            kind: RuntimeKind::HaloMerge,
            pointers: &ptrs[..1],
            consumed: &streams[..1],
            produced: &streams[2..],
            extents: vec![8],
            halo: 1,
        };
        round_trip(&call, &mut ctx, body);
    }

    #[test]
    fn write_data_round_trips() {
        let (mut ctx, body, ptrs, streams) = operands();
        let call = RuntimeCall {
            kind: RuntimeKind::WriteData,
            pointers: &ptrs,
            consumed: &streams[1..],
            produced: &[],
            extents: vec![4, 3],
            halo: 1,
        };
        let op = round_trip(&call, &mut ctx, body);
        // Streams first, then pointers — the reverse of load_data.
        assert_eq!(ctx.operands(op), [streams[1], streams[2], ptrs[0], ptrs[1]]);
    }

    #[test]
    fn copy_small_data_round_trips() {
        let (mut ctx, body, ptrs, _streams) = operands();
        let call = RuntimeCall {
            kind: RuntimeKind::CopySmallData,
            pointers: &ptrs,
            consumed: &[],
            produced: &[],
            extents: vec![16],
            halo: 0,
        };
        round_trip(&call, &mut ctx, body);
    }

    #[test]
    fn decode_rejects_a_layout_mismatch_and_skips_other_calls() {
        let (mut ctx, body, ptrs, streams) = operands();
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let other = func::call(&mut b, "helper", vec![streams[0]], vec![]);
        let short = func::call(
            &mut b,
            RuntimeKind::HaloMerge.callee(),
            vec![ptrs[0], streams[0]],
            vec![],
        );
        let bare = func::call(
            &mut b,
            RuntimeKind::ShiftBuffer.callee(),
            streams[..2].to_vec(),
            vec![],
        );
        assert_eq!(
            decode_runtime_call(&ctx, other, ctx.operands(other)).unwrap(),
            None
        );
        let e = decode_runtime_call(&ctx, short, ctx.operands(short)).unwrap_err();
        assert!(e.to_string().contains("halo_merge takes"), "{e}");
        let e = decode_runtime_call(&ctx, bare, ctx.operands(bare)).unwrap_err();
        assert!(e.to_string().contains("without extents"), "{e}");
    }

    #[test]
    fn bad_partition_kind_rejected() {
        let mut ctx = Context::new();
        let (module, body) = create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let m = crate::memref::alloc(&mut b, vec![16], Type::F64);
        let p = array_partition(&mut b, m, "cyclic", 4, 0);
        ctx.set_attr(p, "kind", Attribute::string("diagonal"));
        let e = verify_with(&ctx, module, &verifiers()).unwrap_err();
        assert!(
            e.to_string().contains("unknown array_partition kind"),
            "{e}"
        );
    }
}
