//! Functional execution of HLS-dialect kernels (sequential Kahn engine).
//!
//! Implements the [`ExternOps`] hook for the `hls` dialect and for the
//! runtime functions the paper links against the generated LLVM-IR
//! (`load_data`, `shift_buffer`, `write_data`, `copy_small_data`): the Rust
//! equivalent of the paper's C++ runtime.
//!
//! The sequential engine relies on Kahn-network determinism: dataflow
//! stages execute in program order with unbounded FIFOs and produce exactly
//! the values any concurrent schedule would. Use
//! [`crate::threaded`] for true concurrency with bounded FIFOs and
//! deadlock detection.

use shmls_dialects::hls::{self, RuntimeCall, RuntimeKind};
use shmls_ir::error::IrResult;
use shmls_ir::interp::{iter_box, ExternOps, Machine, RtValue, Store};
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure, ir_error};

use crate::stream::StreamTable;

/// Stream transport abstraction shared by the sequential engine (FIFO
/// table) and the threaded engine (bounded channels): the runtime
/// functions below are written against this trait.
pub trait StreamIo {
    /// Blocking pop from stream `handle`.
    fn pop(&mut self, handle: usize) -> IrResult<RtValue>;
    /// Blocking push into stream `handle`.
    fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()>;
}

/// Runtime + `hls` dialect semantics for the interpreter.
#[derive(Debug, Default)]
pub struct HlsRuntime {
    /// The FIFO table (inspect after execution for stream statistics).
    pub streams: StreamTable,
    /// Total 512-bit memory beats moved by `load_data`/`write_data`
    /// (for cross-checking the analytic memory model).
    pub mem_beats: u64,
}

impl HlsRuntime {
    /// A runtime with unbounded FIFOs (sequential engine).
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamIo for HlsRuntime {
    fn pop(&mut self, handle: usize) -> IrResult<RtValue> {
        let fifo = self
            .streams
            .get_mut(handle)
            .ok_or_else(|| ir_error!("invalid stream handle {handle}"))?;
        fifo.pop().ok_or_else(|| {
            ir_error!(
                "read from empty stream {handle} — stage ordering violates \
                 producer-before-consumer (sequential engine)"
            )
        })
    }

    fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()> {
        let fifo = self
            .streams
            .get_mut(handle)
            .ok_or_else(|| ir_error!("invalid stream handle {handle}"))?;
        fifo.push(value);
        Ok(())
    }
}

impl ExternOps for HlsRuntime {
    fn exec(
        &mut self,
        ctx: &Context,
        op: OpId,
        args: &[RtValue],
        store: &mut Store<'_>,
    ) -> IrResult<Option<Vec<RtValue>>> {
        match ctx.op_name(op) {
            hls::CREATE_STREAM => {
                let depth = hls::stream_depth(ctx, op).max(1) as usize;
                let handle = self.streams.create(depth);
                Ok(Some(vec![RtValue::Stream(handle)]))
            }
            hls::READ => {
                let v = self.pop(args[0].as_stream()?)?;
                Ok(Some(vec![v]))
            }
            hls::WRITE => {
                self.push(args[1].as_stream()?, args[0].clone())?;
                Ok(Some(vec![]))
            }
            hls::EMPTY => {
                let f = self
                    .streams
                    .get(args[0].as_stream()?)
                    .ok_or_else(|| ir_error!("invalid stream handle"))?;
                Ok(Some(vec![RtValue::Bool(f.is_empty())]))
            }
            // A FIFO of this engine never refuses a push (`stream.rs`).
            hls::FULL => match self.streams.get(args[0].as_stream()?) {
                Some(_) => Ok(Some(vec![RtValue::Bool(false)])),
                None => Err(ir_error!("invalid stream handle")),
            },
            // Directive ops are structural no-ops at functional level.
            hls::PIPELINE | hls::UNROLL | hls::ARRAY_PARTITION | hls::INTERFACE => Ok(Some(vec![])),
            shmls_dialects::func::CALL => {
                let mut beats = 0u64;
                let result = dispatch_runtime_call(self, &mut beats, ctx, op, args, store);
                self.mem_beats += beats;
                result
            }
            _ => Ok(None),
        }
    }
}

/// Dispatch a runtime `func.call` (the paper's linked C++ runtime) over
/// any stream transport. Returns `Ok(None)` when the callee is not a
/// runtime function.
pub fn dispatch_runtime_call(
    io: &mut dyn StreamIo,
    mem_beats: &mut u64,
    ctx: &Context,
    op: OpId,
    args: &[RtValue],
    store: &mut Store<'_>,
) -> IrResult<Option<Vec<RtValue>>> {
    let Some(call) = hls::decode_runtime_call(ctx, op, args)? else {
        return Ok(None);
    };
    match call.kind {
        RuntimeKind::LoadData => rt_load_data(io, mem_beats, &call, store),
        RuntimeKind::ShiftBuffer => rt_shift_buffer(io, &call),
        RuntimeKind::HaloMerge => rt_halo_merge(io, mem_beats, &call, store),
        RuntimeKind::WriteData => rt_write_data(io, mem_beats, &call, store),
        RuntimeKind::CopySmallData => rt_copy_small_data(mem_beats, &call, store),
    }?;
    Ok(Some(vec![]))
}

/// A decoded runtime call over runtime values.
type Call<'a> = RuntimeCall<'a, RtValue>;

fn stream_handles(values: &[RtValue]) -> IrResult<Vec<usize>> {
    values.iter().map(RtValue::as_stream).collect()
}

/// `load_data` — stream every element of each (halo-padded) field,
/// row-major, counting 512-bit beats for the memory model.
fn rt_load_data(
    io: &mut dyn StreamIo,
    mem_beats: &mut u64,
    call: &Call<'_>,
    store: &mut Store<'_>,
) -> IrResult<()> {
    let (extents, halo) = (&call.extents, call.halo);
    let lb: Vec<i64> = extents.iter().map(|_| -halo).collect();
    let ub: Vec<i64> = extents.iter().zip(&lb).map(|(&e, &l)| l + e).collect();
    let buffers: Vec<_> = call
        .pointers
        .iter()
        .map(|p| store.get(p.as_memref()?))
        .collect::<IrResult<_>>()?;
    let streams = stream_handles(call.produced)?;
    // Round-robin across fields: each field rides its own AXI port, so the
    // hardware load stage advances all element streams in lockstep. (A
    // field-at-a-time order would deadlock the downstream shift buffers
    // under bounded FIFOs — consumers need all fields' windows together.)
    let mut count = 0u64;
    for p in iter_box(&lb, &ub) {
        for (buffer, &stream) in buffers.iter().zip(&streams) {
            io.push(stream, RtValue::F64(buffer.load(&p)?))?;
        }
        count += 1;
    }
    *mem_beats += call.fields() as u64 * count.div_ceil(8);
    Ok(())
}

/// `shift_buffer` — the true streaming shift register (§3.3, Figure 2):
/// consumes the (padded) field's elements in row-major order through a
/// ring buffer of exactly the shift-register length, emitting for each
/// interior point the full `(2h+1)^rank` window the moment its last
/// element arrives.
fn rt_shift_buffer(io: &mut dyn StreamIo, call: &Call<'_>) -> IrResult<()> {
    let (extents, halo) = (&call.extents, call.halo);
    let rank = extents.len();
    let input = call.consumed[0].as_stream()?;
    let output = call.produced[0].as_stream()?;

    let lb: Vec<i64> = vec![-halo; rank];
    let interior_lb = vec![0i64; rank];
    let interior_ub: Vec<i64> = extents.iter().map(|&e| e - 2 * halo).collect();
    let offsets = shmls_dialects::window::window_offsets(rank, halo);

    // Ring buffer of exactly the hardware shift-register length.
    let ring_len = shmls_dialects::window::shift_register_len(extents, halo) as usize;
    let mut ring = vec![0.0f64; ring_len];
    let mut consumed: i64 = 0;
    let total: i64 = extents.iter().product();

    let interior_points = iter_box(&interior_lb, &interior_ub);
    let mut emit_cursor = 0usize;
    let linearize = |p: &[i64], off: &[i64]| -> i64 {
        let mut lin = 0;
        for d in 0..rank {
            lin = lin * extents[d] + (p[d] + off[d] - lb[d]);
        }
        lin
    };

    while consumed < total || emit_cursor < interior_points.len() {
        if consumed < total {
            let v = io.pop(input)?.as_f64()?;
            ring[(consumed as usize) % ring_len] = v;
            consumed += 1;
        } else if emit_cursor < interior_points.len() {
            ir_bail!(
                "shift buffer: input exhausted with {} windows pending",
                interior_points.len() - emit_cursor
            );
        }
        // Emit every window whose last element has now arrived.
        while emit_cursor < interior_points.len() {
            let p = &interior_points[emit_cursor];
            let last_needed = linearize(p, &vec![halo; rank]);
            if last_needed >= consumed {
                break;
            }
            let first_needed = linearize(p, &vec![-halo; rank]);
            ir_ensure!(
                first_needed > consumed - ring_len as i64 - 1,
                "shift buffer: window element already evicted (ring too short)"
            );
            let mut window = Vec::with_capacity(offsets.len());
            for off in &offsets {
                let q = linearize(p, off);
                window.push(ring[(q as usize) % ring_len]);
            }
            io.push(output, RtValue::pack(window))?;
            emit_cursor += 1;
        }
    }
    Ok(())
}

/// `halo_merge` — the temporal blocking seam between two on-chip
/// timesteps: streams the bounded box row-major into the next step's
/// element stream, taking interior points from the previous step's result
/// stream and the halo ring from the output field's buffer (constant
/// during the sweep — `write_data` is the last stage in program order for
/// the sequential engine, and the threaded engine hands every stage its
/// own copy-on-write view of the initial store). Ring loads are real
/// external-memory traffic and counted in 512-bit beats; the interior
/// never leaves the chip.
fn rt_halo_merge(
    io: &mut dyn StreamIo,
    mem_beats: &mut u64,
    call: &Call<'_>,
    store: &mut Store<'_>,
) -> IrResult<()> {
    let (extents, halo) = (&call.extents, call.halo);
    let buffer = store.get(call.pointers[0].as_memref()?)?;
    let result_in = call.consumed[0].as_stream()?;
    let elem_out = call.produced[0].as_stream()?;
    let lb: Vec<i64> = extents.iter().map(|_| -halo).collect();
    let ub: Vec<i64> = extents.iter().zip(&lb).map(|(&e, &l)| l + e).collect();
    let mut ring = 0u64;
    for p in iter_box(&lb, &ub) {
        let interior = p
            .iter()
            .zip(extents)
            .all(|(&x, &e)| x >= 0 && x < e - 2 * halo);
        let v = if interior {
            io.pop(result_in)?.as_f64()?
        } else {
            ring += 1;
            buffer.load(&p)?
        };
        io.push(elem_out, RtValue::F64(v))?;
    }
    *mem_beats += ring.div_ceil(8);
    Ok(())
}

/// `write_data` — drain each result stream (interior, row-major) into its
/// output buffer, counting 512-bit beats.
fn rt_write_data(
    io: &mut dyn StreamIo,
    mem_beats: &mut u64,
    call: &Call<'_>,
    store: &mut Store<'_>,
) -> IrResult<()> {
    let streams = stream_handles(call.consumed)?;
    let buffers: Vec<usize> = call
        .pointers
        .iter()
        .map(RtValue::as_memref)
        .collect::<IrResult<_>>()?;
    let lb = vec![0i64; call.extents.len()];
    // Round-robin across fields, matching the hardware draining all result
    // streams concurrently (essential under bounded FIFOs: field-major
    // draining would deadlock producers that emit in lockstep).
    let points = iter_box(&lb, &call.extents);
    for p in &points {
        for (&stream, &buffer) in streams.iter().zip(&buffers) {
            let v = io.pop(stream)?.as_f64()?;
            store.get_mut(buffer)?.store(p, v)?;
        }
    }
    *mem_beats += call.fields() as u64 * (points.len() as u64).div_ceil(8);
    Ok(())
}

/// `copy_small_data` — the kernel-init BRAM copy of step 8.
fn rt_copy_small_data(mem_beats: &mut u64, call: &Call<'_>, store: &mut Store<'_>) -> IrResult<()> {
    let (src, dst) = (call.pointers[0].as_memref()?, call.pointers[1].as_memref()?);
    let (from, to) = (store.get(src)?.data.len(), store.get(dst)?.data.len());
    ir_ensure!(from == to, "small-data copy size mismatch: {from} vs {to}");
    let (src, dst) = store.pair_mut(src, dst)?;
    dst.data.copy_from_slice(&src.data);
    *mem_beats += (from as u64).div_ceil(8);
    Ok(())
}

/// Execute the HLS kernel `func_name` in `module`.
///
/// `setup` allocates the kernel's buffers in the store and returns the
/// argument values in signature order. Returns the final [`Store`] plus the
/// runtime (for stream/memory statistics).
pub fn execute_hls_kernel<'d>(
    ctx: &'d Context,
    module: OpId,
    func_name: &str,
    setup: impl FnOnce(&mut Store<'d>) -> Vec<RtValue>,
) -> IrResult<(Store<'d>, HlsRuntime)> {
    let mut runtime = HlsRuntime::new();
    let mut machine = Machine::new(ctx, module, &mut runtime);
    let args = setup(&mut machine.store);
    machine.call(func_name, &args)?;
    let store = std::mem::take(&mut machine.store);
    drop(machine);
    Ok((store, runtime))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_ir::interp::Buffer;

    /// Drive shift_buffer directly through a hand-built IR call.
    fn run_shift(extents: &[i64], halo: i64, data: &[f64]) -> Vec<Vec<f64>> {
        let mut ctx = Context::new();
        let (module, body) = shmls_dialects::builtin::create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let input = hls::create_stream(&mut b, Type::F64, 2);
        let window_ty = Type::LlvmStruct(vec![Type::llvm_array(
            (2 * halo + 1).pow(extents.len() as u32) as u64,
            Type::F64,
        )]);
        let output = hls::create_stream(&mut b, window_ty, 2);
        let call = shmls_dialects::func::call(&mut b, "shift_buffer", vec![input, output], vec![]);
        ctx.set_attr(call, "extents", Attribute::IndexArray(extents.to_vec()));
        ctx.set_attr(call, "halo", Attribute::int(halo));

        // Pre-create the FIFOs on the runtime so the input can be preloaded
        // before execution, then bind the IR stream values to the handles.
        let mut runtime = HlsRuntime::new();
        let in_handle = runtime.streams.create(2);
        let out_handle = runtime.streams.create(2);
        for &v in data {
            runtime
                .streams
                .get_mut(in_handle)
                .unwrap()
                .push(RtValue::F64(v));
        }
        let mut machine = Machine::new(&ctx, module, &mut runtime);
        machine.bind(input, RtValue::Stream(in_handle));
        machine.bind(output, RtValue::Stream(out_handle));
        machine.exec_op(call).unwrap();
        drop(machine);
        let mut out = Vec::new();
        while let Some(v) = runtime.streams.get_mut(out_handle).unwrap().pop() {
            out.push(v.as_pack().unwrap().to_vec());
        }
        out
    }

    #[test]
    fn shift_buffer_1d_windows() {
        // 1D field of bounded extent 6 (interior 4, halo 1), values 0..6.
        let data: Vec<f64> = (0..6).map(|v| v as f64).collect();
        let windows = run_shift(&[6], 1, &data);
        assert_eq!(windows.len(), 4);
        for (i, w) in windows.iter().enumerate() {
            let c = i as f64 + 1.0; // centre value (interior point i ↦ padded idx i+1)
            assert_eq!(w, &vec![c - 1.0, c, c + 1.0], "window {i}");
        }
    }

    #[test]
    fn shift_buffer_2d_windows() {
        // 2D bounded 5x6 (interior 3x4, halo 1), value = row*10 + col.
        let mut data = Vec::new();
        for r in 0..5 {
            for c in 0..6 {
                data.push((r * 10 + c) as f64);
            }
        }
        let windows = run_shift(&[5, 6], 1, &data);
        assert_eq!(windows.len(), 3 * 4);
        // First interior point (0,0) is padded (1,1) = value 11; its window
        // rows are 0,1,2 and cols 0,1,2.
        let expect: Vec<f64> = vec![0., 1., 2., 10., 11., 12., 20., 21., 22.];
        assert_eq!(windows[0], expect);
        // Last interior point (2,3) is padded (3,4) = 34.
        let last = windows.last().unwrap();
        assert_eq!(last[4], 34.0);
    }

    #[test]
    fn copy_small_data_round_trip() {
        let mut store = Store::new();
        let src = store.alloc(Buffer {
            shape: vec![4],
            origin: vec![0],
            data: vec![1., 2., 3., 4.],
        });
        let dst = store.alloc(Buffer::zeroed(vec![4], vec![0]));
        let call = RuntimeCall {
            kind: RuntimeKind::CopySmallData,
            pointers: &[RtValue::MemRef(src), RtValue::MemRef(dst)],
            consumed: &[],
            produced: &[],
            extents: vec![4],
            halo: 0,
        };
        let mut beats = 0u64;
        rt_copy_small_data(&mut beats, &call, &mut store).unwrap();
        assert_eq!(store.get(dst).unwrap().data, vec![1., 2., 3., 4.]);
        assert_eq!(beats, 1);
    }

    #[test]
    fn read_from_empty_stream_is_error() {
        let mut runtime = HlsRuntime::new();
        let h = runtime.streams.create(2);
        let e = runtime.pop(h).unwrap_err();
        assert!(e.to_string().contains("empty stream"), "{e}");
    }
}

#[cfg(test)]
mod query_tests {
    use super::*;
    use shmls_dialects::builtin;
    use shmls_ir::builder::OpBuilder;
    use shmls_ir::types::Type;

    /// `hls.empty` / `hls.full` observe FIFO state through the extern
    /// hook; this engine's FIFOs are never full, however far past their
    /// declared depth.
    #[test]
    fn empty_and_full_queries() {
        let mut ctx = Context::new();
        let (module, body) = builtin::create_module(&mut ctx);
        let mut b = OpBuilder::at_block_end(&mut ctx, body);
        let s = hls::create_stream(&mut b, Type::F64, 1);
        let v = shmls_dialects::arith::constant_f64(&mut b, 1.0);
        let e0 = hls::empty(&mut b, s);
        hls::write(&mut b, v, s);
        hls::write(&mut b, v, s);
        let e = hls::empty(&mut b, s);
        let f = hls::full(&mut b, s);

        let mut runtime = HlsRuntime::new();
        let mut machine = Machine::new(&ctx, module, &mut runtime);
        for op in ctx.block_ops(body).to_vec() {
            machine.exec_op(op).unwrap();
        }
        assert_eq!(machine.lookup(e0).unwrap(), RtValue::Bool(true));
        assert_eq!(machine.lookup(e).unwrap(), RtValue::Bool(false));
        assert_eq!(machine.lookup(f).unwrap(), RtValue::Bool(false));
    }
}
