//! The paper's linked C++ runtime, in Rust: the functions the generated
//! LLVM-IR calls (`load_data`, `shift_buffer`, `halo_merge`, `write_data`,
//! `copy_small_data`), written once against the [`StreamIo`] transport.
//! The dataflow executor ([`crate::threaded`]) dispatches them from its
//! `hls` op hook on either schedule.

use shmls_dialects::hls::{self, RuntimeCall, RuntimeKind};
use shmls_ir::error::IrResult;
use shmls_ir::interp::{iter_box, RtValue, Store};
use shmls_ir::prelude::*;
use shmls_ir::{ir_bail, ir_ensure};

/// A stream transport: the dataflow executor's FIFOs, or a test's fake.
/// The runtime functions below are written against this trait.
pub trait StreamIo {
    /// Blocking pop from stream `handle`.
    fn pop(&mut self, handle: usize) -> IrResult<RtValue>;
    /// Blocking push into stream `handle`.
    fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()>;
}

/// Dispatch a runtime `func.call` (the paper's linked C++ runtime) over
/// any stream transport: the 512-bit memory beats it moved, or `Ok(None)`
/// when the callee is not a runtime function.
pub fn dispatch_runtime_call(
    io: &mut dyn StreamIo,
    ctx: &Context,
    op: OpId,
    args: &[RtValue],
    store: &mut Store<'_>,
) -> IrResult<Option<u64>> {
    let Some(call) = hls::decode_runtime_call(ctx, op, args)? else {
        return Ok(None);
    };
    let beats = match call.kind {
        RuntimeKind::LoadData => rt_load_data(io, &call, store),
        RuntimeKind::ShiftBuffer => rt_shift_buffer(io, &call).map(|()| 0),
        RuntimeKind::HaloMerge => rt_halo_merge(io, &call, store),
        RuntimeKind::WriteData => rt_write_data(io, &call, store),
        RuntimeKind::CopySmallData => rt_copy_small_data(&call, store),
    }?;
    Ok(Some(beats))
}

/// A decoded runtime call over runtime values.
type Call<'a> = RuntimeCall<'a, RtValue>;

fn stream_handles(values: &[RtValue]) -> IrResult<Vec<usize>> {
    values.iter().map(RtValue::as_stream).collect()
}

/// `load_data` — stream every element of each (halo-padded) field,
/// row-major, counting 512-bit beats for the memory model.
fn rt_load_data(io: &mut dyn StreamIo, call: &Call<'_>, store: &mut Store<'_>) -> IrResult<u64> {
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
    Ok(call.fields() as u64 * count.div_ceil(8))
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
/// during the sweep: on either schedule every stage reads its own
/// copy-on-write view of the initial store). Ring loads are real
/// external-memory traffic and counted in 512-bit beats; the interior
/// never leaves the chip.
fn rt_halo_merge(io: &mut dyn StreamIo, call: &Call<'_>, store: &mut Store<'_>) -> IrResult<u64> {
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
    Ok(ring.div_ceil(8))
}

/// `write_data` — drain each result stream (interior, row-major) into its
/// output buffer, counting 512-bit beats.
fn rt_write_data(io: &mut dyn StreamIo, call: &Call<'_>, store: &mut Store<'_>) -> IrResult<u64> {
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
    Ok(call.fields() as u64 * (points.len() as u64).div_ceil(8))
}

/// `copy_small_data` — the kernel-init BRAM copy of step 8.
fn rt_copy_small_data(call: &Call<'_>, store: &mut Store<'_>) -> IrResult<u64> {
    let (src, dst) = (call.pointers[0].as_memref()?, call.pointers[1].as_memref()?);
    let (from, to) = (store.get(src)?.data.len(), store.get(dst)?.data.len());
    ir_ensure!(from == to, "small-data copy size mismatch: {from} vs {to}");
    let (src, dst) = store.pair_mut(src, dst)?;
    dst.data.copy_from_slice(&src.data);
    Ok((from as u64).div_ceil(8))
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use shmls_dialects::{builtin, func};
    use shmls_ir::interp::Buffer;
    use shmls_ir::ir_error;

    use crate::deadlock::StageStatus;
    use crate::threaded::{execute, Outcome, Schedule};

    /// In-memory FIFOs: the transport as the runtime functions see it.
    struct Queues(Vec<VecDeque<RtValue>>);

    impl StreamIo for Queues {
        fn pop(&mut self, handle: usize) -> IrResult<RtValue> {
            self.0[handle]
                .pop_front()
                .ok_or_else(|| ir_error!("pop from empty test stream {handle}"))
        }
        fn push(&mut self, handle: usize, value: RtValue) -> IrResult<()> {
            self.0[handle].push_back(value);
            Ok(())
        }
    }

    /// The windows `shift_buffer` emits for a padded field streamed in.
    fn run_shift(extents: &[i64], halo: i64, data: &[f64]) -> Vec<Vec<f64>> {
        let input = data.iter().map(|&v| RtValue::F64(v)).collect();
        let mut io = Queues(vec![input, VecDeque::new()]);
        let call = RuntimeCall {
            kind: RuntimeKind::ShiftBuffer,
            pointers: &[],
            consumed: &[RtValue::Stream(0)],
            produced: &[RtValue::Stream(1)],
            extents: extents.to_vec(),
            halo,
        };
        rt_shift_buffer(&mut io, &call).unwrap();
        io.0[1]
            .iter()
            .map(|v| v.as_pack().unwrap().to_vec())
            .collect()
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
        assert_eq!(rt_copy_small_data(&call, &mut store).unwrap(), 1);
        assert_eq!(store.get(dst).unwrap().data, vec![1., 2., 3., 4.]);
    }

    /// A kernel `k` that creates one stream per depth and runs `body`
    /// over them as its one dataflow stage.
    pub(super) fn one_stage(
        depths: &[i64],
        body: impl FnOnce(&mut OpBuilder<'_>, &[ValueId]),
    ) -> (Context, OpId) {
        let mut ctx = Context::new();
        let (module, top) = builtin::create_module(&mut ctx);
        let (_f, entry) = func::create_func(&mut ctx, top, "k", vec![], vec![]);
        let mut b = OpBuilder::at_block_end(&mut ctx, entry);
        let streams: Vec<ValueId> = depths
            .iter()
            .map(|&depth| hls::create_stream(&mut b, Type::F64, depth))
            .collect();
        let (_stage, stage_body) = hls::dataflow(&mut b);
        body(&mut OpBuilder::at_block_end(&mut ctx, stage_body), &streams);
        func::ret(&mut OpBuilder::at_block_end(&mut ctx, entry), vec![]);
        (ctx, module)
    }

    pub(super) const SCHEDULES: [Schedule; 2] = [Schedule::Sequential, Schedule::Threaded];

    /// A pop nothing will ever answer is a stall of the stage that made
    /// it, reported as such and at once on either schedule: no other
    /// stage runs that could push.
    #[test]
    fn read_from_empty_stream_is_error() {
        let (ctx, module) = one_stage(&[2], |b, s| {
            hls::read(b, s[0]);
        });
        for schedule in SCHEDULES {
            let outcome = execute(&ctx, module, "k", |_| vec![], schedule).unwrap();
            let Outcome::Deadlock { report } = outcome else {
                panic!("{schedule:?}: a pop from an empty stream completed");
            };
            let blocked = StageStatus::BlockedOnPop { stream: 0 };
            assert_eq!(report.stages[0].status, blocked, "{schedule:?}");
        }
    }
}

#[cfg(test)]
mod query_tests {
    use super::tests::{one_stage, SCHEDULES};
    use shmls_dialects::{arith, hls, scf};
    use shmls_ir::builder::OpBuilder;

    use crate::threaded::{execute, Outcome};

    /// `hls.empty` / `hls.full` observe a FIFO through the executor's one
    /// hook, with one answer on both schedules: `empty` from its
    /// occupancy, `full` at the declared depth of a bounded FIFO — which
    /// the sequential schedule's never are. Each query that answers true
    /// pushes into a flag stream of its own.
    #[test]
    fn empty_and_full_queries() {
        let (ctx, module) = one_stage(&[1, 1, 1, 1], |b, s| {
            let v = arith::constant_f64(b, 1.0);
            let before = hls::empty(b, s[0]);
            hls::write(b, v, s[0]);
            let after = hls::empty(b, s[0]);
            let full = hls::full(b, s[0]);
            for (answer, flag) in [(before, s[1]), (after, s[2]), (full, s[3])] {
                let (_if, then, _else) = scf::if_op(b, answer, vec![]);
                let mut then = OpBuilder::at_block_end(b.ctx(), then);
                hls::write(&mut then, v, flag);
                scf::yield_op(&mut then, vec![]);
            }
        });
        for (schedule, full) in SCHEDULES.into_iter().zip([0, 1]) {
            let outcome = execute(&ctx, module, "k", |_| vec![], schedule).unwrap();
            let Outcome::Completed { streams, .. } = outcome else {
                panic!("{schedule:?} deadlocked");
            };
            assert_eq!(streams, [1, 1, 0, full], "{schedule:?}");
        }
    }
}
