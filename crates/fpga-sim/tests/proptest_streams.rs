//! Property tests for the FIFO streams of the dataflow executor and the
//! streaming shift buffer, as seeded sweeps
//! ([`shmls_ir::rng::sweep`]): a failure prints the `(seed, case)` pair
//! that reproduces it.

use std::collections::VecDeque;

use shmls_dialects::window::{offset_to_window_pos, window_offsets};
use shmls_dialects::{arith, builtin, func as fdial, hls, memref};
use shmls_fpga_sim::deadlock::StageStatus;
use shmls_fpga_sim::executor::{dispatch_runtime_call, StreamIo};
use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
use shmls_ir::builder::OpBuilder;
use shmls_ir::error::IrResult;
use shmls_ir::interp::{Buffer, RtValue, Store};
use shmls_ir::ir_error;
use shmls_ir::prelude::*;
use shmls_ir::rng::{sweep, Rng};

/// Root seed of every sweep in this file.
const SEED: u64 = 0xf1f0_0001;

// ---- FIFO streams through the executor ----------------------------------

/// One random FIFO operation.
#[derive(Debug, Clone, Copy)]
enum FifoOp {
    Push(f64),
    Pop,
}

/// Up to 199 operations, pushes and pops equally likely.
fn gen_ops(rng: &mut Rng) -> Vec<FifoOp> {
    rng.vec(0, 199, |r| {
        if r.chance(1, 2) {
            FifoOp::Push(r.next_u64() as i64 as f64)
        } else {
            FifoOp::Pop
        }
    })
}

/// Function `k(popped, empty)` running `ops` on one stream of declared
/// depth 4 outside any dataflow region: the `j`-th value popped goes to
/// `popped[j]`, and after the `i`-th op `empty[i]` is 1 if `hls.empty`
/// answers true, 0 if not.
fn fifo_program(ops: &[FifoOp]) -> (Context, OpId) {
    let pops = ops.iter().filter(|op| matches!(op, FifoOp::Pop)).count();
    let buffers = [pops, ops.len()].map(|n| Type::memref(vec![n as i64], Type::F64));
    let mut ctx = Context::new();
    let (module, body) = builtin::create_module(&mut ctx);
    let (_f, entry) = fdial::create_func(&mut ctx, body, "k", buffers.to_vec(), vec![]);
    let [popped, empty] = ctx.block_args(entry)[..] else {
        unreachable!("k takes two buffers")
    };
    let mut b = OpBuilder::at_block_end(&mut ctx, entry);
    let stream = hls::create_stream(&mut b, Type::F64, 4);
    let one = arith::constant_f64(&mut b, 1.0);
    let zero = arith::constant_f64(&mut b, 0.0);
    let mut next_pop = 0;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            FifoOp::Push(v) => {
                let v = arith::constant_f64(&mut b, v);
                hls::write(&mut b, v, stream);
            }
            FifoOp::Pop => {
                let v = hls::read(&mut b, stream);
                let j = arith::constant_index(&mut b, next_pop);
                memref::store(&mut b, v, popped, vec![j]);
                next_pop += 1;
            }
        }
        let is_empty = hls::empty(&mut b, stream);
        let flag = arith::select(&mut b, is_empty, one, zero);
        let i = arith::constant_index(&mut b, i as i64);
        memref::store(&mut b, flag, empty, vec![i]);
    }
    fdial::ret(&mut b, vec![]);
    (ctx, module)
}

/// On the sequential schedule a stream behaves exactly like a VecDeque —
/// order, emptiness after every op and pushed count — however far past
/// its declared depth it fills, and the first pop from it empty stalls.
#[test]
fn unbounded_fifo_matches_model() {
    sweep(SEED, 256, gen_ops, |ops| {
        // The model drops a pop from an empty FIFO; the program cut just
        // after the first such pop must stall on it.
        let mut model = VecDeque::new();
        let (mut legal, mut popped, mut empty, mut cut) = (vec![], vec![], vec![], None);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                FifoOp::Push(v) => model.push_back(v),
                FifoOp::Pop => match model.pop_front() {
                    Some(v) => popped.push(v),
                    None => {
                        cut.get_or_insert(i + 1);
                        continue;
                    }
                },
            }
            legal.push(op);
            empty.push(if model.is_empty() { 1.0 } else { 0.0 });
        }

        let (ctx, module) = fifo_program(&legal);
        let mut handles = [0; 2];
        let setup = |store: &mut Store<'_>| {
            handles = [popped.len(), empty.len()]
                .map(|n| store.alloc(Buffer::zeroed(vec![n as i64], vec![0])));
            handles.map(RtValue::MemRef).to_vec()
        };
        let outcome = execute(&ctx, module, "k", setup, Schedule::Sequential).unwrap();
        let Outcome::Completed { store, streams, .. } = outcome else {
            panic!("a program that never pops an empty FIFO completes, got {outcome:?}");
        };
        assert_eq!(store.get(handles[0]).unwrap().data, popped);
        assert_eq!(store.get(handles[1]).unwrap().data, empty);
        let pushes = legal.iter().filter(|op| matches!(op, FifoOp::Push(_)));
        assert_eq!(streams, [pushes.count() as u64]);

        if let Some(cut) = cut {
            let (ctx, module) = fifo_program(&ops[..cut]);
            let setup = |store: &mut Store<'_>| {
                let buffer = || Buffer::zeroed(vec![cut as i64], vec![0]);
                vec![
                    RtValue::MemRef(store.alloc(buffer())),
                    RtValue::MemRef(store.alloc(buffer())),
                ]
            };
            let stall = execute(&ctx, module, "k", setup, Schedule::Sequential).unwrap_err();
            let stall = stall.to_string();
            assert!(stall.contains("BlockedOnPop { stream: 0 }"), "{stall}");
        }
    });
}

/// A kernel's streams each get their own handle and keep the depth they
/// were declared with: `n` streams of depths `1..=n`, `i + 1` values
/// pushed into stream `i`, then one stage popping stream 0 twice — it
/// stalls, and the report shows every stream's own depth and occupancy.
#[test]
fn table_handles_are_distinct() {
    sweep(
        SEED,
        256,
        |rng| rng.range(1, 19),
        |&n| {
            let mut ctx = Context::new();
            let (module, body) = builtin::create_module(&mut ctx);
            let (_f, entry) = fdial::create_func(&mut ctx, body, "k", vec![], vec![]);
            let mut b = OpBuilder::at_block_end(&mut ctx, entry);
            let mut streams = Vec::new();
            for i in 0..n {
                let stream = hls::create_stream(&mut b, Type::F64, i as i64 + 1);
                for _ in 0..=i {
                    let v = arith::constant_f64(&mut b, i as f64);
                    hls::write(&mut b, v, stream);
                }
                streams.push(stream);
            }
            let (_stage, stage) = hls::dataflow(&mut b);
            let mut sb = OpBuilder::at_block_end(&mut ctx, stage);
            let _ = hls::read(&mut sb, streams[0]);
            let _ = hls::read(&mut sb, streams[0]);
            let mut b = OpBuilder::at_block_end(&mut ctx, entry);
            fdial::ret(&mut b, vec![]);

            let outcome = execute(&ctx, module, "k", |_| vec![], Schedule::Sequential).unwrap();
            let Outcome::Deadlock { report } = outcome else {
                panic!("the stage pops one value more than stream 0 holds, got {outcome:?}");
            };
            let stage = &report.stages[0].status;
            assert_eq!(*stage, StageStatus::BlockedOnPop { stream: 0 });
            let depths: Vec<usize> = report.streams.iter().map(|s| s.depth).collect();
            assert_eq!(depths, (1..=n).collect::<Vec<_>>());
            let occupancy: Vec<usize> = report.streams.iter().map(|s| s.occupancy).collect();
            let held: Vec<usize> = (0..n).map(|i| if i == 0 { 0 } else { i + 1 }).collect();
            assert_eq!(occupancy, held);
        },
    );
}

/// In-memory FIFOs for driving one runtime call by hand.
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

// ---- streaming shift buffer vs direct window gather --------------------

/// The streaming shift buffer (ring buffer, emit-on-arrival) must produce
/// exactly the windows a direct gather over the padded field produces.
fn check_shift_buffer(extents: Vec<i64>, halo: i64, values: Vec<f64>) {
    let rank = extents.len();
    let total: i64 = extents.iter().product();
    assert_eq!(values.len(), total as usize);

    // IR: a single shift_buffer call, dispatched as the executor does.
    let mut ctx = Context::new();
    let (_module, body) = builtin::create_module(&mut ctx);
    let mut b = OpBuilder::at_block_end(&mut ctx, body);
    let input = hls::create_stream(&mut b, Type::F64, 2);
    let w = (2 * halo + 1).pow(rank as u32) as u64;
    let output = hls::create_stream(
        &mut b,
        Type::LlvmStruct(vec![Type::llvm_array(w, Type::F64)]),
        2,
    );
    let call = fdial::call(&mut b, "shift_buffer", vec![input, output], vec![]);
    ctx.set_attr(call, "extents", Attribute::IndexArray(extents.clone()));
    ctx.set_attr(call, "halo", Attribute::int(halo));

    let streamed = values.iter().map(|&v| RtValue::F64(v)).collect();
    let mut io = Queues(vec![streamed, VecDeque::new()]);
    let args = [RtValue::Stream(0), RtValue::Stream(1)];
    let beats = dispatch_runtime_call(&mut io, &ctx, call, &args, &mut Store::new()).unwrap();
    assert_eq!(
        beats,
        Some(0),
        "a runtime call that never touches external memory"
    );

    // Direct gather reference.
    let interior: Vec<i64> = extents.iter().map(|&e| e - 2 * halo).collect();
    let strides: Vec<i64> = {
        let mut s = vec![1i64; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            s[d] = s[d + 1] * extents[d + 1];
        }
        s
    };
    let offsets = window_offsets(rank, halo);
    let mut expected = Vec::new();
    for p in shmls_ir::interp::iter_box(&vec![0i64; rank], &interior) {
        let mut window = vec![0.0; offsets.len()];
        for o in &offsets {
            let mut lin = 0i64;
            for d in 0..rank {
                lin += (p[d] + o[d] + halo) * strides[d];
            }
            window[offset_to_window_pos(o, halo)] = values[lin as usize];
        }
        expected.push(window);
    }

    let got: Vec<Vec<f64>> = io.0[1]
        .iter()
        .map(|v| v.as_pack().unwrap().to_vec())
        .collect();
    assert_eq!(got, expected);
}

/// The gather property on one drawn shape: interior extents `n` (each
/// already in its range), a halo, and the seed of the field's values.
fn check_gather(&(ref interior, halo, seed): &(Vec<i64>, i64, u64)) {
    let extents: Vec<i64> = interior.iter().map(|n| n + 2 * halo).collect();
    let total: i64 = extents.iter().product();
    let values: Vec<f64> = (0..total)
        .map(|i| ((seed.wrapping_add(i as u64)).wrapping_mul(2654435761) % 1000) as f64)
        .collect();
    check_shift_buffer(extents, halo, values);
}

#[test]
fn shift_buffer_equals_direct_gather_1d() {
    let gen = |r: &mut Rng| (vec![r.range_i64(1, 19)], r.range_i64(1, 2), r.next_u64());
    sweep(SEED, 48, gen, check_gather);
}

#[test]
fn shift_buffer_equals_direct_gather_2d() {
    let gen = |r: &mut Rng| {
        let interior = vec![r.range_i64(1, 9), r.range_i64(1, 9)];
        (interior, r.range_i64(1, 2), r.next_u64())
    };
    sweep(SEED, 48, gen, check_gather);
}

#[test]
fn shift_buffer_equals_direct_gather_3d() {
    let gen = |r: &mut Rng| {
        let interior = vec![r.range_i64(1, 5), r.range_i64(1, 5), r.range_i64(1, 5)];
        (interior, 1, r.next_u64())
    };
    sweep(SEED, 48, gen, check_gather);
}
