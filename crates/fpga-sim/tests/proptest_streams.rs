//! Property tests for the FIFO stream model and the streaming shift
//! buffer, as seeded sweeps ([`shmls_ir::rng::sweep`]): a failure prints
//! the `(seed, case)` pair that reproduces it.

use shmls_dialects::window::{offset_to_window_pos, window_offsets};
use shmls_fpga_sim::stream::{Fifo, StreamTable};
use shmls_ir::interp::RtValue;
use shmls_ir::rng::{sweep, Rng};

/// Root seed of every sweep in this file.
const SEED: u64 = 0xf1f0_0001;

/// One random FIFO operation.
#[derive(Debug, Clone, Copy)]
enum FifoOp {
    Push(i64),
    Pop,
}

/// Up to 199 operations, pushes and pops equally likely.
fn gen_ops(rng: &mut Rng) -> Vec<FifoOp> {
    rng.vec(0, 199, |r| {
        if r.chance(1, 2) {
            FifoOp::Push(r.next_u64() as i64)
        } else {
            FifoOp::Pop
        }
    })
}

/// A FIFO behaves exactly like a VecDeque (order, length, and
/// statistics), however far past its declared depth it fills.
#[test]
fn unbounded_fifo_matches_model() {
    sweep(SEED, 256, gen_ops, |ops| {
        let mut fifo = Fifo::new(4);
        let mut model = std::collections::VecDeque::new();
        let mut pushed = 0u64;
        let mut high_water = 0usize;
        for &op in ops {
            match op {
                FifoOp::Push(v) => {
                    fifo.push(RtValue::I64(v));
                    model.push_back(v);
                    pushed += 1;
                    high_water = high_water.max(model.len());
                }
                FifoOp::Pop => {
                    let got = fifo.pop();
                    let want = model.pop_front().map(RtValue::I64);
                    assert_eq!(got, want);
                }
            }
            assert_eq!(fifo.len(), model.len());
            assert_eq!(fifo.is_empty(), model.is_empty());
        }
        assert_eq!(fifo.total_pushed, pushed);
        assert_eq!(fifo.max_occupancy, high_water);
    });
}

/// Stream tables allocate distinct handles and aggregate statistics.
#[test]
fn table_handles_are_distinct() {
    sweep(
        SEED,
        256,
        |rng| rng.range(1, 19),
        |&n| {
            let mut t = StreamTable::new();
            let handles: Vec<usize> = (0..n).map(|i| t.create(i + 1)).collect();
            let mut sorted = handles.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n);
            assert_eq!(t.len(), n);
        },
    );
}

// ---- streaming shift buffer vs direct window gather --------------------

/// The streaming shift buffer (ring buffer, emit-on-arrival) must produce
/// exactly the windows a direct gather over the padded field produces.
fn check_shift_buffer(extents: Vec<i64>, halo: i64, values: Vec<f64>) {
    use shmls_dialects::{builtin, func as fdial, hls};
    use shmls_fpga_sim::executor::HlsRuntime;
    use shmls_ir::builder::OpBuilder;
    use shmls_ir::interp::Machine;
    use shmls_ir::prelude::*;

    let rank = extents.len();
    let total: i64 = extents.iter().product();
    assert_eq!(values.len(), total as usize);

    // IR: a single shift_buffer call.
    let mut ctx = Context::new();
    let (module, body) = builtin::create_module(&mut ctx);
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

    let mut runtime = HlsRuntime::new();
    let in_h = runtime.streams.create(2);
    let out_h = runtime.streams.create(2);
    for &v in &values {
        runtime.streams.get_mut(in_h).unwrap().push(RtValue::F64(v));
    }
    let mut machine = Machine::new(&ctx, module, &mut runtime);
    machine.bind(input, RtValue::Stream(in_h));
    machine.bind(output, RtValue::Stream(out_h));
    machine.exec_op(call).unwrap();
    drop(machine);

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

    let mut got = Vec::new();
    while let Some(v) = runtime.streams.get_mut(out_h).unwrap().pop() {
        got.push(v.as_pack().unwrap().to_vec());
    }
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

// ---- HBM arbitration: analytic bound vs exact simulation ----------------

#[test]
fn arbitration_analytic_matches_stepped() {
    use shmls_fpga_sim::memory::{contention_cycles_analytic, simulate_arbitration, Traffic};
    // `demands in vec((bank 0..4, beats 1..300), 1..8), rate_milli in 100..1500`
    let gen = |rng: &mut Rng| {
        let traffic = rng.vec(1, 7, |r| Traffic {
            bank: r.range(0, 3) as u32,
            beats: r.range(1, 299) as u64,
        });
        (traffic, rng.range(100, 1499) as f64 / 1000.0)
    };
    sweep(SEED, 128, gen, |(traffic, rate)| {
        let rate = *rate;
        let analytic = contention_cycles_analytic(traffic, rate);
        let (stepped, done) = simulate_arbitration(traffic, rate);
        // Exact arbitration can round up by at most one cycle per bank's
        // fractional credit; with integer beats the gap stays ≤ 1.
        assert!(stepped >= analytic, "{stepped} < {analytic}");
        assert!(stepped <= analytic + 1, "{stepped} > {analytic}+1");
        // Every port finishes by the end, none after it.
        assert_eq!(done.iter().copied().max().unwrap(), stepped);
        // Conservation: total service time ≥ total beats / rate.
        let total: u64 = traffic.iter().map(|t| t.beats).sum();
        let banks: std::collections::BTreeSet<u32> = traffic.iter().map(|t| t.bank).collect();
        let lower = (total as f64 / (rate * banks.len() as f64)).floor() as u64;
        assert!(stepped >= lower);
    });
}
