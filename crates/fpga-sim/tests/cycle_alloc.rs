//! The cycle engine's step allocates nothing: `simulate` sets up its
//! per-stage and per-stream vectors before the first cycle, so a run a
//! hundred times longer performs the same number of allocations. A
//! counting `#[global_allocator]` needs a test binary of its own; it counts
//! only the thread that asked (the harness's main thread allocates while
//! the test runs, more often the busier the host).

// The counting allocator is one of the workspace's four `unsafe` sites
// (scripts/unsafe-sites.sh).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use shmls_fpga_sim::cycle::{simulate, simulate_stepped};
use shmls_fpga_sim::design::{DesignDescriptor, OpMix, Stage, StageWiring, StreamDesc};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// load → shift → compute → write over `n` points of a 1D field.
fn linear_design(n: u64) -> DesignDescriptor {
    let bounded = n + 2;
    let stream = |elem_bytes| StreamDesc {
        depth: 8,
        elem_bytes,
    };
    let wire = |reads: &[usize], writes: &[usize]| StageWiring {
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    };
    DesignDescriptor {
        name: "linear".into(),
        interior_points: n,
        bounded_points: bounded,
        stages: vec![
            Stage::Load {
                fields: 1,
                beats_per_field: bounded.div_ceil(8),
                elements_per_field: bounded,
            },
            Stage::Shift {
                register_len: 3,
                elements: bounded,
                windows: n,
            },
            Stage::Compute {
                ii: 1,
                trips: n,
                reads: 1,
                writes: 1,
                ops: OpMix::default(),
            },
            Stage::Write {
                fields: 1,
                beats_per_field: n.div_ceil(8),
                elements_per_field: n,
            },
        ],
        wiring: vec![
            wire(&[], &[0]),
            wire(&[0], &[1]),
            wire(&[1], &[2]),
            wire(&[2], &[]),
        ],
        streams: vec![stream(8), stream(24), stream(8)],
        interfaces: vec![],
        local_buffer_bytes: vec![],
        init_copy_elements: 0,
    }
}

fn allocations_of(run: impl FnOnce() -> u64) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.set(true);
    let cycles = run();
    COUNTED.set(false);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, cycles)
}

#[test]
fn allocation_count_does_not_depend_on_cycle_count() {
    let (small, large) = (linear_design(1_000), linear_design(100_000));
    // Stepping every cycle is the stronger statement; the jumping engine
    // must not allocate per jump either.
    for engine in [simulate_stepped, simulate] {
        let (few, short) = allocations_of(|| engine(&small, None).unwrap().cycles);
        let (many, long) = allocations_of(|| engine(&large, None).unwrap().cycles);
        assert!(long > 90 * short, "{long} vs {short} cycles");
        assert!(few > 0, "the counter is not counting");
        assert_eq!(few, many, "allocations over {short} vs {long} cycles");
    }
}
