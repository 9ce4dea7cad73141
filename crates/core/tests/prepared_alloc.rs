//! A prepared sweep pays its set-up once: after its first sweep, a
//! kernel prepared on the vector tier sweeps again without walking the
//! module for its function, resolving its inputs or allocating a
//! register file. Wall-clock cannot show that on a shared host; the
//! number of allocations a sweep makes can. A counting
//! `#[global_allocator]` needs a test binary of its own; it counts per
//! thread, and the single-threaded vector tier sweeps on the caller's.

// The counting allocator is one of the workspace's four `unsafe` sites
// (scripts/unsafe-sites.sh).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shmls_kernels::catalogue::PW_ADVECTION;
use stencil_hmls::driver::compile;
use stencil_hmls::engine::{Engine, VECTOR};
use stencil_hmls::CompileOptions;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; nothing of it is
    // measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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

/// The allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// One slab of the march's spatial workload: a quarter of 16×16×16.
const GRID: [i64; 3] = [4, 16, 16];

/// What a steady-state prepared sweep of PW advection allocates: its
/// argument list, the three output fields it hands back, the store's
/// handle table, each op's operand list and each apply's views of the
/// buffers it reads and writes — nothing that depends on the kernel
/// alone. A fresh sweep makes 214.
const STEADY: u64 = 67;

#[test]
fn a_prepared_sweep_allocates_at_most_half_of_a_fresh_one() {
    let compiled = compile(&PW_ADVECTION.source(GRID), &CompileOptions::default()).unwrap();
    let data = PW_ADVECTION.data(GRID);
    // Warm: whatever the first sweep in a process sets up once.
    VECTOR.sweep(&compiled, &data, 1).unwrap();
    let (fresh, fresh_sweep) = allocations(|| VECTOR.sweep(&compiled, &data, 1).unwrap());

    let mut prepared = VECTOR.prepare(&compiled).unwrap();
    prepared.sweep(&data, 1).unwrap();
    let (steady, sweep) = allocations(|| prepared.sweep(&data, 1).unwrap());

    assert_eq!(sweep.work, fresh_sweep.work, "the same work either way");
    assert_eq!(
        steady, STEADY,
        "a steady-state prepared sweep (fresh: {fresh})"
    );
    assert!(
        2 * steady <= fresh,
        "a prepared sweep allocates {steady} times, a fresh one {fresh}"
    );
}
