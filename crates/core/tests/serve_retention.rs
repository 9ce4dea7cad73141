//! The compile service keeps what it serves — design records — and no
//! compiler output: after `PersistentCache` has answered a request, the
//! `CompiledKernel` it compiled for it is gone. A live-bytes
//! `#[global_allocator]` needs a test binary of its own; it measures the
//! whole process (the single-flight race below allocates on its own
//! threads), so the tests here take turns.

// The counting allocator is one of the workspace's four `unsafe` sites
// (scripts/unsafe-sites.sh).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use shmls_frontend::{parse_kernel, KernelDef};
use shmls_kernels::catalogue::CATALOGUE;
use stencil_hmls::persist::PersistentCache;
use stencil_hmls::{CompileOptions, Disposition};

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that publishes nothing.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// One test at a time: the other's allocations would be counted.
static TURN: Mutex<()> = Mutex::new(());

/// Catalogue kernel `i % 4` at a grid no other `i` shares.
fn kernel(i: usize) -> KernelDef {
    let grid = [8 + i as i64, 8, 8];
    parse_kernel(&CATALOGUE[i % CATALOGUE.len()].source(grid)).unwrap()
}

#[test]
fn the_service_retains_no_compiler_output() {
    const KEYS: usize = 16;
    const BUDGET_PER_KEY: isize = 64 * 1024;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let kernels: Vec<KernelDef> = (0..KEYS).map(kernel).collect();
    let opts = CompileOptions::default();
    let cache = PersistentCache::in_memory(64);

    let before = LIVE.load(Ordering::Relaxed);
    for kernel in &kernels {
        let (_, disposition) = cache.get_or_compile_record(kernel, &opts).unwrap();
        assert_eq!(disposition, Disposition::Miss);
    }
    let retained = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(cache.stats().records, KEYS);
    assert!(
        retained < KEYS as isize * BUDGET_PER_KEY,
        "{retained} bytes still held after serving {KEYS} keys: the cache keeps \
         more than the records it answers from (a compiled kernel is ~1.3 MB)"
    );
    // Every key is still answered, from what was kept.
    for kernel in &kernels {
        let (_, disposition) = cache.get_or_compile_record(kernel, &opts).unwrap();
        assert_eq!(disposition, Disposition::MemoryHit);
    }
}

#[test]
fn concurrent_same_key_requests_compile_once() {
    const THREADS: usize = 8;
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let cache = Arc::new(PersistentCache::in_memory(64));
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let (kernel, opts) = (kernel(0), CompileOptions::default());
                barrier.wait();
                cache.get_or_compile_record(&kernel, &opts).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Exactly one request compiled; what the others waited for, or found
    // resident, is the leader's own record.
    let misses = results.iter().filter(|(_, d)| d.compiled()).count();
    assert_eq!(misses, 1, "single-flight must compile exactly once");
    for (record, disposition) in &results {
        assert!(Arc::ptr_eq(record, &results[0].0), "one shared record");
        assert!(matches!(
            disposition,
            Disposition::Miss | Disposition::Coalesced | Disposition::MemoryHit
        ));
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.records), (1, 1));
    assert_eq!(stats.total(), THREADS as u64);
}
