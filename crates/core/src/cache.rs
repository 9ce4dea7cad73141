//! Content-addressed compile cache.
//!
//! Multi-CU domain decomposition compiles one design per distinct slab
//! height ("static shapes": the paper's future-work note that a new
//! bitstream is needed per problem size). Those compilations repeat —
//! across the CUs of one run, across the timesteps of a time-marched run
//! (which must not recompile inside the loop), and across repeated
//! `repro bench` / `repro fuzz` invocations in one process. The cache
//! keys a compiled design by an FNV-1a digest of the kernel's DSL source
//! (which includes the slab's grid shape) plus a fingerprint of the
//! [`CompileOptions`], so a hit is guaranteed to be the design an
//! identical fresh compilation would produce — a property
//! [`CompiledKernel::design_fingerprint`] makes checkable.
//!
//! The FNV-1a hasher here ([`Fnv64`]) is the same construction the
//! conformance fuzzer uses for its kernel-source digest; the fuzzer now
//! reuses this implementation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use shmls_frontend::{kernel_to_source, KernelDef};
use shmls_ir::error::IrResult;
use shmls_ir::ir_error;

use crate::driver::{compile_kernel, CompileOptions, CompiledKernel, TargetPath};

/// Streaming FNV-1a (64-bit) hasher. Stable across hosts and runs — the
/// digest is part of the repo's determinism evidence (fuzzer digests,
/// cache keys, design fingerprints), so it must not depend on
/// `std::hash` internals.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a digest of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// How a cached-compilation request was satisfied.
///
/// The compile server reports this per request, and the load generator's
/// exactly-once accounting depends on the distinction: for a key set with
/// duplicates, the number of [`Disposition::Miss`] outcomes is the number
/// of *actual compilations*, and every duplicate must come back as a
/// [`Disposition::MemoryHit`], [`Disposition::DiskHit`] or
/// [`Disposition::Coalesced`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from the in-memory tier.
    MemoryHit,
    /// Served from the disk tier (a warm restart; see
    /// [`crate::persist::PersistentCache`]). [`CompileCache`] itself never
    /// returns this — only the persistent wrapper does.
    DiskHit,
    /// Not cached anywhere: this request ran the compiler.
    Miss,
    /// A single-flight follower: another request was already compiling
    /// the same key, and this one received the leader's design without
    /// compiling.
    Coalesced,
}

impl Disposition {
    /// Stable wire/metric name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Disposition::MemoryHit => "hit",
            Disposition::DiskHit => "disk-hit",
            Disposition::Miss => "miss",
            Disposition::Coalesced => "coalesced",
        }
    }

    /// Whether the request was served without waiting on a compilation
    /// it triggered (misses compile; coalesced followers wait on the
    /// leader's compile but do not run one).
    pub fn compiled(&self) -> bool {
        matches!(self, Disposition::Miss)
    }

    /// Whether this was a plain cache hit (memory or disk).
    pub fn is_hit(&self) -> bool {
        matches!(self, Disposition::MemoryHit | Disposition::DiskHit)
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cache occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled design.
    pub hits: u64,
    /// Lookups that missed (each one cost a compilation).
    pub misses: u64,
    /// Designs currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0.0` for an untouched cache. The
    /// zero-lookup case must stay finite (and must not claim a perfect
    /// hit rate): bench telemetry serialises this value, and a non-finite
    /// number would serialise as `null` and silently drop the metric from
    /// `repro compare`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded map of shared values, insert-if-absent, evicting in
/// insertion order — the workload is "a handful of keys, reused heavily",
/// not a scan, so recency tracking would buy nothing. Both cache tiers
/// (compiled kernels here, design records in [`crate::persist`]) are one
/// of these behind their own lock.
#[derive(Debug)]
pub(crate) struct FifoMap<V> {
    map: HashMap<u64, Arc<V>>,
    /// Keys in insertion order.
    order: VecDeque<u64>,
    capacity: usize,
}

impl<V> FifoMap<V> {
    /// An empty map holding at most `capacity` values (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        FifoMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<Arc<V>> {
        self.map.get(&key).cloned()
    }

    /// Insert `value` (evicting the oldest entries when full). If the key
    /// is already resident that value wins, so every holder shares one.
    pub(crate) fn insert(&mut self, key: u64, value: Arc<V>) -> Arc<V> {
        if let Some(existing) = self.map.get(&key) {
            return Arc::clone(existing);
        }
        while self.order.len() >= self.capacity {
            let oldest = self.order.pop_front().expect("capacity is at least 1");
            self.map.remove(&oldest);
        }
        self.order.push_back(key);
        self.map.insert(key, Arc::clone(&value));
        value
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A bounded content-addressed cache of compiled kernels.
///
/// Entries are shared as [`Arc`]s, so a cached design can be executed by
/// several compute-unit workers concurrently while the cache itself stays
/// lock-free on the hot read path (the lock is held only around the map
/// probe, never across a compilation).
#[derive(Debug)]
pub struct CompileCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct CacheInner {
    designs: FifoMap<CompiledKernel>,
    /// Single-flight guards: keys whose compilation is in progress. A
    /// thread that misses while a key is here waits on the slot instead
    /// of compiling the same design a second time.
    in_flight: HashMap<u64, Arc<Pending>>,
}

/// A single-flight slot: the leader publishes its outcome here and wakes
/// every follower that blocked on the same key. Errors are carried as
/// strings because [`shmls_ir::error::IrError`] is not `Clone` and each
/// follower needs its own copy.
#[derive(Debug, Default)]
struct Pending {
    done: Mutex<Option<Result<Arc<CompiledKernel>, String>>>,
    cv: Condvar,
}

impl Pending {
    /// Hand `outcome` to every follower, present and future. Runs in a
    /// drop guard too, so it must not panic: a poisoned slot is taken as
    /// it is (assigning the `Option` leaves it valid at every step).
    fn publish(&self, outcome: Result<Arc<CompiledKernel>, String>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.cv.notify_all();
    }
}

/// The leader's hold on its key. If the compilation unwinds — the compile
/// server catches that per request and keeps serving — the drop retires
/// the slot and fails the followers, where they would otherwise wait for
/// ever and every later request for the key would join them.
struct Leading<'c> {
    cache: &'c CompileCache,
    key: u64,
    slot: Arc<Pending>,
    published: bool,
}

impl Drop for Leading<'_> {
    fn drop(&mut self) {
        if !self.published {
            let mut inner = self
                .cache
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            inner.in_flight.remove(&self.key);
            drop(inner);
            self.slot
                .publish(Err("single-flight leader panicked".to_string()));
        }
    }
}

/// Default capacity of [`CompileCache::new`] (also the global cache's).
pub const DEFAULT_CAPACITY: usize = 128;

impl CompileCache {
    /// An empty cache holding at most [`DEFAULT_CAPACITY`] designs.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` designs (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CompileCache {
            inner: Mutex::new(CacheInner {
                designs: FifoMap::new(capacity),
                in_flight: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The content-addressed key: FNV-1a over the kernel's DSL source
    /// (grid shape included, so every slab height keys separately) and a
    /// fingerprint of every compile option. Two requests with the same
    /// key are guaranteed to want byte-identical designs.
    ///
    /// Every option field is hashed explicitly through an exhaustive
    /// destructuring — no `..` — so adding a field to [`CompileOptions`]
    /// or [`crate::hmls::HmlsOptions`] breaks this function at compile
    /// time instead of silently aliasing designs that differ in the new
    /// field. (The previous fingerprint hashed `format!("{opts:?}")`,
    /// which would also quietly change for cosmetic Debug-format edits.)
    pub fn key(kernel: &KernelDef, opts: &CompileOptions) -> u64 {
        let CompileOptions {
            hmls:
                crate::hmls::HmlsOptions {
                    stream_depth,
                    window_stream_depth,
                    ii,
                    unroll,
                    temporal_depth,
                },
            paths,
            verify,
            optimize,
            snapshots,
        } = opts;
        let mut h = Fnv64::new();
        h.update(kernel_to_source(kernel).as_bytes());
        let mut field = |tag: &str, value: i64| {
            h.update(tag.as_bytes());
            h.update(&value.to_le_bytes());
        };
        field("|stream_depth:", *stream_depth);
        field("|window_stream_depth:", *window_stream_depth);
        field("|ii:", *ii);
        field("|unroll:", *unroll);
        field("|temporal_depth:", *temporal_depth as i64);
        field(
            "|paths:",
            match paths {
                TargetPath::HlsOnly => 0,
                TargetPath::HlsAndCpu => 1,
                TargetPath::Full => 2,
            },
        );
        field("|verify:", i64::from(*verify));
        field("|optimize:", i64::from(*optimize));
        field("|snapshots:", i64::from(*snapshots));
        h.finish()
    }

    /// Look up a design by key, counting the hit or miss.
    pub fn lookup(&self, key: u64) -> Option<Arc<CompiledKernel>> {
        let found = self.inner.lock().expect("cache poisoned").designs.get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a design (evicting the oldest entry when full). If another
    /// thread inserted the same key first, the resident entry wins so
    /// every holder shares one design.
    pub fn insert(&self, key: u64, compiled: Arc<CompiledKernel>) -> Arc<CompiledKernel> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        inner.designs.insert(key, compiled)
    }

    /// Fetch the design for `kernel` under `opts`, compiling on a miss.
    /// Returns the design and whether it was a cache hit. The lock is
    /// never held during compilation, so concurrent misses on *different*
    /// kernels compile in parallel; concurrent requests for the *same*
    /// key are single-flighted — the first becomes the leader and
    /// compiles (the one miss), everyone else blocks on the in-flight
    /// slot and receives the leader's design (a hit each). Before the
    /// guard, N racing threads would each run the full pass pipeline and
    /// dedup only at insertion, wasting N−1 compilations.
    pub fn get_or_compile(
        &self,
        kernel: &KernelDef,
        opts: &CompileOptions,
    ) -> IrResult<(Arc<CompiledKernel>, bool)> {
        self.get_or_compile_traced(kernel, opts)
            .map(|(compiled, disposition)| (compiled, !disposition.compiled()))
    }

    /// [`Self::get_or_compile`], but reporting *how* the request was
    /// served: a memory hit, the compiling miss, or a coalesced
    /// single-flight follower. The compile server uses this to attach a
    /// cache disposition to every response; the boolean form above
    /// collapses hit and coalesced (both "did not compile").
    pub fn get_or_compile_traced(
        &self,
        kernel: &KernelDef,
        opts: &CompileOptions,
    ) -> IrResult<(Arc<CompiledKernel>, Disposition)> {
        self.single_flight(Self::key(kernel, opts), || {
            compile_kernel(kernel.clone(), opts)
        })
    }

    /// The design under `key`, from the map, from the leader already
    /// compiling it, or from `compile` with this caller as the leader.
    fn single_flight(
        &self,
        key: u64,
        compile: impl FnOnce() -> IrResult<CompiledKernel>,
    ) -> IrResult<(Arc<CompiledKernel>, Disposition)> {
        enum Role {
            Leader(Arc<Pending>),
            Follower(Arc<Pending>),
        }
        let role = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            if let Some(hit) = inner.designs.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((hit, Disposition::MemoryHit));
            }
            match inner.in_flight.get(&key) {
                Some(slot) => Role::Follower(Arc::clone(slot)),
                None => {
                    let slot = Arc::new(Pending::default());
                    inner.in_flight.insert(key, Arc::clone(&slot));
                    Role::Leader(slot)
                }
            }
        };
        match role {
            Role::Leader(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let mut leading = Leading {
                    cache: self,
                    key,
                    slot,
                    published: false,
                };
                let outcome = compile().map(Arc::new);
                let result = {
                    // Publish to the map and retire the guard in one
                    // critical section, so a thread that finds the guard
                    // gone is guaranteed to find the entry.
                    let mut inner = self.inner.lock().expect("cache poisoned");
                    inner.in_flight.remove(&key);
                    outcome.map(|compiled| inner.designs.insert(key, compiled))
                };
                leading.slot.publish(match &result {
                    Ok(c) => Ok(Arc::clone(c)),
                    Err(e) => Err(e.to_string()),
                });
                leading.published = true;
                result.map(|c| (c, Disposition::Miss))
            }
            Role::Follower(slot) => {
                let mut done = slot.done.lock().expect("pending slot poisoned");
                while done.is_none() {
                    done = slot.cv.wait(done).expect("pending slot poisoned");
                }
                match done.as_ref().expect("checked above") {
                    Ok(compiled) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        Ok((Arc::clone(compiled), Disposition::Coalesced))
                    }
                    Err(msg) => Err(ir_error!("single-flight leader failed: {msg}")),
                }
            }
        }
    }

    /// Traffic and occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache poisoned").designs.len(),
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("cache poisoned").designs.clear();
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache used by the scale-out runners when no explicit
/// cache is supplied — this is what lets repeated `repro bench` /
/// `repro fuzz` work inside one process share slab compilations.
pub fn global_cache() -> &'static CompileCache {
    static GLOBAL: OnceLock<CompileCache> = OnceLock::new();
    GLOBAL.get_or_init(CompileCache::new)
}

// Cached designs are executed concurrently by compute-unit workers;
// sharing them requires the compiled artifact to be thread-safe.
#[allow(dead_code)]
fn _assert_compiled_kernel_is_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledKernel>();
    assert_send_sync::<CompileCache>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TargetPath;
    use shmls_frontend::parse_kernel;

    fn kernel(n0: i64) -> KernelDef {
        parse_kernel(&format!(
            "kernel c {{ grid({n0}, 5) halo 1 field a : input field b : output \
             compute b {{ b = a[-1,0] + a[0,1] }} }}"
        ))
        .unwrap()
    }

    fn opts() -> CompileOptions {
        CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        }
    }

    #[test]
    fn every_option_field_perturbs_the_key() {
        // Exhaustively destructure the defaults: adding a field to either
        // options struct fails here until the new field both feeds
        // `CompileCache::key` and gets a perturbed variant below.
        let k = kernel(6);
        let base = CompileOptions::default();
        let crate::driver::CompileOptions {
            hmls:
                crate::hmls::HmlsOptions {
                    stream_depth,
                    window_stream_depth,
                    ii,
                    unroll,
                    temporal_depth,
                },
            paths: _,
            verify,
            optimize,
            snapshots,
        } = base.clone();
        let variants = vec![
            CompileOptions {
                hmls: crate::hmls::HmlsOptions {
                    stream_depth: stream_depth + 1,
                    ..base.hmls
                },
                ..base.clone()
            },
            CompileOptions {
                hmls: crate::hmls::HmlsOptions {
                    window_stream_depth: window_stream_depth + 1,
                    ..base.hmls
                },
                ..base.clone()
            },
            CompileOptions {
                hmls: crate::hmls::HmlsOptions {
                    ii: ii + 1,
                    ..base.hmls
                },
                ..base.clone()
            },
            CompileOptions {
                hmls: crate::hmls::HmlsOptions {
                    unroll: unroll + 1,
                    ..base.hmls
                },
                ..base.clone()
            },
            CompileOptions {
                hmls: crate::hmls::HmlsOptions {
                    temporal_depth: temporal_depth + 1,
                    ..base.hmls
                },
                ..base.clone()
            },
            CompileOptions {
                paths: TargetPath::HlsOnly,
                ..base.clone()
            },
            CompileOptions {
                paths: TargetPath::HlsAndCpu,
                ..base.clone()
            },
            CompileOptions {
                verify: !verify,
                ..base.clone()
            },
            CompileOptions {
                optimize: !optimize,
                ..base.clone()
            },
            CompileOptions {
                snapshots: !snapshots,
                ..base.clone()
            },
        ];
        let base_key = CompileCache::key(&k, &base);
        let mut keys = vec![base_key];
        for (i, v) in variants.iter().enumerate() {
            let key = CompileCache::key(&k, v);
            assert_ne!(key, base_key, "variant {i} must not alias the defaults");
            keys.push(key);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            variants.len() + 1,
            "every perturbed option set must key separately"
        );
        // The key must also be stable across calls (pure function).
        assert_eq!(base_key, CompileCache::key(&k, &base));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn same_kernel_twice_compiles_once() {
        let cache = CompileCache::new();
        let (_, hit1) = cache.get_or_compile(&kernel(6), &opts()).unwrap();
        let (_, hit2) = cache.get_or_compile(&kernel(6), &opts()).unwrap();
        assert!(!hit1, "first request must compile");
        assert!(hit2, "second request must hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_slab_heights_compile_separately() {
        let cache = CompileCache::new();
        cache.get_or_compile(&kernel(6), &opts()).unwrap();
        cache.get_or_compile(&kernel(7), &opts()).unwrap();
        cache.get_or_compile(&kernel(6), &opts()).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let cache = CompileCache::new();
        cache.get_or_compile(&kernel(6), &opts()).unwrap();
        let full = CompileOptions {
            ..Default::default()
        };
        let (compiled, hit) = cache.get_or_compile(&kernel(6), &full).unwrap();
        assert!(!hit, "different options must not alias");
        assert!(compiled.cpu_func.is_some(), "full compile was produced");
    }

    #[test]
    fn cached_design_is_identical_to_a_fresh_compilation() {
        let cache = CompileCache::new();
        let (cached, _) = cache.get_or_compile(&kernel(9), &opts()).unwrap();
        let (same, hit) = cache.get_or_compile(&kernel(9), &opts()).unwrap();
        assert!(hit);
        let fresh = crate::driver::compile_kernel(kernel(9), &opts()).unwrap();
        assert_eq!(cached.design_fingerprint(), fresh.design_fingerprint());
        assert_eq!(cached.design_fingerprint(), same.design_fingerprint());
    }

    #[test]
    fn fifo_eviction_bounds_occupancy() {
        let cache = CompileCache::with_capacity(2);
        for n0 in [5, 6, 7, 8] {
            cache.get_or_compile(&kernel(n0), &opts()).unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.misses, 4);
        // The two newest survive; the oldest two were evicted.
        let (_, hit8) = cache.get_or_compile(&kernel(8), &opts()).unwrap();
        assert!(hit8);
        let (_, hit5) = cache.get_or_compile(&kernel(5), &opts()).unwrap();
        assert!(!hit5);
    }

    #[test]
    fn untouched_cache_reports_zero_hit_rate() {
        // Regression: this used to return 1.0 before any lookup, which
        // made an idle cache read as "perfect" in telemetry.
        let stats = CacheStats {
            hits: 0,
            misses: 0,
            entries: 0,
        };
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        assert_eq!(CompileCache::new().stats().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_same_key_requests_compile_once() {
        const THREADS: usize = 8;
        let cache = Arc::new(CompileCache::new());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compile(&kernel(11), &opts()).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

        // Exactly one thread compiled (the single miss); every other
        // request was served by the in-flight guard or the map.
        let s = cache.stats();
        assert_eq!(s.misses, 1, "single-flight must compile exactly once");
        assert_eq!(s.hits, THREADS as u64 - 1);
        assert_eq!(s.entries, 1);
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        let first = &results[0].0;
        for (design, _) in &results {
            assert!(
                Arc::ptr_eq(first, design),
                "all threads must share one compiled design"
            );
        }
    }

    #[test]
    fn panicking_leader_fails_its_followers_and_frees_its_key() {
        // Regression: the slot was retired only on the leader's return
        // paths, so a compilation that unwound (the server catches that
        // per request) left its followers waiting for ever and turned
        // every later request for the key into one more of them.
        let cache = CompileCache::new();
        let key = CompileCache::key(&kernel(6), &opts());
        std::thread::scope(|s| {
            let (leading_tx, leading_rx) = std::sync::mpsc::channel();
            let cache = &cache;
            let leader = s.spawn(move || {
                cache.single_flight(key, || {
                    leading_tx.send(()).unwrap();
                    // Unwind only once the follower holds the slot too
                    // (the map, this leader and the follower: three).
                    while Arc::strong_count(&cache.inner.lock().unwrap().in_flight[&key]) < 3 {
                        std::thread::yield_now();
                    }
                    panic!("the compilation unwinds");
                })
            });
            leading_rx.recv().unwrap();
            let follower =
                s.spawn(|| cache.single_flight(key, || unreachable!("a follower never compiles")));
            assert!(
                leader.join().is_err(),
                "the leader's panic reaches its caller"
            );
            let err = follower.join().unwrap().unwrap_err().to_string();
            assert!(err.contains("single-flight leader panicked"), "{err}");
        });
        let (_, disposition) = cache
            .single_flight(key, || compile_kernel(kernel(6), &opts()))
            .unwrap();
        assert_eq!(disposition, Disposition::Miss);
    }

    #[test]
    fn dispositions_distinguish_miss_hit_and_coalesced() {
        let cache = CompileCache::new();
        let (_, d1) = cache.get_or_compile_traced(&kernel(6), &opts()).unwrap();
        let (_, d2) = cache.get_or_compile_traced(&kernel(6), &opts()).unwrap();
        assert_eq!(d1, Disposition::Miss);
        assert_eq!(d2, Disposition::MemoryHit);
        assert!(d1.compiled() && !d2.compiled());
        assert!(!d1.is_hit() && d2.is_hit());
        assert_eq!(d1.as_str(), "miss");
        assert_eq!(Disposition::Coalesced.as_str(), "coalesced");
        assert_eq!(Disposition::DiskHit.as_str(), "disk-hit");
    }

    #[test]
    fn eviction_race_still_compiles_each_key_exactly_once() {
        // Capacity 1, so every insertion evicts the previous entry —
        // including, potentially, a design that racing same-key requests
        // are still being served. An in-progress key lives in the
        // single-flight table (not the FIFO map), so eviction must never
        // cause a second compilation of a key whose leader is mid-flight:
        // followers take the design from the leader's published slot, not
        // from the (possibly already-evicted) map entry.
        const RACERS: usize = 6;
        const CHURN_KEYS: i64 = 4;
        const ATTEMPTS: usize = 8;
        let mut attempt = 0;
        let (cache, results) = loop {
            attempt += 1;
            let cache = Arc::new(CompileCache::with_capacity(1));
            let barrier = Arc::new(std::sync::Barrier::new(RACERS + 1));
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        cache.get_or_compile_traced(&kernel(13), &opts()).unwrap()
                    })
                })
                .collect();
            // Churn thread: keeps inserting distinct keys so the FIFO slot
            // turns over while the racers' key is in flight.
            let churn = {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for n0 in 20..20 + CHURN_KEYS {
                        cache.get_or_compile_traced(&kernel(n0), &opts()).unwrap();
                    }
                })
            };
            let results: Vec<_> = racers.into_iter().map(|r| r.join().unwrap()).collect();
            churn.join().unwrap();

            // The race only exercises the in-flight guard if the racers
            // actually overlapped. A racer scheduled later than the
            // leader's whole compile *plus* the churn thread's eviction
            // legitimately misses again — that's the cache working, not
            // the bug under test — so retry until an attempt overlaps
            // (a loaded CI host can need a few tries).
            let compiles = results.iter().filter(|(_, d)| d.compiled()).count();
            assert!(compiles >= 1, "someone must have compiled key 13");
            if compiles == 1 || attempt == ATTEMPTS {
                assert_eq!(compiles, 1, "evicted in-flight key must compile once");
                break (cache, results);
            }
        };
        let first = &results[0].0;
        for (design, d) in &results {
            assert!(Arc::ptr_eq(first, design), "racers must share one design");
            assert!(matches!(
                d,
                Disposition::Miss | Disposition::MemoryHit | Disposition::Coalesced
            ));
        }
        let s = cache.stats();
        assert_eq!(
            s.misses,
            1 + CHURN_KEYS as u64,
            "misses = one per distinct key, never more"
        );
        assert_eq!(s.entries, 1, "capacity-1 FIFO holds exactly one design");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = CompileCache::new();
        cache.get_or_compile(&kernel(6), &opts()).unwrap();
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 1);
    }
}
