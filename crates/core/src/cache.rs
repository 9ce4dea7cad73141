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

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use shmls_frontend::{kernel_to_source, KernelDef};
use shmls_ir::error::IrResult;
use shmls_ir::ir_error;
use shmls_ir::json::Json;

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
    /// Served from the disk tier (a warm restart): only
    /// [`crate::persist::PersistentCache`] has one.
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

    /// The disposition a wire name spells ([`Self::as_str`]'s inverse).
    pub fn from_label(label: &str) -> Option<Disposition> {
        use Disposition::*;
        [MemoryHit, DiskHit, Miss, Coalesced]
            .into_iter()
            .find(|d| d.as_str() == label)
    }

    /// Whether the request was served without waiting on a compilation
    /// it triggered (misses compile; coalesced followers wait on the
    /// leader's compile but do not run one).
    pub fn compiled(&self) -> bool {
        matches!(self, Disposition::Miss)
    }
}

/// The ledger of a stream of requests: how many, how many failed, and how
/// each of the rest was served. The load generator's phases and per-key
/// rows and the router's per-shard rows each hold one, written by
/// [`Self::to_json`] under the same six names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispositionCounts {
    /// Requests observed.
    pub requests: u64,
    /// Requests that failed, or succeeded without a known disposition.
    pub errors: u64,
    /// Served as [`Disposition::MemoryHit`].
    pub memory_hits: u64,
    /// Served as [`Disposition::DiskHit`].
    pub disk_hits: u64,
    /// Served as [`Disposition::Miss`] (a compilation ran).
    pub misses: u64,
    /// Served as [`Disposition::Coalesced`].
    pub coalesced: u64,
}

impl DispositionCounts {
    /// Count one request: how it was served, or `None` for a failed one.
    pub fn record(&mut self, served: Option<Disposition>) {
        self.requests += 1;
        *match served {
            Some(Disposition::MemoryHit) => &mut self.memory_hits,
            Some(Disposition::DiskHit) => &mut self.disk_hits,
            Some(Disposition::Miss) => &mut self.misses,
            Some(Disposition::Coalesced) => &mut self.coalesced,
            None => &mut self.errors,
        } += 1;
    }

    /// Add `other`'s counts into `self`.
    pub fn absorb(&mut self, other: &DispositionCounts) {
        self.requests += other.requests;
        self.errors += other.errors;
        self.memory_hits += other.memory_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
    }

    /// Hit fraction of all requests: memory + disk hits, not coalesced ones.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.memory_hits + self.disk_hits, self.requests)
    }

    /// The six counts as the members of a JSON object, in declaration
    /// order; an embedding document appends what is its own.
    pub fn to_json(&self) -> Vec<(String, Json)> {
        [
            ("requests", self.requests),
            ("errors", self.errors),
            ("memory_hits", self.memory_hits),
            ("disk_hits", self.disk_hits),
            ("misses", self.misses),
            ("coalesced", self.coalesced),
        ]
        .into_iter()
        .map(|(name, n)| (name.to_string(), Json::Num(n as f64)))
        .collect()
    }

    /// Read the counts back out of an object holding those six members.
    pub fn from_json(doc: &Json) -> Result<DispositionCounts, String> {
        let num = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric `{name}`"))
        };
        Ok(DispositionCounts {
            requests: num("requests")?,
            errors: num("errors")?,
            memory_hits: num("memory_hits")?,
            disk_hits: num("disk_hits")?,
            misses: num("misses")?,
            coalesced: num("coalesced")?,
        })
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
    /// Hit fraction in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

/// `part / whole`, and 0 of nothing: an idle cache claims no perfect hit
/// rate, and `repro compare` silently drops a non-finite row (`null`).
pub(crate) fn ratio(part: u64, whole: u64) -> f64 {
    match whole {
        0 => 0.0,
        _ => part as f64 / whole as f64,
    }
}

/// Lock a mutex whose every critical section here leaves its data whole
/// (a map probe, a whole insert, one assignment): a request that panicked
/// holding it must not fail every later request with a poisoned lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounded map of shared values in which concurrent requests for one
/// absent key make it exactly once: the first becomes the leader and runs
/// `make`, everyone else blocks on the in-flight slot and receives the
/// leader's value. Both caches are one: of compiled kernels
/// ([`CompileCache`]), of design records ([`crate::persist`]). The lock is
/// never held across a `make`, so misses on *different* keys run in parallel.
#[derive(Debug)]
pub(crate) struct SingleFlight<V> {
    inner: Mutex<Flights<V>>,
}

/// The resident values — evicted in insertion order: "a handful of keys,
/// reused heavily" gives recency nothing to track — and the flights.
#[derive(Debug)]
struct Flights<V> {
    resident: HashMap<u64, Arc<V>>,
    /// Resident keys in insertion order.
    order: VecDeque<u64>,
    capacity: usize,
    /// Keys whose value is being made. A thread that misses while a key
    /// is here waits on the slot instead of making the value again.
    in_flight: HashMap<u64, Arc<Pending<V>>>,
}

impl<V> Flights<V> {
    /// Make `value` resident (evicting the oldest entries when full). If
    /// the key already is, that value wins, so every holder shares one.
    fn insert(&mut self, key: u64, value: Arc<V>) -> Arc<V> {
        if let Some(existing) = self.resident.get(&key) {
            return Arc::clone(existing);
        }
        while self.order.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.resident.remove(&oldest);
            }
        }
        self.order.push_back(key);
        self.resident.insert(key, Arc::clone(&value));
        value
    }
}

/// A single-flight slot: the leader's outcome, and the condition every
/// follower that blocked on the same key waits on for it.
#[derive(Debug)]
struct Pending<V> {
    done: Mutex<Option<IrResult<Arc<V>>>>,
    cv: Condvar,
}

/// The leader's hold on its key; dropping it lands the flight, also when
/// `make` unwinds (the compile server catches that per request and keeps
/// serving): the followers are failed, where they would otherwise wait for
/// ever and every later request for the key would join them.
struct Leading<'c, V> {
    flights: &'c SingleFlight<V>,
    key: u64,
    slot: Arc<Pending<V>>,
    /// What the followers get: a panic report until `make` has returned.
    outcome: IrResult<Arc<V>>,
}

impl<V> Drop for Leading<'_, V> {
    fn drop(&mut self) {
        // Resident and retired in one critical section: a thread that
        // finds the flight gone is guaranteed to find the entry.
        let mut inner = lock(&self.flights.inner);
        inner.in_flight.remove(&self.key);
        let outcome = self.outcome.clone();
        let outcome = outcome.map(|value| inner.insert(self.key, value));
        drop(inner);
        // Neither the insert nor assigning the `Option` can panic, as a
        // drop that may run while the leader unwinds must not.
        *lock(&self.slot.done) = Some(outcome);
        self.slot.cv.notify_all();
    }
}

impl<V> SingleFlight<V> {
    /// An empty map keeping at most `capacity` values resident (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        SingleFlight {
            inner: Mutex::new(Flights {
                resident: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
                in_flight: HashMap::new(),
            }),
        }
    }

    /// The resident value under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<Arc<V>> {
        lock(&self.inner).resident.get(&key).cloned()
    }

    /// [`Flights::insert`] under the lock.
    pub(crate) fn insert(&self, key: u64, value: Arc<V>) -> Arc<V> {
        lock(&self.inner).insert(key, value)
    }

    /// The value under `key`: resident ([`Disposition::MemoryHit`]), from
    /// the leader already making it ([`Disposition::Coalesced`]), or from
    /// `make` with this caller as the leader ([`Disposition::Miss`]). A
    /// failed `make` reaches its followers too (context added, kind kept)
    /// and leaves nothing resident.
    pub(crate) fn get_or_make(
        &self,
        key: u64,
        make: impl FnOnce() -> IrResult<V>,
    ) -> IrResult<(Arc<V>, Disposition)> {
        let (slot, leads) = {
            let mut inner = lock(&self.inner);
            if let Some(hit) = inner.resident.get(&key) {
                return Ok((Arc::clone(hit), Disposition::MemoryHit));
            }
            match inner.in_flight.entry(key) {
                Entry::Occupied(joined) => (Arc::clone(joined.get()), false),
                Entry::Vacant(free) => {
                    let (done, cv) = (Mutex::new(None), Condvar::new());
                    let slot = free.insert(Arc::new(Pending { done, cv }));
                    (Arc::clone(slot), true)
                }
            }
        };
        if leads {
            let mut leading = Leading {
                flights: self,
                key,
                slot: Arc::clone(&slot),
                outcome: Err(ir_error!("single-flight leader panicked")),
            };
            leading.outcome = make().map(Arc::new);
        }
        // The leader finds its own outcome landed; a follower waits.
        let mut done = lock(&slot.done);
        loop {
            match done.as_ref() {
                Some(Ok(value)) if leads => return Ok((Arc::clone(value), Disposition::Miss)),
                Some(Ok(value)) => return Ok((Arc::clone(value), Disposition::Coalesced)),
                Some(Err(e)) if leads => return Err(e.clone()),
                Some(Err(e)) => return Err(e.clone().context("single-flight leader failed")),
                None => done = slot.cv.wait(done).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Values currently resident.
    pub(crate) fn len(&self) -> usize {
        lock(&self.inner).resident.len()
    }

    /// Drop every resident value (flights in progress are not touched).
    pub(crate) fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.resident.clear();
        inner.order.clear();
    }
}

/// A bounded content-addressed cache of compiled kernels.
///
/// Entries are shared as [`Arc`]s, so a cached design can be executed by
/// several compute-unit workers concurrently.
#[derive(Debug)]
pub struct CompileCache {
    designs: SingleFlight<CompiledKernel>,
    hits: AtomicU64,
    misses: AtomicU64,
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
            designs: SingleFlight::new(capacity),
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
    /// field.
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
        let found = self.designs.get(key);
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
        self.designs.insert(key, compiled)
    }

    /// Fetch the design for `kernel` under `opts`, compiling on a miss.
    /// Returns the design and whether it was a cache hit. Of concurrent
    /// requests for the *same* key the first compiles (the one miss) and
    /// everyone else receives the leader's design (a hit each).
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
    /// single-flight follower; the boolean form above collapses hit and
    /// coalesced (both "did not compile").
    pub fn get_or_compile_traced(
        &self,
        kernel: &KernelDef,
        opts: &CompileOptions,
    ) -> IrResult<(Arc<CompiledKernel>, Disposition)> {
        let served = self.designs.get_or_make(Self::key(kernel, opts), || {
            self.misses.fetch_add(1, Ordering::Relaxed);
            compile_kernel(kernel.clone(), opts)
        })?;
        if !served.1.compiled() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(served)
    }

    /// Traffic and occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.designs.len(),
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.designs.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TargetPath;
    use shmls_frontend::parse_kernel;
    use shmls_ir::error::IrError;

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

    /// The key is over the printed source, byte for byte: every cached
    /// design, persisted file name and `source_digest` depends on the
    /// printer writing exactly this text.
    #[test]
    fn catalogue_keys_are_pinned() {
        use shmls_kernels::catalogue::CATALOGUE;
        let keys: Vec<(&str, String)> = CATALOGUE
            .iter()
            .map(|k| {
                let kernel = parse_kernel(&k.source([16, 16, 16])).unwrap();
                let key = CompileCache::key(&kernel, &CompileOptions::default());
                (k.name, format!("{key:016x}"))
            })
            .collect();
        let pinned = [
            ("heat3d", "8a104ceef0904875"),
            ("laplace", "f0ee4afb12c44ed7"),
            ("pw_advection", "37d46dfcca26ff93"),
            ("tracer_advection", "7c21b0c8105703bf"),
        ];
        assert_eq!(keys, pinned.map(|(k, v)| (k, v.to_string())));
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

    /// Lead `key` with `make` while a second request for it is already
    /// waiting on the slot; the leader's and the follower's outcomes.
    fn lead_with_a_follower_waiting(
        flights: &SingleFlight<u32>,
        key: u64,
        make: impl FnOnce() -> IrResult<u32> + Send,
    ) -> (std::thread::Result<IrResult<u32>>, IrResult<u32>) {
        let value = |served: IrResult<(Arc<u32>, Disposition)>| served.map(|(v, _)| *v);
        std::thread::scope(|s| {
            let (leading_tx, leading_rx) = std::sync::mpsc::channel();
            let leader = s.spawn(move || {
                value(flights.get_or_make(key, || {
                    leading_tx.send(()).unwrap();
                    // Finish only once the follower holds the slot too
                    // (the map, this leader twice and the follower: four).
                    while Arc::strong_count(&lock(&flights.inner).in_flight[&key]) < 4 {
                        std::thread::yield_now();
                    }
                    make()
                }))
            });
            leading_rx.recv().unwrap();
            let follower = s.spawn(move || {
                value(flights.get_or_make(key, || unreachable!("a follower never makes")))
            });
            (leader.join(), follower.join().unwrap())
        })
    }

    #[test]
    fn panicking_leader_fails_its_followers_and_frees_its_key() {
        // Regression: the slot was retired only on the leader's return
        // paths, so a compilation that unwound (the server catches that
        // per request) left its followers waiting for ever and turned
        // every later request for the key into one more of them.
        let flights = SingleFlight::new(4);
        let (leader, follower) =
            lead_with_a_follower_waiting(&flights, 7, || panic!("the compilation unwinds"));
        assert!(leader.is_err(), "the leader's panic reaches its caller");
        let err = follower.unwrap_err().to_string();
        assert!(err.contains("single-flight leader panicked"), "{err}");
        let (value, disposition) = flights.get_or_make(7, || Ok(70)).unwrap();
        assert_eq!((*value, disposition), (70, Disposition::Miss));
    }

    #[test]
    fn a_failed_leaders_followers_keep_the_errors_kind() {
        // Regression: the slot carried the leader's error as a string, so
        // the follower of an unsupported kernel saw a `General` error
        // where the leader saw `Unsupported`.
        let flights = SingleFlight::new(4);
        let (leader, follower) = lead_with_a_follower_waiting(&flights, 7, || {
            Err(IrError::unsupported("f32 kernels are not executable"))
        });
        let (leader, follower) = (leader.unwrap().unwrap_err(), follower.unwrap_err());
        assert!(leader.is_unsupported() && follower.is_unsupported());
        assert_eq!(
            follower.to_string(),
            format!("single-flight leader failed: {leader}")
        );
        // An error is not cached: the next request makes the value anew.
        assert_eq!(*flights.get_or_make(7, || Ok(70)).unwrap().0, 70);
    }

    #[test]
    fn a_poisoned_lock_does_not_stop_the_cache() {
        // A request that panics holding the lock (the server catches the
        // panic and keeps serving) must not fail every request after it.
        let cache = CompileCache::new();
        cache.get_or_compile(&kernel(6), &opts()).unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = cache.designs.inner.lock().unwrap();
                panic!("poison the cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.designs.inner.is_poisoned());
        let (_, hit) = cache.get_or_compile(&kernel(6), &opts()).unwrap();
        assert!(hit, "the resident design is still served");
        let (_, hit) = cache.get_or_compile(&kernel(7), &opts()).unwrap();
        assert!(!hit, "and a new key still compiles");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn labels_and_dispositions_are_one_table() {
        use Disposition::*;
        for d in [MemoryHit, DiskHit, Miss, Coalesced] {
            assert_eq!(Disposition::from_label(d.as_str()), Some(d));
        }
        for other in ["", "Hit", "hit ", "disk_hit", "error"] {
            assert_eq!(Disposition::from_label(other), None, "`{other}`");
        }
    }

    #[test]
    fn the_ledger_counts_every_request_once_and_round_trips() {
        let mut counts = DispositionCounts::default();
        assert_eq!(counts.hit_rate(), 0.0);
        let labels = ["hit", "hit", "disk-hit", "miss", "coalesced", "evicted"];
        for label in labels {
            counts.record(Disposition::from_label(label));
        }
        // An `ok` response without a disposition, and a failed request.
        counts.record(None);
        let want = DispositionCounts {
            requests: 7,
            errors: 2,
            memory_hits: 2,
            disk_hits: 1,
            misses: 1,
            coalesced: 1,
        };
        assert_eq!(counts, want);
        assert_eq!(counts.hit_rate(), 3.0 / 7.0);
        let doc = Json::Obj(counts.to_json());
        let names: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        let schema = "requests errors memory_hits disk_hits misses coalesced";
        assert_eq!(names.join(" "), schema);
        assert_eq!(DispositionCounts::from_json(&doc), Ok(counts));
        let err = DispositionCounts::from_json(&Json::Obj(counts.to_json()[..5].to_vec()));
        assert_eq!(err, Err("missing numeric `coalesced`".to_string()));
        counts.absorb(&want);
        assert_eq!((counts.requests, counts.errors, counts.misses), (14, 4, 2));
    }

    #[test]
    fn dispositions_distinguish_miss_hit_and_coalesced() {
        let cache = CompileCache::new();
        let (_, d1) = cache.get_or_compile_traced(&kernel(6), &opts()).unwrap();
        let (_, d2) = cache.get_or_compile_traced(&kernel(6), &opts()).unwrap();
        assert_eq!(d1, Disposition::Miss);
        assert_eq!(d2, Disposition::MemoryHit);
        assert!(d1.compiled() && !d2.compiled());
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
