//! The compile service's cache: design records, in memory and on disk.
//!
//! A cache of compiled kernels dies with its process, so every
//! compile-server restart would start cold. Here each compiled design is
//! distilled into a small [`DesignRecord`] (content-addressed key, design
//! fingerprint, structural summary, per-pass timings) and written to disk
//! under a versioned, checksummed format. A restarted process answers
//! repeat requests from these records without compiling. A record is all
//! a response needs — the server ships fingerprints and telemetry over the
//! wire, not the in-memory IR — so it is also all [`PersistentCache`]
//! keeps in memory.
//!
//! Two properties the format guarantees:
//!
//! - **Atomicity.** Entries are written to a temporary file in the same
//!   directory and `rename`d into place, so a reader (or a concurrent
//!   server killed mid-write) never observes a half-written entry under
//!   the final name.
//! - **Corruption tolerance.** Every entry carries a version header and
//!   a trailing FNV-1a checksum over its body. A truncated, bit-flipped
//!   or wrong-version entry fails to decode and is *discarded* — the
//!   key recompiles as a plain miss and the entry is rewritten. A bad
//!   entry never poisons the rest of the cache directory.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shmls_frontend::{kernel_to_source, KernelDef};
use shmls_ir::error::IrResult;

use crate::cache::{fnv1a, ratio, Disposition, SingleFlight};
use crate::driver::{compile_kernel, CompileOptions, CompiledKernel};

/// On-disk format version. Bump on any change to the entry layout; a
/// reader finding a different version discards the entry (recompiling is
/// always safe, trusting a misread record is not).
pub const FORMAT_VERSION: u64 = 1;

const MAGIC: &str = "shmls-design";
const ENTRY_SUFFIX: &str = ".design";

/// Structural summary of a compiled design — the fields of
/// [`crate::hmls::HmlsReport`] a service response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DesignSummary {
    /// Input (read) field count.
    pub inputs: usize,
    /// Output (written) field count.
    pub outputs: usize,
    /// Compute stages generated.
    pub compute_stages: usize,
    /// Stream-duplication stages generated.
    pub dup_stages: usize,
    /// Total streams created.
    pub streams: usize,
    /// Shift buffers (one per read field).
    pub shift_buffers: usize,
}

/// The persistable distillation of one compiled design: everything a
/// compile-service response needs, none of the in-memory IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRecord {
    /// Content-addressed cache key ([`PersistentCache::key`]).
    pub key: u64,
    /// [`CompiledKernel::design_fingerprint`] of the compiled module.
    pub fingerprint: u64,
    /// FNV-1a digest of the canonical kernel source, for an independent
    /// sanity check against key collisions and misfiled entries.
    pub source_digest: u64,
    /// Structural design summary.
    pub summary: DesignSummary,
    /// Per-pass compile timings in microseconds, in execution order —
    /// the timings of the compilation that *produced* this design (a
    /// warm hit reports the original compile cost, not zero).
    pub timings_us: Vec<(String, u64)>,
}

impl DesignRecord {
    /// Distil a freshly compiled kernel into its persistable record.
    pub fn from_compiled(key: u64, compiled: &CompiledKernel) -> Self {
        let r = &compiled.report;
        DesignRecord {
            key,
            fingerprint: compiled.design_fingerprint(),
            source_digest: fnv1a(kernel_to_source(&compiled.kernel).as_bytes()),
            summary: DesignSummary {
                inputs: r.inputs,
                outputs: r.outputs,
                compute_stages: r.compute_stages,
                dup_stages: r.dup_stages,
                streams: r.streams,
                shift_buffers: r.shift_buffers,
            },
            timings_us: compiled
                .timings
                .records()
                .iter()
                .map(|t| (t.name.clone(), t.duration.as_micros() as u64))
                .collect(),
        }
    }

    /// Serialise to the on-disk entry text: a version header, one
    /// `name value` line per field, and a trailing `checksum` line over
    /// everything before it.
    pub fn encode(&self) -> String {
        let mut body = format!("{MAGIC} v{FORMAT_VERSION}\n");
        body.push_str(&format!("key {:016x}\n", self.key));
        body.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        body.push_str(&format!("source {:016x}\n", self.source_digest));
        let s = &self.summary;
        body.push_str(&format!("inputs {}\n", s.inputs));
        body.push_str(&format!("outputs {}\n", s.outputs));
        body.push_str(&format!("compute_stages {}\n", s.compute_stages));
        body.push_str(&format!("dup_stages {}\n", s.dup_stages));
        body.push_str(&format!("streams {}\n", s.streams));
        body.push_str(&format!("shift_buffers {}\n", s.shift_buffers));
        for (name, us) in &self.timings_us {
            // Pass names are single tokens by construction; a name that
            // ever grew whitespace would fail the strict decode below,
            // reading as corruption rather than silently misparsing.
            body.push_str(&format!("timing {name} {us}\n"));
        }
        let sum = fnv1a(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body
    }

    /// Parse an on-disk entry. Returns `None` on *any* anomaly — wrong
    /// magic or version, missing or malformed fields, truncation, or a
    /// checksum mismatch. Callers treat `None` as "not cached".
    pub fn decode(text: &str) -> Option<DesignRecord> {
        // The checksum line must be the final line and must match the
        // digest of everything before it.
        let trimmed = text.strip_suffix('\n')?;
        let (body_less_sum, sum_line) = trimmed.rsplit_once('\n')?;
        let body = format!("{body_less_sum}\n");
        let sum_hex = sum_line.strip_prefix("checksum ")?;
        let sum = u64::from_str_radix(sum_hex, 16).ok()?;
        if fnv1a(body.as_bytes()) != sum {
            return None;
        }

        let mut lines = body.lines();
        let header = lines.next()?;
        let version = header.strip_prefix(MAGIC)?.trim().strip_prefix('v')?;
        if version.parse::<u64>().ok()? != FORMAT_VERSION {
            return None;
        }
        let hex_field = |name: &str, lines: &mut std::str::Lines| -> Option<u64> {
            let line = lines.next()?;
            let value = line.strip_prefix(name)?.strip_prefix(' ')?;
            u64::from_str_radix(value, 16).ok()
        };
        let key = hex_field("key", &mut lines)?;
        let fingerprint = hex_field("fingerprint", &mut lines)?;
        let source_digest = hex_field("source", &mut lines)?;
        let count_field = |name: &str, lines: &mut std::str::Lines| -> Option<usize> {
            let line = lines.next()?;
            line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok()
        };
        let summary = DesignSummary {
            inputs: count_field("inputs", &mut lines)?,
            outputs: count_field("outputs", &mut lines)?,
            compute_stages: count_field("compute_stages", &mut lines)?,
            dup_stages: count_field("dup_stages", &mut lines)?,
            streams: count_field("streams", &mut lines)?,
            shift_buffers: count_field("shift_buffers", &mut lines)?,
        };
        let mut timings_us = Vec::new();
        for line in lines {
            let rest = line.strip_prefix("timing ")?;
            let (name, us) = rest.split_once(' ')?;
            if name.is_empty() || name.contains(char::is_whitespace) {
                return None;
            }
            timings_us.push((name.to_string(), us.parse().ok()?));
        }
        Some(DesignRecord {
            key,
            fingerprint,
            source_digest,
            summary,
            timings_us,
        })
    }
}

/// A directory of persisted [`DesignRecord`] entries, one file per key.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a cache directory. Entries are loaded
    /// lazily, per key, on first request — opening is O(1) regardless of
    /// how many designs are persisted.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DiskStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(DiskStore { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry file for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}{ENTRY_SUFFIX}"))
    }

    /// Load the entry for `key`, if present and intact. Corrupt entries
    /// read as absent.
    pub fn load(&self, key: u64) -> Option<DesignRecord> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        let record = DesignRecord::decode(&text)?;
        // A record that decodes but names a different key is misfiled
        // (or the victim of a very unlucky corruption): discard it.
        (record.key == key).then_some(record)
    }

    /// Persist `record` atomically: write a temporary file in the same
    /// directory, fsync it, then `rename` over the final name. Readers
    /// only ever see absent-or-complete entries; a concurrent writer of
    /// the same key loses the rename race benignly (both wrote
    /// byte-identical content — the key is content-addressed).
    pub fn store(&self, record: &DesignRecord) -> io::Result<()> {
        // The temp name carries a process-wide nonce on top of the pid:
        // several caches in ONE process can share a directory (sharded
        // servers sharing a disk tier), and pid alone would let their
        // same-key writes race on a single temp file.
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let final_path = self.entry_path(record.key);
        let tmp_path = self.dir.join(format!(
            ".{:016x}.tmp-{}-{}",
            record.key,
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(record.encode().as_bytes())?;
        f.sync_all()?;
        drop(f);
        let renamed = fs::rename(&tmp_path, &final_path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp_path);
        }
        renamed
    }

    /// Eagerly read every entry in the directory: the intact records,
    /// plus a count of entries that failed to decode and were skipped.
    /// The lazy per-key path never needs this; it exists for startup
    /// reporting ("N designs persisted, M corrupt") and tests.
    pub fn scan(&self) -> (Vec<DesignRecord>, usize) {
        let mut records = Vec::new();
        let mut skipped = 0usize;
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return (records, skipped);
        };
        let mut paths: Vec<PathBuf> = dir
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(ENTRY_SUFFIX) && !n.starts_with('.'))
            })
            .collect();
        paths.sort();
        for path in paths {
            let decoded = fs::read_to_string(&path)
                .ok()
                .and_then(|text| DesignRecord::decode(&text));
            match decoded {
                Some(record) => records.push(record),
                None => skipped += 1,
            }
        }
        (records, skipped)
    }
}

/// Traffic counters for a [`PersistentCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served from the memory tier.
    pub memory_hits: u64,
    /// Requests served from disk (warm restarts).
    pub disk_hits: u64,
    /// Requests that ran a compilation.
    pub misses: u64,
    /// Single-flight followers served by a concurrent leader's compile.
    pub coalesced: u64,
    /// Records currently resident in memory.
    pub records: usize,
}

impl ServeStats {
    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.misses + self.coalesced
    }

    /// Plain-hit fraction in `[0, 1]` (memory + disk hits; coalesced
    /// followers are counted in the denominator but are not hits).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.memory_hits + self.disk_hits, self.total())
    }

    /// Add `other`'s counters into `self`: the incarnations of a
    /// restarted shard, every shard of a ring. `records` then reads
    /// "records held across the summed caches".
    pub fn absorb(&mut self, other: &ServeStats) {
        self.memory_hits += other.memory_hits;
        self.disk_hits += other.disk_hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.records += other.records;
    }
}

/// The two-tier (memory + optional disk) compile cache the server runs
/// on. Both tiers store [`DesignRecord`]s: a [`CompiledKernel`] lives only
/// inside the request that compiles it, which distils and drops it before
/// it publishes — no response reads it again, and it outweighs its record
/// some thousandfold. The memory tier is single-flight: concurrent
/// requests for one key compile exactly once however they interleave with
/// eviction or persistence.
#[derive(Debug)]
pub struct PersistentCache {
    /// Bounded: a record is tiny, a service that never evicts is not.
    records: SingleFlight<DesignRecord>,
    disk: Option<DiskStore>,
    /// Requests served, by [`Disposition`] (`as usize`).
    served: [AtomicU64; 4],
}

impl PersistentCache {
    /// A memory-only cache (no persistence) keeping `8 × capacity`
    /// records resident (a record is a few hundred bytes).
    pub fn in_memory(capacity: usize) -> Self {
        PersistentCache {
            records: SingleFlight::new(capacity.max(1).saturating_mul(8)),
            disk: None,
            served: Default::default(),
        }
    }

    /// A cache persisted under `dir` (created if needed). Existing
    /// entries are *not* read here — they are loaded lazily, per key, on
    /// first request, so startup cost is independent of cache size.
    pub fn with_dir(dir: impl AsRef<Path>, capacity: usize) -> io::Result<Self> {
        let mut cache = Self::in_memory(capacity);
        cache.disk = Some(DiskStore::open(dir)?);
        Ok(cache)
    }

    /// The disk tier, when persistence is on.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The content-addressed key ([`crate::cache::CompileCache::key`]).
    pub fn key(kernel: &KernelDef, opts: &CompileOptions) -> u64 {
        crate::cache::CompileCache::key(kernel, opts)
    }

    /// Serve the design record for `kernel` under `opts`: from the
    /// memory tier, then the disk tier, then by compiling (concurrent
    /// same-key misses single-flighted). The [`Disposition`] says which.
    pub fn get_or_compile_record(
        &self,
        kernel: &KernelDef,
        opts: &CompileOptions,
    ) -> IrResult<(Arc<DesignRecord>, Disposition)> {
        let key = Self::key(kernel, opts);
        let (record, disposition) = if let Some(record) = self.records.get(key) {
            (record, Disposition::MemoryHit)
        } else if let Some(loaded) = self.disk.as_ref().and_then(|disk| disk.load(key)) {
            // Outside the flight; racing loads share whichever record
            // lands first. A record this cache compiled is resident before
            // it is on disk, so one found resident by now was served from
            // memory to whoever raced this load — and so is this request.
            let loaded = Arc::new(loaded);
            let record = self.records.insert(key, Arc::clone(&loaded));
            let disposition = if Arc::ptr_eq(&record, &loaded) {
                Disposition::DiskHit
            } else {
                Disposition::MemoryHit
            };
            (record, disposition)
        } else {
            let (record, disposition) = self.records.get_or_make(key, || {
                let compiled = compile_kernel(kernel.clone(), opts)?;
                Ok(DesignRecord::from_compiled(key, &compiled))
            })?;
            // Persisted by the leader once the record is resident, never
            // before: a request that misses memory cannot find the file.
            // Persistence is best-effort: a full disk degrades the next
            // restart to cold, it must not fail the request.
            if let (Disposition::Miss, Some(disk)) = (disposition, &self.disk) {
                let _ = disk.store(&record);
            }
            (record, disposition)
        };
        self.served[disposition as usize].fetch_add(1, Ordering::Relaxed);
        Ok((record, disposition))
    }

    /// Traffic counters.
    pub fn stats(&self) -> ServeStats {
        let served = |d: Disposition| self.served[d as usize].load(Ordering::Relaxed);
        ServeStats {
            memory_hits: served(Disposition::MemoryHit),
            disk_hits: served(Disposition::DiskHit),
            misses: served(Disposition::Miss),
            coalesced: served(Disposition::Coalesced),
            records: self.records.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TargetPath;
    use shmls_frontend::parse_kernel;
    use std::sync::atomic::AtomicU32;

    fn kernel(n0: i64) -> KernelDef {
        parse_kernel(&format!(
            "kernel p {{ grid({n0}, 5) halo 1 field a : input field b : output \
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

    /// A fresh, unique scratch directory (no tempfile dependency).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "shmls-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(key: u64) -> DesignRecord {
        DesignRecord {
            key,
            fingerprint: 0xdead_beef_0123_4567,
            source_digest: 0x0123_4567_89ab_cdef,
            summary: DesignSummary {
                inputs: 2,
                outputs: 1,
                compute_stages: 3,
                dup_stages: 1,
                streams: 9,
                shift_buffers: 2,
            },
            timings_us: vec![
                ("parse".into(), 120),
                ("stencil-to-hls".into(), 4210),
                ("total".into(), 9000),
            ],
        }
    }

    #[test]
    fn record_text_round_trips() {
        let record = sample_record(42);
        let text = record.encode();
        assert!(text.starts_with("shmls-design v1\n"));
        assert_eq!(DesignRecord::decode(&text), Some(record));
    }

    #[test]
    fn truncated_or_flipped_entries_fail_to_decode() {
        let text = sample_record(7).encode();
        // Every strict prefix is rejected (truncation at any byte).
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert_eq!(DesignRecord::decode(&text[..cut]), None, "cut at {cut}");
        }
        // A single flipped byte anywhere is rejected.
        for pos in [0, 14, text.len() / 2, text.len() - 2] {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert_eq!(DesignRecord::decode(&s), None, "flip at {pos}");
            }
        }
        // A future format version is rejected rather than misread.
        let future = text.replace("shmls-design v1", "shmls-design v2");
        assert_eq!(DesignRecord::decode(&future), None);
    }

    #[test]
    fn store_is_atomic_and_leaves_no_temp_files() {
        let dir = scratch_dir("atomic");
        let store = DiskStore::open(&dir).unwrap();
        let record = sample_record(3);
        store.store(&record).unwrap();
        assert_eq!(store.load(3), Some(record));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file survived the rename");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misfiled_entry_reads_as_absent() {
        let dir = scratch_dir("misfiled");
        let store = DiskStore::open(&dir).unwrap();
        // A valid record written under the *wrong* key's file name must
        // not be served for that key.
        let record = sample_record(10);
        fs::write(store.entry_path(11), record.encode()).unwrap();
        assert_eq!(store.load(11), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_skipped_and_the_rest_still_load() {
        let dir = scratch_dir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        for key in [1u64, 2, 3] {
            store.store(&sample_record(key)).unwrap();
        }
        // Truncate entry 1 mid-file; bit-flip entry 2.
        let p1 = store.entry_path(1);
        let text = fs::read_to_string(&p1).unwrap();
        fs::write(&p1, &text[..text.len() / 2]).unwrap();
        let p2 = store.entry_path(2);
        let mut bytes = fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&p2, bytes).unwrap();

        let (records, skipped) = store.scan();
        assert_eq!(skipped, 2, "both damaged entries must be skipped");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, 3);
        assert_eq!(store.load(1), None);
        assert_eq!(store.load(2), None);
        assert_eq!(store.load(3).unwrap(), sample_record(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_is_warm_and_compile_free() {
        let dir = scratch_dir("restart");
        let fingerprint = {
            let cache = PersistentCache::with_dir(&dir, 8).unwrap();
            let (record, d) = cache.get_or_compile_record(&kernel(6), &opts()).unwrap();
            assert_eq!(d, Disposition::Miss);
            let (again, d) = cache.get_or_compile_record(&kernel(6), &opts()).unwrap();
            assert_eq!(d, Disposition::MemoryHit);
            assert_eq!(again.fingerprint, record.fingerprint);
            record.fingerprint
        };
        // "Restart": a brand-new cache over the same directory answers
        // without compiling, with the identical fingerprint and the
        // original compile's pass timings.
        let cache = PersistentCache::with_dir(&dir, 8).unwrap();
        let (record, d) = cache.get_or_compile_record(&kernel(6), &opts()).unwrap();
        assert_eq!(d, Disposition::DiskHit);
        assert_eq!(record.fingerprint, fingerprint);
        assert!(record.timings_us.iter().any(|(n, _)| n == "total"));
        let s = cache.stats();
        assert_eq!((s.misses, s.disk_hits), (0, 1));
        // And the disk record matches a fresh compilation exactly.
        let fresh = crate::driver::compile_kernel(kernel(6), &opts()).unwrap();
        assert_eq!(record.fingerprint, fresh.design_fingerprint());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_recompiles_and_heals() {
        let dir = scratch_dir("heal");
        let key = {
            let cache = PersistentCache::with_dir(&dir, 8).unwrap();
            cache.get_or_compile_record(&kernel(7), &opts()).unwrap();
            PersistentCache::key(&kernel(7), &opts())
        };
        // Corrupt the persisted entry, restart: the request must fall
        // through to a miss (never trust a damaged entry) and rewrite it.
        let cache = PersistentCache::with_dir(&dir, 8).unwrap();
        let path = cache.disk().unwrap().entry_path(key);
        fs::write(&path, "shmls-design v1\ngarbage\n").unwrap();
        let (record, d) = cache.get_or_compile_record(&kernel(7), &opts()).unwrap();
        assert_eq!(d, Disposition::Miss);
        // Healed: the rewritten entry round-trips.
        assert_eq!(cache.disk().unwrap().load(key).unwrap(), *record);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_requests_compile_once_and_persist_once() {
        const THREADS: usize = 8;
        let dir = scratch_dir("concurrent");
        let cache = Arc::new(PersistentCache::with_dir(&dir, 8).unwrap());
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_compile_record(&kernel(9), &opts()).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        let misses = results.iter().filter(|(_, d)| d.compiled()).count();
        assert_eq!(misses, 1, "duplicates must compile exactly once");
        let first = &results[0].0;
        for (record, d) in &results {
            assert_eq!(record.fingerprint, first.fingerprint);
            assert!(matches!(
                d,
                Disposition::Miss | Disposition::MemoryHit | Disposition::Coalesced
            ));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.total(), THREADS as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn untouched_stats_are_finite() {
        let stats = ServeStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
    }
}
