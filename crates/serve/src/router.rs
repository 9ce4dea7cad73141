//! The front-tier router: consistent hashing over N compile shards.
//!
//! A single `serve()` process caps the compile service at one machine's
//! worth of workers and one in-memory cache. This module adds the
//! horizontal layer: a router that owns a **consistent-hash ring** over
//! the live shards ([`Ring`]), computes the *content-addressed compile
//! key* for every incoming frame (the same key
//! [`stencil_hmls::cache::CompileCache::key`] uses to deduplicate
//! compilations), and forwards the frame — unmodified — to the shard
//! that owns the key. Responses are stamped with the serving shard's id
//! ([`crate::protocol::Response::shard`]) on the way back.
//!
//! Failure handling is the point of the layer:
//!
//! - **Death detection is passive.** A connect failure, a torn
//!   connection, or a backend read timeout marks the shard dead in the
//!   shared [`Topology`] and removes its ring points. No heartbeats:
//!   the traffic itself is the probe.
//! - **Replay, never drop.** A request that was in flight on a shard
//!   when it died is replayed onto the surviving ring (the rehash picks
//!   the key's new owner). Replays are bounded
//!   ([`RouterConfig::max_replays`] beyond the live-shard count); only
//!   when every shard is gone does the client see a synthesized
//!   `internal` error.
//! - **Replay is safe** because compilation is content-addressed and
//!   shards share a disk tier: a design the dead shard persisted before
//!   the response was lost is served by the new owner as a `disk-hit`,
//!   not recompiled — the ring-wide exactly-once invariant holds.
//!
//! Routing keys degrade gracefully: an unparseable frame or kernel
//! still routes (FNV-1a over the raw bytes) so the owning shard — not
//! the router — produces the typed `protocol`/`compile` error, keeping
//! router-vs-direct behaviour identical.
//!
//! The router reads each frame once: one JSON parse answers the stats
//! check below and yields the request. Keys already computed are kept
//! in a router-wide memo by exact `(source, options)`, so a repeated
//! kernel skips the DSL frontend the key is otherwise computed by.
//!
//! The router answers one control frame itself: `{"control": "stats"}`
//! returns the [`RouterReport`] (per-shard traffic, replays, deaths) as
//! a single JSON line. `repro loadgen --router` uses it to print the
//! per-shard table and embed the report in its JSON output.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use shmls_frontend::parse_kernel;
use shmls_ir::json::Json;
use stencil_hmls::cache::{fnv1a, DispositionCounts};
use stencil_hmls::persist::PersistentCache;

use crate::listener::{lock, Listener};
use crate::protocol::{Client, ErrorKind, Request, RequestOptions, Response};
use crate::shard::Topology;

/// Virtual nodes per shard on the ring. More vnodes smooth the load
/// split (relative imbalance shrinks like `1/sqrt(VNODES)`) at the cost
/// of a larger sorted point table; 128 keeps any shard's share within
/// roughly ±35 % of fair for realistic shard counts while the table
/// stays a few KiB.
pub const VNODES: usize = 128;

/// A consistent-hash ring over shard ids.
///
/// Each shard contributes [`VNODES`] points at
/// `fnv1a(shard_id || vnode_index)` on the `u64` circle; a key is owned
/// by the first point clockwise from its hash. Removing a shard removes
/// only that shard's points, so **only the keys it owned remap** — the
/// minimal-disruption invariant the property tests pin down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Build the ring over the given shard ids (order-insensitive —
    /// the same id set always yields the identical ring).
    pub fn new(shards: &[usize]) -> Ring {
        let mut points = Vec::with_capacity(shards.len() * VNODES);
        for &shard in shards {
            for vnode in 0..VNODES {
                let mut bytes = [0u8; 16];
                bytes[..8].copy_from_slice(&(shard as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&(vnode as u64).to_le_bytes());
                points.push((fnv1a(&bytes), shard));
            }
        }
        points.sort_unstable();
        // A point collision between two shards is astronomically
        // unlikely (~1024²/2⁶⁵); keep the lower shard id so the ring
        // stays a function of the id *set*, not the insertion order.
        points.dedup_by_key(|p| p.0);
        Ring { points }
    }

    /// The shard owning `key`, or `None` for an empty ring.
    pub fn route(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let i = self.points.partition_point(|&(point, _)| point < key);
        Some(self.points[if i == self.points.len() { 0 } else { i }].1)
    }

    /// Whether the ring has any points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// The routing key for one raw request line: the content-addressed
/// compile key when the frame parses all the way down to a kernel, and
/// a deterministic fallback hash otherwise (so malformed frames still
/// have a stable owner to produce their typed error). This is the
/// router's path for a frame its memo has not seen.
pub fn routing_key(line: &str) -> u64 {
    let frame = Frame::read(line);
    match frame.request() {
        Some(request) => compile_key(&request.source, &request.options).0,
        None => frame.fallback_key(),
    }
}

/// The routing key of a request: the compile key when its kernel parses,
/// FNV-1a over its source otherwise. The flag says whether the DSL
/// frontend ran (it does whenever the options resolve).
fn compile_key(source: &str, options: &RequestOptions) -> (u64, bool) {
    let Ok(opts) = options.compile_options() else {
        return (fnv1a(source.as_bytes()), false);
    };
    let key = match parse_kernel(source) {
        Ok(kernel) => PersistentCache::key(&kernel, &opts),
        Err(_) => fnv1a(source.as_bytes()),
    };
    (key, true)
}

/// One request line, read once: its document when it is JSON. The stats
/// check, the request and the id echoed on a synthesized error all read
/// this one parse.
struct Frame<'a> {
    line: &'a str,
    doc: Option<Json>,
}

impl<'a> Frame<'a> {
    fn read(line: &'a str) -> Frame<'a> {
        Frame {
            line,
            doc: Json::parse(line).ok(),
        }
    }

    /// `{"control": "stats"}` — the one frame the router answers itself.
    fn is_stats_control(&self) -> bool {
        self.member("control").and_then(Json::as_str) == Some("stats")
    }

    /// The client's id, when the frame carries one it could read — echoed
    /// even on the errors the router synthesizes.
    fn id(&self) -> Option<u64> {
        self.member("id").and_then(Json::as_u64)
    }

    fn member(&self, name: &str) -> Option<&Json> {
        self.doc.as_ref().and_then(|doc| doc.get(name))
    }

    /// The frame as a protocol request, when it is one.
    fn request(&self) -> Option<Request> {
        Request::from_json(self.doc.as_ref()?).ok()
    }

    /// The key of a frame that is no request: FNV-1a over its bytes.
    fn fallback_key(&self) -> u64 {
        fnv1a(self.line.as_bytes())
    }
}

/// Entries the routing-key memo holds before it starts over.
const KEY_MEMO_ENTRIES: usize = 1024;

/// Routing keys already computed, by the exact `(source, options)` pair
/// they were computed from — the id is not part of it. A hit skips the
/// DSL frontend and compares both fields in full, so a memoized key is
/// the compile key [`routing_key`] gives, and "which shard owns a key"
/// still equals "which cache entry answers it". At
/// [`KEY_MEMO_ENTRIES`] the memo is cleared.
#[derive(Debug, Default)]
struct KeyMemo(Mutex<HashMap<(String, RequestOptions), u64>>);

impl KeyMemo {
    /// The routing key of a request, counting each frontend run in
    /// `stats`. The lock is not held while the frontend runs: two workers
    /// that miss on one pair both compute the same key.
    fn key(&self, request: Request, stats: &RouterStats) -> u64 {
        let entry = (request.source, request.options);
        let hit = lock(&self.0).get(&entry).copied();
        if let Some(key) = hit {
            return key;
        }
        let (key, ran_frontend) = compile_key(&entry.0, &entry.1);
        if ran_frontend {
            stats.frontend_runs.fetch_add(1, Ordering::Relaxed);
        }
        let mut keys = lock(&self.0);
        if keys.len() >= KEY_MEMO_ENTRIES {
            keys.clear();
        }
        keys.insert(entry, key);
        key
    }
}

/// Per-shard traffic, as observed by the router (dispositions are read
/// out of the relayed responses, so this works for out-of-process
/// backends too).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTraffic {
    /// Responses relayed from this shard: typed-error responses
    /// (`ok: false`) are its `errors`.
    pub counts: DispositionCounts,
    /// Requests that failed on this shard and were replayed elsewhere.
    pub replays: u64,
}

/// One shard's row in the [`RouterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard id.
    pub id: usize,
    /// Current backend address (absent while dead and unrestarted).
    pub addr: Option<String>,
    /// Whether the topology currently considers the shard alive.
    pub alive: bool,
    /// Times this shard has been observed (or declared) dead.
    pub deaths: u64,
    /// Traffic relayed through this shard, across incarnations.
    pub traffic: ShardTraffic,
}

/// Aggregated router-side view of the whole ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterReport {
    /// Responses relayed to clients.
    pub forwarded: u64,
    /// Total request replays after shard failures.
    pub replays: u64,
    /// Requests that exhausted every replay (synthesized errors).
    pub unroutable: u64,
    /// Frames whose routing key ran the DSL frontend (`parse_kernel`):
    /// the routing-key memo's misses on well-formed requests.
    pub frontend_runs: u64,
    /// Per-shard rows, ordered by id.
    pub shards: Vec<ShardReport>,
}

impl RouterReport {
    /// Deaths observed across all shards.
    pub fn deaths(&self) -> u64 {
        self.shards.iter().map(|s| s.deaths).sum()
    }

    /// Ring-wide compilations (sum of relayed `miss` dispositions).
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.traffic.counts.misses).sum()
    }

    /// Encode as a JSON document (one line via [`Json::compact`]).
    pub fn to_json(&self) -> Json {
        let num = |name: &str, n: u64| (name.to_string(), Json::Num(n as f64));
        let shard = |s: &ShardReport| {
            let addr = s.addr.clone().map_or(Json::Null, Json::Str);
            let mut row = vec![
                num("id", s.id as u64),
                ("addr".to_string(), addr),
                ("alive".to_string(), Json::Bool(s.alive)),
                num("deaths", s.deaths),
            ];
            // The document lists a shard's `errors` — second of the
            // counts — after its dispositions.
            let errors = row.len() + 1;
            row.extend(s.traffic.counts.to_json());
            row[errors..].rotate_left(1);
            row.push(num("replays", s.traffic.replays));
            Json::Obj(row)
        };
        Json::Obj(vec![
            num("forwarded", self.forwarded),
            num("replays", self.replays),
            num("unroutable", self.unroutable),
            num("frontend_runs", self.frontend_runs),
            (
                "shards".to_string(),
                Json::Arr(self.shards.iter().map(shard).collect()),
            ),
        ])
    }

    /// Parse a report document (the `{"control": "stats"}` reply).
    pub fn from_json(doc: &Json) -> Result<RouterReport, String> {
        let num = |v: &Json, what: &str| -> Result<u64, String> {
            v.get(what)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("router report: missing numeric `{what}`"))
        };
        let mut report = RouterReport {
            forwarded: num(doc, "forwarded")?,
            replays: num(doc, "replays")?,
            unroutable: num(doc, "unroutable")?,
            frontend_runs: num(doc, "frontend_runs")?,
            shards: Vec::new(),
        };
        let shards = doc
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or("router report: missing `shards` array")?;
        for s in shards {
            report.shards.push(ShardReport {
                id: num(s, "id")? as usize,
                addr: s.get("addr").and_then(Json::as_str).map(str::to_string),
                alive: matches!(s.get("alive"), Some(Json::Bool(true))),
                deaths: num(s, "deaths")?,
                traffic: ShardTraffic {
                    counts: DispositionCounts::from_json(s)
                        .map_err(|e| format!("router report: {e}"))?,
                    replays: num(s, "replays")?,
                },
            });
        }
        Ok(report)
    }
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Address to bind (port 0 picks a free port).
    pub addr: String,
    /// Worker threads — concurrently served client connections.
    pub workers: usize,
    /// Extra replay attempts beyond one try per live shard. Bounds how
    /// long a request can bounce before the client sees an error.
    pub max_replays: usize,
    /// Per-read timeout on backend connections. A backend that goes
    /// silent this long is treated as dead (compilations answer in well
    /// under this; the timeout only fires on a truly wedged shard).
    pub backend_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            max_replays: 4,
            backend_timeout: Duration::from_secs(120),
        }
    }
}

/// How long to wait for a shard to (re)join when the ring is empty
/// before giving up on a request.
const EMPTY_RING_BACKOFF: Duration = Duration::from_millis(50);

#[derive(Debug, Default)]
struct RouterStats {
    forwarded: AtomicU64,
    replays: AtomicU64,
    unroutable: AtomicU64,
    frontend_runs: AtomicU64,
    per_shard: Mutex<HashMap<usize, ShardTraffic>>,
}

impl RouterStats {
    /// Update shard `id`'s counters. Every update is one whole integer
    /// increment, so the map behind a poisoned lock is still valid
    /// ([`lock`]): a worker that panicked mid-request must not take the
    /// request path (or the report) down with it.
    fn with_shard(&self, id: usize, f: impl FnOnce(&mut ShardTraffic)) {
        f(lock(&self.per_shard).entry(id).or_default());
    }

    /// The current aggregated report over `topology`'s shards.
    fn report(&self, topology: &Topology) -> RouterReport {
        let per_shard = lock(&self.per_shard).clone();
        let mut shards: Vec<ShardReport> = topology
            .snapshot()
            .into_iter()
            .map(|slot| ShardReport {
                traffic: per_shard.get(&slot.id).copied().unwrap_or_default(),
                id: slot.id,
                addr: slot.addr,
                alive: slot.alive,
                deaths: slot.deaths,
            })
            .collect();
        shards.sort_by_key(|s| s.id);
        RouterReport {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            unroutable: self.unroutable.load(Ordering::Relaxed),
            frontend_runs: self.frontend_runs.load(Ordering::Relaxed),
            shards,
        }
    }
}

/// What the router's workers share: the ring they route over, the
/// counters they keep and the routing-key memo.
#[derive(Debug)]
struct Shared {
    config: RouterConfig,
    topology: Arc<Topology>,
    stats: RouterStats,
    keys: KeyMemo,
}

impl Shared {
    fn report(&self) -> RouterReport {
        self.stats.report(&self.topology)
    }
}

/// A running router. Dropping the handle shuts it down (backends are
/// *not* touched — they belong to the shard supervisor).
#[derive(Debug)]
pub struct RouterHandle {
    listener: Listener,
    shared: Arc<Shared>,
}

impl RouterHandle {
    /// The address the router bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Responses relayed so far — the chaos hooks in `repro route` poll
    /// this to time their kill/restart against real traffic.
    pub fn forwarded(&self) -> u64 {
        self.shared.stats.forwarded.load(Ordering::Relaxed)
    }

    /// The current aggregated report.
    pub fn report(&self) -> RouterReport {
        self.shared.report()
    }

    /// Stop accepting and join every thread.
    pub fn shutdown(self) {
        drop(self.listener);
    }
}

/// Bind the router in front of the shards in `topology` and start
/// serving the NDJSON protocol. Returns once the listener is live.
pub fn start_router(config: RouterConfig, topology: Arc<Topology>) -> io::Result<RouterHandle> {
    let (addr, workers) = (config.addr.clone(), config.workers);
    let shared = Arc::new(Shared {
        config,
        topology,
        stats: RouterStats::default(),
        keys: KeyMemo::default(),
    });
    let listener = {
        let shared = Arc::clone(&shared);
        Listener::start(&addr, workers, BackendPool::new, move |pool, line| {
            let frame = Frame::read(line);
            if frame.is_stats_control() {
                shared.report().to_json().compact()
            } else {
                relay(&frame, &shared, pool)
            }
        })?
    };
    Ok(RouterHandle { listener, shared })
}

/// One backend connection in a worker's pool, keyed by `(shard, addr)`
/// so a restarted shard (same id, new address) gets a fresh connection
/// instead of the stale socket.
type BackendPool = HashMap<(usize, String), Client>;

/// Forward one raw frame to the key's owner, replaying across the
/// surviving ring on failure. Always returns exactly one response line.
/// Panics inside routing (parser bugs on hostile frames) are caught and
/// answered as `internal` errors, matching the backend's discipline.
fn relay(frame: &Frame, shared: &Shared, pool: &mut BackendPool) -> String {
    let attempt = catch_unwind(AssertUnwindSafe(|| relay_inner(frame, shared, pool)));
    match attempt {
        Ok(reply) => reply,
        Err(_) => Response::failure(
            frame.id(),
            ErrorKind::Internal,
            "panic while routing request".to_string(),
            0,
        )
        .encode(),
    }
}

fn relay_inner(frame: &Frame, shared: &Shared, pool: &mut BackendPool) -> String {
    let (config, topology, stats) = (&shared.config, &shared.topology, &shared.stats);
    let key = match frame.request() {
        Some(request) => shared.keys.key(request, stats),
        None => frame.fallback_key(),
    };
    let start = Instant::now();
    let attempts = topology.len().max(1) + config.max_replays;
    let mut failed_over = false;
    for _ in 0..attempts {
        let Some((shard, addr)) = topology.route(key) else {
            // Every shard is dead. Give a restart a moment to rejoin —
            // bounded by the attempt budget, not forever.
            thread::sleep(EMPTY_RING_BACKOFF);
            continue;
        };
        let slot = (shard, addr);
        match exchange(pool, &slot, frame.line, config.backend_timeout) {
            Ok(mut response) => {
                response.shard = Some(shard as u64);
                stats.with_shard(shard, |t| t.counts.record(response.served()));
                stats.forwarded.fetch_add(1, Ordering::Relaxed);
                if failed_over {
                    stats.replays.fetch_add(1, Ordering::Relaxed);
                }
                return response.encode();
            }
            Err(_) => {
                pool.remove(&slot);
                topology.mark_dead(shard, &slot.1);
                stats.with_shard(shard, |t| t.replays += 1);
                failed_over = true;
            }
        }
    }
    stats.unroutable.fetch_add(1, Ordering::Relaxed);
    Response::failure(
        frame.id(),
        ErrorKind::Internal,
        "no live shard could serve the request".to_string(),
        start.elapsed().as_micros() as u64,
    )
    .encode()
}

/// Send `frame` to the shard over its pooled connection (connecting on
/// first use) and read its response. Any transport anomaly is an `Err`,
/// and so is a reply that does not parse — a backend that answers garbage
/// is as dead as one that answers nothing: the caller drops the
/// connection, marks the shard dead and replays.
fn exchange(
    pool: &mut BackendPool,
    slot: &(usize, String),
    frame: &str,
    timeout: Duration,
) -> io::Result<Response> {
    if !pool.contains_key(slot) {
        pool.insert(slot.clone(), Client::connect(&*slot.1, Some(timeout))?);
    }
    let client = pool.get_mut(slot).expect("just inserted");
    let reply = client.roundtrip(frame)?;
    Response::parse(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_every_key_to_a_member() {
        let ring = Ring::new(&[0, 1, 2]);
        for key in [0u64, 1, u64::MAX, 0x1234_5678_9abc_def0] {
            assert!(ring.route(key).is_some_and(|s| s < 3));
        }
        assert_eq!(Ring::new(&[]).route(7), None);
    }

    #[test]
    fn ring_is_order_insensitive() {
        assert_eq!(Ring::new(&[2, 0, 1]), Ring::new(&[0, 1, 2]));
    }

    #[test]
    fn routing_key_matches_the_compile_cache_for_valid_frames() {
        let source = crate::loadgen::kernel_source(3);
        let request = Request {
            id: Some(1),
            source: source.clone(),
            options: crate::protocol::RequestOptions {
                paths: Some("hls".to_string()),
                ..Default::default()
            },
        };
        let kernel = parse_kernel(&source).unwrap();
        let opts = request.compile_options().unwrap();
        assert_eq!(
            routing_key(&request.encode()),
            PersistentCache::key(&kernel, &opts)
        );
    }

    #[test]
    fn routing_key_is_stable_for_malformed_frames() {
        for line in ["not json", r#"{"id": 1}"#, r#"{"source": "kernel bad {"}"#] {
            assert_eq!(routing_key(line), routing_key(line));
        }
        // Two different malformed frames should (generically) differ.
        assert_ne!(routing_key("not json"), routing_key("also not json"));
    }

    #[test]
    fn router_report_round_trips_through_json() {
        let report = RouterReport {
            forwarded: 96,
            replays: 3,
            unroutable: 0,
            frontend_runs: 7,
            shards: vec![ShardReport {
                id: 1,
                addr: Some("127.0.0.1:9000".to_string()),
                alive: true,
                deaths: 1,
                traffic: ShardTraffic {
                    counts: DispositionCounts {
                        requests: 40,
                        memory_hits: 20,
                        disk_hits: 5,
                        misses: 10,
                        coalesced: 4,
                        errors: 1,
                    },
                    replays: 2,
                },
            }],
        };
        let doc = report.to_json();
        assert!(!doc.compact().contains('\n'));
        assert_eq!(RouterReport::from_json(&doc).unwrap(), report);
        assert_eq!(report.deaths(), 1);
        assert_eq!(report.misses(), 10);
    }

    /// The stats frame's members, in the order schema 2 has always
    /// written them: a shard's `errors` follow its dispositions there.
    #[test]
    fn router_report_document_keeps_its_member_order() {
        let report = RouterReport {
            shards: vec![ShardReport {
                id: 0,
                addr: None,
                alive: false,
                deaths: 0,
                traffic: ShardTraffic::default(),
            }],
            ..Default::default()
        };
        assert_eq!(
            report.to_json().compact(),
            r#"{"forwarded":0,"replays":0,"unroutable":0,"frontend_runs":0,"shards":[{"id":0,"addr":null,"alive":false,"deaths":0,"requests":0,"memory_hits":0,"disk_hits":0,"misses":0,"coalesced":0,"errors":0,"replays":0}]}"#
        );
    }

    /// A thread that panics while holding the per-shard counters poisons
    /// their mutex; the counters are plain integers, so the router keeps
    /// relaying and keeps reporting instead of aborting its workers.
    #[test]
    fn poisoned_stats_lock_neither_stops_relaying_nor_reporting() {
        let shards = crate::shard::ShardSet::start(crate::shard::ShardSetConfig {
            shards: 2,
            workers_per_shard: 1,
            ..Default::default()
        })
        .unwrap();
        let router = start_router(RouterConfig::default(), shards.topology()).unwrap();
        let poisoner = {
            let shared = Arc::clone(&router.shared);
            thread::spawn(move || {
                let _held = shared.stats.per_shard.lock().unwrap();
                panic!("poison the router stats");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(router.shared.stats.per_shard.is_poisoned());

        let request = Request {
            id: Some(11),
            source: crate::loadgen::kernel_source(1),
            options: crate::protocol::RequestOptions {
                paths: Some("hls".to_string()),
                ..Default::default()
            },
        };
        let mut client = Client::connect(router.local_addr(), None).unwrap();
        let reply = client.roundtrip(&request.encode()).unwrap();
        let response = Response::parse(&reply).unwrap();
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.id, Some(11));
        assert_eq!(response.disposition.as_deref(), Some("miss"));

        let reply = client.roundtrip(r#"{"control": "stats"}"#).unwrap();
        let over_the_wire = Json::parse(&reply).unwrap();
        let report = router.report();
        assert_eq!(RouterReport::from_json(&over_the_wire).unwrap(), report);
        assert_eq!(report.forwarded, 1);
        assert_eq!(report.misses(), 1);
        router.shutdown();
        shards.shutdown();
    }

    fn hls_request(id: u64, source: String) -> Request {
        Request {
            id: Some(id),
            source,
            options: crate::protocol::RequestOptions {
                paths: Some("hls".to_string()),
                ..Default::default()
            },
        }
    }

    /// One sequential client sends every one of K sources under two ids,
    /// three times over, and one source again under a second option set:
    /// the frontend runs once per distinct `(source, options)` pair, and
    /// every frame lands on the shard `routing_key` picks.
    #[test]
    fn frontend_runs_once_per_source_and_option_set() {
        const K: usize = 4;
        let shards = crate::shard::ShardSet::start(crate::shard::ShardSetConfig {
            shards: 2,
            workers_per_shard: 1,
            ..Default::default()
        })
        .unwrap();
        let topology = shards.topology();
        let router = start_router(RouterConfig::default(), Arc::clone(&topology)).unwrap();
        let mut frames = Vec::new();
        for _ in 0..3 {
            for k in 0..K {
                for id in [2 * k as u64, 2 * k as u64 + 1] {
                    frames.push(hls_request(id, crate::loadgen::kernel_source(k)).encode());
                }
            }
        }
        let mut deeper = hls_request(99, crate::loadgen::kernel_source(0));
        deeper.options.stream_depth = Some(8);
        frames.push(deeper.encode());

        let mut client = Client::connect(router.local_addr(), None).unwrap();
        for frame in &frames {
            let response = Response::parse(&client.roundtrip(frame).unwrap()).unwrap();
            assert!(response.ok, "{:?}", response.error);
            let owner = topology.route(routing_key(frame)).unwrap().0;
            assert_eq!(response.shard, Some(owner as u64), "{frame}");
        }
        let report = router.report();
        assert_eq!(report.forwarded, frames.len() as u64);
        assert_eq!(report.frontend_runs, K as u64 + 1);
        router.shutdown();
        shards.shutdown();
    }

    /// Up to three byte mutations of `frame`: a truncation, a flipped
    /// bit or an inserted `"`, `\`, `{` or multi-byte char. Bytes that
    /// stop being UTF-8 are read as a connection would hand them on.
    fn mutate(frame: &str, rng: &mut shmls_ir::rng::Rng) -> String {
        const INSERTS: [&str; 5] = ["\"", "\\", "{", "é", "😀"];
        let mut bytes = frame.as_bytes().to_vec();
        for _ in 0..rng.range(1, 3) {
            let at = rng.range(0, bytes.len());
            match rng.range(0, 2) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << rng.range(0, 6),
                _ => {
                    let insert = rng.pick(&INSERTS).bytes();
                    bytes.splice(at..at, insert);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Mutated request and response frames through every reader on the
    /// request path: the codecs, `routing_key`, the server's `respond`
    /// and the router's relay. None panics; each answers `Ok` or a typed
    /// error; a key asked for twice is the same key.
    #[test]
    fn mutated_frames_get_typed_answers_on_the_request_path() {
        let shards = crate::shard::ShardSet::start(crate::shard::ShardSetConfig {
            shards: 2,
            workers_per_shard: 1,
            ..Default::default()
        })
        .unwrap();
        let shared = Shared {
            config: RouterConfig::default(),
            topology: shards.topology(),
            stats: RouterStats::default(),
            keys: KeyMemo::default(),
        };
        let cache = PersistentCache::in_memory(8);
        let request = hls_request(5, crate::loadgen::kernel_source(1));
        let mut seeds = vec![request.encode()];
        seeds.push(crate::server::respond(&cache, &seeds[0]).encode());
        seeds.push(crate::server::respond(&cache, r#"{"id": 6, "source": "k"}"#).encode());
        let pool = std::cell::RefCell::new(BackendPool::new());
        let outcomes = std::cell::RefCell::new(std::collections::BTreeSet::new());
        let typed = |r: &Response| r.ok || r.error.as_ref().unwrap().0 != ErrorKind::Internal;
        shmls_ir::rng::sweep(
            0x6d75,
            240,
            |rng| {
                let seed: &String = rng.pick(&seeds);
                mutate(seed, rng)
            },
            |frame| {
                let _ = (Request::parse(frame), Response::parse(frame));
                assert_eq!(routing_key(frame), routing_key(frame));
                let served = crate::server::respond(&cache, frame);
                assert!(typed(&served), "{served:?}");
                let relayed = relay(&Frame::read(frame), &shared, &mut pool.borrow_mut());
                let relayed = Response::parse(&relayed).unwrap();
                assert!(typed(&relayed), "{relayed:?}");
                let kind = served.error.map(|e| e.0.as_str());
                assert_eq!(relayed.error.map(|e| e.0.as_str()), kind);
                outcomes.borrow_mut().insert(kind);
            },
        );
        // The mutations reach every layer: some frames still compile,
        // some fail in the codec, some in the frontend.
        let reached = [None, Some("protocol"), Some("compile")];
        assert_eq!(outcomes.into_inner(), reached.into());
        assert_eq!(shared.report().unroutable, 0);
        shards.shutdown();
    }

    #[test]
    fn stats_control_frame_is_recognised() {
        let is_stats_control = |line| Frame::read(line).is_stats_control();
        assert!(is_stats_control(r#"{"control": "stats"}"#));
        assert!(!is_stats_control(r#"{"control": "other"}"#));
        assert!(!is_stats_control(r#"{"source": "k"}"#));
        assert!(!is_stats_control("not json"));
    }
}
