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
use crate::protocol::{best_effort_id, Client, ErrorKind, Request, Response};
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
/// have a stable owner to produce their typed error).
pub fn routing_key(line: &str) -> u64 {
    if let Ok(request) = Request::parse(line) {
        if let Ok(opts) = request.compile_options() {
            if let Ok(kernel) = parse_kernel(&request.source) {
                return PersistentCache::key(&kernel, &opts);
            }
        }
        return fnv1a(request.source.as_bytes());
    }
    fnv1a(line.as_bytes())
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
            shards,
        }
    }
}

/// A running router. Dropping the handle shuts it down (backends are
/// *not* touched — they belong to the shard supervisor).
#[derive(Debug)]
pub struct RouterHandle {
    listener: Listener,
    stats: Arc<RouterStats>,
    topology: Arc<Topology>,
}

impl RouterHandle {
    /// The address the router bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Responses relayed so far — the chaos hooks in `repro route` poll
    /// this to time their kill/restart against real traffic.
    pub fn forwarded(&self) -> u64 {
        self.stats.forwarded.load(Ordering::Relaxed)
    }

    /// The current aggregated report.
    pub fn report(&self) -> RouterReport {
        self.stats.report(&self.topology)
    }

    /// Stop accepting and join every thread.
    pub fn shutdown(self) {
        drop(self.listener);
    }
}

/// Bind the router in front of the shards in `topology` and start
/// serving the NDJSON protocol. Returns once the listener is live.
pub fn start_router(config: RouterConfig, topology: Arc<Topology>) -> io::Result<RouterHandle> {
    let stats = Arc::new(RouterStats::default());
    let listener = {
        let (stats, topology) = (Arc::clone(&stats), Arc::clone(&topology));
        let addr = config.addr.clone();
        Listener::start(
            &addr,
            config.workers,
            BackendPool::new,
            move |pool, frame| {
                if is_stats_control(frame) {
                    stats.report(&topology).to_json().compact()
                } else {
                    relay(frame, &config, &topology, &stats, pool)
                }
            },
        )?
    };
    Ok(RouterHandle {
        listener,
        stats,
        topology,
    })
}

/// One backend connection in a worker's pool, keyed by `(shard, addr)`
/// so a restarted shard (same id, new address) gets a fresh connection
/// instead of the stale socket.
type BackendPool = HashMap<(usize, String), Client>;

/// `{"control": "stats"}` — the one frame the router answers itself.
fn is_stats_control(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|doc| {
            doc.get("control")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .as_deref()
        == Some("stats")
}

/// Forward one raw frame to the key's owner, replaying across the
/// surviving ring on failure. Always returns exactly one response line.
/// Panics inside routing (parser bugs on hostile frames) are caught and
/// answered as `internal` errors, matching the backend's discipline.
fn relay(
    frame: &str,
    config: &RouterConfig,
    topology: &Topology,
    stats: &RouterStats,
    pool: &mut BackendPool,
) -> String {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        relay_inner(frame, config, topology, stats, pool)
    }));
    match attempt {
        Ok(reply) => reply,
        Err(_) => Response::failure(
            best_effort_id(frame),
            ErrorKind::Internal,
            "panic while routing request".to_string(),
            0,
        )
        .encode(),
    }
}

fn relay_inner(
    frame: &str,
    config: &RouterConfig,
    topology: &Topology,
    stats: &RouterStats,
    pool: &mut BackendPool,
) -> String {
    let key = routing_key(frame);
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
        match exchange(pool, &slot, frame, config.backend_timeout) {
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
        best_effort_id(frame),
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
            r#"{"forwarded":0,"replays":0,"unroutable":0,"shards":[{"id":0,"addr":null,"alive":false,"deaths":0,"requests":0,"memory_hits":0,"disk_hits":0,"misses":0,"coalesced":0,"errors":0,"replays":0}]}"#
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
            let stats = Arc::clone(&router.stats);
            thread::spawn(move || {
                let _held = stats.per_shard.lock().unwrap();
                panic!("poison the router stats");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(router.stats.per_shard.is_poisoned());

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

    #[test]
    fn stats_control_frame_is_recognised() {
        assert!(is_stats_control(r#"{"control": "stats"}"#));
        assert!(!is_stats_control(r#"{"control": "other"}"#));
        assert!(!is_stats_control(r#"{"source": "k"}"#));
        assert!(!is_stats_control("not json"));
    }
}
