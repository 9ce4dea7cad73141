//! Fault-injection test for the sharded front tier.
//!
//! A 3-shard ring under full loadgen traffic, with a chaos thread that
//! kills the busiest shard mid-run and restarts it during the warm
//! pass. The run must satisfy the whole service contract *through* the
//! fault:
//!
//! - zero client-visible errors (in-flight requests on the dead shard
//!   are replayed onto the survivors, never dropped);
//! - every key compiled exactly once ring-wide — failover reads the
//!   shared disk tier instead of recompiling, so the sum of `miss`
//!   dispositions across every shard incarnation equals the key count;
//! - the restarted shard serves its reclaimed keys from the shared disk
//!   tier: its second incarnation records disk hits and **zero**
//!   compilations, and the warm pass shows disk-hit responses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use shmls_serve::loadgen::{self, LoadgenConfig};
use shmls_serve::protocol::{Request, RequestOptions, Response};
use shmls_serve::router::{routing_key, start_router, RouterConfig, RouterHandle};
use shmls_serve::shard::{ShardSet, ShardSetConfig};

/// A unique scratch directory per test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "shmls-shard-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Block until the router has relayed at least `count` responses.
fn wait_for_forwarded(router: &RouterHandle, count: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while router.forwarded() < count {
        assert!(
            Instant::now() < deadline,
            "router never reached {count} forwarded responses (at {})",
            router.forwarded()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The live shard that has relayed the most traffic — killing it (not a
/// fixed id) guarantees the victim actually owns keys in the run.
fn busiest_shard(router: &RouterHandle) -> usize {
    router
        .report()
        .shards
        .iter()
        .filter(|s| s.alive)
        .max_by_key(|s| s.traffic.counts.requests)
        .expect("at least one live shard")
        .id
}

/// Key `key`'s request exactly as the loadgen frames it.
fn loadgen_request(key: usize) -> String {
    Request {
        id: Some(key as u64),
        source: loadgen::kernel_source(key),
        options: RequestOptions {
            paths: Some("hls".to_string()),
            ..Default::default()
        },
    }
    .encode()
}

/// Send one request line through the router on a connection of its own
/// and read the response.
fn exchange(router: &RouterHandle, line: &str) -> Response {
    let mut stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    Response::parse(reply.trim_end()).unwrap()
}

#[test]
fn killed_and_restarted_shard_is_invisible_to_clients() {
    const UNIQUE_KEYS: usize = 8;
    const REQUESTS: usize = 64; // per phase; 128 total through the ring

    let dir = scratch_dir("failover");
    let shards = ShardSet::start(ShardSetConfig {
        shards: 3,
        cache_dir: Some(dir.clone()),
        workers_per_shard: 2,
        capacity: 64,
    })
    .unwrap();
    let router = start_router(RouterConfig::default(), shards.topology()).unwrap();
    let addr = router.local_addr().to_string();

    let (report, victim) = std::thread::scope(|scope| {
        let loadgen_run = scope.spawn(|| {
            loadgen::run(&LoadgenConfig {
                addr,
                clients: 8,
                requests: REQUESTS,
                unique_keys: UNIQUE_KEYS,
                min_warm_hit_rate: 0.9,
                min_cold_hit_rate: 0.0,
                router: true,
                min_warm_disk_hits: 1,
                panic_client: None,
            })
        });

        // Chaos: kill the busiest shard a quarter into the cold pass —
        // while compilations are in flight — and bring it back early in
        // the warm pass, so its reclaimed keys' repeats land on the
        // fresh (memory-cold) incarnation and must come from disk.
        wait_for_forwarded(&router, REQUESTS as u64 / 4);
        let victim = busiest_shard(&router);
        assert!(shards.kill(victim), "victim was alive");
        wait_for_forwarded(&router, REQUESTS as u64 + REQUESTS as u64 / 8);
        assert!(shards.restart(victim).unwrap(), "victim restarts");

        let report = loadgen_run.join().expect("loadgen thread").unwrap();
        (report, victim)
    });

    // Zero client-visible errors, ≥0.9 warm hit rate, warm disk hits,
    // per-key exactly-once — all folded into the gate.
    assert!(
        report.passed(),
        "gate failures through the fault: {:?}",
        report.gate_failures
    );
    assert_eq!(report.cold.counts.errors + report.warm.counts.errors, 0);

    // Exactly-once, ring-wide: summing misses over every shard
    // *incarnation* (killed ones included) equals the key count.
    let total = shards.total_lifetime_stats();
    assert_eq!(
        total.misses, UNIQUE_KEYS as u64,
        "ring-wide compilations must equal unique keys (stats: {total:?})"
    );

    // The router observed the death, and the topology healed.
    let routed = report.router.as_ref().expect("router report present");
    assert!(routed.deaths() >= 1, "kill was never observed");
    assert_eq!(routed.misses(), UNIQUE_KEYS as u64);
    let victim_row = routed.shards.iter().find(|s| s.id == victim).unwrap();
    assert!(victim_row.alive, "victim rejoined the ring");

    // Whether the warm pass still reached the victim after its restart
    // races the load generator, so ask for every key the victim owns
    // once more: each is a hit of its second incarnation, from memory if
    // the warm pass brought it there and from the shared disk otherwise.
    let topology = shards.topology();
    let owned: Vec<String> = (0..UNIQUE_KEYS)
        .map(loadgen_request)
        .filter(|line| topology.route(routing_key(line)).map(|(id, _)| id) == Some(victim))
        .collect();
    assert!(!owned.is_empty(), "the victim owns no key");
    for line in &owned {
        let response = exchange(&router, line);
        assert!(response.ok, "{line}: {response:?}");
        assert_eq!(response.shard, Some(victim as u64), "{line}");
    }

    // The restarted incarnation warmed from the shared disk tier: it
    // served at least one disk hit and never compiled anything.
    let second_life = shards.stats(victim).expect("victim is alive");
    assert!(
        second_life.disk_hits >= 1,
        "restarted shard never read the shared disk tier: {second_life:?}"
    );
    assert_eq!(
        second_life.misses, 0,
        "restarted shard recompiled instead of reading the shared disk tier"
    );

    router.shutdown();
    shards.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing every shard makes requests fail with a typed `internal`
/// error — and a single rejoin heals the ring without a restart of the
/// router.
#[test]
fn empty_ring_degrades_to_typed_errors_and_heals_on_rejoin() {
    let shards = ShardSet::start(ShardSetConfig {
        shards: 2,
        cache_dir: None,
        workers_per_shard: 1,
        capacity: 8,
    })
    .unwrap();
    // A tight replay budget keeps the all-dead probe fast.
    let router = start_router(
        RouterConfig {
            max_replays: 1,
            ..Default::default()
        },
        shards.topology(),
    )
    .unwrap();

    use shmls_serve::protocol::ErrorKind;

    let stream = TcpStream::connect(router.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |line: &str| -> Response {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::parse(reply.trim_end()).unwrap()
    };

    let frame = format!(
        r#"{{"id": 7, "source": "{}", "options": {{"paths": "hls"}}}}"#,
        loadgen::kernel_source(0)
    );
    let healthy = exchange(&frame);
    assert!(healthy.ok, "baseline request works: {healthy:?}");

    shards.kill(0);
    shards.kill(1);
    let dead = exchange(&frame);
    assert!(!dead.ok);
    assert_eq!(dead.id, Some(7), "id echoed even on synthesized errors");
    assert_eq!(dead.error.as_ref().unwrap().0, ErrorKind::Internal);

    shards.restart(1).unwrap();
    let healed = exchange(&frame);
    assert!(healed.ok, "one rejoined shard serves again: {healed:?}");
    assert_eq!(healed.shard, Some(1));
    assert_eq!(healed.fingerprint, healthy.fingerprint);

    router.shutdown();
    shards.shutdown();
}
