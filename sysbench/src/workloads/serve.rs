//! `serve_direct` and `serve_routed`: the compile service as a client sees
//! it. Both send the same seeded key stream from two closed-loop
//! connections — callers each wait for a reply before sending again —
//! `serve_direct` to one in-process server, `serve_routed` through the
//! consistent-hash router in front of two shards. A router change must
//! show on the second and leave the first flat; a server or protocol
//! change moves both.
//!
//! Set-up starts the service and sends every key of the hot set once, so
//! the cold path (compile, fingerprint, record) is what `setup_s` costs.
//! The hot set fits the service's record tier; the timed phase then draws
//! from it uniformly and every reply must be a `hit`.

use std::net::SocketAddr;

use shmls_frontend::parse_kernel;
use shmls_ir::json::Json;
use shmls_serve::protocol::{Request, Response};
use shmls_serve::router::{routing_key, start_router, Ring, RouterConfig, RouterHandle};
use shmls_serve::server::{serve, ServerConfig, ServerHandle};
use shmls_serve::shard::{ShardSet, ShardSetConfig};
use stencil_hmls::persist::{DesignRecord, DiskStore, PersistentCache};
use stencil_hmls::{compile, ServeStats};

use super::{end_to_end, median_us, record_setup, time, RunConfig, Window, PARALLELISM};
use crate::client::{run_phase, Phase, Plan};
use crate::inputs::{serve_keys, ServeKey};
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Replies per window of a timed phase: a count, so that a window's
/// median is read from as many replies whatever the service's speed, and a
/// small one, so that windows are short (25–60 ms) and a twentieth of them
/// likelier to meet the host at its quick speed.
const REQUESTS_PER_WINDOW: usize = 200;

/// Set-ups measured per untraced run (the reported `setup_s` is their
/// quiet twentieth): the one the timed phase runs on, and the rest after it.
const SETUP_REPEATS: usize = 5;

/// Which front the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One compile server.
    Direct,
    /// The router over a two-shard ring.
    Routed,
}

/// A running service and what the clients connect to.
enum Service {
    Direct(ServerHandle),
    Routed(ShardSet, RouterHandle),
}

impl Service {
    fn start(tier: Tier) -> std::io::Result<Service> {
        Ok(match tier {
            Tier::Direct => Service::Direct(serve(ServerConfig {
                workers: PARALLELISM,
                cache_dir: None,
                ..ServerConfig::default()
            })?),
            Tier::Routed => {
                let shards = ShardSet::start(ShardSetConfig {
                    shards: 2,
                    workers_per_shard: PARALLELISM,
                    cache_dir: None,
                    ..ShardSetConfig::default()
                })?;
                let router = start_router(
                    RouterConfig {
                        workers: PARALLELISM,
                        ..RouterConfig::default()
                    },
                    shards.topology(),
                )?;
                Service::Routed(shards, router)
            }
        })
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Service::Direct(server) => server.local_addr(),
            Service::Routed(_, router) => router.local_addr(),
        }
    }

    /// Cache traffic over every backend.
    fn cache_stats(&self) -> ServeStats {
        match self {
            Service::Direct(server) => server.cache().stats(),
            Service::Routed(shards, _) => shards.total_lifetime_stats(),
        }
    }

    fn stop(self) {
        match self {
            Service::Direct(server) => server.shutdown(),
            Service::Routed(shards, router) => {
                router.shutdown();
                shards.shutdown();
            }
        }
    }
}

/// Count a phase's requests as operations and its wrong replies as
/// failures; `expect_miss` says whether each key must have compiled
/// (exactly once) or must have been served from cache.
fn check_phase(result: &mut RunResult, what: &str, phase: &Phase, expect_miss: bool) {
    result.checks.passed(phase.requests());
    result.checks.check(phase.broken_connections == 0, || {
        format!("{what}: {} connections failed", phase.broken_connections)
    });
    for (key, ledger) in phase.ledger.iter().enumerate() {
        let wrong_disposition = if expect_miss {
            ledger.hits + ledger.others + ledger.misses.abs_diff(1)
        } else {
            ledger.misses + ledger.others
        };
        for (count, why) in [
            (ledger.errors, "was not ok"),
            (ledger.conflicting, "changed fingerprint"),
            (wrong_disposition, "had the wrong cache disposition"),
        ] {
            for _ in 0..count {
                result
                    .checks
                    .fail(format!("{what}: a reply for key {key} {why}"));
            }
        }
    }
}

/// Start a service and send it the hot set once; returns the service, the
/// priming phase and the seconds both took.
fn set_up(tier: Tier, hot: &[ServeKey]) -> (Service, Phase, f64) {
    let ((service, prime), took) = time(|| {
        let service = Service::start(tier).expect("the service starts on a free port");
        let prime = run_phase(service.addr(), hot, PARALLELISM, Plan::Once, false);
        (service, prime)
    });
    (service, prime, took)
}

/// Run the workload.
pub fn run(tier: Tier, cfg: &RunConfig, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let (hot_keys, cold_keys) = if cfg.smoke { (8, 4) } else { (256, 400) };
    let keys = serve_keys(cfg.seed, hot_keys + cold_keys);
    let (hot, cold) = keys.split_at(hot_keys);

    // The further set-ups come after the timed phase: a service started
    // and stopped before this one would leave its freed memory in whichever
    // allocator arenas its threads happened to use, and `peak_rss_mb` would
    // vary by a third.
    let (service, prime, setup_s) = set_up(tier, hot);
    check_phase(&mut result, "prime", &prime, true);

    // The timed phase. A traced run splits its time between a phase that
    // keeps a span per request and one that does not.
    let timed_plan = |seconds: f64| Plan::Timed {
        seconds,
        seed: cfg.seed,
    };
    let warm_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let warm = run_phase(
        service.addr(),
        hot,
        PARALLELISM,
        timed_plan(warm_seconds),
        cfg.trace,
    );
    check_phase(&mut result, "warm", &warm, false);
    for (key, (first, again)) in prime.ledger.iter().zip(&warm.ledger).enumerate() {
        if again.fingerprint.is_some() && again.fingerprint != first.fingerprint {
            result.checks.fail(format!(
                "key {key}: the cached fingerprint differs from the compiled one"
            ));
        }
    }

    // Each key's fingerprint must be the one a local compile gives.
    for (key, ledger) in hot.iter().zip(&prime.ledger) {
        let local = Request::parse(&key.frame)
            .and_then(|r| r.compile_options())
            .ok()
            .and_then(|options| compile(&key.source, &options).ok())
            .map(|c| format!("{:016x}", c.design_fingerprint()));
        result
            .checks
            .check(local.is_some() && local == ledger.fingerprint, || {
                format!(
                    "served fingerprint {:?} is not the local compile's {local:?}",
                    ledger.fingerprint
                )
            });
    }

    let warm_windows = windows(&warm);
    let p50_us = quiet_p50_us(&warm_windows);
    if !cfg.trace {
        end_to_end(&mut result, &warm_windows);
        record_tail(&mut result, &warm, false);
    } else {
        for &(key, sent, replied) in &warm.spans {
            tracer.record(
                "serve.request",
                key as u64,
                tracer.ns_at(sent),
                tracer.ns_at(replied),
            );
        }
        let plain = run_phase(
            service.addr(),
            hot,
            PARALLELISM,
            timed_plan(cfg.seconds / 2.0),
            false,
        );
        check_phase(&mut result, "untraced warm", &plain, false);
        record_tail(&mut result, &plain, true);
        let plain_us = quiet_p50_us(&windows(&plain));
        result.metric(
            "tracing_overhead_pct",
            (p50_us - plain_us) / plain_us * 100.0,
        );

        // Never-seen keys: every request compiles.
        let cold_phase = run_phase(service.addr(), cold, PARALLELISM, Plan::Once, false);
        check_phase(&mut result, "cold", &cold_phase, true);
        result.metric(
            "serve.server.cold_compiles_per_s",
            cold_phase.requests() as f64 / cold_phase.elapsed_s,
        );
        let stats = service.cache_stats();
        result.metric("serve.server.memory_hits", stats.memory_hits as f64);
        result.metric("serve.server.misses", stats.misses as f64);
        result.metric("serve.server.coalesced", stats.coalesced as f64);
    }

    if let Service::Routed(_, router) = &service {
        let report = router.report();
        result.checks.check(report.unroutable == 0, || {
            format!("{} requests were unroutable", report.unroutable)
        });
        if cfg.trace {
            result.metric("serve.router.forwarded", report.forwarded as f64);
            result.metric("serve.router.replays", report.replays as f64);
            result.metric("serve.router.unroutable", report.unroutable as f64);
        }
    }
    service.stop();

    if !cfg.trace {
        let mut setups = vec![setup_s];
        for _ in 1..cfg.setup_repeats(SETUP_REPEATS) {
            let (again, prime, took) = set_up(tier, hot);
            again.stop();
            check_phase(&mut result, "prime again", &prime, true);
            setups.push(took);
        }
        record_setup(&mut result, &setups);
    } else {
        match tier {
            Tier::Direct => direct_layers(cfg, hot, &prime, p50_us, &mut result),
            Tier::Routed => routed_layers(cfg, hot, p50_us, &mut result),
        }
    }
    result
}

/// Cut a timed phase into windows of [`REQUESTS_PER_WINDOW`] consecutive
/// replies (all of them, if there were fewer), in the order they arrived.
fn windows(phase: &Phase) -> Vec<Window> {
    let mut replies = phase.replies.clone();
    if replies.is_empty() {
        return Vec::new();
    }
    replies.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut begin_s = 0.0;
    replies
        .chunks_exact(REQUESTS_PER_WINDOW.min(replies.len()))
        .map(|chunk| {
            let end_s = chunk[chunk.len() - 1].0;
            let latencies_ms: Vec<f64> = chunk.iter().map(|&(_, ms)| ms).collect();
            let window = Window::of(&latencies_ms, end_s - begin_s);
            begin_s = end_s;
            window
        })
        .collect()
}

/// Record the tail round trip over all replies of a timed phase, under the
/// name of the per-layer metric: the metric itself in a traced run
/// (`as_metric`), a fact in an untraced one. It is not an end-to-end metric because it does not
/// repeat: whether read per window (p90, p95 or p99 of 200 to 2,000 replies,
/// at the windows' quiet twentieth) or over the phase, it spread by 10–40 % of
/// its median over ten seeds, differently from hour to hour, where a
/// bound may be 25 % at most. Round trips come in modes — both threads
/// awake, one to wake, two to wake — and the share of each moves with what
/// else the host's two hardware threads are doing.
fn record_tail(result: &mut RunResult, phase: &Phase, as_metric: bool) {
    let latencies_ms: Vec<f64> = phase.replies.iter().map(|&(_, ms)| ms).collect();
    let (percentile, tail_ms) = stats::tail(&latencies_ms);
    if as_metric {
        result.metric("serve.latency_ms_p99", tail_ms);
    } else {
        result.fact("serve.latency_ms_p99", tail_ms, "ms");
    }
    result.fact("serve.latency_ms_p99.percentile", percentile, "percent");
    result.fact(
        "serve.latency_ms_p99.samples",
        latencies_ms.len() as f64,
        "count",
    );
}

/// The median round trip in microseconds, read as `latency_ms_p50` is: at
/// the quiet twentieth of the windows.
fn quiet_p50_us(windows: &[Window]) -> f64 {
    let medians: Vec<f64> = windows.iter().map(|w| w.p50_ms).collect();
    stats::quiet_twentieth(&medians, false) * 1e3
}

/// Median microseconds of one call of `f` per item.
fn median_us_each<T, R>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T) -> R) -> f64 {
    let samples: Vec<f64> = items
        .into_iter()
        .map(|item| time(|| std::hint::black_box(f(item))).1 * 1e6)
        .collect();
    stats::median(&samples)
}

/// Median microseconds of `f` over three passes through the keys (the
/// first pass alone would time cold caches).
fn per_key_us<R>(hot: &[ServeKey], f: impl FnMut(&ServeKey) -> R) -> f64 {
    median_us_each((0..3).flat_map(|_| hot), f)
}

/// Per-layer metrics of the direct path: the codecs and the JSON reader
/// over the workload's own frames, the cache tiers beside the socket run,
/// and what of the median round trip none of them accounts for.
fn direct_layers(
    cfg: &RunConfig,
    hot: &[ServeKey],
    prime: &Phase,
    p50_us: f64,
    result: &mut RunResult,
) {
    let request_parse_us = per_key_us(hot, |k| Request::parse(&k.frame));
    result.metric("serve.protocol.request_parse_us", request_parse_us);
    let requests: Vec<Request> = hot
        .iter()
        .filter_map(|k| Request::parse(&k.frame).ok())
        .collect();
    result.metric(
        "serve.protocol.request_encode_us",
        median_us_each(&requests, Request::encode),
    );
    let frame_bytes: usize = hot.iter().map(|k| k.frame.len()).sum();
    result.metric(
        "serve.protocol.frame_bytes",
        frame_bytes as f64 / hot.len() as f64,
    );
    let (_, json_s) = time(|| {
        for key in hot {
            std::hint::black_box(Json::parse(&key.frame).is_ok());
        }
    });
    result.metric("ir.json.parse_mb_per_s", frame_bytes as f64 / 1e6 / json_s);

    let lines: Vec<&String> = prime
        .ledger
        .iter()
        .filter_map(|l| l.sample.as_ref())
        .collect();
    result.metric(
        "serve.protocol.response_parse_us",
        median_us_each(&lines, |l| Response::parse(l)),
    );
    let responses: Vec<Response> = lines
        .iter()
        .filter_map(|l| Response::parse(l).ok())
        .collect();
    let response_encode_us = median_us_each(&responses, Response::encode);
    result.metric("serve.protocol.response_encode_us", response_encode_us);

    // The cache the server wraps, driven in-process over the same keys.
    let dsl_parse_us = per_key_us(hot, |k| parse_kernel(&k.source));
    result.metric("frontend.parse_us", dsl_parse_us);
    let cache = PersistentCache::in_memory(ServerConfig::default().capacity);
    let options = requests[0]
        .compile_options()
        .expect("default options resolve");
    let kernels: Vec<_> = hot
        .iter()
        .filter_map(|k| parse_kernel(&k.source).ok())
        .collect();
    let lookup_us = || {
        median_us_each(&kernels, |k| {
            cache.get_or_compile_record(k, &options).is_ok()
        })
    };
    result.metric("core.persist.miss_us", lookup_us());
    let hit_us = lookup_us();
    result.metric("core.persist.hit_us", hit_us);

    let sample = &kernels[..kernels.len().min(32)];
    let compiled: Vec<_> = sample
        .iter()
        .filter_map(|k| stencil_hmls::compile_kernel(k.clone(), &options).ok())
        .collect();
    result.metric(
        "core.persist.record_us",
        median_us_each(&compiled, |c| DesignRecord::from_compiled(1, c)),
    );
    let records: Vec<DesignRecord> = compiled
        .iter()
        .enumerate()
        .map(|(i, c)| DesignRecord::from_compiled(i as u64, c))
        .collect();
    let texts: Vec<String> = records.iter().map(DesignRecord::encode).collect();
    result.metric(
        "core.persist.encode_us",
        median_us(200, || records[0].encode()),
    );
    result.metric(
        "core.persist.decode_us",
        median_us(200, || DesignRecord::decode(&texts[0])),
    );

    // The disk tier on the sandbox's disk: informational.
    let dir = cfg.scratch.join("disk-store");
    match DiskStore::open(&dir) {
        Ok(store) => {
            result.metric(
                "core.persist.disk_store_us",
                median_us_each(&records, |r| store.store(r)),
            );
            result.metric(
                "core.persist.disk_load_us",
                median_us_each(&records, |r| store.load(r.key)),
            );
            let intact = records
                .iter()
                .all(|r| store.load(r.key).as_ref() == Some(r));
            result.checks.check(intact, || {
                "a stored design record did not load back".to_string()
            });
        }
        Err(e) => result
            .checks
            .check(false, || format!("cannot open {}: {e}", dir.display())),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // On a warm request the server parses the frame, parses the DSL, finds
    // the record and encodes the reply; the rest of the client's median
    // round trip is sockets, scheduling and the worker hand-off.
    result.metric(
        "serve.server.socket_residual_us",
        p50_us - request_parse_us - dsl_parse_us - hit_us - response_encode_us,
    );
    result.fact("serve.latency_p50_us", p50_us, "us");
}

/// Per-layer metrics of the routed path: what the router computes per
/// frame, and the median round trip it adds over a direct server.
fn routed_layers(cfg: &RunConfig, hot: &[ServeKey], routed_p50_us: f64, result: &mut RunResult) {
    result.metric(
        "serve.router.routing_key_us",
        per_key_us(hot, |k| routing_key(k.frame.trim_end())),
    );
    let ring = Ring::new(&[0, 1]);
    let route_keys: Vec<u64> = hot
        .iter()
        .map(|k| routing_key(k.frame.trim_end()))
        .collect();
    let lookups = 1000 * route_keys.len();
    let (_, route_s) = time(|| {
        for _ in 0..1000 {
            for &key in &route_keys {
                std::hint::black_box(ring.route(key));
            }
        }
    });
    result.metric("serve.router.ring_route_ns", route_s * 1e9 / lookups as f64);

    let (direct, prime, _) = set_up(Tier::Direct, hot);
    check_phase(result, "direct prime", &prime, true);
    let plan = Plan::Timed {
        seconds: cfg.seconds / 2.0,
        seed: cfg.seed,
    };
    let warm = run_phase(direct.addr(), hot, PARALLELISM, plan, false);
    check_phase(result, "direct warm", &warm, false);
    direct.stop();
    let direct_p50_us = quiet_p50_us(&windows(&warm));
    result.metric("serve.router.hop_us", routed_p50_us - direct_p50_us);
    result.fact("serve.latency_p50_us", routed_p50_us, "us");
    result.fact("serve.direct_latency_p50_us", direct_p50_us, "us");
}
