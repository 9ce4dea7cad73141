//! End-to-end service tests: a real listener, real sockets, and the
//! loadgen gate — including the restart-with-persisted-cache scenario
//! the CI job replays.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use shmls_serve::loadgen::{self, LoadgenConfig};
use shmls_serve::protocol::{ErrorKind, Request, RequestOptions, Response};
use shmls_serve::server::{serve, ServerConfig};

/// A unique scratch directory per test invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "shmls-serve-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn send_line(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Response::parse(reply.trim_end()).unwrap()
}

fn kernel_request(id: u64, key: usize) -> Request {
    Request {
        id: Some(id),
        source: loadgen::kernel_source(key),
        options: RequestOptions {
            paths: Some("hls".to_string()),
            ..Default::default()
        },
    }
}

#[test]
fn raw_socket_protocol_round_trip() {
    let handle = serve(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Malformed JSON → structured protocol error, connection survives.
    let r = send_line(&mut writer, &mut reader, "this is not json");
    assert!(!r.ok);
    assert_eq!(r.error.as_ref().unwrap().0, ErrorKind::Protocol);

    // Valid frame, broken kernel → compile error, connection survives.
    let r = send_line(
        &mut writer,
        &mut reader,
        r#"{"id": 1, "source": "kernel broken {"}"#,
    );
    assert!(!r.ok);
    assert_eq!(r.id, Some(1));
    assert_eq!(r.error.as_ref().unwrap().0, ErrorKind::Compile);

    // First real compile: a miss carrying the full design payload.
    let r = send_line(&mut writer, &mut reader, &kernel_request(2, 0).encode());
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.id, Some(2));
    assert_eq!(r.disposition.as_deref(), Some("miss"));
    let design = r.design.unwrap();
    assert_eq!(design.inputs, 1);
    assert_eq!(design.outputs, 1);
    assert_eq!(design.compute_stages, 1);
    assert!(r.timings_us.iter().any(|(name, _)| name == "total"));
    let fingerprint = r.fingerprint.clone().unwrap();
    let key = r.key.clone().unwrap();

    // Same kernel again: a hit, same key, same fingerprint, same
    // (original-compile) timings.
    let r = send_line(&mut writer, &mut reader, &kernel_request(3, 0).encode());
    assert!(r.ok);
    assert_eq!(r.disposition.as_deref(), Some("hit"));
    assert_eq!(r.fingerprint.as_deref(), Some(fingerprint.as_str()));
    assert_eq!(r.key.as_deref(), Some(key.as_str()));
    assert!(!r.timings_us.is_empty());

    // A different option set is a different content-addressed key.
    let mut tweaked = kernel_request(4, 0);
    tweaked.options.stream_depth = Some(32);
    let r = send_line(&mut writer, &mut reader, &tweaked.encode());
    assert!(r.ok);
    assert_eq!(r.disposition.as_deref(), Some("miss"));
    assert_ne!(r.key.as_deref(), Some(key.as_str()));

    handle.shutdown();
}

#[test]
fn loadgen_gate_passes_and_counts_exactly_once() {
    let handle = serve(ServerConfig::default()).unwrap();
    let report = loadgen::run(&LoadgenConfig {
        addr: handle.local_addr().to_string(),
        clients: 8,
        requests: 48,
        unique_keys: 6,
        ..Default::default()
    })
    .unwrap();
    assert_eq!(report.gate_failures, Vec::<String>::new());
    assert!(report.passed());

    // Cold phase: every unique key compiled exactly once; hits and
    // coalesced followers account for every other response.
    assert_eq!(report.cold.counts.errors, 0);
    assert_eq!(report.cold.counts.misses, 6);
    assert_eq!(
        report.cold.counts.memory_hits
            + report.cold.counts.coalesced
            + report.cold.counts.disk_hits,
        48 - 6
    );

    // Warm phase: everything from cache, nothing recompiled.
    assert_eq!(report.warm.counts.errors, 0);
    assert_eq!(report.warm.counts.misses, 0);
    assert_eq!(report.warm.counts.hit_rate(), 1.0);

    // The server agrees with the client-side tally.
    let stats = handle.cache().stats();
    assert_eq!(stats.misses, 6);
    assert_eq!(stats.total(), 96);
    handle.shutdown();
}

#[test]
fn panicking_client_surfaces_as_gate_failure_not_process_abort() {
    // Regression: `run_phase` used to `join().expect("client thread
    // panicked")`, so one panicking client aborted the entire load-test
    // process. The injection hook panics client 0 in both phases; the
    // run must still complete, report the panic as a structured
    // per-client gate failure, and count it as a phase error — while the
    // surviving clients' measurements stay intact.
    let handle = serve(ServerConfig::default()).unwrap();
    let report = loadgen::run(&LoadgenConfig {
        addr: handle.local_addr().to_string(),
        clients: 4,
        requests: 16,
        unique_keys: 4,
        min_warm_hit_rate: 0.0,
        panic_client: Some(0),
        ..Default::default()
    })
    .unwrap();
    assert!(!report.passed());
    for phase in ["cold", "warm"] {
        assert!(
            report
                .gate_failures
                .iter()
                .any(|f| f.starts_with(&format!("{phase} phase: client 0 panicked"))),
            "{phase} panic entry missing: {:?}",
            report.gate_failures
        );
    }
    // One structured error per phase, and the other three clients'
    // 12 requests per phase still measured.
    assert_eq!(report.cold.counts.errors, 1);
    assert_eq!(report.warm.counts.errors, 1);
    assert_eq!(report.cold.counts.requests, 12);
    assert_eq!(report.warm.counts.requests, 12);
    handle.shutdown();
}

#[test]
fn restarted_server_answers_from_persisted_cache() {
    let dir = scratch_dir("restart");
    let config = |addr: String| LoadgenConfig {
        addr,
        clients: 4,
        requests: 16,
        unique_keys: 4,
        ..Default::default()
    };

    // First server: compile the key set and persist it.
    let first = serve(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let report = loadgen::run(&config(first.local_addr().to_string())).unwrap();
    assert!(report.passed(), "{:?}", report.gate_failures);
    assert_eq!(report.cold.counts.misses, 4);
    first.shutdown();

    // Second server, same directory: the cold pass must already be warm
    // — zero compilations, all four keys answered from disk.
    let second = serve(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let report = loadgen::run(&LoadgenConfig {
        min_cold_hit_rate: 0.9,
        ..config(second.local_addr().to_string())
    })
    .unwrap();
    assert!(report.passed(), "{:?}", report.gate_failures);
    assert_eq!(report.cold.counts.misses, 0);
    assert_eq!(
        report.cold.counts.disk_hits, 4,
        "one disk load per unique key"
    );
    assert_eq!(report.cold.counts.hit_rate(), 1.0);
    assert_eq!(second.cache().stats().misses, 0);
    second.shutdown();

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_persisted_entries_recompile_instead_of_failing() {
    let dir = scratch_dir("corrupt");

    let first = serve(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let stream = TcpStream::connect(first.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let r = send_line(&mut writer, &mut reader, &kernel_request(1, 0).encode());
    assert_eq!(r.disposition.as_deref(), Some("miss"));
    let fingerprint = r.fingerprint.clone().unwrap();
    first.shutdown();

    // Truncate the single persisted entry.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "design"))
        .collect();
    assert_eq!(entries.len(), 1);
    let text = std::fs::read_to_string(entries[0].path()).unwrap();
    std::fs::write(entries[0].path(), &text[..text.len() / 2]).unwrap();

    // The restarted server treats it as absent: recompiles, same
    // fingerprint, and rewrites the entry intact.
    let second = serve(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let stream = TcpStream::connect(second.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let r = send_line(&mut writer, &mut reader, &kernel_request(2, 0).encode());
    assert!(r.ok, "{:?}", r.error);
    assert_eq!(r.disposition.as_deref(), Some("miss"));
    assert_eq!(r.fingerprint.as_deref(), Some(fingerprint.as_str()));
    second.shutdown();

    let rewritten = std::fs::read_to_string(entries[0].path()).unwrap();
    // The design lines are reproduced exactly; only the measured
    // timings (and thus the checksum) may differ between compiles.
    let stable = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("timing ") && !l.starts_with("checksum "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(stable(&rewritten), stable(&text), "entry rewritten intact");
    std::fs::remove_dir_all(&dir).unwrap();
}
