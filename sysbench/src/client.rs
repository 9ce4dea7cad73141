//! The benchmark's own load client for the compile service: a closed loop
//! (each connection sends its next request only after the reply to the
//! last, as callers waiting on a compile do) over `TcpStream` with
//! `TCP_NODELAY`, timing every request, stamping every reply (so that the
//! workload can cut the phase into windows), and keeping a per-key ledger
//! of fingerprints and cache dispositions.
//!
//! It shares nothing with `shmls_serve::loadgen`, which is product code a
//! later change may alter; it does speak the wire format through
//! `shmls_serve::protocol`, so a change of format carries over.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

use shmls_serve::protocol::Response;

use crate::inputs::{order_rng, ServeKey};

/// What the service answered for one key, over one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyLedger {
    /// The first fingerprint reported.
    pub fingerprint: Option<String>,
    /// Responses whose fingerprint differed from the first.
    pub conflicting: u64,
    /// Responses with disposition `hit`.
    pub hits: u64,
    /// Responses with disposition `miss` (a compilation ran).
    pub misses: u64,
    /// Responses with any other disposition (`disk-hit`, `coalesced`).
    pub others: u64,
    /// Responses that were not `ok` or did not parse.
    pub errors: u64,
    /// The first response line, for the codec probes.
    pub sample: Option<String>,
}

impl KeyLedger {
    fn absorb(&mut self, other: KeyLedger) {
        match (&self.fingerprint, &other.fingerprint) {
            (Some(a), Some(b)) if a != b => self.conflicting += 1,
            (None, Some(_)) => self.fingerprint = other.fingerprint,
            _ => {}
        }
        self.conflicting += other.conflicting;
        self.hits += other.hits;
        self.misses += other.misses;
        self.others += other.others;
        self.errors += other.errors;
        if self.sample.is_none() {
            self.sample = other.sample;
        }
    }

    fn record(&mut self, line: &str) {
        let Ok(response) = Response::parse(line) else {
            self.errors += 1;
            return;
        };
        if !response.ok {
            self.errors += 1;
            return;
        }
        match response.disposition.as_deref() {
            Some("hit") => self.hits += 1,
            Some("miss") => self.misses += 1,
            _ => self.others += 1,
        }
        match (&self.fingerprint, response.fingerprint) {
            (Some(first), Some(this)) if *first != this => self.conflicting += 1,
            (None, this) => self.fingerprint = this,
            _ => {}
        }
        if self.sample.is_none() {
            self.sample = Some(line.trim_end().to_string());
        }
    }
}

/// Which requests a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Every key once, dealt round-robin to the connections.
    Once,
    /// Keys drawn uniformly, per connection from its own seeded stream,
    /// until `seconds` have passed.
    Timed {
        /// Phase length.
        seconds: f64,
        /// Seed of the draw.
        seed: u64,
    },
}

/// One phase's measurements, merged over its connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per reply `(when it arrived, in seconds since the phase began,
    /// latency from send to reply in milliseconds)`; not in order across
    /// connections.
    pub replies: Vec<(f64, f64)>,
    /// Per-key ledger, indexed like the key list.
    pub ledger: Vec<KeyLedger>,
    /// Connections that failed (connect, write or read error).
    pub broken_connections: u64,
    /// Wall-clock length of the phase in seconds.
    pub elapsed_s: f64,
    /// `(key, send, reply)` per request, when asked for.
    pub spans: Vec<(usize, Instant, Instant)>,
}

impl Phase {
    /// Requests answered.
    pub fn requests(&self) -> u64 {
        self.replies.len() as u64
    }
}

struct Connection {
    phase: Phase,
    error: Option<io::Error>,
}

fn drive(
    addr: SocketAddr,
    keys: &[ServeKey],
    index: usize,
    connections: usize,
    plan: Plan,
    start: Instant,
    spans: bool,
) -> Connection {
    let mut phase = Phase {
        ledger: vec![KeyLedger::default(); keys.len()],
        ..Phase::default()
    };
    let mut round_trips = || -> io::Result<()> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut line = String::new();
        let mut rng = match plan {
            Plan::Timed { seed, .. } => order_rng(seed, index as u64),
            Plan::Once => order_rng(0, 0),
        };
        let mut next_once = index;
        loop {
            let key = match plan {
                Plan::Once => {
                    let key = next_once;
                    next_once += connections;
                    if key >= keys.len() {
                        return Ok(());
                    }
                    key
                }
                Plan::Timed { seconds, .. } => {
                    if start.elapsed().as_secs_f64() >= seconds {
                        return Ok(());
                    }
                    rng.range(0, keys.len() - 1)
                }
            };
            let sent = Instant::now();
            writer.write_all(keys[key].frame.as_bytes())?;
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let replied = Instant::now();
            phase.replies.push((
                replied.duration_since(start).as_secs_f64(),
                replied.duration_since(sent).as_secs_f64() * 1e3,
            ));
            if spans {
                phase.spans.push((key, sent, replied));
            }
            phase.ledger[key].record(&line);
        }
    };
    let error = round_trips().err();
    Connection { phase, error }
}

/// Run one phase against the service at `addr` from `connections`
/// concurrent closed-loop connections.
pub fn run_phase(
    addr: SocketAddr,
    keys: &[ServeKey],
    connections: usize,
    plan: Plan,
    spans: bool,
) -> Phase {
    let start = Instant::now();
    let results: Vec<Connection> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|index| {
                scope.spawn(move || drive(addr, keys, index, connections, plan, start, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client connection panicked"))
            .collect()
    });
    let mut merged = Phase {
        ledger: vec![KeyLedger::default(); keys.len()],
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for Connection { phase, error } in results {
        if let Some(error) = error {
            eprintln!("sysbench: client connection failed: {error}");
            merged.broken_connections += 1;
        }
        merged.replies.extend(phase.replies);
        merged.spans.extend(phase.spans);
        for (total, ledger) in merged.ledger.iter_mut().zip(phase.ledger) {
            total.absorb(ledger);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::serve_keys;
    use shmls_serve::server::{serve, ServerConfig};

    #[test]
    fn phases_fill_the_ledger_and_stamp_replies() {
        let server = serve(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let keys = serve_keys(1, 5);
        let prime = run_phase(server.local_addr(), &keys, 2, Plan::Once, false);
        assert_eq!(prime.requests(), 5);
        assert_eq!(prime.broken_connections, 0);
        for key in &prime.ledger {
            assert_eq!(
                (key.misses, key.hits, key.errors, key.conflicting),
                (1, 0, 0, 0)
            );
            assert!(key.fingerprint.is_some() && key.sample.is_some());
        }

        let plan = Plan::Timed {
            seconds: 0.2,
            seed: 1,
        };
        let warm = run_phase(server.local_addr(), &keys, 2, plan, true);
        assert!(warm.requests() > 10);
        assert!(warm
            .replies
            .iter()
            .all(|&(at_s, ms)| at_s > 0.0 && at_s < warm.elapsed_s && ms > 0.0));
        assert_eq!(warm.spans.len() as u64, warm.requests());
        let hits: u64 = warm.ledger.iter().map(|k| k.hits).sum();
        assert_eq!(hits, warm.requests());
        for (cold, warm) in prime.ledger.iter().zip(&warm.ledger) {
            assert!(warm.fingerprint.is_none() || warm.fingerprint == cold.fingerprint);
        }
        server.shutdown();
    }

    #[test]
    fn a_refused_connection_is_reported_not_panicked() {
        // A port nothing listens on: bind, read the address, drop.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let phase = run_phase(addr, &serve_keys(1, 2), 2, Plan::Once, false);
        assert_eq!(phase.broken_connections, 2);
        assert_eq!(phase.requests(), 0);
    }

    #[test]
    fn ledger_counts_conflicts_and_errors() {
        let mut ledger = KeyLedger::default();
        let ok = |fp: &str, disposition: &str| {
            format!(
                r#"{{"id":1,"ok":true,"disposition":"{disposition}","key":"00","fingerprint":"{fp}","wall_us":1}}"#
            )
        };
        ledger.record(&ok("aa", "miss"));
        ledger.record(&ok("aa", "hit"));
        ledger.record(&ok("bb", "hit"));
        ledger.record(&ok("aa", "coalesced"));
        ledger.record("not json");
        ledger
            .record(r#"{"id":1,"ok":false,"wall_us":1,"error":{"kind":"compile","message":"x"}}"#);
        assert_eq!(ledger.fingerprint.as_deref(), Some("aa"));
        assert_eq!(
            (
                ledger.misses,
                ledger.hits,
                ledger.others,
                ledger.conflicting,
                ledger.errors
            ),
            (1, 2, 1, 1, 2)
        );
    }
}
