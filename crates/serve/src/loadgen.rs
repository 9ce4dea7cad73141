//! The load generator and its gate.
//!
//! Replays a mixed cold/warm key set against a live server — or the
//! sharded front tier (`router: true`) — from N concurrent client
//! connections and checks the service's contract, not just its
//! liveness:
//!
//! - **Zero errors.** Every request must come back `ok` — protocol,
//!   compile and internal errors all fail the gate.
//! - **Exactly-once compilation.** The cold phase sends `requests`
//!   requests over `unique_keys` distinct kernels, so duplicates race
//!   from different connections; each key may report disposition `miss`
//!   at most once across both phases — hits, disk hits and coalesced
//!   followers must account for every other response. The per-key
//!   ledger backing this gate is part of the report
//!   ([`LoadgenReport::keys`]), so tests can assert it directly instead
//!   of trusting the aggregate. Against a router this is the *ring-wide*
//!   invariant: a key that fails over to a new shard must disk-hit
//!   there, not recompile.
//! - **Warm hit rate.** A second pass over the same key set must be
//!   served from cache at `min_warm_hit_rate` or better. Against a
//!   restarted server, `min_cold_hit_rate` gates the *first* pass too,
//!   proving the disk tier made the restart warm. Under fault
//!   injection, `min_warm_disk_hits` proves a restarted shard warmed
//!   from the **shared** disk tier: its reclaimed keys must produce
//!   disk-hit responses in the warm pass.
//! - **Deterministic designs.** Every response for one key must report
//!   the same design fingerprint — whichever shard serves it.
//!
//! Gate violations are collected into [`LoadgenReport::gate_failures`]
//! rather than panicking, so callers (the `repro loadgen` CLI, CI) can
//! print all of them and exit nonzero.

use std::io;
use std::thread;
use std::time::Instant;

use shmls_ir::error::panic_reason;
use shmls_ir::json::Json;
use stencil_hmls::cache::{Disposition, DispositionCounts};

use crate::protocol::{Client, Request, RequestOptions, Response};
use crate::router::RouterReport;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server (or router) address, `host:port`.
    pub addr: String,
    /// Concurrent client connections per phase.
    pub clients: usize,
    /// Total requests per phase, spread round-robin over the clients.
    pub requests: usize,
    /// Distinct kernels in the key set; `requests > unique_keys` makes
    /// duplicates race.
    pub unique_keys: usize,
    /// Minimum hit rate the warm phase must reach.
    pub min_warm_hit_rate: f64,
    /// Minimum hit rate the *cold* phase must reach — 0 for a fresh
    /// server; set ≥ 0.9 when replaying against a restarted server to
    /// prove its persisted cache answers without recompiling.
    pub min_cold_hit_rate: f64,
    /// The target is the sharded front tier: after the run, fetch the
    /// router's per-shard report over the `{"control": "stats"}` frame
    /// and embed it in [`LoadgenReport::router`]. An unreachable report
    /// or any unroutable request fails the gate.
    pub router: bool,
    /// Minimum `disk-hit` responses the warm phase must contain. 0
    /// disables the gate; the fault-injection runs set it ≥ 1 to prove
    /// the restarted shard served its reclaimed keys from the shared
    /// disk tier rather than recompiling them.
    pub min_warm_disk_hits: usize,
    /// Fault-injection hook: the client thread with this index panics
    /// after connecting. Tests use it to prove that one panicking client
    /// surfaces as a structured per-client gate failure instead of
    /// aborting the whole load-test process.
    pub panic_client: Option<usize>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7456".to_string(),
            clients: 8,
            requests: 64,
            unique_keys: 8,
            min_warm_hit_rate: 0.9,
            min_cold_hit_rate: 0.0,
            router: false,
            min_warm_disk_hits: 0,
            panic_client: None,
        }
    }
}

/// The canonical DSL source for key index `k` — structurally identical
/// kernels distinguished by grid extent, so every key compiles fast but
/// hashes (and fingerprints) distinctly.
pub fn kernel_source(k: usize) -> String {
    format!(
        "kernel load{k} {{ grid({}, 8) halo 1 field a : input field b : output \
         compute b {{ b = 0.25 * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1]) }} }}",
        8 + 2 * k
    )
}

/// One phase's aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseReport {
    /// Requests sent and how they were served — the sum of the phase's
    /// per-key ledgers, plus one error per client that panicked.
    pub counts: DispositionCounts,
    /// Phase wall time, microseconds.
    pub elapsed_us: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

impl PhaseReport {
    /// Requests served per second.
    pub fn requests_per_s(&self) -> f64 {
        per_second(self.counts.requests, self.elapsed_us)
    }

    /// Compilations (misses) per second — the cold phase's headline.
    pub fn compiles_per_s(&self) -> f64 {
        per_second(self.counts.misses, self.elapsed_us)
    }

    fn to_json(self) -> Json {
        let num = |name: &str, n: f64| (name.to_string(), Json::Num(n));
        let mut pairs = self.counts.to_json();
        pairs.extend([
            num("elapsed_us", self.elapsed_us as f64),
            num("p50_us", self.p50_us as f64),
            num("p99_us", self.p99_us as f64),
            num("hit_rate", self.counts.hit_rate()),
            num("requests_per_s", self.requests_per_s()),
            num("compiles_per_s", self.compiles_per_s()),
        ]);
        Json::Obj(pairs)
    }
}

fn per_second(count: u64, elapsed_us: u64) -> f64 {
    if elapsed_us == 0 {
        return 0.0;
    }
    count as f64 / (elapsed_us as f64 / 1e6)
}

/// One key's disposition counters within a single phase.
pub type KeyPhase = DispositionCounts;

/// The per-key ledger: every disposition this key's requests produced,
/// split by phase, plus the design fingerprint and the set of shards
/// that answered. This is what makes the exactly-once invariant
/// *checkable from the report* instead of inferred from aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyReport {
    /// Key index (maps to [`kernel_source`]).
    pub key: usize,
    /// The design fingerprint every response for this key carried.
    pub fingerprint: Option<String>,
    /// Distinct shard ids that served this key, ascending — populated
    /// only behind a router (backends do not stamp the field). More
    /// than one entry means the key failed over.
    pub shards: Vec<u64>,
    /// Cold-phase dispositions.
    pub cold: KeyPhase,
    /// Warm-phase dispositions.
    pub warm: KeyPhase,
}

impl KeyReport {
    /// Compilations this key triggered across both phases — the
    /// exactly-once gate requires this ≤ 1.
    pub fn misses(&self) -> u64 {
        self.cold.misses + self.warm.misses
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("key".to_string(), Json::Num(self.key as f64)),
            (
                "fingerprint".to_string(),
                match &self.fingerprint {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
            (
                "shards".to_string(),
                Json::Arr(self.shards.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("cold".to_string(), Json::Obj(self.cold.to_json())),
            ("warm".to_string(), Json::Obj(self.warm.to_json())),
            ("misses".to_string(), Json::Num(self.misses() as f64)),
        ])
    }
}

/// The full two-phase run: cold pass, warm pass, per-key ledger, and
/// the gate verdict.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The configuration the run used.
    pub config: LoadgenConfig,
    /// First pass over the key set.
    pub cold: PhaseReport,
    /// Second pass over the same key set.
    pub warm: PhaseReport,
    /// Per-key dispositions, indexed by key.
    pub keys: Vec<KeyReport>,
    /// The router's per-shard report, when `config.router` is set and
    /// the stats frame answered.
    pub router: Option<RouterReport>,
    /// Every violated invariant, human-readable. Empty means the gate
    /// passed.
    pub gate_failures: Vec<String>,
}

/// Schema version of the JSON report written by `repro loadgen --out`.
/// v2 added the per-key ledger (`keys`) and the optional `router`
/// section.
pub const REPORT_SCHEMA: u64 = 2;

impl LoadgenReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.gate_failures.is_empty()
    }

    /// The report as a JSON document (schema-versioned; written by
    /// `repro loadgen --out` and archived by CI).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema".to_string(), Json::Num(REPORT_SCHEMA as f64)),
            ("addr".to_string(), Json::Str(self.config.addr.clone())),
            ("clients".to_string(), Json::Num(self.config.clients as f64)),
            (
                "requests".to_string(),
                Json::Num(self.config.requests as f64),
            ),
            (
                "unique_keys".to_string(),
                Json::Num(self.config.unique_keys as f64),
            ),
            ("routed".to_string(), Json::Bool(self.config.router)),
            ("cold".to_string(), self.cold.to_json()),
            ("warm".to_string(), self.warm.to_json()),
            (
                "keys".to_string(),
                Json::Arr(self.keys.iter().map(KeyReport::to_json).collect()),
            ),
        ];
        if let Some(router) = &self.router {
            pairs.push(("router".to_string(), router.to_json()));
        }
        pairs.push((
            "gate_failures".to_string(),
            Json::Arr(
                self.gate_failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }
}

/// A successful exchange, as decoded from the response.
#[derive(Debug, Clone)]
struct Served {
    disposition: Disposition,
    fingerprint: String,
    /// Router-stamped serving shard; `None` against a bare backend.
    shard: Option<u64>,
}

/// One request's outcome, as seen by a client thread.
#[derive(Debug, Clone)]
struct Outcome {
    key: usize,
    latency_us: u64,
    result: Result<Served, String>,
}

/// Run the two-phase load test and evaluate every gate.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let config = LoadgenConfig {
        clients: config.clients.max(1),
        unique_keys: config.unique_keys.max(1),
        ..config.clone()
    };
    let cold_run = run_phase(&config)?;
    let warm_run = run_phase(&config)?;

    let mut gate_failures = Vec::new();
    for (phase, run) in [("cold", &cold_run), ("warm", &warm_run)] {
        for panic in &run.panics {
            gate_failures.push(format!("{phase} phase: {panic}"));
        }
    }
    let keys = key_ledger(config.unique_keys, &cold_run, &warm_run, &mut gate_failures);
    let cold = cold_run.report(keys.iter().map(|k| &k.cold));
    let warm = warm_run.report(keys.iter().map(|k| &k.warm));
    gate(&config, [&cold, &warm], &keys, &mut gate_failures);
    let router = if config.router {
        router_stats(&config.addr, &mut gate_failures)
    } else {
        None
    };
    Ok(LoadgenReport {
        config,
        cold,
        warm,
        keys,
        router,
        gate_failures,
    })
}

/// The per-key ledger, built from the raw outcomes of both phases. A key
/// whose design fingerprint changes between responses fails the gate.
fn key_ledger(
    unique_keys: usize,
    cold_run: &PhaseRun,
    warm_run: &PhaseRun,
    gate_failures: &mut Vec<String>,
) -> Vec<KeyReport> {
    let mut keys: Vec<KeyReport> = (0..unique_keys)
        .map(|key| KeyReport {
            key,
            ..Default::default()
        })
        .collect();
    for (run, is_warm) in [(cold_run, false), (warm_run, true)] {
        for outcome in &run.outcomes {
            let entry = &mut keys[outcome.key];
            let counts = if is_warm {
                &mut entry.warm
            } else {
                &mut entry.cold
            };
            counts.record(outcome.result.as_ref().ok().map(|s| s.disposition));
            let Ok(served) = &outcome.result else {
                continue;
            };
            if let Some(shard) = served.shard {
                if !entry.shards.contains(&shard) {
                    entry.shards.push(shard);
                }
            }
            match &entry.fingerprint {
                None => entry.fingerprint = Some(served.fingerprint.clone()),
                Some(seen) if *seen != served.fingerprint => gate_failures.push(format!(
                    "key {}: fingerprint changed across responses ({seen} vs {})",
                    outcome.key, served.fingerprint
                )),
                Some(_) => {}
            }
        }
    }
    for entry in &mut keys {
        entry.shards.sort_unstable();
    }
    keys
}

/// The gates over the two phases' aggregates and the per-key ledger:
/// zero errors, exactly-once compilation and the hit-rate floors.
fn gate(
    config: &LoadgenConfig,
    [cold, warm]: [&PhaseReport; 2],
    keys: &[KeyReport],
    gate_failures: &mut Vec<String>,
) {
    for (phase, report) in [("cold", cold), ("warm", warm)] {
        if report.counts.errors > 0 {
            gate_failures.push(format!(
                "{phase} phase: {} of {} requests failed",
                report.counts.errors, report.counts.requests
            ));
        }
    }

    // Exactly-once: across BOTH phases each key may miss at most once —
    // a warm-phase miss would mean the cache forgot a key it just
    // compiled, and behind a router a second miss means a failover
    // recompiled instead of reading the shared disk tier. (With
    // eviction-sized key sets callers lower `requests` instead; the
    // loadgen key set is sized to fit.)
    for entry in keys {
        if entry.misses() > 1 {
            gate_failures.push(format!(
                "key {}: compiled {} times (expected once)",
                entry.key,
                entry.misses()
            ));
        }
    }

    if cold.counts.hit_rate() < config.min_cold_hit_rate {
        gate_failures.push(format!(
            "cold hit rate {:.3} below required {:.3}",
            cold.counts.hit_rate(),
            config.min_cold_hit_rate
        ));
    }
    if warm.counts.hit_rate() < config.min_warm_hit_rate {
        gate_failures.push(format!(
            "warm hit rate {:.3} below required {:.3}",
            warm.counts.hit_rate(),
            config.min_warm_hit_rate
        ));
    }
    if warm.counts.disk_hits < config.min_warm_disk_hits as u64 {
        gate_failures.push(format!(
            "warm phase served {} disk hits, required {} (shared-disk warming)",
            warm.counts.disk_hits, config.min_warm_disk_hits
        ));
    }
}

/// The router's per-shard report; an unreachable report or any
/// unroutable request fails the gate.
fn router_stats(addr: &str, gate_failures: &mut Vec<String>) -> Option<RouterReport> {
    match fetch_router_report(addr) {
        Ok(report) => {
            if report.unroutable > 0 {
                gate_failures.push(format!(
                    "router reported {} unroutable requests",
                    report.unroutable
                ));
            }
            Some(report)
        }
        Err(e) => {
            gate_failures.push(format!("router stats unavailable: {e}"));
            None
        }
    }
}

/// Ask the front tier for its per-shard report over the control frame.
pub fn fetch_router_report(addr: &str) -> io::Result<RouterReport> {
    let line = Client::connect(addr, None)?.roundtrip(r#"{"control": "stats"}"#)?;
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let doc = Json::parse(&line).map_err(|e| invalid(format!("bad stats JSON: {e}")))?;
    RouterReport::from_json(&doc).map_err(invalid)
}

/// What one pass over the key set produced, before it is counted.
struct PhaseRun {
    outcomes: Vec<Outcome>,
    /// One description per client thread that panicked.
    panics: Vec<String>,
    elapsed_us: u64,
}

impl PhaseRun {
    /// The phase's aggregate, over the per-key ledgers of its outcomes.
    fn report<'k>(&self, keys: impl Iterator<Item = &'k KeyPhase>) -> PhaseReport {
        let mut counts = DispositionCounts::default();
        keys.for_each(|key| counts.absorb(key));
        // Each panicked client is one structured error in the phase
        // report; its description rides alongside for the gate ledger.
        counts.errors += self.panics.len() as u64;
        let mut latencies: Vec<u64> = self.outcomes.iter().map(|o| o.latency_us).collect();
        latencies.sort_unstable();
        PhaseReport {
            counts,
            elapsed_us: self.elapsed_us,
            p50_us: percentile(&latencies, 50),
            p99_us: percentile(&latencies, 99),
        }
    }
}

/// One pass over the key set: `clients` threads, each owning one
/// connection, round-robin over the request indices.
fn run_phase(config: &LoadgenConfig) -> io::Result<PhaseRun> {
    let started = Instant::now();
    let mut handles = Vec::new();
    for client in 0..config.clients {
        let config = config.clone();
        handles.push(thread::spawn(move || client_run(&config, client)));
    }
    // Join *every* thread before acting on any result (the same
    // containment pattern `scale::run_multi_cu` uses): a panicking client
    // used to abort the whole process through `join().expect(...)`,
    // taking the measurement — and any still-running clients — with it.
    // Now a panic becomes a structured per-client entry the report's
    // gates surface.
    let joined: Vec<(usize, thread::Result<io::Result<Vec<Outcome>>>)> = handles
        .into_iter()
        .enumerate()
        .map(|(client, handle)| (client, handle.join()))
        .collect();
    let mut outcomes = Vec::new();
    let mut connect_error: Option<io::Error> = None;
    let mut panics: Vec<String> = Vec::new();
    for (client, result) in joined {
        match result {
            Ok(Ok(mut client_outcomes)) => outcomes.append(&mut client_outcomes),
            Ok(Err(e)) => connect_error = Some(e),
            Err(payload) => {
                let reason = panic_reason(&*payload);
                panics.push(format!("client {client} panicked: {reason}"));
            }
        }
    }
    if let Some(e) = connect_error {
        // A client that could not even connect is a setup problem, not a
        // measurement — surface it as an error rather than a gate entry.
        return Err(e);
    }
    Ok(PhaseRun {
        outcomes,
        panics,
        elapsed_us: started.elapsed().as_micros() as u64,
    })
}

/// The requests client `c` owns: indices `c, c+clients, c+2·clients, …`
/// mapped onto keys by `index % unique_keys`.
fn client_run(config: &LoadgenConfig, client: usize) -> io::Result<Vec<Outcome>> {
    let mut connection = Client::connect(&*config.addr, None)?;
    if config.panic_client == Some(client) {
        panic!("injected fault: panic_client = {client}");
    }
    let mut outcomes = Vec::new();
    for index in (client..config.requests).step_by(config.clients) {
        let key = index % config.unique_keys;
        let request = Request {
            id: Some(index as u64),
            source: kernel_source(key),
            options: RequestOptions {
                paths: Some("hls".to_string()),
                ..Default::default()
            },
        };
        let sent = Instant::now();
        let result = exchange(&mut connection, &request);
        outcomes.push(Outcome {
            key,
            latency_us: sent.elapsed().as_micros() as u64,
            result,
        });
    }
    Ok(outcomes)
}

/// Send one request and read its response; classify the outcome.
fn exchange(connection: &mut Client, request: &Request) -> Result<Served, String> {
    let line = connection
        .roundtrip(&request.encode())
        .map_err(|e| format!("exchange failed: {e}"))?;
    let response = Response::parse(&line).map_err(|e| format!("unparseable response: {e}"))?;
    if response.id != request.id {
        return Err(format!(
            "response id {:?} does not match request id {:?}",
            response.id, request.id
        ));
    }
    if let Some((kind, message)) = &response.error {
        return Err(format!("{} error: {message}", kind.as_str()));
    }
    match (response.served(), response.fingerprint) {
        (Some(disposition), Some(fingerprint)) => Ok(Served {
            disposition,
            fingerprint,
            shard: response.shard,
        }),
        _ => Err("success response without a known disposition or a fingerprint".to_string()),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted_us: &[u64], pct: u32) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (pct as usize * sorted_us.len()).div_ceil(100);
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let us: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&us, 50), 50);
        assert_eq!(percentile(&us, 99), 99);
        assert_eq!(percentile(&us, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn kernel_sources_are_distinct_and_parse() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..16 {
            let src = kernel_source(k);
            assert!(seen.insert(src.clone()));
            shmls_frontend::parse_kernel(&src).unwrap();
        }
    }

    #[test]
    fn phase_report_rates_are_finite_on_empty_phases() {
        let empty = PhaseReport::default();
        assert_eq!(empty.counts.hit_rate(), 0.0);
        assert_eq!(empty.requests_per_s(), 0.0);
        assert_eq!(empty.compiles_per_s(), 0.0);
    }

    fn sample_report() -> LoadgenReport {
        LoadgenReport {
            config: LoadgenConfig::default(),
            cold: PhaseReport {
                counts: DispositionCounts {
                    requests: 4,
                    misses: 2,
                    memory_hits: 2,
                    ..Default::default()
                },
                elapsed_us: 1000,
                ..Default::default()
            },
            warm: PhaseReport::default(),
            keys: vec![
                KeyReport {
                    key: 0,
                    fingerprint: Some("00000000deadbeef".to_string()),
                    shards: vec![1, 2],
                    cold: KeyPhase {
                        requests: 2,
                        misses: 1,
                        memory_hits: 1,
                        ..Default::default()
                    },
                    warm: KeyPhase {
                        requests: 2,
                        disk_hits: 2,
                        ..Default::default()
                    },
                },
                KeyReport {
                    key: 1,
                    ..Default::default()
                },
            ],
            router: None,
            gate_failures: vec!["warm hit rate 0.000 below required 0.900".to_string()],
        }
    }

    #[test]
    fn report_json_carries_the_gate_verdict() {
        let report = sample_report();
        let doc = report.to_json();
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(REPORT_SCHEMA));
        assert_eq!(
            doc.get("cold").unwrap().get("misses").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(doc.get("gate_failures").unwrap().as_arr().unwrap().len(), 1);
        // Round-trips through the writer.
        let text = doc.pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    /// Regression test for the schema-2 report shape: the per-key
    /// ledger must expose every field the exactly-once assertion needs,
    /// and the router section must appear exactly when present.
    #[test]
    fn report_schema_exposes_per_key_dispositions() {
        let mut report = sample_report();
        let doc = report.to_json();
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("routed"), Some(&Json::Bool(false)));
        assert!(doc.get("router").is_none(), "no router section when absent");

        let keys = doc.get("keys").unwrap().as_arr().unwrap();
        assert_eq!(keys.len(), 2);
        let k0 = &keys[0];
        assert_eq!(k0.get("key").unwrap().as_u64(), Some(0));
        assert_eq!(
            k0.get("fingerprint").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(k0.get("shards").unwrap().as_arr().unwrap().len(), 2);
        // The exactly-once ledger: per-phase dispositions plus the
        // cross-phase miss total.
        for phase in ["cold", "warm"] {
            let p = k0.get(phase).unwrap();
            for field in [
                "requests",
                "errors",
                "memory_hits",
                "disk_hits",
                "misses",
                "coalesced",
            ] {
                assert!(p.get(field).is_some(), "keys[].{phase}.{field} missing");
            }
        }
        assert_eq!(k0.get("misses").unwrap().as_u64(), Some(1));
        // An un-served key reports a null fingerprint, not a crash.
        assert_eq!(keys[1].get("fingerprint"), Some(&Json::Null));

        // With a router report attached, the section appears and
        // round-trips.
        report.router = Some(RouterReport {
            forwarded: 8,
            ..Default::default()
        });
        let doc = report.to_json();
        let router = doc.get("router").expect("router section present");
        assert_eq!(router.get("forwarded").unwrap().as_u64(), Some(8));
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn phase_and_key_documents_keep_their_member_order() {
        let doc = sample_report().to_json();
        let members = |v: &Json| -> Vec<String> {
            let pairs = v.as_obj().unwrap();
            pairs.iter().map(|(name, _)| name.clone()).collect()
        };
        let counts = "requests errors memory_hits disk_hits misses coalesced";
        assert_eq!(
            members(doc.get("cold").unwrap()).join(" "),
            format!("{counts} elapsed_us p50_us p99_us hit_rate requests_per_s compiles_per_s")
        );
        let key = &doc.get("keys").unwrap().as_arr().unwrap()[0];
        assert_eq!(members(key.get("warm").unwrap()).join(" "), counts);
    }

    #[test]
    fn key_report_miss_total_spans_both_phases() {
        let entry = KeyReport {
            cold: KeyPhase {
                misses: 1,
                ..Default::default()
            },
            warm: KeyPhase {
                misses: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(entry.misses(), 2);
    }
}
