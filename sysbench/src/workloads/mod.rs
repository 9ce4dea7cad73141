//! The seven workloads and the measuring helpers they share.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use shmls_ir::interp::Buffer;

use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

pub mod compile;
pub mod exec;
pub mod march;
pub mod serve;
pub mod sim;

/// Threads and connections every workload that uses more than one is
/// pinned to: the CPUs of the host the sizes were measured on.
pub const PARALLELISM: usize = 2;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    /// Report per-layer metrics (from spans and layer probes) instead of
    /// the end-to-end ones.
    pub trace: bool,
    /// Toy sizes: exercises every code path in about a second.
    pub smoke: bool,
    /// A directory the run may create files in and must remove.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// Set-ups to measure before the timed region, and again after it:
    /// `full` of them in a run that reports `setup_s`, one in a traced or
    /// a smoke run, which only needs what the set-up makes.
    pub fn setup_repeats(&self, full: usize) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            full
        }
    }
}

/// Run the named workload; `None` for an unknown name.
pub fn run(workload: &str, cfg: &RunConfig, tracer: &mut Tracer) -> Option<RunResult> {
    Some(match workload {
        "compile_cold" => compile::run(cfg, tracer),
        "exec_8m" => exec::run(cfg, tracer),
        "march_spatial" => march::run(&march::Spec::spatial(cfg.smoke), cfg, tracer),
        "march_temporal" => march::run(&march::Spec::temporal(cfg.smoke), cfg, tracer),
        "sim_designs" => sim::run(cfg, tracer),
        "serve_direct" => serve::run(serve::Tier::Direct, cfg, tracer),
        "serve_routed" => serve::run(serve::Tier::Routed, cfg, tracer),
        _ => return None,
    })
}

/// Seconds `f` took.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds `f` took, under a span when a tracer is given: the traced
/// duration then includes what recording the span costs.
pub fn timed<R>(
    spans: Option<&mut Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match spans {
        Some(tracer) => {
            tracer.begin(name, op);
            let out = f();
            let took = tracer.end();
            (out, took)
        }
        None => time(f),
    }
}

/// Set up `repeats` times (at least once), each time after dropping what
/// the last set-up made — two sets of a workload's data would double
/// `peak_rss_mb`. Returns the last product and the seconds each took.
pub fn set_up_repeatedly<T>(repeats: usize, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (mut made, first_s) = time(&mut make);
    let mut setups_s = vec![first_s];
    for _ in 1..repeats {
        drop(made);
        let (again, took) = time(&mut make);
        made = again;
        setups_s.push(took);
    }
    (made, setups_s)
}

/// Set up `repeats` more times, dropping each product, and return the
/// seconds each took. Workloads call this after their timed region: the
/// set-ups before it are over within a second or two, which one burst
/// from a neighbour can cover entirely; it cannot also cover these.
pub fn set_up_again<T>(repeats: usize, mut make: impl FnMut() -> T) -> Vec<f64> {
    (0..repeats).map(|_| time(&mut make).1).collect()
}

/// Call `op` with a running index until `seconds` have passed (at least
/// once) and collect the seconds each call says it measured.
fn repeat_for(seconds: f64, mut op: impl FnMut(u64) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut measured = Vec::new();
    while measured.is_empty() || start.elapsed().as_secs_f64() < seconds {
        measured.push(op(measured.len() as u64));
    }
    measured
}

/// The timed region of a workload whose windows are single operations,
/// each doing `work`: `op` runs one (under a span when given a tracer) and
/// returns its seconds. An untraced run spends `cfg.seconds` on them and
/// records the end-to-end metrics; a traced run spends half untraced and
/// half traced and records `tracing_overhead_pct`, each side read from its
/// quiet twentieth. Returns the untraced durations.
pub fn timed_region(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    result: &mut RunResult,
    work: f64,
    mut op: impl FnMut(Option<&mut Tracer>, u64) -> f64,
) -> Vec<f64> {
    if cfg.trace {
        let plain_s = repeat_for(cfg.seconds / 2.0, |i| op(None, i));
        let traced_s = repeat_for(cfg.seconds / 2.0, |i| op(Some(&mut *tracer), i));
        let plain = stats::quiet_twentieth(&plain_s, false);
        result.metric(
            "tracing_overhead_pct",
            (stats::quiet_twentieth(&traced_s, false) - plain) / plain * 100.0,
        );
        plain_s
    } else {
        let plain_s = repeat_for(cfg.seconds, |i| op(None, i));
        let windows: Vec<Window> = plain_s
            .iter()
            .map(|&seconds| Window::single(work, seconds))
            .collect();
        end_to_end(result, &windows);
        plain_s
    }
}

/// Median duration in microseconds of `repeats` calls of `f`.
pub fn median_us<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| time(|| std::hint::black_box(f())).1 * 1e6)
        .collect();
    stats::median(&samples)
}

/// One window of a timed region: the work it completed per second and
/// the median latency of the operations in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Work per second (compiles, grid points, cycles, requests).
    pub per_s: f64,
    /// Median operation latency within the window.
    pub p50_ms: f64,
}

impl Window {
    /// A window that is one operation doing `work` in `seconds`.
    pub fn single(work: f64, seconds: f64) -> Window {
        Window {
            per_s: work / seconds,
            p50_ms: seconds * 1e3,
        }
    }

    /// A window of `seconds` in which one operation completed per latency.
    pub fn of(latencies_ms: &[f64], seconds: f64) -> Window {
        Window {
            per_s: latencies_ms.len() as f64 / seconds,
            p50_ms: stats::median(latencies_ms),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Record the end-to-end metrics of a timed region that has just ended,
/// from its windows; `peak_rss_mb` is read now, so that what a workload
/// allocates afterwards (golden outputs, further set-ups) is not in it.
///
/// The host this runs on has two speeds. For seconds at a time — what
/// share of a run changes from minute to minute, from none of it to all
/// of it — every window of every workload takes 1.4 to 1.65 times what
/// it takes otherwise, on one thread or two, and nothing inside the
/// sandbox tells which speed a window met. The median window of a run is
/// therefore one speed in some runs and the other in the rest: across ten
/// runs it spread by 30 % of its own median for the cycle simulation and
/// by 54 % for the compiler, where the benchmark's driver accepts at most
/// 25 %. What repeats is either end of the distribution, and the quiet end
/// repeats oftener, because a run rarely misses the quick speed entirely.
/// So the metric is read at the quiet twentieth of the windows: the
/// window-median latency a twentieth of them stayed under. A quantile, not
/// the best: the best of N grows with N, and N grows with the program's speed.
/// What this cannot see is a change that slows only some windows of a run;
/// the windows' median and best value are listed beside it as facts.
///
/// Throughput is listed as facts too, read the same way. It is not a
/// metric: where a window is one operation it is the latency again, and
/// through the service — the one place it is not — it does not repeat
/// (the mean round trip of two connections into two workers on two
/// hardware threads is mostly scheduler wait, whose share drifts: 3–29 %
/// spread over ten seeds, hour by hour).
pub fn end_to_end(result: &mut RunResult, windows: &[Window]) {
    result.metric("peak_rss_mb", peak_rss_mb());
    result.fact("windows", windows.len() as f64, "count");

    let latencies_ms: Vec<f64> = windows.iter().map(|w| w.p50_ms).collect();
    let quietest = latencies_ms.iter().copied().fold(f64::NAN, f64::min);
    result.metric(
        "latency_ms_p50",
        stats::quiet_twentieth(&latencies_ms, false),
    );
    result.fact("latency_ms_p50.best_window", quietest, "ms");
    result.fact(
        "latency_ms_p50.median_window",
        stats::median(&latencies_ms),
        "ms",
    );

    let per_s: Vec<f64> = windows.iter().map(|w| w.per_s).collect();
    let quietest = per_s.iter().copied().fold(f64::NAN, f64::max);
    result.fact("work_per_s", stats::quiet_twentieth(&per_s, true), "1/s");
    result.fact("work_per_s.best_window", quietest, "1/s");
    result.fact("work_per_s.median_window", stats::median(&per_s), "1/s");
}

/// Record `setup_s` from the set-ups a run made, read like the windows at
/// their quiet twentieth, which of up to ten set-ups is the quickest. A
/// set-up is single-shot work at whichever of the host's two speeds it
/// met, and the first of a process also pays for page faults and cold
/// caches: the median of a run's set-ups moved by 16–38 % across ten runs
/// where the quickest moved by 2–10 %. The median is listed beside it as a
/// fact.
pub fn record_setup(result: &mut RunResult, setups_s: &[f64]) {
    result.metric("setup_s", stats::quiet_twentieth(setups_s, false));
    result.fact("setup_s.repeats", setups_s.len() as f64, "count");
    result.fact("setup_s.median", stats::median(setups_s), "s");
}

/// A cheap order-sensitive digest of output buffers, to check that every
/// timed iteration produced the bits the verified one did.
pub fn digest(outputs: &BTreeMap<String, Buffer>) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for buffer in outputs.values() {
        for value in &buffer.data {
            acc = (acc.rotate_left(5) ^ value.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// Count one operation per digest (`None`: the operation failed) and fail
/// each whose outputs are not, bit for bit, those of the last one — the
/// one the caller verifies against the golden.
pub fn check_digests(result: &mut RunResult, what: &str, digests: &[Option<u64>]) {
    result.checks.passed(digests.len() as u64);
    let verified = digests.last().copied().flatten();
    for digest in digests {
        if digest.is_none() || *digest != verified {
            result
                .checks
                .fail(format!("a {what}'s outputs differ from the verified one's"));
        }
    }
}
