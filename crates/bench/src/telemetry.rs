//! The `repro bench` / `repro compare` ledger of deterministic numbers.
//!
//! `run_bench` compiles both paper kernels at every paper grid size, runs
//! the sequential dataflow engine, the cycle-stepped simulator, a
//! vector-tier sweep, two marches, the autotuner and the compile service
//! on small grids, and records only what is exact on any host: design
//! structure, simulated cycles, memory beats, bytes allocated and copied,
//! cache and error rates. Two runs of the same code give the same
//! `BENCH.json` `metrics` object, byte for byte.
//!
//! `compare` diffs two such reports row by row against one tolerance, so
//! CI can gate on regressions (see `.github/workflows/ci.yml` and the
//! committed `bench/baseline.json`).
//!
//! Nothing here reads a clock. Every time and rate — per-pass compile
//! cost, engine throughput, march speed-ups, service latency — is
//! measured by `sysbench/` at the paper's sizes (DESIGN.md §10 names the
//! owner of each).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::json::Json;
use shmls_fpga_sim::cycle;
use shmls_kernels::catalogue::{Kernel, HEAT3D, PW_ADVECTION, TRACER_ADVECTION};
use shmls_serve::{loadgen, router, server, shard};
use stencil_hmls::autotune::{self, TuneOptions};
use stencil_hmls::cache::CompileCache;
use stencil_hmls::engine::{Engine, VECTOR};
use stencil_hmls::runner::run_hls;
use stencil_hmls::scale::{run_time_marched_with, MarchOptions};
use stencil_hmls::{compile, CompileOptions, CompiledKernel};

/// Version of the `BENCH.json` schema. Bump on any breaking change to the
/// metric key space or file layout, and refresh `bench/baseline.json` in
/// the same commit — `compare` refuses to diff across versions.
pub const SCHEMA_VERSION: u64 = 2;

/// Which direction is an improvement for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (hit rates, speed-ups).
    Higher,
    /// Smaller values are better (cycles, bytes, resource counts).
    Lower,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measurement.
    pub value: f64,
    /// Display unit (`"cycles"`, `"bytes"`, `"count"`, `"ratio"`, …).
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
}

/// The flat row map, keyed `area/kernel/…` (sorted for stable diffs).
pub type Rows = BTreeMap<String, Metric>;

/// A full benchmark report (the in-memory form of `BENCH.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// `git rev-parse --short HEAD` at measurement time (or `"unknown"`).
    pub git_rev: String,
    /// The rows.
    pub metrics: Rows,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The paper kernels with the small grids the engines run them on.
const BENCH_KERNELS: [(&Kernel, [i64; 3]); 2] =
    [(&PW_ADVECTION, [10, 8, 6]), (&TRACER_ADVECTION, [8, 7, 6])];

/// The heat3d grid of the temporal and autotuner sections.
const HEAT_GRID: [i64; 3] = [12, 10, 8];

fn lower(value: f64, unit: &str) -> Metric {
    Metric {
        value,
        unit: unit.to_string(),
        better: Better::Lower,
    }
}

fn higher(value: f64, unit: &str) -> Metric {
    Metric {
        better: Better::Higher,
        ..lower(value, unit)
    }
}

fn compile_at(
    kernel: &Kernel,
    grid: [i64; 3],
    opts: &CompileOptions,
) -> Result<CompiledKernel, String> {
    compile(&kernel.source(grid), opts)
        .map_err(|e| format!("compiling {} at {grid:?}: {e}", kernel.name))
}

fn parse_at(kernel: &Kernel, grid: [i64; 3]) -> Result<shmls_frontend::KernelDef, String> {
    shmls_frontend::parse_kernel(&kernel.source(grid))
        .map_err(|e| format!("parsing {} at {grid:?}: {e}", kernel.name))
}

/// What the cycle simulator reports for one sweep of a design.
fn sweep_report(compiled: &CompiledKernel, what: &str) -> Result<cycle::CycleReport, String> {
    cycle::simulate(&compiled.design, None)
        .map_err(|report| format!("{what} cycle simulation deadlocked:\n{report}"))
}

/// Design structure at every paper grid size: fingerprints of the
/// generated dataflow that move only when the compiler's output changes.
fn design(rows: &mut Rows) -> Result<(), String> {
    for kernel in crate::PAPER_KERNELS {
        let kname = kernel.name;
        for size in kernel.sizes() {
            let report = compile_at(kernel, size.grid, &CompileOptions::default())?.report;
            for (row, count) in [
                ("streams", report.streams),
                ("compute_stages", report.compute_stages),
                ("dup_stages", report.dup_stages),
                ("shift_buffers", report.shift_buffers),
            ] {
                rows.insert(
                    format!("design/{kname}/{}/{row}", size.label),
                    lower(count as f64, "count"),
                );
            }
        }
    }
    Ok(())
}

/// The extracted designs on the sequential (Kahn) engine and the cycle
/// simulator: `cycles` is what the design costs, `stepped_cycles` how
/// many of them the simulator had to iterate one by one.
fn sim(rows: &mut Rows) -> Result<(), String> {
    for (kernel, grid) in BENCH_KERNELS {
        let kname = kernel.name;
        let compiled = compile_at(kernel, grid, &CompileOptions::default())?;
        let (_, (_, pushed, beats)) = run_hls(&compiled, &kernel.data(grid))
            .map_err(|e| format!("{kname} sequential engine: {e}"))?;
        rows.insert(
            format!("sim/{kname}/mem_beats"),
            lower(beats as f64, "beats"),
        );
        rows.insert(
            format!("sim/{kname}/stream_elements"),
            lower(pushed as f64, "elems"),
        );
        let report = sweep_report(&compiled, kname)?;
        rows.insert(
            format!("sim/{kname}/cycles"),
            lower(report.cycles as f64, "cycles"),
        );
        rows.insert(
            format!("sim/{kname}/stepped_cycles"),
            lower(report.stepped_cycles as f64, "cycles"),
        );
    }
    Ok(())
}

/// Bytes one vector-tier sweep allocates and copies besides the kernel's
/// own, from the store's counters: temps the applies needed and bytes
/// copied between buffers (lent inputs written, `stencil.store` copies).
/// A reintroduced input clone or result temp fails the gate on any host.
/// PW advection needs neither; tracer advection's chained stages keep
/// their temps. Beside them the instructions the sweep dispatched
/// (instructions × blocks) and the input elements it gathered into packed
/// blocks: the deterministic twins of the vector tier's wall clock, which
/// a narrower block or a change of geometry — a strip read in place, or
/// rows packed — moves; and the applies the vector tier runs a sweep: 1
/// where it runs the fused host form, which a silent fall-back to the
/// split form would raise. heat3d at `HEAT_GRID` is the march's kernel.
/// Every apply must have compiled to bytecode: one that had not would
/// fall back to the tree-walker and still sweep correctly.
fn sweep_work(rows: &mut Rows) -> Result<(), String> {
    for (kernel, grid) in BENCH_KERNELS.into_iter().chain([(&HEAT3D, HEAT_GRID)]) {
        let kname = kernel.name;
        let compiled = compile_at(kernel, grid, &CompileOptions::default())?;
        let applies = compiled
            .ctx
            .find_ops(compiled.stencil_func, "stencil.apply")
            .len();
        if compiled.apply_plans.len() != applies {
            return Err(format!(
                "{kname}: {} of {applies} stencil.apply ops compiled to bytecode",
                compiled.apply_plans.len()
            ));
        }
        let work = VECTOR
            .sweep(&compiled, &kernel.data(grid), 1)
            .map_err(|e| format!("{kname} vector sweep: {e}"))?
            .work
            .ok_or_else(|| format!("{kname}: the vector tier reported no store work"))?;
        rows.insert(
            format!("interp/{kname}/sweep_temp_bytes"),
            lower(work.allocated_bytes as f64, "bytes"),
        );
        rows.insert(
            format!("interp/{kname}/sweep_copied_bytes"),
            lower(work.copied_bytes as f64, "bytes"),
        );
        rows.insert(
            format!("interp/{kname}/sweep_dispatches"),
            lower(work.dispatches as f64, "count"),
        );
        rows.insert(
            format!("interp/{kname}/sweep_gathered"),
            lower(work.gathered as f64, "elems"),
        );
        let host_applies = compiled.host_form().map_or(applies, |host| {
            host.ctx.find_ops(host.func, "stencil.apply").len()
        });
        rows.insert(
            format!("interp/{kname}/host_applies"),
            lower(host_applies as f64, "count"),
        );
    }
    Ok(())
}

/// PW advection time-marched over 4 CU slabs on the march's default
/// engine. The serial run populates a private compile cache; the parallel
/// run must then hit it on every CU (`cache_hit_rate` is 1.0 unless
/// caching breaks).
fn scale(rows: &mut Rows) -> Result<(), String> {
    let (row, grid) = BENCH_KERNELS[0];
    let kname = row.name;
    let (steps, cus) = (4, 4);
    let kernel = parse_at(row, grid)?;
    let data = row.data(grid);
    let opts = CompileOptions::default();
    let cache = CompileCache::new();
    let march = |serial: bool| {
        let options = MarchOptions {
            serial,
            cache: Some(&cache),
            ..Default::default()
        };
        run_time_marched_with(&kernel, &data, steps, cus, &opts, &options)
            .map(|(_, report)| report)
            .map_err(|e| format!("{kname} scale run (serial: {serial}): {e}"))
    };
    march(true)?;
    let report = march(false)?;
    rows.insert(
        format!("scale/{kname}/cache_hit_rate"),
        higher(report.cache_hit_rate(), "ratio"),
    );
    rows.insert(
        format!("scale/{kname}/model_makespan_cycles"),
        lower(report.model.makespan_cycles as f64, "cycles"),
    );
    rows.insert(
        format!("scale/{kname}/model_load_imbalance"),
        lower(report.model.load_imbalance, "ratio"),
    );
    Ok(())
}

/// heat3d time-marched at depth 4 against the same march at depth 1.
/// Both execute the identical arithmetic (the conformance suite holds
/// them bitwise equal); depth 4 folds four timesteps into one on-chip
/// sweep, so the march makes ceil(steps/4) external-memory passes instead
/// of `steps` — `pass_reduction`. `cycle_speedup` is the cycle-stepped
/// simulator's verdict on the FPGA-side claim: `steps` shallow sweeps
/// against `model_passes` deep ones, and a regression means the deep
/// pipeline stopped overlapping timesteps.
fn temporal(rows: &mut Rows) -> Result<(), String> {
    let (kname, steps, depth) = (HEAT3D.name, 8, 4);
    // One CU: slab overlap (each extra on-chip step widens the slab by
    // the halo) would otherwise fold multi-CU redundancy into what is
    // meant to be a pure depth-1-vs-depth-4 comparison.
    let cus = 1;
    let kernel = parse_at(&HEAT3D, HEAT_GRID)?;
    let data = HEAT3D.data(HEAT_GRID);
    let cache = CompileCache::new();
    let march = MarchOptions {
        cache: Some(&cache),
        ..Default::default()
    };
    let at_depth = |temporal_depth: usize| {
        let mut opts = CompileOptions::default();
        opts.hmls.temporal_depth = temporal_depth;
        opts
    };
    let model_passes = |d: usize| {
        run_time_marched_with(&kernel, &data, steps, cus, &at_depth(d), &march)
            .map(|(_, report)| report.model_passes)
            .map_err(|e| format!("{kname} depth-{d} march: {e}"))
    };
    let (shallow_passes, deep_passes) = (model_passes(1)?, model_passes(depth)?);
    if shallow_passes != steps as u64 {
        return Err(format!(
            "{kname}: {shallow_passes} passes for {steps} depth-1 steps"
        ));
    }
    let cycles = |d: usize| {
        let what = format!("{kname} depth-{d}");
        sweep_report(&compile_at(&HEAT3D, HEAT_GRID, &at_depth(d))?, &what).map(|r| r.cycles)
    };
    let (shallow_cycles, deep_cycles) = (cycles(1)?, cycles(depth)?);
    rows.insert(
        format!("temporal/{kname}/model_passes_depth{depth}"),
        lower(deep_passes as f64, "passes"),
    );
    rows.insert(
        format!("temporal/{kname}/pass_reduction"),
        higher(steps as f64 / deep_passes as f64, "x"),
    );
    rows.insert(
        format!("temporal/{kname}/deep_sweep_cycles"),
        lower(deep_cycles as f64, "cycles"),
    );
    rows.insert(
        format!("temporal/{kname}/cycle_speedup"),
        higher(
            (steps as u64 * shallow_cycles) as f64 / (deep_passes * deep_cycles).max(1) as f64,
            "x",
        ),
    );
    Ok(())
}

/// The full `autotune::tune` pipeline on heat3d over the quick axes:
/// enumerate CU count × slab split × FIFO depth × port bundling ×
/// temporal depth, prune with the analytic models, cycle-simulate the
/// Pareto frontier, share compiled designs through the content-addressed
/// cache. The rows move only when the search space, the models or the
/// cache-key discipline change; `redundant_compiles` must stay 0.
fn dse(rows: &mut Rows) -> Result<(), String> {
    let kernel = parse_at(&HEAT3D, HEAT_GRID)?;
    let report = autotune::tune(&kernel, &TuneOptions::quick(), &CompileCache::new())
        .map_err(|e| format!("autotuning heat3d: {e}"))?;
    if report.frontier.is_empty() {
        return Err("autotuner returned an empty Pareto frontier for heat3d".to_string());
    }
    let pruned = report.pruned_ports
        + report.pruned_resources
        + report.pruned_dominated
        + report.pruned_deadlocked;
    for (row, metric) in [
        (
            "frontier_size",
            higher(report.frontier.len() as f64, "count"),
        ),
        (
            "candidates_simulated",
            lower(report.simulated as f64, "count"),
        ),
        ("candidates_pruned", higher(pruned as f64, "count")),
        ("best_speedup", higher(report.best_speedup, "x")),
        (
            "redundant_compiles",
            lower(report.redundant_compiles as f64, "count"),
        ),
    ] {
        rows.insert(format!("dse/heat3d/{row}"), metric);
    }
    Ok(())
}

/// The compile service under the loadgen, through real TCP sockets — the
/// path `repro loadgen` and the serve CI jobs exercise — over a fresh
/// disk-persistent cache in a scratch directory. `routed` puts three
/// shards sharing that disk tier behind the consistent-hash router (two
/// network hops); otherwise one server answers directly. Any error or
/// warm-pass cache miss moves a row; the loadgen's own gate (every key
/// compiled exactly once) fails the bench outright.
fn serve(rows: &mut Rows, routed: bool) -> Result<(), String> {
    // Unique per call: callers in one process may run side by side.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let (what, prefix) = if routed {
        ("route", "serve/router_")
    } else {
        ("serve", "serve/loadgen/")
    };
    let scratch = std::env::temp_dir().join(format!(
        "shmls-bench-{what}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |addr: std::net::SocketAddr| {
        loadgen::run(&loadgen::LoadgenConfig {
            addr: addr.to_string(),
            clients: 8,
            requests: 32,
            unique_keys: 4,
            router: routed,
            ..Default::default()
        })
    };
    let starting = |e: std::io::Error| format!("{what}: starting the service: {e}");
    let report = if routed {
        let shards = shard::ShardSet::start(shard::ShardSetConfig {
            shards: 3,
            cache_dir: Some(scratch.clone()),
            workers_per_shard: 4,
            capacity: 64,
        })
        .map_err(starting)?;
        let router = router::start_router(router::RouterConfig::default(), shards.topology())
            .map_err(starting)?;
        let report = run(router.local_addr());
        router.shutdown();
        shards.shutdown();
        report
    } else {
        let handle = server::serve(server::ServerConfig {
            cache_dir: Some(scratch.clone()),
            ..Default::default()
        })
        .map_err(starting)?;
        let report = run(handle.local_addr());
        handle.shutdown();
        report
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let report = report.map_err(|e| format!("{what}: loadgen: {e}"))?;
    if !report.passed() {
        return Err(format!(
            "{what}: loadgen gate failed: {}",
            report.gate_failures.join("; ")
        ));
    }
    let (cold, warm) = (&report.cold.counts, &report.warm.counts);
    let requests = (cold.requests + warm.requests).max(1);
    let errors = cold.errors + warm.errors;
    rows.insert(
        format!("{prefix}warm_hit_rate"),
        higher(warm.hit_rate(), "ratio"),
    );
    rows.insert(
        format!("{prefix}error_rate"),
        lower(errors as f64 / requests as f64, "ratio"),
    );
    Ok(())
}

/// Run the benchmark suite: every section, one row map.
pub fn run_bench() -> Result<BenchReport, String> {
    let mut rows = Rows::new();
    design(&mut rows)?;
    sim(&mut rows)?;
    sweep_work(&mut rows)?;
    scale(&mut rows)?;
    temporal(&mut rows)?;
    dse(&mut rows)?;
    serve(&mut rows, false)?;
    serve(&mut rows, true)?;
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        git_rev: git_rev(),
        metrics: rows,
    })
}

// ---- serialisation -------------------------------------------------------

impl Metric {
    fn to_json(&self) -> Json {
        let better = match self.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        Json::Obj(vec![
            ("value".into(), Json::Num(self.value)),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("better".into(), Json::Str(better.into())),
        ])
    }

    fn from_json(key: &str, v: &Json) -> Result<Metric, String> {
        let value = v
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric `{key}`: missing numeric `value`"))?;
        let unit = v
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let better = match v.get("better").and_then(Json::as_str) {
            Some("higher") => Better::Higher,
            Some("lower") | None => Better::Lower,
            Some(other) => return Err(format!("metric `{key}`: bad `better` value `{other}`")),
        };
        Ok(Metric {
            value,
            unit,
            better,
        })
    }
}

impl BenchReport {
    /// Serialise to the `BENCH.json` text form.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, m)| (k.clone(), m.to_json()))
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .pretty()
    }

    /// Parse the `BENCH.json` text form.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing `schema_version`")?;
        let git_rev = v
            .get("git_rev")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut metrics = Rows::new();
        for (k, m) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing `metrics` object")?
        {
            metrics.insert(k.clone(), Metric::from_json(k, m)?);
        }
        Ok(BenchReport {
            schema_version,
            git_rev,
            metrics,
        })
    }
}

// ---- comparison ----------------------------------------------------------

/// Classification of one metric's delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Within tolerance.
    Ok,
    /// Better than baseline beyond tolerance.
    Improved,
    /// Worse than baseline beyond tolerance — gates CI.
    Regressed,
    /// Present in the baseline but not in the new report — gates CI.
    MissingInNew,
    /// Only in the new report (informational).
    New,
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Metric key.
    pub metric: String,
    /// Baseline value, if present.
    pub base: Option<f64>,
    /// New value, if present.
    pub new: Option<f64>,
    /// Signed delta in percent (positive = value went up).
    pub delta_pct: Option<f64>,
    /// The tolerance applied to this row.
    pub tolerance_pct: f64,
    /// Display unit.
    pub unit: String,
    /// Verdict.
    pub status: RowStatus,
}

/// The full delta table.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// One row per metric, baseline order then new-only metrics.
    pub rows: Vec<CompareRow>,
}

impl CompareReport {
    /// Gating failures: regressions plus metrics that vanished.
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r.status, RowStatus::Regressed | RowStatus::MissingInNew))
            .count()
    }

    fn status_str(status: RowStatus) -> &'static str {
        match status {
            RowStatus::Ok => "ok",
            RowStatus::Improved => "improved",
            RowStatus::Regressed => "REGRESSED",
            RowStatus::MissingInNew => "MISSING",
            RowStatus::New => "new",
        }
    }

    fn fmt_value(v: Option<f64>) -> String {
        match v {
            None => "-".to_string(),
            Some(v) if v.abs() < f64::EPSILON => "0".to_string(),
            Some(v) if v.abs() >= 1e6 => format!("{v:.3e}"),
            Some(v) if v.abs() < 0.01 => format!("{v:.2e}"),
            Some(v) => format!("{v:.3}"),
        }
    }

    fn fmt_delta(d: Option<f64>) -> String {
        match d {
            None => "-".to_string(),
            Some(d) => format!("{d:+.1}%"),
        }
    }

    /// Plain-text delta table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        writeln!(
            out,
            "{:<width$} {:>12} {:>12} {:>9} {:>7} {:>10}",
            "metric", "baseline", "new", "delta", "tol", "status"
        )
        .unwrap();
        for r in &self.rows {
            writeln!(
                out,
                "{:<width$} {:>12} {:>12} {:>9} {:>6}% {:>10}",
                r.metric,
                Self::fmt_value(r.base),
                Self::fmt_value(r.new),
                Self::fmt_delta(r.delta_pct),
                r.tolerance_pct,
                Self::status_str(r.status),
            )
            .unwrap();
        }
        let n = self.regressions();
        writeln!(
            out,
            "\n{} metric(s) compared, {} regression(s)",
            self.rows.len(),
            n
        )
        .unwrap();
        out
    }

    /// GitHub-flavoured markdown delta table (for the CI job summary).
    pub fn render_markdown(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "| metric | baseline | new | delta | tol | status |").unwrap();
        writeln!(out, "|---|---:|---:|---:|---:|---|").unwrap();
        for r in &self.rows {
            writeln!(
                out,
                "| `{}` | {} | {} | {} | {}% | {} |",
                r.metric,
                Self::fmt_value(r.base),
                Self::fmt_value(r.new),
                Self::fmt_delta(r.delta_pct),
                r.tolerance_pct,
                Self::status_str(r.status),
            )
            .unwrap();
        }
        let n = self.regressions();
        writeln!(
            out,
            "\n**{} metric(s) compared, {} regression(s)**",
            self.rows.len(),
            n
        )
        .unwrap();
        out
    }
}

/// Diff `new` against `base`, allowing each row `tolerance_pct` percent of
/// degradation. Errors (rather than producing a table) on a
/// schema-version mismatch — that comparison is meaningless and almost
/// always means the baseline needs refreshing.
pub fn compare(
    base: &BenchReport,
    new: &BenchReport,
    tolerance_pct: f64,
) -> Result<CompareReport, String> {
    if base.schema_version != new.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{} vs new v{} — refresh the baseline \
             (see DESIGN.md, `repro bench`)",
            base.schema_version, new.schema_version
        ));
    }
    if base.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema version v{} not supported by this tool (expects v{SCHEMA_VERSION})",
            base.schema_version
        ));
    }

    let mut rows = Vec::new();
    for (key, b) in &base.metrics {
        let n = new.metrics.get(key);
        rows.push(CompareRow {
            metric: key.clone(),
            base: Some(b.value),
            new: n.map(|n| n.value),
            delta_pct: n.map(|n| delta_pct(b.value, n.value)),
            tolerance_pct: if n.is_some() { tolerance_pct } else { 0.0 },
            unit: b.unit.clone(),
            status: match n {
                None => RowStatus::MissingInNew,
                Some(n) => classify(b, n.value, tolerance_pct),
            },
        });
    }
    for (key, n) in &new.metrics {
        if !base.metrics.contains_key(key) {
            rows.push(CompareRow {
                metric: key.clone(),
                base: None,
                new: Some(n.value),
                delta_pct: None,
                tolerance_pct: 0.0,
                unit: n.unit.clone(),
                status: RowStatus::New,
            });
        }
    }
    Ok(CompareReport { rows })
}

/// Signed change from `base` to `new` in percent.
fn delta_pct(base: f64, new: f64) -> f64 {
    if base != 0.0 {
        (new - base) / base.abs() * 100.0
    } else if new == 0.0 {
        0.0
    } else {
        // From zero, any change is "infinitely" large; report ±1000% so
        // the sign still reads.
        1000.0 * new.signum()
    }
}

fn classify(base: &Metric, new: f64, tolerance_pct: f64) -> RowStatus {
    // Positive "worseness" = degradation. Higher-is-better metrics
    // compare as a ratio: dropping to 1/k of the baseline reads as a
    // (k-1)·100% degradation, symmetric with a lower-is-better metric
    // growing k×. Negating the plain delta would cap degradations at
    // 100% (values are non-negative), so no tolerance of 100 or more
    // could ever fire on a collapse.
    let worse_pct = match base.better {
        Better::Lower => delta_pct(base.value, new),
        Better::Higher if base.value > 0.0 && new > 0.0 => (base.value / new - 1.0) * 100.0,
        // Collapsed to zero: unboundedly worse.
        Better::Higher if base.value > 0.0 => f64::INFINITY,
        Better::Higher => -delta_pct(base.value, new),
    };
    if worse_pct > tolerance_pct {
        RowStatus::Regressed
    } else if worse_pct < -tolerance_pct {
        RowStatus::Improved
    } else {
        RowStatus::Ok
    }
}
