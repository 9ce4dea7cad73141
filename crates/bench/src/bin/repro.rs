//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
#![doc = include_str!("repro_usage.txt")]
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use shmls_baselines::EvalContext;
use shmls_bench::{
    ablation, cycles, cycles_at_paper_size, dse, evaluate_all, figure4, figure5, figure6,
    ii_report, table1, table2,
};
use shmls_conformance::harness::Fault;
use shmls_conformance::{check_names, run_fuzz, FuzzOptions};
use shmls_kernels::catalogue::{self, Kernel, CATALOGUE, HEAT3D, PW_ADVECTION, TRACER_ADVECTION};
use shmls_kernels::{pw_advection, tracer_advection, Grid3};
use shmls_serve::loadgen::{LoadgenConfig, LoadgenReport};
use shmls_serve::router::{start_router, RouterConfig, RouterHandle};
use shmls_serve::server::{serve, ServerConfig};
use shmls_serve::shard::{ShardSet, ShardSetConfig};
use stencil_hmls::cli::{because, exit_code, one_of, within, Failure, Flags};
use stencil_hmls::engine::{self, Engine};
use stencil_hmls::scale::MultiCuReport;

/// What the module doc, an unknown command and `repro help` all show.
const USAGE: &str = include_str!("repro_usage.txt");

/// The address `serve` and `route` bind unless told otherwise (`loadgen`
/// aims at the same one).
const DEFAULT_ADDR: &str = "127.0.0.1:7456";

const POSITIVE: &str = "a positive integer";
const COUNT: &str = "a non-negative integer";

type Section = fn(&EvalContext) -> String;

/// The report sections by command name, in the order `all` prints them.
const SECTIONS: [(&str, Section); 10] = [
    ("figure4", figure4),
    ("figure5", figure5),
    ("figure6", figure6),
    ("table1", table1),
    ("table2", table2),
    ("ablation", ablation),
    ("dse", dse),
    ("cycles", cycles),
    ("ii", ii_report),
    ("validate", validate),
];

/// Functional validation: the shipped kernels on the dataflow engines
/// against their hand-written goldens.
fn validate(_: &EvalContext) -> String {
    use stencil_hmls::engine::Threaded;
    use stencil_hmls::runner::{run_hls, run_stencil};
    use stencil_hmls::{compile, CompileOptions};

    let check = |ok: bool| if ok { "PASS" } else { "FAIL" };
    let mut out = String::from(
        "Functional validation (tiny grids, full dataflow execution)\n\
         ============================================================\n",
    );
    // PW advection.
    {
        let n = [10, 8, 6];
        let compiled = compile(&PW_ADVECTION.source(n), &CompileOptions::default())
            .expect("benchmark kernel must compile");
        let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 1);
        let (su, _, _) = pw_advection::golden(&inputs);
        let data = inputs.data();
        let runs = "benchmark kernel must run";
        let stencil_out = run_stencil(&compiled, &data).expect(runs);
        let (hls_out, (streams, pushed, beats)) = run_hls(&compiled, &data).expect(runs);
        let diff = Grid3::from_buffer(&hls_out["su"]).max_diff(&su);
        out += &format!(
            "  PW advection {n:?}: stencil==golden: {}, dataflow==golden: {} \
             (max |diff| = {diff:.2e})\n",
            check(Grid3::from_buffer(&stencil_out["su"]).max_diff(&su) < 1e-12),
            check(diff < 1e-12),
        );
        out += &format!(
            "    sequential engine: {streams} streams, {pushed} elements, {beats} mem beats\n"
        );
        match Threaded.sweep(&compiled, &data, 1) {
            Ok(_) => out.push_str("    threaded engine (bounded FIFOs): PASS\n"),
            Err(e) => out += &format!("    threaded engine (bounded FIFOs): FAIL\n{e}\n"),
        }
    }
    // Tracer advection.
    {
        let n = [8, 7, 6];
        let compiled = compile(&TRACER_ADVECTION.source(n), &CompileOptions::default())
            .expect("benchmark kernel must compile");
        let inputs = tracer_advection::TracerInputs::random(n[0], n[1], n[2], 2);
        let golden = tracer_advection::golden(&inputs);
        let (hls_out, _) = run_hls(&compiled, &inputs.data()).expect("benchmark kernel must run");
        let diff = Grid3::from_buffer(&hls_out["mydomain"]).max_diff(&golden.mydomain);
        out += &format!(
            "  tracer advection {n:?}: dataflow==golden: {} (max |diff| = {diff:.2e})\n",
            check(diff < 1e-12)
        );
    }
    out
}

/// Block forever: `serve` and `route` run until killed.
fn park() -> ! {
    loop {
        std::thread::park();
    }
}

fn parse_serve(argv: &[String]) -> Result<ServerConfig, Failure> {
    let mut f = Flags::new(argv);
    let mut config = ServerConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..Default::default()
    };
    f.set(&mut config.addr, "--addr", "host:port", within(..))?;
    config.cache_dir = f.value("--cache-dir", "a directory", within(..))?;
    f.set(&mut config.workers, "--workers", POSITIVE, within(1..))?;
    f.set(&mut config.capacity, "--capacity", POSITIVE, within(1..))?;
    f.finish()?;
    Ok(config)
}

fn serve_cmd(config: ServerConfig, out: &mut dyn Write) -> Result<(), Failure> {
    let handle =
        serve(config.clone()).map_err(because(format!("cannot bind `{}`", config.addr)))?;
    writeln!(out, "shmls-serve listening on {}", handle.local_addr())?;
    match &config.cache_dir {
        Some(dir) => writeln!(out, "  cache dir: {}", dir.display())?,
        None => writeln!(out, "  cache: in-memory only (cold on every start)")?,
    }
    // The banner must reach a piped supervisor before this process
    // blocks forever (CI polls the log for the listening line).
    out.flush()?;
    park()
}

/// What `repro route` was asked for. The chaos flags are the CI
/// fault-injection hooks: once the router has relayed `AFTER` responses,
/// the named shard (`busiest` picks the one that has served the most
/// traffic, so the victim provably owns keys) is killed; `chaos_restart`
/// brings it back at a later threshold.
#[derive(Debug)]
struct RouteArgs {
    addr: String,
    set: ShardSetConfig,
    chaos_kill: Option<(String, u64)>,
    chaos_restart: Option<u64>,
}

fn parse_route(argv: &[String]) -> Result<RouteArgs, Failure> {
    let mut f = Flags::new(argv);
    let who_after = |v: &str| {
        let (who, after) = v.split_once(':')?;
        Some((who.to_string(), after.parse().ok()?))
    };
    let mut args = RouteArgs {
        addr: DEFAULT_ADDR.to_string(),
        set: ShardSetConfig::default(),
        chaos_kill: f.value("--chaos-kill", "WHO:AFTER (e.g. busiest:20)", who_after)?,
        chaos_restart: f.value("--chaos-restart", "a response count", within(..))?,
    };
    f.set(&mut args.addr, "--addr", "host:port", within(..))?;
    args.set.cache_dir = f.value("--cache-dir", "a directory", within(..))?;
    f.set(&mut args.set.shards, "--shards", POSITIVE, within(1..))?;
    f.set(
        &mut args.set.workers_per_shard,
        "--workers",
        POSITIVE,
        within(1..),
    )?;
    f.set(&mut args.set.capacity, "--capacity", POSITIVE, within(1..))?;
    f.finish()?;
    match (&args.chaos_kill, args.chaos_restart) {
        (None, Some(_)) => Err(Failure::usage(
            "`--chaos-restart` needs `--chaos-kill`: there is no shard to bring back",
        )),
        (Some((_, kill_after)), Some(restart_after)) if restart_after <= *kill_after => Err(
            Failure::usage("`--chaos-restart` must fire after `--chaos-kill`"),
        ),
        _ => Ok(args),
    }
}

/// Runs N compile shards in-process behind the consistent-hash router.
/// Both chaos events are logged on stdout for the CI job to grep.
fn route_cmd(args: RouteArgs, out: &mut dyn Write) -> Result<(), Failure> {
    let shards = ShardSet::start(args.set.clone()).map_err(because("cannot start shards"))?;
    let config = RouterConfig {
        addr: args.addr.clone(),
        ..Default::default()
    };
    let router = start_router(config, shards.topology())
        .map_err(because(format!("cannot bind `{}`", args.addr)))?;
    writeln!(
        out,
        "shmls-route listening on {} ({} shards)",
        router.local_addr(),
        args.set.shards
    )?;
    for slot in shards.topology().snapshot() {
        let addr = slot.addr.as_deref().unwrap_or("<unbound>");
        writeln!(out, "  shard {} on {addr}", slot.id)?;
    }
    match &args.set.cache_dir {
        Some(dir) => writeln!(out, "  shared cache dir: {}", dir.display())?,
        None => writeln!(out, "  cache: per-shard memory only (no shared disk tier)")?,
    }
    // The banner must reach a piped supervisor before this process
    // blocks (CI polls the log for the listening line).
    out.flush()?;
    if let Some((who, kill_after)) = &args.chaos_kill {
        chaos(who, *kill_after, args.chaos_restart, &shards, &router, out)?;
    }
    park()
}

/// Kill shard `who` once the router has relayed `kill_after` responses,
/// and restart it at `restart_after` if asked.
fn chaos(
    who: &str,
    kill_after: u64,
    restart_after: Option<u64>,
    shards: &ShardSet,
    router: &RouterHandle,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let wait_for = |count: u64| {
        while router.forwarded() < count {
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    wait_for(kill_after);
    let victim = if who == "busiest" {
        let report = router.report();
        let live = report.shards.iter().filter(|s| s.alive);
        live.max_by_key(|s| s.traffic.counts.requests).map(|s| s.id)
    } else {
        who.parse::<usize>().ok()
    };
    let victim = victim
        .ok_or_else(|| Failure::failed(format!("`--chaos-kill {who}` names no live shard")))?;
    if !shards.kill(victim) {
        return Err(Failure::failed(format!(
            "chaos kill: shard {victim} was not alive"
        )));
    }
    let forwarded = router.forwarded();
    writeln!(
        out,
        "chaos: killed shard {victim} after {forwarded} responses"
    )?;
    out.flush()?;
    if let Some(restart_after) = restart_after {
        wait_for(restart_after);
        if !shards
            .restart(victim)
            .map_err(because("chaos restart failed"))?
        {
            return Err(Failure::failed(format!(
                "chaos restart: shard {victim} was not dead"
            )));
        }
        let forwarded = router.forwarded();
        writeln!(
            out,
            "chaos: restarted shard {victim} after {forwarded} responses"
        )?;
        out.flush()?;
    }
    Ok(())
}

fn parse_loadgen(argv: &[String]) -> Result<(LoadgenConfig, Option<String>), Failure> {
    const RATE: &str = "a rate in [0, 1]";
    let mut f = Flags::new(argv);
    let mut c = LoadgenConfig::default();
    f.set(&mut c.addr, "--addr", "host:port", within(..))?;
    f.set(&mut c.clients, "--clients", POSITIVE, within(1..))?;
    f.set(&mut c.requests, "--requests", POSITIVE, within(1..))?;
    f.set(&mut c.unique_keys, "--unique-keys", POSITIVE, within(1..))?;
    f.set(
        &mut c.min_warm_hit_rate,
        "--min-warm-hit-rate",
        RATE,
        within(0.0..=1.0),
    )?;
    f.set(
        &mut c.min_cold_hit_rate,
        "--min-cold-hit-rate",
        RATE,
        within(0.0..=1.0),
    )?;
    f.set(
        &mut c.min_warm_disk_hits,
        "--min-warm-disk-hits",
        COUNT,
        within(..),
    )?;
    let out_path = f.value("--out", "a path", within(..))?;
    c.router = f.switch("--router");
    f.finish()?;
    Ok((c, out_path))
}

fn loadgen_cmd(
    (config, out_path): (LoadgenConfig, Option<String>),
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let report = shmls_serve::loadgen::run(&config)
        .map_err(because(format!("cannot reach `{}`", config.addr)))?;
    writeln!(
        out,
        "loadgen against {}: {} clients, {} requests/phase, {} unique keys",
        config.addr, config.clients, config.requests, config.unique_keys
    )?;
    out.write_all(render_loadgen(&report).as_bytes())?;
    if let Some(path) = out_path {
        std::fs::write(&path, report.to_json().pretty())
            .map_err(because(format!("cannot write `{path}`")))?;
        writeln!(out, "wrote {path}")?;
    }
    if !report.passed() {
        for failure in &report.gate_failures {
            writeln!(out, "  GATE FAIL: {failure}")?;
        }
        return Err(Failure::failed("gate failed"));
    }
    writeln!(out, "loadgen gate: PASS")?;
    Ok(())
}

/// The per-phase lines and, for a routed run, the per-shard table.
fn render_loadgen(report: &LoadgenReport) -> String {
    let mut out = String::new();
    for (name, phase) in [("cold", &report.cold), ("warm", &report.warm)] {
        let counts = &phase.counts;
        out += &format!(
            "  {name}: {} ok / {} requests, {} miss {} hit {} disk-hit {} coalesced, \
             hit rate {:.3}, {:.1} req/s ({:.1} compiles/s), p50 {:.3} ms, p99 {:.3} ms\n",
            counts.requests - counts.errors,
            counts.requests,
            counts.misses,
            counts.memory_hits,
            counts.disk_hits,
            counts.coalesced,
            counts.hit_rate(),
            phase.requests_per_s(),
            phase.compiles_per_s(),
            phase.p50_us as f64 / 1e3,
            phase.p99_us as f64 / 1e3,
        );
    }
    let Some(router) = &report.router else {
        return out;
    };
    out += &format!(
        "  router: {} forwarded, {} replays, {} unroutable, {} frontend runs, {} shard deaths\n",
        router.forwarded,
        router.replays,
        router.unroutable,
        router.frontend_runs,
        router.deaths()
    );
    for shard in &router.shards {
        let t = &shard.traffic.counts;
        out += &format!(
            "    shard {} [{}]: {} req, {} miss {} hit {} disk-hit {} coalesced, \
             {} errors, {} replays, {} deaths\n",
            shard.id,
            if shard.alive { "alive" } else { "dead" },
            t.requests,
            t.misses,
            t.memory_hits,
            t.disk_hits,
            t.coalesced,
            t.errors,
            shard.traffic.replays,
            shard.deaths,
        );
    }
    out
}

fn parse_bench(argv: &[String]) -> Result<String, Failure> {
    let mut f = Flags::new(argv);
    let out_path = f.value("--out", "a path", within(..))?;
    f.finish()?;
    Ok(out_path.unwrap_or_else(|| "BENCH.json".to_string()))
}

fn bench_cmd(out_path: String, out: &mut dyn Write) -> Result<(), Failure> {
    let report = shmls_bench::telemetry::run_bench().map_err(Failure::failed)?;
    std::fs::write(&out_path, report.to_json())
        .map_err(because(format!("cannot write `{out_path}`")))?;
    writeln!(out, "Benchmark (rev {})", report.git_rev)?;
    let width = report.metrics.keys().map(String::len).max().unwrap_or(6);
    for (key, m) in &report.metrics {
        writeln!(out, "  {key:<width$} {:>14.3} {}", m.value, m.unit)?;
    }
    writeln!(out, "wrote {out_path} ({} metrics)", report.metrics.len())?;
    Ok(())
}

#[derive(Debug, PartialEq)]
struct CompareArgs {
    base: String,
    new: String,
    tolerance_pct: f64,
    markdown: bool,
}

fn parse_compare(argv: &[String]) -> Result<CompareArgs, Failure> {
    let mut f = Flags::new(argv);
    let tolerance = f.value("--tolerance", "a non-negative number", within(0.0..))?;
    let markdown = f.switch("--markdown");
    let (Some(base), Some(new)) = (f.positional(), f.positional()) else {
        return Err(Failure::usage("needs <baseline.json> and <new.json>"));
    };
    f.finish()?;
    Ok(CompareArgs {
        base,
        new,
        tolerance_pct: tolerance.unwrap_or(2.0),
        markdown,
    })
}

fn compare_cmd(args: CompareArgs, out: &mut dyn Write) -> Result<(), Failure> {
    use shmls_bench::telemetry::{compare, BenchReport};
    let load = |path: &str| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Failure::usage(format!("cannot read `{path}`: {e}")))?;
        BenchReport::from_json(&text).map_err(|e| Failure::usage(format!("`{path}`: {e}")))
    };
    let report = compare(&load(&args.base)?, &load(&args.new)?, args.tolerance_pct)
        .map_err(Failure::usage)?;
    let table = if args.markdown {
        report.render_markdown()
    } else {
        report.render_text()
    };
    out.write_all(table.as_bytes())?;
    if report.regressions() > 0 {
        return Err(Failure::failed(format!(
            "{} regression(s)",
            report.regressions()
        )));
    }
    Ok(())
}

fn parse_fuzz(argv: &[String]) -> Result<FuzzOptions, Failure> {
    let mut f = Flags::new(argv);
    let mut opts = FuzzOptions::default();
    f.set(&mut opts.cases, "--cases", COUNT, within(..))?;
    f.set(&mut opts.seed, "--seed", COUNT, within(..))?;
    f.set(&mut opts.check.max_ulps, "--ulp", COUNT, within(..))?;
    f.set(&mut opts.max_failures, "--max-failures", COUNT, within(..))?;
    f.set(
        &mut opts.shrink_budget,
        "--shrink-budget",
        COUNT,
        within(..),
    )?;
    let engines = f.values("--engine", &one_of(check_names()), |name| {
        check_names().find(|check| *check == name)
    })?;
    if !engines.is_empty() {
        opts.check.engines = engines;
    }
    let names = one_of(Fault::ALL.iter().map(Fault::name));
    opts.check.inject = f.value("--inject", &names, Fault::parse)?;
    opts.corpus_dir = f.value("--corpus", "a directory", within(..))?;
    opts.scale = !f.switch("--no-scale");
    f.finish()?;
    Ok(opts)
}

fn fuzz_cmd(opts: FuzzOptions, out: &mut dyn Write) -> Result<(), Failure> {
    let injecting = opts.check.inject.map(|f| format!(", injecting {f}"));
    writeln!(
        out,
        "fuzzing {} cases, seed {}, engines [{}]{}",
        opts.cases,
        opts.seed,
        opts.check.engines.join(", "),
        injecting.unwrap_or_default()
    )?;
    let mut written = Ok(());
    let summary = run_fuzz(&opts, &mut |line| {
        if written.is_ok() {
            written = writeln!(out, "  {line}");
        }
    });
    written?;
    let injected = opts
        .check
        .inject
        .map(|_| format!(", fault injected in {} case(s)", summary.injected));
    writeln!(
        out,
        "checked {} cases (digest {:016x}): {} failure(s){}",
        summary.cases,
        summary.digest,
        summary.failures.len(),
        injected.unwrap_or_default()
    )?;
    if !summary.clean() {
        return Err(Failure::failed("the engines disagree"));
    }
    Ok(())
}

/// The `--kernel` flag: a catalogue row by name.
fn kernel_flag(f: &mut Flags, default: &'static Kernel) -> Result<&'static Kernel, Failure> {
    let names = one_of(CATALOGUE.map(|k| k.name));
    Ok(f.value("--kernel", &names, catalogue::by_name)?
        .unwrap_or(default))
}

#[derive(Debug)]
struct RunArgs {
    kernel: &'static Kernel,
    grid: [i64; 3],
    cus: usize,
    steps: usize,
    depth: usize,
    engine: &'static dyn Engine,
    serial: bool,
    check_parallel: bool,
}

fn parse_run(argv: &[String]) -> Result<RunArgs, Failure> {
    let mut f = Flags::new(argv);
    let grid = |v: &str| {
        let sizes: Option<Vec<i64>> = v.split(',').map(|p| p.trim().parse().ok()).collect();
        <[i64; 3]>::try_from(sizes?)
            .ok()
            .filter(|g| g.iter().all(|&n| n > 0))
    };
    let mut args = RunArgs {
        kernel: kernel_flag(&mut f, &PW_ADVECTION)?,
        grid: [16, 14, 10],
        cus: 4,
        steps: 1,
        depth: 1,
        engine: &engine::VECTOR,
        serial: false,
        check_parallel: false,
    };
    let engines = one_of(engine::NAMED.map(|e| e.name()));
    f.set(&mut args.engine, "--engine", &engines, engine::by_name)?;
    f.set(
        &mut args.grid,
        "--grid",
        "three positive sizes, e.g. 16,14,10",
        grid,
    )?;
    f.set(&mut args.cus, "--cus", COUNT, within(..))?;
    f.set(&mut args.steps, "--steps", COUNT, within(..))?;
    // 0 passes through so the march's structured error surfaces instead
    // of an argv error.
    f.set(&mut args.depth, "--depth", COUNT, within(..))?;
    args.serial = f.switch("--serial");
    args.check_parallel = f.switch("--check-parallel");
    f.finish()?;
    Ok(args)
}

fn run_cmd(args: RunArgs, out: &mut dyn Write) -> Result<(), Failure> {
    use stencil_hmls::cache::CompileCache;
    use stencil_hmls::scale::{run_time_marched_with, MarchOptions};

    let kname = args.kernel.name;
    let kernel = shmls_frontend::parse_kernel(&args.kernel.source(args.grid))
        .map_err(because(format!("parsing {kname}")))?;
    check_fields_fit(&kernel, args.grid)?;
    let data = args.kernel.data(args.grid);
    let mut opts = stencil_hmls::CompileOptions::default();
    opts.hmls.temporal_depth = args.depth;
    let cache = CompileCache::new();
    let march = |serial: bool| -> Result<MultiCuReport, Failure> {
        let options = MarchOptions {
            serial,
            cache: Some(&cache),
            engine: Some(args.engine),
            ..Default::default()
        };
        run_time_marched_with(&kernel, &data, args.steps, args.cus, &opts, &options)
            .map(|(_, report)| report)
            .map_err(|e| Failure::failed(e.to_string()))
    };

    let report = march(args.serial)?;
    let lanes = (report.engine == engine::VECTOR.name()).then(shmls_ir::bytecode::host_lanes);
    writeln!(
        out,
        "{kname} {:?}: {} step(s) over {} compute unit(s) at temporal depth {} \
         on the {} engine ({}{})",
        args.grid,
        report.steps,
        report.cus,
        report.temporal_depth,
        report.engine,
        lanes.map(|l| format!("{l} lanes, ")).unwrap_or_default(),
        if args.serial { "serial" } else { "parallel" }
    )?;
    out.write_all(render_march(&report).as_bytes())?;
    if args.check_parallel {
        check_parallel(march, out)?;
    }
    Ok(())
}

/// Refuse a `--grid` whose padded fields cannot be allocated, before any
/// is built: their bytes in checked 64-bit arithmetic, then one reservation
/// of that many, released at once.
fn check_fields_fit(kernel: &shmls_frontend::KernelDef, grid: [i64; 3]) -> Result<(), Failure> {
    let fields = kernel.external_fields().len();
    let bytes = grid.iter().try_fold(8 * fields as i64, |bytes, &n| {
        bytes.checked_mul(n.checked_add(kernel.halo.checked_mul(2)?)?)
    });
    let flag = format!("`--grid {},{},{}`", grid[0], grid[1], grid[2]);
    let Some(bytes) = bytes else {
        return Err(Failure::usage(format!(
            "{flag}: the bytes of its {fields} padded fields overflow 64 bits"
        )));
    };
    let reserved = usize::try_from(bytes)
        .ok()
        .is_some_and(|b| Vec::<u8>::new().try_reserve_exact(b).is_ok());
    if !reserved {
        return Err(Failure::usage(format!(
            "{flag}: cannot allocate the {bytes} bytes of its {fields} padded fields"
        )));
    }
    Ok(())
}

/// The per-CU table, the totals and, past depth 1, the per-round table.
fn render_march(report: &MultiCuReport) -> String {
    let ms = |wall: Duration| wall.as_secs_f64() * 1e3;
    let mut out = String::new();
    // Stream and beat counts exist only where an engine executed streams.
    let streamed = report.per_cu.iter().all(|cu| cu.stream.is_some());
    out += &format!("  {:>3} {:>12} {:>10}", "cu", "rows", "elems");
    if streamed {
        let (s, e, b) = ("streams", "stream-elems", "mem-beats");
        out += &format!(" {s:>8} {e:>12} {b:>10}");
    }
    out += &format!(" {:>12} {:>10}\n", "model-cyc", "wall-ms");
    for cu in &report.per_cu {
        let rows = format!("[{}, {})", cu.rows.0, cu.rows.1);
        out += &format!("  {:>3} {rows:>12} {:>10}", cu.cu, cu.interior_elems);
        if let Some((streams, pushed, beats)) = cu.stream.filter(|_| streamed) {
            out += &format!(" {streams:>8} {pushed:>12} {beats:>10}");
        }
        out += &format!(" {:>12} {:>10.3}\n", cu.model_cycles, ms(cu.wall));
    }
    out += &format!(
        "  wall {:.3} ms, {:.3e} elems/s, load imbalance {:.3}, \
         model makespan {} cycles (imbalance {:.3})\n",
        ms(report.wall),
        report.elems_per_s,
        report.load_imbalance,
        report.model.makespan_cycles,
        report.model.load_imbalance,
    );
    out += &format!(
        "  compile cache: {} hit(s), {} miss(es) (hit rate {:.2})\n",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate()
    );
    if report.temporal_depth > 1 {
        out += &format!(
            "  temporal blocking: {} external pass(es) instead of {} (model passes {})\n",
            report.rounds.len(),
            report.steps,
            report.model_passes,
        );
        out += &format!(
            "  {:>5} {:>6} {:>10} {:>12} {:>12} {:>10}\n",
            "round", "depth", "cache-hit", "cache-miss", "overlap-rows", "wall-ms"
        );
        for r in &report.rounds {
            out += &format!(
                "  {:>5} {:>6} {:>10} {:>12} {:>12} {:>10.3}\n",
                r.round,
                r.depth,
                r.cache_hits,
                r.cache_misses,
                r.overlap_rows,
                ms(r.wall),
            );
        }
    }
    out
}

/// Best-of-3 each way: the cache is warm after the first run, so this
/// measures execution, not compilation. On a multi-core host parallel
/// must be no slower than serial, to within the 10% two timings of the
/// same work differ by (the march sweeps slabs too small to be worth a
/// thread on the calling thread in both modes); on a single core a
/// speedup is physically impossible, so only bound the threading overhead
/// instead (1.5× serial).
fn check_parallel(
    march: impl Fn(bool) -> Result<MultiCuReport, Failure>,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let best = |serial: bool| -> Result<Duration, Failure> {
        let mut best = march(serial)?.wall;
        for _ in 1..3 {
            best = best.min(march(serial)?.wall);
        }
        Ok(best)
    };
    let (serial_wall, parallel_wall) = (best(true)?, best(false)?);
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (limit, rule) = if cpus >= 2 {
        (serial_wall * 11 / 10, "parallel <= 1.1x serial")
    } else {
        (serial_wall * 3 / 2, "single core: parallel <= 1.5x serial")
    };
    writeln!(
        out,
        "  check-parallel: serial {:.3} ms, parallel {:.3} ms, speedup {speedup:.2}x ({rule})",
        serial_wall.as_secs_f64() * 1e3,
        parallel_wall.as_secs_f64() * 1e3,
    )?;
    if parallel_wall > limit {
        return Err(Failure::failed(format!(
            "parallel execution violated `{rule}`"
        )));
    }
    Ok(())
}

#[derive(Debug)]
struct TuneArgs {
    kernel: &'static Kernel,
    quick: bool,
    json: bool,
}

fn parse_tune(argv: &[String]) -> Result<TuneArgs, Failure> {
    let mut f = Flags::new(argv);
    let args = TuneArgs {
        kernel: kernel_flag(&mut f, &HEAT3D)?,
        quick: f.switch("--quick"),
        json: f.switch("--json"),
    };
    f.finish()?;
    Ok(args)
}

fn tune_cmd(args: TuneArgs, out: &mut dyn Write) -> Result<(), Failure> {
    use stencil_hmls::autotune::{self, TuneOptions};
    // Quick mode trims both the grid and the sweep axes; the full grid
    // matches the paper-scale `repro run` default.
    let (grid, opts) = if args.quick {
        ([12, 10, 8], TuneOptions::quick())
    } else {
        ([16, 14, 10], TuneOptions::full())
    };
    let kernel = shmls_frontend::parse_kernel(&args.kernel.source(grid))
        .map_err(because(format!("parsing {}", args.kernel.name)))?;
    let cache = stencil_hmls::cache::CompileCache::new();
    let report =
        autotune::tune(&kernel, &opts, &cache).map_err(|e| Failure::failed(e.to_string()))?;
    let text = if args.json {
        report.to_json().pretty()
    } else {
        autotune::render(&report)
    };
    out.write_all(text.as_bytes())?;
    if report.frontier.is_empty() {
        return Err(Failure::failed(
            "no feasible design on this device (empty Pareto frontier)",
        ));
    }
    Ok(())
}

fn json_cmd(argv: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut f = Flags::new(argv);
    let path = f.positional().unwrap_or_else(|| "results.json".to_string());
    f.finish()?;
    let results = evaluate_all(&EvalContext::default());
    std::fs::write(&path, results.to_json().pretty())
        .map_err(because(format!("cannot write `{path}`")))?;
    writeln!(out, "wrote {path}")?;
    Ok(())
}

fn dispatch(cmd: &str, argv: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    match cmd {
        "bench" => bench_cmd(parse_bench(argv)?, out),
        "compare" => compare_cmd(parse_compare(argv)?, out),
        "fuzz" => fuzz_cmd(parse_fuzz(argv)?, out),
        "run" => run_cmd(parse_run(argv)?, out),
        "tune" => tune_cmd(parse_tune(argv)?, out),
        "serve" => serve_cmd(parse_serve(argv)?, out),
        "route" => route_cmd(parse_route(argv)?, out),
        "loadgen" => loadgen_cmd(parse_loadgen(argv)?, out),
        "json" => json_cmd(argv, out),
        _ => {
            let section = SECTIONS.iter().find(|(name, _)| *name == cmd);
            if section.is_none() && cmd != "all" && cmd != "help" {
                return Err(Failure::usage(format!("unknown command\n{USAGE}")));
            }
            Flags::new(argv).finish()?;
            let eval = EvalContext::default();
            match (cmd, section) {
                ("cycles", _) => write!(out, "{}\n{}", cycles(&eval), cycles_at_paper_size())?,
                (_, Some((_, section))) => out.write_all(section(&eval).as_bytes())?,
                ("all", _) => {
                    for (_, section) in SECTIONS {
                        writeln!(out, "{}", section(&eval))?;
                    }
                }
                _ => out.write_all(USAGE.as_bytes())?,
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().map_or("all", String::as_str);
    let mut out = std::io::stdout().lock();
    let result =
        dispatch(cmd, argv.get(1..).unwrap_or_default(), &mut out).and_then(|()| Ok(out.flush()?));
    exit_code(&format!("repro {cmd}"), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_hmls::scale::{CuReport, RoundReport};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn serve_flags_land_in_the_server_config() {
        let config = parse_serve(&[]).unwrap();
        let d = ServerConfig::default();
        assert_eq!(config.addr, DEFAULT_ADDR);
        assert_eq!((config.workers, config.capacity), (d.workers, d.capacity));
        assert_eq!(config.cache_dir, None);
        let line = "--addr 0.0.0.0:9 --workers 3 --cache-dir /tmp/c --capacity 7";
        let config = parse_serve(&argv(line)).unwrap();
        assert_eq!(config.addr, "0.0.0.0:9");
        assert_eq!((config.workers, config.capacity), (3, 7));
        assert_eq!(config.cache_dir, Some("/tmp/c".into()));
    }

    #[test]
    fn route_flags_land_in_the_shard_set_and_the_chaos_plan() {
        let args = parse_route(&[]).unwrap();
        let d = ShardSetConfig::default();
        assert_eq!(args.addr, DEFAULT_ADDR);
        assert_eq!(args.set.shards, d.shards);
        assert_eq!(args.set.workers_per_shard, d.workers_per_shard);
        assert_eq!((args.chaos_kill, args.chaos_restart), (None, None));
        let line = "--shards 5 --addr h:1 --workers 2 --capacity 9 --cache-dir d \
                    --chaos-kill busiest:20 --chaos-restart 72";
        let args = parse_route(&argv(line)).unwrap();
        assert_eq!(args.addr, "h:1");
        assert_eq!(args.set.shards, 5);
        assert_eq!((args.set.workers_per_shard, args.set.capacity), (2, 9));
        assert_eq!(args.set.cache_dir, Some("d".into()));
        assert_eq!(args.chaos_kill, Some(("busiest".to_string(), 20)));
        assert_eq!(args.chaos_restart, Some(72));
        assert!(parse_route(&argv("--chaos-kill 1:5")).is_ok());
    }

    #[test]
    fn loadgen_flags_land_in_the_loadgen_config() {
        let (config, out_path) = parse_loadgen(&[]).unwrap();
        let d = LoadgenConfig::default();
        assert_eq!((config.addr, config.clients), (d.addr, d.clients));
        assert_eq!((config.router, out_path), (false, None));
        let line = "--addr h:2 --clients 3 --requests 40 --unique-keys 5 --router \
                    --min-warm-hit-rate 0.5 --min-cold-hit-rate 1 --min-warm-disk-hits 2 \
                    --out lg.json";
        let (config, out_path) = parse_loadgen(&argv(line)).unwrap();
        assert_eq!(config.addr, "h:2");
        assert_eq!(
            (config.clients, config.requests, config.unique_keys),
            (3, 40, 5)
        );
        assert_eq!(
            (config.min_warm_hit_rate, config.min_cold_hit_rate),
            (0.5, 1.0)
        );
        assert_eq!((config.min_warm_disk_hits, config.router), (2, true));
        assert_eq!(config.panic_client, None);
        assert_eq!(out_path.as_deref(), Some("lg.json"));
    }

    #[test]
    fn bench_and_compare_flags_land() {
        assert_eq!(parse_bench(&[]).unwrap(), "BENCH.json");
        assert_eq!(parse_bench(&argv("--out b.json")).unwrap(), "b.json");
        let expected = CompareArgs {
            base: "a.json".into(),
            new: "b.json".into(),
            tolerance_pct: 2.0,
            markdown: false,
        };
        assert_eq!(parse_compare(&argv("a.json b.json")).unwrap(), expected);
        let expected = CompareArgs {
            tolerance_pct: 0.0,
            markdown: true,
            ..expected
        };
        let line = "a.json --tolerance 0 b.json --markdown";
        assert_eq!(parse_compare(&argv(line)).unwrap(), expected);
    }

    #[test]
    fn fuzz_flags_land_in_the_fuzz_options() {
        let opts = parse_fuzz(&[]).unwrap();
        let d = FuzzOptions::default();
        assert_eq!((opts.cases, opts.seed, opts.scale), (d.cases, d.seed, true));
        assert_eq!(opts.check.engines, Vec::from_iter(check_names()));
        let line = "--cases 9 --seed 4 --engine cpu --ulp 2 --engine vector --inject op-swap \
                    --corpus out --max-failures 1 --shrink-budget 10 --no-scale";
        let opts = parse_fuzz(&argv(line)).unwrap();
        assert_eq!((opts.cases, opts.seed, opts.check.max_ulps), (9, 4, 2));
        assert_eq!(opts.check.engines, ["cpu", "vector"]);
        assert_eq!(opts.check.inject, Some(Fault::OpSwap));
        assert_eq!(opts.corpus_dir, Some("out".into()));
        assert_eq!((opts.max_failures, opts.shrink_budget), (1, 10));
        assert!(!opts.scale);
        // Every name either registry holds is accepted.
        for engine in check_names() {
            assert!(parse_fuzz(&argv(&format!("--engine {engine}"))).is_ok());
        }
        for fault in Fault::ALL {
            assert!(parse_fuzz(&argv(&format!("--inject {fault}"))).is_ok());
        }
    }

    #[test]
    fn run_and_tune_flags_land() {
        let args = parse_run(&[]).unwrap();
        assert_eq!(
            (args.kernel.name, args.grid),
            ("pw_advection", [16, 14, 10])
        );
        assert_eq!((args.cus, args.steps, args.depth), (4, 1, 1));
        assert_eq!(args.engine.name(), "vector");
        assert!(!args.serial && !args.check_parallel);
        let line = "--kernel heat3d --grid 8,7,6 --cus 2 --steps 5 --depth 0 \
                    --engine threaded --serial --check-parallel";
        let args = parse_run(&argv(line)).unwrap();
        assert_eq!((args.kernel.name, args.grid), ("heat3d", [8, 7, 6]));
        assert_eq!((args.cus, args.steps, args.depth), (2, 5, 0));
        assert_eq!(args.engine.name(), "threaded");
        assert!(args.serial && args.check_parallel);
        for engine in engine::NAMED {
            let line = format!("--engine {}", engine.name());
            assert_eq!(
                parse_run(&argv(&line)).unwrap().engine.name(),
                engine.name()
            );
        }

        let args = parse_tune(&[]).unwrap();
        assert_eq!(
            (args.kernel.name, args.quick, args.json),
            ("heat3d", false, false)
        );
        for kernel in CATALOGUE {
            let line = format!("--json --kernel {} --quick", kernel.name);
            let args = parse_tune(&argv(&line)).unwrap();
            assert_eq!(
                (args.kernel.name, args.quick, args.json),
                (kernel.name, true, true)
            );
        }
    }

    /// A command's refusal of `line`, whatever its config type.
    fn refusal(cmd: &str, line: &str) -> Failure {
        let argv = argv(line);
        let refused = match cmd {
            "serve" => parse_serve(&argv).err(),
            "route" => parse_route(&argv).err(),
            "loadgen" => parse_loadgen(&argv).err(),
            "bench" => parse_bench(&argv).err(),
            "compare" => parse_compare(&argv).err(),
            "fuzz" => parse_fuzz(&argv).err(),
            "run" => parse_run(&argv).err(),
            "tune" => parse_tune(&argv).err(),
            // The commands without a parser of their own go through `dispatch`.
            _ => dispatch(cmd, &argv, &mut Vec::new()).err(),
        };
        refused.unwrap_or_else(|| panic!("`repro {cmd} {line}` was accepted"))
    }

    /// Per command: a missing value, a malformed one, one out of range
    /// (where the flag has a range) and an unknown flag — `(command,
    /// arguments, what the message must name)`.
    const REFUSED: &[(&str, &str, &str)] = &[
        ("serve", "--addr", "`--addr` needs host:port"),
        (
            "serve",
            "--workers many",
            "`--workers` needs a positive integer",
        ),
        (
            "serve",
            "--capacity 0",
            "`--capacity` needs a positive integer",
        ),
        ("serve", "--cache-dir", "`--cache-dir` needs a directory"),
        ("serve", "--shards 2", "unknown flag `--shards`"),
        ("route", "--shards", "`--shards` needs"),
        ("route", "--shards 0", "`--shards` needs a positive integer"),
        ("route", "--workers -1", "`--workers` needs"),
        (
            "route",
            "--chaos-kill busiest",
            "`--chaos-kill` needs WHO:AFTER",
        ),
        (
            "route",
            "--chaos-kill busiest:soon",
            "`--chaos-kill` needs WHO:AFTER",
        ),
        (
            "route",
            "--chaos-restart",
            "`--chaos-restart` needs a response count",
        ),
        (
            "route",
            "--chaos-restart 5",
            "`--chaos-restart` needs `--chaos-kill`",
        ),
        (
            "route",
            "--chaos-kill 0:9 --chaos-restart 9",
            "`--chaos-restart` must fire after",
        ),
        ("route", "--bogus", "unknown flag `--bogus`"),
        ("loadgen", "--clients", "`--clients` needs"),
        (
            "loadgen",
            "--requests 1.5",
            "`--requests` needs a positive integer",
        ),
        ("loadgen", "--unique-keys 0", "`--unique-keys` needs"),
        (
            "loadgen",
            "--min-warm-hit-rate 1.01",
            "`--min-warm-hit-rate` needs a rate in [0, 1]",
        ),
        (
            "loadgen",
            "--min-cold-hit-rate NaN",
            "`--min-cold-hit-rate` needs",
        ),
        (
            "loadgen",
            "--min-warm-disk-hits -1",
            "`--min-warm-disk-hits` needs",
        ),
        ("loadgen", "--out", "`--out` needs a path"),
        ("loadgen", "--routed", "unknown flag `--routed`"),
        ("bench", "--out", "`--out` needs a path"),
        ("bench", "--quick", "unknown flag `--quick`"),
        ("compare", "a.json", "needs <baseline.json> and <new.json>"),
        (
            "compare",
            "a.json b.json c.json",
            "unexpected argument `c.json`",
        ),
        (
            "compare",
            "a.json b.json --tolerance",
            "`--tolerance` needs",
        ),
        (
            "compare",
            "a.json b.json --tolerance -1",
            "`--tolerance` needs a non-negative number",
        ),
        (
            "compare",
            "a.json b.json --tolerance lots",
            "`--tolerance` needs",
        ),
        ("compare", "a.json b.json --json", "unknown flag `--json`"),
        ("fuzz", "--cases", "`--cases` needs"),
        ("fuzz", "--seed -3", "`--seed` needs a non-negative integer"),
        ("fuzz", "--ulp 0.5", "`--ulp` needs"),
        (
            "fuzz",
            "--engine",
            "`--engine` needs one of bytecode|vector|cpu|stream|threaded|cycle",
        ),
        ("fuzz", "--engine gpu", "`--engine` needs one of"),
        (
            "fuzz",
            "--inject bitflip",
            "`--inject` needs one of offset-flip|op-swap",
        ),
        ("fuzz", "--corpus", "`--corpus` needs a directory"),
        ("fuzz", "--scale", "unknown flag `--scale`"),
        (
            "run",
            "--kernel",
            "`--kernel` needs one of heat3d|laplace|pw_advection|tracer_advection",
        ),
        ("run", "--kernel laplace3d", "`--kernel` needs one of"),
        (
            "run",
            "--engine cpu",
            "`--engine` needs one of vector|stream|threaded",
        ),
        ("run", "--grid 16,14", "`--grid` needs three positive sizes"),
        (
            "run",
            "--grid 16,0,10",
            "`--grid` needs three positive sizes",
        ),
        (
            "run",
            "--grid 16,14,10,2",
            "`--grid` needs three positive sizes",
        ),
        ("run", "--cus", "`--cus` needs"),
        (
            "run",
            "--steps -1",
            "`--steps` needs a non-negative integer",
        ),
        ("run", "--depth deep", "`--depth` needs"),
        ("run", "--parallel", "unknown flag `--parallel`"),
        ("tune", "--kernel", "`--kernel` needs one of heat3d|"),
        ("tune", "--kernel nope", "`--kernel` needs one of"),
        ("tune", "--full", "unknown flag `--full`"),
        ("json", "a.json b.json", "unexpected argument `b.json`"),
        ("figure4", "--json", "unknown flag `--json`"),
        ("all", "extra", "unexpected argument `extra`"),
        ("bogus", "", "unknown command"),
    ];

    #[test]
    fn a_refused_command_line_is_exit_2_naming_the_flag() {
        for &(cmd, line, named) in REFUSED {
            let failure = refusal(cmd, line);
            assert_eq!(failure.code, 2, "repro {cmd} {line}: {failure:?}");
            assert!(
                failure.message.contains(named),
                "repro {cmd} {line}: {failure:?}"
            );
        }
        // An unknown command is answered with the whole usage text.
        assert!(refusal("bogus", "").message.ends_with(USAGE));
    }

    #[test]
    fn help_prints_the_usage_text_which_names_every_command() {
        let mut out = Vec::new();
        dispatch("help", &[], &mut out).unwrap();
        assert_eq!(out, USAGE.as_bytes());
        let mut commands: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
        commands.extend([
            "all", "json", "bench", "compare", "fuzz", "run", "serve", "route", "loadgen", "tune",
            "help",
        ]);
        for cmd in commands {
            let documented = USAGE
                .lines()
                .any(|l| l.starts_with(&format!("repro {cmd}")));
            assert!(documented, "`repro {cmd}` is not in the usage text");
        }
    }

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    #[test]
    fn render_march_prints_a_fixed_report_as_pinned() {
        let cu = |cu, rows, stream| CuReport {
            cu,
            rows,
            interior_elems: 560,
            stream,
            model_cycles: 1472,
            wall: ms(3),
        };
        let mut report = MultiCuReport {
            cus: 2,
            steps: 4,
            engine: "stream",
            per_cu: vec![
                cu(0, (0, 8), Some((18, 47424, 2616))),
                cu(1, (8, 16), Some((18, 47424, 2616))),
            ],
            wall: ms(7),
            elems_per_s: 640000.0,
            load_imbalance: 1.25,
            cache_hits: 3,
            cache_misses: 1,
            temporal_depth: 1,
            model_passes: 4,
            rounds: Vec::new(),
            model: shmls_fpga_sim::perf::ScaleEstimate {
                per_cu_cycles: vec![1472, 1472],
                makespan_cycles: 1472,
                sum_cycles: 2944,
                load_imbalance: 1.0,
            },
        };
        assert_eq!(
            render_march(&report),
            "   cu         rows      elems  streams stream-elems  mem-beats    model-cyc    wall-ms\n\
             \x20   0       [0, 8)        560       18        47424       2616         1472      3.000\n\
             \x20   1      [8, 16)        560       18        47424       2616         1472      3.000\n\
             \x20 wall 7.000 ms, 6.400e5 elems/s, load imbalance 1.250, \
             model makespan 1472 cycles (imbalance 1.000)\n\
             \x20 compile cache: 3 hit(s), 1 miss(es) (hit rate 0.75)\n"
        );

        // One CU without stream statistics drops the three stream columns
        // for all; a temporal depth past 1 adds the per-round table.
        report.per_cu[1].stream = None;
        report.temporal_depth = 2;
        report.model_passes = 2;
        let round = |round, overlap_rows| RoundReport {
            round,
            depth: 2,
            cache_hits: 1,
            cache_misses: 1 - round as u64,
            overlap_rows,
            wall: ms(2),
        };
        report.rounds = vec![round(0, 2), round(1, 2)];
        assert_eq!(
            render_march(&report),
            "   cu         rows      elems    model-cyc    wall-ms\n\
             \x20   0       [0, 8)        560         1472      3.000\n\
             \x20   1      [8, 16)        560         1472      3.000\n\
             \x20 wall 7.000 ms, 6.400e5 elems/s, load imbalance 1.250, \
             model makespan 1472 cycles (imbalance 1.000)\n\
             \x20 compile cache: 3 hit(s), 1 miss(es) (hit rate 0.75)\n\
             \x20 temporal blocking: 2 external pass(es) instead of 4 (model passes 2)\n\
             \x20 round  depth  cache-hit   cache-miss overlap-rows    wall-ms\n\
             \x20     0      2          1            1            2      2.000\n\
             \x20     1      2          1            0            2      2.000\n"
        );
    }
}
