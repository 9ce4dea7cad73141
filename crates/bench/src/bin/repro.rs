//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro figure4          # Figure 4: performance (MPt/s)
//! repro figure5          # Figure 5: PW advection power/energy
//! repro figure6          # Figure 6: tracer advection power/energy
//! repro table1           # Table 1: PW advection resources
//! repro table2           # Table 2: tracer advection resources
//! repro ablation         # §4 speed-up decomposition (4 × 9 × 3 ≈ 108)
//! repro dse              # port-bundling DSE (§4 future-work heuristic)
//! repro cycles           # analytic vs cycle-simulated model validation,
//!                        # toy grids and the paper's 8M points
//! repro ii               # measured initiation intervals
//! repro validate         # functional validation on the simulator
//! repro all              # everything above (cycles: toy grids only)
//! repro json <path>      # dump raw results as JSON (artifact-style)
//! repro bench [--out PATH]
//!                        # the deterministic ledger -> BENCH.json
//! repro compare <baseline.json> <new.json> [--tolerance PCT] [--markdown]
//!                        # delta table; exit 1 on regressions
//! repro fuzz [--cases N] [--seed S] [--engine E]... [--ulp N]
//!            [--inject offset-flip|op-swap] [--corpus DIR]
//!            [--max-failures N] [--shrink-budget N] [--no-scale]
//!                        # cross-engine differential fuzzing; exit 1 on
//!                        # any disagreement (reproducers land in DIR)
//! repro run [--kernel heat3d|laplace|pw_advection|tracer_advection]
//!           [--grid I,J,K]
//!           [--cus N] [--steps T] [--depth D]
//!           [--engine vector|stream|threaded] [--serial] [--check-parallel]
//!                        # scale-out execution: time-march over parallel
//!                        # CU slabs in rounds of D steps on the vector
//!                        # tier (default) or a dataflow engine, which
//!                        # adds stream and beat counts; per-CU report
//! repro serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//!             [--capacity N]
//!                        # compile server: newline-delimited JSON over
//!                        # TCP, persistent cache, runs until killed
//! repro route [--addr HOST:PORT] [--shards N] [--cache-dir DIR]
//!             [--workers N] [--capacity N]
//!             [--chaos-kill WHO:AFTER] [--chaos-restart AFTER]
//!                        # sharded front tier: N in-process compile
//!                        # shards behind a consistent-hash router; the
//!                        # chaos flags kill/restart a shard once the
//!                        # router has relayed AFTER responses (WHO is a
//!                        # shard id or `busiest`)
//! repro loadgen [--addr HOST:PORT] [--clients N] [--requests M]
//!               [--unique-keys K] [--min-warm-hit-rate F]
//!               [--min-cold-hit-rate F] [--router]
//!               [--min-warm-disk-hits N] [--out PATH]
//!                        # two-phase load test against a live server or
//!                        # (--router) the sharded front tier; exit 1 on
//!                        # any gate violation
//! repro tune [--kernel NAME] [--quick] [--json]
//!                        # joint design-space autotuner: sweep CU count
//!                        # x slab split x FIFO depth x port bundling x
//!                        # temporal depth, prune with the analytic
//!                        # models, cycle-simulate the Pareto frontier,
//!                        # and explain each winner's binding constraint
//! ```

use std::time::Duration;

use shmls_baselines::EvalContext;
use shmls_bench::{
    ablation, cycles, cycles_at_paper_size, dse, evaluate_all, figure4, figure5, figure6,
    ii_report, table1, table2,
};

fn validate() -> String {
    use shmls_kernels::{pw_advection, tracer_advection};
    use stencil_hmls::runner::{run_hls, run_hls_threaded, run_stencil, KernelData};
    use stencil_hmls::{compile, CompileOptions};

    let mut out = String::from(
        "Functional validation (tiny grids, full dataflow execution)\n\
         ============================================================\n",
    );
    // PW advection.
    {
        let n = [10, 8, 6];
        let compiled = compile(
            &pw_advection::source(n[0], n[1], n[2]),
            &CompileOptions::default(),
        )
        .unwrap();
        let inputs = pw_advection::PwInputs::random(n[0], n[1], n[2], 1);
        let (su, _, _) = pw_advection::golden(&inputs);
        let data = KernelData::default()
            .buffer("u", inputs.u.to_buffer())
            .buffer("v", inputs.v.to_buffer())
            .buffer("w", inputs.w.to_buffer())
            .buffer("tzc1", inputs.tzc1.to_buffer())
            .buffer("tzc2", inputs.tzc2.to_buffer())
            .buffer("tzd1", inputs.tzd1.to_buffer())
            .buffer("tzd2", inputs.tzd2.to_buffer())
            .scalar("tcx", inputs.tcx)
            .scalar("tcy", inputs.tcy);
        let stencil_out = run_stencil(&compiled, &data).unwrap();
        let (hls_out, (streams, pushed, beats)) = run_hls(&compiled, &data).unwrap();
        let threaded = run_hls_threaded(&compiled, &data, Duration::from_secs(30)).unwrap();
        let diff = shmls_kernels::Grid3::from_buffer(&hls_out["su"]).max_diff(&su);
        out.push_str(&format!(
            "  PW advection {n:?}: stencil==golden: {}, dataflow==golden: {} \
             (max |diff| = {diff:.2e})\n",
            check(shmls_kernels::Grid3::from_buffer(&stencil_out["su"]).max_diff(&su) < 1e-12),
            check(diff < 1e-12),
        ));
        out.push_str(&format!(
            "    sequential engine: {streams} streams, {pushed} elements, {beats} mem beats\n"
        ));
        match &threaded {
            Ok(_) => out.push_str("    threaded engine (bounded FIFOs): PASS\n"),
            Err(report) => out.push_str(&format!(
                "    threaded engine (bounded FIFOs): FAIL\n{report}"
            )),
        }
    }
    // Tracer advection.
    {
        let n = [8, 7, 6];
        let compiled = compile(
            &tracer_advection::source(n[0], n[1], n[2]),
            &CompileOptions::default(),
        )
        .unwrap();
        let inputs = tracer_advection::TracerInputs::random(n[0], n[1], n[2], 2);
        let golden = tracer_advection::golden(&inputs);
        let data = KernelData::default()
            .buffer("tsn", inputs.tsn.to_buffer())
            .buffer("pun", inputs.pun.to_buffer())
            .buffer("pvn", inputs.pvn.to_buffer())
            .buffer("pwn", inputs.pwn.to_buffer())
            .buffer("tmask", inputs.tmask.to_buffer())
            .buffer("umask", inputs.umask.to_buffer())
            .buffer("vmask", inputs.vmask.to_buffer())
            .buffer("rnfmsk", inputs.rnfmsk.to_buffer())
            .buffer("upsmsk", inputs.upsmsk.to_buffer())
            .buffer("ztfreez", inputs.ztfreez.to_buffer())
            .buffer("rnfmsk_z", inputs.rnfmsk_z.to_buffer())
            .buffer("e3t", inputs.e3t.to_buffer())
            .scalar("pdt", inputs.pdt);
        let (hls_out, _) = run_hls(&compiled, &data).unwrap();
        let diff =
            shmls_kernels::Grid3::from_buffer(&hls_out["mydomain"]).max_diff(&golden.mydomain);
        out.push_str(&format!(
            "  tracer advection {n:?}: dataflow==golden: {} (max |diff| = {diff:.2e})\n",
            check(diff < 1e-12)
        ));
    }
    out
}

fn check(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Flush both standard streams, then exit. `process::exit` skips `Drop`
/// handlers, so anything still buffered (stdout is block-buffered when
/// piped — exactly the CI case) would be lost right when the diagnostic
/// matters most.
fn exit_flushed(code: i32) -> ! {
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let _ = std::io::stderr().flush();
    std::process::exit(code);
}

/// `repro serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
/// [--capacity N]`
fn serve_cmd(args: &[String]) {
    use shmls_serve::server::{serve, ServerConfig};
    let mut config = ServerConfig {
        addr: "127.0.0.1:7456".to_string(),
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => config.addr = a.clone(),
                None => {
                    eprintln!("repro serve: `--addr` needs host:port");
                    exit_flushed(2);
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => config.cache_dir = Some(std::path::PathBuf::from(d)),
                None => {
                    eprintln!("repro serve: `--cache-dir` needs a directory");
                    exit_flushed(2);
                }
            },
            "--workers" | "--capacity" => {
                let which = arg.clone();
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => {
                        if which == "--workers" {
                            config.workers = n;
                        } else {
                            config.capacity = n;
                        }
                    }
                    _ => {
                        eprintln!("repro serve: `{which}` needs a positive integer");
                        exit_flushed(2);
                    }
                }
            }
            other => {
                eprintln!("repro serve: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }
    let handle = match serve(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("repro serve: cannot bind `{}`: {e}", config.addr);
            exit_flushed(1);
        }
    };
    println!("shmls-serve listening on {}", handle.local_addr());
    match &config.cache_dir {
        Some(dir) => println!("  cache dir: {}", dir.display()),
        None => println!("  cache: in-memory only (cold on every start)"),
    }
    // The banner must reach a piped supervisor before this process
    // blocks forever (CI polls the log for the listening line).
    {
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
    loop {
        std::thread::park();
    }
}

/// `repro route [--addr HOST:PORT] [--shards N] [--cache-dir DIR]
/// [--workers N] [--capacity N] [--chaos-kill WHO:AFTER]
/// [--chaos-restart AFTER]`
///
/// Runs N compile shards in-process behind the consistent-hash router.
/// The chaos flags are the CI fault-injection hooks: once the router
/// has relayed `AFTER` responses, the named shard (`busiest` picks the
/// one that has served the most traffic, so the victim provably owns
/// keys) is killed; `--chaos-restart` brings it back at a later
/// threshold. Both events are logged on stdout for the CI job to grep.
fn route_cmd(args: &[String]) {
    use shmls_serve::router::{start_router, RouterConfig};
    use shmls_serve::shard::{ShardSet, ShardSetConfig};

    let mut addr = "127.0.0.1:7456".to_string();
    let mut set_config = ShardSetConfig::default();
    let mut chaos_kill: Option<(String, u64)> = None;
    let mut chaos_restart: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("repro route: `--addr` needs host:port");
                    exit_flushed(2);
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => set_config.cache_dir = Some(std::path::PathBuf::from(d)),
                None => {
                    eprintln!("repro route: `--cache-dir` needs a directory");
                    exit_flushed(2);
                }
            },
            "--shards" | "--workers" | "--capacity" => {
                let which = arg.clone();
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => match which.as_str() {
                        "--shards" => set_config.shards = n,
                        "--workers" => set_config.workers_per_shard = n,
                        _ => set_config.capacity = n,
                    },
                    _ => {
                        eprintln!("repro route: `{which}` needs a positive integer");
                        exit_flushed(2);
                    }
                }
            }
            "--chaos-kill" => match it.next().and_then(|v| {
                let (who, after) = v.split_once(':')?;
                Some((who.to_string(), after.parse::<u64>().ok()?))
            }) {
                Some(spec) => chaos_kill = Some(spec),
                None => {
                    eprintln!("repro route: `--chaos-kill` needs WHO:AFTER (e.g. busiest:20)");
                    exit_flushed(2);
                }
            },
            "--chaos-restart" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(after) => chaos_restart = Some(after),
                None => {
                    eprintln!("repro route: `--chaos-restart` needs a response count");
                    exit_flushed(2);
                }
            },
            other => {
                eprintln!("repro route: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }
    if let (Some((_, kill_after)), Some(restart_after)) = (&chaos_kill, &chaos_restart) {
        if restart_after <= kill_after {
            eprintln!("repro route: `--chaos-restart` must fire after `--chaos-kill`");
            exit_flushed(2);
        }
    }

    let shards = match ShardSet::start(set_config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro route: cannot start shards: {e}");
            exit_flushed(1);
        }
    };
    let router = match start_router(
        RouterConfig {
            addr: addr.clone(),
            ..Default::default()
        },
        shards.topology(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro route: cannot bind `{addr}`: {e}");
            exit_flushed(1);
        }
    };
    println!(
        "shmls-route listening on {} ({} shards)",
        router.local_addr(),
        set_config.shards
    );
    for slot in shards.topology().snapshot() {
        println!(
            "  shard {} on {}",
            slot.id,
            slot.addr.as_deref().unwrap_or("<unbound>")
        );
    }
    match &set_config.cache_dir {
        Some(dir) => println!("  shared cache dir: {}", dir.display()),
        None => println!("  cache: per-shard memory only (no shared disk tier)"),
    }
    // The banner must reach a piped supervisor before this process
    // blocks (CI polls the log for the listening line).
    {
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }

    let wait_for = |count: u64| {
        while router.forwarded() < count {
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    if let Some((who, kill_after)) = chaos_kill {
        wait_for(kill_after);
        let victim = if who == "busiest" {
            router
                .report()
                .shards
                .iter()
                .filter(|s| s.alive)
                .max_by_key(|s| s.traffic.requests)
                .map(|s| s.id)
        } else {
            who.parse::<usize>().ok()
        };
        let Some(victim) = victim else {
            eprintln!("repro route: `--chaos-kill {who}` names no live shard");
            exit_flushed(1);
        };
        if !shards.kill(victim) {
            eprintln!("repro route: chaos kill: shard {victim} was not alive");
            exit_flushed(1);
        }
        println!(
            "chaos: killed shard {victim} after {} responses",
            router.forwarded()
        );
        {
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        if let Some(restart_after) = chaos_restart {
            wait_for(restart_after);
            match shards.restart(victim) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("repro route: chaos restart: shard {victim} was not dead");
                    exit_flushed(1);
                }
                Err(e) => {
                    eprintln!("repro route: chaos restart failed: {e}");
                    exit_flushed(1);
                }
            }
            println!(
                "chaos: restarted shard {victim} after {} responses",
                router.forwarded()
            );
            {
                use std::io::Write;
                let _ = std::io::stdout().flush();
            }
        }
    }
    loop {
        std::thread::park();
    }
}

/// `repro loadgen [--addr HOST:PORT] [--clients N] [--requests M]
/// [--unique-keys K] [--min-warm-hit-rate F] [--min-cold-hit-rate F]
/// [--router] [--min-warm-disk-hits N] [--out PATH]`
fn loadgen_cmd(args: &[String]) {
    use shmls_serve::loadgen::{run, LoadgenConfig};
    let mut config = LoadgenConfig::default();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => config.addr = a.clone(),
                None => {
                    eprintln!("repro loadgen: `--addr` needs host:port");
                    exit_flushed(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("repro loadgen: `--out` needs a path");
                    exit_flushed(2);
                }
            },
            "--clients" | "--requests" | "--unique-keys" => {
                let which = arg.clone();
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => match which.as_str() {
                        "--clients" => config.clients = n,
                        "--requests" => config.requests = n,
                        _ => config.unique_keys = n,
                    },
                    _ => {
                        eprintln!("repro loadgen: `{which}` needs a positive integer");
                        exit_flushed(2);
                    }
                }
            }
            "--min-warm-hit-rate" | "--min-cold-hit-rate" => {
                let which = arg.clone();
                match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(f) if (0.0..=1.0).contains(&f) => {
                        if which == "--min-warm-hit-rate" {
                            config.min_warm_hit_rate = f;
                        } else {
                            config.min_cold_hit_rate = f;
                        }
                    }
                    _ => {
                        eprintln!("repro loadgen: `{which}` needs a rate in [0, 1]");
                        exit_flushed(2);
                    }
                }
            }
            "--router" => config.router = true,
            "--min-warm-disk-hits" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => config.min_warm_disk_hits = n,
                None => {
                    eprintln!("repro loadgen: `--min-warm-disk-hits` needs an integer");
                    exit_flushed(2);
                }
            },
            other => {
                eprintln!("repro loadgen: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }

    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro loadgen: cannot reach `{}`: {e}", config.addr);
            exit_flushed(1);
        }
    };
    println!(
        "loadgen against {}: {} clients, {} requests/phase, {} unique keys",
        config.addr, config.clients, config.requests, config.unique_keys
    );
    for (name, phase) in [("cold", &report.cold), ("warm", &report.warm)] {
        println!(
            "  {name}: {} ok / {} requests, {} miss {} hit {} disk-hit {} coalesced, \
             hit rate {:.3}, {:.1} req/s ({:.1} compiles/s), p50 {:.3} ms, p99 {:.3} ms",
            phase.requests - phase.errors,
            phase.requests,
            phase.misses,
            phase.memory_hits,
            phase.disk_hits,
            phase.coalesced,
            phase.hit_rate(),
            phase.requests_per_s(),
            phase.compiles_per_s(),
            phase.p50_us as f64 / 1e3,
            phase.p99_us as f64 / 1e3,
        );
    }
    if let Some(router) = &report.router {
        println!(
            "  router: {} forwarded, {} replays, {} unroutable, {} shard deaths",
            router.forwarded,
            router.replays,
            router.unroutable,
            router.deaths()
        );
        for shard in &router.shards {
            let t = &shard.traffic;
            println!(
                "    shard {} [{}]: {} req, {} miss {} hit {} disk-hit {} coalesced, \
                 {} errors, {} replays, {} deaths",
                shard.id,
                if shard.alive { "alive" } else { "dead" },
                t.requests,
                t.misses,
                t.memory_hits,
                t.disk_hits,
                t.coalesced,
                t.errors,
                t.replays,
                shard.deaths,
            );
        }
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, report.to_json().pretty()) {
            eprintln!("repro loadgen: cannot write `{path}`: {e}");
            exit_flushed(1);
        }
        println!("wrote {path}");
    }
    if !report.passed() {
        for failure in &report.gate_failures {
            println!("  GATE FAIL: {failure}");
        }
        exit_flushed(1);
    }
    println!("loadgen gate: PASS");
}

/// `repro bench [--out PATH]`
fn bench(args: &[String]) {
    use shmls_bench::telemetry::run_bench;
    let mut out_path = "BENCH.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("repro bench: `--out` needs a path");
                    exit_flushed(2);
                }
            },
            other => {
                eprintln!("repro bench: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }
    let report = match run_bench() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro bench: {e}");
            exit_flushed(1);
        }
    };
    let body = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &body) {
        eprintln!("repro bench: cannot write `{out_path}`: {e}");
        exit_flushed(1);
    }
    println!("Benchmark (rev {})", report.git_rev);
    let width = report.metrics.keys().map(String::len).max().unwrap_or(6);
    for (key, m) in &report.metrics {
        println!("  {key:<width$} {:>14.3} {}", m.value, m.unit);
    }
    println!("wrote {out_path} ({} metrics)", report.metrics.len());
}

/// `repro compare <baseline> <new> [--tolerance PCT] [--markdown]`
fn compare_cmd(args: &[String]) {
    use shmls_bench::telemetry::{compare, BenchReport};
    let mut paths: Vec<&String> = Vec::new();
    let mut tolerance_pct = 2.0;
    let mut markdown = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--markdown" => markdown = true,
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => tolerance_pct = v,
                _ => {
                    eprintln!("repro compare: `--tolerance` needs a non-negative number");
                    exit_flushed(2);
                }
            },
            other if !other.starts_with("--") => paths.push(arg),
            other => {
                eprintln!("repro compare: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        eprintln!("usage: repro compare <baseline.json> <new.json> [--tolerance PCT] [--markdown]");
        exit_flushed(2);
    };
    let load = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match BenchReport::from_json(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repro compare: `{path}`: {e}");
                exit_flushed(2);
            }
        },
        Err(e) => {
            eprintln!("repro compare: cannot read `{path}`: {e}");
            exit_flushed(2);
        }
    };
    let base = load(base_path);
    let new = load(new_path);
    let report = match compare(&base, &new, tolerance_pct) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro compare: {e}");
            exit_flushed(2);
        }
    };
    if markdown {
        print!("{}", report.render_markdown());
    } else {
        print!("{}", report.render_text());
    }
    if report.regressions() > 0 {
        exit_flushed(1);
    }
}

/// `repro fuzz [--cases N] [--seed S] [--engine E]... [--ulp N]
/// [--inject FAULT] [--corpus DIR] [--max-failures N] [--shrink-budget N]`
fn fuzz_cmd(args: &[String]) {
    use shmls_conformance::harness::Fault;
    use shmls_conformance::{run_fuzz, Engine, FuzzOptions};

    let mut opts = FuzzOptions::default();
    let mut engines: Vec<Engine> = Vec::new();
    let mut it = args.iter();
    let parse_u64 = |flag: &str, v: Option<&String>| -> u64 {
        match v.and_then(|v| v.parse::<u64>().ok()) {
            Some(n) => n,
            None => {
                eprintln!("repro fuzz: `{flag}` needs a non-negative integer");
                exit_flushed(2);
            }
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cases" => opts.cases = parse_u64(arg, it.next()),
            "--seed" => opts.seed = parse_u64(arg, it.next()),
            "--ulp" => opts.check.max_ulps = parse_u64(arg, it.next()),
            "--max-failures" => opts.max_failures = parse_u64(arg, it.next()) as usize,
            "--shrink-budget" => opts.shrink_budget = parse_u64(arg, it.next()) as usize,
            "--engine" => match it.next().and_then(|v| Engine::parse(v)) {
                Some(e) => engines.push(e),
                None => {
                    eprintln!("repro fuzz: `--engine` needs one of cpu|hls|threaded|cycle");
                    exit_flushed(2);
                }
            },
            "--inject" => match it.next().and_then(|v| Fault::parse(v)) {
                Some(f) => opts.check.inject = Some(f),
                None => {
                    eprintln!("repro fuzz: `--inject` needs offset-flip or op-swap");
                    exit_flushed(2);
                }
            },
            "--corpus" => match it.next() {
                Some(dir) => opts.corpus_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("repro fuzz: `--corpus` needs a directory");
                    exit_flushed(2);
                }
            },
            "--no-scale" => opts.scale = false,
            other => {
                eprintln!("repro fuzz: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }
    if !engines.is_empty() {
        opts.check.engines = engines;
    }

    println!(
        "fuzzing {} cases, seed {}, engines [{}]{}",
        opts.cases,
        opts.seed,
        opts.check
            .engines
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(", "),
        match opts.check.inject {
            Some(f) => format!(", injecting {f}"),
            None => String::new(),
        }
    );
    let summary = run_fuzz(&opts, &mut |line| println!("  {line}"));
    println!(
        "checked {} cases (digest {:016x}): {} failure(s){}",
        summary.cases,
        summary.digest,
        summary.failures.len(),
        if opts.check.inject.is_some() {
            format!(", fault injected in {} case(s)", summary.injected)
        } else {
            String::new()
        }
    );
    if !summary.clean() {
        exit_flushed(1);
    }
}

/// `repro run [--kernel NAME] [--grid I,J,K] [--cus N] [--steps T]
/// [--depth D] [--engine vector|stream|threaded] [--serial]
/// [--check-parallel]`
fn run_cmd(args: &[String]) {
    use shmls_bench::telemetry::{bench_kernel_names, kernel_data, source_for};
    use stencil_hmls::cache::CompileCache;
    use stencil_hmls::engine::{self, Engine, VECTOR};
    use stencil_hmls::scale::{run_time_marched_with, MarchOptions, MultiCuReport};
    use stencil_hmls::CompileOptions;

    let mut kname = "pw_advection".to_string();
    let mut grid = [16i64, 14, 10];
    let mut cus = 4usize;
    let mut steps = 1usize;
    let mut depth = 1usize;
    let mut engine: &dyn Engine = &VECTOR;
    let mut serial = false;
    let mut check_parallel = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kernel" => match it.next() {
                Some(k) if bench_kernel_names().contains(&k.as_str()) => kname = k.clone(),
                _ => {
                    eprintln!(
                        "repro run: `--kernel` needs one of {}",
                        bench_kernel_names().join("|")
                    );
                    exit_flushed(2);
                }
            },
            "--engine" => match it.next().and_then(|name| engine::by_name(name)) {
                Some(e) => engine = e,
                None => {
                    eprintln!("repro run: `--engine` needs one of vector|stream|threaded");
                    exit_flushed(2);
                }
            },
            "--grid" => {
                let parts: Option<Vec<i64>> = it
                    .next()
                    .map(|v| v.split(',').map(|p| p.trim().parse::<i64>().ok()).collect())
                    .unwrap_or(None);
                match parts.as_deref() {
                    Some([i, j, k]) if *i > 0 && *j > 0 && *k > 0 => grid = [*i, *j, *k],
                    _ => {
                        eprintln!("repro run: `--grid` needs three positive sizes, e.g. 16,14,10");
                        exit_flushed(2);
                    }
                }
            }
            "--cus" | "--steps" | "--depth" => {
                let which = arg.clone();
                match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => match which.as_str() {
                        "--cus" => cus = n,
                        "--steps" => steps = n,
                        // 0 passes through so the march's structured
                        // error surfaces instead of an argv error.
                        _ => depth = n,
                    },
                    None => {
                        eprintln!("repro run: `{which}` needs a non-negative integer");
                        exit_flushed(2);
                    }
                }
            }
            "--serial" => serial = true,
            "--check-parallel" => check_parallel = true,
            other => {
                eprintln!("repro run: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }

    let kernel = match shmls_frontend::parse_kernel(&source_for(&kname, grid)) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("repro run: parsing {kname}: {e}");
            exit_flushed(1);
        }
    };
    let data = kernel_data(&kname, grid);
    let mut opts = CompileOptions::default();
    opts.hmls.temporal_depth = depth;
    let cache = CompileCache::new();
    let march = |serial: bool| MarchOptions {
        serial,
        cache: Some(&cache),
        engine: Some(engine),
        ..Default::default()
    };
    let run = |serial: bool| -> MultiCuReport {
        match run_time_marched_with(&kernel, &data, steps, cus, &opts, &march(serial)) {
            Ok((_, report)) => report,
            Err(e) => {
                eprintln!("repro run: {e}");
                exit_flushed(1);
            }
        }
    };

    let report = run(serial);
    println!(
        "{kname} {grid:?}: {} step(s) over {} compute unit(s) at temporal depth {} \
         on the {} engine ({})",
        report.steps,
        report.cus,
        report.temporal_depth,
        report.engine,
        if serial { "serial" } else { "parallel" }
    );
    // Stream and beat counts exist only where an engine executed streams.
    let streamed = report.per_cu.iter().all(|cu| cu.stream.is_some());
    print!("  {:>3} {:>12} {:>10}", "cu", "rows", "elems");
    if streamed {
        print!(
            " {:>8} {:>12} {:>10}",
            "streams", "stream-elems", "mem-beats"
        );
    }
    println!(" {:>12} {:>10}", "model-cyc", "wall-ms");
    for cu in &report.per_cu {
        print!(
            "  {:>3} {:>12} {:>10}",
            cu.cu,
            format!("[{}, {})", cu.rows.0, cu.rows.1),
            cu.interior_elems,
        );
        if let Some((streams, pushed, beats)) = cu.stream.filter(|_| streamed) {
            print!(" {streams:>8} {pushed:>12} {beats:>10}");
        }
        println!(
            " {:>12} {:>10.3}",
            cu.model_cycles,
            cu.wall.as_secs_f64() * 1e3
        );
    }
    println!(
        "  wall {:.3} ms, {:.3e} elems/s, load imbalance {:.3}, \
         model makespan {} cycles (imbalance {:.3})",
        report.wall.as_secs_f64() * 1e3,
        report.elems_per_s,
        report.load_imbalance,
        report.model.makespan_cycles,
        report.model.load_imbalance,
    );
    println!(
        "  compile cache: {} hit(s), {} miss(es) (hit rate {:.2})",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate()
    );
    if report.temporal_depth > 1 {
        println!(
            "  temporal blocking: {} external pass(es) instead of {} \
             (model passes {})",
            report.rounds.len(),
            report.steps,
            report.model_passes,
        );
        println!(
            "  {:>5} {:>6} {:>10} {:>12} {:>12} {:>10}",
            "round", "depth", "cache-hit", "cache-miss", "overlap-rows", "wall-ms"
        );
        for r in &report.rounds {
            println!(
                "  {:>5} {:>6} {:>10} {:>12} {:>12} {:>10.3}",
                r.round,
                r.depth,
                r.cache_hits,
                r.cache_misses,
                r.overlap_rows,
                r.wall.as_secs_f64() * 1e3,
            );
        }
    }

    if check_parallel {
        // Best-of-3 each way: the cache is warm after the first run, so
        // this measures execution, not compilation. On a multi-core host
        // parallel must be no slower than serial, to within the 10% two
        // timings of the same work differ by (the march sweeps slabs too
        // small to be worth a thread on the calling thread in both
        // modes); on a single core a speedup is physically impossible, so
        // only bound the threading overhead instead (1.5× serial).
        let best = |serial: bool| (0..3).map(|_| run(serial).wall).min().unwrap();
        let serial_wall = best(true);
        let parallel_wall = best(false);
        let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (limit, rule) = if cpus >= 2 {
            (serial_wall * 11 / 10, "parallel <= 1.1x serial")
        } else {
            (serial_wall * 3 / 2, "single core: parallel <= 1.5x serial")
        };
        println!(
            "  check-parallel: serial {:.3} ms, parallel {:.3} ms, speedup {:.2}x ({rule})",
            serial_wall.as_secs_f64() * 1e3,
            parallel_wall.as_secs_f64() * 1e3,
            speedup,
        );
        if parallel_wall > limit {
            eprintln!("repro run: parallel execution violated `{rule}`");
            exit_flushed(1);
        }
    }
}

/// `repro tune [--kernel NAME] [--quick] [--json]`
fn tune_cmd(args: &[String]) {
    use shmls_bench::telemetry::{bench_kernel_names, source_for};
    use stencil_hmls::autotune::{self, TuneOptions};
    use stencil_hmls::cache::CompileCache;

    let mut kname = "heat3d".to_string();
    let mut quick = false;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--kernel" => match it.next() {
                Some(k) if bench_kernel_names().contains(&k.as_str()) => kname = k.clone(),
                _ => {
                    eprintln!(
                        "repro tune: `--kernel` needs one of {}",
                        bench_kernel_names().join("|")
                    );
                    exit_flushed(2);
                }
            },
            "--quick" => quick = true,
            "--json" => json = true,
            other => {
                eprintln!("repro tune: unknown flag `{other}`");
                exit_flushed(2);
            }
        }
    }

    // Quick mode trims both the grid and the sweep axes; the full grid
    // matches the paper-scale `repro run` default.
    let grid = if quick { [12, 10, 8] } else { [16, 14, 10] };
    let kernel = match shmls_frontend::parse_kernel(&source_for(&kname, grid)) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("repro tune: parsing {kname}: {e}");
            exit_flushed(1);
        }
    };
    let opts = if quick {
        TuneOptions::quick()
    } else {
        TuneOptions::full()
    };
    let cache = CompileCache::new();
    let report = match autotune::tune(&kernel, &opts, &cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro tune: {e}");
            exit_flushed(1);
        }
    };
    if json {
        print!("{}", report.to_json().pretty());
    } else {
        print!("{}", autotune::render(&report));
    }
    if report.frontier.is_empty() {
        eprintln!("repro tune: no feasible design on this device (empty Pareto frontier)");
        exit_flushed(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let eval = EvalContext::default();
    let command = args.first().map(String::as_str).unwrap_or("all");
    match command {
        "figure4" => print!("{}", figure4(&eval)),
        "figure5" => print!("{}", figure5(&eval)),
        "figure6" => print!("{}", figure6(&eval)),
        "table1" => print!("{}", table1(&eval)),
        "table2" => print!("{}", table2(&eval)),
        "ablation" => print!("{}", ablation(&eval)),
        "dse" => print!("{}", dse(&eval)),
        "cycles" => print!("{}\n{}", cycles(&eval), cycles_at_paper_size()),
        "ii" => print!("{}", ii_report(&eval)),
        "validate" => print!("{}", validate()),
        "bench" => bench(&args[1..]),
        "compare" => compare_cmd(&args[1..]),
        "fuzz" => fuzz_cmd(&args[1..]),
        "run" => run_cmd(&args[1..]),
        "tune" => tune_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "route" => route_cmd(&args[1..]),
        "loadgen" => loadgen_cmd(&args[1..]),
        "json" => {
            let path = args.get(1).map(String::as_str).unwrap_or("results.json");
            let results = evaluate_all(&eval);
            if let Err(e) = std::fs::write(path, results.to_json().pretty()) {
                eprintln!("repro: cannot write `{path}`: {e}");
                exit_flushed(1);
            }
            println!("wrote {path}");
        }
        "all" => {
            for section in [
                figure4(&eval),
                figure5(&eval),
                figure6(&eval),
                table1(&eval),
                table2(&eval),
                ablation(&eval),
                dse(&eval),
                cycles(&eval),
                ii_report(&eval),
                validate(),
            ] {
                println!("{section}");
            }
        }
        other => {
            eprintln!(
                "unknown command `{other}`; expected figure4|figure5|figure6|table1|table2|\
                 ablation|dse|cycles|ii|validate|bench|compare|fuzz|run|tune|serve|route|loadgen|\
                 json|all"
            );
            exit_flushed(2);
        }
    }
}
