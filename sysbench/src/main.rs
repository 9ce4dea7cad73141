//! `sysbench` — the system benchmark.
//!
//! ```text
//! sysbench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! sysbench check BASELINE.json CANDIDATE.json [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` measures one workload in this process, or — without `--workload` —
//! each of the seven in a child process of its own, so that one workload's
//! peak memory and warmed caches never reach the next. It prints every
//! metric as `workload metric value unit` and ends with one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. End-to-end metrics come
//! from a run with tracing off; `--trace 1` reports the per-layer metrics
//! instead (and, over all workloads, both). `--out DIR` is where a traced
//! run writes its spans and a run over all workloads its result set. See
//! `README.md` beside this crate's manifest.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use shmls_ir::json::Json;

mod client;
mod inputs;
mod kernels;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::RunConfig;

const USAGE: &str = "usage: sysbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--out DIR]\n       sysbench check BASELINE.json CANDIDATE.json [--benchmark FILE]";

/// Length of a workload's timed region when `--seconds` is not given:
/// `run_seconds` of `BENCHMARK.json` (a unit test holds the two equal).
/// The benchmark driver appends `--seconds <run_seconds>` to the command
/// itself, so the flag is part of its contract; the workload sizes were
/// measured at this length, and two result sets compare only if both ran
/// for it.
pub(crate) const DEFAULT_SECONDS: f64 = 12.0;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match args.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(workload) = &parsed.workload {
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of: {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(parsed)
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A directory beside the executable (inside the build directory, so
/// inside the checkout) for what a run must put on disk.
fn scratch_dir() -> PathBuf {
    let beside = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    beside.join(format!("sysbench-scratch-{}", std::process::id()))
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(name), text))
        .map_err(|e| format!("cannot write {}: {e}", dir.join(name).display()))
}

/// Measure one workload in this process and print its result.
fn run_one(workload: &str, args: &RunArgs) -> Result<bool, String> {
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.smoke { 0.1 } else { DEFAULT_SECONDS }),
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch_dir(),
    };
    let mut tracer = trace::Tracer::new();
    let result: RunResult =
        workloads::run(workload, &cfg, &mut tracer).ok_or("unknown workload")?;
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    println!("{workload} host.cpus {} count", cpus());
    for &(name, unit) in table {
        if let Some(value) = result.value(name) {
            println!("{workload} {name} {value} {unit}");
        }
    }
    for (name, value, unit) in &result.facts {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload} error_rate {} ratio",
        result.checks.failed as f64 / result.checks.attempted.max(1) as f64
    );
    for note in &result.checks.notes {
        eprintln!("sysbench: {workload}: FAILED {note}");
    }

    if let (true, Some(dir)) = (args.trace, &args.out) {
        let spans = tracer.to_json().compact();
        write_file(dir, &format!("{workload}.trace.json"), &spans)?;
    }
    let doc = report::result_json(&result, table);
    println!("{}", doc.compact());
    Ok(result.checks.failed == 0)
}

/// Run `sysbench run --workload W ...` as a child, relaying its listing,
/// and return the result object on its last line.
fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(out) = &args.out {
        command.arg("--out").arg(out);
    }
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the {workload} child: {e}"))?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    // The child has closed its output; wait so that it is gone before the
    // next workload starts. Its exit code repeats what `correct` says.
    child
        .wait()
        .map_err(|e| format!("waiting for the {workload} child: {e}"))?;
    Json::parse(&last).map_err(|e| format!("the {workload} child printed no result: {e}"))
}

/// Measure every workload, each in its own process.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let end_to_end = run_child(workload, args, false)?;
        let per_layer = if args.trace {
            Some(run_child(workload, args, true)?)
        } else {
            None
        };
        for doc in std::iter::once(&end_to_end).chain(&per_layer) {
            correct &= doc.get("correct") == Some(&Json::Bool(true));
            attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, metric) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                metrics.push((format!("{workload}.{name}"), metric.clone()));
            }
        }
        workloads.push((workload.to_string(), end_to_end, per_layer));
    }
    if let Some(dir) = &args.out {
        let set = report::result_set(cpus(), args.seed, workloads);
        write_file(dir, "results.json", &set.pretty())?;
    }
    let summary = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted)),
        ("failed".to_string(), Json::Num(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    println!("{}", summary.compact());
    Ok(correct)
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `sysbench check`: compare two result sets against the bounds.
fn check(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--benchmark" {
            benchmark = args.next().ok_or("--benchmark needs a file")?.clone();
        } else {
            files.push(arg.as_str());
        }
    }
    let [baseline, candidate] = files[..] else {
        return Err("check takes a baseline and a candidate result set".to_string());
    };
    let bounds = report::bounds(&load_json(&benchmark)?)?;
    let (lines, breaches) = report::compare(&load_json(baseline)?, &load_json(candidate)?, &bounds);
    for line in lines {
        println!("{line}");
    }
    println!("{breaches} breaches");
    Ok(breaches == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run_args(rest).and_then(|parsed| match parsed.workload.clone() {
                Some(workload) => run_one(&workload, &parsed),
                None => run_all(&parsed),
            })
        }
        Some((command, rest)) if command == "check" => check(rest),
        _ => Err("expected `run` or `check`".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sysbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
